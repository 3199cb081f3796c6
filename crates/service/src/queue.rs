//! A bounded MPMC queue with explicit admission control.
//!
//! The service's intake: connection readers push, workers pop. The queue
//! never blocks a producer — [`BoundedQueue::try_push`] fails immediately
//! when full ([`PushError::Full`]) so the caller can answer `overloaded`
//! instead of silently holding the client. Batch-mode producers that *do*
//! want backpressure use [`BoundedQueue::push_blocking`].
//!
//! Closing the queue ([`BoundedQueue::close`]) starts the drain: pushes
//! fail with [`PushError::Closed`], pops keep returning queued items until
//! the queue is empty, then return `None`. Every accepted item is
//! therefore popped by exactly one consumer before the workers exit.
//!
//! Capacity-leak audit (robustness PR): a "permit" here is simply an
//! occupied `VecDeque` slot — there is no separate semaphore to leak. A
//! push either lands the item (slot freed by the worker's pop, even when
//! the submitting connection has since died: replies to a dead client go
//! to a closed channel and are dropped) or returns it to the caller in
//! the `Err` payload. A connection handler that dies *before* `try_push`
//! never touched the queue. The regression test lives in
//! `tests/server_hardening.rs::vanishing_clients_leak_no_queue_capacity`.

use disparity_conc::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::PoisonError;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (admission control): answer `overloaded`.
    Full,
    /// The queue is closed (drain in progress): answer `shutting_down`.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue. All methods are `&self`; share via `Arc`.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> core::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.lock();
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &s.items.len())
            .field("closed", &s.closed)
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` in-flight items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current queue depth (a gauge; racy by nature).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission limit.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` once [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Non-blocking push: the admission-control path. `on_admit` runs
    /// once the item is admitted but before any consumer can pop it, so
    /// whatever it records precedes everything done with the item.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close). The item rides back in the error-free way
    /// (`Err` drops nothing the caller cannot reconstruct) — callers keep
    /// ownership by value of the rejected item.
    pub fn try_push(&self, item: T, on_admit: impl FnOnce()) -> Result<(), (T, PushError)> {
        let mut s = self.lock();
        if s.closed {
            return Err((item, PushError::Closed));
        }
        if s.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        on_admit();
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: waits for space (batch mode wants backpressure, not
    /// drops). `on_admit` runs as in [`try_push`](Self::try_push).
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] when the queue closes before space frees up.
    pub fn push_blocking(&self, item: T, on_admit: impl FnOnce()) -> Result<(), (T, PushError)> {
        let mut s = self.lock();
        loop {
            if s.closed {
                return Err((item, PushError::Closed));
            }
            if s.items.len() < self.capacity {
                on_admit();
                s.items.push_back(item);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = self
                .not_full
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocking pop. Returns `None` only when the queue is closed *and*
    /// drained — every accepted item is handed to exactly one popper.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self
                .not_empty
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: no new items, queued items still drain.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Deliberately weakened copies of the queue's hot paths, compiled only
/// under the `model` feature. They are mutation probes for the in-tree
/// concurrency checker (`tests/conc_model.rs`): each drops exactly one
/// ordering/wakeup obligation the real code carries, and the checker must
/// catch each within the tier-1 schedule budget — proof the harness has
/// teeth, not just green runs.
#[cfg(feature = "model")]
pub mod probes {
    use super::*;

    /// Mutant: [`BoundedQueue::pop`] without the `not_full` notification —
    /// the "permit release" that unblocks a waiting `push_blocking`. A
    /// producer parked on a full queue then sleeps forever; the checker
    /// reports the lost wakeup as a deadlock.
    pub fn pop_missing_permit_release<T>(q: &BoundedQueue<T>) -> Option<T> {
        let mut s = q.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                // MUTANT: `q.not_full.notify_one()` dropped.
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = q
                .not_empty
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mutant: [`BoundedQueue::push_blocking`] without the `not_empty`
    /// notification. A consumer already parked in `pop` never learns the
    /// item arrived; the checker reports the deadlock.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] exactly like the real path.
    pub fn push_blocking_missing_notify<T>(
        q: &BoundedQueue<T>,
        item: T,
    ) -> Result<(), (T, PushError)> {
        let mut s = q.lock();
        loop {
            if s.closed {
                return Err((item, PushError::Closed));
            }
            if s.items.len() < q.capacity {
                s.items.push_back(item);
                // MUTANT: `q.not_empty.notify_one()` dropped.
                return Ok(());
            }
            s = q
                .not_full
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_enforces_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1, || {}).unwrap();
        q.try_push(2, || {}).unwrap();
        assert_eq!(q.try_push(3, || {}), Err((3, PushError::Full)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3, || {}).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push("a", || {}).unwrap();
        q.try_push("b", || {}).unwrap();
        q.close();
        assert_eq!(q.try_push("c", || {}), Err(("c", PushError::Closed)));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn every_item_pops_exactly_once_under_contention() {
        let q = Arc::new(BoundedQueue::new(8));
        let n_items = 200usize;
        let n_workers = 4;
        let popped: Vec<_> = std::thread::scope(|scope| {
            let poppers: Vec<_> = (0..n_workers)
                .map(|_| {
                    let q = Arc::clone(&q);
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            for i in 0..n_items {
                q.push_blocking(i, || {}).unwrap();
            }
            q.close();
            poppers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = popped;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n_items).collect::<Vec<_>>());
    }

    #[test]
    fn push_blocking_wakes_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0, || {}).unwrap();
        std::thread::scope(|scope| {
            let q2 = Arc::clone(&q);
            let blocked = scope.spawn(move || q2.push_blocking(1, || {}));
            // Give the pusher a moment to block, then close underneath it.
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
            assert_eq!(blocked.join().unwrap(), Err((1, PushError::Closed)));
        });
    }
}
