//! Model-checked verification of the service's bounded queue and sharded
//! cache (`--features model`).
//!
//! Queue invariants: no lost or duplicated items, per-producer FIFO
//! order, no permit leak (a consumer's pop always releases a slot to a
//! blocked producer), and close-drain delivers every accepted item.
//! Cache invariants: the `len` counter always equals the live slot count
//! — across collision-bucket eviction and the `u64::MAX` clock
//! renumbering — stamps stay unique, and concurrent identical requests
//! converge on one entry (no duplicate canonical text in a bucket).
//!
//! Four mutation probes (`queue::probes`, `cache::probes`) prove the
//! checker has teeth; each caught schedule is committed to
//! `tests/conc_corpus/` and replayed byte-for-byte.

#![cfg(feature = "model")]

use std::path::PathBuf;
use std::sync::Arc;

use disparity_conc::model::{self, corpus, Config};
use disparity_conc::sync::thread;
use disparity_model::builder::SystemBuilder;
use disparity_model::spec::SystemSpec;
use disparity_model::task::TaskSpec;
use disparity_model::time::Duration;
use disparity_sched::wcrt::response_times;
use disparity_service::cache::{probes as cache_probes, GraphEntry, ShardedCache};
use disparity_service::queue::{probes as queue_probes, BoundedQueue};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/conc_corpus")
}

fn cfg() -> Config {
    Config::default()
}

// ---------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------

#[test]
fn queue_delivers_every_item_exactly_once_in_producer_order() {
    let out = model::check(cfg(), || {
        let q = Arc::new(BoundedQueue::new(1));
        let p1 = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.push_blocking(10, || {}).unwrap();
                q.push_blocking(11, || {}).unwrap();
            })
        };
        let p2 = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_blocking(20, || {}).unwrap())
        };
        // The root is the consumer: three accepted items, three pops.
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(q.pop().expect("an accepted item is never lost"));
        }
        p1.join().unwrap();
        p2.join().unwrap();
        q.close();
        assert_eq!(q.pop(), None, "drained queue pops None after close");
        let pos = |x: i32| got.iter().position(|&v| v == x);
        let (a, b) = (pos(10), pos(11));
        assert!(
            a.is_some() && b.is_some() && a < b,
            "producer-1 order violated: {got:?}"
        );
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 11, 20], "lost or duplicated items: {got:?}");
    });
    out.assert_ok();
    assert!(
        out.complete,
        "exhaustive exploration must finish at the committed config \
         (ran {} schedules)",
        out.schedules
    );
}

#[test]
fn queue_close_drains_every_accepted_item() {
    let out = model::check(cfg(), || {
        let q = Arc::new(BoundedQueue::new(2));
        q.try_push(1, || {}).unwrap();
        q.try_push(2, || {}).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![1, 2], "close-drain lost or reordered items");
    });
    out.assert_ok();
    assert!(out.complete, "ran {} schedules", out.schedules);
}

#[test]
fn queue_random_schedules_stay_clean_beyond_the_exhaustive_budget() {
    // Seeded random exploration at a higher preemption bound than the
    // exhaustive pass: covers schedules the bounded DFS excludes.
    let out = model::check(
        Config {
            mode: model::Mode::Random {
                seed: 0x0B5E_55ED,
                schedules: 300,
            },
            preemption_bound: 4,
            ..Config::default()
        },
        || {
            let q = Arc::new(BoundedQueue::new(1));
            let p1 = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    q.push_blocking(10, || {}).unwrap();
                    q.push_blocking(11, || {}).unwrap();
                })
            };
            let p2 = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push_blocking(20, || {}).unwrap())
            };
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(q.pop().expect("an accepted item is never lost"));
            }
            p1.join().unwrap();
            p2.join().unwrap();
            got.sort_unstable();
            assert_eq!(got, vec![10, 11, 20], "lost or duplicated items");
        },
    );
    out.assert_ok();
    assert_eq!(out.schedules, 300);
}

#[test]
fn mutant_pop_without_permit_release_is_caught() {
    let v = corpus::verify(
        &corpus_dir(),
        "queue_pop_missing_permit_release.json",
        cfg(),
        || {
            let q = Arc::new(BoundedQueue::new(1));
            q.try_push(1, || {}).unwrap();
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push_blocking(2, || {}).unwrap())
            };
            // Mutant pop frees the slot but never releases the permit: a
            // producer parked on the full queue sleeps forever.
            assert_eq!(queue_probes::pop_missing_permit_release(&q), Some(1));
            producer.join().unwrap();
        },
    );
    assert!(
        v.message.contains("deadlock"),
        "expected a lost-wakeup deadlock, got: {}",
        v.message
    );
}

#[test]
fn mutant_push_without_notify_is_caught() {
    let v = corpus::verify(
        &corpus_dir(),
        "queue_push_missing_notify.json",
        cfg(),
        || {
            let q = Arc::new(BoundedQueue::new(1));
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            };
            queue_probes::push_blocking_missing_notify(&q, 7).unwrap();
            assert_eq!(consumer.join().unwrap(), Some(7));
        },
    );
    assert!(
        v.message.contains("deadlock"),
        "expected a lost-wakeup deadlock, got: {}",
        v.message
    );
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

/// Builds a distinct analyzed entry per `ms` (period in milliseconds):
/// canonical hash, canonical text, and the packed [`GraphEntry`].
fn entry(ms: i64) -> (u64, String, GraphEntry) {
    let mut b = SystemBuilder::new();
    let e = b.add_ecu("e");
    let s = b.add_task(TaskSpec::periodic("s", Duration::from_millis(ms)));
    let t = b.add_task(
        TaskSpec::periodic("t", Duration::from_millis(ms))
            .execution(Duration::from_millis(1), Duration::from_millis(2))
            .on_ecu(e),
    );
    b.connect(s, t);
    let graph = b.build().unwrap();
    let rt = response_times(&graph).unwrap();
    let spec = SystemSpec::from_graph(&graph);
    let hash = spec.canonical_hash();
    let text = spec.canonical_text();
    let entry = GraphEntry::new(spec.canonical(), spec, graph, rt);
    (hash, text, entry)
}

fn audit(cache: &ShardedCache) {
    if let Err(e) = cache.debug_audit() {
        panic!("cache invariant broken: {e}");
    }
}

#[test]
fn cache_len_matches_live_slots_under_concurrent_inserts() {
    let out = model::check(cfg(), || {
        // Capacity 8 = one slot per shard; keys 5 and 13 share shard 5,
        // so the second insert must evict the first.
        let cache = Arc::new(ShardedCache::new(8));
        let t1 = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let (_, _, e1) = entry(10);
                cache.insert(5, e1);
            })
        };
        let t2 = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let (_, _, e2) = entry(20);
                cache.insert(13, e2);
            })
        };
        t1.join().unwrap();
        t2.join().unwrap();
        audit(&cache);
        assert_eq!(cache.len(), 1, "shard capacity 1: one insert evicted");
    });
    out.assert_ok();
    assert!(out.complete, "ran {} schedules", out.schedules);
}

#[test]
fn cache_clock_renumbering_keeps_lru_bookkeeping() {
    let out = model::check(cfg(), || {
        // Capacity 16 = two slots per shard. Fill shard 5, pin its clock
        // at u64::MAX, then race a recency-bumping get against an insert
        // that must renumber the stamps and evict.
        let cache = Arc::new(ShardedCache::new(16));
        let (_, text1, e1) = entry(10);
        let (_, _, e2) = entry(20);
        cache.insert(5, e1);
        cache.insert(13, e2);
        cache.debug_set_clock(5, u64::MAX);
        let getter = {
            let cache = Arc::clone(&cache);
            let text1 = text1.clone();
            thread::spawn(move || {
                let _ = cache.get(5, &text1);
            })
        };
        let inserter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let (_, _, e3) = entry(30);
                cache.insert(21, e3)
            })
        };
        getter.join().unwrap();
        let e3 = inserter.join().unwrap();
        audit(&cache);
        assert_eq!(cache.len(), 2, "renumbering must not break the counter");
        let hit = cache.get(21, e3.canonical_text());
        assert!(
            hit.is_some_and(|h| Arc::ptr_eq(&h, &e3)),
            "the newest insert is never the eviction victim"
        );
    });
    out.assert_ok();
    assert!(out.complete, "ran {} schedules", out.schedules);
}

#[test]
fn mutant_double_len_decrement_is_caught() {
    let v = corpus::verify(
        &corpus_dir(),
        "cache_double_len_decrement.json",
        cfg(),
        || {
            let cache = Arc::new(ShardedCache::new(16));
            let (_, _, e1) = entry(10);
            let (_, _, e2) = entry(20);
            cache.insert(5, e1);
            cache.insert(13, e2);
            let getter = {
                let cache = Arc::clone(&cache);
                let (_, text, _) = entry(10);
                thread::spawn(move || {
                    let _ = cache.get(5, &text);
                })
            };
            let (_, _, e3) = entry(30);
            cache_probes::insert_double_decrement_eviction(&cache, 21, e3);
            getter.join().unwrap();
            audit(&cache);
        },
    );
    assert!(
        v.message.contains("len counter"),
        "expected a len/live-slot desync, got: {}",
        v.message
    );
}

#[test]
fn mutant_retain_eviction_is_caught() {
    let v = corpus::verify(
        &corpus_dir(),
        "cache_retain_eviction.json",
        cfg(),
        || {
            // Two colliding specs in ONE bucket (same key, different
            // canonical text), inserted through the stale-stamp probe so
            // they share a recency stamp; the retain-based eviction then
            // drops both while `len` decrements once.
            let cache = Arc::new(ShardedCache::new(16));
            let (_, _, e1) = entry(10);
            let (_, _, e2) = entry(20);
            cache_probes::insert_retain_eviction(&cache, 5, e1);
            cache_probes::insert_retain_eviction(&cache, 5, e2);
            let reader = {
                let cache = Arc::clone(&cache);
                thread::spawn(move || cache.len())
            };
            let (_, _, e3) = entry(30);
            cache_probes::insert_retain_eviction(&cache, 5, e3);
            reader.join().unwrap();
            audit(&cache);
        },
    );
    assert!(
        v.message.contains("len counter"),
        "expected a len/live-slot desync, got: {}",
        v.message
    );
}
