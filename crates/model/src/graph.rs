//! The cause-effect graph `G = ⟨V, E⟩`.
//!
//! A [`CauseEffectGraph`] is an immutable-by-default DAG of [`Task`]s
//! connected by [`Channel`]s and mapped onto [`Ecu`]s, as defined in §II of
//! the paper. Construct one with [`SystemBuilder`](crate::builder::SystemBuilder);
//! the only permitted in-place mutation is resizing a channel buffer
//! ([`CauseEffectGraph::set_channel_capacity`]), which is what the §IV
//! optimization needs.
//!
//! # Examples
//!
//! ```
//! use disparity_model::builder::SystemBuilder;
//! use disparity_model::task::TaskSpec;
//! use disparity_model::time::Duration;
//!
//! let mut b = SystemBuilder::new();
//! let ecu = b.add_ecu("ecu0");
//! let cam = b.add_task(TaskSpec::periodic("camera", Duration::from_millis(33)));
//! let proc = b.add_task(
//!     TaskSpec::periodic("process", Duration::from_millis(33))
//!         .execution(Duration::from_millis(2), Duration::from_millis(5))
//!         .on_ecu(ecu),
//! );
//! b.connect(cam, proc);
//! let g = b.build()?;
//! assert_eq!(g.sources(), vec![cam]);
//! assert_eq!(g.sinks(), vec![proc]);
//! # Ok::<(), disparity_model::error::ModelError>(())
//! ```


use crate::chain::Chain;
use crate::channel::Channel;
use crate::ecu::Ecu;
use crate::error::ModelError;
use crate::ids::{ChannelId, EcuId, TaskId};
use crate::task::Task;
use crate::time::{hyperperiod, Duration};

/// A validated directed acyclic cause-effect graph.
///
/// Invariants (enforced at build time):
/// * the edge relation is acyclic;
/// * every task with non-zero execution cost is mapped to an ECU;
/// * priorities are unique among tasks sharing an ECU;
/// * `B(τ) ≤ W(τ)` and `T(τ) > 0` for every task;
/// * every channel capacity is at least 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CauseEffectGraph {
    pub(crate) tasks: Vec<Task>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) ecus: Vec<Ecu>,
    pub(crate) out_edges: Vec<Vec<ChannelId>>,
    pub(crate) in_edges: Vec<Vec<ChannelId>>,
    pub(crate) topo: Vec<TaskId>,
}

impl CauseEffectGraph {
    /// All tasks, indexed by [`TaskId::index`].
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The task with the given id, or `None` if out of range.
    #[must_use]
    pub fn get_task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// Looks a task up by name (first match).
    #[must_use]
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().find(|t| t.name == name).map(|t| t.id)
    }

    /// All channels, indexed by [`ChannelId::index`].
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// The channel from `src` to `dst`, if that edge exists.
    #[must_use]
    pub fn channel_between(&self, src: TaskId, dst: TaskId) -> Option<&Channel> {
        self.out_edges
            .get(src.index())?
            .iter()
            .map(|&c| &self.channels[c.index()])
            .find(|c| c.dst == dst)
    }

    /// All execution resources, indexed by [`EcuId::index`].
    #[must_use]
    pub fn ecus(&self) -> &[Ecu] {
        &self.ecus
    }

    /// The execution resource with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn ecu(&self, id: EcuId) -> &Ecu {
        &self.ecus[id.index()]
    }

    /// Number of tasks.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Outgoing channels of a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn out_channels(&self, id: TaskId) -> &[ChannelId] {
        &self.out_edges[id.index()]
    }

    /// Incoming channels of a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn in_channels(&self, id: TaskId) -> &[ChannelId] {
        &self.in_edges[id.index()]
    }

    /// Direct successors of a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.out_edges[id.index()]
            .iter()
            .map(|&c| self.channels[c.index()].dst)
    }

    /// Direct predecessors of a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.in_edges[id.index()]
            .iter()
            .map(|&c| self.channels[c.index()].src)
    }

    /// `true` if the task has no incoming edges (a *source* of `G`).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn is_source(&self, id: TaskId) -> bool {
        self.in_edges[id.index()].is_empty()
    }

    /// `true` if the task has no outgoing edges (a *sink* of `G`).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn is_sink(&self, id: TaskId) -> bool {
        self.out_edges[id.index()].is_empty()
    }

    /// All source tasks, in id order.
    #[must_use]
    pub fn sources(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .map(|t| t.id)
            .filter(|&t| self.is_source(t))
            .collect()
    }

    /// All sink tasks, in id order.
    #[must_use]
    pub fn sinks(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .map(|t| t.id)
            .filter(|&t| self.is_sink(t))
            .collect()
    }

    /// A topological order of the tasks (sources first).
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks mapped to the given resource, in id order.
    pub fn tasks_on_ecu(&self, ecu: EcuId) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks
            .iter()
            .filter(move |t| t.ecu == Some(ecu))
            .map(|t| t.id)
    }

    /// `true` if both tasks are mapped to the same resource.
    ///
    /// Unmapped (zero-cost) tasks share a resource with nobody.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this graph.
    #[must_use]
    pub fn same_ecu(&self, a: TaskId, b: TaskId) -> bool {
        match (self.task(a).ecu, self.task(b).ecu) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// `true` if `a ∈ hp(b)`: both tasks share an ECU and `a` has the more
    /// urgent priority.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this graph.
    #[must_use]
    pub fn in_hp(&self, a: TaskId, b: TaskId) -> bool {
        self.same_ecu(a, b) && self.task(a).priority.is_higher_than(self.task(b).priority)
    }

    /// The set `hp(τ)` of same-ECU tasks with more urgent priority.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn hp_tasks(&self, id: TaskId) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| t.id != id && self.in_hp(t.id, id))
            .map(|t| t.id)
            .collect()
    }

    /// The set `lp(τ)` of same-ECU tasks with less urgent priority.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn lp_tasks(&self, id: TaskId) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| t.id != id && self.in_hp(id, t.id))
            .map(|t| t.id)
            .collect()
    }

    /// The hyperperiod (LCM of all task periods), if representable.
    #[must_use]
    pub fn hyperperiod(&self) -> Option<Duration> {
        hyperperiod(self.tasks.iter().map(|t| t.period))
    }

    /// Replaces the release offset of a task.
    ///
    /// Offsets do not participate in any structural invariant (the
    /// analysis is offset-oblivious; only the simulator reads them), so
    /// this is the second permitted in-place mutation. The paper's
    /// evaluation re-randomizes offsets between simulation runs.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownTask`] for a foreign id and
    /// [`ModelError::NegativeOffset`] for a negative offset.
    pub fn set_task_offset(&mut self, id: TaskId, offset: Duration) -> Result<(), ModelError> {
        if offset.is_negative() {
            return Err(ModelError::NegativeOffset {
                task: id,
                offset_nanos: offset.as_nanos(),
            });
        }
        let task = self
            .tasks
            .get_mut(id.index())
            .ok_or(ModelError::UnknownTask(id))?;
        task.offset = offset;
        Ok(())
    }

    /// Replaces the worst-case execution time of a task (what a
    /// `set_wcet` edit applies).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownTask`] for a foreign id and
    /// [`ModelError::ExecutionTimeOrder`] if `wcet` would fall below the
    /// task's BCET (or be negative).
    pub fn set_task_wcet(&mut self, id: TaskId, wcet: Duration) -> Result<(), ModelError> {
        let task = self
            .tasks
            .get_mut(id.index())
            .ok_or(ModelError::UnknownTask(id))?;
        if wcet.is_negative() {
            return Err(ModelError::NegativeExecutionTime { task: id });
        }
        if wcet < task.bcet {
            return Err(ModelError::ExecutionTimeOrder {
                task: id,
                bcet_nanos: task.bcet.as_nanos(),
                wcet_nanos: wcet.as_nanos(),
            });
        }
        task.wcet = wcet;
        Ok(())
    }

    /// Replaces the best-case execution time of a task.
    ///
    /// BCET does not participate in priority assignment or response-time
    /// analysis (only hop and backward bounds read it), so like
    /// [`Self::set_task_wcet`] this is a permitted in-place mutation —
    /// the incremental re-analysis engine's cheapest edit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownTask`] for a foreign id and
    /// [`ModelError::ExecutionTimeOrder`] if `bcet` would exceed the
    /// task's WCET (or be negative).
    pub fn set_task_bcet(&mut self, id: TaskId, bcet: Duration) -> Result<(), ModelError> {
        let task = self
            .tasks
            .get_mut(id.index())
            .ok_or(ModelError::UnknownTask(id))?;
        if bcet.is_negative() {
            return Err(ModelError::NegativeExecutionTime { task: id });
        }
        if bcet > task.wcet {
            return Err(ModelError::ExecutionTimeOrder {
                task: id,
                bcet_nanos: bcet.as_nanos(),
                wcet_nanos: task.wcet.as_nanos(),
            });
        }
        task.bcet = bcet;
        Ok(())
    }

    /// Resizes the buffer of a channel (the §IV optimization knob).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownChannel`] for a foreign id and
    /// [`ModelError::ZeroCapacity`] when `capacity` is zero.
    pub fn set_channel_capacity(
        &mut self,
        id: ChannelId,
        capacity: usize,
    ) -> Result<(), ModelError> {
        let ch = self
            .channels
            .get_mut(id.index())
            .ok_or(ModelError::UnknownChannel(id))?;
        if capacity == 0 {
            return Err(ModelError::ZeroCapacity {
                src: ch.src,
                dst: ch.dst,
            });
        }
        ch.capacity = capacity;
        Ok(())
    }

    /// Enumerates the set `P`: every chain that starts at a source task of
    /// `G` and ends at `task`.
    ///
    /// A backward depth-first search; the result is deterministic
    /// (lexicographic by predecessor id). If `task` is itself a source the
    /// single-task chain `{task}` is returned.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownTask`] for a foreign id.
    /// * [`ModelError::ChainLimitExceeded`] if more than `limit` chains
    ///   exist — random DAGs can hold exponentially many paths, so callers
    ///   must pick an explicit budget.
    ///
    /// # Examples
    ///
    /// ```
    /// use disparity_model::builder::SystemBuilder;
    /// use disparity_model::task::TaskSpec;
    /// use disparity_model::time::Duration;
    ///
    /// // diamond: s -> a -> t, s -> b -> t
    /// let mut b = SystemBuilder::new();
    /// let ecu = b.add_ecu("e");
    /// let mk = |n: &str| TaskSpec::periodic(n, Duration::from_millis(10));
    /// let s = b.add_task(mk("s"));
    /// let a = b.add_task(mk("a").wcet(Duration::from_millis(1)).on_ecu(ecu));
    /// let b2 = b.add_task(mk("b").wcet(Duration::from_millis(1)).on_ecu(ecu));
    /// let t = b.add_task(mk("t").wcet(Duration::from_millis(1)).on_ecu(ecu));
    /// b.connect(s, a);
    /// b.connect(s, b2);
    /// b.connect(a, t);
    /// b.connect(b2, t);
    /// let g = b.build()?;
    /// let chains = g.chains_to(t, 100)?;
    /// assert_eq!(chains.len(), 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn chains_to(&self, task: TaskId, limit: usize) -> Result<Vec<Chain>, ModelError> {
        if self.get_task(task).is_none() {
            return Err(ModelError::UnknownTask(task));
        }
        let mut chains = Vec::new();
        let mut stack = vec![task];
        self.chains_to_rec(task, limit, &mut stack, &mut chains)?;
        Ok(chains)
    }

    fn chains_to_rec(
        &self,
        current: TaskId,
        limit: usize,
        stack: &mut Vec<TaskId>,
        chains: &mut Vec<Chain>,
    ) -> Result<(), ModelError> {
        if self.is_source(current) {
            if chains.len() >= limit {
                return Err(ModelError::ChainLimitExceeded {
                    task: *stack.first().unwrap_or(&current),
                    limit,
                });
            }
            let mut tasks: Vec<TaskId> = stack.clone();
            tasks.reverse();
            chains.push(Chain::new_unchecked(tasks));
            return Ok(());
        }
        let mut preds: Vec<TaskId> = self.predecessors(current).collect();
        preds.sort_unstable();
        for p in preds {
            stack.push(p);
            self.chains_to_rec(p, limit, stack, chains)?;
            stack.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::SystemBuilder;
    use crate::error::ModelError;
    use crate::ids::Priority;
    use crate::task::TaskSpec;
    use crate::time::Duration;

    fn diamond() -> (CauseEffectGraphHandle, [crate::ids::TaskId; 4]) {
        let mut b = SystemBuilder::new();
        let ecu = b.add_ecu("e0");
        let ms = Duration::from_millis;
        let s = b.add_task(TaskSpec::periodic("s", ms(10)));
        let a = b.add_task(TaskSpec::periodic("a", ms(10)).wcet(ms(1)).on_ecu(ecu));
        let c = b.add_task(TaskSpec::periodic("c", ms(20)).wcet(ms(1)).on_ecu(ecu));
        let t = b.add_task(TaskSpec::periodic("t", ms(20)).wcet(ms(2)).on_ecu(ecu));
        b.connect(s, a);
        b.connect(s, c);
        b.connect(a, t);
        b.connect(c, t);
        (b.build().expect("valid diamond"), [s, a, c, t])
    }

    type CauseEffectGraphHandle = super::CauseEffectGraph;

    #[test]
    fn sources_and_sinks() {
        let (g, [s, _, _, t]) = diamond();
        assert_eq!(g.sources(), vec![s]);
        assert_eq!(g.sinks(), vec![t]);
        assert!(g.is_source(s));
        assert!(g.is_sink(t));
        assert!(!g.is_sink(s));
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, _) = diamond();
        let topo = g.topological_order();
        let pos = |t: crate::ids::TaskId| topo.iter().position(|&x| x == t).unwrap();
        for ch in g.channels() {
            assert!(
                pos(ch.src()) < pos(ch.dst()),
                "{} before {}",
                ch.src(),
                ch.dst()
            );
        }
    }

    #[test]
    fn hp_relation_uses_rate_monotonic_default() {
        let (g, [_, a, c, t]) = diamond();
        // a has period 10ms < 20ms, so it outranks c and t.
        assert!(g.in_hp(a, c));
        assert!(g.in_hp(a, t));
        assert!(!g.in_hp(c, a));
        assert!(g.hp_tasks(t).contains(&a));
        assert!(g.lp_tasks(a).contains(&t));
    }

    #[test]
    fn unmapped_tasks_share_no_ecu() {
        let (g, [s, a, _, _]) = diamond();
        assert!(!g.same_ecu(s, a));
        assert!(!g.in_hp(s, a));
    }

    #[test]
    fn chains_enumeration_on_diamond() {
        let (g, [s, a, c, t]) = diamond();
        let chains = g.chains_to(t, 16).unwrap();
        assert_eq!(chains.len(), 2);
        let paths: Vec<Vec<_>> = chains.iter().map(|c| c.tasks().to_vec()).collect();
        assert!(paths.contains(&vec![s, a, t]));
        assert!(paths.contains(&vec![s, c, t]));
    }

    #[test]
    fn chain_limit_is_enforced() {
        let (g, [_, _, _, t]) = diamond();
        assert_eq!(
            g.chains_to(t, 1).unwrap_err(),
            ModelError::ChainLimitExceeded { task: t, limit: 1 }
        );
    }

    #[test]
    fn chains_to_a_source_is_the_singleton_chain() {
        let (g, [s, _, _, _]) = diamond();
        let chains = g.chains_to(s, 4).unwrap();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].tasks(), &[s]);
    }

    #[test]
    fn channel_between_finds_edges() {
        let (g, [s, a, _, t]) = diamond();
        assert!(g.channel_between(s, a).is_some());
        assert!(g.channel_between(a, s).is_none());
        assert!(g.channel_between(s, t).is_none());
    }

    #[test]
    fn set_channel_capacity_validates() {
        let (mut g, [s, a, _, _]) = diamond();
        let ch = g.channel_between(s, a).unwrap().id();
        g.set_channel_capacity(ch, 4).unwrap();
        assert_eq!(g.channel(ch).capacity(), 4);
        assert!(matches!(
            g.set_channel_capacity(ch, 0),
            Err(ModelError::ZeroCapacity { .. })
        ));
    }

    #[test]
    fn hyperperiod_is_lcm() {
        let (g, _) = diamond();
        assert_eq!(g.hyperperiod(), Some(Duration::from_millis(20)));
    }

    #[test]
    fn explicit_priorities_override_rate_monotonic() {
        let mut b = SystemBuilder::new();
        let ecu = b.add_ecu("e0");
        let ms = Duration::from_millis;
        let slow = b.add_task(
            TaskSpec::periodic("slow", ms(100))
                .wcet(ms(1))
                .on_ecu(ecu)
                .priority(Priority::new(0)),
        );
        let fast = b.add_task(
            TaskSpec::periodic("fast", ms(1))
                .wcet(ms(1))
                .on_ecu(ecu)
                .priority(Priority::new(1)),
        );
        let g = b.build().unwrap();
        assert!(g.in_hp(slow, fast));
    }

    #[test]
    fn find_task_by_name() {
        let (g, [s, ..]) = diamond();
        assert_eq!(g.find_task("s"), Some(s));
        assert_eq!(g.find_task("nope"), None);
    }
}
