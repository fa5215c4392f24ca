//! The task graph of a training iteration.
//!
//! The phases of an iteration form a DAG: per-rank work joins at collective
//! barriers, the weight fence gates dispatch, a class's Adam step waits for
//! its gradient shard. [`TaskGraph`] is the one description of that DAG,
//! and it serves two clients:
//!
//! - The runtime engine declares each iteration's tasks (with zero
//!   duration) and marks them complete as the work actually happens.
//!   [`TaskGraph::complete`] panics when a task completes before one of its
//!   dependencies, or twice, so the overlap scheduler cannot silently cross
//!   a fence in a refactor. It costs a few `Vec` reads per iteration, which
//!   is noise next to a GEMM.
//! - The cost model gives tasks durations and [`TaskGraph::schedule`]s
//!   them under infinite parallelism — every task starts the moment its
//!   dependencies finish — which is the right abstraction once contention
//!   is already folded into task durations (as the α–β collective costs
//!   do). It reports finish times, the makespan, the critical path, and a
//!   per-name breakdown along that path (Figure 12's latency breakdown).

use std::collections::HashMap;

/// Opaque handle to a task in a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

#[derive(Clone, Debug)]
struct Task {
    name: &'static str,
    duration: f64,
    deps: Vec<TaskId>,
    done: bool,
}

/// A DAG of named, fixed-duration tasks.
///
/// Dependencies must already exist when a task is added, which makes
/// cycles unrepresentable and hands out ids in topological order.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

/// Start and finish times of a scheduled graph.
#[derive(Clone, Debug)]
pub struct Schedule {
    start: Vec<f64>,
    finish: Vec<f64>,
}

impl TaskGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task that may start only after every task in `deps` has
    /// finished.
    ///
    /// # Panics
    /// Panics on a negative or non-finite duration, and on a dependency
    /// that is not yet in the graph.
    pub fn add(&mut self, name: &'static str, duration: f64, deps: &[TaskId]) -> TaskId {
        assert!(duration.is_finite() && duration >= 0.0, "duration must be finite and >= 0");
        let id = TaskId(self.tasks.len());
        for &dep in deps {
            assert!(dep.0 < id.0, "dependency {dep:?} must precede task {id:?}");
        }
        self.tasks.push(Task { name, duration, deps: deps.to_vec(), done: false });
        id
    }

    /// Marks `id` complete.
    ///
    /// # Panics
    /// Panics if a dependency has not completed, or if `id` already has —
    /// the caller's schedule violated the declared order.
    pub fn complete(&mut self, id: TaskId) {
        let task = &self.tasks[id.0];
        for dep in &task.deps {
            let dep = &self.tasks[dep.0];
            assert!(
                dep.done,
                "task '{}' completed before its dependency '{}'",
                task.name, dep.name
            );
        }
        assert!(!task.done, "task '{}' completed twice", task.name);
        self.tasks[id.0].done = true;
    }

    /// Whether every task has completed.
    pub fn all_complete(&self) -> bool {
        self.tasks.iter().all(|t| t.done)
    }

    /// Names of the tasks not yet completed, for diagnostics.
    pub fn outstanding(&self) -> Vec<&'static str> {
        self.tasks.iter().filter(|t| !t.done).map(|t| t.name).collect()
    }

    /// Computes start/finish times: `start = max(finish(deps))`,
    /// `finish = start + duration`.
    pub fn schedule(&self) -> Schedule {
        let mut start = vec![0.0f64; self.tasks.len()];
        let mut finish = vec![0.0f64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let s = t.deps.iter().map(|d| finish[d.0]).fold(0.0f64, f64::max);
            start[i] = s;
            finish[i] = s + t.duration;
        }
        Schedule { start, finish }
    }

    /// Walks the critical path of a schedule (from the globally latest
    /// finisher back to a source), returning task ids in execution order.
    pub fn critical_path(&self, schedule: &Schedule) -> Vec<TaskId> {
        if self.tasks.is_empty() {
            return vec![];
        }
        let mut cur = (0..self.tasks.len())
            .max_by(|&a, &b| schedule.finish[a].total_cmp(&schedule.finish[b]))
            .expect("non-empty");
        let mut path = vec![TaskId(cur)];
        loop {
            let task = &self.tasks[cur];
            // The binding dependency is the one whose finish equals our start.
            let Some(&binding) = task
                .deps
                .iter()
                .max_by(|a, b| schedule.finish[a.0].total_cmp(&schedule.finish[b.0]))
            else {
                break;
            };
            if schedule.finish[binding.0] < schedule.start[cur] - 1e-15 {
                break; // started at t=0 independently of deps (all-zero deps)
            }
            path.push(binding);
            cur = binding.0;
        }
        path.reverse();
        path
    }

    /// Sums task durations per name along the critical path — the latency
    /// breakdown of the makespan.
    pub fn breakdown(&self, schedule: &Schedule) -> HashMap<&'static str, f64> {
        let mut by_name = HashMap::new();
        for id in self.critical_path(schedule) {
            let t = &self.tasks[id.0];
            *by_name.entry(t.name).or_insert(0.0) += t.duration;
        }
        by_name
    }
}

impl Schedule {
    pub fn finish(&self, id: TaskId) -> f64 {
        self.finish[id.0]
    }

    pub fn start(&self, id: TaskId) -> f64 {
        self.start[id.0]
    }

    /// Latest finish time across all tasks.
    pub fn makespan(&self) -> f64 {
        self.finish.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain_sums_durations() {
        let mut g = TaskGraph::new();
        let a = g.add("x", 1.0, &[]);
        let b = g.add("y", 2.0, &[a]);
        let _c = g.add("z", 3.0, &[b]);
        let s = g.schedule();
        assert_eq!(s.makespan(), 6.0);
    }

    #[test]
    fn parallel_fanout_takes_max() {
        let mut g = TaskGraph::new();
        let root = g.add("r", 1.0, &[]);
        let f1 = g.add("p", 5.0, &[root]);
        let f2 = g.add("p", 2.0, &[root]);
        let sink = g.add("s", 1.0, &[f1, f2]);
        let s = g.schedule();
        assert_eq!(s.makespan(), 7.0);
        assert_eq!(s.finish(sink), 7.0);
        assert_eq!(s.start(f2), 1.0);
    }

    #[test]
    fn critical_path_follows_slowest_branch() {
        let mut g = TaskGraph::new();
        let root = g.add("root", 1.0, &[]);
        let slow = g.add("slow", 5.0, &[root]);
        let _fast = g.add("fast", 1.0, &[root]);
        let sink = g.add("sink", 1.0, &[slow, _fast]);
        let s = g.schedule();
        let path = g.critical_path(&s);
        assert_eq!(path, vec![root, slow, sink]);
    }

    #[test]
    fn breakdown_accounts_critical_path_only() {
        let mut g = TaskGraph::new();
        let root = g.add("comm", 2.0, &[]);
        let slow = g.add("compute", 6.0, &[root]);
        let _fast = g.add("compute", 1.0, &[root]);
        let _sink = g.add("comm", 1.0, &[slow, _fast]);
        let s = g.schedule();
        let b = g.breakdown(&s);
        assert_eq!(b["comm"], 3.0);
        assert_eq!(b["compute"], 6.0, "only the slow branch counts");
        let total: f64 = b.values().sum();
        assert!((total - s.makespan()).abs() < 1e-12);
    }

    #[test]
    fn independent_roots_run_in_parallel() {
        let mut g = TaskGraph::new();
        g.add("a", 4.0, &[]);
        g.add("b", 3.0, &[]);
        assert_eq!(g.schedule().makespan(), 4.0);
    }

    #[test]
    fn empty_graph_has_zero_makespan() {
        let g = TaskGraph::new();
        assert_eq!(g.schedule().makespan(), 0.0);
        assert!(g.critical_path(&g.schedule()).is_empty());
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_reference_rejected() {
        let mut g = TaskGraph::new();
        let _a = g.add("a", 1.0, &[TaskId(5)]);
    }

    #[test]
    #[should_panic(expected = "duration must be finite and >= 0")]
    fn negative_duration_rejected() {
        let mut g = TaskGraph::new();
        let _ = g.add("a", -0.5, &[]);
    }

    #[test]
    fn zero_duration_tasks_are_fine() {
        let mut g = TaskGraph::new();
        let a = g.add("a", 0.0, &[]);
        let b = g.add("b", 1.0, &[a]);
        let s = g.schedule();
        assert_eq!(s.finish(b), 1.0);
    }

    #[test]
    fn in_order_completion_succeeds() {
        let mut g = TaskGraph::new();
        let a = g.add("route", 0.0, &[]);
        let b = g.add("dispatch", 0.0, &[a]);
        let c = g.add("ffn", 0.0, &[b]);
        g.complete(a);
        g.complete(b);
        assert!(!g.all_complete());
        assert_eq!(g.outstanding(), vec!["ffn"]);
        g.complete(c);
        assert!(g.all_complete());
    }

    #[test]
    fn diamond_allows_any_interleaving_of_independent_tasks() {
        let mut g = TaskGraph::new();
        let root = g.add("root", 0.0, &[]);
        let left = g.add("left", 0.0, &[root]);
        let right = g.add("right", 0.0, &[root]);
        let join = g.add("join", 0.0, &[left, right]);
        g.complete(root);
        // Independent branches may finish in either order.
        g.complete(right);
        g.complete(left);
        g.complete(join);
        assert!(g.all_complete());
    }

    #[test]
    #[should_panic(expected = "before its dependency")]
    fn out_of_order_completion_panics() {
        let mut g = TaskGraph::new();
        let a = g.add("weight_fence", 0.0, &[]);
        let b = g.add("slot_write", 0.0, &[a]);
        g.complete(b);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut g = TaskGraph::new();
        let a = g.add("step", 0.0, &[]);
        g.complete(a);
        g.complete(a);
    }
}
