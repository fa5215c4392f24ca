//! What one run produces: metrics, step accounting, failed checks, and the
//! spans to write out once the run ends.

use std::time::Instant;

use symi_tensor::{kernel_stats, pool};

use crate::config::LOSS_WINDOW;
use crate::stats::{latency, median};

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Results of one benchmark run, filled in by the workload modules.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Training steps issued.
    pub attempted: u64,
    /// Steps that returned an error, were degraded, had a non-finite loss,
    /// or belong to an episode that never reached the loss target.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// JSON lines of the trace file.
    pub trace: Vec<String>,
}

/// Failure messages kept per run; further failures are only counted.
const MAX_FAILURES: usize = 20;

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.to_string(), unit, value });
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.failures.len() == MAX_FAILURES {
                self.failures.push("further check failures omitted".to_string());
            } else if self.failures.len() < MAX_FAILURES {
                self.failures.push(what());
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Process-wide kernel and pool counter deltas over traced steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    gemm_ns: u64,
    gemm_flops: u64,
    seq_fallback: u64,
    pool_busy_ns: u64,
    pool_jobs: u64,
    steps: u64,
}

impl Counters {
    /// Runs `f` over `steps` steps and adds the counters' growth.
    pub fn measure<R>(&mut self, steps: usize, f: impl FnOnce() -> R) -> R {
        let (k0, p0) = (kernel_stats(), pool::stats());
        let r = f();
        let (k1, p1) = (kernel_stats(), pool::stats());
        self.gemm_ns += k1.gemm_ns - k0.gemm_ns;
        self.gemm_flops += k1.gemm_flops - k0.gemm_flops;
        self.seq_fallback += k1.seq_fallback - k0.seq_fallback;
        self.pool_busy_ns += p1.busy_ns - p0.busy_ns;
        self.pool_jobs += p1.jobs - p0.jobs;
        self.steps += steps as u64;
        r
    }

    /// Reports per-step deltas and the in-situ GEMM rate.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.steps as f64;
        out.metric("kernel.gemm_ms", "ms", self.gemm_ns as f64 / n / 1e6);
        out.metric("kernel.gemm_gflops", "GFLOP/s", self.gemm_flops as f64 / self.gemm_ns as f64);
        out.metric("kernel.seq_fallback", "count", self.seq_fallback as f64 / n);
        out.metric("pool.busy_ms", "ms", self.pool_busy_ns as f64 / n / 1e6);
        out.metric("pool.jobs", "count", self.pool_jobs as f64 / n);
    }
}

/// Checks that the traced step's self times add up to the step.
pub fn check_breakdown(out: &mut Outcome, parts_ms: f64, unattributed_ms: f64, step_ms: f64) {
    let gap = (parts_ms + unattributed_ms - step_ms).abs();
    out.check(gap <= 1e-9 * step_ms.max(1.0), || {
        format!("layer self times {parts_ms} + unattributed {unattributed_ms} != step {step_ms} ms")
    });
}

/// Repeats of each episode an untraced run makes even past its `seconds`,
/// so every step's latency is a minimum over at least two samples.
pub const MIN_REPEATS: usize = 2;

/// Whether another episode as long as the one that began at `last` still
/// fits in the run's `seconds`, counted from `start`.
pub fn another_fits(start: Instant, last: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + last.elapsed().as_secs_f64() <= seconds
}

/// Mean of `values`, 0 for none.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Steps until the trailing `window`-step mean loss first reaches `target`
/// (the trainer's own `TrainRecord::iterations_to_loss` definition).
pub fn iters_to_target(losses: &[f32], target: f32, window: usize) -> Option<usize> {
    let record = symi_model::TrainRecord { losses: losses.to_vec(), ..Default::default() };
    record.iterations_to_loss(target, window)
}

/// Closed-loop results of one training episode.
pub struct EpisodeResult {
    pub losses: Vec<f32>,
    /// Wall time of each step, in seconds.
    pub step_s: Vec<f64>,
    pub kept_assignments: u64,
    pub all_assignments: u64,
}

/// The end-to-end metrics every workload reports, from episodes grouped by
/// the parameter seed they ran with.
///
/// The episodes of one group replay identical inputs bit for bit (checked
/// here), so each step's latency is taken as its minimum over the group's
/// repeats: host interference that delays some repeat of a step is filtered
/// out, while work a step does in every repeat is kept. Each group's
/// latency percentiles, throughput and time to target come from its
/// per-step latencies; every figure reported is the mean over the groups.
/// Episodes that miss the target count their steps as failed.
pub fn end_to_end(
    out: &mut Outcome,
    groups: &[Vec<EpisodeResult>],
    tokens_per_step: usize,
    target: f32,
) {
    let window = LOSS_WINDOW;
    let (mut throughput, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let (mut to_target_s, mut iters, mut finals) = (Vec::new(), Vec::new(), Vec::new());
    for (g, episodes) in groups.iter().enumerate() {
        check_repeatable(out, episodes.iter().map(|e| e.losses.as_slice()));
        let steps = episodes.iter().map(|e| e.step_s.len()).min().unwrap_or(0);
        let group_ms: Vec<f64> = (0..steps)
            .map(|i| episodes.iter().map(|e| e.step_s[i] * 1e3).fold(f64::INFINITY, f64::min))
            .collect();
        let mut reached = Vec::new();
        for (i, ep) in episodes.iter().enumerate() {
            match iters_to_target(&ep.losses, target, window) {
                Some(n) => reached.push(n as f64),
                None => {
                    out.failed += ep.losses.len() as u64;
                    out.note(format!(
                        "group {g} episode {i} never reached the target loss {target}"
                    ));
                }
            }
        }
        // A group that never reaches the target reports its whole episode,
        // a lower bound; its steps are already counted as failed.
        let n = if reached.is_empty() { steps } else { median(&reached) as usize };
        to_target_s.push(group_ms[..n.min(steps)].iter().sum::<f64>() / 1e3);
        iters.push(n as f64);
        let losses = &episodes[0].losses;
        finals.push(mean(losses[losses.len() - window..].iter().map(|&l| l as f64)));
        let curve: Vec<String> = losses
            .chunks(window)
            .map(|c| format!("{:.3}", mean(c.iter().map(|&l| l as f64))))
            .collect();
        out.note(format!(
            "group {g}: {} episode(s) of {steps} steps, percentiles over {steps} per-step \
             minima; loss per {window} steps: {}",
            episodes.len(),
            curve.join(" ")
        ));
        let total_s = group_ms.iter().sum::<f64>() / 1e3;
        throughput.push((steps * tokens_per_step) as f64 / total_s);
        match latency(&group_ms) {
            Ok(l) => {
                p50.push(l.p50);
                p95.push(l.p95);
            }
            Err(e) => out.check(false, || format!("group {g}: step latency: {e}")),
        }
    }

    out.metric("tokens_per_s", "1/s", mean(throughput));
    out.metric("step_ms_p50", "ms", mean(p50));
    out.metric("step_ms_p95", "ms", mean(p95));
    out.metric("time_to_target_s", "s", mean(to_target_s));
    out.metric("iters_to_target", "count", mean(iters));
    out.metric("loss_final", "loss", mean(finals));
    let episodes = groups.iter().flatten();
    let (kept, all) =
        episodes.fold((0, 0), |(k, a), e| (k + e.kept_assignments, a + e.all_assignments));
    out.metric("token_survival", "fraction", kept as f64 / all as f64);
}

/// Checks that every episode reproduced the first one's losses bit for bit.
pub fn check_repeatable<'a>(out: &mut Outcome, episodes: impl IntoIterator<Item = &'a [f32]>) {
    let mut episodes = episodes.into_iter();
    let first: Vec<u32> =
        episodes.next().expect("at least one episode").iter().map(|l| l.to_bits()).collect();
    for (i, losses) in episodes.enumerate() {
        let same = losses.iter().map(|l| l.to_bits()).eq(first.iter().copied());
        out.check(same, || {
            format!("episode {} did not reproduce episode 0's losses bit for bit", i + 1)
        });
    }
}
