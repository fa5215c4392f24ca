//! Engine workloads: one MoE layer on rank threads — SYMI's
//! `MoeLayerEngine` (sequential or overlapped) or the DeepSpeed-style
//! `DeepSpeedMoeEngine` — trained from scratch to a fixed loss target.
//!
//! Inputs are drifting-corpus tokens mapped through fixed seeded tables:
//! token → input row, token → target row. The engine learns the target
//! rows; a dropped token contributes its whole target to the loss, so
//! survival and convergence move together.
//!
//! The traced run attaches a telemetry handle per rank, reads each rank's
//! phase accumulators and overlap gauges after every step, and times each
//! rank's `iteration` call as the step span.

use std::sync::Arc;
use std::time::Instant;

use symi::{EngineConfig, MoeLayerEngine};
use symi_baselines::DeepSpeedMoeEngine;
use symi_collectives::{Cluster, ClusterSpec, CommError, RankCtx, TrafficReport};
use symi_model::expert::ExpertFfn;
use symi_telemetry::json::{Obj, Value};
use symi_telemetry::{ClusterTelemetry, LinkClass, Phase, NUM_PHASES, PHASES};
use symi_tensor::rng::StdRng;
use symi_tensor::{init, pool, AdamConfig, Matrix};
use symi_workload::DriftingCorpus;

use crate::config::{EngineSpec, System, SETUP_REPEATS};
use crate::report::{
    another_fits, check_breakdown, check_repeatable, end_to_end, mean, Counters, EpisodeResult,
    Outcome, MIN_REPEATS,
};
use crate::stats::{median, self_time};

/// Per-rank `(input, target)` matrices of one step.
type StepInputs = Vec<(Matrix, Matrix)>;

/// Generates the inputs of `steps` steps; returns them with the mean time
/// per step.
fn inputs(spec: &EngineSpec, steps: usize) -> (Vec<StepInputs>, f64) {
    let vocab = spec.corpus.vocab_size;
    let d = spec.d_model;
    let mut rng = StdRng::seed_from_u64(spec.table_seed);
    let x_table = init::normal(vocab, d, 1.0, &mut rng);
    let t_table = init::normal(vocab, d, spec.target_scale, &mut rng);
    let mut corpus = DriftingCorpus::new(spec.corpus);
    let t_loc = spec.tokens_per_step() / spec.ranks;
    let t = Instant::now();
    let all = (0..steps)
        .map(|_| {
            let batch = corpus.next_batch();
            (0..spec.ranks)
                .map(|r| {
                    let toks = &batch.tokens[r * t_loc..(r + 1) * t_loc];
                    let x = Matrix::from_fn(t_loc, d, |i, c| x_table[(toks[i] as usize, c)]);
                    let y = Matrix::from_fn(t_loc, d, |i, c| t_table[(toks[i] as usize, c)]);
                    (x, y)
                })
                .collect()
        })
        .collect();
    (all, t.elapsed().as_secs_f64() / steps as f64)
}

/// The two engines behind one interface. One lives on each rank thread,
/// so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Symi(MoeLayerEngine),
    DeepSpeed(DeepSpeedMoeEngine, Vec<(usize, usize)>),
}

/// What every rank must agree on after a step, plus its own timings.
#[derive(Clone, Debug, Default)]
struct StepRecord {
    loss: f32,
    popularity: Vec<u64>,
    replicas: Vec<usize>,
    survived: usize,
    dropped: usize,
    churn: usize,
    degraded: bool,
    error: Option<String>,
    start_ns: u64,
    dur_ns: u64,
    phase_ns: [u64; NUM_PHASES],
    hidden_bytes: f64,
    exposed_bytes: f64,
    exposed_ms: f64,
}

impl Engine {
    fn new(spec: &EngineSpec, seed: u64, rank: usize) -> Self {
        let adam = AdamConfig { lr: spec.lr, ..AdamConfig::default() };
        match spec.system {
            System::Symi => {
                let cfg = EngineConfig {
                    d_model: spec.d_model,
                    d_ff: spec.d_ff,
                    expert_classes: spec.expert_classes,
                    slots_per_rank: spec.slots_per_rank,
                    slot_capacity: spec.slot_capacity(),
                    adam,
                    seed,
                    layer_id: 0,
                };
                let mut e = MoeLayerEngine::new(rank, spec.ranks, cfg);
                e.set_overlap(spec.overlap);
                Engine::Symi(e)
            }
            System::DeepSpeed => {
                let e = DeepSpeedMoeEngine::new(
                    rank,
                    spec.ranks,
                    spec.d_model,
                    spec.d_ff,
                    spec.expert_classes,
                    spec.slots_per_rank,
                    spec.slot_capacity(),
                    adam,
                    seed,
                );
                let placement = e.placement().classes_on_rank(rank);
                Engine::DeepSpeed(e, placement)
            }
        }
    }

    fn attach(&mut self, tele: &Arc<ClusterTelemetry>) {
        match self {
            Engine::Symi(e) => e.attach_telemetry(tele.handle(0)),
            Engine::DeepSpeed(e, _) => e.attach_telemetry(tele.handle(0)),
        }
    }

    fn step(&mut self, ctx: &mut RankCtx, x: &Matrix, t: &Matrix) -> Result<StepRecord, CommError> {
        Ok(match self {
            Engine::Symi(e) => {
                let s = e.iteration(ctx, x, t)?;
                StepRecord {
                    loss: s.loss,
                    popularity: s.popularity,
                    replicas: s.replicas,
                    survived: s.survived,
                    dropped: s.dropped,
                    churn: s.placement_churn,
                    degraded: s.degraded,
                    ..StepRecord::default()
                }
            }
            Engine::DeepSpeed(e, _) => {
                let s = e.iteration(ctx, x, t)?;
                let r = e.placement().replicas();
                StepRecord {
                    loss: s.loss,
                    replicas: vec![r; s.popularity.len()],
                    popularity: s.popularity,
                    survived: s.survived,
                    dropped: s.dropped,
                    ..StepRecord::default()
                }
            }
        })
    }

    /// Whether the DeepSpeed engine still runs its initial placement.
    fn placement_unchanged(&self, rank: usize) -> bool {
        match self {
            Engine::Symi(_) => true,
            Engine::DeepSpeed(e, initial) => e.placement().classes_on_rank(rank) == *initial,
        }
    }

    fn finish(&mut self, ctx: &mut RankCtx) -> Result<(), CommError> {
        match self {
            Engine::Symi(e) => e.drain(ctx),
            Engine::DeepSpeed(..) => Ok(()),
        }
    }
}

/// Link bytes (intra- plus inter-node) attributed to the weight phase.
fn weight_link_bytes(r: &TrafficReport) -> u64 {
    let w = &r.phase_bytes[Phase::WeightComm.index()];
    w[LinkClass::IntraNode.index()] + w[LinkClass::InterNode.index()]
}

struct RankRun {
    steps: Vec<StepRecord>,
    /// Rank 0 only: weight-phase link bytes of each step.
    weight_bytes: Vec<u64>,
    placement_changed: bool,
    finish_error: Option<String>,
}

/// One rank's closed-loop episode.
fn rank_episode(
    ctx: &mut RankCtx,
    spec: &EngineSpec,
    seed: u64,
    data: &[StepInputs],
    traced: bool,
    origin: Instant,
) -> RankRun {
    let rank = ctx.rank();
    let mut engine = Engine::new(spec, seed, rank);
    let tele = ClusterTelemetry::new(1);
    if traced {
        engine.attach(&tele);
    }
    let handle = tele.handle(0);
    let gauges = ["overlap_hidden_bytes", "overlap_exposed_bytes", "overlap_exposed_ms"]
        .map(|g| handle.gauge(g));
    let mut run = RankRun {
        steps: Vec::new(),
        weight_bytes: Vec::new(),
        placement_changed: false,
        finish_error: None,
    };
    let mut weight_seen = 0u64;
    ctx.barrier();
    for step in data {
        let (x, t) = &step[rank];
        let before: [u64; NUM_PHASES] = std::array::from_fn(|p| handle.phase_ns(PHASES[p]));
        let start = Instant::now();
        let result = engine.step(ctx, x, t);
        let dur_ns = start.elapsed().as_nanos() as u64;
        let mut rec = match result {
            Ok(r) => r,
            Err(e) => StepRecord { error: Some(e.to_string()), ..StepRecord::default() },
        };
        rec.start_ns = start.duration_since(origin).as_nanos() as u64;
        rec.dur_ns = dur_ns;
        if traced {
            rec.phase_ns = std::array::from_fn(|p| handle.phase_ns(PHASES[p]) - before[p]);
            [rec.hidden_bytes, rec.exposed_bytes, rec.exposed_ms] =
                gauges.each_ref().map(|g| g.get());
        }
        if rank == 0 {
            // Exact per step for the weight phase: this step's scatter is
            // issued by every rank before the trailing loss exchange rank 0
            // just finished, and the next one needs rank 0's next step.
            let w = weight_link_bytes(&ctx.traffic().report());
            run.weight_bytes.push(w - weight_seen);
            weight_seen = w;
        }
        run.placement_changed |= !engine.placement_unchanged(rank);
        let failed = rec.error.is_some();
        run.steps.push(rec);
        if failed {
            // The peers see this rank's exit as a lost peer and stop too.
            break;
        }
    }
    if let Err(e) = engine.finish(ctx) {
        run.finish_error = Some(e.to_string());
    }
    run
}

/// The paper's weight-phase identity per step over links: sN·W·(N−1)/N,
/// with W the fp16 bytes of one expert.
fn sn_w_identity(spec: &EngineSpec) -> u64 {
    let w = ExpertFfn::new(spec.d_model, spec.d_ff, 0).param_count() as u64 * 2;
    let n = spec.ranks as u64;
    (spec.slots_per_rank as u64 * n) * w * (n - 1) / n
}

struct EpisodeRun {
    result: EpisodeResult,
    ranks: Vec<RankRun>,
    traffic: TrafficReport,
}

/// Runs one episode on fresh rank threads and checks it.
fn episode(
    out: &mut Outcome,
    spec: &EngineSpec,
    seed: u64,
    data: &[StepInputs],
    traced: bool,
    origin: Instant,
) -> EpisodeRun {
    let (ranks, traffic) = Cluster::run(ClusterSpec::flat(spec.ranks), |ctx| {
        rank_episode(ctx, spec, seed, data, traced, origin)
    });
    let tokens = spec.tokens_per_step();
    let identity = sn_w_identity(spec);
    let steps = ranks.iter().map(|r| r.steps.len()).max().unwrap_or(0);
    let mut result = EpisodeResult {
        losses: Vec::new(),
        step_s: Vec::new(),
        kept_assignments: 0,
        all_assignments: 0,
    };
    for i in 0..steps {
        out.attempted += 1;
        let recs: Vec<Option<&StepRecord>> = ranks.iter().map(|r| r.steps.get(i)).collect();
        let Some(first) = recs[0] else {
            out.failed += 1;
            continue;
        };
        let errors: Vec<&String> = recs.iter().flatten().filter_map(|r| r.error.as_ref()).collect();
        let degraded = recs.iter().flatten().any(|r| r.degraded);
        let bad = !errors.is_empty()
            || degraded
            || recs.iter().any(Option::is_none)
            || !first.loss.is_finite();
        if bad {
            out.failed += 1;
        }
        out.check(errors.is_empty(), || format!("step {i}: {}", errors[0]));
        out.check(first.loss.is_finite() || !errors.is_empty(), || {
            format!("step {i}: non-finite loss {}", first.loss)
        });
        for (r, rec) in recs.iter().enumerate().skip(1) {
            let Some(rec) = rec else { continue };
            if rec.error.is_some() || first.error.is_some() {
                continue;
            }
            let agree = rec.loss.to_bits() == first.loss.to_bits()
                && rec.popularity == first.popularity
                && rec.replicas == first.replicas
                && rec.survived == first.survived
                && rec.dropped == first.dropped;
            out.check(agree, || format!("step {i}: rank {r}'s statistics differ from rank 0's"));
        }
        if first.error.is_none() {
            out.check(first.survived + first.dropped == tokens, || {
                format!(
                    "step {i}: {} survived + {} dropped != {tokens} assignments",
                    first.survived, first.dropped
                )
            });
        }
        if spec.system == System::Symi {
            if let Some(&w) = ranks[0].weight_bytes.get(i) {
                out.check(w <= identity, || {
                    format!("step {i}: weight phase moved {w} B > sN·W identity {identity} B")
                });
            }
        }
        result.losses.push(first.loss);
        let dur = recs.iter().flatten().map(|r| r.dur_ns).max().unwrap_or(0);
        result.step_s.push(dur as f64 / 1e9);
        result.kept_assignments += first.survived as u64;
        result.all_assignments += (first.survived + first.dropped) as u64;
    }
    for (r, run) in ranks.iter().enumerate() {
        out.check(!run.placement_changed, || format!("rank {r}: the DeepSpeed placement changed"));
        out.check(run.finish_error.is_none(), || {
            format!("rank {r}: drain failed: {:?}", run.finish_error)
        });
    }
    out.check(steps == data.len(), || {
        format!("episode stopped after {steps} of {} steps", data.len())
    });
    EpisodeRun { result, ranks, traffic }
}

/// Sets up `repeats` times — inputs, rank threads and engines — and
/// returns the inputs with the median set-up time and per-step input time.
fn setup(spec: &EngineSpec, seed: u64, steps: usize) -> (Vec<StepInputs>, f64, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        drop(kept.take());
        let made = inputs(spec, steps);
        let _ = Cluster::run(ClusterSpec::flat(spec.ranks), |ctx| {
            let engine = Engine::new(spec, seed, ctx.rank());
            std::hint::black_box(&engine);
        });
        times.push(t.elapsed().as_secs_f64());
        kept = Some(made);
    }
    let (data, per_step) = kept.expect("SETUP_REPEATS is at least 1");
    (data, median(&times), per_step)
}

/// Parameter seeds an untraced engine run trains with, in turn. The frozen
/// random router comes from this seed, and its routing decides how evenly
/// the ranks are loaded: single-seed step times and iterations to target
/// differ by up to a third between seeds, so each run averages a few.
const SEEDS_PER_RUN: u64 = 3;

/// Runs an engine workload untraced (`trace == false`) or traced. The
/// traced run uses the first of the run's parameter seeds.
pub fn run(spec: &EngineSpec, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    pool::set_threads(spec.pool_threads);
    let seeds: Vec<u64> =
        (0..SEEDS_PER_RUN).map(|k| seed.wrapping_mul(SEEDS_PER_RUN).wrapping_add(k)).collect();
    let ep = spec.episode;
    let steps = if trace { ep.trace_steps } else { ep.steps };
    let (data, setup_s, next_batch_s) = setup(spec, seeds[0], steps);
    out.metric("setup_s", "s", setup_s);
    let origin = Instant::now();

    if !trace {
        // Rounds of one episode per parameter seed.
        let mut groups: Vec<Vec<EpisodeResult>> = seeds.iter().map(|_| Vec::new()).collect();
        let mut bytes = Vec::new();
        for round in 1.. {
            let began = Instant::now();
            for (group, &s) in groups.iter_mut().zip(&seeds) {
                let run = episode(out, spec, s, &data, false, origin);
                let link = run.traffic.intra_node_bytes + run.traffic.inter_node_bytes;
                bytes.push(link as f64 / steps as f64);
                group.push(run.result);
            }
            if round >= MIN_REPEATS && !another_fits(origin, began, seconds) {
                break;
            }
        }
        end_to_end(out, &groups, spec.tokens_per_step(), ep.target_loss);
        out.note(format!("parameter seeds {seeds:?}; link bytes per step: {:.0}", mean(bytes)));
        return;
    }
    let seed = seeds[0];

    // Traced run: pairs of an untraced episode and a traced one.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut counters = Counters::default();
    loop {
        let began = Instant::now();
        plain.push(episode(out, spec, seed, &data, false, origin).result);
        traced.push(counters.measure(steps, || episode(out, spec, seed, &data, true, origin)));
        if !another_fits(origin, began, seconds) {
            break;
        }
    }
    let losses = plain.iter().map(|e| &e.losses).chain(traced.iter().map(|r| &r.result.losses));
    check_repeatable(out, losses.map(Vec::as_slice));
    report_traced(out, &plain, &traced);
    counters.report(out);
    out.metric("workload.next_batch_ms", "ms", next_batch_s * 1e3);
    for run in &traced {
        for (r, rank) in run.ranks.iter().enumerate() {
            out.trace.extend(rank.steps.iter().enumerate().map(|(i, s)| step_span(r, i, s)));
        }
    }
}

/// A rank's step as a trace line: the `iteration` span with its phase times.
fn step_span(rank: usize, step: usize, s: &StepRecord) -> String {
    let mut phases = Obj::new();
    for p in PHASES {
        phases.set(p.name(), Value::u64(s.phase_ns[p.index()]));
    }
    let mut o = Obj::new();
    o.set("rank", Value::u64(rank as u64));
    o.set("step", Value::u64(step as u64));
    o.set("name", Value::str("iteration"));
    o.set("start_ns", Value::u64(s.start_ns));
    o.set("end_ns", Value::u64(s.start_ns + s.dur_ns));
    o.set("phase_ns", Value::Obj(phases));
    Value::Obj(o).to_string()
}

/// Per-layer metrics of the traced episodes: each phase's max and min over
/// ranks, the step residual, traffic per step and the overlap gauges.
fn report_traced(out: &mut Outcome, plain: &[EpisodeResult], traced: &[EpisodeRun]) {
    let mut phase_max = [0.0f64; NUM_PHASES];
    let mut phase_min = [0.0f64; NUM_PHASES];
    let (mut ffn_imbalance, mut churn) = (Vec::new(), Vec::new());
    // Per rank-step: the step span, its phases and its residual.
    let (mut step_ms, mut phases_ms, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hidden, mut exposed, mut exposed_ms) = (Vec::new(), Vec::new(), Vec::new());
    for run in traced {
        for i in 0..run.result.losses.len() {
            let recs: Vec<&StepRecord> = run.ranks.iter().filter_map(|r| r.steps.get(i)).collect();
            let ms = |r: &StepRecord, p: usize| r.phase_ns[p] as f64 / 1e6;
            for p in 0..NUM_PHASES {
                phase_max[p] += recs.iter().map(|r| ms(r, p)).fold(f64::MIN, f64::max);
                phase_min[p] += recs.iter().map(|r| ms(r, p)).fold(f64::MAX, f64::min);
            }
            let ffn: Vec<f64> = recs.iter().map(|r| ms(r, Phase::ExpertFfn.index())).collect();
            let ffn_mean = mean(ffn.iter().copied());
            if ffn_mean > 0.0 {
                ffn_imbalance.push(ffn.iter().copied().fold(0.0, f64::max) / ffn_mean);
            }
            for r in &recs {
                step_ms.push(r.dur_ns as f64 / 1e6);
                phases_ms.push(r.phase_ns.iter().sum::<u64>() as f64 / 1e6);
                unattributed.push(self_time(r.dur_ns, &r.phase_ns) as f64 / 1e6);
            }
            churn.push(recs[0].churn as f64);
            hidden.push(recs.iter().map(|r| r.hidden_bytes).sum::<f64>());
            exposed.push(recs.iter().map(|r| r.exposed_bytes).sum::<f64>());
            exposed_ms.push(recs.iter().map(|r| r.exposed_ms).fold(0.0, f64::max));
        }
    }
    let n = churn.len() as f64;
    for p in PHASES {
        out.metric(&format!("engine.{}_ms_max", p.name()), "ms", phase_max[p.index()] / n);
        out.metric(&format!("engine.{}_ms_min", p.name()), "ms", phase_min[p.index()] / n);
    }
    out.metric("engine.expert_ffn_imbalance", "ratio", mean(ffn_imbalance));
    let changed = churn.iter().map(|&c| f64::from(u8::from(c > 0.0)));
    out.metric("engine.placement_change_share", "fraction", mean(changed));
    out.metric("engine.placement_churn_slots", "count", mean(churn));

    // The step span per rank-step: its phases plus the residual.
    let traced_ms = mean(step_ms.iter().copied());
    let residual = mean(unattributed);
    check_breakdown(out, mean(phases_ms), residual, traced_ms);
    out.metric("step.unattributed_ms", "ms", residual);
    out.metric("step.traced_ms", "ms", traced_ms);
    let plain_ms: Vec<f64> = plain.iter().flat_map(|e| e.step_s.iter().map(|s| s * 1e3)).collect();
    let traced_step_ms: Vec<f64> =
        traced.iter().flat_map(|e| e.result.step_s.iter().map(|s| s * 1e3)).collect();
    let overhead = median(&traced_step_ms) / median(&plain_ms) - 1.0;
    out.metric("trace.overhead_fraction", "fraction", overhead);

    let per_step = |f: &dyn Fn(&TrafficReport) -> u64| {
        mean(traced.iter().map(|r| f(&r.traffic) as f64 / r.result.losses.len() as f64))
    };
    for p in PHASES {
        out.metric(&format!("comm.{}_bytes", p.name()), "B", per_step(&|t| t.bytes_in_phase(p)));
    }
    let wire = per_step(&|t| t.intra_node_bytes + t.inter_node_bytes);
    out.metric("comm.wire_bytes_per_step", "B", wire);
    let msgs = per_step(&|t| t.intra_node_msgs + t.inter_node_msgs);
    out.metric("comm.msgs_per_step", "count", msgs);
    let imbalance = mean(traced.iter().map(|r| r.traffic.send_imbalance()));
    out.metric("comm.send_imbalance", "ratio", imbalance);
    out.metric("overlap.hidden_bytes", "B", mean(hidden));
    out.metric("overlap.exposed_bytes", "B", mean(exposed));
    out.metric("overlap.exposed_ms", "ms", mean(exposed_ms));
}
