//! §5.3 overhead benchmark, two parts:
//!
//! 1. SYMI's newly introduced components (popularity all-reduce, Expert
//!    Placement Scheduler, metadata update) against a full training
//!    iteration — the paper reports they aggregate to ~1% of iteration
//!    time.
//! 2. The telemetry subsystem itself: a full training step with the
//!    registry + spans + sinks enabled vs the disabled twin. The measured
//!    relative overhead lands in `BENCH_telemetry_overhead.json` at the
//!    repo root; the acceptance budget is <1%, and a run whose noise floor
//!    is at least the budget reports `"verdict": "unresolved"`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use symi::{compute_placement, LayerMetadataStore, SymiPolicy};
use symi_bench::runs::experiment_corpus;
use symi_bench::{bench, group, BudgetVerdict};
use symi_model::{ModelConfig, Trainer};
use symi_telemetry::json::{Obj, Value};
use symi_telemetry::{ClusterTelemetry, RingBufferSink};
use symi_workload::{DriftingCorpus, SyntheticTraceConfig};

/// Acceptance budget of the telemetry overhead (a fraction of step time).
const BUDGET: f64 = 0.01;

fn bench_symi_components() {
    group("SYMI components (§5.3)");
    let trace =
        SyntheticTraceConfig { expert_classes: 16, iterations: 8, ..Default::default() }.generate();
    let popularity = trace.iterations[0].clone();

    bench("component/scheduler_16e_64s", || compute_placement(&popularity, 64));

    let mut store = LayerMetadataStore::new(2, 64);
    bench("component/metadata_record", || {
        store.record(0, popularity.clone());
        store.latest(0).map(|p| p.len())
    });

    // The popularity "all-reduce" payload is one u64 per class — benchmark
    // the local reduction work the collective performs per rank.
    let contributions: Vec<Vec<u64>> = (0..16).map(|_| popularity.clone()).collect();
    bench("component/popularity_fold_16e", || {
        let mut acc = vec![0u64; 16];
        for contrib in &contributions {
            for (a, v) in acc.iter_mut().zip(contrib) {
                *a += v;
            }
        }
        acc
    });
}

fn bench_full_iteration() {
    group("full iteration (for the component ratio)");
    let cfg = ModelConfig::tiny();
    let mut corpus = experiment_corpus(&cfg);
    let mut trainer = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
    let batch = corpus.next_batch();
    bench("full_training_step_tiny", || trainer.step(&batch).ce_loss);
}

/// Mean ns/step over `steps` consecutive training steps.
fn time_steps(trainer: &mut Trainer, corpus: &mut DriftingCorpus, steps: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..steps {
        let batch = corpus.next_batch();
        std::hint::black_box(trainer.step(&batch).ce_loss);
    }
    t.elapsed().as_nanos() as f64 / steps as f64
}

fn bench_telemetry_overhead() {
    group("telemetry overhead (on vs off)");
    // Measured at the paper's evaluation scale (GPT-Small stand-in): the
    // per-step telemetry cost is a few microseconds, so the *fraction*
    // depends on iteration length — `tiny` (~0.4 ms steps) would overstate
    // it by an order of magnitude vs any realistic model.
    let cfg = ModelConfig::small_sim();

    let mut corpus_off = experiment_corpus(&cfg);
    let mut off = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
    // Trainer starts with telemetry disabled; make that explicit anyway.
    off.attach_telemetry(ClusterTelemetry::disabled(1));

    let mut corpus_on = experiment_corpus(&cfg);
    let mut on = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
    let telemetry = ClusterTelemetry::new(1);
    telemetry.add_sink(Arc::new(RingBufferSink::new(64)));
    on.attach_telemetry(telemetry.clone());

    const WARMUP: usize = 2;
    const ROUNDS: usize = 60;
    const STEPS: usize = 1;
    const KEEP: usize = 10;
    time_steps(&mut off, &mut corpus_off, WARMUP);
    time_steps(&mut on, &mut corpus_on, WARMUP);

    // Interleave the two trainers step-by-step so drift (cache state, CPU
    // frequency, co-tenant load) hits both alike, then score each variant
    // by the mean of its KEEP quietest steps: on a shared machine external
    // interference only ever adds time, so the lower tail approximates the
    // uncontended cost, and averaging several tail samples is less
    // chance-sensitive than the single minimum.
    let mut off_rounds = Vec::with_capacity(ROUNDS);
    let mut on_rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        off_rounds.push(time_steps(&mut off, &mut corpus_off, STEPS));
        on_rounds.push(time_steps(&mut on, &mut corpus_on, STEPS));
    }
    assert!(telemetry.iterations_emitted() > 0, "the enabled trainer must have emitted reports");

    let tail_mean = |rounds: &[f64]| {
        let mut s = rounds.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        s[..KEEP].iter().sum::<f64>() / KEEP as f64
    };
    let spread = |rounds: &[f64]| {
        let mut s = rounds.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        (s[s.len() / 2] - s[0]) / s[0]
    };
    let off_min = tail_mean(&off_rounds);
    let on_min = tail_mean(&on_rounds);
    // Median-over-min step spread: how much interference the run saw.
    // When |overhead| is below this, the telemetry cost is under the
    // measurement floor (a negative overhead just means noise, not a
    // speedup).
    let noise = spread(&off_rounds).max(spread(&on_rounds));

    let overhead = (on_min - off_min) / off_min;
    println!(
        "telemetry_off {:.0} ns/step   telemetry_on {:.0} ns/step   overhead {:+.3}% (noise floor {:.2}%)",
        off_min,
        on_min,
        overhead * 100.0,
        noise * 100.0
    );

    let mut o = Obj::new();
    o.set("bench", Value::str("telemetry_overhead"));
    o.set("model", Value::str("small_sim"));
    o.set("system", Value::str("symi"));
    o.set("telemetry_off_ns_per_step", Value::Num(off_min));
    o.set("telemetry_on_ns_per_step", Value::Num(on_min));
    o.set("overhead_fraction", Value::Num(overhead));
    o.set("overhead_percent", Value::Num(overhead * 100.0));
    o.set("noise_floor_percent", Value::Num(noise * 100.0));
    o.set("budget_percent", Value::Num(BUDGET * 100.0));
    o.set("verdict", Value::str(BudgetVerdict::judge(overhead, noise, BUDGET).name()));
    o.set("rounds", Value::u64(ROUNDS as u64));
    o.set("steps_per_round", Value::u64(STEPS as u64));
    o.set("reports_emitted", Value::u64(telemetry.iterations_emitted()));

    let out =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_telemetry_overhead.json");
    std::fs::write(&out, Value::Obj(o).to_string()).expect("write overhead json");
    println!("wrote {}", out.display());
}

fn main() {
    bench_symi_components();
    bench_full_iteration();
    bench_telemetry_overhead();
}
