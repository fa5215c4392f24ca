//! Checkpoint cadence overhead: a training loop with the async checkpoint
//! manager enabled vs its checkpoint-free twin, same seed, interleaved
//! round-for-round. Only the on-training-thread work is in the measured
//! path — the cadence gate every iteration, and on cadence hits the
//! coordination round plus the snapshot copy; serialization and fsync run
//! on the writer thread. Rounds span a whole cadence cycle so each "on"
//! round amortizes exactly one checkpoint. The measured relative overhead
//! lands in `BENCH_checkpoint_overhead.json` at the repo root; the
//! acceptance budget is <1%, and a run whose noise floor is at least the
//! budget reports `"verdict": "unresolved"`.

use std::path::Path;
use std::time::Instant;

use symi::{EngineConfig, MoeLayerEngine};
use symi_bench::BudgetVerdict;
use symi_checkpoint::{CheckpointConfig, CheckpointManager, CheckpointStats};
use symi_collectives::{Cluster, ClusterSpec, RankCtx};
use symi_telemetry::json::{Obj, Value};
use symi_tensor::{AdamConfig, Matrix};

const D: usize = 64;
const DFF: usize = 256;
const E: usize = 8;
const T: usize = 128;
const CADENCE: u64 = 32;
const WARMUP_ROUNDS: usize = 2;
const ROUNDS: usize = 30;
const STEPS: usize = CADENCE as usize; // one cadence hit per "on" round
const KEEP: usize = 10;
/// Acceptance budget of the checkpoint overhead (a fraction of step time).
const BUDGET: f64 = 0.01;

/// Distinct layer ids keep the two engines' wire tags disjoint even though
/// they share one rank context.
fn engine_cfg(layer_id: usize) -> EngineConfig {
    EngineConfig {
        d_model: D,
        d_ff: DFF,
        expert_classes: E,
        slots_per_rank: E,
        slot_capacity: 1_000_000,
        adam: AdamConfig::default(),
        seed: 97,
        layer_id,
    }
}

fn tokens() -> Matrix {
    Matrix::from_fn(T, D, |r, c| (c as f32 * 0.7).sin() + 0.05 * ((r * D + c) as f32 * 0.613).sin())
}

/// Mean ns/step over one round of `STEPS` iterations.
fn time_round(
    ctx: &mut RankCtx,
    engine: &mut MoeLayerEngine,
    manager: Option<&mut CheckpointManager>,
    x: &Matrix,
    target: &Matrix,
) -> f64 {
    let mut manager = manager;
    let t = Instant::now();
    for _ in 0..STEPS {
        std::hint::black_box(engine.iteration(ctx, x, target).expect("bench iteration").loss);
        if let Some(m) = manager.as_deref_mut() {
            m.maybe_checkpoint(ctx, engine).expect("cadence check");
        }
    }
    t.elapsed().as_nanos() as f64 / STEPS as f64
}

struct BenchOut {
    off_rounds: Vec<f64>,
    on_rounds: Vec<f64>,
    stats: CheckpointStats,
}

fn run(dir: &Path) -> BenchOut {
    let dir = dir.to_path_buf();
    let (mut results, _) = Cluster::run(ClusterSpec::flat(1), move |ctx| {
        let x = tokens();
        let target = Matrix::zeros(T, D);
        let mut off = MoeLayerEngine::new(ctx.rank(), 1, engine_cfg(0));
        let mut on = MoeLayerEngine::new(ctx.rank(), 1, engine_cfg(1));
        let mut manager =
            CheckpointManager::new(CheckpointConfig::new(&dir).with_cadence(CADENCE).with_keep(2))
                .expect("checkpoint dir");

        for _ in 0..WARMUP_ROUNDS {
            time_round(ctx, &mut off, None, &x, &target);
            time_round(ctx, &mut on, Some(&mut manager), &x, &target);
        }
        let mut off_rounds = Vec::with_capacity(ROUNDS);
        let mut on_rounds = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            off_rounds.push(time_round(ctx, &mut off, None, &x, &target));
            on_rounds.push(time_round(ctx, &mut on, Some(&mut manager), &x, &target));
        }
        manager.flush();
        BenchOut { off_rounds, on_rounds, stats: manager.stats() }
    });
    results.pop().expect("single-rank result")
}

fn tail_mean(rounds: &[f64]) -> f64 {
    let mut s = rounds.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s[..KEEP].iter().sum::<f64>() / KEEP as f64
}

fn spread(rounds: &[f64]) -> f64 {
    let mut s = rounds.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    (s[s.len() / 2] - s[0]) / s[0]
}

fn main() {
    println!("== checkpoint cadence overhead (on vs off) ==");
    let dir = std::env::temp_dir().join("symi_ckpt_bench");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let hits = (WARMUP_ROUNDS + ROUNDS) as u64;
    assert_eq!(out.stats.cadence_hits, hits, "every round must cross one cadence boundary");
    assert!(out.stats.snapshots_submitted > 0, "the writer must have accepted snapshots");
    assert_eq!(out.stats.writes_failed, 0);

    let off = tail_mean(&out.off_rounds);
    let on = tail_mean(&out.on_rounds);
    let noise = spread(&out.off_rounds).max(spread(&out.on_rounds));
    let overhead = (on - off) / off;
    println!(
        "ckpt_off {:.0} ns/step   ckpt_on {:.0} ns/step   overhead {:+.3}% (noise floor {:.2}%)",
        off,
        on,
        overhead * 100.0,
        noise * 100.0
    );
    println!(
        "cadence {} hits {} submitted {} skipped {} bytes_written {} copy {:.0} ns/snapshot",
        CADENCE,
        out.stats.cadence_hits,
        out.stats.snapshots_submitted,
        out.stats.skipped,
        out.stats.bytes_written,
        out.stats.copy_ns as f64 / out.stats.snapshots_submitted.max(1) as f64
    );

    let mut o = Obj::new();
    o.set("bench", Value::str("checkpoint_overhead"));
    o.set("model", Value::str("engine_d64_ff256_e8"));
    o.set("system", Value::str("symi"));
    o.set("ckpt_off_ns_per_step", Value::Num(off));
    o.set("ckpt_on_ns_per_step", Value::Num(on));
    o.set("overhead_fraction", Value::Num(overhead));
    o.set("overhead_percent", Value::Num(overhead * 100.0));
    o.set("noise_floor_percent", Value::Num(noise * 100.0));
    o.set("budget_percent", Value::Num(BUDGET * 100.0));
    o.set("verdict", Value::str(BudgetVerdict::judge(overhead, noise, BUDGET).name()));
    o.set("rounds", Value::u64(ROUNDS as u64));
    o.set("steps_per_round", Value::u64(STEPS as u64));
    o.set("cadence", Value::u64(CADENCE));
    o.set("cadence_hits", Value::u64(out.stats.cadence_hits));
    o.set("snapshots_submitted", Value::u64(out.stats.snapshots_submitted));
    o.set("snapshots_skipped_writer_busy", Value::u64(out.stats.skipped));
    o.set("bytes_written", Value::u64(out.stats.bytes_written));
    o.set(
        "snapshot_copy_ns_mean",
        Value::Num(out.stats.copy_ns as f64 / out.stats.snapshots_submitted.max(1) as f64),
    );

    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_checkpoint_overhead.json");
    std::fs::write(&path, Value::Obj(o).to_string()).expect("write overhead json");
    println!("wrote {}", path.display());
}
