//! Bit-exactness of the overlap scheduler (ISSUE 8's acceptance bar).
//!
//! The overlapped iteration reorders real work: gradient collection is
//! posted before the backward GEMMs, per-class Adam steps fire as shards
//! land, and the weight scatter stays in flight across the iteration
//! boundary. None of that may change a single bit of the training math —
//! the sequential `SYMI_OVERLAP=off` pipeline is the oracle, and every
//! observable (per-iteration losses and stats, drained slot weights, fp32
//! master shards, snapshots) must match it exactly on a multi-rank
//! cluster whose placement actually rebalances.

use std::sync::Arc;
use symi::{EngineConfig, EngineSnapshot, MoeLayerEngine};
use symi_collectives::{Cluster, ClusterSpec};
use symi_telemetry::{ClusterTelemetry, PHASES};
use symi_tensor::{AdamConfig, Matrix};

const NODES: usize = 4;
const D: usize = 8;
const DFF: usize = 16;
const E: usize = 4;
const S: usize = 2;
const T_LOC: usize = 8;
const ITERS: usize = 8;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: D,
        d_ff: DFF,
        expert_classes: E,
        slots_per_rank: S,
        slot_capacity: 1_000_000,
        adam: AdamConfig::default(),
        seed: 31,
        layer_id: 0,
    }
}

/// Skewed token embeddings so popularity shifts and the placement
/// rebalances — the cross-iteration scatter then carries *changing*
/// assignments, not a fixed point.
fn tokens(rank: usize) -> Matrix {
    Matrix::from_fn(T_LOC, D, |r, c| {
        (c as f32 * 0.7).sin() + 0.05 * (((rank * T_LOC + r) * D + c) as f32 * 0.613).sin()
    })
}

/// Everything observable a rank produced over a full run.
#[derive(Clone, Debug, PartialEq)]
struct RunObservables {
    losses: Vec<f32>,
    popularity: Vec<Vec<u64>>,
    survived: Vec<usize>,
    dropped: Vec<usize>,
    kept_per_class: Vec<Vec<u64>>,
    replicas: Vec<Vec<usize>>,
    churn: Vec<usize>,
    /// Post-drain per-slot flat weights.
    slot_weights: Vec<Vec<f32>>,
    /// Per-class fp32 master shards.
    master_shards: Vec<Vec<f32>>,
    final_replicas: Vec<usize>,
}

fn run(overlap: bool) -> Vec<RunObservables> {
    let (results, _) = Cluster::run(ClusterSpec::flat(NODES), move |ctx| {
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        engine.set_overlap(overlap);
        let x = tokens(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        let mut obs = RunObservables {
            losses: Vec::new(),
            popularity: Vec::new(),
            survived: Vec::new(),
            dropped: Vec::new(),
            kept_per_class: Vec::new(),
            replicas: Vec::new(),
            churn: Vec::new(),
            slot_weights: Vec::new(),
            master_shards: Vec::new(),
            final_replicas: Vec::new(),
        };
        for _ in 0..ITERS {
            let stats = engine.iteration(ctx, &x, &target).unwrap();
            assert!(!stats.degraded, "fault-free runs never degrade");
            obs.losses.push(stats.loss);
            obs.popularity.push(stats.popularity);
            obs.survived.push(stats.survived);
            obs.dropped.push(stats.dropped);
            obs.kept_per_class.push(stats.kept_per_class);
            obs.replicas.push(stats.replicas);
            obs.churn.push(stats.placement_churn);
        }
        engine.drain(ctx).unwrap();
        obs.slot_weights = (0..S).map(|l| engine.slot_weights(l)).collect();
        obs.master_shards = (0..E).map(|c| engine.master_shard(c).to_vec()).collect();
        obs.final_replicas = engine.placement.replica_counts();
        obs
    });
    results
}

#[test]
fn overlapped_run_is_bit_exact_vs_sequential() {
    let sequential = run(false);
    let overlapped = run(true);
    for (rank, (seq, ovl)) in sequential.iter().zip(&overlapped).enumerate() {
        assert_eq!(
            seq, ovl,
            "rank {rank}: every observable of the overlapped run must match sequential bit-exact"
        );
    }
    // The placement must actually have moved during the run, or the
    // cross-iteration scatter was never exercised against a *changing*
    // placement and this test proves less than it claims.
    assert!(
        sequential[0].churn.iter().sum::<usize>() > 0,
        "the workload must force at least one rebalance: {:?}",
        sequential[0].churn
    );
}

#[test]
fn snapshot_with_scatter_in_flight_restarts_bit_exact() {
    // Snapshot an overlapped run *without draining* — the weight scatter
    // for the next placement is still in flight. The snapshot must
    // fast-forward to the pending placement (the masters have already
    // stepped), so a fresh cluster restored from it and materialized from
    // the fp32 masters continues with exactly the losses the original
    // (drained, continued) run produces.
    let halfway = ITERS / 2;
    let (first, _) = Cluster::run(ClusterSpec::flat(NODES), move |ctx| {
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        engine.set_overlap(true);
        let x = tokens(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        for _ in 0..halfway {
            engine.iteration(ctx, &x, &target).unwrap();
        }
        let snap = engine.snapshot();
        // The original keeps going, scatter still in flight.
        let tail: Vec<f32> =
            (halfway..ITERS).map(|_| engine.iteration(ctx, &x, &target).unwrap().loss).collect();
        (snap, tail)
    });
    let (snaps, tails): (Vec<EngineSnapshot>, Vec<Vec<f32>>) = first.into_iter().unzip();

    let snaps = std::sync::Arc::new(snaps);
    let (restored_tails, _) = Cluster::run(ClusterSpec::flat(NODES), move |ctx| {
        let mut engine = MoeLayerEngine::from_snapshot(cfg(), snaps[ctx.rank()].clone());
        engine.set_overlap(true);
        engine.materialize_slots(ctx).unwrap();
        let x = tokens(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        (halfway..ITERS)
            .map(|_| engine.iteration(ctx, &x, &target).unwrap().loss)
            .collect::<Vec<f32>>()
    });
    for (rank, (orig, restored)) in tails.iter().zip(&restored_tails).enumerate() {
        assert_eq!(
            orig, restored,
            "rank {rank}: restart from an in-flight snapshot must continue bit-exact"
        );
    }
}

#[test]
fn drain_is_idempotent_and_lands_the_pending_placement() {
    let (results, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        engine.set_overlap(true);
        let x = tokens(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        let _ = engine.iteration(ctx, &x, &target).unwrap();
        let before = engine.placement.replica_counts();
        engine.drain(ctx).unwrap();
        let after = engine.placement.replica_counts();
        // A second drain has nothing in flight and must be a no-op.
        engine.drain(ctx).unwrap();
        assert_eq!(after, engine.placement.replica_counts());
        (before, after)
    });
    // The skewed workload rebalances away from uniform on iteration 0, so
    // the drain observably switches the placement.
    let (before, after) = &results[0];
    assert_eq!(before, &vec![S * NODES / E; E], "pre-drain placement is still the initial one");
    assert_ne!(before, after, "drain must land the rebalanced placement");
}

#[test]
fn overlap_telemetry_attributes_hidden_bytes() {
    let run_mode = |overlap: bool| {
        let telemetry = ClusterTelemetry::new(NODES);
        let tele = telemetry.clone();
        let (_, traffic) = Cluster::run(ClusterSpec::flat(NODES), move |ctx| {
            let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
            engine.set_overlap(overlap);
            engine.attach_telemetry(tele.handle(ctx.rank()));
            let x = tokens(ctx.rank());
            let target = Matrix::zeros(T_LOC, D);
            for _ in 0..4 {
                engine.iteration(ctx, &x, &target).unwrap();
            }
            engine.drain(ctx).unwrap();
        });
        (telemetry, traffic)
    };
    let (telemetry, overlap_traffic) = run_mode(true);
    let json = telemetry.registry().snapshot().to_string();
    for gauge in ["overlap_hidden_bytes", "overlap_exposed_bytes", "overlap_exposed_ms"] {
        assert!(json.contains(gauge), "telemetry must carry `{gauge}`: {json}");
    }
    // Both schedules publish the same optimizer-state footprint.
    let state_bytes = |t: &Arc<ClusterTelemetry>| t.handle(0).gauge("optimizer_state_bytes").get();
    let (sequential_telemetry, sequential_traffic) = run_mode(false);
    let sequential = state_bytes(&sequential_telemetry);
    assert!(sequential > 0.0, "the sequential schedule must publish optimizer_state_bytes");
    assert_eq!(state_bytes(&telemetry), sequential, "overlap must publish the same value");
    // Both schedules move the same bytes for the same reasons, so every
    // phase must be charged the same bytes whichever order they move in.
    assert_eq!(overlap_traffic.total_bytes(), sequential_traffic.total_bytes());
    for phase in PHASES {
        assert_eq!(
            overlap_traffic.bytes_in_phase(phase),
            sequential_traffic.bytes_in_phase(phase),
            "{phase:?}: overlap and sequential attribute different bytes"
        );
    }
}
