//! The DeepSpeed-style static baseline: [`MoeLayerEngine`] configured with
//! DeepSpeed's placement and optimizer pair (§5's experimental setup):
//!
//! - **Static striped placement**: global slot `k` hosts class `k mod E`,
//!   so replicas of a class land on *distinct* ranks (DeepSpeed does not
//!   support intra-rank expert data parallelism, §4.1), never re-placed.
//! - **Optimizer coupled to the EDP group**: each of the `r` host ranks of
//!   a class owns a `1/r` ZeRO-1 shard of that class's optimizer state —
//!   host-offloaded, like the paper's DeepSpeed configuration.
//!
//! Routing, per-slot capacity, dispatch, combine, loss, the gradient
//! all-reduce over each class's (striped, non-contiguous) host group and
//! the Adam step are the SYMI engine's own, so every measured difference
//! between the two systems comes from the design.

use symi::{EngineConfig, ExpertPlacement, IterStats, MoeLayerEngine};
use symi_collectives::{CommError, RankCtx};
use symi_telemetry::TelemetryHandle;
use symi_tensor::{AdamConfig, Matrix};

/// Per-rank DeepSpeed-style engine for one MoE layer.
pub struct DeepSpeedMoeEngine {
    engine: MoeLayerEngine,
}

/// The engine's live striped placement, in the baseline's terms.
#[derive(Clone, Copy, Debug)]
pub struct StripedPlacement<'a>(&'a ExpertPlacement);

impl StripedPlacement<'_> {
    /// Replicas per class (uniform).
    pub fn replicas(&self) -> usize {
        self.0.replica_counts()[0]
    }

    /// Classes hosted on `rank` with their local slot index (one slot per
    /// class: striping never co-locates replicas).
    pub fn classes_on_rank(&self, rank: usize) -> Vec<(usize, usize)> {
        self.0.classes_on_rank(rank).into_iter().map(|(class, locals)| (class, locals[0])).collect()
    }
}

impl DeepSpeedMoeEngine {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        nodes: usize,
        d_model: usize,
        d_ff: usize,
        expert_classes: usize,
        slots_per_rank: usize,
        slot_capacity: usize,
        adam: AdamConfig,
        seed: u64,
    ) -> Self {
        let cfg = EngineConfig {
            d_model,
            d_ff,
            expert_classes,
            slots_per_rank,
            slot_capacity,
            adam,
            seed,
            layer_id: 0,
        };
        Self { engine: MoeLayerEngine::deepspeed_static(rank, nodes, cfg) }
    }

    /// Installs this rank's telemetry handle (same phase taxonomy as the
    /// SYMI engine, so breakdowns are directly comparable).
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.engine.attach_telemetry(handle);
    }

    pub fn placement(&self) -> StripedPlacement<'_> {
        StripedPlacement(&self.engine.placement)
    }

    pub fn slot_weights(&self, local_slot: usize) -> Vec<f32> {
        self.engine.slot_weights(local_slot)
    }

    /// One training iteration on this rank's token shard (same contract as
    /// the SYMI engine).
    pub fn iteration(
        &mut self,
        ctx: &mut RankCtx,
        x_local: &Matrix,
        target_local: &Matrix,
    ) -> Result<IterStats, CommError> {
        self.engine.iteration(ctx, x_local, target_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_collectives::{Cluster, ClusterSpec};
    use symi_telemetry::ClusterTelemetry;

    fn engine(rank: usize, nodes: usize, cap: usize) -> DeepSpeedMoeEngine {
        DeepSpeedMoeEngine::new(rank, nodes, 8, 16, 4, 2, cap, AdamConfig::default(), 31)
    }

    fn token_matrix(rank: usize, t_loc: usize, d: usize) -> Matrix {
        Matrix::from_fn(t_loc, d, |r, c| (((rank * t_loc + r) * d + c) as f32 * 0.137).sin())
    }

    #[test]
    fn striped_placement_spreads_replicas() {
        let p = ExpertPlacement::striped(4, 4, 2);
        assert_eq!(p.replica_counts(), vec![2; 4]);
        for class in 0..4 {
            let hosts = p.host_ranks(class);
            assert_eq!(hosts.len(), 2);
            assert_ne!(hosts[0], hosts[1], "replicas must land on distinct ranks");
        }
        let view = StripedPlacement(&p);
        assert_eq!(view.replicas(), 2);
        assert_eq!(view.classes_on_rank(1), vec![(2, 0), (3, 1)]);
    }

    #[test]
    fn loss_decreases_over_iterations() {
        let nodes = 4;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1_000_000);
            let x = token_matrix(ctx.rank(), 8, 8);
            let target = Matrix::zeros(8, 8);
            let mut losses = Vec::new();
            for _ in 0..10 {
                losses.push(eng.iteration(ctx, &x, &target).unwrap().loss);
            }
            losses
        });
        for losses in &results {
            assert!(losses.last().unwrap() < &(losses[0] * 0.8), "{losses:?}");
        }
    }

    #[test]
    fn replicas_stay_identical_across_ranks() {
        let nodes = 4;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1_000_000);
            let x = token_matrix(ctx.rank(), 8, 8);
            let target = Matrix::zeros(8, 8);
            for _ in 0..3 {
                let _ = eng.iteration(ctx, &x, &target).unwrap();
            }
            eng.placement()
                .classes_on_rank(ctx.rank())
                .into_iter()
                .map(|(class, local)| (class, eng.slot_weights(local)))
                .collect::<Vec<_>>()
        });
        let mut by_class: std::collections::HashMap<usize, Vec<f32>> = Default::default();
        for per_rank in &results {
            for (class, w) in per_rank {
                match by_class.get(class) {
                    None => {
                        by_class.insert(*class, w.clone());
                    }
                    Some(reference) => {
                        let diff = reference
                            .iter()
                            .zip(w)
                            .map(|(a, b)| (a - b).abs())
                            .fold(0.0f32, f32::max);
                        assert!(diff < 1e-6, "class {class} replicas diverged by {diff}");
                    }
                }
            }
        }
    }

    #[test]
    fn static_capacity_drops_under_skew() {
        let nodes = 2;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1);
            let x = token_matrix(ctx.rank(), 16, 8);
            let target = Matrix::zeros(16, 8);
            eng.iteration(ctx, &x, &target).unwrap()
        });
        assert!(results[0].dropped > 0);
        assert_eq!(results[0].survived + results[0].dropped, 32);
    }

    #[test]
    fn nan_token_row_routes_without_panicking() {
        // A NaN token row makes every router probability NaN. The baseline
        // used to take its own argmax, which panicked on the NaN
        // comparison; it now routes through the engine's NaN-last argmax
        // and counts the NaNs into `router.nan_logits`.
        let nodes = 2;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1_000_000);
            // One registry per rank: a cluster-wide one shares the gauge.
            let telemetry = ClusterTelemetry::new(1);
            eng.attach_telemetry(telemetry.handle(0));
            let mut x = token_matrix(ctx.rank(), 4, 8);
            if ctx.rank() == 0 {
                x[(2, 3)] = f32::NAN;
            }
            let stats = eng.iteration(ctx, &x, &Matrix::zeros(4, 8)).expect("NaN must not abort");
            let nan = telemetry.handle(0).gauge("router.nan_logits").get();
            (stats.popularity.iter().sum::<u64>(), stats.survived + stats.dropped, nan)
        });
        assert_eq!(results[0].0, 8, "every token still routes somewhere");
        assert_eq!(results[0].1, 8, "every token is kept or dropped, none lost");
        assert_eq!(results[0].2, 4.0, "all four probs of rank 0's NaN row are NaN");
        assert_eq!(results[1].2, 0.0, "rank 1 saw only finite probs");
    }
}
