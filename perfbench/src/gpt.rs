//! `gpt_train`: the single-process GPT-MoE `Trainer` with SYMI's placement
//! policy, as training episodes run from scratch to a fixed loss target.
//!
//! The traced run walks `GptMoe`'s public layers in the order
//! `Trainer::step` calls them, timing each call, and must reproduce the
//! untraced trainer's losses bit for bit.

use std::time::Instant;

use symi::SymiPolicy;
use symi_model::model::StepStats;
use symi_model::moe::MoeStats;
use symi_model::{GptMoe, ModelConfig, PlacementPolicy, Trainer};
use symi_tensor::ops::cross_entropy;
use symi_tensor::{pool, AdamConfig, AdamState, Matrix};
use symi_workload::{Batch, CorpusConfig, DriftingCorpus};

use crate::config::{TrainerSpec, SETUP_REPEATS};
use crate::report::{
    another_fits, check_breakdown, check_repeatable, end_to_end, mean, Counters, EpisodeResult,
    Outcome, MIN_REPEATS,
};
use crate::stats::median;
use crate::trace::Tracer;

fn trainer(cfg: ModelConfig) -> Trainer {
    Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }))
}

/// Generates `steps` batches, timing each `next_batch` call.
fn batches(corpus: CorpusConfig, steps: usize) -> (Vec<Batch>, f64) {
    let mut c = DriftingCorpus::new(corpus);
    let t = Instant::now();
    let b = (0..steps).map(|_| c.next_batch()).collect();
    (b, t.elapsed().as_secs_f64() / steps as f64)
}

/// Checks one step's statistics; returns whether the step counts as failed.
fn check_step(out: &mut Outcome, cfg: &ModelConfig, step: usize, st: &StepStats) -> bool {
    let (loss, aux) = (st.ce_loss, st.aux_loss);
    let finite = loss.is_finite() && aux.is_finite();
    out.check(finite, || format!("step {step}: non-finite loss {loss} (aux {aux})"));
    let tokens = cfg.tokens_per_batch();
    for (l, s) in st.layers.iter().enumerate() {
        out.check(s.survived + s.dropped == tokens, || {
            format!(
                "step {step} layer {l}: {} survived + {} dropped != {tokens} tokens",
                s.survived, s.dropped
            )
        });
        let assigned = s.assignments_kept + s.assignments_dropped;
        out.check(assigned == tokens * cfg.top_k, || {
            format!(
                "step {step} layer {l}: {assigned} assignments kept + dropped != {}",
                tokens * cfg.top_k
            )
        });
    }
    !finite
}

fn kept_and_all(layers: &[MoeStats]) -> (u64, u64) {
    layers.iter().fold((0, 0), |(k, a), s| {
        (k + s.assignments_kept as u64, a + (s.assignments_kept + s.assignments_dropped) as u64)
    })
}

/// One closed-loop episode of the untraced trainer.
fn episode(out: &mut Outcome, cfg: ModelConfig, batches: &[Batch]) -> EpisodeResult {
    let mut tr = trainer(cfg);
    let mut ep = EpisodeResult {
        losses: Vec::with_capacity(batches.len()),
        step_s: Vec::with_capacity(batches.len()),
        kept_assignments: 0,
        all_assignments: 0,
    };
    for (i, b) in batches.iter().enumerate() {
        let t = Instant::now();
        let st = tr.step(b);
        ep.step_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if check_step(out, &cfg, i, &st) {
            out.failed += 1;
        }
        let (k, a) = kept_and_all(&st.layers);
        ep.kept_assignments += k;
        ep.all_assignments += a;
        ep.losses.push(st.ce_loss);
    }
    ep
}

/// Sets up `repeats` times (inputs plus a fresh trainer) and returns the
/// inputs, the median set-up time and the mean `next_batch` time.
fn setup(spec: &TrainerSpec, cfg: ModelConfig, steps: usize) -> (Vec<Batch>, f64, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (b, per_batch) = batches(spec.corpus, steps);
        let tr = trainer(cfg);
        times.push(t.elapsed().as_secs_f64());
        drop(tr);
        kept = Some((b, per_batch));
    }
    let (b, per_batch) = kept.expect("SETUP_REPEATS is at least 1");
    // Warm-up outside any timing: the pool's workers start on first use.
    let mut warm = trainer(cfg);
    let _ = warm.step(&b[0]);
    (b, median(&times), per_batch)
}

/// Runs `gpt_train` untraced (`trace == false`) or traced.
pub fn run(spec: &TrainerSpec, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    pool::set_threads(spec.pool_threads);
    let cfg = ModelConfig { seed, ..spec.model };
    let ep = spec.episode;
    let steps = if trace { ep.trace_steps } else { ep.steps };
    let (inputs, setup_s, next_batch_s) = setup(spec, cfg, steps);
    out.metric("setup_s", "s", setup_s);
    let run_start = Instant::now();

    if !trace {
        let mut episodes = Vec::new();
        loop {
            let began = Instant::now();
            episodes.push(episode(out, cfg, &inputs));
            if episodes.len() >= MIN_REPEATS && !another_fits(run_start, began, seconds) {
                break;
            }
        }
        end_to_end(out, &[episodes], cfg.tokens_per_batch(), ep.target_loss);
        return;
    }

    // Traced run: pairs of an untraced reference episode and the traced
    // walk over the same inputs.
    let mut reference = Vec::new();
    let mut counters = Counters::default();
    let mut moved = Vec::new();
    let mut tracer = Tracer::new(run_start);
    loop {
        let began = Instant::now();
        reference.push(episode(out, cfg, &inputs));
        let mut walk = Walk::new(cfg);
        let losses: Vec<f32> =
            counters.measure(steps, || inputs.iter().map(|b| walk.step(b, &mut tracer)).collect());
        let expected = &reference.last().expect("just pushed").losses;
        let exact = losses.iter().map(|l| l.to_bits()).eq(expected.iter().map(|l| l.to_bits()));
        out.check(exact, || {
            "traced walk did not reproduce the trainer's losses bit for bit".into()
        });
        moved.extend(walk.moved.iter().map(|&m| m as f64));
        if !another_fits(run_start, began, seconds) {
            break;
        }
    }
    check_repeatable(out, reference.iter().map(|e| e.losses.as_slice()));

    // Per-layer self times, per step, over every traced step.
    let breakdown = tracer.breakdown();
    let n = breakdown.len() as f64;
    let mut parts_ms = 0.0;
    for (metric, span) in LAYER_METRICS {
        let ns: u64 = breakdown.iter().filter_map(|b| b.children.get(span)).sum();
        parts_ms += ns as f64 / n / 1e6;
        out.metric(metric, "ms", ns as f64 / n / 1e6);
    }
    let unattributed = breakdown.iter().map(|b| b.residual_ns as f64).sum::<f64>() / n / 1e6;
    let traced_ms: Vec<f64> = breakdown.iter().map(|b| b.total_ns as f64 / 1e6).collect();
    let traced_mean = mean(traced_ms.iter().copied());
    check_breakdown(out, parts_ms, unattributed, traced_mean);
    out.metric("step.unattributed_ms", "ms", unattributed);
    out.metric("step.traced_ms", "ms", traced_mean);
    let untraced_ms: Vec<f64> =
        reference.iter().flat_map(|e| e.step_s.iter().map(|s| s * 1e3)).collect();
    let overhead = median(&traced_ms) / median(&untraced_ms) - 1.0;
    out.metric("trace.overhead_fraction", "fraction", overhead);
    counters.report(out);
    out.metric("placement.moved_replicas", "count", mean(moved));
    out.metric("workload.next_batch_ms", "ms", next_batch_s * 1e3);
    out.note(format!("traced {} steps in {} walk(s)", breakdown.len(), reference.len()));
    out.trace = tracer.to_json_lines();
}

/// Span name → per-layer metric, in report order. Every child span of a
/// step has one of these names.
pub const LAYER_METRICS: [(&str, &str); 12] = [
    ("model.embedding_ms", "embedding"),
    ("model.attention_fwd_ms", "attention_fwd"),
    ("model.attention_bwd_ms", "attention_bwd"),
    ("model.moe_fwd_ms", "moe_fwd"),
    ("model.moe_bwd_ms", "moe_bwd"),
    ("model.layernorm_ms", "layernorm"),
    ("model.residual_ms", "residual"),
    ("model.lm_head_ms", "lm_head"),
    ("model.cross_entropy_ms", "cross_entropy"),
    ("optimizer.dense_adam_ms", "dense_adam"),
    ("optimizer.expert_adam_ms", "expert_adam"),
    ("placement.policy_ms", "policy"),
];

/// `Trainer::step` spelled out over `GptMoe`'s public layers (sequential
/// placement install), with each call timed as a child of the step span.
pub struct Walk {
    model: GptMoe,
    policy: SymiPolicy,
    dense_opt: Vec<AdamState>,
    expert_opt: Vec<Vec<AdamState>>,
    replicas: Vec<Vec<usize>>,
    scratch_grads: Vec<f32>,
    scratch_updated: Vec<f32>,
    iteration: u64,
    /// Replicas moved per step, summed over layers.
    pub moved: Vec<usize>,
}

impl Walk {
    pub fn new(cfg: ModelConfig) -> Self {
        let model = GptMoe::new(cfg);
        let adam = AdamConfig { lr: cfg.lr, ..AdamConfig::default() };
        let expert_opt = model
            .blocks
            .iter()
            .map(|b| b.moe.experts.iter().map(|e| AdamState::new(adam, &e.flat_params())).collect())
            .collect();
        let replicas = vec![vec![cfg.total_slots / cfg.experts; cfg.experts]; cfg.layers];
        Self {
            model,
            policy: SymiPolicy { total_slots: cfg.total_slots },
            dense_opt: Vec::new(),
            expert_opt,
            replicas,
            scratch_grads: Vec::new(),
            scratch_updated: Vec::new(),
            iteration: 0,
            moved: Vec::new(),
        }
    }

    /// One traced training step; returns the cross-entropy loss.
    pub fn step(&mut self, batch: &Batch, tr: &mut Tracer) -> f32 {
        let step = tr.begin("step", None);
        let m = &mut self.model;
        m.zero_grad();

        let mut x = tr.time("embedding", None, step, || m.embedding.forward(&batch.tokens));
        let mut layer_stats = Vec::with_capacity(m.blocks.len());
        for (l, (block, reps)) in m.blocks.iter_mut().zip(&self.replicas).enumerate() {
            let a_in = tr.time("layernorm", Some(l), step, || block.ln1.forward(&x));
            let a_out = tr.time("attention_fwd", Some(l), step, || block.attn.forward(&a_in));
            let h = tr.time("residual", Some(l), step, || x.add(&a_out));
            let m_in = tr.time("layernorm", Some(l), step, || block.ln2.forward(&h));
            let (m_out, stats) =
                tr.time("moe_fwd", Some(l), step, || block.moe.forward(&m_in, reps));
            layer_stats.push(stats);
            x = tr.time("residual", Some(l), step, || h.add(&m_out));
        }
        let normed = tr.time("layernorm", None, step, || m.final_ln.forward(&x));
        let logits = tr.time("lm_head", None, step, || m.head.forward(&normed));
        let (ce_loss, dlogits) = tr.time("cross_entropy", None, step, || {
            let targets: Vec<usize> = batch.targets.iter().map(|&t| t as usize).collect();
            cross_entropy(&logits, &targets)
        });

        let dnormed = tr.time("lm_head", None, step, || m.head.backward(&dlogits));
        let mut dx = tr.time("layernorm", None, step, || m.final_ln.backward(&dnormed));
        for (l, block) in m.blocks.iter_mut().enumerate().rev() {
            let dy: Matrix = dx;
            let dm_in = tr.time("moe_bwd", Some(l), step, || block.moe.backward(&dy));
            let mut dh = tr.time("layernorm", Some(l), step, || block.ln2.backward(&dm_in));
            tr.time("residual", Some(l), step, || dh.axpy(1.0, &dy));
            let da_in = tr.time("attention_bwd", Some(l), step, || block.attn.backward(&dh));
            let mut dxl = tr.time("layernorm", Some(l), step, || block.ln1.backward(&da_in));
            tr.time("residual", Some(l), step, || dxl.axpy(1.0, &dh));
            dx = dxl;
        }
        tr.time("embedding", None, step, || m.embedding.backward(&dx));

        let adam = AdamConfig { lr: m.cfg.lr, ..AdamConfig::default() };
        let dense_opt = &mut self.dense_opt;
        tr.time("dense_adam", None, step, || {
            let mut idx = 0usize;
            m.visit_dense_params(&mut |param, grad| {
                if dense_opt.len() == idx {
                    dense_opt.push(AdamState::new(adam, param.as_slice()));
                }
                dense_opt[idx].step(grad.as_slice(), param.as_mut_slice());
                idx += 1;
            });
        });
        let (grads, updated, expert_opt) =
            (&mut self.scratch_grads, &mut self.scratch_updated, &mut self.expert_opt);
        tr.time("expert_adam", None, step, || {
            for (layer, block) in m.blocks.iter_mut().enumerate() {
                for (class, expert) in block.moe.experts.iter_mut().enumerate() {
                    expert.flat_grads_into(grads);
                    updated.resize(grads.len(), 0.0);
                    expert_opt[layer][class].step(grads, updated);
                    expert.load_flat(updated);
                }
            }
        });

        let total_slots = m.cfg.total_slots;
        let mut moved = 0usize;
        for (layer, stats) in layer_stats.iter().enumerate() {
            let (policy, iteration) = (&mut self.policy, self.iteration);
            let next = tr.time("policy", Some(layer), step, || {
                policy.next_replicas(layer, &stats.popularity, iteration)
            });
            assert_eq!(next.iter().sum::<usize>(), total_slots, "policy must fill all slots");
            moved += self.replicas[layer]
                .iter()
                .zip(&next)
                .map(|(&old, &new)| new.saturating_sub(old))
                .sum::<usize>();
            self.replicas[layer] = next;
        }
        self.moved.push(moved);
        self.iteration += 1;
        tr.end(step);
        ce_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk reproduces `Trainer::step` bit for bit over a short run of
    /// the tiny model with a skewed slot budget, so placements move.
    #[test]
    fn traced_walk_matches_the_trainer_bit_for_bit() {
        let cfg = ModelConfig { layers: 2, total_slots: 12, ..ModelConfig::tiny() };
        let corpus = CorpusConfig {
            vocab_size: cfg.vocab_size,
            seq_len: cfg.seq_len,
            batch_size: cfg.batch_size,
            topics: 4,
            ..CorpusConfig::default()
        };
        let (inputs, _) = batches(corpus, 12);
        let mut tr = trainer(cfg);
        let mut walk = Walk::new(cfg);
        let mut tracer = Tracer::new(Instant::now());
        for b in &inputs {
            let expected = tr.step(b).ce_loss;
            assert_eq!(walk.step(b, &mut tracer).to_bits(), expected.to_bits());
        }
        assert_eq!(walk.replicas, tr.replicas());
        assert_eq!(walk.moved, tr.record.moved_replicas);
        assert!(walk.moved.iter().any(|&m| m > 0), "the placement should move at least once");
        for step in tracer.breakdown() {
            let children: u64 = step.children.values().sum();
            assert_eq!(children as i64 + step.residual_ns, step.total_ns as i64);
            for name in step.children.keys() {
                assert!(LAYER_METRICS.iter().any(|(_, span)| span == name), "{name} unreported");
            }
            assert_eq!(step.children.len(), LAYER_METRICS.len(), "every layer runs every step");
        }
    }
}
