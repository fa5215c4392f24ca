//! The pinned workload definitions in `perfbench/workloads.json`.
//!
//! Every value a workload runs with is written out there, so that a change
//! to a preset in the program crates (`ModelConfig::small_sim`, a corpus
//! default) cannot silently change what the benchmark measures. Unknown or
//! missing keys are refused.

use symi_model::ModelConfig;
use symi_telemetry::json::{Obj, Value};
use symi_workload::CorpusConfig;

use crate::stats::{fnv1a, samples_beyond, MIN_BEYOND};

/// Which rank-runtime engine an engine workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    Symi,
    DeepSpeed,
}

/// Closed-loop shape shared by every workload: fresh training episodes of
/// a fixed length, each run from scratch until the loss target.
#[derive(Clone, Copy, Debug)]
pub struct Episode {
    pub steps: usize,
    /// Steps per episode of the traced run.
    pub trace_steps: usize,
    /// Fixed target for the trailing [`LOSS_WINDOW`]-step mean loss.
    pub target_loss: f32,
}

/// Steps in the trailing mean that is compared with the loss target, and
/// over which `loss_final` is taken.
pub const LOSS_WINDOW: usize = 10;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// `gpt_train`: the single-process GPT-MoE trainer.
#[derive(Clone, Copy, Debug)]
pub struct TrainerSpec {
    pub pool_threads: usize,
    /// The model; its `seed` field is replaced by the run's `--seed`.
    pub model: ModelConfig,
    pub corpus: CorpusConfig,
    pub episode: Episode,
}

/// An engine workload: one MoE layer on rank threads.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpec {
    pub system: System,
    pub overlap: bool,
    pub ranks: usize,
    pub pool_threads: usize,
    pub d_model: usize,
    pub d_ff: usize,
    pub expert_classes: usize,
    pub slots_per_rank: usize,
    pub capacity_factor: f32,
    pub lr: f32,
    /// Seed of the token → input-row and token → target-row tables.
    pub table_seed: u64,
    /// Standard deviation of the target rows.
    pub target_scale: f32,
    pub corpus: CorpusConfig,
    pub episode: Episode,
}

impl EngineSpec {
    pub fn tokens_per_step(&self) -> usize {
        self.corpus.seq_len * self.corpus.batch_size
    }

    /// Tokens one expert slot absorbs per step: `cf · T / sN`.
    pub fn slot_capacity(&self) -> usize {
        let total_slots = self.ranks * self.slots_per_rank;
        (self.capacity_factor * self.tokens_per_step() as f32 / total_slots as f32) as usize
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Spec {
    Trainer(TrainerSpec),
    Engine(EngineSpec),
}

/// One named workload with the fingerprint of its definition.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    /// FNV-1a of the workload's JSON entry as re-serialized.
    pub config_hash: String,
    pub spec: Spec,
}

/// Reads one object's fields, refusing any key it was not asked for.
struct Fields<'a> {
    ctx: String,
    obj: &'a Obj,
    used: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    fn new(ctx: &str, v: &'a Value) -> Result<Self, String> {
        let obj = v.as_obj().ok_or_else(|| format!("{ctx}: expected an object"))?;
        Ok(Self { ctx: ctx.to_string(), obj, used: Vec::new() })
    }

    fn get(&mut self, key: &'static str) -> Result<&'a Value, String> {
        self.used.push(key);
        self.obj.get(key).ok_or_else(|| format!("{}: missing key {key:?}", self.ctx))
    }

    fn f64(&mut self, key: &'static str) -> Result<f64, String> {
        let ctx = self.ctx.clone();
        let v = self.get(key)?.as_f64().filter(|x| x.is_finite());
        v.ok_or_else(|| format!("{ctx}: {key:?} must be a finite number"))
    }

    fn usize(&mut self, key: &'static str) -> Result<usize, String> {
        let x = self.f64(key)?;
        if x < 0.0 || x.fract() != 0.0 || x > 1e12 {
            return Err(format!("{}: {key:?} must be a whole number", self.ctx));
        }
        Ok(x as usize)
    }

    fn positive(&mut self, key: &'static str) -> Result<usize, String> {
        match self.usize(key)? {
            0 => Err(format!("{}: {key:?} must be at least 1", self.ctx)),
            n => Ok(n),
        }
    }

    fn bool(&mut self, key: &'static str) -> Result<bool, String> {
        let ctx = self.ctx.clone();
        self.get(key)?.as_bool().ok_or_else(|| format!("{ctx}: {key:?} must be true or false"))
    }

    fn str(&mut self, key: &'static str) -> Result<&'a str, String> {
        let ctx = self.ctx.clone();
        self.get(key)?.as_str().ok_or_else(|| format!("{ctx}: {key:?} must be a string"))
    }

    /// Fails on keys present in the object but never read.
    fn finish(self) -> Result<(), String> {
        match self.obj.keys().find(|k| !self.used.contains(&k.as_str())) {
            Some(k) => Err(format!("{}: unknown key {k:?}", self.ctx)),
            None => Ok(()),
        }
    }
}

fn episode(f: &mut Fields) -> Result<Episode, String> {
    let ep = Episode {
        steps: f.positive("episode_steps")?,
        trace_steps: f.positive("trace_steps")?,
        target_loss: f.f64("target_loss")? as f32,
    };
    if LOSS_WINDOW > ep.steps.min(ep.trace_steps) {
        return Err(format!("{}: an episode is shorter than the loss window", f.ctx));
    }
    if samples_beyond(ep.steps, 0.95) < MIN_BEYOND {
        return Err(format!("{}: episode_steps leaves under {MIN_BEYOND} steps beyond p95", f.ctx));
    }
    Ok(ep)
}

/// Corpus fields; the trainer takes vocabulary and batch shape from its
/// model, an engine workload states them in the corpus entry.
fn corpus(
    ctx: &str,
    v: &Value,
    shape: Option<(usize, usize, usize)>,
) -> Result<CorpusConfig, String> {
    let mut f = Fields::new(ctx, v)?;
    let (vocab_size, seq_len, batch_size) = match shape {
        Some(s) => s,
        None => (f.positive("vocab_size")?, f.positive("seq_len")?, f.positive("batch_size")?),
    };
    let c = CorpusConfig {
        vocab_size,
        seq_len,
        batch_size,
        topics: f.positive("topics")?,
        coherence: f.f64("coherence")?,
        topic_zipf: f.f64("topic_zipf")?,
        drift_sigma: f.f64("drift_sigma")?,
        jolt_prob: f.f64("jolt_prob")?,
        seed: f.usize("seed")? as u64,
    };
    f.finish()?;
    Ok(c)
}

fn trainer(ctx: &str, v: &Value) -> Result<TrainerSpec, String> {
    let mut f = Fields::new(ctx, v)?;
    f.str("kind")?;
    let pool_threads = f.positive("pool_threads")?;
    let mut m = Fields::new(&format!("{ctx}.model"), f.get("model")?)?;
    let model = ModelConfig {
        vocab_size: m.positive("vocab_size")?,
        d_model: m.positive("d_model")?,
        n_heads: m.positive("n_heads")?,
        d_ff: m.positive("d_ff")?,
        layers: m.positive("layers")?,
        experts: m.positive("experts")?,
        top_k: m.positive("top_k")?,
        seq_len: m.positive("seq_len")?,
        batch_size: m.positive("batch_size")?,
        capacity_factor: m.f64("capacity_factor")? as f32,
        total_slots: m.positive("total_slots")?,
        aux_loss_coef: m.f64("aux_loss_coef")? as f32,
        lr: m.f64("lr")? as f32,
        seed: 0,
        f16_experts: m.bool("f16_experts")?,
    };
    m.finish()?;
    if !model.total_slots.is_multiple_of(model.experts)
        || !model.d_model.is_multiple_of(model.n_heads)
    {
        return Err(format!("{ctx}.model: slots must divide by experts, d_model by heads"));
    }
    if f.str("policy")? != "symi" {
        return Err(format!("{ctx}: the only trainer policy measured is \"symi\""));
    }
    let shape = (model.vocab_size, model.seq_len, model.batch_size);
    let corpus = corpus(&format!("{ctx}.corpus"), f.get("corpus")?, Some(shape))?;
    let episode = episode(&mut f)?;
    f.finish()?;
    Ok(TrainerSpec { pool_threads, model, corpus, episode })
}

fn engine(ctx: &str, v: &Value) -> Result<EngineSpec, String> {
    let mut f = Fields::new(ctx, v)?;
    f.str("kind")?;
    let system = match f.str("system")? {
        "symi" => System::Symi,
        "deepspeed" => System::DeepSpeed,
        other => return Err(format!("{ctx}: unknown system {other:?}")),
    };
    let spec = EngineSpec {
        system,
        overlap: f.bool("overlap")?,
        ranks: f.positive("ranks")?,
        pool_threads: f.positive("pool_threads")?,
        d_model: f.positive("d_model")?,
        d_ff: f.positive("d_ff")?,
        expert_classes: f.positive("expert_classes")?,
        slots_per_rank: f.positive("slots_per_rank")?,
        capacity_factor: f.f64("capacity_factor")? as f32,
        lr: f.f64("lr")? as f32,
        table_seed: f.usize("table_seed")? as u64,
        target_scale: f.f64("target_scale")? as f32,
        corpus: corpus(&format!("{ctx}.corpus"), f.get("corpus")?, None)?,
        episode: episode(&mut f)?,
    };
    f.finish()?;
    if system == System::DeepSpeed && spec.overlap {
        return Err(format!("{ctx}: the DeepSpeed engine has no overlap mode"));
    }
    if !spec.tokens_per_step().is_multiple_of(spec.ranks) {
        return Err(format!("{ctx}: tokens per step must split evenly over the ranks"));
    }
    Ok(spec)
}

/// Parses the workloads file and returns the named workload.
pub fn load(text: &str, name: &str) -> Result<Workload, String> {
    let root = Value::parse(text).map_err(|e| format!("workloads.json: {e}"))?;
    let all = root.as_obj().ok_or("workloads.json: expected an object of workloads")?;
    let entry = all.get(name).ok_or_else(|| {
        let known: Vec<&str> = all.keys().map(String::as_str).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let kind = entry.as_obj().and_then(|o| o.get("kind")).and_then(Value::as_str);
    let spec = match kind {
        Some("trainer") => Spec::Trainer(trainer(name, entry)?),
        Some("engine") => Spec::Engine(engine(name, entry)?),
        other => return Err(format!("{name}: unknown kind {other:?}")),
    };
    let config_hash = format!("{:016x}", fnv1a(entry.to_string().as_bytes()));
    Ok(Workload { name: name.to_string(), config_hash, spec })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = include_str!("../workloads.json");

    #[test]
    fn every_pinned_workload_parses() {
        let root = Value::parse(FILE).expect("workloads.json parses");
        for name in root.as_obj().expect("object").keys() {
            let w = load(FILE, name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(w.config_hash.len(), 16);
        }
    }

    #[test]
    fn unknown_keys_and_workloads_are_refused() {
        assert!(load(FILE, "no_such_workload").is_err());
        let typo = FILE.replacen("\"episode_steps\"", "\"episode_step\"", 1);
        assert!(load(&typo, "gpt_train").unwrap_err().contains("episode_step"));
        let short = FILE.replacen("\"episode_steps\": 200", "\"episode_steps\": 180", 1);
        assert!(load(&short, "gpt_train").unwrap_err().contains("beyond p95"));
    }

    #[test]
    fn config_hash_changes_with_any_value() {
        let a = load(FILE, "gpt_train").expect("gpt_train");
        let b =
            load(&FILE.replacen("\"target_loss\": 2.0", "\"target_loss\": 2.1", 1), "gpt_train")
                .expect("edited gpt_train");
        assert_ne!(a.config_hash, b.config_hash);
    }
}
