//! The repository's benchmark: closed-loop GPT-MoE training and rank-runtime
//! MoE steps, trained from scratch to a fixed loss target.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gpt_train --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer and phase. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. A failed
//! correctness check prints `correct: false` and exits with code 1.

mod config;
mod engine;
mod gpt;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use symi_telemetry::json::{Obj, Value};
use symi_telemetry::Phase;
use symi_tensor::{kernels, pool};

use config::Spec;
use report::Outcome;

/// Every end-to-end metric, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("tokens_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("time_to_target_s", "s"),
    ("iters_to_target", "count"),
    ("loss_final", "loss"),
    ("token_survival", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Engine phases with a time metric (no engine opens a `Phase::Other` span).
const TIMED_PHASES: [Phase; 9] = [
    Phase::Routing,
    Phase::PopularityAllReduce,
    Phase::Dispatch,
    Phase::ExpertFfn,
    Phase::Combine,
    Phase::GradComm,
    Phase::OptimizerStep,
    Phase::WeightComm,
    Phase::Rebalance,
];

/// Phases that carry wire bytes in some engine workload.
const BYTE_PHASES: [Phase; 7] = [
    Phase::PopularityAllReduce,
    Phase::Dispatch,
    Phase::Combine,
    Phase::GradComm,
    Phase::OptimizerStep,
    Phase::WeightComm,
    Phase::Other,
];

/// Every per-layer metric with its unit, reported by every workload with
/// `--trace 1`; a layer the workload does not run reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> =
        gpt::LAYER_METRICS.iter().map(|(n, _)| (n.to_string(), "ms")).collect();
    let named = |m: &mut Vec<(String, &'static str)>, list: &[(&str, &'static str)]| {
        m.extend(list.iter().map(|&(n, u)| (n.to_string(), u)));
    };
    named(
        &mut m,
        &[
            ("step.unattributed_ms", "ms"),
            ("step.traced_ms", "ms"),
            ("trace.overhead_fraction", "fraction"),
            ("kernel.gemm_ms", "ms"),
            ("kernel.gemm_gflops", "GFLOP/s"),
            ("kernel.seq_fallback", "count"),
            ("pool.busy_ms", "ms"),
            ("pool.jobs", "count"),
            ("placement.moved_replicas", "count"),
            ("workload.next_batch_ms", "ms"),
        ],
    );
    for p in TIMED_PHASES {
        m.push((format!("engine.{}_ms_max", p.name()), "ms"));
        m.push((format!("engine.{}_ms_min", p.name()), "ms"));
    }
    named(
        &mut m,
        &[
            ("engine.expert_ffn_imbalance", "ratio"),
            ("engine.placement_churn_slots", "count"),
            ("engine.placement_change_share", "fraction"),
        ],
    );
    m.extend(BYTE_PHASES.iter().map(|p| (format!("comm.{}_bytes", p.name()), "B")));
    named(
        &mut m,
        &[
            ("comm.wire_bytes_per_step", "B"),
            ("comm.msgs_per_step", "count"),
            ("comm.send_imbalance", "ratio"),
            ("overlap.hidden_bytes", "B"),
            ("overlap.exposed_bytes", "B"),
            ("overlap.exposed_ms", "ms"),
        ],
    );
    m
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> (bool, bool) {
    (symi_tensor::simd::have_avx2_fma(), symi_tensor::simd::have_f16c())
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> (bool, bool) {
    (false, false)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| bad("expected a whole number"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(|| bad("expected a positive number"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Root of the checkout the benchmark was built from.
fn checkout_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Git revision and dirty flag, when the checkout is a git repository.
fn git_revision() -> (String, Value) {
    let root = checkout_root();
    if !root.join(".git").exists() {
        return ("unknown (not a git checkout)".to_string(), Value::Null);
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
    };
    let rev =
        git(&["rev-parse", "HEAD"]).map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let dirty = git(&["status", "--porcelain"]).map(|o| !o.stdout.is_empty());
    (rev.unwrap_or_else(|| "unknown".to_string()), dirty.map_or(Value::Null, Value::Bool))
}

fn provenance(args: &Args, w: &config::Workload) -> Value {
    let (rev, dirty) = git_revision();
    let (pool_threads, overlap) = match &w.spec {
        Spec::Trainer(t) => (t.pool_threads, false),
        Spec::Engine(e) => (e.pool_threads, e.overlap),
    };
    let mut o = Obj::new();
    o.set("workload", Value::str(&w.name));
    o.set("config_hash", Value::str(&w.config_hash));
    o.set("git_rev", Value::str(rev));
    o.set("git_dirty", dirty);
    o.set("nproc", Value::u64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64));
    let (avx2_fma, f16c) = simd_features();
    o.set("avx2_fma", Value::Bool(avx2_fma));
    o.set("f16c", Value::Bool(f16c));
    o.set("simd_path", Value::str(format!("{:?}", kernels::active_path())));
    o.set("pool_threads", Value::u64(pool_threads as u64));
    o.set("pool_threads_active", Value::u64(pool::current_threads() as u64));
    o.set("overlap", Value::Bool(overlap));
    o.set("seed", Value::u64(args.seed));
    o.set("trace", Value::Bool(args.trace));
    o.set("seconds", Value::Num(args.seconds));
    Value::Obj(o)
}

/// Writes the run's spans to `perfbench/out/` as JSON lines; returns the
/// file's name.
fn write_trace(args: &Args, prov: &Value, lines: &[String]) -> Result<String, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let name = format!("{}-seed{}.trace.jsonl", args.workload, args.seed);
    let path = dir.join(&name);
    let mut text = prov.to_string();
    text.push('\n');
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(name)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `Trainer::new` and the engine read SYMI_OVERLAP; a set value would
    // silently switch gpt_train into pipeline mode.
    if std::env::var_os("SYMI_OVERLAP").is_some() {
        eprintln!(
            "perfbench: refusing to run with SYMI_OVERLAP set; overlap is pinned per workload"
        );
        return ExitCode::from(2);
    }
    let workload = match config::load(include_str!("../workloads.json"), &args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut out = Outcome::default();
    match &workload.spec {
        Spec::Trainer(t) => gpt::run(t, args.seed, args.seconds, args.trace, &mut out),
        Spec::Engine(e) => engine::run(e, args.seed, args.seconds, args.trace, &mut out),
    }
    let prov = provenance(&args, &workload);
    if let Some(mb) = peak_rss_mb() {
        out.metric("peak_rss_mb", "MiB", mb);
    }

    // Exactly the metric set of the mode, each once and finite.
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut metrics = Obj::new();
    for &(ref name, unit) in &names {
        let found = out.metrics.iter().find(|m| &m.name == name).cloned();
        let value = match found {
            Some(m) => {
                let measured = m.unit;
                out.check(measured == unit, || format!("metric {name} in {measured}, not {unit}"));
                m.value
            }
            // A layer this workload does not run spends no time in it.
            None if args.trace => 0.0,
            None => {
                out.check(false, || format!("metric {name} was not measured"));
                continue;
            }
        };
        out.check(value.is_finite(), || format!("metric {name} is not finite: {value}"));
        let mut o = Obj::new();
        o.set("value", Value::Num(value));
        o.set("unit", Value::str(unit));
        metrics.set(name, Value::Obj(o));
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    if args.trace {
        match write_trace(&args, &prov, &out.trace) {
            Ok(name) => println!("note: spans written to perfbench/out/{name}"),
            Err(e) => out.check(false, || e),
        }
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("provenance: {prov}");
    let correct = out.failures.is_empty();
    let mut result = Obj::new();
    result.set("correct", Value::Bool(correct));
    result.set("attempted", Value::u64(out.attempted.max(1)));
    result.set("failed", Value::u64(out.failed));
    result.set("metrics", Value::Obj(metrics));
    println!("{}", Value::Obj(result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the checkout root lists exactly the metrics this
    /// program reports, in the same order and units.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let root = Value::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            root.get(key)
                .as_arr()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (m.get("name").as_str().unwrap().into(), m.get("unit").as_str().unwrap().into())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.into(), u.into())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.into())).collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads =
            Value::parse(include_str!("../workloads.json")).expect("workloads.json parses");
        let pinned: Vec<&String> = workloads.as_obj().expect("object").keys().collect();
        let named: Vec<String> = root
            .get("workloads")
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").as_str().unwrap().into())
            .collect();
        assert_eq!(pinned, named.iter().collect::<Vec<_>>());
    }
}
