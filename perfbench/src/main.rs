//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_train|mux_generate|ic_query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on the bench-scale τ model, checks its outputs, and
//! prints the machine stamp, human-readable notes, and as the last line of
//! standard output one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). See `perfbench/README.md`.

mod common;
mod ic_query;
mod mux_generate;
mod probes;
mod report;
mod stream_train;

use common::{Opts, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports all of them, untraced.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("traces_per_s", "traces/s"),
    ("op_p50_ms", "ms"),
    ("useful_ratio", "ratio"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("simulators.self_s", "s"),
    ("core.samples_per_trace", "count"),
    ("ppx.frames_per_trace", "count"),
    ("ppx.bytes_per_trace", "bytes"),
    ("ppx.endpoint_s", "s"),
    ("ppx.mux_overhead_share", "ratio"),
    ("runtime.busy_share", "ratio"),
    ("runtime.steals", "count"),
    ("runtime.retries", "count"),
    ("runtime.ckpt.journal_bytes", "bytes"),
    ("data.shard_bytes_per_trace", "bytes"),
    ("data.write_mb_per_s", "MB/s"),
    ("data.channel.blocked_sends", "count"),
    ("data.channel.blocked_recvs", "count"),
    ("data.channel.max_occupancy", "count"),
    ("data.bucketer.fill_ratio", "ratio"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.optimizer_s", "s"),
    ("train.step_p50_ms", "ms"),
    ("train.used_ratio", "ratio"),
    ("train.empty_steps", "count"),
    ("train.sub_minibatches_per_step", "count"),
    ("tensor.train_gflops", "GFLOP/s-model"),
    ("tensor.dispatch_avx2", "count"),
    ("tensor.dispatch_scalar", "count"),
    ("nn.embed_s", "s"),
    ("nn.propose_s", "s"),
    ("nn.notify_s", "s"),
    ("inference.ic.executor_s", "s"),
    ("inference.ic.prior_fallback_ratio", "ratio"),
    ("inference.rmh.calls_per_s", "1/s"),
    ("inference.rmh.acceptance", "ratio"),
    ("inference.rmh.rhat", "ratio"),
    ("quality.valid_loss", "nats"),
    ("quality.posterior_tv", "ratio"),
    ("quality.ess_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("telemetry.overhead_share", "ratio"),
    ("stream_train.unattributed_share", "ratio"),
    ("mux_generate.unattributed_share", "ratio"),
    ("ic_query.unattributed_share", "ratio"),
];

const WORKLOADS: [&str; 3] = ["stream_train", "mux_generate", "ic_query"];

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {WORKLOADS:?})"));
    }
    let root = PathBuf::from(".perfbench_work");
    Ok(Opts {
        work: root.join(format!("{workload}-{}", std::process::id())),
        out: PathBuf::from(".perfbench_out"),
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Check the metric set against the declared lists; fill per-layer
/// metrics a workload does not exercise with 0.
fn complete(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for m in out.metrics.iter() {
        match declared.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if *unit == m.unit => {}
            _ => {
                return Err(format!("metric {} [{}] is not declared for this mode", m.name, m.unit))
            }
        }
    }
    let mut idle = Vec::new();
    for (name, unit) in declared {
        if out.metrics.get(name).is_none() {
            if !opts.trace {
                return Err(format!("end-to-end metric {name} missing"));
            }
            out.metrics.set(name, 0.0, unit)?;
            idle.push(*name);
        }
    }
    if !idle.is_empty() {
        out.note(format!(
            "not exercised by {} (reported as 0): {}",
            opts.workload,
            idle.join(", ")
        ));
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("create {}: {e}", opts.work.display()))?;
    let result = match opts.workload.as_str() {
        "stream_train" => stream_train::run(opts),
        "mux_generate" => mux_generate::run(opts),
        _ => ic_query::run(opts),
    };
    common::remove_dir(&opts.work);
    if let Some(root) = opts.work.parent() {
        // Only succeeds once no other run is using the directory.
        let _ = std::fs::remove_dir(root);
    }
    result
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&opts).and_then(|mut out| complete(&opts, &mut out).map(|()| out)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for name in out.metrics.non_finite() {
        out.problems.push(format!("metric {name} is not finite"));
    }
    println!("machine: {}", report::machine_stamp(&opts.workload, opts.seed, opts.trace));
    for note in &out.notes {
        println!("{}: {note}", opts.workload);
    }
    for m in out.metrics.iter() {
        println!("{}: {} = {} {}", opts.workload, m.name, m.value, m.unit);
    }
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
        println!("{}: check failed: {p}", opts.workload);
    }
    println!("{}", report::result_json(out.problems.is_empty(), out.tally, &out.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).unwrap();
        let section = |key: &str| {
            let start = spec.find(&format!("\"{key}\"")).unwrap();
            let end = spec[start..].find(']').unwrap() + start;
            spec[start..end].to_string()
        };
        for (key, declared) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), declared.len(), "{key}");
            for (name, unit) in declared {
                let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "{key}: {name} [{unit}] not declared");
            }
        }
        for w in WORKLOADS {
            assert!(section("workloads").contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
