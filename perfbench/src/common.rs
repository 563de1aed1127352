//! Pieces every workload uses: options, the outcome of a run, scratch
//! directories inside the working directory, and shard digests.

use crate::report::{Metrics, Tally};
use etalumis_core::Executor;
use etalumis_data::{ShardReader, TraceDataset, TraceRecord};
use etalumis_runtime::mix_seed;
use etalumis_telemetry::{Collector, EventKind, Telemetry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch root for this process (removed when the run ends).
    pub work: PathBuf,
    /// Where traced runs write their span log.
    pub out: PathBuf,
}

impl Opts {
    /// A fresh, empty scratch directory `name` under this run's root.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        if d.exists() {
            std::fs::remove_dir_all(&d).map_err(|e| format!("clear {}: {e}", d.display()))?;
        }
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }

    /// True while the measured window is still open.
    pub fn window_open(&self, started: Instant) -> bool {
        started.elapsed().as_secs_f64() < self.seconds
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Output checks that failed; the run is correct when this is empty.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// FNV-1a over the name and bytes of every shard, in file-name order, plus
/// their total size. Equal digests mean byte-identical shard sets.
pub fn shard_digest(ds: &TraceDataset) -> Result<(u64, u64), String> {
    let mut paths = ds.shards.clone();
    paths.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut bytes = 0u64;
    for p in &paths {
        let name = p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let buf = std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        bytes += buf.len() as u64;
        for b in name.bytes().chain(buf) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok((h, bytes))
}

/// Every record of `ds`, shard by shard.
pub fn read_records(ds: &TraceDataset) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::with_capacity(ds.len());
    for p in &ds.shards {
        let recs = ShardReader::open(p)
            .and_then(|mut r| r.read_all())
            .map_err(|e| format!("read back {}: {e}", p.display()))?;
        out.extend(recs);
    }
    Ok(out)
}

/// Drain `tel`, write its events as JSONL under `opts.out`, and return
/// the collector for aggregation.
pub fn drain_trace(opts: &Opts, tel: &Telemetry) -> Result<Collector, String> {
    let collector = tel.collect();
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let path = opts.out.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
    collector.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(collector)
}

/// Mean number of controlled samples per record.
pub fn mean_controlled(records: &[TraceRecord]) -> f64 {
    records.iter().map(|r| r.num_controlled() as f64).sum::<f64>() / records.len().max(1) as f64
}

/// Mean of the gauge samples named `name` (0 when none).
pub fn gauge_mean(c: &Collector, name: &str) -> f64 {
    let vals: Vec<f64> = c
        .events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| match e.kind {
            EventKind::Gauge { value } => Some(value),
            _ => None,
        })
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

pub fn remove_dir(d: &Path) {
    let _ = std::fs::remove_dir_all(d);
}

/// The pruned prior records of batch indices `0..n` of a run seeded
/// `seed`, exactly as the runtime generates them (trace `i` is seeded
/// `mix_seed(seed, i)`).
pub fn prior_records(seed: u64, n: usize) -> Vec<TraceRecord> {
    let mut model = etalumis_bench::bench_tau_model();
    (0..n)
        .map(|i| {
            TraceRecord::from_trace(&Executor::sample_prior(&mut model, mix_seed(seed, i)), true)
        })
        .collect()
}
