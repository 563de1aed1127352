//! `mux_generate`: a prior τ dataset generated through PPX. A
//! `MuxSimulatorPool` of two in-process simulator sessions, driven by one
//! reactor worker, feeds `generate_dataset_mux_resumable` into checkpointed
//! shards with two partitions. No NN work.

use crate::common::{
    drain_trace, mean_controlled, prior_records, read_records, remove_dir, shard_digest, Opts,
    Outcome,
};
use crate::probes::{Probe, ProbeEndpoint, ProbeTotals, TimedProgram};
use crate::report::{median, peak_rss_mb, percentile};
use etalumis_bench::bench_tau_model;
use etalumis_data::{partition_of, TraceDataset, TraceRecord};
use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
use etalumis_runtime::{
    generate_dataset_mux_resumable, generate_dataset_resumable, mix_seed, CheckpointConfig,
    DatasetGenConfig, MuxSimulatorPool,
};
use etalumis_telemetry::Telemetry;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TRACES: usize = 2048;
const PER_SHARD: usize = 512;
const PARTITIONS: usize = 2;
const SESSIONS: usize = 2;
const SETUPS: usize = 5;
const WARMUP_TRACES: usize = 256;
/// Round trips needed for a p90 with ten samples beyond it.
const MIN_ROUND_TRIPS: usize = 100;

fn gen_cfg(seed: u64, n: usize, workers: usize) -> DatasetGenConfig {
    DatasetGenConfig {
        n,
        traces_per_shard: PER_SHARD,
        partitions: PARTITIONS,
        workers,
        seed,
        pruned: true,
        ordered: false,
    }
}

/// A connected pool and the simulator threads behind its sessions.
struct Fleet {
    pool: MuxSimulatorPool,
    probe: Arc<Probe>,
    sim_probe: Option<Arc<Probe>>,
    servers: Arc<Mutex<Vec<JoinHandle<io::Result<()>>>>>,
}

impl Fleet {
    /// Connect `SESSIONS` in-process PPX sessions. `sim_probe` wraps each
    /// simulator in a [`TimedProgram`]; every endpoint is a
    /// [`ProbeEndpoint`] on `probe`.
    fn connect(probe: Arc<Probe>, sim_probe: Option<Arc<Probe>>) -> Result<Self, String> {
        let servers: Arc<Mutex<Vec<JoinHandle<io::Result<()>>>>> = Arc::default();
        let spawned = servers.clone();
        let (ep_probe, server_probe) = (probe.clone(), sim_probe.clone());
        let pool = MuxSimulatorPool::connect(SESSIONS, "perfbench", move |_| {
            let (ep, mut sim_side) = InProcMuxEndpoint::pair();
            let sim_probe = server_probe.clone();
            let h = std::thread::spawn(move || match sim_probe {
                Some(p) => {
                    SimulatorServer::new("perfbench", TimedProgram::new(bench_tau_model(), p))
                        .serve(&mut sim_side)
                }
                None => SimulatorServer::new("perfbench", bench_tau_model()).serve(&mut sim_side),
            });
            spawned.lock().map_err(|_| io::Error::other("server list poisoned"))?.push(h);
            Ok(Box::new(ProbeEndpoint::new(Box::new(ep), ep_probe.clone())) as Box<dyn MuxEndpoint>)
        })
        .map_err(|e| format!("connect mux pool: {e}"))?;
        Ok(Self { pool, probe, sim_probe, servers })
    }

    /// The same fleet on fresh simulator threads. Thread placement can leave
    /// a pool's PPX hand-offs twice as slow for as long as its threads live,
    /// so every timed dataset starts on new threads.
    fn reconnect(self) -> Result<Self, String> {
        let (probe, sim_probe) = (self.probe.clone(), self.sim_probe.clone());
        self.shutdown()?;
        Self::connect(probe, sim_probe)
    }

    /// Close every session and wait for the simulator threads to end.
    fn shutdown(self) -> Result<(), String> {
        drop(self.pool);
        let handles =
            std::mem::take(&mut *self.servers.lock().map_err(|_| "server list poisoned")?);
        for h in handles {
            h.join()
                .map_err(|_| "simulator thread panicked".to_string())?
                .map_err(|e| format!("simulator server: {e}"))?;
        }
        Ok(())
    }

    fn generate(
        &mut self,
        cfg: &DatasetGenConfig,
        dir: &Path,
    ) -> Result<(TraceDataset, f64), String> {
        remove_dir(dir);
        let t = Instant::now();
        let ds = generate_dataset_mux_resumable(
            &mut self.pool,
            cfg,
            dir,
            &CheckpointConfig::default(),
            None,
        )
        .map_err(|e| format!("generate_dataset_mux_resumable: {e}"))?;
        Ok((ds, t.elapsed().as_secs_f64()))
    }
}

/// Set-up: connect the pool and generate a small warm-up dataset through it.
fn setup(opts: &Opts, sim_probe: Option<Arc<Probe>>) -> Result<Fleet, String> {
    let mut fleet = Fleet::connect(Probe::new(sim_probe.is_some()), sim_probe)?;
    let dir = opts.work.join("warmup");
    fleet.generate(&gen_cfg(mix_seed(opts.seed, 3), WARMUP_TRACES, 1), &dir)?;
    remove_dir(&dir);
    fleet.probe.take_round_trips();
    Ok(fleet)
}

/// Records per partition, in the order the shards must hold them.
fn by_partition(records: impl IntoIterator<Item = TraceRecord>) -> Vec<Vec<TraceRecord>> {
    let mut parts = vec![Vec::new(); PARTITIONS];
    for r in records {
        parts[partition_of(r.trace_type, PARTITIONS)].push(r);
    }
    parts
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = mix_seed(opts.seed, 0);
    let cfg = gen_cfg(seed, TRACES, 1);
    let dir = opts.work.join("mux");
    // Batch-index-ordered prior records of the timed dataset, by partition.
    let expected = by_partition(prior_records(seed, TRACES));
    if opts.trace {
        return traced(opts, out, &cfg, &dir, &expected);
    }
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUPS {
        if let Some(f) = fleet.take() {
            Fleet::shutdown(f)?;
        }
        let t = Instant::now();
        fleet = Some(setup(opts, None)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.ok_or("no set-up")?;

    let started = Instant::now();
    let (mut walls, mut round_trips, mut dataset_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    while walls.is_empty() || opts.window_open(started) || round_trips.len() < MIN_ROUND_TRIPS {
        fleet = fleet.reconnect()?;
        let before = fleet.probe.snapshot();
        let (ds, wall) = fleet.generate(&cfg, &dir)?;
        let sent = (fleet.probe.snapshot() - before).runs_sent as u64;
        let rts = fleet.probe.take_round_trips();
        dataset_p50s.push(median(&rts));
        round_trips.extend(rts);
        let (digest, _) = shard_digest(&ds)?;
        match reference {
            None => {
                let got = by_partition(read_records(&ds)?);
                out.check(ds.len() == TRACES, || {
                    format!("dataset holds {} records, expected {TRACES}", ds.len())
                });
                out.check(got == expected, || {
                    "mux shards do not hold the batch-index-ordered prior records of each partition"
                        .into()
                });
                reference = Some(digest);
            }
            Some(d) => {
                out.check(digest == d, || "shard bytes differ between runs of the same seed".into())
            }
        }
        out.tally.add(sent, sent.saturating_sub(TRACES as u64));
        walls.push(wall);
    }
    remove_dir(&dir);
    let useful = (TRACES * walls.len()) as f64 / out.tally.attempted.max(1) as f64;
    fleet.shutdown()?;
    let wall: f64 = walls.iter().sum();
    let p50 = percentile(&round_trips, 50.0).ok_or("no round trips")?;
    let p90 = percentile(&round_trips, 90.0).ok_or("no round trips")?;
    // The median dataset: steadier than the total under CPU contention.
    let rate = TRACES as f64 / median(&walls);

    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_s), "s")?;
    m.set("traces_per_s", rate, "traces/s")?;
    // The median dataset's median round trip, like `traces_per_s`.
    m.set("op_p50_ms", median(&dataset_p50s), "ms")?;
    m.set("useful_ratio", useful, "ratio")?;
    m.set("success_ratio", out.tally.success_ratio(), "ratio")?;
    m.set("peak_rss_mb", peak_rss_mb()?, "MB")?;
    out.note(format!(
        "gen_traces_per_s = {rate:.1} traces/s (median over {} datasets of {TRACES} traces; {:.1} over all {wall:.2} s)",
        walls.len(),
        (TRACES * walls.len()) as f64 / wall
    ));
    out.note(format!(
        "PPX Run -> RunResult round trip p50 = {:.3} ms, p90 = {:.3} ms (n = {}, {} beyond p90)",
        p50.value, p90.value, p50.samples, p90.beyond
    ));
    out.note(format!(
        "per-dataset round-trip p50 (ms): {dataset_p50s:.3?}; walls (s): {walls:.3?}"
    ));
    out.note(format!(
        "fail_ratio = {:.6} ({} of {} Run requests yielded no committed trace)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    ));
    Ok(out)
}

/// Traced run: plain and traced mux datasets alternate with the local
/// reference; all three must be byte-identical.
fn traced(
    opts: &Opts,
    mut out: Outcome,
    cfg: &DatasetGenConfig,
    dir: &Path,
    expected: &[Vec<TraceRecord>],
) -> Result<Outcome, String> {
    let mut plain = setup(opts, None)?;
    let sim_probe = Probe::new(true);
    let mut wrapped = setup(opts, Some(sim_probe.clone()))?;
    let local_cfg = gen_cfg(cfg.seed, TRACES, SESSIONS);
    let local_dir = opts.work.join("local");
    let started = Instant::now();
    let (mut plain_walls, mut traced_walls, mut local_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = (ProbeTotals::default(), ProbeTotals::default(), 0.0, 0u64);
    let tel = Telemetry::enabled();
    while traced_walls.is_empty() || opts.window_open(started) {
        plain = plain.reconnect()?;
        wrapped = wrapped.reconnect()?;
        let (ds, wall) = plain.generate(cfg, dir)?;
        let (plain_digest, _) = shard_digest(&ds)?;
        if plain_walls.is_empty() {
            let got = by_partition(read_records(&ds)?);
            out.check(got == expected, || {
                "mux shards do not hold the batch-index-ordered prior records of each partition"
                    .into()
            });
        }
        plain_walls.push(wall);
        tel.span_record("mux_generate.dataset", Duration::from_secs_f64(wall));

        remove_dir(&local_dir);
        let t = Instant::now();
        let local = generate_dataset_resumable(
            |_| bench_tau_model(),
            &local_cfg,
            &local_dir,
            &CheckpointConfig::default(),
            None,
        )
        .map_err(|e| format!("generate_dataset_resumable: {e}"))?;
        local_walls.push(t.elapsed().as_secs_f64());
        tel.span_record("mux_generate.local_reference", t.elapsed());
        let (local_digest, _) = shard_digest(&local)?;
        out.check(local_digest == plain_digest, || {
            "mux shards are not byte-identical to generate_dataset_resumable on local workers"
                .into()
        });

        let (ep0, sim0) = (wrapped.probe.snapshot(), sim_probe.snapshot());
        let (ds, wall) = wrapped.generate(cfg, dir)?;
        let (ep1, sim1) = (wrapped.probe.snapshot(), sim_probe.snapshot());
        let (digest, bytes) = shard_digest(&ds)?;
        out.check(digest == plain_digest, || {
            "traced mux shards differ from the untraced run".into()
        });
        let sent = (ep1 - ep0).runs_sent as u64;
        out.tally.add(sent, sent.saturating_sub(TRACES as u64));
        traced_walls.push(wall);
        tel.span_record("mux_generate.dataset_traced", Duration::from_secs_f64(wall));
        last = (ep1 - ep0, sim1 - sim0, wall, bytes);
    }
    remove_dir(dir);
    remove_dir(&local_dir);
    drain_trace(opts, &tel)?;
    plain.shutdown()?;
    wrapped.shutdown()?;
    let (ep, sim, wall, bytes) = last;
    let n = TRACES as f64;
    let mux_wall = median(&plain_walls);

    let m = &mut out.metrics;
    m.set("simulators.self_s", sim.sim_self_s, "s")?;
    m.set("core.samples_per_trace", mean_controlled(&expected.concat()), "count")?;
    m.set("ppx.frames_per_trace", ep.frames / n, "count")?;
    m.set("ppx.bytes_per_trace", ep.bytes / n, "bytes")?;
    m.set("ppx.endpoint_s", ep.endpoint_s, "s")?;
    m.set("ppx.mux_overhead_share", 1.0 - median(&local_walls) / mux_wall, "ratio")?;
    m.set("data.shard_bytes_per_trace", bytes as f64 / n, "bytes")?;
    m.set("data.write_mb_per_s", bytes as f64 * 1e-6 / wall, "MB/s")?;
    m.set("fail_ratio", out.tally.fail_ratio(), "ratio")?;
    m.set("telemetry.overhead_share", median(&traced_walls) / mux_wall - 1.0, "ratio")?;
    m.set("mux_generate.unattributed_share", 1.0 - ep.endpoint_s / wall, "ratio")?;
    out.note(format!(
        "accounting over the reactor thread ({wall:.3} s wall): ppx endpoint calls {:.3} s, unattributed {:.3} s \
         (mux state machine, PPX codec, shard sink, idle polling). The simulator threads run concurrently: \
         simulators {:.3} s self across {SESSIONS} sessions.",
        ep.endpoint_s,
        wall - ep.endpoint_s,
        sim.sim_self_s,
    ));
    out.note(format!(
        "walls (s): mux {plain_walls:.3?}, traced mux {traced_walls:.3?}, local reference \
         (generate_dataset_resumable on {SESSIONS} workers) {local_walls:.3?}"
    ));
    out.note("runtime.* counters are not reachable through generate_dataset_mux_resumable (no telemetry handle, no RunStats); they read 0 here".into());
    Ok(out)
}
