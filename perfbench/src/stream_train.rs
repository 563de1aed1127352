//! `stream_train`: the paper's training half run live. One local pool
//! worker generates prior τ traces; they are teed to single-partition
//! checkpointed shards and streamed through a bounded `TraceChannel` into
//! `train_stream` (batch 32; warm-up pre-generates and freezes the net).

use crate::common::{
    drain_trace, gauge_mean, mean_controlled, prior_records, read_records, remove_dir,
    shard_digest, Opts, Outcome,
};
use crate::probes::{Probe, StepClock, TimedProgram};
use crate::report::{median, peak_rss_mb, percentile};
use etalumis_bench::{bench_ic_config, bench_tau_model};
use etalumis_data::{
    BucketerConfig, ChannelStats, TraceBucketer, TraceChannel, TraceDataset, TraceRecord,
};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_runtime::{
    mix_seed, stream_dataset_resumable, stream_dataset_resumable_traced, CheckpointConfig,
    DatasetGenConfig,
};
use etalumis_telemetry::Telemetry;
use etalumis_train::{sub_minibatches, train_stream, IcNetwork, StreamTrainConfig, Trainer};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Traces per streamed run.
const TRACES: usize = 2048;
const PER_SHARD: usize = 512;
const CAPACITY: usize = 64;
/// Held-out prior traces for `valid_loss`.
const VALID: usize = 256;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 5;
/// Step periods needed for a p90 with ten samples beyond it.
const MIN_PERIODS: usize = 100;

fn gen_cfg(seed: u64) -> DatasetGenConfig {
    DatasetGenConfig {
        n: TRACES,
        traces_per_shard: PER_SHARD,
        partitions: 1,
        workers: 1,
        seed,
        pruned: true,
        ordered: false,
    }
}

fn train_cfg() -> StreamTrainConfig {
    StreamTrainConfig {
        batch: 32,
        spill_after: 128,
        warmup: 256,
        freeze_after_warmup: true,
        max_steps: None,
    }
}

type Clocked = Trainer<StepClock<Adam>>;

fn new_trainer(seed: u64) -> Clocked {
    Trainer::new(
        IcNetwork::new(bench_ic_config(mix_seed(seed, 1))),
        StepClock::new(Adam::new(LrSchedule::Constant(1e-3))),
    )
}

/// One streamed generate → train run.
struct Iteration {
    wall: f64,
    losses: Vec<u64>,
    traces_seen: usize,
    fills: usize,
    spills: usize,
    periods_ms: Vec<f64>,
    digest: u64,
    bytes: u64,
    ds: TraceDataset,
    chan: ChannelStats,
    trainer: Clocked,
}

fn iterate(
    seed: u64,
    dir: &Path,
    traced: Option<(&Telemetry, &Arc<Probe>)>,
) -> Result<Iteration, String> {
    let cfg = gen_cfg(mix_seed(seed, 0));
    let ckpt = CheckpointConfig::default();
    let mut chan = TraceChannel::bounded(CAPACITY);
    let mut trainer = new_trainer(seed);
    if let Some((tel, _)) = traced {
        chan = chan.with_telemetry(tel.clone());
        trainer = trainer.with_telemetry(tel.clone());
    }
    let t0 = Instant::now();
    let (ds, report) = std::thread::scope(|s| {
        let consumer = s.spawn(|| train_stream(&mut trainer, &chan, &train_cfg()));
        let ds = match traced {
            Some((tel, probe)) => stream_dataset_resumable_traced(
                |_| TimedProgram::new(bench_tau_model(), probe.clone()),
                &cfg,
                dir,
                &ckpt,
                None,
                &chan,
                tel.clone(),
            ),
            None => stream_dataset_resumable(|_| bench_tau_model(), &cfg, dir, &ckpt, None, &chan),
        };
        (ds, consumer.join())
    });
    let wall = t0.elapsed().as_secs_f64();
    let ds = ds.map_err(|e| format!("stream_dataset_resumable: {e}"))?;
    let report = report.map_err(|_| "train_stream panicked".to_string())?;
    let (digest, bytes) = shard_digest(&ds)?;
    Ok(Iteration {
        wall,
        losses: report.log.losses.iter().map(|(_, l)| l.to_bits()).collect(),
        traces_seen: report.log.traces_seen,
        fills: report.fills,
        spills: report.spills,
        periods_ms: trainer.opt.periods_ms(),
        digest,
        bytes,
        ds,
        chan: chan.stats(),
        trainer,
    })
}

/// Set-up: the held-out set, plus one small streamed run so the kernel
/// pool, allocator and page cache are warm before timing.
fn setup(opts: &Opts) -> Result<Vec<TraceRecord>, String> {
    let valid = prior_records(mix_seed(opts.seed, 2), VALID);
    let dir = opts.fresh_dir("warmup")?;
    let chan = TraceChannel::bounded(CAPACITY);
    let cfg = DatasetGenConfig { n: 256, ..gen_cfg(mix_seed(opts.seed, 3)) };
    let mut trainer = new_trainer(opts.seed);
    std::thread::scope(|s| {
        let consumer = s.spawn(|| train_stream(&mut trainer, &chan, &train_cfg()));
        let ds = stream_dataset_resumable(
            |_| bench_tau_model(),
            &cfg,
            &dir,
            &CheckpointConfig::default(),
            None,
            &chan,
        );
        let joined = consumer.join();
        ds.map_err(|e| format!("warm-up stream: {e}"))?;
        joined.map_err(|_| "warm-up train_stream panicked".to_string()).map(|_| ())
    })?;
    remove_dir(&dir);
    Ok(valid)
}

/// Check one iteration against the expected stream (first iteration) or
/// against the first iteration (later ones).
fn check(
    out: &mut Outcome,
    it: &Iteration,
    reference: Option<&Iteration>,
    expected: &[TraceRecord],
    read: Vec<TraceRecord>,
) {
    out.check(it.ds.len() == TRACES, || {
        format!("dataset holds {} records, expected {TRACES}", it.ds.len())
    });
    match reference {
        None => {
            out.check(read.len() == TRACES, || {
                format!("teed shards read back {} records, expected {TRACES}", read.len())
            });
            let first_bad = read.iter().zip(expected).position(|(a, b)| a != b);
            out.check(first_bad.is_none(), || {
                format!("teed shard record {} differs from batch index {0}", first_bad.unwrap_or(0))
            });
        }
        Some(r) => {
            out.check(it.digest == r.digest, || {
                "shard bytes differ between runs of the same seed".into()
            });
            out.check(it.losses == r.losses, || {
                "loss sequence differs between runs of the same seed".into()
            });
        }
    }
}

/// Releases `train_stream` makes from `records` (same bucketer, same
/// order), and the FLOPs a training step over them computes.
fn training_flops(net: &IcNetwork, records: &[TraceRecord]) -> u64 {
    let c = train_cfg();
    let mut b = TraceBucketer::new(BucketerConfig { batch: c.batch, spill_after: c.spill_after });
    let mut releases: Vec<Vec<TraceRecord>> =
        records.iter().filter_map(|r| b.push(r.clone())).collect();
    while let Some(r) = b.flush() {
        releases.push(r);
    }
    let forward: u64 = releases
        .iter()
        .flat_map(|r| {
            sub_minibatches(r)
                .into_iter()
                .map(|s| net.forward_flops(s.len(), s[0].num_controlled()))
        })
        .sum();
    etalumis_tensor::flops::training_flops(forward)
}

fn nan_steps(losses: &[u64]) -> u64 {
    losses.iter().filter(|l| !f64::from_bits(**l).is_finite()).count() as u64
}

/// Count the operations of the seed's stream: every trace generated and
/// every optimizer step, a step whose logged loss is not finite as failed.
/// Only one streamed run is counted. Every later run of the same seed must
/// reproduce its shard bytes and loss sequence bit for bit (`check`), so
/// the counts are a pure function of the seed, not of how many runs fit
/// in the measured window.
fn tally_stream(out: &mut Outcome, it: &Iteration) {
    out.tally.add(TRACES as u64, 0);
    out.tally.add(it.losses.len() as u64, nan_steps(&it.losses));
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut valid = Vec::new();
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        valid = setup(opts)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    // The records the stream must deliver, in batch-index order.
    let expected = prior_records(mix_seed(opts.seed, 0), TRACES);
    let dir = opts.work.join("stream");
    if opts.trace {
        return traced(opts, out, &dir, &expected, &valid);
    }

    let started = Instant::now();
    let (mut first, mut last): (Option<Iteration>, Option<Iteration>) = (None, None);
    let (mut walls, mut periods, mut run_p50s) = (Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || opts.window_open(started) || periods.len() < MIN_PERIODS {
        remove_dir(&dir);
        let it = iterate(opts.seed, &dir, None)?;
        let read = if first.is_none() { read_records(&it.ds)? } else { Vec::new() };
        check(&mut out, &it, first.as_ref(), &expected, read);
        if first.is_none() {
            tally_stream(&mut out, &it);
        }
        periods.extend_from_slice(&it.periods_ms);
        run_p50s.push(median(&it.periods_ms));
        walls.push(it.wall);
        if first.is_none() {
            first = Some(it);
        } else {
            last = Some(it);
        }
    }
    remove_dir(&dir);
    let useful = first.as_ref().map_or(0.0, |f| f.traces_seen as f64 / TRACES as f64);
    let mut last = last.or(first).ok_or("no iterations")?;
    let p50 = percentile(&periods, 50.0).ok_or("no step periods")?;
    let p90 = percentile(&periods, 90.0).ok_or("no step periods")?;
    let valid_loss = last.trainer.evaluate(&valid);
    out.check(valid_loss.is_finite(), || format!("valid_loss is {valid_loss}"));
    // The median streamed run: steadier than the total under CPU contention.
    let rate = TRACES as f64 / median(&walls);
    let (runs, wall) = (walls.len(), walls.iter().sum::<f64>());

    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_s), "s")?;
    m.set("traces_per_s", rate, "traces/s")?;
    // The median streamed run's median step period, like `traces_per_s`.
    m.set("op_p50_ms", median(&run_p50s), "ms")?;
    m.set("useful_ratio", useful, "ratio")?;
    m.set("success_ratio", out.tally.success_ratio(), "ratio")?;
    m.set("peak_rss_mb", peak_rss_mb()?, "MB")?;
    out.note(format!(
        "train_traces_per_s = {rate:.1} traces/s (median over {runs} streamed runs of {TRACES} traces; {:.1} over all {wall:.2} s)",
        (TRACES * runs) as f64 / wall
    ));
    out.note(format!(
        "step period p50 = {:.3} ms, p90 = {:.3} ms (n = {}, {} beyond p90)",
        p50.value, p90.value, p50.samples, p90.beyond
    ));
    out.note(format!("per-run walls (s): {walls:.3?}; step-period p50s (ms): {run_p50s:.3?}"));
    out.note(format!("valid_loss = {valid_loss:.4} nats ({VALID} held-out prior traces)"));
    out.note(format!(
        "fail_ratio = {:.6} ({} failed of {} operations of the seed's stream: traces generated + \
         optimizer steps; a step whose logged loss is not finite counts as failed)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    ));
    Ok(out)
}

/// Traced run: untraced and traced iterations alternate; the traced ones
/// must reproduce the untraced shard bytes and loss sequence exactly.
fn traced(
    opts: &Opts,
    mut out: Outcome,
    dir: &Path,
    expected: &[TraceRecord],
    valid: &[TraceRecord],
) -> Result<Outcome, String> {
    let started = Instant::now();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut first, mut last): (Option<Iteration>, _) = (None, None);
    while last.is_none() || opts.window_open(started) {
        remove_dir(dir);
        let plain = iterate(opts.seed, dir, None)?;
        let read = if first.is_none() { read_records(&plain.ds)? } else { Vec::new() };
        check(&mut out, &plain, first.as_ref(), expected, read);
        remove_dir(dir);
        let tel = Telemetry::enabled();
        let probe = Probe::new(true);
        let it = iterate(opts.seed, dir, Some((&tel, &probe)))?;
        check(&mut out, &it, Some(&plain), expected, Vec::new());
        if first.is_none() {
            tally_stream(&mut out, &it);
        }
        plain_walls.push(plain.wall);
        traced_walls.push(it.wall);
        first.get_or_insert(plain);
        last = Some((it, tel, probe));
    }
    remove_dir(dir);
    let (mut it, tel, probe) = last.ok_or("no traced iteration")?;
    let c = drain_trace(opts, &tel)?;
    let snap = c.snapshot();
    let span = |n: &str| snap.spans.get(n).map_or(0.0, |s| s.total_us as f64 * 1e-6);
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let (avx2, scalar) = etalumis_tensor::simd::take_dispatch_counts();
    let step_s = span("train.step");
    let valid_loss = it.trainer.evaluate(valid);
    let flops = training_flops(&it.trainer.net, expected);
    let releases = (it.fills + it.spills).max(1);

    let m = &mut out.metrics;
    m.set("simulators.self_s", probe.sim_self_secs(), "s")?;
    m.set("core.samples_per_trace", mean_controlled(expected), "count")?;
    m.set("runtime.busy_share", span("runtime.worker_busy") / it.wall, "ratio")?;
    m.set("runtime.steals", counter("runtime.steals"), "count")?;
    m.set("runtime.retries", counter("runtime.retries"), "count")?;
    m.set("runtime.ckpt.journal_bytes", counter("ckpt.journal_bytes"), "bytes")?;
    m.set("data.shard_bytes_per_trace", it.bytes as f64 / TRACES as f64, "bytes")?;
    m.set("data.write_mb_per_s", it.bytes as f64 * 1e-6 / it.wall, "MB/s")?;
    m.set("data.channel.blocked_sends", it.chan.blocked_sends as f64, "count")?;
    m.set("data.channel.blocked_recvs", it.chan.blocked_recvs as f64, "count")?;
    m.set("data.channel.max_occupancy", it.chan.max_occupancy as f64, "count")?;
    m.set("data.bucketer.fill_ratio", it.fills as f64 / releases as f64, "ratio")?;
    m.set("train.forward_s", span("train.forward"), "s")?;
    m.set("train.backward_s", span("train.backward"), "s")?;
    m.set("train.optimizer_s", span("train.optimizer"), "s")?;
    m.set(
        "train.step_p50_ms",
        snap.spans.get("train.step").map_or(0.0, |s| s.p50_us as f64 * 1e-3),
        "ms",
    )?;
    m.set("train.used_ratio", it.traces_seen as f64 / TRACES as f64, "ratio")?;
    m.set("train.empty_steps", nan_steps(&it.losses) as f64, "count")?;
    m.set("train.sub_minibatches_per_step", gauge_mean(&c, "train.sub_minibatches"), "count")?;
    m.set("tensor.train_gflops", flops as f64 * 1e-9 / step_s.max(1e-9), "GFLOP/s-model")?;
    m.set("tensor.dispatch_avx2", counter("kernel.dispatch_avx2") + avx2 as f64, "count")?;
    m.set("tensor.dispatch_scalar", counter("kernel.dispatch_scalar") + scalar as f64, "count")?;
    m.set("quality.valid_loss", valid_loss, "nats")?;
    m.set("fail_ratio", out.tally.fail_ratio(), "ratio")?;
    m.set("telemetry.overhead_share", median(&traced_walls) / median(&plain_walls) - 1.0, "ratio")?;
    m.set("stream_train.unattributed_share", 1.0 - step_s / it.wall, "ratio")?;
    out.note(format!(
        "accounting over the trainer thread ({:.3} s wall): train {:.3} s (forward {:.3}, backward {:.3}, \
         optimizer {:.3}, other step work {:.3}), unattributed {:.3} s (waiting for traces, bucketing, warm-up). \
         The producer thread runs concurrently: simulators {:.3} s self, runtime busy {:.3} s.",
        it.wall,
        step_s,
        span("train.forward"),
        span("train.backward"),
        span("train.optimizer"),
        step_s - span("train.forward") - span("train.backward") - span("train.optimizer"),
        it.wall - step_s,
        probe.sim_self_secs(),
        span("runtime.worker_busy"),
    ));
    out.note("tensor.train_gflops is computed: IcNetwork::forward_flops x flops::training_flops over the replayed releases / train.step time".into());
    Ok(out)
}
