//! Streaming training: pull minibatches straight off a live trace channel.
//!
//! The offline pipeline stages generate → sort (§4.4.3) → train through
//! the filesystem; the sort exists only to hand training address-
//! homogeneous sub-minibatches. In streaming mode the runtime feeds a
//! bounded `etalumis-data` [`TraceChannel`] and the online
//! [`TraceBucketer`] recreates that homogeneity on the fly, so training
//! starts while the simulator fleet is still running and back-pressure —
//! not disk — couples the two rates.
//!
//! Reproducibility: the channel carries records in batch-index order (the
//! runtime's `StreamSink` guarantees it), so [`train_stream`] is a pure
//! function of the stream content and its own config.
//! [`train_stream_offline`] replays a [`TraceDataset`] through the
//! identical code path — over the shards a teed streaming run wrote, it
//! reproduces the live run's losses and weights bit for bit.
//!
//! The rank-parallel variant is [`crate::train_distributed`] over a
//! [`crate::BatchSource::Stream`]: the same release sequence, the same
//! step loop, with peers.

use crate::trainer::{TrainLog, Trainer};
use etalumis_data::{
    stream_dataset_into, BucketerConfig, TraceBucketer, TraceChannel, TraceDataset, TraceRecord,
};
use etalumis_nn::Optimizer;

/// Knobs for the single-rank streaming loop.
#[derive(Clone, Copy, Debug)]
pub struct StreamTrainConfig {
    /// Sub-minibatch size a bucket releases at (paper's minibatch: 64).
    pub batch: usize,
    /// Bucketer spill threshold: after this many buffered-without-release
    /// records, the largest bucket is released undersized so rare trace
    /// types still train (see [`TraceBucketer`]).
    pub spill_after: usize,
    /// Records pulled off the stream head to pre-generate the network's
    /// address embeddings before the first step. They are then trained on
    /// normally (pushed through the bucketer first).
    pub warmup: usize,
    /// Freeze the network after warm-up pre-generation: later steps drop
    /// unknown-address traces instead of growing the parameter set.
    pub freeze_after_warmup: bool,
    /// Stop after this many optimizer steps (the channel is closed so the
    /// producer drains instead of blocking on a gone consumer).
    pub max_steps: Option<usize>,
}

impl Default for StreamTrainConfig {
    fn default() -> Self {
        Self {
            batch: 64,
            spill_after: 1024,
            warmup: 512,
            freeze_after_warmup: false,
            max_steps: None,
        }
    }
}

/// Outcome of a streaming training run.
#[derive(Clone, Debug, Default)]
pub struct StreamTrainReport {
    /// Loss trajectory and throughput of the step loop.
    pub log: TrainLog,
    /// Records actually pulled for warm-up (short when the stream ended
    /// early).
    pub warmup_used: usize,
    /// Bucket releases that reached full batch size.
    pub fills: usize,
    /// Undersized releases forced by the spill policy or the final flush.
    pub spills: usize,
}

/// Train on a live trace channel until it closes (single rank).
///
/// Pulls `cfg.warmup` records to pre-generate embeddings, then buckets the
/// warm-up prefix and every further record by trace type, taking one
/// optimizer step per released sub-minibatch; when the stream ends the
/// bucketer is flushed so every delivered trace trains. Deterministic
/// given the stream content and `cfg` — channel capacity, producer worker
/// count, and timing cannot change the result.
pub fn train_stream<O: Optimizer>(
    trainer: &mut Trainer<O>,
    channel: &TraceChannel,
    cfg: &StreamTrainConfig,
) -> StreamTrainReport {
    let warmup: Vec<TraceRecord> = channel.iter().take(cfg.warmup).collect();
    trainer.net.pregenerate(warmup.iter());
    if cfg.freeze_after_warmup {
        trainer.net.freeze();
    }
    let warmup_used = warmup.len();
    let mut releases =
        TraceBucketer::new(BucketerConfig { batch: cfg.batch, spill_after: cfg.spill_after })
            .with_telemetry(trainer.tel.clone())
            .releases(warmup.into_iter().chain(channel.iter()));
    let run = trainer.run(releases.by_ref().map(Ok), None, cfg.max_steps);
    // Tell the producer we are gone: after a `max_steps` stop it drains
    // instead of blocking forever on a full channel nobody reads.
    channel.close();
    let (fills, spills) = releases.release_counts();
    StreamTrainReport { log: run.log, warmup_used, fills: fills as usize, spills: spills as usize }
}

/// Replay a dataset through the exact [`train_stream`] code path.
///
/// This is the reproducibility comparator for teed streaming runs: the
/// shards `stream_dataset_resumable` writes, read back in dataset order,
/// are the live stream — so a fresh trainer run through this function
/// produces bit-identical losses and weights to the streaming run that
/// wrote them.
pub fn train_stream_offline<O: Optimizer>(
    trainer: &mut Trainer<O>,
    dataset: &TraceDataset,
    cfg: &StreamTrainConfig,
    channel_capacity: usize,
) -> std::io::Result<StreamTrainReport> {
    let channel = TraceChannel::bounded(channel_capacity);
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let res = stream_dataset_into(dataset, &channel);
            channel.close();
            res
        });
        let report = train_stream(trainer, &channel, cfg);
        match producer.join() {
            Ok(res) => res.map(|_| report),
            Err(_) => Err(std::io::Error::other("dataset replay thread panicked")),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{IcConfig, IcNetwork};
    use crate::{train_distributed, BatchSource, DistConfig};
    use etalumis_core::Executor;
    use etalumis_nn::{Adam, LrSchedule, Module};
    use etalumis_simulators::BranchingModel;

    fn records(n: usize, seed: u64) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|i| {
                TraceRecord::from_trace(&Executor::sample_prior(&mut m, seed + i as u64), true)
            })
            .collect()
    }

    fn feed_channel(recs: Vec<TraceRecord>, capacity: usize) -> TraceChannel {
        // Unit-test producer: preload then close (capacity ≥ len).
        let chan = TraceChannel::bounded(capacity.max(recs.len()));
        for r in recs {
            chan.send(r).unwrap();
        }
        chan.close();
        chan
    }

    fn small_trainer(seed: u64) -> Trainer<Adam> {
        Trainer::new(
            IcNetwork::new(IcConfig::small([1, 1, 1], seed)),
            Adam::new(LrSchedule::Constant(2e-3)),
        )
    }

    fn params(net: &mut IcNetwork) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        net.visit_params("", &mut |n, p| out.push((n.to_string(), p.value.data().to_vec())));
        out
    }

    #[test]
    fn stream_training_reduces_loss_and_uses_every_trace() {
        let recs = records(192, 0);
        let chan = feed_channel(recs, 0);
        let mut trainer = small_trainer(1);
        let cfg =
            StreamTrainConfig { batch: 16, spill_after: 64, warmup: 48, ..Default::default() };
        let report = train_stream(&mut trainer, &chan, &cfg);
        assert_eq!(report.warmup_used, 48);
        assert_eq!(report.log.traces_seen, 192, "flush must train every delivered trace");
        let n = report.log.losses.len();
        assert!(n >= 3);
        let head = report.log.losses[0].1;
        let tail = report.log.losses[n - 1].1;
        assert!(tail < head, "streaming loss should fall: {head} -> {tail}");
        assert!(report.fills + report.spills == n);
    }

    #[test]
    fn live_and_offline_replay_are_bit_identical() {
        use etalumis_data::generate_dataset;
        let dir = std::env::temp_dir().join(format!("etalumis_strm_off_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 96, 96, &dir, 3, true).unwrap();
        let cfg = StreamTrainConfig { batch: 8, spill_after: 32, warmup: 24, ..Default::default() };

        // "Live": records preloaded into a channel in dataset order.
        let all: Vec<usize> = (0..ds.len()).collect();
        let chan = feed_channel(ds.get_many(&all).unwrap(), 0);
        let mut live = small_trainer(7);
        let live_report = train_stream(&mut live, &chan, &cfg);

        // Offline replay of the same dataset with a tiny channel.
        let mut off = small_trainer(7);
        let off_report = train_stream_offline(&mut off, &ds, &cfg, 3).unwrap();

        assert_eq!(live_report.log.losses, off_report.log.losses);
        assert_eq!(params(&mut live.net), params(&mut off.net), "weights must be bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_steps_closes_the_channel_instead_of_stranding_the_producer() {
        let chan = TraceChannel::bounded(2);
        let cfg = StreamTrainConfig {
            batch: 4,
            spill_after: 16,
            warmup: 8,
            max_steps: Some(2),
            ..Default::default()
        };
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                // Far more records than the trainer will take; must not hang.
                for r in records(200, 5) {
                    if chan.send(r).is_err() {
                        return true; // consumer closed on us — expected
                    }
                }
                chan.close();
                false
            });
            let mut trainer = small_trainer(3);
            let report = train_stream(&mut trainer, &chan, &cfg);
            assert_eq!(report.log.losses.len(), 2);
            assert!(producer.join().unwrap(), "producer should observe the early close");
        });
    }

    #[test]
    fn distributed_streaming_replicas_are_bit_identical_and_loss_falls() {
        let recs = records(256, 11);
        let dist = DistConfig { ranks: 2, lr: LrSchedule::Constant(2e-3), ..Default::default() };
        let run = |chan: &TraceChannel| {
            let source =
                BatchSource::Stream { channel: chan, batch: 8, spill_after: 64, warmup: 64 };
            train_distributed(source, IcConfig::small([1, 1, 1], 9), &dist).unwrap()
        };
        let chan = feed_channel(recs.clone(), 0);
        let (mut net_a, report) = run(&chan);
        assert!(!report.losses.is_empty());
        let n = report.losses.len();
        assert!(
            report.losses[n - 1] < report.losses[0],
            "distributed streaming loss should fall: {} -> {}",
            report.losses[0],
            report.losses[n - 1]
        );
        // Determinism: the identical stream reproduces the identical model.
        let chan = feed_channel(recs, 0);
        let (mut net_b, report_b) = run(&chan);
        assert_eq!(report.losses, report_b.losses);
        assert_eq!(params(&mut net_a), params(&mut net_b));
    }

    /// `n` records of the branch taken with `controlled` sample statements
    /// (2: branch 0, one trace type; 3: branch 1, one more address).
    fn records_of_branch(controlled: usize, n: usize) -> Vec<TraceRecord> {
        records(400, 40).into_iter().filter(|r| r.num_controlled() == controlled).take(n).collect()
    }

    #[test]
    fn an_all_dropped_step_leaves_the_weights_untouched() {
        // Warm-up (and freeze) on branch-0 traces only: every later branch-1
        // release references an unknown address and is dropped whole. Such a
        // step must not move Adam's moments or the weights, nor log a loss.
        let known = records_of_branch(2, 16);
        let unknown = records_of_branch(3, 16);
        assert_eq!((known.len(), unknown.len()), (16, 16));
        let both: Vec<TraceRecord> = known.iter().chain(&unknown).cloned().collect();

        // Single rank.
        let cfg = StreamTrainConfig {
            batch: 8,
            spill_after: 64,
            warmup: 16,
            freeze_after_warmup: true,
            max_steps: None,
        };
        let tel = etalumis_telemetry::Telemetry::enabled();
        let mut with_empty = small_trainer(4).with_telemetry(tel.clone());
        let report = train_stream(&mut with_empty, &feed_channel(both.clone(), 0), &cfg);
        let mut known_only = small_trainer(4);
        let reference = train_stream(&mut known_only, &feed_channel(known.clone(), 0), &cfg);
        assert_eq!(report.log.losses.len(), 2);
        assert!(report.log.losses.iter().all(|(_, l)| l.is_finite()));
        assert_eq!(report.log.losses, reference.log.losses);
        assert_eq!(params(&mut with_empty.net), params(&mut known_only.net));
        let events = tel.drain();
        let counter = |name: &str| {
            events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| match e.kind {
                    etalumis_telemetry::EventKind::Counter { delta } => delta,
                    _ => 0,
                })
                .sum::<u64>()
        };
        assert_eq!(counter("train.empty_steps"), 2);
        assert_eq!(counter("train.steps"), 2);

        // Two ranks: iteration 0 trains on the two branch-0 releases, and
        // iteration 1 hands each rank a dropped branch-1 release.
        let dist = DistConfig { ranks: 2, lr: LrSchedule::Constant(2e-3), ..Default::default() };
        let run = |recs: &[TraceRecord]| {
            let chan = feed_channel(recs.to_vec(), 0);
            let source =
                BatchSource::Stream { channel: &chan, batch: 8, spill_after: 64, warmup: 16 };
            let (mut net, report) =
                train_distributed(source, IcConfig::small([1, 1, 1], 4), &dist).unwrap();
            (report.losses, params(&mut net))
        };
        let (losses, weights) = run(&both);
        assert_eq!(losses.len(), 1);
        assert!(losses[0].is_finite());
        assert_eq!((losses, weights), run(&known));
    }
}
