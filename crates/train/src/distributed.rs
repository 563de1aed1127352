//! Distributed synchronous data-parallel training (Algorithm 2).
//!
//! Ranks are OS threads, each a [`Trainer`] holding an identical replica
//! of the pre-generated IC network and its own optimizer state; every
//! iteration each rank takes its minibatch from the [`BatchSource`],
//! computes gradients, averages them with a synchronous allreduce, and
//! applies the same update — so all replicas stay bit-identical, exactly
//! like MPI synchronous SGD. The source is a parameter: dataset epochs
//! planned by the distributed sampler, or the releases of a live trace
//! stream. Every rank runs the one step loop, [`Trainer::run`].
//!
//! Per-rank, per-iteration phase timings (minibatch read / forward /
//! backward / optimizer / sync) are recorded — the measurements behind the
//! paper's Figure 4 load-imbalance analysis.

use crate::allreduce::{AllReduceCtx, AllReduceStrategy, RankSeat};
use crate::network::{IcConfig, IcNetwork};
use crate::trainer::{epoch_batches, epoch_sampler, PhaseTimings, Trainer};
use etalumis_data::{
    BucketerConfig, SamplerConfig, TraceBucketer, TraceChannel, TraceDataset, TraceRecord,
};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_telemetry::Telemetry;
use std::sync::{Condvar, Mutex};

/// Where each rank's minibatches come from.
#[derive(Clone, Copy)]
pub enum BatchSource<'a> {
    /// Epochs over a stored dataset. Every replica pre-generates from the
    /// whole dataset; the distributed sampler assigns minibatches to ranks.
    Epochs {
        /// The (ideally trace-type sorted) dataset.
        dataset: &'a TraceDataset,
        /// Local minibatch size per rank (paper: 64).
        minibatch_per_rank: usize,
        /// Training epochs over the dataset.
        epochs: usize,
        /// Number of length buckets in the sampler (1 = none).
        buckets: usize,
        /// Sampler shuffle seed.
        seed: u64,
    },
    /// A live trace stream, bucketed by trace type on the fly; rank `r`
    /// owns release `it·ranks + r` of iteration `it`, a deterministic
    /// assignment no scheduling can perturb. The run closes the channel
    /// when it ends, so a producer drains instead of blocking.
    Stream {
        /// The stream, in batch-index order.
        channel: &'a TraceChannel,
        /// Sub-minibatch size a bucket releases at.
        batch: usize,
        /// Bucketer spill threshold (see [`TraceBucketer`]).
        spill_after: usize,
        /// Records pulled off the stream head to pre-generate every
        /// replica identically. The replicas are then frozen: live address
        /// discovery would grow each rank's parameter set differently and
        /// break the allreduce.
        warmup: usize,
    },
}

/// Distributed-training configuration shared by every [`BatchSource`].
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Number of rank threads.
    pub ranks: usize,
    /// Cap on iterations per rank (None = until the source runs dry).
    pub max_iterations: Option<usize>,
    /// Gradient-reduction strategy.
    pub strategy: AllReduceStrategy,
    /// Learning-rate schedule for Adam.
    pub lr: LrSchedule,
    /// Optional LARC trust coefficient (Adam-LARC when set).
    pub larc_trust: Option<f64>,
    /// Telemetry handle (disabled by default). When enabled, each rank
    /// emits worker-scoped `train.batch_read` spans and `train.step` spans
    /// with nested `train.forward` / `train.backward` /
    /// `train.allreduce_wait` / `train.optimizer` phases, plus
    /// `train.steps` counters and a `train.sub_minibatches` gauge per
    /// iteration.
    pub tel: Telemetry,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            ranks: 2,
            max_iterations: None,
            strategy: AllReduceStrategy::SparseConcat,
            lr: LrSchedule::Constant(1e-3),
            larc_trust: None,
            tel: Telemetry::disabled(),
        }
    }
}

/// Outcome of a distributed run.
#[derive(Debug, Default)]
pub struct DistReport {
    /// Global mean loss per iteration (allreduced).
    pub losses: Vec<f64>,
    /// Phase timings: `[rank][iteration]`.
    pub per_rank_timings: Vec<Vec<PhaseTimings>>,
    /// Total traces consumed across ranks.
    pub traces_total: usize,
    /// Wall-clock seconds of rank 0's step loop.
    pub wall_secs: f64,
    /// Scalar elements communicated per rank per iteration (mean).
    pub comm_elems_per_iter: f64,
}

impl DistReport {
    /// Aggregate throughput in traces/s.
    pub fn traces_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.traces_total as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Figure 4 decomposition: per-phase (actual, best) times, where
    /// *actual* sums the per-iteration maxima over ranks (what the job
    /// really took) and *best* sums the per-iteration means (the
    /// no-imbalance bound).
    pub fn actual_vs_best(&self) -> (PhaseTimings, PhaseTimings) {
        let iters = self.per_rank_timings.iter().map(|r| r.len()).min().unwrap_or(0);
        let ranks = self.per_rank_timings.len();
        let mut actual = PhaseTimings::default();
        let mut best = PhaseTimings::default();
        for it in 0..iters {
            // Max total work across ranks (the rank everyone waits for).
            let mut max_total = 0.0;
            let mut max_rank = 0;
            let mut mean = PhaseTimings::default();
            for r in 0..ranks {
                let t = &self.per_rank_timings[r][it];
                let work = t.work();
                if work > max_total {
                    max_total = work;
                    max_rank = r;
                }
                mean.add(t);
            }
            actual.add(&self.per_rank_timings[max_rank][it]);
            best.add(&mean.scale(1.0 / ranks as f64));
        }
        (actual, best)
    }
}

/// Run Algorithm 2 over a batch source: returns the rank-0 network (all
/// replicas are identical) and the run report.
///
/// A shard I/O error on any rank (truncated file, corrupt record — see
/// `etalumis_data::DecodeError`) aborts training with `Err` instead of
/// panicking the rank thread. The failing rank raises the leave bit of
/// [`Trainer::run`], so every rank leaves the loop at the same
/// synchronization point, replicas still bit-identical (the failed
/// iteration applies no update). A stream that runs dry on one rank ends
/// the run the same way, and the trailing partial round trains nobody.
pub fn train_distributed(
    source: BatchSource<'_>,
    net_config: IcConfig,
    dist: &DistConfig,
) -> std::io::Result<(IcNetwork, DistReport)> {
    let ranks = dist.ranks.max(1);
    match source {
        BatchSource::Epochs { dataset, minibatch_per_rank, epochs, buckets, seed } => {
            let sampler = epoch_sampler(
                dataset,
                SamplerConfig { minibatch: minibatch_per_rank, num_ranks: ranks, buckets, seed },
            )?;
            let all_indices: Vec<usize> = (0..dataset.len()).collect();
            let pregen = dataset.get_many(&all_indices)?;
            run_ranks(&net_config, dist, &pregen, false, |rank| {
                epoch_batches(dataset, &sampler, epochs, rank)
            })
        }
        BatchSource::Stream { channel, batch, spill_after, warmup } => {
            let warmup: Vec<TraceRecord> = channel.iter().take(warmup).collect();
            let releases = TraceBucketer::new(BucketerConfig { batch, spill_after })
                .with_telemetry(dist.tel.clone())
                .releases(warmup.clone().into_iter().chain(channel.iter()));
            let feed = &ReleaseFeed::default();
            std::thread::scope(|s| {
                s.spawn(move || {
                    for release in releases {
                        feed.push(release);
                    }
                    feed.finish();
                });
                let out = run_ranks(&net_config, dist, &warmup, true, |rank| {
                    (0..).map_while(move |it| feed.take(it * ranks + rank)).map(Ok)
                });
                // Ranks that stopped at `max_iterations` leave the producer
                // pumping: close the channel so it drains instead of
                // blocking forever.
                channel.close();
                out
            })
        }
    }
}

/// Run the step loop on `dist.ranks` replicas, rank 0 on the calling
/// thread, each pre-generated from `pregen` (then frozen if `freeze`) and
/// fed by `batches(rank)`.
fn run_ranks<B>(
    net_config: &IcConfig,
    dist: &DistConfig,
    pregen: &[TraceRecord],
    freeze: bool,
    batches: impl Fn(usize) -> B + Sync,
) -> std::io::Result<(IcNetwork, DistReport)>
where
    B: Iterator<Item = std::io::Result<Vec<TraceRecord>>>,
{
    let ranks = dist.ranks.max(1);
    let ctx = AllReduceCtx::new(ranks);
    let rank_main = |rank: usize| {
        let _tel_scope = dist.tel.worker_scope(rank as u32);
        let mut net = IcNetwork::new(net_config.clone());
        net.pregenerate(pregen.iter());
        if freeze {
            net.freeze();
        }
        let opt = match dist.larc_trust {
            Some(t) => Adam::with_larc(dist.lr.clone(), t),
            None => Adam::new(dist.lr.clone()),
        };
        let mut trainer = Trainer::new(net, opt).with_telemetry(dist.tel.clone());
        let seat = RankSeat { ctx: &ctx, rank, strategy: dist.strategy };
        let run = trainer.run(batches(rank), Some(&seat), dist.max_iterations);
        (trainer.net, run)
    };
    let (net, mut runs) = std::thread::scope(|s| {
        let rank_main = &rank_main;
        let peers: Vec<_> = (1..ranks).map(|rank| s.spawn(move || rank_main(rank).1)).collect();
        let (net, run) = rank_main(0);
        let mut runs = vec![run];
        for peer in peers {
            runs.push(peer.join().map_err(|_| std::io::Error::other("training rank panicked"))?);
        }
        Ok::<_, std::io::Error>((net, runs))
    })?;
    if let Some(e) = runs.iter_mut().find_map(|r| r.error.take()) {
        return Err(e);
    }
    let rank0 = &runs[0];
    let steps = rank0.log.losses.len();
    let comm_elems: usize = runs.iter().map(|r| r.comm_elems).sum();
    let traces_total: usize = runs.iter().map(|r| r.log.traces_seen).sum();
    let report = DistReport {
        losses: rank0.log.losses.iter().map(|&(_, loss)| loss).collect(),
        traces_total,
        wall_secs: rank0.log.wall_secs,
        comm_elems_per_iter: if steps > 0 {
            comm_elems as f64 / (steps * ranks) as f64
        } else {
            0.0
        },
        per_rank_timings: runs.into_iter().map(|r| r.timings).collect(),
    };
    Ok((net, report))
}

/// The distributor → rank hand-off of a [`BatchSource::Stream`] run:
/// released sub-minibatches, indexed globally.
#[derive(Default)]
struct ReleaseFeed {
    state: Mutex<FeedState>,
    cond: Condvar,
}

#[derive(Default)]
struct FeedState {
    releases: Vec<Option<Vec<TraceRecord>>>,
    done: bool,
}

impl ReleaseFeed {
    fn lock(&self) -> std::sync::MutexGuard<'_, FeedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, release: Vec<TraceRecord>) {
        let mut st = self.lock();
        st.releases.push(Some(release));
        // Notify while the state lock is held: a rank that just failed its
        // predicate cannot slip between this publish and the wakeup.
        self.cond.notify_all();
        drop(st);
    }

    fn finish(&self) {
        let mut st = self.lock();
        st.done = true;
        // Notify under the lock so a rank mid-predicate-check cannot miss
        // the done flag and park forever.
        self.cond.notify_all();
        drop(st);
    }

    /// Take global release `i`, blocking until it exists; `None` once the
    /// feed is finished with fewer than `i + 1` releases (this rank's side
    /// of the stream is exhausted).
    fn take(&self, i: usize) -> Option<Vec<TraceRecord>> {
        let mut st = self.lock();
        loop {
            if i < st.releases.len() {
                return st.releases[i].take();
            }
            if st.done {
                return None;
            }
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_data::{generate_dataset, sort_dataset};
    use etalumis_nn::Module;
    use etalumis_simulators::BranchingModel;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_dist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn small_ic() -> IcConfig {
        IcConfig::small([1, 1, 1], 5)
    }

    fn epochs(ds: &TraceDataset, epochs: usize, seed: u64) -> BatchSource<'_> {
        BatchSource::Epochs { dataset: ds, minibatch_per_rank: 8, epochs, buckets: 1, seed }
    }

    fn sorted_dataset(tag: &str, n: usize, seed: u64) -> (TraceDataset, PathBuf) {
        let dir = tmp(tag);
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, n, 64, &dir, seed, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 64).unwrap();
        (ds, dir)
    }

    fn params(net: &mut IcNetwork) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        net.visit_params("", &mut |n, p| out.push((n.to_string(), p.value.data().to_vec())));
        out
    }

    #[test]
    fn distributed_losses_decrease_and_replicas_agree() {
        let dir = tmp("train");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 128, 64, &dir, 1, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 64).unwrap();
        let dist = DistConfig { ranks: 2, lr: LrSchedule::Constant(2e-3), ..Default::default() };
        let (_net, report) = train_distributed(epochs(&ds, 6, 0), small_ic(), &dist).unwrap();
        assert!(!report.losses.is_empty());
        let n = report.losses.len();
        let head: f64 = report.losses[..3].iter().sum::<f64>() / 3.0;
        let tail: f64 = report.losses[n - 3..].iter().sum::<f64>() / 3.0;
        assert!(tail < head, "distributed loss should fall: {head} -> {tail}");
        assert!(report.traces_per_sec() > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_ranks_match_single_rank_big_batch() {
        // One distributed iteration with 2 ranks × B equals one serial
        // iteration with 2B traces (up to f32 reduction order).
        let dir = tmp("equiv");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 32, 32, &dir, 3, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 32).unwrap();
        let dist = DistConfig {
            ranks: 2,
            max_iterations: Some(1),
            lr: LrSchedule::Constant(1e-3),
            ..Default::default()
        };
        let (dnet, report) = train_distributed(epochs(&ds, 1, 4), small_ic(), &dist).unwrap();
        // Reconstruct the union of both ranks' first minibatches.
        let meta: Vec<(u64, u32)> = (0..ds.len()).map(|i| ds.meta(i)).collect();
        let sampler = etalumis_data::DistributedSampler::new(
            meta,
            SamplerConfig { minibatch: 8, num_ranks: 2, buckets: 1, seed: 4 },
        );
        let plan = sampler.epoch(0);
        let mut union: Vec<usize> = plan.per_rank[0][0].clone();
        union.extend(&plan.per_rank[1][0]);
        let records = ds.get_many(&union).unwrap();
        let all: Vec<usize> = (0..ds.len()).collect();
        let pregen = ds.get_many(&all).unwrap();
        let mut net = IcNetwork::new(small_ic());
        net.pregenerate(pregen.iter());
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
        let res = trainer.step(&records);
        assert_eq!(res.used, 16);
        // Compare parameters.
        let mut pa = Vec::new();
        let mut dnet = dnet;
        dnet.visit_params("", &mut |n, p| pa.push((n.to_string(), p.value.clone())));
        let mut pb = Vec::new();
        trainer.net.visit_params("", &mut |n, p| pb.push((n.to_string(), p.value.clone())));
        assert_eq!(pa.len(), pb.len());
        let mut max_diff = 0.0f32;
        for ((na, va), (_nb, vb)) in pa.iter().zip(pb.iter()) {
            for (a, b) in va.data().iter().zip(vb.data().iter()) {
                let d = (a - b).abs();
                if d > max_diff {
                    max_diff = d;
                }
            }
            let _ = na;
        }
        assert!(
            max_diff < 2e-4,
            "2-rank and big-batch serial updates should match: max diff {max_diff}"
        );
        assert!(report.comm_elems_per_iter > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distributed_training_surfaces_shard_errors_instead_of_panicking() {
        let dir = tmp("err");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 64, 32, &dir, 8, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 32).unwrap();
        // Truncate a shard under the open dataset: every rank's read path
        // must surface the error as Err — no panicking rank threads, no
        // rank left blocking in a collective.
        let bytes = std::fs::read(&ds.shards[0]).unwrap();
        std::fs::write(&ds.shards[0], &bytes[..bytes.len() / 2]).unwrap();
        let dist = DistConfig { ranks: 2, lr: LrSchedule::Constant(1e-3), ..Default::default() };
        let res = train_distributed(epochs(&ds, 1, 0), small_ic(), &dist).map(|_| ());
        assert!(res.is_err(), "a truncated shard must surface as Err, not a panic");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_strategies_produce_identical_training() {
        let dir = tmp("strat");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 64, 64, &dir, 6, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 64).unwrap();
        let mut final_losses = Vec::new();
        for strategy in [
            AllReduceStrategy::DensePerTensor,
            AllReduceStrategy::SparsePerTensor,
            AllReduceStrategy::SparseConcat,
        ] {
            let dist = DistConfig {
                ranks: 2,
                strategy,
                lr: LrSchedule::Constant(1e-3),
                ..Default::default()
            };
            let (_, report) = train_distributed(epochs(&ds, 2, 9), small_ic(), &dist).unwrap();
            final_losses.push(report.losses.clone());
        }
        assert_eq!(final_losses[0], final_losses[1], "dense vs sparse");
        assert_eq!(final_losses[0], final_losses[2], "dense vs concat");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn three_ranks_reproduce_bit_for_bit_on_both_sources() {
        // Three ranks are where an arrival-order f32 sum stops being
        // commutative-safe; every run of the same input must still agree.
        let (ds, dir) = sorted_dataset("three", 96, 2);
        let all: Vec<usize> = (0..ds.len()).collect();
        let records = ds.get_many(&all).unwrap();
        let dist = DistConfig { ranks: 3, lr: LrSchedule::Constant(2e-3), ..Default::default() };
        let run = |source: BatchSource<'_>| {
            let (mut net, report) = train_distributed(source, small_ic(), &dist).unwrap();
            assert!(!report.losses.is_empty());
            assert_eq!(report.per_rank_timings.len(), 3);
            (report.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(), params(&mut net))
        };
        let on_epochs = || run(epochs(&ds, 2, 5));
        assert_eq!(on_epochs(), on_epochs(), "epochs source");
        let on_stream = || {
            let channel = TraceChannel::bounded(records.len());
            for r in records.iter().cloned() {
                channel.send(r).unwrap();
            }
            channel.close();
            run(BatchSource::Stream { channel: &channel, batch: 8, spill_after: 32, warmup: 32 })
        };
        assert_eq!(on_stream(), on_stream(), "stream source");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_rank_of_an_epochs_run_emits_step_and_allreduce_spans() {
        use etalumis_telemetry::EventKind;
        let (ds, dir) = sorted_dataset("traced", 64, 3);
        let tel = Telemetry::enabled();
        let dist = DistConfig { ranks: 2, tel: tel.clone(), ..Default::default() };
        let (_, report) = train_distributed(epochs(&ds, 1, 1), small_ic(), &dist).unwrap();
        let steps = report.losses.len();
        assert!(steps > 0);
        let events = tel.drain();
        for rank in 0..2u32 {
            let spans = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.worker == rank && e.name == name)
                    .filter(|e| matches!(e.kind, EventKind::Span { .. }))
                    .count()
            };
            // The epochs run out on every rank at once: one last collective
            // round, no update.
            assert_eq!(spans("train.step"), steps + 1, "rank {rank}");
            assert_eq!(spans("train.allreduce_wait"), steps + 1, "rank {rank}");
            assert_eq!(spans("train.optimizer"), steps, "rank {rank}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
