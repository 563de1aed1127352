//! Single-process IC training, and the step loop every training entry
//! point runs (the per-rank inner loop of Algorithm 2).
//!
//! A minibatch is split into sub-minibatches by trace type (Algorithm 1),
//! each processed in one batched forward/backward pass; gradients are scaled
//! by 1/B, optionally clipped, and applied with the configured optimizer.

use crate::allreduce::RankSeat;
use crate::network::IcNetwork;
use etalumis_data::{DistributedSampler, SamplerConfig, TraceDataset, TraceRecord};
use etalumis_nn::{clip_grad_norm, Module, Optimizer};
use etalumis_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-iteration wall-time breakdown (the phases of Figure 4).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Minibatch read from the dataset (seconds).
    pub batch_read: f64,
    /// NN forward (CNN + LSTM).
    pub forward: f64,
    /// NN backward (heads + BPTT + CNN backward).
    pub backward: f64,
    /// Optimizer update.
    pub optimizer: f64,
    /// Gradient/loss synchronization (distributed only).
    pub sync: f64,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> f64 {
        self.work() + self.sync
    }

    /// Time spent working, i.e. every phase but `sync` (the wait for the
    /// slowest rank).
    pub fn work(&self) -> f64 {
        self.batch_read + self.forward + self.backward + self.optimizer
    }

    /// Elementwise sum.
    pub fn add(&mut self, other: &PhaseTimings) {
        self.batch_read += other.batch_read;
        self.forward += other.forward;
        self.backward += other.backward;
        self.optimizer += other.optimizer;
        self.sync += other.sync;
    }

    /// Elementwise scale.
    pub fn scale(&self, s: f64) -> PhaseTimings {
        PhaseTimings {
            batch_read: self.batch_read * s,
            forward: self.forward * s,
            backward: self.backward * s,
            optimizer: self.optimizer * s,
            sync: self.sync * s,
        }
    }
}

/// Split records into sub-minibatches sharing one trace type (Algorithm 1).
pub fn sub_minibatches(records: &[TraceRecord]) -> Vec<Vec<&TraceRecord>> {
    let mut by_type: BTreeMap<u64, Vec<&TraceRecord>> = BTreeMap::new();
    for r in records {
        by_type.entry(r.trace_type).or_default().push(r);
    }
    let mut subs: Vec<Vec<&TraceRecord>> = by_type.into_values().collect();
    // Deterministic order (largest first helps batching efficiency).
    subs.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].trace_type.cmp(&b[0].trace_type)));
    subs
}

/// Result of one training minibatch.
#[derive(Clone, Copy, Debug)]
pub struct StepResult {
    /// Mean −log q loss over the traces actually used.
    pub loss: f64,
    /// Traces used (unknown-address traces are dropped when frozen).
    pub used: usize,
    /// Traces dropped.
    pub dropped: usize,
    /// Number of sub-minibatches (1 = perfectly homogeneous batch).
    pub sub_minibatches: usize,
    /// Phase timings.
    pub timings: PhaseTimings,
}

/// Compute gradients for one minibatch (no optimizer step): the shared part
/// of serial and distributed training. Gradients are left scaled by 1/used.
pub fn accumulate_minibatch(net: &mut IcNetwork, records: &[TraceRecord]) -> StepResult {
    net.zero_grad();
    let subs = sub_minibatches(records);
    let n_subs = subs.len();
    let mut loss_sum = 0.0;
    let mut used = 0usize;
    let mut dropped = 0usize;
    let mut timings = PhaseTimings::default();
    for sub in subs {
        match net.loss_sub_minibatch(&sub) {
            Some(l) => {
                loss_sum += l;
                used += sub.len();
                let (f, b) = net.last_phase_secs;
                timings.forward += f;
                timings.backward += b;
            }
            None => dropped += sub.len(),
        }
    }
    if used > 0 {
        let scale = 1.0 / used as f32;
        net.visit_params("", &mut |_, p| p.grad.scale(scale));
    }
    StepResult {
        loss: if used > 0 { loss_sum / used as f64 } else { f64::NAN },
        used,
        dropped,
        sub_minibatches: n_subs,
        timings,
    }
}

/// Training-progress record.
#[derive(Clone, Debug, Default)]
pub struct TrainLog {
    /// (iteration, mean loss) pairs.
    pub losses: Vec<(usize, f64)>,
    /// Total traces consumed.
    pub traces_seen: usize,
    /// Wall time of the training loop in seconds.
    pub wall_secs: f64,
}

impl TrainLog {
    /// Throughput in traces/s.
    pub fn traces_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.traces_seen as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Emit the active kernel backend, pool size, and dispatch counters into a
/// telemetry stream: `kernel.backend_avx2` / `kernel.pool_threads` gauges
/// (which land in `RUN_METRICS.json` and the run-report header) plus
/// `kernel.dispatch_avx2` / `kernel.dispatch_scalar` counters drained from
/// the process-wide dispatch tally.
pub fn record_kernel_telemetry(tel: &Telemetry) {
    if !tel.is_enabled() {
        return;
    }
    use etalumis_tensor::simd;
    tel.gauge(
        "kernel.backend_avx2",
        if simd::active_backend() == simd::Backend::Avx2Fma { 1.0 } else { 0.0 },
    );
    tel.gauge("kernel.pool_threads", etalumis_tensor::pool::num_threads() as f64);
    let (avx2, scalar) = simd::take_dispatch_counts();
    if avx2 > 0 {
        tel.count("kernel.dispatch_avx2", avx2);
    }
    if scalar > 0 {
        tel.count("kernel.dispatch_scalar", scalar);
    }
}

/// Single-process trainer.
pub struct Trainer<O: Optimizer> {
    /// The network being trained.
    pub net: IcNetwork,
    /// Optimizer.
    pub opt: O,
    /// Optional global-norm gradient clip.
    pub grad_clip: Option<f64>,
    /// Telemetry handle (disabled by default). When enabled, each
    /// [`Trainer::step`] emits a `train.step` span with nested
    /// `train.forward` / `train.backward` / `train.optimizer` phase spans,
    /// a `train.sub_minibatches` gauge, and a `train.steps` counter.
    pub tel: Telemetry,
}

impl<O: Optimizer> Trainer<O> {
    /// New trainer.
    pub fn new(net: IcNetwork, opt: O) -> Self {
        Self { net, opt, grad_clip: None, tel: Telemetry::disabled() }
    }

    /// Attach a telemetry handle (builder form of setting [`Trainer::tel`]).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// One synchronous step on a minibatch; returns the step result.
    pub fn step(&mut self, records: &[TraceRecord]) -> StepResult {
        let _step = self.tel.span("train.step");
        let mut res = accumulate_minibatch(&mut self.net, records);
        let used = res.used;
        self.update(&mut res, used);
        res
    }

    /// Update half of a step, after [`accumulate_minibatch`] (and, on a
    /// distributed rank, the gradient allreduce): the optional gradient
    /// clip, then the optimizer. Records the optimizer time in `res` and
    /// emits the step's `train.*` telemetry.
    ///
    /// `used` is the number of traces the gradients came from, summed over
    /// ranks. When it is 0 (a frozen net dropped every trace) there is
    /// nothing to learn from: the step leaves the weights and the optimizer
    /// state untouched, counts itself in `train.empty_steps`, and returns
    /// false. Every rank sees the same reduced count, so all skip together.
    pub fn update(&mut self, res: &mut StepResult, used: usize) -> bool {
        if used == 0 {
            self.tel.count("train.empty_steps", 1);
            return false;
        }
        if let Some(c) = self.grad_clip {
            clip_grad_norm(&mut self.net, c);
        }
        let t = Instant::now();
        self.opt.begin_step();
        let opt = &mut self.opt;
        self.net.visit_params("", &mut |n, p| opt.update(n, p));
        res.timings.optimizer = t.elapsed().as_secs_f64();
        if self.tel.is_enabled() {
            self.tel.span_record("train.forward", Duration::from_secs_f64(res.timings.forward));
            self.tel.span_record("train.backward", Duration::from_secs_f64(res.timings.backward));
            self.tel.span_record("train.optimizer", Duration::from_secs_f64(res.timings.optimizer));
            self.tel.gauge("train.sub_minibatches", res.sub_minibatches as f64);
            self.tel.count("train.steps", 1);
            record_kernel_telemetry(&self.tel);
        }
        true
    }

    /// Evaluate mean loss on records without touching the weights.
    pub fn evaluate(&mut self, records: &[TraceRecord]) -> f64 {
        let res = accumulate_minibatch(&mut self.net, records);
        self.net.zero_grad();
        res.loss
    }

    /// Train for `epochs` epochs over a dataset with the given sampler
    /// parameters (single rank).
    ///
    /// A shard I/O error (truncated file, corrupt record — see
    /// `etalumis_data::DecodeError`) surfaces as the `Err` instead of
    /// aborting the process; the log accumulated so far is lost with it,
    /// so callers that care should checkpoint externally.
    pub fn train_epochs(
        &mut self,
        dataset: &TraceDataset,
        minibatch: usize,
        epochs: usize,
        seed: u64,
    ) -> std::io::Result<TrainLog> {
        let sampler =
            epoch_sampler(dataset, SamplerConfig { minibatch, num_ranks: 1, buckets: 1, seed })?;
        let run = self.run(epoch_batches(dataset, &sampler, epochs, 0), None, None);
        match run.error {
            Some(e) => Err(e),
            None => Ok(run.log),
        }
    }

    /// The step loop of every training entry point: one step per minibatch
    /// `batches` yields, until it runs dry, a read fails, or `max_steps`
    /// steps are done.
    ///
    /// With a `seat`, this is one rank of a synchronous data-parallel run:
    /// gradients and the `[loss·used, used, leave]` statistics are reduced
    /// across ranks between the two halves of each step, and the logged
    /// loss is the global one. A rank left without a minibatch cannot just
    /// stop, because its peers are already committed to the step's
    /// collectives and would block forever. It steps with an empty
    /// minibatch (zero gradients) and raises the leave bit through the
    /// reduction instead, so every rank leaves at the same synchronization
    /// point, before the update: the replicas stay bit-identical and the
    /// partial round trains nobody.
    ///
    /// A step whose minibatch had no used trace on any rank (a frozen net
    /// dropped them all) is empty: it applies no update (see
    /// [`Trainer::update`]) and, like the leave round, is left out of the
    /// loss log, the timings and the communication count, so `max_steps`
    /// and every per-step figure count optimizer steps only.
    pub(crate) fn run(
        &mut self,
        mut batches: impl Iterator<Item = std::io::Result<Vec<TraceRecord>>>,
        seat: Option<&RankSeat<'_>>,
        max_steps: Option<usize>,
    ) -> RankRun {
        let start = Instant::now();
        let mut run = RankRun::default();
        while max_steps.is_none_or(|cap| run.log.losses.len() < cap) {
            let read_started = Instant::now();
            let next = batches.next();
            let batch_read = read_started.elapsed();
            let (records, leave) = match next {
                Some(Ok(records)) => (records, false),
                Some(Err(e)) => {
                    run.error = Some(e);
                    (Vec::new(), true)
                }
                None => (Vec::new(), true),
            };
            if leave && seat.is_none() {
                break;
            }
            self.tel.span_record("train.batch_read", batch_read);
            let step_span = self.tel.span("train.step");
            let mut res = accumulate_minibatch(&mut self.net, &records);
            res.timings.batch_read = batch_read.as_secs_f64();
            let (mut loss, mut used) = (res.loss, res.used);
            let mut comm_elems = 0;
            if let Some(seat) = seat {
                let sync_started = Instant::now();
                comm_elems = seat.average_gradients(&mut self.net);
                let mut stats = [
                    (res.loss * res.used as f64) as f32,
                    res.used as f32,
                    f32::from(u8::from(leave)),
                ];
                seat.ctx.reduce_sum(seat.rank, &mut stats);
                let sync = sync_started.elapsed();
                res.timings.sync = sync.as_secs_f64();
                self.tel.span_record("train.allreduce_wait", sync);
                if stats[2] > 0.0 {
                    break;
                }
                used = stats[1] as usize;
                loss = f64::from(stats[0]) / f64::from(stats[1]);
            }
            let stepped = self.update(&mut res, used);
            drop(step_span);
            if stepped {
                run.log.losses.push((run.log.losses.len(), loss));
                run.log.traces_seen += res.used;
                run.timings.push(res.timings);
                run.comm_elems += comm_elems;
            }
        }
        run.log.wall_secs = start.elapsed().as_secs_f64();
        run
    }
}

/// What one rank's step loop ([`Trainer::run`]) leaves behind.
#[derive(Debug, Default)]
pub(crate) struct RankRun {
    /// Logged loss of every completed step, traces used, loop wall time.
    pub log: TrainLog,
    /// Phase timings of every completed step.
    pub timings: Vec<PhaseTimings>,
    /// Scalar elements this rank communicated over the completed steps.
    pub comm_elems: usize,
    /// The minibatch read error that ended the loop, if one did.
    pub error: Option<std::io::Error>,
}

/// The sampler that plans a dataset's epochs.
pub(crate) fn epoch_sampler(
    dataset: &TraceDataset,
    cfg: SamplerConfig,
) -> std::io::Result<DistributedSampler> {
    let meta = (0..dataset.len()).map(|i| dataset.meta(i)).collect();
    DistributedSampler::try_new(meta, cfg)
}

/// Rank `rank`'s minibatches over `epochs` epochs of the sampler's plan,
/// each read from the dataset when the loop asks for it.
pub(crate) fn epoch_batches<'a>(
    dataset: &'a TraceDataset,
    sampler: &'a DistributedSampler,
    epochs: usize,
    rank: usize,
) -> impl Iterator<Item = std::io::Result<Vec<TraceRecord>>> + 'a {
    (0..epochs)
        .flat_map(move |e| sampler.epoch(e).per_rank.swap_remove(rank))
        .map(|minibatch| dataset.get_many(&minibatch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IcConfig;
    use etalumis_core::Executor;
    use etalumis_nn::{Adam, LrSchedule};
    use etalumis_simulators::BranchingModel;

    fn records(n: usize) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s as u64), true))
            .collect()
    }

    #[test]
    fn sub_minibatch_split_is_exhaustive_and_homogeneous() {
        let recs = records(40);
        let subs = sub_minibatches(&recs);
        let total: usize = subs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 40);
        for sub in &subs {
            let t = sub[0].trace_type;
            assert!(sub.iter().all(|r| r.trace_type == t));
        }
    }

    #[test]
    fn trainer_reduces_loss_over_steps() {
        let recs = records(48);
        let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 1));
        net.pregenerate(recs.iter());
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(2e-3)));
        trainer.grad_clip = Some(10.0);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..50 {
            let res = trainer.step(&recs);
            assert_eq!(res.used, 48);
            assert_eq!(res.dropped, 0);
            if it == 0 {
                first = res.loss;
            }
            last = res.loss;
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn train_epochs_surfaces_shard_errors_instead_of_panicking() {
        use etalumis_data::generate_dataset;
        use etalumis_simulators::BranchingModel;
        let dir = std::env::temp_dir().join(format!("etalumis_tr_err_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 24, 12, &dir, 5, true).unwrap();
        let all: Vec<usize> = (0..ds.len()).collect();
        let pregen = ds.get_many(&all).unwrap();
        let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 1));
        net.pregenerate(pregen.iter());
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
        // Healthy dataset trains fine.
        assert!(trainer.train_epochs(&ds, 8, 1, 0).is_ok());
        // Truncate a shard under the open dataset: the next epoch's reads
        // must return the I/O error, not abort the process.
        let bytes = std::fs::read(&ds.shards[0]).unwrap();
        std::fs::write(&ds.shards[0], &bytes[..bytes.len() / 2]).unwrap();
        let res = trainer.train_epochs(&ds, 8, 1, 0);
        assert!(res.is_err(), "a truncated shard must surface as Err, not a panic");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_does_not_change_weights() {
        let recs = records(16);
        let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 2));
        net.pregenerate(recs.iter());
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
        let mut before = Vec::new();
        trainer.net.visit_params("", &mut |_, p| before.push(p.value.clone()));
        let l1 = trainer.evaluate(&recs);
        let l2 = trainer.evaluate(&recs);
        assert_eq!(l1, l2);
        let mut after = Vec::new();
        trainer.net.visit_params("", &mut |_, p| after.push(p.value.clone()));
        assert_eq!(before, after);
    }
}
