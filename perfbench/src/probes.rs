//! Observe-only wrappers around the public traits the layers call back
//! through. Each forwards every call unchanged and adds the time spent
//! inside it (and a few counts) to a shared [`Probe`].
//!
//! * [`TimedProgram`] — `ProbProgram`: simulator self time is the time in
//!   `run` minus the time in the `SimCtx` calls it makes (the executor, the
//!   proposer, or the PPX round trip on the far side of those calls).
//! * [`TimedProvider`] — `ProposalProvider`: `begin_trace` (the obs-CNN
//!   embedding), `propose` (LSTM + proposal heads) and `notify`.
//! * [`ProbeEndpoint`] — `MuxEndpoint`: frames and bytes in both
//!   directions, the Run → RunResult round trip of every trace, and (when
//!   timed) the time inside the endpoint calls.
//! * [`StepClock`] — `Optimizer`: a timestamp per optimizer step.

use etalumis_core::{Address, ProbProgram, RunError, SimCtx};
use etalumis_distributions::{Distribution, Value};
use etalumis_inference::ProposalProvider;
use etalumis_nn::{Optimizer, Parameter};
use etalumis_ppx::{Message, MuxEndpoint, PpxError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A timed call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    SimRun,
    SimCtx,
    Embed,
    Propose,
    Notify,
    Endpoint,
}

const SITES: usize = 6;

/// Shared accumulators. All counters are statistics that publish no other
/// data, hence `Relaxed`.
#[derive(Debug)]
pub struct Probe {
    /// Time the endpoint calls (off in untraced runs, which only count).
    pub timed: bool,
    ns: [AtomicU64; SITES],
    calls: [AtomicU64; SITES],
    pub fallbacks: AtomicU64,
    pub frames_in: AtomicU64,
    pub frames_out: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub runs_sent: AtomicU64,
    /// Run → RunResult round trips, in ms.
    round_trips: Mutex<Vec<f64>>,
}

impl Probe {
    pub fn new(timed: bool) -> Arc<Self> {
        Arc::new(Self {
            timed,
            ns: Default::default(),
            calls: Default::default(),
            fallbacks: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            runs_sent: AtomicU64::new(0),
            round_trips: Mutex::new(Vec::new()),
        })
    }

    fn add(&self, site: Site, d: Duration) {
        self.ns[site as usize].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.calls[site as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Total seconds spent inside `site`.
    pub fn secs(&self, site: Site) -> f64 {
        self.ns[site as usize].load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self, site: Site) -> u64 {
        self.calls[site as usize].load(Ordering::Relaxed)
    }

    pub fn count(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Simulator self time: `run` minus the `SimCtx` calls nested in it.
    pub fn sim_self_secs(&self) -> f64 {
        (self.secs(Site::SimRun) - self.secs(Site::SimCtx)).max(0.0)
    }

    /// Time inside the proposal provider.
    pub fn nn_secs(&self) -> f64 {
        self.secs(Site::Embed) + self.secs(Site::Propose) + self.secs(Site::Notify)
    }

    /// Current totals, for before/after differences around one run.
    pub fn snapshot(&self) -> ProbeTotals {
        let c = Self::count;
        ProbeTotals {
            sim_self_s: self.sim_self_secs(),
            endpoint_s: self.secs(Site::Endpoint),
            frames: (c(&self.frames_in) + c(&self.frames_out)) as f64,
            bytes: (c(&self.bytes_in) + c(&self.bytes_out)) as f64,
            runs_sent: c(&self.runs_sent) as f64,
        }
    }

    /// Take the recorded round trips (ms).
    pub fn take_round_trips(&self) -> Vec<f64> {
        self.round_trips.lock().map(|mut v| std::mem::take(&mut *v)).unwrap_or_default()
    }

    fn push_round_trip(&self, ms: f64) {
        if let Ok(mut v) = self.round_trips.lock() {
            v.push(ms);
        }
    }
}

/// A [`Probe::snapshot`]; subtract two to get one run's share.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeTotals {
    pub sim_self_s: f64,
    pub endpoint_s: f64,
    pub frames: f64,
    pub bytes: f64,
    pub runs_sent: f64,
}

impl std::ops::Sub for ProbeTotals {
    type Output = ProbeTotals;
    fn sub(self, o: ProbeTotals) -> ProbeTotals {
        ProbeTotals {
            sim_self_s: self.sim_self_s - o.sim_self_s,
            endpoint_s: self.endpoint_s - o.endpoint_s,
            frames: self.frames - o.frames,
            bytes: self.bytes - o.bytes,
            runs_sent: self.runs_sent - o.runs_sent,
        }
    }
}

fn timed<T>(probe: &Probe, site: Site, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    probe.add(site, t.elapsed());
    out
}

/// `ProbProgram` wrapper.
pub struct TimedProgram<P> {
    inner: P,
    probe: Arc<Probe>,
}

impl<P> TimedProgram<P> {
    pub fn new(inner: P, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<P: ProbProgram> ProbProgram for TimedProgram<P> {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        let probe = &*self.probe;
        let inner = &mut self.inner;
        timed(probe, Site::SimRun, || inner.run(&mut TimedCtx { inner: ctx, probe }))
    }

    fn try_run(&mut self, ctx: &mut dyn SimCtx) -> Result<Value, RunError> {
        let probe = &*self.probe;
        let inner = &mut self.inner;
        timed(probe, Site::SimRun, || inner.try_run(&mut TimedCtx { inner: ctx, probe }))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The `SimCtx` a [`TimedProgram`] hands its program: times the calls
/// that leave the simulator.
struct TimedCtx<'a> {
    inner: &'a mut dyn SimCtx,
    probe: &'a Probe,
}

impl SimCtx for TimedCtx<'_> {
    fn sample_ext(
        &mut self,
        dist: &Distribution,
        name: &str,
        control: bool,
        replace: bool,
    ) -> Value {
        let inner = &mut *self.inner;
        timed(self.probe, Site::SimCtx, || inner.sample_ext(dist, name, control, replace))
    }

    fn observe(&mut self, dist: &Distribution, name: &str) -> Value {
        let inner = &mut *self.inner;
        timed(self.probe, Site::SimCtx, || inner.observe(dist, name))
    }

    fn tag(&mut self, name: &str, value: Value) {
        let inner = &mut *self.inner;
        timed(self.probe, Site::SimCtx, || inner.tag(name, value))
    }

    fn push_scope(&mut self, scope: &str) {
        self.inner.push_scope(scope)
    }

    fn pop_scope(&mut self) {
        self.inner.pop_scope()
    }

    fn sample_with_address(
        &mut self,
        address_base: &str,
        dist: &Distribution,
        name: &str,
        control: bool,
        replace: bool,
    ) -> Value {
        let inner = &mut *self.inner;
        timed(self.probe, Site::SimCtx, || {
            inner.sample_with_address(address_base, dist, name, control, replace)
        })
    }

    fn observe_with_address(
        &mut self,
        address_base: &str,
        dist: &Distribution,
        name: &str,
    ) -> Value {
        let inner = &mut *self.inner;
        timed(self.probe, Site::SimCtx, || inner.observe_with_address(address_base, dist, name))
    }
}

/// `ProposalProvider` wrapper.
pub struct TimedProvider<'a, P> {
    inner: &'a mut P,
    probe: &'a Probe,
}

impl<'a, P> TimedProvider<'a, P> {
    pub fn new(inner: &'a mut P, probe: &'a Probe) -> Self {
        Self { inner, probe }
    }
}

impl<P: ProposalProvider> ProposalProvider for TimedProvider<'_, P> {
    fn begin_trace(&mut self, observation: &Value) {
        let inner = &mut *self.inner;
        timed(self.probe, Site::Embed, || inner.begin_trace(observation))
    }

    fn propose(&mut self, address: &Address, prior: &Distribution) -> Option<Distribution> {
        let inner = &mut *self.inner;
        let q = timed(self.probe, Site::Propose, || inner.propose(address, prior));
        if q.is_none() {
            self.probe.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        q
    }

    fn notify(&mut self, address: &Address, prior: &Distribution, value: &Value) {
        let inner = &mut *self.inner;
        timed(self.probe, Site::Notify, || inner.notify(address, prior, value))
    }
}

/// `MuxEndpoint` wrapper (controller side of one PPX session).
pub struct ProbeEndpoint {
    inner: Box<dyn MuxEndpoint>,
    probe: Arc<Probe>,
    run_tag: u8,
    result_tag: u8,
    run_started: Option<Instant>,
}

impl ProbeEndpoint {
    pub fn new(inner: Box<dyn MuxEndpoint>, probe: Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            run_tag: Message::Run { observation: Value::Unit }.tag_byte(),
            result_tag: Message::RunResult { result: Value::Unit }.tag_byte(),
            run_started: None,
        }
    }

    fn call<T>(&mut self, f: impl FnOnce(&mut dyn MuxEndpoint) -> T) -> T {
        if self.probe.timed {
            let t = Instant::now();
            let out = f(&mut *self.inner);
            self.probe.add(Site::Endpoint, t.elapsed());
            out
        } else {
            f(&mut *self.inner)
        }
    }
}

impl MuxEndpoint for ProbeEndpoint {
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        let frame = self.call(|ep| ep.poll_frame())?;
        if let Some(payload) = &frame {
            self.probe.frames_in.fetch_add(1, Ordering::Relaxed);
            self.probe.bytes_in.fetch_add(payload.len() as u64, Ordering::Relaxed);
            if payload.first() == Some(&self.result_tag) {
                if let Some(t) = self.run_started.take() {
                    self.probe.push_round_trip(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        Ok(frame)
    }

    fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
        self.probe.frames_out.fetch_add(1, Ordering::Relaxed);
        self.probe.bytes_out.fetch_add(payload.len() as u64, Ordering::Relaxed);
        if payload.first() == Some(&self.run_tag) {
            self.probe.runs_sent.fetch_add(1, Ordering::Relaxed);
            self.run_started = Some(Instant::now());
        }
        self.call(|ep| ep.send_frame(payload))
    }

    fn flush(&mut self) -> Result<bool, PpxError> {
        self.call(|ep| ep.flush())
    }
}

/// `Optimizer` wrapper recording when each step's update begins; the gaps
/// are the trainer's step periods (compute plus any wait for data).
pub struct StepClock<O> {
    inner: O,
    pub step_starts: Vec<Instant>,
}

impl<O> StepClock<O> {
    pub fn new(inner: O) -> Self {
        Self { inner, step_starts: Vec::new() }
    }

    /// Gaps between consecutive steps, in ms.
    pub fn periods_ms(&self) -> Vec<f64> {
        self.step_starts.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3).collect()
    }
}

impl<O: Optimizer> Optimizer for StepClock<O> {
    fn begin_step(&mut self) {
        self.step_starts.push(Instant::now());
        self.inner.begin_step()
    }

    fn update(&mut self, name: &str, p: &mut Parameter) {
        self.inner.update(name, p)
    }

    fn current_lr(&self) -> f64 {
        self.inner.current_lr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_bench::{bench_ic_config, bench_tau_model, tau_records};
    use etalumis_core::{Executor, ObserveMap};
    use etalumis_data::TraceRecord;
    use etalumis_inference::ic_importance_sampling;
    use etalumis_nn::{Adam, LrSchedule};
    use etalumis_ppx::{InProcMuxEndpoint, SimulatorServer};
    use etalumis_runtime::{BatchRunner, CollectSink, MuxSimulatorPool, RuntimeConfig};
    use etalumis_simulators::TauDecayModel;
    use etalumis_train::{IcNetwork, Trainer};

    #[test]
    fn timed_program_leaves_traces_bit_identical() {
        let probe = Probe::new(true);
        let mut plain = bench_tau_model();
        let mut wrapped = TimedProgram::new(bench_tau_model(), probe.clone());
        for seed in 0..8 {
            let a = Executor::sample_prior(&mut plain, seed);
            let b = Executor::sample_prior(&mut wrapped, seed);
            assert_eq!(a.log_weight().to_bits(), b.log_weight().to_bits());
            assert_eq!(TraceRecord::from_trace(&a, false), TraceRecord::from_trace(&b, false));
        }
        assert_eq!(probe.calls(Site::SimRun), 8);
        assert!(probe.calls(Site::SimCtx) >= 8 * 4);
        assert!(probe.secs(Site::SimRun) >= probe.secs(Site::SimCtx));
    }

    #[test]
    fn timed_provider_leaves_log_weights_bit_identical() {
        let records = tau_records(16, 5);
        let mut net = IcNetwork::new(bench_ic_config(3));
        net.pregenerate(records.iter());
        let mut model = bench_tau_model();
        let truth = Executor::sample_prior(&mut model, 99);
        let mut observes = ObserveMap::new();
        observes
            .insert(TauDecayModel::OBSERVE_NAME.into(), truth.first_observed().unwrap().clone());
        let name = TauDecayModel::OBSERVE_NAME;
        let plain = ic_importance_sampling(&mut model, &observes, name, &mut net, 6, 11);
        let probe = Probe::new(true);
        let mut provider = TimedProvider::new(&mut net, &probe);
        let wrapped = ic_importance_sampling(&mut model, &observes, name, &mut provider, 6, 11);
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.log_weights), bits(&wrapped.log_weights));
        assert_eq!(probe.calls(Site::Embed), 6);
        assert!(probe.calls(Site::Propose) > 0 && probe.calls(Site::Notify) > 0);
    }

    fn mux_traces(probe: Option<Arc<Probe>>) -> Vec<TraceRecord> {
        let mut servers = Vec::new();
        let handles = Arc::new(Mutex::new(Vec::new()));
        let spawned = handles.clone();
        let mut pool = MuxSimulatorPool::connect(2, "perfbench-test", move |_| {
            let (ep, mut sim_side) = InProcMuxEndpoint::pair();
            let h = std::thread::spawn(move || {
                SimulatorServer::new("perfbench-test", bench_tau_model()).serve(&mut sim_side)
            });
            spawned.lock().unwrap().push(h);
            let ep: Box<dyn MuxEndpoint> = Box::new(ep);
            Ok(match &probe {
                Some(p) => Box::new(ProbeEndpoint::new(ep, p.clone())) as Box<dyn MuxEndpoint>,
                None => ep,
            })
        })
        .unwrap();
        let sink = CollectSink::new(12);
        BatchRunner::new(RuntimeConfig { workers: 1, stealing: true }).run_mux_prior(
            &mut pool,
            &ObserveMap::new(),
            12,
            21,
            &sink,
        );
        drop(pool);
        servers.append(&mut handles.lock().unwrap());
        for h in servers {
            h.join().unwrap().unwrap();
        }
        sink.into_traces().iter().map(|t| TraceRecord::from_trace(t, true)).collect()
    }

    #[test]
    fn probe_endpoint_leaves_mux_traces_bit_identical() {
        let probe = Probe::new(true);
        let plain = mux_traces(None);
        let wrapped = mux_traces(Some(probe.clone()));
        assert_eq!(plain, wrapped);
        assert_eq!(Probe::count(&probe.runs_sent), 12);
        assert_eq!(probe.take_round_trips().len(), 12);
        assert!(Probe::count(&probe.frames_in) > 12 && Probe::count(&probe.bytes_out) > 0);
        assert!(probe.calls(Site::Endpoint) > 0);
    }

    #[test]
    fn step_clock_leaves_losses_bit_identical() {
        let records = tau_records(24, 9);
        let run = |clocked: bool| {
            let mut net = IcNetwork::new(bench_ic_config(4));
            net.pregenerate(records.iter());
            let adam = Adam::new(LrSchedule::Constant(1e-3));
            let losses: Vec<u64> = if clocked {
                let mut t = Trainer::new(net, StepClock::new(adam));
                let l = records.chunks(8).map(|c| t.step(c).loss.to_bits()).collect();
                assert_eq!(t.opt.step_starts.len(), 3);
                l
            } else {
                let mut t = Trainer::new(net, adam);
                records.chunks(8).map(|c| t.step(c).loss.to_bits()).collect()
            };
            losses
        };
        assert_eq!(run(false), run(true));
    }
}
