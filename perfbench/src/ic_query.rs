//! `ic_query`: posterior queries from one client. Set-up trains an IC
//! network on prior traces; the timed phase answers a closed loop of
//! queries, each one `ic_importance_sampling` call, cycling over fixed
//! observations drawn from the seed.

use crate::common::{Opts, Outcome};
use crate::probes::{Probe, Site, TimedProgram, TimedProvider};
use crate::report::{median, peak_rss_mb, percentile};
use etalumis_bench::{bench_ic_config, bench_tau_model, tau_records};
use etalumis_core::{Executor, ObserveMap, Trace};
use etalumis_data::TraceRecord;
use etalumis_inference::diagnostics::gelman_rubin;
use etalumis_inference::{
    ic_importance_sampling, rmh_with_callback, total_variation, Histogram, RmhConfig,
    WeightedTraces,
};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_runtime::mix_seed;
use etalumis_simulators::TauDecayModel;
use etalumis_telemetry::Telemetry;
use etalumis_train::{sub_minibatches, IcNetwork, StepResult, Trainer};
use std::time::{Duration, Instant};

const TRAIN_TRACES: usize = 1024;
const TRAIN_STEPS: usize = 200;
const BATCH: usize = 32;
const VALID: usize = 256;
/// Fixed observations the queries cycle over.
const OBSERVATIONS: usize = 128;
/// IC traces per query.
const K: usize = 32;
/// `useful_ratio` (ESS per IC trace) is taken over this fixed prefix of
/// queries, so it is a pure function of the seed.
const QUALITY_QUERIES: usize = 512;
const SETUPS: usize = 3;
/// Queries per throughput round.
const ROUND: usize = 16;
/// Observations with an RMH reference (traced run).
const REFERENCE_OBS: usize = 2;
const RMH_ITERS: usize = 16_000;
const IC_REFERENCE_TRACES: usize = 512;

const OBS: &str = TauDecayModel::OBSERVE_NAME;

struct Setup {
    net: IcNetwork,
    observes: Vec<ObserveMap>,
    steps: Vec<StepResult>,
    flops: u64,
    valid_loss: f64,
    rmh: Reference,
}

/// Set-up: prior traces, 200 training steps, the observations, and the RMH
/// reference posteriors.
fn setup(seed: u64) -> Setup {
    let records = tau_records(TRAIN_TRACES, mix_seed(seed, 0));
    let mut net = IcNetwork::new(bench_ic_config(mix_seed(seed, 1)));
    net.pregenerate(records.iter());
    let mut trainer = Trainer::new(
        net,
        Adam::new(LrSchedule::Polynomial {
            initial: 1e-3,
            final_lr: 1e-4,
            order: 2,
            total_iters: TRAIN_STEPS,
        }),
    );
    trainer.grad_clip = Some(10.0);
    let mut steps = Vec::with_capacity(TRAIN_STEPS);
    let mut forward_flops = 0u64;
    for step in 0..TRAIN_STEPS {
        let lo = (step * BATCH) % records.len();
        let batch = &records[lo..(lo + BATCH).min(records.len())];
        forward_flops += sub_minibatches(batch)
            .iter()
            .map(|s| trainer.net.forward_flops(s.len(), s[0].num_controlled()))
            .sum::<u64>();
        steps.push(trainer.step(batch));
    }
    let valid: Vec<TraceRecord> = tau_records(VALID, mix_seed(seed, 4));
    let valid_loss = trainer.evaluate(&valid);
    let mut model = bench_tau_model();
    let observes = (0..OBSERVATIONS)
        .map(|j| {
            let truth = Executor::sample_prior(&mut model, mix_seed(mix_seed(seed, 2), j));
            let mut o = ObserveMap::new();
            if let Some(v) = truth.first_observed() {
                o.insert(OBS.into(), v.clone());
            }
            o
        })
        .collect::<Vec<_>>();
    let rmh = rmh_reference(seed, &observes);
    Setup {
        net: trainer.net,
        observes,
        steps,
        flops: etalumis_tensor::flops::training_flops(forward_flops),
        valid_loss,
        rmh,
    }
}

fn query_seed(seed: u64, q: usize) -> u64 {
    mix_seed(mix_seed(seed, 3), q)
}

/// Output checks of one query.
fn check_query(out: &mut Outcome, q: usize, w: &WeightedTraces) -> f64 {
    let finite = w.log_weights.iter().all(|l| l.is_finite());
    out.check(finite, || format!("query {q}: non-finite log-weight"));
    let ess = w.effective_sample_size();
    out.check(ess >= 1.0, || format!("query {q}: ESS {ess} < 1"));
    out.tally.add(1, u64::from(!finite || ess.is_nan() || ess < 1.0));
    ess
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if opts.trace {
        return traced(opts, out);
    }
    let mut setup_s = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let next = setup(opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &s {
            let same = prev.valid_loss.to_bits() == next.valid_loss.to_bits()
                && prev.rmh.rhat.to_bits() == next.rmh.rhat.to_bits();
            out.check(same, || "repeated set-ups built different networks or references".into());
        }
        s = Some(next);
    }
    let mut s = s.ok_or("no set-up")?;
    let mut model = bench_tau_model();

    let started = Instant::now();
    let (mut latencies, mut ess_sum, mut quality_ess) = (Vec::new(), 0.0, 0.0);
    let (mut rounds, mut round_started) = (Vec::new(), Instant::now());
    let (mut round_latencies, mut round_p50s) = (Vec::new(), Vec::new());
    let mut q = 0usize;
    while opts.window_open(started) || q < QUALITY_QUERIES {
        let t = Instant::now();
        let w = ic_importance_sampling(
            &mut model,
            &s.observes[q % OBSERVATIONS],
            OBS,
            &mut s.net,
            K,
            query_seed(opts.seed, q),
        );
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        round_latencies.push(ms);
        let ess = check_query(&mut out, q, &w);
        ess_sum += ess;
        if q < QUALITY_QUERIES {
            quality_ess += ess;
        }
        q += 1;
        if q.is_multiple_of(ROUND) {
            rounds.push((ROUND * K) as f64 / round_started.elapsed().as_secs_f64());
            round_p50s.push(median(&round_latencies));
            round_latencies.clear();
            round_started = Instant::now();
        }
    }
    let wall = started.elapsed().as_secs_f64();
    // The median round of queries: steadier than the total under CPU
    // contention.
    let rate = median(&rounds);
    let p50 = percentile(&latencies, 50.0).ok_or("no queries")?;
    let p90 = percentile(&latencies, 90.0).ok_or("no queries")?;
    let ess_per_trace = quality_ess / (QUALITY_QUERIES * K) as f64;
    let tv = posterior_tv(opts.seed, &mut s);

    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_s), "s")?;
    m.set("traces_per_s", rate, "traces/s")?;
    // The median round's median query latency, like `traces_per_s`.
    m.set("op_p50_ms", median(&round_p50s), "ms")?;
    m.set("useful_ratio", ess_per_trace, "ratio")?;
    m.set("success_ratio", out.tally.success_ratio(), "ratio")?;
    m.set("peak_rss_mb", peak_rss_mb()?, "MB")?;
    out.note(format!(
        "ic_traces_per_s = {rate:.1} traces/s (median over {} rounds of {ROUND} queries of {K} IC traces; \
         {:.1} over all {q} queries, {wall:.2} s)",
        rounds.len(),
        (q * K) as f64 / wall
    ));
    out.note(format!(
        "ess_per_s = {:.1} 1/s (importance ESS summed over all queries / timed wall)",
        ess_sum / wall
    ));
    out.note(format!("ess_per_trace = {ess_per_trace:.5} ratio (first {QUALITY_QUERIES} queries)"));
    out.note(format!(
        "query_p50_ms = {:.3} ms, query_p90_ms = {:.3} ms (n = {}, {} beyond p90)",
        p50.value, p90.value, p50.samples, p90.beyond
    ));
    out.note(format!(
        "valid_loss = {:.4} nats (IC network, {VALID} held-out prior traces)",
        s.valid_loss
    ));
    out.note(format!(
        "posterior_tv = {tv:.4} ratio (IC vs RMH over {} panels x {REFERENCE_OBS} observations; \
         RMH reference R-hat {:.3}, built in set-up in {:.2} s)",
        panels().len(),
        s.rmh.rhat,
        s.rmh.wall
    ));
    out.note(format!(
        "fail_ratio = {:.6} ({} of {} queries failed their checks)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    ));
    Ok(out)
}

/// The seven Fig. 8 panels: latent, histogram range and bins.
struct Panel {
    extract: fn(&Trace) -> Option<f64>,
    lo: f64,
    hi: f64,
    bins: usize,
}

fn base(t: &Trace, b: &str) -> Option<f64> {
    t.value_by_base(b).map(|v| v.as_f64())
}

fn name(t: &Trace, n: &str) -> Option<f64> {
    t.value_by_name(n).map(|v| v.as_f64())
}

fn panels() -> [Panel; 7] {
    [
        Panel { extract: |t| base(t, "tau/px[Uniform]"), lo: -2.5, hi: 2.5, bins: 20 },
        Panel { extract: |t| base(t, "tau/py[Uniform]"), lo: -2.5, hi: 2.5, bins: 20 },
        Panel { extract: |t| base(t, "tau/pz[Uniform]"), lo: 42.5, hi: 47.5, bins: 20 },
        Panel { extract: |t| base(t, "tau/channel[Categorical]"), lo: 0.0, hi: 38.0, bins: 38 },
        Panel { extract: |t| name(t, "fsp_energy1"), lo: 0.0, hi: 48.0, bins: 20 },
        Panel { extract: |t| name(t, "fsp_energy2"), lo: 0.0, hi: 48.0, bins: 20 },
        Panel { extract: |t| name(t, "met"), lo: 0.0, hi: 3.0, bins: 20 },
    ]
}

/// 2-chain RMH reference posteriors of the first observations.
struct Reference {
    /// Per reference observation, one histogram per panel.
    hists: Vec<Vec<Histogram>>,
    calls: usize,
    accepted: usize,
    proposed: usize,
    rhat: f64,
    wall: f64,
}

fn rmh_reference(seed: u64, observes: &[ObserveMap]) -> Reference {
    let ps = panels();
    let mut model = bench_tau_model();
    let t = Instant::now();
    let mut r =
        Reference { hists: Vec::new(), calls: 0, accepted: 0, proposed: 0, rhat: 0.0, wall: 0.0 };
    for (j, observes) in observes.iter().take(REFERENCE_OBS).enumerate() {
        let mut hists: Vec<Histogram> =
            ps.iter().map(|p| Histogram::new(p.lo, p.hi, p.bins)).collect();
        let mut px: Vec<Vec<f64>> = vec![Vec::new(); 2];
        for (chain, series) in px.iter_mut().enumerate() {
            let cfg = RmhConfig {
                iterations: RMH_ITERS,
                burn_in: RMH_ITERS / 4,
                thin: 1,
                seed: mix_seed(mix_seed(seed, 5), 2 * j + chain),
                rw_scale: 0.06,
                prior_kernel: false,
            };
            let stats = rmh_with_callback(&mut model, observes, &cfg, |_, t| {
                for (p, h) in ps.iter().zip(hists.iter_mut()) {
                    if let Some(x) = (p.extract)(t) {
                        h.add(x, 1.0);
                    }
                }
                series.push((ps[0].extract)(t).unwrap_or(0.0));
            });
            r.calls += stats.simulator_calls;
            r.accepted += stats.accepted;
            r.proposed += stats.proposed;
        }
        if j == 0 {
            let n = px[0].len().min(px[1].len());
            r.rhat = gelman_rubin(&[px[0][..n].to_vec(), px[1][..n].to_vec()]);
        }
        r.hists.push(hists);
    }
    r.wall = t.elapsed().as_secs_f64();
    r
}

/// Mean total variation of the IC posterior against the RMH reference,
/// over the reference observations and the Fig. 8 panels.
fn posterior_tv(seed: u64, s: &mut Setup) -> f64 {
    let ps = panels();
    let mut model = bench_tau_model();
    let mut tv = 0.0;
    for (observes, rmh) in s.observes.iter().zip(&s.rmh.hists) {
        let ic = ic_importance_sampling(
            &mut model,
            observes,
            OBS,
            &mut s.net,
            IC_REFERENCE_TRACES,
            mix_seed(seed, 6),
        );
        let weights = ic.normalized_weights();
        for (p, h) in ps.iter().zip(rmh) {
            let mut q = Histogram::new(p.lo, p.hi, p.bins);
            for (t, w) in ic.traces.iter().zip(&weights) {
                if let Some(x) = (p.extract)(t) {
                    q.add(x, *w);
                }
            }
            tv += total_variation(&h.normalized(), &q.normalized());
        }
    }
    tv / (ps.len() * s.rmh.hists.len()).max(1) as f64
}

/// Traced run: the same queries answered plain and through the wrappers
/// must give bit-identical log-weights.
fn traced(opts: &Opts, mut out: Outcome) -> Result<Outcome, String> {
    let tel = Telemetry::enabled();
    let t = Instant::now();
    let mut s = setup(opts.seed);
    tel.span_record("ic_query.setup", t.elapsed());
    tel.span_record("ic_query.setup.rmh_reference", Duration::from_secs_f64(s.rmh.wall));
    let mut model = bench_tau_model();
    let probe = Probe::new(true);
    let mut wrapped_model = TimedProgram::new(bench_tau_model(), probe.clone());
    let (mut plain_s, mut traced_s, mut traced_wall, mut ess_sum) = (0.0, 0.0, 0.0, 0.0);
    let (mut dispatch, mut controlled, mut traces) = ((0u64, 0u64), 0usize, 0usize);
    let started = Instant::now();
    let mut q = 0usize;
    while opts.window_open(started) || q < QUALITY_QUERIES {
        let (obs, seed) = (&s.observes[q % OBSERVATIONS], query_seed(opts.seed, q));
        let t = Instant::now();
        let plain = ic_importance_sampling(&mut model, obs, OBS, &mut s.net, K, seed);
        plain_s += t.elapsed().as_secs_f64();
        ess_sum += check_query(&mut out, q, &plain);

        etalumis_tensor::simd::take_dispatch_counts();
        let t = Instant::now();
        let mut provider = TimedProvider::new(&mut s.net, &probe);
        let w = ic_importance_sampling(&mut wrapped_model, obs, OBS, &mut provider, K, seed);
        let query = t.elapsed();
        let (a, b) = etalumis_tensor::simd::take_dispatch_counts();
        dispatch = (dispatch.0 + a, dispatch.1 + b);
        tel.span_record("ic_query.query", query);
        let bits =
            |w: &WeightedTraces| w.log_weights.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        out.check(bits(&w) == bits(&plain), || {
            format!("query {q}: traced log-weights differ from the untraced call")
        });
        controlled += w.traces.iter().map(|t| t.num_controlled()).sum::<usize>();
        traces += w.traces.len();
        drop(w);
        traced_s += query.as_secs_f64();
        traced_wall += t.elapsed().as_secs_f64();
        q += 1;
    }
    let nn = probe.nn_secs();
    let tv = posterior_tv(opts.seed, &mut s);
    let (steps, rmh) = (&s.steps, &s.rmh);
    let step_ms: Vec<f64> = steps
        .iter()
        .map(|r| (r.timings.forward + r.timings.backward + r.timings.optimizer) * 1e3)
        .collect();
    let train_s: f64 = step_ms.iter().sum::<f64>() * 1e-3;
    let used: usize = steps.iter().map(|r| r.used).sum();
    let seen: usize = steps.iter().map(|r| r.used + r.dropped).sum();
    let empty = steps.iter().filter(|r| r.used == 0 || !r.loss.is_finite()).count();
    let _ = crate::common::drain_trace(opts, &tel)?;

    let m = &mut out.metrics;
    m.set("simulators.self_s", probe.sim_self_secs(), "s")?;
    m.set("core.samples_per_trace", controlled as f64 / traces.max(1) as f64, "count")?;
    m.set("train.forward_s", steps.iter().map(|r| r.timings.forward).sum(), "s")?;
    m.set("train.backward_s", steps.iter().map(|r| r.timings.backward).sum(), "s")?;
    m.set("train.optimizer_s", steps.iter().map(|r| r.timings.optimizer).sum(), "s")?;
    m.set("train.step_p50_ms", median(&step_ms), "ms")?;
    m.set("train.used_ratio", used as f64 / seen.max(1) as f64, "ratio")?;
    m.set("train.empty_steps", empty as f64, "count")?;
    m.set(
        "train.sub_minibatches_per_step",
        steps.iter().map(|r| r.sub_minibatches as f64).sum::<f64>() / steps.len().max(1) as f64,
        "count",
    )?;
    m.set("tensor.train_gflops", s.flops as f64 * 1e-9 / train_s.max(1e-9), "GFLOP/s-model")?;
    m.set("tensor.dispatch_avx2", dispatch.0 as f64, "count")?;
    m.set("tensor.dispatch_scalar", dispatch.1 as f64, "count")?;
    m.set("nn.embed_s", probe.secs(Site::Embed), "s")?;
    m.set("nn.propose_s", probe.secs(Site::Propose), "s")?;
    m.set("nn.notify_s", probe.secs(Site::Notify), "s")?;
    m.set("inference.ic.executor_s", (traced_s - nn - probe.sim_self_secs()).max(0.0), "s")?;
    m.set(
        "inference.ic.prior_fallback_ratio",
        Probe::count(&probe.fallbacks) as f64 / probe.calls(Site::Propose).max(1) as f64,
        "ratio",
    )?;
    m.set("inference.rmh.calls_per_s", rmh.calls as f64 / rmh.wall.max(1e-9), "1/s")?;
    m.set("inference.rmh.acceptance", rmh.accepted as f64 / rmh.proposed.max(1) as f64, "ratio")?;
    m.set("inference.rmh.rhat", rmh.rhat, "ratio")?;
    m.set("quality.valid_loss", s.valid_loss, "nats")?;
    m.set("quality.posterior_tv", tv, "ratio")?;
    m.set("quality.ess_per_s", ess_sum / plain_s, "1/s")?;
    m.set("fail_ratio", out.tally.fail_ratio(), "ratio")?;
    m.set("telemetry.overhead_share", traced_s / plain_s - 1.0, "ratio")?;
    m.set("ic_query.unattributed_share", 1.0 - traced_s / traced_wall, "ratio")?;
    out.note(format!(
        "accounting over the traced queries ({traced_wall:.3} s wall, {q} queries): nn {nn:.3} s \
         (embed {:.3}, propose {:.3}, notify {:.3}), simulators {:.3} s self, IC executor {:.3} s, \
         unattributed {:.3} s (result checks and drops between queries)",
        probe.secs(Site::Embed),
        probe.secs(Site::Propose),
        probe.secs(Site::Notify),
        probe.sim_self_secs(),
        (traced_s - nn - probe.sim_self_secs()).max(0.0),
        traced_wall - traced_s,
    ));
    out.note(format!(
        "RMH reference: {REFERENCE_OBS} observations x 2 chains x {RMH_ITERS} iterations, {:.3} s; \
         posterior_tv = mean over {} panels",
        rmh.wall,
        panels().len()
    ));
    out.note("tensor.train_gflops is computed: IcNetwork::forward_flops x flops::training_flops over the set-up steps / step time".into());
    Ok(out)
}
