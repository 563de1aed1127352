//! Integration: the full inference-compilation pipeline — dataset
//! generation, sorting, distributed training, guided inference — improves
//! over prior-proposal importance sampling on the conjugate Gaussian model,
//! where the posterior is known exactly.

use etalumis::prelude::*;
use etalumis_data::{generate_dataset, sort_dataset, TraceRecord};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_train::{train_distributed, AllReduceStrategy, BatchSource, DistConfig, IcConfig};

#[test]
fn ic_beats_prior_is_on_conjugate_gaussian() {
    // Train an IC network for the conjugate Gaussian and verify the learned
    // proposal yields (a) correct posterior moments and (b) higher ESS than
    // prior proposals at equal sample budget.
    let mut model = GaussianUnknownMean::standard();
    let records: Vec<TraceRecord> = (0..1024)
        .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut model, s), true))
        .collect();
    let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 13));
    net.pregenerate(records.iter());
    let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(2e-3)));
    trainer.grad_clip = Some(10.0);
    for step in 0..400 {
        let lo = (step * 64) % records.len();
        let hi = (lo + 64).min(records.len());
        trainer.step(&records[lo..hi]);
    }
    // Note: the observation fed to the network is y0 (the conditioning
    // statement named in ic_importance_sampling).
    let ys = [1.3, 1.3];
    let mut obs = ObserveMap::new();
    obs.insert("y0".into(), Value::Real(ys[0]));
    obs.insert("y1".into(), Value::Real(ys[1]));
    let n = 3000;
    let post_ic = ic_importance_sampling(&mut model, &obs, "y0", &mut trainer.net, n, 5);
    let post_prior = importance_sampling(&mut model, &obs, n, 5);
    let f = |t: &etalumis_core::Trace| t.value_by_name("mu").unwrap().as_f64();
    let (am, astd) = model.posterior(&ys);
    let (im, istd) = post_ic.mean_std(f);
    assert!((im - am).abs() < 0.08, "IC mean {im} vs analytic {am}");
    assert!((istd - astd).abs() < 0.08, "IC std {istd} vs analytic {astd}");
    let ess_ic = post_ic.effective_sample_size();
    let ess_prior = post_prior.effective_sample_size();
    assert!(ess_ic > ess_prior, "trained proposals must beat prior ESS: {ess_ic} vs {ess_prior}");
}

#[test]
fn distributed_pipeline_runs_end_to_end_on_disk() {
    // generate -> sort -> distributed train -> guided inference, all
    // through the on-disk dataset path.
    let dir = std::env::temp_dir().join(format!("etalumis_it_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut model = etalumis_simulators::BranchingModel::standard();
    let ds = generate_dataset(&mut model, 256, 64, &dir, 11, true).unwrap();
    let sorted = sort_dataset(&ds, &dir.join("sorted"), 64).unwrap();
    assert!(sorted.is_sorted());
    let source = BatchSource::Epochs {
        dataset: &sorted,
        minibatch_per_rank: 16,
        epochs: 4,
        buckets: 1,
        seed: 3,
    };
    let dist = DistConfig {
        ranks: 2,
        strategy: AllReduceStrategy::SparseConcat,
        lr: LrSchedule::Constant(2e-3),
        ..Default::default()
    };
    let (mut net, report) =
        train_distributed(source, IcConfig::small([1, 1, 1], 21), &dist).unwrap();
    let n = report.losses.len();
    assert!(n >= 8);
    assert!(
        report.losses[n - 1] < report.losses[0],
        "loss {} -> {}",
        report.losses[0],
        report.losses[n - 1]
    );
    // Guided inference with the trained net.
    let mut obs = ObserveMap::new();
    obs.insert("y".into(), Value::Real(0.4));
    let post = ic_importance_sampling(&mut model, &obs, "y", &mut net, 500, 1);
    assert!(post.effective_sample_size() > 10.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn proptest_style_many_seeds_never_panic() {
    // Robustness: the whole prior/record path on the tau model across seeds.
    let mut model = TauDecayModel::default_model();
    for seed in 0..15 {
        let t = Executor::sample_prior(&mut model, seed * 7919);
        let rec = TraceRecord::from_trace(&t, true);
        assert!(rec.num_controlled() >= 4);
        assert!(t.log_joint().is_finite());
    }
}
