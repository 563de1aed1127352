//! The IC network's inference cache (the observation embedding and the
//! packed weight panels) never changes an answer: queries on a warm cache,
//! A/B/A alternation between observations, and a query right after a
//! training step or a direct weight edit all give log-weights bit-identical
//! to a freshly built network holding the same weights.

use etalumis_core::{Executor, ObserveMap};
use etalumis_data::TraceRecord;
use etalumis_distributions::Value;
use etalumis_inference::ic_importance_sampling;
use etalumis_nn::{Adam, LrSchedule, Module};
use etalumis_simulators::BranchingModel;
use etalumis_tensor::Tensor;
use etalumis_train::{IcConfig, IcNetwork, Trainer};

const SEED: u64 = 5;

fn records(n: usize) -> Vec<TraceRecord> {
    let mut m = BranchingModel::standard();
    (0..n)
        .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s as u64), true))
        .collect()
}

fn new_net(recs: &[TraceRecord]) -> IcNetwork {
    let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], SEED));
    net.pregenerate(recs.iter());
    net
}

fn weights(net: &mut IcNetwork) -> Vec<(String, Tensor)> {
    let mut w = Vec::new();
    net.visit_params("", &mut |n, p| w.push((n.to_string(), p.value.clone())));
    w
}

/// A network built from scratch, then loaded with `w`: its cache is cold.
fn fresh(recs: &[TraceRecord], w: &[(String, Tensor)]) -> IcNetwork {
    let mut net = new_net(recs);
    let mut i = 0;
    net.visit_params("", &mut |n, p| {
        assert_eq!(n, w[i].0);
        p.value = w[i].1.clone();
        i += 1;
    });
    net
}

/// Bit patterns of the log-weights of one 24-trace query for observation `y`.
fn query(net: &mut IcNetwork, y: f64, seed: u64) -> Vec<u64> {
    let mut model = BranchingModel::standard();
    let mut observes = ObserveMap::new();
    observes.insert("y".into(), Value::Real(y));
    let post = ic_importance_sampling(&mut model, &observes, "y", net, 24, seed);
    post.log_weights.iter().map(|w| w.to_bits()).collect()
}

#[test]
fn cached_queries_match_a_fresh_network_bitwise() {
    let recs = records(48);
    let mut trainer = Trainer::new(new_net(&recs), Adam::new(LrSchedule::Constant(5e-3)));
    for step in 0..3 {
        trainer.step(&recs[step * 16..(step + 1) * 16]);
    }
    let w = weights(&mut trainer.net);
    let (ya, yb) = (1.0, -0.7);

    // Cold, then warm: the second query reuses the embedding and panels.
    let cold = query(&mut trainer.net, ya, 11);
    let warm = query(&mut trainer.net, ya, 11);
    assert_eq!(cold, warm, "warm cache changed the answer");
    assert_eq!(warm, query(&mut fresh(&recs, &w), ya, 11), "warm cache vs fresh network");

    // A/B/A: a different observation must be re-embedded, and A again
    // must not see B's embedding.
    let a1 = query(&mut trainer.net, ya, 12);
    let b = query(&mut trainer.net, yb, 13);
    let a2 = query(&mut trainer.net, ya, 12);
    assert_eq!(a1, a2, "A after B differs from A before B");
    assert_eq!(a1, query(&mut fresh(&recs, &w), ya, 12), "A vs fresh network");
    assert_eq!(b, query(&mut fresh(&recs, &w), yb, 13), "B vs fresh network");
    assert_ne!(a1, query(&mut fresh(&recs, &w), yb, 12), "observations must matter");

    // A training step changes the weights; the next query must not use
    // panels or an embedding packed from the old ones.
    trainer.step(&recs[..16]);
    let after = query(&mut trainer.net, ya, 11);
    let w2 = weights(&mut trainer.net);
    assert_eq!(after, query(&mut fresh(&recs, &w2), ya, 11), "post-step query vs fresh network");
    assert_ne!(after, warm, "the step must change the answer");

    // A direct weight edit on a warm cache (no loss computed in between).
    trainer.net.visit_params("", &mut |_, p| p.value.scale(0.9));
    let edited = query(&mut trainer.net, ya, 11);
    let w3 = weights(&mut trainer.net);
    assert_eq!(edited, query(&mut fresh(&recs, &w3), ya, 11), "post-edit query vs fresh network");
    assert_ne!(edited, after, "the edit must change the answer");
}
