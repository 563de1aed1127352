//! Synchronous data-parallel IC training on rank threads (Algorithm 2),
//! with the per-phase instrumentation behind the paper's Figure 4.
//!
//! Run with: `cargo run --release --example distributed_training`

use etalumis_data::{generate_dataset, sort_dataset};
use etalumis_nn::LrSchedule;
use etalumis_simulators::BranchingModel;
use etalumis_train::{train_distributed, AllReduceStrategy, BatchSource, DistConfig, IcConfig};

fn main() {
    let dir = std::env::temp_dir().join(format!("etalumis_dist_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Offline mode: generate and sort a trace dataset (paper §4.4.3).
    let mut model = BranchingModel::standard();
    println!("generating 512 prior traces...");
    let ds = generate_dataset(&mut model, 512, 128, &dir, 1, true).unwrap();
    let ds = sort_dataset(&ds, &dir.join("sorted"), 128).unwrap();
    println!(
        "dataset: {} traces, {} trace types, sorted = {}",
        ds.len(),
        ds.num_trace_types(),
        ds.is_sorted()
    );

    // Two ranks, synchronous SGD with the sparse+concatenated allreduce.
    let source = BatchSource::Epochs {
        dataset: &ds,
        minibatch_per_rank: 16,
        epochs: 4,
        buckets: 1,
        seed: 7,
    };
    let dist = DistConfig {
        ranks: 2,
        strategy: AllReduceStrategy::SparseConcat,
        lr: LrSchedule::Polynomial { initial: 2e-3, final_lr: 2e-4, order: 2, total_iters: 60 },
        larc_trust: Some(1e-2),
        ..Default::default()
    };
    println!("\ntraining on {} rank threads (Adam-LARC, polynomial decay)...", dist.ranks);
    let (net, report) =
        train_distributed(source, IcConfig::small([1, 1, 1], 3), &dist).expect("dataset read");
    println!(
        "done: {} iterations, {} traces, {:.0} traces/s, loss {:.3} -> {:.3}",
        report.losses.len(),
        report.traces_total,
        report.traces_per_sec(),
        report.losses.first().unwrap(),
        report.losses.last().unwrap()
    );
    let mut net = net;
    use etalumis_nn::Module;
    println!("network parameters: {}", net.num_params());

    // Figure 4 style decomposition: actual (max-rank) vs best (mean-rank).
    let (actual, best) = report.actual_vs_best();
    println!("\nphase decomposition over the run (seconds):");
    println!("  {:<12} {:>10} {:>10}", "phase", "actual", "best");
    for (name, a, b) in [
        ("batch_read", actual.batch_read, best.batch_read),
        ("forward", actual.forward, best.forward),
        ("backward", actual.backward, best.backward),
        ("optimizer", actual.optimizer, best.optimizer),
        ("sync", actual.sync, best.sync),
    ] {
        println!("  {name:<12} {a:>10.4} {b:>10.4}");
    }
    // Over the work phases only: the slowest rank waits least at the
    // barrier, so `sync` would pull its total below the mean.
    let imb = (actual.work() / best.work() - 1.0) * 100.0;
    println!("  load imbalance: {imb:.1}%");
    println!(
        "  mean gradient elements communicated per rank-iteration: {:.0}",
        report.comm_elems_per_iter
    );
    let _ = std::fs::remove_dir_all(&dir);
}
