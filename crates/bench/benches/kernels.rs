//! Raw kernel throughput: GEMM and Conv3d GFLOP/s per backend.
//!
//! The compute spine of training is the blocked GEMM (LSTM + dense layers)
//! and the channels-blocked Conv3d (observation encoder: forward, input
//! gradient and weight gradient). This bench times
//! each micro-kernel under every dispatch choice — scalar fallback, AVX2+FMA
//! (when the host has it), and the pooled-parallel path — and snapshots
//! analytic GFLOP/s (via [`etalumis_tensor::flops`]) to `BENCH_kernels.json`
//! at the workspace root for CI to archive and gate with `perf_gate`.
//!
//! All backends produce bit-identical results (see the tensor crate's
//! `kernel_identity` proptests); this bench measures only speed.

use criterion::{criterion_group, criterion_main, Criterion};
use etalumis_tensor::conv::{conv3d_backward_data, conv3d_backward_weights, conv3d_blocked};
use etalumis_tensor::gemm::matmul;
use etalumis_tensor::simd::{avx2_available, set_backend_override, Backend};
use etalumis_tensor::{pool, Conv3dSpec, Tensor};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
    })
}

/// Time `f` for `reps` calls and return GFLOP/s given flops per call.
fn gflops(reps: usize, flops_per_call: u64, mut f: impl FnMut()) -> f64 {
    // One warmup call (page in buffers, resolve dispatch).
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (reps as u64 * flops_per_call) as f64 / secs / 1e9
}

/// The three measured configurations: (label, backend override, parallel).
fn configs() -> Vec<(&'static str, Option<Backend>, bool)> {
    let mut v = vec![("scalar", Some(Backend::Scalar), false)];
    if avx2_available() {
        v.push(("avx2", Some(Backend::Avx2Fma), false));
        v.push(("avx2_parallel", Some(Backend::Avx2Fma), true));
    } else {
        v.push(("scalar_parallel", Some(Backend::Scalar), true));
    }
    v
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let n = if quick() { 128 } else { 256 };
    let a = rand_tensor(&[n, n], 1);
    let b = rand_tensor(&[n, n], 2);
    for (label, backend, parallel) in configs() {
        set_backend_override(backend);
        pool::set_parallel(parallel);
        group.bench_function(&format!("gemm_{n}_{label}"), |bch| {
            bch.iter(|| black_box(matmul(black_box(&a), black_box(&b))))
        });
    }
    set_backend_override(None);
    pool::set_parallel(true);
    group.finish();
}

/// Not a timing loop: manual throughput sweep snapshotted to
/// `BENCH_kernels.json` (GEMM + Conv3d forward/backward GFLOP/s per
/// backend) for CI. Each Conv3d backward kernel does the forward's flops.
fn emit_snapshot(_c: &mut Criterion) {
    let (n, reps, conv_reps) = if quick() { (128, 20, 6) } else { (256, 20, 10) };
    let a = rand_tensor(&[n, n], 1);
    let b = rand_tensor(&[n, n], 2);
    let gemm_flops = 2 * (n as u64).pow(3);

    let spec = Conv3dSpec { in_c: 8, out_c: 16, k: 3, pad: 1 };
    let (d, h, w) = (8usize, 16, 16);
    let x = rand_tensor(&[2, spec.in_c, d, h, w], 3);
    let wt = rand_tensor(&[spec.out_c, spec.in_c, 3, 3, 3], 4);
    let bias = vec![0.1f32; spec.out_c];
    let conv_flops = spec.flops(2, d, h, w);
    let g = rand_tensor(&[2, spec.out_c, d, h, w], 5);

    let mut gemm_rows = String::new();
    let mut conv_rows = String::new();
    let mut bwd_data_rows = String::new();
    let mut bwd_weights_rows = String::new();
    for (i, (label, backend, parallel)) in configs().into_iter().enumerate() {
        set_backend_override(backend);
        pool::set_parallel(parallel);
        let gm = gflops(reps, gemm_flops, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        });
        let cv = gflops(conv_reps, conv_flops, || {
            black_box(conv3d_blocked(black_box(&x), black_box(&wt), &bias, &spec));
        });
        let bd = gflops(conv_reps, conv_flops, || {
            black_box(conv3d_backward_data(black_box(&g), black_box(&wt), &spec, (d, h, w)));
        });
        let bw = gflops(conv_reps, conv_flops, || {
            black_box(conv3d_backward_weights(black_box(&x), black_box(&g), &spec));
        });
        let sep = if i == 0 { "" } else { ",\n" };
        gemm_rows.push_str(&format!("{sep}      \"{label}_gflops\": {gm:.3}"));
        conv_rows.push_str(&format!("{sep}      \"{label}_gflops\": {cv:.3}"));
        bwd_data_rows.push_str(&format!("{sep}      \"{label}_gflops\": {bd:.3}"));
        bwd_weights_rows.push_str(&format!("{sep}      \"{label}_gflops\": {bw:.3}"));
        println!(
            "kernels[{label}]: gemm {gm:.2} GFLOP/s, conv3d {cv:.2} GFLOP/s \
             (backward data {bd:.2}, backward weights {bw:.2})"
        );
    }
    set_backend_override(None);
    pool::set_parallel(true);

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"quick\": {},\n  \"avx2_available\": {},\n  \
         \"pool_threads\": {},\n  \"gemm\": {{\n    \"m\": {n}, \"k\": {n}, \"n\": {n},\n    \
         \"gflops\": {{\n{gemm_rows}\n    }}\n  }},\n  \"conv3d\": {{\n    \
         \"in_c\": {}, \"out_c\": {}, \"dhw\": [{d}, {h}, {w}],\n    \
         \"gflops\": {{\n{conv_rows}\n    }}\n  }},\n  \"conv3d_backward_data\": {{\n    \
         \"gflops\": {{\n{bwd_data_rows}\n    }}\n  }},\n  \"conv3d_backward_weights\": {{\n    \
         \"gflops\": {{\n{bwd_weights_rows}\n    }}\n  }}\n}}\n",
        quick(),
        avx2_available(),
        pool::num_threads(),
        spec.in_c,
        spec.out_c,
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!("snapshot -> {}", path.display());
}

criterion_group!(benches, bench, emit_snapshot);
criterion_main!(benches);
