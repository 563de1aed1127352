//! Property tests: kernel results are bit-identical across dispatch choice
//! (AVX2 vs scalar fallback) and across serial vs pooled-parallel execution,
//! over arbitrary shapes — including non-multiples of 8 and empty dims.
//! The Conv3d backward kernels are also checked against naive scatter-loop
//! references.

use etalumis_tensor::gemm::{
    matmul, matmul_a_bt, matmul_acc_into, matmul_at_b, matmul_into, matmul_prepacked_into,
    pack_weights,
};
use etalumis_tensor::simd::{avx2_available, set_backend_override, Backend};
use etalumis_tensor::{activations, conv, pool, Conv3dSpec, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

/// Backend/pool toggles are process-global; tests that flip them serialize.
static KERNEL_CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 * 4.0 - 2.0
    })
}

/// Run `f` once per backend (scalar always, AVX2 where available) and
/// assert the returned buffers are bitwise equal.
fn assert_backend_identical<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T, ctx: &str) {
    set_backend_override(Some(Backend::Scalar));
    let scalar = f();
    if avx2_available() {
        set_backend_override(Some(Backend::Avx2Fma));
        let simd = f();
        set_backend_override(None);
        assert_eq!(scalar, simd, "scalar vs avx2: {ctx}");
    } else {
        set_backend_override(None);
    }
    pool::set_parallel(false);
    let serial = f();
    pool::set_parallel(true);
    let parallel = f();
    assert_eq!(serial, parallel, "serial vs parallel: {ctx}");
}

/// Under the active backend and pool setting: C = A·B and C += A·B through
/// the packing GEMMs must equal the same products on a pre-packed B, bit for
/// bit. Returns the four buffers for the cross-backend comparison.
fn prepacked_matches_packing(m: usize, k: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = rand_tensor(&[m, k], seed);
    let b = rand_tensor(&[k, n], seed ^ 0x3141);
    let base = rand_tensor(&[m, n], seed ^ 0x2718);
    let bp = pack_weights(b.data(), k, n);
    let mut plain = vec![f32::NAN; m * n];
    matmul_into(a.data(), b.data(), &mut plain, m, k, n);
    let mut pre = vec![f32::NAN; m * n];
    matmul_prepacked_into(a.data(), &bp, &mut pre, m, k, n, false);
    let mut plain_acc = base.data().to_vec();
    matmul_acc_into(a.data(), b.data(), &mut plain_acc, m, k, n);
    let mut pre_acc = base.data().to_vec();
    matmul_prepacked_into(a.data(), &bp, &mut pre_acc, m, k, n, true);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&plain), bits(&pre), "matmul_into vs prepacked {m}x{k}x{n}");
    assert_eq!(bits(&plain_acc), bits(&pre_acc), "matmul_acc_into vs prepacked {m}x{k}x{n}");
    vec![plain, pre, plain_acc, pre_acc]
}

/// Zero-pad every spatial side of an NCDHW tensor by `pad`.
fn pad_ncdhw(x: &Tensor, pad: usize) -> Tensor {
    let s = x.shape();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (pd, ph, pw) = (d + 2 * pad, h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[n, c, pd, ph, pw]);
    let od = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for di in 0..d {
                for hi in 0..h {
                    let src = ((((ni * c) + ci) * d + di) * h + hi) * w;
                    let dst = ((((ni * c) + ci) * pd + di + pad) * ph + hi + pad) * pw + pad;
                    od[dst..dst + w].copy_from_slice(&x.data()[src..src + w]);
                }
            }
        }
    }
    out
}

/// Naive input gradient: scatter every output gradient through the
/// weights into a padded buffer, then crop.
fn naive_backward_data(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &Conv3dSpec,
    (d, h, w): (usize, usize, usize),
) -> Tensor {
    let s = grad_out.shape();
    let (n, o, od, oh, ow) = (s[0], s[1], s[2], s[3], s[4]);
    let (c, k, pad) = (spec.in_c, spec.k, spec.pad);
    let (pd, ph, pw) = (d + 2 * pad, h + 2 * pad, w + 2 * pad);
    let (gd, wd) = (grad_out.data(), weight.data());
    let mut gpad = vec![0.0f32; n * c * pd * ph * pw];
    for ni in 0..n {
        let gimg = &mut gpad[ni * c * pd * ph * pw..(ni + 1) * c * pd * ph * pw];
        for oc in 0..o {
            for zo in 0..od {
                for yo in 0..oh {
                    let grow = (((ni * o + oc) * od + zo) * oh + yo) * ow;
                    for xo in 0..ow {
                        let g = gd[grow + xo];
                        for ci in 0..c {
                            for kz in 0..k {
                                for ky in 0..k {
                                    let wbase = ((((oc * c) + ci) * k + kz) * k + ky) * k;
                                    let xbase = (((ci * pd) + zo + kz) * ph + yo + ky) * pw + xo;
                                    for kx in 0..k {
                                        gimg[xbase + kx] += g * wd[wbase + kx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_fn(&[n, c, d, h, w], |i| {
        let (xi, rest) = (i % w, i / w);
        let (yi, rest) = (rest % h, rest / h);
        let (zi, nc) = (rest % d, rest / d);
        gpad[((nc * pd + zi + pad) * ph + yi + pad) * pw + xi + pad]
    })
}

/// Naive weight and bias gradients: scatter every output gradient times
/// its input window into the weight slab of its output channel.
fn naive_backward_weights(x: &Tensor, grad_out: &Tensor, spec: &Conv3dSpec) -> (Tensor, Vec<f32>) {
    let s = x.shape();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let so = grad_out.shape();
    let (o, od, oh, ow) = (so[1], so[2], so[3], so[4]);
    let k = spec.k;
    let (pd, ph, pw) = (d + 2 * spec.pad, h + 2 * spec.pad, w + 2 * spec.pad);
    let xp = pad_ncdhw(x, spec.pad);
    let (xd, gd) = (xp.data(), grad_out.data());
    let wlen = c * k * k * k;
    let mut gw = Tensor::zeros(&[o, c, k, k, k]);
    let mut gb = vec![0.0f32; o];
    for oc in 0..o {
        let wslab = &mut gw.data_mut()[oc * wlen..(oc + 1) * wlen];
        for ni in 0..n {
            for zo in 0..od {
                for yo in 0..oh {
                    let grow = (((ni * o + oc) * od + zo) * oh + yo) * ow;
                    for xo in 0..ow {
                        let g = gd[grow + xo];
                        gb[oc] += g;
                        for ci in 0..c {
                            for kz in 0..k {
                                for ky in 0..k {
                                    let wbase = (((ci * k) + kz) * k + ky) * k;
                                    let xbase =
                                        ((((ni * c) + ci) * pd + zo + kz) * ph + yo + ky) * pw + xo;
                                    for kx in 0..k {
                                        wslab[wbase + kx] += g * xd[xbase + kx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (gw, gb)
}

fn assert_close(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{ctx}: element {i}: {a} vs naive {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepacked_gemm_bit_identical_to_packing_gemm(
        m in 0usize..40,
        k in 0usize..300,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        assert_backend_identical(
            || prepacked_matches_packing(m, k, n, seed),
            &format!("prepacked {m}x{k}x{n}"),
        );
    }

    #[test]
    fn large_prepacked_gemm_crosses_parallel_threshold(
        m in 64usize..96,
        k in 48usize..90,
        n in 24usize..72,
        seed in 0u64..1_000_000,
    ) {
        // m·k·n >= 64·48·24 > the 64k parallel threshold: pooled chunking.
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        assert_backend_identical(
            || prepacked_matches_packing(m, k, n, seed),
            &format!("large prepacked {m}x{k}x{n}"),
        );
    }

    #[test]
    fn gemm_bit_identical_across_backends(
        m in 0usize..40,
        k in 0usize..70,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 0xABCD);
        assert_backend_identical(
            || matmul(&a, &b).into_data(),
            &format!("matmul {m}x{k}x{n}"),
        );
        assert_backend_identical(
            || matmul_a_bt(&a, &b.transpose2()).into_data(),
            &format!("matmul_a_bt {m}x{k}x{n}"),
        );
        assert_backend_identical(
            || matmul_at_b(&a.transpose2(), &b).into_data(),
            &format!("matmul_at_b {m}x{k}x{n}"),
        );
    }

    #[test]
    fn large_gemm_crosses_parallel_threshold(seed in 0u64..1_000_000) {
        // 96·80·96 > the 64k parallel threshold: exercises pooled chunking.
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let a = rand_tensor(&[96, 80], seed);
        let b = rand_tensor(&[80, 96], seed ^ 0x77);
        assert_backend_identical(|| matmul(&a, &b).into_data(), "large matmul");
    }

    #[test]
    fn conv3d_bit_identical_across_backends(
        c in 1usize..10,
        o in 1usize..12,
        pad in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad };
        let x = rand_tensor(&[2, c, 5, 6, 7], seed);
        let wt = rand_tensor(&[o, c, 3, 3, 3], seed ^ 0x55);
        let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1).collect();
        assert_backend_identical(
            || conv::conv3d_blocked(&x, &wt, &bias, &spec).into_data(),
            &format!("conv3d_blocked c={c} o={o} pad={pad}"),
        );
    }

    #[test]
    fn conv3d_backward_bit_identical_across_backends_and_matches_naive(
        c in 1usize..12,
        o in 1usize..12,
        pad in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad };
        let (d, h, w) = (4, 5, 6);
        let x = rand_tensor(&[2, c, d, h, w], seed);
        let wt = rand_tensor(&[o, c, 3, 3, 3], seed ^ 0x55);
        let g = rand_tensor(&[2, o, spec.out_dim(d), spec.out_dim(h), spec.out_dim(w)], seed ^ 0x77);
        let ctx = format!("c={c} o={o} pad={pad}");
        assert_backend_identical(
            || conv::conv3d_backward_data(&g, &wt, &spec, (d, h, w)).into_data(),
            &format!("conv3d_backward_data {ctx}"),
        );
        assert_backend_identical(
            || {
                let (gw, gb) = conv::conv3d_backward_weights(&x, &g, &spec);
                (gw.into_data(), gb)
            },
            &format!("conv3d_backward_weights {ctx}"),
        );
        let gx = conv::conv3d_backward_data(&g, &wt, &spec, (d, h, w));
        assert_eq!(gx.shape(), &[2, c, d, h, w]);
        let gx_ref = naive_backward_data(&g, &wt, &spec, (d, h, w));
        assert_close(gx.data(), gx_ref.data(), &format!("backward data {ctx}"));
        let (gw, gb) = conv::conv3d_backward_weights(&x, &g, &spec);
        let (gw_ref, gb_ref) = naive_backward_weights(&x, &g, &spec);
        assert_close(gw.data(), gw_ref.data(), &format!("backward weights {ctx}"));
        assert_close(&gb, &gb_ref, &format!("backward bias {ctx}"));
    }

    #[test]
    fn activation_sweeps_bit_identical(len in 0usize..100, seed in 0u64..1_000_000) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let mut x = rand_tensor(&[1, len], seed);
        x.scale(4.0);
        assert_backend_identical(
            || activations::sigmoid(&x).into_data(),
            &format!("sigmoid len={len}"),
        );
        assert_backend_identical(
            || activations::tanh(&x).into_data(),
            &format!("tanh len={len}"),
        );
    }
}
