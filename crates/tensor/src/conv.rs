//! 3D convolution and pooling kernels.
//!
//! Two forward implementations are provided, reproducing the paper's §4.4.2
//! optimization story:
//!
//! * [`conv3d_naive`] — direct convolution over the plain NCDHW layout, the
//!   "default framework" baseline.
//! * [`conv3d_blocked`] — direct convolution over a channel-blocked
//!   NCDHW8c layout with an 8×8 micro-kernel, mirroring MKL-DNN's layout
//!   (`{N, C, D, H, W, 8c}`) that "is more amenable for SIMD vectorization";
//!   the paper measured **8×** on this kernel.
//!
//! Both compute identical results (tested); the training stack uses the
//! blocked path. The backward kernels run on the same blocked layout: the
//! data gradient is a forward blocked convolution over flipped weights and
//! the weight gradient an 8×8 outer-product tile kernel.

use crate::pool::{self, SendPtr};
use crate::simd::Kernels;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// Channel block size of the packed layout (matches AVX2 8×f32 vectors).
pub const CBLK: usize = 8;

/// Static description of a 3D convolution (cubic kernel, stride 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv3dSpec {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Cubic kernel size.
    pub k: usize,
    /// Symmetric zero padding on every spatial side.
    pub pad: usize,
}

impl Conv3dSpec {
    /// Output spatial size for an input spatial size.
    pub fn out_dim(&self, d: usize) -> usize {
        d + 2 * self.pad + 1 - self.k
    }

    /// Multiply–add flop count of one forward pass over a batch.
    pub fn flops(&self, batch: usize, d: usize, h: usize, w: usize) -> u64 {
        let (od, oh, ow) = (self.out_dim(d), self.out_dim(h), self.out_dim(w));
        2 * batch as u64
            * self.out_c as u64
            * self.in_c as u64
            * (od * oh * ow) as u64
            * (self.k * self.k * self.k) as u64
    }
}

fn pad_input(x: &Tensor, pad: usize) -> Tensor {
    if pad == 0 {
        return x.clone();
    }
    let s = x.shape();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (pd, ph, pw) = (d + 2 * pad, h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[n, c, pd, ph, pw]);
    let xs = x.data();
    let od = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for di in 0..d {
                for hi in 0..h {
                    let src = ((((ni * c) + ci) * d + di) * h + hi) * w;
                    let dst = ((((ni * c) + ci) * pd + di + pad) * ph + hi + pad) * pw + pad;
                    od[dst..dst + w].copy_from_slice(&xs[src..src + w]);
                }
            }
        }
    }
    out
}

/// Direct 3D convolution over NCDHW (baseline path).
///
/// `x`: [N, C, D, H, W]; `weight`: [O, C, k, k, k]; `bias`: length O.
/// Returns [N, O, OD, OH, OW].
pub fn conv3d_naive(x: &Tensor, weight: &Tensor, bias: &[f32], spec: &Conv3dSpec) -> Tensor {
    let s = x.shape().to_vec();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    assert_eq!(c, spec.in_c);
    assert_eq!(weight.shape(), &[spec.out_c, c, spec.k, spec.k, spec.k]);
    assert_eq!(bias.len(), spec.out_c);
    let xp = pad_input(x, spec.pad);
    let (pd, ph, pw) = (d + 2 * spec.pad, h + 2 * spec.pad, w + 2 * spec.pad);
    let (od, oh, ow) = (spec.out_dim(d), spec.out_dim(h), spec.out_dim(w));
    let k = spec.k;
    let mut out = Tensor::zeros(&[n, spec.out_c, od, oh, ow]);
    let xd = xp.data();
    let wd = weight.data();
    let o_spatial = od * oh * ow;
    let out_c = spec.out_c;
    let op = SendPtr::new(out.data_mut().as_mut_ptr());
    pool::run(n * out_c, &|chunk_idx| {
        // SAFETY: each task owns one disjoint [OD, OH, OW] output chunk.
        let ochunk = unsafe {
            std::slice::from_raw_parts_mut(op.get().add(chunk_idx * o_spatial), o_spatial)
        };
        let ni = chunk_idx / out_c;
        let oc = chunk_idx % out_c;
        for zo in 0..od {
            for yo in 0..oh {
                for xo in 0..ow {
                    let mut acc = bias[oc];
                    for ci in 0..c {
                        for kz in 0..k {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let xi = ((((ni * c) + ci) * pd + zo + kz) * ph + yo + ky) * pw
                                        + xo
                                        + kx;
                                    let wi = ((((oc * c) + ci) * k + kz) * k + ky) * k + kx;
                                    acc += xd[xi] * wd[wi];
                                }
                            }
                        }
                    }
                    ochunk[(zo * oh + yo) * ow + xo] = acc;
                }
            }
        }
    });
    out
}

/// Pack NCDHW → NCDHW8c: [N, ceil(C/8), D, H, W, 8], zero-padding channels.
pub fn pack_ncdhw8c(x: &Tensor) -> (Tensor, usize) {
    let s = x.shape();
    let (n, d, h, w) = (s[0], s[2], s[3], s[4]);
    let mut buf = Vec::new();
    let (cb, _) = pack_padded_into(x, 0..n, 0, &mut buf);
    (Tensor::from_vec(&[n, cb, d, h, w, CBLK], buf), cb)
}

/// Unpack NCDHW8c back to NCDHW with `c` true channels.
pub fn unpack_ncdhw8c(xp: &Tensor, c: usize) -> Tensor {
    let s = xp.shape();
    assert_eq!(s[5], CBLK);
    let (n, dims) = (s[0], [s[2], s[3], s[4]]);
    let mut out = Tensor::zeros(&[n, c, dims[0], dims[1], dims[2]]);
    unpack_into(xp.data(), s[1], dims, c, out.data_mut());
    out
}

/// Budget, in floats, of one packed image chunk: the blocked kernels pack
/// and process their batch this many floats at a time, so the scratch stays
/// small and cache-resident however large the batch (a 1-channel input
/// packs to 8× its size).
const CHUNK_FLOATS: usize = 1 << 18;

thread_local! {
    /// Packed-input scratch of the blocked kernels, reused across calls on
    /// this thread.
    static PACK_IN: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Blocked-output scratch (forward) / packed-gradient scratch (weight
    /// gradient).
    static PACK_OUT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's (packed-input, second) scratch buffers.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
    PACK_IN.with_borrow_mut(|a| PACK_OUT.with_borrow_mut(|b| f(a, b)))
}

/// The image ranges a batch of `n` is processed in, at most `chunk_floats`
/// of packed data (but at least one image) each.
fn image_chunks(
    n: usize,
    floats_per_image: usize,
    chunk_floats: usize,
) -> impl Iterator<Item = Range<usize>> {
    let step = (chunk_floats / floats_per_image.max(1)).max(1);
    (0..n).step_by(step).map(move |n0| n0..(n0 + step).min(n))
}

/// Pack images `images` of NCDHW `x` into `buf` as NCDHW8c with `pad` zero
/// voxels on every spatial side: [n, ceil(C/8), D+2p, H+2p, W+2p, 8].
/// Returns the channel block count and the padded spatial dims.
fn pack_padded_into(
    x: &Tensor,
    images: Range<usize>,
    pad: usize,
    buf: &mut Vec<f32>,
) -> (usize, [usize; 3]) {
    let s = x.shape();
    let (c, d, h, w) = (s[1], s[2], s[3], s[4]);
    let cb = c.div_ceil(CBLK);
    let (pd, ph, pw) = (d + 2 * pad, h + 2 * pad, w + 2 * pad);
    buf.clear();
    buf.resize(images.len() * cb * pd * ph * pw * CBLK, 0.0);
    let xd = x.data();
    for (li, ni) in images.enumerate() {
        for ci in 0..c {
            let (b, r) = (ci / CBLK, ci % CBLK);
            for di in 0..d {
                for hi in 0..h {
                    let src = ((((ni * c) + ci) * d + di) * h + hi) * w;
                    let dst =
                        (((((li * cb) + b) * pd + di + pad) * ph + hi + pad) * pw + pad) * CBLK + r;
                    for wi in 0..w {
                        buf[dst + wi * CBLK] = xd[src + wi];
                    }
                }
            }
        }
    }
    (cb, [pd, ph, pw])
}

/// Unpack an NCDHW8c buffer [n, Cb, D, H, W, 8] into NCDHW `dst` with `c`
/// channels.
fn unpack_into(src: &[f32], cb: usize, dims: [usize; 3], c: usize, dst: &mut [f32]) {
    let [d, h, w] = dims;
    let n = dst.len() / (c * d * h * w).max(1);
    for ni in 0..n {
        for ci in 0..c {
            let (b, r) = (ci / CBLK, ci % CBLK);
            for di in 0..d {
                for hi in 0..h {
                    let drow = ((((ni * c) + ci) * d + di) * h + hi) * w;
                    let src_base = (((((ni * cb) + b) * d + di) * h + hi) * w) * CBLK + r;
                    for wi in 0..w {
                        dst[drow + wi] = src[src_base + wi * CBLK];
                    }
                }
            }
        }
    }
}

/// Pack weights [O, C, k, k, k] → [Ob, Cb, k, k, k, 8i, 8o] for the blocked
/// kernel: at each kernel position an 8×8 (in×out) tile is contiguous.
fn pack_weights(weight: &Tensor, spec: &Conv3dSpec) -> Tensor {
    let (o, c, k) = (spec.out_c, spec.in_c, spec.k);
    let ob = o.div_ceil(CBLK);
    let cb = c.div_ceil(CBLK);
    let mut out = Tensor::zeros(&[ob, cb, k, k, k, CBLK, CBLK]);
    let wd = weight.data();
    let od = out.data_mut();
    for oc in 0..o {
        let (obi, obr) = (oc / CBLK, oc % CBLK);
        for ci in 0..c {
            let (cbi, cbr) = (ci / CBLK, ci % CBLK);
            for kz in 0..k {
                for ky in 0..k {
                    for kx in 0..k {
                        let src = ((((oc * c) + ci) * k + kz) * k + ky) * k + kx;
                        let dst = (((((obi * cb + cbi) * k + kz) * k + ky) * k + kx) * CBLK + cbr)
                            * CBLK
                            + obr;
                        od[dst] = wd[src];
                    }
                }
            }
        }
    }
    out
}

/// Blocked/vectorizable 3D convolution (NCDHW8c layout, 8×8 micro-kernel).
///
/// Semantically identical to [`conv3d_naive`]; the inner loop multiplies a
/// contiguous 8-lane input vector with a contiguous 8×8 weight tile,
/// accumulating 8 output channels at once — the MKL-DNN strategy from the
/// paper.
pub fn conv3d_blocked(x: &Tensor, weight: &Tensor, bias: &[f32], spec: &Conv3dSpec) -> Tensor {
    blocked_forward(x, weight, bias, spec, CHUNK_FLOATS)
}

/// [`conv3d_blocked`] packing `chunk_floats` floats of images at a time.
fn blocked_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: &Conv3dSpec,
    chunk_floats: usize,
) -> Tensor {
    let s = x.shape();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    assert_eq!(c, spec.in_c);
    assert_eq!(weight.shape(), &[spec.out_c, c, spec.k, spec.k, spec.k]);
    assert_eq!(bias.len(), spec.out_c);
    let wp = pack_weights(weight, spec);
    let wd = wp.data();
    let (od, oh, ow) = (spec.out_dim(d), spec.out_dim(h), spec.out_dim(w));
    let k = spec.k;
    let (cb, ob) = (c.div_ceil(CBLK), spec.out_c.div_ceil(CBLK));
    let block_spatial = od * oh * ow * CBLK;
    let out_image = spec.out_c * od * oh * ow;
    let mut out = Tensor::zeros(&[n, spec.out_c, od, oh, ow]);
    let kern = Kernels::get();
    let in_image = cb * (d + 2 * spec.pad) * (h + 2 * spec.pad) * (w + 2 * spec.pad) * CBLK;
    with_scratch(|xb, out_b| {
        for images in image_chunks(n, in_image.max(ob * block_spatial), chunk_floats) {
            let (n0, nc) = (images.start, images.len());
            let (_, [pd, ph, pw]) = pack_padded_into(x, images, spec.pad, xb);
            out_b.clear();
            out_b.resize(nc * ob * block_spatial, 0.0);
            let xd = &xb[..];
            let op = SendPtr::new(out_b.as_mut_ptr());
            pool::run(nc * ob, &|chunk_idx| {
                // SAFETY: each task owns one disjoint [OD, OH, OW, 8] output chunk.
                let ochunk = unsafe {
                    std::slice::from_raw_parts_mut(
                        op.get().add(chunk_idx * block_spatial),
                        block_spatial,
                    )
                };
                let ni = chunk_idx / ob;
                let obi = chunk_idx % ob;
                // Initialize with bias.
                for v in ochunk.chunks_mut(CBLK) {
                    for (r, vv) in v.iter_mut().enumerate() {
                        let oc = obi * CBLK + r;
                        *vv = if oc < spec.out_c { bias[oc] } else { 0.0 };
                    }
                }
                for cbi in 0..cb {
                    for kz in 0..k {
                        for ky in 0..k {
                            for kx in 0..k {
                                let wbase =
                                    ((((obi * cb + cbi) * k + kz) * k + ky) * k + kx) * CBLK * CBLK;
                                let wtile = &wd[wbase..wbase + CBLK * CBLK];
                                for zo in 0..od {
                                    let zrow = ((ni * cb + cbi) * pd + zo + kz) * ph;
                                    for yo in 0..oh {
                                        let xrow = ((zrow + yo + ky) * pw + kx) * CBLK;
                                        let orow = (zo * oh + yo) * ow * CBLK;
                                        // 8×8 micro-kernel over the whole output row:
                                        // ov[xo*8+o] += iv[xo*8+i] * wtile[i*8+o].
                                        kern.conv_row(
                                            &mut ochunk[orow..orow + ow * CBLK],
                                            &xd[xrow..xrow + ow * CBLK],
                                            wtile,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            });
            let dst = &mut out.data_mut()[n0 * out_image..(n0 + nc) * out_image];
            unpack_into(out_b, ob, [od, oh, ow], spec.out_c, dst);
        }
    });
    out
}

/// Gradient of the convolution w.r.t. its input.
///
/// `grad_out`: [N, O, OD, OH, OW] → returns [N, C, D, H, W].
///
/// The input gradient of a stride-1 convolution is itself a convolution:
/// `grad_out` padded by `k − 1 − pad`, correlated with the weights with
/// input and output channels swapped and every tap flipped. So this runs
/// [`conv3d_blocked`], bit for bit the forward kernel, with no scatter and
/// no sparsity skip: a non-finite weight or upstream value reaches every
/// input voxel it touches. Requires `pad < k` (the padding every spec in
/// the tree uses, "same" convolution, is `(k − 1) / 2`); a wider pad would
/// need a negative padding, i.e. a crop of `grad_out`.
pub fn conv3d_backward_data(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &Conv3dSpec,
    in_dims: (usize, usize, usize),
) -> Tensor {
    assert!(spec.pad < spec.k, "conv3d_backward_data needs pad < k, got {spec:?}");
    let s = grad_out.shape();
    assert_eq!(s[1], spec.out_c);
    let (o, c, k) = (spec.out_c, spec.in_c, spec.k);
    let taps = k * k * k;
    // Transposed, flipped weights: wt[ci, oc, t] = w[oc, ci, taps − 1 − t].
    let wd = weight.data();
    let mut wt = Tensor::zeros(&[c, o, k, k, k]);
    let wtd = wt.data_mut();
    for oc in 0..o {
        for ci in 0..c {
            for t in 0..taps {
                wtd[(ci * o + oc) * taps + taps - 1 - t] = wd[(oc * c + ci) * taps + t];
            }
        }
    }
    let spec_t = Conv3dSpec { in_c: o, out_c: c, k, pad: k - 1 - spec.pad };
    let gx = conv3d_blocked(grad_out, &wt, &vec![0.0; c], &spec_t);
    debug_assert_eq!(&gx.shape()[2..], &[in_dims.0, in_dims.1, in_dims.2]);
    gx
}

/// Gradients of the convolution w.r.t. weights and bias.
///
/// Returns (`grad_weight` [O, C, k, k, k], `grad_bias` [O]).
///
/// The weight gradient runs on [`Kernels::conv_wgrad_row`] over the padded
/// NCDHW8c input and the NCDHW8c `grad_out`: one pool task per
/// (out-block, in-block, tap) 8×8 tile, each summing its outer products
/// over `(n, z, y, x)` in that fixed order. Every tile element is a single
/// chain in a shape-determined order, so the result is bit-identical for
/// any backend and thread count, with no cross-task reduction.
pub fn conv3d_backward_weights(
    x: &Tensor,
    grad_out: &Tensor,
    spec: &Conv3dSpec,
) -> (Tensor, Vec<f32>) {
    blocked_backward_weights(x, grad_out, spec, CHUNK_FLOATS)
}

/// [`conv3d_backward_weights`] packing `chunk_floats` floats of images at a
/// time.
fn blocked_backward_weights(
    x: &Tensor,
    grad_out: &Tensor,
    spec: &Conv3dSpec,
    chunk_floats: usize,
) -> (Tensor, Vec<f32>) {
    let s = x.shape();
    let (n, c) = (s[0], s[1]);
    let so = grad_out.shape();
    let (o, od, oh, ow) = (so[1], so[2], so[3], so[4]);
    assert_eq!(c, spec.in_c);
    assert_eq!(so[..2], [n, spec.out_c]);
    assert_eq!([od, oh, ow], [spec.out_dim(s[2]), spec.out_dim(s[3]), spec.out_dim(s[4])]);
    let k = spec.k;
    let taps = k * k * k;
    let gd = grad_out.data();
    let mut gb = vec![0.0f32; o];
    let gbp = SendPtr::new(gb.as_mut_ptr());
    pool::run(o, &|oc| {
        let mut acc = 0.0f32;
        for ni in 0..n {
            let base = (((ni * o + oc) * od) * oh) * ow;
            for idx in 0..od * oh * ow {
                acc += gd[base + idx];
            }
        }
        // SAFETY: each task writes one distinct element.
        unsafe { *gbp.get().add(oc) = acc };
    });
    let (ob, cb) = (o.div_ceil(CBLK), c.div_ceil(CBLK));
    // Tiles in the packed-weight layout [Ob, Cb, k, k, k, 8i, 8o].
    let mut tiles = vec![0.0f32; ob * cb * taps * CBLK * CBLK];
    let kern = Kernels::get();
    let (pd, ph, pw) = (s[2] + 2 * spec.pad, s[3] + 2 * spec.pad, s[4] + 2 * spec.pad);
    let per_image = (cb * pd * ph * pw).max(ob * od * oh * ow) * CBLK;
    with_scratch(|xb, gpk| {
        // Image chunks continue every tile's chain where the previous
        // chunk left it, so the chunking never changes a bit.
        for images in image_chunks(n, per_image, chunk_floats) {
            let nc = images.len();
            pack_padded_into(x, images.clone(), spec.pad, xb);
            pack_padded_into(grad_out, images, 0, gpk);
            let (xd, gpd) = (&xb[..], &gpk[..]);
            let tp = SendPtr::new(tiles.as_mut_ptr());
            pool::run(ob * cb * taps, &|t| {
                // SAFETY: each task owns one disjoint 8×8 tile.
                let tile = unsafe {
                    std::slice::from_raw_parts_mut(tp.get().add(t * CBLK * CBLK), CBLK * CBLK)
                };
                let (obi, cbi, tap) = (t / (cb * taps), t / taps % cb, t % taps);
                let (kz, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
                for ni in 0..nc {
                    for zo in 0..od {
                        let xz = ((ni * cb + cbi) * pd + zo + kz) * ph;
                        let gz = ((ni * ob + obi) * od + zo) * oh;
                        for yo in 0..oh {
                            let xrow = ((xz + yo + ky) * pw + kx) * CBLK;
                            let grow = (gz + yo) * ow * CBLK;
                            kern.conv_wgrad_row(
                                tile,
                                &xd[xrow..xrow + ow * CBLK],
                                &gpd[grow..grow + ow * CBLK],
                            );
                        }
                    }
                }
            });
        }
    });
    let mut gw = Tensor::zeros(&[o, c, k, k, k]);
    let gwd = gw.data_mut();
    for oc in 0..o {
        let (obi, obr) = (oc / CBLK, oc % CBLK);
        for ci in 0..c {
            let (cbi, cbr) = (ci / CBLK, ci % CBLK);
            for tap in 0..taps {
                gwd[(oc * c + ci) * taps + tap] =
                    tiles[(((obi * cb + cbi) * taps + tap) * CBLK + cbr) * CBLK + obr];
            }
        }
    }
    (gw, gb)
}

/// 3D max pooling with cubic window/stride `k`. Returns the pooled tensor and
/// the flat argmax indices (into the input) used by the backward pass.
pub fn maxpool3d(x: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
    let s = x.shape().to_vec();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (od, oh, ow) = (d / k, h / k, w / k);
    assert!(od > 0 && oh > 0 && ow > 0, "pool window larger than input");
    let mut out = Tensor::zeros(&[n, c, od, oh, ow]);
    let mut arg = vec![0u32; out.numel()];
    let xd = x.data();
    let odat = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for zo in 0..od {
                for yo in 0..oh {
                    for xo in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for kz in 0..k {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let idx =
                                        ((((ni * c) + ci) * d + zo * k + kz) * h + yo * k + ky) * w
                                            + xo * k
                                            + kx;
                                    if xd[idx] > best {
                                        best = xd[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                        }
                        let oidx = ((((ni * c) + ci) * od + zo) * oh + yo) * ow + xo;
                        odat[oidx] = best;
                        arg[oidx] = best_idx as u32;
                    }
                }
            }
        }
    }
    (out, arg)
}

/// Backward of [`maxpool3d`]: scatter output gradients to argmax positions.
pub fn maxpool3d_backward(grad_out: &Tensor, arg: &[u32], in_shape: &[usize]) -> Tensor {
    let mut gx = Tensor::zeros(in_shape);
    let gd = grad_out.data();
    let gxd = gx.data_mut();
    for (i, &a) in arg.iter().enumerate() {
        gxd[a as usize] += gd[i];
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        Tensor::from_fn(shape, |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for &c in &[1usize, 3, 8, 11, 16] {
            let x = rand_tensor(&[2, c, 3, 4, 5], c as u64);
            let (p, cb) = pack_ncdhw8c(&x);
            assert_eq!(cb, c.div_ceil(8));
            let u = unpack_ncdhw8c(&p, c);
            assert_close(&u, &x, 0.0);
        }
    }

    #[test]
    fn blocked_matches_naive() {
        for &(c, o, pad) in &[(1usize, 8usize, 1usize), (3, 5, 0), (8, 16, 1), (10, 12, 1)] {
            let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad };
            let x = rand_tensor(&[2, c, 5, 6, 7], 7 + c as u64);
            let wt = rand_tensor(&[o, c, 3, 3, 3], 11 + o as u64);
            let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1).collect();
            let a = conv3d_naive(&x, &wt, &bias, &spec);
            let b = conv3d_blocked(&x, &wt, &bias, &spec);
            assert_close(&a, &b, 1e-4);
        }
    }

    #[test]
    fn conv_backward_data_matches_finite_difference() {
        let spec = Conv3dSpec { in_c: 2, out_c: 3, k: 3, pad: 1 };
        let x = rand_tensor(&[1, 2, 4, 4, 4], 21);
        let wt = rand_tensor(&[3, 2, 3, 3, 3], 22);
        let bias = vec![0.0; 3];
        // Loss = sum(conv(x)); dL/dx via backward with grad_out = ones.
        let y = conv3d_naive(&x, &wt, &bias, &spec);
        let ones = Tensor::full(y.shape(), 1.0);
        let gx = conv3d_backward_data(&ones, &wt, &spec, (4, 4, 4));
        let eps = 1e-2f32;
        for &flat in &[0usize, 17, 63, 100] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fp = conv3d_naive(&xp, &wt, &bias, &spec).sum();
            let fm = conv3d_naive(&xm, &wt, &bias, &spec).sum();
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let ana = gx.data()[flat];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "{num} vs {ana}");
        }
    }

    #[test]
    fn conv_backward_weights_matches_finite_difference() {
        let spec = Conv3dSpec { in_c: 2, out_c: 2, k: 3, pad: 1 };
        let x = rand_tensor(&[2, 2, 4, 4, 4], 31);
        let wt = rand_tensor(&[2, 2, 3, 3, 3], 32);
        let bias = vec![0.1, -0.2];
        let y = conv3d_naive(&x, &wt, &bias, &spec);
        let ones = Tensor::full(y.shape(), 1.0);
        let (gw, gb) = conv3d_backward_weights(&x, &ones, &spec);
        let eps = 1e-2f32;
        for &flat in &[0usize, 13, 53, 100] {
            let mut wp = wt.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = wt.clone();
            wm.data_mut()[flat] -= eps;
            let fp = conv3d_naive(&x, &wp, &bias, &spec).sum();
            let fm = conv3d_naive(&x, &wm, &bias, &spec).sum();
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let ana = gw.data()[flat];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "{num} vs {ana}");
        }
        // Bias gradient = number of output voxels per channel (grad_out = 1).
        let per_chan = (y.numel() / 2) as f32;
        assert!((gb[0] - per_chan).abs() < 1e-3);
    }

    #[test]
    fn image_chunking_never_changes_a_bit() {
        // One image per chunk vs the whole batch in one chunk: every output
        // and every weight-gradient chain sees the same values in the same
        // order.
        for &(c, o) in &[(1usize, 8usize), (10, 5)] {
            let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad: 1 };
            let x = rand_tensor(&[5, c, 4, 5, 6], 51 + c as u64);
            let wt = rand_tensor(&[o, c, 3, 3, 3], 52);
            let g = rand_tensor(&[5, o, 4, 5, 6], 53);
            let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1).collect();
            let whole = blocked_forward(&x, &wt, &bias, &spec, usize::MAX);
            let split = blocked_forward(&x, &wt, &bias, &spec, 1);
            assert_eq!(whole.data(), split.data(), "forward c={c} o={o}");
            let whole = blocked_backward_weights(&x, &g, &spec, usize::MAX);
            let split = blocked_backward_weights(&x, &g, &spec, 1);
            assert_eq!(whole, split, "weight gradient c={c} o={o}");
        }
    }

    #[test]
    fn non_finite_values_propagate_through_zero_upstream_gradients() {
        // 0 × NaN is NaN: a poisoned voxel must show in the weight gradient
        // of every tap that reads it, even where no gradient flows back.
        let spec = Conv3dSpec { in_c: 2, out_c: 3, k: 3, pad: 1 };
        let mut x = rand_tensor(&[1, 2, 4, 4, 4], 41);
        x.data_mut()[64 + (4 + 1) * 4 + 1] = f32::NAN; // channel 1, voxel (1, 1, 1)
        let zeros = Tensor::zeros(&[1, 3, 4, 4, 4]);
        let (gw, gb) = conv3d_backward_weights(&x, &zeros, &spec);
        for (i, v) in gw.data().iter().enumerate() {
            let channel = i / 27 % 2;
            assert_eq!(v.is_nan(), channel == 1, "grad_weight[{i}] = {v}");
        }
        assert_eq!(gb, vec![0.0; 3]);
        // Likewise a poisoned weight reaches the input gradient.
        let mut wt = rand_tensor(&[3, 2, 3, 3, 3], 42);
        wt.data_mut()[13] = f32::INFINITY;
        let gx = conv3d_backward_data(&zeros, &wt, &spec, (4, 4, 4));
        assert!(gx.data()[..64].iter().all(|v| v.is_nan()), "input channel 0 is poisoned");
        assert!(gx.data()[64..].iter().all(|&v| v == 0.0), "input channel 1 is clean");
    }

    #[test]
    fn maxpool_forward_backward() {
        let x = Tensor::from_fn(&[1, 1, 2, 2, 2], |i| i as f32);
        let (y, arg) = maxpool3d(&x, 2);
        assert_eq!(y.shape(), &[1, 1, 1, 1, 1]);
        assert_eq!(y.data()[0], 7.0);
        let g = Tensor::full(&[1, 1, 1, 1, 1], 2.0);
        let gx = maxpool3d_backward(&g, &arg, &[1, 1, 2, 2, 2]);
        assert_eq!(gx.data()[7], 2.0);
        assert_eq!(gx.sum(), 2.0);
    }

    #[test]
    fn flop_count() {
        let spec = Conv3dSpec { in_c: 1, out_c: 64, k: 3, pad: 1 };
        // out dims = in dims with pad=1, k=3.
        assert_eq!(spec.out_dim(20), 20);
        let f = spec.flops(1, 20, 35, 35);
        assert_eq!(f, 2 * 64 * (20 * 35 * 35) as u64 * 27);
    }
}
