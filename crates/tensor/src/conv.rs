//! 2-D convolution kernels (forward and backward) used by the graph.
//!
//! Layout is NCHW: input `(B, C_in, H, W)`, kernel `(C_out, C_in, KH, KW)`.
//! Stride is fixed at 1 — the PPN architecture (Table 2 of the paper) only
//! uses stride-1 convolutions. Dilation and asymmetric zero padding are
//! supported because the paper's blocks need:
//!
//! * **DCONV** — dilated *causal* convolution over the time axis (left-pad
//!   only, so no information leaks from the future to the past, §4.3.1);
//! * **CCONV** — *correlational* convolution over the asset axis with SAME
//!   padding (kernel height = m, §4.3.2);
//! * **Conv4 / decision conv** — VALID `1×k` and `1×1` convolutions.

use crate::storage::Storage;
use crate::tensor::Tensor;

/// Dilation factors `(dh, dw)` for the two spatial axes.
pub type Dilation = (usize, usize);

/// Zero padding `(top, bottom, left, right)` on the spatial axes.
pub type Padding = (usize, usize, usize, usize);

/// Output spatial size for one axis.
///
/// `None` when the effective kernel extent exceeds the padded input.
pub fn out_dim(
    input: usize,
    kernel: usize,
    dilation: usize,
    pad_lo: usize,
    pad_hi: usize,
) -> Option<usize> {
    let eff = dilation * (kernel - 1) + 1;
    let padded = input + pad_lo + pad_hi;
    padded.checked_sub(eff).map(|d| d + 1)
}

/// Padding that keeps the axis length unchanged under SAME semantics
/// (asymmetric when the effective kernel extent is even).
pub fn same_padding(kernel: usize, dilation: usize) -> (usize, usize) {
    let eff = dilation * (kernel - 1) + 1;
    ((eff - 1) / 2, eff / 2)
}

/// Causal padding for the time axis: everything on the left.
pub fn causal_padding(kernel: usize, dilation: usize) -> (usize, usize) {
    (dilation * (kernel - 1), 0)
}

/// Shared geometry for one conv call, precomputed once and read by every
/// worker.
#[derive(Clone, Copy)]
struct ConvDims {
    b: usize,
    cin: usize,
    h: usize,
    wid: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    dh: usize,
    dw: usize,
    pt: usize,
    pl: usize,
    oh: usize,
    ow: usize,
}

impl ConvDims {
    fn x_stride_c(&self) -> usize {
        self.h * self.wid
    }
    fn x_stride_b(&self) -> usize {
        self.cin * self.x_stride_c()
    }
    fn w_stride_c(&self) -> usize {
        self.kh * self.kw
    }
    fn w_stride_o(&self) -> usize {
        self.cin * self.w_stride_c()
    }
    fn o_stride_c(&self) -> usize {
        self.oh * self.ow
    }
    fn o_stride_b(&self) -> usize {
        self.cout * self.o_stride_c()
    }
    /// Approximate multiply-add count of the forward pass (used to decide
    /// whether parallel dispatch is worth the spawn overhead).
    fn flops(&self) -> usize {
        2usize
            .saturating_mul(self.b * self.cout)
            .saturating_mul(self.cin * self.kh * self.kw)
            .saturating_mul(self.o_stride_c())
    }
    /// Hoisted vertical (row) bounds for kernel tap row `ky`: the input row
    /// offset and the valid output row range.
    fn y_bounds(&self, ky: usize) -> (isize, usize, usize) {
        let iy_off = (ky * self.dh) as isize - self.pt as isize;
        let oy_lo = (-iy_off).max(0) as usize;
        let oy_hi = ((self.h as isize - iy_off).min(self.oh as isize)).max(0) as usize;
        (iy_off, oy_lo, oy_hi)
    }
    /// Hoisted horizontal (column) bounds for kernel tap column `kx`:
    /// `None` when no output column sees valid input, otherwise the output
    /// column range, its length, and the first input column.
    fn x_bounds(&self, kx: usize) -> Option<(usize, usize, usize)> {
        let ix_off = (kx * self.dw) as isize - self.pl as isize;
        let ox_lo = (-ix_off).max(0) as usize;
        let ox_hi = ((self.wid as isize - ix_off).min(self.ow as isize)).max(0) as usize;
        if ox_lo >= ox_hi {
            return None;
        }
        let ix_lo = (ox_lo as isize + ix_off) as usize;
        Some((ox_lo, ox_hi - ox_lo, ix_lo))
    }
}

/// Forward convolution. Returns `(B, C_out, H', W')`.
///
/// Parallelised over `(batch, C_out)` output planes via [`crate::par`]:
/// each plane is written by exactly one worker with the same tap-major
/// accumulation order as the serial loop, so results are bit-identical at
/// every thread count.
///
/// # Panics
/// Panics on rank/channel mismatches or when the kernel does not fit.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, dilation: Dilation, pad: Padding) -> Tensor {
    assert_eq!(x.rank(), 4, "conv input must be NCHW, got {:?}", x.shape());
    assert_eq!(w.rank(), 4, "conv kernel must be OIHW, got {:?}", w.shape());
    let (b, cin, h, wid) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (cout, cin2, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    assert_eq!(cin, cin2, "conv channels: input {cin} vs kernel {cin2}");
    let (dh, dw) = dilation;
    let (pt, pb, pl, pr) = pad;
    #[expect(clippy::panic, reason = "documented precondition — see `# Panics` above")]
    let oh = out_dim(h, kh, dh, pt, pb).unwrap_or_else(|| {
        panic!("kernel {kh}x{kw} (dil {dh},{dw}) too large for H={h} pad=({pt},{pb})")
    });
    #[expect(clippy::panic, reason = "documented precondition — see `# Panics` above")]
    let ow = out_dim(wid, kw, dw, pl, pr).unwrap_or_else(|| {
        panic!("kernel {kh}x{kw} (dil {dh},{dw}) too large for W={wid} pad=({pl},{pr})")
    });
    let dims = ConvDims { b, cin, h, wid, cout, kh, kw, dh, dw, pt, pl, oh, ow };

    let timer = crate::tensor::kernel_timer();
    let xd = x.data();
    let wd = w.data();
    let mut out = Storage::zeroed(b * cout * oh * ow);
    let chunk = plane_chunk(dims.o_stride_c(), b * cout, dims.flops());
    crate::par::par_chunks_mut(&mut out, chunk, |ci, block| {
        let planes_per_chunk = chunk / dims.o_stride_c().max(1);
        for (pi, plane) in block.chunks_mut(dims.o_stride_c().max(1)).enumerate() {
            let p = ci * planes_per_chunk + pi;
            forward_plane(&dims, xd, wd, p / cout, p % cout, plane);
        }
    });
    crate::tensor::observe_kernel_ms("tensor.conv_ms", timer);
    Tensor::from_storage(&[b, cout, oh, ow], out)
}

/// Elements per pool chunk when splitting a buffer of `planes` planes of
/// `plane_len` elements: everything in one chunk when the kernel is too
/// small to parallelise, otherwise one plane per chunk.
fn plane_chunk(plane_len: usize, planes: usize, flops: usize) -> usize {
    let total = plane_len.saturating_mul(planes);
    if crate::par::threads() <= 1 || flops < crate::tensor::PAR_MIN_FLOPS {
        total.max(1)
    } else {
        plane_len.max(1)
    }
}

/// One `(bi, oc)` output plane of the forward pass. Tap-major loops with
/// hoisted padding bounds: the innermost loop is a contiguous branch-free
/// AXPY over the output row.
fn forward_plane(d: &ConvDims, xd: &[f64], wd: &[f64], bi: usize, oc: usize, plane: &mut [f64]) {
    // One dispatch decision per plane, not per ~30-element row.
    let simd = crate::simd::Dispatch::capture();
    for ic in 0..d.cin {
        let x_block = bi * d.x_stride_b() + ic * d.x_stride_c();
        let w_block = oc * d.w_stride_o() + ic * d.w_stride_c();
        for ky in 0..d.kh {
            let (iy_off, oy_lo, oy_hi) = d.y_bounds(ky);
            for kx in 0..d.kw {
                let wv = wd[w_block + ky * d.kw + kx];
                if crate::approx::is_zero(wv) {
                    continue;
                }
                let Some((ox_lo, n, ix_lo)) = d.x_bounds(kx) else { continue };
                for oy in oy_lo..oy_hi {
                    let iy = (oy as isize + iy_off) as usize;
                    let xs = &xd[x_block + iy * d.wid + ix_lo..][..n];
                    let os = &mut plane[oy * d.ow + ox_lo..][..n];
                    simd.axpy(os, xs, wv);
                }
            }
        }
    }
}

/// Backward pass: returns `(grad_x, grad_w)` given the upstream gradient
/// `grad_out` of shape `(B, C_out, H', W')`.
///
/// Split into two pool-dispatched kernels with disjoint outputs: `grad_x`
/// parallel over batch samples and `grad_w` parallel over `C_out` kernel
/// planes. Each keeps the per-element accumulation order of the original
/// fused serial loop (`oc,ic,ky,kx,oy` for `grad_x`; ascending-`bi` tap
/// sums for `grad_w`), so both gradients are bit-identical across thread
/// counts.
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    dilation: Dilation,
    pad: Padding,
) -> (Tensor, Tensor) {
    let (b, cin, h, wid) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (cout, _, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    let (dh, dw) = dilation;
    let (pt, _, pl, _) = pad;
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let dims = ConvDims { b, cin, h, wid, cout, kh, kw, dh, dw, pt, pl, oh, ow };

    let timer = crate::tensor::kernel_timer();
    let xd = x.data();
    let wd = w.data();
    let gd = grad_out.data();
    let mut gx = Storage::zeroed(xd.len());
    let mut gw = Storage::zeroed(wd.len());

    let gx_chunk = plane_chunk(dims.x_stride_b(), b, dims.flops());
    crate::par::par_chunks_mut(&mut gx, gx_chunk, |ci, block| {
        let per_chunk = gx_chunk / dims.x_stride_b().max(1);
        for (pi, sample) in block.chunks_mut(dims.x_stride_b().max(1)).enumerate() {
            grad_x_sample(&dims, wd, gd, ci * per_chunk + pi, sample);
        }
    });

    let gw_chunk = plane_chunk(dims.w_stride_o(), cout, dims.flops());
    crate::par::par_chunks_mut(&mut gw, gw_chunk, |ci, block| {
        let per_chunk = gw_chunk / dims.w_stride_o().max(1);
        for (pi, plane) in block.chunks_mut(dims.w_stride_o().max(1)).enumerate() {
            grad_w_plane(&dims, xd, gd, ci * per_chunk + pi, plane);
        }
    });
    crate::tensor::observe_kernel_ms("tensor.conv_ms", timer);
    (Tensor::from_storage(x.shape(), gx), Tensor::from_storage(w.shape(), gw))
}

/// Input gradient for one batch sample `bi`; `gx_sample` is that sample's
/// `(C_in, H, W)` slice of `grad_x`. Loop order matches the fused serial
/// backward (`oc, ic, ky, kx, oy`) so every `grad_x` element accumulates in
/// the serial sequence.
fn grad_x_sample(d: &ConvDims, wd: &[f64], gd: &[f64], bi: usize, gx_sample: &mut [f64]) {
    // One dispatch decision per sample, not per ~30-element row.
    let simd = crate::simd::Dispatch::capture();
    for oc in 0..d.cout {
        let g_block = bi * d.o_stride_b() + oc * d.o_stride_c();
        for ic in 0..d.cin {
            let x_block = ic * d.x_stride_c();
            let w_block = oc * d.w_stride_o() + ic * d.w_stride_c();
            for ky in 0..d.kh {
                let (iy_off, oy_lo, oy_hi) = d.y_bounds(ky);
                for kx in 0..d.kw {
                    let wv = wd[w_block + ky * d.kw + kx];
                    let Some((ox_lo, n, ix_lo)) = d.x_bounds(kx) else { continue };
                    for oy in oy_lo..oy_hi {
                        let iy = (oy as isize + iy_off) as usize;
                        let grow = &gd[g_block + oy * d.ow + ox_lo..][..n];
                        let gxrow = &mut gx_sample[x_block + iy * d.wid + ix_lo..][..n];
                        // g * wv == wv * g bitwise, so the AXPY form is
                        // identical to the original `*gxv += g * wv` loop.
                        simd.axpy(gxrow, grow, wv);
                    }
                }
            }
        }
    }
}

/// Kernel gradient for one output channel `oc`; `gw_plane` is that
/// channel's `(C_in, KH, KW)` slice of `grad_w`. Each tap's window sum is
/// accumulated in the serial `(oy, ox)` order and added per batch sample in
/// ascending `bi`, matching the fused serial backward exactly.
fn grad_w_plane(d: &ConvDims, xd: &[f64], gd: &[f64], oc: usize, gw_plane: &mut [f64]) {
    for bi in 0..d.b {
        let g_block = bi * d.o_stride_b() + oc * d.o_stride_c();
        for ic in 0..d.cin {
            let x_block = bi * d.x_stride_b() + ic * d.x_stride_c();
            for ky in 0..d.kh {
                let (iy_off, oy_lo, oy_hi) = d.y_bounds(ky);
                for kx in 0..d.kw {
                    let Some((ox_lo, n, ix_lo)) = d.x_bounds(kx) else { continue };
                    let mut w_acc = 0.0;
                    for oy in oy_lo..oy_hi {
                        let iy = (oy as isize + iy_off) as usize;
                        let grow = &gd[g_block + oy * d.ow + ox_lo..][..n];
                        let xrow = &xd[x_block + iy * d.wid + ix_lo..][..n];
                        for (&g, &xv) in grow.iter().zip(xrow) {
                            w_acc += g * xv;
                        }
                    }
                    gw_plane[ic * d.w_stride_c() + ky * d.kw + kx] += w_acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dims() {
        assert_eq!(out_dim(30, 3, 1, 2, 0), Some(30)); // causal k=3 d=1
        assert_eq!(out_dim(30, 3, 4, 8, 0), Some(30)); // causal k=3 d=4
        assert_eq!(out_dim(30, 30, 1, 0, 0), Some(1)); // valid 1xk collapse
        assert_eq!(out_dim(3, 5, 1, 0, 0), None);
    }

    #[test]
    fn same_and_causal_padding() {
        assert_eq!(same_padding(3, 1), (1, 1));
        assert_eq!(same_padding(4, 1), (1, 2));
        assert_eq!(causal_padding(3, 4), (8, 0));
    }

    #[test]
    fn identity_kernel_passthrough() {
        let x = Tensor::from_vec(&[1, 1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv2d_forward(&x, &w, (1, 1), (0, 0, 0, 0));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_1d_convolution() {
        // x = [1,2,3,4], kernel [1,1] valid → moving sums [3,5,7].
        let x = Tensor::from_vec(&[1, 1, 1, 4], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec(&[1, 1, 1, 2], vec![1., 1.]);
        let y = conv2d_forward(&x, &w, (1, 1), (0, 0, 0, 0));
        assert_eq!(y.shape(), &[1, 1, 1, 3]);
        assert_eq!(y.data(), &[3., 5., 7.]);
    }

    #[test]
    fn causal_no_future_leakage() {
        // With causal padding, output[t] must not depend on input[t+1..].
        let mut x1 = vec![1., 2., 3., 4., 5.];
        let x2 = {
            let mut v = x1.clone();
            v[4] = 100.0; // change only the last element
            v
        };
        let w = Tensor::from_vec(&[1, 1, 1, 3], vec![0.5, -1.0, 2.0]);
        let (pl, pr) = causal_padding(3, 1);
        let y1 = conv2d_forward(
            &Tensor::from_vec(&[1, 1, 1, 5], x1.clone()),
            &w,
            (1, 1),
            (0, 0, pl, pr),
        );
        let y2 = conv2d_forward(&Tensor::from_vec(&[1, 1, 1, 5], x2), &w, (1, 1), (0, 0, pl, pr));
        // First four outputs identical, only the last may differ.
        for t in 0..4 {
            assert_eq!(y1.data()[t], y2.data()[t], "leakage at t={t}");
        }
        assert_ne!(y1.data()[4], y2.data()[4]);
        x1[0] = 0.0; // silence unused-mut lint paranoia
        let _ = x1;
    }

    #[test]
    fn dilated_receptive_field() {
        // k=3, d=2, causal: output[t] sees t, t-2, t-4.
        let x = Tensor::from_vec(&[1, 1, 1, 6], vec![1., 0., 0., 0., 0., 1.]);
        let w = Tensor::from_vec(&[1, 1, 1, 3], vec![1., 1., 1.]);
        let (pl, pr) = causal_padding(3, 2);
        let y = conv2d_forward(&x, &w, (1, 2), (0, 0, pl, pr));
        assert_eq!(y.shape(), &[1, 1, 1, 6]);
        // t=0: sees x[-4],x[-2],x[0] → 1. t=4: sees x[0],x[2],x[4] → 1.
        assert_eq!(y.data(), &[1., 0., 1., 0., 1., 1.]);
    }

    #[test]
    fn cconv_mixes_all_assets() {
        // Kernel height = m with SAME padding: every output row sees all rows.
        let m = 4;
        let x = Tensor::from_vec(&[1, 1, m, 1], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec(&[1, 1, m, 1], vec![1., 1., 1., 1.]);
        let (pt, pb) = same_padding(m, 1);
        let y = conv2d_forward(&x, &w, (1, 1), (pt, pb, 0, 0));
        assert_eq!(y.shape(), &[1, 1, m, 1]);
        // Row sums over the visible window (zero-padded outside).
        assert_eq!(y.data(), &[1. + 2. + 3., 10., 9., 3. + 4.]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(&mut rng, &[2, 2, 3, 5], 1.0);
        let w = Tensor::randn(&mut rng, &[3, 2, 2, 3], 1.0);
        let dil = (1, 2);
        let pad = (1, 0, 4, 0);
        let y = conv2d_forward(&x, &w, dil, pad);
        // Loss = sum(y); upstream grad = ones.
        let gout = Tensor::ones(y.shape());
        let (gx, gw) = conv2d_backward(&x, &w, &gout, dil, pad);
        let eps = 1e-5;
        // Spot-check a handful of coordinates of both gradients.
        for &i in &[0usize, 7, 23, 41] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let fp = conv2d_forward(&xp, &w, dil, pad).sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fm = conv2d_forward(&xm, &w, dil, pad).sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-6, "gx[{i}]: fd={fd} ad={}", gx.data()[i]);
        }
        for &i in &[0usize, 5, 17, 31] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let fp = conv2d_forward(&x, &wp, dil, pad).sum();
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fm = conv2d_forward(&x, &wm, dil, pad).sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gw.data()[i]).abs() < 1e-6, "gw[{i}]: fd={fd} ad={}", gw.data()[i]);
        }
    }
}
