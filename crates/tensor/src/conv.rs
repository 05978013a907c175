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
//!
//! ## Kernels
//!
//! The forward pass and the input gradient are the same stride-1
//! correlation (`Corr`) run in opposite directions: output planes from
//! input planes through the taps, and input-gradient planes from
//! output-gradient planes through the same taps backwards, with the kernel
//! permuted to `(C_in × C_out·KH·KW)`. The kernel gradient is the
//! correlation's transpose. Every kernel works one sample at a time, on
//! the register-blocked AXPY primitives (`simd::Dispatch::axpy4` and the
//! 4-row `tensor::matmul_rows` built on it):
//!
//! * **direct** — tap-major AXPYs over each tap's valid runs, four
//!   destination channels per loaded source run. Padding is never visited.
//! * **lowered** — `im2col` lowers sample *b* into `Xcol_b`
//!   (`K = C_in·KH·KW` rows, `P = H'·W'` columns; padding as +0) and
//!   `matmul_rows(W, Xcol_b)` writes straight into the sample's block.
//! * **grad_w** — `G_b · Xcol_bᵀ` into a per-sample partial (the
//!   transpose is built in 8×8 tiles), then the partials are added into
//!   `grad_w` in ascending *b*.
//! * **grad_x scatter** — where taps never share an input element (the
//!   1×k time collapse), `Gᵀ_b · W` is scattered into place (`col2im`).
//!
//! **Which kernel.** Per call, from the geometry alone. When every tap
//! reads whole rows with no horizontal shift (m×1 CCONV, 1×1), a tap's
//! rows merge into one run of up to `H·W` elements and both the forward
//! pass and `grad_x` run direct. Otherwise the forward pass is lowered, and
//! `grad_x` runs direct unless taps never share an input element (the 1×30
//! `Conv4`, output rows 1 wide, so its direct runs are 1 element), where it
//! is scattered. Measured on the paper shape (B = 16, m = 12, window 30),
//! one thread, median of 31 interleaved calls, ms per call, 2-vCPU Xeon VM
//! without `simd`; "lowered grad_x" lowers the output gradient through the
//! reversed taps and multiplies by the permuted kernel:
//!
//! | call | direct fwd | lowered fwd | direct grad_x | lowered grad_x | scatter grad_x |
//! |---|---|---|---|---|---|
//! | DCONV 4→8, d 1 | 0.21 | 0.19 | 0.22 | 0.23 | – |
//! | DCONV 8→8, d 1 | 0.50 | 0.48 | 0.48 | 0.45 | – |
//! | CCONV 8→8 | 0.99 | 1.57 | 0.97 | 1.80 | – |
//! | DCONV 8→16, d 2 | 1.04 | 0.95 | 1.02 | 0.99 | – |
//! | DCONV 16→16, d 2 | 1.88 | 1.72 | 1.88 | 1.75 | – |
//! | CCONV 16→16 | 4.80 | 6.93 | 4.94 | 6.95 | – |
//! | DCONV 16→16, d 4 | 1.81 | 1.80 | 1.83 | 1.78 | – |
//! | DCONV 16→16, d 4 | 1.71 | 1.69 | 1.70 | 1.70 | – |
//! | CCONV 16→16 | 5.64 | 7.74 | 5.76 | 7.74 | – |
//! | Conv4 16→16, 1×30 | 4.29 | 0.99 | 3.99 | 14.00 | 0.88 |
//!
//! Lowering the m×1 CCONV multiplies its ~25 % padding (108 of 144
//! tap-rows valid at m = 12) and pays for the copy, so it loses by about
//! 40 %. On the DCONVs lowering is up to 9 % faster forward and within
//! noise for `grad_x`, where the direct kernel needs no scratch and no
//! second lowering.
//!
//! **Bit-identity.** Each element still adds its terms in the ascending
//! order of the tap-major loops these kernels replaced: `(ic, ky, kx)` for
//! the forward pass, `(oc, ky, kx)` for `grad_x`, ascending position then
//! ascending sample for `grad_w`. Padding enters a lowered matrix as +0, so
//! it adds `w·(+0) = ±0` to a sum that starts at +0. Such a sum can never
//! become −0, and adding ±0 to any other value leaves it unchanged. So for
//! finite inputs every output and gradient is bit-identical to those loops
//! whichever kernel runs, at every thread count and SIMD setting
//! (`crates/tensor/tests/conv_oracle.rs` keeps the loops as the oracle).
//!
//! **Parallelism and scratch.** Each kernel is one [`crate::par`] region
//! split over samples (all samples in one chunk below `PAR_MIN_FLOPS`), so
//! every element is computed by one worker in a fixed order. The lowering
//! scratch is arena [`Storage`] allocated on the calling thread, one slice
//! per chunk reused sample after sample: spawned workers' thread-local
//! arenas die with the region, so workers never allocate.

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
    /// Elements of one input sample `(C_in, H, W)`.
    fn x_len(&self) -> usize {
        self.cin * self.h * self.wid
    }
    /// Elements of one output sample `(C_out, H', W')`.
    fn o_len(&self) -> usize {
        self.cout * self.oh * self.ow
    }
    /// Approximate multiply-add count of the forward pass (used to decide
    /// whether parallel dispatch is worth the spawn overhead).
    fn flops(&self) -> usize {
        2usize
            .saturating_mul(self.b * self.cout)
            .saturating_mul(self.cin * self.kh * self.kw)
            .saturating_mul(self.oh * self.ow)
    }
    /// Samples per pool chunk: every sample in one chunk when the call is
    /// too small to parallelise, otherwise an even split over the workers.
    fn samples_per_chunk(&self) -> usize {
        let t = crate::par::threads();
        if t <= 1 || self.flops() < crate::tensor::PAR_MIN_FLOPS {
            self.b.max(1)
        } else {
            self.b.div_ceil(t).max(1)
        }
    }
    /// Number of pool chunks [`ConvDims::samples_per_chunk`] makes.
    fn chunks(&self) -> usize {
        self.b.div_ceil(self.samples_per_chunk())
    }
    /// The forward pass: output planes from input planes, weight
    /// `w[oc, ic, ky, kx]`.
    fn forward(&self) -> Corr {
        Corr {
            src_c: self.cin,
            src_h: self.h,
            src_w: self.wid,
            dst_h: self.oh,
            dst_w: self.ow,
            th: self.kh,
            tw: self.kw,
            y0: -(self.pt as isize),
            ys: self.dh as isize,
            x0: -(self.pl as isize),
            xs: self.dw as isize,
        }
    }
    /// The input gradient: input-gradient planes from output-gradient
    /// planes through the same taps run backwards, weight `w[oc, ic, ky, kx]`
    /// read as `a[ic, (oc, ky, kx)]`.
    fn grad_x(&self) -> Corr {
        Corr {
            src_c: self.cout,
            src_h: self.oh,
            src_w: self.ow,
            dst_h: self.h,
            dst_w: self.wid,
            th: self.kh,
            tw: self.kw,
            y0: self.pt as isize,
            ys: -(self.dh as isize),
            x0: self.pl as isize,
            xs: -(self.dw as isize),
        }
    }
    /// Whether no input element is read by two taps of the same output
    /// channel. Then the scatter-add of [`col2im_t`] puts exactly one value
    /// into each input-gradient element and keeps the direct loop's sum.
    fn taps_disjoint(&self) -> bool {
        (self.kh == 1 || self.oh == 1) && (self.kw == 1 || self.ow == 1)
    }
}

/// One stride-1 correlation of one sample, the shape the forward pass and
/// the input gradient share:
///
/// `dst[d, y, x] = Σ_{s, ty, tx} a[d, k] · src[s, y + y0 + ty·ys, x + x0 + tx·xs]`
///
/// with `k = (s·th + ty)·tw + tx` and out-of-range source positions read as
/// zero. `a` is the `(D × K)` weight matrix, `K = src_c·th·tw`.
#[derive(Clone, Copy)]
struct Corr {
    src_c: usize,
    src_h: usize,
    src_w: usize,
    dst_h: usize,
    dst_w: usize,
    th: usize,
    tw: usize,
    y0: isize,
    ys: isize,
    x0: isize,
    xs: isize,
}

impl Corr {
    /// Rows of the column matrix, `src_c · th · tw`.
    fn k(&self) -> usize {
        self.src_c * self.th * self.tw
    }
    /// Positions of one destination plane.
    fn p(&self) -> usize {
        self.dst_h * self.dst_w
    }
    /// Whether every tap reads whole rows with no horizontal shift (m×1 and
    /// 1×1 kernels): then each tap's rows merge into one run, and the direct
    /// kernel beats lowering (see the module docs for the measurements).
    fn shift_free(&self) -> bool {
        self.tw == 1 && self.x0 == 0 && self.src_w == self.dst_w
    }

    /// Calls `f(k, dst_off, src_off, n)` for every valid run of every tap,
    /// in ascending `k` and, within a tap, ascending position: destination
    /// elements `dst_off..dst_off + n` of one plane read source elements
    /// `src_off..src_off + n` of the sample. Padding is never visited.
    /// Consecutive whole rows form one run.
    #[inline]
    fn for_each_run(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let src_plane = self.src_h * self.src_w;
        for s in 0..self.src_c {
            for ty in 0..self.th {
                let y_off = self.y0 + ty as isize * self.ys;
                let y_lo = (-y_off).max(0) as usize;
                let y_hi = (self.src_h as isize - y_off).clamp(0, self.dst_h as isize) as usize;
                if y_lo >= y_hi {
                    continue;
                }
                for tx in 0..self.tw {
                    let x_off = self.x0 + tx as isize * self.xs;
                    let x_lo = (-x_off).max(0) as usize;
                    let x_hi = (self.src_w as isize - x_off).clamp(0, self.dst_w as isize) as usize;
                    if x_lo >= x_hi {
                        continue;
                    }
                    let n = x_hi - x_lo;
                    let k = (s * self.th + ty) * self.tw + tx;
                    let src_at = |y: usize| {
                        s * src_plane
                            + (y as isize + y_off) as usize * self.src_w
                            + (x_lo as isize + x_off) as usize
                    };
                    if n == self.dst_w && n == self.src_w {
                        f(k, y_lo * n, src_at(y_lo), (y_hi - y_lo) * n);
                    } else {
                        for y in y_lo..y_hi {
                            f(k, y * self.dst_w + x_lo, src_at(y), n);
                        }
                    }
                }
            }
        }
    }
}

/// Lowers one sample into the column matrix `col` (`K × P`): row `k`
/// holds, at every destination position, the source element tap `k` reads
/// there, or +0 where it reads padding.
fn im2col(c: &Corr, src: &[f64], col: &mut [f64]) {
    col.fill(0.0);
    let p = c.p();
    c.for_each_run(|k, d, s, n| col[k * p + d..][..n].copy_from_slice(&src[s..][..n]));
}

/// [`im2col`] transposed: `col_t` is `P × K`. Built through `col` and
/// transposed in 8×8 tiles, so both sides stream whole cache lines.
fn im2col_t(c: &Corr, src: &[f64], col: &mut [f64], col_t: &mut [f64]) {
    const TILE: usize = 8;
    im2col(c, src, col);
    let (kl, p) = (c.k(), c.p());
    for k0 in (0..kl).step_by(TILE) {
        for p0 in (0..p).step_by(TILE) {
            for k in k0..(k0 + TILE).min(kl) {
                for q in p0..(p0 + TILE).min(p) {
                    col_t[q * kl + k] = col[k * p + q];
                }
            }
        }
    }
}

/// The adjoint of [`im2col_t`]: adds every entry of `col_t` (`P × K`) into
/// the source element its tap read, in ascending `k`.
fn col2im_t(c: &Corr, col_t: &[f64], src: &mut [f64]) {
    let kl = c.k();
    c.for_each_run(|k, d, s, n| {
        for (j, v) in src[s..][..n].iter_mut().enumerate() {
            *v += col_t[(d + j) * kl + k];
        }
    });
}

/// `dst += a · im2col(src)` without building the column matrix: tap-major
/// AXPYs over the valid runs, four destination channels per shared source
/// run. Each element adds its taps in ascending `k`.
fn correlate_direct(c: &Corr, a: &[f64], src: &[f64], dst: &mut [f64]) {
    let (kl, p) = (c.k(), c.p());
    if p == 0 {
        return;
    }
    // One dispatch decision per sample, not per run.
    let simd = crate::simd::Dispatch::capture();
    for (bi, block) in dst.chunks_mut(4 * p).enumerate() {
        let a = &a[4 * bi * kl..];
        if block.len() == 4 * p {
            let (o0, rest) = block.split_at_mut(p);
            let (o1, rest) = rest.split_at_mut(p);
            let (o2, o3) = rest.split_at_mut(p);
            c.for_each_run(|k, d, s, n| {
                simd.axpy4(
                    [&mut o0[d..][..n], &mut o1[d..][..n], &mut o2[d..][..n], &mut o3[d..][..n]],
                    &src[s..][..n],
                    [a[k], a[kl + k], a[2 * kl + k], a[3 * kl + k]],
                );
            });
        } else {
            for (r, o) in block.chunks_mut(p).enumerate() {
                c.for_each_run(|k, d, s, n| {
                    simd.axpy(&mut o[d..][..n], &src[s..][..n], a[r * kl + k])
                });
            }
        }
    }
}

/// Forward convolution. Returns `(B, C_out, H', W')`.
///
/// Parallelised over batch samples via [`crate::par`]; each sample is the
/// direct kernel when [`Corr::shift_free`], otherwise `W · im2col(x_b)`,
/// written into the sample's own output block, so results are
/// bit-identical at every thread count.
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
    let d = ConvDims { b, cin, h, wid, cout, kh, kw, dh, dw, pt, pl, oh, ow };

    let timer = crate::tensor::kernel_timer();
    let (xd, wd) = (x.data(), w.data());
    let corr = d.forward();
    let (per, x_len, o_len) = (d.samples_per_chunk(), d.x_len(), d.o_len().max(1));
    let (kl, p) = (corr.k(), corr.p());
    let scratch_len = if corr.shift_free() { 1 } else { (kl * p).max(1) };
    let mut out = Storage::zeroed(b * d.o_len());
    let mut scratch = Storage::uninit(d.chunks() * scratch_len);
    crate::par::par_chunks_mut_with(
        &mut out,
        per * o_len,
        &mut scratch,
        scratch_len,
        |ci, block, col| {
            for (i, y) in block.chunks_mut(o_len).enumerate() {
                let x_b = &xd[(ci * per + i) * x_len..][..x_len];
                if corr.shift_free() {
                    correlate_direct(&corr, wd, x_b, y);
                } else {
                    im2col(&corr, x_b, &mut col[..kl * p]);
                    crate::tensor::matmul_rows(wd, &col[..kl * p], 0, y, kl, p);
                }
            }
        },
    );
    crate::tensor::observe_kernel_ms("tensor.conv_fwd_ms", timer);
    Tensor::from_storage(&[b, cout, oh, ow], out)
}

/// Backward pass: returns `(grad_x, grad_w)` given the upstream gradient
/// `grad_out` of shape `(B, C_out, H', W')`.
///
/// Two pool regions, each split over batch samples; both gradients keep
/// the per-element accumulation order of the tap-major loops (see the
/// module docs), so they are bit-identical across thread counts.
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
    let d = ConvDims { b, cin, h, wid, cout, kh, kw, dh, dw, pt, pl, oh, ow };

    let timer = crate::tensor::kernel_timer();
    let gx = grad_x(&d, w.data(), grad_out.data());
    let gw = grad_w(&d, x.data(), grad_out.data());
    crate::tensor::observe_kernel_ms("tensor.conv_bwd_ms", timer);
    (Tensor::from_storage(x.shape(), gx), Tensor::from_storage(w.shape(), gw))
}

/// Input gradient, one sample per step: the direct kernel over the output
/// gradient with the kernel permuted to `(C_in × C_out·KH·KW)`, except
/// where taps shift and never share an input element (the 1×k time
/// collapse, whose direct runs are one element long): then `Gᵀ_b · W`
/// scattered into place. Either way each element sums its `(oc, ky, kx)`
/// terms in ascending order.
fn grad_x(d: &ConvDims, wd: &[f64], gd: &[f64]) -> Storage {
    let (per, x_len, o_len) = (d.samples_per_chunk(), d.x_len().max(1), d.o_len());
    let mut gx = Storage::zeroed(d.b * d.x_len());
    let corr = d.grad_x();
    if corr.shift_free() || !d.taps_disjoint() {
        let taps = d.kh * d.kw;
        let mut a = Storage::uninit(wd.len());
        for (i, &v) in wd.iter().enumerate() {
            let (oc, ic, t) = (i / (d.cin * taps), i / taps % d.cin, i % taps);
            a[(ic * d.cout + oc) * taps + t] = v;
        }
        crate::par::par_chunks_mut(&mut gx, per * x_len, |ci, block| {
            for (i, gx_b) in block.chunks_mut(x_len).enumerate() {
                let g = &gd[(ci * per + i) * o_len..][..o_len];
                correlate_direct(&corr, &a, g, gx_b);
            }
        });
        return gx;
    }
    // grad_x_b = col2im(Gᵀ_b · W): `g_t` is `P × C_out`, `dcol` `P × K`.
    let fwd = d.forward();
    let (p, kl) = (fwd.p(), fwd.k());
    let scratch_len = (p * (d.cout + kl)).max(1);
    let mut scratch = Storage::uninit(d.chunks() * scratch_len);
    crate::par::par_chunks_mut_with(
        &mut gx,
        per * x_len,
        &mut scratch,
        scratch_len,
        |ci, block, s| {
            let (g_t, dcol) = s[..p * (d.cout + kl)].split_at_mut(p * d.cout);
            for (i, gx_b) in block.chunks_mut(x_len).enumerate() {
                let g = &gd[(ci * per + i) * o_len..][..o_len];
                for (oc, row) in g.chunks(p.max(1)).enumerate() {
                    for (pi, &v) in row.iter().enumerate() {
                        g_t[pi * d.cout + oc] = v;
                    }
                }
                dcol.fill(0.0);
                crate::tensor::matmul_rows(g_t, wd, 0, dcol, d.cout, kl);
                col2im_t(&fwd, dcol, gx_b);
            }
        },
    );
    gx
}

/// Kernel gradient: per sample, `G_b · im2col_t(x_b)` into a partial of
/// its own, then the partials added into `grad_w` in ascending sample
/// order — the tap-major loop's per-sample window sum followed by `+=`.
fn grad_w(d: &ConvDims, xd: &[f64], gd: &[f64]) -> Storage {
    let fwd = d.forward();
    let (p, kl) = (fwd.p(), fwd.k());
    let (per, x_len, o_len) = (d.samples_per_chunk(), d.x_len(), d.o_len());
    let pw = (d.cout * kl).max(1);
    let scratch_len = (2 * p * kl).max(1);
    let mut partial = Storage::zeroed(d.b * d.cout * kl);
    let mut scratch = Storage::uninit(d.chunks() * scratch_len);
    crate::par::par_chunks_mut_with(
        &mut partial,
        per * pw,
        &mut scratch,
        scratch_len,
        |ci, block, s| {
            let (col, col_t) = s[..2 * p * kl].split_at_mut(p * kl);
            for (i, part) in block.chunks_mut(pw).enumerate() {
                let bi = ci * per + i;
                im2col_t(&fwd, &xd[bi * x_len..][..x_len], col, col_t);
                crate::tensor::matmul_rows(&gd[bi * o_len..][..o_len], col_t, 0, part, p, kl);
            }
        },
    );
    let mut gw = Storage::zeroed(d.cout * kl);
    for part in partial.chunks(pw) {
        for (g, &v) in gw.iter_mut().zip(part) {
            *g += v;
        }
    }
    gw
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
