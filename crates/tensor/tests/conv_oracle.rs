//! Oracle test for the lowered conv kernels.
//!
//! The reference below is the direct tap-major convolution the lowered
//! kernels replaced: the forward pass adds each output element's taps in
//! `(ic, ky, kx)` order, `grad_x` in `(oc, ic, ky, kx, oy)` loop order, and
//! `grad_w` sums each tap's window in `(oy, ox)` order per sample, adding
//! the per-sample sums in ascending sample order. The kernels promise the
//! same per-element order, so every comparison here is on the bits.

use ppn_tensor::conv::{
    causal_padding, conv2d_backward, conv2d_forward, out_dim, same_padding, Dilation, Padding,
};
use ppn_tensor::par::with_threads;
use ppn_tensor::{simd, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Geometry of one reference call.
struct Geo {
    b: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    dil: Dilation,
    pad: Padding,
    oh: usize,
    ow: usize,
}

impl Geo {
    fn new(x: &[usize], k: &[usize], dil: Dilation, pad: Padding) -> Geo {
        let oh = out_dim(x[2], k[2], dil.0, pad.0, pad.1).expect("kernel fits H");
        let ow = out_dim(x[3], k[3], dil.1, pad.2, pad.3).expect("kernel fits W");
        Geo {
            b: x[0],
            cin: x[1],
            h: x[2],
            w: x[3],
            cout: k[0],
            kh: k[2],
            kw: k[3],
            dil,
            pad,
            oh,
            ow,
        }
    }

    /// Input row tap row `ky` reads for output row `oy`, if any.
    fn iy(&self, oy: usize, ky: usize) -> Option<usize> {
        (oy + ky * self.dil.0).checked_sub(self.pad.0).filter(|&iy| iy < self.h)
    }

    /// Input column tap column `kx` reads for output column `ox`, if any.
    fn ix(&self, ox: usize, kx: usize) -> Option<usize> {
        (ox + kx * self.dil.1).checked_sub(self.pad.2).filter(|&ix| ix < self.w)
    }

    fn xi(&self, b: usize, c: usize, y: usize, x: usize) -> usize {
        ((b * self.cin + c) * self.h + y) * self.w + x
    }

    fn oi(&self, b: usize, c: usize, y: usize, x: usize) -> usize {
        ((b * self.cout + c) * self.oh + y) * self.ow + x
    }

    fn wi(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.cin + ic) * self.kh + ky) * self.kw + kx
    }
}

fn ref_forward(g: &Geo, x: &[f64], w: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; g.b * g.cout * g.oh * g.ow];
    for b in 0..g.b {
        for oc in 0..g.cout {
            for ic in 0..g.cin {
                for ky in 0..g.kh {
                    for kx in 0..g.kw {
                        let wv = w[g.wi(oc, ic, ky, kx)];
                        for oy in 0..g.oh {
                            let Some(iy) = g.iy(oy, ky) else { continue };
                            for ox in 0..g.ow {
                                let Some(ix) = g.ix(ox, kx) else { continue };
                                out[g.oi(b, oc, oy, ox)] += wv * x[g.xi(b, ic, iy, ix)];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn ref_backward(g: &Geo, x: &[f64], w: &[f64], go: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut gx = vec![0.0; x.len()];
    for b in 0..g.b {
        for oc in 0..g.cout {
            for ic in 0..g.cin {
                for ky in 0..g.kh {
                    for kx in 0..g.kw {
                        let wv = w[g.wi(oc, ic, ky, kx)];
                        for oy in 0..g.oh {
                            let Some(iy) = g.iy(oy, ky) else { continue };
                            for ox in 0..g.ow {
                                let Some(ix) = g.ix(ox, kx) else { continue };
                                gx[g.xi(b, ic, iy, ix)] += wv * go[g.oi(b, oc, oy, ox)];
                            }
                        }
                    }
                }
            }
        }
    }
    let mut gw = vec![0.0; w.len()];
    for oc in 0..g.cout {
        for b in 0..g.b {
            for ic in 0..g.cin {
                for ky in 0..g.kh {
                    for kx in 0..g.kw {
                        let mut acc = 0.0;
                        for oy in 0..g.oh {
                            let Some(iy) = g.iy(oy, ky) else { continue };
                            for ox in 0..g.ow {
                                let Some(ix) = g.ix(ox, kx) else { continue };
                                acc += go[g.oi(b, oc, oy, ox)] * x[g.xi(b, ic, iy, ix)];
                            }
                        }
                        gw[g.wi(oc, ic, ky, kx)] += acc;
                    }
                }
            }
        }
    }
    (gx, gw)
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs reference {w}");
    }
}

/// Runs the kernels at 1 and 4 threads, with and without the vector paths,
/// and checks forward, `grad_x` and `grad_w` bit for bit against the
/// reference.
fn check(x: &Tensor, w: &Tensor, dil: Dilation, pad: Padding, go_seed: u64) {
    let g = Geo::new(x.shape(), w.shape(), dil, pad);
    let mut rng = StdRng::seed_from_u64(go_seed);
    let n_out = g.b * g.cout * g.oh * g.ow;
    let go: Vec<f64> = (0..n_out).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let want_y = ref_forward(&g, x.data(), w.data());
    let (want_gx, want_gw) = ref_backward(&g, x.data(), w.data(), &go);
    let go = Tensor::from_vec(&[g.b, g.cout, g.oh, g.ow], go);
    for threads in [1, 4] {
        // Without compiled-in vector paths the scalar run would repeat the
        // first one.
        for scalar in [false, true].into_iter().take(if simd::enabled() { 2 } else { 1 }) {
            let run = || {
                let y = conv2d_forward(x, w, dil, pad);
                let (gx, gw) = conv2d_backward(x, w, &go, dil, pad);
                (y, gx, gw)
            };
            let (y, gx, gw) =
                with_threads(threads, || if scalar { simd::force_scalar(run) } else { run() });
            let tag = format!("threads {threads} scalar {scalar}");
            assert_eq!(y.shape(), &[g.b, g.cout, g.oh, g.ow]);
            assert_bits(&format!("forward ({tag})"), y.data(), &want_y);
            assert_bits(&format!("grad_x ({tag})"), gx.data(), &want_gx);
            assert_bits(&format!("grad_w ({tag})"), gw.data(), &want_gw);
        }
    }
}

fn random(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

/// The ten convolutions of the paper's correlation net (three TCCB blocks
/// of dilated causal 1×3, 1×3 and SAME m×1 convs, then the 1×30 VALID time
/// collapse with one-element output rows), plus a C_out that is not a
/// multiple of 4, at B ∈ {1, 3, 16}.
#[test]
fn paper_shaped_calls_match_reference() {
    let m = 12;
    for b in [1, 3, 16] {
        let mut rng = StdRng::seed_from_u64(b as u64);
        let mut x = random(&mut rng, &[b, 4, m, 30]);
        for (c, r) in [(8, 1), (16, 2), (16, 4)] {
            let (pl, pr) = causal_padding(3, r);
            for _ in 0..2 {
                let w = random(&mut rng, &[c, x.shape()[1], 1, 3]);
                check(&x, &w, (1, r), (0, 0, pl, pr), rng.gen());
                x = conv2d_forward(&x, &w, (1, r), (0, 0, pl, pr));
            }
            let (pt, pb) = same_padding(m, 1);
            let w = random(&mut rng, &[c, c, m, 1]);
            check(&x, &w, (1, 1), (pt, pb, 0, 0), rng.gen());
            x = conv2d_forward(&x, &w, (1, 1), (pt, pb, 0, 0));
        }
        let w = random(&mut rng, &[16, 16, 1, 30]);
        check(&x, &w, (1, 1), (0, 0, 0, 0), rng.gen());
        // C_out = 6 and 1 leave a remainder after the 4-row blocks.
        for cout in [6, 1] {
            let w = random(&mut rng, &[cout, 16, 1, 30]);
            check(&x, &w, (1, 1), (0, 0, 0, 0), rng.gen());
            let w = random(&mut rng, &[cout, 16, m, 1]);
            check(&x, &w, (1, 1), (same_padding(m, 1).0, same_padding(m, 1).1, 0, 0), rng.gen());
            let w = random(&mut rng, &[cout, 16, 1, 3]);
            check(&x, &w, (1, 4), (0, 0, 8, 0), rng.gen());
        }
    }
}

/// Random geometry: kernel extents, dilations and asymmetric padding on
/// both axes, so every kernel choice (direct, lowered, scatter) and the
/// row-merging of whole-row runs are exercised.
type Case = ((usize, usize, usize, usize, usize), (usize, usize, usize, usize), (u64, usize));

fn case() -> impl Strategy<Value = Case> {
    (
        (1usize..5, 1usize..5, 1usize..8, 1usize..7, 1usize..12),
        (1usize..4, 1usize..4, 1usize..3, 1usize..3),
        (0u64..u64::MAX, 0usize..9),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_geometry_matches_reference(c in case()) {
        let ((b, cin, cout, h, w), (kh, kw, dy, dx), (seed, padsel)) = c;
        let mut rng = StdRng::seed_from_u64(seed);
        // Padding mode per axis: VALID, causal or SAME (when it fits).
        let axis = |k: usize, d: usize, len: usize, mode: usize| match mode % 3 {
            0 if d * (k - 1) < len => (0, 0),
            1 => causal_padding(k, d),
            _ => same_padding(k, d),
        };
        let (pt, pb) = axis(kh, dy, h, padsel);
        let (pl, pr) = axis(kw, dx, w, padsel / 3);
        let x = random(&mut rng, &[b, cin, h, w]);
        let k = random(&mut rng, &[cout, cin, kh, kw]);
        check(&x, &k, (dy, dx), (pt, pb, pl, pr), seed ^ 1);
    }
}
