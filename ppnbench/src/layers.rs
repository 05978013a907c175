//! Per-layer metrics for the traced run.
//!
//! Each layer is timed from outside, by calling one crate's public
//! functions at the paper's shape (window 30, LSTM 16, TCCB 8/16/16, m = 12,
//! training batch 16) inside a span. Every value is derived from the spans
//! (median over repeats unless stated), so the JSONL trace accounts for each
//! number. Each probe runs after the one workload whose end-to-end metrics
//! its layer moves; the metrics a workload's traced run does not measure
//! read 0. Metrics that only a workload can produce (server counters, live
//! registry timings, replay counts) come from the workload modules through
//! the helpers below.

use crate::serve::Level;
use crate::trace::{Ctx, Tracer};
use crate::{stats, stream, Args, Report};
use ppn_core::batch::WindowBatch;
use ppn_core::config::{NetConfig, RewardConfig};
use ppn_core::corrnet::{CorrMode, CorrNet};
use ppn_core::decision::DecisionModule;
use ppn_core::online::OnlineNetPolicy;
use ppn_core::ppn::{PolicyNet, Variant};
use ppn_core::reward::cost_sensitive_reward;
use ppn_core::seqnet::SeqNet;
use ppn_core::trainer::Trainer;
use ppn_market::{drifted_weights, Dataset, DecisionContext, LiveFeed, SequentialPolicy};
use ppn_serve::{DecideRequest, DecideResponse, ModelRegistry};
use ppn_stream::{promote, shadow_divergence, PromotionOutcome, StreamConfig};
use ppn_tensor::conv::{
    causal_padding, conv2d_backward, conv2d_forward, same_padding, Dilation, Padding,
};
use ppn_tensor::{clip_global_norm, storage, Adam, Graph, Optimizer, ParamStore, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const M: usize = 12;
const B: usize = 16;
/// Repeats for probes that take milliseconds; microsecond probes run a
/// loop of [`INNER`] calls inside each span.
const REPS: usize = 9;
const INNER: usize = 200;
/// Live bars of the probe market.
const PROBE_LIVE_BARS: usize = 48;

fn med(tracer: &Tracer, span: &str) -> f64 {
    stats::median(&tracer.durations_ms(span))
}

fn random_tensor(rng: &mut StdRng, shape: &[usize], scale: f64) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-scale..scale)).collect())
}

/// The probe market: the stream probe's small two-regime market, cheap
/// to build and at the paper's asset count.
fn probe_market(seed: u64) -> Dataset {
    stream::dataset(seed, PROBE_LIVE_BARS)
}

/// A training batch of `n` windows from `ds`, with the matching relatives
/// and drifted weights for the reward.
fn batch(ds: &Dataset, n: usize, start: usize) -> (WindowBatch, Tensor, Tensor) {
    let m1 = M + 1;
    let uniform = vec![1.0 / m1 as f64; m1];
    let windows: Vec<Vec<f64>> = (0..n).map(|b| ds.window(start + b, 30)).collect();
    let prevs = vec![uniform.clone(); n];
    let mut rels = Vec::with_capacity(n * m1);
    let mut hats = Vec::with_capacity(n * m1);
    for b in 0..n {
        hats.extend(drifted_weights(&uniform, ds.relative(start + b - 1)));
        rels.extend_from_slice(ds.relative(start + b));
    }
    let wb = WindowBatch::new(&windows, &prevs, M, 30, 4);
    (wb, Tensor::from_vec(&[n, m1], rels), Tensor::from_vec(&[n, m1], hats))
}

/// The probes of the workload `args` names: train takes the training and
/// B = 1 layers (tensor kernels, network components, step and act shares,
/// allocator traffic, `Dataset::window`), serve the forward and HTTP
/// layers (`act_batch` at B = 8 and 32, request codecs) and the online
/// ones (PPN-LSTM step, snapshot, idle registry, then the adapt-while-serving
/// probe).
pub(crate) fn run(args: &Args, tracer: &Tracer, rep: &mut Report) {
    let ds = probe_market(args.seed);
    match args.workload.as_str() {
        "train" => {
            tensor_probes(args.seed, tracer, rep);
            component_probes(&ds, args.seed, tracer, rep);
            act_probes(&ds, args.seed, &[1], tracer, rep);
            arena_step_probe(&ds, args.seed, tracer, rep);
            window_probe(&ds, tracer, rep);
        }
        _ => {
            act_probes(&ds, args.seed, &[8, 32], tracer, rep);
            codec_probes(&ds, args.seed, tracer, rep);
            online_probes(&ds, args.seed, tracer, rep);
            registry_probes(args.seed, tracer, rep);
            stream::probe(args, tracer, rep);
        }
    }
}

/// One conv call of the TCCB stack: kernel shape, dilation and padding.
struct ConvCall {
    w: Tensor,
    dil: Dilation,
    pad: Padding,
}

/// The ten convolutions of one correlation-net forward at B = 16: three
/// TCCB blocks (two dilated causal 1×3 convs and one m×1 correlational
/// conv each) and the 1×30 time collapse.
fn tccb_calls(rng: &mut StdRng) -> Vec<ConvCall> {
    let mut calls = Vec::new();
    let mut cin = 4;
    for (c, r) in [(8, 1), (16, 2), (16, 4)] {
        let (pl, pr) = causal_padding(3, r);
        for ci in [cin, c] {
            let w = random_tensor(rng, &[c, ci, 1, 3], 1.0 / (3.0 * ci as f64).sqrt());
            calls.push(ConvCall { w, dil: (1, r), pad: (0, 0, pl, pr) });
        }
        let (pt, pb) = same_padding(M, 1);
        let w = random_tensor(rng, &[c, c, M, 1], 1.0 / (M as f64 * c as f64).sqrt());
        calls.push(ConvCall { w, dil: (1, 1), pad: (pt, pb, 0, 0) });
        cin = c;
    }
    let w = random_tensor(rng, &[16, 16, 1, 30], 1.0 / (30.0f64 * 16.0).sqrt());
    calls.push(ConvCall { w, dil: (1, 1), pad: (0, 0, 0, 0) });
    calls
}

fn tensor_probes(seed: u64, tracer: &Tracer, rep: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e45);
    let calls = tccb_calls(&mut rng);
    let x0 = random_tensor(&mut rng, &[B, 4, M, 30], 1.0);
    // Inputs and upstream gradients of every call, from one forward chain.
    let mut inputs = vec![x0];
    for c in &calls {
        let y = conv2d_forward(inputs.last().expect("chain input"), &c.w, c.dil, c.pad);
        inputs.push(y);
    }
    let (mut flop, mut bytes) = (0.0, 0.0);
    for (c, (x, y)) in calls.iter().zip(inputs.iter().zip(&inputs[1..])) {
        let w = c.w.shape();
        flop += 2.0 * y.data().len() as f64 * (w[1] * w[2] * w[3]) as f64;
        bytes += 8.0 * (x.data().len() + c.w.data().len() + y.data().len()) as f64;
    }
    let grads: Vec<Tensor> =
        inputs[1..].iter().map(|y| random_tensor(&mut rng, y.shape(), 1.0)).collect();
    for _ in 0..REPS {
        tracer.span(Ctx::ROOT, "tensor.conv_fwd", |_| {
            for (c, x) in calls.iter().zip(&inputs) {
                std::hint::black_box(conv2d_forward(x, &c.w, c.dil, c.pad));
            }
        });
        tracer.span(Ctx::ROOT, "tensor.conv_bwd", |_| {
            for ((c, x), g) in calls.iter().zip(&inputs).zip(&grads) {
                std::hint::black_box(conv2d_backward(x, &c.w, g, c.dil, c.pad));
            }
        });
    }
    rep.layer("tensor.conv_fwd_ms", med(tracer, "tensor.conv_fwd"), "ms", "tensor.conv_fwd");
    rep.layer("tensor.conv_bwd_ms", med(tracer, "tensor.conv_bwd"), "ms", "tensor.conv_bwd");
    rep.layer("tensor.conv_gflop", flop / 1e9, "GFLOP", "tensor.conv_fwd");
    rep.layer("tensor.conv_mbytes", bytes / 1e6, "MB", "tensor.conv_fwd");

    // LSTM gate products for one sequence: per step (B·m × d)·(d × 4H)
    // for the input and (B·m × H)·(H × 4H) for the recurrence, 30 steps.
    let xs = random_tensor(&mut rng, &[B * M, 4], 1.0);
    let wx = random_tensor(&mut rng, &[4, 64], 0.5);
    let hs = random_tensor(&mut rng, &[B * M, 16], 1.0);
    let wh = random_tensor(&mut rng, &[16, 64], 0.25);
    for _ in 0..REPS {
        tracer.span(Ctx::ROOT, "tensor.matmul", |_| {
            for _ in 0..30 {
                std::hint::black_box(xs.matmul(&wx));
                std::hint::black_box(hs.matmul(&wh));
            }
        });
    }
    rep.layer("tensor.matmul_ms", med(tracer, "tensor.matmul"), "ms", "tensor.matmul");
}

/// Each network component standalone, then the step and act share tables.
fn component_probes(ds: &Dataset, seed: u64, tracer: &Tracer, rep: &mut Report) {
    let cfg = NetConfig::paper(M);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc07e);
    let mut store = ParamStore::new();
    let seq = SeqNet::new(&mut store, &mut rng, "seq", 4, cfg.lstm_hidden);
    let corr = CorrNet::new(
        &mut store,
        &mut rng,
        "corr",
        CorrMode::Tccb,
        M,
        30,
        4,
        &cfg.tccb_channels,
        &cfg.tccb_dilations,
        cfg.dropout,
    );
    let decision = DecisionModule::new(
        &mut store,
        &mut rng,
        "decision",
        seq.channels() + corr.channels(),
        0.0,
    );
    let (wb, rel, hat) = batch(ds, B, 100);
    let reward = RewardConfig::default();
    let mut g = Graph::new();

    // Components standalone: forward, then backward from a scalar loss.
    for _ in 0..REPS {
        g.reset();
        let bind = store.bind(&mut g);
        let out = tracer.span(Ctx::ROOT, "core.corrnet_fwd", |_| {
            corr.forward(&mut g, &bind, &wb, true, &mut rng)
        });
        let loss = g.mean(out);
        tracer.span(Ctx::ROOT, "core.corrnet_bwd", |_| g.backward(loss));
        g.reset();
        let bind = store.bind(&mut g);
        let out = tracer.span(Ctx::ROOT, "core.seqnet_fwd", |_| seq.forward(&mut g, &bind, &wb));
        let loss = g.mean(out);
        tracer.span(Ctx::ROOT, "core.seqnet_bwd", |_| g.backward(loss));
        g.reset();
        let bind = store.bind(&mut g);
        let f1 = g.leaf(Tensor::from_vec(&[B, 16, M, 1], vec![0.1; B * 16 * M]));
        let f2 = g.leaf(Tensor::from_vec(&[B, 16, M, 1], vec![0.2; B * 16 * M]));
        let prev = g.leaf(wb.prev_risky.clone());
        let actions = tracer.span(Ctx::ROOT, "core.decision_fwd", |_| {
            decision.forward(&mut g, &bind, &[f1, f2], prev)
        });
        tracer.span(Ctx::ROOT, "core.reward", |_| {
            cost_sensitive_reward(
                &mut g,
                actions,
                &rel,
                &hat,
                reward.lambda,
                reward.gamma,
                reward.psi,
            )
        });
    }
    for (metric, span) in [
        ("core.corrnet_fwd_ms", "core.corrnet_fwd"),
        ("core.corrnet_bwd_ms", "core.corrnet_bwd"),
        ("core.seqnet_fwd_ms", "core.seqnet_fwd"),
        ("core.seqnet_bwd_ms", "core.seqnet_bwd"),
        ("core.decision_fwd_ms", "core.decision_fwd"),
        ("core.reward_ms", "core.reward"),
    ] {
        rep.layer(metric, med(tracer, span), "ms", span);
    }

    // One PPN training step assembled from the components, as
    // `Trainer::step` runs it, and one inference forward at B = 8: the
    // share of each layer in the whole. Glue is the root's self time.
    let mut adam = Adam::new(1e-2);
    let (wb8, _, _) = batch(ds, 8, 200);
    for _ in 0..REPS {
        tracer.span(Ctx::ROOT, "core.step", |c| {
            g.reset();
            let bind = store.bind(&mut g);
            let fs = tracer.span(c, "core.step.seqnet_fwd", |_| seq.forward(&mut g, &bind, &wb));
            let fc = tracer.span(c, "core.step.corrnet_fwd", |_| {
                corr.forward(&mut g, &bind, &wb, true, &mut rng)
            });
            let prev = g.leaf(wb.prev_risky.clone());
            let a = tracer.span(c, "core.step.decision_fwd", |_| {
                decision.forward(&mut g, &bind, &[fs, fc], prev)
            });
            let nodes = tracer.span(c, "core.step.reward", |_| {
                cost_sensitive_reward(
                    &mut g,
                    a,
                    &rel,
                    &hat,
                    reward.lambda,
                    reward.gamma,
                    reward.psi,
                )
            });
            tracer.span(c, "core.step.backward", |_| g.backward(nodes.loss));
            tracer.span(c, "core.step.optimizer", |_| {
                let mut grads = bind.grads(&g);
                clip_global_norm(&mut grads, 5.0);
                adam.step(&mut store, &grads);
            });
        });
        tracer.span(Ctx::ROOT, "core.act", |c| {
            g.reset();
            let bind = store.bind(&mut g);
            let fs = tracer.span(c, "core.act.seqnet", |_| seq.forward(&mut g, &bind, &wb8));
            let fc = tracer.span(c, "core.act.corrnet", |_| {
                corr.forward(&mut g, &bind, &wb8, false, &mut rng)
            });
            let prev = g.leaf(wb8.prev_risky.clone());
            tracer
                .span(c, "core.act.decision", |_| decision.forward(&mut g, &bind, &[fs, fc], prev));
        });
    }
    share(
        tracer,
        rep,
        "core.step",
        "core.step_share_pct",
        &[
            ("seqnet_fwd", "core.step.seqnet_fwd"),
            ("corrnet_fwd", "core.step.corrnet_fwd"),
            ("decision_fwd", "core.step.decision_fwd"),
            ("reward", "core.step.reward"),
            ("backward", "core.step.backward"),
            ("optimizer", "core.step.optimizer"),
        ],
    );
    share(
        tracer,
        rep,
        "core.act",
        "core.act_share_pct",
        &[
            ("seqnet", "core.act.seqnet"),
            ("corrnet", "core.act.corrnet"),
            ("decision", "core.act.decision"),
        ],
    );
}

/// Per-row cost of `PolicyNet::act_batch` at each batch size of `sizes`;
/// at B = 8 also the allocator traffic of one call.
fn act_probes(ds: &Dataset, seed: u64, sizes: &[usize], tracer: &Tracer, rep: &mut Report) {
    let net = PolicyNet::new(Variant::Ppn, NetConfig::paper(M), &mut StdRng::seed_from_u64(seed));
    let uniform = vec![1.0 / (M + 1) as f64; M + 1];
    for &b in sizes {
        let (span, metric, reps) = match b {
            1 => ("core.act_b1", "core.act_row_us.b1", 3 * REPS),
            8 => ("core.act_b8", "core.act_row_us.b8", REPS),
            _ => ("core.act_b32", "core.act_row_us.b32", REPS),
        };
        let windows: Vec<Vec<f64>> = (0..b).map(|i| ds.window(300 + i, 30)).collect();
        let prevs = vec![uniform.clone(); b];
        for _ in 0..reps {
            tracer.span(Ctx::ROOT, span, |_| std::hint::black_box(net.act_batch(&windows, &prevs)));
        }
        rep.layer(metric, med(tracer, span) * 1e3 / b as f64, "us", span);
        if b == 8 {
            // The tensor arena is per thread; the calls above warmed it.
            let a0 = storage::arena_stats();
            tracer.span(Ctx::ROOT, "core.arena_act", |_| net.act_batch(&windows, &prevs));
            let a1 = storage::arena_stats();
            rep.layer(
                "tensor.alloc_bytes_per_act",
                (a1.alloc_bytes - a0.alloc_bytes) as f64,
                "bytes",
                "core.arena_act",
            );
        }
    }
}

/// Allocator traffic over one steady-state PPN `Trainer::step` (the tensor
/// arena is per thread; the step runs on this one).
fn arena_step_probe(ds: &Dataset, seed: u64, tracer: &Tracer, rep: &mut Report) {
    let mut trainer =
        Trainer::new(ds, Variant::Ppn, RewardConfig::default(), crate::train::train_config(seed));
    trainer.step();
    trainer.step();
    let s0 = storage::arena_stats();
    tracer.span(Ctx::ROOT, "core.arena_step", |_| trainer.step());
    let s1 = storage::arena_stats();
    let (hits, misses) = (s1.arena_hits - s0.arena_hits, s1.arena_misses - s0.arena_misses);
    rep.layer(
        "tensor.arena_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        "core.arena_step",
    );
    rep.layer(
        "tensor.alloc_bytes_per_step",
        (s1.alloc_bytes - s0.alloc_bytes) as f64,
        "bytes",
        "core.arena_step",
    );
}

/// One online step of the stream probe's net (PPN-LSTM, batch 16) and
/// one snapshot of it.
fn online_probes(ds: &Dataset, seed: u64, tracer: &Tracer, rep: &mut Report) {
    let mut online = Trainer::new(
        ds,
        Variant::PpnLstm,
        RewardConfig::default(),
        crate::train::train_config(seed),
    );
    online.step();
    for _ in 0..REPS {
        tracer.span(Ctx::ROOT, "core.online_step", |_| online.step());
        tracer.span(Ctx::ROOT, "core.snapshot", |_| std::hint::black_box(online.net.snapshot()));
    }
    rep.layer("core.online_step_ms", med(tracer, "core.online_step"), "ms", "core.online_step");
    rep.layer("core.snapshot_ms", med(tracer, "core.snapshot"), "ms", "core.snapshot");
}

/// Each child's share of its root's total time, and the root's self time
/// as `glue`, in percent.
fn share(
    tracer: &Tracer,
    rep: &mut Report,
    root: &'static str,
    prefix: &str,
    parts: &[(&str, &'static str)],
) {
    let total = tracer.total_ms(root);
    for (part, span) in parts {
        rep.layer(&format!("{prefix}.{part}"), 100.0 * tracer.total_ms(span) / total, "%", span);
    }
    rep.layer(&format!("{prefix}.glue"), 100.0 * tracer.self_ms(root) / total, "%", root);
}

/// Microseconds per call of a span that loops [`INNER`] calls.
fn per_call_us(tracer: &Tracer, span: &str) -> f64 {
    med(tracer, span) * 1e3 / INNER as f64
}

fn window_probe(ds: &Dataset, tracer: &Tracer, rep: &mut Report) {
    for _ in 0..REPS {
        tracer.span(Ctx::ROOT, "market.window", |_| {
            for i in 0..INNER {
                std::hint::black_box(ds.window(100 + i, 30));
            }
        });
    }
    rep.layer("market.window_us", per_call_us(tracer, "market.window"), "us", "market.window");
}

/// The request path outside the forward pass: HTTP parse, `DecideRequest`
/// decode and `DecideResponse` encode of a full `/decide` exchange.
fn codec_probes(ds: &Dataset, seed: u64, tracer: &Tracer, rep: &mut Report) {
    let cfg = NetConfig::paper(M);
    let pool = crate::serve::request_pool(ds, &cfg, 100..ds.periods() - 1, seed, "ppn");
    let body = serde_json::to_string(&pool[0]).expect("request serializes");
    let raw = crate::load::request_bytes(&body);
    let resp = DecideResponse {
        model: "ppn".into(),
        model_version: 3,
        weights: pool[0].prev_action.clone(),
        batch_size: 8,
    };
    for _ in 0..REPS {
        tracer.span(Ctx::ROOT, "serve.parse", |_| {
            for _ in 0..INNER {
                let parsed =
                    ppn_serve::http::parse_request(&raw).expect("a well-formed request parses");
                std::hint::black_box(parsed);
            }
        });
        tracer.span(Ctx::ROOT, "serve.decode", |_| {
            for _ in 0..INNER {
                let req: DecideRequest = serde_json::from_str(&body).expect("the body decodes");
                std::hint::black_box(req);
            }
        });
        tracer.span(Ctx::ROOT, "serve.encode", |_| {
            for _ in 0..INNER {
                std::hint::black_box(serde_json::to_string(&resp).expect("the response encodes"));
            }
        });
    }
    rep.layer("serve.parse_us", per_call_us(tracer, "serve.parse"), "us", "serve.parse");
    rep.layer("serve.decode_us", per_call_us(tracer, "serve.decode"), "us", "serve.decode");
    rep.layer("serve.encode_us", per_call_us(tracer, "serve.encode"), "us", "serve.encode");
}

/// The registry with nothing else running.
fn registry_probes(seed: u64, tracer: &Tracer, rep: &mut Report) {
    let registry = ModelRegistry::new();
    let net = stream::fresh_net(seed);
    registry.publish("idle", net.snapshot());
    for _ in 0..REPS {
        tracer.span(Ctx::ROOT, "registry.resolve", |_| {
            for _ in 0..INNER {
                std::hint::black_box(registry.resolve("idle"));
            }
        });
        let candidate = net.snapshot();
        tracer.span(Ctx::ROOT, "registry.publish", |_| registry.publish("idle", candidate));
    }
    rep.layer(
        "registry.resolve_us",
        per_call_us(tracer, "registry.resolve"),
        "us",
        "registry.resolve",
    );
    rep.layer(
        "registry.publish_us",
        med(tracer, "registry.publish") * 1e3,
        "us",
        "registry.publish",
    );
}

/// Layer metrics every workload reports from its own run. `ops` are the
/// workload's operation latencies in ms; `traced` and `plain` split them by
/// whether a span was recorded around them, interleaved in one run.
pub(crate) fn workload_common(
    rep: &mut Report,
    tracer: &Tracer,
    op_span: &'static str,
    ops: &[f64],
    traced: &[f64],
    plain: &[f64],
) {
    // The deepest tail the sample supports: the highest percentile with at
    // least ten samples beyond it. Too jittery on a shared host to gate on,
    // so the end-to-end metric is p90 and this is reported beside it.
    let (tail, pct) = stats::tail(ops);
    rep.note(format!("tail: p{pct:.2} of {} operations is {tail:.3} ms", ops.len()));
    rep.layer("bench.op_tail_ms", tail, "ms", op_span);
    rep.layer("bench.op_tail_pct", pct, "%", op_span);
    let overhead = 100.0 * (stats::median(traced) / stats::median(plain) - 1.0);
    rep.layer("bench.trace_overhead_pct", overhead, "%", op_span);
    rep.layer("market.synth_s", med(tracer, "market.synth") / 1e3, "s", "market.synth");
}

/// Server-side layer metrics from the open-loop levels of a serve run:
/// the reference rounds and the sweep.
pub(crate) fn serve_levels(rep: &mut Report, references: &[Level], sweep: &[Level]) {
    let span = "serve.rate";
    let all: Vec<&Level> = references.iter().chain(sweep).collect();
    let max_batch = all.iter().map(|l| l.server.batch_mean).fold(0.0, f64::max);
    let ref_batch: Vec<f64> = references.iter().map(|l| l.server.batch_mean).collect();
    let peak = all.iter().map(|l| l.out.queue_peak).fold(0.0, f64::max);
    let sum = |f: &dyn Fn(&Level) -> u64| all.iter().map(|l| f(l)).sum::<u64>() as f64;
    let sent = sum(&|l| l.out.scheduled as u64);
    let lag: Vec<f64> = all.iter().flat_map(|l| l.out.answers.iter().map(|a| a.lag_ms)).collect();
    rep.layer("serve.batch_mean", stats::median(&ref_batch), "rows", span);
    rep.layer("serve.batch_mean_max", max_batch, "rows", span);
    rep.layer("serve.max_sustained_rps", crate::serve::max_sustained_rps(sweep), "1/s", span);
    rep.layer("serve.queue_depth_peak", peak, "count", span);
    rep.layer("serve.shed", sum(&|l| l.server.shed), "count", span);
    rep.layer("serve.errors", sum(&|l| l.server.errors), "count", span);
    rep.layer("serve.cancelled", sum(&|l| l.server.cancelled), "count", span);
    rep.layer("serve.unanswered", sum(&|l| l.out.unanswered as u64), "count", span);
    rep.layer("serve.decide_error_rate", sum(&|l| l.out.failed() as u64) / sent, "ratio", span);
    rep.layer("serve.gen_lag_ms_p99", stats::quantile(&lag, 0.99), "ms", "decide.send_lag");
}

/// Registry calls timed while the stream service published and readers
/// resolved.
pub(crate) fn registry_live(rep: &mut Report, tracer: &Tracer) {
    rep.layer(
        "registry.resolve_us_live",
        med(tracer, "registry.resolve_live") * 1e3,
        "us",
        "registry.resolve_live",
    );
    rep.layer(
        "registry.publish_us_live",
        med(tracer, "registry.publish_live") * 1e3,
        "us",
        "registry.publish_live",
    );
}

/// Counts of one replay of a stream feed.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    pub(crate) bars: u64,
    pub(crate) publishes: u64,
    pub(crate) promoted: u64,
    pub(crate) rolled_back: u64,
}

/// Replays the stream probe's pipeline on this thread, with a span
/// around each stage: pretrain and publish v1, then per bar
/// `LiveFeed::next_bar` → `decide_one`, and every `publish_every` bars a
/// snapshot, a `shadow_divergence` against the live version and `promote`.
/// The stream service runs the same loop on its own thread, so its counts
/// must equal these.
pub(crate) fn stream_replay(ds: &Dataset, seed: u64, tracer: &Tracer) -> Replay {
    let ds = Arc::new(ds.clone());
    let cfg = StreamConfig::default();
    let live = ds.periods() - ds.split;
    let registry = stream::registry_for(live, &cfg);
    let mut trainer = Trainer::with_net(
        Arc::clone(&ds),
        stream::fresh_net(seed),
        RewardConfig::default(),
        stream::pretrain_config(seed),
    );
    tracer.span(Ctx::ROOT, "stream.pretrain", |_| trainer.train());
    registry.publish(stream::NAME, trainer.net.snapshot());
    let mut replay = Replay { publishes: 1, ..Replay::default() };
    let mut policy = OnlineNetPolicy::from_trainer(trainer, cfg.steps_per_bar);
    let mut feed = LiveFeed::new(Arc::clone(&ds), ds.split);
    let mut prev = vec![0.0; M + 1];
    prev[0] = 1.0;
    let mut since = 0;
    while let Some(bar) = feed.next_bar() {
        tracer.span(Ctx::ROOT, "stream.bar", |_| {
            let drifted = drifted_weights(&prev, &bar.relative);
            let ctx = DecisionContext {
                t: bar.t,
                dataset: &ds,
                history: &ds.relatives[..bar.t],
                drifted: &drifted,
                prev_action: &prev,
            };
            prev = policy.decide_one(&ctx);
        });
        replay.bars += 1;
        since += 1;
        if since < cfg.publish_every {
            continue;
        }
        since = 0;
        let candidate =
            tracer.span(Ctx::ROOT, "stream.snapshot", |_| policy.trainer().net.snapshot());
        if let Some(live) = registry.resolve(stream::NAME) {
            tracer.span(Ctx::ROOT, "stream.shadow", |_| {
                shadow_divergence(live.net(), &candidate, &ds, bar.t, cfg.shadow_window)
            });
        }
        let promotion = tracer.span(Ctx::ROOT, "stream.promote", |_| {
            promote(&registry, stream::NAME, candidate, &ds, bar.t, &cfg)
        });
        replay.publishes += 1;
        match promotion.outcome {
            PromotionOutcome::RolledBack { .. } => replay.rolled_back += 1,
            _ => replay.promoted += 1,
        }
    }
    replay
}

/// The stream layer metrics a replay leaves in the trace.
pub(crate) fn stream_counts(rep: &mut Report, tracer: &Tracer, replay: &Replay) {
    rep.layer("stream.bar_ms", med(tracer, "stream.bar"), "ms", "stream.bar");
    rep.layer("stream.shadow_ms", med(tracer, "stream.shadow"), "ms", "stream.shadow");
    rep.layer("stream.promote_ms", med(tracer, "stream.promote"), "ms", "stream.promote");
    rep.layer("stream.publishes", replay.publishes as f64, "count", "stream.promote");
    rep.layer("stream.promoted", replay.promoted as f64, "count", "stream.promote");
    rep.layer("stream.rolled_back", replay.rolled_back as f64, "count", "stream.promote");
}
