//! `train`: a closed-loop batch job. Timed `Trainer::step` calls on a
//! `Variant::Ppn` paper-shaped net over the seed's Crypto-A market, then
//! one evaluation of the net as it stood after a fixed number of steps.
//! No HTTP and no registry: serve and stream changes should not move it.

use crate::trace::{Ctx, Tracer};
use crate::{cpu, stats, timed_setups, Args, Report, ROUNDS, SETUPS, SETUPS_BEFORE};
use ppn_core::config::{RewardConfig, TrainConfig};
use ppn_core::ppn::Variant;
use ppn_core::trainer::Trainer;
use ppn_market::{test_range, Dataset, Preset};
use std::sync::Arc;
use std::time::Instant;

/// Untimed steps after set-up: the first sweeps fill the tensor arena.
const WARMUP_STEPS: usize = 2;
/// Timed steps after which the net is frozen for evaluation, so `eval.apv`
/// depends on the seed alone and not on how fast the host is.
const EVAL_AFTER_STEPS: usize = 30;

pub(crate) fn train_config(seed: u64) -> TrainConfig {
    TrainConfig { seed, ..TrainConfig::default() }
}

pub(crate) fn run(args: &Args, tracer: &Tracer, rep: &mut Report) {
    let mut build = || {
        tracer.span(Ctx::ROOT, "setup", |c| {
            let ds = tracer.span(c, "market.synth", |_| {
                Arc::new(Dataset::load_with_seed(Preset::CryptoA, args.seed))
            });
            let mut trainer = Trainer::new(
                Arc::clone(&ds),
                Variant::Ppn,
                RewardConfig::default(),
                train_config(args.seed),
            );
            for _ in 0..WARMUP_STEPS {
                trainer.step();
            }
            (ds, trainer)
        })
    };
    let mut setups = Vec::new();
    let (ds, mut trainer) = timed_setups(SETUPS_BEFORE, &mut setups, &mut build, drop);

    let deadline = Instant::now() + args.duration();
    let t0 = Instant::now();
    let (mut step_ms, mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Process time before the first timed step and after each one.
    let mut cpu_at = vec![cpu::process_seconds()];
    let mut frozen = None;
    let mut bad_rewards = 0u64;
    while step_ms.len() < EVAL_AFTER_STEPS || Instant::now() < deadline {
        let traced = tracer.on() && step_ms.len().is_multiple_of(2);
        let s = Instant::now();
        let stats = if traced {
            tracer.span(Ctx::ROOT, "train.step", |_| trainer.step())
        } else {
            trainer.step()
        };
        let ms = s.elapsed().as_secs_f64() * 1e3;
        cpu_at.push(cpu::process_seconds());
        step_ms.push(ms);
        if traced { &mut traced_ms } else { &mut plain_ms }.push(ms);
        bad_rewards += u64::from(!(stats.reward.is_finite() && stats.grad_norm.is_finite()));
        if step_ms.len() == EVAL_AFTER_STEPS {
            frozen = Some(trainer.net.snapshot());
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    rep.attempted += step_ms.len() as u64;
    rep.failed += bad_rewards;
    rep.check(bad_rewards == 0, || format!("{bad_rewards} training steps had a non-finite reward"));

    // Processor ms per step in each of ROUNDS consecutive rounds of equal
    // step count.
    let round_cpu: Vec<f64> = stats::round_ranges(step_ms.len(), ROUNDS)
        .map(|r| 1e3 * (cpu_at[r.end] - cpu_at[r.start]) / r.len() as f64)
        .collect();

    let net = frozen.expect("the loop runs at least EVAL_AFTER_STEPS steps");
    crate::eval::evaluate(&ds, net, test_range(&ds), tracer, rep);
    drop((ds, trainer));
    drop(timed_setups(SETUPS - SETUPS_BEFORE, &mut setups, &mut build, drop));

    rep.note(format!(
        "train: {} timed steps in {wall:.2} s, p50 {:.2} ms; processor ms per step per round \
         {round_cpu:.2?}; setups {setups:.3?}",
        step_ms.len(),
        stats::median(&step_ms),
    ));
    rep.e2e("setup_s", stats::median(&setups), "s");
    rep.e2e("cpu_ms_per_op", stats::median(&round_cpu), "ms");
    rep.layer("bench.latency_p50_ms", stats::median(&step_ms), "ms", "train.step");
    rep.layer("bench.op_p90_ms", stats::quantile(&step_ms, 0.9), "ms", "train.step");
    rep.layer("bench.throughput_per_s", step_ms.len() as f64 / wall, "1/s", "train.step");
    crate::layers::workload_common(rep, tracer, "train.step", &step_ms, &traced_ms, &plain_ms);
}
