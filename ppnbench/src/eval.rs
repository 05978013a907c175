//! The evaluation the train workload ends with: backtest the trained net
//! over the market's test range at ψ = 0.25 %, next to the baseline suite.
//! It is the cost of one Table-3 row.

use crate::trace::{Ctx, Tracer};
use crate::Report;
use ppn_core::policy::NetPolicy;
use ppn_core::ppn::PolicyNet;
use ppn_market::{run_backtest, BacktestResult, Dataset};
use std::ops::Range;
use std::time::Instant;

/// The paper's proportional cost rate.
pub(crate) const PSI: f64 = 0.0025;
fn finite_curve(r: &BacktestResult) -> bool {
    r.records.iter().all(|p| p.wealth.is_finite() && p.wealth > 0.0 && p.net_log_return.is_finite())
}

/// One evaluation: the net's backtest, then the suite's.
fn once(
    ds: &Dataset,
    policy: &mut NetPolicy,
    range: &Range<usize>,
    tracer: &Tracer,
) -> (BacktestResult, Vec<BacktestResult>) {
    tracer.span(Ctx::ROOT, "eval", |c| {
        let ppn =
            tracer.span(c, "eval.ppn_backtest", |_| run_backtest(ds, policy, PSI, range.clone()));
        let suite = tracer.span(c, "baselines.suite", |c| {
            let mut out = Vec::new();
            for (i, mut p) in
                ppn_baselines::standard_suite(ds, range.clone()).into_iter().enumerate()
            {
                // The suite's first entry is UBAH: a near-free policy, so
                // its run times the backtest harness itself.
                let name = if i == 0 { "market.backtest_ubah" } else { "baselines.policy" };
                out.push(
                    tracer.span(c, name, |_| run_backtest(ds, p.as_mut(), PSI, range.clone())),
                );
            }
            out
        });
        (ppn, suite)
    })
}

/// Runs the evaluation once. Records its wall time `eval.total_s`,
/// `eval.apv`, `baselines.suite_s` and `market.backtest_us_per_period` (the
/// suite's UBAH run, which times the harness alone).
pub(crate) fn evaluate(
    ds: &Dataset,
    net: PolicyNet,
    range: Range<usize>,
    tracer: &Tracer,
    rep: &mut Report,
) {
    let mut policy = NetPolicy::new(net);
    let t0 = Instant::now();
    let (ppn, suite) = once(ds, &mut policy, &range, tracer);
    let eval_s = t0.elapsed().as_secs_f64();
    rep.attempted += 1 + suite.len() as u64;
    for r in std::iter::once(&ppn).chain(&suite) {
        let ok = finite_curve(r) && r.records.len() == range.len();
        rep.failed += u64::from(!ok);
        rep.check(ok, || format!("backtest of {} has a non-finite or short wealth curve", r.name));
    }
    let baselines: Vec<String> =
        suite.iter().map(|r| format!("{} {:.4}", r.name, r.metrics.apv)).collect();
    rep.note(format!(
        "eval: {} periods, {} APV {:.6} (baselines: {}) in {eval_s:.3} s",
        range.len(),
        ppn.name,
        ppn.metrics.apv,
        baselines.join(", "),
    ));
    rep.layer("eval.total_s", eval_s, "s", "eval");
    rep.layer("eval.apv", ppn.metrics.apv, "ratio", "eval.ppn_backtest");
    rep.layer(
        "baselines.suite_s",
        tracer.total_ms("baselines.suite") / 1e3,
        "s",
        "baselines.suite",
    );
    rep.layer(
        "market.backtest_us_per_period",
        tracer.total_ms("market.backtest_ubah") * 1e3 / range.len() as f64,
        "us",
        "market.backtest_ubah",
    );
}
