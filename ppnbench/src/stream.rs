//! The adapt-while-serving probe of a traced `serve` run. A
//! `Variant::PpnLstm` paper-shaped net runs under `StreamService` with the
//! default `StreamConfig` (publish every 16 bars, shadow window 8, one step
//! per bar, full-speed feed) over a seeded two-regime market (up-drift,
//! then down-drift). Meanwhile open-loop `/decide` readers at one fixed low
//! rate hit a `Server` on the same registry. Small-batch online LSTM steps,
//! snapshot, publish, shadow and promote, and pointer swaps under
//! concurrent `resolve`; no TCCB.
//!
//! It reports per-layer metrics only. Its cost per bar moves with the
//! host's other load far more than the gated workloads' costs do (see
//! README.md), too much to bound, so it is not a workload of its own.

use crate::load;
use crate::serve::{request_pool, verify};
use crate::trace::{Ctx, Tracer};
use crate::{cpu, stats, Args, Report};
use ppn_core::config::{NetConfig, RewardConfig, TrainConfig};
use ppn_core::ppn::{PolicyNet, Variant};
use ppn_market::{stitched_dataset, test_range, Dataset, MarketConfig, Preset};
use ppn_serve::{ModelRegistry, ServeConfig, Server};
use ppn_stream::{StreamConfig, StreamService};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub(crate) const NAME: &str = "live";
/// Bars of pretraining history before the live feed starts.
const SPLIT: usize = 600;
/// Live bars of the feed: a fixed length, so the counts repeat exactly for
/// a seed.
const LIVE_BARS: usize = 300;
/// Open-loop reader rate while the service adapts.
const READER_RPS: f64 = 40.0;
const PRETRAIN_STEPS: usize = 20;

/// The two-regime market: `SPLIT` bars of history, then `live` bars whose
/// drift flips from up to down halfway through.
pub(crate) fn dataset(seed: u64, live: usize) -> Dataset {
    let up = MarketConfig {
        assets: 12,
        periods: SPLIT + live / 2,
        seed: seed.wrapping_mul(2).wrapping_add(11),
        drift: 2e-3,
        momentum: 0.3,
        ..MarketConfig::default()
    };
    let down = MarketConfig {
        periods: live - live / 2 + 1,
        seed: up.seed + 1,
        drift: -2e-3,
        ..up.clone()
    };
    stitched_dataset(Preset::CryptoA, &[up, down], SPLIT)
}

pub(crate) fn fresh_net(seed: u64) -> PolicyNet {
    PolicyNet::new(Variant::PpnLstm, NetConfig::paper(12), &mut StdRng::seed_from_u64(seed))
}

pub(crate) fn pretrain_config(seed: u64) -> TrainConfig {
    TrainConfig { steps: PRETRAIN_STEPS, seed, ..TrainConfig::default() }
}

/// Every version the run can publish stays resolvable for the checks.
pub(crate) fn registry_for(live: usize, cfg: &StreamConfig) -> ModelRegistry {
    ModelRegistry::with_retention(live / cfg.publish_every + 2)
}

pub(crate) fn probe(args: &Args, tracer: &Tracer, rep: &mut Report) {
    let live = LIVE_BARS;
    let cfg = StreamConfig::default();
    let (ds, registry, svc, server) = tracer.span(Ctx::ROOT, "stream.setup", |c| {
        let ds = Arc::new(tracer.span(c, "market.synth", |_| dataset(args.seed, live)));
        let registry = Arc::new(registry_for(live, &cfg));
        let server = Server::start(Arc::clone(&registry), ServeConfig::default())
            .expect("the server binds an ephemeral port");
        let svc = StreamService::start(
            Arc::clone(&registry),
            NAME,
            Arc::clone(&ds),
            fresh_net(args.seed),
            RewardConfig::default(),
            pretrain_config(args.seed),
            cfg.clone(),
        );
        tracer.span(c, "stream.until_live", |_| {
            while registry.live_version(NAME).is_none() && !svc.is_finished() {
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        (ds, registry, svc, server)
    });
    let (live_at, cpu_live) = (Instant::now(), cpu::process_seconds());

    let net_cfg = NetConfig::paper(12);
    let pool = request_pool(&ds, &net_cfg, test_range(&ds), args.seed, NAME);
    let requests: Vec<Vec<u8>> = pool
        .iter()
        .map(|r| load::request_bytes(&serde_json::to_string(r).expect("request serializes")))
        .collect();
    // Scheduled well past the feed's expected end; the sender stops when
    // the service finishes.
    let horizon = Duration::from_secs(300);
    let schedule = load::poisson(READER_RPS, horizon, requests.len(), args.seed ^ 0x5eed);
    let spare = fresh_net(args.seed);
    // Registry calls timed while the service publishes.
    let live_probe = |n: usize| {
        tracer.span(Ctx::ROOT, "registry.resolve_live", |_| registry.resolve(NAME));
        if n.is_multiple_of(8) {
            let net = spare.snapshot();
            tracer
                .span(Ctx::ROOT, "registry.publish_live", |_| registry.publish("bench-probe", net));
        }
    };
    // Process time when the sender last saw the feed still running, sampled
    // each time it checks whether to go on (at least every 10 ms).
    let cpu_end = Mutex::new(cpu_live);
    let keep_going = || {
        *cpu_end.lock().expect("sample lock poisoned by the sender") = cpu::process_seconds();
        !svc.is_finished()
    };
    let out = tracer.span(Ctx::ROOT, "stream.live", |_| {
        load::run(server.addr(), &requests, &schedule, tracer, &keep_going, &live_probe)
    });
    let stats = svc.stop();
    server.shutdown();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            rep.check(false, || format!("cannot connect to the server: {e}"));
            return;
        }
    };
    let feed_end = out.stopped.unwrap_or_else(Instant::now);
    let cpu_end = cpu_end.into_inner().expect("sample lock poisoned by the sender");

    let bars = (ds.periods() - ds.split) as u64;
    rep.attempted += out.scheduled as u64 + bars;
    rep.failed += out.failed() as u64 + bars.saturating_sub(stats.bars);
    rep.check(stats.finished && stats.bars == bars, || {
        format!("service consumed {} of {bars} live bars", stats.bars)
    });
    let want = 1 + bars / cfg.publish_every as u64;
    rep.check(stats.publishes == want, || {
        format!("{} publishes, expected {want}", stats.publishes)
    });
    rep.check(stats.promoted + stats.rolled_back + 1 == stats.publishes, || {
        format!(
            "{} promoted + {} rolled back do not account for {} publishes",
            stats.promoted, stats.rolled_back, stats.publishes
        )
    });
    rep.check(registry.live_version(NAME) == Some(stats.live_version), || {
        format!(
            "registry serves {:?}, service reports v{}",
            registry.live_version(NAME),
            stats.live_version
        )
    });
    verify(&out.answers, &pool, &registry, NAME, rep);

    let bars_per_s = stats.bars as f64 / (feed_end - live_at).as_secs_f64();
    let cpu_per_bar = 1e3 * (cpu_end - cpu_live) / stats.bars as f64;
    let ok: Vec<f64> =
        out.answers.iter().filter(|a| a.status == 200).map(|a| a.latency_ms).collect();
    let versions: std::collections::BTreeSet<u64> =
        out.answers.iter().filter_map(|a| a.version).collect();
    rep.note(format!(
        "stream: {} live bars at {bars_per_s:.2} bars/s, {cpu_per_bar:.2} processor ms per bar; \
         {} publishes, {} promoted, {} rolled back, live v{}; \
         readers: {} sent, {} failed, p50 {:.2} ms, {} versions seen",
        stats.bars,
        stats.publishes,
        stats.promoted,
        stats.rolled_back,
        stats.live_version,
        out.scheduled,
        out.failed(),
        stats::median(&ok),
        versions.len()
    ));
    rep.layer("stream.bars_per_s", bars_per_s, "1/s", "stream.live");
    rep.layer("stream.cpu_ms_per_bar", cpu_per_bar, "ms", "stream.live");
    rep.layer("stream.decide_p50_ms", stats::median(&ok), "ms", "stream.live");

    let replay = crate::layers::stream_replay(&ds, args.seed, tracer);
    let same = (replay.bars, replay.publishes, replay.promoted, replay.rolled_back)
        == (stats.bars, stats.publishes, stats.promoted, stats.rolled_back);
    rep.check(same, || format!("replay counts {replay:?} differ from the service's {stats:?}"));
    crate::layers::stream_counts(rep, tracer, &replay);
    crate::layers::registry_live(rep, tracer);
}
