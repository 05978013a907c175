//! `serve`: open-loop `/decide` traffic against an in-process `Server`
//! with the default `ServeConfig`, serving a paper-shaped `Variant::Ppn`.
//! Forward only: HTTP parsing, JSON decoding of a 1 440-float window per
//! request, the bounded queue and the micro-batcher. No backward pass, no
//! optimizer and no registry write.
//!
//! Requests carry test-split windows of the seed's Crypto-A market. Each
//! round runs one open-loop reference rate below the knee, which gives the
//! latency figures and the end-to-end cost, processor time per answer, and
//! then saturates the server closed loop with [`SATURATION_DEPTH`] requests
//! in flight on each of two connections: its completion rate is the
//! capacity. A traced run adds a sweep of fixed open-loop rates
//! that brackets the knee and runs into overload, where the server's known
//! read-timeout defect closes the connection. The sweep is a probe of that
//! defect, so its requests stay out of `attempted` and `failed`: what it
//! drops counts in the layer metrics `serve.decide_error_rate`,
//! `serve.errors` and `serve.unanswered`. The highest sweep rate whose p99
//! stays within [`LATENCY_LIMIT_MS`] is a layer metric too.

use crate::load::{self, Answer, Arrival};
use crate::trace::{Ctx, Tracer};
use crate::{cpu, stats, timed_setups, Args, Report, ROUNDS, SETUPS, SETUPS_BEFORE};
use ppn_core::config::NetConfig;
use ppn_core::ppn::{PolicyNet, Variant};
use ppn_market::{test_range, Dataset, Preset};
use ppn_serve::http::HttpClient;
use ppn_serve::{DecideRequest, DecideResponse, ModelRegistry, ServeConfig, Server};
use ppn_tensor::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "ppn";
/// Distinct request bodies per run; each is checked against `act` once per
/// model version that answered it.
const POOL: usize = 96;
/// The p99 a rate must stay within to count as sustained.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Reference rate for `latency_p50_ms` and `bench.op_p90_ms`, below the knee.
const REFERENCE_RPS: f64 = 100.0;
/// Fixed sweep rates: two below the knee, two in overload.
const SWEEP_RPS: [f64; 4] = [200.0, 300.0, 400.0, 500.0];
/// Pipelined requests kept in flight per connection while measuring
/// capacity: the default `max_batch`, well under the server's pipeline cap.
const SATURATION_DEPTH: usize = 32;
/// Requests in the warm-up burst: the default `max_batch`.
const WARM_BURST: usize = 32;
/// Shares of `--seconds`: the reference rate and the capacity phase over
/// all rounds. Each rate of a traced run's sweep takes [`SWEEP_SHARE`] on
/// top.
const REFERENCE_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.5;
const SWEEP_SHARE: f64 = 0.1;
const MIN_SATURATION: Duration = Duration::from_millis(600);

/// Request bodies drawn from `range` of `ds`: a window ending at a random
/// test period and a random previous portfolio, both from `seed`.
pub(crate) fn request_pool(
    ds: &Dataset,
    cfg: &NetConfig,
    range: std::ops::Range<usize>,
    seed: u64,
    model: &str,
) -> Vec<DecideRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdec1de);
    (0..POOL)
        .map(|_| {
            let t = rng.gen_range(range.clone());
            let raw: Vec<f64> =
                (0..=cfg.assets).map(|_| -rng.gen_range(f64::MIN_POSITIVE..1.0).ln()).collect();
            let sum: f64 = raw.iter().sum();
            DecideRequest {
                model: model.to_string(),
                window: ds.window(t, cfg.window),
                prev_action: raw.iter().map(|x| x / sum).collect(),
            }
        })
        .collect()
}

/// Checks every answered request: a 200 whose weights are finite, on the
/// simplex, and bit-identical to `PolicyNet::act` of the version named in
/// `X-PPN-Model-Version`.
pub(crate) fn verify(
    answers: &[Answer],
    pool: &[DecideRequest],
    registry: &ModelRegistry,
    model: &str,
    rep: &mut Report,
) {
    let mut expected: HashMap<(usize, u64), Vec<u64>> = HashMap::new();
    for a in answers.iter().filter(|a| a.status == 200) {
        let Some(version) = a.version else {
            rep.check(false, || "a 200 response lacks X-PPN-Model-Version".into());
            continue;
        };
        let resp: DecideResponse = match serde_json::from_str(&a.payload) {
            Ok(r) => r,
            Err(e) => {
                rep.check(false, || format!("unparseable /decide body: {e}"));
                continue;
            }
        };
        rep.check(resp.model_version == version, || {
            format!("body version {} disagrees with header version {version}", resp.model_version)
        });
        let sum: f64 = resp.weights.iter().sum();
        let on_simplex =
            resp.weights.iter().all(|w| w.is_finite() && *w >= 0.0) && (sum - 1.0).abs() <= 1e-9;
        rep.check(on_simplex, || format!("served weights off the simplex: sum {sum}"));
        let want = expected.entry((a.body, version)).or_insert_with(|| {
            let req = &pool[a.body];
            match registry.resolve_version(model, version) {
                Some(pin) => pin
                    .net()
                    .act(&req.window, &req.prev_action)
                    .iter()
                    .map(|w| w.to_bits())
                    .collect(),
                None => Vec::new(),
            }
        });
        let got: Vec<u64> = resp.weights.iter().map(|w| w.to_bits()).collect();
        rep.check(!want.is_empty(), || format!("version {version} is no longer resolvable"));
        rep.check(got == *want, || {
            format!("served row for version {version} differs from PolicyNet::act")
        });
    }
}

/// The server's own counters, read before a stretch of load so the
/// stretch's share can be taken afterwards.
pub(crate) struct Counters {
    batches: u64,
    rows: f64,
    shed: u64,
    errors: u64,
    cancelled: u64,
}

/// What the server counted during one stretch of load.
pub(crate) struct ServerDelta {
    /// Mean realised forward-pass batch size.
    pub(crate) batch_mean: f64,
    pub(crate) shed: u64,
    pub(crate) errors: u64,
    pub(crate) cancelled: u64,
}

impl Counters {
    pub(crate) fn read() -> Counters {
        use ppn_serve::metrics;
        let batches = metrics::batch_size();
        Counters {
            batches: batches.count(),
            rows: batches.sum(),
            shed: metrics::shed().get(),
            errors: metrics::errors().get(),
            cancelled: metrics::cancelled().get(),
        }
    }

    pub(crate) fn since(&self) -> ServerDelta {
        let now = Counters::read();
        let n = now.batches - self.batches;
        ServerDelta {
            batch_mean: if n > 0 { (now.rows - self.rows) / n as f64 } else { 0.0 },
            shed: now.shed - self.shed,
            errors: now.errors - self.errors,
            cancelled: now.cancelled - self.cancelled,
        }
    }
}

/// One level of open-loop load and what the server reported during it.
pub(crate) struct Level {
    pub(crate) rate: f64,
    pub(crate) out: load::Outcome,
    pub(crate) p50: f64,
    pub(crate) p99: f64,
    pub(crate) server: ServerDelta,
    /// Requests due in the last third waited more than twice as long as
    /// those due in the first third: the queue was still growing.
    pub(crate) backlog_grew: bool,
}

impl Level {
    /// Summarises one stretch of open-loop load at `rate` lasting `span`.
    pub(crate) fn new(rate: f64, span: Duration, out: load::Outcome, server: ServerDelta) -> Level {
        // A failed or unanswered request misses any latency limit.
        let mut lat: Vec<f64> =
            out.answers.iter().filter(|a| a.status == 200).map(|a| a.latency_ms).collect();
        lat.resize(out.scheduled, f64::INFINITY);
        let third = span.as_secs_f64() / 3.0;
        let early: Vec<f64> =
            out.answers.iter().filter(|a| a.due_s < third).map(|a| a.latency_ms).collect();
        let late: Vec<f64> =
            out.answers.iter().filter(|a| a.due_s >= 2.0 * third).map(|a| a.latency_ms).collect();
        Level {
            rate,
            p50: stats::quantile(&lat, 0.5),
            p99: stats::quantile(&lat, 0.99),
            server,
            backlog_grew: stats::median(&late) > 2.0 * stats::median(&early) + 5.0,
            out,
        }
    }

    pub(crate) fn sustained(&self) -> bool {
        self.out.failed() == 0 && !self.backlog_grew && self.p99 <= LATENCY_LIMIT_MS
    }
}

/// Drives one open-loop level at `rate` for `span`.
fn drive(
    server: &Server,
    requests: &[Vec<u8>],
    rate: f64,
    span: Duration,
    seed: u64,
    tracer: &Tracer,
    rep: &mut Report,
) -> Level {
    let schedule: Vec<Arrival> = load::poisson(rate, span, requests.len(), seed ^ rate.to_bits());
    let before = Counters::read();
    let out = match load::run(server.addr(), requests, &schedule, tracer, &|| true, &|_| ()) {
        Ok(o) => o,
        Err(e) => {
            rep.check(false, || format!("cannot connect to the server: {e}"));
            load::Outcome {
                scheduled: schedule.len(),
                answers: Vec::new(),
                unanswered: schedule.len(),
                queue_peak: 0.0,
                stopped: None,
            }
        }
    };
    Level::new(rate, span, out, before.since())
}

fn describe(l: &Level) -> String {
    let lag: Vec<f64> = l.out.answers.iter().map(|a| a.lag_ms).collect();
    format!(
        "{:>5.0} rps: {} sent, {} failed ({} unanswered, {} shed, {} server errors, {} cancelled), p50 {:.2} ms, p99 {:.2} ms, \
         mean batch {:.2}, queue peak {}, generator lag p99 {:.3} ms, backlog grew {}",
        l.rate,
        l.out.scheduled,
        l.out.failed(),
        l.out.unanswered,
        l.server.shed,
        l.server.errors,
        l.server.cancelled,
        l.p50,
        l.p99,
        l.server.batch_mean,
        l.out.queue_peak,
        stats::quantile(&lag, 0.99),
        l.backlog_grew
    )
}

/// The highest sweep rate whose p99 met the limit with no failure and no
/// growing backlog; 0 when none did.
pub(crate) fn max_sustained_rps(levels: &[Level]) -> f64 {
    levels.iter().filter(|l| l.sustained()).map(|l| l.rate).fold(0.0, f64::max)
}

/// The `X-PPN-Model-Version` value in a raw header block.
fn header_version(headers: &str) -> Option<u64> {
    headers.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        if k.eq_ignore_ascii_case("x-ppn-model-version") {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}

/// Closed-loop saturation: two connections, each keeping `depth` requests
/// in flight for `span`.
struct Saturation {
    /// Steady completion rate: answers per second from the first full batch
    /// of answers to the last answer before the end of `span`, so neither
    /// the ramp-up nor the final drain counts.
    rate: f64,
    /// Processor ms of the whole process (server and load) per answer.
    cpu_ms: f64,
    /// Every answer, for the correctness checks.
    answers: Vec<Answer>,
}

fn saturate(
    server: &Server,
    bodies: &[String],
    depth: usize,
    span: Duration,
) -> Result<Saturation, String> {
    let cpu0 = cpu::process_seconds();
    let started = Instant::now();
    let deadline = started + span;
    let per_conn = par::with_threads(2, || {
        par::par_map(2, |c| -> Result<Vec<(Answer, Instant)>, String> {
            let mut client = HttpClient::connect(server.addr()).map_err(|e| e.to_string())?;
            let mut in_flight = std::collections::VecDeque::new();
            let mut next = c;
            let mut send =
                |client: &mut HttpClient, in_flight: &mut std::collections::VecDeque<usize>| {
                    next = (next + 2) % bodies.len();
                    in_flight.push_back(next);
                    client.send("POST", "/decide", &bodies[next]).map_err(|e| e.to_string())
                };
            for _ in 0..depth {
                send(&mut client, &mut in_flight)?;
            }
            let mut answers = Vec::new();
            while let Some(body) = in_flight.pop_front() {
                let resp = client.recv().map_err(|e| e.to_string())?;
                let answer = Answer {
                    body,
                    status: resp.status,
                    version: header_version(&resp.headers),
                    payload: resp.body,
                    latency_ms: 0.0,
                    lag_ms: 0.0,
                    due_s: 0.0,
                    traced: false,
                };
                answers.push((answer, Instant::now()));
                if Instant::now() < deadline {
                    send(&mut client, &mut in_flight)?;
                }
            }
            Ok(answers)
        })
    });
    let cpu = cpu::process_seconds() - cpu0;
    let mut answers = Vec::new();
    let mut done = Vec::new();
    for conn in per_conn {
        for (a, t) in conn? {
            if a.status == 200 {
                done.push(t);
            }
            answers.push(a);
        }
    }
    // Both ends sit on a batch completion: the first full batch after the
    // ramp-up, and the last answer before the deadline. Counting between
    // them keeps a partly finished batch from skewing a short window.
    done.sort_unstable();
    let from = *done.get(depth).ok_or("too few answers to measure a rate")?;
    let to = done.iter().copied().filter(|&t| t <= deadline).max().unwrap_or(from);
    let counted = done.iter().filter(|&&t| t > from && t <= to).count();
    if counted == 0 {
        return Err("no answers between ramp-up and deadline".into());
    }
    Ok(Saturation {
        rate: counted as f64 / (to - from).as_secs_f64(),
        cpu_ms: 1e3 * cpu / answers.len() as f64,
        answers,
    })
}

pub(crate) fn run(args: &Args, tracer: &Tracer, rep: &mut Report) {
    let warm_failures = std::cell::Cell::new(0u32);
    let mut build = || {
        let (ds, net_cfg, registry, server) = tracer.span(Ctx::ROOT, "setup", |c| {
            let ds = tracer
                .span(c, "market.synth", |_| Dataset::load_with_seed(Preset::CryptoA, args.seed));
            let cfg = NetConfig::paper(ds.assets());
            let net =
                PolicyNet::new(Variant::Ppn, cfg.clone(), &mut StdRng::seed_from_u64(args.seed));
            let registry = Arc::new(ModelRegistry::new());
            registry.publish(MODEL, net);
            let server = tracer.span(c, "serve.start", |_| {
                Server::start(Arc::clone(&registry), ServeConfig::default())
            });
            (ds, cfg, registry, server.expect("the server binds an ephemeral port"))
        });
        // Warm the server with one pipelined burst of the largest batch it
        // forms, so its tapes and tensor arena are sized before timing.
        let warm = request_pool(&ds, &net_cfg, test_range(&ds), args.seed, MODEL);
        let burst: Vec<load::Arrival> = (0..WARM_BURST)
            .map(|i| load::Arrival { due: Duration::ZERO, body: i % warm.len() })
            .collect();
        let bytes: Vec<Vec<u8>> = warm
            .iter()
            .map(|r| load::request_bytes(&serde_json::to_string(r).expect("request serializes")))
            .collect();
        let warmed =
            load::run(server.addr(), &bytes, &burst, &Tracer::new(false), &|| true, &|_| ());
        if !warmed.is_ok_and(|o| o.failed() == 0) {
            warm_failures.set(warm_failures.get() + 1);
        }
        (ds, net_cfg, registry, server)
    };
    let shut = |(_, _, _, server): (Dataset, NetConfig, Arc<ModelRegistry>, Server)| {
        server.shutdown();
    };
    let mut setups = Vec::new();
    let (ds, net_cfg, registry, server) =
        timed_setups(SETUPS_BEFORE, &mut setups, &mut build, shut);
    let pool = request_pool(&ds, &net_cfg, test_range(&ds), args.seed, MODEL);
    let bodies: Vec<String> =
        pool.iter().map(|r| serde_json::to_string(r).expect("request serializes")).collect();
    let requests: Vec<Vec<u8>> = bodies.iter().map(|b| load::request_bytes(b)).collect();

    let total = args.duration();
    let mut references = Vec::new();
    // Per round: processor ms per answer at the reference rate and while
    // saturated, and the capacity.
    let (mut ref_costs, mut costs, mut capacities) = (Vec::new(), Vec::new(), Vec::new());
    let mut sweep = Vec::new();
    for round in 0..ROUNDS {
        let cpu0 = cpu::process_seconds();
        let reference = tracer.span(Ctx::ROOT, "serve.rate", |_| {
            let span = total.mul_f64(REFERENCE_SHARE / ROUNDS as f64);
            drive(&server, &requests, REFERENCE_RPS, span, args.seed ^ round as u64, tracer, rep)
        });
        ref_costs.push(1e3 * (cpu::process_seconds() - cpu0) / reference.out.answers.len() as f64);
        rep.note(format!("serve reference {}", describe(&reference)));
        references.push(reference);
        let saturated = tracer.span(Ctx::ROOT, "serve.saturate", |_| {
            // Long enough for several batches past the ramp-up even in a
            // short run.
            let span = total.mul_f64(SATURATION_SHARE / ROUNDS as f64).max(MIN_SATURATION);
            saturate(&server, &bodies, SATURATION_DEPTH, span)
        });
        match saturated {
            Ok(sat) => {
                let failed = sat.answers.iter().filter(|a| a.status != 200).count();
                rep.attempted += sat.answers.len() as u64;
                rep.failed += failed as u64;
                rep.check(failed == 0, || {
                    format!("{failed} requests failed below the pipeline cap")
                });
                verify(&sat.answers, &pool, &registry, MODEL, rep);
                capacities.push(sat.rate);
                costs.push(sat.cpu_ms);
            }
            Err(e) => rep.check(false, || format!("closed-loop saturation failed: {e}")),
        }
        // A traced run's sweep: the two rates below the knee sit between
        // rounds; the overload rates come last, since the defect they trip
        // drops connections.
        let rates: &[f64] = match round {
            _ if !tracer.on() => &[],
            0 | 1 => &SWEEP_RPS[round..=round],
            r if r == ROUNDS - 1 => &SWEEP_RPS[2..],
            _ => &[],
        };
        for &rate in rates {
            let level = tracer.span(Ctx::ROOT, "serve.rate", |_| {
                drive(&server, &requests, rate, total.mul_f64(SWEEP_SHARE), args.seed, tracer, rep)
            });
            rep.note(format!("serve sweep {}", describe(&level)));
            sweep.push(level);
        }
    }
    server.shutdown();
    shut(timed_setups(SETUPS - SETUPS_BEFORE, &mut setups, &mut build, shut));
    rep.check(warm_failures.get() == 0, || "a warm-up burst failed".into());

    for l in &references {
        rep.attempted += l.out.scheduled as u64;
        rep.failed += l.out.failed() as u64;
    }
    for l in references.iter().chain(&sweep) {
        verify(&l.out.answers, &pool, &registry, MODEL, rep);
    }
    let complete = |xs: &[f64]| if xs.len() == ROUNDS { stats::median(xs) } else { f64::NAN };
    let (capacity, cost) = (complete(&capacities), complete(&costs));
    let ref_cost = stats::median(&ref_costs);
    rep.note(format!(
        "serve: processor ms per answer {ref_cost:.3} at {REFERENCE_RPS} rps (per round \
         {ref_costs:.3?}); capacity {capacity:.1} answers/s (per round {capacities:.1?}) closed \
         loop at depth {SATURATION_DEPTH} x 2, processor ms per answer {cost:.3} (per round \
         {costs:.3?}); highest sweep rate with p99 <= {LATENCY_LIMIT_MS} ms: {} rps; setups \
         {setups:?}",
        max_sustained_rps(&sweep)
    ));

    let ok = |l: &Level| -> Vec<f64> {
        l.out.answers.iter().filter(|a| a.status == 200).map(|a| a.latency_ms).collect()
    };
    let per_round = |q: f64| -> f64 {
        let rounds: Vec<f64> = references.iter().map(|l| stats::quantile(&ok(l), q)).collect();
        stats::median(&rounds)
    };
    rep.e2e("setup_s", stats::median(&setups), "s");
    rep.e2e("cpu_ms_per_op", ref_cost, "ms");
    rep.layer("serve.saturated_cpu_ms", cost, "ms", "serve.saturate");
    rep.layer("bench.latency_p50_ms", per_round(0.5), "ms", "decide.request");
    rep.layer("bench.op_p90_ms", per_round(0.9), "ms", "decide.request");
    rep.layer("bench.throughput_per_s", capacity, "1/s", "serve.saturate");

    let all: Vec<&Answer> = references.iter().flat_map(|l| &l.out.answers).collect();
    let lat = |traced: Option<bool>| -> Vec<f64> {
        all.iter()
            .filter(|a| a.status == 200 && traced.is_none_or(|t| a.traced == t))
            .map(|a| a.latency_ms)
            .collect()
    };
    crate::layers::workload_common(
        rep,
        tracer,
        "decide.request",
        &lat(None),
        &lat(Some(true)),
        &lat(Some(false)),
    );
    crate::layers::serve_levels(rep, &references, &sweep);
}
