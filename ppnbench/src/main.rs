//! Benchmark of the PPN system on the paper-shaped network (window 30,
//! LSTM 16, TCCB 8/16/16, m = 12 assets).
//!
//! ```text
//! cargo run --release --manifest-path ppnbench/Cargo.toml -- \
//!     --workload train|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds its inputs from `--seed` alone, checks the
//! program's outputs, and prints one JSON object as the last line of
//! standard output: `correct`, `attempted`, `failed` and `metrics`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics. A traced run
//! (`--trace 1`) records a span around every call into a layer, reports the
//! per-layer metrics, and writes the spans as `trace.span` JSONL to
//! `ppnbench/out/trace-<workload>-<seed>.jsonl` for `ppn-trace`. A failed
//! check prints `"correct": false` and exits with code 1. See README.md.

mod cpu;
mod eval;
mod layers;
mod load;
mod serve;
mod stats;
mod stream;
mod trace;
mod train;

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Bumped whenever a metric's definition or a workload's inputs change.
const SCHEMA_VERSION: u32 = 3;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median. The first [`SETUPS_BEFORE`] run before the timed phase and the
/// workload keeps the last of them; the rest run after it, so one slow
/// spell of a shared host cannot cover them all.
pub(crate) const SETUPS: usize = 9;
pub(crate) const SETUPS_BEFORE: usize = 5;

/// Runs `build` `n` (at least 1) times, pushing each one's wall time to
/// `times`, and returns the last result; `discard` takes the others.
pub(crate) fn timed_setups<T>(
    n: usize,
    times: &mut Vec<f64>,
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut last = None;
    for _ in 0..n {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    last.expect("at least one set-up")
}

/// The end-to-end cost is taken in this many consecutive rounds of a run
/// and reported as their median.
pub(crate) const ROUNDS: usize = 10;

pub(crate) struct Args {
    pub(crate) workload: String,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["train", "serve"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload} (train, serve)"));
        }
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args { workload, seed, seconds, trace: trace.unwrap_or(false) })
    }

    pub(crate) fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: String,
    /// The span the value was measured from (per-layer metrics only).
    span: &'static str,
}

/// What a run measured and whether the program's outputs were correct.
#[derive(Default)]
pub(crate) struct Report {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    problems: Vec<String>,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
}

impl Report {
    /// Records a correctness check; any failed check fails the run.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("ppnbench: CHECK FAILED: {msg}");
            self.problems.push(msg);
        }
    }

    pub(crate) fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name: name.to_string(), value, unit: unit.to_string(), span: "" });
    }

    /// A per-layer metric measured from the spans called `span`.
    pub(crate) fn layer(&mut self, name: &str, value: f64, unit: &str, span: &'static str) {
        self.layer.push(Metric { name: name.to_string(), value, unit: unit.to_string(), span });
    }

    /// Every per-layer metric `BENCHMARK.json` declares that this
    /// workload's traced run does not measure reads 0 and names no span.
    /// Each layer is probed on the workload whose end-to-end metrics it
    /// moves, so no probe runs twice.
    fn fill_unmeasured(&mut self) {
        let declared = serde_json::Value::parse(include_str!("../../BENCHMARK.json"))
            .ok()
            .and_then(|m| match m.field("per_layer") {
                Ok(serde_json::Value::Arr(items)) => Some(items.clone()),
                _ => None,
            });
        let Some(declared) = declared else {
            self.check(false, || "BENCHMARK.json declares no per_layer list".into());
            return;
        };
        for item in declared {
            let (Ok(serde_json::Value::Str(name)), Ok(serde_json::Value::Str(unit))) =
                (item.field("name"), item.field("unit"))
            else {
                self.check(false, || "a per_layer entry lacks a name or unit".into());
                continue;
            };
            if !self.layer.iter().any(|m| &m.name == name) {
                self.layer(name, 0.0, unit, "");
            }
        }
    }

    /// A human-readable line on standard output, before the result.
    pub(crate) fn note(&self, line: impl AsRef<str>) {
        println!("# {}", line.as_ref());
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        let value = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push('}');
    out
}

/// Host and build facts that a result depends on.
fn fingerprint(args: &Args) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").and_then(|r| r.split_once(':')).map(|(_, v)| v.trim())
        })
        .unwrap_or("unknown");
    let avx2 = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .is_some_and(|l| l.split_whitespace().any(|f| f == "avx2"));
    let commit = if std::path::Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {cores}, \"cpu_model\": {:?}, \"avx2\": {avx2}, \"simd_enabled\": {}, \
         \"par_threads\": {}, \"commit\": {:?}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        model,
        ppn_tensor::simd::enabled(),
        ppn_tensor::par::threads(),
        commit.unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
    )
}

fn write_trace(args: &Args, tracer: &Tracer, rep: &Report, fp: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let mut text = format!("{{\"event\":\"bench.fingerprint\",\"fingerprint\":{fp}}}\n");
    for m in &rep.layer {
        let value = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
        let _ = writeln!(
            text,
            "{{\"event\":\"bench.metric\",\"name\":\"{}\",\"value\":{value},\"unit\":\"{}\",\"span\":\"{}\"}}",
            m.name, m.unit, m.span
        );
    }
    text.push_str(&tracer.to_jsonl());
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ppnbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the program's own telemetry to its defaults (metrics and span
    // aggregation on, request trace sampling off) whatever the environment
    // says, with logging cut to warnings so standard error stays readable.
    ppn_obs::init(ppn_obs::ObsConfig {
        stderr_level: Some(ppn_obs::Level::Warn),
        ..ppn_obs::ObsConfig::default()
    });
    ppn_obs::trace::set_sample_rate(0);

    let fp = fingerprint(&args);
    println!("{{\"fingerprint\": {fp}}}");
    let tracer = Tracer::new(args.trace);
    let mut rep = Report::default();
    match args.workload.as_str() {
        "train" => train::run(&args, &tracer, &mut rep),
        _ => serve::run(&args, &tracer, &mut rep),
    }
    if args.trace {
        layers::run(&args, &tracer, &mut rep);
        rep.fill_unmeasured();
        match write_trace(&args, &tracer, &rep, &fp) {
            Ok(path) => rep.note(format!("trace written to {path}")),
            Err(e) => rep.check(false, || format!("writing the trace file: {e}")),
        }
    }
    let metrics = if args.trace { &rep.layer } else { &rep.e2e };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        rep.problems.push(format!("metric {} was not measured", m.name));
    }
    let correct = rep.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rep.attempted,
        rep.failed,
        metrics_json(metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
