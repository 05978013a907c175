//! A short traced and untraced run of every workload: each must pass all of
//! the benchmark's correctness checks, print exactly the metrics
//! `BENCHMARK.json` declares, and leave a trace that `ppn-trace` parses.
//! Every per-layer metric must be measured, from a span in the trace, on
//! one of the workloads.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Value::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(m: &Value, key: &str) -> BTreeSet<String> {
    let Ok(Value::Arr(items)) = m.field(key) else { panic!("BENCHMARK.json lacks {key}") };
    items
        .iter()
        .map(|i| match i.field("name") {
            Ok(Value::Str(s)) => s.clone(),
            _ => panic!("{key} entry without a name"),
        })
        .collect()
}

/// Runs one workload for two seconds and returns the parsed result line.
/// A traced serve run also runs the adapt-while-serving probe.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ppnbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "2", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Value::parse(last).expect("the last line is JSON");
    assert!(matches!(result.field("correct"), Ok(Value::Bool(true))), "{workload}: {last}");
    assert!(
        matches!(result.field("attempted"), Ok(Value::Num(n)) if *n >= 1.0),
        "{workload}: {last}"
    );
    result
}

fn metric_names(result: &Value) -> BTreeSet<String> {
    match result.field("metrics") {
        Ok(Value::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("result without metrics"),
    }
}

/// Checks one workload's short untraced and traced runs. Returns the
/// per-layer metrics its traced run measured (those that name a span).
fn check_workload(workload: &str) -> BTreeSet<String> {
    let m = manifest();
    let seed = 7;
    let untraced = run(workload, seed, false);
    assert_eq!(
        metric_names(&untraced),
        names(&m, "end_to_end"),
        "{workload}: end-to-end metric set"
    );

    let traced = run(workload, seed, true);
    let per_layer = names(&m, "per_layer");
    assert_eq!(metric_names(&traced), per_layer, "{workload}: per-layer metric set");

    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}-{seed}.jsonl"));
    let text = std::fs::read_to_string(&path).expect("the traced run writes its trace");
    let spans: BTreeSet<String> =
        ppn_trace::parse_events(&text).into_iter().map(|e| e.name).collect();
    assert!(!spans.is_empty(), "{workload}: no trace.span events");
    let breakdown = ppn_trace::breakdown(&ppn_trace::parse_events(&text));
    assert!(
        breakdown.contains("train.step") || breakdown.contains("decide.request"),
        "{workload}: {breakdown}"
    );

    // Every per-layer metric names the span it was measured from; metrics
    // this workload does not measure carry no span and read 0.
    let (mut covered, mut measured) = (BTreeSet::new(), BTreeSet::new());
    for line in text.lines() {
        let Ok(v) = Value::parse(line) else { continue };
        if !matches!(v.field("event"), Ok(Value::Str(e)) if e == "bench.metric") {
            continue;
        }
        let (Ok(Value::Str(name)), Ok(Value::Str(span))) = (v.field("name"), v.field("span"))
        else {
            panic!("malformed bench.metric line: {line}")
        };
        covered.insert(name.clone());
        if span.is_empty() {
            assert!(
                matches!(v.field("value"), Ok(Value::Num(n)) if *n == 0.0),
                "{workload}: {line}"
            );
        } else {
            assert!(
                spans.contains(span),
                "{workload}: metric {name} names span {span}, absent from the trace"
            );
            measured.insert(name.clone());
        }
    }
    assert_eq!(covered, per_layer, "{workload}: bench.metric events");
    measured
}

/// The workloads run one after another: the host has two cores, and each
/// run drives both.
#[test]
fn short_runs_are_correct_and_every_layer_is_measured() {
    let mut measured = BTreeSet::new();
    for workload in ["train", "serve"] {
        measured.extend(check_workload(workload));
    }
    let per_layer = names(&manifest(), "per_layer");
    let missing: Vec<&String> = per_layer.difference(&measured).collect();
    assert!(missing.is_empty(), "no workload measures {missing:?}");
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "yes"],
        &["--workload", "train", "--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ppnbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
