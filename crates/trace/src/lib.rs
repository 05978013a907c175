#![forbid(unsafe_code)]
#![deny(missing_docs, unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! # ppn-trace
//!
//! Offline profiler for the `trace.span` JSONL events emitted by `ppn-obs`
//! request tracing (`PPN_TRACE_SAMPLE=1/N`). Feed it the JSONL sink output
//! of a serve or training run and it renders:
//!
//! * a **flamegraph** in collapsed-stack format (one `path;to;span value`
//!   line per stack, value = self-time in nanoseconds) — pipe into any
//!   inferno/FlameGraph-compatible renderer;
//! * a **latency breakdown** — per span name: count, p50/p95/p99 and total
//!   duration in milliseconds;
//! * a **waterfall** — the span tree of one trace with per-span offsets,
//!   the ground truth for where a single request spent its time;
//! * a **trace listing** — one line per trace id, for picking a waterfall.
//!
//! The parser is tolerant: non-JSON lines, non-`trace.span` events, and
//! records with missing fields are skipped, so the same JSONL stream can
//! interleave log events, metrics flushes, and spans.

use serde_json::Value;
use std::collections::BTreeMap;

/// The all-zero span id that marks a root span's parent link.
pub const NO_PARENT: &str = "0000000000000000";

/// One `trace.span` record from a ppn-obs JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace id (16 hex digits) shared by every span of one request.
    pub trace: String,
    /// This span's id (16 hex digits).
    pub span: String,
    /// Parent span id; [`NO_PARENT`] for roots.
    pub parent: String,
    /// Stage name, e.g. `serve.queue_wait`.
    pub name: String,
    /// Start offset on the emitting process's monotonic timebase, ns.
    pub start_ns: u64,
    /// Span duration, ns.
    pub dur_ns: u64,
}

fn str_of(v: &Value, key: &str) -> Option<String> {
    match v.field(key) {
        Ok(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn num_of(v: &Value, key: &str) -> Option<u64> {
    match v.field(key) {
        Ok(Value::Num(n)) if *n >= 0.0 && n.is_finite() => Some(*n as u64),
        _ => None,
    }
}

/// Parses a JSONL stream, keeping only well-formed `trace.span` events.
///
/// Lines that are not JSON, not span events, or are missing any of the
/// span fields are silently skipped — a trace log shares its file with
/// ordinary log events by design.
pub fn parse_events(text: &str) -> Vec<SpanEvent> {
    text.lines()
        .filter_map(|line| Value::parse(line.trim()).ok())
        .filter(|v| matches!(v.field("event"), Ok(Value::Str(s)) if s == "trace.span"))
        .filter_map(|v| {
            Some(SpanEvent {
                trace: str_of(&v, "trace")?,
                span: str_of(&v, "span")?,
                parent: str_of(&v, "parent")?,
                name: str_of(&v, "name")?,
                start_ns: num_of(&v, "start_ns")?,
                dur_ns: num_of(&v, "dur_ns")?,
            })
        })
        .collect()
}

/// Per-trace index: span id → event index, parent id → child event indices.
struct TraceIndex<'a> {
    events: Vec<&'a SpanEvent>,
    by_span: BTreeMap<&'a str, usize>,
    children: BTreeMap<&'a str, Vec<usize>>,
}

fn index_traces<'a>(events: &'a [SpanEvent]) -> BTreeMap<&'a str, TraceIndex<'a>> {
    let mut traces: BTreeMap<&str, TraceIndex<'a>> = BTreeMap::new();
    for e in events {
        let t = traces.entry(e.trace.as_str()).or_insert_with(|| TraceIndex {
            events: Vec::new(),
            by_span: BTreeMap::new(),
            children: BTreeMap::new(),
        });
        let idx = t.events.len();
        t.events.push(e);
        t.by_span.insert(e.span.as_str(), idx);
        t.children.entry(e.parent.as_str()).or_default().push(idx);
    }
    // Deterministic child order: by start offset, then name.
    for t in traces.values_mut() {
        for kids in t.children.values_mut() {
            let evs = &t.events;
            kids.sort_by(|&a, &b| {
                evs[a].start_ns.cmp(&evs[b].start_ns).then_with(|| evs[a].name.cmp(&evs[b].name))
            });
        }
    }
    traces
}

/// A span whose parent id is unknown in its trace counts as a root (the
/// parent may have been dropped by sampling or a truncated log).
fn is_root(t: &TraceIndex<'_>, e: &SpanEvent) -> bool {
    e.parent == NO_PARENT || !t.by_span.contains_key(e.parent.as_str())
}

/// Semicolon-joined ancestor path of `idx` within its trace, root first.
/// Cycles (malformed input) are cut at a fixed depth instead of looping.
fn stack_path(t: &TraceIndex<'_>, idx: usize) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut cur = Some(idx);
    let mut depth = 0usize;
    while let Some(i) = cur {
        let e = t.events[i];
        names.push(e.name.as_str());
        depth += 1;
        if depth > 128 || is_root(t, e) {
            break;
        }
        cur = t.by_span.get(e.parent.as_str()).copied();
    }
    names.reverse();
    names.join(";")
}

/// Renders the collapsed-stack flamegraph body: one `path value` line per
/// distinct stack, sorted by path, where `value` is the stack's **self
/// time** in nanoseconds (duration minus the time covered by child spans),
/// summed over every occurrence across all traces. Zero-self stacks whose
/// children account for all of their time are omitted, matching the
/// collapsed-stack convention that every line carries weight.
pub fn flamegraph(events: &[SpanEvent]) -> String {
    let traces = index_traces(events);
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for t in traces.values() {
        for (idx, e) in t.events.iter().enumerate() {
            let child_ns: u64 = t
                .children
                .get(e.span.as_str())
                .map(|kids| kids.iter().map(|&k| t.events[k].dur_ns).sum())
                .unwrap_or(0);
            let self_ns = e.dur_ns.saturating_sub(child_ns);
            if self_ns > 0 {
                *stacks.entry(stack_path(t, idx)).or_insert(0) += self_ns;
            }
        }
    }
    let mut out = String::new();
    for (path, ns) in stacks {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// One row of the per-stage latency breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Span name the row aggregates.
    pub name: String,
    /// Number of spans with this name.
    pub count: usize,
    /// Median duration, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile duration, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile duration, milliseconds.
    pub p99_ms: f64,
    /// Sum of all durations, milliseconds.
    pub total_ms: f64,
}

/// Nearest-rank percentile over an ascending-sorted slice; `q` in `[0, 1]`.
fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted_ns.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e6
}

/// Aggregates spans by name into latency rows, sorted by total time
/// (descending) so the most expensive stage leads the table.
pub fn breakdown_rows(events: &[SpanEvent]) -> Vec<BreakdownRow> {
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for e in events {
        by_name.entry(e.name.as_str()).or_default().push(e.dur_ns);
    }
    let mut rows: Vec<BreakdownRow> = by_name
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            let total: u64 = durs.iter().sum();
            BreakdownRow {
                name: name.to_string(),
                count: durs.len(),
                p50_ms: percentile(&durs, 0.50),
                p95_ms: percentile(&durs, 0.95),
                p99_ms: percentile(&durs, 0.99),
                total_ms: total as f64 / 1e6,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Renders the latency breakdown as an aligned text table.
pub fn breakdown(events: &[SpanEvent]) -> String {
    let rows = breakdown_rows(events);
    if rows.is_empty() {
        return String::new();
    }
    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>12}\n",
        "span", "count", "p50_ms", "p95_ms", "p99_ms", "total_ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>10.3}  {:>10.3}  {:>10.3}  {:>12.3}\n",
            r.name, r.count, r.p50_ms, r.p95_ms, r.p99_ms, r.total_ms
        ));
    }
    out
}

/// Lists every trace in the stream: id, root span name, span count, and
/// root duration — one per line, longest root first. Use a listed id (or
/// any unique prefix) with [`waterfall`].
pub fn traces(events: &[SpanEvent]) -> String {
    let index = index_traces(events);
    let mut lines: Vec<(u64, String)> = index
        .iter()
        .map(|(id, t)| {
            let root = t
                .events
                .iter()
                .filter(|e| is_root(t, e))
                .max_by_key(|e| e.dur_ns)
                .map(|e| (e.name.as_str(), e.dur_ns))
                .unwrap_or(("?", 0));
            let line = format!(
                "{id}  {:<24}  spans={:<4}  dur_ms={:.3}",
                root.0,
                t.events.len(),
                root.1 as f64 / 1e6
            );
            (root.1, line)
        })
        .collect();
    lines.sort_by_key(|l| std::cmp::Reverse(l.0));
    lines.into_iter().map(|(_, l)| l + "\n").collect()
}

fn render_waterfall_node(
    t: &TraceIndex<'_>,
    idx: usize,
    base_ns: u64,
    depth: usize,
    out: &mut String,
) {
    if depth > 128 {
        return;
    }
    let e = t.events[idx];
    let offset_ms = e.start_ns.saturating_sub(base_ns) as f64 / 1e6;
    let dur_ms = e.dur_ns as f64 / 1e6;
    out.push_str(&format!("{offset_ms:>10.3} {dur_ms:>10.3}  {}{}\n", "  ".repeat(depth), e.name));
    if let Some(kids) = t.children.get(e.span.as_str()) {
        for &k in kids {
            if k != idx {
                render_waterfall_node(t, k, base_ns, depth + 1, out);
            }
        }
    }
}

/// Renders one trace as a waterfall: `offset_ms dur_ms  name` per span,
/// children indented under their parent, offsets relative to the trace's
/// earliest span.
///
/// `trace_id` selects the trace by exact id or unique prefix; `None` (or an
/// ambiguous/unknown prefix) falls back to the trace with the longest root
/// span. Returns an empty string when the stream holds no spans.
pub fn waterfall(events: &[SpanEvent], trace_id: Option<&str>) -> String {
    let index = index_traces(events);
    let chosen: Option<&str> = match trace_id {
        Some(prefix) => {
            let matches: Vec<&str> =
                index.keys().copied().filter(|id| id.starts_with(prefix)).collect();
            match matches.as_slice() {
                [one] => Some(*one),
                _ => None,
            }
        }
        None => None,
    };
    let chosen = chosen.or_else(|| {
        index
            .iter()
            .map(|(id, t)| (*id, t.events.iter().map(|e| e.dur_ns).max().unwrap_or(0)))
            .max_by_key(|&(_, dur)| dur)
            .map(|(id, _)| id)
    });
    let Some(id) = chosen else { return String::new() };
    let Some(t) = index.get(id) else { return String::new() };
    let base_ns = t.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let mut out = format!("trace {id}\n{:>10} {:>10}  span\n", "offset_ms", "dur_ms");
    let mut roots: Vec<usize> = (0..t.events.len()).filter(|&i| is_root(t, t.events[i])).collect();
    roots.sort_by_key(|&i| t.events[i].start_ns);
    for r in roots {
        render_waterfall_node(t, r, base_ns, 0, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: &str, span: &str, parent: &str, name: &str, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            trace: trace.into(),
            span: span.into(),
            parent: parent.into(),
            name: name.into(),
            start_ns: start,
            dur_ns: dur,
        }
    }

    fn sample() -> Vec<SpanEvent> {
        vec![
            ev("t1", "a", NO_PARENT, "serve.request", 0, 10_000_000),
            ev("t1", "b", "a", "serve.queue_wait", 0, 2_000_000),
            ev("t1", "c", "a", "serve.forward", 2_000_000, 6_000_000),
            ev("t2", "d", NO_PARENT, "serve.request", 50, 4_000_000),
        ]
    }

    #[test]
    fn parser_skips_garbage_and_non_span_lines() {
        let text = concat!(
            "not json at all\n",
            "{\"event\":\"log\",\"msg\":\"hi\"}\n",
            "{\"event\":\"trace.span\",\"trace\":\"t\",\"span\":\"s\",\"parent\":\"0000000000000000\",",
            "\"name\":\"x\",\"start_ns\":5,\"dur_ns\":7}\n",
            "{\"event\":\"trace.span\",\"trace\":\"t\"}\n",
        );
        let evs = parse_events(text);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "x");
        assert_eq!(evs[0].start_ns, 5);
        assert_eq!(evs[0].dur_ns, 7);
    }

    #[test]
    fn flamegraph_charges_self_time_along_the_stack() {
        let text = flamegraph(&sample());
        // Root self time: 10ms − (2ms + 6ms) children = 2ms, plus t2's 4ms.
        assert!(text.contains("serve.request 6000000\n"), "{text}");
        assert!(text.contains("serve.request;serve.queue_wait 2000000\n"), "{text}");
        assert!(text.contains("serve.request;serve.forward 6000000\n"), "{text}");
        // Collapsed-stack shape: every line is `path value`.
        for line in text.lines() {
            let (path, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!path.is_empty());
            assert!(value.parse::<u64>().is_ok(), "value must be integer ns: {line}");
        }
    }

    #[test]
    fn orphaned_spans_become_roots_instead_of_vanishing() {
        let evs = vec![ev("t", "s", "missing-parent", "lonely", 0, 5)];
        let text = flamegraph(&evs);
        assert_eq!(text, "lonely 5\n");
    }

    #[test]
    fn breakdown_sorts_by_total_and_computes_percentiles() {
        let rows = breakdown_rows(&sample());
        assert_eq!(rows[0].name, "serve.request", "two requests dominate total time");
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].p50_ms - 4.0).abs() < 1e-9, "median of 4ms/10ms by nearest rank");
        assert!((rows[0].p99_ms - 10.0).abs() < 1e-9);
        assert!((rows[0].total_ms - 14.0).abs() < 1e-9);
        let table = breakdown(&sample());
        assert!(table.starts_with("span"), "{table}");
        assert!(table.contains("serve.queue_wait"), "{table}");
    }

    #[test]
    fn waterfall_selects_by_prefix_and_defaults_to_longest_trace() {
        let w = waterfall(&sample(), Some("t2"));
        assert!(w.starts_with("trace t2\n"), "{w}");
        assert!(w.contains("serve.request"), "{w}");
        assert!(!w.contains("serve.forward"), "t2 has no children: {w}");
        // No id → the longest trace (t1), children indented under the root.
        let w = waterfall(&sample(), None);
        assert!(w.starts_with("trace t1\n"), "{w}");
        assert!(w.contains("  serve.queue_wait"), "{w}");
        let listing = traces(&sample());
        assert!(listing.lines().count() == 2, "{listing}");
        assert!(listing.starts_with("t1"), "longest trace listed first: {listing}");
    }
}
