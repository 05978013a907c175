//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer of the system in a span. Spans
//! are kept in memory and written at exit as `trace.span` JSONL events
//! (`trace`, `span`, `parent`, `name`, `start_ns`, `dur_ns`), the format
//! `ppn-trace breakdown|flame` reads. When tracing is off, [`Tracer::span`]
//! only runs the closure, so untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identity of an open span, handed to the closure so nested calls can
/// record children. `ROOT` starts a new trace.
#[derive(Clone, Copy)]
pub(crate) struct Ctx {
    trace: u64,
    span: u64,
}

impl Ctx {
    pub(crate) const ROOT: Ctx = Ctx { trace: 0, span: 0 };
}

struct Rec {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

pub(crate) struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Rec>>,
}

impl Tracer {
    pub(crate) fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn on(&self) -> bool {
        self.on
    }

    fn fresh_id(&self) -> u64 {
        // Ids only need to be unique; splitmix keeps them spread like the
        // program's own 64-bit trace ids.
        let mut z =
            self.next_id.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 27)).max(1)
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    pub(crate) fn span<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.on {
            return f(parent);
        }
        let ctx = Ctx {
            trace: if parent.trace == 0 { self.fresh_id() } else { parent.trace },
            span: self.fresh_id(),
        };
        let start = Instant::now();
        let out = f(ctx);
        self.push(ctx, parent.span, name, start, Instant::now());
        out
    }

    /// Records a span whose bounds were measured elsewhere (for example a
    /// request timed from its due time on another thread).
    pub(crate) fn record(
        &self,
        parent: Ctx,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Ctx {
        if !self.on {
            return parent;
        }
        let ctx = Ctx {
            trace: if parent.trace == 0 { self.fresh_id() } else { parent.trace },
            span: self.fresh_id(),
        };
        self.push(ctx, parent.span, name, start, end);
        ctx
    }

    fn push(&self, ctx: Ctx, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let start_ns = nanos(start.saturating_duration_since(self.epoch));
        let dur_ns = nanos(end.saturating_duration_since(start));
        let rec = Rec { trace: ctx.trace, span: ctx.span, parent, name, start_ns, dur_ns };
        self.spans.lock().expect("span buffer lock poisoned by a panicking load thread").push(rec);
    }

    /// Durations in milliseconds of every span called `name`.
    pub(crate) fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans =
            self.spans.lock().expect("span buffer lock poisoned by a panicking load thread");
        spans.iter().filter(|r| r.name == name).map(|r| r.dur_ns as f64 / 1e6).collect()
    }

    /// Total self time, in milliseconds, of the spans called `name`: each
    /// span's duration minus the part of it its child spans cover.
    pub(crate) fn self_ms(&self, name: &str) -> f64 {
        let spans =
            self.spans.lock().expect("span buffer lock poisoned by a panicking load thread");
        let mut total = 0.0;
        for r in spans.iter().filter(|r| r.name == name) {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == r.span && c.trace == r.trace)
                .map(|c| (c.start_ns, c.start_ns + c.dur_ns))
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, r.start_ns);
            for (s, e) in kids {
                let s = s.max(reach);
                let e = e.min(r.start_ns + r.dur_ns);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            total += r.dur_ns.saturating_sub(covered) as f64 / 1e6;
        }
        total
    }

    /// Total duration in milliseconds of the spans called `name`.
    pub(crate) fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Every recorded span as one `trace.span` JSONL line each.
    pub(crate) fn to_jsonl(&self) -> String {
        let spans =
            self.spans.lock().expect("span buffer lock poisoned by a panicking load thread");
        let mut out = String::with_capacity(spans.len() * 160);
        for r in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"event\":\"trace.span\",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                r.trace, r.span, r.parent, r.name, r.start_ns, r.dur_ns
            );
        }
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
