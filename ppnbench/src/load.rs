//! Open-loop `/decide` load over one pipelined keep-alive connection.
//!
//! Arrivals follow a seeded Poisson schedule. A sender writes each request
//! when it falls due, whether or not earlier ones were answered, and a
//! reader collects the in-order responses on the same connection. Both run
//! on the `ppn_tensor::par` pool (two workers), the way the repository's
//! own probes run their clients. Latency counts from the due time, so a
//! stalled server also charges the wait it imposes on later requests, and
//! the sender's own lateness is reported separately.

use crate::trace::{Ctx, Tracer};
use ppn_tensor::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the reader waits for the next byte before it counts every
/// outstanding request as never answered.
const READ_GIVE_UP: Duration = Duration::from_secs(12);

/// Longest the sender sleeps before it re-checks whether to stop.
const POLL: Duration = Duration::from_millis(10);

/// One request of a schedule: when it is due and which pooled body it
/// carries.
#[derive(Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) due: Duration,
    pub(crate) body: usize,
}

/// A Poisson schedule at `rate` requests per second over `span`.
pub(crate) fn poisson(rate: f64, span: Duration, pool: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Arrival { due: Duration::from_secs_f64(t), body: rng.gen_range(0..pool) });
    }
}

/// One answered request.
pub(crate) struct Answer {
    pub(crate) body: usize,
    pub(crate) status: u16,
    pub(crate) version: Option<u64>,
    pub(crate) payload: String,
    /// Due time to full response, ms.
    pub(crate) latency_ms: f64,
    /// Due time to the moment the sender wrote it, ms.
    pub(crate) lag_ms: f64,
    /// Seconds after the schedule started that the request was due.
    pub(crate) due_s: f64,
    /// Whether the reader recorded a span for it (every second answer of
    /// a traced run).
    pub(crate) traced: bool,
}

/// Everything one open-loop run observed.
pub(crate) struct Outcome {
    pub(crate) scheduled: usize,
    pub(crate) answers: Vec<Answer>,
    /// Requests never answered: not sent, or sent and lost when the
    /// connection closed or stalled.
    pub(crate) unanswered: usize,
    /// Peak of the server's `serve.queue_depth` gauge, read at every send.
    pub(crate) queue_peak: f64,
    /// When the sender saw `keep_going` turn false, if it did.
    pub(crate) stopped: Option<Instant>,
}

impl Outcome {
    /// Requests that did not come back as a 200.
    pub(crate) fn failed(&self) -> usize {
        self.scheduled - self.answers.iter().filter(|a| a.status == 200).count()
    }
}

/// The full HTTP/1.1 keep-alive request for one `/decide` body.
pub(crate) fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /decide HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

struct SentRec {
    body: usize,
    due: Instant,
    sent: Instant,
    due_s: f64,
}

enum Side {
    Sender { scheduled: usize, unsent: usize, queue_peak: f64, stopped: Option<Instant> },
    Reader { answers: Vec<(SentRec, Instant, bool, u16, Option<u64>, String)>, lost: usize },
}

/// Runs `schedule` against `addr`. In a traced run every second answer is
/// recorded as a `decide.request` span with its `decide.send_lag` child as
/// it arrives, inside that answer's timed interval, so comparing the two
/// halves shows what recording costs.
///
/// The sender stops early, and the schedule ends there, once `keep_going`
/// turns false; it checks at least every [`POLL`]. `after_send` runs on the
/// sender after each request is written.
pub(crate) fn run(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    schedule: &[Arrival],
    tracer: &Tracer,
    keep_going: &(dyn Fn() -> bool + Sync),
    after_send: &(dyn Fn(usize) + Sync),
) -> io::Result<Outcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(READ_GIVE_UP))?;
    stream.set_read_timeout(Some(READ_GIVE_UP))?;
    let (tx, rx) = mpsc::channel::<SentRec>();
    let tx = std::sync::Mutex::new(Some(tx));
    let rx = std::sync::Mutex::new(Some(rx));
    let start = Instant::now() + Duration::from_millis(20);
    let queue_depth = ppn_serve::metrics::queue_depth();

    let sides = par::with_threads(2, || {
        par::par_map(2, |i| {
            if i == 0 {
                let tx = tx.lock().expect("sender slot").take().expect("one sender");
                let mut writer = &stream;
                let mut queue_peak: f64 = 0.0;
                for (n, a) in schedule.iter().enumerate() {
                    let due = start + a.due;
                    if !sleep_until(due, keep_going) {
                        return Side::Sender {
                            scheduled: n,
                            unsent: 0,
                            queue_peak,
                            stopped: Some(Instant::now()),
                        };
                    }
                    queue_peak = queue_peak.max(queue_depth.get());
                    if writer.write_all(&requests[a.body]).is_err() {
                        return Side::Sender {
                            scheduled: schedule.len(),
                            unsent: schedule.len() - n,
                            queue_peak,
                            stopped: None,
                        };
                    }
                    let rec = SentRec {
                        body: a.body,
                        due,
                        sent: Instant::now(),
                        due_s: a.due.as_secs_f64(),
                    };
                    if tx.send(rec).is_err() {
                        return Side::Sender {
                            scheduled: schedule.len(),
                            unsent: schedule.len() - n - 1,
                            queue_peak,
                            stopped: None,
                        };
                    }
                    after_send(n);
                }
                Side::Sender { scheduled: schedule.len(), unsent: 0, queue_peak, stopped: None }
            } else {
                let rx = rx.lock().expect("reader slot").take().expect("one reader");
                let mut reader = BufReader::new(&stream);
                let mut answers = Vec::with_capacity(schedule.len());
                let mut lost = 0;
                let mut error = false;
                for rec in rx.iter() {
                    if error {
                        lost += 1;
                        continue;
                    }
                    match read_response(&mut reader) {
                        Ok((status, version, payload)) => {
                            let traced = tracer.on() && answers.len().is_multiple_of(2);
                            if traced {
                                let end = Instant::now();
                                let root = tracer.record(Ctx::ROOT, "decide.request", rec.due, end);
                                tracer.record(root, "decide.send_lag", rec.due, rec.sent);
                            }
                            // Taken after recording, so a traced answer's
                            // latency carries what its spans cost.
                            let done = Instant::now();
                            answers.push((rec, done, traced, status, version, payload));
                        }
                        Err(_) => {
                            // Closed or stalled: this request and every one
                            // still in flight behind it are never answered.
                            error = true;
                            lost += 1;
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                        }
                    }
                }
                Side::Reader { answers, lost }
            }
        })
    });

    let mut out = Outcome {
        scheduled: schedule.len(),
        answers: Vec::new(),
        unanswered: 0,
        queue_peak: 0.0,
        stopped: None,
    };
    for side in sides {
        match side {
            Side::Sender { scheduled, unsent, queue_peak, stopped } => {
                out.scheduled = scheduled;
                out.stopped = stopped;
                out.unanswered += unsent;
                out.queue_peak = queue_peak;
            }
            Side::Reader { answers, lost } => {
                out.unanswered += lost;
                for (rec, done, traced, status, version, payload) in answers {
                    out.answers.push(Answer {
                        traced,
                        body: rec.body,
                        status,
                        version,
                        payload,
                        latency_ms: ms(done - rec.due),
                        lag_ms: ms(rec.sent.saturating_duration_since(rec.due)),
                        due_s: rec.due_s,
                    });
                }
            }
        }
    }
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleeps until `t`, in slices of at most [`POLL`]. Returns false, early,
/// once `keep_going` does. No spinning: the generator shares the host's
/// cores with the server it measures.
fn sleep_until(t: Instant, keep_going: &(dyn Fn() -> bool + Sync)) -> bool {
    loop {
        if !keep_going() {
            return false;
        }
        let now = Instant::now();
        if now >= t {
            return true;
        }
        std::thread::sleep((t - now).min(POLL));
    }
}

/// Reads one response: status, `X-PPN-Model-Version` and body.
fn read_response(r: &mut impl BufRead) -> io::Result<(u16, Option<u64>, String)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let (mut len, mut version) = (0usize, None);
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed in headers"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            } else if k.eq_ignore_ascii_case("x-ppn-model-version") {
                version = v.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((status, version, String::from_utf8_lossy(&body).into_owned()))
}
