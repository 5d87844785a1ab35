//! The query load: a seeded query pool, Poisson arrival schedules, and one
//! non-blocking generator per client connection.
//!
//! A generator owns one connection and one thread. It sleeps in `ppoll(2)`
//! until the socket is readable or the next request is due, so it costs the
//! two-core box next to nothing while idle. Open-loop latency is timed from
//! the instant a request was *due*, not from when it was written: a stalled
//! server delays later sends, and that wait belongs to the requests that
//! suffered it. How late the generator itself ran is reported separately.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sut::{
    decode_response, encode_request, split_seed, FrameBuffer, Request, RequestBody, Response,
    STATUS_OK,
};
use crate::trace::Tracer;

/// SplitMix64 stream for the load's own randomness (query contents, arrival
/// gaps), seeded from `--seed`; the program under test never sees it.
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        split_seed(self.0, 0x10ad)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.unit() * (hi - lo + 1) as f64) as usize
    }
}

/// Zipf-distributed word ids over `0..vocab` (exponent 1.05, the corpus
/// generator's own skew), by inverse CDF.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(vocab: usize) -> Self {
        let mut acc = 0.0;
        let cumulative = (1..=vocab)
            .map(|r| {
                acc += (r as f64).powf(-1.05);
                acc
            })
            .collect();
        Self { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng64) -> u32 {
        let u = rng.unit() * self.cumulative[self.cumulative.len() - 1];
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1) as u32
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    Short,
    Long,
}

/// One pooled query: its words, its request seed and its encoded frame.
pub struct Query {
    pub class: QueryClass,
    pub words: Vec<u32>,
    pub seed: u64,
    /// `Some` for raw-text queries (`"w17 w4 …"`, the synthetic vocabulary's
    /// spelling), which the server tokenizes itself.
    pub text: Option<String>,
    pub frame: Vec<u8>,
}

pub const TOP_N: u32 = 5;

/// The mix: four short queries (8–32 tokens, alternating text and token
/// form) to one long (200–400 tokens, token form).
pub fn query_pool(seed: u64, vocab: usize, size: usize) -> Vec<Query> {
    let zipf = Zipf::new(vocab);
    let mut rng = Rng64::new(split_seed(seed, 0x9001));
    (0..size)
        .map(|i| {
            let class = if i % 5 == 4 { QueryClass::Long } else { QueryClass::Short };
            let len = match class {
                QueryClass::Short => rng.between(8, 32),
                QueryClass::Long => rng.between(200, 400),
            };
            let words: Vec<u32> = (0..len).map(|_| zipf.sample(&mut rng)).collect();
            let text = (class == QueryClass::Short && i % 2 == 0)
                .then(|| words.iter().map(|w| format!("w{w}")).collect::<Vec<_>>().join(" "));
            let seed = split_seed(seed, i as u64);
            let body = match &text {
                Some(t) => RequestBody::Text(t.clone()),
                None => RequestBody::Tokens(words.clone()),
            };
            let mut frame = Vec::new();
            encode_request(&Request { seed, top_n: TOP_N, body }, &mut frame);
            Query { class, words, seed, text, frame }
        })
        .collect()
}

/// Poisson arrivals at `rate_per_s` over `[0, duration_s)`: exponential
/// gaps, as nanosecond offsets from the phase start.
pub fn poisson_schedule(rate_per_s: f64, duration_s: f64, rng: &mut Rng64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 8);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

pub enum Mode {
    /// Keep `in_flight` requests outstanding until `duration` has passed.
    Closed { in_flight: usize, duration: Duration },
    /// Send at the scheduled offsets, whatever the server does.
    Open { schedule: Vec<u64> },
}

/// What one generator saw. `latency_us[i]` is infinite for a request that
/// failed (error reply, shed, deadline, never answered).
#[derive(Default)]
pub struct ConnReport {
    pub latency_us: Vec<f64>,
    pub class: Vec<QueryClass>,
    pub lateness_us: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    /// Seconds from phase start to the last reply.
    pub span_s: f64,
    /// Every `sample_every`-th reply, kept whole for the θ check.
    pub sampled: Vec<(usize, Response)>,
}

impl ConnReport {
    pub fn merge(&mut self, other: ConnReport) {
        self.latency_us.extend(other.latency_us);
        self.class.extend(other.class);
        self.lateness_us.extend(other.lateness_us);
        self.sent += other.sent;
        self.failed += other.failed;
        self.span_s = self.span_s.max(other.span_s);
        self.sampled.extend(other.sampled);
    }

    /// Accounts one sent request: when it was due, when it was written.
    fn note_sent(&mut self, due: Instant, written: Instant) {
        self.sent += 1;
        self.lateness_us.push(written.saturating_duration_since(due).as_secs_f64() * 1e6);
    }

    fn note_reply(&mut self, class: QueryClass, due: Instant, at: Instant, ok: bool) {
        self.class.push(class);
        if ok {
            self.latency_us.push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
        } else {
            self.latency_us.push(f64::INFINITY);
            self.failed += 1;
        }
    }
}

/// Gives up on replies this long after the last request was due.
const DRAIN_LIMIT: Duration = Duration::from_secs(4);

/// Drives one connection through `mode`, cycling through `pool` from
/// `first_query` in steps of `stride` (so two connections interleave the
/// pool instead of repeating each other).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: SocketAddr,
    pool: &[Query],
    first_query: usize,
    stride: usize,
    mode: Mode,
    start: Instant,
    sample_every: usize,
    tr: &mut Tracer,
) -> std::io::Result<ConnReport> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut frames = FrameBuffer::new(1 << 16);
    let mut out: Vec<u8> = Vec::new();
    let mut out_at = 0usize;
    let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut report = ConnReport::default();
    let mut next_query = first_query;
    let mut next_due = 0usize;
    let mut replies = 0usize;
    let (last_due, closed_cap) = match &mode {
        Mode::Closed { duration, in_flight } => (start + *duration, *in_flight),
        Mode::Open { schedule } => {
            (start + Duration::from_nanos(schedule.last().copied().unwrap_or(0)), 0)
        }
    };

    loop {
        let now = Instant::now();
        // Hand every request that is due to the socket buffer.
        loop {
            let due = match &mode {
                Mode::Closed { .. } => {
                    if in_flight.len() >= closed_cap || now >= last_due {
                        break;
                    }
                    now
                }
                Mode::Open { schedule } => match schedule.get(next_due) {
                    Some(&ns) if start + Duration::from_nanos(ns) <= now => {
                        next_due += 1;
                        start + Duration::from_nanos(ns)
                    }
                    _ => break,
                },
            };
            let q = next_query % pool.len();
            next_query += stride;
            out.extend_from_slice(&pool[q].frame);
            in_flight.push_back((due, q));
            report.note_sent(due, now);
        }
        while out_at < out.len() {
            match stream.write(&out[out_at..]) {
                Ok(n) => out_at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if out_at == out.len() {
            out.clear();
            out_at = 0;
        }

        // Take every reply that has arrived.
        loop {
            let open = tr.begin("net.FrameBuffer.fill_from");
            let filled = frames.fill_from(&mut stream);
            tr.end(open);
            match filled {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            let at = Instant::now();
            while let Some(range) = frames.take_frame().map_err(std::io::Error::other)? {
                let payload = frames.payload(range);
                let (due, q) = in_flight.pop_front().ok_or_else(|| {
                    std::io::Error::other("a reply arrived with no request outstanding")
                })?;
                let ok = payload.first() == Some(&STATUS_OK);
                report.note_reply(pool[q].class, due, at, ok);
                tr.record("serve.request", due, at);
                if replies.is_multiple_of(sample_every) {
                    let (decoded, _) =
                        tr.time("serve.wire.decode_response", || decode_response(payload));
                    report.sampled.push((q, decoded.map_err(std::io::Error::other)?));
                }
                replies += 1;
                report.span_s = at.duration_since(start).as_secs_f64();
            }
        }

        let now = Instant::now();
        let sending_done = match &mode {
            Mode::Closed { .. } => now >= last_due,
            Mode::Open { schedule } => next_due == schedule.len(),
        };
        if sending_done && in_flight.is_empty() && out.is_empty() {
            return Ok(report);
        }
        if now > last_due + DRAIN_LIMIT {
            // Whatever is still outstanding counts as failed.
            for (due, q) in in_flight.drain(..) {
                report.note_reply(pool[q].class, due, now, false);
            }
            return Ok(report);
        }
        let wake = match &mode {
            Mode::Open { schedule } if next_due < schedule.len() => {
                start + Duration::from_nanos(schedule[next_due])
            }
            Mode::Closed { .. } if !sending_done => last_due,
            _ => now + Duration::from_millis(50),
        };
        wait_ready(&stream, !out.is_empty(), wake.saturating_duration_since(now));
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the load generator waits in ppoll(2) with the 64-bit Linux ABI");

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Sleeps until `stream` is readable (or writable, when output is pending)
/// or `timeout` has passed. `poll(2)` only counts milliseconds; arrivals are
/// scheduled in microseconds, hence `ppoll`. Errors (EINTR) just return
/// early: the caller's loop re-evaluates everything anyway.
fn wait_ready(stream: &TcpStream, want_write: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fd` and `ts` are live, correctly laid-out (`repr(C)`, the
    // x86-64/aarch64 Linux `struct pollfd` / `struct timespec`) locals for
    // the whole call, `nfds` is 1 to match, and a null signal mask is the
    // documented way to leave the mask alone.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_is_seeded() {
        let a = poisson_schedule(2000.0, 5.0, &mut Rng64::new(7));
        let b = poisson_schedule(2000.0, 5.0, &mut Rng64::new(7));
        let c = poisson_schedule(2000.0, 5.0, &mut Rng64::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(*a.last().unwrap() < 5_000_000_000);
        // 10 000 expected arrivals, σ = 100.
        assert!((9_500..10_500).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: the mean gap is 1/rate and about 1/e of the gaps
        // exceed it.
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let over = gaps.iter().filter(|&&g| g > 500_000).count() as f64 / gaps.len() as f64;
        assert!((over - (-1.0f64).exp()).abs() < 0.03, "share of long gaps {over}");
    }

    #[test]
    fn lateness_is_written_minus_due_and_latency_runs_from_due() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_micros(100);
        let mut r = ConnReport::default();
        r.note_sent(due, t0 + Duration::from_micros(350));
        // A generator that runs early is on time, not negatively late.
        r.note_sent(due, t0);
        assert_eq!(r.lateness_us, vec![250.0, 0.0]);
        r.note_reply(QueryClass::Short, due, t0 + Duration::from_micros(1100), true);
        r.note_reply(QueryClass::Long, due, t0 + Duration::from_micros(1100), false);
        assert_eq!(r.latency_us[0], 1000.0);
        assert!(r.latency_us[1].is_infinite());
        assert_eq!((r.sent, r.failed), (2, 1));
    }

    #[test]
    fn pool_is_seeded_and_mixed_four_to_one() {
        let pool = query_pool(3, 500, 100);
        let again = query_pool(3, 500, 100);
        assert!(pool.iter().zip(&again).all(|(a, b)| a.frame == b.frame && a.seed == b.seed));
        assert_ne!(pool[0].frame, query_pool(4, 500, 100)[0].frame);
        let long = pool.iter().filter(|q| q.class == QueryClass::Long).count();
        assert_eq!(long, 20);
        for q in &pool {
            let n = q.words.len();
            match q.class {
                QueryClass::Short => assert!((8..=32).contains(&n)),
                QueryClass::Long => assert!((200..=400).contains(&n) && q.text.is_none()),
            }
            assert!(q.words.iter().all(|&w| w < 500));
        }
        let texts = pool.iter().filter(|q| q.text.is_some()).count();
        assert_eq!(texts, 40, "every other short query is raw text");
    }

    #[test]
    fn zipf_prefers_low_ids() {
        let z = Zipf::new(1000);
        let mut rng = Rng64::new(1);
        let draws: Vec<u32> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&w| w < 10).count();
        let tail = draws.iter().filter(|&&w| w >= 990).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }
}
