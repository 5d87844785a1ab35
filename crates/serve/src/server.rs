//! The event-loop TCP query server.
//!
//! One **event-loop thread** owns the listener and every connection through a
//! vendored `poll(2)` readiness shim (the `mio` API subset under `vendor/`):
//! nonblocking sockets, per-connection [`FrameBuffer`]s and output buffers
//! all live on the loop, and only *ready, complete request frames* are
//! dispatched to the fixed **worker pool**. Idle keep-alive connections
//! therefore cost one fd each and zero workers — the connection count is no
//! longer capped by the thread count.
//!
//! Serving mechanics worth naming:
//!
//! * **Admission control.** The job channel from the loop to the workers
//!   holds [`ServerConfig::max_pending`] frames; a frame it has no room for
//!   is answered immediately with a typed overload
//!   [`Response::Error`](crate::wire::Response) instead of queueing forever.
//!   Connections beyond [`ServerConfig::max_connections`] get a typed
//!   capacity error and are closed.
//! * **Per-request deadlines.** Every job carries its admission time; a
//!   worker that claims a job past [`ServerConfig::request_deadline`] answers
//!   with a typed deadline error instead of doing stale work.
//! * **Partial writes, never blocking.** Responses go to a per-connection
//!   output buffer flushed on write readiness; a slow reader delays only its
//!   own bytes. A reader that stops draining while output is pending beyond
//!   [`ServerConfig::write_stall_timeout`] is disconnected
//!   (counted in [`ServeCounters::stalled_disconnects`]) — a stalled client
//!   can wedge neither a worker nor the loop, and shutdown stays prompt.
//! * **Accept-error backoff.** Transient accept failures (e.g. fd
//!   exhaustion) pause the listener with exponential backoff instead of
//!   hot-spinning, surfaced via [`ServeCounters::accept_errors`].
//! * **Pipelining with strict ordering.** Many frames of one connection may
//!   be in flight across workers at once; completions are re-sequenced by a
//!   per-connection sequence number, so responses always come back in
//!   request order.
//! * **Atomic hot swap** and **latency accounting**: the live model is an
//!   `Arc` slot behind a `ModelHandle`, and per-request time (admission →
//!   response encoded, i.e. queue wait included) accumulates in a lock-free
//!   log-scale histogram ([`ServerHandle::latency`]).
//! * **Shutdown** stops the loop, which drops its end of both channels: a
//!   worker finishes the job in hand and exits, queued jobs are dropped.
//!
//! The loop owns every buffer: a frame's payload goes to a worker in its
//! job, comes back holding the encoded response and returns to the loop's
//! spare list, so a warm request costs no steady-state allocation growth;
//! θ stays a pure function of (model, config, document, seed) —
//! bit-identical to the single-threaded [`InferenceEngine`] for any worker
//! count.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};
use warplda_corpus::{tokenize_query_into, OovPolicy};

use crate::infer::{InferConfig, InferScratch, InferenceEngine};
use crate::model::{ModelHandle, TopicModel};
use crate::wire::{
    decode_request, decode_response, encode_error_response, encode_ok_response, encode_request,
    FrameBuffer, Request, RequestBody, RequestBodyView, Response, WireError,
};

/// Typed message of an admission-control shed reply.
pub const OVERLOAD_MSG: &str = "server overloaded: admission queue full, retry later";
/// Typed message sent when the connection cap is reached.
pub const CAPACITY_MSG: &str = "server at connection capacity, retry later";
/// Typed message of a request that waited past its deadline.
pub const DEADLINE_MSG: &str = "request deadline exceeded before service";

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads running inference (the event loop is one extra thread).
    pub workers: usize,
    /// What to do with out-of-vocabulary query words.
    pub oov_policy: OovPolicy,
    /// Fold-in inference configuration.
    pub infer: InferConfig,
    /// Admission bound: complete frames queued for the workers beyond this
    /// are shed with a typed overload error instead of queueing forever.
    /// It is the job channel's capacity, whose slots are allocated at bind.
    pub max_pending: usize,
    /// A request that has not reached a worker within this deadline is
    /// answered with a typed deadline error instead of stale work.
    pub request_deadline: Duration,
    /// A connection with pending output that accepts no bytes for this long
    /// is disconnected (a stalled reader must not pin buffers forever).
    pub write_stall_timeout: Duration,
    /// Open-connection cap; connections beyond it get a typed capacity error.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            oov_policy: OovPolicy::Skip,
            infer: InferConfig::default(),
            max_pending: 1024,
            request_deadline: Duration::from_secs(2),
            write_stall_timeout: Duration::from_secs(5),
            max_connections: 8192,
        }
    }
}

impl ServerConfig {
    /// A config with a specific worker count.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one server worker");
        Self { workers, ..Self::default() }
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two (12.5% bucket resolution).
const SUBBUCKETS: usize = 8;
/// 64 exponents × 8 sub-buckets cover the whole u64 microsecond range.
const NUM_BUCKETS: usize = 64 * SUBBUCKETS;

/// Lock-free log-scale histogram of per-request service times.
#[derive(Debug)]
struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        if us < SUBBUCKETS as u64 {
            return us as usize; // exact below 8µs
        }
        let e = 63 - us.leading_zeros() as u64; // e >= 3 here
        let sub = (us >> (e - 3)) & 0b111; // top 3 bits below the leader
        ((e - 3) as usize) * SUBBUCKETS + SUBBUCKETS + sub as usize
    }

    /// Upper edge of a bucket: percentiles err on the conservative side.
    fn bucket_upper(idx: usize) -> u64 {
        if idx < SUBBUCKETS {
            return idx as u64;
        }
        let e = (idx - SUBBUCKETS) / SUBBUCKETS + 3;
        let sub = ((idx - SUBBUCKETS) % SUBBUCKETS) as u64;
        (8 + sub + 1) << (e - 3)
    }

    fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    fn percentile_us(&self, counts: &[u64], total: u64, p: f64) -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // The bucket's upper edge, clamped to the exact maximum: the
                // edge can otherwise exceed max_us when the top-rank sample
                // shares a bucket with the true max (p99 > max would then
                // fail the schema's monotonicity check).
                return Self::bucket_upper(idx).min(self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    fn stats(&self) -> LatencyStats {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        let sum = self.sum_us.load(Ordering::Relaxed);
        LatencyStats {
            count: total,
            mean_us: if total == 0 { 0.0 } else { sum as f64 / total as f64 },
            p50_us: self.percentile_us(&counts, total, 50.0),
            p95_us: self.percentile_us(&counts, total, 95.0),
            p99_us: self.percentile_us(&counts, total, 99.0),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the per-server latency accounting (microseconds).
/// Per-request time runs from admission (the frame was complete on the loop)
/// to response encoded, so queue wait under load is part of the number.
/// Percentiles come from a log-scale histogram with 12.5% bucket resolution,
/// reported at the bucket's upper edge (conservative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Requests served.
    pub count: u64,
    /// Mean service time.
    pub mean_us: f64,
    /// Median service time.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst request.
    pub max_us: u64,
}

// ---------------------------------------------------------------------------
// Serving counters
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    open_connections: AtomicU64,
    shed_overload: AtomicU64,
    deadline_expired: AtomicU64,
    stalled_disconnects: AtomicU64,
    accept_errors: AtomicU64,
    rejected_at_capacity: AtomicU64,
}

/// A snapshot of the server's failure-mode and admission accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounters {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections currently open on the event loop.
    pub open_connections: u64,
    /// Requests shed with the typed overload error (admission bound hit).
    pub shed_overload: u64,
    /// Requests answered with the typed deadline error.
    pub deadline_expired: u64,
    /// Connections dropped because a stalled reader stopped draining output.
    pub stalled_disconnects: u64,
    /// Accept errors absorbed with backoff (fd exhaustion and kin).
    pub accept_errors: u64,
    /// Connections refused with the typed capacity error.
    pub rejected_at_capacity: u64,
}

// ---------------------------------------------------------------------------
// Jobs and completions
// ---------------------------------------------------------------------------

/// One ready, complete request frame, dispatched to the worker pool.
struct Job {
    conn: usize,
    gen: u64,
    seq: u64,
    payload: Vec<u8>,
    enqueued: Instant,
}

/// An encoded response on its way back to the event loop, in the buffer
/// that carried its request.
struct Completion {
    conn: usize,
    gen: u64,
    seq: u64,
    buf: Vec<u8>,
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Shared {
    model: ModelHandle,
    latency: LatencyHistogram,
    config: ServerConfig,
    shutdown: AtomicBool,
    waker: Waker,
    counters: Counters,
}

/// The query server. [`Server::bind`] spawns the event loop and the worker
/// pool and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port),
    /// serving `model` under `config`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        model: Arc<TopicModel>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        assert!(config.workers >= 1, "need at least one server worker");
        assert!(config.max_pending >= 1, "admission bound must admit at least one request");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let poll = Poll::new()?;
        let waker = Waker::new(&poll, WAKER_TOKEN)?;
        let shared = Arc::new(Shared {
            model: ModelHandle::new(model),
            latency: LatencyHistogram::new(),
            config,
            shutdown: AtomicBool::new(false),
            waker,
            counters: Counters::default(),
        });

        // Completions are bounded too, so their slots are allocated once; a
        // worker that finds the channel full waits for the loop's next pass.
        let (jobs, job_rx) = mpsc::sync_channel(config.max_pending);
        let (done, completions) = mpsc::sync_channel(config.max_pending + config.workers);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..config.workers)
            .map(|_| {
                let (shared, job_rx, done) =
                    (Arc::clone(&shared), Arc::clone(&job_rx), done.clone());
                std::thread::spawn(move || worker_loop(&shared, &job_rx, &done))
            })
            .collect();
        let event_loop = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                EventLoop::new(shared, listener, poll, jobs, completions).run()
            })
        };

        Ok(ServerHandle { addr: local_addr, shared, event_loop: Some(event_loop), workers })
    }
}

/// Handle to a running server: address, hot swap, latency, counters,
/// shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Atomically promotes `model`; in-flight requests finish on the model
    /// they started with, every later request sees the new one. Returns the
    /// replaced model.
    pub fn swap_model(&self, model: Arc<TopicModel>) -> Arc<TopicModel> {
        self.shared.model.swap(model)
    }

    /// Number of hot swaps performed so far (echoed in every response).
    pub fn model_epoch(&self) -> u32 {
        self.shared.model.epoch()
    }

    /// Snapshot of the per-server latency accounting.
    pub fn latency(&self) -> LatencyStats {
        self.shared.latency.stats()
    }

    /// Snapshot of the admission/failure-mode counters.
    pub fn counters(&self) -> ServeCounters {
        let c = &self.shared.counters;
        ServeCounters {
            accepted: c.accepted.load(Ordering::Relaxed),
            open_connections: c.open_connections.load(Ordering::Relaxed),
            shed_overload: c.shed_overload.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            stalled_disconnects: c.stalled_disconnects.load(Ordering::Relaxed),
            accept_errors: c.accept_errors.load(Ordering::Relaxed),
            rejected_at_capacity: c.rejected_at_capacity.load(Ordering::Relaxed),
        }
    }

    /// Stops the event loop and the workers and joins all threads. Nothing in
    /// the server blocks on a socket, so this returns promptly even with
    /// stalled readers attached; queued jobs and responses not yet flushed
    /// are dropped with their connections.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.event_loop.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.waker.wake();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: Token = Token(0);
const WAKER_TOKEN: Token = Token(1);
/// Connection slot `i` registers under `Token(i + CONN_TOKEN_BASE)`.
const CONN_TOKEN_BASE: usize = 2;

/// Maintenance tick: stall checks, accept-backoff expiry, shutdown polling.
const TICK: Duration = Duration::from_millis(20);
const INITIAL_ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
const MAX_ACCEPT_BACKOFF: Duration = Duration::from_secs(1);

/// One connection, owned entirely by the event loop.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Encoded responses awaiting the socket, in order; `written` bytes of
    /// the front are already gone.
    out: Vec<u8>,
    written: usize,
    /// Out-of-order completions, re-sequenced before hitting `out`.
    pending_out: BTreeMap<u64, Vec<u8>>,
    /// Sequence number the next dispatched frame gets.
    next_dispatch_seq: u64,
    /// Sequence number whose response may enter `out` next.
    next_flush_seq: u64,
    /// Jobs dispatched whose completions have not come back yet.
    in_flight: usize,
    /// Interest currently registered with the poll (`None` = deregistered).
    registered: Option<Interest>,
    /// Set when a write found the socket full; cleared on any progress.
    stalled_since: Option<Instant>,
    /// EOF seen or framing poisoned: dispatch stops, the connection closes
    /// once every owed response is flushed.
    read_closed: bool,
}

/// A connection slot; `gen` guards stale completions after slot reuse.
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    poll: Poll,
    slots: Vec<Slot>,
    free: Vec<usize>,
    accept_paused_until: Option<Instant>,
    accept_backoff: Duration,
    jobs: SyncSender<Job>,
    completions: Receiver<Completion>,
    /// Cleared buffers for the next frames' payloads.
    spare: Vec<Vec<u8>>,
}

impl EventLoop {
    fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        poll: Poll,
        jobs: SyncSender<Job>,
        completions: Receiver<Completion>,
    ) -> Self {
        Self {
            shared,
            listener,
            poll,
            slots: Vec::new(),
            free: Vec::new(),
            accept_paused_until: None,
            accept_backoff: INITIAL_ACCEPT_BACKOFF,
            jobs,
            completions,
            spare: Vec::new(),
        }
    }

    fn run(mut self) {
        if self.listener.set_nonblocking(true).is_err() {
            return;
        }
        if self.poll.register(&self.listener, LISTENER_TOKEN, Interest::READABLE).is_err() {
            return;
        }
        let mut events = Events::with_capacity(256);
        while !self.shared.shutdown.load(Ordering::Acquire) {
            if self.poll.poll(&mut events, Some(TICK)).is_err() {
                break;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let now = Instant::now();
            if let Some(until) = self.accept_paused_until {
                if now >= until {
                    self.accept_paused_until = None;
                    let _ = self.poll.register(&self.listener, LISTENER_TOKEN, Interest::READABLE);
                }
            }
            let mut accept_pending = false;
            let mut waker_pending = false;
            let mut ready: Vec<(usize, bool, bool)> = Vec::new();
            for ev in &events {
                match ev.token() {
                    LISTENER_TOKEN => accept_pending = true,
                    WAKER_TOKEN => waker_pending = true,
                    Token(t) => {
                        ready.push((t - CONN_TOKEN_BASE, ev.is_readable(), ev.is_writable()))
                    }
                }
            }
            if waker_pending {
                self.shared.waker.drain();
            }
            if accept_pending && self.accept_paused_until.is_none() {
                self.accept_ready(now);
            }
            for (idx, readable, writable) in ready {
                self.conn_ready(idx, readable, writable, now);
            }
            // Completions may arrive while we were busy even without a fresh
            // waker event; always drain.
            self.drain_completions();
            self.check_stalls(now);
        }
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    self.accept_backoff = INITIAL_ACCEPT_BACKOFF;
                    let open =
                        self.shared.counters.open_connections.load(Ordering::Relaxed) as usize;
                    if open >= self.shared.config.max_connections {
                        self.shared.counters.rejected_at_capacity.fetch_add(1, Ordering::Relaxed);
                        // Best-effort typed refusal; the socket is dropped
                        // either way, so a full send buffer loses nothing.
                        let _ = stream.set_nonblocking(true);
                        let mut buf = self.spare.pop().unwrap_or_default();
                        encode_error_response(&mut buf, CAPACITY_MSG);
                        let _ = (&stream).write(&buf);
                        recycle(&mut self.spare, buf);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.open_conn(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (EMFILE & kin): pause the
                    // listener with exponential backoff instead of spinning.
                    self.shared.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = self.poll.deregister(&self.listener);
                    self.accept_paused_until = Some(now + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(MAX_ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    fn open_conn(&mut self, stream: TcpStream) {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let token = Token(idx + CONN_TOKEN_BASE);
        if self.poll.register(&stream, token, Interest::READABLE).is_err() {
            self.free.push(idx); // fd vanished under us; drop it
            return;
        }
        self.slots[idx].conn = Some(Conn {
            stream,
            frames: FrameBuffer::new(4096),
            out: Vec::new(),
            written: 0,
            pending_out: BTreeMap::new(),
            next_dispatch_seq: 0,
            next_flush_seq: 0,
            in_flight: 0,
            registered: Some(Interest::READABLE),
            stalled_since: None,
            read_closed: false,
        });
        self.shared.counters.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    fn close_conn(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let Some(conn) = slot.conn.take() else { return };
        if conn.registered.is_some() {
            let _ = self.poll.deregister(&conn.stream);
        }
        for (_, buf) in conn.pending_out {
            recycle(&mut self.spare, buf);
        }
        slot.gen += 1;
        self.free.push(idx);
        self.shared.counters.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    // -- readiness ---------------------------------------------------------

    fn conn_ready(&mut self, idx: usize, readable: bool, writable: bool, now: Instant) {
        let Some(slot) = self.slots.get_mut(idx) else { return };
        let Some(conn) = slot.conn.as_mut() else { return };
        let gen = slot.gen;
        if readable && !conn.read_closed {
            let mut alive = true;
            loop {
                match conn.frames.fill_from(&mut conn.stream) {
                    Ok(0) => {
                        // EOF (possibly a half-close: the client may still be
                        // reading); finish what we owe, then close.
                        conn.read_closed = true;
                        break;
                    }
                    Ok(_) => {
                        Self::extract_frames(
                            &self.shared,
                            &self.jobs,
                            &mut self.spare,
                            conn,
                            idx,
                            gen,
                        );
                        if conn.read_closed {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        alive = false;
                        break;
                    }
                }
            }
            if !alive {
                self.close_conn(idx);
                return;
            }
        }
        let conn = self.slots[idx].conn.as_mut().expect("checked above");
        if (writable || !conn.out.is_empty()) && !Self::try_write(conn, now) {
            self.close_conn(idx);
            return;
        }
        self.finish_conn_pass(idx);
    }

    /// Takes every complete frame out of `conn.frames`: dispatch within the
    /// admission bound, shed (typed, sequenced) beyond it, poison the
    /// connection on a framing error.
    fn extract_frames(
        shared: &Shared,
        jobs: &SyncSender<Job>,
        spare: &mut Vec<Vec<u8>>,
        conn: &mut Conn,
        idx: usize,
        gen: u64,
    ) {
        loop {
            match conn.frames.take_frame() {
                Ok(Some(range)) => {
                    let seq = conn.next_dispatch_seq;
                    conn.next_dispatch_seq += 1;
                    let mut payload = spare.pop().unwrap_or_default();
                    payload.extend_from_slice(conn.frames.payload(range));
                    let job = Job { conn: idx, gen, seq, payload, enqueued: Instant::now() };
                    match jobs.try_send(job) {
                        Ok(()) => conn.in_flight += 1,
                        Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                            shared.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
                            let mut buf = job.payload;
                            buf.clear();
                            encode_error_response(&mut buf, OVERLOAD_MSG);
                            conn.pending_out.insert(seq, buf);
                        }
                    }
                }
                Ok(None) => break,
                // Oversized/garbage framing: the stream cannot be re-synced.
                // Stop reading; owed responses still flush, then it closes.
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
        Self::flush_ready(spare, conn);
    }

    /// Moves in-order completed responses into the connection's out buffer.
    fn flush_ready(spare: &mut Vec<Vec<u8>>, conn: &mut Conn) {
        while let Some(buf) = conn.pending_out.remove(&conn.next_flush_seq) {
            conn.out.extend_from_slice(&buf);
            recycle(spare, buf);
            conn.next_flush_seq += 1;
        }
    }

    /// Writes as much pending output as the socket takes without blocking.
    /// Returns `false` when the connection died.
    fn try_write(conn: &mut Conn, now: Instant) -> bool {
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.written += n;
                    conn.stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.stalled_since.is_none() {
                        conn.stalled_since = Some(now);
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.written == conn.out.len() {
            conn.out.clear();
            conn.written = 0;
            conn.stalled_since = None;
            // Bound the retained high-water mark: a burst to a slow reader
            // must not pin megabytes on an idle keep-alive connection.
            if conn.out.capacity() > 1 << 20 {
                conn.out.shrink_to(1 << 16);
            }
        }
        true
    }

    /// Re-registers interest to match buffered state and closes connections
    /// that owe nothing and can receive nothing.
    fn finish_conn_pass(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        let Some(conn) = slot.conn.as_ref() else { return };
        let done = conn.read_closed
            && conn.in_flight == 0
            && conn.pending_out.is_empty()
            && conn.out.is_empty();
        if done {
            self.close_conn(idx);
            return;
        }
        let want_read = !conn.read_closed;
        let want_write = !conn.out.is_empty();
        let want = match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            // Waiting only on worker completions: nothing to poll for (and
            // keeping a closed-read fd registered would spin on POLLIN).
            (false, false) => None,
        };
        let conn = self.slots[idx].conn.as_mut().expect("checked above");
        if want == conn.registered {
            return;
        }
        let token = Token(idx + CONN_TOKEN_BASE);
        let ok = match (conn.registered, want) {
            (None, Some(interest)) => self.poll.register(&conn.stream, token, interest).is_ok(),
            (Some(_), Some(interest)) => {
                self.poll.reregister(&conn.stream, token, interest).is_ok()
            }
            (Some(_), None) => self.poll.deregister(&conn.stream).is_ok(),
            (None, None) => true,
        };
        if ok {
            conn.registered = want;
        } else {
            self.close_conn(idx);
        }
    }

    // -- completions and maintenance ---------------------------------------

    fn drain_completions(&mut self) {
        let mut touched: Vec<usize> = Vec::new();
        while let Ok(completion) = self.completions.try_recv() {
            let Some(conn) = self
                .slots
                .get_mut(completion.conn)
                .filter(|slot| slot.gen == completion.gen)
                .and_then(|slot| slot.conn.as_mut())
            else {
                // The connection died while the worker was busy.
                recycle(&mut self.spare, completion.buf);
                continue;
            };
            conn.in_flight -= 1;
            conn.pending_out.insert(completion.seq, completion.buf);
            Self::flush_ready(&mut self.spare, conn);
            if !touched.contains(&completion.conn) {
                touched.push(completion.conn);
            }
        }
        let now = Instant::now();
        for idx in touched {
            if let Some(conn) = self.slots[idx].conn.as_mut() {
                if !Self::try_write(conn, now) {
                    self.close_conn(idx);
                    continue;
                }
            }
            self.finish_conn_pass(idx);
        }
    }

    /// Disconnects stalled readers: pending output, zero progress past the
    /// configured timeout.
    fn check_stalls(&mut self, now: Instant) {
        let timeout = self.shared.config.write_stall_timeout;
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_ref() else { continue };
            if let Some(since) = conn.stalled_since {
                if now.duration_since(since) >= timeout {
                    self.shared.counters.stalled_disconnects.fetch_add(1, Ordering::Relaxed);
                    self.close_conn(idx);
                }
            }
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        for idx in 0..self.slots.len() {
            self.close_conn(idx);
        }
    }
}

/// Keeps `buf` for a later frame; beyond 1 024 spares it is dropped instead.
fn recycle(spare: &mut Vec<Vec<u8>>, mut buf: Vec<u8>) {
    if spare.len() < 1024 {
        buf.clear();
        spare.push(buf);
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Everything a worker reuses across requests; the reason a warm request is
/// allocation-free on the worker side.
struct WorkerScratch {
    tokens: Vec<u32>,
    normalize: String,
    infer: InferScratch,
}

/// Serves jobs until the loop drops either channel: the job sender (no
/// more jobs) or the completion receiver (nowhere to answer).
fn worker_loop(shared: &Shared, jobs: &Mutex<Receiver<Job>>, done: &SyncSender<Completion>) {
    let mut scratch =
        WorkerScratch { tokens: Vec::new(), normalize: String::new(), infer: InferScratch::new() };
    loop {
        let job = jobs.lock().expect("job receiver poisoned").recv();
        let Ok(Job { conn, gen, seq, payload: mut buf, enqueued }) = job else { return };
        if enqueued.elapsed() > shared.config.request_deadline {
            shared.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
            reply_error(&mut buf, DEADLINE_MSG);
        } else {
            handle_request(shared, &mut scratch, &mut buf);
        }
        shared.latency.record_us(enqueued.elapsed().as_micros() as u64);
        if done.send(Completion { conn, gen, seq, buf }).is_err() {
            return;
        }
        let _ = shared.waker.wake();
    }
}

/// Replaces the request in `buf` with a typed error response.
fn reply_error(buf: &mut Vec<u8>, message: &str) {
    buf.clear();
    encode_error_response(buf, message);
}

/// Decodes the request in `buf`, infers, and replaces it with exactly one
/// response frame.
fn handle_request(shared: &Shared, scratch: &mut WorkerScratch, buf: &mut Vec<u8>) {
    let WorkerScratch { tokens, normalize, infer } = scratch;
    let Ok(request) = decode_request(buf, tokens) else {
        return reply_error(buf, "malformed request");
    };
    let (model, epoch) = shared.model.current();
    let mut oov_dropped = 0u32;
    match request.body {
        RequestBodyView::Text(text) => {
            let Some(vocab) = model.vocab() else {
                return reply_error(buf, "model has no vocabulary; send token-id queries");
            };
            match tokenize_query_into(vocab, text, shared.config.oov_policy, normalize, tokens) {
                Ok(oov) => oov_dropped = oov as u32,
                Err(e) => return reply_error(buf, &e.to_string()),
            }
        }
        RequestBodyView::Tokens => {
            let limit = model.num_words() as u32;
            if tokens.iter().any(|&t| t >= limit) {
                return reply_error(buf, "token id out of range for the model vocabulary");
            }
        }
    }
    let engine = InferenceEngine::new(&model, shared.config.infer);
    engine.infer_into(tokens, request.seed, infer);
    let top = infer.top_topics();
    let top = &top[..top.len().min(request.top_n as usize)];
    buf.clear();
    encode_ok_response(buf, epoch, tokens.len() as u32, oov_dropped, infer.theta(), top);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A small blocking client for the wire protocol, supporting pipelining
/// ([`send`](Self::send) several requests, then [`recv`](Self::recv) the
/// responses in order) and optional deadlines so a dead or wedged server
/// surfaces as a typed timeout instead of hanging `recv` forever.
pub struct Client {
    stream: TcpStream,
    frames: FrameBuffer,
    out: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, frames: FrameBuffer::new(4096), out: Vec::new() })
    }

    /// Connects with a bound on the connect itself *and* installs the same
    /// bound as the I/O deadline (see [`set_deadline`](Self::set_deadline)).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        let mut client = Self { stream, frames: FrameBuffer::new(4096), out: Vec::new() };
        client.set_deadline(Some(timeout))?;
        Ok(client)
    }

    /// Bounds every subsequent socket read and write: past the deadline,
    /// [`recv`](Self::recv) returns a typed [`WireError::Io`] with kind
    /// `WouldBlock`/`TimedOut` instead of blocking forever. `None` removes
    /// the bound.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(deadline)?;
        self.stream.set_write_timeout(deadline)
    }

    /// Sends a request without waiting for the response.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        self.out.clear();
        encode_request(request, &mut self.out);
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    /// Receives the next response.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        loop {
            if let Some(range) = self.frames.take_frame()? {
                let payload = self.frames.payload(range);
                return decode_response(payload)
                    .map_err(|_| WireError::Malformed("undecodable response"));
            }
            if self.frames.fill_from(&mut self.stream)? == 0 {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
        }
    }

    /// Round trip of one raw-text query.
    pub fn query_text(&mut self, text: &str, seed: u64, top_n: u32) -> Result<Response, WireError> {
        self.send(&Request { seed, top_n, body: RequestBody::Text(text.to_owned()) })?;
        self.recv()
    }

    /// Round trip of one pre-tokenized query.
    pub fn query_tokens(
        &mut self,
        tokens: &[u32],
        seed: u64,
        top_n: u32,
    ) -> Result<Response, WireError> {
        self.send(&Request { seed, top_n, body: RequestBody::Tokens(tokens.to_vec()) })?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_core::{ModelParams, Sampler, WarpLda, WarpLdaConfig};
    use warplda_corpus::CorpusBuilder;

    fn trained() -> Arc<TopicModel> {
        let mut b = CorpusBuilder::new();
        for _ in 0..30 {
            b.push_text_doc(["river", "lake", "water", "fish"]);
            b.push_text_doc(["desert", "sand", "dune", "heat"]);
        }
        let corpus = b.build().unwrap();
        let mut s =
            WarpLda::new(&corpus, ModelParams::new(2, 0.5, 0.1), WarpLdaConfig::default(), 5);
        for _ in 0..40 {
            s.run_iteration();
        }
        Arc::new(TopicModel::freeze_sampler(&s, &corpus))
    }

    #[test]
    fn serves_text_and_token_queries_with_oov_accounting() {
        let model = trained();
        let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), ServerConfig::default())
            .expect("bind loopback");
        let mut client = Client::connect(handle.addr()).unwrap();
        client.set_deadline(Some(Duration::from_secs(30))).unwrap();

        let resp = client.query_text("river water zeppelin fish", 7, 4).unwrap();
        let Response::Ok(reply) = resp else { panic!("expected ok: {resp:?}") };
        assert_eq!(reply.model_epoch, 0);
        assert_eq!(reply.tokens_used, 3);
        assert_eq!(reply.oov_dropped, 1, "\"zeppelin\" is OOV");
        assert_eq!(reply.theta.len(), 2);
        assert!((reply.theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(!reply.top.is_empty());

        // The same query, pre-tokenized, with the same seed: θ bit-identical.
        let vocab_ids: Vec<u32> = ["river", "water", "fish"]
            .iter()
            .map(|w| model.vocab().unwrap().get(w).unwrap())
            .collect();
        let resp = client.query_tokens(&vocab_ids, 7, 4).unwrap();
        let Response::Ok(tok_reply) = resp else { panic!("expected ok") };
        assert_eq!(
            tok_reply.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reply.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // Out-of-range token ids are rejected, the connection survives.
        let resp = client.query_tokens(&[9_999_999], 1, 1).unwrap();
        assert!(matches!(resp, Response::Error(_)));
        let resp = client.query_tokens(&vocab_ids, 7, 4).unwrap();
        assert!(matches!(resp, Response::Ok(_)));

        let stats = handle.latency();
        assert_eq!(stats.count, 4);
        assert!(stats.p50_us <= stats.p95_us && stats.p95_us <= stats.p99_us);
        assert!(stats.p99_us <= stats.max_us, "{stats:?}");
        let counters = handle.counters();
        assert_eq!(counters.accepted, 1);
        assert_eq!(counters.shed_overload, 0);
        assert_eq!(counters.stalled_disconnects, 0);
        handle.shutdown();
    }

    #[test]
    fn reject_policy_refuses_oov_queries() {
        let model = trained();
        let config = ServerConfig { oov_policy: OovPolicy::Reject, ..ServerConfig::default() };
        let handle = Server::bind("127.0.0.1:0", model, config).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        match client.query_text("river zeppelin", 1, 2).unwrap() {
            Response::Error(msg) => assert!(msg.contains("zeppelin"), "{msg}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let model = trained();
        let handle = Server::bind("127.0.0.1:0", model, ServerConfig::with_workers(1)).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for seed in 0..8u64 {
            client
                .send(&Request { seed, top_n: 1, body: RequestBody::Text("river water".into()) })
                .unwrap();
        }
        let mut thetas = Vec::new();
        for _ in 0..8 {
            let Response::Ok(reply) = client.recv().unwrap() else { panic!("expected ok") };
            thetas.push(reply.theta);
        }
        drop(client);
        // Order preserved: seed s must reproduce its own direct query.
        let mut check = Client::connect(handle.addr()).unwrap();
        for (seed, theta) in thetas.iter().enumerate() {
            let Response::Ok(reply) = check.query_text("river water", seed as u64, 1).unwrap()
            else {
                panic!("expected ok")
            };
            assert_eq!(
                reply.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "response for seed {seed} out of order"
            );
        }
        assert_eq!(handle.latency().count, 16);
        handle.shutdown();
    }

    #[test]
    fn pipelined_ordering_holds_across_many_workers() {
        // 4 workers race on one connection's pipelined burst; the sequence
        // reassembly must still deliver responses in request order.
        let model = trained();
        let handle = Server::bind("127.0.0.1:0", model, ServerConfig::with_workers(4)).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let n = 64u64;
        for seed in 0..n {
            client
                .send(&Request { seed, top_n: 1, body: RequestBody::Text("river water".into()) })
                .unwrap();
        }
        let mut thetas = Vec::new();
        for _ in 0..n {
            let Response::Ok(reply) = client.recv().unwrap() else { panic!("expected ok") };
            thetas.push(reply.theta);
        }
        drop(client);
        let mut check = Client::connect(handle.addr()).unwrap();
        for (seed, theta) in thetas.iter().enumerate() {
            let Response::Ok(reply) = check.query_text("river water", seed as u64, 1).unwrap()
            else {
                panic!("expected ok")
            };
            assert_eq!(
                reply.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "response for seed {seed} out of order under 4 workers"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn hot_swap_changes_the_epoch_without_dropping_the_connection() {
        let model = trained();
        let handle = Server::bind("127.0.0.1:0", model, ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let Response::Ok(before) = client.query_text("river", 1, 1).unwrap() else {
            panic!("expected ok")
        };
        assert_eq!(before.model_epoch, 0);
        handle.swap_model(trained());
        assert_eq!(handle.model_epoch(), 1);
        let Response::Ok(after) = client.query_text("river", 1, 1).unwrap() else {
            panic!("expected ok")
        };
        assert_eq!(after.model_epoch, 1, "same connection must see the promoted model");
        handle.shutdown();
    }

    #[test]
    fn malformed_bytes_do_not_wedge_the_server() {
        let model = trained();
        let handle = Server::bind("127.0.0.1:0", model, ServerConfig::default()).unwrap();
        // A frame whose payload is garbage gets an error response.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&3u32.to_le_bytes()).unwrap();
        stream.write_all(&[0xFF, 0xFE, 0xFD]).unwrap();
        let mut fb = FrameBuffer::new(64);
        let resp = loop {
            if let Some(range) = fb.take_frame().unwrap() {
                break decode_response(fb.payload(range)).unwrap();
            }
            assert!(fb.fill_from(&mut stream).unwrap() > 0, "server closed early");
        };
        assert!(matches!(resp, Response::Error(_)));
        drop(stream);
        // And a fresh client still gets served.
        let mut client = Client::connect(handle.addr()).unwrap();
        assert!(matches!(client.query_text("river", 1, 1).unwrap(), Response::Ok(_)));
        handle.shutdown();
    }

    #[test]
    fn oversized_frame_closes_the_connection_after_flushing_owed_responses() {
        let model = trained();
        let handle = Server::bind("127.0.0.1:0", model, ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        // One good request, then a poisoned length prefix in the same burst.
        client
            .send(&Request { seed: 1, top_n: 1, body: RequestBody::Text("river".into()) })
            .unwrap();
        client.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // The owed response still arrives…
        assert!(matches!(client.recv().unwrap(), Response::Ok(_)));
        // …then the server closes: recv sees EOF, not a hang.
        match client.recv() {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e:?}")
            }
            other => panic!("expected EOF after poisoned framing, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn latency_histogram_buckets_are_monotone() {
        let h = LatencyHistogram::new();
        for us in [0u64, 1, 5, 7, 8, 9, 100, 1_000, 65_537, u32::MAX as u64] {
            let idx = LatencyHistogram::bucket_of(us);
            assert!(idx < NUM_BUCKETS, "{us}µs -> bucket {idx}");
            assert!(LatencyHistogram::bucket_upper(idx) >= us, "upper edge below sample for {us}");
            h.record_us(us);
        }
        let stats = h.stats();
        assert_eq!(stats.count, 10);
        assert!(stats.p50_us <= stats.p99_us);
        assert!(stats.p99_us <= stats.max_us, "{stats:?}");
        assert_eq!(stats.max_us, u32::MAX as u64);
        // Percentiles are clamped to the exact maximum: a bucket shared by
        // the top-rank sample and the true max must not report p99 > max.
        let h = LatencyHistogram::new();
        h.record_us(9);
        h.record_us(9);
        let stats = h.stats();
        assert_eq!(stats.max_us, 9);
        assert_eq!(stats.p99_us, 9, "upper edge must clamp to the observed max");
        // Exact small buckets: a 5µs sample reports exactly 5µs at p-low.
        let h = LatencyHistogram::new();
        h.record_us(5);
        assert_eq!(h.stats().p50_us, 5);
    }
}
