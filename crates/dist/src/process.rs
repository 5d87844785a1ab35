//! The real multi-process training backend: a coordinator that spawns
//! `warplda-dist-worker` processes and drives them over loopback TCP.
//!
//! The coordinator **routes** the phase exchange rather than reprocessing
//! it. Every iteration it broadcasts `RunIteration` and, per phase, collects
//! each worker's delta frame (partial `c_k` plus one record segment per
//! destination worker, per the shared [`ShardPlan`]), validates it in place
//! as it arrives, sums the partial `c_k`, and answers each worker with a sync
//! head, the merged `c_k` and the segments addressed to it — byte ranges
//! written straight out of the senders' receive buffers (see
//! [`protocol`](crate::protocol) for the layouts). No record is decoded on
//! that path and, after warm-up, nothing is allocated.
//!
//! The coordinator also owns a full [`WarpLda`] replica, and **the replica is
//! the snapshot**: it is not touched at the word boundary, and at the doc
//! boundary it absorbs the workers' doc deltas (which carry every record)
//! only after all of them validated and every sync was written. A failed
//! attempt therefore never leaves a mark on it — it is always exactly the
//! last iteration boundary, inspectable
//! ([`assignments`](ProcessCluster::assignments),
//! [`topic_counts`](ProcessCluster::topic_counts)) and checkpointable without
//! touching the workers, and — by the per-entity RNG stream argument spelled
//! out in `warplda_core::warp` — bit-identical to the serial [`WarpLda`] and
//! an in-process [`ParallelWarpLda`](warplda_core::ParallelWarpLda) run of
//! the same seed.
//!
//! # Supervision
//!
//! The coordinator is also a supervisor. Three mechanisms stack:
//!
//! * **Liveness.** Workers pulse `Heartbeat` frames from a side thread every
//!   [`heartbeat_interval`](ProcessClusterConfig::heartbeat_interval). While
//!   waiting on a worker the coordinator polls in short slices, so it can
//!   distinguish a *dead* process (child exited / connection closed → typed
//!   [`DistError::WorkerFailed`]) from a *hung* one (process alive, socket
//!   open, no heartbeats for
//!   [`liveness_timeout`](ProcessClusterConfig::liveness_timeout), or a phase
//!   running past the overall `io_timeout` → typed
//!   [`DistError::WorkerHung`]). A slow worker that keeps heartbeating is
//!   *not* declared hung.
//! * **Recovery.** When a worker dies, hangs or sends a delta that does not
//!   validate, [`run_iteration`](ProcessCluster::run_iteration) kills and
//!   reaps **every** worker, restarts the cluster through the start-up
//!   handshake — spawn, `Hello`, a `Setup` whose tail is the replica's state
//!   (the bytes [`write_state`](Checkpointable::write_state) puts in a
//!   checkpoint), `Ready` — and retries the iteration, up to
//!   [`max_recoveries`](ProcessClusterConfig::max_recoveries) restarts across
//!   the cluster's lifetime. Because every phase derives its randomness from
//!   per-entity RNG streams keyed on (seed, iteration, phase, entity), the
//!   retried iteration is **bit-identical** to the one that failed, so a
//!   recovered run converges to exactly the fault-free model. Workers adopt
//!   the state through [`read_state`](Checkpointable::read_state), where it
//!   lies in their frame buffer: recovery has no message, no format and no
//!   reader of its own. It runs the code every cluster start runs.
//! * **Scripted faults.** A [`FaultPlan`] makes precise
//!   failures happen at precise moments (crash, hang, delay, corrupt or
//!   truncated delta) so all of the above is exercised deterministically in
//!   tests and CI instead of waiting for real crashes.
//!
//! Every receive is bounded and every failure is typed — the coordinator
//! never hangs on a dead worker.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use warplda_core::checkpoint::Checkpointable;
use warplda_core::{topic_wire_width, ModelParams, Sampler, WarpLda, WarpLdaConfig};
use warplda_corpus::io::codec::{CodecError, Encoder};
use warplda_corpus::Corpus;
use warplda_net::{FrameBuffer, PollFrame, WireError};

use crate::fault::{FaultEvent, FaultPhase, FaultPlan};
use crate::grid::GridPartition;
use crate::plan::ShardPlan;
use crate::protocol::{
    begin_sync_frame, decode_message, delta_tag, encode_message_into, encode_setup_head, Message,
    Setup, DIST_MAX_FRAME_BYTES, TAG_FAULT, TAG_HEARTBEAT,
};

/// How long one poll slice waits before the liveness checks interleave.
const POLL_SLICE: Duration = Duration::from_millis(15);

/// Errors of the multi-process runtime.
#[derive(Debug)]
pub enum DistError {
    /// An underlying I/O error (spawn failure, socket error, …).
    Io(std::io::Error),
    /// A framing error on a worker connection.
    Wire(WireError),
    /// A payload that decoded to something structurally invalid.
    Codec(CodecError),
    /// The protocol state machine was violated (unexpected message, epoch
    /// mismatch, …).
    Protocol(String),
    /// A specific worker died, disconnected, sent garbage or reported a
    /// fault. Recoverable: the supervisor restarts the workers and retries.
    WorkerFailed {
        /// The worker's id.
        worker: u32,
        /// What happened.
        message: String,
    },
    /// A specific worker is alive but not making progress: no heartbeat for
    /// the liveness timeout, or a phase running past the I/O deadline.
    /// Recoverable, same as a death — but typed separately so operators can
    /// tell a crash loop from a livelock.
    WorkerHung {
        /// The worker's id.
        worker: u32,
        /// What the liveness check observed.
        message: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "I/O error: {e}"),
            DistError::Wire(e) => write!(f, "wire error: {e}"),
            DistError::Codec(e) => write!(f, "codec error: {e}"),
            DistError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DistError::WorkerFailed { worker, message } => {
                write!(f, "worker {worker} failed: {message}")
            }
            DistError::WorkerHung { worker, message } => {
                write!(f, "worker {worker} hung: {message}")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Wire(e) => Some(e),
            DistError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

impl From<CodecError> for DistError {
    fn from(e: CodecError) -> Self {
        DistError::Codec(e)
    }
}

/// Configuration of a [`ProcessCluster`].
#[derive(Debug, Clone)]
pub struct ProcessClusterConfig {
    /// Number of worker processes to spawn, 1 to 65 536.
    pub workers: usize,
    /// Bound on every receive (and connection wait): a dead or hung worker
    /// surfaces as a typed error within this long.
    pub io_timeout: Duration,
    /// Explicit path to the `warplda-dist-worker` binary; when `None` the
    /// directories around the current executable are searched (which covers
    /// `cargo run`, whose binaries sit in or one level below the directory
    /// the worker bin lands in — once the worker has been built into the same
    /// profile).
    pub worker_binary: Option<PathBuf>,
    /// Interval between worker heartbeats.
    pub heartbeat_interval: Duration,
    /// Heartbeat silence after which a worker mid-iteration is declared hung.
    /// Must comfortably exceed `heartbeat_interval`.
    pub liveness_timeout: Duration,
    /// Total recoveries the cluster will perform over its lifetime before
    /// giving up and propagating the error; one recovery is one restart of
    /// every worker, however many failed. Zero disables recovery: the first
    /// failure is final (the fail-fast behavior tests that assert on typed
    /// errors rely on).
    pub max_recoveries: u32,
    /// Scripted faults for tests and the CI smoke; empty in production.
    pub fault_plan: FaultPlan,
}

impl ProcessClusterConfig {
    /// Defaults: a 30 s I/O bound, 250 ms heartbeats with a 5 s liveness
    /// timeout, up to 3 recoveries, no scripted faults, automatic
    /// worker-binary discovery.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            io_timeout: Duration::from_secs(30),
            worker_binary: None,
            heartbeat_interval: Duration::from_millis(250),
            liveness_timeout: Duration::from_secs(5),
            max_recoveries: 3,
            fault_plan: FaultPlan::new(),
        }
    }
}

/// Accounting for one multi-process iteration.
#[derive(Debug, Clone)]
pub struct ProcessIterationReport {
    /// Iteration number, 1-based.
    pub iteration: u64,
    /// Measured wall seconds of the full iteration (compute + real loopback
    /// communication + merges, including any recovery work).
    pub wall_sec: f64,
    /// Frame bytes of protocol traffic crossing the sockets this iteration
    /// (both directions, including length prefixes and recovery traffic).
    /// Heartbeats are not counted — they are proportional to time, not to
    /// work — so a healthy iteration reports exactly
    /// [`ShardPlan::iteration_wire_bytes`].
    pub bytes_exchanged: u64,
    /// Recoveries — restarts of every worker — performed while completing
    /// this iteration (0 on a healthy run).
    pub recoveries: u32,
}

struct Conn {
    stream: TcpStream,
    buf: FrameBuffer,
    /// When this connection last produced a frame (heartbeats included)
    /// while being waited on — the liveness clock.
    last_heard: Instant,
    /// Where in `buf` the record bytes of this phase's validated delta sit,
    /// until the next frame is read.
    delta: Range<usize>,
}

impl Conn {
    /// The record bytes of this phase's validated delta.
    fn delta_records(&self) -> &[u8] {
        self.buf.payload(self.delta.clone())
    }

    /// Writes one frame whose payload is the concatenation of `parts` and
    /// returns the bytes put on the wire.
    fn send_frame(&self, parts: &[&[u8]]) -> std::io::Result<u64> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let mut stream = &self.stream;
        stream.write_all(&(len as u32).to_le_bytes())?;
        for part in parts {
            stream.write_all(part)?;
        }
        Ok(len as u64 + 4)
    }
}

fn worker_failed(worker: usize, message: String) -> DistError {
    DistError::WorkerFailed { worker: worker as u32, message }
}

/// Resolves the worker binary: the configured path, else a search next to (or
/// one/two levels above) the current executable — `cargo run` binaries and
/// examples live in or below the `target/<profile>/` directory bins land in.
/// A path that names no file is an `Io` error of kind `NotFound` that says
/// how to build the binary.
fn locate_worker_binary(configured: Option<&Path>) -> Result<PathBuf, DistError> {
    let name = format!("warplda-dist-worker{}", std::env::consts::EXE_SUFFIX);
    let candidate = configured.map(Path::to_path_buf).or_else(|| {
        let exe = std::env::current_exe().ok()?;
        exe.ancestors().skip(1).take(3).map(|dir| dir.join(&name)).find(|c| c.is_file())
    });
    match candidate {
        Some(path) if path.is_file() => Ok(path),
        missing => Err(DistError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "cannot locate the {name} binary{}; build it with `cargo build --release \
                 -p warplda-dist --bin warplda-dist-worker` (it lands in target/release/, where \
                 a caller running from the same directory finds it), or point \
                 ProcessClusterConfig::worker_binary at it",
                missing.map_or(String::new(), |p| format!(" at {}", p.display())),
            ),
        ))),
    }
}

fn spawn_worker(binary: &Path, addr: &SocketAddr, id: u32) -> std::io::Result<Child> {
    Command::new(binary)
        .arg("--connect")
        .arg(addr.to_string())
        .arg("--worker-id")
        .arg(id.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
}

/// The replica handed to [`ProcessCluster::from_sampler`] must be a sampler
/// of `corpus`: the workers build theirs from the corpus, and both ends read
/// the exchange plan off their own matrix. Checks the shape — `D`, `V`, `T`,
/// every row length and every column length — in O(D + V) after one counting
/// pass over the corpus.
fn check_replica_shape(corpus: &Corpus, sampler: &WarpLda) -> Result<(), DistError> {
    let mismatch = |what: String| {
        Err(DistError::Protocol(format!("the replica is not a sampler of the corpus: {what}")))
    };
    let corpus_shape = (corpus.num_docs(), corpus.vocab_size(), corpus.num_tokens());
    let replica_shape = (sampler.num_docs(), sampler.num_words(), sampler.num_entries() as u64);
    if corpus_shape != replica_shape {
        return mismatch(format!("(D, V, T) = {replica_shape:?}, the corpus's {corpus_shape:?}"));
    }
    for (d, doc) in corpus.iter() {
        let len = sampler.row_entry_ids(d).len();
        if len != doc.len() {
            return mismatch(format!("document {d} has {len} tokens, not {}", doc.len()));
        }
    }
    for (w, tf) in corpus.term_frequencies().into_iter().enumerate() {
        let len = sampler.col_entry_range(w as u32).len();
        if len as u64 != tf {
            return mismatch(format!("word {w} has {len} tokens, not {tf}"));
        }
    }
    Ok(())
}

/// A coordinator over `workers` spawned `warplda-dist-worker` processes.
pub struct ProcessCluster {
    sampler: WarpLda,
    grid: GridPartition,
    plan: ShardPlan,
    conns: Vec<Conn>,
    children: Vec<Child>,
    cfg: ProcessClusterConfig,
    bytes_this_iteration: u64,
    binary: PathBuf,
    /// The `Setup` every worker is sent, bar its id, faults and state tail.
    /// Holds the corpus, retained for restarts.
    setup: Setup<'static>,
    /// The `c_k` being merged at the current boundary.
    merged: Vec<u32>,
    /// Reused for control messages and sync frame heads.
    scratch: Vec<u8>,
    recoveries: u64,
}

impl ProcessCluster {
    /// Spawns the workers and trains `corpus` from a fresh random
    /// initialization (the same one every other backend derives from `seed`).
    pub fn new(
        corpus: &Corpus,
        params: ModelParams,
        config: WarpLdaConfig,
        seed: u64,
        cfg: ProcessClusterConfig,
    ) -> Result<Self, DistError> {
        Self::from_sampler(corpus, WarpLda::new(corpus, params, config, seed), cfg)
    }

    /// Spawns the workers around an existing replica — how training resumes
    /// from a checkpoint: load it into a [`WarpLda`] first, then hand
    /// it here and the workers adopt its full state before the first
    /// iteration. The worker count is free to differ from the one that wrote
    /// the checkpoint; continuation is bit-identical either way. A replica
    /// whose row and column lengths are not `corpus`'s is a
    /// [`DistError::Protocol`], before any worker is spawned.
    pub fn from_sampler(
        corpus: &Corpus,
        sampler: WarpLda,
        cfg: ProcessClusterConfig,
    ) -> Result<Self, DistError> {
        if !(1..=1 << 16).contains(&cfg.workers) {
            return Err(DistError::Protocol("need 1 to 65 536 workers".into()));
        }
        check_replica_shape(corpus, &sampler)?;
        let grid = GridPartition::for_cluster(corpus, cfg.workers);
        let plan = ShardPlan::build(&sampler, &grid);
        let binary = locate_worker_binary(cfg.worker_binary.as_deref())?;

        let (params, config) = (*sampler.params(), *sampler.config());
        let setup = Setup {
            workers: cfg.workers as u32,
            worker_id: 0,
            seed: sampler.seed(),
            num_topics: params.num_topics as u64,
            alpha: params.alpha,
            beta: params.beta,
            mh_steps: config.mh_steps as u64,
            use_hash_counts: config.use_hash_counts,
            corpus: corpus.clone(),
            resume: None,
            heartbeat_interval_ms: cfg.heartbeat_interval.as_millis() as u64,
            faults: Vec::new(),
        };
        let mut cluster = Self {
            sampler,
            grid,
            plan,
            conns: Vec::new(),
            children: Vec::new(),
            cfg,
            bytes_this_iteration: 0,
            binary,
            setup,
            merged: vec![0; params.num_topics],
            scratch: Vec::new(),
            recoveries: 0,
        };
        // On failure, dropping the cluster kills whatever was spawned.
        cluster.start(cluster.sampler.iterations() + 1)?;
        Ok(cluster)
    }

    /// Starts every worker from the replica: kills and reaps the current
    /// ones, spawns `P` fresh processes, accepts each `Hello` into its slot,
    /// sends each its `Setup` — the replica's state as the tail once an
    /// iteration has run, and the scripted events of iteration `first_event`
    /// on — and awaits every `Ready`. Each step is deadline-bounded and fails
    /// fast if a child dies early.
    fn start(&mut self, first_event: u64) -> Result<(), DistError> {
        self.kill_all();
        let workers = self.cfg.workers;
        // A fresh listener per start: no connection of a killed worker can
        // wait in its backlog.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        for id in 0..workers {
            self.children.push(spawn_worker(&self.binary, &addr, id as u32)?);
        }

        let deadline = Instant::now() + self.cfg.io_timeout;
        let mut slots: Vec<Option<Conn>> = (0..workers).map(|_| None).collect();
        for _ in 0..workers {
            let (worker_id, conn) = self.accept_hello(&listener, deadline)?;
            let id = worker_id as usize;
            if id >= workers || slots[id].is_some() {
                return Err(DistError::Protocol(format!(
                    "unexpected Hello from worker id {worker_id}"
                )));
            }
            slots[id] = Some(conn);
        }
        self.conns = slots.into_iter().map(|s| s.expect("all slots filled")).collect();

        let resume = (self.sampler.iterations() > 0).then(|| self.encode_replica());
        for i in 0..workers {
            let faults = self.cfg.fault_plan.for_worker(i as u32, first_event);
            self.send_setup(i, faults, resume.as_deref())?;
        }
        for i in 0..workers {
            self.await_ready(i)?;
        }
        Ok(())
    }

    /// Accepts one connection and reads its `Hello`, bounded by `deadline`.
    /// Any child that exits while we wait is reported as the failure.
    fn accept_hello(
        &mut self,
        listener: &TcpListener,
        deadline: Instant,
    ) -> Result<(u32, Conn), DistError> {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.cfg.io_timeout))?;
                    stream.set_write_timeout(Some(self.cfg.io_timeout))?;
                    let mut conn = Conn {
                        stream,
                        buf: FrameBuffer::with_max_frame(1 << 16, DIST_MAX_FRAME_BYTES),
                        last_heard: Instant::now(),
                        delta: 0..0,
                    };
                    return Ok((recv_hello(&mut conn)?, conn));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(DistError::Protocol(
                            "timed out waiting for a worker to connect".into(),
                        ));
                    }
                    for (i, child) in self.children.iter_mut().enumerate() {
                        if let Some(status) = child.try_wait()? {
                            return Err(DistError::WorkerFailed {
                                worker: i as u32,
                                message: format!("exited during startup: {status}"),
                            });
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The state of the replica — always exactly the last iteration boundary
    /// — as a checkpoint would hold it.
    fn encode_replica(&self) -> Vec<u8> {
        // The records and c_k, plus a head of a few dozen bytes.
        let sections = self.sampler.records_bytes().len() + 4 * self.merged.len();
        let mut state = Vec::with_capacity(sections + 64);
        self.sampler
            .write_state(&mut Encoder::new(&mut state))
            .expect("encoding to a Vec cannot fail");
        state
    }

    /// Sends worker `i` its `Setup`, with `resume` (the bytes of
    /// [`encode_replica`](Self::encode_replica)) as its tail.
    fn send_setup(
        &mut self,
        i: usize,
        faults: Vec<FaultEvent>,
        resume: Option<&[u8]>,
    ) -> Result<(), DistError> {
        self.setup.worker_id = i as u32;
        self.setup.faults = faults;
        let head = encode_setup_head(&self.setup, resume.is_some());
        self.send_parts(i, &[&head, resume.unwrap_or_default()])
    }

    /// Cluster size `P`.
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// The grid partition driving shard ownership.
    pub fn grid(&self) -> &GridPartition {
        &self.grid
    }

    /// The exchange plan the coordinator and every worker derived.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Completed iterations.
    pub fn iterations(&self) -> u64 {
        self.sampler.iterations()
    }

    /// Total recoveries performed over the cluster's lifetime; one recovery
    /// is one restart of every worker.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The OS process ids of the current worker children — what the
    /// no-zombie tests poll after dropping the cluster.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// The merged topic assignments (doc-major token order), as advanced by
    /// the workers through the last completed iteration.
    pub fn assignments(&self) -> Vec<u32> {
        self.sampler.assignments()
    }

    /// The merged global `c_k`.
    pub fn topic_counts(&self) -> &[u32] {
        self.sampler.topic_counts()
    }

    /// The coordinator's replica — checkpoint it with
    /// `warplda_core::checkpoint::write_checkpoint` to persist the cluster's
    /// state.
    pub fn sampler(&self) -> &WarpLda {
        &self.sampler
    }

    /// Writes one frame — the concatenation of `parts` — to worker `i`.
    fn send_parts(&mut self, i: usize, parts: &[&[u8]]) -> Result<(), DistError> {
        // A worker that died mid-iteration surfaces here as a broken pipe;
        // report *which* worker instead of a bare I/O error.
        let sent = self.conns[i]
            .send_frame(parts)
            .map_err(|e| worker_failed(i, format!("send failed: {e}")))?;
        self.bytes_this_iteration += sent;
        Ok(())
    }

    /// Sends a control message through the reused scratch buffer.
    fn send(&mut self, i: usize, msg: &Message<'_>) -> Result<(), DistError> {
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        encode_message_into(msg, &mut payload);
        let sent = self.send_parts(i, &[&payload]);
        self.scratch = payload;
        sent
    }

    /// Waits at most `wait` for worker `i`'s next protocol frame and returns
    /// its tag and payload range, or `None` when the worker stayed quiet.
    /// Heartbeats refresh the liveness clock and are consumed here (never
    /// surfaced, never counted as traffic); a `Fault` frame, a closed
    /// connection and everything the wire can throw on one worker's
    /// connection — mid-frame truncation, an oversized length prefix, a
    /// socket error — is that worker's failure and therefore recoverable.
    fn poll(&mut self, i: usize, wait: Duration) -> Result<Option<(u8, Range<usize>)>, DistError> {
        loop {
            let conn = &mut self.conns[i];
            let range = match conn.buf.poll_frame(&mut conn.stream, wait) {
                Ok(PollFrame::Frame(range)) => range,
                Ok(PollFrame::Idle) => return Ok(None),
                Ok(PollFrame::Eof) => {
                    return Err(worker_failed(i, "connection closed unexpectedly".into()))
                }
                Err(e) => return Err(worker_failed(i, format!("wire error: {e}"))),
            };
            conn.last_heard = Instant::now();
            let payload = conn.buf.payload(range.clone());
            match payload.first().copied() {
                Some(TAG_HEARTBEAT) => continue,
                Some(TAG_FAULT) => {
                    return Err(match decode_message(payload) {
                        Ok(Message::Fault { worker_id, message }) => {
                            DistError::WorkerFailed { worker: worker_id, message }
                        }
                        _ => worker_failed(i, "malformed Fault frame".into()),
                    })
                }
                tag => {
                    self.bytes_this_iteration += range.len() as u64 + 4;
                    // No valid tag is 0; an empty payload fails to decode.
                    return Ok(Some((tag.unwrap_or(0), range)));
                }
            }
        }
    }

    /// Receives the next protocol frame from worker `i`, interleaving the
    /// supervision checks between short poll slices: a dead child is a typed
    /// `WorkerFailed`, heartbeat silence beyond the liveness timeout (when
    /// `liveness` is on) or a phase overrunning `io_timeout` is a typed
    /// `WorkerHung`. `liveness` is off for waits that are legitimately quiet
    /// — replica builds after `Setup`, which run before the worker's
    /// heartbeat thread has anything to prove.
    fn recv_frame(&mut self, i: usize, liveness: bool) -> Result<(u8, Range<usize>), DistError> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        // The liveness clock measures silence *while watched*: heartbeats
        // that piled up in the socket buffer while the coordinator serviced
        // other workers drain on the first poll slices below.
        self.conns[i].last_heard = Instant::now();
        loop {
            if let Some(frame) = self.poll(i, POLL_SLICE)? {
                return Ok(frame);
            }
            if let Some(status) = self.children[i].try_wait()? {
                return Err(worker_failed(i, format!("process exited: {status}")));
            }
            let silence = self.conns[i].last_heard.elapsed();
            if liveness && silence > self.cfg.liveness_timeout {
                return Err(DistError::WorkerHung {
                    worker: i as u32,
                    message: format!(
                        "no heartbeat for {silence:?} (liveness timeout {:?})",
                        self.cfg.liveness_timeout
                    ),
                });
            }
            if Instant::now() > deadline {
                return Err(DistError::WorkerHung {
                    worker: i as u32,
                    message: format!("phase deadline {:?} exceeded", self.cfg.io_timeout),
                });
            }
        }
    }

    /// Decodes a control frame of worker `i` into its owning form.
    fn decode(&self, i: usize, range: Range<usize>) -> Result<Message<'_>, DistError> {
        decode_message(self.conns[i].buf.payload(range))
            .map_err(|e| worker_failed(i, format!("malformed frame: {e}")))
    }

    /// Waits for worker `i`'s `Ready`.
    fn await_ready(&mut self, i: usize) -> Result<(), DistError> {
        let (_, range) = self.recv_frame(i, false)?;
        match self.decode(i, range)? {
            Message::Ready { worker_id } if worker_id as usize == i => Ok(()),
            other => Err(DistError::Protocol(format!(
                "expected Ready from worker {i}, got {}",
                kind_of(&other)
            ))),
        }
    }

    /// Runs one distributed iteration: word phase (deltas in, boundary out),
    /// then doc phase, each a barrier across all workers. A worker failure
    /// mid-iteration triggers recovery — restart every worker from the
    /// replica's boundary, retry — until the iteration completes or the
    /// recovery budget is exhausted. The completed iteration is bit-identical
    /// to a fault-free run.
    pub fn run_iteration(&mut self) -> Result<ProcessIterationReport, DistError> {
        let t0 = Instant::now();
        self.bytes_this_iteration = 0;
        let mut recovered_here = 0u32;
        loop {
            let mut err = match self.attempt_iteration() {
                Ok(()) => {
                    return Ok(ProcessIterationReport {
                        iteration: self.sampler.iterations(),
                        wall_sec: t0.elapsed().as_secs_f64(),
                        bytes_exchanged: self.bytes_this_iteration,
                        recoveries: recovered_here,
                    });
                }
                Err(e) => e,
            };
            // A worker failing during the restart feeds back into the same
            // loop (fresh budget check, fresh restart) until a restart
            // succeeds or the budget is gone.
            loop {
                let recoverable =
                    matches!(err, DistError::WorkerFailed { .. } | DistError::WorkerHung { .. });
                if !recoverable || self.recoveries >= u64::from(self.cfg.max_recoveries) {
                    return Err(err);
                }
                self.recoveries += 1;
                recovered_here += 1;
                match self.recover() {
                    Ok(()) => break,
                    Err(e) => err = e,
                }
            }
        }
    }

    /// One try at an iteration. The replica is modified only by the very last
    /// step, which cannot fail: whatever goes wrong before it, the replica
    /// still is the boundary the iteration started from.
    fn attempt_iteration(&mut self) -> Result<(), DistError> {
        let epoch = self.sampler.iterations();
        for i in 0..self.workers() {
            self.send(i, &Message::RunIteration { epoch })?;
        }
        for phase in [FaultPhase::Word, FaultPhase::Doc] {
            self.merged.fill(0);
            for i in 0..self.workers() {
                self.absorb_delta(i, phase, epoch)?;
            }
            for j in 0..self.workers() {
                self.forward_sync(j, phase, epoch)?;
            }
        }

        // Every doc delta validated and every worker has its boundary: the
        // doc deltas carry each record exactly once, so importing them makes
        // the replica the state after this iteration.
        let width = topic_wire_width(self.merged.len());
        for (i, conn) in self.conns.iter().enumerate() {
            let entries = &self.plan.doc.delta_entries[i];
            self.sampler.import_records_packed(entries, width, conn.delta_records())?;
        }
        self.sampler.install_topic_counts(&self.merged);
        self.sampler.advance_iteration();
        Ok(())
    }

    /// Receives worker `i`'s delta of `phase` and validates it where it lies
    /// (see [`validate_delta`]), adding its partial `c_k` into the merge. The
    /// frame stays in the connection's buffer for
    /// [`forward_sync`](Self::forward_sync) to route from.
    fn absorb_delta(&mut self, i: usize, phase: FaultPhase, epoch: u64) -> Result<(), DistError> {
        let (tag, range) = self.recv_frame(i, true)?;
        if tag != delta_tag(phase) {
            let other = self.decode(i, range)?;
            return Err(DistError::Protocol(format!(
                "expected {phase:?} delta from worker {i}, got {}",
                kind_of(&other)
            )));
        }
        let payload = self.conns[i].buf.payload(range.start..range.end);
        let records =
            validate_delta(&self.sampler, &self.plan, phase, i, epoch, payload, &mut self.merged)?;
        let at = range.end - records.len();
        self.conns[i].delta = at..range.end;
        Ok(())
    }

    /// Answers worker `j` at `phase`'s boundary: a sync head with the merged
    /// `c_k`, then the segments addressed to `j`, written straight from the
    /// buffers their senders' deltas were received into.
    fn forward_sync(&mut self, j: usize, phase: FaultPhase, epoch: u64) -> Result<(), DistError> {
        let Self { conns, plan, scratch, merged, sampler, bytes_this_iteration, .. } = self;
        let plan = plan.phase(phase);
        let width = topic_wire_width(merged.len());
        let record_bytes = sampler.stride() * width;
        begin_sync_frame(scratch, phase, epoch, width, merged, plan.sync_len(j) * sampler.stride());
        let mut sent = scratch.len();
        let mut stream = &conns[j].stream;
        let mut write = |bytes: &[u8]| {
            stream.write_all(bytes).map_err(|e| worker_failed(j, format!("send failed: {e}")))
        };
        write(scratch)?;
        for from in plan.sync_sources(j) {
            let segment = plan.segment(from, j);
            let bytes = &conns[from].delta_records()
                [segment.start * record_bytes..segment.end * record_bytes];
            write(bytes)?;
            sent += bytes.len();
        }
        *bytes_this_iteration += sent as u64;
        Ok(())
    }

    /// Recovers from a failed attempt: restarts every worker from the
    /// replica. The replica needs no rollback — a failed attempt never
    /// modified it — so on return the whole cluster sits at the replica's
    /// epoch, exactly as if the failed iteration had never started, and the
    /// replay of that iteration runs with none of its scripted events.
    fn recover(&mut self) -> Result<(), DistError> {
        self.start(self.sampler.iterations() + 2)
    }

    /// Kills worker `i` outright — the fault-injection hook: the next
    /// exchange involving it returns a typed [`DistError::WorkerFailed`]
    /// (or triggers recovery, when the budget allows) instead of hanging.
    pub fn kill_worker(&mut self, i: usize) {
        let _ = self.children[i].kill();
        let _ = self.children[i].wait();
    }

    /// Clean shutdown: Shutdown → Bye on every connection, then reaps the
    /// children. Any worker that misbehaves is killed and the first error
    /// reported.
    pub fn shutdown(mut self) -> Result<(), DistError> {
        let mut first_err = None;
        for i in 0..self.conns.len() {
            let result = self.send(i, &Message::Shutdown).and_then(|()| {
                let (_, range) = self.recv_frame(i, false)?;
                match self.decode(i, range)? {
                    Message::Bye { .. } => Ok(()),
                    other => Err(DistError::Protocol(format!(
                        "expected Bye from worker {i}, got {}",
                        kind_of(&other)
                    ))),
                }
            });
            if let Err(e) = result {
                let _ = self.children[i].kill();
                first_err.get_or_insert(e);
            }
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn kill_all(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        // Best effort: never leave orphaned worker processes behind.
        self.kill_all();
    }
}

/// The coordinator's gate for the `phase` delta `payload` it received on
/// worker `sender`'s connection
/// ([`PhasePlan::check_delta`](crate::plan::PhasePlan::check_delta)):
/// returns the record bytes and adds the partial `c_k` into `merged`. Every
/// defect — including an out-of-range topic in a segment that would only be
/// forwarded to a peer — is the **sender's** recoverable failure; the
/// replica is not touched either way.
pub fn validate_delta<'a>(
    replica: &WarpLda,
    plan: &ShardPlan,
    phase: FaultPhase,
    sender: usize,
    epoch: u64,
    payload: &'a [u8],
    merged: &mut [u32],
) -> Result<&'a [u8], DistError> {
    plan.phase(phase)
        .check_delta(replica, sender, epoch, payload, merged)
        .map_err(|e| worker_failed(sender, format!("malformed delta: {e}")))
}

/// Receives the `Hello` a fresh connection opens with.
fn recv_hello(conn: &mut Conn) -> Result<u32, DistError> {
    let Conn { stream, buf, .. } = conn;
    let Some(range) = buf.read_frame(stream)? else {
        return Err(DistError::Protocol("worker disconnected before Hello".into()));
    };
    match decode_message(buf.payload(range))? {
        Message::Hello { worker_id } => Ok(worker_id),
        other => Err(DistError::Protocol(format!("expected Hello, got {}", kind_of(&other)))),
    }
}

fn kind_of(msg: &Message<'_>) -> &'static str {
    match msg {
        Message::Hello { .. } => "Hello",
        Message::Setup(_) => "Setup",
        Message::Ready { .. } => "Ready",
        Message::RunIteration { .. } => "RunIteration",
        Message::WordDelta(_) => "WordDelta",
        Message::WordSync(_) => "WordSync",
        Message::DocDelta(_) => "DocDelta",
        Message::DocSync(_) => "DocSync",
        Message::Shutdown => "Shutdown",
        Message::Bye { .. } => "Bye",
        Message::Fault { .. } => "Fault",
        Message::Heartbeat { .. } => "Heartbeat",
    }
}
