//! The real multi-process training backend: a coordinator that spawns
//! `warplda-dist-worker` processes and drives them over loopback TCP.
//!
//! The coordinator owns a full [`WarpLda`] replica of its own. Every
//! iteration it broadcasts `RunIteration`, collects each worker's phase
//! [`Delta`](crate::protocol::Delta) (owned-entry records + partial `c_k`),
//! merges the partials, imports the records — at which point its replica *is*
//! the globally advanced state — and answers each worker with the merged
//! `c_k` plus exactly the records that worker lacks (per the shared
//! [`ShardPlan`]). The replica is therefore always inspectable
//! ([`assignments`](ProcessCluster::assignments),
//! [`topic_counts`](ProcessCluster::topic_counts)) and checkpointable without
//! touching the workers, and — by the per-entity RNG stream argument spelled
//! out in `warplda_core::warp` — bit-identical to the serial [`WarpLda`], a
//! simulated [`DistributedWarpLda`](crate::DistributedWarpLda) and an
//! in-process [`ParallelWarpLda`](warplda_core::ParallelWarpLda) run of the
//! same seed.
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
//! * **Recovery.** After every successful iteration (and the initial
//!   handshake) the coordinator captures a boundary snapshot of its replica —
//!   epoch, packed records, `c_k`; cheap in-memory copies. When a worker dies
//!   or hangs mid-iteration, [`run_iteration`](ProcessCluster::run_iteration)
//!   kills and respawns the process, replays `Setup` with the snapshot as
//!   resume state, resets every survivor to the same boundary with a
//!   `Restore` frame, and retries the iteration — up to
//!   [`max_recoveries`](ProcessClusterConfig::max_recoveries) times across
//!   the cluster's lifetime. Because every phase derives its randomness from
//!   per-entity RNG streams keyed on (seed, iteration, phase, entity), the
//!   retried iteration is **bit-identical** to the one that failed, so a
//!   recovered run converges to exactly the fault-free model.
//! * **Scripted faults.** A [`FaultPlan`](crate::FaultPlan) makes precise
//!   failures happen at precise moments (crash, hang, delay, corrupt or
//!   truncated delta) so all of the above is exercised deterministically in
//!   tests and CI instead of waiting for real crashes.
//!
//! Every receive is bounded and every failure is typed — the coordinator
//! never hangs on a dead worker.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use warplda_core::{ModelParams, Sampler, WarpLda, WarpLdaConfig};
use warplda_corpus::io::codec::CodecError;
use warplda_corpus::{Corpus, DocMajorView, WordMajorView};
use warplda_net::{write_frame, FrameBuffer, PollFrame, WireError};
use warplda_sparse::PartitionStrategy;

use crate::fault::FaultPlan;
use crate::grid::GridPartition;
use crate::plan::ShardPlan;
use crate::protocol::{
    decode_message, encode_message, Message, ResumeState, Setup, Sync, DIST_MAX_FRAME_BYTES,
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
    /// fault. Recoverable: the supervisor respawns the worker and retries.
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

/// The worker id a recoverable error names, if the error is recoverable.
fn recoverable_worker(err: &DistError) -> Option<u32> {
    match err {
        DistError::WorkerFailed { worker, .. } | DistError::WorkerHung { worker, .. } => {
            Some(*worker)
        }
        _ => None,
    }
}

/// Configuration of a [`ProcessCluster`].
#[derive(Debug, Clone)]
pub struct ProcessClusterConfig {
    /// Number of worker processes to spawn.
    pub workers: usize,
    /// Bound on every receive (and connection wait): a dead or hung worker
    /// surfaces as a typed error within this long.
    pub io_timeout: Duration,
    /// Explicit path to the `warplda-dist-worker` binary; when `None` the
    /// `WARPLDA_DIST_WORKER` environment variable is consulted, then the
    /// directories around the current executable (which covers `cargo run`,
    /// whose binaries sit in or one level below the directory the worker bin
    /// lands in — once the worker has been built into the same profile).
    pub worker_binary: Option<PathBuf>,
    /// Interval between worker heartbeats.
    pub heartbeat_interval: Duration,
    /// Heartbeat silence after which a worker mid-iteration is declared hung.
    /// Must comfortably exceed `heartbeat_interval`.
    pub liveness_timeout: Duration,
    /// Total worker recoveries the cluster will perform over its lifetime
    /// before giving up and propagating the error. Zero disables recovery:
    /// the first failure is final (the fail-fast behavior tests that assert
    /// on typed errors rely on).
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
    /// Frame bytes crossing the sockets this iteration (deltas + syncs, both
    /// directions, including length prefixes and recovery traffic).
    pub bytes_exchanged: u64,
    /// Worker recoveries performed while completing this iteration (0 on a
    /// healthy run).
    pub recoveries: u32,
}

struct Conn {
    stream: TcpStream,
    buf: FrameBuffer,
    /// When this connection last produced a frame (heartbeats included)
    /// while being waited on — the liveness clock.
    last_heard: Instant,
}

/// The coordinator replica's state at an iteration boundary: what recovery
/// rolls everything back to. Cheap to capture (two buffer copies) relative
/// to an iteration's sampling work.
struct BoundarySnapshot {
    epoch: u64,
    records: Vec<u32>,
    topic_counts: Vec<u32>,
}

/// Resolves the worker binary: the configured path, else the
/// `WARPLDA_DIST_WORKER` environment variable, else a search next to (or
/// one/two levels above) the current executable — `cargo run` binaries and
/// examples live in or below the `target/<profile>/` directory bins land in.
/// A path that names no file is an `Io` error of kind `NotFound` that says
/// how to build the binary.
fn locate_worker_binary(configured: Option<&Path>) -> Result<PathBuf, DistError> {
    let name = format!("warplda-dist-worker{}", std::env::consts::EXE_SUFFIX);
    let candidate = configured
        .map(Path::to_path_buf)
        .or_else(|| std::env::var_os("WARPLDA_DIST_WORKER").map(PathBuf::from))
        .or_else(|| {
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
                 ProcessClusterConfig::worker_binary or WARPLDA_DIST_WORKER at it",
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

/// A coordinator over `workers` spawned `warplda-dist-worker` processes.
pub struct ProcessCluster {
    sampler: WarpLda,
    grid: GridPartition,
    plan: ShardPlan,
    conns: Vec<Conn>,
    children: Vec<Child>,
    cfg: ProcessClusterConfig,
    bytes_this_iteration: u64,
    /// Kept open for the cluster's lifetime so recovery can re-accept a
    /// respawned worker's connection.
    listener: TcpListener,
    binary: PathBuf,
    /// Retained for respawn `Setup` frames (every replica holds a copy
    /// anyway).
    corpus: Corpus,
    snapshot: BoundarySnapshot,
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
    /// the checkpoint; continuation is bit-identical either way.
    pub fn from_sampler(
        corpus: &Corpus,
        sampler: WarpLda,
        cfg: ProcessClusterConfig,
    ) -> Result<Self, DistError> {
        if cfg.workers == 0 {
            return Err(DistError::Protocol("need at least one worker".into()));
        }
        let doc_view = DocMajorView::build(corpus);
        let word_view = WordMajorView::build(corpus, &doc_view);
        let grid = GridPartition::build_with(
            corpus,
            &doc_view,
            &word_view,
            cfg.workers,
            PartitionStrategy::Greedy,
            PartitionStrategy::Dynamic,
        );
        let plan = ShardPlan::build(&sampler, &grid);

        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let binary = locate_worker_binary(cfg.worker_binary.as_deref())?;

        let mut children = Vec::with_capacity(cfg.workers);
        for id in 0..cfg.workers {
            children.push(spawn_worker(&binary, &addr, id as u32)?);
        }

        let mut cluster = Self {
            sampler,
            grid,
            plan,
            conns: Vec::new(),
            children,
            cfg,
            bytes_this_iteration: 0,
            listener,
            binary,
            corpus: corpus.clone(),
            snapshot: BoundarySnapshot { epoch: 0, records: Vec::new(), topic_counts: Vec::new() },
            recoveries: 0,
        };
        match cluster.handshake() {
            Ok(()) => {
                cluster.capture_snapshot();
                Ok(cluster)
            }
            Err(e) => {
                cluster.kill_all();
                Err(e)
            }
        }
    }

    /// Accepts every worker's connection, exchanges Hello/Setup/Ready. Each
    /// step is deadline-bounded and fails fast if a child dies early.
    fn handshake(&mut self) -> Result<(), DistError> {
        let workers = self.cfg.workers;
        let deadline = Instant::now() + self.cfg.io_timeout;
        let mut slots: Vec<Option<Conn>> = (0..workers).map(|_| None).collect();
        for _ in 0..workers {
            let (worker_id, conn) = self.accept_hello(deadline)?;
            let id = worker_id as usize;
            if id >= workers || slots[id].is_some() {
                return Err(DistError::Protocol(format!(
                    "unexpected Hello from worker id {worker_id}"
                )));
            }
            slots[id] = Some(conn);
        }
        self.conns = slots.into_iter().map(|s| s.expect("all slots filled")).collect();

        for i in 0..workers {
            let resume = (self.sampler.iterations() > 0).then(|| ResumeState {
                iterations: self.sampler.iterations(),
                records: self.sampler.records_slice().to_vec(),
                topic_counts: self.sampler.topic_counts().to_vec(),
            });
            let faults = self.cfg.fault_plan.for_worker(i as u32);
            let setup = self.make_setup(i as u32, resume, faults);
            self.send(i, &setup)?;
        }
        for i in 0..workers {
            self.await_ready(i)?;
        }
        Ok(())
    }

    /// Accepts one connection and reads its `Hello`, bounded by `deadline`.
    /// Any child that exits while we wait is reported as the failure.
    fn accept_hello(&mut self, deadline: Instant) -> Result<(u32, Conn), DistError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.cfg.io_timeout))?;
                    stream.set_write_timeout(Some(self.cfg.io_timeout))?;
                    let mut conn = Conn {
                        stream,
                        buf: FrameBuffer::with_max_frame(1 << 16, DIST_MAX_FRAME_BYTES),
                        last_heard: Instant::now(),
                    };
                    return match recv_on(&mut conn)? {
                        Some(Message::Hello { worker_id }) => Ok((worker_id, conn)),
                        Some(other) => Err(DistError::Protocol(format!(
                            "expected Hello, got {}",
                            kind_of(&other)
                        ))),
                        None => Err(DistError::Protocol("worker disconnected before Hello".into())),
                    };
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

    fn make_setup(
        &self,
        worker_id: u32,
        resume: Option<ResumeState>,
        faults: Vec<crate::fault::FaultEvent>,
    ) -> Message {
        let params = *self.sampler.params();
        let config = *self.sampler.config();
        Message::Setup(Box::new(Setup {
            workers: self.cfg.workers as u32,
            worker_id,
            seed: self.sampler.seed(),
            num_topics: params.num_topics as u64,
            alpha: params.alpha,
            beta: params.beta,
            mh_steps: config.mh_steps as u64,
            use_hash_counts: config.use_hash_counts,
            corpus: self.corpus.clone(),
            resume,
            heartbeat_interval_ms: self.cfg.heartbeat_interval.as_millis() as u64,
            faults,
        }))
    }

    /// Cluster size `P`.
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// The grid partition driving shard ownership.
    pub fn grid(&self) -> &GridPartition {
        &self.grid
    }

    /// Completed iterations.
    pub fn iterations(&self) -> u64 {
        self.sampler.iterations()
    }

    /// Total worker recoveries performed over the cluster's lifetime.
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

    fn send(&mut self, i: usize, msg: &Message) -> Result<(), DistError> {
        let payload = encode_message(msg);
        self.bytes_this_iteration += payload.len() as u64 + 4;
        write_frame(&mut self.conns[i].stream, &payload).map_err(|e| {
            // A worker that died mid-iteration surfaces here as a broken
            // pipe; report *which* worker instead of a bare I/O error.
            DistError::WorkerFailed { worker: i as u32, message: format!("send failed: {e}") }
        })
    }

    /// Receives the next protocol message from worker `i`, interleaving the
    /// supervision checks between short poll slices: heartbeats refresh the
    /// liveness clock and are consumed here (never surfaced), a dead child or
    /// closed connection is a typed `WorkerFailed`, heartbeat silence beyond
    /// the liveness timeout (when `liveness` is on) or a phase overrunning
    /// `io_timeout` is a typed `WorkerHung`. `liveness` is off for waits
    /// that are legitimately quiet — replica builds after `Setup`/`Restore`,
    /// which run before the worker's heartbeat thread has anything to prove.
    fn recv(&mut self, i: usize, liveness: bool) -> Result<Message, DistError> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        // The liveness clock measures silence *while watched*: heartbeats
        // that piled up in the socket buffer while the coordinator serviced
        // other workers drain on the first poll slices below.
        self.conns[i].last_heard = Instant::now();
        loop {
            let polled = {
                let conn = &mut self.conns[i];
                conn.buf.poll_frame(&mut conn.stream, POLL_SLICE)
            };
            match polled {
                Ok(PollFrame::Frame(range)) => {
                    self.bytes_this_iteration += range.len() as u64 + 4;
                    self.conns[i].last_heard = Instant::now();
                    let msg = decode_message(self.conns[i].buf.payload(range)).map_err(|e| {
                        DistError::WorkerFailed {
                            worker: i as u32,
                            message: format!("malformed frame: {e}"),
                        }
                    })?;
                    match msg {
                        Message::Heartbeat { .. } => continue,
                        Message::Fault { worker_id, message } => {
                            return Err(DistError::WorkerFailed { worker: worker_id, message })
                        }
                        msg => return Ok(msg),
                    }
                }
                Ok(PollFrame::Idle) => {
                    if let Some(status) = self.children[i].try_wait()? {
                        return Err(DistError::WorkerFailed {
                            worker: i as u32,
                            message: format!("process exited: {status}"),
                        });
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
                Ok(PollFrame::Eof) => {
                    return Err(DistError::WorkerFailed {
                        worker: i as u32,
                        message: "connection closed unexpectedly".into(),
                    })
                }
                Err(e) => {
                    // Everything the wire can throw on one worker's
                    // connection — mid-frame truncation, an oversized length
                    // prefix, a socket error — is that worker's failure and
                    // therefore recoverable.
                    return Err(DistError::WorkerFailed {
                        worker: i as u32,
                        message: format!("wire error: {e}"),
                    });
                }
            }
        }
    }

    /// Waits for worker `i`'s `Ready`, discarding stale deltas a survivor
    /// had already put on the wire before a `Restore` reached it.
    fn await_ready(&mut self, i: usize) -> Result<(), DistError> {
        loop {
            match self.recv(i, false)? {
                Message::Ready { worker_id } if worker_id as usize == i => return Ok(()),
                Message::WordDelta(_) | Message::DocDelta(_) => continue,
                other => {
                    return Err(DistError::Protocol(format!(
                        "expected Ready from worker {i}, got {}",
                        kind_of(&other)
                    )))
                }
            }
        }
    }

    /// Runs one distributed iteration: word phase (deltas in, boundary out),
    /// then doc phase, each a barrier across all workers. A worker failure
    /// mid-iteration triggers recovery — respawn, roll everyone back to the
    /// last boundary snapshot, retry — until the iteration completes or the
    /// recovery budget is exhausted. The completed iteration is bit-identical
    /// to a fault-free run.
    pub fn run_iteration(&mut self) -> Result<ProcessIterationReport, DistError> {
        let t0 = Instant::now();
        self.bytes_this_iteration = 0;
        let mut recovered_here = 0u32;
        loop {
            let mut err = match self.attempt_iteration() {
                Ok(()) => {
                    self.capture_snapshot();
                    return Ok(ProcessIterationReport {
                        iteration: self.sampler.iterations(),
                        wall_sec: t0.elapsed().as_secs_f64(),
                        bytes_exchanged: self.bytes_this_iteration,
                        recoveries: recovered_here,
                    });
                }
                Err(e) => e,
            };
            // Recover the failed worker; a *different* worker failing during
            // recovery feeds back into the same loop (fresh budget check,
            // fresh recovery) until recovery succeeds or the budget is gone.
            loop {
                let worker = match recoverable_worker(&err) {
                    Some(w) => w,
                    None => return Err(err),
                };
                if self.recoveries >= u64::from(self.cfg.max_recoveries) {
                    return Err(err);
                }
                self.recoveries += 1;
                recovered_here += 1;
                match self.recover(worker) {
                    Ok(()) => break,
                    Err(e) => err = e,
                }
            }
        }
    }

    /// One try at an iteration; leaves the replica mid-state on failure (the
    /// caller rolls back via the boundary snapshot).
    fn attempt_iteration(&mut self) -> Result<(), DistError> {
        let epoch = self.sampler.iterations();
        let k = self.sampler.params().num_topics;
        for i in 0..self.workers() {
            self.send(i, &Message::RunIteration { epoch })?;
        }

        for phase in [Phase::Word, Phase::Doc] {
            let mut merged = vec![0u32; k];
            for i in 0..self.workers() {
                let delta = match (phase, self.recv(i, true)?) {
                    (Phase::Word, Message::WordDelta(d)) => d,
                    (Phase::Doc, Message::DocDelta(d)) => d,
                    (_, other) => {
                        return Err(DistError::Protocol(format!(
                            "expected {phase:?} delta from worker {i}, got {}",
                            kind_of(&other)
                        )))
                    }
                };
                if delta.worker_id != i as u32 || delta.epoch != epoch {
                    return Err(DistError::Protocol(format!(
                        "delta from worker {} for epoch {} on worker {i}'s connection at \
                         epoch {epoch}",
                        delta.worker_id, delta.epoch
                    )));
                }
                if delta.partial_ck.len() != k {
                    return Err(DistError::Codec(CodecError::Corrupt(format!(
                        "partial c_k has {} slots for K = {k}",
                        delta.partial_ck.len()
                    ))));
                }
                for (m, &p) in merged.iter_mut().zip(&delta.partial_ck) {
                    *m += p;
                }
                let entries = match phase {
                    Phase::Word => &self.plan.word_delta_entries[i],
                    Phase::Doc => &self.plan.doc_delta_entries[i],
                };
                self.sampler.import_records(entries, &delta.records)?;
            }
            self.sampler.install_topic_counts(&merged);
            for i in 0..self.workers() {
                let entries = match phase {
                    Phase::Word => &self.plan.word_sync_entries[i],
                    Phase::Doc => &self.plan.doc_sync_entries[i],
                };
                let mut records = Vec::new();
                self.sampler.export_records(entries, &mut records);
                let sync = Sync { epoch, topic_counts: merged.clone(), records };
                let msg = match phase {
                    Phase::Word => Message::WordSync(sync),
                    Phase::Doc => Message::DocSync(sync),
                };
                self.send(i, &msg)?;
            }
        }

        self.sampler.advance_iteration();
        Ok(())
    }

    fn capture_snapshot(&mut self) {
        self.snapshot = BoundarySnapshot {
            epoch: self.sampler.iterations(),
            records: self.sampler.records_slice().to_vec(),
            topic_counts: self.sampler.topic_counts().to_vec(),
        };
    }

    /// Recovers from worker `dead`'s failure: kill and reap the process
    /// (it may be hung-alive, not dead), roll the coordinator replica back
    /// to the boundary snapshot, respawn the worker with the snapshot as its
    /// resume state, and reset every survivor to the same boundary. On
    /// return the whole cluster sits at the snapshot's epoch, exactly as if
    /// the failed iteration had never started.
    fn recover(&mut self, dead: u32) -> Result<(), DistError> {
        let dead = dead as usize;
        let _ = self.children[dead].kill();
        let _ = self.children[dead].wait();

        // The failed attempt may have imported some deltas already; the
        // replica must rejoin the boundary before re-serving as the merge
        // point.
        self.sampler.restore(
            self.snapshot.epoch,
            &self.snapshot.records,
            &self.snapshot.topic_counts,
        )?;

        let addr = self.listener.local_addr()?;
        self.children[dead] = spawn_worker(&self.binary, &addr, dead as u32)?;
        let deadline = Instant::now() + self.cfg.io_timeout;
        let (hello_id, conn) = self.accept_hello(deadline)?;
        if hello_id as usize != dead {
            return Err(DistError::Protocol(format!(
                "respawned worker {dead} but worker {hello_id} connected"
            )));
        }
        self.conns[dead] = conn;

        let resume = ResumeState {
            iterations: self.snapshot.epoch,
            records: self.snapshot.records.clone(),
            topic_counts: self.snapshot.topic_counts.clone(),
        };
        // Events at or before the replay point must not ship again: the
        // crash that killed this worker would otherwise re-fire on every
        // respawn and recovery would loop until the budget ran out.
        let faults = self.cfg.fault_plan.surviving(dead as u32, self.snapshot.epoch);
        let setup = self.make_setup(dead as u32, Some(resume.clone()), faults);
        self.send(dead, &setup)?;
        self.await_ready(dead)?;

        for j in 0..self.workers() {
            if j == dead {
                continue;
            }
            // Consume whatever the survivor already put on the wire (a delta
            // for the abandoned iteration, heartbeats) before writing the
            // Restore frame: sending first against a survivor itself blocked
            // mid-delta on a full socket buffer could deadlock.
            self.drain_to_idle(j)?;
            self.send(j, &Message::Restore(resume.clone()))?;
            self.await_ready(j)?;
        }
        Ok(())
    }

    /// Discards already-buffered frames on worker `j`'s connection until the
    /// socket goes quiet. TCP's per-connection FIFO ordering makes the
    /// subsequent drain-until-`Ready` sound: anything sent before the
    /// worker's `Ready` reply is stale by definition.
    fn drain_to_idle(&mut self, j: usize) -> Result<(), DistError> {
        loop {
            let polled = {
                let conn = &mut self.conns[j];
                conn.buf.poll_frame(&mut conn.stream, Duration::from_millis(50))
            };
            match polled {
                Ok(PollFrame::Frame(range)) => {
                    let msg = decode_message(self.conns[j].buf.payload(range)).map_err(|e| {
                        DistError::WorkerFailed {
                            worker: j as u32,
                            message: format!("malformed frame: {e}"),
                        }
                    })?;
                    match msg {
                        Message::Heartbeat { .. }
                        | Message::WordDelta(_)
                        | Message::DocDelta(_) => continue,
                        Message::Fault { worker_id, message } => {
                            return Err(DistError::WorkerFailed { worker: worker_id, message })
                        }
                        other => {
                            return Err(DistError::Protocol(format!(
                                "unexpected {} from worker {j} during recovery",
                                kind_of(&other)
                            )))
                        }
                    }
                }
                Ok(PollFrame::Idle) => return Ok(()),
                Ok(PollFrame::Eof) => {
                    return Err(DistError::WorkerFailed {
                        worker: j as u32,
                        message: "connection closed unexpectedly".into(),
                    })
                }
                Err(e) => {
                    return Err(DistError::WorkerFailed {
                        worker: j as u32,
                        message: format!("wire error: {e}"),
                    })
                }
            }
        }
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
            let result =
                self.send(i, &Message::Shutdown).and_then(|()| match self.recv(i, false)? {
                    Message::Bye { .. } => Ok(()),
                    other => Err(DistError::Protocol(format!(
                        "expected Bye from worker {i}, got {}",
                        kind_of(&other)
                    ))),
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Word,
    Doc,
}

/// Receives one message on a connection; `Ok(None)` is a clean disconnect.
fn recv_on(conn: &mut Conn) -> Result<Option<Message>, DistError> {
    let Conn { stream, buf, .. } = conn;
    match buf.read_frame(stream) {
        Ok(Some(range)) => Ok(Some(decode_message(buf.payload(range))?)),
        Ok(None) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

fn kind_of(msg: &Message) -> &'static str {
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
        Message::Restore(_) => "Restore",
    }
}
