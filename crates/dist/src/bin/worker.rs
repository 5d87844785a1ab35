//! `warplda-dist-worker` — one shard of a real multi-process training run.
//!
//! Spawned by [`warplda_dist::ProcessCluster`] as
//! `warplda-dist-worker --connect 127.0.0.1:PORT --worker-id N`. The
//! coordinator binds its listener before it spawns a worker, so the worker
//! connects once, without retrying; if that connect fails the worker exits,
//! and the coordinator reports the exit as a typed error. Connected, it
//! receives the corpus and model hyperparameters in a `Setup` frame,
//! rebuilds the *same* replica and [`ShardPlan`] the coordinator holds
//! (the replica is a deterministic function of the corpus and seed, the
//! plan of the replica's matrix and the corpus's greedy grid for the worker
//! count), then serves `RunIteration` requests: advance the owned shard of a
//! phase, report a partial `c_k` plus one record segment per destination
//! worker (built in place in a reused frame buffer), and absorb the merged
//! `c_k` plus the segments the peers addressed to this worker (applied in
//! place from the receive buffer). A healthy iteration allocates nothing.
//!
//! Once `Ready` is sent, a side thread pulses `Heartbeat` frames every
//! `Setup.heartbeat_interval_ms` so the coordinator can tell a slow worker
//! from a hung one. The write half of the socket is shared behind a mutex;
//! frames are written whole under the lock so the two writers never
//! interleave bytes.
//!
//! A worker has no recovery code. When any worker fails, the coordinator
//! kills all of them and starts fresh processes through the same handshake,
//! with the boundary state as the tail of their `Setup`; per-entity RNG
//! streams make the replay bit-identical. That state is the sampler section
//! of a checkpoint, adopted through the checkpoint reader
//! ([`Checkpointable::read_state`]) where it lies in the receive buffer:
//! validated in place, copied once, into the sampler.
//!
//! Scripted faults from `Setup.faults` fire at the start of their target
//! phase: crash (exit mid-protocol), hang (stop heartbeats and stall), delay
//! (stall but keep heartbeating — the supervisor must *not* kill us), or
//! corrupt/truncate the next delta frame.
//!
//! Every protocol violation or decode failure is reported back as a `Fault`
//! frame (best effort) before exiting non-zero, so the coordinator gets a
//! typed error instead of a silent hang.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use warplda_core::checkpoint::Checkpointable;
use warplda_core::{topic_wire_width, ModelParams, Sampler, WarpLda, WarpLdaConfig};
use warplda_corpus::io::codec::Decoder;
use warplda_corpus::Corpus;
use warplda_dist::fault::{FaultAction, FaultPhase, FaultTimeline};
use warplda_dist::plan::ShardPlan;
use warplda_dist::protocol::{
    begin_delta_frame, decode_message, encode_message, Message, Setup, DIST_MAX_FRAME_BYTES,
};
use warplda_dist::GridPartition;
use warplda_net::{write_frame, FrameBuffer};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

fn main() {
    let (addr, worker_id) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("warplda-dist-worker: {e}");
            eprintln!("usage: warplda-dist-worker --connect HOST:PORT --worker-id N");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&addr, worker_id) {
        eprintln!("warplda-dist-worker {worker_id}: {e}");
        std::process::exit(1);
    }
}

fn parse_args() -> Result<(String, u32)> {
    let mut addr = None;
    let mut worker_id = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => addr = Some(args.next().ok_or("--connect needs HOST:PORT")?),
            "--worker-id" => {
                let raw = args.next().ok_or("--worker-id needs a number")?;
                worker_id = Some(raw.parse::<u32>().map_err(|e| format!("bad worker id: {e}"))?);
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    Ok((addr.ok_or("missing --connect")?, worker_id.ok_or("missing --worker-id")?))
}

/// The write half of the coordinator link, shared with the heartbeat thread.
#[derive(Clone)]
struct SharedWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl SharedWriter {
    fn lock(&self) -> std::sync::MutexGuard<'_, TcpStream> {
        self.stream.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn send(&self, msg: &Message<'_>) -> Result<()> {
        let payload = encode_message(msg);
        write_frame(&mut *self.lock(), &payload)?;
        Ok(())
    }

    /// Writes an already-framed message (length prefix included).
    fn send_framed(&self, frame: &[u8]) -> Result<()> {
        self.lock().write_all(frame)?;
        Ok(())
    }
}

/// The read half, owned by the protocol loop.
struct Reader {
    stream: TcpStream,
    buf: FrameBuffer,
}

impl Reader {
    /// The next frame's payload, valid until the next call.
    fn recv(&mut self) -> Result<&[u8]> {
        match self.buf.read_frame(&mut self.stream)? {
            Some(range) => Ok(self.buf.payload(range)),
            None => Err("coordinator closed the connection".into()),
        }
    }
}

/// The heartbeat side thread: pulses until stopped or the socket dies.
struct Heartbeat {
    stop: mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(writer: SharedWriter, worker_id: u32, interval: Duration) -> Self {
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            // Parked until an interval passes (pulse) or `stop` wakes it
            // (exit), so stopping never waits an interval out.
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                // A send failure means the coordinator is gone; the protocol
                // loop will notice on its own.
                if writer.send(&Message::Heartbeat { worker_id }).is_err() {
                    break;
                }
            }
        });
        Self { stop, handle: Some(handle) }
    }

    fn stop(&self) {
        // The thread may be gone already (dead socket); nothing to wake then.
        let _ = self.stop.send(());
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn run(addr: &str, worker_id: u32) -> Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // If the coordinator hangs (rather than dying, which shows up as EOF
    // immediately), give up instead of lingering as an orphan.
    stream.set_read_timeout(Some(Duration::from_secs(300)))?;
    let reader_stream = stream.try_clone()?;
    let writer = SharedWriter { stream: Arc::new(Mutex::new(stream)) };
    let mut reader = Reader {
        stream: reader_stream,
        buf: FrameBuffer::with_max_frame(1 << 16, DIST_MAX_FRAME_BYTES),
    };

    writer.send(&Message::Hello { worker_id })?;
    // The setup borrows its state tail from the receive buffer, so everything
    // that needs it happens before the next frame is read.
    let setup = match decode_message(reader.recv()?)? {
        Message::Setup(setup) => *setup,
        other => return Err(format!("expected Setup, got {other:?}").into()),
    };
    if setup.worker_id != worker_id {
        return Err(format!(
            "coordinator addressed worker {} on worker {worker_id}'s connection",
            setup.worker_id
        )
        .into());
    }

    let (mut sampler, plan) = build_replica(&setup)?;
    let heartbeat_interval = Duration::from_millis(setup.heartbeat_interval_ms);
    let mut faults = FaultTimeline::new(setup.faults);
    writer.send(&Message::Ready { worker_id })?;
    let heartbeat = (!heartbeat_interval.is_zero())
        .then(|| Heartbeat::start(writer.clone(), worker_id, heartbeat_interval));

    let id = worker_id as usize;
    let mut buffers = Buffers { counts: vec![0; sampler.params().num_topics], frame: Vec::new() };
    let link = Link { reader: &mut reader, writer: &writer, heartbeat: heartbeat.as_ref() };
    match serve(link, &mut sampler, &plan, id, &mut faults, &mut buffers) {
        Ok(()) => {
            if let Some(hb) = &heartbeat {
                hb.stop();
            }
            writer.send(&Message::Bye { worker_id })?;
            Ok(())
        }
        Err(e) => {
            // Best effort: give the coordinator a typed Fault before dying.
            let _ = writer.send(&Message::Fault { worker_id, message: e.to_string() });
            Err(e)
        }
    }
}

/// Rebuilds the replica from the `Setup` payload, adopting its state tail
/// when present, and the exchange plan from the replica's matrix and the
/// corpus's cluster grid: the inputs the coordinator's plan comes from.
fn build_replica(setup: &Setup<'_>) -> Result<(WarpLda, ShardPlan)> {
    let corpus: &Corpus = &setup.corpus;
    let params = ModelParams::new(setup.num_topics as usize, setup.alpha, setup.beta);
    let config =
        WarpLdaConfig { mh_steps: setup.mh_steps as usize, use_hash_counts: setup.use_hash_counts };
    let grid = GridPartition::for_cluster(corpus, setup.workers as usize);
    let mut sampler = WarpLda::new(corpus, params, config, setup.seed);
    if let Some(state) = setup.resume {
        adopt(&mut sampler, state)?;
    }
    let plan = ShardPlan::build(&sampler, &grid);
    Ok((sampler, plan))
}

/// The connection as the iteration loop sees it.
struct Link<'a> {
    reader: &'a mut Reader,
    writer: &'a SharedWriter,
    heartbeat: Option<&'a Heartbeat>,
}

/// What the iteration loop reuses every phase, so it never allocates.
struct Buffers {
    /// A `c_k`: the partial one going out, then the merged one coming in.
    counts: Vec<u32>,
    /// The delta frame being built, length prefix included.
    frame: Vec<u8>,
}

/// Executes a scripted fault action at its firing point. Crash and the
/// post-stall half of hang never return; delay returns after sleeping; the
/// delta-sabotage actions are returned to the caller to apply at send time.
fn execute_fault(action: FaultAction, heartbeat: Option<&Heartbeat>) -> Option<FaultAction> {
    match action {
        FaultAction::Crash => std::process::exit(9),
        FaultAction::Hang { ms } => {
            // Silence the heartbeats *first* — the point is to present as
            // alive-but-stuck, detectable only by the liveness timeout. The
            // coordinator kills this process long before the stall ends.
            if let Some(hb) = heartbeat {
                hb.stop();
            }
            std::thread::sleep(Duration::from_millis(ms));
            std::process::exit(7);
        }
        FaultAction::Delay { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        sabotage @ (FaultAction::CorruptDelta | FaultAction::TruncateDelta) => Some(sabotage),
    }
}

/// Adopts `state` — a `Setup`'s tail — where it lies in the receive buffer,
/// through the reader every checkpoint load runs: nothing is copied until the
/// whole state validated against this replica, and the state must be the
/// whole of what was sent.
fn adopt(sampler: &mut WarpLda, state: &[u8]) -> Result<()> {
    let mut dec = Decoder::new(state);
    sampler.read_state(&mut dec)?;
    Ok(dec.finish()?)
}

/// The iteration loop: word shard → delta → sync, doc shard → delta → sync,
/// until `Shutdown`.
fn serve(
    link: Link<'_>,
    sampler: &mut WarpLda,
    plan: &ShardPlan,
    id: usize,
    faults: &mut FaultTimeline,
    buffers: &mut Buffers,
) -> Result<()> {
    let width = topic_wire_width(sampler.params().num_topics);
    loop {
        let epoch = match decode_message(link.reader.recv()?)? {
            Message::RunIteration { epoch } => epoch,
            Message::Shutdown => return Ok(()),
            other => return Err(format!("expected RunIteration or Shutdown, got {other:?}").into()),
        };
        if epoch != sampler.iterations() {
            return Err(format!(
                "coordinator asked for epoch {epoch} but this worker is at {}",
                sampler.iterations()
            )
            .into());
        }

        for phase in [FaultPhase::Word, FaultPhase::Doc] {
            let sabotage =
                faults.fire(epoch, phase).and_then(|action| execute_fault(action, link.heartbeat));

            let partial = &mut buffers.counts;
            match phase {
                FaultPhase::Word => sampler.run_word_phase_shard(&plan.owned_words[id], partial),
                FaultPhase::Doc => sampler.run_doc_phase_shard(&plan.owned_docs[id], partial),
            }
            let exchange = plan.phase(phase);
            let entries = &exchange.delta_entries[id];
            let frame = &mut buffers.frame;
            let values = entries.len() * sampler.stride();
            begin_delta_frame(frame, phase, id as u32, epoch, width, partial, values);
            sampler.export_records_packed(entries, frame);
            match sabotage {
                Some(FaultAction::CorruptDelta) => {
                    // Flip the tag byte (right after the length prefix) so
                    // the coordinator's decode fails with a typed error.
                    frame[4] ^= 0xFF;
                    link.writer.send_framed(frame)?;
                }
                Some(FaultAction::TruncateDelta) => {
                    // A full length prefix but only half the payload, then
                    // exit: the coordinator sees the connection close
                    // mid-frame.
                    link.writer.send_framed(&frame[..4 + (frame.len() - 4) / 2])?;
                    std::process::exit(4);
                }
                _ => link.writer.send_framed(frame)?,
            }

            // The boundary: the expected sync, applied where it lies.
            let payload = link.reader.recv()?;
            exchange.apply_sync(sampler, id, epoch, payload, &mut buffers.counts)?;
        }

        sampler.advance_iteration();
    }
}
