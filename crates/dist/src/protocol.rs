//! The coordinator↔worker wire protocol of multi-process training.
//!
//! Every message is one `warplda_net` frame (`u32` little-endian payload
//! length, then the payload) whose payload starts with a one-byte tag.
//! Malformed payloads surface as the same typed [`CodecError`]s the rest of
//! the workspace handles.
//!
//! A training session is:
//!
//! ```text
//! worker            coordinator
//! Hello{id}     →                  (after connecting over loopback TCP)
//!               ←  Setup{..}       (corpus, hyper-parameters, optional state to adopt)
//! Ready{id}     →                  (replica built, bit-identical start)
//! per iteration (epoch = completed iterations, a barrier per phase):
//!               ←  RunIteration{epoch}
//! WordDelta     →                  (partial c_k + one record segment per peer)
//!               ←  WordSync        (merged c_k + the segments addressed to this worker)
//! DocDelta      →                  (partial c_k + a segment per peer + the own segment)
//!               ←  DocSync
//! shutdown:
//!               ←  Shutdown
//! Bye{id}       →
//! recovery (a worker died, hung or sent a bad delta):
//!                  the coordinator kills every worker and runs the session
//!                  again from Hello, with its replica's state as Setup's tail
//! ```
//!
//! # The phase exchange is routed, not reprocessed
//!
//! Records are the only bulk data, and the coordinator moves them as bytes.
//! The [`ShardPlan`](crate::ShardPlan) orders every worker's delta as one
//! contiguous **segment** per destination worker, each in ascending entry
//! id (storage order), so the sync for worker `j`
//! is the concatenation of the segments `i → j` of all senders `i ≠ j`,
//! ascending: the coordinator writes a sync head and then those byte ranges
//! straight out of the senders' receive buffers. With `P = 2` an iteration
//! moves 2.5 records per token (word phase: the cross-owner half up and down;
//! doc phase: everything up — the coordinator's replica needs it — and the
//! cross-owner half down).
//!
//! ```text
//! payload layouts (all integers little-endian)
//!
//! delta    tag:u8  worker_id:u32  epoch:u64  counts  records
//! sync     tag:u8                 epoch:u64  counts  records
//! Setup    tag:u8  …head…  has_resume:u8  [state]
//!
//! counts   K:u64      K × u32                    (a partial or merged c_k)
//! records  width:u8   n:u64   n × width bytes    (n topic ids, stride M + 1 per entry)
//! state    what `Checkpointable::write_state` writes: the sampler section of a
//!          checkpoint file, byte for byte (seed, iteration, M, hash flag,
//!          records, c_k)
//! ```
//!
//! `width` is [`topic_wire_width`]`(K)` — 1, 2 or 4 bytes per topic — on every
//! frame of a training session; both ends derive it from `K` and refuse any
//! other value. The segment table is not on the wire: both ends compute the
//! same plan, so a frame carries only the record bytes and the plan says
//! which entries they belong to.
//!
//! **Who validates what.** The coordinator checks every delta in place
//! before a byte of it is forwarded or imported
//! ([`PhasePlan::check_delta`](crate::plan::PhasePlan::check_delta)): sender
//! id, epoch, width, record count against the plan, every topic `< K`, and
//! `Σ partial c_k` against the sender's shard. A defect is the **sender's**
//! failure, never the receiver's. Workers check a sync the same way before
//! applying it ([`PhasePlan::apply_sync`](crate::plan::PhasePlan::apply_sync)).
//! A `state` is opaque to this module: [`decode_message`] hands a `Setup`'s
//! tail on as the bytes it is, borrowed from the frame, and the worker adopts
//! them through
//! [`Checkpointable::read_state`](warplda_core::checkpoint::Checkpointable::read_state)
//! — the reader every checkpoint load runs — which checks `M`, the hash
//! flag, width, count, every id `< K` and `c_k` against the assignment
//! histogram where the bytes lie in the frame buffer, then copies the records
//! once, into the sampler. Every count on this wire passes the one length
//! rule of [`Decoder::fits`] before anything is sliced or allocated.
//!
//! The owning [`Delta`] and [`Sync`] forms use the same layouts; their
//! encoder picks the narrowest width that holds every value. They are the
//! cold/test form — the healthy path of neither process builds one.
//!
//! # Liveness and recovery
//!
//! Workers that hit an error mid-protocol send [`Message::Fault`] on a
//! best-effort basis before exiting, so the coordinator can report *why* a
//! worker died instead of just a closed connection. Workers pulse
//! [`Message::Heartbeat`] from a side thread every
//! `Setup.heartbeat_interval_ms`, which is how the coordinator tells a
//! *hung* worker (process alive, socket open, nothing flowing) from a slow
//! one. When a worker fails mid-iteration the coordinator kills every worker
//! and starts the cluster again the way it started it first: spawn, `Hello`,
//! and a `Setup` whose tail is its replica's state — always exactly the last
//! iteration boundary — then `Ready`. A state reaches a worker through that
//! one door and no other message. Because per-entity RNG streams are keyed
//! on (seed, iteration, phase, entity), the replay is bit-identical to the
//! run that failed.

use crate::fault::{read_fault_events, write_fault_events, FaultEvent, FaultPhase};
use warplda_core::topic_wire_width;
use warplda_corpus::io::codec::{
    read_corpus, write_corpus, CodecError, CodecResult, Decoder, Encoder,
};
use warplda_corpus::Corpus;

/// Frame-size bound of distributed-training connections: Setup frames carry
/// the whole corpus and a state carries the full packed records, both far
/// beyond the serving default.
pub const DIST_MAX_FRAME_BYTES: u32 = 1 << 28;

const TAG_HELLO: u8 = 1;
const TAG_SETUP: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_RUN_ITERATION: u8 = 4;
const TAG_WORD_DELTA: u8 = 5;
const TAG_WORD_SYNC: u8 = 6;
const TAG_DOC_DELTA: u8 = 7;
const TAG_DOC_SYNC: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;
const TAG_BYE: u8 = 10;
/// Tag of a [`Message::Fault`] frame.
pub const TAG_FAULT: u8 = 11;
/// Tag of a [`Message::Heartbeat`] frame.
pub const TAG_HEARTBEAT: u8 = 12;

/// Tag of the delta frame a worker sends after `phase`.
pub const fn delta_tag(phase: FaultPhase) -> u8 {
    match phase {
        FaultPhase::Word => TAG_WORD_DELTA,
        FaultPhase::Doc => TAG_DOC_DELTA,
    }
}

/// Tag of the sync frame the coordinator answers `phase`'s deltas with.
pub const fn sync_tag(phase: FaultPhase) -> u8 {
    match phase {
        FaultPhase::Word => TAG_WORD_SYNC,
        FaultPhase::Doc => TAG_DOC_SYNC,
    }
}

/// Bytes one token's record (`z` plus `M` proposals) takes on the wire.
pub fn record_wire_bytes(num_topics: usize, mh_steps: usize) -> u64 {
    (topic_wire_width(num_topics) * (mh_steps + 1)) as u64
}

/// Payload bytes of a `RunIteration` message: tag + epoch.
pub const RUN_ITERATION_BYTES: usize = 1 + 8;

/// Bytes of a `counts` block plus the `width` and `n` fields of the
/// `records` block that follows it.
const fn blocks_head_bytes(num_topics: usize) -> usize {
    8 + 4 * num_topics + 1 + 8
}

/// Payload bytes of a delta before its record bytes.
pub const fn delta_head_bytes(num_topics: usize) -> usize {
    1 + 4 + 8 + blocks_head_bytes(num_topics)
}

/// Payload bytes of a sync before its record bytes.
pub const fn sync_head_bytes(num_topics: usize) -> usize {
    1 + 8 + blocks_head_bytes(num_topics)
}

/// Everything a worker needs to build its replica: the corpus, the model, the
/// seed and (when resuming) the full sampler state to adopt.
#[derive(Debug, Clone)]
pub struct Setup<'a> {
    /// Cluster size `P`.
    pub workers: u32,
    /// This worker's id in `0..P`.
    pub worker_id: u32,
    /// Seed every replica derives its per-entity RNG streams from.
    pub seed: u64,
    /// Number of topics `K`.
    pub num_topics: u64,
    /// Dirichlet `α`.
    pub alpha: f64,
    /// Dirichlet `β`.
    pub beta: f64,
    /// MH proposals per token `M`.
    pub mh_steps: u64,
    /// [`WarpLdaConfig::use_hash_counts`](warplda_core::WarpLdaConfig::use_hash_counts):
    /// selects nothing, carried because the v4 layout has the byte.
    pub use_hash_counts: bool,
    /// The training corpus, shipped in full (every replica holds it).
    pub corpus: Corpus,
    /// Sampler state to adopt instead of the fresh random initialization: a
    /// `state` section (see the module docs), borrowed from the frame.
    pub resume: Option<&'a [u8]>,
    /// Interval between worker→coordinator heartbeats, in milliseconds.
    /// Zero disables heartbeating (single-process tests drive the protocol
    /// directly and have no liveness loop to feed).
    pub heartbeat_interval_ms: u64,
    /// Scripted fault events addressed to this worker (empty in production).
    pub faults: Vec<FaultEvent>,
}

/// A worker's phase result in owning form: the packed records of its delta
/// entries (in the deterministic plan order) plus its partial `c_k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Sender's worker id.
    pub worker_id: u32,
    /// Epoch the phase belongs to (= completed iterations when it started).
    pub epoch: u64,
    /// Packed records of the sender's delta entries, `entries × stride` words.
    pub records: Vec<u32>,
    /// The sender's partial `c_k` accumulated over its shard.
    pub partial_ck: Vec<u32>,
}

/// The coordinator's phase-boundary answer in owning form: the merged global
/// `c_k` plus the packed records of the segments addressed to the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sync {
    /// Epoch the boundary belongs to.
    pub epoch: u64,
    /// The merged global `c_k` every replica installs.
    pub topic_counts: Vec<u32>,
    /// Packed records of the receiver's sync entries, `entries × stride`.
    pub records: Vec<u32>,
}

/// One protocol message (the decoded, owning form).
#[derive(Debug, Clone)]
pub enum Message<'a> {
    /// Worker → coordinator: connection opened.
    Hello {
        /// Sender's worker id.
        worker_id: u32,
    },
    /// Coordinator → worker: build your replica.
    Setup(Box<Setup<'a>>),
    /// Worker → coordinator: replica built, ready for iterations.
    Ready {
        /// Sender's worker id.
        worker_id: u32,
    },
    /// Coordinator → worker: run iteration `epoch`.
    RunIteration {
        /// Expected completed-iterations counter on the worker.
        epoch: u64,
    },
    /// Worker → coordinator: word-phase result.
    WordDelta(Delta),
    /// Coordinator → worker: word-phase boundary.
    WordSync(Sync),
    /// Worker → coordinator: doc-phase result.
    DocDelta(Delta),
    /// Coordinator → worker: doc-phase boundary.
    DocSync(Sync),
    /// Coordinator → worker: clean shutdown.
    Shutdown,
    /// Worker → coordinator: shutting down.
    Bye {
        /// Sender's worker id.
        worker_id: u32,
    },
    /// Worker → coordinator: fatal error, best-effort before exiting.
    Fault {
        /// Sender's worker id.
        worker_id: u32,
        /// Human-readable cause.
        message: String,
    },
    /// Worker → coordinator: liveness pulse, sent on a side thread every
    /// `Setup.heartbeat_interval_ms`. Carries no protocol state; the
    /// coordinator's receive loop consumes it to refresh the worker's
    /// last-heard clock and never hands it to the state machine.
    Heartbeat {
        /// Sender's worker id.
        worker_id: u32,
    },
}

// ---------------------------------------------------------------------------
// The counts and records blocks
// ---------------------------------------------------------------------------

/// Runs `write` against an [`Encoder`] appending to `out`.
fn put(out: &mut Vec<u8>, write: impl FnOnce(&mut Encoder<'_>) -> CodecResult<()>) {
    write(&mut Encoder::new(out)).expect("encoding to a Vec cannot fail");
}

/// Writes a `counts` block and the `width`/`n` fields of the `records`
/// block that follows; the caller appends the `n × width` record bytes.
fn write_blocks_head(
    enc: &mut Encoder<'_>,
    counts: &[u32],
    width: usize,
    values: usize,
) -> CodecResult<()> {
    enc.write_u32_slice(counts)?;
    enc.write_u8(width as u8)?;
    enc.write_usize(values)
}

/// Appends `values` at `width` (1, 2 or 4) bytes each.
fn put_topics(out: &mut Vec<u8>, values: &[u32], width: usize) {
    fn put<const W: usize>(dst: &mut [u8], values: &[u32]) {
        for (slot, v) in dst.as_chunks_mut::<W>().0.iter_mut().zip(values) {
            slot.copy_from_slice(&v.to_le_bytes()[..W]);
        }
    }
    let at = out.len();
    out.resize(at + values.len() * width, 0);
    match width {
        1 => put::<1>(&mut out[at..], values),
        2 => put::<2>(&mut out[at..], values),
        _ => put::<4>(&mut out[at..], values),
    }
}

/// Appends `counts` and all of `records` at the narrowest width that holds
/// every value.
fn put_blocks(out: &mut Vec<u8>, counts: &[u32], records: &[u32]) {
    let width = topic_wire_width(records.iter().copied().max().map_or(0, |max| max as usize + 1));
    put(out, |enc| write_blocks_head(enc, counts, width, records.len()));
    put_topics(out, records, width);
}

/// A `counts` block and a `records` block, borrowed from a payload.
#[derive(Debug, Clone, Copy)]
pub struct Blocks<'a> {
    /// The `K × u32` little-endian bytes of the `c_k` vector.
    pub counts: &'a [u8],
    /// Bytes per topic of `records`, as announced by the frame.
    pub width: usize,
    /// The packed record bytes.
    pub records: &'a [u8],
}

impl<'a> Blocks<'a> {
    /// Takes the two blocks off `dec`.
    fn take(dec: &mut Decoder<'a>) -> CodecResult<Self> {
        let k = dec.read_count(4)?;
        let counts = dec.bytes(4 * k)?;
        let width = dec.read_u8()? as usize;
        if !matches!(width, 1 | 2 | 4) {
            return Err(CodecError::Corrupt(format!("record width {width} is not 1, 2 or 4")));
        }
        let n = dec.read_count(width)?;
        let records = dec.bytes(n * width)?;
        Ok(Self { counts, width, records })
    }

    /// The `c_k` values, in order.
    pub fn counts(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.counts.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn records_vec(&self) -> Vec<u32> {
        fn widen<const W: usize>(bytes: &[u8]) -> Vec<u32> {
            let widen = |b: &[u8; W]| {
                let mut word = [0u8; 4];
                word[..W].copy_from_slice(b);
                u32::from_le_bytes(word)
            };
            bytes.as_chunks::<W>().0.iter().map(widen).collect()
        }
        match self.width {
            1 => widen::<1>(self.records),
            2 => widen::<2>(self.records),
            _ => widen::<4>(self.records),
        }
    }
}

// ---------------------------------------------------------------------------
// Phase frames, in place (the healthy path of both processes)
// ---------------------------------------------------------------------------

/// Starts a complete delta **frame** in `out` (cleared first): the length
/// prefix, the head, `partial_ck` and the record count. The caller appends
/// exactly `values × width` record bytes.
pub fn begin_delta_frame(
    out: &mut Vec<u8>,
    phase: FaultPhase,
    worker_id: u32,
    epoch: u64,
    width: usize,
    partial_ck: &[u32],
    values: usize,
) {
    out.clear();
    put(out, |enc| {
        enc.write_u32((delta_head_bytes(partial_ck.len()) + values * width) as u32)?;
        enc.write_u8(delta_tag(phase))?;
        enc.write_u32(worker_id)?;
        enc.write_u64(epoch)?;
        write_blocks_head(enc, partial_ck, width, values)
    });
}

/// Starts a complete sync **frame** in `out` (cleared first), as
/// [`begin_delta_frame`] does for deltas.
pub fn begin_sync_frame(
    out: &mut Vec<u8>,
    phase: FaultPhase,
    epoch: u64,
    width: usize,
    merged_ck: &[u32],
    values: usize,
) {
    out.clear();
    put(out, |enc| {
        enc.write_u32((sync_head_bytes(merged_ck.len()) + values * width) as u32)?;
        enc.write_u8(sync_tag(phase))?;
        enc.write_u64(epoch)?;
        write_blocks_head(enc, merged_ck, width, values)
    });
}

/// A delta payload parsed in place.
#[derive(Debug, Clone, Copy)]
pub struct DeltaView<'a> {
    /// The phase the tag names.
    pub phase: FaultPhase,
    /// Sender's worker id.
    pub worker_id: u32,
    /// Epoch the phase belongs to.
    pub epoch: u64,
    /// The partial `c_k` and the record bytes.
    pub blocks: Blocks<'a>,
}

/// A sync payload parsed in place.
#[derive(Debug, Clone, Copy)]
pub struct SyncView<'a> {
    /// The phase the tag names.
    pub phase: FaultPhase,
    /// Epoch the boundary belongs to.
    pub epoch: u64,
    /// The merged `c_k` and the record bytes.
    pub blocks: Blocks<'a>,
}

/// Parses a delta payload without copying it. Anything but a well-formed
/// delta — wrong tag, short or trailing bytes, a bad width — is a typed
/// error.
pub fn parse_delta(payload: &[u8]) -> CodecResult<DeltaView<'_>> {
    let mut dec = Decoder::new(payload);
    let phase = match dec.read_u8()? {
        TAG_WORD_DELTA => FaultPhase::Word,
        TAG_DOC_DELTA => FaultPhase::Doc,
        other => return Err(CodecError::Corrupt(format!("tag {other:#04x} is not a delta"))),
    };
    let worker_id = dec.read_u32()?;
    let epoch = dec.read_u64()?;
    let blocks = Blocks::take(&mut dec)?;
    dec.finish()?;
    Ok(DeltaView { phase, worker_id, epoch, blocks })
}

/// Parses a sync payload without copying it; the mirror of [`parse_delta`].
pub fn parse_sync(payload: &[u8]) -> CodecResult<SyncView<'_>> {
    let mut dec = Decoder::new(payload);
    let phase = match dec.read_u8()? {
        TAG_WORD_SYNC => FaultPhase::Word,
        TAG_DOC_SYNC => FaultPhase::Doc,
        other => return Err(CodecError::Corrupt(format!("tag {other:#04x} is not a sync"))),
    };
    let epoch = dec.read_u64()?;
    let blocks = Blocks::take(&mut dec)?;
    dec.finish()?;
    Ok(SyncView { phase, epoch, blocks })
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

/// Encodes a `Setup` payload up to and including its `has_resume` flag,
/// ignoring `setup.resume`: with `resuming` set, the payload is completed by
/// appending a `state` section.
pub fn encode_setup_head(setup: &Setup<'_>, resuming: bool) -> Vec<u8> {
    let mut out = Vec::new();
    put(&mut out, |enc| write_setup_head(enc, setup, resuming));
    out
}

fn write_setup_head(enc: &mut Encoder<'_>, setup: &Setup<'_>, resuming: bool) -> CodecResult<()> {
    enc.write_u8(TAG_SETUP)?;
    enc.write_u32(setup.workers)?;
    enc.write_u32(setup.worker_id)?;
    enc.write_u64(setup.seed)?;
    enc.write_u64(setup.num_topics)?;
    enc.write_f64(setup.alpha)?;
    enc.write_f64(setup.beta)?;
    enc.write_u64(setup.mh_steps)?;
    enc.write_bool(setup.use_hash_counts)?;
    write_corpus(enc, &setup.corpus)?;
    enc.write_u64(setup.heartbeat_interval_ms)?;
    write_fault_events(enc, &setup.faults)?;
    enc.write_bool(resuming)
}

/// Reads a `Setup` body. A `state` tail is the rest of the frame, whatever
/// it holds: only the sampler it is for can tell whether it is one.
fn read_setup<'a>(dec: &mut Decoder<'a>) -> CodecResult<Setup<'a>> {
    // Field initializers run top to bottom: this is the wire order.
    Ok(Setup {
        workers: dec.read_u32()?,
        worker_id: dec.read_u32()?,
        seed: dec.read_u64()?,
        num_topics: dec.read_u64()?,
        alpha: dec.read_f64()?,
        beta: dec.read_f64()?,
        mh_steps: dec.read_u64()?,
        use_hash_counts: dec.read_bool()?,
        corpus: read_corpus(dec)?,
        heartbeat_interval_ms: dec.read_u64()?,
        faults: read_fault_events(dec)?,
        resume: if dec.read_bool()? { Some(dec.rest()) } else { None },
    })
}

// ---------------------------------------------------------------------------
// Owning encode / decode
// ---------------------------------------------------------------------------

/// Encodes a message into a frame payload (send it with
/// [`warplda_net::write_frame`]).
pub fn encode_message(msg: &Message<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_message_into(msg, &mut out);
    out
}

/// Appends the payload of `msg` to `out`; [`encode_message`] into a buffer
/// the caller reuses.
pub fn encode_message_into(msg: &Message<'_>, out: &mut Vec<u8>) {
    let tagged_id = |out: &mut Vec<u8>, tag: u8, worker_id: u32| {
        put(out, |enc| {
            enc.write_u8(tag)?;
            enc.write_u32(worker_id)
        })
    };
    let delta = |out: &mut Vec<u8>, phase, d: &Delta| {
        tagged_id(out, delta_tag(phase), d.worker_id);
        put(out, |enc| enc.write_u64(d.epoch));
        put_blocks(out, &d.partial_ck, &d.records);
    };
    let sync = |out: &mut Vec<u8>, phase, s: &Sync| {
        out.push(sync_tag(phase));
        put(out, |enc| enc.write_u64(s.epoch));
        put_blocks(out, &s.topic_counts, &s.records);
    };
    match msg {
        Message::Hello { worker_id } => tagged_id(out, TAG_HELLO, *worker_id),
        Message::Setup(s) => {
            put(out, |enc| write_setup_head(enc, s, s.resume.is_some()));
            out.extend_from_slice(s.resume.unwrap_or_default());
        }
        Message::Ready { worker_id } => tagged_id(out, TAG_READY, *worker_id),
        Message::RunIteration { epoch } => {
            out.push(TAG_RUN_ITERATION);
            put(out, |enc| enc.write_u64(*epoch));
        }
        Message::WordDelta(d) => delta(out, FaultPhase::Word, d),
        Message::WordSync(s) => sync(out, FaultPhase::Word, s),
        Message::DocDelta(d) => delta(out, FaultPhase::Doc, d),
        Message::DocSync(s) => sync(out, FaultPhase::Doc, s),
        Message::Shutdown => out.push(TAG_SHUTDOWN),
        Message::Bye { worker_id } => tagged_id(out, TAG_BYE, *worker_id),
        Message::Fault { worker_id, message } => {
            tagged_id(out, TAG_FAULT, *worker_id);
            put(out, |enc| enc.write_str(message));
        }
        Message::Heartbeat { worker_id } => tagged_id(out, TAG_HEARTBEAT, *worker_id),
    }
}

/// Decodes one frame payload. Unknown tags and trailing bytes are typed
/// [`CodecError::Corrupt`] — the rejection gate for malformed frames. A
/// `state` section is not decoded here: `Setup.resume` borrows it from
/// `payload` for the sampler's own reader.
pub fn decode_message(payload: &[u8]) -> CodecResult<Message<'_>> {
    let owned_delta = || {
        let d = parse_delta(payload)?;
        Ok(Delta {
            worker_id: d.worker_id,
            epoch: d.epoch,
            records: d.blocks.records_vec(),
            partial_ck: d.blocks.counts().collect(),
        })
    };
    let owned_sync = || {
        let s = parse_sync(payload)?;
        Ok(Sync {
            epoch: s.epoch,
            topic_counts: s.blocks.counts().collect(),
            records: s.blocks.records_vec(),
        })
    };
    let mut dec = Decoder::new(payload);
    let msg = match dec.read_u8()? {
        TAG_WORD_DELTA => return owned_delta().map(Message::WordDelta),
        TAG_DOC_DELTA => return owned_delta().map(Message::DocDelta),
        TAG_WORD_SYNC => return owned_sync().map(Message::WordSync),
        TAG_DOC_SYNC => return owned_sync().map(Message::DocSync),
        TAG_SETUP => Message::Setup(Box::new(read_setup(&mut dec)?)),
        TAG_HELLO => Message::Hello { worker_id: dec.read_u32()? },
        TAG_READY => Message::Ready { worker_id: dec.read_u32()? },
        TAG_RUN_ITERATION => Message::RunIteration { epoch: dec.read_u64()? },
        TAG_SHUTDOWN => Message::Shutdown,
        TAG_BYE => Message::Bye { worker_id: dec.read_u32()? },
        TAG_FAULT => {
            Message::Fault { worker_id: dec.read_u32()?, message: dec.read_str()?.to_owned() }
        }
        TAG_HEARTBEAT => Message::Heartbeat { worker_id: dec.read_u32()? },
        other => return Err(CodecError::Corrupt(format!("unknown message tag {other:#04x}"))),
    };
    dec.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::{Document, Vocabulary};

    fn tiny_corpus() -> Corpus {
        let mut vocab = Vocabulary::new();
        for w in ["a", "b", "c"] {
            vocab.intern(w);
        }
        Corpus::from_parts(
            vec![Document::from_tokens(vec![0, 1, 2, 1]), Document::from_tokens(vec![2, 0])],
            vocab,
        )
        .unwrap()
    }

    fn setup(resume: Option<&[u8]>) -> Message<'_> {
        Message::Setup(Box::new(Setup {
            workers: 4,
            worker_id: 2,
            seed: 0xFEED,
            num_topics: 12,
            alpha: 0.5,
            beta: 0.01,
            mh_steps: 2,
            use_hash_counts: true,
            corpus: tiny_corpus(),
            resume,
            heartbeat_interval_ms: 250,
            faults: vec![crate::fault::FaultEvent {
                worker: 2,
                iteration: 3,
                phase: crate::fault::FaultPhase::Doc,
                action: crate::fault::FaultAction::Hang { ms: 10_000 },
            }],
        }))
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = vec![
            Message::Hello { worker_id: 3 },
            // A state is opaque here: whatever follows the flag, to the
            // frame's end.
            setup(Some(&[7, 0, 1, 2, 1, 0, 2])),
            setup(None),
            Message::Ready { worker_id: 1 },
            Message::RunIteration { epoch: 42 },
            // One delta per record width: the encoder picks the narrowest
            // that holds every value.
            Message::WordDelta(Delta {
                worker_id: 0,
                epoch: 5,
                records: vec![1, 2, 255],
                partial_ck: vec![4, 5],
            }),
            Message::WordDelta(Delta {
                worker_id: 0,
                epoch: 5,
                records: vec![1, 256, 65_535],
                partial_ck: vec![4, 5],
            }),
            Message::DocDelta(Delta {
                worker_id: 1,
                epoch: 5,
                records: vec![65_536, u32::MAX],
                partial_ck: vec![0, u32::MAX],
            }),
            Message::WordSync(Sync { epoch: 5, topic_counts: vec![9, 9], records: vec![7] }),
            Message::DocDelta(Delta {
                worker_id: 1,
                epoch: 5,
                records: vec![],
                partial_ck: vec![0, 0],
            }),
            Message::DocSync(Sync { epoch: 5, topic_counts: vec![1], records: vec![] }),
            Message::Shutdown,
            Message::Bye { worker_id: 0 },
            Message::Fault { worker_id: 2, message: "shard went sideways".into() },
            Message::Heartbeat { worker_id: 3 },
        ];
        for msg in msgs {
            let payload = encode_message(&msg);
            let back = decode_message(&payload).unwrap();
            match (&msg, &back) {
                (Message::Hello { worker_id: a }, Message::Hello { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (Message::Setup(a), Message::Setup(b)) => {
                    assert_eq!(a.workers, b.workers);
                    assert_eq!(a.worker_id, b.worker_id);
                    assert_eq!(a.seed, b.seed);
                    assert_eq!(a.num_topics, b.num_topics);
                    assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
                    assert_eq!(a.beta.to_bits(), b.beta.to_bits());
                    assert_eq!(a.mh_steps, b.mh_steps);
                    assert_eq!(a.use_hash_counts, b.use_hash_counts);
                    assert_eq!(a.corpus.num_tokens(), b.corpus.num_tokens());
                    assert_eq!(a.resume, b.resume);
                    assert_eq!(a.heartbeat_interval_ms, b.heartbeat_interval_ms);
                    assert_eq!(a.faults, b.faults);
                }
                (Message::Ready { worker_id: a }, Message::Ready { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (Message::RunIteration { epoch: a }, Message::RunIteration { epoch: b }) => {
                    assert_eq!(a, b)
                }
                (Message::WordDelta(a), Message::WordDelta(b)) => assert_eq!(a, b),
                (Message::WordSync(a), Message::WordSync(b)) => assert_eq!(a, b),
                (Message::DocDelta(a), Message::DocDelta(b)) => assert_eq!(a, b),
                (Message::DocSync(a), Message::DocSync(b)) => assert_eq!(a, b),
                (Message::Shutdown, Message::Shutdown) => {}
                (Message::Bye { worker_id: a }, Message::Bye { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (
                    Message::Fault { worker_id: a, message: am },
                    Message::Fault { worker_id: b, message: bm },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(am, bm);
                }
                (Message::Heartbeat { worker_id: a }, Message::Heartbeat { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (sent, got) => panic!("message kind changed in flight: {sent:?} -> {got:?}"),
            }
        }
    }

    #[test]
    fn in_place_frames_are_the_owning_forms_wire_layout() {
        // A frame built with begin_delta_frame + raw record bytes decodes to
        // the owning Delta, and its size is the closed form the byte counter
        // is tested against.
        let (k, values) = (300usize, [7u32, 299, 0, 256]);
        let partial: Vec<u32> = (0..k as u32).collect();
        let width = topic_wire_width(k);
        assert_eq!(width, 2);
        let mut frame = Vec::new();
        begin_delta_frame(&mut frame, FaultPhase::Doc, 3, 11, width, &partial, values.len());
        put_topics(&mut frame, &values, width);
        let payload = &frame[4..];
        assert_eq!(u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize, payload.len());
        assert_eq!(payload.len(), delta_head_bytes(k) + values.len() * width);
        match decode_message(payload).unwrap() {
            Message::DocDelta(d) => {
                assert_eq!((d.worker_id, d.epoch), (3, 11));
                assert_eq!(d.records, values);
                assert_eq!(d.partial_ck, partial);
            }
            other => panic!("expected DocDelta, got {other:?}"),
        }

        begin_sync_frame(&mut frame, FaultPhase::Word, 11, width, &partial, values.len());
        put_topics(&mut frame, &values, width);
        assert_eq!(frame.len() - 4, sync_head_bytes(k) + values.len() * width);
        let view = parse_sync(&frame[4..]).unwrap();
        assert_eq!((view.phase, view.epoch, view.blocks.width), (FaultPhase::Word, 11, 2));
        assert!(view.blocks.counts().eq(partial.iter().copied()));
        assert_eq!(record_wire_bytes(k, 2), 6);
        assert_eq!(RUN_ITERATION_BYTES, encode_message(&Message::RunIteration { epoch: 1 }).len());
    }

    #[test]
    fn malformed_payloads_are_typed_codec_errors() {
        let corrupt = |payload: &[u8]| match decode_message(payload) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt for {payload:?}, got {other:?}"),
        };
        // Empty payload, unknown tag.
        corrupt(&[]);
        corrupt(&[0xEE]);
        // Truncated delta: announced lengths larger than the payload.
        let delta = encode_message(&Message::WordDelta(Delta {
            worker_id: 0,
            epoch: 1,
            records: vec![1, 2, 3, 4],
            partial_ck: vec![1],
        }));
        corrupt(&delta[..delta.len() - 2]);
        // Trailing garbage after well-formed messages.
        for msg in [Message::Shutdown, Message::Ready { worker_id: 1 }] {
            let mut payload = encode_message(&msg);
            payload.push(0);
            corrupt(&payload);
        }
        let mut payload = delta.clone();
        payload.push(0);
        corrupt(&payload);
        // A width byte outside {1, 2, 4}; a record count that overflows.
        let width_at = 1 + 4 + 8 + 8 + 4;
        let mut payload = delta.clone();
        assert_eq!(payload[width_at], 1);
        payload[width_at] = 3;
        corrupt(&payload);
        let mut payload = delta;
        payload[width_at + 1..width_at + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        corrupt(&payload);
        // A vocabulary, document or fault-event count the frame does not
        // hold. Regression: the first used to reach `Vocabulary::with_capacity`
        // unchecked and panic with "capacity overflow".
        let valid = encode_message(&setup(None));
        let vocab_at = 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 1;
        let docs_at = vocab_at + 8 + 3 * (8 + 1);
        let faults_at = valid.len() - 1 - 22 - 4;
        for (at, huge) in [
            (vocab_at, &(1u64 << 60).to_le_bytes()[..]),
            (vocab_at, &u64::MAX.to_le_bytes()[..]),
            (docs_at, &(1u64 << 60).to_le_bytes()[..]),
            (faults_at, &u32::MAX.to_le_bytes()[..]),
        ] {
            let mut payload = valid.clone();
            payload[at..at + huge.len()].copy_from_slice(huge);
            corrupt(&payload);
        }
        assert_eq!(valid[docs_at..docs_at + 8], 2u64.to_le_bytes(), "the document count");
        assert_eq!(valid[faults_at..faults_at + 4], 1u32.to_le_bytes(), "the fault count");
    }
}
