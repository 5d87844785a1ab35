//! Deterministic fault injection for the distributed runtime.
//!
//! Fault-tolerance code that is only exercised by real crashes is dead code
//! with extra steps. This module gives tests, the CI smoke and the example
//! binary a scripted way to make precise bad things happen at precise
//! moments: a [`FaultPlan`] is a list of [`FaultEvent`]s ("worker 2 crashes
//! at the start of iteration 3's doc phase", "worker 0 truncates its next
//! word delta mid-frame"). The coordinator ships each worker *its own*
//! events inside `Setup`, and the worker fires an event exactly once when
//! training reaches the scripted (iteration, phase) point.
//!
//! Determinism is the whole point: the same plan against the same seed
//! produces the same failure, the same recovery path and — because recovery
//! replays from the coordinator's replica with per-entity RNG streams — the
//! same final model, bit for bit. That makes "the cluster survived a crash" an
//! exact equality assertion instead of a flaky integration hope.
//!
//! Replay safety: a replayed iteration runs with none of its scripted events,
//! on every worker. Recovery restarts the whole cluster from the replica and
//! ships each worker only the events of later iterations
//! ([`FaultPlan::for_worker`]), so a scripted crash does not re-fire forever
//! and an event still pending elsewhere in the failed iteration is dropped
//! with it.

use warplda_corpus::io::codec::{CodecError, CodecResult, Decoder, Encoder};

/// Which half of an iteration an event fires in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Fires when the worker starts the word phase of the target iteration.
    Word,
    /// Fires when the worker starts the doc phase of the target iteration.
    Doc,
}

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The worker process exits immediately (`exit(9)`), mid-protocol. The
    /// coordinator sees a dead child / closed connection.
    Crash,
    /// The worker stops heartbeating and stalls for the given duration (then
    /// exits). The *process* stays alive, so only liveness detection — not a
    /// child-exit check — can catch it.
    Hang {
        /// Stall length in milliseconds; longer than the coordinator's
        /// liveness timeout in any real plan.
        ms: u64,
    },
    /// The worker sleeps for the given duration but keeps heartbeating.
    /// A correct supervisor rides this out without declaring the worker
    /// dead — the false-positive probe.
    Delay {
        /// Sleep length in milliseconds.
        ms: u64,
    },
    /// The worker flips bits in its next delta frame so the coordinator's
    /// decode fails with a typed [`CodecError::Corrupt`].
    CorruptDelta,
    /// The worker writes the full length prefix but only half the payload of
    /// its next delta, flushes and exits — the coordinator sees a connection
    /// closed mid-frame.
    TruncateDelta,
}

/// One scripted fault: `action` fires on `worker` when it starts `phase` of
/// the `iteration`-th iteration (1-based: `iteration: 1` is the first
/// iteration after setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Target worker id.
    pub worker: u32,
    /// 1-based iteration ordinal; fires when the worker's completed-iteration
    /// counter (`epoch`) satisfies `epoch + 1 == iteration`.
    pub iteration: u64,
    /// Which phase of that iteration.
    pub phase: FaultPhase,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic fault script for one cluster run. Build with the fluent
/// methods, hand to `ProcessClusterConfig::fault_plan`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: no injected faults (the production configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary event.
    fn event(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Scripts `worker` to exit abruptly at the start of `phase` of the
    /// (1-based) `iteration`-th iteration.
    pub fn crash(self, worker: u32, iteration: u64, phase: FaultPhase) -> Self {
        self.event(FaultEvent { worker, iteration, phase, action: FaultAction::Crash })
    }

    /// Scripts `worker` to stop heartbeating and stall for `ms` milliseconds.
    pub fn hang(self, worker: u32, iteration: u64, phase: FaultPhase, ms: u64) -> Self {
        self.event(FaultEvent { worker, iteration, phase, action: FaultAction::Hang { ms } })
    }

    /// Scripts `worker` to sleep `ms` milliseconds while still heartbeating.
    pub fn delay(self, worker: u32, iteration: u64, phase: FaultPhase, ms: u64) -> Self {
        self.event(FaultEvent { worker, iteration, phase, action: FaultAction::Delay { ms } })
    }

    /// Scripts `worker` to corrupt its next delta frame.
    pub fn corrupt_delta(self, worker: u32, iteration: u64, phase: FaultPhase) -> Self {
        self.event(FaultEvent { worker, iteration, phase, action: FaultAction::CorruptDelta })
    }

    /// Scripts `worker` to truncate its next delta frame mid-payload.
    pub fn truncate_delta(self, worker: u32, iteration: u64, phase: FaultPhase) -> Self {
        self.event(FaultEvent { worker, iteration, phase, action: FaultAction::TruncateDelta })
    }

    /// The events addressed to `worker` from iteration `first` on — what
    /// `Setup` ships. A cluster starting at `epoch` completed iterations
    /// passes `epoch + 1`; a restart after a failed iteration passes
    /// `epoch + 2`, so the replay of iteration `epoch + 1` runs with none of
    /// its events.
    pub fn for_worker(&self, worker: u32, first: u64) -> Vec<FaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|ev| ev.worker == worker && ev.iteration >= first)
            .collect()
    }
}

/// A worker-side cursor over its scripted events: [`fire`](FaultTimeline::fire)
/// pops the first event matching the current (epoch, phase) point, consuming
/// it so each event fires at most once.
#[derive(Debug, Default)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// Builds a timeline from the events `Setup` delivered.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// Pops the action scripted for the start of `phase` at completed
    /// iteration count `epoch`, if any.
    pub fn fire(&mut self, epoch: u64, phase: FaultPhase) -> Option<FaultAction> {
        let at =
            self.events.iter().position(|ev| ev.iteration == epoch + 1 && ev.phase == phase)?;
        Some(self.events.remove(at).action)
    }
}

const PHASE_WORD: u8 = 0;
const PHASE_DOC: u8 = 1;

const ACTION_CRASH: u8 = 0;
const ACTION_HANG: u8 = 1;
const ACTION_DELAY: u8 = 2;
const ACTION_CORRUPT_DELTA: u8 = 3;
const ACTION_TRUNCATE_DELTA: u8 = 4;

/// Writes a list of events (the `Setup.faults` field).
pub(crate) fn write_fault_events(enc: &mut Encoder<'_>, events: &[FaultEvent]) -> CodecResult<()> {
    enc.write_u32(events.len() as u32)?;
    for ev in events {
        enc.write_u32(ev.worker)?;
        enc.write_u64(ev.iteration)?;
        enc.write_u8(match ev.phase {
            FaultPhase::Word => PHASE_WORD,
            FaultPhase::Doc => PHASE_DOC,
        })?;
        let (tag, ms) = match ev.action {
            FaultAction::Crash => (ACTION_CRASH, 0),
            FaultAction::Hang { ms } => (ACTION_HANG, ms),
            FaultAction::Delay { ms } => (ACTION_DELAY, ms),
            FaultAction::CorruptDelta => (ACTION_CORRUPT_DELTA, 0),
            FaultAction::TruncateDelta => (ACTION_TRUNCATE_DELTA, 0),
        };
        enc.write_u8(tag)?;
        enc.write_u64(ms)?;
    }
    Ok(())
}

/// Reads a list of events written by [`write_fault_events`].
pub(crate) fn read_fault_events(dec: &mut Decoder<'_>) -> CodecResult<Vec<FaultEvent>> {
    // An event is 22 bytes: worker, iteration, phase, action tag, ms.
    let n = dec.read_u32()?;
    let n = dec.fits(n.into(), 22)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let worker = dec.read_u32()?;
        let iteration = dec.read_u64()?;
        let phase = match dec.read_u8()? {
            PHASE_WORD => FaultPhase::Word,
            PHASE_DOC => FaultPhase::Doc,
            other => return Err(CodecError::Corrupt(format!("unknown fault phase {other}"))),
        };
        let tag = dec.read_u8()?;
        let ms = dec.read_u64()?;
        let action = match tag {
            ACTION_CRASH => FaultAction::Crash,
            ACTION_HANG => FaultAction::Hang { ms },
            ACTION_DELAY => FaultAction::Delay { ms },
            ACTION_CORRUPT_DELTA => FaultAction::CorruptDelta,
            ACTION_TRUNCATE_DELTA => FaultAction::TruncateDelta,
            other => return Err(CodecError::Corrupt(format!("unknown fault action {other}"))),
        };
        events.push(FaultEvent { worker, iteration, phase, action });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_routes_events_per_worker() {
        let plan = FaultPlan::new()
            .crash(1, 2, FaultPhase::Word)
            .hang(0, 3, FaultPhase::Doc, 10_000)
            .corrupt_delta(1, 4, FaultPhase::Doc);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.for_worker(1, 1).len(), 2);
        assert_eq!(plan.for_worker(0, 1).len(), 1);
        assert!(plan.for_worker(2, 1).is_empty());
    }

    #[test]
    fn surviving_filters_out_the_replayed_event() {
        let plan =
            FaultPlan::new().crash(1, 2, FaultPhase::Word).truncate_delta(1, 5, FaultPhase::Doc);
        // Worker 1 died in iteration 2; the restart from epoch 1 replays it.
        // The killing event must not ship again.
        let survivors = plan.for_worker(1, 1 + 2);
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].iteration, 5);
        // A cluster starting at epoch 1 runs iteration 2 for the first time,
        // so the iteration-2 event is still ahead and must ship.
        assert_eq!(plan.for_worker(1, 1 + 1).len(), 2);
    }

    #[test]
    fn a_restart_ships_no_event_of_the_replayed_iteration_to_any_worker() {
        // Iteration 2 fails at worker 1's crash. Worker 0's later doc-phase
        // crash and worker 2's delay belong to the same iteration: the replay
        // runs without them too, and only iteration 3 still ships.
        let plan = FaultPlan::new()
            .crash(1, 2, FaultPhase::Word)
            .crash(0, 2, FaultPhase::Doc)
            .delay(2, 2, FaultPhase::Word, 50)
            .hang(2, 3, FaultPhase::Word, 10_000);
        let restart = |worker| plan.for_worker(worker, 1 + 2);
        assert!(restart(0).is_empty());
        assert!(restart(1).is_empty());
        assert_eq!(restart(2), [plan.events[3]]);
        // At start-up, every event of iteration 2 on ships.
        let start_up: usize = (0..3).map(|w| plan.for_worker(w, 1 + 1).len()).sum();
        assert_eq!(start_up, plan.events.len());
    }

    #[test]
    fn timeline_fires_each_event_once_at_its_point() {
        let plan = FaultPlan::new().crash(0, 2, FaultPhase::Word).delay(0, 2, FaultPhase::Doc, 50);
        let mut tl = FaultTimeline::new(plan.for_worker(0, 1));
        assert_eq!(tl.fire(0, FaultPhase::Word), None);
        assert_eq!(tl.fire(1, FaultPhase::Word), Some(FaultAction::Crash));
        assert_eq!(tl.fire(1, FaultPhase::Word), None, "events are consumed");
        assert_eq!(tl.fire(1, FaultPhase::Doc), Some(FaultAction::Delay { ms: 50 }));
    }

    #[test]
    fn fault_events_round_trip_through_the_codec() {
        let events = vec![
            FaultEvent {
                worker: 0,
                iteration: 1,
                phase: FaultPhase::Word,
                action: FaultAction::Crash,
            },
            FaultEvent {
                worker: 3,
                iteration: 9,
                phase: FaultPhase::Doc,
                action: FaultAction::Hang { ms: 7_500 },
            },
            FaultEvent {
                worker: 1,
                iteration: 2,
                phase: FaultPhase::Doc,
                action: FaultAction::TruncateDelta,
            },
        ];
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        write_fault_events(&mut enc, &events).unwrap();
        assert_eq!(buf.len(), 4 + 22 * events.len());
        assert_eq!(read_fault_events(&mut Decoder::new(&buf)).unwrap(), events);

        // A count the bytes do not back is refused before anything is
        // allocated for it.
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_fault_events(&mut Decoder::new(&buf)).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }
}
