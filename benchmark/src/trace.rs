//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::begin`]/[`Tracer::end`] in both
//! modes, so the traced and untraced runs execute the same code; the only
//! difference is that a traced run also stores a [`Span`] per call and
//! writes them out when the workload ends. Nothing is recorded inside the
//! program under test.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open on this thread when this one began.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A begun, not yet ended span.
pub struct Open {
    id: Option<u32>,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        // Room for every span of the single-threaded phases up front: growing
        // the list mid-phase would show up in the allocation counts.
        let spans = Vec::with_capacity(if enabled { 1 << 16 } else { 0 });
        Self { enabled, epoch: Instant::now(), spans, stack: Vec::new() }
    }

    /// A tracer for another thread of the same workload: same on/off state
    /// and the same time origin, so [`absorb`](Self::absorb) can merge it.
    pub fn fork(&self) -> Self {
        Self { enabled: self.enabled, epoch: self.epoch, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: self.ns_since_epoch(start),
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        Open { id, start }
    }

    /// Ends `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(id) = open.id {
            self.spans[id as usize].end_ns = self.ns_since_epoch(now);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must end in the order they nest");
        }
        now.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Stores a span whose ends were clocked by the caller (a request in
    /// flight overlaps its neighbours, so it cannot use the nesting stack).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: self.ns_since_epoch(start),
                end_ns: self.ns_since_epoch(end),
            });
        }
    }

    /// Merges the spans of a forked tracer, re-basing their ids. Its root
    /// spans become children of the span currently open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let adopt = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base).or(adopt),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Cost of recording one span, measured on a scratch tracer: the median
    /// of several batches of empty begin/end pairs, traced minus untraced.
    pub fn per_span_overhead_s() -> f64 {
        const BATCH: usize = 20_000;
        let batch = |enabled: bool| {
            let mut t = Tracer::new(enabled);
            let t0 = Instant::now();
            for _ in 0..BATCH {
                let open = t.begin("calibration");
                std::hint::black_box(t.end(open));
            }
            std::hint::black_box(t.spans.len());
            t0.elapsed().as_secs_f64() / BATCH as f64
        };
        let diffs: Vec<f64> = (0..7).map(|_| (batch(true) - batch(false)).max(0.0)).collect();
        crate::stats::median(&diffs)
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval that its children cover (overlapping children count once,
/// and a child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The span file: a per-name summary (count, total and self seconds)
/// followed by the raw spans.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    let summary = by_name
        .into_iter()
        .map(|(name, (count, total, own))| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("count".into(), Json::Num(count as f64)),
                ("total_s".into(), Json::Num(total as f64 * 1e-9)),
                ("self_s".into(), Json::Num(own as f64 * 1e-9)),
            ])
        })
        .collect();
    let raw = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), Json::Num(f64::from(s.id))),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("summary".into(), Json::Arr(summary)),
        ("spans".into(), Json::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1 on [20, 30): counted once.
            span(2, Some(0), 20, 50),
            // Runs past its parent: clipped at 100.
            span(3, Some(0), 90, 120),
            span(4, Some(2), 25, 35),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 30 - 10, 30, 10]);
    }

    #[test]
    fn untraced_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.time("x", || std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_absorb_keep_parents() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let mut forked = t.fork();
        let inner = forked.begin("inner");
        forked.time("leaf", || ());
        forked.end(inner);
        t.absorb(forked);
        t.end(outer);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("outer", None), ("inner", Some(0)), ("leaf", Some(1))]);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
