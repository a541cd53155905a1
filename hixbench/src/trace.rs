//! The benchmark's own host-time tracer: a span around each public
//! call the benchmark makes into the HIX stack, kept in memory and
//! written out when the run ends.
//!
//! Spans nest by an explicit stack (one thread drives all load), so a
//! span's *self time* is its duration minus the durations of its direct
//! children. Recording is off in the timed (`--trace 0`) runs; in a
//! traced run it alternates per workload unit so the unit latencies of
//! recorded and unrecorded units give the tracer's own overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the tracer's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The workload unit (round, lifecycle, app run) the span belongs
    /// to; `u64::MAX` outside any unit (setup, probes).
    pub round: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` when not recording.
#[must_use]
pub struct Open(Option<u32>);

/// Host self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

pub struct Tracer {
    enabled: bool,
    active: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            active: enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: u64::MAX,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts workload unit `round`. In a traced run the caller records
    /// every other unit; the rest run untraced as the overhead baseline.
    pub fn begin_unit(&mut self, round: u64, record: bool) {
        self.round = round;
        self.active = self.enabled && record;
    }

    /// Leaves the unit scope: spans (setup, reconnects, probes) are
    /// recorded again whenever tracing is enabled.
    pub fn end_unit(&mut self) {
        self.round = u64::MAX;
        self.active = self.enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.active {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans exit in LIFO order");
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Records `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Number of spans recorded so far (a mark separating the workload's
    /// spans from the probes' that follow).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name (duration minus direct children) over
    /// the spans recorded between two marks; with `units_only`, only the
    /// spans inside workload units (the measured region, not set-up).
    pub fn self_times(
        &self,
        marks: std::ops::Range<usize>,
        units_only: bool,
    ) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .skip(marks.start)
            .take(marks.len())
            .filter(|(_, s)| !units_only || s.round != u64::MAX)
        {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let round = if s.round == u64::MAX {
                "null".to_string()
            } else {
                s.round.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{round}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
