//! In-memory span recording around calls into the program's layers.
//!
//! Spans are recorded from the benchmark's own code (the program itself
//! is not instrumented), kept in memory while the workload runs, and
//! written out once at the end.

use std::fmt::Write as _;
use std::time::Instant;

use nexus_info::KernelSnapshot;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One timed call: name, interval, causing span, and request id, plus the
/// counter deltas observed across it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`mcimr`, `store.encode`, ...).
    pub name: &'static str,
    /// Request the span belongs to (0 for set-up work).
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Named counter deltas across the span.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Ends a span now, attaching its counter deltas.
    pub fn close(&mut self, id: SpanId, counts: Vec<(&'static str, u64)>) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.counts = counts;
    }

    /// Adds a span timed elsewhere against this recorder's clock.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Runs `f` inside a span that carries the counting-kernel deltas
    /// across the call. The kernel counters are process-global, so the
    /// deltas are exact only while nothing else runs in the process.
    pub fn kernel_span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let before = kernel_now();
        let id = self.open(name, request, parent);
        let out = f();
        let delta = kernel_now().delta(&before);
        self.close(id, kernel_counts(&delta));
        out
    }

    /// All spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// covered by its children.
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let span = &self.spans[id];
        self_time(span.start_ns, span.end_ns, &children)
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"counts\": {{",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(i)
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}\"{k}\": {v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `end - start` minus the length of the union of `children` clipped to
/// `[start, end]`; overlapping children are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Current process-global counting-kernel counters.
pub fn kernel_now() -> KernelSnapshot {
    nexus_info::kernel::counters().snapshot()
}

/// The kernel counters a span records.
pub fn kernel_counts(d: &KernelSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("rows_scanned", d.rows_scanned),
        ("hash_ops", d.hash_ops),
        ("dense_ops", d.dense_ops),
        ("dense_builds", d.dense_builds),
        ("sparse_builds", d.sparse_builds),
        ("narrow_scans", d.narrow_scans),
        ("memo_hits", d.memo_hits_total()),
        ("memo_misses", d.memo_misses_total()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_duration() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [20,40) and [30,60) overlap on [30,40): union is [20,60) = 40.
        assert_eq!(self_time(0, 100, &[(20, 40), (30, 60)]), 60);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Disjoint children add up.
        assert_eq!(self_time(0, 100, &[(0, 10), (50, 60)]), 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 5), (30, 40)]), 10);
        assert_eq!(self_time(10, 20, &[(0, 40)]), 0);
    }

    #[test]
    fn recorder_self_time_uses_direct_children() {
        let mut r = Recorder::new();
        let root = r.open("request", 1, None);
        let a = r.open("a", 1, Some(root));
        let grandchild = r.open("inner", 1, Some(a));
        r.close(grandchild, Vec::new());
        r.close(a, Vec::new());
        r.close(root, Vec::new());
        let spans = r.spans();
        let root_span = &spans[root];
        let child = &spans[a];
        assert_eq!(
            r.self_time_ns(root),
            root_span.duration_ns() - child.duration_ns()
        );
        assert!(r.to_json("w", 7).contains("\"name\": \"inner\""));
    }
}
