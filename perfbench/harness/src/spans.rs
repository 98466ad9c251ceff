//! Benchmark-side spans: recorded by the load loop around its calls into
//! the program, kept in memory, reduced to per-layer self times, and
//! written as Chrome trace-event JSON at exit. Nothing here runs inside the
//! program under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call on the load thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers (`op`, `ship`, `barrier`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span within the same window, if any.
    pub parent: Option<usize>,
    /// Window id the span belongs to.
    pub window: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per span name: each span's duration minus the part its
/// children cover. Children of one span are sequential calls on one thread,
/// so they never overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        *out.entry(span.name).or_insert(0) += span.dur_ns().saturating_sub(children);
    }
    out
}

/// The spans of the window being recorded, plus a bounded prefix of all
/// closed windows kept for export.
pub struct SpanLog {
    origin: Instant,
    window: Vec<Span>,
    kept: Vec<Span>,
    keep_cap: usize,
}

impl SpanLog {
    /// A log timing spans from `origin`, exporting at most `keep_cap` spans.
    pub fn new(origin: Instant, keep_cap: usize) -> Self {
        Self { origin, window: Vec::new(), kept: Vec::new(), keep_cap }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index within the window.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        window: u64,
    ) -> usize {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, window };
        self.window.push(span);
        self.window.len() - 1
    }

    /// Records a span whose end is not known yet (a parent); finish it with
    /// [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        window: u64,
    ) -> usize {
        self.record(name, start, start, parent, window)
    }

    /// Sets the end of span `idx` of the current window.
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.window[idx].end_ns = self.ns(end);
    }

    /// Ends the current window: returns its spans' self times and keeps the
    /// spans for export while there is room.
    pub fn close_window(&mut self) -> BTreeMap<&'static str, u64> {
        let selfs = self_times(&self.window);
        if self.kept.len() + self.window.len() <= self.keep_cap {
            // Parent indices are window-local; rebase them onto `kept`.
            let base = self.kept.len();
            self.kept.extend(
                self.window.iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..*s }),
            );
        }
        self.window.clear();
        selfs
    }

    /// The kept spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps, the window id and parent index in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"window\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.window
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
        out
    }

    /// Number of spans kept for export.
    pub fn kept(&self) -> usize {
        self.kept.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, window: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("window", 0, 100, None),
            span("op", 0, 40, Some(0)),
            span("push", 10, 15, Some(1)),
            span("ship", 40, 50, Some(0)),
            span("op", 50, 80, Some(0)),
            span("barrier", 80, 98, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["window"], 2);
        assert_eq!(selfs["op"], 65);
        assert_eq!(selfs["push"], 5);
        assert_eq!(selfs["ship"], 10);
        assert_eq!(selfs["barrier"], 18);
        assert_eq!(selfs.values().sum::<u64>(), 100, "self times partition the root span");
    }

    #[test]
    fn log_keeps_a_bounded_prefix_and_rebases_parents() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0, 5);
        for w in 0..3u64 {
            let root = log.open("window", at(10 * w), None, w);
            log.record("op", at(10 * w + 1), at(10 * w + 5), Some(root), w);
            log.close(root, at(10 * w + 9));
            let selfs = log.close_window();
            assert_eq!(selfs["window"], 5_000);
            assert_eq!(selfs["op"], 4_000);
        }
        // Two windows of two spans fit under the cap of five; the third not.
        assert_eq!(log.kept(), 4);
        let json = log.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"window\""));
        assert!(json.contains("\"args\":{\"span\":3,\"parent\":2,\"window\":1}"));
        assert!(json.contains("\"ts\":10.000,\"dur\":9.000"));
    }
}
