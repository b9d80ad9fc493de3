//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span is (name, start, end, parent, request id). Spans are kept in
//! memory while the workload runs and written out as JSON lines when it
//! ends. A span's *self time* is its duration minus the part of its
//! interval that its child spans cover; children may overlap each other
//! (two client threads, or a child that outlives its parent), so coverage
//! is the length of the union of the children's intervals clipped to the
//! parent's.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.run`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Request (operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn open(&self, name: &str, parent: SpanId, request: u64) -> SpanId {
        let spans = self.spans.as_ref()?;
        let start_ns = self.now_ns();
        let mut v = spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        v.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        Some(v.len() - 1)
    }

    /// Closes a span now.
    pub fn close(&self, id: SpanId) {
        let (Some(spans), Some(id)) = (self.spans.as_ref(), id) else {
            return;
        };
        let end_ns = self.now_ns();
        spans
            .lock()
            .expect("span log poisoned by a panicking thread")[id]
            .end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, parent: SpanId, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s
                .lock()
                .expect("span log poisoned by a panicking thread")
                .clone(),
            None => Vec::new(),
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of span `id`: its duration minus the union of its children's
/// intervals, each clipped to the span's own interval.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut cover: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    cover.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns().saturating_sub(covered)
}

/// Σ duration (ms) and count of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> (f64, usize) {
    let named: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    let ns: u64 = named.iter().map(|s| s.duration_ns()).sum();
    (ns as f64 / 1e6, named.len())
}

/// Σ self time (ms) of the spans named `name`.
pub fn self_total_ms(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .map(|i| self_time_ns(spans, i))
        .sum();
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns(&[span(10, 50, None)], 0), 40);
    }

    #[test]
    fn nested_children_count_once_and_only_at_their_own_level() {
        // 0: [0,100); 1: [10,60) child of 0; 2: [20,30) child of 1.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(
            self_time_ns(&spans, 0),
            50,
            "grandchild is inside the child"
        );
        assert_eq!(self_time_ns(&spans, 1), 40);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn overlapping_children_are_covered_by_their_union() {
        // Children [10,40) and [30,70) overlap on [30,40): union is 60.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 40);
        // A child contained in another adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        // A child that starts before and ends after the parent covers it all.
        let spans = [span(10, 20, None), span(0, 30, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 0);
        // A child wholly outside the parent covers nothing.
        let spans = [span(10, 20, None), span(25, 30, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 10);
    }

    #[test]
    fn tracer_records_parentage_and_totals() {
        let t = Tracer::new(true);
        let outer = t.open("outer", None, 7);
        t.span("inner", outer, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let (ms, n) = total_ms(&spans, "inner");
        assert!(ms >= 2.0 && n == 1, "{ms} {n}");
        assert!(self_total_ms(&spans, "outer") < total_ms(&spans, "outer").0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", None, 0);
        assert_eq!(id, None);
        t.close(id);
        assert_eq!(t.span("y", None, 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
