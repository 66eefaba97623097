//! In-memory spans recorded by the benchmark around calls into each layer.
//!
//! A span has a name, start, end, the span open when it began (its parent)
//! and an optional query id. Spans stay in memory and are written out as
//! JSONL when the run ends. A span's self time is its duration minus the
//! part of its interval covered by its children.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread of replayed work.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured span.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, &mut kids))
            .collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Summed self time of spans named `name`, in milliseconds.
    #[cfg(test)]
    pub fn self_ms(&self, name: &str) -> f64 {
        let selfs = self.self_times_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t)
            .sum();
        ns as f64 / 1e6
    }

    /// The spans as JSON lines, with each span's self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"query\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.query.map_or("null".to_string(), |q| q.to_string()),
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new();
        let root = t.push(span("root", 0, 100, None));
        let a = t.push(span("a", 10, 40, Some(root)));
        t.push(span("a.inner", 15, 25, Some(a)));
        // Overlapping siblings must not be subtracted twice.
        t.push(span("b", 30, 60, Some(root)));
        // A child running past its parent is clipped to the parent.
        t.push(span("c", 90, 120, Some(root)));
        assert_eq!(t.self_times_ns(), vec![100 - 50 - 10, 30 - 10, 10, 30, 30]);
        assert_eq!(t.self_ms("root"), 40e-6);
        assert_eq!(t.total_ms("a"), 30e-6);
    }

    #[test]
    fn nested_closures_record_parents() {
        let mut t = Tracer::new();
        t.span("outer", Some(7), |t| {
            t.span("inner", Some(7), |_| std::hint::black_box(1 + 1));
            t.span("inner", None, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[1].query, Some(7));
        assert_eq!(t.count("inner"), 2);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0] + selfs[1] + selfs[2], s[0].duration_ns());
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
