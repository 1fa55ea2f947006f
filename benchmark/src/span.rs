//! In-memory span recorder for the traced run.
//!
//! The harness wraps each call into a layer's public functions in a
//! span — name, start, end, the span that caused it, and the id of the
//! op it belongs to — and keeps them in memory until the run ends. A
//! layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover (children running in parallel on two
//! threads cover their union once).
//!
//! Callbacks are far too many to record one span each (millions per
//! op): [`crate::timed_tool::TimedTool`] sums them, and the harness
//! adds one *aggregate* child span per thread whose duration is that
//! sum, laid at the start of the thread's span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u32,
    /// Calls this span stands for: `1` for a real interval, the call
    /// count for an aggregate of many short calls.
    pub calls: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Single-threaded: worker threads hand their totals
/// back and the harness records them after the join.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start the next op: spans recorded from here on carry its id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let ix = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            calls: 1,
        });
        self.stack.push(ix);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[ix].start_ns = self.ns(start);
        self.spans[ix].end_ns = self.ns(end);
        out
    }

    /// Record a finished interval (measured elsewhere, e.g. on a worker
    /// thread) as a child of the innermost open span; returns its index
    /// so aggregates can hang below it.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let parent = self.stack.last().copied();
        self.push_child(parent, name, start_ns, end_ns.max(start_ns), 1)
    }

    /// Record the sum of `calls` short calls totalling `total_ns` as one
    /// aggregate child of span `parent`, laid after any aggregate
    /// already there so siblings never overlap.
    pub fn record_aggregate(
        &mut self,
        parent: usize,
        name: &'static str,
        total_ns: u64,
        calls: u64,
    ) -> usize {
        // Children are always recorded after their parent.
        let start = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.push_child(Some(parent), name, start, start + total_ns, calls)
    }

    fn push_child(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: self.op,
            calls,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, parallel to [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per op: self time summed by span name.
    pub fn self_by_op_and_name(&self) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.op)
                .or_default()
                .entry(span.name)
                .or_insert(0) += self_ns;
        }
        out
    }

    /// Per op: the share of the root span `root`'s duration that lies
    /// inside some child span — what the breakdown accounts for.
    pub fn coverage_by_op(&self, root: &str) -> BTreeMap<u32, f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == root && s.parent.is_none() && s.duration_ns() > 0)
            .map(|(s, self_ns)| (s.op, 1.0 - self_ns as f64 / s.duration_ns() as f64))
            .collect()
    }

    /// The whole recording as JSON (one object per span).
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"calls\":{}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.calls,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // op [0,100] ── a [10,40] ── a1 [15,25]
        //            ├─ t0 [50,90]   (two threads in parallel:
        //            └─ t1 [60,95]    their union [50,95] counts once)
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("t0", 50, 90, Some(0)),
            span("t1", 60, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 45, 20, 10, 40, 35]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 25]);
    }

    #[test]
    fn recorder_nests_aggregates_and_reports_coverage() {
        let mut tr = Tracer::new();
        let op = tr.next_op();
        tr.span("op", |tr| {
            tr.span("layer", |tr| {
                let t0 = tr.ns(Instant::now());
                let thread = tr.record("thread", t0, t0 + 1_000);
                tr.record_aggregate(thread, "callbacks", 300, 7);
                tr.record_aggregate(thread, "finalize", 100, 1);
            });
        });
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "layer", "thread", "callbacks", "finalize"]);
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.spans()[3].parent, Some(2));
        // The second aggregate starts where the first ends.
        assert_eq!(tr.spans()[4].start_ns, tr.spans()[3].end_ns);
        assert_eq!(tr.spans()[3].calls, 7);

        let by_name = &tr.self_by_op_and_name()[&op];
        assert_eq!(by_name["callbacks"], 300);
        assert_eq!(by_name["finalize"], 100);
        let coverage = tr.coverage_by_op("op")[&op];
        assert!((0.0..=1.0).contains(&coverage));
        assert!(tr.to_json().contains("\"name\":\"callbacks\""));
    }
}
