//! Spans the benchmark records around each call into a layer, from
//! outside the program. Spans stay in memory until the run ends and are
//! then written as JSON lines, one per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// This span's identifier, unique within its tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer call, named after the metric it feeds (`wire.parse`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A started span, closed with [`Tracer::close`].
#[must_use]
pub struct Open {
    request: u64,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The span's identifier, for children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// An in-memory span recorder. Each thread owns one; their spans are
/// merged when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start at `first_id` (give concurrent tracers
    /// disjoint ranges) and whose clock counts from `origin`.
    pub fn new(origin: Instant, first_id: u64) -> Tracer {
        Tracer {
            origin,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Starts a span.
    pub fn open(&mut self, request: u64, parent: Option<u64>, name: &'static str) -> Open {
        self.next_id += 1;
        Open {
            request,
            id: self.next_id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends a span and records it.
    pub fn close(&mut self, open: Open) {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            request: open.request,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(request, parent, name);
        let out = std::hint::black_box(f());
        self.close(open);
        out
    }

    /// Duration of the span recorded last, in microseconds.
    pub fn last_micros(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::micros)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span in microseconds: its duration minus the part
/// its direct children cover (children of one span never overlap), keyed
/// by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        out.entry(s.name).or_default().push(own as f64 / 1e3);
    }
    out
}

/// JSON lines, one span each.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            request: 1,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, None, "request", 0, 10_000),
            span(2, Some(1), "wire.parse", 1_000, 4_000),
            span(3, Some(1), "service.solve", 4_000, 9_000),
            span(4, Some(3), "core.schedule", 4_000, 8_000),
        ];
        let own = self_times(&spans);
        assert_eq!(own["request"], vec![2.0]);
        assert_eq!(own["wire.parse"], vec![3.0]);
        assert_eq!(own["service.solve"], vec![1.0]);
        assert_eq!(spans[2].micros(), 5.0);
        let lines = to_jsonl(&spans);
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.starts_with(
            "{\"request\":1,\"id\":1,\"parent\":null,\"name\":\"request\",\"start_ns\":0,"
        ));
    }

    #[test]
    fn tracer_nests_and_numbers_spans() {
        let mut t = Tracer::new(Instant::now(), 100);
        let root = t.open(7, None, "request");
        let v = t.time(7, Some(root.id()), "child", || 41 + 1);
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(v, 42);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, Some(101));
        assert_eq!(spans[1].id, 101);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
