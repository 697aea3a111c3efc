//! Spans recorded around the benchmark's calls into the simulator.
//!
//! A span holds a name, start and end, its parent and the op it belongs
//! to. Spans are kept in memory and written out as JSON lines at exit.
//! A layer's self time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The op (kernel run or session) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer only runs the closures
/// it is handed, so traced and untraced ops share one code path.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            enabled: false,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name` (when enabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merges per-thread span lists into one, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per span name: (count, total duration, total self time), in ns.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per span, in ns.
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// Writes one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
/// `parent` (an id or null) and `op`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    Ok(())
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
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) holds run [10,70), which holds verify [20,30).
        let spans = vec![
            span("op", 0, 100, None),
            span("core.run", 10, 70, Some(0)),
            span("kernels.verify", 20, 30, Some(1)),
            span("core.new", 70, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 25, 60 - 10, 10, 25]);
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 15);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["core.run"].count, 1);
        // Self times partition the root's wall time.
        let own: u64 = self_times(&spans).iter().sum();
        assert_eq!(own, 100);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_disabled() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.span("off", |_| 7), 7);
        t.set_enabled(true);
        t.set_op(42);
        t.span("op", |t| t.span("core.run", |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("op", None));
        assert_eq!((spans[1].name, spans[1].parent), ("core.run", Some(0)));
        assert!(spans.iter().all(|s| s.op == 42 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn merge_rebases_parents_and_jsonl_round_trips_the_fields() {
        let a = vec![span("op", 0, 10, None), span("core.run", 1, 9, Some(0))];
        let b = vec![span("op", 5, 20, None), span("core.new", 6, 7, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        let mut buf = Vec::new();
        write_jsonl(&all, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[3],
            "{\"id\":3,\"name\":\"core.new\",\"start_ns\":6,\"end_ns\":7,\"parent\":2,\"op\":1}"
        );
        assert!(lines[0].contains("\"parent\":null"));
    }
}
