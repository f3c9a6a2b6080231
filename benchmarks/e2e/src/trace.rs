//! Spans the harness records around its own calls into the engine.
//!
//! A span has a name, a start, an end, the span that caused it (`parent`,
//! 0 for a root) and the id of the operation it belongs to. Spans stay in
//! memory and are written once, when the traced pass ends. A span's *self
//! time* is its duration minus the part of it its children cover.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A traced pass stops recording beyond this many spans (it keeps
/// measuring); the file stays a few tens of MB at most.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    /// All spans of one operation share this.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder of one thread. Disabled, every call is a branch and
/// nothing else, so the untraced pass runs the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer { on, origin, spans: Vec::new(), next_op: 0 }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    /// Record a finished span; returns its id (0 when disabled or full).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
        id
    }

    /// Open a span whose children are recorded before it ends; close it
    /// with [`end`](Tracer::end). Returns its id (0 when disabled or full).
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        let now = self.now();
        self.record(name, parent, op, now, now)
    }

    /// Close a span opened with [`begin`](Tracer::begin).
    pub fn end(&mut self, id: u32) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut((id as usize).wrapping_sub(1)) {
            span.end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of the time since the recorder's origin that went into
    /// recording: spans recorded × the measured cost of recording one
    /// (its timestamp included). Computed, not observed as a difference of
    /// two runs: the ops are milliseconds and a span is tens of
    /// nanoseconds, so the difference between a traced and an untraced run
    /// on this sandbox is its noise (±5 %), never the tracing.
    pub fn overhead_frac(&self) -> f64 {
        self.spans.len() as f64 * span_cost_ns() / self.now().max(1) as f64
    }

    /// Merge another thread's spans (same origin) behind this one's,
    /// renumbering ids and ops so they stay unique.
    pub fn absorb(&mut self, other: Tracer) {
        let id_shift = self.spans.len() as u32;
        let op_shift = self.next_op;
        for mut s in other.spans {
            s.id += id_shift;
            if s.parent != 0 {
                s.parent += id_shift;
            }
            s.op += op_shift;
            self.spans.push(s);
        }
        self.next_op += other.next_op;
    }
}

/// Nanoseconds to take one timestamp and record one span, measured on a
/// scratch recorder.
fn span_cost_ns() -> f64 {
    const N: u32 = 50_000;
    let mut scratch = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for op in 0..N {
        let now = scratch.now();
        std::hint::black_box(scratch.record("calibration", 0, op, now, now));
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span), summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Write the spans of one traced pass as a single JSON document.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"unit\":\"ns\",\"spans\":[",
        json::string(workload)
    )?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{},\"start\":{},\"end\":{}}}",
            s.id,
            s.parent,
            s.op,
            json::string(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // op [0,100) ⊃ open [0,10), first [10,40), drain [40,90): 10 ns of
        // the op are its own (result bookkeeping after the drain).
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "core.open", 0, 10),
            span(3, 1, "exec.first_chunk", 10, 40),
            span(4, 1, "core.drain", 40, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], NameTotals { count: 1, total_ns: 100, self_ns: 10 });
        assert_eq!(t["core.drain"], NameTotals { count: 1, total_ns: 50, self_ns: 50 });
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        // Children [10,60) and [40,80) overlap; [90,130) overhangs the end.
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 60),
            span(3, 1, "b", 40, 80),
            span(4, 1, "c", 90, 130),
        ];
        // covered = [10,80) + [90,100) = 80
        assert_eq!(self_times(&spans)["op"].self_ns, 20);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_renumbers() {
        let mut off = Tracer::off();
        assert_eq!(off.record("x", 0, 1, 0, 1), 0);
        let unopened = off.begin("y", 0, 1);
        off.end(unopened);
        assert!(off.spans().is_empty());

        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let op = a.next_op();
        let root = a.record("op", 0, op, 0, 10);
        a.record("child", root, op, 1, 2);
        let mut b = Tracer::new(true, origin);
        let op_b = b.next_op();
        let root_b = b.record("op", 0, op_b, 5, 9);
        b.record("child", root_b, op_b, 6, 7);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[2].id, s[2].parent, s[2].op), (3, 0, 2));
        assert_eq!((s[3].id, s[3].parent, s[3].op), (4, 3, 2));

        // A span opened before its children and closed after them.
        let op = a.next_op();
        let root = a.begin("op.write", 0, op);
        let child = a.record("core.commit", root, op, a.now(), a.now());
        a.end(root);
        let (root, child) = (&a.spans()[root as usize - 1], &a.spans()[child as usize - 1]);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!((child.parent, child.op), (root.id, root.op));

        // Recording costs something, and far less than it records.
        let cost = span_cost_ns();
        assert!(cost > 0.0 && cost < 10_000.0, "{cost} ns per span");
        assert!(a.overhead_frac() > 0.0 && Tracer::off().overhead_frac() == 0.0);
    }

    #[test]
    fn trace_file_is_one_json_document_with_the_span_fields() {
        let dir = crate::tmp::TempDir::new(7).unwrap();
        let path = dir.path().join("trace_t.json");
        let spans = vec![span(1, 0, "op", 5, 50), span(2, 1, "core.open", 5, 9)];
        write_json(&path, "olap_embedded", 7, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"workload\":\"olap_embedded\",\"seed\":7,"));
        assert!(text.contains(
            "{\"id\":2,\"parent\":1,\"op\":1,\"name\":\"core.open\",\"start\":5,\"end\":9}"
        ));
        assert!(text.trim_end().ends_with("]}"));
        assert_eq!(text.matches("\"id\":").count(), 2);
    }
}
