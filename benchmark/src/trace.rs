//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! operation (query, object, round) it belongs to. Spans live in a
//! buffer allocated before the traced phase starts and are written to
//! `benchmark/out/trace_<workload>.json` when the run ends. A layer's
//! self time is its spans' duration minus the part their children
//! cover; spans inside the program under test are a later change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// One thread's span buffer. Interior mutability lets a candidate
/// source and a refine closure — both alive inside one `multi_step_knn`
/// call — record into the same buffer.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    capacity: usize,
}

impl Tracer {
    /// A buffer for `capacity` spans, counted from `t0` (threads that
    /// trace one workload share `t0` so their spans line up).
    pub fn new(t0: Instant, capacity: usize) -> Self {
        Tracer { t0, spans: RefCell::new(Vec::with_capacity(capacity)), capacity }
    }

    /// Whether another operation of `spans_per_op` spans still fits;
    /// the traced loops stop recording (not running) when it does not.
    pub fn has_room(&self, spans_per_op: usize) -> bool {
        self.spans.borrow().len() + spans_per_op <= self.capacity
    }

    /// Open a span; returns its index for `end` and for children.
    pub fn begin(&self, name: &'static str, parent: u32, op: u32) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32;
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        id
    }

    pub fn end(&self, id: u32) {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.borrow_mut()[id as usize].end_ns = now;
    }

    /// Time `f` as a span.
    pub fn span<R>(&self, name: &'static str, parent: u32, op: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, op);
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Time `f` as a span of `tracer` if there is one; untraced, a span is
/// just the call.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u32,
    op: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, op, f),
        None => f(),
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals over `spans` (one thread's buffer: parents index
/// into the same slice).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Per-span durations of one name, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).collect()
}

/// Write the buffers of all traced threads as one file. Names are
/// interned; a span is `[name, start_ns, end_ns, parent, op, thread]`,
/// `parent` an index into the same thread's spans or -1.
pub fn write(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut names: Vec<&'static str> = threads.iter().flatten().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quoted: Vec<String> = names.iter().map(|n| crate::json::string(n)).collect();
    write!(
        w,
        "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\", \"thread\"],\n \"names\": [{}],\n \"spans\": [",
        quoted.join(", ")
    )?;
    let mut first = true;
    for (t, spans) in threads.iter().enumerate() {
        for s in spans {
            let name = names.binary_search(&s.name).expect("name was interned");
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            write!(w, "{sep}  [{name}, {}, {}, {parent}, {}, {t}]", s.start_ns, s.end_ns, s.op)?;
        }
    }
    writeln!(w, "\n ]}}")?;
    w.flush()
}
