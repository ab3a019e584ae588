//! Bench-owned spans at layer boundaries, for the `trace` run.
//!
//! [`Span`] wraps one layer of the stack and implements the whole
//! ordered-labeling trait family by forwarding every method — the batch
//! methods and `metrics`/`stats_breakdown` included — so native fast
//! paths survive and the traced stack runs the same program. Each data
//! call becomes a span: layer, operation, thread, start, duration and the
//! parent from a thread-local stack. A span's self time is its duration
//! minus its children's. Every span adds to lock-free totals per
//! `(layer, operation)` (count, time, child counts, a log histogram of
//! self time); spans other than the hot reads of the inner layers are
//! also kept, in memory, until [`Tracer::write_jsonl`] writes the log
//! when the run ends.
//!
//! Tracing costs time of its own, inside the spans it measures. The
//! tracer times empty spans when it is made, and [`Overhead`] lets a
//! report take that cost back out of the self times.

use std::cell::RefCell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ltree::{
    BatchLabeling, Instrumented, LeafHandle, Metric, OrderedLabeling, OrderedLabelingMut, Result,
    SchemeStats, Splice, SpliceResult,
};

use crate::json::Json;
use crate::stats::median;

/// Kept spans beyond this many are only counted (and reported as
/// dropped), bounding the trace run's memory.
const KEEP_CAP: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Setup,
}

/// Totals for one `(layer, operation)` pair: a snapshot of its [`Cell`].
#[derive(Debug, Clone)]
pub struct Agg {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    /// Child spans opened inside these spans.
    pub child_calls: u64,
    /// Child `label_of` calls made inside these spans.
    pub child_label_reads: u64,
    /// Child `splice` calls made inside these spans.
    pub child_splices: u64,
    /// Self times in power-of-two buckets: bucket `b` holds `[2^(b-1), 2^b)` ns.
    pub self_log2: [u64; 64],
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            count: 0,
            dur_ns: 0,
            self_ns: 0,
            child_calls: 0,
            child_label_reads: 0,
            child_splices: 0,
            self_log2: [0; 64],
        }
    }
}

impl Agg {
    fn add(&mut self, o: &Agg) {
        self.count += o.count;
        self.dur_ns += o.dur_ns;
        self.self_ns += o.self_ns;
        self.child_calls += o.child_calls;
        self.child_label_reads += o.child_label_reads;
        self.child_splices += o.child_splices;
        for (a, b) in self.self_log2.iter_mut().zip(o.self_log2) {
            *a += b;
        }
    }

    fn minus(&self, o: &Agg) -> Agg {
        let mut out = self.clone();
        out.count -= o.count;
        out.dur_ns -= o.dur_ns;
        out.self_ns -= o.self_ns;
        out.child_calls -= o.child_calls;
        out.child_label_reads -= o.child_label_reads;
        out.child_splices -= o.child_splices;
        for (a, b) in out.self_log2.iter_mut().zip(o.self_log2) {
            *a -= b;
        }
        out
    }

    /// Upper edge of the power-of-two bucket holding the `q`-quantile of
    /// self time (0 when empty).
    pub fn self_quantile_ns(&self, q: f64) -> u64 {
        let rank = (self.count.saturating_sub(1) as f64 * q).floor() as u64;
        let mut seen = 0;
        for (b, &c) in self.self_log2.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return (1u64 << b.min(63)).saturating_sub(1);
            }
        }
        0
    }

    /// Mean self time per span, less the tracer's own cost inside it.
    pub fn self_mean_ns(&self, overhead: Overhead) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let cost =
            self.child_calls as f64 * overhead.per_child_ns + self.count as f64 * overhead.timer_ns;
        (self.self_ns as f64 - cost).max(0.0) / self.count as f64
    }
}

/// A `(layer, operation)` pair.
type Key = (&'static str, &'static str);

/// Span totals keyed by `(layer, operation)`.
pub type Spans = BTreeMap<Key, Agg>;

/// The totals of every operation of `layer` that passes `keep`.
pub fn total(spans: &Spans, layer: &str, keep: impl Fn(&str) -> bool) -> Agg {
    let mut out = Agg::default();
    for ((l, op), a) in spans {
        if *l == layer && keep(op) {
            out.add(a);
        }
    }
    out
}

/// Fold `more` into `into`.
pub fn merge(into: &mut Spans, more: &Spans) {
    for (k, a) in more {
        into.entry(*k).or_default().add(a);
    }
}

/// The live totals of one `(layer, operation)` pair.
///
/// Ordering: every access is `Relaxed`. These are statistics: no other
/// memory is published under them, and each RMW is atomic, so no span
/// is lost. A snapshot taken while a span closes may see some of its
/// counters and not others; the benchmark takes its snapshots between
/// operations, when its own spans are all closed.
struct Cell {
    count: AtomicU64,
    dur_ns: AtomicU64,
    /// Time inside child spans (self time is `dur_ns` minus this).
    child_ns: AtomicU64,
    child_calls: AtomicU64,
    child_label_reads: AtomicU64,
    child_splices: AtomicU64,
    self_log2: [AtomicU64; 64],
}

impl Cell {
    fn new() -> Self {
        Cell {
            count: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            child_ns: AtomicU64::new(0),
            child_calls: AtomicU64::new(0),
            child_label_reads: AtomicU64::new(0),
            child_splices: AtomicU64::new(0),
            self_log2: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn add(&self, counter: &AtomicU64, v: u64) {
        if v > 0 {
            // relaxed: a statistic; see the type's docs.
            counter.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Agg {
        // relaxed: statistics read between operations; see the type's docs.
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let dur_ns = get(&self.dur_ns);
        Agg {
            count: get(&self.count),
            dur_ns,
            self_ns: dur_ns.saturating_sub(get(&self.child_ns)),
            child_calls: get(&self.child_calls),
            child_label_reads: get(&self.child_label_reads),
            child_splices: get(&self.child_splices),
            self_log2: std::array::from_fn(|i| get(&self.self_log2[i])),
        }
    }
}

/// What one span costs the thread that records it, measured on empty
/// spans: `per_child_ns` is the time a child span adds to its parent's
/// self time, `timer_ns` the time a span's own duration includes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    pub per_child_ns: f64,
    pub timer_ns: f64,
}

struct Kept {
    id: u64,
    parent: u64,
    layer: &'static str,
    op: &'static str,
    thread: u32,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
    op_id: u64,
}

#[derive(Default)]
struct Log {
    kept: Vec<Kept>,
    dropped: u64,
}

/// The sink every [`Span`] (and the benchmark's own top-level spans) report
/// into. Shared across threads: server-side spans run on the server's
/// connection threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The client operation in flight, for reads and for writes. The load
    /// is closed-loop (one request per connection in flight), so a
    /// server-side span belongs to the operation its kind's caller last
    /// announced.
    current: [AtomicU64; 2],
    cells: Mutex<Vec<(Key, Arc<Cell>)>>,
    log: Mutex<Log>,
    gauges: Mutex<BTreeMap<Key, u64>>,
    overhead: Overhead,
}

struct Frame {
    id: u64,
    child_ns: u64,
    child_calls: u64,
    child_label_reads: u64,
    child_splices: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        // relaxed: thread numbers need uniqueness only.
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// An open span: the handle [`Tracer::enter`] returns.
pub struct Open {
    id: u64,
    parent: u64,
    start: Instant,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every update leaves the data valid, so a poisoned guard is safe.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Default for Tracer {
    fn default() -> Self {
        let mut t = Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: [AtomicU64::new(0), AtomicU64::new(0)],
            cells: Mutex::new(Vec::new()),
            log: Mutex::new(Log::default()),
            gauges: Mutex::new(BTreeMap::new()),
            overhead: Overhead::default(),
        };
        t.overhead = t.calibrate();
        t
    }
}

impl Tracer {
    /// Time batches of empty child spans under one parent; the medians
    /// over the batches give the tracer's cost per span.
    fn calibrate(&self) -> Overhead {
        const N: u64 = 10_000;
        let (parent, child) = (Cell::new(), Cell::new());
        let (mut per_child, mut timer) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let p = parent.snapshot();
            let c = child.snapshot();
            let open = self.enter();
            for _ in 0..N {
                let o = self.enter();
                self.record(o, "calibrate", "child", Kind::Read, &child);
            }
            self.record(open, "calibrate", "parent", Kind::Read, &parent);
            per_child.push((parent.snapshot().minus(&p).self_ns as f64) / N as f64);
            timer.push((child.snapshot().minus(&c).dur_ns as f64) / N as f64);
        }
        Overhead {
            per_child_ns: median(&per_child),
            timer_ns: median(&timer),
        }
    }

    pub fn overhead(&self) -> Overhead {
        self.overhead
    }

    /// The totals cell of `(layer, op)`, registered on first use.
    fn cell(&self, layer: &'static str, op: &'static str) -> Arc<Cell> {
        let mut cells = lock(&self.cells);
        if let Some((_, c)) = cells.iter().find(|((l, o), _)| *l == layer && *o == op) {
            return Arc::clone(c);
        }
        let c = Arc::new(Cell::new());
        cells.push(((layer, op), Arc::clone(&c)));
        c
    }

    /// Announce the client operation now in flight.
    pub fn set_op(&self, kind: Kind, id: u64) {
        // relaxed: a label for the log; it orders no other memory.
        self.current[(kind != Kind::Read) as usize].store(id, Ordering::Relaxed);
    }

    pub fn enter(&self) -> Open {
        // relaxed: span ids need uniqueness only.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map_or(0, |f| f.id);
            s.push(Frame {
                id,
                child_ns: 0,
                child_calls: 0,
                child_label_reads: 0,
                child_splices: 0,
            });
            parent
        });
        Open {
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Close a top-level span; returns its duration in nanoseconds.
    pub fn exit(&self, open: Open, layer: &'static str, op: &'static str, kind: Kind) -> u64 {
        let cell = self.cell(layer, op);
        self.record(open, layer, op, kind, &cell)
    }

    fn record(
        &self,
        open: Open,
        layer: &'static str,
        op: &'static str,
        kind: Kind,
        cell: &Cell,
    ) -> u64 {
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let frame = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = match s.last() {
                Some(f) if f.id == open.id => s.pop(),
                _ => None,
            };
            if let Some(p) = s.last_mut() {
                p.child_ns += dur_ns;
                p.child_calls += 1;
                p.child_label_reads += u64::from(op == "label_of");
                p.child_splices += u64::from(op == "splice");
            }
            frame
        });
        let (child_ns, calls, reads, splices) = frame.map_or((0, 0, 0, 0), |f| {
            (
                f.child_ns,
                f.child_calls,
                f.child_label_reads,
                f.child_splices,
            )
        });
        let self_ns = dur_ns.saturating_sub(child_ns);
        cell.add(&cell.count, 1);
        cell.add(&cell.dur_ns, dur_ns);
        cell.add(&cell.child_ns, child_ns);
        cell.add(&cell.child_calls, calls);
        cell.add(&cell.child_label_reads, reads);
        cell.add(&cell.child_splices, splices);
        cell.add(
            &cell.self_log2[(64 - self_ns.leading_zeros()).min(63) as usize],
            1,
        );
        let hot = kind == Kind::Read && matches!(layer, "core" | "durable" | "calibrate");
        if !hot {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            // relaxed: see `set_op`.
            let op_id = self.current[(kind != Kind::Read) as usize].load(Ordering::Relaxed);
            let thread = THREAD.with(|t| *t);
            let mut log = lock(&self.log);
            if log.kept.len() < KEEP_CAP {
                log.kept.push(Kept {
                    id: open.id,
                    parent: open.parent,
                    layer,
                    op,
                    thread,
                    start_ns,
                    dur_ns,
                    self_ns,
                    op_id,
                });
            } else {
                log.dropped += 1;
            }
        }
        dur_ns
    }

    /// Remember the last value a layer reported for a size query.
    fn gauge(&self, layer: &'static str, name: &'static str, v: u64) {
        lock(&self.gauges).insert((layer, name), v);
    }

    pub fn gauge_value(&self, layer: &'static str, name: &'static str) -> Option<u64> {
        lock(&self.gauges).get(&(layer, name)).copied()
    }

    /// The span totals so far.
    pub fn aggs(&self) -> Spans {
        lock(&self.cells)
            .iter()
            .map(|(k, c)| (*k, c.snapshot()))
            .collect()
    }

    /// The span totals added since `before` was taken.
    pub fn aggs_since(&self, before: &Spans) -> Spans {
        let zero = Agg::default();
        self.aggs()
            .into_iter()
            .map(|(k, a)| {
                let d = a.minus(before.get(&k).unwrap_or(&zero));
                (k, d)
            })
            .collect()
    }

    /// Write the kept spans, then one totals line per `(layer, op)`, as
    /// JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path, header: Json) -> std::io::Result<()> {
        let aggs = self.aggs();
        let log = lock(&self.log);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut head = header;
        head.set("type", "meta")
            .set("kept", log.kept.len() as u64)
            .set("dropped", log.dropped)
            .set("overhead_per_child_ns", self.overhead.per_child_ns)
            .set("overhead_timer_ns", self.overhead.timer_ns);
        writeln!(w, "{}", head.render())?;
        for k in &log.kept {
            let mut j = Json::obj();
            j.set("type", "span")
                .set("id", k.id)
                .set("parent", k.parent)
                .set("layer", k.layer)
                .set("op", k.op)
                .set("thread", u64::from(k.thread))
                .set("start_ns", k.start_ns)
                .set("dur_ns", k.dur_ns)
                .set("self_ns", k.self_ns)
                .set("op_id", k.op_id);
            writeln!(w, "{}", j.render())?;
        }
        for ((layer, op), a) in &aggs {
            let mut j = Json::obj();
            j.set("type", "totals")
                .set("layer", *layer)
                .set("op", *op)
                .set("count", a.count)
                .set("dur_ns", a.dur_ns)
                .set("self_ns", a.self_ns)
                .set("child_calls", a.child_calls)
                .set("self_p50_le_ns", a.self_quantile_ns(0.5))
                .set("self_p99_le_ns", a.self_quantile_ns(0.99));
            writeln!(w, "{}", j.render())?;
        }
        w.flush()
    }
}

/// The data operations a [`Span`] records, in the order of its cells.
const OPS: [&str; 12] = [
    "label_of",
    "compare",
    "first_in_order",
    "next_in_order",
    "bulk_build",
    "insert_first",
    "insert_after",
    "insert_before",
    "delete",
    "insert_many_after",
    "delete_run",
    "splice",
];

/// One traced layer. See the [module docs](self).
pub struct Span<S> {
    layer: &'static str,
    tracer: Arc<Tracer>,
    cells: Vec<Arc<Cell>>,
    inner: S,
}

impl<S> Span<S> {
    pub fn new(layer: &'static str, tracer: &Arc<Tracer>, inner: S) -> Self {
        Span {
            layer,
            tracer: Arc::clone(tracer),
            cells: OPS.iter().map(|op| tracer.cell(layer, op)).collect(),
            inner,
        }
    }
}

macro_rules! span {
    ($s:ident, $i:literal, $kind:ident, $call:expr) => {{
        let open = $s.tracer.enter();
        let out = $call;
        $s.tracer
            .record(open, $s.layer, OPS[$i], Kind::$kind, &$s.cells[$i]);
        out
    }};
}

impl<S: OrderedLabeling> OrderedLabeling for Span<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        span!(self, 0, Read, self.inner.label_of(h))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn live_len(&self) -> usize {
        self.inner.live_len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn first_in_order(&self) -> Option<LeafHandle> {
        span!(self, 2, Read, self.inner.first_in_order())
    }
    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        span!(self, 3, Read, self.inner.next_in_order(h))
    }
    fn label_space_bits(&self) -> u32 {
        self.inner.label_space_bits()
    }
    fn memory_bytes(&self) -> usize {
        let bytes = self.inner.memory_bytes();
        self.tracer.gauge(self.layer, "memory_bytes", bytes as u64);
        bytes
    }
    fn compare(&self, a: LeafHandle, b: LeafHandle) -> Result<CmpOrdering> {
        span!(self, 1, Read, self.inner.compare(a, b))
    }
}

impl<S: OrderedLabelingMut> OrderedLabelingMut for Span<S> {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        span!(self, 4, Setup, self.inner.bulk_build(n))
    }
    fn insert_first(&mut self) -> Result<LeafHandle> {
        span!(self, 5, Write, self.inner.insert_first())
    }
    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        span!(self, 6, Write, self.inner.insert_after(anchor))
    }
    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        span!(self, 7, Write, self.inner.insert_before(anchor))
    }
    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        span!(self, 8, Write, self.inner.delete(h))
    }
}

impl<S: BatchLabeling> BatchLabeling for Span<S> {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        span!(self, 9, Write, self.inner.insert_many_after(anchor, k))
    }
    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        span!(self, 10, Write, self.inner.delete_run(first, count))
    }
    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        span!(self, 11, Write, self.inner.splice(op))
    }
}

impl<S: Instrumented> Instrumented for Span<S> {
    fn scheme_stats(&self) -> SchemeStats {
        self.inner.scheme_stats()
    }
    fn reset_scheme_stats(&mut self) {
        self.inner.reset_scheme_stats()
    }
    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        self.inner.stats_breakdown()
    }
    fn metrics(&self) -> Vec<Metric> {
        self.inner.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree::{DynScheme, LTree, Params};

    #[test]
    fn nested_spans_split_self_time_and_count_children() {
        let tracer = Arc::new(Tracer::default());
        let core = Span::new("core", &tracer, LTree::new(Params::new(4, 2).unwrap()));
        let mut s: Box<dyn DynScheme> = Box::new(Span::new("outer", &tracer, core));
        let hs = s.bulk_build(64).unwrap();
        s.splice(Splice::InsertAfter {
            anchor: hs[3],
            count: 5,
        })
        .unwrap();
        let open = tracer.enter();
        s.label_of(hs[1]).unwrap();
        s.compare(hs[1], hs[2]).unwrap();
        tracer.exit(open, "bench", "op", Kind::Read);

        let spans = tracer.aggs();
        let splice = total(&spans, "outer", |op| op == "splice");
        let inner = total(&spans, "core", |op| op == "splice");
        assert_eq!((splice.count, inner.count), (1, 1));
        assert_eq!(splice.child_splices, 1, "the core splice is the child");
        assert_eq!(splice.self_ns + inner.dur_ns, splice.dur_ns);
        let top = total(&spans, "bench", |_| true);
        assert_eq!(top.child_label_reads, 1, "one direct label_of child");
        assert_eq!(top.child_calls, 2);
        assert!(top.self_ns <= top.dur_ns);
        // Native fast paths survive the wrapper: one batch, not 5 inserts.
        assert_eq!(s.scheme_stats().inserts, 5);
        assert_eq!(total(&spans, "core", |op| op == "insert_after").count, 0);
        let before = tracer.aggs();
        s.label_of(hs[0]).unwrap();
        let since = tracer.aggs_since(&before);
        assert_eq!(total(&since, "core", |_| true).count, 1);
        assert_eq!(total(&since, "outer", |_| true).count, 1);
        s.memory_bytes();
        assert!(tracer.gauge_value("core", "memory_bytes").unwrap() > 0);
        let o = tracer.overhead();
        assert!(o.per_child_ns > 0.0 && o.timer_ns >= 0.0, "{o:?}");
    }
}
