//! # `ltree-obs` — the live observability layer
//!
//! The workspace's counters ([`ltree_core::SchemeStats`],
//! `stats_breakdown()`) count *items*; this crate counts *time*. The
//! paper's claim is amortized relabel cost, and an average is exactly
//! the statistic that hides the spikes a rebalance causes — only
//! latency distributions (tail quantiles) and per-phase timing make the
//! amortization visible. Three pieces:
//!
//! * [`MetricsRegistry`] — named, lock-free [`Counter`]s, [`Gauge`]s
//!   and log-bucketed [`Histogram`]s (32 sub-buckets per octave,
//!   ≤ 1/32 relative quantile error; bucket math in
//!   [`ltree_core::metrics`]). `snapshot()` freezes everything into the
//!   passive [`Metric`] types every other crate already understands.
//! * [`EventLog`] — a fixed-capacity ring buffer of structured spans
//!   ([`Event`]: op kind, duration, monotonic timestamp, [`Outcome`]),
//!   so "what just happened" survives after the fact without unbounded
//!   memory.
//! * [`TracedScheme`] — the `traced(inner[,slow_us=N])` registry
//!   wrapper: every trait-family call is timed into a per-op-kind
//!   histogram (`obs/op/...` names; see ARCHITECTURE.md's Observability
//!   naming table), mutations and slow/failed operations land in the
//!   event log, and the whole stack's metrics surface through
//!   [`Instrumented::metrics`] — composable with `checked`, `durable`,
//!   `sharded` and `served` like every other combinator.
//!
//! [`render_prometheus`] turns any metric snapshot into the text
//! exposition format, which is what `repro metrics <host:port>` prints
//! after scraping a live `LabelServer` over the wire protocol's
//! `Metrics` request.
//!
//! ```
//! use ltree_core::{Instrumented, OrderedLabelingMut, SchemeRegistry};
//!
//! let mut reg = SchemeRegistry::with_builtin();
//! ltree_obs::register(&mut reg);
//! let mut s = reg.build("traced(ltree(4,2))").unwrap();
//! let hs = s.bulk_build(64).unwrap();
//! s.insert_after(hs[10]).unwrap();
//! let metrics = s.metrics();
//! assert!(metrics.iter().any(|m| m.name == "obs/op/insert_after"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ltree_core::metrics::{bucket_index, HistogramSnapshot, Metric, MetricValue, BUCKET_COUNT};
use ltree_core::registry::{SpecArg, SpecOptions};
use ltree_core::{
    BatchLabeling, Instrumented, LTreeError, LeafHandle, OrderedLabeling, OrderedLabelingMut,
    Result, SchemeRegistry, SchemeStats, Splice, SpliceResult,
};

// ----------------------------------------------------------------------
// Instruments
// ----------------------------------------------------------------------

/// A monotone event counter (lock-free).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // relaxed: independent statistic; no other memory is published under it.
        self.0.fetch_add(n, AtomicOrdering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed: advisory read; scrapes tolerate slight staleness.
        self.0.load(AtomicOrdering::Relaxed)
    }

    /// Zero the counter.
    pub fn reset(&self) {
        // relaxed: reset races with concurrent adds benignly (counts are advisory).
        self.0.store(0, AtomicOrdering::Relaxed);
    }
}

/// A point-in-time level that may go up and down (lock-free).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level.
    pub fn set(&self, v: i64) {
        // relaxed: last-writer-wins level; nothing synchronizes through it.
        self.0.store(v, AtomicOrdering::Relaxed);
    }

    /// Shift the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        // relaxed: independent level shift; no other memory depends on it.
        self.0.fetch_add(delta, AtomicOrdering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        // relaxed: advisory read; scrapes tolerate slight staleness.
        self.0.load(AtomicOrdering::Relaxed)
    }
}

/// A lock-free log-bucketed histogram over `u64` samples (typically
/// nanoseconds). Fixed bucket space ([`BUCKET_COUNT`] indices), so
/// recording is two relaxed atomic adds and snapshots merge
/// associatively. Quantiles reported from a [`snapshot`](Self::snapshot)
/// are within a relative error of 1/32 of the true sample (see
/// [`ltree_core::metrics`] for the bucket math).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        // relaxed: buckets and sum are independent statistics; snapshot()
        // re-derives the count from buckets, so tearing between them is tolerated.
        self.buckets[bucket_index(v) as usize].fetch_add(1, AtomicOrdering::Relaxed);
        self.sum.fetch_add(v, AtomicOrdering::Relaxed);
    }

    /// Freeze the current contents into a passive snapshot. The count is
    /// derived from the buckets, so quantile ranks are always internally
    /// consistent even under concurrent recording.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            // relaxed: the snapshot is advisory; a sample racing the scan may be missed.
            let n = b.load(AtomicOrdering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((idx as u32, n));
            }
        }
        HistogramSnapshot {
            count,
            // relaxed: sum may tear against buckets under concurrent record; advisory.
            sum: self.sum.load(AtomicOrdering::Relaxed),
            buckets,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // relaxed: advisory count; a concurrent record may be missed.
        self.buckets
            .iter()
            .map(|b| b.load(AtomicOrdering::Relaxed))
            .sum()
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            // relaxed: reset races with concurrent record benignly.
            b.store(0, AtomicOrdering::Relaxed);
        }
        // relaxed: same as the buckets — the sum is advisory.
        self.sum.store(0, AtomicOrdering::Relaxed);
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named instruments. Handing out `Arc`s keeps the hot
/// path lock-free: callers resolve their instruments once and record
/// without touching the registry again; only registration and
/// [`snapshot`](Self::snapshot) take the internal lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Instrument>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    /// Panics if `name` is already registered as another kind — metric
    /// names are static program structure, so a clash is a bug.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is already registered as a non-counter"),
        }
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is already registered as a non-gauge"),
        }
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is already registered as a non-histogram"),
        }
    }

    /// Freeze every instrument into a passive [`Metric`] snapshot,
    /// sorted by name (the registry iterates a `BTreeMap`).
    pub fn snapshot(&self) -> Vec<Metric> {
        let map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        map.iter()
            .map(|(name, inst)| match inst {
                Instrument::Counter(c) => Metric::counter(name.clone(), c.get()),
                Instrument::Gauge(g) => Metric::gauge(name.clone(), g.get()),
                Instrument::Histogram(h) => Metric::histogram(name.clone(), h.snapshot()),
            })
            .collect()
    }

    /// Zero every counter and histogram (gauges keep their level: they
    /// describe current state, not accumulated history).
    pub fn reset(&self) {
        let map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        for inst in map.values() {
            match inst {
                Instrument::Counter(c) => c.reset(),
                Instrument::Gauge(_) => {}
                Instrument::Histogram(h) => h.reset(),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Event log
// ----------------------------------------------------------------------

/// How a recorded span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The operation completed normally.
    Ok,
    /// The operation returned an error.
    Err,
    /// The operation completed but exceeded the slow-op threshold.
    Slow,
}

/// One structured span in the event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Operation kind (one of the `obs/op/...` names, or a
    /// component-specific span name).
    pub kind: &'static str,
    /// Monotonic timestamp: nanoseconds since the owning component was
    /// created.
    pub at_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// How the span ended.
    pub outcome: Outcome,
}

/// A fixed-capacity ring buffer of [`Event`]s: the most recent
/// `capacity` spans are kept, older ones are dropped (and counted).
#[derive(Debug)]
pub struct EventLog {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl EventLog {
    /// An empty log keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn record(&self, ev: Event) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
            // relaxed: eviction statistic only; ring mutations are ordered by the mutex.
            self.dropped.fetch_add(1, AtomicOrdering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        // relaxed: advisory statistic read.
        self.dropped.load(AtomicOrdering::Relaxed)
    }

    /// Drop every retained event and zero the eviction counter.
    pub fn clear(&self) {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).clear();
        // relaxed: the ring lock orders the clear; the counter is advisory.
        self.dropped.store(0, AtomicOrdering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// The traced(...) wrapper
// ----------------------------------------------------------------------

/// Per-op-kind histogram names, indexable by [`Op`]. Every name appears
/// in ARCHITECTURE.md's Observability naming table (xtask rule 6).
const OP_NAMES: [&str; 12] = [
    "obs/op/bulk_build",
    "obs/op/insert_first",
    "obs/op/insert_after",
    "obs/op/insert_before",
    "obs/op/delete",
    "obs/op/insert_many_after",
    "obs/op/delete_run",
    "obs/op/splice",
    "obs/op/label_of",
    "obs/op/compare",
    "obs/op/first_in_order",
    "obs/op/next_in_order",
];

#[derive(Debug, Clone, Copy)]
enum Op {
    BulkBuild = 0,
    InsertFirst,
    InsertAfter,
    InsertBefore,
    Delete,
    InsertManyAfter,
    DeleteRun,
    Splice,
    LabelOf,
    Compare,
    FirstInOrder,
    NextInOrder,
}

impl Op {
    fn is_mutation(self) -> bool {
        matches!(
            self,
            Op::BulkBuild
                | Op::InsertFirst
                | Op::InsertAfter
                | Op::InsertBefore
                | Op::Delete
                | Op::InsertManyAfter
                | Op::DeleteRun
                | Op::Splice
        )
    }
}

/// Write-side trait calls in a metric snapshot: the summed sample
/// counts of the eight mutation `obs/op/*` histograms a `traced(…)`
/// layer records. Every call is one sample, so a batch splice counts
/// once whatever its size — the number splice-driven bulk paths
/// minimize.
pub fn mutation_calls(metrics: &[Metric]) -> u64 {
    let mutations = &OP_NAMES[..=Op::Splice as usize];
    metrics
        .iter()
        .filter(|m| mutations.contains(&m.name.as_str()))
        .map(|m| match &m.value {
            MetricValue::Histogram(h) => h.count,
            _ => 0,
        })
        .sum()
}

/// Default slow-op threshold (`slow_us` option), microseconds.
pub const DEFAULT_SLOW_US: u64 = 1000;

/// Default event-log capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// The `traced(inner[,slow_us=N])` wrapper: times every trait-family
/// call into per-op-kind latency histograms (`obs/op/...`), logs spans
/// for mutations and for any slow or failed operation, and surfaces the
/// stack's metrics through [`Instrumented::metrics`]. Pure forwarding
/// otherwise — counters, breakdowns and list semantics are untouched,
/// so the conformance suite runs `traced(...)` specs unchanged.
#[derive(Debug)]
pub struct TracedScheme<S> {
    inner: S,
    registry: Arc<MetricsRegistry>,
    hists: [Arc<Histogram>; 12],
    slow_ops: Arc<Counter>,
    events: EventLog,
    slow_ns: u64,
    origin: Instant,
}

impl<S> TracedScheme<S> {
    /// Wrap `inner` with the default slow-op threshold
    /// ([`DEFAULT_SLOW_US`] µs).
    pub fn new(inner: S) -> Self {
        Self::with_slow_threshold(inner, DEFAULT_SLOW_US)
    }

    /// Wrap `inner`, marking operations slower than `slow_us`
    /// microseconds as [`Outcome::Slow`] events.
    pub fn with_slow_threshold(inner: S, slow_us: u64) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let hists: [Arc<Histogram>; 12] = std::array::from_fn(|i| registry.histogram(OP_NAMES[i]));
        let slow_ops = registry.counter("obs/events/slow");
        TracedScheme {
            inner,
            registry,
            hists,
            slow_ops,
            events: EventLog::new(DEFAULT_EVENT_CAPACITY),
            slow_ns: slow_us.saturating_mul(1000),
            origin: Instant::now(),
        }
    }

    /// The wrapped scheme.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The wrapper's own metrics registry (shared; scrape-safe).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The retained event spans, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.recent()
    }

    fn span<R>(&self, op: Op, f: impl FnOnce(&S) -> Result<R>) -> Result<R> {
        let start = Instant::now();
        let out = f(&self.inner);
        self.finish(op, start, out.is_err());
        out
    }

    fn span_mut<R>(
        inner: &mut S,
        this: &TracedSpanCtx<'_>,
        op: Op,
        f: impl FnOnce(&mut S) -> Result<R>,
    ) -> Result<R> {
        let start = Instant::now();
        let out = f(inner);
        this.finish(op, start, out.is_err());
        out
    }

    fn finish(&self, op: Op, start: Instant, errored: bool) {
        self.ctx().finish(op, start, errored)
    }

    fn ctx(&self) -> TracedSpanCtx<'_> {
        TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        }
    }
}

/// The recording half of [`TracedScheme`], split out so `&mut self`
/// methods can borrow the inner scheme mutably while recording.
struct TracedSpanCtx<'a> {
    hists: &'a [Arc<Histogram>; 12],
    slow_ops: &'a Arc<Counter>,
    events: &'a EventLog,
    slow_ns: u64,
    origin: Instant,
}

impl TracedSpanCtx<'_> {
    fn finish(&self, op: Op, start: Instant, errored: bool) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.hists[op as usize].record(dur_ns);
        let slow = dur_ns >= self.slow_ns;
        if slow {
            self.slow_ops.inc();
        }
        let outcome = if errored {
            Outcome::Err
        } else if slow {
            Outcome::Slow
        } else {
            Outcome::Ok
        };
        // Reads only produce events when noteworthy (slow or failed);
        // mutations always leave a span, so the recent edit history is
        // reconstructible from the ring.
        if op.is_mutation() || slow || errored {
            self.events.record(Event {
                kind: OP_NAMES[op as usize],
                at_ns: self.origin.elapsed().as_nanos() as u64,
                dur_ns,
                outcome,
            });
        }
    }
}

impl<S: OrderedLabeling> OrderedLabeling for TracedScheme<S> {
    fn name(&self) -> &'static str {
        "traced"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        self.span(Op::LabelOf, |s| s.label_of(h))
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
        let start = Instant::now();
        let out = self.inner.first_in_order();
        self.finish(Op::FirstInOrder, start, false);
        out
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        let start = Instant::now();
        let out = self.inner.next_in_order(h);
        self.finish(Op::NextInOrder, start, false);
        out
    }

    fn label_space_bits(&self) -> u32 {
        self.inner.label_space_bits()
    }

    fn memory_bytes(&self) -> usize {
        // The dominant wrapper footprint: 12 histograms of fixed bucket
        // arrays plus the event ring.
        self.inner.memory_bytes()
            + self.hists.len() * BUCKET_COUNT as usize * std::mem::size_of::<u64>()
            + DEFAULT_EVENT_CAPACITY * std::mem::size_of::<Event>()
    }

    fn compare(&self, a: LeafHandle, b: LeafHandle) -> Result<Ordering> {
        self.span(Op::Compare, |s| s.compare(a, b))
    }
}

impl<S: OrderedLabelingMut> OrderedLabelingMut for TracedScheme<S> {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::BulkBuild, |s| s.bulk_build(n))
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::InsertFirst, |s| s.insert_first())
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::InsertAfter, |s| {
            s.insert_after(anchor)
        })
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::InsertBefore, |s| {
            s.insert_before(anchor)
        })
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::Delete, |s| s.delete(h))
    }
}

impl<S: BatchLabeling> BatchLabeling for TracedScheme<S> {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::InsertManyAfter, |s| {
            s.insert_many_after(anchor, k)
        })
    }

    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::DeleteRun, |s| {
            s.delete_run(first, count)
        })
    }

    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        // Forward to the inner scheme's own splice (which may be a
        // native fast-path) rather than re-dispatching through the
        // default body — and record it under its own kind so batch
        // latency is separable from single-op latency.
        let ctx = TracedSpanCtx {
            hists: &self.hists,
            slow_ops: &self.slow_ops,
            events: &self.events,
            slow_ns: self.slow_ns,
            origin: self.origin,
        };
        Self::span_mut(&mut self.inner, &ctx, Op::Splice, |s| s.splice(op))
    }
}

impl<S: Instrumented> Instrumented for TracedScheme<S> {
    fn scheme_stats(&self) -> SchemeStats {
        self.inner.scheme_stats()
    }

    fn reset_scheme_stats(&mut self) {
        self.inner.reset_scheme_stats();
        // Histograms and spans reset with the counters, so post-reset
        // quantiles describe the same window as the post-reset stats.
        self.registry.reset();
        self.events.clear();
    }

    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        self.inner.stats_breakdown()
    }

    fn metrics(&self) -> Vec<Metric> {
        let mut out = self.registry.snapshot();
        out.extend(self.inner.metrics());
        ltree_core::metrics::sort_metrics(&mut out);
        out
    }
}

// ----------------------------------------------------------------------
// Registry wiring
// ----------------------------------------------------------------------

/// Register the `traced(inner[,slow_us=N])` composite spec: wraps any
/// inner scheme in a [`TracedScheme`]. `slow_us` (default
/// [`DEFAULT_SLOW_US`]) is the slow-op event threshold in microseconds.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_composite(
        "traced",
        "latency-tracing wrapper over any inner scheme; args: (inner[,slow_us=N])",
        |reg, cfg, args| {
            let Some((SpecArg::Spec(inner), rest)) = args.split_first() else {
                return Err(LTreeError::InvalidSpec {
                    spec: "traced".into(),
                    reason: "expected an inner scheme spec first, e.g. traced(ltree(4,2))",
                });
            };
            let mut opts = SpecOptions::parse("traced", rest)?;
            let slow_us = opts.take_u64("slow_us")?.unwrap_or(DEFAULT_SLOW_US);
            opts.finish()?;
            let inner = reg.build_with(inner, cfg)?;
            Ok(Box::new(TracedScheme::with_slow_threshold(inner, slow_us)))
        },
    );
}

// ----------------------------------------------------------------------
// Prometheus-style text exposition
// ----------------------------------------------------------------------

/// Sanitize a metric path into the Prometheus name charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`), prefixing with `ltree_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("ltree_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render a metric snapshot as Prometheus-style text exposition:
/// counters as `*_total`, gauges as-is, histograms as summaries with
/// `quantile` labels (p50/p90/p99/p999) plus `_sum` and `_count`.
pub fn render_prometheus(metrics: &[Metric]) -> String {
    use ltree_core::metrics::MetricValue;
    use std::fmt::Write as _;

    let mut out = String::new();
    for m in metrics {
        let name = prom_name(&m.name);
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name}_total counter");
                let _ = writeln!(out, "{name}_total {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} summary");
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                    let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
                }
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::metrics::MetricValue;
    use ltree_core::{LTree, Params};

    fn tree() -> LTree {
        LTree::new(Params::new(4, 2).unwrap())
    }

    fn hist_of(metrics: &[Metric], name: &str) -> HistogramSnapshot {
        match metrics.iter().find(|m| m.name == name) {
            Some(Metric {
                value: MetricValue::Histogram(h),
                ..
            }) => h.clone(),
            other => panic!("no histogram `{name}`: {other:?}"),
        }
    }

    #[test]
    fn registry_hands_out_shared_instruments() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("obs/events/slow");
        let b = reg.counter("obs/events/slow");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("net/active-conns");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        let h = reg.histogram("net/phase/decode");
        h.record(100);
        h.record(200);
        let snap = reg.snapshot();
        // Sorted by name.
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(hist_of(&snap, "net/phase/decode").count, 2);
        reg.reset();
        assert_eq!(a.get(), 0, "counters reset");
        assert_eq!(g.get(), 3, "gauges keep their level");
        assert_eq!(h.count(), 0, "histograms reset");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_is_a_bug() {
        let reg = MetricsRegistry::new();
        reg.counter("obs/events/slow");
        reg.histogram("obs/events/slow");
    }

    #[test]
    fn event_log_is_a_bounded_ring() {
        let log = EventLog::new(3);
        for i in 0..5u64 {
            log.record(Event {
                kind: "obs/op/insert_after",
                at_ns: i,
                dur_ns: i,
                outcome: Outcome::Ok,
            });
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].at_ns, 2, "oldest surviving event");
        assert_eq!(recent[2].at_ns, 4);
        assert_eq!(log.dropped(), 2);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn traced_wrapper_times_every_op_kind() {
        let mut s = TracedScheme::new(tree());
        let hs = s.bulk_build(32).unwrap();
        s.insert_after(hs[3]).unwrap();
        s.insert_before(hs[3]).unwrap();
        s.insert_first().unwrap();
        s.delete(hs[9]).unwrap();
        s.insert_many_after(hs[5], 4).unwrap();
        s.delete_run(hs[20], 2).unwrap();
        s.splice(Splice::InsertAfter {
            anchor: hs[0],
            count: 2,
        })
        .unwrap();
        s.label_of(hs[0]).unwrap();
        s.compare(hs[0], hs[1]).unwrap();
        s.first_in_order().unwrap();
        s.next_in_order(hs[0]).unwrap();
        let metrics = s.metrics();
        for name in OP_NAMES {
            let h = hist_of(&metrics, name);
            assert!(h.count >= 1, "{name} was never recorded");
        }
        // Mutations leave spans in the event ring.
        let events = s.events();
        assert!(events.iter().any(|e| e.kind == "obs/op/insert_after"));
        assert!(events.iter().any(|e| e.kind == "obs/op/splice"));
        // Reads do not (none were slow).
        assert!(!events.iter().any(|e| e.kind == "obs/op/label_of"));
    }

    #[test]
    fn traced_is_transparent_for_stats_and_errors() {
        let mut s = TracedScheme::new(tree());
        let hs = s.bulk_build(8).unwrap();
        s.reset_scheme_stats();
        s.insert_after(hs[2]).unwrap();
        assert_eq!(s.scheme_stats().inserts, 1);
        assert!(s.stats_breakdown().is_empty(), "no synthetic components");
        // Errors pass through typed and land as Err events.
        assert!(matches!(
            s.insert_after(LeafHandle(u64::MAX)),
            Err(LTreeError::UnknownHandle)
        ));
        assert!(s
            .events()
            .iter()
            .any(|e| e.outcome == Outcome::Err && e.kind == "obs/op/insert_after"));
        // Reset clears the timing state alongside the counters.
        s.reset_scheme_stats();
        assert_eq!(s.scheme_stats().inserts, 0);
        assert!(s.events().is_empty());
        assert_eq!(
            hist_of(&s.metrics(), "obs/op/insert_after").count,
            0,
            "histograms reset with the stats"
        );
    }

    #[test]
    fn slow_threshold_zero_marks_everything_slow() {
        let mut s = TracedScheme::with_slow_threshold(tree(), 0);
        let hs = s.bulk_build(4).unwrap();
        s.label_of(hs[0]).unwrap();
        let slow = s
            .metrics()
            .iter()
            .find_map(|m| match (&m.name[..], &m.value) {
                ("obs/events/slow", MetricValue::Counter(v)) => Some(*v),
                _ => None,
            })
            .unwrap();
        assert!(slow >= 2, "bulk_build + label_of at threshold 0");
        assert!(s
            .events()
            .iter()
            .any(|e| e.outcome == Outcome::Slow && e.kind == "obs/op/label_of"));
    }

    #[test]
    fn spec_builds_and_rejects_bad_shapes() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        let mut s = reg.build("traced(ltree(4,2))").unwrap();
        assert_eq!(s.name(), "traced");
        s.bulk_build(8).unwrap();
        assert!(!s.metrics().is_empty());
        let mut s = reg.build("traced(ltree(4,2),slow_us=5)").unwrap();
        s.bulk_build(8).unwrap();
        for bad in ["traced", "traced()", "traced(7)"] {
            assert!(
                matches!(reg.build(bad), Err(LTreeError::InvalidSpec { .. })),
                "{bad} must be rejected"
            );
        }
        assert!(matches!(
            reg.build("traced(ltree,slow_us=fast)"),
            Err(LTreeError::InvalidOption { .. })
        ));
        assert!(matches!(
            reg.build("traced(ltree,bogus=1)"),
            Err(LTreeError::InvalidOption { .. })
        ));
    }

    /// Satellite property test: for fuzzed sample sets spanning many
    /// magnitudes, every reported quantile must be within the log-bucket
    /// relative-error bound of the exact (sorted-sample) quantile.
    #[test]
    fn quantile_error_is_within_the_bucket_bound() {
        use ltree_core::rng::SplitMix64;
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(0x9E37_79B9 ^ seed);
            let n = 1 + rng.gen_range(0..2000);
            let h = Histogram::new();
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Mix magnitudes: unit-range, mid-range, and full-range
                // values so both exact and log-bucketed paths are hit.
                let v = match rng.gen_range(0..3) {
                    0 => rng.next_u64() % 32,
                    1 => rng.next_u64() % 1_000_000,
                    _ => rng.next_u64() >> (rng.gen_range(0..48) as u32),
                };
                samples.push(v);
                h.record(v);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, n as u64);
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((n - 1) as f64 * q).floor() as usize;
                let exact = samples[rank];
                let got = snap.quantile(q);
                // The reported value is the representative of the bucket
                // holding the exact sample: off by at most the bucket
                // width, i.e. a 1/32 relative error (±1 below 32).
                let bound = (exact / 32).max(1);
                assert!(
                    got.abs_diff(exact) <= bound,
                    "seed {seed} n {n} q {q}: got {got}, exact {exact}, bound {bound}"
                );
            }
        }
    }

    /// Satellite property test: merging histograms is associative (and
    /// order-insensitive) — required for the sharded metrics roll-up.
    #[test]
    fn merge_is_associative() {
        use ltree_core::rng::SplitMix64;
        for seed in 0..10u64 {
            let mut rng = SplitMix64::new(seed);
            let parts: Vec<HistogramSnapshot> = (0..3)
                .map(|_| {
                    let h = Histogram::new();
                    for _ in 0..rng.gen_range(0..200) {
                        h.record(rng.next_u64() >> (rng.gen_range(0..40) as u32));
                    }
                    h.snapshot()
                })
                .collect();
            // (a ⊔ b) ⊔ c
            let mut left = parts[0].clone();
            left.merge(&parts[1]);
            left.merge(&parts[2]);
            // a ⊔ (b ⊔ c)
            let mut bc = parts[1].clone();
            bc.merge(&parts[2]);
            let mut right = parts[0].clone();
            right.merge(&bc);
            assert_eq!(left, right, "seed {seed}");
            assert_eq!(
                left.count,
                parts.iter().map(|p| p.count).sum::<u64>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn prometheus_rendering_covers_every_kind() {
        let reg = MetricsRegistry::new();
        reg.counter("net/requests").add(7);
        reg.gauge("net/active-conns").set(2);
        let h = reg.histogram("net/phase/apply");
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("ltree_net_requests_total 7"));
        assert!(text.contains("ltree_net_active_conns 2"));
        assert!(text.contains("ltree_net_phase_apply{quantile=\"0.5\"}"));
        assert!(text.contains("ltree_net_phase_apply_count 5"));
        assert!(text.contains("# TYPE ltree_net_phase_apply summary"));
    }
}
