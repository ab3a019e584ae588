//! # `ltree-obs` — the live observability layer
//!
//! The workspace's counters ([`ltree_core::SchemeStats`] and the
//! per-segment `seg/<i>/…` counters) count *items*; this crate counts
//! *time*. The paper's claim is amortized relabel cost, and an average
//! is exactly the statistic that hides the spikes a rebalance causes —
//! only latency distributions (tail quantiles) and per-phase timing
//! make the amortization visible. Two pieces:
//!
//! * [`MetricsRegistry`] — named, lock-free [`Counter`]s, [`Gauge`]s
//!   and log-bucketed [`Histogram`]s (32 sub-buckets per octave,
//!   ≤ 1/32 relative quantile error; bucket math in
//!   [`ltree_core::metrics`]). `snapshot()` freezes everything into the
//!   passive [`Metric`] types every other crate already understands.
//! * [`TracedScheme`] — the `traced(inner)` registry wrapper: every
//!   trait-family call is timed into a per-op-kind histogram
//!   (`obs/op/...` names; see ARCHITECTURE.md's Observability naming
//!   table), and the whole stack's metrics surface through
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
/// without touching the registry again; only registration,
/// [`fold_counter`](Self::fold_counter) and [`snapshot`](Self::snapshot)
/// take the internal lock.
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

    /// Remove the counter `from` and add its count to the counter `into`
    /// (created on first use), under one lock: a snapshot counts the
    /// value once, in one series or the other. For a series whose
    /// subject is gone, such as a closed connection's. An unregistered
    /// `from` folds nothing; either name registered as another kind is
    /// a bug and panics, as in [`counter`](Self::counter).
    pub fn fold_counter(&self, from: &str, into: &str) {
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let count = match map.remove(from) {
            None => return,
            Some(Instrument::Counter(c)) => c.get(),
            Some(_) => panic!("metric `{from}` is not a counter"),
        };
        match map
            .entry(into.to_owned())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => c.add(count),
            _ => panic!("metric `{into}` is already registered as a non-counter"),
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

/// The write-side trait calls in a metric snapshot, merged into one
/// histogram: the eight mutation `obs/op/*` histograms a `traced(…)`
/// layer records. Its `count` is the number of calls — every call is one
/// sample, so a batch splice counts once whatever its size, the number
/// splice-driven bulk paths minimize — and its `sum` is the time spent
/// inside those calls, nanoseconds.
pub fn mutation_histogram(metrics: &[Metric]) -> HistogramSnapshot {
    let mutations = &OP_NAMES[..=Op::Splice as usize];
    let mut merged = HistogramSnapshot::new();
    for m in metrics {
        if let MetricValue::Histogram(h) = &m.value {
            if mutations.contains(&m.name.as_str()) {
                merged.merge(h);
            }
        }
    }
    merged
}

/// The `traced(inner)` wrapper: times every trait-family call into one
/// latency histogram per op kind (`obs/op/...`) and surfaces the stack's
/// metrics through [`Instrumented::metrics`]. A timed call records one
/// sample, two relaxed atomic adds; no call takes a lock. Pure forwarding
/// otherwise — counters and list semantics are untouched,
/// so the conformance suite runs `traced(...)` specs unchanged.
#[derive(Debug)]
pub struct TracedScheme<S> {
    inner: S,
    rec: Recorder,
}

/// The recording half of [`TracedScheme`], one histogram per [`Op`]: a
/// field of its own so a `&mut self` method can borrow it beside the
/// inner scheme.
#[derive(Debug)]
struct Recorder([Histogram; 12]);

impl<S> TracedScheme<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TracedScheme {
            inner,
            rec: Recorder(std::array::from_fn(|_| Histogram::new())),
        }
    }

    /// The wrapped scheme.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl Recorder {
    /// Run `f` as one `op` call and record its duration.
    fn time<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.0[op as usize].record(start.elapsed().as_nanos() as u64);
        out
    }
}

impl<S: OrderedLabeling> OrderedLabeling for TracedScheme<S> {
    fn name(&self) -> &'static str {
        "traced"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        self.rec.time(Op::LabelOf, || self.inner.label_of(h))
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
        self.rec
            .time(Op::FirstInOrder, || self.inner.first_in_order())
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        self.rec
            .time(Op::NextInOrder, || self.inner.next_in_order(h))
    }

    fn label_space_bits(&self) -> u32 {
        self.inner.label_space_bits()
    }

    fn memory_bytes(&self) -> usize {
        // The wrapper's own heap: one fixed bucket array per op kind.
        self.inner.memory_bytes()
            + self.rec.0.len() * BUCKET_COUNT as usize * std::mem::size_of::<u64>()
    }

    fn compare(&self, a: LeafHandle, b: LeafHandle) -> Result<Ordering> {
        self.rec.time(Op::Compare, || self.inner.compare(a, b))
    }
}

impl<S: OrderedLabelingMut> OrderedLabelingMut for TracedScheme<S> {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        self.rec.time(Op::BulkBuild, || self.inner.bulk_build(n))
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        self.rec.time(Op::InsertFirst, || self.inner.insert_first())
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        self.rec
            .time(Op::InsertAfter, || self.inner.insert_after(anchor))
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        self.rec
            .time(Op::InsertBefore, || self.inner.insert_before(anchor))
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        self.rec.time(Op::Delete, || self.inner.delete(h))
    }
}

impl<S: BatchLabeling> BatchLabeling for TracedScheme<S> {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        self.rec.time(Op::InsertManyAfter, || {
            self.inner.insert_many_after(anchor, k)
        })
    }

    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        self.rec
            .time(Op::DeleteRun, || self.inner.delete_run(first, count))
    }

    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        // Forward to the inner scheme's own splice (which may be a
        // native fast-path) rather than re-dispatching through the
        // default body — and record it under its own kind so batch
        // latency is separable from single-op latency.
        self.rec.time(Op::Splice, || self.inner.splice(op))
    }
}

impl<S: Instrumented> Instrumented for TracedScheme<S> {
    fn scheme_stats(&self) -> SchemeStats {
        self.inner.scheme_stats()
    }

    fn reset_scheme_stats(&mut self) {
        self.inner.reset_scheme_stats();
        // Histograms reset with the counters, so post-reset quantiles
        // describe the same window as the post-reset stats.
        for h in &self.rec.0 {
            h.reset();
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = OP_NAMES
            .iter()
            .zip(&self.rec.0)
            .map(|(name, h)| Metric::histogram(*name, h.snapshot()))
            .collect();
        out.extend(self.inner.metrics());
        ltree_core::metrics::sort_metrics(&mut out);
        out
    }
}

// ----------------------------------------------------------------------
// Registry wiring
// ----------------------------------------------------------------------

/// Register the `traced(inner)` composite spec: wraps any inner scheme in
/// a [`TracedScheme`]. It takes no options, so any `key=value` after the
/// inner spec is a typed [`LTreeError::InvalidOption`] naming the key.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_composite(
        "traced",
        "latency-tracing wrapper over any inner scheme; args: (inner)",
        |reg, cfg, args| {
            let Some((SpecArg::Spec(inner), rest)) = args.split_first() else {
                return Err(LTreeError::InvalidSpec {
                    spec: "traced".into(),
                    reason: "expected an inner scheme spec first, e.g. traced(ltree(4,2))",
                });
            };
            SpecOptions::parse("traced", rest)?.finish()?;
            let inner = reg.build_with(inner, cfg)?;
            Ok(Box::new(TracedScheme::new(inner)))
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
        let a = reg.counter("net/requests");
        let b = reg.counter("net/requests");
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
    fn folded_counters_leave_the_snapshot_and_add_up() {
        let reg = MetricsRegistry::new();
        for (conn, n) in [("net/conn1/round-trips", 3), ("net/conn2/round-trips", 4)] {
            reg.counter(conn).add(n);
            reg.fold_counter(conn, "net/closed-conns/round-trips");
        }
        reg.fold_counter("net/conn9/round-trips", "net/closed-conns/round-trips");
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1, "only the total is left: {snap:?}");
        assert_eq!(reg.counter("net/closed-conns/round-trips").get(), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_is_a_bug() {
        let reg = MetricsRegistry::new();
        reg.counter("net/requests");
        reg.histogram("net/requests");
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
    }

    #[test]
    fn traced_is_transparent_for_stats_and_errors() {
        let mut s = TracedScheme::new(tree());
        let hs = s.bulk_build(8).unwrap();
        s.reset_scheme_stats();
        s.insert_after(hs[2]).unwrap();
        assert_eq!(s.scheme_stats().inserts, 1);
        assert!(
            s.metrics().iter().all(|m| m.name.starts_with("obs/op/")),
            "no series beyond the op histograms"
        );
        // Errors pass through typed, and a failed call is one sample too.
        assert!(matches!(
            s.insert_after(LeafHandle(u64::MAX)),
            Err(LTreeError::UnknownHandle)
        ));
        assert_eq!(hist_of(&s.metrics(), "obs/op/insert_after").count, 2);
        // Reset clears the timing state alongside the counters.
        s.reset_scheme_stats();
        assert_eq!(s.scheme_stats().inserts, 0);
        assert_eq!(
            hist_of(&s.metrics(), "obs/op/insert_after").count,
            0,
            "histograms reset with the stats"
        );
    }

    #[test]
    fn spec_builds_and_rejects_bad_shapes() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        let mut s = reg.build("traced(ltree(4,2))").unwrap();
        assert_eq!(s.name(), "traced");
        s.bulk_build(8).unwrap();
        assert!(!s.metrics().is_empty());
        for bad in ["traced", "traced()", "traced(7)"] {
            assert!(
                matches!(reg.build(bad), Err(LTreeError::InvalidSpec { .. })),
                "{bad} must be rejected"
            );
        }
        // `traced` takes no options: each key is rejected by name.
        for (bad, bad_key) in [
            ("traced(ltree(4,2),slow_us=5)", "slow_us"),
            ("traced(ltree,bogus=1)", "bogus"),
        ] {
            assert!(
                matches!(reg.build(bad), Err(LTreeError::InvalidOption { key, .. }) if key == bad_key),
                "{bad} must be rejected naming `{bad_key}`"
            );
        }
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
