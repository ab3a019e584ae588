//! What every workload shares: run configuration, failure accounting,
//! the per-round record, the benchmark's clock, and the list-walk oracle.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ltree::metrics::{value_for_index, SUB_BITS};
use ltree::{Cursor, DynScheme, HistogramSnapshot, Instrumented, LTree, MetricValue, Params};

use crate::model::ListModel;
use crate::span::{Kind, Open, Span, Spans, Tracer};
use crate::stats::{bucket_quantile, Lat};

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// ~100× fewer operations and a ~100× smaller list.
    pub smoke: bool,
    /// Scratch space for on-disk state (inside the checkout).
    pub work: PathBuf,
}

impl Cfg {
    /// Initial list size n₀.
    pub fn n0(&self) -> usize {
        if self.smoke {
            1_000
        } else {
            100_000
        }
    }

    /// A workload's per-round script length at this scale.
    pub fn ops(&self, full: usize) -> usize {
        if self.smoke {
            (full / 100).max(20)
        } else {
            full
        }
    }
}

/// The scheme every workload labels with: `ltree(4,2)`.
pub fn params() -> Params {
    Params::new(4, 2).expect("(4,2) is a valid L-Tree shape")
}

/// Builds the core layer: a fresh `ltree(4,2)`, wrapped in the `core`
/// span when traced. Tests substitute lying schemes here.
pub type Make = Arc<dyn Fn(Option<&Arc<Tracer>>) -> Box<dyn DynScheme> + Send + Sync>;

pub fn ltree_core() -> Make {
    Arc::new(|tracer: Option<&Arc<Tracer>>| -> Box<dyn DynScheme> {
        let tree = LTree::new(params());
        match tracer {
            Some(t) => Box::new(Span::new("core", t, tree)),
            None => Box::new(tree),
        }
    })
}

/// Attempted and failed operations. A failed check, an unexpected error
/// or a zero from an infallible wire read is one failed operation; the
/// run never aborts on one.
#[derive(Debug, Default)]
pub struct Acct {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Acct {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.record_failure(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.record_failure(what);
    }

    fn record_failure(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    pub fn merge(&mut self, other: Acct) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(n);
            }
        }
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Wall time of the op script (the writer's, when threads share it).
    pub replay_s: f64,
    /// Time the script's thread spent inside timed program calls.
    pub busy_s: f64,
    /// Operations completed during the replay, all threads.
    pub ops: u64,
    pub read: Lat,
    pub write: Lat,
    /// Deterministic counters: identical in every round of a seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-round values, reported as a median over rounds.
    pub vals: BTreeMap<&'static str, f64>,
    /// Additive raw sums, pooled over rounds.
    pub sums: BTreeMap<&'static str, f64>,
    /// Program histograms (nanoseconds), pooled over rounds.
    pub hists: BTreeMap<&'static str, HistogramSnapshot>,
    /// Span totals over the replay (traced rounds only).
    pub spans: Spans,
}

impl Round {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }
}

/// One workload: a fixed seeded script replayed from a fresh setup each
/// round.
pub trait Workload {
    fn round(&mut self, tracer: Option<&Arc<Tracer>>, acct: &mut Acct) -> Round;
}

/// The benchmark's timer around top-level program calls. Traced, it also
/// records each call as a span of the layer the benchmark calls into
/// (`xml`, `client`), announcing the op to server-side spans first.
pub struct Clock<'a> {
    tracer: Option<&'a Arc<Tracer>>,
    layer: Option<&'static str>,
    next_op: std::cell::Cell<u64>,
}

pub struct Tick {
    open: Option<Open>,
    start: Instant,
}

impl<'a> Clock<'a> {
    pub fn new(tracer: Option<&'a Arc<Tracer>>, layer: Option<&'static str>) -> Self {
        Clock {
            tracer,
            layer,
            next_op: std::cell::Cell::new(1),
        }
    }

    pub fn start(&self, kind: Kind) -> Tick {
        let open = match (self.tracer, self.layer) {
            (Some(t), Some(_)) => {
                let id = self.next_op.get();
                self.next_op.set(id + 1);
                t.set_op(kind, id);
                Some(t.enter())
            }
            _ => None,
        };
        Tick {
            open,
            start: Instant::now(),
        }
    }

    /// Stop the timer; returns the call's latency in nanoseconds.
    pub fn stop(&self, tick: Tick, op: &'static str, kind: Kind) -> u64 {
        let ns = tick.start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(layer), Some(open)) = (self.tracer, self.layer, tick.open) {
            t.exit(open, layer, op, kind);
        }
        ns
    }
}

/// Round-end oracle for the list workloads: a full cursor walk must show
/// strictly increasing labels and exactly the model's order, and the
/// counts must agree (`len` includes tombstones everywhere; a zero from
/// the wire's infallible reads is a failure). Returns the walked order.
pub fn check_list(
    s: &dyn DynScheme,
    m: &mut ListModel,
    tombstones: bool,
    acct: &mut Acct,
) -> Vec<ltree::LeafHandle> {
    let want = m.order(tombstones);
    let mut got = Vec::with_capacity(want.len());
    let mut prev: Option<u128> = None;
    let mut label_err = None;
    for h in Cursor::new(s) {
        match s.label_of(h) {
            Ok(l) if prev.is_none_or(|p| p < l) => prev = Some(l),
            Ok(l) => {
                let at = got.len();
                label_err
                    .get_or_insert_with(|| format!("walk: label {l} after {prev:?} at item {at}"));
            }
            Err(e) => {
                label_err.get_or_insert_with(|| format!("walk: label_of({h:?}): {e}"));
            }
        }
        got.push(h);
        if got.len() > want.len() + 1 {
            break; // a cycle or runaway cursor; the order check fails below
        }
    }
    acct.check(label_err.is_none(), || label_err.unwrap_or_default());
    acct.check(got == want, || {
        let at = got.iter().zip(&want).position(|(a, b)| a != b);
        format!(
            "walk: order differs from the model (got {} items, want {}, first difference at {at:?})",
            got.len(),
            want.len()
        )
    });
    let (live, len) = (s.live_len(), s.len());
    acct.check(live == m.live_len(), || {
        format!("live_len {live}, model {}", m.live_len())
    });
    acct.check(len == m.total_len(), || {
        format!("len {len}, model {}", m.total_len())
    });
    acct.check(s.memory_bytes() > 0, || "memory_bytes returned 0".into());
    got
}

/// The cost counters every round reports, as deterministic counts, plus
/// the per-round ratios derived from them.
pub fn record_stats(s: &dyn DynScheme, r: &mut Round) {
    let st = s.scheme_stats();
    r.counts.insert("inserts", st.inserts);
    r.counts.insert("deletes", st.deletes);
    r.counts.insert("label_writes", st.label_writes);
    r.counts.insert("node_touches", st.node_touches);
    r.counts.insert("relabel_events", st.relabel_events);
    let per_insert = st.label_writes as f64 / st.inserts.max(1) as f64;
    r.vals.insert("label_writes_per_insert", per_insert);
}

/// A program series by name: a counter in `metrics()`, else the value a
/// `stats_breakdown()` entry of that name carries.
pub fn series(s: &dyn Instrumented, name: &str) -> Option<u64> {
    let from_metrics = s.metrics().into_iter().find_map(|m| match m.value {
        MetricValue::Counter(v) if m.name == name => Some(v),
        _ => None,
    });
    from_metrics.or_else(|| {
        s.stats_breakdown()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, st)| st.node_touches)
    })
}

/// A program histogram by name from `metrics()` (empty when absent).
pub fn histogram(s: &dyn Instrumented, name: &str) -> HistogramSnapshot {
    s.metrics()
        .into_iter()
        .find_map(|m| match m.value {
            MetricValue::Histogram(h) if m.name == name => Some(h),
            _ => None,
        })
        .unwrap_or_default()
}

/// The `q`-quantile of a program histogram by [`bucket_quantile`] (the
/// snapshot's own `quantile` returns the bucket midpoint, which reads the
/// same in every run whose spread stays inside one bucket).
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let buckets = h.buckets.iter().map(|&(idx, c)| {
        let mid = value_for_index(idx);
        if idx < 1 << SUB_BITS {
            return (mid, 1, c);
        }
        // Bucket width is 2^(msb - SUB_BITS) (see `ltree::metrics`).
        let width = 1u64 << ((idx >> SUB_BITS) - 1);
        (mid - width / 2, width, c)
    });
    bucket_quantile(buckets, h.count, q)
}

/// `later − earlier` for two snapshots of one cumulative histogram.
pub fn hist_diff(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = HistogramSnapshot {
        count: later.count.saturating_sub(earlier.count),
        sum: later.sum.saturating_sub(earlier.sum),
        buckets: Vec::new(),
    };
    for &(idx, n) in &later.buckets {
        let before = earlier
            .buckets
            .iter()
            .find(|&&(i, _)| i == idx)
            .map_or(0, |&(_, c)| c);
        if n > before {
            out.buckets.push((idx, n - before));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_histogram_quantiles_move_within_their_bucket() {
        let mut h = HistogramSnapshot::new();
        for v in [10, 10, 1_000, 1_001, 1_002] {
            h.record(v);
        }
        assert_eq!(hist_quantile(&h, 0.0), 10.0, "exact below 2^SUB_BITS");
        let (p50, p99) = (hist_quantile(&h, 0.5), hist_quantile(&h, 0.99));
        assert!(p50 < p99 && (992.0..1_008.0).contains(&p99), "{p50} {p99}");
        assert_eq!(hist_quantile(&HistogramSnapshot::new(), 0.5), 0.0);
    }
}
