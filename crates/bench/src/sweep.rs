//! The scheme × workload × scale sweep.
//!
//! The registry makes scheme choice a string and `xmlgen` makes a
//! workload a replayable [`EditScript`](ltree::gen::EditScript), so a
//! sweep is a plain cross-product: for every `(initial size, workload
//! profile)` pair one seeded script is generated, and **every scheme
//! spec replays the same script** as batched splices. Each cell records
//! the [`SchemeStats`] counters (the paper's "nodes
//! accessed for searching or relabeling" currency), label width, the
//! spec's own memory, wall time, and — via the `traced(…)` observability
//! wrapper every cell replays under — in-scheme time and per-call p50/p99
//! latency quantiles (reported and persisted, never gated: latency is
//! machine-dependent); a cell whose scheme construction or replay fails
//! carries the error instead of silently vanishing.
//!
//! Results render as the usual markdown table *and* serialize to the
//! versioned `BENCH_sweep.json` (schema documented in
//! `crates/bench/README.md`) that CI uploads as an artifact and diffs
//! against the checked-in `BENCH_baseline.json`: any errored cell, or an
//! L-Tree-family cell whose label-write count, node-touch count or
//! `memory_bytes` is above the baseline's, fails the build, so the perf
//! trajectory is tracked by the machine instead of by eyeballing terminal
//! tables.

use crate::json::Json;
use crate::table::{f, Table};
use crate::Scale;
use ltree::gen::docedit::run_document_edits;
use ltree::gen::{generate_edits, standard_profiles, EditProfile, WorkloadReport};
use ltree::metrics::{HistogramSnapshot, Metric, MetricValue};
use ltree::obs::{mutation_histogram, TracedScheme};
use ltree::{DynScheme, Instrumented, LTreeError, SchemeStats};

/// Version of the `BENCH_sweep.json` schema. Bump on any breaking field
/// change; consumers must reject versions they do not know.
pub const SWEEP_SCHEMA_VERSION: u64 = 1;

/// What to sweep: scheme spec strings × workload profiles × initial
/// sizes, with the per-size operation budget and the script seed.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Registry spec strings ("ltree(4,2)", "gap", …).
    pub specs: Vec<String>,
    /// Workload shapes, fixed across sizes — or `None` to use
    /// [`standard_profiles`] re-derived per size, so run lengths scale
    /// with each size's ops budget instead of the first size's.
    pub profiles: Option<Vec<EditProfile>>,
    /// Initial bulk-build sizes.
    pub sizes: Vec<usize>,
    /// Operations (inserted items) per cell, as a fraction of the size.
    pub ops_factor: f64,
    /// Seed for script generation.
    pub seed: u64,
    /// Human-readable scale label recorded in the report.
    pub scale_label: &'static str,
    /// Also run the `doc-edit` workload per (size, spec): a seeded edit
    /// session against a real `Document<S>` (fragment insertions and
    /// subtree removals through the splice paths) instead of a leaf
    /// stream — see [`ltree::gen::docedit`].
    pub document_cells: bool,
}

/// The standard sweep at a given scale: every scheme family the
/// workspace ships × the five standard workload shapes.
pub fn default_config(scale: Scale) -> SweepConfig {
    let sizes = match scale {
        Scale::Quick => vec![1_000],
        Scale::Full => vec![10_000, 50_000],
    };
    SweepConfig {
        specs: vec![
            "ltree(4,2)".into(),
            "ltree(16,4)".into(),
            "virtual(4,2)".into(),
            "gap".into(),
            "list-label".into(),
            "naive".into(),
            // Sharded composites over the same L-Tree shape, at two
            // shard counts, so the report shows scaling across shards.
            "sharded(4,ltree(4,2))".into(),
            "sharded(8,ltree(4,2))".into(),
            // The networked store over an in-process server dialed over
            // TCP: same logical scheme as ltree(4,2), plus a wire; its
            // cells carry the round-trip count so batching shows up as a
            // column.
            "served(ltree(4,2))".into(),
            // The pooled client (4 connections; single-threaded replay,
            // so this pins the pool's overhead at ~zero).
            "served(ltree(4,2),conns=4)".into(),
            // The contract auditor over the same L-Tree shape: the
            // `audit ovh` column reports its wall-clock overhead vs the
            // plain ltree(4,2) twin (reported, never gated — the
            // auditor is a verification tool, not a contender).
            "checked(ltree(4,2))".into(),
            // The durability wrapper over the same shape (dir-less →
            // self-cleaning scratch dir; sync=never keeps the replay
            // from fsyncing per op in CI): the `dur ovh` column reports
            // its wall-clock overhead — WAL encode + append +
            // checkpoints — vs the plain ltree(4,2) twin (reported,
            // never gated, like `audit ovh`).
            "durable(ltree(4,2),sync=never)".into(),
        ],
        profiles: None,
        sizes,
        ops_factor: 0.5,
        seed: 42,
        scale_label: match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
        document_cells: true,
    }
}

/// One `(spec, workload, size)` measurement — or the error that kept it
/// from completing.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Registry spec string.
    pub spec: String,
    /// Workload profile name.
    pub workload: String,
    /// Initial bulk-build size.
    pub n: usize,
    /// Items the script inserts.
    pub ops: usize,
    /// The measurement, or the failure message.
    pub outcome: Result<CellMetrics, String>,
    /// Per-segment cost breakdown after the replay
    /// ([`ltree::Instrumented::stats_breakdown`]) — one entry per shard for
    /// partitioned schemes, empty for every other.
    pub shards: Vec<(String, SchemeStats)>,
    /// The `net/`, `wal/` and `audit/` metric counters the cell's stack
    /// reports after the replay, name-sorted: transport counts for
    /// remote schemes, log counts for durable ones, audit counts for
    /// checked ones; empty for plain local schemes.
    pub counters: Vec<(String, u64)>,
}

/// The metric namespaces a cell's `counters` record: transport,
/// write-ahead log and audit counts.
const CELL_COUNTER_PREFIXES: [&str; 3] = ["net/", "wal/", "audit/"];

impl SweepCell {
    /// Client round trips for remote schemes (the `net/round-trips`
    /// counter), `None` for local ones. Covers the replay and the
    /// end-of-run breakdown and metric reads — the handshake and
    /// initial bulk build are excluded, because the workload drivers
    /// reset the scheme counters after the bulk build and the client
    /// resets its transport counters with them.
    pub fn round_trips(&self) -> Option<u64> {
        self.counters
            .iter()
            .find(|(name, _)| name == "net/round-trips")
            .map(|&(_, v)| v)
    }

    /// Segments in the breakdown — what the table's shard-count column
    /// shows.
    pub fn segment_count(&self) -> usize {
        self.shards.len()
    }

    /// For a cell whose spec is a `checked(...)` auditor wrapper, the
    /// spec of the plain inner twin it audits (wrapper and any
    /// `every=N` sampling option stripped) — the baseline the
    /// `audit ovh` column compares wall-clock against. `None` for every
    /// other cell.
    pub fn checked_twin_spec(&self) -> Option<String> {
        let inner = self
            .spec
            .strip_prefix("checked(")
            .and_then(|s| s.strip_suffix(')'))?;
        // Drop a trailing `,every=N` option; the inner spec itself may
        // contain commas (`ltree(4,2)`), so only strip a suffix that
        // parses as the option.
        let inner = match inner.rfind(",every=") {
            Some(pos)
                if inner[pos + ",every=".len()..]
                    .chars()
                    .all(|c| c.is_ascii_digit()) =>
            {
                &inner[..pos]
            }
            _ => inner,
        };
        Some(inner.to_owned())
    }

    /// For a cell whose spec is a `durable(...)` wrapper, the spec of
    /// the plain inner twin (wrapper and any `dir=`/`sync=`/
    /// `checkpoint_every=` options stripped) — the baseline the
    /// `dur ovh` column compares wall-clock against. `None` for every
    /// other cell.
    pub fn durable_twin_spec(&self) -> Option<String> {
        let mut inner = self
            .spec
            .strip_prefix("durable(")
            .and_then(|s| s.strip_suffix(')'))?;
        // Drop trailing wrapper options; the inner spec itself may
        // contain commas (`ltree(4,2)`), so only strip suffixes that
        // parse as known `key=value` options.
        loop {
            let stripped = ["dir=", "sync=", "checkpoint_every="]
                .iter()
                .find_map(|key| {
                    let pos = inner.rfind(&format!(",{key}"))?;
                    let value = &inner[pos + 1 + key.len()..];
                    (!value.is_empty() && !value.contains([',', '(', ')'])).then_some(&inner[..pos])
                });
            match stripped {
                Some(rest) => inner = rest,
                None => break,
            }
        }
        Some(inner.to_owned())
    }
}

/// The numbers one completed cell records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellMetrics {
    /// Items inserted by the replay.
    pub inserted: u64,
    /// Items deleted by the replay.
    pub deleted: u64,
    /// Item labels written (initial assignment + relabelings).
    pub label_writes: u64,
    /// Maintenance node/entry accesses.
    pub node_touches: u64,
    /// Relabeling events.
    pub relabel_events: u64,
    /// Bits needed for any label at the end.
    pub label_space_bits: u32,
    /// Approximate heap use of the named spec at the end, bytes — read
    /// with the tracer the cell replays under unwrapped, so the tracer's
    /// histograms are not counted.
    pub memory_bytes: u64,
    /// Wall-clock of the replay, nanoseconds (driver bookkeeping
    /// included; machine-dependent, excluded from baseline checks).
    pub wall_ns: u64,
    /// Wall-clock inside scheme calls only, nanoseconds: the summed
    /// time of the write calls the `traced(…)` wrapper recorded (the
    /// mutation `obs/op/*` histograms). Machine-dependent and never
    /// gated, like `wall_ns`.
    pub scheme_wall_ns: u64,
    /// Median per-call latency across all `obs/op/*` histograms of the
    /// `traced(…)` wrapper every cell replays under, nanoseconds.
    /// Machine-dependent like the wall-clock columns — reported, never
    /// gated by the baseline check.
    pub p50_ns: u64,
    /// 99th-percentile per-call latency, nanoseconds (same source and
    /// same never-gated status as `p50_ns`).
    pub p99_ns: u64,
}

impl CellMetrics {
    fn from_report(r: &WorkloadReport, metrics: &[Metric], memory_bytes: u64) -> Self {
        let (p50_ns, p99_ns) = latency_quantiles(metrics);
        let SchemeStats {
            label_writes,
            node_touches,
            relabel_events,
            ..
        } = r.stats;
        CellMetrics {
            inserted: r.inserted,
            deleted: r.deleted,
            label_writes,
            node_touches,
            relabel_events,
            label_space_bits: r.label_space_bits,
            memory_bytes,
            wall_ns: r.wall.as_nanos() as u64,
            scheme_wall_ns: mutation_histogram(metrics).sum,
            p50_ns,
            p99_ns,
        }
    }

    /// Amortized label writes per inserted item — the headline number.
    pub fn relabels_per_op(&self) -> f64 {
        self.label_writes as f64 / self.inserted.max(1) as f64
    }

    /// Amortized total maintenance cost per inserted item.
    pub fn cost_per_op(&self) -> f64 {
        (self.label_writes + self.node_touches) as f64 / self.inserted.max(1) as f64
    }
}

/// A full sweep run: config echo plus one cell per cross-product entry.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Schema version ([`SWEEP_SCHEMA_VERSION`]).
    pub version: u64,
    /// Scale label ("quick" / "full").
    pub scale: String,
    /// Script-generation seed.
    pub seed: u64,
    /// All cells, in (size, workload, spec) iteration order.
    pub cells: Vec<SweepCell>,
}

/// Merge every `obs/op/*` latency histogram in a metrics snapshot into
/// one distribution and take its (p50, p99), nanoseconds. `(0, 0)` when
/// no samples were recorded (a cell that never entered the traced
/// wrapper's call paths).
fn latency_quantiles(metrics: &[Metric]) -> (u64, u64) {
    let mut merged = HistogramSnapshot::new();
    for m in metrics {
        if let (true, MetricValue::Histogram(h)) = (m.name.starts_with("obs/op/"), &m.value) {
            merged.merge(h);
        }
    }
    (merged.quantile(0.50), merged.quantile(0.99))
}

/// What a replayed cell reports: its measurement, per-segment breakdown
/// and metric counters.
type Observed = (CellMetrics, Vec<(String, SchemeStats)>, Vec<(String, u64)>);

/// Read a replayed cell's numbers off its traced stack. The breakdown is
/// read before the one metrics snapshot, so a remote cell's `net/`
/// counters include both collection round trips; `memory_bytes` is read
/// last, off the unwrapped spec, so it counts the spec's own bytes and
/// not the tracer's histograms.
fn observe(traced: TracedScheme<Box<dyn DynScheme>>, report: &WorkloadReport) -> Observed {
    let shards = traced.stats_breakdown();
    let metrics = traced.metrics();
    let counters = metrics
        .iter()
        .filter(|m| CELL_COUNTER_PREFIXES.iter().any(|p| m.name.starts_with(p)))
        .filter_map(|m| match m.value {
            MetricValue::Counter(v) => Some((m.name.clone(), v)),
            _ => None,
        })
        .collect();
    let memory_bytes = traced.into_inner().memory_bytes() as u64;
    let m = CellMetrics::from_report(report, &metrics, memory_bytes);
    (m, shards, counters)
}

/// Run the sweep. Per-cell failures are *recorded*, not propagated — a
/// broken scheme must not hide the rest of the matrix.
///
/// Every cell replays under a [`TracedScheme`] the sweep wraps around the
/// built spec (never part of the recorded spec string): the wrapper's
/// per-op latency histograms are where the cell's `p50_ns`/`p99_ns`
/// figures come from, its counters/breakdown forward to the inner scheme
/// untouched, and `memory_bytes` is read off the unwrapped spec, so the
/// deterministic columns are exactly what the bare spec would record.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let registry = ltree::default_registry();
    let mut cells = Vec::new();
    for &n in &cfg.sizes {
        let ops = ((n as f64 * cfg.ops_factor) as usize).max(1);
        let profiles = cfg
            .profiles
            .clone()
            .unwrap_or_else(|| standard_profiles(ops));
        for &profile in &profiles {
            let script = generate_edits(profile, n, ops, cfg.seed);
            for spec in &cfg.specs {
                let measured = registry
                    .build(spec)
                    .and_then(|scheme| {
                        let mut traced = TracedScheme::new(scheme);
                        let report = script.replay(&mut traced)?;
                        Ok(observe(traced, &report))
                    })
                    .map_err(|e: LTreeError| e.to_string());
                cells.push(cell(spec, profile.name(), n, ops, measured));
            }
        }
        if cfg.document_cells {
            // The document-shaped workload: the same ops budget applied
            // through a real Document's splice paths (`n` counts items,
            // two per element, matching the leaf-stream cells).
            for spec in &cfg.specs {
                let measured = registry
                    .build(spec)
                    .map_err(|e| e.to_string())
                    .and_then(|scheme| {
                        run_document_edits(TracedScheme::new(scheme), n / 2, ops, cfg.seed)
                            .map_err(|e| e.to_string())
                    })
                    .map(|(report, traced)| observe(traced, &report));
                cells.push(cell(spec, "doc-edit", n, ops, measured));
            }
        }
    }
    SweepReport {
        version: SWEEP_SCHEMA_VERSION,
        scale: cfg.scale_label.to_owned(),
        seed: cfg.seed,
        cells,
    }
}

fn cell(
    spec: &str,
    workload: &str,
    n: usize,
    ops: usize,
    measured: Result<Observed, String>,
) -> SweepCell {
    let (outcome, shards, counters) = match measured {
        Ok((m, shards, counters)) => (Ok(m), shards, counters),
        Err(e) => (Err(e), Vec::new(), Vec::new()),
    };
    SweepCell {
        spec: spec.to_owned(),
        workload: workload.to_owned(),
        n,
        ops,
        outcome,
        shards,
        counters,
    }
}

impl SweepReport {
    /// Cells that failed, as `(cell, error)` pairs.
    pub fn errored(&self) -> Vec<(&SweepCell, &str)> {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().err().map(|e| (c, e.as_str())))
            .collect()
    }

    /// The cell that ran `spec` on `cell`'s workload, size and budget.
    fn twin(&self, cell: &SweepCell, spec: &str) -> Option<&SweepCell> {
        self.cells.iter().find(|t| {
            t.spec == spec && t.workload == cell.workload && t.n == cell.n && t.ops == cell.ops
        })
    }

    /// In-scheme wall-clock overhead of a wrapper cell against the twin
    /// that ran `twin_spec`, its plain inner scheme, as a percentage of
    /// the twin's in-scheme time (positive = the wrapper costs time):
    /// the `audit ovh` column for a `checked(...)` cell
    /// ([`SweepCell::checked_twin_spec`]) and `dur ovh` for a
    /// `durable(...)` one ([`SweepCell::durable_twin_spec`]). Reported,
    /// never gated: wall-clock is machine-dependent, the auditor's O(n)
    /// shadow audits are expected to dominate the wrapped scheme, and the
    /// durable cell's `sync=never` figure measures encoding + appends +
    /// checkpoints, not the fsyncs a production `sync=always` store
    /// would add. `None` when either cell failed or the twin is missing.
    fn overhead(&self, cell: &SweepCell, twin_spec: &str) -> Option<f64> {
        let m = cell.outcome.as_ref().ok()?;
        let t = self.twin(cell, twin_spec)?.outcome.as_ref().ok()?;
        if t.scheme_wall_ns == 0 {
            return None;
        }
        Some((m.scheme_wall_ns as f64 - t.scheme_wall_ns as f64) * 100.0 / t.scheme_wall_ns as f64)
    }

    /// The markdown table the terminal run prints.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Sweep — scheme × workload × size ({} scale, seed {})",
                self.scale, self.seed
            ),
            &[
                "n",
                "workload",
                "scheme",
                "relabels/op",
                "cost/op",
                "relabel events",
                "bits",
                "KiB",
                "ms",
                "p50 µs",
                "p99 µs",
                "shards",
                "rtt",
                "audit ovh",
                "dur ovh",
            ],
        );
        t.note("One seeded edit script per (n, workload), replayed by every scheme as");
        t.note("batched splices (doc-edit instead drives a real Document's splice paths).");
        t.note("relabels/op = label writes per inserted item (the paper's cost unit); the");
        t.note("same numbers are emitted to BENCH_sweep.json for CI.");
        t.note("shards = final segment count for partitioned schemes (the JSON report");
        t.note("carries the full per-shard counter breakdown, plus each cell's net/, wal/");
        t.note("and audit/ metric counters); rtt = client round trips");
        t.note("for remote schemes — batching is what keeps it near the splice count;");
        t.note("audit ovh = in-scheme wall-clock a `checked` cell costs vs its plain twin");
        t.note("(reported, never gated — the contract auditor is verification, not a");
        t.note("contender); dur ovh = the same figure for a `durable` cell's write-ahead");
        t.note("log (sync=never in the matrix, so it prices encoding + appends +");
        t.note("checkpoints, not fsyncs — also reported, never gated).");
        t.note("p50/p99 µs = per-call latency quantiles from the traced wrapper's");
        t.note("obs/op/* histograms every cell replays under (machine-dependent, so");
        t.note("reported and persisted to the JSON but never gated, like ms). KiB =");
        t.note("the named spec's own memory; the tracer's histograms are not counted.");
        for c in &self.cells {
            let overhead = |twin: Option<String>| match twin.and_then(|t| self.overhead(c, &t)) {
                None => "—".into(),
                Some(pct) => format!("{pct:+.0}%"),
            };
            match &c.outcome {
                Ok(m) => t.row(vec![
                    c.n.to_string(),
                    c.workload.clone(),
                    c.spec.clone(),
                    f(m.relabels_per_op()),
                    f(m.cost_per_op()),
                    m.relabel_events.to_string(),
                    m.label_space_bits.to_string(),
                    (m.memory_bytes / 1024).to_string(),
                    f(m.wall_ns as f64 / 1.0e6),
                    f(m.p50_ns as f64 / 1.0e3),
                    f(m.p99_ns as f64 / 1.0e3),
                    match c.segment_count() {
                        0 => "—".into(),
                        k => k.to_string(),
                    },
                    match c.round_trips() {
                        None => "—".into(),
                        Some(rt) => rt.to_string(),
                    },
                    overhead(c.checked_twin_spec()),
                    overhead(c.durable_twin_spec()),
                ]),
                Err(e) => t.row(
                    [c.n.to_string(), c.workload.clone(), c.spec.clone()]
                        .into_iter()
                        .chain(std::iter::once(format!("ERROR: {e}")))
                        .chain(std::iter::repeat_n("—".to_string(), 11))
                        .collect(),
                ),
            };
        }
        t
    }

    /// Scale trend lines: for every `(workload, spec)` pair measured at
    /// more than one initial size, how the headline numbers move from
    /// the smallest to the largest `n` — the growth story a single-size
    /// table cannot show. `None` when the sweep ran at one size (quick
    /// scale), so callers print it only when it says something.
    pub fn trend_table(&self) -> Option<Table> {
        let mut sizes: Vec<usize> = self.cells.iter().map(|c| c.n).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let (&lo, &hi) = (sizes.first()?, sizes.last()?);
        if lo == hi {
            return None;
        }
        let mut t = Table::new(
            format!("Scale trends — n={lo} → n={hi} ({} scale)", self.scale),
            &[
                "workload",
                "scheme",
                "relabels/op",
                "cost/op",
                "p99 µs",
                "relabels growth",
            ],
        );
        t.note("Each row pairs a (workload, scheme) cell at the smallest and largest");
        t.note("sweep size; `a → b` reads small → large. relabels growth = the ratio");
        t.note("of the two relabels/op figures — near ×1 means the amortized cost is");
        t.note("flat in n (the paper's claim for the L-Tree family). Latency columns");
        t.note("are machine-dependent and, as everywhere, never gated.");
        let arrow = |a: f64, b: f64| format!("{} → {}", f(a), f(b));
        for c in &self.cells {
            if c.n != lo {
                continue;
            }
            let Ok(m) = &c.outcome else { continue };
            let Some(big) = self.cells.iter().find(|b| {
                b.n == hi && b.spec == c.spec && b.workload == c.workload && b.outcome.is_ok()
            }) else {
                continue;
            };
            let bm = big.outcome.as_ref().expect("filtered to ok above");
            t.row(vec![
                c.workload.clone(),
                c.spec.clone(),
                arrow(m.relabels_per_op(), bm.relabels_per_op()),
                arrow(m.cost_per_op(), bm.cost_per_op()),
                arrow(m.p99_ns as f64 / 1.0e3, bm.p99_ns as f64 / 1.0e3),
                if m.relabels_per_op() > 0.0 {
                    format!("×{:.2}", bm.relabels_per_op() / m.relabels_per_op())
                } else {
                    "—".into()
                },
            ]);
        }
        Some(t)
    }

    /// Serialize to the versioned `BENCH_sweep.json` schema.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut members: Vec<(String, Json)> = vec![
                    ("spec".into(), c.spec.as_str().into()),
                    ("workload".into(), c.workload.as_str().into()),
                    ("n".into(), c.n.into()),
                    ("ops".into(), c.ops.into()),
                    ("ok".into(), c.outcome.is_ok().into()),
                ];
                match &c.outcome {
                    Ok(m) => {
                        members.extend([
                            ("inserted".into(), m.inserted.into()),
                            ("deleted".into(), m.deleted.into()),
                            ("label_writes".into(), m.label_writes.into()),
                            ("node_touches".into(), m.node_touches.into()),
                            ("relabel_events".into(), m.relabel_events.into()),
                            ("relabels_per_op".into(), m.relabels_per_op().into()),
                            ("label_space_bits".into(), m.label_space_bits.into()),
                            ("memory_bytes".into(), m.memory_bytes.into()),
                            ("wall_ns".into(), m.wall_ns.into()),
                            ("scheme_wall_ns".into(), m.scheme_wall_ns.into()),
                            // Additive within schema version 1: per-call
                            // latency quantiles from the traced wrapper
                            // (machine-dependent — dashboards only,
                            // never read by the baseline gate).
                            ("p50_ns".into(), m.p50_ns.into()),
                            ("p99_ns".into(), m.p99_ns.into()),
                        ]);
                        // Additive within schema version 1: present for
                        // remote schemes only — the client's round-trip
                        // count (the net/round-trips counter,
                        // precomputed for dashboards).
                        if let Some(rt) = c.round_trips() {
                            members.push(("round_trips".into(), rt.into()));
                        }
                        // Additive within schema version 1: absent for
                        // monolithic schemes, one entry per segment for
                        // partitioned ones.
                        if !c.shards.is_empty() {
                            let shards = c
                                .shards
                                .iter()
                                .map(|(name, s)| {
                                    Json::Obj(vec![
                                        ("name".into(), name.as_str().into()),
                                        ("inserts".into(), s.inserts.into()),
                                        ("deletes".into(), s.deletes.into()),
                                        ("label_writes".into(), s.label_writes.into()),
                                        ("node_touches".into(), s.node_touches.into()),
                                        ("relabel_events".into(), s.relabel_events.into()),
                                    ])
                                })
                                .collect();
                            members.push(("shards".into(), Json::Arr(shards)));
                        }
                        // Additive within schema version 1: the cell's
                        // net/, wal/ and audit/ metric counters by name,
                        // absent when the stack reports none.
                        if !c.counters.is_empty() {
                            let counters = c
                                .counters
                                .iter()
                                .map(|(name, v)| (name.clone(), (*v).into()))
                                .collect();
                            members.push(("counters".into(), Json::Obj(counters)));
                        }
                    }
                    Err(e) => members.push(("error".into(), e.as_str().into())),
                }
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            ("kind".into(), "ltree-bench-sweep".into()),
            ("version".into(), self.version.into()),
            ("scale".into(), self.scale.as_str().into()),
            ("seed".into(), self.seed.into()),
            ("cells".into(), Json::Arr(cells)),
        ])
        .to_string_pretty()
    }

    /// Parse a `BENCH_sweep.json` document (for baseline comparison).
    pub fn from_json(text: &str) -> Result<SweepReport, String> {
        let doc = Json::parse(text)?;
        if doc.get("kind").and_then(Json::as_str) != Some("ltree-bench-sweep") {
            return Err("not a ltree-bench-sweep document".into());
        }
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing version")?;
        if version != SWEEP_SCHEMA_VERSION {
            return Err(format!(
                "unsupported sweep schema version {version} (this build reads {SWEEP_SCHEMA_VERSION})"
            ));
        }
        let field = |c: &Json, k: &str| -> Result<u64, String> {
            c.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell missing '{k}'"))
        };
        let mut cells = Vec::new();
        for c in doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("missing cells")?
        {
            let spec = c
                .get("spec")
                .and_then(Json::as_str)
                .ok_or("cell missing 'spec'")?
                .to_owned();
            let workload = c
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("cell missing 'workload'")?
                .to_owned();
            let n = field(c, "n")? as usize;
            let ops = field(c, "ops")? as usize;
            let outcome = if c.get("ok").and_then(Json::as_bool) == Some(true) {
                Ok(CellMetrics {
                    inserted: field(c, "inserted")?,
                    deleted: field(c, "deleted")?,
                    label_writes: field(c, "label_writes")?,
                    node_touches: field(c, "node_touches")?,
                    relabel_events: field(c, "relabel_events")?,
                    label_space_bits: field(c, "label_space_bits")? as u32,
                    memory_bytes: field(c, "memory_bytes")?,
                    wall_ns: field(c, "wall_ns")?,
                    scheme_wall_ns: field(c, "scheme_wall_ns")?,
                    // Additive in schema version 1 — absent from older
                    // documents, so missing means "not recorded".
                    p50_ns: c.get("p50_ns").and_then(Json::as_u64).unwrap_or(0),
                    p99_ns: c.get("p99_ns").and_then(Json::as_u64).unwrap_or(0),
                })
            } else {
                Err(c
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_owned())
            };
            let mut shards = Vec::new();
            if let Some(list) = c.get("shards").and_then(Json::as_array) {
                for s in list {
                    let name = s
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("shard missing 'name'")?
                        .to_owned();
                    shards.push((
                        name,
                        SchemeStats {
                            inserts: field(s, "inserts")?,
                            deletes: field(s, "deletes")?,
                            label_writes: field(s, "label_writes")?,
                            node_touches: field(s, "node_touches")?,
                            relabel_events: field(s, "relabel_events")?,
                        },
                    ));
                }
            }
            let mut counters = Vec::new();
            if let Some(Json::Obj(members)) = c.get("counters") {
                for (name, v) in members {
                    let v = v
                        .as_u64()
                        .ok_or_else(|| format!("counter '{name}' is not a count"))?;
                    counters.push((name.clone(), v));
                }
            }
            cells.push(SweepCell {
                spec,
                workload,
                n,
                ops,
                outcome,
                shards,
                counters,
            });
        }
        Ok(SweepReport {
            version,
            scale: doc
                .get("scale")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            cells,
        })
    }
}

/// Compare a fresh sweep against a checked-in baseline: for every
/// L-Tree-family cell (spec starting with `ltree`, `virtual`, `sharded`,
/// `served` or `durable`) present in both, none of the current
/// **label-write count**, **node-touch count** and **`memory_bytes`**
/// may exceed the baseline's, by even one. All three repeat exactly:
/// the counters are seeded and deterministic, and `memory_bytes` counts
/// buffer capacity after the same seeded script, so none needs headroom
/// (wall-clock fields are deliberately ignored). Returns the list of
/// violations, empty when the sweep is clean.
pub fn compare_with_baseline(current: &SweepReport, baseline: &SweepReport) -> Vec<String> {
    let mut problems = Vec::new();
    for cur in &current.cells {
        if !(cur.spec.starts_with("ltree")
            || cur.spec.starts_with("virtual")
            || cur.spec.starts_with("sharded")
            || cur.spec.starts_with("served")
            || cur.spec.starts_with("durable"))
        {
            continue;
        }
        let Some(base) = baseline.cells.iter().find(|b| {
            b.spec == cur.spec && b.workload == cur.workload && b.n == cur.n && b.ops == cur.ops
        }) else {
            continue; // new cell: nothing to regress against
        };
        match (&cur.outcome, &base.outcome) {
            (Ok(c), Ok(b)) => {
                if c.label_writes > b.label_writes {
                    problems.push(format!(
                        "{} × {} × n={}: label writes {} exceed baseline {}",
                        cur.spec, cur.workload, cur.n, c.label_writes, b.label_writes
                    ));
                }
                if c.node_touches > b.node_touches {
                    problems.push(format!(
                        "{} × {} × n={}: node touches {} exceed baseline {}",
                        cur.spec, cur.workload, cur.n, c.node_touches, b.node_touches
                    ));
                }
                if c.memory_bytes > b.memory_bytes {
                    problems.push(format!(
                        "{} × {} × n={}: memory {} B exceeds baseline {} B",
                        cur.spec, cur.workload, cur.n, c.memory_bytes, b.memory_bytes
                    ));
                }
            }
            (Err(e), _) => problems.push(format!(
                "{} × {} × n={}: errored ({e})",
                cur.spec, cur.workload, cur.n
            )),
            (Ok(_), Err(_)) => {} // baseline was broken; current is better
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_SPECS: [&str; 6] = [
        "ltree(4,2)",
        "gap",
        "naive",
        "sharded(2,32,4,ltree(4,2))",
        "served(ltree(4,2))",
        "served(ltree(4,2),conns=4)",
    ];
    const TINY_WORKLOADS: [&str; 6] = [
        "bulk-load",
        "append-heavy",
        "skewed-point",
        "mixed-edit",
        "delete-heavy",
        "doc-edit",
    ];

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            specs: TINY_SPECS.iter().map(|s| s.to_string()).collect(),
            profiles: Some(standard_profiles(64)),
            sizes: vec![128],
            ops_factor: 0.5,
            seed: 7,
            scale_label: "test",
            document_cells: true,
        }
    }

    #[test]
    fn sweep_covers_the_cross_product_without_errors() {
        let report = run_sweep(&tiny_config());
        assert_eq!(report.cells.len(), 6 * 6);
        assert!(report.errored().is_empty(), "{:?}", report.errored());
        let table = report.to_table();
        assert_eq!(table.rows.len(), 36);
        // Every workload (doc-edit included) appears for every spec.
        for spec in TINY_SPECS {
            for wl in TINY_WORKLOADS {
                assert!(
                    report
                        .cells
                        .iter()
                        .any(|c| c.spec == spec && c.workload == wl),
                    "missing {spec} × {wl}"
                );
            }
        }
    }

    #[test]
    fn bad_specs_become_errored_cells_not_panics() {
        let mut cfg = tiny_config();
        cfg.specs.push("no-such-scheme".into());
        let report = run_sweep(&cfg);
        let errored = report.errored();
        assert_eq!(errored.len(), 6, "one errored cell per workload");
        assert!(errored[0].1.contains("no-such-scheme"));
        // The rest of the matrix still ran.
        assert_eq!(report.cells.len(), 7 * 6);
    }

    #[test]
    fn sharded_cells_carry_the_per_shard_breakdown() {
        let report = run_sweep(&tiny_config());
        for c in &report.cells {
            if c.spec.starts_with("sharded") {
                assert!(c.segment_count() > 0, "{} × {}", c.spec, c.workload);
                let agg: u64 = c.shards.iter().map(|(_, s)| s.label_writes).sum();
                let m = c.outcome.as_ref().unwrap();
                // Live segments cannot have written more labels than the
                // aggregate (retired segments fold into the aggregate).
                assert!(agg <= m.label_writes, "{} × {}", c.spec, c.workload);
            } else {
                // Transport counts are metric counters, never segments.
                assert!(c.shards.is_empty(), "{}", c.spec);
            }
        }
    }

    #[test]
    fn served_cells_carry_round_trips_and_match_the_local_scheme() {
        let report = run_sweep(&tiny_config());
        for c in &report.cells {
            if c.spec.starts_with("served") {
                let rt = c
                    .round_trips()
                    .unwrap_or_else(|| panic!("{} × {} has no rtt", c.spec, c.workload));
                assert!(rt > 0, "{} × {}", c.spec, c.workload);
                // The wire adds round trips, not label maintenance: the
                // served(ltree(4,2)) cells (pooled or not) must report
                // exactly the ltree(4,2) counters for the same workload.
                let local = report
                    .cells
                    .iter()
                    .find(|l| l.spec == "ltree(4,2)" && l.workload == c.workload && l.n == c.n)
                    .expect("local twin exists");
                let (m, lm) = (c.outcome.as_ref().unwrap(), local.outcome.as_ref().unwrap());
                assert_eq!(m.label_writes, lm.label_writes, "{}", c.workload);
                assert_eq!(m.relabel_events, lm.relabel_events, "{}", c.workload);
            } else {
                assert_eq!(c.round_trips(), None, "{}", c.spec);
            }
        }
    }

    /// The durable cell: counters identical to its plain twin (the
    /// wrapper forwards the inner scheme's stats — durability is pure
    /// overhead, never label maintenance), `wal/...` metric counters
    /// but no breakdown entries, and a `dur ovh` figure against the
    /// twin.
    #[test]
    fn durable_cells_report_overhead_against_their_plain_twin() {
        let mut cfg = tiny_config();
        cfg.specs = vec![
            "ltree(4,2)".into(),
            "durable(ltree(4,2),sync=never)".into(),
            "durable(ltree(4,2),sync=never,checkpoint_every=64)".into(),
        ];
        let report = run_sweep(&cfg);
        assert!(report.errored().is_empty(), "{:?}", report.errored());
        let table = report.to_table();
        let mut saw = 0;
        for (c, row) in report.cells.iter().zip(&table.rows) {
            let dur_ovh = &row[14];
            let Some(twin_spec) = c.durable_twin_spec() else {
                assert_eq!(dur_ovh, "—", "{}: unexpected dur ovh", c.spec);
                continue;
            };
            assert_eq!(twin_spec, "ltree(4,2)", "{}", c.spec);
            assert_ne!(
                dur_ovh, "—",
                "{} × {}: no dur ovh figure",
                c.spec, c.workload
            );
            assert_eq!(c.segment_count(), 0, "{}: the WAL is not a shard", c.spec);
            assert!(
                c.counters.iter().any(|(n, _)| n == "wal/appends"),
                "{}: counters carry the WAL counts",
                c.spec
            );
            let twin = report
                .cells
                .iter()
                .find(|t| t.spec == twin_spec && t.workload == c.workload && t.n == c.n)
                .expect("plain twin exists");
            let (m, tm) = (c.outcome.as_ref().unwrap(), twin.outcome.as_ref().unwrap());
            assert_eq!(
                m.label_writes, tm.label_writes,
                "{} × {}",
                c.spec, c.workload
            );
            assert_eq!(
                m.relabel_events, tm.relabel_events,
                "{} × {}",
                c.spec, c.workload
            );
            saw += 1;
        }
        assert_eq!(saw, 12, "two durable cells per workload (6 workloads)");
    }

    /// Every completed cell replays under `traced(…)`, so its in-scheme
    /// time and latency quantiles are real measurements: nonzero, within
    /// the replay's wall time, ordered, and carried through the JSON
    /// round trip like every other field.
    #[test]
    fn cells_carry_latency_quantiles_from_the_traced_wrapper() {
        let report = run_sweep(&tiny_config());
        for c in &report.cells {
            let m = c.outcome.as_ref().unwrap();
            assert!(
                0 < m.scheme_wall_ns && m.scheme_wall_ns <= m.wall_ns,
                "{} × {}: scheme time {} outside (0, wall {}]",
                c.spec,
                c.workload,
                m.scheme_wall_ns,
                m.wall_ns
            );
            assert!(m.p50_ns > 0, "{} × {}: empty p50", c.spec, c.workload);
            assert!(
                m.p99_ns >= m.p50_ns,
                "{} × {}: p99 {} below p50 {}",
                c.spec,
                c.workload,
                m.p99_ns,
                m.p50_ns
            );
        }
        // Older baseline documents predate the fields: absent reads as 0
        // instead of a parse error, keeping the schema version stable.
        let json = report.to_json().replace("\"p50_ns\"", "\"p50_gone\"");
        let back = SweepReport::from_json(&json).unwrap();
        assert_eq!(back.cells[0].outcome.as_ref().unwrap().p50_ns, 0);
    }

    /// Trend lines exist exactly when the sweep spans several sizes, and
    /// pair each (workload, scheme) across the extremes.
    #[test]
    fn trend_table_appears_only_for_multi_size_sweeps() {
        let single = run_sweep(&tiny_config());
        assert!(single.trend_table().is_none(), "one size → no trends");

        let mut cfg = tiny_config();
        cfg.specs = vec!["ltree(4,2)".into(), "gap".into()];
        cfg.sizes = vec![128, 512];
        let report = run_sweep(&cfg);
        let t = report.trend_table().expect("two sizes → trends");
        assert_eq!(t.rows.len(), 2 * 6, "one row per (scheme, workload)");
        assert!(t.rows.iter().all(|r| r[2].contains(" → ")));
    }

    #[test]
    fn json_roundtrip_preserves_cells() {
        let report = run_sweep(&tiny_config());
        let text = report.to_json();
        let back = SweepReport::from_json(&text).unwrap();
        assert_eq!(back.version, SWEEP_SCHEMA_VERSION);
        assert_eq!(back.cells.len(), report.cells.len());
        for (a, b) in report.cells.iter().zip(&back.cells) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.n, b.n);
            assert_eq!(
                a.outcome.as_ref().unwrap(),
                b.outcome.as_ref().unwrap(),
                "{} × {}",
                a.spec,
                a.workload
            );
            assert_eq!(a.shards, b.shards, "{} × {}", a.spec, a.workload);
            assert_eq!(a.counters, b.counters, "{} × {}", a.spec, a.workload);
        }
        assert!(
            back.cells.iter().any(|c| c.round_trips().is_some()),
            "served cells keep their counters through the round trip"
        );
    }

    /// A cell's `memory_bytes` is the named spec's own: the same seeded
    /// script replayed on the bare spec leaves exactly as many bytes, so
    /// the tracer every cell replays under is not counted.
    #[test]
    fn memory_column_is_the_named_specs_own() {
        let cfg = tiny_config();
        let report = run_sweep(&cfg);
        let registry = ltree::default_registry();
        let profiles = cfg
            .profiles
            .as_ref()
            .expect("tiny config fixes its profiles");
        let n = cfg.sizes[0];
        let local = report
            .cells
            .iter()
            .filter(|c| !c.spec.starts_with("served"));
        let mut saw = 0;
        for c in local {
            let mut bare = registry.build(&c.spec).unwrap();
            let bare_report = match profiles.iter().find(|p| p.name() == c.workload) {
                Some(&p) => generate_edits(p, n, c.ops, cfg.seed)
                    .replay(&mut bare)
                    .unwrap(),
                None => run_document_edits(bare, n / 2, c.ops, cfg.seed).unwrap().0,
            };
            assert_eq!(
                c.outcome.as_ref().unwrap().memory_bytes,
                bare_report.memory_bytes as u64,
                "{} × {}",
                c.spec,
                c.workload
            );
            saw += 1;
        }
        assert_eq!(saw, 4 * 6, "four local specs × six workloads");
    }

    /// Cost columns and metric counters repeat exactly between runs —
    /// except the client's `net/bytes-in`, which includes the size of
    /// the metrics scrape itself, latency histograms and all.
    #[test]
    fn sweeps_are_deterministic_in_counters() {
        let a = run_sweep(&tiny_config());
        let b = run_sweep(&tiny_config());
        let stable = |c: &SweepCell| -> Vec<(String, u64)> {
            c.counters
                .iter()
                .filter(|(name, _)| name != "net/bytes-in")
                .cloned()
                .collect()
        };
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            let (ma, mb) = (ca.outcome.as_ref().unwrap(), cb.outcome.as_ref().unwrap());
            assert_eq!(ma.label_writes, mb.label_writes, "{}", ca.spec);
            assert_eq!(ma.node_touches, mb.node_touches, "{}", ca.spec);
            assert_eq!(ma.relabel_events, mb.relabel_events, "{}", ca.spec);
            assert_eq!(stable(ca), stable(cb), "{} × {}", ca.spec, ca.workload);
        }
    }

    #[test]
    fn baseline_comparison_flags_regressions_and_errors() {
        let base = run_sweep(&tiny_config());
        assert!(
            compare_with_baseline(&base, &base).is_empty(),
            "a sweep never regresses against itself"
        );
        // No headroom: one label write over the baseline is a regression.
        let mut worse = base.clone();
        for c in &mut worse.cells {
            if let Ok(m) = &mut c.outcome {
                m.label_writes += 1;
            }
        }
        let problems = compare_with_baseline(&worse, &base);
        assert!(
            !problems.is_empty()
                && problems
                    .iter()
                    .all(|p| p.contains("label writes") && p.contains("ltree")),
            "only L-Tree-family label writes are gated: {problems:?}"
        );
        let mut broken = base.clone();
        broken.cells[0].outcome = Err("boom".into());
        assert!(compare_with_baseline(&broken, &base)
            .iter()
            .any(|p| p.contains("boom")));
        // One node touch over the baseline is a regression too.
        let mut busier = base.clone();
        for c in &mut busier.cells {
            if let Ok(m) = &mut c.outcome {
                m.node_touches += 1;
            }
        }
        let problems = compare_with_baseline(&busier, &base);
        assert!(
            !problems.is_empty()
                && problems
                    .iter()
                    .all(|p| p.contains("node touches") && p.contains("ltree")),
            "only L-Tree-family node touches are gated: {problems:?}"
        );
        // Memory has no headroom either.
        let mut bigger = base.clone();
        for c in &mut bigger.cells {
            if let Ok(m) = &mut c.outcome {
                m.memory_bytes += 1;
            }
        }
        let problems = compare_with_baseline(&bigger, &base);
        assert!(
            !problems.is_empty()
                && problems
                    .iter()
                    .all(|p| p.contains("memory") && p.contains("ltree")),
            "only L-Tree-family memory is gated: {problems:?}"
        );
        // So are the durable wrapper's cells: its handle table is part
        // of the memory column.
        let mut durable = base.clone();
        durable.cells.retain(|c| c.spec == "ltree(4,2)");
        for c in &mut durable.cells {
            c.spec = "durable(ltree(4,2),sync=never)".into();
        }
        let mut heavier = durable.clone();
        if let Ok(m) = &mut heavier.cells[0].outcome {
            m.memory_bytes += 1;
        }
        let problems = compare_with_baseline(&heavier, &durable);
        assert!(
            problems.len() == 1
                && problems[0].contains("durable")
                && problems[0].contains("memory"),
            "one byte over a durable cell is a regression: {problems:?}"
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut report = run_sweep(&tiny_config());
        report.version = 99;
        assert!(SweepReport::from_json(&report.to_json())
            .unwrap_err()
            .contains("version"));
        assert!(SweepReport::from_json("{\"kind\": \"other\"}").is_err());
    }
}
