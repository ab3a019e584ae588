//! Smoke runs of every workload, the name agreement with
//! `BENCHMARK.json`, and seeded failures that prove each check fires.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ltree::{
    BatchLabeling, DynScheme, Instrumented, LTree, LeafHandle, OrderedLabeling, OrderedLabelingMut,
    Result, SchemeStats, Splice, SpliceResult,
};

use crate::bench::{params, Cfg, Make};
use crate::json::Json;
use crate::report::{END_TO_END, LAYER_DETAIL, PER_LAYER, WORKLOADS};
use crate::{run_workload, RunOut, DEFAULT_SECONDS};

const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

/// How a [`Liar`] lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lie {
    /// Every label reversed (`u128::MAX - label`): order answers invert.
    ReverseLabels,
    /// The cursor skips the first item.
    HideFirst,
    /// `live_len` reports one item too many.
    ExtraLive,
    /// `memory_bytes` reports 0.
    ZeroMemory,
    /// Each instance adds its own constant to `label_writes`, so
    /// counters differ between rounds.
    DriftingStats,
}

/// `ltree(4,2)` behind a wrapper that lies in one way.
pub struct Liar {
    inner: LTree,
    lie: Lie,
    drift: u64,
}

/// Instances made so far: the `DriftingStats` offset.
static INSTANCES: AtomicU64 = AtomicU64::new(0);

impl Liar {
    pub fn new(lie: Lie) -> Self {
        Liar {
            inner: LTree::new(params()),
            lie,
            // relaxed: a distinct number per instance is all that is needed.
            drift: INSTANCES.fetch_add(1, Ordering::Relaxed),
        }
    }

    pub fn make(lie: Lie) -> Make {
        Arc::new(move |_| -> Box<dyn DynScheme> { Box::new(Liar::new(lie)) })
    }
}

impl OrderedLabeling for Liar {
    fn name(&self) -> &'static str {
        "liar"
    }
    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        let l = self.inner.label_of(h)?;
        Ok(if self.lie == Lie::ReverseLabels {
            u128::MAX - l
        } else {
            l
        })
    }
    fn len(&self) -> usize {
        OrderedLabeling::len(&self.inner)
    }
    fn live_len(&self) -> usize {
        OrderedLabeling::live_len(&self.inner) + usize::from(self.lie == Lie::ExtraLive)
    }
    fn first_in_order(&self) -> Option<LeafHandle> {
        let first = self.inner.first_in_order();
        if self.lie == Lie::HideFirst {
            first.and_then(|f| self.inner.next_in_order(f))
        } else {
            first
        }
    }
    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        self.inner.next_in_order(h)
    }
    fn label_space_bits(&self) -> u32 {
        OrderedLabeling::label_space_bits(&self.inner)
    }
    fn memory_bytes(&self) -> usize {
        if self.lie == Lie::ZeroMemory {
            0
        } else {
            OrderedLabeling::memory_bytes(&self.inner)
        }
    }
}

impl OrderedLabelingMut for Liar {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        OrderedLabelingMut::bulk_build(&mut self.inner, n)
    }
    fn insert_first(&mut self) -> Result<LeafHandle> {
        OrderedLabelingMut::insert_first(&mut self.inner)
    }
    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        OrderedLabelingMut::insert_after(&mut self.inner, anchor)
    }
    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        OrderedLabelingMut::insert_before(&mut self.inner, anchor)
    }
    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        OrderedLabelingMut::delete(&mut self.inner, h)
    }
}

impl BatchLabeling for Liar {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        BatchLabeling::insert_many_after(&mut self.inner, anchor, k)
    }
    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        self.inner.delete_run(first, count)
    }
    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        self.inner.splice(op)
    }
}

impl Instrumented for Liar {
    fn scheme_stats(&self) -> SchemeStats {
        let mut s = self.inner.scheme_stats();
        if self.lie == Lie::DriftingStats {
            s.label_writes += self.drift;
        }
        s
    }
    fn reset_scheme_stats(&mut self) {
        self.inner.reset_scheme_stats()
    }
}

fn smoke_cfg(tag: &str) -> Cfg {
    Cfg {
        seed: 42,
        smoke: true,
        work: ltree::remote::scratch_dir(tag),
    }
}

/// One smoke-scale run of `name` over the scheme `make` builds.
pub fn smoke_run(name: &str, make: Make, trace: bool) -> RunOut {
    let cfg = smoke_cfg(name);
    std::fs::create_dir_all(&cfg.work).expect("scratch space for the run");
    let out = run_workload(name, &cfg, 0.0, trace, make);
    let _ = std::fs::remove_dir_all(&cfg.work);
    out
}

fn failed(out: &RunOut) -> u64 {
    out.line.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn notes(out: &RunOut) -> Vec<String> {
    out.full
        .get("failures")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|n| n.as_str().map(str::to_owned))
        .collect()
}

fn assert_fires(out: &RunOut, needle: &str) {
    let notes = notes(out);
    assert!(failed(out) > 0, "no failure recorded");
    assert!(
        notes.iter().any(|n| n.contains(needle)),
        "no failure mentions {needle:?}: {notes:?}"
    );
}

fn bench() -> Json {
    Json::parse(BENCHMARK).expect("BENCHMARK.json parses")
}

fn listed(section: &str, keys: &[&str]) -> Vec<Vec<String>> {
    bench()
        .get(section)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            keys.iter()
                .map(|k| match m.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(x)) => x.to_string(),
                    _ => String::new(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_measures() {
    let b = bench();
    let keys: Vec<&str> = b.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        b.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths: Vec<&str> = b
        .get("paths")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["crates/bench/src/bin/ltbench"]);
    let want: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|(n, why)| vec![n.to_string(), why.to_string()])
        .collect();
    assert_eq!(listed("workloads", &["name", "why"]), want);
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let want: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|d| {
            vec![
                d.name.into(),
                d.unit.into(),
                d.better.as_str().into(),
                d.bound.to_string(),
            ]
        })
        .collect();
    assert_eq!(
        listed("end_to_end", &["name", "unit", "better", "bound"]),
        want
    );
    let want: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.as_str().to_string()])
        .collect();
    assert_eq!(listed("per_layer", &["name", "unit", "better"]), want);
}

/// Run `name` at smoke scale untraced and traced: no operation fails,
/// and the contract line carries exactly the metrics (and units)
/// `BENCHMARK.json` lists for that mode.
fn smoke(name: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = smoke_run(name, crate::bench::ltree_core(), trace);
        assert_eq!(failed(&out), 0, "{name}: {:?}", notes(&out));
        assert_eq!(out.line.get("correct").and_then(Json::as_bool), Some(true));
        let emitted: Vec<Vec<String>> = out
            .line
            .get("metrics")
            .map(Json::members)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                vec![k.clone(), unit.to_owned()]
            })
            .collect();
        assert_eq!(
            emitted,
            listed(section, &["name", "unit"]),
            "{name}, trace {trace}"
        );
        let line_keys: Vec<&str> = out.line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(line_keys, ["correct", "attempted", "failed", "metrics"]);
        if !trace {
            for (k, v) in out
                .line
                .get("metrics")
                .map(Json::members)
                .unwrap_or_default()
            {
                let v = v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                assert!(v > 0.0, "{name}: end-to-end {k} is {v}");
            }
            continue;
        }
        // The result file adds the metrics of the layers this stack has.
        let detail: Vec<&str> = out
            .full
            .get("per_layer")
            .map(Json::members)
            .unwrap_or_default()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .chain(
                LAYER_DETAIL
                    .iter()
                    .map(|m| m.0)
                    .filter(|m| crate::report::has_layer(name, m)),
            )
            .collect();
        assert_eq!(detail, want, "{name}");
    }
}

#[test]
fn per_layer_computes_every_listed_metric_once() {
    let names: Vec<&str> = crate::report::per_layer(&[], &[], Default::default())
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let listed: Vec<&str> = PER_LAYER
        .iter()
        .chain(LAYER_DETAIL.iter())
        .map(|m| m.0)
        .collect();
    assert_eq!(names, listed);
}

#[test]
fn local_edit_smoke() {
    smoke("local-edit");
}

#[test]
fn doc_query_smoke() {
    smoke("doc-query");
}

#[test]
fn served_read_smoke() {
    smoke("served-read");
}

#[test]
fn served_rw_smoke() {
    smoke("served-rw");
}

#[test]
fn compare_check_fires_on_reversed_labels() {
    let out = smoke_run("local-edit", Liar::make(Lie::ReverseLabels), false);
    assert_fires(&out, "compare:");
}

#[test]
fn walk_order_check_fires_when_the_cursor_skips_an_item() {
    let out = smoke_run("local-edit", Liar::make(Lie::HideFirst), false);
    assert_fires(&out, "walk: order differs");
}

#[test]
fn live_count_check_fires_on_a_wrong_live_len() {
    let out = smoke_run("local-edit", Liar::make(Lie::ExtraLive), false);
    assert_fires(&out, "live_len");
}

#[test]
fn counter_check_fires_when_rounds_disagree() {
    let out = smoke_run("local-edit", Liar::make(Lie::DriftingStats), false);
    assert_fires(&out, "counters");
}

#[test]
fn scan_check_fires_on_a_served_liar() {
    let out = smoke_run("served-read", Liar::make(Lie::ReverseLabels), false);
    assert_fires(&out, "scan from item");
}

#[test]
fn zero_from_an_infallible_wire_read_is_a_failure() {
    let out = smoke_run("served-read", Liar::make(Lie::ZeroMemory), false);
    assert_fires(&out, "memory_bytes returned 0");
}

#[test]
fn page_check_fires_on_a_durable_liar() {
    let out = smoke_run("served-rw", Liar::make(Lie::ReverseLabels), false);
    assert_fires(&out, "page from");
}

#[test]
fn doc_query_oracles_fire_on_reversed_labels() {
    let out = smoke_run("doc-query", Liar::make(Lie::ReverseLabels), false);
    assert!(failed(&out) > 0, "{:?}", notes(&out));
}
