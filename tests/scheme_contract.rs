//! Generic conformance suite for the ordered-labeling trait family,
//! run against **every scheme in the default registry** (all five:
//! `ltree`, `virtual`, `naive`, `gap`, `list-label`) purely through
//! `Box<dyn DynScheme>` — no concrete scheme type appears in the
//! exercised code paths.
//!
//! Covered contracts:
//!
//! * **order** — after any stream of insertions/deletions, live labels
//!   strictly increase along list order and handles stay stable across
//!   relabelings;
//! * **cursor** — the streaming cursor yields handles in strictly
//!   increasing label order and visits every live item in list order;
//! * **splice** — a native `Splice::InsertAfter` batch is list-equivalent
//!   to the same insertions applied as a single-insert loop, and
//!   `Splice::DeleteRun` matches looped deletes;
//! * **stats** — `SchemeStats` counters are monotone between resets.
//!
//! Streams come from the workspace's seeded SplitMix64; every failure
//! reproduces from the printed `(spec, seed)` pair.

use ltree::metrics::{Metric, MetricValue};
use ltree::prelude::*;
use ltree::rng::SplitMix64;
use ltree::SchemeStats;

/// Every scheme family the workspace ships, plus parameter variants that
/// stress different shapes (wide L-Tree, minimal gap, sharded composites
/// with thresholds low enough that the contract streams force segment
/// splits and merges, and served composites that put a real TCP
/// client/server pair — an in-process server on 127.0.0.1 — under every
/// stream).
const SPECS: &[&str] = &[
    "ltree(4,2)",
    "ltree(32,4)",
    "virtual(4,2)",
    "naive",
    "gap",
    "gap(2)",
    "list-label",
    "sharded(4,ltree(4,2))",
    "sharded(2,24,4,ltree(4,2))",
    "sharded(3,16,2,gap)",
    "served(ltree(4,2))",
    "served(gap)",
    "sharded(4,served(ltree(4,2)))",
    "checked(ltree(4,2))",
    "sharded(2,24,4,checked(ltree(4,2)))",
    "checked(served(gap),every=4)",
    // Dir-less durable stores write to a per-build scratch directory
    // that is removed when the scheme drops, so a static spec string is
    // safe here; checkpoint_every=5 keeps snapshots in the loop too.
    "durable(ltree(4,2))",
    "durable(gap,sync=never,checkpoint_every=5)",
    // Inner handles dense from 0 (`naive`, `virtual`), beside the
    // L-Tree's `(record + 1) << 32 | generation` above: `durable`'s
    // handle table hashes both shapes.
    "durable(naive,sync=never)",
    "durable(virtual(4,2),sync=never)",
    "served(durable(ltree(4,2)))",
    "checked(durable(gap))",
    // The tracing wrapper must be behaviorally transparent: the whole
    // contract holds unchanged with it in the stack, at any layer.
    "traced(ltree(4,2))",
    "traced(gap)",
    "served(traced(ltree(4,2)))",
    "traced(durable(ltree(4,2)))",
    "sharded(2,24,4,traced(ltree(4,2)))",
];

fn build(spec: &str) -> Box<dyn DynScheme> {
    default_registry()
        .build(spec)
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
}

#[derive(Debug, Clone)]
enum Op {
    After(usize),
    Before(usize),
    Many(usize, usize),
    Delete(usize),
    DeleteRun(usize, usize),
}

fn random_ops(rng: &mut SplitMix64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let i = rng.gen_range(0..1 << 16);
            match rng.gen_range(0..10) {
                0..=3 => Op::After(i),
                4..=5 => Op::Before(i),
                6 => Op::Many(i, rng.gen_range(1..20)),
                7 => Op::DeleteRun(i, rng.gen_range(1..8)),
                _ => Op::Delete(i),
            }
        })
        .collect()
}

/// First live index at or after `i % len`, wrapping; anchoring on
/// deleted items is scheme-specific (the L-Tree allows it, schemes with
/// physical removal do not), so the contract only anchors on live ones.
fn live_at(order: &[(LeafHandle, bool)], i: usize) -> Option<usize> {
    let n = order.len();
    (0..n).map(|d| (i + d) % n).find(|&j| order[j].1)
}

/// A scheme under test plus the reference list the driver maintains.
struct Harness<S: LabelingScheme> {
    scheme: S,
    /// (handle, alive) in list order — the ground truth.
    order: Vec<(LeafHandle, bool)>,
    tag: String,
}

impl<S: LabelingScheme> Harness<S> {
    fn new(mut scheme: S, initial: usize, tag: String) -> Self {
        let order = scheme
            .bulk_build(initial.max(1))
            .unwrap()
            .into_iter()
            .map(|h| (h, true))
            .collect();
        Harness { scheme, order, tag }
    }

    /// Apply one op. `use_batch` selects the native batch path for
    /// `Many`/`DeleteRun`; otherwise both are applied as loops of
    /// singles (the equivalence tests run one harness each way).
    fn apply(&mut self, op: &Op, use_batch: bool) {
        match *op {
            Op::After(i) => {
                let Some(i) = live_at(&self.order, i) else {
                    return;
                };
                let h = self.scheme.insert_after(self.order[i].0).unwrap();
                self.order.insert(i + 1, (h, true));
            }
            Op::Before(i) => {
                let Some(i) = live_at(&self.order, i) else {
                    return;
                };
                let h = self.scheme.insert_before(self.order[i].0).unwrap();
                self.order.insert(i, (h, true));
            }
            Op::Many(i, k) => {
                let Some(i) = live_at(&self.order, i) else {
                    return;
                };
                let anchor = self.order[i].0;
                let hs = if use_batch {
                    self.scheme
                        .splice(Splice::InsertAfter { anchor, count: k })
                        .unwrap()
                        .into_inserted()
                } else {
                    let mut out = Vec::with_capacity(k);
                    let mut cur = anchor;
                    for _ in 0..k {
                        cur = self.scheme.insert_after(cur).unwrap();
                        out.push(cur);
                    }
                    out
                };
                assert_eq!(hs.len(), k, "{}: batch size", self.tag);
                for (j, h) in hs.into_iter().enumerate() {
                    self.order.insert(i + 1 + j, (h, true));
                }
            }
            Op::Delete(i) => {
                let Some(i) = live_at(&self.order, i) else {
                    return;
                };
                if self.scheme.delete(self.order[i].0).is_ok() {
                    self.order[i].1 = false;
                }
            }
            Op::DeleteRun(i, k) => {
                let Some(i) = live_at(&self.order, i) else {
                    return;
                };
                let deleted = if use_batch {
                    self.scheme
                        .splice(Splice::DeleteRun {
                            first: self.order[i].0,
                            count: k,
                        })
                        .unwrap()
                        .deleted()
                } else {
                    // Reference semantics: delete the next k live items
                    // at or after position i, in list order.
                    let mut deleted = 0usize;
                    for j in i..self.order.len() {
                        if deleted == k {
                            break;
                        }
                        if self.order[j].1 {
                            self.scheme.delete(self.order[j].0).unwrap();
                            deleted += 1;
                        }
                    }
                    deleted
                };
                // Mirror the deletion in the reference list.
                let mut remaining = deleted;
                for j in i..self.order.len() {
                    if remaining == 0 {
                        break;
                    }
                    if self.order[j].1 {
                        self.order[j].1 = false;
                        remaining -= 1;
                    }
                }
                assert_eq!(
                    remaining, 0,
                    "{}: scheme deleted more than tracked",
                    self.tag
                );
            }
        }
    }

    /// The contract: live labels strictly increase in list order.
    fn check_order(&self) {
        let mut prev: Option<u128> = None;
        for &(h, alive) in &self.order {
            if !alive {
                continue;
            }
            let l = match self.scheme.label_of(h) {
                Ok(l) => l,
                Err(_) => continue, // schemes may invalidate deleted handles only
            };
            if let Some(p) = prev {
                assert!(p < l, "{}: order contract broken ({p} >= {l})", self.tag);
            }
            prev = Some(l);
        }
    }

    /// The cursor contract: strictly increasing labels, and the live
    /// subsequence equals the reference list order exactly.
    fn check_cursor(&self) {
        let live: std::collections::HashSet<u64> = self
            .order
            .iter()
            .filter(|&&(_, a)| a)
            .map(|&(h, _)| h.0)
            .collect();
        let mut cursor_live = Vec::new();
        let mut prev: Option<u128> = None;
        for h in Cursor::new(&self.scheme) {
            let l = self
                .scheme
                .label_of(h)
                .unwrap_or_else(|e| panic!("{}: cursor yielded unknown handle: {e}", self.tag));
            if let Some(p) = prev {
                assert!(
                    p < l,
                    "{}: cursor out of label order ({p} >= {l})",
                    self.tag
                );
            }
            prev = Some(l);
            if live.contains(&h.0) {
                cursor_live.push(h);
            }
        }
        let expect: Vec<LeafHandle> = self
            .order
            .iter()
            .filter(|&&(_, a)| a)
            .map(|&(h, _)| h)
            .collect();
        assert_eq!(
            cursor_live, expect,
            "{}: cursor misses or reorders live items",
            self.tag
        );
    }

    fn check_counts(&self) {
        let live = self.order.iter().filter(|&&(_, a)| a).count();
        assert_eq!(
            self.scheme.live_len(),
            live,
            "{}: live_len mismatch",
            self.tag
        );
        assert!(self.scheme.label_space_bits() <= 128, "{}", self.tag);
        assert!(self.scheme.memory_bytes() > 0, "{}", self.tag);
    }
}

/// Single-scheme conformance: order + cursor + counts + stats
/// monotonicity over a randomized stream.
fn exercise(spec: &str, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let initial = rng.gen_range(1..50);
    let stream_len = rng.gen_range(1..60);
    let ops = random_ops(&mut rng, stream_len);
    let tag = format!("{spec} seed {seed}");
    let mut h = Harness::new(build(spec), initial, tag.clone());
    let mut prev_stats = h.scheme.scheme_stats();
    for (step, op) in ops.iter().enumerate() {
        h.apply(op, true);
        h.check_order();
        let stats = h.scheme.scheme_stats();
        assert!(
            stats.dominates(&prev_stats),
            "{tag}: stats went backwards at step {step}: {prev_stats:?} -> {stats:?}"
        );
        prev_stats = stats;
        if step % 8 == 0 {
            h.check_cursor();
        }
    }
    h.check_cursor();
    h.check_counts();
    // Reset really resets; the counters start climbing again from zero.
    h.scheme.reset_scheme_stats();
    assert_eq!(h.scheme.scheme_stats().inserts, 0, "{tag}: reset");
}

#[test]
fn conformance_across_the_registry() {
    for spec in SPECS {
        for seed in 0..8u64 {
            exercise(spec, seed);
        }
    }
}

/// Every spec again, wrapped in the `checked(...)` contract auditor: the
/// auditor's shadow model rides the identical streams on ltree, gap,
/// sharded and served backends, and a violation anywhere would surface
/// as a `ContractViolation` panic out of the harness's unwraps. This
/// both audits the schemes a second way and exercises the auditor
/// itself against every backend family.
#[test]
fn conformance_with_every_spec_wrapped_in_checked() {
    for spec in SPECS {
        if spec.starts_with("checked") {
            continue; // already wrapped
        }
        for seed in 0..4u64 {
            exercise(&format!("checked({spec})"), seed);
        }
    }
}

/// The durability wrapper with an explicit `dir=` passes the identical
/// conformance streams against a real on-disk directory (a fresh
/// scratch dir per stream — fixed paths in tests are lint errors), and
/// the `checked(...)` auditor rides the same on-disk store unchanged.
#[test]
fn conformance_durable_on_disk() {
    for seed in 0..3u64 {
        let dir = ltree::remote::scratch_dir("conformance");
        let path = dir.display();
        exercise(&format!("durable(ltree(4,2),dir={path})"), seed);
        exercise(&format!("checked(durable(gap,dir={path}-auditee))"), seed);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(format!("{path}-auditee")).ok();
    }
}

/// The pooled TCP client (`remote(host:port,conns=4)`) passes the
/// identical conformance streams — a real external server per stream
/// (bound on port 0, address plumbed back via `local_addr()`), four
/// client connections over it, zero suite changes.
#[test]
fn conformance_remote_pooled_client() {
    let boot = || {
        ltree::remote::LabelServer::bind("127.0.0.1:0", build("ltree(4,2)"))
            .unwrap_or_else(|e| panic!("bind: {e}"))
    };
    for seed in 0..4u64 {
        let server = boot();
        exercise(&format!("remote({},conns=4)", server.local_addr()), seed);
    }
    // Batch-vs-loop equivalence, each harness against its own server.
    for seed in 100..103u64 {
        let mut rng = SplitMix64::new(seed);
        let initial = rng.gen_range(1..30);
        let stream_len = rng.gen_range(1..40);
        let ops = random_ops(&mut rng, stream_len);
        let (sa, sb) = (boot(), boot());
        let spec = |s: &ltree::remote::LabelServer| format!("remote({},conns=4)", s.local_addr());
        let mut batched = Harness::new(build(&spec(&sa)), initial, format!("remote#batch {seed}"));
        let mut looped = Harness::new(build(&spec(&sb)), initial, format!("remote#loop {seed}"));
        for op in &ops {
            batched.apply(op, true);
            looped.apply(op, false);
            batched.check_order();
            looped.check_order();
        }
        batched.check_cursor();
        looped.check_cursor();
        assert_eq!(batched.scheme.live_len(), looped.scheme.live_len());
        assert_eq!(batched.scheme.len(), looped.scheme.len());
    }
}

/// Batch-vs-loop equivalence: the same logical stream applied with the
/// native splice path and with single-insert loops must produce the
/// same list (same live count, same relative order of the same logical
/// positions) — labels may differ, the *list* may not.
#[test]
fn splice_batch_equals_loop() {
    for spec in SPECS {
        for seed in 100..106u64 {
            let mut rng = SplitMix64::new(seed);
            let initial = rng.gen_range(1..30);
            let stream_len = rng.gen_range(1..40);
            let ops = random_ops(&mut rng, stream_len);
            let mut batched = Harness::new(build(spec), initial, format!("{spec}#batch {seed}"));
            let mut looped = Harness::new(build(spec), initial, format!("{spec}#loop {seed}"));
            for op in &ops {
                batched.apply(op, true);
                looped.apply(op, false);
                batched.check_order();
                looped.check_order();
                // Same logical list on both sides.
                assert_eq!(
                    batched.order.iter().map(|&(_, a)| a).collect::<Vec<_>>(),
                    looped.order.iter().map(|&(_, a)| a).collect::<Vec<_>>(),
                    "{spec} seed {seed}: batch and loop lists diverged"
                );
            }
            assert_eq!(
                batched.scheme.live_len(),
                looped.scheme.live_len(),
                "{spec} {seed}"
            );
            assert_eq!(batched.scheme.len(), looped.scheme.len(), "{spec} {seed}");
            batched.check_cursor();
            looped.check_cursor();
        }
    }
}

/// Splice-vs-incremental XML equivalence: the same document built
/// through the splice-driven bulk path and through the per-node path
/// must agree — for every registry scheme — on element count, document
/// order (by labels), region containment and serialization. Labels may
/// differ (bulk loading leaves different slack); the *document* may not.
#[test]
fn xml_bulk_and_incremental_loads_are_equivalent() {
    use ltree::gen::{book_catalog_profile, generate};

    let tree = generate(&book_catalog_profile(150), 17);
    let text = ltree::xml::to_string(&tree).unwrap();
    for spec in SPECS {
        let bulk =
            Document::parse_str(&text, build(spec)).unwrap_or_else(|e| panic!("{spec} bulk: {e}"));
        let incr = Document::parse_str_incremental(&text, build(spec))
            .unwrap_or_else(|e| panic!("{spec} incremental: {e}"));
        bulk.validate().unwrap_or_else(|e| panic!("{spec}: {e}"));
        incr.validate().unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(bulk.element_count(), incr.element_count(), "{spec}");

        // Identical document order: the label-sorted element sequence of
        // both paths matches the DOM's DFS order (and hence each other).
        let order = |d: &Document<Box<dyn DynScheme>>| -> Vec<_> {
            d.all_spans().unwrap().into_iter().map(|s| s.node).collect()
        };
        let dfs = bulk.tree().all_elements();
        assert_eq!(order(&bulk), dfs, "{spec}: bulk order");
        assert_eq!(order(&incr), dfs, "{spec}: incremental order");

        // Region containment answers agree on a sample of pairs.
        for (i, &a) in dfs.iter().step_by(13).enumerate() {
            for &b in dfs.iter().skip(i).step_by(29) {
                assert_eq!(
                    bulk.is_ancestor(a, b).unwrap(),
                    incr.is_ancestor(a, b).unwrap(),
                    "{spec}: ancestor({a:?}, {b:?})"
                );
            }
        }

        // Identical serialization.
        assert_eq!(
            ltree::xml::to_string(bulk.tree()).unwrap(),
            ltree::xml::to_string(incr.tree()).unwrap(),
            "{spec}: serialization"
        );
    }
}

/// Segment-boundary conformance for the sharded composite: insert runs
/// land intact in the anchor's segment (splitting afterwards), delete
/// runs are split at segment boundaries — and both must stay
/// list-equivalent to the single-op loop while the cursor keeps global
/// order. The typed harness also asserts that the streams really did
/// cross boundaries (splits + merges happened).
#[test]
fn sharded_splices_split_at_segment_boundaries() {
    use ltree::sharded::{ShardedConfig, ShardedScheme};
    use ltree::{LTree, Params};

    let cfg = ShardedConfig {
        initial_shards: 4,
        split_above: 16,
        merge_below: 2,
    };
    let factory = || Ok(LTree::new(Params::new(4, 2).unwrap()));
    let mut batched = Harness::new(
        ShardedScheme::with_config(cfg, factory).unwrap(),
        40,
        "sharded#batch".into(),
    );
    let mut looped = Harness::new(
        ShardedScheme::with_config(cfg, factory).unwrap(),
        40,
        "sharded#loop".into(),
    );
    assert_eq!(batched.scheme.shard_count(), 4, "10 per segment");

    // Boundary-straddling runs: inserts big enough to split any segment
    // (40 > split_above), a delete run spanning three segments, then
    // point edits around the fresh boundaries, then a drain that forces
    // merges. Positions are logical (reference-list) indices.
    let ops = [
        Op::Many(5, 40),      // insert run inside segment 0 → splits
        Op::DeleteRun(2, 55), // straddles every boundary the split made
        Op::Many(10, 17),     // insert at the (new) boundary region
        Op::Before(1),
        Op::After(12),
        Op::DeleteRun(0, 30), // drain from the front → merges
    ];
    for op in &ops {
        batched.apply(op, true);
        looped.apply(op, false);
        batched.check_order();
        looped.check_order();
        batched.check_cursor();
        looped.check_cursor();
        assert_eq!(
            batched.order.iter().map(|&(_, a)| a).collect::<Vec<_>>(),
            looped.order.iter().map(|&(_, a)| a).collect::<Vec<_>>(),
            "batch and loop lists diverged"
        );
    }
    assert_eq!(batched.scheme.live_len(), looped.scheme.live_len());
    assert_eq!(batched.scheme.len(), looped.scheme.len());
    // The stream really exercised rebalancing: more segments than we
    // started with at the peak is implied by ≤16 per segment …
    for (tag, h) in [("batch", &batched), ("loop", &looped)] {
        assert!(
            h.scheme.shard_live_counts().iter().all(|&n| n <= 16),
            "{tag}: segment over threshold: {:?}",
            h.scheme.shard_live_counts()
        );
    }
    // … and per-segment stats cover every live segment.
    assert_eq!(
        segment_count(&batched.scheme.metrics()),
        batched.scheme.shard_count()
    );
}

/// The same randomized batch-vs-loop equivalence the registry specs get,
/// but at thresholds so tight that almost every op crosses a segment
/// boundary — belt and braces over `splice_batch_equals_loop`.
#[test]
fn sharded_tight_threshold_streams_stay_equivalent() {
    for seed in 200..206u64 {
        let mut rng = SplitMix64::new(seed);
        let initial = rng.gen_range(8..40);
        let stream_len = rng.gen_range(10..40);
        let ops = random_ops(&mut rng, stream_len);
        let spec = "sharded(3,8,2,ltree(4,2))";
        let mut batched = Harness::new(build(spec), initial, format!("{spec}#batch {seed}"));
        let mut looped = Harness::new(build(spec), initial, format!("{spec}#loop {seed}"));
        for op in &ops {
            batched.apply(op, true);
            looped.apply(op, false);
            batched.check_order();
            looped.check_order();
        }
        batched.check_cursor();
        looped.check_cursor();
        assert_eq!(
            batched.scheme.live_len(),
            looped.scheme.live_len(),
            "seed {seed}"
        );
    }
}

#[test]
fn delete_run_over_the_end_reports_short_count() {
    for spec in SPECS {
        let mut s = build(spec);
        let hs = s.bulk_build(6).unwrap();
        let deleted = s
            .splice(Splice::DeleteRun {
                first: hs[3],
                count: 100,
            })
            .unwrap()
            .deleted();
        assert_eq!(deleted, 3, "{spec}: run must stop at the list end");
        assert_eq!(s.live_len(), 3, "{spec}");
    }
}

#[test]
fn empty_batch_is_a_typed_error() {
    for spec in SPECS {
        let mut s = build(spec);
        let hs = s.bulk_build(3).unwrap();
        assert!(
            matches!(
                s.splice(Splice::InsertAfter {
                    anchor: hs[0],
                    count: 0
                }),
                Err(ltree::LTreeError::EmptyBatch)
            ),
            "{spec}: zero batch must be rejected"
        );
    }
}

/// The trait's default `insert_many_after` (the baselines') reserves its
/// handle vector before the first insert, so a batch too large to hold
/// is a typed error that changes nothing, also under a wrapper; so does
/// `durable`'s handle table, which reserves before the inner scheme runs.
#[test]
fn oversized_default_batches_are_typed_errors_that_change_nothing() {
    let labels = |s: &dyn DynScheme| -> Vec<u128> {
        Cursor::new(s).map(|h| s.label_of(h).unwrap()).collect()
    };
    for spec in [
        "naive",
        "gap",
        "list-label",
        "checked(gap)",
        "sharded(2,naive)",
        "durable(naive,sync=never)",
    ] {
        let mut s = build(spec);
        let hs = s.bulk_build(64).unwrap();
        let before = labels(&*s);
        let stats = s.scheme_stats();
        let bytes = s.memory_bytes();
        let k = 1usize << 40;
        match s.insert_many_after(hs[10], k) {
            Err(ltree::LTreeError::CapacityExceeded { requested }) => {
                assert_eq!(requested, k as u64, "{spec}");
            }
            other => panic!("{spec}: expected CapacityExceeded, got {other:?}"),
        }
        assert_eq!((s.len(), s.live_len()), (64, 64), "{spec}");
        assert_eq!(labels(&*s), before, "{spec}");
        assert_eq!(s.scheme_stats(), stats, "{spec}");
        assert_eq!(s.memory_bytes(), bytes, "{spec}");
    }
}

/// Reads are free: `SchemeStats` counts maintenance, so a read-only pass
/// (a cursor walk, then `label_of` and `compare` on every item) leaves
/// it unchanged. Every spec, plus the two B-tree-backed schemes under
/// `sharded`.
#[test]
fn read_only_calls_leave_the_stats_unchanged() {
    let sharded = ["sharded(2,virtual(4,2))", "sharded(2,list-label)"];
    for spec in SPECS.iter().copied().chain(sharded) {
        let mut s = build(spec);
        let hs = s.bulk_build(64).unwrap();
        for i in 0..20 {
            s.insert_after(hs[i * 3]).unwrap();
        }
        let stats = s.scheme_stats();
        let order: Vec<LeafHandle> = Cursor::new(&*s).collect();
        assert_eq!(order.len(), 84, "{spec}");
        for &h in &order {
            s.label_of(h).unwrap();
            s.compare(order[0], h).unwrap();
        }
        assert_eq!(s.scheme_stats(), stats, "{spec}: reads were counted");
    }
}

#[test]
fn invariants_hold_after_contract_streams() {
    // A deterministic heavy stream with full invariant checking for the
    // tree-shaped schemes (which expose checkers beyond the trait).
    let ops: Vec<Op> = (0..400)
        .map(|i| match i % 9 {
            0 => Op::Before(i),
            1..=3 => Op::After(i * 31),
            4 => Op::Many(i, (i % 9) + 1),
            5 => Op::DeleteRun(i * 7, (i % 5) + 1),
            _ => Op::Delete(i * 13),
        })
        .collect();
    let mut tree = LTree::new(Params::new(4, 2).unwrap());
    {
        let mut h = Harness::new(&mut tree, 10, "ltree#invariants".into());
        for op in &ops {
            h.apply(op, true);
        }
        h.check_order();
        h.check_cursor();
    }
    tree.check_invariants().unwrap();

    let mut v = VirtualLTree::new(Params::new(4, 2).unwrap());
    {
        let mut h = Harness::new(&mut v, 10, "virtual#invariants".into());
        for op in &ops {
            h.apply(op, true);
        }
        h.check_order();
        h.check_cursor();
    }
    v.check_invariants().unwrap();
}

/// Segments a metrics snapshot reports: its `seg/<i>/inserts` series.
fn segment_count(metrics: &[Metric]) -> usize {
    metrics
        .iter()
        .filter(|m| m.name.starts_with("seg/") && m.name.ends_with("/inserts"))
        .count()
}

/// The per-segment sum contract: each `SchemeStats` field summed over
/// a snapshot's `seg/<i>/…` counters stays at or below the aggregate's.
/// `None` when it holds, otherwise what broke it.
fn segment_excess(aggregate: &SchemeStats, metrics: &[Metric]) -> Option<String> {
    let mut sum = SchemeStats::default();
    for m in metrics {
        let Some(rest) = m.name.strip_prefix("seg/") else {
            continue;
        };
        let MetricValue::Counter(v) = m.value else {
            return Some(format!("{} is not a counter", m.name));
        };
        let field = match rest.split_once('/').map(|(_, field)| field) {
            Some("inserts") => &mut sum.inserts,
            Some("deletes") => &mut sum.deletes,
            Some("label-writes") => &mut sum.label_writes,
            Some("node-touches") => &mut sum.node_touches,
            Some("relabel-events") => &mut sum.relabel_events,
            _ => return Some(format!("{} is not a segment cost series", m.name)),
        };
        *field += v;
    }
    (!aggregate.dominates(&sum))
        .then(|| format!("segments sum to {sum:?}, above the aggregate {aggregate:?}"))
}

/// After a seeded stream, every spec's `seg/<i>/…` counters sum to at
/// most its aggregate: they hold the paper's cost per live segment and
/// nothing else (transport, log and audit counts have their own
/// namespaces). The sharded specs report segments at all, and no other
/// spec reports any.
#[test]
fn stats_breakdown_sums_to_at_most_the_aggregate() {
    for spec in SPECS {
        for seed in 0..2u64 {
            let mut rng = SplitMix64::new(seed);
            let initial = rng.gen_range(1..50);
            let stream_len = rng.gen_range(1..60);
            let ops = random_ops(&mut rng, stream_len);
            let mut h = Harness::new(build(spec), initial, format!("{spec} seed {seed}"));
            for op in &ops {
                h.apply(op, true);
            }
            let (aggregate, metrics) = (h.scheme.scheme_stats(), h.scheme.metrics());
            if let Some(excess) = segment_excess(&aggregate, &metrics) {
                panic!("{spec} seed {seed}: {excess}");
            }
            let segments = segment_count(&metrics);
            if spec.starts_with("sharded(") {
                assert!(segments > 0, "{spec} seed {seed}: no segment series");
            } else {
                assert_eq!(segments, 0, "{spec} seed {seed}: not a partitioned scheme");
            }
        }
    }
}

/// Seeded failure for the check above: a non-cost count filed as a
/// segment's series — a byte count carried in a third segment's
/// `node-touches`, the shape a transport count once took in the
/// per-segment record — appended to a real snapshot trips it.
#[test]
fn breakdown_sum_check_fires_on_a_non_cost_entry() {
    let mut s = build("sharded(2,served(ltree(4,2)))");
    let hs = s.bulk_build(16).unwrap();
    s.insert_after(hs[7]).unwrap();
    let aggregate = s.scheme_stats();
    let mut metrics = s.metrics();
    assert_eq!(segment_count(&metrics), 2);
    assert_eq!(segment_excess(&aggregate, &metrics), None);
    metrics.push(Metric::counter("seg/2/node-touches", 67));
    let excess = segment_excess(&aggregate, &metrics).expect("the check must fire");
    let expect = format!("node_touches: {}", aggregate.node_touches + 67);
    assert!(excess.contains(&expect), "{excess}");
}
