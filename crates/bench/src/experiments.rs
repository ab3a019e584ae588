//! The X1–X14 experiment runners.
//!
//! Every comparison scheme is constructed **through the registry**
//! ([`ltree::default_registry`]) from a spec string like `"ltree(4,2)"`
//! — adding a scheme to the registry automatically opens it to the
//! multi-scheme sweeps here *and* to the scheme × workload × scale
//! cross-product in [`crate::sweep`] (the `repro sweep` mode, which is
//! what CI tracks over time via `BENCH_sweep.json`). Only the
//! structural walkthroughs (X2, X11) build a concrete [`LTree`],
//! because they read tree internals (splits, cascades, invariant
//! checks) that the trait family deliberately does not expose.
//!
//! The update streams of X3–X11 are `xmlgen` edit scripts, each
//! generated once and replayed by every scheme it compares: single-item
//! profiles through the per-item loop, X8's batches as one splice each.

use crate::table::{f, Table};
use crate::Scale;
use ltree::cost_model;
use ltree::gen::{auction_profile, generate, generate_edits, EditProfile};
use ltree::obs::{mutation_histogram, TracedScheme};
use ltree::tuning;
use ltree::xml::{Document, Path, XmlTree};
use ltree::{
    Cursor, DynScheme, Instrumented, LTree, OrderedLabeling, Params, SchemeConfig, SchemeRegistry,
};

/// Single inserts after uniformly random items.
const UNIFORM: EditProfile = EditProfile::BulkLoad { run: 1 };

/// Build one scheme from its registry spec.
fn scheme(spec: &str) -> Box<dyn DynScheme> {
    ltree::default_registry()
        .build(spec)
        .expect("experiment specs are valid")
}

/// All labels in list order via the streaming cursor — works on any
/// `dyn` scheme, no per-scheme accessors, no handle `Vec`.
fn labels_in_order(s: &dyn DynScheme) -> Vec<u128> {
    Cursor::new(s)
        .map(|h| s.label_of(h).expect("cursor yields live handles"))
        .collect()
}

/// Run one experiment by id ("x1".."x14"); `None` for unknown ids.
pub fn run(id: &str, scale: Scale) -> Option<Vec<Table>> {
    Some(match id {
        "x1" => x1(),
        "x2" => x2(),
        "x3" => x3(scale),
        "x4" => x4(scale),
        "x5" => x5(scale),
        "x6" => x6(scale),
        "x7" => x7(scale),
        "x8" => x8(scale),
        "x9" => x9(scale),
        "x10" => x10(scale),
        "x11" => x11(scale),
        "x12" => x12(scale),
        "x13" => x13(scale),
        "x14" => x14(scale),
        _ => return None,
    })
}

/// All experiment ids in order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12", "x13", "x14",
    ]
}

// ----------------------------------------------------------------------
// X1 — Figure 1: region labeling answers book//title by label tests
// ----------------------------------------------------------------------

/// X1 — Figure 1: region labeling answers `/book//title` by label tests.
pub fn x1() -> Vec<Table> {
    let xml = "<book><chapter><title>t</title></chapter><title>top</title></book>";
    let reg: SchemeRegistry = ltree::default_registry();
    let doc = Document::parse_str_with(xml, &reg, "ltree(4,2)", &SchemeConfig::default())
        .expect("figure 1 document parses");
    let mut regions = Table::new(
        "X1 — Figure 1: region labels of the example document",
        &["element", "begin", "end"],
    );
    regions.note("Paper labels: book(0,7) chapter(1,4) title(2,3) title(5,6); ours keep the");
    regions.note("same containment structure with L-Tree slack between labels.");
    let root = doc.tree().root().expect("document has a root");
    for id in doc.tree().dfs(root).expect("root is live") {
        let (b, e) = doc.span(id).expect("element is labeled");
        regions.row(vec![
            doc.tree().tag_name(id).expect("live").to_owned(),
            b.to_string(),
            e.to_string(),
        ]);
    }

    let mut query = Table::new(
        "X1 — `/book//title` via interval containment",
        &["evaluator", "results (begin labels)"],
    );
    let path = Path::parse("/book//title").expect("valid path");
    for (name, result) in [
        ("navigational", path.eval_navigational(&doc).expect("eval")),
        ("label joins", path.eval_labeled(&doc).expect("eval")),
    ] {
        let labels: Vec<String> = result
            .iter()
            .map(|&id| doc.span(id).expect("labeled").0.to_string())
            .collect();
        query.row(vec![name.into(), labels.join(", ")]);
    }
    query.note("Both evaluators return the two titles; the descendant test is one pair of");
    query.note("label comparisons per candidate (paper, Section 1).");
    vec![regions, query]
}

// ----------------------------------------------------------------------
// X2 — Figure 2: bulk load + two insertions, one split
// ----------------------------------------------------------------------

/// X2 — Figure 2 walkthrough: bulk load + two insertions, one split.
pub fn x2() -> Vec<Table> {
    let params = Params::new(4, 2).expect("figure params");
    let (mut tree, leaves) = LTree::bulk_load(params, 8).expect("bulk load");
    let snapshot = |tree: &LTree| -> String {
        tree.leaves()
            .map(|l| tree.label(l).expect("labeled").get().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut t = Table::new(
        "X2 — Figure 2 walkthrough (f = 4, s = 2, base f+1 = 5)",
        &["stage", "leaf labels", "splits"],
    );
    t.note("Structure-exact replay of the paper's Figure 2. The figure's art uses base-3");
    t.note("numbers; the paper's formulas mandate base f+1 = 5, which is what is shown.");
    t.row(vec![
        "(a) bulk load 8 tags".into(),
        snapshot(&tree),
        "0".into(),
    ]);
    let d = tree.insert_before(leaves[2]).expect("insert D");
    t.row(vec![
        "(c) insert begin tag D".into(),
        snapshot(&tree),
        tree.stats().splits.to_string(),
    ]);
    tree.insert_after(d).expect("insert /D");
    t.row(vec![
        "(d) insert end tag /D".into(),
        snapshot(&tree),
        tree.stats().splits.to_string(),
    ]);
    tree.check_invariants().expect("invariants hold");
    vec![t]
}

// ----------------------------------------------------------------------
// X3 — amortized insertion cost vs n (the O(log n) claim)
// ----------------------------------------------------------------------

/// X3 — amortized insertion cost vs `n` (the `O(log n)` claim).
pub fn x3(scale: Scale) -> Vec<Table> {
    let sizes: &[usize] = scale.pick(&[1_000, 8_000][..], &[1_000, 10_000, 100_000][..]);
    let ops_for = |n: usize| scale.pick(2_000.min(n), 20_000.min(n));
    let mut t = Table::new(
        "X3 — amortized insertion cost vs document size (uniform inserts)",
        &[
            "n",
            "scheme",
            "labelWrites/op",
            "cost/op",
            "model bound",
            "bits",
        ],
    );
    t.note("cost/op = (label writes + structure touches) per inserted leaf — the paper's");
    t.note("'nodes accessed for searching or relabeling'. Model bound = cost(f,s,n) of §3.1.");
    t.note("naive is the Figure-1 scheme (O(n)); gap = fixed-gap midpoints; list-label =");
    t.note("classic even redistribution (O(log² n) am.). All schemes built by registry spec.");
    for &n in sizes {
        let ops = ops_for(n);
        let script = generate_edits(UNIFORM, n, ops, 42);
        // (registry spec, (f, s) for the model bound where applicable)
        let mut entries: Vec<(&str, Option<(f64, f64)>)> = vec![
            ("ltree(4,2)", Some((4.0, 2.0))),
            ("ltree(8,2)", Some((8.0, 2.0))),
            ("ltree(16,4)", Some((16.0, 4.0))),
            ("virtual(4,2)", Some((4.0, 2.0))),
            ("list-label", None),
            ("gap", None),
        ];
        if n <= 100_000 {
            entries.push(("naive", None));
        }
        for (spec, model) in entries {
            let mut s = scheme(spec);
            let r = script.replay_incremental(&mut s).expect("workload runs");
            let bound = model
                .map(|(pf, ps)| f(cost_model::amortized_cost(pf, ps, (n + ops) as f64)))
                .unwrap_or_else(|| "—".into());
            t.row(vec![
                n.to_string(),
                spec.into(),
                f(r.amortized_label_writes()),
                f(r.amortized_cost()),
                bound,
                r.label_space_bits.to_string(),
            ]);
        }
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X4 — label width vs n (the O(log n) bits claim)
// ----------------------------------------------------------------------

/// X4 — label width vs `n` (the `O(log n)` bits claim).
pub fn x4(scale: Scale) -> Vec<Table> {
    let sizes: &[usize] = scale.pick(
        &[1_000, 8_000][..],
        &[1_000, 10_000, 100_000, 1_000_000][..],
    );
    let mut t = Table::new(
        "X4 — label width vs document size",
        &[
            "n",
            "params",
            "measured bits",
            "model bits",
            "model/measured",
        ],
    );
    t.note("measured = bits of the label space (f+1)^H after bulk load + 10% uniform");
    t.note("inserts; model = log2(f+1)·log2(n)/log2(f/s) (paper §3.1).");
    for &n in sizes {
        let ops = (n / 10).max(1);
        let script = generate_edits(UNIFORM, n, ops, 7);
        for (fan, s) in [(4u32, 2u32), (8, 2), (16, 4), (32, 4)] {
            let mut sc = scheme(&format!("ltree({fan},{s})"));
            let r = script.replay_incremental(&mut sc).expect("workload runs");
            let model = cost_model::label_bits(fan as f64, s as f64, (n + ops) as f64);
            t.row(vec![
                n.to_string(),
                format!("({fan},{s})"),
                r.label_space_bits.to_string(),
                f(model),
                f(model / r.label_space_bits as f64),
            ]);
        }
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X5 — parameter sweep: measured cost surface vs the model optimum
// ----------------------------------------------------------------------

/// X5 — parameter sweep: measured cost surface vs the model optimum.
pub fn x5(scale: Scale) -> Vec<Table> {
    let n = scale.pick(5_000, 50_000);
    let ops = scale.pick(5_000, 20_000);
    let arities = [2u32, 3, 4, 6, 8];
    let widths = [2u32, 3, 4];
    let mut measured = Table::new(
        format!(
            "X5 — measured amortized cost over the (f/s, s) grid (n = {n}, {ops} uniform inserts)"
        ),
        &["s \\ a", "2", "3", "4", "6", "8"],
    );
    let script = generate_edits(UNIFORM, n, ops, 11);
    let mut best = (f64::INFINITY, (0u32, 0u32));
    for &s in &widths {
        let mut row = vec![s.to_string()];
        for &a in &arities {
            let fan = a * s;
            let mut sc = scheme(&format!("ltree({fan},{s})"));
            let r = script.replay_incremental(&mut sc).expect("workload runs");
            let c = r.amortized_cost();
            if c < best.0 {
                best = (c, (fan, s));
            }
            row.push(f(c));
        }
        measured.row(row);
    }
    let mut model = Table::new(
        "X5 — model cost(f,s,n) over the same grid",
        &["s \\ a", "2", "3", "4", "6", "8"],
    );
    for &s in &widths {
        let mut row = vec![s.to_string()];
        for &a in &arities {
            row.push(f(cost_model::amortized_cost(
                (a * s) as f64,
                s as f64,
                (n + ops) as f64,
            )));
        }
        model.row(row);
    }
    let tuned = tuning::optimize_cost((n + ops) as u64);
    model.note(format!(
        "Analytic optimizer picks (f,s) = ({},{}) with predicted cost {}; empirical grid minimum is (f,s) = ({},{}) at {}.",
        tuned.params.f(),
        tuned.params.s(),
        f(tuned.predicted_cost),
        best.1 .0,
        best.1 .1,
        f(best.0),
    ));
    vec![measured, model]
}

// ----------------------------------------------------------------------
// X6 — bit-budget-constrained tuning
// ----------------------------------------------------------------------

/// X6 — bit-budget-constrained tuning.
pub fn x6(scale: Scale) -> Vec<Table> {
    let n = scale.pick(20_000u64, 100_000u64);
    let mut t = Table::new(
        format!("X6 — minimize cost subject to a label-bit budget (n = {n})"),
        &[
            "budget β",
            "chosen (f,s)",
            "model bits",
            "model cost",
            "measured bits",
            "within budget",
        ],
    );
    t.note("Paper §3.2 'Minimize the Update Cost for Given Number of Bits': interior");
    t.note("optimum if feasible, otherwise the boundary optimum (Lagrange condition).");
    let reg = ltree::default_registry();
    let ops = (n / 10) as usize;
    let script = generate_edits(UNIFORM, n as usize, ops, 13);
    for beta in [32u32, 40, 48, 64, 96] {
        match tuning::optimize_cost_with_bits(n + ops as u64, beta) {
            Ok(tuned) => {
                // The tuned params flow in through the config, not the spec.
                let cfg = SchemeConfig::with_params(tuned.params);
                let mut sc = reg
                    .build_with("ltree", &cfg)
                    .expect("tuned params are valid");
                let r = script.replay_incremental(&mut sc).expect("workload runs");
                t.row(vec![
                    beta.to_string(),
                    format!("({},{})", tuned.params.f(), tuned.params.s()),
                    f(tuned.predicted_bits),
                    f(tuned.predicted_cost),
                    r.label_space_bits.to_string(),
                    (r.label_space_bits <= beta).to_string(),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    beta.to_string(),
                    "infeasible".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    e.to_string(),
                ]);
            }
        }
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X7 — workload-weighted tuning
// ----------------------------------------------------------------------

/// X7 — workload-weighted tuning.
pub fn x7(scale: Scale) -> Vec<Table> {
    let n = scale.pick(1u64 << 16, 1u64 << 20);
    // The paper is from the 32-bit era: one machine word = 32 bits, so
    // the optimum genuinely shifts once the mix becomes query-heavy.
    let word = 32u32;
    let mut t = Table::new(
        format!("X7 — overall query+update optimum vs workload mix (n = {n}, {word}-bit words)"),
        &[
            "queries per update",
            "chosen (f,s)",
            "model bits",
            "words/cmp",
            "model update cost",
            "model total",
        ],
    );
    t.note("Paper §3.2 'Minimize the Overall Cost': once labels spill past one machine");
    t.note("word, each comparison costs proportionally more, pushing the optimum toward");
    t.note("narrower labels as the mix becomes query-heavy.");
    for q in [0.01f64, 1.0, 100.0, 10_000.0, 1_000_000.0] {
        let tuned = tuning::optimize_workload(&tuning::Workload {
            n,
            queries_per_update: q,
            word_bits: word,
        });
        let total = cost_model::overall_cost(
            f64::from(tuned.params.f()),
            f64::from(tuned.params.s()),
            n as f64,
            q,
            word,
        );
        t.row(vec![
            format!("{q}"),
            format!("({},{})", tuned.params.f(), tuned.params.s()),
            f(tuned.predicted_bits),
            f(cost_model::query_cost(tuned.predicted_bits, word)),
            f(tuned.predicted_cost),
            f(total),
        ]);
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X8 — batch insertion (Section 4.1)
// ----------------------------------------------------------------------

/// X8 — batch insertion (Section 4.1).
pub fn x8(scale: Scale) -> Vec<Table> {
    let n = scale.pick(10_000, 100_000);
    let total = scale.pick(8_192, 32_768);
    let mut t = Table::new(
        format!(
            "X8 — batch insertion: amortized cost per leaf vs batch size (n = {n}, {total} leaves)"
        ),
        &[
            "batch k",
            "labelWrites/leaf",
            "cost/leaf",
            "model cost/leaf",
            "speedup vs k=1",
        ],
    );
    t.note("Paper §4.1: 'the larger the size of inserting subtree, the lower the");
    t.note("amortized cost … the decrease is roughly logarithmic in the insertion size'.");
    let mut base_cost = None;
    for k in [1usize, 4, 16, 64, 256, 1024] {
        let mut sc = scheme("ltree(4,2)");
        let r = generate_edits(EditProfile::BulkLoad { run: k }, n, total, 17)
            .replay(&mut sc)
            .expect("workload runs");
        let cost = r.amortized_cost();
        if base_cost.is_none() {
            base_cost = Some(cost);
        }
        let model = cost_model::batch_amortized_cost(4.0, 2.0, (n + total) as f64, k as f64);
        t.row(vec![
            k.to_string(),
            f(r.amortized_label_writes()),
            f(cost),
            f(model),
            f(base_cost.expect("set on first iteration") / cost.max(1e-9)),
        ]);
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X9 — materialized vs virtual L-Tree (Section 4.2)
// ----------------------------------------------------------------------

/// X9 — materialized vs virtual L-Tree (Section 4.2).
pub fn x9(scale: Scale) -> Vec<Table> {
    let sizes: &[usize] = scale.pick(&[2_000, 10_000][..], &[10_000, 100_000][..]);
    let mut t = Table::new(
        "X9 — materialized vs virtual L-Tree (f=4, s=2, uniform inserts)",
        &[
            "n",
            "variant",
            "ns/insert",
            "labelWrites/op",
            "touches/op",
            "memory (KiB)",
            "bits",
        ],
    );
    t.note("Paper §4.2: 'a tradeoff between the extra computation required by the range");
    t.note("queries and the storage space necessary for materializing the L-Tree'.");
    t.note("Labels are verified identical between the two variants on every size, by");
    t.note("streaming both label sequences off the schemes' cursors.");
    t.note("Memory is buffer capacity. Materialized, that is one 20-B record per leaf (a");
    t.note("label's low 64 bits; higher bits get a column only once a label passes 2^64)");
    t.note("and one 24-B record per interior node (numbers are derived, not stored):");
    t.note("below virtual at every size.");
    for &n in sizes {
        let ops = (n / 2).max(1_000);
        let script = generate_edits(UNIFORM, n, ops, 23);
        // Traced, so each insert is timed inside the scheme; the tracer is
        // unwrapped before the memory column so its histograms stay out.
        let run = |spec: &str| {
            let mut traced = TracedScheme::new(scheme(spec));
            let r = script
                .replay_incremental(&mut traced)
                .expect("workload runs");
            let scheme_ns = mutation_histogram(&traced.metrics()).sum;
            (r, scheme_ns, traced.into_inner())
        };
        let (rm, m_ns, m) = run("ltree(4,2)");
        let (rv, v_ns, v) = run("virtual(4,2)");
        // Equivalence: identical label sequences after identical streams.
        assert_eq!(
            labels_in_order(&*m),
            labels_in_order(&*v),
            "virtual/materialized labels diverged"
        );
        for (variant, r, scheme_ns, mem) in [
            ("materialized", &rm, m_ns, m.memory_bytes()),
            ("virtual", &rv, v_ns, v.memory_bytes()),
        ] {
            t.row(vec![
                n.to_string(),
                variant.into(),
                f(scheme_ns as f64 / r.inserted.max(1) as f64),
                f(r.amortized_label_writes()),
                f(r.stats.node_touches as f64 / r.inserted.max(1) as f64),
                (mem / 1024).to_string(),
                r.label_space_bits.to_string(),
            ]);
        }
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X10 — adaptivity to uneven insertion rates
// ----------------------------------------------------------------------

/// X10 — adaptivity to uneven insertion rates.
pub fn x10(scale: Scale) -> Vec<Table> {
    let n = scale.pick(5_000, 50_000);
    let ops = scale.pick(5_000, 20_000);
    let mut t = Table::new(
        format!("X10 — uneven insertion rates (n = {n}, {ops} inserts)"),
        &[
            "workload",
            "scheme",
            "labelWrites/op",
            "cost/op",
            "relabel events",
        ],
    );
    t.note("Paper §6: the L-Tree 'automatically adapts to uneven insertion rates …");
    t.note("creating more slack between labels' where insertions are heavy; the fixed-gap");
    t.note("scheme instead degenerates to global relabels under a hotspot (every one of");
    t.note("its relabel events rewrites the whole list).");
    for (workload, profile) in [
        ("uniform", UNIFORM),
        (
            "hotspot",
            EditProfile::SkewedPoint {
                hot_fraction: 0.05,
                hot_weight: 0.9,
            },
        ),
        ("append", EditProfile::AppendHeavy { run: 1 }),
    ] {
        let script = generate_edits(profile, n, ops, 29);
        for spec in ["ltree(4,2)", "gap"] {
            let mut sc = scheme(spec);
            let r = script.replay_incremental(&mut sc).expect("workload runs");
            t.row(vec![
                workload.into(),
                spec.into(),
                f(r.amortized_label_writes()),
                f(r.amortized_cost()),
                r.stats.relabel_events.to_string(),
            ]);
        }
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X11 — structural guarantees (Propositions 2 and 3)
// ----------------------------------------------------------------------

/// X11 — structural guarantees (Propositions 2 and 3).
pub fn x11(scale: Scale) -> Vec<Table> {
    let n = scale.pick(2_000, 20_000);
    let ops = scale.pick(4_000, 20_000);
    let mut t = Table::new(
        "X11 — structural guarantees under randomized single-insert streams",
        &[
            "params",
            "workload",
            "splits",
            "root rebuilds",
            "cascades",
            "invariants",
        ],
    );
    t.note("Proposition 2: fanout and leaf-count bounds (checked by the full invariant");
    t.note("walker). Proposition 3: 'cascade splitting … is not possible' — the cascade");
    t.note("counter must stay 0 for every single-insert workload.");
    let hotspot = EditProfile::SkewedPoint {
        hot_fraction: 0.02,
        hot_weight: 0.95,
    };
    let scripts = [
        ("uniform", generate_edits(UNIFORM, n, ops, 31)),
        ("hotspot", generate_edits(hotspot, n, ops, 31)),
    ];
    for params in Params::presets() {
        for (workload, script) in &scripts {
            let mut tree = LTree::new(params);
            script.replay_incremental(&mut tree).expect("workload runs");
            let ok = tree.check_invariants().is_ok();
            let s = tree.stats();
            t.row(vec![
                params.to_string(),
                (*workload).into(),
                s.splits.to_string(),
                s.root_rebuilds.to_string(),
                s.cascade_splits.to_string(),
                if ok {
                    "pass".into()
                } else {
                    "FAIL".to_string()
                },
            ]);
            assert_eq!(s.cascade_splits, 0, "Proposition 3 violated");
            assert!(ok, "invariants violated");
        }
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X12 — deletions never relabel
// ----------------------------------------------------------------------

/// X12 — deletions never relabel.
pub fn x12(scale: Scale) -> Vec<Table> {
    let n = scale.pick(5_000, 50_000);
    let mut t = Table::new(
        "X12 — deletions are tombstones (no relabeling)",
        &[
            "scheme",
            "deletes",
            "label writes during deletes",
            "cost during deletes",
        ],
    );
    t.note("Paper §2.3: 'for deletions we can just mark as deleted the corresponding");
    t.note("leaves in the L-Tree without any relabeling.'");
    for spec in ["ltree(4,2)", "virtual(4,2)"] {
        let mut sc = scheme(spec);
        let handles = sc.bulk_build(n).expect("bulk build");
        sc.reset_scheme_stats();
        for h in handles.iter().step_by(2) {
            sc.delete(*h).expect("delete succeeds");
        }
        let s = sc.scheme_stats();
        t.row(vec![
            spec.into(),
            s.deletes.to_string(),
            s.label_writes.to_string(),
            s.node_touches.to_string(),
        ]);
        assert_eq!(s.label_writes, 0, "deletes must not write labels");
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X13 — query processing: navigation vs label joins
// ----------------------------------------------------------------------

/// X13 — query processing: navigation vs label joins.
pub fn x13(scale: Scale) -> Vec<Table> {
    let n = scale.pick(2_000, 20_000);
    let tree = generate(&auction_profile(n), 99);
    let reg = ltree::default_registry();
    let mut doc = Document::from_tree_with(tree, &reg, "ltree(8,2)", &SchemeConfig::default())
        .expect("document builds");
    // Make it a *dynamic* scenario: splice in some subtrees first.
    let root = doc.tree().root().expect("root");
    let (mut frag, fr) = XmlTree::with_root("open_auction");
    let b = frag.add_child(fr, "bidder").expect("live");
    frag.add_child(b, "price").expect("live");
    for i in 0..scale.pick(20, 200) {
        doc.insert_fragment(root, i % 3, &frag)
            .expect("fragment inserts");
    }
    doc.validate()
        .expect("document is consistent after updates");

    let queries = [
        "//item",
        "/site/regions//item",
        "//person/name",
        "/site//description",
        "//bidder/price",
        "//*",
    ];
    let mut t = Table::new(
        format!(
            "X13 — path queries over a generated auction document ({} elements)",
            doc.element_count()
        ),
        &[
            "query",
            "results",
            "navigational µs",
            "label-join µs",
            "identical",
        ],
    );
    t.note("Label-join evaluation = per-step sort-merge structural join over (begin,");
    t.note("end, depth) from the tag index — the paper's one-self-join story; the");
    t.note("navigational evaluator is the pointer-chasing ground truth.");
    for q in queries {
        let path = Path::parse(q).expect("valid query");
        let t0 = std::time::Instant::now();
        let nav = path.eval_navigational(&doc).expect("eval");
        let nav_us = t0.elapsed().as_micros();
        let t1 = std::time::Instant::now();
        let lab = path.eval_labeled(&doc).expect("eval");
        let lab_us = t1.elapsed().as_micros();
        let same = nav == lab;
        assert!(same, "evaluators disagree on {q}");
        t.row(vec![
            q.into(),
            nav.len().to_string(),
            nav_us.to_string(),
            lab_us.to_string(),
            same.to_string(),
        ]);
    }
    vec![t]
}

// ----------------------------------------------------------------------
// X14 — the RDBMS context: edge-table self-joins vs region-label join
// ----------------------------------------------------------------------

/// X14 — the RDBMS context: edge-table self-joins vs region-label join.
pub fn x14(scale: Scale) -> Vec<Table> {
    use ltree::rel::{descendants_via_edge_joins, descendants_via_region_join, shred};
    let n = scale.pick(3_000, 30_000);
    let tree = generate(&auction_profile(n), 77);
    let reg = ltree::default_registry();
    let doc = Document::from_tree_with(tree, &reg, "ltree(8,2)", &SchemeConfig::default())
        .expect("document builds");
    let (edge, region) = shred(&doc);
    let mut t = Table::new(
        format!("X14 — relational plans for //a₁//…//aₖ over {n} elements"),
        &["query", "results", "plan", "joins", "rows touched", "µs"],
    );
    t.note("The paper's introduction: the edge table needs 'one self-join … for each");
    t.note("parent-child relationship' and 'many self-joins' for '//', while region");
    t.note("labels need 'exactly one self-join with label comparisons as predicates'");
    t.note("per step. Row touches are the cost unit; both plans return identical ids.");
    let queries: &[&[&str]] = &[
        &["site", "item"],
        &["regions", "item", "name"],
        &["site", "open_auctions", "bidder"],
        &["site", "regions", "europe", "item", "description"],
    ];
    for tags in queries {
        let t0 = std::time::Instant::now();
        let e = descendants_via_edge_joins(&edge, tags, 14);
        let e_us = t0.elapsed().as_micros();
        let t1 = std::time::Instant::now();
        let r = descendants_via_region_join(&region, tags);
        let r_us = t1.elapsed().as_micros();
        assert_eq!(
            e.result_ids,
            r.result_ids,
            "plans must agree on //{}",
            tags.join("//")
        );
        let query = format!("//{}", tags.join("//"));
        t.row(vec![
            query.clone(),
            e.result_ids.len().to_string(),
            e.plan.into(),
            e.joins.to_string(),
            e.rows_touched.to_string(),
            e_us.to_string(),
        ]);
        t.row(vec![
            query,
            r.result_ids.len().to_string(),
            r.plan.into(),
            r.joins.to_string(),
            r.rows_touched.to_string(),
            r_us.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_at_quick_scale() {
        for id in all_ids() {
            let tables = run(id, Scale::Quick).expect("known id");
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
                let md = t.to_markdown();
                assert!(md.contains("###"));
            }
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("x99", Scale::Quick).is_none());
    }
}
