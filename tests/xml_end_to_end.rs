//! End-to-end XML pipeline: generate → serialize → parse → label →
//! update → query, with the navigational and label-join evaluators
//! cross-checked after every phase, over several labeling schemes.

use ltree::gen::{auction_profile, book_catalog_profile, generate, uniform_profile};
use ltree::prelude::*;
use ltree::xml::XmlTree;
use ltree::LabelingScheme;

const QUERIES: &[&str] = &[
    "//item",
    "/site/regions//item",
    "//person/name",
    "/site//description",
    "//parlist//text",
    "//*",
    "/site/*/item",
];

fn check_queries<S: LabelingScheme>(doc: &Document<S>, queries: &[&str]) {
    for q in queries {
        let path = Path::parse(q).unwrap();
        let nav = path.eval_navigational(doc).unwrap();
        let lab = path.eval_labeled(doc).unwrap();
        assert_eq!(nav, lab, "evaluators disagree on {q}");
    }
}

#[test]
fn auction_pipeline_with_ltree() {
    for seed in [1u64, 2, 3] {
        let tree = generate(&auction_profile(800), seed);
        // Serialize/parse roundtrip first: the parser must accept its own
        // serializer's output.
        let text = ltree::xml::to_string(&tree).unwrap();
        let reparsed = ltree::xml::parse(&text).unwrap();
        assert_eq!(reparsed.element_count(), 800);

        let mut doc =
            Document::from_tree(reparsed, LTree::new(Params::new(4, 2).unwrap())).unwrap();
        doc.validate().unwrap();
        check_queries(&doc, QUERIES);

        // Update storm: subtree insertions at varied spots + deletions.
        let root = doc.tree().root().unwrap();
        let (mut frag, fr) = XmlTree::with_root("open_auction");
        let b = frag.add_child(fr, "bidder").unwrap();
        frag.add_child(b, "increase").unwrap();
        for i in 0..30 {
            doc.insert_fragment(root, i % 4, &frag).unwrap();
        }
        // Delete ~10% of the leaf-most items.
        let victims: Vec<_> = doc
            .tree()
            .all_elements()
            .into_iter()
            .filter(|&id| {
                doc.tree()
                    .child_elements(id)
                    .map(|c| c.is_empty())
                    .unwrap_or(false)
                    && doc.tree().parent(id).ok().flatten().is_some()
            })
            .step_by(10)
            .collect();
        for v in victims {
            doc.delete_subtree(v).unwrap();
        }
        doc.validate().unwrap();
        check_queries(&doc, QUERIES);
    }
}

#[test]
fn books_pipeline_with_virtual_ltree() {
    let tree = generate(&book_catalog_profile(500), 7);
    let mut doc = Document::from_tree(tree, VirtualLTree::new(Params::new(8, 2).unwrap())).unwrap();
    doc.validate().unwrap();
    let queries = [
        "/catalog/book",
        "//title",
        "/catalog//section//para",
        "//chapter/title",
        "//book/*",
    ];
    check_queries(&doc, &queries);

    // A chapter-insertion hotspot at the front of the first book.
    let book = doc
        .tree()
        .child_elements(doc.tree().root().unwrap())
        .unwrap()[0];
    let (mut frag, fr) = XmlTree::with_root("chapter");
    let sect = frag.add_child(fr, "section").unwrap();
    frag.add_child(sect, "para").unwrap();
    frag.add_child(fr, "title").unwrap();
    for _ in 0..40 {
        doc.insert_fragment(book, 0, &frag).unwrap();
    }
    doc.validate().unwrap();
    check_queries(&doc, &queries);
    assert_eq!(doc.element_count(), 500 + 40 * 4);
}

#[test]
fn uniform_pipeline_with_baseline_scheme() {
    // The document layer is scheme-agnostic; even the naive baseline must
    // produce correct (if slow) query answers.
    let tree = generate(&uniform_profile(300), 21);
    let mut doc = Document::from_tree(tree, NaiveLabeling::new()).unwrap();
    doc.validate().unwrap();
    let queries = ["//a", "/root//p", "//b/y", "//*"];
    check_queries(&doc, &queries);
    let root = doc.tree().root().unwrap();
    for i in 0..20 {
        doc.insert_element(root, i, "a").unwrap();
    }
    doc.validate().unwrap();
    check_queries(&doc, &queries);
}

#[test]
fn bulk_load_issues_10x_fewer_mut_calls_than_per_node() {
    use ltree::obs::{mutation_calls, TracedScheme};
    // The acceptance bar for splice-driven bulk loading: on a 10k-node
    // document, the bulk path must issue at least 10× fewer
    // OrderedLabelingMut/BatchLabeling calls than labeling one tag at a
    // time — while doing the same logical work.
    let tree = generate(&auction_profile(10_000), 42);
    let params = Params::new(4, 2).unwrap();
    let bulk = Document::from_tree(tree.clone(), TracedScheme::new(LTree::new(params))).unwrap();
    let incr =
        Document::from_tree_incremental(tree, TracedScheme::new(LTree::new(params))).unwrap();
    bulk.validate().unwrap();
    incr.validate().unwrap();

    let b = mutation_calls(&bulk.scheme().metrics());
    let i = mutation_calls(&incr.scheme().metrics());
    assert_eq!(i, 20_000, "per-node path pays one call per tag");
    assert_eq!(b, 1, "bulk path is a single scheme call");
    assert!(
        10 * b <= i,
        "bulk path must issue >= 10x fewer mutation calls ({b} vs {i})"
    );

    // And in SchemeStats currency: both paths track the same 20k leaves,
    // but bulk loading is not an update stream (the paper's model charges
    // it nothing — its counters stay zero), while the per-node path pays
    // full amortized relabeling for every single tag.
    assert_eq!(bulk.scheme().live_len(), incr.scheme().live_len());
    assert_eq!(bulk.scheme().live_len(), 20_000);
    let (bs, is) = (bulk.scheme().scheme_stats(), incr.scheme().scheme_stats());
    assert_eq!(is.inserts, 20_000, "per-node path pays per-item cost");
    assert!(
        is.label_writes >= 20_000,
        "every tag was labeled at least once"
    );
    assert!(
        bs.label_writes <= is.label_writes / 10,
        "bulk label maintenance must undercut per-node by 10x ({} vs {})",
        bs.label_writes,
        is.label_writes
    );
}

#[test]
fn fragment_batches_beat_per_element_insertion() {
    use ltree::obs::{mutation_calls, TracedScheme};
    // The same bar for incremental growth: inserting a 50-element
    // fragment is one splice, not 100 single inserts.
    let params = Params::new(4, 2).unwrap();
    let mut doc =
        Document::parse_str("<r><a/></r>", TracedScheme::new(LTree::new(params))).unwrap();
    let root = doc.tree().root().unwrap();
    let (mut frag, fr) = XmlTree::with_root("chunk");
    for i in 0..49 {
        frag.add_child(fr, if i % 2 == 0 { "x" } else { "y" })
            .unwrap();
    }
    let before = mutation_calls(&doc.scheme().metrics());
    for i in 0..10 {
        doc.insert_fragment(root, i, &frag).unwrap();
    }
    assert_eq!(
        mutation_calls(&doc.scheme().metrics()) - before,
        10,
        "one splice per 50-element fragment"
    );
    doc.validate().unwrap();
    assert_eq!(doc.element_count(), 2 + 10 * 50);
}

#[test]
fn document_order_comparisons_match_dfs() {
    let tree = generate(&auction_profile(400), 5);
    let doc = Document::from_tree(tree, LTree::new(Params::new(4, 2).unwrap())).unwrap();
    let order = doc.tree().all_elements();
    for pair in order.windows(2) {
        assert_eq!(
            doc.document_cmp(pair[0], pair[1]).unwrap(),
            std::cmp::Ordering::Less
        );
    }
    // is_ancestor agrees with the DOM parent chain on a sample.
    for &id in order.iter().step_by(7) {
        let mut cur = doc.tree().parent(id).unwrap();
        while let Some(p) = cur {
            assert!(doc.is_ancestor(p, id).unwrap());
            assert!(!doc.is_ancestor(id, p).unwrap());
            cur = doc.tree().parent(p).unwrap();
        }
    }
}

#[test]
fn deep_document_stays_consistent() {
    // A pathological right-spine document.
    let (mut tree, mut cur) = XmlTree::with_root("d0");
    for i in 1..200 {
        cur = tree.add_child(cur, &format!("d{i}")).unwrap();
    }
    let mut doc = Document::from_tree(tree, LTree::new(Params::new(4, 2).unwrap())).unwrap();
    doc.validate().unwrap();
    // Insert at the very bottom repeatedly (max-depth hotspot).
    let bottom = *doc.tree().all_elements().last().unwrap();
    for _ in 0..60 {
        doc.insert_element(bottom, 0, "leaf").unwrap();
    }
    doc.validate().unwrap();
    let path = Path::parse("//leaf").unwrap();
    assert_eq!(path.eval_navigational(&doc).unwrap().len(), 60);
    assert_eq!(path.eval_labeled(&doc).unwrap().len(), 60);
}
