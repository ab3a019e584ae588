//! End-to-end coverage for the networked label store: a real
//! `Document` over a served scheme, and the batch-amortization claim —
//! bulk loads and splices cost a constant number of round trips, not
//! one per item. Everything runs against in-process servers dialed over
//! TCP (`served(...)` specs), so no external process is involved.

use ltree::gen::{book_catalog_profile, generate};
use ltree::prelude::*;

/// Client round trips so far, read through the `Instrumented` facet —
/// the `net/round-trips` metric counter. The read itself costs one round
/// trip, which is *included* in the returned number.
fn round_trips(s: &dyn DynScheme) -> u64 {
    s.metrics()
        .iter()
        .find_map(|m| match m.value {
            ltree::MetricValue::Counter(v) if m.name == "net/round-trips" => Some(v),
            _ => None,
        })
        .expect("remote schemes expose net/round-trips")
}

/// The acceptance pin: a 10k-node bulk load through `RemoteScheme` is a
/// small constant number of round trips. The per-op path pays one trip
/// per insert (~20k for the same load through 20k singles) — measured
/// at 1/10 scale below so the suite stays fast.
#[test]
fn bulk_load_is_constant_round_trips() {
    let mut scheme = Scheme::build("served(ltree(4,2))").unwrap();
    scheme.bulk_build(10_000).unwrap();
    let rt = round_trips(&*scheme);
    // Handshake + bulk build + the metrics read itself.
    assert!(rt <= 8, "10k-item bulk load took {rt} round trips");

    // The per-op reference path at 1/10 scale: one trip per insert.
    let mut per_op = Scheme::build("served(ltree(4,2))").unwrap();
    let mut cur = per_op.insert_first().unwrap();
    for _ in 1..1_000 {
        cur = per_op.insert_after(cur).unwrap();
    }
    let per_op_rt = round_trips(&*per_op);
    assert!(
        per_op_rt >= 1_000,
        "singles pay one trip each ({per_op_rt})"
    );
    assert!(
        rt * 100 <= per_op_rt,
        "batching must amortize at least 100x at this scale ({rt} vs {per_op_rt})"
    );
}

/// Splices amortize the same way mid-session: a 5k-item subtree
/// insertion is one trip, a 2k-item removal is one trip.
#[test]
fn splices_are_one_round_trip_each() {
    let mut scheme = Scheme::build("served(ltree(4,2))").unwrap();
    let hs = scheme.bulk_build(100).unwrap();
    let before = round_trips(&*scheme);
    let batch = scheme
        .splice(Splice::InsertAfter {
            anchor: hs[50],
            count: 5_000,
        })
        .unwrap()
        .into_inserted();
    let deleted = scheme
        .splice(Splice::DeleteRun {
            first: batch[0],
            count: 2_000,
        })
        .unwrap()
        .deleted();
    assert_eq!(deleted, 2_000);
    let spent = round_trips(&*scheme) - before;
    // Two splices + two metrics reads.
    assert!(spent <= 4, "two splices took {spent} trips");
    assert_eq!(scheme.live_len(), 3_100);
}

/// A real `Document` over a served scheme, end to end: bulk load,
/// fragment insertion, subtree removal, subtree move, label queries and
/// serialization all behave exactly as over the local scheme.
#[test]
fn document_over_a_served_scheme_matches_local() {
    let tree = generate(&book_catalog_profile(400), 23);
    let text = ltree::xml::to_string(&tree).unwrap();

    let mut remote = Document::parse_str(&text, Scheme::build("served(ltree(4,2))").unwrap())
        .expect("parse over the wire");
    let mut local = Document::parse_str(&text, Scheme::build("ltree(4,2)").unwrap()).unwrap();
    remote.validate().unwrap();

    // Same document order and containment as the local twin.
    let order = |d: &Document<Box<dyn DynScheme>>| -> Vec<_> {
        d.all_spans().unwrap().into_iter().map(|s| s.node).collect()
    };
    assert_eq!(order(&remote), order(&local));
    let dfs = remote.tree().all_elements();
    for (i, &a) in dfs.iter().step_by(17).enumerate() {
        for &b in dfs.iter().skip(i).step_by(31) {
            assert_eq!(
                remote.is_ancestor(a, b).unwrap(),
                local.is_ancestor(a, b).unwrap(),
                "ancestor({a:?}, {b:?})"
            );
        }
    }

    // Edit through the splice paths on both sides.
    let edit = |d: &mut Document<Box<dyn DynScheme>>| {
        let root = d.tree().root().unwrap();
        let (mut frag, fr) = ltree::xml::XmlTree::with_root("appendix");
        let s1 = frag.add_child(fr, "section").unwrap();
        frag.add_child(s1, "para").unwrap();
        let ids = d.insert_fragment(root, 1, &frag).unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        let victim = *kids.last().unwrap();
        if victim != ids[0] {
            d.delete_subtree(victim).unwrap();
        }
        d.move_subtree(ids[0], root, 0).unwrap();
        d.validate().unwrap();
    };
    edit(&mut remote);
    edit(&mut local);
    assert_eq!(remote.element_count(), local.element_count());
    assert_eq!(
        ltree::xml::to_string(remote.tree()).unwrap(),
        ltree::xml::to_string(local.tree()).unwrap(),
        "identical documents after identical edits"
    );
}

/// A 10k-element document (20k leaf items) bulk loads over the wire in
/// a handful of round trips — the whole point of splice-driven loading
/// composed with the network backend.
#[test]
fn ten_thousand_element_document_loads_in_constant_trips() {
    let tree = generate(&book_catalog_profile(10_000), 5);
    let doc = Document::from_tree(tree, Scheme::build("served(ltree(4,2))").unwrap()).unwrap();
    assert_eq!(doc.element_count(), 10_000);
    let rt = round_trips(&**doc.scheme());
    assert!(
        rt <= 8,
        "a 10k-element document load must stay constant-trip ({rt})"
    );
}

/// A `Document` over a pooled + coalescing client matches its local
/// twin through the same edits — provisional handles, buffer flushes
/// and the page cache are all invisible to the XML layer.
#[test]
fn document_over_coalescing_pooled_client_matches_local() {
    let tree = generate(&book_catalog_profile(250), 31);
    let text = ltree::xml::to_string(&tree).unwrap();
    let mut remote = Document::parse_str(
        &text,
        Scheme::build("served(ltree(4,2),conns=2,coalesce)").unwrap(),
    )
    .unwrap();
    let mut local = Document::parse_str(&text, Scheme::build("ltree(4,2)").unwrap()).unwrap();
    remote.validate().unwrap();
    let edit = |d: &mut Document<Box<dyn DynScheme>>| {
        let root = d.tree().root().unwrap();
        let (mut frag, fr) = ltree::xml::XmlTree::with_root("errata");
        frag.add_child(fr, "item").unwrap();
        let ids = d.insert_fragment(root, 0, &frag).unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        let victim = *kids.last().unwrap();
        if victim != ids[0] {
            d.delete_subtree(victim).unwrap();
        }
        d.validate().unwrap();
    };
    edit(&mut remote);
    edit(&mut local);
    assert_eq!(remote.element_count(), local.element_count());
    assert_eq!(
        ltree::xml::to_string(remote.tree()).unwrap(),
        ltree::xml::to_string(local.tree()).unwrap(),
        "identical documents after identical edits"
    );
}

/// The payoff composition: `sharded(n, served(inner))` routes each
/// segment's splices to its own in-process server through the existing
/// segment directory — a `Document` neither knows nor cares.
#[test]
fn document_over_sharded_served_segments() {
    let tree = generate(&book_catalog_profile(300), 9);
    let text = ltree::xml::to_string(&tree).unwrap();
    let mut doc = Document::parse_str(
        &text,
        Scheme::build("sharded(4,served(ltree(4,2)))").unwrap(),
    )
    .unwrap();
    doc.validate().unwrap();
    let root = doc.tree().root().unwrap();
    let (frag, _) = ltree::xml::XmlTree::with_root("annex");
    doc.insert_fragment(root, 0, &frag).unwrap();
    let kids = doc.tree().child_elements(root).unwrap();
    doc.delete_subtree(*kids.last().unwrap()).unwrap();
    doc.validate().unwrap();
}
