//! Document-shaped update workloads: seeded edits against a real
//! [`Document<S>`](xmldb::Document).
//!
//! The leaf-stream edit scripts ([`crate::workload`]) drive a scheme
//! directly; this module drives it the way the XML layer does — through
//! [`Document::insert_fragments`] (one splice per sibling run) and
//! [`Document::delete_subtree`] (one delete-run splice per removal) —
//! so a sweep cell measures the *whole* funnel of the paper's Section
//! 4.1 story: parse → graft → splice, begin/end tags included.
//!
//! Edits are scheme-independent: every random draw depends only on the
//! seed and the DOM shape (which evolves identically for every scheme),
//! so each scheme in a sweep replays the same logical edit session and
//! the counter columns stay deterministic.

use ltree_core::rng::SplitMix64;
use ltree_core::LabelingScheme;
use std::time::Instant;
use xmldb::{Document, XmlNodeId, XmlTree};

use crate::gen::{book_catalog_profile, generate};
use crate::workload::WorkloadReport;

/// Largest subtree (in elements) a delete edit may remove; bigger
/// targets are skipped so the session edits the document instead of
/// draining it.
const MAX_DELETE_SUBTREE: usize = 24;

/// Build a deterministic small fragment of `k ≥ 1` elements: each new
/// element attaches under a random earlier one, giving shallow, bushy
/// subtrees like real clipboard content.
fn make_fragment(rng: &mut SplitMix64, k: usize) -> XmlTree {
    let (mut frag, root) = XmlTree::with_root("frag");
    let mut nodes = vec![root];
    for _ in 1..k {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let id = frag
            .add_child(parent, "item")
            .expect("fragment nodes are live");
        nodes.push(id);
    }
    frag
}

/// Run a seeded document-edit session against `scheme`: a
/// [`book_catalog_profile`] document of `elements` elements is bulk
/// loaded, then fragment insertions (with occasional subtree deletions)
/// are applied through the `Document` splice paths until at least
/// `ops_items` scheme items (2 per element) have been inserted.
///
/// Stats cover the edit session only — the initial load is reset away,
/// as in [`crate::workload::EditScript::replay`]. Returns the report
/// and the scheme (recovered from the document) so callers can read its
/// [`ltree_core::Instrumented::metrics`].
///
/// ```
/// use ltree_core::{LTree, Params};
/// use xmlgen::docedit::run_document_edits;
///
/// let scheme = LTree::new(Params::new(4, 2).unwrap());
/// let (report, _scheme) = run_document_edits(scheme, 100, 200, 7).unwrap();
/// assert!(report.inserted >= 200);
/// assert_eq!(report.workload, "doc-edit");
/// ```
pub fn run_document_edits<S: LabelingScheme>(
    scheme: S,
    elements: usize,
    ops_items: usize,
    seed: u64,
) -> xmldb::error::Result<(WorkloadReport, S)> {
    let mut rng = SplitMix64::new(seed);
    let elements = elements.max(2);
    let tree = generate(&book_catalog_profile(elements), seed);
    let mut doc = Document::from_tree(tree, scheme)?;
    let initial = 2 * doc.element_count();

    // Live elements in a deterministic order; targets are drawn by index.
    let root = doc.tree().root().expect("generated documents have a root");
    let mut live: Vec<XmlNodeId> = doc.tree().all_elements();

    // The load is not part of the measured session.
    doc.reset_scheme_stats();

    let start = Instant::now();
    let mut inserted = 0u64;
    let mut deleted = 0u64;
    while (inserted as usize) < ops_items {
        let try_delete = live.len() > 32 && rng.gen_bool(0.25);
        if try_delete {
            let target = live[rng.gen_range(0..live.len())];
            if target == root {
                continue;
            }
            let subtree = doc.tree().dfs(target)?;
            if subtree.len() > MAX_DELETE_SUBTREE {
                continue; // too big: skip, draw again
            }
            let removed = doc.delete_subtree(target)?;
            debug_assert_eq!(removed, subtree.len());
            let gone: std::collections::HashSet<XmlNodeId> = subtree.into_iter().collect();
            live.retain(|id| !gone.contains(id));
            deleted += 2 * removed as u64;
        } else {
            let k = 1 + rng.gen_range(0..6);
            let fragment = make_fragment(&mut rng, k);
            let parent = live[rng.gen_range(0..live.len())];
            let child_count = doc.tree().child_elements(parent)?.len();
            let index = rng.gen_range(0..child_count + 1);
            let ids = doc.insert_fragment(parent, index, &fragment)?;
            inserted += 2 * ids.len() as u64;
            live.extend(ids);
        }
    }
    let wall = start.elapsed();
    doc.validate()?;

    let stats = doc.scheme().scheme_stats();
    let report = WorkloadReport {
        scheme: doc.scheme().name(),
        workload: "doc-edit",
        initial,
        inserted,
        deleted,
        stats,
        label_space_bits: doc.scheme().label_space_bits(),
        memory_bytes: doc.scheme().memory_bytes(),
        wall,
    };
    Ok((report, doc.into_scheme()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::{LTree, Params};

    #[test]
    fn sessions_are_deterministic_and_validated() {
        let run = || {
            let (r, s) =
                run_document_edits(LTree::new(Params::new(4, 2).unwrap()), 120, 300, 11).unwrap();
            (r.stats, r.inserted, r.deleted, s.label_space_bits())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same session, same counters");
        assert!(a.1 >= 300, "inserted at least the ops budget");
    }

    #[test]
    fn deletes_happen_and_stats_cover_the_session_only() {
        let (r, _) =
            run_document_edits(LTree::new(Params::new(4, 2).unwrap()), 200, 600, 3).unwrap();
        assert!(r.deleted > 0, "sessions mix in subtree removals");
        assert_eq!(
            r.stats.inserts, r.inserted,
            "stats were reset after the bulk load"
        );
        assert_eq!(r.workload, "doc-edit");
        assert_eq!(r.initial, 2 * 200);
    }

    #[test]
    fn different_schemes_replay_the_same_logical_session() {
        let (a, _) =
            run_document_edits(LTree::new(Params::new(4, 2).unwrap()), 100, 250, 5).unwrap();
        let (b, _) =
            run_document_edits(labeling_baselines::GapLabeling::new(), 100, 250, 5).unwrap();
        assert_eq!(a.inserted, b.inserted);
        assert_eq!(a.deleted, b.deleted);
    }
}
