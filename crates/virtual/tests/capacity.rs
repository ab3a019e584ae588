//! A batch too large for the virtual L-Tree's `u32` item index space is
//! a typed error before anything changes: no allocation of the batch, no
//! truncated index, and the tree reads back exactly as before.

use ltree_core::{
    BatchLabeling, Instrumented, LTreeError, OrderedLabeling, OrderedLabelingMut, Params,
    SchemeStats,
};
use ltree_virtual::VirtualLTree;

/// Everything a failed batch must leave as it was.
fn snapshot(v: &VirtualLTree) -> (usize, usize, Vec<u128>, SchemeStats) {
    (v.len(), v.live_len(), v.labels_in_order(), v.scheme_stats())
}

fn assert_capacity_error<T: std::fmt::Debug>(result: Result<T, LTreeError>, requested: u64) {
    match result {
        Err(LTreeError::CapacityExceeded { requested: r }) => assert_eq!(r, requested),
        other => panic!("a batch of {requested} must be CapacityExceeded, got {other:?}"),
    }
}

#[test]
fn oversized_batches_are_typed_errors_with_the_tree_untouched() {
    let mut v = VirtualLTree::new(Params::new(4, 2).unwrap());
    let hs = v.bulk_build(64).unwrap();
    v.insert_after(hs[10]).unwrap();
    v.delete(hs[20]).unwrap();
    let before = snapshot(&v);

    for k in [1usize << 40, u32::MAX as usize] {
        assert_capacity_error(v.insert_many_after(hs[30], k), k as u64);
        assert_eq!(
            snapshot(&v),
            before,
            "a refused batch of {k} changed the tree"
        );
    }
    // Still a working tree.
    v.insert_many_after(hs[30], 3).unwrap();
    assert_eq!(v.live_len(), before.1 + 3);
    v.check_invariants().unwrap();
}

#[test]
fn oversized_bulk_builds_are_typed_errors_on_an_empty_tree() {
    let mut v = VirtualLTree::new(Params::new(4, 2).unwrap());
    let before = snapshot(&v);
    assert_capacity_error(v.bulk_build(1 << 40), 1 << 40);
    assert_eq!(snapshot(&v), before);
    assert_eq!(v.bulk_build(9).unwrap().len(), 9);
}
