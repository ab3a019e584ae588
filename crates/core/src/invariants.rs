//! Full structural checker for the materialized L-Tree.
//!
//! Verifies, after any sequence of operations, every property the paper
//! states or that the implementation relies on. Each failure message
//! starts with the number and name of the check it broke:
//!
//! 1. **root** — the root is an interior record with no parent;
//! 2. **height** — the root's height is the tree's, and heights decrease
//!    by exactly one along every edge, so all leaves sit at depth `H`
//!    (paper, Proposition 2.3);
//! 3. **parent link** — parent links agree with child lists;
//! 4. **fanout** — every non-root interior record has children, its
//!    stored fanout matches its child list, and fanout never exceeds `f`
//!    (paper, Proposition 2.2 — the transient `f`-fanout state is
//!    resolved within the same operation);
//! 5. **labeling** — every leaf label is the number the global labeling
//!    invariant `num(child_i) = num(parent) + i · B^{h(child)}` derives
//!    top-down from the root's 0, the property that makes the virtual
//!    L-Tree (Section 4.2) possible; with check 4 it makes leaf labels
//!    strictly increase. Interior records store no number, so this is
//!    also what lets the write path derive one from a leaf label;
//! 6. **leaf count** — each interior record's leaf count is the sum over
//!    its children and strictly below the split threshold `s · a^h`
//!    (the criterion is restored by the end of each operation);
//! 7. **totals** — the stored totals (`len`, `live_len`) match the
//!    structure;
//! 8. **leak** — every record is reachable from the root or on its
//!    pool's free list, and free leaf records are marked free;
//! 9. **label space** — every leaf label fits the label space `[0, B^H)`;
//! 10. **label column** — the leaf labels' high-word column is empty (no
//!     label has passed `u64::MAX`) or holds exactly one word per leaf
//!     record.

use crate::store::{Store, NIL};
use crate::tree::LTree;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError(pub String);

impl std::fmt::Display for InvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L-Tree invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantError {}

/// The checks' names, in the order the [module docs](self) number them.
const CHECKS: [&str; 10] = [
    "root",
    "height",
    "parent link",
    "fanout",
    "labeling",
    "leaf count",
    "totals",
    "leak",
    "label space",
    "label column",
];

fn violation(check: usize, detail: String) -> InvariantError {
    InvariantError(format!("check {check} ({}): {detail}", CHECKS[check - 1]))
}

macro_rules! ensure {
    ($check:expr, $cond:expr, $($arg:tt)*) => {
        if !$cond {
            return Err(violation($check, format!($($arg)*)));
        }
    };
}

/// Run every check described in the [module docs](self).
pub fn check(tree: &LTree) -> Result<(), InvariantError> {
    let store = tree.store();
    let params = tree.params();
    let root = tree.root_id();
    let space = params
        .interval(tree.height())
        .map_err(|_| violation(9, "label space B^H overflows u128".into()))?;

    // Runs first: every label the walk reads goes through the column.
    ensure!(
        10,
        store.hi.is_empty() || store.hi.len() == store.leaves.len(),
        "high-word column of length {} beside {} leaf records",
        store.hi.len(),
        store.leaves.len()
    );
    let root_node = store
        .nodes
        .get(root as usize)
        .ok_or_else(|| violation(1, format!("root record {root} out of range")))?;
    ensure!(1, root_node.parent == NIL, "root must have no parent");
    ensure!(
        2,
        root_node.height == tree.height(),
        "stored height {} != root height {}",
        tree.height(),
        root_node.height
    );

    let dangling = |c: u32| violation(3, format!("dangling child pointer {c}"));
    let mut nodes_seen = 1usize;
    let mut leaves_seen = 0u64;
    let mut live_seen = 0u64;
    // Each record with the number the labeling invariant gives it.
    let mut stack = vec![(root, 0u128)];
    while let Some((id, num)) = stack.pop() {
        let node = store.node(id);
        ensure!(2, node.height >= 1, "interior record at height 0");
        ensure!(
            4,
            id == root || node.fanout > 0,
            "non-root interior node with no children"
        );
        ensure!(
            4,
            node.fanout <= params.f(),
            "fanout {} exceeds f = {} at height {}",
            node.fanout,
            params.f(),
            node.height
        );
        let threshold = params.split_threshold(node.height);
        ensure!(
            6,
            u64::from(node.leaf_count) < threshold,
            "leaf count {} at height {} reached split threshold {}",
            node.leaf_count,
            node.height,
            threshold
        );
        let interval = params
            .interval(node.height - 1)
            .map_err(|_| violation(9, "child interval overflows u128".into()))?;
        let (mut c, mut i, mut sum) = (node.first, 0u32, 0u64);
        while c != NIL {
            // Bounds the walk even when a corrupted list cycles.
            ensure!(
                4,
                i < node.fanout,
                "more children linked than the stored fanout {} at height {}",
                node.fanout,
                node.height
            );
            // In range: `num < B^H` and `i < f < B`.
            let expect = num + u128::from(i) * interval;
            let (parent, height, label, next) = if node.height == 1 {
                let leaf = store.leaves.get(c as usize).ok_or_else(|| dangling(c))?;
                leaves_seen += 1;
                live_seen += u64::from(!leaf.is_deleted());
                sum += 1;
                (leaf.parent, 0, Some(store.label(c)), leaf.next)
            } else {
                let child = store.nodes.get(c as usize).ok_or_else(|| dangling(c))?;
                nodes_seen += 1;
                sum += u64::from(child.leaf_count);
                stack.push((c, expect));
                (child.parent, child.height, None, child.next)
            };
            ensure!(
                3,
                parent == id,
                "child {i} of record {id} links to {parent}"
            );
            ensure!(
                2,
                height == node.height - 1,
                "child height {} under parent height {}",
                height,
                node.height
            );
            if let Some(label) = label {
                ensure!(
                    9,
                    label < space,
                    "label {label} outside label space {space}"
                );
                ensure!(
                    5,
                    label == expect,
                    "leaf {i} of node num={num} has label {label}, expected {expect}"
                );
            }
            (c, i) = (next, i + 1);
        }
        ensure!(
            4,
            i == node.fanout,
            "stored fanout {} but {} children linked",
            node.fanout,
            i
        );
        ensure!(
            6,
            sum == u64::from(node.leaf_count),
            "leaf_count {} != sum of children {}",
            node.leaf_count,
            sum
        );
    }

    ensure!(
        7,
        leaves_seen == tree.leaf_total(),
        "stored leaf total {} != found {}",
        tree.leaf_total(),
        leaves_seen
    );
    ensure!(
        7,
        live_seen == tree.live_total(),
        "stored live total {} != found {}",
        tree.live_total(),
        live_seen
    );
    let free_leaves = free_list(store, store.free_leaf, true)?;
    ensure!(
        8,
        leaves_seen as usize + free_leaves == store.leaves.len(),
        "{} leaf records allocated but {} reachable and {} free",
        store.leaves.len(),
        leaves_seen,
        free_leaves
    );
    let free_nodes = free_list(store, store.free_node, false)?;
    ensure!(
        8,
        nodes_seen + free_nodes == store.nodes.len(),
        "{} interior records allocated but {} reachable and {} free",
        store.nodes.len(),
        nodes_seen,
        free_nodes
    );
    Ok(())
}

/// Length of the free list starting at `head`; a list longer than its
/// pool cycles.
fn free_list(store: &Store, head: u32, leaves: bool) -> Result<usize, InvariantError> {
    let pool = if leaves {
        store.leaves.len()
    } else {
        store.nodes.len()
    };
    let (mut c, mut len) = (head, 0usize);
    while c != NIL {
        ensure!(
            8,
            len < pool && (c as usize) < pool,
            "free list overruns its pool"
        );
        if leaves {
            ensure!(
                8,
                store.leaf(c).parent == NIL,
                "free leaf record {c} has a parent"
            );
            c = store.leaf(c).next;
        } else {
            c = store.node(c).next;
        }
        len += 1;
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::InvariantError;
    use crate::params::Params;
    use crate::store::Store;
    use crate::tree::LTree;

    #[test]
    fn fresh_trees_pass() {
        for n in [0usize, 1, 5, 17, 64] {
            let (tree, _) = LTree::bulk_load(Params::example(), n).unwrap();
            tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn error_message_is_descriptive() {
        let e = InvariantError("fanout 9 exceeds f = 4 at height 2".into());
        assert!(e.to_string().contains("fanout 9"));
    }

    /// A `(4,2)` tree of 8 leaves and height 3 (Figure 2(a) of the paper)
    /// whose records `edit` corrupts, given the first leaf's record and the
    /// root's. Returns the checker's message, which must name `check`.
    fn fires(check: &str, edit: impl FnOnce(&mut Store, u32, u32)) -> String {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 8).unwrap();
        tree.check_invariants().unwrap();
        let root = tree.root_id();
        edit(tree.store_mut(), leaves[0].idx, root);
        let msg = tree.check_invariants().unwrap_err().0;
        assert!(msg.starts_with(check), "expected {check}: {msg}");
        msg
    }

    #[test]
    fn check_1_fires_on_a_root_with_a_parent() {
        fires("check 1 (root)", |store, first, root| {
            store.node_mut(root).parent = store.leaf(first).parent;
        });
    }

    #[test]
    fn check_2_fires_on_a_height_mismatch() {
        fires("check 2 (height)", |store, first, _| {
            let parent = store.leaf(first).parent;
            store.node_mut(parent).height = 2;
        });
    }

    #[test]
    fn check_3_fires_on_a_wrong_parent_link() {
        fires("check 3 (parent link)", |store, first, _| {
            let stranger = store.alloc_node(1);
            store.leaf_mut(first).parent = stranger;
        });
    }

    #[test]
    fn check_4_fires_on_fanout_above_f() {
        fires("check 4 (fanout)", |store, first, _| {
            let parent = store.leaf(first).parent;
            store.node_mut(parent).fanout = 5;
        });
    }

    #[test]
    fn check_4_bounds_a_cycling_child_list() {
        let msg = fires("check 4 (fanout)", |store, first, _| {
            let second = store.leaf(first).next;
            store.leaf_mut(second).next = first;
        });
        assert!(msg.contains("more children linked"), "{msg}");
    }

    #[test]
    fn check_5_fires_on_a_child_num_off_by_one() {
        fires("check 5 (labeling)", |store, first, _| {
            store.set_label(first, store.label(first) + 1);
        });
    }

    /// Every label consistent with its siblings, but not with a root
    /// numbered 0.
    #[test]
    fn check_5_fires_when_every_label_is_shifted() {
        fires("check 5 (labeling)", |store, _, _| {
            for idx in 0..store.leaves.len() as u32 {
                store.set_label(idx, store.label(idx) + 1);
            }
        });
    }

    #[test]
    fn check_6_fires_on_a_wrong_or_overfull_leaf_count() {
        let msg = fires("check 6 (leaf count)", |store, first, _| {
            let parent = store.leaf(first).parent;
            store.node_mut(parent).leaf_count = 1;
        });
        assert!(msg.contains("sum of children"), "{msg}");
        // (4,2) splits a height-3 node at s · a^3 = 16 leaves.
        let msg = fires("check 6 (leaf count)", |store, _, root| {
            store.node_mut(root).leaf_count = 16;
        });
        assert!(msg.contains("split threshold 16"), "{msg}");
    }

    #[test]
    fn check_7_fires_on_wrong_stored_totals() {
        fires("check 7 (totals)", |store, first, _| {
            store.leaf_mut(first).set_deleted();
        });
    }

    #[test]
    fn check_8_fires_on_a_leaked_record() {
        fires("check 8 (leak)", |store, _, _| {
            store.alloc_node(1);
        });
        fires("check 8 (leak)", |store, first, _| {
            let parent = store.leaf(first).parent;
            store.alloc_leaf(parent);
        });
    }

    #[test]
    fn check_9_fires_on_a_label_outside_the_label_space() {
        // Height 3 at base 5: labels live in [0, 125).
        fires("check 9 (label space)", |store, first, _| {
            store.set_label(first, 125);
        });
    }

    #[test]
    fn check_10_fires_on_a_high_word_column_off_the_pool_length() {
        let msg = fires("check 10 (label column)", |store, _, _| {
            store.hi.push(0);
        });
        assert!(msg.contains("length 1 beside 8 leaf records"), "{msg}");
        // An open column must grow with the pool.
        fires("check 10 (label column)", |store, _, _| {
            store.hi.resize(store.leaves.len() - 1, 0);
        });
    }
}
