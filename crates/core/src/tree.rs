//! The materialized L-Tree (paper, Section 2).
//!
//! The tree keeps one leaf per document tag, all leaves at the same depth,
//! and maintains the global labeling invariant
//! `num(child_i) = num(parent) + i · B^{h(child)}` with `B = f + 1`.
//!
//! * [`LTree::bulk_load`] — Section 2.2: a leftmost-complete `f/s`-ary
//!   tree, built and labelled in one left-to-right pass over the leaves
//!   (labels from [`crate::layout::complete_offsets`]).
//! * [`LTree::insert_after`] / [`LTree::insert_before`] — Section 2.3,
//!   Algorithm 1: sibling relabel, or split of the highest overfull
//!   ancestor into `s` half-full subtrees, renumbering only the pieces
//!   and the siblings to their right.
//! * [`LTree::insert_many_after`] — Section 4.1: batch insertion; the split
//!   produces `ceil(L / a^h)` pieces and, if a batch transiently overflows
//!   a fanout, cascades upward (never needed for single inserts —
//!   Proposition 3).
//! * [`LTree::delete`] — Section 2.3: tombstone, never relabels.
//! * [`LTree::compact`] — an extension beyond the paper: rebuilds the tree
//!   without tombstones, preserving all live [`LeafId`]s.
//!
//! Nodes live in two pools of fixed-size records joined by
//! first-child/next-sibling links (see `store`): a 20-B leaf record
//! and a 24-B interior record, with no per-node allocation. Only leaf
//! labels are stored, their low 64 bits in the leaf record and any
//! higher bits in a column the store opens for the first wider label;
//! the write path derives the interior numbers it needs from one leaf
//! label (see `insert_leaves_at`).
//!
//! Every leftmost-complete subtree (a bulk load, `compact`, a split's
//! pieces, a root rebuild's pieces) is built by one pass over its leaves
//! in order that keeps one open interior record per level, so building
//! allocates no per-node memory (see `LTree::build_complete`).

use std::cmp::Ordering;

use crate::error::{LTreeError, Result};
use crate::invariants::{self, InvariantError};
use crate::label::Label;
use crate::layout::{ceil_div, complete_offsets, even_split, RootRebuild};
use crate::params::{Params, MAX_HEIGHT};
use crate::snapshot::StructureEvent;
use crate::stats::Stats;
use crate::store::{InteriorRec, LeafRec, Store, MAX_LEAVES, NIL};

/// Stable identifier of a leaf (one document tag). Valid for the lifetime
/// of the tree: splits rebuild interior nodes but never touch leaves, and
/// [`LTree::compact`] preserves live leaves as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafId {
    /// Leaf record index.
    pub(crate) idx: u32,
    /// The record's generation when this id was issued.
    pub(crate) gen: u32,
}

impl LeafId {
    /// Pack into a `u64` (for the generic [`crate::LeafHandle`]):
    /// `(index + 1) << 32 | generation`, so 0 is never a valid handle.
    pub fn to_u64(self) -> u64 {
        ((u64::from(self.idx) + 1) << 32) | u64::from(self.gen)
    }

    /// Unpack from a `u64`; `None` if the index half is zero.
    pub fn from_u64(v: u64) -> Option<Self> {
        let idx = ((v >> 32) as u32).checked_sub(1)?;
        Some(LeafId { idx, gen: v as u32 })
    }
}

/// The materialized L-Tree. See the [module docs](self).
pub struct LTree {
    params: Params,
    store: Store,
    /// Interior record of the root.
    root: u32,
    height: u8,
    /// Total leaves, tombstones included.
    n_leaves: u64,
    /// Leaves that are not tombstoned.
    n_live: u64,
    stats: Stats,
}

impl LTree {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// An empty L-Tree (a height-1 root with no leaves yet).
    pub fn new(params: Params) -> Self {
        let mut store = Store::new();
        let root = store.alloc_node(1);
        LTree {
            params,
            store,
            root,
            height: 1,
            n_leaves: 0,
            n_live: 0,
            stats: Stats::default(),
        }
    }

    /// Bulk load `n` leaves (paper, Section 2.2): a leftmost-complete
    /// `f/s`-ary tree of minimal height, so later insertions find maximal
    /// slack. Returns the tree and the leaves in document order.
    pub fn bulk_load(params: Params, n: usize) -> Result<(Self, Vec<LeafId>)> {
        let mut tree = LTree::new(params);
        let leaves = tree.bulk_build_leaves(n, |leaf| leaf)?;
        Ok((tree, leaves))
    }

    /// Bulk load `n` leaves into this empty tree, returning `handle` of
    /// each in document order. One pass allocates each leaf record,
    /// writes its label from [`complete_offsets`] and hangs it in the
    /// tree (see [`build_complete`](Self::build_complete)); the labels
    /// are the ones the invariant gives this shape, so no renumbering
    /// walk follows.
    pub(crate) fn bulk_build_leaves<T>(
        &mut self,
        n: usize,
        handle: impl Fn(LeafId) -> T,
    ) -> Result<Vec<T>> {
        if self.n_leaves > 0 {
            return Err(LTreeError::NotEmpty);
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let n64 = n as u64;
        let mut out = self.reserve_leaves(n)?;
        let height = self.params.height_for(n64);
        if height > self.params.max_height() {
            return Err(LTreeError::LabelOverflow { height });
        }
        let labels = complete_offsets(n64, height, &self.params)?;
        // Replace the empty placeholder root.
        self.store.free_node(self.root);
        let mut build = Builder::new(&self.params, height);
        for label in labels {
            let leaf = self.store.alloc_leaf(NIL);
            self.store.set_label(leaf.idx, label);
            build.push(&mut self.store, leaf.idx);
            out.push(handle(leaf));
        }
        self.root = build.finish(&mut self.store, &mut self.stats);
        self.height = height;
        self.n_leaves = n64;
        self.n_live = n64;
        // Bulk loading is not an update: it should not pollute the
        // amortized-cost counters the experiments read.
        self.stats.reset();
        Ok(out)
    }

    /// Room for `k` more leaves, or [`LTreeError::CapacityExceeded`]
    /// before anything changes: the total must fit the `u32` record index
    /// space, and the record pool (with its high-word column, if open)
    /// and the returned vector (empty, with capacity `k`) are reserved
    /// up front.
    fn reserve_leaves<T>(&mut self, k: usize) -> Result<Vec<T>> {
        let requested = k as u64;
        let exceeded = LTreeError::CapacityExceeded { requested };
        let total = match self.n_leaves.checked_add(requested) {
            Some(total) if total <= MAX_LEAVES => total as usize,
            _ => return Err(exceeded),
        };
        let mut ids = Vec::new();
        self.store
            .try_reserve_leaves(total)
            .and_then(|()| ids.try_reserve_exact(k))
            .map_err(|_| exceeded)?;
        Ok(ids)
    }

    // ------------------------------------------------------------------
    // Public queries
    // ------------------------------------------------------------------

    /// Shape parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Current height `H` (leaves are at depth `H`).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Total number of leaves, tombstones included.
    pub fn len(&self) -> usize {
        self.n_leaves as usize
    }

    /// True when the tree holds no leaves at all.
    pub fn is_empty(&self) -> bool {
        self.n_leaves == 0
    }

    /// Number of live (non-tombstoned) leaves.
    pub fn live_len(&self) -> usize {
        self.n_live as usize
    }

    /// Cost counters (see [`Stats`]).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Reset the cost counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The label of a leaf — `O(1)`, "for free" in the paper's cost model.
    pub fn label(&self, leaf: LeafId) -> Result<Label> {
        self.leaf_rec(leaf)?;
        Ok(Label::new(self.store.label(leaf.idx)))
    }

    /// Whether the leaf is tombstoned.
    pub fn is_deleted(&self, leaf: LeafId) -> Result<bool> {
        Ok(self.leaf_rec(leaf)?.is_deleted())
    }

    /// True if `leaf` refers to a live leaf record of this tree.
    pub fn contains(&self, leaf: LeafId) -> bool {
        self.store.live_leaf(leaf).is_some()
    }

    /// Compare two leaves in document order via their labels.
    pub fn compare(&self, a: LeafId, b: LeafId) -> Result<Ordering> {
        Ok(self.label(a)?.cmp(&self.label(b)?))
    }

    /// Width of the current label space in bits: labels live in
    /// `[0, (f+1)^H)` (paper, Section 3.1).
    pub fn label_space_bits(&self) -> u32 {
        match self.params.interval(self.height) {
            Ok(space) => Label::new(space - 1).bits(),
            Err(_) => 128,
        }
    }

    /// The largest label currently assigned, if any.
    pub fn max_label(&self) -> Option<Label> {
        self.last_leaf().and_then(|l| self.label(l).ok())
    }

    /// Heap usage in bytes (space side of experiment X9): the tree itself
    /// plus the capacity of both record pools and of the labels'
    /// high-word column (none while every label fits 64 bits). `O(1)`.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.store.memory_bytes()
    }

    /// First leaf in document order.
    pub fn first_leaf(&self) -> Option<LeafId> {
        self.first_leaf_rec().map(|idx| self.store.leaf_id(idx))
    }

    /// Last leaf in document order.
    pub fn last_leaf(&self) -> Option<LeafId> {
        if self.is_empty() {
            return None;
        }
        Some(
            self.store
                .leaf_id(self.descend(self.root, self.height, true)),
        )
    }

    /// Successor leaf in document order (tombstones included): one link
    /// unless `leaf` is the last child of its parent.
    pub fn next_leaf(&self, leaf: LeafId) -> Result<Option<LeafId>> {
        self.leaf_rec(leaf)?;
        Ok(self.successor(leaf.idx).map(|idx| self.store.leaf_id(idx)))
    }

    /// Predecessor leaf in document order (tombstones included).
    pub fn prev_leaf(&self, leaf: LeafId) -> Result<Option<LeafId>> {
        self.leaf_rec(leaf)?;
        let (mut id, mut h) = (leaf.idx, 0u8);
        loop {
            let parent = self.store.parent(id, h);
            if parent == NIL {
                return Ok(None);
            }
            let prev = self.prev_sibling(parent, id);
            if prev != NIL {
                return Ok(Some(self.store.leaf_id(self.descend(prev, h, true))));
            }
            (id, h) = (parent, h + 1);
        }
    }

    /// Iterate all leaves in document order (tombstones included).
    pub fn leaves(&self) -> Leaves<'_> {
        Leaves {
            tree: self,
            next: self.first_leaf_rec().unwrap_or(NIL),
        }
    }

    /// Iterate live leaves in document order.
    pub fn live_leaves(&self) -> impl Iterator<Item = LeafId> + '_ {
        self.leaves()
            .filter(|&l| !self.store.leaf(l.idx).is_deleted())
    }

    /// Run the full structural checker (used pervasively by tests).
    pub fn check_invariants(&self) -> std::result::Result<(), InvariantError> {
        invariants::check(self)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Insert a new leaf immediately after `anchor`.
    pub fn insert_after(&mut self, anchor: LeafId) -> Result<LeafId> {
        let parent = self.leaf_rec(anchor)?.parent;
        let ids = self.insert_leaves_at(parent, anchor.idx, 1)?;
        self.stats.inserts += 1;
        Ok(ids[0])
    }

    /// Insert a new leaf immediately before `anchor`.
    pub fn insert_before(&mut self, anchor: LeafId) -> Result<LeafId> {
        let parent = self.leaf_rec(anchor)?.parent;
        let prev = self.prev_sibling(parent, anchor.idx);
        let ids = self.insert_leaves_at(parent, prev, 1)?;
        self.stats.inserts += 1;
        Ok(ids[0])
    }

    /// Insert a new first leaf (works on an empty tree).
    pub fn insert_first(&mut self) -> Result<LeafId> {
        let parent = self.first_leaf_parent();
        let ids = self.insert_leaves_at(parent, NIL, 1)?;
        self.stats.inserts += 1;
        Ok(ids[0])
    }

    /// Append a leaf after the current last leaf (works on an empty tree).
    pub fn push_back(&mut self) -> Result<LeafId> {
        match self.last_leaf() {
            Some(last) => self.insert_after(last),
            None => self.insert_first(),
        }
    }

    /// Batch insertion (paper, Section 4.1): insert `k` consecutive leaves
    /// immediately after `anchor`, paying the path/update costs once.
    /// Returns the new leaves in document order. A batch too large for
    /// the tree's `u32` index space is [`LTreeError::CapacityExceeded`],
    /// reported before anything is allocated or counted.
    pub fn insert_many_after(&mut self, anchor: LeafId, k: usize) -> Result<Vec<LeafId>> {
        let parent = self.leaf_rec(anchor)?.parent;
        let ids = self.insert_leaves_at(parent, anchor.idx, k)?;
        self.stats.batch_inserts += 1;
        Ok(ids)
    }

    /// Batch twin of [`insert_first`](LTree::insert_first).
    pub fn insert_many_first(&mut self, k: usize) -> Result<Vec<LeafId>> {
        let parent = self.first_leaf_parent();
        let ids = self.insert_leaves_at(parent, NIL, k)?;
        self.stats.batch_inserts += 1;
        Ok(ids)
    }

    /// Tombstone a leaf (paper, Section 2.3: "for deletions we can just
    /// mark as deleted the corresponding leaves … without any relabeling").
    pub fn delete(&mut self, leaf: LeafId) -> Result<()> {
        if self.leaf_rec(leaf)?.is_deleted() {
            return Err(LTreeError::DeletedLeaf);
        }
        self.store.leaf_mut(leaf.idx).set_deleted();
        self.n_live -= 1;
        self.stats.deletes += 1;
        Ok(())
    }

    /// Extension (beyond the paper): rebuild the tree without tombstones,
    /// as if the live leaves had been bulk loaded. All live [`LeafId`]s
    /// remain valid; tombstoned ids become stale.
    pub fn compact(&mut self) -> Result<()> {
        // The rebuilt height is checked before anything is freed, so a
        // rejected compaction leaves the tree as it was.
        let n = self.n_live;
        let height = self.params.height_for(n);
        if height > self.params.max_height() {
            return Err(LTreeError::LabelOverflow { height });
        }
        // Free the interior, then drop the tombstones, keeping live
        // leaves (and so their ids) untouched.
        let (all, _) = self.dismantle(self.root);
        let mut keep = Vec::with_capacity(n as usize);
        for idx in all {
            if self.store.leaf(idx).is_deleted() {
                self.store.free_leaf(idx);
            } else {
                keep.push(idx);
            }
        }
        if keep.is_empty() {
            self.root = self.store.alloc_node(1);
            self.height = 1;
            self.n_leaves = 0;
            return Ok(());
        }
        let root = self.build_complete(height, &keep);
        self.root = root;
        self.height = height;
        self.n_leaves = n;
        self.renumber(root, height, 0)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn leaf_rec(&self, leaf: LeafId) -> Result<&LeafRec> {
        self.store.live_leaf(leaf).ok_or(LTreeError::UnknownHandle)
    }

    fn first_leaf_rec(&self) -> Option<u32> {
        (!self.is_empty()).then(|| self.descend(self.root, self.height, false))
    }

    /// The height-1 record a new first leaf goes under: the first leaf's
    /// parent, or the root of an empty tree.
    fn first_leaf_parent(&self) -> u32 {
        match self.first_leaf_rec() {
            Some(first) => self.store.leaf(first).parent,
            None => self.root,
        }
    }

    /// The sibling before `child` under `parent` ([`NIL`] if `child` is
    /// first): an `O(f)` scan of the child list.
    fn prev_sibling(&self, parent: u32, child: u32) -> u32 {
        let node = self.store.node(parent);
        let child_h = node.height - 1;
        let (mut prev, mut c) = (NIL, node.first);
        while c != child {
            assert!(c != NIL, "child must be present under its parent");
            (prev, c) = (c, self.store.next(c, child_h));
        }
        prev
    }

    /// Descend from record `u` at height `h` to its leftmost
    /// (`rightmost = false`) or rightmost leaf record.
    fn descend(&self, mut u: u32, mut h: u8, rightmost: bool) -> u32 {
        while h > 0 {
            u = self.store.node(u).first;
            h -= 1;
            if rightmost {
                while self.store.next(u, h) != NIL {
                    u = self.store.next(u, h);
                }
            }
        }
        u
    }

    /// The next sibling of record `u` at height `h`, or of its nearest
    /// ancestor that has one: where a pre-order walk resumes once `u`'s
    /// subtree is done.
    fn next_subtree(&self, mut u: u32, mut h: u8) -> Option<(u32, u8)> {
        loop {
            let next = self.store.next(u, h);
            if next != NIL {
                return Some((next, h));
            }
            u = self.store.parent(u, h);
            if u == NIL {
                return None;
            }
            h += 1;
        }
    }

    /// The leaf record after leaf record `idx` in document order.
    fn successor(&self, idx: u32) -> Option<u32> {
        self.next_subtree(idx, 0)
            .map(|(u, h)| self.descend(u, h, false))
    }

    /// The insertion core shared by every insert flavour (Algorithm 1 of
    /// the paper, generalized to `k ≥ 1`): `k` leaves go under the
    /// height-1 record `parent`, after leaf record `prev` ([`NIL`] = first).
    /// A rejected insert changes nothing, its counters included.
    ///
    /// Only what moves is renumbered: the new leaves and their right
    /// siblings, or after a split of `t` its pieces and their right
    /// siblings. The paper relabels all of `parent(t)`, but the children
    /// left of `t` keep their index and so their numbers.
    ///
    /// Interior records store no number. The two this needs, `num(parent)`
    /// for a suffix renumber and `num(t)` for a split's, come from ℓ, a
    /// leaf label under every node on the insert path, read before
    /// anything moves. Numbers follow the invariant from the root's 0,
    /// each child index below `B`, and every renumber runs with fanouts
    /// back within `f`, so `num(v)` is a multiple of `B^{h(v)}` and every
    /// leaf under `v` is labelled `num(v) + r` with `r < B^{h(v)}`: `num(v)`
    /// is ℓ rounded down to a multiple of `B^{h(v)}`.
    fn insert_leaves_at(&mut self, parent: u32, prev: u32, k: usize) -> Result<Vec<LeafId>> {
        if k == 0 {
            return Err(LTreeError::EmptyBatch);
        }
        let mut ids = self.reserve_leaves(k)?;
        let k64 = k as u64;
        debug_assert_eq!(
            self.store.node(parent).height,
            1,
            "leaves are inserted under height-1 nodes"
        );

        // Collect the root path; find the highest node whose leaf count
        // would reach its split threshold (the paper's "highest ancestor t
        // with L(t) = s (f/s)^h"). No mutation yet.
        let mut path = Vec::with_capacity(usize::from(self.height));
        let mut u = parent;
        while u != NIL {
            path.push(u);
            u = self.store.node(u).parent;
        }
        let violator = path.iter().rev().copied().find(|&id| {
            let node = self.store.node(id);
            u64::from(node.leaf_count) + k64 >= self.params.split_threshold(node.height)
        });

        // Label-space pre-check before mutating anything.
        if violator == Some(self.root) {
            let plan = RootRebuild::plan(&self.params, self.n_leaves + k64, self.height);
            if plan.new_height > self.params.max_height() {
                return Err(LTreeError::LabelOverflow {
                    height: plan.new_height,
                });
            }
        }

        // ℓ: `prev`'s label; else the old first child's, which is
        // `num(parent)` itself; else 0 under the empty root.
        let (ell, succ) = match prev {
            NIL => match self.store.node(parent).first {
                NIL => (0, NIL),
                first => (self.store.label(first), first),
            },
            _ => (self.store.label(prev), self.store.leaf(prev).next),
        };

        // Past every check, so the insert counts from here. Mutate: splice
        // the new leaves in after `prev`, bump counts along the path.
        self.stats.count_updates += path.len() as u64;
        let mut last = prev;
        for _ in 0..k {
            let id = self.store.alloc_leaf(parent);
            match last {
                NIL => self.store.node_mut(parent).first = id.idx,
                _ => self.store.leaf_mut(last).next = id.idx,
            }
            last = id.idx;
            ids.push(id);
        }
        self.store.leaf_mut(last).next = succ;
        // `k` fits: the reservation bounded the whole tree by `u32` indices.
        let k32 = k as u32;
        self.store.node_mut(parent).fanout += k32;
        for &id in &path {
            self.store.node_mut(id).leaf_count += k32;
        }
        self.n_leaves += k64;
        self.n_live += k64;
        self.stats.leaves_inserted += k64;

        match violator {
            None => {
                // No split: renumber the new leaves and their right
                // siblings by child index (labels `num(parent) + j`),
                // from child 0 (`num(parent) = ℓ`) or from after `prev`.
                let start = if prev == NIL { ell } else { ell + 1 };
                self.renumber(ids[0].idx, 0, start)?;
            }
            Some(mut t) => loop {
                if t == self.root {
                    self.rebuild_root()?;
                    break;
                }
                let up = self.store.node(t).parent;
                let first_piece = self.split_node(t)?;
                let pn = self.store.node(up);
                debug_assert!(
                    u64::from(pn.leaf_count) < self.params.split_threshold(pn.height)
                        || up == self.root,
                    "t was the highest leaf-count violator"
                );
                if pn.fanout > self.params.f() {
                    // Only reachable through batch insertions: the split
                    // emitted more pieces than the parent had slack for
                    // (paper Prop. 3 guarantees this never happens for
                    // k = 1; the tests assert it).
                    self.stats.cascade_splits += 1;
                    t = up;
                    continue;
                }
                // ℓ lies under `t` (on the insert path): its first piece
                // keeps `num(t)`.
                let h = pn.height - 1;
                let interval = self.params.interval(h)?;
                self.renumber(first_piece, h, ell - ell % interval)?;
                break;
            },
        }
        Ok(ids)
    }

    /// Split node `t` into `ceil(L / a^h)` near-equal leftmost-complete
    /// pieces spliced in its place (paper Section 2.3 for the exact
    /// single-insert case where this is `s` complete trees). Returns the
    /// first piece, which sits at `t`'s child index.
    fn split_node(&mut self, t: u32) -> Result<u32> {
        let InteriorRec {
            height: h,
            parent,
            next: succ,
            ..
        } = *self.store.node(t);
        debug_assert!(parent != NIL, "split_node is never called on the root");
        let prev = self.prev_sibling(parent, t);
        let (leaves, visited) = self.dismantle(t);
        self.stats.nodes_visited += visited;
        let total = leaves.len() as u64;
        let cap = self.params.subtree_capacity(h);
        let m = ceil_div(total, cap);
        let sizes = even_split(total, m);
        let mut last = prev;
        let mut off = 0usize;
        for &size in &sizes {
            let piece = self.build_complete(h, &leaves[off..off + size as usize]);
            self.store.node_mut(piece).parent = parent;
            match last {
                NIL => self.store.node_mut(parent).first = piece,
                _ => self.store.node_mut(last).next = piece,
            }
            last = piece;
            off += size as usize;
        }
        self.store.node_mut(last).next = succ;
        // `m` pieces replace `t`; `m ≤ total` fits `u32` indices.
        self.store.node_mut(parent).fanout += m as u32 - 1;
        self.stats.splits += 1;
        self.stats.pieces_created += m;
        Ok(match prev {
            NIL => self.store.node(parent).first,
            _ => self.store.node(prev).next,
        })
    }

    /// Rebuild an overfull root (paper, Algorithm 1 lines 18–20,
    /// generalized): split into near-equal height-`H` pieces, group them
    /// `a` at a time while more than `f` remain, then crown a new root.
    fn rebuild_root(&mut self) -> Result<()> {
        let total = self.n_leaves;
        let old_h = self.height;
        let plan = RootRebuild::plan(&self.params, total, old_h);
        if plan.new_height > self.params.max_height() {
            return Err(LTreeError::LabelOverflow {
                height: plan.new_height,
            });
        }
        let (leaves, visited) = self.dismantle(self.root);
        self.stats.nodes_visited += visited;
        debug_assert_eq!(leaves.len() as u64, total);
        let sizes = even_split(total, plan.pieces);
        let mut level: Vec<u32> = Vec::with_capacity(plan.pieces as usize);
        let mut off = 0usize;
        for &size in &sizes {
            level.push(self.build_complete(old_h, &leaves[off..off + size as usize]));
            off += size as usize;
        }
        let a = self.params.arity() as usize;
        for h in old_h + 1..=old_h + plan.grouping_levels {
            level = level
                .chunks(a)
                .map(|chunk| self.make_internal(h, chunk))
                .collect();
        }
        let root = self.make_internal(plan.new_height, &level);
        self.root = root;
        self.height = plan.new_height;
        self.stats.root_rebuilds += 1;
        self.renumber(root, plan.new_height, 0)?;
        Ok(())
    }

    /// Collect the leaf records of `t`'s subtree in document order,
    /// freeing every interior record of the subtree (including `t`).
    /// Also returns how many nodes the walk visited, leaves included.
    fn dismantle(&mut self, t: u32) -> (Vec<u32>, u64) {
        let mut leaves = Vec::with_capacity(self.store.node(t).leaf_count as usize);
        let mut visited = 0u64;
        // Pre-order over the interior records; `resume` holds the next
        // sibling of each record whose subtree is still being walked.
        let mut resume = Vec::new();
        let mut u = t;
        loop {
            let InteriorRec {
                next,
                first,
                height,
                ..
            } = *self.store.node(u);
            visited += 1;
            self.store.free_node(u);
            if u != t && next != NIL {
                resume.push(next);
            }
            if height > 1 {
                u = first;
                continue;
            }
            let mut c = first;
            while c != NIL {
                leaves.push(c);
                visited += 1;
                c = self.store.leaf(c).next;
            }
            match resume.pop() {
                Some(next) => u = next,
                None => break,
            }
        }
        (leaves, visited)
    }

    /// Build a leftmost-complete `a`-ary subtree of exactly `height` over
    /// the given leaf records, in one pass over them (see [`Builder`]):
    /// each child of a record holds `a^(h-1)` leaves, but the last, which
    /// holds what remains. Counts one `nodes_visited` per record, like
    /// [`make_internal`](Self::make_internal). Numbers are assigned by a
    /// later relabel pass; a bulk load drives the same [`Builder`] and
    /// writes each label as it goes instead.
    fn build_complete(&mut self, height: u8, leaves: &[u32]) -> u32 {
        debug_assert!(!leaves.is_empty());
        debug_assert!(leaves.len() as u64 <= self.params.subtree_capacity(height));
        let mut build = Builder::new(&self.params, height);
        for &leaf in leaves {
            build.push(&mut self.store, leaf);
        }
        build.finish(&mut self.store, &mut self.stats)
    }

    /// Allocate an interior record at `height` adopting `children` (leaf
    /// records at height 1, interior records above) in order: a root
    /// rebuild's grouping levels and new root.
    fn make_internal(&mut self, height: u8, children: &[u32]) -> u32 {
        let id = self.store.alloc_node(height);
        let mut leaf_count = 0u32;
        for (i, &c) in children.iter().enumerate() {
            let next = children.get(i + 1).copied().unwrap_or(NIL);
            leaf_count += self.store.adopt(c, height - 1, id, next);
        }
        let node = self.store.node_mut(id);
        node.first = children.first().copied().unwrap_or(NIL);
        node.fanout = children.len() as u32;
        node.leaf_count = leaf_count;
        self.stats.nodes_visited += 1;
        id
    }

    /// Give record `first` at `height` (0 = a leaf record) the number
    /// `num`, each later sibling the next multiple of `B^height`, and
    /// every record below them its number by the invariant (paper
    /// Algorithm 1, `Relabel`, begun at `first`: earlier siblings keep
    /// theirs). Only leaf labels are stored: interior numbers ride the
    /// walk's stack. One relabel event, counting every number assigned.
    fn renumber(&mut self, first: u32, height: u8, num: u128) -> Result<()> {
        let mut written = 0u64;
        let mut leaf_writes = 0u64;
        // Sibling runs still to number, as (first record, height,
        // number); a run of leaves pushes none, so it allocates nothing.
        let mut stack = Vec::new();
        let mut run = Some((first, height, num));
        while let Some((mut c, h, mut num)) = run {
            let interval = self.params.interval(h)?;
            while c != NIL {
                if h == 0 {
                    self.store.set_label(c, num);
                    leaf_writes += 1;
                } else {
                    stack.push((self.store.node(c).first, h - 1, num));
                }
                written += 1;
                c = self.store.next(c, h);
                num += interval;
            }
            run = stack.pop();
        }
        self.stats.relabel_events += 1;
        self.stats.nodes_relabeled += written;
        self.stats.leaf_label_writes += leaf_writes;
        self.stats.max_relabeled_in_one_op = self.stats.max_relabeled_in_one_op.max(written);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Snapshot support (see `crate::snapshot` for the format)
    // ------------------------------------------------------------------

    /// The tree's shape as pre-order [`StructureEvent`]s (none for an
    /// empty tree). Labels are not part of it: they are implicit in the
    /// structure (the paper's Section 4.2 observation) and recomputed on
    /// load.
    pub(crate) fn structure(&self) -> impl Iterator<Item = StructureEvent> + '_ {
        let mut at = (!self.is_empty()).then_some((self.root, self.height));
        std::iter::from_fn(move || {
            let (u, h) = at?;
            if h == 0 {
                at = self.next_subtree(u, 0);
                return Some(StructureEvent::Leaf(self.store.leaf(u).is_deleted()));
            }
            let node = self.store.node(u);
            at = Some((node.first, h - 1));
            Some(StructureEvent::Interior(
                u16::try_from(node.fanout).expect("fanout fits u16 (f <= 65536)"),
            ))
        })
    }

    /// Rebuild a tree from the pre-order events of a snapshot; the
    /// inverse of [`structure`](Self::structure).
    pub(crate) fn from_structure(
        params: Params,
        height: u8,
        events: &[StructureEvent],
    ) -> Result<(Self, Vec<LeafId>)> {
        use StructureEvent as Ev;
        let mut tree = LTree::new(params);
        if events.is_empty() {
            return Ok((tree, Vec::new()));
        }
        if height > params.max_height() {
            return Err(LTreeError::LabelOverflow { height });
        }
        tree.store.free_node(tree.root);
        let corrupt = || LTreeError::InvalidParams {
            f: params.f(),
            s: params.s(),
            reason: "snapshot structure is inconsistent",
        };
        // Frame stack of open interior records: (record, children still
        // owed, last child so far).
        let mut frames: Vec<(u32, u16, u32)> = Vec::new();
        let mut leaves = Vec::new();
        let mut root: Option<u32> = None;
        let mut n_leaves = 0u64;
        let mut n_live = 0u64;
        for (idx, &ev) in events.iter().enumerate() {
            let (parent, h) = match frames.last() {
                Some(&(parent, ..)) => (parent, tree.store.node(parent).height - 1),
                // Exactly one root, first.
                None if idx == 0 => (NIL, height),
                None => return Err(corrupt()),
            };
            // Allocate.
            let id = match ev {
                Ev::Interior(fanout) => {
                    // Empty trees encode as zero events; a fanout within
                    // `f` at a height within `max_height` keeps every
                    // label below `B^H`.
                    if fanout == 0 || u32::from(fanout) > params.f() || h == 0 {
                        return Err(corrupt());
                    }
                    let id = tree.store.alloc_node(h);
                    tree.store.node_mut(id).fanout = u32::from(fanout);
                    id
                }
                Ev::Leaf(deleted) => {
                    if h != 0 || parent == NIL {
                        return Err(corrupt()); // leaf above the leaf level
                    }
                    if n_leaves == MAX_LEAVES {
                        return Err(LTreeError::CapacityExceeded {
                            requested: n_leaves + 1,
                        });
                    }
                    let leaf = tree.store.alloc_leaf(parent);
                    if deleted {
                        tree.store.leaf_mut(leaf.idx).set_deleted();
                    } else {
                        n_live += 1;
                    }
                    n_leaves += 1;
                    tree.store.node_mut(parent).leaf_count += 1;
                    leaves.push(leaf);
                    leaf.idx
                }
            };
            // Attach.
            match frames.last_mut() {
                Some((parent, remaining, last)) => {
                    *remaining -= 1;
                    tree.store.adopt(id, h, *parent, NIL);
                    match *last {
                        NIL => tree.store.node_mut(*parent).first = id,
                        prev => tree.store.set_next(prev, h, id),
                    }
                    *last = id;
                }
                None => root = Some(id),
            }
            // Open this node's own frame, then close completed ones,
            // folding each one's leaf count into its parent.
            if let Ev::Interior(fanout) = ev {
                frames.push((id, fanout, NIL));
            }
            while let Some(&(done, 0, _)) = frames.last() {
                frames.pop();
                if let Some(&(parent, ..)) = frames.last() {
                    let count = tree.store.node(done).leaf_count;
                    tree.store.node_mut(parent).leaf_count += count;
                }
            }
        }
        if !frames.is_empty() {
            return Err(corrupt()); // children owed at end of stream
        }
        let root = root.ok_or_else(corrupt)?;
        tree.root = root;
        tree.height = height;
        tree.n_leaves = n_leaves;
        tree.n_live = n_live;
        tree.renumber(root, height, 0)?;
        tree.stats.reset();
        Ok((tree, leaves))
    }

    // Crate-internal accessors for the invariant checker.
    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    pub(crate) fn root_id(&self) -> u32 {
        self.root
    }

    pub(crate) fn leaf_total(&self) -> u64 {
        self.n_leaves
    }

    pub(crate) fn live_total(&self) -> u64 {
        self.n_live
    }

    /// Seeded-failure hook for the invariant checker's tests: raw access
    /// to the records, bypassing every operation.
    #[cfg(test)]
    pub(crate) fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }
}

/// A leftmost-complete subtree under construction (see
/// [`LTree::build_complete`]). Leaves arrive in document order. Each
/// level has at most one open interior record, which adopts children as
/// they come and closes once it has `a`: its first child, fanout and leaf
/// count are written then, and its leaves fold into its parent's. The
/// next child at that level opens a new record. The record at the top
/// height never closes early: it takes what remains. A record is
/// allocated when its first leaf arrives, after its parent, so every
/// child is hung under its parent at once, and the open records fit a
/// fixed array of [`MAX_HEIGHT`] levels.
struct Builder {
    arity: u32,
    height: u8,
    /// Levels `1..=closed` have no open record: the next leaf opens them.
    closed: u8,
    /// `open[h - 1]`: the open record at height `h`.
    open: [Open; MAX_HEIGHT as usize],
    /// Interior records allocated.
    created: u64,
}

/// An open record of a [`Builder`] and what it has adopted so far; the
/// record itself is written when it closes.
#[derive(Clone, Copy)]
struct Open {
    id: u32,
    first: u32,
    last: u32,
    fanout: u32,
    leaves: u32,
}

impl Open {
    /// Record `id`, with no children yet.
    const fn new(id: u32) -> Self {
        Open {
            id,
            first: NIL,
            last: NIL,
            fanout: 0,
            leaves: 0,
        }
    }
}

impl Builder {
    fn new(params: &Params, height: u8) -> Self {
        debug_assert!(height >= 1 && height <= params.max_height());
        Builder {
            arity: params.arity(),
            height,
            closed: height,
            open: [Open::new(NIL); MAX_HEIGHT as usize],
            created: 0,
        }
    }

    /// Hang leaf record `leaf` after the leaves pushed so far.
    fn push(&mut self, store: &mut Store, leaf: u32) {
        // Open the records the leaf's path lacks, top-down.
        while self.closed > 0 {
            let h = self.closed;
            let id = store.alloc_node(h);
            self.created += 1;
            if h < self.height {
                self.attach(store, h + 1, id, 0);
            }
            self.open[usize::from(h) - 1] = Open::new(id);
            self.closed -= 1;
        }
        self.attach(store, 1, leaf, 1);
        // Close the full records, bottom-up.
        let mut h = 1;
        while h < self.height && self.open[usize::from(h) - 1].fanout == self.arity {
            self.close(store, h);
            self.closed = h;
            h += 1;
        }
    }

    /// Hang `child`, holding `leaves` leaves so far, after the last
    /// child of the open record at height `h`.
    fn attach(&mut self, store: &mut Store, h: u8, child: u32, leaves: u32) {
        let open = &mut self.open[usize::from(h) - 1];
        store.adopt(child, h - 1, open.id, NIL);
        match open.last {
            NIL => open.first = child,
            prev => store.set_next(prev, h - 1, child),
        }
        open.last = child;
        open.fanout += 1;
        open.leaves += leaves;
    }

    /// Write the open record at height `h` and fold its leaves into its
    /// parent's, if it has one.
    fn close(&mut self, store: &mut Store, h: u8) {
        let open = self.open[usize::from(h) - 1];
        let node = store.node_mut(open.id);
        node.first = open.first;
        node.fanout = open.fanout;
        node.leaf_count = open.leaves;
        if h < self.height {
            self.open[usize::from(h)].leaves += open.leaves;
        }
    }

    /// Close every record still open and count the records allocated
    /// as visited. Returns the subtree's root, which has no parent or
    /// sibling yet.
    fn finish(mut self, store: &mut Store, stats: &mut Stats) -> u32 {
        debug_assert!(self.closed < self.height, "no leaf was pushed");
        for h in self.closed + 1..=self.height {
            self.close(store, h);
        }
        stats.nodes_visited += self.created;
        self.open[usize::from(self.height) - 1].id
    }
}

impl std::fmt::Debug for LTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LTree")
            .field("params", &self.params)
            .field("height", &self.height)
            .field("leaves", &self.n_leaves)
            .field("live", &self.n_live)
            .finish_non_exhaustive()
    }
}

/// Document-order leaf iterator (see [`LTree::leaves`]): follows sibling
/// links, climbing only at the end of a sibling list.
pub struct Leaves<'a> {
    tree: &'a LTree,
    /// Leaf record to yield next; [`NIL`] when done.
    next: u32,
}

impl Iterator for Leaves<'_> {
    type Item = LeafId;

    fn next(&mut self) -> Option<LeafId> {
        if self.next == NIL {
            return None;
        }
        let idx = self.next;
        self.next = self.tree.successor(idx).unwrap_or(NIL);
        Some(self.tree.store.leaf_id(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels_of(tree: &LTree) -> Vec<u128> {
        tree.leaves()
            .map(|l| tree.label(l).unwrap().get())
            .collect()
    }

    fn assert_sorted(tree: &LTree) {
        let ls = labels_of(tree);
        assert!(
            ls.windows(2).all(|w| w[0] < w[1]),
            "labels must strictly increase: {ls:?}"
        );
    }

    #[test]
    fn empty_tree() {
        let tree = LTree::new(Params::example());
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.first_leaf(), None);
        assert_eq!(tree.last_leaf(), None);
        assert_eq!(tree.leaves().count(), 0);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_small() {
        for n in 0..40 {
            let (tree, leaves) = LTree::bulk_load(Params::example(), n).unwrap();
            assert_eq!(tree.len(), n);
            assert_eq!(leaves.len(), n);
            tree.check_invariants().unwrap();
            assert_sorted(&tree);
        }
    }

    /// The one-pass builder against the layout module at every preset
    /// and every size up to 64: the invariant checker derives each
    /// number from the shape alone (check 5), and the labels must equal
    /// `bulk_load_labels`, after a bulk load and after `compact()` drops
    /// every third leaf.
    #[test]
    fn bulk_load_matches_layout_module() {
        for p in Params::presets() {
            for n in 0..=64 {
                let (mut tree, leaves) = LTree::bulk_load(p, n).unwrap();
                tree.check_invariants().unwrap();
                let (h, expect) = crate::layout::bulk_load_labels(&p, n as u64).unwrap();
                assert_eq!(tree.height(), h, "{p} n={n}");
                let got: Vec<u128> = leaves
                    .iter()
                    .map(|&l| tree.label(l).unwrap().get())
                    .collect();
                assert_eq!(got, expect, "{p} n={n}");
                assert_eq!(labels_of(&tree), expect, "{p} n={n}");

                for &leaf in leaves.iter().step_by(3) {
                    tree.delete(leaf).unwrap();
                }
                let live = tree.live_len();
                tree.compact().unwrap();
                tree.check_invariants().unwrap();
                let (_, expect) = crate::layout::bulk_load_labels(&p, live as u64).unwrap();
                assert_eq!(labels_of(&tree), expect, "{p} n={n} compacted");
            }
        }
    }

    #[test]
    fn insert_after_keeps_order() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 8).unwrap();
        let l = tree.insert_after(leaves[2]).unwrap();
        assert!(tree.label(leaves[2]).unwrap() < tree.label(l).unwrap());
        assert!(tree.label(l).unwrap() < tree.label(leaves[3]).unwrap());
        tree.check_invariants().unwrap();
        assert_sorted(&tree);
    }

    #[test]
    fn insert_before_keeps_order() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 8).unwrap();
        let l = tree.insert_before(leaves[0]).unwrap();
        assert!(tree.label(l).unwrap() < tree.label(leaves[0]).unwrap());
        let l2 = tree.insert_before(leaves[5]).unwrap();
        assert!(tree.label(leaves[4]).unwrap() < tree.label(l2).unwrap());
        assert!(tree.label(l2).unwrap() < tree.label(leaves[5]).unwrap());
        tree.check_invariants().unwrap();
        assert_sorted(&tree);
    }

    #[test]
    fn insert_first_and_push_back_from_empty() {
        let mut tree = LTree::new(Params::example());
        let a = tree.insert_first().unwrap();
        let b = tree.push_back().unwrap();
        let c = tree.insert_first().unwrap();
        assert!(tree.label(c).unwrap() < tree.label(a).unwrap());
        assert!(tree.label(a).unwrap() < tree.label(b).unwrap());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn repeated_same_point_insertions_trigger_splits() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 8).unwrap();
        let anchor = leaves[3];
        for _ in 0..200 {
            tree.insert_after(anchor).unwrap();
            tree.check_invariants().unwrap();
        }
        assert!(tree.stats().splits > 0, "dense region must split");
        assert_eq!(
            tree.stats().cascade_splits,
            0,
            "Prop 3: no cascades for single inserts"
        );
        assert_sorted(&tree);
    }

    #[test]
    fn append_only_growth() {
        let mut tree = LTree::new(Params::example());
        let mut last = tree.push_back().unwrap();
        for _ in 0..500 {
            last = tree.insert_after(last).unwrap();
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 501);
        assert_eq!(tree.stats().cascade_splits, 0);
        assert_sorted(&tree);
        assert!(tree.height() >= 2, "tree must have grown");
    }

    #[test]
    fn prepend_only_growth() {
        let mut tree = LTree::new(Params::example());
        for _ in 0..300 {
            tree.insert_first().unwrap();
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 300);
        assert_sorted(&tree);
    }

    #[test]
    fn root_rebuild_matches_paper_exact_case() {
        // Fill a height-1 tree to its threshold: root splits into s pieces
        // and the height grows by exactly one.
        let p = Params::example(); // threshold at h=1 is f = 4
        let mut tree = LTree::new(p);
        for _ in 0..3 {
            tree.push_back().unwrap();
        }
        assert_eq!(tree.height(), 1);
        tree.push_back().unwrap(); // 4th leaf == threshold -> root rebuild
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.stats().root_rebuilds, 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn batch_insert_matches_sequential_count() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 16).unwrap();
        let batch = tree.insert_many_after(leaves[7], 50).unwrap();
        assert_eq!(batch.len(), 50);
        assert_eq!(tree.len(), 66);
        tree.check_invariants().unwrap();
        assert_sorted(&tree);
        // The batch sits between anchor and its old successor.
        assert!(tree.label(leaves[7]).unwrap() < tree.label(batch[0]).unwrap());
        assert!(tree.label(*batch.last().unwrap()).unwrap() < tree.label(leaves[8]).unwrap());
        for w in batch.windows(2) {
            assert!(tree.label(w[0]).unwrap() < tree.label(w[1]).unwrap());
        }
    }

    #[test]
    fn huge_batch_into_tiny_tree() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 2).unwrap();
        let batch = tree.insert_many_after(leaves[0], 10_000).unwrap();
        assert_eq!(batch.len(), 10_000);
        tree.check_invariants().unwrap();
        assert_sorted(&tree);
    }

    #[test]
    fn batch_of_zero_is_an_error() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 2).unwrap();
        assert_eq!(
            tree.insert_many_after(leaves[0], 0),
            Err(LTreeError::EmptyBatch)
        );
    }

    #[test]
    fn delete_is_tombstone_only() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 8).unwrap();
        let before = labels_of(&tree);
        let relabels_before = tree.stats().nodes_relabeled;
        tree.delete(leaves[3]).unwrap();
        assert_eq!(labels_of(&tree), before, "deletes never relabel");
        assert_eq!(tree.stats().nodes_relabeled, relabels_before);
        assert_eq!(tree.live_len(), 7);
        assert_eq!(tree.len(), 8);
        assert!(tree.is_deleted(leaves[3]).unwrap());
        assert_eq!(tree.delete(leaves[3]), Err(LTreeError::DeletedLeaf));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn next_prev_walk_matches_iterator() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 20).unwrap();
        tree.insert_after(leaves[10]).unwrap();
        tree.insert_before(leaves[0]).unwrap();
        let iter_order: Vec<LeafId> = tree.leaves().collect();
        // Forward walk.
        let mut walk = vec![tree.first_leaf().unwrap()];
        while let Some(next) = tree.next_leaf(*walk.last().unwrap()).unwrap() {
            walk.push(next);
        }
        assert_eq!(walk, iter_order);
        // Backward walk.
        let mut back = vec![tree.last_leaf().unwrap()];
        while let Some(prev) = tree.prev_leaf(*back.last().unwrap()).unwrap() {
            back.push(prev);
        }
        back.reverse();
        assert_eq!(back, iter_order);
    }

    #[test]
    fn compact_preserves_live_leaves() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 32).unwrap();
        for &l in leaves.iter().step_by(2) {
            tree.delete(l).unwrap();
        }
        let live_before: Vec<LeafId> = tree.live_leaves().collect();
        tree.compact().unwrap();
        assert_eq!(tree.len(), 16);
        assert_eq!(tree.live_len(), 16);
        let live_after: Vec<LeafId> = tree.live_leaves().collect();
        assert_eq!(live_before, live_after, "live LeafIds survive compaction");
        // Tombstoned ids are now stale.
        assert!(!tree.contains(leaves[0]));
        assert!(tree.contains(leaves[1]));
        tree.check_invariants().unwrap();
        assert_sorted(&tree);
    }

    #[test]
    fn compact_empty_tree() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 4).unwrap();
        for l in leaves {
            tree.delete(l).unwrap();
        }
        tree.compact().unwrap();
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
        tree.push_back().unwrap();
        tree.check_invariants().unwrap();
    }

    #[test]
    fn stale_handles_are_rejected() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 4).unwrap();
        let (other, other_leaves) = LTree::bulk_load(Params::example(), 4).unwrap();
        drop(other);
        // A LeafId from another tree may or may not alias a leaf record;
        // the record generation makes the freed case safe, and the
        // type-level contract documents the rest. At minimum, freed ids
        // must be rejected, also once their record is reused:
        tree.delete(leaves[0]).unwrap();
        tree.compact().unwrap();
        assert!(matches!(
            tree.label(leaves[0]),
            Err(LTreeError::UnknownHandle)
        ));
        let reused = tree.insert_after(leaves[1]).unwrap();
        assert_eq!(reused.idx, leaves[0].idx, "the freed record is reused");
        assert_eq!(tree.delete(leaves[0]), Err(LTreeError::UnknownHandle));
        assert!(tree.contains(reused));
        // Out-of-range and never-issued ids are unknown too.
        let beyond = LeafId::from_u64(1_000 << 32).unwrap();
        assert_eq!(tree.insert_after(beyond), Err(LTreeError::UnknownHandle));
        let _ = other_leaves;
    }

    #[test]
    fn leaf_ids_round_trip_through_u64() {
        let (tree, leaves) = LTree::bulk_load(Params::example(), 4).unwrap();
        for &leaf in &leaves {
            let packed = leaf.to_u64();
            assert_ne!(packed, 0, "handle 0 is never valid");
            assert_eq!(LeafId::from_u64(packed), Some(leaf));
            assert!(tree.contains(leaf));
        }
        assert_eq!(LeafId::from_u64(0), None);
        assert_eq!(LeafId::from_u64(u64::from(u32::MAX)), None);
    }

    #[test]
    fn labels_fit_label_space() {
        let (mut tree, _) = LTree::bulk_load(Params::new(8, 2).unwrap(), 100).unwrap();
        let mut anchor = tree.first_leaf().unwrap();
        for i in 0..500 {
            anchor = if i % 3 == 0 {
                tree.insert_after(anchor).unwrap()
            } else {
                anchor
            };
            tree.push_back().unwrap();
        }
        let space = tree.params().interval(tree.height()).unwrap();
        for l in tree.leaves() {
            assert!(tree.label(l).unwrap().get() < space);
        }
        assert!(tree.label_space_bits() <= 128);
    }

    /// While every label fits 64 bits the high-word column stays
    /// unallocated: 20 B per leaf record and 24 B per interior record.
    #[test]
    fn narrow_labels_cost_twenty_bytes_per_leaf_record() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 200).unwrap();
        for i in 0..600 {
            tree.insert_after(leaves[i % 50]).unwrap();
        }
        tree.compact().unwrap();
        assert!(tree.max_label().unwrap().get() <= u128::from(u64::MAX));
        let store = tree.store();
        assert_eq!(store.hi.capacity(), 0);
        assert_eq!(
            tree.memory_bytes(),
            std::mem::size_of::<LTree>()
                + 20 * store.leaves.capacity()
                + 24 * store.nodes.capacity()
        );
    }

    /// The column opens on the first label above `u64::MAX`, not on a
    /// label space wider than 64 bits.
    #[test]
    fn a_wide_label_space_alone_opens_no_column() {
        let (tree, _) = LTree::bulk_load(Params::new(64, 32).unwrap(), 1_025).unwrap();
        assert_eq!((tree.height(), tree.label_space_bits()), (11, 67));
        assert!(tree.store().hi.is_empty());
        // At B = 65,537 a height-5 root numbers its second child
        // B^4 > 2^64; 17 bulk-loaded leaves put one leaf there.
        let params = Params::new(65_536, 32_768).unwrap();
        let (tree, leaves) = LTree::bulk_load(params, 17).unwrap();
        assert_eq!(tree.height(), 5);
        assert_eq!(tree.label(leaves[16]).unwrap().get(), 65_537u128.pow(4));
        assert!(tree.label(leaves[15]).unwrap().get() <= u128::from(u64::MAX));
        assert_eq!(tree.store().hi.len(), tree.store().leaves.len());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn stats_accumulate_sanely() {
        let (mut tree, leaves) = LTree::bulk_load(Params::example(), 8).unwrap();
        assert_eq!(tree.stats().leaves_inserted, 0, "bulk load resets stats");
        tree.insert_after(leaves[0]).unwrap();
        assert_eq!(tree.stats().inserts, 1);
        assert_eq!(tree.stats().leaves_inserted, 1);
        assert!(tree.stats().count_updates >= u64::from(tree.height()));
        tree.reset_stats();
        assert_eq!(tree.stats().inserts, 0);
    }

    #[test]
    fn many_params_smoke() {
        for p in Params::presets() {
            let (mut tree, leaves) = LTree::bulk_load(p, 64).unwrap();
            let mut anchor = leaves[31];
            for _ in 0..300 {
                anchor = tree.insert_after(anchor).unwrap();
            }
            tree.check_invariants().unwrap();
            assert_sorted(&tree);
            assert_eq!(tree.stats().cascade_splits, 0);
        }
    }
}
