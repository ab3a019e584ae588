//! The materialized L-Tree (paper, Section 2).
//!
//! The tree keeps one leaf per document tag, all leaves at the same depth,
//! and maintains the global labeling invariant
//! `num(child_i) = num(parent) + i · B^{h(child)}` with `B = f + 1`.
//!
//! * [`LTree::bulk_load`] — Section 2.2: a leftmost-complete `f/s`-ary tree.
//! * [`LTree::insert_after`] / [`LTree::insert_before`] — Section 2.3,
//!   Algorithm 1: sibling relabel, or split of the highest overfull
//!   ancestor into `s` half-full subtrees.
//! * [`LTree::insert_many_after`] — Section 4.1: batch insertion; the split
//!   produces `ceil(L / a^h)` pieces and, if a batch transiently overflows
//!   a fanout, cascades upward (never needed for single inserts —
//!   Proposition 3).
//! * [`LTree::delete`] — Section 2.3: tombstone, never relabels.
//! * [`LTree::compact`] — an extension beyond the paper: rebuilds the tree
//!   without tombstones, preserving all live [`LeafId`]s.

use std::cmp::Ordering;

use crate::arena::{Arena, NodeId};
use crate::error::{LTreeError, Result};
use crate::invariants::{self, InvariantError};
use crate::label::Label;
use crate::layout::{ceil_div, even_split, RootRebuild};
use crate::node::{Node, NodeData};
use crate::params::Params;
use crate::snapshot::StructureEvent;
use crate::stats::Stats;

/// Stable identifier of a leaf (one document tag). Valid for the lifetime
/// of the tree: splits rebuild interior nodes but never touch leaves, and
/// [`LTree::compact`] preserves live leaves as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafId(pub(crate) NodeId);

impl LeafId {
    /// Pack into a `u64` (for the generic [`crate::LeafHandle`]).
    pub fn to_u64(self) -> u64 {
        self.0.to_u64()
    }

    /// Unpack from a `u64`.
    pub fn from_u64(v: u64) -> Option<Self> {
        NodeId::from_u64(v).map(LeafId)
    }
}

/// The materialized L-Tree. See the [module docs](self).
pub struct LTree {
    params: Params,
    arena: Arena,
    root: NodeId,
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
        let mut arena = Arena::new();
        let root = arena.alloc(Node::new_internal(None, 1));
        LTree {
            params,
            arena,
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
        let leaves = tree.bulk_build_leaves(n)?;
        Ok((tree, leaves))
    }

    fn bulk_build_leaves(&mut self, n: usize) -> Result<Vec<LeafId>> {
        if self.n_leaves > 0 {
            return Err(LTreeError::NotEmpty);
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let n64 = n as u64;
        let height = self.params.height_for(n64);
        if height > self.params.max_height() {
            return Err(LTreeError::LabelOverflow { height });
        }
        let leaves: Vec<NodeId> = (0..n)
            .map(|_| self.arena.alloc(Node::new_leaf(None)))
            .collect();
        // Replace the empty placeholder root.
        self.arena.free(self.root);
        let root = self.build_complete(height, &leaves);
        self.root = root;
        self.height = height;
        self.n_leaves = n64;
        self.n_live = n64;
        self.relabel_subtree(root, 0)?;
        // Bulk loading is not an update: it should not pollute the
        // amortized-cost counters the experiments read.
        self.stats.reset();
        Ok(leaves.into_iter().map(LeafId).collect())
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
        let node = self.leaf_node(leaf)?;
        Ok(Label::new(node.num))
    }

    /// Whether the leaf is tombstoned.
    pub fn is_deleted(&self, leaf: LeafId) -> Result<bool> {
        Ok(self.leaf_node(leaf)?.is_deleted())
    }

    /// True if `leaf` refers to a live slot of this tree.
    pub fn contains(&self, leaf: LeafId) -> bool {
        self.arena.get(leaf.0).map(Node::is_leaf).unwrap_or(false)
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

    /// Approximate heap usage in bytes (space side of experiment X9).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.arena.memory_bytes()
    }

    /// First leaf in document order.
    pub fn first_leaf(&self) -> Option<LeafId> {
        if self.is_empty() {
            return None;
        }
        Some(LeafId(self.descend(self.root, false)))
    }

    /// Last leaf in document order.
    pub fn last_leaf(&self) -> Option<LeafId> {
        if self.is_empty() {
            return None;
        }
        Some(LeafId(self.descend(self.root, true)))
    }

    /// Successor leaf in document order (tombstones included).
    pub fn next_leaf(&self, leaf: LeafId) -> Result<Option<LeafId>> {
        self.leaf_node(leaf)?;
        let mut u = leaf.0;
        loop {
            let Some(parent) = self.arena.node(u).parent else {
                return Ok(None);
            };
            let idx = self.index_of_child(parent, u);
            let siblings = self.arena.node(parent).children();
            if idx + 1 < siblings.len() {
                let next = siblings[idx + 1];
                return Ok(Some(LeafId(self.descend(next, false))));
            }
            u = parent;
        }
    }

    /// Predecessor leaf in document order (tombstones included).
    pub fn prev_leaf(&self, leaf: LeafId) -> Result<Option<LeafId>> {
        self.leaf_node(leaf)?;
        let mut u = leaf.0;
        loop {
            let Some(parent) = self.arena.node(u).parent else {
                return Ok(None);
            };
            let idx = self.index_of_child(parent, u);
            if idx > 0 {
                let prev = self.arena.node(parent).children()[idx - 1];
                return Ok(Some(LeafId(self.descend(prev, true))));
            }
            u = parent;
        }
    }

    /// Iterate all leaves in document order (tombstones included).
    pub fn leaves(&self) -> Leaves<'_> {
        let stack = if self.is_empty() {
            Vec::new()
        } else {
            vec![self.root]
        };
        Leaves { tree: self, stack }
    }

    /// Iterate live leaves in document order.
    pub fn live_leaves(&self) -> impl Iterator<Item = LeafId> + '_ {
        self.leaves()
            .filter(|&l| !self.arena.node(l.0).is_deleted())
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
        let (parent, idx) = self.locate(anchor)?;
        self.stats.inserts += 1;
        let ids = self.insert_leaves_at(parent, idx + 1, 1)?;
        Ok(ids[0])
    }

    /// Insert a new leaf immediately before `anchor`.
    pub fn insert_before(&mut self, anchor: LeafId) -> Result<LeafId> {
        let (parent, idx) = self.locate(anchor)?;
        self.stats.inserts += 1;
        let ids = self.insert_leaves_at(parent, idx, 1)?;
        Ok(ids[0])
    }

    /// Insert a new first leaf (works on an empty tree).
    pub fn insert_first(&mut self) -> Result<LeafId> {
        self.stats.inserts += 1;
        match self.first_leaf() {
            Some(first) => {
                let (parent, idx) = self.locate(first)?;
                let ids = self.insert_leaves_at(parent, idx, 1)?;
                Ok(ids[0])
            }
            None => {
                let root = self.root;
                let ids = self.insert_leaves_at(root, 0, 1)?;
                Ok(ids[0])
            }
        }
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
    /// Returns the new leaves in document order.
    pub fn insert_many_after(&mut self, anchor: LeafId, k: usize) -> Result<Vec<LeafId>> {
        let (parent, idx) = self.locate(anchor)?;
        self.stats.batch_inserts += 1;
        self.insert_leaves_at(parent, idx + 1, k)
    }

    /// Batch twin of [`insert_first`](LTree::insert_first).
    pub fn insert_many_first(&mut self, k: usize) -> Result<Vec<LeafId>> {
        self.stats.batch_inserts += 1;
        match self.first_leaf() {
            Some(first) => {
                let (parent, idx) = self.locate(first)?;
                self.insert_leaves_at(parent, idx, k)
            }
            None => {
                let root = self.root;
                self.insert_leaves_at(root, 0, k)
            }
        }
    }

    /// Tombstone a leaf (paper, Section 2.3: "for deletions we can just
    /// mark as deleted the corresponding leaves … without any relabeling").
    pub fn delete(&mut self, leaf: LeafId) -> Result<()> {
        let node = self
            .arena
            .get_mut(leaf.0)
            .ok_or(LTreeError::UnknownHandle)?;
        match &mut node.data {
            NodeData::Leaf { deleted } => {
                if *deleted {
                    return Err(LTreeError::DeletedLeaf);
                }
                *deleted = true;
                self.n_live -= 1;
                self.stats.deletes += 1;
                Ok(())
            }
            NodeData::Internal { .. } => Err(LTreeError::UnknownHandle),
        }
    }

    /// Extension (beyond the paper): rebuild the tree without tombstones,
    /// as if the live leaves had been bulk loaded. All live [`LeafId`]s
    /// remain valid; tombstoned ids become stale.
    pub fn compact(&mut self) -> Result<()> {
        let all: Vec<NodeId> = self.leaves().map(|l| l.0).collect();
        // Free the interior first (it still references every leaf), then
        // drop the tombstones, keeping live leaves untouched.
        self.free_internals(self.root);
        let mut keep = Vec::with_capacity(self.n_live as usize);
        for id in all {
            if self.arena.node(id).is_deleted() {
                self.arena.free(id);
            } else {
                keep.push(id);
            }
        }
        if keep.is_empty() {
            self.root = self.arena.alloc(Node::new_internal(None, 1));
            self.height = 1;
            self.n_leaves = 0;
            return Ok(());
        }
        let n = keep.len() as u64;
        let height = self.params.height_for(n);
        if height > self.params.max_height() {
            return Err(LTreeError::LabelOverflow { height });
        }
        let root = self.build_complete(height, &keep);
        self.root = root;
        self.height = height;
        self.n_leaves = n;
        self.relabel_subtree(root, 0)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn leaf_node(&self, leaf: LeafId) -> Result<&Node> {
        match self.arena.get(leaf.0) {
            Some(node) if node.is_leaf() => Ok(node),
            _ => Err(LTreeError::UnknownHandle),
        }
    }

    /// Parent and child-index of a leaf.
    fn locate(&self, leaf: LeafId) -> Result<(NodeId, usize)> {
        let node = self.leaf_node(leaf)?;
        let parent = node.parent.expect("leaves always have a parent");
        Ok((parent, self.index_of_child(parent, leaf.0)))
    }

    fn index_of_child(&self, parent: NodeId, child: NodeId) -> usize {
        self.arena
            .node(parent)
            .children()
            .iter()
            .position(|&c| c == child)
            .expect("child must be present under its parent")
    }

    /// Descend to the leftmost (`rightmost = false`) or rightmost leaf.
    fn descend(&self, mut u: NodeId, rightmost: bool) -> NodeId {
        loop {
            let node = self.arena.node(u);
            match &node.data {
                NodeData::Leaf { .. } => return u,
                NodeData::Internal { children, .. } => {
                    u = if rightmost {
                        *children.last().expect("non-empty interior")
                    } else {
                        children[0]
                    };
                }
            }
        }
    }

    /// The insertion core shared by every insert flavour (Algorithm 1 of
    /// the paper, generalized to `k ≥ 1`).
    fn insert_leaves_at(&mut self, parent: NodeId, pos: usize, k: usize) -> Result<Vec<LeafId>> {
        if k == 0 {
            return Err(LTreeError::EmptyBatch);
        }
        let k64 = k as u64;
        debug_assert_eq!(
            self.arena.node(parent).height,
            1,
            "leaves are inserted under height-1 nodes"
        );

        // Collect the root path; find the highest node whose leaf count
        // would reach its split threshold (the paper's "highest ancestor t
        // with L(t) = s (f/s)^h"). No mutation yet.
        let mut path = Vec::with_capacity(usize::from(self.height));
        let mut u = Some(parent);
        while let Some(id) = u {
            path.push(id);
            u = self.arena.node(id).parent;
        }
        self.stats.count_updates += path.len() as u64;
        let mut violator: Option<NodeId> = None;
        for &id in path.iter().rev() {
            let node = self.arena.node(id);
            if node.leaf_count() + k64 >= self.params.split_threshold(node.height) {
                violator = Some(id);
                break;
            }
        }

        // Label-space pre-check before mutating anything.
        if violator == Some(self.root) {
            let plan = RootRebuild::plan(&self.params, self.n_leaves + k64, self.height);
            if plan.new_height > self.params.max_height() {
                return Err(LTreeError::LabelOverflow {
                    height: plan.new_height,
                });
            }
        }

        // Mutate: splice the new leaves in, bump counts along the path.
        let new_leaves: Vec<NodeId> = (0..k)
            .map(|_| self.arena.alloc(Node::new_leaf(Some(parent))))
            .collect();
        self.arena
            .node_mut(parent)
            .children_mut()
            .splice(pos..pos, new_leaves.iter().copied());
        for &id in &path {
            if let NodeData::Internal { leaf_count, .. } = &mut self.arena.node_mut(id).data {
                *leaf_count += k64;
            }
        }
        self.n_leaves += k64;
        self.n_live += k64;
        self.stats.leaves_inserted += k64;

        match violator {
            None => {
                // No split: relabel the new leaves and their right
                // siblings by child index (labels `num(parent) + j`).
                self.relabel_suffix(parent, pos);
            }
            Some(first) => {
                let mut t = first;
                let mut cascaded = false;
                loop {
                    if t == self.root {
                        self.rebuild_root()?;
                        break;
                    }
                    let up = self.arena.node(t).parent.expect("non-root has a parent");
                    self.split_node(t)?;
                    let pn = self.arena.node(up);
                    let overflow = pn.children().len() > self.params.f() as usize;
                    debug_assert!(
                        pn.leaf_count() < self.params.split_threshold(pn.height) || up == self.root,
                        "t was the highest leaf-count violator"
                    );
                    if overflow {
                        // Only reachable through batch insertions: the
                        // split emitted more pieces than the parent had
                        // slack for (paper Prop. 3 guarantees this never
                        // happens for k = 1; the tests assert it).
                        self.stats.cascade_splits += 1;
                        cascaded = true;
                        t = up;
                        continue;
                    }
                    let base = self.arena.node(up).num;
                    self.relabel_subtree(up, base)?;
                    break;
                }
                let _ = cascaded;
            }
        }
        Ok(new_leaves.into_iter().map(LeafId).collect())
    }

    /// Relabel `children[pos..]` of a height-1 node by child index.
    fn relabel_suffix(&mut self, parent: NodeId, pos: usize) {
        let base = self.arena.node(parent).num;
        let children: Vec<NodeId> = self.arena.node(parent).children()[pos..].to_vec();
        let mut written = 0u64;
        for (offset, child) in children.into_iter().enumerate() {
            let node = self.arena.node_mut(child);
            node.num = base + (pos + offset) as u128;
            written += 1;
            self.stats.leaf_label_writes += 1;
        }
        self.stats.relabel_events += 1;
        self.stats.nodes_relabeled += written;
        self.stats.max_relabeled_in_one_op = self.stats.max_relabeled_in_one_op.max(written);
    }

    /// Split node `t` into `ceil(L / a^h)` near-equal leftmost-complete
    /// pieces spliced in its place (paper Section 2.3 for the exact
    /// single-insert case where this is `s` complete trees).
    fn split_node(&mut self, t: NodeId) -> Result<()> {
        let h = self.arena.node(t).height;
        let parent = self
            .arena
            .node(t)
            .parent
            .expect("split_node is never called on the root");
        let idx = self.index_of_child(parent, t);
        let leaves = self.dismantle(t);
        let total = leaves.len() as u64;
        let cap = self.params.subtree_capacity(h);
        let m = ceil_div(total, cap);
        let sizes = even_split(total, m);
        let mut pieces = Vec::with_capacity(m as usize);
        let mut off = 0usize;
        for &size in &sizes {
            let piece = self.build_complete(h, &leaves[off..off + size as usize]);
            self.arena.node_mut(piece).parent = Some(parent);
            pieces.push(piece);
            off += size as usize;
        }
        self.arena
            .node_mut(parent)
            .children_mut()
            .splice(idx..=idx, pieces);
        self.stats.splits += 1;
        self.stats.pieces_created += m;
        Ok(())
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
        let leaves = self.dismantle(self.root);
        debug_assert_eq!(leaves.len() as u64, total);
        let sizes = even_split(total, plan.pieces);
        let mut level: Vec<NodeId> = Vec::with_capacity(plan.pieces as usize);
        let mut off = 0usize;
        for &size in &sizes {
            level.push(self.build_complete(old_h, &leaves[off..off + size as usize]));
            off += size as usize;
        }
        let a = self.params.arity() as usize;
        let mut h = old_h;
        for _ in 0..plan.grouping_levels {
            h += 1;
            let mut next = Vec::with_capacity(ceil_div(level.len() as u64, a as u64) as usize);
            for chunk in level.chunks(a) {
                next.push(self.make_internal(h, chunk.to_vec()));
            }
            level = next;
        }
        let root = self.make_internal(plan.new_height, level);
        self.root = root;
        self.height = plan.new_height;
        self.stats.root_rebuilds += 1;
        self.relabel_subtree(root, 0)?;
        Ok(())
    }

    /// Collect the leaf sequence of `t` in document order, freeing every
    /// interior node of the subtree (including `t`).
    fn dismantle(&mut self, t: NodeId) -> Vec<NodeId> {
        let mut leaves = Vec::with_capacity(self.arena.node(t).leaf_count() as usize);
        let mut stack = vec![t];
        let mut visited = 0u64;
        while let Some(id) = stack.pop() {
            visited += 1;
            if self.arena.node(id).is_leaf() {
                leaves.push(id);
            } else {
                let children = self.arena.node(id).children();
                for &c in children.iter().rev() {
                    stack.push(c);
                }
                self.arena.free(id);
            }
        }
        self.stats.nodes_visited += visited;
        leaves
    }

    /// Free all interior nodes below (and including) `u`, leaving leaves
    /// untouched. Used by `compact`.
    fn free_internals(&mut self, u: NodeId) {
        let mut stack = vec![u];
        while let Some(id) = stack.pop() {
            if !self.arena.node(id).is_leaf() {
                let children = self.arena.node(id).children().to_vec();
                stack.extend(children);
                self.arena.free(id);
            }
        }
    }

    /// Build a leftmost-complete `a`-ary subtree of exactly `height` over
    /// the given leaves (chunks of `a^(height-1)` per child). Numbers are
    /// assigned by a later relabel pass.
    fn build_complete(&mut self, height: u8, leaves: &[NodeId]) -> NodeId {
        debug_assert!(height >= 1 && !leaves.is_empty());
        debug_assert!(leaves.len() as u64 <= self.params.subtree_capacity(height));
        if height == 1 {
            return self.make_internal(1, leaves.to_vec());
        }
        let cap = self.params.subtree_capacity(height - 1);
        let cap = usize::try_from(cap).unwrap_or(usize::MAX).max(1);
        let children: Vec<NodeId> = leaves
            .chunks(cap)
            .map(|chunk| self.build_complete(height - 1, chunk))
            .collect();
        self.make_internal(height, children)
    }

    /// Allocate an internal node at `height` adopting `children`.
    fn make_internal(&mut self, height: u8, children: Vec<NodeId>) -> NodeId {
        let mut leaf_count = 0u64;
        for &c in &children {
            leaf_count += self.arena.node(c).leaf_count();
        }
        let id = self.arena.alloc(Node::new_internal(None, height));
        for &c in &children {
            self.arena.node_mut(c).parent = Some(id);
        }
        if let NodeData::Internal {
            children: slot,
            leaf_count: lc,
        } = &mut self.arena.node_mut(id).data
        {
            *slot = children;
            *lc = leaf_count;
        }
        self.stats.nodes_visited += 1;
        id
    }

    /// Assign `num(u) = base` and recursively
    /// `num(child_i) = num(parent) + i · B^{h(child)}` (paper Algorithm 1,
    /// `Relabel`). Counts every node written.
    fn relabel_subtree(&mut self, u: NodeId, base: u128) -> Result<()> {
        let mut stack = vec![(u, base)];
        let mut written = 0u64;
        let mut leaf_writes = 0u64;
        while let Some((id, num)) = stack.pop() {
            written += 1;
            let node = self.arena.node_mut(id);
            node.num = num;
            match &node.data {
                NodeData::Leaf { .. } => leaf_writes += 1,
                NodeData::Internal { children, .. } => {
                    let child_h = node.height - 1;
                    let interval = self.params.interval(child_h)?;
                    for (i, &c) in children.iter().enumerate() {
                        stack.push((c, num + i as u128 * interval));
                    }
                }
            }
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
        let mut stack = if self.is_empty() {
            Vec::new()
        } else {
            vec![self.root]
        };
        std::iter::from_fn(move || {
            let id = stack.pop()?;
            Some(match &self.arena.node(id).data {
                NodeData::Internal { children, .. } => {
                    stack.extend(children.iter().rev());
                    StructureEvent::Interior(
                        u16::try_from(children.len()).expect("fanout fits u16 (f <= 65536)"),
                    )
                }
                NodeData::Leaf { deleted } => StructureEvent::Leaf(*deleted),
            })
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
        tree.arena.free(tree.root);
        let corrupt = || LTreeError::InvalidParams {
            f: params.f(),
            s: params.s(),
            reason: "snapshot structure is inconsistent",
        };
        // Frame stack of open interior nodes: (id, children still owed).
        let mut frames: Vec<(NodeId, u16)> = Vec::new();
        let mut leaves = Vec::new();
        let mut root: Option<NodeId> = None;
        let mut n_leaves = 0u64;
        let mut n_live = 0u64;
        for (idx, &ev) in events.iter().enumerate() {
            // Allocate.
            let node_id = match ev {
                Ev::Interior(fanout) => {
                    // Empty trees encode as zero events; a fanout within
                    // `f` at a height within `max_height` keeps every
                    // label below `B^H`.
                    if fanout == 0 || u32::from(fanout) > params.f() {
                        return Err(corrupt());
                    }
                    tree.arena.alloc(Node::new_internal(None, 0))
                }
                Ev::Leaf(deleted) => {
                    let id = tree.arena.alloc(Node::new_leaf(None));
                    if deleted {
                        if let NodeData::Leaf { deleted: d } = &mut tree.arena.node_mut(id).data {
                            *d = true;
                        }
                    } else {
                        n_live += 1;
                    }
                    n_leaves += 1;
                    leaves.push(LeafId(id));
                    id
                }
            };
            // Attach.
            match frames.last_mut() {
                Some((parent_id, remaining)) => {
                    let parent_id = *parent_id;
                    *remaining -= 1;
                    let child_height = tree
                        .arena
                        .node(parent_id)
                        .height
                        .checked_sub(1)
                        .ok_or_else(corrupt)?;
                    if matches!(ev, Ev::Leaf(_)) && child_height != 0 {
                        return Err(corrupt()); // leaf above the leaf level
                    }
                    if matches!(ev, Ev::Interior(_)) && child_height == 0 {
                        return Err(corrupt()); // interior at the leaf level
                    }
                    tree.arena.node_mut(node_id).height = child_height;
                    tree.arena.node_mut(node_id).parent = Some(parent_id);
                    tree.arena.node_mut(parent_id).children_mut().push(node_id);
                }
                None => {
                    if idx != 0 || matches!(ev, Ev::Leaf(_)) {
                        return Err(corrupt()); // exactly one root, interior
                    }
                    tree.arena.node_mut(node_id).height = height;
                    root = Some(node_id);
                }
            }
            // Open this node's own frame, then close completed ones.
            if let Ev::Interior(fanout) = ev {
                frames.push((node_id, fanout));
            }
            while matches!(frames.last(), Some(&(_, 0))) {
                frames.pop();
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
        // Recompute leaf counts bottom-up and labels top-down.
        tree.recount_leaves(root);
        tree.relabel_subtree(root, 0)?;
        tree.stats.reset();
        Ok((tree, leaves))
    }

    /// Recompute `leaf_count` for every interior node under `u`.
    fn recount_leaves(&mut self, u: NodeId) -> u64 {
        let node = self.arena.node(u);
        if node.is_leaf() {
            return 1;
        }
        let children = node.children().to_vec();
        let mut total = 0u64;
        for c in children {
            total += self.recount_leaves(c);
        }
        if let NodeData::Internal { leaf_count, .. } = &mut self.arena.node_mut(u).data {
            *leaf_count = total;
        }
        total
    }

    // Crate-internal accessors for the invariant checker.
    pub(crate) fn arena_ref(&self) -> &Arena {
        &self.arena
    }

    pub(crate) fn root_id(&self) -> NodeId {
        self.root
    }

    pub(crate) fn leaf_total(&self) -> u64 {
        self.n_leaves
    }

    pub(crate) fn live_total(&self) -> u64 {
        self.n_live
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

/// Document-order leaf iterator (see [`LTree::leaves`]).
pub struct Leaves<'a> {
    tree: &'a LTree,
    stack: Vec<NodeId>,
}

impl Iterator for Leaves<'_> {
    type Item = LeafId;

    fn next(&mut self) -> Option<LeafId> {
        while let Some(id) = self.stack.pop() {
            let node = self.tree.arena.node(id);
            match &node.data {
                NodeData::Leaf { .. } => return Some(LeafId(id)),
                NodeData::Internal { children, .. } => {
                    for &c in children.iter().rev() {
                        self.stack.push(c);
                    }
                }
            }
        }
        None
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

    #[test]
    fn bulk_load_matches_layout_module() {
        let p = Params::new(8, 2).unwrap();
        let (tree, leaves) = LTree::bulk_load(p, 100).unwrap();
        let (h, expect) = crate::layout::bulk_load_labels(&p, 100).unwrap();
        assert_eq!(tree.height(), h);
        let got: Vec<u128> = leaves
            .iter()
            .map(|&l| tree.label(l).unwrap().get())
            .collect();
        assert_eq!(got, expect);
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
        // A LeafId from another tree may or may not alias a slot; the
        // arena generation makes the non-aliasing case safe, and the
        // type-level contract documents the rest. At minimum, internal
        // node ids and freed ids must be rejected:
        tree.delete(leaves[0]).unwrap();
        tree.compact().unwrap();
        assert!(matches!(
            tree.label(leaves[0]),
            Err(LTreeError::UnknownHandle)
        ));
        let _ = other_leaves;
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
