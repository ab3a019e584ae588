//! # `ltree-virtual` — the virtual L-Tree (paper, Section 4.2)
//!
//! > "As an alternative to storing the L-Tree on disk, we can store only
//! > the leaf labels (with the XML nodes) because all the structural
//! > information of the L-Tree is implicit in the labels themselves. …
//! > the base (f+1) digits of num(v) provide an encoding of all the
//! > ancestors of v."
//!
//! This crate implements that alternative:
//!
//! * the only persistent state is the multiset of leaf labels, kept in a
//!   [`counted_btree::CountedBTree`] ("a B-tree whose internal nodes also
//!   maintain counts"), plus an `O(1)` handle → label map;
//! * the split criterion for a *virtual* node at height `h` above an
//!   anchor with label `x` is evaluated by one range count over
//!   `[align(x,h), align(x,h) + (f+1)^h)`;
//! * when a virtual node must split, the replacement labels of "the `s`
//!   complete `f/s`-ary (virtual) trees can be computed easily and
//!   updated in place, on the labels identified by the range query";
//! * the labels produced are **bit-for-bit identical** to the
//!   materialized [`ltree_core::LTree`] under the same operation stream —
//!   both sides derive them from the shared [`ltree_core::layout`]
//!   helpers, and the integration test-suite verifies the equivalence on
//!   randomized workloads.
//!
//! The trade-off, as the paper notes, is "extra computation required by
//! the range queries" versus "the storage space necessary for
//! materializing the L-Tree" — experiment X9 measures exactly that.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use counted_btree::CountedBTree;
use ltree_core::layout::{ceil_div, complete_offset, complete_offsets, even_split, RootRebuild};
use ltree_core::registry::SchemeRegistry;
use ltree_core::{
    BatchLabeling, Instrumented, LTreeError, LeafHandle, OrderedLabeling, OrderedLabelingMut,
    Params, Result, SchemeStats,
};

#[derive(Debug, Clone)]
struct VItem {
    label: u128,
    deleted: bool,
    alive: bool,
}

/// The virtual L-Tree. See the [crate docs](crate).
pub struct VirtualLTree {
    params: Params,
    height: u8,
    /// label → item index. Tombstoned items stay present (they still
    /// occupy label slots, exactly like the materialized tombstones).
    tree: CountedBTree<u32>,
    items: Vec<VItem>,
    n_live: u64,
    stats: SchemeStats,
    /// Range-count probes issued (the virtual scheme's "extra
    /// computation"; exposed for experiment X9).
    range_probes: u64,
}

impl VirtualLTree {
    /// An empty virtual L-Tree.
    pub fn new(params: Params) -> Self {
        VirtualLTree {
            params,
            height: 1,
            tree: CountedBTree::new(),
            items: Vec::new(),
            n_live: 0,
            stats: SchemeStats::default(),
            range_probes: 0,
        }
    }

    /// Shape parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Height of the virtual tree (grows on virtual root rebuilds).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Range-count probes issued since the last stats reset.
    pub fn range_probes(&self) -> u64 {
        self.range_probes
    }

    /// All current labels in order (tombstones included) — test helper
    /// mirroring `LTree::leaves()` + `label()`.
    pub fn labels_in_order(&self) -> Vec<u128> {
        self.tree.iter().map(|(k, _)| k).collect()
    }

    /// Validate the label set against the structural rules the labels
    /// encode (every label below `B^H`; strictly increasing; the B-tree's
    /// own invariants).
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.tree.check_invariants()?;
        let space = self
            .params
            .interval(self.height)
            .map_err(|e| e.to_string())?;
        let mut prev: Option<u128> = None;
        for (k, &idx) in self.tree.iter() {
            if k >= space {
                return Err(format!("label {k} outside space {space}"));
            }
            if let Some(p) = prev {
                if p >= k {
                    return Err("labels not strictly increasing".into());
                }
            }
            prev = Some(k);
            let item = self.items.get(idx as usize).ok_or("dangling item index")?;
            if !item.alive || item.label != k {
                return Err(format!(
                    "item {idx} out of sync: stored {} vs key {k}",
                    item.label
                ));
            }
        }
        Ok(())
    }

    fn item(&self, h: LeafHandle) -> Result<&VItem> {
        let idx = usize::try_from(h.0).map_err(|_| LTreeError::UnknownHandle)?;
        match self.items.get(idx) {
            Some(item) if item.alive => Ok(item),
            _ => Err(LTreeError::UnknownHandle),
        }
    }

    /// Room for `k` more items, or [`LTreeError::CapacityExceeded`]
    /// before anything changes — the mirror of the materialized tree's
    /// leaf reservation: the total must fit the `u32` item index space
    /// (so the `as u32` index casts below cannot truncate), and the item
    /// table and the returned handle vector (empty, with capacity `k`)
    /// are reserved up front.
    fn reserve_items(&mut self, k: usize) -> Result<Vec<LeafHandle>> {
        let requested = k as u64;
        let exceeded = LTreeError::CapacityExceeded { requested };
        match (self.items.len() as u64).checked_add(requested) {
            Some(total) if total <= u64::from(u32::MAX) => {}
            _ => return Err(exceeded),
        }
        let mut handles = Vec::new();
        self.items
            .try_reserve(k)
            .and_then(|()| handles.try_reserve_exact(k))
            .map_err(|_| exceeded)?;
        Ok(handles)
    }

    fn count_range(&mut self, lo: u128, hi: u128) -> u64 {
        self.range_probes += 1;
        self.tree.count_range(lo, hi) as u64
    }

    /// The insertion core — the virtual mirror of the materialized
    /// `insert_leaves_at`. `parent_base` is the label of the height-1
    /// virtual ancestor and `pos` the child slot where `k` fresh leaves
    /// land.
    fn insert_at(&mut self, parent_base: u128, pos: u64, k: usize) -> Result<Vec<LeafHandle>> {
        if k == 0 {
            return Err(LTreeError::EmptyBatch);
        }
        let mut new_handles = self.reserve_items(k)?;
        let params = self.params;
        let base = params.base();
        let k64 = k as u64;

        // --- Violator search (Algorithm 1, lines 4–10, via range counts)
        let mut violator: Option<u8> = None;
        for h in 1..=self.height {
            let interval = params.interval(h)?;
            let anc = parent_base / interval * interval;
            let count = self.count_range(anc, anc + interval);
            if count + k64 >= params.split_threshold(h) {
                violator = Some(h);
            }
        }

        // Allocate the new items (labels filled in below).
        let first_idx = self.items.len() as u32;
        for _ in 0..k {
            self.items.push(VItem {
                label: 0,
                deleted: false,
                alive: true,
            });
        }
        new_handles.extend((0..k as u64).map(|j| LeafHandle(u64::from(first_idx) + j)));
        let new_indices: Vec<u32> = (0..k as u32).map(|j| first_idx + j).collect();
        self.stats.inserts += k64;
        self.n_live += k64;

        match violator {
            None => {
                // Suffix shift within the height-1 parent: entries at
                // slots >= pos move up by k; the new leaves take
                // parent_base + pos .. + pos + k.
                let lo = parent_base + pos as u128;
                let hi = parent_base + base;
                let shifted = self.tree.drain_range(lo, hi);
                let mut batch: Vec<(u128, u32)> = Vec::with_capacity(shifted.len() + k);
                for (j, &idx) in new_indices.iter().enumerate() {
                    batch.push((lo + j as u128, idx));
                }
                for (j, (_, idx)) in shifted.into_iter().enumerate() {
                    batch.push((lo + (k + j) as u128, idx));
                }
                self.write_labels(batch)?;
                self.stats.relabel_events += 1;
            }
            Some(mut hs) => {
                // Mirror of the materialized split/cascade loop. The final
                // level is found first (intermediate splits are subsumed
                // by a later dismantle, so only the last one matters).
                loop {
                    if hs == self.height {
                        return self.rebuild_root(parent_base, pos, new_indices, new_handles);
                    }
                    let t_interval = params.interval(hs)?;
                    let p_interval = params.interval(hs + 1)?;
                    let t_base = parent_base / t_interval * t_interval;
                    let p_base = parent_base / p_interval * p_interval;
                    let t_count = self.count_range(t_base, t_base + t_interval) + k64;
                    let pieces = ceil_div(t_count, params.subtree_capacity(hs));
                    // Children of the virtual parent = occupied child
                    // slots (consecutive by the labeling invariant).
                    let groups = self.occupied_child_slots(p_base, p_interval, t_interval);
                    let after = groups - 1 + pieces;
                    if after <= u64::from(params.f()) {
                        return self.split_and_relabel(
                            hs,
                            t_base,
                            p_base,
                            parent_base + pos as u128,
                            pieces,
                            new_indices,
                            new_handles,
                        );
                    }
                    // Fanout overflow: cascade to the parent level.
                    self.stats.node_touches += 1;
                    hs += 1;
                }
            }
        }
        Ok(new_handles)
    }

    /// Number of occupied child slots (groups) of the virtual node with
    /// base label `p_base` and interval `p_interval`, whose children each
    /// span `t_interval`. Child slots are consecutive from 0, so this is
    /// one probe: the slot of the last label below the node's end.
    fn occupied_child_slots(&mut self, p_base: u128, p_interval: u128, t_interval: u128) -> u64 {
        self.range_probes += 1;
        match self.tree.predecessor(p_base + p_interval) {
            Some((last, _)) if last >= p_base => ((last - p_base) / t_interval) as u64 + 1,
            _ => 0,
        }
    }

    /// Split the virtual node at height `hs` (base `t_base`) into
    /// `pieces` near-equal complete subtrees, and relabel from `t`'s
    /// interval to the end of the parent's (base `p_base`). The paper
    /// calls `Relabel(parent(t), num(parent(t)))`, but the siblings left
    /// of `t` keep their child slots, and so their labels.
    #[allow(clippy::too_many_arguments)]
    fn split_and_relabel(
        &mut self,
        hs: u8,
        t_base: u128,
        p_base: u128,
        insert_before_label: u128,
        pieces: u64,
        new_indices: Vec<u32>,
        new_handles: Vec<LeafHandle>,
    ) -> Result<Vec<LeafHandle>> {
        let params = self.params;
        let t_interval = params.interval(hs)?;
        let p_interval = params.interval(hs + 1)?;
        let entries = self.tree.drain_range(t_base, p_base + p_interval);

        // Rebuild the ordered item sequence with the new leaves spliced
        // into the t-group right before `insert_before_label`.
        let mut seq: Vec<(Option<u128>, u32)> =
            Vec::with_capacity(entries.len() + new_indices.len());
        let mut spliced = false;
        for (old, idx) in entries {
            if !spliced && old >= insert_before_label {
                for &ni in &new_indices {
                    seq.push((None, ni));
                }
                spliced = true;
            }
            seq.push((Some(old), idx));
        }
        if !spliced {
            for &ni in &new_indices {
                seq.push((None, ni));
            }
        }

        // Walk the sequence group by group, assigning new labels.
        let mut batch: Vec<(u128, u32)> = Vec::with_capacity(seq.len());
        let mut child_slot = (t_base - p_base) / t_interval;
        let mut i = 0usize;
        while i < seq.len() {
            // Determine the group of the leaf at `i`: new leaves belong
            // to the t-group by construction.
            let group_base = match seq[i].0 {
                Some(old) => old / t_interval * t_interval,
                None => t_base,
            };
            // Gather the whole group (consecutive in the ordered seq).
            let mut j = i;
            while j < seq.len() {
                let gb = match seq[j].0 {
                    Some(old) => old / t_interval * t_interval,
                    None => t_base,
                };
                if gb != group_base {
                    break;
                }
                j += 1;
            }
            let group = &seq[i..j];
            if group_base == t_base {
                // The split: near-equal complete pieces.
                let total = group.len() as u64;
                debug_assert_eq!(ceil_div(total, params.subtree_capacity(hs)), pieces);
                let sizes = even_split(total, pieces);
                let mut off = 0usize;
                for &size in &sizes {
                    let piece_base = p_base + child_slot * t_interval;
                    child_slot += 1;
                    for r in 0..size {
                        let (_, idx) = group[off + r as usize];
                        batch.push((piece_base + complete_offset(r, hs, &params)?, idx));
                    }
                    off += size as usize;
                }
            } else {
                // A sibling right of `t`: rigid shift to its new slot.
                let new_base = p_base + child_slot * t_interval;
                child_slot += 1;
                for &(old, idx) in group {
                    let old = old.expect("only the t-group receives new leaves");
                    batch.push((new_base + (old - group_base), idx));
                }
            }
            i = j;
        }
        debug_assert!(child_slot <= params.base(), "fanout was pre-checked");
        self.write_labels(batch)?;
        self.stats.relabel_events += 1;
        Ok(new_handles)
    }

    /// Virtual root rebuild: all labels are reassigned according to the
    /// shared [`RootRebuild`] plan; the virtual height grows.
    fn rebuild_root(
        &mut self,
        parent_base: u128,
        pos: u64,
        new_indices: Vec<u32>,
        new_handles: Vec<LeafHandle>,
    ) -> Result<Vec<LeafHandle>> {
        let params = self.params;
        let total = self.tree.len() as u64 + new_indices.len() as u64;
        let plan = RootRebuild::plan(&params, total, self.height);
        if plan.new_height > params.max_height() {
            // Roll back the optimistic item allocation.
            for _ in 0..new_indices.len() {
                self.items.pop();
            }
            self.n_live -= new_indices.len() as u64;
            self.stats.inserts -= new_indices.len() as u64;
            return Err(LTreeError::LabelOverflow {
                height: plan.new_height,
            });
        }
        let insert_before_label = parent_base + pos as u128;
        let space = params.interval(self.height)?;
        let entries = self.tree.drain_range(0, space);
        let mut seq: Vec<u32> = Vec::with_capacity(entries.len() + new_indices.len());
        let mut spliced = false;
        for (old, idx) in entries {
            if !spliced && old >= insert_before_label {
                seq.extend(&new_indices);
                spliced = true;
            }
            seq.push(idx);
        }
        if !spliced {
            seq.extend(&new_indices);
        }
        let labels = plan.leaf_labels(&params, total, self.height)?;
        debug_assert_eq!(labels.len(), seq.len());
        let batch: Vec<(u128, u32)> = labels.into_iter().zip(seq).collect();
        self.write_labels(batch)?;
        self.stats.relabel_events += 1;
        self.height = plan.new_height;
        Ok(new_handles)
    }

    /// Write a strictly-increasing `(label, item)` batch back into the
    /// B-tree and the item table.
    fn write_labels(&mut self, batch: Vec<(u128, u32)>) -> Result<()> {
        self.stats.label_writes += batch.len() as u64;
        for &(label, idx) in &batch {
            self.items[idx as usize].label = label;
        }
        self.tree
            .extend_sorted(batch)
            .map_err(|_| LTreeError::UnknownHandle)?;
        Ok(())
    }

    /// Charge the B-tree's touches to the stats. Each mutator resets the
    /// touch counter when it starts and syncs it when it ends, so the
    /// lookups of read-only calls are not counted as maintenance.
    fn sync_touches(&mut self) {
        self.stats.node_touches += self.tree.touches();
    }
}

/// Register the virtual L-Tree with a scheme registry, under both
/// `"ltree-virtual"` and the shorthand `"virtual"`. Spec arguments are
/// the `(f, s)` pair, e.g. `"virtual(4,2)"`.
pub fn register(reg: &mut SchemeRegistry) {
    for name in ["ltree-virtual", "virtual"] {
        reg.register(
            name,
            "virtual L-Tree (paper §4.2, labels only); args: (f,s)",
            move |cfg, args| {
                let params = cfg.params_from_args(name, args)?;
                Ok(Box::new(VirtualLTree::new(params)))
            },
        );
    }
}

impl OrderedLabeling for VirtualLTree {
    fn name(&self) -> &'static str {
        "ltree-virtual"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        Ok(self.item(h)?.label)
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn live_len(&self) -> usize {
        self.n_live as usize
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        self.tree.kth(0).map(|(_, &idx)| LeafHandle(u64::from(idx)))
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        let label = self.item(h).ok()?.label;
        self.tree
            .successor(label + 1)
            .map(|(_, &idx)| LeafHandle(u64::from(idx)))
    }

    fn label_space_bits(&self) -> u32 {
        match self.params.interval(self.height) {
            Ok(space) => 128 - (space - 1).leading_zeros(),
            Err(_) => 128,
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.items.capacity() * std::mem::size_of::<VItem>()
            + self.tree.memory_bytes()
    }
}

impl OrderedLabelingMut for VirtualLTree {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        if !self.items.is_empty() || !self.tree.is_empty() {
            return Err(LTreeError::NotEmpty);
        }
        let mut out = self.reserve_items(n)?;
        let height = self.params.height_for(n as u64);
        let labels = complete_offsets(n as u64, height, &self.params)?;
        self.height = height;
        let mut batch = Vec::with_capacity(n);
        for (j, label) in labels.enumerate() {
            self.items.push(VItem {
                label,
                deleted: false,
                alive: true,
            });
            batch.push((label, j as u32));
            out.push(LeafHandle(j as u64));
        }
        self.tree = CountedBTree::from_sorted(batch);
        self.n_live = n as u64;
        self.stats = SchemeStats::default();
        self.range_probes = 0;
        Ok(out)
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        self.tree.reset_touches();
        let out = match self.tree.kth(0) {
            Some((label, _)) => {
                let base = self.params.base();
                let parent_base = label / base * base;
                debug_assert_eq!(parent_base, 0);
                self.insert_at(parent_base, (label - parent_base) as u64, 1)
            }
            None => self.insert_at(0, 0, 1),
        }?;
        self.sync_touches();
        Ok(out[0])
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        self.tree.reset_touches();
        let x = self.item(anchor)?.label;
        let base = self.params.base();
        let parent_base = x / base * base;
        let out = self.insert_at(parent_base, (x - parent_base) as u64 + 1, 1)?;
        self.sync_touches();
        Ok(out[0])
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        self.tree.reset_touches();
        let x = self.item(anchor)?.label;
        let base = self.params.base();
        let parent_base = x / base * base;
        let out = self.insert_at(parent_base, (x - parent_base) as u64, 1)?;
        self.sync_touches();
        Ok(out[0])
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        let idx = usize::try_from(h.0).map_err(|_| LTreeError::UnknownHandle)?;
        match self.items.get_mut(idx) {
            Some(item) if item.alive => {
                if item.deleted {
                    return Err(LTreeError::DeletedLeaf);
                }
                item.deleted = true;
                self.n_live -= 1;
                self.stats.deletes += 1;
                Ok(())
            }
            _ => Err(LTreeError::UnknownHandle),
        }
    }
}

impl BatchLabeling for VirtualLTree {
    /// Native Section 4.1 batch over the virtual structure: one violator
    /// search and one relabel pass for the whole batch.
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        self.tree.reset_touches();
        let x = self.item(anchor)?.label;
        let base = self.params.base();
        let parent_base = x / base * base;
        let out = self.insert_at(parent_base, (x - parent_base) as u64 + 1, k)?;
        self.sync_touches();
        Ok(out)
    }
}

impl Instrumented for VirtualLTree {
    fn scheme_stats(&self) -> SchemeStats {
        self.stats
    }

    fn reset_scheme_stats(&mut self) {
        self.stats = SchemeStats::default();
        self.tree.reset_touches();
        self.range_probes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::LTree;

    fn mat_labels(t: &LTree) -> Vec<u128> {
        t.leaves().map(|l| t.label(l).unwrap().get()).collect()
    }

    #[test]
    fn bulk_build_matches_materialized() {
        for n in [0usize, 1, 2, 7, 8, 9, 31, 100] {
            let params = Params::new(4, 2).unwrap();
            let mut v = VirtualLTree::new(params);
            v.bulk_build(n).unwrap();
            let (m, _) = LTree::bulk_load(params, n).unwrap();
            assert_eq!(v.labels_in_order(), mat_labels(&m), "n = {n}");
            assert_eq!(v.height(), m.height());
            v.check_invariants().unwrap();
        }
    }

    #[test]
    fn single_insert_matches_materialized_walkthrough() {
        // The Figure 2 trace, virtually.
        let params = Params::new(4, 2).unwrap();
        let mut v = VirtualLTree::new(params);
        let hs = v.bulk_build(8).unwrap();
        let d = v.insert_before(hs[2]).unwrap();
        assert_eq!(v.labels_in_order(), vec![0, 1, 5, 6, 7, 25, 26, 30, 31]);
        assert_eq!(v.label_of(d).unwrap(), 5);
        let _d_end = v.insert_after(d).unwrap();
        assert_eq!(
            v.labels_in_order(),
            vec![0, 1, 5, 6, 10, 11, 25, 26, 30, 31]
        );
        v.check_invariants().unwrap();
    }

    #[test]
    fn hotspot_stream_equivalence() {
        let params = Params::new(4, 2).unwrap();
        let mut v = VirtualLTree::new(params);
        let vh = v.bulk_build(8).unwrap();
        let (mut m, ml) = LTree::bulk_load(params, 8).unwrap();
        let mut va = vh[3];
        let mut ma = ml[3];
        for i in 0..300 {
            va = v.insert_after(va).unwrap();
            ma = m.insert_after(ma).unwrap();
            assert_eq!(v.labels_in_order(), mat_labels(&m), "diverged at step {i}");
        }
        assert_eq!(v.height(), m.height());
        v.check_invariants().unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn append_stream_equivalence() {
        let params = Params::new(8, 2).unwrap();
        let mut v = VirtualLTree::new(params);
        let mut m = LTree::new(params);
        let mut va = OrderedLabelingMut::insert_first(&mut v).unwrap();
        let mut ma = m.insert_first().unwrap();
        for i in 0..500 {
            va = v.insert_after(va).unwrap();
            ma = m.insert_after(ma).unwrap();
            if i % 50 == 0 {
                assert_eq!(v.labels_in_order(), mat_labels(&m), "step {i}");
            }
        }
        assert_eq!(v.labels_in_order(), mat_labels(&m));
        assert_eq!(v.height(), m.height());
    }

    #[test]
    fn batch_insert_equivalence() {
        let params = Params::new(4, 2).unwrap();
        let mut v = VirtualLTree::new(params);
        let vh = v.bulk_build(16).unwrap();
        let (mut m, ml) = LTree::bulk_load(params, 16).unwrap();
        for k in [1usize, 2, 5, 17, 64] {
            BatchLabeling::insert_many_after(&mut v, vh[7], k).unwrap();
            m.insert_many_after(ml[7], k).unwrap();
            assert_eq!(v.labels_in_order(), mat_labels(&m), "batch k = {k}");
            m.check_invariants().unwrap();
            v.check_invariants().unwrap();
        }
    }

    #[test]
    fn deletes_are_tombstones() {
        let params = Params::new(4, 2).unwrap();
        let mut v = VirtualLTree::new(params);
        let hs = v.bulk_build(8).unwrap();
        let before = v.labels_in_order();
        v.delete(hs[3]).unwrap();
        assert_eq!(v.labels_in_order(), before, "deletes never touch labels");
        assert_eq!(v.live_len(), 7);
        assert_eq!(v.len(), 8);
        assert!(v.delete(hs[3]).is_err());
        // Tombstones still count for the split criterion, same as the
        // materialized tree — inserting near them behaves identically.
        let (mut m, ml) = LTree::bulk_load(params, 8).unwrap();
        m.delete(ml[3]).unwrap();
        let a = v.insert_after(hs[3]).unwrap();
        let b = m.insert_after(ml[3]).unwrap();
        assert_eq!(v.labels_in_order(), mat_labels(&m));
        assert_eq!(v.label_of(a).unwrap(), m.label(b).unwrap().get());
    }

    #[test]
    fn empty_then_first_insert() {
        let params = Params::new(4, 2).unwrap();
        let mut v = VirtualLTree::new(params);
        let h = OrderedLabelingMut::insert_first(&mut v).unwrap();
        assert_eq!(v.label_of(h).unwrap(), 0);
        let h2 = OrderedLabelingMut::insert_first(&mut v).unwrap();
        assert!(v.label_of(h2).unwrap() < v.label_of(h).unwrap());
        v.check_invariants().unwrap();
    }

    #[test]
    fn probes_are_counted() {
        let params = Params::new(4, 2).unwrap();
        let mut v = VirtualLTree::new(params);
        let hs = v.bulk_build(32).unwrap();
        v.reset_scheme_stats();
        v.insert_after(hs[10]).unwrap();
        assert!(
            v.range_probes() >= u64::from(v.height()),
            "one probe per level minimum"
        );
        assert!(v.scheme_stats().node_touches > 0);

        // Figure 2's split: one probe per level, one for the split node's
        // leaves and one for its parent's children.
        let mut v = VirtualLTree::new(params);
        let hs = v.bulk_build(8).unwrap();
        let d = v.insert_before(hs[2]).unwrap();
        v.reset_scheme_stats();
        v.insert_after(d).unwrap();
        assert_eq!(v.height(), 3);
        assert_eq!(v.range_probes(), u64::from(v.height()) + 2);
        assert_eq!(v.labels_in_order(), [0, 1, 5, 6, 10, 11, 25, 26, 30, 31]);
    }
}
