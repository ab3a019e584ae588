//! The materialized L-Tree's storage: two pools of fixed-size records.
//!
//! A [`LeafRec`] (20 B) holds the low 64 bits of one label; an
//! [`InteriorRec`] (24 B) holds a node's leaf count, height and links,
//! but no number: the labeling invariant makes an interior node's number
//! any leaf label below it rounded down to a multiple of `B^h`, so the
//! tree derives the numbers it needs (see `LTree::insert_leaves_at`).
//! Children are a first-child/next-sibling list, so no record owns a
//! heap allocation, and a node may briefly hold more than `f` children
//! mid-operation (a batch spliced into a height-1 node, a cascade's
//! parent) without any reserved stride. Links are `u32` record indices,
//! [`NIL`] for none.
//!
//! Leaf records are named by [`LeafId`] handles, so they carry a
//! generation: freeing one (only [`crate::LTree::compact`] does) bumps
//! it, so a stale handle never aliases the record's next tenant. No
//! handle names an interior record; they need no generation. Both pools
//! thread their free lists through `next`.
//!
//! A label's bits above the low 64 go in a column beside the leaf pool,
//! `Store::hi`, which stays empty until the first label above `u64::MAX`
//! is written. So a tree whose labels fit 64 bits (every `(4,2)` tree
//! below height 28) pays 20 B per leaf and one length test per label
//! read for keeping the `u128` label space. Every label read and write
//! goes through [`Store::label`] and [`Store::set_label`].

use std::collections::TryReserveError;
use std::mem::size_of;

use crate::tree::LeafId;

/// "No record": the end of a sibling or free list, the root's parent, and
/// the parent of a free leaf record.
pub(crate) const NIL: u32 = u32::MAX;

/// Bit 31 of [`LeafRec::tag`]: the leaf is tombstoned.
const TOMBSTONE: u32 = 1 << 31;

/// The low 31 bits of [`LeafRec::tag`]: the record's generation.
const GEN_MASK: u32 = TOMBSTONE - 1;

/// How many leaf records the `u32` index space holds: every index but
/// [`NIL`].
pub(crate) const MAX_LEAVES: u64 = NIL as u64;

/// One leaf. 20 B: two `u32` label words keep the record 4-B aligned.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafRec {
    /// The low 64 bits of the leaf's label `num(v)`, low word first; the
    /// rest is in [`Store::hi`]. Read and written only through
    /// [`Store::label`] and [`Store::set_label`].
    lo: [u32; 2],
    /// The height-1 interior record holding this leaf; [`NIL`] while the
    /// record is free.
    pub(crate) parent: u32,
    /// Next sibling under `parent`, or the next free record.
    pub(crate) next: u32,
    /// Generation (low 31 bits) and tombstone flag (bit 31).
    pub(crate) tag: u32,
}

impl LeafRec {
    /// Tombstoned? Deletions never relabel (paper, Section 2.3).
    #[inline]
    pub(crate) fn is_deleted(&self) -> bool {
        self.tag & TOMBSTONE != 0
    }

    /// Mark the leaf tombstoned.
    #[inline]
    pub(crate) fn set_deleted(&mut self) {
        self.tag |= TOMBSTONE;
    }

    #[inline]
    fn gen(&self) -> u32 {
        self.tag & GEN_MASK
    }
}

/// One interior node. 24 B.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InteriorRec {
    /// `L(v)`: leaf descendants, tombstones included. Drives the split
    /// criterion. Fits `u32`: the whole tree holds at most
    /// [`MAX_LEAVES`].
    pub(crate) leaf_count: u32,
    /// Parent interior record; [`NIL`] for the root.
    pub(crate) parent: u32,
    /// Next sibling under `parent`, or the next free record.
    pub(crate) next: u32,
    /// First child: a leaf record at height 1, an interior record above.
    pub(crate) first: u32,
    /// Number of children on the `first`/`next` list.
    pub(crate) fanout: u32,
    /// Height: parents of leaves are 1.
    pub(crate) height: u8,
}

/// The two record pools, their free lists and the leaf labels' high
/// words.
#[derive(Debug)]
pub(crate) struct Store {
    pub(crate) leaves: Vec<LeafRec>,
    /// Bits 64–127 of each leaf record's label, indexed like `leaves`.
    /// Empty (capacity 0) until a label above `u64::MAX` is written; from
    /// then on exactly as long as `leaves`, and never dropped.
    pub(crate) hi: Vec<u64>,
    pub(crate) nodes: Vec<InteriorRec>,
    /// Head of the free leaf records, threaded through `next`.
    pub(crate) free_leaf: u32,
    /// Head of the free interior records, threaded through `next`.
    pub(crate) free_node: u32,
}

impl Store {
    pub(crate) fn new() -> Self {
        Store {
            leaves: Vec::new(),
            hi: Vec::new(),
            nodes: Vec::new(),
            free_leaf: NIL,
            free_node: NIL,
        }
    }

    /// Capacity of every buffer, in bytes: `O(1)`.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.leaves.capacity() * size_of::<LeafRec>()
            + self.hi.capacity() * size_of::<u64>()
            + self.nodes.capacity() * size_of::<InteriorRec>()
    }

    /// Room for `total` leaf records, in the pool and, once it exists, in
    /// the high-word column.
    pub(crate) fn try_reserve_leaves(&mut self, total: usize) -> Result<(), TryReserveError> {
        self.leaves
            .try_reserve(total.saturating_sub(self.leaves.len()))?;
        if !self.hi.is_empty() {
            self.hi.try_reserve(total.saturating_sub(self.hi.len()))?;
        }
        Ok(())
    }

    /// The label of leaf record `idx`: its low words, plus its high word
    /// once the column exists.
    #[inline]
    pub(crate) fn label(&self, idx: u32) -> u128 {
        let [lo, mid] = self.leaf(idx).lo;
        let hi = self.hi.get(idx as usize).copied().unwrap_or(0);
        (u128::from(hi) << 64) | (u128::from(mid) << 32) | u128::from(lo)
    }

    /// Write the label of leaf record `idx`. The first label above
    /// `u64::MAX` opens the high-word column.
    #[inline]
    pub(crate) fn set_label(&mut self, idx: u32, label: u128) {
        let hi = (label >> 64) as u64;
        if hi != 0 && self.hi.is_empty() {
            self.open_hi();
        }
        if let Some(word) = self.hi.get_mut(idx as usize) {
            *word = hi;
        }
        self.leaf_mut(idx).lo = [label as u32, (label >> 32) as u32];
    }

    /// Open the high-word column: a zero word for every leaf record so
    /// far, with the pool's capacity.
    #[cold]
    fn open_hi(&mut self) {
        self.hi.reserve_exact(self.leaves.capacity());
        self.hi.resize(self.leaves.len(), 0);
    }

    /// The record `id` names, if it is in use at `id`'s generation.
    #[inline]
    pub(crate) fn live_leaf(&self, id: LeafId) -> Option<&LeafRec> {
        self.leaves
            .get(id.idx as usize)
            .filter(|rec| rec.parent != NIL && rec.gen() == id.gen)
    }

    /// The handle of leaf record `idx` at its current generation.
    #[inline]
    pub(crate) fn leaf_id(&self, idx: u32) -> LeafId {
        LeafId {
            idx,
            gen: self.leaves[idx as usize].gen(),
        }
    }

    #[inline]
    pub(crate) fn leaf(&self, idx: u32) -> &LeafRec {
        &self.leaves[idx as usize]
    }

    #[inline]
    pub(crate) fn leaf_mut(&mut self, idx: u32) -> &mut LeafRec {
        &mut self.leaves[idx as usize]
    }

    #[inline]
    pub(crate) fn node(&self, idx: u32) -> &InteriorRec {
        &self.nodes[idx as usize]
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, idx: u32) -> &mut InteriorRec {
        &mut self.nodes[idx as usize]
    }

    /// Next sibling of record `idx` at `height` (0 = a leaf record).
    #[inline]
    pub(crate) fn next(&self, idx: u32, height: u8) -> u32 {
        if height == 0 {
            self.leaf(idx).next
        } else {
            self.node(idx).next
        }
    }

    /// Parent of record `idx` at `height` (0 = a leaf record).
    #[inline]
    pub(crate) fn parent(&self, idx: u32, height: u8) -> u32 {
        if height == 0 {
            self.leaf(idx).parent
        } else {
            self.node(idx).parent
        }
    }

    /// Set the sibling link of record `idx` at `height`.
    #[inline]
    pub(crate) fn set_next(&mut self, idx: u32, height: u8, next: u32) {
        if height == 0 {
            self.leaf_mut(idx).next = next;
        } else {
            self.node_mut(idx).next = next;
        }
    }

    /// Hang record `idx` at `height` under `parent`, followed by `next`.
    /// Returns its leaf count (1 for a leaf).
    #[inline]
    pub(crate) fn adopt(&mut self, idx: u32, height: u8, parent: u32, next: u32) -> u32 {
        if height == 0 {
            let leaf = self.leaf_mut(idx);
            leaf.parent = parent;
            leaf.next = next;
            1
        } else {
            let node = self.node_mut(idx);
            node.parent = parent;
            node.next = next;
            node.leaf_count
        }
    }

    /// A fresh unlabeled leaf under `parent`, reusing a free record (at
    /// its bumped generation) when there is one. The caller has checked
    /// the index space and reserved room.
    pub(crate) fn alloc_leaf(&mut self, parent: u32) -> LeafId {
        let fresh = |tag| LeafRec {
            lo: [0; 2],
            parent,
            next: NIL,
            tag,
        };
        let wide = !self.hi.is_empty();
        let idx = if self.free_leaf != NIL {
            let idx = self.free_leaf;
            self.free_leaf = self.leaf(idx).next;
            let tag = self.leaf(idx).tag;
            *self.leaf_mut(idx) = fresh(tag);
            if wide {
                self.hi[idx as usize] = 0;
            }
            idx
        } else {
            let idx = index(self.leaves.len());
            self.leaves.push(fresh(0));
            if wide {
                self.hi.push(0);
            }
            idx
        };
        self.leaf_id(idx)
    }

    /// Free a leaf record: bump its generation so every handle to it goes
    /// stale, and push it on the free list.
    pub(crate) fn free_leaf(&mut self, idx: u32) {
        let head = self.free_leaf;
        let leaf = self.leaf_mut(idx);
        leaf.tag = (leaf.gen() + 1) & GEN_MASK;
        leaf.parent = NIL;
        leaf.next = head;
        self.free_leaf = idx;
    }

    /// A fresh childless interior record at `height`.
    pub(crate) fn alloc_node(&mut self, height: u8) -> u32 {
        let fresh = InteriorRec {
            leaf_count: 0,
            parent: NIL,
            next: NIL,
            first: NIL,
            fanout: 0,
            height,
        };
        if self.free_node != NIL {
            let idx = self.free_node;
            self.free_node = self.node(idx).next;
            *self.node_mut(idx) = fresh;
            idx
        } else {
            let idx = index(self.nodes.len());
            self.nodes.push(fresh);
            idx
        }
    }

    /// Push an interior record on the free list.
    pub(crate) fn free_node(&mut self, idx: u32) {
        self.node_mut(idx).next = self.free_node;
        self.free_node = idx;
    }
}

/// The index the next pushed record gets. Leaf batches are checked
/// against [`MAX_LEAVES`] before they allocate, and interior records
/// never outnumber the leaves by more than the tree's height times.
fn index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&idx| idx != NIL)
        .expect("record pool exceeds the u32 index space")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fit_their_budgets() {
        assert!(size_of::<LeafRec>() <= 20, "{}", size_of::<LeafRec>());
        assert!(
            size_of::<InteriorRec>() <= 24,
            "{}",
            size_of::<InteriorRec>()
        );
    }

    #[test]
    fn fresh_records_are_unlabeled_and_childless() {
        let mut store = Store::new();
        let parent = store.alloc_node(3);
        let node = store.node(parent);
        assert_eq!((node.height, node.fanout, node.leaf_count), (3, 0, 0));
        assert_eq!((node.first, node.parent, node.next), (NIL, NIL, NIL));
        let leaf = store.alloc_leaf(parent);
        let rec = store.live_leaf(leaf).unwrap();
        assert_eq!((rec.parent, rec.next), (parent, NIL));
        assert!(!rec.is_deleted());
        assert_eq!(store.label(leaf.idx), 0);
    }

    #[test]
    fn labels_round_trip_through_both_columns() {
        let mut store = Store::new();
        let parent = store.alloc_node(1);
        let a = store.alloc_leaf(parent).idx;
        let b = store.alloc_leaf(parent).idx;
        store.set_label(a, u128::from(u64::MAX));
        assert_eq!(store.label(a), u128::from(u64::MAX));
        assert!(store.hi.is_empty(), "a 64-bit label opens no column");
        assert_eq!(store.hi.capacity(), 0);

        let wide = (7u128 << 64) | 0x0123_4567_89ab_cdef;
        store.set_label(b, wide);
        assert_eq!(store.hi.len(), store.leaves.len(), "one word per record");
        assert_eq!(
            (store.label(a), store.label(b)),
            (u128::from(u64::MAX), wide)
        );
        // Narrowing a label clears its high word; the column stays.
        store.set_label(b, 5);
        assert_eq!((store.label(b), store.hi.len()), (5, 2));
        store.set_label(b, u128::MAX);
        assert_eq!(store.label(b), u128::MAX);

        // New and reused records get a zero high word.
        let c = store.alloc_leaf(parent).idx;
        assert_eq!((store.label(c), store.hi.len()), (0, 3));
        store.free_leaf(b);
        assert_eq!(store.alloc_leaf(parent).idx, b);
        assert_eq!((store.label(b), store.hi.len()), (0, 3));
        assert_eq!(
            store.memory_bytes(),
            store.leaves.capacity() * size_of::<LeafRec>()
                + store.hi.capacity() * size_of::<u64>()
                + store.nodes.capacity() * size_of::<InteriorRec>()
        );
    }

    #[test]
    fn freed_leaf_records_go_stale() {
        let mut store = Store::new();
        let parent = store.alloc_node(1);
        let a = store.alloc_leaf(parent);
        assert!(store.live_leaf(a).is_some());
        store.free_leaf(a.idx);
        assert!(store.live_leaf(a).is_none(), "a freed record is stale");
        // Not even a handle at the freed record's bumped generation is live.
        assert!(store.live_leaf(store.leaf_id(a.idx)).is_none());
    }

    #[test]
    fn recycled_leaf_records_get_a_new_generation() {
        let mut store = Store::new();
        let parent = store.alloc_node(1);
        let a = store.alloc_leaf(parent);
        store.leaf_mut(a.idx).set_deleted();
        store.free_leaf(a.idx);
        let b = store.alloc_leaf(parent);
        assert_eq!(b.idx, a.idx, "the free list is reused first");
        assert_ne!(b, a);
        assert!(store.live_leaf(a).is_none());
        assert!(!store.live_leaf(b).unwrap().is_deleted());
    }

    #[test]
    fn memory_counts_every_buffer_capacity() {
        let mut store = Store::new();
        let parent = store.alloc_node(1);
        store.alloc_leaf(parent);
        assert_eq!(store.hi.capacity(), 0);
        assert_eq!(
            store.memory_bytes(),
            store.leaves.capacity() * size_of::<LeafRec>()
                + store.nodes.capacity() * size_of::<InteriorRec>()
        );
        store.free_node(parent);
        assert_eq!(store.alloc_node(2), parent, "interior records are reused");
    }
}
