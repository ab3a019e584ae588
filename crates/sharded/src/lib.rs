//! # `ltree-sharded` — a segment-partitioned label store
//!
//! The L-Tree's weight-balanced relabeling is *local to a subtree*
//! (paper, Section 2.3): an insertion relabels only a logarithmically
//! chargeable neighbourhood. That locality is exactly what makes
//! partitioning the label space viable one level up: this crate's
//! [`ShardedScheme`] cuts the ordered label space into contiguous
//! **segments**, each owning an inner scheme (any scheme of the
//! workspace — an L-Tree, a virtual L-Tree, or a baseline), and
//! rebalances hot segments by **splitting** them the way an L-Tree node
//! splits, and drained segments by **merging** them into a neighbour.
//!
//! The whole ordered-labeling trait family is implemented on top:
//!
//! * [`OrderedLabeling`] — global labels are `(segment rank << B) |
//!   inner label` where `B` covers every segment's label space, so
//!   cross-segment order is the segment order and the streaming cursor
//!   walks shard-by-shard in global order;
//! * [`OrderedLabelingMut`] — point ops route through a **segment
//!   directory** (stable global handle → segment + inner handle, kept
//!   stable across splits and merges);
//! * [`BatchLabeling`] — insert splices keep a sibling run intact inside
//!   its segment (one native inner batch); delete splices are split at
//!   segment boundaries, one inner `delete_run` per touched segment;
//! * [`Instrumented`] — counters aggregate over all segments (counters
//!   of retired segments are folded in, keeping the monotonicity
//!   contract across merges) and [`metrics`](Instrumented::metrics)
//!   reports each live segment's share as `seg/<i>/…` counters.
//!
//! Rebalancing traffic (migration inserts/deletes) is *counted*: moving
//! an item between segments relabels it, and that is precisely the
//! maintenance cost the paper's currency measures.
//!
//! Construct directly over any factory, or through the registry's
//! composite spec `sharded(n,inner)` (see the grammar in
//! [`ltree_core::registry`]):
//!
//! ```
//! use ltree_core::registry::SchemeRegistry;
//! use ltree_core::{OrderedLabeling, OrderedLabelingMut};
//!
//! let mut reg = SchemeRegistry::with_builtin();
//! ltree_sharded::register(&mut reg);
//! let mut scheme = reg.build("sharded(4,ltree(4,2))").unwrap();
//! let handles = scheme.bulk_build(100).unwrap();
//! assert_eq!(scheme.name(), "sharded");
//! assert_eq!(scheme.cursor().count(), 100);
//! // Labels follow list order across segment boundaries.
//! assert!(scheme.label_of(handles[24]).unwrap() < scheme.label_of(handles[25]).unwrap());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::HashMap;

use ltree_core::metrics::{merge_metrics, Metric};
use ltree_core::registry::{as_u32, SchemeRegistry, SpecArg};
use ltree_core::{
    BatchLabeling, DynScheme, Instrumented, LTreeError, LabelingScheme, LeafHandle,
    OrderedLabeling, OrderedLabelingMut, Result, SchemeStats,
};

/// Segment-population thresholds and the initial segment count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Segments created up front; bulk builds distribute across them.
    pub initial_shards: usize,
    /// A segment whose live population exceeds this splits in half.
    pub split_above: usize,
    /// A segment whose live population falls below this merges into a
    /// neighbour (`0` disables merging).
    pub merge_below: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            initial_shards: 4,
            split_above: 256,
            merge_below: 8,
        }
    }
}

impl ShardedConfig {
    fn validate(self) -> Result<Self> {
        let bad = |reason| {
            Err(LTreeError::InvalidSpec {
                spec: "sharded".into(),
                reason,
            })
        };
        if self.initial_shards == 0 {
            return bad("initial shard count must be at least 1");
        }
        if self.split_above < 2 {
            return bad("split threshold must be at least 2");
        }
        if self.merge_below > 0 && self.split_above < 4 * self.merge_below {
            return bad("split threshold must be at least 4x the merge threshold");
        }
        Ok(self)
    }
}

/// The segment slot of a detached directory entry.
const DETACHED: u32 = u32::MAX;

/// One directory entry (16 B): where a global handle currently lives.
/// Entries are never removed — a deleted item whose inner handle is
/// gone (its segment merged away, or the inner scheme removed it
/// physically) becomes a *detached* tombstone (`slot == DETACHED`).
/// Keeping detached entries makes [`OrderedLabeling::len`] independent
/// of rebalancing timing: the same logical edit stream always reports
/// the same `len`, whether applied as batches or as single ops.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// The handle in `slot`'s inner scheme; stale once detached.
    inner: LeafHandle,
    /// Current segment slot, or [`DETACHED`].
    slot: u32,
    alive: bool,
}

impl DirEntry {
    /// Current `(slot, inner handle)`; `None` once detached.
    fn loc(&self) -> Option<(usize, LeafHandle)> {
        (self.slot != DETACHED).then_some((self.slot as usize, self.inner))
    }
}

/// One segment: an inner scheme plus the reverse map from its handles
/// back to the global ones.
struct Shard<S> {
    scheme: S,
    /// inner handle → global id. Inner handles *not* in this map are
    /// migration ghosts (tombstones left behind by a split) and are
    /// skipped by every read path.
    to_global: HashMap<u64, u64>,
}

/// A label store partitioned into contiguous ordered segments, each
/// backed by an inner scheme built on demand by a factory. See the
/// [crate docs](self) for the design and the
/// [`ltree_core::registry`] grammar for the `sharded(n,inner)` spec.
pub struct ShardedScheme<S: LabelingScheme> {
    factory: Box<dyn Fn() -> Result<S> + Send + Sync>,
    cfg: ShardedConfig,
    /// Slot-addressed segment storage; `None` marks retired slots so
    /// directory entries never dangle on index reuse.
    slots: Vec<Option<Shard<S>>>,
    /// Slot ids in global (cross-segment) order.
    order: Vec<usize>,
    /// Rank cache: `ranks[slot]` is the slot's position in `order`.
    /// Rebuilt on every `order` edit (split/merge — rare), so the read
    /// path never scans. Entries of retired slots are stale by design
    /// and never read.
    ranks: Vec<usize>,
    /// Cached label shift (`global_shift`), refreshed after every
    /// mutation: recomputing it per read would cost one
    /// `label_space_bits` call per segment on every `label_of`.
    shift: u32,
    /// Global handle → current location, indexed by the handle: handles
    /// are minted as `0..dir.len()` and entries are never removed, so
    /// they survive relabelings, splits and merges.
    dir: Vec<DirEntry>,
    n_live: usize,
    /// Counters of merged-away segments, folded into the aggregate so
    /// [`Instrumented`] stays monotone when a segment retires.
    retired: SchemeStats,
}

impl<S: LabelingScheme> ShardedScheme<S> {
    /// A sharded store with the default [`ShardedConfig`].
    pub fn new<F>(factory: F) -> Result<Self>
    where
        F: Fn() -> Result<S> + Send + Sync + 'static,
    {
        Self::with_config(ShardedConfig::default(), factory)
    }

    /// A sharded store with explicit thresholds. The factory runs once
    /// per initial segment immediately, so a broken factory fails here
    /// rather than at the first split.
    pub fn with_config<F>(cfg: ShardedConfig, factory: F) -> Result<Self>
    where
        F: Fn() -> Result<S> + Send + Sync + 'static,
    {
        let cfg = cfg.validate()?;
        let mut me = ShardedScheme {
            factory: Box::new(factory),
            cfg,
            slots: Vec::new(),
            order: Vec::new(),
            ranks: Vec::new(),
            shift: 1,
            dir: Vec::new(),
            n_live: 0,
            retired: SchemeStats::default(),
        };
        for _ in 0..cfg.initial_shards {
            let scheme = (me.factory)()?;
            let slot = me.alloc_slot(Shard {
                scheme,
                to_global: HashMap::new(),
            })?;
            me.order.push(slot);
        }
        me.rebuild_ranks();
        me.refresh_shift();
        Ok(me)
    }

    /// The thresholds this store runs with.
    pub fn config(&self) -> ShardedConfig {
        self.cfg
    }

    /// Current number of segments.
    pub fn shard_count(&self) -> usize {
        self.order.len()
    }

    /// Live population of every segment, in global order.
    pub fn shard_live_counts(&self) -> Vec<usize> {
        self.order
            .iter()
            .map(|&s| self.shard(s).scheme.live_len())
            .collect()
    }

    /// The segment rank (position in global order) currently holding a
    /// handle, or `None` for untracked or detached handles.
    /// Test/diagnostic hook.
    pub fn shard_of(&self, h: LeafHandle) -> Option<usize> {
        let (slot, _) = self.entry(h)?.loc()?;
        Some(self.rank_of(slot))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn shard(&self, slot: usize) -> &Shard<S> {
        self.slots[slot].as_ref().expect("live slot")
    }

    fn shard_mut(&mut self, slot: usize) -> &mut Shard<S> {
        self.slots[slot].as_mut().expect("live slot")
    }

    fn rank_of(&self, slot: usize) -> usize {
        debug_assert!(self.slots[slot].is_some(), "rank of a retired slot");
        debug_assert_eq!(self.order.get(self.ranks[slot]), Some(&slot));
        self.ranks[slot]
    }

    /// Rebuild the slot → rank cache. Must follow every `order` edit.
    fn rebuild_ranks(&mut self) {
        self.ranks.clear();
        self.ranks.resize(self.slots.len(), usize::MAX);
        for (i, &s) in self.order.iter().enumerate() {
            self.ranks[s] = i;
        }
    }

    /// Recompute the cached label shift. Must run after every mutation
    /// — on error paths too, since a failed rebalance may already have
    /// widened an inner label space.
    fn refresh_shift(&mut self) {
        self.shift = self
            .order
            .iter()
            .map(|&s| self.shard(s).scheme.label_space_bits())
            .max()
            .unwrap_or(0)
            .max(1);
    }

    /// Store a new segment. Slots are never reused, and a directory
    /// entry holds its slot as a `u32` below [`DETACHED`], so a slot
    /// index that would not fit is refused.
    fn alloc_slot(&mut self, shard: Shard<S>) -> Result<usize> {
        let slot = self.slots.len();
        if slot >= DETACHED as usize {
            return Err(LTreeError::CapacityExceeded {
                requested: slot as u64 + 1,
            });
        }
        self.slots.push(Some(shard));
        Ok(slot)
    }

    /// The directory entry of a handle; `None` for a foreign or
    /// out-of-range one.
    fn entry(&self, h: LeafHandle) -> Option<&DirEntry> {
        self.dir.get(usize::try_from(h.0).ok()?)
    }

    /// Where a handle lives, as `(slot, inner, alive)`. Untracked
    /// handles error with [`LTreeError::UnknownHandle`], detached
    /// tombstones with [`LTreeError::DeletedLeaf`].
    fn locate(&self, h: LeafHandle) -> Result<(usize, LeafHandle, bool)> {
        let e = self.entry(h).ok_or(LTreeError::UnknownHandle)?;
        let (slot, inner) = e.loc().ok_or(LTreeError::DeletedLeaf)?;
        Ok((slot, inner, e.alive))
    }

    /// Register a freshly inserted inner handle; returns the global one.
    fn track(&mut self, slot: usize, inner: LeafHandle) -> LeafHandle {
        let g = self.dir.len() as u64;
        self.dir.push(DirEntry {
            inner,
            slot: slot as u32,
            alive: true,
        });
        self.shard_mut(slot).to_global.insert(inner.0, g);
        self.n_live += 1;
        LeafHandle(g)
    }

    /// Mark a just-deleted item: a located tombstone while the inner
    /// scheme still tracks the handle, detached once it does not
    /// (physical removal).
    fn untrack(&mut self, g: u64, slot: usize, inner: LeafHandle) {
        let gone = self.shard(slot).scheme.label_of(inner).is_err();
        if gone {
            self.shard_mut(slot).to_global.remove(&inner.0);
        }
        let e = &mut self.dir[g as usize];
        e.alive = false;
        if gone {
            e.slot = DETACHED;
        }
        self.n_live -= 1;
    }

    /// Shift separating segment rank from inner label: wide enough for
    /// any label any segment currently hands out (cached; see
    /// [`refresh_shift`](Self::refresh_shift)).
    fn global_shift(&self) -> u32 {
        self.shift
    }

    /// First tracked handle of a segment in inner order (skipping
    /// migration ghosts), as `(global, inner)`.
    fn first_tracked(&self, slot: usize) -> Option<(u64, LeafHandle)> {
        let sh = self.shard(slot);
        let mut cur = sh.scheme.first_in_order();
        while let Some(ih) = cur {
            if let Some(&g) = sh.to_global.get(&ih.0) {
                return Some((g, ih));
            }
            cur = sh.scheme.next_in_order(ih);
        }
        None
    }

    /// The first live handle strictly after `h` in global order.
    fn next_live_after(&self, h: LeafHandle) -> Option<LeafHandle> {
        let mut cur = self.next_in_order(h);
        while let Some(n) = cur {
            if self.dir[n.0 as usize].alive {
                return Some(n);
            }
            cur = self.next_in_order(n);
        }
        None
    }

    /// Tracked handles of a segment in inner order, live items only.
    fn live_of(&self, slot: usize) -> Vec<(u64, LeafHandle)> {
        let sh = self.shard(slot);
        let mut out = Vec::with_capacity(sh.scheme.live_len());
        let mut cur = sh.scheme.first_in_order();
        while let Some(ih) = cur {
            if let Some(&g) = sh.to_global.get(&ih.0) {
                if self.dir[g as usize].alive {
                    out.push((g, ih));
                }
            }
            cur = sh.scheme.next_in_order(ih);
        }
        out
    }

    /// Split segments on the worklist (and the halves they produce)
    /// until every population is back under `split_above`.
    fn rebalance_split(&mut self, slot: usize) -> Result<()> {
        let mut work = vec![slot];
        while let Some(s) = work.pop() {
            if self.slots[s].is_none() {
                continue;
            }
            if self.shard(s).scheme.live_len() <= self.cfg.split_above {
                continue;
            }
            let new_slot = self.split(s)?;
            work.push(s);
            work.push(new_slot);
        }
        Ok(())
    }

    /// Split one segment: the tail half of its live items moves to a
    /// fresh segment inserted right after it in global order. Handles
    /// stay stable — the directory is remapped; the inner tail items are
    /// batch-deleted (leaving ghosts) and batch-rebuilt in the fresh
    /// inner scheme.
    fn split(&mut self, s: usize) -> Result<usize> {
        let live = self.live_of(s);
        debug_assert!(live.len() >= 2, "split needs at least two live items");
        let tail = live[live.len() / 2..].to_vec();

        let mut fresh = (self.factory)()?;
        let new_inners = fresh.bulk_build(tail.len())?;
        let moved = self.shard_mut(s).scheme.delete_run(tail[0].1, tail.len())?;
        debug_assert_eq!(moved, tail.len(), "tail migration must move every item");

        let new_slot = self.alloc_slot(Shard {
            scheme: fresh,
            to_global: HashMap::new(),
        })?;
        let rank = self.rank_of(s);
        self.order.insert(rank + 1, new_slot);
        self.rebuild_ranks();

        for (&(g, old_inner), &new_inner) in tail.iter().zip(&new_inners) {
            self.shard_mut(s).to_global.remove(&old_inner.0);
            self.relocate(g, new_slot, new_inner);
        }
        Ok(new_slot)
    }

    /// Merge underpopulated segments into a neighbour until the
    /// population recovers or one segment remains.
    fn maybe_merge(&mut self, mut slot: usize) -> Result<()> {
        if self.cfg.merge_below == 0 {
            return Ok(());
        }
        loop {
            if self.order.len() <= 1 || self.slots[slot].is_none() {
                return Ok(());
            }
            if self.shard(slot).scheme.live_len() >= self.cfg.merge_below {
                return Ok(());
            }
            let rank = self.rank_of(slot);
            // Merge into the predecessor; the first segment instead
            // absorbs its successor (items can only be appended cheaply,
            // so the source is always the later segment of the pair).
            let (src, dst) = if rank > 0 {
                (slot, self.order[rank - 1])
            } else {
                (self.order[1], slot)
            };
            self.merge_into(src, dst)?;
            slot = dst;
            // Absorbing a full neighbour can overshoot the split bound.
            self.rebalance_split(slot)?;
            if self.slots[slot].is_none() {
                return Ok(());
            }
        }
    }

    /// Move every live item of `src` to the end of `dst` (its immediate
    /// predecessor in global order) and retire `src`. Directory entries
    /// of migrated items are remapped; entries still pointing at `src`
    /// (its dead items) are dropped with it.
    fn merge_into(&mut self, src: usize, dst: usize) -> Result<()> {
        debug_assert_eq!(self.rank_of(src), self.rank_of(dst) + 1);
        let movers = self.live_of(src);

        let new_inners: Vec<LeafHandle> = if movers.is_empty() {
            Vec::new()
        } else {
            match self.live_of(dst).last() {
                // One native batch after dst's last live item.
                Some(&(_, anchor)) => self
                    .shard_mut(dst)
                    .scheme
                    .insert_many_after(anchor, movers.len())?,
                // dst holds only tombstones (or nothing): chain from the
                // front — everything in dst is dead, so relative order
                // against it is immaterial.
                None => {
                    let mut v = Vec::with_capacity(movers.len());
                    let mut cur = self.shard_mut(dst).scheme.insert_first()?;
                    v.push(cur);
                    for _ in 1..movers.len() {
                        cur = self.shard_mut(dst).scheme.insert_after(cur)?;
                        v.push(cur);
                    }
                    v
                }
            }
        };

        for (&(g, _), &new_inner) in movers.iter().zip(&new_inners) {
            self.relocate(g, dst, new_inner);
        }

        let rank = self.rank_of(src);
        self.order.remove(rank);
        self.rebuild_ranks();
        let retired = self.slots[src].take().expect("src is live");
        let stats = retired.scheme.scheme_stats();
        self.retired = merged_stats(&self.retired, &stats);
        // Tombstones that still lived in src lose their position but not
        // their identity: they detach, keeping `len` stable.
        for (_, g) in retired.to_global {
            let e = &mut self.dir[g as usize];
            if e.slot as usize == src {
                debug_assert!(!e.alive, "live items were migrated");
                e.slot = DETACHED;
            }
        }
        Ok(())
    }

    /// Point a migrated item's directory entry and the destination
    /// segment's reverse map at its new inner handle.
    fn relocate(&mut self, g: u64, slot: usize, inner: LeafHandle) {
        let e = &mut self.dir[g as usize];
        e.slot = slot as u32;
        e.inner = inner;
        self.shard_mut(slot).to_global.insert(inner.0, g);
    }
}

fn merged_stats(a: &SchemeStats, b: &SchemeStats) -> SchemeStats {
    SchemeStats {
        inserts: a.inserts + b.inserts,
        deletes: a.deletes + b.deletes,
        label_writes: a.label_writes + b.label_writes,
        node_touches: a.node_touches + b.node_touches,
        relabel_events: a.relabel_events + b.relabel_events,
    }
}

// ----------------------------------------------------------------------
// The trait family
// ----------------------------------------------------------------------

impl<S: LabelingScheme> OrderedLabeling for ShardedScheme<S> {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        let (slot, inner, _) = self.locate(h)?;
        let inner_label = self.shard(slot).scheme.label_of(inner)?;
        let rank = self.rank_of(slot) as u128;
        if rank == 0 {
            return Ok(inner_label);
        }
        let shift = self.global_shift();
        let rank_bits = 128 - rank.leading_zeros();
        if shift + rank_bits > 128 {
            // Astronomically wide inner label spaces cannot be prefixed
            // with a segment rank; report like any label-space overflow.
            return Err(LTreeError::LabelOverflow { height: u8::MAX });
        }
        Ok((rank << shift) | inner_label)
    }

    fn len(&self) -> usize {
        self.dir.len()
    }

    fn live_len(&self) -> usize {
        self.n_live
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        self.order
            .iter()
            .find_map(|&slot| self.first_tracked(slot))
            .map(|(g, _)| LeafHandle(g))
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        let (slot, inner) = self.entry(h)?.loc()?;
        let sh = self.shard(slot);
        let mut cur = sh.scheme.next_in_order(inner);
        while let Some(ih) = cur {
            if let Some(&g) = sh.to_global.get(&ih.0) {
                return Some(LeafHandle(g));
            }
            cur = sh.scheme.next_in_order(ih);
        }
        let rank = self.rank_of(slot);
        self.order[rank + 1..]
            .iter()
            .find_map(|&slot| self.first_tracked(slot))
            .map(|(g, _)| LeafHandle(g))
    }

    fn label_space_bits(&self) -> u32 {
        let max_rank = (self.order.len().saturating_sub(1)) as u128;
        let rank_bits = 128 - max_rank.leading_zeros();
        self.global_shift() + rank_bits
    }

    /// The directory by capacity, plus each live segment's reverse map
    /// at 24 B per entry (key, value and a word of table overhead) and
    /// its inner scheme. The reverse maps are counted by length: under
    /// removals a `HashMap`'s capacity depends on its random hash seed,
    /// and the count must repeat exactly between identical runs.
    fn memory_bytes(&self) -> usize {
        let dir = self.dir.capacity() * std::mem::size_of::<DirEntry>();
        let segments: usize = self
            .order
            .iter()
            .map(|&s| {
                let sh = self.shard(s);
                sh.to_global.len() * 24 + sh.scheme.memory_bytes()
            })
            .sum();
        std::mem::size_of::<Self>() + dir + segments
    }
}

impl<S: LabelingScheme> OrderedLabelingMut for ShardedScheme<S> {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        let out = self.bulk_build_impl(n);
        self.refresh_shift();
        out
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        let out = self.insert_first_impl();
        self.refresh_shift();
        out
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let out = self.insert_after_impl(anchor);
        self.refresh_shift();
        out
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let out = self.insert_before_impl(anchor);
        self.refresh_shift();
        out
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        let out = self.delete_impl(h);
        self.refresh_shift();
        out
    }
}

impl<S: LabelingScheme> BatchLabeling for ShardedScheme<S> {
    /// A sibling run shares one anchor, so the whole batch lands in the
    /// anchor's segment as **one native inner batch**; the segment then
    /// splits as needed. Runs are never cut across segments on insert —
    /// splitting afterwards preserves contiguity, pre-splitting the run
    /// would not.
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        let out = self.insert_many_after_impl(anchor, k);
        self.refresh_shift();
        out
    }

    /// A delete run may straddle segment boundaries: it is split into
    /// one inner `delete_run` per touched segment, walking segments in
    /// global order and stopping at the list end.
    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        let out = self.delete_run_impl(first, count);
        self.refresh_shift();
        out
    }
}

/// Mutation bodies. The trait methods above wrap these and refresh the
/// cached label shift afterwards — on success *and* error, since a
/// partially applied operation may already have widened an inner label
/// space.
impl<S: LabelingScheme> ShardedScheme<S> {
    fn bulk_build_impl(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        if !self.dir.is_empty() || self.order.iter().any(|&s| self.shard(s).scheme.len() > 0) {
            return Err(LTreeError::NotEmpty);
        }
        let shards = self.order.clone();
        let k = shards.len();
        let mut out = Vec::with_capacity(n);
        let mut remaining = n;
        for (i, &slot) in shards.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            // Even distribution: ceil over the shards still to fill.
            let take = remaining.div_ceil(k - i);
            let inners = self.shard_mut(slot).scheme.bulk_build(take)?;
            for ih in inners {
                out.push(self.track(slot, ih));
            }
            remaining -= take;
        }
        for &slot in &shards {
            self.rebalance_split(slot)?;
        }
        Ok(out)
    }

    fn insert_first_impl(&mut self) -> Result<LeafHandle> {
        let slot = self.order[0];
        let ih = self.shard_mut(slot).scheme.insert_first()?;
        let g = self.track(slot, ih);
        self.rebalance_split(slot)?;
        Ok(g)
    }

    fn insert_after_impl(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let (slot, inner, _) = self.locate(anchor)?;
        let ih = self.shard_mut(slot).scheme.insert_after(inner)?;
        let g = self.track(slot, ih);
        self.rebalance_split(slot)?;
        Ok(g)
    }

    fn insert_before_impl(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let (slot, inner, _) = self.locate(anchor)?;
        let ih = self.shard_mut(slot).scheme.insert_before(inner)?;
        let g = self.track(slot, ih);
        self.rebalance_split(slot)?;
        Ok(g)
    }

    fn delete_impl(&mut self, h: LeafHandle) -> Result<()> {
        let (slot, inner, alive) = self.locate(h)?;
        if !alive {
            return Err(LTreeError::DeletedLeaf);
        }
        self.shard_mut(slot).scheme.delete(inner)?;
        self.untrack(h.0, slot, inner);
        self.maybe_merge(slot)?;
        Ok(())
    }

    fn insert_many_after_impl(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        if k == 0 {
            return Err(LTreeError::EmptyBatch);
        }
        let (slot, inner, _) = self.locate(anchor)?;
        let inners = self.shard_mut(slot).scheme.insert_many_after(inner, k)?;
        let out = inners.into_iter().map(|ih| self.track(slot, ih)).collect();
        self.rebalance_split(slot)?;
        Ok(out)
    }

    fn delete_run_impl(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        self.locate(first)?;
        let mut deleted = 0usize;
        // The continuation handle is always *live* (or None at the list
        // end): merges triggered below migrate live items but keep their
        // handles, so the position is never lost mid-run. `first` itself
        // may be a tombstone; skip to the first live handle.
        let mut cur = Some(first).filter(|&h| self.dir[h.0 as usize].alive);
        if cur.is_none() {
            cur = self.next_live_after(first);
        }
        while deleted < count {
            let Some(g) = cur else { break };
            let (slot, _, _) = self.locate(g)?;
            // The run's intersection with this segment: consecutive live
            // handles from `g` on, in global order.
            let mut run: Vec<(u64, LeafHandle)> = Vec::new();
            let mut scan = Some(g);
            let mut last = g;
            while let Some(h) = scan {
                let Ok((hs, hi, alive)) = self.locate(h) else {
                    break;
                };
                if hs != slot {
                    break;
                }
                if alive {
                    run.push((h.0, hi));
                }
                last = h;
                if run.len() + deleted >= count {
                    break;
                }
                scan = self.next_in_order(h);
            }
            debug_assert!(!run.is_empty(), "the continuation handle is live");
            // Pick the continuation before mutating anything.
            cur = self.next_live_after(last);
            let n = self
                .shard_mut(slot)
                .scheme
                .delete_run(run[0].1, run.len())?;
            debug_assert_eq!(n, run.len(), "segment run must delete exactly");
            for &(gid, ih) in &run[..n] {
                self.untrack(gid, slot, ih);
            }
            deleted += n;
            self.maybe_merge(slot)?;
        }
        Ok(deleted)
    }
}

impl<S: LabelingScheme> Instrumented for ShardedScheme<S> {
    fn scheme_stats(&self) -> SchemeStats {
        self.order.iter().fold(self.retired, |acc, &s| {
            merged_stats(&acc, &self.shard(s).scheme.scheme_stats())
        })
    }

    fn reset_scheme_stats(&mut self) {
        self.retired = SchemeStats::default();
        for slot in self.order.clone() {
            self.shard_mut(slot).scheme.reset_scheme_stats();
        }
    }

    /// Segment metrics merged into one view: same-named counters sum,
    /// same-named histograms merge bucket-wise — so
    /// `sharded(4,traced(…))` reports one `obs/op/*` family spanning
    /// all segments, not four disjoint ones. Each live segment adds its
    /// own cost as `seg/<i>/…` counters, `<i>` its global rank; counters
    /// folded from retired (merged-away) segments appear only in the
    /// aggregate. A segment's own `seg/` series (a nested `sharded`)
    /// are dropped, so only the outermost level is reported.
    fn metrics(&self) -> Vec<Metric> {
        merge_metrics(self.order.iter().enumerate().map(|(i, &s)| {
            let scheme = &self.shard(s).scheme;
            let st = scheme.scheme_stats();
            let mut out = scheme.metrics();
            out.retain(|m| !m.name.starts_with("seg/"));
            out.extend([
                Metric::counter(format!("seg/{i}/inserts"), st.inserts),
                Metric::counter(format!("seg/{i}/deletes"), st.deletes),
                Metric::counter(format!("seg/{i}/label-writes"), st.label_writes),
                Metric::counter(format!("seg/{i}/node-touches"), st.node_touches),
                Metric::counter(format!("seg/{i}/relabel-events"), st.relabel_events),
            ]);
            out
        }))
    }
}

// ----------------------------------------------------------------------
// Registry wiring
// ----------------------------------------------------------------------

/// Register the `sharded` composite spec:
///
/// * `sharded(inner)` — default config over `inner`;
/// * `sharded(n,inner)` — `n` initial segments;
/// * `sharded(n,split,merge,inner)` — full threshold control.
///
/// `inner` is any spec the same registry resolves, recursively —
/// `sharded(4,ltree(4,2))`, `sharded(2,gap)`, even
/// `sharded(2,sharded(2,ltree))`. See the grammar in
/// [`ltree_core::registry`].
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_composite(
        "sharded",
        "segment-partitioned composite; args: (inner), (n,inner) or (n,split,merge,inner)",
        |reg, cfg, args| {
            let bad = |reason: &'static str| LTreeError::InvalidSpec {
                spec: "sharded".into(),
                reason,
            };
            let Some(SpecArg::Spec(inner)) = args.last() else {
                return Err(bad("the last argument must be an inner scheme spec"));
            };
            let mut nums = Vec::new();
            for a in &args[..args.len() - 1] {
                nums.push(
                    a.as_num()
                        .ok_or_else(|| bad("only the last argument may be a spec"))?,
                );
            }
            let mut scfg = ShardedConfig::default();
            match nums[..] {
                [] => {}
                [n] => scfg.initial_shards = as_u32("sharded", n)? as usize,
                [n, split, merge] => {
                    scfg.initial_shards = as_u32("sharded", n)? as usize;
                    scfg.split_above = as_u32("sharded", split)? as usize;
                    scfg.merge_below = as_u32("sharded", merge)? as usize;
                }
                _ => return Err(bad("expected (inner), (n,inner) or (n,split,merge,inner)")),
            }
            let reg = reg.clone();
            let cfg = *cfg;
            let inner = inner.clone();
            let scheme: ShardedScheme<Box<dyn DynScheme>> =
                ShardedScheme::with_config(scfg, move || reg.build_with(&inner, &cfg))?;
            Ok(Box::new(scheme))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::metrics::MetricValue;
    use ltree_core::{Cursor, LTree, Params, Splice};

    fn ltree_factory() -> impl Fn() -> Result<LTree> + Send + Sync + 'static {
        || Ok(LTree::new(Params::new(4, 2).unwrap()))
    }

    fn small(split: usize, merge: usize, shards: usize) -> ShardedScheme<LTree> {
        ShardedScheme::with_config(
            ShardedConfig {
                initial_shards: shards,
                split_above: split,
                merge_below: merge,
            },
            ltree_factory(),
        )
        .unwrap()
    }

    /// Segments a metrics snapshot reports: its `seg/<i>/inserts` series.
    fn segments(s: &dyn DynScheme) -> usize {
        s.metrics()
            .iter()
            .filter(|m| m.name.starts_with("seg/") && m.name.ends_with("/inserts"))
            .count()
    }

    /// Each cost field summed over a snapshot's `seg/<i>/…` counters.
    fn segment_sum(s: &dyn DynScheme) -> SchemeStats {
        let mut sum = SchemeStats::default();
        for m in s.metrics() {
            let (Some(rest), MetricValue::Counter(v)) = (m.name.strip_prefix("seg/"), m.value)
            else {
                continue;
            };
            let field = match rest.split_once('/').map(|(_, f)| f) {
                Some("inserts") => &mut sum.inserts,
                Some("deletes") => &mut sum.deletes,
                Some("label-writes") => &mut sum.label_writes,
                Some("node-touches") => &mut sum.node_touches,
                Some("relabel-events") => &mut sum.relabel_events,
                other => panic!("unknown segment series {other:?}"),
            };
            *field += v;
        }
        sum
    }

    fn assert_global_order(s: &ShardedScheme<LTree>, expect_live: &[LeafHandle]) {
        let mut prev: Option<u128> = None;
        let mut live = Vec::new();
        for h in Cursor::new(s) {
            let l = s.label_of(h).unwrap();
            if let Some(p) = prev {
                assert!(p < l, "cursor out of label order ({p} >= {l})");
            }
            prev = Some(l);
            if s.dir[h.0 as usize].alive {
                live.push(h);
            }
        }
        assert_eq!(live, expect_live, "live cursor order");
    }

    #[test]
    fn bulk_build_distributes_and_orders_across_shards() {
        let mut s = small(64, 0, 4);
        let hs = s.bulk_build(40).unwrap();
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_live_counts(), vec![10, 10, 10, 10]);
        assert_eq!(s.live_len(), 40);
        // Handles come back in global order spanning all four segments.
        for w in hs.windows(2) {
            assert!(s.label_of(w[0]).unwrap() < s.label_of(w[1]).unwrap());
        }
        assert_eq!(s.shard_of(hs[0]), Some(0));
        assert_eq!(s.shard_of(hs[39]), Some(3));
        assert_global_order(&s, &hs);
        assert!(s.bulk_build(4).is_err(), "non-empty build must fail");
    }

    #[test]
    fn point_ops_route_to_the_anchors_segment() {
        let mut s = small(64, 0, 2);
        let hs = s.bulk_build(8).unwrap(); // 4 + 4
        let a = s.insert_after(hs[1]).unwrap();
        assert_eq!(s.shard_of(a), Some(0));
        let b = s.insert_before(hs[6]).unwrap();
        assert_eq!(s.shard_of(b), Some(1));
        assert!(s.label_of(hs[1]).unwrap() < s.label_of(a).unwrap());
        assert!(s.label_of(a).unwrap() < s.label_of(hs[2]).unwrap());
        assert!(s.label_of(hs[5]).unwrap() < s.label_of(b).unwrap());
        assert!(s.label_of(b).unwrap() < s.label_of(hs[6]).unwrap());
        // Cross-boundary comparison still follows list order.
        assert!(s.label_of(hs[3]).unwrap() < s.label_of(hs[4]).unwrap());
        s.delete(a).unwrap();
        assert!(matches!(s.delete(a), Err(LTreeError::DeletedLeaf)));
        assert_eq!(s.live_len(), 9, "8 built + 2 inserted - 1 deleted");
    }

    #[test]
    fn hot_segment_splits_and_handles_stay_stable() {
        let mut s = small(8, 0, 2);
        let hs = s.bulk_build(8).unwrap();
        let labels_before: Vec<u128> = hs.iter().map(|&h| s.label_of(h).unwrap()).collect();
        assert!(labels_before.windows(2).all(|w| w[0] < w[1]));
        // Hammer one segment far over the threshold in one batch.
        let batch = s.insert_many_after(hs[0], 20).unwrap();
        assert!(s.shard_count() > 2, "hot segment must have split");
        assert!(
            s.shard_live_counts().iter().all(|&n| n <= 8),
            "every segment back under the threshold: {:?}",
            s.shard_live_counts()
        );
        // Every original and new handle still resolves, in order.
        let mut all = vec![hs[0]];
        all.extend(&batch);
        all.extend(&hs[1..]);
        assert_eq!(s.live_len(), 28);
        assert_global_order(&s, &all);
    }

    #[test]
    fn drained_segment_merges_away() {
        let mut s = small(32, 4, 4);
        let hs = s.bulk_build(32).unwrap(); // 8 per segment
        assert_eq!(s.shard_count(), 4);
        // Drain the third segment (items 16..24) one by one.
        for &h in &hs[16..24] {
            s.delete(h).unwrap();
        }
        assert!(s.shard_count() < 4, "drained segment must merge");
        let live: Vec<LeafHandle> = hs[..16].iter().chain(&hs[24..]).copied().collect();
        assert_eq!(s.live_len(), 24);
        assert_global_order(&s, &live);
    }

    #[test]
    fn delete_run_splits_at_segment_boundaries() {
        let mut s = small(64, 0, 4);
        let hs = s.bulk_build(40).unwrap(); // 10 per segment
                                            // A run straddling three segments: items 5..35.
        let deleted = s
            .splice(Splice::DeleteRun {
                first: hs[5],
                count: 30,
            })
            .unwrap()
            .deleted();
        assert_eq!(deleted, 30);
        assert_eq!(s.live_len(), 10);
        let live: Vec<LeafHandle> = hs[..5].iter().chain(&hs[35..]).copied().collect();
        assert_global_order(&s, &live);
        // Over the end: deletes what is left and reports it.
        let rest = s
            .splice(Splice::DeleteRun {
                first: hs[0],
                count: 1000,
            })
            .unwrap()
            .deleted();
        assert_eq!(rest, 10);
        assert_eq!(s.live_len(), 0);
    }

    #[test]
    fn stats_aggregate_and_stay_monotone_across_merges() {
        let mut s = small(16, 4, 4);
        let hs = s.bulk_build(32).unwrap();
        let ins = s.insert_after(hs[0]).unwrap();
        s.delete(ins).unwrap();
        let mut prev = s.scheme_stats();
        assert_eq!((prev.inserts, prev.deletes), (1, 1));
        assert_eq!(segments(&s), 4);
        assert_eq!(segment_sum(&s), prev, "no segment has retired yet");
        for &h in &hs[8..24] {
            s.delete(h).unwrap();
            let now = s.scheme_stats();
            assert!(now.dominates(&prev), "{prev:?} -> {now:?}");
            prev = now;
        }
        assert!(s.shard_count() < 4, "merges must have retired segments");
        assert_eq!(segments(&s), s.shard_count());
        assert!(
            prev.dominates(&segment_sum(&s)),
            "retired segments fold into the aggregate"
        );
        s.reset_scheme_stats();
        assert_eq!(s.scheme_stats(), SchemeStats::default());
        assert_eq!(segment_sum(&s), SchemeStats::default());
    }

    #[test]
    fn insert_first_lands_globally_first() {
        let mut s = small(64, 0, 3);
        let hs = s.bulk_build(9).unwrap();
        let front = s.insert_first().unwrap();
        assert!(s.label_of(front).unwrap() < s.label_of(hs[0]).unwrap());
        assert_eq!(s.first_in_order(), Some(front));
    }

    #[test]
    fn empty_and_unknown_inputs_are_typed_errors() {
        let mut s = small(64, 0, 2);
        let hs = s.bulk_build(4).unwrap();
        assert!(matches!(
            s.insert_many_after(hs[0], 0),
            Err(LTreeError::EmptyBatch)
        ));
        assert!(matches!(
            s.insert_after(LeafHandle(u64::MAX)),
            Err(LTreeError::UnknownHandle)
        ));
        assert!(matches!(
            s.label_of(LeafHandle(u64::MAX)),
            Err(LTreeError::UnknownHandle)
        ));
        // One past the last minted handle is foreign too.
        let past = LeafHandle(hs.len() as u64);
        assert!(matches!(s.delete(past), Err(LTreeError::UnknownHandle)));
        assert_eq!(s.next_in_order(past), None);
        let cfg = ShardedConfig {
            initial_shards: 0,
            ..Default::default()
        };
        assert!(ShardedScheme::<LTree>::with_config(cfg, ltree_factory()).is_err());
        let cfg = ShardedConfig {
            split_above: 8,
            merge_below: 4,
            ..Default::default()
        };
        assert!(ShardedScheme::<LTree>::with_config(cfg, ltree_factory()).is_err());
    }

    #[test]
    fn registry_spec_builds_and_nests() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        let mut s = reg.build("sharded(3,ltree(4,2))").unwrap();
        assert_eq!(s.name(), "sharded");
        let hs = s.bulk_build(30).unwrap();
        assert_eq!(s.live_len(), 30);
        assert!(s.label_of(hs[9]).unwrap() < s.label_of(hs[10]).unwrap());
        assert_eq!(segments(&*s), 3);
        // Threshold form and nesting both resolve.
        reg.build("sharded(2,16,2,ltree(4,2))").unwrap();
        reg.build("sharded(2,sharded(2,ltree))").unwrap();
        // Bad shapes are typed errors.
        assert!(reg.build("sharded").is_err());
        assert!(reg.build("sharded(4)").is_err(), "no inner spec");
        assert!(reg.build("sharded(2,nope)").is_err(), "inner must resolve");
        assert!(reg.build("sharded(ltree,2)").is_err(), "spec must be last");
    }

    /// A nested `sharded` reports one level: the outer segments'
    /// `seg/` series, none of the inner ones'.
    #[test]
    fn nested_sharding_reports_only_the_outer_segments() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        let mut s = reg.build("sharded(2,sharded(2,ltree(4,2)))").unwrap();
        let hs = s.bulk_build(40).unwrap();
        s.insert_after(hs[3]).unwrap();
        s.insert_after(hs[30]).unwrap();
        s.delete(hs[12]).unwrap();
        let names: Vec<String> = s
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .filter(|n| n.starts_with("seg/"))
            .collect();
        let fields = [
            "deletes",
            "inserts",
            "label-writes",
            "node-touches",
            "relabel-events",
        ];
        let expect: Vec<String> = (0..2)
            .flat_map(|i| fields.map(|f| format!("seg/{i}/{f}")))
            .collect();
        assert_eq!(names, expect);
        assert_eq!(segment_sum(&*s), s.scheme_stats());
    }

    /// `memory_bytes` charges the directory by capacity at 16 B an
    /// entry and each live segment's reverse map by length at 24 B an
    /// entry, on top of the segments' own bytes — and repeats exactly
    /// between identical runs, removals and merges included.
    #[test]
    fn memory_counts_the_directory_by_capacity_and_reverse_maps_by_length() {
        assert_eq!(std::mem::size_of::<DirEntry>(), 16);
        let run = || {
            let mut s = small(16, 4, 4);
            let hs = s.bulk_build(48).unwrap();
            s.insert_many_after(hs[2], 20).unwrap();
            for &h in &hs[20..36] {
                s.delete(h).unwrap();
            }
            s
        };
        let s = run();
        assert!(s.dir.capacity() > s.dir.len(), "capacity, not length");
        let reverse: usize = s
            .order
            .iter()
            .map(|&slot| s.shard(slot).to_global.len())
            .sum();
        assert!(
            reverse < s.dir.len(),
            "detached and migrated entries left the maps"
        );
        let inner: usize = s
            .order
            .iter()
            .map(|&slot| s.shard(slot).scheme.memory_bytes())
            .sum();
        assert_eq!(
            s.memory_bytes(),
            std::mem::size_of::<ShardedScheme<LTree>>()
                + s.dir.capacity() * 16
                + reverse * 24
                + inner
        );
        assert_eq!(run().memory_bytes(), s.memory_bytes());
    }
}
