//! The composable ordered-labeling trait family.
//!
//! The paper compares the L-Tree against the labeling alternatives of its
//! introduction (sequential labels, gapped labels) and of related work
//! (classic list labeling [8, 9, 10]). The common contract — an *order
//! maintenance structure with integer labels* — used to be one monolithic
//! `LabelingScheme` trait; it is now split along the paper's own
//! read/write asymmetry into four composable traits:
//!
//! * [`OrderedLabeling`] — the **read side**: label lookup, order
//!   comparison, label-space width, and a zero-allocation streaming
//!   [`Cursor`] over the handles in list order (ancestry/order queries
//!   are the hot path; reads are always cheap);
//! * [`OrderedLabelingMut`] — the **write side**: bulk build plus the
//!   single-item insert/delete operations whose amortized relabeling
//!   cost is the quantity the paper measures;
//! * [`BatchLabeling`] — typed **batch splices** ([`Splice`]): insert
//!   `k` items after an anchor (paper, Section 4.1) or delete a
//!   contiguous run, with native fast-paths in the L-Tree variants and a
//!   loop fallback for the baselines;
//! * [`Instrumented`] — the [`SchemeStats`] cost counters, in the
//!   paper's unit of "nodes accessed for searching or relabeling".
//!
//! [`DynScheme`] bundles all four into one object-safe supertrait
//! (blanket-implemented), so heterogeneous collections use
//! `Box<dyn DynScheme>`; the [`LabelingScheme`] alias keeps the familiar
//! name for generic bounds. Schemes are usually constructed by name
//! through the [`crate::registry::SchemeRegistry`].
//!
//! The labeling contract itself is unchanged: labels are `u128`s; at any
//! point in time the label order of live items equals their list order;
//! labels may change arbitrarily during *any* mutation (that is the cost
//! being studied), but reads are always cheap.

use std::cmp::Ordering;

use crate::error::{LTreeError, Result};

/// An opaque, scheme-specific handle to one list item. Handles are stable
/// across relabelings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafHandle(pub u64);

/// Scheme-agnostic cost counters, in the paper's unit of "nodes accessed
/// for searching or relabeling".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Items inserted since the last reset.
    pub inserts: u64,
    /// Items deleted since the last reset.
    pub deletes: u64,
    /// Item labels written (initial assignment + relabelings).
    pub label_writes: u64,
    /// All maintenance node/entry accesses, including interior bookkeeping.
    /// Read-only calls (`label_of`, `compare`, cursor walks) count none.
    pub node_touches: u64,
    /// Number of relabeling events (each may write many labels).
    pub relabel_events: u64,
}

impl SchemeStats {
    /// Amortized label writes per inserted item.
    pub fn amortized_label_writes(&self) -> f64 {
        self.label_writes as f64 / (self.inserts.max(1)) as f64
    }

    /// Amortized total maintenance cost per inserted item.
    pub fn amortized_cost(&self) -> f64 {
        (self.label_writes + self.node_touches) as f64 / (self.inserts.max(1)) as f64
    }

    /// True when no counter of `self` is smaller than in `earlier` — the
    /// monotonicity half of the [`Instrumented`] contract.
    pub fn dominates(&self, earlier: &SchemeStats) -> bool {
        self.inserts >= earlier.inserts
            && self.deletes >= earlier.deletes
            && self.label_writes >= earlier.label_writes
            && self.node_touches >= earlier.node_touches
            && self.relabel_events >= earlier.relabel_events
    }
}

// ----------------------------------------------------------------------
// Read side
// ----------------------------------------------------------------------

/// The read side of an ordered labeling scheme: label lookup, order
/// comparison and streaming iteration. See the [module docs](self).
///
/// The one invariant every implementation upholds: at any point in
/// time, the label order of live items equals their list order.
///
/// ```
/// use ltree_core::{LTree, OrderedLabeling, OrderedLabelingMut, Params};
///
/// let mut tree = LTree::new(Params::new(4, 2).unwrap());
/// let handles = tree.bulk_build(8).unwrap();
/// // Reads: labels strictly increase along list order …
/// assert!(tree.label_of(handles[2]).unwrap() < tree.label_of(handles[3]).unwrap());
/// // … and the zero-allocation cursor streams the whole list in order.
/// let walked: Vec<_> = tree.cursor().collect();
/// assert_eq!(walked, handles);
/// ```
pub trait OrderedLabeling {
    /// Short scheme name for tables ("ltree", "naive", …).
    fn name(&self) -> &'static str;

    /// Current label of an item.
    fn label_of(&self, h: LeafHandle) -> Result<u128>;

    /// Total items tracked (tombstones included, where applicable).
    fn len(&self) -> usize;

    /// Items not deleted.
    fn live_len(&self) -> usize;

    /// True when no items are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First handle in list order (tombstones included where the scheme
    /// keeps them), or `None` when empty.
    fn first_in_order(&self) -> Option<LeafHandle>;

    /// Successor of `h` in list order, or `None` at the end (or for a
    /// handle the scheme no longer tracks).
    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle>;

    /// Bits needed to encode any label the scheme may currently hand out.
    fn label_space_bits(&self) -> u32;

    /// Approximate heap usage in bytes.
    fn memory_bytes(&self) -> usize;

    /// Compare two items in list order — two label reads, `O(1)`.
    fn compare(&self, a: LeafHandle, b: LeafHandle) -> Result<Ordering> {
        Ok(self.label_of(a)?.cmp(&self.label_of(b)?))
    }

    /// A zero-allocation streaming cursor over all handles in list order
    /// (tombstones included where the scheme keeps them). Replaces the
    /// old `handles_in_order() -> Vec` API: `O(1)` space, and callers
    /// that stop early pay only for what they consume.
    fn cursor(&self) -> Cursor<'_, Self>
    where
        Self: Sized,
    {
        Cursor::new(self)
    }
}

/// Streaming iterator over a scheme's handles in list order. Holds only a
/// borrow of the scheme and the next handle — no allocation, regardless
/// of scheme size. Obtain one via [`OrderedLabeling::cursor`] (sized
/// schemes) or [`Cursor::new`] (also works on `&dyn` objects).
pub struct Cursor<'a, S: OrderedLabeling + ?Sized> {
    scheme: &'a S,
    next: Option<LeafHandle>,
}

impl<'a, S: OrderedLabeling + ?Sized> Cursor<'a, S> {
    /// A cursor positioned at the start of the list.
    pub fn new(scheme: &'a S) -> Self {
        Cursor {
            next: scheme.first_in_order(),
            scheme,
        }
    }

    /// A cursor that starts at `at` (inclusive). `at` must be a handle
    /// the scheme tracks; the cursor ends immediately otherwise.
    pub fn starting_at(scheme: &'a S, at: LeafHandle) -> Self {
        let next = scheme.label_of(at).is_ok().then_some(at);
        Cursor { next, scheme }
    }

    /// The handle the next `next()` call will yield, without advancing.
    pub fn peek(&self) -> Option<LeafHandle> {
        self.next
    }
}

impl<S: OrderedLabeling + ?Sized> Iterator for Cursor<'_, S> {
    type Item = LeafHandle;

    fn next(&mut self) -> Option<LeafHandle> {
        let out = self.next?;
        self.next = self.scheme.next_in_order(out);
        Some(out)
    }
}

// ----------------------------------------------------------------------
// Write side
// ----------------------------------------------------------------------

/// The write side of an ordered labeling scheme: the single-item updates
/// whose amortized relabeling cost the paper measures.
///
/// Handles stay stable across relabelings, so callers hold on to them
/// while labels shift underneath:
///
/// ```
/// use ltree_core::{DynScheme, LTree, OrderedLabeling, OrderedLabelingMut, Params};
///
/// let mut tree: Box<dyn DynScheme> = Box::new(LTree::new(Params::new(4, 2).unwrap()));
/// let handles = tree.bulk_build(4).unwrap();
/// let mid = tree.insert_after(handles[1]).unwrap();
/// assert!(tree.label_of(handles[1]).unwrap() < tree.label_of(mid).unwrap());
/// assert!(tree.label_of(mid).unwrap() < tree.label_of(handles[2]).unwrap());
/// tree.delete(mid).unwrap();
/// assert_eq!(tree.live_len(), 4);
/// ```
pub trait OrderedLabelingMut: OrderedLabeling {
    /// Load `n` items into an empty scheme; returns handles in list order.
    /// Fails with [`crate::LTreeError::NotEmpty`] if items already exist.
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>>;

    /// Insert a new first item (must work on an empty scheme).
    fn insert_first(&mut self) -> Result<LeafHandle>;

    /// Insert an item immediately after `anchor`.
    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle>;

    /// Insert an item immediately before `anchor`.
    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle>;

    /// Delete an item. Whether this tombstones or physically removes is
    /// scheme-specific; either way it must not disturb the order of the
    /// remaining items.
    fn delete(&mut self, h: LeafHandle) -> Result<()>;
}

// ----------------------------------------------------------------------
// Batch side
// ----------------------------------------------------------------------

/// A typed batch operation over a contiguous stretch of the list.
///
/// ```
/// use ltree_core::{BatchLabeling, LTree, OrderedLabelingMut, Params, Splice};
///
/// let mut tree = LTree::new(Params::new(4, 2).unwrap());
/// let handles = tree.bulk_build(4).unwrap();
/// let inserted = tree
///     .splice(Splice::InsertAfter { anchor: handles[0], count: 3 })
///     .unwrap()
///     .into_inserted();
/// assert_eq!(inserted.len(), 3);
/// let deleted = tree
///     .splice(Splice::DeleteRun { first: inserted[0], count: 2 })
///     .unwrap()
///     .deleted();
/// assert_eq!(deleted, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Splice {
    /// Insert `count` consecutive fresh items immediately after `anchor`
    /// (paper, Section 4.1 — subtree insertion).
    InsertAfter {
        /// The live item the batch lands after.
        anchor: LeafHandle,
        /// Number of items to insert (`>= 1`).
        count: usize,
    },
    /// Delete the run of up to `count` live items starting at `first`
    /// (inclusive), following list order and skipping tombstones.
    DeleteRun {
        /// First item of the run; must be tracked by the scheme.
        first: LeafHandle,
        /// Maximum number of live items to delete.
        count: usize,
    },
}

/// What a [`Splice`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpliceResult {
    /// Handles of the freshly inserted items, in list order.
    Inserted(Vec<LeafHandle>),
    /// Number of items actually deleted (the run may hit the list end).
    Deleted(usize),
}

impl SpliceResult {
    /// The inserted handles (empty for a delete splice).
    pub fn into_inserted(self) -> Vec<LeafHandle> {
        match self {
            SpliceResult::Inserted(v) => v,
            SpliceResult::Deleted(_) => Vec::new(),
        }
    }

    /// Number of deleted items (zero for an insert splice).
    pub fn deleted(&self) -> usize {
        match self {
            SpliceResult::Inserted(_) => 0,
            SpliceResult::Deleted(n) => *n,
        }
    }
}

/// Batch splices over an ordered labeling scheme. Every method has a
/// loop fallback in terms of [`OrderedLabelingMut`], so the baselines
/// get batches for free; the L-Tree variants override
/// [`insert_many_after`](BatchLabeling::insert_many_after) with the
/// native Section 4.1 fast-path (one search/update pass for the whole
/// batch instead of `k`).
///
/// ```
/// use ltree_core::{BatchLabeling, DynScheme, LTree, OrderedLabeling, OrderedLabelingMut, Params};
///
/// let mut tree: Box<dyn DynScheme> = Box::new(LTree::new(Params::new(4, 2).unwrap()));
/// let handles = tree.bulk_build(4).unwrap();
/// // One native batch call — not 5 single insertions.
/// let batch = tree.insert_many_after(handles[1], 5).unwrap();
/// assert_eq!(batch.len(), 5);
/// assert!(tree.label_of(batch[4]).unwrap() < tree.label_of(handles[2]).unwrap());
/// ```
pub trait BatchLabeling: OrderedLabelingMut {
    /// Insert `k ≥ 1` consecutive items immediately after `anchor`;
    /// returns the new handles in list order. The default falls back to
    /// `k` repeated single insertions, once it has reserved room for the
    /// `k` handles: a batch too large for that is
    /// [`LTreeError::CapacityExceeded`] before anything is inserted.
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        if k == 0 {
            return Err(LTreeError::EmptyBatch);
        }
        let mut out = Vec::new();
        out.try_reserve_exact(k)
            .map_err(|_| LTreeError::CapacityExceeded {
                requested: k as u64,
            })?;
        let mut cur = anchor;
        for _ in 0..k {
            cur = self.insert_after(cur)?;
            out.push(cur);
        }
        Ok(out)
    }

    /// Delete the run of up to `count` live items starting at `first`,
    /// following list order; tombstones inside the run are skipped, and
    /// the run stops early at the list end. Returns the number deleted.
    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        let mut deleted = 0usize;
        let mut cur = Some(first);
        while deleted < count {
            let Some(h) = cur else { break };
            // The successor must be read before `delete`: schemes with
            // physical removal invalidate the handle.
            cur = self.next_in_order(h);
            match self.delete(h) {
                Ok(()) => deleted += 1,
                Err(LTreeError::DeletedLeaf) => {} // tombstone inside the run
                Err(e) => return Err(e),
            }
        }
        Ok(deleted)
    }

    /// Apply one typed batch operation.
    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        match op {
            Splice::InsertAfter { anchor, count } => Ok(SpliceResult::Inserted(
                self.insert_many_after(anchor, count)?,
            )),
            Splice::DeleteRun { first, count } => {
                Ok(SpliceResult::Deleted(self.delete_run(first, count)?))
            }
        }
    }
}

// ----------------------------------------------------------------------
// Splice assembly
// ----------------------------------------------------------------------

/// Assembles *sibling runs* — contiguous stretches of fresh items that
/// share one anchor — into the minimum number of [`Splice::InsertAfter`]
/// batches, instead of one `insert_after` call per item.
///
/// Callers that shred a tree (the XML layer) or replay an edit script
/// (the workload drivers) queue runs with [`push_run`](Self::push_run),
/// growing the most recent one with [`extend_last`](Self::extend_last)
/// while consecutive items keep landing on the same run, then issue the
/// whole plan with one [`apply`](Self::apply) call. Runs are applied in
/// queue order; each run costs a single [`BatchLabeling::splice`].
///
/// Two runs with the same anchor are **not** merged: a later splice at
/// the same anchor lands *between* the anchor and the earlier run, so
/// merging would reorder items. Use `extend_last` when items genuinely
/// continue the previous run.
///
/// ```
/// use ltree_core::{LTree, OrderedLabelingMut, Params, SpliceBuilder};
///
/// let mut tree = LTree::new(Params::new(4, 2).unwrap());
/// let handles = tree.bulk_build(4).unwrap();
/// let mut plan = SpliceBuilder::new();
/// plan.push_run(handles[0], 2);
/// plan.extend_last(1);        // the run grows to 3 items
/// plan.push_run(handles[2], 2);
/// assert_eq!((plan.run_count(), plan.total_items()), (2, 5));
/// let runs = plan.apply(&mut tree).unwrap(); // 2 splices, not 5 inserts
/// assert_eq!(runs[0].len(), 3);
/// assert_eq!(runs[1].len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpliceBuilder {
    runs: Vec<(LeafHandle, usize)>,
    total: usize,
}

impl SpliceBuilder {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a run of `count ≥ 1` fresh items immediately after `anchor`.
    /// The anchor must be live when [`apply`](Self::apply) runs.
    pub fn push_run(&mut self, anchor: LeafHandle, count: usize) {
        debug_assert!(count >= 1, "a sibling run holds at least one item");
        self.runs.push((anchor, count));
        self.total += count;
    }

    /// Grow the most recently queued run by `count` items. Returns
    /// `false` (queuing nothing) when no run exists yet.
    pub fn extend_last(&mut self, count: usize) -> bool {
        match self.runs.last_mut() {
            Some((_, c)) => {
                *c += count;
                self.total += count;
                true
            }
            None => false,
        }
    }

    /// Number of queued runs (splices `apply` will issue).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total items across all queued runs.
    pub fn total_items(&self) -> usize {
        self.total
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Issue one [`Splice::InsertAfter`] per queued run, in queue order.
    /// Returns the fresh handles grouped per run (each inner `Vec` in
    /// list order). The builder is consumed; on error, earlier runs have
    /// already been applied.
    pub fn apply<S: BatchLabeling + ?Sized>(self, scheme: &mut S) -> Result<Vec<Vec<LeafHandle>>> {
        let mut out = Vec::with_capacity(self.runs.len());
        for (anchor, count) in self.runs {
            out.push(
                scheme
                    .splice(Splice::InsertAfter { anchor, count })?
                    .into_inserted(),
            );
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// Instrumentation
// ----------------------------------------------------------------------

/// Cost-counter access. Counters are cumulative and **monotone** between
/// resets: no operation may decrease any [`SchemeStats`] field (the
/// conformance suite asserts this).
///
/// ```
/// use ltree_core::{DynScheme, Instrumented, LTree, OrderedLabelingMut, Params};
///
/// let mut tree: Box<dyn DynScheme> = Box::new(LTree::new(Params::new(4, 2).unwrap()));
/// let handles = tree.bulk_build(16).unwrap();
/// tree.reset_scheme_stats();
/// tree.insert_after(handles[7]).unwrap();
/// let stats = tree.scheme_stats();
/// assert_eq!(stats.inserts, 1);
/// assert!(stats.label_writes >= 1, "at least the new item's label");
/// ```
pub trait Instrumented {
    /// Cost counters in the common currency.
    fn scheme_stats(&self) -> SchemeStats;

    /// Reset the cost counters.
    fn reset_scheme_stats(&mut self);

    /// Always empty: no scheme in the workspace overrides it. A
    /// partitioned scheme reports its cost per segment as `seg/<i>/…`
    /// counters in [`metrics`](Self::metrics) instead. The method
    /// remains only because the standalone benchmark
    /// (`crates/bench/src/bin/ltbench`) still forwards it in its `Span`
    /// wrapper and falls back to it in its `series()` lookup; it goes
    /// with those two.
    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        Vec::new()
    }

    /// Every count and timing beyond the aggregate cost, as passive
    /// [`Metric`](crate::metrics::Metric) snapshots sorted by name:
    /// latency histograms, gauges, and counters such as transport
    /// (`net/…`), write-ahead-log (`wal/…`), audit (`audit/…`) and
    /// per-segment cost (`seg/<i>/…`, the paper's cost of each live
    /// segment of a partitioned scheme) counts. Empty by default — only
    /// instrumented layers (`traced(…)`, `durable(…)`, `checked(…)`,
    /// `sharded(…)`, the remote client and server) produce entries;
    /// composing wrappers concatenate their own entries with the inner
    /// scheme's so the full stack is visible through one call on the
    /// outermost `Box<dyn DynScheme>`.
    fn metrics(&self) -> Vec<crate::metrics::Metric> {
        Vec::new()
    }
}

// ----------------------------------------------------------------------
// The full contract
// ----------------------------------------------------------------------

/// The full scheme contract: every composable trait at once. This is an
/// object-safe supertrait, blanket-implemented for any type providing
/// the four facets — `Box<dyn DynScheme>` is what the
/// [`crate::registry::SchemeRegistry`] hands out, and boxed schemes
/// implement the facets (and thus `DynScheme`) themselves, so generic
/// code accepts them transparently.
///
/// `Send + Sync` are part of the contract: schemes cross thread
/// boundaries — composite factories are shared between threads
/// (`ltree-sharded` builds segment inners lazily), and the networked
/// backend (`ltree-remote`) hosts a registry-built scheme behind a
/// `RwLock` serviced by one thread per connection. Every scheme in the
/// workspace is plain owned data (or internally synchronized), so the
/// bound costs implementors nothing.
///
/// ```
/// use ltree_core::{DynScheme, Instrumented, LTree, OrderedLabeling, OrderedLabelingMut, Params};
///
/// let mut scheme: Box<dyn DynScheme> = Box::new(LTree::new(Params::new(4, 2).unwrap()));
/// let handles = scheme.bulk_build(8).unwrap();
/// scheme.insert_after(handles[3]).unwrap();   // write facet
/// assert_eq!(scheme.cursor().count(), 9);     // read facet
/// assert_eq!(scheme.scheme_stats().inserts, 1); // instrumentation facet
/// ```
pub trait DynScheme:
    OrderedLabeling + OrderedLabelingMut + BatchLabeling + Instrumented + Send + Sync
{
}

impl<T> DynScheme for T where
    T: OrderedLabeling + OrderedLabelingMut + BatchLabeling + Instrumented + Send + Sync + ?Sized
{
}

/// The familiar name for generic bounds (`S: LabelingScheme`); the same
/// trait as [`DynScheme`].
pub use self::DynScheme as LabelingScheme;

// ----------------------------------------------------------------------
// Forwarding impls (mutable references and boxes)
// ----------------------------------------------------------------------

macro_rules! forward_ordered_labeling {
    () => {
        fn name(&self) -> &'static str {
            (**self).name()
        }
        fn label_of(&self, h: LeafHandle) -> Result<u128> {
            (**self).label_of(h)
        }
        fn len(&self) -> usize {
            (**self).len()
        }
        fn live_len(&self) -> usize {
            (**self).live_len()
        }
        fn is_empty(&self) -> bool {
            (**self).is_empty()
        }
        fn first_in_order(&self) -> Option<LeafHandle> {
            (**self).first_in_order()
        }
        fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
            (**self).next_in_order(h)
        }
        fn label_space_bits(&self) -> u32 {
            (**self).label_space_bits()
        }
        fn memory_bytes(&self) -> usize {
            (**self).memory_bytes()
        }
        fn compare(&self, a: LeafHandle, b: LeafHandle) -> Result<Ordering> {
            (**self).compare(a, b)
        }
    };
}

macro_rules! forward_ordered_labeling_mut {
    () => {
        fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
            (**self).bulk_build(n)
        }
        fn insert_first(&mut self) -> Result<LeafHandle> {
            (**self).insert_first()
        }
        fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
            (**self).insert_after(anchor)
        }
        fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
            (**self).insert_before(anchor)
        }
        fn delete(&mut self, h: LeafHandle) -> Result<()> {
            (**self).delete(h)
        }
    };
}

macro_rules! forward_batch_labeling {
    () => {
        fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
            (**self).insert_many_after(anchor, k)
        }
        fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
            (**self).delete_run(first, count)
        }
        fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
            (**self).splice(op)
        }
    };
}

macro_rules! forward_instrumented {
    () => {
        fn scheme_stats(&self) -> SchemeStats {
            (**self).scheme_stats()
        }
        fn reset_scheme_stats(&mut self) {
            (**self).reset_scheme_stats()
        }
        fn metrics(&self) -> Vec<crate::metrics::Metric> {
            (**self).metrics()
        }
    };
}

impl<T: OrderedLabeling + ?Sized> OrderedLabeling for &mut T {
    forward_ordered_labeling!();
}
impl<T: OrderedLabelingMut + ?Sized> OrderedLabelingMut for &mut T {
    forward_ordered_labeling_mut!();
}
impl<T: BatchLabeling + ?Sized> BatchLabeling for &mut T {
    forward_batch_labeling!();
}
impl<T: Instrumented + ?Sized> Instrumented for &mut T {
    forward_instrumented!();
}

impl<T: OrderedLabeling + ?Sized> OrderedLabeling for Box<T> {
    forward_ordered_labeling!();
}
impl<T: OrderedLabelingMut + ?Sized> OrderedLabelingMut for Box<T> {
    forward_ordered_labeling_mut!();
}
impl<T: BatchLabeling + ?Sized> BatchLabeling for Box<T> {
    forward_batch_labeling!();
}
impl<T: Instrumented + ?Sized> Instrumented for Box<T> {
    forward_instrumented!();
}

// ----------------------------------------------------------------------
// The materialized L-Tree as a labeling scheme
// ----------------------------------------------------------------------

/// Each [`next_in_order`](OrderedLabeling::next_in_order) step follows
/// one sibling link, climbing toward the root only past the last child
/// of a node, so a full-list cursor walk costs `O(n)` amortized — the
/// same walk [`crate::LTree::leaves`] makes, minus the handle decoding.
impl OrderedLabeling for crate::LTree {
    fn name(&self) -> &'static str {
        "ltree"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        Ok(self.label(decode(h)?)?.get())
    }

    fn len(&self) -> usize {
        crate::LTree::len(self)
    }

    fn live_len(&self) -> usize {
        crate::LTree::live_len(self)
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        self.first_leaf().map(|l| LeafHandle(l.to_u64()))
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        let leaf = decode(h).ok()?;
        self.next_leaf(leaf)
            .ok()
            .flatten()
            .map(|l| LeafHandle(l.to_u64()))
    }

    fn label_space_bits(&self) -> u32 {
        crate::LTree::label_space_bits(self)
    }

    fn memory_bytes(&self) -> usize {
        crate::LTree::memory_bytes(self)
    }
}

impl OrderedLabelingMut for crate::LTree {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        if !self.is_empty() {
            return Err(crate::LTreeError::NotEmpty);
        }
        // Rebuild in place via the constructor path.
        let (tree, leaves) = crate::LTree::bulk_load(self.params(), n)?;
        *self = tree;
        Ok(leaves.into_iter().map(|l| LeafHandle(l.to_u64())).collect())
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        Ok(LeafHandle(crate::LTree::insert_first(self)?.to_u64()))
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let leaf = decode(anchor)?;
        Ok(LeafHandle(crate::LTree::insert_after(self, leaf)?.to_u64()))
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let leaf = decode(anchor)?;
        Ok(LeafHandle(
            crate::LTree::insert_before(self, leaf)?.to_u64(),
        ))
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        crate::LTree::delete(self, decode(h)?)
    }
}

impl BatchLabeling for crate::LTree {
    /// Native Section 4.1 batch: one search/count-update pass for the
    /// whole batch instead of `k`.
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        let leaf = decode(anchor)?;
        let ids = crate::LTree::insert_many_after(self, leaf, k)?;
        Ok(ids.into_iter().map(|l| LeafHandle(l.to_u64())).collect())
    }
}

impl Instrumented for crate::LTree {
    fn scheme_stats(&self) -> SchemeStats {
        let s = self.stats();
        SchemeStats {
            inserts: s.leaves_inserted,
            deletes: s.deletes,
            label_writes: s.leaf_label_writes,
            node_touches: s.count_updates
                + s.nodes_visited
                + (s.nodes_relabeled - s.leaf_label_writes),
            relabel_events: s.relabel_events,
        }
    }

    fn reset_scheme_stats(&mut self) {
        self.reset_stats();
    }
}

fn decode(h: LeafHandle) -> Result<crate::LeafId> {
    crate::LeafId::from_u64(h.0).ok_or(crate::LTreeError::UnknownHandle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LTree, Params};

    #[test]
    fn ltree_through_the_trait_object() {
        let mut scheme: Box<dyn DynScheme> = Box::new(LTree::new(Params::example()));
        let handles = scheme.bulk_build(8).unwrap();
        assert_eq!(scheme.len(), 8);
        let mid = scheme.insert_after(handles[3]).unwrap();
        assert!(scheme.label_of(handles[3]).unwrap() < scheme.label_of(mid).unwrap());
        assert!(scheme.label_of(mid).unwrap() < scheme.label_of(handles[4]).unwrap());
        scheme.delete(mid).unwrap();
        assert_eq!(scheme.live_len(), 8);
        assert_eq!(scheme.len(), 9);
        assert!(scheme.scheme_stats().inserts >= 1);
    }

    #[test]
    fn bulk_build_rejects_non_empty() {
        let mut t = LTree::new(Params::example());
        OrderedLabelingMut::bulk_build(&mut t, 4).unwrap();
        assert!(OrderedLabelingMut::bulk_build(&mut t, 4).is_err());
    }

    #[test]
    fn cursor_streams_in_label_order() {
        let mut t = LTree::new(Params::example());
        let hs = OrderedLabelingMut::bulk_build(&mut t, 16).unwrap();
        BatchLabeling::insert_many_after(&mut t, hs[5], 7).unwrap();
        let mut prev: Option<u128> = None;
        let mut seen = 0usize;
        for h in t.cursor() {
            let l = t.label_of(h).unwrap();
            if let Some(p) = prev {
                assert!(p < l, "cursor must follow label order");
            }
            prev = Some(l);
            seen += 1;
        }
        assert_eq!(seen, OrderedLabeling::len(&t));
    }

    #[test]
    fn cursor_works_through_dyn_objects() {
        let mut boxed: Box<dyn DynScheme> = Box::new(LTree::new(Params::example()));
        boxed.bulk_build(5).unwrap();
        // Via the forwarding impl on the box …
        assert_eq!(boxed.cursor().count(), 5);
        // … and directly over the unsized trait object.
        let dyn_ref: &dyn DynScheme = &*boxed;
        assert_eq!(Cursor::new(dyn_ref).count(), 5);
    }

    #[test]
    fn cursor_starting_at_resumes_midway() {
        let mut t = LTree::new(Params::example());
        let hs = OrderedLabelingMut::bulk_build(&mut t, 10).unwrap();
        let tail: Vec<LeafHandle> = Cursor::starting_at(&t, hs[6]).collect();
        assert_eq!(tail, &hs[6..]);
        assert_eq!(Cursor::starting_at(&t, LeafHandle(u64::MAX)).count(), 0);
    }

    #[test]
    fn splice_insert_matches_insert_many() {
        let mut t = LTree::new(Params::example());
        let hs = OrderedLabelingMut::bulk_build(&mut t, 4).unwrap();
        let out = t
            .splice(Splice::InsertAfter {
                anchor: hs[0],
                count: 5,
            })
            .unwrap();
        let batch = out.into_inserted();
        assert_eq!(batch.len(), 5);
        for w in batch.windows(2) {
            assert!(t.label_of(w[0]).unwrap() < t.label_of(w[1]).unwrap());
        }
        assert!(t.label_of(hs[0]).unwrap() < t.label_of(batch[0]).unwrap());
        assert!(t.label_of(batch[4]).unwrap() < t.label_of(hs[1]).unwrap());
    }

    #[test]
    fn splice_delete_run_skips_tombstones_and_stops_at_end() {
        let mut t = LTree::new(Params::example());
        let hs = OrderedLabelingMut::bulk_build(&mut t, 8).unwrap();
        OrderedLabelingMut::delete(&mut t, hs[3]).unwrap();
        // Delete 4 live items starting at hs[2]: 2, (3 skipped), 4, 5, 6.
        let out = t
            .splice(Splice::DeleteRun {
                first: hs[2],
                count: 4,
            })
            .unwrap();
        assert_eq!(out.deleted(), 4);
        assert_eq!(OrderedLabeling::live_len(&t), 3);
        // A run over the end deletes what is left and reports it.
        let out = t
            .splice(Splice::DeleteRun {
                first: hs[0],
                count: 100,
            })
            .unwrap();
        assert_eq!(out.deleted(), 3);
        assert_eq!(OrderedLabeling::live_len(&t), 0);
    }

    #[test]
    fn default_batch_falls_back_to_singles() {
        // A &mut forwarding wrapper still routes through the native batch;
        // the semantic contract (contiguous, ordered) is what matters.
        let mut t = LTree::new(Params::example());
        let hs = OrderedLabelingMut::bulk_build(&mut t, 4).unwrap();
        let batch = BatchLabeling::insert_many_after(&mut (&mut t), hs[0], 5).unwrap();
        assert_eq!(batch.len(), 5);
        for w in batch.windows(2) {
            assert!(t.label_of(w[0]).unwrap() < t.label_of(w[1]).unwrap());
        }
        assert!(matches!(
            BatchLabeling::insert_many_after(&mut t, hs[0], 0),
            Err(LTreeError::EmptyBatch)
        ));
    }

    #[test]
    fn splice_builder_applies_runs_in_order() {
        let mut t = LTree::new(Params::example());
        let hs = OrderedLabelingMut::bulk_build(&mut t, 4).unwrap();
        let mut b = SpliceBuilder::new();
        b.push_run(hs[0], 2);
        assert!(b.extend_last(1), "run grows to 3");
        b.push_run(hs[2], 2);
        assert_eq!(b.run_count(), 2);
        assert_eq!(b.total_items(), 5);
        let runs = b.apply(&mut t).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].len(), 3);
        assert_eq!(runs[1].len(), 2);
        // First run sits between hs[0] and hs[1]; second between hs[2] and hs[3].
        assert!(t.label_of(hs[0]).unwrap() < t.label_of(runs[0][0]).unwrap());
        assert!(t.label_of(runs[0][2]).unwrap() < t.label_of(hs[1]).unwrap());
        assert!(t.label_of(hs[2]).unwrap() < t.label_of(runs[1][0]).unwrap());
        assert!(t.label_of(runs[1][1]).unwrap() < t.label_of(hs[3]).unwrap());
    }

    #[test]
    fn splice_builder_empty_and_extend_without_run() {
        let mut t = LTree::new(Params::example());
        OrderedLabelingMut::bulk_build(&mut t, 2).unwrap();
        let mut b = SpliceBuilder::new();
        assert!(b.is_empty());
        assert!(!b.extend_last(3), "nothing to extend");
        assert_eq!(b.total_items(), 0);
        assert!(b.apply(&mut t).unwrap().is_empty());
    }

    #[test]
    fn stats_roundtrip_and_monotonicity() {
        let mut t = LTree::new(Params::example());
        let hs = OrderedLabelingMut::bulk_build(&mut t, 16).unwrap();
        let before = t.scheme_stats();
        OrderedLabelingMut::insert_after(&mut t, hs[7]).unwrap();
        let st = t.scheme_stats();
        assert!(st.dominates(&before), "counters are monotone");
        assert_eq!(st.inserts, 1);
        assert!(st.label_writes >= 1);
        t.reset_scheme_stats();
        assert_eq!(t.scheme_stats().inserts, 0);
    }
}
