//! Classic even-redistribution list labeling (Itai–Konheim–Rodeh /
//! Dietz–Sleator lineage — references [8, 9, 10] of the paper, the work
//! the L-Tree "has been inspired by" and parameterizes).
//!
//! Labels live in a fixed universe `[0, 2^W)`. Insertion takes a midpoint;
//! when the midpoint collapses, the smallest enclosing *dyadic* range
//! whose density is below its threshold `(2τ)^i / 2^i` is relabeled
//! evenly. If even the whole universe is too dense, `W` grows by one and
//! everything is relabeled. This gives `O(log² n)` amortized label writes
//! — asymptotically worse than the L-Tree's `O(log n)` but with smaller
//! constants at modest sizes, which is exactly the trade-off experiment
//! X3 visualizes.
//!
//! The sorted label set is kept in a [`counted_btree::CountedBTree`] —
//! the same substrate the virtual L-Tree uses — so range counts and range
//! scans are `O(log n)`.

use counted_btree::CountedBTree;
use ltree_core::{
    BatchLabeling, Instrumented, LTreeError, LeafHandle, OrderedLabeling, OrderedLabelingMut,
    Result, SchemeStats,
};

#[derive(Debug, Clone)]
struct Item {
    label: u128,
    alive: bool,
}

/// Even-redistribution list labeling. See the [crate docs](crate).
pub struct ListLabeling {
    /// Universe is `[0, 2^bits)`.
    bits: u32,
    /// Density threshold base `τ ∈ (0.5, 1)`.
    tau: f64,
    tree: CountedBTree<u32>,
    items: Vec<Item>,
    stats: SchemeStats,
    /// Universe doublings (exposed for the experiments).
    grows: u64,
}

impl ListLabeling {
    /// Default density threshold.
    pub const DEFAULT_TAU: f64 = 0.75;

    /// A scheme with `τ = 0.75` and a small initial universe.
    pub fn new() -> Self {
        Self::with_config(16, Self::DEFAULT_TAU)
    }

    /// A scheme with a custom initial universe width and threshold.
    ///
    /// # Panics
    /// Panics unless `4 ≤ bits ≤ 120` and `0.5 < tau < 1.0`.
    pub fn with_config(bits: u32, tau: f64) -> Self {
        assert!(
            (4..=120).contains(&bits),
            "universe width must be in 4..=120"
        );
        assert!(tau > 0.5 && tau < 1.0, "tau must be in (0.5, 1)");
        ListLabeling {
            bits,
            tau,
            tree: CountedBTree::new(),
            items: Vec::new(),
            stats: SchemeStats::default(),
            grows: 0,
        }
    }

    /// How many times the universe doubled.
    pub fn universe_grows(&self) -> u64 {
        self.grows
    }

    /// Current universe width in bits.
    pub fn universe_bits(&self) -> u32 {
        self.bits
    }

    fn item(&self, h: LeafHandle) -> Result<&Item> {
        let idx = usize::try_from(h.0).map_err(|_| LTreeError::UnknownHandle)?;
        match self.items.get(idx) {
            Some(item) if item.alive => Ok(item),
            _ => Err(LTreeError::UnknownHandle),
        }
    }

    fn universe(&self) -> u128 {
        1u128 << self.bits
    }

    /// Allowed occupancy of a dyadic range of size `2^i`: `(2τ)^i`,
    /// clamped to at least 1.
    fn capacity(&self, i: u32) -> u64 {
        let cap = (2.0 * self.tau).powi(i as i32);
        if cap >= u64::MAX as f64 {
            u64::MAX
        } else {
            (cap as u64).max(1)
        }
    }

    /// Spread `m` existing entries (plus leave room) evenly over
    /// `[base, base + size)`, writing labels back to the items.
    fn relabel_range(&mut self, base: u128, size: u128) {
        let entries = self.tree.drain_range(base, base.saturating_add(size));
        let m = entries.len() as u128;
        debug_assert!(m > 0);
        let step = size / (m + 1);
        debug_assert!(step >= 1, "caller guarantees room");
        let mut batch = Vec::with_capacity(entries.len());
        for (j, (_, idx)) in entries.into_iter().enumerate() {
            let label = base + (j as u128 + 1) * step;
            self.items[idx as usize].label = label;
            batch.push((label, idx));
        }
        self.stats.label_writes += m as u64;
        self.stats.relabel_events += 1;
        self.tree
            .extend_sorted(batch)
            .expect("even redistribution produces strictly increasing labels");
    }

    /// Double the universe and spread everything evenly.
    fn grow_universe(&mut self) {
        self.bits += 1;
        assert!(self.bits <= 124, "list-labeling universe exhausted u128");
        self.grows += 1;
        let size = self.universe();
        self.relabel_range(0, size);
    }

    /// Find room for a label strictly inside `(lo, hi)` — `lo`/`hi` are
    /// occupied bounds (or virtual sentinels). Returns `None` after a
    /// redistribution (the caller re-reads its neighbours and retries).
    fn make_label(&mut self, lo: Option<u128>, hi: Option<u128>) -> Option<u128> {
        let lo_v = lo.map(|l| l + 1).unwrap_or(0); // first free slot
        let hi_v = hi.unwrap_or(self.universe()); // exclusive
        if hi_v > lo_v {
            // Midpoint of the free slots [lo_v, hi_v).
            return Some(lo_v + (hi_v - lo_v) / 2);
        }
        // No room: find the smallest enclosing dyadic range around the
        // collision point that is under its density threshold. The new
        // entry will land there too, so require room for one more and a
        // usable integer step.
        let pivot = lo.or(hi).expect("collision implies a neighbour");
        let mut redistributed = false;
        for i in 1..=self.bits {
            let size = 1u128 << i;
            let base = pivot & !(size - 1);
            let count = self.tree.count_range(base, base + size) as u64;
            if count < self.capacity(i) && size / (count as u128 + 2) >= 1 {
                self.relabel_range(base, size);
                redistributed = true;
                break;
            }
        }
        if !redistributed {
            self.grow_universe();
        }
        None
    }

    /// Charge the B-tree's touches to the stats. Each mutator resets the
    /// touch counter when it starts and syncs it when it ends, so the
    /// lookups of read-only calls are not counted as maintenance.
    fn sync_touches(&mut self) {
        self.stats.node_touches += self.tree.touches();
    }

    fn insert_with_neighbours(
        &mut self,
        prev: Option<LeafHandle>,
        next: Option<LeafHandle>,
    ) -> Result<LeafHandle> {
        self.stats.inserts += 1;
        loop {
            let lo = match prev {
                Some(h) => Some(self.item(h)?.label),
                None => None,
            };
            let hi = match next {
                Some(h) => Some(self.item(h)?.label),
                None => None,
            };
            let Some(label) = self.make_label(lo, hi) else {
                // A redistribution happened; neighbour labels changed —
                // retry with the fresh values.
                self.stats.node_touches += 1;
                continue;
            };
            let idx = self.items.len() as u32;
            self.items.push(Item { label, alive: true });
            self.tree
                .insert(label, idx)
                .expect("midpoint label is unoccupied");
            self.stats.label_writes += 1;
            self.sync_touches();
            return Ok(LeafHandle(u64::from(idx)));
        }
    }
}

impl Default for ListLabeling {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedLabeling for ListLabeling {
    fn name(&self) -> &'static str {
        "list-label"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        Ok(self.item(h)?.label)
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn live_len(&self) -> usize {
        self.tree.len()
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
        self.bits
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.items.capacity() * std::mem::size_of::<Item>()
            + self.tree.memory_bytes()
    }
}

impl OrderedLabelingMut for ListLabeling {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        if !self.items.is_empty() {
            return Err(LTreeError::NotEmpty);
        }
        // Pick a universe with comfortable headroom.
        while (self.capacity(self.bits)) < (n as u64).saturating_mul(2) {
            self.bits += 1;
            assert!(self.bits <= 124);
        }
        let size = self.universe();
        let step = (size / (n as u128 + 1)).max(1);
        let mut out = Vec::with_capacity(n);
        let mut batch = Vec::with_capacity(n);
        for j in 0..n {
            let label = (j as u128 + 1) * step;
            self.items.push(Item { label, alive: true });
            batch.push((label, j as u32));
            out.push(LeafHandle(j as u64));
        }
        self.tree
            .extend_sorted(batch)
            .expect("bulk labels strictly increase");
        self.stats = SchemeStats::default();
        self.tree.reset_touches();
        Ok(out)
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        self.tree.reset_touches();
        let next = self.tree.kth(0).map(|(_, &idx)| LeafHandle(u64::from(idx)));
        self.insert_with_neighbours(None, next)
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        self.tree.reset_touches();
        let label = self.item(anchor)?.label;
        let next = self
            .tree
            .successor(label + 1)
            .map(|(_, &idx)| LeafHandle(u64::from(idx)));
        self.insert_with_neighbours(Some(anchor), next)
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        self.tree.reset_touches();
        let label = self.item(anchor)?.label;
        let prev = self
            .tree
            .predecessor(label)
            .map(|(_, &idx)| LeafHandle(u64::from(idx)));
        self.insert_with_neighbours(prev, Some(anchor))
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        self.tree.reset_touches();
        let idx = usize::try_from(h.0).map_err(|_| LTreeError::UnknownHandle)?;
        match self.items.get_mut(idx) {
            Some(item) if item.alive => {
                item.alive = false;
                let label = item.label;
                self.tree.remove(label).expect("alive item is indexed");
                self.stats.deletes += 1;
                self.sync_touches();
                Ok(())
            }
            _ => Err(LTreeError::UnknownHandle),
        }
    }
}

/// Batches fall back to the default loop: redistribution is triggered
/// per midpoint collision, so a batch behaves like `k` singles (the
/// `O(log² n)` amortized bound the paper cites).
impl BatchLabeling for ListLabeling {}

impl Instrumented for ListLabeling {
    fn scheme_stats(&self) -> SchemeStats {
        self.stats
    }

    fn reset_scheme_stats(&mut self) {
        self.stats = SchemeStats::default();
        self.tree.reset_touches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_order(s: &ListLabeling, hs: &[LeafHandle]) {
        let labels: Vec<u128> = hs.iter().map(|&h| s.label_of(h).unwrap()).collect();
        assert!(
            labels.windows(2).all(|w| w[0] < w[1]),
            "order broken: {labels:?}"
        );
    }

    #[test]
    fn bulk_build_spreads_evenly() {
        let mut s = ListLabeling::new();
        let hs = s.bulk_build(10).unwrap();
        check_order(&s, &hs);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn hotspot_insertions_redistribute_locally() {
        let mut s = ListLabeling::new();
        let hs = s.bulk_build(64).unwrap();
        let mut seq = vec![hs[31]];
        for _ in 0..500 {
            let anchor = *seq.last().unwrap();
            seq.push(s.insert_after(anchor).unwrap());
        }
        // Full order must hold across old and new items.
        let mut all = hs[..32].to_vec();
        all.extend(&seq[1..]);
        all.extend(&hs[32..]);
        check_order(&s, &all);
        assert!(
            s.scheme_stats().relabel_events > 0,
            "hotspot must trigger redistribution"
        );
    }

    #[test]
    fn interleaved_inserts_everywhere() {
        let mut s = ListLabeling::new();
        let mut order = s.bulk_build(4).unwrap();
        let mut x = 99u64;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % order.len();
            let h = s.insert_after(order[i]).unwrap();
            order.insert(i + 1, h);
        }
        check_order(&s, &order);
        assert_eq!(s.len(), 404);
    }

    #[test]
    fn delete_then_insert_reuses_space() {
        let mut s = ListLabeling::new();
        let hs = s.bulk_build(8).unwrap();
        s.delete(hs[3]).unwrap();
        assert_eq!(s.len(), 7);
        assert!(
            s.label_of(hs[3]).is_err(),
            "deleted handles are invalid here"
        );
        let h = s.insert_after(hs[2]).unwrap();
        assert!(s.label_of(hs[2]).unwrap() < s.label_of(h).unwrap());
        assert!(s.label_of(h).unwrap() < s.label_of(hs[4]).unwrap());
    }

    #[test]
    fn front_insertions() {
        let mut s = ListLabeling::new();
        let mut front = s.insert_first().unwrap();
        let mut all = vec![front];
        for _ in 0..100 {
            front = s.insert_first().unwrap();
            all.insert(0, front);
        }
        check_order(&s, &all);
    }

    #[test]
    fn amortized_cost_is_polylog() {
        let mut s = ListLabeling::new();
        let hs = s.bulk_build(2000).unwrap();
        s.reset_scheme_stats();
        let mut anchor = hs[1000];
        for _ in 0..2000 {
            anchor = s.insert_after(anchor).unwrap();
        }
        let w = s.scheme_stats().amortized_label_writes();
        // log2(4000)^2 ≈ 143; allow generous slack but far below O(n).
        assert!(
            w < 400.0,
            "amortized label writes should be polylog, got {w}"
        );
    }
}
