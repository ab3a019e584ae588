//! Cost accounting.
//!
//! The paper measures maintenance cost "in terms of the number of nodes
//! accessed for searching or relabeling" (Section 3.1). [`Stats`] counts
//! exactly those events so the benchmark harness can compare the measured
//! amortized cost with the paper's closed-form bound.

/// Running counters for one [`crate::LTree`]. All counters are cumulative
/// since the last [`reset`](Stats::reset); a rejected operation counts
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of single-leaf insert operations.
    pub inserts: u64,
    /// Number of batch insert operations (any `k ≥ 1` counts once).
    pub batch_inserts: u64,
    /// Total leaves inserted (singles + batch members).
    pub leaves_inserted: u64,
    /// Number of tombstoned leaves.
    pub deletes: u64,
    /// Ancestor count-update steps — the paper's "cost H to update L(a)
    /// for every ancestor a" term.
    pub count_updates: u64,
    /// Number of relabel events (suffix relabels + subtree relabels).
    pub relabel_events: u64,
    /// Total node numbers `num(v)` a relabel assigned. This is the
    /// paper's headline "number of relabelings" quantity, so it counts
    /// interior nodes' numbers too, although only leaf labels are stored
    /// (an interior number is implied by the labels below it).
    pub nodes_relabeled: u64,
    /// Subset of `nodes_relabeled` that were leaves — i.e. labels visible
    /// to the document layer. This is the unit that is comparable across
    /// labeling schemes (baselines have no interior nodes).
    pub leaf_label_writes: u64,
    /// Largest number of nodes relabeled by any single operation.
    pub max_relabeled_in_one_op: u64,
    /// Number of node splits (excluding root rebuilds).
    pub splits: u64,
    /// Replacement subtrees created by splits (`s` per split in the
    /// single-insert regime).
    pub pieces_created: u64,
    /// Root rebuilds (tree height grew).
    pub root_rebuilds: u64,
    /// Times a split cascaded to the parent because a *batch* insertion
    /// overflowed its fanout. Provably zero for single-leaf workloads
    /// (paper, Proposition 3) — asserted by the test-suite.
    pub cascade_splits: u64,
    /// Total nodes visited for structural navigation (walks up to the
    /// root, leaf collection during splits, subtree rebuilds).
    pub nodes_visited: u64,
}

impl Stats {
    /// Reset every counter to zero.
    pub fn reset(&mut self) {
        *self = Stats::default();
    }

    /// Total inserted-leaf count, never zero (to make ratios safe).
    fn denom(&self) -> f64 {
        (self.leaves_inserted.max(1)) as f64
    }

    /// Amortized relabeled-nodes per inserted leaf.
    pub fn amortized_relabels(&self) -> f64 {
        self.nodes_relabeled as f64 / self.denom()
    }

    /// Amortized total cost per inserted leaf in the paper's unit
    /// (node accesses: count updates + visits + relabels).
    pub fn amortized_cost(&self) -> f64 {
        (self.count_updates + self.nodes_visited + self.nodes_relabeled) as f64 / self.denom()
    }

    /// Fold another stats block into this one (used by sharded drivers).
    pub fn merge(&mut self, other: &Stats) {
        self.inserts += other.inserts;
        self.batch_inserts += other.batch_inserts;
        self.leaves_inserted += other.leaves_inserted;
        self.deletes += other.deletes;
        self.count_updates += other.count_updates;
        self.relabel_events += other.relabel_events;
        self.nodes_relabeled += other.nodes_relabeled;
        self.leaf_label_writes += other.leaf_label_writes;
        self.max_relabeled_in_one_op = self
            .max_relabeled_in_one_op
            .max(other.max_relabeled_in_one_op);
        self.splits += other.splits;
        self.pieces_created += other.pieces_created;
        self.root_rebuilds += other.root_rebuilds;
        self.cascade_splits += other.cascade_splits;
        self.nodes_visited += other.nodes_visited;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortization_is_safe_on_zero() {
        let s = Stats::default();
        assert_eq!(s.amortized_relabels(), 0.0);
        assert_eq!(s.amortized_cost(), 0.0);
    }

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = Stats {
            inserts: 1,
            nodes_relabeled: 10,
            max_relabeled_in_one_op: 4,
            ..Default::default()
        };
        let b = Stats {
            inserts: 2,
            nodes_relabeled: 5,
            max_relabeled_in_one_op: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.inserts, 3);
        assert_eq!(a.nodes_relabeled, 15);
        assert_eq!(a.max_relabeled_in_one_op, 9);
    }

    #[test]
    fn amortized_cost_counts_all_components() {
        let s = Stats {
            leaves_inserted: 2,
            count_updates: 4,
            nodes_visited: 2,
            nodes_relabeled: 6,
            ..Default::default()
        };
        assert_eq!(s.amortized_cost(), 6.0);
    }
}
