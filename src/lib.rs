//! # `ltree` — facade crate for the L-Tree reproduction
//!
//! Reproduction of *"L-Tree: a Dynamic Labeling Structure for Ordered XML
//! Data"* (Chen, Mihaila, Bordawekar, Padmanabhan — EDBT 2004 Workshops).
//! See `PAPER.md` for the abstract and `ROADMAP.md` for where the
//! codebase is heading; the `repro` binary in `ltree-bench` regenerates
//! every experiment table.
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`ltree_core`] (re-exported at the root) — the materialized
//!   [`LTree`], its parameters, cost model, the ordered-labeling trait
//!   family and the scheme registry;
//! * [`vtree`] — the *virtual* L-Tree of Section 4.2 (labels only, backed
//!   by a counted B-tree);
//! * [`btree`] — the order-statistic (counted) B-tree substrate;
//! * [`baselines`] — the labeling schemes the paper argues against;
//! * [`sharded`] — the segment-partitioned composite store: contiguous
//!   segments of the label space, each backed by any registry scheme,
//!   with L-Tree-style split/merge rebalancing one level up;
//! * [`remote`] — the networked label store: a TCP `LabelServer`
//!   hosting any registry scheme, and the `RemoteScheme` client
//!   speaking batch splices over a length-prefixed wire protocol;
//! * [`tuning`] — the Section 3.2 parameter tuner;
//! * [`xml`] — the XML substrate: parser, DOM, region-labeled documents
//!   and the path-query engine;
//! * [`gen`] — synthetic document and update-workload generators.
//!
//! ## The ordered-labeling trait family
//!
//! Every scheme implements four composable traits instead of one
//! monolith (see [`ltree_core::scheme`]):
//!
//! * [`OrderedLabeling`] — reads: [`label_of`](OrderedLabeling::label_of),
//!   [`compare`](OrderedLabeling::compare), and the zero-allocation
//!   streaming [`Cursor`] over handles in list order;
//! * [`OrderedLabelingMut`] — writes: bulk build, insert, delete;
//! * [`BatchLabeling`] — typed [`Splice`] batches (insert `k` after an
//!   anchor; delete a contiguous run) with native fast-paths in the
//!   L-Tree variants and loop fallbacks for the baselines;
//! * [`Instrumented`] — the [`SchemeStats`] cost counters.
//!
//! [`DynScheme`] bundles all four (object-safely); the [`LabelingScheme`]
//! alias keeps the familiar name for generic bounds.
//!
//! ## Quickstart
//!
//! ```
//! use ltree::{LTree, Params};
//!
//! let (mut tree, leaves) = LTree::bulk_load(Params::new(4, 2).unwrap(), 8).unwrap();
//! let l = tree.insert_after(leaves[3]).unwrap();
//! assert!(tree.label(leaves[3]).unwrap() < tree.label(l).unwrap());
//! ```
//!
//! Or pick any scheme at runtime through the registry:
//!
//! ```
//! use ltree::prelude::*;
//!
//! let mut scheme = Scheme::build("virtual(4,2)").unwrap();
//! let handles = scheme.bulk_build(100).unwrap();
//! scheme.splice(Splice::InsertAfter { anchor: handles[50], count: 10 }).unwrap();
//! assert_eq!(scheme.cursor().count(), 110);
//! ```
//!
//! See `examples/` for end-to-end scenarios (`scheme_zoo` sweeps every
//! registered scheme over one workload).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use ltree_core::*;

/// Order-statistic (counted) B-tree substrate (paper, Section 4.2).
pub mod btree {
    pub use counted_btree::*;
}

/// The virtual L-Tree: structure recomputed from labels (Section 4.2).
pub mod vtree {
    pub use ltree_virtual::*;
}

/// The segment-partitioned (sharded) label store composing any scheme.
pub mod sharded {
    pub use ltree_sharded::*;
}

/// The networked label store: server, client and wire protocol.
pub mod remote {
    pub use ltree_remote::*;
}

/// The contract auditor (`checked(inner)`) and the interleaving explorer.
pub mod checked {
    pub use ltree_checked::*;
}

/// The observability layer: metrics registry, latency histograms, span
/// event log and the `traced(inner)` wrapper.
pub mod obs {
    pub use ltree_obs::*;
}

/// Baseline labeling schemes (sequential, gapped, list-labeling).
pub mod baselines {
    pub use labeling_baselines::*;
}

/// The `(f, s)` parameter tuner (Section 3.2).
pub mod tuning {
    pub use ltree_tuning::*;
}

/// XML parser, DOM, labeled documents and path queries.
pub mod xml {
    pub use xmldb::*;
}

/// Synthetic XML documents and update workloads.
pub mod gen {
    pub use xmlgen::*;
}

/// The relational storage context (edge table vs region labels).
pub mod rel {
    pub use reldb::*;
}

/// A registry holding every scheme the workspace ships:
///
/// | name | scheme | spec args |
/// |------|--------|-----------|
/// | `ltree` | materialized L-Tree | `(f,s)` |
/// | `ltree-virtual`, `virtual` | virtual L-Tree | `(f,s)` |
/// | `naive` | consecutive integers | — |
/// | `gap` | fixed-gap midpoints | `(gap)` |
/// | `list-label` | even redistribution | `(bits)` or `(bits,tau)` |
/// | `sharded` | segment-partitioned composite | `(inner)`, `(n,inner)`, or `(n,split,merge,inner)` |
/// | `served` | in-process server on `127.0.0.1:0` + remote client over TCP | `(inner[,options])` |
/// | `remote` | client for external label server(s) | `(addrs[,options])` |
/// | `durable` | write-ahead logged, snapshot-checkpointed wrapper | `(inner[,dir=PATH,sync=always\|never,checkpoint_every=N])` |
/// | `checked` | contract auditor over any scheme | `(inner[,every=N])` |
/// | `traced` | latency-tracing wrapper over any scheme | `(inner[,slow_us=N])` |
///
/// `sharded`, `served`, `durable`, `checked` and `traced` compose: their inner
/// argument is any spec this registry resolves, recursively —
/// `sharded(4,ltree(4,2))`, `served(gap)`, `sharded(4,served(ltree))`
/// (each segment behind its own in-process server),
/// `sharded(2,checked(gap))` (every segment audited against its own
/// shadow model), `served(durable(ltree(4,2),dir=…))` (a crash-safe
/// label server), `checked(durable(gap))` (the auditor proving the
/// durability wrapper preserves the ordered-labeling contract),
/// `served(traced(ltree(4,2)))` (a label server whose per-op latency
/// histograms are scrapable over the wire `Metrics` request). The
/// remote client options (`conns=4`,
/// `retries=2`, `reconnect`, `timeout-ms=500`, `coalesce`) configure a
/// [`ltree_remote::ClientPolicy`]; `remote` also accepts a
/// `|`-separated address list, rotated across builds, so
/// `sharded(n,remote(a|b|…))` — the spec a
/// [`ltree_remote::ServerGroup`] hands back — puts one segment on each
/// host. The full grammar lives in [`ltree_core::registry`];
/// `ARCHITECTURE.md` carries the same table for non-rustdoc readers.
pub fn default_registry() -> SchemeRegistry {
    let mut reg = SchemeRegistry::with_builtin();
    ltree_virtual::register(&mut reg);
    labeling_baselines::register(&mut reg);
    ltree_sharded::register(&mut reg);
    ltree_remote::register(&mut reg);
    ltree_checked::register(&mut reg);
    ltree_obs::register(&mut reg);
    reg
}

/// One-shot scheme construction over [`default_registry`]:
/// `Scheme::build("ltree(4,2)")`.
pub struct Scheme;

impl Scheme {
    /// Build a scheme from a spec string with default config.
    pub fn build(spec: &str) -> Result<Box<dyn DynScheme>> {
        default_registry().build(spec)
    }

    /// Build a scheme from a spec string; spec arguments override the
    /// matching [`SchemeConfig`] fields.
    pub fn build_with(spec: &str, config: &SchemeConfig) -> Result<Box<dyn DynScheme>> {
        default_registry().build_with(spec, config)
    }

    /// Names of every scheme in the default registry.
    pub fn names() -> Vec<&'static str> {
        default_registry().names()
    }
}

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::{default_registry, Scheme};
    pub use counted_btree::CountedBTree;
    pub use labeling_baselines::{GapLabeling, ListLabeling, NaiveLabeling};
    pub use ltree_checked::CheckedScheme;
    pub use ltree_core::order::OrderedList;
    pub use ltree_core::{
        BatchLabeling, Cursor, DynScheme, Instrumented, LTree, Label, LabelingScheme, LeafHandle,
        LeafId, OrderedLabeling, OrderedLabelingMut, Params, SchemeConfig, SchemeRegistry, Splice,
        SpliceBuilder, SpliceResult,
    };
    pub use ltree_obs::{render_prometheus, MetricsRegistry, TracedScheme};
    pub use ltree_remote::{
        ClientPolicy, DurableOptions, DurableScheme, Endpoint, LabelServer, RemoteScheme,
        ServerGroup, SyncPolicy, TransportStats,
    };
    pub use ltree_sharded::{ShardedConfig, ShardedScheme};
    pub use ltree_tuning::{optimize_cost, optimize_cost_with_bits, optimize_workload};
    pub use ltree_virtual::VirtualLTree;
    pub use xmldb::{Document, Path, XmlTree};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn default_registry_covers_all_schemes() {
        let reg = crate::default_registry();
        for name in [
            "ltree",
            "ltree-virtual",
            "virtual",
            "naive",
            "gap",
            "list-label",
            "sharded",
            "served",
            "remote",
            "durable",
            "checked",
            "traced",
        ] {
            assert!(reg.contains(name), "missing {name}");
        }
        // The composite spec resolves any registered inner, recursively.
        let mut s = Scheme::build("sharded(2,virtual(4,2))").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        // The networked composites nest the same way: every segment of
        // the sharded store talks to its own in-process server over TCP.
        let mut s = Scheme::build("sharded(2,served(ltree(4,2)))").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        assert_eq!(s.cursor().count(), 10);
        // The auditor composes in both directions.
        let mut s = Scheme::build("checked(sharded(2,ltree(4,2)),every=2)").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        let mut s = Scheme::build("sharded(2,checked(gap))").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        // The durability wrapper composes under a server and under the
        // auditor (dir-less builds live in a self-cleaning scratch dir).
        let mut s = Scheme::build("served(durable(ltree(4,2)))").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        let mut s = Scheme::build("checked(durable(gap))").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        assert_eq!(s.cursor().count(), 10);
        // The tracing wrapper composes everywhere and surfaces nested
        // metrics (its own op histograms + the durable fsync timings).
        let mut s = Scheme::build("traced(durable(ltree(4,2)))").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        let metrics = s.metrics();
        assert!(metrics.iter().any(|m| m.name == "obs/op/bulk_build"));
        let mut s = Scheme::build("sharded(2,traced(gap))").unwrap();
        assert_eq!(s.bulk_build(10).unwrap().len(), 10);
        let mut s = Scheme::build("ltree(8,2)").unwrap();
        let hs = s.bulk_build(16).unwrap();
        assert_eq!(s.cursor().count(), 16);
        s.splice(Splice::DeleteRun {
            first: hs[0],
            count: 4,
        })
        .unwrap();
        assert_eq!(s.live_len(), 12);
    }
}
