//! # `ltree-core` — the L-Tree dynamic labeling structure
//!
//! This crate is a faithful implementation of the **L-Tree** from
//! *"L-Tree: a Dynamic Labeling Structure for Ordered XML Data"*
//! (Chen, Mihaila, Bordawekar, Padmanabhan — EDBT 2004 Workshops).
//!
//! The L-Tree solves the *order maintenance* problem for the tag list of an
//! ordered (XML) document: every begin tag, end tag (and, if desired, text
//! section) is attached to a leaf of an ordered, balanced tree, and every
//! leaf carries an integer label such that document order coincides with
//! label order. The structure supports:
//!
//! * **`O(log n)` amortized relabeling cost per insertion** — when a region
//!   of the document becomes dense, only a logarithmically-chargeable
//!   neighbourhood is relabeled (a *split*, Section 2.3 of the paper);
//! * **`O(log n)` bits per label** — labels never exceed `(f+1)^H` where
//!   `H` is the tree height (Section 3.1);
//! * **tunable trade-offs** via the two shape parameters `f` and `s`
//!   (Section 3.2; see the companion crate `ltree-tuning`);
//! * **batch (subtree) insertion** with amortized cost that decreases
//!   roughly logarithmically in the batch size (Section 4.1);
//! * **constant-time label lookup** — the label is stored on the leaf.
//!
//! ## Quick start
//!
//! ```
//! use ltree_core::{LTree, Params};
//!
//! // f = 4, s = 2: splits produce 2 half-full binary subtrees.
//! let params = Params::new(4, 2).unwrap();
//! let (mut tree, leaves) = LTree::bulk_load(params, 8).unwrap();
//!
//! // Labels are strictly increasing in document order.
//! let labels: Vec<u128> = leaves.iter().map(|&l| tree.label(l).unwrap().get()).collect();
//! assert!(labels.windows(2).all(|w| w[0] < w[1]));
//!
//! // Insert a new item right after the third one; order is preserved.
//! let new_leaf = tree.insert_after(leaves[2]).unwrap();
//! assert!(tree.label(leaves[2]).unwrap() < tree.label(new_leaf).unwrap());
//! assert!(tree.label(new_leaf).unwrap() < tree.label(leaves[3]).unwrap());
//! tree.check_invariants().unwrap();
//! ```
//!
//! ## Crate layout
//!
//! * [`params`] — the `(f, s)` shape parameters and derived quantities;
//! * [`label`] — the `Label` type (a `u128` with base-`(f+1)` structure);
//! * [`tree`] — the materialized [`LTree`] itself;
//! * [`layout`] — pure label-layout helpers shared with the *virtual*
//!   L-Tree (`ltree-virtual`), which re-derives the structure from labels;
//! * [`scheme`] — the composable ordered-labeling trait family
//!   ([`OrderedLabeling`] / [`OrderedLabelingMut`] / [`BatchLabeling`] /
//!   [`Instrumented`], bundled as the object-safe [`DynScheme`] with the
//!   [`LabelingScheme`] alias) implemented by the L-Tree, the virtual
//!   L-Tree and the baseline schemes, so that the benchmark harness can
//!   compare them on equal footing;
//! * [`registry`] — named scheme construction
//!   ([`registry::SchemeRegistry`]): experiments and examples build any
//!   scheme from a spec string like `"ltree(4,2)"`;
//! * [`metrics`] — passive metric snapshots ([`Metric`],
//!   [`HistogramSnapshot`] with bounded-error quantiles) returned by
//!   [`Instrumented::metrics`]; the live recording side is `ltree-obs`;
//! * [`cost_model`] — the closed-form cost/bit formulas of Section 3;
//! * [`invariants`] — a full structural checker used pervasively in tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost_model;
pub mod error;
pub mod invariants;
pub mod label;
pub mod layout;
pub mod metrics;
pub mod order;
pub mod params;
pub mod registry;
pub mod rng;
pub mod scheme;
pub mod snapshot;
pub mod stats;
mod store;
pub mod tree;

pub use error::{LTreeError, Result};
pub use label::Label;
pub use metrics::{HistogramSnapshot, Metric, MetricValue};
pub use order::OrderedList;
pub use params::Params;
pub use registry::{SchemeConfig, SchemeRegistry};
pub use scheme::{
    BatchLabeling, Cursor, DynScheme, Instrumented, LabelingScheme, LeafHandle, OrderedLabeling,
    OrderedLabelingMut, SchemeStats, Splice, SpliceBuilder, SpliceResult,
};
pub use stats::Stats;
pub use tree::{LTree, LeafId};
