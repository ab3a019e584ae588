//! # `xmlgen` — synthetic documents and update workloads
//!
//! The 2004 paper has no public corpus; this crate substitutes seeded,
//! reproducible generators standing in for it:
//!
//! * [`gen`] — random XML documents with layered tag vocabularies,
//!   including an XMark-flavoured *auction site* profile and a *book
//!   catalog* profile matching the paper's motivating examples;
//! * [`workload`] — the one update-workload driver: replayable
//!   [`workload::EditScript`]s, generated once per
//!   ([`workload::EditProfile`], seed) and replayed against any
//!   [`ltree_core::LabelingScheme`] as batched splices (one
//!   [`ltree_core::Splice`] per run) or as the per-item reference loop,
//!   with a [`workload::WorkloadReport`] capturing the paper's cost
//!   metrics. The `ltree-bench` experiments and its scheme×workload
//!   sweep both drive it;
//! * [`docedit`] — document-shaped sessions: seeded fragment
//!   insertions and subtree removals applied through a real
//!   [`xmldb::Document`] (its splice paths), so the sweep also measures
//!   the whole parse → graft → splice funnel.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod docedit;
pub mod gen;
pub mod workload;

pub use gen::{auction_profile, book_catalog_profile, generate, uniform_profile, DocProfile};
pub use workload::{
    generate_edits, standard_profiles, Edit, EditProfile, EditScript, WorkloadReport,
};
