//! # `xmldb` — the XML substrate of the L-Tree reproduction
//!
//! The paper's setting is an XML database: documents are ordered trees
//! whose begin/end tags form a linear list, region labels `(begin, end)`
//! make ancestor–descendant queries a pair of label comparisons
//! (Figure 1), and updates must maintain those labels — the L-Tree's job.
//!
//! This crate supplies everything around the labeling scheme, built from
//! scratch:
//!
//! * [`parser`] — a small, dependency-free XML parser (elements,
//!   attributes, text, comments, CDATA, processing instructions, entity
//!   references) with line/column error reporting;
//! * [`dom`] — an arena DOM ([`XmlTree`]) with fragment building and
//!   grafting, used both for documents and for insertion fragments;
//!   freed slots are reused in O(1), so building a tree is linear in
//!   its size;
//! * [`serializer`] — back to text, with escaping and pretty-printing;
//! * [`document`] — [`Document<S>`]: a DOM bound to any scheme of the
//!   ordered-labeling trait family ([`ltree_core::LabelingScheme`]);
//!   every element carries the labels of its begin/end tags, kept in a
//!   dense per-element table and maintained across subtree
//!   insertion/deletion. Schemes can be picked at runtime
//!   by name through `Document::parse_str_with` and a
//!   [`ltree_core::registry::SchemeRegistry`];
//! * [`query`] — a path-expression engine (`/a/b//c`, `//title`, `*`)
//!   with two interchangeable evaluators: *navigational* (pointer
//!   chasing, the ground truth) and *label-based* (sort-merge structural
//!   joins over `(begin, end, depth)` — the paper's "exactly one
//!   self-join with label comparisons as predicates");
//! * [`join`] — the stack-based structural join itself;
//! * [`persist`] — whole-document persistence (XML text + the labeling
//!   structure's snapshot, so labels round-trip exactly).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod document;
pub mod dom;
pub mod error;
pub mod join;
pub mod parser;
pub mod persist;
pub mod query;
pub mod serializer;
pub mod tags;

pub use document::Document;
pub use dom::{Content, XmlNodeId, XmlTree};
pub use error::XmlError;
pub use join::SpanRec;
pub use parser::parse;
pub use persist::{load_document, save_document};
pub use query::{Axis, Path};
pub use serializer::{to_string, to_string_pretty};
pub use tags::TagId;
