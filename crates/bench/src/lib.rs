//! # `ltree-bench` — the reproduction harness
//!
//! One runner per experiment (X1–X14), each returning [`table::Table`]s
//! that the `repro` binary prints as markdown, plus the
//! [`sweep`] mode: a scheme × workload × scale cross-product driven by
//! replayable edit scripts, emitted both as a table and as the
//! versioned machine-readable `BENCH_sweep.json` ([`sweep::SweepReport`])
//! that CI tracks against a checked-in baseline. Schemes under
//! comparison are constructed through the registry
//! ([`ltree::default_registry`]), so a new scheme registered there
//! joins every sweep automatically. The workspace builds without
//! external dependencies; [`json`] is the hand-rolled JSON layer that
//! keeps it that way.
//!
//! Everything is seeded; two runs of `repro` produce identical counter
//! columns (wall-clock columns naturally vary).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod json;
pub mod sweep;
pub mod table;

/// Experiment scale: `quick` keeps every experiment under a few seconds;
/// `full` uses the reference sizes of the recorded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for smoke runs and CI.
    Quick,
    /// The reference sizes of the recorded runs.
    Full,
}

impl Scale {
    /// Pick between the quick and full variant of a parameter.
    pub fn pick<T: Copy>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
