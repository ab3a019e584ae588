//! Error types for the L-Tree crates.

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LTreeError>;

/// Errors produced by L-Tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LTreeError {
    /// The `(f, s)` pair violates the paper's requirements.
    InvalidParams {
        /// Offending `f`.
        f: u32,
        /// Offending `s`.
        s: u32,
        /// Human-readable explanation.
        reason: &'static str,
    },
    /// The label space `B^H` no longer fits in a `u128`. This only happens
    /// for astronomically deep trees (the tuner never produces them) and is
    /// reported *before* any mutation takes place.
    LabelOverflow {
        /// Height at which `B^height` overflowed.
        height: u8,
    },
    /// A handle did not refer to a live node of this tree (wrong tree,
    /// freed by `compact`, or internal node where a leaf was expected).
    UnknownHandle,
    /// The referenced leaf exists but was already tombstoned.
    DeletedLeaf,
    /// The operation requires a non-empty tree.
    EmptyTree,
    /// `bulk_build` was invoked on a scheme that already holds items.
    NotEmpty,
    /// The requested batch size was zero.
    EmptyBatch,
    /// A batch would take the structure past the number of items its
    /// storage can index, or its memory could not be reserved. Reported
    /// before anything is allocated; the structure is unchanged.
    CapacityExceeded {
        /// The batch size that was asked for.
        requested: u64,
    },
    /// A scheme name was not found in the [`crate::registry::SchemeRegistry`].
    UnknownScheme {
        /// The name that failed to resolve.
        name: String,
    },
    /// A scheme spec string ("name(args)") could not be parsed or its
    /// arguments were rejected by the factory.
    InvalidSpec {
        /// The offending spec.
        spec: String,
        /// Human-readable explanation.
        reason: &'static str,
    },
    /// A `key=value` option (or bare flag) in a scheme spec was unknown,
    /// duplicated, or carried a malformed value. Unlike
    /// [`InvalidSpec`](Self::InvalidSpec) this names the offending key,
    /// so `remote(host:port,conns=nope)` points at `conns`, not at the
    /// whole spec.
    InvalidOption {
        /// The spec (or scheme name) the option appeared in.
        spec: String,
        /// The offending option key (or the raw argument, when it could
        /// not even be split into `key=value`).
        key: String,
        /// Human-readable explanation.
        reason: &'static str,
    },
    /// A scheme wrapped in the `checked(...)` contract auditor violated
    /// the ordered-labeling contract: the auditor's shadow model and the
    /// scheme disagreed after a mutation (label order, cursor agreement,
    /// `len`/`live_len` consistency, splice-vs-loop equivalence, or
    /// stats monotonicity). This reports a **bug in the scheme**, not a
    /// caller error — the wrapped scheme's state is still whatever the
    /// mutation left behind.
    ContractViolation {
        /// Name of the offending scheme (`name()` of the wrapped inner).
        scheme: String,
        /// Which contract clause broke, with the observed evidence.
        detail: String,
    },
    /// A durable label store (write-ahead log or snapshot) failed:
    /// genuine on-disk corruption (a *complete* record whose checksum
    /// does not verify, a bad snapshot magic/version), an I/O failure
    /// while appending/fsyncing, or an inconsistency detected during
    /// recovery replay. A *torn* final record (crash mid-append) is not
    /// an error — recovery truncates it and keeps the acknowledged
    /// prefix.
    Durability {
        /// What failed, in storage terms.
        context: String,
    },
    /// A remote label store failed in transport or protocol terms:
    /// connect/read/write errors, a protocol-version mismatch, a
    /// malformed frame, or a peer error with no local structured form.
    /// Scheme-level failures (unknown handle, empty batch, …) travel the
    /// wire as their own variants and never degrade into this one.
    Remote {
        /// What failed, in transport terms.
        context: String,
    },
}

impl std::fmt::Display for LTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LTreeError::InvalidParams { f: pf, s, reason } => {
                write!(f, "invalid L-Tree parameters (f={pf}, s={s}): {reason}")
            }
            LTreeError::LabelOverflow { height } => write!(
                f,
                "label space (f+1)^{height} exceeds u128; choose smaller f or rebuild with larger s"
            ),
            LTreeError::UnknownHandle => {
                write!(f, "handle does not refer to a live leaf of this structure")
            }
            LTreeError::DeletedLeaf => write!(f, "leaf was already deleted"),
            LTreeError::EmptyTree => write!(f, "operation requires a non-empty structure"),
            LTreeError::NotEmpty => write!(f, "bulk_build requires an empty structure"),
            LTreeError::EmptyBatch => write!(f, "batch insertion of zero leaves is not meaningful"),
            LTreeError::CapacityExceeded { requested } => write!(
                f,
                "a batch of {requested} items exceeds the structure's capacity; nothing was inserted"
            ),
            LTreeError::UnknownScheme { name } => {
                write!(
                    f,
                    "no labeling scheme registered under the name '{name}' \
                     (spec grammar: `ltree_core::registry` module docs, or \
                     SchemeRegistry::summaries() for the registered names)"
                )
            }
            LTreeError::InvalidSpec { spec, reason } => {
                write!(
                    f,
                    "invalid scheme spec '{spec}': {reason} \
                     (spec grammar: `ltree_core::registry` module docs \
                     and the spec-grammar table in ARCHITECTURE.md)"
                )
            }
            LTreeError::InvalidOption { spec, key, reason } => {
                write!(
                    f,
                    "invalid option '{key}' in scheme spec '{spec}': {reason} \
                     (option grammar: the spec-grammar table in ARCHITECTURE.md \
                     and the `ltree_core::registry` module docs)"
                )
            }
            LTreeError::ContractViolation { scheme, detail } => {
                write!(
                    f,
                    "ordered-labeling contract violated by scheme '{scheme}': {detail} \
                     (reported by the checked(...) auditor; see `ltree-checked`)"
                )
            }
            LTreeError::Durability { context } => {
                write!(f, "durable label store: {context}")
            }
            LTreeError::Remote { context } => {
                write!(f, "remote label store: {context}")
            }
        }
    }
}

impl std::error::Error for LTreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LTreeError::InvalidParams {
            f: 5,
            s: 2,
            reason: "nope",
        };
        assert!(e.to_string().contains("f=5"));
        assert!(e.to_string().contains("nope"));
        let e = LTreeError::LabelOverflow { height: 200 };
        assert!(e.to_string().contains("200"));
    }

    #[test]
    fn option_errors_name_the_key_and_the_grammar_table() {
        let e = LTreeError::InvalidOption {
            spec: "remote".into(),
            key: "conns".into(),
            reason: "expected a positive integer",
        };
        let msg = e.to_string();
        assert!(msg.contains("'conns'"), "{msg}");
        assert!(msg.contains("ARCHITECTURE.md"), "{msg}");
        assert!(msg.contains("positive integer"), "{msg}");
    }
}
