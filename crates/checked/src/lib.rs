//! # `ltree-checked` — the contract auditor for ordered labeling schemes
//!
//! [`CheckedScheme`] wraps any scheme implementing the ordered-labeling
//! trait family and audits the **whole contract** after every mutation
//! (or every `N`-th, see [`CheckedScheme::with_every`]), generalizing
//! `ltree_core::invariants` — which knows only the materialized L-Tree's
//! internal shape — to anything behind [`DynScheme`]:
//!
//! * **order** — labels of live items strictly increase along list
//!   order, and `label_of` succeeds for every live handle;
//! * **cursor agreement** — the streaming cursor yields handles in
//!   strictly increasing label order, every yielded handle resolves
//!   through `label_of`, and the cursor's live subsequence equals the
//!   shadow list exactly;
//! * **count consistency** — `live_len()` matches the shadow's live
//!   count and never exceeds `len()`, which never exceeds the number of
//!   items ever tracked;
//! * **splice-vs-loop equivalence** — the shadow is maintained with the
//!   *loop* semantics of every batch op (the `BatchLabeling` default
//!   bodies), so a native `splice` fast-path that lands items anywhere
//!   other than where the equivalent single-op loop would violates the
//!   cursor-agreement check;
//! * **stats monotonicity** — [`SchemeStats`] counters never decrease
//!   between resets.
//!
//! The shadow model is the same `(handle, alive)` reference list the
//! workspace's conformance suite maintains, so a `checked(...)` failure
//! and a conformance failure point at the same clause of the contract —
//! but the auditor travels *inside* the composition: `checked(gap)`
//! audits the baseline, `sharded(4,checked(ltree(4,2)))` audits every
//! segment independently, and `checked(served(ltree))` audits a remote
//! client against the shadow without the server knowing.
//!
//! Violations are reported as [`LTreeError::ContractViolation`] from the
//! mutation that exposed them. The wrapped scheme keeps whatever state
//! the mutation left behind; the report is diagnostic, not transactional.
//!
//! ```
//! use ltree_checked::CheckedScheme;
//! use ltree_core::{LTree, OrderedLabelingMut, Params};
//!
//! let mut s = CheckedScheme::new(LTree::new(Params::new(4, 2).unwrap()));
//! let hs = s.bulk_build(8).unwrap();   // audited
//! s.insert_after(hs[3]).unwrap();      // audited
//! assert_eq!(s.audits_run(), 2);
//! ```
//!
//! Or through the registry, composable like any spec —
//! `checked(ltree(4,2))`, `checked(sharded(2,gap),every=16)`:
//!
//! ```
//! use ltree_core::{OrderedLabelingMut, SchemeRegistry};
//!
//! let mut reg = SchemeRegistry::with_builtin();
//! ltree_checked::register(&mut reg);
//! let mut s = reg.build("checked(ltree(4,2))").unwrap();
//! s.bulk_build(16).unwrap();
//! ```
//!
//! The crate also hosts [`interleave`], the exhaustive interleaving
//! explorer behind the loom-style concurrency models in
//! `crates/remote/tests/loom_models.rs`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cmp::Ordering;

use ltree_core::metrics::{sort_metrics, Metric};
use ltree_core::registry::{SpecArg, SpecOptions};
use ltree_core::{
    BatchLabeling, Cursor, DynScheme, Instrumented, LTreeError, LeafHandle, OrderedLabeling,
    OrderedLabelingMut, Result, SchemeRegistry, SchemeStats, Splice, SpliceResult,
};

pub mod interleave;

/// A contract auditor wrapping any ordered labeling scheme. See the
/// [crate docs](crate) for what is audited and when.
#[derive(Debug)]
pub struct CheckedScheme<S> {
    inner: S,
    /// `(handle, alive)` in list order — the ground truth the scheme is
    /// audited against, maintained with loop semantics.
    shadow: Vec<(LeafHandle, bool)>,
    /// Audit every `every`-th mutation (1 = every mutation).
    every: u64,
    mutations: u64,
    audits: u64,
    /// Stats snapshot from the previous audit, for the monotonicity check.
    prev_stats: SchemeStats,
}

impl<S: OrderedLabeling + Instrumented> CheckedScheme<S> {
    /// Wrap `inner`, auditing after every mutation.
    ///
    /// The wrapped scheme must be empty (or about to be `bulk_build`t):
    /// the shadow starts empty and can only track what flows through
    /// this wrapper.
    pub fn new(inner: S) -> Self {
        Self::with_every(inner, 1)
    }

    /// Wrap `inner`, auditing after every `every`-th mutation. The audit
    /// walks the full list (`O(n)` labels plus one cursor pass), so
    /// `every > 1` trades detection latency for throughput on large
    /// schemes. `every` must be at least 1.
    pub fn with_every(inner: S, every: u64) -> Self {
        let prev_stats = inner.scheme_stats();
        CheckedScheme {
            inner,
            shadow: Vec::new(),
            every: every.max(1),
            mutations: 0,
            audits: 0,
            prev_stats,
        }
    }

    /// The wrapped scheme, discarding the shadow.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Number of full audits run so far.
    pub fn audits_run(&self) -> u64 {
        self.audits
    }

    /// Shorthand for a violation rooted at the wrapped scheme.
    fn violation(&self, detail: String) -> LTreeError {
        LTreeError::ContractViolation {
            scheme: self.inner.name().to_owned(),
            detail,
        }
    }

    /// Index of the **live** shadow entry holding `h`, if any. Schemes
    /// with physical removal may re-mint a dead entry's handle value, so
    /// lookups must never match tombstones.
    fn live_pos(&self, h: LeafHandle) -> Option<usize> {
        self.shadow.iter().position(|&(sh, alive)| alive && sh == h)
    }

    /// Position of an insertion anchor: a live entry when one exists,
    /// else a tombstone holding `h` — anchoring on deleted items is
    /// scheme-specific (the L-Tree allows it; the tombstone still holds
    /// a list position), so the shadow accepts whatever the scheme did.
    fn anchor_pos(&self, h: LeafHandle) -> Option<usize> {
        self.live_pos(h)
            .or_else(|| self.shadow.iter().position(|&(sh, _)| sh == h))
    }

    /// Record a freshly minted handle at shadow position `at`; a handle
    /// colliding with a live one is a contract violation (two live items
    /// would be indistinguishable to every caller).
    fn admit(&mut self, h: LeafHandle, at: usize) -> Result<()> {
        if self.live_pos(h).is_some() {
            return Err(self.violation(format!(
                "insert returned handle {} which is already live",
                h.0
            )));
        }
        self.shadow.insert(at, (h, true));
        Ok(())
    }

    /// Mirror a successful delete-run of `deleted` live items starting
    /// at (or after) `first`, with the loop semantics of
    /// `BatchLabeling::delete_run`: live items at or after `first` in
    /// list order, tombstones skipped.
    fn retire_run(&mut self, first: LeafHandle, deleted: usize) -> Result<()> {
        // `first` may itself be anything the scheme tracks; anchoring on
        // a tombstone is scheme-specific, so fall back to the dead entry
        // when no live one matches.
        let start = self
            .live_pos(first)
            .or_else(|| self.shadow.iter().position(|&(sh, _)| sh == first))
            .ok_or_else(|| {
                self.violation(format!(
                    "delete_run accepted untracked first handle {}",
                    first.0
                ))
            })?;
        let mut remaining = deleted;
        for j in start..self.shadow.len() {
            if remaining == 0 {
                break;
            }
            if self.shadow[j].1 {
                self.shadow[j].1 = false;
                remaining -= 1;
            }
        }
        if remaining != 0 {
            return Err(self.violation(format!(
                "delete_run reported {deleted} deletions but only {} live items \
                 existed at or after the anchor",
                deleted - remaining
            )));
        }
        Ok(())
    }

    /// Bump the mutation counter and run the sampled audit.
    fn after_mutation(&mut self) -> Result<()> {
        self.mutations += 1;
        if self.mutations.is_multiple_of(self.every) {
            self.audit()?;
        }
        Ok(())
    }

    /// Run the full audit now, regardless of sampling. Callers holding a
    /// concrete `CheckedScheme` can use this as a final check after a
    /// workload; through the registry the sampled audits do the work.
    pub fn audit(&mut self) -> Result<()> {
        self.audits += 1;

        // Counts: the scheme may keep tombstones (live_len < len) and may
        // compact them away (len shrinks), but it can never track more
        // items than ever flowed through this wrapper, nor fewer than
        // are still alive.
        let live = self.shadow.iter().filter(|&&(_, a)| a).count();
        if self.inner.live_len() != live {
            return Err(self.violation(format!(
                "live_len() = {} but {live} live items were tracked",
                self.inner.live_len()
            )));
        }
        if self.inner.len() < live {
            return Err(self.violation(format!(
                "len() = {} < live_len() = {live}",
                self.inner.len()
            )));
        }
        if self.inner.len() > self.shadow.len() {
            return Err(self.violation(format!(
                "len() = {} exceeds the {} items ever tracked",
                self.inner.len(),
                self.shadow.len()
            )));
        }
        if self.inner.is_empty() != (self.inner.len() == 0) {
            return Err(self.violation("is_empty() disagrees with len()".into()));
        }

        // Order: labels of live items strictly increase in list order,
        // and every live handle resolves.
        let mut prev: Option<(LeafHandle, u128)> = None;
        for &(h, alive) in &self.shadow {
            if !alive {
                continue;
            }
            let l = self.inner.label_of(h).map_err(|e| {
                self.violation(format!("label_of failed for live handle {}: {e}", h.0))
            })?;
            if let Some((ph, pl)) = prev {
                if pl >= l {
                    return Err(self.violation(format!(
                        "label order broken: label({}) = {pl} >= label({}) = {l}",
                        ph.0, h.0
                    )));
                }
            }
            prev = Some((h, l));
        }

        // Cursor: strictly increasing labels over *everything* it yields
        // (tombstones included where the scheme keeps them), every yield
        // resolvable, and the live subsequence equal to the shadow. The
        // shadow carries loop semantics, so this is also the
        // splice-vs-loop equivalence check for native batch paths.
        let live_set: std::collections::HashSet<u64> = self
            .shadow
            .iter()
            .filter(|&&(_, a)| a)
            .map(|&(h, _)| h.0)
            .collect();
        let mut cursor_live: Vec<LeafHandle> = Vec::with_capacity(live);
        let mut prev: Option<(LeafHandle, u128)> = None;
        for h in Cursor::new(&self.inner) {
            let l = self
                .inner
                .label_of(h)
                .map_err(|e| self.violation(format!("cursor yielded handle {}: {e}", h.0)))?;
            if let Some((ph, pl)) = prev {
                if pl >= l {
                    return Err(self.violation(format!(
                        "cursor out of label order: label({}) = {pl} >= label({}) = {l}",
                        ph.0, h.0
                    )));
                }
            }
            prev = Some((h, l));
            if live_set.contains(&h.0) {
                cursor_live.push(h);
            }
        }
        let expect: Vec<LeafHandle> = self
            .shadow
            .iter()
            .filter(|&&(_, a)| a)
            .map(|&(h, _)| h)
            .collect();
        if cursor_live != expect {
            return Err(self.violation(format!(
                "cursor live subsequence diverges from the shadow list \
                 (cursor walked {} live items, shadow tracks {})",
                cursor_live.len(),
                expect.len()
            )));
        }

        // Stats: counters only climb between resets.
        let stats = self.inner.scheme_stats();
        if !stats.dominates(&self.prev_stats) {
            return Err(self.violation(format!(
                "stats went backwards: {:?} -> {stats:?}",
                self.prev_stats
            )));
        }
        self.prev_stats = stats;
        Ok(())
    }
}

impl<S: OrderedLabeling + Instrumented> OrderedLabeling for CheckedScheme<S> {
    fn name(&self) -> &'static str {
        "checked"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        self.inner.label_of(h)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn live_len(&self) -> usize {
        self.inner.live_len()
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        self.inner.first_in_order()
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        self.inner.next_in_order(h)
    }

    fn label_space_bits(&self) -> u32 {
        self.inner.label_space_bits()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
            + self.shadow.capacity() * std::mem::size_of::<(LeafHandle, bool)>()
    }

    fn compare(&self, a: LeafHandle, b: LeafHandle) -> Result<Ordering> {
        self.inner.compare(a, b)
    }
}

impl<S: DynScheme> OrderedLabelingMut for CheckedScheme<S> {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        let hs = self.inner.bulk_build(n)?;
        if hs.len() != n {
            return Err(self.violation(format!("bulk_build({n}) returned {} handles", hs.len())));
        }
        for &h in &hs {
            let at = self.shadow.len();
            self.admit(h, at)?;
        }
        self.after_mutation()?;
        Ok(hs)
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        let h = self.inner.insert_first()?;
        self.admit(h, 0)?;
        self.after_mutation()?;
        Ok(h)
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let h = self.inner.insert_after(anchor)?;
        let at = self.anchor_pos(anchor).ok_or_else(|| {
            self.violation(format!(
                "insert_after accepted untracked anchor {}",
                anchor.0
            ))
        })?;
        self.admit(h, at + 1)?;
        self.after_mutation()?;
        Ok(h)
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let h = self.inner.insert_before(anchor)?;
        let at = self.anchor_pos(anchor).ok_or_else(|| {
            self.violation(format!(
                "insert_before accepted untracked anchor {}",
                anchor.0
            ))
        })?;
        self.admit(h, at)?;
        self.after_mutation()?;
        Ok(h)
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        self.inner.delete(h)?;
        let at = self
            .live_pos(h)
            .ok_or_else(|| self.violation(format!("delete accepted untracked handle {}", h.0)))?;
        self.shadow[at].1 = false;
        self.after_mutation()
    }
}

impl<S: DynScheme> BatchLabeling for CheckedScheme<S> {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        // Route through the inner's native fast-path; the shadow mirrors
        // the loop semantics, so the audit checks their equivalence.
        let hs = self.inner.insert_many_after(anchor, k)?;
        if hs.len() != k {
            return Err(self.violation(format!(
                "insert_many_after(_, {k}) returned {} handles",
                hs.len()
            )));
        }
        let at = self.anchor_pos(anchor).ok_or_else(|| {
            self.violation(format!(
                "insert_many_after accepted untracked anchor {}",
                anchor.0
            ))
        })?;
        for (j, &h) in hs.iter().enumerate() {
            self.admit(h, at + 1 + j)?;
        }
        self.after_mutation()?;
        Ok(hs)
    }

    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        let deleted = self.inner.delete_run(first, count)?;
        if deleted > count {
            return Err(
                self.violation(format!("delete_run(_, {count}) claims {deleted} deletions"))
            );
        }
        self.retire_run(first, deleted)?;
        self.after_mutation()?;
        Ok(deleted)
    }

    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        // Do not forward `splice` wholesale: going through the wrapper's
        // own batch methods keeps the shadow mirrored while still
        // exercising the inner's native splice components.
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

impl<S: OrderedLabeling + Instrumented> Instrumented for CheckedScheme<S> {
    fn scheme_stats(&self) -> SchemeStats {
        self.inner.scheme_stats()
    }

    fn reset_scheme_stats(&mut self) {
        self.inner.reset_scheme_stats();
        // The monotonicity baseline restarts with the counters.
        self.prev_stats = self.inner.scheme_stats();
    }

    fn metrics(&self) -> Vec<Metric> {
        // The audit count is the auditor's one series of its own; the
        // inner stack's metrics pass through so `checked(traced(...))`
        // scrapes.
        let mut out = self.inner.metrics();
        out.push(Metric::counter("audit/runs", self.audits));
        sort_metrics(&mut out);
        out
    }
}

// ----------------------------------------------------------------------
// Registry wiring
// ----------------------------------------------------------------------

/// Register the `checked` composite spec:
///
/// * `checked(inner)` — audit `inner` after every mutation;
/// * `checked(inner,every=N)` — audit every `N`-th mutation.
///
/// `inner` is any spec the same registry resolves, recursively —
/// `checked(ltree(4,2))`, `checked(sharded(2,gap))` — and the wrapper
/// itself composes the other way around: `sharded(4,checked(ltree(4,2)))`
/// audits each segment independently. See the grammar in
/// [`ltree_core::registry`].
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_composite(
        "checked",
        "contract auditor over any inner scheme; args: (inner[,every=N])",
        |reg, cfg, args| {
            let Some(SpecArg::Spec(inner)) = args.first() else {
                return Err(LTreeError::InvalidSpec {
                    spec: "checked".into(),
                    reason: "the first argument must be an inner scheme spec",
                });
            };
            let mut opts = SpecOptions::parse("checked", &args[1..])?;
            let every = opts.take_u64("every")?.unwrap_or(1);
            if every == 0 {
                return Err(LTreeError::InvalidOption {
                    spec: "checked".into(),
                    key: "every".into(),
                    reason: "must be at least 1",
                });
            }
            opts.finish()?;
            let inner = reg.build_with(inner, cfg)?;
            Ok(Box::new(CheckedScheme::with_every(inner, every)))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::metrics::MetricValue;
    use ltree_core::{LTree, Params};

    fn tree() -> LTree {
        LTree::new(Params::new(4, 2).unwrap())
    }

    #[test]
    fn clean_scheme_passes_every_audit() {
        let mut s = CheckedScheme::new(tree());
        let hs = s.bulk_build(10).unwrap();
        s.insert_after(hs[4]).unwrap();
        s.insert_before(hs[0]).unwrap();
        s.insert_first().unwrap();
        s.delete(hs[2]).unwrap();
        let batch = s.insert_many_after(hs[7], 5).unwrap();
        assert_eq!(batch.len(), 5);
        let d = s
            .splice(Splice::DeleteRun {
                first: hs[5],
                count: 3,
            })
            .unwrap()
            .deleted();
        assert_eq!(d, 3);
        assert_eq!(s.audits_run(), 7);
        s.audit().unwrap();
    }

    #[test]
    fn sampling_skips_audits_but_not_shadow_updates() {
        let mut s = CheckedScheme::with_every(tree(), 4);
        let hs = s.bulk_build(8).unwrap(); // mutation 1
        s.insert_after(hs[0]).unwrap(); // 2
        s.insert_after(hs[1]).unwrap(); // 3
        assert_eq!(s.audits_run(), 0);
        s.insert_after(hs[2]).unwrap(); // 4 → audit
        assert_eq!(s.audits_run(), 1);
        // The skipped mutations were still mirrored: a full audit passes.
        s.audit().unwrap();
    }

    #[test]
    fn registry_spec_builds_and_audits() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        let mut s = reg.build("checked(ltree(4,2),every=2)").unwrap();
        let hs = s.bulk_build(12).unwrap();
        s.splice(Splice::InsertAfter {
            anchor: hs[3],
            count: 7,
        })
        .unwrap();
        assert_eq!(s.live_len(), 19);
        assert_eq!(s.name(), "checked");
        // The audit counter is the auditor's one series; it reports no
        // segment cost of its own.
        let metrics = s.metrics();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["audit/runs"]);
        assert_eq!(metrics[0].value, MetricValue::Counter(1));
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        assert!(matches!(
            reg.build("checked(ltree(4,2),every=0)"),
            Err(LTreeError::InvalidOption { .. })
        ));
        assert!(matches!(
            reg.build("checked(every=2)"),
            Err(LTreeError::InvalidSpec { .. })
        ));
        assert!(matches!(
            reg.build("checked(ltree(4,2),bogus=1)"),
            Err(LTreeError::InvalidOption { .. })
        ));
    }

    #[test]
    fn stats_regression_is_reported() {
        // `reset_scheme_stats` on the *inner* scheme behind the
        // auditor's back makes the monotonicity check fire — the same
        // signal a scheme with a buggy counter would produce.
        let mut s = CheckedScheme::new(tree());
        let hs = s.bulk_build(6).unwrap();
        for _ in 0..4 {
            s.insert_after(hs[0]).unwrap();
        }
        assert!(s.scheme_stats().inserts >= 4);
        s.inner.reset_scheme_stats();
        let err = s.insert_after(hs[0]).unwrap_err();
        assert!(matches!(err, LTreeError::ContractViolation { .. }), "{err}");
        assert!(err.to_string().contains("stats went backwards"), "{err}");
    }
}
