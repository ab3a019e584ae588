//! The update-workload driver over any [`LabelingScheme`]: seeded,
//! replayable [`EditScript`]s.
//!
//! [`generate_edits`] turns an [`EditProfile`] into a script once per
//! (profile, seed); every scheme then replays the same script, as one
//! [`Splice`] per edit ([`EditScript::replay`]) or as single-item calls
//! ([`EditScript::replay_incremental`]). The experiment runners and the
//! sweep in `ltree-bench` read the [`WorkloadReport`]: amortized label
//! writes / node touches (the paper's cost unit), label width, memory
//! and wall time. Time inside the scheme's own calls is measured by the
//! `traced(…)` wrapper, not here.

use ltree_core::rng::SplitMix64;
use ltree_core::{LabelingScheme, LeafHandle, Result, SchemeStats, Splice};
use std::time::{Duration, Instant};

/// Everything the experiment tables need from one run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Scheme under test.
    pub scheme: &'static str,
    /// Stream shape.
    pub workload: &'static str,
    /// Items present after the initial bulk build.
    pub initial: usize,
    /// Leaves inserted by the stream.
    pub inserted: u64,
    /// Items deleted by the stream.
    pub deleted: u64,
    /// Cost counters accumulated over the stream only.
    pub stats: SchemeStats,
    /// Bits needed for any label at the end.
    pub label_space_bits: u32,
    /// Approximate heap use at the end.
    pub memory_bytes: usize,
    /// Wall-clock time of the stream (driver bookkeeping included).
    pub wall: Duration,
}

impl WorkloadReport {
    /// Amortized label writes per inserted leaf.
    pub fn amortized_label_writes(&self) -> f64 {
        self.stats.label_writes as f64 / (self.inserted.max(1)) as f64
    }

    /// Amortized total maintenance cost per inserted leaf.
    pub fn amortized_cost(&self) -> f64 {
        (self.stats.label_writes + self.stats.node_touches) as f64 / (self.inserted.max(1)) as f64
    }
}

/// Check that labels strictly increase along `live`, the driver's order.
fn verify_order<S: LabelingScheme>(scheme: &S, live: &[LeafHandle]) -> Result<bool> {
    let mut prev: Option<u128> = None;
    for &h in live {
        let l = scheme.label_of(h)?;
        if let Some(p) = prev {
            if p >= l {
                return Ok(false);
            }
        }
        prev = Some(l);
    }
    Ok(true)
}

/// One logical edit of a generated update script, phrased in *runs* so
/// the replayer can apply it as a single [`ltree_core::Splice`]. `at` is
/// a position among the **live** items at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Insert `count` fresh items immediately after the live item at
    /// position `at` (a subtree landing as one sibling run, paper §4.1).
    InsertRun {
        /// Live position of the anchor.
        at: usize,
        /// Items in the run (`>= 1`).
        count: usize,
    },
    /// Delete the run of `count` live items starting at position `at`
    /// (subtree removal, paper §2.3 — tombstones only, no relabeling).
    DeleteRun {
        /// Live position of the first item of the run.
        at: usize,
        /// Live items to delete (`>= 1`).
        count: usize,
    },
}

/// The workload shapes the scheme×workload sweep cross-products. Each
/// maps to a seeded [`EditScript`]; sizes scale with the `ops` budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EditProfile {
    /// Few large insert runs at random anchors — bulk document loading.
    /// With `run: 1`, replayed incrementally, it is the uniform
    /// single-insert stream the X3–X11 experiments use.
    BulkLoad {
        /// Items per run.
        run: usize,
    },
    /// Insert runs at the document tail — log/feed-style growth. With
    /// `run: 1` it is the append stream the X3–X11 experiments use.
    AppendHeavy {
        /// Items per run.
        run: usize,
    },
    /// Single-item inserts hammering a small hot prefix (the paper's
    /// "uneven insertion rates", §6) — the hotspot stream the X3–X11
    /// experiments use.
    SkewedPoint {
        /// Fraction of the document that is hot.
        hot_fraction: f64,
        /// Probability an insert targets the hot region.
        hot_weight: f64,
    },
    /// Insert runs mixed with delete runs — an interactive edit session.
    MixedEdit {
        /// Items per run.
        run: usize,
        /// Probability an edit is a deletion.
        delete_ratio: f64,
    },
    /// Mostly subtree removals, with enough inserts to keep the
    /// document from draining.
    DeleteHeavy {
        /// Items per run.
        run: usize,
    },
}

impl EditProfile {
    /// Short name for tables and the JSON sweep output.
    pub fn name(&self) -> &'static str {
        match self {
            EditProfile::BulkLoad { .. } => "bulk-load",
            EditProfile::AppendHeavy { .. } => "append-heavy",
            EditProfile::SkewedPoint { .. } => "skewed-point",
            EditProfile::MixedEdit { .. } => "mixed-edit",
            EditProfile::DeleteHeavy { .. } => "delete-heavy",
        }
    }
}

/// The sweep's standard workload set, sized for an `ops` budget.
pub fn standard_profiles(ops: usize) -> Vec<EditProfile> {
    let run = (ops / 64).clamp(4, 512);
    vec![
        EditProfile::BulkLoad { run: run * 4 },
        EditProfile::AppendHeavy { run },
        EditProfile::SkewedPoint {
            hot_fraction: 0.05,
            hot_weight: 0.9,
        },
        EditProfile::MixedEdit {
            run,
            delete_ratio: 0.3,
        },
        EditProfile::DeleteHeavy { run },
    ]
}

/// A generated, replayable update script: the profile it came from, the
/// initial bulk-build size it assumes, and the edits in order.
#[derive(Debug, Clone)]
pub struct EditScript {
    /// The shape that generated the script.
    pub profile: EditProfile,
    /// Items bulk-built before the first edit.
    pub initial: usize,
    /// The edits, in replay order.
    pub edits: Vec<Edit>,
}

/// Generate the edit script for `profile`: inserts continue until the
/// script carries at least `ops` inserted items (deletes ride along per
/// the profile). Scripts are pure data — deterministic per seed and
/// scheme-independent, so every scheme in a sweep replays the *same*
/// logical stream.
pub fn generate_edits(profile: EditProfile, initial: usize, ops: usize, seed: u64) -> EditScript {
    let mut rng = SplitMix64::new(seed);
    let mut live = initial.max(1);
    let mut inserted = 0usize;
    let mut edits = Vec::new();
    while inserted < ops {
        let budget = ops - inserted;
        match profile {
            EditProfile::BulkLoad { run } => {
                let count = run.min(budget).max(1);
                edits.push(Edit::InsertRun {
                    at: rng.gen_range(0..live),
                    count,
                });
                live += count;
                inserted += count;
            }
            EditProfile::AppendHeavy { run } => {
                let count = run.min(budget).max(1);
                edits.push(Edit::InsertRun {
                    at: live - 1,
                    count,
                });
                live += count;
                inserted += count;
            }
            EditProfile::SkewedPoint {
                hot_fraction,
                hot_weight,
            } => {
                let hot_len = ((live as f64 * hot_fraction).ceil() as usize).clamp(1, live);
                let at = if rng.gen_bool(hot_weight.clamp(0.0, 1.0)) {
                    rng.gen_range(0..hot_len)
                } else {
                    rng.gen_range(0..live)
                };
                edits.push(Edit::InsertRun { at, count: 1 });
                live += 1;
                inserted += 1;
            }
            EditProfile::MixedEdit { run, delete_ratio } => {
                if live > run && rng.gen_bool(delete_ratio.clamp(0.0, 0.9)) {
                    let count = rng.gen_range(1..run.max(2)).min(live - 1);
                    let at = rng.gen_range(0..live - count);
                    edits.push(Edit::DeleteRun { at, count });
                    live -= count;
                } else {
                    let count = rng.gen_range(1..run.max(2)).min(budget).max(1);
                    edits.push(Edit::InsertRun {
                        at: rng.gen_range(0..live),
                        count,
                    });
                    live += count;
                    inserted += count;
                }
            }
            EditProfile::DeleteHeavy { run } => {
                // Two removals per insertion run, sized so the document
                // hovers around its initial size instead of draining.
                if live > 2 * run && rng.gen_bool(0.66) {
                    let count = run.min(live - 1);
                    let at = rng.gen_range(0..live - count);
                    edits.push(Edit::DeleteRun { at, count });
                    live -= count;
                } else {
                    let count = (2 * run).min(budget.max(1));
                    edits.push(Edit::InsertRun {
                        at: rng.gen_range(0..live),
                        count,
                    });
                    live += count;
                    inserted += count;
                }
            }
        }
    }
    EditScript {
        profile,
        initial: initial.max(1),
        edits,
    }
}

impl EditScript {
    /// Replay against `scheme` with **one splice per edit** — the
    /// batched path the sweep measures. Stats cover the edits only: the
    /// initial bulk build is reset away, since bulk loading is not an
    /// update in the paper's model.
    pub fn replay<S: LabelingScheme>(&self, scheme: &mut S) -> Result<WorkloadReport> {
        self.replay_inner(scheme, true)
    }

    /// Replay with single-item calls only (`insert_after` loops and
    /// item-by-item deletes) — the per-node reference path.
    pub fn replay_incremental<S: LabelingScheme>(&self, scheme: &mut S) -> Result<WorkloadReport> {
        self.replay_inner(scheme, false)
    }

    fn replay_inner<S: LabelingScheme>(
        &self,
        scheme: &mut S,
        batched: bool,
    ) -> Result<WorkloadReport> {
        let mut live: Vec<LeafHandle> = scheme.bulk_build(self.initial)?;
        scheme.reset_scheme_stats();
        let start = Instant::now();
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        for &edit in &self.edits {
            match edit {
                Edit::InsertRun { at, count } => {
                    let at = at.min(live.len() - 1);
                    let anchor = live[at];
                    let hs = if batched {
                        scheme
                            .splice(Splice::InsertAfter { anchor, count })?
                            .into_inserted()
                    } else {
                        let mut out = Vec::with_capacity(count);
                        let mut cur = anchor;
                        for _ in 0..count {
                            cur = scheme.insert_after(cur)?;
                            out.push(cur);
                        }
                        out
                    };
                    inserted += hs.len() as u64;
                    live.splice(at + 1..at + 1, hs);
                }
                Edit::DeleteRun { at, count } => {
                    let at = at.min(live.len().saturating_sub(1));
                    let count = count.min(live.len() - at).min(live.len() - 1);
                    if count == 0 {
                        continue;
                    }
                    let n = if batched {
                        scheme
                            .splice(Splice::DeleteRun {
                                first: live[at],
                                count,
                            })?
                            .deleted()
                    } else {
                        for j in 0..count {
                            scheme.delete(live[at + j])?;
                        }
                        count
                    };
                    debug_assert_eq!(n, count, "the run is live by construction");
                    deleted += n as u64;
                    live.drain(at..at + count);
                }
            }
        }
        let wall = start.elapsed();
        debug_assert!(
            verify_order(scheme, &live)?,
            "scheme broke the order contract"
        );
        Ok(WorkloadReport {
            scheme: scheme.name(),
            workload: self.profile.name(),
            initial: self.initial,
            inserted,
            deleted,
            stats: scheme.scheme_stats(),
            label_space_bits: scheme.label_space_bits(),
            memory_bytes: scheme.memory_bytes(),
            wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::{LTree, Params};

    fn ltree() -> LTree {
        LTree::new(Params::new(4, 2).unwrap())
    }

    #[test]
    fn edit_scripts_cover_every_profile_and_are_deterministic() {
        for profile in standard_profiles(400) {
            let a = generate_edits(profile, 100, 400, 6);
            let b = generate_edits(profile, 100, 400, 6);
            assert_eq!(a.edits, b.edits, "{}", profile.name());
            let inserted: usize = a
                .edits
                .iter()
                .map(|e| match e {
                    Edit::InsertRun { count, .. } => *count,
                    Edit::DeleteRun { .. } => 0,
                })
                .sum();
            assert!(inserted >= 400, "{}: {} inserted", profile.name(), inserted);
            let mut s = ltree();
            let r = a.replay(&mut s).unwrap();
            assert_eq!(r.inserted as usize, inserted, "{}", profile.name());
            assert_eq!(r.workload, profile.name());
            s.check_invariants().unwrap();
        }
    }

    #[test]
    fn delete_heavy_scripts_really_delete_runs() {
        let script = generate_edits(EditProfile::DeleteHeavy { run: 16 }, 200, 600, 3);
        assert!(
            script
                .edits
                .iter()
                .any(|e| matches!(e, Edit::DeleteRun { .. })),
            "delete-heavy must exercise Splice::DeleteRun"
        );
        let mut s = ltree();
        let r = script.replay(&mut s).unwrap();
        assert!(r.deleted > 0);
        assert_eq!(r.stats.deletes, r.deleted);
        s.check_invariants().unwrap();
    }

    #[test]
    fn batched_and_incremental_replay_agree() {
        for profile in standard_profiles(300) {
            let script = generate_edits(profile, 64, 300, 12);
            let mut a = ltree();
            let ra = script.replay(&mut a).unwrap();
            let mut b = ltree();
            let rb = script.replay_incremental(&mut b).unwrap();
            assert_eq!(ra.inserted, rb.inserted, "{}", profile.name());
            assert_eq!(ra.deleted, rb.deleted, "{}", profile.name());
            assert_eq!(
                a.live_len(),
                b.live_len(),
                "{}: replays diverged",
                profile.name()
            );
            // The batched path must not do more label maintenance than
            // the single-insert path (Section 4.1's whole point).
            assert!(
                ra.stats.label_writes <= rb.stats.label_writes,
                "{}: batched wrote more labels ({} > {})",
                profile.name(),
                ra.stats.label_writes,
                rb.stats.label_writes
            );
        }
    }

    #[test]
    fn hotspot_stream_is_heavier_than_uniform_for_gap() {
        // A fixed-gap scheme writes more labels under a hot prefix than
        // under uniform single inserts: the hot gaps run out (paper §6).
        let gap_writes = |profile| {
            let script = generate_edits(profile, 500, 500, 2);
            let mut g = labeling_baselines::GapLabeling::new();
            script.replay_incremental(&mut g).unwrap()
        };
        let uniform = gap_writes(EditProfile::BulkLoad { run: 1 });
        let hot = gap_writes(EditProfile::SkewedPoint {
            hot_fraction: 0.02,
            hot_weight: 0.95,
        });
        assert!(
            hot.amortized_label_writes() > uniform.amortized_label_writes(),
            "gap labeling must suffer under hotspots: {} vs {}",
            hot.amortized_label_writes(),
            uniform.amortized_label_writes()
        );
    }

    #[test]
    fn replay_clamps_out_of_range_positions() {
        // EditScript fields are public; hand-built scripts with stale
        // positions must degrade to the nearest live item, not panic.
        let script = EditScript {
            profile: EditProfile::BulkLoad { run: 4 },
            initial: 4,
            edits: vec![
                Edit::InsertRun {
                    at: 10_000,
                    count: 3,
                },
                Edit::DeleteRun {
                    at: 10_000,
                    count: 2,
                },
            ],
        };
        let mut s = ltree();
        let r = script.replay(&mut s).unwrap();
        assert_eq!(r.inserted, 3);
        s.check_invariants().unwrap();
    }

    #[test]
    fn reports_are_reproducible() {
        let script = generate_edits(EditProfile::BulkLoad { run: 1 }, 64, 256, 9);
        let mut a = ltree();
        let ra = script.replay(&mut a).unwrap();
        let mut b = ltree();
        let rb = script.replay(&mut b).unwrap();
        assert_eq!(ra.stats, rb.stats);
        assert_eq!(ra.label_space_bits, rb.label_space_bits);
    }
}
