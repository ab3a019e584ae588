//! Pure label-layout arithmetic shared by the materialized and the
//! *virtual* L-Tree.
//!
//! Section 4.2 of the paper observes that the whole L-Tree structure is
//! implicit in the base-`(f+1)` digits of the leaf labels. The functions in
//! this module are the single source of truth for how labels are assigned
//! when subtrees are (re)built, so the virtual implementation
//! (`ltree-virtual`) reproduces the materialized labels bit-for-bit — a
//! property the integration test-suite checks exhaustively.
//!
//! A bulk load's labels come from [`complete_offsets`], an iterator that
//! steps [`complete_offset`]'s digits from one leaf to the next. Its two
//! users label as they go: `LTree`'s bulk load, in the same pass that
//! builds the tree, and `VirtualLTree::bulk_build`, as it fills its
//! B-tree. Neither collects the labels first.

use crate::error::{LTreeError, Result};
use crate::params::Params;

/// Ceiling division for `u64`, with `ceil_div(0, b) == 0`.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

/// Sizes of the `pieces` near-equal shares of `total` leaves: the first
/// `total % pieces` shares get one extra leaf. A split replaces an overfull
/// node with pieces of these sizes, in order.
///
/// For the paper's single-insert regime `total = s · a^h` and
/// `pieces = s`, so every share is exactly `a^h` — a complete tree.
pub fn even_split(total: u64, pieces: u64) -> Vec<u64> {
    debug_assert!(pieces > 0 && total >= pieces);
    let base = total / pieces;
    let extra = total % pieces;
    (0..pieces).map(|q| base + u64::from(q < extra)).collect()
}

/// Label offset (relative to the subtree's own number) of the `r`-th leaf
/// in a *leftmost-complete* `a`-ary subtree of height `h`: the base-`a`
/// digits of `r` spread over base-`B` positions,
/// `Σ_j ((r / a^j) mod a) · B^j`.
///
/// This is exactly what rebuilding a subtree and then relabeling it with
/// the paper's `num(v) = num(u) + i · B^{h(v)}` rule produces.
///
/// A subtree of height `h` holds `a^h` leaves, so `r ≥ a^h` is
/// [`LTreeError::CapacityExceeded`] (requesting `r + 1` leaves); a
/// weight `B^{h-1}` past `u128` is [`LTreeError::LabelOverflow`].
pub fn complete_offset(r: u64, height: u8, params: &Params) -> Result<u128> {
    let a = u64::from(params.arity());
    let base = params.base();
    let mut offset: u128 = 0;
    let mut rem = r;
    let mut weight: u128 = 1;
    for level in 0..height {
        let digit = rem % a;
        rem /= a;
        offset += u128::from(digit) * weight;
        if level + 1 < height {
            weight = weight
                .checked_mul(base)
                .ok_or(LTreeError::LabelOverflow { height })?;
        }
    }
    if rem != 0 {
        return Err(LTreeError::CapacityExceeded {
            requested: r.saturating_add(1),
        });
    }
    Ok(offset)
}

/// The offsets of the first `count` leaves of a leftmost-complete
/// `a`-ary subtree of height `h`, in order: [`complete_offset`] of each
/// `r < count`, with its errors, checked once up front on the last
/// (largest) one.
pub fn complete_offsets(count: u64, height: u8, params: &Params) -> Result<CompleteOffsets> {
    if let Some(last) = count.checked_sub(1) {
        complete_offset(last, height, params)?;
    }
    Ok(CompleteOffsets {
        left: count,
        offset: 0,
        digits: [0; 64],
        arity: params.arity(),
        base: params.base(),
    })
}

/// Iterator returned by [`complete_offsets`]: [`complete_offset`]'s sum
/// kept as an odometer. Stepping from leaf `r` to `r + 1` adds 1 to
/// digit 0, and each digit `j` that reaches `a` wraps to 0 and carries 1
/// into digit `j + 1`, which adds `B^{j+1} − a · B^j = (B − a) · B^j` to
/// the offset. That is amortized `O(1)` per offset, with no division.
#[derive(Debug, Clone)]
pub struct CompleteOffsets {
    /// Offsets still to yield.
    left: u64,
    /// The next offset to yield.
    offset: u128,
    /// The base-`a` digits of the next leaf's index `r`, least
    /// significant first: `r < 2^64 ≤ a^64`.
    digits: [u32; 64],
    arity: u32,
    base: u128,
}

impl Iterator for CompleteOffsets {
    type Item = u128;

    fn next(&mut self) -> Option<u128> {
        self.left = self.left.checked_sub(1)?;
        let out = self.offset;
        if self.left > 0 {
            // The leaf after this one is below `a^h`, so at most `h − 1`
            // digits wrap, and the weights stay within the `B^{h-1}` the
            // up-front check computed.
            self.offset += 1;
            let mut weight = 1u128;
            for digit in &mut self.digits {
                *digit += 1;
                if *digit < self.arity {
                    break;
                }
                *digit = 0;
                self.offset += weight * (self.base - u128::from(self.arity));
                weight *= self.base;
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.left).ok();
        (left.unwrap_or(usize::MAX), left)
    }
}

/// Result of planning a root rebuild: the new tree height and the label of
/// every leaf, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootRebuild {
    /// Height of the tree after the rebuild.
    pub new_height: u8,
    /// Number of height-`old_height` pieces the leaves were split into.
    pub pieces: u64,
    /// Number of `a`-ary grouping levels added above the pieces.
    pub grouping_levels: u8,
}

impl RootRebuild {
    /// Plan the rebuild that replaces an overfull root (paper, Algorithm 1
    /// lines 18–20, generalized to batch insertions): the `total` leaves
    /// are split into `m = ceil(total / a^H)` near-equal pieces of height
    /// `H = old_height`; while more than `f` pieces remain they are grouped
    /// `a` at a time under new parents; a fresh root is put on top.
    ///
    /// For a single-leaf insertion `total = s · a^H`, so `m = s ≤ f` and
    /// the result is the paper's "new root with the s top-level nodes as
    /// children".
    pub fn plan(params: &Params, total: u64, old_height: u8) -> RootRebuild {
        debug_assert!(total > 0);
        let cap = params.subtree_capacity(old_height);
        let pieces = ceil_div(total, cap);
        let a = u64::from(params.arity());
        let mut m = pieces;
        let mut grouping_levels: u8 = 0;
        while m > u64::from(params.f()) {
            m = ceil_div(m, a);
            grouping_levels += 1;
        }
        RootRebuild {
            new_height: old_height + grouping_levels + 1,
            pieces,
            grouping_levels,
        }
    }

    /// Label of piece `q` (relative to the new root, i.e. absolute since
    /// the root is numbered 0).
    pub fn piece_num(&self, params: &Params, old_height: u8, q: u64) -> Result<u128> {
        let a = u64::from(params.arity());
        let base = params.base();
        let mut num: u128 = 0;
        // Positions inside the grouping levels: base-a digits of q.
        let mut rem = q;
        for j in 0..self.grouping_levels {
            let digit = rem % a;
            rem /= a;
            let weight = base
                .checked_pow(u32::from(old_height) + u32::from(j))
                .ok_or(crate::LTreeError::LabelOverflow {
                    height: self.new_height,
                })?;
            num += u128::from(digit) * weight;
        }
        // Root-child index: whatever remains (may exceed a, bounded by f).
        let weight = base.checked_pow(u32::from(self.new_height) - 1).ok_or(
            crate::LTreeError::LabelOverflow {
                height: self.new_height,
            },
        )?;
        num += u128::from(rem) * weight;
        Ok(num)
    }

    /// Labels for all `total` leaves after the rebuild, in order.
    pub fn leaf_labels(&self, params: &Params, total: u64, old_height: u8) -> Result<Vec<u128>> {
        let sizes = even_split(total, self.pieces);
        let mut out = Vec::with_capacity(total as usize);
        for (q, &size) in sizes.iter().enumerate() {
            let piece_base = self.piece_num(params, old_height, q as u64)?;
            for r in 0..size {
                out.push(piece_base + complete_offset(r, old_height, params)?);
            }
        }
        Ok(out)
    }
}

/// Labels produced by bulk loading `n` leaves (paper, Section 2.2): a
/// leftmost-complete `a`-ary tree of minimal height.
pub fn bulk_load_labels(params: &Params, n: u64) -> Result<(u8, Vec<u128>)> {
    let height = params.height_for(n);
    let labels = complete_offsets(n, height, params)?.collect();
    Ok((height, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p42() -> Params {
        Params::new(4, 2).unwrap()
    }

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div(0, 3), 0);
        assert_eq!(ceil_div(1, 3), 1);
        assert_eq!(ceil_div(3, 3), 1);
        assert_eq!(ceil_div(4, 3), 2);
    }

    #[test]
    fn even_split_shares() {
        assert_eq!(even_split(8, 2), vec![4, 4]);
        assert_eq!(even_split(9, 2), vec![5, 4]);
        assert_eq!(even_split(10, 4), vec![3, 3, 2, 2]);
    }

    #[test]
    fn complete_offsets_match_figure2_bulk_load() {
        // f=4, s=2 (base 5, arity 2), 8 leaves, height 3:
        // base-2 digits of 0..8 spread over base-5 positions.
        let p = p42();
        let (h, labels) = bulk_load_labels(&p, 8).unwrap();
        assert_eq!(h, 3);
        assert_eq!(labels, vec![0, 1, 5, 6, 25, 26, 30, 31]);
    }

    #[test]
    fn complete_offsets_partial_tree() {
        let p = p42();
        // 3 leaves need height 2; leftmost-complete: 0, 1, 5.
        let (h, labels) = bulk_load_labels(&p, 3).unwrap();
        assert_eq!(h, 2);
        assert_eq!(labels, vec![0, 1, 5]);
    }

    #[test]
    fn root_rebuild_single_insert_case() {
        // total = s * a^H = 2 * 8 = 16, H = 3: the paper's exact case:
        // s = 2 pieces, no grouping, new root at height 4.
        let p = p42();
        let plan = RootRebuild::plan(&p, 16, 3);
        assert_eq!(plan.pieces, 2);
        assert_eq!(plan.grouping_levels, 0);
        assert_eq!(plan.new_height, 4);
        let labels = plan.leaf_labels(&p, 16, 3).unwrap();
        assert_eq!(labels.len(), 16);
        // First piece at 0, second piece at B^3 = 125.
        assert_eq!(labels[0], 0);
        assert_eq!(labels[8], 125);
        assert!(labels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn root_rebuild_grouping_when_many_pieces() {
        // Force > f pieces: total = 100 leaves over height 1 (cap a = 2):
        // 50 pieces > f = 4 -> grouped by 2 until <= 4: 50 -> 25 -> 13 -> 7 -> 4.
        let p = p42();
        let plan = RootRebuild::plan(&p, 100, 1);
        assert_eq!(plan.pieces, 50);
        assert_eq!(plan.grouping_levels, 4);
        assert_eq!(plan.new_height, 6);
        let labels = plan.leaf_labels(&p, 100, 1).unwrap();
        assert_eq!(labels.len(), 100);
        assert!(
            labels.windows(2).all(|w| w[0] < w[1]),
            "labels strictly increasing"
        );
        // Every label fits the new label space.
        let space = p.interval(plan.new_height).unwrap();
        assert!(labels.iter().all(|&l| l < space));
    }

    #[test]
    fn complete_offset_rejects_out_of_range() {
        let p = p42();
        // r = 7 < 2^3: the last leaf of a height-3 subtree.
        assert_eq!(complete_offset(7, 3, &p), Ok(31));
        // r = 8 would wrap to r = 0's offset.
        assert_eq!(
            complete_offset(8, 3, &p),
            Err(LTreeError::CapacityExceeded { requested: 9 })
        );
        assert_eq!(
            complete_offset(u64::MAX, 3, &p),
            Err(LTreeError::CapacityExceeded {
                requested: u64::MAX
            })
        );
        assert_eq!(
            complete_offset(1, 0, &p),
            Err(LTreeError::CapacityExceeded { requested: 2 })
        );
        assert!(complete_offsets(9, 3, &p).is_err());
        assert_eq!(complete_offsets(0, 0, &p).unwrap().count(), 0);
    }

    /// Every offset of a full subtree of height `h`, stepped, against
    /// [`complete_offset`] for the same leaf.
    fn assert_stepped_offsets_match(p: &Params, h: u8) {
        let full = p.subtree_capacity(h);
        let mut stepped = complete_offsets(full, h, p).unwrap();
        assert_eq!(stepped.size_hint(), (full as usize, Some(full as usize)));
        for r in 0..full {
            let expect = complete_offset(r, h, p).unwrap();
            assert_eq!(stepped.next(), Some(expect), "{p} h={h} r={r}");
        }
        assert_eq!(stepped.next(), None);
        assert_eq!(
            complete_offsets(full + 1, h, p).unwrap_err(),
            LTreeError::CapacityExceeded {
                requested: full + 1
            }
        );
    }

    #[test]
    fn stepped_offsets_match_complete_offset_per_preset() {
        for p in Params::presets() {
            for h in 0..=6 {
                assert_stepped_offsets_match(&p, h);
            }
        }
    }

    /// At `(64,32)` (`B = 65`, `a = 2`) the offsets pass `2^64` from
    /// height 12 on.
    #[test]
    fn stepped_offsets_match_past_two_to_the_64() {
        let p = Params::new(64, 32).unwrap();
        for h in 0..=12 {
            assert_stepped_offsets_match(&p, h);
        }
        let last = complete_offsets(1 << 12, 12, &p).unwrap().last().unwrap();
        assert!(last > u128::from(u64::MAX));
    }
}
