//! The `(f, s)` shape parameters of an L-Tree (paper, Section 2.1).
//!
//! An L-Tree is shaped by two integers:
//!
//! * `f` — the target maximum fanout of an internal node;
//! * `s` — the number of subtrees an overfull node is split into.
//!
//! From these the paper derives:
//!
//! * the **rebuild arity** `a = f / s`: freshly (re)built subtrees are
//!   complete `a`-ary trees;
//! * the **split threshold** for a node `t` at height `h`:
//!   `L(t) ≥ s · a^h` (where `L` counts leaf descendants);
//! * the **label base** `B = f + 1`: the `i`-th child of a node numbered
//!   `num(u)` is numbered `num(u) + i · B^{h(child)}`, so the maximum label
//!   in a tree of height `H` is below `B^H` — this is the source of the
//!   `bits = log(f+1) · log n / log(f/s)` bound of Section 3.1.
//!
//! Validity requires `s ≥ 2` (a split must create slack), `a ≥ 2` (subtrees
//! must branch) and `f = s · a` exactly.

use crate::error::{LTreeError, Result};

/// Shape parameters of an L-Tree. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Params {
    f: u32,
    s: u32,
}

/// The largest `f` accepted. Labels are `u128`; enormous fanouts are never
/// useful (the cost formula grows linearly in `f`) and this cap keeps all
/// derived arithmetic trivially overflow-free.
pub const MAX_F: u32 = 1 << 16;

/// The largest [`Params::max_height`] of any valid parameters: `s ≥ 2`
/// and `f/s ≥ 2` make `B = 5` the smallest base, and
/// `5^55 < 2^128 < 5^56`.
pub(crate) const MAX_HEIGHT: u8 = 55;

impl Params {
    /// Create a parameter set, validating the paper's requirements:
    /// `s ≥ 2`, `f % s == 0`, `f / s ≥ 2` and `f ≤ MAX_F`.
    ///
    /// ```
    /// use ltree_core::Params;
    /// let p = Params::new(8, 2).unwrap();
    /// assert_eq!(p.arity(), 4);
    /// assert_eq!(p.base(), 9);
    /// assert!(Params::new(5, 2).is_err()); // f not divisible by s
    /// assert!(Params::new(4, 1).is_err()); // s must be >= 2
    /// ```
    pub fn new(f: u32, s: u32) -> Result<Self> {
        if s < 2 {
            return Err(LTreeError::InvalidParams {
                f,
                s,
                reason: "s must be at least 2 (a split must create slack)",
            });
        }
        if f > MAX_F {
            return Err(LTreeError::InvalidParams {
                f,
                s,
                reason: "f exceeds the supported maximum (65536)",
            });
        }
        if !f.is_multiple_of(s) {
            return Err(LTreeError::InvalidParams {
                f,
                s,
                reason: "f must be a multiple of s (split produces s complete f/s-ary trees)",
            });
        }
        if f / s < 2 {
            return Err(LTreeError::InvalidParams {
                f,
                s,
                reason: "f/s must be at least 2 (rebuilt subtrees must branch)",
            });
        }
        Ok(Params { f, s })
    }

    /// The paper's running-example parameters (`f = 4, s = 2`, Figure 2).
    pub fn example() -> Self {
        Params { f: 4, s: 2 }
    }

    /// A selection of sensible presets used throughout the benchmark
    /// harness: `(4,2)`, `(8,2)`, `(9,3)`, `(16,4)`, `(32,4)`.
    pub fn presets() -> Vec<Self> {
        [(4, 2), (8, 2), (9, 3), (16, 4), (32, 4)]
            .into_iter()
            .map(|(f, s)| Params::new(f, s).expect("preset params are valid"))
            .collect()
    }

    /// Target maximum fanout `f`.
    #[inline]
    pub fn f(&self) -> u32 {
        self.f
    }

    /// Split width `s` (an overfull node becomes `s` subtrees).
    #[inline]
    pub fn s(&self) -> u32 {
        self.s
    }

    /// Rebuild arity `a = f / s`.
    #[inline]
    pub fn arity(&self) -> u32 {
        self.f / self.s
    }

    /// Label base `B = f + 1`.
    #[inline]
    pub fn base(&self) -> u128 {
        u128::from(self.f) + 1
    }

    /// `a^h` — the leaf capacity of one freshly rebuilt subtree of height
    /// `h`, saturating at `u64::MAX` (which compares larger than any real
    /// leaf count, so saturation is benign).
    pub fn subtree_capacity(&self, height: u8) -> u64 {
        let a = u64::from(self.arity());
        let mut cap: u64 = 1;
        for _ in 0..height {
            cap = cap.saturating_mul(a);
        }
        cap
    }

    /// The split threshold `s · a^h` for a node at height `h` (paper,
    /// Section 2.3: a node whose leaf count reaches this value is split).
    pub fn split_threshold(&self, height: u8) -> u64 {
        self.subtree_capacity(height)
            .saturating_mul(u64::from(self.s))
    }

    /// `B^h` as a `u128`, or an overflow error. This is the width of the
    /// label interval owned by a node at height `h`.
    pub fn interval(&self, height: u8) -> Result<u128> {
        self.base()
            .checked_pow(u32::from(height))
            .ok_or(LTreeError::LabelOverflow { height })
    }

    /// The largest tree height whose label space `B^H` fits in a `u128`.
    pub fn max_height(&self) -> u8 {
        let mut h: u8 = 0;
        let mut v: u128 = 1;
        loop {
            match v.checked_mul(self.base()) {
                Some(next) => {
                    v = next;
                    h += 1;
                    if h == u8::MAX {
                        return h;
                    }
                }
                None => return h,
            }
        }
    }

    /// Minimal height `H` such that a complete `a`-ary tree of height `H`
    /// has at least `n` leaves; at least 1 (the tree always keeps an
    /// internal root so that leaves sit strictly below it).
    pub fn height_for(&self, n: u64) -> u8 {
        let a = u64::from(self.arity());
        let mut h: u8 = 1;
        let mut cap = a;
        while cap < n {
            cap = cap.saturating_mul(a);
            h += 1;
        }
        h
    }
}

impl std::fmt::Display for Params {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(f={}, s={})", self.f, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Params::new(4, 2).is_ok());
        assert!(Params::new(6, 2).is_ok());
        assert!(Params::new(9, 3).is_ok());
        assert!(Params::new(4, 1).is_err());
        assert!(Params::new(0, 0).is_err());
        assert!(Params::new(7, 2).is_err());
        assert!(Params::new(4, 4).is_err()); // arity 1
        assert!(Params::new(2, 2).is_err()); // arity 1
        assert!(Params::new(MAX_F + 2, 2).is_err());
    }

    #[test]
    fn derived_quantities() {
        let p = Params::new(4, 2).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.base(), 5);
        assert_eq!(p.subtree_capacity(0), 1);
        assert_eq!(p.subtree_capacity(3), 8);
        assert_eq!(p.split_threshold(1), 4);
        assert_eq!(p.split_threshold(2), 8);
        assert_eq!(p.interval(2).unwrap(), 25);
    }

    #[test]
    fn height_for_counts() {
        let p = Params::new(4, 2).unwrap();
        assert_eq!(p.height_for(0), 1);
        assert_eq!(p.height_for(1), 1);
        assert_eq!(p.height_for(2), 1);
        assert_eq!(p.height_for(3), 2);
        assert_eq!(p.height_for(8), 3);
        assert_eq!(p.height_for(9), 4);
    }

    #[test]
    fn max_height_fits_u128() {
        let p = Params::new(4, 2).unwrap();
        let h = p.max_height();
        assert!(p.interval(h).is_ok());
        assert!(p.interval(h + 1).is_err());
        assert_eq!(h, MAX_HEIGHT, "the smallest base has the most levels");
        assert!(Params::presets()
            .iter()
            .all(|p| p.max_height() <= MAX_HEIGHT));
    }

    #[test]
    fn saturating_capacity() {
        let p = Params::new(4, 2).unwrap();
        // 2^200 saturates but must not panic.
        assert_eq!(p.subtree_capacity(200), u64::MAX);
        assert_eq!(p.split_threshold(200), u64::MAX);
    }

    #[test]
    fn presets_are_valid() {
        assert!(!Params::presets().is_empty());
    }
}
