//! Latency pooling and the order statistics every report uses.

/// Sub-buckets per octave, as a power of two: values below `2^SUB` ns are
/// exact, larger ones land in buckets `1/2^SUB` of an octave wide (under
/// 0.8 %). The whole array is 35 KiB, so recording a sample does not
/// evict the program's data from the caches it is timed on.
const SUB: u32 = 7;
/// Values at or above `2^MAX_BITS` ns (about 18 minutes) share the top
/// bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB + 1) << SUB) as usize;

fn index(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < (1 << SUB) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB)) & ((1 << SUB) - 1);
    (((msb - SUB + 1) << SUB) as u64 + sub) as usize
}

/// The lowest value of bucket `idx`, and the bucket's width.
fn bucket(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < (1 << SUB) {
        return (idx, 1);
    }
    let msb = (idx >> SUB) + SUB as u64 - 1;
    let width = 1u64 << (msb - SUB as u64);
    ((1u64 << msb) + (idx & ((1 << SUB) - 1)) * width, width)
}

/// A pooled latency distribution in nanoseconds: `O(1)` to record, one
/// flat count array (allocated on first use), mergeable.
#[derive(Debug, Clone, Default)]
pub struct Lat {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Lat {
    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[index(ns)] += 1;
        self.n += 1;
        self.sum += ns as u128;
    }

    pub fn merge(&mut self, other: &Lat) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in nanoseconds (see [`bucket_quantile`]).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let buckets = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        let buckets = buckets.map(|(i, &c)| {
            let (lo, width) = bucket(i);
            (lo, width, c)
        });
        bucket_quantile(buckets, self.n, q)
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }
}

/// The `q`-quantile of `n` samples given as `(lowest value, width,
/// count)` per non-empty bucket, in increasing order: the sample of rank
/// `floor((n-1)·q)`, placed as if its bucket's samples were spread evenly
/// across the bucket, so that it moves with every sample rather than in
/// bucket-sized steps (a width-1 bucket is exact). 0 when empty.
pub fn bucket_quantile(buckets: impl IntoIterator<Item = (u64, u64, u64)>, n: u64, q: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let rank = ((n - 1) as f64 * q).floor() as u64;
    let mut seen = 0u64;
    for (lo, width, c) in buckets {
        if seen + c > rank {
            if width == 1 {
                return lo as f64;
            }
            let within = (rank - seen) as f64 + 0.5;
            return lo as f64 + width as f64 * within / c as f64;
        }
        seen += c;
    }
    0.0
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" default), so
/// the spreads this tool prints match the ones the acceptance rule
/// computes. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_then_fine() {
        for v in [0u64, 1, 127, 128, 1_000, 123_457, 9_999_999_999] {
            let (lo, width) = bucket(index(v));
            assert!((lo..lo + width).contains(&v), "{v} -> [{lo}, +{width})");
            assert!(width == 1 || width <= v / 128, "{v}: width {width}");
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_pool_across_merges() {
        let (mut a, mut b) = (Lat::default(), Lat::default());
        (1..=50u64).for_each(|v| a.record(v * 1000));
        (51..=100u64).for_each(|v| b.record(v * 1000));
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!((a.quantile_us(0.5) - 50.0).abs() < 0.2);
        assert!((a.quantile_us(0.99) - 99.0).abs() < 0.4);
        assert_eq!(Lat::default().quantile_ns(0.5), 0.0);
        // Exact below 2^SUB ns; samples sharing a wider bucket spread out.
        let mut c = Lat::default();
        for v in [100, 100, 5_000, 5_001, 5_002] {
            c.record(v);
        }
        assert_eq!(c.quantile_ns(0.0), 100.0);
        let (p50, p99) = (c.quantile_ns(0.5), c.quantile_ns(0.99));
        assert!(
            p50 < p99 && (4_992.0..5_024.0).contains(&p99),
            "{p50} {p99}"
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
