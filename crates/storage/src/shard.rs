//! Table sharding for morsel-driven parallel execution (DESIGN.md §13).
//!
//! A `ShardSpec` partitions a table's row (or page) space into `n_shards`
//! contiguous range shards. Shards are a *logical* partitioning: the
//! underlying columnar storage is untouched, and the shard id only flows
//! into `PageKey` annotations and the executor's per-shard work lists.
//! Every function here is pure so shard assignment is identical no matter
//! which worker asks.

use std::ops::Range;

/// A partitioning of `n` items (rows or pages) into `n_shards` contiguous
/// balanced ranges: the first `n % n_shards` shards get one extra item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    n_shards: u32,
}

impl ShardSpec {
    /// A spec with at least one shard (zero clamps to one).
    pub fn new(n_shards: usize) -> Self {
        ShardSpec { n_shards: (n_shards.max(1) as u32).max(1) }
    }

    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// The contiguous index range owned by `shard` out of `n` items.
    /// Empty when the shard index is past `n`.
    pub fn range(&self, shard: u32, n: u32) -> Range<u32> {
        let k = self.n_shards;
        let base = n / k;
        let rem = n % k;
        let start = shard.min(k) * base + shard.min(rem);
        let len = if shard < k { base + u32::from(shard < rem) } else { 0 };
        start..(start + len)
    }

    /// All per-shard ranges over `n` items, in shard order. Concatenating
    /// them reproduces `0..n` exactly — the merge-order invariant sharded
    /// execution relies on.
    pub fn ranges(&self, n: u32) -> Vec<Range<u32>> {
        (0..self.n_shards).map(|s| self.range(s, n)).collect()
    }

    /// Which shard owns item `idx` out of `n`. Inverse of `range`.
    pub fn shard_of(&self, idx: u32, n: u32) -> u32 {
        let k = self.n_shards;
        // The serial path asks once per page touch.
        if k == 1 {
            return 0;
        }
        let base = n / k;
        let rem = n % k;
        let fat = rem * (base + 1);
        if idx < fat {
            idx / (base + 1)
        } else if base > 0 {
            rem + (idx - fat) / base
        } else {
            // n < k: every item lands in its own (fat) shard.
            k.saturating_sub(1)
        }
    }
}

/// Split a contiguous row range into fixed-size morsels of at most
/// `morsel_rows` rows, in range order. Zero `morsel_rows` clamps to one.
pub fn morsels(range: Range<u32>, morsel_rows: u32) -> Vec<Range<u32>> {
    let step = morsel_rows.max(1);
    let mut out = Vec::new();
    let mut lo = range.start;
    while lo < range.end {
        let hi = range.end.min(lo.saturating_add(step));
        out.push(lo..hi);
        lo = hi;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_concatenate_to_full_span() {
        for k in [1usize, 2, 3, 4, 8] {
            for n in [0u32, 1, 5, 7, 64, 1000] {
                let spec = ShardSpec::new(k);
                let ranges = spec.ranges(n);
                assert_eq!(ranges.len(), k);
                let mut next = 0u32;
                for r in &ranges {
                    assert_eq!(r.start, next, "k={k} n={n}");
                    next = r.end;
                }
                assert_eq!(next, n);
                // Balanced: sizes differ by at most one.
                let sizes: Vec<u32> = ranges.iter().map(|r| r.end - r.start).collect();
                let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                assert!(hi.unwrap_or(&0) - lo.unwrap_or(&0) <= 1);
            }
        }
    }

    #[test]
    fn shard_of_inverts_range() {
        for k in [1usize, 2, 4, 8] {
            for n in [1u32, 3, 8, 17, 256] {
                let spec = ShardSpec::new(k);
                for idx in 0..n {
                    let s = spec.shard_of(idx, n);
                    assert!(spec.range(s, n).contains(&idx), "k={k} n={n} idx={idx}");
                }
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let spec = ShardSpec::new(0);
        assert_eq!(spec.n_shards(), 1);
        assert_eq!(spec.range(0, 10), 0..10);
    }

    #[test]
    fn morsels_cover_range_in_order() {
        assert_eq!(morsels(3..3, 4), Vec::<Range<u32>>::new());
        assert_eq!(morsels(0..10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(morsels(5..7, 0), vec![5..6, 6..7], "zero morsel size clamps to one");
        let ms = morsels(0..1000, 64);
        assert_eq!(ms.first().map(|r| r.start), Some(0));
        assert_eq!(ms.last().map(|r| r.end), Some(1000));
        assert!(ms.windows(2).all(|w| w[0].end == w[1].start));
    }
}
