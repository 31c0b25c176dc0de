//! LRU buffer pool simulator.
//!
//! Every page touch in the executor flows through this pool; misses are the
//! "physical I/O" metric of Figure 16b, and per-object residency fractions
//! are the optional cache features of Bao's plan vectorization (§3.1.1 of
//! the paper: "we augment each scan node with the percentage of the
//! targeted file that is cached").

use bao_common::hash::FastMap;
use std::collections::BTreeMap;

/// Identifies a page: the owning object (table heap or index) and the page
/// number within it.
///
/// The `shard` field is an accounting annotation, not part of the page's
/// identity: sharded execution tags each touch with the shard that issued
/// it so the pool can report per-shard hit/miss splits, but a page cached
/// by one shard must hit when any other shard (or an unsharded caller)
/// touches it. Equality, hashing, and ordering therefore cover only
/// `(object, page)`.
#[derive(Debug, Clone, Copy)]
pub struct PageKey {
    pub object: u32,
    pub page: u32,
    pub shard: u32,
}

impl PartialEq for PageKey {
    fn eq(&self, other: &Self) -> bool {
        self.object == other.object && self.page == other.page
    }
}

impl Eq for PageKey {}

impl std::hash::Hash for PageKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.object.hash(state);
        self.page.hash(state);
    }
}

impl PartialOrd for PageKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PageKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.object, self.page).cmp(&(other.object, other.page))
    }
}

impl PageKey {
    pub fn new(object: u32, page: u32) -> Self {
        PageKey { object, page, shard: 0 }
    }

    /// The same page, annotated with the shard that is touching it.
    pub fn with_shard(self, shard: u32) -> Self {
        PageKey { shard, ..self }
    }
}

/// How a page is being read. Large sequential scans bypass cache insertion
/// (PostgreSQL's ring-buffer behaviour) so one big table scan does not
/// evict the whole working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Random or small-scan access: cached on read.
    Cached,
    /// Bulk sequential access: hit/miss is observed but the page is not
    /// promoted into the pool.
    BulkRead,
}

/// Cumulative hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
}

impl PoolStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// One resident page, linked into the recency list by slot number.
#[derive(Debug, Clone, Copy)]
struct Frame {
    key: PageKey,
    /// The next more recent frame (`NIL` at the head).
    prev: u32,
    /// The next less recent frame (`NIL` at the tail).
    next: u32,
}

/// A strict-LRU page cache with per-object residency accounting. A touch
/// is O(1): one page-table probe and a relink in the recency list.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    /// page -> slot of its frame in `frames`.
    table: FastMap<PageKey, u32>,
    /// Resident pages only: a frame is vacated only by eviction, and then
    /// its slot goes straight to the page that displaced it.
    frames: Vec<Frame>,
    /// Most recently touched frame.
    head: u32,
    /// Least recently touched frame: the next victim.
    tail: u32,
    /// object -> number of its pages currently resident.
    per_object: FastMap<u32, u32>,
    stats: PoolStats,
    /// Hit/miss counters of touches tagged with shard `i` (small dense
    /// indices). Unsharded touches land on shard 0.
    shard_stats: Vec<PoolStats>,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages. Zero capacity means every
    /// access misses (a permanently cold cache).
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity,
            table: FastMap::default(),
            frames: Vec::new(),
            head: NIL,
            tail: NIL,
            per_object: FastMap::default(),
            stats: PoolStats::default(),
            shard_stats: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Per-shard hit/miss counters, keyed by the shard annotation on the
    /// touching `PageKey`, for the shards that issued a touch. Summing
    /// every entry reproduces `stats()` exactly; an unsharded workload
    /// accumulates everything on shard 0. A view built on demand.
    pub fn shard_stats(&self) -> BTreeMap<u32, PoolStats> {
        (0u32..)
            .zip(&self.shard_stats)
            .filter(|(_, s)| s.accesses() > 0)
            .map(|(shard, s)| (shard, *s))
            .collect()
    }

    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
        self.shard_stats.clear();
    }

    /// Touch a page; returns `true` on a cache hit.
    pub fn access(&mut self, key: PageKey, kind: AccessKind) -> bool {
        let hit = self.touch(key, kind == AccessKind::Cached);
        let shard = key.shard as usize;
        if shard >= self.shard_stats.len() {
            self.shard_stats.resize(shard + 1, PoolStats::default());
        }
        self.stats.record(hit);
        self.shard_stats[shard].record(hit);
        hit
    }

    /// Is the page resident, without touching recency or stats? Used by the
    /// optimizer's cache-aware cost adjustments.
    pub fn contains(&self, key: PageKey) -> bool {
        self.table.contains_key(&key)
    }

    /// Fraction of an object's `n_pages` pages currently resident.
    pub fn cached_fraction(&self, object: u32, n_pages: u32) -> f64 {
        if n_pages == 0 {
            return 0.0;
        }
        let resident = self.per_object.get(&object).copied().unwrap_or(0);
        (resident as f64 / n_pages as f64).min(1.0)
    }

    /// Drop every page (a cold restart).
    pub fn clear(&mut self) {
        self.table.clear();
        self.frames.clear();
        self.head = NIL;
        self.tail = NIL;
        self.per_object.clear();
    }

    /// Load `pages` pages of `object` as if they had just been read
    /// (warming a cache before an experiment).
    pub fn prewarm(&mut self, object: u32, pages: u32) {
        for p in 0..pages {
            self.touch(PageKey::new(object, p), true);
        }
    }

    /// Make a resident page the most recent, or, when `admit`, bring an
    /// absent one in over the least recent. Returns whether it was resident.
    fn touch(&mut self, key: PageKey, admit: bool) -> bool {
        if let Some(&slot) = self.table.get(&key) {
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        if admit && self.capacity > 0 {
            let slot = if self.frames.len() < self.capacity {
                self.frames.push(Frame { key, prev: NIL, next: NIL });
                (self.frames.len() - 1) as u32
            } else {
                let slot = self.tail;
                let victim = std::mem::replace(&mut self.frames[slot as usize].key, key);
                self.unlink(slot);
                self.table.remove(&victim);
                if let Some(resident) = self.per_object.get_mut(&victim.object) {
                    *resident -= 1;
                }
                slot
            };
            self.push_front(slot);
            self.table.insert(key, slot);
            *self.per_object.entry(key.object).or_insert(0) += 1;
        }
        false
    }

    fn unlink(&mut self, slot: u32) {
        let Frame { prev, next, .. } = self.frames[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old = std::mem::replace(&mut self.head, slot);
        self.frames[slot as usize].prev = NIL;
        self.frames[slot as usize].next = old;
        match old {
            NIL => self.tail = slot,
            h => self.frames[h as usize].prev = slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_caching() {
        let mut p = BufferPool::new(4);
        let k = PageKey::new(1, 0);
        assert!(!p.access(k, AccessKind::Cached));
        assert!(p.access(k, AccessKind::Cached));
        assert_eq!(p.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = BufferPool::new(2);
        let a = PageKey::new(1, 0);
        let b = PageKey::new(1, 1);
        let c = PageKey::new(1, 2);
        p.access(a, AccessKind::Cached);
        p.access(b, AccessKind::Cached);
        p.access(a, AccessKind::Cached); // refresh a; b is now LRU
        p.access(c, AccessKind::Cached); // evicts b
        assert!(p.contains(a));
        assert!(!p.contains(b));
        assert!(p.contains(c));
    }

    #[test]
    fn bulk_reads_do_not_pollute() {
        let mut p = BufferPool::new(2);
        let a = PageKey::new(1, 0);
        p.access(a, AccessKind::Cached);
        for pg in 0..10 {
            p.access(PageKey::new(2, pg), AccessKind::BulkRead);
        }
        assert!(p.contains(a));
        assert_eq!(p.len(), 1);
        // but bulk reads still see hits on already-resident pages
        assert!(p.access(a, AccessKind::BulkRead));
    }

    #[test]
    fn cached_fraction_tracks_eviction() {
        let mut p = BufferPool::new(2);
        p.access(PageKey::new(7, 0), AccessKind::Cached);
        p.access(PageKey::new(7, 1), AccessKind::Cached);
        assert_eq!(p.cached_fraction(7, 4), 0.5);
        p.access(PageKey::new(8, 0), AccessKind::Cached); // evicts one page of 7
        assert_eq!(p.cached_fraction(7, 4), 0.25);
        assert_eq!(p.cached_fraction(8, 1), 1.0);
        assert_eq!(p.cached_fraction(9, 10), 0.0);
        assert_eq!(p.cached_fraction(8, 0), 0.0);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut p = BufferPool::new(0);
        let k = PageKey::new(1, 0);
        assert!(!p.access(k, AccessKind::Cached));
        assert!(!p.access(k, AccessKind::Cached));
        assert_eq!(p.stats().misses, 2);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn clear_and_prewarm() {
        let mut p = BufferPool::new(8);
        p.prewarm(3, 4);
        assert_eq!(p.cached_fraction(3, 4), 1.0);
        assert_eq!(p.stats().accesses(), 0, "prewarm does not count as traffic");
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.cached_fraction(3, 4), 0.0);
    }

    #[test]
    fn shard_annotation_is_not_identity() {
        let mut p = BufferPool::new(4);
        let k = PageKey::new(1, 0);
        assert!(!p.access(k.with_shard(2), AccessKind::Cached));
        // The same page touched from another shard (or unsharded) hits.
        assert!(p.access(k.with_shard(5), AccessKind::Cached));
        assert!(p.access(k, AccessKind::Cached));
        assert!(p.contains(k.with_shard(9)));
        assert_eq!(k, k.with_shard(3));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let digest = |key: PageKey| {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(k), digest(k.with_shard(3)));
        assert_eq!(k.cmp(&k.with_shard(3)), std::cmp::Ordering::Equal);
    }

    /// Replay a fixed access trace annotated with `n_shards` round-robin
    /// shard tags; returns (per-shard stats, resident set in key order).
    fn sharded_trace(n_shards: u32) -> (Vec<PoolStats>, Vec<PageKey>, PoolStats) {
        let mut p = BufferPool::new(3);
        let trace: Vec<PageKey> = (0..40u32).map(|i| PageKey::new(1 + i % 2, i % 5)).collect();
        for (i, k) in trace.iter().enumerate() {
            p.access(k.with_shard(i as u32 % n_shards), AccessKind::Cached);
        }
        let per_shard: Vec<PoolStats> =
            (0..n_shards).map(|s| p.shard_stats().get(&s).copied().unwrap_or_default()).collect();
        let mut resident: Vec<PageKey> =
            trace.iter().copied().filter(|&k| p.contains(k)).collect();
        resident.sort();
        resident.dedup();
        (per_shard, resident, p.stats())
    }

    #[test]
    fn per_shard_stats_sum_to_unsharded_totals() {
        let (_, _, unsharded) = sharded_trace(1);
        for shards in [2, 4, 8] {
            let (per_shard, _, total) = sharded_trace(shards);
            let summed = per_shard.iter().fold(PoolStats::default(), |acc, s| PoolStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            });
            assert_eq!(summed, total, "shard split must partition the totals");
            assert_eq!(total, unsharded, "shard count must not change totals");
        }
    }

    #[test]
    fn shard_stats_empty_pool_and_empty_table() {
        // No accesses at all: the split is empty and sums to the (zero)
        // totals rather than inventing zero-valued shard entries.
        let p = BufferPool::new(4);
        assert!(p.shard_stats().is_empty());
        assert_eq!(p.stats(), PoolStats::default());

        // An "empty table" scanned over 4 shards: the morsel planner
        // produces no accesses for any shard, so the map stays empty even
        // though the pool has seen unrelated (unsharded) traffic.
        let mut p = BufferPool::new(4);
        p.access(PageKey::new(7, 0), AccessKind::Cached);
        assert!(p.shard_stats().len() == 1 && p.shard_stats().contains_key(&0));
        let summed = p
            .shard_stats()
            .values()
            .fold(PoolStats::default(), |acc, s| PoolStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            });
        assert_eq!(summed, p.stats());
    }

    #[test]
    fn shard_stats_single_row_shards() {
        // One page per shard (single-row shards): every shard gets exactly
        // one entry with one miss, and the split partitions the totals.
        let mut p = BufferPool::new(8);
        let n = 5u32;
        for s in 0..n {
            p.access(PageKey::new(1, s).with_shard(s), AccessKind::Cached);
        }
        assert_eq!(p.shard_stats().len(), n as usize);
        for s in 0..n {
            let st = p.shard_stats()[&s];
            assert_eq!((st.hits, st.misses), (0, 1), "shard {s}");
            assert_eq!(st.accesses(), 1);
        }
        let summed = p
            .shard_stats()
            .values()
            .fold(PoolStats::default(), |acc, s| PoolStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            });
        assert_eq!(summed, p.stats());
        assert_eq!(p.stats().accesses(), n as u64);
    }

    #[test]
    fn shard_stats_more_shards_than_rows() {
        // 16-way sharding of a 3-page table: only the shards that actually
        // received a morsel appear, idle shards contribute nothing, and
        // the sum still equals the totals exactly.
        let mut p = BufferPool::new(8);
        let rows = 3u32;
        let shards = 16u32;
        for r in 0..rows {
            // Round-robin assignment leaves shards 3..16 idle.
            p.access(PageKey::new(1, r).with_shard(r % shards), AccessKind::Cached);
            // A re-touch from the same shard: hit, same entry.
            p.access(PageKey::new(1, r).with_shard(r % shards), AccessKind::Cached);
        }
        assert_eq!(p.shard_stats().len(), rows as usize);
        for s in rows..shards {
            assert!(!p.shard_stats().contains_key(&s), "idle shard {s} must not appear");
        }
        let summed = p
            .shard_stats()
            .values()
            .fold(PoolStats::default(), |acc, s| PoolStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            });
        assert_eq!(summed, p.stats());
        assert_eq!(p.stats(), PoolStats { hits: rows as u64, misses: rows as u64 });
    }

    #[test]
    fn eviction_deterministic_across_shard_counts() {
        let (_, resident1, _) = sharded_trace(1);
        for shards in [2, 4, 8] {
            let (_, resident, _) = sharded_trace(shards);
            assert_eq!(
                resident, resident1,
                "resident set (hence eviction order) must not depend on shard count"
            );
        }
    }

    #[test]
    fn reset_stats_clears_shard_split() {
        let mut p = BufferPool::new(4);
        p.access(PageKey::new(1, 0).with_shard(3), AccessKind::Cached);
        assert_eq!(p.shard_stats().len(), 1);
        p.reset_stats();
        assert!(p.shard_stats().is_empty());
        assert_eq!(p.stats(), PoolStats::default());
    }

    /// The obvious strict LRU, as the reference: a `Vec` in recency order
    /// (least recent first), scanned linearly.
    #[derive(Clone, Default)]
    struct RefLru {
        capacity: usize,
        pages: Vec<PageKey>,
        stats: PoolStats,
        shard_stats: BTreeMap<u32, PoolStats>,
    }

    impl RefLru {
        fn touch(&mut self, key: PageKey, admit: bool) -> bool {
            if let Some(i) = self.pages.iter().position(|&k| k == key) {
                let k = self.pages.remove(i);
                self.pages.push(k);
                return true;
            }
            if admit && self.capacity > 0 {
                if self.pages.len() == self.capacity {
                    self.pages.remove(0);
                }
                self.pages.push(key);
            }
            false
        }

        fn access(&mut self, key: PageKey, kind: AccessKind) -> bool {
            let hit = self.touch(key, kind == AccessKind::Cached);
            self.stats.record(hit);
            self.shard_stats.entry(key.shard).or_default().record(hit);
            hit
        }
    }

    #[test]
    fn random_traces_match_the_reference_lru() {
        use bao_common::{rng_from_seed, Rng};
        const OBJECTS: u32 = 3;
        for (seed, capacity) in [(1, 0usize), (2, 1), (3, 3), (4, 40)] {
            // Twice the pool per object: hits, misses and evictions all occur.
            let pages = 2 * capacity as u32 + 3;
            let mut rng = rng_from_seed(seed);
            let mut pool = BufferPool::new(capacity);
            let mut lru = RefLru { capacity, ..RefLru::default() };
            for step in 0..4_000 {
                match rng.gen_range(0..100) {
                    0..=1 => {
                        let (object, n) = (rng.gen_range(1..=OBJECTS), rng.gen_range(0..=pages));
                        pool.prewarm(object, n);
                        for p in 0..n {
                            lru.touch(PageKey::new(object, p), true);
                        }
                    }
                    2 => {
                        pool.clear();
                        lru.pages.clear();
                    }
                    3..=4 => {
                        pool.reset_stats();
                        lru.stats = PoolStats::default();
                        lru.shard_stats.clear();
                    }
                    // Carry on with the copy: it must have the original's order.
                    5..=6 => pool = pool.clone(),
                    _ => {
                        let key = PageKey::new(rng.gen_range(1..=OBJECTS), rng.gen_range(0..pages))
                            .with_shard(rng.gen_range(0..4));
                        let bulk = rng.gen_bool(0.25);
                        let kind = if bulk { AccessKind::BulkRead } else { AccessKind::Cached };
                        assert_eq!(pool.access(key, kind), lru.access(key, kind), "step {step}");
                    }
                }
                assert_eq!(pool.len(), lru.pages.len(), "capacity {capacity} step {step}");
                assert_eq!(pool.is_empty(), lru.pages.is_empty());
                assert_eq!(pool.stats(), lru.stats, "capacity {capacity} step {step}");
                assert_eq!(pool.shard_stats(), lru.shard_stats, "capacity {capacity} step {step}");
                for object in 1..=OBJECTS {
                    let resident = (0..pages)
                        .filter(|&p| {
                            let key = PageKey::new(object, p);
                            assert_eq!(pool.contains(key), lru.pages.contains(&key), "step {step}");
                            pool.contains(key)
                        })
                        .count();
                    assert_eq!(
                        pool.cached_fraction(object, pages),
                        resident as f64 / pages as f64,
                        "capacity {capacity} step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn hit_rate() {
        let mut p = BufferPool::new(4);
        let k = PageKey::new(1, 0);
        p.access(k, AccessKind::Cached);
        p.access(k, AccessKind::Cached);
        p.access(k, AccessKind::Cached);
        assert!((p.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(BufferPool::new(1).stats().hit_rate(), 0.0);
    }
}
