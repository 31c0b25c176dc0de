//! LRU buffer pool simulator.
//!
//! Every page touch in the executor flows through this pool; misses are the
//! "physical I/O" metric of Figure 16b, and per-object residency fractions
//! are the optional cache features of Bao's plan vectorization (§3.1.1 of
//! the paper: "we augment each scan node with the percentage of the
//! targeted file that is cached").

use bao_common::hash::FastMap;

/// Identifies a page: the owning object (table heap or index) and the page
/// number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    pub object: u32,
    pub page: u32,
}

impl PageKey {
    pub fn new(object: u32, page: u32) -> Self {
        PageKey { object, page }
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

    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// Touch a page; returns `true` on a cache hit.
    pub fn access(&mut self, key: PageKey, kind: AccessKind) -> bool {
        let hit = self.touch(key, kind == AccessKind::Cached);
        self.stats.record(hit);
        hit
    }

    /// Count `touches` hits: what running again, at once, the sequence of
    /// `Cached` accesses that ended just now would do, without running it.
    ///
    /// Exact when that sequence, S, touched at most `capacity` distinct
    /// pages. Right after S its distinct pages are the most recent ones in
    /// the pool, and all are resident: after a page's last touch, S
    /// touches fewer than `capacity` other pages, so none of them can
    /// push it out. So running S again hits on every touch, admits and
    /// evicts nothing, and leaves each page of S at the rank it had, since
    /// recency order is the order of each page's last touch within S. Only
    /// the hit count moves. With more distinct pages than `capacity`, S
    /// can evict its own pages, and the re-run has to touch them.
    pub fn replay_hits(&mut self, touches: u64) {
        self.stats.hits += touches;
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

    /// The obvious strict LRU, as the reference: a `Vec` in recency order
    /// (least recent first), scanned linearly.
    #[derive(Clone, Default)]
    struct RefLru {
        capacity: usize,
        pages: Vec<PageKey>,
        stats: PoolStats,
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
                    }
                    // Carry on with the copy: it must have the original's order.
                    5..=6 => pool = pool.clone(),
                    // A run S of cached touches over at most `capacity`
                    // distinct pages (exactly `capacity` a third of the
                    // time), recorded again by `replay_hits` while the
                    // reference touches S again.
                    7..=9 => {
                        let distinct = match rng.gen_index(3) {
                            0 => capacity,
                            _ => rng.gen_range(0..=capacity),
                        };
                        let mut keys: Vec<PageKey> = Vec::with_capacity(distinct);
                        while keys.len() < distinct {
                            let key =
                                PageKey::new(rng.gen_range(1..=OBJECTS), rng.gen_range(0..pages));
                            if !keys.contains(&key) {
                                keys.push(key);
                            }
                        }
                        // Every page once, then repeats, in a shuffled order.
                        let mut run = keys.clone();
                        for _ in 0..rng.gen_index(2 * distinct + 1) {
                            run.push(keys[rng.gen_index(distinct)]);
                        }
                        rng.shuffle(&mut run);
                        for &key in &run {
                            let kind = AccessKind::Cached;
                            assert_eq!(
                                pool.access(key, kind),
                                lru.access(key, kind),
                                "step {step}"
                            );
                        }
                        pool.replay_hits(run.len() as u64);
                        for &key in &run {
                            assert!(lru.access(key, AccessKind::Cached), "step {step}: S hits");
                        }
                    }
                    _ => {
                        let key = PageKey::new(rng.gen_range(1..=OBJECTS), rng.gen_range(0..pages));
                        let bulk = rng.gen_bool(0.25);
                        let kind = if bulk { AccessKind::BulkRead } else { AccessKind::Cached };
                        assert_eq!(pool.access(key, kind), lru.access(key, kind), "step {step}");
                    }
                }
                assert_eq!(pool.len(), lru.pages.len(), "capacity {capacity} step {step}");
                assert_eq!(pool.is_empty(), lru.pages.is_empty());
                assert_eq!(pool.stats(), lru.stats, "capacity {capacity} step {step}");
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
