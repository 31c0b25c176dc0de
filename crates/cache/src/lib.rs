//! `bao-cache`: a template plan cache for the serving layer.
//!
//! Bao's practicality argument (paper §6.2) is that per-query overhead
//! must stay negligible — yet the serving layer scores all 49 arms
//! through the TCNN for every admitted query, even though most traffic
//! is re-parameterized instances of a few hot templates. The cache
//! memoizes the chosen arm per [`QueryFingerprint`] (template +
//! parameter bucket, see `bao_plan::fingerprint`): a hit plans exactly
//! one arm and skips model inference entirely; a miss scores as usual
//! and populates the cache.
//!
//! Entries go stale two ways, and the cache handles both:
//!
//! * **Retrain invalidation** — the cached arm embeds a model-version
//!   number ([`Bao::retrains`]); a lookup under a newer version evicts
//!   the entry lazily and reports a miss, so every retrain flushes the
//!   whole cache without a sweep.
//! * **Drift detection** — each entry keeps a rolling window of observed
//!   execution performance. When the window mean diverges from the
//!   prediction the entry was cached with by more than a threshold, the
//!   entry is evicted (the next instance re-scores), or — under
//!   overload — re-pinned to arm 0, the unconstrained optimizer's plan,
//!   reusing the scheduler's graceful-degradation arm (DESIGN.md §10).
//!
//! Everything is deterministic: ordered storage (`BTreeMap`), an
//! explicit LRU tick, no wall clock, no RNG. With capacity 0 the cache
//! is inert and the serving path is byte-identical to the uncached one
//! (pinned by `tests/serving_equivalence.rs`).

use bao_plan::QueryFingerprint;
use std::collections::BTreeMap;

/// Knobs of the plan cache.
#[derive(Debug, Clone, Copy)]
pub struct PlanCacheConfig {
    /// Maximum number of cached (template, param-bucket) entries;
    /// 0 disables the cache entirely.
    pub capacity: usize,
    /// Observations of one entry before a drift verdict is reached.
    pub drift_window: usize,
    /// Relative divergence that counts as drift: an entry drifts when
    /// `|window mean - predicted| / predicted` exceeds this.
    pub drift_threshold: f64,
    /// Scheduler backlog (queued queries) above which a drifted entry is
    /// shed to arm 0 instead of evicted for re-scoring. `usize::MAX`
    /// never sheds.
    pub overload_backlog: usize,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig {
            capacity: 256,
            drift_window: 8,
            drift_threshold: 1.0,
            overload_backlog: usize::MAX,
        }
    }
}

/// What a cache hit hands the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedChoice {
    /// Arm to plan (no scoring pass).
    pub arm: usize,
    /// The model's predicted performance when the entry was cached;
    /// drift is measured against this.
    pub predicted: f64,
    /// True when the entry was drift-shed to arm 0 under overload.
    pub pinned: bool,
}

/// Verdict of one [`PlanCache::observe`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftOutcome {
    /// No entry tracks this fingerprint (or it served a different arm).
    NotTracked,
    /// Within tolerance, or not enough observations yet.
    Stable,
    /// Diverged; entry evicted — the next instance re-scores.
    Evicted,
    /// Diverged under overload; entry re-pinned to arm 0.
    Shed,
}

/// Monotonic counters, surfaced in the serving report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: usize,
    pub misses: usize,
    pub inserts: usize,
    /// Capacity (LRU) evictions.
    pub evictions: usize,
    /// Lookups that found an entry cached under an older model version.
    pub retrain_invalidations: usize,
    /// Entries evicted by drift detection.
    pub drift_evictions: usize,
    /// Entries re-pinned to arm 0 by drift detection under overload.
    pub drift_sheds: usize,
}

impl CacheStats {
    /// Hits over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    arm: usize,
    predicted: f64,
    model_version: usize,
    pinned: bool,
    /// Rolling window of observed performance, oldest first.
    window: Vec<f64>,
    /// LRU tick of the last lookup or insert.
    last_used: u64,
}

/// The fingerprinted (template, param-bucket) → (arm, prediction, model
/// version) cache.
#[derive(Debug)]
pub struct PlanCache {
    cfg: PlanCacheConfig,
    entries: BTreeMap<QueryFingerprint, Entry>,
    stats: CacheStats,
    tick: u64,
}

impl PlanCache {
    pub fn new(cfg: PlanCacheConfig) -> PlanCache {
        PlanCache { cfg, entries: BTreeMap::new(), stats: CacheStats::default(), tick: 0 }
    }

    pub fn config(&self) -> &PlanCacheConfig {
        &self.cfg
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a fingerprint under the current model version. An entry
    /// cached under an older version is evicted here, lazily — every
    /// retrain flushes the cache without a sweep — and reported as a
    /// miss (counted in `retrain_invalidations`).
    pub fn lookup(
        &mut self,
        fp: QueryFingerprint,
        model_version: usize,
    ) -> Option<CachedChoice> {
        if self.cfg.capacity == 0 {
            return None;
        }
        self.tick += 1;
        match self.entries.get_mut(&fp) {
            Some(e) if e.model_version == model_version => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(CachedChoice { arm: e.arm, predicted: e.predicted, pinned: e.pinned })
            }
            Some(_) => {
                self.entries.remove(&fp);
                self.stats.retrain_invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Cache a freshly scored choice. Over capacity, the least recently
    /// used entry is evicted (ties broken by fingerprint order — the
    /// storage is ordered, so eviction is deterministic).
    pub fn insert(
        &mut self,
        fp: QueryFingerprint,
        arm: usize,
        predicted: f64,
        model_version: usize,
    ) {
        if self.cfg.capacity == 0 {
            return;
        }
        self.tick += 1;
        let entry = Entry {
            arm,
            predicted,
            model_version,
            pinned: false,
            window: Vec::new(),
            last_used: self.tick,
        };
        self.entries.insert(fp, entry);
        self.stats.inserts += 1;
        while self.entries.len() > self.cfg.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
    }

    /// Feed one observed execution performance for a fingerprint that
    /// was served `arm` (hit or fresh insert alike). Once the rolling
    /// window is full, the window mean is compared against the cached
    /// prediction; past the threshold the entry drifts: evicted for
    /// re-scoring, or — when `backlog` exceeds the configured overload
    /// bound — re-pinned to arm 0 so hot overloaded templates keep
    /// serving the safe plan without a scoring pass.
    ///
    /// Pinned entries are not drift-checked again (there is no model
    /// prediction to compare); they leave via retrain invalidation.
    pub fn observe(
        &mut self,
        fp: QueryFingerprint,
        arm: usize,
        perf: f64,
        backlog: usize,
    ) -> DriftOutcome {
        if self.cfg.capacity == 0 {
            return DriftOutcome::NotTracked;
        }
        let Some(e) = self.entries.get_mut(&fp) else {
            return DriftOutcome::NotTracked;
        };
        if e.arm != arm || e.pinned {
            return if e.pinned { DriftOutcome::Stable } else { DriftOutcome::NotTracked };
        }
        e.window.push(perf);
        if e.window.len() > self.cfg.drift_window {
            e.window.remove(0);
        }
        if e.window.len() < self.cfg.drift_window.max(1) {
            return DriftOutcome::Stable;
        }
        let mean = e.window.iter().sum::<f64>() / e.window.len() as f64;
        let divergence = (mean - e.predicted).abs() / e.predicted.abs().max(1e-9);
        if divergence <= self.cfg.drift_threshold {
            return DriftOutcome::Stable;
        }
        if backlog > self.cfg.overload_backlog {
            // Overloaded: degrade to the safe arm instead of paying a
            // re-scoring pass — the bao-sched shedding contract.
            e.arm = 0;
            e.pinned = true;
            e.window.clear();
            self.stats.drift_sheds += 1;
            DriftOutcome::Shed
        } else {
            self.entries.remove(&fp);
            self.stats.drift_evictions += 1;
            DriftOutcome::Evicted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> QueryFingerprint {
        QueryFingerprint { template: n, params: 0 }
    }

    fn cfg(capacity: usize, window: usize) -> PlanCacheConfig {
        PlanCacheConfig {
            capacity,
            drift_window: window,
            drift_threshold: 1.0,
            overload_backlog: usize::MAX,
        }
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = PlanCache::new(cfg(4, 3));
        assert_eq!(c.lookup(fp(1), 0), None);
        c.insert(fp(1), 7, 12.5, 0);
        let hit = c.lookup(fp(1), 0).expect("hit");
        assert_eq!(hit.arm, 7);
        assert!(!hit.pinned);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_is_inert() {
        let mut c = PlanCache::new(cfg(0, 3));
        c.insert(fp(1), 7, 12.5, 0);
        assert_eq!(c.lookup(fp(1), 0), None);
        assert_eq!(c.observe(fp(1), 7, 5.0, 0), DriftOutcome::NotTracked);
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.is_empty());
    }

    #[test]
    fn retrain_bump_invalidates_lazily() {
        let mut c = PlanCache::new(cfg(4, 3));
        c.insert(fp(1), 3, 10.0, 0);
        assert_eq!(c.lookup(fp(1), 1), None);
        assert_eq!(c.stats().retrain_invalidations, 1);
        assert!(c.is_empty(), "stale entry must be evicted, not linger");
        // Re-scored under the new version, it serves again.
        c.insert(fp(1), 5, 9.0, 1);
        assert_eq!(c.lookup(fp(1), 1).map(|h| h.arm), Some(5));
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let mut c = PlanCache::new(cfg(2, 3));
        c.insert(fp(1), 1, 1.0, 0);
        c.insert(fp(2), 2, 1.0, 0);
        assert!(c.lookup(fp(1), 0).is_some()); // refresh 1; 2 is now LRU
        c.insert(fp(3), 3, 1.0, 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(fp(2), 0).is_none(), "LRU entry 2 must be gone");
        assert!(c.lookup(fp(3), 0).is_some());
    }

    #[test]
    fn drift_evicts_within_the_window() {
        let mut c = PlanCache::new(cfg(4, 3));
        c.insert(fp(1), 7, 10.0, 0);
        // In tolerance: 2x threshold means anything in (0, 20] holds.
        for _ in 0..5 {
            assert_eq!(c.observe(fp(1), 7, 14.0, 0), DriftOutcome::Stable);
        }
        // Perturbed executor: latencies jump 8x; the rolling mean must
        // cross the threshold within one window of observations.
        let outcomes: Vec<DriftOutcome> =
            (0..3).map(|_| c.observe(fp(1), 7, 80.0, 0)).collect();
        let evicted_at = outcomes.iter().position(|&o| o == DriftOutcome::Evicted);
        assert!(evicted_at.is_some(), "no eviction within the window: {outcomes:?}");
        assert_eq!(c.stats().drift_evictions, 1);
        assert!(c.lookup(fp(1), 0).is_none(), "drifted entry must re-score");
    }

    #[test]
    fn drift_under_overload_sheds_to_arm_zero() {
        let mut c = PlanCache::new(PlanCacheConfig {
            overload_backlog: 4,
            ..cfg(4, 2)
        });
        c.insert(fp(1), 7, 10.0, 0);
        assert_eq!(c.observe(fp(1), 7, 90.0, 10), DriftOutcome::Stable);
        assert_eq!(c.observe(fp(1), 7, 90.0, 10), DriftOutcome::Shed);
        assert_eq!(c.stats().drift_sheds, 1);
        let hit = c.lookup(fp(1), 0).expect("pinned entry still serves");
        assert_eq!(hit.arm, 0);
        assert!(hit.pinned);
        // Pinned entries are not drift-checked again...
        assert_eq!(c.observe(fp(1), 0, 90.0, 10), DriftOutcome::Stable);
        // ...but a retrain still flushes them.
        assert_eq!(c.lookup(fp(1), 1), None);
        assert_eq!(c.stats().retrain_invalidations, 1);
    }

    #[test]
    fn observe_ignores_mismatched_arm() {
        let mut c = PlanCache::new(cfg(4, 1));
        c.insert(fp(1), 7, 10.0, 0);
        // A shed dispatch executed arm 0 while the cache holds arm 7:
        // that observation says nothing about the cached choice.
        assert_eq!(c.observe(fp(1), 0, 500.0, 0), DriftOutcome::NotTracked);
        assert!(c.lookup(fp(1), 0).is_some());
    }
}
