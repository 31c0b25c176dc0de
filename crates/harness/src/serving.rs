//! The query pipeline: admit in-flight queries in waves, choose each
//! wave's plans (for Bao: coalesce the arm families into one cross-query
//! scoring batch), and execute, observe and log the selections in
//! dispatch order.
//!
//! This is the only loop in the harness. The serial [`Runner::run`] is
//! this pipeline at concurrency 1, window 1; recovery replays a WAL's
//! committed queries through it with their logged plans in place of the
//! choose step (`crate::recover`).
//!
//! Admission is owned by `bao-sched` (DESIGN.md §10): one FIFO queue
//! whose depth bound and deadline shed overload to arm 0. The default
//! configuration (no bound, no deadline) dispatches in exact arrival
//! order, so the embedded `RunResult` is the same at any concurrency
//! level or coalescing window (`tests/serving_equivalence.rs`,
//! `tests/sched_equivalence.rs`). Determinism is by construction, not by
//! luck — see the invariants on [`ServingRunner::run`] and DESIGN.md
//! §9–10.

use crate::recover::durability_of;
use crate::runner::{
    config_fingerprint, Chooser, Chosen, QueryRecord, RunConfig, RunResult, Runner,
};
use bao_cache::{CacheStats, PlanCache, PlanCacheConfig};
use bao_cloud::gpu_train_time;
use bao_common::json::ToJson;
use bao_common::{split_seed, BaoError, Result, SimDuration};
use bao_exec::execute;
use bao_sched::{QueryArrival, SchedConfig, Scheduler};
use bao_stats::StatsCatalog;
use bao_storage::Database;
use bao_wal::{Wal, WalRecord};
use bao_workloads::{apply_event, Workload};

/// Deterministic latency perturbation for drift testing: every query at
/// workload step `from_step` or later executes `factor`× slower. This is
/// how the drift-invalidation tests simulate an environment change (data
/// growth, noisy neighbor) without touching the executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecFault {
    /// First workload step the fault applies to.
    pub from_step: usize,
    /// Multiplier on executed latency (and the perf the model observes).
    pub factor: f64,
}

/// Knobs of the serving layer.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Maximum number of queries admitted in flight at once (their
    /// planning overlaps; execution stays serialized on the shared
    /// buffer pool, exactly as a single-writer storage engine would).
    pub concurrency: usize,
    /// Maximum number of in-flight queries whose arm families are
    /// coalesced into one cross-query `predict_batch` scoring pass.
    pub coalesce_window: usize,
    /// Template plan cache (DESIGN.md §11). `Some` with capacity 0
    /// never hits and never stores, so it computes what `None` computes
    /// (`tests/serving_equivalence.rs`).
    pub cache: Option<PlanCacheConfig>,
    /// Optional latency fault injection (drift tests only).
    pub fault: Option<ExecFault>,
}

impl ServingConfig {
    pub fn new(concurrency: usize, coalesce_window: usize) -> ServingConfig {
        assert!(concurrency >= 1 && coalesce_window >= 1);
        ServingConfig { concurrency, coalesce_window, cache: None, fault: None }
    }

    /// Enable the template plan cache.
    pub fn with_cache(mut self, cache: PlanCacheConfig) -> ServingConfig {
        self.cache = Some(cache);
        self
    }

    /// Inject a deterministic latency fault (drift tests).
    pub fn with_fault(mut self, fault: ExecFault) -> ServingConfig {
        self.fault = Some(fault);
        self
    }
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig::new(4, 4)
    }
}

/// [`RunResult`] plus serving-layer telemetry. Everything that depends
/// on concurrency, window or admission config lives outside the embedded
/// `result`, so the equivalence tests can compare its raw JSON.
#[derive(Debug, Clone)]
pub struct ServingReport {
    pub result: RunResult,
    /// Number of admission waves the workload was processed in.
    pub waves: usize,
    /// Largest wave actually formed (≤ min(concurrency, window); 1 for
    /// strategies without an arm family to coalesce).
    pub max_wave: usize,
    /// Total plan trees scored through coalesced cross-query batches.
    pub coalesced_trees: usize,
    /// Simulated end-to-end serving time: per wave, in-flight queries
    /// plan concurrently (max of their optimization times) while
    /// execution stays serialized (sum of latencies); open-loop arrival
    /// gaps where the scheduler sits idle count too. Machine-free, so
    /// benchmarks derived from it transfer across hosts.
    pub makespan: SimDuration,
    /// Plan-cache counters (`None` when serving ran uncached).
    pub cache: Option<CacheStats>,
}

impl ServingReport {
    /// Simulated serving throughput over the whole workload.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs();
        if secs > 0.0 {
            self.result.records.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// One dispatch as the scheduler emitted it: which step ran, whether it
/// was shed to arm 0, and how long it queued.
#[derive(Debug, Clone, Copy)]
pub struct DispatchRecord {
    pub idx: usize,
    pub shed: bool,
    pub wait: SimDuration,
}

/// Result of a scheduled (open-loop) serving run: the usual serving
/// report plus the per-dispatch log (execution order, shed flags, queue
/// waits).
#[derive(Debug, Clone)]
pub struct SchedServingReport {
    pub serving: ServingReport,
    pub dispatches: Vec<DispatchRecord>,
}

/// Drives one workload through the query pipeline at a chosen
/// concurrency, coalescing window and admission config: a [`Runner`]
/// (same construction, same seeds, same state) with those set.
pub struct ServingRunner {
    inner: Runner,
}

impl ServingRunner {
    pub fn new(cfg: RunConfig, db: Database, serving: ServingConfig) -> ServingRunner {
        ServingRunner { inner: Runner { serving, ..Runner::new(cfg, db) } }
    }

    /// Override the buffer pool size (mirrors [`Runner::with_pool_pages`]).
    pub fn with_pool_pages(mut self, pages: usize) -> ServingRunner {
        self.inner = self.inner.with_pool_pages(pages);
        self
    }

    /// Replace the default admission config (no queue bound, no shed
    /// deadline).
    pub fn with_sched(mut self, sched: SchedConfig) -> ServingRunner {
        self.inner.sched = sched;
        self
    }

    /// Execute the full workload; the embedded `RunResult` does not
    /// depend on the concurrency or the coalescing window.
    ///
    /// Queries arrive closed-loop — every step is [`QueryArrival::step`]:
    /// already arrived at sim-time zero — which makes the wave former
    /// dispatch in exact step order.
    ///
    /// Waves are sized so that coalescing can never observe state a
    /// one-query-at-a-time run would not have produced yet:
    ///
    /// 1. A wave never spans a workload *event* step — events mutate the
    ///    database, the statistics catalog, and the buffer pool before
    ///    the step's query is planned. (The scheduler sees the workload
    ///    one event-delimited epoch at a time.)
    /// 2. A wave never crosses a *retrain boundary* — the value model
    ///    changes only inside `Bao::observe`, every
    ///    `retrain_interval`-th observation, so all queries of a wave
    ///    are scored by the same model
    ///    (`Bao::queries_until_retrain` exposes the distance).
    /// 3. With *cache features* enabled the featurizer reads buffer-pool
    ///    state that depends on every preceding execution, so waves
    ///    clamp to 1 (coalescing is a no-op, concurrency still applies
    ///    to planning). Strategies other than Bao have no arm family to
    ///    coalesce and run at wave size 1 too.
    /// 4. Selections are computed by `Bao::evaluate_arms_multi`, which
    ///    plans a wave's (query, arm) jobs in one loop in that order and
    ///    whose forward pass is batch-composition invariant; execution
    ///    and experience replay strictly in dispatch order against the
    ///    shared pool and clock.
    pub fn run(mut self, workload: &Workload) -> Result<ServingReport> {
        Ok(self.inner.drive(workload, None, RunResult::default(), None)?.serving)
    }

    /// Execute the workload under an explicit open-loop arrival plan:
    /// each [`QueryArrival`] names the workload step it runs and its
    /// sim-time arrival. Requires `Strategy::Bao` (shedding to
    /// arm 0 is defined only for an arm family) and exactly one arrival
    /// per workload step.
    ///
    /// All wave-clamp invariants of [`ServingRunner::run`] hold
    /// unchanged; the scheduler only decides *which* released queries
    /// fill each wave, and whether they are shed to arm 0.
    pub fn run_scheduled(
        mut self,
        workload: &Workload,
        arrivals: &[QueryArrival],
    ) -> Result<SchedServingReport> {
        if self.inner.bao().is_none() {
            return Err(BaoError::Config(
                "run_scheduled requires Strategy::Bao (shedding to arm 0 needs an arm \
                 family)"
                    .into(),
            ));
        }
        self.inner.drive(workload, Some(arrivals), RunResult::default(), None)
    }
}

impl Runner {
    /// The one wave loop. Continues `done` — the committed prefix of the run,
    /// empty for a fresh one — from step `done.records.len()`. `arrivals`
    /// defaults to closed-loop: every step already arrived at sim-time zero.
    ///
    /// With `replay` (recovery), steps run only up to `replay.len()` and each
    /// re-executes its logged plan in place of the choose step: this rebuilds
    /// the physical state (buffer-pool contents, workload-event side effects)
    /// and re-derives the records and accumulators in the original f64
    /// addition order. Replay runs with no WAL attached, so nothing is
    /// re-logged.
    ///
    /// This loop is the only writer of the write-ahead log (DESIGN.md §14).
    /// Per query it logs, in order: the experience append, numbered by the
    /// queries committed before it; a retrain's checkpoint and boundary;
    /// and the outcome, which is the commit marker.
    /// Each wave ends in one group commit.
    pub(crate) fn drive(
        &mut self,
        workload: &Workload,
        arrivals: Option<&[QueryArrival]>,
        mut done: RunResult,
        replay: Option<&[QueryRecord]>,
    ) -> Result<SchedServingReport> {
        let serving = self.serving;
        // Open the log of a fresh durable run, its header fingerprinting the
        // full run configuration (not for a resumed run, which arrives with
        // its truncated log attached; a replay must not log at all). Logging
        // is invisible to everything computed below: appends buffer in
        // memory and the flush is one group commit per wave.
        if let (None, None, Some(dur)) = (replay, &self.wal, durability_of(&self.cfg)) {
            let mut wal = Wal::open(dur.clone())?;
            let config_fp = config_fingerprint(&self.cfg);
            wal.append(&WalRecord::RunHeader { seed: self.cfg.seed, config_fp });
            wal.commit()?;
            self.wal = Some(wal);
        }
        // Invariant 3: only Bao without cache features coalesces.
        let cache_features = self.bao().map(|bao| bao.cfg.cache_features);
        let wave_cap_base = match cache_features {
            Some(false) => serving.concurrency.min(serving.coalesce_window).max(1),
            _ => 1,
        };

        let steps = &workload.steps;
        let from = done.records.len();
        let upto = replay.map_or(steps.len(), <[_]>::len);
        // Exactly one arrival per step. Sorted by step, so each epoch below
        // is a slice, submitted in step order.
        let mut by_step: Vec<QueryArrival> = match arrivals {
            Some(arrivals) => arrivals.to_vec(),
            None => (0..steps.len()).map(QueryArrival::step).collect(),
        };
        by_step.sort_by_key(|a| a.idx);
        if by_step.len() != steps.len() || by_step.iter().enumerate().any(|(i, a)| a.idx != i) {
            return Err(BaoError::Config(format!(
                "arrivals must name each of the {} workload steps exactly once ({} given; a \
                 step is missing, duplicated or out of range)",
                steps.len(),
                by_step.len()
            )));
        }

        let mut scheduler = Scheduler::new(self.sched)?;
        // The template plan cache (DESIGN.md §11). `Some` with capacity 0
        // behaves like `None`: lookups never hit and inserts never store.
        let mut cache: Option<PlanCache> = serving.cache.map(PlanCache::new);

        done.records.reserve(upto.saturating_sub(from));
        let mut dispatches: Vec<DispatchRecord> = Vec::with_capacity(upto.saturating_sub(from));
        let mut clock = done.records.last().map_or(SimDuration::ZERO, |r| r.clock);
        let mut now = SimDuration::ZERO;
        let mut waves = 0usize;
        let mut max_wave = 0usize;
        let mut coalesced_trees = 0usize;

        // Invariant 1: an event step opens a new epoch. Only the current
        // epoch's arrivals are submitted to the scheduler, so no wave can
        // span an event, and the event is applied before anything of its
        // epoch is planned. (A resumed run starts mid-epoch at `from`,
        // whose own event — if it has one — is still to be applied.)
        let mut start = from;
        while start < upto {
            let end = (start + 1..upto).find(|&i| steps[i].event.is_some()).unwrap_or(upto);
            if let Some(ev) = &steps[start].event {
                apply_event(&mut self.db, ev, split_seed(self.cfg.seed, 77))?;
                // Re-analyze with the step-indexed seed.
                let seed = split_seed(self.cfg.seed, 78 + start as u64);
                self.cat = StatsCatalog::analyze(&self.db, self.cfg.stats_sample, seed);
                // New/rebuilt objects invalidate prior cache contents.
                self.pool.clear();
            }

            // Ties in arrival time release in submission order — step order —
            // which is what makes the closed-loop default run the steps in
            // order.
            scheduler.submit(&by_step[start..end])?;

            let mut remaining = end - start;
            while remaining > 0 {
                scheduler.release(now);
                let until_retrain = self.bao().map_or(1, |bao| bao.queries_until_retrain());
                let cap = wave_cap_base.min(until_retrain).min(remaining); // invariant 2
                let wave = scheduler.form_wave(now, cap);
                if wave.is_empty() {
                    // Open-loop idle gap: the epoch's undispatched steps are
                    // all still pending, so jump to the next arrival.
                    now = scheduler.next_arrival().ok_or_else(|| {
                        BaoError::Config(format!(
                            "scheduler holds none of the epoch's {remaining} undispatched steps"
                        ))
                    })?;
                    continue;
                }
                let chosen = match replay {
                    Some(logged) => wave
                        .iter()
                        .map(|d| Chosen { record: logged[d.idx].clone(), tree: None, fp: None })
                        .collect(),
                    None => self.choose(&wave, steps, cache.as_mut(), &mut coalesced_trees)?,
                };

                // Serving clock: the wave's queries plan concurrently, so the
                // wave costs its slowest optimization plus serialized
                // execution.
                let wave_start = now;
                let mut wave_opt_max = SimDuration::ZERO;
                let mut wave_exec = SimDuration::ZERO;

                // Invariant 4: execute + observe strictly in dispatch order
                // against the shared pool; this is where the clock, the
                // experience ordering, and the retrain schedule are made.
                // Shed queries still feed experience — their arm-0 plan ran
                // and its reward is real training data — and still count
                // toward the retrain distance, like any fallback query.
                for (d, Chosen { record: mut rec, tree, fp }) in wave.iter().zip(chosen) {
                    let mut metrics = execute(
                        &rec.plan,
                        &steps[d.idx].query,
                        &self.db,
                        &mut self.pool,
                        &self.opt.params,
                        &self.cfg.vm.charge_rates(),
                    )?;
                    // Cold cache: every query starts on an empty pool. The
                    // run's first does because the pool is created empty.
                    if self.cfg.cold_cache {
                        self.pool.clear();
                    }
                    if let Some(f) = serving.fault {
                        if d.idx >= f.from_step {
                            metrics.latency = metrics.latency * f.factor;
                        }
                    }
                    rec.latency = metrics.latency;
                    rec.cpu_time = metrics.cpu_time;
                    rec.physical_io = metrics.page_misses;
                    rec.perf = metrics.perf(self.cfg.metric);

                    // Drift bookkeeping: every execution of a cached template
                    // feeds its rolling window (arm-mismatched observations —
                    // e.g. a shed dispatch of a template cached at another
                    // arm — are ignored by the cache). A drifted entry is
                    // evicted, and the template's next arrival re-scores.
                    if let (Some(cache), Some(fp)) = (cache.as_mut(), fp) {
                        cache.observe(fp, rec.arm, rec.perf);
                    }

                    // Feed Bao's experience and retrain on schedule. (A
                    // replayed query carries no tree: its experience is
                    // already restored, its GPU time already in the record.)
                    // Every committed query was observed exactly once, so the
                    // committed count numbers the experience append.
                    if let (Chooser::Bao(bao), Some(tree)) = (&mut self.chooser, tree) {
                        if let Some(wal) = &mut self.wal {
                            wal.append(&WalRecord::ExperienceAppend {
                                step: done.records.len() as u64,
                                tree: tree.clone(),
                                perf: rec.perf,
                            });
                        }
                        if let Some(report) = bao.observe(tree, rec.perf) {
                            rec.gpu_time =
                                gpu_train_time(report.experience_size, report.epochs.max(1));
                            done.wall_train += report.wall;
                            // Checkpoint first, boundary last: the boundary is
                            // the marker recovery keys on, and a checkpoint
                            // without its boundary is superseded by the refit
                            // path.
                            if let Some(wal) = &mut self.wal {
                                let version = bao.model_version() as u64;
                                if let Some(model) = bao.model_snapshot() {
                                    wal.append(&WalRecord::ModelCheckpoint { version, model });
                                }
                                wal.append(&WalRecord::RetrainBoundary {
                                    version,
                                    experience_size: report.experience_size as u64,
                                });
                            }
                        }
                    }

                    clock += rec.opt_time + rec.latency;
                    rec.clock = clock;
                    done.total_exec += rec.latency;
                    done.total_opt += rec.opt_time;
                    done.total_gpu += rec.gpu_time;
                    wave_opt_max = wave_opt_max.max(rec.opt_time);
                    wave_exec += rec.latency;
                    let wait = (wave_start - d.arrival).max(SimDuration::ZERO);
                    dispatches.push(DispatchRecord { idx: d.idx, shed: d.shed, wait });
                    // The outcome frame is deliberately the query's last:
                    // recovery treats it as the commit marker and rolls back
                    // anything after it.
                    if let Some(wal) = &mut self.wal {
                        wal.append(&WalRecord::QueryOutcome { record: rec.to_json() });
                    }
                    done.records.push(rec);
                }

                // Group commit: one flush (and at most one fsync, per the
                // fsync policy) covers the whole wave's frames — this is the
                // batching that keeps WAL overhead (the repo benchmark's
                // `wal.run_overhead_frac`) small.
                if let Some(wal) = &mut self.wal {
                    wal.commit()?;
                }
                now += wave_opt_max + wave_exec;
                waves += 1;
                max_wave = max_wave.max(wave.len());
                remaining -= wave.len();
            }
            start = end;
        }

        Ok(SchedServingReport {
            serving: ServingReport {
                result: done,
                waves,
                max_wave,
                coalesced_trees,
                makespan: now,
                cache: cache.as_ref().map(PlanCache::stats),
            },
            dispatches,
        })
    }
}
