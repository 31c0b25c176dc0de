//! Crash recovery: replay a `bao-wal` log into a reconstructed runner
//! whose continued execution is bit-identical to a run that never
//! crashed (DESIGN.md §14).
//!
//! Recovery invariants:
//!
//! 1. **Commit rule.** A query exists iff its `QueryOutcome` frame is in
//!    the valid log prefix. Experience/checkpoint frames trailing the
//!    last outcome are rolled back (and physically truncated on resume),
//!    so a crash between `observe` and commit loses the whole query, not
//!    half of it.
//! 2. **State equivalence.** After replay, every piece of state the
//!    remaining queries can observe — experience window contents, model
//!    weights, model-version counter, buffer-pool pages, database +
//!    statistics (via re-applied workload events), f64 accumulators —
//!    equals the uninterrupted run's state at the same step, exactly.
//!    Model weights come from the logged checkpoint byte-for-byte, or
//!    (for models without snapshots) from a deterministic refit over the
//!    replayed window with the same derived seeds.
//! 3. **Divergence detection.** Replay re-executes each committed
//!    query's logged plan and re-derives its record; any difference
//!    from the logged record aborts recovery rather than silently
//!    continuing from corrupt state.
//!
//! Replay and the resumed run are both the query pipeline
//! (`Runner::drive`): replay feeds it the logged plans in place of the
//! choose step, resume continues it from the replayed prefix.

use bao_common::json::FromJson;
use bao_common::{BaoError, Result};
use bao_storage::Database;
use bao_wal::{DurabilityConfig, RecoveryReport, Wal, WalRecord};
use bao_workloads::Workload;

use crate::runner::{config_fingerprint, QueryRecord, RunConfig, RunResult, Runner, Strategy};

/// A runner reconstructed from a WAL, ready to finish its workload.
pub struct Recovered {
    runner: Runner,
    /// The committed prefix of the run, as replayed.
    done: RunResult,
    /// What the scan + replay found (frame census, torn/corrupt tail,
    /// rollback count, resume point).
    pub report: RecoveryReport,
}

impl Recovered {
    /// The workload step execution will continue from.
    pub fn resumed_at_step(&self) -> usize {
        self.done.records.len()
    }

    /// Finish the workload from the recovered state. The returned
    /// `RunResult` matches the uninterrupted run's byte-for-byte, except
    /// `wall_train` (real wall-clock, unrecoverable by definition —
    /// `RunResult::canonical_json` zeroes it).
    pub fn resume(mut self, workload: &Workload) -> Result<RunResult> {
        Ok(self.runner.drive(workload, None, self.done, None)?.serving.result)
    }
}

/// The run's one durability setting, `BaoSettings::durability`; `None`
/// for an in-memory run or a strategy other than Bao.
pub(crate) fn durability_of(cfg: &RunConfig) -> Option<&DurabilityConfig> {
    match &cfg.strategy {
        Strategy::Bao(s) => s.durability.as_ref(),
        _ => None,
    }
}

/// Scan + replay the WAL under `cfg`'s durability directory and build a
/// [`Recovered`] runner positioned at the first uncommitted step. Errors
/// when nothing recoverable exists (no segments, no committed
/// `RunHeader`), when the header does not match `cfg`, or when replay
/// diverges from the logged outcomes.
pub fn recover(cfg: RunConfig, db: Database, workload: &Workload) -> Result<Recovered> {
    let dur = durability_of(&cfg).cloned().ok_or_else(|| {
        BaoError::Config("recovery requires the Bao strategy with BaoSettings.durability".into())
    })?;
    let mut scan = Wal::scan(&dur.dir)?;
    scan.rollback_to_last_outcome();

    let mut frames = scan.frames.iter().map(|f| &f.record);
    match frames.next() {
        Some(WalRecord::RunHeader { seed, config_fp }) => {
            if *seed != cfg.seed || *config_fp != config_fingerprint(&cfg) {
                return Err(BaoError::Config(format!(
                    "wal header (seed {seed}, fp {config_fp:#x}) does not match the \
                     recovery configuration (seed {}, fp {:#x})",
                    cfg.seed,
                    config_fingerprint(&cfg)
                )));
            }
        }
        _ => {
            return Err(BaoError::NotFound(
                "wal holds no committed run header; nothing to recover".into(),
            ))
        }
    }

    let mut runner = Runner::new(cfg, db);
    let bao = runner
        .bao_mut()
        .ok_or_else(|| BaoError::Config("recovery runner has no Bao instance".into()))?;
    let mut committed: Vec<QueryRecord> = Vec::new();
    let mut stashed_checkpoint: Option<(u64, String)> = None;
    for record in frames {
        match record {
            WalRecord::RunHeader { .. } => {
                return Err(BaoError::Parse("duplicate run header in wal".into()));
            }
            WalRecord::ExperienceAppend { tree, perf, .. } => {
                bao.restore_experience(tree.clone(), *perf);
            }
            WalRecord::ModelCheckpoint { version, model } => {
                stashed_checkpoint = Some((*version, model.clone()));
            }
            WalRecord::RetrainBoundary { version, .. } => {
                let checkpoint = match &stashed_checkpoint {
                    Some((v, snap)) if v == version => Some(snap.as_str()),
                    _ => None,
                };
                bao.restore_retrain(*version, checkpoint)?;
                stashed_checkpoint = None;
            }
            WalRecord::QueryOutcome { record } => {
                let rec = QueryRecord::from_json(record)?;
                // The resumed run continues at step `committed.len()`,
                // which is the next one only for a log written in step
                // order (closed-loop arrivals) over this workload.
                if rec.idx != committed.len() || rec.idx >= workload.len() {
                    return Err(BaoError::Config(format!(
                        "wal outcome {} is for step {}: not a step-order log of this \
                         {}-step workload",
                        committed.len(),
                        rec.idx,
                        workload.len()
                    )));
                }
                committed.push(rec);
            }
        }
    }
    // Re-execute the committed queries' logged plans through the
    // pipeline. Nothing above touched what execution reads (database,
    // statistics, buffer pool) and replay touches nothing Bao holds, so
    // restoring Bao first lands on the same state as interleaving them.
    let done = runner.drive(workload, None, RunResult::default(), Some(&committed))?.serving.result;
    if let Some((got, want)) = done.records.iter().zip(&committed).find(|(got, want)| got != want) {
        let key = |r: &QueryRecord| (r.perf, r.latency, r.physical_io, r.clock);
        return Err(BaoError::Config(format!(
            "wal replay diverged at step {}: (perf, latency, io, clock) replayed {:?}, logged {:?}",
            want.idx,
            key(got),
            key(want)
        )));
    }
    scan.report.resumed_at_step = done.records.len() as u64;

    // Truncate the on-disk log to the committed prefix and attach the
    // reopened handle to the runner, so the resumed run keeps logging
    // where the crashed one stopped. Replay above ran with no WAL
    // attached — restores must never re-log.
    runner.wal = Some(Wal::resume(dur, &scan)?);

    Ok(Recovered { runner, done, report: scan.report })
}

/// Recover if the WAL holds a committed prefix; otherwise wipe the log
/// directory and run the workload from scratch (with fresh logging).
/// This makes crash handling *total*: for every possible crash point —
/// including one torn inside the very first header frame — the final
/// `RunResult` equals the uninterrupted run's. Only a log with nothing
/// to recover (`NotFound`) or a damaged one (`Parse`) is wiped. A log
/// that does not belong to this run — a header for another seed or
/// configuration, or a replay that diverges from the logged outcomes
/// because the database or build differs — is a `Config` error, returned
/// with the log left as it is.
pub fn recover_or_fresh(cfg: RunConfig, db: Database, workload: &Workload) -> Result<RunResult> {
    match recover(cfg.clone(), db.clone(), workload) {
        Ok(recovered) => recovered.resume(workload),
        Err(BaoError::NotFound(_)) | Err(BaoError::Parse(_)) => {
            // `recover` got past its durability check to fail this way.
            if let Some(dir) = durability_of(&cfg).map(|d| &d.dir).filter(|d| d.exists()) {
                std::fs::remove_dir_all(dir)
                    .map_err(|e| BaoError::Io(format!("wiping wal dir: {e}")))?;
            }
            Runner::new(cfg, db).run(workload)
        }
        Err(e) => Err(e),
    }
}
