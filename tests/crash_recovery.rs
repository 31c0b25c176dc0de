//! Kill-at-every-boundary crash recovery (DESIGN.md §14).
//!
//! The property: truncate the WAL at *any* byte prefix — every frame
//! boundary, mid-frame (torn write), even inside the very first header
//! frame — recover, finish the workload, and both the final `RunResult`
//! and the final on-disk WAL are byte-identical to a run that never
//! crashed. Corrupt (bit-flipped) frames must likewise be detected,
//! truncated, and never replayed.
//!
//! `wall_train` is the one legitimately wall-clock field and is zeroed
//! before comparison, the workspace-wide equivalence convention. Model
//! weights are compared through the WAL itself: every retrain logs a
//! full `ModelCheckpoint` frame, so "final WAL bytes equal" pins the
//! weight trajectory bit-for-bit.
//!
//! The default run is the smoke subset (1 seed, every 4th boundary);
//! `BAO_CRASH_EXHAUSTIVE=1` runs every boundary across 3 seeds — the
//! `check.sh --crash-smoke` / nightly split.

use std::fs;
use std::path::{Path, PathBuf};

use bao_common::{json, BaoError, SimDuration};
use bao_harness::{
    recover, recover_or_fresh, BaoSettings, ModelKind, RunConfig, Runner, ServingConfig,
    ServingRunner, Strategy,
};
use bao_opt::HintSet;
use bao_sched::QueryArrival;
use bao_storage::Database;
use bao_wal::frame::{decode_frame, FrameDecode, SEGMENT_HEADER_LEN};
use bao_wal::{DurabilityConfig, FsyncPolicy, Wal, WalRecord};
use bao_workloads::{Workload, WorkloadStep};

const SCALE: f64 = 0.01;
const N_QUERIES: usize = 12;
const RETRAIN: usize = 4;

fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bao-crash-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn settings(dir: Option<&Path>) -> BaoSettings {
    BaoSettings {
        arms: HintSet::top_arms(3),
        model: ModelKind::TcnnFast,
        window: N_QUERIES,
        retrain: RETRAIN,
        // Cache features ON: featurization reads buffer-pool state, so
        // byte-identity after recovery also proves the replay rebuilt
        // the pool exactly.
        cache_features: true,
        durability: dir.map(|d| {
            DurabilityConfig::new(d).with_fsync(FsyncPolicy::Never).with_segment_bytes(64 << 20)
        }),
        ..BaoSettings::default()
    }
}

fn run_config(seed: u64, dir: Option<&Path>) -> RunConfig {
    RunConfig {
        seed,
        stats_sample: 200,
        ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings(dir)))
    }
}

fn workload(seed: u64) -> (Database, Workload) {
    bao_bench::build_workload(bao_bench::WorkloadName::Imdb, SCALE, N_QUERIES, seed)
        .expect("build workload")
}

fn segment0(dir: &Path) -> PathBuf {
    dir.join("wal-000000.seg")
}

/// Write `bytes` as the segment file at `path`, creating its directory.
#[expect(clippy::disallowed_methods, reason = "installs a cut log for recovery to read")]
fn install_segment(path: &Path, bytes: &[u8]) {
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, bytes).unwrap();
}

/// The uninterrupted run every crash case of one seed must reproduce.
struct Golden<'a> {
    seed: u64,
    db: &'a Database,
    wl: &'a Workload,
    result: &'a [u8],
    wal: &'a [u8],
}

/// Byte offsets of every frame boundary in a single-segment log
/// (including the header end, i.e. "before the first frame").
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offs = vec![SEGMENT_HEADER_LEN];
    let mut off = SEGMENT_HEADER_LEN;
    while off < bytes.len() {
        match decode_frame(&bytes[off..]) {
            FrameDecode::Complete { consumed, .. } => {
                off += consumed;
                offs.push(off);
            }
            other => panic!("golden wal must be fully valid, got {other:?} at {off}"),
        }
    }
    offs
}

/// One crash case: install `bytes` as the log, recover, finish, compare.
///
/// While the damage leaves frame 0 (the `RunHeader`) whole, recovery must
/// succeed on its own, without the wipe-and-rerun fallback, whose fresh
/// run's bytes would hide a wrong recovery. Only damage inside the segment
/// header or frame 0 may take the `recover_or_fresh` path.
fn assert_recovers(case_dir: &Path, bytes: &[u8], golden: &Golden, what: &str) {
    let Golden { seed, db, wl, .. } = *golden;
    let _ = fs::remove_dir_all(case_dir);
    install_segment(&segment0(case_dir), bytes);
    let cfg = run_config(seed, Some(case_dir));
    let header_end = frame_boundaries(golden.wal)[1];
    let header_whole = bytes.len() >= header_end && bytes[..header_end] == golden.wal[..header_end];
    let result = if header_whole {
        recover(cfg, db.clone(), wl).and_then(|rec| rec.resume(wl))
    } else {
        recover_or_fresh(cfg, db.clone(), wl)
    }
    .unwrap_or_else(|e| panic!("recovery failed for {what}: {e}"));
    assert_eq!(
        result.canonical_json().into_bytes(),
        golden.result,
        "final RunResult diverged after {what}"
    );
    let final_wal = fs::read(segment0(case_dir)).unwrap();
    assert_eq!(final_wal, golden.wal, "final wal bytes diverged after {what}");
    let _ = fs::remove_dir_all(case_dir);
}

fn crash_matrix(seed: u64, stride: usize, root: &Path) {
    let (db, wl) = workload(seed);
    let golden_dir = root.join(format!("golden-{seed}"));
    let golden =
        Runner::new(run_config(seed, Some(&golden_dir)), db.clone()).run(&wl).expect("golden run");
    assert_eq!(golden.records.len(), N_QUERIES);
    let golden_result = golden.canonical_json().into_bytes();
    let golden_wal = fs::read(segment0(&golden_dir)).unwrap();
    assert!(
        !golden_dir.join("wal-000001.seg").exists(),
        "matrix assumes a single-segment golden log"
    );

    let bounds = frame_boundaries(&golden_wal);
    // 1 header frame + (experience + outcome) per query + (checkpoint +
    // boundary) per retrain.
    let expect_frames = 1 + 2 * N_QUERIES + 2 * (N_QUERIES / RETRAIN);
    assert_eq!(bounds.len(), expect_frames + 1, "unexpected golden frame count");
    let golden = Golden { seed, db: &db, wl: &wl, result: &golden_result, wal: &golden_wal };

    let case_dir = root.join(format!("case-{seed}"));
    for (i, pair) in bounds.windows(2).enumerate() {
        if i % stride != 0 {
            continue;
        }
        let (at, next) = (pair[0], pair[1]);
        // Clean kill exactly at a record boundary.
        assert_recovers(
            &case_dir,
            &golden_wal[..at],
            &golden,
            &format!("boundary cut at byte {at} (frame {i})"),
        );
        // Torn write: kill mid-frame.
        let mid = at + (next - at) / 2;
        assert_recovers(
            &case_dir,
            &golden_wal[..mid],
            &golden,
            &format!("torn cut at byte {mid} (inside frame {i})"),
        );
        // Bit rot: full-length log, one bit flipped inside this frame.
        if next > at {
            let mut rotten = golden_wal.clone();
            rotten[at + (next - at) / 2] ^= 0x20;
            assert_recovers(
                &case_dir,
                &rotten,
                &golden,
                &format!("bit flip at byte {mid} (inside frame {i})"),
            );
        }
    }
    // The zero-byte and header-only prefixes (nothing valid at all).
    assert_recovers(&case_dir, &[], &golden, "empty log file");
    assert_recovers(&case_dir, &golden_wal[..3], &golden, "cut inside the segment header");
    let _ = fs::remove_dir_all(&golden_dir);
}

#[test]
fn kill_at_every_boundary_matches_uninterrupted_run() {
    let root = temp_root("matrix");
    let exhaustive = std::env::var("BAO_CRASH_EXHAUSTIVE").is_ok_and(|v| !v.is_empty() && v != "0");
    if exhaustive {
        for seed in [11, 12, 13] {
            crash_matrix(seed, 1, &root);
        }
    } else {
        crash_matrix(11, 4, &root);
    }
    let _ = fs::remove_dir_all(&root);
}

/// Cutting right after a committed outcome must resume at the next step
/// with the expected replay census — the report is part of the contract,
/// not just the final bytes.
#[test]
fn recovery_report_census_is_exact() {
    let root = temp_root("census");
    let seed = 21;
    let (db, wl) = workload(seed);
    let golden_dir = root.join("golden");
    Runner::new(run_config(seed, Some(&golden_dir)), db.clone()).run(&wl).unwrap();
    let golden_wal = fs::read(segment0(&golden_dir)).unwrap();
    let bounds = frame_boundaries(&golden_wal);

    // Frame layout per non-retrain query: experience, outcome. Cut after
    // the 7th query's outcome (queries 0..=6 committed; query 3 ended
    // with a retrain, adding checkpoint + boundary frames).
    // Frames: header(1) + q0..q2 (2 each) + q3 (exp, ckpt, boundary,
    // outcome = 4) + q4..q6 (2 each) = 1 + 6 + 4 + 6 = 17.
    let cut = bounds[17];
    let case_dir = root.join("case");
    install_segment(&segment0(&case_dir), &golden_wal[..cut]);

    let rec = recover(run_config(seed, Some(&case_dir)), db.clone(), &wl).unwrap();
    assert_eq!(rec.resumed_at_step(), 7);
    assert_eq!(rec.report.query_outcomes, 7);
    assert_eq!(rec.report.experience_appends, 7);
    assert_eq!(rec.report.retrain_boundaries, 1);
    assert_eq!(rec.report.model_checkpoints, 1);
    assert_eq!(rec.report.frames_rolled_back, 0);
    assert!(!rec.report.torn_tail && !rec.report.corrupt_tail);
    assert_eq!(rec.report.bytes_truncated, 0);
    let result = rec.resume(&wl).unwrap();
    assert_eq!(result.records.len(), N_QUERIES);
    let _ = fs::remove_dir_all(&root);
}

/// A cut between a query's experience frame and its outcome frame is the
/// observe-vs-commit crash window: the trailing experience (and any
/// retrain) must be rolled back, physically truncated, and re-logged
/// identically by the resumed run.
#[test]
fn uncommitted_experience_rolls_back_and_truncates() {
    let root = temp_root("rollback");
    let seed = 31;
    let (db, wl) = workload(seed);
    let golden_dir = root.join("golden");
    Runner::new(run_config(seed, Some(&golden_dir)), db.clone()).run(&wl).unwrap();
    let golden_wal = fs::read(segment0(&golden_dir)).unwrap();
    let bounds = frame_boundaries(&golden_wal);

    // bounds[2] = right after q0's experience frame, before its outcome.
    let cut = bounds[2];
    let case_dir = root.join("case");
    install_segment(&segment0(&case_dir), &golden_wal[..cut]);

    let rec = recover(run_config(seed, Some(&case_dir)), db.clone(), &wl).unwrap();
    assert_eq!(rec.report.frames_rolled_back, 1);
    assert_eq!(rec.resumed_at_step(), 0);
    // resume() reopened the log truncated to just the header frame.
    let scan = Wal::scan(&case_dir).unwrap();
    assert_eq!(scan.report.frames_valid, 1);
    let _ = fs::remove_dir_all(&root);
}

/// The WAL must survive segment rotation: run with tiny segments, kill
/// inside a late segment, recover across the segment chain.
#[test]
fn recovery_crosses_segment_rotation() {
    let root = temp_root("segments");
    let seed = 41;
    let (db, wl) = workload(seed);
    let golden_dir = root.join("golden");
    let mut cfg = run_config(seed, Some(&golden_dir));
    if let Strategy::Bao(s) = &mut cfg.strategy {
        s.durability = Some(
            DurabilityConfig::new(&golden_dir)
                .with_fsync(FsyncPolicy::Never)
                .with_segment_bytes(4096),
        );
    }
    let golden = Runner::new(cfg.clone(), db.clone()).run(&wl).unwrap();
    let golden_result = golden.canonical_json().into_bytes();
    let mut segs: Vec<PathBuf> =
        fs::read_dir(&golden_dir).unwrap().map(|e| e.unwrap().path()).collect();
    segs.sort();
    assert!(segs.len() >= 2, "expected rotation to produce multiple segments");

    // Kill mid-way through the last segment.
    let case_dir = root.join("case");
    for s in &segs[..segs.len() - 1] {
        install_segment(&case_dir.join(s.file_name().unwrap()), &fs::read(s).unwrap());
    }
    let last = fs::read(segs.last().unwrap()).unwrap();
    let keep = SEGMENT_HEADER_LEN + (last.len() - SEGMENT_HEADER_LEN) / 2;
    install_segment(
        &case_dir.join(segs.last().unwrap().file_name().unwrap()),
        &last[..keep.min(last.len())],
    );

    let mut case_cfg = run_config(seed, Some(&case_dir));
    if let Strategy::Bao(s) = &mut case_cfg.strategy {
        s.durability = Some(
            DurabilityConfig::new(&case_dir)
                .with_fsync(FsyncPolicy::Never)
                .with_segment_bytes(4096),
        );
    }
    // Frame 0 is whole in the first segment, so recovery must not wipe.
    let result = recover(case_cfg, db.clone(), &wl).and_then(|rec| rec.resume(&wl)).unwrap();
    assert_eq!(result.canonical_json().into_bytes(), golden_result);
    let _ = fs::remove_dir_all(&root);
}

/// A run at another concurrency logs through the same WAL (group commit
/// per wave) and — because the closed-loop result does not depend on the
/// serving configuration — recovers through the (1, 1) resume into the
/// same final result.
#[test]
fn serving_run_recovers_to_identical_result() {
    let root = temp_root("serving");
    let seed = 51;
    let (db, wl) = workload(seed);
    let golden_dir = root.join("golden");
    let report = ServingRunner::new(
        run_config(seed, Some(&golden_dir)),
        db.clone(),
        ServingConfig::new(4, 4),
    )
    .run(&wl)
    .unwrap();
    let golden_result = report.result.canonical_json().into_bytes();
    let golden_wal = fs::read(segment0(&golden_dir)).unwrap();

    // Cache features clamp serving waves to 1, so the serving log is
    // frame-for-frame the serial log; spot-check a couple of cuts.
    let bounds = frame_boundaries(&golden_wal);
    let case_dir = root.join("case");
    let (db2, _) = (db.clone(), ());
    for &cut in [bounds[bounds.len() / 2], bounds[bounds.len() - 2]].iter() {
        let _ = fs::remove_dir_all(&case_dir);
        install_segment(&segment0(&case_dir), &golden_wal[..cut]);
        let result = recover(run_config(seed, Some(&case_dir)), db2.clone(), &wl)
            .and_then(|rec| rec.resume(&wl))
            .unwrap();
        assert_eq!(
            result.canonical_json().into_bytes(),
            golden_result,
            "serving recovery at cut {cut}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// An open-loop run whose arrivals come in reverse step order dispatches
/// out of step order. Its log numbers experience appends in dispatch
/// order — `step` counts the queries observed before it — and recovery,
/// which resumes at step `committed.len()`, refuses the log instead of
/// resuming at the wrong step.
#[test]
fn scheduled_run_logs_in_dispatch_order_and_recovery_refuses_it() {
    let root = temp_root("scheduled");
    let seed = 61;
    let (db, wl) = workload(seed);
    // Events would cut the run into epochs dispatched one after another;
    // without them every arrival competes in one epoch.
    let steps: Vec<WorkloadStep> = wl
        .steps
        .iter()
        .map(|s| WorkloadStep { label: s.label.clone(), query: s.query.clone(), event: None })
        .collect();
    let wl = Workload { name: "imdb-no-events".into(), steps };
    let arrivals: Vec<QueryArrival> = (0..N_QUERIES)
        .map(|idx| QueryArrival {
            idx,
            tenant: 0,
            arrival: SimDuration::from_ms((N_QUERIES - idx) as f64),
        })
        .collect();
    let dir = root.join("log");
    let report =
        ServingRunner::new(run_config(seed, Some(&dir)), db.clone(), ServingConfig::new(1, 1))
            .run_scheduled(&wl, &arrivals)
            .unwrap();
    let dispatched: Vec<usize> = report.dispatches.iter().map(|d| d.idx).collect();
    assert_eq!(dispatched, (0..N_QUERIES).rev().collect::<Vec<_>>(), "dispatch order");

    let scan = Wal::scan(&dir).unwrap();
    let mut appends = Vec::new();
    let mut outcomes = Vec::new();
    for f in &scan.frames {
        match &f.record {
            WalRecord::ExperienceAppend { step, .. } => appends.push(*step as usize),
            WalRecord::QueryOutcome { record } => {
                outcomes.push(json::field::<usize>(record, "idx").unwrap())
            }
            _ => {}
        }
    }
    assert_eq!(appends, (0..N_QUERIES).collect::<Vec<_>>(), "experience steps count dispatches");
    assert_eq!(outcomes, dispatched, "outcomes are logged in dispatch order");

    match recover(run_config(seed, Some(&dir)), db, &wl) {
        Err(BaoError::Config(msg)) => assert!(msg.contains("not a step-order log"), "{msg}"),
        Err(e) => panic!("expected the step-order refusal, got {e}"),
        Ok(_) => panic!("recovery resumed a log written out of step order"),
    }
    let _ = fs::remove_dir_all(&root);
}

/// A log that replays differently from how it was written does not
/// belong to this database, build or configuration: `recover` refuses it
/// as `Config`, and `recover_or_fresh` passes that refusal on instead of
/// wiping the log and rerunning. The header cannot catch this case:
/// `config_fingerprint` covers the run configuration, not the data.
#[test]
fn diverged_replay_is_refused_and_the_log_kept() {
    let root = temp_root("diverged");
    let seed = 71;
    let (db, wl) = workload(seed);
    let dir = root.join("log");
    Runner::new(run_config(seed, Some(&dir)), db).run(&wl).unwrap();
    let segments = |dir: &Path| -> Vec<(PathBuf, Vec<u8>)> {
        let mut segs: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| {
                let bytes = fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        segs.sort();
        segs
    };
    let logged = segments(&dir);

    let (other_db, _) = workload(seed + 1);
    match recover(run_config(seed, Some(&dir)), other_db.clone(), &wl) {
        Err(BaoError::Config(msg)) => assert!(msg.contains("replay diverged"), "{msg}"),
        Err(e) => panic!("expected a replay divergence, got {e}"),
        Ok(_) => panic!("a log written over another database replayed cleanly"),
    }
    match recover_or_fresh(run_config(seed, Some(&dir)), other_db, &wl) {
        Err(BaoError::Config(msg)) => assert!(msg.contains("replay diverged"), "{msg}"),
        Err(e) => panic!("expected a replay divergence, got {e}"),
        Ok(_) => panic!("recover_or_fresh replaced a diverging log with a fresh run"),
    }
    assert!(segments(&dir) == logged, "the diverging log was modified");
    let _ = fs::remove_dir_all(&root);
}
