//! The write-ahead log proper: segment files, group commit, rotation,
//! the recovery scan, and physical truncation on resume.
//!
//! Durability contract (DESIGN.md §14):
//!
//! * [`Wal::append`] is **infallible** — it only buffers the encoded
//!   frame. All I/O (and therefore all I/O errors) happens in
//!   [`Wal::commit`], which the harness calls once per query (serial
//!   path) or once per wave (serving path — this is the group commit
//!   that amortizes fsync cost across a whole wave of queries).
//! * A frame never spans segments: commit writes the whole pending
//!   batch into the current segment, and rotation happens *between*
//!   commits, so a segment may overshoot `segment_bytes` by at most one
//!   batch.
//! * Fsync ordering: a finished segment is always fsynced **before**
//!   the next segment is created (unless the policy is `Never`), so a
//!   crash can only ever lose a suffix of the newest segment.
//! * The recovery scan accepts the longest prefix of checksum-valid,
//!   decodable frames; a torn or corrupt frame (and everything after
//!   it) is discarded and physically truncated by [`Wal::resume`].

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use bao_common::{BaoError, Result};

use crate::frame::{
    decode_frame, decode_segment_header, encode_frame, encode_segment_header, FrameDecode,
    SEGMENT_HEADER_LEN,
};
use crate::record::{RecoveryReport, WalRecord};

/// When the log fsyncs committed bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every commit (strongest, slowest).
    Always,
    /// fsync after every `n` commits (group-commit batching across
    /// waves; `EveryN(1)` behaves like `Always`).
    EveryN(u32),
    /// Never fsync — rely on the OS page cache (fastest; crash safety
    /// limited to process kills, which is what the crash-matrix tests
    /// simulate via truncation).
    Never,
}

/// Durability knob: `bao_harness::BaoSettings::durability`, the one
/// place a run asks for a log.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding `wal-NNNNNN.seg` files. Created on open; open
    /// refuses a directory that already contains segments (recovery
    /// must go through [`Wal::scan`] + [`Wal::resume`] instead).
    pub dir: PathBuf,
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
    /// Target segment size before rotation, in bytes.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// A config with the default rotation size (4 MiB) and group-commit
    /// fsync every 8 commits.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig { dir: dir.into(), fsync: FsyncPolicy::EveryN(8), segment_bytes: 4 << 20 }
    }

    /// Same directory, different fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> DurabilityConfig {
        self.fsync = fsync;
        self
    }

    /// Same directory, different rotation target.
    pub fn with_segment_bytes(mut self, bytes: u64) -> DurabilityConfig {
        self.segment_bytes = bytes.max(SEGMENT_HEADER_LEN as u64 + 1);
        self
    }
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> BaoError {
    BaoError::Io(format!("{ctx} {}: {e}", path.display()))
}

/// `dir/wal-NNNNNN.seg`.
pub fn segment_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

/// List existing segment files in `dir`, sorted by index, verifying the
/// indices are contiguous from zero.
fn list_segments(dir: &Path) -> Result<Vec<(u32, PathBuf)>> {
    let mut segs: Vec<(u32, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segs),
        Err(e) => return Err(io_err("reading wal dir", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("reading wal dir", dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".seg")) {
            if let Ok(idx) = stem.parse::<u32>() {
                segs.push((idx, entry.path()));
            }
        }
    }
    segs.sort_by_key(|(i, _)| *i);
    for (pos, (idx, path)) in segs.iter().enumerate() {
        if *idx as usize != pos {
            return Err(BaoError::Parse(format!(
                "wal segment numbering has a gap at {}",
                path.display()
            )));
        }
    }
    Ok(segs)
}

/// One checksum-valid, decoded frame from a recovery scan, with enough
/// position information to truncate the log right after it.
#[derive(Debug, Clone)]
pub struct ScannedFrame {
    /// The decoded record.
    pub record: WalRecord,
    /// Segment index the frame lives in.
    pub seg: u32,
    /// Byte offset within that segment just *past* the frame.
    pub end: u64,
}

/// Result of [`Wal::scan`]: the valid frame prefix plus framing-level
/// recovery telemetry. Call [`WalScan::rollback_to_last_outcome`] to
/// apply commit-record semantics before replaying.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// Valid frames, in log order.
    pub frames: Vec<ScannedFrame>,
    /// Telemetry; census fields are filled by
    /// [`WalScan::rollback_to_last_outcome`].
    pub report: RecoveryReport,
}

impl WalScan {
    /// Discard valid frames that trail the last `QueryOutcome` commit
    /// record (they belong to a query whose commit never made it out),
    /// then fill the report's per-kind census. A log with no outcome at
    /// all keeps only a leading `RunHeader`, if present.
    pub fn rollback_to_last_outcome(&mut self) {
        let keep = self
            .frames
            .iter()
            .rposition(|f| matches!(f.record, WalRecord::QueryOutcome { .. }))
            .map(|i| i + 1)
            .unwrap_or_else(|| {
                usize::from(matches!(
                    self.frames.first().map(|f| &f.record),
                    Some(WalRecord::RunHeader { .. })
                ))
            });
        self.report.frames_rolled_back = (self.frames.len() - keep) as u64;
        self.frames.truncate(keep);
        let r = &mut self.report;
        r.experience_appends = 0;
        r.retrain_boundaries = 0;
        r.model_checkpoints = 0;
        r.query_outcomes = 0;
        for f in &self.frames {
            match f.record {
                WalRecord::ExperienceAppend { .. } => r.experience_appends += 1,
                WalRecord::RetrainBoundary { .. } => r.retrain_boundaries += 1,
                WalRecord::ModelCheckpoint { .. } => r.model_checkpoints += 1,
                WalRecord::QueryOutcome { .. } => r.query_outcomes += 1,
                WalRecord::RunHeader { .. } => {}
            }
        }
        r.resumed_at_step = r.query_outcomes;
    }
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    cfg: DurabilityConfig,
    file: fs::File,
    seg_index: u32,
    /// Bytes written (committed) into the current segment, header
    /// included.
    seg_bytes: u64,
    /// Encoded frames awaiting the next [`Wal::commit`].
    pending: Vec<u8>,
    commits_since_sync: u32,
}

impl Wal {
    /// Create a fresh log in `cfg.dir`. Errors if the directory already
    /// contains segments — an existing log must be recovered (scan +
    /// resume) or removed explicitly, never silently overwritten.
    #[expect(clippy::disallowed_methods, reason = "the write-ahead log is the one durable writer")]
    pub fn open(cfg: DurabilityConfig) -> Result<Wal> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("creating wal dir", &cfg.dir, e))?;
        let existing = list_segments(&cfg.dir)?;
        if !existing.is_empty() {
            return Err(BaoError::AlreadyExists(format!(
                "wal dir {} already holds {} segment(s); recover or remove it first",
                cfg.dir.display(),
                existing.len()
            )));
        }
        Wal::create_segment(cfg, 0)
    }

    #[expect(clippy::disallowed_methods, reason = "the write-ahead log is the one durable writer")]
    fn create_segment(cfg: DurabilityConfig, index: u32) -> Result<Wal> {
        let path = segment_path(&cfg.dir, index);
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err("creating wal segment", &path, e))?;
        file.write_all(&encode_segment_header())
            .map_err(|e| io_err("writing wal segment header", &path, e))?;
        Ok(Wal {
            cfg,
            file,
            seg_index: index,
            seg_bytes: SEGMENT_HEADER_LEN as u64,
            pending: Vec::new(),
            commits_since_sync: 0,
        })
    }

    /// Buffer one record for the next commit. Infallible by design: the
    /// hot observation path (`Bao::observe`) cannot surface I/O errors,
    /// so all I/O is deferred to [`Wal::commit`].
    pub fn append(&mut self, record: &WalRecord) {
        encode_frame(&record.encode(), &mut self.pending);
    }

    /// Write all pending frames to the current segment (rotating first
    /// if the segment is full), then fsync per the configured policy.
    pub fn commit(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.seg_bytes >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        let path = segment_path(&self.cfg.dir, self.seg_index);
        self.file
            .write_all(&self.pending)
            .map_err(|e| io_err("appending to wal segment", &path, e))?;
        self.seg_bytes += self.pending.len() as u64;
        self.pending.clear();
        self.commits_since_sync += 1;
        let should_sync = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.commits_since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if should_sync {
            self.sync()?;
        }
        Ok(())
    }

    /// Force an fsync of the current segment now.
    pub fn sync(&mut self) -> Result<()> {
        let path = segment_path(&self.cfg.dir, self.seg_index);
        self.file.sync_data().map_err(|e| io_err("fsyncing wal segment", &path, e))?;
        self.commits_since_sync = 0;
        Ok(())
    }

    /// Close out the current segment (fsync-before-rotate unless the
    /// policy is `Never`) and start the next one.
    fn rotate(&mut self) -> Result<()> {
        if !matches!(self.cfg.fsync, FsyncPolicy::Never) {
            self.sync()?;
        }
        let next = Wal::create_segment(self.cfg.clone(), self.seg_index + 1)?;
        self.file = next.file;
        self.seg_index = next.seg_index;
        self.seg_bytes = next.seg_bytes;
        Ok(())
    }

    /// The directory this log writes to.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Index of the segment currently being appended to.
    pub fn segment_index(&self) -> u32 {
        self.seg_index
    }

    /// Scan `dir` for the longest valid frame prefix. Torn and corrupt
    /// tails stop the scan (never panic) and are reported; frames past
    /// a bad one — including whole later segments — count as truncated.
    pub fn scan(dir: &Path) -> Result<WalScan> {
        let segs = list_segments(dir)?;
        if segs.is_empty() {
            return Err(BaoError::NotFound(format!("no wal segments in {}", dir.display())));
        }
        let mut scan = WalScan { frames: Vec::new(), report: RecoveryReport::default() };
        let mut total_bytes = 0u64;
        let mut stopped = false;
        for (idx, path) in &segs {
            let bytes = fs::read(path).map_err(|e| io_err("reading wal segment", path, e))?;
            total_bytes += bytes.len() as u64;
            if stopped {
                continue; // everything past a bad tail is truncated
            }
            scan.report.segments_scanned += 1;
            if let Err(e) = decode_segment_header(&bytes) {
                if *idx == 0 {
                    return Err(e); // no header ⇒ nothing recoverable
                }
                // A later segment with a mangled header is a torn
                // rotation: keep the prefix, drop this segment.
                scan.report.corrupt_tail = true;
                stopped = true;
                continue;
            }
            scan.report.bytes_valid += SEGMENT_HEADER_LEN as u64;
            let mut off = SEGMENT_HEADER_LEN;
            while off < bytes.len() {
                match decode_frame(&bytes[off..]) {
                    FrameDecode::Complete { payload, consumed } => {
                        match WalRecord::decode(&payload) {
                            Ok(record) => {
                                off += consumed;
                                scan.report.frames_valid += 1;
                                scan.report.bytes_valid += consumed as u64;
                                scan.frames.push(ScannedFrame {
                                    record,
                                    seg: *idx,
                                    end: off as u64,
                                });
                            }
                            Err(_) => {
                                // Checksum fine but payload undecodable:
                                // treat as corruption, stop here.
                                scan.report.corrupt_tail = true;
                                stopped = true;
                                break;
                            }
                        }
                    }
                    FrameDecode::Incomplete => {
                        scan.report.torn_tail = true;
                        stopped = true;
                        break;
                    }
                    FrameDecode::Corrupt { .. } => {
                        scan.report.corrupt_tail = true;
                        stopped = true;
                        break;
                    }
                }
            }
        }
        scan.report.bytes_truncated = total_bytes - scan.report.bytes_valid;
        Ok(scan)
    }

    /// Physically truncate the on-disk log to the committed prefix in
    /// `scan` (whose rollback must already have been applied) and
    /// reopen it for appending. An empty prefix wipes the directory and
    /// starts a fresh log.
    #[expect(clippy::disallowed_methods, reason = "the write-ahead log is the one durable writer")]
    pub fn resume(cfg: DurabilityConfig, scan: &WalScan) -> Result<Wal> {
        let segs = list_segments(&cfg.dir)?;
        let last = match scan.frames.last() {
            Some(f) => f.clone(),
            None => {
                for (_, path) in &segs {
                    fs::remove_file(path).map_err(|e| io_err("removing wal segment", path, e))?;
                }
                return Wal::open(cfg);
            }
        };
        for (idx, path) in &segs {
            if *idx > last.seg {
                fs::remove_file(path).map_err(|e| io_err("removing wal segment", path, e))?;
            }
        }
        let path = segment_path(&cfg.dir, last.seg);
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err("reopening wal segment", &path, e))?;
        file.set_len(last.end).map_err(|e| io_err("truncating wal segment", &path, e))?;
        file.sync_data().map_err(|e| io_err("fsyncing wal segment", &path, e))?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err("seeking wal segment", &path, e))?;
        Ok(Wal {
            cfg,
            file,
            seg_index: last.seg,
            seg_bytes: last.end,
            pending: Vec::new(),
            commits_since_sync: 0,
        })
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests tear and corrupt segment files by hand")]
mod tests {
    use super::*;
    use bao_common::json::{Json, ToJson};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bao-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn outcome(i: u64) -> WalRecord {
        WalRecord::QueryOutcome { record: Json::obj([("idx", i.to_json())]) }
    }

    #[test]
    fn append_commit_scan_round_trip() {
        let dir = temp_dir("roundtrip");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let mut wal = Wal::open(cfg.clone()).unwrap();
        wal.append(&WalRecord::RunHeader { seed: 9, config_fp: 1 });
        for i in 0..5 {
            wal.append(&WalRecord::ExperienceAppend {
                step: i,
                tree: bao_nn::FeatTree::new(2, vec![vec![1.0, 2.0]], vec![-1], vec![-1]),
                perf: i as f64 * 0.5,
            });
            wal.append(&outcome(i));
            wal.commit().unwrap();
        }
        let mut scan = Wal::scan(&dir).unwrap();
        assert_eq!(scan.report.frames_valid, 11);
        assert!(!scan.report.torn_tail && !scan.report.corrupt_tail);
        assert_eq!(scan.report.bytes_truncated, 0);
        scan.rollback_to_last_outcome();
        assert_eq!(scan.report.frames_rolled_back, 0);
        assert_eq!(scan.report.query_outcomes, 5);
        assert_eq!(scan.report.resumed_at_step, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_existing_log() {
        let dir = temp_dir("refuse");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let mut wal = Wal::open(cfg.clone()).unwrap();
        wal.append(&outcome(0));
        wal.commit().unwrap();
        drop(wal);
        assert!(matches!(Wal::open(cfg), Err(BaoError::AlreadyExists(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_scan_reads_across() {
        let dir = temp_dir("rotate");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never).with_segment_bytes(64);
        let mut wal = Wal::open(cfg.clone()).unwrap();
        for i in 0..20 {
            wal.append(&outcome(i));
            wal.commit().unwrap();
        }
        assert!(wal.segment_index() > 0, "expected rotation past segment 0");
        let scan = Wal::scan(&dir).unwrap();
        assert_eq!(scan.report.frames_valid, 20);
        assert_eq!(scan.report.segments_scanned as u32, wal.segment_index() + 1);
        assert_eq!(scan.report.bytes_truncated, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_resume_truncates_it() {
        let dir = temp_dir("torn");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let mut wal = Wal::open(cfg.clone()).unwrap();
        wal.append(&WalRecord::RunHeader { seed: 1, config_fp: 2 });
        for i in 0..3 {
            wal.append(&outcome(i));
        }
        wal.commit().unwrap();
        drop(wal);
        // Tear the last frame: chop 3 bytes off the segment.
        let path = segment_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let mut scan = Wal::scan(&dir).unwrap();
        assert!(scan.report.torn_tail);
        assert_eq!(scan.report.frames_valid, 3); // header + 2 whole outcomes
        assert_eq!(scan.report.bytes_truncated, (len - 3) - scan.report.bytes_valid);
        scan.rollback_to_last_outcome();
        assert_eq!(scan.report.query_outcomes, 2);
        let mut wal = Wal::resume(cfg, &scan).unwrap();
        wal.append(&outcome(99));
        wal.commit().unwrap();
        // After resume + append, the log is clean again.
        let rescan = Wal::scan(&dir).unwrap();
        assert!(!rescan.report.torn_tail && !rescan.report.corrupt_tail);
        assert_eq!(rescan.report.frames_valid, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_stops_scan_without_panic() {
        let dir = temp_dir("corrupt");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let mut wal = Wal::open(cfg).unwrap();
        for i in 0..4 {
            wal.append(&outcome(i));
        }
        wal.commit().unwrap();
        drop(wal);
        // Flip a bit in the third frame's payload.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let mut off = SEGMENT_HEADER_LEN;
        for _ in 0..2 {
            if let FrameDecode::Complete { consumed, .. } = decode_frame(&bytes[off..]) {
                off += consumed;
            }
        }
        bytes[off + 6] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let scan = Wal::scan(&dir).unwrap();
        assert!(scan.report.corrupt_tail);
        assert!(!scan.report.torn_tail);
        assert_eq!(scan.report.frames_valid, 2);
        // Frames past the corruption are never surfaced, even though
        // frame 4 is intact on disk.
        assert_eq!(scan.frames.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_discards_uncommitted_suffix() {
        let dir = temp_dir("rollback");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let mut wal = Wal::open(cfg.clone()).unwrap();
        wal.append(&WalRecord::RunHeader { seed: 5, config_fp: 5 });
        wal.append(&outcome(0));
        // Experience + retrain for query 1 land, but its outcome never
        // commits — the crash window between observe and commit.
        wal.append(&WalRecord::ExperienceAppend {
            step: 1,
            tree: bao_nn::FeatTree::new(2, vec![vec![0.0, 1.0]], vec![-1], vec![-1]),
            perf: 2.0,
        });
        wal.append(&WalRecord::RetrainBoundary { version: 1, experience_size: 2 });
        wal.commit().unwrap();
        drop(wal);
        let mut scan = Wal::scan(&dir).unwrap();
        scan.rollback_to_last_outcome();
        assert_eq!(scan.report.frames_rolled_back, 2);
        assert_eq!(scan.report.query_outcomes, 1);
        assert_eq!(scan.report.experience_appends, 0);
        assert_eq!(scan.report.retrain_boundaries, 0);
        let wal = Wal::resume(cfg, &scan).unwrap();
        drop(wal);
        let rescan = Wal::scan(&dir).unwrap();
        assert_eq!(rescan.report.frames_valid, 2); // header + outcome 0
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_with_empty_prefix_starts_fresh() {
        let dir = temp_dir("fresh");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let mut wal = Wal::open(cfg.clone()).unwrap();
        wal.append(&WalRecord::RunHeader { seed: 3, config_fp: 3 });
        wal.commit().unwrap();
        drop(wal);
        // Tear the header frame itself: nothing valid survives.
        let path = segment_path(&dir, 0);
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(SEGMENT_HEADER_LEN as u64 + 2).unwrap();
        drop(f);
        let mut scan = Wal::scan(&dir).unwrap();
        assert!(scan.report.torn_tail);
        scan.rollback_to_last_outcome();
        assert!(scan.frames.is_empty());
        let mut wal = Wal::resume(cfg, &scan).unwrap();
        wal.append(&outcome(0));
        wal.commit().unwrap();
        let rescan = Wal::scan(&dir).unwrap();
        assert_eq!(rescan.report.frames_valid, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
