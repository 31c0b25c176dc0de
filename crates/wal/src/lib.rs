//! `bao-wal`: append-only, checksummed write-ahead logging for Bao's
//! persistent assets — the experience buffer, the retrain schedule, model
//! weight checkpoints, and plan-cache invalidation events (DESIGN.md §14).
//!
//! The paper treats accumulated experience and the retrained TCNN as the
//! system's durable state; this crate makes a process restart recoverable
//! instead of amnesiac. Three layers:
//!
//! * [`frame`] — the binary framing: length-prefixed, CRC32-checksummed
//!   frames inside magic-headered segment files (in-tree, no deps).
//! * [`record`] — the logical records ([`WalRecord`], JSON
//!   round-trippable) and the recovery telemetry ([`RecoveryReport`]).
//! * [`log`] — the [`Wal`] itself: group-committed appends, segment
//!   rotation, fsync ordering, and the recovery scan that detects torn
//!   and corrupt tails and truncates them cleanly.
//!
//! Semantic replay (turning scanned records back into a live `Bao`) lives
//! in `bao_harness::recover`, next to the runner state it reconstructs.

pub mod frame;
pub mod log;
pub mod record;

pub use frame::{crc32, fnv64};
pub use log::{DurabilityConfig, FsyncPolicy, ScannedFrame, Wal, WalScan};
pub use record::{RecoveryReport, WalRecord};
