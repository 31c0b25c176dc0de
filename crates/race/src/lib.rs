//! bao-race: an in-tree deterministic concurrency checker (loom/CHESS
//! spirit, hermetic like everything else in the workspace).
//!
//! Three pieces:
//!
//! * [`model`] — the sequentially-consistent execution model: vector-clock
//!   happens-before, per-object mutex/channel/cell state, a
//!   cross-interleaving lock-order graph, and readable failure reports.
//!   Always compiled; unit-tested by plain `cargo test`.
//! * [`explorer`] — the schedule explorer: real threads serialized by an
//!   execution token, DFS over branch decisions with a CHESS-style
//!   preemption bound, byte-identity checks across interleavings. Only
//!   compiled under `--cfg bao_race`, because it needs the instrumented
//!   side of `bao_common::sync` (see DESIGN.md §12 and
//!   `scripts/check.sh --race-smoke`).
//! * [`report`] — persists `race_interleavings_explored` per suite into
//!   `results/race_report.json`.

pub mod model;
pub mod report;

#[cfg(bao_race)]
pub mod explorer;

#[cfg(bao_race)]
pub use explorer::{Explorer, Outcome};
pub use model::Failure;

/// Is this build compiled with `--cfg bao_race` (i.e. can the explorer
/// run)?
pub fn race_enabled() -> bool {
    cfg!(bao_race)
}
