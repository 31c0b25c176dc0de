//! Multi-tenant admission control for the serving layer.
//!
//! `bao-sched` owns everything between "a query arrived" and "a query is
//! handed to the wave former": per-tenant bounded queues, deterministic
//! token-bucket rate limits over [`SimDuration`] sim-time, a
//! deficit-round-robin (DRR) wave former with strict priority classes,
//! and an overload policy that sheds queries to arm 0 (the unconstrained
//! optimizer's plan — Bao's built-in safe arm) instead of dropping them.
//!
//! Everything is sim-timed and deterministic: no wall clock, no RNG. The
//! single-tenant, unlimited-bucket default configuration dispatches in
//! exact arrival order, which keeps the serving layer bit-identical to
//! the pre-sched FIFO wave former (pinned by `tests/serving_equivalence.rs`
//! and `tests/sched_equivalence.rs`). See DESIGN.md §10.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod report;
pub mod sched;
pub mod tenant;

pub use report::{jain_index, DistSummary, SchedReport, TenantReport};
pub use sched::{Dispatch, QueryArrival, SchedConfig, Scheduler, WavePolicy};
pub use tenant::{Priority, RateLimit, TenantId, TenantSpec, TokenBucket};
