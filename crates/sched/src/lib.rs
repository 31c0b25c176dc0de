//! Admission for the serving layer: one bounded FIFO queue that sheds to
//! arm 0.
//!
//! `bao-sched` owns everything between "a query arrived" and "a query is
//! handed to the wave former": arrivals release in (arrival, submission)
//! order into one queue, and waves pop its head. Under overload a query
//! is shed, never dropped: it executes arm 0, the default optimizer's
//! plan and Bao's built-in safe arm, with no model scoring. It is shed
//! when it is released into a queue already `queue_depth` deep, or when
//! it has waited longer than `shed_deadline` by dispatch.
//!
//! Everything is sim-timed and deterministic: no wall clock, no RNG. The
//! default configuration (no bound, no deadline) dispatches in exact
//! arrival order, which keeps every serving configuration's `RunResult`
//! bit-identical to the serial run (`tests/serving_equivalence.rs`,
//! `tests/sched_equivalence.rs`). See DESIGN.md §10.

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

pub mod sched;

pub use sched::{Dispatch, QueryArrival, SchedConfig, Scheduler};
