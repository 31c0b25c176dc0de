//! Cost-accurate execution simulation.
//!
//! The paper measures real wall-clock execution on PostgreSQL; this crate
//! is the substitution described in DESIGN.md §1. Every plan is *actually
//! evaluated* against the stored data — filters filter, joins join,
//! aggregates aggregate, so results are exact and true per-node
//! cardinalities are known — but each operator is *charged* the runtime
//! cost formula of the algorithm the plan requested, using those true
//! cardinalities and real buffer-pool page traffic. A nested-loop join
//! over an underestimated input therefore costs quadratically much
//! simulated time without taking quadratic real time to evaluate.
//!
//! Charges accumulate on two meters (CPU cost units and I/O cost units)
//! that convert to simulated milliseconds via [`ChargeRates`]; physical
//! I/O counts (buffer-pool misses) are reported separately for the
//! Figure 16b experiment.
//!
//! Execution runs on the caller's thread, every operator in one pass in
//! row order (DESIGN.md §13).

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

mod charge;
mod eval;
mod exec;
mod metrics;
mod rowset;

pub use charge::ChargeRates;
pub use exec::{execute, execute_with, ExecConfig};
pub use metrics::{ExecutionMetrics, PerfMetric};
