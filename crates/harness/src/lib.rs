//! Experiment harness: runs (workload × optimizer × strategy × VM)
//! combinations with the paper's time-series-split evaluation protocol
//! (§6.1: Bao is always evaluated on the next, never-before-seen query,
//! and only the executed decision's reward enters its experience).
//!
//! Each paper figure's binary in `bao-bench` composes these pieces.

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

pub mod armstats;
pub mod oracle;
pub mod recover;
pub mod runner;
pub mod serving;

pub use armstats::{plan_change_stats, PlanChanges};
pub use oracle::{exhaustive_arm_perfs, regret_of};
pub use recover::{recover, recover_or_fresh, Recovered};
pub use runner::{
    config_fingerprint, run_once, BaoSettings, ModelKind, QueryRecord, RunConfig, RunResult,
    Runner, Strategy,
};
pub use serving::{
    DispatchRecord, ExecFault, SchedServingReport, ServingConfig, ServingReport, ServingRunner,
};
