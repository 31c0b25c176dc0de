//! The cost-based query optimizer substrate.
//!
//! A Selinger-style optimizer over the storage engine: per-relation access
//! path selection, dynamic-programming join enumeration (greedy fallback
//! for wide queries), a PostgreSQL-flavoured cost model, and — the part Bao
//! steers — **hint sets** that enable/disable join and scan operator
//! families exactly like PostgreSQL's `enable_*` GUCs (a disabled operator
//! is penalized with a large `disable_cost` rather than removed, so a plan
//! always exists).
//!
//! Two profiles mirror the paper's two baselines: [`Optimizer::postgres`]
//! (histogram + independence estimation) and [`Optimizer::comsys`]
//! (sample/frequency-based estimation with much lower q-error).

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_types,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod access;
pub mod annotate;
pub mod cost;
pub mod hints;
pub mod join;
pub mod optimizer;

pub use annotate::annotate_estimates;
pub use cost::CostParams;
pub use hints::{HintSet, ALL_JOINS, ALL_SCANS};
pub use optimizer::{Optimizer, OptimizerProfile, PlanOutput};
