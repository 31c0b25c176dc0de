//! Statistics and cardinality estimation substrate.
//!
//! This crate is the "ANALYZE" half of the PostgreSQL-like optimizer:
//! equi-depth histograms, most-common-value lists, and distinct counts per
//! column, plus two selectivity estimators:
//!
//! * [`PostgresEstimator`] — per-column histogram/MCV estimates combined
//!   under the *attribute independence* assumption, and `1/max(nd)` join
//!   selectivity. On correlated, skewed data this misestimates exactly the
//!   way PostgreSQL does on the Join Order Benchmark, which is the failure
//!   mode Bao's hint sets correct.
//! * [`SampleEstimator`] — a "ComSys"-grade estimator: evaluates predicate
//!   conjunctions on a correlated row sample and computes join
//!   selectivities from exact key frequencies (sorted key runs), yielding
//!   far lower q-error and therefore a much stronger traditional optimizer
//!   baseline.

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

pub mod column;
pub mod estimator;
pub mod histogram;
pub mod tablestats;

pub use column::ColumnStats;
pub use estimator::{
    resolve_predicate, Estimator, PostgresEstimator, ResolvedPred, SampleEstimator, SampleTable,
    StatsCatalog,
};
pub use histogram::EquiDepthHistogram;
pub use tablestats::{analyze_table, TableStats};
