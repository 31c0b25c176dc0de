//! Shared infrastructure for the three binaries (`src/bin/*`), the
//! `benches/` and the workspace tests: a tiny CLI argument parser,
//! text-table/percentile reporting, standard workload setups, and a
//! wall-clock sampling harness.
//!
//! Every table and figure in the paper's evaluation is one function of
//! the `figures` binary; see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded results. All figures accept
//! `--queries N --scale F --seed S` (and experiment-specific flags) so
//! results can be regenerated at larger scales. `baodb` is the SQL shell
//! and `inference_bench` the one wall-clock gate the repo benchmark
//! (`benchmark/`) does not cover.

pub mod cli;
pub mod report;
pub mod setups;
pub mod timing;

pub use cli::Args;
pub use report::{percentile_row, print_header, Table};
pub use setups::{bao_settings, build_workload, WorkloadName};
