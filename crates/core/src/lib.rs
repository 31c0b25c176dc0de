//! Bao — the **Ba**ndit **o**ptimizer (the paper's contribution).
//!
//! Bao sits on top of a traditional cost-based optimizer ([`bao_opt`]) and,
//! per query, selects a *hint set*: which join and scan operator families
//! the optimizer may use. It plans the query once per arm, featurizes each
//! candidate plan tree (one-hot operator + cardinality/cost estimates +
//! optional cache state, paper Figure 4), predicts each plan's performance
//! with a value model (a TCNN by default), and executes the plan with the
//! best prediction. Observed performance feeds a sliding-window experience
//! buffer; every *n* queries the model is retrained on a bootstrap
//! resample — Thompson sampling over neural network parameters (paper
//! §3.1.2).
//!
//! Also implemented from paper §4 (PostgreSQL integration): per-query
//! activation, advisor mode (EXPLAIN augmentation, Figure 6), off-policy
//! observation, and triggered exploration for performance-critical
//! queries.
//!
//! # Example
//!
//! ```
//! use bao_core::{Bao, BaoConfig};
//! use bao_exec::{execute, ChargeRates};
//! use bao_opt::{HintSet, Optimizer};
//! use bao_stats::StatsCatalog;
//! use bao_storage::BufferPool;
//! use bao_workloads::{build_imdb, ImdbConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (db, workload) =
//!     build_imdb(&ImdbConfig { scale: 0.03, n_queries: 5, dynamic: false, seed: 1 })?;
//! let cat = StatsCatalog::analyze(&db, 200, 1);
//! let opt = Optimizer::postgres();
//! let mut pool = BufferPool::new(256);
//!
//! let mut bao = Bao::new(BaoConfig {
//!     arms: HintSet::top_arms(3),
//!     retrain_interval: 4,
//!     ..BaoConfig::default()
//! });
//! for step in &workload.steps {
//!     let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool))?;
//!     let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params,
//!                     &ChargeRates::default())?;
//!     bao.observe(sel.tree, m.latency.as_ms());
//! }
//! assert!(bao.is_model_fitted());
//! # Ok(())
//! # }
//! ```

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

pub mod advisor;
pub mod bao;
pub mod experience;
pub mod featurize;

pub use advisor::Advice;
pub use bao::{ArmFamily, Bao, BaoConfig, RetrainReport, Selection};
pub use experience::Experience;
pub use featurize::Featurizer;
