//! Value models: predictors mapping featurized plan trees to expected
//! performance.
//!
//! Bao's production model is the TCNN ([`TcnnModel`]); the paper's
//! Figure 15a ablation swaps in a random forest and a linear model over
//! pooled features and shows both underperform badly — all three live
//! here behind the common [`ValueModel`] trait. Bootstrap resampling (the
//! Thompson-sampling mechanism of paper §3.1.2) is provided as a shared
//! utility.

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

pub mod bootstrap;
pub mod forest;
pub mod linear;
pub mod norm;
pub mod pooled;
pub mod tcnn;

use bao_common::Result;
use bao_nn::FeatTree;

pub use bootstrap::bootstrap_sample;
pub use forest::RandomForestModel;
pub use linear::LinearModel;
pub use norm::TargetNorm;
pub use pooled::{pooled_dim, pooled_features};
pub use tcnn::TcnnModel;

/// A trainable performance predictor over featurized plan trees.
///
/// `fit` replaces any previous state (Bao retrains from scratch on each
/// Thompson-sampling iteration); targets are raw performance values
/// (milliseconds or I/O counts) — models normalize internally.
pub trait ValueModel: Send {
    fn name(&self) -> &'static str;

    /// Train on the given experience. `seed` drives weight init and any
    /// internal randomness, so refits are reproducible.
    fn fit(&mut self, trees: &[FeatTree], targets: &[f64], seed: u64);

    /// Predict performance for one plan tree, in target units.
    /// Errors if the model has never been fitted.
    fn predict(&self, tree: &FeatTree) -> Result<f64>;

    /// Predict performance for many plan trees at once — the hot path:
    /// arm selection scores all 49 candidate plans of a query, and the
    /// serving layer concatenates many queries' arm families into one
    /// call, so a tree's prediction must not depend on what it is batched
    /// with. The default delegates to [`ValueModel::predict`] per tree;
    /// the TCNN overrides it with its scoring engine.
    fn predict_batch(&self, trees: &[&FeatTree]) -> Result<Vec<f64>> {
        trees.iter().map(|t| self.predict(t)).collect()
    }

    /// Alias of [`ValueModel::predict_batch`], which is what every
    /// caller in the workspace uses; kept, and not to be overridden,
    /// because the frozen `benchmark/` crate still calls it by this name.
    fn predict_batch_coalesced(&self, trees: &[&FeatTree]) -> Result<Vec<f64>> {
        self.predict_batch(trees)
    }

    /// `(trees scored, trees requested)` by the most recent
    /// [`ValueModel::predict_batch`] call — telemetry exposing the
    /// duplicate-elimination rate. `None` for models without a scoring
    /// engine (or before any call).
    fn coalesce_stats(&self) -> Option<(usize, usize)> {
        None
    }

    fn is_fitted(&self) -> bool;

    /// Epochs run by the most recent `fit` (0 for models without an epoch
    /// notion). Used for training-time accounting (paper Figure 15c).
    fn last_epochs(&self) -> usize {
        0
    }

    /// Serialize the model's full fitted state to a JSON string for WAL
    /// checkpointing. `None` means the model does not support snapshots
    /// (the WAL then records only the retrain boundary, and recovery
    /// re-fits deterministically from replayed experience).
    fn snapshot_json(&self) -> Option<String> {
        None
    }

    /// Restore fitted state from a [`ValueModel::snapshot_json`] string.
    /// Models that return `None` from `snapshot_json` keep this default,
    /// which errors.
    fn restore_json(&mut self, _snapshot: &str) -> Result<()> {
        Err(bao_common::BaoError::Config(format!(
            "{} does not support weight snapshots",
            self.name()
        )))
    }
}
