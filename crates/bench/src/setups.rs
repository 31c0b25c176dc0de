//! Standard experiment setups: workload construction by name and default
//! Bao settings tuned so the full suite runs in minutes while preserving
//! the paper's relative results.

use bao_common::Result;
use bao_harness::{BaoSettings, ModelKind};
use bao_opt::HintSet;
use bao_storage::Database;
use bao_workloads::{
    build_corp, build_imdb, build_stack, CorpConfig, ImdbConfig, StackConfig, Workload,
};

/// The paper's three evaluation datasets (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    Imdb,
    Stack,
    Corp,
}

impl WorkloadName {
    pub fn label(self) -> &'static str {
        match self {
            WorkloadName::Imdb => "IMDb",
            WorkloadName::Stack => "Stack",
            WorkloadName::Corp => "Corp",
        }
    }

    pub const ALL: [WorkloadName; 3] =
        [WorkloadName::Imdb, WorkloadName::Stack, WorkloadName::Corp];
}

/// Build a workload at the requested scale and query count.
pub fn build_workload(
    name: WorkloadName,
    scale: f64,
    n_queries: usize,
    seed: u64,
) -> Result<(Database, Workload)> {
    match name {
        WorkloadName::Imdb => build_imdb(&ImdbConfig { scale, n_queries, dynamic: true, seed }),
        WorkloadName::Stack => build_stack(&StackConfig {
            scale,
            n_queries,
            initial_months: 4,
            total_months: 10,
            seed,
        }),
        WorkloadName::Corp => build_corp(&CorpConfig { scale, n_queries, seed }),
    }
}

/// Standard Bao settings for experiment sweeps: a strong arm subset, the
/// fast TCNN, window/retrain scaled to the (reduced) workload length.
/// `--arms 49` style flags feed through `n_arms`.
pub fn bao_settings(n_arms: usize, n_queries: usize) -> BaoSettings {
    BaoSettings {
        arms: if n_arms >= 49 { HintSet::family_49() } else { HintSet::top_arms(n_arms) },
        model: ModelKind::TcnnSmall,
        window: n_queries.clamp(200, 2_000),
        retrain: (n_queries / 10).clamp(25, 100),
        cache_features: true,
        ..BaoSettings::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_workloads_small() {
        for name in WorkloadName::ALL {
            let (db, wl) = build_workload(name, 0.05, 20, 1).unwrap();
            assert_eq!(wl.len(), 20, "{}", name.label());
            assert!(!db.table_names().is_empty());
        }
    }

    #[test]
    fn settings_scale_with_workload() {
        let s = bao_settings(5, 400);
        assert_eq!(s.arms.len(), 5);
        assert_eq!(s.window, 400);
        assert_eq!(s.retrain, 40);
        let s = bao_settings(49, 10_000);
        assert_eq!(s.arms.len(), 49);
        assert_eq!(s.window, 2_000);
        assert_eq!(s.retrain, 100);
    }
}
