//! `figures` — every table, figure, §6.2 / §6.3 analysis and ablation of
//! the paper's evaluation, one function each (DESIGN.md §3 / §4 index
//! them, EXPERIMENTS.md discusses the results).
//!
//! ```console
//! $ cargo run --release -p bao-bench --bin figures -- --list
//! $ cargo run --release -p bao-bench --bin figures -- figure7 --queries 800
//! ```
//!
//! Every number printed here is on the simulated clock, so a figure's
//! output is a pure function of code and flags. The output at default
//! flags is tracked as `results/<name>.txt` and that file *is* the
//! record: `scripts/check.sh --figures` regenerates each one and fails
//! on any byte that moved, and a PR that moves a figure commits the new
//! text. All figures accept `--queries N --scale F --seed S`.

mod ablations;
mod hints;
mod model;
mod versus;

use bao_bench::{build_workload, Args, WorkloadName};
use bao_cloud::VmType;
use bao_harness::{BaoSettings, RunConfig, RunResult, Runner, Strategy};
use bao_opt::OptimizerProfile;
use bao_storage::Database;
use bao_workloads::Workload;

type Figure = fn(&Args);

/// Name (= `results/<name>.txt`) and body of every figure.
const FIGURES: &[(&str, Figure)] = &[
    ("table1", hints::table1),
    ("figure1", hints::figure1),
    ("figure7", versus::figure7),
    ("figure8", versus::figure8),
    ("figure9", versus::figure9),
    ("figure10", versus::figure10),
    ("figure11", model::figure11),
    ("figure12", hints::figure12),
    ("figure13", versus::figure13),
    ("figure14", model::figure14),
    ("figure15a", model::figure15a),
    ("figure15a_decomposition", model::figure15a_decomposition),
    ("figure15b", model::figure15b),
    ("figure15c", model::figure15c),
    ("figure16", model::figure16),
    ("sec62_overhead", versus::sec62_overhead),
    ("sec63_hints", hints::sec63_hints),
    ("ablation_cache", ablations::cache),
    ("ablation_critical", ablations::critical),
    ("ablation_dropout", ablations::dropout),
    ("ablation_exploration", ablations::exploration),
    ("ablation_window", ablations::window),
    ("future_learned_cost", model::future_learned_cost),
];

/// The two traditional optimizers Bao sits on top of, with the label the
/// paper's figures give them.
const SYSTEMS: [(OptimizerProfile, &str); 2] =
    [(OptimizerProfile::PostgresLike, "PostgreSQL"), (OptimizerProfile::ComSysLike, "ComSys")];

/// The (dynamic) IMDb workload nearly every figure runs.
fn imdb(scale: f64, n: usize, seed: u64) -> (Database, Workload) {
    build_workload(WorkloadName::Imdb, scale, n, seed).expect("workload")
}

/// Indices of `k` evenly spaced checkpoints through `len` completed
/// queries (Figures 10 and 14), the last one being the final query.
fn checkpoints(len: usize, k: usize) -> impl Iterator<Item = usize> {
    (1..=k).map(move |i| (i * len / k).saturating_sub(1))
}

fn run_cfg(db: &Database, wl: &Workload, cfg: RunConfig) -> RunResult {
    Runner::new(cfg, db.clone()).run(wl).expect("run")
}

/// One closed-loop run of `wl` on a fresh copy of `db`.
fn run(
    db: &Database,
    wl: &Workload,
    vm: VmType,
    profile: OptimizerProfile,
    strategy: Strategy,
    seed: u64,
) -> RunResult {
    run_cfg(db, wl, RunConfig { profile, seed, ..RunConfig::new(vm, strategy) })
}

/// The traditional optimizer's run and Bao's on top of it, in that order.
fn pair(
    db: &Database,
    wl: &Workload,
    vm: VmType,
    profile: OptimizerProfile,
    bao: BaoSettings,
    seed: u64,
) -> [RunResult; 2] {
    [Strategy::Traditional, Strategy::Bao(bao)].map(|s| run(db, wl, vm, profile, s, seed))
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match FIGURES.iter().find(|(n, _)| *n == name) {
        Some((_, figure)) => figure(&Args::from_env()),
        None if name == "--list" => FIGURES.iter().for_each(|(n, _)| println!("{n}")),
        None => {
            eprintln!("usage: figures <name> [--queries N --scale F --seed S ..] | figures --list");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// A figure without a tracked output, or a tracked output no figure
    /// regenerates, would escape `scripts/check.sh --figures`.
    #[test]
    fn registry_and_tracked_outputs_are_the_same_set() {
        let registry: BTreeSet<String> =
            super::FIGURES.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(registry.len(), super::FIGURES.len(), "duplicate figure name");
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let tracked: BTreeSet<String> = std::fs::read_dir(&results)
            .expect("results/ exists")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .filter_map(|f| f.strip_suffix(".txt").map(String::from))
            .filter(|n| n != "loc")
            .collect();
        assert_eq!(registry, tracked);
    }
}
