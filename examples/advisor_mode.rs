//! Advisor mode (paper §4, Figure 6): Bao observes query executions and
//! trains, but never changes plans — instead, EXPLAIN output is augmented
//! with its prediction and recommended hint so a DBA can apply hints
//! manually.
//!
//! Run with: `cargo run --release -p bao-bench --example advisor_mode`

use bao_cloud::N1_16;
use bao_core::{Bao, BaoConfig};
use bao_exec::execute;
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::{build_imdb, ImdbConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (db, workload) =
        build_imdb(&ImdbConfig { scale: 0.1, n_queries: 150, dynamic: false, seed: 9 })?;
    let cat = StatsCatalog::analyze(&db, 1_000, 9);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();

    // `enabled: false` = advisor mode: Bao still observes every execution
    // (off-policy learning) but always runs the default optimizer's plan.
    let mut bao = Bao::new(BaoConfig {
        arms: HintSet::top_arms(6),
        window_size: 500,
        retrain_interval: 50,
        cache_features: true,
        enabled: false,
        seed: 9,
        ..BaoConfig::default()
    });
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
    for step in &workload.steps {
        let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool))?;
        assert_eq!(sel.arm, 0, "advisor mode never hints");
        let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates)?;
        bao.observe(sel.tree, m.latency.as_ms());
    }

    // A DBA investigates a problematic query with EXPLAIN.
    let trouble = workload
        .steps
        .iter()
        .find(|s| s.label == "imdb/q09")
        .expect("workload contains the trap template");
    println!("imdb=# EXPLAIN {};\n", trouble.query);
    let advice = bao.advise(&opt, &trouble.query, &db, &cat, Some(&pool))?;
    println!("{}", advice.render());
    println!(
        "Applying the recommendation by hand and re-running EXPLAIN would show\n\
         the hinted plan; `SET enable_bao TO on` (active mode) automates it."
    );
    Ok(())
}
