//! Robustness to schema change (paper Table 1's Corp workload): the wide
//! fact table is normalized mid-workload, and Bao — whose featurization
//! carries no table or column identities — keeps its trained model and
//! keeps working, while statistics are rebuilt underneath it.
//!
//! Run with: `cargo run --release -p bao-bench --example schema_change`

use bao_cloud::N1_16;
use bao_core::{Bao, BaoConfig};
use bao_exec::execute;
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::{apply_event, build_corp, CorpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (mut db, workload) = build_corp(&CorpConfig { scale: 0.1, n_queries: 200, seed: 4 })?;
    let mut cat = StatsCatalog::analyze(&db, 1_000, 4);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();

    let mut bao = Bao::new(BaoConfig {
        arms: HintSet::top_arms(6),
        window_size: 200,
        retrain_interval: 40,
        cache_features: true,
        seed: 4,
        ..BaoConfig::default()
    });
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());

    let mut window_ms = 0.0;
    for (i, step) in workload.steps.iter().enumerate() {
        if let Some(event) = &step.event {
            println!(
                ">>> query {i}: schema change! normalizing the fact table \
                 (tables before: {:?})",
                db.table_names()
            );
            apply_event(&mut db, event, 4)?;
            cat = StatsCatalog::analyze(&db, 1_000, 5);
            pool.clear();
            println!(
                ">>> tables after: {:?}; Bao keeps its {} experiences and model",
                db.table_names(),
                bao.experience_len()
            );
        }
        let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool))?;
        let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates)?;
        window_ms += m.latency.as_ms();
        bao.observe(sel.tree, m.latency.as_ms());
        if (i + 1) % 40 == 0 {
            println!(
                "queries {:>3}-{:>3}: {:>8.1} ms total ({} retrains so far)",
                i + 1 - 39,
                i + 1,
                window_ms,
                bao.retrains()
            );
            window_ms = 0.0;
        }
    }
    println!("\nNo retraining-from-scratch was needed across the schema change —");
    println!("the featurization is schema-agnostic (paper §3.1.1), and fresh");
    println!("statistics flow to the model through the plans' estimates.");
    Ok(())
}
