//! Bao's learning loop on the IMDb-like workload: watch the bandit start
//! from the traditional optimizer, train on its own observations, and
//! learn to route tail queries to better hint sets.
//!
//! Run with: `cargo run --release -p bao-bench --example bao_learning`

use bao_cloud::N1_16;
use bao_core::{Bao, BaoConfig};
use bao_exec::execute;
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::{build_imdb, ImdbConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_queries = 300;
    let (db, workload) =
        build_imdb(&ImdbConfig { scale: 0.1, n_queries, dynamic: true, seed: 42 })?;
    let cat = StatsCatalog::analyze(&db, 1_000, 42);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();

    let mut bao = Bao::new(BaoConfig {
        arms: HintSet::top_arms(6),
        window_size: n_queries,
        retrain_interval: 50,
        cache_features: true,
        seed: 7,
        ..BaoConfig::default()
    });
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());

    let mut bao_window = 0.0f64;
    let mut pg_window = 0.0f64;
    println!("chunk | PostgreSQL (s) | Bao (s) | Bao arm != default | retrains");
    println!("------+----------------+---------+--------------------+---------");
    let mut non_default = 0;
    let mut retrains = 0;
    for (i, step) in workload.steps.iter().enumerate() {
        // What would PostgreSQL have done? (cache-isolated comparison)
        let pg_plan = opt.plan(&step.query, &db, &cat, HintSet::all_enabled())?;
        let mut snapshot = pool.clone();
        let pg_m = execute(&pg_plan.root, &step.query, &db, &mut snapshot, &opt.params, &rates)?;
        pg_window += pg_m.latency.as_secs();

        // Bao's choice actually runs.
        let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool))?;
        if sel.arm != 0 {
            non_default += 1;
        }
        let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates)?;
        bao_window += m.latency.as_secs();
        if bao.observe(sel.tree, m.latency.as_ms()).is_some() {
            retrains += 1;
        }

        if (i + 1) % 50 == 0 {
            println!(
                "{:>5} | {:>14.2} | {:>7.2} | {:>18} | {:>8}",
                format!("{}-{}", i + 1 - 49, i + 1),
                pg_window,
                bao_window,
                non_default,
                retrains
            );
            bao_window = 0.0;
            pg_window = 0.0;
            non_default = 0;
        }
    }
    println!("\nexperience size: {}   model retrains: {}", bao.experience_len(), bao.retrains());
    println!("After the first retrain Bao starts routing tail queries to hinted plans");
    println!("while leaving already-optimal queries on the default optimizer.");
    Ok(())
}
