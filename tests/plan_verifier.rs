//! Acceptance test for the plan-IR verifier: every plan the optimizer
//! produces across a full workload run — all 49 hint-set arms per query —
//! passes `bao_plan::verify`, and raw planner output additionally passes
//! the hint-consistency check. The rejection classes themselves are unit
//! tested next to the verifier in `crates/plan/src/verify.rs`; this file
//! proves the accept side at workload scale.

use bao_exec::{execute, ChargeRates};
use bao_opt::{HintSet, Optimizer};
use bao_plan::verify::{verify, verify_with_hints};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::{build_imdb, build_stack, ImdbConfig, StackConfig};

#[test]
fn every_arm_plan_verifies_across_an_imdb_workload() {
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 25, dynamic: false, seed: 11 }).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, 11);
    let opt = Optimizer::postgres();
    let mut plans = 0usize;
    for step in &wl.steps {
        for hints in HintSet::family_49() {
            let out = opt.plan(&step.query, &db, &cat, hints).unwrap();
            verify(&out.root, &step.query, &db).unwrap();
            verify_with_hints(&out.root, &step.query, &db, &hints.check(opt.params.disable_cost))
                .unwrap();
            plans += 1;
        }
    }
    assert_eq!(plans, wl.steps.len() * 49);
}

#[test]
fn executed_plans_verify_on_the_stack_workload() {
    let (db, wl) = build_stack(&StackConfig {
        scale: 0.05,
        n_queries: 15,
        initial_months: 3,
        total_months: 3,
        seed: 7,
    })
    .unwrap();
    let cat = StatsCatalog::analyze(&db, 500, 7);
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(512);
    for step in &wl.steps {
        let out = opt.plan(&step.query, &db, &cat, HintSet::all_enabled()).unwrap();
        verify(&out.root, &step.query, &db).unwrap();
        // The executor itself re-verifies under debug_assertions; a
        // successful run is the end-to-end accept proof.
        execute(&out.root, &step.query, &db, &mut pool, &opt.params, &ChargeRates::default())
            .unwrap();
    }
}
