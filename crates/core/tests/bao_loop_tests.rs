//! End-to-end tests of Bao's learning loop against the real substrate:
//! optimizer + executor + buffer pool. These are the first tests where
//! every paper component runs together.

use bao_core::{Bao, BaoConfig};
use bao_exec::{execute, ChargeRates};
use bao_nn::{TcnnConfig, TrainConfig};
use bao_opt::{HintSet, Optimizer};
use bao_plan::Query;
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, ColumnDef, DataType, Database, Schema, Table, Value};

/// A schema engineered so the PostgreSQL-style optimizer reliably errs on
/// one query family: `kind = 2 AND year = 2010` is heavily underestimated
/// (the columns are correlated), sending the default optimizer into a
/// parameterized nested loop whose outer is 40× larger than estimated.
fn setup(seed_rows: i64) -> (Database, StatsCatalog) {
    let mut title = Table::new(
        "title",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("kind", DataType::Int),
            ColumnDef::new("year", DataType::Int),
        ]),
    );
    for i in 0..seed_rows {
        let kind = if i % 5 == 0 { 2 } else { 1 };
        let year = if kind == 2 { 2010 } else { 1950 + (i % 60) };
        title.insert(vec![Value::Int(i), Value::Int(kind), Value::Int(year)]).unwrap();
    }
    let mut ci = Table::new(
        "cast_info",
        Schema::new(vec![
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("role", DataType::Int),
        ]),
    );
    for i in 0..(seed_rows * 6) {
        ci.insert(vec![Value::Int((i * 31) % seed_rows), Value::Int(i % 11)]).unwrap();
    }
    let mut db = Database::new();
    db.create_table(title).unwrap();
    db.create_table(ci).unwrap();
    db.create_index("title", "id").unwrap();
    db.create_index("title", "year").unwrap();
    db.create_index("cast_info", "movie_id").unwrap();
    let cat = StatsCatalog::analyze(&db, 1_000, 3);
    (db, cat)
}

fn small_bao(arms: Vec<HintSet>, n: usize, k: usize) -> Bao {
    let cfg = BaoConfig {
        arms,
        window_size: k,
        retrain_interval: n,
        cache_features: true,
        seed: 7,
        ..BaoConfig::default()
    };
    let featurizer_dim = bao_core::Featurizer::new(true).input_dim();
    let model = bao_models::TcnnModel::new(
        TcnnConfig::tiny(featurizer_dim),
        TrainConfig { max_epochs: 30, ..TrainConfig::default() },
    );
    Bao::with_model(cfg, Box::new(model))
}

fn queries() -> Vec<Query> {
    // A mix: correlated-filter joins (hint-sensitive) and plain scans.
    let mut qs = Vec::new();
    for year in [2010, 2005, 1999, 1980, 1960] {
        qs.push(
            parse_query(&format!(
                "SELECT COUNT(*) FROM title t, cast_info ci \
                 WHERE t.id = ci.movie_id AND t.kind = 2 AND t.year = {year}"
            ))
            .unwrap(),
        );
        qs.push(
            parse_query(&format!("SELECT COUNT(*) FROM title t WHERE t.year >= {year}")).unwrap(),
        );
    }
    qs
}

#[test]
fn before_training_bao_uses_default_optimizer() {
    let (db, cat) = setup(5_000);
    let bao = small_bao(HintSet::family_49(), 10, 100);
    let opt = Optimizer::postgres();
    let pool = BufferPool::new(512);
    let q = &queries()[0];
    let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
    assert_eq!(sel.arm, 0);
    assert_eq!(sel.arms_planned, 1);
    assert!(sel.predictions.iter().all(|p| p.is_none()));
}

#[test]
fn bao_learning_loop_runs_and_improves_selection() {
    let (db, cat) = setup(5_000);
    // 3 arms: default, no-nested-loop, hash-only — enough to learn from.
    let arms = vec![
        HintSet::all_enabled(),
        HintSet::from_masks(0b011, 0b111),
        HintSet::from_masks(0b001, 0b111),
    ];
    let mut bao = small_bao(arms, 8, 200);
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(2_048);
    let rates = ChargeRates::default();
    let qs = queries();

    let mut retrained = 0;
    for round in 0..4 {
        for q in &qs {
            let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
            let m = execute(&sel.plan, q, &db, &mut pool, &opt.params, &rates).unwrap();
            if bao.observe(sel.tree, m.latency.as_ms()).is_some() {
                retrained += 1;
            }
        }
        let _ = round;
    }
    assert!(retrained >= 2, "expected periodic retrains, got {retrained}");
    assert!(bao.is_model_fitted());
    assert!(bao.total_train_wall.as_nanos() > 0);

    // After training, Bao plans all arms and produces predictions.
    let sel = bao.select_plan(&opt, &qs[0], &db, &cat, Some(&pool)).unwrap();
    assert_eq!(sel.arms_planned, 3);
    assert!(sel.predictions.iter().all(|p| p.is_some()));
}

#[test]
fn observations_respect_window() {
    let (db, cat) = setup(2_000);
    let mut bao = small_bao(HintSet::family_49(), 1_000, 5);
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(512);
    let rates = ChargeRates::default();
    for q in queries().iter().take(8) {
        let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
        let m = execute(&sel.plan, q, &db, &mut pool, &opt.params, &rates).unwrap();
        bao.observe(sel.tree, m.latency.as_ms());
    }
    assert_eq!(bao.experience_len(), 5, "window k=5 must cap experience");
}

#[test]
fn disabled_bao_observes_but_never_hints() {
    let (db, cat) = setup(2_000);
    let mut bao = small_bao(HintSet::family_49(), 4, 100);
    bao.cfg.enabled = false;
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(512);
    let rates = ChargeRates::default();
    for q in queries().iter().take(6) {
        let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
        assert_eq!(sel.arm, 0, "disabled Bao must use the default optimizer");
        let m = execute(&sel.plan, q, &db, &mut pool, &opt.params, &rates).unwrap();
        bao.observe(sel.tree, m.latency.as_ms());
    }
    // It still learned (off-policy, advisor-style).
    assert!(bao.is_model_fitted());
}

#[test]
fn advisor_mode_renders_figure_6() {
    let (db, cat) = setup(3_000);
    let mut bao =
        small_bao(vec![HintSet::all_enabled(), HintSet::from_masks(0b011, 0b111)], 4, 100);
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(512);
    let rates = ChargeRates::default();
    let qs = queries();
    assert!(bao.advise(&opt, &qs[0], &db, &cat, Some(&pool)).is_err(), "unfitted");
    for q in qs.iter().take(5) {
        let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
        let m = execute(&sel.plan, q, &db, &mut pool, &opt.params, &rates).unwrap();
        bao.observe(sel.tree, m.latency.as_ms());
    }
    let advice = bao.advise(&opt, &qs[0], &db, &cat, Some(&pool)).unwrap();
    let text = advice.render();
    assert!(text.contains("Bao prediction:"), "{text}");
    assert!(text.contains("Bao recommended hint:"));
    assert!(advice.predicted_default_ms.is_finite());
}

#[test]
fn triggered_exploration_pins_critical_queries() {
    let (db, cat) = setup(4_000);
    // Arms that genuinely produce different plans: the default optimizer
    // versus a forced nested-loop-only, seq-scan-only plan (the naive
    // quadratic rescan — dramatically slower).
    let arms = vec![HintSet::all_enabled(), HintSet::from_masks(0b100, 0b001)];
    let mut bao = small_bao(arms, 1_000_000, 500);
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(2_048);
    let rates = ChargeRates::default();
    let q = &queries()[0];

    // Execute every arm for the critical query (what "marking" a query
    // triggers in §4), then register it.
    let (_, family) = bao.evaluate_arms(&opt, q, &db, &cat, Some(&pool)).unwrap();
    assert_eq!(family.arm_plan, [0, 1], "arms must produce distinct plans for this test");
    assert_ne!(family.plans[0].1, family.plans[1].1);
    // Each distinct plan runs once; each arm gets its plan's entry.
    let mut plan_perfs = Vec::new();
    for (plan, _) in &family.plans {
        pool.clear(); // fair cold-cache comparison between arms
        let m = execute(plan, q, &db, &mut pool, &opt.params, &rates).unwrap();
        plan_perfs.push(m.latency.as_ms());
    }
    let perfs: Vec<f64> = family.arm_plan.iter().map(|&p| plan_perfs[p]).collect();
    let entries =
        family.arm_plan.iter().map(|&p| (family.plans[p].1.clone(), plan_perfs[p])).collect();
    let best_arm = perfs.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
    bao.add_critical("q16b", entries);
    assert_eq!(bao.critical_labels(), vec!["q16b"]);

    // Seed some generic experience and retrain.
    for other in queries().iter().skip(1).take(5) {
        let sel = bao.select_plan(&opt, other, &db, &cat, Some(&pool)).unwrap();
        let m = execute(&sel.plan, other, &db, &mut pool, &opt.params, &rates).unwrap();
        bao.observe(sel.tree, m.latency.as_ms());
    }
    bao.retrain_now();

    // The model must now select the critical query's true best arm.
    let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
    assert_eq!(
        sel.arm, best_arm,
        "critical query must get its known-best arm (predictions: {:?}, perfs: {:?})",
        sel.predictions, perfs
    );
}

#[test]
fn wave_planning_returns_arms_in_order() {
    // Each query of the wave plans its whole arm family over one shared
    // context; results must come back in (query, arm) order: every
    // returned plan and its planning work equal what planning that arm
    // directly — alone — produces. The wave mixes one- to four-relation
    // queries, so neighbouring families differ in lattice size.
    let (db, cat) = setup(3_000);
    let opt = Optimizer::postgres();
    let pool = BufferPool::new(512);
    let arms = HintSet::top_arms(8);
    let bao = small_bao(arms.clone(), 1_000, 100);
    let mut all = queries();
    all.truncate(4);
    for sql in [
        "SELECT COUNT(*) FROM title a, cast_info ci, title b \
         WHERE a.id = ci.movie_id AND ci.movie_id = b.id AND a.year = 2010",
        "SELECT COUNT(*) FROM title a, cast_info c1, title b, cast_info c2 \
         WHERE a.id = c1.movie_id AND c1.movie_id = b.id AND b.id = c2.movie_id AND a.kind = 2",
    ] {
        all.insert(1, parse_query(sql).unwrap());
    }
    let qs: Vec<&_> = all.iter().collect();
    assert_eq!(qs.iter().map(|q| q.tables.len()).collect::<Vec<_>>(), [2, 4, 3, 1, 2, 1]);
    let results = bao.evaluate_arms_multi(&opt, &qs, &db, &cat, Some(&pool)).unwrap();
    assert_eq!(results.len(), qs.len());
    for (qi, (&q, (sel, family))) in qs.iter().zip(&results).enumerate() {
        assert_eq!(family.arm_plan.len(), arms.len());
        for (i, &arm) in arms.iter().enumerate() {
            let direct = opt.plan(q, &db, &cat, arm).unwrap();
            assert_eq!(
                family.plans[family.arm_plan[i]].0,
                annotated(&opt, q, &db, &cat, direct.root),
                "query {qi} arm {i} came back out of order"
            );
            assert_eq!(sel.per_arm_work[i], direct.work, "query {qi} arm {i}");
        }
        let chosen = &family.plans[family.arm_plan[sel.arm]];
        assert_eq!((&sel.plan, &sel.tree), (&chosen.0, &chosen.1));
    }
}

fn annotated(
    opt: &Optimizer,
    q: &Query,
    db: &Database,
    cat: &StatsCatalog,
    mut root: bao_plan::PlanNode,
) -> bao_plan::PlanNode {
    bao_opt::annotate_estimates(&mut root, q, db, cat, opt.estimator(), &opt.params).unwrap();
    root
}

/// The arm family folds aliasing arms without changing a decision: on
/// IMDb, Stack and Corp queries under all 49 arms, every arm maps to its
/// own annotated plan, the family's plans are pairwise different, and
/// the per-arm predictions are bit-equal to scoring all 49 trees one by
/// one with an identical model, so the chosen arm is the same.
#[test]
fn arm_family_scores_each_distinct_plan_once_at_equal_bits() {
    use bao_models::{TcnnModel, ValueModel};
    use bao_workloads::{build_corp, build_imdb, build_stack, CorpConfig, ImdbConfig, StackConfig};

    let imdb = ImdbConfig { scale: 0.03, n_queries: 40, dynamic: false, seed: 5 };
    let stack =
        StackConfig { scale: 0.05, n_queries: 40, initial_months: 2, total_months: 4, seed: 5 };
    let workloads = [
        ("imdb", build_imdb(&imdb).unwrap()),
        ("stack", build_stack(&stack).unwrap()),
        ("corp", build_corp(&CorpConfig { scale: 0.05, n_queries: 40, seed: 5 }).unwrap()),
    ];
    let opt = Optimizer::postgres();
    let arms = HintSet::family_49();
    let featurizer = bao_core::Featurizer::new(false);
    let mut shared = 0;
    for (name, (db, wl)) in &workloads {
        let cat = StatsCatalog::analyze(db, 500, 5);
        // Before the first data event, every query runs on `db` as built.
        let qs: Vec<&Query> =
            wl.steps.iter().take_while(|s| s.event.is_none()).take(12).map(|s| &s.query).collect();
        assert!(qs.len() >= 8, "{name}: {} queries", qs.len());

        // Two bit-identical fitted models: one inside Bao, one to score
        // every arm's tree directly.
        let trees: Vec<_> = qs
            .iter()
            .map(|q| {
                let plan = opt.plan(q, db, &cat, HintSet::all_enabled()).unwrap().root;
                featurizer.featurize(&annotated(&opt, q, db, &cat, plan), q, db, None)
            })
            .collect();
        let perfs: Vec<f64> = (0..trees.len()).map(|i| 10.0 + (i * 37 % 11) as f64).collect();
        let mut model = TcnnModel::new(
            TcnnConfig::tiny(featurizer.input_dim()),
            TrainConfig { max_epochs: 5, ..TrainConfig::default() },
        );
        model.fit(&trees, &perfs, 9);
        let mut reference =
            TcnnModel::new(TcnnConfig::tiny(featurizer.input_dim()), TrainConfig::default());
        reference.restore_json(&model.snapshot_json().unwrap()).unwrap();
        let cfg = BaoConfig { arms: arms.clone(), cache_features: false, ..BaoConfig::default() };
        let bao = Bao::with_model(cfg, Box::new(model));
        assert!(bao.is_model_fitted());

        let results = bao.evaluate_arms_multi(&opt, &qs, db, &cat, None).unwrap();
        for (qi, (&q, (sel, family))) in qs.iter().zip(&results).enumerate() {
            let what = format!("{name} query {qi}");
            let plans: Vec<_> = arms
                .iter()
                .map(|&arm| annotated(&opt, q, db, &cat, opt.plan(q, db, &cat, arm).unwrap().root))
                .collect();
            for (arm, plan) in plans.iter().enumerate() {
                assert_eq!(&family.plans[family.arm_plan[arm]].0, plan, "{what} arm {arm}");
            }
            for (i, (a, _)) in family.plans.iter().enumerate() {
                assert!(family.plans[..i].iter().all(|(b, _)| a != b), "{what}: plan {i} twice");
            }
            let all_trees: Vec<_> =
                plans.iter().map(|p| featurizer.featurize(p, q, db, None)).collect();
            let refs: Vec<_> = all_trees.iter().collect();
            let want = reference.predict_batch(&refs).unwrap();
            let got: Vec<u64> = sel.predictions.iter().map(|p| p.unwrap().to_bits()).collect();
            assert_eq!(got, want.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), "{what}");
            let best = (0..arms.len()).min_by(|&a, &b| want[a].total_cmp(&want[b])).unwrap();
            assert_eq!(sel.arm, best, "{what}");
            assert_eq!(sel.distinct_plans, family.plans.len(), "{what}");
            let same: Vec<usize> = (0..arms.len()).filter(|&a| plans[a] == plans[best]).collect();
            assert_eq!(sel.same_plan_arms, same, "{what}");
            shared += arms.len() - family.plans.len();
        }
    }
    assert!(shared > 0, "no arm aliased another: the fold was never exercised");
}
