//! Randomized property tests over the core invariants.
//!
//! The single most important invariant of the whole system is paper §2's
//! assumption: *every hint set produces a semantically equivalent plan*.
//! Bao's correctness rests on it, so it is tested here against randomized
//! queries, alongside estimator bounds and featurization well-formedness.
//!
//! Each property runs a fixed number of cases drawn from the in-house
//! deterministic PRNG; every case is fully determined by a master seed and
//! the case index, which the panic message reports for reproduction.

use bao_common::{rng_from_seed, split_seed, Rng, Xoshiro256};
use bao_core::Featurizer;
use bao_exec::{execute, ChargeRates};
use bao_opt::{HintSet, Optimizer};
use bao_plan::CmpOp;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_workloads::imdb::{build_imdb_database, instantiate_template, N_TEMPLATES};
use std::sync::OnceLock;

/// One shared small database (building per-case would dominate runtime).
fn shared_db() -> &'static (Database, StatsCatalog) {
    static DB: OnceLock<(Database, StatsCatalog)> = OnceLock::new();
    DB.get_or_init(|| {
        let db = build_imdb_database(0.04, 1234).expect("build db");
        let cat = StatsCatalog::analyze(&db, 400, 1234);
        (db, cat)
    })
}

/// Run `cases` deterministic iterations of `body`, handing each a fresh
/// case-seeded RNG. The case index and seed appear in any panic message.
fn check_cases(name: &str, master_seed: u64, cases: u64, mut body: impl FnMut(&mut Xoshiro256)) {
    for case in 0..cases {
        let seed = split_seed(master_seed, case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = rng_from_seed(seed);
            body(&mut rng);
        }));
        if let Err(e) = result {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!("property {name} failed at case {case} (seed {seed:#x}): {msg}");
        }
    }
}

/// Any template × parameter seed × hint set: same answer as the default
/// optimizer's plan, and the plan stays executable.
#[test]
fn hint_sets_never_change_results() {
    check_cases("hint_sets_never_change_results", 0xA001, 24, |gen| {
        let template = gen.gen_range(0..N_TEMPLATES);
        let qseed = gen.gen_range(0u64..5_000);
        let join_mask = gen.gen_range(1u8..8);
        let scan_mask = gen.gen_range(1u8..8);

        let (db, cat) = shared_db();
        let mut rng = rng_from_seed(qseed);
        let (_, query) = instantiate_template(template, 0.04, &mut rng);
        let opt = Optimizer::postgres();
        let rates = ChargeRates::default();

        let reference = {
            let plan = opt.plan(&query, db, cat, HintSet::all_enabled()).unwrap();
            let mut pool = BufferPool::new(256);
            execute(&plan.root, &query, db, &mut pool, &opt.params, &rates).unwrap()
        };
        let hinted = {
            let hints = HintSet::from_masks(join_mask, scan_mask);
            let plan = opt.plan(&query, db, cat, hints).unwrap();
            let mut pool = BufferPool::new(256);
            execute(&plan.root, &query, db, &mut pool, &opt.params, &rates).unwrap()
        };
        // Compare value outputs as multisets (row order is unspecified for
        // non-ORDER BY queries).
        let canon = |m: &bao_exec::ExecutionMetrics| {
            let mut rows: Vec<String> = m.output.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(canon(&reference), canon(&hinted));
        assert_eq!(reference.rows_out, hinted.rows_out);
    });
}

/// Plans produced under any hint set featurize into well-formed strict
/// binary trees with the advertised dimension.
#[test]
fn featurization_is_well_formed() {
    check_cases("featurization_is_well_formed", 0xA002, 24, |gen| {
        let template = gen.gen_range(0..N_TEMPLATES);
        let qseed = gen.gen_range(0u64..5_000);
        let cache = gen.gen_bool(0.5);

        let (db, cat) = shared_db();
        let mut rng = rng_from_seed(qseed);
        let (_, query) = instantiate_template(template, 0.04, &mut rng);
        let opt = Optimizer::postgres();
        let plan = opt.plan(&query, db, cat, HintSet::all_enabled()).unwrap();
        let f = Featurizer::new(cache);
        let tree = f.featurize(&plan.root, &query, db, None);
        assert!(tree.is_well_formed());
        assert_eq!(tree.feat_dim, f.input_dim());
        // strict binarization: every node has 0 or 2 children
        for i in 0..tree.n_nodes() {
            assert_eq!(tree.left[i] >= 0, tree.right[i] >= 0);
        }
        // exactly one one-hot bit per node
        for i in 0..tree.n_nodes() {
            let ones = tree.feat(i)[..bao_plan::N_OP_KINDS].iter().filter(|&&v| v == 1.0).count();
            assert_eq!(ones, 1);
        }
    });
}

/// Estimator outputs are valid probabilities and respect range
/// monotonicity.
#[test]
fn selectivities_are_probabilities() {
    check_cases("selectivities_are_probabilities", 0xA003, 24, |gen| {
        let x = gen.gen_range(-100.0f64..3000.0);
        let wider = gen.gen_range(0.0f64..500.0);

        let (_, cat) = shared_db();
        use bao_stats::{Estimator, PostgresEstimator, ResolvedPred, SampleEstimator};
        let mk = |x: f64, op| ResolvedPred { column: "production_year".into(), op, x };
        for est in [&PostgresEstimator as &dyn Estimator, &SampleEstimator as &dyn Estimator] {
            let lt = est.scan_selectivity(cat, "title", &[mk(x, CmpOp::Lt)]);
            let lt_wider = est.scan_selectivity(cat, "title", &[mk(x + wider, CmpOp::Lt)]);
            assert!((0.0..=1.0).contains(&lt), "{lt}");
            assert!(lt <= lt_wider + 1e-6, "monotone: {lt} vs {lt_wider}");
            let eq = est.scan_selectivity(cat, "title", &[mk(x, CmpOp::Eq)]);
            assert!((0.0..=1.0).contains(&eq));
        }
    });
}

/// The buffer pool never exceeds capacity and hit+miss counts add up.
#[test]
fn buffer_pool_invariants() {
    check_cases("buffer_pool_invariants", 0xA004, 24, |gen| {
        use bao_storage::{AccessKind, BufferPool, PageKey};
        let capacity = gen.gen_range(1usize..64);
        let n_accesses = gen.gen_range(1usize..200);
        let mut pool = BufferPool::new(capacity);
        for _ in 0..n_accesses {
            let object = gen.gen_range(0u32..4);
            let page = gen.gen_range(0u32..64);
            let kind = if gen.gen_bool(0.5) { AccessKind::BulkRead } else { AccessKind::Cached };
            pool.access(PageKey::new(object, page), kind);
            assert!(pool.len() <= capacity);
        }
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, stats.accesses());
        for object in 0..4u32 {
            let frac = pool.cached_fraction(object, 64);
            assert!((0.0..=1.0).contains(&frac));
        }
    });
}

/// q-error is symmetric, >= 1, and 1 only at equality (over the floored
/// domain).
#[test]
fn qerror_properties() {
    check_cases("qerror_properties", 0xA005, 24, |gen| {
        use bao_common::stats::qerror;
        let a = gen.gen_range(1.0f64..1e9);
        let b = if gen.gen_bool(0.2) { a } else { gen.gen_range(1.0f64..1e9) };
        let q = qerror(a, b);
        assert!(q >= 1.0);
        assert!((qerror(b, a) - q).abs() < 1e-9);
        if (a - b).abs() < f64::EPSILON {
            assert!((q - 1.0).abs() < 1e-12);
        }
    });
}

/// Percentiles are monotone in p and bounded by min/max.
#[test]
fn percentile_properties() {
    check_cases("percentile_properties", 0xA006, 24, |gen| {
        use bao_common::stats::percentile;
        let n = gen.gen_range(1usize..50);
        let mut xs: Vec<f64> = (0..n).map(|_| gen.gen_range(0.0f64..1e6)).collect();
        let p1 = gen.gen_range(0.0f64..100.0);
        let p2 = gen.gen_range(0.0f64..100.0);
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = percentile(&xs, lo);
        let b = percentile(&xs, hi);
        assert!(a <= b + 1e-9);
        xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!(a >= xs[0] - 1e-9);
        assert!(b <= xs[xs.len() - 1] + 1e-9);
    });
}

/// Order-independence of the cross-query batched arm scorer: permuting
/// the arrival order of the queries inside a coalescing window never
/// changes any query's selection. `Bao::evaluate_arms_multi` plans each
/// query's arm family in (query, arm) order and scores
/// through an engine whose kernels are all per-node or per-tree
/// (`bao_nn::infer`), so each query's arm choice, predictions, and planning work
/// must be bitwise independent of its batch neighbours.
#[test]
fn coalesced_scoring_is_arrival_order_independent() {
    use bao_core::{Bao, BaoConfig};
    use bao_models::TcnnModel;
    use bao_nn::{TcnnConfig, TrainConfig};

    check_cases("coalesced_scoring_is_arrival_order_independent", 0xA008, 8, |gen| {
        let (db, cat) = shared_db();
        let opt = Optimizer::postgres();

        // A fitted Bao over a reduced arm family (order-independence
        // does not depend on arm count; 8 arms keep the case cheap).
        let cfg = BaoConfig {
            arms: HintSet::top_arms(8),
            window_size: 64,
            retrain_interval: 1_000,
            cache_features: false,
            seed: gen.gen_range(0u64..1 << 48),
            ..BaoConfig::default()
        };
        let featurizer = Featurizer::new(false);
        let dim = featurizer.input_dim();
        let model = Box::new(TcnnModel::new(
            TcnnConfig::tiny(dim),
            TrainConfig { max_epochs: 5, ..TrainConfig::default() },
        ));
        let mut bao = Bao::with_model(cfg, model);
        for _ in 0..6 {
            let template = gen.gen_range(0..N_TEMPLATES);
            let mut rng = rng_from_seed(gen.gen_range(0u64..5_000));
            let (_, q) = instantiate_template(template, 0.04, &mut rng);
            let plan = opt.plan(&q, db, cat, HintSet::all_enabled()).unwrap();
            let tree = featurizer.featurize(&plan.root, &q, db, None);
            bao.observe(tree, gen.gen_range(10.0f64..1_000.0));
        }
        bao.retrain_now();
        assert!(bao.is_model_fitted());

        // A window of distinct queries, scored in arrival order …
        let n = gen.gen_range(2usize..6);
        let queries: Vec<_> = (0..n)
            .map(|_| {
                let template = gen.gen_range(0..N_TEMPLATES);
                let mut rng = rng_from_seed(gen.gen_range(0u64..10_000));
                instantiate_template(template, 0.04, &mut rng).1
            })
            .collect();
        let refs: Vec<&_> = queries.iter().collect();
        let base = bao.evaluate_arms_multi(&opt, &refs, db, cat, None).unwrap();

        // … and again under a random permutation of arrival order.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = gen.gen_range(0..(i + 1));
            perm.swap(i, j);
        }
        let shuffled: Vec<&_> = perm.iter().map(|&i| &queries[i]).collect();
        let permuted = bao.evaluate_arms_multi(&opt, &shuffled, db, cat, None).unwrap();

        for (pos, &orig) in perm.iter().enumerate() {
            let (a, _) = &base[orig];
            let (b, _) = &permuted[pos];
            assert_eq!(a.arm, b.arm, "query {orig}: selection changed under permutation");
            assert_eq!(
                a.predictions, b.predictions,
                "query {orig}: predictions not bitwise identical under permutation"
            );
            assert_eq!(a.per_arm_work, b.per_arm_work);
            assert_eq!(a.plan, b.plan);
        }
    });
}

/// SQL round trip: rendering a workload query to SQL and re-parsing it
/// reproduces the identical AST (so `Display` and the parser agree on the
/// full supported fragment).
#[test]
fn sql_display_parse_round_trip() {
    check_cases("sql_display_parse_round_trip", 0xA007, 48, |gen| {
        let template = gen.gen_range(0..N_TEMPLATES);
        let qseed = gen.gen_range(0u64..10_000);
        let mut rng = rng_from_seed(qseed);
        let (_, query) = instantiate_template(template, 0.04, &mut rng);
        let sql = query.to_string();
        let reparsed = bao_sql::parse_query(&sql)
            .unwrap_or_else(|e| panic!("rendered SQL failed to parse: {e}\n{sql}"));
        assert_eq!(reparsed, query, "round trip changed the query: {sql}");
    });
}
