//! What Bao's value model learns and what it costs: Figures 11 and
//! 14–16, and the §7 cost-model probe.

use super::{checkpoints, imdb, pair, run_cfg};
use bao_baselines::LearnedOptimizer;
use bao_bench::{bao_settings, print_header, Args, Table};
use bao_cloud::{gpu_train_time, N1_16};
use bao_common::stats::{median, percentile, qerror_zero_based};
use bao_common::{split_seed, SimDuration};
use bao_core::Featurizer;
use bao_exec::{execute, ChargeRates, PerfMetric};
use bao_harness::{exhaustive_arm_perfs, regret_of, BaoSettings, ModelKind, RunConfig, Strategy};
use bao_models::{TcnnModel, ValueModel};
use bao_nn::{FeatTree, TcnnConfig, TrainConfig};
use bao_opt::{HintSet, Optimizer, OptimizerProfile};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_workloads::{build_imdb, imdb::job_queries, ImdbConfig, Workload};

/// Figure 11: per-query regression analysis on the held-out JOB queries.
///
/// Bao trains on the IMDb workload (JOB queries removed — different
/// template parameters, so no predicate overlap), then its model is
/// frozen and each of the 113 JOB queries is planned and executed once.
/// The paper finds only 3 of 113 regress, all under 3 seconds, while ten
/// queries improve by over 20 seconds.
pub fn figure11(args: &Args) {
    let scale = args.scale(0.15);
    let n_train = args.queries(400);
    let seed = args.seed();
    let arms_n = args.usize("arms", 6);

    print_header(
        "Figure 11: latency delta on held-out JOB queries (Bao frozen after training)",
        &format!("(scale {scale}, {n_train} training queries; paper: 3/113 regress, all < 3s)"),
    );

    let (db, wl) = imdb(scale, n_train, seed);
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let settings = bao_settings(arms_n, n_train);

    // Train Bao on the non-JOB workload.
    let mut bao = settings.build(seed);
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
    for step in &wl.steps {
        let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
        let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
        bao.observe(sel.tree, m.latency.as_ms());
    }

    // Frozen evaluation on JOB (never observe).
    let job = job_queries(scale, seed + 1);
    let mut deltas_bao = Vec::new();
    let mut deltas_opt = Vec::new();
    let mut regressions = Vec::new();
    for (label, q) in &job {
        let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
        let perfs = exhaustive_arm_perfs(
            &opt,
            q,
            &db,
            &cat,
            &settings.arms,
            &pool,
            PerfMetric::Latency,
            false,
        )
        .unwrap();
        let pg = perfs[0];
        let bao_ms = perfs[sel.arm];
        let best = perfs.iter().cloned().fold(f64::INFINITY, f64::min);
        deltas_bao.push(bao_ms - pg);
        deltas_opt.push(best - pg);
        if bao_ms > pg * 1.05 && bao_ms - pg > 1.0 {
            regressions.push((label.clone(), bao_ms - pg));
        }
    }

    let mut worst: Vec<f64> = deltas_bao.clone();
    worst.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mut t = Table::new(&["Metric", "Bao", "Optimal hint set"]);
    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1_000.0;
    let below = |v: &[f64], ms: f64| format!("{}/113", v.iter().filter(|&&d| d < ms).count());
    t.row(vec![
        "total delta (s, neg = faster)".into(),
        format!("{:+.2}", sum(&deltas_bao)),
        format!("{:+.2}", sum(&deltas_opt)),
    ]);
    t.row(vec![
        "median delta (ms)".into(),
        format!("{:+.1}", median(&deltas_bao)),
        format!("{:+.1}", median(&deltas_opt)),
    ]);
    t.row(vec!["queries improved >1ms".into(), below(&deltas_bao, -1.0), below(&deltas_opt, -1.0)]);
    t.row(vec![
        "queries improved >100ms".into(),
        below(&deltas_bao, -100.0),
        below(&deltas_opt, -100.0),
    ]);
    t.row(vec![
        "regressions (>5% & >1ms)".into(),
        format!("{}/113", regressions.len()),
        "0/113".into(),
    ]);
    t.print();
    if !regressions.is_empty() {
        regressions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!("\nworst regressions:");
        for (label, d) in regressions.iter().take(5) {
            println!("  {label}: +{d:.1} ms");
        }
    }
    println!("\nbiggest improvements: {:?} ms", &worst[..3.min(worst.len())]);
}

/// Run a learned-optimizer baseline over the workload, returning the
/// cumulative latency after each query (ms).
fn run_learned(mut lo: LearnedOptimizer, db: &Database, wl: &Workload, seed: u64) -> Vec<f64> {
    let db = db.clone();
    let cat = StatsCatalog::analyze(&db, 1_000, split_seed(seed, 1));
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
    let rates = N1_16.charge_rates();
    let mut clock = 0.0;
    let mut out = Vec::with_capacity(wl.len());
    for step in &wl.steps {
        let (plan, tree) = lo.select_plan(&opt, &step.query, &db, &cat).expect("select");
        let m = execute(&plan, &step.query, &db, &mut pool, &opt.params, &rates).expect("execute");
        lo.observe(tree, m.latency.as_ms());
        clock += m.latency.as_ms();
        out.push(clock);
    }
    out
}

/// Figure 14: Bao vs Neo vs DQ vs PostgreSQL — queries finished over time
/// on a stable workload (left) and the dynamic workload (right).
///
/// Paper shape: on a stable workload Neo eventually overtakes PostgreSQL
/// and, much later, Bao (its unrestricted plan space has a higher
/// ceiling but converges orders of magnitude slower); DQ is slower still
/// (poor inductive bias). On the dynamic workload neither Neo nor DQ
/// catches Bao within the time budget.
pub fn figure14(args: &Args) {
    let scale = args.scale(0.15);
    let n = args.queries(400);
    let seed = args.seed();

    print_header(
        "Figure 14: Bao vs Neo vs DQ vs PostgreSQL (queries finished over time)",
        &format!(
            "(scale {scale}, {n} queries; paper: unrestricted learners converge far slower, \
                  and fail to catch Bao under workload drift)"
        ),
    );

    for (panel, dynamic) in [("(a) stable workload", false), ("(b) dynamic workload", true)] {
        println!("\n--- {panel}");
        let (db, wl) = build_imdb(&ImdbConfig { scale, n_queries: n, dynamic, seed }).unwrap();

        // Bao + PostgreSQL through the harness.
        let [pg, bao] =
            pair(&db, &wl, N1_16, OptimizerProfile::PostgresLike, bao_settings(6, n), seed)
                .map(|res| res.records.iter().map(|r| r.clock.as_ms()).collect::<Vec<f64>>());
        let results = [
            ("PostgreSQL", pg),
            ("Bao", bao),
            ("Neo", run_learned(LearnedOptimizer::neo(seed), &db, &wl, seed)),
            ("DQ", run_learned(LearnedOptimizer::dq(seed), &db, &wl, seed)),
        ];

        let mut t = Table::new(&["System", "25%", "50%", "75%", "100% of queries", "Total (s)"]);
        for (label, clocks) in &results {
            let mut row = vec![label.to_string()];
            row.extend(
                checkpoints(clocks.len(), 4).map(|i| format!("{:.0}s", clocks[i] / 1_000.0)),
            );
            row.push(format!("{:.1}", clocks.last().unwrap() / 1_000.0));
            t.row(row);
        }
        t.print();
    }
    println!();
    println!("Cells are the elapsed time at which each system finished that fraction");
    println!("of the workload (lower is better).");
}

/// Figure 15a: value-model ablation — Bao with its TCNN vs a random
/// forest vs a linear model, plus the single best hint set and
/// PostgreSQL, on the first IMDb queries with a cold cache.
pub fn figure15a(args: &Args) {
    let scale = args.scale(0.15);
    let n = args.queries(300);
    let seed = args.seed();
    let arms = args.usize("arms", 12);

    print_header(
        "Figure 15a: value model ablation (IMDb prefix, cold cache)",
        &format!("(scale {scale}, {n} queries; paper: simpler models perform substantially worse)"),
    );

    let (db, wl) = imdb(scale, n, seed);
    let mut table = Table::new(&["System", "Exec time (s)", "vs PostgreSQL"]);
    let mut pg_total = 0.0;
    for (label, total) in figure15a_totals(&db, &wl, arms, seed) {
        let total = total.as_secs();
        if label == "PostgreSQL" {
            pg_total = total;
        }
        table.row(vec![
            label.to_string(),
            format!("{total:.2}"),
            format!("{:.2}x", total / pg_total),
        ]);
    }
    table.print();
}

/// §6.3's best single hint set: disable the loop join, applied always.
fn best_single_hint() -> HintSet {
    HintSet::from_masks(0b011, 0b111)
}

/// Bao as Figure 15a configures it, with `model` as its value model.
fn figure15a_bao(model: ModelKind, arms: usize, n: usize) -> BaoSettings {
    BaoSettings { model, ..bao_settings(arms, n) }
}

/// Figure 15a's rows: each system's total execution time over `wl`, cold
/// cache, in the figure's order.
fn figure15a_totals(
    db: &Database,
    wl: &Workload,
    arms: usize,
    seed: u64,
) -> Vec<(&'static str, SimDuration)> {
    let mk_bao = |model| Strategy::Bao(figure15a_bao(model, arms, wl.len()));
    [
        ("PostgreSQL", Strategy::Traditional),
        ("Bao (TCNN)", mk_bao(ModelKind::TcnnSmall)),
        ("Bao (random forest)", mk_bao(ModelKind::RandomForest)),
        ("Bao (linear)", mk_bao(ModelKind::Linear)),
        ("Best single hint set", Strategy::FixedHint(best_single_hint())),
    ]
    .into_iter()
    .map(|(label, strategy)| {
        let cfg = RunConfig { cold_cache: true, seed, ..RunConfig::new(N1_16, strategy) };
        (label, run_cfg(db, wl, cfg).total_exec)
    })
    .collect()
}

/// One query as a system ran it: the arm it picked, the model's
/// prediction for that arm (`None` before the first fit) and the latency
/// it ran at (ms).
struct Pick {
    arm: usize,
    predicted: Option<f64>,
    ms: f64,
}

/// Bao over `wl` the way `Runner` drives Figure 15a's runs (closed loop,
/// cold cache, the runner's catalog and model seeds), keeping the
/// predictions the runner drops: select → execute → clear the pool →
/// observe. Returns the picks and the total execution time.
fn drive_cold(
    db: &Database,
    wl: &Workload,
    settings: &BaoSettings,
    seed: u64,
) -> (Vec<Pick>, SimDuration) {
    let cat = StatsCatalog::analyze(db, 1_000, split_seed(seed, 1));
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    let mut bao = settings.build(split_seed(seed, 2));
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
    let mut picks = Vec::with_capacity(wl.len());
    let mut total = SimDuration::ZERO;
    for step in &wl.steps {
        assert!(step.event.is_none(), "the decomposition replays no workload events");
        let sel = bao.select_plan(&opt, &step.query, db, &cat, Some(&pool)).expect("select");
        let m =
            execute(&sel.plan, &step.query, db, &mut pool, &opt.params, &rates).expect("execute");
        pool.clear();
        total += m.latency;
        let (arm, ms) = (sel.arm, m.latency.as_ms());
        picks.push(Pick { arm, predicted: sel.predictions[arm], ms });
        bao.observe(sel.tree, m.perf(PerfMetric::Latency));
    }
    (picks, total)
}

/// Figure 15a, decomposed: where each system's time against PostgreSQL
/// (arm 0) goes. The oracle's cold per-arm latencies say how much any
/// arm choice could win; each system's picks say what it won, what it
/// lost, in which retrain window and on which arm, and how far its model
/// under-predicted the picks that lost. The learned systems' picks come
/// from a figures-side loop that must reproduce Figure 15a's totals to
/// the bit (it panics otherwise), so the two figures cannot drift apart.
pub fn figure15a_decomposition(args: &Args) {
    let scale = args.scale(0.15);
    let n = args.queries(300);
    let seed = args.seed();
    let arms_n = args.usize("arms", 12);
    let settings = bao_settings(arms_n, n);
    let retrain = settings.retrain;

    print_header(
        "Figure 15a, decomposed: each system's seconds won and lost against arm 0",
        &format!(
            "(scale {scale}, {n} queries, {arms_n} arms, cold cache, retrain every {retrain}; \
             the rows of figure15a)"
        ),
    );

    let (db, wl) = imdb(scale, n, seed);
    let rows = figure15a_totals(&db, &wl, arms_n, seed);
    let row = |label: &str| rows.iter().find(|(l, _)| *l == label).expect("figure15a row").1;

    // Every arm's cold latency per query, from the oracle strategy.
    let oracle = run_cfg(
        &db,
        &wl,
        RunConfig {
            cold_cache: true,
            seed,
            ..RunConfig::new(N1_16, Strategy::Optimal { arms: settings.arms.clone() })
        },
    );
    let perfs: Vec<Vec<f64>> =
        oracle.records.iter().map(|r| r.arm_perfs.clone().expect("oracle arm perfs")).collect();
    let arm_total = |a: usize| perfs.iter().fold(0.0, |t, p| t + p[a]);
    let pg = arm_total(0);
    assert_eq!(pg.to_bits(), row("PostgreSQL").as_ms().to_bits(), "arm 0 is not PostgreSQL");
    let best = perfs.iter().fold(0.0, |t, p| t + p.iter().cloned().fold(f64::INFINITY, f64::min));
    let headroom = |total: f64| (pg - total) / (pg - best);

    println!("\n--- (a) the per-query oracle and each arm alone (cold latencies)");
    let mut t =
        Table::new(&["Arm", "Exec time (s)", "vs PostgreSQL", "Oracle headroom", "Best on"]);
    t.row(vec![
        "per-query oracle".into(),
        format!("{:.2}", best / 1_000.0),
        format!("{:.2}x", best / pg),
        "100 %".into(),
        format!("{n} queries"),
    ]);
    for (a, hints) in settings.arms.iter().enumerate() {
        let total = arm_total(a);
        let best_on = perfs.iter().filter(|p| argmin_first(p) == a).count();
        t.row(vec![
            format!("{a}: {hints}"),
            format!("{:.2}", total / 1_000.0),
            format!("{:.2}x", total / pg),
            format!("{:.0} %", 100.0 * headroom(total)),
            format!("{best_on}"),
        ]);
    }
    t.print();

    // Each system's picks. The best single hint set's are the oracle's
    // column for its arm; the learned systems' come from the loop.
    let fixed = settings
        .arms
        .iter()
        .position(|h| *h == best_single_hint())
        .expect("the best single hint set is one of the arms (--arms 2 or more)");
    assert_eq!(arm_total(fixed).to_bits(), row("Best single hint set").as_ms().to_bits());
    let fixed_picks: Vec<Pick> =
        perfs.iter().map(|p| Pick { arm: fixed, predicted: None, ms: p[fixed] }).collect();
    let mut systems = Vec::new();
    for (label, model) in [
        ("Bao (TCNN)", ModelKind::TcnnSmall),
        ("Bao (random forest)", ModelKind::RandomForest),
        ("Bao (linear)", ModelKind::Linear),
    ] {
        let (picks, total) = drive_cold(&db, &wl, &figure15a_bao(model, arms_n, n), seed);
        assert_eq!(total, row(label), "{label}: the loop drifted from figure15a's run");
        systems.push((label, picks));
    }
    systems.push(("Best single hint set", fixed_picks));

    // Per query, the pick's latency minus arm 0's: > 0 lost, < 0 won.
    let delta = |i: usize, p: &Pick| p.ms - perfs[i][0];
    // Milliseconds lost and losing picks over the queries `keep` selects.
    let losses = |picks: &[Pick], keep: &dyn Fn(usize, &Pick) -> bool| -> (f64, usize) {
        let losing = picks.iter().enumerate().filter(|(i, p)| keep(*i, p) && delta(*i, p) > 0.0);
        losing.fold((0.0, 0), |(ms, k), (i, p)| (ms + delta(i, p), k + 1))
    };
    println!("\n--- (b) each system against arm 0, query by query");
    let mut t = Table::new(&[
        "System",
        "Exec time (s)",
        "vs PostgreSQL",
        "Oracle headroom",
        "Won (s)",
        "Lost (s)",
        "Losing picks",
        "Pred/actual on losses: median",
        "p10",
    ]);
    for (label, picks) in &systems {
        let total = picks.iter().fold(0.0, |t, p| t + p.ms);
        let won: f64 = picks.iter().enumerate().map(|(i, p)| (-delta(i, p)).max(0.0)).sum();
        let (lost, losing) = losses(picks, &|_, _| true);
        let ratios: Vec<f64> = picks
            .iter()
            .enumerate()
            .filter(|(i, p)| delta(*i, p) > 0.0)
            .filter_map(|(_, p)| p.predicted.map(|pred| pred / p.ms))
            .collect();
        let ratio = |q: f64| {
            if ratios.is_empty() {
                "-".to_string()
            } else {
                format!("{:.3}", percentile(&ratios, q))
            }
        };
        t.row(vec![
            label.to_string(),
            format!("{:.2}", total / 1_000.0),
            format!("{:.2}x", total / pg),
            format!("{:.0} %", 100.0 * headroom(total)),
            format!("{:.2}", won / 1_000.0),
            format!("{:.2}", lost / 1_000.0),
            format!("{losing}"),
            ratio(50.0),
            ratio(10.0),
        ]);
    }
    t.print();

    let header = |first: &'static str| -> Vec<&str> {
        std::iter::once(first).chain(systems.iter().map(|(label, _)| *label)).collect()
    };
    // One cell per system: seconds lost (losing picks) where `keep` holds.
    let lost_where = |keep: &dyn Fn(usize, &Pick) -> bool| -> Vec<String> {
        let cell = |(ms, k): (f64, usize)| format!("{:.2} ({k})", ms / 1_000.0);
        systems.iter().map(|(_, picks)| cell(losses(picks, keep))).collect()
    };

    println!("\n--- (c) seconds lost against arm 0 (losing picks), by retrain window");
    let mut t = Table::new(&header("Retrain window"));
    for w in 0..n.div_ceil(retrain) {
        let span = w * retrain..((w + 1) * retrain).min(n);
        let fitted = if w == 0 { "unfitted".to_string() } else { format!("fit {w}") };
        let mut cells = vec![format!("queries {}-{} ({fitted})", span.start + 1, span.end)];
        cells.extend(lost_where(&|i, _| span.contains(&i)));
        t.row(cells);
    }
    t.print();

    println!("\n--- (d) seconds lost against arm 0 (losing picks), by the arm picked");
    let mut t = Table::new(&header("Arm picked"));
    for (a, hints) in settings.arms.iter().enumerate() {
        let mut cells = vec![format!("{a}: {hints}")];
        cells.extend(lost_where(&|_, p| p.arm == a));
        t.row(cells);
    }
    t.print();
    println!();
    println!("Won / lost: per query, the pick's cold latency against arm 0's. Oracle");
    println!("headroom: the share of (PostgreSQL - oracle) a system keeps. Pred/actual:");
    println!("the model's prediction for its pick over the latency it ran at, on the");
    println!("picks that lost. Every learned total equals figure15a's row to the bit.");
}

/// The first index of the smallest value (ties to the lower arm, like the
/// oracle strategy).
fn argmin_first(xs: &[f64]) -> usize {
    (0..xs.len()).fold(0, |best, i| if xs[i] < xs[best] { i } else { best })
}

/// Figure 15b: accuracy of Bao's predictive model over time — the median
/// q-error (0 = perfect) of its latency prediction for the *next* query's
/// chosen plan, in a sliding window.
pub fn figure15b(args: &Args) {
    let scale = args.scale(0.15);
    let n = args.queries(400);
    let seed = args.seed();

    print_header(
        "Figure 15b: median q-error of Bao's model vs queries processed (IMDb)",
        &format!("(scale {scale}, {n} queries; paper: early peak ~3, falling as experience grows)"),
    );

    let (db, wl) = imdb(scale, n, seed);
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    let mut bao = bao_settings(6, n).build(seed);
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());

    let mut errors: Vec<(usize, f64)> = Vec::new();
    for (i, step) in wl.steps.iter().enumerate() {
        let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
        let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
        if let Some(pred) = sel.predictions[sel.arm] {
            errors.push((i, qerror_zero_based(pred, m.latency.as_ms())));
        }
        bao.observe(sel.tree, m.latency.as_ms());
    }

    let mut t = Table::new(&["Queries processed", "Median q-error (window of 50)"]);
    for end in (50..=errors.len()).step_by(50) {
        let window: Vec<f64> =
            errors[end.saturating_sub(50)..end].iter().map(|&(_, e)| e).collect();
        t.row(vec![format!("{}", errors[end - 1].0 + 1), format!("{:.2}", median(&window))]);
    }
    t.print();
    println!();
    println!("(Predictions exist only once the model is first trained; despite early");
    println!("inaccuracy, selection avoids catastrophic plans — Figure 10's curves.)");
}

/// Figure 15c: training effort as a function of the sliding window size
/// k — epochs to convergence and the simulated GPU seconds the cloud
/// model bills for them. (Wall-clock training time on the host is the
/// repo benchmark's `nn.fit_ms_e100` / `_e250` / `_e2000`.)
pub fn figure15c(args: &Args) {
    let scale = args.scale(0.1);
    let seed = args.seed();
    let max_k = args.usize("max-window", 2_000);

    print_header(
        "Figure 15c: model training time vs window size k",
        &format!("(scale {scale}; paper: roughly linear in k, ~3 minutes of GPU at k = 5000)"),
    );

    // Gather a pool of real experiences by executing workload queries.
    let (db, wl) = imdb(scale, max_k.min(600), seed);
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let featurizer = Featurizer::new(true);
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
    let rates = N1_16.charge_rates();
    let mut trees = Vec::new();
    let mut ys = Vec::new();
    for step in &wl.steps {
        let plan = opt.plan(&step.query, &db, &cat, HintSet::all_enabled()).unwrap();
        let m = execute(&plan.root, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
        trees.push(featurizer.featurize(&plan.root, &step.query, &db, Some(&pool)));
        ys.push(m.latency.as_ms());
    }
    // Replicate to reach the largest window.
    while trees.len() < max_k {
        let i = trees.len() % wl.len();
        trees.push(trees[i].clone());
        ys.push(ys[i]);
    }

    let mut t = Table::new(&["Window k", "Epochs", "Simulated GPU (s)"]);
    for k in [250usize, 500, 1_000, max_k] {
        let mut model =
            TcnnModel::new(TcnnConfig::small(featurizer.input_dim()), TrainConfig::default());
        model.fit(&trees[..k], &ys[..k], seed);
        let epochs = model.last_epochs();
        t.row(vec![
            format!("{k}"),
            format!("{epochs}"),
            format!("{:.1}", gpu_train_time(k, epochs).as_secs()),
        ]);
    }
    t.print();
    println!();
    println!("Training time grows with the window; the paper tunes k to trade model");
    println!("quality against GPU budget (k = 2000 worked well for its workloads).");
}

/// Figure 16: regret distributions when Bao is trained against different
/// performance metrics — CPU time (a) and physical I/O (b) — over
/// iterations of 50 queries each, cold cache, with the optimal hint set
/// computed by exhaustively executing every arm.
///
/// Paper shape: from the first post-training iteration, Bao's median and
/// p98 regret fall well below the PostgreSQL optimizer's, and a
/// CPU-trained Bao wins on CPU regret while an I/O-trained Bao wins on
/// I/O regret (customizable optimization goals).
pub fn figure16(args: &Args) {
    let scale = args.scale(0.12);
    let iterations = args.usize("iterations", 8);
    let per_iter = args.usize("per-iter", 50);
    let seed = args.seed();

    print_header(
        "Figure 16: regret vs the optimal hint set (cold cache, exhaustive oracle)",
        &format!(
            "(scale {scale}, {iterations} iterations x {per_iter} queries; \
             paper: 25 x 50 — reduce/grow with --iterations/--per-iter)"
        ),
    );

    let n = iterations * per_iter;
    let (db, wl) = imdb(scale, n, seed);
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    // Cold cache: no cache signal to featurize.
    let settings = BaoSettings { retrain: per_iter, cache_features: false, ..bao_settings(6, n) };

    for (metric, unit, panel) in [
        (PerfMetric::CpuTime, "ms CPU", "(a) CPU time regret (Bao trained on CPU time)"),
        (PerfMetric::PhysicalIo, "page reads", "(b) physical I/O regret (Bao trained on I/O)"),
    ] {
        println!("\n--- {panel}");
        let mut bao = settings.build(seed);
        let pool_template = BufferPool::new(N1_16.buffer_pool_pages());

        let mut t = Table::new(&[
            "Iteration",
            &format!("PG median ({unit})"),
            "PG p98",
            "Bao median",
            "Bao p98",
        ]);
        for it in 0..iterations {
            let mut pg_regret = Vec::with_capacity(per_iter);
            let mut bao_regret = Vec::with_capacity(per_iter);
            for step in &wl.steps[it * per_iter..(it + 1) * per_iter] {
                let perfs = exhaustive_arm_perfs(
                    &opt,
                    &step.query,
                    &db,
                    &cat,
                    &settings.arms,
                    &pool_template,
                    metric,
                    true,
                )
                .unwrap();
                pg_regret.push(regret_of(perfs[0], &perfs));
                let sel = bao.select_plan(&opt, &step.query, &db, &cat, None).unwrap();
                bao_regret.push(regret_of(perfs[sel.arm], &perfs));
                // Cold-cache execution feeds the experience.
                let mut pool = BufferPool::new(pool_template.capacity());
                let m =
                    execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
                bao.observe(sel.tree, m.perf(metric));
            }
            t.row(vec![
                format!("{}", it + 1),
                format!("{:.1}", median(&pg_regret)),
                format!("{:.1}", percentile(&pg_regret, 98.0)),
                format!("{:.1}", median(&bao_regret)),
                format!("{:.1}", percentile(&bao_regret, 98.0)),
            ]);
        }
        t.print();
    }
    println!();
    println!("Iteration 1 is pre-training (Bao = PostgreSQL); from iteration 2 on,");
    println!("Bao's tail regret drops below the traditional optimizer's.");
}

/// Spearman rank correlation.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap());
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = xs.len() as f64;
    let mx = rx.iter().sum::<f64>() / n;
    let my = ry.iter().sum::<f64>() / n;
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = rx.iter().map(|a| (a - mx) * (a - mx)).sum();
    let vy: f64 = ry.iter().map(|b| (b - my) * (b - my)).sum();
    cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
}

/// Future-work probe (paper §7): "investigate if Bao's predictive model
/// can be used as a cost model in a traditional database optimizer."
///
/// Measures how well (a) the traditional cost model's estimates and
/// (b) a trained TCNN's predictions *rank* plans by true latency, over
/// plans drawn from all hint sets — the property a cost model needs.
pub fn future_learned_cost(args: &Args) {
    let scale = args.scale(0.1);
    let n = args.queries(200);
    let seed = args.seed();

    print_header(
        "Future work (§7): the TCNN as a general cost model",
        &format!("(IMDb scale {scale}, {n} training + 60 held-out plan executions, cold cache)"),
    );

    let (db, wl) = imdb(scale, n + 20, seed);
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    let featurizer = Featurizer::new(false);
    let arms = HintSet::top_arms(6);

    // Training set: every arm's plan for the first n queries, executed
    // cold (off-policy data a deployment would log).
    let mut trees: Vec<FeatTree> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for step in wl.steps.iter().take(n) {
        let arm = arms[step.query.tables.len() % arms.len()];
        let plan = opt.plan(&step.query, &db, &cat, arm).unwrap();
        let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
        let m = execute(&plan.root, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
        trees.push(featurizer.featurize(&plan.root, &step.query, &db, None));
        ys.push(m.latency.as_ms());
    }
    let mut model =
        TcnnModel::new(TcnnConfig::small(featurizer.input_dim()), TrainConfig::default());
    model.fit(&trees, &ys, seed);

    // Held-out evaluation: all arms of 20 unseen queries.
    let mut true_ms = Vec::new();
    let mut planner_cost = Vec::new();
    let mut tcnn_pred = Vec::new();
    for step in wl.steps.iter().skip(n).take(20) {
        for &arm in &arms {
            let plan = opt.plan(&step.query, &db, &cat, arm).unwrap();
            if plan.root.est_cost >= opt.params.disable_cost {
                continue; // hint not satisfiable; planner cost is bookkeeping
            }
            let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
            let m = execute(&plan.root, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
            true_ms.push(m.latency.as_ms());
            planner_cost.push(plan.root.est_cost);
            let tree = featurizer.featurize(&plan.root, &step.query, &db, None);
            tcnn_pred.push(model.predict(&tree).unwrap());
        }
    }

    let mut t = Table::new(&["Cost model", "Spearman rank corr. with true latency"]);
    t.row(vec![
        "traditional cost model".into(),
        format!("{:.3}", spearman(&planner_cost, &true_ms)),
    ]);
    t.row(vec!["trained TCNN".into(), format!("{:.3}", spearman(&tcnn_pred, &true_ms))]);
    t.print();
    println!();
    println!(
        "In this simulator true latency is itself cost-formula-shaped, so the\n\
         traditional model ranks very well when its cardinalities are right;\n\
         the TCNN, trained only on {} logged executions, already ranks\n\
         held-out plans strongly — the premise of the paper's future work.\n\
         ({} held-out plan executions scored.)",
        n,
        true_ms.len()
    );
}
