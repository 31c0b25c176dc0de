//! The datasets and what hint sets do to them: Table 1, Figures 1 and
//! 12, and §6.3's "which hints matter".

use super::{imdb, run_cfg};
use bao_bench::{bao_settings, build_workload, print_header, Args, Table, WorkloadName};
use bao_cloud::{N1_16, N1_4};
use bao_common::rng_from_seed;
use bao_exec::{execute, ChargeRates};
use bao_harness::{plan_change_stats, RunConfig, Strategy};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::imdb::{build_imdb_database, instantiate_template};

/// Table 1: evaluation dataset sizes, query counts, and whether the
/// workload (WL), data, and schema are static or dynamic.
pub fn table1(args: &Args) {
    let scale = args.scale(0.2);
    let n = args.queries(200);
    let seed = args.seed();

    print_header(
        "Table 1: evaluation datasets",
        &format!("(scale {scale}, {n} queries per workload, seed {seed})"),
    );
    let mut t = Table::new(&["Dataset", "Size", "Queries", "WL", "Data", "Schema"]);
    for name in WorkloadName::ALL {
        let (db, wl) = build_workload(name, scale, n, seed).expect("build workload");
        let mb = db.total_size_bytes() as f64 / (1024.0 * 1024.0);
        let (wl_dyn, data_dyn, schema_dyn) = match name {
            WorkloadName::Imdb => ("Dynamic", "Static", "Static"),
            WorkloadName::Stack => ("Dynamic", "Dynamic", "Static"),
            WorkloadName::Corp => ("Dynamic", "Static", "Dynamic"),
        };
        t.row(vec![
            name.label().to_string(),
            format!("{mb:.1} MB"),
            format!("{}", wl.len()),
            wl_dyn.to_string(),
            data_dyn.to_string(),
            schema_dyn.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("Paper reports IMDb 7.2 GB / Stack 100 GB / Corp 1 TB with 5000/5000/2000");
    println!("queries; this reproduction runs the same shapes at reduced scale");
    println!("(see DESIGN.md §1). Rerun with --scale/--queries to grow the datasets.");
}

/// Figure 1: disabling loop joins improves one query (JOB 16b's
/// counterpart) and harms another (24b's counterpart).
///
/// Template 9 of the IMDb workload is the 16b analogue (correlated
/// underestimate → catastrophic nested-loop cascade by default); template
/// 10 is the 24b analogue (a single-title probe where the parameterized
/// nested loop is exactly right and forcing it off is disastrous).
pub fn figure1(args: &Args) {
    let scale = args.scale(0.2);
    let seed = args.seed();

    print_header(
        "Figure 1: effect of disabling loop join on two queries",
        &format!("(IMDb scale {scale}, cold cache; paper: 16b improves 3x, 24b regresses ~50x)"),
    );

    let db = build_imdb_database(scale, seed).expect("build imdb");
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let no_loop = HintSet::from_masks(0b011, 0b111);

    let mut table = Table::new(&["Query", "PostgreSQL plan", "No loop join", "Ratio"]);
    for (label, template) in [("16b-like (imdb/q09)", 9usize), ("24b-like (imdb/q10)", 10)] {
        let mut rng = rng_from_seed(seed + 1);
        let (_, q) = instantiate_template(template, scale, &mut rng);
        let [default, hinted] = [HintSet::all_enabled(), no_loop].map(|hints| {
            let plan = opt.plan(&q, &db, &cat, hints).expect("plan");
            let mut pool = BufferPool::new(510);
            let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &rates).expect("execute");
            m.latency.as_ms()
        });
        table.row(vec![
            label.to_string(),
            format!("{default:.1} ms"),
            format!("{hinted:.1} ms"),
            format!("{:.2}x", hinted / default),
        ]);
    }
    table.print();
    println!();
    println!("A ratio < 1 means the hint helps (16b); > 1 means it hurts (24b) —");
    println!("no single hint set is right for every query, which is Bao's premise.");
}

/// Figure 12: optimization time vs execution time as the number of arms
/// varies, with arms planned *sequentially* (paper: "all assuming that
/// the arms are planned sequentially"; subsets chosen ahead of time by
/// observed benefit, §6.3). One arm = the plain PostgreSQL optimizer.
pub fn figure12(args: &Args) {
    let scale = args.scale(0.15);
    let n = args.queries(300);
    let seed = args.seed();

    print_header(
        "Figure 12: optimization vs execution time by arm count (IMDb, N1-4, sequential planning)",
        &format!(
            "(scale {scale}, {n} queries; paper: 5 well-chosen arms already capture most benefit)"
        ),
    );

    let (db, wl) = imdb(scale, n, seed);
    let mut t = Table::new(&["Arms", "Opt time (s)", "Exec time (s)", "Total (s)"]);
    // 49 sequential arms needs a long workload to amortize exploration;
    // pass --full to include it.
    let mut arm_counts = vec![1usize, 2, 3, 5, 10, 20];
    if args.has("full") {
        arm_counts.push(49);
    }
    for arms in arm_counts {
        let strategy =
            if arms == 1 { Strategy::Traditional } else { Strategy::Bao(bao_settings(arms, n)) };
        let cfg = RunConfig { sequential_arms: true, seed, ..RunConfig::new(N1_4, strategy) };
        let res = run_cfg(&db, &wl, cfg);
        t.row(vec![
            format!("{arms}"),
            format!("{:.2}", res.total_opt.as_secs()),
            format!("{:.2}", res.total_exec.as_secs()),
            format!("{:.2}", res.workload_time().as_secs()),
        ]);
    }
    t.print();
    println!();
    println!("Optimization time grows linearly with sequential arms while execution");
    println!("time falls steeply for the first few well-chosen arms, then flattens —");
    println!("with 5 arms, total workload time is already substantially reduced.");
}

/// §6.3 analysis: which hints matter?
///
/// 1. Is one hint set good for all queries? (paper: the best single hint
///    set — disable loop join — still loses to PostgreSQL overall.)
/// 2. Which hint sets contribute most of the oracle's improvement?
///    (paper: the top 5 account for 93%.)
/// 3. How do chosen plans differ from PostgreSQL's? (paper: operator
///    changes in 4271/5000, access paths 3792/5000, join order 2110/5000.)
pub fn sec63_hints(args: &Args) {
    let scale = args.scale(0.12);
    let n = args.queries(150);
    let seed = args.seed();
    let arm_count = args.usize("arms", 49);

    print_header(
        "Section 6.3: which hint sets matter? (IMDb, exhaustive per-arm execution)",
        &format!("(scale {scale}, {n} queries, {arm_count} arms)"),
    );

    let (db, wl) = imdb(scale, n, seed);
    let arms = HintSet::top_arms(arm_count);

    // Oracle run (per-query per-arm performances + optimal plan choices)
    // and the default plans it is compared against.
    let [oracle, default] =
        [Strategy::Optimal { arms: arms.clone() }, Strategy::Traditional].map(|strategy| {
            let cfg = RunConfig { cold_cache: true, seed, ..RunConfig::new(N1_16, strategy) };
            run_cfg(&db, &wl, cfg)
        });
    let arm_perfs: Vec<&Vec<f64>> = oracle
        .records
        .iter()
        .map(|r| r.arm_perfs.as_ref().expect("oracle records have per-arm perfs"))
        .collect();

    // (1) single best hint set over the whole workload.
    let n_arms = arms.len();
    let mut arm_totals = vec![0.0f64; n_arms];
    let mut pg_total = 0.0;
    let mut optimal_total = 0.0;
    for perfs in &arm_perfs {
        for (i, &p) in perfs.iter().enumerate() {
            arm_totals[i] += p;
        }
        pg_total += perfs[0];
        optimal_total += perfs.iter().cloned().fold(f64::INFINITY, f64::min);
    }
    let best_single =
        (1..n_arms).min_by(|&a, &b| arm_totals[a].partial_cmp(&arm_totals[b]).unwrap()).unwrap();
    println!("\n(1) One hint set for every query?");
    let mut t = Table::new(&["Strategy", "Workload exec (s)"]);
    t.row(vec!["PostgreSQL optimizer".into(), format!("{:.2}", pg_total / 1e3)]);
    t.row(vec![
        format!("best single hint set [{}]", arms[best_single]),
        format!("{:.2}", arm_totals[best_single] / 1e3),
    ]);
    t.row(vec!["optimal per-query hints".into(), format!("{:.2}", optimal_total / 1e3)]);
    t.print();

    // (2) marginal contribution of each arm: greedy set cover of the
    // oracle's improvement.
    println!("\n(2) Which hint sets account for the improvement? (greedy marginal gain)");
    let total_gain = pg_total - optimal_total;
    let mut current_best: Vec<f64> = arm_perfs.iter().map(|perfs| perfs[0]).collect();
    let mut chosen: Vec<usize> = vec![];
    let mut t = Table::new(&["Rank", "Hint set", "Marginal share of total gain"]);
    for rank in 1..=5.min(n_arms - 1) {
        let mut best_arm = 0;
        let mut best_gain = 0.0;
        for a in 1..n_arms {
            if chosen.contains(&a) {
                continue;
            }
            let gain: f64 = arm_perfs
                .iter()
                .zip(&current_best)
                .map(|(perfs, &cur)| (cur - perfs[a]).max(0.0))
                .sum();
            if gain > best_gain {
                best_gain = gain;
                best_arm = a;
            }
        }
        if best_gain <= 0.0 {
            break;
        }
        for (perfs, cur) in arm_perfs.iter().zip(current_best.iter_mut()) {
            *cur = cur.min(perfs[best_arm]);
        }
        chosen.push(best_arm);
        t.row(vec![
            format!("{rank}"),
            format!("{}", arms[best_arm]),
            format!("{:.0}%", 100.0 * best_gain / total_gain.max(1e-9)),
        ]);
    }
    t.print();

    // (3) how do the optimal plans differ from PostgreSQL's?
    println!("\n(3) Plan changes induced by the chosen hints (vs PostgreSQL's plan)");
    let mut ops = 0;
    let mut paths = 0;
    let mut orders = 0;
    for (o, d) in oracle.records.iter().zip(default.records.iter()) {
        let c = plan_change_stats(&d.plan, &o.plan);
        ops += c.operators_changed as usize;
        paths += c.access_paths_changed as usize;
        orders += c.join_order_changed as usize;
    }
    let mut t = Table::new(&["Change", "Queries affected"]);
    t.row(vec!["different operators".into(), format!("{ops}/{n}")]);
    t.row(vec!["different access paths".into(), format!("{paths}/{n}")]);
    t.row(vec!["different join order".into(), format!("{orders}/{n}")]);
    t.print();
}
