//! Absolute pins on the planner's output for the whole arm family.
//!
//! `pipeline_golden` pins what the harness does with the plans Bao
//! selects; this pins every plan the optimizer can hand it: for each
//! query below, all 49 hint sets under both optimizer profiles, `work`
//! and every node's operator, `est_rows` and `est_cost` bit for bit —
//! including the `disable_cost` penalties a raw plan carries when a hint
//! cannot be honoured. A change to enumeration order, tie-breaking or
//! floating-point association order in `crates/optimizer` fails here.
//!
//! A digest moves only when behaviour moves. When that is intended,
//! re-pin from the assertion message and say why in CHANGES.md.

use bao_common::rng_from_seed;
use bao_opt::{HintSet, Optimizer};
use bao_plan::{ColRef, JoinPred, OpKind, Operator, Query};
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::{ColumnDef, DataType, Database, Schema, Table, Value};
use bao_wal::fnv64;
use bao_workloads::imdb::{build_imdb_database, instantiate_template, N_TEMPLATES};
use bao_workloads::{apply_event, build_corp, build_stack, CorpConfig, StackConfig, Workload};
use std::collections::BTreeSet;
use std::fmt::Write;

const SCALE: f64 = 0.05;
const SEED: u64 = 23;

/// Append every arm's plan for `q` to `buf`, in family order.
fn describe(buf: &mut String, opt: &Optimizer, q: &Query, db: &Database, cat: &StatsCatalog) {
    for hints in HintSet::family_49() {
        let out = opt.plan(q, db, cat, hints).unwrap();
        write!(buf, "[{hints}] work={}", out.work).unwrap();
        for n in out.root.iter() {
            write!(
                buf,
                " {:?}/{}/{:016x}/{:016x}",
                n.op,
                n.children.len(),
                n.est_rows.to_bits(),
                n.est_cost.to_bits()
            )
            .unwrap();
        }
        buf.push('\n');
    }
}

/// Digest of every arm's plan for every query, per profile
/// (`[postgres, comsys]`).
fn digests<'q>(
    queries: impl IntoIterator<Item = &'q Query> + Clone,
    db: &Database,
    cat: &StatsCatalog,
) -> [u64; 2] {
    [Optimizer::postgres(), Optimizer::comsys()].map(|opt| {
        let mut buf = String::new();
        for q in queries.clone() {
            describe(&mut buf, &opt, q, db, cat);
        }
        fnv64(buf.as_bytes())
    })
}

/// Digest a workload stream, applying its events (and re-ANALYZE) as the
/// harness would; `templates` is how many distinct labels it must reach.
fn stream_digests(mut db: Database, wl: &Workload, templates: usize) -> [u64; 2] {
    let labels: BTreeSet<&str> = wl.steps.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels.len(), templates, "{}: stream misses a template: {labels:?}", wl.name);
    let mut cat = StatsCatalog::analyze(&db, 500, SEED);
    let opts = [Optimizer::postgres(), Optimizer::comsys()];
    let mut bufs = [String::new(), String::new()];
    for step in &wl.steps {
        if let Some(event) = &step.event {
            apply_event(&mut db, event, SEED).unwrap();
            cat = StatsCatalog::analyze(&db, 500, SEED);
        }
        for (opt, buf) in opts.iter().zip(&mut bufs) {
            describe(buf, opt, &step.query, &db, &cat);
        }
    }
    bufs.map(|b| fnv64(b.as_bytes()))
}

fn assert_pins(what: &str, got: [u64; 2], want: [u64; 2]) {
    assert_eq!(
        got, want,
        "{what}: digests [{:#018x}, {:#018x}], pinned [{:#018x}, {:#018x}]",
        got[0], got[1], want[0], want[1]
    );
}

#[test]
fn imdb_templates_match_pinned_digests() {
    let db = build_imdb_database(SCALE, SEED).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, SEED);
    let mut rng = rng_from_seed(SEED);
    // Two instances per template: parameters move selectivities, and with
    // them which scan and join each arm settles on.
    let queries: Vec<Query> = (0..2 * N_TEMPLATES)
        .map(|i| instantiate_template(i % N_TEMPLATES, SCALE, &mut rng).1)
        .collect();
    assert_pins("imdb", digests(&queries, &db, &cat), [0xff9c00c1e7a2484f, 0x08755bf889a44503]);
}

#[test]
fn stack_templates_match_pinned_digests() {
    let cfg =
        StackConfig { scale: SCALE, n_queries: 48, initial_months: 2, total_months: 4, seed: SEED };
    let (db, wl) = build_stack(&cfg).unwrap();
    assert_eq!(wl.n_events(), 2);
    assert_pins("stack", stream_digests(db, &wl, 9), [0xc0204c4b48935c94, 0x0df40f7b303530b0]);
}

#[test]
fn corp_templates_match_pinned_digests() {
    let (db, wl) = build_corp(&CorpConfig { scale: SCALE, n_queries: 48, seed: SEED }).unwrap();
    // Five wide-schema templates before the normalization, five after.
    assert_pins("corp", stream_digests(db, &wl, 10), [0x757b4b16b71215fe, 0x88270fb00e61b5b5]);
}

/// `n` rows of `(id, v)`; `id` indexed on request.
fn small_table(name: &str, n: i64, index_id: bool) -> (Database, StatsCatalog) {
    let mut t = Table::new(
        name,
        Schema::new(vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("v", DataType::Int)]),
    );
    for i in 0..n {
        t.insert(vec![Value::Int(i), Value::Int(i % 97)]).unwrap();
    }
    let mut db = Database::new();
    db.create_table(t).unwrap();
    if index_id {
        db.create_index(name, "id").unwrap();
    }
    let cat = StatsCatalog::analyze(&db, 500, SEED);
    (db, cat)
}

#[test]
fn cyclic_join_graph_matches_pinned_digests() {
    let (db, cat) = small_table("t", 5_000, true);
    let mut q = parse_query(
        "SELECT COUNT(*) FROM t a, t b, t c WHERE a.id = b.id AND b.id = c.id AND a.v < 40",
    )
    .unwrap();
    // Close the triangle: whichever pair joins last is connected to the
    // third relation by two predicates, and the second becomes a Filter.
    q.joins.push(JoinPred::new(ColRef::new(0, "id"), ColRef::new(2, "id")));
    let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    assert!(out.root.iter().any(|n| n.op.kind() == OpKind::Filter), "{}", out.root);
    assert_pins("cyclic", digests([&q], &db, &cat), [0x34f34cd808d02875, 0x3f995a97966eb6a2]);
}

#[test]
fn ten_relation_chain_matches_pinned_digests() {
    let (db, cat) = small_table("t", 5_000, true);
    // Past DP_THRESHOLD: the greedy enumerator.
    let from = (0..10).map(|i| format!("t t{i}")).collect::<Vec<_>>().join(", ");
    let conds =
        (1..10).map(|i| format!("t{}.id = t{i}.id", i - 1)).collect::<Vec<_>>().join(" AND ");
    let q =
        parse_query(&format!("SELECT COUNT(*) FROM {from} WHERE {conds} AND t3.v = 5")).unwrap();
    let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    assert_eq!(out.root.tables_covered().len(), 10);
    assert_pins("chain", digests([&q], &db, &cat), [0x047b7f41c7f10c67, 0x65200dd9fc5eb95d]);
}

#[test]
fn unindexed_table_under_seq_disabled_arms_matches_pinned_digests() {
    let (db, cat) = small_table("t", 2_000, false);
    // No index: arms that disable sequential scans still get one, and its
    // disable_cost is carried through the join, aggregate and sort.
    let q = parse_query(
        "SELECT a.v, COUNT(*) FROM t a, t b WHERE a.id = b.id AND a.v > 50 \
         GROUP BY a.v ORDER BY a.v",
    )
    .unwrap();
    let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::from_masks(0b111, 0b110)).unwrap();
    assert!(out.root.est_cost >= 2.0e10, "both seq scans penalised: {}", out.root);
    assert_pins("unindexed", digests([&q], &db, &cat), [0x6d2a08b855adf751, 0x60441fe36ae1391d]);
}

#[test]
fn covering_index_only_matches_pinned_digests() {
    let (db, cat) = small_table("t", 20_000, true);
    let single = parse_query("SELECT COUNT(id) FROM t WHERE id < 300").unwrap();
    // b contributes nothing but its join key: a covering parameterized
    // index-only inner.
    let joined =
        parse_query("SELECT COUNT(*) FROM t a, t b WHERE a.id = b.id AND a.v = 3 AND a.id < 2000")
            .unwrap();
    let index_only = |q: &Query, param: bool| {
        let out = Optimizer::postgres().plan(q, &db, &cat, HintSet::all_enabled()).unwrap();
        out.root.iter().any(
            |n| matches!(&n.op, Operator::IndexOnlyScan { param: p, .. } if p.is_some() == param),
        )
    };
    assert!(index_only(&single, false) && index_only(&joined, true));
    let got = digests([&single, &joined], &db, &cat);
    assert_pins("covering", got, [0xc15b8e9f810ab228, 0xfc75194795a6fb13]);
}
