//! Differential testing: the optimizer + cost-accurate executor versus a
//! brute-force reference interpreter, on randomized schemas, data, and
//! queries.
//!
//! The reference evaluates the *logical* query directly (nested loops over
//! all rows, no plans, no indexes, no optimizer) — if the engine and the
//! reference ever disagree, one of parser/planner/executor is wrong.

use bao_common::{rng_from_seed, split_seed, Rng, Xoshiro256};
use bao_exec::{execute, ChargeRates};
use bao_opt::{HintSet, Optimizer};
use bao_plan::{AggFunc, CmpOp, ColRef, JoinPred, Predicate, Query, SelectItem, TableRef};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, ColumnDef, DataType, Database, Schema, Table, Value};

/// Build a random 3-table database (parent + two children) from a seed.
fn random_db(seed: u64, rows: usize) -> Database {
    let mut rng = rng_from_seed(seed);
    let parents = (rows / 4).max(4);
    let mut p = Table::new(
        "p",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ]),
    );
    for i in 0..parents {
        p.insert(vec![
            Value::Int(i as i64),
            Value::Int(rng.gen_range(0..10)),
            Value::Int(rng.gen_range(-50..50)),
        ])
        .unwrap();
    }
    let mut c1 = Table::new(
        "c1",
        Schema::new(vec![ColumnDef::new("pid", DataType::Int), ColumnDef::new("x", DataType::Int)]),
    );
    let mut c2 = Table::new(
        "c2",
        Schema::new(vec![ColumnDef::new("pid", DataType::Int), ColumnDef::new("y", DataType::Int)]),
    );
    for _ in 0..rows {
        // occasional dangling keys exercise non-matching joins
        c1.insert(vec![
            Value::Int(rng.gen_range(0..(parents as i64 + 3))),
            Value::Int(rng.gen_range(0..7)),
        ])
        .unwrap();
        c2.insert(vec![
            Value::Int(rng.gen_range(0..(parents as i64 + 3))),
            Value::Int(rng.gen_range(0..100)),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.create_table(p).unwrap();
    db.create_table(c1).unwrap();
    db.create_table(c2).unwrap();
    db.create_index("p", "id").unwrap();
    db.create_index("p", "a").unwrap();
    db.create_index("c1", "pid").unwrap();
    db.create_index("c2", "pid").unwrap();
    db
}

/// A random query over the fixed star schema: p [⋈ c1 [⋈ c2]] with random
/// predicates and a random aggregate.
fn random_query(seed: u64) -> Query {
    let mut rng = rng_from_seed(seed);
    let n_tables = rng.gen_range(1..=3usize);
    let mut q = Query { tables: vec![TableRef::new("p")], select: vec![], ..Default::default() };
    if n_tables >= 2 {
        q.tables.push(TableRef::new("c1"));
        q.joins.push(JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "pid")));
    }
    if n_tables >= 3 {
        q.tables.push(TableRef::new("c2"));
        q.joins.push(JoinPred::new(ColRef::new(0, "id"), ColRef::new(2, "pid")));
        // Sometimes close the triangle (cyclic join graph): the extra
        // edge becomes a post-join Filter in physical plans.
        if rng.gen_bool(0.4) {
            q.joins.push(JoinPred::new(ColRef::new(1, "pid"), ColRef::new(2, "pid")));
        }
    }
    let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne];
    let add_pred = |q: &mut Query, t: usize, col: &str, lo: i64, hi: i64, rng: &mut Xoshiro256| {
        q.predicates.push(Predicate::new(
            ColRef::new(t, col),
            ops[rng.gen_range(0..ops.len())],
            Value::Int(rng.gen_range(lo..hi)),
        ));
    };
    for _ in 0..rng.gen_range(0..3) {
        match rng.gen_range(0..3) {
            0 => add_pred(&mut q, 0, "a", 0, 10, &mut rng),
            1 => add_pred(&mut q, 0, "b", -50, 50, &mut rng),
            _ => {
                if n_tables >= 2 {
                    add_pred(&mut q, 1, "x", 0, 7, &mut rng)
                } else {
                    add_pred(&mut q, 0, "a", 0, 10, &mut rng)
                }
            }
        }
    }
    q.select = match rng.gen_range(0..4) {
        0 => vec![SelectItem::Agg(AggFunc::CountStar)],
        1 => vec![
            SelectItem::Agg(AggFunc::CountStar),
            SelectItem::Agg(AggFunc::Sum(ColRef::new(0, "b"))),
        ],
        2 => vec![
            SelectItem::Agg(AggFunc::Min(ColRef::new(0, "b"))),
            SelectItem::Agg(AggFunc::Max(ColRef::new(0, "b"))),
        ],
        _ => vec![SelectItem::Column(ColRef::new(0, "a")), SelectItem::Agg(AggFunc::CountStar)],
    };
    if matches!(q.select[0], SelectItem::Column(_)) {
        q.group_by = vec![ColRef::new(0, "a")];
    }
    q
}

/// Brute-force evaluation of the logical query.
fn reference_eval(db: &Database, q: &Query) -> Vec<Vec<Value>> {
    let tables: Vec<&Table> =
        q.tables.iter().map(|t| &db.by_name(&t.table).unwrap().table).collect();
    // enumerate the full cross product (tiny tables), filter by joins+preds
    let mut rows: Vec<Vec<u32>> = vec![vec![]];
    for t in &tables {
        let mut next = Vec::new();
        for r in &rows {
            for i in 0..t.row_count() as u32 {
                let mut nr = r.clone();
                nr.push(i);
                next.push(nr);
            }
        }
        rows = next;
    }
    let key = |c: &ColRef, row: &[u32]| {
        tables[c.table].column(&c.column).unwrap().key_at(row[c.table] as usize).unwrap()
    };
    rows.retain(|row| {
        q.joins.iter().all(|j| key(&j.left, row) == key(&j.right, row))
            && q.predicates.iter().all(|p| {
                let v = key(&p.col, row);
                let x = p.value.as_int().unwrap();
                p.op.matches(v.cmp(&x))
            })
    });

    // aggregate per group
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<Vec<i64>, Vec<&Vec<u32>>> = BTreeMap::new();
    for row in &rows {
        let k: Vec<i64> = q.group_by.iter().map(|g| key(g, row)).collect();
        groups.entry(k).or_default().push(row);
    }
    if groups.is_empty() && q.group_by.is_empty() {
        groups.insert(vec![], vec![]);
    }
    let mut out = Vec::new();
    for (gk, members) in groups {
        let mut r = Vec::new();
        let mut gi = 0;
        for item in &q.select {
            match item {
                SelectItem::Column(_) => {
                    r.push(Value::Int(gk[gi]));
                    gi += 1;
                }
                SelectItem::Agg(a) => {
                    let vals: Vec<f64> = members
                        .iter()
                        .map(|row| match a.input() {
                            Some(c) => key(c, row) as f64,
                            None => 1.0,
                        })
                        .collect();
                    r.push(match a {
                        AggFunc::CountStar | AggFunc::Count(_) => Value::Int(vals.len() as i64),
                        AggFunc::Sum(_) => Value::Float(vals.iter().sum()),
                        AggFunc::Min(_) => {
                            Value::Float(vals.iter().cloned().fold(f64::INFINITY, f64::min))
                        }
                        AggFunc::Max(_) => {
                            Value::Float(vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
                        }
                        AggFunc::Avg(_) => {
                            Value::Float(vals.iter().sum::<f64>() / vals.len() as f64)
                        }
                    });
                }
            }
        }
        // empty-group MIN/MAX/SUM convention: engine reports 0.0
        if members.is_empty() {
            for v in r.iter_mut() {
                if let Value::Float(f) = v {
                    if !f.is_finite() {
                        *v = Value::Float(0.0);
                    }
                }
            }
        }
        out.push(r);
    }
    out
}

fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|r| {
            let norm: Vec<Value> = r
                .iter()
                .map(|v| match v {
                    // -0.0 == 0.0 but formats differently
                    Value::Float(f) if *f == 0.0 => Value::Float(0.0),
                    other => other.clone(),
                })
                .collect();
            format!("{norm:?}")
        })
        .collect();
    v.sort();
    v
}

/// Seeded replacement for the former property-based harness: 32 randomized
/// cases per run, each fully determined by `MASTER_SEED` so any failure is
/// reproducible from the seed printed in the panic message.
#[test]
fn engine_matches_reference_interpreter() {
    const MASTER_SEED: u64 = 0xB40_CA5E;
    const CASES: u64 = 32;
    for case in 0..CASES {
        let mut gen = rng_from_seed(split_seed(MASTER_SEED, case));
        let db_seed = gen.gen_range(0u64..500);
        let q_seed = gen.gen_range(0u64..10_000);
        let join_mask = gen.gen_range(1u8..8);
        let scan_mask = gen.gen_range(1u8..8);

        let db = random_db(db_seed, 60);
        let cat = StatsCatalog::analyze(&db, 100, db_seed);
        let q = random_query(q_seed);
        let expected = reference_eval(&db, &q);

        let opt = Optimizer::postgres();
        let hints = HintSet::from_masks(join_mask, scan_mask);
        let plan = opt.plan(&q, &db, &cat, hints).unwrap();
        let mut pool = BufferPool::new(64);
        let m =
            execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
        assert_eq!(
            canon(&m.output),
            canon(&expected),
            "case {case} (db_seed={db_seed}, q_seed={q_seed}): query {q} under {hints} \
             disagreed with reference"
        );
    }
}
