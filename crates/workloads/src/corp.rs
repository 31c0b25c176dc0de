//! Corp-like dataset: a dashboard star schema with a mid-workload
//! **schema change** — "half way through the month, the corporation
//! normalized a large fact table ... queries after the 1000th expect the
//! new normalized schema. The data remains static." (paper §6.1.)

use crate::{join, pred, Event, Workload, WorkloadStep};
use bao_common::{rng_from_seed, split_seed, Result};
use bao_plan::{AggFunc, CmpOp, ColRef, Query, SelectItem, TableRef};
use bao_storage::{ColumnDef, Database, DataType, Schema, Table, Value};
use bao_common::{Rng, Xoshiro256};

/// Corp workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct CorpConfig {
    /// 1.0 ≈ 80k fact rows, 5k accounts, 200 product dims.
    pub scale: f64,
    pub n_queries: usize,
    pub seed: u64,
}

impl Default for CorpConfig {
    fn default() -> Self {
        CorpConfig { scale: 1.0, n_queries: 400, seed: 44 }
    }
}

const N_REGIONS: i64 = 8;
const N_CATEGORIES: i64 = 25;
const N_QUARTERS: i64 = 8;

fn n_fact(scale: f64) -> i64 {
    (80_000.0 * scale).max(2_000.0) as i64
}

fn n_dims(scale: f64) -> i64 {
    (200.0 * scale).max(40.0) as i64
}

fn n_accounts(scale: f64) -> i64 {
    (5_000.0 * scale).max(100.0) as i64
}

/// Build the pre-normalization database: a wide fact table (region and
/// category denormalized onto every row) plus accounts.
pub fn build_corp_database(scale: f64, seed: u64) -> Result<Database> {
    let mut rng = rng_from_seed(split_seed(seed, 0));
    let dims = n_dims(scale);
    let accounts_n = n_accounts(scale);

    // Dimension attributes live implicitly in the wide fact: dim_key k
    // always maps to one (region, category) pair, and categories cluster
    // within regions (correlation the independence assumption misses).
    let dim_region: Vec<i64> = (0..dims).map(|k| k % N_REGIONS).collect();
    let dim_category: Vec<i64> = (0..dims)
        .map(|k| ((k % N_REGIONS) * 3 + (k / N_REGIONS) % 5) % N_CATEGORIES)
        .collect();

    // Facts are id-clustered by quarter (low ids = quarter 0), and
    // `ship_quarter` is redundant with `quarter` — the independence
    // assumption underestimates quarter-pair conjunctions 8x. Detail rows
    // (below) Zipf-concentrate on low fact ids, so early-quarter filters
    // select exactly the facts with the most detail partners.
    let facts_n = n_fact(scale);
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("account_id", DataType::Int),
            ColumnDef::new("dim_key", DataType::Int),
            ColumnDef::new("region", DataType::Int),
            ColumnDef::new("category", DataType::Int),
            ColumnDef::new("quarter", DataType::Int),
            ColumnDef::new("ship_quarter", DataType::Int),
            ColumnDef::new("amount", DataType::Int),
        ]),
    );
    for i in 0..facts_n {
        let u: f64 = rng.gen_f64();
        let k = ((u * u) * dims as f64) as i64; // skewed product mix
        let quarter = (i * N_QUARTERS / facts_n.max(1)).min(N_QUARTERS - 1);
        let ship = if rng.gen_bool(0.9) { quarter } else { (quarter + 1) % N_QUARTERS };
        fact.insert(vec![
            Value::Int(i),
            Value::Int(rng.gen_range(0..accounts_n)),
            Value::Int(k),
            Value::Int(dim_region[k as usize]),
            Value::Int(dim_category[k as usize]),
            Value::Int(quarter),
            Value::Int(ship),
            Value::Int(rng.gen_range(1..=10_000)),
        ])?;
    }

    // Order-line-style child table, Zipf-skewed toward low fact ids.
    let mut fact_detail = Table::new(
        "fact_detail",
        Schema::new(vec![
            ColumnDef::new("fact_id", DataType::Int),
            ColumnDef::new("qty", DataType::Int),
            ColumnDef::new("kind", DataType::Int),
        ]),
    );
    for _ in 0..(facts_n * 3) {
        let u: f64 = rng.gen_f64();
        fact_detail.insert(vec![
            Value::Int(((u * u) * facts_n as f64) as i64),
            Value::Int(rng.gen_range(1..=100)),
            Value::Int(rng.gen_range(1..=9)),
        ])?;
    }

    let mut accounts = Table::new(
        "accounts",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("segment", DataType::Int),
        ]),
    );
    for i in 0..accounts_n {
        accounts.insert(vec![Value::Int(i), Value::Int(rng.gen_range(1..=6))])?;
    }

    let mut db = Database::new();
    db.create_table(fact)?;
    db.create_table(fact_detail)?;
    db.create_table(accounts)?;
    for (t, c) in [
        ("fact", "id"),
        ("fact", "account_id"),
        ("fact", "dim_key"),
        ("fact", "region"),
        ("fact", "quarter"),
        ("fact_detail", "fact_id"),
        ("accounts", "id"),
    ] {
        db.create_index(t, c)?;
    }
    Ok(db)
}

/// Apply the schema change: materialize `dim` and `fact_n` from the wide
/// `fact`, then drop it. Same data, normalized shape.
pub fn normalize_fact_table(db: &mut Database) -> Result<()> {
    let fact = &db.by_name("fact")?.table;
    let n = fact.row_count();
    let col = |name: &str| fact.column(name).cloned();
    let (ids, accs, keys, regions, cats, quarters, ships, amounts) = (
        col("id")?,
        col("account_id")?,
        col("dim_key")?,
        col("region")?,
        col("category")?,
        col("quarter")?,
        col("ship_quarter")?,
        col("amount")?,
    );

    let mut dim = Table::new(
        "dim",
        Schema::new(vec![
            ColumnDef::new("dim_key", DataType::Int),
            ColumnDef::new("region", DataType::Int),
            ColumnDef::new("category", DataType::Int),
        ]),
    );
    let mut seen = std::collections::BTreeMap::new();
    for r in 0..n {
        seen.entry(keys.key_at(r).unwrap())
            .or_insert((regions.key_at(r).unwrap(), cats.key_at(r).unwrap()));
    }
    for (k, (reg, cat)) in seen {
        dim.insert(vec![Value::Int(k), Value::Int(reg), Value::Int(cat)])?;
    }

    let mut fact_n = Table::new(
        "fact_n",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("account_id", DataType::Int),
            ColumnDef::new("dim_key", DataType::Int),
            ColumnDef::new("quarter", DataType::Int),
            ColumnDef::new("ship_quarter", DataType::Int),
            ColumnDef::new("amount", DataType::Int),
        ]),
    );
    for r in 0..n {
        fact_n.insert(vec![
            Value::Int(ids.key_at(r).unwrap()),
            Value::Int(accs.key_at(r).unwrap()),
            Value::Int(keys.key_at(r).unwrap()),
            Value::Int(quarters.key_at(r).unwrap()),
            Value::Int(ships.key_at(r).unwrap()),
            Value::Int(amounts.key_at(r).unwrap()),
        ])?;
    }

    db.drop_table("fact")?;
    db.create_table(dim)?;
    db.create_table(fact_n)?;
    for (t, c) in [
        ("dim", "dim_key"),
        ("dim", "region"),
        ("fact_n", "id"),
        ("fact_n", "account_id"),
        ("fact_n", "dim_key"),
        ("fact_n", "quarter"),
    ] {
        db.create_index(t, c)?;
    }
    Ok(())
}

/// Number of dashboard templates per era (weighted sampling in
/// `build_corp` draws trap templates more often).
pub const N_TEMPLATES: usize = 5;

/// Dashboard query against the *wide* schema.
fn instantiate_pre(t: usize, rng: &mut Xoshiro256) -> (String, Query) {
    let label = format!("corp/wide{t}");
    let q = match t {
        0 => Query {
            tables: vec![TableRef::aliased("fact", "f")],
            select: vec![SelectItem::Agg(AggFunc::Sum(ColRef::new(0, "amount")))],
            predicates: vec![
                pred(0, "region", CmpOp::Eq, rng.gen_range(0..N_REGIONS)),
                pred(0, "quarter", CmpOp::Eq, rng.gen_range(0..N_QUARTERS)),
            ],
            ..Default::default()
        },
        1 => Query {
            tables: vec![TableRef::aliased("fact", "f"), TableRef::aliased("accounts", "a")],
            select: vec![SelectItem::Agg(AggFunc::CountStar)],
            predicates: vec![
                pred(1, "segment", CmpOp::Eq, rng.gen_range(1..=6)),
                pred(0, "category", CmpOp::Eq, rng.gen_range(0..N_CATEGORIES)),
            ],
            joins: vec![join((0, "account_id"), (1, "id"))],
            ..Default::default()
        },
        // The trap template: `quarter = ship_quarter = Q` is redundant
        // (underestimated 8x) and early quarters hold the detail-heavy
        // low-id facts, so the parameterized nested loop into fact_detail
        // the default optimizer picks is far slower than a hash join.
        2 => {
            let q = rng.gen_range(0..2);
            Query {
                tables: vec![
                    TableRef::aliased("fact", "f"),
                    TableRef::aliased("fact_detail", "fd"),
                ],
                select: vec![SelectItem::Agg(AggFunc::CountStar)],
                predicates: vec![
                    pred(0, "quarter", CmpOp::Eq, q),
                    pred(0, "ship_quarter", CmpOp::Eq, q),
                    pred(0, "region", CmpOp::Eq, rng.gen_range(0..N_REGIONS)),
                    pred(1, "qty", CmpOp::Ge, rng.gen_range(5..=40)),
                ],
                joins: vec![join((0, "id"), (1, "fact_id"))],
                ..Default::default()
            }
        }
        3 => Query {
            tables: vec![TableRef::aliased("fact", "f")],
            select: vec![
                SelectItem::Column(ColRef::new(0, "quarter")),
                SelectItem::Agg(AggFunc::Avg(ColRef::new(0, "amount"))),
            ],
            predicates: vec![pred(0, "region", CmpOp::Eq, rng.gen_range(0..N_REGIONS))],
            group_by: vec![ColRef::new(0, "quarter")],
            ..Default::default()
        },
        // Ultra-popular probe: the lowest fact ids carry most detail rows.
        _ => Query {
            tables: vec![
                TableRef::aliased("fact", "f"),
                TableRef::aliased("fact_detail", "fd"),
            ],
            select: vec![SelectItem::Agg(AggFunc::CountStar)],
            predicates: vec![
                pred(0, "id", CmpOp::Le, rng.gen_range(10..=40)),
                pred(1, "qty", CmpOp::Ge, rng.gen_range(5..=30)),
            ],
            joins: vec![join((0, "id"), (1, "fact_id"))],
            ..Default::default()
        },
    };
    (label, q)
}

/// The same dashboards against the *normalized* schema.
fn instantiate_post(t: usize, rng: &mut Xoshiro256) -> (String, Query) {
    let label = format!("corp/norm{t}");
    let q = match t {
        0 => Query {
            tables: vec![TableRef::aliased("fact_n", "f"), TableRef::aliased("dim", "d")],
            select: vec![SelectItem::Agg(AggFunc::Sum(ColRef::new(0, "amount")))],
            predicates: vec![
                pred(1, "region", CmpOp::Eq, rng.gen_range(0..N_REGIONS)),
                pred(0, "quarter", CmpOp::Eq, rng.gen_range(0..N_QUARTERS)),
            ],
            joins: vec![join((0, "dim_key"), (1, "dim_key"))],
            ..Default::default()
        },
        1 => Query {
            tables: vec![
                TableRef::aliased("fact_n", "f"),
                TableRef::aliased("dim", "d"),
                TableRef::aliased("accounts", "a"),
            ],
            select: vec![SelectItem::Agg(AggFunc::CountStar)],
            predicates: vec![
                pred(2, "segment", CmpOp::Eq, rng.gen_range(1..=6)),
                pred(1, "category", CmpOp::Eq, rng.gen_range(0..N_CATEGORIES)),
            ],
            joins: vec![
                join((0, "dim_key"), (1, "dim_key")),
                join((0, "account_id"), (2, "id")),
            ],
            ..Default::default()
        },
        // Same trap against the normalized schema.
        2 => {
            let q = rng.gen_range(0..2);
            Query {
                tables: vec![
                    TableRef::aliased("fact_n", "f"),
                    TableRef::aliased("fact_detail", "fd"),
                ],
                select: vec![SelectItem::Agg(AggFunc::CountStar)],
                predicates: vec![
                    pred(0, "quarter", CmpOp::Eq, q),
                    pred(0, "ship_quarter", CmpOp::Eq, q),
                    pred(1, "qty", CmpOp::Ge, rng.gen_range(5..=40)),
                ],
                joins: vec![join((0, "id"), (1, "fact_id"))],
                ..Default::default()
            }
        }
        3 => Query {
            tables: vec![TableRef::aliased("fact_n", "f"), TableRef::aliased("dim", "d")],
            select: vec![
                SelectItem::Column(ColRef::new(0, "quarter")),
                SelectItem::Agg(AggFunc::Avg(ColRef::new(0, "amount"))),
            ],
            predicates: vec![pred(1, "region", CmpOp::Eq, rng.gen_range(0..N_REGIONS))],
            joins: vec![join((0, "dim_key"), (1, "dim_key"))],
            group_by: vec![ColRef::new(0, "quarter")],
            ..Default::default()
        },
        // Ultra-popular probe against the normalized schema.
        _ => Query {
            tables: vec![
                TableRef::aliased("fact_n", "f"),
                TableRef::aliased("fact_detail", "fd"),
            ],
            select: vec![SelectItem::Agg(AggFunc::CountStar)],
            predicates: vec![
                pred(0, "id", CmpOp::Le, rng.gen_range(10..=40)),
                pred(1, "qty", CmpOp::Ge, rng.gen_range(5..=30)),
            ],
            joins: vec![join((0, "id"), (1, "fact_id"))],
            ..Default::default()
        },
    };
    (label, q)
}

/// Build the Corp database plus a workload that flips schema at the
/// midpoint.
pub fn build_corp(cfg: &CorpConfig) -> Result<(Database, Workload)> {
    let db = build_corp_database(cfg.scale, cfg.seed)?;
    let flip = cfg.n_queries / 2;
    let mut steps = Vec::with_capacity(cfg.n_queries);
    for i in 0..cfg.n_queries {
        let mut rng = rng_from_seed(split_seed(cfg.seed, 40_000 + i as u64));
        // Dashboards re-run the same problematic reports: the detail-join
        // templates (2 and 4) carry extra weight, mirroring the paper's
        // Corp workload where 80% of execution time came from ~20% of
        // queries.
        const WEIGHTED: [usize; 8] = [0, 1, 2, 2, 3, 4, 4, 2];
        let t = WEIGHTED[rng.gen_range(0..WEIGHTED.len())];
        let (label, query) =
            if i < flip { instantiate_pre(t, &mut rng) } else { instantiate_post(t, &mut rng) };
        let event = (i == flip).then_some(Event::CorpNormalization);
        steps.push(WorkloadStep { label, query, event });
    }
    Ok((db, Workload { name: "corp".into(), steps }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_event;

    #[test]
    fn wide_schema_builds() {
        let db = build_corp_database(0.05, 1).unwrap();
        assert_eq!(db.table_names(), vec!["fact", "fact_detail", "accounts"]);
        assert_eq!(db.by_name("fact").unwrap().table.row_count(), 4_000);
    }

    #[test]
    fn region_category_correlated() {
        let db = build_corp_database(0.05, 2).unwrap();
        let f = &db.by_name("fact").unwrap().table;
        let reg = f.column("region").unwrap();
        let cat = f.column("category").unwrap();
        // given region r, only ~5 categories occur (not all 25)
        let mut cats_in_region0 = std::collections::HashSet::new();
        for r in 0..f.row_count() {
            if reg.key_at(r) == Some(0) {
                cats_in_region0.insert(cat.key_at(r).unwrap());
            }
        }
        assert!(cats_in_region0.len() <= 6, "{cats_in_region0:?}");
    }

    #[test]
    fn normalization_preserves_data() {
        let mut db = build_corp_database(0.05, 3).unwrap();
        let f = &db.by_name("fact").unwrap().table;
        let total_amount: i64 = {
            let a = f.column("amount").unwrap();
            (0..f.row_count()).map(|r| a.key_at(r).unwrap()).sum()
        };
        let rows = f.row_count();
        apply_event(&mut db, &Event::CorpNormalization, 3).unwrap();
        assert!(db.by_name("fact").is_err(), "wide fact dropped");
        let fnorm = &db.by_name("fact_n").unwrap().table;
        assert_eq!(fnorm.row_count(), rows);
        let a = fnorm.column("amount").unwrap();
        let total2: i64 = (0..rows).map(|r| a.key_at(r).unwrap()).sum();
        assert_eq!(total_amount, total2);
        // dim holds each key once with consistent attributes
        let dim = &db.by_name("dim").unwrap().table;
        assert!(dim.row_count() <= n_dims(0.05) as usize);
        assert!(db.by_name("dim").unwrap().index_on("dim_key").is_some());
    }

    #[test]
    fn workload_flips_schema_at_midpoint() {
        let cfg = CorpConfig { scale: 0.05, n_queries: 40, seed: 4 };
        let (_, wl) = build_corp(&cfg).unwrap();
        assert_eq!(wl.n_events(), 1);
        assert!(wl.steps[20].event == Some(Event::CorpNormalization));
        for (i, s) in wl.steps.iter().enumerate() {
            let uses_wide = s.query.tables.iter().any(|t| t.table == "fact");
            assert_eq!(uses_wide, i < 20, "step {i} schema mismatch");
        }
    }

    #[test]
    fn wide_and_norm_templates_agree_semantically() {
        // SUM(amount) filtered by region+quarter must be identical across
        // the two schemas (the data is the same).
        use bao_exec::{execute, ChargeRates};
        use bao_opt::{HintSet, Optimizer};
        use bao_stats::StatsCatalog;
        use bao_storage::BufferPool;

        let mut db = build_corp_database(0.05, 5).unwrap();
        let mut rng = rng_from_seed(9);
        let (_, q_wide) = instantiate_pre(0, &mut rng);
        let mut rng = rng_from_seed(9);
        let (_, q_norm) = instantiate_post(0, &mut rng);

        let opt = Optimizer::postgres();
        let rates = ChargeRates::default();

        let cat = StatsCatalog::analyze(&db, 500, 1);
        let plan = opt.plan(&q_wide, &db, &cat, HintSet::all_enabled()).unwrap();
        let mut pool = BufferPool::new(512);
        let wide =
            execute(&plan.root, &q_wide, &db, &mut pool, &opt.params, &rates).unwrap();

        apply_event(&mut db, &Event::CorpNormalization, 5).unwrap();
        let cat = StatsCatalog::analyze(&db, 500, 1);
        let plan = opt.plan(&q_norm, &db, &cat, HintSet::all_enabled()).unwrap();
        let mut pool = BufferPool::new(512);
        let norm =
            execute(&plan.root, &q_norm, &db, &mut pool, &opt.params, &rates).unwrap();
        assert_eq!(wide.output, norm.output);
    }
}
