//! Stack-like dataset: StackExchange questions/answers/votes with **data
//! drift** — the paper "emulate[s] data drift by loading a month of data
//! at a time" (Table 1: WL dynamic, Data dynamic, Schema static).

use crate::{join, pred, zipf, Event, Workload, WorkloadStep};
use bao_common::{rng_from_seed, split_seed, BaoError, Result};
use bao_plan::{AggFunc, CmpOp, ColRef, Query, SelectItem, TableRef};
use bao_storage::{ColumnDef, Database, DataType, Schema, Table, Value};
use bao_common::{Rng, Xoshiro256};

/// Stack workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// 1.0 ≈ 10k users, ~2.5k questions per month.
    pub scale: f64,
    pub n_queries: usize,
    /// Months resident before the workload starts.
    pub initial_months: u32,
    /// Total months; the remainder loads as mid-workload events.
    pub total_months: u32,
    pub seed: u64,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig { scale: 1.0, n_queries: 500, initial_months: 4, total_months: 10, seed: 43 }
    }
}

fn n_users(scale: f64) -> i64 {
    (10_000.0 * scale).max(300.0) as i64
}

fn questions_per_month(scale: f64) -> i64 {
    (2_500.0 * scale).max(100.0) as i64
}

/// Append one month of questions/answers/votes. Question ids are globally
/// unique (month-major), so join keys never collide across loads.
pub fn load_month(db: &mut Database, month: u32, seed: u64) -> Result<()> {
    let scale = db.by_name("users")?.table.row_count() as f64 / 10_000.0;
    let mut rng = rng_from_seed(split_seed(seed, 1_000 + month as u64));
    let users = n_users(scale);
    let qpm = questions_per_month(scale);
    let base_qid = month as i64 * qpm;

    let mut questions = Vec::new();
    for i in 0..qpm {
        let qid = base_qid + i;
        // 85% of traffic is "site 1" (stackoverflow.com). Scores are
        // popularity-correlated: the low-offset questions of each month,
        // the ones the Zipf-skewed answers and votes pile onto, carry
        // the high scores, so a high-score filter selects exactly the
        // questions with far more join partners than average (the same
        // trap the IMDb workload springs). `views` is redundant with
        // score: conjunctions over both are quadratically underestimated
        // under independence.
        let site = if rng.gen_bool(0.85) { 1 } else { rng.gen_range(2..=40) };
        let age_bonus = 3 * (24 - month.min(24)) as i64 / 8;
        let pop_bonus = if i < qpm / 50 {
            rng.gen_range(50..=200)
        } else if i < qpm / 10 {
            rng.gen_range(10..=49)
        } else {
            0
        };
        let score = rng.gen_range(0i64..=5) + age_bonus + pop_bonus;
        let views = score * 120 + rng.gen_range(0i64..=200);
        questions.push(vec![
            Value::Int(qid),
            Value::Int(site),
            Value::Int(zipf(&mut rng, users)),
            Value::Int(month as i64),
            Value::Int(score),
            Value::Int(views),
        ]);
    }
    db.append_rows("questions", questions)?;

    let mut answers = Vec::new();
    for i in 0..(qpm * 2) {
        let aid = month as i64 * qpm * 2 + i;
        // Answers attach to questions of this or earlier months, skewed
        // toward popular (low-rank) questions.
        let q_month = rng.gen_range(0..=month) as i64;
        let qid = q_month * qpm + zipf(&mut rng, qpm);
        answers.push(vec![
            Value::Int(aid),
            Value::Int(qid),
            Value::Int(zipf(&mut rng, users)),
            Value::Int(rng.gen_range(0..=20)),
            Value::Int(month as i64),
        ]);
    }
    db.append_rows("answers", answers)?;

    let mut votes = Vec::new();
    for _ in 0..(qpm * 3) {
        let q_month = rng.gen_range(0..=month) as i64;
        let qid = q_month * qpm + zipf(&mut rng, qpm);
        votes.push(vec![
            Value::Int(qid),
            Value::Int(if rng.gen_bool(0.8) { 2 } else { rng.gen_range(1..=15) }),
            Value::Int(month as i64),
        ]);
    }
    db.append_rows("votes", votes)?;
    Ok(())
}

/// Build the initial Stack database (months `0..initial_months`).
pub fn build_stack_database(cfg: &StackConfig) -> Result<Database> {
    if cfg.initial_months == 0 || cfg.initial_months > cfg.total_months {
        return Err(BaoError::Config("initial_months must be in 1..=total_months".into()));
    }
    let mut rng = rng_from_seed(split_seed(cfg.seed, 0));
    let users_n = n_users(cfg.scale);
    let mut users = Table::new(
        "users",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("reputation", DataType::Int),
            ColumnDef::new("creation_year", DataType::Int),
        ]),
    );
    for i in 0..users_n {
        // Reputation is Zipf-like: low-id (old) users hold most of it.
        let rep = ((users_n - i) as f64 / users_n as f64 * 100_000.0
            * rng.gen_f64().powi(2)) as i64;
        users.insert(vec![
            Value::Int(i),
            Value::Int(rep),
            Value::Int(rng.gen_range(2008..=2019)),
        ])?;
    }
    let questions = Table::new(
        "questions",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("site_id", DataType::Int),
            ColumnDef::new("owner_id", DataType::Int),
            ColumnDef::new("month", DataType::Int),
            ColumnDef::new("score", DataType::Int),
            ColumnDef::new("views", DataType::Int),
        ]),
    );
    let answers = Table::new(
        "answers",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("question_id", DataType::Int),
            ColumnDef::new("owner_id", DataType::Int),
            ColumnDef::new("score", DataType::Int),
            ColumnDef::new("month", DataType::Int),
        ]),
    );
    let votes = Table::new(
        "votes",
        Schema::new(vec![
            ColumnDef::new("question_id", DataType::Int),
            ColumnDef::new("vote_type", DataType::Int),
            ColumnDef::new("month", DataType::Int),
        ]),
    );
    let mut db = Database::new();
    db.create_table(users)?;
    db.create_table(questions)?;
    db.create_table(answers)?;
    db.create_table(votes)?;
    for m in 0..cfg.initial_months {
        load_month(&mut db, m, cfg.seed)?;
    }
    for (t, c) in [
        ("users", "id"),
        ("users", "reputation"),
        ("questions", "id"),
        ("questions", "owner_id"),
        ("questions", "month"),
        ("questions", "score"),
        ("answers", "question_id"),
        ("answers", "owner_id"),
        ("votes", "question_id"),
    ] {
        db.create_index(t, c)?;
    }
    Ok(db)
}

const N_TEMPLATES: usize = 9;

fn instantiate(t: usize, cfg: &StackConfig, loaded_months: u32, rng: &mut Xoshiro256) -> (String, Query) {
    let users = n_users(cfg.scale);
    let label = format!("stack/q{t:02}");
    let count = vec![SelectItem::Agg(AggFunc::CountStar)];
    // "Recent" predicates track the loaded horizon — the drift stressor.
    let recent = loaded_months.saturating_sub(rng.gen_range(1..=3)) as i64;
    let q = match t {
        0 => Query {
            tables: vec![TableRef::aliased("questions", "q")],
            select: count,
            predicates: vec![
                pred(0, "month", CmpOp::Ge, recent),
                pred(0, "score", CmpOp::Ge, rng.gen_range(1..=10)),
            ],
            ..Default::default()
        },
        1 => Query {
            tables: vec![
                TableRef::aliased("questions", "q"),
                TableRef::aliased("answers", "a"),
            ],
            select: count,
            predicates: vec![
                pred(0, "site_id", CmpOp::Eq, 1),
                pred(1, "score", CmpOp::Ge, rng.gen_range(5..=15)),
            ],
            joins: vec![join((0, "id"), (1, "question_id"))],
            ..Default::default()
        },
        2 => Query {
            tables: vec![
                TableRef::aliased("questions", "q"),
                TableRef::aliased("users", "u"),
            ],
            select: count,
            predicates: vec![
                pred(1, "reputation", CmpOp::Gt, rng.gen_range(1_000..=50_000)),
                pred(0, "month", CmpOp::Ge, recent),
            ],
            joins: vec![join((0, "owner_id"), (1, "id"))],
            ..Default::default()
        },
        3 => Query {
            tables: vec![
                TableRef::aliased("questions", "q"),
                TableRef::aliased("answers", "a"),
                TableRef::aliased("users", "u"),
            ],
            select: vec![SelectItem::Agg(AggFunc::Max(ColRef::new(2, "reputation")))],
            predicates: vec![
                pred(0, "month", CmpOp::Eq, rng.gen_range(0..loaded_months.max(1)) as i64),
                pred(0, "site_id", CmpOp::Eq, 1),
            ],
            joins: vec![
                join((0, "id"), (1, "question_id")),
                join((1, "owner_id"), (2, "id")),
            ],
            ..Default::default()
        },
        4 => Query {
            tables: vec![
                TableRef::aliased("questions", "q"),
                TableRef::aliased("votes", "v"),
            ],
            select: count,
            predicates: vec![
                pred(1, "vote_type", CmpOp::Eq, rng.gen_range(1..=15)),
                pred(0, "score", CmpOp::Ge, rng.gen_range(0..=8)),
            ],
            joins: vec![join((0, "id"), (1, "question_id"))],
            ..Default::default()
        },
        5 => Query {
            tables: vec![TableRef::aliased("users", "u")],
            select: vec![
                SelectItem::Column(ColRef::new(0, "creation_year")),
                SelectItem::Agg(AggFunc::CountStar),
            ],
            predicates: vec![pred(0, "reputation", CmpOp::Gt, rng.gen_range(100..=10_000))],
            group_by: vec![ColRef::new(0, "creation_year")],
            ..Default::default()
        },
        6 => Query {
            tables: vec![
                TableRef::aliased("answers", "a"),
                TableRef::aliased("users", "u"),
            ],
            select: count,
            predicates: vec![
                pred(0, "month", CmpOp::Ge, recent),
                pred(1, "id", CmpOp::Lt, zipf(rng, users).max(1)),
            ],
            joins: vec![join((0, "owner_id"), (1, "id"))],
            ..Default::default()
        },
        7 => {
            // Ultra-popular probe: the first few questions ever asked hold
            // far more answers/votes than average; every estimator prices
            // the loop join with the mean multiplicity and falls in.
            let k = rng.gen_range(5..=25);
            Query {
                tables: vec![
                    TableRef::aliased("questions", "q"),
                    TableRef::aliased("answers", "a"),
                    TableRef::aliased("votes", "v"),
                ],
                select: count,
                predicates: vec![
                    pred(0, "id", CmpOp::Le, k),
                    pred(1, "score", CmpOp::Ge, rng.gen_range(1..=5)),
                ],
                joins: vec![
                    join((0, "id"), (1, "question_id")),
                    join((0, "id"), (2, "question_id")),
                ],
                ..Default::default()
            }
        }
        // High-score 3-way: a redundant score/views conjunction that is
        // (a) quadratically underestimated under independence and (b)
        // selects the ultra-popular questions whose answers/votes
        // multiplicities are far above average - the nested-loop trap.
        _ => {
            let s_min = rng.gen_range(40..=80);
            Query {
                tables: vec![
                    TableRef::aliased("questions", "q"),
                    TableRef::aliased("answers", "a"),
                    TableRef::aliased("votes", "v"),
                ],
                select: count,
                predicates: vec![
                    pred(0, "score", CmpOp::Ge, s_min),
                    pred(0, "views", CmpOp::Ge, s_min * 120),
                    pred(1, "score", CmpOp::Ge, rng.gen_range(1..=6)),
                    pred(2, "vote_type", CmpOp::Le, rng.gen_range(3..=12)),
                ],
                joins: vec![
                    join((0, "id"), (1, "question_id")),
                    join((0, "id"), (2, "question_id")),
                ],
                ..Default::default()
            }
        }
    };
    (label, q)
}

/// Build the Stack database plus a workload whose remaining months load
/// as events spaced evenly through the stream.
pub fn build_stack(cfg: &StackConfig) -> Result<(Database, Workload)> {
    let db = build_stack_database(cfg)?;
    let pending: Vec<u32> = (cfg.initial_months..cfg.total_months).collect();
    let spacing = cfg.n_queries / (pending.len() + 1).max(1);
    let mut steps = Vec::with_capacity(cfg.n_queries);
    let mut loaded = cfg.initial_months;
    let mut next_load = 0usize;
    for i in 0..cfg.n_queries {
        let mut event = None;
        if next_load < pending.len() && spacing > 0 && i == (next_load + 1) * spacing {
            event = Some(Event::LoadStackMonth { month: pending[next_load] });
            loaded = pending[next_load] + 1;
            next_load += 1;
        }
        let mut rng = rng_from_seed(split_seed(cfg.seed, 30_000 + i as u64));
        let t = rng.gen_range(0..N_TEMPLATES);
        let (label, query) = instantiate(t, cfg, loaded, &mut rng);
        steps.push(WorkloadStep { label, query, event });
    }
    Ok((db, Workload { name: "stack".into(), steps }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_event;

    fn small() -> StackConfig {
        StackConfig { scale: 0.05, n_queries: 60, initial_months: 2, total_months: 5, seed: 3 }
    }

    #[test]
    fn initial_database_shape() {
        let db = build_stack_database(&small()).unwrap();
        assert_eq!(db.table_names().len(), 4);
        let qpm = questions_per_month(0.05) as usize;
        assert_eq!(db.by_name("questions").unwrap().table.row_count(), 2 * qpm);
        assert_eq!(db.by_name("answers").unwrap().table.row_count(), 4 * qpm);
    }

    #[test]
    fn month_loads_grow_tables_and_rebuild_indexes() {
        let mut db = build_stack_database(&small()).unwrap();
        let before = db.by_name("questions").unwrap().table.row_count();
        apply_event(&mut db, &Event::LoadStackMonth { month: 2 }, 3).unwrap();
        let after = db.by_name("questions").unwrap().table.row_count();
        assert_eq!(after - before, questions_per_month(0.05) as usize);
        // index sees the new rows
        let qpm = questions_per_month(0.05);
        let idx = db.by_name("questions").unwrap().index_on("id").unwrap();
        assert!(!idx.index.lookup(2 * qpm + 1).rows.is_empty());
    }

    #[test]
    fn workload_interleaves_month_events() {
        let cfg = small();
        let (_, wl) = build_stack(&cfg).unwrap();
        assert_eq!(wl.len(), 60);
        assert_eq!(wl.n_events(), 3, "months 2,3,4 load mid-stream");
        let months: Vec<u32> = wl
            .steps
            .iter()
            .filter_map(|s| match &s.event {
                Some(Event::LoadStackMonth { month }) => Some(*month),
                _ => None,
            })
            .collect();
        assert_eq!(months, vec![2, 3, 4]);
    }

    #[test]
    fn queries_reference_loaded_months_only() {
        let cfg = small();
        let (_, wl) = build_stack(&cfg).unwrap();
        let mut loaded = cfg.initial_months as i64;
        for s in &wl.steps {
            if let Some(Event::LoadStackMonth { month }) = &s.event {
                loaded = *month as i64 + 1;
            }
            for p in &s.query.predicates {
                if p.col.column == "month" {
                    let v = p.value.as_int().unwrap();
                    assert!(v < loaded, "query references unloaded month {v} (loaded {loaded})");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let (_, a) = build_stack(&small()).unwrap();
        let (_, b) = build_stack(&small()).unwrap();
        assert_eq!(a.steps[5].query, b.steps[5].query);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = small();
        cfg.initial_months = 9;
        assert!(build_stack_database(&cfg).is_err());
        cfg.initial_months = 0;
        assert!(build_stack_database(&cfg).is_err());
    }
}
