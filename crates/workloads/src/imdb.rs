//! IMDb-like dataset and the JOB-derived dynamic workload.
//!
//! The real evaluation augments the 113-query Join Order Benchmark with
//! thousands of template-parameterized queries and drifts the template
//! mix over time. This module reproduces the *estimation failure modes*
//! that make JOB hard: correlated attributes (`kind_id` determines the
//! `production_year` range), Zipf-skewed foreign keys (a few titles own
//! most `cast_info` rows), and popularity correlated with recency.

use crate::{join, pred, zipf, Workload, WorkloadStep};
use bao_common::{rng_from_seed, split_seed, Result};
use bao_plan::{AggFunc, CmpOp, ColRef, Query, SelectItem, TableRef};
use bao_storage::{ColumnDef, Database, DataType, Schema, Table, Value};
use bao_common::{Rng, Xoshiro256};

/// IMDb workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct ImdbConfig {
    /// Data scale: 1.0 ≈ 20k titles / 120k cast rows.
    pub scale: f64,
    /// Queries in the workload stream.
    pub n_queries: usize,
    /// Introduce new templates over time (paper Table 1 "WL: Dynamic").
    /// When false, all templates are active from the start (the stable
    /// workload of Figure 14a).
    pub dynamic: bool,
    pub seed: u64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig { scale: 1.0, n_queries: 500, dynamic: true, seed: 42 }
    }
}

fn n_titles(scale: f64) -> i64 {
    (20_000.0 * scale).max(500.0) as i64
}

/// Build the IMDb-like database: six tables with engineered correlation
/// and skew, plus the indexes a production deployment would carry.
pub fn build_imdb_database(scale: f64, seed: u64) -> Result<Database> {
    let mut rng = rng_from_seed(split_seed(seed, 0));
    let titles = n_titles(scale);
    let people = titles * 5 / 4;

    // --- title: three engineered phenomena that break PostgreSQL-style
    // estimation the way the Join Order Benchmark does:
    //  1. popularity <-> recency: low ids (which the Zipf foreign keys
    //     favour) are recent, so a recent-year filter selects exactly the
    //     titles with the most join partners (join underestimation);
    //  2. kind <-> year correlation (conjunctions underestimated);
    //  3. `start_year` is redundant with `production_year`, so predicates
    //     touching both are underestimated ~70x under independence.
    let mut title = Table::new(
        "title",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("kind_id", DataType::Int),
            ColumnDef::new("production_year", DataType::Int),
            ColumnDef::new("start_year", DataType::Int),
            ColumnDef::new("episode_nr", DataType::Int),
        ]),
    );
    for i in 0..titles {
        // Low id => recent: id 0 ~ 2019, id n ~ 1919 (sublinear decay).
        let age = ((i as f64 / titles as f64).powf(0.7) * 100.0) as i64;
        let year = (2019 - age + rng.gen_range(-3i64..=3)).clamp(1900, 2019);
        let kind: i64 = if year >= 2000 && rng.gen_bool(0.3) {
            3 // episode
        } else if year >= 1990 && rng.gen_bool(0.45) {
            2 // tv series
        } else if rng.gen_bool(0.85) {
            1 // movie
        } else {
            rng.gen_range(4..=7)
        };
        let start_year = if rng.gen_bool(0.9) { year } else { year + 1 };
        let episode = if kind == 3 { rng.gen_range(1..=400) } else { 0 };
        title.insert(vec![
            Value::Int(i),
            Value::Int(kind),
            Value::Int(year),
            Value::Int(start_year),
            Value::Int(episode),
        ])?;
    }

    // --- person
    let mut person = Table::new(
        "person",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("gender", DataType::Int),
            ColumnDef::new("birth_year", DataType::Int),
        ]),
    );
    for i in 0..people {
        person.insert(vec![
            Value::Int(i),
            Value::Int(rng.gen_range(0..=2)),
            Value::Int(rng.gen_range(1920..=2000)),
        ])?;
    }

    // --- cast_info: movie_id Zipf (popular titles get most rows),
    // person_id Zipf, role skewed.
    let mut cast_info = Table::new(
        "cast_info",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("person_id", DataType::Int),
            ColumnDef::new("role_id", DataType::Int),
        ]),
    );
    for i in 0..(titles * 6) {
        let role = if rng.gen_bool(0.55) { 1 } else { rng.gen_range(2..=11) };
        cast_info.insert(vec![
            Value::Int(i),
            Value::Int(zipf(&mut rng, titles)),
            Value::Int(zipf(&mut rng, people)),
            Value::Int(role),
        ])?;
    }

    // --- movie_companies
    let companies = (titles / 40).max(20);
    let mut movie_companies = Table::new(
        "movie_companies",
        Schema::new(vec![
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("company_id", DataType::Int),
            ColumnDef::new("company_type_id", DataType::Int),
        ]),
    );
    for _ in 0..(titles * 2) {
        movie_companies.insert(vec![
            Value::Int(zipf(&mut rng, titles)),
            Value::Int(zipf(&mut rng, companies)),
            Value::Int(rng.gen_range(1..=4)),
        ])?;
    }

    // --- movie_info: info_type_id correlated with kind via the movie
    let mut movie_info = Table::new(
        "movie_info",
        Schema::new(vec![
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("info_type_id", DataType::Int),
            ColumnDef::new("info_val", DataType::Int),
        ]),
    );
    for _ in 0..(titles * 3) {
        let m = zipf(&mut rng, titles);
        let it = if m % 3 == 0 { rng.gen_range(1..=10) } else { rng.gen_range(1..=110) };
        movie_info.insert(vec![
            Value::Int(m),
            Value::Int(it),
            Value::Int(rng.gen_range(0..=100)),
        ])?;
    }

    // --- movie_keyword
    let keywords = (titles / 8).max(50);
    let mut movie_keyword = Table::new(
        "movie_keyword",
        Schema::new(vec![
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("keyword_id", DataType::Int),
        ]),
    );
    for _ in 0..(titles * 5 / 2) {
        movie_keyword.insert(vec![
            Value::Int(zipf(&mut rng, titles)),
            Value::Int(zipf(&mut rng, keywords)),
        ])?;
    }

    let mut db = Database::new();
    db.create_table(title)?;
    db.create_table(person)?;
    db.create_table(cast_info)?;
    db.create_table(movie_companies)?;
    db.create_table(movie_info)?;
    db.create_table(movie_keyword)?;
    for (t, c) in [
        ("title", "id"),
        ("title", "production_year"),
        ("title", "start_year"),
        ("title", "kind_id"),
        ("person", "id"),
        ("person", "birth_year"),
        ("cast_info", "movie_id"),
        ("cast_info", "person_id"),
        ("movie_companies", "movie_id"),
        ("movie_companies", "company_id"),
        ("movie_info", "movie_id"),
        ("movie_info", "info_type_id"),
        ("movie_keyword", "movie_id"),
        ("movie_keyword", "keyword_id"),
    ] {
        db.create_index(t, c)?;
    }
    Ok(db)
}

/// Number of query templates.
pub const N_TEMPLATES: usize = 15;

/// Instantiate template `t` with template-specific random parameters.
/// Returns `(label, query)`.
pub fn instantiate_template(t: usize, scale: f64, rng: &mut Xoshiro256) -> (String, Query) {
    let titles = n_titles(scale);
    let _people = titles * 5 / 4;
    let companies = (titles / 40).max(20);
    let keywords = (titles / 8).max(50);
    let year = rng.gen_range(1950..=2018);
    let label = format!("imdb/q{t:02}");

    let count = vec![SelectItem::Agg(AggFunc::CountStar)];
    let q = match t {
        0 => Query {
            tables: vec![TableRef::aliased("title", "t")],
            select: count,
            predicates: vec![
                pred(0, "production_year", CmpOp::Gt, year),
                pred(0, "kind_id", CmpOp::Eq, rng.gen_range(1..=7)),
            ],
            ..Default::default()
        },
        1 => Query {
            tables: vec![TableRef::aliased("title", "t"), TableRef::aliased("cast_info", "ci")],
            select: count,
            predicates: vec![
                pred(0, "production_year", CmpOp::Ge, year),
                pred(1, "role_id", CmpOp::Eq, rng.gen_range(1..=11)),
            ],
            joins: vec![join((0, "id"), (1, "movie_id"))],
            ..Default::default()
        },
        2 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("movie_companies", "mc"),
            ],
            select: count,
            predicates: vec![pred(1, "company_id", CmpOp::Eq, zipf(rng, companies))],
            joins: vec![join((0, "id"), (1, "movie_id"))],
            ..Default::default()
        },
        3 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("cast_info", "ci"),
                TableRef::aliased("person", "p"),
            ],
            select: vec![SelectItem::Agg(AggFunc::Min(ColRef::new(0, "production_year")))],
            predicates: vec![
                pred(2, "birth_year", CmpOp::Gt, rng.gen_range(1940..=1990)),
                pred(1, "role_id", CmpOp::Le, rng.gen_range(1..=4)),
            ],
            joins: vec![
                join((0, "id"), (1, "movie_id")),
                join((1, "person_id"), (2, "id")),
            ],
            ..Default::default()
        },
        4 => {
            // Redundant year range over both correlated columns: the
            // conjunction is underestimated quadratically.
            let y = rng.gen_range(2000..=2016);
            Query {
                tables: vec![TableRef::aliased("title", "t"), TableRef::aliased("movie_info", "mi")],
                select: count,
                predicates: vec![
                    pred(1, "info_type_id", CmpOp::Eq, rng.gen_range(1..=110)),
                    pred(0, "production_year", CmpOp::Ge, y),
                    pred(0, "start_year", CmpOp::Ge, y),
                    pred(0, "production_year", CmpOp::Le, y + 2),
                    pred(0, "start_year", CmpOp::Le, y + 3),
                ],
                joins: vec![join((0, "id"), (1, "movie_id"))],
                ..Default::default()
            }
        }
        5 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("movie_keyword", "mk"),
            ],
            select: count,
            predicates: vec![pred(1, "keyword_id", CmpOp::Eq, zipf(rng, keywords))],
            joins: vec![join((0, "id"), (1, "movie_id"))],
            ..Default::default()
        },
        6 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("cast_info", "ci"),
                TableRef::aliased("movie_companies", "mc"),
            ],
            select: count,
            predicates: vec![
                pred(0, "production_year", CmpOp::Ge, year),
                pred(2, "company_type_id", CmpOp::Eq, rng.gen_range(1..=4)),
            ],
            joins: vec![
                join((0, "id"), (1, "movie_id")),
                join((0, "id"), (2, "movie_id")),
            ],
            ..Default::default()
        },
        7 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("movie_info", "mi"),
                TableRef::aliased("movie_keyword", "mk"),
            ],
            select: count,
            predicates: vec![
                pred(1, "info_type_id", CmpOp::Le, rng.gen_range(2..=20)),
                pred(0, "kind_id", CmpOp::Eq, rng.gen_range(1..=3)),
            ],
            joins: vec![
                join((0, "id"), (1, "movie_id")),
                join((0, "id"), (2, "movie_id")),
            ],
            ..Default::default()
        },
        8 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("cast_info", "ci"),
                TableRef::aliased("person", "p"),
                TableRef::aliased("movie_companies", "mc"),
            ],
            select: count,
            predicates: vec![
                pred(2, "gender", CmpOp::Eq, rng.gen_range(0..=2)),
                pred(0, "production_year", CmpOp::Gt, year),
                pred(3, "company_type_id", CmpOp::Le, 2),
            ],
            joins: vec![
                join((0, "id"), (1, "movie_id")),
                join((1, "person_id"), (2, "id")),
                join((0, "id"), (3, "movie_id")),
            ],
            ..Default::default()
        },
        // The "16b-like" template: a redundant correlated year-range
        // filter (production_year ~ start_year) is underestimated
        // quadratically, and it selects exactly the *popular* recent
        // titles whose Zipf-skewed fact rows uniformity under-counts.
        // Predicates on ci.role_id / mc.company_type_id force the inner
        // index scans to fetch heap rows. The default optimizer dives
        // into a parameterized nested-loop cascade that is ~10-25x worse
        // than the hash plan; disabling loop joins is a large win.
        9 => {
            let y = rng.gen_range(2009..=2016);
            Query {
                tables: vec![
                    TableRef::aliased("title", "t"),
                    TableRef::aliased("cast_info", "ci"),
                    TableRef::aliased("movie_companies", "mc"),
                ],
                select: count,
                predicates: vec![
                    pred(0, "production_year", CmpOp::Ge, y),
                    pred(0, "start_year", CmpOp::Ge, y),
                    pred(1, "role_id", CmpOp::Le, rng.gen_range(1..=3)),
                    pred(2, "company_type_id", CmpOp::Le, rng.gen_range(2..=3)),
                ],
                joins: vec![
                    join((0, "id"), (1, "movie_id")),
                    join((0, "id"), (2, "movie_id")),
                ],
                ..Default::default()
            }
        }
        // The "24b-like" template: a single-title probe where the default
        // parameterized nested loop is exactly right, and disabling loops
        // is catastrophic.
        10 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("cast_info", "ci"),
                TableRef::aliased("movie_keyword", "mk"),
                TableRef::aliased("movie_info", "mi"),
            ],
            select: count,
            predicates: vec![pred(0, "id", CmpOp::Eq, zipf(rng, titles))],
            joins: vec![
                join((0, "id"), (1, "movie_id")),
                join((0, "id"), (2, "movie_id")),
                join((0, "id"), (3, "movie_id")),
            ],
            ..Default::default()
        },
        11 => Query {
            tables: vec![TableRef::aliased("title", "t")],
            select: vec![
                SelectItem::Column(ColRef::new(0, "kind_id")),
                SelectItem::Agg(AggFunc::CountStar),
            ],
            predicates: vec![pred(0, "production_year", CmpOp::Ge, year)],
            group_by: vec![ColRef::new(0, "kind_id")],
            ..Default::default()
        },
        12 => Query {
            tables: vec![
                TableRef::aliased("cast_info", "ci"),
                TableRef::aliased("person", "p"),
            ],
            select: vec![SelectItem::Agg(AggFunc::Max(ColRef::new(1, "birth_year")))],
            predicates: vec![
                pred(0, "role_id", CmpOp::Eq, rng.gen_range(1..=11)),
                pred(1, "birth_year", CmpOp::Lt, rng.gen_range(1950..=2000)),
            ],
            joins: vec![join((0, "person_id"), (1, "id"))],
            ..Default::default()
        },
        13 => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("movie_keyword", "mk"),
                TableRef::aliased("movie_info", "mi"),
                TableRef::aliased("movie_companies", "mc"),
            ],
            select: count,
            predicates: vec![
                pred(1, "keyword_id", CmpOp::Eq, zipf(rng, keywords)),
                pred(2, "info_type_id", CmpOp::Eq, rng.gen_range(1..=40)),
            ],
            joins: vec![
                join((0, "id"), (1, "movie_id")),
                join((0, "id"), (2, "movie_id")),
                join((0, "id"), (3, "movie_id")),
            ],
            ..Default::default()
        },
        // Ultra-popular range probe: `t.id <= K` selects a tiny set of
        // titles that each carry 10-60x the average number of fact rows.
        // Every estimator prices the parameterized nested loop with the
        // *average* per-key multiplicity, so even the sample-based ComSys
        // estimator walks into the loop cascade here — the headroom that
        // lets Bao improve on the commercial baseline too (paper ~20%).
        _ => Query {
            tables: vec![
                TableRef::aliased("title", "t"),
                TableRef::aliased("cast_info", "ci"),
                TableRef::aliased("movie_keyword", "mk"),
            ],
            select: count,
            predicates: vec![
                pred(0, "id", CmpOp::Le, rng.gen_range(8..=22)),
                pred(1, "role_id", CmpOp::Le, rng.gen_range(2..=4)),
            ],
            joins: vec![
                join((0, "id"), (1, "movie_id")),
                join((0, "id"), (2, "movie_id")),
            ],
            ..Default::default()
        },
    };
    (label, q)
}

/// The 113 fixed "JOB" queries (paper Figure 11's held-out set):
/// deterministic template instantiations, labelled `JOB-<n><letter>`.
pub fn job_queries(scale: f64, seed: u64) -> Vec<(String, Query)> {
    let mut out = Vec::with_capacity(113);
    for i in 0..113usize {
        let mut rng = rng_from_seed(split_seed(seed, 10_000 + i as u64));
        let t = i % N_TEMPLATES;
        let (_, q) = instantiate_template(t, scale, &mut rng);
        let label = format!("JOB-{}{}", i / 4 + 1, (b'a' + (i % 4) as u8) as char);
        out.push((label, q));
    }
    out
}

/// Build the database and query stream.
pub fn build_imdb(cfg: &ImdbConfig) -> Result<(Database, Workload)> {
    let db = build_imdb_database(cfg.scale, cfg.seed)?;
    let mut steps = Vec::with_capacity(cfg.n_queries);
    for i in 0..cfg.n_queries {
        let mut rng = rng_from_seed(split_seed(cfg.seed, 20_000 + i as u64));
        let t = if cfg.dynamic {
            // Templates become active in four phases: 8, 10, 12, then all
            // 14 — "we vary the query workload over time by introducing
            // new templates periodically".
            let phase = (i * 4) / cfg.n_queries.max(1);
            let active = (9 + 2 * phase).min(N_TEMPLATES);
            rng.gen_range(0..active)
        } else {
            rng.gen_range(0..N_TEMPLATES)
        };
        let (label, query) = instantiate_template(t, cfg.scale, &mut rng);
        steps.push(WorkloadStep { label, query, event: None });
    }
    Ok((db, Workload { name: "imdb".into(), steps }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_has_expected_shape() {
        let db = build_imdb_database(0.05, 1).unwrap();
        assert_eq!(db.table_names().len(), 6);
        let titles = db.by_name("title").unwrap().table.row_count();
        assert_eq!(titles, 1_000);
        assert_eq!(db.by_name("cast_info").unwrap().table.row_count(), 6_000);
        assert!(db.by_name("title").unwrap().index_on("production_year").is_some());
    }

    #[test]
    fn correlation_kind2_is_recent() {
        let db = build_imdb_database(0.05, 2).unwrap();
        let t = &db.by_name("title").unwrap().table;
        let kind = t.column("kind_id").unwrap();
        let year = t.column("production_year").unwrap();
        for r in 0..t.row_count() {
            if kind.key_at(r) == Some(2) {
                assert!(year.key_at(r).unwrap() >= 1990);
            }
        }
    }

    #[test]
    fn fk_skew_present() {
        let db = build_imdb_database(0.05, 3).unwrap();
        let ci = &db.by_name("cast_info").unwrap().table;
        let col = ci.column("movie_id").unwrap();
        let n = ci.row_count();
        let popular = (0..n)
            .filter(|&r| col.key_at(r).unwrap() < 100)
            .count();
        // 10% of the id space should hold far more than 10% of rows.
        assert!(popular as f64 / n as f64 > 0.3, "skew too weak: {popular}/{n}");
    }

    #[test]
    fn workload_generation_deterministic_and_valid() {
        let cfg = ImdbConfig { scale: 0.05, n_queries: 60, dynamic: true, seed: 5 };
        let (db, wl) = build_imdb(&cfg).unwrap();
        let (_, wl2) = build_imdb(&cfg).unwrap();
        assert_eq!(wl.len(), 60);
        assert_eq!(wl.steps[10].query, wl2.steps[10].query);
        assert_eq!(wl.n_events(), 0);
        // every query references live tables
        for s in &wl.steps {
            for t in &s.query.tables {
                assert!(db.by_name(&t.table).is_ok(), "{} missing", t.table);
            }
        }
    }

    #[test]
    fn dynamic_workload_introduces_templates_late() {
        let cfg = ImdbConfig { scale: 0.05, n_queries: 200, dynamic: true, seed: 6 };
        let (_, wl) = build_imdb(&cfg).unwrap();
        let first_half: Vec<&str> =
            wl.steps[..100].iter().map(|s| s.label.as_str()).collect();
        let has_late_template =
            |labels: &[&str]| labels.iter().any(|l| *l >= "imdb/q12");
        assert!(!has_late_template(&first_half), "templates 12+ must not appear early");
        let second_half: Vec<&str> =
            wl.steps[150..].iter().map(|s| s.label.as_str()).collect();
        assert!(has_late_template(&second_half), "late templates should appear");
    }

    #[test]
    fn stable_workload_uses_all_templates_early() {
        let cfg = ImdbConfig { scale: 0.05, n_queries: 300, dynamic: false, seed: 7 };
        let (_, wl) = build_imdb(&cfg).unwrap();
        let early: std::collections::HashSet<&str> =
            wl.steps[..150].iter().map(|s| s.label.as_str()).collect();
        assert!(early.len() >= N_TEMPLATES - 2, "most templates early: {early:?}");
    }

    #[test]
    fn job_queries_fixed_and_distinct_from_seeded_workload() {
        let a = job_queries(0.05, 9);
        let b = job_queries(0.05, 9);
        assert_eq!(a.len(), 113);
        assert_eq!(a[0].1, b[0].1);
        assert!(a[0].0.starts_with("JOB-1a"));
        // different seeds give different parameters
        let c = job_queries(0.05, 10);
        assert_ne!(a.iter().map(|x| &x.1).collect::<Vec<_>>(),
                   c.iter().map(|x| &x.1).collect::<Vec<_>>());
    }
}
