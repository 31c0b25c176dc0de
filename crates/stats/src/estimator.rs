//! Selectivity estimators and the statistics catalog.

use crate::tablestats::{analyze_table, TableStats};
use bao_common::split_seed;
use bao_plan::{CmpOp, Predicate};
use bao_common::Rng;
use bao_storage::{ColumnData, Database, Table};
use std::collections::HashMap;
use std::sync::Mutex;

/// A filter predicate with its literal resolved to the numeric domain the
/// statistics are built over (dictionary codes for text columns). Literals
/// that do not occur in a text column's dictionary resolve to a sentinel
/// that matches nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPred {
    pub column: String,
    pub op: CmpOp,
    pub x: f64,
}

/// Sentinel for text literals absent from the dictionary.
const MISSING_KEY: f64 = i64::MIN as f64;

/// Resolve a logical predicate against the table it filters.
pub fn resolve_predicate(table: &Table, pred: &Predicate) -> ResolvedPred {
    let x = match &pred.value {
        bao_storage::Value::Int(v) => *v as f64,
        bao_storage::Value::Float(v) => *v,
        bao_storage::Value::Str(s) => table
            .column(&pred.col.column)
            .ok()
            .and_then(|c| c.code_for(s))
            .map(|code| code as f64)
            .unwrap_or(MISSING_KEY),
    };
    ResolvedPred { column: pred.col.column.clone(), op: pred.op, x }
}

/// A small correlated row sample of one table: parallel per-column vectors
/// of resolved numeric keys.
#[derive(Debug, Clone)]
pub struct SampleTable {
    pub n: usize,
    pub columns: HashMap<String, Vec<f64>>,
}

impl SampleTable {
    fn build(table: &Table, size: usize, seed: u64) -> SampleTable {
        let rows = table.row_count();
        let take = size.min(rows);
        let picked: Vec<usize> = if take == 0 {
            vec![]
        } else if take == rows {
            (0..rows).collect()
        } else {
            let mut rng = bao_common::rng_from_seed(seed);
            rng.sample_indices(rows, take)
        };
        let mut columns = HashMap::new();
        for def in &table.schema.columns {
            let col = table.column(&def.name).expect("schema column");
            let vals: Vec<f64> = picked
                .iter()
                .map(|&r| match col {
                    ColumnData::Float(v) => v[r],
                    keyed => keyed.key_at(r).expect("keyed") as f64,
                })
                .collect();
            columns.insert(def.name.clone(), vals);
        }
        SampleTable { n: take, columns }
    }

    /// Fraction of sampled rows satisfying every predicate, with add-half
    /// smoothing so empty matches never estimate exactly zero.
    pub fn conjunction_selectivity(&self, preds: &[ResolvedPred]) -> f64 {
        if self.n == 0 {
            return 0.5;
        }
        let mut matched = 0usize;
        'rows: for r in 0..self.n {
            for p in preds {
                let Some(vals) = self.columns.get(&p.column) else {
                    continue 'rows;
                };
                let ord = vals[r].partial_cmp(&p.x).expect("finite sample values");
                if !p.op.matches(ord) {
                    continue 'rows;
                }
            }
            matched += 1;
        }
        (matched as f64 + 0.5) / (self.n as f64 + 1.0)
    }
}

type JoinKey = (String, String, String, String);

/// Statistics for a whole database: per-table ANALYZE output plus row
/// samples for the sample-based estimator, with a memo of computed join
/// selectivities.
pub struct StatsCatalog {
    tables: HashMap<String, TableStats>,
    samples: HashMap<String, SampleTable>,
    join_cache: Mutex<HashMap<JoinKey, f64>>,
}

impl std::fmt::Debug for StatsCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsCatalog")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl StatsCatalog {
    /// ANALYZE every live table in the database.
    pub fn analyze(db: &Database, sample_size: usize, seed: u64) -> StatsCatalog {
        let mut tables = HashMap::new();
        let mut samples = HashMap::new();
        for (i, name) in db.table_names().into_iter().enumerate() {
            let st = db.by_name(name).expect("listed table");
            tables.insert(name.to_string(), analyze_table(&st.table));
            samples.insert(
                name.to_string(),
                SampleTable::build(&st.table, sample_size, split_seed(seed, i as u64)),
            );
        }
        StatsCatalog { tables, samples, join_cache: Mutex::new(HashMap::new()) }
    }

    pub fn stats(&self, table: &str) -> Option<&TableStats> {
        self.tables.get(table)
    }

    pub fn sample(&self, table: &str) -> Option<&SampleTable> {
        self.samples.get(table)
    }

    /// Row count of a table per the statistics (0 for unknown tables).
    pub fn row_count(&self, table: &str) -> f64 {
        self.tables.get(table).map(|t| t.rows as f64).unwrap_or(0.0)
    }
}

/// A cardinality estimator: base-table conjunctive selectivity plus
/// equi-join selectivity between two base-table columns.
pub trait Estimator: Send + Sync {
    fn name(&self) -> &'static str;

    /// Selectivity of a predicate conjunction on one table.
    fn scan_selectivity(&self, cat: &StatsCatalog, table: &str, preds: &[ResolvedPred]) -> f64;

    /// Selectivity of `l_table.l_col = r_table.r_col` relative to the
    /// cross product of the two base tables.
    fn join_selectivity(
        &self,
        cat: &StatsCatalog,
        l_table: &str,
        l_col: &str,
        r_table: &str,
        r_col: &str,
    ) -> f64;
}

/// PostgreSQL-style estimation: per-column histogram/MCV selectivities
/// multiplied under attribute independence; join selectivity `1/max(nd)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PostgresEstimator;

impl Estimator for PostgresEstimator {
    fn name(&self) -> &'static str {
        "postgres"
    }

    fn scan_selectivity(&self, cat: &StatsCatalog, table: &str, preds: &[ResolvedPred]) -> f64 {
        let Some(stats) = cat.stats(table) else { return 1.0 };
        preds
            .iter()
            .map(|p| {
                stats
                    .column(&p.column)
                    .map(|c| c.selectivity(p.op, p.x))
                    .unwrap_or(1.0 / 3.0)
            })
            .product::<f64>()
            .clamp(1e-12, 1.0)
    }

    fn join_selectivity(
        &self,
        cat: &StatsCatalog,
        l_table: &str,
        l_col: &str,
        r_table: &str,
        r_col: &str,
    ) -> f64 {
        let nd_l = cat.stats(l_table).map(|s| s.n_distinct(l_col)).unwrap_or(1.0);
        let nd_r = cat.stats(r_table).map(|s| s.n_distinct(r_col)).unwrap_or(1.0);
        (1.0 / nd_l.max(nd_r).max(1.0)).clamp(1e-12, 1.0)
    }
}

/// "ComSys"-grade estimation: conjunctions evaluated on a correlated row
/// sample (capturing cross-column correlation), joins from exact key
/// frequency sketches (capturing skew). Far lower q-error, which makes the
/// traditional optimizer a much stronger baseline — matching the paper's
/// observation that Bao's improvement over the commercial system is ≈20%
/// instead of ≈50%.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleEstimator;

impl Estimator for SampleEstimator {
    fn name(&self) -> &'static str {
        "sample"
    }

    fn scan_selectivity(&self, cat: &StatsCatalog, table: &str, preds: &[ResolvedPred]) -> f64 {
        if preds.is_empty() {
            return 1.0;
        }
        match cat.sample(table) {
            Some(s) => s.conjunction_selectivity(preds).clamp(1e-12, 1.0),
            None => PostgresEstimator.scan_selectivity(cat, table, preds),
        }
    }

    fn join_selectivity(
        &self,
        cat: &StatsCatalog,
        l_table: &str,
        l_col: &str,
        r_table: &str,
        r_col: &str,
    ) -> f64 {
        let key: JoinKey =
            (l_table.to_string(), l_col.to_string(), r_table.to_string(), r_col.to_string());
        // Probe in a statement-scoped guard: an `if let` on the locked map
        // would keep the cache locked across the hit path, and the lock
        // must never be held across estimation (which may recurse into
        // other estimators sharing this catalog).
        let cached = cat.join_cache.lock().expect("join cache").get(&key).copied();
        if let Some(v) = cached {
            return v;
        }
        let fallback = PostgresEstimator.join_selectivity(cat, l_table, l_col, r_table, r_col);
        let sel = (|| {
            let lf = cat.stats(l_table)?.column(l_col)?.freq.as_ref()?;
            let rf = cat.stats(r_table)?.column(r_col)?.freq.as_ref()?;
            let (small, big) = if lf.len() <= rf.len() { (lf, rf) } else { (rf, lf) };
            let matches: f64 = small
                .iter()
                .filter_map(|(k, &c1)| big.get(k).map(|&c2| c1 as f64 * c2 as f64))
                .sum();
            let n_l = cat.row_count(l_table).max(1.0);
            let n_r = cat.row_count(r_table).max(1.0);
            Some((matches / (n_l * n_r)).clamp(1e-12, 1.0))
        })()
        .unwrap_or(fallback);
        cat.join_cache.lock().expect("join cache").insert(key, sel);
        sel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_plan::ColRef;
    use bao_storage::{ColumnDef, DataType, Schema, Value};

    /// Two correlated columns: kind == 1 implies year >= 2000.
    fn correlated_db() -> Database {
        let mut t = Table::new(
            "title",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("kind", DataType::Int),
                ColumnDef::new("year", DataType::Int),
            ]),
        );
        for i in 0..1000i64 {
            let kind = if i % 2 == 0 { 1 } else { 2 };
            let year = if kind == 1 { 2000 + (i % 20) } else { 1950 + (i % 50) };
            t.insert(vec![Value::Int(i), Value::Int(kind), Value::Int(year)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(t).unwrap();
        db
    }

    fn pred(col: &str, op: CmpOp, x: f64) -> ResolvedPred {
        ResolvedPred { column: col.into(), op, x }
    }

    #[test]
    fn independence_underestimates_correlation() {
        let db = correlated_db();
        let cat = StatsCatalog::analyze(&db, 1_000, 1);
        let preds = vec![pred("kind", CmpOp::Eq, 1.0), pred("year", CmpOp::Ge, 2000.0)];
        // truth: all kind==1 rows have year >= 2000 -> selectivity 0.5
        let pg = PostgresEstimator.scan_selectivity(&cat, "title", &preds);
        let smp = SampleEstimator.scan_selectivity(&cat, "title", &preds);
        assert!(pg < 0.35, "independence should underestimate, got {pg}");
        assert!((smp - 0.5).abs() < 0.05, "sample should be accurate, got {smp}");
    }

    #[test]
    fn join_selectivity_skew() {
        // fact.fk is heavily skewed toward parent 0.
        let mut parent = Table::new("p", Schema::new(vec![ColumnDef::new("id", DataType::Int)]));
        for i in 0..100i64 {
            parent.insert(vec![Value::Int(i)]).unwrap();
        }
        let mut fact = Table::new("f", Schema::new(vec![ColumnDef::new("fk", DataType::Int)]));
        for i in 0..1000i64 {
            let fk = if i < 900 { 0 } else { i % 100 };
            fact.insert(vec![Value::Int(fk)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(parent).unwrap();
        db.create_table(fact).unwrap();
        let cat = StatsCatalog::analyze(&db, 1_000, 2);
        // Every fact row matches exactly one parent: truth = 1000 rows out
        // of 100k pairs = 0.01, and uniformity agrees (1/max(100,91)=0.01);
        // both estimators land close here.
        let pg = PostgresEstimator.join_selectivity(&cat, "p", "id", "f", "fk");
        let smp = SampleEstimator.join_selectivity(&cat, "p", "id", "f", "fk");
        assert!((smp - 0.01).abs() < 0.001, "sample join sel {smp}");
        assert!(pg > 0.0 && pg <= 0.02);
    }

    #[test]
    fn sample_join_beats_uniformity_on_key_skew() {
        // Join fact-to-fact on fk: massive self-join blowup that uniformity
        // (1/max(nd)) wildly underestimates.
        let mut fact = Table::new("f", Schema::new(vec![ColumnDef::new("fk", DataType::Int)]));
        for i in 0..1000i64 {
            let fk = if i < 900 { 0 } else { i % 100 };
            fact.insert(vec![Value::Int(fk)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(fact).unwrap();
        let cat = StatsCatalog::analyze(&db, 1_000, 3);
        let truth = (900.0 * 900.0 + 9.0 * 100.0) / 1e6; // ~0.811
        let pg = PostgresEstimator.join_selectivity(&cat, "f", "fk", "f", "fk");
        let smp = SampleEstimator.join_selectivity(&cat, "f", "fk", "f", "fk");
        assert!((smp - truth).abs() / truth < 0.05, "sample {smp} vs truth {truth}");
        assert!(pg < truth / 10.0, "uniformity should underestimate: {pg} vs {truth}");
    }

    #[test]
    fn join_cache_memoizes() {
        let db = correlated_db();
        let cat = StatsCatalog::analyze(&db, 100, 4);
        let a = SampleEstimator.join_selectivity(&cat, "title", "id", "title", "id");
        let b = SampleEstimator.join_selectivity(&cat, "title", "id", "title", "id");
        assert_eq!(a, b);
        assert_eq!(cat.join_cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn resolve_text_predicate() {
        let mut t = Table::new(
            "s",
            Schema::new(vec![ColumnDef::new("kind", DataType::Text)]),
        );
        t.insert(vec![Value::Str("movie".into())]).unwrap();
        let p = Predicate::new(ColRef::new(0, "kind"), CmpOp::Eq, Value::Str("movie".into()));
        let r = resolve_predicate(&t, &p);
        assert_eq!(r.x, 0.0);
        let p = Predicate::new(ColRef::new(0, "kind"), CmpOp::Eq, Value::Str("nope".into()));
        let r = resolve_predicate(&t, &p);
        assert_eq!(r.x, MISSING_KEY);
    }

    #[test]
    fn unknown_table_defaults() {
        let db = Database::new();
        let cat = StatsCatalog::analyze(&db, 10, 5);
        assert_eq!(PostgresEstimator.scan_selectivity(&cat, "ghost", &[]), 1.0);
        assert_eq!(cat.row_count("ghost"), 0.0);
        let sel = SampleEstimator.scan_selectivity(&cat, "ghost", &[pred("x", CmpOp::Eq, 1.0)]);
        assert!(sel > 0.0);
    }

    #[test]
    fn sample_table_deterministic() {
        let db = correlated_db();
        let a = StatsCatalog::analyze(&db, 50, 9);
        let b = StatsCatalog::analyze(&db, 50, 9);
        assert_eq!(a.sample("title").unwrap().columns["year"], b.sample("title").unwrap().columns["year"]);
    }
}
