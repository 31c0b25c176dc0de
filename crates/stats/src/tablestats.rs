//! Table-level statistics: a row count plus per-column [`ColumnStats`].

use crate::column::ColumnStats;
use bao_storage::Table;
use std::collections::HashMap;

/// ANALYZE output for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub rows: usize,
    pub columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Distinct count for a column, defaulting to the row count for
    /// unknown columns (the safe assumption for key columns).
    pub fn n_distinct(&self, name: &str) -> f64 {
        self.column(name).map(|c| c.n_distinct.max(1.0)).unwrap_or(self.rows.max(1) as f64)
    }
}

/// Full-scan ANALYZE of a table. The paper rebuilds statistics "each time a
/// new dataset is loaded"; workloads call this after every data load or
/// schema change.
pub fn analyze_table(table: &Table) -> TableStats {
    let columns = table
        .schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, def)| (def.name.clone(), ColumnStats::analyze(table.column_by_index(i))))
        .collect();
    TableStats { rows: table.row_count(), columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_storage::{ColumnDef, DataType, Schema, Value};

    fn make_table() -> Table {
        let mut t = Table::new(
            "movies",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("kind", DataType::Text),
            ]),
        );
        for i in 0..100 {
            let kind = if i % 10 == 0 { "tv" } else { "movie" };
            t.insert(vec![Value::Int(i), Value::Str(kind.into())]).unwrap();
        }
        t
    }

    #[test]
    fn analyze_covers_all_columns() {
        let s = analyze_table(&make_table());
        assert_eq!(s.rows, 100);
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.n_distinct("id"), 100.0);
        assert_eq!(s.n_distinct("kind"), 2.0);
    }

    #[test]
    fn unknown_column_defaults_to_rowcount() {
        let s = analyze_table(&make_table());
        assert_eq!(s.n_distinct("nope"), 100.0);
        assert!(s.column("nope").is_none());
    }

    #[test]
    fn text_column_freq_over_codes() {
        let t = make_table();
        let s = analyze_table(&t);
        let movie_code = t.column("kind").unwrap().code_for("movie").unwrap() as i64;
        let f = s.column("kind").unwrap().freq.as_ref().unwrap();
        let movie = f.binary_search_by_key(&movie_code, |&(k, _)| k).unwrap();
        assert_eq!(f[movie].1, 90);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("e", Schema::new(vec![ColumnDef::new("x", DataType::Int)]));
        let s = analyze_table(&t);
        assert_eq!(s.rows, 0);
        assert_eq!(s.n_distinct("x"), 1.0);
    }
}
