//! Tables: schemas plus paged columnar data.

use crate::column::ColumnData;
use crate::value::{DataType, Value};
use bao_common::{BaoError, Result};

/// Fixed page size, matching PostgreSQL's default block size.
pub const PAGE_BYTES: usize = 8_192;

/// A named, typed column in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef { name: name.into(), ty }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Approximate stored width of one row, in bytes.
    pub fn row_width_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.ty.width_bytes()).sum::<usize>().max(1)
    }

    /// How many rows fit in one heap page.
    pub fn rows_per_page(&self) -> usize {
        (PAGE_BYTES / self.row_width_bytes()).max(1)
    }
}

/// A heap table: schema plus columnar data, addressed in pages.
///
/// Rows are identified by their insertion position (`u32`), which also
/// determines their heap page — the engine's analogue of a clustered-by-
/// insertion-order heap, so index scans on non-key columns incur the random
/// page access pattern the cost model expects.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub columns: Vec<ColumnData>,
    rows: usize,
    /// `schema.rows_per_page()`, fixed at construction: `page_of_row` runs
    /// once per fetched row.
    rows_per_page: u32,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema.columns.iter().map(|c| ColumnData::new(c.ty)).collect();
        let rows_per_page = schema.rows_per_page() as u32;
        Table { name: name.into(), schema, columns, rows: 0, rows_per_page }
    }

    pub fn row_count(&self) -> usize {
        self.rows
    }

    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page as usize
    }

    /// Number of heap pages currently occupied.
    pub fn n_pages(&self) -> u32 {
        if self.rows == 0 {
            0
        } else {
            self.rows.div_ceil(self.rows_per_page()) as u32
        }
    }

    /// The heap page holding row `row_id`.
    pub fn page_of_row(&self, row_id: u32) -> u32 {
        row_id / self.rows_per_page
    }

    /// Append one row. The row must match the schema's arity and types.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(BaoError::TypeMismatch(format!(
                "table {}: row has {} values, schema has {} columns",
                self.name,
                row.len(),
                self.columns.len()
            )));
        }
        // Validate all cells before mutating any column so a failed insert
        // leaves the table unchanged.
        for (col, v) in self.columns.iter().zip(row.iter()) {
            let ok = matches!(
                (col.data_type(), v.data_type()),
                (DataType::Int, DataType::Int)
                    | (DataType::Float, DataType::Float)
                    | (DataType::Float, DataType::Int)
                    | (DataType::Text, DataType::Text)
            );
            if !ok {
                return Err(BaoError::TypeMismatch(format!(
                    "table {}: cannot store {} in {} column",
                    self.name,
                    v.data_type(),
                    col.data_type()
                )));
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Bulk-append rows (used by the workload generators' data loads).
    pub fn insert_many(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    pub fn column(&self, name: &str) -> Result<&ColumnData> {
        let idx = self
            .schema
            .column_index(name)
            .ok_or_else(|| BaoError::NotFound(format!("column {}.{}", self.name, name)))?;
        Ok(&self.columns[idx])
    }

    pub fn column_by_index(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Approximate total size in bytes (for Table 1-style reporting).
    pub fn size_bytes(&self) -> usize {
        self.rows * self.schema.row_width_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
            ]),
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = two_col_table();
        t.insert(vec![Value::Int(1), Value::Str("a".into())]).unwrap();
        t.insert(vec![Value::Int(2), Value::Str("b".into())]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column("id").unwrap().get(1), Value::Int(2));
        assert_eq!(t.column("name").unwrap().get(0), Value::Str("a".into()));
    }

    #[test]
    fn arity_and_type_checks_are_atomic() {
        let mut t = two_col_table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        // wrong type in second column: first column must NOT have grown
        assert!(t.insert(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.column("id").unwrap().len(), 0);
    }

    #[test]
    fn paging_math() {
        let mut t = Table::new("n", Schema::new(vec![ColumnDef::new("x", DataType::Int)]));
        let rpp = t.rows_per_page();
        assert_eq!(rpp, PAGE_BYTES / 8);
        assert_eq!(t.n_pages(), 0);
        for i in 0..(rpp + 1) {
            t.insert(vec![Value::Int(i as i64)]).unwrap();
        }
        assert_eq!(t.n_pages(), 2);
        assert_eq!(t.page_of_row(0), 0);
        assert_eq!(t.page_of_row(rpp as u32), 1);
    }

    #[test]
    fn paging_matches_the_uncached_formula() {
        let mut t = two_col_table();
        let rpp = t.schema.rows_per_page();
        assert_eq!((rpp, t.rows_per_page()), (PAGE_BYTES / 40, rpp));
        let mut filled = 0;
        for rows in [0, rpp - 1, rpp, rpp + 1] {
            for i in filled..rows {
                t.insert(vec![Value::Int(i as i64), Value::Str("x".into())]).unwrap();
            }
            filled = rows;
            assert_eq!(t.n_pages() as usize, rows.div_ceil(rpp), "{rows} rows");
            for r in [0, rows.saturating_sub(1), rows] {
                assert_eq!(t.page_of_row(r as u32) as usize, r / rpp, "row {r}");
            }
        }
    }

    #[test]
    fn schema_lookup() {
        let t = two_col_table();
        assert_eq!(t.schema.column_index("name"), Some(1));
        assert_eq!(t.schema.column_index("missing"), None);
        assert!(t.column("missing").is_err());
    }

    #[test]
    fn row_width_and_size() {
        let t = two_col_table();
        assert_eq!(t.schema.row_width_bytes(), 40);
        assert_eq!(t.size_bytes(), 0);
    }
}
