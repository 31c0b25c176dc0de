//! Ordered secondary indexes.
//!
//! Indexes are modelled as sorted `(key, row_id)` entries, kept as two
//! parallel arrays so that a probe borrows its row ids, packed into index
//! pages — behaviourally a B+-tree leaf level plus an analytic interior
//! height. Lookups report which index pages they touch so the executor can
//! charge buffer-pool traffic for index scans and for the inner side of
//! parameterized nested-loop joins.

use crate::column::ColumnData;
use crate::sort::sort_keys;
use crate::table::Table;
use bao_common::{BaoError, Result};
use std::ops::Range;

/// Entries per index page: 8 KiB page / ~16 bytes per (key, row) entry,
/// with some fill-factor slack.
pub const INDEX_ENTRIES_PER_PAGE: usize = 400;

/// An ordered index over one integer or dictionary-coded text column.
#[derive(Debug, Clone)]
pub struct Index {
    pub table: String,
    pub column: String,
    /// Entry `i` is `(keys[i], rows[i])`; sorted by key, then row id.
    keys: Vec<i64>,
    rows: Vec<u32>,
    height: u32,
}

/// Result of an index range probe: matching row ids, borrowed from the
/// index, plus the index pages touched while walking the tree and leaf
/// level.
#[derive(Debug, Clone)]
pub struct IndexProbe<'a> {
    pub rows: &'a [u32],
    pub leaf_pages: Range<u32>,
    /// Interior (non-leaf) levels descended; charged as one page each.
    pub height: u32,
}

impl Index {
    /// Build an index over `table.column`. Only integer-keyed columns
    /// (ints and dictionary-coded text) are indexable.
    pub fn build(table: &Table, column: &str) -> Result<Index> {
        // Row ids are unique, so a stable sort by key orders entries by
        // key, then row id.
        let (keys, rows) = match table.column(column)? {
            ColumnData::Int(keys) => sort_keys(keys),
            ColumnData::Text { codes, .. } => sort_keys(codes),
            ColumnData::Float(_) => {
                return Err(BaoError::TypeMismatch(format!(
                    "cannot index float column {}.{column}",
                    table.name
                )))
            }
        };
        // Analytic B+-tree height: interior levels above the leaves.
        let mut pages = keys.len().div_ceil(INDEX_ENTRIES_PER_PAGE);
        let mut height = 0;
        while pages > 1 {
            pages = pages.div_ceil(INDEX_ENTRIES_PER_PAGE);
            height += 1;
        }
        Ok(Index { table: table.name.clone(), column: column.to_string(), keys, rows, height })
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of leaf pages occupied.
    pub fn n_pages(&self) -> u32 {
        self.keys.len().div_ceil(INDEX_ENTRIES_PER_PAGE) as u32
    }

    /// Analytic B+-tree height (interior levels above the leaves).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Probe for keys in `[lo, hi]` (inclusive both ends). A probe that
    /// matches nothing still reads the leaf it lands on.
    pub fn range(&self, lo: i64, hi: i64) -> IndexProbe<'_> {
        if lo > hi || self.keys.is_empty() {
            return IndexProbe { rows: &[], leaf_pages: 0..0, height: self.height };
        }
        let start = self.keys.partition_point(|&k| k < lo);
        let end = self.keys.partition_point(|&k| k <= hi);
        let first_page = (start / INDEX_ENTRIES_PER_PAGE) as u32;
        // `end` is exclusive; the last touched entry is end-1.
        let last_page =
            if end > start { ((end - 1) / INDEX_ENTRIES_PER_PAGE) as u32 } else { first_page };
        IndexProbe {
            rows: &self.rows[start..end],
            leaf_pages: first_page..last_page + 1,
            height: self.height,
        }
    }

    /// Probe for a single key (common case: parameterized join lookups).
    pub fn lookup(&self, key: i64) -> IndexProbe<'_> {
        self.range(key, key)
    }

    /// All row ids in key order — an ordered full-index scan, used by
    /// index-only scans and by merge joins that can skip their sort.
    pub fn ordered_rows(&self) -> impl Iterator<Item = (i64, u32)> + '_ {
        self.keys.iter().copied().zip(self.rows.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnDef, Schema};
    use crate::value::{DataType, Value};

    fn table_with_ints(vals: &[i64]) -> Table {
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        for &v in vals {
            t.insert(vec![Value::Int(v)]).unwrap();
        }
        t
    }

    #[test]
    fn range_returns_matching_rows() {
        let t = table_with_ints(&[5, 1, 9, 5, 3]);
        let idx = Index::build(&t, "k").unwrap();
        let probe = idx.range(3, 5);
        // rows with values 3,5,5 -> row ids 4,0,3 in key order
        assert_eq!(probe.rows, vec![4, 0, 3]);
        let probe = idx.lookup(9);
        assert_eq!(probe.rows, vec![2]);
        let probe = idx.lookup(100);
        assert!(probe.rows.is_empty());
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let t = table_with_ints(&[1, 2, 3]);
        let idx = Index::build(&t, "k").unwrap();
        assert!(idx.range(5, 2).rows.is_empty());
        let empty = Index::build(&table_with_ints(&[]), "k").unwrap();
        assert!(empty.is_empty());
        assert!(empty.range(0, 10).rows.is_empty());
        assert_eq!(empty.n_pages(), 0);
    }

    #[test]
    fn page_accounting() {
        let n = INDEX_ENTRIES_PER_PAGE * 2 + 1;
        let vals: Vec<i64> = (0..n as i64).collect();
        let t = table_with_ints(&vals);
        let idx = Index::build(&t, "k").unwrap();
        assert_eq!(idx.n_pages(), 3);
        assert_eq!(idx.height(), 1);
        let probe = idx.range(0, (n - 1) as i64);
        assert_eq!(probe.leaf_pages, 0..3);
        let probe = idx.lookup(0);
        assert_eq!(probe.leaf_pages, 0..1);
    }

    /// `range` by its definition: filter the sorted entries; the leaves
    /// are those of the first and last match, or, without a match, the one
    /// where `lo` would be inserted.
    fn naive_range(idx: &Index, lo: i64, hi: i64) -> (Vec<u32>, Range<u32>) {
        let entries: Vec<(i64, u32)> = idx.ordered_rows().collect();
        if lo > hi || entries.is_empty() {
            return (vec![], 0..0);
        }
        let leaf = |pos: usize| (pos / INDEX_ENTRIES_PER_PAGE) as u32;
        let hits: Vec<usize> =
            (0..entries.len()).filter(|&i| (lo..=hi).contains(&entries[i].0)).collect();
        let leaves = match (hits.first(), hits.last()) {
            (Some(&first), Some(&last)) => leaf(first)..leaf(last) + 1,
            _ => {
                let at = leaf(entries.iter().filter(|e| e.0 < lo).count());
                at..at + 1
            }
        };
        (hits.iter().map(|&i| entries[i].1).collect(), leaves)
    }

    #[test]
    fn probes_match_a_naive_filter() {
        // 395 even keys, then ten copies of 1000 straddling the first leaf
        // boundary (entries 395..405), then more even keys.
        let mut vals: Vec<i64> = (0..395).map(|i| 2 * i).collect();
        vals.extend([1000; 10]);
        vals.extend((501..900).map(|i| 2 * i));
        // Heap order is not key order.
        vals.reverse();
        let idx = Index::build(&table_with_ints(&vals), "k").unwrap();
        assert_eq!((idx.len(), idx.n_pages(), idx.height()), (804, 3, 1));
        let dupes = idx.lookup(1000);
        assert_eq!((dupes.rows.len(), dupes.leaf_pages), (10, 0..2));
        let ranges = [
            (1000, 1000),
            (5, 5),       // a miss between keys
            (1001, 1001), // a miss that lands on the second leaf
            (-7, -1),     // before the first key
            (5000, 9000), // past the last key
            (9, 3),       // lo > hi
            (790, 1001),
            (0, 788),
            (i64::MIN, i64::MAX),
        ];
        let empty = Index::build(&table_with_ints(&[]), "k").unwrap();
        for (lo, hi) in ranges {
            for idx in [&idx, &empty] {
                let probe = idx.range(lo, hi);
                let (rows, leaves) = naive_range(idx, lo, hi);
                assert_eq!((probe.rows, probe.leaf_pages), (&rows[..], leaves), "[{lo}, {hi}]");
                assert_eq!(probe.height, idx.height());
            }
        }
    }

    #[test]
    fn float_columns_not_indexable() {
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("x", DataType::Float)]));
        t.insert(vec![Value::Float(1.0)]).unwrap();
        assert!(Index::build(&t, "x").is_err());
    }

    #[test]
    fn text_columns_index_on_codes() {
        let mut t = Table::new("s", Schema::new(vec![ColumnDef::new("kind", DataType::Text)]));
        for s in ["movie", "tv", "movie"] {
            t.insert(vec![Value::Str(s.into())]).unwrap();
        }
        let idx = Index::build(&t, "kind").unwrap();
        let code = t.column("kind").unwrap().code_for("movie").unwrap() as i64;
        assert_eq!(idx.lookup(code).rows, vec![0, 2]);
    }

    #[test]
    fn ordered_rows_sorted() {
        let t = table_with_ints(&[3, 1, 2]);
        let idx = Index::build(&t, "k").unwrap();
        let keys: Vec<i64> = idx.ordered_rows().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }
}
