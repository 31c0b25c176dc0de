//! Intermediate results as composite row ids.
//!
//! An intermediate relation covering base tables `{t1, t3}` is a vector of
//! `(rowid_in_t1, rowid_in_t3)` pairs; cell values are fetched lazily from
//! the base tables. This keeps joins allocation-light and makes true
//! cardinalities trivially observable.

/// A materialized intermediate result.
#[derive(Debug, Clone, Default)]
pub struct RowSet {
    /// FROM-list positions covered, in the order row-id tuples are laid out.
    pub tables: Vec<usize>,
    /// Flattened row ids: row `i` occupies
    /// `rows[i * tables.len() .. (i + 1) * tables.len()]`.
    rows: Vec<u32>,
}

impl RowSet {
    pub fn new(tables: Vec<usize>) -> RowSet {
        RowSet { tables, rows: Vec::new() }
    }

    /// A single-table row set from raw row ids.
    pub fn from_single(table: usize, ids: Vec<u32>) -> RowSet {
        RowSet { tables: vec![table], rows: ids }
    }

    /// An empty row set with room for exactly `rows` rows: the join knows
    /// its output size before it writes the first row.
    pub fn with_capacity(tables: Vec<usize>, rows: usize) -> RowSet {
        let rows = Vec::with_capacity(rows * tables.len());
        RowSet { tables, rows }
    }

    pub fn width(&self) -> usize {
        self.tables.len()
    }

    pub fn len(&self) -> usize {
        if self.tables.is_empty() {
            0
        } else {
            self.rows.len() / self.tables.len()
        }
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of a FROM-list entry within each row tuple.
    pub fn slot_of(&self, table: usize) -> Option<usize> {
        self.tables.iter().position(|&t| t == table)
    }

    /// The row-id tuple of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        let w = self.width();
        &self.rows[i * w..(i + 1) * w]
    }

    /// Slot `slot`'s ids of every row, in order: one column of the row-id
    /// tuples, read straight from the flat id slice.
    pub fn slot_ids(&self, slot: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.rows.iter().skip(slot).step_by(self.width().max(1)).copied()
    }

    /// Append one composite row (must match `width()`).
    pub fn push(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.width());
        self.rows.extend_from_slice(row);
    }

    /// Append the concatenation of a row from `self`'s schema and one from
    /// `other`'s (used by joins; the output schema is `self.tables ++
    /// other.tables`). Id by id: the halves are a few ids wide, and a
    /// `memcpy` call per half costs more than it copies.
    pub fn push_joined(&mut self, left: &[u32], right: &[u32]) {
        debug_assert_eq!(left.len() + right.len(), self.width());
        for &id in left.iter().chain(right) {
            self.rows.push(id);
        }
    }

    /// Iterate over row tuples.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let w = self.width().max(1);
        self.rows.chunks_exact(w)
    }

    /// Reorder rows by a permutation of indices (used by Sort).
    pub fn permuted(&self, order: &[usize]) -> RowSet {
        let w = self.width();
        let mut rows = Vec::with_capacity(self.rows.len());
        for &i in order {
            rows.extend_from_slice(&self.rows[i * w..(i + 1) * w]);
        }
        RowSet { tables: self.tables.clone(), rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_table_round_trip() {
        let rs = RowSet::from_single(2, vec![5, 7, 9]);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.width(), 1);
        assert_eq!(rs.row(1), &[7]);
        assert_eq!(rs.slot_of(2), Some(0));
        assert_eq!(rs.slot_of(0), None);
    }

    #[test]
    fn joined_rows() {
        let mut rs = RowSet::new(vec![0, 2, 1]);
        rs.push_joined(&[10, 20], &[30]);
        rs.push_joined(&[11, 21], &[31]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.row(0), &[10, 20, 30]);
        assert_eq!(rs.row(1), &[11, 21, 31]);
        let collected: Vec<&[u32]> = rs.iter().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn slot_ids_read_one_column() {
        let mut rs = RowSet::new(vec![0, 2, 1]);
        for n in 0..5 {
            rs.push(&[n, 10 + n, 20 + n]);
        }
        assert_eq!(rs.slot_ids(0).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(rs.slot_ids(1).collect::<Vec<_>>(), [10, 11, 12, 13, 14]);
        assert_eq!(rs.slot_ids(2).len(), 5);
        assert_eq!(RowSet::new(vec![0, 2]).slot_ids(1).count(), 0);
        let single = RowSet::from_single(0, vec![4, 5]);
        assert_eq!(single.slot_ids(0).collect::<Vec<_>>(), [4, 5]);
    }

    #[test]
    fn permutation() {
        let rs = RowSet::from_single(0, vec![1, 2, 3]);
        let p = rs.permuted(&[2, 0, 1]);
        assert_eq!(p.row(0), &[3]);
        assert_eq!(p.row(1), &[1]);
        assert_eq!(p.row(2), &[2]);
    }

    #[test]
    fn empty() {
        let rs = RowSet::new(vec![0, 1]);
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.iter().count(), 0);
    }
}
