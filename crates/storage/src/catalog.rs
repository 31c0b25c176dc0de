//! The database catalog: named tables, their heap objects, and indexes.

use crate::index::Index;
use crate::table::Table;
use bao_common::{BaoError, Result};
use std::collections::HashMap;

/// Stable identifier of a table within a [`Database`].
pub type TableId = u32;

/// Identifier of a pageable object (a table heap or an index), used as the
/// object half of a [`crate::PageKey`]. Unique across the database,
/// including across drops, so a recreated table never aliases stale cache
/// entries.
pub type ObjectId = u32;

/// An index together with its buffer-pool object id.
#[derive(Debug, Clone)]
pub struct StoredIndex {
    pub index: Index,
    pub object: ObjectId,
}

/// A table, its heap object id, and its indexes.
#[derive(Debug, Clone)]
pub struct StoredTable {
    pub table: Table,
    pub heap_object: ObjectId,
    pub indexes: Vec<StoredIndex>,
}

impl StoredTable {
    pub fn index_on(&self, column: &str) -> Option<&StoredIndex> {
        self.indexes.iter().find(|i| i.index.column == column)
    }
}

/// A collection of tables and indexes. Mutable, because the Stack workload
/// loads data mid-run and the Corp workload changes the schema mid-run.
#[derive(Debug, Default, Clone)]
pub struct Database {
    slots: Vec<Option<StoredTable>>,
    by_name: HashMap<String, TableId>,
    next_object: ObjectId,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a table; its heap gets a fresh object id.
    pub fn create_table(&mut self, table: Table) -> Result<TableId> {
        if self.by_name.contains_key(&table.name) {
            return Err(BaoError::AlreadyExists(format!("table {}", table.name)));
        }
        let heap_object = self.alloc_object();
        let id = self.slots.len() as TableId;
        self.by_name.insert(table.name.clone(), id);
        self.slots.push(Some(StoredTable { table, heap_object, indexes: vec![] }));
        Ok(id)
    }

    /// Remove a table (Corp's schema change drops the wide fact table).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let id = self.table_id(name)?;
        self.slots[id as usize] = None;
        self.by_name.remove(name);
        Ok(())
    }

    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.by_name.get(name).copied().ok_or_else(|| BaoError::NotFound(format!("table {name}")))
    }

    pub fn get(&self, id: TableId) -> Result<&StoredTable> {
        self.slots
            .get(id as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| BaoError::NotFound(format!("table id {id}")))
    }

    pub fn by_name(&self, name: &str) -> Result<&StoredTable> {
        self.get(self.table_id(name)?)
    }

    fn live_mut(&mut self, id: TableId) -> Result<&mut StoredTable> {
        self.slots
            .get_mut(id as usize)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| BaoError::NotFound(format!("table id {id}")))
    }

    /// Create (or rebuild) an index on `table.column`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let id = self.table_id(table)?;
        let object = self.alloc_object();
        let stored = self.live_mut(id)?;
        let index = Index::build(&stored.table, column)?;
        // Rebuilds replace in place but keep a fresh object id so the pool
        // never serves pages of the old index image.
        stored.indexes.retain(|i| i.index.column != column);
        stored.indexes.push(StoredIndex { index, object });
        Ok(())
    }

    /// Bulk-append rows to a table and rebuild its indexes (the Stack
    /// workload's "load a month of data at a time").
    pub fn append_rows(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<crate::Value>>,
    ) -> Result<usize> {
        let id = self.table_id(table)?;
        // Rebuilt indexes get fresh object ids (allocated before the mutable
        // borrow of the slot).
        let n_indexes = self.get(id)?.indexes.len();
        let new_objects: Vec<ObjectId> = (0..n_indexes).map(|_| self.alloc_object()).collect();
        let stored = self.live_mut(id)?;
        let n = stored.table.insert_many(rows)?;
        for (slot, object) in stored.indexes.iter_mut().zip(new_objects) {
            slot.index = Index::build(&stored.table, &slot.index.column)?;
            slot.object = object;
        }
        Ok(n)
    }

    /// Names of all live tables, in creation order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables().map(|t| t.table.name.as_str()).collect()
    }

    /// All live tables, in creation order.
    pub fn tables(&self) -> impl Iterator<Item = &StoredTable> {
        self.slots.iter().flatten()
    }

    /// Total approximate data size (heaps only), for Table 1 reporting.
    pub fn total_size_bytes(&self) -> usize {
        self.slots.iter().filter_map(|s| s.as_ref()).map(|t| t.table.size_bytes()).sum()
    }

    /// Total heap pages across live tables (used to size "in-memory"
    /// buffer pools for the Figure 13 experiment).
    pub fn total_heap_pages(&self) -> u64 {
        self.slots.iter().filter_map(|s| s.as_ref()).map(|t| t.table.n_pages() as u64).sum()
    }

    fn alloc_object(&mut self) -> ObjectId {
        let o = self.next_object;
        self.next_object += 1;
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnDef, Schema};
    use crate::value::{DataType, Value};

    fn int_table(name: &str, vals: &[i64]) -> Table {
        let mut t = Table::new(name, Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        for &v in vals {
            t.insert(vec![Value::Int(v)]).unwrap();
        }
        t
    }

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        let id = db.create_table(int_table("a", &[1, 2])).unwrap();
        assert_eq!(db.table_id("a").unwrap(), id);
        assert_eq!(db.by_name("a").unwrap().table.row_count(), 2);
        assert!(db.by_name("b").is_err());
        assert_eq!(db.table_names(), vec!["a"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = Database::new();
        db.create_table(int_table("a", &[])).unwrap();
        assert!(db.create_table(int_table("a", &[])).is_err());
    }

    #[test]
    fn object_ids_unique_across_drops() {
        let mut db = Database::new();
        db.create_table(int_table("a", &[1])).unwrap();
        let o1 = db.by_name("a").unwrap().heap_object;
        db.drop_table("a").unwrap();
        db.create_table(int_table("a", &[1])).unwrap();
        let o2 = db.by_name("a").unwrap().heap_object;
        assert_ne!(o1, o2);
    }

    #[test]
    fn index_lifecycle() {
        let mut db = Database::new();
        db.create_table(int_table("a", &[3, 1, 2])).unwrap();
        db.create_index("a", "k").unwrap();
        let st = db.by_name("a").unwrap();
        let idx = st.index_on("k").unwrap();
        assert_eq!(idx.index.lookup(1).rows, vec![1]);
        assert!(st.index_on("missing").is_none());
        // rebuilding replaces rather than duplicates
        db.create_index("a", "k").unwrap();
        assert_eq!(db.by_name("a").unwrap().indexes.len(), 1);
    }

    #[test]
    fn append_rebuilds_indexes_with_fresh_objects() {
        let mut db = Database::new();
        db.create_table(int_table("a", &[1])).unwrap();
        db.create_index("a", "k").unwrap();
        let old_obj = db.by_name("a").unwrap().indexes[0].object;
        let n = db.append_rows("a", vec![vec![Value::Int(5)], vec![Value::Int(0)]]).unwrap();
        assert_eq!(n, 2);
        let st = db.by_name("a").unwrap();
        assert_eq!(st.table.row_count(), 3);
        assert_eq!(st.index_on("k").unwrap().index.lookup(5).rows, vec![1]);
        assert_ne!(st.indexes[0].object, old_obj);
    }

    #[test]
    fn drop_then_access_errors() {
        let mut db = Database::new();
        let id = db.create_table(int_table("a", &[])).unwrap();
        db.drop_table("a").unwrap();
        assert!(db.get(id).is_err());
        assert!(db.drop_table("a").is_err());
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn size_accounting() {
        let mut db = Database::new();
        db.create_table(int_table("a", &(0..100).collect::<Vec<_>>())).unwrap();
        assert_eq!(db.total_size_bytes(), 800);
        assert_eq!(db.total_heap_pages(), 1);
    }
}
