//! Columnar storage engine substrate.
//!
//! The paper runs Bao on top of PostgreSQL; this crate is the storage half
//! of our PostgreSQL-like substrate (see DESIGN.md §1): typed columnar
//! tables laid out in fixed-size pages, ordered secondary indexes, and an
//! LRU buffer pool whose hit/miss accounting drives both the executor's
//! simulated I/O costs and Bao's optional cache-state features.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod buffer;
pub mod catalog;
pub mod column;
pub mod index;
pub mod sort;
pub mod table;
pub mod value;

pub use buffer::{AccessKind, BufferPool, PageKey, PoolStats};
pub use catalog::{Database, ObjectId, StoredIndex, StoredTable, TableId};
pub use column::ColumnData;
pub use index::Index;
pub use sort::sort_keys;
pub use table::{ColumnDef, Schema, Table, PAGE_BYTES};
pub use value::{DataType, Value};
