//! Columnar cell storage.

use crate::value::{DataType, Value};
use bao_common::{BaoError, Result};
use std::collections::HashMap;

/// One column's worth of cells, stored contiguously by type.
///
/// Text columns are dictionary-encoded: each cell is a `u32` code into a
/// per-column dictionary, which keeps equality predicates and joins on text
/// columns as cheap as integer comparisons while still round-tripping the
/// original strings.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text { codes: Vec<u32>, dict: Vec<String>, lookup: HashMap<String, u32> },
}

impl ColumnData {
    pub fn new(ty: DataType) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Text => {
                ColumnData::Text { codes: Vec::new(), dict: Vec::new(), lookup: HashMap::new() }
            }
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text { .. } => DataType::Text,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; errors on a type mismatch.
    pub fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (ColumnData::Int(col), Value::Int(x)) => col.push(x),
            (ColumnData::Float(col), Value::Float(x)) => col.push(x),
            (ColumnData::Float(col), Value::Int(x)) => col.push(x as f64),
            (ColumnData::Text { codes, dict, lookup }, Value::Str(s)) => {
                let code = *lookup.entry(s.clone()).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            (col, v) => {
                return Err(BaoError::TypeMismatch(format!(
                    "cannot store {} in {} column",
                    v.data_type(),
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Read cell `row` back as a [`Value`]. Panics if out of range (callers
    /// always iterate within `len()`).
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Text { codes, dict, .. } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// Cell as a sortable/joinable integer key: the raw value for ints, the
    /// dictionary code for text. `None` for float columns (never join keys).
    pub fn key_at(&self, row: usize) -> Option<i64> {
        match self {
            ColumnData::Int(v) => Some(v[row]),
            ColumnData::Text { codes, .. } => Some(codes[row] as i64),
            ColumnData::Float(_) => None,
        }
    }

    /// Dictionary code for a string literal, if this is a text column and
    /// the literal occurs in it.
    pub fn code_for(&self, s: &str) -> Option<u32> {
        match self {
            ColumnData::Text { lookup, .. } => lookup.get(s).copied(),
            _ => None,
        }
    }

    /// Number of distinct dictionary entries (text columns only).
    pub fn dict_len(&self) -> usize {
        match self {
            ColumnData::Text { dict, .. } => dict.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Int(5)).unwrap();
        c.push(Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Value::Int(-3));
        assert_eq!(c.key_at(0), Some(5));
    }

    #[test]
    fn text_dictionary_dedups() {
        let mut c = ColumnData::new(DataType::Text);
        for s in ["movie", "tv", "movie", "movie"] {
            c.push(Value::Str(s.into())).unwrap();
        }
        assert_eq!(c.dict_len(), 2);
        assert_eq!(c.get(2), Value::Str("movie".into()));
        assert_eq!(c.code_for("tv"), Some(1));
        assert_eq!(c.code_for("radio"), None);
        // codes are stable join keys
        assert_eq!(c.key_at(0), c.key_at(3));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = ColumnData::new(DataType::Float);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = ColumnData::new(DataType::Int);
        assert!(c.push(Value::Str("x".into())).is_err());
        let mut c = ColumnData::new(DataType::Text);
        assert!(c.push(Value::Int(1)).is_err());
    }

    #[test]
    fn float_column_has_no_key() {
        let mut c = ColumnData::new(DataType::Float);
        c.push(Value::Float(1.5)).unwrap();
        assert_eq!(c.key_at(0), None);
    }
}
