//! Workspace-wide error type.
//!
//! A single enum keeps cross-crate `Result` plumbing simple without pulling
//! in an error-derive dependency.

use std::fmt;

/// Errors produced anywhere in the Bao workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaoError {
    /// A named catalog object (table, column, index) does not exist.
    NotFound(String),
    /// An object with this name already exists.
    AlreadyExists(String),
    /// Input data or a query referenced columns with incompatible types.
    TypeMismatch(String),
    /// SQL text failed to tokenize or parse.
    Parse(String),
    /// A query or plan is structurally invalid (e.g. cross product with no
    /// join predicate where one is required, or an empty table list).
    InvalidQuery(String),
    /// The optimizer could not produce a plan under the given constraints.
    Planning(String),
    /// A value model was asked to predict before it was ever fitted.
    ModelNotFitted,
    /// Invalid configuration (window sizes, layer widths, VM names, ...).
    Config(String),
    /// Filesystem I/O failure in the durability layer (WAL segments).
    Io(String),
}

impl fmt::Display for BaoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaoError::NotFound(s) => write!(f, "not found: {s}"),
            BaoError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            BaoError::TypeMismatch(s) => write!(f, "type mismatch: {s}"),
            BaoError::Parse(s) => write!(f, "parse error: {s}"),
            BaoError::InvalidQuery(s) => write!(f, "invalid query: {s}"),
            BaoError::Planning(s) => write!(f, "planning error: {s}"),
            BaoError::ModelNotFitted => write!(f, "value model has not been fitted"),
            BaoError::Config(s) => write!(f, "configuration error: {s}"),
            BaoError::Io(s) => write!(f, "io error: {s}"),
        }
    }
}

impl std::error::Error for BaoError {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, BaoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = BaoError::NotFound("table cast_info".into());
        assert_eq!(e.to_string(), "not found: table cast_info");
        let e = BaoError::Parse("unexpected token".into());
        assert!(e.to_string().contains("unexpected token"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(BaoError::ModelNotFitted);
        assert!(e.to_string().contains("fitted"));
    }
}
