//! SQL frontend: a tokenizer and recursive-descent parser for the
//! SELECT–FROM–WHERE–GROUP BY–ORDER BY–LIMIT fragment the paper's
//! workloads use, producing [`bao_plan::Query`] ASTs.
//!
//! The examples drive the whole stack from SQL text through this crate;
//! the workload generators construct [`bao_plan::Query`] values directly.

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

pub mod lexer;
pub mod parser;

pub use lexer::{tokenize, Token};
pub use parser::{parse_query, parse_statement, Statement};
