//! Query representations: the logical SELECT–PROJECT–JOIN–AGGREGATE AST the
//! SQL frontend and workload generators produce, the join graph the
//! optimizer enumerates over, and the physical plan trees Bao featurizes,
//! predicts over, and executes.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_types,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod fingerprint;
pub mod joingraph;
pub mod logical;
pub mod physical;
pub mod verify;

pub use fingerprint::{fingerprint, QueryFingerprint};
pub use joingraph::JoinGraph;
pub use logical::{AggFunc, CmpOp, ColRef, JoinPred, Predicate, Query, SelectItem, TableRef};
pub use physical::{JoinAlgo, OpKind, Operator, PlanNode, ScanKind, N_OP_KINDS};
pub use verify::{HintCheck, VerifyError};
