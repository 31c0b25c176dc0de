//! Synthetic workloads reproducing the paper's three evaluation datasets
//! (Table 1): IMDb (dynamic queries), Stack (dynamic data), and Corp
//! (dynamic schema). See DESIGN.md §1 for the substitution rationale.
//!
//! Each builder returns a populated [`bao_storage::Database`] plus a
//! [`Workload`]: an ordered list of steps, where a step optionally carries
//! an [`Event`] (data load / schema change) the harness must apply — and
//! re-ANALYZE for — before executing the step's query.

pub mod corp;
pub mod imdb;
pub mod stack;

use bao_common::{Result, Rng, Xoshiro256};
use bao_plan::{CmpOp, ColRef, JoinPred, Predicate, Query};
use bao_storage::{Database, Value};

pub use corp::{build_corp, CorpConfig};
pub use imdb::{build_imdb, ImdbConfig};
pub use stack::{build_stack, StackConfig};

/// A mid-workload environment change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Stack: load one more month of data (tables grow).
    LoadStackMonth { month: u32 },
    /// Corp: normalize the wide fact table into fact + dimension.
    CorpNormalization,
}

/// One step of a workload: an optional environment event, then a query.
#[derive(Debug, Clone)]
pub struct WorkloadStep {
    /// Template label (e.g. `"imdb/q07"` or `"JOB-16b"`).
    pub label: String,
    pub query: Query,
    /// Applied (and statistics rebuilt) before the query runs.
    pub event: Option<Event>,
}

/// An ordered query stream over a database.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub steps: Vec<WorkloadStep>,
}

impl Workload {
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of steps carrying events.
    pub fn n_events(&self) -> usize {
        self.steps.iter().filter(|s| s.event.is_some()).count()
    }
}

/// Apply an environment event to the database. The caller must rebuild
/// the statistics catalog afterwards (the paper: "database statistics are
/// fully rebuilt each time a new dataset is loaded").
pub fn apply_event(db: &mut Database, event: &Event, seed: u64) -> Result<()> {
    match event {
        Event::LoadStackMonth { month } => stack::load_month(db, *month, seed),
        Event::CorpNormalization => corp::normalize_fact_table(db),
    }
}

/// Zipf-ish rank sampler: concentrated on low ranks (quadratic inverse
/// CDF — strong enough skew to break uniformity assumptions, bounded
/// enough that multi-fact star joins stay tractable).
pub(crate) fn zipf(rng: &mut Xoshiro256, n: i64) -> i64 {
    let u: f64 = rng.gen_f64();
    ((u * u) * n as f64) as i64
}

/// Filter `col op v` on FROM entry `table`, against an integer constant.
pub(crate) fn pred(table: usize, col: &str, op: CmpOp, v: i64) -> Predicate {
    Predicate::new(ColRef::new(table, col), op, Value::Int(v))
}

/// Equi-join of FROM entries `l.0` and `r.0` on columns `l.1` and `r.1`.
pub(crate) fn join(l: (usize, &str), r: (usize, &str)) -> JoinPred {
    JoinPred::new(ColRef::new(l.0, l.1), ColRef::new(r.0, r.1))
}
