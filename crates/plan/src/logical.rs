//! The logical query AST.
//!
//! Queries are conjunctive select–project–join blocks with optional
//! aggregation and ordering — the fragment every workload in the paper's
//! evaluation (JOB-style analytics) falls into. Columns are referenced by
//! the *position* of their table in the FROM list plus a column name, so
//! self-joins under different aliases work naturally.

use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::{BaoError, Result};
use bao_storage::Value;
use std::fmt;

/// One FROM-list entry: a base table and the alias it is visible under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: String,
}

impl TableRef {
    pub fn new(table: impl Into<String>) -> Self {
        let table = table.into();
        TableRef { alias: table.clone(), table }
    }

    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef { table: table.into(), alias: alias.into() }
    }
}

/// A column reference: index into [`Query::tables`] plus a column name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    pub table: usize,
    pub column: String,
}

impl ColRef {
    pub fn new(table: usize, column: impl Into<String>) -> Self {
        ColRef { table, column: column.into() }
    }
}

/// Comparison operators for filter predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
    Ne,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "<>",
        }
    }

    /// Evaluate the comparison on an already-computed three-way ordering.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Ne => ord != Equal,
        }
    }
}

/// A single-table filter predicate: `col OP literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub col: ColRef,
    pub op: CmpOp,
    pub value: Value,
}

impl Predicate {
    pub fn new(col: ColRef, op: CmpOp, value: Value) -> Self {
        Predicate { col, op, value }
    }
}

/// An equi-join predicate between two tables: `left = right`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPred {
    pub left: ColRef,
    pub right: ColRef,
}

impl JoinPred {
    pub fn new(left: ColRef, right: ColRef) -> Self {
        JoinPred { left, right }
    }

    /// Does this predicate connect the two given table sets?
    pub fn connects(&self, a: &[usize], b: &[usize]) -> bool {
        (a.contains(&self.left.table) && b.contains(&self.right.table))
            || (a.contains(&self.right.table) && b.contains(&self.left.table))
    }
}

/// Aggregate functions in the SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count(ColRef),
    Sum(ColRef),
    Min(ColRef),
    Max(ColRef),
    Avg(ColRef),
}

impl AggFunc {
    pub fn input(&self) -> Option<&ColRef> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(c)
            | AggFunc::Sum(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c)
            | AggFunc::Avg(c) => Some(c),
        }
    }
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    Column(ColRef),
    Agg(AggFunc),
}

/// A logical query block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    pub tables: Vec<TableRef>,
    pub select: Vec<SelectItem>,
    pub predicates: Vec<Predicate>,
    pub joins: Vec<JoinPred>,
    pub group_by: Vec<ColRef>,
    pub order_by: Vec<ColRef>,
    pub limit: Option<usize>,
}

impl Query {
    /// Filter predicates that apply to one FROM-list entry.
    pub fn predicates_on(&self, table: usize) -> Vec<&Predicate> {
        self.predicates.iter().filter(|p| p.col.table == table).collect()
    }

    /// All columns the query needs from one FROM-list entry (for
    /// index-only-scan eligibility).
    pub fn columns_needed(&self, table: usize) -> Vec<String> {
        let mut cols: Vec<String> = Vec::new();
        let mut add = |c: &ColRef| {
            if c.table == table && !cols.contains(&c.column) {
                cols.push(c.column.clone());
            }
        };
        for item in &self.select {
            match item {
                SelectItem::Column(c) => add(c),
                SelectItem::Agg(a) => {
                    if let Some(c) = a.input() {
                        add(c)
                    }
                }
            }
        }
        for p in &self.predicates {
            add(&p.col);
        }
        for j in &self.joins {
            add(&j.left);
            add(&j.right);
        }
        for c in self.group_by.iter().chain(self.order_by.iter()) {
            add(c);
        }
        cols
    }

    /// True when the SELECT list contains at least one aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(|s| matches!(s, SelectItem::Agg(_)))
    }
}

impl ToJson for ColRef {
    fn to_json(&self) -> Json {
        Json::obj([("table", self.table.to_json()), ("column", self.column.to_json())])
    }
}

impl FromJson for ColRef {
    fn from_json(j: &Json) -> Result<ColRef> {
        Ok(ColRef { table: json::field(j, "table")?, column: json::field(j, "column")? })
    }
}

impl ToJson for CmpOp {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                CmpOp::Eq => "Eq",
                CmpOp::Lt => "Lt",
                CmpOp::Le => "Le",
                CmpOp::Gt => "Gt",
                CmpOp::Ge => "Ge",
                CmpOp::Ne => "Ne",
            }
            .to_string(),
        )
    }
}

impl FromJson for CmpOp {
    fn from_json(j: &Json) -> Result<CmpOp> {
        match j.as_str() {
            Some("Eq") => Ok(CmpOp::Eq),
            Some("Lt") => Ok(CmpOp::Lt),
            Some("Le") => Ok(CmpOp::Le),
            Some("Gt") => Ok(CmpOp::Gt),
            Some("Ge") => Ok(CmpOp::Ge),
            Some("Ne") => Ok(CmpOp::Ne),
            _ => Err(BaoError::Parse(format!("unknown CmpOp {j:?}"))),
        }
    }
}

impl ToJson for Predicate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("col", self.col.to_json()),
            ("op", self.op.to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

impl FromJson for Predicate {
    fn from_json(j: &Json) -> Result<Predicate> {
        Ok(Predicate {
            col: json::field(j, "col")?,
            op: json::field(j, "op")?,
            value: json::field(j, "value")?,
        })
    }
}

impl ToJson for JoinPred {
    fn to_json(&self) -> Json {
        Json::obj([("left", self.left.to_json()), ("right", self.right.to_json())])
    }
}

impl FromJson for JoinPred {
    fn from_json(j: &Json) -> Result<JoinPred> {
        Ok(JoinPred { left: json::field(j, "left")?, right: json::field(j, "right")? })
    }
}

impl ToJson for AggFunc {
    fn to_json(&self) -> Json {
        match self {
            AggFunc::CountStar => Json::Str("CountStar".to_string()),
            AggFunc::Count(c) => Json::obj([("Count", c.to_json())]),
            AggFunc::Sum(c) => Json::obj([("Sum", c.to_json())]),
            AggFunc::Min(c) => Json::obj([("Min", c.to_json())]),
            AggFunc::Max(c) => Json::obj([("Max", c.to_json())]),
            AggFunc::Avg(c) => Json::obj([("Avg", c.to_json())]),
        }
    }
}

impl FromJson for AggFunc {
    fn from_json(j: &Json) -> Result<AggFunc> {
        if j.as_str() == Some("CountStar") {
            return Ok(AggFunc::CountStar);
        }
        for (tag, make) in [
            ("Count", AggFunc::Count as fn(ColRef) -> AggFunc),
            ("Sum", AggFunc::Sum),
            ("Min", AggFunc::Min),
            ("Max", AggFunc::Max),
            ("Avg", AggFunc::Avg),
        ] {
            if let Some(v) = j.get(tag) {
                return Ok(make(ColRef::from_json(v)?));
            }
        }
        Err(BaoError::Parse(format!("unknown AggFunc {j:?}")))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sel: Vec<String> = self
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Column(c) => format!("{}.{}", self.tables[c.table].alias, c.column),
                SelectItem::Agg(a) => {
                    let name = match a {
                        AggFunc::CountStar | AggFunc::Count(_) => "COUNT",
                        AggFunc::Sum(_) => "SUM",
                        AggFunc::Min(_) => "MIN",
                        AggFunc::Max(_) => "MAX",
                        AggFunc::Avg(_) => "AVG",
                    };
                    match a.input() {
                        Some(c) => {
                            format!("{name}({}.{})", self.tables[c.table].alias, c.column)
                        }
                        None => format!("{name}(*)"),
                    }
                }
            })
            .collect();
        let from: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                if t.alias == t.table {
                    t.table.clone()
                } else {
                    format!("{} {}", t.table, t.alias)
                }
            })
            .collect();
        write!(f, "SELECT {} FROM {}", sel.join(", "), from.join(", "))?;
        let mut conds: Vec<String> = self
            .joins
            .iter()
            .map(|j| {
                format!(
                    "{}.{} = {}.{}",
                    self.tables[j.left.table].alias,
                    j.left.column,
                    self.tables[j.right.table].alias,
                    j.right.column
                )
            })
            .collect();
        conds.extend(self.predicates.iter().map(|p| {
            format!(
                "{}.{} {} {}",
                self.tables[p.col.table].alias,
                p.col.column,
                p.op.symbol(),
                p.value
            )
        }));
        if !conds.is_empty() {
            write!(f, " WHERE {}", conds.join(" AND "))?;
        }
        let col_list = |cols: &[ColRef]| {
            cols.iter()
                .map(|c| format!("{}.{}", self.tables[c.table].alias, c.column))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY {}", col_list(&self.group_by))?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY {}", col_list(&self.order_by))?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        write!(f, ";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Query {
        Query {
            tables: vec![TableRef::new("title"), TableRef::aliased("cast_info", "ci")],
            select: vec![SelectItem::Agg(AggFunc::CountStar)],
            predicates: vec![Predicate::new(
                ColRef::new(0, "production_year"),
                CmpOp::Gt,
                Value::Int(2000),
            )],
            joins: vec![JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "movie_id"))],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn predicates_on_table() {
        let q = sample();
        assert_eq!(q.predicates_on(0).len(), 1);
        assert!(q.predicates_on(1).is_empty());
    }

    #[test]
    fn columns_needed_covers_joins_and_preds() {
        let q = sample();
        let mut c0 = q.columns_needed(0);
        c0.sort();
        assert_eq!(c0, vec!["id", "production_year"]);
        assert_eq!(q.columns_needed(1), vec!["movie_id"]);
    }

    #[test]
    fn display_is_sql_like() {
        let s = sample().to_string();
        assert!(s.starts_with("SELECT COUNT(*) FROM title, cast_info ci WHERE"), "{s}");
        assert!(s.contains("title.id = ci.movie_id"));
        assert!(s.contains("title.production_year > 2000"));
    }

    #[test]
    fn display_includes_group_and_order() {
        let mut q = sample();
        q.group_by = vec![ColRef::new(0, "production_year")];
        q.order_by = vec![ColRef::new(0, "production_year")];
        q.limit = Some(7);
        let s = q.to_string();
        assert!(s.contains("GROUP BY title.production_year"), "{s}");
        assert!(s.contains("ORDER BY title.production_year"), "{s}");
        assert!(s.ends_with("LIMIT 7;"), "{s}");
    }

    #[test]
    fn cmp_op_matches() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.matches(Equal));
        assert!(!CmpOp::Eq.matches(Less));
        assert!(CmpOp::Le.matches(Equal));
        assert!(CmpOp::Le.matches(Less));
        assert!(CmpOp::Ne.matches(Greater));
        assert!(CmpOp::Ge.matches(Greater));
        assert!(!CmpOp::Lt.matches(Greater));
    }

    #[test]
    fn join_pred_connects() {
        let j = JoinPred::new(ColRef::new(0, "id"), ColRef::new(2, "movie_id"));
        assert!(j.connects(&[0], &[2]));
        assert!(j.connects(&[2], &[0, 1]));
        assert!(!j.connects(&[0], &[1]));
        assert!(!j.connects(&[0, 2], &[1]));
    }

    #[test]
    fn has_aggregates() {
        let mut q = sample();
        assert!(q.has_aggregates());
        q.select = vec![SelectItem::Column(ColRef::new(0, "id"))];
        assert!(!q.has_aggregates());
    }
}
