//! Recursive-descent parser from tokens to [`bao_plan::Query`].

use crate::lexer::{tokenize, Token};
use bao_common::{BaoError, Result};
use bao_plan::{AggFunc, CmpOp, ColRef, JoinPred, Predicate, Query, SelectItem, TableRef};
use bao_storage::Value;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Query),
    /// `EXPLAIN SELECT ...` — callers render the plan (and, with Bao in
    /// advisor mode, the Figure 6 augmentation) instead of executing.
    Explain(Query),
    /// `EXPLAIN ANALYZE SELECT ...` — callers run the query as a `SELECT`
    /// and render the executed plan with true row counts.
    ExplainAnalyze(Query),
}

/// Parse one SQL SELECT statement.
pub fn parse_query(sql: &str) -> Result<Query> {
    match parse_statement(sql)? {
        Statement::Select(q) | Statement::Explain(q) | Statement::ExplainAnalyze(q) => Ok(q),
    }
}

/// Parse a statement, distinguishing `EXPLAIN` and `EXPLAIN ANALYZE`
/// from plain `SELECT`.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let explain = p.keyword_is("EXPLAIN");
    if explain {
        p.next();
    }
    // `ANALYZE` is not a keyword: it stays usable as a name elsewhere.
    let analyze =
        explain && matches!(p.peek(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case("ANALYZE"));
    if analyze {
        p.next();
    }
    let q = p.query()?;
    p.eat_if(&Token::Semicolon);
    if !p.at_end() {
        return Err(BaoError::Parse(format!("trailing tokens after query: {:?}", p.peek())));
    }
    Ok(match (explain, analyze) {
        (true, true) => Statement::ExplainAnalyze(q),
        (true, false) => Statement::Explain(q),
        _ => Statement::Select(q),
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// A column name as written: optionally qualified by a table alias.
#[derive(Debug, Clone)]
struct RawCol {
    qualifier: Option<String>,
    column: String,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            other => Err(BaoError::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn keyword_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if k == kw)
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(BaoError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let raw_select = self.select_list()?;
        self.expect_keyword("FROM")?;
        let tables = self.table_list()?;

        let mut raw_conds = Vec::new();
        if self.keyword_is("WHERE") {
            self.next();
            loop {
                raw_conds.extend(self.condition()?);
                if !self.keyword_is("AND") {
                    break;
                }
                self.next();
            }
        }

        let mut raw_group = Vec::new();
        if self.keyword_is("GROUP") {
            self.next();
            self.expect_keyword("BY")?;
            raw_group = self.col_list()?;
        }

        let mut raw_order = Vec::new();
        if self.keyword_is("ORDER") {
            self.next();
            self.expect_keyword("BY")?;
            raw_order = self.col_list()?;
            // Direction is accepted and ignored (sort direction does not
            // change plan shape in this engine).
            while self.keyword_is("ASC") || self.keyword_is("DESC") {
                self.next();
            }
        }

        let mut limit = None;
        if self.keyword_is("LIMIT") {
            self.next();
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => limit = Some(n as usize),
                other => {
                    return Err(BaoError::Parse(format!("expected LIMIT count, found {other:?}")))
                }
            }
        }

        // Resolve raw column references against the FROM list.
        let resolver = Resolver { tables: &tables };
        let select = raw_select
            .into_iter()
            .map(|item| item.resolve(&resolver))
            .collect::<Result<Vec<_>>>()?;
        let mut predicates = Vec::new();
        let mut joins = Vec::new();
        for cond in raw_conds {
            match cond {
                RawCond::Filter { col, op, value } => {
                    predicates.push(Predicate::new(resolver.resolve(&col)?, op, value))
                }
                RawCond::Join { left, right } => {
                    joins.push(JoinPred::new(resolver.resolve(&left)?, resolver.resolve(&right)?))
                }
            }
        }
        let group_by = raw_group.iter().map(|c| resolver.resolve(c)).collect::<Result<Vec<_>>>()?;
        let order_by = raw_order.iter().map(|c| resolver.resolve(c)).collect::<Result<Vec<_>>>()?;

        Ok(Query { tables, select, predicates, joins, group_by, order_by, limit })
    }

    fn select_list(&mut self) -> Result<Vec<RawSelect>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<RawSelect> {
        match self.peek().cloned() {
            Some(Token::Keyword(kw))
                if matches!(kw.as_str(), "COUNT" | "SUM" | "MIN" | "MAX" | "AVG") =>
            {
                self.next();
                if self.next() != Some(Token::LParen) {
                    return Err(BaoError::Parse(format!("expected ( after {kw}")));
                }
                let item = if kw == "COUNT" && self.eat_if(&Token::Star) {
                    RawSelect::Agg(RawAgg::CountStar)
                } else {
                    let col = self.raw_col()?;
                    RawSelect::Agg(match kw.as_str() {
                        "COUNT" => RawAgg::Count(col),
                        "SUM" => RawAgg::Sum(col),
                        "MIN" => RawAgg::Min(col),
                        "MAX" => RawAgg::Max(col),
                        "AVG" => RawAgg::Avg(col),
                        _ => unreachable!(),
                    })
                };
                if self.next() != Some(Token::RParen) {
                    return Err(BaoError::Parse("expected ) closing aggregate".into()));
                }
                Ok(item)
            }
            Some(Token::Ident(_)) => Ok(RawSelect::Column(self.raw_col()?)),
            other => Err(BaoError::Parse(format!("bad select item: {other:?}"))),
        }
    }

    fn table_list(&mut self) -> Result<Vec<TableRef>> {
        let mut tables = Vec::new();
        loop {
            let name = self.ident()?;
            // optional [AS] alias
            let alias = if self.keyword_is("AS") {
                self.next();
                Some(self.ident()?)
            } else if matches!(self.peek(), Some(Token::Ident(_))) {
                Some(self.ident()?)
            } else {
                None
            };
            tables.push(match alias {
                Some(a) => TableRef::aliased(name, a),
                None => TableRef::new(name),
            });
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(tables)
    }

    fn col_list(&mut self) -> Result<Vec<RawCol>> {
        let mut cols = vec![self.raw_col()?];
        while self.eat_if(&Token::Comma) {
            cols.push(self.raw_col()?);
        }
        Ok(cols)
    }

    fn raw_col(&mut self) -> Result<RawCol> {
        let first = self.ident()?;
        if self.eat_if(&Token::Dot) {
            let column = self.ident()?;
            Ok(RawCol { qualifier: Some(first), column })
        } else {
            Ok(RawCol { qualifier: None, column: first })
        }
    }

    /// One WHERE condition; `BETWEEN lo AND hi` desugars to two range
    /// predicates, hence the Vec.
    fn condition(&mut self) -> Result<Vec<RawCond>> {
        let left = self.raw_col()?;
        if self.keyword_is("BETWEEN") {
            self.next();
            let lo = self.literal()?;
            self.expect_keyword("AND")?;
            let hi = self.literal()?;
            return Ok(vec![
                RawCond::Filter { col: left.clone(), op: CmpOp::Ge, value: lo },
                RawCond::Filter { col: left, op: CmpOp::Le, value: hi },
            ]);
        }
        match self.next() {
            Some(Token::Op(op)) => {
                let op = parse_op(&op)?;
                match self.peek().cloned() {
                    Some(Token::Int(_)) | Some(Token::Float(_)) | Some(Token::Str(_)) => {
                        let value = self.literal()?;
                        Ok(vec![RawCond::Filter { col: left, op, value }])
                    }
                    Some(Token::Ident(_)) => {
                        let right = self.raw_col()?;
                        if op != CmpOp::Eq {
                            return Err(BaoError::Parse(
                                "only equi-joins between columns are supported".into(),
                            ));
                        }
                        Ok(vec![RawCond::Join { left, right }])
                    }
                    other => Err(BaoError::Parse(format!("bad comparison operand: {other:?}"))),
                }
            }
            other => Err(BaoError::Parse(format!("expected comparison operator, found {other:?}"))),
        }
    }
}

impl Parser {
    fn literal(&mut self) -> Result<Value> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Value::Int(v)),
            Some(Token::Float(v)) => Ok(Value::Float(v)),
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            other => Err(BaoError::Parse(format!("expected literal, found {other:?}"))),
        }
    }
}

fn parse_op(op: &str) -> Result<CmpOp> {
    Ok(match op {
        "=" => CmpOp::Eq,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        "<>" => CmpOp::Ne,
        other => return Err(BaoError::Parse(format!("unknown operator {other}"))),
    })
}

enum RawSelect {
    Column(RawCol),
    Agg(RawAgg),
}

enum RawAgg {
    CountStar,
    Count(RawCol),
    Sum(RawCol),
    Min(RawCol),
    Max(RawCol),
    Avg(RawCol),
}

enum RawCond {
    Filter { col: RawCol, op: CmpOp, value: Value },
    Join { left: RawCol, right: RawCol },
}

struct Resolver<'a> {
    tables: &'a [TableRef],
}

impl Resolver<'_> {
    fn resolve(&self, raw: &RawCol) -> Result<ColRef> {
        match &raw.qualifier {
            Some(q) => {
                let idx = self
                    .tables
                    .iter()
                    .position(|t| &t.alias == q)
                    .ok_or_else(|| BaoError::Parse(format!("unknown table alias {q}")))?;
                Ok(ColRef::new(idx, raw.column.clone()))
            }
            None => {
                if self.tables.len() == 1 {
                    Ok(ColRef::new(0, raw.column.clone()))
                } else {
                    Err(BaoError::Parse(format!(
                        "column {} must be qualified in a multi-table query",
                        raw.column
                    )))
                }
            }
        }
    }
}

impl RawSelect {
    fn resolve(self, r: &Resolver<'_>) -> Result<SelectItem> {
        Ok(match self {
            RawSelect::Column(c) => SelectItem::Column(r.resolve(&c)?),
            RawSelect::Agg(a) => SelectItem::Agg(match a {
                RawAgg::CountStar => AggFunc::CountStar,
                RawAgg::Count(c) => AggFunc::Count(r.resolve(&c)?),
                RawAgg::Sum(c) => AggFunc::Sum(r.resolve(&c)?),
                RawAgg::Min(c) => AggFunc::Min(r.resolve(&c)?),
                RawAgg::Max(c) => AggFunc::Max(r.resolve(&c)?),
                RawAgg::Avg(c) => AggFunc::Avg(r.resolve(&c)?),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_table_query() {
        let q = parse_query("SELECT COUNT(*) FROM title WHERE production_year > 2000;").unwrap();
        assert_eq!(q.tables, vec![TableRef::new("title")]);
        assert_eq!(q.select, vec![SelectItem::Agg(AggFunc::CountStar)]);
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(q.predicates[0].op, CmpOp::Gt);
        assert_eq!(q.predicates[0].value, Value::Int(2000));
    }

    #[test]
    fn join_query_with_aliases() {
        let q = parse_query(
            "SELECT MIN(t.production_year) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND ci.role_id = 2",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].left, ColRef::new(0, "id"));
        assert_eq!(q.joins[0].right, ColRef::new(1, "movie_id"));
        assert_eq!(q.predicates[0].col, ColRef::new(1, "role_id"));
    }

    #[test]
    fn self_join_distinct_aliases() {
        let q = parse_query("SELECT COUNT(*) FROM person a, person b WHERE a.id = b.mentor_id")
            .unwrap();
        assert_eq!(q.joins[0].left.table, 0);
        assert_eq!(q.joins[0].right.table, 1);
    }

    #[test]
    fn group_order_limit() {
        let q = parse_query(
            "SELECT t.kind, COUNT(*) FROM title t GROUP BY t.kind ORDER BY t.kind DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.group_by, vec![ColRef::new(0, "kind")]);
        assert_eq!(q.order_by, vec![ColRef::new(0, "kind")]);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn string_and_float_literals() {
        let q = parse_query("SELECT id FROM t WHERE kind = 'movie' AND score >= 7.5").unwrap();
        assert_eq!(q.predicates[0].value, Value::Str("movie".into()));
        assert_eq!(q.predicates[1].value, Value::Float(7.5));
    }

    #[test]
    fn as_alias_supported() {
        let q = parse_query("SELECT x.id FROM widgets AS x").unwrap();
        assert_eq!(q.tables[0].alias, "x");
        assert_eq!(q.tables[0].table, "widgets");
    }

    #[test]
    fn aggregates_all_forms() {
        let q = parse_query(
            "SELECT COUNT(*), COUNT(t.id), SUM(t.a), MIN(t.b), MAX(t.c), AVG(t.d) FROM t",
        )
        .unwrap();
        assert_eq!(q.select.len(), 6);
        assert!(q.has_aggregates());
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT FROM t").is_err());
        assert!(parse_query("SELECT * FROM").is_err());
        assert!(parse_query("SELECT a.x FROM t a, u b WHERE x = 1").is_err(), "ambiguous column");
        assert!(parse_query("SELECT a.x FROM t a WHERE z.y = 1").is_err(), "unknown alias");
        assert!(parse_query("SELECT a.x FROM t a WHERE a.x < a.y").is_err(), "non-equi join");
        assert!(parse_query("SELECT a.x FROM t a LIMIT x").is_err());
        assert!(parse_query("SELECT a.x FROM t a; garbage").is_err());
    }

    #[test]
    fn star_only_in_count() {
        assert!(parse_query("SELECT * FROM t").is_err());
    }

    #[test]
    fn between_desugars_to_range() {
        let q =
            parse_query("SELECT COUNT(*) FROM t WHERE year BETWEEN 1990 AND 2000 AND kind = 'tv'")
                .unwrap();
        assert_eq!(q.predicates.len(), 3);
        assert_eq!(q.predicates[0].op, CmpOp::Ge);
        assert_eq!(q.predicates[0].value, Value::Int(1990));
        assert_eq!(q.predicates[1].op, CmpOp::Le);
        assert_eq!(q.predicates[1].value, Value::Int(2000));
        assert_eq!(q.predicates[2].value, Value::Str("tv".into()));
        assert!(parse_query("SELECT COUNT(*) FROM t WHERE x BETWEEN 1").is_err());
        assert!(parse_query("SELECT COUNT(*) FROM t WHERE x BETWEEN 1 AND y").is_err());
    }

    #[test]
    fn explain_statements() {
        let s = parse_statement("EXPLAIN SELECT COUNT(*) FROM t WHERE x = 1").unwrap();
        assert!(matches!(s, Statement::Explain(_)));
        let s = parse_statement("SELECT COUNT(*) FROM t").unwrap();
        assert!(matches!(s, Statement::Select(_)));
        // parse_query accepts both forms
        assert!(parse_query("EXPLAIN SELECT COUNT(*) FROM t").is_ok());
        assert!(parse_statement("EXPLAIN EXPLAIN SELECT COUNT(*) FROM t").is_err());
        let s = parse_statement("explain analyze SELECT COUNT(*) FROM t;").unwrap();
        assert!(matches!(s, Statement::ExplainAnalyze(_)));
        assert!(parse_query("EXPLAIN ANALYZE SELECT COUNT(*) FROM t").is_ok());
        assert!(parse_statement("ANALYZE SELECT COUNT(*) FROM t").is_err());
        assert!(parse_statement("EXPLAIN ANALYZE ANALYZE SELECT COUNT(*) FROM t").is_err());
    }
}
