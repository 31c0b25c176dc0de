//! Query template fingerprinting for the serving-layer plan cache.
//!
//! Most serving traffic is re-parameterized instances of a small set of
//! hot templates (the workload generators draw literals per instance but
//! keep the join graph, predicate columns, and projection fixed). A
//! [`QueryFingerprint`] captures that split: the `template` hash covers
//! everything structural — FROM list, join edges, predicate columns and
//! operators, SELECT shape, grouping, ordering, limit — while the
//! `params` hash covers only the *bucketized* literal values, so
//! near-identical instantiations share a cache line but a parameter
//! landing in a very different data region does not.
//!
//! Hashing is FNV-1a over a canonical byte encoding: fully deterministic
//! across processes and platforms (std's `RandomState` is lint-forbidden
//! for exactly this reason), and independent of any JSON rendering.

use crate::logical::{AggFunc, CmpOp, ColRef, Query, SelectItem};
use bao_storage::Value;

/// A (template, param-bucket) cache key for one query instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryFingerprint {
    /// Hash of the query's structure, literals excluded.
    pub template: u64,
    /// Hash of the bucketized literal values.
    pub params: u64,
}

/// Incremental FNV-1a (64-bit): tiny, deterministic, and good enough for
/// cache keying — collisions only cost a wrong cache hit's worth of
/// latency, never correctness of results (the cached payload is an arm
/// index, and every arm's plan is a correct plan).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_str(&mut self, s: &str) {
        // Length-prefix so ("ab","c") and ("a","bc") differ.
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

fn write_col(h: &mut Fnv64, c: &ColRef) {
    h.write_u64(c.table as u64);
    h.write_str(&c.column);
}

fn op_tag(op: CmpOp) -> u64 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Lt => 1,
        CmpOp::Le => 2,
        CmpOp::Gt => 3,
        CmpOp::Ge => 4,
        CmpOp::Ne => 5,
    }
}

fn write_agg(h: &mut Fnv64, a: &AggFunc) {
    let (tag, col) = match a {
        AggFunc::CountStar => (0u64, None),
        AggFunc::Count(c) => (1, Some(c)),
        AggFunc::Sum(c) => (2, Some(c)),
        AggFunc::Min(c) => (3, Some(c)),
        AggFunc::Max(c) => (4, Some(c)),
        AggFunc::Avg(c) => (5, Some(c)),
    };
    h.write_u64(tag);
    if let Some(c) = col {
        write_col(h, c);
    }
}

/// Bucket a literal so that "nearby" parameter draws collide: integers by
/// sign and magnitude order (floor of log2), floats by sign and binary
/// exponent, strings by length order. A cached arm choice transfers well
/// within a bucket — selectivity moves smoothly with the literal — while
/// wildly different parameters (a point lookup vs. a 90% range) land in
/// different buckets and are scored separately.
fn bucket(v: &Value) -> u64 {
    match v {
        Value::Int(i) => {
            let sign = u64::from(*i < 0);
            let mag = i.unsigned_abs();
            let order = 64 - mag.leading_zeros() as u64; // 0 for 0
            (sign << 32) | order
        }
        Value::Float(f) => {
            let sign = u64::from(f.is_sign_negative());
            // IEEE-754 biased exponent: equal for all values in one
            // binade, deterministic even for zeros/subnormals.
            let exp = (f.to_bits() >> 52) & 0x7ff;
            (1 << 33) | (sign << 32) | exp
        }
        Value::Str(s) => {
            let order = 64 - (s.len() as u64).leading_zeros() as u64;
            (1 << 34) | order
        }
    }
}

/// Fingerprint one query instance. Two instantiations of the same
/// workload template always share `template`; they share `params` exactly
/// when every literal falls in the same bucket as its counterpart.
pub fn fingerprint(query: &Query) -> QueryFingerprint {
    let mut t = Fnv64::new();
    t.write_u64(query.tables.len() as u64);
    for tr in &query.tables {
        t.write_str(&tr.table);
        t.write_str(&tr.alias);
    }
    t.write_u64(query.select.len() as u64);
    for s in &query.select {
        match s {
            SelectItem::Column(c) => {
                t.write_u64(0);
                write_col(&mut t, c);
            }
            SelectItem::Agg(a) => {
                t.write_u64(1);
                write_agg(&mut t, a);
            }
        }
    }
    t.write_u64(query.predicates.len() as u64);
    let mut p = Fnv64::new();
    for pred in &query.predicates {
        write_col(&mut t, &pred.col);
        t.write_u64(op_tag(pred.op));
        p.write_u64(bucket(&pred.value));
    }
    t.write_u64(query.joins.len() as u64);
    for j in &query.joins {
        write_col(&mut t, &j.left);
        write_col(&mut t, &j.right);
    }
    t.write_u64(query.group_by.len() as u64);
    for c in &query.group_by {
        write_col(&mut t, c);
    }
    t.write_u64(query.order_by.len() as u64);
    for c in &query.order_by {
        write_col(&mut t, c);
    }
    match query.limit {
        // LIMIT is structural (it changes the plan-shape tradeoff), so
        // its presence and magnitude order live in the template hash.
        Some(n) => t.write_u64(1 + (64 - (n as u64).leading_zeros() as u64)),
        None => t.write_u64(0),
    }
    QueryFingerprint { template: t.finish(), params: p.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{JoinPred, Predicate, TableRef};

    fn base_query(year: i64) -> Query {
        Query {
            tables: vec![TableRef::new("title"), TableRef::new("cast_info")],
            select: vec![SelectItem::Agg(AggFunc::CountStar)],
            predicates: vec![Predicate::new(ColRef::new(0, "year"), CmpOp::Gt, Value::Int(year))],
            joins: vec![JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "movie_id"))],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn reparameterized_instances_share_a_template() {
        let a = fingerprint(&base_query(1990));
        let b = fingerprint(&base_query(1995));
        assert_eq!(a.template, b.template);
        // Same magnitude order → same parameter bucket.
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn distant_parameters_split_buckets() {
        let a = fingerprint(&base_query(1990));
        let b = fingerprint(&base_query(3));
        assert_eq!(a.template, b.template);
        assert_ne!(a.params, b.params);
    }

    #[test]
    fn structural_changes_change_the_template() {
        let a = fingerprint(&base_query(1990));
        let mut q = base_query(1990);
        q.predicates[0].op = CmpOp::Lt;
        assert_ne!(a.template, fingerprint(&q).template);
        let mut q = base_query(1990);
        q.predicates[0].col = ColRef::new(0, "id");
        assert_ne!(a.template, fingerprint(&q).template);
        let mut q = base_query(1990);
        q.order_by = vec![ColRef::new(0, "year")];
        assert_ne!(a.template, fingerprint(&q).template);
        let mut q = base_query(1990);
        q.limit = Some(10);
        assert_ne!(a.template, fingerprint(&q).template);
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let q = base_query(2000);
        assert_eq!(fingerprint(&q), fingerprint(&q));
    }

    #[test]
    fn value_buckets_distinguish_kinds_and_signs() {
        assert_ne!(bucket(&Value::Int(8)), bucket(&Value::Int(-8)));
        assert_ne!(bucket(&Value::Int(2)), bucket(&Value::Float(2.0)));
        assert_eq!(bucket(&Value::Float(2.5)), bucket(&Value::Float(3.9)));
        assert_ne!(bucket(&Value::Float(2.5)), bucket(&Value::Float(5.0)));
        assert_eq!(bucket(&Value::Str("abcd".into())), bucket(&Value::Str("wxyz".into())));
        assert_ne!(
            bucket(&Value::Str("ab".into())),
            bucket(&Value::Str("a-very-long-literal".into()))
        );
    }
}
