//! Plan execution: true-cardinality evaluation with per-algorithm cost
//! charging.
//!
//! Everything runs on the caller's thread (DESIGN.md §13). Every
//! order-sensitive effect — buffer-pool touches, f64 meter charges, the
//! join's table and output, the aggregate fold — happens in pinned row
//! order, so output bytes and `ExecutionMetrics` are a function of the
//! plan, the data and the pool's state alone.
//!
//! A join's rows are written only where a parent reads whole rows: a
//! sort, a cyclic join's filter, a parameterized nested loop's outer and
//! the root's output. A hash, merge or rescanning nested-loop join hands
//! its parent its count pass (`Relation`); a join or an aggregate above
//! it reads the columns it needs through the count passes, in the order
//! the written rows would have had. Under an aggregate that reads no
//! column, a parameterized nested loop counts its rows instead of
//! writing them.

use crate::charge::{ChargeRates, Meters, PageAccess};
use crate::eval::{column_of, compile_preds, filter_rows, ColView};
use crate::metrics::ExecutionMetrics;
use crate::rowset::RowSet;
use bao_common::hash::FastMap;
use bao_common::{BaoError, Result};
use bao_opt::CostParams;
use bao_plan::{AggFunc, ColRef, JoinPred, Operator, PlanNode, Query, SelectItem};
use bao_storage::{BufferPool, Database, PageKey, StoredTable, Table, Value};
use std::collections::HashMap;

/// Executor errors are ordinary [`BaoError`]s; alias kept for clarity at
/// call sites.
pub type ExecError = BaoError;

/// Safety cap on intermediate result sizes. The synthetic workloads stay
/// orders of magnitude below this; hitting it indicates a malformed query.
const ROW_CAP: usize = 20_000_000;

/// Cap on materialized output rows for non-aggregate queries.
const OUTPUT_CAP: usize = 10_000;

/// What every operator returns in place of more than `ROW_CAP` rows.
fn too_large() -> BaoError {
    BaoError::Planning("intermediate result too large".into())
}

/// What the join's count pass found: enough to write the output without
/// looking at a key again, and its size before a row of it exists. Its
/// rows are left rows in order, each one's right rows ascending.
struct JoinMatches {
    /// Each left row's matches: a `(start, count)` range of `perm`.
    spans: Vec<(u32, u32)>,
    /// Right row positions grouped by key, ascending within a key.
    perm: Vec<u32>,
    /// Output rows, already held against the cap.
    total: usize,
}

impl JoinMatches {
    /// Each left row's matching right row positions, in order.
    fn matched(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.spans.iter().map(|&(start, n)| &self.perm[start as usize..(start + n) as usize])
    }

    /// The joined rows in one allocation of exactly `total` rows.
    fn fill(&self, left: &RowSet, right: &RowSet) -> RowSet {
        let tables = left.tables.iter().chain(&right.tables).copied().collect();
        let mut out = RowSet::with_capacity(tables, self.total);
        for (rows, lrow) in self.matched().zip(left.iter()) {
            for &ri in rows {
                out.push_joined(lrow, right.row(ri as usize));
            }
        }
        out
    }

    /// One value per output row from one per left row: each left row's
    /// value once per match. A row with at most four matches stores four
    /// copies, and the rows after it overwrite the surplus: a store of
    /// fixed width, where a loop of the row's match count mispredicts its
    /// exit on most rows (DESIGN.md §13).
    fn expand<T: Copy + Default>(&self, left: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); self.total + 4];
        let mut end = 0;
        for (&(_, n), &v) in self.spans.iter().zip(left) {
            let n = n as usize;
            if n <= 4 {
                out[end..end + 4].fill(v);
            } else {
                out[end..end + n].fill(v);
            }
            end += n;
        }
        out.truncate(self.total);
        out
    }

    /// One value per output row from one per right row: each match's.
    fn gather<T: Copy>(&self, right: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(self.total);
        for rows in self.matched() {
            out.extend(rows.iter().map(|&ri| right[ri as usize]));
        }
        out
    }
}

/// The join's table: each build key's `(start, count)` range of the
/// build's `perm`; a key no build row holds has an empty one.
enum JoinTable {
    /// Keys `min..=max` at `slots[key - min]`: build keys whose span is
    /// small against the build, which every dense id column is.
    Dense {
        min: i64,
        max: i64,
        slots: Vec<(u32, u32)>,
    },
    Hashed(FastMap<i64, (u32, u32)>),
}

impl JoinTable {
    /// The table of `keys` (one per right row) and its `perm`, the right
    /// row positions grouped by key, ascending within a key. A count pass
    /// sizes each key's range, a prefix sum lays the ranges end to end (a
    /// hashed table's in map order: only the order within a range is
    /// seen), and a reverse scatter fills each range from its end.
    ///
    /// The table is direct-indexed when the keys' span, `max - min + 1`,
    /// is at most `4 × keys + 64`, hashed otherwise.
    fn build(keys: &[i64]) -> (JoinTable, Vec<u32>) {
        let (min, max) =
            keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        // In i128: the span of `i64::MIN..=i64::MAX` overflows `i64`, and
        // an empty build's is negative.
        let span = i128::from(max) - i128::from(min) + 1;
        let mut table = match usize::try_from(span) {
            Ok(span) if span > 0 && span <= 4 * keys.len() + 64 => {
                JoinTable::Dense { min, max, slots: vec![(0, 0); span] }
            }
            _ => JoinTable::Hashed(FastMap::default()),
        };
        for &key in keys {
            table.entry(key).1 += 1;
        }
        let mut end = 0;
        let place = |(start, count): &mut (u32, u32)| {
            end += *count;
            *start = end;
        };
        match &mut table {
            JoinTable::Dense { slots, .. } => slots.iter_mut().for_each(place),
            JoinTable::Hashed(map) => map.values_mut().for_each(place),
        }
        let mut perm = vec![0; keys.len()];
        for (ri, &key) in keys.iter().enumerate().rev() {
            let start = &mut table.entry(key).0;
            *start -= 1;
            perm[*start as usize] = ri as u32;
        }
        (table, perm)
    }

    /// Build key `key`'s entry, created empty.
    fn entry(&mut self, key: i64) -> &mut (u32, u32) {
        match self {
            // `key` is a build key, so `key - min` is within the span.
            JoinTable::Dense { min, slots, .. } => &mut slots[key.wrapping_sub(*min) as usize],
            JoinTable::Hashed(map) => map.entry(key).or_insert((0, 0)),
        }
    }

    /// Probe key `key`'s range: empty when no build key equals it.
    fn get(&self, key: i64) -> (u32, u32) {
        match self {
            JoinTable::Dense { min, max, slots } if (*min..=*max).contains(&key) => {
                slots[key.wrapping_sub(*min) as usize]
            }
            JoinTable::Dense { .. } => (0, 0),
            JoinTable::Hashed(map) => map.get(&key).copied().unwrap_or((0, 0)),
        }
    }
}

/// The execution width the benchmark's `exec.shard_auto_ratio` probe
/// names. No code reads it: execution runs on the caller's thread. It
/// goes, with [`execute_with`], in the benchmark's next revision (ROADMAP
/// direction 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    pub shard_workers: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { shard_workers: 1 }
    }
}

/// [`execute`]; the width is not read. It goes, with [`ExecConfig`], in
/// the benchmark's next revision (ROADMAP direction 5).
pub fn execute_with(
    plan: &PlanNode,
    query: &Query,
    db: &Database,
    pool: &mut BufferPool,
    params: &CostParams,
    rates: &ChargeRates,
    _exec: &ExecConfig,
) -> Result<ExecutionMetrics> {
    execute(plan, query, db, pool, params, rates)
}

/// Execute `plan` for `query` against `db`, charging `pool` traffic and
/// returning full metrics. The buffer pool carries state across calls, so
/// consecutive executions see realistic cache warmth.
pub fn execute(
    plan: &PlanNode,
    query: &Query,
    db: &Database,
    pool: &mut BufferPool,
    params: &CostParams,
    rates: &ChargeRates,
) -> Result<ExecutionMetrics> {
    // Debug builds (and therefore every test run) re-verify the plan at
    // the execution boundary, catching trees corrupted between planning
    // and execution (e.g. by featurization experiments).
    #[cfg(debug_assertions)]
    bao_plan::verify::verify(plan, query, db)?;

    let mut ctx = Ctx::new(query, db, pool, params, ROW_CAP)?;
    ctx.node_rows.reserve_exact(plan.node_count());
    let out = ctx.exec_node(plan, false)?;
    ctx.finish(out, rates)
}

/// Output of one plan node: composite row ids below aggregation,
/// materialized value rows at and above it.
enum NodeOut {
    Rows(Relation),
    Agg(Vec<Vec<Value>>),
}

impl From<RowSet> for NodeOut {
    fn from(rs: RowSet) -> NodeOut {
        NodeOut::Rows(Relation::Rows(rs))
    }
}

/// Composite row ids: written out, a join's still as its count pass over
/// its inputs' relations, or only counted. A join's rows are written only
/// where a parent reads whole rows: a sort, a filter, a parameterized
/// nested loop's outer and the root's output. Every other parent reads
/// the slots it needs through the count passes ([`Relation::read`]). Only
/// an aggregate that reads no column is handed a relation that was only
/// counted.
enum Relation {
    Rows(RowSet),
    Join { left: Box<Relation>, right: Box<Relation>, matches: JoinMatches },
    Counted { tables: Vec<usize>, rows: usize },
}

impl Relation {
    /// `left` joined to `right`, as the join's count pass.
    fn join(left: Relation, right: Relation, matches: JoinMatches) -> Relation {
        Relation::Join { left: Box::new(left), right: Box::new(right), matches }
    }

    fn len(&self) -> usize {
        match self {
            Relation::Rows(rs) => rs.len(),
            Relation::Join { matches, .. } => matches.total,
            Relation::Counted { rows, .. } => *rows,
        }
    }

    /// Ids per row tuple.
    fn width(&self) -> usize {
        match self {
            Relation::Rows(rs) => rs.width(),
            Relation::Join { left, right, .. } => left.width() + right.width(),
            Relation::Counted { tables, .. } => tables.len(),
        }
    }

    /// Position of a FROM-list entry within each row tuple.
    fn slot_of(&self, table: usize) -> Option<usize> {
        match self {
            Relation::Rows(rs) => rs.slot_of(table),
            Relation::Join { left, right, .. } => {
                left.slot_of(table).or_else(|| Some(left.width() + right.slot_of(table)?))
            }
            Relation::Counted { tables, .. } => tables.iter().position(|&t| t == table),
        }
    }

    /// The rows, written out: a join's filled from its inputs' rows.
    fn into_rows(self) -> Result<RowSet> {
        match self {
            Relation::Rows(rs) => Ok(rs),
            Relation::Join { left, right, matches } => {
                Ok(matches.fill(&left.into_rows()?, &right.into_rows()?))
            }
            Relation::Counted { .. } => Err(no_rows()),
        }
    }

    /// One value per row, in order, for slot `slot`, without writing a
    /// row: `read` maps a written row set's slot to one value per row of
    /// it, and a join expands its left input's values or gathers its right
    /// input's. A join without rows reads neither input.
    fn read<T: Copy + Default>(
        &self,
        slot: usize,
        read: &impl Fn(&RowSet, usize) -> Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        match self {
            Relation::Rows(rs) => read(rs, slot),
            Relation::Join { matches, .. } if matches.total == 0 => Ok(Vec::new()),
            Relation::Join { left, right, matches } => match slot.checked_sub(left.width()) {
                None => Ok(matches.expand(&left.read(slot, read)?)),
                Some(slot) => Ok(matches.gather(&right.read(slot, read)?)),
            },
            Relation::Counted { .. } => Err(no_rows()),
        }
    }

    /// Slot `slot`'s ids of every row, in order.
    fn slot_ids(&self, slot: usize) -> Result<Vec<u32>> {
        self.read(slot, &|rs, slot| Ok(rs.slot_ids(slot).collect()))
    }

    /// Each row's range in `table`, by its join key in slot `slot` of
    /// `col`: a key is read and looked up once per row of the row set
    /// that holds the slot, not once per row of the joins above it.
    fn probe(&self, slot: usize, col: ColView<'_>, table: &JoinTable) -> Result<Vec<(u32, u32)>> {
        self.read(slot, &|rs, slot| {
            Ok(col.join_keys(rs.slot_ids(slot))?.into_iter().map(|key| table.get(key)).collect())
        })
    }
}

/// What reading the rows of a relation that was only counted returns.
fn no_rows() -> BaoError {
    BaoError::Planning("rows read from a relation that was only counted".into())
}

/// The inner of a parameterized nested loop: an index scan of FROM
/// position `table` for `column = param`, with `residual` on each fetched
/// row, or an index-only scan (`index_only`, no residual).
struct ParamInner<'p> {
    table: usize,
    column: &'p str,
    residual: &'p [bao_plan::Predicate],
    param: &'p ColRef,
    index_only: bool,
}

impl<'p> ParamInner<'p> {
    /// `node` as the inner of a parameterized nested loop, if it is one.
    fn of(node: &'p PlanNode) -> Option<ParamInner<'p>> {
        match &node.op {
            Operator::IndexScan { table, column, residual, param: Some(param), .. } => {
                Some(ParamInner { table: *table, column, residual, param, index_only: false })
            }
            Operator::IndexOnlyScan { table, column, param: Some(param), .. } => {
                Some(ParamInner { table: *table, column, residual: &[], param, index_only: true })
            }
            _ => None,
        }
    }
}

struct Ctx<'a> {
    query: &'a Query,
    stored: Vec<&'a StoredTable>,
    tables: Vec<&'a Table>,
    pool: &'a mut BufferPool,
    params: &'a CostParams,
    meters: Meters,
    node_rows: Vec<u64>,
    /// Most rows any operator may produce: [`ROW_CAP`] outside tests.
    row_cap: usize,
}

impl<'a> Ctx<'a> {
    fn new(
        query: &'a Query,
        db: &'a Database,
        pool: &'a mut BufferPool,
        params: &'a CostParams,
        row_cap: usize,
    ) -> Result<Ctx<'a>> {
        let stored: Vec<&StoredTable> =
            query.tables.iter().map(|t| db.by_name(&t.table)).collect::<Result<Vec<_>>>()?;
        let tables: Vec<&Table> = stored.iter().map(|s| &s.table).collect();
        Ok(Ctx {
            query,
            stored,
            tables,
            pool,
            params,
            meters: Meters::default(),
            node_rows: Vec::new(),
            row_cap,
        })
    }

    /// The metrics of a run whose root returned `out`.
    fn finish(mut self, out: NodeOut, rates: &ChargeRates) -> Result<ExecutionMetrics> {
        let (rows_out, output) = self.materialize_output(out)?;
        let m = self.meters;
        Ok(ExecutionMetrics {
            latency: m.latency(rates),
            cpu_time: m.cpu_time(rates),
            io_time: m.io_time(rates),
            page_hits: m.page_hits,
            page_misses: m.page_misses,
            rows_out,
            node_true_rows: self.node_rows,
            output,
        })
    }

    /// Run `node`. With `count_only` its parent reads nothing but the
    /// row count, so a parameterized nested loop may count its rows
    /// instead of writing them.
    fn exec_node(&mut self, node: &PlanNode, count_only: bool) -> Result<NodeOut> {
        let my = self.node_rows.len();
        self.node_rows.push(0);
        let out: NodeOut = match &node.op {
            Operator::SeqScan { table, preds } => self.seq_scan(*table, preds)?.into(),
            Operator::IndexScan { table, column, lo, hi, residual, param } => {
                if param.is_some() {
                    return Err(BaoError::Planning(
                        "parameterized scan outside a nested-loop inner".into(),
                    ));
                }
                self.index_scan(*table, column, *lo, *hi, residual, false)?.into()
            }
            Operator::IndexOnlyScan { table, column, lo, hi, param } => {
                if param.is_some() {
                    return Err(BaoError::Planning(
                        "parameterized scan outside a nested-loop inner".into(),
                    ));
                }
                self.index_scan(*table, column, *lo, *hi, &[], true)?.into()
            }
            Operator::NestedLoopJoin { pred } => {
                NodeOut::Rows(self.nested_loop(node, pred, count_only)?)
            }
            Operator::HashJoin { pred } | Operator::MergeJoin { pred } => {
                let left = self.exec_relation(&node.children[0], false)?;
                let right = self.exec_relation(&node.children[1], false)?;
                let matches = self.join_matches(&left, &right, pred, self.row_cap)?;
                let (l, r, out) = (left.len() as f64, right.len() as f64, matches.total as f64);
                self.meters.charge_cpu(match node.op {
                    Operator::HashJoin { .. } => self.params.hash_join(l, r, out),
                    _ => self.params.merge_join(l, r, out),
                });
                NodeOut::Rows(Relation::join(left, right, matches))
            }
            Operator::Filter { preds } => {
                let child = self.exec_relation(&node.children[0], false)?.into_rows()?;
                self.meters.charge_cpu(
                    child.len() as f64 * preds.len() as f64 * self.params.cpu_operator_cost,
                );
                self.join_filter(child, preds)?.into()
            }
            Operator::Sort { keys } => {
                let child = self.exec_node(&node.children[0], false)?;
                match child {
                    NodeOut::Rows(rel) => {
                        let rs = rel.into_rows()?;
                        self.meters.charge_cpu(self.params.sort(rs.len() as f64));
                        self.sort_rows(rs, keys)?.into()
                    }
                    NodeOut::Agg(mut rows) => {
                        self.meters.charge_cpu(self.params.sort(rows.len() as f64));
                        // Order value rows by the sort keys' positions in
                        // the SELECT list (keys not projected can't affect
                        // observable order).
                        let positions: Vec<usize> = keys
                            .iter()
                            .filter_map(|k| {
                                self.query
                                    .select
                                    .iter()
                                    .position(|s| matches!(s, SelectItem::Column(c) if c == k))
                            })
                            .collect();
                        rows.sort_by(|a, b| {
                            for &p in &positions {
                                let ord = cmp_values(&a[p], &b[p]);
                                if ord != std::cmp::Ordering::Equal {
                                    return ord;
                                }
                            }
                            std::cmp::Ordering::Equal
                        });
                        NodeOut::Agg(rows)
                    }
                }
            }
            Operator::Aggregate { group_by, aggs } => {
                // Counts without GROUP BY read no column of their input.
                let count_only = group_by.is_empty()
                    && aggs.iter().all(|a| matches!(a, AggFunc::CountStar | AggFunc::Count(_)));
                let child = self.exec_relation(&node.children[0], count_only)?;
                let rows = self.aggregate(&child, group_by, aggs)?;
                self.meters
                    .charge_cpu(self.params.aggregate(child.len() as f64, rows.len() as f64));
                NodeOut::Agg(rows)
            }
        };
        self.node_rows[my] = match &out {
            NodeOut::Rows(rel) => rel.len() as u64,
            NodeOut::Agg(rows) => rows.len() as u64,
        };
        Ok(out)
    }

    fn exec_relation(&mut self, node: &PlanNode, count_only: bool) -> Result<Relation> {
        match self.exec_node(node, count_only)? {
            NodeOut::Rows(rel) => Ok(rel),
            NodeOut::Agg(_) => {
                Err(BaoError::Planning("aggregate below a join is not supported".into()))
            }
        }
    }

    fn table_of(&self, from_idx: usize) -> Result<&'a StoredTable> {
        self.stored
            .get(from_idx)
            .copied()
            .ok_or_else(|| BaoError::InvalidQuery(format!("FROM position {from_idx}")))
    }

    fn seq_scan(&mut self, from_idx: usize, preds: &[bao_plan::Predicate]) -> Result<RowSet> {
        let st = self.table_of(from_idx)?;
        let t = &st.table;
        let n_pages = t.n_pages();
        // Big scans use PostgreSQL-style ring buffering.
        let bulk = n_pages as usize > self.pool.capacity() / 4;
        let access = if bulk { PageAccess::BulkSequential } else { PageAccess::Sequential };
        // Page touches in ascending page order (pool recency and meter
        // charges are order-sensitive).
        for p in 0..n_pages {
            self.meters.touch_page(self.pool, self.params, PageKey::new(st.heap_object, p), access);
        }
        let compiled = compile_preds(t, preds)?;
        let n = t.row_count();
        self.meters.charge_cpu(
            n as f64
                * (self.params.cpu_tuple_cost
                    + compiled.len() as f64 * self.params.cpu_operator_cost),
        );
        let mut ids = Vec::new();
        filter_rows(&compiled, 0..n as u32, &mut ids);
        Ok(RowSet::from_single(from_idx, ids))
    }

    fn index_scan(
        &mut self,
        from_idx: usize,
        column: &str,
        lo: Option<i64>,
        hi: Option<i64>,
        residual: &[bao_plan::Predicate],
        index_only: bool,
    ) -> Result<RowSet> {
        let st = self.table_of(from_idx)?;
        let sidx = st.index_on(column).ok_or_else(|| {
            BaoError::Planning(format!("plan references missing index on {column}"))
        })?;
        let probe = sidx.index.range(lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX));
        // Interior descent: hot pages, charged as CPU.
        self.meters.charge_cpu(probe.height as f64 * 0.25 * self.params.random_page_cost);
        for leaf in probe.leaf_pages {
            self.meters.touch_page(
                self.pool,
                self.params,
                PageKey::new(sidx.object, leaf),
                PageAccess::Sequential,
            );
        }
        self.meters.charge_cpu(probe.rows.len() as f64 * self.params.cpu_index_tuple_cost);
        if index_only {
            return Ok(RowSet::from_single(from_idx, probe.rows.to_vec()));
        }
        let compiled = compile_preds(&st.table, residual)?;
        let row_cpu =
            self.params.cpu_tuple_cost + compiled.len() as f64 * self.params.cpu_operator_cost;
        for &r in probe.rows {
            self.meters.touch_page(
                self.pool,
                self.params,
                PageKey::new(st.heap_object, st.table.page_of_row(r)),
                PageAccess::Random,
            );
            self.meters.charge_cpu(row_cpu);
        }
        let mut ids = Vec::with_capacity(probe.rows.len());
        filter_rows(&compiled, probe.rows.iter().copied(), &mut ids);
        Ok(RowSet::from_single(from_idx, ids))
    }

    fn nested_loop(
        &mut self,
        node: &PlanNode,
        pred: &JoinPred,
        count_only: bool,
    ) -> Result<Relation> {
        let outer = self.exec_relation(&node.children[0], false)?;
        let inner_node = &node.children[1];
        if let Some(inner) = ParamInner::of(inner_node) {
            return self.param_nested_loop(&outer.into_rows()?, &inner, pred, count_only);
        }
        // Naive rescanning inner: evaluate the inner once for its true rows
        // (and first-pass charges), then charge the quadratic rescan CPU
        // the algorithm would really pay.
        let inner = self.exec_relation(inner_node, false)?;
        let o = outer.len() as f64;
        let i = inner.len() as f64;
        self.meters.charge_cpu(
            (o - 1.0).max(0.0) * i * self.params.cpu_tuple_cost
                + o * i * self.params.cpu_operator_cost,
        );
        let matches = self.join_matches(&outer, &inner, pred, self.row_cap)?;
        self.meters.charge_cpu(matches.total as f64 * self.params.cpu_tuple_cost);
        Ok(Relation::join(outer, inner, matches))
    }

    /// Parameterized nested loop: one index lookup on the inner per outer
    /// row, in outer row order. With `count_only` the joined rows are
    /// counted, not written; every touch, charge and cap check stays.
    ///
    /// An outer row with the previous row's key replays the previous
    /// lookup instead of redoing it. A lookup touches a fixed page
    /// sequence: its leaf range, then each fetched row's heap page, which
    /// ascend with the row ids. When its distinct pages (the leaves, plus
    /// one per change of heap page) fit in the pool, touching them again
    /// right away hits every time and leaves the pool as it was
    /// ([`BufferPool::replay_hits`]). So a replay makes the hit charges
    /// and CPU charges of the lookup, one by one in the same order, and
    /// the pool counts the hits. A replay that would cross the row cap
    /// runs the lookup instead, which fails at the same row.
    ///
    /// Kept out of line: inlined into `nested_loop`, both of its row loops
    /// measured slower (`executor_bench`, DESIGN.md §13).
    #[inline(never)]
    fn param_nested_loop(
        &mut self,
        outer: &RowSet,
        inner: &ParamInner<'_>,
        pred: &JoinPred,
        count_only: bool,
    ) -> Result<Relation> {
        // The inner leaf occupies the next pre-order slot.
        let inner_slot = self.node_rows.len();
        self.node_rows.push(0);

        let st = self.table_of(inner.table)?;
        let sidx = st.index_on(inner.column).ok_or_else(|| {
            BaoError::Planning(format!("plan references missing index on {}", inner.column))
        })?;
        let compiled = compile_preds(&st.table, inner.residual)?;
        let outer_slot = outer
            .slot_of(inner.param.table)
            .ok_or_else(|| BaoError::Planning("param column not in outer".into()))?;
        let key_col = ColView::of(column_of(&self.tables, inner.param)?);
        // Sanity: the lookup key must be the join key the planner chose.
        if pred.right.column != inner.column {
            return Err(BaoError::Planning(
                "parameterized lookup column does not match the join key".into(),
            ));
        }
        let descent = (sidx.index.height() as f64 + 1.0) * 0.25 * self.params.random_page_cost;
        let row_cpu =
            self.params.cpu_tuple_cost + compiled.len() as f64 * self.params.cpu_operator_cost;
        let heap = !inner.index_only;

        let mut out = RowSet::new(outer.tables.iter().copied().chain([inner.table]).collect());
        // A float key fails here as it failed at the first outer row,
        // before any lookup.
        let keys = key_col.join_keys(outer.slot_ids(outer_slot))?;
        let mut rows = 0usize;
        // The rows of the last lookup that pass the residual.
        let mut passing = Vec::new();
        // The last lookup's key, fetched rows and leaf pages, while it may
        // be replayed.
        let mut last: Option<(i64, &[u32], std::ops::Range<u32>)> = None;
        for (orow, &key) in outer.iter().zip(&keys) {
            let cap = self.row_cap;
            if let Some((_, fetched, leaves)) =
                last.as_ref().filter(|(k, ..)| *k == key && rows + passing.len() <= cap)
            {
                self.meters.charge_cpu(descent);
                for _ in leaves.clone() {
                    self.meters.charge_hit(self.params, PageAccess::Random);
                }
                self.meters.charge_cpu(fetched.len() as f64 * self.params.cpu_index_tuple_cost);
                if heap {
                    for _ in fetched.iter() {
                        self.meters.charge_hit(self.params, PageAccess::Random);
                        self.meters.charge_cpu(row_cpu);
                    }
                }
                let touches = leaves.len() + if heap { fetched.len() } else { 0 };
                self.pool.replay_hits(touches as u64);
                rows += passing.len();
                if !count_only {
                    for &r in &passing {
                        out.push_joined(orow, &[r]);
                    }
                }
                continue;
            }
            let probe = sidx.index.lookup(key);
            self.meters.charge_cpu(descent);
            for leaf in probe.leaf_pages.clone() {
                self.meters.touch_page(
                    self.pool,
                    self.params,
                    PageKey::new(sidx.object, leaf),
                    PageAccess::Random,
                );
            }
            self.meters.charge_cpu(probe.rows.len() as f64 * self.params.cpu_index_tuple_cost);
            // `passing` is the subsequence of `probe.rows` that passes the
            // residual, which depends on nothing but the id: the next
            // passing row is this row exactly when their ids are equal.
            // Touches, charges and the cap check keep their per-row order.
            filter_rows(&compiled, probe.rows.iter().copied(), &mut passing);
            let mut next_passing = passing.iter().peekable();
            let mut distinct = probe.leaf_pages.len();
            let mut heap_page = None;
            for &r in probe.rows {
                if heap {
                    let page = st.table.page_of_row(r);
                    distinct += usize::from(heap_page != Some(page));
                    heap_page = Some(page);
                    self.meters.touch_page(
                        self.pool,
                        self.params,
                        PageKey::new(st.heap_object, page),
                        PageAccess::Random,
                    );
                    self.meters.charge_cpu(row_cpu);
                }
                if next_passing.next_if_eq(&&r).is_some() {
                    rows += 1;
                    if !count_only {
                        out.push_joined(orow, &[r]);
                    }
                    if rows > cap {
                        return Err(too_large());
                    }
                }
            }
            last =
                (distinct <= self.pool.capacity()).then_some((key, probe.rows, probe.leaf_pages));
        }
        self.node_rows[inner_slot] = rows as u64;
        self.meters.charge_cpu(rows as f64 * self.params.cpu_tuple_cost);
        Ok(match count_only {
            true => Relation::Counted { tables: out.tables, rows },
            false => Relation::Rows(out),
        })
    }

    /// Retain rows satisfying extra equi-join predicates (cyclic join
    /// graphs; both sides of each predicate are in the input).
    fn join_filter(&mut self, rs: RowSet, preds: &[JoinPred]) -> Result<RowSet> {
        let mut cols = Vec::with_capacity(preds.len());
        for p in preds {
            let l_slot = rs
                .slot_of(p.left.table)
                .ok_or_else(|| BaoError::Planning("filter key not in input".into()))?;
            let r_slot = rs
                .slot_of(p.right.table)
                .ok_or_else(|| BaoError::Planning("filter key not in input".into()))?;
            cols.push((
                l_slot,
                ColView::of(column_of(&self.tables, &p.left)?),
                r_slot,
                ColView::of(column_of(&self.tables, &p.right)?),
            ));
        }
        // Predicate at a time over the rows every earlier one kept, so a
        // column is read only where the row-at-a-time check read it.
        let mut keep: Vec<usize> = (0..rs.len()).collect();
        for (l_slot, l_col, r_slot, r_col) in &cols {
            let keys = |slot: usize, col: &ColView<'_>| {
                col.join_keys(keep.iter().map(|&i| rs.row(i)[slot]))
            };
            let (l_keys, r_keys) = (keys(*l_slot, l_col)?, keys(*r_slot, r_col)?);
            let mut equal = l_keys.iter().zip(&r_keys).map(|(l, r)| l == r);
            keep.retain(|_| equal.next() == Some(true));
        }
        Ok(rs.permuted(&keep))
    }

    /// True equi-join of two relations up to the size of its output,
    /// refused here — before any of it is allocated — when that exceeds
    /// `cap`. Every join algorithm is evaluated this way; callers charge
    /// the one the plan requested.
    ///
    /// The build keys are read once per right row ([`Relation::read`])
    /// and make the table and its `perm` ([`JoinTable::build`]). The probe
    /// ([`Relation::probe`]) gives each left row its range of `perm`, so
    /// [`JoinMatches::fill`] writes the output left row in order, each
    /// one's right rows ascending: the order a nested loop writes.
    fn join_matches(
        &self,
        left: &Relation,
        right: &Relation,
        pred: &JoinPred,
        cap: usize,
    ) -> Result<JoinMatches> {
        // Orient the predicate to the operand sides.
        let (lc, rc) = if left.slot_of(pred.left.table).is_some() {
            (&pred.left, &pred.right)
        } else {
            (&pred.right, &pred.left)
        };
        let l_slot = left
            .slot_of(lc.table)
            .ok_or_else(|| BaoError::Planning("join key not in left input".into()))?;
        let r_slot = right
            .slot_of(rc.table)
            .ok_or_else(|| BaoError::Planning("join key not in right input".into()))?;
        let l_col = ColView::of(column_of(&self.tables, lc)?);
        let r_col = ColView::of(column_of(&self.tables, rc)?);

        let r_keys = right.read(r_slot, &|rs, slot| r_col.join_keys(rs.slot_ids(slot)))?;
        let (table, perm) = JoinTable::build(&r_keys);
        let spans = left.probe(l_slot, l_col, &table)?;
        let total = spans.iter().map(|&(_, n)| n as usize).sum();
        if total > cap {
            return Err(too_large());
        }
        Ok(JoinMatches { spans, perm, total })
    }

    fn sort_rows(&mut self, rs: RowSet, keys: &[ColRef]) -> Result<RowSet> {
        let mut cols = Vec::with_capacity(keys.len());
        for k in keys {
            let slot = rs
                .slot_of(k.table)
                .ok_or_else(|| BaoError::Planning("sort key not in input".into()))?;
            cols.push((slot, ColView::of(column_of(&self.tables, k)?)));
        }
        // One stable pass per key, last key first, so rows end up ordered
        // by the first key, ties by the next, and full ties in input order.
        // A pass reads its key once per row; no comparison looks a row up.
        let mut order: Vec<usize> = (0..rs.len()).collect();
        for (slot, col) in cols.iter().rev() {
            let keys = col.values(order.iter().map(|&i| rs.row(i)[*slot]));
            let mut pairs: Vec<(u64, usize)> =
                keys.into_iter().map(sort_key).zip(order.iter().copied()).collect();
            pairs.sort_by_key(|&(key, _)| key);
            order = pairs.into_iter().map(|(_, i)| i).collect();
        }
        Ok(rs.permuted(&order))
    }

    fn aggregate(
        &mut self,
        input: &Relation,
        group_by: &[ColRef],
        aggs: &[AggFunc],
    ) -> Result<Vec<Vec<Value>>> {
        /// Folds aggregate `a`'s input values, in global row order, into
        /// accumulator `a` of each row's group (`row_group`; `None`
        /// without GROUP BY, where every row is in group 0) by `step`.
        fn fold_column(
            accs: &mut [Vec<f64>],
            a: usize,
            vals: impl Iterator<Item = f64>,
            row_group: Option<&[usize]>,
            step: impl Fn(f64, f64) -> f64,
        ) {
            match (row_group, accs.first_mut()) {
                (None, Some(group)) => group[a] = vals.fold(group[a], step),
                (None, None) => {}
                (Some(row_group), _) => {
                    for (x, &g) in vals.zip(row_group) {
                        accs[g][a] = step(accs[g][a], x);
                    }
                }
            }
        }

        let mut group_cols = Vec::with_capacity(group_by.len());
        for g in group_by {
            let slot = input
                .slot_of(g.table)
                .ok_or_else(|| BaoError::Planning("group key not in input".into()))?;
            group_cols.push((slot, ColView::of(column_of(&self.tables, g)?), g.clone()));
        }
        // (aggregate position, slot, column) of every aggregate that folds
        // a value; a `COUNT(col)` input is resolved but never read.
        let mut value_cols = Vec::with_capacity(aggs.len());
        for (a, agg) in aggs.iter().enumerate() {
            if let Some(c) = agg.input() {
                let slot = input
                    .slot_of(c.table)
                    .ok_or_else(|| BaoError::Planning("agg input not in input".into()))?;
                let col = ColView::of(column_of(&self.tables, c)?);
                if !matches!(agg, AggFunc::Count(_)) {
                    value_cols.push((a, slot, col));
                }
            }
        }

        // Each group key column's ids and keys, a column at a time. A
        // join's rows are read off its count pass, so a `COUNT(*)` without
        // GROUP BY over a join reads no row at all.
        let group_ids: Vec<Vec<u32>> =
            group_cols.iter().map(|(slot, _, _)| input.slot_ids(*slot)).collect::<Result<_>>()?;
        let keys: Vec<Vec<u64>> = group_cols
            .iter()
            .zip(&group_ids)
            .map(|((_, col, _), ids)| {
                col.values(ids.iter().copied()).into_iter().map(f64::to_bits).collect()
            })
            .collect();

        // Assign rows to groups, then fold each value input over the rows
        // in row order. Groups are kept in first-seen order
        // (representative row position, row count), which also makes
        // emission order deterministic. Without GROUP BY every row is in
        // group 0 and no key is built: probing the empty key cost more
        // than the fold itself (DESIGN.md §13).
        let mut groups: Vec<(Option<usize>, u64)> = Vec::new();
        // Each row's group, with GROUP BY only.
        let mut row_group: Vec<usize> = Vec::new();
        if group_cols.is_empty() {
            if input.len() > 0 {
                groups.push((Some(0), input.len() as u64));
            }
        } else {
            row_group.reserve_exact(input.len());
            let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
            for i in 0..input.len() {
                let key: Vec<u64> = keys.iter().map(|col| col[i]).collect();
                let gi = *index.entry(key).or_insert_with(|| {
                    groups.push((Some(i), 0));
                    groups.len() - 1
                });
                groups[gi].1 += 1;
                row_group.push(gi);
            }
        }
        // Empty input with no GROUP BY still yields one all-empty row
        // (COUNT(*) = 0), like SQL, with no representative row.
        if groups.is_empty() && group_by.is_empty() {
            groups.push((None, 0));
        }
        // One accumulator per group and aggregate, each folded only by
        // the operation its aggregate reports (counts' stay unused).
        let start: Vec<f64> = aggs
            .iter()
            .map(|a| match a {
                AggFunc::Min(_) => f64::INFINITY,
                AggFunc::Max(_) => f64::NEG_INFINITY,
                _ => 0.0,
            })
            .collect();
        let mut accs = vec![start; groups.len()];
        let row_group = (!group_cols.is_empty()).then_some(row_group.as_slice());
        for &(a, slot, col) in &value_cols {
            let vals = col.values(input.slot_ids(slot)?.into_iter()).into_iter();
            match aggs[a] {
                AggFunc::Min(_) => fold_column(&mut accs, a, vals, row_group, f64::min),
                AggFunc::Max(_) => fold_column(&mut accs, a, vals, row_group, f64::max),
                _ => fold_column(&mut accs, a, vals, row_group, |sum, x| sum + x),
            }
        }

        // Emit rows in SELECT-list order (columns and aggregates may
        // interleave arbitrarily there).
        let agg_value = |a: &AggFunc, count: u64, acc: f64| {
            let float = |x: f64| Value::Float(if count == 0 { 0.0 } else { x });
            match a {
                AggFunc::CountStar | AggFunc::Count(_) => Value::Int(count as i64),
                AggFunc::Sum(_) | AggFunc::Min(_) | AggFunc::Max(_) => float(acc),
                AggFunc::Avg(_) => float(acc / count as f64),
            }
        };
        let mut out = Vec::with_capacity(groups.len());
        for ((rep, count), accs) in groups.into_iter().zip(&accs) {
            let mut row = Vec::with_capacity(self.query.select.len());
            let mut next_agg = 0usize;
            for item in &self.query.select {
                match item {
                    SelectItem::Column(c) => {
                        // The synthetic all-empty row only exists for
                        // queries without GROUP BY, which cannot project
                        // plain columns.
                        let Some(i) = rep else {
                            return Err(BaoError::Planning(
                                "bare column in aggregate select".into(),
                            ));
                        };
                        let g =
                            group_cols.iter().position(|(_, _, g)| g == c).ok_or_else(|| {
                                BaoError::InvalidQuery(format!(
                                    "selected column {}.{} is not in GROUP BY",
                                    c.table, c.column
                                ))
                            })?;
                        let base_row = group_ids[g][i];
                        row.push(self.tables[c.table].column(&c.column)?.get(base_row as usize));
                    }
                    SelectItem::Agg(a) => {
                        row.push(agg_value(a, count, accs[next_agg]));
                        next_agg += 1;
                    }
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Convert the root's output into (row count, materialized rows).
    fn materialize_output(&mut self, out: NodeOut) -> Result<(u64, Vec<Vec<Value>>)> {
        match out {
            NodeOut::Agg(mut rows) => {
                if let Some(limit) = self.query.limit {
                    rows.truncate(limit);
                }
                Ok((rows.len() as u64, rows))
            }
            NodeOut::Rows(rel) => {
                let rs = rel.into_rows()?;
                let total = rs.len();
                let cap = self.query.limit.unwrap_or(OUTPUT_CAP).min(OUTPUT_CAP);
                let mut cols = Vec::new();
                for item in &self.query.select {
                    match item {
                        SelectItem::Column(c) => {
                            let slot = rs.slot_of(c.table).ok_or_else(|| {
                                BaoError::Planning("select column not in output".into())
                            })?;
                            cols.push((slot, self.tables[c.table].column(&c.column)?));
                        }
                        SelectItem::Agg(_) => {
                            return Err(BaoError::Planning(
                                "aggregate select over non-aggregated plan".into(),
                            ))
                        }
                    }
                }
                let mut rows = Vec::with_capacity(total.min(cap));
                for row in rs.iter().take(cap) {
                    rows.push(cols.iter().map(|(s, c)| c.get(row[*s] as usize)).collect());
                }
                let counted = self.query.limit.map_or(total, |l| total.min(l)) as u64;
                Ok((counted, rows))
            }
        }
    }
}

/// A sort key as a `u64` whose integer order is the total order every
/// sort uses: numbers as `partial_cmp` orders them (so `-0.0 == 0.0`),
/// then every NaN, all equal. A sort must see a total order: since Rust
/// 1.81 `sort_by` may panic on one that is not.
fn sort_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    // `+ 0.0` turns -0.0 into 0.0 and leaves every other number as it is.
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Three-way comparison of scalar values for ORDER BY: ints and floats
/// numerically under [`sort_key`], strings lexicographically, and every
/// number before every string.
fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Str(_), _) => std::cmp::Ordering::Greater,
        (_, Value::Str(_)) => std::cmp::Ordering::Less,
        _ => {
            let key = |v: &Value| v.as_float().map_or(u64::MAX, sort_key);
            key(a).cmp(&key(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::{cell_join_key, cell_key};
    use bao_common::{rng_from_seed, Rng};
    use bao_plan::TableRef;
    use bao_storage::{AccessKind, ColumnData, ColumnDef, DataType, Schema};
    use std::cmp::Ordering;

    /// Tables `a`, `b`, `c`, `e` (FROM positions 0–3) of `n` rows each:
    /// `k` an int in -3..=8 (duplicates, negatives, values the other side
    /// may lack), `s` a text from five words, `f` a float. The other int
    /// keys span the join table's two layouts. Direct-indexed: `d` the row
    /// number shifted by 0, 10, -5 and 3 per table (dense ids, and probe keys
    /// on either side of the build's `[min, max]`), `neg` in -40..=-30 and
    /// `one` always 7. Hashed: `x` drawn from `i64::MIN`, -1, 0 and
    /// `i64::MAX` (a span that overflows `i64`), `w` from four values
    /// 10^11 apart.
    fn join_db(n: usize, seed: u64) -> (Database, Query) {
        let mut rng = rng_from_seed(seed);
        let mut db = Database::new();
        for (name, shift) in [("a", 0), ("b", 10), ("c", -5), ("e", 3)] {
            let mut t = Table::new(
                name,
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("s", DataType::Text),
                    ColumnDef::new("f", DataType::Float),
                    ColumnDef::new("d", DataType::Int),
                    ColumnDef::new("neg", DataType::Int),
                    ColumnDef::new("one", DataType::Int),
                    ColumnDef::new("x", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                ]),
            );
            for i in 0..n {
                let word = ["ash", "elm", "fir", "oak", "yew"][rng.gen_index(5)];
                t.insert(vec![
                    Value::Int(rng.gen_range(-3i64..=8)),
                    Value::Str(word.into()),
                    Value::Float(rng.gen_f64()),
                    Value::Int(i as i64 + shift),
                    Value::Int(rng.gen_range(-40i64..=-30)),
                    Value::Int(7),
                    Value::Int([i64::MIN, -1, 0, i64::MAX][rng.gen_index(4)]),
                    Value::Int([-2e11 as i64, 3, 1e11 as i64, 2e11 as i64][rng.gen_index(4)]),
                ])
                .unwrap();
            }
            db.create_table(t).unwrap();
        }
        let tables = ["a", "b", "c", "e"].map(TableRef::new).to_vec();
        (db, Query { tables, ..Query::default() })
    }

    /// A `Ctx` as `execute` builds it, for driving one operator.
    fn ctx_for<'a>(
        db: &'a Database,
        query: &'a Query,
        pool: &'a mut BufferPool,
        params: &'a CostParams,
    ) -> Ctx<'a> {
        Ctx::new(query, db, pool, params, ROW_CAP).unwrap()
    }

    /// `n` random row-id tuples over `tables`, ids below `table_rows`:
    /// unordered, with repeats.
    fn random_rows(rng: &mut impl Rng, tables: &[usize], n: usize, table_rows: usize) -> RowSet {
        let mut rs = RowSet::new(tables.to_vec());
        for _ in 0..n {
            let row: Vec<u32> = tables.iter().map(|_| rng.gen_index(table_rows) as u32).collect();
            rs.push(&row);
        }
        rs
    }

    /// The join's rows, written out as a sort or the root's output writes
    /// them.
    fn hash_join_rows(
        ctx: &Ctx<'_>,
        left: &RowSet,
        right: &RowSet,
        pred: &JoinPred,
    ) -> Result<RowSet> {
        let (left, right) = (Relation::Rows(left.clone()), Relation::Rows(right.clone()));
        let matches = ctx.join_matches(&left, &right, pred, ROW_CAP)?;
        Relation::join(left, right, matches).into_rows()
    }

    /// The join by definition, refused past `cap` rows: every left row
    /// against every right row. Keys are read a cell at a time, the right
    /// side's and then the left side's, as the join read them when every
    /// join wrote its rows.
    fn nested_loop_oracle(
        ctx: &Ctx<'_>,
        left: &RowSet,
        right: &RowSet,
        pred: &JoinPred,
        cap: usize,
    ) -> Result<RowSet> {
        let (lc, rc) = match left.slot_of(pred.left.table) {
            Some(_) => (&pred.left, &pred.right),
            None => (&pred.right, &pred.left),
        };
        let keys = |rs: &RowSet, c: &ColRef| -> Result<Vec<i64>> {
            let (col, slot) = (column_of(&ctx.tables, c)?, rs.slot_of(c.table).unwrap());
            rs.iter().map(|row| cell_join_key(col, row[slot])).collect()
        };
        let r_keys = keys(right, rc)?;
        let l_keys = keys(left, lc)?;
        let pairs = || {
            l_keys.iter().enumerate().flat_map(|(l, lk)| {
                r_keys.iter().enumerate().filter(move |&(_, rk)| rk == lk).map(move |(r, _)| (l, r))
            })
        };
        if pairs().count() > cap {
            return Err(too_large());
        }
        let mut out = RowSet::new([&left.tables[..], &right.tables].concat());
        for (l, r) in pairs() {
            out.push_joined(left.row(l), right.row(r));
        }
        Ok(out)
    }

    #[test]
    fn join_matches_a_nested_loop_in_rows_and_order() {
        const TABLE_ROWS: usize = 40;
        let (db, query) = join_db(TABLE_ROWS, 11);
        let params = CostParams::default();
        let mut pool = BufferPool::new(16);
        let ctx = ctx_for(&db, &query, &mut pool, &params);
        let mut rng = rng_from_seed(23);
        let mut joined = 0;
        for round in 0..8 {
            // (left tables, left rows, right rows): a one- and a
            // two-table left side, and each side empty.
            let shapes: [(&[usize], usize, usize); 6] = [
                (&[0], 60, 50),
                (&[2, 0], 35, 45),
                (&[0], 0, 20),
                (&[0], 20, 0),
                (&[2, 0], 0, 0),
                (&[0], 9, 200),
            ];
            for (l_tables, l_n, r_n) in shapes {
                for column in ["k", "s", "d", "neg", "one", "x", "w"] {
                    let left = random_rows(&mut rng, l_tables, l_n, TABLE_ROWS);
                    let right = random_rows(&mut rng, &[1], r_n, TABLE_ROWS);
                    let (lc, rc) = (ColRef::new(0, column), ColRef::new(1, column));
                    let want = nested_loop_oracle(
                        &ctx,
                        &left,
                        &right,
                        &JoinPred::new(lc.clone(), rc.clone()),
                        ROW_CAP,
                    )
                    .unwrap();
                    let want: Vec<&[u32]> = want.iter().collect();
                    // The predicate names the sides in either order.
                    for pred in [
                        JoinPred::new(lc.clone(), rc.clone()),
                        JoinPred::new(rc.clone(), lc.clone()),
                    ] {
                        let got = hash_join_rows(&ctx, &left, &right, &pred).unwrap();
                        let what = format!(
                            "{l_tables:?} x {l_n} join [1] x {r_n} on {column}, round {round}"
                        );
                        assert_eq!(got.tables, [l_tables, &[1]].concat(), "{what}");
                        assert_eq!(got.iter().collect::<Vec<_>>(), want, "{what}");
                    }
                    joined += want.len();
                }
            }
        }
        assert!(joined > 10_000, "the cases must not all be empty: {joined} rows");
    }

    /// The table is direct-indexed exactly while the build keys' span is
    /// at most `4 × rows + 64`; a key's range of `perm` holds the rows of
    /// that key, ascending; a probe key outside `[min, max]` matches
    /// nothing, even where `key - min` would wrap into the span.
    #[test]
    fn join_table_indexes_a_narrow_span_directly() {
        // A key's (first row, row count) as the build laid it out, and
        // its range's rows: every row of the key, ascending.
        let rows = |(table, perm): &(JoinTable, Vec<u32>), key| {
            let (start, n) = table.get(key);
            let rows = perm[start as usize..(start + n) as usize].to_vec();
            ((rows.first().copied().unwrap_or(0), n), rows)
        };
        let layout = JoinTable::build;
        let dense = |t: &(JoinTable, Vec<u32>)| matches!(t.0, JoinTable::Dense { .. });
        let ids: Vec<i64> = (0..100).collect();
        // 11 keys from 0: a span of 4 × 11 + 64 = 108 ends at 107.
        let at_bound: Vec<i64> = (0..10).map(|i| i * 11).chain([107]).collect();
        let past_bound: Vec<i64> = (0..10).map(|i| i * 11).chain([108]).collect();
        for (keys, want_dense) in [
            (&ids[..], true),
            (&[-7, -9, -8, -7][..], true),
            (&[42][..], true),
            (&at_bound[..], true),
            (&past_bound[..], false),
            (&[][..], false),
            (&[i64::MIN, i64::MAX][..], false),
            (&[i64::MIN, 0][..], false),
        ] {
            let table = layout(keys);
            assert_eq!(dense(&table), want_dense, "{keys:?}");
            for (ri, &key) in keys.iter().enumerate() {
                let first = keys.iter().position(|&k| k == key).unwrap();
                let count = keys.iter().filter(|&&k| k == key).count();
                let all: Vec<u32> =
                    (0..keys.len() as u32).filter(|&r| keys[r as usize] == key).collect();
                assert_eq!(
                    rows(&table, key),
                    ((first as u32, count as u32), all),
                    "{keys:?} at {ri}"
                );
            }
            for probe in [i64::MIN, -10, -1, 100, 101, 200, i64::MAX] {
                if !keys.contains(&probe) {
                    assert_eq!(rows(&table, probe), ((0, 0), vec![]), "{probe} in {keys:?}");
                }
            }
        }
        // Spans at either end of `i64`: a probe from the far end wraps
        // `key - min` to 11 and 2, inside the span, and must still miss.
        for keys in [[i64::MAX - 10, i64::MAX], [i64::MIN, i64::MIN + 2]] {
            let table = layout(&keys);
            assert!(dense(&table), "{keys:?}");
            assert_eq!(rows(&table, keys[0]), ((0, 1), vec![0]));
            assert_eq!(rows(&table, keys[1]), ((1, 1), vec![1]));
            for probe in [i64::MIN, i64::MIN + 1, 0, i64::MAX - 11, i64::MAX] {
                if !keys.contains(&probe) {
                    assert_eq!(rows(&table, probe), ((0, 0), vec![]), "{probe} in {keys:?}");
                }
            }
        }
    }

    /// A float key is a type mismatch once a row of its side is read, and
    /// no error while its side is empty, since no cell is read there.
    #[test]
    fn float_join_key_is_a_type_mismatch() {
        let (db, query) = join_db(8, 5);
        let params = CostParams::default();
        let rows = |table, n: u32| RowSet::from_single(table, (0..n).collect());
        let mut pool = BufferPool::new(16);
        let ctx = ctx_for(&db, &query, &mut pool, &params);
        // On the probe side, then on the build side.
        for (l, r) in [("f", "k"), ("k", "f")] {
            let pred = JoinPred::new(ColRef::new(0, l), ColRef::new(1, r));
            let what = format!("{l} = {r}");
            let err = hash_join_rows(&ctx, &rows(0, 3), &rows(1, 3), &pred).unwrap_err();
            assert!(matches!(err, BaoError::TypeMismatch(_)), "{what}: {err}");
            // The float side empty, the other side not, then both.
            let (float_side, other_side) = if l == "f" { (0, 1) } else { (1, 0) };
            for other_n in [3, 0] {
                let mut sides = [rows(0, 0), rows(1, 0)];
                sides[other_side] = rows(other_side, other_n);
                let [left, right] = &sides;
                let out = hash_join_rows(&ctx, left, right, &pred).unwrap();
                assert!(out.is_empty(), "{what}, side {float_side} empty");
            }
        }
    }

    /// A join tree over row sets: rows of one FROM position, or a join of
    /// two trees.
    enum JoinTree {
        Rows(RowSet),
        Join(Box<JoinTree>, Box<JoinTree>, JoinPred),
    }

    impl JoinTree {
        /// `self` joined to `right` on `l = r`.
        fn join(self, right: JoinTree, l: ColRef, r: ColRef) -> JoinTree {
            JoinTree::Join(Box::new(self), Box::new(right), JoinPred::new(l, r))
        }

        /// The tree as `execute` runs it: each join's count pass over its
        /// inputs' relations, the top one at row cap `cap`.
        fn relation(&self, ctx: &Ctx<'_>, cap: usize) -> Result<Relation> {
            match self {
                JoinTree::Rows(rs) => Ok(Relation::Rows(rs.clone())),
                JoinTree::Join(l, r, pred) => {
                    let (left, right) = (l.relation(ctx, ROW_CAP)?, r.relation(ctx, ROW_CAP)?);
                    let matches = ctx.join_matches(&left, &right, pred, cap)?;
                    Ok(Relation::join(left, right, matches))
                }
            }
        }

        /// The tree with every join filled as it runs, by
        /// `nested_loop_oracle`, the top one at row cap `cap`.
        fn filled(&self, ctx: &Ctx<'_>, cap: usize) -> Result<RowSet> {
            match self {
                JoinTree::Rows(rs) => Ok(rs.clone()),
                JoinTree::Join(l, r, pred) => {
                    let (left, right) = (l.filled(ctx, ROW_CAP)?, r.filled(ctx, ROW_CAP)?);
                    nested_loop_oracle(ctx, &left, &right, pred, cap)
                }
            }
        }
    }

    /// Join trees of three and four tables over random rows of
    /// `join_db`'s tables (`TREE_ROWS` rows each), three rounds with each
    /// input empty in turn, for each `(lower, on_join, on_other)` in
    /// `keys`: the lower joins on `lower`, the upper join on `on_join` in
    /// the input that is a join and `on_other` in the other. The upper key
    /// sits in the lower join's left input and in its right input; the
    /// build side is a join, and both sides are.
    fn nested_join_trees(seed: u64, keys: &[(&str, &str, &str)]) -> Vec<(String, JoinTree)> {
        let mut rng = rng_from_seed(seed);
        let mut trees = Vec::new();
        for round in 0..3 {
            for sizes in [
                [20, 16, 12, 10],
                [0, 16, 12, 10],
                [20, 0, 12, 10],
                [20, 16, 0, 10],
                [20, 16, 12, 0],
            ] {
                for &(lower, on_join, on_other) in keys {
                    let rows: Vec<RowSet> =
                        (0..4).map(|t| random_rows(&mut rng, &[t], sizes[t], TREE_ROWS)).collect();
                    let leaf = |t: usize| JoinTree::Rows(rows[t].clone());
                    let (lo, on, other) = (
                        |t| ColRef::new(t, lower),
                        |t| ColRef::new(t, on_join),
                        |t| ColRef::new(t, on_other),
                    );
                    let ab = || leaf(0).join(leaf(1), lo(0), lo(1));
                    let abc = || ab().join(leaf(2), lo(1), lo(2));
                    let ce = || leaf(2).join(leaf(3), lo(2), lo(3));
                    let cab = || leaf(2).join(ab(), lo(2), lo(0));
                    for (shape, tree) in [
                        ("(a b) c on a", ab().join(leaf(2), on(0), other(2))),
                        ("(a b) c on b", ab().join(leaf(2), other(2), on(1))),
                        ("c (a b) on a", leaf(2).join(ab(), other(2), on(0))),
                        ("c (a b) on b", leaf(2).join(ab(), on(1), other(2))),
                        ("((a b) c) e on c", abc().join(leaf(3), on(2), other(3))),
                        ("(a b) (c e) on a, e", ab().join(ce(), on(0), on(3))),
                        ("e (c (a b)) on b", leaf(3).join(cab(), other(3), on(1))),
                    ] {
                        let what = format!(
                            "{shape}: {lower}, then {on_join} = {on_other}; {sizes:?}, round {round}"
                        );
                        trees.push((what, tree));
                    }
                }
            }
        }
        trees
    }

    /// Rows of `join_db`'s tables in `nested_join_trees`.
    const TREE_ROWS: usize = 40;

    /// `nested_join_trees`' keys over both table layouts and text:
    /// direct-indexed (`k`, `d`, `neg`, `one`), hashed (`x`, `w`).
    const TREE_KEYS: [(&str, &str, &str); 7] = [
        ("k", "k", "k"),
        ("d", "one", "one"),
        ("one", "d", "d"),
        ("neg", "k", "neg"),
        ("x", "w", "w"),
        ("w", "x", "x"),
        ("s", "s", "s"),
    ];

    /// A join tree's rows and their layout, or its error, as text.
    type Written = std::result::Result<(Vec<usize>, Vec<Vec<u32>>), String>;

    fn written(rows: Result<RowSet>) -> Written {
        let rows = rows.map_err(|e| e.to_string())?;
        Ok((rows.tables.clone(), rows.iter().map(<[u32]>::to_vec).collect()))
    }

    /// Joins of three and four tables against filling every join as it
    /// runs, over keys of both table layouts and text: rows and order,
    /// and every slot's ids read through the count passes.
    #[test]
    fn nested_joins_match_filling_every_join() {
        let (db, query) = join_db(TREE_ROWS, 13);
        let params = CostParams::default();
        let mut pool = BufferPool::new(16);
        let ctx = ctx_for(&db, &query, &mut pool, &params);
        let mut joined = 0;
        for (what, tree) in nested_join_trees(29, &TREE_KEYS) {
            let want = tree.filled(&ctx, ROW_CAP).unwrap();
            let got = tree.relation(&ctx, ROW_CAP).unwrap();
            assert_eq!(got.len(), want.len(), "{what}");
            for slot in 0..got.width() {
                let ids: Vec<u32> = want.slot_ids(slot).collect();
                assert_eq!(got.slot_ids(slot).unwrap(), ids, "{what}, slot {slot}");
            }
            joined += want.len();
            assert_eq!(written(got.into_rows()), written(Ok(want)), "{what}");
        }
        assert!(joined > 30_000, "{joined} rows");
    }

    /// A float upper key over a lower join is a type mismatch exactly when
    /// filling every join fails on it: when the lower join has rows. Over
    /// an empty lower join it reads no cell, even where the lower join's
    /// inputs have rows.
    #[test]
    fn float_key_over_a_nested_join_fails_only_when_it_has_rows() {
        let (db, query) = join_db(TREE_ROWS, 17);
        let params = CostParams::default();
        let mut pool = BufferPool::new(16);
        let ctx = ctx_for(&db, &query, &mut pool, &params);
        let (mut empty, mut refused) = (0, 0);
        for (what, tree) in nested_join_trees(31, &[("k", "f", "k"), ("one", "f", "one")]) {
            let want = written(tree.filled(&ctx, ROW_CAP));
            let got = tree.relation(&ctx, ROW_CAP);
            assert_eq!(written(got.and_then(Relation::into_rows)), want, "{what}");
            match want {
                Ok((_, rows)) => {
                    assert!(rows.is_empty(), "{what}");
                    empty += 1;
                }
                Err(e) => {
                    assert_eq!(e, "type mismatch: float columns cannot be join keys", "{what}");
                    refused += 1;
                }
            }
        }
        assert!(empty > 30 && refused > 30, "{empty} empty, {refused} refused");
    }

    /// A cap one row short of a nested join's output is crossed at the
    /// upper join, the lower ones running uncapped, and refused there as
    /// filling every join refuses it; at the output's size it passes.
    #[test]
    fn nested_join_cap_is_refused_at_the_upper_join() {
        let (db, query) = join_db(TREE_ROWS, 19);
        let params = CostParams::default();
        let mut pool = BufferPool::new(16);
        let ctx = ctx_for(&db, &query, &mut pool, &params);
        let refused: Written = Err(too_large().to_string());
        let mut capped = 0;
        for (what, tree) in nested_join_trees(37, &TREE_KEYS) {
            let n = tree.filled(&ctx, ROW_CAP).unwrap().len();
            if n == 0 {
                continue;
            }
            assert_eq!(tree.relation(&ctx, n).unwrap().len(), n, "{what}");
            let got = written(tree.relation(&ctx, n - 1).and_then(Relation::into_rows));
            assert_eq!(got, refused, "{what}, cap {}", n - 1);
            assert_eq!(written(tree.filled(&ctx, n - 1)), refused, "{what}");
            capped += 1;
        }
        assert!(capped > 150, "{capped} capped");
    }

    /// 4 x 4 rows on one key: 16 pairs. `join_matches` is the count pass;
    /// what it returns holds no `RowSet`, so an `Err` from it is a refusal
    /// before any output exists.
    #[test]
    fn join_row_cap_is_refused_by_the_count_pass() {
        let mut db = Database::new();
        for name in ["l", "r"] {
            let mut t = Table::new(name, Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
            t.insert_many((0..4).map(|_| vec![Value::Int(7)])).unwrap();
            db.create_table(t).unwrap();
        }
        let query =
            Query { tables: vec![TableRef::new("l"), TableRef::new("r")], ..Query::default() };
        let params = CostParams::default();
        let mut pool = BufferPool::new(16);
        let ctx = ctx_for(&db, &query, &mut pool, &params);
        let left = RowSet::from_single(0, vec![3, 1, 0, 2]);
        let right = RowSet::from_single(1, vec![2, 0, 3, 1]);
        let pred = JoinPred::new(ColRef::new(0, "k"), ColRef::new(1, "k"));
        let (left, right) = (Relation::Rows(left), Relation::Rows(right));

        let matches = ctx.join_matches(&left, &right, &pred, 16).unwrap();
        assert_eq!(matches.total, 16);
        let out = Relation::join(left, right, matches);
        let out = out.into_rows().unwrap();
        let left_major: Vec<[u32; 2]> =
            [3, 1, 0, 2].iter().flat_map(|&l| [2, 0, 3, 1].map(|r| [l, r])).collect();
        assert_eq!(out.iter().collect::<Vec<_>>(), left_major);

        let left = Relation::Rows(RowSet::from_single(0, vec![3, 1, 0, 2]));
        let right = Relation::Rows(RowSet::from_single(1, vec![2, 0, 3, 1]));
        let refused: Result<JoinMatches> = ctx.join_matches(&left, &right, &pred, 15);
        assert_eq!(
            refused.err().map(|e| e.to_string()).as_deref(),
            Some("planning error: intermediate result too large")
        );
    }

    #[test]
    fn cmp_values_numeric_and_text() {
        assert_eq!(cmp_values(&Value::Int(1), &Value::Int(2)), Ordering::Less);
        assert_eq!(cmp_values(&Value::Int(2), &Value::Float(1.5)), Ordering::Greater);
        assert_eq!(cmp_values(&Value::Float(1.0), &Value::Float(1.0)), Ordering::Equal);
        assert_eq!(
            cmp_values(&Value::Str("abc".into()), &Value::Str("abd".into())),
            Ordering::Less
        );
        // Mixed kinds: every number before every string.
        assert_eq!(cmp_values(&Value::Str("x".into()), &Value::Int(1)), Ordering::Greater);
        assert_eq!(cmp_values(&Value::Float(9e9), &Value::Str("".into())), Ordering::Less);
        assert_eq!(cmp_values(&Value::Float(-0.0), &Value::Int(0)), Ordering::Equal);
    }

    /// `sort_rows` as it was before keys were extracted: both keys looked
    /// up on every comparison, a NaN comparison counted as a tie.
    fn sort_rows_oracle(ctx: &Ctx<'_>, rs: &RowSet, keys: &[ColRef]) -> RowSet {
        let cols: Vec<(usize, &ColumnData)> = keys
            .iter()
            .map(|k| (rs.slot_of(k.table).unwrap(), column_of(&ctx.tables, k).unwrap()))
            .collect();
        let mut order: Vec<usize> = (0..rs.len()).collect();
        order.sort_by(|&a, &b| {
            for (slot, col) in &cols {
                let va = cell_key(col, rs.row(a)[*slot]);
                let vb = cell_key(col, rs.row(b)[*slot]);
                match va.partial_cmp(&vb) {
                    Some(Ordering::Equal) | None => continue,
                    Some(o) => return o,
                }
            }
            Ordering::Equal
        });
        rs.permuted(&order)
    }

    /// Tables `a`, `b`, `c` of `n` rows each for sorting: `k` an int in
    /// -3..=8 (heavy duplicates), `u` an int almost unique, `s` a text
    /// from five words, `f` a float that is ±0.0 in half the rows.
    fn sort_db(n: usize, seed: u64) -> (Database, Query) {
        let mut rng = rng_from_seed(seed);
        let mut db = Database::new();
        for name in ["a", "b", "c"] {
            let mut t = Table::new(
                name,
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("u", DataType::Int),
                    ColumnDef::new("s", DataType::Text),
                    ColumnDef::new("f", DataType::Float),
                ]),
            );
            for _ in 0..n {
                let word = ["ash", "elm", "fir", "oak", "yew"][rng.gen_index(5)];
                let f = [0.0, -0.0, rng.gen_f64() - 0.5, 0.25][rng.gen_index(4)];
                t.insert(vec![
                    Value::Int(rng.gen_range(-3i64..=8)),
                    Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
                    Value::Str(word.into()),
                    Value::Float(f),
                ])
                .unwrap();
            }
            db.create_table(t).unwrap();
        }
        let tables = ["a", "b", "c"].map(TableRef::new).to_vec();
        (db, Query { tables, ..Query::default() })
    }

    #[test]
    fn sort_rows_matches_the_comparator_it_replaced() {
        const TABLE_ROWS: usize = 3_000;
        let (db, query) = sort_db(TABLE_ROWS, 31);
        let params = CostParams::default();
        let mut pool = BufferPool::new(16);
        let mut ctx = ctx_for(&db, &query, &mut pool, &params);
        let mut rng = rng_from_seed(37);
        let mut sorted = 0;
        for n in [0, 1, 2, 17, 4096, 20_000] {
            for width in 1..=3 {
                let mut tables = vec![0, 1, 2];
                tables.swap(0, rng.gen_index(3));
                tables.truncate(width);
                let keys: Vec<ColRef> = (0..1 + rng.gen_index(3))
                    .map(|_| {
                        let table = tables[rng.gen_index(width)];
                        ColRef::new(table, ["k", "u", "s", "f"][rng.gen_index(4)])
                    })
                    .collect();
                let shuffled = random_rows(&mut rng, &tables, n, TABLE_ROWS);
                let presorted = sort_rows_oracle(&ctx, &shuffled, &keys);
                let reversed = presorted.permuted(&(0..n).rev().collect::<Vec<_>>());
                for (input, rs) in
                    [("shuffled", shuffled), ("presorted", presorted), ("reversed", reversed)]
                {
                    let want: Vec<Vec<u32>> =
                        sort_rows_oracle(&ctx, &rs, &keys).iter().map(<[u32]>::to_vec).collect();
                    let got = ctx.sort_rows(rs, &keys).unwrap();
                    let what = format!("{input} {n} rows over {tables:?} by {keys:?}");
                    assert_eq!(got.tables, tables, "{what}");
                    assert_eq!(got.iter().map(<[u32]>::to_vec).collect::<Vec<_>>(), want, "{what}");
                    sorted += n;
                }
            }
        }
        assert!(sorted > 200_000, "{sorted} rows");
    }

    /// NaN, ±0.0 and ±inf: a total order (no panic), ties in input order,
    /// every NaN after every number; mixed-kind value rows likewise.
    #[test]
    fn sorts_are_total_orders_over_nan_zeros_and_mixed_kinds() {
        let keys = [f64::NAN, 0.0, -0.0, 2.0, f64::NEG_INFINITY, -f64::NAN, -0.0, f64::INFINITY];
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("f", DataType::Float)]));
        t.insert_many(keys.iter().map(|&f| vec![Value::Float(f)])).unwrap();
        let mut db = Database::new();
        db.create_table(t).unwrap();
        let query = Query { tables: vec![TableRef::new("t")], ..Query::default() };
        let params = CostParams::default();
        let mut pool = BufferPool::new(16);
        let mut ctx = ctx_for(&db, &query, &mut pool, &params);
        let key = [ColRef::new(0, "f")];
        for _ in 0..2 {
            let rs = RowSet::from_single(0, (0..keys.len() as u32).collect());
            let got = ctx.sort_rows(rs, &key).unwrap();
            assert_eq!(got.iter().map(|r| r[0]).collect::<Vec<_>>(), [4, 1, 2, 6, 3, 7, 0, 5]);
        }

        let mut rows: Vec<Vec<Value>> = [
            Value::Str("b".into()),
            Value::Float(f64::NAN),
            Value::Int(3),
            Value::Str("a".into()),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(-1.5),
        ]
        .into_iter()
        .map(|v| vec![v])
        .collect();
        rows.sort_by(|a, b| cmp_values(&a[0], &b[0]));
        let shown: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(shown, ["-1.5", "-0", "0", "3", "NaN", "'a'", "'b'"]);
    }

    /// `aggregate` as it was before the ungrouped fold: every row, with or
    /// without GROUP BY, looks its key up in a `HashMap<Vec<u64>, usize>`;
    /// each group keeps (count, sum, min, max) per aggregate, updated in
    /// row order, and rows are emitted in first-seen group order.
    fn aggregate_keyed_oracle(
        ctx: &Ctx<'_>,
        input: &RowSet,
        group_by: &[ColRef],
        aggs: &[AggFunc],
    ) -> Result<Vec<Vec<Value>>> {
        let cell = |i: usize, c: &ColRef| {
            let slot = input.slot_of(c.table).unwrap();
            cell_key(column_of(&ctx.tables, c).unwrap(), input.row(i)[slot])
        };
        let fresh = vec![(0u64, 0.0, f64::INFINITY, f64::NEG_INFINITY); aggs.len()];
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        type Group = (usize, Vec<(u64, f64, f64, f64)>);
        let mut groups: Vec<Group> = Vec::new();
        for i in 0..input.len() {
            let key: Vec<u64> = group_by.iter().map(|g| cell(i, g).to_bits()).collect();
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push((i, fresh.clone()));
                groups.len() - 1
            });
            for (a, st) in aggs.iter().zip(&mut groups[gi].1) {
                let v = a.input().map_or(1.0, |c| cell(i, c));
                *st = (st.0 + 1, st.1 + v, st.2.min(v), st.3.max(v));
            }
        }
        if groups.is_empty() && group_by.is_empty() {
            groups.push((usize::MAX, fresh));
        }
        let mut out = Vec::new();
        for (rep, states) in groups {
            let mut states = states.into_iter();
            let mut row = Vec::new();
            for item in &ctx.query.select {
                row.push(match item {
                    SelectItem::Column(_) if rep == usize::MAX => {
                        return Err(BaoError::Planning("bare column in aggregate select".into()))
                    }
                    SelectItem::Column(c) if !group_by.contains(c) => {
                        return Err(BaoError::InvalidQuery(format!(
                            "selected column {}.{} is not in GROUP BY",
                            c.table, c.column
                        )))
                    }
                    SelectItem::Column(c) => ctx.tables[c.table]
                        .column(&c.column)?
                        .get(input.row(rep)[input.slot_of(c.table).unwrap()] as usize),
                    SelectItem::Agg(a) => {
                        let (count, sum, min, max) = states.next().unwrap();
                        let float = |x| Value::Float(if count == 0 { 0.0 } else { x });
                        match a {
                            AggFunc::CountStar | AggFunc::Count(_) => Value::Int(count as i64),
                            AggFunc::Sum(_) => float(sum),
                            AggFunc::Min(_) => float(min),
                            AggFunc::Max(_) => float(max),
                            AggFunc::Avg(_) => float(sum / count as f64),
                        }
                    }
                });
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Tables `a` and `b` of `n` rows each: `g1` one value, `g16` sixteen,
    /// `u` the row number, `f` a float drawn from -0.0, NaN, ±∞ and
    /// magnitudes from 1e-300 to 1e300.
    fn agg_db(n: usize, seed: u64) -> (Database, Vec<TableRef>) {
        let mut rng = rng_from_seed(seed);
        let mut db = Database::new();
        for name in ["a", "b"] {
            let mut t = Table::new(
                name,
                Schema::new(vec![
                    ColumnDef::new("g1", DataType::Int),
                    ColumnDef::new("g16", DataType::Int),
                    ColumnDef::new("u", DataType::Int),
                    ColumnDef::new("f", DataType::Float),
                ]),
            );
            for i in 0..n {
                let floats =
                    [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e-300, 1e16];
                let f = match rng.gen_index(3) {
                    0 => floats[rng.gen_index(floats.len())],
                    _ => (rng.gen_f64() - 0.5) * 10f64.powi(rng.gen_range(-8i64..=8) as i32),
                };
                t.insert(vec![
                    Value::Int(7),
                    Value::Int(rng.gen_range(0i64..16)),
                    Value::Int(i as i64),
                    Value::Float(f),
                ])
                .unwrap();
            }
            db.create_table(t).unwrap();
        }
        (db, ["a", "b"].map(TableRef::new).to_vec())
    }

    /// Every value by its bits, so `-0.0` and `0.0` differ, except that all
    /// NaNs are one value: which NaN `a + b` returns when both are NaN is
    /// up to code generation (LLVM leaves NaN sign and payload unspecified
    /// and may swap the operands of an add), so it is no property of the
    /// fold.
    fn agg_bits(result: Result<Vec<Vec<Value>>>) -> std::result::Result<Vec<String>, String> {
        let cell = |v: &Value| match v {
            Value::Float(f) if f.is_nan() => "NaN".to_string(),
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        let row = |r: &Vec<Value>| r.iter().map(cell).collect::<Vec<_>>().join(" ");
        result.map(|rows| rows.iter().map(row).collect()).map_err(|e| e.to_string())
    }

    #[test]
    fn aggregate_fold_matches_the_keyed_fold_it_replaced() {
        use AggFunc::{Avg, Count, CountStar, Max, Min, Sum};
        const TABLE_ROWS: usize = 20_000;
        let (db, tables) = agg_db(TABLE_ROWS, 41);
        let params = CostParams::default();
        let mut rng = rng_from_seed(43);
        let (a, b) = (|c: &str| ColRef::new(0, c), |c: &str| ColRef::new(1, c));
        // Every kind over the NaN-bearing float column, and a SELECT of
        // counts alone, which reads no value column.
        let agg_lists = [
            vec![Sum(a("f")), Min(a("f")), Max(b("f")), Avg(b("f")), Count(a("u")), Sum(a("u"))],
            vec![Count(a("f")), Avg(a("f")), Count(b("f"))],
            vec![Count(b("f")), Count(a("u"))],
        ];
        let groupings: [Vec<ColRef>; 5] =
            [vec![], vec![a("g1")], vec![a("g16")], vec![a("u")], vec![a("g16"), b("g16")]];
        let mut folded = 0;
        for n in [0, 1, TABLE_ROWS] {
            // Slot 0 holds `b` at random rows, slot 1 each row of `a` once:
            // grouped by `a.u`, every input row is its own group.
            let mut ids: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut ids);
            let mut input = RowSet::new(vec![1, 0]);
            for &id in &ids {
                input.push(&[rng.gen_index(TABLE_ROWS) as u32, id]);
            }
            let cases = groupings.iter().flat_map(|g| agg_lists.iter().map(move |a| (g, a)));
            for (group_by, aggs) in cases {
                // COUNT(*) first, the group columns, then the rest:
                // columns and aggregates interleave in the SELECT list.
                let select: Vec<SelectItem> = std::iter::once(SelectItem::Agg(CountStar))
                    .chain(group_by.iter().cloned().map(SelectItem::Column))
                    .chain(aggs.iter().cloned().map(SelectItem::Agg))
                    .collect();
                let mut bare = select.clone();
                bare.push(SelectItem::Column(a("g1")));
                for select in [select, bare] {
                    let aggs: Vec<AggFunc> = select
                        .iter()
                        .filter_map(|s| match s {
                            SelectItem::Agg(f) => Some(f.clone()),
                            SelectItem::Column(_) => None,
                        })
                        .collect();
                    let query = Query {
                        tables: tables.clone(),
                        select,
                        group_by: group_by.clone(),
                        ..Query::default()
                    };
                    let mut pool = BufferPool::new(16);
                    let mut ctx = ctx_for(&db, &query, &mut pool, &params);
                    let want = agg_bits(aggregate_keyed_oracle(&ctx, &input, group_by, &aggs));
                    let rel = Relation::Rows(input.clone());
                    let got = agg_bits(ctx.aggregate(&rel, group_by, &aggs));
                    assert_eq!(got, want, "{n} rows by {group_by:?}");
                    folded += n;
                }
            }
        }
        assert!(folded > 500_000, "{folded} rows");
    }

    /// `param_nested_loop` as it was before the replay and the count-only
    /// output: every outer row runs its own lookup and touches every page,
    /// and every joined row is written.
    fn param_nested_loop_oracle(
        ctx: &mut Ctx<'_>,
        outer: &RowSet,
        inner: &ParamInner<'_>,
        pred: &JoinPred,
    ) -> Result<RowSet> {
        let (inner_from, column, param) = (inner.table, inner.column, inner.param);
        // The inner leaf occupies the next pre-order slot.
        let inner_slot = ctx.node_rows.len();
        ctx.node_rows.push(0);

        let st = ctx.table_of(inner_from)?;
        let sidx = st.index_on(column).ok_or_else(|| {
            BaoError::Planning(format!("plan references missing index on {column}"))
        })?;
        let compiled = compile_preds(&st.table, inner.residual)?;
        let outer_slot = outer
            .slot_of(param.table)
            .ok_or_else(|| BaoError::Planning("param column not in outer".into()))?;
        let key_col = ColView::of(column_of(&ctx.tables, param)?);
        if pred.right.column != column {
            return Err(BaoError::Planning(
                "parameterized lookup column does not match the join key".into(),
            ));
        }
        let descent = (sidx.index.height() as f64 + 1.0) * 0.25 * ctx.params.random_page_cost;
        let row_cpu =
            ctx.params.cpu_tuple_cost + compiled.len() as f64 * ctx.params.cpu_operator_cost;

        let mut out =
            RowSet::new(outer.tables.iter().copied().chain(std::iter::once(inner_from)).collect());
        let keys = key_col.join_keys(outer.slot_ids(outer_slot))?;
        let mut inner_rows_total = 0u64;
        let mut passing = Vec::new();
        for (orow, &key) in outer.iter().zip(&keys) {
            let probe = sidx.index.lookup(key);
            ctx.meters.charge_cpu(descent);
            for leaf in probe.leaf_pages {
                ctx.meters.touch_page(
                    ctx.pool,
                    ctx.params,
                    PageKey::new(sidx.object, leaf),
                    PageAccess::Random,
                );
            }
            ctx.meters.charge_cpu(probe.rows.len() as f64 * ctx.params.cpu_index_tuple_cost);
            filter_rows(&compiled, probe.rows.iter().copied(), &mut passing);
            let mut next_passing = passing.iter().peekable();
            for &r in probe.rows {
                if !inner.index_only {
                    ctx.meters.touch_page(
                        ctx.pool,
                        ctx.params,
                        PageKey::new(st.heap_object, st.table.page_of_row(r)),
                        PageAccess::Random,
                    );
                    ctx.meters.charge_cpu(row_cpu);
                }
                if next_passing.next_if_eq(&&r).is_some() {
                    inner_rows_total += 1;
                    out.push_joined(orow, &[r]);
                    if out.len() > ctx.row_cap {
                        return Err(too_large());
                    }
                }
            }
        }
        ctx.node_rows[inner_slot] = inner_rows_total;
        ctx.meters.charge_cpu(out.len() as f64 * ctx.params.cpu_tuple_cost);
        Ok(out)
    }

    /// `node`'s rows as `execute` wrote them when every join wrote its
    /// rows: each join filled as it runs, by `nested_loop_oracle` or
    /// `param_nested_loop_oracle`, with the charges and `node_true_rows`
    /// entries `execute` makes. Scans, and sorts of scans, run as in
    /// `execute`.
    fn filled_rows(ctx: &mut Ctx<'_>, node: &PlanNode) -> Result<RowSet> {
        let (Operator::HashJoin { pred }
        | Operator::MergeJoin { pred }
        | Operator::NestedLoopJoin { pred }) = &node.op
        else {
            return ctx.exec_relation(node, false)?.into_rows();
        };
        let my = ctx.node_rows.len();
        ctx.node_rows.push(0);
        let left = filled_rows(ctx, &node.children[0])?;
        let loop_join = matches!(node.op, Operator::NestedLoopJoin { .. });
        let rows = match ParamInner::of(&node.children[1]).filter(|_| loop_join) {
            Some(inner) => param_nested_loop_oracle(ctx, &left, &inner, pred)?,
            None => {
                let right = filled_rows(ctx, &node.children[1])?;
                let (l, r, p) = (left.len() as f64, right.len() as f64, ctx.params);
                if loop_join {
                    ctx.meters.charge_cpu(
                        (l - 1.0).max(0.0) * r * p.cpu_tuple_cost + l * r * p.cpu_operator_cost,
                    );
                }
                let rows = nested_loop_oracle(ctx, &left, &right, pred, ctx.row_cap)?;
                let out = rows.len() as f64;
                ctx.meters.charge_cpu(match node.op {
                    Operator::HashJoin { .. } => p.hash_join(l, r, out),
                    Operator::MergeJoin { .. } => p.merge_join(l, r, out),
                    _ => out * p.cpu_tuple_cost,
                });
                rows
            }
        };
        ctx.node_rows[my] = rows.len() as u64;
        Ok(rows)
    }

    /// `execute` as it ran before an aggregate read a join's count pass,
    /// at row cap `row_cap`, on a 16-page pool: for a plan whose root is
    /// an aggregate, the rows under it are written out first
    /// (`filled_rows`), and `aggregate_keyed_oracle` folds them.
    fn execute_filled(
        plan: &PlanNode,
        query: &Query,
        db: &Database,
        row_cap: usize,
    ) -> Result<ExecutionMetrics> {
        let Operator::Aggregate { group_by, aggs } = &plan.op else {
            panic!("an aggregate root");
        };
        let (params, rates) = (CostParams::default(), ChargeRates::default());
        let mut pool = BufferPool::new(16);
        let mut ctx = Ctx::new(query, db, &mut pool, &params, row_cap)?;
        ctx.node_rows.push(0);
        let child = filled_rows(&mut ctx, &plan.children[0])?;
        let rows = aggregate_keyed_oracle(&ctx, &child, group_by, aggs)?;
        ctx.meters.charge_cpu(params.aggregate(child.len() as f64, rows.len() as f64));
        ctx.node_rows[0] = rows.len() as u64;
        ctx.finish(NodeOut::Agg(rows), &rates)
    }

    /// `execute` at row cap `row_cap`, on a 16-page pool.
    fn execute_capped(
        plan: &PlanNode,
        query: &Query,
        db: &Database,
        row_cap: usize,
    ) -> Result<ExecutionMetrics> {
        let (params, rates) = (CostParams::default(), ChargeRates::default());
        let mut pool = BufferPool::new(16);
        let mut ctx = Ctx::new(query, db, &mut pool, &params, row_cap)?;
        let out = ctx.exec_node(plan, false)?;
        ctx.finish(out, &rates)
    }

    /// Every field of the metrics by its bits, the output as `agg_bits`
    /// reads it; an error by its message.
    fn metrics_bits(m: Result<ExecutionMetrics>) -> std::result::Result<String, String> {
        let m = m.map_err(|e| e.to_string())?;
        let ms = |d: bao_common::SimDuration| d.as_ms().to_bits();
        Ok(format!(
            "{:x} {:x} {:x} {} {} {} {:?} {:?}",
            ms(m.latency),
            ms(m.cpu_time),
            ms(m.io_time),
            m.page_hits,
            m.page_misses,
            m.rows_out,
            m.node_true_rows,
            agg_bits(Ok(m.output))?
        ))
    }

    /// Tables `a`, `b`, `c` of `n` rows each, with join keys `k` in -3..=8
    /// (direct-indexed), `w` from four values 10^11 apart (hashed) and
    /// `one` always 7 (every row matches every row); group keys `g` in
    /// 0..4 and `t` a text from three words; and `f` drawn from -0.0, 0.0,
    /// NaN, ±∞ and small magnitudes. Tables `l` and `r` hold `big` rows of
    /// `k` = 7 each. `b.k`, `b.w` and `r.k` are indexed.
    fn agg_join_db(n: usize, big: usize, seed: u64) -> Database {
        let mut rng = rng_from_seed(seed);
        let mut db = Database::new();
        for name in ["a", "b", "c"] {
            let mut t = Table::new(
                name,
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                    ColumnDef::new("one", DataType::Int),
                    ColumnDef::new("g", DataType::Int),
                    ColumnDef::new("t", DataType::Text),
                    ColumnDef::new("f", DataType::Float),
                ]),
            );
            for _ in 0..n {
                let floats = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1];
                let f = match rng.gen_index(2) {
                    0 => floats[rng.gen_index(floats.len())],
                    _ => rng.gen_f64() - 0.5,
                };
                t.insert(vec![
                    Value::Int(rng.gen_range(-3i64..=8)),
                    Value::Int([-2e11 as i64, 3, 1e11 as i64, 2e11 as i64][rng.gen_index(4)]),
                    Value::Int(7),
                    Value::Int(rng.gen_range(0i64..4)),
                    Value::Str(["ash", "elm", "yew"][rng.gen_index(3)].into()),
                    Value::Float(f),
                ])
                .unwrap();
            }
            db.create_table(t).unwrap();
        }
        for name in ["l", "r"] {
            let mut t = Table::new(name, Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
            t.insert_many((0..big).map(|_| vec![Value::Int(7)])).unwrap();
            db.create_table(t).unwrap();
        }
        for (table, column) in [("b", "k"), ("b", "w"), ("r", "k")] {
            db.create_index(table, column).unwrap();
        }
        db
    }

    /// A parameterized nested loop: `outer` probing an index on `column`
    /// of FROM position `table` for `param`, with `residual` on each
    /// fetched row, or index-only.
    fn param_loop(
        outer: PlanNode,
        param: ColRef,
        table: usize,
        column: &str,
        residual: Vec<bao_plan::Predicate>,
        index_only: bool,
    ) -> PlanNode {
        let (column, param) = (column.to_string(), Some(param));
        let pred = JoinPred::new(param.clone().unwrap(), ColRef::new(table, column.clone()));
        let inner = match index_only {
            true => Operator::IndexOnlyScan { table, column, lo: None, hi: None, param },
            false => Operator::IndexScan { table, column, lo: None, hi: None, residual, param },
        };
        PlanNode::new(Operator::NestedLoopJoin { pred }, vec![outer, PlanNode::new(inner, vec![])])
    }

    /// `kind`'s join of `l` and `r` on `lk = rk`: a merge join sorts both
    /// inputs on their keys, a loop join rescans its inner.
    fn join_plan(kind: &str, l: PlanNode, r: PlanNode, lk: ColRef, rk: ColRef) -> PlanNode {
        let pred = JoinPred::new(lk.clone(), rk.clone());
        let sort = |n, k| PlanNode::new(Operator::Sort { keys: vec![k] }, vec![n]);
        match kind {
            "hash" => PlanNode::new(Operator::HashJoin { pred }, vec![l, r]),
            "merge" => PlanNode::new(Operator::MergeJoin { pred }, vec![sort(l, lk), sort(r, rk)]),
            _ => PlanNode::new(Operator::NestedLoopJoin { pred }, vec![l, r]),
        }
    }

    #[test]
    fn aggregate_over_a_join_matches_fill_then_aggregate() {
        use bao_plan::{CmpOp, Predicate};
        use AggFunc::{Avg, Count, CountStar, Max, Min, Sum};
        let db = agg_join_db(60, 4_500, 47);
        let (a, b, c) = (
            |col: &str| ColRef::new(0, col),
            |col: &str| ColRef::new(1, col),
            |col: &str| ColRef::new(2, col),
        );
        // A scan of FROM position `t`, every row or none.
        let scan = |t: usize, empty: bool| {
            let preds = if empty {
                vec![Predicate::new(ColRef::new(t, "k"), CmpOp::Gt, Value::Int(100))]
            } else {
                vec![]
            };
            PlanNode::new(Operator::SeqScan { table: t, preds }, vec![])
        };
        // (GROUP BY, aggregates): the SELECT list is the group columns,
        // then the aggregates. The left side's columns, the right side's,
        // and with three tables the outer join's right side.
        type AggCase = (Vec<ColRef>, Vec<AggFunc>);
        let two_way: Vec<AggCase> = vec![
            (vec![], vec![CountStar]),
            (vec![], vec![Count(b("f")), CountStar, Count(a("k"))]),
            (vec![], vec![Count(b("f")), Sum(a("f")), Min(b("f")), Max(a("f")), Avg(b("f"))]),
            (vec![a("g")], vec![CountStar, Sum(b("f")), Min(a("f"))]),
            (vec![b("t"), a("g")], vec![Avg(a("f")), Max(b("f")), Count(a("k"))]),
        ];
        let mut three_way = two_way.clone();
        three_way.push((vec![c("t")], vec![Sum(c("f")), Min(a("f")), CountStar]));
        three_way.push((vec![], vec![Max(c("f")), Sum(b("f"))]));

        // An index-only inner on `b.k` reads no other column of `b`.
        let index_only: Vec<AggCase> = vec![
            (vec![], vec![CountStar]),
            (vec![], vec![Count(b("k")), CountStar, Count(a("f"))]),
            (vec![a("g")], vec![CountStar, Sum(a("f")), Count(b("k"))]),
        ];

        let mut shapes: Vec<(String, PlanNode, &[AggCase])> = Vec::new();
        for kind in ["hash", "merge", "loop"] {
            for key in ["k", "w", "one"] {
                for (l_empty, r_empty) in [(false, false), (true, false), (false, true)] {
                    let plan = join_plan(kind, scan(0, l_empty), scan(1, r_empty), a(key), b(key));
                    let what = format!("{kind} a x b on {key}, empty {l_empty}/{r_empty}");
                    shapes.push((what, plan, &two_way));
                }
            }
            for key in ["k", "w"] {
                let inner = join_plan("hash", scan(0, false), scan(1, false), a("k"), b("k"));
                let plan = join_plan(kind, inner, scan(2, false), b(key), c(key));
                shapes.push((format!("{kind} (a x b) x c on {key}"), plan, &three_way));
            }
        }
        // Parameterized nested loops from `a` into an index on `b`: `a` in
        // row order, empty, and sorted on its key (runs of equal keys);
        // with and without a residual, and index-only.
        let sorted =
            |key: &str| PlanNode::new(Operator::Sort { keys: vec![a(key)] }, vec![scan(0, false)]);
        for key in ["k", "w"] {
            let residual = vec![Predicate::new(b("g"), CmpOp::Lt, Value::Int(2))];
            for (order, outer) in
                [("scanned", scan(0, false)), ("empty", scan(0, true)), ("sorted", sorted(key))]
            {
                for (filter, residual) in [("", vec![]), (" with a residual", residual.clone())] {
                    let plan = param_loop(outer.clone(), a(key), 1, key, residual, false);
                    let what = format!("param loop {order} a x index b on {key}{filter}");
                    shapes.push((what, plan, &two_way));
                }
                if key == "k" {
                    let plan = param_loop(outer, a(key), 1, key, vec![], true);
                    let what = format!("param loop {order} a x index-only b on {key}");
                    shapes.push((what, plan, &index_only));
                }
            }
        }
        let mut aggregated = 0;
        for (shape, join, cases) in &shapes {
            let tables = &["a", "b", "c"][..join.tables_covered().len()];
            for (group_by, aggs) in cases.iter() {
                let select = group_by
                    .iter()
                    .cloned()
                    .map(SelectItem::Column)
                    .chain(aggs.iter().cloned().map(SelectItem::Agg))
                    .collect();
                let query = Query {
                    tables: tables.iter().map(|&t| TableRef::new(t)).collect(),
                    select,
                    group_by: group_by.clone(),
                    ..Query::default()
                };
                let agg = Operator::Aggregate { group_by: group_by.clone(), aggs: aggs.clone() };
                let plan = PlanNode::new(agg, vec![join.clone()]);
                let (params, rates) = (CostParams::default(), ChargeRates::default());
                let mut pool = BufferPool::new(16);
                let got = execute(&plan, &query, &db, &mut pool, &params, &rates);
                aggregated += got.as_ref().map_or(0, |m| m.node_true_rows[1]);
                let want = execute_filled(&plan, &query, &db, ROW_CAP);
                let what = format!("{shape} by {group_by:?}: {aggs:?}");
                assert_eq!(metrics_bits(got), metrics_bits(want), "{what}");
            }
        }
        assert!(aggregated > 33_333, "{aggregated} joined rows");

        // 4,500 x 4,500 rows on one key: 20.25 M, over the cap.
        let refused = Err("planning error: intermediate result too large".to_string());
        let query =
            Query { tables: vec![TableRef::new("l"), TableRef::new("r")], ..Query::default() };
        for kind in ["hash", "merge", "loop"] {
            let (lk, rk) = (ColRef::new(0, "k"), ColRef::new(1, "k"));
            let join = join_plan(kind, scan(0, false), scan(1, false), lk, rk);
            let agg = Operator::Aggregate { group_by: vec![], aggs: vec![CountStar] };
            let plan = PlanNode::new(agg, vec![join]);
            let query = Query { select: vec![SelectItem::Agg(CountStar)], ..query.clone() };
            let (params, rates) = (CostParams::default(), ChargeRates::default());
            let mut pool = BufferPool::new(16);
            let got = execute(&plan, &query, &db, &mut pool, &params, &rates);
            let want = execute_filled(&plan, &query, &db, ROW_CAP);
            assert_eq!(metrics_bits(got), refused, "{kind}");
            assert_eq!(metrics_bits(want), refused, "{kind}");
        }

        // A parameterized nested loop over a cap of 50,000 rows: `l`'s 4,500
        // rows all probe key 7, which 4,500 rows of `r` hold. Its heap
        // pages and leaves overflow the 16-page pool; its leaves alone fit,
        // so the index-only loop replays until the row that crosses the cap.
        let r_k = ColRef::new(1, "k");
        for (aggs, index_only) in [
            (vec![CountStar], false),
            (vec![CountStar], true),
            (vec![Count(r_k.clone())], true),
            (vec![Count(r_k.clone()), Count(ColRef::new(0, "k"))], false),
        ] {
            let join = param_loop(scan(0, false), ColRef::new(0, "k"), 1, "k", vec![], index_only);
            let agg = Operator::Aggregate { group_by: vec![], aggs: aggs.clone() };
            let plan = PlanNode::new(agg, vec![join]);
            let select = aggs.iter().cloned().map(SelectItem::Agg).collect();
            let query = Query { select, ..query.clone() };
            let what = format!("{aggs:?}, index-only {index_only}");
            // In the second probe, and well into the run.
            for row_cap in [4_501, 50_000] {
                let got = metrics_bits(execute_capped(&plan, &query, &db, row_cap));
                let want = metrics_bits(execute_filled(&plan, &query, &db, row_cap));
                assert_eq!(got, want, "{what}, cap {row_cap}");
                assert_eq!(got, refused, "{what}, cap {row_cap}");
            }
        }
    }

    /// Table `o` (FROM position 0): an int `k`, two rows per key in
    /// -3..997. Table `i` (position 1), 30 rows to a page over 600 pages:
    /// `k`, indexed, is -1 on the first row of every page, -2 on rows 1..=5
    /// (one page) and `r % 997` on the rest (about 18 rows on as many
    /// pages); no row holds -3. `v` is `r % 7`, for a residual.
    fn loop_db() -> Database {
        let mut db = Database::new();
        let mut o = Table::new("o", Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        o.insert_many((0..2_000).map(|j| vec![Value::Int(j / 2 - 3)])).unwrap();
        db.create_table(o).unwrap();
        // Two ints and eight texts: 8,192 / 272 bytes = 30 rows per page.
        let mut cols = vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Int)];
        cols.extend((0..8).map(|c| ColumnDef::new(format!("pad{c}"), DataType::Text)));
        let mut i = Table::new("i", Schema::new(cols));
        i.insert_many((0..18_000i64).map(|r| {
            let k = match r {
                r if r % 30 == 0 => -1,
                1..=5 => -2,
                r => r % 997,
            };
            let mut row = vec![Value::Int(k), Value::Int(r % 7)];
            row.resize(10, Value::Str("pad".into()));
            row
        }))
        .unwrap();
        assert_eq!(i.rows_per_page(), 30);
        db.create_table(i).unwrap();
        db.create_index("i", "k").unwrap();
        db
    }

    /// About `n` rows of `o` in runs of 1–50 rows of one key: -1 (600
    /// inner rows on 600 pages) a fifth of the time, -2 (5 rows on one
    /// page) and -3 (none) a tenth each, else a key in 0..997.
    fn outer_runs(rng: &mut impl Rng, n: usize) -> RowSet {
        let mut ids = Vec::new();
        while ids.len() < n {
            let key = match rng.gen_index(10) {
                0..=1 => -1,
                2 => -2,
                3 => -3,
                _ => rng.gen_range(0i64..997),
            };
            for _ in 0..rng.gen_range(1usize..=50) {
                // Either of the key's two rows.
                ids.push((2 * (key + 3)) as u32 + rng.gen_index(2) as u32);
            }
        }
        RowSet::from_single(0, ids)
    }

    /// What a loop leaves in its `Ctx`: every meter by its bits (every bit
    /// `ExecutionMetrics` takes from them) and `node_true_rows`, then its
    /// rows, their count, or its error.
    fn loop_outcome(ctx: &Ctx<'_>, out: Result<Relation>) -> String {
        let m = &ctx.meters;
        let rows = match out {
            Ok(Relation::Rows(rs)) => {
                format!("{:?} {:?}", rs.tables, rs.iter().collect::<Vec<_>>())
            }
            Ok(Relation::Counted { tables, rows }) => format!("{tables:?}, {rows} rows counted"),
            Ok(Relation::Join { .. }) => "a join's count pass".into(),
            Err(e) => e.to_string(),
        };
        let (cpu, io) = (m.cpu_units.to_bits(), m.io_units.to_bits());
        let (hits, misses) = (m.page_hits, m.page_misses);
        format!("cpu {cpu:x} io {io:x} hits {hits} misses {misses} {:?}: {rows}", ctx.node_rows)
    }

    /// Two pools with the same stats, residency and recency order: equal
    /// now, and a trace of random touches over `pages` and fresh pages,
    /// long enough to evict every page several times, hits and misses
    /// alike in both and leaves them equal.
    fn assert_same_pool(
        a: &mut BufferPool,
        b: &mut BufferPool,
        pages: &[PageKey],
        rng: &mut impl Rng,
        what: &str,
    ) {
        let same = |a: &BufferPool, b: &BufferPool, when: &str| {
            assert_eq!(a.stats(), b.stats(), "{what}, {when}");
            assert_eq!(a.len(), b.len(), "{what}, {when}");
            for &p in pages {
                assert_eq!(a.contains(p), b.contains(p), "{what}, {when}: {p:?}");
            }
        };
        same(a, b, "after the loop");
        let fresh = 2 * a.capacity() as u32 + 1;
        for step in 0..4 * a.capacity() + 64 {
            let key = match rng.gen_bool(0.5) {
                true => pages[rng.gen_index(pages.len())],
                false => PageKey::new(999, rng.gen_range(0..fresh)),
            };
            let kind = AccessKind::Cached;
            assert_eq!(a.access(key, kind), b.access(key, kind), "{what}, follow-up {step}");
        }
        same(a, b, "after the follow-up trace");
    }

    /// The replayed loop against the loop it replaced, which runs every
    /// lookup and touches every page: outer runs of 1–50 equal keys, pools
    /// of 0, 1, 8 and 510 pages warmed at random, lookups whose distinct
    /// pages fit the pool and lookups whose pages overflow it (replay
    /// refused), index and index-only inners, a residual, rows written and
    /// only counted, and row caps that fail inside a replayed run.
    #[test]
    fn param_loop_replay_matches_touching_every_row() {
        use bao_plan::{CmpOp, Predicate};
        let db = loop_db();
        let query = Query { tables: ["o", "i"].map(TableRef::new).to_vec(), ..Query::default() };
        let params = CostParams::default();
        let ok = ColRef::new(0, "k");
        let pred = JoinPred::new(ok.clone(), ColRef::new(1, "k"));
        let residual = [Predicate::new(ColRef::new(1, "v"), CmpOp::Lt, Value::Int(3))];
        let inners = [
            ParamInner { table: 1, column: "k", residual: &[], param: &ok, index_only: false },
            ParamInner {
                table: 1,
                column: "k",
                residual: &residual,
                param: &ok,
                index_only: false,
            },
            ParamInner { table: 1, column: "k", residual: &[], param: &ok, index_only: true },
        ];
        let st = db.by_name("i").unwrap();
        let sidx = st.index_on("k").unwrap();
        let pages: Vec<PageKey> = (0..st.table.n_pages())
            .map(|p| PageKey::new(st.heap_object, p))
            .chain((0..sidx.index.n_pages()).map(|p| PageKey::new(sidx.object, p)))
            .collect();

        let run = |pool: &mut BufferPool, outer: &RowSet, inner, count_only, row_cap, oracle| {
            let mut ctx = ctx_for(&db, &query, pool, &params);
            ctx.row_cap = row_cap;
            let out = match oracle {
                false => ctx.param_nested_loop(outer, inner, &pred, count_only),
                true => param_nested_loop_oracle(&mut ctx, outer, inner, &pred).map(|rs| {
                    match count_only {
                        true => Relation::Counted { tables: rs.tables.clone(), rows: rs.len() },
                        false => Relation::Rows(rs),
                    }
                }),
            };
            loop_outcome(&ctx, out)
        };

        let mut rng = rng_from_seed(53);
        // Outer rows whose key repeats the previous row's, by whether the
        // lookup's distinct pages fit the pool; caps crossed in a replay.
        let (mut replayable, mut refused, mut capped_in_replay) = (0, 0, 0);
        for capacity in [0, 1, 8, 510] {
            for inner in &inners {
                for count_only in [false, true] {
                    let outer = outer_runs(&mut rng, 300);
                    let mut warm = BufferPool::new(capacity);
                    for _ in 0..2 * capacity {
                        warm.access(pages[rng.gen_index(pages.len())], AccessKind::Cached);
                    }

                    // Each outer row's passing rows and its lookup's
                    // distinct pages, from the index.
                    let keys: Vec<i64> = outer.iter().map(|r| i64::from(r[0] / 2) - 3).collect();
                    let (mut passing, mut distinct) = (Vec::new(), Vec::new());
                    for &key in &keys {
                        let probe = sidx.index.lookup(key);
                        let pass = |r: &&u32| inner.residual.is_empty() || *r % 7 < 3;
                        passing.push(probe.rows.iter().filter(pass).count());
                        let mut heap: Vec<u32> =
                            probe.rows.iter().map(|&r| st.table.page_of_row(r)).collect();
                        heap.dedup();
                        let heap = if inner.index_only { 0 } else { heap.len() };
                        distinct.push(probe.leaf_pages.len() + heap);
                    }
                    let total: usize = passing.iter().sum();
                    // The first replayable row with at least two passing
                    // rows: a cap one past the rows before it fails at its
                    // second.
                    let replay_at = (1..keys.len()).find(|&j| {
                        keys[j] == keys[j - 1] && distinct[j] <= capacity && passing[j] >= 2
                    });
                    let mut caps = vec![ROW_CAP, rng.gen_range(0..=total)];
                    if let Some(j) = replay_at {
                        caps.push(passing[..j].iter().sum::<usize>() + 1);
                        capped_in_replay += 1;
                    }
                    for j in 1..keys.len() {
                        if keys[j] == keys[j - 1] {
                            match distinct[j] <= capacity {
                                true => replayable += 1,
                                false => refused += 1,
                            }
                        }
                    }

                    for row_cap in caps {
                        let what = format!(
                            "pool {capacity}, index-only {}, residual {}, count-only \
                             {count_only}, cap {row_cap}",
                            inner.index_only,
                            !inner.residual.is_empty()
                        );
                        let (mut got_pool, mut want_pool) = (warm.clone(), warm.clone());
                        let got = run(&mut got_pool, &outer, inner, count_only, row_cap, false);
                        let want = run(&mut want_pool, &outer, inner, count_only, row_cap, true);
                        assert_eq!(got, want, "{what}");
                        assert_same_pool(&mut got_pool, &mut want_pool, &pages, &mut rng, &what);
                    }
                }
            }
        }
        assert!(replayable > 1_000 && refused > 1_000, "{replayable} / {refused}");
        assert!(capped_in_replay >= 12, "{capped_in_replay}");
    }
}
