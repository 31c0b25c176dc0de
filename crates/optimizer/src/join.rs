//! Join-order enumeration for a whole arm family.
//!
//! A hint set only adds `disable_cost` to operator families, so which
//! relation subsets get joined, in which order the splits and their
//! physical alternatives are priced, every row estimate and `work` are
//! the same for every arm. [`Lattice::build`] enumerates that structure
//! once per query — dynamic programming (DPsize) for narrow queries,
//! greedy operator ordering (GOO) for wide ones — and [`Lattice::price`]
//! derives one arm from it: a pass of float arithmetic that records, per
//! subset, the cheapest alternative and where it came from. Only the
//! winning tree is then built ([`Lattice::tree`]).

use crate::access::{BaseRel, KeyRange, ParamInner, Penalties, PlannerCtx};
use bao_common::{BaoError, Result};
use bao_plan::{ColRef, JoinAlgo, JoinPred, Operator, PlanNode, Query};
use std::collections::BTreeMap;
use std::ops::Range;

/// Queries up to this many relations are planned with exact DP; wider
/// queries fall back to greedy enumeration (PostgreSQL similarly switches
/// to GEQO beyond `geqo_threshold`).
pub const DP_THRESHOLD: usize = 8;

/// One query join predicate with what planning needs of it resolved once.
struct Edge {
    /// FROM-list positions of its two sides, as written.
    a: usize,
    b: usize,
    /// Selectivity relative to the cross product of the two tables.
    sel: f64,
    /// The parameterized lookup its right side offers (`[0]`), and its
    /// left side when the predicate is used flipped (`[1]`).
    params: [Option<ParamInner>; 2],
}

/// A use of a join predicate, oriented so that its left column belongs to
/// the split's left input.
#[derive(Debug, Clone, Copy)]
struct PredRef {
    join: usize,
    flipped: bool,
}

/// The physical alternatives of a split, in the order they are priced.
#[derive(Debug, Clone, Copy)]
enum Alt {
    Hash,
    Merge,
    Loop,
    /// Nested loop over a parameterized index lookup: only when the right
    /// input is a single base relation with an index on the join key.
    ParamLoop(ParamInner),
}

/// `left ⋈ right` for two disjoint, connected subsets, with every cost
/// term that depends on row counts alone.
struct Split {
    left: usize,
    right: usize,
    /// The predicate the physical join uses.
    key: PredRef,
    /// Further predicates connecting the two sides (cyclic graphs): a
    /// `Filter` above the join, so plans stay semantically identical
    /// regardless of join order.
    extra: Vec<PredRef>,
    l_rows: f64,
    out_rows: f64,
    hash: f64,
    sort_l: f64,
    sort_r: f64,
    merge: f64,
    /// CPU of the `Filter` over `extra`; zero without one.
    filter_cpu: f64,
    param: Option<ParamInner>,
}

impl Split {
    fn alts(&self) -> impl Iterator<Item = Alt> {
        [Alt::Hash, Alt::Merge, Alt::Loop].into_iter().chain(self.param.map(Alt::ParamLoop))
    }
}

/// A subset of the FROM list that some plan produces. Ids `0..n` are the
/// base relations; a joined subset follows every subset it is built from.
struct Subset {
    /// Estimated rows: order-independent, so all plans of the subset
    /// agree (as in a Selinger optimizer).
    rows: f64,
    /// Its splits in enumeration order (none for a base relation).
    splits: Range<usize>,
}

/// Where one arm's cheapest plan of a subset comes from.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Position in the relation's `scans`.
    Scan(usize),
    /// Position in the lattice's splits, and the alternative.
    Join(usize, Alt),
}

/// One arm's cheapest plan of a subset.
#[derive(Debug, Clone, Copy)]
pub struct Choice {
    cost: f64,
    rescan: f64,
    pick: Pick,
}

/// The arm-independent enumeration of one query.
pub struct Lattice<'a> {
    query: &'a Query,
    params: &'a crate::cost::CostParams,
    rels: &'a [BaseRel<'a>],
    edges: Vec<Edge>,
    subsets: Vec<Subset>,
    splits: Vec<Split>,
    /// Abstract planning effort of one arm (candidates priced); the cloud
    /// model converts this into simulated optimization time.
    pub work: u64,
}

impl<'a> Lattice<'a> {
    /// Enumerate the join space of the query's FROM list. The last subset
    /// covers every relation.
    pub fn build(ctx: &PlannerCtx<'a>, rels: &'a [BaseRel<'a>]) -> Result<Lattice<'a>> {
        let n = rels.len();
        if n == 0 {
            return Err(BaoError::InvalidQuery("empty FROM list".into()));
        }
        validate_join_graph(ctx.query, n)?;
        let mut lattice = Lattice {
            query: ctx.query,
            params: ctx.params,
            rels,
            edges: ctx.query.joins.iter().map(|j| Edge::resolve(ctx, rels, j)).collect(),
            subsets: rels.iter().map(|r| Subset { rows: r.out_rows, splits: 0..0 }).collect(),
            splits: Vec::new(),
            work: rels.iter().map(|r| r.scans.len() as u64).sum(),
        };
        if n > DP_THRESHOLD {
            lattice.enumerate_greedy()?;
        } else if n > 1 {
            lattice.enumerate_dp()?;
        }
        Ok(lattice)
    }

    /// Rows of the full join.
    pub fn rows(&self) -> f64 {
        self.subsets.last().map_or(1.0, |s| s.rows)
    }

    /// DPsize: every connected subset in mask order, every split of it
    /// into two planned subsets; both orientations appear naturally as
    /// (s, mask^s) and (mask^s, s).
    fn enumerate_dp(&mut self) -> Result<()> {
        const NONE: usize = usize::MAX;
        let n = self.rels.len();
        let full: u32 = (1u32 << n) - 1;
        let mut id_of = vec![NONE; 1 << n];
        for i in 0..n {
            id_of[1 << i] = i;
        }
        for mask in 3..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            let start = self.splits.len();
            let out_rows = self.rows_for(mask);
            let mut s = (mask - 1) & mask;
            while s > 0 {
                let t = mask ^ s;
                if id_of[s as usize] != NONE && id_of[t as usize] != NONE {
                    self.push_split(id_of[s as usize], id_of[t as usize], s, t, out_rows);
                }
                s = (s - 1) & mask;
            }
            if self.splits.len() > start {
                id_of[mask as usize] = self.subsets.len();
                self.subsets.push(Subset { rows: out_rows, splits: start..self.splits.len() });
            }
        }
        if id_of[full as usize] == NONE {
            return Err(BaoError::Planning("DP found no plan covering all relations".into()));
        }
        Ok(())
    }

    /// GOO: repeatedly join the connected pair whose output is smallest,
    /// trying both orientations and every algorithm. Which pair that is
    /// depends on rows alone, so the merge sequence is the same for every
    /// arm.
    fn enumerate_greedy(&mut self) -> Result<()> {
        let mut entries: Vec<(u32, usize)> = (0..self.rels.len()).map(|i| (1 << i, i)).collect();
        let mut rows_memo: BTreeMap<u32, f64> = BTreeMap::new();
        while entries.len() > 1 {
            let mut pick: Option<(usize, usize, f64)> = None;
            for i in 0..entries.len() {
                for j in 0..entries.len() {
                    if i != j && self.connecting(entries[i].0, entries[j].0).is_some() {
                        let mask = entries[i].0 | entries[j].0;
                        let rows = *rows_memo.entry(mask).or_insert_with(|| self.rows_for(mask));
                        if pick.is_none_or(|(_, _, r)| rows < r) {
                            pick = Some((i, j, rows));
                        }
                    }
                }
            }
            let Some((i, j, out_rows)) = pick else {
                return Err(BaoError::Planning("greedy: no connected pair".into()));
            };
            let ((l_mask, l), (r_mask, r)) = (entries[i], entries[j]);
            let start = self.splits.len();
            self.push_split(l, r, l_mask, r_mask, out_rows);
            self.push_split(r, l, r_mask, l_mask, out_rows);
            entries.remove(i.max(j));
            entries.remove(i.min(j));
            entries.push((l_mask | r_mask, self.subsets.len()));
            self.subsets.push(Subset { rows: out_rows, splits: start..self.splits.len() });
        }
        Ok(())
    }

    /// Estimated output rows of the join of the relation subset `mask`:
    /// product of filtered base cardinalities times the selectivity of
    /// every join predicate internal to the subset.
    fn rows_for(&self, mask: u32) -> f64 {
        let mut rows = 1.0;
        for rel in self.rels {
            if mask & (1 << rel.idx) != 0 {
                rows *= rel.out_rows;
            }
        }
        for e in &self.edges {
            if mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0 {
                rows *= e.sel;
            }
        }
        rows.max(1.0)
    }

    /// Every join predicate connecting two disjoint subsets, oriented
    /// left to right, split into the first and the rest; `None` when
    /// unconnected.
    fn connecting(&self, l_mask: u32, r_mask: u32) -> Option<(PredRef, Vec<PredRef>)> {
        let mut preds = self.edges.iter().enumerate().filter_map(|(join, e)| {
            if l_mask & (1 << e.a) != 0 && r_mask & (1 << e.b) != 0 {
                Some(PredRef { join, flipped: false })
            } else if l_mask & (1 << e.b) != 0 && r_mask & (1 << e.a) != 0 {
                Some(PredRef { join, flipped: true })
            } else {
                None
            }
        });
        let key = preds.next()?;
        Some((key, preds.collect()))
    }

    /// Record `left ⋈ right` if any predicate connects them, and count
    /// its alternatives as planning effort.
    fn push_split(&mut self, left: usize, right: usize, l_mask: u32, r_mask: u32, out_rows: f64) {
        let Some((key, extra)) = self.connecting(l_mask, r_mask) else { return };
        let p = self.params;
        let (l_rows, r_rows) = (self.subsets[left].rows, self.subsets[right].rows);
        let param = if right < self.rels.len() {
            self.edges[key.join].params[usize::from(key.flipped)]
        } else {
            None
        };
        let split = Split {
            left,
            right,
            key,
            l_rows,
            out_rows,
            hash: p.hash_join(l_rows, r_rows, out_rows),
            sort_l: p.sort(l_rows),
            sort_r: p.sort(r_rows),
            merge: p.merge_join(l_rows, r_rows, out_rows),
            filter_cpu: if extra.is_empty() {
                0.0
            } else {
                out_rows * extra.len() as f64 * p.cpu_operator_cost
            },
            extra,
            param,
        };
        self.work += split.alts().count() as u64;
        self.splits.push(split);
    }

    /// One alternative's cost and rescan cost under an arm, before the
    /// split's `Filter`. Penalties are added last, as the planner always
    /// has: float addition is not associative, and every bit of a raw
    /// plan's cost is pinned.
    fn price_alt(&self, sp: &Split, alt: Alt, best: &[Choice], pens: &Penalties) -> (f64, f64) {
        let p = self.params;
        let (l, r) = (&best[sp.left], &best[sp.right]);
        match alt {
            // Probe with left, build on right.
            Alt::Hash => (
                l.cost + r.cost + sp.hash + pens.join(JoinAlgo::Hash),
                l.rescan + r.rescan + sp.hash,
            ),
            // Explicit sorts on both inputs.
            Alt::Merge => (
                (l.cost + sp.sort_l) + (r.cost + sp.sort_r) + sp.merge + pens.join(JoinAlgo::Merge),
                l.rescan + r.rescan + sp.sort_l + sp.sort_r + sp.merge,
            ),
            // Naive inner rescans.
            Alt::Loop => (
                l.cost
                    + p.nested_loop(sp.l_rows, r.cost, r.rescan, sp.out_rows)
                    + pens.join(JoinAlgo::NestedLoop),
                l.rescan + p.nested_loop(sp.l_rows, r.rescan, r.rescan, sp.out_rows),
            ),
            Alt::ParamLoop(inner) => {
                let probes = sp.l_rows * inner.lookup;
                let emit = sp.out_rows * p.cpu_tuple_cost;
                let pen = pens.join(JoinAlgo::NestedLoop);
                (l.cost + probes + emit + pen + pens.scan(inner.kind), l.rescan + probes + emit)
            }
        }
    }

    /// The cost-only pass: one arm's cheapest plan of every subset, in
    /// subset order, into `best`. Of equally cheap alternatives the first
    /// priced wins.
    pub fn price(&self, pens: &Penalties, best: &mut Vec<Choice>) -> Result<()> {
        best.clear();
        for rel in self.rels {
            let (i, cost) = rel.cheapest_scan(pens)?;
            best.push(Choice { cost, rescan: rel.scans[i].rescan, pick: Pick::Scan(i) });
        }
        for subset in &self.subsets[self.rels.len()..] {
            let mut winner: Option<Choice> = None;
            for si in subset.splits.clone() {
                let sp = &self.splits[si];
                for alt in sp.alts() {
                    let (cost, rescan) = self.price_alt(sp, alt, best, pens);
                    // Extra connecting predicates filter the join output.
                    let (cost, rescan) = (cost + sp.filter_cpu, rescan + sp.filter_cpu);
                    if winner.is_none_or(|w| cost.total_cmp(&w.cost).is_lt()) {
                        winner = Some(Choice { cost, rescan, pick: Pick::Join(si, alt) });
                    }
                }
            }
            best.push(winner.ok_or_else(|| BaoError::Planning("subset without a split".into()))?);
        }
        Ok(())
    }

    /// Build the arm's plan of the full join from the choices `price`
    /// recorded.
    pub fn tree(&self, best: &[Choice], pens: &Penalties) -> PlanNode {
        self.node(self.subsets.len() - 1, best, pens)
    }

    fn node(&self, id: usize, best: &[Choice], pens: &Penalties) -> PlanNode {
        let choice = &best[id];
        let (si, alt) = match choice.pick {
            Pick::Scan(i) => {
                let rel = &self.rels[id];
                let scan = &rel.scans[i];
                return PlanNode::new(rel.scan_operator(scan.kind, scan.range, None), vec![])
                    .with_estimates(rel.out_rows, choice.cost);
            }
            Pick::Join(si, alt) => (si, alt),
        };
        let sp = &self.splits[si];
        let pred = self.pred(sp.key);
        let (cost, _) = self.price_alt(sp, alt, best, pens);
        let left = self.node(sp.left, best, pens);
        let right = match alt {
            Alt::ParamLoop(inner) => {
                let range = Some(KeyRange::unbounded(&pred.right.column));
                let param = Some(pred.left.clone());
                PlanNode::new(self.rels[sp.right].scan_operator(inner.kind, range, param), vec![])
                    .with_estimates(inner.rows, inner.lookup)
            }
            _ => self.node(sp.right, best, pens),
        };
        let sort = |key: &ColRef, input: PlanNode, rows: f64, cost: f64| {
            PlanNode::new(Operator::Sort { keys: vec![key.clone()] }, vec![input])
                .with_estimates(rows, cost)
        };
        let join = match alt {
            Alt::Hash => PlanNode::new(Operator::HashJoin { pred }, vec![left, right]),
            Alt::Merge => {
                let (l_cost, r_cost) = (best[sp.left].cost, best[sp.right].cost);
                let r_rows = self.subsets[sp.right].rows;
                let sort_l = sort(&pred.left, left, sp.l_rows, l_cost + sp.sort_l);
                let sort_r = sort(&pred.right, right, r_rows, r_cost + sp.sort_r);
                PlanNode::new(Operator::MergeJoin { pred }, vec![sort_l, sort_r])
            }
            Alt::Loop | Alt::ParamLoop(_) => {
                PlanNode::new(Operator::NestedLoopJoin { pred }, vec![left, right])
            }
        }
        .with_estimates(sp.out_rows, cost);
        if sp.extra.is_empty() {
            return join;
        }
        let preds = sp.extra.iter().map(|&e| self.pred(e)).collect();
        PlanNode::new(Operator::Filter { preds }, vec![join])
            .with_estimates(sp.out_rows, choice.cost)
    }

    fn pred(&self, r: PredRef) -> JoinPred {
        let j = &self.query.joins[r.join];
        if r.flipped {
            JoinPred::new(j.right.clone(), j.left.clone())
        } else {
            j.clone()
        }
    }
}

impl Edge {
    /// Resolve a join predicate's selectivity and parameterized lookups
    /// once, so no arm and no split asks the estimator again.
    fn resolve(ctx: &PlannerCtx<'_>, rels: &[BaseRel<'_>], j: &JoinPred) -> Edge {
        let (l, r) = (&rels[j.left.table], &rels[j.right.table]);
        let jsel = |a: &BaseRel<'_>, a_col: &str, b: &BaseRel<'_>, b_col: &str| {
            ctx.est.join_selectivity(ctx.cat, a.name, a_col, b.name, b_col)
        };
        let sel = jsel(l, &j.left.column, r, &j.right.column);
        Edge {
            a: j.left.table,
            b: j.right.table,
            sel,
            params: [
                r.param_inner(ctx.params, &j.right.column, || sel),
                // Flipped, the estimator is asked the way the flipped
                // predicate reads.
                l.param_inner(ctx.params, &j.left.column, || {
                    jsel(r, &j.right.column, l, &j.left.column)
                }),
            ],
        }
    }
}

/// The join graph must be connected (no Cartesian products). Cycles and
/// parallel edges are allowed: when two sub-plans are connected by more
/// than one predicate, the physical join uses one and the rest become a
/// `Filter` above it.
fn validate_join_graph(query: &Query, n: usize) -> Result<()> {
    for j in &query.joins {
        let (a, b) = (j.left.table, j.right.table);
        if a == b || a >= n || b >= n {
            return Err(BaoError::InvalidQuery(format!("bad join predicate {a}-{b}")));
        }
    }
    if !bao_plan::JoinGraph::from_query(query).is_connected() {
        return Err(BaoError::Planning("disconnected join graph (cartesian product)".into()));
    }
    Ok(())
}
