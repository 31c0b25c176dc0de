//! The cost model: PostgreSQL-flavoured constants and shared formulas.
//!
//! The same formulas price plans twice: at planning time with *estimated*
//! cardinalities (this crate) and at execution time with *true*
//! cardinalities (`bao-exec`'s cost-accurate simulation). Keeping them in
//! one place guarantees the executor's "ground truth" differs from the
//! optimizer's expectation only through cardinality estimation error —
//! exactly the gap Bao's hint sets exploit.

/// Cost-model constants. Units are PostgreSQL cost units, where reading
/// one page sequentially from disk costs 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    pub seq_page_cost: f64,
    pub random_page_cost: f64,
    pub cpu_tuple_cost: f64,
    pub cpu_index_tuple_cost: f64,
    pub cpu_operator_cost: f64,
    /// Penalty added to operators a hint set disables (PostgreSQL's
    /// `disable_cost`). Plans remain constructible under any hint set.
    pub disable_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
            disable_cost: 1.0e10,
        }
    }
}

impl CostParams {
    /// Cost of a full sequential heap scan.
    pub fn seq_scan(&self, pages: f64, rows: f64, n_preds: usize) -> f64 {
        pages * self.seq_page_cost
            + rows * (self.cpu_tuple_cost + n_preds as f64 * self.cpu_operator_cost)
    }

    /// Cost of an index range scan fetching heap tuples.
    ///
    /// `sel` is the fraction of the index satisfying the range condition;
    /// `matching` the number of heap rows fetched.
    pub fn index_scan(
        &self,
        height: f64,
        leaf_pages: f64,
        entries: f64,
        sel: f64,
        matching: f64,
        n_residual: usize,
    ) -> f64 {
        let descend = height * self.random_page_cost;
        let leaves = (sel * leaf_pages).max(1.0) * self.seq_page_cost;
        let index_cpu = sel * entries * self.cpu_index_tuple_cost;
        // Unclustered heap fetches: one random page per matching row,
        // damped because nearby fetches often share pages.
        let heap = matching * 0.5 * self.random_page_cost;
        let tuple_cpu =
            matching * (self.cpu_tuple_cost + n_residual as f64 * self.cpu_operator_cost);
        descend + leaves + index_cpu + heap + tuple_cpu
    }

    /// Cost of an index-only scan (no heap fetches).
    pub fn index_only_scan(&self, height: f64, leaf_pages: f64, entries: f64, sel: f64) -> f64 {
        height * self.random_page_cost
            + (sel * leaf_pages).max(1.0) * self.seq_page_cost
            + sel * entries * self.cpu_index_tuple_cost
    }

    /// Per-outer-row cost of a parameterized index lookup on the inner
    /// side of a nested-loop join. Interior pages are hot after the first
    /// few probes, so descent is priced near cache speed.
    pub fn param_index_lookup(&self, height: f64, matching_per_key: f64, heap: bool) -> f64 {
        let descend = (height + 1.0) * 0.25 * self.random_page_cost;
        let heap_cost = if heap { matching_per_key * 0.5 * self.random_page_cost } else { 0.0 };
        descend
            + matching_per_key * self.cpu_index_tuple_cost
            + heap_cost
            + matching_per_key * self.cpu_tuple_cost
    }

    /// Hash join cost on top of its inputs.
    pub fn hash_join(&self, outer_rows: f64, inner_rows: f64, out_rows: f64) -> f64 {
        // Build the hash table on the inner, probe with the outer.
        inner_rows * (self.cpu_operator_cost * 2.0 + self.cpu_tuple_cost)
            + outer_rows * self.cpu_operator_cost * 2.0
            + out_rows * self.cpu_tuple_cost
    }

    /// Merge join cost on top of (already sorted) inputs.
    pub fn merge_join(&self, left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
        (left_rows + right_rows) * self.cpu_operator_cost * 2.0 + out_rows * self.cpu_tuple_cost
    }

    /// Nested-loop join cost on top of its outer input, given the cost to
    /// obtain the inner's rows once (`inner_first`) and on each subsequent
    /// rescan (`inner_rescan`).
    pub fn nested_loop(
        &self,
        outer_rows: f64,
        inner_first: f64,
        inner_rescan: f64,
        out_rows: f64,
    ) -> f64 {
        let loops = outer_rows.max(1.0);
        inner_first + (loops - 1.0) * inner_rescan + out_rows * self.cpu_tuple_cost
    }

    /// Sort cost: comparison-dominated `n log n`.
    pub fn sort(&self, rows: f64) -> f64 {
        let n = rows.max(2.0);
        2.0 * n * n.log2() * self.cpu_operator_cost
    }

    /// (Hash) aggregation cost.
    pub fn aggregate(&self, in_rows: f64, groups: f64) -> f64 {
        in_rows * (self.cpu_operator_cost * 2.0 + self.cpu_tuple_cost)
            + groups * self.cpu_tuple_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn seq_scan_scales_with_pages_and_rows() {
        let a = p().seq_scan(100.0, 10_000.0, 0);
        let b = p().seq_scan(200.0, 20_000.0, 0);
        assert!(b > a * 1.9 && b < a * 2.1);
        // predicates add CPU
        assert!(p().seq_scan(100.0, 10_000.0, 3) > a);
    }

    #[test]
    fn selective_index_beats_seq_scan() {
        // 1M-row table, 0.1% selectivity.
        let pages = 10_000.0;
        let rows = 1.0e6;
        let seq = p().seq_scan(pages, rows, 1);
        let idx = p().index_scan(2.0, 2_500.0, rows, 0.001, 1_000.0, 0);
        assert!(idx < seq, "idx={idx} seq={seq}");
    }

    #[test]
    fn unselective_index_loses_to_seq_scan() {
        let pages = 10_000.0;
        let rows = 1.0e6;
        let seq = p().seq_scan(pages, rows, 1);
        let idx = p().index_scan(2.0, 2_500.0, rows, 0.9, 900_000.0, 0);
        assert!(idx > seq, "idx={idx} seq={seq}");
    }

    #[test]
    fn index_only_cheaper_than_index() {
        let io = p().index_only_scan(2.0, 2_500.0, 1.0e6, 0.01);
        let ix = p().index_scan(2.0, 2_500.0, 1.0e6, 0.01, 10_000.0, 0);
        assert!(io < ix);
    }

    #[test]
    fn nested_loop_rescan_dominates_for_big_outer() {
        let small = p().nested_loop(10.0, 100.0, 50.0, 10.0);
        let big = p().nested_loop(1.0e6, 100.0, 50.0, 1.0e6);
        assert!(big > small * 1_000.0);
    }

    #[test]
    fn hash_join_cheaper_than_naive_nested_loop_on_large_inputs() {
        let n = 1.0e5;
        let hj = p().hash_join(n, n, n);
        // naive NL: rescan the inner's n-row cpu for each outer row
        let nl = p().nested_loop(n, n * 0.01, n * 0.01, n);
        assert!(hj < nl / 100.0);
    }

    #[test]
    fn param_nested_loop_beats_hash_for_tiny_outer() {
        let lookup = p().param_index_lookup(2.0, 2.0, true);
        let nl = p().nested_loop(5.0, lookup, lookup, 10.0);
        let hj = p().hash_join(5.0, 1.0e6, 10.0) + p().seq_scan(10_000.0, 1.0e6, 0);
        assert!(nl < hj / 100.0, "nl={nl} hj={hj}");
    }

    #[test]
    fn sort_superlinear() {
        let s1 = p().sort(1_000.0);
        let s2 = p().sort(2_000.0);
        assert!(s2 > s1 * 2.0);
        assert!(p().sort(0.0) > 0.0);
    }

    #[test]
    fn aggregate_cost_positive() {
        assert!(p().aggregate(1_000.0, 10.0) > 0.0);
        assert!(p().aggregate(1_000.0, 1_000.0) > p().aggregate(1_000.0, 1.0));
    }
}
