//! Oracle tooling: exhaustive per-arm evaluation and regret (paper §3
//! Equation 1 and Figure 16).

use bao_common::Result;
use bao_exec::{execute, PerfMetric};
use bao_opt::{HintSet, Optimizer};
use bao_plan::Query;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};

/// Execute a query under every arm, each against its own snapshot of the
/// given buffer pool (or a cold pool when `cold` is set), returning
/// per-arm performance under `metric`.
///
/// This is the paper's "optimal hint set ... computed by exhaustively
/// executing all query plans with a cold cache" (Figure 16 setup).
#[expect(clippy::too_many_arguments, reason = "each input is one its callers hold separately")]
pub fn exhaustive_arm_perfs(
    opt: &Optimizer,
    q: &Query,
    db: &Database,
    cat: &StatsCatalog,
    arms: &[HintSet],
    pool: &BufferPool,
    metric: PerfMetric,
    cold: bool,
) -> Result<Vec<f64>> {
    let rates = bao_exec::ChargeRates::default();
    let mut perfs = Vec::with_capacity(arms.len());
    for plan in opt.plan_arms(q, db, cat, arms)? {
        let mut snapshot = if cold { BufferPool::new(pool.capacity()) } else { pool.clone() };
        let m = execute(&plan.root, q, db, &mut snapshot, &opt.params, &rates)?;
        perfs.push(m.perf(metric));
    }
    Ok(perfs)
}

/// Regret of a decision: chosen performance minus the best achievable
/// over the arm family (paper Equation 1 without the square — Figure 16
/// plots the raw difference).
pub fn regret_of(chosen_perf: f64, arm_perfs: &[f64]) -> f64 {
    let best = arm_perfs.iter().cloned().fold(f64::INFINITY, f64::min);
    (chosen_perf - best).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_is_nonnegative_and_zero_at_optimum() {
        let arms = [10.0, 5.0, 20.0];
        assert_eq!(regret_of(5.0, &arms), 0.0);
        assert_eq!(regret_of(10.0, &arms), 5.0);
        // numeric noise below the best clamps at zero
        assert_eq!(regret_of(4.9, &arms), 0.0);
    }
}
