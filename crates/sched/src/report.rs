//! Scheduler telemetry: per-tenant admission/shed counts, wait-time
//! distributions, and Jain's fairness index over weight-normalized
//! served work.

use crate::sched::SchedConfig;
use bao_common::stats;

/// Summary statistics over a sample of simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

impl DistSummary {
    pub fn from_samples(xs: &[f64]) -> DistSummary {
        if xs.is_empty() {
            return DistSummary { n: 0, mean: 0.0, p50: 0.0, p95: 0.0, p99: 0.0, max: 0.0 };
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        DistSummary {
            n: xs.len(),
            mean: stats::mean(&sorted),
            p50: stats::percentile_sorted(&sorted, 50.0),
            p95: stats::percentile_sorted(&sorted, 95.0),
            p99: stats::percentile_sorted(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// One tenant's slice of a run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub name: String,
    pub weight: u32,
    pub priority: &'static str,
    /// Arrivals released into the tenant's queue.
    pub admitted: usize,
    /// Dispatches executed (shed or scored — nothing is dropped).
    pub served: usize,
    /// Dispatches degraded to arm 0 (depth overflow or deadline).
    pub shed: usize,
    /// Plan-cache templates re-pinned to arm 0 after latency drift under
    /// overload (reported by the serving layer).
    pub drift_shed: usize,
    pub peak_queue_depth: usize,
    /// Queue-wait distribution, simulated milliseconds.
    pub wait_ms: DistSummary,
    /// Total simulated execution time served to this tenant.
    pub served_work_ms: f64,
}

/// Whole-run scheduling report.
#[derive(Debug, Clone)]
pub struct SchedReport {
    pub policy: &'static str,
    pub waves: usize,
    pub tenants: Vec<TenantReport>,
    /// Jain's index over weight-normalized served work: 1.0 = perfectly
    /// weight-proportional, 1/n = one tenant got everything.
    pub jain_fairness: f64,
}

impl SchedReport {
    pub fn total_admitted(&self) -> usize {
        self.tenants.iter().map(|t| t.admitted).sum()
    }

    pub fn total_served(&self) -> usize {
        self.tenants.iter().map(|t| t.served).sum()
    }

    pub fn total_shed(&self) -> usize {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    pub fn total_drift_shed(&self) -> usize {
        self.tenants.iter().map(|t| t.drift_shed).sum()
    }

    /// Fraction of served queries that were degraded to arm 0.
    pub fn shed_rate(&self) -> f64 {
        let served = self.total_served();
        if served == 0 {
            0.0
        } else {
            self.total_shed() as f64 / served as f64
        }
    }

    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over non-negative shares.
/// Defined as 1.0 for an empty or all-zero sample (nothing was unfair).
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

#[expect(
    clippy::too_many_arguments,
    reason = "one slice per per-tenant counter the scheduler keeps"
)]
pub(crate) fn build_report(
    cfg: &SchedConfig,
    waves: usize,
    admitted: &[usize],
    served: &[usize],
    shed: &[usize],
    drift_shed: &[usize],
    peak_depth: &[usize],
    waits_ms: &[Vec<f64>],
    served_work_ms: &[f64],
) -> SchedReport {
    let tenants: Vec<TenantReport> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| TenantReport {
            name: spec.name.clone(),
            weight: spec.weight,
            priority: spec.priority.name(),
            admitted: admitted[t],
            served: served[t],
            shed: shed[t],
            drift_shed: drift_shed[t],
            peak_queue_depth: peak_depth[t],
            wait_ms: DistSummary::from_samples(&waits_ms[t]),
            served_work_ms: served_work_ms[t],
        })
        .collect();
    // Fairness over tenants that actually offered load; idle tenants
    // would read as "starved" when they simply had nothing to run.
    let shares: Vec<f64> = tenants
        .iter()
        .filter(|t| t.admitted > 0)
        .map(|t| t.served_work_ms / f64::from(t.weight.max(1)))
        .collect();
    SchedReport { policy: cfg.policy.name(), waves, tenants, jain_fairness: jain_index(&shares) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_brackets() {
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything: index collapses to 1/n.
        let skew = jain_index(&[9.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12, "{skew}");
        let mid = jain_index(&[2.0, 1.0]);
        assert!(mid > 1.0 / 2.0 && mid < 1.0);
    }

    #[test]
    fn dist_summary_orders_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let d = DistSummary::from_samples(&xs);
        assert_eq!(d.n, 100);
        assert!(d.p50 <= d.p95 && d.p95 <= d.p99 && d.p99 <= d.max);
        assert!((d.max - 100.0).abs() < 1e-12);
        let empty = DistSummary::from_samples(&[]);
        assert_eq!(empty.n, 0);
    }

    #[test]
    fn sched_report_sums_tenant_totals() {
        let cfg = SchedConfig::single_tenant();
        let r = build_report(&cfg, 3, &[5], &[5], &[1], &[2], &[2], &[vec![1.0, 2.0]], &[10.0]);
        assert_eq!(r.policy, "drr");
        assert_eq!(r.total_shed(), 1);
        assert_eq!(r.total_drift_shed(), 2);
    }
}
