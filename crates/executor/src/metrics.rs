//! Per-query execution metrics and the configurable performance metric
//! Bao optimizes (paper §3: "a user-defined performance metric P").

use bao_common::json::{Json, ToJson};
use bao_common::SimDuration;
use bao_storage::Value;

/// What Bao's reward measures (Figure 16 trains Bao against each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfMetric {
    /// End-to-end simulated latency (the default).
    Latency,
    /// CPU time only.
    CpuTime,
    /// Physical I/O requests (buffer-pool misses).
    PhysicalIo,
}

/// Everything observed while executing one plan.
#[derive(Debug, Clone)]
pub struct ExecutionMetrics {
    pub latency: SimDuration,
    pub cpu_time: SimDuration,
    pub io_time: SimDuration,
    pub page_hits: u64,
    pub page_misses: u64,
    /// Rows produced by the plan root.
    pub rows_out: u64,
    /// True output cardinality of every plan node, pre-order (aligned with
    /// [`bao_plan::PlanNode::iter`]). Used for q-error evaluation and for
    /// training the learned-optimizer baselines.
    pub node_true_rows: Vec<u64>,
    /// Result rows (projected select-list values); capped for large
    /// non-aggregate results.
    pub output: Vec<Vec<Value>>,
}

impl ToJson for ExecutionMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("latency", self.latency.to_json()),
            ("cpu_time", self.cpu_time.to_json()),
            ("io_time", self.io_time.to_json()),
            ("page_hits", self.page_hits.to_json()),
            ("page_misses", self.page_misses.to_json()),
            ("rows_out", self.rows_out.to_json()),
            ("node_true_rows", self.node_true_rows.to_json()),
            ("output", self.output.to_json()),
        ])
    }
}

impl ExecutionMetrics {
    /// The scalar reward value under a performance metric (lower is
    /// better, matching the paper's regret formulation).
    pub fn perf(&self, metric: PerfMetric) -> f64 {
        match metric {
            PerfMetric::Latency => self.latency.as_ms(),
            PerfMetric::CpuTime => self.cpu_time.as_ms(),
            PerfMetric::PhysicalIo => self.page_misses as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_selects_metric() {
        let m = ExecutionMetrics {
            latency: SimDuration::from_ms(100.0),
            cpu_time: SimDuration::from_ms(60.0),
            io_time: SimDuration::from_ms(40.0),
            page_hits: 10,
            page_misses: 7,
            rows_out: 1,
            node_true_rows: vec![1],
            output: vec![],
        };
        assert_eq!(m.perf(PerfMetric::Latency), 100.0);
        assert_eq!(m.perf(PerfMetric::CpuTime), 60.0);
        assert_eq!(m.perf(PerfMetric::PhysicalIo), 7.0);
    }
}
