//! Cloud environment model: VM classes, GPU pricing, optimization-time
//! simulation, and workload dollar-cost accounting.
//!
//! The paper's cost experiments (Figures 7 and 8) run on Google Cloud
//! N1-standard VMs with a per-second-billed Tesla T4 attached only during
//! training. This module reproduces that accounting over simulated time:
//! cost = VM hours × VM rate + GPU hours × GPU rate, where VM time is
//! query execution + optimization and GPU time is model training.
//!
//! Buffer-pool sizes are scaled to the synthetic data (DESIGN.md §1): the
//! ratio of cache to working set across N1-2 → N1-16 matches the paper's
//! setup, where the largest class comfortably caches the hot set and the
//! smallest thrashes.

use bao_common::SimDuration;
use bao_exec::ChargeRates;

/// A Google-Cloud-like VM class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmType {
    pub name: &'static str,
    pub vcpus: u32,
    pub ram_gb: f64,
    pub usd_per_hour: f64,
}

/// N1-standard-2 (the smallest class the paper tests; below ComSys's
/// recommended requirements).
pub const N1_2: VmType = VmType { name: "N1-2", vcpus: 2, ram_gb: 7.5, usd_per_hour: 0.095 };
pub const N1_4: VmType = VmType { name: "N1-4", vcpus: 4, ram_gb: 15.0, usd_per_hour: 0.19 };
pub const N1_8: VmType = VmType { name: "N1-8", vcpus: 8, ram_gb: 30.0, usd_per_hour: 0.38 };
pub const N1_16: VmType = VmType { name: "N1-16", vcpus: 16, ram_gb: 60.0, usd_per_hour: 0.76 };

/// The four classes of Figures 8–10, smallest to largest.
pub const ALL_VMS: [VmType; 4] = [N1_2, N1_4, N1_8, N1_16];

/// Tesla T4, attached per second during training only.
pub const GPU_USD_PER_HOUR: f64 = 0.35;

impl VmType {
    pub fn by_name(name: &str) -> Option<VmType> {
        ALL_VMS.into_iter().find(|v| v.name.eq_ignore_ascii_case(name))
    }

    /// Buffer-pool pages, scaled so the cache:data ratio across classes
    /// mirrors the paper's (34 pages per GB of RAM against the synthetic
    /// scale; N1-16 holds ~2k pages ≈ the whole hot set).
    pub fn buffer_pool_pages(&self) -> usize {
        (self.ram_gb * 34.0) as usize
    }

    /// Per-class execution charge rates: larger classes get better CPU
    /// parallelism and I/O throughput (√-scaling around N1-4 = 1×).
    pub fn charge_rates(&self) -> ChargeRates {
        let scale = (self.vcpus as f64 / 4.0).sqrt();
        let base = ChargeRates::default();
        ChargeRates {
            ms_per_cpu_unit: base.ms_per_cpu_unit / scale,
            ms_per_io_unit: base.ms_per_io_unit / scale,
        }
    }

    /// Simulated optimization time for a query given per-arm planning
    /// effort. With `sequential = false`, arms plan concurrently across
    /// vCPUs (the paper: "Bao makes heavy use of parallelism, concurrently
    /// planning each arm"); otherwise one after another (Figure 12's
    /// regime).
    pub fn optimization_time(&self, per_arm_work: &[u64], sequential: bool) -> SimDuration {
        if per_arm_work.is_empty() {
            return SimDuration::ZERO;
        }
        let ms_of = |w: u64| 0.5 + w as f64 * 0.002;
        if sequential {
            SimDuration::from_ms(per_arm_work.iter().map(|&w| ms_of(w)).sum())
        } else {
            // Waves of `vcpus` arms; each wave costs its slowest member.
            let mut per: Vec<f64> = per_arm_work.iter().map(|&w| ms_of(w)).collect();
            per.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            let total: f64 = per
                .chunks(self.vcpus.max(1) as usize)
                .map(|wave| wave[0])
                .sum::<f64>()
                + 1.0; // dispatch overhead
            SimDuration::from_ms(total)
        }
    }
}

/// Simulated GPU training time for one model resample (Figure 15c):
/// roughly linear in window size × epochs.
pub fn gpu_train_time(window: usize, epochs: usize) -> SimDuration {
    SimDuration::from_ms(window as f64 * epochs.max(1) as f64 * 0.55 + 1_500.0)
}

/// Dollar cost of a workload run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostReport {
    pub vm_usd: f64,
    pub gpu_usd: f64,
}

impl CostReport {
    /// VM time covers execution + optimization; GPU time covers training
    /// (per-second billing, attach/detach included in the train time).
    pub fn compute(vm: VmType, vm_time: SimDuration, gpu_time: SimDuration) -> CostReport {
        CostReport {
            vm_usd: vm_time.as_hours() * vm.usd_per_hour,
            gpu_usd: gpu_time.as_hours() * GPU_USD_PER_HOUR,
        }
    }

    pub fn total_usd(&self) -> f64 {
        self.vm_usd + self.gpu_usd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_pricing_monotone() {
        assert_eq!(VmType::by_name("n1-8"), Some(N1_8));
        assert_eq!(VmType::by_name("n2-900"), None);
        for w in ALL_VMS.windows(2) {
            assert!(w[1].usd_per_hour > w[0].usd_per_hour);
            assert!(w[1].buffer_pool_pages() > w[0].buffer_pool_pages());
        }
    }

    #[test]
    fn bigger_vms_execute_faster() {
        let small = N1_2.charge_rates();
        let big = N1_16.charge_rates();
        assert!(big.ms_per_cpu_unit < small.ms_per_cpu_unit);
        assert!(big.ms_per_io_unit < small.ms_per_io_unit);
        // N1-4 is the 1× reference
        assert_eq!(N1_4.charge_rates(), ChargeRates::default());
    }

    #[test]
    fn parallel_arm_planning_beats_sequential() {
        let work = vec![500u64; 49];
        let par = N1_16.optimization_time(&work, false);
        let seq = N1_16.optimization_time(&work, true);
        assert!(par < seq / 8.0, "par={:?} seq={:?}", par, seq);
        // single arm: both regimes are (almost) the same cost
        let one = vec![500u64];
        let p1 = N1_16.optimization_time(&one, false).as_ms();
        let s1 = N1_16.optimization_time(&one, true).as_ms();
        assert!((p1 - s1).abs() <= 1.0);
        assert_eq!(N1_2.optimization_time(&[], false), SimDuration::ZERO);
    }

    #[test]
    fn optimization_time_magnitudes_match_paper() {
        // One arm (the traditional optimizer) should be on the order of
        // 100ms for a complex query; 49 parallel arms should add well
        // under 2x on a 16-core box (paper: 140ms -> 230ms).
        let complex = 50_000u64;
        let single = N1_16.optimization_time(&[complex], false).as_ms();
        assert!(single > 50.0 && single < 300.0, "{single}");
        let bao = N1_16.optimization_time(&vec![complex; 49], false).as_ms();
        assert!(bao < single * 5.0, "bao={bao} single={single}");
    }

    #[test]
    fn gpu_time_scales_with_window() {
        let small = gpu_train_time(500, 30);
        let big = gpu_train_time(5_000, 30);
        assert!(big > small * 5.0);
        // k=5000 trains in minutes, not hours (paper: "around three
        // minutes")
        assert!(big.as_secs() > 60.0 && big.as_secs() < 600.0, "{:?}", big.as_secs());
    }

    #[test]
    fn cost_accounting() {
        let c = CostReport::compute(N1_4, SimDuration::from_secs(3_600.0), SimDuration::ZERO);
        assert!((c.vm_usd - 0.19).abs() < 1e-12);
        assert_eq!(c.gpu_usd, 0.0);
        let c = CostReport::compute(
            N1_4,
            SimDuration::from_secs(3_600.0),
            SimDuration::from_secs(3_600.0),
        );
        assert!((c.total_usd() - 0.54).abs() < 1e-12);
    }
}
