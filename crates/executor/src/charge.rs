//! Cost meters and simulated-time conversion.

use bao_common::SimDuration;
use bao_opt::CostParams;
use bao_storage::{AccessKind, BufferPool, PageKey};

/// Conversion from cost units to simulated milliseconds.
///
/// Calibrated so that a typical analytic query over the default synthetic
/// scale lands in the paper's observed range (median a few hundred ms,
/// tail catastrophes in minutes): one CPU cost unit — priced like
/// PostgreSQL, where `cpu_tuple_cost = 0.01` — is 0.05 ms, and one I/O
/// cost unit (a sequential page read = 1.0) is 0.1 ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeRates {
    pub ms_per_cpu_unit: f64,
    pub ms_per_io_unit: f64,
}

impl Default for ChargeRates {
    fn default() -> Self {
        ChargeRates { ms_per_cpu_unit: 0.05, ms_per_io_unit: 0.1 }
    }
}

/// Accumulated charges for one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Meters {
    pub cpu_units: f64,
    pub io_units: f64,
    pub page_hits: u64,
    pub page_misses: u64,
}

/// How a page access is priced and cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccess {
    /// Part of a large sequential scan: sequential price, ring-buffered
    /// (not promoted into the pool).
    BulkSequential,
    /// Sequential price, cached.
    Sequential,
    /// Random price, cached.
    Random,
}

impl PageAccess {
    /// The page's price and how the pool reads it.
    fn priced(self, params: &CostParams) -> (f64, AccessKind) {
        match self {
            PageAccess::BulkSequential => (params.seq_page_cost, AccessKind::BulkRead),
            PageAccess::Sequential => (params.seq_page_cost, AccessKind::Cached),
            PageAccess::Random => (params.random_page_cost, AccessKind::Cached),
        }
    }
}

impl Meters {
    /// Touch a page through the buffer pool, charging the miss price or a
    /// small CPU charge on a hit.
    pub fn touch_page(
        &mut self,
        pool: &mut BufferPool,
        params: &CostParams,
        key: PageKey,
        access: PageAccess,
    ) {
        let (price, kind) = access.priced(params);
        if pool.access(key, kind) {
            self.hit(price);
        } else {
            self.page_misses += 1;
            self.io_units += price;
        }
    }

    /// Charge what [`Meters::touch_page`] charges for a hit, without the
    /// pool lookup: for a touch known to hit, whose hit the pool counts
    /// itself ([`BufferPool::replay_hits`]).
    pub fn charge_hit(&mut self, params: &CostParams, access: PageAccess) {
        self.hit(access.priced(params).0);
    }

    fn hit(&mut self, price: f64) {
        self.page_hits += 1;
        // A buffer hit still costs a little CPU (locking + memcpy).
        self.cpu_units += price * 0.05;
    }

    pub fn charge_cpu(&mut self, units: f64) {
        self.cpu_units += units;
    }

    pub fn cpu_time(&self, rates: &ChargeRates) -> SimDuration {
        SimDuration::from_ms(self.cpu_units * rates.ms_per_cpu_unit)
    }

    pub fn io_time(&self, rates: &ChargeRates) -> SimDuration {
        SimDuration::from_ms(self.io_units * rates.ms_per_io_unit)
    }

    pub fn latency(&self, rates: &ChargeRates) -> SimDuration {
        self.cpu_time(rates) + self.io_time(rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_pricing() {
        let mut pool = BufferPool::new(8);
        let mut m = Meters::default();
        let p = CostParams::default();
        let key = PageKey::new(1, 0);
        m.touch_page(&mut pool, &p, key, PageAccess::Random);
        assert_eq!(m.page_misses, 1);
        assert_eq!(m.io_units, p.random_page_cost);
        m.touch_page(&mut pool, &p, key, PageAccess::Random);
        assert_eq!(m.page_hits, 1);
        assert!(m.cpu_units > 0.0 && m.cpu_units < p.random_page_cost);
    }

    /// A charged hit is a touch that hits, to the bit, minus the lookup.
    #[test]
    fn charge_hit_is_a_touch_that_hits() {
        let p = CostParams::default();
        for access in [PageAccess::Random, PageAccess::Sequential, PageAccess::BulkSequential] {
            let mut pool = BufferPool::new(8);
            let key = PageKey::new(1, 0);
            pool.access(key, AccessKind::Cached);
            let (mut touched, mut charged) = (Meters::default(), Meters::default());
            for _ in 0..3 {
                touched.touch_page(&mut pool, &p, key, access);
                touched.charge_cpu(0.1);
                charged.charge_hit(&p, access);
                charged.charge_cpu(0.1);
            }
            assert_eq!(touched.cpu_units.to_bits(), charged.cpu_units.to_bits(), "{access:?}");
            assert_eq!(touched, charged, "{access:?}");
        }
    }

    #[test]
    fn bulk_does_not_cache() {
        let mut pool = BufferPool::new(8);
        let mut m = Meters::default();
        let p = CostParams::default();
        let key = PageKey::new(1, 0);
        m.touch_page(&mut pool, &p, key, PageAccess::BulkSequential);
        m.touch_page(&mut pool, &p, key, PageAccess::BulkSequential);
        assert_eq!(m.page_misses, 2);
        assert_eq!(m.io_units, 2.0 * p.seq_page_cost);
    }

    #[test]
    fn time_conversion() {
        let m = Meters { cpu_units: 100.0, io_units: 50.0, page_hits: 0, page_misses: 5 };
        let r = ChargeRates::default();
        assert!((m.cpu_time(&r).as_ms() - 5.0).abs() < 1e-12);
        assert!((m.io_time(&r).as_ms() - 5.0).abs() < 1e-12);
        assert!((m.latency(&r).as_ms() - 10.0).abs() < 1e-12);
    }
}
