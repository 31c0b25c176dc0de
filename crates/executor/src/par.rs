//! Sharded-execution knobs (DESIGN.md §13). The morsels themselves run on
//! the workspace pool, `bao_common::pool::run_jobs`.

/// Sharded-execution knobs passed to [`crate::execute_with`]; the harness
/// sets `shard_workers` from `BaoSettings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Pool width and shard count. `1` (the default) is the serial
    /// single-shard path; `0` sizes to the host
    /// (`bao_common::pool::resolve_width`).
    pub shard_workers: usize,
    /// Rows per morsel. Operators below one morsel of input run inline on
    /// the coordinator — spawning would cost more than it buys.
    pub morsel_rows: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { shard_workers: 1, morsel_rows: 4096 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::pool::resolve_width;

    #[test]
    fn host_defaulted_width_resolves_positive() {
        let auto = ExecConfig { shard_workers: 0, ..ExecConfig::default() };
        assert!(resolve_width(auto.shard_workers) >= 1);
        // The default is the serial single-shard path on every host.
        assert_eq!(resolve_width(ExecConfig::default().shard_workers), 1);
    }
}
