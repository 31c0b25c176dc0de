//! Execution width (DESIGN.md §13). Each fan-out runs its one range per
//! worker on the workspace pool, `bao_common::pool::run_jobs`.

/// How wide [`crate::execute_with`] runs; [`crate::execute`] runs at the
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Pool width: each fan-out splits its input into this many ranges.
    /// `1` (the default) runs every fan-out as one inline job; `0` sizes
    /// to the host (`bao_common::pool::resolve_width`).
    pub shard_workers: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { shard_workers: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::pool::resolve_width;

    #[test]
    fn host_defaulted_width_resolves_positive() {
        let auto = ExecConfig { shard_workers: 0 };
        assert!(resolve_width(auto.shard_workers) >= 1);
        // The default runs inline on every host.
        assert_eq!(resolve_width(ExecConfig::default().shard_workers), 1);
    }
}
