//! Pool width for the one place that starts threads, the trainer's
//! helpers (`bao_nn::train`, DESIGN.md §9), and for `inference_bench`:
//! a width that says "size to the host" resolves through
//! [`resolve_width`]. Planning and execution run on the caller's thread.

use std::sync::OnceLock;

/// A configured pool width, with `0` meaning one thread per host core.
/// The host is asked once per process: `available_parallelism` reads the
/// affinity mask and the cgroup files on every call.
pub fn resolve_width(configured: usize) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    match configured {
        0 => *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_defaulted_width_resolves_positive() {
        assert!(resolve_width(0) >= 1);
        assert_eq!(resolve_width(3), 3);
    }
}
