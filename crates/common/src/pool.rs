//! The workspace's one worker pool (DESIGN.md §9, §13): arm planning and
//! the executor's operators both fan out through [`run_jobs`], and every
//! width that says "size to the host" resolves through [`resolve_width`].
//!
//! Nothing is shared between threads but the job closure: thread `t`
//! computes slots `t, t + width, …` and hands its stripe back through
//! its join handle, so there is no channel, no lock, and no interleaving
//! that could reorder anything.

use crate::Result;
use std::sync::OnceLock;
use std::thread::scope;

/// A configured pool width, with `0` meaning one thread per host core.
/// The host is asked once per process: `available_parallelism` reads the
/// affinity mask and the cgroup files on every call, and arm planning
/// resolves its width on every scored query.
pub fn resolve_width(configured: usize) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    match configured {
        0 => *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// Run `f(0..n_jobs)` on `width` threads and return the results in slot
/// order; of several failing jobs, the lowest slot's error is returned.
/// The caller is thread 0, so `width - 1` helpers are spawned, and a
/// width of at most 1 (after capping at `n_jobs`) runs inline on the
/// caller. A panicking job unwinds out of this call.
pub fn run_jobs<T, F>(width: usize, n_jobs: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let width = width.min(n_jobs);
    if width <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let stripe = |t: usize| (t..n_jobs).step_by(width).map(&f).collect::<Vec<_>>();
    let mut stripes: Vec<_> = scope(|scope| {
        #[expect(clippy::disallowed_methods, reason = "the workspace pool, sized by its caller")]
        let helpers: Vec<_> = (1..width).map(|t| scope.spawn(move || stripe(t))).collect();
        let mut stripes = vec![stripe(0).into_iter()];
        for helper in helpers {
            match helper.join() {
                Ok(stripe) => stripes.push(stripe.into_iter()),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        stripes
    });
    #[expect(clippy::expect_used, reason = "stripe t holds slots t, t + width, … in order")]
    let slots: Result<Vec<T>> = (0..n_jobs)
        .map(|slot| stripes[slot % width].next().expect("a stripe holds every slot it owns"))
        .collect();
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaoError;
    use std::thread;

    #[test]
    fn results_in_slot_order_regardless_of_width() {
        for width in [1usize, 2, 3, 4, 8] {
            for n_jobs in [0usize, 1, 3, 7, 9] {
                let out = run_jobs(width, n_jobs, |i| Ok(i * i)).unwrap();
                let want: Vec<usize> = (0..n_jobs).map(|i| i * i).collect();
                assert_eq!(out, want, "width={width} n_jobs={n_jobs}");
            }
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_jobs(4, 0, |_| Ok(0)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn job_error_propagates() {
        let out: Result<Vec<usize>> = run_jobs(4, 6, |i| match i {
            2 | 5 => Err(BaoError::Planning(format!("boom {i}"))),
            _ => Ok(i),
        });
        // Slots 2 and 5 fail on different threads; the lower slot wins.
        assert_eq!(out, Err(BaoError::Planning("boom 2".into())));
    }

    #[test]
    fn width_one_and_single_jobs_run_on_the_caller() {
        let caller = thread::current().id();
        let on_caller = |width, n_jobs| {
            run_jobs(width, n_jobs, |_| Ok(thread::current().id() == caller)).unwrap()
        };
        assert_eq!(on_caller(1, 5), vec![true; 5]);
        for width in [0usize, 1, 2, 8] {
            assert_eq!(on_caller(width, 1), vec![true], "width={width}");
        }
        // At width 2 the caller is thread 0: it owns the even slots.
        assert_eq!(on_caller(2, 4), vec![true, false, true, false]);
    }

    #[test]
    fn job_panic_unwinds_out_of_run_jobs() {
        for width in [1usize, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_jobs(width, 6, |i| if i == 4 { panic!("job {i} panicked") } else { Ok(i) })
            });
            let payload = caught.expect_err("the panic must cross run_jobs");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("job 4 panicked")
            );
        }
    }
}
