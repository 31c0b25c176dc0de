//! A minimal wall-clock microbenchmark harness (no external crates).
//!
//! Each benchmark auto-calibrates a batch size so one timed sample lasts
//! at least a few milliseconds, runs a fixed number of samples, and
//! reports robust per-iteration statistics ([`Stats`]: min / median /
//! outlier-trimmed mean). Used by the `crates/bench/benches/*` binaries
//! (`cargo bench`), which are plain `main` functions (`harness = false`),
//! and by `inference_bench`. Nothing here is recorded: wall-clock numbers
//! with a unit, a direction and the host's core count live in the repo
//! benchmark (`benchmark/`, `BENCH_<pr>.json`).

#![expect(
    clippy::disallowed_methods,
    reason = "the timing harness is the one module that reads the wall clock"
)]

use std::time::{Duration, Instant};

/// Target duration for one timed sample; fast closures are batched until
/// a sample takes at least this long.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// Robust summary of repeated timing samples (seconds per iteration).
///
/// Wall-clock samples on a shared machine are contaminated by scheduler
/// noise that is strictly additive, so the distribution has a one-sided
/// heavy right tail. `trimmed_mean` discards samples more than 1.5 IQR
/// above the third quartile before averaging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub min: f64,
    pub median: f64,
    /// Mean after rejecting high outliers (Tukey fence at Q3 + 1.5 IQR).
    pub trimmed_mean: f64,
    /// Samples rejected as outliers.
    pub rejected: usize,
    pub n_samples: usize,
}

impl Stats {
    /// Summarize raw samples. Panics on an empty slice.
    pub fn from_samples(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "Stats needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q = |frac: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let pos = frac * (s.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        let (q1, q3) = (q(0.25), q(0.75));
        let fence = q3 + 1.5 * (q3 - q1);
        let kept: Vec<f64> = s.iter().copied().filter(|&x| x <= fence).collect();
        Stats {
            min: s[0],
            median: s[s.len() / 2],
            trimmed_mean: kept.iter().sum::<f64>() / kept.len() as f64,
            rejected: s.len() - kept.len(),
            n_samples: s.len(),
        }
    }
}

/// A group of related benchmarks printed under one heading.
pub struct Group {
    name: String,
    samples: usize,
}

impl Group {
    pub fn new(name: &str, samples: usize) -> Group {
        println!("\n== {name} ==");
        Group { name: name.to_string(), samples: samples.max(2) }
    }

    /// Time `f`, printing and returning per-iteration statistics.
    pub fn bench<F: FnMut()>(&self, label: &str, mut f: F) -> Stats {
        // Warmup + calibration: find a batch size whose wall time reaches
        // the target, so Instant overhead is negligible even for
        // microsecond-scale closures.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            let t = start.elapsed();
            if t >= TARGET_SAMPLE || batch >= 1 << 20 {
                break;
            }
            let scale = (TARGET_SAMPLE.as_secs_f64() / t.as_secs_f64().max(1e-9)).ceil();
            batch = (batch as f64 * scale.min(1024.0)) as u64;
        }

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            per_iter.push(start.elapsed().as_secs_f64() / batch as f64);
        }
        self.report(label, &per_iter, batch)
    }

    /// Time several closures in turn — one call of each per round, after
    /// one untimed warm-up round — and return their statistics in order.
    /// For closures whose single call is already milliseconds long and
    /// whose *ratio* matters: a noise spell on a shared host then lands
    /// on all of them alike, where back-to-back [`Group::bench`] blocks
    /// would hand it to one.
    pub fn bench_interleaved(&self, benches: &mut [(&str, &mut dyn FnMut())]) -> Vec<Stats> {
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(self.samples); benches.len()];
        for round in 0..=self.samples {
            for ((_, f), s) in benches.iter_mut().zip(samples.iter_mut()) {
                let start = Instant::now();
                f();
                if round > 0 {
                    s.push(start.elapsed().as_secs_f64());
                }
            }
        }
        benches.iter().zip(&samples).map(|((label, _), s)| self.report(label, s, 1)).collect()
    }

    fn report(&self, label: &str, per_iter: &[f64], batch: u64) -> Stats {
        let stats = Stats::from_samples(per_iter);
        println!(
            "{:<40} min {:>12} | median {:>12} | trimmed {:>12}  ({} samples x {} iters, {} outliers)",
            format!("{}/{label}", self.name),
            fmt_time(stats.min),
            fmt_time(stats.median),
            fmt_time(stats.trimmed_mean),
            stats.n_samples,
            batch,
            stats.rejected,
        );
        stats
    }
}

/// One standalone benchmark (its own group of one).
pub fn bench_function<F: FnMut()>(name: &str, samples: usize, f: F) -> Stats {
    Group { name: name.to_string(), samples: samples.max(2) }.bench("run", f)
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_across_magnitudes() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(2.5e-3), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 us");
        assert_eq!(fmt_time(2.5e-9), "2.5 ns");
    }

    #[test]
    fn bench_runs_closure() {
        let mut n = 0u64;
        Group::new("t", 2).bench("count", || n += 1);
        assert!(n > 0);
    }

    #[test]
    fn interleaved_bench_alternates_and_drops_the_warmup_round() {
        let calls = std::cell::RefCell::new(Vec::new());
        let stats = Group::new("t", 3).bench_interleaved(&mut [
            ("a", &mut || calls.borrow_mut().push('a')),
            ("b", &mut || calls.borrow_mut().push('b')),
        ]);
        assert_eq!(calls.into_inner().iter().collect::<String>(), "abababab");
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.n_samples == 3));
    }

    #[test]
    fn trimmed_mean_rejects_high_outliers() {
        // Nine tight samples plus one scheduler spike: the plain mean
        // (10.9) is dragged up, the trimmed mean is not.
        let mut xs = vec![1.0; 9];
        xs.push(100.0);
        let s = Stats::from_samples(&xs);
        assert_eq!(s.rejected, 1);
        assert!((s.trimmed_mean - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.n_samples, 10);

        // Uniform samples: nothing to reject, trimmed == mean.
        let s = Stats::from_samples(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.trimmed_mean, 2.0);
    }
}
