//! A minimal wall-clock microbenchmark harness (no external crates).
//!
//! Each benchmark auto-calibrates a batch size so one timed sample lasts
//! at least a few milliseconds, runs a fixed number of samples, and
//! reports robust per-iteration statistics ([`Stats`]: min / median /
//! mean / outlier-trimmed mean). Used by the `crates/bench/benches/*`
//! binaries (`cargo bench`), which are plain `main` functions
//! (`harness = false`).
//!
//! [`BaselineStore`] persists named metrics to
//! `results/bench_baselines.json` so later runs can compare against a
//! recorded baseline (the `--bench-smoke` regression gate in
//! `scripts/check.sh`). Ratio metrics (e.g. batched-vs-per-tree speedup)
//! are machine-independent and safe to gate on; absolute times are only
//! ever warned about.

use bao_common::json::{self, Json};
use bao_common::{BaoError, Result};
use std::time::{Duration, Instant};

/// Target duration for one timed sample; fast closures are batched until
/// a sample takes at least this long.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// Robust summary of repeated timing samples (seconds per iteration).
///
/// Wall-clock samples on a shared machine are contaminated by scheduler
/// noise that is strictly additive, so the distribution has a one-sided
/// heavy right tail. `trimmed_mean` discards samples more than 1.5 IQR
/// above the third quartile before averaging — the statistic baselines
/// are recorded and compared with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub min: f64,
    pub median: f64,
    pub mean: f64,
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
            mean: s.iter().sum::<f64>() / s.len() as f64,
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

    /// Time `f`, printing per-iteration statistics.
    pub fn bench<F: FnMut()>(&self, label: &str, f: F) {
        self.bench_stats(label, f);
    }

    /// Time `f`, printing per-iteration statistics and returning them so
    /// callers can derive ratios or record baselines.
    pub fn bench_stats<F: FnMut()>(&self, label: &str, mut f: F) -> Stats {
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
    /// on all of them alike, where back-to-back [`Group::bench_stats`]
    /// blocks would hand it to one.
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
            self.samples,
            batch,
            stats.rejected,
        );
        stats
    }
}

/// One standalone benchmark (its own group of one).
pub fn bench_function<F: FnMut()>(name: &str, samples: usize, f: F) {
    Group { name: name.to_string(), samples: samples.max(2) }.bench("run", f);
}

/// Outcome of comparing a fresh metric against the recorded baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Comparison {
    /// No baseline recorded for this metric yet.
    New,
    /// Within tolerance; `ratio` is current / baseline.
    Ok { ratio: f64 },
    /// Worse than baseline by more than the tolerance.
    Regressed { ratio: f64 },
}

/// Named benchmark metrics persisted as JSON, keyed by metric name.
///
/// File format: `{"metrics": {"<name>": <f64>, ...}}`. The convention is
/// that **larger is better** for every recorded metric — record speedups
/// and throughputs, not raw latencies, so one comparison rule covers
/// everything and ratio metrics stay machine-independent.
#[derive(Debug, Clone)]
pub struct BaselineStore {
    path: std::path::PathBuf,
    metrics: Vec<(String, f64)>,
}

impl BaselineStore {
    /// The checked-in store, `results/bench_baselines.json`.
    pub fn repo_path() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_baselines.json")
    }

    /// Load from `path`; a missing file yields an empty store (every
    /// comparison reports [`Comparison::New`]).
    pub fn load(path: impl Into<std::path::PathBuf>) -> Result<BaselineStore> {
        let path = path.into();
        let mut store = BaselineStore { path, metrics: Vec::new() };
        let text = match std::fs::read_to_string(&store.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(BaoError::Config(format!("read baselines: {e}"))),
        };
        let j = json::parse(&text)?;
        if let Some(Json::Obj(fields)) = j.get("metrics") {
            for (k, v) in fields {
                let val = v
                    .as_f64()
                    .ok_or_else(|| BaoError::Parse(format!("metric `{k}` is not a number")))?;
                store.metrics.push((k.clone(), val));
            }
        }
        Ok(store)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Record (insert or overwrite) a metric value.
    pub fn record(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Compare a fresh value against the recorded baseline under the
    /// larger-is-better convention: regressed when
    /// `value < baseline * (1 - tolerance)`.
    pub fn compare(&self, name: &str, value: f64, tolerance: f64) -> Comparison {
        match self.get(name) {
            None => Comparison::New,
            Some(base) => {
                let ratio = value / base.max(1e-12);
                if ratio < 1.0 - tolerance {
                    Comparison::Regressed { ratio }
                } else {
                    Comparison::Ok { ratio }
                }
            }
        }
    }

    /// The gate loop of the `*_bench` binaries: load the store at `path`,
    /// compare every `gated` and `warned` metric against its baseline at
    /// `tolerance` (recording metrics seen for the first time, and every
    /// metric under `update`), print one line per metric, and save.
    /// Returns whether a gated metric regressed; panics when the store
    /// cannot be read or written, which fails the bench run.
    pub fn gate(
        path: &std::path::Path,
        gated: &[(&str, f64)],
        warned: &[(&str, f64)],
        tolerance: f64,
        update: bool,
    ) -> bool {
        let mut store = BaselineStore::load(path).expect("load baselines");
        println!();
        let mut regression = false;
        for (i, &(name, value)) in gated.iter().chain(warned).enumerate() {
            let is_gated = i < gated.len();
            let outcome = store.compare(name, value, tolerance);
            match outcome {
                Comparison::New => println!("baseline {name}: recorded {value:.3} (new)"),
                Comparison::Ok { ratio } => {
                    println!("baseline {name}: {value:.3} ({:.0}% of baseline) ok", ratio * 100.0);
                }
                Comparison::Regressed { ratio } => {
                    println!(
                        "WARNING: {name} regressed to {value:.3} ({:.0}% of baseline{})",
                        ratio * 100.0,
                        if is_gated { ", gated" } else { "" }
                    );
                    regression |= is_gated;
                }
            }
            if update || outcome == Comparison::New {
                store.record(name, value);
            }
        }
        store.save().expect("save baselines");
        regression
    }

    /// Write the store back to its path (creating parent directories).
    pub fn save(&self) -> Result<()> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| BaoError::Config(format!("create {}: {e}", dir.display())))?;
        }
        let obj = Json::Obj(vec![(
            "metrics".to_string(),
            Json::Obj(self.metrics.iter().map(|(k, v)| (k.clone(), Json::F(*v))).collect()),
        )]);
        std::fs::write(&self.path, obj.to_string_pretty())
            .map_err(|e| BaoError::Config(format!("write baselines: {e}")))
    }
}

/// Warn threshold for [`note_headlines`] comparisons.
pub const HEADLINE_TOLERANCE: f64 = 0.20;

/// Warn-only headline tracking for the figure/experiment binaries.
///
/// Loads the canonical store, compares each `(name, value)` against its
/// recorded baseline (recording metrics seen for the first time), and
/// saves. Regressions print a WARNING but never affect the exit code:
/// figure numbers legitimately move when the planner, executor, or
/// cloud model changes — the record exists so such moves are *seen*,
/// not to fail CI. Only the `*_bench` binaries gate
/// (`scripts/check.sh --bench-smoke`). Pass `update = true`
/// (`--update-baseline`) to re-record after an intentional move.
///
/// Metric values follow the store's larger-is-better convention, so
/// callers record speedups, ratios, and fractions — never raw times.
pub fn note_headlines<S: AsRef<str>>(metrics: &[(S, f64)], update: bool) {
    let mut store = match BaselineStore::load(BaselineStore::repo_path()) {
        Ok(s) => s,
        Err(e) => {
            println!("WARNING: skipping headline baselines ({e})");
            return;
        }
    };
    println!();
    for (name, value) in metrics {
        let (name, value) = (name.as_ref(), *value);
        match store.compare(name, value, HEADLINE_TOLERANCE) {
            Comparison::New => {
                println!("baseline {name}: recorded {value:.3} (new)");
                store.record(name, value);
            }
            Comparison::Ok { ratio } => {
                println!("baseline {name}: {value:.3} ({:.0}% of baseline) ok", ratio * 100.0);
                if update {
                    store.record(name, value);
                }
            }
            Comparison::Regressed { ratio } => {
                println!(
                    "WARNING: {name} moved to {value:.3} ({:.0}% of baseline, warn-only)",
                    ratio * 100.0
                );
                if update {
                    store.record(name, value);
                }
            }
        }
    }
    if let Err(e) = store.save() {
        println!("WARNING: could not save baselines: {e}");
    }
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
        // Nine tight samples plus one scheduler spike: the plain mean is
        // dragged up, the trimmed mean is not.
        let mut xs = vec![1.0; 9];
        xs.push(100.0);
        let s = Stats::from_samples(&xs);
        assert_eq!(s.rejected, 1);
        assert!(s.mean > 10.0);
        assert!((s.trimmed_mean - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.n_samples, 10);

        // Uniform samples: nothing to reject, trimmed == mean.
        let s = Stats::from_samples(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.trimmed_mean, s.mean);
    }

    #[test]
    fn baseline_store_roundtrip_and_compare() {
        let dir = std::env::temp_dir().join(format!("bao_baseline_{}", std::process::id()));
        let path = dir.join("bench_baselines.json");
        let _ = std::fs::remove_file(&path);

        // Missing file -> empty store, comparisons are New.
        let mut store = BaselineStore::load(&path).unwrap();
        assert_eq!(store.get("speedup"), None);
        assert_eq!(store.compare("speedup", 3.0, 0.2), Comparison::New);

        store.record("speedup", 4.0);
        store.record("speedup", 5.0); // overwrite
        store.save().unwrap();

        let loaded = BaselineStore::load(&path).unwrap();
        assert_eq!(loaded.get("speedup"), Some(5.0));
        // Within 20% tolerance of 5.0.
        assert!(matches!(loaded.compare("speedup", 4.5, 0.2), Comparison::Ok { .. }));
        // 3.0/5.0 = 0.6 < 0.8 -> regression.
        match loaded.compare("speedup", 3.0, 0.2) {
            Comparison::Regressed { ratio } => assert!((ratio - 0.6).abs() < 1e-12),
            other => panic!("expected regression, got {other:?}"),
        }
        // Improvements are never a regression.
        assert!(matches!(loaded.compare("speedup", 50.0, 0.2), Comparison::Ok { .. }));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_store_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("bao_baseline_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(BaselineStore::load(&path).is_err());
        std::fs::write(&path, "{\"metrics\": {\"x\": \"nope\"}}").unwrap();
        assert!(BaselineStore::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
