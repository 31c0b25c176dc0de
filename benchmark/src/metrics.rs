//! Every metric the benchmark can print, declared once: its unit, the
//! clock it is read from, which way is better, its bound, and the
//! end-to-end metric and workload it is expected to move.
//!
//! `../BENCHMARK.json` lists the metrics with `declared: true`: the
//! driver's contract wants each declared metric on every workload, so a
//! declared per-layer metric is either a probe (the layer's public
//! function called in isolation on inputs taken from the workload, which
//! every workload can supply) or a count that is truly 0 where the layer
//! is off the workload's path. Metrics that only some workloads produce
//! are printed in the report document (`out/<workload>.*.json`) by those
//! workloads and left out by the others.

use bao_common::json::{Json, ToJson};

use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock: what this code costs on this machine.
    Wall,
    /// Simulated time: what the paper's figures report (plan quality).
    Sim,
    /// An exact count or a ratio of counts.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// "lower" or "higher".
    pub better: &'static str,
    pub kind: Kind,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only. 0 means any worsening counts.
    pub bound: Option<f64>,
    /// Declared in `BENCHMARK.json`, and so printed by every workload.
    pub declared: bool,
    /// What it measures, and which end-to-end metric it should move where.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    bound: f64,
    declared: bool,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        kind: Kind::EndToEnd,
        bound: Some(bound),
        declared,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    declared: bool,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        kind: Kind::PerLayer,
        bound: None,
        declared,
        moves,
    }
}

use Clock::{Count, Sim, Wall};

pub const DEFS: &[Def] = &[
    // ---- end to end, measured with tracing off ----
    e2e("setup_s", "s", Wall, "lower", 0.25, true,
        "build database + query stream + SQL text, StatsCatalog::analyze, construct Bao/runner (and WAL dir); median of 9 set-ups"),
    e2e("wall_qps", "1/s", Wall, "higher", 0.25, true,
        "statements completed OK / timed-region seconds, retrain stalls included; median over passes. Region: statement loop, ServingRunner::run, or Runner::run + recover + resume"),
    e2e("query_ms_mean", "ms", Wall, "lower", 0.25, true,
        "mean statement latency excluding retrains: per-statement parse..observe on the statement-driven workloads, (region wall - training wall) / n on the harness-driven ones; median over passes"),
    e2e("query_ms_p95", "ms", Wall, "lower", 0.10, false,
        "95th percentile of the per-statement latencies; paper_serial, exec_heavy"),
    e2e("retrain_ms_p50", "ms", Wall, "lower", 0.10, false,
        "median wall time of the observe calls that retrain; paper_serial"),
    e2e("recover_s", "s", Wall, "lower", 0.10, false,
        "wall time of recover + resume over the complete log; durable_recover"),
    e2e("wal_bytes_per_query", "bytes", Count, "lower", 0.0, false,
        "sum of segment file sizes / n after the run; durable_recover; repeats exactly"),
    // ---- per layer: set-up spans ----
    layer("workloads.build_ms", "ms", Wall, "lower", true, "build_imdb + stream selection + SQL rendering -> setup_s, all workloads"),
    layer("stats.analyze_ms", "ms", Wall, "lower", true, "StatsCatalog::analyze -> setup_s, all workloads"),
    layer("harness.new_ms", "ms", Wall, "lower", true, "Bao::new / Runner::new / ServingRunner::new -> setup_s, all workloads"),
    // ---- per layer: probes (every workload runs them on its own inputs) ----
    layer("sql.parse_us_mean", "us", Wall, "lower", true, "parse_query per SQL text -> query_ms_mean on paper_serial/exec_heavy (about 1 %: no visible move expected)"),
    layer("plan.fingerprint_ns_mean", "ns", Wall, "lower", true, "fingerprint per query -> wall_qps on serving_templates"),
    layer("cache.lookup_ns_mean", "ns", Wall, "lower", true, "PlanCache::lookup per fingerprint (all hits) -> wall_qps on serving_templates"),
    layer("sched.form_wave_us_mean", "us", Wall, "lower", true, "Scheduler submit + release + form_wave(cap 8) until drained, per wave -> wall_qps on serving_templates"),
    layer("opt.plan_default_us_mean", "us", Wall, "lower", true, "Optimizer::plan under HintSet::all_enabled -> query_ms_mean on exec_heavy (about 1 %)"),
    layer("opt.plan_arm_us_mean", "us", Wall, "lower", true, "Optimizer::plan per sampled (query, arm) -> core.select_ms_mean -> query_ms_mean on paper_serial"),
    layer("opt.annotate_us_mean", "us", Wall, "lower", true, "annotate_estimates per sampled (query, arm) -> core.select_ms_mean -> query_ms_mean on paper_serial"),
    layer("opt.distinct_plan_frac", "frac", Count, "lower", true, "distinct plans / 49 per family: the planning and scoring a dedup could save"),
    layer("core.featurize_us_mean", "us", Wall, "lower", true, "Featurizer::featurize per plan tree -> core.select_ms_mean"),
    layer("nn.score_family_us_mean", "us", Wall, "lower", true, "predict_batch on one 49-tree family, model fitted on 100 observations -> core.select_ms_mean -> query_ms_mean on paper_serial"),
    layer("nn.score_wave_us_mean", "us", Wall, "lower", true, "predict_batch_coalesced on 8 x 49 trees -> wall_qps on serving_templates"),
    layer("nn.coalesce_distinct_frac", "frac", Count, "lower", true, "trees scored / trees requested by the coalesced scorer (ValueModel::coalesce_stats)"),
    layer("nn.fit_ms_e100", "ms", Wall, "lower", true, "ValueModel::fit on 100 (tree, perf) pairs -> wall_qps on durable_recover"),
    layer("nn.fit_ms_e250", "ms", Wall, "lower", true, "fit on 250 pairs (the captured pairs, cycled) -> wall_qps on serving_templates, durable_recover"),
    layer("nn.fit_ms_e2000", "ms", Wall, "lower", true, "fit on 2000 pairs (cycled): a full paper window -> retrain_ms_p50, wall_qps on paper_serial"),
    layer("nn.fit_epochs_e2000", "count", Count, "lower", true, "epochs the e2000 fit ran; exact"),
    layer("core.select_unfitted_us_mean", "us", Wall, "lower", true, "Bao::select_plan before the first retrain (arm 0 only)"),
    layer("core.select_ms_mean", "ms", Wall, "lower", true, "Bao::select_plan with a fitted model: 49 arms planned, annotated, featurized, scored -> query_ms_mean on paper_serial; under 1/6 of it on serving_templates; none on exec_heavy"),
    layer("core.select_ms_p95", "ms", Wall, "lower", true, "95th percentile of the same 200 calls -> query_ms_p95 on paper_serial"),
    layer("core.observe_us_mean", "us", Wall, "lower", true, "Bao::observe calls that do not retrain"),
    layer("exec.execute_ms_mean", "ms", Wall, "lower", true, "execute of the default plan, first 250 statements on one warm-as-it-goes pool -> query_ms_mean, wall_qps on exec_heavy; about 5 % on paper_serial"),
    layer("exec.execute_ms_p95", "ms", Wall, "lower", true, "95th percentile of the same calls -> query_ms_p95 on exec_heavy"),
    layer("exec.node_rows_per_s", "1/s", Wall, "higher", true, "sum of node_true_rows / sum of execute seconds over the same calls"),
    layer("exec.shard_auto_ratio", "ratio", Wall, "lower", true, "execute_with at shard_workers 0 / at 1 on the 20 slowest probed statements; the end-to-end runs stay on the product default of 1"),
    layer("storage.page_hit_rate", "frac", Count, "higher", true, "buffer-pool hits / accesses over the same calls; exact -> sim_workload_s, never wall"),
    layer("storage.page_misses", "count", Count, "lower", true, "buffer-pool misses over the same calls; exact -> sim_workload_s"),
    layer("wal.append_commit_us_mean", "us", Wall, "lower", true, "Wal::append of experience + outcome frames (a checkpoint every 100) and one commit per statement, default policy -> wall_qps on durable_recover"),
    layer("wal.scan_ms", "ms", Wall, "lower", true, "Wal::scan of the log the append probe wrote -> recover_s"),
    // ---- per layer: counts read from the workload's own passes ----
    layer("sim_workload_s", "sim_s", Sim, "lower", true, "sum of simulated execution latency of one pass: the paper's plan-quality figure. Exact on one commit and seed, and --compare requires it to repeat; no bound, because any change of Bao's learning trajectory moves it by a factor (20 to 100 s on paper_serial across arrival orders)"),
    layer("sim_query_ms_gmean", "sim_ms", Sim, "lower", true, "geometric mean of the statements' simulated execution latency: plan quality across the whole distribution, not only its tail; exact on one commit and seed"),
    layer("core.retrains", "count", Count, "lower", true, "retrains in one pass; 0 on exec_heavy"),
    layer("core.arm0_share", "frac", Count, "lower", true, "share of statements executed with arm 0 (the default plan) -> sim_workload_s"),
    layer("nn.train_share", "frac", Wall, "lower", true, "training wall / timed-region wall of a pass; 0 on exec_heavy"),
    layer("cache.hit_rate", "frac", Count, "higher", true, "plan-cache hits / lookups (CacheStats); 0 without a plan cache -> wall_qps on serving_templates only"),
    layer("cache.retrain_invalidations", "count", Count, "lower", true, "entries dropped because the model version moved; 0 without a plan cache"),
    layer("cache.drift_evictions", "count", Count, "lower", true, "entries evicted by the latency-drift window; 0 without a plan cache"),
    layer("cache.evictions", "count", Count, "lower", true, "LRU evictions; 0 without a plan cache"),
    layer("sched.waves", "count", Count, "lower", true, "waves ServingRunner formed; 0 off the serving path"),
    layer("sched.mean_wave", "count", Count, "higher", true, "statements per wave; 0 off the serving path"),
    layer("wal.frames", "count", Count, "lower", true, "valid frames in the run's log; 0 without durability -> wal_bytes_per_query"),
    layer("wal.segments", "count", Count, "lower", true, "segment files in the run's log; 0 without durability"),
    layer("wal.checkpoint_bytes_share", "frac", Count, "lower", true, "model-checkpoint payload bytes / log bytes; 0 without durability -> wal_bytes_per_query"),
    layer("wal.run_overhead_frac", "frac", Wall, "lower", true, "(durable - plain) / durable Runner::run wall, the traced run repeats the pass with durability off; 0 without durability"),
    // ---- per layer: self checks ----
    layer("proc.peak_rss_mb", "MB", Count, "lower", true, "VmHWM of the benchmark process at the end of the traced run, probes included; on identical runs of paper_serial it reads 60 to 91 MB, so it is not end to end"),
    layer("trace.overhead_frac", "frac", Wall, "lower", true, "(traced - untraced) / untraced median pass wall"),
    layer("trace.span_coverage", "frac", Wall, "higher", true, "share of the timed region its child spans cover; must be at least 0.95"),
    // ---- per layer: produced by some workloads only ----
    layer("core.statement_ms_p50", "ms", Wall, "lower", false, "median statement latency; bimodal (a gap between template clusters sits at the median), so not end to end"),
    layer("core.retrain_s_total", "s", Wall, "lower", false, "training wall of one pass -> wall_qps"),
    layer("harness.serving_run_s", "s", Wall, "lower", false, "ServingRunner::run wall -> wall_qps on serving_templates"),
    layer("harness.run_s", "s", Wall, "lower", false, "Runner::run wall with durability on -> wall_qps on durable_recover"),
    layer("harness.recover_replay_qps", "1/s", Wall, "higher", false, "statements replayed / recover_s -> recover_s"),
];

pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// A measured value: the figure reported and the per-pass (or per-set-up)
/// samples it is the median of, when there is more than one.
#[derive(Debug, Clone)]
pub struct Value {
    pub def: &'static Def,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Values collected during a run, in first-put order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Value>);

impl Metrics {
    /// Record one value. An undeclared name is a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_samples(name, value, Vec::new());
    }

    /// Record the median of `samples`; nothing when there are none.
    pub fn put_median(&mut self, name: &str, samples: impl IntoIterator<Item = f64>) {
        let samples: Vec<f64> = samples.into_iter().collect();
        if let Some(m) = stats::median(&samples) {
            self.put_samples(name, m, samples);
        }
    }

    fn put_samples(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let def = def(name).unwrap_or_else(|| panic!("metric `{name}` is not declared in DEFS"));
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.0.push(Value {
            def,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|v| v.def.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// The `metrics` object of the result line: every declared metric of
    /// `kind`. `Err` names the ones this run failed to produce.
    pub fn result_object(&self, kind: Kind) -> Result<Json, Vec<&'static str>> {
        let mut fields = Vec::new();
        let mut missing = Vec::new();
        for d in DEFS.iter().filter(|d| d.kind == kind && d.declared) {
            match self.get(d.name) {
                Some(v) if v.value.is_finite() => fields.push((
                    d.name.to_string(),
                    Json::obj([("value", v.value.to_json()), ("unit", d.unit.to_json())]),
                )),
                _ => missing.push(d.name),
            }
        }
        if missing.is_empty() {
            Ok(Json::Obj(fields))
        } else {
            Err(missing)
        }
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Json {
        let d = self.def;
        Json::obj([
            ("name", d.name.to_json()),
            ("value", self.value.to_json()),
            ("unit", d.unit.to_json()),
            ("clock", d.clock.name().to_json()),
            ("direction", d.better.to_json()),
            (
                "kind",
                (if d.kind == Kind::EndToEnd {
                    "end_to_end"
                } else {
                    "per_layer"
                })
                .to_json(),
            ),
            ("bound", d.bound.to_json()),
            ("samples", self.samples.to_json()),
            ("moves", d.moves.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, d) in DEFS.iter().enumerate() {
            assert!(
                DEFS[..i].iter().all(|o| o.name != d.name),
                "duplicate {}",
                d.name
            );
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(d.better == "lower" || d.better == "higher");
            assert_eq!(d.bound.is_some(), d.kind == Kind::EndToEnd, "{}", d.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; DEFS is what the program
    /// prints. They must name the same metrics with the same units.
    #[test]
    fn benchmark_json_declares_exactly_the_declared_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let j = bao_common::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let declared: Vec<(String, String, String)> = j
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = DEFS
                .iter()
                .filter(|d| d.kind == kind && d.declared)
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
            if kind == Kind::EndToEnd {
                for m in j.get(key).and_then(Json::as_arr).unwrap() {
                    let name = m.get("name").and_then(Json::as_str).unwrap();
                    assert_eq!(
                        m.get("bound").and_then(Json::as_f64),
                        def(name).unwrap().bound,
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn result_object_has_value_and_unit_and_reports_what_is_missing() {
        let mut m = Metrics::default();
        for d in DEFS
            .iter()
            .filter(|d| d.kind == Kind::EndToEnd && d.declared)
        {
            if d.name != "wall_qps" {
                m.put(d.name, 1.5);
            }
        }
        assert_eq!(
            m.result_object(Kind::EndToEnd).unwrap_err(),
            vec!["wall_qps"]
        );
        m.put_median("wall_qps", vec![3.0, 1.0, 2.0]);
        let obj = m.result_object(Kind::EndToEnd).unwrap();
        let qps = obj.get("wall_qps").unwrap();
        assert_eq!(qps.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(qps.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(m.get("wall_qps").unwrap().samples, vec![3.0, 1.0, 2.0]);
        // A report entry carries unit, clock, direction and bound.
        let entry = m.get("setup_s").unwrap().to_json();
        for key in [
            "name",
            "value",
            "unit",
            "clock",
            "direction",
            "kind",
            "bound",
            "samples",
            "moves",
        ] {
            assert!(entry.get(key).is_some(), "{key}");
        }
        assert_eq!(entry.get("clock").and_then(Json::as_str), Some("wall"));
    }
}
