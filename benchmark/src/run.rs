//! One run of one workload: set up several times, repeat timed passes for
//! the run length, check the outputs, (traced run) probe the layers, then
//! write the report and print the result line.

use std::time::Instant;

use bao_common::json::{Json, ToJson};

use crate::digest::hex;
use crate::metrics::{Kind, Metrics};
use crate::stats::{mean, median, percentile, percentile_supported};
use crate::trace::Trace;
use crate::workloads::{
    build_inputs, check_sampled_results, input_digest, out_dir, remove_tmp_dirs, run_pass, Inputs,
    Mode, Pass, Workload, REGION,
};
use crate::{pins, probes};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Spans of a statement-driven traced pass must cover this much of it.
const MIN_COVERAGE: f64 = 0.95;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// Test only: expect a wrong result digest, so the check must fail.
    pub corrupt_expectation: bool,
}

/// One line of the report's `checks` list.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

impl ToJson for Check {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("ok", self.ok.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

/// The kinds of pass a run cycles through. An untraced run repeats one
/// kind; a traced run alternates, so that both sides of
/// `trace.overhead_frac` (and of `wal.run_overhead_frac`) see the same host
/// conditions.
fn pass_cycle(w: Workload, traced: bool) -> &'static [Mode] {
    match (traced, w) {
        (false, _) => &[Mode::Untraced],
        (true, Workload::DurableRecover) => &[Mode::Untraced, Mode::Traced, Mode::PlainRun],
        (true, _) => &[Mode::Untraced, Mode::Traced],
    }
}

/// Runs the workload and returns the process exit code.
pub fn run(a: &RunArgs) -> i32 {
    let w = a.workload;
    let mut m = Metrics::default();
    let mut checks: Vec<Check> = Vec::new();

    // ---- set-up, several times; the last one's inputs are used ----
    let mut setups: Vec<Inputs> = Vec::new();
    for _ in 0..SETUPS {
        match build_inputs(w, a.seed, a.quick) {
            Ok(i) => setups.push(i),
            Err(e) => {
                eprintln!("{}: set-up failed: {e}", w.name());
                return 2;
            }
        }
    }
    let col = |f: fn(&Inputs) -> f64| -> Vec<f64> { setups.iter().map(f).collect() };
    m.put_median(
        "setup_s",
        col(|i| (i.build_ms + i.analyze_ms + i.new_ms) / 1e3),
    );
    m.put_median("workloads.build_ms", col(|i| i.build_ms));
    m.put_median("stats.analyze_ms", col(|i| i.analyze_ms));
    m.put_median("harness.new_ms", col(|i| i.new_ms));
    let inp = setups.pop().expect("SETUPS > 0");
    drop(setups);
    let n = inp.sql.len();

    let in_digest = input_digest(&inp);
    let pinned = pins::lookup(w.name(), a.quick, a.seed);
    checks.push(match pinned {
        Some(p) if p == in_digest => Check {
            name: "input_digest",
            ok: true,
            detail: "matches the pinned digest".into(),
        },
        Some(p) => Check {
            name: "input_digest",
            ok: false,
            detail: format!(
                "inputs changed - not comparable with earlier runs (pinned {}, got {})",
                hex(p),
                hex(in_digest)
            ),
        },
        None => Check {
            name: "input_digest",
            ok: true,
            detail: "no digest pinned for this seed".into(),
        },
    });

    // ---- timed passes ----
    let mut passes: Vec<(Mode, Pass)> = Vec::new();
    let cycle = pass_cycle(w, a.traced);
    let started = Instant::now();
    loop {
        let k = passes.len();
        let mode = cycle[k % cycle.len()];
        passes.push((mode, run_pass(w, &inp, a.quick, mode, k)));
        // Go on while every kind of pass has run once and another whole
        // pass still fits the run length.
        let elapsed = started.elapsed().as_secs_f64();
        let next_would_end = elapsed + elapsed / passes.len() as f64;
        if passes.len() >= cycle.len() && next_would_end > a.seconds {
            break;
        }
    }
    let of = |mode: Mode| {
        passes
            .iter()
            .filter(move |(m, _)| *m == mode)
            .map(|(_, p)| p)
    };
    // End-to-end figures come from the untraced passes only.
    let measured: Vec<&Pass> = of(Mode::Untraced).collect();
    let first = measured[0];

    // ---- end-to-end metrics ----
    let per_pass = |f: &dyn Fn(&Pass) -> Option<f64>| -> Vec<f64> {
        measured.iter().filter_map(|p| f(p)).collect()
    };
    m.put_median("wall_qps", per_pass(&|p| Some(p.ok as f64 / p.region_s)));
    m.put_median(
        "query_ms_mean",
        per_pass(&|p| {
            if w.statement_driven() {
                mean(&p.stmt_ms)
            } else {
                (p.ok > 0).then(|| (p.region_s - p.train_s) * 1e3 / p.ok as f64)
            }
        }),
    );
    m.put(
        "sim_query_ms_gmean",
        (first.sim_ln_ms / first.ok.max(1) as f64).exp(),
    );
    m.put("sim_workload_s", first.sim_s);
    if w.statement_driven() {
        if percentile_supported(n, 95.0) {
            m.put_median("query_ms_p95", per_pass(&|p| percentile(&p.stmt_ms, 95.0)));
        }
        m.put_median("core.statement_ms_p50", per_pass(&|p| median(&p.stmt_ms)));
    }
    match w {
        Workload::PaperSerial => {
            m.put_median("retrain_ms_p50", per_pass(&|p| median(&p.retrain_ms)));
        }
        Workload::ServingTemplates => {
            m.put_median("harness.serving_run_s", per_pass(&|p| Some(p.region_s)));
        }
        Workload::DurableRecover => {
            m.put_median("recover_s", per_pass(&|p| p.extra.recover_s));
            m.put_median("harness.run_s", per_pass(&|p| p.extra.run_s));
            m.put_median(
                "harness.recover_replay_qps",
                per_pass(&|p| p.extra.recover_s.map(|s| p.ok as f64 / s)),
            );
            m.put(
                "wal_bytes_per_query",
                first.extra.wal_bytes as f64 / n as f64,
            );
        }
        Workload::ExecHeavy => {}
    }
    if w != Workload::ExecHeavy {
        m.put_median("core.retrain_s_total", per_pass(&|p| Some(p.train_s)));
    }

    // ---- counts of the workload's own passes ----
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.put("core.retrains", first.retrains as f64);
    m.put("core.arm0_share", ratio(first.arm0 as f64, first.ok as f64));
    m.put_median(
        "nn.train_share",
        per_pass(&|p| Some(p.train_s / p.region_s)),
    );
    let cache = first.extra.cache.unwrap_or_default();
    m.put("cache.hit_rate", cache.hit_rate());
    m.put(
        "cache.retrain_invalidations",
        cache.retrain_invalidations as f64,
    );
    m.put("cache.drift_evictions", cache.drift_evictions as f64);
    m.put("cache.evictions", cache.evictions as f64);
    m.put("sched.waves", first.extra.waves as f64);
    m.put(
        "sched.mean_wave",
        ratio(first.ok as f64, first.extra.waves as f64),
    );
    m.put("wal.segments", first.extra.wal_segments as f64);

    // ---- checks ----
    let failed: usize = passes.iter().map(|(_, p)| p.failed).sum();
    let attempted = passes.len() * n;
    // Durable and plain passes compute the same thing, so every pass of
    // the run, whatever its mode, must agree on what it computed.
    let same = passes.iter().all(|(_, p)| {
        p.digest == first.digest
            && p.sim_s.to_bits() == first.sim_s.to_bits()
            && p.failed == first.failed
    });
    checks.push(Check {
        name: "passes_agree",
        ok: same,
        detail: format!(
            "{} passes, result digest {}",
            passes.len(),
            hex(first.digest)
        ),
    });
    let (compared, mismatches) = check_sampled_results(&inp, &first.sampled);
    checks.push(Check {
        name: "sampled_results_equal_default_plan",
        ok: mismatches.is_empty() && compared > 0,
        detail: if mismatches.is_empty() {
            format!("{compared} statements re-executed, chosen plan and default plan agree")
        } else {
            mismatches.join("; ")
        },
    });
    if w == Workload::DurableRecover {
        let broken: Vec<&String> = passes.iter().flat_map(|(_, p)| &p.check_failures).collect();
        checks.push(Check {
            name: "recovered_equals_original",
            ok: broken.is_empty(),
            detail: if broken.is_empty() {
                format!("resumed_at_step == {n} and the recovered RunResult is byte-equal, on every durable pass")
            } else {
                broken.iter().map(|s| s.as_str()).collect::<Vec<_>>().join("; ")
            },
        });
    }
    if a.corrupt_expectation {
        let expected = first.digest ^ 1;
        checks.push(Check {
            name: "result_digest_expected",
            ok: first.digest == expected,
            detail: format!(
                "expected {} (corrupted on purpose), got {}",
                hex(expected),
                hex(first.digest)
            ),
        });
    }

    // ---- traced run: spans, probes ----
    let mut stages = Json::Arr(Vec::new());
    let mut notes: Vec<String> = Vec::new();
    if a.traced {
        let traced: Vec<&Pass> = of(Mode::Traced).collect();
        let median_of = |ps: &[&Pass], f: &dyn Fn(&Pass) -> Option<f64>| {
            median(&ps.iter().filter_map(|p| f(p)).collect::<Vec<_>>())
        };
        let u = median_of(&measured, &|p| Some(p.region_s)).unwrap_or(0.0);
        let t = median_of(&traced, &|p| Some(p.region_s)).unwrap_or(0.0);
        m.put("trace.overhead_frac", ratio(t - u, u));
        let last = traced.last().expect("a traced run has a traced pass");
        let trace = last.trace.as_ref().expect("a traced pass keeps its spans");
        let coverage = trace.coverage(0);
        m.put("trace.span_coverage", coverage);
        if w.statement_driven() {
            checks.push(Check {
                name: "span_coverage",
                ok: coverage >= MIN_COVERAGE,
                detail: format!(
                    "stage spans cover {coverage:.4} of the timed region (need {MIN_COVERAGE})"
                ),
            });
        } else {
            notes.push("the product call is opaque from outside: the trace is one coarse span per entry point, plus report counts and probes".into());
        }
        stages = stage_table(trace);
        if let Err(e) = write_trace(w, a.seed, trace) {
            eprintln!("{}: {e}", w.name());
            return 2;
        }

        m.put("wal.frames", last.extra.wal_frames as f64);
        m.put(
            "wal.checkpoint_bytes_share",
            ratio(
                last.extra.wal_checkpoint_bytes as f64,
                last.extra.wal_bytes as f64,
            ),
        );
        let durable: Vec<&Pass> = measured.iter().chain(&traced).copied().collect();
        let plain: Vec<&Pass> = of(Mode::PlainRun).collect();
        m.put(
            "wal.run_overhead_frac",
            match (
                median_of(&durable, &|p| p.extra.run_s),
                median_of(&plain, &|p| p.extra.run_s),
            ) {
                (Some(d), Some(p)) => (d - p) / d,
                _ => 0.0,
            },
        );

        if let Err(e) = probes::run(&inp, w.cache_features(), &mut m) {
            checks.push(Check {
                name: "probes",
                ok: false,
                detail: e,
            });
        }
        m.put("proc.peak_rss_mb", peak_rss_mb());
    }
    remove_tmp_dirs();

    // ---- report and result line ----
    let correct = checks.iter().all(|c| c.ok);
    let errors: Vec<&str> = passes
        .iter()
        .flat_map(|(_, p)| p.errors.iter().map(String::as_str))
        .take(5)
        .collect();
    let report = Json::obj([
        ("workload", w.name().to_json()),
        ("config", w.config().to_json()),
        ("scale", w.scale().to_json()),
        ("n", n.to_json()),
        ("seed", a.seed.to_json()),
        ("quick", a.quick.to_json()),
        ("traced", a.traced.to_json()),
        ("run_seconds", a.seconds.to_json()),
        ("passes", passes.len().to_json()),
        ("host_cores", host_cores().to_json()),
        ("git_rev", git_rev().to_json()),
        ("ops_attempted", attempted.to_json()),
        ("ops_failed", failed.to_json()),
        ("input_digest", hex(in_digest).to_json()),
        ("result_digest", hex(first.digest).to_json()),
        ("correct", correct.to_json()),
        ("checks", checks.to_json()),
        ("errors", errors.to_json()),
        ("notes", notes.to_json()),
        (
            "metrics",
            Json::Arr(m.iter().map(ToJson::to_json).collect()),
        ),
        ("stages", stages),
    ]);
    if let Err(e) = write_out(&report_path(w, a.traced), report.to_string_pretty()) {
        eprintln!("{}: {e}", w.name());
        return 2;
    }

    summarize(a, &m, &checks, passes.len(), attempted, failed);
    let kind = if a.traced {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    match m.result_object(kind) {
        Ok(metrics) => {
            let line = Json::obj([
                ("correct", correct.to_json()),
                ("attempted", attempted.to_json()),
                ("failed", failed.to_json()),
                ("metrics", metrics),
            ]);
            println!("{}", line.to_string());
            i32::from(!correct)
        }
        Err(missing) => {
            eprintln!("{}: run produced no value for {missing:?}", w.name());
            2
        }
    }
}

pub fn report_path(w: Workload, traced: bool) -> std::path::PathBuf {
    out_dir().join(format!(
        "{}.{}.json",
        w.name(),
        if traced { "traced" } else { "report" }
    ))
}

fn write_out(path: &std::path::Path, text: String) -> Result<(), String> {
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(path, text + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn write_trace(w: Workload, seed: u64, trace: &Trace) -> Result<(), String> {
    let doc = Json::obj([
        ("workload", w.name().to_json()),
        ("seed", seed.to_json()),
        ("region_span", REGION.to_json()),
        ("spans", trace.to_json()),
    ]);
    let path = out_dir().join(format!("{}.trace.json", w.name()));
    write_out(&path, doc.to_string())
}

/// Per span name: how often, how long, and its self-time share of the
/// timed region. The README's stage-share table is this.
fn stage_table(trace: &Trace) -> Json {
    let region_ns = trace.spans[0].dur_ns().max(1) as f64;
    Json::Arr(
        trace
            .stages()
            .iter()
            .filter(|s| s.name != REGION)
            .map(|s| {
                let us: Vec<f64> = s.durs_ns.iter().map(|&d| d as f64 / 1e3).collect();
                Json::obj([
                    ("span", s.name.to_json()),
                    ("count", s.count.to_json()),
                    ("total_ms", (s.total_ns as f64 / 1e6).to_json()),
                    ("self_ms", (s.self_ns as f64 / 1e6).to_json()),
                    (
                        "self_share_of_region",
                        (s.self_ns as f64 / region_ns).to_json(),
                    ),
                    ("mean_us", mean(&us).to_json()),
                    ("p50_us", median(&us).to_json()),
                    (
                        "p95_us",
                        percentile_supported(us.len(), 95.0)
                            .then(|| percentile(&us, 95.0))
                            .flatten()
                            .to_json(),
                    ),
                ])
            })
            .collect(),
    )
}

fn summarize(
    a: &RunArgs,
    m: &Metrics,
    checks: &[Check],
    passes: usize,
    attempted: usize,
    failed: usize,
) {
    eprintln!(
        "{} seed {} ({} passes, {attempted} statements attempted, {failed} failed){}",
        a.workload.name(),
        a.seed,
        passes,
        if a.quick { " [quick]" } else { "" }
    );
    for v in m
        .iter()
        .filter(|v| a.traced || v.def.kind == Kind::EndToEnd)
    {
        eprintln!(
            "  {:<30} {:>16.4} {:<6} [{}]",
            v.def.name,
            v.value,
            v.def.unit,
            v.def.clock.name()
        );
    }
    for c in checks {
        eprintln!(
            "  check {:<36} {} - {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark ran at, read from `.git` without starting a
/// process; "unknown" in a checkout that is not a repository.
pub fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

/// Peak resident set size (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
