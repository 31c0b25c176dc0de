//! The repo benchmark. See `README.md` beside this package, and
//! `BENCHMARK.json` at the repo root for the contract it is run under.
//!
//! ```text
//! bao-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bao-benchmark --workload all --seed 42 [--trace] [--quick] [--declared BENCHMARK.json]
//! bao-benchmark --compare A.json B.json
//! ```
//!
//! A single workload prints, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` and writes its
//! full report to `out/`. `--workload all` runs each workload in a fresh
//! child process and prints one document holding every report.

mod compare;
mod digest;
mod metrics;
mod pins;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, Stdio};

use bao_common::json::{self, Json, ToJson};

use crate::metrics::Kind;
use crate::workloads::Workload;

/// Run length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    corrupt_expectation: bool,
    declared: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: bao-benchmark --workload <paper_serial|serving_templates|durable_recover|exec_heavy|all> \
[--seed N] [--seconds S] [--trace [0|1]] [--quick] [--declared BENCHMARK.json]\n       bao-benchmark --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: None,
        traced: false,
        quick: false,
        corrupt_expectation: false,
        declared: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = value(&mut it, flag)?,
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                a.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            // Test only: the result-digest check must then fail.
            "--corrupt-expectation" => a.corrupt_expectation = true,
            "--declared" => a.declared = Some(value(&mut it, flag)?),
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.compare.is_none() && a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if args.workload == "all" {
        run_all(&args)
    } else if let Some(workload) = Workload::parse(&args.workload) {
        run::run(&run::RunArgs {
            workload,
            seed: args.seed,
            seconds: args
                .seconds
                .unwrap_or(if args.quick { 1.0 } else { DEFAULT_SECONDS }),
            traced: args.traced,
            quick: args.quick,
            corrupt_expectation: args.corrupt_expectation,
        })
    } else {
        eprintln!("unknown workload `{}`\n{USAGE}", args.workload);
        2
    };
    std::process::exit(code);
}

/// Run one workload in a fresh child process (so that no workload inherits
/// another's heap, page cache warmth or thread pools), wait for it, and
/// return its result line.
fn run_child(args: &Args, w: Workload, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    if args.corrupt_expectation {
        cmd.arg("--corrupt-expectation");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} run: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result = json::parse(line).map_err(|e| format!("{}: no result line ({e})", w.name()))?;
    if !out.status.success() {
        return Err(format!("{}: exited with {}", w.name(), out.status));
    }
    Ok(result)
}

/// Every name `BENCHMARK.json` declares must be in the result line of every
/// workload, with a unit.
fn check_declared(declared: &Json, key: &str, w: Workload, result: &Json) -> Vec<String> {
    let mut missing = Vec::new();
    for m in declared.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
        let unit = m.get("unit").and_then(Json::as_str);
        let printed = result.get("metrics").and_then(|ms| ms.get(name));
        let ok = printed.is_some_and(|p| {
            p.get("value").and_then(Json::as_f64).is_some()
                && p.get("unit").and_then(Json::as_str) == unit
        });
        if !ok {
            missing.push(format!(
                "{}: `{name}` ({key}) is not printed with unit {unit:?}",
                w.name()
            ));
        }
    }
    missing
}

fn run_all(args: &Args) -> i32 {
    let declared = match &args.declared {
        None => None,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t).map_err(|e| e.to_string()))
        {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("--declared {path}: {e}");
                return 2;
            }
        },
    };
    let mut reports = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for w in Workload::ALL {
        let mut report = Json::Null;
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            match run_child(args, w, traced) {
                Ok(result) => {
                    if let Some(d) = &declared {
                        let key = if traced { "per_layer" } else { "end_to_end" };
                        problems.extend(check_declared(d, key, w, &result));
                    }
                }
                Err(e) => problems.push(e),
            }
            let path = run::report_path(w, traced);
            let doc = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| json::parse(&t).ok());
            match doc {
                // The traced run's report rides along under the untraced one.
                Some(doc) if traced => {
                    if let Json::Obj(fields) = &mut report {
                        fields.push(("traced_run".into(), doc));
                    }
                }
                Some(doc) => report = doc,
                None => problems.push(format!("{}: no report at {}", w.name(), path.display())),
            }
        }
        if report != Json::Null {
            reports.push(report);
        }
    }
    let declared_kinds = |kind: Kind| {
        metrics::DEFS
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.name)
            .collect::<Vec<_>>()
            .to_json()
    };
    let doc = Json::obj([
        ("benchmark", "bao-benchmark".to_json()),
        ("host_cores", run::host_cores().to_json()),
        ("git_rev", run::git_rev().to_json()),
        ("seed", args.seed.to_json()),
        ("quick", args.quick.to_json()),
        ("end_to_end_metrics", declared_kinds(Kind::EndToEnd)),
        ("per_layer_metrics", declared_kinds(Kind::PerLayer)),
        ("workloads", Json::Arr(reports)),
        ("problems", problems.to_json()),
        // The benchmark measures; it never claims a gain.
        ("claim", Json::Null),
    ]);
    println!("{}", doc.to_string_pretty());
    for p in &problems {
        eprintln!("problem: {p}");
    }
    i32::from(!problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload exec_heavy --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("exec_heavy", 7, Some(20.0), false)
        );
        let a = parse_args(&argv(
            "--workload exec_heavy --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert!(a.traced);
        // A bare --trace, as the README's one command uses it.
        let a = parse_args(&argv("--workload all --trace --quick")).unwrap();
        assert!(a.traced && a.quick && a.seed == 42);
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --bogus")).is_err());
        let a = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(a.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn declared_names_must_be_printed_with_their_unit() {
        let declared = json::parse(r#"{"end_to_end": [{"name": "wall_qps", "unit": "1/s"}, {"name": "setup_s", "unit": "s"}]}"#).unwrap();
        let result = json::parse(r#"{"metrics": {"wall_qps": {"value": 3.5, "unit": "1/s"}, "setup_s": {"value": 1.0, "unit": "ms"}}}"#).unwrap();
        let missing = check_declared(&declared, "end_to_end", Workload::ExecHeavy, &result);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("setup_s"));
    }
}
