//! `--compare A.json B.json`: hold B (the change) against A (the
//! baseline), two documents printed by `--workload all`. Each end-to-end
//! metric is judged per workload against its own bound; digests, simulated
//! time, log size and failure counts must be identical.

use bao_common::json::{self, Json};

use crate::stats::rel_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, and B's runs are not
    /// all better than A's: neither "unchanged" nor "worse" is shown.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Judge one metric. `bound` is the share of A by which B may be worse.
pub fn judge(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> Verdict {
    // How much worse B is, as a share of A (negative: better).
    let worse_by = if lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let spread = rel_spread(&a.samples)
        .into_iter()
        .chain(rel_spread(&b.samples))
        .fold(0.0, f64::max);
    if spread <= bound {
        return Verdict::Ok;
    }
    let every_b_beats_every_a = !a.samples.is_empty()
        && !b.samples.is_empty()
        && a.samples.iter().all(|&x| {
            b.samples
                .iter()
                .all(|&y| if lower_is_better { y < x } else { y > x })
        });
    if every_b_beats_every_a {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        samples: metric
            .get("samples")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn metric<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
    report
        .get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

/// Compare two documents; returns the printed rows and whether B passes
/// (nothing worse, nothing that must be identical differs).
pub fn compare_docs(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut pass = true;
    for ra in workloads(a) {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(rb) = workloads(b)
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            rows.push(format!("{name:<18} missing from B"));
            pass = false;
            continue;
        };
        for ma in ra.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(bound) = ma.get("bound").and_then(Json::as_f64) else {
                continue;
            };
            let mname = ma.get("name").and_then(Json::as_str).unwrap_or("?");
            let lower = ma.get("direction").and_then(Json::as_str) == Some("lower");
            let (Some(sa), Some(sb)) = (side(ma), metric(rb, mname).and_then(side)) else {
                rows.push(format!("{name:<18} {mname:<22} missing from B"));
                pass = false;
                continue;
            };
            let verdict = judge(&sa, &sb, lower, bound);
            pass &= verdict != Verdict::Worse;
            rows.push(format!(
                "{name:<18} {mname:<22} A {:>12.4}  B {:>12.4}  {:>+7.2} %  bound {:>4.1} %  {}",
                sa.value,
                sb.value,
                (sb.value - sa.value) / sa.value * 100.0,
                bound * 100.0,
                verdict.name()
            ));
        }
        // What a commit and seed determine exactly must not move at all.
        for key in ["input_digest", "result_digest", "ops_failed"] {
            let (va, vb) = (ra.get(key), rb.get(key));
            let same = va.is_some() && va == vb;
            pass &= same;
            rows.push(format!(
                "{name:<18} {key:<22} {}",
                if same { "identical" } else { "DIFFERS" }
            ));
        }
        for mname in ["sim_workload_s", "wal_bytes_per_query"] {
            if let Some(ma) = metric(ra, mname) {
                let same = metric(rb, mname).and_then(|m| m.get("value")) == ma.get("value");
                pass &= same;
                rows.push(format!(
                    "{name:<18} {mname:<22} {}",
                    if same { "identical" } else { "DIFFERS" }
                ));
            }
        }
    }
    (rows, pass)
}

/// Entry point of `--compare`; returns the exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => {
            let (rows, pass) = compare_docs(&a, &b);
            for r in rows {
                println!("{r}");
            }
            println!(
                "{}",
                if pass {
                    "B is within every bound of A"
                } else {
                    "B FAILS against A"
                }
            );
            i32::from(!pass)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("--compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = s(100.0, &[99.0, 100.0, 101.0]);
        // 5 % slower on a lower-is-better metric with an 8 % bound: ok.
        assert_eq!(
            judge(&a, &s(105.0, &[104.0, 105.0, 106.0]), true, 0.08),
            Verdict::Ok
        );
        // 10 % slower: worse.
        assert_eq!(
            judge(&a, &s(110.0, &[109.0, 110.0, 111.0]), true, 0.08),
            Verdict::Worse
        );
        // Higher is better: 10 % fewer per second is worse, 10 % more is ok.
        assert_eq!(
            judge(&a, &s(90.0, &[89.0, 90.0, 91.0]), false, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &s(110.0, &[109.0, 110.0, 111.0]), false, 0.08),
            Verdict::Ok
        );
        // Spread of 20 % against an 8 % bound: unresolved ...
        let noisy = s(100.0, &[90.0, 100.0, 110.0]);
        assert_eq!(
            judge(&noisy, &s(101.0, &[95.0, 101.0, 108.0]), true, 0.08),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &s(80.0, &[70.0, 80.0, 89.0]), true, 0.08),
            Verdict::Ok
        );
        // A zero bound: any increase is worse, equality is ok.
        assert_eq!(
            judge(&s(4044.0, &[]), &s(4044.0, &[]), true, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(4044.0, &[]), &s(4045.0, &[]), true, 0.0),
            Verdict::Worse
        );
    }

    fn doc(qps: f64, digest: &str) -> Json {
        json::parse(&format!(
            r#"{{"workloads": [{{"workload": "w", "input_digest": "aa", "result_digest": "{digest}", "ops_failed": 0,
               "metrics": [
                 {{"name": "wall_qps", "value": {qps}, "direction": "higher", "bound": 0.1, "samples": [{qps}]}},
                 {{"name": "sim_workload_s", "value": 7.5, "direction": "lower", "bound": 0.25, "samples": []}},
                 {{"name": "opt.plan_arm_us_mean", "value": 40.0, "direction": "lower", "bound": null, "samples": []}}
               ]}}], "claim": null}}"#
        ))
        .unwrap()
    }

    #[test]
    fn documents_compare_per_workload_and_require_identical_digests() {
        let (rows, pass) = compare_docs(&doc(100.0, "d1"), &doc(95.0, "d1"));
        assert!(pass, "{rows:?}");
        assert!(rows
            .iter()
            .any(|r| r.contains("wall_qps") && r.ends_with("ok")));
        assert!(
            rows.iter().all(|r| !r.contains("opt.plan_arm_us_mean")),
            "unbounded metrics are not judged"
        );
        let (rows, pass) = compare_docs(&doc(100.0, "d1"), &doc(80.0, "d1"));
        assert!(!pass);
        assert!(rows
            .iter()
            .any(|r| r.contains("wall_qps") && r.ends_with("worse")));
        let (rows, pass) = compare_docs(&doc(100.0, "d1"), &doc(100.0, "d2"));
        assert!(!pass);
        assert!(rows
            .iter()
            .any(|r| r.contains("result_digest") && r.ends_with("DIFFERS")));
    }
}
