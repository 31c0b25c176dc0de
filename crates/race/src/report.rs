//! Coverage reporting: how many interleavings each suite actually
//! explored. Counts land in `results/race_report.json` (committed, so
//! coverage regressions show up in diffs).

use bao_common::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn report_path() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/race_report.json")
}

/// Record `interleavings` for `suite`, merging with whatever other suites
/// already wrote. Suites in one test binary may run on parallel test
/// threads, so the read-modify-write is serialized process-wide.
pub fn record_suite(suite: &str, interleavings: usize) {
    // bao-lint: allow(no-raw-sync) — checker internals are shim-exempt.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().expect("race report lock");

    let path = report_path();
    let mut entries: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(j) = json::parse(&text) {
            if let Some(suites) = j.get("race_interleavings_explored") {
                if let Json::Obj(fields) = suites {
                    for (k, v) in fields {
                        if let Some(n) = v.as_u64() {
                            entries.insert(k.clone(), n);
                        }
                    }
                }
            }
        }
    }
    entries.insert(suite.to_string(), interleavings as u64);

    let fields: Vec<(String, Json)> =
        entries.iter().map(|(k, v)| (k.clone(), Json::U(*v))).collect();
    let doc = Json::Obj(vec![(
        "race_interleavings_explored".to_string(),
        Json::Obj(fields),
    )]);
    // Test-only telemetry, not recoverable state; deliberately not WAL'd.
    // bao-lint: allow(no-unlogged-persistence)
    if let Err(e) = std::fs::write(&path, doc.to_string_pretty() + "\n") {
        // Diagnostics from a test-only reporting path; warn-only on purpose.
        // bao-lint: allow(no-println)
        println!("WARNING: could not write race report: {e}");
    }
}
