//! Fixture-driven acceptance tests for bao-lint: each rule fires at the
//! exact expected lines, decoys in strings/comments/test code stay
//! silent, allow pragmas waive findings, and the workspace itself scans
//! clean.

use bao_lint::rules::check_source;
use bao_lint::RuleId;

/// Lines at which `rule` fires on `src` when checked as `path`.
fn lines_for(rule: RuleId, path: &str, src: &str) -> Vec<usize> {
    let diags = check_source(path, src, &[rule]);
    for d in &diags {
        assert_eq!(d.rule, rule);
        assert_eq!(d.path, path);
    }
    diags.iter().map(|d| d.line).collect()
}

#[test]
fn no_per_node_alloc_fires_at_exact_lines() {
    let src = include_str!("fixtures/no_per_node_alloc.rs");
    // Lines 7, 8: vec!/Vec::with_capacity inside the for body. The
    // hoisted alloc (4), string/comment decoys (16-17), the non-std
    // macro (19), the impl-for block (25), the pragma'd site (32), and
    // the test module (41) stay silent.
    assert_eq!(lines_for(RuleId::NoPerNodeAlloc, "crates/nn/src/param.rs", src), vec![7, 8]);
    assert_eq!(lines_for(RuleId::NoPerNodeAlloc, "crates/nn/src/layers.rs", src), vec![7, 8]);
    // Outside the kernel files the rule does not apply at all.
    assert_eq!(lines_for(RuleId::NoPerNodeAlloc, "crates/nn/src/net.rs", src), vec![]);
}

#[test]
fn no_unseeded_rng_fires_at_exact_lines() {
    let src = include_str!("fixtures/no_unseeded_rng.rs");
    // Lines 5-8: thread_rng / rand::random / from_entropy / RandomState.
    // Seeded draws (12-13), comment/string decoys (14-15), the lookalike
    // identifier (16), and the pragma'd site (18) stay silent; the
    // #[cfg(test)] module (25) still fires — the determinism suite must
    // be seeded too.
    assert_eq!(
        lines_for(RuleId::NoUnseededRng, "crates/core/src/fixture.rs", src),
        vec![5, 6, 7, 8, 25]
    );
    // No module is exempt: not the timing harness (which no-wall-clock
    // exempts) and not integration-test targets.
    assert_eq!(
        lines_for(RuleId::NoUnseededRng, "crates/bench/src/timing.rs", src),
        vec![5, 6, 7, 8, 25]
    );
    assert_eq!(
        lines_for(RuleId::NoUnseededRng, "crates/plan/tests/fixture.rs", src),
        vec![5, 6, 7, 8, 25]
    );
}

#[test]
fn no_float_eq_fires_at_exact_lines() {
    let src = include_str!("fixtures/no_float_eq.rs");
    // Lines 4-14 (every other): literal/suffixed/cast/const comparisons.
    // Integer comparisons (16-17, 19), compound operators (18), masked
    // decoys (20-21), the pragma'd sentinel (23), and the #[cfg(test)]
    // module (32, 34) stay silent.
    assert_eq!(
        lines_for(RuleId::NoFloatEq, "crates/core/src/fixture.rs", src),
        vec![4, 6, 8, 10, 12, 14]
    );
    // The rule applies workspace-wide — even the timing harness — but
    // integration-test targets are wholly test code.
    assert_eq!(
        lines_for(RuleId::NoFloatEq, "crates/bench/src/timing.rs", src),
        vec![4, 6, 8, 10, 12, 14]
    );
    assert_eq!(lines_for(RuleId::NoFloatEq, "crates/plan/tests/fixture.rs", src), vec![]);
}

/// The root `tests/` is walked, as test code: an unseeded `RandomState`
/// there is reported, while rules that spare tests stay silent.
#[test]
#[expect(clippy::disallowed_methods, reason = "builds a throwaway workspace to scan")]
fn root_tests_are_walked_as_test_code() {
    let src = include_str!("fixtures/no_unseeded_rng.rs");
    assert_eq!(lines_for(RuleId::NoUnseededRng, "tests/fixture.rs", src), vec![5, 6, 7, 8, 25]);
    let src = include_str!("fixtures/no_float_eq.rs");
    assert_eq!(lines_for(RuleId::NoFloatEq, "tests/fixture.rs", src), vec![]);

    // A workspace whose only source is a root test holding a RandomState.
    let root = std::env::temp_dir().join(format!("bao-lint-root-tests-{}", std::process::id()));
    std::fs::create_dir_all(root.join("tests")).expect("temp workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    std::fs::write(
        root.join("tests/seeded.rs"),
        "#[test]\nfn t() {\n    let s = std::collections::hash_map::RandomState::new();\n}\n",
    )
    .expect("test file");
    let report = bao_lint::run(&root);
    std::fs::remove_dir_all(&root).ok();
    let found: Vec<String> =
        report.expect("lint run").diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("tests/seeded.rs:3: [no-unseeded-rng]"), "{found:?}");
}

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = bao_lint::run(&root).expect("lint run");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has un-annotated lint findings:\n{}",
        report.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    // Sanity: the walk actually visited the workspace, not an empty dir.
    assert!(report.files_scanned > 100, "only {} files scanned", report.files_scanned);
}
