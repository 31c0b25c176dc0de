//! `bao-lint`: in-tree static analysis for the Bao workspace.
//!
//! Two layers of checks keep the learned-optimizer loop trustworthy:
//!
//! 1. **Source lints** ([`rules`]) — a lightweight scanner over
//!    `crates/**/*.rs` and the root `tests/` enforcing determinism and
//!    robustness invariants
//!    (no wall clock on the decision path, no order-nondeterministic maps
//!    where order leaks into features, no `unsafe`, no panics on the
//!    query path), waivable per-site with `// bao-lint: allow(<rule>)`.
//! 2. **Manifest scan** ([`manifest`]) — the hermeticity gate: every
//!    dependency in every `Cargo.toml` must be a local path crate.
//!
//! The plan-IR verifier (the dynamic half of the PR's correctness
//! tooling) lives in `bao_plan::verify`, where the plan types are; this
//! crate owns everything that can run without building the workspace.

pub mod manifest;
pub mod rules;
pub mod scan;

pub use rules::RuleId;

use bao_common::json::{Json, ToJson};
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: RuleId,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::Str(self.rule.name().to_string())),
            ("path", self.path.to_json()),
            ("line", self.line.to_json()),
            ("message", self.message.to_json()),
        ])
    }
}

/// A full lint run over one workspace.
#[derive(Debug)]
pub struct Report {
    /// Rules that ran.
    pub rules: Vec<RuleId>,
    /// Files scanned (sources + manifests).
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Per-rule finding counts in canonical rule order (zero included),
    /// for trend tracking across PRs.
    pub fn counts(&self) -> Vec<(RuleId, usize)> {
        self.rules
            .iter()
            .map(|&r| (r, self.diagnostics.iter().filter(|d| d.rule == r).count()))
            .collect()
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "rules",
                Json::Arr(
                    self.rules
                        .iter()
                        .map(|r| Json::Str(r.name().to_string()))
                        .collect(),
                ),
            ),
            ("files_scanned", self.files_scanned.to_json()),
            (
                "counts",
                Json::Obj(
                    self.counts()
                        .into_iter()
                        .map(|(r, n)| (r.name().to_string(), n.to_json()))
                        .collect(),
                ),
            ),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

/// Find the workspace root at or above `start`: the nearest directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

/// Directories never scanned: build output and the lint fixtures (which
/// contain violations on purpose).
fn skip_dir(rel: &str) -> bool {
    rel.split('/').any(|seg| seg == "target")
        || rel.starts_with("crates/lint/tests/fixtures")
}

/// Collect workspace-relative paths of every `.rs` file under `crates/`
/// and the root `tests/` (integration tests, so test code) plus every
/// manifest, in sorted (deterministic) order.
pub fn collect_files(root: &Path) -> std::io::Result<(Vec<String>, Vec<String>)> {
    let mut sources = Vec::new();
    let mut manifests = vec!["Cargo.toml".to_string()];
    let mut stack: Vec<PathBuf> =
        ["crates", "tests"].iter().map(|d| root.join(d)).filter(|d| d.is_dir()).collect();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if skip_dir(&rel) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                sources.push(rel);
            } else if rel.ends_with("/Cargo.toml") {
                manifests.push(rel);
            }
        }
    }
    sources.sort();
    manifests.sort();
    Ok((sources, manifests))
}

/// Run `rules` over the workspace at `root`. Diagnostics come back sorted
/// by (path, line, rule) so output and reports are reproducible.
pub fn run(root: &Path, rules: &[RuleId]) -> std::io::Result<Report> {
    let (sources, manifests) = collect_files(root)?;
    let source_rules: Vec<RuleId> = rules
        .iter()
        .copied()
        .filter(|r| *r != RuleId::HermeticManifest)
        .collect();
    let mut diagnostics = Vec::new();
    let mut files_scanned = 0usize;

    if !source_rules.is_empty() {
        for rel in &sources {
            let text = fs::read_to_string(root.join(rel))?;
            diagnostics.extend(rules::check_source(rel, &text, &source_rules));
            files_scanned += 1;
        }
    }
    if rules.contains(&RuleId::HermeticManifest) {
        for rel in &manifests {
            let text = fs::read_to_string(root.join(rel))?;
            diagnostics.extend(manifest::check_manifest(rel, &text));
            files_scanned += 1;
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    Ok(Report { rules: rules.to_vec(), files_scanned, diagnostics })
}
