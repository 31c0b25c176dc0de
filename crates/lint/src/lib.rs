//! `bao-lint`: the workspace invariants the compiler cannot check.
//!
//! Most invariants (DESIGN.md §7) are clippy lints configured in the root
//! `clippy.toml`, `[workspace.lints]` and crate-root attributes. This
//! crate is a lightweight scanner over `crates/**/*.rs` and the root
//! `tests/` for the three that clippy cannot express ([`rules`]): no
//! allocation in a kernel's hot loop, no entropy-seeded randomness, and
//! no float `==`. A finding is waivable per site with
//! `// bao-lint: allow(<rule>)`.

#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod rules;
pub mod scan;

pub use rules::RuleId;

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
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule.name(), self.message)
    }
}

/// A full lint run over one workspace.
#[derive(Debug)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
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
    rel.split('/').any(|seg| seg == "target") || rel.starts_with("crates/lint/tests/fixtures")
}

/// Collect workspace-relative paths of every `.rs` file under `crates/`
/// and the root `tests/` (integration tests, so test code), in sorted
/// (deterministic) order.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut sources = Vec::new();
    let mut stack: Vec<PathBuf> =
        ["crates", "tests"].iter().map(|d| root.join(d)).filter(|d| d.is_dir()).collect();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            if skip_dir(&rel) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                sources.push(rel);
            }
        }
    }
    sources.sort();
    Ok(sources)
}

/// Run every rule over the workspace at `root`. Diagnostics come back
/// sorted by (path, line, rule) so output is reproducible.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let sources = collect_files(root)?;
    let mut diagnostics = Vec::new();
    for rel in &sources {
        let text = fs::read_to_string(root.join(rel))?;
        diagnostics.extend(rules::check_source(rel, &text, &RuleId::ALL));
    }
    diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(Report { files_scanned: sources.len(), diagnostics })
}
