//! The `bao-lint` binary: run the workspace's scanner lints over the
//! workspace containing the current directory.
//!
//! Exit status: 0 when clean, 1 when any diagnostic fired, 2 on usage or
//! I/O errors.

use bao_lint::{find_workspace_root, run};
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: bao-lint (takes no arguments)");
        return ExitCode::from(2);
    }
    let Some(root) = std::env::current_dir().ok().and_then(|d| find_workspace_root(&d)) else {
        eprintln!("bao-lint: could not locate a workspace root");
        return ExitCode::from(2);
    };
    let report = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bao-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.diagnostics {
        println!("{d}");
    }
    eprintln!(
        "bao-lint: {} file(s) scanned, {} finding(s)",
        report.files_scanned,
        report.diagnostics.len()
    );
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
