//! `baodb` — a SQL shell over the whole stack, with Bao integrated the way
//! the paper's §4 PostgreSQL extension is: per-session activation
//! (`SET enable_bao TO on/off`), EXPLAIN augmented with Bao's prediction
//! and recommended hint (advisor mode), and a live view of the bandit's
//! state.
//!
//! ```console
//! $ cargo run --release -p bao-bench --bin baodb
//! baodb=# SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id;
//! baodb=# EXPLAIN SELECT ...;
//! baodb=# EXPLAIN ANALYZE SELECT ...;  -- run it, then estimated vs true rows
//! baodb=# SET enable_bao TO on;
//! baodb=# \bao        -- bandit state
//! baodb=# \help
//! ```
//!
//! Meta commands: `\help`, `\tables`, `\bao`, `\timing`, `\q`.
//!
//! Non-interactive mode: `--script <file>` runs the statements from a
//! file through the same shell loop (no prompts) and ends with a
//! `script done: …` summary line.

use bao_bench::Args;
use bao_cloud::N1_16;
use bao_core::{Bao, BaoConfig, Selection};
use bao_exec::{execute, ExecutionMetrics};
use bao_opt::{HintSet, Optimizer};
use bao_plan::Query;
use bao_sql::{parse_statement, Statement};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_workloads::imdb::build_imdb_database;
use std::io::{BufRead, Write};

/// One session's state plus the counters of `--script`'s summary line.
struct Shell {
    db: Database,
    cat: StatsCatalog,
    opt: Optimizer,
    rates: bao_exec::ChargeRates,
    pool: BufferPool,
    bao: Bao,
    timing: bool,
    /// Partial statement accumulated until a terminating `;`.
    buffer: String,
    statements: u64,
    selects: u64,
    simulated_ms: f64,
}

/// What the caller should do after a line is handled.
enum Flow {
    Continue,
    Quit,
}

impl Shell {
    /// A session over `db` with the shell's Bao configuration: six arms,
    /// retraining every 25 queries, inactive until `SET enable_bao`.
    fn new(db: Database, seed: u64) -> Shell {
        Shell {
            cat: StatsCatalog::analyze(&db, 1_000, seed),
            opt: Optimizer::postgres(),
            rates: N1_16.charge_rates(),
            pool: BufferPool::new(N1_16.buffer_pool_pages()),
            bao: Bao::new(BaoConfig {
                arms: HintSet::top_arms(6),
                window_size: 2_000,
                retrain_interval: 25,
                cache_features: true,
                enabled: false, // like the paper: off until SET enable_bao TO on
                seed,
                ..BaoConfig::default()
            }),
            timing: true,
            buffer: String::new(),
            statements: 0,
            selects: 0,
            simulated_ms: 0.0,
            db,
        }
    }

    fn handle_line(&mut self, line: &str) -> Flow {
        let line = line.trim();
        if line.is_empty() || (self.buffer.is_empty() && line.starts_with("--")) {
            return Flow::Continue;
        }
        // Meta commands act immediately.
        if self.buffer.is_empty() && line.starts_with('\\') {
            match line.trim_end_matches(';') {
                "\\q" => return Flow::Quit,
                "\\timing" => {
                    self.timing = !self.timing;
                    println!("timing {}", if self.timing { "on" } else { "off" });
                }
                "\\tables" => {
                    for t in self.db.table_names() {
                        let st = self.db.by_name(t).expect("listed table exists");
                        println!(
                            "  {t}: {} rows, {} pages, indexes on [{}]",
                            st.table.row_count(),
                            st.table.n_pages(),
                            st.indexes
                                .iter()
                                .map(|i| i.index.column.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                    }
                }
                "\\bao" => {
                    println!(
                        "enabled: {} | model: {} (fitted: {}) | arms: {} | experience: {} | retrains: {}",
                        self.bao.cfg.enabled,
                        self.bao.model_name(),
                        self.bao.is_model_fitted(),
                        self.bao.cfg.arms.len(),
                        self.bao.experience_len(),
                        self.bao.retrains(),
                    );
                }
                _ => println!("meta commands: \\help \\tables \\bao \\timing \\q"),
            }
            return Flow::Continue;
        }
        // SET enable_bao TO on/off (paper §4 per-session activation).
        if self.buffer.is_empty() {
            let lower = line.to_ascii_lowercase();
            if let Some(rest) = lower.strip_prefix("set enable_bao to ") {
                self.bao.cfg.enabled = rest.trim_end_matches(';').trim() == "on";
                println!(
                    "SET (Bao {})",
                    if self.bao.cfg.enabled { "active" } else { "advisor-only" }
                );
                return Flow::Continue;
            }
        }
        // Accumulate until a semicolon terminates the statement.
        self.buffer.push_str(line);
        self.buffer.push(' ');
        if !line.ends_with(';') {
            return Flow::Continue;
        }
        let sql = std::mem::take(&mut self.buffer);
        self.statements += 1;
        match parse_statement(&sql) {
            Err(e) => println!("ERROR: {e}"),
            Ok(Statement::Explain(q)) => {
                if self.bao.is_model_fitted() {
                    match self.bao.advise(&self.opt, &q, &self.db, &self.cat, Some(&self.pool)) {
                        Ok(advice) => print!("{}", advice.render()),
                        Err(e) => println!("ERROR: {e}"),
                    }
                } else {
                    // No model yet: plain EXPLAIN.
                    match self.opt.plan(&q, &self.db, &self.cat, HintSet::all_enabled()) {
                        Ok(p) => print!("{}", p.root.explain()),
                        Err(e) => println!("ERROR: {e}"),
                    }
                }
            }
            Ok(Statement::Select(q)) => {
                let timing = self.timing;
                self.run(&q, |sel, m| {
                    for row in m.output.iter().take(25) {
                        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                        println!(" {}", cells.join(" | "));
                    }
                    if m.output.len() > 25 {
                        println!(" ... ({} rows)", m.rows_out);
                    } else {
                        println!("({} row{})", m.rows_out, if m.rows_out == 1 { "" } else { "s" });
                    }
                    if timing {
                        println!(
                            "Time: {:.3} ms simulated ({} physical reads, arm {}: {})",
                            m.latency.as_ms(),
                            m.page_misses,
                            sel.arm,
                            sel.hints
                        );
                    }
                })
            }
            Ok(Statement::ExplainAnalyze(q)) => {
                self.run(&q, |sel, m| print!("{}", explain_analyze(sel, m)))
            }
        }
        Flow::Continue
    }

    /// What `SELECT` and `EXPLAIN ANALYZE` share: choose the arm, execute
    /// its plan, `show` the outcome, then feed it back to Bao.
    fn run(&mut self, q: &Query, show: impl FnOnce(&Selection, &ExecutionMetrics)) {
        let sel = match self.bao.select_plan(&self.opt, q, &self.db, &self.cat, Some(&self.pool)) {
            Ok(s) => s,
            Err(e) => {
                println!("ERROR: {e}");
                return;
            }
        };
        let m = match execute(&sel.plan, q, &self.db, &mut self.pool, &self.opt.params, &self.rates)
        {
            Ok(m) => m,
            Err(e) => {
                println!("ERROR: {e}");
                return;
            }
        };
        show(&sel, &m);
        self.selects += 1;
        self.simulated_ms += m.latency.as_ms();
        self.bao.observe(sel.tree, m.latency.as_ms());
    }
}

/// `EXPLAIN ANALYZE` output: the executed plan in pre-order, each node's
/// estimated rows beside its true rows and their q-error, then the arm
/// that chose it, the other arms that planned the same tree, how many
/// distinct plans the planned arms had, and the simulated latency.
fn explain_analyze(sel: &Selection, m: &ExecutionMetrics) -> String {
    let others: Vec<String> =
        sel.same_plan_arms.iter().filter(|&&a| a != sel.arm).map(|a| a.to_string()).collect();
    let shared = match others.is_empty() {
        true => String::new(),
        false => format!("shared with {}; ", others.join(", ")),
    };
    let s = |n: usize| if n == 1 { "" } else { "s" };
    format!(
        "{}arm {} ({shared}{} distinct plan{} among {} arm{}): {} | {:.3} ms simulated\n",
        sel.plan.explain_analyze(&m.node_true_rows),
        sel.arm,
        sel.distinct_plans,
        s(sel.distinct_plans),
        sel.arms_planned,
        s(sel.arms_planned),
        sel.hints,
        m.latency.as_ms()
    )
}

fn main() {
    let args = Args::from_env();
    let scale = args.scale(0.1);
    let seed = args.seed();
    let script = args.string("script", "");

    eprintln!("loading IMDb-like database (scale {scale})...");
    let db = build_imdb_database(scale, seed).expect("build database");
    let table_names = db.table_names().join(", ");
    let mut shell = Shell::new(db, seed);

    if !script.is_empty() {
        // Non-interactive: run the script through the same loop.
        let text = match std::fs::read_to_string(&script) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read script {script}: {e}");
                std::process::exit(2);
            }
        };
        for line in text.lines() {
            if let Flow::Quit = shell.handle_line(line) {
                break;
            }
        }
        println!(
            "\nscript done: {} statements, {} selects, {:.3} ms simulated",
            shell.statements, shell.selects, shell.simulated_ms
        );
        return;
    }

    eprintln!(
        "tables: {table_names}. Bao is OFF (observing only); `SET enable_bao TO on` to activate. \\help for help."
    );
    let stdin = std::io::stdin();
    loop {
        if shell.buffer.is_empty() {
            eprint!("baodb=# ");
        } else {
            eprint!("baodb-# ");
        }
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        if let Flow::Quit = shell.handle_line(&line) {
            break;
        }
    }
    eprintln!("bye");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the `EXPLAIN ANALYZE` in `sql` in a fresh shell; with `fitted`,
    /// after three runs of its query under an active Bao and a retrain,
    /// so the statement goes through the six-arm family.
    fn run_explain_analyze(sql: &str, fitted: bool) -> (String, Shell, Query, Selection) {
        let db = build_imdb_database(0.02, 3).expect("build database");
        let mut shell = Shell::new(db, 3);
        let Ok(Statement::ExplainAnalyze(q)) = parse_statement(sql) else {
            panic!("not an EXPLAIN ANALYZE: {sql}");
        };
        if fitted {
            shell.bao.cfg.enabled = true;
            for _ in 0..3 {
                shell.run(&q, |_, _| {});
            }
            shell.bao.retrain_now();
        }
        let before = shell.selects;
        let mut out = None;
        shell.run(&q, |sel, m| {
            assert_eq!(m.node_true_rows.len(), sel.plan.node_count());
            out = Some((explain_analyze(sel, m), sel.clone()));
        });
        assert_eq!(shell.selects, before + 1, "EXPLAIN ANALYZE runs the query like SELECT");
        let (text, sel) = out.expect("the statement ran");
        (text, shell, q, sel)
    }

    /// The value after `key=` on a rendered plan line.
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let rest = &line[line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len()..];
        rest.split([' ', ')']).next().unwrap_or("")
    }

    #[test]
    fn explain_analyze_shows_estimates_truth_and_q_error_per_node() {
        let (text, shell, q, sel) = run_explain_analyze(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM title t, cast_info ci, person p \
             WHERE t.id = ci.movie_id AND ci.person_id = p.id AND t.production_year >= 2010;",
            true,
        );
        let lines: Vec<&str> = text.lines().collect();
        let (last, plan) = lines.split_last().expect("output");
        assert!(plan.len() >= 5, "three scans, two joins, an aggregate:\n{text}");
        assert!(plan[0].starts_with("Aggregate") && field(plan[0], "true rows=") == "1", "{text}");
        assert_eq!(plan.iter().filter(|l| l.contains("Scan on")).count(), 3, "{text}");
        for line in plan {
            let est: f64 = field(line, "est rows=").parse().expect("est rows");
            let truth: f64 = field(line, "true rows=").parse().expect("true rows");
            let q: f64 = field(line, "q-error=").parse().expect("q-error");
            // `est rows` is printed rounded: allow its half-row.
            let want = bao_common::stats::qerror(est, truth);
            assert!(q >= 1.0 && (q - want).abs() <= want * (0.5 / est.max(1.0) + 0.005), "{line}");
        }
        // The footer's arm sharing, against planning every arm directly.
        let Shell { opt, db, cat, .. } = &shell;
        let plans: Vec<_> = (shell.bao.cfg.arms.iter())
            .map(|&hints| {
                let mut root = opt.plan(&q, db, cat, hints).expect("plan").root;
                bao_opt::annotate_estimates(&mut root, &q, db, cat, opt.estimator(), &opt.params)
                    .expect("annotate");
                root
            })
            .collect();
        assert_eq!(plans.len(), 6);
        let shared: Vec<String> = (0..6)
            .filter(|&a| a != sel.arm && plans[a] == plans[sel.arm])
            .map(|a| a.to_string())
            .collect();
        let shared = match shared.is_empty() {
            true => String::new(),
            false => format!("shared with {}; ", shared.join(", ")),
        };
        let distinct = (0..6).filter(|&a| !plans[..a].contains(&plans[a])).count();
        let plural = if distinct == 1 { "" } else { "s" };
        let arm = sel.arm;
        let want = format!("arm {arm} ({shared}{distinct} distinct plan{plural} among 6 arms): ");
        assert!(last.starts_with(&want) && last.ends_with(" ms simulated"), "{last}\nwant {want}");
    }

    #[test]
    fn explain_analyze_counts_an_empty_result_as_one_row() {
        let (text, ..) = run_explain_analyze(
            "EXPLAIN ANALYZE SELECT t.id FROM title t WHERE t.production_year > 2100;",
            false,
        );
        // An unfitted model plans arm 0 alone.
        let last = text.lines().last().expect("footer");
        assert!(last.starts_with("arm 0 (1 distinct plan among 1 arm): "), "{text}");
        let root = text.lines().next().expect("plan");
        assert_eq!(field(root, "true rows="), "0", "{text}");
        let est: f64 = field(root, "est rows=").parse().expect("est rows");
        let q: f64 = field(root, "q-error=").parse().expect("q-error");
        assert!((q - est.max(1.0)).abs() <= 0.5 + 0.005 * est.max(1.0), "{text}");
    }
}
