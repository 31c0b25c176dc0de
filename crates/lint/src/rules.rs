//! The lint rules: project invariants the Bao workspace must uphold.
//!
//! Each rule enforces a property the bandit loop silently depends on:
//!
//! * `no-wall-clock` — plan choice and training data must never depend on
//!   wall time; `Instant::now` / `SystemTime` are confined to
//!   `bao_bench::timing` and explicitly annotated telemetry sites.
//! * `no-hash-iter-order` — `HashMap`/`HashSet` iteration order is
//!   nondeterministic across builds; in the crates whose data flows into
//!   plan shape, arm ordering, or feature vectors (`plan`, `optimizer`,
//!   `models`, `nn`) ordered containers (`BTreeMap`/`BTreeSet`) or an
//!   annotation are required.
//! * `no-unsafe` — `unsafe` is denied outside the one audited site in
//!   `bao_common::json`.
//! * `no-panic-path` — `unwrap()` / `expect(` / `panic!` are denied in the
//!   non-test query path (`core`, `optimizer`, `executor`, `plan`).
//! * `no-per-node-alloc` — the batched compute kernels (`bao_nn::param`,
//!   `bao_nn::layers`) must hoist scratch buffers out of their hot loops;
//!   `vec![` / `Vec::with_capacity` inside a `for` body there is a
//!   per-node allocation the batching work exists to eliminate.
//! * `no-unseeded-rng` — every random draw must trace back to an explicit
//!   seed (`bao_common::rng_from_seed` / `split_seed`); entropy-seeded
//!   sources (`thread_rng`, `from_entropy`, `rand::random`, std's
//!   `RandomState`) would silently break replay, the serving-equivalence
//!   suite, and Thompson-sampling reproducibility. Applies everywhere,
//!   tests included — the determinism suite is itself seeded.
//! * `no-float-eq` — `==` / `!=` against a float expression (a float
//!   literal, an `as f64`/`as f32` cast, or an `f64::`/`f32::` constant)
//!   is almost always a rounding bug waiting to happen; compare with an
//!   epsilon, `total_cmp`, or `to_bits`. Intentional exact comparisons
//!   (sparsity fast paths in the kernels) carry an annotation. Test code
//!   is exempt — asserting exact reproducibility is the point there.
//! * `no-println` — `println!` / `eprintln!` are confined to binaries
//!   (`src/bin/`, `main.rs`) and the bench/report crate; library crates
//!   must surface information through return values, reports, or errors
//!   — a stray print in the query path garbles experiment output and is
//!   invisible to callers.
//! * `no-unpinned-pool-width` — threads are spawned (`.spawn(`) only by
//!   the workspace pool (`bao_common::pool::run_jobs`, under arm planning
//!   and the executor's fan-outs) and `bao_nn::train`'s persistent
//!   helpers. Both take their width from `bao_common::pool::resolve_width`,
//!   so a spawn anywhere else is a pool whose width nothing controls: it
//!   would oversubscribe the host beside the two that size themselves to
//!   it.
//! * `no-unlogged-persistence` — durable state must flow through the WAL
//!   (DESIGN.md §14): direct `std::fs` writes (`fs::write`,
//!   `fs::create_dir`, `File::create`, `OpenOptions`) are denied outside
//!   `bao-wal` itself and binaries. A library crate persisting state on
//!   the side would survive a crash invisibly to recovery — exactly the
//!   split-brain the log exists to prevent.
//! * `hermetic-manifest` — every manifest dependency must be a local
//!   `path` crate (see [`crate::manifest`]).
//!
//! Any finding can be waived in place with `// bao-lint: allow(<rule>)`
//! on the offending line or the line above, or file-wide with
//! `// bao-lint: allow-file(<rule>)`.

use crate::scan::{mask, MaskedSource};
use crate::Diagnostic;

/// Identifiers of every lint rule, in canonical (report) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    NoWallClock,
    NoHashIterOrder,
    NoUnsafe,
    NoPanicPath,
    NoPerNodeAlloc,
    NoUnseededRng,
    NoFloatEq,
    NoPrintln,
    NoUnpinnedPoolWidth,
    NoUnloggedPersistence,
    HermeticManifest,
}

impl RuleId {
    pub const ALL: [RuleId; 11] = [
        RuleId::NoWallClock,
        RuleId::NoHashIterOrder,
        RuleId::NoUnsafe,
        RuleId::NoPanicPath,
        RuleId::NoPerNodeAlloc,
        RuleId::NoUnseededRng,
        RuleId::NoFloatEq,
        RuleId::NoPrintln,
        RuleId::NoUnpinnedPoolWidth,
        RuleId::NoUnloggedPersistence,
        RuleId::HermeticManifest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoWallClock => "no-wall-clock",
            RuleId::NoHashIterOrder => "no-hash-iter-order",
            RuleId::NoUnsafe => "no-unsafe",
            RuleId::NoPanicPath => "no-panic-path",
            RuleId::NoPerNodeAlloc => "no-per-node-alloc",
            RuleId::NoUnseededRng => "no-unseeded-rng",
            RuleId::NoFloatEq => "no-float-eq",
            RuleId::NoPrintln => "no-println",
            RuleId::NoUnpinnedPoolWidth => "no-unpinned-pool-width",
            RuleId::NoUnloggedPersistence => "no-unlogged-persistence",
            RuleId::HermeticManifest => "hermetic-manifest",
        }
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == s)
    }

    /// One-line description shown by `bao-lint --list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::NoWallClock => {
                "Instant::now/SystemTime outside bao_bench::timing (determinism)"
            }
            RuleId::NoHashIterOrder => {
                "HashMap/HashSet in plan/optimizer/models/nn (iteration order)"
            }
            RuleId::NoUnsafe => "unsafe outside the audited bao_common::json site",
            RuleId::NoPanicPath => {
                "unwrap()/expect()/panic! on the non-test query path"
            }
            RuleId::NoPerNodeAlloc => {
                "vec!/Vec::with_capacity inside a for loop in an nn kernel file"
            }
            RuleId::NoUnseededRng => {
                "entropy-seeded randomness (thread_rng/from_entropy/RandomState)"
            }
            RuleId::NoFloatEq => {
                "==/!= on a float expression outside tests (epsilon/total_cmp)"
            }
            RuleId::NoPrintln => {
                "println!/eprintln! outside binaries and the bench crate"
            }
            RuleId::NoUnpinnedPoolWidth => {
                ".spawn( outside bao_common::pool and bao_nn::train (pool width)"
            }
            RuleId::NoUnloggedPersistence => {
                "direct std::fs writes outside bao-wal and binaries (use the WAL)"
            }
            RuleId::HermeticManifest => "non-path dependency in a Cargo.toml",
        }
    }
}

/// Crates whose iteration order can leak into plan shape, arm ordering,
/// or feature vectors.
const ORDER_SENSITIVE_CRATES: [&str; 4] =
    ["crates/plan/", "crates/optimizer/", "crates/models/", "crates/nn/"];

/// Crates forming the query path for `no-panic-path`.
const QUERY_PATH_CRATES: [&str; 4] =
    ["crates/core/", "crates/optimizer/", "crates/executor/", "crates/plan/"];

/// The batched compute kernels: hot loops there must not allocate.
const KERNEL_FILES: [&str; 2] =
    ["crates/nn/src/param.rs", "crates/nn/src/layers.rs"];

/// The one module allowed to read the wall clock: the timing harness.
const WALL_CLOCK_ALLOWED: &str = "crates/bench/src/timing.rs";

/// The one audited `unsafe` site.
const UNSAFE_ALLOWED: &str = "crates/common/src/json.rs";

/// The files that may spawn threads: the workspace pool and the
/// trainer's persistent helpers.
const SPAWN_ALLOWED_FILES: [&str; 2] = ["crates/common/src/pool.rs", "crates/nn/src/train.rs"];

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Does the source-file rule `rule` apply to `path` (workspace-relative,
/// `/`-separated) at all?
pub fn applies_to(rule: RuleId, path: &str) -> bool {
    match rule {
        RuleId::NoWallClock => path != WALL_CLOCK_ALLOWED,
        RuleId::NoHashIterOrder => in_any(path, &ORDER_SENSITIVE_CRATES),
        RuleId::NoUnsafe => path != UNSAFE_ALLOWED,
        RuleId::NoPanicPath => in_any(path, &QUERY_PATH_CRATES),
        RuleId::NoPerNodeAlloc => KERNEL_FILES.contains(&path),
        // Seeded randomness is a workspace-wide invariant: tests and
        // benches replay too, so nothing is exempt.
        RuleId::NoUnseededRng => true,
        // Float comparisons are a workspace-wide hazard; test regions are
        // carved out by `skips_test_code` instead of a path scope.
        RuleId::NoFloatEq => true,
        // Printing belongs to binaries (`src/bin/`, `main.rs`) and the
        // bench/report crate; library code must stay silent.
        RuleId::NoPrintln => {
            !(path.starts_with("crates/bench/")
                || path.contains("/bin/")
                || path.ends_with("/main.rs"))
        }
        // Threads come from the two pools that size themselves to the host.
        RuleId::NoUnpinnedPoolWidth => !SPAWN_ALLOWED_FILES.contains(&path),
        // Durable writes belong to the WAL. The log implementation and
        // binaries (shells, report writers) are the legitimate
        // persistence sites.
        RuleId::NoUnloggedPersistence => {
            !(path.starts_with("crates/wal/")
                || path.contains("/bin/")
                || path.ends_with("/main.rs"))
        }
        RuleId::HermeticManifest => false, // manifest rule, not a source rule
    }
}

/// Does `rule` skip lines inside `#[cfg(test)]` / `#[test]` regions?
fn skips_test_code(rule: RuleId) -> bool {
    matches!(
        rule,
        RuleId::NoPanicPath
            | RuleId::NoHashIterOrder
            | RuleId::NoPerNodeAlloc
            | RuleId::NoFloatEq
            | RuleId::NoPrintln
            | RuleId::NoUnpinnedPoolWidth
            | RuleId::NoUnloggedPersistence
    )
}

/// Does `rule` only fire on lines inside a `for` loop body?
fn only_in_loops(rule: RuleId) -> bool {
    matches!(rule, RuleId::NoPerNodeAlloc)
}

/// Is the whole file test code (an integration-test target, in a crate
/// or the root `tests/`), outside any crate's shipped library?
fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// The token patterns one rule hunts for.
fn patterns(rule: RuleId) -> &'static [Pattern] {
    match rule {
        RuleId::NoWallClock => &[
            Pattern { needle: "Instant::now", word: true },
            Pattern { needle: "SystemTime", word: true },
        ],
        RuleId::NoHashIterOrder => &[
            Pattern { needle: "HashMap", word: true },
            Pattern { needle: "HashSet", word: true },
        ],
        RuleId::NoUnsafe => &[Pattern { needle: "unsafe", word: true }],
        RuleId::NoPanicPath => &[
            Pattern { needle: ".unwrap()", word: false },
            Pattern { needle: ".expect(", word: false },
            Pattern { needle: "panic!", word: true },
        ],
        RuleId::NoPerNodeAlloc => &[
            Pattern { needle: "vec![", word: true },
            Pattern { needle: "Vec::with_capacity", word: true },
        ],
        RuleId::NoUnseededRng => &[
            Pattern { needle: "thread_rng", word: true },
            Pattern { needle: "from_entropy", word: true },
            Pattern { needle: "rand::random", word: true },
            Pattern { needle: "RandomState", word: true },
        ],
        // no-float-eq needs operand analysis, not a literal needle; see
        // `has_float_eq`.
        RuleId::NoFloatEq => &[],
        RuleId::NoPrintln => &[
            Pattern { needle: "println!", word: true },
            Pattern { needle: "eprintln!", word: true },
        ],
        RuleId::NoUnpinnedPoolWidth => &[Pattern { needle: ".spawn(", word: false }],
        RuleId::NoUnloggedPersistence => &[
            Pattern { needle: "fs::write", word: true },
            Pattern { needle: "fs::create_dir", word: false },
            Pattern { needle: "File::create", word: false },
            Pattern { needle: "OpenOptions", word: true },
        ],
        RuleId::HermeticManifest => &[],
    }
}

/// Is `tok` a float-typed token: a float literal (`0.5`, `1_000.25`), a
/// suffixed literal (`1f64`, `2.5f32`), or an `f64::`/`f32::` const path
/// (`f64::EPSILON`, `std::f32::consts::PI`)?
fn is_float_token(tok: &str) -> bool {
    if tok.is_empty() {
        return false;
    }
    if tok.contains("f64::") || tok.contains("f32::") {
        return true;
    }
    let (digits, suffixed) = match tok.strip_suffix("f64").or_else(|| tok.strip_suffix("f32")) {
        Some(rest) => (rest, true),
        None => (tok, false),
    };
    if digits.is_empty()
        || !digits.chars().all(|c| c.is_ascii_digit() || c == '_' || c == '.')
        || !digits.chars().any(|c| c.is_ascii_digit())
    {
        return false;
    }
    if suffixed {
        return true; // 1f64, 2.5f32
    }
    // A bare literal needs a decimal point directly after a digit, so
    // tuple-field access (`x.0`) and integers stay silent.
    let b = digits.as_bytes();
    (1..b.len()).any(|i| b[i] == b'.' && b[i - 1].is_ascii_digit())
}

/// Trailing operand token of the text left of the operator.
fn trailing_token(text: &str) -> &str {
    let t = text.trim_end();
    let mut start = t.len();
    for (i, c) in t.char_indices().rev() {
        if is_ident(c) || c == '.' || c == ':' {
            start = i;
        } else {
            break;
        }
    }
    &t[start..]
}

/// Leading operand token of the text right of the operator.
fn leading_token(text: &str) -> &str {
    let mut end = 0;
    for (i, c) in text.char_indices() {
        if is_ident(c) || c == '.' || c == ':' {
            end = i + c.len_utf8();
        } else {
            break;
        }
    }
    &text[..end]
}

/// Is the expression ending at the operator float-typed (as far as a
/// line-local scan can tell)?
fn left_is_float(text: &str) -> bool {
    let t = text.trim_end();
    // `<expr> as f64 ==` — a cast right before the operator.
    if let Some(head) = t.strip_suffix("f64").or_else(|| t.strip_suffix("f32")) {
        let head = head.trim_end();
        if let Some(h) = head.strip_suffix("as") {
            if h.chars().next_back().is_some_and(|c| !is_ident(c)) {
                return true;
            }
        }
    }
    is_float_token(trailing_token(t))
}

/// Is the expression starting after the operator float-typed?
fn right_is_float(text: &str) -> bool {
    let t = text.trim_start();
    let t = t.strip_prefix('-').unwrap_or(t).trim_start();
    let tok = leading_token(t);
    if is_float_token(tok) {
        return true;
    }
    // `== <expr> as f64` — a cast right after the first operand.
    let rest = t[tok.len()..].trim_start();
    rest.starts_with("as f64") || rest.starts_with("as f32")
}

/// Does this (masked) line compare a float expression with `==` / `!=`?
/// Only the tokens adjacent to each operator are examined, so integer
/// comparisons sitting next to float arithmetic (`n == 0` on a line that
/// later mentions `0.0`) stay silent.
fn has_float_eq(line: &str) -> bool {
    let b = line.as_bytes();
    let mut i = 0;
    while i + 1 < b.len() {
        let eq = b[i] == b'=' && b[i + 1] == b'=';
        let ne = b[i] == b'!' && b[i + 1] == b'=';
        if !(eq || ne) {
            i += 1;
            continue;
        }
        // `<=`, `>=`, `=>` never produce a bare `==`; but guard against
        // scanning the tail of `===`-like runs and `!==` typo-land.
        if eq && i > 0 && matches!(b[i - 1], b'=' | b'!' | b'<' | b'>') {
            i += 1;
            continue;
        }
        // Both indices sit on ASCII bytes, so the slices are char-safe.
        if left_is_float(&line[..i]) || right_is_float(&line[i + 2..]) {
            return true;
        }
        i += 2;
    }
    false
}

/// A literal token to search for in masked code.
struct Pattern {
    needle: &'static str,
    /// Require identifier boundaries around the match.
    word: bool,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// All match positions of `p` in `line`, honouring word boundaries. A
/// boundary is only demanded on ends of the needle that are themselves
/// identifier characters (so `vec![` needs a boundary before `vec` but
/// accepts any character after the `[`).
fn find_matches(line: &str, p: &Pattern) -> bool {
    let needs_before = p.needle.chars().next().is_some_and(is_ident);
    let needs_after = p.needle.chars().next_back().is_some_and(is_ident);
    let mut from = 0;
    while let Some(pos) = line[from..].find(p.needle) {
        let at = from + pos;
        if !p.word {
            return true;
        }
        let before_ok = !needs_before
            || at == 0
            || !is_ident(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + p.needle.len()..].chars().next();
        let after_ok = !needs_after || !after.is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + p.needle.len();
    }
    false
}

/// Lint one already-masked source file against the source rules in
/// `rules`. `path` must be workspace-relative with `/` separators; rule
/// scoping (which crates a rule covers) is applied here.
pub fn check_masked(
    path: &str,
    masked: &MaskedSource,
    rules: &[RuleId],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &rule in rules {
        if !applies_to(rule, path) {
            continue;
        }
        let skip_tests = skips_test_code(rule);
        if skip_tests && is_test_file(path) {
            continue;
        }
        let loops_only = only_in_loops(rule);
        for (idx, line) in masked.lines.iter().enumerate() {
            let line_no = idx + 1;
            if skip_tests && masked.is_test_line(line_no) {
                continue;
            }
            if loops_only && !masked.is_loop_line(line_no) {
                continue;
            }
            if rule == RuleId::NoFloatEq {
                if has_float_eq(line) && !masked.is_allowed(rule.name(), line_no) {
                    out.push(Diagnostic {
                        rule,
                        path: path.to_string(),
                        line: line_no,
                        message: "float `==`/`!=` comparison (use an epsilon, \
                                  total_cmp, or to_bits)"
                            .to_string(),
                    });
                }
                continue;
            }
            for p in patterns(rule) {
                if find_matches(line, p) {
                    if masked.is_allowed(rule.name(), line_no) {
                        continue;
                    }
                    out.push(Diagnostic {
                        rule,
                        path: path.to_string(),
                        line: line_no,
                        message: format!("`{}` is forbidden here", p.needle.trim_matches('.')),
                    });
                }
            }
        }
    }
    out
}

/// Lint one source file (masking included). Entry point for tests and the
/// workspace walker.
pub fn check_source(path: &str, src: &str, rules: &[RuleId]) -> Vec<Diagnostic> {
    check_masked(path, &mask(src), rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn scoping_matches_spec() {
        assert!(applies_to(RuleId::NoPanicPath, "crates/executor/src/exec.rs"));
        assert!(!applies_to(RuleId::NoPanicPath, "crates/bench/src/cli.rs"));
        assert!(applies_to(RuleId::NoHashIterOrder, "crates/nn/src/net.rs"));
        assert!(!applies_to(RuleId::NoHashIterOrder, "crates/executor/src/exec.rs"));
        assert!(!applies_to(RuleId::NoWallClock, "crates/bench/src/timing.rs"));
        assert!(applies_to(RuleId::NoWallClock, "crates/core/src/bao.rs"));
        assert!(!applies_to(RuleId::NoUnsafe, "crates/common/src/json.rs"));
        assert!(applies_to(RuleId::NoPerNodeAlloc, "crates/nn/src/param.rs"));
        assert!(applies_to(RuleId::NoPerNodeAlloc, "crates/nn/src/layers.rs"));
        assert!(!applies_to(RuleId::NoPerNodeAlloc, "crates/nn/src/net.rs"));
        // Seeded randomness is workspace-wide: even the wall-clock-exempt
        // timing harness is in scope.
        assert!(applies_to(RuleId::NoUnseededRng, "crates/bench/src/timing.rs"));
        assert!(applies_to(RuleId::NoUnseededRng, "crates/nn/src/train.rs"));
    }

    #[test]
    fn word_boundaries_respected() {
        // `MyHashMap` and `HashMapLike` are not the std type.
        let d = check_source(
            "crates/plan/src/x.rs",
            "type A = MyHashMap; struct HashMapLike;\n",
            &[RuleId::NoHashIterOrder],
        );
        assert!(d.is_empty(), "{d:?}");
        let d = check_source(
            "crates/plan/src/x.rs",
            "use std::collections::HashMap;\n",
            &[RuleId::NoHashIterOrder],
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn per_node_alloc_flagged_only_inside_loops() {
        let src = "fn kernel(n: usize) {\n\
                   let scratch = vec![0.0f32; n];\n\
                   for i in 0..n {\n\
                       let tmp = vec![0.0f32; 4];\n\
                       let mut out = Vec::with_capacity(i);\n\
                       out.push(tmp[0]);\n\
                   }\n\
                   }\n";
        let d = check_source("crates/nn/src/param.rs", src, &[RuleId::NoPerNodeAlloc]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert_eq!(d[1].line, 5);
        // Outside the kernel files the rule does not apply at all.
        let d = check_source("crates/nn/src/train.rs", src, &[RuleId::NoPerNodeAlloc]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn per_node_alloc_pragma_and_impl_for() {
        let src = "fn f() {\n\
                   for i in 0..3 {\n\
                       // bao-lint: allow(no-per-node-alloc)\n\
                       let v = vec![0; i];\n\
                   }\n\
                   }\n\
                   impl Clone for Foo {\n\
                   fn clone(&self) -> Foo { Foo { w: vec![0; 1] } }\n\
                   }\n";
        let d = check_source("crates/nn/src/layers.rs", src, &[RuleId::NoPerNodeAlloc]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn per_node_alloc_respects_word_boundary() {
        let d = check_source(
            "crates/nn/src/param.rs",
            "fn f() { for i in 0..3 { myvec![i]; } }\n",
            &[RuleId::NoPerNodeAlloc],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unpinned_pool_width_flags_literal_loop_spawns() {
        // A private pool in the executor, hard-coded to 4 workers: the
        // exact thing the rule hunts.
        let pool = "fn pool() {\n\
                    for _ in 0..4 {\n\
                        scope.spawn(move || work());\n\
                    }\n\
                    }\n";
        let d = check_source("crates/executor/src/par.rs", pool, &[RuleId::NoUnpinnedPoolWidth]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);

        // So does any other spawn there, loop or not.
        let single = "fn one() { let h = scope.spawn(f); h.join(); }\n";
        let d = check_source("crates/core/src/bao.rs", single, &[RuleId::NoUnpinnedPoolWidth]);
        assert_eq!(d.len(), 1, "{d:?}");

        // The same text where threads are allowed to come from: clean.
        for allowed in ["crates/common/src/pool.rs", "crates/nn/src/train.rs"] {
            let d = check_source(allowed, pool, &[RuleId::NoUnpinnedPoolWidth]);
            assert!(d.is_empty(), "{allowed}: {d:?}");
        }

        // Test code is exempt.
        let in_test = "#[cfg(test)]\n\
                       mod tests {\n\
                       fn t() { s.spawn(f); }\n\
                       }\n";
        let d =
            check_source("crates/core/src/bao.rs", in_test, &[RuleId::NoUnpinnedPoolWidth]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unlogged_persistence_flags_library_fs_writes() {
        let src = "fn save(p: &std::path::Path) {\n\
                   std::fs::write(p, b\"x\").unwrap();\n\
                   std::fs::create_dir_all(p).unwrap();\n\
                   let f = std::fs::File::create(p).unwrap();\n\
                   let o = std::fs::OpenOptions::new().append(true).open(p);\n\
                   }\n";
        let d = check_source(
            "crates/core/src/bao.rs",
            src,
            &[RuleId::NoUnloggedPersistence],
        );
        assert_eq!(d.len(), 4, "{d:?}");
        assert_eq!(d.iter().map(|x| x.line).collect::<Vec<_>>(), vec![2, 3, 4, 5]);

        // The WAL crate and binaries are the sanctioned persistence
        // sites; the bench *library* writes no file.
        for exempt in [
            "crates/wal/src/log.rs",
            "crates/bench/src/bin/baodb.rs",
            "crates/bench/src/bin/figures/main.rs",
            "crates/lint/src/main.rs",
        ] {
            assert!(!applies_to(RuleId::NoUnloggedPersistence, exempt), "{exempt}");
        }
        for covered in ["crates/harness/src/recover.rs", "crates/bench/src/timing.rs"] {
            assert!(applies_to(RuleId::NoUnloggedPersistence, covered), "{covered}");
        }
    }

    #[test]
    fn unlogged_persistence_masked_regions_stay_silent() {
        // Reads are not writes; string/comment occurrences are masked;
        // test modules are exempt; a pragma waives a deliberate site.
        let src = "fn load(p: &std::path::Path) -> Vec<u8> {\n\
                   // telemetry via std::fs::write lives in a binary\n\
                   let s = \"fs::write\";\n\
                   let _ = s;\n\
                   std::fs::read(p).unwrap()\n\
                   }\n\
                   fn waived(p: &std::path::Path) {\n\
                   // bao-lint: allow(no-unlogged-persistence)\n\
                   std::fs::write(p, b\"report\").unwrap();\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { std::fs::write(\"/tmp/x\", b\"y\").unwrap(); }\n\
                   }\n";
        let d = check_source(
            "crates/storage/src/buffer.rs",
            src,
            &[RuleId::NoUnloggedPersistence],
        );
        assert!(d.is_empty(), "{d:?}");
        // `remove_dir_all` (cleanup, not persistence) is not a needle.
        let d = check_source(
            "crates/harness/src/recover.rs",
            "fn wipe(p: &std::path::Path) { std::fs::remove_dir_all(p).ok(); }\n",
            &[RuleId::NoUnloggedPersistence],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let d = check_source(
            "crates/core/src/x.rs",
            "let v = o.unwrap_or(3); let w = o.unwrap_or_else(f);\n",
            &[RuleId::NoPanicPath],
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
