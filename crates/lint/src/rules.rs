//! The lint rules the compiler's lint tables cannot express.
//!
//! Seven of the workspace invariants (DESIGN.md §7) are checked by
//! `cargo clippy` from the root `clippy.toml`, `[workspace.lints]` and
//! crate-root attributes. The three here stay on this scanner:
//!
//! * `no-per-node-alloc` — the batched compute kernels (`bao_nn::param`,
//!   `bao_nn::layers`) must hoist scratch buffers out of their hot loops;
//!   `vec![` / `Vec::with_capacity` inside a `for` body there is a
//!   per-node allocation the batching work exists to eliminate. Clippy has
//!   no lint for an allocation inside a loop.
//! * `no-unseeded-rng` — every random draw must trace back to an explicit
//!   seed (`bao_common::rng_from_seed` / `split_seed`); entropy-seeded
//!   sources (`thread_rng`, `from_entropy`, `rand::random`, std's
//!   `RandomState`) would silently break replay, the serving-equivalence
//!   suite, and Thompson-sampling reproducibility. Applies everywhere,
//!   tests included — the determinism suite is itself seeded. Clippy's
//!   `disallowed-methods` cannot name `<RandomState as Default>::default`.
//! * `no-float-eq` — `==` / `!=` against a float expression (a float
//!   literal, an `as f64`/`as f32` cast, or an `f64::`/`f32::` constant)
//!   is almost always a rounding bug waiting to happen; compare with an
//!   epsilon, `total_cmp`, or `to_bits`. Intentional exact comparisons
//!   (sparsity fast paths in the kernels) carry an annotation. Test code
//!   is exempt — asserting exact reproducibility is the point there.
//!   Clippy's `float_cmp` exempts comparisons with zero and infinity.
//!
//! A finding is waived in place with `// bao-lint: allow(<rule>)` on the
//! offending line or the line above.

use crate::scan::{mask, MaskedSource};
use crate::Diagnostic;

/// Identifiers of every lint rule, in canonical (report) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    NoPerNodeAlloc,
    NoUnseededRng,
    NoFloatEq,
}

impl RuleId {
    pub const ALL: [RuleId; 3] = [RuleId::NoPerNodeAlloc, RuleId::NoUnseededRng, RuleId::NoFloatEq];

    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoPerNodeAlloc => "no-per-node-alloc",
            RuleId::NoUnseededRng => "no-unseeded-rng",
            RuleId::NoFloatEq => "no-float-eq",
        }
    }
}

/// The batched compute kernels: hot loops there must not allocate.
const KERNEL_FILES: [&str; 2] = ["crates/nn/src/param.rs", "crates/nn/src/layers.rs"];

/// Does the source-file rule `rule` apply to `path` (workspace-relative,
/// `/`-separated) at all?
pub fn applies_to(rule: RuleId, path: &str) -> bool {
    match rule {
        RuleId::NoPerNodeAlloc => KERNEL_FILES.contains(&path),
        // Seeded randomness is a workspace-wide invariant: tests and
        // benches replay too, so nothing is exempt.
        RuleId::NoUnseededRng => true,
        // Float comparisons are a workspace-wide hazard; test regions are
        // carved out by `skips_test_code` instead of a path scope.
        RuleId::NoFloatEq => true,
    }
}

/// Does `rule` skip lines inside `#[cfg(test)]` / `#[test]` regions?
fn skips_test_code(rule: RuleId) -> bool {
    matches!(rule, RuleId::NoPerNodeAlloc | RuleId::NoFloatEq)
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

/// The tokens one rule hunts for, matched at identifier boundaries.
fn needles(rule: RuleId) -> &'static [&'static str] {
    match rule {
        RuleId::NoPerNodeAlloc => &["vec![", "Vec::with_capacity"],
        RuleId::NoUnseededRng => &["thread_rng", "from_entropy", "rand::random", "RandomState"],
        // no-float-eq needs operand analysis, not a literal needle; see
        // `has_float_eq`.
        RuleId::NoFloatEq => &[],
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

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `needle` occur in `line` with identifier boundaries? A boundary is
/// only demanded on ends of the needle that are themselves identifier
/// characters (so `vec![` needs a boundary before `vec` but accepts any
/// character after the `[`).
fn find_match(line: &str, needle: &str) -> bool {
    let needs_before = needle.chars().next().is_some_and(is_ident);
    let needs_after = needle.chars().next_back().is_some_and(is_ident);
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok =
            !needs_before || at == 0 || !is_ident(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + needle.len()..].chars().next();
        let after_ok = !needs_after || !after.is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Lint one already-masked source file against the rules in `rules`.
/// `path` must be workspace-relative with `/` separators; rule scoping
/// (which files a rule covers) is applied here.
pub fn check_masked(path: &str, masked: &MaskedSource, rules: &[RuleId]) -> Vec<Diagnostic> {
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
            for needle in needles(rule) {
                if find_match(line, needle) && !masked.is_allowed(rule.name(), line_no) {
                    out.push(Diagnostic {
                        rule,
                        path: path.to_string(),
                        line: line_no,
                        message: format!("`{needle}` is forbidden here"),
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
    fn scoping_matches_spec() {
        assert!(applies_to(RuleId::NoPerNodeAlloc, "crates/nn/src/param.rs"));
        assert!(applies_to(RuleId::NoPerNodeAlloc, "crates/nn/src/layers.rs"));
        assert!(!applies_to(RuleId::NoPerNodeAlloc, "crates/nn/src/net.rs"));
        // Seeded randomness and float comparison are workspace-wide: even
        // the timing harness is in scope.
        assert!(applies_to(RuleId::NoUnseededRng, "crates/bench/src/timing.rs"));
        assert!(applies_to(RuleId::NoUnseededRng, "crates/nn/src/train.rs"));
        assert!(applies_to(RuleId::NoFloatEq, "crates/bench/src/timing.rs"));
    }

    #[test]
    fn word_boundaries_respected() {
        // `MyRandomState` and `RandomStateLike` are not the std type.
        let d = check_source(
            "crates/core/src/x.rs",
            "type A = MyRandomState; struct RandomStateLike;\n",
            &[RuleId::NoUnseededRng],
        );
        assert!(d.is_empty(), "{d:?}");
        let d = check_source(
            "crates/core/src/x.rs",
            "use std::collections::hash_map::RandomState;\n",
            &[RuleId::NoUnseededRng],
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
}
