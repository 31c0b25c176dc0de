//! Pragma edge cases: waivers must keep working at file boundaries and
//! when several pragmas share one comment line.

use bao_lint::rules::check_source;
use bao_lint::RuleId;

fn lines_for(rule: RuleId, path: &str, src: &str) -> Vec<usize> {
    check_source(path, src, &[rule]).iter().map(|d| d.line).collect()
}

/// A trailing `allow` on the very last line of a file — with no
/// terminating newline, so the comment is closed by end-of-input, not by
/// `\n` — still waives its own line.
#[test]
fn allow_on_unterminated_last_line() {
    let src = "fn f(x: f64) -> bool {\n\
               x == 0.5 } // bao-lint: allow(no-float-eq)";
    assert!(!src.ends_with('\n'));
    assert_eq!(lines_for(RuleId::NoFloatEq, "crates/core/src/x.rs", src), vec![]);
    // Without the pragma the same site fires, proving the waiver (and
    // not some other exemption) is what silenced it.
    let bare = "fn f(x: f64) -> bool {\nx == 0.5 }";
    assert_eq!(lines_for(RuleId::NoFloatEq, "crates/core/src/x.rs", bare), vec![2]);
}

/// Several pragmas stacked on one comment line all take effect — both
/// the comma form `allow(a, b)` and repeated `bao-lint:` markers.
#[test]
fn stacked_pragmas_on_one_line() {
    let src = "fn f(x: f64) { for i in 0..3 {\n\
               // bao-lint: allow(no-float-eq, no-unseeded-rng) bao-lint: allow(no-per-node-alloc)\n\
               let v = vec![RandomState::new(); i]; let z = x == 0.5;\n\
               } }\n";
    let bare = src.replace("bao-lint:", "");
    for rule in RuleId::ALL {
        assert_eq!(
            lines_for(rule, "crates/nn/src/param.rs", src),
            vec![],
            "{} should be waived by the stacked pragma line",
            rule.name()
        );
        assert_eq!(lines_for(rule, "crates/nn/src/param.rs", &bare), vec![3], "{}", rule.name());
    }
    // A rule the stack does not name is untouched.
    let src2 = src.replace("no-unseeded-rng", "no-such-rule");
    assert_eq!(lines_for(RuleId::NoUnseededRng, "crates/nn/src/param.rs", &src2), vec![3]);
}
