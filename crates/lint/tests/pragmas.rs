//! Pragma edge cases: waivers must keep working at file boundaries, when
//! the `allow-file` pragma sits *below* the finding it waives, and when
//! several pragmas share one comment line.

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
    let src = "fn f(o: Option<u8>) -> u8 {\n\
               o.unwrap() } // bao-lint: allow(no-panic-path)";
    assert!(!src.ends_with('\n'));
    assert_eq!(lines_for(RuleId::NoPanicPath, "crates/core/src/x.rs", src), vec![]);
    // Without the pragma the same site fires, proving the waiver (and
    // not some other exemption) is what silenced it.
    let bare = "fn f(o: Option<u8>) -> u8 {\no.unwrap() }";
    assert_eq!(lines_for(RuleId::NoPanicPath, "crates/core/src/x.rs", bare), vec![2]);
}

/// `allow-file` is file-wide regardless of position: a pragma on the
/// last line waives a finding on the first.
#[test]
fn allow_file_below_the_first_hit() {
    let src = "use std::collections::HashMap;\n\
               fn f() -> HashMap<u8, u8> { HashMap::new() }\n\
               // bao-lint: allow-file(no-hash-iter-order)\n";
    assert_eq!(lines_for(RuleId::NoHashIterOrder, "crates/plan/src/x.rs", src), vec![]);
    // Only the named rule is waived; a different rule on the same file
    // still fires.
    let src2 = "fn g(o: Option<u8>) -> u8 { o.unwrap() }\n\
                // bao-lint: allow-file(no-hash-iter-order)\n";
    assert_eq!(lines_for(RuleId::NoPanicPath, "crates/plan/src/x.rs", src2), vec![1]);
}

/// Several pragmas stacked on one comment line all take effect — both
/// the comma form `allow(a, b)` and repeated `bao-lint:` markers.
#[test]
fn stacked_pragmas_on_one_line() {
    let src = "// bao-lint: allow(no-panic-path, no-wall-clock) bao-lint: allow(no-unsafe)\n\
               unsafe { now(std::time::Instant::now()).unwrap() }\n";
    for rule in [RuleId::NoPanicPath, RuleId::NoWallClock, RuleId::NoUnsafe] {
        assert_eq!(
            lines_for(rule, "crates/core/src/x.rs", src),
            vec![],
            "{} should be waived by the stacked pragma line",
            rule.name()
        );
    }
    // A rule the stack does not name is untouched.
    let src2 = "// bao-lint: allow(no-panic-path) bao-lint: allow(no-wall-clock)\n\
                unsafe { now(std::time::Instant::now()).unwrap() }\n";
    assert_eq!(lines_for(RuleId::NoUnsafe, "crates/core/src/x.rs", src2), vec![2]);
}
