//! Property tests of the ndlint lexer: it must be total (never panic) on
//! arbitrary byte soup, deterministic, and keep positions in bounds —
//! including on unterminated strings, half-open block comments, raw-string
//! hashes and mangled directives.

use ndlint::lexer::lex;
use proptest::prelude::*;

/// Fragments chosen to stress every lexer state machine edge: string and
/// raw-string openers, char-vs-lifetime ambiguity, comment (non-)nesting,
/// directive shapes (valid, malformed, unknown-rule), and plain code.
fn fragments() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("fn f() {}".to_string()),
        Just("\"str with \\\" escape".to_string()),
        Just("r#\"raw\"#".to_string()),
        Just("r###\"deep".to_string()),
        Just("b\"bytes\"".to_string()),
        Just("br##\"raw bytes\"##".to_string()),
        Just("'c'".to_string()),
        Just("'\\n'".to_string()),
        Just("'static".to_string()),
        Just("x.lock()".to_string()),
        Just("Ordering::Relaxed".to_string()),
        Just("/* block /* not nested? */".to_string()),
        Just("*/".to_string()),
        Just("// ndlint: allow(relaxed, reason = \"ok\")".to_string()),
        Just("// ndlint: allow(relaxed)".to_string()),
        Just("// ndlint: allow(bogus_rule, reason = \"x\")".to_string()),
        Just("// ndlint: garbage(((".to_string()),
        Just("/// doc mentioning ndlint: allow(panic, reason = \"doc\")".to_string()),
        Just("#[cfg(test)]".to_string()),
        Just("日本語 idents".to_string()),
        Just("\\".to_string()),
        Just("\u{0}".to_string()),
        prop::collection::vec(any::<u8>(), 0..24)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

fn soup() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(fragments(), 0..24),
        prop::collection::vec(0usize..3, 0..24),
    )
        .prop_map(|(frags, seps)| {
            let mut out = String::new();
            for (i, f) in frags.iter().enumerate() {
                out.push_str(f);
                match seps.get(i).copied().unwrap_or(0) {
                    0 => out.push('\n'),
                    1 => out.push(' '),
                    _ => {}
                }
            }
            out
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The lexer is total: no input panics it.
    #[test]
    fn lex_never_panics(src in soup()) {
        let result = std::panic::catch_unwind(|| lex(&src));
        prop_assert!(result.is_ok(), "lexer panicked on {src:?}");
    }

    /// Reported positions stay inside the source: every token and
    /// annotation line is within the line count, and lines/cols are
    /// 1-based.
    #[test]
    fn positions_are_in_bounds(src in soup()) {
        let lexed = lex(&src);
        let n_lines = src.lines().count().max(1) as u32;
        for t in &lexed.tokens {
            prop_assert!(t.line >= 1 && t.line <= n_lines, "token line {} of {n_lines}", t.line);
            prop_assert!(t.col >= 1);
        }
        for a in &lexed.annotations {
            prop_assert!(a.line >= 1 && a.line <= n_lines);
            prop_assert!(!a.rule.is_empty());
        }
        for (line, _) in &lexed.malformed {
            prop_assert!(*line >= 1 && *line <= n_lines);
        }
    }

    /// Lexing is deterministic.
    #[test]
    fn lex_is_deterministic(src in soup()) {
        let a = lex(&src);
        let b = lex(&src);
        prop_assert_eq!(a.tokens.len(), b.tokens.len());
        prop_assert_eq!(a.annotations.len(), b.annotations.len());
        prop_assert_eq!(a.malformed.len(), b.malformed.len());
    }

    /// A lone well-formed directive line is always either recognized as an
    /// annotation or absorbed by an enclosing string/comment opened by the
    /// prefix — prepending clean code must yield exactly one annotation.
    #[test]
    fn clean_prefix_preserves_directives(pad in 0usize..5) {
        let mut src = String::new();
        for i in 0..pad {
            src.push_str(&format!("fn pad{i}() {{}}\n"));
        }
        src.push_str("// ndlint: allow(relaxed, reason = \"prop\")\n");
        let lexed = lex(&src);
        prop_assert_eq!(lexed.annotations.len(), 1);
        prop_assert_eq!(lexed.annotations[0].line as usize, pad + 1);
    }
}
