//! Block/expression scanning on top of the lexer: brace matching,
//! `#[cfg(test)]` region discovery, `impl` targets, function extents,
//! and annotation (suppression) resolution.

use crate::lexer::{lex, Lexed, PolicyNote, Token};
use std::path::{Path, PathBuf};

/// Rust keywords that can directly precede `[` without it being an
/// index expression (`let [a, b] = ...`, `match x { [..] => ... }`).
pub const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` target type (innermost), if any.
    pub impl_target: Option<String>,
    /// Token index of the `fn` keyword.
    pub kw_idx: usize,
    /// Token-index range of the body: `(open_brace, close_brace)`,
    /// inclusive. `None` for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn sits inside a `#[cfg(test)]` region or carries
    /// `#[test]`.
    pub is_test: bool,
}

/// A lexed-and-scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes (diagnostics).
    pub rel: String,
    /// Lexer output.
    pub lexed: Lexed,
    /// All functions, in source order.
    pub fns: Vec<FnDecl>,
    /// Token-index ranges (inclusive) covered by `#[cfg(test)]`.
    pub test_ranges: Vec<(usize, usize)>,
    /// For each `{` token index, the index of its matching `}`.
    pub braces: Vec<Option<usize>>,
}

impl SourceFile {
    /// Lexes and scans one file's source text.
    pub fn parse(path: &Path, rel: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let matches = match_braces(&lexed.tokens);
        let test_ranges = find_test_ranges(&lexed.tokens, &matches);
        let impls = find_impls(&lexed.tokens, &matches);
        let fns = find_fns(&lexed.tokens, &matches, &impls, &test_ranges);
        SourceFile {
            path: path.to_path_buf(),
            rel: rel.to_string(),
            lexed,
            fns,
            test_ranges,
            braces: matches,
        }
    }

    /// Tokens of this file.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Whether token index `i` lies inside a `#[cfg(test)]` region.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// Whether a finding of `rule` at `line` is suppressed by an
    /// `ndlint: allow(rule, reason = ...)` directive on the same line or
    /// the directly preceding comment line(s).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.lexed.annotations.iter().any(|a| {
            a.rule == rule && {
                // Trailing on the flagged line, or a standalone comment
                // line (no code tokens of its own) directly above it.
                a.line == line
                    || (a.line < line
                        && !self.has_code(a.line)
                        && self.next_code_line(a.line) == Some(line))
            }
        })
    }

    /// The `ndlint: policy(...)` directive governing `line`, if any: a
    /// policy on the same line, or on a standalone comment line directly
    /// above it (the same placement rule as [`SourceFile::allowed`]).
    pub fn policy_at(&self, line: u32) -> Option<&PolicyNote> {
        self.lexed.policies.iter().find(|p| {
            p.line == line
                || (p.line < line
                    && !self.has_code(p.line)
                    && self.next_code_line(p.line) == Some(line))
        })
    }

    /// The innermost `{` block strictly containing token `i`, as
    /// `(open, close)` token indices — `None` at item level.
    pub fn enclosing_block(&self, i: usize) -> Option<(usize, usize)> {
        self.braces
            .iter()
            .enumerate()
            .filter_map(|(open, close)| close.map(|c| (open, c)))
            .filter(|&(open, close)| open < i && i < close)
            .max_by_key(|&(open, _)| open)
    }

    /// The code line a directive on `line` governs: the line itself when
    /// it holds code (trailing comment), else the next line with code.
    pub fn directive_target_line(&self, line: u32) -> Option<u32> {
        if self.has_code(line) {
            Some(line)
        } else {
            self.next_code_line(line)
        }
    }

    /// Whether any token sits on `line` (i.e. the line holds code, not
    /// just a comment).
    fn has_code(&self, line: u32) -> bool {
        self.lexed.tokens.iter().any(|t| t.line == line)
    }

    /// First line strictly after `line` that has any token on it.
    fn next_code_line(&self, line: u32) -> Option<u32> {
        self.lexed
            .tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > line)
            .min()
    }
}

/// For each `{` token index, the index of its matching `}`. Unbalanced
/// input matches to the last token.
fn match_braces(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut map = vec![None; tokens.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                map[open] = Some(i);
            }
        }
    }
    let last = tokens.len().saturating_sub(1);
    for open in stack {
        map[open] = Some(last);
    }
    map
}

/// Finds `#[cfg(test)]` attributes and marks the token range of the item
/// body that follows (its first brace block).
fn find_test_ranges(tokens: &[Token], matches: &[Option<usize>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let hit = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if hit {
            // The guarded item's body: the next `{` before any `;`.
            let mut j = i + 7;
            let mut guard = 0usize;
            while j < tokens.len() && guard < 4096 {
                if tokens[j].is_punct('{') {
                    if let Some(close) = matches[j] {
                        out.push((i, close));
                    }
                    break;
                }
                if tokens[j].is_punct(';') {
                    break; // `#[cfg(test)] mod tests;` — no inline body
                }
                j += 1;
                guard += 1;
            }
        }
        i += 1;
    }
    out
}

/// `impl` blocks: `(body_open, body_close, target type name)`.
fn find_impls(tokens: &[Token], matches: &[Option<usize>]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        // Header runs to the block `{`; generics live in <...>.
        let mut angle = 0i32;
        let mut after_for = false;
        let mut head: Vec<&str> = Vec::new();
        let mut tail: Vec<&str> = Vec::new();
        let mut j = i + 1;
        while j < tokens.len() {
            let tok = &tokens[j];
            if tok.is_punct('{') && angle <= 0 {
                let Some(close) = matches[j] else { break };
                let target = if after_for { tail.last() } else { head.last() };
                if let Some(name) = target {
                    out.push((j, close, name.to_string()));
                }
                break;
            }
            if tok.is_punct(';') {
                break;
            }
            if tok.is_punct('<') {
                angle += 1;
            } else if tok.is_punct('>') {
                angle -= 1;
            } else if tok.is_ident("for") {
                after_for = true;
            } else if tok.is_ident("where") {
                // `impl<T> Foo<T> where T: Bar {` — stop collecting names.
            } else if let Some(id) = tok.ident() {
                if angle <= 0 {
                    if after_for {
                        tail.push(id);
                    } else {
                        head.push(id);
                    }
                }
            }
            j += 1;
        }
    }
    out
}

fn find_fns(
    tokens: &[Token],
    matches: &[Option<usize>],
    impls: &[(usize, usize, String)],
    test_ranges: &[(usize, usize)],
) -> Vec<FnDecl> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        let Some(name) = name_tok.ident() else {
            continue;
        };
        // Body: first `{` after the signature at paren depth 0, stopping
        // at `;` (bodyless) — angle depth is ignored because `->` types
        // keep parens balanced.
        let mut paren = 0i32;
        let mut body = None;
        let mut j = i + 2;
        while j < tokens.len() {
            let tok = &tokens[j];
            if tok.is_punct('(') {
                paren += 1;
            } else if tok.is_punct(')') {
                paren -= 1;
            } else if tok.is_punct('{') && paren <= 0 {
                if let Some(close) = matches[j] {
                    body = Some((j, close));
                }
                break;
            } else if tok.is_punct(';') && paren <= 0 {
                break;
            }
            j += 1;
        }
        // Innermost impl containing this fn.
        let impl_target = impls
            .iter()
            .filter(|&&(open, close, _)| i > open && i < close)
            .max_by_key(|&&(open, _, _)| open)
            .map(|(_, _, name)| name.clone());
        let in_cfg_test = test_ranges.iter().any(|&(a, b)| i >= a && i <= b);
        // `#[test]` attribute directly above.
        let has_test_attr = i >= 3
            && tokens[i - 3].is_punct('#')
            && tokens[i - 2].is_punct('[')
            && tokens[i - 1].is_ident("test");
        out.push(FnDecl {
            name: name.to_string(),
            impl_target,
            kw_idx: i,
            body,
            line: t.line,
            is_test: in_cfg_test || has_test_attr,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("/x/test.rs"), "test.rs", src)
    }

    #[test]
    fn finds_fns_with_impl_targets() {
        let sf = parse(
            "impl<'a> Cursor<'a> { fn take(&mut self) {} }\n\
             impl std::fmt::Display for DeflateError { fn fmt(&self) {} }\n\
             fn free() {}",
        );
        let names: Vec<(String, Option<String>)> = sf
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_target.clone()))
            .collect();
        assert_eq!(names[0], ("take".into(), Some("Cursor".into())));
        assert_eq!(names[1], ("fmt".into(), Some("DeflateError".into())));
        assert_eq!(names[2], ("free".into(), None));
    }

    #[test]
    fn cfg_test_regions_cover_mod_bodies() {
        let sf = parse(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn t() {}\n}",
        );
        assert_eq!(sf.test_ranges.len(), 1);
        let live = sf.fns.iter().find(|f| f.name == "live").unwrap();
        assert!(!live.is_test);
        for name in ["helper", "t"] {
            let f = sf.fns.iter().find(|f| f.name == name).unwrap();
            assert!(f.is_test, "{name} must be in the test region");
        }
    }

    #[test]
    fn fn_bodies_span_their_braces() {
        let sf = parse("fn f(a: u32) -> Vec<(u32, u32)> { if a > 0 { } }");
        let f = &sf.fns[0];
        let (open, close) = f.body.unwrap();
        assert!(sf.tokens()[open].is_punct('{'));
        assert!(sf.tokens()[close].is_punct('}'));
        assert_eq!(close, sf.tokens().len() - 1);
    }

    #[test]
    fn bodyless_trait_fns() {
        let sf = parse("trait T { fn sig(&self) -> u32; fn with_body(&self) {} }");
        assert_eq!(sf.fns[0].body, None);
        assert!(sf.fns[1].body.is_some());
    }

    #[test]
    fn suppression_applies_to_same_and_next_line() {
        let sf = parse(
            "// ndlint: allow(relaxed, reason = \"why\")\n\
             let a = x.load(Ordering::Relaxed);\n\
             let b = y.load(Ordering::Relaxed); // ndlint: allow(relaxed, reason = \"why\")\n\
             let c = z.load(Ordering::Relaxed);",
        );
        assert!(sf.allowed("relaxed", 2));
        assert!(sf.allowed("relaxed", 3));
        assert!(!sf.allowed("relaxed", 4));
        assert!(!sf.allowed("panic", 2), "rule name must match");
    }
}
