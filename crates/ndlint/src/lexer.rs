//! A hand-rolled Rust lexer: enough fidelity for lint-grade scanning.
//!
//! The goal is not a full grammar — it is to tokenize identifiers,
//! punctuation and literals with correct **comment/string/char/lifetime
//! disambiguation**, so the rule passes never mistake the inside of a
//! string (or a doc-comment code example) for live code. The lexer is
//! total: any byte sequence lexes without panicking, unterminated
//! constructs are closed at end of input, and every token carries a
//! 1-based line/column span for diagnostics.
//!
//! `// ndlint: allow(<rule>, reason = "...")` directives are recognized
//! while comments are consumed and surface as [`Annotation`]s; malformed
//! directives are reported rather than silently ignored.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (keywords are not distinguished).
    Ident(String),
    /// String literal (normal, byte, or raw); payload is the raw
    /// *contents* between the quotes, escapes unprocessed.
    Str(String),
    /// Character literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Numeric literal (integer or float, suffix included).
    Num,
    /// Any other single character.
    Punct(char),
}

/// A token plus its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What was lexed.
    pub kind: TokKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in chars).
    pub col: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The string-literal contents, if this token is a string.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(i) if i == s)
    }
}

/// A parsed `// ndlint: allow(<rule>, reason = "...")` directive.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Line the directive comment sits on.
    pub line: u32,
    /// The rule name inside `allow(...)`. A directive without a
    /// non-empty `reason = "..."` is malformed and never becomes one.
    pub rule: String,
}

/// Overload policies a bounded queue may declare.
pub const POLICY_KINDS: &[&str] = &["drop", "block", "reject"];

/// A parsed `// ndlint: policy(drop|block|reject, reason = "...")`
/// directive: the declared overload behaviour of a bounded queue
/// constructed on (or directly below) the directive's line.
#[derive(Debug, Clone)]
pub struct PolicyNote {
    /// Line the directive comment sits on.
    pub line: u32,
    /// One of [`POLICY_KINDS`].
    pub kind: String,
}

/// Lexer output: tokens, ndlint directives, and malformed directives.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens, in source order.
    pub tokens: Vec<Token>,
    /// Well-formed `ndlint: allow(...)` directives found in line comments.
    pub annotations: Vec<Annotation>,
    /// Well-formed `ndlint: policy(...)` directives found in line comments.
    pub policies: Vec<PolicyNote>,
    /// `(line, problem)` for comments that mention `ndlint:` but do not
    /// parse as a directive.
    pub malformed: Vec<(u32, String)>,
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

/// Lexes `src` completely. Total: never panics, always terminates.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        out: Lexed::default(),
    };
    lx.run();
    lx.out
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, maintaining line/col.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, line: u32, col: u32) {
        self.out.tokens.push(Token { kind, line, col });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    let s = self.string_body();
                    self.push(TokKind::Str(s), line, col);
                }
                'b' | 'r' if self.raw_or_byte_string(line, col) => {}
                '\'' => self.char_or_lifetime(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                c if c.is_whitespace() => {
                    self.bump();
                }
                other => {
                    self.bump();
                    self.push(TokKind::Punct(other), line, col);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // A directive is a whole-comment construct: a plain `//` comment
        // (not a `///` / `//!` doc comment, which is documentation and may
        // quote the grammar) whose content starts with `ndlint:`.
        let body = &text[2..];
        if body.starts_with('/') || body.starts_with('!') {
            return;
        }
        if let Some(rest) = body.trim_start().strip_prefix("ndlint:") {
            self.directive(line, rest);
        }
    }

    /// Parses the tail of an `ndlint:` comment. Grammar:
    /// `allow(<rule>, reason = "<non-empty>")` or
    /// `policy(drop|block|reject, reason = "<non-empty>")`.
    fn directive(&mut self, line: u32, tail: &str) {
        let tail = tail.trim();
        let (verb, rest) = if let Some(r) = tail.strip_prefix("allow") {
            ("allow", r)
        } else if let Some(r) = tail.strip_prefix("policy") {
            ("policy", r)
        } else {
            self.out.malformed.push((
                line,
                format!("expected `allow(...)` or `policy(...)`, got `{tail}`"),
            ));
            return;
        };
        let Some(args) = rest.trim_start().strip_prefix('(') else {
            self.out
                .malformed
                .push((line, format!("expected `{verb}(...)`, got `{tail}`")));
            return;
        };
        let Some(close) = args.rfind(')') else {
            self.out
                .malformed
                .push((line, format!("unclosed `{verb}(` directive")));
            return;
        };
        let args = &args[..close];
        let head = args.split(',').next().unwrap_or("").trim().to_string();
        if head.is_empty() || !head.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
            self.out
                .malformed
                .push((line, format!("bad name `{head}` in {verb}(...)")));
            return;
        }
        // reason = "..." with at least one char between the quotes.
        let has_reason = args
            .split_once("reason")
            .map(|(_, r)| r.trim_start())
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.find('"'))
            .is_some_and(|end| end > 0);
        if !has_reason {
            self.out.malformed.push((
                line,
                format!("{verb}({head}) needs a non-empty reason = \"...\""),
            ));
            return;
        }
        match verb {
            "allow" => self.out.annotations.push(Annotation { line, rule: head }),
            _ => {
                if !POLICY_KINDS.contains(&head.as_str()) {
                    self.out.malformed.push((
                        line,
                        format!(
                            "unknown overload policy `{head}` (one of: {})",
                            POLICY_KINDS.join(", ")
                        ),
                    ));
                    return;
                }
                self.out.policies.push(PolicyNote { line, kind: head });
            }
        }
    }

    fn block_comment(&mut self) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: tolerate
            }
        }
    }

    /// Contents of a normal (escaped) string; the opening quote is
    /// already consumed. Consumes through the closing quote.
    fn string_body(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump();
                    if let Some(e) = self.bump() {
                        s.push('\\');
                        s.push(e);
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                other => {
                    s.push(other);
                    self.bump();
                }
            }
        }
        s
    }

    /// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` when the
    /// cursor sits on `b`/`r`. Returns false (consuming nothing) when
    /// what follows is a plain identifier.
    fn raw_or_byte_string(&mut self, line: u32, col: u32) -> bool {
        // Work out the literal prefix without consuming.
        let mut i;
        let mut raw = false;
        match self.peek(0) {
            Some('b') => {
                i = 1;
                if self.peek(1) == Some('r') {
                    raw = true;
                    i = 2;
                }
            }
            Some('r') => {
                raw = true;
                i = 1;
            }
            _ => return false,
        }
        let mut hashes = 0usize;
        if raw {
            while self.peek(i) == Some('#') {
                hashes += 1;
                i += 1;
            }
        }
        if self.peek(i) != Some('"') {
            return false; // `b` / `r` starts an ordinary identifier
        }
        if raw && hashes == 0 && self.peek(0) == Some('r') && self.peek(1) != Some('"') {
            return false;
        }
        for _ in 0..=i {
            self.bump(); // prefix + opening quote
        }
        let s = if raw {
            self.raw_string_body(hashes)
        } else {
            self.string_body()
        };
        self.push(TokKind::Str(s), line, col);
        true
    }

    /// Contents of a raw string with `hashes` hash marks; consumes
    /// through the terminator. No escapes inside raw strings.
    fn raw_string_body(&mut self, hashes: usize) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break;
                }
            }
            s.push(c);
            self.bump();
        }
        s
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime) from `'\n'`.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape then to the quote.
                self.bump();
                self.bump(); // the escaped char (or first of \u{...})
                while let Some(c) = self.peek(0) {
                    if c == '\'' {
                        self.bump();
                        break;
                    }
                    if c == '\n' {
                        break; // unterminated; tolerate
                    }
                    self.bump();
                }
                self.push(TokKind::Char, line, col);
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                if self.peek(1) == Some('\'') {
                    // 'x'
                    self.bump();
                    self.bump();
                    self.push(TokKind::Char, line, col);
                } else {
                    // lifetime: consume ident chars, no closing quote
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokKind::Lifetime, line, col);
                }
            }
            Some(c) => {
                // Punctuation char literal like '(' or ' '.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                    self.push(TokKind::Char, line, col);
                } else {
                    // Stray quote: emit as punct, re-lex what followed.
                    self.push(TokKind::Punct('\''), line, col);
                    let _ = c;
                }
            }
            None => self.push(TokKind::Punct('\''), line, col),
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut prev = '0';
        while let Some(c) = self.peek(0) {
            let take = if c.is_ascii_alphanumeric() || c == '_' {
                true
            } else if c == '.' {
                // `0..10` must leave `..` alone; `1.5` continues.
                self.peek(1).is_some_and(|n| n.is_ascii_digit()) && prev != '.'
            } else if c == '+' || c == '-' {
                // exponent sign: 1e-3
                matches!(prev, 'e' | 'E') && self.peek(1).is_some_and(|n| n.is_ascii_digit())
            } else {
                false
            };
            if !take {
                break;
            }
            prev = c;
            self.bump();
        }
        self.push(TokKind::Num, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident(s), line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_hide_code() {
        let l = lex(r#"let x = "fn fake() { unwrap() }"; y.unwrap();"#);
        let ids = idents(r#"let x = "fn fake() { unwrap() }"; y.unwrap();"#);
        assert_eq!(ids, ["let", "x", "y", "unwrap"]);
        assert_eq!(l.tokens.iter().filter(|t| t.str_lit().is_some()).count(), 1);
    }

    #[test]
    fn comments_hide_code() {
        assert_eq!(idents("// x.unwrap()\nreal"), ["real"]);
        assert_eq!(idents("/* x.unwrap() /* nested */ still */ real"), ["real"]);
        assert_eq!(
            idents("/// doc with \"quote\n///and `panic!`\nfn f() {}"),
            ["fn", "f"]
        );
    }

    #[test]
    fn raw_strings_with_quotes() {
        let l = lex(r##"let s = r#"contains " quote and // slashes"#; after"##);
        assert!(idents(r##"let s = r#"contains " quote"#; after"##).contains(&"after".to_string()));
        assert_eq!(l.tokens.iter().filter(|t| t.str_lit().is_some()).count(), 1);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ids = idents("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(ids.contains(&"str".to_string()));
        let l = lex("'a 'x' '\\u{1F600}'");
        let kinds: Vec<_> = l.tokens.iter().map(|t| &t.kind).collect();
        assert!(matches!(kinds[0], TokKind::Lifetime));
        assert!(matches!(kinds[1], TokKind::Char));
        assert!(matches!(kinds[2], TokKind::Char));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..10 { a[i]; 1.5e-3; }");
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "0..10 keeps both range dots");
        let nums = l.tokens.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 3); // 0, 10, 1.5e-3
    }

    #[test]
    fn directives_parse() {
        let l = lex(concat!(
            "// ndlint: allow(relaxed, reason = \"pure counter\")\n",
            "x.load(Ordering::Relaxed);\n",
            "// ndlint: allow(panic)\n", // missing reason -> malformed
        ));
        assert_eq!(l.annotations.len(), 1);
        assert_eq!(l.annotations[0].rule, "relaxed");
        assert_eq!(l.annotations[0].line, 1);
        assert_eq!(l.malformed.len(), 1);
        assert_eq!(l.malformed[0].0, 3);
    }

    #[test]
    fn policy_directives_parse() {
        let l = lex(concat!(
            "// ndlint: policy(block, reason = \"cap is backpressure\")\n",
            "let (tx, rx) = mpsc::sync_channel(8);\n",
            "// ndlint: policy(spill, reason = \"nope\")\n", // unknown kind
            "// ndlint: policy(drop)\n",                     // missing reason
        ));
        assert_eq!(l.policies.len(), 1);
        assert_eq!(l.policies[0].kind, "block");
        assert_eq!(l.policies[0].line, 1);
        assert_eq!(l.malformed.len(), 2);
    }

    #[test]
    fn doc_comments_and_prose_are_not_directives() {
        let l = lex(concat!(
            "/// write `// ndlint: allow(<rule>, reason = \"...\")` to suppress\n",
            "//! the grammar is ndlint: allow(panic)\n",
            "// see the ndlint: allow(...) docs\n", // prose, not anchored
        ));
        assert!(l.annotations.is_empty());
        assert!(l.malformed.is_empty());
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }

    #[test]
    fn unterminated_constructs_are_tolerated() {
        for src in ["\"never closed", "/* never closed", "r#\"never closed", "'"] {
            let _ = lex(src); // must not panic or hang
        }
    }
}
