//! A hand-rolled Rust lexer — just enough token fidelity for lint rules.
//!
//! The workspace builds with no network access, so `syn`/`quote` are off
//! the table; this lexer is the dependency-free substitute. It does not
//! parse Rust — it tokenizes it, faithfully enough that the rule engine
//! can tell an identifier from the inside of a string literal or a doc
//! comment. The tricky corners it must get right (and that
//! `tests/lexer_edges.rs` pins down):
//!
//! * **Raw strings** `r"…"`, `r#"…"#`, `r##"…"##` (any hash depth), plus
//!   byte-string variants `b"…"`, `br#"…"#` — a `x.lock()` or a brace
//!   inside one is *data*, not an acquisition or a scope.
//! * **Nested block comments** `/* /* … */ */` — Rust nests them; a
//!   naive scanner would resurface too early and misread live code as
//!   commented out (or vice versa).
//! * **Lifetimes vs. char literals**: `'a` in `&'a str` is a lifetime,
//!   `'a'` is a char, `'\''` is a char with an escape.
//! * **Raw identifiers** `r#fn`, `r#ident` — identifiers, not the start
//!   of a raw string.
//!
//! Every token carries the 1-based source line it starts on, which is
//! all the diagnostics need.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `r#ident` — raw
    /// identifiers are normalized to their bare name).
    Ident,
    /// A lifetime (`'a`, `'static`), text without the leading quote.
    Lifetime,
    /// Any string-like literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// A char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A numeric literal (integers and floats, loosely scanned).
    Num,
    /// A single punctuation character (`.`, `(`, `{`, `#`, …).
    Punct,
    /// A `//` line comment, text including the slashes.
    LineComment,
    /// A `/* … */` block comment (nested), text including delimiters.
    BlockComment,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text. For `Ident` the identifier itself (raw idents without
    /// the `r#`); for `Punct` the single character; for comments the full
    /// comment text; for `Str` the literal body (between the delimiters,
    /// escapes unprocessed — lock-class names never use them); empty for
    /// `Char`/`Num`.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// `true` if this is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` if this is a punctuation token with this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// Index of the token closing the `[` or `{` group opened at
/// `code[open]`, counting only that bracket kind; `code.len()` if the
/// group never closes.
pub fn matching_close<T: std::borrow::Borrow<Token>>(code: &[T], open: usize) -> usize {
    let (opener, closer) = if code[open].borrow().is_punct('[') {
        ('[', ']')
    } else {
        ('{', '}')
    };
    let mut depth = 0u32;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.borrow().is_punct(opener) {
            depth += 1;
        } else if t.borrow().is_punct(closer) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// Lexes `src`, returning every token including comments (the rule
/// engine discards them).
///
/// The lexer is total: malformed input never panics, it degrades to
/// punct tokens. An unterminated string or comment consumes to EOF.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    /// Advances one byte, counting newlines.
    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied();
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn skip_while(&mut self, pred: fn(u8) -> bool) {
        while self.peek(0).is_some_and(pred) {
            self.bump();
        }
    }

    /// Consumes a run of identifier bytes, returning its text.
    fn ident_text(&mut self) -> String {
        let start = self.pos;
        self.skip_while(is_ident_continue);
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(line),
                b'r' | b'b' => self.raw_or_ident(line),
                b'"' => {
                    self.bump();
                    let body = self.plain_string();
                    self.push(TokKind::Str, body, line);
                }
                b'\'' => self.lifetime_or_char(line),
                _ if is_ident_start(b) => self.ident(line),
                _ if b.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, (b as char).to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let start = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: consume to EOF
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::BlockComment, text, line);
    }

    /// Disambiguates `r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `b'…'`,
    /// `br#"…"#` from plain identifiers starting with `r`/`b`.
    fn raw_or_ident(&mut self, line: u32) {
        let b0 = self.peek(0).expect("caller saw a byte");
        // How many prefix bytes form a string-ish prefix?
        let (skip, hashes_at) = match (b0, self.peek(1)) {
            (b'r', Some(b'"' | b'#')) => (1, 1),
            (b'b', Some(b'"')) => {
                // b"…" — escapes apply, unlike raw strings.
                self.bump(); // b
                self.bump(); // "
                let body = self.plain_string();
                self.push(TokKind::Str, body, line);
                return;
            }
            (b'b', Some(b'\'')) => {
                // byte char literal b'x'
                self.bump(); // b
                self.bump(); // '
                self.char_body();
                self.push(TokKind::Char, String::new(), line);
                return;
            }
            (b'b', Some(b'r')) if matches!(self.peek(2), Some(b'"' | b'#')) => (2, 2),
            _ => {
                self.ident(line);
                return;
            }
        };
        // Count hashes after the prefix.
        let mut hashes = 0usize;
        while self.peek(hashes_at + hashes) == Some(b'#') {
            hashes += 1;
        }
        match self.peek(hashes_at + hashes) {
            Some(b'"') => {
                // Raw (byte) string with `hashes` hashes.
                for _ in 0..skip + hashes + 1 {
                    self.bump();
                }
                let body = self.raw_string_body(hashes);
                self.push(TokKind::Str, body, line);
            }
            Some(c) if hashes == 1 && skip == 1 && b0 == b'r' && is_ident_start(c) => {
                // Raw identifier r#ident: normalize to the bare name.
                self.bump(); // r
                self.bump(); // #
                self.ident(line);
            }
            _ => self.ident(line),
        }
    }

    /// Consumes a plain `"…"` body after the opening quote, returning it
    /// (without the closing quote; escapes left as written).
    fn plain_string(&mut self) -> String {
        let start = self.pos;
        let mut end = self.pos;
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump(); // whatever is escaped, even `"` or `\`
                    end = self.pos;
                }
                b'"' => break,
                _ => end = self.pos,
            }
        }
        String::from_utf8_lossy(&self.src[start..end]).into_owned()
    }

    /// Consumes a raw string body until `"` followed by `hashes` hashes,
    /// returning the body.
    fn raw_string_body(&mut self, hashes: usize) -> String {
        let start = self.pos;
        let mut end = self.pos;
        while let Some(b) = self.bump() {
            if b == b'"' {
                let mut n = 0;
                while n < hashes && self.peek(n) == Some(b'#') {
                    n += 1;
                }
                if n == hashes {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            end = self.pos;
        }
        String::from_utf8_lossy(&self.src[start..end]).into_owned()
    }

    /// After an opening `'` of a char literal, consumes the body and the
    /// closing quote.
    fn char_body(&mut self) {
        // An escaped byte is never the closing quote, even in `'\''`.
        if self.bump() == Some(b'\\') {
            self.bump();
        }
        // The rest of the char (multi-byte, or a `\u{…}` payload), then
        // the closing quote.
        while self.bump().is_some_and(|b| b != b'\'') {}
    }

    /// `'` starts either a lifetime (`'a`, `'static`) or a char literal
    /// (`'a'`, `'\n'`). Rule: after the quote, an escape or a
    /// non-identifier is always a char; an identifier followed by a
    /// closing `'` is a char (`'a'`), otherwise a lifetime.
    fn lifetime_or_char(&mut self, line: u32) {
        self.bump(); // opening '
        match self.peek(0) {
            Some(b'\\') => {
                self.char_body();
                self.push(TokKind::Char, String::new(), line);
            }
            Some(b) if is_ident_start(b) => {
                // Scan the identifier without committing.
                let mut len = 1;
                while self.peek(len).is_some_and(is_ident_continue) {
                    len += 1;
                }
                if self.peek(len) == Some(b'\'') {
                    // 'a' — a char literal.
                    for _ in 0..=len {
                        self.bump();
                    }
                    self.push(TokKind::Char, String::new(), line);
                } else {
                    let text = self.ident_text();
                    self.push(TokKind::Lifetime, text, line);
                }
            }
            Some(_) => {
                // ',' etc. — a one-char literal like '(' or ' '.
                self.char_body();
                self.push(TokKind::Char, String::new(), line);
            }
            None => self.push(TokKind::Punct, "'".to_string(), line),
        }
    }

    fn ident(&mut self, line: u32) {
        let text = self.ident_text();
        self.push(TokKind::Ident, text, line);
    }

    /// Loose numeric scan: digits, `_`, radix prefixes, type suffixes,
    /// one fractional part and an exponent — while leaving `..` (range)
    /// and method calls like `0.max(x)` alone.
    fn number(&mut self, line: u32) {
        let is_digit_like = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        self.skip_while(is_digit_like);
        // Fraction: only if `.` is followed by a digit (so `0..9` and
        // `1.max(2)` stay three tokens).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            self.skip_while(is_digit_like);
        }
        self.push(TokKind::Num, String::new(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(
            idents(r#"let x = "HashMap in a string";"#),
            vec!["let", "x"]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
