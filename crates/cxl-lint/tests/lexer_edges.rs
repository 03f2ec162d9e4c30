//! Lexer edge cases the rule engine depends on: raw strings at any hash
//! depth, nested block comments, lifetimes vs. char literals, raw
//! identifiers, and byte strings. A mislexed corner here turns into a
//! false positive (an identifier or brace read out of a string) or a
//! false negative (missing live code after a comment), so each corner is
//! pinned by name; `HashMap`/`Instant` below are just sample identifiers.

use cxl_lint::lexer::{lex, TokKind};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
        .collect()
}

fn kinds(src: &str) -> Vec<TokKind> {
    lex(src).into_iter().map(|t| t.kind).collect()
}

#[test]
fn raw_strings_any_hash_depth_hide_contents() {
    assert_eq!(idents(r###"let a = r"HashMap";"###), vec!["let", "a"]);
    assert_eq!(idents(r###"let a = r#"HashMap"#;"###), vec!["let", "a"]);
    assert_eq!(
        idents("let a = r##\"Instant \"# still inside\"##;"),
        vec!["let", "a"]
    );
}

#[test]
fn raw_string_body_is_preserved_verbatim() {
    let toks = lex(r###"r#"cxl_mem.device.regions"#"###);
    assert_eq!(toks.len(), 1);
    assert_eq!(toks[0].kind, TokKind::Str);
    assert_eq!(toks[0].text, "cxl_mem.device.regions");
}

#[test]
fn byte_strings_and_byte_chars() {
    assert_eq!(idents(r#"let a = b"HashMap";"#), vec!["let", "a"]);
    assert_eq!(idents(r##"let a = br#"HashMap"#;"##), vec!["let", "a"]);
    // b'x' is a char literal, and the escape form doesn't leak tokens.
    assert_eq!(
        idents(r#"let a = b'x'; let c = b'\'';"#),
        vec!["let", "a", "let", "c"]
    );
}

#[test]
fn escaped_quote_does_not_end_a_plain_string() {
    let toks = lex(r#""with \" quote" HashMap"#);
    assert_eq!(toks[0].kind, TokKind::Str);
    assert_eq!(toks[0].text, r#"with \" quote"#);
    assert!(toks[1].is_ident("HashMap"));
}

#[test]
fn nested_block_comments_resurface_at_the_right_place() {
    // A naive scanner would end the comment at the first `*/` and lex
    // `HashMap` as live code.
    let src = "/* outer /* HashMap inner */ still comment */ Instant";
    let toks = lex(src);
    assert_eq!(toks[0].kind, TokKind::BlockComment);
    assert!(toks[1].is_ident("Instant"));
    assert_eq!(idents(src), vec!["Instant"]);
}

#[test]
fn unterminated_block_comment_consumes_to_eof() {
    let toks = lex("/* never closed HashMap");
    assert_eq!(toks.len(), 1);
    assert_eq!(toks[0].kind, TokKind::BlockComment);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let toks = lex("fn f<'a>(x: &'a str) -> &'static str { x }");
    let lifetimes: Vec<String> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.clone())
        .collect();
    assert_eq!(lifetimes, vec!["a", "a", "static"]);
    assert!(!toks.iter().any(|t| t.kind == TokKind::Char));
}

#[test]
fn char_literals_are_not_lifetimes() {
    let toks = lex(r#"let c = 'a'; let q = '\''; let n = '\n'; let p = '(';"#);
    let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
    assert_eq!(chars, 4);
    assert!(!toks.iter().any(|t| t.kind == TokKind::Lifetime));
}

#[test]
fn raw_identifiers_normalize_to_bare_names() {
    // r#fn is an identifier named `fn`, not a raw string start.
    assert_eq!(idents("let r#fn = 1; r#ident"), vec!["let", "fn", "ident"]);
    // And a bare `r` variable stays an ordinary identifier.
    assert_eq!(idents("let r = 1;"), vec!["let", "r"]);
}

#[test]
fn numbers_do_not_swallow_ranges_or_method_calls() {
    // `0..9` must stay three tokens and `1.max(2)` must keep the dot.
    let k = kinds("0..9");
    assert_eq!(
        k,
        vec![TokKind::Num, TokKind::Punct, TokKind::Punct, TokKind::Num]
    );
    assert!(lex("1.max(2)").iter().any(|t| t.is_ident("max")));
    // But a real float is one token.
    assert_eq!(kinds("1.5"), vec![TokKind::Num]);
}

#[test]
fn line_numbers_survive_multiline_tokens() {
    let src = "a\n/* two\nlines */\nb\nr#\"raw\nstring\"#\nc";
    let toks = lex(src);
    let a = toks.iter().find(|t| t.is_ident("a")).unwrap();
    let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
    let c = toks.iter().find(|t| t.is_ident("c")).unwrap();
    assert_eq!((a.line, b.line, c.line), (1, 4, 7));
}

#[test]
fn lexer_is_total_on_garbage() {
    // Malformed input degrades to tokens, never panics.
    for src in ["\"unterminated", "r#\"open", "'", "b'", "#!@%^&", "'\\"] {
        let _ = lex(src);
    }
}
