//! Rule `no_panic`: designated hot-path modules must not contain
//! panicking constructs — `.unwrap()` / `.expect(…)` (and their `_err`
//! twins), the panic-family macros (`assert!`, `assert_eq!` and
//! `assert_ne!` included), and (where the spec says so)
//! slice/array indexing. A panic on these paths unwinds a dispatch
//! worker, an executor, or a connection thread, losing every job that
//! thread was carrying.
//!
//! `unwrap_or`, `unwrap_or_else`, `unwrap_or_default` are *not*
//! findings: they are the non-panicking alternatives this rule pushes
//! code toward (the workspace's poison-recovery idiom
//! `.unwrap_or_else(PoisonError::into_inner)` relies on that).

use crate::config::HotPathSpec;
use crate::findings::{apply_allows, Allow, Finding};
use crate::lexer::{Lexed, TokenKind};
use crate::rules::{in_test, test_regions, KEYWORDS};

pub const RULE: &str = "no_panic";

/// Panicking method calls: flagged when called as `.name(`.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Panic-family macros: flagged as `name!`. The release-mode asserts
/// are among them; `debug_assert*` is compiled out of release builds
/// and stays exempt.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

pub fn check(
    file: &str,
    lexed: &Lexed,
    spec: &HotPathSpec,
    allows: &[Allow],
    findings: &mut Vec<Finding>,
) {
    let tokens = &lexed.tokens;
    let regions = test_regions(tokens);
    let mut emit = |line: u32, message: String, hint: &str| {
        let mut f = Finding {
            rule: RULE,
            file: file.to_string(),
            line,
            message,
            hint: hint.to_string(),
            allowed: None,
        };
        apply_allows(&mut f, allows);
        findings.push(f);
    };

    for i in 0..tokens.len() {
        if in_test(&regions, i) || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let word = tokens[i].text.as_str();

        if PANIC_METHODS.contains(&word)
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            emit(
                tokens[i].line,
                format!("`.{word}()` on a no-panic hot path"),
                "propagate the error (`?` / a CoreError variant) or annotate \
                 `// analyzer: allow(no_panic, <why this cannot fail>)`",
            );
            continue;
        }

        if PANIC_MACROS.contains(&word)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && (i == 0 || !tokens[i - 1].is_punct('.'))
        {
            emit(
                tokens[i].line,
                format!("`{word}!` on a no-panic hot path"),
                "return an error instead of panicking, or annotate \
                 `// analyzer: allow(no_panic, <why this branch is unreachable>)`",
            );
            continue;
        }

        // Indexing: `expr[...]` where expr ends in an identifier (not a
        // keyword), `)`, or `]`. Array literals, attributes, types, and
        // `vec![…]` all follow punctuation and are not flagged.
        if spec.ban_indexing && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let indexes = tokens[i].kind == TokenKind::Ident && !KEYWORDS.contains(&word);
            if indexes {
                emit(
                    tokens[i + 1].line,
                    format!("slice/array indexing `{word}[…]` on a no-panic hot path"),
                    "use `.get()`/`.get_mut()` and handle `None`, or annotate \
                     `// analyzer: allow(no_panic, <why the index is in bounds>)`",
                );
            }
        }
    }

    // Indexing after `)` or `]` (e.g. `f(x)[0]`) — a separate pass so
    // the ident pass above stays simple.
    if spec.ban_indexing {
        for i in 1..tokens.len() {
            if in_test(&regions, i) {
                continue;
            }
            if tokens[i].is_punct('[')
                && (tokens[i - 1].is_punct(')') || tokens[i - 1].is_punct(']'))
            {
                emit(
                    tokens[i].line,
                    "slice/array indexing on a call/index result on a no-panic hot path".into(),
                    "use `.get()`/`.get_mut()` and handle `None`, or annotate \
                     `// analyzer: allow(no_panic, <why the index is in bounds>)`",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::parse_allows;
    use crate::lexer::lex;

    fn run(src: &str, ban_indexing: bool) -> Vec<Finding> {
        let lexed = lex(src);
        let mut findings = Vec::new();
        let allows = parse_allows("f.rs", &lexed.comments, &mut findings);
        let spec = HotPathSpec {
            path: "f.rs",
            ban_indexing,
        };
        check("f.rs", &lexed, &spec, &allows, &mut findings);
        findings
    }

    #[test]
    fn seeded_unwrap_and_expect_are_caught() {
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"msg\") }";
        let found = run(bad, false);
        assert_eq!(found.iter().filter(|f| f.denied()).count(), 2);
        assert!(found[0].message.contains("unwrap"));
    }

    #[test]
    fn clean_snippet_passes() {
        let clean = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) }";
        assert!(run(clean, true).is_empty());
    }

    #[test]
    fn panic_macros_are_caught() {
        let bad = "fn f() { if a { panic!(\"x\") } else { unreachable!() } }";
        assert_eq!(run(bad, false).len(), 2);
    }

    #[test]
    fn release_asserts_are_caught_and_debug_asserts_are_not() {
        let bad = "fn f(a: u32, b: u32) {\n    assert!(a > 0);\n    assert_eq!(a, b, \"x\");\n    assert_ne!(a, 3);\n}";
        let found = run(bad, false);
        assert_eq!(found.len(), 3);
        assert_eq!(
            found.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(found[1].message.contains("assert_eq!"));
        let debug = "fn f(a: u32, b: u32) { debug_assert!(a > 0); debug_assert_eq!(a, b); debug_assert_ne!(a, b); }";
        assert!(run(debug, false).is_empty());
    }

    #[test]
    fn indexing_only_when_banned() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        assert!(run(src, false).is_empty());
        assert_eq!(run(src, true).len(), 1);
    }

    #[test]
    fn array_literals_and_attrs_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() -> [u32; 2] { [1, 2] }";
        assert!(run(src, true).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_but_is_recorded() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // analyzer: allow(no_panic, checked by caller)\n    x.unwrap()\n}";
        let found = run(src, false);
        assert_eq!(found.len(), 1);
        assert!(!found[0].denied());
        assert_eq!(found[0].allowed.as_deref(), Some("checked by caller"));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { None::<u32>.unwrap(); } }";
        assert!(run(src, true).is_empty());
    }
}
