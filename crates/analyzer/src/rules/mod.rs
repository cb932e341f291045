//! The rule engine: one module per rule, plus the token-stream
//! helpers they share (test-region masking, balanced-group skipping).
//!
//! Every rule has the same shape — walk the token stream of one file
//! (or, for `drift`, the whole workspace), emit [`Finding`](crate::findings::Finding)s, and let
//! the caller run them through the allow machinery. All rules are
//! intraprocedural and lexical by design: they see exactly what a
//! reviewer sees, which is also what keeps them fast enough for a
//! tier-1 CI step and free of parser dependencies.

pub mod atomics;
pub mod drift;
pub mod lock_order;
pub mod no_panic;

use crate::lexer::{Token, TokenKind};

/// Rust keywords an indexing expression cannot follow (so `if x[i]`
/// is flagged via the `x` before `[`, but `for x in [1, 2]` is not).
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// Given the index of an opening delimiter token, returns the index
/// just past its matching close (or the end of the stream).
pub fn skip_balanced(tokens: &[Token], open_idx: usize) -> usize {
    let (open, close) = match tokens[open_idx].kind {
        TokenKind::Punct('(') => ('(', ')'),
        TokenKind::Punct('[') => ('[', ']'),
        TokenKind::Punct('{') => ('{', '}'),
        _ => return open_idx + 1,
    };
    let mut depth = 0usize;
    let mut i = open_idx;
    while i < tokens.len() {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
/// The no-panic, lock-order, and atomics rules skip these: tests are
/// exactly where `unwrap()` on a known-good value is idiomatic.
pub fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_end = skip_balanced(tokens, i + 1);
        let attr = &tokens[i + 2..attr_end.saturating_sub(1)];
        let is_test_attr =
            attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"));
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Find the item body this attribute decorates; an item that
        // ends in `;` before any `{` (e.g. a cfg'd `use`) has no body.
        let mut j = attr_end;
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            j += 1;
        }
        if j < tokens.len() && tokens[j].is_punct('{') {
            let body_end = skip_balanced(tokens, j);
            regions.push((i, body_end));
            i = body_end;
        } else {
            regions.push((i, j + 1));
            i = j + 1;
        }
    }
    regions
}

/// `true` when token index `i` falls inside any test region.
pub fn in_test(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|&(a, b)| a <= i && i < b)
}

/// `needle` appears in `text` as a whole word (adjacent characters are
/// not identifier-ish, so `direct` does not match inside `directly`).
pub fn contains_word(text: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let boundary =
            |c: Option<char>| c.is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '-'));
        if boundary(text[..start].chars().next_back()) && boundary(text[end..].chars().next()) {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn b() { y.unwrap(); } }\n";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions.len(), 1);
        let unwraps: Vec<usize> = lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(!in_test(&regions, unwraps[0]));
        assert!(in_test(&regions, unwraps[1]));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let lexed = lex("#[cfg(not(test))]\nfn a() { x.unwrap(); }\n");
        assert!(test_regions(&lexed.tokens).is_empty());
    }

    #[test]
    fn bodyless_cfg_test_item_excludes_nothing_after_its_semicolon() {
        let lexed = lex("#[cfg(test)]\nuse foo::bar;\nfn a() { x.unwrap(); }\n");
        let regions = test_regions(&lexed.tokens);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(!in_test(&regions, unwrap_idx));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("| direct |", "direct"));
        assert!(!contains_word("directly", "direct"));
        assert!(contains_word("uses r4csa-lut engine", "r4csa-lut"));
        assert!(!contains_word("r4csa-luthier", "r4csa-lut"));
    }
}
