//! Property tests for the lint lexer's totality: the lexer (and the
//! extraction layer on top of it) must accept *any* input without
//! panicking, and its per-line split must be lossless — the lint runs on
//! every `.rs` file in the workspace, including ones mid-edit, so "almost
//! valid Rust" is a normal input, not an edge case.
//!
//! Two input shapes: raw byte soup (lossy-decoded, so any UTF-8 sequence
//! including multibyte and control chars appears), and "rusty soup" —
//! fragments biased toward the lexer's state transitions (string/char/raw
//! delimiters, escapes, comment openers, braces, test markers), where a
//! state-machine bug actually lives.

use pit_lint::extract::FileIndex;
use pit_lint::lexer::{lex, test_regions};
use proptest::collection::vec;
use proptest::prelude::*;

/// Fragments that drive the lexer's state machine.
const FRAGMENTS: &[&str] = &[
    "\"",
    "\\",
    "\\\"",
    "'",
    "'a'",
    "'\\''",
    "//",
    "/*",
    "*/",
    "/**/",
    "r#\"",
    "\"#",
    "r##\"",
    "\"##",
    "b\"",
    "\n",
    "\n\n",
    "{",
    "}",
    "(",
    ")",
    "#[cfg(test)]",
    "#[test]",
    "mod tests ",
    "fn f() ",
    "enum E ",
    "const K: &str = \"v\";",
    "Mutex::named(",
    ".lock()",
    ".unwrap()",
    " ident ",
    "0x2a",
    "; ",
    "let g = ",
    " + len",
    "r\"",
    "#",
];

/// Concatenation of random fragments.
fn rusty_soup() -> impl Strategy<Value = String> {
    vec(0..FRAGMENTS.len(), 0..40)
        .prop_map(|idxs| idxs.into_iter().map(|i| FRAGMENTS[i]).collect::<String>())
}

/// Arbitrary bytes, lossy-decoded: exercises multibyte UTF-8, replacement
/// chars, NULs, and every ASCII delimiter at random positions.
fn byte_soup() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..200).prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lex_is_total_and_lossless_on_byte_soup(src in byte_soup()) {
        let lines = lex(&src);
        prop_assert_eq!(lines.len(), src.split('\n').count());
        let rejoined: Vec<&str> = lines.iter().map(|l| l.raw.as_str()).collect();
        prop_assert_eq!(rejoined.join("\n"), src);
        // The masks stay within the line, and test_regions yields one
        // verdict per line.
        for l in &lines {
            prop_assert!(l.code.chars().count() <= l.raw.chars().count());
            prop_assert!(l.comment.chars().count() <= l.raw.chars().count());
        }
        prop_assert_eq!(test_regions(&lines).len(), lines.len());
    }

    #[test]
    fn lex_is_total_and_lossless_on_rusty_soup(src in rusty_soup()) {
        let lines = lex(&src);
        prop_assert_eq!(lines.len(), src.split('\n').count());
        let rejoined: Vec<&str> = lines.iter().map(|l| l.raw.as_str()).collect();
        prop_assert_eq!(rejoined.join("\n"), src);
    }

    #[test]
    fn extraction_is_total_on_rusty_soup(src in rusty_soup()) {
        // FileIndex::build runs the full pipeline: lexer, test regions,
        // span extraction, lock-site capture. None of it may panic, and
        // every span must stay within the file.
        let idx = FileIndex::build("fuzz.rs", &src);
        let n = idx.lines.len();
        prop_assert_eq!(idx.in_test.len(), n);
        for f in &idx.fns {
            prop_assert!(f.start <= f.end && f.end < n, "{:?}", f);
        }
        for a in &idx.acquisitions {
            prop_assert!(a.line < n, "{:?}", a);
        }
    }

    #[test]
    fn rules_are_total_on_rusty_soup(src in rusty_soup()) {
        // The per-file rules run over a serving-stack path (tightest
        // scope: L1+L5+L9 all active) without panicking on any input.
        let _ = pit_lint::rules::check_file("crates/server/src/protocol.rs", &src);
    }

    #[test]
    fn rules_are_total_on_byte_soup(src in byte_soup()) {
        let _ = pit_lint::rules::check_file("crates/server/src/protocol.rs", &src);
    }
}
