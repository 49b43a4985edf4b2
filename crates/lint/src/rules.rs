//! The per-file rules. Each works on [`crate::lexer::SourceLine`]s —
//! comment- and string-aware, so `// panic!` and `"unwrap()"` never match —
//! and skips test regions where the rule is about production behaviour.
//! The cross-file lock-order rule (L8) lives in [`crate::contracts`].
//!
//! - **L1** — no panic-capable calls (`unwrap`/`expect`/`panic!`/…) in the
//!   serving stack (`crates/server/src`, `crates/search/src`,
//!   `crates/router/src`, `crates/obs/src`) or the root crate's
//!   serving-adjacent modules, outside test code, except via a justified
//!   allowlist entry.
//! - **L2** — every `unsafe` block/impl/trait carries a `// SAFETY:`
//!   comment on the same line or in the contiguous comment block above.
//! - **L3** — `Ordering::Relaxed` only on allowlisted pure counters;
//!   `Ordering::SeqCst` never without a written justification.
//! - **L4** — no wall-clock or sleeping (`Instant::now`, `SystemTime::now`,
//!   `thread::sleep`) inside the deterministic engine crates.
//! - **L5** — in `protocol.rs`, no allocation sized by untrusted input
//!   without a `MAX_…` bound check in the preceding lines.
//! - **L9** — in the wire protocol and the snapshot load paths, no raw
//!   `+`/`*`/`<<` arithmetic on a length-derived value: overflow on an
//!   attacker- or disk-supplied length must be impossible, so the value is
//!   either pre-bounded against a `MAX_…` constant or combined with
//!   `checked_*`/`saturating_*` forms.
//!
//! Rules *emit every candidate site*; the allowlist is applied afterwards
//! (see [`crate::allowlist::Allowlist::apply`]) so an entry can be checked
//! for matching exactly one site.

use crate::lexer::{find_token, lex, test_regions, SourceLine};

/// One rule violation at a specific line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id: "L1".."L9".
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation of what was matched and what to do.
    pub message: String,
    /// The raw source line, verbatim — what allowlist needles match.
    pub raw: String,
}

/// Crates whose `src/` may not call into panics (rule L1): the concurrent
/// serving stack, where a stray panic kills a worker or poisons a lock,
/// and the observability crate its hot paths call into.
const L1_SCOPE: &[&str] = &[
    "crates/server/src/",
    "crates/search/src/",
    "crates/router/src/",
    "crates/obs/src/",
];

/// Root-crate modules on the serving path (snapshot load, delta apply,
/// query execution) held to the same no-panic bar as the serving crates.
const L1_FILES: &[&str] = &["src/engine.rs", "src/update.rs", "src/store.rs"];

/// Panic-capable tokens forbidden by L1.
const L1_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Crates whose `src/` must be deterministic (rule L4): the offline engine,
/// where identical inputs must produce identical summaries and rankings.
const L4_SCOPE: &[&str] = &[
    "crates/graph/src/",
    "crates/topics/src/",
    "crates/walk/src/",
    "crates/summarize/src/",
    "crates/index/src/",
    "crates/search/src/",
];

/// Wall-clock / scheduling tokens forbidden by L4.
const L4_TOKENS: &[&str] = &["Instant::now", "SystemTime::now", "thread::sleep"];

/// Atomic-ordering tokens audited by L3.
const L3_TOKENS: &[&str] = &["Ordering::Relaxed", "Ordering::SeqCst"];

/// How far back (in lines) L5 and L9 look for a `MAX_…` bound check before
/// a dynamically-sized allocation or a length arithmetic site.
const BOUND_LOOKBACK: usize = 40;

/// Files whose length arithmetic L9 audits: the wire protocol (lengths come
/// from the socket) and the snapshot, corpus-file and shard-manifest load
/// paths (lengths come from disk).
const L9_SCOPE: &[&str] = &[
    "crates/server/src/protocol.rs",
    "src/store.rs",
    "src/shard.rs",
    "crates/graph/src/snapshot.rs",
    "crates/topics/src/snapshot.rs",
    "crates/search/src/snapshot.rs",
];

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel.starts_with(p))
}

/// Integration tests, benches, and build scripts are exempt from every rule
/// except L2 (`unsafe` needs a SAFETY story no matter where it lives).
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.ends_with("build.rs")
}

/// Check one file against the per-file rules, returning every candidate
/// site (the allowlist has not been consulted).
pub fn check_file(rel: &str, source: &str) -> Vec<Violation> {
    let lines = lex(source);
    let in_test = test_regions(&lines);
    check_lines(rel, &lines, &in_test)
}

/// [`check_file`] over already-lexed lines, so callers that also extract
/// items (the lock-order rule) lex each file once.
pub fn check_lines(rel: &str, lines: &[SourceLine], in_test: &[bool]) -> Vec<Violation> {
    let test_file = is_test_path(rel);
    let mut violations = Vec::new();

    let mut emit = |rule: &'static str, idx: usize, message: String, raw: &str| {
        violations.push(Violation {
            rule,
            path: rel.to_string(),
            line: idx + 1,
            message,
            raw: raw.to_string(),
        });
    };

    for (idx, line) in lines.iter().enumerate() {
        let live = !test_file && !in_test[idx];

        // L1: panic-capable calls in the serving stack.
        if live && (in_scope(rel, L1_SCOPE) || L1_FILES.contains(&rel)) {
            for tok in L1_TOKENS {
                if find_token(&line.code, tok).is_some() && !is_inside_debug_assert(&line.code, tok)
                {
                    emit(
                        "L1",
                        idx,
                        format!(
                            "panic-capable `{tok}` in serving-stack code; return an error, \
                             or add a lint.allow entry stating the invariant that makes it \
                             unreachable"
                        ),
                        &line.raw,
                    );
                }
            }
        }

        // L2: unsafe without SAFETY. Applies everywhere, including tests.
        if let Some(pos) = find_token(&line.code, "unsafe") {
            let after = line.code[pos + "unsafe".len()..].trim_start();
            // `unsafe fn` declarations are the *obligation* side; their
            // bodies are policed by `deny(unsafe_op_in_unsafe_fn)`, which
            // forces inner `unsafe {}` blocks that L2 then covers.
            let is_fn_decl = after.starts_with("fn ") || after.starts_with("fn(");
            if !is_fn_decl && !has_safety_comment(lines, idx) {
                emit(
                    "L2",
                    idx,
                    "`unsafe` without a `// SAFETY:` comment on the same line or in the \
                     contiguous comment block above"
                        .to_string(),
                    &line.raw,
                );
            }
        }

        // L3: atomic orderings are an audited resource.
        if live {
            for tok in L3_TOKENS {
                if find_token(&line.code, tok).is_some() {
                    let why = if *tok == "Ordering::Relaxed" {
                        "only pure counters may be Relaxed"
                    } else {
                        "SeqCst is never the answer without a written argument"
                    };
                    emit(
                        "L3",
                        idx,
                        format!("`{tok}` requires a justified lint.allow entry ({why})"),
                        &line.raw,
                    );
                }
            }
        }

        // L4: determinism of the engine crates.
        if live && in_scope(rel, L4_SCOPE) {
            for tok in L4_TOKENS {
                if find_token(&line.code, tok).is_some() {
                    emit(
                        "L4",
                        idx,
                        format!(
                            "nondeterministic `{tok}` in a deterministic engine crate; \
                             thread timing or wall-clock must not influence results"
                        ),
                        &line.raw,
                    );
                }
            }
        }

        // L5: untrusted-length allocation in the wire protocol.
        if live && rel.ends_with("protocol.rs") && rel.contains("/src/") {
            if let Some(site) = dynamic_alloc_site(&line.code) {
                if !bound_in_lookback(lines, idx) {
                    emit(
                        "L5",
                        idx,
                        format!(
                            "allocation `{site}` is sized by a runtime value with no \
                             `MAX_…` bound check in the preceding {BOUND_LOOKBACK} lines — \
                             validate the length before allocating"
                        ),
                        &line.raw,
                    );
                }
            }
        }

        // L9: length arithmetic in wire/snapshot paths must be checked or
        // provably pre-bounded.
        if live && in_scope(rel, L9_SCOPE) {
            for site in length_arith_sites(&line.code) {
                if !bound_in_lookback(lines, idx) {
                    emit(
                        "L9",
                        idx,
                        format!(
                            "unchecked `{site}` on a length-derived value; a wire- or \
                             disk-supplied length can overflow here — use `checked_*`/\
                             `saturating_*`, or bound it against a `MAX_…` constant in \
                             the preceding {BOUND_LOOKBACK} lines"
                        ),
                        &line.raw,
                    );
                }
            }
        }
    }

    violations
}

/// Is there a `MAX_…` mention in the `BOUND_LOOKBACK` lines up to and
/// including `idx`? Shared by L5 and L9: a named maximum nearby is the
/// evidence the value was bounded before use.
fn bound_in_lookback(lines: &[SourceLine], idx: usize) -> bool {
    lines[idx.saturating_sub(BOUND_LOOKBACK)..=idx]
        .iter()
        .any(|l| l.code.contains("MAX_"))
}

/// `debug_assert!` and friends compile out of release builds; a `panic!`
/// inside one is not a serving-path panic. Crude but sufficient: the token
/// appears after a `debug_assert` on the same line.
fn is_inside_debug_assert(code: &str, tok: &str) -> bool {
    match (code.find("debug_assert"), find_token(code, tok)) {
        (Some(da), Some(at)) => da < at,
        _ => false,
    }
}

/// Does the `unsafe` at line `idx` carry a SAFETY comment? Accepts the same
/// line's trailing comment or a contiguous block of comment/attribute lines
/// directly above.
fn has_safety_comment(lines: &[SourceLine], idx: usize) -> bool {
    if lines[idx].comment.contains("SAFETY") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code = l.code.trim();
        let is_comment_or_attr = code.is_empty() || code.starts_with("#[");
        if !is_comment_or_attr {
            return false;
        }
        if l.comment.contains("SAFETY") {
            return true;
        }
        if code.is_empty() && l.comment.is_empty() {
            // A fully blank line ends the contiguous block.
            return false;
        }
    }
    false
}

/// If this line allocates with a runtime-dependent size, return the matched
/// token for the diagnostic. Literal sizes (`with_capacity(16)`,
/// `vec![0u8; 4]`) are fine; any identifier in the size expression makes it
/// dynamic. A size mentioning `MAX` is itself the bound, so it passes.
fn dynamic_alloc_site(code: &str) -> Option<&'static str> {
    for (tok, close, sep) in [
        ("with_capacity(", ')', None),
        (".reserve(", ')', None),
        ("vec![", ']', Some(';')),
    ] {
        if let Some(at) = code.find(tok) {
            let mut args = clip_to_close(&code[at + tok.len()..], close);
            if let Some(sep) = sep {
                // `vec![elem; len]` — only the length is a size; the list
                // form `vec![a, b]` has a static length.
                match args.find(sep) {
                    Some(p) => args = &args[p + 1..],
                    None => continue,
                }
            }
            if args.contains("MAX") {
                continue;
            }
            if has_dynamic_ident(args) {
                return Some(tok);
            }
        }
    }
    None
}

/// Truncate `rest` (the text just after an opening `(`/`[`) at its matching
/// close, so the rest of the line never leaks into the size expression.
/// Falls back to the whole remainder for multi-line calls.
fn clip_to_close(rest: &str, close: char) -> &str {
    let open = if close == ')' { '(' } else { '[' };
    let mut depth = 1i32;
    for (i, c) in rest.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return &rest[..i];
            }
        }
    }
    rest
}

/// Any maximal identifier run starting with a letter or `_` (so `0u8` and
/// `16` don't count) marks the expression as runtime-dependent.
fn has_dynamic_ident(expr: &str) -> bool {
    let mut chars = expr.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_alphabetic() || c == '_' {
            return true;
        }
        if c.is_ascii_digit() {
            // Swallow the rest of the numeric literal (incl. type suffix).
            while chars
                .peek()
                .is_some_and(|n| n.is_alphanumeric() || *n == '_')
            {
                chars.next();
            }
        }
    }
    false
}

/// The `+`/`*`/`<<` sites on this line where an operand is length-derived
/// and the arithmetic is not already a checked/saturating form. Returns
/// `"left OP right"` descriptions for diagnostics.
fn length_arith_sites(code: &str) -> Vec<String> {
    // A checked/saturating/wrapping form on the line is the fix this rule
    // asks for; don't flag the operators inside its argument expressions.
    if ["checked_", "saturating_", "wrapping_"]
        .iter()
        .any(|p| code.contains(p))
    {
        return Vec::new();
    }
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let (op, width) = match chars[i] {
            '+' if chars.get(i + 1) == Some(&'+') => {
                i += 2;
                continue;
            }
            '+' => ("+", 1),
            '<' if chars.get(i + 1) == Some(&'<') => ("<<", 2),
            '<' => {
                i += 1;
                continue;
            }
            '*' => {
                // Binary `*` only: a deref/raw-pointer star follows an
                // operator or delimiter, a multiplication follows a value.
                let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
                let binary = prev
                    .is_some_and(|c| c.is_alphanumeric() || *c == '_' || *c == ')' || *c == ']');
                if !binary {
                    i += 1;
                    continue;
                }
                ("*", 1)
            }
            _ => {
                i += 1;
                continue;
            }
        };
        let left = operand_left(&chars, i);
        // `+=` / `<<=` assign back into the left operand; skip the `=`.
        let mut rhs_from = i + width;
        if chars.get(rhs_from) == Some(&'=') {
            rhs_from += 1;
        }
        let right = operand_right(&chars, rhs_from);
        i += width;
        let (Some(left), Some(right)) = (left, right) else {
            continue;
        };
        if !is_lengthish(&left) && !is_lengthish(&right) {
            continue;
        }
        if left.contains("MAX") || right.contains("MAX") {
            continue;
        }
        if is_literal_operand(&left) && is_literal_operand(&right) {
            continue;
        }
        out.push(format!("{left} {op} {right}"));
    }
    out
}

fn is_operand_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

/// The operand expression ending just before position `op` (scanning left
/// over an identifier/field/call chain like `bytes.len()`).
fn operand_left(chars: &[char], op: usize) -> Option<String> {
    let mut j = op;
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    // A trailing call: step over `(…)` back to the callee chain, so
    // `bytes.len() + 4` reads its left operand as `bytes.len()`.
    let mut call = false;
    if j > 0 && chars[j - 1] == ')' {
        call = true;
        let mut depth = 0i32;
        while j > 0 {
            j -= 1;
            match chars[j] {
                ')' => depth += 1,
                '(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = j;
    while j > 0 && is_operand_char(chars[j - 1]) {
        j -= 1;
    }
    let mut s: String = chars[j..end].iter().collect();
    if call {
        s.push_str("()");
    }
    (!s.is_empty()).then_some(s)
}

/// The operand expression starting at/after position `from` (an
/// identifier/field chain, optionally ending in a call like `.len()`).
fn operand_right(chars: &[char], from: usize) -> Option<String> {
    let mut j = from;
    while chars.get(j).is_some_and(|c| c.is_whitespace()) {
        j += 1;
    }
    // A leading `&`/`(` wrapper — step inside.
    while chars.get(j).is_some_and(|c| *c == '&' || *c == '(') {
        j += 1;
    }
    let mut out = String::new();
    while chars.get(j).is_some_and(|c| is_operand_char(*c)) {
        out.push(chars[j]);
        j += 1;
    }
    if chars.get(j) == Some(&'(') {
        out.push_str("()");
    }
    (!out.is_empty()).then_some(out)
}

/// Does this operand smell like a length/size/count?
fn is_lengthish(operand: &str) -> bool {
    let lower = operand.to_ascii_lowercase();
    ["len", "size", "count", "byte", "cap"]
        .iter()
        .any(|n| lower.contains(n))
}

/// Digits-only (with `_` separators and type suffixes): a compile-time
/// constant, not a runtime length.
fn is_literal_operand(operand: &str) -> bool {
    operand.starts_with(|c: char| c.is_ascii_digit())
        && operand.chars().all(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Violation> {
        check_file(rel, src)
    }

    #[test]
    fn l1_fires_only_in_scope_and_outside_tests() {
        let src = "fn f() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let v = check("crates/server/src/pool.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("L1", 1));
        assert!(
            check("crates/graph/src/lib.rs", src).is_empty(),
            "out of scope"
        );
        assert!(
            check("crates/server/tests/x.rs", src).is_empty(),
            "test file"
        );
    }

    #[test]
    fn l1_scope_covers_the_event_loop_front_end_modules() {
        // The connection front-end lives in files added long after the
        // scope was written (conn.rs, event.rs, cache.rs); the prefix
        // match must pick them up without anyone editing L1_SCOPE.
        let src = "fn f() { x.unwrap(); thread::sleep(d); }\n";
        for rel in [
            "crates/server/src/conn.rs",
            "crates/server/src/event.rs",
            "crates/server/src/cache.rs",
        ] {
            let v = check(rel, src);
            assert_eq!(v.len(), 1, "{rel}: {v:?}");
            assert_eq!(v[0].rule, "L1", "{rel} must sit inside L1 scope");
        }
        // Same source inside the engine crates trips L4 as well: the
        // server may sleep (its readiness backoff), the engine may not.
        let v = check("crates/search/src/newmod.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn l1_scope_covers_obs_and_root_serving_modules() {
        let src = "fn f() { x.unwrap(); }\n";
        for rel in [
            "crates/obs/src/ring.rs",
            "src/engine.rs",
            "src/update.rs",
            "src/store.rs",
        ] {
            let v = check(rel, src);
            assert_eq!(v.len(), 1, "{rel}: {v:?}");
            assert_eq!(v[0].rule, "L1");
        }
        // Other root-crate modules (offline pipeline) may unwrap.
        assert!(check("src/figures.rs", src).is_empty());
    }

    #[test]
    fn l1_ignores_comments_strings_and_debug_asserts() {
        let src = "fn f() {\n\
                   // x.unwrap() would be wrong\n\
                   let s = \"panic!\";\n\
                   debug_assert!(ok, \"bad\");\n\
                   }\n";
        assert!(check("crates/server/src/lib.rs", src).is_empty());
        let src = "fn f() { debug_assert!(m.get(k).is_some()); m.get(k).unwrap(); }\n";
        // The unwrap is *outside* the debug_assert — crude heuristic keeps
        // it quiet only when the assert precedes it on the line.
        assert!(check("crates/server/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l2_requires_safety_comments() {
        let bad = "fn f() { unsafe { do_it() } }\n";
        let v = check("crates/eval/src/alloc.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L2");

        let same_line = "fn f() { unsafe { do_it() } } // SAFETY: ptr is live\n";
        assert!(check("crates/eval/src/alloc.rs", same_line).is_empty());

        let above = "// SAFETY: layout came from alloc\n\
                     // and is therefore valid here\n\
                     unsafe impl GlobalAlloc for X {}\n";
        assert!(check("crates/eval/src/alloc.rs", above).is_empty());

        let gap = "// SAFETY: stale\n\nfn other() {}\nunsafe impl Send for X {}\n";
        assert_eq!(check("crates/eval/src/alloc.rs", gap).len(), 1);
    }

    #[test]
    fn l2_skips_unsafe_fn_declarations() {
        let src = "unsafe fn alloc(&self) -> *mut u8 { inner() }\n";
        assert!(check("crates/eval/src/alloc.rs", src).is_empty());
    }

    #[test]
    fn l3_flags_relaxed_and_seqcst_everywhere() {
        let src = "fn f(c: &AtomicU64) {\n\
                   c.fetch_add(1, Ordering::Relaxed);\n\
                   c.load(Ordering::SeqCst);\n\
                   c.load(Ordering::Acquire);\n\
                   }\n";
        let v = check("crates/walk/src/lib.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "L3"));
    }

    #[test]
    fn l4_fires_in_engine_crates_only() {
        let src = "fn f() { let t = Instant::now(); std::thread::sleep(d); }\n";
        assert_eq!(check("crates/search/src/cancel.rs", src).len(), 2);
        assert!(
            check("crates/server/src/lib.rs", src).is_empty(),
            "server may time"
        );
        assert!(
            check("crates/bench/src/harness.rs", src).is_empty(),
            "bench may time"
        );
    }

    #[test]
    fn l5_requires_bound_before_dynamic_alloc() {
        let bad = "fn read(len: usize) { let buf = vec![0u8; len]; }\n";
        let v = check("crates/server/src/protocol.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L5");

        let good = "fn read(len: usize) {\n\
                    if len > MAX_FRAME_BYTES { return; }\n\
                    let buf = vec![0u8; len];\n\
                    }\n";
        assert!(check("crates/server/src/protocol.rs", good).is_empty());

        let static_sizes = "fn f() { let v = vec![0u8; 16]; let w = Vec::with_capacity(8); }\n";
        assert!(check("crates/server/src/protocol.rs", static_sizes).is_empty());

        // Other files are out of scope for L5.
        assert!(check("crates/server/src/cache.rs", bad).is_empty());
    }

    #[test]
    fn l9_flags_unchecked_length_arithmetic() {
        let bad = "fn f(len: usize) { let total = 4 + len; }\n";
        // Out of L9 scope: nothing.
        assert!(check("crates/server/src/conn.rs", bad).is_empty());
        let v = check("src/store.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "L9");
        assert!(v[0].message.contains("4 + len"), "{}", v[0].message);

        let shifted = "fn f(count: usize) { let bytes = count << 3; }\n";
        assert_eq!(check("src/shard.rs", shifted).len(), 1);

        let mult = "fn f(n_bytes: usize) { let total = n_bytes * 8; }\n";
        assert_eq!(check("src/store.rs", mult).len(), 1);
    }

    #[test]
    fn l9_accepts_checked_bounded_or_constant_arithmetic() {
        // checked_* is the requested fix.
        let checked = "fn f(len: usize) { let t = len.checked_add(4)?; }\n";
        assert!(check("src/store.rs", checked).is_empty());
        // A MAX_ bound in the lookback window proves the value small.
        let bounded = "fn f(len: usize) {\n\
                       if len > MAX_FRAME_BYTES { return; }\n\
                       let total = 4 + len;\n\
                       }\n";
        assert!(check("crates/server/src/protocol.rs", bounded).is_empty());
        // Literal-only arithmetic (header layouts) is compile-time.
        let literal = "fn f(meta: &[u8]) { let ok = meta.len() != 4 + 1 + 1 + 4; }\n";
        assert!(check("src/store.rs", literal).is_empty());
        // Non-length arithmetic (scores, trait bounds, derefs) is not L9's
        // business.
        let other =
            "fn f<T: Read + Write>(x: f64, p: *const u32) { let y = x * 2.0; let v = *p; }\n";
        assert!(check("src/store.rs", other).is_empty());
    }
}
