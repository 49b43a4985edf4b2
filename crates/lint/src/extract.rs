//! Item extraction on top of the line lexer — the "parser" the lock-order
//! rule (L8) runs on. Deliberately shallow: spans are found by keyword
//! token + brace matching over the comment-stripped, literal-blanked code,
//! which is exactly as much structure as the rules need. What this layer
//! can and cannot see is documented in DESIGN.md §15.

use crate::lexer::{lex, test_regions, SourceLine};

/// A `fn` item: name plus 0-based inclusive line span of signature + body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    pub start: usize,
    pub end: usize,
}

/// A `Mutex::named(…)` / `RwLock::named(…)` construction site: the binding
/// (struct field or `let` name) the lock is stored under, and the
/// diagnostic name passed to `named`.
#[derive(Debug, Clone)]
pub struct LockCtor {
    pub binding: String,
    pub lock_name: String,
    pub line: usize,
}

/// A lock acquisition: `<binding>.lock()` / `.read()` / `.write()`.
/// `guard` is the `let` binding holding the guard when the statement is
/// exactly `let g = <recv>.lock();` — i.e. the guard outlives the line.
/// Acquisitions inside larger expressions are treated as line-scoped
/// temporaries.
#[derive(Debug, Clone)]
pub struct Acquisition {
    pub binding: String,
    pub guard: Option<String>,
    pub line: usize,
    /// Column (char offset into the line's code) of the acquisition token,
    /// for ordering acquisitions and calls on the same line.
    pub col: usize,
}

/// Everything the lock-order rule needs to know about one file.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub lines: Vec<SourceLine>,
    /// Per-line: inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: Vec<bool>,
    pub fns: Vec<FnSpan>,
    pub locks: Vec<LockCtor>,
    pub acquisitions: Vec<Acquisition>,
}

impl FileIndex {
    /// Lex and extract `source`. Total: any input produces an index.
    pub fn build(rel: &str, source: &str) -> FileIndex {
        let lines = lex(source);
        let in_test = test_regions(&lines);
        let map = CodeMap::build(&lines);
        let fns = find_fns(&map);
        let (locks, acquisitions) = find_locks(&lines);
        FileIndex {
            rel: rel.to_string(),
            lines,
            in_test,
            fns,
            locks,
            acquisitions,
        }
    }
}

/// Concatenated per-line `code` with char→line bookkeeping, the same
/// representation `lexer::test_regions` matches braces over.
struct CodeMap {
    chars: Vec<char>,
    line_of: Vec<usize>,
}

impl CodeMap {
    fn build(lines: &[SourceLine]) -> CodeMap {
        let mut chars = Vec::new();
        let mut line_of = Vec::new();
        for (idx, l) in lines.iter().enumerate() {
            for c in l.code.chars() {
                chars.push(c);
                line_of.push(idx);
            }
            chars.push('\n');
            line_of.push(idx);
        }
        CodeMap { chars, line_of }
    }

    fn line_at(&self, pos: usize) -> usize {
        self.line_of
            .get(pos)
            .copied()
            .unwrap_or(self.line_of.last().copied().unwrap_or(0))
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Positions where `tok` occurs as a whole word in `chars`.
fn keyword_positions(chars: &[char], tok: &str) -> Vec<usize> {
    let tok: Vec<char> = tok.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + tok.len() <= chars.len() {
        if chars[i..i + tok.len()] == tok[..] {
            let before_ok = i == 0 || !is_ident(chars[i - 1]);
            let after_ok = chars.get(i + tok.len()).is_none_or(|c| !is_ident(*c));
            if before_ok && after_ok {
                out.push(i);
            }
        }
        i += 1;
    }
    out
}

/// Read the identifier starting at the first ident char at/after `from`,
/// skipping leading whitespace only.
fn ident_after(chars: &[char], from: usize) -> Option<(String, usize)> {
    let mut j = from;
    while chars.get(j).is_some_and(|c| c.is_whitespace()) {
        j += 1;
    }
    let start = j;
    let mut name = String::new();
    while chars.get(j).is_some_and(|c| is_ident(*c)) {
        name.push(chars[j]);
        j += 1;
    }
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some((name, start))
}

/// From `from`, find the body-opening `{` (before any `;`), then its
/// matching `}`. Returns (open, close) char positions.
fn body_span(chars: &[char], from: usize) -> Option<(usize, usize)> {
    let mut j = from;
    let mut paren = 0i32;
    let open = loop {
        match chars.get(j)? {
            '(' | '[' => paren += 1,
            ')' | ']' => paren -= 1,
            '{' if paren == 0 => break j,
            ';' if paren == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    let mut depth = 0i32;
    let mut k = open;
    loop {
        match chars.get(k) {
            None => return Some((open, k.saturating_sub(1))),
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
        k += 1;
    }
}

fn find_fns(map: &CodeMap) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for p in keyword_positions(&map.chars, "fn") {
        let Some((name, name_at)) = ident_after(&map.chars, p + 2) else {
            continue; // `fn(` — a fn-pointer type, not an item.
        };
        let Some((_, close)) = body_span(&map.chars, name_at) else {
            continue; // trait method declaration without a body
        };
        out.push(FnSpan {
            name,
            start: map.line_at(p),
            end: map.line_at(close),
        });
    }
    out
}

/// Named-lock constructions and `.lock()`/`.read()`/`.write()` acquisitions,
/// line by line.
fn find_locks(lines: &[SourceLine]) -> (Vec<LockCtor>, Vec<Acquisition>) {
    let mut ctors = Vec::new();
    let mut acqs = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for ctor_tok in ["Mutex::named(", "RwLock::named("] {
            let Some(pos) = line.code.find(ctor_tok) else {
                continue;
            };
            let Some(binding) = binding_before(&line.code[..pos]) else {
                continue;
            };
            // The diagnostic name is the first string literal at or shortly
            // after the ctor (multi-line ctors put it on the next line).
            let lock_name = lines[idx..(idx + 4).min(lines.len())]
                .iter()
                .flat_map(|l| l.strings.iter())
                .next()
                .cloned();
            if let Some(lock_name) = lock_name {
                ctors.push(LockCtor {
                    binding,
                    lock_name,
                    line: idx,
                });
            }
        }
        for acq_tok in [".lock()", ".read()", ".write()"] {
            let mut from = 0;
            while let Some(p) = line.code[from..].find(acq_tok) {
                let col = from + p;
                from = col + acq_tok.len();
                let Some(binding) = trailing_ident(&line.code[..col]) else {
                    continue;
                };
                acqs.push(Acquisition {
                    guard: guard_binding(&line.code, col + acq_tok.len()),
                    binding,
                    line: idx,
                    col,
                });
            }
        }
    }
    (ctors, acqs)
}

/// The binding a lock ctor is stored under: the trailing identifier of the
/// code before it, after stripping a `:` (struct field / struct literal) or
/// `=` (let binding).
fn binding_before(prefix: &str) -> Option<String> {
    let p = prefix.trim_end();
    let p = p
        .strip_suffix(':')
        .or_else(|| p.strip_suffix('='))
        .unwrap_or(p);
    trailing_ident(p)
}

/// The maximal identifier ending `s` (ignoring trailing whitespace).
fn trailing_ident(s: &str) -> Option<String> {
    let s = s.trim_end();
    let tail: String = s
        .chars()
        .rev()
        .take_while(|c| is_ident(*c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!tail.is_empty() && !tail.starts_with(|c: char| c.is_ascii_digit())).then_some(tail)
}

/// If the statement is exactly `let g = <recv>.lock();` — the acquisition
/// ends the line (modulo `;` and whitespace) and the line starts with
/// `let` — the guard `g` outlives the statement. Anything else (a method
/// chained onto the guard, an acquisition inside a larger expression) is a
/// line-scoped temporary.
fn guard_binding(code: &str, after: usize) -> Option<String> {
    if !code[after..].trim_end().trim_end_matches(';').is_empty() {
        return None;
    }
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| is_ident(*c))
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_cover_signature_and_body() {
        let src =
            "fn one() {\n  body();\n}\n\nimpl X {\n  pub fn two(&self) -> u32 {\n    3\n  }\n}\n";
        let idx = FileIndex::build("x.rs", src);
        let names: Vec<_> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["one", "two"]);
        assert_eq!((idx.fns[0].start, idx.fns[0].end), (0, 2));
        assert_eq!((idx.fns[1].start, idx.fns[1].end), (5, 7));
    }

    #[test]
    fn fn_pointer_types_and_trait_decls_are_not_items() {
        let src = "type F = fn(u32) -> u32;\ntrait T { fn decl(&self); }\n";
        let idx = FileIndex::build("x.rs", src);
        assert!(idx.fns.is_empty(), "{:?}", idx.fns);
    }

    #[test]
    fn lock_ctors_capture_binding_and_name_across_lines() {
        let src = "Self {\n  engine: RwLock::named(\n    \"server.state.engine\",\n    initial,\n  ),\n  staged: Mutex::named(\"server.state.staged\", None),\n}\n";
        let idx = FileIndex::build("x.rs", src);
        assert_eq!(idx.locks.len(), 2);
        assert_eq!(idx.locks[0].binding, "engine");
        assert_eq!(idx.locks[0].lock_name, "server.state.engine");
        assert_eq!(idx.locks[1].binding, "staged");
        assert_eq!(idx.locks[1].lock_name, "server.state.staged");
    }

    #[test]
    fn acquisitions_distinguish_guards_from_temporaries() {
        let src = "fn f(&self) {\n  let mut slot = self.engine.write();\n  let taken = self.staged.lock().take();\n  self.inner.lock().hot.record(k);\n}\n";
        let idx = FileIndex::build("x.rs", src);
        assert_eq!(idx.acquisitions.len(), 3);
        assert_eq!(idx.acquisitions[0].binding, "engine");
        assert_eq!(idx.acquisitions[0].guard.as_deref(), Some("slot"));
        assert_eq!(idx.acquisitions[1].binding, "staged");
        assert_eq!(
            idx.acquisitions[1].guard, None,
            "chained .take() is a temporary"
        );
        assert_eq!(idx.acquisitions[2].binding, "inner");
        assert_eq!(idx.acquisitions[2].guard, None);
    }
}
