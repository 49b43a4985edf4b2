//! The cross-file contract rule: the workspace analyzed as a whole, over
//! the [`crate::extract`] item layer.
//!
//! - **L8 static lock-order** — the acquisition graph of the named locks
//!   (direct nesting plus an intra-crate call-graph approximation) must be
//!   acyclic and must not contradict the declared engine→cache order.

use crate::extract::{Acquisition, FileIndex};
use crate::rules::Violation;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The declared lock order (DESIGN §10/§14): a thread holding the first
/// lock may take the second, never the reverse.
const DECLARED_LOCK_ORDER: &[(&str, &str)] = &[("server.state.engine", "server.cache.lru")];

/// Method names too generic to resolve through the call-graph
/// approximation: they collide with std container methods, so `map.get(…)`
/// must not be read as a call into a same-named lock-taking fn.
const UNRESOLVABLE_METHODS: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "get",
    "insert",
    "remove",
    "len",
    "is_empty",
    "push",
    "pop",
    "clear",
    "join",
    "send",
    "recv",
    "next",
    "take",
    "contains",
    "iter",
    "drain",
    "extend",
    "write",
    "read",
    "lock",
    "push_front",
    "record",
    "top",
    "unlink",
];

/// Run the contract rule over the workspace. Vendored sources are out of
/// contract scope.
pub fn check(files: &[FileIndex]) -> Vec<Violation> {
    let files: Vec<&FileIndex> = files
        .iter()
        .filter(|f| !f.rel.starts_with("vendor/"))
        .collect();
    let mut out = Vec::new();
    l8_lock_order(&files, &mut out);
    out
}

fn violation(rule: &'static str, file: &FileIndex, line0: usize, message: String) -> Violation {
    Violation {
        rule,
        path: file.rel.clone(),
        line: line0 + 1,
        raw: file
            .lines
            .get(line0)
            .map(|l| l.raw.clone())
            .unwrap_or_default(),
        message,
    }
}

/// One lock-taking function, flattened for the L8 graph walk.
struct LockFn {
    crate_key: String,
    file_idx: usize,
    name: String,
    start: usize,
    end: usize,
    /// (lock name, line, col, live-until line) — acquisitions with a
    /// surviving guard are live to `live_end`; temporaries only on their
    /// own line (col-ordered).
    acqs: Vec<(String, usize, usize, usize)>,
    /// (callee fn name, line, col)
    calls: Vec<(String, usize, usize)>,
}

fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(c)) => format!("crates/{c}"),
        _ => "root".to_string(),
    }
}

/// L8: build the acquisition graph and fail on cycles or declared-order
/// contradictions.
fn l8_lock_order(files: &[&FileIndex], out: &mut Vec<Violation>) {
    // Lock bindings are file-local: binding name → diagnostic lock name.
    let mut lock_fns: Vec<LockFn> = Vec::new();
    let mut fn_names: HashMap<String, HashMap<String, Vec<usize>>> = HashMap::new();
    for (file_idx, f) in files.iter().enumerate() {
        if crate::rules::is_test_path(&f.rel) {
            continue;
        }
        let bindings: HashMap<&str, &str> = f
            .locks
            .iter()
            .map(|l| (l.binding.as_str(), l.lock_name.as_str()))
            .collect();
        let ck = crate_key(&f.rel);
        for span in &f.fns {
            if f.in_test[span.start] {
                continue;
            }
            let acqs = span_acquisitions(f, span.start, span.end, &bindings);
            let id = lock_fns.len();
            lock_fns.push(LockFn {
                crate_key: ck.clone(),
                file_idx,
                name: span.name.clone(),
                start: span.start,
                end: span.end,
                acqs,
                calls: Vec::new(),
            });
            fn_names
                .entry(ck.clone())
                .or_default()
                .entry(span.name.clone())
                .or_default()
                .push(id);
        }
    }

    // Call sites, resolved intra-crate: bare calls prefer a same-file fn;
    // method calls resolve only when the name is crate-unique and not a
    // std-colliding method name.
    for id in 0..lock_fns.len() {
        let (ck, file_idx, start, end) = {
            let lf = &lock_fns[id];
            (lf.crate_key.clone(), lf.file_idx, lf.start, lf.end)
        };
        let f = files[file_idx];
        let names = &fn_names[&ck];
        let mut calls = Vec::new();
        for line in start..=end.min(f.lines.len() - 1) {
            if f.in_test[line] {
                continue;
            }
            for (callee, col, is_method) in call_sites_on_line(&f.lines[line].code) {
                let Some(candidates) = names.get(&callee) else {
                    continue;
                };
                let target_ok = if is_method {
                    candidates.len() == 1 && !UNRESOLVABLE_METHODS.contains(&callee.as_str())
                } else {
                    candidates.len() == 1
                        || candidates.iter().any(|c| lock_fns[*c].file_idx == file_idx)
                };
                if target_ok {
                    calls.push((callee, line, col));
                }
            }
        }
        lock_fns[id].calls = calls;
    }

    // Transitive lock sets per fn (what a call into it may acquire).
    let mut memo: Vec<Option<BTreeSet<String>>> = vec![None; lock_fns.len()];
    for id in 0..lock_fns.len() {
        trans_locks(id, &lock_fns, &fn_names, &mut memo, &mut Vec::new());
    }

    // Edges: lock A held → lock B acquired, with first provenance.
    let mut edges: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    for lf in &lock_fns {
        let f = files[lf.file_idx];
        for (held, h_line, h_col, h_end) in &lf.acqs {
            let live_at = |line: usize, col: usize| {
                (line == *h_line && col > *h_col) || (line > *h_line && line <= *h_end)
            };
            for (later, l_line, l_col, _) in &lf.acqs {
                if later != held && live_at(*l_line, *l_col) {
                    edges.entry((held.clone(), later.clone())).or_insert((
                        f.rel.clone(),
                        *l_line,
                        format!("`{later}` acquired in `{}` while `{held}` is held", lf.name),
                    ));
                }
            }
            for (callee, c_line, c_col) in &lf.calls {
                if !live_at(*c_line, *c_col) {
                    continue;
                }
                let Some(resolved) =
                    resolve_call(&lf.crate_key, callee, lf.file_idx, &lock_fns, &fn_names)
                else {
                    continue;
                };
                if let Some(set) = &memo[resolved] {
                    for t in set {
                        if t != held {
                            edges.entry((held.clone(), t.clone())).or_insert((
                                f.rel.clone(),
                                *c_line,
                                format!(
                                    "call `{callee}(…)` in `{}` acquires `{t}` while \
                                     `{held}` is held",
                                    lf.name
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // Declared-order contradictions.
    for (first, second) in DECLARED_LOCK_ORDER {
        if let Some((path, line, detail)) = edges.get(&(second.to_string(), first.to_string())) {
            let file = files.iter().find(|f| f.rel == *path).expect("edge file");
            out.push(violation(
                "L8",
                file,
                *line,
                format!(
                    "lock order contradicts DESIGN's declared `{first}` → `{second}`: \
                     {detail}"
                ),
            ));
        }
    }

    // Cycles.
    for cycle in find_cycles(&edges) {
        let (path, line, detail) = &edges[&(cycle[0].clone(), cycle[1].clone())];
        let file = files.iter().find(|f| f.rel == *path).expect("edge file");
        out.push(violation(
            "L8",
            file,
            *line,
            format!(
                "lock-order cycle {} — two threads interleaving these \
                 acquisitions deadlock; first edge: {detail}",
                cycle.join(" → ")
            ),
        ));
    }
}

/// Acquisitions inside a fn span, with guard liveness resolved: a named
/// guard lives until `drop(guard)` or the span end; a temporary lives only
/// on its own line.
fn span_acquisitions(
    f: &FileIndex,
    start: usize,
    end: usize,
    bindings: &HashMap<&str, &str>,
) -> Vec<(String, usize, usize, usize)> {
    let mut out = Vec::new();
    for a in &f.acquisitions {
        if a.line < start || a.line > end || f.in_test[a.line] {
            continue;
        }
        let Some(lock) = bindings.get(a.binding.as_str()) else {
            continue; // an unnamed lock, or not a lock at all
        };
        let live_end = match &a.guard {
            None => a.line,
            Some(g) => drop_line(f, a, g, end),
        };
        out.push((lock.to_string(), a.line, a.col, live_end));
    }
    out
}

/// The line a guard is dropped on, or the span end if it lives to scope
/// exit. Explicit `drop(g)` only — early scope ends inside the fn are not
/// modeled (over-approximation, documented in DESIGN §15).
fn drop_line(f: &FileIndex, a: &Acquisition, guard: &str, span_end: usize) -> usize {
    let needle = format!("drop({guard})");
    ((a.line + 1)..=span_end.min(f.lines.len() - 1))
        .find(|&i| {
            let squashed: String = f.lines[i]
                .code
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect();
            squashed.contains(&needle)
        })
        .unwrap_or(span_end)
}

/// `(callee, col, is_method)` for each `ident(` on the line. Skips control
/// keywords and macro invocations (`ident!(`).
fn call_sites_on_line(code: &str) -> Vec<(String, usize, bool)> {
    const KEYWORDS: &[&str] = &[
        "if", "while", "match", "for", "loop", "return", "fn", "let", "in", "as", "move", "else",
    ];
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !(chars[i].is_alphabetic() || chars[i] == '_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        let ident: String = chars[start..i].iter().collect();
        if chars.get(i) != Some(&'(') || KEYWORDS.contains(&ident.as_str()) {
            continue;
        }
        let is_method = start > 0 && chars[start - 1] == '.';
        // `Path::ident(` associated calls count as bare (same-crate item).
        out.push((ident, start, is_method));
    }
    out
}

fn resolve_call(
    ck: &str,
    callee: &str,
    caller_file: usize,
    lock_fns: &[LockFn],
    fn_names: &HashMap<String, HashMap<String, Vec<usize>>>,
) -> Option<usize> {
    let candidates = fn_names.get(ck)?.get(callee)?;
    candidates
        .iter()
        .find(|c| lock_fns[**c].file_idx == caller_file)
        .or_else(|| candidates.first())
        .copied()
}

/// All lock names a call into `id` may end up acquiring (direct plus
/// transitive through resolved calls). Cycle-safe.
fn trans_locks(
    id: usize,
    lock_fns: &[LockFn],
    fn_names: &HashMap<String, HashMap<String, Vec<usize>>>,
    memo: &mut Vec<Option<BTreeSet<String>>>,
    visiting: &mut Vec<usize>,
) -> BTreeSet<String> {
    if let Some(set) = &memo[id] {
        return set.clone();
    }
    if visiting.contains(&id) {
        return BTreeSet::new(); // recursion: the fixpoint is fine for reporting
    }
    visiting.push(id);
    let mut set: BTreeSet<String> = lock_fns[id].acqs.iter().map(|(l, ..)| l.clone()).collect();
    let calls = lock_fns[id].calls.clone();
    for (callee, ..) in &calls {
        if let Some(resolved) = resolve_call(
            &lock_fns[id].crate_key,
            callee,
            lock_fns[id].file_idx,
            lock_fns,
            fn_names,
        ) {
            set.extend(trans_locks(resolved, lock_fns, fn_names, memo, visiting));
        }
    }
    visiting.pop();
    memo[id] = Some(set.clone());
    set
}

/// Cycles in the edge graph, each reported once as a node path
/// `[a, b, …, a]`.
fn find_cycles(edges: &BTreeMap<(String, String), (String, usize, String)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut cycles = Vec::new();
    for start in nodes {
        // DFS from `start`; a path closing back to `start` is a cycle.
        // Each cycle is reported once: from its smallest node.
        let mut stack = vec![(start, 0usize)];
        let mut path = vec![start];
        let mut seen: BTreeSet<&str> = std::iter::once(start).collect();
        while let Some(&(node, next)) = stack.last() {
            let nbrs: &[&str] = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next >= nbrs.len() {
                stack.pop();
                path.pop();
                continue;
            }
            stack.last_mut().expect("nonempty").1 += 1;
            let nb = nbrs[next];
            if nb == start {
                if path.iter().all(|n| *n >= start) {
                    let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    cycle.push(start.to_string());
                    cycles.push(cycle);
                }
                continue;
            }
            if seen.insert(nb) {
                stack.push((nb, 0));
                path.push(nb);
            }
        }
    }
    cycles
}
