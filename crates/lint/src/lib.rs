//! pit-lint: workspace-aware static analysis for the PIT-Search repo.
//!
//! Rules clippy cannot express because they encode *this repo's* invariants:
//! which crates must never panic (the concurrent serving stack), which must
//! be deterministic (the offline engine), which atomics orderings are
//! audited, where untrusted lengths must be bounded before arithmetic — and
//! one cross-file contract: named locks must be acquired in one global
//! order ([`contracts`] L8). Run it as
//! `cargo run -p pit-lint -- --deny`; CI treats a non-zero exit as a build
//! failure.
//!
//! Exceptions live in `lint.allow` at the workspace root — one justified
//! entry per waived *site* (single-match semantics, see [`allowlist`]).
//! Unused or ambiguous entries fail the run, so the allowlist tracks the
//! code it excuses.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod contracts;
pub mod extract;
pub mod lexer;
pub mod rules;

use allowlist::Allowlist;
use extract::FileIndex;
use rules::Violation;
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unwaived violations, in path/line order.
    pub violations: Vec<Violation>,
    /// Sites matched by a rule but excused by a justified allowlist entry.
    pub waived: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Allowlist entries that matched nothing — stale waivers, reported as
    /// errors by the CLI.
    pub unused_allow: Vec<String>,
    /// Allowlist entries that matched more than one site without a line
    /// anchor — over-broad waivers, reported as errors by the CLI.
    pub allow_errors: Vec<String>,
}

impl LintReport {
    /// Does the run pass (no violations, no stale or ambiguous allowlist
    /// entries)?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_allow.is_empty() && self.allow_errors.is_empty()
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Recursively collect every `.rs` file under `root`, sorted for stable
/// output.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint every `.rs` file under `root` against `allow`: lex and index each
/// file once, run the per-file rules (L1–L5, L9) and the cross-file
/// lock-order rule (L8), then apply the allowlist to the combined set.
pub fn run(root: &Path, allow: &Allowlist) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut indices = Vec::new();
    let mut candidates = Vec::new();
    for path in collect_rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        let index = FileIndex::build(&rel, &source);
        candidates.extend(rules::check_lines(&rel, &index.lines, &index.in_test));
        indices.push(index);
        report.files_scanned += 1;
    }
    candidates.extend(contracts::check(&indices));
    candidates.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let applied = allow.apply(candidates);
    report.violations = applied.violations;
    report.waived = applied.waived;
    report.allow_errors = applied.errors;
    report.unused_allow = allow
        .unused()
        .iter()
        .map(|e| {
            format!(
                "lint.allow:{}: unused entry ({} | {} | {}) — the code it excused is gone; delete it",
                e.line, e.rule, e.path, e.needle
            )
        })
        .collect();
    Ok(report)
}

/// Walk up from `start` to the directory containing the workspace-root
/// `Cargo.toml` (the one with a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
