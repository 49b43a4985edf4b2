//! The lint allowlist: every exception to a rule lives in one audited file
//! (`lint.allow` at the workspace root) and must carry a written invariant
//! justification. An entry that stops matching anything fails the lint, so
//! the file cannot rot.
//!
//! Format — one entry per line, four `|`-separated fields:
//!
//! ```text
//! # rule | path | needle[ @line] | justification
//! L1 | crates/server/src/state.rs | panic!("poisoned query | fault injection: the worker pool's catch_unwind path is exercised by tests
//! L3 | crates/server/src/metrics.rs | c.load(Ordering::Relaxed); @278 | monotone counter reads, no ordering dependency
//! ```
//!
//! - **rule**: `L1`…`L9`;
//! - **path**: workspace-relative, forward slashes;
//! - **needle**: a substring of the offending raw source line. An entry is
//!   **single-site**: it must match exactly one flagged line. When the same
//!   needle appears on several flagged lines, anchor it with ` @<line>`
//!   (1-based) — an unanchored entry matching more than one site fails the
//!   run, so a waiver can never silently spread to new code;
//! - **justification**: free text, at least [`MIN_JUSTIFICATION`] chars —
//!   say *which invariant* makes the flagged pattern safe.

use crate::rules::Violation;
use std::cell::Cell;
use std::fmt;

/// Justifications shorter than this are rejected: "ok" is not an invariant.
pub const MIN_JUSTIFICATION: usize = 20;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Rule id, e.g. "L1".
    pub rule: String,
    /// Workspace-relative path the waiver applies to.
    pub path: String,
    /// Raw-line substring identifying the waived site.
    pub needle: String,
    /// Optional 1-based line anchor (` @N` suffix on the needle field).
    pub anchor: Option<usize>,
    /// The written invariant justification.
    pub justification: String,
    /// Source line in the allowlist file (for diagnostics).
    pub line: usize,
    /// Whether any violation matched this entry during the run.
    pub used: Cell<bool>,
}

/// A parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<Entry>,
}

/// The outcome of applying the allowlist to a set of candidate violations.
#[derive(Debug, Default)]
pub struct Applied {
    /// Violations no entry waived, original order preserved.
    pub violations: Vec<Violation>,
    /// Sites excused by a justified entry.
    pub waived: usize,
    /// Ambiguous entries: an unanchored needle that matched more than one
    /// flagged site. These fail the run — nothing they matched is waived.
    pub errors: Vec<String>,
}

/// A malformed allowlist line.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number in the allowlist file.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.allow:{}: {}", self.line, self.message)
    }
}

const RULE_IDS: &[&str] = &["L1", "L2", "L3", "L4", "L5", "L8", "L9"];

impl Allowlist {
    /// An empty allowlist (waives nothing).
    pub fn empty() -> Self {
        Allowlist::default()
    }

    /// Parse the allowlist text. Blank lines and `#` comments are skipped.
    ///
    /// # Errors
    /// The first malformed line: wrong field count, unknown rule id, empty
    /// needle, or a justification below [`MIN_JUSTIFICATION`] characters.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.splitn(4, '|').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(ParseError {
                    line,
                    message: format!(
                        "expected 4 `|`-separated fields (rule | path | needle | justification), got {}",
                        fields.len()
                    ),
                });
            }
            let (rule, path, needle, justification) = (fields[0], fields[1], fields[2], fields[3]);
            if !RULE_IDS.contains(&rule) {
                return Err(ParseError {
                    line,
                    message: format!("unknown rule id {rule:?} (expected one of {RULE_IDS:?})"),
                });
            }
            if path.is_empty() || path.contains('\\') {
                return Err(ParseError {
                    line,
                    message: "path must be non-empty and use forward slashes".to_string(),
                });
            }
            let (needle, anchor) = match split_anchor(needle) {
                Ok(pair) => pair,
                Err(msg) => return Err(ParseError { line, message: msg }),
            };
            if needle.is_empty() {
                return Err(ParseError {
                    line,
                    message: "needle must be a non-empty substring of the waived line".to_string(),
                });
            }
            if justification.len() < MIN_JUSTIFICATION {
                return Err(ParseError {
                    line,
                    message: format!(
                        "justification is {} chars; write the actual invariant (≥ {MIN_JUSTIFICATION} chars)",
                        justification.len()
                    ),
                });
            }
            entries.push(Entry {
                rule: rule.to_string(),
                path: path.to_string(),
                needle: needle.to_string(),
                anchor,
                justification: justification.to_string(),
                line,
                used: Cell::new(false),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Apply the allowlist to every candidate violation the rules emitted.
    /// Each entry must match exactly one site: a match waives it, more than
    /// one match (unanchored) is an [`Applied::errors`] entry, zero matches
    /// leaves the entry for [`Allowlist::unused`] reporting.
    pub fn apply(&self, candidates: Vec<Violation>) -> Applied {
        let mut waive = vec![false; candidates.len()];
        let mut errors = Vec::new();
        for e in &self.entries {
            let matches: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, v)| {
                    v.rule == e.rule
                        && v.path == e.path
                        && v.raw.contains(&e.needle)
                        && e.anchor.is_none_or(|a| a == v.line)
                })
                .map(|(i, _)| i)
                .collect();
            match matches.len() {
                0 => {}
                1 => {
                    e.used.set(true);
                    waive[matches[0]] = true;
                }
                _ => {
                    // The entry is live (don't double-report it as unused)
                    // but waives nothing: over-broad waivers are the bug
                    // this check exists for.
                    e.used.set(true);
                    let lines: Vec<String> = matches
                        .iter()
                        .map(|i| candidates[*i].line.to_string())
                        .collect();
                    errors.push(format!(
                        "lint.allow:{}: entry ({} | {} | {}) matches {} sites (lines {}) — \
                         an entry waives exactly one; anchor it with ` @<line>` or add one \
                         entry per site",
                        e.line,
                        e.rule,
                        e.path,
                        e.needle,
                        matches.len(),
                        lines.join(", ")
                    ));
                }
            }
        }
        let waived = waive.iter().filter(|w| **w).count();
        Applied {
            violations: candidates
                .into_iter()
                .zip(waive)
                .filter_map(|(v, w)| (!w).then_some(v))
                .collect(),
            waived,
            errors,
        }
    }

    /// Entries that never matched a violation — stale waivers that must be
    /// deleted (reported as lint failures so the allowlist cannot rot).
    pub fn unused(&self) -> Vec<&Entry> {
        self.entries.iter().filter(|e| !e.used.get()).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Split a trailing ` @<digits>` anchor off the needle field.
fn split_anchor(needle: &str) -> Result<(&str, Option<usize>), String> {
    let Some(at) = needle.rfind(" @") else {
        return Ok((needle, None));
    };
    let digits = &needle[at + 2..];
    if digits.is_empty() || !digits.chars().all(|c| c.is_ascii_digit()) {
        // An `@` that isn't an anchor (e.g. inside a code snippet) is part
        // of the needle itself.
        return Ok((needle, None));
    }
    let line: usize = digits
        .parse()
        .map_err(|_| format!("line anchor `@{digits}` does not fit in usize"))?;
    if line == 0 {
        return Err("line anchor must be 1-based".to_string());
    }
    Ok((needle[..at].trim_end(), Some(line)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(rule: &'static str, path: &str, line: usize, raw: &str) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line,
            message: "test".to_string(),
            raw: raw.to_string(),
        }
    }

    const GOOD: &str = "\
# a comment\n\
\n\
L1 | crates/server/src/state.rs | panic!(\"poisoned | fault injection exercised by the respawn tests\n\
L3 | crates/server/src/cache.rs | Ordering::Relaxed | pure hit/miss counters, no ordering dependency\n";

    #[test]
    fn parses_and_waives_single_sites() {
        let a = Allowlist::parse(GOOD).expect("parses");
        assert_eq!(a.len(), 2);
        let applied = a.apply(vec![
            candidate(
                "L1",
                "crates/server/src/state.rs",
                10,
                "            panic!(\"poisoned query for user {}\", key.user);",
            ),
            candidate("L1", "crates/server/src/state.rs", 20, "x.unwrap()"),
            candidate("L2", "crates/server/src/state.rs", 30, "panic!(\"poisoned"),
            candidate("L1", "crates/server/src/pool.rs", 40, "panic!(\"poisoned"),
        ]);
        assert_eq!(applied.waived, 1);
        assert!(applied.errors.is_empty());
        // Wrong rule, wrong path, wrong needle all stay.
        assert_eq!(applied.violations.len(), 3);
    }

    #[test]
    fn unused_entries_are_reported() {
        let a = Allowlist::parse(GOOD).expect("parses");
        assert_eq!(a.unused().len(), 2);
        a.apply(vec![candidate(
            "L3",
            "crates/server/src/cache.rs",
            5,
            "hits.fetch_add(1, Ordering::Relaxed)",
        )]);
        let unused = a.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "L1");
    }

    #[test]
    fn an_entry_matching_two_sites_is_an_error_and_waives_nothing() {
        let a = Allowlist::parse(
            "L3 | m.rs | Ordering::Relaxed | pure counters with no ordering dependency\n",
        )
        .expect("parses");
        let applied = a.apply(vec![
            candidate("L3", "m.rs", 1, "a.load(Ordering::Relaxed)"),
            candidate("L3", "m.rs", 9, "b.load(Ordering::Relaxed)"),
        ]);
        assert_eq!(applied.waived, 0, "over-broad entries must not waive");
        assert_eq!(applied.violations.len(), 2);
        assert_eq!(applied.errors.len(), 1);
        assert!(
            applied.errors[0].contains("matches 2 sites"),
            "{}",
            applied.errors[0]
        );
        assert!(
            applied.errors[0].contains("lines 1, 9"),
            "{}",
            applied.errors[0]
        );
        assert!(a.unused().is_empty(), "ambiguous is not unused");
    }

    #[test]
    fn line_anchors_disambiguate_identical_raw_lines() {
        let a = Allowlist::parse(
            "L3 | m.rs | Ordering::Relaxed @9 | the reader side of the pure counter pair\n",
        )
        .expect("parses");
        let applied = a.apply(vec![
            candidate("L3", "m.rs", 1, "a.load(Ordering::Relaxed)"),
            candidate("L3", "m.rs", 9, "a.load(Ordering::Relaxed)"),
        ]);
        assert_eq!(applied.waived, 1);
        assert!(applied.errors.is_empty());
        assert_eq!(applied.violations.len(), 1);
        assert_eq!(
            applied.violations[0].line, 1,
            "only the anchored line is waived"
        );
    }

    #[test]
    fn a_non_numeric_at_suffix_is_part_of_the_needle() {
        let a =
            Allowlist::parse("L1 | a.rs | send(user @domain) | a needle containing an at-sign\n")
                .expect("parses");
        let applied = a.apply(vec![candidate("L1", "a.rs", 3, "send(user @domain)")]);
        assert_eq!(applied.waived, 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Allowlist::parse("L1 | a.rs | needle").is_err(), "3 fields");
        assert!(
            Allowlist::parse("L12 | a.rs | needle | a perfectly long justification").is_err(),
            "bad rule"
        );
        assert!(
            Allowlist::parse("L1 | a.rs |  | a perfectly long justification").is_err(),
            "empty needle"
        );
        assert!(Allowlist::parse("L1 | a.rs | needle | too short").is_err());
        assert!(
            Allowlist::parse("L1 | a.rs | needle @0 | a perfectly long justification").is_err(),
            "zero anchor"
        );
    }

    #[test]
    fn contract_rule_ids_parse() {
        for rule in ["L8", "L9"] {
            let text = format!("{rule} | a.rs | needle | a perfectly long justification\n");
            assert!(Allowlist::parse(&text).is_ok(), "{rule}");
        }
    }
}
