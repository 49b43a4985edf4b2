//! Flag parsing for the `pit` binary — small, dependency-free, testable.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// A parsed invocation: subcommand plus `--flag value` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Flag values keyed by flag name (without the leading dashes).
    pub flags: BTreeMap<String, String>,
    /// Flag names the subcommand has asked for so far; see
    /// [`Parsed::finish`].
    read: RefCell<BTreeSet<String>>,
}

/// Why a subcommand stopped. The binary exits 2 on a usage error and 1 on
/// a failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// The invocation is wrong: it passed a flag the subcommand never reads.
    Usage(String),
    /// The subcommand ran and failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Failed(msg.to_string())
    }
}

/// Parse `args` (without the program name).
///
/// # Errors
/// Returns a message when no subcommand is given, a flag is missing its
/// value, or a bare positional argument appears after the subcommand.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| "missing subcommand".to_string())?
        .clone();
    if command.starts_with('-') {
        return Err(format!("expected a subcommand, got flag {command}"));
    }
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {flag}"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} is missing its value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(Parsed {
        command,
        flags,
        read: RefCell::default(),
    })
}

impl Parsed {
    /// The value of flag `name`, recording that the subcommand reads it.
    fn read(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().insert(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.read(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.read(name)
    }

    /// A numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.read(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// Refuse a flag the subcommand never read — a typo such as `--cahce`
    /// would otherwise run with the default and no warning. Call after
    /// reading every flag and before doing any work.
    ///
    /// # Errors
    /// [`CliError::Usage`] naming the first unread flag.
    pub fn finish(&self) -> Result<(), CliError> {
        let read = self.read.borrow();
        match self.flags.keys().find(|name| !read.contains(*name)) {
            Some(name) => Err(CliError::Usage(format!(
                "pit {} does not take --{name}",
                self.command
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse(&argv("query --engine /tmp/e --user 7 --k 10")).unwrap();
        assert_eq!(p.command, "query");
        assert_eq!(p.require("engine").unwrap(), "/tmp/e");
        assert_eq!(p.num::<usize>("k", 3).unwrap(), 10);
        assert_eq!(p.num::<usize>("absent", 42).unwrap(), 42);
        assert_eq!(p.get("user"), Some("7"));
        assert_eq!(p.get("nope"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("--engine x")).is_err());
        assert!(parse(&argv("query --engine")).is_err());
        assert!(parse(&argv("query stray")).is_err());
        let p = parse(&argv("query --k ten")).unwrap();
        assert!(p.num::<usize>("k", 1).is_err());
        assert!(p.require("engine").is_err());
    }

    #[test]
    fn finish_names_the_first_flag_never_read() {
        let p = parse(&argv("serve --engine e --cahce 0 --wokers 2")).unwrap();
        assert_eq!(p.require("engine").unwrap(), "e");
        // Asking for an absent flag counts as reading it, but does not
        // excuse a misspelled one.
        assert_eq!(p.num::<usize>("cache", 1024).unwrap(), 1024);
        assert_eq!(
            p.finish(),
            Err(CliError::Usage("pit serve does not take --cahce".into()))
        );
        p.get("cahce");
        assert_eq!(
            p.finish(),
            Err(CliError::Usage("pit serve does not take --wokers".into()))
        );
        p.get("wokers");
        assert_eq!(p.finish(), Ok(()));
    }
}
