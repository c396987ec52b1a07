//! Rule `reach`: every library item is reached by production code.
//!
//! The paper counts cost only for code the fleet runs; the workspace keeps
//! only code some artifact, binary or benchmark reaches. A public item of a
//! library crate (bare-`pub` `fn`, `struct`, `enum`, `trait`, `const`,
//! `static` or `type` on a non-test line of `crates/*/src/**`, binaries and
//! xtask excluded) must be named as a code token somewhere besides its own
//! definition, on a production line: non-test code of any library, the
//! `hsdp` binary or the `fleetbench/` benchmark.
//!
//! Test code reaches nothing: a mention inside any `#[cfg(test)]` region,
//! in `crates/*/tests/` or in `tests/` does not count, so API that only
//! tests call is a finding. Nor do comments, strings and `pub use`
//! re-export lines: a re-export reaches nothing by itself.
//!
//! The match is by name, so a dead item whose name a live item shares goes
//! unflagged. A hook that a test suite needs (an oracle over private state,
//! a test entry into a dispatched kernel) is kept with
//! `// audit: allow(reach, <reason>)` above the item, the reason naming
//! the suite.

use std::collections::BTreeSet;

use crate::citations::public_item;
use crate::lexer::{self, Line};

/// A raw finding: `(file index, line, message)`.
pub type ReachFinding = (usize, usize, String);

/// True when the file's public items are subjects of the rule.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.ends_with("/main.rs")
        && !rel.starts_with("crates/xtask/")
}

/// True when the file is an integration test, whose every line is test code.
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Checks every subject in `files` (workspace-relative path, scanned
/// lines) against the mentions in all of them.
pub fn check(files: &[(&str, &[Line])]) -> Vec<ReachFinding> {
    let mut subjects: Vec<(usize, usize, String, String)> = Vec::new();
    for (fi, (rel, lines)) in files.iter().enumerate() {
        if !in_scope(rel) {
            continue;
        }
        for line in lines.iter().filter(|l| !l.in_test) {
            if let Some((kind, name)) = public_item(&line.code) {
                subjects.push((fi, line.number, kind, name));
            }
        }
    }
    let names: BTreeSet<&str> = subjects.iter().map(|s| s.3.as_str()).collect();
    // A definition is not a mention, not even of a namesake elsewhere.
    let defs: BTreeSet<(&str, usize, usize)> = subjects
        .iter()
        .map(|(fi, line, _, name)| (name.as_str(), *fi, *line))
        .collect();

    let mut reached: BTreeSet<&str> = BTreeSet::new();
    for (fi, (rel, lines)) in files.iter().enumerate() {
        if is_test_file(rel) {
            continue;
        }
        let mut in_reexport = false;
        for line in lines.iter() {
            let toks = lexer::tokens(&line.code);
            in_reexport |= is_reexport(&toks);
            if !in_reexport && !line.in_test {
                for tok in &toks {
                    let Some(&name) = names.get(tok.as_str()) else {
                        continue;
                    };
                    if !defs.contains(&(name, fi, line.number)) {
                        reached.insert(name);
                    }
                }
            }
            if in_reexport && toks.iter().any(|t| t == ";") {
                in_reexport = false;
            }
        }
    }

    subjects
        .iter()
        .filter(|(_, _, _, name)| !reached.contains(name.as_str()))
        .map(|(fi, line, kind, name)| {
            (
                *fi,
                *line,
                format!(
                    "public {kind} `{name}` is reached by no production code; \
                     delete it or whitelist with `// audit: allow(reach, <reason>)`"
                ),
            )
        })
        .collect()
}

/// True when the tokens open a `pub use` (or `pub(..) use`) re-export.
fn is_reexport(toks: &[String]) -> bool {
    if toks.first().map(String::as_str) != Some("pub") {
        return false;
    }
    let rest = &toks[1..];
    let rest = match rest.first().map(String::as_str) {
        Some("(") => match rest.iter().position(|t| t == ")") {
            Some(close) => &rest[close + 1..],
            None => return false,
        },
        _ => rest,
    };
    rest.first().map(String::as_str) == Some("use")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_excludes_bins_mains_xtask_and_the_facade() {
        assert!(in_scope("crates/core/src/model.rs"));
        assert!(!in_scope("crates/bench/src/bin/hsdp/args.rs"));
        assert!(!in_scope("crates/demo/src/main.rs"));
        assert!(!in_scope("crates/xtask/src/lib.rs"));
        assert!(!in_scope("src/lib.rs"));
        assert!(!in_scope("crates/core/tests/model_properties.rs"));
    }

    #[test]
    fn integration_tests_are_test_files() {
        assert!(is_test_file("tests/end_to_end.rs"));
        assert!(is_test_file("crates/core/tests/model_properties.rs"));
        assert!(!is_test_file("crates/core/src/model.rs"));
        assert!(!is_test_file("crates/bench/src/bin/hsdp/main.rs"));
        assert!(!is_test_file("fleetbench/api.rs"));
    }

    #[test]
    fn restricted_reexports_are_reexports() {
        let toks = lexer::tokens;
        assert!(is_reexport(&toks("pub use a::b;")));
        assert!(is_reexport(&toks("pub(crate) use a::b;")));
        assert!(!is_reexport(&toks("use a::b;")));
        assert!(!is_reexport(&toks("pub fn usee() {}")));
    }
}
