//! Rule `reach`: every library item is reached by something besides its
//! own unit tests.
//!
//! The paper counts cost only for code the fleet runs; the workspace keeps
//! only code some artifact, binary, benchmark or test reaches. A public
//! item of a library crate (bare-`pub` `fn`, `struct`, `enum`, `trait`,
//! `const`, `static` or `type` on a non-test line of `crates/*/src/**`,
//! binaries and xtask excluded) must be named as a code token somewhere
//! besides its own definition:
//!
//! - in its own file's non-test code, or
//! - in any other Rust file of the tree: library, binary, integration test
//!   or the `fleetbench/` benchmark.
//!
//! Integration tests count because some hooks exist for them (an oracle
//! that needs private state). Mentions in the item's own test module, in
//! comments or strings, and on `pub use` re-export lines do not: a
//! re-export reaches nothing by itself.
//!
//! The match is by name, so a dead item whose name a live item shares goes
//! unflagged. Deliberate API that nothing reaches yet is whitelisted with
//! `// audit: allow(reach, <reason>)` above the item.

use std::collections::{BTreeMap, BTreeSet};

use crate::citations::public_item;
use crate::lexer::{self, Line};

/// A raw finding: `(file index, line, message)`.
pub type ReachFinding = (usize, usize, String);

/// One mention of a subject's name: file index, and whether the line sits
/// in a test region.
type Mention = (usize, bool);

/// True when the file's public items are subjects of the rule.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.ends_with("/main.rs")
        && !rel.starts_with("crates/xtask/")
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

    let mut mentions: BTreeMap<&str, Vec<Mention>> = BTreeMap::new();
    for (fi, (_, lines)) in files.iter().enumerate() {
        let mut in_reexport = false;
        for line in lines.iter() {
            let toks = lexer::tokens(&line.code);
            in_reexport |= is_reexport(&toks);
            if !in_reexport {
                for tok in &toks {
                    let Some(&name) = names.get(tok.as_str()) else {
                        continue;
                    };
                    if !defs.contains(&(name, fi, line.number)) {
                        mentions.entry(name).or_default().push((fi, line.in_test));
                    }
                }
            }
            if in_reexport && toks.iter().any(|t| t == ";") {
                in_reexport = false;
            }
        }
    }

    let reached = |fi: usize, name: &str| {
        mentions
            .get(name)
            .is_some_and(|ms| ms.iter().any(|&(mfi, in_test)| mfi != fi || !in_test))
    };
    subjects
        .iter()
        .filter(|(fi, _, _, name)| !reached(*fi, name))
        .map(|(fi, line, kind, name)| {
            (
                *fi,
                *line,
                format!(
                    "public {kind} `{name}` is reached by nothing but its own unit tests; \
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
    fn restricted_reexports_are_reexports() {
        let toks = lexer::tokens;
        assert!(is_reexport(&toks("pub use a::b;")));
        assert!(is_reexport(&toks("pub(crate) use a::b;")));
        assert!(!is_reexport(&toks("use a::b;")));
        assert!(!is_reexport(&toks("pub fn usee() {}")));
    }
}
