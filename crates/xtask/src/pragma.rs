//! The `audit: allow(...)` pragma — the single escape hatch for every rule.
//!
//! Grammar (inside any comment, `//` in Rust or `#` in Cargo.toml):
//!
//! ```text
//! audit: allow(<rule>, <reason>)
//! ```
//!
//! `<rule>` is one of `cast`, `panic`, `citation`, `dep`, `determinism`,
//! `unsafe`, `reach`; `<reason>` is a
//! free-form, non-empty justification. A pragma suppresses findings of that
//! rule on its own line, or — when it sits on a comment-only line — on the
//! next line that carries code. A pragma with a missing or empty reason is
//! itself a finding: silent waivers are not allowed.

use std::fmt;

/// The rule classes the auditor enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Raw numeric arithmetic / lossy `as` casts on unit-named quantities.
    Cast,
    /// `unwrap`/`expect`/`panic!`-family calls in library code.
    Panic,
    /// Public paper-model items lacking an equation/figure citation.
    Citation,
    /// Declared manifest dependencies never imported by the crate.
    Dep,
    /// Schedule-dependent constructs: hash-order iteration, ambient
    /// entropy/clock reads, float accumulation in merge paths, tied
    /// unstable sorts.
    Determinism,
    /// `unsafe` code outside the `simd`/`hw` quarantine submodules, or an
    /// `unsafe` block inside them lacking a `// SAFETY:` comment.
    Unsafe,
    /// A library `pub` item that no production code names.
    Reach,
    /// A malformed `audit: allow` pragma (bad rule name or empty reason).
    Pragma,
}

impl RuleKind {
    /// The name used in pragmas and `--rule` filters.
    pub fn name(self) -> &'static str {
        match self {
            RuleKind::Cast => "cast",
            RuleKind::Panic => "panic",
            RuleKind::Citation => "citation",
            RuleKind::Dep => "dep",
            RuleKind::Determinism => "determinism",
            RuleKind::Unsafe => "unsafe",
            RuleKind::Reach => "reach",
            RuleKind::Pragma => "pragma",
        }
    }

    /// Parses a `--rule` filter / pragma rule name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cast" => Some(RuleKind::Cast),
            "panic" => Some(RuleKind::Panic),
            "citation" => Some(RuleKind::Citation),
            "dep" => Some(RuleKind::Dep),
            "determinism" => Some(RuleKind::Determinism),
            "unsafe" => Some(RuleKind::Unsafe),
            "reach" => Some(RuleKind::Reach),
            "pragma" => Some(RuleKind::Pragma),
            _ => None,
        }
    }
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A successfully parsed pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    pub rule: RuleKind,
    pub reason: String,
}

/// Outcome of scanning one comment for pragmas.
#[derive(Debug, Clone, Default)]
pub struct PragmaScan {
    /// Well-formed pragmas found in the comment.
    pub pragmas: Vec<Pragma>,
    /// Human-readable descriptions of malformed pragma attempts.
    pub malformed: Vec<String>,
}

/// Extracts every `audit: allow(...)` occurrence from a comment string.
pub fn scan_comment(comment: &str) -> PragmaScan {
    let mut out = PragmaScan::default();
    let mut rest = comment;
    while let Some(pos) = rest.find("audit:") {
        rest = &rest[pos + "audit:".len()..];
        let body = rest.trim_start();
        let Some(tail) = body.strip_prefix("allow") else {
            out.malformed
                .push("expected `allow(...)` after `audit:`".to_owned());
            continue;
        };
        let tail = tail.trim_start();
        let Some(tail) = tail.strip_prefix('(') else {
            out.malformed
                .push("expected `(` after `audit: allow`".to_owned());
            continue;
        };
        let Some(close) = tail.find(')') else {
            out.malformed
                .push("unterminated `audit: allow(` pragma".to_owned());
            break;
        };
        let inner = &tail[..close];
        let (rule_str, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        match RuleKind::parse(rule_str) {
            Some(RuleKind::Pragma) | None => {
                out.malformed.push(format!(
                    "unknown audit rule `{rule_str}` (expected cast, panic, citation, dep, \
                     determinism, unsafe, or reach)"
                ));
            }
            Some(rule) => {
                if reason.is_empty() {
                    out.malformed.push(format!(
                        "pragma `allow({rule_str})` is missing a reason — write `allow({rule_str}, <why>)`"
                    ));
                } else {
                    out.pragmas.push(Pragma {
                        rule,
                        reason: reason.to_owned(),
                    });
                }
            }
        }
    }
    out
}

/// Per-file pragma index: which rules are waived on which lines.
#[derive(Debug, Default)]
pub struct PragmaIndex {
    /// (line, rule) pairs where findings are suppressed.
    allowed: Vec<(usize, RuleKind)>,
    /// Malformed pragma findings: (line, description).
    pub malformed: Vec<(usize, String)>,
}

impl PragmaIndex {
    /// Builds the index from scanned lines. `lines` pairs each line number
    /// with its comment text and whether the line carries code; a pragma on
    /// a comment-only line covers the next code-bearing line (so it can sit
    /// above the statement it waives).
    pub fn build(lines: &[(usize, String, bool)]) -> Self {
        let mut idx = PragmaIndex::default();
        let mut carry: Vec<RuleKind> = Vec::new();
        for (number, comment, has_code) in lines {
            let scan = scan_comment(comment);
            for m in scan.malformed {
                idx.malformed.push((*number, m));
            }
            let rules: Vec<RuleKind> = scan.pragmas.iter().map(|p| p.rule).collect();
            if *has_code {
                for r in rules.iter().chain(carry.iter()) {
                    idx.allowed.push((*number, *r));
                }
                carry.clear();
            } else {
                carry.extend(rules);
            }
        }
        // Pragmas trailing at EOF with no code after them: attach in place
        // so they are at least not reported as unused code errors.
        idx
    }

    /// True when `rule` findings are waived on `line`.
    pub fn allows(&self, line: usize, rule: RuleKind) -> bool {
        self.allowed.iter().any(|&(l, r)| l == line && r == rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_pragma() {
        let s = scan_comment(" audit: allow(cast, lossless u32 widening for display)");
        assert_eq!(s.pragmas.len(), 1);
        assert_eq!(s.pragmas[0].rule, RuleKind::Cast);
        assert!(s.pragmas[0].reason.contains("widening"));
        assert!(s.malformed.is_empty());
    }

    #[test]
    fn missing_reason_is_malformed() {
        let s = scan_comment("audit: allow(panic)");
        assert!(s.pragmas.is_empty());
        assert_eq!(s.malformed.len(), 1);
        let s = scan_comment("audit: allow(panic, )");
        assert!(s.pragmas.is_empty());
        assert_eq!(s.malformed.len(), 1);
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let s = scan_comment("audit: allow(everything, because)");
        assert!(s.pragmas.is_empty());
        assert_eq!(s.malformed.len(), 1);
    }

    #[test]
    fn standalone_comment_covers_next_code_line() {
        let lines = vec![
            (
                1,
                " audit: allow(panic, startup invariant)".to_owned(),
                false,
            ),
            (2, String::new(), true),
        ];
        let idx = PragmaIndex::build(&lines);
        assert!(idx.allows(2, RuleKind::Panic));
        assert!(!idx.allows(2, RuleKind::Cast));
        assert!(!idx.allows(1, RuleKind::Panic));
    }

    #[test]
    fn trailing_comment_covers_own_line() {
        let lines = vec![(7, " audit: allow(cast, fine)".to_owned(), true)];
        let idx = PragmaIndex::build(&lines);
        assert!(idx.allows(7, RuleKind::Cast));
    }

    #[test]
    fn multiple_pragmas_in_one_comment() {
        let s = scan_comment("audit: allow(cast, a) audit: allow(panic, b)");
        assert_eq!(s.pragmas.len(), 2);
    }
}
