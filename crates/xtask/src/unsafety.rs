//! Rule `unsafe`: the SIMD-quarantine discipline (kernel round 3).
//!
//! The workspace denies `unsafe_code` at every crate root; only designated
//! quarantine submodules — any path segment or file stem named `simd` or
//! `hw` — opt back in, because runtime-dispatched vector/hardware kernels
//! genuinely need raw loads and `target_feature` calls. This rule makes the
//! quarantine machine-checked rather than conventional:
//!
//! - **escape** — an `unsafe` token in a non-quarantined source file is a
//!   finding, even where the compiler would accept it (e.g. a future
//!   `allow` slipped into a crate root).
//! - **undocumented** — every `unsafe { … }` block inside a quarantine
//!   file must carry a `// SAFETY:` comment on the same line or on the
//!   contiguous comment lines directly above it, stating why the
//!   preconditions hold.
//!
//! A deliberate exception carries `// audit: allow(unsafe, <reason>)`.

use crate::lexer::{self, Line};

/// A raw finding: `(line, message)`.
pub type UnsafeFinding = (usize, String);

/// True when `rel` (a `/`-separated workspace-relative path) is inside the
/// unsafe quarantine: some path segment or file stem is `simd` or `hw`.
pub fn in_quarantine(rel: &str) -> bool {
    rel.split('/')
        .map(|seg| seg.strip_suffix(".rs").unwrap_or(seg))
        .any(|seg| seg == "simd" || seg == "hw")
}

/// Scans one source file's lines for quarantine violations.
pub fn check(rel: &str, lines: &[Line]) -> Vec<UnsafeFinding> {
    let quarantined = in_quarantine(rel);
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let toks = lexer::tokens(&line.code);
        let Some(pos) = toks.iter().position(|t| t == "unsafe") else {
            continue;
        };
        if !quarantined {
            findings.push((
                line.number,
                "`unsafe` outside the quarantine — move this code into a `simd`/`hw` \
                 submodule (the only places unsafe fast paths may live)"
                    .to_owned(),
            ));
            continue;
        }
        // Inside the quarantine only `unsafe { … }` blocks are policed (the
        // same scope as clippy's `undocumented_unsafe_blocks`): each needs a
        // `// SAFETY:` justification.
        if !is_block(&toks, pos, lines, i) {
            continue;
        }
        if !has_safety_comment(lines, i) {
            findings.push((
                line.number,
                "`unsafe` block without a `// SAFETY:` comment — state why the \
                 preconditions hold on the line above the block"
                    .to_owned(),
            ));
        }
    }
    findings
}

/// True when the `unsafe` token at `toks[pos]` opens a block (next code
/// token is `{`), looking across line boundaries when `unsafe` ends a line.
fn is_block(toks: &[String], pos: usize, lines: &[Line], line_idx: usize) -> bool {
    if let Some(next) = toks.get(pos + 1) {
        return next == "{";
    }
    lines[line_idx + 1..]
        .iter()
        .find(|l| !l.is_code_blank())
        .and_then(|l| lexer::tokens(&l.code).first().cloned())
        .is_some_and(|t| t == "{")
}

/// True when the line at `idx`, or the contiguous comment-only lines just
/// above it, carry a `SAFETY:` comment.
fn has_safety_comment(lines: &[Line], idx: usize) -> bool {
    if lines[idx].comment.contains("SAFETY:") {
        return true;
    }
    lines[..idx]
        .iter()
        .rev()
        .take_while(|l| l.is_code_blank())
        .any(|l| l.comment.contains("SAFETY:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<UnsafeFinding> {
        check(rel, &lexer::scan(src))
    }

    #[test]
    fn quarantine_paths() {
        assert!(in_quarantine("crates/taxes/src/simd/crc.rs"));
        assert!(in_quarantine("crates/taxes/src/simd/mod.rs"));
        assert!(in_quarantine("crates/demo/src/simd.rs"));
        assert!(in_quarantine("crates/x/src/hw/crc.rs"));
        assert!(!in_quarantine("crates/taxes/src/compress.rs"));
        assert!(!in_quarantine("crates/platforms/src/bloom.rs"));
        // Only whole segments count, not substrings.
        assert!(!in_quarantine("crates/x/src/simdish.rs"));
    }

    #[test]
    fn unsafe_outside_quarantine_is_flagged() {
        let f = run(
            "crates/taxes/src/compress.rs",
            "fn f() {\n    let x = unsafe { load(p) };\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].0, 2);
        assert!(f[0].1.contains("quarantine"));
    }

    #[test]
    fn documented_block_in_quarantine_is_clean() {
        let f = run(
            "crates/taxes/src/simd/crc.rs",
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is readable.\n    unsafe { *p }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn undocumented_block_in_quarantine_is_flagged() {
        let f = run(
            "crates/taxes/src/simd/crc.rs",
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].1.contains("SAFETY"));
    }

    #[test]
    fn same_line_safety_comment_counts() {
        let f = run(
            "crates/x/src/simd.rs",
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p valid per contract\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn multi_line_safety_comment_counts() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: the resolver installed this entry\n    // only after feature detection succeeded.\n    unsafe { *p }\n}\n";
        assert!(run("crates/x/src/simd.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_signatures_are_not_policed_in_quarantine() {
        // Declarations/impls are covered by doc `# Safety` sections and the
        // compiler; only blocks (call sites) need inline justification.
        let src = "unsafe fn load(p: *const u8) -> u8 {\n    *p\n}\n";
        assert!(run("crates/x/src/simd/mem.rs", src).is_empty());
        // But the same signature outside the quarantine is still an escape.
        assert_eq!(run("crates/x/src/mem.rs", src).len(), 1);
    }

    #[test]
    fn block_brace_on_next_line_is_still_a_block() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe\n    { *p }\n}\n";
        let f = run("crates/x/src/simd.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].1.contains("SAFETY"));
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_rule() {
        let src = "fn f() {\n    let s = \"unsafe { }\"; // unsafe in prose\n}\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
        // Lint-level attributes mention `unsafe_code`, not the keyword.
        assert!(run("crates/x/src/lib.rs", "#![deny(unsafe_code)]\n").is_empty());
    }
}
