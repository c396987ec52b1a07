//! Rule `citation`: paper traceability for the model core.
//!
//! Every public item in the files that transcribe the paper's math
//! (`core/src/model.rs`, `core/src/study.rs`, `core/src/paper.rs`) must say
//! *which* equation, figure, table, or section it implements, in its doc
//! comment: `Eq. 1`, `Figure 9`, `Table 8`, `Section 4`, etc. Anchoring
//! each item to the paper is what lets a reader check the transcription
//! against the source — an uncited public item is unauditable.
//!
//! A deliberate exception (e.g. a pure plumbing helper) is whitelisted with
//! `// audit: allow(citation, <reason>)` next to the item or in its docs.

use crate::lexer::Line;

/// Item keywords that constitute citable public API.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Markers accepted as a paper citation when followed by a number nearby.
const CITE_MARKERS: &[&str] = &[
    "Eq.", "Eqs.", "Equation", "Fig.", "Figs.", "Figure", "Table", "Section", "§",
];

/// A raw finding: `(line, message)`, plus the set of doc lines belonging to
/// the item so pragma lookup can cover the whole doc block.
pub struct CitationFinding {
    pub line: usize,
    pub doc_lines: Vec<usize>,
    pub message: String,
}

/// Scans one model file for public items missing a paper citation.
pub fn check(lines: &[Line]) -> Vec<CitationFinding> {
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some((kw, name)) = public_item(&line.code) else {
            continue;
        };
        // Collect the doc block: contiguous comment-only and attribute-only
        // lines directly above the item.
        let mut doc = String::new();
        let mut doc_lines = vec![line.number];
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let above = &lines[j];
            let code = above.code.trim();
            let is_attr = code.starts_with("#[") || code.starts_with("#!");
            let is_comment_only =
                code.is_empty() && !(above.comment.is_empty() && above.doc.is_empty());
            if is_attr || is_comment_only {
                doc.push_str(&above.doc);
                doc.push_str(&above.comment);
                doc.push('\n');
                doc_lines.push(above.number);
            } else {
                break;
            }
        }
        doc.push_str(&line.doc);
        doc.push_str(&line.comment);

        if !has_citation(&doc) {
            findings.push(CitationFinding {
                line: line.number,
                doc_lines,
                message: format!(
                    "public {kw} `{name}` has no paper citation in its docs; cite the equation/figure \
                     it implements (e.g. `Eq. 1`, `Figure 9`, `Table 8`) or whitelist with \
                     `// audit: allow(citation, <reason>)`"
                ),
            });
        }
    }
    findings
}

/// Returns the item keyword and name if the line declares a public item;
/// `pub(crate)`/`pub(super)` and `pub use`/`pub mod` are not part of the
/// public surface.
pub(crate) fn public_item(code: &str) -> Option<(String, String)> {
    let toks = crate::lexer::tokens(code);
    let mut i = 0;
    if toks.first().map(String::as_str) != Some("pub") {
        return None;
    }
    i += 1;
    if toks.get(i).map(String::as_str) == Some("(") {
        return None; // pub(crate) / pub(super): not public API
    }
    // Skip qualifiers that may precede the item keyword.
    while match toks.get(i).map(String::as_str) {
        Some("unsafe" | "async" | "extern") => true,
        Some("const") => toks.get(i + 1).is_some_and(|t| t == "fn"),
        _ => false,
    } {
        i += 1;
    }
    let kw = toks.get(i)?;
    if !ITEM_KEYWORDS.contains(&kw.as_str()) {
        return None;
    }
    let name = toks.get(i + 1).cloned().unwrap_or_default();
    Some((kw.clone(), name))
}

/// True when the doc text cites the paper: a marker followed by a digit
/// within a few characters (`Eq. 1`, `Figure 9b`, `Table 8`).
fn has_citation(doc: &str) -> bool {
    for marker in CITE_MARKERS {
        let mut rest = doc;
        while let Some(pos) = rest.find(marker) {
            let tail = &rest[pos + marker.len()..];
            if tail.chars().take(3).any(|c| c.is_ascii_digit()) {
                return true;
            }
            rest = tail;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(src: &str) -> Vec<CitationFinding> {
        check(&scan(src))
    }

    #[test]
    fn uncited_public_fn_is_flagged() {
        let f = run("/// Computes things.\npub fn speedup() -> f64 { 1.0 }\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("fn `speedup`"));
    }

    #[test]
    fn cited_public_fn_passes() {
        assert!(run("/// End-to-end time, Eq. 1 of the paper.\npub fn e2e() {}\n").is_empty());
        assert!(run("/// See Figure 9 sweep.\npub struct Sweep;\n").is_empty());
        assert!(run("/// Table 8 calibration row.\npub const ROW: u8 = 0;\n").is_empty());
    }

    #[test]
    fn marker_without_number_does_not_count() {
        let f = run("/// This figure of speech cites no Figure at all.\npub fn f() {}\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn multi_line_docs_and_attrs_are_searched() {
        let src = "/// Sweep over offload fractions.\n///\n/// Reproduces Figure 10.\n#[derive(Debug)]\npub struct G;\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn private_and_crate_items_are_ignored() {
        assert!(run("fn helper() {}\npub(crate) fn plumbing() {}\n").is_empty());
    }

    #[test]
    fn pub_use_and_mod_are_ignored() {
        assert!(run("pub use crate::x::Y;\npub mod z;\n").is_empty());
    }

    #[test]
    fn doc_lines_cover_the_block() {
        let f = run("/// No cite.\n/// Still none.\npub fn g() {}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].doc_lines.contains(&1));
        assert!(f[0].doc_lines.contains(&2));
        assert!(f[0].doc_lines.contains(&3));
    }
}
