//! End-to-end fixtures for the auditor: each rule must fire on a seeded
//! violation, and each rule's pragma must suppress it.
//!
//! Every test scaffolds a miniature workspace under the system temp dir
//! (std-only; no tempfile crate) and runs [`xtask::run_audit`] against it.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::pragma::RuleKind;
use xtask::{run_audit, AuditReport};

/// Creates a unique scratch workspace for one test.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("xtask-fixture-{}-{name}", std::process::id()));
        // A stale dir from a crashed run would contaminate the scan.
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create fixture dirs");
        }
        fs::write(path, content).expect("write fixture file");
        self
    }

    fn audit(&self) -> AuditReport {
        run_audit(&self.root, &[]).expect("audit runs")
    }

    fn audit_rule(&self, rule: RuleKind) -> AuditReport {
        run_audit(&self.root, &[rule]).expect("audit runs")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn count(report: &AuditReport, rule: RuleKind) -> usize {
    report.count(rule)
}

#[test]
fn cast_rule_fires_and_pragma_suppresses() {
    let fx = Fixture::new("cast");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(total_secs: u64) -> u32 {\n    total_secs as u32\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Cast);
    assert_eq!(count(&report, RuleKind::Cast), 1, "{:?}", report.findings);
    assert!(!report.is_clean());

    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(total_secs: u64) -> u32 {\n    // audit: allow(cast, display-only truncation)\n    total_secs as u32\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Cast);
    assert_eq!(count(&report, RuleKind::Cast), 0, "{:?}", report.findings);
    assert_eq!(report.pragmas_honoured, 1);
}

#[test]
fn cast_rule_catches_mixed_unit_arithmetic() {
    let fx = Fixture::new("cast-mixed");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(total_bytes: f64, total_secs: f64) -> f64 {\n    total_bytes + total_secs\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Cast);
    assert_eq!(count(&report, RuleKind::Cast), 1, "{:?}", report.findings);
}

#[test]
fn cast_rule_exempts_units_layer_and_tests() {
    let fx = Fixture::new("cast-exempt");
    let offending = "pub fn f(total_secs: u64) -> u32 { total_secs as u32 }\n";
    fx.write("crates/core/src/units.rs", offending);
    fx.write("crates/demo/tests/check.rs", offending);
    fx.write(
        "crates/demo/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    pub fn f(total_secs: u64) -> u32 { total_secs as u32 }\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Cast);
    assert_eq!(count(&report, RuleKind::Cast), 0, "{:?}", report.findings);
}

#[test]
fn panic_rule_fires_and_pragma_suppresses() {
    let fx = Fixture::new("panic");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Panic);
    assert_eq!(count(&report, RuleKind::Panic), 1, "{:?}", report.findings);

    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    // audit: allow(panic, caller guarantees Some by contract)\n    x.unwrap()\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Panic);
    assert_eq!(count(&report, RuleKind::Panic), 0, "{:?}", report.findings);
}

#[test]
fn panic_rule_skips_binaries_tests_and_macros_in_strings() {
    let fx = Fixture::new("panic-scope");
    fx.write(
        "crates/demo/src/main.rs",
        "fn main() { None::<u8>.unwrap(); }\n",
    );
    fx.write(
        "crates/demo/src/bin/tool.rs",
        "fn main() { panic!(\"fail fast\"); }\n",
    );
    fx.write(
        "crates/demo/tests/t.rs",
        "#[test]\nfn t() { None::<u8>.unwrap(); }\n",
    );
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f() -> &'static str {\n    \"do not panic!(now) or .unwrap() here\"\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Panic);
    assert_eq!(count(&report, RuleKind::Panic), 0, "{:?}", report.findings);
}

#[test]
fn citation_rule_fires_and_pragma_suppresses() {
    let fx = Fixture::new("citation");
    fx.write(
        "crates/core/src/model.rs",
        "/// Computes a speedup.\npub fn speedup() -> f64 {\n    2.0\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Citation);
    assert_eq!(
        count(&report, RuleKind::Citation),
        1,
        "{:?}",
        report.findings
    );

    // A citation satisfies the rule...
    fx.write(
        "crates/core/src/model.rs",
        "/// Computes a speedup per Eq. 9.\npub fn speedup() -> f64 {\n    2.0\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Citation);
    assert_eq!(
        count(&report, RuleKind::Citation),
        0,
        "{:?}",
        report.findings
    );

    // ...and so does a pragma with a reason.
    fx.write(
        "crates/core/src/model.rs",
        "/// Plumbing helper.\n// audit: allow(citation, pure plumbing with no paper counterpart)\npub fn speedup() -> f64 {\n    2.0\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Citation);
    assert_eq!(
        count(&report, RuleKind::Citation),
        0,
        "{:?}",
        report.findings
    );
}

#[test]
fn citation_rule_only_covers_model_files_and_public_items() {
    let fx = Fixture::new("citation-scope");
    let uncited = "/// No citation here.\npub fn f() -> u8 {\n    0\n}\n";
    fx.write("crates/core/src/other.rs", uncited);
    fx.write("crates/demo/src/lib.rs", uncited);
    fx.write(
        "crates/core/src/study.rs",
        "/// Private helper.\nfn helper() {}\n\n/// Crate-internal.\npub(crate) fn plumbing() {}\n",
    );
    let report = fx.audit_rule(RuleKind::Citation);
    assert_eq!(
        count(&report, RuleKind::Citation),
        0,
        "{:?}",
        report.findings
    );
}

#[test]
fn dep_rule_fires_and_pragma_suppresses() {
    let fx = Fixture::new("dep");
    fx.write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\n\n[dependencies]\nphantom-dep = \"1\"\n",
    );
    fx.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
    let report = fx.audit_rule(RuleKind::Dep);
    assert_eq!(count(&report, RuleKind::Dep), 1, "{:?}", report.findings);

    fx.write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\n\n[dependencies]\nphantom-dep = \"1\" # audit: allow(dep, staged for the next change)\n",
    );
    let report = fx.audit_rule(RuleKind::Dep);
    assert_eq!(count(&report, RuleKind::Dep), 0, "{:?}", report.findings);
    assert_eq!(report.pragmas_honoured, 1);
}

#[test]
fn dep_rule_sees_usage_anywhere_in_the_crate() {
    let fx = Fixture::new("dep-used");
    fx.write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\n\n[dependencies]\nreal-dep = \"1\"\n\n[dev-dependencies]\ntest-dep = \"1\"\n",
    );
    fx.write("crates/demo/src/lib.rs", "pub use real_dep::thing;\n");
    fx.write("crates/demo/tests/t.rs", "use test_dep::helper;\n");
    let report = fx.audit_rule(RuleKind::Dep);
    assert_eq!(count(&report, RuleKind::Dep), 0, "{:?}", report.findings);
}

#[test]
fn dep_rule_separates_workspace_root_from_members() {
    let fx = Fixture::new("dep-root");
    // Root declares a dep only the member uses: must still be flagged at
    // the root, because member sources don't belong to the root package.
    fx.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/demo\"]\n\n[dependencies]\nmember-only = \"1\"\n",
    );
    fx.write("src/lib.rs", "pub fn root() {}\n");
    fx.write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\n\n[dependencies]\nmember-only = \"1\"\n",
    );
    fx.write("crates/demo/src/lib.rs", "pub use member_only::x;\n");
    let report = fx.audit_rule(RuleKind::Dep);
    assert_eq!(count(&report, RuleKind::Dep), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].file, "Cargo.toml");
}

#[test]
fn determinism_rule_flags_hash_iteration_and_pragma_suppresses() {
    let fx = Fixture::new("det-hash");
    fx.write(
        "crates/demo/src/lib.rs",
        "use std::collections::HashMap;\npub fn f(m: HashMap<u64, u64>) -> u64 {\n    m.values().sum()\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        1,
        "{:?}",
        report.findings
    );

    // Sorted containers pass...
    fx.write(
        "crates/demo/src/lib.rs",
        "use std::collections::BTreeMap;\npub fn f(m: BTreeMap<u64, u64>) -> u64 {\n    m.values().sum()\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        0,
        "{:?}",
        report.findings
    );

    // ...and so does a reasoned pragma.
    fx.write(
        "crates/demo/src/lib.rs",
        "use std::collections::HashMap;\npub fn f(m: HashMap<u64, u64>) -> u64 {\n    // audit: allow(determinism, the sum is commutative so order cannot reach output)\n    m.values().sum()\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        0,
        "{:?}",
        report.findings
    );
    assert_eq!(report.pragmas_honoured, 1);
}

#[test]
fn determinism_rule_flags_clock_and_underived_seeds() {
    let fx = Fixture::new("det-clock");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn stamp() -> u64 {\n    let t = std::time::SystemTime::now();\n    let i = std::time::Instant::now();\n    let rng = StdRng::seed_from_u64(12345);\n    0\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        3,
        "{:?}",
        report.findings
    );

    // Seeds threaded through the derivation chain are fine.
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn planned(shard_seed: u64) -> StdRng {\n    StdRng::seed_from_u64(derive_seed(shard_seed, 1, 0))\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        0,
        "{:?}",
        report.findings
    );
}

#[test]
fn determinism_rule_flags_float_accumulation_only_in_merge_paths() {
    let fx = Fixture::new("det-float");
    // A fold path accumulating floats fires...
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn merge_latency(xs: &[f64]) -> f64 {\n    let mut total: f64 = 0.0;\n    for x in xs {\n        total += x;\n    }\n    total\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        1,
        "{:?}",
        report.findings
    );

    // ...the same body under a non-merge name does not...
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn scaled_latency(xs: &[f64]) -> f64 {\n    let mut total: f64 = 0.0;\n    for x in xs {\n        total += x;\n    }\n    total\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        0,
        "{:?}",
        report.findings
    );

    // ...and integer accumulation in a merge path is order-free.
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn merge_counts(xs: &[u64]) -> u64 {\n    let mut total: u64 = 0;\n    for x in xs {\n        total += x;\n    }\n    total\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        0,
        "{:?}",
        report.findings
    );
}

#[test]
fn determinism_rule_flags_keyed_unstable_sorts() {
    let fx = Fixture::new("det-sort");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn order(v: &mut Vec<(u64, u64)>) {\n    v.sort_unstable_by_key(|e| e.1);\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        1,
        "{:?}",
        report.findings
    );

    // Sorting the full value is a total order: allowed.
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn order(v: &mut Vec<(u64, u64)>) {\n    v.sort_unstable();\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        0,
        "{:?}",
        report.findings
    );
}

#[test]
fn determinism_rule_exempts_bench_xtask_and_tests() {
    let fx = Fixture::new("det-scope");
    let offending = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    fx.write("crates/bench/src/lib.rs", offending);
    fx.write("crates/xtask/src/lib.rs", offending);
    fx.write("crates/demo/tests/t.rs", offending);
    fx.write(
        "crates/demo/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    pub fn f() { let t = std::time::Instant::now(); }\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Determinism);
    assert_eq!(
        count(&report, RuleKind::Determinism),
        0,
        "{:?}",
        report.findings
    );
}

#[test]
fn malformed_pragmas_are_findings() {
    let fx = Fixture::new("pragma");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    // audit: allow(panic)\n    x.unwrap()\n}\n",
    );
    let report = fx.audit();
    assert_eq!(count(&report, RuleKind::Pragma), 1, "{:?}", report.findings);
    // The reasonless pragma does NOT waive the panic finding.
    assert_eq!(count(&report, RuleKind::Panic), 1, "{:?}", report.findings);
}

#[test]
fn clean_tree_audits_clean() {
    let fx = Fixture::new("clean");
    fx.write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\n\n[dependencies]\nother = \"1\"\n",
    );
    fx.write(
        "crates/demo/src/lib.rs",
        "pub use other::thing;\n\npub fn f(count: u64) -> f64 {\n    count as f64\n}\n\nfn twice(count: u64) -> f64 {\n    2.0 * f(count)\n}\n",
    );
    let report = fx.audit();
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.rust_files, 1);
    assert_eq!(report.manifests, 1);
}

#[test]
fn unsafe_rule_fires_and_pragma_suppresses() {
    let fx = Fixture::new("unsafe");
    fx.write("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n");
    // Escape outside the quarantine.
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    // Undocumented block inside the quarantine.
    fx.write(
        "crates/demo/src/simd/mod.rs",
        "pub fn g(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Unsafe);
    assert_eq!(count(&report, RuleKind::Unsafe), 2, "{:?}", report.findings);

    // A SAFETY comment cures the quarantined block; the escape needs the
    // pragma (and then still documents why the unsafety is sound).
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 {\n    // audit: allow(unsafe, fixture exercising the escape hatch)\n    unsafe { *p }\n}\n",
    );
    fx.write(
        "crates/demo/src/simd/mod.rs",
        "pub fn g(p: *const u8) -> u8 {\n    // SAFETY: caller passes a valid pointer in this fixture.\n    unsafe { *p }\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Unsafe);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.pragmas_honoured, 1);
}

/// A library item no other code names.
const UNREACHED: &str = "pub fn helper() -> u8 {\n    7\n}\n";

#[test]
fn reach_rule_flags_an_unreached_item() {
    let fx = Fixture::new("reach");
    fx.write("crates/demo/src/lib.rs", UNREACHED);
    let report = fx.audit_rule(RuleKind::Reach);
    assert_eq!(count(&report, RuleKind::Reach), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].line, 1);
    assert!(report.findings[0].message.contains("fn `helper`"));
}

#[test]
fn reach_rule_is_cleared_by_another_crates_source() {
    let fx = Fixture::new("reach-crate");
    fx.write("crates/demo/src/lib.rs", UNREACHED);
    fx.write(
        "crates/user/src/lib.rs",
        "fn twice() -> u8 {\n    2 * demo::helper()\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Reach);
    assert_eq!(count(&report, RuleKind::Reach), 0, "{:?}", report.findings);
}

#[test]
fn reach_rule_ignores_the_items_own_unit_tests() {
    let fx = Fixture::new("reach-own-test");
    fx.write(
        "crates/demo/src/lib.rs",
        &format!("{UNREACHED}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        assert_eq!(super::helper(), 7);\n    }}\n}}\n"),
    );
    let report = fx.audit_rule(RuleKind::Reach);
    assert_eq!(count(&report, RuleKind::Reach), 1, "{:?}", report.findings);
}

#[test]
fn reach_rule_is_not_cleared_by_test_code() {
    let fx = Fixture::new("reach-itest");
    fx.write("crates/demo/src/lib.rs", UNREACHED);
    fx.write(
        "crates/demo/tests/oracle.rs",
        "#[test]\nfn t() {\n    assert_eq!(demo::helper(), 7);\n}\n",
    );
    fx.write(
        "tests/end_to_end.rs",
        "#[test]\nfn t() {\n    assert_eq!(demo::helper(), 7);\n}\n",
    );
    fx.write(
        "crates/user/src/lib.rs",
        "pub fn live() -> u8 {\n    1\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(demo::helper(), 7);\n    }\n}\n",
    );
    fx.write(
        "fleetbench/main.rs",
        "fn main() {\n    println!(\"{}\", user::live());\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Reach);
    assert_eq!(count(&report, RuleKind::Reach), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].file, "crates/demo/src/lib.rs");
    assert!(report.findings[0].message.contains("fn `helper`"));
}

#[test]
fn reach_rule_honours_a_pragma_d_integration_test_hook() {
    let fx = Fixture::new("reach-itest-hook");
    fx.write(
        "crates/demo/src/lib.rs",
        &format!(
            "// audit: allow(reach, oracle.rs checks the private state through it)\n{UNREACHED}"
        ),
    );
    fx.write(
        "crates/demo/tests/oracle.rs",
        "#[test]\nfn t() {\n    assert_eq!(demo::helper(), 7);\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Reach);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.pragmas_honoured, 1);
}

#[test]
fn reach_rule_is_cleared_by_the_benchmark() {
    let fx = Fixture::new("reach-bench");
    fx.write("crates/demo/src/lib.rs", UNREACHED);
    fx.write(
        "fleetbench/main.rs",
        "fn main() {\n    println!(\"{}\", demo::helper());\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Reach);
    assert_eq!(count(&report, RuleKind::Reach), 0, "{:?}", report.findings);
}

#[test]
fn reach_rule_ignores_comments_strings_and_reexports() {
    let fx = Fixture::new("reach-prose");
    fx.write("crates/demo/src/inner.rs", UNREACHED);
    fx.write(
        "crates/demo/src/lib.rs",
        "pub mod inner;\npub use inner::{\n    helper,\n};\n\n// helper() is documented here\nfn name() -> &'static str {\n    \"helper\"\n}\n",
    );
    let report = fx.audit_rule(RuleKind::Reach);
    assert_eq!(count(&report, RuleKind::Reach), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].file, "crates/demo/src/inner.rs");
}

#[test]
fn reach_rule_pragma_suppresses() {
    let fx = Fixture::new("reach-pragma");
    fx.write(
        "crates/demo/src/lib.rs",
        &format!(
            "/// Deliberate API.\n// audit: allow(reach, kept for the next change)\n{UNREACHED}"
        ),
    );
    let report = fx.audit_rule(RuleKind::Reach);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.pragmas_honoured, 1);
}

#[test]
fn shipped_tree_audits_clean() {
    // The acceptance bar for the PR itself: the real workspace, as checked
    // in, has zero findings. CARGO_MANIFEST_DIR is crates/xtask.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = run_audit(root, &[]).expect("audit runs");
    assert!(
        report.is_clean(),
        "shipped tree has audit findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.rust_files > 50, "workspace scan looks truncated");
    assert!(report.pragmas_honoured > 10, "pragma accounting broken");
}
