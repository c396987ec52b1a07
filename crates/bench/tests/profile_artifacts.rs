//! End-to-end checks on the stack-profile artifacts: folded-stack format,
//! pprof round-trip, parallelism-independence, and the `hsdp diff`
//! regression gate (including its nonzero exit on an injected share shift).

use std::process::Command;

use hsdp_bench::FleetRun;
use hsdp_core::category::CpuCategory;
use hsdp_core::category::SystemTax;
use hsdp_core::stack::{empty_path, Site};
use hsdp_platforms::runner::FleetConfig;
use hsdp_profiling::stacks::{max_abs_delta, pprof_category_shares, share_deltas, StackProfile};
use hsdp_simcore::time::SimDuration;
use hsdp_taxes::pprof::Profile;

fn small_config(parallelism: usize) -> FleetConfig {
    FleetConfig {
        db_queries: 40,
        analytics_queries: 6,
        fact_rows: 600,
        seed: 0xFACE,
        parallelism,
        shards: 2,
        tablets: 3,
        perturb: None,
    }
}

fn small_stack_profile(parallelism: usize) -> StackProfile {
    FleetRun::new(small_config(parallelism)).stacks()
}

fn hsdp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hsdp"))
}

#[test]
fn folded_output_is_flamegraph_ready() {
    let folded = small_stack_profile(1).folded();
    assert!(!folded.is_empty());
    let mut roots = std::collections::BTreeSet::new();
    for line in folded.lines() {
        // Every line: `frame;frame;leaf <count>` with a positive integer
        // weight and at least one semicolon (root frame + leaf).
        let (path, weight) = line.rsplit_once(' ').expect("weight separator");
        assert!(
            path.contains(';'),
            "stacked path has a root frame and a leaf: {line}"
        );
        assert!(!path.contains(' '), "no spaces inside the path: {line}");
        let w: u64 = weight.parse().expect("integer weight");
        assert!(w > 0, "zero-weight lines are dropped: {line}");
        roots.insert(path.split(';').next().expect("root").to_owned());
    }
    // All three platforms contribute roots.
    for prefix in ["spanner.", "bigtable.", "bigquery."] {
        assert!(
            roots.iter().any(|r| r.starts_with(prefix)),
            "missing {prefix} root in {roots:?}"
        );
    }
    // 2PC nests consensus under prepare/commit: deep stacks exist.
    assert!(
        folded.lines().any(|l| l.split(';').count() >= 4),
        "expected at least one >=4-deep stack"
    );
}

#[test]
fn artifacts_are_parallelism_invariant() {
    let p1 = small_stack_profile(1);
    let p4 = small_stack_profile(4);
    assert_eq!(p1, p4, "stack profile is a pure function of the workload");
    assert_eq!(p1.folded(), p4.folded());
    let period = SimDuration::from_micros(2);
    assert_eq!(
        p1.to_pprof(period).encode(),
        p4.to_pprof(period).encode(),
        "pprof bytes byte-identical across parallelism"
    );
}

#[test]
fn pprof_artifact_round_trips() {
    let stacks = small_stack_profile(1);
    let profile = stacks.to_pprof(SimDuration::from_micros(2));
    profile.validate().expect("valid export");
    let bytes = profile.encode();
    let decoded = Profile::decode(&bytes).expect("decodes");
    assert_eq!(decoded, profile, "lossless round-trip");
    // The decoded view reconstructs the same total CPU nanoseconds.
    let cpu_idx = decoded
        .sample_types
        .iter()
        .position(|vt| decoded.string(vt.kind) == "cpu")
        .expect("cpu dimension");
    let total_ns: i64 = decoded.samples.iter().map(|s| s.values[cpu_idx]).sum();
    assert_eq!(
        u64::try_from(total_ns).expect("non-negative"),
        stacks.total_exact().as_nanos()
    );
}

#[test]
fn diff_gate_passes_identical_and_fails_shifted() {
    let stacks = small_stack_profile(1);
    let period = SimDuration::from_micros(2);
    let baseline = stacks.to_pprof(period).encode();

    // Inject a ~6%-of-total share shift into a copy: a new stack under a
    // category that dominates nothing else in the profile.
    let mut shifted = stacks.clone();
    let total = stacks.total_exact().as_nanos();
    shifted.record(
        Site::intern(
            empty_path().child("injected.root"),
            "injected_leaf",
            CpuCategory::System(SystemTax::MiscSystem),
        ),
        SimDuration::from_nanos(total / 15),
        0,
    );
    let candidate = shifted.to_pprof(period).encode();

    // Library-level check first: the injected drift clears 5%.
    let deltas = share_deltas(
        &pprof_category_shares(&Profile::decode(&baseline).expect("baseline decodes")),
        &pprof_category_shares(&Profile::decode(&candidate).expect("candidate decodes")),
    );
    assert!(
        max_abs_delta(&deltas) > 0.05,
        "injected shift is above 5%: {}",
        max_abs_delta(&deltas)
    );

    // Bin-level: identical profiles pass, shifted profiles fail.
    let dir = std::env::temp_dir().join(format!("hsdp-profile-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base_path = dir.join("baseline.pb");
    let cand_path = dir.join("candidate.pb");
    std::fs::write(&base_path, &baseline).expect("write baseline");
    std::fs::write(&cand_path, &candidate).expect("write candidate");

    let ok = hsdp()
        .arg("diff")
        .args([&base_path, &base_path])
        .arg("--threshold")
        .arg("0.01")
        .status()
        .expect("run hsdp diff");
    assert!(ok.success(), "identical profiles must pass the gate");

    let fail = hsdp()
        .arg("diff")
        .args([&base_path, &cand_path])
        .arg("--threshold")
        .arg("0.01")
        .status()
        .expect("run hsdp diff");
    assert_eq!(
        fail.code(),
        Some(1),
        "a >5% category shift must trip the 1% gate"
    );

    // --json mode: same verdicts, machine-readable report in the
    // `xtask audit --json` convention.
    let ok_json = hsdp()
        .arg("diff")
        .args([&base_path, &base_path])
        .args(["--threshold", "0.01", "--json"])
        .output()
        .expect("run hsdp diff --json");
    assert!(ok_json.status.success());
    let stdout = String::from_utf8(ok_json.stdout).expect("utf-8 report");
    assert!(
        stdout.contains("\"schema\": \"hsdp-profile-diff/1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"clean\": true"), "{stdout}");
    assert!(stdout.contains("\"findings\": []"), "{stdout}");

    let fail_json = hsdp()
        .arg("diff")
        .args([&base_path, &cand_path])
        .args(["--threshold", "0.01", "--json"])
        .output()
        .expect("run hsdp diff --json");
    assert_eq!(fail_json.status.code(), Some(1));
    let stdout = String::from_utf8(fail_json.stdout).expect("utf-8 report");
    assert!(stdout.contains("\"clean\": false"), "{stdout}");
    assert!(stdout.contains("\"kind\": \"category\""), "{stdout}");
    assert_eq!(stdout.matches('{').count(), stdout.matches('}').count());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_store_bytes_are_parallelism_invariant() {
    // `hsdp profile --snapshot` must append byte-identical history frames
    // at any --parallelism: two fresh stores, one run each at p=1 and p=4,
    // same commit stamp — the store files must be byte-identical.
    let dir = std::env::temp_dir().join(format!("hsdp-snapshot-inv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut stores = Vec::new();
    for parallelism in ["1", "4"] {
        let store = dir.join(format!("history_p{parallelism}.bin"));
        std::fs::remove_file(&store).ok();
        let out = hsdp()
            .arg("profile")
            .args(["--parallelism", parallelism, "--db-queries", "40"])
            .args(["--seed", "64206"])
            .arg("--snapshot")
            .arg(&store)
            .args(["--commit", "testcommit", "--seq", "7"])
            .arg("--out")
            .arg(dir.join(format!("bundle_p{parallelism}")))
            .output()
            .expect("run hsdp profile --snapshot");
        assert!(
            out.status.success(),
            "{:?}",
            String::from_utf8_lossy(&out.stderr)
        );
        stores.push(std::fs::read(&store).expect("read store"));
    }
    assert!(!stores[0].is_empty());
    assert_eq!(
        stores[0], stores[1],
        "snapshot store bytes differ between parallelism 1 and 4"
    );
    std::fs::remove_dir_all(&dir).ok();
}
