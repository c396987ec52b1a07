//! Bin-level tests of the `hsdp history` gate: the seeded fixture
//! histories drive the acceptance semantics (sustained drift exits 1, a
//! single-snapshot blip exits zero), and `profile --snapshot` → `report`
//! round-trips byte-identically at any parallelism.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hsdp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsdp-history-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn seed_fixture(store: &PathBuf, inject: &str) {
    let out = bin()
        .args(["history", "seed-fixture"])
        .arg("--store")
        .arg(store)
        .args(["--inject", inject])
        .output()
        .expect("run seed-fixture");
    assert!(
        out.status.success(),
        "seed-fixture {inject}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn check(store: &PathBuf) -> std::process::Output {
    bin()
        .args(["history", "check"])
        .arg("--store")
        .arg(store)
        .output()
        .expect("run check")
}

#[test]
fn sustained_regression_trips_check_but_blip_passes() {
    let dir = temp_dir("gate");
    let store = dir.join("fixture.bin");

    seed_fixture(&store, "sustained");
    let out = check(&store);
    assert_eq!(
        out.status.code(),
        Some(1),
        "an injected sustained share regression must exit 1: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("SUSTAINED DRIFT"), "{stdout}");
    assert!(stdout.contains("dc.protobuf"), "{stdout}");

    seed_fixture(&store, "blip");
    let out = check(&store);
    assert!(
        out.status.success(),
        "a single-snapshot blip must not page: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    seed_fixture(&store, "none");
    let out = check(&store);
    assert!(out.status.success(), "a clean history must pass");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_names_the_regressed_keys_since_commit() {
    let dir = temp_dir("report");
    let store = dir.join("fixture.bin");
    seed_fixture(&store, "sustained");

    let out = bin()
        .args(["history", "report"])
        .arg("--store")
        .arg(&store)
        .args(["--since", "fixture0000"])
        .output()
        .expect("run report");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("fixture0000"), "{stdout}");
    assert!(
        stdout.contains("dc.protobuf"),
        "the injected regression leads the report: {stdout}"
    );
    assert!(
        stdout.contains("spanner.commit;rpc;proto_encode"),
        "{stdout}"
    );

    let out = bin()
        .args(["history", "report"])
        .arg("--store")
        .arg(&store)
        .args(["--since", "fixture0000", "--json"])
        .output()
        .expect("run report --json");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.contains("\"schema\": \"hsdp-profile-history-report/1\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"baseline_commit\": \"fixture0000\""),
        "{stdout}"
    );
    assert_eq!(stdout.matches('{').count(), stdout.matches('}').count());

    // An unknown baseline commit is bad input, not an empty report.
    let out = bin()
        .args(["history", "report"])
        .arg("--store")
        .arg(&store)
        .args(["--since", "nosuchcommit"])
        .output()
        .expect("run report");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_then_report_is_parallelism_invariant() {
    // The acceptance loop: append a real (small) fleet snapshot at
    // parallelism 1 and at parallelism 4 into separate stores, then
    // `report` both — store bytes and report output must be identical.
    let dir = temp_dir("append");
    let mut stores = Vec::new();
    let mut reports = Vec::new();
    for parallelism in ["1", "4"] {
        let store = dir.join(format!("real_p{parallelism}.bin"));
        for (commit, seq, seed) in [("commit-a", "1", "64206"), ("commit-b", "2", "48879")] {
            let out = bin()
                .arg("profile")
                .arg("--snapshot")
                .arg(&store)
                .args(["--commit", commit, "--seq", seq, "--seed", seed])
                .args(["--parallelism", parallelism, "--db-queries", "40"])
                .output()
                .expect("run profile --snapshot");
            assert!(
                out.status.success(),
                "profile --snapshot p={parallelism}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        stores.push(std::fs::read(&store).expect("read store"));
        let out = bin()
            .args(["history", "report"])
            .arg("--store")
            .arg(&store)
            .args(["--since", "commit-a"])
            .output()
            .expect("run report");
        assert!(out.status.success());
        reports.push(String::from_utf8(out.stdout).expect("utf-8"));
    }
    assert_eq!(
        stores[0], stores[1],
        "store bytes differ across parallelism"
    );
    assert_eq!(
        reports[0], reports[1],
        "report output differs across parallelism"
    );
    assert!(
        reports[0].contains("commit-a -> commit-b"),
        "{}",
        reports[0]
    );

    std::fs::remove_dir_all(&dir).ok();
}
