//! Known answers for the profile-history store: the length and CRC32C of
//! the three `hsdp history seed-fixture` stores and of one fleet snapshot's
//! encoding.
//!
//! `history_gate.rs` and `history_properties.rs` compare a store against
//! itself (round trips, parallelism, recovery), so a codec change that
//! moves every snapshot alike — a field written in another order, a zero
//! value left out, a different float encoding — passes them all and breaks
//! every store written before it. These pins catch it. The snapshot shape
//! is `profile_artifacts.rs`'s small fleet. Update the pinned values only
//! when a store format change is intended.

use std::collections::BTreeMap;
use std::process::Command;

use hsdp_bench::FleetRun;
use hsdp_platforms::runner::FleetConfig;
use hsdp_profiling::history::SnapshotMeta;
use hsdp_taxes::crc::crc32c;

/// `(inject, length, CRC32C)` of each `seed-fixture` store.
const FIXTURES: [(&str, usize, u32); 3] = [
    ("sustained", 3_217, 0xbba0_e982),
    ("blip", 3_207, 0xc490_1cdb),
    ("none", 3_205, 0xe3e6_978d),
];

/// `(length, CRC32C)` of the small fleet's snapshot encoding.
const SNAPSHOT: (usize, u32) = (9_905, 0xc1b4_852a);

#[test]
fn seed_fixture_stores_hold_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("hsdp-history-ka-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut got = Vec::new();
    for (inject, _, _) in FIXTURES {
        let store = dir.join(format!("{inject}.bin"));
        let out = Command::new(env!("CARGO_BIN_EXE_hsdp"))
            .args(["history", "seed-fixture", "--store"])
            .arg(&store)
            .args(["--inject", inject])
            .output()
            .expect("run seed-fixture");
        assert!(
            out.status.success(),
            "seed-fixture {inject}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&store).expect("read store");
        got.push((inject, bytes.len(), crc32c(&bytes)));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, FIXTURES, "seed-fixture store bytes changed");
}

#[test]
fn fleet_snapshot_encodes_to_the_pinned_bytes() {
    let run = FleetRun::new(FleetConfig {
        db_queries: 40,
        analytics_queries: 6,
        fact_rows: 600,
        seed: 0xFACE,
        parallelism: 1,
        shards: 2,
        tablets: 3,
        perturb: None,
    });
    let meta = SnapshotMeta {
        commit: "0123456789abcdef".to_owned(),
        sequence: 42,
        host_parallelism: 2,
        cpu_features: "sse4.2".to_owned(),
    };
    let bench = BTreeMap::from([
        ("fleet/wall_clock/sequential".to_owned(), 1.5e8),
        ("kernel/crc32c".to_owned(), 0.125),
    ]);
    let bytes = run.snapshot(meta, bench).encode();
    assert_eq!(
        (bytes.len(), crc32c(&bytes)),
        SNAPSHOT,
        "snapshot encoding changed"
    );
}
