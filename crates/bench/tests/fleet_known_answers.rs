//! Known answers for the fleet bundle: the length and CRC32C of every file
//! `FleetRun::bundle` writes for one fixed small fleet, at parallelism 1
//! and 2.
//!
//! The other bundle tests compare variants of one build against each other
//! (parallelism, perturbation, dispatch mode), so a change that moves every
//! variant alike — a different LSM merge decision, a reordered charge, a new
//! draw from a generator — passes all of them. These pins catch it. The
//! shape is `profile_artifacts.rs`'s small fleet: two shards of three
//! tablets each, and every BigTable shard still runs the full 6,000-row
//! preload, so the LSM flush and level-merge cascade is covered in full.
//! Update the pinned values only when an artifact change is intended.

use hsdp_bench::FleetRun;
use hsdp_platforms::runner::FleetConfig;
use hsdp_taxes::crc::crc32c;

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

/// `(file, length, CRC32C)` for every bundle file, in bundle order.
const PINNED: [(&str, usize, u32); 7] = [
    ("profile.json", 589, 0x33cb_016a),
    ("metrics.json", 7_671, 0x4758_9feb),
    ("trace.json", 44_972, 0xd6ad_ae10),
    ("critical_path.json", 1_412, 0xfaab_e9aa),
    ("tail.json", 12_537, 0x2627_f878),
    ("stacks.folded", 7_673, 0x2a90_f797),
    ("stacks.pb", 6_758, 0x17b0_ffb1),
];

#[test]
fn fleet_bundle_emits_the_pinned_bytes() {
    for parallelism in [1, 2] {
        let bundle = FleetRun::new(small_config(parallelism))
            .bundle("")
            .expect("every artifact passes its self-check");
        let got: Vec<(&str, usize, u32)> = bundle
            .iter()
            .map(|(name, bytes)| (*name, bytes.len(), crc32c(bytes)))
            .collect();
        assert_eq!(
            got, PINNED,
            "bundle bytes changed at parallelism {parallelism}"
        );
    }
}
