//! Property-style tests of the profile-history store: randomized snapshot
//! round-trips, append-after-truncation recovery, and corrupted-frame
//! detection at the `HistoryStore` level (the frame codec's own
//! byte-exact sweeps live in `hsdp_taxes::framed`).

use std::collections::BTreeMap;

use hsdp_profiling::history::{
    HistoryError, HistoryStore, ProfileSnapshot, QuantileRow, SnapshotMeta,
};
use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::framed;

/// Every intact snapshot before the first damage, and that damage: the
/// tolerant read `HistoryStore::append` recovers with.
fn scan_store(store: &HistoryStore) -> (Vec<ProfileSnapshot>, Option<framed::FramedError>) {
    let bytes = std::fs::read(store.path()).expect("read store");
    let scan = framed::scan(&bytes).expect("header intact");
    let snapshots = scan
        .frames
        .into_iter()
        .map(|frame| ProfileSnapshot::decode(frame).expect("intact frame decodes"))
        .collect();
    (snapshots, scan.damage)
}

/// A store in a fresh directory of the test's own: the tests run on
/// parallel threads of one process, so each removes only what it made
/// (`remove_store`).
fn temp_store(tag: &str) -> HistoryStore {
    let dir = std::env::temp_dir().join(format!("hsdp-history-prop-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    HistoryStore::open(dir.join("store.bin"))
}

/// Removes a `temp_store` store and its directory.
fn remove_store(store: &HistoryStore) {
    if let Some(dir) = store.path().parent() {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A snapshot with seeded-random content: variable key counts, arbitrary
/// u64s, escaping-hostile strings.
fn random_snapshot(rng: &mut StdRng) -> ProfileSnapshot {
    let mut snapshot = ProfileSnapshot {
        meta: SnapshotMeta {
            commit: format!("c{:016x}", rng.random::<u64>()),
            sequence: rng.random(),
            host_parallelism: rng.random_range(1u64..256),
            cpu_features: "sse4.2+pclmul+avx2".to_owned(),
        },
        total_exact_ns: rng.random(),
        total_samples: rng.random(),
        categories: BTreeMap::new(),
        stacks: BTreeMap::new(),
        quantiles: BTreeMap::new(),
        bench: BTreeMap::new(),
        tail: BTreeMap::new(),
    };
    for i in 0..rng.random_range(0usize..8) {
        snapshot
            .categories
            .insert(format!("dc.cat{i}"), rng.random());
    }
    for i in 0..rng.random_range(0usize..12) {
        snapshot
            .stacks
            .insert(format!("root;frame{i};leaf \"q\""), rng.random());
    }
    for i in 0..rng.random_range(0usize..4) {
        snapshot.quantiles.insert(
            format!("platform/metric{i}"),
            QuantileRow {
                count: rng.random(),
                p50: rng.random(),
                p95: rng.random(),
                p99: rng.random(),
            },
        );
    }
    for i in 0..rng.random_range(0usize..4) {
        // audit: allow(cast, bench fixture value from a bounded range)
        let ns = rng.random_range(0u64..1 << 40) as f64 / 8.0;
        snapshot.bench.insert(format!("kernel/bench{i}"), ns);
    }
    for i in 0..rng.random_range(0usize..6) {
        snapshot
            .tail
            .insert(format!("platform/tail{i}"), rng.random());
    }
    snapshot
}

#[test]
fn random_snapshots_round_trip_byte_identically() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for round in 0..100 {
        let snapshot = random_snapshot(&mut rng);
        let bytes = snapshot.encode();
        let decoded = ProfileSnapshot::decode(&bytes)
            .unwrap_or_else(|e| panic!("round {round}: decode failed: {e}"));
        assert_eq!(decoded, snapshot, "round {round}: decoded mismatch");
        assert_eq!(
            decoded.encode(),
            bytes,
            "round {round}: re-encode not byte-identical"
        );
    }
}

#[test]
fn store_round_trips_many_snapshots() {
    let store = temp_store("many");
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    let snapshots: Vec<ProfileSnapshot> = (0..20).map(|_| random_snapshot(&mut rng)).collect();
    for (i, snapshot) in snapshots.iter().enumerate() {
        let outcome = store.append(snapshot).expect("append");
        assert_eq!(outcome.snapshots, i + 1);
        assert!(!outcome.recovered);
    }
    assert_eq!(store.load().expect("strict load"), snapshots);
    remove_store(&store);
}

#[test]
fn append_recovers_from_any_torn_tail() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    let intact: Vec<ProfileSnapshot> = (0..3).map(|_| random_snapshot(&mut rng)).collect();
    let replacement = random_snapshot(&mut rng);

    let store = temp_store("torn");
    for snapshot in &intact {
        store.append(snapshot).expect("append");
    }
    let full = std::fs::read(store.path()).expect("read store");

    // Tear the file mid-way through the last frame (every candidate length
    // between "after frame 2" and "end of file", sampled).
    let scan = framed::scan(&full).expect("intact store scans");
    assert_eq!(scan.frames.len(), 3);
    let second_end = {
        // Recompute where frame 2 ends: header + two frames.
        let mut prefix = Vec::new();
        framed::write_header(&mut prefix);
        framed::append_frame(&mut prefix, &intact[0].encode());
        framed::append_frame(&mut prefix, &intact[1].encode());
        prefix.len()
    };
    for cut in [second_end + 1, second_end + 4, full.len() - 1] {
        std::fs::write(store.path(), &full[..cut]).expect("tear file");
        // Strict load refuses the torn store.
        match store.load() {
            Err(HistoryError::Framed(framed::FramedError::Truncated { .. })) => {}
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
        // A tolerant scan yields the intact prefix.
        let (prefix_snapshots, damage) = scan_store(&store);
        assert_eq!(prefix_snapshots, intact[..2], "cut {cut}");
        assert!(damage.is_some(), "cut {cut}: damage reported");
        // Append discards the torn tail and lands the new snapshot.
        let outcome = store.append(&replacement).expect("recovering append");
        assert!(outcome.recovered, "cut {cut}: recovery flagged");
        assert_eq!(outcome.snapshots, 3);
        let recovered = store.load().expect("store healthy after recovery");
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[..2], intact[..2]);
        assert_eq!(recovered[2], replacement, "cut {cut}");
    }
    remove_store(&store);
}

#[test]
fn corrupted_frame_is_detected_not_silently_read() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    let snapshots: Vec<ProfileSnapshot> = (0..3).map(|_| random_snapshot(&mut rng)).collect();
    let store = temp_store("corrupt");
    for snapshot in &snapshots {
        store.append(snapshot).expect("append");
    }
    let full = std::fs::read(store.path()).expect("read store");

    // Flip one payload byte inside the middle frame.
    let mut prefix = Vec::new();
    framed::write_header(&mut prefix);
    framed::append_frame(&mut prefix, &snapshots[0].encode());
    let first_end = prefix.len();
    let mut corrupted = full.clone();
    let target = first_end + framed::FRAME_PREFIX_LEN + 2;
    corrupted[target] ^= 0xFF;
    std::fs::write(store.path(), &corrupted).expect("write corrupted store");

    match store.load() {
        Err(HistoryError::Framed(framed::FramedError::Corrupt { frame, .. })) => {
            assert_eq!(frame, 1, "damage attributed to the middle frame");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let (intact_prefix, damage) = scan_store(&store);
    assert_eq!(
        intact_prefix,
        snapshots[..1],
        "frames before the damage survive"
    );
    assert!(matches!(
        damage,
        Some(framed::FramedError::Corrupt { frame: 1, .. })
    ));
    remove_store(&store);
}
