//! Equivalence suite for the loser-tree compaction merge: on randomized
//! overlapping runs, [`merge_sorted_runs`] must reproduce the `BTreeMap`
//! merge it replaced byte for byte — same order, same dedup winner, same
//! values — since `bigtable::compact` swapped onto the loser tree.

use std::collections::BTreeMap;

use hsdp_platforms::merge::{merge_sorted_runs, Entry};
use hsdp_rng::{Rng, StdRng};

/// The original `BTreeMap` k-way merge, the oracle: insert every run in age
/// order and let later (newer) inserts overwrite earlier ones.
fn merge_runs_reference(runs: Vec<Vec<Entry>>) -> Vec<Entry> {
    let mut merged: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for run in runs {
        for (k, v) in run {
            merged.insert(k, v);
        }
    }
    merged.into_iter().collect()
}

fn kv(k: &str, v: &str) -> Entry {
    (k.as_bytes().to_vec(), v.as_bytes().to_vec())
}

/// Builds one sorted, unique-keyed run: the shape memtable flushes and
/// prior compactions produce. Keys are drawn from a small space so runs
/// overlap heavily; values record the run index so dedup winners are
/// distinguishable.
fn random_run(rng: &mut StdRng, run_index: usize, key_space: u32) -> Vec<Entry> {
    let len = rng.random_range(0..=64usize);
    let mut map: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for _ in 0..len {
        let key_id = rng.random_range(0..key_space);
        let key = format!("row-{key_id:06}").into_bytes();
        let value = format!("run-{run_index}-val-{}", rng.random::<u32>()).into_bytes();
        map.insert(key, value);
    }
    map.into_iter().collect()
}

#[test]
fn loser_tree_matches_btreemap_on_randomized_overlapping_runs() {
    let mut rng = StdRng::seed_from_u64(0xC04_FAC7);
    for trial in 0..200 {
        let run_count = rng.random_range(1..=10usize);
        // Small key spaces force duplicate chains across many runs.
        let key_space = rng.random_range(4..=96u32);
        let runs: Vec<Vec<Entry>> = (0..run_count)
            .map(|r| random_run(&mut rng, r, key_space))
            .collect();
        let expected = merge_runs_reference(runs.clone());
        let actual = merge_sorted_runs(runs);
        assert_eq!(actual, expected, "trial {trial}: k={run_count}");
    }
}

#[test]
fn loser_tree_matches_btreemap_on_disjoint_runs() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..50 {
        let run_count = rng.random_range(1..=8usize);
        // Each run owns its own key prefix: zero duplicates, pure
        // interleave ordering.
        let runs: Vec<Vec<Entry>> = (0..run_count)
            .map(|r| {
                (0..rng.random_range(0..=32usize))
                    .map(|i| {
                        (
                            format!("run{r}-key-{i:04}").into_bytes(),
                            format!("v{i}").into_bytes(),
                        )
                    })
                    .collect()
            })
            .collect();
        let expected = merge_runs_reference(runs.clone());
        let actual = merge_sorted_runs(runs);
        assert_eq!(actual, expected, "trial {trial}");
    }
}

#[test]
fn loser_tree_matches_btreemap_on_identical_runs() {
    // Every run holds the same keys; only the newest run's values survive.
    let base: Vec<Entry> = (0..40)
        .map(|i| (format!("key-{i:03}").into_bytes(), b"old".to_vec()))
        .collect();
    for k in 2..=6usize {
        let mut runs: Vec<Vec<Entry>> = vec![base.clone(); k - 1];
        let newest: Vec<Entry> = base
            .iter()
            .map(|(key, _)| (key.clone(), b"new".to_vec()))
            .collect();
        runs.push(newest);
        let expected = merge_runs_reference(runs.clone());
        let actual = merge_sorted_runs(runs);
        assert_eq!(actual, expected, "k = {k}");
        assert!(actual.iter().all(|(_, v)| v == b"new"));
    }
}

#[test]
fn non_power_of_two_run_counts() {
    for k in 1..=9usize {
        let runs: Vec<Vec<Entry>> = (0..k)
            .map(|r| {
                (0..20usize)
                    .filter(|i| i % (r + 1) == 0)
                    .map(|i| kv(&format!("key-{i:03}"), &format!("run-{r}")))
                    .collect()
            })
            .collect();
        let expected = merge_runs_reference(runs.clone());
        assert_eq!(merge_sorted_runs(runs), expected, "k = {k}");
    }
}

#[test]
fn runs_with_empty_members() {
    let runs = vec![
        Vec::new(),
        vec![kv("b", "1")],
        Vec::new(),
        vec![kv("a", "2"), kv("b", "3")],
        Vec::new(),
    ];
    let expected = merge_runs_reference(runs.clone());
    assert_eq!(merge_sorted_runs(runs), expected);
}

#[test]
fn leveled_merge_matches_reference_merge() {
    // The shape of one leveled-compaction merge in `bigtable`: four
    // overlapping sorted runs.
    let runs: Vec<Vec<Entry>> = (0..4)
        .map(|run| {
            (0..50u32)
                .map(|i| {
                    (
                        format!("k-{:04}", (i * 7 + run * 3) % 120).into_bytes(),
                        format!("v-{run}-{i}").into_bytes(),
                    )
                })
                .collect::<BTreeMap<_, _>>()
                .into_iter()
                .collect()
        })
        .collect();
    let merged = merge_sorted_runs(runs.clone());
    let reference = merge_runs_reference(runs);
    assert_eq!(merged, reference);
}
