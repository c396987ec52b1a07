//! K-way sorted-run merging for LSM compaction.
//!
//! [`merge_sorted_runs`] is the hot path behind `bigtable`'s size-tiered
//! compaction: a loser-tree (tournament) merge over the sorted input runs.
//! Each output entry costs one leaf-to-root replay — `ceil(log2 K)`
//! comparisons — with no per-entry tree rebalancing and no key
//! re-allocation: entries are moved out of the input runs, never cloned.
//! Duplicate keys resolve newest-run-wins (runs are supplied oldest-first),
//! matching LSM semantics.
//!
//! `tests/merge_equivalence.rs` checks it against the original `BTreeMap`
//! merge it replaced, which lives there as test code.

use std::cmp::Ordering;

/// A key-value entry as stored in an SSTable run.
pub type Entry = (Vec<u8>, Vec<u8>);

/// One input run's cursor: an owning iterator plus its current head.
struct RunCursor {
    iter: std::vec::IntoIter<Entry>,
    head: Option<Entry>,
}

impl RunCursor {
    fn new(run: Vec<Entry>) -> Self {
        let mut iter = run.into_iter();
        let head = iter.next();
        RunCursor { iter, head }
    }

    /// An exhausted cursor, used to pad the leaf count to a power of two.
    fn empty() -> Self {
        RunCursor {
            iter: Vec::new().into_iter(),
            head: None,
        }
    }

    fn advance(&mut self) -> Option<Entry> {
        std::mem::replace(&mut self.head, self.iter.next())
    }
}

/// Run `a` beats run `b` when its head key is smaller, or — on equal keys —
/// when its run index is *larger*: the newer run pops first, so the newest
/// value wins and the older duplicate is skipped at output time. Exhausted
/// cursors lose to everything.
fn beats(runs: &[RunCursor], a: usize, b: usize) -> bool {
    match (&runs[a].head, &runs[b].head) {
        (Some((ka, _)), Some((kb, _))) => match ka.cmp(kb) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a > b,
        },
        (Some(_), None) => true,
        (None, Some(_)) => false,
        // Both exhausted: any deterministic answer works.
        (None, None) => a < b,
    }
}

/// A loser tree over run cursors (`runs.len()` is a power of two).
///
/// `tree[1..cap]` hold the *losers* of each internal match; `tree[0]` holds
/// the overall winner. Leaf `r` sits above internal node `(cap + r) / 2`,
/// so popping the winner replays exactly one leaf-to-root path.
struct LoserTree {
    tree: Vec<usize>,
    cap: usize,
}

impl LoserTree {
    fn new(runs: &[RunCursor]) -> Self {
        let cap = runs.len();
        debug_assert!(cap.is_power_of_two());
        let mut tree = vec![0usize; cap];
        // Play the full tournament bottom-up, storing losers on the way.
        let mut level: Vec<usize> = (0..cap).collect();
        let mut node = cap;
        while level.len() > 1 {
            node /= 2;
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in 0..level.len() / 2 {
                let (a, b) = (level[2 * pair], level[2 * pair + 1]);
                let (winner, loser) = if beats(runs, a, b) { (a, b) } else { (b, a) };
                tree[node + pair] = loser;
                next.push(winner);
            }
            level = next;
        }
        tree[0] = level[0];
        LoserTree { tree, cap }
    }

    /// The run index currently holding the smallest head.
    fn winner(&self) -> usize {
        self.tree[0]
    }

    /// After the winner's cursor advanced, replay its leaf-to-root path.
    fn replay(&mut self, runs: &[RunCursor]) {
        let mut winner = self.tree[0];
        let mut node = (self.cap + winner) / 2;
        while node >= 1 {
            if beats(runs, self.tree[node], winner) {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }
}

/// Merges sorted runs (oldest first) into one sorted, deduplicated run.
///
/// Each run must be sorted by key with unique keys within the run — the
/// shape `BTreeMap::into_iter` and this function itself produce. On keys
/// present in several runs the entry from the newest (highest-index) run
/// wins, exactly like the `BTreeMap` insert-in-age-order merge it replaces.
#[must_use]
pub fn merge_sorted_runs(runs: Vec<Vec<Entry>>) -> Vec<Entry> {
    if runs.is_empty() {
        return Vec::new();
    }
    let total: usize = runs.iter().map(Vec::len).sum();
    let cap = runs.len().next_power_of_two();
    let mut cursors: Vec<RunCursor> = runs.into_iter().map(RunCursor::new).collect();
    cursors.resize_with(cap, RunCursor::empty);

    let mut out: Vec<Entry> = Vec::with_capacity(total);
    let mut tree = LoserTree::new(&cursors);
    while let Some((key, value)) = cursors[tree.winner()].advance() {
        // The newest run's copy of a key pops first (tie-break), so an
        // equal key already at the tail means this one is stale: drop it.
        match out.last() {
            Some((last_key, _)) if *last_key == key => {}
            _ => out.push((key, value)),
        }
        tree.replay(&cursors);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(k: &str, v: &str) -> Entry {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn empty_and_single_run() {
        assert!(merge_sorted_runs(Vec::new()).is_empty());
        assert!(merge_sorted_runs(vec![Vec::new()]).is_empty());
        let run = vec![kv("a", "1"), kv("b", "2")];
        assert_eq!(merge_sorted_runs(vec![run.clone()]), run);
    }

    #[test]
    fn newest_run_wins_on_duplicates() {
        let old = vec![kv("a", "old"), kv("b", "old"), kv("c", "old")];
        let new = vec![kv("b", "new"), kv("d", "new")];
        let merged = merge_sorted_runs(vec![old, new]);
        assert_eq!(
            merged,
            vec![
                kv("a", "old"),
                kv("b", "new"),
                kv("c", "old"),
                kv("d", "new")
            ]
        );
    }

    #[test]
    fn three_way_duplicate_chain_takes_newest() {
        let r0 = vec![kv("k", "v0")];
        let r1 = vec![kv("k", "v1")];
        let r2 = vec![kv("k", "v2")];
        assert_eq!(merge_sorted_runs(vec![r0, r1, r2]), vec![kv("k", "v2")]);
    }
}
