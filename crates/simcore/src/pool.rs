//! Deterministic parallel execution: a dependency-free scoped worker pool
//! and the shard planning that keeps parallel runs byte-identical to
//! sequential ones.
//!
//! The fleet driver decomposes every platform's query stream into a fixed
//! [`ShardPlan`] — the plan depends only on the workload configuration and
//! the base seed, never on the thread count. Worker threads merely *schedule*
//! the shards; results are reassembled in canonical shard order by
//! [`run_jobs_perturbed`], so a run at `parallelism = 8` folds to exactly the
//! same record stream as `parallelism = 1`.
//!
//! The pool is hand-rolled on `std::thread::scope` + a mutex-guarded job
//! queue (the workspace builds with no external dependencies and forbids
//! unsafe code), and is library code under the `panic` audit rule: it never
//! panics on its own behalf, and worker panics are propagated — not
//! swallowed — via [`std::panic::resume_unwind`].

use std::sync::{Mutex, MutexGuard, PoisonError};

use hsdp_rng::{derive_seed, Rng, StdRng};

/// Sub-stream for the dispatch-order permutation of a [`Perturbation`].
const STREAM_DISPATCH: u64 = 0xD15_0ACE;
/// Sub-stream for the completion-consumption permutation.
const STREAM_CONSUME: u64 = 0xC0_25FE;
/// Sub-stream for per-job start jitter.
const STREAM_JITTER: u64 = 0x7177E6;
/// Upper bound (exclusive) on injected per-job start jitter, microseconds.
const JITTER_SPAN_US: u64 = 180;

/// A seeded schedule-perturbation knob — the dynamic counterpart of the
/// `determinism` audit rule.
///
/// Under a perturbation the pool permutes job *dispatch* order, injects a
/// small derived start jitter per job, and permutes the order in which
/// completed results are *consumed* before the canonical reassembly. None
/// of that may change fleet output: the byte-identical invariant says
/// results depend only on the shard plan, never on the schedule. Tests (and
/// the CI smoke step) run the same workload under many perturbation seeds
/// and assert the artifacts do not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perturbation {
    seed: u64,
}

impl Perturbation {
    /// A perturbation with the given schedule seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Perturbation { seed }
    }

    /// The schedule seed.
    #[must_use]
    pub fn seed(self) -> u64 {
        self.seed
    }

    /// Fisher–Yates-shuffles `items` with a generator derived from the
    /// perturbation seed, the sub-stream, and the slice length.
    fn shuffle<T>(self, stream: u64, items: &mut [T]) {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, stream, items.len() as u64));
        for i in (1..items.len()).rev() {
            let j = rng.random_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Derived start delay for job `index` — skews worker interleavings so
    /// completion order genuinely differs between perturbation seeds.
    fn jitter(self, index: usize) -> std::time::Duration {
        let us = derive_seed(self.seed, STREAM_JITTER, index as u64) % JITTER_SPAN_US;
        std::time::Duration::from_micros(us)
    }
}

/// Locks a mutex, ignoring poisoning: the pool never mutates shared state
/// while holding the lock, so a poisoned queue is still structurally sound,
/// and the poisoning panic itself is re-raised at join time.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `jobs` on up to `parallelism` worker threads and returns their
/// results **in input order**, regardless of which worker finished first.
///
/// With `parallelism <= 1` (or at most one job) and no perturbation,
/// everything runs inline on the calling thread — no threads are spawned,
/// making the sequential path zero-overhead and trivially identical to the
/// parallel one.
///
/// If a job panics, the panic is propagated to the caller once all other
/// workers have drained.
///
/// With `Some(perturbation)` the dispatch order is a seeded permutation of
/// the input order, each job's start is delayed by a small derived jitter,
/// and completed results are consumed in a second seeded permutation before
/// the canonical index-ordered reassembly. The returned vector must be
/// identical to the unperturbed run — that is the property the determinism
/// tests drive through this knob.
pub fn run_jobs_perturbed<T, F>(
    parallelism: usize,
    jobs: Vec<F>,
    perturbation: Option<Perturbation>,
) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let total = jobs.len();
    if perturbation.is_none() && (parallelism <= 1 || total <= 1) {
        // The common sequential path stays allocation- and shuffle-free.
        return jobs.into_iter().map(|job| job()).collect();
    }

    let mut indexed_jobs: Vec<(usize, F)> = jobs.into_iter().enumerate().collect();
    if let Some(p) = perturbation {
        p.shuffle(STREAM_DISPATCH, &mut indexed_jobs);
    }

    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(total);
    if parallelism <= 1 || total <= 1 {
        // Sequential but perturbed: execute in the permuted dispatch order.
        indexed.extend(indexed_jobs.into_iter().map(|(index, job)| (index, job())));
    } else {
        let workers = parallelism.min(total);
        let queue = Mutex::new(indexed_jobs.into_iter());
        let mut panicked = None;

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            // Hold the lock only to pop; the job runs unlocked
                            // so workers overlap fully.
                            let next = lock(&queue).next();
                            match next {
                                Some((index, job)) => {
                                    if let Some(p) = perturbation {
                                        std::thread::sleep(p.jitter(index));
                                    }
                                    local.push((index, job()));
                                }
                                None => return local,
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => indexed.extend(local),
                    Err(payload) => panicked = Some(payload),
                }
            }
        });
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    }

    if let Some(p) = perturbation {
        // Consumption-order perturbation: the reassembly below must not care
        // which order completed results are visited in.
        p.shuffle(STREAM_CONSUME, &mut indexed);
    }

    // Canonical merge: reassemble by input index. Every job sends exactly one
    // result (a panicking job resumed above), so each slot fills exactly once.
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    for (index, value) in indexed {
        slots[index] = Some(value);
    }
    let out: Vec<T> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), total, "every job yields exactly one result");
    out
}

/// One shard of a sharded workload: a contiguous slice of the query stream
/// with its own independently derived RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position in canonical merge order (0-based).
    pub index: usize,
    /// Number of workload items (queries) assigned to this shard.
    pub items: usize,
    /// Seed for this shard, derived as `derive_seed(base, stream, index)` —
    /// independent of every other shard's stream.
    pub seed: u64,
}

/// A deterministic decomposition of `total` workload items into shards.
///
/// The plan is a pure function of `(total, shards, base_seed, stream)`; the
/// thread count never enters, which is what makes fleet output
/// thread-count-invariant. Remainder items go to the lowest-indexed shards,
/// and shards that would receive zero items are dropped from the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Plans `total` items across at most `shards` shards (at least one).
    #[must_use]
    pub fn new(total: usize, shards: usize, base_seed: u64, stream: u64) -> Self {
        let shards = shards.max(1);
        let base_items = total / shards;
        let remainder = total % shards;
        let plan = (0..shards)
            .map(|index| Shard {
                index,
                items: base_items + usize::from(index < remainder),
                seed: derive_seed(base_seed, stream, index as u64),
            })
            .filter(|shard| shard.items > 0)
            .collect();
        ShardPlan { shards: plan }
    }

    /// The shards, in canonical merge order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of non-empty shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the workload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_path_preserves_order() {
        let jobs: Vec<_> = (0..10).map(|i| move || i * 2).collect();
        assert_eq!(
            run_jobs_perturbed(1, jobs, None),
            (0..10).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_results_arrive_in_input_order() {
        for parallelism in [2, 3, 8, 64] {
            let jobs: Vec<_> = (0..37u64)
                .map(|i| {
                    move || {
                        // Skew runtimes so completion order differs from
                        // submission order.
                        if i % 5 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        i * i
                    }
                })
                .collect();
            let got = run_jobs_perturbed(parallelism, jobs, None);
            let want: Vec<u64> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "parallelism {parallelism}");
        }
    }

    #[test]
    fn empty_and_single_job_sets() {
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(run_jobs_perturbed(4, none, None).is_empty());
        assert_eq!(run_jobs_perturbed(4, vec![|| 9u8], None), vec![9]);
    }

    #[test]
    fn worker_panic_propagates() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job failed")),
            Box::new(|| 3),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs_perturbed(2, jobs, None)
        }));
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn perturbed_schedules_return_identical_results() {
        let make_jobs = || -> Vec<_> {
            (0..23u64)
                .map(|i| {
                    move || {
                        if i % 4 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(150));
                        }
                        i.wrapping_mul(0x9E37_79B9).rotate_left(13)
                    }
                })
                .collect()
        };
        let baseline = run_jobs_perturbed(1, make_jobs(), None);
        for parallelism in [1, 4] {
            for seed in 0..6u64 {
                let got =
                    run_jobs_perturbed(parallelism, make_jobs(), Some(Perturbation::new(seed)));
                assert_eq!(got, baseline, "parallelism {parallelism} seed {seed}");
            }
        }
    }

    #[test]
    fn perturbation_actually_changes_dispatch_order() {
        // Guard against the knob silently becoming a no-op: record the order
        // jobs *start* in under a perturbed sequential run.
        let order = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..16usize)
            .map(|i| {
                let order = &order;
                move || lock(order).push(i)
            })
            .collect();
        run_jobs_perturbed(1, jobs, Some(Perturbation::new(7)));
        let started = lock(&order).clone();
        let canonical: Vec<usize> = (0..16).collect();
        assert_eq!(started.len(), 16);
        assert_ne!(started, canonical, "dispatch order must be permuted");
    }

    #[test]
    fn perturbation_is_a_pure_function_of_its_seed() {
        let p = Perturbation::new(42);
        assert_eq!(p, Perturbation::new(42));
        assert_eq!(p.seed(), 42);
        let mut a: Vec<usize> = (0..32).collect();
        let mut b: Vec<usize> = (0..32).collect();
        p.shuffle(STREAM_DISPATCH, &mut a);
        Perturbation::new(42).shuffle(STREAM_DISPATCH, &mut b);
        assert_eq!(a, b, "same seed, same permutation");
        let mut c: Vec<usize> = (0..32).collect();
        Perturbation::new(43).shuffle(STREAM_DISPATCH, &mut c);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn shard_plan_is_thread_count_free_and_exact() {
        for (total, shards) in [(0, 4), (1, 4), (7, 3), (300, 4), (300, 7), (5, 9)] {
            let plan = ShardPlan::new(total, shards, 0xC0FFEE, 1);
            let planned: usize = plan.shards().iter().map(|s| s.items).sum();
            assert_eq!(planned, total, "total {total} shards {shards}");
            assert!(plan.len() <= shards.max(1));
            // Remainder goes to the lowest indices: sizes are non-increasing.
            let sizes: Vec<_> = plan.shards().iter().map(|s| s.items).collect();
            let mut sorted = sizes.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(sizes, sorted);
        }
    }

    #[test]
    fn shard_seeds_are_distinct_per_shard_and_stream() {
        let a = ShardPlan::new(100, 8, 11, 1);
        let b = ShardPlan::new(100, 8, 11, 2);
        let mut seeds = std::collections::HashSet::new();
        for shard in a.shards().iter().chain(b.shards()) {
            assert!(seeds.insert(shard.seed), "seed collision at {shard:?}");
        }
        // Same inputs, same plan: the decomposition is pure.
        assert_eq!(a, ShardPlan::new(100, 8, 11, 1));
    }

    #[test]
    fn sharded_fold_matches_sequential_fold() {
        // The canonical end-to-end property: running a shard plan's jobs at
        // any parallelism and folding in shard order yields the same stream.
        let plan = ShardPlan::new(64, 8, 99, 3);
        let make_jobs = || -> Vec<_> {
            plan.shards()
                .iter()
                .map(|&Shard { items, seed, .. }| {
                    move || {
                        use hsdp_rng::{Rng, StdRng};
                        let mut rng = StdRng::seed_from_u64(seed);
                        (0..items).map(|_| rng.next_u64()).collect::<Vec<u64>>()
                    }
                })
                .collect()
        };
        let sequential: Vec<u64> = run_jobs_perturbed(1, make_jobs(), None)
            .into_iter()
            .flatten()
            .collect();
        for parallelism in [2, 4, 8] {
            let parallel: Vec<u64> = run_jobs_perturbed(parallelism, make_jobs(), None)
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(parallel, sequential, "parallelism {parallelism}");
        }
    }
}
