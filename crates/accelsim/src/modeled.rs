//! An executable, event-level simulator of accelerator execution models —
//! the cross-check for the closed-form Equations 5–12.
//!
//! Where `hsdp-core` computes sync/async/chained times analytically, this
//! module *simulates* them: synchronous execution serializes invocations,
//! asynchronous runs them concurrently, and chained execution evaluates the
//! classic pipeline recurrence over a stream of items. Agreement between
//! the two is asserted in tests and printed by the `chained_pipeline`
//! example.

use hsdp_simcore::time::SimDuration;

/// One accelerator stage in the executable model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// Per-item processing time on the accelerator.
    pub per_item: SimDuration,
    /// One-time setup cost before the stage can accept items.
    pub setup: SimDuration,
}

/// Simulated synchronous execution: every stage processes the whole batch,
/// serialized with all other stages, paying its setup per invocation.
#[must_use]
pub fn simulate_synchronous(stages: &[StageSpec], items: usize) -> SimDuration {
    stages
        .iter()
        .map(|s| s.setup + s.per_item.scaled(items as f64))
        .sum()
}

/// Simulated asynchronous execution: all stages run fully in parallel; the
/// slowest stage (with its setup) bounds the batch.
#[must_use]
pub fn simulate_asynchronous(stages: &[StageSpec], items: usize) -> SimDuration {
    stages
        .iter()
        .map(|s| s.setup + s.per_item.scaled(items as f64))
        .fold(SimDuration::ZERO, SimDuration::max)
}

/// Simulated chained execution via the pipeline recurrence:
/// `finish[i][s] = max(finish[i-1][s], finish[i][s-1]) + t_s`, with stage
/// setups paid concurrently while the pipeline starts (Eq. 11's bound).
///
/// Returns the wall time for the whole batch.
#[must_use]
pub fn simulate_chained(stages: &[StageSpec], items: usize) -> SimDuration {
    if stages.is_empty() || items == 0 {
        return SimDuration::ZERO;
    }
    // All stages set up concurrently before the first item enters.
    let setup = stages
        .iter()
        .map(|s| s.setup)
        .fold(SimDuration::ZERO, SimDuration::max);
    // stage_free[s]: when stage s finished its previous item.
    let mut stage_free = vec![SimDuration::ZERO; stages.len()];
    let mut last_finish = SimDuration::ZERO;
    for _item in 0..items {
        let mut ready = SimDuration::ZERO; // when this item leaves the previous stage
        for (s, spec) in stages.iter().enumerate() {
            let start = ready.max(stage_free[s]);
            let finish = start + spec.per_item;
            stage_free[s] = finish;
            ready = finish;
        }
        last_finish = ready;
    }
    setup + last_finish
}

/// The closed-form chained estimate of Equations 10–12 for a whole batch:
/// `max setup + (items) * max per-item + fill` is bounded below by
/// `max setup + items * max per-item`; the analytical model reports the
/// per-batch time as `t_lpen + t_lsubnp` where `t_lsubnp` is the slowest
/// stage's total time over the batch.
#[must_use]
pub fn analytic_chained(stages: &[StageSpec], items: usize) -> SimDuration {
    let setup = stages
        .iter()
        .map(|s| s.setup)
        .fold(SimDuration::ZERO, SimDuration::max);
    let slowest_total = stages
        .iter()
        .map(|s| s.per_item.scaled(items as f64))
        .fold(SimDuration::ZERO, SimDuration::max);
    setup + slowest_total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn stages() -> Vec<StageSpec> {
        vec![
            StageSpec {
                per_item: us(10),
                setup: us(100),
            },
            StageSpec {
                per_item: us(25),
                setup: us(5),
            },
            StageSpec {
                per_item: us(15),
                setup: us(40),
            },
        ]
    }

    #[test]
    fn sync_is_sum_async_is_max() {
        let s = stages();
        let sync = simulate_synchronous(&s, 100);
        let async_ = simulate_asynchronous(&s, 100);
        assert_eq!(sync.as_micros(), 100 + 1000 + 5 + 2500 + 40 + 1500);
        assert_eq!(async_.as_micros(), 2505);
        assert!(async_ <= sync);
    }

    #[test]
    fn chained_between_async_and_sync() {
        let s = stages();
        for items in [1usize, 10, 100] {
            let sync = simulate_synchronous(&s, items);
            let async_ = simulate_asynchronous(&s, items);
            let chained = simulate_chained(&s, items);
            assert!(chained <= sync, "items {items}");
            // Chained cannot beat the slowest stage running alone.
            assert!(chained >= async_.max(us(0)), "items {items}");
        }
    }

    #[test]
    fn chained_converges_to_analytic_bound() {
        // As the batch grows, the simulated pipeline time approaches the
        // Eq. 10–12 closed form: fill cost amortizes away.
        let s = stages();
        let items = 10_000;
        let simulated = simulate_chained(&s, items).as_nanos() as f64;
        let analytic = analytic_chained(&s, items).as_nanos() as f64;
        let rel = (simulated - analytic) / analytic;
        assert!(rel >= 0.0, "simulation includes the fill cost");
        assert!(rel < 0.01, "relative gap {rel}");
    }

    #[test]
    fn single_stage_chain_equals_serial() {
        let s = vec![StageSpec {
            per_item: us(7),
            setup: us(3),
        }];
        assert_eq!(
            simulate_chained(&s, 10).as_micros(),
            simulate_synchronous(&s, 10).as_micros()
        );
    }

    #[test]
    fn empty_cases() {
        assert_eq!(simulate_chained(&[], 10), SimDuration::ZERO);
        assert_eq!(simulate_chained(&stages(), 0), SimDuration::ZERO);
        assert_eq!(simulate_synchronous(&[], 10), SimDuration::ZERO);
    }

    #[test]
    fn paper_table8_stages_match_model() {
        // The paper's stages: serialization 518.3us/31x, SHA3 1112.5us/51.3x
        // per batch, setups 1488.9us and 4.1us. Treat the batch as one item.
        let stages = vec![
            StageSpec {
                per_item: SimDuration::from_nanos((518_300.0 / 31.0 * 1000.0) as u64 / 1000),
                setup: SimDuration::from_nanos(1_488_900),
            },
            StageSpec {
                per_item: SimDuration::from_nanos((1_112_500.0 / 51.3) as u64),
                setup: SimDuration::from_nanos(4_100),
            },
        ];
        let chained = simulate_chained(&stages, 1);
        // One item: setup + both stage times (no overlap possible).
        let expected = 1_488_900 + stages[0].per_item.as_nanos() + stages[1].per_item.as_nanos();
        assert_eq!(chained.as_nanos(), expected);
        // Large batches converge to the analytic chained bound (Eq. 10).
        let big = simulate_chained(&stages, 1000).as_nanos() as f64;
        let analytic = analytic_chained(&stages, 1000).as_nanos() as f64;
        assert!((big - analytic) / analytic < 0.05);
    }
}
