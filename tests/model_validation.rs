//! Integration tests for the validation chain: analytical model ↔
//! event-level pipeline recurrence ↔ real software pipeline.

use hsdp::accelsim::validate::{paper_replay, software_validation};
use hsdp::core::accel::{AcceleratorSpec, Speedup};
use hsdp::core::category::{CpuCategory, DatacenterTax};
use hsdp::core::chained::{chain_estimate, ChainStage};
use hsdp::core::paper::table8_stages;
use hsdp::core::units::Seconds;
use hsdp::simcore::time::SimDuration;

/// One stage of the event-level pipeline.
#[derive(Debug, Clone, Copy)]
struct StageSpec {
    /// Per-item processing time.
    per_item: SimDuration,
    /// One-time setup before the stage accepts items.
    setup: SimDuration,
}

/// The pipeline recurrence
/// `finish[i][s] = max(finish[i-1][s], finish[i][s-1]) + t_s`, with every
/// stage set up concurrently before the first item enters (Eq. 11's
/// bound). Returns the wall time for the whole batch.
fn simulate_chained(stages: &[StageSpec], items: usize) -> SimDuration {
    let setup = stages
        .iter()
        .map(|s| s.setup)
        .fold(SimDuration::ZERO, SimDuration::max);
    // stage_free[s]: when stage s finished its previous item.
    let mut stage_free = vec![SimDuration::ZERO; stages.len()];
    let mut last_finish = SimDuration::ZERO;
    for _ in 0..items {
        // When this item leaves the previous stage.
        let mut ready = SimDuration::ZERO;
        for (free, spec) in stage_free.iter_mut().zip(stages) {
            ready = ready.max(*free) + spec.per_item;
            *free = ready;
        }
        last_finish = ready;
    }
    setup + last_finish
}

/// `chain_estimate`'s Eqs. 10–12 time for `chain`, in whole nanoseconds.
fn closed_form_nanos(chain: &[ChainStage]) -> u64 {
    let est = chain_estimate(chain).expect("non-empty chain");
    (est.chained_time.as_secs() * 1e9).round() as u64
}

#[test]
fn paper_table8_replay_is_exact() {
    let replay = paper_replay();
    assert!((replay.recomputed_modeled_us - 6459.3).abs() < 0.5);
    assert!((replay.model_vs_measured - 0.061).abs() < 0.005);
}

#[test]
fn event_simulation_agrees_with_closed_form() {
    // Stage sets as (per-item, setup) microseconds: the pipeline recurrence
    // converges to Eqs. 10-12 from above.
    let stage_sets: [&[(u64, u64)]; 4] = [
        &[(10, 100), (30, 2)],
        &[(5, 1), (5, 1), (5, 1)],
        &[(42, 0)],
        &[(10, 100), (25, 5), (15, 40)],
    ];
    let items = 5_000;
    for set in stage_sets {
        let stages: Vec<StageSpec> = set
            .iter()
            .map(|&(per_item, setup)| StageSpec {
                per_item: SimDuration::from_micros(per_item),
                setup: SimDuration::from_micros(setup),
            })
            .collect();
        // Each stage as a speedup-1 on-chip accelerator over the batch.
        let chain: Vec<ChainStage> = set
            .iter()
            .map(|&(per_item, setup)| ChainStage {
                category: CpuCategory::from(DatacenterTax::Protobuf),
                original: Seconds::from_micros((per_item * items) as f64),
                spec: AcceleratorSpec::ideal(Speedup::UNITY)
                    .with_setup(Seconds::from_micros(setup as f64)),
            })
            .collect();
        let simulated = simulate_chained(&stages, items as usize).as_nanos() as f64;
        let analytic = closed_form_nanos(&chain) as f64;
        let gap = (simulated - analytic) / analytic;
        assert!((0.0..0.02).contains(&gap), "{set:?}: gap {gap}");
    }
}

#[test]
fn table8_chain_converges_to_closed_form() {
    // The Table 8 stages per batch: serialization 518.3us/31x and SHA3
    // 1112.5us/51.3x, setups 1488.9us and 4.1us.
    let chain = table8_stages();
    let nanos = |s: Seconds| SimDuration::from_nanos((s.as_secs() * 1e9).round() as u64);
    let stages: Vec<StageSpec> = chain
        .iter()
        .map(|s| StageSpec {
            per_item: nanos(s.spec.accelerated_time_no_penalty(s.original)),
            setup: nanos(s.spec.setup()),
        })
        .collect();
    // One batch: setup plus both stage times (no overlap possible).
    let expected = stages[0].setup + stages[0].per_item + stages[1].per_item;
    assert_eq!(simulate_chained(&stages, 1), expected);
    // Many batches converge to the Eq. 10 bound.
    let batches = 1000;
    let scaled: Vec<ChainStage> = chain
        .iter()
        .map(|s| ChainStage {
            original: s.original * batches as f64,
            ..*s
        })
        .collect();
    let simulated = simulate_chained(&stages, batches).as_nanos() as f64;
    let analytic = closed_form_nanos(&scaled) as f64;
    let gap = (simulated - analytic) / analytic;
    assert!((0.0..0.05).contains(&gap), "gap {gap}");
}

#[test]
fn software_pipeline_validates_the_model() {
    // The real pipeline runs end to end over every message. How the model
    // compares with the measurement depends on host speed and core count,
    // so `hsdp bench` reports it rather than this test.
    let v = software_validation(300, 42);
    assert_eq!(v.messages, 300);
    assert!(
        v.serialize_us > 0.0 && v.sha3_us > 0.0,
        "both stages did work"
    );
}
