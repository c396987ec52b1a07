//! Integration tests for the validation chain: analytical model ↔
//! event-level simulation ↔ real software pipeline.

use hsdp::accelsim::modeled::{
    analytic_chained, simulate_asynchronous, simulate_chained, simulate_synchronous, StageSpec,
};
use hsdp::accelsim::validate::{paper_replay, software_validation};
use hsdp::simcore::time::SimDuration;

#[test]
fn paper_table8_replay_is_exact() {
    let replay = paper_replay();
    assert!((replay.recomputed_modeled_us - 6459.3).abs() < 0.5);
    assert!((replay.model_vs_measured - 0.061).abs() < 0.005);
}

#[test]
fn event_simulation_agrees_with_closed_form() {
    // Random-ish stage sets: the pipeline recurrence converges to Eqs 10-12.
    let stage_sets: Vec<Vec<StageSpec>> = vec![
        vec![
            StageSpec {
                per_item: SimDuration::from_micros(10),
                setup: SimDuration::from_micros(100),
            },
            StageSpec {
                per_item: SimDuration::from_micros(30),
                setup: SimDuration::from_micros(2),
            },
        ],
        vec![
            StageSpec {
                per_item: SimDuration::from_micros(5),
                setup: SimDuration::from_micros(1),
            },
            StageSpec {
                per_item: SimDuration::from_micros(5),
                setup: SimDuration::from_micros(1),
            },
            StageSpec {
                per_item: SimDuration::from_micros(5),
                setup: SimDuration::from_micros(1),
            },
        ],
        vec![StageSpec {
            per_item: SimDuration::from_micros(42),
            setup: SimDuration::ZERO,
        }],
    ];
    for stages in stage_sets {
        let items = 5_000;
        let simulated = simulate_chained(&stages, items).as_nanos() as f64;
        let analytic = analytic_chained(&stages, items).as_nanos() as f64;
        let gap = (simulated - analytic) / analytic;
        assert!((0.0..0.02).contains(&gap), "gap {gap}");
        // Ordering invariant: async <= chained <= sync.
        let sync = simulate_synchronous(&stages, items);
        let async_ = simulate_asynchronous(&stages, items);
        let chained = simulate_chained(&stages, items);
        assert!(async_ <= chained || stages.len() == 1);
        assert!(chained <= sync);
    }
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
