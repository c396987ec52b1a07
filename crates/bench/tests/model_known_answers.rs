//! Known answers for the analytical model (Equations 1–12 of Figure 7).
//!
//! CI compares `hsdp figures` at two parallelisms, which catches a number
//! that depends on scheduling but not one that moves everywhere at once.
//! These pins catch the second kind. They record:
//!
//! - the length and CRC32C of every model exhibit's text (Figures 9, 10 and
//!   13–15, and the chained-penalty ablation), which run on the paper's
//!   calibrated populations;
//! - the f64 bits of the Table 8 replay's modeled time;
//! - the f64 bits of the Section 6 limit-study speedups on each population
//!   the simulated fleet measures (`PlatformRun::population`), at
//!   parallelism 1 and 2.
//!
//! Update the pinned values only when a model or fleet change is intended.

use hsdp_accelsim::validate::paper_replay;
use hsdp_bench::exhibits;
use hsdp_bench::fleet::profile_fleet;
use hsdp_core::accel::Speedup;
use hsdp_core::paper;
use hsdp_core::plan::{AccelerationPlan, InvocationModel};
use hsdp_platforms::runner::FleetConfig;
use hsdp_taxes::crc::crc32c;

/// `(exhibit, length, CRC32C)` for every model exhibit.
const EXHIBITS: [(&str, usize, u32); 6] = [
    ("figure9", 2_446, 0x69c2_75eb),
    ("figure10", 1_215, 0x5b67_1f64),
    ("figure13", 3_688, 0x7d1c_cb1c),
    ("figure14", 2_643, 0x1215_5332),
    ("figure15", 1_113, 0x40d3_28bb),
    ("ablation_chain_penalty", 197, 0x0953_4416),
];

/// The bits of `paper_replay().recomputed_modeled_us`.
const REPLAY_MODELED_US: u64 = 0x40b9_3b49_41c5_83a4; // 6459.286...

/// Per measured platform population, in fleet order: the bits of the
/// aggregate speedup at 8x under Sync, Async and Chained, then of the
/// aggregate and peak co-design speedups at 64x under Sync. The fleet is
/// `exhibits::bench_fleet_config()`, the shape `hsdp figures` profiles.
/// With no penalties Chained equals Async (Eq. 10 reduces to Eq. 6), and
/// BigQuery's peak is infinite: after the Section 4.1 attribution (remote
/// before IO before CPU) 20 of its 30 measured queries keep no CPU time, so
/// removing their dependencies leaves nothing.
const MEASURED: [[u64; 5]; 3] = [
    // Spanner: 1.024, 1.026, 1.026, 53.16, 274.97.
    [
        0x3ff0_6182_1ea1_e969,
        0x3ff0_6aa3_d1fc_ea99,
        0x3ff0_6aa3_d1fc_ea99,
        0x404a_94ca_e8a3_8509,
        0x4071_2f81_93b3_09c4,
    ],
    // BigTable: 1.407, 1.457, 1.457, 5.363, 16.97.
    [
        0x3ff6_8277_420c_8652,
        0x3ff7_5155_ebf7_b647,
        0x3ff7_5155_ebf7_b647,
        0x4015_7383_486f_0541,
        0x4030_f712_6888_8aec,
    ],
    // BigQuery: 1.003, 1.003, 1.003, 687.6, inf.
    [
        0x3ff0_0bfd_cd26_ed19,
        0x3ff0_0d09_91ed_8db2,
        0x3ff0_0d09_91ed_8db2,
        0x4085_7d06_d7ff_35eb,
        0x7ff0_0000_0000_0000,
    ],
];

fn exhibit_text(name: &str) -> String {
    match name {
        "figure9" => exhibits::figure9(),
        "figure10" => exhibits::figure10(),
        "figure13" => exhibits::figure13(),
        "figure14" => exhibits::figure14(),
        "figure15" => exhibits::figure15(),
        _ => exhibits::ablation_chain_penalty(),
    }
}

#[test]
fn model_exhibits_print_the_pinned_bytes() {
    let got: Vec<(&str, usize, u32)> = EXHIBITS
        .iter()
        .map(|&(name, _, _)| {
            let text = exhibit_text(name);
            (name, text.len(), crc32c(text.as_bytes()))
        })
        .collect();
    assert_eq!(got, EXHIBITS, "model exhibit text changed");
}

#[test]
fn table8_replay_is_pinned() {
    let modeled = paper_replay().recomputed_modeled_us;
    assert_eq!(
        modeled.to_bits(),
        REPLAY_MODELED_US,
        "Table 8 replay moved to {modeled} ({:#x})",
        modeled.to_bits()
    );
}

#[test]
fn measured_population_speedups_are_pinned() {
    let s8 = Speedup::new(8.0).expect("8x is a valid speedup");
    let s64 = Speedup::new(64.0).expect("64x is a valid speedup");
    for parallelism in [1, 2] {
        let runs = profile_fleet(FleetConfig {
            parallelism,
            ..exhibits::bench_fleet_config()
        });
        let got: Vec<[u64; 5]> = runs
            .iter()
            .map(|run| {
                let categories = paper::accelerated_categories(run.platform);
                let sync8 =
                    AccelerationPlan::uniform(categories.clone(), s8, InvocationModel::Synchronous)
                        .expect("distinct categories");
                let sync64 =
                    AccelerationPlan::uniform(categories, s64, InvocationModel::Synchronous)
                        .expect("distinct categories");
                let population = &run.population;
                [
                    population.aggregate_speedup(&sync8),
                    population
                        .aggregate_speedup(&sync8.with_invocation(InvocationModel::Asynchronous)),
                    population.aggregate_speedup(&sync8.with_invocation(InvocationModel::Chained)),
                    population.aggregate_codesign_speedup(&sync64),
                    population.peak_codesign_speedup(&sync64),
                ]
                .map(f64::to_bits)
            })
            .collect();
        assert_eq!(
            got,
            MEASURED,
            "measured-population speedups changed at parallelism {parallelism}: {:?}",
            got.iter()
                .map(|bits| bits.map(f64::from_bits))
                .collect::<Vec<_>>()
        );
    }
}
