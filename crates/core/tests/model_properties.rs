//! Randomized property tests of the analytical model's invariants.
//!
//! These were originally `proptest` strategies; they are now driven by the
//! in-repo deterministic PRNG so the workspace stays dependency-free. Each
//! property is checked over `CASES` independently sampled inputs per run,
//! with a fixed seed so failures reproduce exactly.

use hsdp_core::accel::{AcceleratorSpec, Placement, Speedup};
use hsdp_core::category::{CoreComputeOp, CpuCategory, DatacenterTax, SystemTax};
use hsdp_core::component::CpuBreakdown;
use hsdp_core::model::{end_to_end_time, QueryPhases};
use hsdp_core::plan::{AccelerationPlan, InvocationModel};
use hsdp_core::units::{Bytes, Seconds};
use hsdp_rng::{Rng, StdRng};

const CASES: usize = 512;

const CATEGORIES: [CpuCategory; 6] = [
    CpuCategory::Core(CoreComputeOp::Read),
    CpuCategory::Core(CoreComputeOp::Filter),
    CpuCategory::Datacenter(DatacenterTax::Protobuf),
    CpuCategory::Datacenter(DatacenterTax::Compression),
    CpuCategory::System(SystemTax::Stl),
    CpuCategory::System(SystemTax::OperatingSystems),
];

fn arb_breakdown(rng: &mut StdRng) -> CpuBreakdown {
    CATEGORIES
        .iter()
        .map(|&c| (c, Seconds::new(rng.random_range(0.0..10.0))))
        .collect()
}

fn arb_phases(rng: &mut StdRng) -> QueryPhases {
    let cpu = Seconds::new(rng.random_range(0.0..100.0));
    let dep = Seconds::new(rng.random_range(0.0..100.0));
    // Drawn and unused, so the cases keep the inputs they always had.
    let _overlap = rng.random::<f64>();
    QueryPhases::new(cpu, dep)
}

fn uniform_plan(speedup: f64, invocation: InvocationModel) -> AccelerationPlan {
    AccelerationPlan::uniform(
        CATEGORIES,
        Speedup::new(speedup).expect("speedup >= 1"),
        invocation,
    )
    .expect("non-empty uniform plan")
}

/// Eq. 1 is bounded by max(cpu, dep) below and cpu + dep above.
#[test]
fn e2e_time_bounds() {
    let mut rng = StdRng::seed_from_u64(0xE2E1);
    for _ in 0..CASES {
        let phases = arb_phases(&mut rng);
        let t = phases.end_to_end().as_secs();
        let cpu = phases.cpu().as_secs();
        let dep = phases.dep().as_secs();
        assert!(t <= cpu + dep + 1e-9, "t={t} cpu={cpu} dep={dep}");
        assert!(t >= cpu.max(dep) - 1e-9, "t={t} cpu={cpu} dep={dep}");
    }
}

/// Eq. 1 is monotone in each phase time.
#[test]
fn e2e_time_monotone() {
    let mut rng = StdRng::seed_from_u64(0xE2E2);
    for _ in 0..CASES {
        let phases = arb_phases(&mut rng);
        let extra = rng.random_range(0.0..10.0);
        let base = phases.end_to_end();
        let more_cpu = end_to_end_time(phases.cpu() + Seconds::new(extra), phases.dep());
        assert!(more_cpu >= base, "extra={extra} {more_cpu} < {base}");
    }
}

/// With ideal accelerators (no penalties), any plan's accelerated CPU time
/// never exceeds the original CPU time.
#[test]
fn ideal_acceleration_never_hurts() {
    let mut rng = StdRng::seed_from_u64(0x1DEA1);
    const MODELS: [InvocationModel; 3] = [
        InvocationModel::Synchronous,
        InvocationModel::Asynchronous,
        InvocationModel::Chained,
    ];
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        let speedup = rng.random_range(1.0..128.0);
        let inv = MODELS[rng.random_range(0..MODELS.len())];
        let plan = uniform_plan(speedup, inv);
        let total = breakdown.total();
        let est = plan.accelerated_cpu(total, &breakdown);
        assert!(
            est <= total + Seconds::new(1e-12),
            "speedup={speedup} inv={inv:?} est={est} total={total}"
        );
    }
}

/// Async <= sync accelerated CPU time.
#[test]
fn invocation_model_ordering() {
    let mut rng = StdRng::seed_from_u64(0x07DE4);
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        let speedup = rng.random_range(1.0..64.0);
        // Drawn and unused, so the cases keep the specs they always had.
        let _overlap = rng.random::<f64>();
        let setup = rng.random_range(0.0..0.01);
        let spec = AcceleratorSpec::ideal(Speedup::new(speedup).expect("speedup >= 1"))
            .with_setup(Seconds::new(setup));
        let mut plan = AccelerationPlan::new(InvocationModel::Synchronous);
        for c in CATEGORIES {
            plan.assign(c, spec);
        }
        let total = breakdown.total();
        let t_sync = plan.accelerated_cpu(total, &breakdown);
        let t_async = plan
            .with_invocation(InvocationModel::Asynchronous)
            .accelerated_cpu(total, &breakdown);
        assert!(
            t_async <= t_sync + Seconds::new(1e-12),
            "{t_async} > {t_sync}"
        );
    }
}

/// Chained execution is never slower than synchronous execution with the
/// same specs (it amortizes penalties and pipelines stages).
#[test]
fn chained_never_slower_than_sync() {
    let mut rng = StdRng::seed_from_u64(0xC4A17);
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        let speedup = rng.random_range(1.0..64.0);
        let setup = rng.random_range(0.0..0.1);
        let spec = AcceleratorSpec::ideal(Speedup::new(speedup).expect("speedup >= 1"))
            .with_setup(Seconds::new(setup));
        let mut plan = AccelerationPlan::new(InvocationModel::Synchronous);
        for c in CATEGORIES {
            plan.assign(c, spec);
        }
        let total = breakdown.total();
        let t_sync = plan.accelerated_cpu(total, &breakdown);
        let t_chained = plan
            .with_invocation(InvocationModel::Chained)
            .accelerated_cpu(total, &breakdown);
        assert!(
            t_chained <= t_sync + Seconds::new(1e-12),
            "speedup={speedup} setup={setup} {t_chained} > {t_sync}"
        );
    }
}

/// Larger lockstep speedups never increase end-to-end time.
#[test]
fn speedup_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0x5BEED);
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        let phases = arb_phases(&mut rng);
        let s1 = rng.random_range(1.0..32.0);
        let delta = rng.random_range(0.0..32.0);
        let lo = uniform_plan(s1, InvocationModel::Synchronous);
        let hi = uniform_plan(s1 + delta, InvocationModel::Synchronous);
        let t_lo = lo.evaluate(&phases, &breakdown);
        let t_hi = hi.evaluate(&phases, &breakdown);
        assert!(
            t_hi <= t_lo + Seconds::new(1e-12),
            "s1={s1} delta={delta} {t_hi} > {t_lo}"
        );
    }
}

/// Moving any off-chip plan on-chip never increases end-to-end time.
#[test]
fn on_chip_never_slower() {
    let mut rng = StdRng::seed_from_u64(0x0FFC41B);
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        let phases = arb_phases(&mut rng);
        let speedup = rng.random_range(1.0..64.0);
        let payload_kib = rng.random_range(0.0..1e6);
        let off_spec = AcceleratorSpec::ideal(Speedup::new(speedup).expect("speedup >= 1"))
            .with_placement(Placement::off_chip_pcie_gen5())
            .with_payload(Bytes::from_kib(payload_kib));
        let mut off = AccelerationPlan::new(InvocationModel::Synchronous);
        let mut on = AccelerationPlan::new(InvocationModel::Synchronous);
        for c in CATEGORIES {
            off.assign(c, off_spec);
            on.assign(c, off_spec.with_placement(Placement::OnChip));
        }
        let t_off = off.evaluate(&phases, &breakdown);
        let t_on = on.evaluate(&phases, &breakdown);
        assert!(
            t_on <= t_off + Seconds::new(1e-12),
            "payload_kib={payload_kib} {t_on} > {t_off}"
        );
    }
}

/// The accelerated CPU estimate conserves time: every component either is
/// accelerated or stays whole in the unaccelerated remainder, so with ideal
/// synchronous accelerators `t'_cpu = Σ_acc t_i / s + Σ_rest t_i`.
#[test]
fn estimate_conserves_components() {
    let mut rng = StdRng::seed_from_u64(0xC015E4);
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        let speedup = rng.random_range(1.0..64.0);
        // Accelerate only half the categories.
        let plan = AccelerationPlan::uniform(
            CATEGORIES[..3].to_vec(),
            Speedup::new(speedup).expect("speedup >= 1"),
            InvocationModel::Synchronous,
        )
        .expect("non-empty plan");
        let total = breakdown.total();
        let est = plan.accelerated_cpu(total, &breakdown);
        let acc_expected: Seconds = CATEGORIES[..3]
            .iter()
            .map(|&c| breakdown.time(c) / speedup)
            .sum();
        let unacc_expected: Seconds = CATEGORIES[3..].iter().map(|&c| breakdown.time(c)).sum();
        assert!(
            (est.as_secs() - (acc_expected + unacc_expected).as_secs()).abs() < 1e-9,
            "t'_cpu {est} != {acc_expected} accelerated + {unacc_expected} unaccelerated"
        );
    }
}

/// Breakdown share arithmetic: shares sum to 1 for non-empty breakdowns.
#[test]
fn breakdown_shares_sum_to_one() {
    let mut rng = StdRng::seed_from_u64(0x54A4E5);
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        if breakdown.total().is_zero() {
            continue;
        }
        let sum: f64 = CATEGORIES.iter().map(|&c| breakdown.share(c)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    }
}

/// Rescaling preserves shares.
#[test]
fn rescale_preserves_shares() {
    let mut rng = StdRng::seed_from_u64(0x4E5CA1E);
    for _ in 0..CASES {
        let breakdown = arb_breakdown(&mut rng);
        if breakdown.total().is_zero() {
            continue;
        }
        let new_total = rng.random_range(0.001..1000.0);
        let rescaled = breakdown.rescaled(Seconds::new(new_total));
        for &c in &CATEGORIES {
            assert!(
                (rescaled.share(c) - breakdown.share(c)).abs() < 1e-9,
                "share of {c:?} drifted under rescale to {new_total}"
            );
        }
    }
}
