//! Regeneration functions for every table and figure in the paper's
//! evaluation, each returning the rendered exhibit as text.

use hsdp_core::category::{BroadCategory, Platform};
use hsdp_core::paper;
use hsdp_core::study;
use hsdp_platforms::runner::{fold_fleet, run_fleet_telemetry, FleetConfig};
use hsdp_profiling::microarch::regenerate_tables;
use hsdp_profiling::report;
use hsdp_profiling::stacks::StackProfile;
use hsdp_storage::provision::{paper_spec, provision, PlatformClass};

use crate::fleet::PlatformRun;

/// The fleet configuration `hsdp figures` runs (kept modest so the whole
/// command finishes in under a second in release).
#[must_use]
pub fn bench_fleet_config() -> FleetConfig {
    FleetConfig {
        db_queries: 200,
        analytics_queries: 30,
        fact_rows: 4_000,
        seed: 0x15CA23,
        ..FleetConfig::default()
    }
}

/// Builds the fleet-wide stack-tree profile from already-run fleet records.
///
/// One GWP profiler consumes every platform's work stream in canonical
/// fleet order, so the result — and therefore the folded text and the
/// pprof bytes rendered from it — is a pure function of the fleet records.
/// The same pass as [`crate::FleetRun::stacks`]. `_seed` has no effect:
/// sampling is periodic. It stays until the fleet benchmark, which passes
/// it, next changes.
#[must_use]
pub fn fleet_stack_profile(
    fleet: &[(Platform, Vec<hsdp_platforms::QueryExecution>)],
    _seed: u64,
) -> StackProfile {
    crate::fleet::fleet_stacks(fleet.iter().flat_map(|(_, executions)| executions))
}

// ---------------------------------------------------------------------------
// Table 1.
// ---------------------------------------------------------------------------

/// Table 1: paper ratios vs ratios derived from the provisioning model.
#[must_use]
pub fn table1() -> String {
    let mut out = String::from(
        "Table 1 — storage-to-storage ratios (RAM : SSD : HDD)\n\
         platform    paper          derived (zipf hit-rate provisioning)\n",
    );
    for (class, platform) in [
        (PlatformClass::Spanner, Platform::Spanner),
        (PlatformClass::BigTable, Platform::BigTable),
        (PlatformClass::BigQuery, Platform::BigQuery),
    ] {
        let r = paper::storage_ratio(platform);
        let p = provision(&paper_spec(class));
        let (_, ssd, hdd) = p.ratio();
        out.push_str(&format!(
            "{platform:<10}  1:{:>3.0}:{:>4.0}     1:{ssd:>5.1}:{hdd:>6.1}\n",
            r.ssd, r.hdd
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 2–6 (measured from the simulated fleet).
// ---------------------------------------------------------------------------

/// Figure 2: end-to-end breakdown per platform.
#[must_use]
pub fn figure2_exhibit(runs: &[PlatformRun]) -> String {
    let mut out = String::from("Figure 2 — end-to-end execution time breakdown\n");
    for run in runs {
        out.push_str(&report::render_figure2(run.platform, &run.figure2));
    }
    out.push_str(
        "paper anchors: databases >60% CPU-heavy queries; BigQuery 10%;\n\
         fleet-wide 48% / 22% / 30% CPU / remote / IO\n",
    );
    out
}

/// Figure 3: broad cycle shares, measured vs paper.
#[must_use]
pub fn figure3_exhibit(runs: &[PlatformRun]) -> String {
    let mut out = String::from("Figure 3 — application-level cycle breakdown (measured | paper)\n");
    for run in runs {
        let [cc, dct, st] = paper::broad_shares(run.platform);
        out.push_str(&format!(
            "{:<9} core {:>5.1}%|{:>4.0}%  dc-tax {:>5.1}%|{:>4.0}%  sys-tax {:>5.1}%|{:>4.0}%\n",
            run.platform.to_string(),
            run.profile.broad_share(BroadCategory::CoreCompute) * 100.0,
            cc * 100.0,
            run.profile.broad_share(BroadCategory::DatacenterTax) * 100.0,
            dct * 100.0,
            run.profile.broad_share(BroadCategory::SystemTax) * 100.0,
            st * 100.0,
        ));
    }
    out
}

/// Figure 4: core-compute fine breakdown, measured vs paper.
#[must_use]
pub fn figure4_exhibit(runs: &[PlatformRun]) -> String {
    let mut out = String::from("Figure 4 — core compute execution breakdown (measured | paper)\n");
    for run in runs {
        out.push_str(&format!("{}:\n", run.platform));
        let paper_rows = paper::core_compute_shares(run.platform);
        for (op, measured) in run.profile.core_compute_rows(run.platform) {
            let paper_share = paper_rows
                .iter()
                .find(|(p, _)| *p == op)
                .map_or(0.0, |(_, s)| *s);
            out.push_str(&format!(
                "  {:<18} {:>6.1}% | {:>5.1}%\n",
                op.to_string(),
                measured * 100.0,
                paper_share * 100.0
            ));
        }
    }
    out
}

/// Figure 5: datacenter-tax fine breakdown, measured vs paper.
#[must_use]
pub fn figure5_exhibit(runs: &[PlatformRun]) -> String {
    let mut out =
        String::from("Figure 5 — datacenter tax execution breakdown (measured | paper)\n");
    for run in runs {
        out.push_str(&format!("{}:\n", run.platform));
        let paper_rows = paper::datacenter_tax_shares(run.platform);
        for (tax, measured) in run.profile.datacenter_tax_rows() {
            let paper_share = paper_rows
                .iter()
                .find(|(p, _)| *p == tax)
                .map_or(0.0, |(_, s)| *s);
            out.push_str(&format!(
                "  {:<18} {:>6.1}% | {:>5.1}%\n",
                tax.to_string(),
                measured * 100.0,
                paper_share * 100.0
            ));
        }
    }
    out
}

/// Figure 6: system-tax fine breakdown, measured vs paper.
#[must_use]
pub fn figure6_exhibit(runs: &[PlatformRun]) -> String {
    let mut out = String::from("Figure 6 — system tax execution breakdown (measured | paper)\n");
    for run in runs {
        out.push_str(&format!("{}:\n", run.platform));
        let paper_rows = paper::system_tax_shares(run.platform);
        for (tax, measured) in run.profile.system_tax_rows() {
            let paper_share = paper_rows
                .iter()
                .find(|(p, _)| *p == tax)
                .map_or(0.0, |(_, s)| *s);
            out.push_str(&format!(
                "  {:<18} {:>6.1}% | {:>5.1}%\n",
                tax.to_string(),
                measured * 100.0,
                paper_share * 100.0
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tables 6–7 (CPI-stack model).
// ---------------------------------------------------------------------------

/// Tables 6 and 7: paper-observed IPC vs the fitted CPI-stack prediction.
#[must_use]
pub fn tables6_7() -> String {
    let (model, rows) = regenerate_tables();
    let mut out = format!(
        "Tables 6–7 — IPC from the fitted CPI stack\n\
         fitted: base CPI {:.3}; penalties (cycles) BR {:.1}, L1I {:.1}, L2I {:.1}, \
         LLC {:.1}, ITLB {:.1}, DTLB {:.1}\n\
         platform  category        observed  predicted\n",
        model.base_cpi,
        model.penalties[0],
        model.penalties[1],
        model.penalties[2],
        model.penalties[3],
        model.penalties[4],
        model.penalties[5],
    );
    for r in rows {
        let category = r
            .row
            .category
            .map_or_else(|| "(overall)".to_owned(), |c| c.to_string());
        out.push_str(&format!(
            "{:<9} {:<15} {:>7.2} {:>9.2}\n",
            r.row.platform.to_string(),
            category,
            r.row.stats.ipc,
            r.predicted_ipc
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 9–10 (speedup sweeps).
// ---------------------------------------------------------------------------

/// Figure 9: the synchronous on-chip upper-bound sweep.
#[must_use]
pub fn figure9() -> String {
    let mut out = String::from(
        "Figure 9 — synchronous on-chip upper bound (aggregate / peak)\n\
         paper peaks w/o deps: 9.1x / 3,223.6x / 8.5x; with deps: 2.0x / 2.2x / 1.4x\n",
    );
    for platform in Platform::ALL {
        let population = paper::query_population(platform);
        let categories = paper::accelerated_categories(platform);
        out.push_str(&format!("{platform}:\n"));
        for pt in study::speedup_sweep(&population, &categories, &study::default_speedup_grid()) {
            out.push_str(&format!(
                "  s={:>4.0}x  with deps {:>6.2}x | w/o deps {:>8.2}x | peak {:>10.1}x\n",
                pt.accel_speedup, pt.with_deps, pt.without_deps, pt.peak_without_deps
            ));
        }
    }
    out
}

/// Figure 10: the per-query-group co-design sweep.
#[must_use]
pub fn figure10() -> String {
    let mut out =
        String::from("Figure 10 — grouped synchronous on-chip upper bounds (deps removed)\n");
    for platform in Platform::ALL {
        let population = paper::query_population(platform);
        let categories = paper::accelerated_categories(platform);
        out.push_str(&format!("{platform}:\n"));
        for gs in study::grouped_sweep(&population, &categories, &[1.0, 8.0, 25.0, 50.0]) {
            out.push_str(&format!("  {:<18}", gs.group.to_string()));
            for (s, speedup) in &gs.points {
                out.push_str(&format!(" s={s:>2.0}: {speedup:>8.2}x |"));
            }
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 13–15 (accelerator system features).
// ---------------------------------------------------------------------------

/// Figure 13: incremental accelerators × the four system configurations.
#[must_use]
pub fn figure13() -> String {
    let mut out = String::from(
        "Figure 13 — accelerator feature upper bounds (8x per accelerator, deps retained)\n",
    );
    for platform in Platform::ALL {
        let population = paper::query_population(platform);
        out.push_str(&format!("{platform}:\n"));
        for step in study::feature_study(platform, &population) {
            out.push_str(&format!("  +{:<18}", step.added.to_string()));
            for (name, speedup) in &step.speedups {
                out.push_str(&format!(" {name}: {speedup:>5.2}x |"));
            }
            out.push('\n');
        }
    }
    out.push_str(
        "paper anchors: on-chip ~1.04x over off-chip for the databases; async up to\n\
         1.3x over sync; chained within 1% of async; BigQuery off-chip collapses\n",
    );
    out
}

/// Figure 14: the setup-time sweep.
#[must_use]
pub fn figure14() -> String {
    let mut out = String::from("Figure 14 — setup time sweep (8x per accelerator)\n");
    for platform in Platform::ALL {
        let population = paper::query_population(platform);
        out.push_str(&format!("{platform}:\n"));
        for pt in study::setup_sweep(platform, &population, &study::default_setup_grid()) {
            out.push_str(&format!("  setup {:>8}", pt.setup.to_string()));
            for (name, speedup) in &pt.speedups {
                out.push_str(&format!(" {name}: {speedup:>5.2}x |"));
            }
            out.push('\n');
        }
    }
    out
}

/// Figure 15: published prior accelerators, individually and combined.
#[must_use]
pub fn figure15() -> String {
    let mut out = String::from(
        "Figure 15 — prior accelerator comparison (sync vs chained, on-chip)\n\
         paper anchor: holistic synchronous acceleration yields 1.5x–1.7x; chaining\n\
         adds little because the memory-allocation stage bottlenecks the pipeline\n",
    );
    for platform in Platform::ALL {
        let population = paper::query_population(platform);
        out.push_str(&format!("{platform}:\n"));
        for pt in study::prior_accelerator_study(platform, &population) {
            out.push_str(&format!(
                "  {:<16} sync {:>5.2}x | chained {:>5.2}x\n",
                pt.name, pt.sync_speedup, pt.chained_speedup
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Table 8 (model validation).
// ---------------------------------------------------------------------------

/// Table 8: the chained-model validation — paper replay plus the software
/// pipeline measurement.
#[must_use]
pub fn table8(messages: usize) -> String {
    let replay = hsdp_accelsim::validate::paper_replay();
    let v = hsdp_accelsim::validate::software_validation(messages, 0x7ab1e);
    format!(
        "Table 8 — chained-model validation\n\
         paper replay: modeled {:.1}us (paper printed {:.1}us), measured {:.1}us, \
         difference {:.1}% (paper: 6.1%)\n\
         software pipeline over {} messages:\n\
         \x20 serialize t_sub {:>10.1}us\n\
         \x20 sha3 t_sub      {:>10.1}us\n\
         \x20 sequential      {:>10.1}us\n\
         \x20 chained meas.   {:>10.1}us\n\
         \x20 chained model   {:>10.1}us\n\
         \x20 difference      {:>9.1}%\n",
        replay.recomputed_modeled_us,
        replay.inputs.modeled_chained_us,
        replay.inputs.measured_chained_us,
        replay.model_vs_measured * 100.0,
        v.messages,
        v.serialize_us,
        v.sha3_us,
        v.sequential_us,
        v.chained_measured_us,
        v.chained_modeled_us,
        v.model_vs_measured * 100.0,
    )
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md design-choice studies).
// ---------------------------------------------------------------------------

/// Ablation: the chained-penalty bound (Eq. 11 max) vs summed penalties.
#[must_use]
pub fn ablation_chain_penalty() -> String {
    use hsdp_core::chained::{chain_estimate, chain_estimate_summed_penalties};

    let t8 = paper::TABLE8;
    let stages = paper::table8_stages();
    // audit: allow(panic, the Table 8 chain has two stages)
    let max_bound = chain_estimate(&stages).expect("two stages");
    // audit: allow(panic, the Table 8 chain has two stages)
    let sum_bound = chain_estimate_summed_penalties(&stages).expect("two stages");
    let measured = t8.measured_chained_us - t8.nacc_cpu_us;
    format!(
        "Ablation — chained penalty bound (Table 8 stages)\n\
         Eq. 11 (max penalties): {:.1}us | summed penalties: {:.1}us | \
         RTL-measured chain: {:.1}us\n\
         the max-penalty bound tracks the measurement better\n",
        max_bound.chained_time.as_micros(),
        sum_bound.chained_time.as_micros(),
        measured,
    )
}

/// Ablation: cache policy effect on the measured IO-heavy share.
#[must_use]
pub fn ablation_cache_policy() -> String {
    use hsdp_platforms::bigtable::{BigTable, BigTableConfig};
    use hsdp_storage::cache::PolicyKind;

    let mut out = String::from("Ablation — cache policy vs BigTable IO-heavy share\n");
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::TwoQ,
        PolicyKind::Predictive,
    ] {
        let mut bt = BigTable::new(
            BigTableConfig {
                memtable_flush_bytes: 8 * 1024,
                // Small caches so policy differences show.
                tier_bytes: (24 * 1024, 96 * 1024, 1 << 40),
                policy,
                ..BigTableConfig::default()
            },
            99,
        );
        let keys = hsdp_workload::keys::KeyGen::new("ab", 4_000, 0.99);
        let values = hsdp_workload::keys::ValueGen::new(300);
        let mut rng = hsdp_rng::StdRng::seed_from_u64(7);
        for rank in 0..1_000 {
            bt.put(keys.key_for_rank(rank), values.sample(&mut rng));
        }
        let mut io_heavy = 0usize;
        let total = 400;
        for _ in 0..total {
            let key = keys.sample(&mut rng);
            let exec = bt.get(&key);
            let d = exec.decomposition();
            if d.io_share() > 0.30 {
                io_heavy += 1;
            }
        }
        out.push_str(&format!(
            "  {policy:?}: {:.1}% of gets IO-heavy\n",
            io_heavy as f64 / total as f64 * 100.0
        ));
    }
    out
}

/// Ablation: overlap-attribution rule (priority vs proportional).
#[must_use]
pub fn ablation_attribution() -> String {
    use hsdp_rpc::decompose::{decompose, decompose_proportional};
    let config = FleetConfig {
        db_queries: 100,
        analytics_queries: 10,
        fact_rows: 2_000,
        seed: 5,
        ..FleetConfig::default()
    };
    let mut out =
        String::from("Ablation — trace attribution: priority (remote>io>cpu) vs proportional\n");
    for (platform, executions) in fold_fleet(run_fleet_telemetry(config)) {
        let (mut p_cpu, mut p_tot) = (0.0, 0.0);
        let (mut q_cpu, mut q_tot) = (0.0, 0.0);
        for exec in &executions {
            let a = decompose(&exec.spans);
            let b = decompose_proportional(&exec.spans);
            p_cpu += a.cpu.as_secs_f64();
            p_tot += a.end_to_end.as_secs_f64();
            q_cpu += b.cpu.as_secs_f64();
            q_tot += b.end_to_end.as_secs_f64();
        }
        out.push_str(&format!(
            "  {platform:<9} cpu share: priority {:>5.1}% | proportional {:>5.1}%\n",
            p_cpu / p_tot * 100.0,
            q_cpu / q_tot * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_exhibits_render() {
        for text in [table1(), tables6_7(), figure9(), figure13(), figure15()] {
            assert!(text.len() > 100, "exhibit should be substantive:\n{text}");
        }
        assert!(table1().contains("777"));
        assert!(figure9().contains("Spanner"));
    }

    #[test]
    fn fleet_exhibits_render() {
        let runs = crate::fleet::profile_fleet(FleetConfig {
            db_queries: 60,
            analytics_queries: 8,
            fact_rows: 1_000,
            seed: 1,
            ..FleetConfig::default()
        });
        assert_eq!(runs.len(), 3);
        for text in [
            figure2_exhibit(&runs),
            figure3_exhibit(&runs),
            figure4_exhibit(&runs),
            figure5_exhibit(&runs),
            figure6_exhibit(&runs),
        ] {
            assert!(text.contains("BigQuery"), "{text}");
        }
    }

    #[test]
    fn ablations_render() {
        assert!(ablation_chain_penalty().contains("Eq. 11"));
        assert!(ablation_attribution().contains("priority"));
    }
}
