//! Per-unit passes for the traced run: every fleet job the pool schedules
//! (a Spanner shard, a BigTable tablet, a BigQuery shard) runs alone, once
//! at its real query count and once at zero queries. The zero-query run is
//! the job's warmup (preload or table load); the difference is its traffic.

use std::time::Instant;

use crate::api::{
    assemble_bigtable_shard, merge_fleet_metrics, platform_plan, run_bigquery_shard,
    run_bigtable_tablet, run_spanner_shard, FleetConfig, Platform, QueryExecution, ShardRun,
};
use crate::pipeline::{counters, record_stream_crc};
use crate::spans::Recorder;

/// Seconds one pass spent per layer, summed over the pass's units.
#[derive(Debug, Clone, Default)]
pub struct UnitPass {
    pub spanner_warmup_s: f64,
    pub spanner_real_s: f64,
    pub bigtable_warmup_s: f64,
    pub bigtable_real_s: f64,
    pub bigtable_tablet_max_s: f64,
    pub bigtable_assemble_s: f64,
    pub bigquery_load_s: f64,
    pub bigquery_real_s: f64,
    /// Real-query time of the heaviest unit.
    pub unit_max_s: f64,
    /// Real-query time summed over all units (the pool's work).
    pub units_s: f64,
    /// The records the units produced, in canonical fleet order.
    pub record_crc: u32,
    pub counters: Vec<(&'static str, u64)>,
}

fn timed<T>(rec: &mut Recorder, name: &'static str, work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = rec.time(name, work);
    (out, start.elapsed().as_secs_f64())
}

/// Runs every unit of `config`'s fleet alone, in canonical order.
pub fn unit_pass(config: &FleetConfig, rec: &mut Recorder) -> UnitPass {
    let mut pass = UnitPass::default();
    let mut runs: Vec<ShardRun> = Vec::new();
    let unit = |pass: &mut UnitPass, seconds: f64| {
        pass.units_s += seconds;
        pass.unit_max_s = pass.unit_max_s.max(seconds);
    };

    for shard in platform_plan(config, Platform::Spanner).shards() {
        let (_, warmup) = timed(rec, "platforms.spanner.warmup", || {
            run_spanner_shard(0, shard.seed, shard.index, true)
        });
        let ((executions, telemetry), real) = timed(rec, "platforms.spanner.shard", || {
            run_spanner_shard(shard.items, shard.seed, shard.index, true)
        });
        pass.spanner_warmup_s += warmup;
        pass.spanner_real_s += real;
        unit(&mut pass, real);
        runs.push(ShardRun {
            platform: Platform::Spanner,
            shard: shard.index,
            executions,
            telemetry,
        });
    }

    let tablets = config.tablets.max(1);
    for shard in platform_plan(config, Platform::BigTable).shards() {
        let mut tablet_runs = Vec::with_capacity(tablets);
        for tablet in 0..tablets {
            let (_, warmup) = timed(rec, "platforms.bigtable.warmup", || {
                run_bigtable_tablet(0, shard.seed, shard.index, tablet, tablets, true, None)
            });
            let (run, real) = timed(rec, "platforms.bigtable.tablet", || {
                run_bigtable_tablet(
                    shard.items,
                    shard.seed,
                    shard.index,
                    tablet,
                    tablets,
                    true,
                    None,
                )
            });
            pass.bigtable_warmup_s += warmup;
            pass.bigtable_real_s += real;
            pass.bigtable_tablet_max_s = pass.bigtable_tablet_max_s.max(real);
            unit(&mut pass, real);
            tablet_runs.push(run);
        }
        let ((executions, telemetry), assemble) = timed(rec, "platforms.bigtable.assemble", || {
            assemble_bigtable_shard(tablet_runs)
        });
        pass.bigtable_assemble_s += assemble;
        runs.push(ShardRun {
            platform: Platform::BigTable,
            shard: shard.index,
            executions,
            telemetry,
        });
    }

    for shard in platform_plan(config, Platform::BigQuery).shards() {
        let (_, load) = timed(rec, "platforms.bigquery.load", || {
            run_bigquery_shard(0, config.fact_rows, shard.seed, shard.index, true)
        });
        let ((executions, telemetry), real) = timed(rec, "platforms.bigquery.shard", || {
            run_bigquery_shard(shard.items, config.fact_rows, shard.seed, shard.index, true)
        });
        pass.bigquery_load_s += load;
        pass.bigquery_real_s += real;
        unit(&mut pass, real);
        runs.push(ShardRun {
            platform: Platform::BigQuery,
            shard: shard.index,
            executions,
            telemetry,
        });
    }

    pass.counters = counters(&merge_fleet_metrics(&runs));
    let fleet: Vec<(Platform, Vec<QueryExecution>)> = Platform::ALL
        .iter()
        .map(|&platform| {
            let execs = runs
                .iter_mut()
                .filter(|run| run.platform == platform)
                .flat_map(|run| std::mem::take(&mut run.executions))
                .collect();
            (platform, execs)
        })
        .collect();
    pass.record_crc = record_stream_crc(&fleet);
    pass
}
