//! Workload runners: drive each platform with its configured mix and
//! collect execution records for the profiling pipeline.
//!
//! The fleet driver is parallel by default but **deterministic by
//! construction**: every platform's query stream is decomposed into a fixed
//! [`ShardPlan`] (a pure function of the workload configuration and base
//! seed), each shard runs with independently derived RNG seeds, and the
//! per-shard records are folded back in canonical shard order. The
//! `parallelism` knob only changes which thread executes which shard, so a
//! run at any thread count is byte-identical to the sequential run.
//!
//! A BigTable shard is scheduled as one job per tablet. The shard's tablet
//! jobs share one op stream, built by whichever of them runs first; each
//! executes the ops routed to its tablet, and the tablet runs are folded
//! back into the shard's record stream after the pool drains.

use std::sync::{Arc, OnceLock};

use hsdp_core::category::Platform;
use hsdp_core::request::RequestId;
use hsdp_rng::derive_seed;
use hsdp_rng::Rng;
use hsdp_rng::StdRng;
use hsdp_simcore::pool::{self, ShardPlan};
use hsdp_telemetry::MetricsRegistry;
use hsdp_workload::keys::{KeyGen, ValueGen};
use hsdp_workload::mix::{AnalyticsMix, AnalyticsQuery, DbMix, DbOp};
use hsdp_workload::rows::FactGen;

use crate::bigquery::BigQuery;
use crate::bigtable::{route_key, BigTableConfig, ScanAssembler, ScanPartial, Tablet};
use crate::exec::QueryExecution;
use crate::spanner::Spanner;

/// Shard-level seed streams, one per platform (feeds [`ShardPlan`]).
const STREAM_SPANNER: u64 = 0x5350_414E;
const STREAM_BIGTABLE: u64 = 0xB167_AB1E;
const STREAM_BIGQUERY: u64 = 0x0B16_0B06;

/// Phase sub-streams within one shard: the simulated engine, the preload
/// phase, and the traffic phase each get their own generator, so reshaping
/// one phase (e.g. sharding the preload) can never perturb another's draws.
const PHASE_ENGINE: u64 = 1;
const PHASE_PRELOAD: u64 = 2;
const PHASE_TRAFFIC: u64 = 3;

/// Derives the seed for one execution phase of one platform's shard.
const fn phase_seed(shard_seed: u64, platform: Platform, phase: u64) -> u64 {
    derive_seed(shard_seed, phase, platform as u64)
}

/// Tablets each BigTable shard is partitioned into by the fleet driver.
/// Each tablet is an independently schedulable pool job, so the fleet's
/// finest-grained unit of BigTable work is `1 / (shards * tablets)` of the
/// platform's query stream — small enough that no single job dominates
/// fleet wall-clock (the straggler gate in CI pins this).
pub const DEFAULT_BIGTABLE_TABLETS: usize = 4;

/// Rows preloaded into each BigTable shard before traffic (zipf hot set).
const BT_PRELOAD_ROWS: usize = 6_000;

/// Row limit for BigTable traffic scans.
const BT_SCAN_LIMIT: usize = 25;

/// Configuration for a full three-platform fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Queries to run against each database platform.
    pub db_queries: usize,
    /// Queries to run against the analytics engine.
    pub analytics_queries: usize,
    /// Fact rows to load into the analytics engine.
    pub fact_rows: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads scheduling shards. Affects wall-clock only — results
    /// are identical at every value (`<= 1` runs inline on the caller).
    pub parallelism: usize,
    /// Shards per platform. Part of the workload definition: each shard is
    /// an independent platform replica serving a slice of the query stream,
    /// so (unlike `parallelism`) changing it changes the generated traffic.
    pub shards: usize,
    /// Tablets per BigTable shard. Also part of the workload definition
    /// (tablet routing changes which LSM instance serves each key), and the
    /// fleet's finest BigTable scheduling grain: every tablet runs as its
    /// own pool job.
    pub tablets: usize,
    /// Optional schedule perturbation (see [`pool::Perturbation`]): permutes
    /// shard dispatch and completion-consumption order and injects derived
    /// start jitter. Like `parallelism`, it must never change fleet output —
    /// the determinism tests sweep this knob to prove it.
    pub perturb: Option<pool::Perturbation>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            db_queries: 300,
            analytics_queries: 60,
            fact_rows: 8_000,
            seed: 0xC0FFEE,
            parallelism: default_parallelism(),
            shards: 4,
            tablets: DEFAULT_BIGTABLE_TABLETS,
            perturb: None,
        }
    }
}

/// The host's available hardware parallelism (1 when unknown).
#[must_use]
pub fn default_parallelism() -> usize {
    // audit: allow(determinism, parallelism is a scheduling knob only: fleet output is byte-identical at any worker count, which the perturbation tests prove)
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one shard of the Spanner-class workload (a balanced transactional
/// mix). `seed` is the shard seed; the engine, preload, and traffic phases
/// each derive their own generator from it. With `telemetry` a registry
/// covers the traffic phase (the preload is warmup, not workload); every
/// in-tree caller passes `true`. `shard` is the shard's canonical index,
/// the shard field of every [`RequestId`] the traffic phase stamps.
#[must_use]
pub fn run_spanner_shard(
    queries: usize,
    seed: u64,
    shard: usize,
    telemetry: bool,
) -> (Vec<QueryExecution>, MetricsRegistry) {
    let platform = Platform::Spanner;
    let mut preload_rng = StdRng::seed_from_u64(phase_seed(seed, platform, PHASE_PRELOAD));
    let mut traffic_rng = StdRng::seed_from_u64(phase_seed(seed, platform, PHASE_TRAFFIC));
    let mut db = Spanner::new(phase_seed(seed, platform, PHASE_ENGINE));
    let keys = KeyGen::new("sp", 5_000, 0.9);
    let values = ValueGen::new(400);
    // Transactional traffic: mostly reads, a healthy scan share, and the
    // write stream that exercises consensus.
    let mix = DbMix {
        read: 0.70,
        write: 0.10,
        scan: 0.15,
        rmw: 0.05,
    };

    // Preload the hot set so reads hit warm data (production steady state).
    for rank in 0..2_000 {
        let key = keys.key_for_rank(rank);
        let value = values.sample(&mut preload_rng);
        db.preload(key, value);
    }
    if telemetry {
        db.recorder.set_telemetry(MetricsRegistry::new());
    }

    let executions: Vec<QueryExecution> = (0..queries)
        .map(|index| {
            db.recorder
                .set_request(RequestId::tag(platform, shard, index));
            match mix.sample(&mut traffic_rng) {
                DbOp::Read => {
                    let key = keys.sample(&mut traffic_rng);
                    db.read(&key)
                }
                DbOp::Write => db.commit(
                    keys.sample(&mut traffic_rng),
                    values.sample(&mut traffic_rng),
                ),
                DbOp::Scan => db.query(&keys.sample(&mut traffic_rng), 60, 100),
                DbOp::ReadModifyWrite => db.read_modify_write(
                    keys.sample(&mut traffic_rng),
                    values.sample(&mut traffic_rng),
                ),
            }
        })
        .collect();
    assert_eq!(
        db.recorder.open_spans(),
        0,
        "spanner left spans open at end-of-run"
    );
    (executions, db.recorder.take_telemetry())
}

/// One operation in a BigTable shard's deterministic op stream.
enum BtOp {
    Put { key: Vec<u8>, value: Vec<u8> },
    Get { key: Vec<u8> },
    Scan { start: Vec<u8> },
    Rmw { key: Vec<u8>, value: Vec<u8> },
}

/// A BigTable shard's op stream and the length of its preload prefix.
type OpStream = (Vec<BtOp>, usize);

/// Materializes a BigTable shard's full op stream — preload puts followed
/// by the traffic mix — as a pure function of `(queries, seed)`. Returns
/// the ops and the preload length. Every tablet of the shard walks this
/// stream and executes its routed subsequence, which is what makes the
/// per-tablet decomposition equal an in-order run of every tablet: each
/// tablet sees exactly the ops it would have seen behind the router.
/// [`run_fleet_telemetry`] builds it once per shard and shares it between
/// the shard's tablet jobs; [`run_bigtable_tablet`] builds its own.
fn bigtable_ops(queries: usize, seed: u64) -> OpStream {
    let platform = Platform::BigTable;
    let mut preload_rng = StdRng::seed_from_u64(phase_seed(seed, platform, PHASE_PRELOAD));
    let mut traffic_rng = StdRng::seed_from_u64(phase_seed(seed, platform, PHASE_TRAFFIC));
    let keys = KeyGen::new("bt", 20_000, 0.99);
    let values = ValueGen::new(300);
    let mix = DbMix {
        read: 0.65,
        write: 0.25,
        scan: 0.05,
        rmw: 0.05,
    };
    let mut ops = Vec::with_capacity(BT_PRELOAD_ROWS + queries);
    // Preload the hot set (zipf 0.99 concentrates mass in the top ranks).
    for rank in 0..BT_PRELOAD_ROWS as u64 {
        ops.push(BtOp::Put {
            key: keys.key_for_rank(rank),
            value: values.sample(&mut preload_rng),
        });
    }
    for _ in 0..queries {
        ops.push(match mix.sample(&mut traffic_rng) {
            DbOp::Read => BtOp::Get {
                key: keys.sample(&mut traffic_rng),
            },
            DbOp::Write => BtOp::Put {
                key: keys.sample(&mut traffic_rng),
                value: values.sample(&mut traffic_rng),
            },
            DbOp::Scan => BtOp::Scan {
                start: keys.sample(&mut traffic_rng),
            },
            DbOp::ReadModifyWrite => {
                let key = keys.sample(&mut traffic_rng);
                BtOp::Rmw {
                    key,
                    value: values.sample(&mut traffic_rng),
                }
            }
        });
    }
    (ops, BT_PRELOAD_ROWS)
}

/// One tablet's slice of a BigTable shard run: the traffic executions it
/// owned and the scan partials it contributed, each tagged with the global
/// op index so [`assemble_bigtable_shard`] can reassemble the shard's
/// record stream in canonical order.
#[derive(Debug)]
pub struct BigTableTabletRun {
    /// Shard index the tablet belongs to (request-identity shard field).
    pub shard: usize,
    /// Tablet index within the shard's tablet set.
    pub tablet: usize,
    /// Traffic executions this tablet owned, by global op index.
    pub executions: Vec<(usize, QueryExecution)>,
    /// Scan partials this tablet contributed, by global op index.
    pub scans: Vec<(usize, ScanPartial)>,
    /// The tablet's telemetry registry.
    pub telemetry: MetricsRegistry,
    /// Traffic queries in the shard's op stream.
    pub queries: usize,
    /// Preload ops preceding traffic in the op stream.
    pub preload: usize,
}

/// Runs one tablet of a shard of the BigTable-class workload (a read-heavy
/// key-value mix with enough writes to exercise flushes and compactions):
/// builds the shard's op stream, executes the ops routed to `tablet`
/// (scans contribute a partial from every tablet), and returns the tablet's
/// tagged output. `telemetry` enables the tablet's traffic-phase registry
/// (every in-tree caller passes `true`). `_perturb` has no effect: a
/// tablet runs its LSM maintenance in line. It stays until the fleet
/// benchmark, which passes it, next changes.
///
/// Each call builds the whole shard's stream, so timing this runner per
/// tablet charges every tablet the build that a fleet run pays once per
/// shard; the records are the same either way.
#[must_use]
pub fn run_bigtable_tablet(
    queries: usize,
    seed: u64,
    shard: usize,
    tablet: usize,
    tablets: usize,
    telemetry: bool,
    _perturb: Option<pool::Perturbation>,
) -> BigTableTabletRun {
    let stream = bigtable_ops(queries, seed);
    run_tablet_ops(&stream, seed, shard, tablet, tablets, telemetry)
}

/// The tablet loop behind [`run_bigtable_tablet`]: walks the shard's op
/// stream by reference and executes the ops routed to `tablet`, cloning
/// only the keys and values it stores.
fn run_tablet_ops(
    (ops, preload): &OpStream,
    seed: u64,
    shard: usize,
    tablet: usize,
    tablets: usize,
    telemetry: bool,
) -> BigTableTabletRun {
    let platform = Platform::BigTable;
    let preload = *preload;
    let config = BigTableConfig {
        memtable_flush_bytes: 32 * 1024,
        tablets,
        ..BigTableConfig::default()
    };
    let mut tb = Tablet::new(&config, tablet, phase_seed(seed, platform, PHASE_ENGINE));
    let mut executions = Vec::new();
    let mut scans = Vec::new();
    for (idx, op) in ops.iter().enumerate() {
        if telemetry && idx == preload {
            tb.recorder.set_telemetry(MetricsRegistry::new());
        }
        // Request identity is the op's position in the traffic stream —
        // identical on every tablet that touches the op, so scan partials
        // and point ops agree regardless of schedule. Preload stays
        // untagged and keeps no record: it is warmup, not workload.
        let traffic = idx.checked_sub(preload);
        if let Some(index) = traffic {
            tb.recorder
                .set_request(RequestId::tag(platform, shard, index));
        }
        let exec = match op {
            BtOp::Put { key, value } => {
                if route_key(key, tablets) != tablet {
                    continue;
                }
                if traffic.is_none() {
                    tb.preload(key.clone(), value.clone());
                    continue;
                }
                tb.put(key.clone(), value.clone())
            }
            BtOp::Get { key } => {
                if route_key(key, tablets) != tablet {
                    continue;
                }
                tb.get(key)
            }
            BtOp::Rmw { key, value } => {
                if route_key(key, tablets) != tablet {
                    continue;
                }
                let _ = tb.get(key);
                tb.put(key.clone(), value.clone())
            }
            BtOp::Scan { start } => {
                scans.push((idx, tb.scan_partial(start, BT_SCAN_LIMIT)));
                continue;
            }
        };
        if idx >= preload {
            executions.push((idx, exec));
        }
    }
    assert_eq!(
        tb.recorder.open_spans(),
        0,
        "bigtable tablet left spans open"
    );
    BigTableTabletRun {
        shard,
        tablet,
        executions,
        scans,
        telemetry: tb.recorder.take_telemetry(),
        queries: ops.len() - preload,
        preload,
    }
}

/// Folds a shard's tablet runs back into the shard's canonical record
/// stream: point executions land in their op-index slot, scan partials are
/// grouped per op (tablet order within a group) and assembled on a fresh
/// scan coordinator, and the telemetry registries merge in tablet order.
/// A pure fold — callers may produce the tablet runs in any schedule.
#[must_use]
pub fn assemble_bigtable_shard(
    mut tablet_runs: Vec<BigTableTabletRun>,
) -> (Vec<QueryExecution>, MetricsRegistry) {
    tablet_runs.sort_by_key(|run| run.tablet);
    let queries = tablet_runs.first().map_or(0, |run| run.queries);
    let preload = tablet_runs.first().map_or(0, |run| run.preload);
    let shard = tablet_runs.first().map_or(0, |run| run.shard);
    let telemetry_on = tablet_runs.iter().any(|run| run.telemetry.is_enabled());

    let mut slots: Vec<Option<QueryExecution>> = Vec::with_capacity(queries);
    slots.resize_with(queries, || None);
    let mut scan_parts: Vec<(usize, ScanPartial)> = Vec::new();
    let mut registries: Vec<MetricsRegistry> = Vec::new();
    for run in tablet_runs {
        for (idx, exec) in run.executions {
            if let Some(slot) = idx.checked_sub(preload).and_then(|i| slots.get_mut(i)) {
                *slot = Some(exec);
            }
        }
        scan_parts.extend(run.scans);
        registries.push(run.telemetry);
    }
    // Stable by op index: within one scan, partials keep tablet order.
    scan_parts.sort_by_key(|(idx, _)| *idx);

    let mut scans = ScanAssembler::default();
    if telemetry_on {
        scans.recorder.set_telemetry(MetricsRegistry::new());
    }
    let mut parts = scan_parts.into_iter().peekable();
    while let Some((idx, first)) = parts.next() {
        let mut group = vec![first];
        while parts.peek().is_some_and(|(next, _)| *next == idx) {
            if let Some((_, part)) = parts.next() {
                group.push(part);
            }
        }
        if let Some(index) = idx.checked_sub(preload) {
            scans
                .recorder
                .set_request(RequestId::tag(Platform::BigTable, shard, index));
        }
        let exec = scans.assemble(group);
        if let Some(slot) = idx.checked_sub(preload).and_then(|i| slots.get_mut(i)) {
            *slot = Some(exec);
        }
    }
    registries.push(scans.recorder.take_telemetry());

    let executions: Vec<QueryExecution> = slots.into_iter().flatten().collect();
    debug_assert_eq!(
        executions.len(),
        queries,
        "every traffic op yields exactly one execution"
    );
    let merged = if telemetry_on {
        let mut merged = MetricsRegistry::new();
        for part in &registries {
            merged.merge(part);
        }
        merged
    } else {
        MetricsRegistry::disabled()
    };
    (executions, merged)
}

/// Runs one shard of the BigQuery-class workload (the dashboard analytics
/// mix). `telemetry` enables a registry covering the traffic phase (every
/// in-tree caller passes `true`); `shard` feeds the [`RequestId`] of each
/// traffic query.
#[must_use]
pub fn run_bigquery_shard(
    queries: usize,
    fact_rows: usize,
    seed: u64,
    shard: usize,
    telemetry: bool,
) -> (Vec<QueryExecution>, MetricsRegistry) {
    let platform = Platform::BigQuery;
    let mut preload_rng = StdRng::seed_from_u64(phase_seed(seed, platform, PHASE_PRELOAD));
    let mut traffic_rng = StdRng::seed_from_u64(phase_seed(seed, platform, PHASE_TRAFFIC));
    let gen = FactGen::default();
    let rows = gen.rows(fact_rows, &mut preload_rng);
    let mut bq = BigQuery::new(phase_seed(seed, platform, PHASE_ENGINE));
    bq.load(&rows, gen.dimension());
    if telemetry {
        bq.recorder.set_telemetry(MetricsRegistry::new());
    }
    let mix = AnalyticsMix::dashboard();

    let executions: Vec<QueryExecution> = (0..queries)
        .map(|index| {
            bq.recorder
                .set_request(RequestId::tag(platform, shard, index));
            match mix.sample(&mut traffic_rng) {
                AnalyticsQuery::ScanFilter => {
                    let threshold = 10.0 + traffic_rng.random::<f64>() * 60.0;
                    bq.scan_filter(threshold)
                }
                AnalyticsQuery::GroupAggregate => bq.group_aggregate(),
                AnalyticsQuery::Join => bq.join(),
                AnalyticsQuery::TopK => bq.top_k(50),
            }
        })
        .collect();
    assert_eq!(
        bq.recorder.open_spans(),
        0,
        "bigquery left spans open at end-of-run"
    );
    (executions, bq.recorder.take_telemetry())
}

/// A BigTable shard's op stream, shared by the shard's tablet jobs:
/// whichever runs first builds it, the rest borrow it.
type SharedOps = Arc<OnceLock<OpStream>>;

/// One schedulable unit of fleet work: a platform shard, or — for BigTable,
/// whose monolithic shard used to straggle the whole fleet — a single
/// tablet of one.
enum ShardJob {
    Spanner {
        queries: usize,
        seed: u64,
        shard: usize,
    },
    BigTableTablet {
        queries: usize,
        seed: u64,
        shard: usize,
        tablet: usize,
        tablets: usize,
        ops: SharedOps,
    },
    BigQuery {
        queries: usize,
        fact_rows: usize,
        seed: u64,
        shard: usize,
    },
}

/// What one fleet job produced: a whole shard's record stream, or one
/// tablet's slice of a BigTable shard (assembled after the pool drains).
enum JobOutput {
    Shard(Vec<QueryExecution>, MetricsRegistry),
    Tablet(BigTableTabletRun),
}

impl ShardJob {
    fn run(self) -> JobOutput {
        match self {
            ShardJob::Spanner {
                queries,
                seed,
                shard,
            } => {
                let (executions, registry) = run_spanner_shard(queries, seed, shard, true);
                JobOutput::Shard(executions, registry)
            }
            ShardJob::BigTableTablet {
                queries,
                seed,
                shard,
                tablet,
                tablets,
                ops,
            } => {
                let stream = ops.get_or_init(|| bigtable_ops(queries, seed));
                JobOutput::Tablet(run_tablet_ops(stream, seed, shard, tablet, tablets, true))
            }
            ShardJob::BigQuery {
                queries,
                fact_rows,
                seed,
                shard,
            } => {
                let (executions, registry) =
                    run_bigquery_shard(queries, fact_rows, seed, shard, true);
                JobOutput::Shard(executions, registry)
            }
        }
    }
}

/// Estimated wall-clock cost of one fleet job in nanoseconds, for
/// longest-processing-time-first dispatch: a fixed warmup or load cost
/// plus a per-query or per-row slope, so dispatch order tracks what the
/// jobs cost rather than a hardcoded platform ranking. The constants were
/// fitted to the `fleet/shard_wall_clock/*` entries in `BENCH_fleet.json`
/// while warmup still built full records, and they now overstate the
/// database jobs. Timing the job runners alone at 0 to 5,000 queries (zero
/// queries is the warmup alone; medians of three runs on a 2-thread host,
/// which spread by up to a third) puts a Spanner shard at ≈ 11.5 ms +
/// 6 µs per query and a BigTable tablet job at ≈ 9.5 ms + 2.4 µs per
/// shard query (building the shard's op stream
/// itself, which in the fleet only the first of a shard's tablet jobs
/// does). A BigQuery shard timed alone at 0 and 100 queries over 8,000
/// and 40,000 fact rows (medians of five runs on the same kind of host)
/// costs ≈ 300 ns per fact row plus ≈ 6 ns per row per query, about
/// 0.24 ms per query at 40,000 rows. A refit to those numbers keeps the
/// dispatch order of the traffic-heavy shape but reorders the default and
/// the analytics-heavy shapes, so the constants stay until a change
/// measures what that reordering costs.
fn job_weight(job: &ShardJob) -> u64 {
    match *job {
        ShardJob::Spanner { queries, .. } => 7_000_000 + 100_000 * queries as u64,
        ShardJob::BigTableTablet { queries, .. } => 17_000_000 + 5_000 * queries as u64,
        ShardJob::BigQuery {
            queries, fact_rows, ..
        } => 700 * fact_rows as u64 + 170_000 * queries as u64,
    }
}

/// The stable lower-case key a platform goes by in telemetry artifacts
/// (metric labels, trace process names, report sections).
#[must_use]
pub fn platform_key(platform: Platform) -> &'static str {
    match platform {
        Platform::Spanner => "spanner",
        Platform::BigTable => "bigtable",
        Platform::BigQuery => "bigquery",
    }
}

/// One shard's fleet output: where it ran, what it executed, and the
/// telemetry it recorded.
#[derive(Debug)]
pub struct ShardRun {
    /// The platform this shard simulated.
    pub platform: Platform,
    /// Shard index within the platform's plan (canonical merge order).
    pub shard: usize,
    /// The shard's query stream, in execution order.
    pub executions: Vec<QueryExecution>,
    /// The shard's private telemetry registry.
    pub telemetry: MetricsRegistry,
}

/// The shard plan one platform runs under `config` — a pure function of the
/// workload definition, shared by [`run_fleet_telemetry`] and the benches,
/// so a bench timing individual jobs runs the shards the fleet schedules. A
/// BigTable tablet timed alone through [`run_bigtable_tablet`] also builds
/// its shard's op stream, which the fleet builds once per shard and shares
/// between the shard's tablet jobs.
#[must_use]
pub fn platform_plan(config: &FleetConfig, platform: Platform) -> ShardPlan {
    let (items, stream) = match platform {
        Platform::Spanner => (config.db_queries, STREAM_SPANNER),
        Platform::BigTable => (config.db_queries, STREAM_BIGTABLE),
        Platform::BigQuery => (config.analytics_queries, STREAM_BIGQUERY),
    };
    ShardPlan::new(items, config.shards, config.seed, stream)
}

/// Builds the fleet's full job schedule in canonical merge order — Spanner
/// shards, then BigTable shards (one job per tablet, the shard's tablets
/// sharing one op stream), then BigQuery shards — each tagged with its
/// `(platform, shard, part)` identity (`part` is the tablet index;
/// whole-shard jobs use part 0).
fn fleet_jobs(config: FleetConfig) -> Vec<((Platform, usize, usize), ShardJob)> {
    let tablets = config.tablets.max(1);
    let mut jobs = Vec::with_capacity((2 + tablets) * config.shards.max(1));
    for &platform in &Platform::ALL {
        let plan = platform_plan(&config, platform);
        for shard in plan.shards() {
            match platform {
                Platform::Spanner => jobs.push((
                    (platform, shard.index, 0),
                    ShardJob::Spanner {
                        queries: shard.items,
                        seed: shard.seed,
                        shard: shard.index,
                    },
                )),
                Platform::BigTable => {
                    let ops = SharedOps::default();
                    for tablet in 0..tablets {
                        jobs.push((
                            (platform, shard.index, tablet),
                            ShardJob::BigTableTablet {
                                queries: shard.items,
                                seed: shard.seed,
                                shard: shard.index,
                                tablet,
                                tablets,
                                ops: Arc::clone(&ops),
                            },
                        ));
                    }
                }
                Platform::BigQuery => jobs.push((
                    (platform, shard.index, 0),
                    ShardJob::BigQuery {
                        queries: shard.items,
                        fact_rows: config.fact_rows,
                        seed: shard.seed,
                        shard: shard.index,
                    },
                )),
            }
        }
    }
    jobs
}

/// Runs the whole fleet, one [`ShardRun`] per shard in canonical
/// `(platform, shard)` order, each shard recording into its own
/// [`MetricsRegistry`] so callers can export per-shard trace lanes and merge
/// metrics in any order (the merge is order-independent by construction).
///
/// Shards run concurrently on up to `config.parallelism` worker threads —
/// across platforms as well as within one — and are folded back in
/// canonical order, so the output is a pure function of the configuration
/// minus `parallelism` and `perturb`.
#[must_use]
pub fn run_fleet_telemetry(config: FleetConfig) -> Vec<ShardRun> {
    let mut schedule = fleet_jobs(config);
    // Longest-processing-time-first dispatch, weighted by each job's
    // estimated cost (calibrated against the measured per-shard wall-clock
    // entries in BENCH_fleet.json — see `job_weight`). Enqueueing in
    // canonical order left the tail of every parallel run single-threaded
    // on whichever job happened to be heaviest; dispatching heaviest-first
    // keeps the tail short. The sort is stable, the tags carry canonical
    // identity, and results are re-sorted below, so fleet output is
    // unchanged by dispatch order.
    schedule.sort_by_key(|(_, job)| std::cmp::Reverse(job_weight(job)));
    let (tags, jobs): (Vec<_>, Vec<_>) = schedule
        .into_iter()
        .map(|(tag, job)| (tag, move || job.run()))
        .unzip();
    // The pool returns outputs in input order, so each zips onto its tag.
    let mut outputs: Vec<_> = tags
        .into_iter()
        .zip(pool::run_jobs_perturbed(
            config.parallelism,
            jobs,
            config.perturb,
        ))
        .collect();
    outputs.sort_by_key(|((platform, shard, part), _)| (*platform as usize, *shard, *part));

    // In canonical order a BigTable shard's tablet runs are adjacent.
    let mut runs = Vec::new();
    let mut outputs = outputs.into_iter().peekable();
    while let Some(((platform, shard, _), output)) = outputs.next() {
        let (executions, telemetry) = match output {
            JobOutput::Shard(executions, telemetry) => (executions, telemetry),
            JobOutput::Tablet(first) => {
                let mut tablets = vec![first];
                while let Some((_, JobOutput::Tablet(run))) =
                    outputs.next_if(|((next_platform, next_shard, _), output)| {
                        (*next_platform, *next_shard) == (platform, shard)
                            && matches!(output, JobOutput::Tablet(_))
                    })
                {
                    tablets.push(run);
                }
                assemble_bigtable_shard(tablets)
            }
        };
        runs.push(ShardRun {
            platform,
            shard,
            executions,
            telemetry,
        });
    }
    runs
}

/// Folds per-shard runs into per-platform execution streams in canonical
/// `(platform, shard)` order (shard order within each platform is the plan
/// order, which the pool already preserves).
#[must_use]
pub fn fold_fleet(runs: Vec<ShardRun>) -> Vec<(Platform, Vec<QueryExecution>)> {
    let mut merged: Vec<(Platform, Vec<QueryExecution>)> = Platform::ALL
        .iter()
        .map(|&platform| (platform, Vec::new()))
        .collect();
    for run in runs {
        if let Some(slot) = merged.iter_mut().find(|(p, _)| *p == run.platform) {
            slot.1.extend(run.executions);
        }
    }
    merged
}

/// Merges every shard's registry into one fleet-wide registry. The fold is
/// commutative and associative, so any merge order serializes identically;
/// this one walks the canonical shard order.
#[must_use]
pub fn merge_fleet_metrics(runs: &[ShardRun]) -> MetricsRegistry {
    let mut merged = MetricsRegistry::new();
    for run in runs {
        merged.merge(&run.telemetry);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts two record streams are equal field for field.
    fn assert_records_eq(a: &[QueryExecution], b: &[QueryExecution], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: record count");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.platform == y.platform
                    && x.label == y.label
                    && x.request == y.request
                    && x.spans == y.spans
                    && x.cpu_work == y.cpu_work,
                "{what}: record {i} differs"
            );
        }
    }

    /// One BigTable shard's records from an in-order loop over its tablets
    /// (the reference the scheduled tablet jobs must reassemble to).
    fn bigtable_shard_in_order(queries: usize, seed: u64, shard: usize) -> Vec<QueryExecution> {
        let tablets = DEFAULT_BIGTABLE_TABLETS;
        let runs = (0..tablets)
            .map(|tablet| run_bigtable_tablet(queries, seed, shard, tablet, tablets, true, None))
            .collect();
        assemble_bigtable_shard(runs).0
    }

    #[test]
    fn spanner_run_produces_all_op_kinds() {
        let (execs, _) = run_spanner_shard(200, 11, 0, true);
        assert_eq!(execs.len(), 200);
        let labels: std::collections::HashSet<&str> = execs.iter().map(|e| e.label).collect();
        assert!(labels.contains("read"));
        assert!(labels.contains("commit"));
        assert!(labels.contains("query"));
    }

    #[test]
    fn bigtable_run_compacts() {
        let execs = bigtable_shard_in_order(2_000, 13, 0);
        assert_eq!(execs.len(), 2_000);
        // Some query observed a large remote (compaction) wait.
        let max_remote = execs
            .iter()
            .map(|e| e.decomposition().remote.as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(max_remote > 0.0);
    }

    #[test]
    fn bigquery_run_covers_query_kinds() {
        let (execs, _) = run_bigquery_shard(30, 2_000, 17, 0, true);
        let labels: std::collections::HashSet<&str> = execs.iter().map(|e| e.label).collect();
        assert!(labels.len() >= 3, "{labels:?}");
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let config = FleetConfig {
            db_queries: 50,
            analytics_queries: 5,
            fact_rows: 500,
            seed: 3,
            ..FleetConfig::default()
        };
        let a = fold_fleet(run_fleet_telemetry(config));
        let b = fold_fleet(run_fleet_telemetry(config));
        for ((pa, ea), (pb, eb)) in a.iter().zip(&b) {
            assert_eq!(pa, pb);
            assert_eq!(ea.len(), eb.len());
            for (x, y) in ea.iter().zip(eb) {
                assert_eq!(x.label, y.label);
                assert_eq!(x.decomposition().end_to_end, y.decomposition().end_to_end);
            }
        }
    }

    #[test]
    fn fleet_covers_all_platforms_and_counts() {
        let config = FleetConfig {
            db_queries: 23,
            analytics_queries: 7,
            fact_rows: 400,
            seed: 9,
            shards: 4,
            tablets: 3,
            parallelism: 2,
            perturb: None,
        };
        let fleet = fold_fleet(run_fleet_telemetry(config));
        assert_eq!(fleet.len(), 3);
        for (platform, execs) in &fleet {
            let want = match platform {
                Platform::BigQuery => 7,
                _ => 23,
            };
            assert_eq!(execs.len(), want, "{platform}");
        }
    }

    #[test]
    fn tablet_jobs_assemble_to_inline_shard_run() {
        // The per-tablet decomposition the fleet schedules must equal an
        // in-order tablet loop record-for-record — even with tablets
        // produced out of order.
        let (queries, seed) = (150, 77);
        let in_order = bigtable_shard_in_order(queries, seed, 3);
        let tablets = DEFAULT_BIGTABLE_TABLETS;
        let runs: Vec<BigTableTabletRun> = (0..tablets)
            .rev()
            .map(|tablet| run_bigtable_tablet(queries, seed, 3, tablet, tablets, true, None))
            .collect();
        let (assembled, _) = assemble_bigtable_shard(runs);
        assert_records_eq(&in_order, &assembled, "reversed tablets");
    }

    #[test]
    fn fleet_bigtable_shards_match_the_public_tablet_runner() {
        // A fleet run shares one op stream between a shard's tablet jobs;
        // the public per-tablet runner, which benches time and check
        // against the fleet's records, builds its own. Every BigTable shard
        // the fleet produces — one tablet per shard or several, sequential
        // or parallel, perturbed or not — must equal the public runner's
        // tablets assembled, in records and in telemetry.
        for tablets in [1, 3] {
            let base = FleetConfig {
                db_queries: 60,
                analytics_queries: 2,
                fact_rows: 200,
                seed: 0x7AB,
                parallelism: 1,
                shards: 2,
                tablets,
                perturb: None,
            };
            let plan = platform_plan(&base, Platform::BigTable);
            let reference: Vec<(Vec<QueryExecution>, String)> = plan
                .shards()
                .iter()
                .map(|shard| {
                    let runs = (0..tablets)
                        .map(|tablet| {
                            run_bigtable_tablet(
                                shard.items,
                                shard.seed,
                                shard.index,
                                tablet,
                                tablets,
                                true,
                                None,
                            )
                        })
                        .collect();
                    let (executions, telemetry) = assemble_bigtable_shard(runs);
                    (executions, telemetry.to_json())
                })
                .collect();
            for (parallelism, perturb) in [(1, None), (2, None), (1, Some(9)), (2, Some(9))] {
                let config = FleetConfig {
                    parallelism,
                    perturb: perturb.map(pool::Perturbation::new),
                    ..base
                };
                let fleet: Vec<ShardRun> = run_fleet_telemetry(config)
                    .into_iter()
                    .filter(|run| run.platform == Platform::BigTable)
                    .collect();
                assert_eq!(fleet.len(), reference.len());
                for (shard, (run, (executions, metrics))) in
                    fleet.iter().zip(&reference).enumerate()
                {
                    let what = format!(
                        "{tablets} tablets, shard {shard} at parallelism {parallelism}, \
                         perturb {perturb:?}"
                    );
                    assert_eq!(run.shard, shard, "{what}");
                    assert_records_eq(&run.executions, executions, &what);
                    assert!(
                        run.telemetry.to_json() == *metrics,
                        "{what}: telemetry differs"
                    );
                }
            }
        }
    }

    #[test]
    fn lpt_weights_rank_measured_cost_not_platform_order() {
        // Satellite fix: dispatch order must follow the measured job cost
        // model. A BigTable tablet job with the fleet's default per-shard
        // query load outweighs a BigQuery shard with a small fact table —
        // the old hardcoded platform ranking said the opposite.
        let config = FleetConfig::default();
        let bt_queries = config.db_queries / config.shards;
        let tablet_job = |queries| ShardJob::BigTableTablet {
            queries,
            seed: 1,
            shard: 0,
            tablet: 0,
            tablets: config.tablets,
            ops: SharedOps::default(),
        };
        let tablet = tablet_job(bt_queries);
        let bigquery = ShardJob::BigQuery {
            queries: config.analytics_queries / config.shards,
            fact_rows: 2_000,
            seed: 1,
            shard: 0,
        };
        assert!(job_weight(&tablet) > job_weight(&bigquery));
        // And weights grow with load: more queries, heavier job.
        let heavier = tablet_job(bt_queries * 4);
        assert!(job_weight(&heavier) > job_weight(&tablet));
    }

    #[test]
    fn phase_seeds_are_independent() {
        // Reshaping one phase's stream can't alias another's.
        let mut seen = std::collections::HashSet::new();
        for platform in Platform::ALL {
            for phase in [PHASE_ENGINE, PHASE_PRELOAD, PHASE_TRAFFIC] {
                assert!(seen.insert(phase_seed(42, platform, phase)));
            }
        }
        assert_eq!(seen.len(), 9);
    }
}
