//! `fleetbench`: real wall-clock of `hsdp`'s profile-artifact pipeline on
//! named fleet shapes, end to end and per layer.
//!
//! ```sh
//! cargo run --release -q --manifest-path fleetbench/Cargo.toml -- \
//!     --workload fleet-traffic --seed 12648430 --seconds 40 --trace 0
//! python3 fleetbench/steady.py --runs 10 --sets 2   # steadiness mode
//! ```
//!
//! One iteration is a batch job run in a closed loop from one process: an
//! instrumented fleet run at a given parallelism, then every artifact
//! `fleet_profile --telemetry --folded --pprof` and `tail_report` derive
//! from it, in memory (see `pipeline.rs`). Every iteration's output is
//! checked (`pipeline::check`); the share that failed is printed to stderr
//! as `failed_frac` and carried by the result's `attempted`/`failed` fields.
//!
//! `--trace 0` measures the end-to-end metrics:
//! - `wall_s`, `wall_seq_s`: median iteration wall-clock at parallelism
//!   `min(2, nproc)` and at parallelism 1, the two alternating;
//! - `sim_qps`: simulated traffic queries per second of `wall_s`;
//! - `setup_s`: median, over fresh child processes, of the time from process
//!   entry to the end of the first iteration;
//! - `peak_rss_mib`: median `VmHWM` of those fresh processes.
//!
//! The three times are rescaled for host speed (`host.rs`); stderr shows the
//! measured values, sample counts and tail percentiles beside them.
//!
//! `--trace 1` gives the per-layer metrics instead: rounds of per-unit
//! passes over every pool job (`units.rs`) and span-traced iterations, with
//! the spans written as Chrome trace-event JSON to `--trace-out` (default
//! `fleetbench/out/trace-<workload>-<seed>.json`). Per-layer times are
//! measured, not rescaled.
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.

mod api;
mod host;
mod pipeline;
mod spans;
mod stats;
mod units;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use host::HostSpeed;
use pipeline::{check, iterate, Artifacts, Facts};
use spans::Recorder;
use stats::{describe, median};
use workloads::{Golden, Workload};

/// Fresh processes timed for `setup_s` in one run.
const SETUP_PROBES: usize = 5;

/// Fewest rounds (each with one per-unit pass) in a traced run.
const MIN_TRACED_ROUNDS: usize = 3;

const USAGE: &str = "usage: fleetbench --workload <fleet-traffic|fleet-analytics> \
                     [--seed <u64>] --seconds <n> --trace <0|1> [--parallelism <n>] \
                     [--trace-out <path>]";

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    parallelism: usize,
    trace_out: Option<String>,
    /// Internal: run one iteration as a fresh process and report its timing.
    setup_probe: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut parallelism = nproc.min(2);
    let mut trace_out = None;
    let mut setup_probe = false;
    while let Some(flag) = raw.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            "--parallelism" => {
                let p = usize::try_from(number("--parallelism")?).map_err(|e| e.to_string())?;
                if p == 0 || p > nproc {
                    return Err(format!("--parallelism {p} is outside 1..={nproc} (nproc)"));
                }
                parallelism = p;
            }
            "--trace-out" => trace_out = Some(value),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        parallelism,
        trace_out,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("fleetbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return setup_probe(&args, entry);
    }
    eprintln!(
        "workload {} (seed {}, parallelism {}): {}",
        args.workload.name, args.seed, args.parallelism, args.workload.why
    );
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        measured_run(&args)
    };
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("fleetbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// What one run prints as its last line.
struct RunResult {
    attempted: usize,
    failed: usize,
    /// Problems found beyond per-iteration failures (traced runs only).
    extra_problems: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.extra_problems == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tallies checked iterations and reports each failure on stderr.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("fleetbench: {what} failed its output check:");
            for problem in problems {
                eprintln!("  {problem}");
            }
        }
    }

    fn report(&self) {
        eprintln!(
            "failed_frac: {} ({} of {} iterations failed their output check)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }
}

/// The run's reference: a p=1 iteration checked in depth, against which
/// every later iteration's artifacts are compared byte for byte.
struct Reference {
    artifacts: Artifacts,
    facts: Facts,
    golden: Option<&'static Golden>,
}

fn reference(args: &Args, tally: &mut Tally) -> Reference {
    let config = args.workload.config(args.seed, 1);
    let golden = workloads::golden(args.workload.name, args.seed);
    let (artifacts, facts, mut problems) = iterate(config, &mut Recorder::off(), true);
    problems.extend(check(&config, &artifacts, &facts, None, golden));
    tally.record("the p=1 reference iteration", &problems);
    eprintln!(
        "record_stream_crc32c: {} (golden digests {})",
        facts.record_crc,
        if golden.is_some() {
            "checked"
        } else {
            "not stored for this seed"
        }
    );
    eprintln!("artifact digests: {:?}", artifacts.digests());
    Reference {
        artifacts,
        facts,
        golden,
    }
}

/// Runs one untraced iteration, checks it, and returns its wall-clock.
fn timed_iteration(
    args: &Args,
    parallelism: usize,
    reference: &Reference,
    tally: &mut Tally,
) -> f64 {
    let config = args.workload.config(args.seed, parallelism);
    let start = Instant::now();
    let (artifacts, facts, mut problems) = iterate(config, &mut Recorder::off(), false);
    let seconds = start.elapsed().as_secs_f64();
    problems.extend(check(
        &config,
        &artifacts,
        &facts,
        Some(&reference.artifacts),
        reference.golden,
    ));
    tally.record(&format!("a p={parallelism} iteration"), &problems);
    seconds
}

/// Child side of `setup_s`: one iteration in a fresh process. Prints the
/// seconds since process entry, the peak RSS in MiB and the artifact
/// digests.
fn setup_probe(args: &Args, entry: Instant) -> ExitCode {
    let config = args.workload.config(args.seed, args.parallelism);
    let (artifacts, _, _) = iterate(config, &mut Recorder::off(), false);
    let seconds = entry.elapsed().as_secs_f64();
    match peak_rss_mib() {
        Ok(rss) => {
            println!("{seconds} {rss} {:?}", artifacts.digests());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("fleetbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One fresh process's set-up time and peak RSS.
struct Probe {
    seconds: f64,
    rss_mib: f64,
}

/// Parent side of `setup_s`: runs `SETUP_PROBES` fresh processes one after
/// another, checking each one's artifact digests against the stored ones
/// (or, for a seed without stored digests, against the reference's).
fn setup_probes(
    args: &Args,
    reference: &Reference,
    tally: &mut Tally,
    host: &mut HostSpeed,
) -> Result<Vec<Probe>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let want = match reference.golden {
        Some(golden) => format!("{:?}", golden.artifacts),
        None => format!("{:?}", reference.artifacts.digests()),
    };
    let mut probes = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        host.sample();
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name, "--seed"])
            .arg(args.seed.to_string())
            .arg("--parallelism")
            .arg(args.parallelism.to_string())
            .arg("--setup-probe")
            .output()
            .map_err(|e| format!("cannot start a setup probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut fields = stdout.trim().splitn(3, ' ');
        let parsed = (|| {
            let seconds = fields.next()?.parse::<f64>().ok()?;
            let rss_mib = fields.next()?.parse::<f64>().ok()?;
            Some((Probe { seconds, rss_mib }, fields.next()?))
        })();
        let Some((probe, digests)) = parsed.filter(|_| output.status.success()) else {
            return Err(format!(
                "setup probe failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        };
        let problems = if digests == want {
            Vec::new()
        } else {
            vec![format!("artifact digests {digests} != expected {want}")]
        };
        tally.record("a setup-probe iteration", &problems);
        probes.push(probe);
    }
    Ok(probes)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The end-to-end run: set-up probes, then p=min(2,nproc) and p=1
/// iterations alternating for `--seconds`, with the host-speed probe timed
/// before each probe process and each iteration.
fn measured_run(args: &Args) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut host = HostSpeed::default();
    let reference = reference(args, &mut tally);
    let probes = setup_probes(args, &reference, &mut tally, &mut host)?;
    let setup: Vec<f64> = probes.iter().map(|p| p.seconds).collect();
    let probe_rss: Vec<f64> = probes.iter().map(|p| p.rss_mib).collect();

    // One untimed iteration at each parallelism lets the allocator and the
    // pool's threads reach their steady state before timing starts.
    timed_iteration(args, args.parallelism, &reference, &mut tally);
    timed_iteration(args, 1, &reference, &mut tally);
    let (mut wall, mut wall_seq) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while wall.is_empty() || Instant::now() < deadline {
        host.sample();
        wall.push(timed_iteration(
            args,
            args.parallelism,
            &reference,
            &mut tally,
        ));
        host.sample();
        wall_seq.push(timed_iteration(args, 1, &reference, &mut tally));
    }

    for (name, samples) in [
        ("wall_s", &wall),
        ("wall_seq_s", &wall_seq),
        ("setup_s", &setup),
    ] {
        eprintln!("{}", describe(&format!("{name} (measured)"), "s", samples));
    }
    eprintln!("{}", describe("host probe", "s", host.samples()));
    eprintln!(
        "host-speed correction: x{:.4} (reference probe {} s)",
        host.correction(),
        host::REFERENCE_PROBE_S
    );
    eprintln!("{}", describe("peak_rss_mib", "MiB", &probe_rss));
    tally.report();
    let wall_s = median(&wall) * host.correction();
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        extra_problems: 0,
        metrics: vec![
            ("wall_s", wall_s, "s"),
            ("wall_seq_s", median(&wall_seq) * host.correction(), "s"),
            (
                "sim_qps",
                args.workload.sim_queries() as f64 / wall_s,
                "queries/s",
            ),
            ("setup_s", median(&setup) * host.correction(), "s"),
            ("peak_rss_mib", median(&probe_rss), "MiB"),
        ],
    })
}

/// Artifact-layer spans whose per-iteration self time the traced run
/// reports, as `(span name, metric name)`.
const LAYER_SPANS: [(&str, &str); 15] = [
    ("telemetry.merge", "telemetry.merge_s"),
    ("telemetry.metrics_json", "telemetry.metrics_json_s"),
    ("telemetry.trace_export", "telemetry.trace_export_s"),
    ("telemetry.critical_path", "telemetry.critical_path_s"),
    ("bench.tail", "bench.tail_s"),
    ("platforms.fold", "platforms.fold_s"),
    ("profiling.gwp", "profiling.gwp_s"),
    ("profiling.folded", "profiling.folded_s"),
    ("profiling.pprof_build", "profiling.pprof_build_s"),
    ("taxes.pprof_encode", "taxes.pprof_encode_s"),
    ("taxes.pprof_decode", "taxes.pprof_decode_s"),
    ("profiling.decompose", "profiling.decompose_s"),
    ("taxes.crc_digest", "taxes.crc_digest_s"),
    ("bench.profile_json", "bench.profile_json_s"),
    ("bench.drop", "bench.drop_s"),
];

/// The per-layer run: rounds of an untraced p=1 iteration, a per-unit
/// pass, a traced p=1 and a traced p=min(2,nproc) iteration, repeated for
/// `--seconds` (and at least `MIN_TRACED_ROUNDS` times), so that every
/// layer is sampled under the same host conditions.
fn traced_run(args: &Args) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut host = HostSpeed::default();
    let mut extra_problems = 0;
    let reference = reference(args, &mut tally);
    let seq_config = args.workload.config(args.seed, 1);
    let mut rec = Recorder::on();

    let mut passes = Vec::new();
    let (mut base_seq, mut traced_seq, mut traced_par) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seq_ids, mut par_ids) = (Vec::new(), Vec::new());
    let mut next_id = 0u32;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while passes.len() < MIN_TRACED_ROUNDS || Instant::now() < deadline {
        host.sample();
        base_seq.push(timed_iteration(args, 1, &reference, &mut tally));

        rec.set_iteration(next_id);
        next_id += 1;
        let pass = units::unit_pass(&seq_config, &mut rec);
        if pass.record_crc != reference.facts.record_crc
            || pass.counters != reference.facts.counters
        {
            extra_problems += 1;
            eprintln!(
                "fleetbench: a unit pass does not reproduce the fleet: record CRC {} vs {}, \
                 counters {:?} vs {:?}",
                pass.record_crc,
                reference.facts.record_crc,
                pass.counters,
                reference.facts.counters
            );
        }
        passes.push(pass);

        for (parallelism, samples, ids) in [
            (1, &mut traced_seq, &mut seq_ids),
            (args.parallelism, &mut traced_par, &mut par_ids),
        ] {
            let config = args.workload.config(args.seed, parallelism);
            rec.set_iteration(next_id);
            ids.push(next_id);
            next_id += 1;
            let start = Instant::now();
            let (artifacts, facts, mut problems) = iterate(config, &mut rec, false);
            samples.push(start.elapsed().as_secs_f64());
            problems.extend(check(
                &config,
                &artifacts,
                &facts,
                Some(&reference.artifacts),
                reference.golden,
            ));
            tally.record(&format!("a traced p={parallelism} iteration"), &problems);
        }
    }

    let trace_path = args.trace_out.clone().unwrap_or_else(|| {
        format!(
            "{}/out/trace-{}-{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload.name,
            args.seed
        )
    });
    let trace_path = std::path::Path::new(&trace_path);
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, rec.chrome_trace_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    eprintln!("spans written to {}", trace_path.display());

    let self_s = rec.self_seconds_by_iteration();
    let layer = |name: &str, ids: &[u32]| -> f64 {
        let samples: Vec<f64> = ids
            .iter()
            .map(|id| self_s.get(&(*id, name)).copied().unwrap_or(0.0))
            .collect();
        median(&samples)
    };
    let pass_median = |field: fn(&units::UnitPass) -> f64| -> f64 {
        median(&passes.iter().map(field).collect::<Vec<_>>())
    };
    let fleet_run_seq = layer("platforms.fleet_run", &seq_ids);
    let fleet_run_par = layer("platforms.fleet_run", &par_ids);
    let units_s = pass_median(|p| p.units_s);
    let assemble_s = pass_median(|p| p.bigtable_assemble_s);
    let wall_seq = median(&base_seq);
    let facts = &reference.facts;

    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "platforms.spanner.warmup_s",
            pass_median(|p| p.spanner_warmup_s),
            "s",
        ),
        (
            "platforms.spanner.traffic_s",
            pass_median(|p| p.spanner_real_s - p.spanner_warmup_s),
            "s",
        ),
        (
            "platforms.bigtable.warmup_s",
            pass_median(|p| p.bigtable_warmup_s),
            "s",
        ),
        (
            "platforms.bigtable.traffic_s",
            pass_median(|p| p.bigtable_real_s - p.bigtable_warmup_s),
            "s",
        ),
        ("platforms.bigtable.assemble_s", assemble_s, "s"),
        (
            "platforms.bigtable.tablet_max_s",
            pass_median(|p| p.bigtable_tablet_max_s),
            "s",
        ),
        (
            "platforms.bigquery.load_s",
            pass_median(|p| p.bigquery_load_s),
            "s",
        ),
        (
            "platforms.bigquery.traffic_s",
            pass_median(|p| p.bigquery_real_s - p.bigquery_load_s),
            "s",
        ),
        ("platforms.fleet_run_s", fleet_run_seq, "s"),
        (
            "platforms.host_ns_per_work_item",
            units_s * 1e9 / facts.cpu_work_items.max(1) as f64,
            "ns",
        ),
        ("simcore.pool.units_s", units_s, "s"),
        (
            "simcore.pool.straggler_frac",
            pass_median(|p| p.unit_max_s / p.units_s),
            "ratio",
        ),
        (
            "simcore.pool.idle_frac",
            1.0 - units_s / (args.parallelism as f64 * fleet_run_par),
            "ratio",
        ),
        (
            "simcore.pool.speedup",
            fleet_run_seq / fleet_run_par,
            "ratio",
        ),
        (
            "simcore.pool.overhead_s",
            fleet_run_seq - units_s - assemble_s,
            "s",
        ),
    ];
    let mut layer_sum = units_s + assemble_s;
    for (span, metric) in LAYER_SPANS {
        let seconds = layer(span, &seq_ids);
        layer_sum += seconds;
        metrics.push((metric, seconds, "s"));
    }
    metrics.extend([
        (
            "telemetry.trace_bytes",
            reference.artifacts.trace_json.len() as f64,
            "bytes",
        ),
        (
            "taxes.pprof_bytes",
            reference.artifacts.pprof.len() as f64,
            "bytes",
        ),
        ("profiling.samples", facts.samples as f64, "count"),
        ("profiling.frames", facts.frames as f64, "count"),
        (
            "platforms.queries",
            facts.queries.iter().sum::<usize>() as f64,
            "count",
        ),
        (
            "platforms.cpu_work_items",
            facts.cpu_work_items as f64,
            "count",
        ),
        ("platforms.spans", facts.spans as f64, "count"),
    ]);
    for (name, value) in &facts.counters {
        metrics.push((name, *value as f64, "count"));
    }
    metrics.extend([
        (
            "trace.overhead_frac",
            median(&traced_seq) / wall_seq - 1.0,
            "ratio",
        ),
        ("host.probe_s", host.mean_probe_s(), "s"),
        ("bench.layer_sum_s", layer_sum, "s"),
        ("bench.unattributed_s", wall_seq - layer_sum, "s"),
        (
            "bench.unattributed_frac",
            (wall_seq - layer_sum) / wall_seq,
            "ratio",
        ),
    ]);

    for (name, samples) in [
        ("untraced wall_seq_s", &base_seq),
        ("traced wall_seq_s", &traced_seq),
        ("traced wall_s", &traced_par),
    ] {
        eprintln!("{}", describe(name, "s", samples));
    }
    eprintln!(
        "layer sum {layer_sum:.6} s vs untraced wall_seq_s {wall_seq:.6} s: \
         unattributed {:.6} s ({:+.2}%)",
        wall_seq - layer_sum,
        100.0 * (wall_seq - layer_sum) / wall_seq
    );
    tally.report();
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        extra_problems,
        metrics,
    })
}
