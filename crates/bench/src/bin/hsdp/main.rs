//! `hsdp`: every fleet artifact from one instrumented fleet run, plus the
//! history gate, the pprof drift gate, the paper's exhibits and the
//! wall-clock bench. Run `hsdp` with no arguments for the command list.
//!
//! ```sh
//! cargo run --release -p hsdp-bench --bin hsdp -- profile --out /tmp/p1 --parallelism 1
//! cargo run --release -p hsdp-bench --bin hsdp -- profile --out /tmp/p4 --parallelism 4
//! diff -r /tmp/p1 /tmp/p4   # must be empty
//! ```
//!
//! Exit codes: 0 success, 1 a gate or check failed, 2 bad input (an
//! unknown flag, a missing or malformed value, an unreadable file).

mod args;
mod bench;
mod diff;
mod history;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use args::{Accepted, CliError, Flags};
use hsdp_bench::harness::parse_bench_entries;
use hsdp_bench::{exhibits, tail, telemetry_out, FleetRun};
use hsdp_platforms::runner::{default_parallelism, FleetConfig};
use hsdp_profiling::history::{HistoryError, HistoryStore, SnapshotMeta};
use hsdp_simcore::pool::Perturbation;
use hsdp_taxes::dispatch::CpuFeatures;

const USAGE: &str = "\
usage: hsdp <command> [flags]

  profile [fleet flags] [--out DIR] [--commit SHA]
          [--snapshot STORE [--seq N] [--bench FILE]]
      Runs the fleet once, instrumented. With --out, writes the bundle to
      DIR: profile.json metrics.json trace.json critical_path.json
      stacks.folded stacks.pb tail.json; otherwise prints profile.json.
      --snapshot appends the run's profile-history snapshot to STORE.
  summary [fleet flags]
      Prints the tail report and the critical-path attribution tables.
  history check --store STORE
  history report --store STORE [--since COMMIT] [--json]
  history seed-fixture --store STORE [--inject sustained|blip|none]
  diff BASELINE.pb CANDIDATE.pb [--threshold F] [--stack-threshold F] [--json]
  figures [--parallelism N]
  bench [--out FILE] [--commit SHA] [--seq N]

fleet flags: --parallelism N --seed N --perturb N --db-queries N
exit codes: 0 ok, 1 a gate or check failed, 2 bad input
";

/// The fleet flags `profile` and `summary` share.
const FLEET_FLAGS: [Accepted; 4] = [
    ("--parallelism", true),
    ("--seed", true),
    ("--perturb", true),
    ("--db-queries", true),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("hsdp {err}");
            ExitCode::from(err.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Input(format!("needs a command\n{USAGE}")));
    };
    match command.as_str() {
        "profile" => profile(rest),
        "summary" => summary(rest),
        "history" => history::run(rest),
        "diff" => diff::run(rest),
        "figures" => figures(rest),
        "bench" => bench::run(rest),
        other => Err(CliError::Input(format!(
            "has no command `{other}`\n{USAGE}"
        ))),
    }
}

/// `--parallelism`, which must be at least 1.
fn parallelism(flags: &Flags) -> Result<Option<usize>, CliError> {
    match flags.number::<usize>("--parallelism")? {
        Some(0) => Err(flags.error("--parallelism must be at least 1")),
        other => Ok(other),
    }
}

/// The fleet shape `profile` and `summary` run: 120 queries per database
/// platform, 16 analytics queries over 1,500 fact rows, 4 shards.
fn fleet_config(flags: &Flags) -> Result<FleetConfig, CliError> {
    let mut config = FleetConfig {
        db_queries: 120,
        analytics_queries: 16,
        fact_rows: 1_500,
        ..FleetConfig::default()
    };
    if let Some(parallelism) = parallelism(flags)? {
        config.parallelism = parallelism;
    }
    if let Some(seed) = flags.number("--seed")? {
        config.seed = seed;
    }
    // Schedule perturbation: permutes shard dispatch and consumption order.
    // It must never change an artifact.
    if let Some(perturb) = flags.number("--perturb")? {
        config.perturb = Some(Perturbation::new(perturb));
    }
    if let Some(queries) = flags.number("--db-queries")? {
        config.db_queries = queries;
    }
    Ok(config)
}

fn profile(args: &[String]) -> Result<(), CliError> {
    let mut accepted = FLEET_FLAGS.to_vec();
    accepted.extend([
        ("--out", true),
        ("--commit", true),
        ("--snapshot", true),
        ("--seq", true),
        ("--bench", true),
    ]);
    let flags = Flags::parse("profile", args, &accepted, 0)?;
    let config = fleet_config(&flags)?;
    let commit = flags.value("--commit").unwrap_or_default();
    let sequence: u64 = flags.number("--seq")?.unwrap_or(0);
    let snapshot = flags.value("--snapshot");
    if snapshot.is_none() && (flags.has("--seq") || flags.has("--bench")) {
        return Err(flags.error("--seq and --bench need --snapshot"));
    }
    // Read every input before the fleet runs.
    let bench = match flags.value("--bench") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| flags.error(format!("cannot read --bench {path}: {e}")))?;
            hsdp_telemetry::json::validate(&text)
                .map_err(|e| flags.error(format!("--bench {path} is not a bench report: {e}")))?;
            let entries = parse_bench_entries(&text);
            if entries.is_empty() {
                return Err(flags.error(format!("--bench {path} holds no bench entries")));
            }
            entries
        }
        None => BTreeMap::new(),
    };

    let run = FleetRun::new(config);
    match flags.value("--out") {
        Some(dir) => {
            let files = run.bundle(commit).map_err(CliError::Failed)?;
            std::fs::create_dir_all(dir)
                .map_err(|e| flags.error(format!("cannot create --out {dir}: {e}")))?;
            for (name, bytes) in files {
                let path = Path::new(dir).join(name);
                std::fs::write(&path, bytes)
                    .map_err(|e| flags.error(format!("cannot write {}: {e}", path.display())))?;
            }
        }
        None => print!("{}", run.profile_json()),
    }
    if let Some(path) = snapshot {
        let meta = SnapshotMeta {
            commit: commit.to_owned(),
            sequence,
            // audit: allow(cast, hardware thread count fits u64)
            host_parallelism: default_parallelism() as u64,
            cpu_features: CpuFeatures::get().summary(),
        };
        let outcome = HistoryStore::open(path)
            .append(&run.snapshot(meta, bench))
            .map_err(|e| match e {
                HistoryError::Io(e) => {
                    flags.error(format!("cannot append to --snapshot {path}: {e}"))
                }
                other => CliError::Failed(format!("profile: --snapshot {path}: {other}")),
            })?;
        eprintln!(
            "appended snapshot to {path}: {} snapshot(s){}",
            outcome.snapshots,
            if outcome.recovered {
                " [recovered torn tail]"
            } else {
                ""
            },
        );
    }
    Ok(())
}

fn summary(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("summary", args, &FLEET_FLAGS, 0)?;
    let run = FleetRun::new(fleet_config(&flags)?);
    print!("{}", tail::render_text(&run.tail("")));
    println!();
    print!("{}", telemetry_out::render_summary(&run.runs));
    Ok(())
}

fn figures(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse("figures", args, &[("--parallelism", true)], 0)?;
    let mut config = exhibits::bench_fleet_config();
    if let Some(parallelism) = parallelism(&flags)? {
        config.parallelism = parallelism;
    }
    println!("{}", exhibits::table1());
    let runs = hsdp_bench::fleet::profile_fleet(config);
    println!("{}", exhibits::figure2_exhibit(&runs));
    println!("{}", exhibits::figure3_exhibit(&runs));
    println!("{}", exhibits::figure4_exhibit(&runs));
    println!("{}", exhibits::figure5_exhibit(&runs));
    println!("{}", exhibits::figure6_exhibit(&runs));
    println!("{}", exhibits::tables6_7());
    println!("{}", exhibits::figure9());
    println!("{}", exhibits::figure10());
    println!("{}", exhibits::figure13());
    println!("{}", exhibits::figure14());
    println!("{}", exhibits::figure15());
    println!("{}", exhibits::table8(800));
    println!("{}", exhibits::ablation_chain_penalty());
    println!("{}", exhibits::ablation_cache_policy());
    println!("{}", exhibits::ablation_attribution());
    Ok(())
}
