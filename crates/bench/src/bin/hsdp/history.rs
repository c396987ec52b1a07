//! `hsdp history`: continuous profiling over the repo's own history —
//! check and report on the per-commit profile snapshot store.
//!
//! ```sh
//! # Take this commit's snapshot (one instrumented fleet run) and append it.
//! hsdp profile --snapshot history.bin --commit $(git rev-parse HEAD) --seq 42
//!
//! # Top regressed stacks/categories since a commit.
//! hsdp history report --store history.bin --since <commit> [--json]
//!
//! # Gate: exit 1 on sustained share drift (K consecutive flagged
//! # snapshots past the robust z-threshold — a single blip passes).
//! hsdp history check --store history.bin
//! ```
//!
//! The store is an append-only file of CRC32C-checked, length-prefixed
//! protowire frames (`hsdp_taxes::framed`); appends transparently recover
//! from a torn tail by truncating to the last intact frame. `seed-fixture`
//! writes a deterministic synthetic multi-commit history (optionally with
//! an injected sustained regression or a single-snapshot blip) so CI can
//! exercise the gate without profiling dozens of real commits.
//!
//! Exit codes: 0 healthy, 1 sustained drift or a damaged store, 2 bad input
//! or an unreadable store.

use hsdp_profiling::history::{
    detect_anomalies, regressions_since, AnomalyConfig, HistoryError, HistoryStore,
    ProfileSnapshot, SnapshotMeta,
};
use hsdp_rng::{Rng, StdRng};

use crate::args::{CliError, Flags};

/// Regressed keys `report` lists.
const REPORT_TOP: usize = 10;

/// Snapshots a seeded fixture history holds.
const FIXTURE_SNAPSHOTS: usize = 20;

/// Seed of the fixture history's jitter.
const FIXTURE_SEED: u64 = 0x415707;

pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Input(
            "history: needs check, report or seed-fixture".to_owned(),
        ));
    };
    match command.as_str() {
        "check" => check(&Flags::parse(
            "history check",
            rest,
            &[("--store", true)],
            0,
        )?),
        "report" => report(&Flags::parse(
            "history report",
            rest,
            &[("--store", true), ("--since", true), ("--json", false)],
            0,
        )?),
        "seed-fixture" => seed_fixture(&Flags::parse(
            "history seed-fixture",
            rest,
            &[("--store", true), ("--inject", true)],
            0,
        )?),
        other => Err(CliError::Input(format!(
            "history: no subcommand `{other}` (check, report, seed-fixture)"
        ))),
    }
}

/// Loads the whole store: an unreadable file is bad input, a damaged one a
/// failed check.
fn load(flags: &Flags) -> Result<Vec<ProfileSnapshot>, CliError> {
    let path = flags.required("--store")?;
    HistoryStore::open(path).load().map_err(|e| match e {
        HistoryError::Io(e) => flags.error(format!("cannot read --store {path}: {e}")),
        other => CliError::Failed(format!("history: store {path} is damaged: {other}")),
    })
}

fn check(flags: &Flags) -> Result<(), CliError> {
    let snapshots = load(flags)?;
    let config = AnomalyConfig::default();
    let drifts = detect_anomalies(&snapshots, &config);
    println!(
        "history check: {} snapshot(s), window {}, z {}, sustained {}",
        snapshots.len(),
        config.window,
        config.z_threshold,
        config.sustained,
    );
    if drifts.is_empty() {
        println!("no sustained drift");
        return Ok(());
    }
    for d in &drifts {
        let commit = snapshots
            .get(d.start)
            .map_or("?", |s| s.meta.commit.as_str());
        println!(
            "SUSTAINED DRIFT {} {:+.4} over {} consecutive snapshot(s) starting at {} \
             (index {})",
            d.key, d.last_delta, d.run, commit, d.start,
        );
    }
    Err(CliError::Failed(format!(
        "history check: {} sustained drift(s)",
        drifts.len()
    )))
}

fn report(flags: &Flags) -> Result<(), CliError> {
    let snapshots = load(flags)?;
    let since = flags.value("--since");
    let report = regressions_since(&snapshots, since).ok_or_else(|| {
        flags.error(match since {
            Some(commit) => format!("--since: commit `{commit}` is not in the history"),
            None => "the history is empty".to_owned(),
        })
    })?;
    if flags.has("--json") {
        print!("{}", report.to_json(REPORT_TOP));
    } else {
        print!("{}", report.render_text(REPORT_TOP));
    }
    Ok(())
}

/// Writes a deterministic synthetic history: a protobuf-tax share hovering
/// around 25% of 1s of fleet CPU with small seeded jitter, plus an optional
/// injected +5% regression — sustained over the last 6 snapshots, or a
/// single-snapshot blip.
fn seed_fixture(flags: &Flags) -> Result<(), CliError> {
    let store = HistoryStore::open(flags.required("--store")?);
    let inject = flags.value("--inject").unwrap_or("none");
    let n = FIXTURE_SNAPSHOTS;
    let shifted: fn(usize, usize) -> bool = match inject {
        "sustained" => |i, n| i + 6 >= n,
        "blip" => |i, n| i + 6 == n,
        "none" => |_, _| false,
        other => {
            return Err(flags.error(format!(
                "--inject takes sustained, blip or none, not `{other}`"
            )))
        }
    };
    if store.path().exists() {
        std::fs::remove_file(store.path())
            .map_err(|e| flags.error(format!("cannot replace {}: {e}", store.path().display())))?;
    }
    let mut rng = StdRng::seed_from_u64(FIXTURE_SEED);
    const TOTAL_NS: u64 = 1_000_000_000;
    const SHIFT_NS: u64 = 50_000_000; // +5% share
    for i in 0..n {
        let jitter = rng.random_range(0u64..4_000_000); // up to 0.4% share
        let mut proto_ns = TOTAL_NS / 4 + jitter;
        if shifted(i, n) {
            proto_ns += SHIFT_NS;
        }
        let other_ns = TOTAL_NS - proto_ns;
        let mut snapshot = ProfileSnapshot {
            meta: SnapshotMeta {
                commit: format!("fixture{i:04}"),
                // audit: allow(cast, fixture index fits u64)
                sequence: i as u64,
                host_parallelism: 1,
                cpu_features: "fixture".to_owned(),
            },
            total_exact_ns: TOTAL_NS,
            total_samples: 500_000,
            ..ProfileSnapshot::default()
        };
        snapshot
            .categories
            .insert("dc.protobuf".to_owned(), proto_ns);
        snapshot.categories.insert("core.read".to_owned(), other_ns);
        snapshot
            .stacks
            .insert("spanner.commit;rpc;proto_encode".to_owned(), proto_ns);
        snapshot
            .stacks
            .insert("spanner.commit;storage;read".to_owned(), other_ns);
        store.append(&snapshot).map_err(|e| {
            flags.error(format!("cannot append to {}: {e}", store.path().display()))
        })?;
    }
    println!(
        "seeded {} with {n} snapshot(s), inject={inject}",
        store.path().display(),
    );
    Ok(())
}
