//! `hsdp diff`: compares two pprof profiles and gates on share drift.
//!
//! ```sh
//! hsdp diff baseline.pb candidate.pb --threshold 0.01 [--json]
//! ```
//!
//! Both inputs are raw `profile.proto` files (the bundle's `stacks.pb`).
//! Each is decoded and validated, per-category and per-stack CPU shares are
//! recovered from the decoded bytes — so the gate exercises the full encode
//! → decode → compare loop — and the largest movements are printed. The
//! gate fails (exit 1) when any *category* share moved by more than
//! `--threshold` (absolute share, default 0.01 = one percentage point).
//! Stack-level deltas are reported for diagnosis but only gate when
//! `--stack-threshold` is given.
//!
//! The drift math lives in [`hsdp_profiling::history::DriftReport`], shared
//! with `hsdp history`; `--json` emits that report in the machine-readable
//! `xtask audit --json` convention (summary scalars, a `clean` verdict, a
//! `findings` array).

use hsdp_profiling::history::{DriftReport, DriftThresholds};
use hsdp_profiling::stacks::{pprof_category_shares, pprof_stack_shares, ShareDelta};
use hsdp_taxes::pprof::Profile;

use crate::args::{CliError, Flags};

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        "diff",
        args,
        &[
            ("--threshold", true),
            ("--stack-threshold", true),
            ("--json", false),
        ],
        2,
    )?;
    let threshold = share_threshold(&flags, "--threshold")?.unwrap_or(0.01);
    let stack_threshold = share_threshold(&flags, "--stack-threshold")?;
    let baseline = load(&flags, &flags.positional()[0])?;
    let candidate = load(&flags, &flags.positional()[1])?;

    let report = DriftReport::between(
        &pprof_category_shares(&baseline),
        &pprof_category_shares(&candidate),
        &pprof_stack_shares(&baseline),
        &pprof_stack_shares(&candidate),
        DriftThresholds {
            category: threshold,
            stack: stack_threshold,
        },
    );

    if flags.has("--json") {
        print!("{}", report.to_json());
        return if report.clean() {
            Ok(())
        } else {
            Err(CliError::Failed(
                "diff: share drift past the threshold".to_owned(),
            ))
        };
    }

    println!("category share drift (baseline -> candidate):");
    print_deltas(&report.category_deltas, 10);
    println!("stack share drift (top movements):");
    print_deltas(&report.stack_deltas, 10);

    let category_drift = report.max_category_drift();
    let stack_drift = report.max_stack_drift();
    println!(
        "max drift: category {:.4} (threshold {threshold}), stack {:.4}{}",
        category_drift,
        stack_drift,
        stack_threshold.map_or(String::new(), |t| format!(" (threshold {t})")),
    );

    if !report.clean() {
        let mut failures = Vec::new();
        if category_drift > threshold {
            failures.push(format!(
                "category share drift {category_drift:.4} exceeds threshold {threshold}"
            ));
        }
        if let Some(t) = stack_threshold {
            if stack_drift > t {
                failures.push(format!(
                    "stack share drift {stack_drift:.4} exceeds threshold {t}"
                ));
            }
        }
        return Err(CliError::Failed(format!(
            "diff: FAIL: {}",
            failures.join("; ")
        )));
    }
    println!("OK: drift within thresholds");
    Ok(())
}

/// A drift threshold flag, which must be a finite share of at least 0.
/// NaN or infinity would turn the gate off, since no drift exceeds them.
fn share_threshold(flags: &Flags, flag: &str) -> Result<Option<f64>, CliError> {
    match flags.number::<f64>(flag)? {
        Some(t) if !(t.is_finite() && t >= 0.0) => Err(flags.error(format!(
            "{flag} must be a finite share >= 0, not `{}`",
            flags.value(flag).unwrap_or_default()
        ))),
        other => Ok(other),
    }
}

/// Reads, decodes and validates one pprof file.
fn load(flags: &Flags, path: &str) -> Result<Profile, CliError> {
    let bytes = std::fs::read(path).map_err(|e| flags.error(format!("cannot read {path}: {e}")))?;
    let profile = Profile::decode(&bytes)
        .map_err(|e| flags.error(format!("{path}: pprof decode failed: {e}")))?;
    profile
        .validate()
        .map_err(|e| flags.error(format!("{path}: pprof validation failed: {e}")))?;
    Ok(profile)
}

fn print_deltas(deltas: &[ShareDelta], limit: usize) {
    for d in deltas.iter().take(limit) {
        if d.delta() == 0.0 {
            continue;
        }
        println!(
            "  {:+.4}  {:>7.4} -> {:>7.4}  {}",
            d.delta(),
            d.before,
            d.after,
            d.name
        );
    }
}
