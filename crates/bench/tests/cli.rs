//! The `hsdp` command line reports bad input with a message naming the
//! flag or path at fault and exit code 2 — never a panic — for every
//! subcommand, and prints usage when the command itself is missing or
//! unknown.

use std::path::Path;
use std::process::{Command, Output};

fn hsdp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hsdp"))
        .args(args)
        .output()
        .expect("run hsdp")
}

/// Asserts `args` is rejected as bad input, with `needle` in the message.
fn rejects(args: &[&str], needle: &str) {
    let out = hsdp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "hsdp {args:?}: {stderr}");
    assert!(stderr.contains(needle), "hsdp {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "hsdp {args:?}: {stderr}");
}

/// Every subcommand, with its arguments up to the flags under test.
const COMMANDS: [&[&str]; 8] = [
    &["profile"],
    &["summary"],
    &["history", "check", "--store", "unused.bin"],
    &["history", "report", "--store", "unused.bin"],
    &["history", "seed-fixture", "--store", "unused.bin"],
    &["diff", "a.pb", "b.pb"],
    &["figures"],
    &["bench"],
];

/// `command` followed by `tail`.
fn with<'a>(command: &[&'a str], tail: &[&'a str]) -> Vec<&'a str> {
    [command, tail].concat()
}

#[test]
fn unknown_flags_are_rejected_by_every_subcommand() {
    for command in COMMANDS {
        rejects(&with(command, &["--bogus"]), "--bogus");
    }
}

#[test]
fn missing_values_are_rejected_by_every_subcommand() {
    for (command, flag) in COMMANDS.iter().zip([
        "--out",
        "--seed",
        "--store",
        "--since",
        "--inject",
        "--threshold",
        "--parallelism",
        "--out",
    ]) {
        rejects(&with(command, &[flag]), &format!("{flag} needs a value"));
    }
}

#[test]
fn non_numeric_values_are_rejected() {
    for (command, flag) in [
        (&["profile"][..], "--seed"),
        (&["profile"][..], "--perturb"),
        (&["summary"][..], "--db-queries"),
        (&["diff", "a.pb", "b.pb"][..], "--threshold"),
        (&["diff", "a.pb", "b.pb"][..], "--stack-threshold"),
        (&["figures"][..], "--parallelism"),
        (&["bench"][..], "--seq"),
    ] {
        rejects(&with(command, &[flag, "x"]), flag);
    }
}

#[test]
fn diff_thresholds_that_turn_the_gate_off_are_rejected() {
    // The inputs do not exist, so naming the flag also shows it is checked
    // before any file is read.
    for flag in ["--threshold", "--stack-threshold"] {
        for value in ["nan", "inf", "-1"] {
            rejects(&["diff", "a.pb", "b.pb", flag, value], flag);
        }
    }
}

#[test]
fn zero_parallelism_is_rejected_by_every_subcommand() {
    for command in COMMANDS {
        rejects(&with(command, &["--parallelism", "0"]), "--parallelism");
    }
}

#[test]
fn unreadable_inputs_name_the_path() {
    let missing = std::env::temp_dir().join(format!("hsdp-cli-missing-{}", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    rejects(&["diff", missing, missing], missing);
    rejects(&["history", "check", "--store", missing], missing);
    rejects(&["history", "report", "--store", missing], missing);
    rejects(
        &["profile", "--snapshot", "s.bin", "--bench", missing],
        missing,
    );
}

#[test]
fn bench_files_that_are_not_bench_reports_are_rejected() {
    let dir = std::env::temp_dir().join(format!("hsdp-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("history.bin");
    let store = store.to_str().expect("utf-8 temp path");
    for (name, content) in [("prose.txt", "not json at all\n"), ("empty.json", "{}")] {
        let bench = dir.join(name);
        std::fs::write(&bench, content).expect("write bench file");
        let bench = bench.to_str().expect("utf-8 temp path");
        rejects(
            &["profile", "--snapshot", store, "--bench", bench],
            "--bench",
        );
        assert!(
            !Path::new(store).exists(),
            "{name}: the store is created only after --bench is accepted"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_commands_print_usage() {
    for args in [&[][..], &["frobnicate"][..]] {
        rejects(args, "usage: hsdp <command>");
    }
    rejects(&["history"], "check, report or seed-fixture");
    rejects(&["history", "frobnicate"], "frobnicate");
    rejects(&["diff", "only-one.pb"], "2 argument");
    rejects(&["profile", "--seq", "1"], "--snapshot");
    rejects(
        &[
            "history",
            "seed-fixture",
            "--store",
            "s.bin",
            "--inject",
            "x",
        ],
        "--inject",
    );
}

/// The opening of every exhibit's title line, in the order `hsdp figures`
/// prints them.
const EXHIBITS: [&str; 16] = [
    "Table 1 —",
    "Figure 2 —",
    "Figure 3 —",
    "Figure 4 —",
    "Figure 5 —",
    "Figure 6 —",
    "Tables 6–7 —",
    "Figure 9 —",
    "Figure 10 —",
    "Figure 13 —",
    "Figure 14 —",
    "Figure 15 —",
    "Table 8 —",
    "Ablation — chained penalty",
    "Ablation — cache policy",
    "Ablation — trace attribution",
];

#[test]
fn figures_prints_every_exhibit_once_in_order() {
    let out = hsdp(&["figures"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 exhibits");
    let mut previous = None;
    for title in EXHIBITS {
        let lines: Vec<usize> = stdout
            .lines()
            .enumerate()
            .filter(|(_, line)| line.starts_with(title))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(lines.len(), 1, "`{title}` title lines: {lines:?}");
        assert!(previous < Some(lines[0]), "`{title}` printed out of order");
        previous = Some(lines[0]);
    }
}

#[test]
fn control_characters_in_the_commit_are_escaped() {
    let dir = std::env::temp_dir().join(format!("hsdp-cli-commit-{}", std::process::id()));
    let out = hsdp(&[
        "profile",
        "--db-queries",
        "12",
        "--commit",
        "ab\tc\nd\"e\\",
        "--out",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let tail = std::fs::read_to_string(dir.join("tail.json")).expect("tail.json written");
    std::fs::remove_dir_all(&dir).ok();
    hsdp_telemetry::json::validate(&tail).expect("tail.json is valid JSON");
    assert!(
        tail.contains(r#""commit": "ab\tc\nd\"e\\","#),
        "commit escaped: {tail}"
    );
}
