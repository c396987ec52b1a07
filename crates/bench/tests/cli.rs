//! The `hsdp` command line reports bad input with a message naming the
//! flag or path at fault and exit code 2 — never a panic — for every
//! subcommand, and prints usage when the command itself is missing or
//! unknown.

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
