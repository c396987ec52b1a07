//! CLI entry point: `cargo run -p xtask -- audit [--root PATH] [--rule R]…`.
//!
//! Exit status: 0 when the tree is clean, 1 when findings survive, 2 on
//! usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::pragma::RuleKind;

const USAGE: &str = "\
usage: cargo run -p xtask -- audit [--root PATH] [--rule RULE]... [--json]

Static-analysis audit of the workspace. Rules:
  cast         units discipline (raw `as` casts / mixed-unit arithmetic)
  panic        panic-free library code
  citation     paper traceability of public model items
  dep          manifest hygiene (declared deps must be imported)
  determinism  schedule-independence (hash-order iteration, clock/entropy
               reads, float accumulation in merge paths, unstable sorts)
  unsafe       quarantine discipline (`unsafe` only in simd/hw submodules,
               every unsafe block documented with `// SAFETY:`)
  reach        no dead surface (every library `pub` item is named by some
               code besides its definition and its own unit tests)

Options:
  --root PATH   workspace root to audit (default: current directory)
  --rule RULE   run only the named rule (repeatable)
  --json        emit a machine-readable JSON report on stdout
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let Some(command) = iter.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if command != "audit" {
        eprintln!("unknown command `{command}`\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut root = PathBuf::from(".");
    let mut rules: Vec<RuleKind> = Vec::new();
    let mut json = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match iter.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--rule" => match iter.next().map(|r| (r, RuleKind::parse(r))) {
                Some((_, Some(rule))) => rules.push(rule),
                Some((r, None)) => {
                    eprintln!("unknown rule `{r}`\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--rule requires a rule name\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown option `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match xtask::run_audit(&root, &rules) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit failed: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.to_json());
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        println!(
            "audit: {} file(s), {} manifest(s), {} pragma(s) honoured — {} finding(s)",
            report.rust_files,
            report.manifests,
            report.pragmas_honoured,
            report.findings.len(),
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
