//! The one argument parser behind every `hsdp` subcommand.
//!
//! Each subcommand declares the flags it accepts; [`Flags::parse`] checks
//! the command line against that list and typed getters convert values.
//! Nothing here panics: every problem becomes a [`CliError`] naming the
//! flag or path at fault, and `main` turns it into a message and an exit
//! code.

use std::fmt;
use std::str::FromStr;

/// Why a subcommand did not succeed.
#[derive(Debug)]
pub enum CliError {
    /// Bad input: an unknown flag, a missing or malformed value, an
    /// unreadable input or unwritable output. Exit code 2.
    Input(String),
    /// A gate or check ran and failed. Exit code 1.
    Failed(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Input(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Input(message) | CliError::Failed(message) => f.write_str(message),
        }
    }
}

/// A flag a subcommand accepts, and whether it takes a value.
pub type Accepted = (&'static str, bool);

/// One subcommand's parsed command line.
#[derive(Debug)]
pub struct Flags {
    command: &'static str,
    values: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args` for `command`, which accepts `accepted` flags and
    /// exactly `positional` bare arguments. A later repeat of a flag wins.
    pub fn parse(
        command: &'static str,
        args: &[String],
        accepted: &[Accepted],
        positional: usize,
    ) -> Result<Flags, CliError> {
        let mut flags = Flags {
            command,
            values: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                flags.positional.push(arg.clone());
                continue;
            }
            let Some(&(name, takes_value)) = accepted.iter().find(|(name, _)| name == arg) else {
                return Err(CliError::Input(format!(
                    "{command}: unknown flag `{arg}` (accepted: {})",
                    accepted
                        .iter()
                        .map(|(name, _)| *name)
                        .collect::<Vec<_>>()
                        .join(" ")
                )));
            };
            let value = if takes_value {
                match it.next_if(|next| !next.starts_with("--")) {
                    Some(value) => Some(value.clone()),
                    None => {
                        return Err(CliError::Input(format!("{command}: {name} needs a value")))
                    }
                }
            } else {
                None
            };
            flags.values.retain(|(seen, _)| *seen != name);
            flags.values.push((name, value));
        }
        if flags.positional.len() != positional {
            return Err(CliError::Input(match flags.positional.get(positional) {
                Some(extra) => format!("{command}: unexpected argument `{extra}`"),
                None => format!(
                    "{command}: expected {positional} argument(s), got {}",
                    flags.positional.len()
                ),
            }));
        }
        Ok(flags)
    }

    /// The bare arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// True when `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values.iter().any(|(name, _)| *name == flag)
    }

    /// The value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The value given for `flag`, which must be present.
    pub fn required(&self, flag: &str) -> Result<&str, CliError> {
        self.value(flag)
            .ok_or_else(|| CliError::Input(format!("{}: {flag} is required", self.command)))
    }

    /// The value given for `flag`, parsed as a number.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|value| {
                value.parse().map_err(|_| {
                    CliError::Input(format!(
                        "{}: {flag} takes a number, not `{value}`",
                        self.command
                    ))
                })
            })
            .transpose()
    }

    /// A bad-input error for this subcommand.
    pub fn error(&self, message: impl fmt::Display) -> CliError {
        CliError::Input(format!("{}: {message}", self.command))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: [Accepted; 3] = [("--seed", true), ("--out", true), ("--json", false)];

    fn parse(args: &[&str], positional: usize) -> Result<Flags, CliError> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        Flags::parse("test", &args, &ACCEPTED, positional)
    }

    #[test]
    fn values_switches_and_positionals() {
        let flags = parse(&["a.pb", "--seed", "7", "--json", "b.pb"], 2).expect("valid");
        assert_eq!(flags.number::<u64>("--seed").expect("number"), Some(7));
        assert!(flags.has("--json"));
        assert_eq!(flags.value("--out"), None);
        assert_eq!(flags.positional(), ["a.pb", "b.pb"]);
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let flags = parse(&["--seed", "1", "--seed", "2"], 0).expect("valid");
        assert_eq!(flags.number::<u64>("--seed").expect("number"), Some(2));
    }

    #[test]
    fn bad_input_names_the_flag() {
        for (args, needle) in [
            (&["--bogus"][..], "--bogus"),
            (&["--seed"][..], "--seed needs a value"),
            (&["--seed", "--json"][..], "--seed needs a value"),
            (&["extra"][..], "`extra`"),
        ] {
            let err = parse(args, 0).expect_err("invalid");
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains(needle), "{err}");
        }
        let flags = parse(&["--seed", "x"], 0).expect("parses");
        let err = flags.number::<u64>("--seed").expect_err("not a number");
        assert!(err.to_string().contains("--seed"), "{err}");
        assert!(flags.required("--out").is_err());
    }
}
