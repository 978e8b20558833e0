//! The one command line of every `lax-bench` binary.
//!
//! A binary builds one [`Cli`] ([`Cli::from_env`] is the only reader of
//! the process arguments), takes each flag it knows out of it —
//! [`Cli::value`] / [`Cli::parse`] for `--flag VALUE`, [`Cli::flag`] for a
//! bare `--flag`, [`Cli::jobs`] for the worker count — and ends with
//! [`Cli::positionals`], which returns what is left. Every misuse is a
//! typed [`CliError`] naming the flag or token, and the binary exits
//! non-zero with it: nothing is warned about and then ignored. Binaries
//! read their whole command line before they touch a file, so a bad one
//! writes nothing.
//!
//! Flags are spelt only as `--flag VALUE`: a value never starts with `--`,
//! so a flag is never mistaken for the value of the one before it.

use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;

/// The arguments a binary has not taken yet, in order.
#[derive(Debug, Clone)]
pub struct Cli {
    args: Vec<String>,
}

/// A command line the binary cannot run: each variant names the flag or
/// token at fault. Its `Debug` form is its message, which is what a
/// binary's `main` prints when it returns one.
#[derive(Clone, PartialEq, Eq)]
pub enum CliError {
    /// A value flag is last, or the token after it starts with `--`.
    MissingValue(String),
    /// A flag's value does not parse or is out of range.
    BadValue {
        /// The flag.
        flag: String,
        /// The value as given.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A flag given more than once.
    Repeated(String),
    /// A `-`-prefixed token that no reader took.
    UnknownFlag(String),
    /// Positional arguments the binary does not take: unknown names, or
    /// the wrong number of them (then `got` is every positional given).
    BadPositionals {
        /// The offending positionals.
        got: Vec<String>,
        /// What the binary takes instead.
        want: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "`{flag}` is missing its value"),
            CliError::BadValue { flag, value, reason } => {
                write!(f, "bad value `{value}` for `{flag}`: {reason}")
            }
            CliError::Repeated(flag) => write!(f, "`{flag}` is given more than once"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::BadPositionals { got, want } if got.is_empty() => {
                write!(f, "missing arguments: want {want}")
            }
            CliError::BadPositionals { got, want } => {
                write!(f, "unexpected argument(s) `{}`: want {want}", got.join(" "))
            }
        }
    }
}

impl fmt::Debug for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// A command line of `args`, the program name excluded.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        Cli { args: args.into_iter().map(Into::into).collect() }
    }

    /// The process's command line.
    pub fn from_env() -> Self {
        Cli::new(std::env::args().skip(1))
    }

    /// Where `flag` stands, if it is given once; [`CliError::Repeated`] if
    /// it is given more than once.
    fn find(&self, flag: &str) -> Result<Option<usize>, CliError> {
        let mut at = self.args.iter().enumerate().filter(|(_, a)| *a == flag).map(|(i, _)| i);
        match (at.next(), at.next()) {
            (_, Some(_)) => Err(CliError::Repeated(flag.to_string())),
            (first, None) => Ok(first),
        }
    }

    /// Takes `flag` and the value after it.
    ///
    /// # Errors
    ///
    /// [`CliError::Repeated`], or [`CliError::MissingValue`] if nothing
    /// follows the flag or the next token starts with `--`.
    pub fn value(&mut self, flag: &str) -> Result<Option<String>, CliError> {
        let Some(at) = self.find(flag)? else { return Ok(None) };
        match self.args.get(at + 1) {
            Some(v) if !v.starts_with("--") => {
                let value = self.args.remove(at + 1);
                self.args.remove(at);
                Ok(Some(value))
            }
            _ => Err(CliError::MissingValue(flag.to_string())),
        }
    }

    /// Takes `flag` and parses the value after it.
    ///
    /// # Errors
    ///
    /// As [`Cli::value`], or [`CliError::BadValue`] if the value does not
    /// parse.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        let Some(value) = self.value(flag)? else { return Ok(None) };
        match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(e) => {
                Err(CliError::BadValue { flag: flag.to_string(), value, reason: e.to_string() })
            }
        }
    }

    /// Takes the bare `flag`, returning whether it was given.
    ///
    /// # Errors
    ///
    /// [`CliError::Repeated`].
    pub fn flag(&mut self, flag: &str) -> Result<bool, CliError> {
        let at = self.find(flag)?;
        if let Some(at) = at {
            self.args.remove(at);
        }
        Ok(at.is_some())
    }

    /// Takes `--jobs N`, the worker-thread count, falling back to
    /// [`default_jobs`].
    ///
    /// # Errors
    ///
    /// As [`Cli::parse`]; `0` is a bad value.
    pub fn jobs(&mut self) -> Result<usize, CliError> {
        Ok(self.parse::<NonZeroUsize>("--jobs")?.map_or_else(default_jobs, NonZeroUsize::get))
    }

    /// The arguments left once every flag is taken.
    ///
    /// # Errors
    ///
    /// [`CliError::UnknownFlag`] for the first leftover token that starts
    /// with `-`.
    pub fn positionals(self) -> Result<Vec<String>, CliError> {
        match self.args.iter().find(|a| a.starts_with('-')) {
            Some(flag) => Err(CliError::UnknownFlag(flag.clone())),
            None => Ok(self.args),
        }
    }
}

/// Worker-thread count used when a binary gets no `--jobs` flag: the
/// `LAX_BENCH_JOBS` environment variable if set and positive, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_jobs() -> usize {
    std::env::var("LAX_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::knobs_from_cli;
    use crate::figures::select_artifacts;
    use sim_core::rng::SimRng;

    /// A fleet binary's reader (`cluster`'s flags), summarised.
    fn fleet(cli: &mut Cli) -> Result<String, CliError> {
        let jobs = cli.jobs()?;
        let out = cli.value("--out")?;
        let smoke = cli.flag("--smoke")?;
        let knobs = knobs_from_cli(cli)?;
        let rest = cli.clone().positionals()?;
        let key = rest.first().map(|c| knobs(c.parse().unwrap()).to_string());
        Ok(format!("jobs {jobs} out {out:?} smoke {smoke} rest {rest:?} key {key:?}"))
    }

    /// `all`'s reader, summarised.
    fn all(cli: &mut Cli) -> Result<String, CliError> {
        let jobs = cli.jobs()?;
        let resume = cli.flag("--resume")?;
        let artifacts = select_artifacts(&cli.clone().positionals()?)?;
        Ok(format!("jobs {jobs} resume {resume} {artifacts:?}"))
    }

    /// A table of command lines, each read as `cluster` or `all` reads
    /// it: what it reads, or the error that names its culprit. A missing
    /// value, a misspelt or repeated flag, a bad worker count and an
    /// unknown artifact each fail; none is read another way.
    #[test]
    fn every_misread_command_line_is_a_typed_error() {
        type Reader = fn(&mut Cli) -> Result<String, CliError>;
        let cell = "LL:HYBRID:high:d4:j8:s1";
        let rows: &[(&[&str], Reader, Result<&str, &str>)] = &[
            // `cluster --smoke --out` wrote the smoke table to the default path.
            (&["--smoke", "--out"], fleet, Err("`--out` is missing its value")),
            (&["--out", "--smoke"], fleet, Err("`--out` is missing its value")),
            // `all --resum` deleted the checkpoint and restarted the evaluation.
            (&["--resum"], all, Err("unknown flag `--resum`")),
            (&["--jbos", "1"], all, Err("unknown flag `--jbos`")),
            (
                &["--jobs", "0"],
                all,
                Err("bad value `0` for `--jobs`: number would be zero for non-zero type"),
            ),
            (
                &["--jobs", "x"],
                all,
                Err("bad value `x` for `--jobs`: invalid digit found in string"),
            ),
            (&["-j", "2"], all, Err("unknown flag `-j`")),
            (&["--jobs=5"], all, Err("unknown flag `--jobs=5`")),
            (&["--jobs", "--verbose"], all, Err("`--jobs` is missing its value")),
            (&["-j"], fleet, Err("unknown flag `-j`")),
            (&["-j", "-j", "2"], fleet, Err("unknown flag `-j`")),
            (
                &["--out", "a.txt", cell, "--smoke", "--out", "b.txt", "--smoke"],
                fleet,
                Err("`--out` is given more than once"),
            ),
            (&["--smoke", "--smoke"], fleet, Err("`--smoke` is given more than once")),
            (&[cell, "--out"], fleet, Err("`--out` is missing its value")),
            (&["--slots", "x"], fleet, Err("bad value `x` for `--slots`: invalid digit found")),
            (
                &["--backoff-us", "18446744073709551615"],
                fleet,
                Err("bad value `18446744073709551615` for `--backoff-us`: at most 122978293"),
            ),
            (
                &["fig99"],
                all,
                Err("unexpected argument(s) `fig99`: want artifact names among table1 fig1 fig7 \
                     fig8 fig9 table5 fig6 fig10 fig4"),
            ),
            (&["fig8", "32"], all, Err("unexpected argument(s) `32`: want artifact names")),
            // Well-formed lines read as written.
            (
                &["--jobs", "3", cell, "--out", "a.txt", "--jitter", "-0.5"],
                fleet,
                Ok("jobs 3 out Some(\"a.txt\") smoke false rest [\"LL:HYBRID:high:d4:j8:s1\"] \
                    key Some(\"LL:HYBRID:high:d4:j8:s1 --jitter -0.5\")"),
            ),
            (
                &["table5", "fig8", "--jobs", "2"],
                all,
                Ok(r#"jobs 2 resume false ["fig8", "table5"]"#),
            ),
            (
                &["--resume", "--jobs", "1"],
                all,
                Ok("jobs 1 resume true [\"table1\", \"fig1\", \"fig7\", \"fig8\", \"fig9\", \
                    \"table5\", \"fig6\", \"fig10\", \"fig4\"]"),
            ),
        ];
        for (argv, read, want) in rows {
            let got = read(&mut Cli::new(argv.iter().copied())).map_err(|e| e.to_string());
            match (got, want) {
                (Ok(got), Ok(want)) => assert_eq!(&got, want, "{argv:?}"),
                (Err(got), Err(want)) => assert!(got.starts_with(want), "{argv:?}: {got}"),
                (got, want) => panic!("{argv:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    /// Every flag, value and typo of the binaries' command lines.
    const VOCABULARY: &[&str] = &[
        "--jobs",
        "--resume",
        "--smoke",
        "--out",
        "--ckpt",
        "--check",
        "--scenario-file",
        "--fidelity",
        "--scheduler",
        "--slots",
        "--jitter",
        "--retry-budget",
        "--backoff-us",
        "--shed",
        "--csv",
        "--series-json",
        "--window-us",
        "--watch",
        "--floor",
        "4",
        "0",
        "x",
        "-1",
        "0.5",
        "1e99",
        "a.txt",
        "fast",
        "detailed",
        "RR",
        "LAX",
        "18446744073709551615",
        "LL:HYBRID:high:d4:j2000:s7:f1",
        "RR:IPV6:low:j8:s1",
        "fig8",
        "table5",
        "fig99",
        "32",
        "--resum",
        "--jbos",
        "-j",
        "--jobs=2",
        "--out=",
        "-",
        "--",
        "",
    ];

    /// The value flags a fuzzed line is read for, besides the knobs.
    const VALUES: &[&str] = &[
        "--out",
        "--ckpt",
        "--scenario-file",
        "--csv",
        "--series-json",
        "--window-us",
        "--watch",
        "--floor",
    ];

    /// One seeded mutation of an argument list: a truncation, a byte flip
    /// in one token, or a vocabulary token spliced in.
    fn mutate(argv: &mut Vec<String>, rng: &mut SimRng) {
        match rng.below(3) {
            0 => argv.truncate(rng.below(argv.len() as u64 + 1) as usize),
            1 if !argv.is_empty() => {
                let at = rng.below(argv.len() as u64) as usize;
                let token = &mut argv[at];
                let mut bytes = std::mem::take(token).into_bytes();
                if !bytes.is_empty() {
                    let i = rng.below(bytes.len() as u64) as usize;
                    bytes[i] ^= 1 << rng.below(8);
                }
                *token = String::from_utf8_lossy(&bytes).into_owned();
            }
            _ => {
                let token = VOCABULARY[rng.below(VOCABULARY.len() as u64) as usize];
                let at = rng.below(argv.len() as u64 + 1) as usize;
                argv.insert(at, token.to_string());
            }
        }
    }

    /// Fuzzed command lines never panic the reader; each error names a
    /// token of the line, and each value read is the token after its flag.
    #[test]
    fn fuzzed_command_lines_fail_typed_or_read_exactly() {
        let mut rng = SimRng::seed_from(0xc11);
        let mut accepted = 0;
        for round in 0..4000 {
            let mut argv: Vec<String> = Vec::new();
            for _ in 0..=round % 6 {
                mutate(&mut argv, &mut rng);
            }
            let mut cli = Cli::new(argv.clone());
            let read = (|| {
                let jobs = cli.parse::<usize>("--jobs")?;
                let values: Vec<_> = VALUES
                    .iter()
                    .map(|f| cli.value(f).map(|v| (*f, v)))
                    .collect::<Result<_, _>>()?;
                for flag in ["--resume", "--smoke", "--check"] {
                    cli.flag(flag)?;
                }
                let knobs = knobs_from_cli(&mut cli)?;
                cli.clone().positionals()?;
                let key = knobs("LL:HYBRID:high:d4:j8:s1".parse().unwrap()).to_string();
                Ok::<_, CliError>((jobs, values, key))
            })();
            let after = |flag: &str| {
                let at = argv.iter().position(|a| a == flag).expect("a read flag is in the line");
                argv[at + 1].clone()
            };
            match read {
                Ok((jobs, values, key)) => {
                    accepted += 1;
                    if let Some(n) = jobs {
                        assert_eq!(after("--jobs").parse(), Ok(n), "{argv:?}");
                    }
                    if argv.iter().any(|a| a == "--scheduler") && after("--scheduler") != "LAX" {
                        let named = format!(" --scheduler {} ", after("--scheduler"));
                        assert!(format!("{key} ").contains(&named), "{argv:?}: {key}");
                    }
                    for (flag, value) in values {
                        if let Some(value) = value {
                            assert_eq!(value, after(flag), "{argv:?}");
                        }
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        argv.iter().any(|t| !t.is_empty() && msg.contains(&format!("`{t}`"))),
                        "{argv:?}: {msg}"
                    );
                }
            }
        }
        // The mutator must leave some lines valid, or the exact-read half
        // of the test checks nothing.
        assert!(accepted > 200, "{accepted} accepted");
    }
}
