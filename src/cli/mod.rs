//! The shared layer of the `govdns` subcommands: one argument reader
//! that parses each flag value by its real type, one error type, one
//! stdout writer, and one mapping from a finished run to the process
//! exit status (the EXIT STATUS section of [`USAGE`]).

use std::fmt::{self, Display};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::OnceLock;

use govdns::core::BreakerPolicy;
use govdns::prelude::*;

/// `print!` through [`out`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::out(format_args!($($arg)*))
    };
}

/// `println!` through [`out`].
macro_rules! outln {
    () => {
        $crate::cli::out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub(crate) mod chaos;
pub(crate) mod counterfactual;
pub(crate) mod diff;
pub(crate) mod paper;
pub(crate) mod smell;
pub(crate) mod trace;

const USAGE: &str = "\
govdns — government-DNS measurement pipeline (DSN 2022 reproduction)

USAGE:
    govdns <command> [options]

REPORT COMMANDS (options may come before or after the command):
    audit [--out DIR]     regenerate every table and figure of the paper;
                          --out also writes each table as CSV into DIR
    hijack                list registrable dangling NS domains with prices
                          and the domains they expose
    country <iso2>        one-country health report and PDNS history
    remedies [iso2]       remediation plans for broken domains
    check <zonefile>      lint a zone master file (parse + local checks)

    --scale <f>           fraction of paper scale (default 0.05)
    --seed <n>            world seed (default 42)
    --loss <f>            network packet-loss rate (default 0)
    --workers <n>         probe workers (default 8)

OPERATOR COMMANDS (options follow the command):
    chaos [--seed N] [--profile flaky|congested|hostile] [--scale F] [--breaker]
    resume [--seed N] [--scale F] [--profile NAME] [--breaker] [--journal PATH]
           [--crash-after N] [--resume]
    trace [--seed N] [--workers N] [--scale F] [--sample-ppm N] [--out PATH]
          [--explain DOMAIN] [--prom PATH]
    trace --inspect PATH [--domain NAME] [--dst IPV4] [--class CLASS]
    diff run [--seed N] [--workers N] [--scale F] [--out DIR] [--corpus-dir DIR] [--case NAME]
    diff diff A_DIR B_DIR [--domain NAME] [--only-changed] [--telemetry] [--json] [--gate]
    diff replay CASE.json...
    smell run [--seed N] [--workers N] [--scale F] [--out PATH] [--csv PATH]
              [--smell KIND] [--explain DOMAIN] [--json]
    smell inspect SMELLS.json [--smell KIND] [--explain DOMAIN] [--json]
    counterfactual <rank|run> [--seed N] [--scale F] [--workers N] [--max-per-kind N]
              [--combo] [--partial K/N] [--degrade PPM] [--recovery-window S]
              [--recovery-step S] [--scenario ID] [--journal-dir DIR] [--country CC]
              [--json] [--out PATH] [--csv PATH]

EXIT STATUS:
    0  success
    1  the run finished and found what a caller gates on: hijack exposure,
       zone-lint warnings, diff --gate differences, a replay mismatch,
       --explain without a match, an empty smell pass or scenario sweep
    2  usage or input error: unknown command or flag, bad value,
       unreadable or undecodable file, failed write
";

/// Runs the subcommand `argv` names.
pub(crate) fn run(argv: &[String]) -> Result<Outcome, Error> {
    let rest = Args::new(argv.get(1..).unwrap_or_default().to_vec());
    match argv.first().map(String::as_str) {
        Some("chaos") => chaos::chaos(rest),
        Some("resume") => chaos::resume(rest),
        Some("trace") => trace::run(rest),
        Some("diff") => diff::run(rest),
        Some("smell") => smell::run(rest),
        Some("counterfactual") => counterfactual::run(rest),
        _ => paper::run(argv),
    }
}

/// Why a subcommand stopped before finishing its run (exit 2).
#[derive(Debug)]
pub(crate) enum Error {
    /// The command line is wrong; the usage text follows the message.
    Usage(String),
    /// A file could not be read, decoded or written.
    File(String),
}

/// A usage error.
pub(crate) fn usage(message: impl Into<String>) -> Error {
    Error::Usage(message.into())
}

/// The usage error for a token no subcommand accepts.
pub(crate) fn unknown(arg: &str) -> Error {
    usage(format!("unknown argument {arg:?}"))
}

/// How a subcommand that ran to the end came out.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Nothing the caller gates on (exit 0).
    Clean,
    /// What the caller gates on: differences, a mismatch, exposure, a
    /// lint warning, an empty result (exit 1).
    Finding,
}

impl Outcome {
    /// [`Outcome::Finding`] when `found`.
    pub(crate) fn finding_if(found: bool) -> Self {
        if found {
            Outcome::Finding
        } else {
            Outcome::Clean
        }
    }
}

/// Set by the first stdout write that fails, after which output is
/// dropped: `None` when the reader has gone (a broken pipe), else the
/// error.
static STDOUT_FAILED: OnceLock<Option<String>> = OnceLock::new();

/// Writes to stdout: the one writer behind `out!` and `outln!`. A
/// reader that goes away early (`govdns … | head`) is not an error: the
/// run drops the rest of its output and finishes as it would have. Any
/// other write error is kept for [`exit_code`].
pub(crate) fn out(args: fmt::Arguments) {
    if STDOUT_FAILED.get().is_none() {
        record(io::stdout().lock().write_fmt(args));
    }
}

fn record(written: io::Result<()>) {
    if let Err(e) = written {
        let _ = STDOUT_FAILED.set((e.kind() != io::ErrorKind::BrokenPipe).then(|| e.to_string()));
    }
}

/// Flushes stdout; a file error if a stdout write failed for a reason
/// other than a closed pipe.
fn flush_stdout() -> Result<(), Error> {
    if STDOUT_FAILED.get().is_none() {
        record(io::stdout().lock().flush());
    }
    match STDOUT_FAILED.get() {
        Some(Some(e)) => Err(Error::File(format!("cannot write stdout: {e}"))),
        _ => Ok(()),
    }
}

/// The exit code for a subcommand's result; errors are reported on
/// stderr, usage errors followed by the usage text.
pub(crate) fn exit_code(result: Result<Outcome, Error>) -> ExitCode {
    match result.and_then(|outcome| flush_stdout().map(|()| outcome)) {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Finding) => ExitCode::from(1),
        Err(Error::Usage(message)) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Error::File(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// A subcommand's argument vector, read one token at a time.
pub(crate) struct Args(std::vec::IntoIter<String>);

impl Args {
    /// Reads `argv` (the tokens after the subcommand name).
    pub(crate) fn new(argv: Vec<String>) -> Self {
        Args(argv.into_iter())
    }

    /// The next token, flag or positional.
    pub(crate) fn next(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The raw token after `flag`.
    fn raw(&mut self, flag: &str) -> Result<String, Error> {
        self.0.next().ok_or_else(|| usage(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed as `T`: integers as integers, so a
    /// negative or fractional count is rejected rather than cast.
    pub(crate) fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, Error>
    where
        T::Err: Display,
    {
        let raw = self.raw(flag)?;
        raw.parse().map_err(|e| usage(format!("{flag} {raw:?}: {e}")))
    }

    /// The value after `flag`, parsed by a domain parser that returns
    /// `None` for anything it does not accept; `expected` names what it
    /// accepts.
    pub(crate) fn parsed<T>(
        &mut self,
        flag: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, Error> {
        let raw = self.raw(flag)?;
        parse(&raw).ok_or_else(|| usage(format!("{flag} {raw:?}: expected {expected}")))
    }

    /// `--scale`: a fraction of paper scale, inside the world
    /// generator's `(0, 2]` bound.
    pub(crate) fn scale(&mut self) -> Result<f64, Error> {
        let scale = self.value("--scale")?;
        checked_scale(scale)
    }

    /// `--scale` as the exact parts per million that archives record;
    /// the scale it rounds to must itself be inside `(0, 2]`.
    pub(crate) fn scale_ppm(&mut self) -> Result<u64, Error> {
        let ppm = (self.value::<f64>("--scale")? * 1_000_000.0).round() as u64;
        checked_scale(ppm as f64 / 1_000_000.0)?;
        Ok(ppm)
    }
}

fn checked_scale(scale: f64) -> Result<f64, Error> {
    if scale > 0.0 && scale <= 2.0 {
        Ok(scale)
    } else {
        Err(usage(format!("--scale {scale} outside (0, 2]")))
    }
}

/// Writes `contents` to `path`, or a file error naming the path.
pub(crate) fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), Error> {
    std::fs::write(path, contents)
        .map_err(|e| Error::File(format!("cannot write {}: {e}", path.display())))
}

/// Reads `path` as text, or a file error naming the path.
pub(crate) fn read_to_string(path: &Path) -> Result<String, Error> {
    std::fs::read_to_string(path)
        .map_err(|e| Error::File(format!("cannot read {}: {e}", path.display())))
}

/// Reads a trace file, or a file error naming the path. A file with no
/// intact header frame is no trace, whatever follows.
pub(crate) fn read_trace_file(path: &Path) -> Result<TraceLog, Error> {
    let log = read_trace(path)
        .map_err(|e| Error::File(format!("cannot read trace {}: {e}", path.display())))?;
    if log.header.is_none() {
        return Err(Error::File(format!("{} is not a trace: no header frame", path.display())));
    }
    Ok(log)
}

/// Generates the calibrated world for `seed` at `scale`, its network
/// dropping packets at rate `loss`: the one world every subcommand
/// measures. Only the report commands take `--loss`; the operator
/// commands pass 0.
pub(crate) fn world(seed: u64, scale: f64, loss: f64) -> World {
    WorldGenerator::new(WorldConfig::small(seed).with_scale(scale).with_loss_rate(loss)).generate()
}

/// The worker-count-invariant campaign configuration: flaky chaos, no
/// breakers and an unlimited retry budget. The only signals that vary
/// with the worker count (the shared retry budget, REFUSED burst
/// ordinals, breaker races) are off, so the trace file and every probe
/// outcome are byte-identical at any worker count.
pub(crate) fn invariant_config(seed: u64, workers: usize, trace: TraceSpec) -> RunnerConfig {
    RunnerConfig {
        workers,
        retry: RetryPolicy { per_destination_budget: None, ..RetryPolicy::adaptive() },
        chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed }),
        breaker: BreakerPolicy::none(),
        trace: Some(trace),
        ..RunnerConfig::default()
    }
}

/// A scratch trace path under the temp directory, unique to this
/// process, for runs whose stdout must stay free of file paths.
pub(crate) fn temp_trace(command: &str) -> PathBuf {
    std::env::temp_dir().join(format!("govdns-{command}-{}.trace", std::process::id()))
}
