//! # szhi-cli — the command-line serving layer
//!
//! This crate puts the szhi compressor behind three subcommands:
//!
//! - `encode` streams a raw little-endian f32 field through
//!   [`szhi_core::StreamSink`] into a trailered container, never holding
//!   the uncompressed field in memory;
//! - `decode` reads a container back to raw f32 through one
//!   [`szhi_core::ChunkReader`] — seekable files as a
//!   [`szhi_core::StreamSource`], and `-` off a non-seekable stdin pipe,
//!   which [`szhi_core::ForwardSource`] reads to its end and then reads
//!   like a file — with `--chunk` decoding one chunk on either;
//! - `inspect` dumps the header, chunk table, trailer and mode/config
//!   histograms of any container version without decoding a single
//!   payload byte.
//!
//! The command implementations live in the library (not the binary) so
//! the integration tests and the golden-corpus generator exercise the
//! exact code the `szhi-cli` binary ships. The argument parser is
//! hand-rolled: the build environment is offline and the workspace adds
//! no external dependencies.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod commands;
pub mod golden;
pub mod inspect;
pub mod raw;

use szhi_core::SzhiError;

/// A CLI failure, split by exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself is malformed (unknown flag, missing or
    /// unparsable value). Exit code 2; the usage text is printed.
    Usage(String),
    /// The command was well-formed but failed while running (I/O error,
    /// corrupt stream, bound violation). Exit code 1.
    Runtime(String),
    /// The reader of stdout closed the pipe before the report was fully
    /// written (`szhi-cli inspect … | head -1`). Not a failure: the run ends
    /// quietly with exit code 0.
    StdoutClosed,
}

impl CliError {
    /// The process exit code this error maps to.
    pub(crate) fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
            CliError::StdoutClosed => 0,
        }
    }

    /// The error message (without the `szhi-cli: error:` prefix).
    pub(crate) fn message(&self) -> &str {
        match self {
            CliError::Usage(msg) | CliError::Runtime(msg) => msg,
            CliError::StdoutClosed => "stdout was closed by its reader",
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for CliError {}

impl From<SzhiError> for CliError {
    fn from(e: SzhiError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

/// Runs the CLI on an already-split argument list (`argv` without the
/// program name) and returns the process exit code, printing any error to
/// stderr in the stable `szhi-cli: error: <message>` shape the
/// integration tests assert on.
///
/// The global `--stats`, `--stats-json PATH` and `--trace PATH` flags
/// work with every subcommand: they are split off before subcommand
/// parsing, switch the telemetry collectors on for the run, and emit
/// their outputs after the subcommand finishes (also on failure, so a
/// crashed run still leaves its trace behind).
pub fn run(argv: &[String]) -> i32 {
    let (argv, tel) = match args::split_telemetry(argv) {
        Ok(split) => split,
        Err(e) => return report(&e),
    };
    let cmd = match args::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => return report(&e),
    };
    if tel.any() {
        // Stats feed the summary table and the JSON dump, and give the
        // trace export its final counter values — so they are on for
        // every telemetry mode.
        szhi_telemetry::set_stats_enabled(true);
    }
    if tel.trace.is_some() {
        szhi_telemetry::set_trace_enabled(true);
    }
    let before = szhi_telemetry::Snapshot::capture();
    let result = commands::dispatch(&cmd);
    let emitted = emit_telemetry(&tel, &before);
    match result.and(emitted) {
        Ok(()) => 0,
        Err(e) => report(&e),
    }
}

/// Writes the telemetry outputs requested by the global flags: the
/// `--stats` summary table (stderr, so piped stdout payloads stay
/// clean), the `--stats-json` registry dump, and the `--trace` Chrome
/// Trace Event Format export.
fn emit_telemetry(
    tel: &args::TelemetryArgs,
    before: &szhi_telemetry::Snapshot,
) -> Result<(), CliError> {
    if !tel.any() {
        return Ok(());
    }
    let delta = szhi_telemetry::Snapshot::capture().delta(before);
    if tel.stats {
        eprint!("{}", szhi_telemetry::render_stats(&delta));
    }
    if let Some(path) = &tel.stats_json {
        std::fs::write(path, szhi_telemetry::stats_json(&delta))
            .map_err(|e| CliError::Runtime(format!("writing stats JSON {path}: {e}")))?;
    }
    if let Some(path) = &tel.trace {
        std::fs::write(path, szhi_telemetry::export_trace_json())
            .map_err(|e| CliError::Runtime(format!("writing trace {path}: {e}")))?;
    }
    Ok(())
}

fn report(e: &CliError) -> i32 {
    if matches!(e, CliError::StdoutClosed) {
        return e.exit_code();
    }
    eprintln!("szhi-cli: error: {}", e.message());
    if matches!(e, CliError::Usage(_)) {
        eprintln!();
        eprintln!("{}", args::USAGE);
    }
    e.exit_code()
}
