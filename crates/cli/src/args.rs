//! Hand-rolled argument parsing for the three subcommands.
//!
//! Flags accept both `--flag value` and `--flag=value`. Every parse
//! failure is a [`CliError::Usage`] (exit code 2) carrying a message that
//! names the offending token, followed by the usage text on stderr.

use crate::CliError;
use szhi_core::{ModeTuning, SzhiConfig};
use szhi_ndgrid::Dims;

/// The usage text printed after every usage error and by `--help`.
pub(crate) const USAGE: &str = "usage: szhi-cli <subcommand> [options]

subcommands:
  encode <input> <output|-> --dims Z,Y,X --eb F [options]
      Compress a raw little-endian f32 file into a trailered container.
      --dims Z,Y,X        field shape (required)
      --eb F              error bound (required; absolute unless --rel)
      --rel               treat --eb as value-range-relative
      --chunk-span Z,Y,X  chunk span (default 64,64,64)
      --mode M            global | per-chunk | exhaustive | estimated
      --tune-interp       per-chunk interpolation tuning (v5 container)
      --threads N         worker threads for this run (N >= 1)

  decode <input|-> <output|-> [--chunk I]
      Decompress a container back to raw little-endian f32. `-` as input
      reads a non-seekable pipe (stdin) to its end, then decodes it;
      --chunk I extracts one chunk (chunk-local row-major order).

  inspect <input>
      Print header, chunk table, trailer and mode/config histograms
      without decoding any chunk payload.

global options (accepted by every subcommand):
  --stats             print a telemetry summary table to stderr on exit
  --stats-json PATH   write every counter and histogram to PATH as JSON
  --trace PATH        write a chrome://tracing-compatible trace to PATH

exit codes: 0 success, 1 runtime failure, 2 usage error";

/// Pipeline-mode tuning policy named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeArg {
    /// One global pipeline for every chunk.
    Global,
    /// Per-chunk choice between the CR and TP production pipelines.
    PerChunk,
    /// Exhaustive trial-encoding over the Figure-6 catalogue.
    Exhaustive,
    /// Cost-model-guided selection over the Figure-6 catalogue.
    Estimated,
}

impl ModeArg {
    /// The [`ModeTuning`] policy this flag value selects.
    pub(crate) fn tuning(&self) -> ModeTuning {
        match self {
            ModeArg::Global => ModeTuning::Global,
            ModeArg::PerChunk => ModeTuning::PerChunk,
            ModeArg::Exhaustive => ModeTuning::exhaustive(),
            ModeArg::Estimated => ModeTuning::estimated(),
        }
    }

    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "global" => Ok(ModeArg::Global),
            "per-chunk" => Ok(ModeArg::PerChunk),
            "exhaustive" => Ok(ModeArg::Exhaustive),
            "estimated" => Ok(ModeArg::Estimated),
            _ => Err(usage(format!(
                "unknown --mode '{s}' (expected global, per-chunk, exhaustive or estimated)"
            ))),
        }
    }
}

/// Parsed `encode` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeArgs {
    /// Raw f32 input file.
    pub input: String,
    /// Output path, or `-` for stdout.
    pub output: String,
    /// Field shape.
    pub dims: Dims,
    /// Error bound value (`--eb`).
    pub eb: f64,
    /// Whether `--eb` is value-range-relative.
    pub rel: bool,
    /// Chunk span.
    pub chunk_span: [usize; 3],
    /// Pipeline-mode tuning policy.
    pub mode: ModeArg,
    /// Per-chunk interpolation tuning (emits the v5 container).
    pub tune_interp: bool,
    /// Worker-thread override.
    pub threads: Option<usize>,
}

/// Parsed `decode` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeArgs {
    /// Container path, or `-` for stdin (read to its end, then decoded).
    pub input: String,
    /// Raw f32 output path, or `-` for stdout.
    pub output: String,
    /// Decode only this chunk index.
    pub chunk: Option<usize>,
}

/// Parsed `inspect` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InspectArgs {
    /// Container path.
    pub input: String,
}

/// The global telemetry outputs requested on the command line. These
/// flags are accepted anywhere on the line, for every subcommand, and
/// stripped before subcommand parsing (see [`split_telemetry`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TelemetryArgs {
    /// `--stats`: print a summary table to stderr after the run.
    pub stats: bool,
    /// `--stats-json PATH`: write every counter and histogram to `PATH`
    /// as JSON.
    pub stats_json: Option<String>,
    /// `--trace PATH`: write the span trace to `PATH` in the Trace Event
    /// Format that `chrome://tracing` and Perfetto load.
    pub trace: Option<String>,
}

impl TelemetryArgs {
    /// Whether stats collection must be enabled for this run.
    pub(crate) fn wants_stats(&self) -> bool {
        self.stats || self.stats_json.is_some()
    }

    /// Whether any telemetry output was requested at all.
    pub(crate) fn any(&self) -> bool {
        self.wants_stats() || self.trace.is_some()
    }
}

/// Strips the global telemetry flags (`--stats`, `--stats-json PATH`,
/// `--trace PATH`, inline `=` values included) out of `argv` and returns
/// the remaining tokens plus the parsed [`TelemetryArgs`].
pub(crate) fn split_telemetry(argv: &[String]) -> Result<(Vec<String>, TelemetryArgs), CliError> {
    // szhi-analyzer: allow(capped-alloc) -- sized by the argument list already in memory
    let mut rest: Vec<String> = Vec::with_capacity(argv.len());
    let mut tel = TelemetryArgs::default();
    let mut i = 0usize;
    while let Some(tok) = argv.get(i) {
        i += 1;
        let (name, inline) = split_inline(tok);
        let path_value = |inline: Option<&str>, i: &mut usize| -> Result<String, CliError> {
            if let Some(v) = inline {
                return Ok(v.to_string());
            }
            let v = argv
                .get(*i)
                .ok_or_else(|| usage(format!("flag {name} requires a value")))?;
            *i += 1;
            Ok(v.clone())
        };
        match name {
            "--stats" if inline.is_none() => tel.stats = true,
            "--stats-json" => tel.stats_json = Some(path_value(inline, &mut i)?),
            "--trace" => tel.trace = Some(path_value(inline, &mut i)?),
            _ => rest.push(tok.clone()),
        }
    }
    Ok((rest, tel))
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `szhi-cli encode …`
    Encode(EncodeArgs),
    /// `szhi-cli decode …`
    Decode(DecodeArgs),
    /// `szhi-cli inspect …`
    Inspect(InspectArgs),
}

fn usage(msg: String) -> CliError {
    CliError::Usage(msg)
}

/// Splits `argv` into `(positionals, flags)` where each flag is
/// `(name, Option<inline value>)` — `--flag=v` carries its value inline,
/// `--flag v` leaves it to the consumer to pull from the token stream.
struct Tokens<'a> {
    argv: &'a [String],
    next: usize,
}

impl<'a> Tokens<'a> {
    fn new(argv: &'a [String]) -> Self {
        Tokens { argv, next: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let tok = self.argv.get(self.next)?;
        self.next += 1;
        Some(tok.as_str())
    }

    /// The value of a flag: the inline `=value` part if present, else the
    /// next token.
    fn value(&mut self, flag: &str, inline: Option<&'a str>) -> Result<&'a str, CliError> {
        if let Some(v) = inline {
            return Ok(v);
        }
        self.next()
            .ok_or_else(|| usage(format!("flag {flag} requires a value")))
    }
}

fn split_inline(tok: &str) -> (&str, Option<&str>) {
    match tok.split_once('=') {
        Some((name, value)) => (name, Some(value)),
        None => (tok, None),
    }
}

fn parse_dims(flag: &str, s: &str) -> Result<Dims, CliError> {
    let parts: Vec<usize> = s
        .split(',')
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| {
            usage(format!(
                "{flag} expects comma-separated integers, got '{s}'"
            ))
        })?;
    if parts.is_empty() || parts.len() > 3 || parts.contains(&0) {
        return Err(usage(format!(
            "{flag} expects 1-3 positive extents, got '{s}'"
        )));
    }
    // szhi-analyzer: allow(panic-reachability) -- 1-3 non-zero extents, checked just above
    Ok(Dims::from_slice(&parts))
}

fn parse_span(flag: &str, s: &str) -> Result<[usize; 3], CliError> {
    let d = parse_dims(flag, s)?;
    Ok([d.nz(), d.ny(), d.nx()])
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, CliError> {
    s.parse::<T>()
        .map_err(|_| usage(format!("{flag} expects a number, got '{s}'")))
}

/// Parses a full command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let mut toks = Tokens::new(argv);
    let sub = toks
        .next()
        .ok_or_else(|| usage("missing subcommand".into()))?;
    match sub {
        "encode" => parse_encode(&mut toks),
        "decode" => parse_decode(&mut toks),
        "inspect" => parse_inspect(&mut toks),
        "--help" | "-h" | "help" => Err(usage("help requested".into())),
        _ => Err(usage(format!("unknown subcommand '{sub}'"))),
    }
}

fn parse_encode(toks: &mut Tokens<'_>) -> Result<Command, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut dims = None;
    let mut eb = None;
    let mut rel = false;
    let mut chunk_span = SzhiConfig::DEFAULT_CHUNK_SPAN;
    let mut mode = ModeArg::Global;
    let mut tune_interp = false;
    let mut threads = None;
    while let Some(tok) = toks.next() {
        let (name, inline) = split_inline(tok);
        match name {
            "--dims" => dims = Some(parse_dims(name, toks.value(name, inline)?)?),
            "--eb" => eb = Some(parse_num::<f64>(name, toks.value(name, inline)?)?),
            "--rel" => rel = true,
            "--chunk-span" => chunk_span = parse_span(name, toks.value(name, inline)?)?,
            "--mode" => mode = ModeArg::parse(toks.value(name, inline)?)?,
            "--tune-interp" => tune_interp = true,
            "--threads" => match parse_num::<usize>(name, toks.value(name, inline)?)? {
                // The pool reads 0 as "no override", which would quietly
                // mean every core.
                0 => return Err(usage("--threads expects at least one worker thread".into())),
                n => threads = Some(n),
            },
            _ if name.starts_with('-') && name != "-" => {
                return Err(usage(format!("unknown flag '{name}' for encode")))
            }
            _ => positional.push(tok),
        }
    }
    let [input, output] = two_positionals("encode", "<input> <output|->", &positional)?;
    if input == "-" {
        return Err(usage(
            "encode reads from a file, not stdin (--rel and the chunked reader need a real \
             file); use a temporary file"
                .into(),
        ));
    }
    Ok(Command::Encode(EncodeArgs {
        input,
        output,
        dims: dims.ok_or_else(|| usage("encode requires --dims Z,Y,X".into()))?,
        eb: eb.ok_or_else(|| usage("encode requires --eb F".into()))?,
        rel,
        chunk_span,
        mode,
        tune_interp,
        threads,
    }))
}

fn parse_decode(toks: &mut Tokens<'_>) -> Result<Command, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut chunk = None;
    while let Some(tok) = toks.next() {
        let (name, inline) = split_inline(tok);
        match name {
            "--chunk" => chunk = Some(parse_num::<usize>(name, toks.value(name, inline)?)?),
            _ if name.starts_with('-') && name != "-" => {
                return Err(usage(format!("unknown flag '{name}' for decode")))
            }
            _ => positional.push(tok),
        }
    }
    let [input, output] = two_positionals("decode", "<input|-> <output|->", &positional)?;
    Ok(Command::Decode(DecodeArgs {
        input,
        output,
        chunk,
    }))
}

fn parse_inspect(toks: &mut Tokens<'_>) -> Result<Command, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    while let Some(tok) = toks.next() {
        if tok.starts_with('-') {
            return Err(usage(format!("unknown flag '{tok}' for inspect")));
        }
        positional.push(tok);
    }
    match positional.as_slice() {
        [input] => Ok(Command::Inspect(InspectArgs {
            input: (*input).into(),
        })),
        _ => Err(usage("inspect takes exactly one argument: <input>".into())),
    }
}

fn two_positionals(sub: &str, shape: &str, got: &[&str]) -> Result<[String; 2], CliError> {
    match got {
        [a, b] => Ok([(*a).into(), (*b).into()]),
        _ => Err(usage(format!(
            "{sub} takes exactly two positional arguments: {shape} (got {})",
            got.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn encode_parses_flags_in_both_styles() {
        let cmd = parse(&argv(
            "encode in.f32 out.szhi --dims 24,20,32 --eb=2e-3 --rel \
             --chunk-span 16,16,16 --mode per-chunk --tune-interp --threads 2",
        ))
        .unwrap();
        let Command::Encode(a) = cmd else {
            panic!("expected encode")
        };
        assert_eq!(a.dims, Dims::d3(24, 20, 32));
        assert_eq!(a.eb, 2e-3);
        assert!(a.rel && a.tune_interp);
        assert_eq!(a.chunk_span, [16, 16, 16]);
        assert_eq!(a.mode, ModeArg::PerChunk);
        assert_eq!(a.threads, Some(2));
    }

    #[test]
    fn missing_required_flags_are_usage_errors() {
        for bad in [
            "encode in.f32 out.szhi --eb 1e-3",
            "encode in.f32 out.szhi --dims 8,8,8",
            "encode only-one --dims 8,8,8 --eb 1e-3",
            "decode one-positional",
            "inspect",
            "frobnicate x",
            "bench",
            "",
            "encode in out --dims 0,8,8 --eb 1e-3",
            "encode in out --dims 8,8,8 --eb nope",
            "encode in out --dims 8,8,8 --eb 1e-3 --mode sometimes",
            "decode a b --what",
        ] {
            let args = argv(bad);
            let err = parse(&args).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "'{bad}' should be a usage error, got {err:?}"
            );
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn every_usage_error_message_is_pinned() {
        // One row per `usage(...)` site in this file: a command line that
        // triggers it and the message text it must carry. The static
        // analyzer's error-coverage lint checks that every usage-error
        // message literal is pinned here, so a reworded message fails this
        // test (or the lint) instead of silently changing the CLI contract.
        let cases: &[(&str, &str)] = &[
            (
                "encode in out --dims 8,8,8 --eb 1e-3 --mode sometimes",
                "unknown --mode 'sometimes' (expected global, per-chunk, exhaustive or estimated)",
            ),
            ("encode in out --dims", "flag --dims requires a value"),
            (
                "encode in out --dims 8;8 --eb 1e-3",
                "--dims expects comma-separated integers, got '8;8'",
            ),
            (
                "encode in out --dims 1,2,3,4 --eb 1e-3",
                "--dims expects 1-3 positive extents, got '1,2,3,4'",
            ),
            ("encode in out --dims 8,8,8 --eb nope", "--eb expects a number, got 'nope'"),
            (
                "encode in out --dims 8,8,8 --eb 1e-3 --threads 0",
                "--threads expects at least one worker thread",
            ),
            ("", "missing subcommand"),
            ("--help", "help requested"),
            ("frobnicate", "unknown subcommand 'frobnicate'"),
            ("encode in out --wat", "unknown flag '--wat' for encode"),
            (
                "encode - out --dims 8,8,8 --eb 1e-3",
                "encode reads from a file, not stdin (--rel and the chunked reader need a real file); use a temporary file",
            ),
            ("encode in out --eb 1e-3", "encode requires --dims Z,Y,X"),
            ("encode in out --dims 8,8,8", "encode requires --eb F"),
            ("decode a b --what", "unknown flag '--what' for decode"),
            ("inspect --verbose", "unknown flag '--verbose' for inspect"),
            ("inspect a b", "inspect takes exactly one argument: <input>"),
            (
                "decode only-one",
                "decode takes exactly two positional arguments: <input|-> <output|-> (got 1)",
            ),
        ];
        for (cmdline, fragment) in cases {
            let args = argv(cmdline);
            let err = parse(&args).unwrap_err();
            let CliError::Usage(msg) = &err else {
                panic!("'{cmdline}' should be a usage error, got {err:?}")
            };
            assert_eq!(err.exit_code(), 2, "'{cmdline}'");
            assert!(
                msg.contains(fragment),
                "'{cmdline}' produced '{msg}', expected it to contain '{fragment}'"
            );
            // The front-end renders every failure in the stable stderr
            // shape documented in docs/CLI.md.
            let rendered = format!("szhi-cli: error: {}", err.message());
            assert!(rendered.starts_with("szhi-cli: error: "));
        }
    }

    #[test]
    fn telemetry_flags_split_off_for_every_subcommand() {
        let (rest, tel) = split_telemetry(&argv(
            "inspect --stats a.szhi --stats-json=stats.json --trace trace.json",
        ))
        .unwrap();
        assert_eq!(rest, argv("inspect a.szhi"));
        assert!(tel.stats && tel.wants_stats() && tel.any());
        assert_eq!(tel.stats_json.as_deref(), Some("stats.json"));
        assert_eq!(tel.trace.as_deref(), Some("trace.json"));

        let (rest, tel) = split_telemetry(&argv("decode in.szhi out.f32")).unwrap();
        assert_eq!(rest, argv("decode in.szhi out.f32"));
        assert_eq!(tel, TelemetryArgs::default());
        assert!(!tel.any());

        let err = split_telemetry(&argv("inspect a.szhi --trace")).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("flag --trace requires a value")),
            "expected a usage error, got {err:?}"
        );
    }

    #[test]
    fn decode_accepts_stdin_and_chunk_flags() {
        let cmd = parse(&argv("decode - out.f32 --chunk 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Decode(DecodeArgs {
                input: "-".into(),
                output: "out.f32".into(),
                chunk: Some(3),
            })
        );
    }

    #[test]
    fn mode_arg_maps_to_tuning_policies() {
        assert_eq!(ModeArg::Global.tuning(), ModeTuning::Global);
        assert_eq!(ModeArg::PerChunk.tuning(), ModeTuning::PerChunk);
        assert!(matches!(
            ModeArg::Exhaustive.tuning(),
            ModeTuning::Exhaustive { .. }
        ));
        assert!(matches!(
            ModeArg::Estimated.tuning(),
            ModeTuning::Estimated { .. }
        ));
    }
}
