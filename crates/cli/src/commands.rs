//! The three subcommand implementations.
//!
//! Data flows through the bounded-memory engines: `encode` reads the
//! raw field region-by-region into a [`StreamSink`], `decode` writes
//! region-by-region from a [`StreamSource`] (or, for `-`, a
//! [`ForwardSource`] over stdin), so neither side ever holds a full
//! uncompressed field unless the data itself must leave on stdout.
//! Progress summaries go to stderr whenever stdout may carry data.

// szhi-analyzer: scope(no-panic-decode: all, capped-alloc: all)

use crate::args::{Command, DecodeArgs, EncodeArgs, InspectArgs};
use crate::{inspect, raw, CliError};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use szhi_core::{ErrorBound, ForwardSource, StreamSink, StreamSource, SzhiConfig};

fn runtime(msg: String) -> CliError {
    CliError::Runtime(msg)
}

/// Writes report text to stdout — the one place the subcommands print
/// from. A reader that closed the pipe early (`szhi-cli inspect … | head
/// -1`) has what it asked for: the write fails with `BrokenPipe`, which
/// ends the run quietly as [`CliError::StdoutClosed`] instead of panicking
/// inside `println!`.
fn emit(text: std::fmt::Arguments<'_>) -> Result<(), CliError> {
    let mut out = std::io::stdout().lock();
    out.write_fmt(text)
        .and_then(|()| out.flush())
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => CliError::StdoutClosed,
            _ => runtime(format!("cannot write to stdout: {e}")),
        })
}

/// Runs one parsed command to completion.
pub fn dispatch(cmd: &Command) -> Result<(), CliError> {
    match cmd {
        Command::Encode(a) => encode(a),
        Command::Decode(a) => decode(a),
        Command::Inspect(a) => inspect_cmd(a),
    }
}

/// The streaming-safe configuration an `encode` run resolves to: an
/// absolute bound (the `--rel` pre-scan happens here) with whole-field
/// auto-tuning off, as [`StreamSink`] requires.
pub fn encode_config(a: &EncodeArgs) -> Result<SzhiConfig, CliError> {
    let abs_eb = if a.rel {
        let (lo, hi) = raw::min_max(Path::new(&a.input), a.dims)?;
        ErrorBound::Relative(a.eb).absolute((hi - lo) as f64)
    } else {
        a.eb
    };
    Ok(SzhiConfig::new(ErrorBound::Absolute(abs_eb))
        .with_auto_tune(false)
        .with_chunk_span(a.chunk_span)
        .with_mode_tuning(a.mode.tuning())
        .with_chunk_interp_tuning(a.tune_interp))
}

fn encode(a: &EncodeArgs) -> Result<(), CliError> {
    if let Some(t) = a.threads {
        rayon::set_num_threads(t);
    }
    let cfg = encode_config(a)?;
    let mut input = raw::open_field(Path::new(&a.input), a.dims)?;
    let to_stdout = a.output == "-";
    let out: Box<dyn Write> = if to_stdout {
        Box::new(std::io::stdout())
    } else {
        let file = File::create(&a.output)
            .map_err(|e| runtime(format!("cannot create {}: {e}", a.output)))?;
        Box::new(BufWriter::new(file))
    };
    let mut sink = StreamSink::new(out, a.dims, &cfg)?;
    let n_chunks = sink.plan().len();
    while let Some(region) = sink.next_chunk_region() {
        let chunk = raw::read_region(&mut input, a.dims, &region)?;
        sink.push_chunk(&chunk)?;
    }
    let (mut out, stats) = sink.finish_with_stats()?;
    out.flush()
        .map_err(|e| runtime(format!("cannot flush output: {e}")))?;
    drop(out);
    let summary = format!(
        "encoded {} ({}) -> {}: {} -> {} bytes (ratio {:.2}) in {n_chunks} chunks, abs eb {:e}",
        a.input,
        a.dims,
        a.output,
        stats.original_bytes,
        stats.compressed_bytes,
        stats.compression_ratio,
        stats.abs_eb
    );
    if to_stdout {
        eprintln!("{summary}");
    } else {
        emit(format_args!("{summary}\n"))?;
    }
    Ok(())
}

fn decode(a: &DecodeArgs) -> Result<(), CliError> {
    if a.input == "-" {
        decode_pipe(a)
    } else {
        decode_file(a)
    }
}

/// Seekable decode path: random access through [`StreamSource`], with
/// bounded memory when the output is a file (pre-sized, one region
/// written per chunk).
fn decode_file(a: &DecodeArgs) -> Result<(), CliError> {
    let file =
        File::open(&a.input).map_err(|e| runtime(format!("cannot open {}: {e}", a.input)))?;
    let mut source = StreamSource::new(BufReader::new(file))?;
    let dims = source.dims();
    if let Some(want) = a.chunk {
        let count = source.chunk_count();
        if want >= count {
            return Err(runtime(format!(
                "chunk {want} is out of range: the stream has {count} chunks"
            )));
        }
        let (region, sub) = source.read_chunk(want)?;
        write_values(&a.output, sub.as_slice())?;
        eprintln!(
            "decoded chunk {want} of {}: region {}x{}x{} at ({}, {}, {})",
            a.input,
            region.nz(),
            region.ny(),
            region.nx(),
            region.z0(),
            region.y0(),
            region.x0()
        );
        return Ok(());
    }
    if a.output == "-" {
        let grid = source.read_all()?;
        raw::write_all(std::io::stdout(), grid.as_slice())?;
    } else {
        let mut out = create_sized(&a.output, dims)?;
        for i in 0..source.chunk_count() {
            let (region, sub) = source.read_chunk(i)?;
            raw::write_region(&mut out, dims, &region, sub.as_slice())?;
        }
    }
    eprintln!(
        "decoded {} -> {}: {dims} ({} points, {} chunks)",
        a.input,
        a.output,
        dims.len(),
        source.chunk_count()
    );
    Ok(())
}

/// Forward-only decode path for pipes: chunks stream off stdin in offset
/// order through [`ForwardSource`]; the table and trailer of a trailered
/// container are validated at end-of-stream.
fn decode_pipe(a: &DecodeArgs) -> Result<(), CliError> {
    let stdin = std::io::stdin();
    let mut source = ForwardSource::new(stdin.lock())?;
    let dims = source.dims();
    let count = source.chunk_count();
    if let Some(want) = a.chunk {
        if want >= count {
            return Err(runtime(format!(
                "chunk {want} is out of range: the stream has {count} chunks"
            )));
        }
        // No seeking on a pipe: decode forward and keep only the wanted
        // chunk.
        loop {
            let index = source.next_index();
            let (_region, sub) = source
                .next_chunk()
                .ok_or_else(|| runtime(format!("the stream ended before chunk {want}")))??;
            if index == want {
                write_values(&a.output, sub.as_slice())?;
                eprintln!("decoded chunk {want} from stdin");
                return Ok(());
            }
        }
    }
    if a.output == "-" {
        let grid = source.read_all()?;
        raw::write_all(std::io::stdout(), grid.as_slice())?;
    } else {
        let mut out = create_sized(&a.output, dims)?;
        while let Some(chunk) = source.next_chunk() {
            let (region, sub) = chunk?;
            raw::write_region(&mut out, dims, &region, sub.as_slice())?;
        }
    }
    eprintln!(
        "decoded stdin -> {}: {dims} ({} points, {count} chunks)",
        a.output,
        dims.len()
    );
    Ok(())
}

fn create_sized(path: &str, dims: szhi_ndgrid::Dims) -> Result<File, CliError> {
    let out = File::options()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| runtime(format!("cannot create {path}: {e}")))?;
    raw::presize(&out, dims)?;
    Ok(out)
}

fn write_values(output: &str, values: &[f32]) -> Result<(), CliError> {
    if output == "-" {
        raw::write_all(std::io::stdout(), values)
    } else {
        let file =
            File::create(output).map_err(|e| runtime(format!("cannot create {output}: {e}")))?;
        raw::write_all(BufWriter::new(file), values)
    }
}

fn inspect_cmd(a: &InspectArgs) -> Result<(), CliError> {
    let bytes =
        std::fs::read(&a.input).map_err(|e| runtime(format!("cannot read {}: {e}", a.input)))?;
    let report = inspect::render(&bytes)?;
    emit(format_args!("{report}"))
}
