//! The four subcommand implementations.
//!
//! Data flows through the bounded-memory engines: `encode` reads the
//! raw field region-by-region into a [`StreamSink`], `decode` writes
//! region-by-region from a [`StreamSource`] (or, for `-`, a
//! [`ForwardSource`] over stdin), so neither side ever holds a full
//! uncompressed field unless the data itself must leave on stdout.
//! Progress summaries go to stderr whenever stdout may carry data.

// szhi-analyzer: scope(no-panic-decode: all, capped-alloc: all)

use crate::args::{BenchArgs, Command, DecodeArgs, EncodeArgs, InspectArgs};
use crate::{inspect, raw, CliError};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use szhi_core::{
    decompress, ErrorBound, ForwardSource, JobService, StreamSink, StreamSource, SzhiConfig,
};
use szhi_ndgrid::Grid;

fn runtime(msg: String) -> CliError {
    CliError::Runtime(msg)
}

/// Writes report text to stdout — the one place the subcommands print
/// from. A reader that closed the pipe early (`szhi-cli bench | head -1`)
/// has what it asked for: the write fails with `BrokenPipe`, which ends the
/// run quietly as [`CliError::StdoutClosed`] instead of panicking inside
/// `println!`.
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
        Command::Bench(a) => bench(a),
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

/// Compresses a field through a [`StreamSink`] into memory — the serial
/// reference the `--jobs` check compares against, and the timed body of
/// the single-job bench.
fn sink_bytes(field: &Grid<f32>, cfg: &SzhiConfig) -> Result<Vec<u8>, CliError> {
    let mut sink = StreamSink::new(Vec::new(), field.dims(), cfg)?;
    while let Some(region) = sink.next_chunk_region() {
        let dims = sink.plan().chunk_dims(sink.next_index());
        sink.push_chunk(&Grid::from_vec(dims, field.extract(&region)))?;
    }
    Ok(sink.finish()?)
}

/// The timed region of the bench encode body.
static BENCH_ENCODE: szhi_telemetry::Span = szhi_telemetry::Span::new("bench.encode");
/// The timed region of the bench decode body.
static BENCH_DECODE: szhi_telemetry::Span = szhi_telemetry::Span::new("bench.decode");

/// The recorded wall time of one span in a snapshot, in seconds.
fn span_secs(snap: &szhi_telemetry::Snapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9)
}

fn bench(a: &BenchArgs) -> Result<(), CliError> {
    if let Some(t) = a.threads {
        rayon::set_num_threads(t);
    }
    let field = a.dataset.generate(a.dims, a.seed);
    let abs_eb = ErrorBound::Relative(a.eb).absolute(field.value_range() as f64);
    let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
        .with_auto_tune(false)
        .with_chunk_span(a.chunk_span)
        .with_mode_tuning(a.mode.tuning());

    // The stopwatch is the telemetry stack itself: spans time the encode
    // and decode bodies and the report reads the durations back out of a
    // snapshot delta — the same numbers `--stats` and `--trace` carry.
    szhi_telemetry::set_stats_enabled(true);
    let before = szhi_telemetry::Snapshot::capture();
    let bytes = {
        let _span = BENCH_ENCODE.enter();
        sink_bytes(&field, &cfg)?
    };
    let restored = {
        let _span = BENCH_DECODE.enter();
        decompress(&bytes)?
    };
    let delta = szhi_telemetry::Snapshot::capture().delta(&before);
    let enc_secs = span_secs(&delta, "bench.encode");
    let dec_secs = span_secs(&delta, "bench.decode");

    let mut max_err = 0.0f64;
    for (x, y) in field.as_slice().iter().zip(restored.as_slice()) {
        max_err = max_err.max(((*x as f64) - (*y as f64)).abs());
    }
    if max_err > abs_eb {
        return Err(runtime(format!(
            "error bound violated: max |err| {max_err:e} exceeds {abs_eb:e}"
        )));
    }
    let mib = field.dims().nbytes_f32() as f64 / (1024.0 * 1024.0);
    emit(format_args!(
        "bench {} {} seed {}: {} -> {} bytes (ratio {:.2})\n",
        a.dataset.name(),
        a.dims,
        a.seed,
        field.dims().nbytes_f32(),
        bytes.len(),
        field.dims().nbytes_f32() as f64 / bytes.len() as f64
    ))?;
    emit(format_args!(
        "  encode {enc_secs:.3} s ({:.1} MiB/s), decode {dec_secs:.3} s ({:.1} MiB/s), \
         max |err| {max_err:.3e} within bound {abs_eb:.3e}\n",
        mib / enc_secs.max(1e-9),
        mib / dec_secs.max(1e-9)
    ))?;
    if a.jobs > 1 {
        bench_jobs(a, &cfg)?;
    }
    Ok(())
}

/// Runs `--jobs N` concurrent compress jobs through the [`JobService`]
/// (each on its own seed) and verifies every job's archive is
/// byte-identical to a serial [`StreamSink`] run of the same field.
fn bench_jobs(a: &BenchArgs, cfg: &SzhiConfig) -> Result<(), CliError> {
    let service = JobService::new();
    let mut jobs = Vec::with_capacity(szhi_codec::bitio::decode_capacity(a.jobs));
    for j in 0..a.jobs {
        let seed = a.seed + j as u64;
        let field = a.dataset.generate(a.dims, seed);
        let handle = service.compress(field.clone(), cfg, Vec::new())?;
        jobs.push((seed, field, handle));
    }
    for (seed, field, handle) in jobs {
        // Wait on the progress API rather than blocking in `join`
        // directly, so a `--jobs` run exercises the same reporting a
        // long-lived service would poll.
        while !handle.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let progress = handle.progress();
        let (bytes, stats) = handle.join()?;
        let serial = sink_bytes(&field, cfg)?;
        if bytes != serial {
            return Err(runtime(format!(
                "job for seed {seed} produced {} bytes that diverge from the serial run \
                 ({} bytes)",
                bytes.len(),
                serial.len()
            )));
        }
        emit(format_args!(
            "  job seed {seed}: {}/{} chunks, {} bytes (ratio {:.2}), byte-identical to serial\n",
            progress.done,
            progress.total,
            bytes.len(),
            stats.compression_ratio
        ))?;
    }
    emit(format_args!(
        "jobs: {} concurrent jobs, every archive byte-identical to its serial run\n",
        a.jobs
    ))
}
