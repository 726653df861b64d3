//! The three subcommand implementations.
//!
//! Data flows through the bounded-memory engines: `encode` reads the
//! raw field region-by-region into a [`StreamSink`]'s own value plane,
//! where each chunk is compressed in place, `decode` writes
//! region-by-region from one [`ChunkReader`] — a [`StreamSource`] over a
//! file, or for `-` over stdin read to its end by [`ForwardSource`] — so
//! neither side ever holds a full uncompressed field unless the data itself
//! must leave on stdout (a pipe holds the compressed stream).
//! A decoded field goes to a file one chunk at a time, each z-plane of a
//! chunk in as few band writes as the row gap allows (see
//! [`raw::write_region_bands`]), which is why the output is opened for
//! reading as well as writing. Progress summaries go to stderr whenever
//! stdout may carry data. File outputs are written under a temporary name
//! and renamed into place on success, so a failed run leaves the output
//! path as it found it. An output that is not a regular file (`-`, a
//! device, a FIFO) cannot be sized or read back, so a whole field bound
//! for one is decoded in full and streamed out in order.

use crate::args::{Command, DecodeArgs, EncodeArgs, InspectArgs};
use crate::{inspect, raw, CliError};
use std::ffi::OsString;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;
use szhi_core::{
    ChunkReader, CompressionStats, ErrorBound, ForwardSource, StreamSink, StreamSource, SzhiConfig,
    SzhiError,
};
use szhi_ndgrid::{Dims, Grid, Region};

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
pub(crate) fn dispatch(cmd: &Command) -> Result<(), CliError> {
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
    let (n_chunks, stats) = if to_stdout {
        encode_into(std::io::stdout(), &mut input, a.dims, &cfg)?
    } else {
        write_file(&a.output, |file| {
            encode_into(BufWriter::new(file), &mut input, a.dims, &cfg)
        })?
    };
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

/// Streams the field in `input` through a [`StreamSink`] onto `out`, one
/// chunk region at a time, each read straight into the sink's value plane
/// through one band buffer; returns the chunk count and the sink's stats.
fn encode_into(
    out: impl Write,
    input: &mut File,
    dims: Dims,
    cfg: &SzhiConfig,
) -> Result<(usize, CompressionStats), CliError> {
    let mut sink = StreamSink::new(out, dims, cfg)?;
    let n_chunks = sink.plan().len();
    let mut band = Vec::new();
    while !sink.is_complete() {
        // szhi-analyzer: allow(panic-reachability) -- trusted-encode boundary: the sink encodes a chunk this process read and sized from its own plan, not archive bytes
        sink.push_chunk_with(|region, plane| {
            raw::read_region_into(input, dims, region, &mut band, plane)
        })?;
    }
    let (mut out, stats) = sink.finish_with_stats()?;
    out.flush()
        .map_err(|e| runtime(format!("cannot flush output: {e}")))?;
    Ok((n_chunks, stats))
}

fn decode(a: &DecodeArgs) -> Result<(), CliError> {
    if a.input == "-" {
        decode_from(a, "stdin", ForwardSource::new(std::io::stdin().lock())?)
    } else {
        let file =
            File::open(&a.input).map_err(|e| runtime(format!("cannot open {}: {e}", a.input)))?;
        decode_from(a, &a.input, StreamSource::new(BufReader::new(file))?)
    }
}

/// The one decode path, over a seekable file or stdin read to its end
/// alike: `--chunk` decodes only the wanted chunk; a whole field goes to a
/// file chunk by chunk, with bounded memory, or is streamed out in order.
fn decode_from<R: Read + Seek>(
    a: &DecodeArgs,
    name: &str,
    mut source: ChunkReader<R>,
) -> Result<(), CliError> {
    let dims = source.index().dims();
    let count = source.chunk_count();
    if let Some(want) = a.chunk {
        if want >= count {
            return Err(runtime(format!(
                "chunk {want} is out of range: the stream has {count} chunks"
            )));
        }
        let (region, sub) = source.read_chunk(want)?;
        write_values(&a.output, sub.as_slice())?;
        eprintln!(
            "decoded chunk {want} of {name}: region {}x{}x{} at ({}, {}, {})",
            region.nz(),
            region.ny(),
            region.nx(),
            region.z0(),
            region.y0(),
            region.x0()
        );
        return Ok(());
    }
    if streams_in_order(&a.output) {
        write_values(&a.output, source.read_all()?.as_slice())?;
    } else {
        write_chunks(&a.output, dims, source.chunks())?;
    }
    eprintln!(
        "decoded {name} -> {}: {dims} ({} points, {count} chunks)",
        a.output,
        dims.len(),
    );
    Ok(())
}

/// Whether a whole decoded field bound for `output` must be streamed out in
/// order rather than written chunk by chunk: `-` (stdout) and any existing
/// path that is not a regular file (a device such as `/dev/null`, a FIFO),
/// which can be neither sized nor read back.
fn streams_in_order(output: &str) -> bool {
    output == "-" || is_special(Path::new(output))
}

/// Whether `path` exists but is not a regular file.
fn is_special(path: &Path) -> bool {
    std::fs::metadata(path).is_ok_and(|m| !m.is_file())
}

/// Writes decoded chunks into a pre-sized raw f32 file at `path`, one
/// region per chunk, so memory stays bounded by one chunk and one band.
/// Each region goes out through [`raw::write_region_bands`] with one band
/// buffer shared by all chunks; the temporary file [`write_file`] opens
/// for reading and writing lets a band keep the bytes between the
/// chunk's rows.
fn write_chunks(
    path: &str,
    dims: Dims,
    chunks: impl Iterator<Item = Result<(Region, Grid<f32>), SzhiError>>,
) -> Result<(), CliError> {
    write_file(path, |mut out| {
        raw::presize(&out, dims)?;
        let mut band = Vec::new();
        for chunk in chunks {
            let (region, sub) = chunk?;
            raw::write_region_bands(&mut out, dims, &region, sub.as_slice(), &mut band)?;
        }
        Ok(())
    })
}

fn write_values(output: &str, values: &[f32]) -> Result<(), CliError> {
    if output == "-" {
        raw::write_all(std::io::stdout(), values)
    } else {
        write_file(output, |file| raw::write_all(file, values))
    }
}

/// Creates the file output at `path` through `write`, which gets a fresh
/// temporary sibling in the same directory, open for reading and writing.
/// The temporary is renamed onto `path` only once `write` succeeds and is
/// removed when it fails, so a failed run neither leaves a partial file
/// under the final name nor clobbers a file already there. A `path` that
/// exists but is not a regular file (a device such as `/dev/null`, a
/// FIFO) cannot be replaced and is opened for writing only, in place.
fn write_file<T>(
    path: &str,
    write: impl FnOnce(File) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let dest = Path::new(path);
    let cannot_create = |e| runtime(format!("cannot create {path}: {e}"));
    if is_special(dest) {
        return write(File::create(dest).map_err(cannot_create)?);
    }
    let Some(name) = dest.file_name() else {
        return Err(runtime(format!("cannot create {path}: not a file name")));
    };
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = dest.with_file_name(tmp_name);
    let file = File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(cannot_create)?;
    let result = write(file).and_then(|value| {
        std::fs::rename(&tmp, dest)
            .map(|()| value)
            .map_err(|e| runtime(format!("cannot rename {} to {path}: {e}", tmp.display())))
    });
    if result.is_err() {
        // The write's own error is the one to report.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn inspect_cmd(a: &InspectArgs) -> Result<(), CliError> {
    let bytes =
        std::fs::read(&a.input).map_err(|e| runtime(format!("cannot read {}: {e}", a.input)))?;
    let report = inspect::render(&bytes)?;
    emit(format_args!("{report}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_ndgrid::ChunkPlan;

    /// A temporary output cut short between two chunks (a full disk or
    /// another process can do it) fails the next band write with an error,
    /// and `write_file` leaves neither the output nor its temporary behind.
    #[test]
    fn an_output_truncated_mid_decode_fails_and_leaves_no_file() {
        let dir = std::env::temp_dir().join(format!("szhi-cli-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let output = dir.join("cut.f32");
        let tmp = dir.join(format!(".cut.f32.{}.tmp", std::process::id()));
        let dims = Dims::d3(6, 20, 40);
        let field = Grid::from_fn(dims, |z, y, x| (z * 1000 + y * 40 + x) as f32);
        let plan = ChunkPlan::new(dims, [4, 8, 16]);
        let chunks = plan.iter().enumerate().map(|(i, region)| {
            if i == 2 {
                let cut = File::options().write(true).open(&tmp).unwrap();
                cut.set_len(0).unwrap();
            }
            Ok((
                region,
                Grid::from_vec(region.dims(), field.extract(&region)),
            ))
        });
        let err = write_chunks(output.to_str().unwrap(), dims, chunks).unwrap_err();
        assert!(
            matches!(&err, CliError::Runtime(m) if m.contains("cannot read output band")),
            "{err:?}"
        );
        assert!(!output.exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
    }
}
