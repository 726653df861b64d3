//! Raw little-endian f32 file I/O with bounded memory.
//!
//! `encode` and `decode` move whole scientific fields that may be larger
//! than RAM, so every helper here works through buffers of fixed size. A
//! region read takes each z-plane of the region as one band (the
//! contiguous file span from its first row to its last, at most 256 KiB
//! per read). A region write goes out by the same bands when the gap
//! between the region's rows is at most 2 KiB: it reads the band back,
//! patches the region's rows in and writes the band, so the bytes in the
//! gaps survive (which is why the output must be open for reading too).
//! Across a wider gap it writes one x-row per seek. The `--rel` pre-scan
//! and whole-field writes stream through 64 KiB. Values are little-endian
//! f32, matching the flat binary layout of the SDRBench datasets the paper
//! evaluates on.

use crate::CliError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use szhi_codec::bitio::decode_capacity;
use szhi_ndgrid::{Dims, Grid, Region};

fn runtime(msg: String) -> CliError {
    CliError::Runtime(msg)
}

/// Decodes up to 4 little-endian bytes into an f32 without indexing
/// (missing bytes read as zero; every caller passes exact 4-byte chunks).
fn le_f32(b: &[u8]) -> f32 {
    let mut v = [0u8; 4];
    for (slot, &byte) in v.iter_mut().zip(b) {
        *slot = byte;
    }
    f32::from_le_bytes(v)
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> CliError {
    runtime(format!("{what} {}: {e}", path.display()))
}

/// Opens `path` for reading and checks its size is exactly the raw f32
/// footprint of `dims`, so shape mistakes fail before any compression
/// work starts.
pub fn open_field(path: &Path, dims: Dims) -> Result<File, CliError> {
    let file = File::open(path).map_err(|e| io_err("cannot open", path, e))?;
    let len = file
        .metadata()
        .map_err(|e| io_err("cannot stat", path, e))?
        .len();
    // Checked: for a shape past 2^64 bytes `Dims::len` wraps (or panics in
    // a debug build), and a wrapped size could match a short file.
    let expect = [dims.ny(), dims.nx(), 4]
        .into_iter()
        .try_fold(dims.nz() as u64, |bytes, n| bytes.checked_mul(n as u64))
        .ok_or_else(|| runtime(format!("a {dims} f32 field is too large to address")))?;
    if len != expect {
        return Err(runtime(format!(
            "{} is {len} bytes, but a {dims} f32 field needs exactly {expect}",
            path.display()
        )));
    }
    Ok(file)
}

/// Streams the file once through a fixed buffer and returns its finite
/// `(min, max)` with the same convention as [`Grid::min_max`] (NaN and
/// ±Inf skipped, `(0, 0)` when no finite value exists).
pub fn min_max(path: &Path, dims: Dims) -> Result<(f32, f32), CliError> {
    let mut file = open_field(path, dims)?;
    let mut buf = [0u8; 64 * 1024];
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    let mut pending = [0u8; 4];
    let mut pending_len = 0usize;
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| io_err("cannot read", path, e))?;
        if n == 0 {
            break;
        }
        let (mut rest, _) = buf.split_at(n);
        // Stitch a value split across read boundaries.
        if pending_len > 0 {
            while pending_len < 4 {
                let Some((&b, tail)) = rest.split_first() else {
                    break;
                };
                if let Some(slot) = pending.get_mut(pending_len) {
                    *slot = b;
                }
                pending_len += 1;
                rest = tail;
            }
            if pending_len < 4 {
                // The read was too short to even complete the pending value.
                continue;
            }
            fold(f32::from_le_bytes(pending), &mut lo, &mut hi);
            // pending_len is reset by the tail-handling below.
        }
        let (values, tail) = rest.as_chunks::<4>();
        let (block_lo, block_hi) = block_min_max(values);
        fold(block_lo, &mut lo, &mut hi);
        fold(block_hi, &mut lo, &mut hi);
        for (slot, &b) in pending.iter_mut().zip(tail) {
            *slot = b;
        }
        pending_len = tail.len();
    }
    if lo.is_finite() && hi.is_finite() {
        Ok((lo, hi))
    } else {
        Ok((0.0, 0.0))
    }
}

fn fold(v: f32, lo: &mut f32, hi: &mut f32) {
    if !v.is_finite() {
        return;
    }
    if v < *lo {
        *lo = v;
    }
    if v > *hi {
        *hi = v;
    }
}

/// Values per step of [`block_min_max`]'s lane fold.
const LANES: usize = 8;

/// The finite `(min, max)` of little-endian f32 `values`, `(INFINITY,
/// NEG_INFINITY)` when none is finite, with the bits [`fold`] would give:
/// among values that compare equal, the first in file order.
///
/// Fixed lanes fold every `LANES`-th value with `v < lo` and `v > hi`,
/// which pass over NaN by themselves and compile to packed min and max.
/// Only −Inf can then reach `lo` and +Inf `hi`; a block where one does is
/// folded again one value at a time. Only ±0 compare equal with different
/// bits, so a zero result is replaced by the block's first zero.
fn block_min_max(values: &[[u8; 4]]) -> (f32, f32) {
    let mut lane_lo = [f32::INFINITY; LANES];
    let mut lane_hi = [f32::NEG_INFINITY; LANES];
    let (groups, rest) = values.as_chunks::<LANES>();
    for group in groups {
        for ((lo, hi), bytes) in lane_lo.iter_mut().zip(&mut lane_hi).zip(group) {
            let v = f32::from_le_bytes(*bytes);
            *lo = if v < *lo { v } else { *lo };
            *hi = if v > *hi { v } else { *hi };
        }
    }
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    if lane_lo.contains(&f32::NEG_INFINITY) || lane_hi.contains(&f32::INFINITY) {
        for bytes in values {
            fold(f32::from_le_bytes(*bytes), &mut lo, &mut hi);
        }
        return (lo, hi);
    }
    for (&l, &h) in lane_lo.iter().zip(&lane_hi) {
        fold(l, &mut lo, &mut hi);
        fold(h, &mut lo, &mut hi);
    }
    for bytes in rest {
        fold(f32::from_le_bytes(*bytes), &mut lo, &mut hi);
    }
    if lo == 0.0 || hi == 0.0 {
        let first_zero = values
            .iter()
            .map(|bytes| f32::from_le_bytes(*bytes))
            .find(|&v| v == 0.0);
        if let Some(zero) = first_zero {
            if lo == 0.0 {
                lo = zero;
            }
            if hi == 0.0 {
                hi = zero;
            }
        }
    }
    (lo, hi)
}

/// The most bytes one region read or band write holds in its band buffer.
/// A band covers as many whole rows of a plane as fit, and always at least
/// one row, so memory stays bounded however wide the field is.
const BAND_CAP: usize = 256 * 1024;

/// Reads one region of a `dims`-shaped raw f32 file into a grid of the
/// field's own rank (a region of a 2-D field is a 2-D grid, the shape a
/// chunk plan over that field expects).
///
/// The region is read as `read_region_into` reads it, through a band
/// buffer of its own.
pub fn read_region(file: &mut File, dims: Dims, region: &Region) -> Result<Grid<f32>, CliError> {
    let mut values = Vec::with_capacity(decode_capacity(region.len()));
    read_region_into(file, dims, region, &mut Vec::new(), &mut values)?;
    Ok(Grid::from_vec(region_dims(dims, region), values))
}

/// Reads one region of a `dims`-shaped raw f32 file into `values`, which is
/// cleared and refilled with the region's points in row-major order:
/// `szhi-cli encode` reads each chunk straight into the sink's value plane
/// this way.
///
/// Each z-plane of the region is one band: the contiguous file span from
/// `(z, y0, x0)` to the end of the plane's last region row. A band costs
/// one seek and one read (more only when it exceeds 256 KiB), and the
/// region's rows are sliced out of it at the field's x-stride. `band` is
/// the caller's buffer, reused across calls; it grows once to the largest
/// band and never past the cap (or one row, when a row is wider).
pub(crate) fn read_region_into(
    file: &mut File,
    dims: Dims,
    region: &Region,
    band: &mut Vec<u8>,
    values: &mut Vec<f32>,
) -> Result<(), CliError> {
    let (row, stride) = (region.nx(), dims.nx());
    let per_read = rows_per_read(row, stride);
    values.clear();
    values.reserve_exact(decode_capacity(region.len()));
    for z in region.z_range() {
        for y in region.y_range().step_by(per_read) {
            let rows = per_read.min(region.y_range().end - y);
            band.resize(((rows - 1) * stride + row) * 4, 0);
            let offset = dims.index(z, y, region.x0()) as u64 * 4;
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| runtime(format!("cannot seek input: {e}")))?;
            file.read_exact(band)
                .map_err(|e| runtime(format!("cannot read input band: {e}")))?;
            // Every piece but the last holds a row plus the gap to the next.
            for piece in band.chunks(stride * 4) {
                let bytes = piece.get(..row * 4).unwrap_or(piece);
                values.extend(bytes.chunks_exact(4).map(le_f32));
            }
        }
    }
    Ok(())
}

/// How many rows of `row` values, `stride` values apart, one band read
/// covers: as many as fit in [`BAND_CAP`] bytes, and at least one.
fn rows_per_read(row: usize, stride: usize) -> usize {
    1 + (BAND_CAP / 4).saturating_sub(row) / stride
}

/// The shape of `region` at the rank of the field it lies in.
fn region_dims(dims: Dims, region: &Region) -> Dims {
    match dims.rank() {
        1 => Dims::d1(region.nx()),
        2 => Dims::d2(region.ny(), region.nx()),
        _ => region.dims(),
    }
}

/// The one-row-per-read loop [`read_region`] replaced, kept as the
/// reference its differential tests compare against.
#[cfg(test)]
fn read_region_reference(
    file: &mut File,
    dims: Dims,
    region: &Region,
) -> Result<Grid<f32>, CliError> {
    let mut values = Vec::with_capacity(decode_capacity(region.len()));
    let mut row = vec![0u8; region.nx() * 4];
    for z in region.z_range() {
        for y in region.y_range() {
            let offset = dims.index(z, y, region.x0()) as u64 * 4;
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| runtime(format!("cannot seek input: {e}")))?;
            file.read_exact(&mut row)
                .map_err(|e| runtime(format!("cannot read input row: {e}")))?;
            values.extend(row.chunks_exact(4).map(le_f32));
        }
    }
    Ok(Grid::from_vec(region_dims(dims, region), values))
}

/// The widest gap between two rows of a region, in bytes, across which a
/// band write still joins them. Joining costs a read of the gap as well as
/// a write of it. Writing 64-wide chunks of a 24 MiB field into the page
/// cache (2-core Xeon, ext4), one band per plane beat one write per row
/// 3.3× at a 256 B gap and 1.6× at 2 KiB, but only 1.4× at 2.75 KiB, and
/// lost from 3.75 KiB on (0.65× at 7.75 KiB).
const MAX_GAP: usize = 2 * 1024;

/// How many rows of `row` values, `stride` values apart, one band write
/// covers: as many as one band read takes when the gap between rows is at
/// most [`MAX_GAP`] bytes, one row otherwise.
fn rows_per_write(row: usize, stride: usize) -> usize {
    if stride.saturating_sub(row) * 4 <= MAX_GAP {
        rows_per_read(row, stride)
    } else {
        1
    }
}

/// Writes one region's values (chunk-local row-major order) into a
/// `dims`-shaped raw f32 file that is open for reading and writing and
/// already sized (see [`presize`]).
///
/// Each z-plane of the region goes out in bands like [`read_region`]'s:
/// the contiguous file span from `(z, y0, x0)` to the end of the plane's
/// last region row, capped at 256 KiB, joined only across row gaps of at
/// most 2 KiB. A band of several rows with gaps between them is read first
/// and the region's rows are patched in at the field's x-stride, so the
/// gap bytes (other chunks' values, or zeros) are written back unchanged
/// and chunks may arrive in any order. A one-row or gapless band is
/// written without a read. `band` is the caller's buffer, reused across
/// calls; it grows once to the largest band and never past the cap (or
/// one row, when a row is wider).
pub fn write_region_bands(
    file: &mut File,
    dims: Dims,
    region: &Region,
    values: &[f32],
    band: &mut Vec<u8>,
) -> Result<(), CliError> {
    if values.len() != region.len() {
        return Err(runtime(format!(
            "region holds {} points but got {} values",
            region.len(),
            values.len()
        )));
    }
    let (row, stride) = (region.nx(), dims.nx());
    let per_write = rows_per_write(row, stride);
    let largest = ((per_write.min(region.ny()) - 1) * stride + row) * 4;
    band.clear();
    band.reserve_exact(decode_capacity(largest));
    // `values` holds exactly `region.len()` points (checked above), so the
    // x-rows line up with chunk-local row-major order.
    let mut rows = values.chunks_exact(row);
    for z in region.z_range() {
        for y in region.y_range().step_by(per_write) {
            let n = per_write.min(region.y_range().end - y);
            band.resize(((n - 1) * stride + row) * 4, 0);
            let offset = dims.index(z, y, region.x0()) as u64 * 4;
            if n > 1 && row < stride {
                file.seek(SeekFrom::Start(offset))
                    .map_err(|e| runtime(format!("cannot seek output: {e}")))?;
                file.read_exact(band)
                    .map_err(|e| runtime(format!("cannot read output band: {e}")))?;
            }
            // Every piece but the last holds a row plus the gap to the next;
            // the zip stops each row's values at the gap.
            for (piece, vals) in band.chunks_mut(stride * 4).zip(rows.by_ref().take(n)) {
                for (slot, v) in piece.chunks_exact_mut(4).zip(vals) {
                    slot.copy_from_slice(&v.to_le_bytes());
                }
            }
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| runtime(format!("cannot seek output: {e}")))?;
            file.write_all(band)
                .map_err(|e| runtime(format!("cannot write output band: {e}")))?;
        }
    }
    Ok(())
}

/// Writes one region's values (chunk-local row-major order) into a
/// `dims`-shaped raw f32 file, one x-row per write. The file must
/// already be sized (see [`presize`]). The CLI writes through
/// [`write_region_bands`]; this is that writer's differential reference,
/// and it needs no read access to the file.
pub fn write_region(
    file: &mut File,
    dims: Dims,
    region: &Region,
    values: &[f32],
) -> Result<(), CliError> {
    if values.len() != region.len() {
        return Err(runtime(format!(
            "region holds {} points but got {} values",
            region.len(),
            values.len()
        )));
    }
    let mut row = Vec::with_capacity(decode_capacity(region.nx() * 4));
    // `values` holds exactly `region.len()` points (checked above), so the
    // x-rows line up with chunk-local row-major order.
    let mut rows = values.chunks_exact(region.nx());
    for z in region.z_range() {
        for y in region.y_range() {
            let Some(vals) = rows.next() else { break };
            row.clear();
            for v in vals {
                row.extend_from_slice(&v.to_le_bytes());
            }
            let offset = dims.index(z, y, region.x0()) as u64 * 4;
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| runtime(format!("cannot seek output: {e}")))?;
            file.write_all(&row)
                .map_err(|e| runtime(format!("cannot write output row: {e}")))?;
        }
    }
    Ok(())
}

/// Pre-sizes the output file to the full raw footprint so region writes
/// can land in any order.
pub fn presize(file: &File, dims: Dims) -> Result<(), CliError> {
    file.set_len(dims.nbytes_f32() as u64)
        .map_err(|e| runtime(format!("cannot size output file: {e}")))
}

/// Serializes a value slice to little-endian bytes.
pub fn to_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(decode_capacity(values.len() * 4));
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parses a little-endian f32 file of exactly `dims` into a grid (whole
/// file in memory; used by tests and the golden generator, not the
/// streaming paths).
pub fn read_field(path: &Path, dims: Dims) -> Result<Grid<f32>, CliError> {
    let mut file = open_field(path, dims)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("cannot read", path, e))?;
    Ok(Grid::from_vec(
        dims,
        bytes.chunks_exact(4).map(le_f32).collect(),
    ))
}

/// Writes a full grid as a little-endian f32 stream, 64 KiB per write, so
/// the bytes never exist as a second field-sized buffer.
pub fn write_all<W: Write>(mut out: W, values: &[f32]) -> Result<(), CliError> {
    let mut buf = [0u8; 64 * 1024];
    for block in values.chunks(buf.len() / 4) {
        let (bytes, _) = buf.split_at_mut(block.len() * 4);
        for (slot, v) in bytes.chunks_exact_mut(4).zip(block) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        out.write_all(bytes)
            .map_err(|e| runtime(format!("cannot write output: {e}")))?;
    }
    out.flush()
        .map_err(|e| runtime(format!("cannot flush output: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_ndgrid::ChunkPlan;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("szhi-cli-raw-{}-{tag}.bin", std::process::id()))
    }

    #[test]
    fn region_io_roundtrips_through_a_file() {
        let dims = Dims::d3(6, 5, 7);
        let field = Grid::from_fn(dims, |z, y, x| (z * 100 + y * 10 + x) as f32);
        let path = temp_path("region");
        std::fs::write(&path, to_bytes(field.as_slice())).unwrap();

        let mut file = open_field(&path, dims).unwrap();
        let plan = ChunkPlan::new(dims, [4, 4, 4]);
        let out_path = temp_path("region-out");
        let mut out = File::options()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&out_path)
            .unwrap();
        presize(&out, dims).unwrap();
        for i in 0..plan.len() {
            let region = plan.chunk_at(i);
            let sub = read_region(&mut file, dims, &region).unwrap();
            assert_eq!(sub.as_slice(), field.extract(&region).as_slice());
            write_region(&mut out, dims, &region, sub.as_slice()).unwrap();
        }
        let back = read_field(&out_path, dims).unwrap();
        assert_eq!(back.as_slice(), field.as_slice());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&out_path).unwrap();
    }

    /// A field whose values are scattered bit patterns (NaN payloads and
    /// subnormals among them), written to a file of its own.
    fn bit_pattern_file(tag: &str, dims: Dims) -> (std::path::PathBuf, Grid<f32>) {
        let values = (0..dims.len() as u32)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9e37_79b9)))
            .collect::<Vec<_>>();
        let path = temp_path(tag);
        std::fs::write(&path, to_bytes(&values)).unwrap();
        (path, Grid::from_vec(dims, values))
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn band_reader_matches_the_row_reference_on_every_chunk() {
        let cases = [
            ("ragged-3d", Dims::d3(21, 19, 37), [8, 8, 16]),
            ("2d", Dims::d2(40, 70), [1, 16, 32]),
            ("1d", Dims::d1(1000), [1, 1, 256]),
            // A plane band of 32 rows × 32 KiB exceeds the cap: eight rows
            // per read, four reads per plane.
            ("wide-2d", Dims::d2(32, 8192), [1, 32, 32]),
        ];
        // One band buffer and one value buffer across every chunk of every
        // case, as `szhi-cli encode` keeps them; the values start dirty.
        let (mut band_buf, mut values) = (Vec::new(), vec![f32::NAN; 5000]);
        for (tag, dims, span) in cases {
            let (path, field) = bit_pattern_file(tag, dims);
            let mut file = open_field(&path, dims).unwrap();
            for region in ChunkPlan::new(dims, span).iter() {
                let band = read_region(&mut file, dims, &region).unwrap();
                let rows = read_region_reference(&mut file, dims, &region).unwrap();
                assert_eq!(band.dims(), rows.dims(), "{tag} {region:?}");
                assert_eq!(band.dims().rank(), dims.rank(), "{tag} {region:?}");
                assert_eq!(bits(band.as_slice()), bits(rows.as_slice()), "{tag}");
                assert_eq!(
                    bits(band.as_slice()),
                    bits(&field.extract(&region)),
                    "{tag}"
                );
                read_region_into(&mut file, dims, &region, &mut band_buf, &mut values).unwrap();
                assert_eq!(bits(&values), bits(rows.as_slice()), "{tag} {region:?}");
                assert!(band_buf.len() <= BAND_CAP.max(span[2] * 4), "{tag}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_band_read_fills_the_cap_with_whole_rows() {
        let band = |rows: usize, row: usize, stride: usize| 4 * ((rows - 1) * stride + row);
        for (row, stride) in [
            (256, 256),
            (32, 8192),
            (256, 1250),
            (64, 65536),
            (70_000, 70_000),
        ] {
            let rows = rows_per_read(row, stride);
            assert!(rows >= 1);
            assert!(
                rows == 1 || band(rows, row, stride) <= BAND_CAP,
                "{row}/{stride}"
            );
            assert!(band(rows + 1, row, stride) > BAND_CAP, "{row}/{stride}");
        }
    }

    /// Opens a fresh zero-filled output of `dims`'s size for reading and
    /// writing, as the CLI opens its temporary file.
    fn presized_output(tag: &str, dims: Dims) -> (std::path::PathBuf, File) {
        let path = temp_path(tag);
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        presize(&file, dims).unwrap();
        (path, file)
    }

    #[test]
    fn band_writer_matches_the_row_writer_in_any_chunk_order() {
        let cases = [
            ("w-ragged-3d", Dims::d3(21, 19, 37), [8, 8, 16]),
            ("w-2d", Dims::d2(40, 70), [1, 16, 32]),
            ("w-1d", Dims::d1(1000), [1, 1, 256]),
            // A 576-byte gap joins rows, and a 512-row plane band of 1,600-byte
            // rows exceeds the cap: 164 rows per band, four bands per plane.
            ("w-capped-2d", Dims::d2(600, 400), [1, 512, 256]),
            // A 32 KiB gap: every band is one row, written without a read.
            ("w-wide-2d", Dims::d2(32, 8192), [1, 32, 32]),
        ];
        for (tag, dims, span) in cases {
            let (src, field) = bit_pattern_file(tag, dims);
            let chunks = ChunkPlan::new(dims, span)
                .iter()
                .map(|region| {
                    let values = field.extract(&region);
                    (region, values)
                })
                .collect::<Vec<_>>();
            let (reference, mut out) = presized_output(&format!("{tag}-rows"), dims);
            for (region, values) in &chunks {
                write_region(&mut out, dims, region, values).unwrap();
            }
            let expect = std::fs::read(&reference).unwrap();
            assert_eq!(expect, std::fs::read(&src).unwrap(), "{tag}");
            let mut band = Vec::new();
            for (order, reverse) in [("fwd", false), ("rev", true)] {
                let (path, mut out) = presized_output(&format!("{tag}-{order}"), dims);
                let mut write = |(region, values): &(Region, Vec<f32>)| {
                    write_region_bands(&mut out, dims, region, values, &mut band).unwrap();
                };
                if reverse {
                    chunks.iter().rev().for_each(&mut write);
                } else {
                    chunks.iter().for_each(&mut write);
                }
                assert!(std::fs::read(&path).unwrap() == expect, "{tag} {order}");
                std::fs::remove_file(&path).unwrap();
            }
            assert!(band.capacity() <= BAND_CAP.max(span[2] * 4), "{tag}");
            std::fs::remove_file(&reference).unwrap();
            std::fs::remove_file(&src).unwrap();
        }
    }

    #[test]
    fn a_band_write_joins_rows_only_across_small_gaps() {
        // (row, stride) in values, and the rows one band write covers.
        for (row, stride, rows) in [
            // The benchmark's 192^2-plane field in 64-wide chunks: a 512-byte
            // gap, so a whole 64-row chunk plane is one band.
            (64, 192, 342),
            // No gap: the rows are contiguous.
            (256, 256, 256),
            // A gap of exactly 2 KiB still joins; one value more does not.
            (64, 64 + 512, 114),
            (64, 64 + 513, 1),
            // The CLI smoke test's fields: the golden 24x20x32 field in
            // 16-wide chunks (a 64-byte gap), and 1024-wide chunks of a
            // 16384-wide field (a 60 KiB gap).
            (16, 32, 2048),
            (1024, 16384, 1),
        ] {
            assert_eq!(rows_per_write(row, stride), rows, "{row}/{stride}");
        }
        // On that benchmark field, 172 z-planes of 3x3 chunk columns go out
        // in 1,548 band writes instead of 99,072 row writes.
        let dims = Dims::d3(172, 192, 192);
        let (mut bands, mut rows) = (0, 0);
        for region in ChunkPlan::new(dims, [64, 64, 64]).iter() {
            let per_write = rows_per_write(region.nx(), dims.nx());
            bands += region.nz() * region.ny().div_ceil(per_write);
            rows += region.nz() * region.ny();
        }
        assert_eq!((bands, rows), (1_548, 99_072));
    }

    #[test]
    fn an_output_truncated_after_presize_fails_the_band_write() {
        // 176-byte and 1,024-byte gaps: every band of 16 rows is read first.
        let dims = Dims::d2(64, 300);
        let plan = ChunkPlan::new(dims, [1, 16, 256]);
        let field = Grid::from_fn(dims, |_, y, x| (y * 1000 + x) as f32);
        let full = dims.nbytes_f32() as u64;
        for cut in [0, 1, full / 2, full - 1] {
            let (path, mut out) = presized_output("band-truncated", dims);
            out.set_len(cut).unwrap();
            let mut band = Vec::new();
            let mut failed = 0;
            for region in plan.iter() {
                let values = field.extract(&region);
                match write_region_bands(&mut out, dims, &region, &values, &mut band) {
                    Ok(()) => {}
                    Err(CliError::Runtime(m)) if m.contains("cannot read output band") => {
                        failed += 1
                    }
                    Err(e) => panic!("cut {cut}: unexpected {e:?}"),
                }
            }
            // A failed band leaves the file short, so every chunk whose
            // first band reaches past the cut fails.
            let past = plan
                .iter()
                .filter(|r| ((r.y0() + 15) * dims.nx() + r.x_range().end) as u64 * 4 > cut)
                .count();
            assert_eq!(failed, past, "cut {cut}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_field_truncated_after_open_fails_both_readers_alike() {
        type Reader = fn(&mut File, Dims, &Region) -> Result<Grid<f32>, CliError>;
        let dims = Dims::d2(24, 9000);
        let plan = ChunkPlan::new(dims, [1, 16, 4096]);
        let full = dims.nbytes_f32() as u64;
        for cut in [0, 1, full / 2, full - 1] {
            let (path, field) = bit_pattern_file("truncated", dims);
            let mut file = open_field(&path, dims).unwrap();
            File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let mut failed = 0;
            for region in plan.iter() {
                let whole = field.extract(&region);
                for read in [read_region as Reader, read_region_reference] {
                    match read(&mut file, dims, &region) {
                        Ok(sub) => assert_eq!(bits(sub.as_slice()), bits(&whole)),
                        Err(CliError::Runtime(m)) if m.contains("cannot read input") => failed += 1,
                        Err(e) => panic!("cut {cut}: unexpected {e:?}"),
                    }
                }
            }
            // Every chunk reaching past the cut fails in both readers.
            let past = plan
                .iter()
                .filter(|r| {
                    (((r.y_range().end - 1) * dims.nx() + r.x_range().end) * 4) as u64 > cut
                })
                .count();
            assert_eq!(failed, 2 * past, "cut {cut}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn min_max_matches_grid_and_size_mismatch_is_reported() {
        let dims = Dims::d3(3, 4, 5);
        let field = Grid::from_fn(dims, |z, y, x| ((z + y) as f32).sin() - x as f32 * 0.25);
        let path = temp_path("minmax");
        std::fs::write(&path, to_bytes(field.as_slice())).unwrap();
        assert_eq!(min_max(&path, dims).unwrap(), field.min_max());

        let err = open_field(&path, Dims::d3(3, 4, 6)).unwrap_err();
        assert!(matches!(&err, CliError::Runtime(m) if m.contains("needs exactly")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lane_fold_matches_the_scalar_fold_bit_for_bit() {
        // Values of every kind at lane, group and 64 KiB read boundaries:
        // `(lo, hi)`, their bits (only ±0 can differ while comparing
        // equal) and the `--rel` bound derived from them must all be the
        // scalar fold's, `Grid::min_max`.
        let n = 3 * 16_384 + 13;
        let spots = [
            0,
            1,
            7,
            8,
            9,
            16_383,
            16_384,
            16_385,
            32_767,
            32_768,
            n - 13,
            n - 1,
        ];
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let mut fields: Vec<Vec<f32>> = Vec::new();
        for (k, &special) in specials.iter().enumerate() {
            let mut field: Vec<f32> = (0..n).map(|i| ((i * 7 + k) % 101) as f32 - 50.0).collect();
            for &at in &spots {
                field[at] = special;
            }
            fields.push(field);
        }
        // Unique extremes in the lanes of an earlier −Inf and +Inf.
        let mut extremes: Vec<f32> = (0..n).map(|i| (i % 50) as f32).collect();
        (extremes[0], extremes[8], extremes[1], extremes[9]) =
            (f32::NEG_INFINITY, -100.0, f32::INFINITY, 100.0);
        fields.push(extremes);
        for first in [0.0f32, -0.0] {
            // Zero extremes whose first zero is not in lane 0: a signed
            // zero in lane 0 of every group, the other sign first.
            let sign = |i: usize| {
                if i.is_multiple_of(LANES) {
                    -first
                } else {
                    first
                }
            };
            fields.push(
                (0..n)
                    .map(|i| {
                        if i.is_multiple_of(7) {
                            sign(i)
                        } else {
                            (i % 7) as f32
                        }
                    })
                    .collect(),
            );
            fields.push(
                (0..n)
                    .map(|i| {
                        if i.is_multiple_of(7) {
                            sign(i)
                        } else {
                            -((i % 7) as f32)
                        }
                    })
                    .collect(),
            );
            // Finite values that are all zeros, between NaNs.
            let mut zeros = vec![f32::NAN; n];
            for at in [5, 8, 16, 16_389, 16_392] {
                zeros[at] = sign(at);
            }
            fields.push(zeros);
        }
        // No finite value.
        fields.push(vec![f32::NAN; n]);
        fields.push(vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        let path = temp_path("minmax-lanes");
        for (k, field) in fields.iter().enumerate() {
            std::fs::write(&path, to_bytes(field)).unwrap();
            let dims = Dims::d1(field.len());
            let (lo, hi) = min_max(&path, dims).unwrap();
            let (want_lo, want_hi) = Grid::from_vec(dims, field.clone()).min_max();
            assert_eq!(
                (lo.to_bits(), hi.to_bits()),
                (want_lo.to_bits(), want_hi.to_bits()),
                "field {k}"
            );
            let rel = |lo: f32, hi: f32| {
                szhi_core::ErrorBound::Relative(1e-3)
                    .absolute((hi - lo) as f64)
                    .to_bits()
            };
            assert_eq!(rel(lo, hi), rel(want_lo, want_hi), "field {k}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn min_max_skips_non_finite_values() {
        let path = temp_path("minmax-nonfinite");
        let mixed = [-1.0f32, 3.5, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        std::fs::write(&path, to_bytes(&mixed)).unwrap();
        assert_eq!(min_max(&path, Dims::d1(5)).unwrap(), (-1.0, 3.5));
        let none = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        std::fs::write(&path, to_bytes(&none)).unwrap();
        assert_eq!(min_max(&path, Dims::d1(3)).unwrap(), (0.0, 0.0));
        std::fs::remove_file(&path).unwrap();
    }
}
