//! The self-describing compressed stream format.
//!
//! The byte-level specification of every container version lives in
//! `docs/FORMAT.md` at the repository root — that document is the
//! authoritative reference the format fuzz tests link to. Five container
//! versions share the same magic and header layout:
//!
//! **v1 (monolithic)** — a fixed header followed by three sections: the
//! losslessly stored anchor values, the outlier side channel, and the
//! lossless-pipeline-encoded quantization codes. Everything needed to
//! decompress (shape, error bound, predictor configuration, pipeline
//! identifier, reorder flag) lives in the header, so `decompress` takes only
//! the byte stream.
//!
//! ```text
//! magic "SZHI" | version=1 u8 | rank u8 | nz u64 | ny u64 | nx u64
//! | abs_eb f64 | pipeline_id u8 | reorder u8 | anchor_stride u16
//! | block_span 3×u16 | n_levels u8 | n_levels × (scheme u8, spline u8)
//! | n_anchors u64 | n_anchors × f32
//! | n_outliers u64 | n_outliers × (index u64, value f32)
//! | payload_len u64 | payload bytes
//! ```
//!
//! **v2 (chunked)** — the same header (version byte 2), then the chunk span
//! and a chunk table, then one v1-style section body per chunk. Each chunk
//! is a completely independent sub-field (its own anchors, outliers and
//! pipeline payload, with chunk-local outlier indices), so chunks compress,
//! decompress and random-access independently:
//!
//! ```text
//! <v1 header with version=2>
//! | chunk_span 3×u32 | n_chunks u64
//! | n_chunks × (offset u64, length u64)      ← into the chunk data area
//! | chunk data area: n_chunks × chunk body
//! chunk body := n_anchors u64 | n_anchors × f32
//!             | n_outliers u64 | n_outliers × (index u64, value f32)
//!             | payload_len u64 | payload bytes
//! ```
//!
//! **v3 (streamed)** — the chunked layout with an *extended* chunk table:
//! every entry additionally records the chunk's own lossless pipeline id
//! (the *mode byte*, so different chunks of one stream can use different
//! pipelines) and a CRC32 integrity checksum of the chunk body, verified
//! before any lossless decoder touches the bytes:
//!
//! ```text
//! <v1 header with version=3>
//! | chunk_span 3×u32 | n_chunks u64
//! | n_chunks × (offset u64, length u64, pipeline_id u8, crc32 u32)
//! | chunk data area: n_chunks × chunk body     ← same body layout as v2
//! ```
//!
//! **v4 (trailered)** — the v3 layout inverted for bounded-memory writers:
//! the chunk bodies follow the chunk span directly, the v3-style chunk
//! table comes *after* the data area, and a fixed-size trailer at the very
//! end of the stream (table offset, chunk count, table CRC32, closing
//! magic) locates the table. A writer can therefore emit each chunk body
//! the moment it is encoded and hold only the table in memory; a reader
//! seeks to the trailer first:
//!
//! ```text
//! <v1 header with version=4>
//! | chunk_span 3×u32
//! | chunk data area: n_chunks × chunk body     ← same body layout as v2/v3
//! | n_chunks × (offset u64, length u64, pipeline_id u8, crc32 u32)
//! | table_offset u64 | n_chunks u64 | table_crc32 u32 | magic "SZT4"
//! ```
//!
//! **v5 (tuned)** — the trailered layout whose CRC-protected table region
//! additionally opens with a **predictor-config dictionary**, and whose
//! 23-byte chunk-table entries each carry a `config_id` naming the
//! dictionary entry their chunk was compressed with — so per-chunk
//! interpolation tuning is representable alongside per-chunk pipeline
//! modes. A `config_id` at or beyond the dictionary is rejected with the
//! typed [`SzhiError::UnknownConfigId`]:
//!
//! ```text
//! <v1 header with version=5>
//! | chunk_span 3×u32
//! | chunk data area: n_chunks × chunk body     ← same body layout as v2/v3
//! | n_configs u16 | n_configs × (n_levels u8, n_levels × (scheme u8, spline u8))
//! | n_chunks × (offset u64, length u64, pipeline_id u8, config_id u16, crc32 u32)
//! | table_offset u64 | n_chunks u64 | table_crc32 u32 | magic "SZT5"
//! ```
//!
//! The header's own pipeline id remains the stream's *default* mode (the
//! configuration's global mode); each chunk decodes with the pipeline named
//! by its table entry — and, for v5, with the interpolation configuration
//! named by its config id ([`ChunkTable::chunk_interp`]).
//!
//! The chunk span must obey the *chunk-alignment rule*
//! ([`szhi_ndgrid::ChunkPlan::is_aligned`]): a positive multiple of the
//! anchor stride along every non-degenerate axis (or the whole axis).
//! Offsets are relative to the start of the chunk data area, must be
//! non-decreasing and non-overlapping, and every `(offset, length)` extent
//! must lie inside the data area — all of which the one locate-and-validate
//! path behind [`read_chunk_table`] enforces with typed errors before any
//! chunk is touched. The four chunked layouts differ only in the fields of
//! their row of the layout table in this module, which every writer and
//! reader walks. For v3+ streams a chunk body whose CRC32 disagrees with
//! its table entry is rejected with [`SzhiError::ChunkChecksum`] before any
//! decoder sees it; a v4/v5 table region whose bytes disagree with the
//! trailer's CRC32 is rejected with [`SzhiError::TableChecksum`] before any
//! entry is parsed.

use crate::error::SzhiError;
use std::io::{Read, Seek, SeekFrom};
use szhi_codec::bitio::{
    decode_capacity, put_f32, put_f64, put_u16, put_u32, put_u64, put_u8, ByteCursor,
};
use szhi_codec::checksum::crc32;
use szhi_codec::PipelineSpec;
use szhi_ndgrid::{ChunkPlan, Dims};
use szhi_predictor::{InterpConfig, LevelConfig, Outlier, Scheme, Spline};

/// Magic bytes identifying a szhi stream.
pub const MAGIC: [u8; 4] = *b"SZHI";
/// Stream format version of the monolithic (single-chunk) container.
pub const VERSION: u8 = 1;
/// Stream format version of the chunked container.
pub(crate) const VERSION_CHUNKED: u8 = 2;
/// Stream format version of the streamed container (chunked layout with a
/// per-chunk pipeline-mode byte and CRC32 checksum in every chunk-table
/// entry).
pub(crate) const VERSION_STREAMED: u8 = 3;
/// Stream format version of the trailered container (v3 chunk-table entries
/// moved *behind* the data area, located via a fixed-size trailer at the
/// end of the stream, so a writer can emit chunk bodies as they are
/// produced with O(one chunk + table) memory).
pub(crate) const VERSION_TRAILERED: u8 = 4;
/// Stream format version of the tuned container: the trailered (v4) layout
/// whose tail additionally carries a **predictor-config dictionary**, and
/// whose 23-byte chunk-table entries each name the dictionary entry their
/// chunk was compressed with — so per-chunk interpolation tuning is
/// representable alongside per-chunk pipeline modes.
pub const VERSION_TUNED: u8 = 5;

/// Magic bytes closing a trailered (v4) stream — the last four bytes of
/// the container.
pub(crate) const TRAILER_MAGIC: [u8; 4] = *b"SZT4";
/// Magic bytes closing a tuned (v5) stream — the last four bytes of the
/// container.
pub(crate) const TRAILER_MAGIC_V5: [u8; 4] = *b"SZT5";
/// Size in bytes of the fixed v4/v5 trailer
/// (`table_offset u64, n_chunks u64, table_crc32 u32, magic 4×u8`).
pub const TRAILER_SIZE: usize = 24;

/// Size in bytes of one v2 chunk-table entry (`offset u64, length u64`).
pub(crate) const V2_ENTRY_SIZE: usize = 16;
/// Size in bytes of one v3/v4 chunk-table entry
/// (`offset u64, length u64, pipeline_id u8, crc32 u32`).
pub(crate) const V3_ENTRY_SIZE: usize = 21;
/// Size in bytes of one v5 chunk-table entry
/// (`offset u64, length u64, pipeline_id u8, config_id u16, crc32 u32`).
pub(crate) const V5_ENTRY_SIZE: usize = 23;

/// How one chunk-bearing container version lays out its chunk table. The
/// four rows of [`LAYOUTS`] are the whole difference between v2–v5: every
/// writer and reader walks the row's fields instead of branching on the
/// version byte.
#[derive(Debug)]
pub(crate) struct Layout {
    /// The version byte this row describes.
    pub(crate) version: u8,
    /// `Some(magic)`: the table trails the data area and a fixed trailer
    /// closing with `magic` locates it. `None`: a `u64` chunk count and the
    /// table lead the data area.
    pub(crate) trailer_magic: Option<[u8; 4]>,
    /// Size in bytes of one entry: `(offset u64, length u64)` plus the
    /// optional fields below, in this order.
    pub(crate) entry_size: usize,
    /// Entries carry their chunk's pipeline id (the *mode byte*).
    pub(crate) mode_byte: bool,
    /// Entries carry a `u16` id into the config dictionary.
    pub(crate) config_id: bool,
    /// Entries carry the CRC32 of their chunk body.
    pub(crate) crc: bool,
    /// A predictor-config dictionary opens the table region.
    pub(crate) dictionary: bool,
}

/// The chunk-table layouts of v2–v5, oldest first.
pub(crate) const LAYOUTS: [Layout; 4] = [
    Layout {
        version: VERSION_CHUNKED,
        trailer_magic: None,
        entry_size: V2_ENTRY_SIZE,
        mode_byte: false,
        config_id: false,
        crc: false,
        dictionary: false,
    },
    Layout {
        version: VERSION_STREAMED,
        trailer_magic: None,
        entry_size: V3_ENTRY_SIZE,
        mode_byte: true,
        config_id: false,
        crc: true,
        dictionary: false,
    },
    Layout {
        version: VERSION_TRAILERED,
        trailer_magic: Some(TRAILER_MAGIC),
        entry_size: V3_ENTRY_SIZE,
        mode_byte: true,
        config_id: false,
        crc: true,
        dictionary: false,
    },
    Layout {
        version: VERSION_TUNED,
        trailer_magic: Some(TRAILER_MAGIC_V5),
        entry_size: V5_ENTRY_SIZE,
        mode_byte: true,
        config_id: true,
        crc: true,
        dictionary: true,
    },
];

/// The layout row of a chunk-bearing version. Monolithic (v1) streams carry
/// no chunk table and are rejected with a clear pointer at
/// [`crate::decompress`], unknown future versions as unsupported — the same
/// typed errors on every reader path.
pub(crate) fn layout_of(version: u8) -> Result<&'static Layout, SzhiError> {
    if version == VERSION {
        return Err(SzhiError::InvalidStream(format!(
            "a monolithic (v{VERSION}) stream has no chunk table; decode it with decompress"
        )));
    }
    LAYOUTS
        .iter()
        .find(|l| l.version == version)
        .ok_or_else(|| SzhiError::InvalidStream(format!("unsupported container version {version}")))
}

/// The decoded header of a compressed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Shape of the original field.
    pub dims: Dims,
    /// Absolute error bound the stream was produced with.
    pub abs_eb: f64,
    /// Lossless pipeline used for the quantization codes.
    pub pipeline: PipelineSpec,
    /// Whether the codes were level-reordered before encoding.
    pub reorder: bool,
    /// Interpolation predictor configuration.
    pub interp: InterpConfig,
}

fn scheme_id(s: Scheme) -> u8 {
    match s {
        Scheme::DimSequence => 0,
        Scheme::MultiDim => 1,
    }
}

fn scheme_from(id: u8) -> Result<Scheme, SzhiError> {
    match id {
        0 => Ok(Scheme::DimSequence),
        1 => Ok(Scheme::MultiDim),
        _ => Err(SzhiError::InvalidStream(format!("unknown scheme id {id}"))),
    }
}

fn spline_id(s: Spline) -> u8 {
    match s {
        Spline::Linear => 0,
        Spline::Cubic => 1,
    }
}

fn spline_from(id: u8) -> Result<Spline, SzhiError> {
    match id {
        0 => Ok(Spline::Linear),
        1 => Ok(Spline::Cubic),
        _ => Err(SzhiError::InvalidStream(format!("unknown spline id {id}"))),
    }
}

/// Serialises the shared header fields (shape, bound, pipeline, predictor
/// configuration) with the given version byte.
pub(crate) fn write_header(out: &mut Vec<u8>, header: &Header, version: u8) {
    out.extend_from_slice(&MAGIC);
    put_u8(out, version);
    put_u8(out, header.dims.rank() as u8);
    put_u64(out, header.dims.nz() as u64);
    put_u64(out, header.dims.ny() as u64);
    put_u64(out, header.dims.nx() as u64);
    put_f64(out, header.abs_eb);
    put_u8(out, header.pipeline.id());
    put_u8(out, header.reorder as u8);
    put_u16(out, header.interp.anchor_stride as u16);
    for &s in &header.interp.block_span {
        put_u16(out, s as u16);
    }
    put_u8(out, header.interp.levels.len() as u8);
    put_levels(out, &header.interp.levels);
}

/// Serialises a per-level (scheme, spline) list, two bytes per level.
fn put_levels(out: &mut Vec<u8>, levels: &[LevelConfig]) {
    for lc in levels {
        put_u8(out, scheme_id(lc.scheme));
        put_u8(out, spline_id(lc.spline));
    }
}

/// Serialises the header and the chunk span — everything that precedes the
/// chunk table (leading layouts) or the data area (trailing layouts).
pub(crate) fn write_prefix(out: &mut Vec<u8>, header: &Header, version: u8, span: [usize; 3]) {
    write_header(out, header, version);
    for s in span {
        put_u32(out, s as u32);
    }
}

/// Serialises one anchor/outlier/payload section body (the v1 stream body;
/// also the per-chunk body of every chunked container).
pub fn write_sections(out: &mut Vec<u8>, anchors: &[f32], outliers: &[Outlier], payload: &[u8]) {
    out.reserve(24 + anchors.len() * 4 + outliers.len() * 12 + payload.len());
    put_u64(out, anchors.len() as u64);
    for &a in anchors {
        put_f32(out, a);
    }
    put_u64(out, outliers.len() as u64);
    for o in outliers {
        put_u64(out, o.index);
        put_f32(out, o.value);
    }
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// One chunk's row in a writer's table:
/// `(offset, length, pipeline, config_id, crc32)`. The config id is 0 and
/// unwritten unless the layout carries one.
pub(crate) type TableRow = (u64, u64, PipelineSpec, u16, u32);

/// Serialises one chunk-table entry with the fields `layout` carries.
fn put_entry(out: &mut Vec<u8>, layout: &Layout, &(offset, len, pipeline, config, crc): &TableRow) {
    put_u64(out, offset);
    put_u64(out, len);
    if layout.mode_byte {
        put_u8(out, pipeline.id());
    }
    if layout.config_id {
        put_u16(out, config);
    }
    if layout.crc {
        put_u32(out, crc);
    }
}

/// Serialises a chunk-table region as `layout` describes it: the config
/// dictionary (where the layout has one), one entry per chunk, and — where
/// the table trails the data area — the fixed trailer, whose CRC32 covers
/// exactly the dictionary and entry bytes. `table_offset` is the absolute
/// stream offset the region will land at.
pub(crate) fn encode_table(
    layout: &Layout,
    table_offset: u64,
    configs: &[Vec<LevelConfig>],
    entries: &[TableRow],
) -> Vec<u8> {
    // szhi-analyzer: allow(capped-alloc) -- writer side: sized by the table rows already in memory
    let mut out = Vec::with_capacity(
        2 + configs.iter().map(|c| 1 + 2 * c.len()).sum::<usize>()
            + entries.len() * layout.entry_size
            + TRAILER_SIZE,
    );
    if layout.dictionary {
        put_u16(&mut out, configs.len() as u16);
        for config in configs {
            put_u8(&mut out, config.len() as u8);
            put_levels(&mut out, config);
        }
    }
    for entry in entries {
        put_entry(&mut out, layout, entry);
    }
    if let Some(magic) = layout.trailer_magic {
        let table_crc = crc32(&out);
        put_u64(&mut out, table_offset);
        put_u64(&mut out, entries.len() as u64);
        put_u32(&mut out, table_crc);
        out.extend_from_slice(&magic);
    }
    out
}

/// Reads a u64 element count and checks that `count * elem_size` bytes can
/// still be present in the stream, so corrupted counts fail cleanly instead
/// of driving a huge `Vec::with_capacity`.
fn checked_count(
    cur: &mut ByteCursor<'_>,
    elem_size: usize,
    what: &str,
) -> Result<usize, SzhiError> {
    let count = cur.get_u64().map_err(SzhiError::from)?;
    let need = count.checked_mul(elem_size as u64);
    match need {
        Some(bytes) if bytes <= cur.remaining() as u64 => Ok(count as usize),
        _ => Err(SzhiError::InvalidStream(format!(
            "{what} count {count} exceeds the {} bytes left in the stream",
            cur.remaining()
        ))),
    }
}

/// The sections of a parsed stream: header, anchors, outliers, and the
/// payload borrowed from the stream.
pub(crate) type StreamSections<'a> = (Header, Vec<f32>, Vec<Outlier>, &'a [u8]);

/// One section body: anchors, outliers, and the pipeline payload borrowed
/// from the body.
pub(crate) type SectionBody<'a> = (Vec<f32>, Vec<Outlier>, &'a [u8]);

/// Checks the magic and consumes the version byte.
pub(crate) fn read_magic_version(cur: &mut ByteCursor<'_>) -> Result<u8, SzhiError> {
    let magic = cur
        .take(4)
        .map_err(|_| SzhiError::InvalidStream("stream too short for magic".into()))?;
    if magic != MAGIC {
        return Err(SzhiError::InvalidStream(
            "not a szhi stream (bad magic)".into(),
        ));
    }
    cur.get_u8().map_err(SzhiError::from)
}

/// The container version of a stream (1 = monolithic, 2 = chunked,
/// 3 = streamed, 4 = trailered, 5 = tuned), after validating the magic.
/// Top-level `decompress` dispatches on this.
pub fn stream_version(bytes: &[u8]) -> Result<u8, SzhiError> {
    let version = read_magic_version(&mut ByteCursor::new(bytes))?;
    if (VERSION..=VERSION_TUNED).contains(&version) {
        Ok(version)
    } else {
        Err(SzhiError::InvalidStream(format!(
            "unsupported version {version}"
        )))
    }
}

/// Parses a monolithic (v1) stream back into its header and sections. The
/// stream must end at its payload, as a chunk body must.
pub fn read_stream(bytes: &[u8]) -> Result<StreamSections<'_>, SzhiError> {
    let (header, body) = read_v1_header(bytes)?;
    let (anchors, outliers, payload) = read_chunk_sections(body)?;
    Ok((header, anchors, outliers, payload))
}

/// Parses the header of a monolithic (v1) stream, returning it with the
/// section body behind it.
fn read_v1_header(bytes: &[u8]) -> Result<(Header, &[u8]), SzhiError> {
    let mut cur = ByteCursor::new(bytes);
    let version = read_magic_version(&mut cur)?;
    if version != VERSION {
        return Err(SzhiError::InvalidStream(format!(
            "expected a monolithic (v{VERSION}) stream, found version {version}"
        )));
    }
    let header = read_header_fields(&mut cur)?;
    Ok((header, cur.take_rest()))
}

/// Parses a per-level (scheme, spline) list of `n_levels` entries.
fn read_levels(cur: &mut ByteCursor<'_>, n_levels: usize) -> Result<Vec<LevelConfig>, SzhiError> {
    let mut levels = Vec::with_capacity(decode_capacity(n_levels));
    for _ in 0..n_levels {
        let scheme = scheme_from(cur.get_u8().map_err(SzhiError::from)?)?;
        let spline = spline_from(cur.get_u8().map_err(SzhiError::from)?)?;
        levels.push(LevelConfig { scheme, spline });
    }
    Ok(levels)
}

/// The most points a container describes: 2^40, 4 TiB of f32. The reader
/// rejects a larger header shape as corrupt, and every writer refuses to
/// start one, so no writer emits an archive its own reader rejects.
pub(crate) const MAX_POINTS: u64 = 1 << 40;

/// The point count of an `nz × ny × nx` shape, or `None` when it exceeds
/// [`MAX_POINTS`] (a product that overflows `u64` included).
pub(crate) fn capped_points(nz: usize, ny: usize, nx: usize) -> Option<u64> {
    (nz as u64)
        .checked_mul(ny as u64)
        .and_then(|p| p.checked_mul(nx as u64))
        .filter(|&p| p <= MAX_POINTS)
}

/// Parses the shared header fields following the version byte.
pub(crate) fn read_header_fields(cur: &mut ByteCursor<'_>) -> Result<Header, SzhiError> {
    let rank = cur.get_u8().map_err(SzhiError::from)? as usize;
    let nz = cur.get_u64().map_err(SzhiError::from)? as usize;
    let ny = cur.get_u64().map_err(SzhiError::from)? as usize;
    let nx = cur.get_u64().map_err(SzhiError::from)? as usize;
    // Validate the shape before handing it to the `Dims` constructors, whose
    // non-zero asserts would otherwise turn a corrupt stream into a panic.
    // The point cap rejects absurd corrupt shapes before any decompressor
    // tries to allocate the output.
    if nz == 0 || ny == 0 || nx == 0 {
        return Err(SzhiError::InvalidStream(format!(
            "zero dimension in header: {nz}x{ny}x{nx}"
        )));
    }
    if capped_points(nz, ny, nx).is_none() {
        return Err(SzhiError::InvalidStream(format!(
            "implausible field size {nz}x{ny}x{nx}"
        )));
    }
    let dims = match rank {
        1 => Dims::d1(nx),
        2 => Dims::d2(ny, nx),
        3 => Dims::d3(nz, ny, nx),
        _ => return Err(SzhiError::InvalidStream(format!("unsupported rank {rank}"))),
    };
    let abs_eb = cur.get_f64().map_err(SzhiError::from)?;
    // A corrupt bound would otherwise fail asserts deep in the quantizer.
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(SzhiError::InvalidStream(format!(
            "invalid error bound {abs_eb}"
        )));
    }
    let pipeline_id = cur.get_u8().map_err(SzhiError::from)?;
    let pipeline = PipelineSpec::from_id(pipeline_id).ok_or(SzhiError::UnknownPipelineId {
        chunk: None,
        id: pipeline_id,
    })?;
    let reorder = cur.get_u8().map_err(SzhiError::from)? != 0;
    let anchor_stride = cur.get_u16().map_err(SzhiError::from)? as usize;
    let mut block_span = [0usize; 3];
    for s in block_span.iter_mut() {
        *s = cur.get_u16().map_err(SzhiError::from)? as usize;
    }
    let n_levels = cur.get_u8().map_err(SzhiError::from)? as usize;
    let levels = read_levels(cur, n_levels)?;
    // Mirror every invariant `InterpConfig::validate` asserts, so a corrupt
    // header surfaces as a typed error here instead of a panic downstream.
    if !anchor_stride.is_power_of_two()
        || anchor_stride < 2
        || levels.len() != anchor_stride.trailing_zeros() as usize
    {
        return Err(SzhiError::InvalidStream(format!(
            "inconsistent predictor configuration: stride {anchor_stride}, {} levels",
            levels.len()
        )));
    }
    if block_span.iter().any(|&s| s < anchor_stride) {
        return Err(SzhiError::InvalidStream(format!(
            "block span {block_span:?} smaller than anchor stride {anchor_stride}"
        )));
    }
    let interp = InterpConfig {
        anchor_stride,
        block_span,
        levels,
    };

    Ok(Header {
        dims,
        abs_eb,
        pipeline,
        reorder,
        interp,
    })
}

/// Parses one anchor/outlier/payload section body: the v1 stream body and
/// the per-chunk body of every chunked container. The slice must contain
/// exactly one section body (the chunk table's length field, or the end of
/// a v1 stream, delimits it), so trailing bytes are rejected. Every
/// untrusted count is validated against the bytes actually present before
/// allocating: a corrupted count must produce a typed error, not an
/// allocation abort or OOM. The payload is borrowed from `chunk`.
pub fn read_chunk_sections(chunk: &[u8]) -> Result<SectionBody<'_>, SzhiError> {
    let mut cur = ByteCursor::new(chunk);
    let n_anchors = checked_count(&mut cur, 4, "anchors")?;
    let mut anchors = Vec::with_capacity(decode_capacity(n_anchors));
    for _ in 0..n_anchors {
        anchors.push(cur.get_f32().map_err(SzhiError::from)?);
    }
    let n_outliers = checked_count(&mut cur, 12, "outliers")?;
    let mut outliers = Vec::with_capacity(decode_capacity(n_outliers));
    for _ in 0..n_outliers {
        let index = cur.get_u64().map_err(SzhiError::from)?;
        let value = cur.get_f32().map_err(SzhiError::from)?;
        outliers.push(Outlier { index, value });
    }
    let payload_len = checked_count(&mut cur, 1, "payload")?;
    let payload = cur.take(payload_len).map_err(SzhiError::from)?;
    if cur.remaining() != 0 {
        return Err(SzhiError::InvalidStream(format!(
            "{} trailing bytes after a section body",
            cur.remaining()
        )));
    }
    Ok((anchors, outliers, payload))
}

/// One entry of a parsed chunk table: the chunk's extent in the data area
/// plus (for v3+ streams) its pipeline, integrity checksum and (for v5
/// streams) its predictor-config id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk body, relative to the data area.
    pub offset: usize,
    /// Length of the chunk body in bytes.
    pub len: usize,
    /// The lossless pipeline that encoded this chunk's payload. For v2
    /// streams (no per-chunk mode byte) this is the header's pipeline.
    pub pipeline: PipelineSpec,
    /// The predictor-config id of a tuned (v5) chunk-table entry — an
    /// index into the stream's config dictionary
    /// ([`ChunkTable::configs`]), validated at parse time. `None` for
    /// v2/v3/v4 streams, whose chunks all share the header's
    /// interpolation configuration.
    pub config: Option<u16>,
    /// The CRC32 of the chunk body recorded in a v3+ chunk table; `None`
    /// for v2 streams, which carry no integrity checksums.
    pub checksum: Option<u32>,
}

impl ChunkEntry {
    /// Verifies `body` — the bytes of chunk `index` — against the CRC32 this
    /// entry records; a no-op for v2 entries, which record none. This is the
    /// one checksum comparison of the crate: every reader passes a fetched
    /// body through here *before* any lossless decoder sees it, and a
    /// mismatch is the typed [`SzhiError::ChunkChecksum`].
    pub(crate) fn verify(&self, index: usize, body: &[u8]) -> Result<(), SzhiError> {
        let Some(stored) = self.checksum else {
            return Ok(());
        };
        let _span = crate::telemetry::DECODE_CRC.enter();
        let computed = crc32(body);
        if computed != stored {
            return Err(SzhiError::ChunkChecksum {
                index,
                stored,
                computed,
            });
        }
        Ok(())
    }
}

/// The parsed chunk table of any chunk-bearing container: the chunk span
/// plus one [`ChunkEntry`] per chunk, with extents relative to the chunk
/// data area, whose absolute stream offset is `data_start`. For tuned (v5)
/// streams the table also carries the predictor-config dictionary the
/// entries' config ids index into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTable {
    /// Chunk span per axis `(z, y, x)`, normalised as by
    /// [`ChunkPlan::new`].
    pub span: [usize; 3],
    /// Per-chunk entries, in [`ChunkPlan`] row-major chunk order.
    pub entries: Vec<ChunkEntry>,
    /// Absolute offset of the chunk data area in the stream.
    pub data_start: usize,
    /// The predictor-config dictionary of a tuned (v5) stream: per config,
    /// the per-level (scheme, spline) list. Empty for every other version.
    pub configs: Vec<Vec<LevelConfig>>,
}

impl ChunkTable {
    /// The interpolation configuration chunk `i` was compressed with: the
    /// dictionary entry its table entry names (v5), or the header's
    /// configuration (every other version). The anchor stride and block
    /// span always come from the header — only the per-level selections
    /// vary per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range. Config ids are validated at parse
    /// time, so indexing the dictionary cannot fail on a parsed table.
    pub fn chunk_interp(&self, header: &Header, i: usize) -> InterpConfig {
        // szhi-analyzer: allow(panic-reachability) -- documented `# Panics` contract; chunk indices come from the reader's own table and config ids are validated at parse time
        let config = self.entries[i].config;
        match config {
            Some(id) => InterpConfig {
                anchor_stride: header.interp.anchor_stride,
                block_span: header.interp.block_span,
                // szhi-analyzer: allow(panic-reachability) -- config ids are validated against the dictionary at parse time
                levels: self.configs[id as usize].clone(),
            },
            None => header.interp.clone(),
        }
    }

    /// The byte slice of chunk `i` within `bytes` (the full stream),
    /// **without** checksum verification: the caller has verified it, or
    /// trusts the stream.
    pub fn chunk_slice<'a>(&self, bytes: &'a [u8], i: usize) -> &'a [u8] {
        let e = &self.entries[i];
        &bytes[self.data_start + e.offset..self.data_start + e.offset + e.len]
    }

    /// The byte slice of chunk `i`, verified against the chunk's CRC32
    /// first when the stream carries one (v3+). A mismatch — i.e. any
    /// corruption of the chunk body after compression — surfaces as
    /// [`SzhiError::ChunkChecksum`] *before* any lossless decoder sees the
    /// bytes. For v2 streams (no checksums) this is [`Self::chunk_slice`]
    /// with typed errors instead of panics.
    #[cfg(test)]
    pub(crate) fn verified_chunk_slice<'a>(
        &self,
        bytes: &'a [u8],
        i: usize,
    ) -> Result<&'a [u8], SzhiError> {
        let (entry, slice) = self.entry_slice(bytes, i)?;
        entry.verify(i, slice)?;
        Ok(slice)
    }

    /// Entry `i` and its body as a slice of `bytes` (the full stream), with
    /// typed errors instead of panics and still unverified: the fetch step
    /// of the in-memory read paths.
    pub(crate) fn entry_slice<'a>(
        &self,
        bytes: &'a [u8],
        i: usize,
    ) -> Result<(&ChunkEntry, &'a [u8]), SzhiError> {
        let e = self
            .entries
            .get(i)
            .ok_or_else(|| SzhiError::InvalidStream(format!("chunk index {i} out of range")))?;
        let start = self.data_start + e.offset;
        let slice = bytes.get(start..start + e.len).ok_or_else(|| {
            SzhiError::InvalidStream(format!("chunk {i} extends past the stream"))
        })?;
        Ok((e, slice))
    }
}

/// Parses the chunk span (3×u32) following the shared header, rejecting a
/// zero axis.
fn read_span(cur: &mut ByteCursor<'_>) -> Result<[usize; 3], SzhiError> {
    let mut span = [0usize; 3];
    for s in span.iter_mut() {
        *s = cur.get_u32().map_err(SzhiError::from)? as usize;
    }
    if span.contains(&0) {
        return Err(SzhiError::InvalidStream(format!(
            "zero chunk span {span:?}"
        )));
    }
    Ok(span)
}

/// Validates a stored chunk span against the header (normalisation and the
/// chunk-alignment rule) and returns the resulting plan.
fn validated_plan(header: &Header, span: [usize; 3]) -> Result<ChunkPlan, SzhiError> {
    let plan = ChunkPlan::new(header.dims, span);
    if plan.span() != span {
        return Err(SzhiError::InvalidStream(format!(
            "chunk span {span:?} is not normalised for a {} field (expected {:?})",
            header.dims,
            plan.span()
        )));
    }
    if !plan.is_aligned(header.interp.anchor_stride) {
        return Err(SzhiError::InvalidStream(format!(
            "chunk span {span:?} violates the alignment rule for anchor stride {}",
            header.interp.anchor_stride
        )));
    }
    Ok(plan)
}

/// One chunk-table entry as stored, before extent validation.
struct RawChunkEntry {
    offset: u64,
    len: u64,
    pipeline: PipelineSpec,
    config: Option<u16>,
    checksum: Option<u32>,
}

/// Parses `n_chunks` chunk-table entries, reading the fields `layout`
/// carries: `(offset, length)` always; then the pipeline id (inherited from
/// the header where the layout has no mode byte), the config id and the
/// CRC32. Unknown pipeline ids are the typed
/// [`SzhiError::UnknownPipelineId`]; a config id at or beyond `n_configs`
/// is the typed [`SzhiError::UnknownConfigId`].
fn read_raw_entries(
    cur: &mut ByteCursor<'_>,
    layout: &Layout,
    n_chunks: usize,
    header_pipeline: PipelineSpec,
    n_configs: usize,
) -> Result<Vec<RawChunkEntry>, SzhiError> {
    let mut raw = Vec::with_capacity(decode_capacity(n_chunks));
    for i in 0..n_chunks {
        let offset = cur.get_u64().map_err(SzhiError::from)?;
        let len = cur.get_u64().map_err(SzhiError::from)?;
        let mut entry = RawChunkEntry {
            offset,
            len,
            pipeline: header_pipeline,
            config: None,
            checksum: None,
        };
        if layout.mode_byte {
            let id = cur.get_u8().map_err(SzhiError::from)?;
            entry.pipeline = PipelineSpec::from_id(id)
                .ok_or(SzhiError::UnknownPipelineId { chunk: Some(i), id })?;
        }
        if layout.config_id {
            let id = cur.get_u16().map_err(SzhiError::from)?;
            if id as usize >= n_configs {
                return Err(SzhiError::UnknownConfigId {
                    chunk: i,
                    id,
                    n_configs,
                });
            }
            entry.config = Some(id);
        }
        if layout.crc {
            entry.checksum = Some(cur.get_u32().map_err(SzhiError::from)?);
        }
        raw.push(entry);
    }
    Ok(raw)
}

/// Validates raw chunk-table extents against a data area of `data_len`
/// bytes — in-bounds, non-overlapping, non-decreasing, no u64 wraparound —
/// and produces the typed entries.
fn validate_extents(raw: Vec<RawChunkEntry>, data_len: u64) -> Result<Vec<ChunkEntry>, SzhiError> {
    let mut entries = Vec::with_capacity(decode_capacity(raw.len()));
    let mut prev_end = 0u64;
    for (i, entry) in raw.into_iter().enumerate() {
        let RawChunkEntry {
            offset,
            len,
            pipeline,
            config,
            checksum,
        } = entry;
        if offset < prev_end {
            return Err(SzhiError::InvalidStream(format!(
                "chunk {i} at offset {offset} overlaps the previous chunk ending at {prev_end}"
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            SzhiError::InvalidStream(format!("chunk {i} extent {offset}+{len} overflows"))
        })?;
        if end > data_len {
            return Err(SzhiError::InvalidStream(format!(
                "chunk {i} extent {offset}+{len} exceeds the {data_len}-byte data area"
            )));
        }
        prev_end = end;
        entries.push(ChunkEntry {
            offset: offset as usize,
            len: len as usize,
            pipeline,
            config,
            checksum,
        });
    }
    Ok(entries)
}

/// The parsed fields of a v4/v5 trailer: the absolute offset of the table
/// region, the chunk count and the CRC32 of the region (the config
/// dictionary, where the layout has one, plus the entries).
struct Trailer {
    table_offset: u64,
    n_chunks: u64,
    table_crc: u32,
}

/// Parses the fixed-size trailer from its [`TRAILER_SIZE`] bytes,
/// validating the layout's closing magic.
fn parse_trailer(tail: &[u8], layout: &Layout, magic: [u8; 4]) -> Result<Trailer, SzhiError> {
    if tail.get(20..24) != Some(magic.as_slice()) {
        return Err(SzhiError::TrailerCorrupt(format!(
            "bad trailer magic (a v{} stream must end in {:?})",
            layout.version,
            std::str::from_utf8(&magic).unwrap_or("?")
        )));
    }
    let mut cur = ByteCursor::new(tail);
    Ok(Trailer {
        table_offset: cur.get_u64().map_err(SzhiError::from)?,
        n_chunks: cur.get_u64().map_err(SzhiError::from)?,
        table_crc: cur.get_u32().map_err(SzhiError::from)?,
    })
}

/// Validates a trailer against the stream geometry and returns the length
/// of the table region. The chunk count must match the plan, and the
/// region must sit between the data area and the trailer: *exactly*
/// `n_chunks` entries where the layout has no dictionary; at least the
/// dictionary count plus the entries where it has one — the dictionary's
/// size is part of the CRC-protected region, so the exact-size check
/// happens in [`parse_table_region`] once the dictionary is parsed.
fn validate_trailer_geometry(
    trailer: &Trailer,
    layout: &Layout,
    plan_len: usize,
    data_start: u64,
    trailer_start: u64,
) -> Result<u64, SzhiError> {
    if trailer.n_chunks != plan_len as u64 {
        return Err(SzhiError::TrailerCorrupt(format!(
            "trailer lists {} chunks, the plan has {plan_len}",
            trailer.n_chunks
        )));
    }
    let min_len = trailer
        .n_chunks
        .checked_mul(layout.entry_size as u64)
        .and_then(|t| t.checked_add(if layout.dictionary { 2 } else { 0 }))
        .ok_or_else(|| SzhiError::TrailerCorrupt("chunk count overflows the table size".into()))?;
    match trailer_start.checked_sub(trailer.table_offset) {
        Some(len)
            if trailer.table_offset >= data_start
                && (len == min_len || (layout.dictionary && len > min_len)) =>
        {
            Ok(len)
        }
        _ => Err(SzhiError::TrailerCorrupt(format!(
            "table offset {} does not place a {}-entry table between the data area and the \
             trailer (data starts at {data_start}, trailer at {trailer_start})",
            trailer.table_offset, trailer.n_chunks
        ))),
    }
}

/// Verifies a geometry-validated table region against the trailer's CRC32,
/// then parses the config dictionary (where the layout has one) and the
/// entries.
///
/// Validation order inside the region: CRC32 first
/// ([`SzhiError::TableChecksum`]), then the dictionary (level count must
/// match the header, scheme/spline bytes must name known values), then the
/// exact-size check (the entries must fill the rest of the region
/// exactly), then the entries (unknown pipeline/config ids are their
/// dedicated typed errors, extents the usual invalid-stream errors).
fn parse_table_region(
    region: &[u8],
    layout: &Layout,
    trailer: &Trailer,
    data_len: u64,
    header: &Header,
) -> Result<(Vec<ChunkEntry>, Vec<Vec<LevelConfig>>), SzhiError> {
    let computed = crc32(region);
    if computed != trailer.table_crc {
        return Err(SzhiError::TableChecksum {
            stored: trailer.table_crc,
            computed,
        });
    }
    let mut cur = ByteCursor::new(region);
    let mut configs = Vec::new();
    if layout.dictionary {
        let n_configs = cur.get_u16().map_err(SzhiError::from)? as usize;
        // Every config needs at least its count byte; reject absurd counts
        // before allocating.
        if n_configs > cur.remaining() {
            return Err(SzhiError::InvalidStream(format!(
                "config dictionary count {n_configs} exceeds the {} bytes left in the table \
                 region",
                cur.remaining()
            )));
        }
        let expected_levels = header.interp.levels.len();
        configs.reserve(decode_capacity(n_configs));
        for c in 0..n_configs {
            let n_levels = cur.get_u8().map_err(SzhiError::from)? as usize;
            if n_levels != expected_levels {
                return Err(SzhiError::InvalidStream(format!(
                    "config {c} has {n_levels} levels, the header's anchor stride implies \
                     {expected_levels}"
                )));
            }
            configs.push(read_levels(&mut cur, n_levels)?);
        }
    }
    let table_len = trailer.n_chunks * layout.entry_size as u64;
    if cur.remaining() as u64 != table_len {
        return Err(SzhiError::InvalidStream(format!(
            "{} bytes follow the config dictionary, a {}-entry table needs {table_len}",
            cur.remaining(),
            trailer.n_chunks
        )));
    }
    let raw = read_raw_entries(
        &mut cur,
        layout,
        trailer.n_chunks as usize,
        header.pipeline,
        configs.len(),
    )?;
    Ok((validate_extents(raw, data_len)?, configs))
}

/// Reads exactly `n` bytes — a length already validated against the stream
/// — mapping failures (including a premature end) to [`SzhiError::Io`].
pub(crate) fn read_exact_vec<R: Read>(
    reader: &mut R,
    n: usize,
    what: &str,
) -> Result<Vec<u8>, SzhiError> {
    let mut buf = vec![0u8; n];
    reader
        .read_exact(&mut buf)
        .map_err(|e| SzhiError::Io(format!("reading {what}: {e}")))?;
    Ok(buf)
}

fn seek_to<R: Seek>(reader: &mut R, pos: SeekFrom, what: &str) -> Result<u64, SzhiError> {
    reader
        .seek(pos)
        .map_err(|e| SzhiError::Io(format!("seeking to {what}: {e}")))
}

/// Everything a reader knows about a chunked stream before touching a
/// chunk body: the header, the chunk plan and the validated chunk table.
/// Produced only by the crate's one table-locating path, so holding one
/// means every check of `docs/FORMAT.md` short of the per-chunk CRC32 has
/// passed. Readers hand it out read-only through
/// [`ChunkReader::index`](crate::stream::ChunkReader::index).
#[derive(Debug)]
pub struct StreamIndex {
    pub(crate) header: Header,
    pub(crate) plan: ChunkPlan,
    pub(crate) table: ChunkTable,
}

impl StreamIndex {
    /// Shape of the full field the stream encodes.
    pub fn dims(&self) -> Dims {
        self.header.dims
    }

    /// Number of chunks in the stream.
    pub fn chunk_count(&self) -> usize {
        self.table.entries.len()
    }

    /// The table entry of chunk `i`, or a typed error when out of range.
    pub(crate) fn entry(&self, i: usize) -> Result<&ChunkEntry, SzhiError> {
        self.table.entries.get(i).ok_or_else(|| {
            SzhiError::InvalidInput(format!(
                "chunk index {i} out of range for a stream of {} chunks",
                self.chunk_count()
            ))
        })
    }

    /// The region of the original field chunk `i` covers.
    #[cfg(test)]
    pub(crate) fn chunk_region(&self, i: usize) -> Result<szhi_ndgrid::Region, SzhiError> {
        self.entry(i)?;
        Ok(self.plan.chunk_at(i))
    }

    /// The interpolation configuration chunk `i` was compressed with: its
    /// config-dictionary entry for tuned (v5) streams, the header's
    /// configuration for every other version.
    #[cfg(test)]
    pub(crate) fn chunk_interp(&self, i: usize) -> Result<InterpConfig, SzhiError> {
        self.entry(i)?;
        Ok(self.table.chunk_interp(&self.header, i))
    }

    /// The lossless pipeline that encoded chunk `i` (from the v3+ mode
    /// byte; for v2 streams, the header's global pipeline).
    pub fn chunk_pipeline(&self, i: usize) -> Result<PipelineSpec, SzhiError> {
        self.entry(i).map(|e| e.pipeline)
    }
}

/// The validated front of a chunked stream: what precedes the chunk table
/// (leading layouts) or the data area (trailing layouts).
struct Prefix {
    layout: &'static Layout,
    header: Header,
    plan: ChunkPlan,
    /// The prefix as read, so a forward reader can buffer the rest of the
    /// stream behind it.
    bytes: Vec<u8>,
}

/// Reads and validates the header, chunk span and plan from the front of a
/// chunked stream, leaving the reader directly behind the span.
fn read_prefix<R: Read>(reader: &mut R) -> Result<Prefix, SzhiError> {
    // The fixed header prefix: magic, version, and everything through the
    // level count at offset 48 (see docs/FORMAT.md).
    let mut bytes = read_exact_vec(reader, 49, "the stream header")?;
    let version = read_magic_version(&mut ByteCursor::new(&bytes))?;
    let layout = layout_of(version)?;
    let n_levels = bytes.last().copied().unwrap_or(0) as usize;
    bytes.extend(read_exact_vec(
        reader,
        2 * n_levels + 12,
        "the predictor levels and chunk span",
    )?);
    let mut cur = ByteCursor::new(&bytes);
    read_magic_version(&mut cur)?;
    let header = read_header_fields(&mut cur)?;
    let span = read_span(&mut cur)?;
    let plan = validated_plan(&header, span)?;
    Ok(Prefix {
        layout,
        header,
        plan,
        bytes,
    })
}

/// Reads and validates the chunk table of a leading-table (v2/v3) stream
/// from a reader positioned directly behind the prefix, leaving it at the
/// start of the data area. The count is checked against the bytes present
/// before the plan, and extents against the true data area.
fn read_leading_table<R: Read>(
    reader: &mut R,
    prefix: &Prefix,
    stream_len: u64,
) -> Result<ChunkTable, SzhiError> {
    let Prefix {
        layout,
        header,
        plan,
        ..
    } = prefix;
    let table_at = prefix.bytes.len() as u64;
    let count = read_exact_vec(reader, 8, "the chunk count")?;
    let n_chunks = ByteCursor::new(&count).get_u64().map_err(SzhiError::from)?;
    let remaining = stream_len.saturating_sub(table_at + 8);
    match n_chunks.checked_mul(layout.entry_size as u64) {
        Some(bytes) if bytes <= remaining => {}
        _ => {
            return Err(SzhiError::InvalidStream(format!(
                "chunk table count {n_chunks} exceeds the {remaining} bytes left in the stream"
            )))
        }
    }
    if n_chunks != plan.len() as u64 {
        return Err(SzhiError::InvalidStream(format!(
            "chunk table lists {n_chunks} chunks, the {} field at span {:?} has {}",
            header.dims,
            plan.span(),
            plan.len()
        )));
    }
    let table_len = n_chunks as usize * layout.entry_size;
    let table_bytes = read_exact_vec(reader, table_len, "the chunk table")?;
    let raw = read_raw_entries(
        &mut ByteCursor::new(&table_bytes),
        layout,
        n_chunks as usize,
        header.pipeline,
        0,
    )?;
    let data_start = table_at + 8 + table_len as u64;
    Ok(ChunkTable {
        span: plan.span(),
        entries: validate_extents(raw, stream_len - data_start)?,
        data_start: data_start as usize,
        configs: Vec::new(),
    })
}

/// Locates and validates the chunk table of a trailing-table (v4/v5)
/// stream via its trailer, in the order `docs/FORMAT.md` fixes: trailer
/// magic and geometry, then the table-region CRC32, then the config
/// dictionary, then the entries.
fn read_trailing_table<R: Read + Seek>(
    reader: &mut R,
    prefix: &Prefix,
    magic: [u8; 4],
    stream_len: u64,
) -> Result<ChunkTable, SzhiError> {
    let data_start = prefix.bytes.len() as u64;
    if stream_len < data_start + TRAILER_SIZE as u64 {
        return Err(SzhiError::TrailerCorrupt(format!(
            "stream of {stream_len} bytes is too short for a {TRAILER_SIZE}-byte trailer"
        )));
    }
    let trailer_start = stream_len - TRAILER_SIZE as u64;
    seek_to(reader, SeekFrom::Start(trailer_start), "the trailer")?;
    let tail = read_exact_vec(reader, TRAILER_SIZE, "the trailer")?;
    let trailer = parse_trailer(&tail, prefix.layout, magic)?;
    let region_len = validate_trailer_geometry(
        &trailer,
        prefix.layout,
        prefix.plan.len(),
        data_start,
        trailer_start,
    )?;
    seek_to(
        reader,
        SeekFrom::Start(trailer.table_offset),
        "the chunk table",
    )?;
    let region = read_exact_vec(reader, region_len as usize, "the chunk table")?;
    let (entries, configs) = parse_table_region(
        &region,
        prefix.layout,
        &trailer,
        trailer.table_offset - data_start,
        &prefix.header,
    )?;
    Ok(ChunkTable {
        span: prefix.plan.span(),
        entries,
        data_start: data_start as usize,
        configs,
    })
}

impl Prefix {
    fn into_index(self, table: ChunkTable) -> StreamIndex {
        StreamIndex {
            header: self.header,
            plan: self.plan,
            table,
        }
    }
}

/// The one way a chunk table is found: reads the header, span and plan from
/// the front of a seekable chunked stream (v2–v5), then locates and
/// validates the table wherever the version's [`Layout`] puts it. In-memory
/// bytes go through here behind a [`std::io::Cursor`].
pub(crate) fn locate_table<R: Read + Seek>(reader: &mut R) -> Result<StreamIndex, SzhiError> {
    let stream_len = seek_to(reader, SeekFrom::End(0), "the stream end")?;
    seek_to(reader, SeekFrom::Start(0), "the stream start")?;
    let prefix = read_prefix(reader)?;
    let table = match prefix.layout.trailer_magic {
        None => read_leading_table(reader, &prefix, stream_len)?,
        Some(magic) => read_trailing_table(reader, &prefix, magic, stream_len)?,
    };
    Ok(prefix.into_index(table))
}

/// The one-chunk index of a monolithic (v1) stream, so that it decodes
/// through the chunk-decode step of every other container: a whole-field
/// plan and one entry, spanning the rest of the stream, with the header's
/// pipeline and no checksum. Only [`crate::decompress`] builds one; every
/// chunk-table reader keeps rejecting v1.
pub(crate) fn monolithic_index(bytes: &[u8]) -> Result<StreamIndex, SzhiError> {
    let (header, body) = read_v1_header(bytes)?;
    let dims = header.dims;
    let plan = ChunkPlan::new(dims, [dims.nz(), dims.ny(), dims.nx()]);
    let entry = ChunkEntry {
        offset: 0,
        len: body.len(),
        pipeline: header.pipeline,
        config: None,
        checksum: None,
    };
    let table = ChunkTable {
        span: plan.span(),
        entries: vec![entry],
        data_start: bytes.len() - body.len(),
        configs: Vec::new(),
    };
    Ok(StreamIndex {
        header,
        plan,
        table,
    })
}

/// Reads a forward-only stream to its end for [`locate_table`]: the header
/// prefix is validated as it arrives, so a stream that is not a chunked
/// container fails after its first bytes, not at end-of-stream; the rest
/// is then buffered behind it, to be validated in the seekable order.
pub(crate) fn read_stream_to_end<R: Read>(reader: &mut R) -> Result<Vec<u8>, SzhiError> {
    let mut bytes = read_prefix(reader)?.bytes;
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| SzhiError::Io(format!("reading the stream to its end: {e}")))?;
    Ok(bytes)
}

/// Parses the header and chunk table of any chunk-bearing container
/// (v2 chunked, v3 streamed, v4 trailered, v5 tuned) held in memory.
/// Monolithic (v1) streams have no chunk table and are rejected with a
/// clear typed error pointing at [`crate::decompress`]; unknown future
/// versions are rejected as unsupported.
pub fn read_chunk_table(bytes: &[u8]) -> Result<(Header, ChunkTable), SzhiError> {
    let index = locate_table(&mut std::io::Cursor::new(bytes))?;
    Ok((index.header, index.table))
}

/// Builders of hand-made containers for the in-crate tests: the v2/v3
/// containers the library reads but no longer writes, a v1 stream of
/// hand-picked sections, or a synthetic v4/v5 stream with hand-picked table
/// fields.
#[cfg(test)]
pub(crate) mod legacy {
    use super::*;

    /// A monolithic (v1) stream of the given sections.
    pub(crate) fn write_v1(
        header: &Header,
        anchors: &[f32],
        outliers: &[Outlier],
        payload: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&mut out, header, VERSION);
        write_sections(&mut out, anchors, outliers, payload);
        out
    }

    /// One chunk of a synthetic container: pipeline, config id, body.
    pub(crate) type Chunk = (PipelineSpec, u16, Vec<u8>);

    /// Serialises `chunks` into a container of `version` (2–5) exactly as
    /// its [`Layout`] row describes it.
    pub(crate) fn write_container(
        version: u8,
        header: &Header,
        span: [usize; 3],
        configs: &[Vec<LevelConfig>],
        chunks: &[Chunk],
    ) -> Vec<u8> {
        let layout = layout_of(version).unwrap();
        let mut out = Vec::new();
        write_prefix(&mut out, header, version, span);
        let mut offset = 0u64;
        let rows: Vec<TableRow> = chunks
            .iter()
            .map(|(pipeline, config, body)| {
                let row = (offset, body.len() as u64, *pipeline, *config, crc32(body));
                offset += body.len() as u64;
                row
            })
            .collect();
        let table = |at: usize| encode_table(layout, at as u64, configs, &rows);
        if layout.trailer_magic.is_none() {
            put_u64(&mut out, rows.len() as u64);
            out.extend(table(0));
        }
        for (_, _, body) in chunks {
            out.extend_from_slice(body);
        }
        if layout.trailer_magic.is_some() {
            out.extend(table(out.len()));
        }
        out
    }

    /// Re-wraps the chunk bodies, pipelines and configs of a chunked stream
    /// in a container of another version.
    pub(crate) fn recontain(bytes: &[u8], version: u8) -> Vec<u8> {
        let (header, table) = read_chunk_table(bytes).unwrap();
        let chunks: Vec<Chunk> = (0..table.entries.len())
            .map(|i| {
                let e = &table.entries[i];
                (
                    e.pipeline,
                    e.config.unwrap_or(0),
                    table.chunk_slice(bytes, i).to_vec(),
                )
            })
            .collect();
        write_container(version, &header, table.span, &table.configs, &chunks)
    }
}

#[cfg(test)]
mod tests {
    //! Round-trip, truncation and byte-flip fuzz tests of the container
    //! formats. The layouts, field offsets and validation rules asserted
    //! here are specified in `docs/FORMAT.md` — keep the two in sync.

    use super::legacy::{write_container, write_v1, Chunk};
    use super::*;

    fn sample_header() -> Header {
        Header {
            dims: Dims::d3(20, 30, 40),
            abs_eb: 1.5e-3,
            pipeline: PipelineSpec::CR,
            reorder: true,
            interp: InterpConfig::cusz_hi(),
        }
    }

    #[test]
    fn stream_roundtrips() {
        let header = sample_header();
        let anchors = vec![1.0f32, -2.5, 3.25];
        let outliers = vec![
            Outlier {
                index: 7,
                value: 9.5,
            },
            Outlier {
                index: 1000,
                value: -0.125,
            },
        ];
        let payload = vec![1u8, 2, 3, 4, 5];
        let bytes = write_v1(&header, &anchors, &outliers, &payload);
        let (h, a, o, p) = read_stream(&bytes).unwrap();
        assert_eq!(h, header);
        assert_eq!(a, anchors);
        assert_eq!(o, outliers);
        assert_eq!(p, payload);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let header = sample_header();
        let mut bytes = write_v1(&header, &[], &[], &[]);
        bytes[0] = b'X';
        assert!(matches!(
            read_stream(&bytes),
            Err(SzhiError::InvalidStream(_))
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let header = sample_header();
        let mut bytes = write_v1(&header, &[], &[], &[]);
        bytes[4] = 99;
        assert!(matches!(
            read_stream(&bytes),
            Err(SzhiError::InvalidStream(_))
        ));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let header = sample_header();
        let bytes = write_v1(&header, &[1.0; 10], &[], &[7u8; 100]);
        for cut in [3usize, 20, bytes.len() - 1] {
            assert!(
                read_stream(&bytes[..cut]).is_err(),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn two_d_headers_roundtrip() {
        let header = Header {
            dims: Dims::d2(1800, 3600),
            abs_eb: 0.25,
            pipeline: PipelineSpec::TP,
            reorder: false,
            interp: InterpConfig::cusz_i(),
        };
        let bytes = write_v1(&header, &[], &[], &[]);
        let (h, _, _, _) = read_stream(&bytes).unwrap();
        assert_eq!(h, header);
    }

    #[test]
    fn header_fields_roundtrip_exactly() {
        // The satellite contract: magic, version, dims, pipeline mode and
        // error bound all survive a serialise/parse cycle bit-exactly.
        for (dims, pipeline, reorder, abs_eb) in [
            (Dims::d1(1_000_000), PipelineSpec::CR, false, 1e-9),
            (Dims::d2(1800, 3600), PipelineSpec::TP, true, 0.5),
            (
                Dims::d3(512, 512, 512),
                PipelineSpec::CR,
                true,
                f64::MIN_POSITIVE,
            ),
        ] {
            let header = Header {
                dims,
                abs_eb,
                pipeline,
                reorder,
                interp: InterpConfig::cusz_hi(),
            };
            let bytes = write_v1(&header, &[], &[], &[]);
            assert_eq!(&bytes[..4], &MAGIC);
            assert_eq!(bytes[4], VERSION);
            let (h, _, _, _) = read_stream(&bytes).unwrap();
            assert_eq!(h, header);
            assert_eq!(
                h.abs_eb.to_bits(),
                abs_eb.to_bits(),
                "error bound must be bit-exact"
            );
        }
    }

    #[test]
    fn every_truncation_yields_a_typed_error_not_a_panic() {
        let header = sample_header();
        let anchors = [0.5f32; 9];
        let outliers = [Outlier {
            index: 3,
            value: 1.5,
        }];
        let bytes = write_v1(&header, &anchors, &outliers, &[0xAB; 33]);
        for cut in 0..bytes.len() {
            let result = std::panic::catch_unwind(|| read_stream(&bytes[..cut]));
            let parsed = result.unwrap_or_else(|_| panic!("read_stream panicked at cut {cut}"));
            assert!(
                parsed.is_err(),
                "truncation at {cut}/{} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_section_counts_error_instead_of_allocating() {
        // A flipped length field must not drive `Vec::with_capacity` into an
        // allocation abort: it has to surface as `SzhiError::InvalidStream`.
        let header = sample_header();
        let bytes = write_v1(&header, &[1.0; 4], &[], &[9u8; 16]);
        // n_anchors lives right after the fixed header; find it by locating
        // the known count (4) and stamping u64::MAX over it.
        let fixed = bytes.len() - (8 + 4 * 4) - 8 - (8 + 16);
        for (offset, label) in [
            (fixed, "anchors"),
            (fixed + 8 + 16, "outliers"),
            (fixed + 8 + 16 + 8, "payload"),
        ] {
            let mut corrupt = bytes.clone();
            corrupt[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            match read_stream(&corrupt) {
                Err(SzhiError::InvalidStream(msg)) => {
                    assert!(msg.contains("count"), "{label}: unexpected message {msg}")
                }
                other => panic!("{label}: corrupt count not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_dims_and_corrupt_bounds_error_instead_of_panicking() {
        // Layout: magic 4 | version 1 | rank 1 | nz u64 @6 | ny u64 @14
        // | nx u64 @22 | abs_eb f64 @30. Zeroed dimensions and non-finite
        // or non-positive bounds must all surface as typed errors: the
        // `Dims` constructors and the quantizer assert on them.
        let bytes = write_v1(&sample_header(), &[], &[], &[]);
        for dim_offset in [6usize, 14, 22] {
            let mut corrupt = bytes.clone();
            corrupt[dim_offset..dim_offset + 8].copy_from_slice(&0u64.to_le_bytes());
            assert!(
                matches!(read_stream(&corrupt), Err(SzhiError::InvalidStream(_))),
                "zero dim at offset {dim_offset} not rejected"
            );
            corrupt[dim_offset..dim_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(
                matches!(read_stream(&corrupt), Err(SzhiError::InvalidStream(_))),
                "absurd dim at offset {dim_offset} not rejected"
            );
        }
        for bad_eb in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut corrupt = bytes.clone();
            corrupt[30..38].copy_from_slice(&bad_eb.to_le_bytes());
            assert!(
                matches!(read_stream(&corrupt), Err(SzhiError::InvalidStream(_))),
                "bad error bound {bad_eb} not rejected"
            );
        }
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        let header = sample_header();
        let bytes = write_v1(
            &header,
            &[2.0; 3],
            &[Outlier {
                index: 1,
                value: 0.5,
            }],
            &[7u8; 20],
        );
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    let _ = read_stream(&corrupt);
                });
                assert!(
                    result.is_ok(),
                    "read_stream panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
    }

    #[test]
    fn inconsistent_predictor_config_is_rejected() {
        let header = sample_header();
        let mut bytes = write_v1(&header, &[], &[], &[]);
        // Corrupt the anchor stride (offset: 4 magic + 1 ver + 1 rank + 24 dims + 8 eb + 1 pid + 1 reorder = 40).
        bytes[40] = 12;
        bytes[41] = 0;
        assert!(read_stream(&bytes).is_err());
    }

    // -----------------------------------------------------------------
    // v2 (chunked) container
    // -----------------------------------------------------------------

    /// A v2 header whose dims/span produce a 2×2×2 = 8-chunk plan.
    fn sample_v2_header() -> (Header, [usize; 3]) {
        (
            Header {
                dims: Dims::d3(20, 18, 24),
                abs_eb: 2.5e-3,
                pipeline: PipelineSpec::CR,
                reorder: true,
                interp: InterpConfig::cusz_hi(),
            },
            [16, 16, 16],
        )
    }

    /// Small synthetic chunks with bodies of distinct sizes, alternating
    /// between the two production pipelines and cycling through the config
    /// ids of [`sample_configs`] (a container writes only the fields its
    /// layout carries).
    fn sample_chunks(n: usize) -> Vec<Chunk> {
        (0..n)
            .map(|i| {
                let anchors = vec![i as f32 + 0.5; (i % 3) + 1];
                let outliers = [Outlier {
                    index: i as u64,
                    value: -1.5,
                }];
                let payload = vec![i as u8; 5 + i];
                let mut body = Vec::new();
                write_sections(&mut body, &anchors, &outliers, &payload);
                let spec = if i % 2 == 0 {
                    PipelineSpec::CR
                } else {
                    PipelineSpec::TP
                };
                (spec, (i % 3) as u16, body)
            })
            .collect()
    }

    /// The sample chunks in a container of `version` under
    /// [`sample_v2_header`] (the dictionary is written only where the
    /// layout has one).
    fn sample_stream(version: u8) -> Vec<u8> {
        let (header, span) = sample_v2_header();
        write_container(version, &header, span, &sample_configs(), &sample_chunks(8))
    }

    /// Stream offset of the chunk span field: fixed header (49 bytes) plus
    /// two bytes per interpolation level.
    fn span_offset(header: &Header) -> usize {
        49 + 2 * header.interp.levels.len()
    }

    #[test]
    fn v2_stream_roundtrips_chunk_table_and_bodies() {
        let (header, span) = sample_v2_header();
        let chunks = sample_chunks(8);
        let bytes = write_container(VERSION_CHUNKED, &header, span, &[], &chunks);
        assert_eq!(stream_version(&bytes).unwrap(), VERSION_CHUNKED);
        let (h, table) = read_chunk_table(&bytes).unwrap();
        assert_eq!(h, header);
        assert_eq!(table.span, span);
        assert_eq!(table.entries.len(), 8);
        for (i, (_, _, body)) in chunks.iter().enumerate() {
            assert_eq!(table.chunk_slice(&bytes, i), &body[..]);
            let (anchors, outliers, payload) = read_chunk_sections(body).unwrap();
            assert_eq!(anchors.len(), (i % 3) + 1);
            assert_eq!(outliers.len(), 1);
            assert_eq!(payload.len(), 5 + i);
        }
    }

    #[test]
    fn v1_and_v2_readers_reject_each_others_streams() {
        let (header, _) = sample_v2_header();
        let v2 = sample_stream(VERSION_CHUNKED);
        assert!(matches!(read_stream(&v2), Err(SzhiError::InvalidStream(_))));
        let v1 = write_v1(&header, &[], &[], &[]);
        assert!(matches!(
            read_chunk_table(&v1),
            Err(SzhiError::InvalidStream(_))
        ));
        assert_eq!(stream_version(&v1).unwrap(), VERSION);
    }

    #[test]
    fn v2_chunk_count_overflow_errors_instead_of_allocating() {
        // A corrupted chunk count must fail before `Vec::with_capacity`
        // can abort the process, and a plausible-but-wrong count must fail
        // against the plan.
        let (header, _) = sample_v2_header();
        let bytes = sample_stream(VERSION_CHUNKED);
        let count_at = span_offset(&header) + 12;
        for bad in [u64::MAX, u64::MAX / 16, 7, 9, 0] {
            let mut corrupt = bytes.clone();
            corrupt[count_at..count_at + 8].copy_from_slice(&bad.to_le_bytes());
            match read_chunk_table(&corrupt) {
                Err(SzhiError::InvalidStream(msg)) => assert!(
                    msg.contains("chunk table") || msg.contains("chunks"),
                    "count {bad}: unexpected message {msg}"
                ),
                other => panic!("chunk count {bad} not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn v2_misaligned_or_denormalised_span_is_rejected() {
        let (header, _) = sample_v2_header();
        let at = span_offset(&header);
        // Alignment violation: span 12 is not a multiple of stride 16.
        let bytes = sample_stream(VERSION_CHUNKED);
        let mut corrupt = bytes.clone();
        corrupt[at + 8..at + 12].copy_from_slice(&12u32.to_le_bytes());
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::InvalidStream(_))
        ));
        // Zero span.
        let mut corrupt = bytes.clone();
        corrupt[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::InvalidStream(_))
        ));
        // Denormalised span (32 > the 20-point z-axis would clamp to 20,
        // so the stored span no longer matches its own plan).
        let mut corrupt = bytes;
        corrupt[at..at + 4].copy_from_slice(&32u32.to_le_bytes());
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::InvalidStream(_))
        ));
    }

    #[test]
    fn v2_overlapping_and_truncated_extents_are_rejected() {
        let (header, _) = sample_v2_header();
        let bytes = sample_stream(VERSION_CHUNKED);
        let table_at = span_offset(&header) + 12 + 8;
        let entry = |i: usize| table_at + 16 * i;

        // Overlap: chunk 1 rewound onto chunk 0.
        let mut corrupt = bytes.clone();
        corrupt[entry(1)..entry(1) + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("overlap")
        ));

        // Truncation: the last chunk's length runs past the data area.
        let mut corrupt = bytes.clone();
        corrupt[entry(7) + 8..entry(7) + 16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("exceeds")
        ));

        // Offset + length overflow of u64 must not wrap around the bound
        // check.
        let mut corrupt = bytes.clone();
        corrupt[entry(7)..entry(7) + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        corrupt[entry(7) + 8..entry(7) + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_chunk_table(&corrupt).is_err());

        // A truncated stream cutting through the table itself.
        for cut in [table_at + 3, table_at + 16 * 4 + 1] {
            assert!(read_chunk_table(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn v2_single_byte_corruption_never_panics() {
        // Byte-flip fuzz of the whole v2 stream — header, span, chunk table
        // and bodies: parsing plus every chunk-section read must produce
        // typed errors only, never a panic or allocation abort.
        let bytes = sample_stream(VERSION_CHUNKED);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    if let Ok((_, table)) = read_chunk_table(&corrupt) {
                        for i in 0..table.entries.len() {
                            let _ = read_chunk_sections(table.chunk_slice(&corrupt, i));
                        }
                    }
                });
                assert!(
                    result.is_ok(),
                    "v2 parsing panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // v3 (streamed) container
    // -----------------------------------------------------------------

    #[test]
    fn v3_stream_roundtrips_modes_and_checksums() {
        let (header, span) = sample_v2_header();
        let chunks = sample_chunks(8);
        let bytes = write_container(VERSION_STREAMED, &header, span, &[], &chunks);
        assert_eq!(stream_version(&bytes).unwrap(), VERSION_STREAMED);
        let (h, table) = read_chunk_table(&bytes).unwrap();
        assert_eq!(h, header);
        assert_eq!(table.span, span);
        assert_eq!(table.entries.len(), 8);
        for (i, (spec, _, body)) in chunks.iter().enumerate() {
            let e = &table.entries[i];
            assert_eq!(e.pipeline, *spec);
            assert_eq!(e.checksum, Some(crc32(body)));
            assert_eq!(table.verified_chunk_slice(&bytes, i).unwrap(), &body[..]);
        }
    }

    #[test]
    fn v2_tables_inherit_the_header_pipeline_and_carry_no_checksums() {
        let bytes = sample_stream(VERSION_CHUNKED);
        let (h, table) = read_chunk_table(&bytes).unwrap();
        for e in &table.entries {
            assert_eq!(e.pipeline, h.pipeline);
            assert_eq!(e.checksum, None);
        }
    }

    #[test]
    fn v3_data_area_corruption_is_caught_by_the_checksum() {
        // Every byte flip anywhere in the data area must be rejected by the
        // chunk's CRC32 — with the typed ChunkChecksum error, before any
        // decoder sees the bytes.
        let (header, span) = sample_v2_header();
        let chunks = sample_chunks(8);
        let bytes = write_container(VERSION_STREAMED, &header, span, &[], &chunks);
        let (_, table) = read_chunk_table(&bytes).unwrap();
        let data_start = table.data_start;
        for pos in data_start..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                // The table itself is untouched, so parsing still succeeds…
                let (_, t) = read_chunk_table(&corrupt).unwrap();
                // …and exactly the chunk owning the flipped byte fails.
                let failing: Vec<usize> = (0..t.entries.len())
                    .filter(|&i| {
                        matches!(
                            t.verified_chunk_slice(&corrupt, i),
                            Err(SzhiError::ChunkChecksum { index, .. }) if index == i
                        )
                    })
                    .collect();
                assert_eq!(
                    failing.len(),
                    1,
                    "flip at data byte {} must fail exactly one chunk, failed {failing:?}",
                    pos - data_start
                );
            }
        }
    }

    #[test]
    fn v3_unknown_per_chunk_pipeline_id_is_rejected_with_the_typed_error() {
        // The dedicated typed error names the chunk and the id, so callers
        // can tell "needs a newer decoder" from garbage. Byte-flip the mode
        // byte of one entry to an id outside the catalogue.
        let (header, _) = sample_v2_header();
        let bytes = sample_stream(VERSION_STREAMED);
        let table_at = span_offset(&header) + 12 + 8;
        // The mode byte of entry 3 lives 16 bytes into its 21-byte entry.
        let mut corrupt = bytes.clone();
        corrupt[table_at + 21 * 3 + 16] = 0xEE;
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::UnknownPipelineId {
                chunk: Some(3),
                id: 0xEE
            })
        ));
        // Every unknown value a single byte flip can produce on any
        // entry's mode byte yields the typed error (never a panic, never
        // the generic invalid-stream fallback).
        for entry in 0..8usize {
            let at = table_at + 21 * entry + 16;
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[at] ^= flip;
                let flipped = corrupt[at];
                match read_chunk_table(&corrupt) {
                    Ok(_) => assert!(
                        PipelineSpec::from_id(flipped).is_some(),
                        "entry {entry}: unknown id {flipped} accepted"
                    ),
                    Err(SzhiError::UnknownPipelineId { chunk, id }) => {
                        assert_eq!(chunk, Some(entry));
                        assert_eq!(id, flipped);
                        assert!(PipelineSpec::from_id(id).is_none());
                    }
                    Err(other) => panic!("entry {entry} flip {flip:#x}: unexpected {other:?}"),
                }
            }
        }
        // The header's own pipeline byte gets the headerless variant.
        let mut corrupt = bytes;
        corrupt[38] = 0xEE;
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::UnknownPipelineId {
                chunk: None,
                id: 0xEE
            })
        ));
    }

    #[test]
    fn v3_single_byte_corruption_never_panics() {
        // Byte-flip fuzz of the whole v3 stream: parsing, checksum
        // verification and every chunk-section read must produce typed
        // errors only — never a panic or allocation abort.
        let bytes = sample_stream(VERSION_STREAMED);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    if let Ok((_, table)) = read_chunk_table(&corrupt) {
                        for i in 0..table.entries.len() {
                            if let Ok(slice) = table.verified_chunk_slice(&corrupt, i) {
                                let _ = read_chunk_sections(slice);
                            }
                        }
                    }
                });
                assert!(
                    result.is_ok(),
                    "v3 parsing panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // v4 (trailered) container
    // -----------------------------------------------------------------

    #[test]
    fn v4_stream_roundtrips_modes_checksums_and_trailer() {
        let (header, span) = sample_v2_header();
        let chunks = sample_chunks(8);
        let bytes = write_container(VERSION_TRAILERED, &header, span, &[], &chunks);
        assert_eq!(stream_version(&bytes).unwrap(), VERSION_TRAILERED);
        assert_eq!(&bytes[bytes.len() - 4..], &TRAILER_MAGIC);
        let (h, table) = read_chunk_table(&bytes).unwrap();
        assert_eq!(h, header);
        assert_eq!(table.span, span);
        assert_eq!(table.entries.len(), 8);
        // The data area starts right after the span — chunk bodies precede
        // the table in a v4 stream.
        assert_eq!(table.data_start, span_offset(&header) + 12);
        for (i, (spec, _, body)) in chunks.iter().enumerate() {
            let e = &table.entries[i];
            assert_eq!(e.pipeline, *spec);
            assert_eq!(e.checksum, Some(crc32(body)));
            assert_eq!(table.verified_chunk_slice(&bytes, i).unwrap(), &body[..]);
        }
    }

    #[test]
    fn v4_reader_rejects_other_versions_and_v1_gets_a_clear_error() {
        let (header, _) = sample_v2_header();
        // A v3 stream restamped as v4 has no trailer where v4 needs one.
        let mut v3 = sample_stream(VERSION_STREAMED);
        v3[4] = VERSION_TRAILERED;
        assert!(matches!(
            read_chunk_table(&v3),
            Err(SzhiError::TrailerCorrupt(_))
        ));
        // v1 is named monolithic, with a pointer at `decompress`, not a
        // confusing table-parse failure.
        let v1 = write_v1(&header, &[], &[], &[]);
        match read_chunk_table(&v1) {
            Err(SzhiError::InvalidStream(msg)) => {
                assert!(msg.contains("monolithic"), "unexpected message: {msg}");
                assert!(msg.contains("decompress"), "unexpected message: {msg}");
            }
            other => panic!("v1 not rejected clearly: {other:?}"),
        }
        // Unknown future versions are named as unsupported.
        let mut v6 = sample_stream(VERSION_TRAILERED);
        v6[4] = 6;
        match read_chunk_table(&v6) {
            Err(SzhiError::InvalidStream(msg)) => {
                assert!(msg.contains("unsupported"), "unexpected message: {msg}");
                assert!(msg.contains('6'), "unexpected message: {msg}");
            }
            other => panic!("v6 not rejected clearly: {other:?}"),
        }
        // A version byte stamped 5 over a v4 stream is *recognised* but
        // fails the v5 trailer magic with the typed trailer error.
        let mut fake_v5 = sample_stream(VERSION_TRAILERED);
        fake_v5[4] = 5;
        assert!(matches!(
            read_chunk_table(&fake_v5),
            Err(SzhiError::TrailerCorrupt(msg)) if msg.contains("magic")
        ));
    }

    #[test]
    fn v4_trailer_corruption_yields_the_typed_trailer_error() {
        let (header, _) = sample_v2_header();
        let bytes = sample_stream(VERSION_TRAILERED);
        let trailer_at = bytes.len() - TRAILER_SIZE;

        // Broken closing magic.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() - 1] ^= 0xFF;
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::TrailerCorrupt(msg)) if msg.contains("magic")
        ));

        // A table offset that cannot place the table before the trailer.
        for bad_offset in [0u64, u64::MAX, bytes.len() as u64] {
            let mut corrupt = bytes.clone();
            corrupt[trailer_at..trailer_at + 8].copy_from_slice(&bad_offset.to_le_bytes());
            assert!(
                matches!(
                    read_chunk_table(&corrupt),
                    Err(SzhiError::TrailerCorrupt(_))
                ),
                "table offset {bad_offset} not rejected"
            );
        }

        // A chunk count disagreeing with the plan (or absurd).
        for bad_count in [0u64, 7, 9, u64::MAX] {
            let mut corrupt = bytes.clone();
            corrupt[trailer_at + 8..trailer_at + 16].copy_from_slice(&bad_count.to_le_bytes());
            assert!(
                matches!(
                    read_chunk_table(&corrupt),
                    Err(SzhiError::TrailerCorrupt(_))
                ),
                "chunk count {bad_count} not rejected"
            );
        }

        // A stream too short to even hold a trailer.
        assert!(matches!(
            read_chunk_table(&bytes[..span_offset(&header) + 12 + 3]),
            Err(SzhiError::TrailerCorrupt(_)) | Err(SzhiError::InvalidStream(_))
        ));
    }

    #[test]
    fn v4_table_corruption_is_caught_by_the_table_checksum() {
        // Every byte flip anywhere in the chunk table must be rejected by
        // the trailer's table CRC32 — before any entry is parsed.
        let bytes = sample_stream(VERSION_TRAILERED);
        let trailer_at = bytes.len() - TRAILER_SIZE;
        let table_at = trailer_at - 8 * V3_ENTRY_SIZE;
        for pos in table_at..trailer_at {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                assert!(
                    matches!(
                        read_chunk_table(&corrupt),
                        Err(SzhiError::TableChecksum { .. })
                    ),
                    "table flip at {} xor {flip:#x} not caught",
                    pos - table_at
                );
            }
        }
        // Flipping the stored table CRC itself is also a checksum mismatch.
        let mut corrupt = bytes.clone();
        corrupt[trailer_at + 16] ^= 0x01;
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::TableChecksum { .. })
        ));
    }

    #[test]
    fn v4_data_area_corruption_is_caught_by_the_owning_chunks_checksum() {
        let (header, span) = sample_v2_header();
        let chunks = sample_chunks(8);
        let bytes = write_container(VERSION_TRAILERED, &header, span, &[], &chunks);
        let (_, table) = read_chunk_table(&bytes).unwrap();
        let data_start = table.data_start;
        let data_end = data_start + chunks.iter().map(|(_, _, b)| b.len()).sum::<usize>();
        for pos in data_start..data_end {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                // The table and trailer are untouched, so parsing succeeds…
                let (_, t) = read_chunk_table(&corrupt).unwrap();
                // …and exactly the chunk owning the flipped byte fails.
                let failing: Vec<usize> = (0..t.entries.len())
                    .filter(|&i| {
                        matches!(
                            t.verified_chunk_slice(&corrupt, i),
                            Err(SzhiError::ChunkChecksum { index, .. }) if index == i
                        )
                    })
                    .collect();
                assert_eq!(
                    failing.len(),
                    1,
                    "flip at data byte {} must fail exactly one chunk, failed {failing:?}",
                    pos - data_start
                );
            }
        }
    }

    #[test]
    fn v4_every_truncation_yields_a_typed_error_not_a_panic() {
        let bytes = sample_stream(VERSION_TRAILERED);
        for cut in 0..bytes.len() {
            let result = std::panic::catch_unwind(|| read_chunk_table(&bytes[..cut]));
            let parsed =
                result.unwrap_or_else(|_| panic!("read_chunk_table panicked at cut {cut}"));
            assert!(
                parsed.is_err(),
                "truncation at {cut}/{} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn v4_single_byte_corruption_never_panics() {
        // Byte-flip fuzz of the whole v4 stream — header, span, data area,
        // chunk table and trailer: parsing, checksum verification and every
        // chunk-section read must produce typed errors only, never a panic
        // or allocation abort.
        let bytes = sample_stream(VERSION_TRAILERED);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    if let Ok((_, table)) = read_chunk_table(&corrupt) {
                        for i in 0..table.entries.len() {
                            if let Ok(slice) = table.verified_chunk_slice(&corrupt, i) {
                                let _ = read_chunk_sections(slice);
                            }
                        }
                    }
                });
                assert!(
                    result.is_ok(),
                    "v4 parsing panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // v5 (tuned) container
    // -----------------------------------------------------------------

    /// A small config dictionary: three distinct per-level selections for
    /// the cuSZ-Hi 4-level header.
    fn sample_configs() -> Vec<Vec<LevelConfig>> {
        let lc = |scheme, spline| LevelConfig { scheme, spline };
        vec![
            vec![lc(Scheme::MultiDim, Spline::Cubic); 4],
            vec![lc(Scheme::DimSequence, Spline::Linear); 4],
            vec![
                lc(Scheme::MultiDim, Spline::Cubic),
                lc(Scheme::MultiDim, Spline::Linear),
                lc(Scheme::DimSequence, Spline::Cubic),
                lc(Scheme::DimSequence, Spline::Linear),
            ],
        ]
    }

    #[test]
    fn v5_stream_roundtrips_modes_configs_and_checksums() {
        let (header, span) = sample_v2_header();
        let configs = sample_configs();
        let chunks = sample_chunks(8);
        let bytes = write_container(VERSION_TUNED, &header, span, &configs, &chunks);
        assert_eq!(stream_version(&bytes).unwrap(), VERSION_TUNED);
        assert_eq!(&bytes[bytes.len() - 4..], &TRAILER_MAGIC_V5);
        let (h, table) = read_chunk_table(&bytes).unwrap();
        assert_eq!(h, header);
        assert_eq!(table.span, span);
        assert_eq!(table.entries.len(), 8);
        assert_eq!(table.configs, configs);
        // Data area directly after the span, exactly like v4.
        assert_eq!(table.data_start, span_offset(&header) + 12);
        for (i, (spec, config, body)) in chunks.iter().enumerate() {
            let e = &table.entries[i];
            assert_eq!(e.pipeline, *spec);
            assert_eq!(e.config, Some(*config));
            assert_eq!(e.checksum, Some(crc32(body)));
            assert_eq!(table.verified_chunk_slice(&bytes, i).unwrap(), &body[..]);
            // The resolved interpolation config: dictionary levels, the
            // header's stride and block span.
            let interp = table.chunk_interp(&h, i);
            assert_eq!(interp.levels, configs[*config as usize]);
            assert_eq!(interp.anchor_stride, h.interp.anchor_stride);
            assert_eq!(interp.block_span, h.interp.block_span);
            interp.validate().unwrap();
        }
    }

    #[test]
    fn v5_unknown_config_id_is_rejected_with_the_typed_error() {
        // Craft a stream whose entry 5 names config id 7 against a 3-entry
        // dictionary — with a *valid* region CRC, so the typed error can
        // only come from the config-id validation itself.
        let (header, span) = sample_v2_header();
        let configs = sample_configs();
        let mut chunks = sample_chunks(8);
        chunks[5].1 = 7;
        let bytes = write_container(VERSION_TUNED, &header, span, &configs, &chunks);
        assert!(matches!(
            read_chunk_table(&bytes),
            Err(SzhiError::UnknownConfigId {
                chunk: 5,
                id: 7,
                n_configs: 3
            })
        ));
        // An unknown pipeline id in a v5 entry gets its own typed error.
        let mut chunks = sample_chunks(8);
        chunks[2].0 = PipelineSpec::CR; // placeholder; stamp the byte below
        let bytes = write_container(VERSION_TUNED, &header, span, &configs, &chunks);
        let trailer_at = bytes.len() - TRAILER_SIZE;
        let table_offset =
            u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
        let dict_len = 2 + configs.iter().map(|c| 1 + 2 * c.len()).sum::<usize>();
        // Entry 2's pipeline byte: 16 bytes into its 23-byte entry.
        let pid_at = table_offset + dict_len + V5_ENTRY_SIZE * 2 + 16;
        let mut corrupt = bytes.clone();
        corrupt[pid_at] = 0xEE;
        // Restamp the region CRC so only the id is at fault.
        let region_crc = crc32(&corrupt[table_offset..trailer_at]);
        corrupt[trailer_at + 16..trailer_at + 20].copy_from_slice(&region_crc.to_le_bytes());
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::UnknownPipelineId {
                chunk: Some(2),
                id: 0xEE
            })
        ));
    }

    #[test]
    fn v5_table_region_corruption_is_caught_by_the_table_checksum() {
        // Every byte flip anywhere in the config dictionary *or* the chunk
        // table must be rejected by the trailer's region CRC32 — before
        // any dictionary entry or table entry is parsed.
        let bytes = sample_stream(VERSION_TUNED);
        let trailer_at = bytes.len() - TRAILER_SIZE;
        let table_offset =
            u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
        for pos in table_offset..trailer_at {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                assert!(
                    matches!(
                        read_chunk_table(&corrupt),
                        Err(SzhiError::TableChecksum { .. })
                    ),
                    "region flip at {} xor {flip:#x} not caught",
                    pos - table_offset
                );
            }
        }
    }

    #[test]
    fn v5_trailer_corruption_yields_the_typed_trailer_error() {
        let bytes = sample_stream(VERSION_TUNED);
        let trailer_at = bytes.len() - TRAILER_SIZE;

        // Broken closing magic — including the one that would spell the
        // v4 magic.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() - 1] = b'4';
        assert!(matches!(
            read_chunk_table(&corrupt),
            Err(SzhiError::TrailerCorrupt(msg)) if msg.contains("magic")
        ));

        // A table offset that cannot place the region before the trailer.
        for bad_offset in [0u64, u64::MAX, bytes.len() as u64] {
            let mut corrupt = bytes.clone();
            corrupt[trailer_at..trailer_at + 8].copy_from_slice(&bad_offset.to_le_bytes());
            assert!(
                matches!(
                    read_chunk_table(&corrupt),
                    Err(SzhiError::TrailerCorrupt(_))
                ),
                "table offset {bad_offset} not rejected"
            );
        }

        // A chunk count disagreeing with the plan (or absurd).
        for bad_count in [0u64, 7, 9, u64::MAX] {
            let mut corrupt = bytes.clone();
            corrupt[trailer_at + 8..trailer_at + 16].copy_from_slice(&bad_count.to_le_bytes());
            assert!(
                matches!(
                    read_chunk_table(&corrupt),
                    Err(SzhiError::TrailerCorrupt(_))
                ),
                "chunk count {bad_count} not rejected"
            );
        }
    }

    #[test]
    fn v5_data_area_corruption_is_caught_by_the_owning_chunks_checksum() {
        let (header, span) = sample_v2_header();
        let chunks = sample_chunks(8);
        let bytes = write_container(VERSION_TUNED, &header, span, &sample_configs(), &chunks);
        let (_, table) = read_chunk_table(&bytes).unwrap();
        let data_start = table.data_start;
        let data_end = data_start + chunks.iter().map(|(_, _, b)| b.len()).sum::<usize>();
        for pos in data_start..data_end {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let (_, t) = read_chunk_table(&corrupt).unwrap();
                let failing: Vec<usize> = (0..t.entries.len())
                    .filter(|&i| {
                        matches!(
                            t.verified_chunk_slice(&corrupt, i),
                            Err(SzhiError::ChunkChecksum { index, .. }) if index == i
                        )
                    })
                    .collect();
                assert_eq!(
                    failing.len(),
                    1,
                    "flip at data byte {} must fail exactly one chunk, failed {failing:?}",
                    pos - data_start
                );
            }
        }
    }

    #[test]
    fn v5_every_truncation_yields_a_typed_error_not_a_panic() {
        let bytes = sample_stream(VERSION_TUNED);
        for cut in 0..bytes.len() {
            let result = std::panic::catch_unwind(|| read_chunk_table(&bytes[..cut]));
            let parsed =
                result.unwrap_or_else(|_| panic!("read_chunk_table panicked at cut {cut}"));
            assert!(
                parsed.is_err(),
                "truncation at {cut}/{} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn v5_single_byte_corruption_never_panics() {
        // The full 3-mask byte-flip fuzz over header, span, data area,
        // dictionary, table and trailer: parsing, checksum verification
        // and every chunk-section read must produce typed errors only.
        let bytes = sample_stream(VERSION_TUNED);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    if let Ok((_, table)) = read_chunk_table(&corrupt) {
                        for i in 0..table.entries.len() {
                            if let Ok(slice) = table.verified_chunk_slice(&corrupt, i) {
                                let _ = read_chunk_sections(slice);
                            }
                        }
                    }
                });
                assert!(
                    result.is_ok(),
                    "v5 parsing panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
    }

    #[test]
    fn layout_rows_are_self_consistent() {
        // The rows are data the writers and readers trust: an entry is the
        // 16-byte extent plus exactly the fields the row switches on, and
        // a config id needs a dictionary to index.
        for l in &LAYOUTS {
            let fields = 16 + l.mode_byte as usize + 2 * l.config_id as usize + 4 * l.crc as usize;
            assert_eq!(l.entry_size, fields, "v{}", l.version);
            assert_eq!(l.config_id, l.dictionary, "v{}", l.version);
            assert_eq!(layout_of(l.version).unwrap().version, l.version);
        }
        assert!(layout_of(VERSION).is_err());
        assert!(layout_of(VERSION_TUNED + 1).is_err());
    }

    #[test]
    fn chunk_bodies_reject_trailing_bytes() {
        let mut body = Vec::new();
        write_sections(&mut body, &[1.0], &[], &[7u8; 4]);
        assert!(read_chunk_sections(&body).is_ok());
        body.push(0xAB);
        assert!(matches!(
            read_chunk_sections(&body),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("trailing")
        ));

        // A v1 stream's body is a section body too: it must end at the
        // payload, through the parser and the decoder alike.
        let field = szhi_ndgrid::Grid::from_fn(Dims::d3(8, 8, 8), |z, y, x| (x + y * z) as f32);
        let cfg = crate::SzhiConfig::new(crate::ErrorBound::Absolute(1e-2));
        let mut v1 = crate::compress(&field, &cfg).unwrap();
        assert!(read_stream(&v1).is_ok());
        assert!(crate::decompress(&v1).is_ok());
        v1.push(0xAB);
        assert!(matches!(
            read_stream(&v1),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("trailing")
        ));
        assert!(matches!(
            crate::decompress(&v1),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("trailing")
        ));
    }
}
