//! Stream inspection: a stable, human-readable dump of any container
//! version's metadata — header, chunk table, trailer, config dictionary
//! and the mode/config histograms — **without decoding a single payload
//! byte**. The output shape is pinned by the golden corpus
//! (`tests/golden/*.inspect.txt`), so keep every change here deliberate:
//! reformatting this report is a compatibility break the golden suite
//! will catch.

use std::fmt::Write;
use szhi_core::format::{self, ChunkTable, Header};
use szhi_core::{SzhiError, TRAILER_SIZE, VERSION};
use szhi_predictor::{LevelConfig, Scheme, Spline};

/// Renders the inspection report for a compressed stream. Fails with the
/// same typed errors the decoders produce (bad magic, truncated table,
/// checksum mismatch) and never panics on corrupt input — the byte-flip
/// harness in `tests/inspect_fuzz.rs` holds it to that.
pub fn render(bytes: &[u8]) -> Result<String, SzhiError> {
    let version = format::stream_version(bytes)?;
    let mut out = String::new();
    let _ = writeln!(out, "szhi stream: v{version} ({})", version_name(version));
    let _ = writeln!(out, "file size: {} bytes", bytes.len());
    if version == VERSION {
        let (header, anchors, outliers, payload) = format::read_stream(bytes)?;
        render_header(&mut out, &header);
        let _ = writeln!(out);
        let _ = writeln!(out, "sections:");
        let _ = writeln!(out, "  anchors:  {} values", anchors.len());
        let _ = writeln!(out, "  outliers: {} entries", outliers.len());
        let _ = writeln!(out, "  payload:  {} bytes", payload.len());
        return Ok(out);
    }
    let (header, table) = format::read_chunk_table(bytes)?;
    render_header(&mut out, &header);
    render_chunks(&mut out, &table);
    if version >= 4 {
        render_trailer(&mut out, bytes);
    }
    if !table.configs.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "config dictionary:");
        for (i, levels) in table.configs.iter().enumerate() {
            let _ = writeln!(out, "  {i}: {}", levels_str(levels));
        }
    }
    render_table(&mut out, &table);
    render_histograms(&mut out, &table);
    Ok(out)
}

fn version_name(version: u8) -> &'static str {
    match version {
        1 => "monolithic",
        2 => "chunked",
        3 => "streamed",
        4 => "trailered",
        5 => "tuned",
        _ => "unknown",
    }
}

fn render_header(out: &mut String, header: &Header) {
    let _ = writeln!(out);
    let _ = writeln!(out, "header:");
    let _ = writeln!(
        out,
        "  dims:     {} ({} points, {} bytes raw)",
        header.dims,
        header.dims.len(),
        header.dims.nbytes_f32()
    );
    let _ = writeln!(out, "  abs eb:   {:e}", header.abs_eb);
    let _ = writeln!(
        out,
        "  pipeline: {} (id {})",
        header.pipeline.name(),
        header.pipeline.id()
    );
    let _ = writeln!(
        out,
        "  reorder:  {}",
        if header.reorder { "on" } else { "off" }
    );
    let [bz, by, bx] = header.interp.block_span;
    let _ = writeln!(
        out,
        "  interp:   anchor stride {}, block span {bz}x{by}x{bx}",
        header.interp.anchor_stride,
    );
    let _ = writeln!(out, "  levels:   {}", levels_str(&header.interp.levels));
}

fn levels_str(levels: &[LevelConfig]) -> String {
    let parts: Vec<String> = levels
        .iter()
        .map(|lc| {
            let scheme = match lc.scheme {
                Scheme::DimSequence => "dimseq",
                Scheme::MultiDim => "multidim",
            };
            let spline = match lc.spline {
                Spline::Linear => "linear",
                Spline::Cubic => "cubic",
            };
            format!("{scheme}-{spline}")
        })
        .collect();
    parts.join(", ")
}

fn render_chunks(out: &mut String, table: &ChunkTable) {
    let data_bytes: usize = table.entries.iter().map(|e| e.len).sum();
    let _ = writeln!(out);
    let _ = writeln!(out, "chunks:");
    let [sz, sy, sx] = table.span;
    let _ = writeln!(out, "  span:        {sz}x{sy}x{sx}");
    let _ = writeln!(out, "  count:       {}", table.entries.len());
    let _ = writeln!(out, "  data start:  {}", table.data_start);
    let _ = writeln!(out, "  chunk bytes: {data_bytes}");
}

/// The fixed-size trailer, parsed by hand from the last
/// [`TRAILER_SIZE`] bytes: `table_offset u64 | n_chunks u64 |
/// table_crc32 u32 | magic`. `read_chunk_table` already validated it;
/// this only re-reads the fields for display, so a short stream simply
/// omits the section instead of failing.
fn render_trailer(out: &mut String, bytes: &[u8]) {
    let tail = match bytes
        .len()
        .checked_sub(TRAILER_SIZE)
        .and_then(|s| bytes.get(s..))
    {
        Some(tail) => tail,
        None => return,
    };
    let field = |range: std::ops::Range<usize>| -> u64 {
        let mut v = [0u8; 8];
        if let (Some(dst), Some(src)) = (v.get_mut(..range.len()), tail.get(range)) {
            dst.copy_from_slice(src);
        }
        u64::from_le_bytes(v)
    };
    let _ = writeln!(out);
    let _ = writeln!(out, "trailer:");
    let _ = writeln!(
        out,
        "  magic:        {}",
        String::from_utf8_lossy(tail.get(20..24).unwrap_or_default())
    );
    let _ = writeln!(out, "  table offset: {}", field(0..8));
    let _ = writeln!(out, "  n chunks:     {}", field(8..16));
    let _ = writeln!(out, "  table crc32:  {:#010x}", field(16..20) as u32);
}

fn render_table(out: &mut String, table: &ChunkTable) {
    let _ = writeln!(out);
    let _ = writeln!(out, "chunk table:");
    let _ = writeln!(
        out,
        "  {:>4}  {:>10}  {:>10}  {:<20}  {:>4}  {:<10}",
        "idx", "offset", "length", "pipeline", "cfg", "crc32"
    );
    for (i, e) in table.entries.iter().enumerate() {
        let cfg = match e.config {
            Some(id) => id.to_string(),
            None => "-".into(),
        };
        let crc = match e.checksum {
            Some(c) => format!("{c:#010x}"),
            None => "-".into(),
        };
        let _ = writeln!(
            out,
            "  {i:>4}  {:>10}  {:>10}  {:<20}  {cfg:>4}  {crc:<10}",
            e.offset,
            e.len,
            e.pipeline.name(),
        );
    }
}

/// The merged per-stream usage table: one row per (pipeline, config)
/// pair a chunk actually used, with the chunk count and the recorded
/// compressed bytes side by side, rendered through the shared telemetry
/// table renderer. Tuned (v5) streams show their config ids in the
/// `cfg` column; older versions show `-` there.
fn render_histograms(out: &mut String, table: &ChunkTable) {
    let mut groups: Vec<(u8, &str, Option<u16>, usize, usize)> = Vec::new();
    for e in &table.entries {
        match groups
            .iter_mut()
            .find(|(id, _, cfg, _, _)| *id == e.pipeline.id() && *cfg == e.config)
        {
            Some((_, _, _, n, bytes)) => {
                *n += 1;
                *bytes += e.len;
            }
            None => groups.push((e.pipeline.id(), e.pipeline.name(), e.config, 1, e.len)),
        }
    }
    groups.sort_by_key(|&(id, _, cfg, _, _)| (id, cfg));
    let rows: Vec<Vec<String>> = groups
        .iter()
        .map(|(id, name, cfg, n, bytes)| {
            vec![
                format!("{name} (id {id})"),
                match cfg {
                    Some(c) => c.to_string(),
                    None => "-".into(),
                },
                n.to_string(),
                bytes.to_string(),
            ]
        })
        .collect();
    let _ = writeln!(out);
    let _ = writeln!(out, "pipeline/config usage:");
    out.push_str(&szhi_telemetry::render_ascii_table(
        &["pipeline", "cfg", "chunks", "bytes"],
        &rows,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_core::{compress, ErrorBound, ModeTuning, SzhiConfig};
    use szhi_ndgrid::Dims;

    fn cfg() -> SzhiConfig {
        SzhiConfig::new(ErrorBound::Absolute(2e-3)).with_auto_tune(false)
    }

    #[test]
    fn renders_every_version_without_decoding_payloads() {
        let field = szhi_datagen::mixed_smooth_noisy(Dims::d3(24, 20, 32));
        let v1 = compress(&field, &cfg()).unwrap();
        let report = render(&v1).unwrap();
        assert!(report.contains("v1 (monolithic)"));
        assert!(report.contains("payload:"));
        assert!(report.contains("abs eb:   2e-3"));

        let v4 = compress(
            &field,
            &cfg()
                .with_chunk_span([16, 16, 16])
                .with_mode_tuning(ModeTuning::PerChunk),
        )
        .unwrap();
        let report = render(&v4).unwrap();
        assert!(report.contains("v4 (trailered)"));
        assert!(report.contains("pipeline/config usage:"));
        assert!(report.contains("chunk table:"));
        assert!(report.contains("magic:        SZT4"));
        assert!(!report.contains("config dictionary:"), "v4 has none");

        // A leading-table (v3) stream, from the frozen corpus.
        let report = render(&crate::golden::pinned(3).unwrap()).unwrap();
        assert!(report.contains("v3 (streamed)"));
        assert!(!report.contains("trailer:"), "v3 has no trailer");

        let v5 = compress(
            &field,
            &cfg()
                .with_chunk_span([16, 16, 16])
                .with_chunk_interp_tuning(true),
        )
        .unwrap();
        let report = render(&v5).unwrap();
        assert!(report.contains("v5 (tuned)"));
        assert!(report.contains("trailer:"));
        assert!(report.contains("magic:        SZT5"));
        assert!(report.contains("config dictionary:"));
        // The usage table carries the per-chunk config ids next to the
        // recorded compressed sizes — one table, not two histograms.
        assert!(report.contains("pipeline/config usage:"));
        assert!(report.contains("  pipeline"));
        assert!(report.contains("cfg"));
        assert!(report.contains("chunks"));
        assert!(report.contains("bytes"));
    }

    #[test]
    fn garbage_input_is_a_typed_error() {
        assert!(render(b"not a szhi stream at all").is_err());
        assert!(render(b"").is_err());
    }
}
