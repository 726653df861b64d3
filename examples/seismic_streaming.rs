//! Seismic-imaging scenario: streaming compression of RTM snapshots to
//! real files with bounded memory.
//!
//! ```bash
//! cargo run --release --example seismic_streaming
//! ```
//!
//! Reverse-time-migration (the paper's RTM dataset) writes a long sequence
//! of wavefield snapshots that must be compressed on the fly and read back
//! later in reverse order. This example streams each snapshot through the
//! v4 [`StreamSink`] straight onto a `File` — neither the uncompressed
//! snapshot nor the compressed stream ever exists in memory in one piece:
//! each chunk body hits the disk the moment it is encoded, and the chunk
//! table plus trailer land at `finish()`. The archive is then replayed in
//! reverse through the seek-based [`StreamSource`], which locates each
//! file's chunk table via its trailer and lets the CRC32 table and chunk
//! checksums vouch for the archive's integrity, one chunk in memory at a
//! time.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::time::Instant;
use szhi::prelude::*;

fn archive_path(dir: &std::path::Path, step: usize) -> PathBuf {
    dir.join(format!("rtm_snapshot_{step:03}.szhi"))
}

fn main() {
    let dims = Dims::d3(96, 96, 48);
    let n_snapshots = 8;
    // Each time step is a different wavefield snapshot (seeded by step).
    let originals: Vec<Grid<f32>> = (0..n_snapshots)
        .map(|step| DatasetKind::Rtm.generate(dims, 1000 + step as u64))
        .collect();
    // Streaming can't resolve a value-range-relative bound (the sink never
    // sees the whole field), so derive the absolute bound once from the
    // first snapshot's dynamic range — what a real acquisition pipeline does
    // with its instrument precision.
    let abs_eb = 1e-3 * originals[0].value_range() as f64;
    // A streaming-safe configuration: absolute bound, no whole-field
    // auto-tune, 48³-aligned chunks, per-chunk pipeline selection.
    let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
        .with_auto_tune(false)
        .with_chunk_span([48, 48, 48])
        .with_mode_tuning(ModeTuning::PerChunk);

    let dir = std::env::temp_dir().join(format!("szhi_seismic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create archive directory");
    println!(
        "streaming {n_snapshots} RTM-like snapshots of {dims} each to {}\n",
        dir.display()
    );

    let mut total_in = 0usize;
    let mut total_out = 0u64;
    let start = Instant::now();
    for (step, snapshot) in originals.iter().enumerate() {
        // Feed the sink one chunk at a time, as a solver would emit them;
        // every chunk body goes to the file immediately.
        let file = BufWriter::new(File::create(archive_path(&dir, step)).expect("create archive"));
        let mut sink = StreamSink::new(file, dims, &cfg).expect("streaming config");
        while let Some(region) = sink.next_chunk_region() {
            let chunk_dims = sink.plan().chunk_dims(sink.next_index());
            let chunk = Grid::from_vec(chunk_dims, snapshot.extract(&region));
            sink.push_chunk(&chunk).expect("push");
        }
        let (_, stats) = sink.finish_with_stats().expect("finish");
        total_in += dims.nbytes_f32();
        total_out += stats.compressed_bytes as u64;
    }
    let elapsed = start.elapsed();
    println!(
        "compressed {:.1} MiB into {:.1} MiB ({:.1}x) at {:.2} GiB/s sustained",
        total_in as f64 / (1 << 20) as f64,
        total_out as f64 / (1 << 20) as f64,
        total_in as f64 / total_out as f64,
        total_in as f64 / (1u64 << 30) as f64 / elapsed.as_secs_f64()
    );

    // RTM consumes the snapshots in reverse order during the imaging sweep;
    // the seek-based source checks the table CRC32 at open and every
    // chunk's CRC32 before decoding it — one chunk in memory at a time.
    for (step, original) in originals.iter().enumerate().rev() {
        let file = BufReader::new(File::open(archive_path(&dir, step)).expect("open archive"));
        let mut source = StreamSource::new(file).expect("parse trailer + table");
        let mut restored = Grid::zeros(dims);
        let mut modes = std::collections::BTreeSet::new();
        for i in 0..source.chunk_count() {
            modes.insert(
                source
                    .index()
                    .chunk_pipeline(i)
                    .expect("chunk pipeline")
                    .name(),
            );
        }
        for chunk in source.chunks() {
            let (region, sub) = chunk.expect("chunk decode");
            restored.insert(&region, sub.as_slice());
        }
        let q = QualityReport::compare(original, &restored);
        assert!(
            q.max_abs_error <= abs_eb + 1e-9,
            "snapshot {step} violated its bound"
        );
        if step == 0 || step == n_snapshots - 1 {
            println!(
                "snapshot {step}: PSNR {:.1} dB, max error {:.3e} ≤ bound {:.3e}, chunk modes {:?}",
                q.psnr, q.max_abs_error, abs_eb, modes
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("all snapshots verified within the error bound (reverse replay order).");
}
