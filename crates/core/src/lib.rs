//! # szhi-core — the cuSZ-Hi compressor
//!
//! This crate is the paper's primary contribution: a high-ratio scientific
//! error-bounded lossy compressor built from the synergistic combination of
//!
//! 1. an **optimized interpolation-based lossy decomposition** — anchor
//!    stride 16, isotropic 17³ tiles, multi-dimensional spline interpolation
//!    with per-level auto-tuning (§5.1);
//! 2. a **level-ordered reordering** of the quantization codes (§5.1.4); and
//! 3. one of two **multi-stage lossless pipelines** (§5.2): the
//!    ratio-preferred `HF-RRE4-TCMS8-RZE1` (CR mode) or the
//!    throughput-preferred `TCMS1-BIT1-RRE1` (TP mode).
//!
//! The public API is two functions:
//!
//! ```
//! use szhi_core::{compress, decompress, ErrorBound, PipelineMode, SzhiConfig};
//! use szhi_ndgrid::{Dims, Grid};
//!
//! let field = Grid::from_fn(Dims::d3(24, 24, 24), |z, y, x| {
//!     ((x as f32) * 0.2).sin() + ((y + z) as f32) * 0.05
//! });
//! let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_mode(PipelineMode::Cr);
//! let bytes = compress(&field, &cfg).unwrap();
//! let restored = decompress(&bytes).unwrap();
//! assert_eq!(restored.dims(), field.dims());
//! let abs_eb = 1e-3 * field.value_range() as f64;
//! for (a, b) in field.as_slice().iter().zip(restored.as_slice()) {
//!     assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb);
//! }
//! ```
//!
//! ## Chunked streams
//!
//! [`SzhiConfig::with_chunk_span`] switches the engine from "one grid, one
//! stream" to "one grid, N independent chunks": the field is partitioned
//! into non-overlapping chunks ([`szhi_ndgrid::ChunkPlan`]), each chunk is
//! compressed as a self-contained sub-field (its own anchors, quantization
//! codes and outliers), and the stream carries a chunk table, so chunks
//! compress **and** decompress in parallel and any single chunk can be
//! reconstructed without touching the rest of the stream
//! ([`decompress_chunk`]). Every chunk-table entry records the chunk's
//! extent, the lossless pipeline that encoded it (the *mode byte*) and a
//! CRC32 integrity checksum, verified before any decoder touches the
//! chunk's bytes. The chunk bodies follow the header directly; the table
//! and a fixed-size trailer that locates it close the stream (the
//! **trailered v4 container**):
//!
//! ```text
//! <header, version = 4>
//! | chunk_span 3×u32
//! | n_chunks × chunk body (anchors | outliers | pipeline payload)
//! | n_chunks × (offset u64, length u64, pipeline_id u8, crc32 u32)
//! | table_offset u64 | n_chunks u64 | table_crc32 u32 | "SZT4"
//! ```
//!
//! Older containers stay readable: v1 (monolithic, still what [`compress`]
//! emits without a chunk span), v2 (chunked, no mode byte or checksum) and
//! v3 (the same table *leading* the data area) all decode through the same
//! [`decompress`] entry point, though the library no longer writes v2 or
//! v3. The byte-level specification of all five versions lives in
//! `docs/FORMAT.md` at the repository root.
//!
//! The **chunk-alignment rule**: the span must be a positive multiple of
//! the predictor's anchor stride (16 for cuSZ-Hi) along every
//! non-degenerate axis; spans larger than the field clamp to one
//! whole-field chunk. Chunk origins then sit on the global anchor lattice,
//! and the only compression cost of chunking is the duplicated anchor
//! plane at each chunk boundary.
//!
//! Chunked streams are **byte-identical at every worker-thread count**:
//! each chunk is a pure function of its sub-field and the (globally
//! resolved) configuration, and the container assembles chunks in plan
//! order. The thread count comes from the `SZHI_NUM_THREADS` environment
//! variable (default: all hardware threads); `1` forces fully sequential
//! execution with the same output bytes.
//!
//! ```
//! use szhi_core::{compress, decompress, decompress_chunk, ErrorBound, SzhiConfig};
//! use szhi_ndgrid::{Dims, Grid};
//!
//! let field = Grid::from_fn(Dims::d3(40, 40, 40), |z, y, x| {
//!     ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
//! });
//! let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
//! let bytes = compress(&field, &cfg).unwrap();
//! // Whole-field decompression fans out over chunks, into the output...
//! assert_eq!(decompress(&bytes).unwrap().dims(), field.dims());
//! // ...or reconstruct a single chunk by random access.
//! let (region, sub) = decompress_chunk(&bytes, 0).unwrap();
//! assert_eq!(sub.len(), region.len());
//! ```
//!
//! ## Streaming (one writer, one reader)
//!
//! The batch engine needs the whole field in memory. [`StreamSink`] — the
//! only chunked writer, which the batch engine itself drives — inverts
//! that: backed by any [`std::io::Write`], it emits the header immediately,
//! accepts anchor-aligned chunks as they arrive, appends each chunk body
//! the moment it is encoded, and closes the stream with the chunk table and
//! trailer. Memory high-water is one encoded chunk plus the table — a field
//! larger than RAM compresses straight onto a `File` or socket. With
//! [`ModeTuning::PerChunk`] the sink picks every chunk's lossless pipeline
//! independently (recorded in the chunk table), so smooth and noisy
//! regions of one field each get the pipeline that compresses them best.
//! Because the sink never sees the whole field, its configuration must be
//! streaming-safe: an [`ErrorBound::Absolute`] bound and whole-field
//! auto-tuning disabled.
//!
//! [`ChunkReader`] is the matching bounded-memory reader. As a
//! [`StreamSource`] over any [`std::io::Read`]` + `[`std::io::Seek`] (and,
//! via [`StreamSource::from_bytes`], over an in-memory stream) it finds the
//! table via the trailer (verifying the table against the trailer's CRC32
//! before parsing a single entry) and fetches chunks in any order with one
//! seek and one bounded read each. [`ForwardSource::new`] opens the same
//! reader off a plain [`std::io::Read`]: it reads the stream to its end and
//! reads the bytes like a file. Every source has the metadata view
//! ([`ChunkReader::index`]), `read_chunk`, the chunk iterator and
//! `read_all`; it and [`decompress`] share one path that locates and
//! validates the chunk table and one step that verifies a fetched body's
//! CRC32 and decodes it into a reused chunk scratch. Whole-field decodes
//! copy each chunk straight into the output: [`decompress`] through one
//! scratch per pool worker, `read_all` and the job service's decompress
//! through one serial drain, so a decode holds the field plus one chunk per
//! worker. `read_chunk`, the chunk iterator and [`decompress_chunk`]
//! return an owned chunk and keep no scratch.
//!
//! ## Cost-model orchestration (the v5 tuned container)
//!
//! Trial-encoding every candidate pipeline on every chunk is exactly the
//! cost the paper's *optimized* orchestration avoids.
//! [`ModeTuning::Estimated`] widens the per-chunk candidate set to the
//! full Figure-6 catalogue at a fraction of the exhaustive tuning cost:
//! the `szhi-tuner` cost models estimate every candidate's output size
//! from a deterministic sample of the chunk's codes (code histogram →
//! Huffman/ANS entropy bound, zero-run density → RRE/RZE gain, byte-range
//! occupancy → TCMS/BIT viability) and only the estimated best few are
//! trial-encoded for real; [`ModeTuning::Exhaustive`] is the ground truth
//! it is benchmarked against. Orthogonally,
//! [`SzhiConfig::with_chunk_interp_tuning`] scores the per-level
//! interpolation candidates on every chunk's own blocks; the winning
//! configurations are carried by the **tuned (v5) container** — a config
//! dictionary in the CRC-protected table region and a config id per
//! 23-byte chunk-table entry — and every reader decodes each chunk with
//! its own configuration. All orchestration decisions are pure functions
//! of the chunk data, so tuned streams stay byte-identical at every
//! worker-thread count.
//!
//! ```
//! use szhi_core::{ErrorBound, ModeTuning, StreamSink, StreamSource, SzhiConfig};
//! use szhi_ndgrid::{Dims, Grid};
//!
//! let dims = Dims::d3(64, 32, 32);
//! let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3))
//!     .with_auto_tune(false)
//!     .with_chunk_span([32, 32, 32])
//!     .with_mode_tuning(ModeTuning::PerChunk);
//! let mut sink = StreamSink::new(Vec::new(), dims, &cfg).unwrap();
//! // Chunks are produced on demand — the full field never exists.
//! while let Some(region) = sink.next_chunk_region() {
//!     let chunk = Grid::from_fn(region.dims(), |z, y, x| {
//!         ((region.x0() + x) as f32 * 0.1).sin()
//!             + ((region.y0() + y) + (region.z0() + z)) as f32 * 0.01
//!     });
//!     let receipt = sink.push_chunk(&chunk).unwrap();
//!     assert!(receipt.compressed_bytes > 0);
//! }
//! let bytes = sink.finish().unwrap();
//!
//! // Read back lazily: one reconstructed sub-field in memory at a time.
//! let mut source = StreamSource::from_bytes(&bytes).unwrap();
//! for chunk in source.chunks() {
//!     let (region, sub) = chunk.unwrap();
//!     assert_eq!(sub.len(), region.len());
//! }
//! ```
//!
//! ## Serving (pipes and concurrent jobs)
//!
//! Two pieces turn the engine into a serving layer. [`ForwardSource`]
//! decodes any chunked container over a plain [`std::io::Read`] — no
//! `Seek` — so compressed streams decode straight off a pipe, socket or
//! `stdin`. One rule covers every version: the header prefix is validated
//! as it arrives, the rest of the stream is read to its end, and the bytes
//! are read like a file, so a pipe holds the compressed stream and the
//! seekable source is the bounded one (see `docs/FORMAT.md`).
//! [`jobs::JobService`]
//! runs many compress / decompress jobs concurrently over the shared
//! worker pool, each with per-job progress reporting and cooperative
//! cancellation that poisons the job's sink — and every job's output stays
//! byte-identical to a serial run. The `szhi-cli` binary serves files and
//! pipes through `encode` / `decode` / `inspect` subcommands.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod compressor;
mod config;
mod error;
pub mod format;
pub mod jobs;
mod stream;
mod telemetry;

pub use compressor::{
    chunk_count, compress, compress_chunked, decompress, decompress_chunk, CompressionStats,
};
pub use config::{ErrorBound, ModeTuning, PipelineMode, SzhiConfig};
pub use error::SzhiError;
pub use format::{
    stream_version, Header, StreamIndex, MAGIC, TRAILER_SIZE, VERSION, VERSION_TUNED,
};
pub use jobs::{JobHandle, JobProgress, JobService};
pub use stream::{ChunkReader, ChunkReceipt, ForwardSource, StreamSink, StreamSource};
