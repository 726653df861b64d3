//! Lossless encoding substrate for the `szhi` workspace.
//!
//! The cuSZ-Hi paper's second contribution is a pair of multi-stage lossless
//! pipelines for the quantization codes produced by its interpolation
//! predictor (§5.2, Figures 6 and 7):
//!
//! * **CR mode** — `HF → RRE4 → TCMS8 → RZE1` (Huffman entropy coding
//!   followed by repeat-elimination, magnitude-sign transform and
//!   zero-elimination), maximising compression ratio;
//! * **TP mode** — `TCMS1 → BIT1 → RRE1` (magnitude-sign transform, bit
//!   shuffle, repeat-elimination), a Huffman-free pipeline maximising
//!   throughput.
//!
//! This crate implements every building block those pipelines need, plus the
//! additional encoders the paper benchmarks in Figure 6 and uses in its
//! baselines:
//!
//! * [`bitio`] — bit-level writers/readers and integer packing.
//! * [`huffman`] — canonical Huffman coding over byte symbols.
//! * [`components`] — the LC-framework-style composable stages
//!   (`RRE`/`RZE`/`TCMS`/`BIT`/`DIFFMS`/`CLOG`/`TUPL`).
//! * `pipeline` — the lossless stages and the named pipeline catalogue.
//! * [`bitcomp_sim`] — an open-source stand-in for NVIDIA Bitcomp
//!   (the module doc holds the substitution rationale).
//! * `ans` — a static range coder standing in for nvCOMP's ANS.
//! * `lz` — an LZSS-style dictionary coder standing in for
//!   GPULZ / nvCOMP LZ4.
//! * [`fixedlen`] — per-block fixed-length bit packing (used by the cuSZp2
//!   and FZ-GPU baselines).
//! * [`checksum`] — CRC32 (IEEE) integrity checksums for the chunked
//!   stream containers.
//!
//! Every encoder in this crate is strictly lossless and exposes an
//! `encode`/`decode` pair; round-trip behaviour is covered by unit tests and
//! property tests.
#![forbid(unsafe_code)]

mod ans;
pub mod bitcomp_sim;
pub mod bitio;
pub mod checksum;
pub mod components;
mod error;
pub mod fixedlen;
mod histogram;
pub mod huffman;
mod lz;
mod pipeline;
pub mod trial;

pub use error::CodecError;
pub use pipeline::{PipelineSpec, Stage, StageSpec};
