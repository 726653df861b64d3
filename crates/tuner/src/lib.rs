//! # szhi-tuner — sampling-based cost-model orchestration
//!
//! The paper's core claim is that the lossy predictor configuration and
//! the lossless pipeline should be chosen **jointly, per region** — but
//! trial-encoding every candidate pipeline on every chunk is exactly the
//! cost the paper's "optimized" orchestration avoids. This crate provides
//! the cheap middle path, in the spirit of cuSZ+'s histogram-driven size
//! estimation:
//!
//! 1. [`sample::sample_codes`] draws a **deterministic** subset of a
//!    chunk's quantization codes (evenly spaced contiguous segments, so
//!    run structure survives);
//! 2. `CodeStats` summarises the sample (code histogram, Shannon
//!    entropy);
//! 3. `estimate_sizes` walks each candidate pipeline's
//!    [`StageSpec`](szhi_codec::StageSpec) list with **stage-aware
//!    models**: component stages (RRE/RZE/TCMS/BIT/…) are applied to the
//!    sample itself — their zero-run and occupancy effects propagate
//!    exactly — while entropy-coder stages (Huffman/ANS) are closed with
//!    the histogram → entropy bound, which needs no encode at all; it
//!    estimates a whole candidate list in one pass over the sample,
//!    running each shared stage prefix once;
//! 4. [`select::select_pipeline`] ranks the full candidate list by
//!    estimated size and trials only a short refinement list (the
//!    estimated top few plus the configured default) on the codec's
//!    stage-level trial engine, so the chosen payload is always a *real*
//!    encode and never worse than the default mode — at a fraction of the
//!    exhaustive trial-encode cost.
//!
//! The same per-chunk philosophy applies to the lossy side:
//! [`interp::tune_chunk_interp`] scores the standard per-level
//! interpolation candidates (`szhi_predictor::autotune::candidates`) on
//! a sampled subset of the chunk's blocks, giving every chunk its own
//! predictor configuration (carried by the v5 container's config
//! dictionary in `szhi-core`).
//!
//! Everything in this crate is a pure function of its inputs — no RNG,
//! and no global state but a table of each pipeline's constant output
//! sizes — so orchestration decisions are byte-reproducible at any
//! worker-thread count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod estimate;
mod interp;
mod sample;
mod select;
mod stats;

pub use interp::tune_chunk_interp;
pub use sample::sample_codes;
pub use select::{select_pipeline, SelectParams, Selection};
