//! # szhi — a Rust reproduction of cuSZ-Hi
//!
//! `szhi` is an umbrella crate re-exporting the public API of the workspace
//! that reproduces the SC 2025 paper *"Boosting Scientific Error-Bounded
//! Lossy Compression through Optimized Synergistic Lossy-Lossless
//! Orchestration"* (cuSZ-Hi).
//!
//! The primary entry points are [`szhi_core::compress`] and
//! [`szhi_core::decompress`] (re-exported here), which implement the
//! cuSZ-Hi compressor with its two lossless pipelines (`CR` and `TP` modes).
//! The [`baselines`] module provides from-scratch re-implementations of the
//! compressors the paper compares against, and [`datagen`] provides the
//! synthetic scientific field generators used by the experiment harness.
//!
//! ```
//! use szhi::prelude::*;
//!
//! // Generate a small turbulence-like 3D field.
//! let field = szhi::datagen::DatasetKind::Jhtdb.generate(szhi::ndgrid::Dims::d3(32, 32, 32), 7);
//! // Compress with a value-range-relative error bound of 1e-3 (CR mode).
//! let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_mode(PipelineMode::Cr);
//! let compressed = compress(&field, &cfg).unwrap();
//! let restored = decompress(&compressed).unwrap();
//! assert_eq!(restored.dims(), field.dims());
//! ```
#![forbid(unsafe_code)]

pub use szhi_baselines as baselines;
pub use szhi_codec as codec;
pub use szhi_core as core;
pub use szhi_datagen as datagen;
pub use szhi_metrics as metrics;
pub use szhi_ndgrid as ndgrid;
pub use szhi_predictor as predictor;
pub use szhi_tuner as tuner;

pub use szhi_core::{compress, decompress};

/// Commonly used items for working with the compressor.
pub mod prelude {
    pub use szhi_baselines::Compressor;
    pub use szhi_core::{
        compress, decompress, ErrorBound, ForwardSource, JobHandle, JobProgress, JobService,
        ModeTuning, PipelineMode, StreamSink, StreamSource, SzhiConfig,
    };
    pub use szhi_datagen::DatasetKind;
    pub use szhi_metrics::QualityReport;
    pub use szhi_ndgrid::{Dims, Grid};
}
