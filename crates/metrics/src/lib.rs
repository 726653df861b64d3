//! Compression quality and performance metrics.
//!
//! This crate is the workspace's stand-in for the Z-checker tooling the
//! paper's evaluation relies on: it computes the distortion metrics (PSNR,
//! NRMSE, maximum point-wise error) and the speed metrics (GiB/s throughput) that every table and
//! figure of the paper reports.
#![forbid(unsafe_code)]

mod quality;
mod timing;

pub use quality::{verify_error_bound, QualityReport};
pub use timing::{throughput_gibps, Stopwatch};
