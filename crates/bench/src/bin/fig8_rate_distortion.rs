//! Figure 8: rate-distortion curves.
//!
//! Reproduces the paper's Figure 8: for every dataset family, the bit rate
//! (bits per value) and the decompression PSNR of every compressor over a
//! sweep of error bounds (or rates, for fixed-rate cuZFP). The output is a
//! CSV-like series per dataset, one row per (compressor, sweep point).
//!
//! Run with `cargo run -p szhi-bench --release --bin fig8_rate_distortion`.

use szhi_baselines::{Compressor, CuZfp};
use szhi_bench::{dataset, error_bounded_compressors, run_cell, scale_from_args};
use szhi_core::ErrorBound;
use szhi_metrics::QualityReport;

/// The relative-error-bound sweep for error-bounded compressors.
const EB_SWEEP: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];
/// The rate sweep (bits/value) for fixed-rate cuZFP.
const ZFP_RATES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

fn main() {
    let scale = scale_from_args();
    println!("dataset,compressor,rel_eb_or_rate,bitrate,psnr,compression_ratio");
    for kind in szhi_datagen::all_kinds() {
        let data = dataset(kind, scale);
        eprintln!("# {kind}: {}", data.dims());
        for c in error_bounded_compressors() {
            for &eb in &EB_SWEEP {
                match run_cell(c.as_ref(), &data, kind.name(), eb) {
                    Ok(r) => println!(
                        "{},{},{:.0e},{:.4},{:.2},{:.2}",
                        kind.name(),
                        r.compressor,
                        eb,
                        r.bitrate,
                        r.psnr,
                        r.ratio
                    ),
                    Err(e) => println!("{},{},{eb:.0e},err({e})", kind.name(), c.name()),
                }
            }
        }
        // Fixed-rate cuZFP sweep.
        for &rate in &ZFP_RATES {
            let c = CuZfp::with_rate(rate);
            let bytes = match c.compress(&data, ErrorBound::Relative(1e-3)) {
                Ok(b) => b,
                Err(e) => {
                    println!("{},cuZFP,{rate},err({e})", kind.name());
                    continue;
                }
            };
            let restored = c
                .decompress(&bytes)
                .expect("cuZFP must decompress its own stream");
            let q = QualityReport::compare(&data, &restored);
            let bitrate = bytes.len() as f64 * 8.0 / data.len() as f64;
            println!(
                "{},cuZFP,{rate},{:.4},{:.2},{:.2}",
                kind.name(),
                bitrate,
                q.psnr,
                data.dims().nbytes_f32() as f64 / bytes.len() as f64
            );
        }
    }
    eprintln!("\nPlot bitrate (x) against PSNR (y) per dataset to reproduce Figure 8.");
}
