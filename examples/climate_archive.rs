//! Climate-archive scenario: sweep error bounds on a 2D CESM-like field.
//!
//! ```bash
//! cargo run --release --example climate_archive
//! ```
//!
//! Climate model output (the paper's CESM-ATM dataset) is archived for
//! decades, so archives care about the ratio/fidelity trade-off: this example
//! compresses a 2D atmosphere-like field at several error bounds, prints the
//! resulting storage budget per snapshot, and shows how the two cuSZ-Hi modes
//! compare against the Lorenzo-based cuSZ-L baseline that a GPU workflow
//! might otherwise use.

use szhi::baselines::{Compressor, CuszL, SzhiCr, SzhiTp};
use szhi::prelude::*;

fn main() {
    // A 450×900 atmospheric field (a 1:4-scale CESM-ATM snapshot).
    let field = DatasetKind::CesmAtm.generate(Dims::d2(450, 900), 7);
    let snapshot_bytes = field.dims().nbytes_f32();
    println!(
        "snapshot: {} ({} KiB)\n",
        field.dims(),
        snapshot_bytes / 1024
    );

    let compressors: Vec<Box<dyn Compressor>> =
        vec![Box::new(SzhiCr), Box::new(SzhiTp), Box::new(CuszL)];

    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}",
        "compressor", "rel. eb", "ratio", "KiB/snapshot", "PSNR dB"
    );
    for rel_eb in [1e-2, 1e-3, 1e-4] {
        for c in &compressors {
            let bytes = c
                .compress(&field, ErrorBound::Relative(rel_eb))
                .expect("compress");
            let restored = c.decompress(&bytes).expect("decompress");
            let q = QualityReport::compare(&field, &restored);
            // The dual-quantization baselines (cuSZ-L) reconstruct through a
            // single f64→f32 cast, adding up to |value|·f32::EPSILON on top
            // of the bound (derived in tests/end_to_end.rs::assert_bound);
            // at tight bounds that cast noise dominates, so allow it here.
            let max_abs = field.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
            let slack = max_abs * f32::EPSILON as f64 + 1e-12;
            assert!(
                q.max_abs_error <= rel_eb * field.value_range() as f64 + slack,
                "{} violated the bound at eb {rel_eb:e}: {} > {}",
                c.name(),
                q.max_abs_error,
                rel_eb * field.value_range() as f64
            );
            println!(
                "{:<12} {:>10.0e} {:>12.1} {:>12.1} {:>10.1}",
                c.name(),
                rel_eb,
                snapshot_bytes as f64 / bytes.len() as f64,
                bytes.len() as f64 / 1024.0,
                q.psnr
            );
        }
        println!();
    }
    println!(
        "A year of daily snapshots at eb=1e-3 fits in roughly the space of a week of raw output."
    );
}
