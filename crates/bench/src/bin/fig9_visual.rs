//! Figure 9: visual quality at matched compression ratio.
//!
//! Reproduces the paper's Figure 9: decompressed slices of the JHTDB and RTM
//! fields from several compressors whose error bounds have been adjusted so
//! that all achieve (approximately) the same compression ratio, reporting the
//! error bound actually used, the achieved ratio and the PSNR, and writing
//! the central slice of the original and of every reconstruction as PGM
//! images under `fig9_out/`.
//!
//! Run with `cargo run -p szhi-bench --release --bin fig9_visual`.

use std::io::Write;
use std::path::Path;

use szhi_baselines::{Compressor, CuZfp, CuszIb, CuszL, SzhiCr, SzhiTp};
use szhi_bench::{dataset, print_table, scale_from_args};
use szhi_core::ErrorBound;
use szhi_datagen::DatasetKind;
use szhi_metrics::QualityReport;
use szhi_ndgrid::Grid;

/// Finds, by bisection over the relative error bound, the bound at which the
/// compressor reaches approximately the target ratio.
fn match_ratio(c: &dyn Compressor, data: &Grid<f32>, target: f64) -> Option<(f64, Vec<u8>)> {
    let bytes_in = data.dims().nbytes_f32() as f64;
    let mut lo = 1e-6f64;
    let mut hi = 0.3f64;
    let mut best: Option<(f64, Vec<u8>, f64)> = None;
    for _ in 0..18 {
        // Geometric midpoint of the current error-bound bracket.
        let eb = (lo * hi).sqrt();
        let Ok(bytes) = c.compress(data, ErrorBound::Relative(eb)) else {
            return None;
        };
        let ratio = bytes_in / bytes.len() as f64;
        let err = (ratio - target).abs();
        if best.as_ref().is_none_or(|(_, _, e)| err < *e) {
            best = Some((eb, bytes.clone(), err));
        }
        if ratio < target {
            lo = eb;
        } else {
            hi = eb;
        }
    }
    best.map(|(eb, bytes, _)| (eb, bytes))
}

/// Writes a 2D slice as an 8-bit PGM image, normalised to the slice range.
fn write_pgm(path: &Path, slice: &[f32], ny: usize, nx: usize) -> std::io::Result<()> {
    let (lo, hi) = slice
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let range = if hi > lo { hi - lo } else { 1.0 };
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "P5\n{nx} {ny}\n255")?;
    let pixels: Vec<u8> = slice
        .iter()
        .map(|&v| (((v - lo) / range) * 255.0) as u8)
        .collect();
    f.write_all(&pixels)
}

fn main() {
    let scale = scale_from_args();
    let out_dir = Path::new("fig9_out");
    std::fs::create_dir_all(out_dir).expect("cannot create fig9_out/");

    // The paper matches CR ≈ 144 on JHTDB #2500 and ≈ 130 on RTM #3600; at
    // laptop scale the matched target is configurable via the paper's values.
    let cases = [(DatasetKind::Jhtdb, 144.0), (DatasetKind::Rtm, 130.0)];
    for (kind, target) in cases {
        let data = dataset(kind, scale);
        let mid_z = data.dims().nz() / 2;
        let (ny, nx) = (data.dims().ny(), data.dims().nx());
        write_pgm(
            &out_dir.join(format!("{}_original.pgm", kind.name())),
            &data.plane_z(mid_z),
            ny,
            nx,
        )
        .unwrap();

        let compressors: Vec<Box<dyn Compressor>> = vec![
            Box::new(SzhiCr),
            Box::new(SzhiTp),
            Box::new(CuszIb),
            Box::new(CuszL),
        ];
        let mut rows = Vec::new();
        for c in &compressors {
            let Some((eb, bytes)) = match_ratio(c.as_ref(), &data, target) else {
                rows.push(vec![
                    c.name().to_string(),
                    "failed".into(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            };
            let restored = c.decompress(&bytes).expect("decompress");
            let q = QualityReport::compare(&data, &restored);
            let ratio = data.dims().nbytes_f32() as f64 / bytes.len() as f64;
            write_pgm(
                &out_dir.join(format!(
                    "{}_{}.pgm",
                    kind.name(),
                    c.name().replace('/', "_")
                )),
                &restored.plane_z(mid_z),
                ny,
                nx,
            )
            .unwrap();
            rows.push(vec![
                c.name().to_string(),
                format!("{eb:.2e}"),
                format!("{ratio:.1}"),
                format!("{:.1}", q.psnr),
            ]);
        }
        // Fixed-rate cuZFP at the rate closest to the matched bitrate.
        let rate = (32.0 / target * 4.0).clamp(1.0, 16.0).round().max(1.0);
        let zfp = CuZfp::with_rate(rate);
        if let Ok(bytes) = zfp.compress(&data, ErrorBound::Relative(1e-3)) {
            let restored = zfp.decompress(&bytes).unwrap();
            let q = QualityReport::compare(&data, &restored);
            let ratio = data.dims().nbytes_f32() as f64 / bytes.len() as f64;
            write_pgm(
                &out_dir.join(format!("{}_cuZFP.pgm", kind.name())),
                &restored.plane_z(mid_z),
                ny,
                nx,
            )
            .unwrap();
            rows.push(vec![
                format!("cuZFP (rate {rate})"),
                "-".into(),
                format!("{ratio:.1}"),
                format!("{:.1}", q.psnr),
            ]);
        }
        print_table(
            &format!(
                "Figure 9 — matched-CR quality on {kind} (target CR ≈ {target}, scale {scale})"
            ),
            &["compressor", "rel. eb used", "achieved CR", "PSNR (dB)"],
            &rows,
        );
    }
    println!("\nSlice images written to fig9_out/*.pgm (central z-plane, normalised to 8-bit grayscale).");
}
