//! Figure 5: effect of level-ordered quantization-code reordering.
//!
//! Reproduces the paper's Figure 5 (Miranda pressure-like field, relative
//! error bound 1e-3): the quantization-code value as a function of sequence
//! index for the raster-flattened array versus the level-reordered array.
//! The binary prints a down-sampled series for both orderings (suitable for
//! plotting) plus smoothness summary statistics.
//!
//! Run with `cargo run -p szhi-bench --release --bin fig5_reorder`.

use szhi_bench::{dataset, print_table, quant_codes, scale_from_args};
use szhi_datagen::DatasetKind;

/// Mean absolute difference between adjacent codes — the "oscillation" the
/// paper's Figure 5 visualises.
fn roughness(codes: &[u8]) -> f64 {
    if codes.len() < 2 {
        return 0.0;
    }
    codes
        .windows(2)
        .map(|w| (w[0] as i32 - w[1] as i32).abs() as f64)
        .sum::<f64>()
        / (codes.len() - 1) as f64
}

/// Index of the last code whose magnitude exceeds `threshold` (distance from
/// the zero-error centre 128), as a fraction of the sequence length: after
/// reordering, the outliers concentrate at the front of the sequence.
fn last_large_position(codes: &[u8], threshold: i32) -> f64 {
    let mut last = 0usize;
    for (i, &c) in codes.iter().enumerate() {
        if (c as i32 - 128).abs() > threshold {
            last = i;
        }
    }
    last as f64 / codes.len().max(1) as f64
}

fn main() {
    let scale = scale_from_args();
    let data = dataset(DatasetKind::Miranda, scale);
    let eb = 1e-3;
    eprintln!("# Miranda-like field {} at relative eb {eb}", data.dims());

    let flat = quant_codes(&data, eb, false);
    let reordered = quant_codes(&data, eb, true);

    // Down-sampled series for plotting (at most 512 samples per ordering).
    let step = (flat.len() / 512).max(1);
    println!("## Figure 5 — quantization-code value by sequence index (every {step}-th code)");
    println!("index,non_reordered,reordered");
    for i in (0..flat.len()).step_by(step) {
        println!("{i},{},{}", flat[i], reordered[i]);
    }

    let rows = vec![
        vec![
            "adjacent-code roughness (mean |Δ|)".to_string(),
            format!("{:.4}", roughness(&flat)),
            format!("{:.4}", roughness(&reordered)),
        ],
        vec![
            "last |code−128| > 8 position (fraction of sequence)".to_string(),
            format!("{:.3}", last_large_position(&flat, 8)),
            format!("{:.3}", last_large_position(&reordered, 8)),
        ],
        vec![
            "CR-pipeline encoded size (bytes)".to_string(),
            format!("{}", szhi_codec::PipelineSpec::CR.encode(&flat).len()),
            format!("{}", szhi_codec::PipelineSpec::CR.encode(&reordered).len()),
        ],
    ];
    print_table(
        &format!("Figure 5 summary (scale {scale})"),
        &["metric", "non-reordered", "reordered"],
        &rows,
    );
    println!("\nReordering groups the large-magnitude codes of coarse interpolation levels at the front of the sequence,");
    println!("making the remainder smoother and cheaper to encode.");
}
