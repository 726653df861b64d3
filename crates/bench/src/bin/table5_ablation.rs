//! Table 5: ablation study of the cuSZ-Hi design components.
//!
//! Reproduces the paper's Table 5: starting from the cuSZ-IB baseline, the
//! design increments are applied one by one — the new data partition and
//! anchor stride (§5.1.1), the level-ordered code reordering (§5.1.4), the
//! multi-dimensional interpolation with auto-tuning (§5.1.2–§5.1.3) and
//! finally the optimized CR lossless pipeline (§5.2) — and the compression
//! ratio of each increment is reported on four datasets at two error bounds.
//! Every size is decoded again and checked against its bound; a cell that
//! fails prints `err(...)`.
//!
//! Run with `cargo run -p szhi-bench --release --bin table5_ablation`.

use szhi_bench::{ablation_compressed_size, dataset, print_table, scale_from_args, CellError};
use szhi_codec::PipelineSpec;
use szhi_datagen::DatasetKind;
use szhi_predictor::InterpConfig;

fn main() {
    let scale = scale_from_args();
    let datasets = [
        DatasetKind::Jhtdb,
        DatasetKind::Miranda,
        DatasetKind::Nyx,
        DatasetKind::Rtm,
    ];
    let ebs = [1e-2, 1e-3];

    // The design increments, each on top of the one before:
    // (interpolation, auto-tune, reorder, lossless pipeline).
    let stages = [
        // A: cuSZ-IB — stride-8 anisotropic partition, 1D interpolation,
        // no reorder, Huffman + Bitcomp-sim.
        (
            InterpConfig::cusz_i(),
            false,
            false,
            PipelineSpec::HfBitcomp,
        ),
        // B: + new data partition & anchor stride (17³, stride 16).
        (
            InterpConfig::cusz_hi_partition_only(),
            false,
            false,
            PipelineSpec::HfBitcomp,
        ),
        // C: + quantization-code reordering.
        (
            InterpConfig::cusz_hi_partition_only(),
            false,
            true,
            PipelineSpec::HfBitcomp,
        ),
        // D: + multi-dimensional interpolation with auto-tuning.
        (InterpConfig::cusz_hi(), true, true, PipelineSpec::HfBitcomp),
        // E: + the optimized CR lossless pipeline = cuSZ-Hi-CR.
        (InterpConfig::cusz_hi(), true, true, PipelineSpec::CR),
    ];

    let mut rows = Vec::new();
    for kind in datasets {
        let data = dataset(kind, scale);
        eprintln!("# {kind}: {}", data.dims());
        let input = data.dims().nbytes_f32() as f64;
        for &eb in &ebs {
            let crs: Vec<Result<f64, CellError>> = stages
                .iter()
                .map(|(interp, tune, reorder, pipeline)| {
                    ablation_compressed_size(&data, eb, interp, *tune, *reorder, *pipeline)
                        .map(|size| input / size as f64)
                })
                .collect();
            let pct = |from: f64, to: f64| format!("{:+.0}%", (to / from - 1.0) * 100.0);
            let mut row = vec![kind.name().to_string(), format!("{eb:.0e}")];
            for (i, cr) in crs.iter().enumerate() {
                row.push(match (cr, i.checked_sub(1).map(|prev| &crs[prev])) {
                    (Err(e), _) => format!("err({e})"),
                    (Ok(cr), Some(Ok(prev))) => format!("{} → {cr:.1}", pct(*prev, *cr)),
                    (Ok(cr), _) => format!("{cr:.1}"),
                });
            }
            row.push(match (&crs[0], &crs[crs.len() - 1]) {
                (Ok(first), Ok(last)) => format!("{:.2}x", last / first),
                _ => "—".to_string(),
            });
            rows.push(row);
        }
    }
    print_table(
        &format!("Table 5 — ablation of cuSZ-Hi design increments (scale {scale})"),
        &[
            "dataset",
            "eb",
            "cuSZ-IB",
            "+partition/anchor",
            "+code reorder",
            "+MD interp & auto-tune",
            "cuSZ-Hi-CR (new lossless)",
            "total gain",
        ],
        &rows,
    );
}
