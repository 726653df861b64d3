//! Figure 6: benchmarking lossless encoders on quantization codes.
//!
//! Reproduces the paper's Figure 6: compression ratio versus overall
//! (compression + decompression) throughput of every candidate lossless
//! pipeline, run on the cuSZ-Hi quantization codes of four datasets at a
//! relative error bound of 1e-3. The paper uses Hurricane and SCALE, which
//! are not among the six generator families; the CESM and RTM stand-ins take
//! their place (both 2D-smooth / banded-3D fields of comparable character).
//!
//! Run with `cargo run -p szhi-bench --release --bin fig6_lossless_bench`.

use szhi_bench::{dataset, print_table, quant_codes, scale_from_args};
use szhi_codec::PipelineSpec;
use szhi_datagen::DatasetKind;
use szhi_metrics::{throughput_gibps, Stopwatch};

fn main() {
    let scale = scale_from_args();
    let eb = 1e-3;
    let datasets = [
        DatasetKind::CesmAtm, // stands in for Hurricane (smooth structured field)
        DatasetKind::Nyx,
        DatasetKind::Miranda,
        DatasetKind::Rtm, // stands in for SCALE (banded/layered field)
    ];

    for kind in datasets {
        let data = dataset(kind, scale);
        let codes = quant_codes(&data, eb, true);
        eprintln!("# {kind}: {} codes from {}", codes.len(), data.dims());
        let mut rows = Vec::new();
        for spec in PipelineSpec::fig6_set() {
            let sw = Stopwatch::start();
            let encoded = spec.encode(&codes);
            let enc_t = sw.elapsed();
            let sw = Stopwatch::start();
            let decoded = spec
                .decode_bounded(&encoded, codes.len())
                .expect("pipeline must round-trip");
            let dec_t = sw.elapsed();
            assert_eq!(decoded, codes, "{spec} corrupted the codes");
            let ratio = codes.len() as f64 / encoded.len() as f64;
            // "Overall throughput" as in the paper: total data moved over the
            // sum of compression and decompression time.
            let overall = throughput_gibps(codes.len() * 2, enc_t + dec_t);
            rows.push((
                ratio,
                vec![
                    spec.name().to_string(),
                    format!("{ratio:.2}"),
                    format!("{:.3}", throughput_gibps(codes.len(), enc_t)),
                    format!("{:.3}", throughput_gibps(codes.len(), dec_t)),
                    format!("{overall:.3}"),
                ],
            ));
        }
        rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        print_table(
            &format!("Figure 6 — lossless pipelines on {kind} quantization codes (eb = 1e-3, scale {scale})"),
            &["pipeline", "compression ratio", "enc GiB/s", "dec GiB/s", "overall GiB/s"],
            &rows.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
        );
    }
    println!("\nThe production pipelines are HF-RRE4-TCMS8-RZE1 (CR mode) and TCMS1-BIT1-RRE1 (TP mode);");
    println!("proprietary nvCOMP codecs are represented by the open-source stand-ins documented on szhi_codec::PipelineSpec.");
}
