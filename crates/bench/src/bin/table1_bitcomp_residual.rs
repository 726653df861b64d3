//! Table 1: residual compressibility of compressed outputs.
//!
//! Reproduces the paper's Table 1: how much further a Bitcomp-style lossless
//! pass can shrink the *already compressed* output of each error-bounded
//! compressor (Nyx dataset, relative error bound 1e-2). A ratio close to 1
//! means the compressor left no redundancy behind (the cuSZ-Hi design goal);
//! large ratios expose unexploited correlation.
//!
//! Run with `cargo run -p szhi-bench --release --bin table1_bitcomp_residual`.

use szhi_baselines::{Compressor, CuszI, CuszL, Cuszp2, FzGpu, SzhiCr, SzhiTp};
use szhi_bench::{dataset, print_table, scale_from_args};
use szhi_codec::bitcomp_sim;
use szhi_core::ErrorBound;
use szhi_datagen::DatasetKind;

fn main() {
    let scale = scale_from_args();
    let data = dataset(DatasetKind::Nyx, scale);
    let eb = 1e-2;
    eprintln!("# Nyx-like field {} at relative eb {eb}", data.dims());

    let compressors: Vec<Box<dyn Compressor>> = vec![
        Box::new(SzhiCr),
        Box::new(SzhiTp),
        Box::new(CuszL),
        Box::new(CuszI),
        Box::new(Cuszp2),
        Box::new(FzGpu),
    ];

    let mut rows = Vec::new();
    for c in &compressors {
        let name = if c.name() == "cuSZ-I" {
            "cuSZ-I (w/o Bitcomp)".to_string()
        } else {
            c.name().to_string()
        };
        match c.compress(&data, ErrorBound::Relative(eb)) {
            Ok(bytes) => {
                let residual = bitcomp_sim::residual_ratio(&bytes);
                rows.push(vec![name, format!("{:.2}", residual)]);
            }
            Err(e) => rows.push(vec![name, format!("err({e})")]),
        }
    }
    print_table(
        &format!("Table 1 — Bitcomp-sim compression ratio on compressed outputs (Nyx, eb = 1e-2, scale {scale})"),
        &["compressor", "Bitcomp-sim CR on compressed data"],
        &rows,
    );
    println!("\nA value near 1.0 means the compressor's output is already dense (no residual redundancy).");
}
