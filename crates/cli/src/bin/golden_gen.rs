//! Regenerates the golden-stream compatibility corpus under
//! `tests/golden/` at the workspace root (or a directory passed as the
//! only argument): the field, and the stream plus `inspect` rendering of
//! every version the library still writes (`golden::BUILT`). The v2 and v3
//! assets are frozen — the library can no longer write those containers —
//! so they are left untouched, and a missing one is an error.
//!
//! Run after an **intentional** change to an encoder's output, and commit
//! the regenerated assets together with the change:
//!
//! ```text
//! cargo run -p szhi-cli --bin golden-gen
//! ```

use std::path::PathBuf;
use szhi_cli::{golden, inspect, raw};

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(golden::corpus_dir);
    std::fs::create_dir_all(&dir).expect("cannot create the golden directory");
    for v in golden::versions()
        .into_iter()
        .filter(|v| !golden::BUILT.contains(v))
    {
        for name in [format!("v{v}.szhi"), format!("v{v}.inspect.txt")] {
            assert!(
                dir.join(&name).is_file(),
                "the frozen asset {name} is missing from {} and cannot be regenerated",
                dir.display()
            );
        }
    }

    let field = golden::golden_field();
    std::fs::write(dir.join("field.f32"), raw::to_bytes(field.as_slice()))
        .expect("cannot write field.f32");
    for v in golden::BUILT {
        let bytes = golden::build(v, &field).expect("golden builder failed");
        std::fs::write(dir.join(format!("v{v}.szhi")), &bytes).expect("cannot write stream");
        let report = inspect::render(&bytes).expect("inspect failed on a golden stream");
        std::fs::write(dir.join(format!("v{v}.inspect.txt")), report)
            .expect("cannot write inspect rendering");
        println!(
            "wrote v{v}.szhi ({} bytes) and v{v}.inspect.txt",
            bytes.len()
        );
    }
    println!("golden corpus regenerated in {}", dir.display());
}
