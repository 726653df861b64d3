//! Corrupt-input fuzz of the `inspect` renderer, mirroring the 3-mask
//! byte-flip harness the core decoders are held to: flipping any single
//! byte with each mask (0x01, 0x80, 0xFF), and truncating at any prefix
//! length, must yield a typed error or a (possibly nonsensical) report —
//! never a panic and never an allocation blowup, because `render` only
//! walks metadata the format layer has already validated.

use szhi_cli::{golden, inspect};

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

fn assert_never_panics(tag: &str, bytes: &[u8]) {
    for pos in 0..bytes.len() {
        for mask in MASKS {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= mask;
            let result = std::panic::catch_unwind(|| {
                let _ = inspect::render(&corrupt);
            });
            assert!(
                result.is_ok(),
                "{tag}: inspect panicked with byte {pos} flipped by {mask:#04x}"
            );
        }
    }
    let step = (bytes.len() / 97).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        let prefix = &bytes[..cut];
        let result = std::panic::catch_unwind(|| {
            let _ = inspect::render(prefix);
        });
        assert!(result.is_ok(), "{tag}: inspect panicked truncated at {cut}");
    }
}

#[test]
fn inspect_survives_byte_flips_and_truncation_on_every_version() {
    for version in golden::versions() {
        let bytes = golden::pinned(version).unwrap();
        assert_never_panics(&format!("v{version}"), &bytes);
    }
}
