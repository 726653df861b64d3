//! CRC32 (IEEE 802.3) integrity checksums.
//!
//! The chunked stream containers attach a CRC32 to every chunk body so that
//! corruption in the data area is caught *before* any lossless decoder sees
//! the bytes. CRC32 is the standard gzip/zlib/PNG polynomial (`0xEDB88320`
//! reflected), computed slice-by-8: the hot loop reads eight input bytes at
//! a time as one little-endian `u64` and folds them through eight 256-entry
//! tables built at compile time, so the per-byte cost is one table lookup
//! and the loop-carried dependency is a single XOR tree per eight bytes —
//! fast enough to be invisible next to the entropy coders, and a fixed
//! 4-byte cost per chunk. `update_bytewise` keeps the classic one-table
//! byte-at-a-time formulation as the reference the fast path is verified
//! against (and handles the unaligned tail).
//!
//! ```
//! use szhi_codec::checksum::crc32;
//!
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the classic check value
//! assert_ne!(crc32(b"hello"), crc32(b"hellp"));
//! ```

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slice-by-8 tables, built at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][b]` is the CRC contribution of byte `b`
/// seen `k` positions before the end of an 8-byte group
/// (`TABLES[k][b] = (TABLES[k-1][b] >> 8) ^ TABLES[0][TABLES[k-1][b] & 0xFF]`).
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC32 (IEEE) of `bytes`: initial value `0xFFFF_FFFF`, reflected
/// polynomial `0xEDB88320`, final XOR `0xFFFF_FFFF` — the same convention as
/// gzip, zlib and PNG.
pub fn crc32(bytes: &[u8]) -> u32 {
    // szhi-analyzer: allow(panic-reachability) -- every table index in `update` is masked `& 0xFF` into a 256-entry table and the 8-byte `try_into` is infallible on `chunks_exact(8)`; proptest checks the kernel against the bytewise reference
    update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Feeds `bytes` into a running (pre-inverted) CRC state. Exposed so callers
/// can checksum data that arrives in pieces:
/// `crc32(ab) == finalize(update(update(init(), a), b))` with
/// `init() = 0xFFFF_FFFF` and `finalize(s) = s ^ 0xFFFF_FFFF`.
///
/// Slice-by-8: eight bytes are consumed per iteration via a `u64` read; the
/// sub-8-byte tail goes through the bytewise reference path.
pub(crate) fn update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v =
            u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes")) ^ crc as u64;
        crc = TABLES[7][(v & 0xFF) as usize]
            ^ TABLES[6][((v >> 8) & 0xFF) as usize]
            ^ TABLES[5][((v >> 16) & 0xFF) as usize]
            ^ TABLES[4][((v >> 24) & 0xFF) as usize]
            ^ TABLES[3][((v >> 32) & 0xFF) as usize]
            ^ TABLES[2][((v >> 40) & 0xFF) as usize]
            ^ TABLES[1][((v >> 48) & 0xFF) as usize]
            ^ TABLES[0][((v >> 56) & 0xFF) as usize];
    }
    // szhi-analyzer: allow(panic-reachability) -- the reference loop indexes `TABLES[0]` with a value masked `& 0xFF`, in bounds by construction
    update_bytewise(crc, chunks.remainder())
}

/// The byte-at-a-time reference formulation: one table lookup per input
/// byte. This is the path the slice-by-8 kernel is property-tested against,
/// and the tail handler for inputs that are not a multiple of eight bytes.
pub(crate) fn update_bytewise(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Bytewise-reference counterpart of [`crc32`], used by the differential
/// tests.
#[cfg(test)]
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Check values from the CRC catalogue (CRC-32/ISO-HDLC), against
        // both the slice-by-8 path and the bytewise reference.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(
            crc32_bytewise(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 131 % 251) as u8).collect();
        for split in [0, 1, 13, 500, 999, 1000] {
            let state = update(0xFFFF_FFFF, &data[..split]);
            let state = update(state, &data[split..]);
            assert_eq!(state ^ 0xFFFF_FFFF, crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let reference = crc32(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[pos] ^= 1 << bit;
                assert_ne!(
                    crc32(&corrupt),
                    reference,
                    "flip of byte {pos} bit {bit} not detected"
                );
            }
        }
    }

    proptest! {
        /// Slice-by-8 must equal the bytewise reference for arbitrary
        /// inputs, and incremental updates split at an arbitrary point
        /// (exercising every prefix alignment of the 8-byte fast loop)
        /// must agree with the one-shot value.
        #[test]
        fn slice_by_8_matches_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            split in 0usize..512,
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            let split = split.min(data.len());
            let state = update(0xFFFF_FFFF, &data[..split]);
            let state = update(state, &data[split..]);
            prop_assert_eq!(state ^ 0xFFFF_FFFF, crc32_bytewise(&data));
        }
    }
}
