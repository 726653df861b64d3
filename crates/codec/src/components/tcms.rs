//! TCMS — Two's Complement to Magnitude-Sign transform.
//!
//! The reversible per-symbol bit trick of §5.2.3:
//! `(word << 1) ^ (word >> (bits − 1))` with an arithmetic right shift —
//! i.e. the zig-zag transform. Values close to zero (positive or negative)
//! map to small magnitudes, which concentrates ones in the low bits and makes
//! the downstream bit-shuffle / zero-elimination stages effective.
//!
//! TCMS is a pure transformer: length-preserving and headerless.

use super::{read_symbol, symbol_count, write_symbol};
use crate::CodecError;

/// The TCMS transformer at a given symbol width.
#[derive(Debug, Clone, Copy)]
pub struct Tcms {
    width: usize,
}

impl Tcms {
    /// Creates a TCMS component for `width`-byte symbols (1, 2, 4 or 8).
    pub fn new(width: usize) -> Self {
        assert!(
            matches!(width, 1 | 2 | 4 | 8),
            "unsupported TCMS symbol width {width}"
        );
        Tcms { width }
    }

    /// Symbol width in bytes.
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    fn forward(v: u64, bits: u32) -> u64 {
        ((v << 1) ^ (((v as i64) << (64 - bits)) >> 63) as u64) & mask(bits)
    }

    #[inline]
    fn inverse(v: u64, bits: u32) -> u64 {
        ((v >> 1) ^ (v & 1).wrapping_neg()) & mask(bits)
    }

    /// Applies the forward transform.
    pub fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        self.map(input, Self::forward)
    }

    /// Applies the inverse transform.
    pub fn decode_bytes(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(self.map(input, Self::inverse))
    }

    fn map(&self, input: &[u8], f: impl Fn(u64, u32) -> u64) -> Vec<u8> {
        let width = self.width;
        let bits = (width * 8) as u32;
        let n_sym = symbol_count(input.len(), width);
        // szhi-analyzer: allow(steady-alloc) -- the output vector is the stage's product, returned as `StageSpec`'s encode or decode output and kept by the selector as the chunk payload; the runtime allocator gate (tests/steady_state_alloc.rs) budgets payload-only allocation on the warm path
        let mut out = Vec::with_capacity(input.len());
        for i in 0..n_sym {
            let sym = read_symbol(input, i, width);
            let remaining = input.len() - i * width;
            // The (possibly zero-padded) tail symbol is passed through
            // untouched so the transform stays exactly invertible on inputs
            // whose length is not a multiple of the width.
            let mapped = if remaining >= width {
                f(sym, bits)
            } else {
                sym
            };
            write_symbol(&mut out, mapped, width, remaining);
        }
        out
    }
}

#[inline]
fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip(width: usize, data: &[u8]) {
        let t = Tcms::new(width);
        let enc = t.encode_bytes(data);
        assert_eq!(enc.len(), data.len(), "TCMS must be length-preserving");
        let dec = t.decode_bytes(&enc).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn small_signed_values_map_to_small_magnitudes() {
        let t = Tcms::new(1);
        // -1 (0xff) → 1, 1 → 2, -2 → 3, 2 → 4 …
        assert_eq!(t.encode_bytes(&[0x00]), vec![0x00]);
        assert_eq!(t.encode_bytes(&[0xff]), vec![0x01]);
        assert_eq!(t.encode_bytes(&[0x01]), vec![0x02]);
        assert_eq!(t.encode_bytes(&[0xfe]), vec![0x03]);
        assert_eq!(t.encode_bytes(&[0x02]), vec![0x04]);
    }

    #[test]
    fn paper_formula_for_8_byte_words() {
        // §5.2.3: (word << 1) ^ (word >> 63) on 64-bit words.
        let t = Tcms::new(8);
        let word: i64 = -123_456_789;
        let expected = ((word << 1) ^ (word >> 63)) as u64;
        let enc = t.encode_bytes(&(word as u64).to_le_bytes());
        assert_eq!(u64::from_le_bytes(enc.try_into().unwrap()), expected);
    }

    #[test]
    fn roundtrip_all_widths_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for w in [1, 2, 4, 8] {
            for len in [0usize, 1, 5, 8, 13, 1024, 4097] {
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                roundtrip(w, &data);
            }
        }
    }

    #[test]
    fn roundtrip_exhaustive_single_byte() {
        let t = Tcms::new(1);
        for b in 0..=255u8 {
            let enc = t.encode_bytes(&[b]);
            assert_eq!(t.decode_bytes(&enc).unwrap(), vec![b]);
        }
        // The transform is a permutation of the byte alphabet.
        let mut seen = [false; 256];
        for b in 0..=255u8 {
            let e = t.encode_bytes(&[b])[0];
            assert!(!seen[e as usize], "transform is not injective at {b}");
            seen[e as usize] = true;
        }
    }

    #[test]
    fn quant_code_cluster_maps_near_zero() {
        // Codes centred at 128 (the top-1 symbol of the paper's §5.2.3) are
        // first re-biased by the caller; TCMS itself maps values near 0 and
        // near 255 (i.e. ±small) to small magnitudes.
        let t = Tcms::new(1);
        for delta in 0u8..8 {
            assert!(t.encode_bytes(&[delta])[0] < 16);
            assert!(t.encode_bytes(&[0u8.wrapping_sub(delta)])[0] < 16);
        }
    }
}
