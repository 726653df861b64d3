//! TCMS — Two's Complement to Magnitude-Sign transform.
//!
//! The reversible per-symbol bit trick of §5.2.3:
//! `(word << 1) ^ (word >> (bits − 1))` with an arithmetic right shift —
//! i.e. the zig-zag transform. Values close to zero (positive or negative)
//! map to small magnitudes, which concentrates ones in the low bits and makes
//! the downstream bit-shuffle / zero-elimination stages effective.
//!
//! TCMS is a pure transformer: length-preserving and headerless.

use super::{is_word_width, map_words, word_mask};
use crate::CodecError;

/// The TCMS transformer over `W`-byte symbols (`W` = 1, 2, 4 or 8).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tcms<const W: usize>;

impl<const W: usize> Tcms<W> {
    /// Applies the forward transform.
    pub(crate) fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        const { assert!(is_word_width(W), "unsupported TCMS symbol width") };
        map_words::<W>(input, |v| {
            let sign = (((v as i64) << (64 - 8 * W)) >> 63) as u64;
            ((v << 1) ^ sign) & word_mask::<W>()
        })
    }

    /// Applies the inverse transform.
    pub(crate) fn decode_bytes(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        const { assert!(is_word_width(W), "unsupported TCMS symbol width") };
        Ok(map_words::<W>(input, |v| {
            ((v >> 1) ^ (v & 1).wrapping_neg()) & word_mask::<W>()
        }))
    }
}

/// The per-symbol form [`Tcms::encode_bytes`] replaced, kept as the
/// differential tests' reference.
#[cfg(test)]
pub(crate) fn encode_reference(input: &[u8], width: usize) -> Vec<u8> {
    map_reference(input, width, |v, bits| {
        ((v << 1) ^ (((v as i64) << (64 - bits)) >> 63) as u64) & mask(bits)
    })
}

/// The per-symbol form [`Tcms::decode_bytes`] replaced.
#[cfg(test)]
pub(crate) fn decode_reference(input: &[u8], width: usize) -> Vec<u8> {
    map_reference(input, width, |v, bits| {
        ((v >> 1) ^ (v & 1).wrapping_neg()) & mask(bits)
    })
}

#[cfg(test)]
fn map_reference(input: &[u8], width: usize, f: impl Fn(u64, u32) -> u64) -> Vec<u8> {
    use super::{read_symbol, symbol_count, write_symbol};
    let bits = (width * 8) as u32;
    let n_sym = symbol_count(input.len(), width);
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

#[cfg(test)]
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

    fn roundtrip<const W: usize>(data: &[u8]) {
        let enc = Tcms::<W>.encode_bytes(data);
        assert_eq!(enc.len(), data.len(), "TCMS must be length-preserving");
        let dec = Tcms::<W>.decode_bytes(&enc).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn small_signed_values_map_to_small_magnitudes() {
        let t = Tcms::<1>;
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
        let t = Tcms::<8>;
        let word: i64 = -123_456_789;
        let expected = ((word << 1) ^ (word >> 63)) as u64;
        let enc = t.encode_bytes(&(word as u64).to_le_bytes());
        assert_eq!(u64::from_le_bytes(enc.try_into().unwrap()), expected);
    }

    #[test]
    fn roundtrip_all_widths_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for len in [0usize, 1, 5, 8, 13, 1024, 4097] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip::<1>(&data);
            roundtrip::<2>(&data);
            roundtrip::<4>(&data);
            roundtrip::<8>(&data);
        }
    }

    #[test]
    fn roundtrip_exhaustive_single_byte() {
        let t = Tcms::<1>;
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
        let t = Tcms::<1>;
        for delta in 0u8..8 {
            assert!(t.encode_bytes(&[delta])[0] < 16);
            assert!(t.encode_bytes(&[0u8.wrapping_sub(delta)])[0] < 16);
        }
    }
}
