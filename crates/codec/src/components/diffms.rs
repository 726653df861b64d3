//! DIFFMS — symbol-wise difference followed by the magnitude-sign transform.
//!
//! Each symbol is replaced by the zig-zag-coded difference to its
//! predecessor (the first symbol is differenced against zero). Smoothly
//! varying symbol streams — such as Huffman-coded lengths or reordered
//! quantization codes — become streams of small magnitudes that the CLOG or
//! RZE reducers can shrink.
//!
//! DIFFMS is a pure transformer: length-preserving and headerless.

use super::{is_word_width, map_words, word_mask};
use crate::CodecError;

/// The DIFFMS transformer over `W`-byte symbols (`W` = 1, 2, 4 or 8).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiffMs<const W: usize>;

impl<const W: usize> DiffMs<W> {
    /// Applies delta + zig-zag.
    pub(crate) fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        const { assert!(is_word_width(W), "unsupported DIFFMS symbol width") };
        let mut prev = 0u64;
        map_words::<W>(input, |v| {
            let diff = v.wrapping_sub(prev) & word_mask::<W>();
            prev = v;
            let sign = (((diff as i64) << (64 - 8 * W)) >> 63) as u64;
            ((diff << 1) ^ sign) & word_mask::<W>()
        })
    }

    /// Reverses delta + zig-zag.
    pub(crate) fn decode_bytes(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        const { assert!(is_word_width(W), "unsupported DIFFMS symbol width") };
        let mut prev = 0u64;
        Ok(map_words::<W>(input, |zz| {
            let diff = (zz >> 1) ^ (zz & 1).wrapping_neg();
            prev = prev.wrapping_add(diff) & word_mask::<W>();
            prev
        }))
    }
}

/// The per-symbol form [`DiffMs::encode_bytes`] replaced, kept as the
/// differential tests' reference.
#[cfg(test)]
pub(crate) fn encode_reference(input: &[u8], width: usize) -> Vec<u8> {
    use super::{read_symbol, symbol_count, write_symbol};
    let bits = (width * 8) as u32;
    let n_sym = symbol_count(input.len(), width);
    let mut out = Vec::with_capacity(input.len());
    let mut prev = 0u64;
    for i in 0..n_sym {
        let sym = read_symbol(input, i, width);
        let remaining = input.len() - i * width;
        if remaining >= width {
            let diff = sym.wrapping_sub(prev) & mask(bits);
            let zz = zigzag(diff, bits);
            write_symbol(&mut out, zz, width, remaining);
            prev = sym;
        } else {
            // Tail bytes are passed through untouched.
            write_symbol(&mut out, sym, width, remaining);
        }
    }
    out
}

/// The per-symbol form [`DiffMs::decode_bytes`] replaced.
#[cfg(test)]
pub(crate) fn decode_reference(input: &[u8], width: usize) -> Vec<u8> {
    use super::{read_symbol, symbol_count, write_symbol};
    let bits = (width * 8) as u32;
    let n_sym = symbol_count(input.len(), width);
    let mut out = Vec::with_capacity(input.len());
    let mut prev = 0u64;
    for i in 0..n_sym {
        let sym = read_symbol(input, i, width);
        let remaining = input.len() - i * width;
        if remaining >= width {
            let diff = unzigzag(sym, bits);
            let v = prev.wrapping_add(diff) & mask(bits);
            write_symbol(&mut out, v, width, remaining);
            prev = v;
        } else {
            write_symbol(&mut out, sym, width, remaining);
        }
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
fn zigzag(v: u64, bits: u32) -> u64 {
    let sign = ((v as i64) << (64 - bits)) >> 63;
    ((v << 1) ^ sign as u64) & mask(bits)
}

#[cfg(test)]
fn unzigzag(v: u64, bits: u32) -> u64 {
    ((v >> 1) ^ (v & 1).wrapping_neg()) & mask(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip<const W: usize>(data: &[u8]) {
        let enc = DiffMs::<W>.encode_bytes(data);
        assert_eq!(enc.len(), data.len());
        assert_eq!(DiffMs::<W>.decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for len in [0usize, 1, 7, 8, 9, 255, 4096, 4099] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip::<1>(&data);
            roundtrip::<2>(&data);
            roundtrip::<4>(&data);
            roundtrip::<8>(&data);
        }
    }

    #[test]
    fn slowly_varying_stream_becomes_small() {
        // A ramp: consecutive differences are 1 → zig-zag value 2 everywhere.
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let enc = DiffMs::<1>.encode_bytes(&data);
        assert!(
            enc[1..].iter().all(|&b| b == 2),
            "ramp should become constant 2s"
        );
    }

    #[test]
    fn constant_stream_becomes_zeros_after_first() {
        let data = vec![200u8; 100];
        let enc = DiffMs::<1>.encode_bytes(&data);
        assert!(enc[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn wide_symbols_diff_across_words() {
        let mut data = Vec::new();
        for v in [1000u32, 1004, 1002, 1010] {
            data.extend_from_slice(&v.to_le_bytes());
        }
        roundtrip::<4>(&data);
        let enc = DiffMs::<4>.encode_bytes(&data);
        let first = u32::from_le_bytes(enc[0..4].try_into().unwrap());
        assert_eq!(first, 2000); // zigzag(1000)
        let second = u32::from_le_bytes(enc[4..8].try_into().unwrap());
        assert_eq!(second, 8); // zigzag(+4)
    }
}
