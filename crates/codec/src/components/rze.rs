//! RZE — Run of Zeros Elimination.
//!
//! Identical in structure to [`super::rre::Rre`] but the bitmap marks symbols
//! equal to **zero** (which are dropped) rather than symbols equal to their
//! predecessor. In the CR pipeline this is the final reducer: after Huffman
//! coding and the magnitude-sign transform, the stream contains substantial
//! clusters of zero bytes which RZE removes.

use super::{elim, is_word_width};
use crate::CodecError;

/// The RZE reducer over `W`-byte symbols (`W` = 1, 2, 4 or 8).
#[derive(Debug, Clone, Copy)]
pub struct Rze<const W: usize>;

impl<const W: usize> Rze<W> {
    /// Encodes `input`. Layout mirrors `super::rre::Rre::encode_bytes`,
    /// with the bitmap itself compressed by a byte-granular zero-elimination
    /// pass (runs of zero symbols produce zero bitmap bytes).
    pub fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        const { assert!(is_word_width(W), "unsupported RZE symbol width") };
        elim::encode::<W, true>(input)
    }

    /// Decodes a stream produced by [`Rze::encode_bytes`], failing with a
    /// typed error, before any work, when it claims more than `max_out`
    /// bytes.
    pub fn decode_bytes(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        const { assert!(is_word_width(W), "unsupported RZE symbol width") };
        elim::decode::<W, true>(input, max_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip<const W: usize>(data: &[u8]) -> usize {
        let enc = Rze::<W>.encode_bytes(data);
        let dec = Rze::<W>.decode_bytes(&enc, data.len()).expect("decode");
        assert_eq!(dec, data, "width {W} length {}", data.len());
        enc.len()
    }

    fn roundtrip_all_widths(data: &[u8]) {
        roundtrip::<1>(data);
        roundtrip::<2>(data);
        roundtrip::<4>(data);
        roundtrip::<8>(data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip_all_widths(&[]);
        roundtrip_all_widths(&[0]);
        roundtrip_all_widths(&[9]);
        roundtrip_all_widths(&[0, 0, 1]);
    }

    #[test]
    fn mostly_zero_data_collapses() {
        let mut data = vec![0u8; 100_000];
        for i in (0..data.len()).step_by(997) {
            data[i] = (i % 255) as u8 + 1;
        }
        let size = roundtrip::<1>(&data);
        // ~100 nonzero bytes + double-compressed bitmap: far below 5 % of input.
        assert!(
            size < data.len() / 20,
            "mostly-zero data should collapse, got {size}"
        );
    }

    #[test]
    fn dense_data_keeps_everything() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..10_000).map(|_| rng.gen_range(1..=255u8)).collect();
        let size = roundtrip::<1>(&data);
        assert!(
            size >= data.len(),
            "no zero symbols — nothing can be dropped"
        );
        assert!(size <= data.len() + data.len() / 8 + 256);
    }

    #[test]
    fn non_multiple_lengths() {
        for len in [1usize, 3, 7, 9, 17, 1001] {
            let data: Vec<u8> = (0..len)
                .map(|i| if i % 3 == 0 { 0 } else { (i % 200) as u8 })
                .collect();
            roundtrip_all_widths(&data);
        }
    }

    #[test]
    fn zero_symbol_detection_respects_width() {
        // [0,1] as a 2-byte symbol is nonzero even though it contains a zero byte.
        let data = vec![0u8, 1, 0, 0, 0, 1];
        let enc = Rze::<2>.encode_bytes(&data);
        assert_eq!(Rze::<2>.decode_bytes(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let enc = Rze::<1>.encode_bytes(&[1u8, 0, 3, 0, 5]);
        assert!(Rze::<1>.decode_bytes(&enc[..12], usize::MAX).is_err());
    }
}
