//! RRE — Run of Repeats Elimination.
//!
//! For a stream of `width`-byte symbols, RRE emits a bitmap with one bit per
//! symbol: `1` when the symbol differs from its predecessor (the symbol is
//! kept in the payload), `0` when it is identical (the symbol is dropped and
//! reconstructed from its predecessor). The bitmap itself is compressed with
//! a second, byte-granular repeat-elimination pass — the "recursive bitmap
//! compression" of §5.2.3.

use super::{elim, is_word_width};
use crate::CodecError;

/// The RRE reducer over `W`-byte symbols (`W` = 1, 2, 4 or 8). Any other
/// width is rejected when the program is built:
///
/// ```compile_fail
/// let _ = szhi_codec::components::Rre::<3>.encode_bytes(&[1, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rre<const W: usize>;

impl<const W: usize> Rre<W> {
    /// Encodes `input`.
    ///
    /// Layout: `orig_len u64 | bitmap_len u64 | bm_bitmap_len u64 |
    /// bm_kept_len u64 | kept_len u64 | bm_bitmap | bm_kept | kept`.
    pub fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        const { assert!(is_word_width(W), "unsupported RRE symbol width") };
        elim::encode::<W, false>(input)
    }

    /// Decodes a stream produced by [`Rre::encode_bytes`], failing with a
    /// typed error, before any work, when it claims more than `max_out`
    /// bytes.
    pub(crate) fn decode_bytes(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        const { assert!(is_word_width(W), "unsupported RRE symbol width") };
        elim::decode::<W, false>(input, max_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip<const W: usize>(data: &[u8]) -> usize {
        let enc = Rre::<W>.encode_bytes(data);
        let dec = Rre::<W>.decode_bytes(&enc, data.len()).expect("decode");
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
        roundtrip_all_widths(&[5]);
        roundtrip_all_widths(&[5, 5]);
        roundtrip_all_widths(&[1, 2, 3]);
    }

    #[test]
    fn long_runs_collapse() {
        let mut data = vec![7u8; 4096];
        data.extend_from_slice(&[9u8; 4096]);
        let size = roundtrip::<4>(&data);
        assert!(
            size < data.len() / 8,
            "runs should collapse, got {size} bytes for {}",
            data.len()
        );
    }

    #[test]
    fn incompressible_data_survives() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let data: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        // Random data cannot shrink but the overhead must stay bounded
        // (bitmap ≈ n/8/width plus headers).
        assert!(roundtrip::<1>(&data) <= data.len() + data.len() / 8 + 128);
        assert!(roundtrip::<4>(&data) <= data.len() + data.len() / 32 + 128);
        assert!(roundtrip::<8>(&data) <= data.len() + data.len() / 64 + 128);
    }

    #[test]
    fn width_ties_to_symbol_alignment() {
        // Alternating 4-byte symbols: no repeats at width 4, full repeats at
        // width 8 never — use data with repeats only visible at width 4.
        let mut data = Vec::new();
        for _ in 0..1000 {
            data.extend_from_slice(&[1, 2, 3, 4]);
        }
        let size4 = roundtrip::<4>(&data);
        let size1 = roundtrip::<1>(&data);
        assert!(
            size4 < size1,
            "width-4 RRE should beat width-1 on repeated 4-byte patterns"
        );
        assert!(size4 < 200);
    }

    #[test]
    fn non_multiple_lengths() {
        for len in [1usize, 3, 7, 9, 17, 1001] {
            let data: Vec<u8> = (0..len).map(|i| (i % 5) as u8).collect();
            roundtrip_all_widths(&data);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported RRE symbol width 3")]
    fn invalid_width_rejected() {
        // `Rre::<3>` does not compile (see the doctest on `Rre`); the
        // run-time-width reference the kernels are pinned to refuses it too.
        let _ = elim::encode_reference(&[1, 2, 3], 3, false);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let enc = Rre::<4>.encode_bytes(&[1u8, 2, 3, 4, 5, 6, 7, 8]);
        assert!(Rre::<4>.decode_bytes(&enc[..10], usize::MAX).is_err());
    }

    #[test]
    fn claims_past_the_bound_are_rejected_before_decoding() {
        let data = vec![7u8; 4096];
        let enc = Rre::<4>.encode_bytes(&data);
        assert!(Rre::<4>.decode_bytes(&enc, data.len() - 1).is_err());
        // A bitmap length that does not fit the claimed length.
        let mut bad = enc.clone();
        bad[8] += 1;
        assert!(Rre::<4>.decode_bytes(&bad, usize::MAX).is_err());
    }
}
