//! An open-source stand-in for NVIDIA Bitcomp.
//!
//! NVIDIA Bitcomp is the proprietary lossless codec cuSZ-I attaches to its
//! pipeline (`cuSZ-IB` in the paper) and the probe the paper uses in Table 1
//! to measure how much redundancy other compressors leave in their output.
//! Bitcomp itself is closed source; what the paper relies on is only its
//! qualitative behaviour: a *fast, bit-packing style lossless codec* that
//! removes residual byte-level smoothness and zero-runs.
//!
//! This module implements that behaviour with components already in this
//! crate: byte-wise delta + zig-zag (exposing smoothness as small
//! magnitudes), followed by per-block ceiling-log₂ bit packing, with a
//! per-block escape to verbatim storage so incompressible blocks never
//! expand by more than the per-block header. The other stand-ins for
//! proprietary codecs are listed on [`crate::PipelineSpec`].

use crate::bitio::{decode_capacity, put_u64, BitReader, ByteCursor, WordWriter};
use crate::CodecError;

/// Bytes per packing block.
const BLOCK: usize = 4096;

/// Compresses `input` losslessly.
///
/// Layout: `orig_len u64 | bit stream of blocks`, each block being
/// `[1-bit verbatim flag][4-bit width | packed deltas …]` or
/// `[1][raw bytes]`.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_u64(&mut out, input.len() as u64);
    let mut ww = WordWriter::with_capacity_bits(input.len() * 8 / 2);
    let mut prev_last = 0u8;
    for block in input.chunks(BLOCK) {
        // Delta + zig-zag within the block (seeded by the previous block's
        // last byte so long smooth runs spanning blocks stay small).
        let mut deltas = Vec::with_capacity(block.len());
        let mut prev = prev_last;
        let mut max = 0u8;
        for &b in block {
            let d = b.wrapping_sub(prev) as i8;
            let zz = ((d << 1) ^ (d >> 7)) as u8;
            max = max.max(zz);
            deltas.push(zz);
            prev = b;
        }
        prev_last = prev;
        let bits = if max == 0 { 0 } else { 8 - max.leading_zeros() };
        // A packed block costs 5 + bits·len bits; verbatim costs 1 + 8·len.
        if (bits as usize) < 8 {
            ww.put(0, 1);
            ww.put(bits, 4);
            if bits > 0 {
                for &zz in &deltas {
                    ww.put(zz as u32, bits);
                }
            }
        } else {
            ww.put(1, 1);
            for &b in block {
                ww.put(b as u32, 8);
            }
        }
    }
    out.extend_from_slice(&ww.finish());
    out
}

/// Decompresses a stream produced by [`compress`], rejecting streams whose
/// claimed output length exceeds `max_out` before any decoding work, for
/// use on untrusted input.
pub(crate) fn decompress_limited(input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(input);
    let orig_len = cur.get_u64()? as usize;
    if orig_len > max_out {
        return Err(CodecError::corrupt(
            "bitcomp",
            format!("claimed {orig_len} bytes, limit {max_out}"),
        ));
    }
    let mut br = BitReader::new(cur.take_rest());
    let mut out = Vec::with_capacity(decode_capacity(orig_len));
    let mut prev_last = 0u8;
    let mut remaining = orig_len;
    while remaining > 0 {
        let n = BLOCK.min(remaining);
        let verbatim = br.get_bit()?;
        if verbatim {
            let mut last = prev_last;
            for _ in 0..n {
                let b = br.get_bits(8)? as u8;
                out.push(b);
                last = b;
            }
            prev_last = last;
        } else {
            let bits = br.get_bits(4)? as u32;
            if bits > 8 {
                return Err(CodecError::corrupt(
                    "bitcomp_sim",
                    format!("invalid width {bits}"),
                ));
            }
            let mut prev = prev_last;
            for _ in 0..n {
                let zz = if bits == 0 {
                    0
                } else {
                    br.get_bits(bits)? as u8
                };
                let d = ((zz >> 1) ^ (zz & 1).wrapping_neg()) as i8;
                let b = prev.wrapping_add(d as u8);
                out.push(b);
                prev = b;
            }
            prev_last = prev;
        }
        remaining -= n;
    }
    Ok(out)
}

/// The compression ratio Bitcomp-sim achieves on `input` — the probe used by
/// the Table 1 experiment ("how much redundancy does a compressor's output
/// still contain?").
pub fn residual_ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    input.len() as f64 / compress(input).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) -> usize {
        let enc = compress(data);
        assert_eq!(decompress_limited(&enc, usize::MAX).unwrap(), data);
        enc.len()
    }

    #[test]
    fn roundtrip_various() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        for len in [0usize, 1, 2, 4095, 4096, 4097, 100_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data: Vec<u8> = (0..100_000u32).map(|i| ((i / 37) % 256) as u8).collect();
        let size = roundtrip(&data);
        assert!(
            size < data.len() / 3,
            "smooth ramps must compress ≥3x, got {size}"
        );
    }

    #[test]
    fn zero_data_nearly_disappears() {
        let size = roundtrip(&vec![0u8; 1 << 20]);
        assert!(size < 2048, "zero input should collapse, got {size}");
    }

    #[test]
    fn random_data_does_not_expand_much() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let data: Vec<u8> = (0..(1usize << 20)).map(|_| rng.gen()).collect();
        let size = roundtrip(&data);
        assert!(
            size <= data.len() + data.len() / 1000 + 64,
            "incompressible data expanded to {size}"
        );
    }

    #[test]
    fn residual_ratio_separates_smooth_from_random() {
        let smooth: Vec<u8> = (0..65_536u32).map(|i| ((i / 64) % 200) as u8).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let random: Vec<u8> = (0..65_536).map(|_| rng.gen()).collect();
        assert!(residual_ratio(&smooth) > 2.0);
        assert!(residual_ratio(&random) < 1.1);
    }

    #[test]
    fn truncation_is_detected() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let enc = compress(&data);
        assert!(decompress_limited(&enc[..enc.len() / 2], usize::MAX).is_err());
    }
}
