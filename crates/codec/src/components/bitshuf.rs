//! BIT — bit shuffle.
//!
//! Transposes blocks of symbols into bit planes: after the shuffle, bit `k`
//! of every symbol in a block is stored contiguously. Combined with the TCMS
//! magnitude-sign transform this concentrates the information of
//! near-zero quantization codes into a few dense planes and leaves the
//! remaining planes as long runs, which the following RRE stage collapses
//! (the TP-mode pipeline of Figure 7).
//!
//! BIT is a pure transformer: length-preserving and headerless. Blocks of
//! `64` symbols are transposed; a partial tail block is passed through
//! unchanged.

use super::is_word_width;
use crate::CodecError;

/// Number of symbols per transposed block.
pub(crate) const BLOCK_SYMBOLS: usize = 64;

/// The bit-shuffle transformer over `W`-byte symbols (`W` = 1, 2, 4 or 8).
///
/// A block is `W` byte lanes of 64 symbols, and lane `j` (byte `j` of every
/// symbol) becomes planes `8j..8j + 8`: eight 8×8 bit tiles, one per run of
/// eight symbols. Each tile is transposed in a word (`transpose_bits`) and
/// the eight transposed tiles are then transposed as an 8×8 byte matrix
/// (`transpose_bytes`), so plane `8j + k` is byte `k` of every tile.
#[derive(Debug, Clone, Copy)]
pub struct Bit<const W: usize>;

impl<const W: usize> Bit<W> {
    /// Applies the forward shuffle.
    pub fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        const { assert!(is_word_width(W), "unsupported BIT symbol width") };
        let mut out = Vec::with_capacity(input.len());
        let mut blocks = input.chunks_exact(BLOCK_SYMBOLS * W);
        for block in blocks.by_ref() {
            let (symbols, _) = block.as_chunks::<W>();
            for lane in 0..W {
                let mut tiles = [0u64; 8];
                for (tile, eight) in tiles.iter_mut().zip(symbols.chunks_exact(8)) {
                    *tile = transpose_bits(gather(eight, lane));
                }
                for plane in transpose_bytes(tiles) {
                    out.extend_from_slice(&plane.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(blocks.remainder());
        out
    }

    /// Reverses the shuffle.
    pub fn decode_bytes(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        const { assert!(is_word_width(W), "unsupported BIT symbol width") };
        let mut out = vec![0u8; input.len()];
        let mut blocks = input.chunks_exact(BLOCK_SYMBOLS * W);
        let mut dst_blocks = out.chunks_exact_mut(BLOCK_SYMBOLS * W);
        for (block, dst) in blocks.by_ref().zip(dst_blocks.by_ref()) {
            let (symbols, _) = dst.as_chunks_mut::<W>();
            for (lane, planes) in block.chunks_exact(64).enumerate() {
                let mut tiles = [0u64; 8];
                for (tile, plane) in tiles.iter_mut().zip(planes.as_chunks::<8>().0) {
                    *tile = u64::from_le_bytes(*plane);
                }
                for (eight, tile) in symbols.chunks_exact_mut(8).zip(transpose_bytes(tiles)) {
                    scatter(eight, lane, transpose_bits(tile));
                }
            }
        }
        // Both remainders are the input's tail length: the partial block
        // passes through.
        dst_blocks
            .into_remainder()
            .copy_from_slice(blocks.remainder());
        Ok(out)
    }
}

/// Byte `lane` of eight symbols as one word, symbol `i` in byte `i`.
#[inline(always)]
fn gather<const W: usize>(eight: &[[u8; W]], lane: usize) -> u64 {
    eight.iter().enumerate().fold(0, |x, (i, s)| {
        x | (s.get(lane).copied().unwrap_or(0) as u64) << (8 * i)
    })
}

/// Inverse of [`gather`]: byte `i` of `x` becomes byte `lane` of symbol `i`.
#[inline(always)]
fn scatter<const W: usize>(eight: &mut [[u8; W]], lane: usize, x: u64) {
    for (s, byte) in eight.iter_mut().zip(x.to_le_bytes()) {
        if let Some(b) = s.get_mut(lane) {
            *b = byte;
        }
    }
}

/// Transposes the 8×8 bit matrix held in `x`, row `i` in byte `i` and column
/// `k` in bit `k`: after it, bit `k` of byte `i` is bit `i` of byte `k`. Three
/// shift-xor-mask rounds swap the off-diagonal 1×1, 2×2 and 4×4 blocks.
#[inline(always)]
fn transpose_bits(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes the 8×8 byte matrix whose row `r` is word `r`: after it, byte
/// `c` of word `r` is byte `r` of word `c`. The same three rounds as
/// [`transpose_bits`], one level up: 4×4, 2×2 and 1×1 byte blocks swap
/// between word pairs.
#[inline(always)]
fn transpose_bytes(rows: [u64; 8]) -> [u64; 8] {
    let [mut r0, mut r1, mut r2, mut r3, mut r4, mut r5, mut r6, mut r7] = rows;
    for (lo, hi) in [
        (&mut r0, &mut r4),
        (&mut r1, &mut r5),
        (&mut r2, &mut r6),
        (&mut r3, &mut r7),
    ] {
        swap_blocks(lo, hi, 32, 0x0000_0000_FFFF_FFFF);
    }
    for (lo, hi) in [
        (&mut r0, &mut r2),
        (&mut r1, &mut r3),
        (&mut r4, &mut r6),
        (&mut r5, &mut r7),
    ] {
        swap_blocks(lo, hi, 16, 0x0000_FFFF_0000_FFFF);
    }
    for (lo, hi) in [
        (&mut r0, &mut r1),
        (&mut r2, &mut r3),
        (&mut r4, &mut r5),
        (&mut r6, &mut r7),
    ] {
        swap_blocks(lo, hi, 8, 0x00FF_00FF_00FF_00FF);
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// Swaps the `mask`-selected bits of `hi` with the bits `shift` above them
/// in `lo`.
#[inline(always)]
fn swap_blocks(lo: &mut u64, hi: &mut u64, shift: u32, mask: u64) {
    let t = ((*lo >> shift) ^ *hi) & mask;
    *lo ^= t << shift;
    *hi ^= t;
}

/// The bit-at-a-time form [`Bit::encode_bytes`] replaced, kept as the
/// differential tests' reference.
#[cfg(test)]
pub(crate) fn encode_reference(input: &[u8], width: usize) -> Vec<u8> {
    let block_bytes = BLOCK_SYMBOLS * width;
    let bits = width * 8;
    let mut out = Vec::with_capacity(input.len());
    let mut pos = 0;
    while pos + block_bytes <= input.len() {
        let block = &input[pos..pos + block_bytes];
        // plane-major output: for every bit position, 64 bits = 8 bytes.
        for bit in 0..bits {
            let mut plane = 0u64;
            for (s, chunk) in block.chunks_exact(width).enumerate() {
                let byte = chunk[bit / 8];
                let b = (byte >> (bit % 8)) & 1;
                plane |= (b as u64) << s;
            }
            out.extend_from_slice(&plane.to_le_bytes());
        }
        pos += block_bytes;
    }
    out.extend_from_slice(&input[pos..]);
    out
}

/// The bit-at-a-time form [`Bit::decode_bytes`] replaced.
#[cfg(test)]
pub(crate) fn decode_reference(input: &[u8], width: usize) -> Result<Vec<u8>, CodecError> {
    let block_bytes = BLOCK_SYMBOLS * width;
    let mut out = Vec::with_capacity(input.len());
    let mut blocks = input.chunks_exact(block_bytes);
    for block in blocks.by_ref() {
        let mut symbols = vec![0u8; block_bytes];
        // A block holds width*8 planes of 8 bytes each.
        for (bit, plane_bytes) in block.chunks_exact(8).enumerate() {
            let plane = u64::from_le_bytes(
                *plane_bytes
                    .first_chunk::<8>()
                    .ok_or_else(|| CodecError::corrupt("bitshuf", "short bit plane"))?,
            );
            for (s, sym) in symbols.chunks_exact_mut(width).enumerate() {
                let Some(byte) = sym.get_mut(bit / 8) else {
                    continue;
                };
                if (plane >> s) & 1 == 1 {
                    *byte |= 1 << (bit % 8);
                }
            }
        }
        out.extend_from_slice(&symbols);
    }
    out.extend_from_slice(blocks.remainder());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip<const W: usize>(data: &[u8]) {
        let enc = Bit::<W>.encode_bytes(data);
        assert_eq!(enc.len(), data.len(), "BIT must be length-preserving");
        assert_eq!(Bit::<W>.decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for len in [0usize, 1, 63, 64, 65, 128, 1000, 4096] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip::<1>(&data);
            roundtrip::<2>(&data);
            roundtrip::<4>(&data);
            roundtrip::<8>(&data);
        }
    }

    #[test]
    fn identical_symbols_produce_constant_planes() {
        // 64 copies of 0b0000_0011 → plane 0 and plane 1 all-ones, others zero.
        let data = vec![0b0000_0011u8; 64];
        let enc = Bit::<1>.encode_bytes(&data);
        assert_eq!(&enc[0..8], &[0xffu8; 8]);
        assert_eq!(&enc[8..16], &[0xffu8; 8]);
        assert!(enc[16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn small_magnitudes_leave_high_planes_empty() {
        // Values < 16: planes 4..8 are all zero after shuffling → long zero
        // runs for the downstream RRE/RZE stage.
        let data: Vec<u8> = (0..640).map(|i| (i % 16) as u8).collect();
        let enc = Bit::<1>.encode_bytes(&data);
        for block in enc.chunks_exact(64) {
            assert!(
                block[32..].iter().all(|&b| b == 0),
                "high planes must be empty"
            );
        }
    }

    #[test]
    fn tail_is_passthrough() {
        let data: Vec<u8> = (0..70).map(|i| i as u8).collect();
        let enc = Bit::<1>.encode_bytes(&data);
        assert_eq!(&enc[64..], &data[64..]);
    }
}
