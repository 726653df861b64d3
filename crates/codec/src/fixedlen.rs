//! Per-block fixed-length bit packing of integer values.
//!
//! This is the encoding style used by the throughput-oriented baselines the
//! paper compares against: cuSZp2 packs the prediction offsets of each
//! 32-element block with the block's maximum significant bit count, and
//! FZ-GPU packs bit-shuffled quantization codes the same way. The packer
//! works on `u32` values (the baselines' quantization codes are re-biased
//! into unsigned space first).

use crate::bitio::{decode_capacity, put_u32, put_u64, BitReader, ByteCursor, WordWriter};
use crate::CodecError;

/// Packs `values` in blocks of `block_len` values: each block stores a 6-bit
/// width followed by its values at that width.
///
/// Layout: `count u64 | block_len u32 | bit stream`.
pub fn pack_u32(values: &[u32], block_len: usize) -> Vec<u8> {
    assert!(block_len > 0, "block length must be non-zero");
    let mut out = Vec::with_capacity(values.len() / 2 + 16);
    put_u64(&mut out, values.len() as u64);
    put_u32(&mut out, block_len as u32);
    let mut ww = WordWriter::with_capacity_bits(values.len() * 8);
    for block in values.chunks(block_len) {
        let max = block.iter().copied().max().unwrap_or(0);
        let bits = if max == 0 {
            0
        } else {
            32 - max.leading_zeros()
        };
        ww.put(bits, 6);
        if bits > 0 {
            for &v in block {
                ww.put(v, bits);
            }
        }
    }
    out.extend_from_slice(&ww.finish());
    out
}

/// Reverses [`pack_u32`].
pub fn unpack_u32(data: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut cur = ByteCursor::new(data);
    let count = cur.get_u64()? as usize;
    let block_len = cur.get_u32()? as usize;
    if block_len == 0 {
        return Err(CodecError::header("fixedlen", "zero block length"));
    }
    let mut br = BitReader::new(cur.take_rest());
    let mut out = Vec::with_capacity(decode_capacity(count));
    let mut remaining = count;
    while remaining > 0 {
        let n = block_len.min(remaining);
        let bits = br.get_bits(6)? as u32;
        if bits > 32 {
            return Err(CodecError::corrupt(
                "fixedlen",
                format!("invalid block width {bits}"),
            ));
        }
        for _ in 0..n {
            let v = if bits == 0 {
                0
            } else {
                br.get_bits(bits)? as u32
            };
            out.push(v);
        }
        remaining -= n;
    }
    Ok(out)
}

/// Interleaved sign/magnitude helper: maps a signed value to an unsigned one
/// (zig-zag), so small positive and negative prediction errors both pack into
/// few bits.
#[inline]
pub fn zigzag_i32(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag_i32`].
#[inline]
pub fn unzigzag_u32(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_various_blocks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for block in [1usize, 7, 32, 256] {
            for len in [0usize, 1, 31, 32, 33, 1000] {
                let values: Vec<u32> = (0..len).map(|_| rng.gen_range(0..1_000_000)).collect();
                let packed = pack_u32(&values, block);
                assert_eq!(
                    unpack_u32(&packed).unwrap(),
                    values,
                    "block {block} len {len}"
                );
            }
        }
    }

    #[test]
    fn small_values_pack_small() {
        let values: Vec<u32> = (0..10_000).map(|i| (i % 3) as u32).collect();
        let packed = pack_u32(&values, 32);
        // 2 bits per value + 6 bits per 32-value block ≈ 0.28 bytes/value.
        assert!(
            packed.len() < 3200,
            "packed size {} too large",
            packed.len()
        );
    }

    #[test]
    fn zero_blocks_store_only_widths() {
        let values = vec![0u32; 4096];
        let packed = pack_u32(&values, 32);
        assert!(
            packed.len() < 32 + 4096 / 32,
            "zero blocks must cost ≤1 byte each"
        );
    }

    #[test]
    fn zigzag_roundtrip_and_ordering() {
        for v in [-5i32, -1, 0, 1, 5, i32::MIN / 2, i32::MAX / 2] {
            assert_eq!(unzigzag_u32(zigzag_i32(v)), v);
        }
        assert!(zigzag_i32(0) < zigzag_i32(-1));
        assert!(zigzag_i32(-1) < zigzag_i32(1));
        assert!(zigzag_i32(1) < zigzag_i32(-2));
    }

    #[test]
    fn truncation_is_detected() {
        let values: Vec<u32> = (0..1000).map(|i| i as u32 * 13).collect();
        let packed = pack_u32(&values, 32);
        assert!(unpack_u32(&packed[..packed.len() / 2]).is_err());
    }
}
