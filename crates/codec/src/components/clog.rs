//! CLOG — per-block ceiling-log₂ fixed-length packing.
//!
//! Splits the symbol stream into blocks of [`BLOCK_SYMBOLS`] symbols, finds
//! the number of significant bits of the largest symbol in each block, and
//! stores every symbol of the block with exactly that many bits. Streams of
//! small magnitudes (after DIFFMS / TCMS) shrink to a fraction of their
//! original width; blocks containing one large value pay for it only locally.

use super::{symbol, symbol_count, word};
use crate::bitio::{put_u64, BitReader, ByteCursor, WordWriter};
use crate::CodecError;

/// Symbols per fixed-length block.
pub(crate) const BLOCK_SYMBOLS: usize = 256;

/// The CLOG reducer over `W`-byte symbols (`W` = 1, 2 or 4).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clog<const W: usize>;

impl<const W: usize> Clog<W> {
    /// Encodes `input`.
    ///
    /// Layout: `orig_len u64 | bit stream`, where the bit stream is a
    /// sequence of blocks `[6-bit width | width × count bits]`.
    pub(crate) fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        const { assert!(matches!(W, 1 | 2 | 4), "unsupported CLOG symbol width") };
        let (symbols, tail) = input.as_chunks::<W>();
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        put_u64(&mut out, input.len() as u64);
        let mut ww = WordWriter::with_capacity_bits(input.len() * 4);
        let mut blocks = symbols.chunks_exact(BLOCK_SYMBOLS);
        for block in blocks.by_ref() {
            pack_block(&mut ww, block.iter().map(|s| word(s)));
        }
        // The last block: the remaining whole symbols, then the zero-padded
        // ragged one.
        let ragged = (!tail.is_empty()).then(|| word(tail));
        if !blocks.remainder().is_empty() || ragged.is_some() {
            pack_block(
                &mut ww,
                blocks.remainder().iter().map(|s| word(s)).chain(ragged),
            );
        }
        out.extend_from_slice(&ww.finish());
        out
    }

    /// Decodes a stream produced by [`Clog::encode_bytes`], failing with a
    /// typed error, before any work, when it claims more than `max_out`
    /// bytes or more blocks than its bit stream can hold.
    pub(crate) fn decode_bytes(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        const { assert!(matches!(W, 1 | 2 | 4), "unsupported CLOG symbol width") };
        let mut cur = ByteCursor::new(input);
        let orig_len = cur.get_u64()? as usize;
        let n_sym = symbol_count(orig_len, W);
        let bits = cur.take_rest();
        if orig_len > max_out || n_sym.div_ceil(BLOCK_SYMBOLS) > bits.len() * 8 / 6 {
            return Err(CodecError::corrupt(
                "clog",
                format!(
                    "claims {orig_len} bytes from {} stream bytes, limit {max_out}",
                    bits.len()
                ),
            ));
        }
        let mut br = BitReader::new(bits);
        let mut out = vec![[0u8; W]; n_sym];
        for block in out.chunks_mut(BLOCK_SYMBOLS) {
            let width = br.get_bits(6)? as u32;
            if width > 8 * W as u32 {
                return Err(CodecError::corrupt(
                    "clog",
                    format!("invalid block width {width}"),
                ));
            }
            if width > 0 {
                for s in block.iter_mut() {
                    *s = symbol::<W>(br.get_bits(width)?);
                }
            }
        }
        let mut out = out.into_flattened();
        out.truncate(orig_len);
        Ok(out)
    }
}

/// Writes one block: the bit length of its largest symbol (one
/// OR-reduction), then every symbol at that length.
#[inline(always)]
fn pack_block(ww: &mut WordWriter, block: impl Iterator<Item = u64> + Clone) {
    let bits = 64 - block.clone().fold(0, |acc, v| acc | v).leading_zeros();
    ww.put(bits, 6);
    if bits > 0 {
        for v in block {
            ww.put(v as u32, bits);
        }
    }
}

/// The per-symbol encoder [`Clog::encode_bytes`] replaced, kept as the
/// differential tests' reference.
#[cfg(test)]
pub(crate) fn encode_reference(input: &[u8], width: usize) -> Vec<u8> {
    use super::read_symbol;
    use crate::bitio::BitWriter;
    let n_sym = symbol_count(input.len(), width);
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_u64(&mut out, input.len() as u64);
    let mut bw = BitWriter::with_capacity_bits(input.len() * 4);
    let mut i = 0usize;
    while i < n_sym {
        let count = BLOCK_SYMBOLS.min(n_sym - i);
        let mut max = 0u64;
        for k in 0..count {
            max = max.max(read_symbol(input, i + k, width));
        }
        let bits = if max == 0 {
            0
        } else {
            64 - max.leading_zeros()
        };
        bw.put_bits(bits as u64, 6);
        if bits > 0 {
            for k in 0..count {
                bw.put_bits(read_symbol(input, i + k, width), bits);
            }
        }
        i += count;
    }
    out.extend_from_slice(&bw.finish());
    out
}

/// The per-symbol decoder [`Clog::decode_bytes`] replaced.
#[cfg(test)]
pub(crate) fn decode_reference(input: &[u8], width: usize) -> Result<Vec<u8>, CodecError> {
    use super::write_symbol;
    use crate::bitio::decode_capacity;
    let mut cur = ByteCursor::new(input);
    let orig_len = cur.get_u64()? as usize;
    let n_sym = symbol_count(orig_len, width);
    let mut br = BitReader::new(cur.take_rest());
    let mut out = Vec::with_capacity(decode_capacity(orig_len));
    let mut i = 0usize;
    while i < n_sym {
        let count = BLOCK_SYMBOLS.min(n_sym - i);
        let bits = br.get_bits(6)? as u32;
        // The check here used to be `bits > 64`, which a 6-bit field never
        // meets; `get_bits` serves at most 57 bits, so the reference stops
        // there.
        if bits > 57 {
            return Err(CodecError::corrupt(
                "clog",
                format!("invalid block width {bits}"),
            ));
        }
        for k in 0..count {
            let v = if bits == 0 { 0 } else { br.get_bits(bits)? };
            let remaining = orig_len - (i + k) * width;
            write_symbol(&mut out, v, width, remaining);
        }
        i += count;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip<const W: usize>(data: &[u8]) -> usize {
        let enc = Clog::<W>.encode_bytes(data);
        assert_eq!(
            Clog::<W>.decode_bytes(&enc, data.len()).unwrap(),
            data,
            "width {W}"
        );
        enc.len()
    }

    #[test]
    fn roundtrip_various() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for len in [0usize, 1, 5, 255, 256, 257, 5000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip::<1>(&data);
            roundtrip::<2>(&data);
            roundtrip::<4>(&data);
        }
    }

    #[test]
    fn small_values_pack_tightly() {
        let data: Vec<u8> = (0..100_000).map(|i| (i % 4) as u8).collect();
        let size = roundtrip::<1>(&data);
        // 2 bits per symbol plus headers → about a quarter of the input.
        assert!(
            size < data.len() / 3,
            "2-bit values should pack to ~25%, got {size}"
        );
    }

    #[test]
    fn all_zero_blocks_cost_almost_nothing() {
        let data = vec![0u8; 65_536];
        let size = roundtrip::<1>(&data);
        assert!(
            size < 300,
            "zero blocks should cost only the per-block widths, got {size}"
        );
    }

    #[test]
    fn outlier_only_hurts_its_own_block() {
        let mut data = vec![1u8; 4096];
        data[100] = 255;
        let size_with = roundtrip::<1>(&data);
        let size_without = roundtrip::<1>(&vec![1u8; 4096]);
        assert!(
            size_with < size_without + 300,
            "an outlier must only widen its own block"
        );
    }

    #[test]
    fn truncated_stream_is_detected() {
        let enc = Clog::<1>.encode_bytes(&[200u8; 1000]);
        assert!(Clog::<1>
            .decode_bytes(&enc[..enc.len() / 2], usize::MAX)
            .is_err());
    }
}
