//! A static rANS entropy coder over byte symbols.
//!
//! The paper's Figure 6 includes nvCOMP's proprietary ANS codec among the
//! benchmarked lossless encoders. This module provides an open-source
//! stand-in: a classic single-state range-asymmetric-numeral-system coder
//! with static, 12-bit-normalised frequencies. Like the real thing it is an
//! order-0 entropy coder, so its compression ratio on quantization codes is
//! close to Huffman's while its throughput profile differs from the
//! dictionary and bit-packing codecs.

use crate::bitio::{decode_capacity, put_u16, put_u64, ByteCursor};
use crate::histogram::byte_histogram;
use crate::CodecError;

/// Log2 of the frequency normalisation total.
const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;
/// Lower bound of the rANS state.
const RANS_L: u32 = 1 << 23;

/// Normalises a histogram so the frequencies sum to exactly `SCALE` and every
/// occurring symbol keeps a non-zero frequency.
fn normalize(hist: &[u64; 256]) -> [u32; 256] {
    let total: u64 = hist.iter().sum();
    let mut freqs = [0u32; 256];
    if total == 0 {
        return freqs;
    }
    let mut assigned = 0u32;
    for s in 0..256 {
        if hist[s] > 0 {
            let f = ((hist[s] as u128 * SCALE as u128) / total as u128) as u32;
            freqs[s] = f.max(1);
            assigned += freqs[s];
        }
    }
    // Fix the sum to exactly SCALE by adjusting the most frequent symbol(s).
    if assigned > SCALE {
        let mut excess = assigned - SCALE;
        // Shrink symbols with the largest frequencies first, never below 1.
        while excess > 0 {
            let s = (0..256).max_by_key(|&s| freqs[s]).unwrap();
            if freqs[s] <= 1 {
                break;
            }
            let take = excess.min(freqs[s] - 1);
            freqs[s] -= take;
            excess -= take;
        }
    } else if assigned < SCALE {
        let s = (0..256).max_by_key(|&s| freqs[s]).unwrap();
        freqs[s] += SCALE - assigned;
    }
    freqs
}

fn cumulative(freqs: &[u32; 256]) -> [u32; 257] {
    let mut cum = [0u32; 257];
    for s in 0..256 {
        cum[s + 1] = cum[s] + freqs[s];
    }
    cum
}

/// One symbol's fused encode-table entry: the renormalisation threshold, the
/// cumulative base, and an exact multiplicative reciprocal of the frequency,
/// so the hot loop performs no hardware division and reads a single table
/// entry per symbol.
#[derive(Debug, Clone, Copy, Default)]
struct SymEnc {
    /// Reciprocal multiplier: `x / freq == (x * m) >> shift` exactly for
    /// every state value `x < 2^31` (the rANS state invariant).
    m: u64,
    shift: u32,
    /// Renormalisation threshold `freq << (23 - 12 + 8)`: the state must
    /// drop below this before encoding, in at most two byte shifts.
    x_max: u32,
    freq: u32,
    cum: u32,
}

/// Builds the fused per-symbol encode table. The reciprocal uses the
/// round-up method: with `shift = 31 + ceil_log2(f)` and
/// `m = ceil(2^shift / f)`, the error `ε = m·f − 2^shift` is below
/// `2^(shift−31)`, so for `x < 2^31` the truncated product
/// `(x·m) >> shift` equals `x / f` exactly — the encoder's output bytes are
/// bit-identical to the divide-based reference.
fn encode_table(freqs: &[u32; 256], cum: &[u32; 257]) -> [SymEnc; 256] {
    let mut table = [SymEnc::default(); 256];
    for s in 0..256 {
        let f = freqs[s];
        if f == 0 {
            continue;
        }
        let ceil_log2 = 32 - (f - 1).leading_zeros();
        let shift = 31 + ceil_log2;
        let m = (1u64 << shift).div_ceil(f as u64);
        table[s] = SymEnc {
            m,
            shift,
            x_max: ((RANS_L >> SCALE_BITS) << 8) * f,
            freq: f,
            cum: cum[s],
        };
    }
    table
}

/// Encodes `data` with a static rANS coder.
///
/// Layout: `n u64 | 256 × u16 frequencies | payload` where the payload is the
/// 4-byte final state followed by the renormalisation bytes in decode order.
/// The hot loop is table-driven: one fused `SymEnc` entry per symbol
/// supplies the renormalisation threshold, an exact reciprocal replacing the
/// `x / f` hardware division, and the cumulative base; renormalisation is
/// unrolled to its maximum of two byte emissions.
pub(crate) fn encode(data: &[u8]) -> Vec<u8> {
    encode_counted(data, &byte_histogram(data))
}

/// [`encode`] of `data` whose byte histogram the caller already counted.
pub(crate) fn encode_counted(data: &[u8], hist: &[u64; 256]) -> Vec<u8> {
    let freqs = normalize(hist);
    let cum = cumulative(&freqs);

    let mut out = Vec::with_capacity(data.len() / 2 + 512 + 16);
    put_u64(&mut out, data.len() as u64);
    for &f in freqs.iter() {
        put_u16(&mut out, f as u16);
    }
    if data.is_empty() {
        return out;
    }

    let table = encode_table(&freqs, &cum);
    let mut emitted: Vec<u8> = Vec::with_capacity(data.len());
    let mut x: u32 = RANS_L;
    for &b in data.iter().rev() {
        let e = &table[b as usize];
        debug_assert!(e.freq > 0, "symbol {b} has zero frequency");
        // Renormalise so the state stays in [RANS_L, RANS_L * 256) after
        // encoding. The state invariant `x < 2^31` and `x_max ≥ 2^19` bound
        // the loop at two emissions, so it is unrolled.
        if x >= e.x_max {
            emitted.push(x as u8);
            x >>= 8;
            if x >= e.x_max {
                emitted.push(x as u8);
                x >>= 8;
            }
        }
        let q = ((x as u64 * e.m) >> e.shift) as u32;
        x = (q << SCALE_BITS) + (x - q * e.freq) + e.cum;
    }
    // Final state, then the stream bytes reversed so the decoder reads forward.
    out.extend_from_slice(&x.to_le_bytes());
    emitted.reverse();
    out.extend_from_slice(&emitted);
    out
}

/// A proven lower bound on the length of [`encode`]'s output for any input
/// whose byte histogram is `hist`, from the histogram alone.
///
/// Encoding symbol `s` takes the state `x` to `⌊x/f⌋·4096 + (x mod f) +
/// cum`, where `f` is the symbol's normalised frequency, and the state
/// before it is at least `2^11·f`; so each step multiplies the state by
/// more than `(4096/f)(1 − 2^-11)`. Each emitted byte divides a state of
/// at least `2^19` by at most `256/(1 − 2^-11)`. The state starts at
/// `2^23` and ends below `2^31`, so with `S = Σ c_s·log2(4096/f_s)` bits,
/// `n` symbols and `ε = −log2(1 − 2^-11)`, the emitted bytes number more
/// than `(S − n·ε − 8)/(8 + ε)`. The header (count, frequency table and
/// final state) is added exactly.
pub(crate) fn encoded_len_floor(hist: &[u64; 256]) -> usize {
    const HEADER: usize = 8 + 2 * 256;
    let n: u64 = hist.iter().sum();
    if n == 0 {
        return HEADER;
    }
    let freqs = normalize(hist);
    let bits: f64 = hist
        .iter()
        .zip(freqs)
        .filter(|&(&c, _)| c > 0)
        .map(|(&c, f)| c as f64 * (SCALE as f64 / f as f64).log2())
        .sum();
    let slack = -(1.0 - (-11f64).exp2()).log2();
    let emitted = (bits - n as f64 * slack - 8.0) / (8.0 + slack);
    // The floor of the bound, not its ceiling, leaves a byte for the
    // rounding of the sum above.
    HEADER + 4 + emitted.max(0.0).floor() as usize
}

/// Reference encoder kept for the differential tests: identical output to
/// [`encode`], but with the per-symbol hardware division and open-coded
/// renormalisation loop (the pre-optimisation formulation).
#[cfg(test)]
pub fn encode_reference(data: &[u8]) -> Vec<u8> {
    let freqs = normalize(&byte_histogram(data));
    let cum = cumulative(&freqs);

    let mut out = Vec::with_capacity(data.len() / 2 + 512 + 16);
    put_u64(&mut out, data.len() as u64);
    for &f in freqs.iter() {
        put_u16(&mut out, f as u16);
    }
    if data.is_empty() {
        return out;
    }

    let mut emitted: Vec<u8> = Vec::with_capacity(data.len());
    let mut x: u32 = RANS_L;
    for &b in data.iter().rev() {
        let f = freqs[b as usize];
        let x_max = ((RANS_L >> SCALE_BITS) << 8) * f;
        while x >= x_max {
            emitted.push(x as u8);
            x >>= 8;
        }
        x = ((x / f) << SCALE_BITS) + (x % f) + cum[b as usize];
    }
    out.extend_from_slice(&x.to_le_bytes());
    emitted.reverse();
    out.extend_from_slice(&emitted);
    out
}

/// Decodes a stream produced by [`encode`], rejecting streams whose claimed
/// symbol count exceeds `max_out` before any decoding work. Unlike Huffman
/// there is no sound input-derived bound on the symbol count — a degenerate
/// single-symbol frequency table emits symbols without consuming bits — so
/// untrusted callers must supply the bound.
pub(crate) fn decode_limited(data: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(data);
    let n = cur.get_u64()? as usize;
    if n > max_out {
        return Err(CodecError::corrupt(
            "ans",
            format!("claimed {n} symbols, limit {max_out}"),
        ));
    }
    let mut freqs = [0u32; 256];
    for f in freqs.iter_mut() {
        *f = cur.get_u16()? as u32;
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let total: u32 = freqs.iter().sum();
    if total != SCALE {
        return Err(CodecError::header(
            "ans",
            format!("frequencies sum to {total}, expected {SCALE}"),
        ));
    }
    // Slot → (symbol, frequency, cumulative-start) lookup table. Folding the
    // frequency and cumulative base into the slot entry keeps the hot loop
    // free of further table lookups (and of unchecked indexing).
    // szhi-analyzer: allow(capped-alloc) -- fixed 4 Ki-entry slot table, size is a compile-time constant
    let mut slots = Vec::with_capacity(SCALE as usize);
    let mut cum = 0u32;
    for (s, &f) in freqs.iter().enumerate() {
        for _ in 0..f {
            slots.push((s as u8, f, cum));
        }
        cum += f;
    }

    let mut x = u32::from_le_bytes(cur.take_array()?);
    let stream = cur.take_rest();
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let slot = x & (SCALE - 1);
        // The table holds exactly SCALE entries (the frequencies sum to
        // SCALE, checked above) and `slot < SCALE`, so the lookup succeeds.
        let &(s, f, base) = slots
            .get(slot as usize)
            .ok_or_else(|| CodecError::corrupt("ans", "slot table underflow"))?;
        x = f * (x >> SCALE_BITS) + slot - base;
        while x < RANS_L {
            let &byte = stream.get(pos).ok_or_else(|| CodecError::eof("ans"))?;
            x = (x << 8) | byte as u32;
            pos += 1;
        }
        out.push(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) -> usize {
        let enc = encode(data);
        assert_eq!(decode_limited(&enc, usize::MAX).unwrap(), data);
        enc.len()
    }

    #[test]
    fn fused_encoder_matches_the_division_reference() {
        // The reciprocal-multiply hot loop must be byte-identical to the
        // hardware-division reference on every frequency shape: uniform,
        // heavily skewed (maximal frequencies → minimal x_max slack), and
        // single-symbol degenerate tables.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
        let uniform: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
        let skewed: Vec<u8> = (0..50_000)
            .map(|_| {
                if rng.gen::<f64>() < 0.95 {
                    7u8
                } else {
                    rng.gen()
                }
            })
            .collect();
        let constant = vec![42u8; 10_000];
        for data in [
            &b""[..],
            &b"x"[..],
            &uniform[..],
            &skewed[..],
            &constant[..],
        ] {
            assert_eq!(encode(data), encode_reference(data));
        }
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[255; 3]);
        roundtrip(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn roundtrip_random_and_skewed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        let random: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
        roundtrip(&random);
        let skewed: Vec<u8> = (0..50_000)
            .map(|_| {
                let r: f64 = rng.gen();
                if r < 0.9 {
                    128
                } else {
                    rng.gen()
                }
            })
            .collect();
        let size = roundtrip(&skewed);
        assert!(
            size < skewed.len() / 2,
            "skewed data must compress ≥2x, got {size}"
        );
    }

    #[test]
    fn compression_close_to_entropy() {
        // Two symbols, p = 0.25 / 0.75 → H ≈ 0.811 bits/symbol.
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let data: Vec<u8> = (0..200_000)
            .map(|_| if rng.gen::<f64>() < 0.25 { 1u8 } else { 2u8 })
            .collect();
        let size = roundtrip(&data);
        let bits_per_symbol = size as f64 * 8.0 / data.len() as f64;
        assert!(
            bits_per_symbol < 0.9,
            "rANS should be near entropy (0.81), got {bits_per_symbol}"
        );
    }

    #[test]
    fn single_symbol_stream() {
        let size = roundtrip(&[7u8; 100_000]);
        assert!(size < 1200, "constant stream should collapse, got {size}");
    }

    #[test]
    fn corrupted_frequency_table_is_rejected() {
        let enc = encode(&[1u8, 2, 3, 4, 5, 6, 7, 8]);
        let mut bad = enc.clone();
        bad[8] ^= 0xff; // clobber a frequency entry
        assert!(
            decode_limited(&bad, usize::MAX).is_err()
                || decode_limited(&bad, usize::MAX).unwrap() != vec![1u8, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn truncation_is_detected() {
        let data: Vec<u8> = (0..10_000).map(|i| (i * 31 % 256) as u8).collect();
        let enc = encode(&data);
        assert!(decode_limited(&enc[..enc.len() - 4], usize::MAX).is_err());
    }
}
