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
/// supplies the renormalisation threshold, an exact reciprocal replacing
/// the `x / f` hardware division, and the cumulative base.
pub(crate) fn encode(data: &[u8]) -> Vec<u8> {
    encode_counted(data, &byte_histogram(data))
}

/// [`encode`] of `data` whose byte histogram the caller already counted.
///
/// The symbols are encoded last to first, and each one's renormalisation
/// bytes go in front of the ones already written, so the stream is built
/// back to front in decode order. Renormalisation has no branch: the
/// state's two low bytes are stored big-endian just in front of the
/// stream, and the front moves by the number of bytes the state sheds, 0,
/// 1 or 2 (at most 2, because `x < 2^31` and `x_max ≥ 2^19`).
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
    // Two bytes per symbol at most, and the two-byte store in front of the
    // first symbol's bytes.
    let mut stream = vec![0u8; 2 * data.len() + 2];
    let mut front = stream.len();
    let mut x: u32 = RANS_L;
    for &b in data.iter().rev() {
        let e = &table[b as usize];
        debug_assert!(e.freq > 0, "symbol {b} has zero frequency");
        let shed = (x >= e.x_max) as usize + (x >> 8 >= e.x_max) as usize;
        stream[front - 2..front].copy_from_slice(&(x as u16).to_be_bytes());
        front -= shed;
        x >>= 8 * shed;
        let q = ((x as u64 * e.m) >> e.shift) as u32;
        x = (q << SCALE_BITS) + (x - q * e.freq) + e.cum;
    }
    out.extend_from_slice(&x.to_le_bytes());
    out.extend_from_slice(&stream[front..]);
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

/// The decoder's slot tables, indexed by the state's low `SCALE_BITS`
/// bits: the symbol owning each slot, and `(freq << SCALE_BITS) | (slot −
/// cum)` packed in one word, 20 KiB in all.
struct SlotTables {
    symbol: [u8; SCALE as usize],
    step: [u32; SCALE as usize],
}

impl SlotTables {
    /// The tables of `freqs`, which sum to exactly `SCALE`.
    fn new(freqs: &[u32; 256]) -> Self {
        let mut tables = SlotTables {
            symbol: [0; SCALE as usize],
            step: [0; SCALE as usize],
        };
        let mut slots = tables.symbol.iter_mut().zip(tables.step.iter_mut());
        for (s, &f) in (0u8..=255).zip(freqs) {
            for (j, (symbol, step)) in (0..f).zip(slots.by_ref()) {
                *symbol = s;
                *step = (f << SCALE_BITS) | j;
            }
        }
        tables
    }
}

/// Decodes a stream produced by [`encode`], rejecting streams whose claimed
/// symbol count exceeds `max_out` before any decoding work. Unlike Huffman
/// there is no sound input-derived bound on the symbol count — a degenerate
/// single-symbol frequency table emits symbols without consuming bits — so
/// untrusted callers must supply the bound.
///
/// Renormalisation has no branch while two stream bytes are left: a decode
/// step takes a state of at least `RANS_L = 2^23` to at least `2^11`, so it
/// needs `(x < 2^23) + (x < 2^15)` bytes, and both candidates are read at
/// once. A state the step leaves below `2^11` (only a corrupt initial state
/// is below `RANS_L`) and the last byte of the stream take the byte loop.
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
    let tables = SlotTables::new(&freqs);

    let mut x = u32::from_le_bytes(cur.take_array()?);
    let stream = cur.take_rest();
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let slot = (x & (SCALE - 1)) as usize;
        // Both tables hold SCALE entries and `slot < SCALE`.
        let (Some(&s), Some(&step)) = (tables.symbol.get(slot), tables.step.get(slot)) else {
            return Err(CodecError::corrupt("ans", "slot table underflow"));
        };
        x = (step >> SCALE_BITS) * (x >> SCALE_BITS) + (step & (SCALE - 1));
        match stream.get(pos..).and_then(<[u8]>::first_chunk::<2>) {
            Some(&[a, b]) if x >= 1 << 11 => {
                pos += (x < RANS_L) as usize + (x < 1 << 15) as usize;
                let (one, two) = ((x << 8) | a as u32, (x << 16) | (a as u32) << 8 | b as u32);
                x = if x < 1 << 15 {
                    two
                } else if x < RANS_L {
                    one
                } else {
                    x
                };
            }
            _ => {
                while x < RANS_L {
                    let &byte = stream.get(pos).ok_or_else(|| CodecError::eof("ans"))?;
                    x = (x << 8) | byte as u32;
                    pos += 1;
                }
            }
        }
        out.push(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Reference encoder kept for the differential tests: identical output to
    /// [`encode`], but with the per-symbol hardware division and open-coded
    /// renormalisation loop (the pre-optimisation formulation).
    fn encode_reference(data: &[u8]) -> Vec<u8> {
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

    /// Reference decoder kept for the differential tests: identical results to
    /// [`decode_limited`], valid stream or not, with a `(symbol, frequency,
    /// cumulative base)` entry per slot and the open-coded renormalisation
    /// loop (the pre-optimisation formulation).
    fn decode_reference(data: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
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
            let (s, f, base) = slots[slot as usize];
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

    fn roundtrip(data: &[u8]) -> usize {
        let enc = encode(data);
        assert_eq!(decode_limited(&enc, usize::MAX).unwrap(), data);
        enc.len()
    }

    /// Inputs of every frequency-table shape: empty, one symbol, uniform,
    /// heavily skewed (maximal frequencies → minimal `x_max` slack),
    /// constant, and two symbols normalised to 4095 and 1.
    fn table_shapes() -> Vec<Vec<u8>> {
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
        let mut lopsided = vec![3u8; 60_000];
        lopsided[31_337] = 200;
        assert_eq!(
            (
                normalize(&byte_histogram(&lopsided))[3],
                normalize(&byte_histogram(&lopsided))[200]
            ),
            (4095, 1)
        );
        vec![
            Vec::new(),
            b"x".to_vec(),
            uniform,
            skewed,
            vec![42u8; 10_000],
            lopsided,
        ]
    }

    /// `encode` against the division reference and `decode_limited`
    /// against the slot-entry reference on `data`.
    fn assert_kernels_match(data: &[u8]) {
        let encoded = encode(data);
        assert!(encoded == encode_reference(data), "{} symbols", data.len());
        let decoded = decode_limited(&encoded, usize::MAX);
        assert_eq!(decoded, decode_reference(&encoded, usize::MAX));
        assert_eq!(decoded.as_deref(), Ok(data));
    }

    #[test]
    fn fused_encoder_matches_the_division_reference() {
        // The reciprocal-multiply, branch-free hot loop must be
        // byte-identical to the hardware-division reference on every
        // frequency shape, and the slot-table decoder must give back the
        // reference's symbols.
        for data in table_shapes() {
            assert_kernels_match(&data);
        }
    }

    #[test]
    fn decoder_fails_exactly_where_the_reference_fails() {
        // Every truncation and every byte flip of a few streams: a typed
        // error or the same symbols as the reference, never a panic. A
        // flipped state byte can leave the initial state below `RANS_L`,
        // which only the byte loop accepts.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let skewed: Vec<u8> = (0..3_000)
            .map(|_| {
                if rng.gen::<f64>() < 0.8 {
                    128
                } else {
                    rng.gen()
                }
            })
            .collect();
        let uniform: Vec<u8> = (0..1_500).map(|_| rng.gen()).collect();
        for data in [&skewed[..], &uniform[..], &[5u8; 700][..], &[1, 2][..]] {
            let encoded = encode(data);
            for cut in 0..encoded.len() {
                let stream = &encoded[..cut];
                let got = decode_limited(stream, data.len());
                assert_eq!(got, decode_reference(stream, data.len()), "cut {cut}");
                assert!(got.is_err(), "cut {cut}");
            }
            for at in 0..encoded.len() {
                for flip in [0x01, 0x80, 0xff] {
                    let mut stream = encoded.clone();
                    stream[at] ^= flip;
                    assert_eq!(
                        decode_limited(&stream, data.len()),
                        decode_reference(&stream, data.len()),
                        "byte {at} ^ {flip:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_low_initial_state_takes_the_byte_loop() {
        // The encoder never leaves a final state below `RANS_L`, so such a
        // state is corrupt; the step can then leave the state below 2^11,
        // more than two bytes short, and the decoder must read on byte by
        // byte exactly as the reference does.
        let data: Vec<u8> = (0..2_000u32).map(|i| (i * i % 251 % 13) as u8).collect();
        let encoded = encode(&data);
        for state in [0u32, 1, 0xff, 1 << 11, (1 << 12) - 1, 1 << 15, RANS_L - 1] {
            let mut stream = encoded.clone();
            stream[520..524].copy_from_slice(&state.to_le_bytes());
            // Bytes for the reads the low state adds, so that both decode.
            stream.extend_from_slice(&[0x5a; 8]);
            let decoded = decode_limited(&stream, data.len());
            assert!(decoded.is_ok(), "state {state:#x}");
            assert_eq!(
                decoded,
                decode_reference(&stream, data.len()),
                "state {state:#x}"
            );
        }
    }

    /// Random frequency tables: alphabets of 1 to 256 symbols drawn at
    /// random, with geometric to flat weights, over inputs of up to 200 K
    /// symbols. Run with `--ignored`.
    #[test]
    #[ignore = "long differential suite; CI runs it on release code"]
    fn kernels_match_the_references_on_random_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        for _ in 0..400 {
            let alphabet: Vec<u8> = (0..rng.gen_range(1..=256usize))
                .map(|_| rng.gen())
                .collect();
            let decay = rng.gen_range(0.0..1.0f64);
            let weights: Vec<f64> = (0..alphabet.len())
                .map(|k| (1.0 - decay).powi(k as i32))
                .collect();
            let total: f64 = weights.iter().sum();
            let len = rng.gen_range(1..200_000usize);
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    let mut r = rng.gen::<f64>() * total;
                    for (&symbol, &w) in alphabet.iter().zip(&weights) {
                        if r < w {
                            return symbol;
                        }
                        r -= w;
                    }
                    alphabet[0]
                })
                .collect();
            assert_kernels_match(&data);
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
