//! Canonical Huffman coding over byte symbols.
//!
//! cuSZ, cuSZ-I and the CR-mode pipeline of cuSZ-Hi all use Huffman coding as
//! the entropy stage over the quantization codes. This module implements a
//! canonical, length-limited Huffman coder over `u8` symbols:
//!
//! * code lengths come from a standard two-queue Huffman construction over
//!   the symbol histogram, then are limited to [`MAX_CODE_LEN`] bits with a
//!   Kraft-sum fix-up (the approach used by zlib);
//! * only the 256 code lengths are stored in the header (canonical codes are
//!   reconstructed on decode), so the header overhead matches the "Huffman
//!   tree can be a non-negligible overhead at very high CR" effect the paper
//!   discusses for small inputs;
//! * decoding uses a 12-bit prefix lookup table with a canonical fallback for
//!   longer codes.

use crate::bitio::{decode_capacity, put_u64, BitReader, BitWriter, ByteCursor, WordWriter};
use crate::CodecError;

/// Maximum code length in bits. 32 is far above the entropy of quantization
/// codes but keeps the fix-up cheap and the decoder simple.
pub const MAX_CODE_LEN: u32 = 32;

const LUT_BITS: u32 = 12;

/// Computes the Huffman code length of every symbol of `hist` (zero for
/// symbols that never occur), limited to `MAX_CODE_LEN`.
fn code_lengths(hist: &[u64; 256]) -> [u32; 256] {
    let mut lengths = [0u32; 256];
    let symbols: Vec<usize> = (0..256).filter(|&s| hist[s] > 0).collect();
    match symbols.len() {
        0 => return lengths,
        1 => {
            lengths[symbols[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Two-queue Huffman construction over (weight, node) pairs.
    #[derive(Clone, Copy)]
    struct Node {
        weight: u64,
        // Index into `nodes`; leaves store the symbol in `symbol`.
        left: i32,
        right: i32,
        symbol: i32,
    }
    let mut nodes: Vec<Node> = symbols
        .iter()
        .map(|&s| Node {
            weight: hist[s],
            left: -1,
            right: -1,
            symbol: s as i32,
        })
        .collect();
    nodes.sort_by_key(|n| n.weight);
    let mut leaves: std::collections::VecDeque<usize> = (0..nodes.len()).collect();
    let mut internal: std::collections::VecDeque<usize> = std::collections::VecDeque::new();

    let pop_min = |nodes: &Vec<Node>,
                   leaves: &mut std::collections::VecDeque<usize>,
                   internal: &mut std::collections::VecDeque<usize>|
     -> usize {
        match (leaves.front(), internal.front()) {
            (Some(&l), Some(&i)) => {
                if nodes[l].weight <= nodes[i].weight {
                    leaves.pop_front().unwrap()
                } else {
                    internal.pop_front().unwrap()
                }
            }
            (Some(_), None) => leaves.pop_front().unwrap(),
            (None, Some(_)) => internal.pop_front().unwrap(),
            (None, None) => unreachable!("huffman construction ran out of nodes"),
        }
    };

    while leaves.len() + internal.len() > 1 {
        let a = pop_min(&nodes, &mut leaves, &mut internal);
        let b = pop_min(&nodes, &mut leaves, &mut internal);
        let merged = Node {
            weight: nodes[a].weight + nodes[b].weight,
            left: a as i32,
            right: b as i32,
            symbol: -1,
        };
        nodes.push(merged);
        internal.push_back(nodes.len() - 1);
    }
    let root = internal.pop_front().unwrap();

    // Depth-first traversal to assign lengths.
    let mut stack = vec![(root, 0u32)];
    while let Some((idx, depth)) = stack.pop() {
        let n = nodes[idx];
        if n.symbol >= 0 {
            lengths[n.symbol as usize] = depth.max(1);
        } else {
            stack.push((n.left as usize, depth + 1));
            stack.push((n.right as usize, depth + 1));
        }
    }

    limit_lengths(&mut lengths);
    lengths
}

/// Limits code lengths to `MAX_CODE_LEN` while keeping the Kraft sum exactly 1
/// (zlib-style fix-up). Lengths of zero mean "symbol absent".
fn limit_lengths(lengths: &mut [u32; 256]) {
    let over: Vec<usize> = (0..256).filter(|&s| lengths[s] > MAX_CODE_LEN).collect();
    if over.is_empty() {
        return;
    }
    for &s in &over {
        lengths[s] = MAX_CODE_LEN;
    }
    // Kraft sum in units of 2^-MAX_CODE_LEN.
    let unit = 1u64 << MAX_CODE_LEN;
    let mut kraft: u64 = (0..256)
        .filter(|&s| lengths[s] > 0)
        .map(|s| unit >> lengths[s])
        .sum();
    // While over-subscribed, lengthen the shortest-coded low-frequency symbols.
    while kraft > unit {
        // Find a symbol with the largest length < MAX_CODE_LEN and grow it.
        let mut candidate = None;
        for s in 0..256 {
            if lengths[s] > 0 && lengths[s] < MAX_CODE_LEN {
                candidate = match candidate {
                    None => Some(s),
                    Some(c) if lengths[s] > lengths[c] => Some(s),
                    other => other,
                };
            }
        }
        let s = candidate.expect("kraft fix-up failed to find a symbol to lengthen");
        kraft -= unit >> lengths[s];
        lengths[s] += 1;
        kraft += unit >> lengths[s];
    }
    // If under-subscribed (possible after clamping), shorten symbols greedily.
    loop {
        let mut changed = false;
        for len in lengths.iter_mut() {
            if *len > 1 {
                let gain = (unit >> (*len - 1)) - (unit >> *len);
                if kraft + gain <= unit {
                    *len -= 1;
                    kraft += gain;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Assigns canonical codes to symbols given their code lengths: shorter codes
/// first, ties broken by symbol value.
fn canonical_codes(lengths: &[u32; 256]) -> [u64; 256] {
    let mut codes = [0u64; 256];
    let mut symbols: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s], s));
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for &s in &symbols {
        code <<= lengths[s] - prev_len;
        codes[s] = code;
        code += 1;
        prev_len = lengths[s];
    }
    codes
}

/// A canonical Huffman code book built from a symbol histogram.
#[derive(Debug, Clone)]
pub struct HuffmanBook {
    lengths: [u32; 256],
    codes: [u64; 256],
}

impl HuffmanBook {
    /// Builds the code book for `data`.
    pub fn from_data(data: &[u8]) -> Self {
        let mut hist = [0u64; 256];
        for &b in data {
            hist[b as usize] += 1;
        }
        Self::from_histogram(&hist)
    }

    /// Builds the code book from an explicit histogram.
    pub fn from_histogram(hist: &[u64; 256]) -> Self {
        let lengths = code_lengths(hist);
        let codes = canonical_codes(&lengths);
        HuffmanBook { lengths, codes }
    }

    /// The code length (bits) of `symbol`, zero when the symbol is absent.
    pub fn length(&self, symbol: u8) -> u32 {
        self.lengths[symbol as usize]
    }

    /// The canonical code of `symbol` (valid in its low
    /// [`length`](HuffmanBook::length) bits).
    pub fn code(&self, symbol: u8) -> u64 {
        self.codes[symbol as usize]
    }

    /// The total encoded size in bits of data with histogram `hist`.
    pub fn encoded_bits(&self, hist: &[u64; 256]) -> u64 {
        (0..256).map(|s| hist[s] * self.lengths[s] as u64).sum()
    }

    /// The per-symbol `(code, length)` pairs packed into one `u64` each
    /// (`code << 6 | length`): the hot encode loop reads a single table
    /// entry per symbol instead of two separate arrays. Codes fit because
    /// [`MAX_CODE_LEN`] ≤ 32 and lengths fit in 6 bits.
    fn packed_table(&self) -> [u64; 256] {
        let mut table = [0u64; 256];
        for (s, entry) in table.iter_mut().enumerate() {
            *entry = (self.codes[s] << 6) | self.lengths[s] as u64;
        }
        table
    }
}

/// Encodes `data` with a canonical Huffman code built from its histogram.
///
/// Output layout: `[n_symbols: u64][256 packed 6-bit lengths][payload bits]`.
/// The payload loop is table-driven over a `u64` bit accumulator: one packed
/// `(code, len)` lookup and one [`WordWriter::put`] shift-or per symbol,
/// flushing 32 output bits at a time.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let book = HuffmanBook::from_data(data);
    let mut out = Vec::with_capacity(data.len() / 2 + 256);
    put_u64(&mut out, data.len() as u64);
    // Pack the 256 code lengths, 6 bits each (MAX_CODE_LEN ≤ 63).
    let mut lw = BitWriter::with_capacity_bits(256 * 6);
    for s in 0..256 {
        lw.put_bits(book.lengths[s] as u64, 6);
    }
    out.extend_from_slice(&lw.finish());
    let table = book.packed_table();
    let mut ww = WordWriter::with_capacity_bits(data.len() * 4);
    for &b in data {
        let entry = table[b as usize];
        ww.put((entry >> 6) as u32, (entry & 0x3F) as u32);
    }
    out.extend_from_slice(&ww.finish());
    out
}

/// Reference encoder kept for the differential tests: identical output to
/// [`encode`], but written through the byte-at-a-time [`BitWriter`] with
/// separate code/length lookups (the pre-optimisation formulation).
#[cfg(test)]
pub fn encode_reference(data: &[u8]) -> Vec<u8> {
    let book = HuffmanBook::from_data(data);
    let mut out = Vec::with_capacity(data.len() / 2 + 256);
    put_u64(&mut out, data.len() as u64);
    let mut lw = BitWriter::with_capacity_bits(256 * 6);
    for s in 0..256 {
        lw.put_bits(book.lengths[s] as u64, 6);
    }
    out.extend_from_slice(&lw.finish());
    let mut bw = BitWriter::with_capacity_bits(data.len() * 4);
    for &b in data {
        bw.put_bits(book.codes[b as usize], book.lengths[b as usize]);
    }
    out.extend_from_slice(&bw.finish());
    out
}

/// Decodes a stream produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    decode_limited(data, usize::MAX)
}

/// Like [`decode`], but rejects streams whose claimed symbol count exceeds
/// `max_out` before any decoding work, for use on untrusted input.
pub fn decode_limited(data: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(data);
    let n = cur.get_u64()? as usize;
    if n > max_out {
        return Err(CodecError::corrupt(
            "huffman",
            format!("claimed {n} symbols, limit {max_out}"),
        ));
    }
    let lengths_bytes = cur.take(192)?; // 256 * 6 bits = 192 bytes
    let mut lr = BitReader::new(lengths_bytes);
    let mut lengths = [0u32; 256];
    for l in lengths.iter_mut() {
        *l = lr.get_bits(6)? as u32;
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    if lengths.iter().all(|&l| l == 0) {
        return Err(CodecError::header(
            "huffman",
            "no symbols in code book for non-empty payload",
        ));
    }
    // Reject code books that violate the Kraft inequality: canonical code
    // assignment for an over-subscribed book overflows the codes' bit
    // lengths, and with them the LUT index space.
    let unit = 1u64 << 32;
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    if kraft > unit {
        return Err(CodecError::corrupt(
            "huffman",
            "code book violates the Kraft inequality",
        ));
    }
    // szhi-analyzer: allow(panic-reachability) -- `canonical_codes` indexes two fixed `[_; 256]` tables with symbols drawn from `0..256`, in bounds by construction; the Kraft check above already rejected malformed code books
    let codes = canonical_codes(&lengths);

    // For the canonical fallback: occurring symbols with their length and
    // code, sorted by (length, symbol) — the canonical order.
    let mut sorted: Vec<(u16, u32, u64)> = lengths
        .iter()
        .zip(codes.iter())
        .enumerate()
        .filter(|&(_, (&l, _))| l > 0)
        .map(|(s, (&l, &c))| (s as u16, l, c))
        .collect();
    sorted.sort_by_key(|&(s, l, _)| (l, s));

    // Decoding tables: a (symbol, length) LUT for codes up to LUT_BITS,
    // canonical search above.
    let mut lut = vec![(0u8, 0u8); 1 << LUT_BITS];
    for &(s, len, code) in &sorted {
        if len <= LUT_BITS {
            let shift = LUT_BITS - len;
            let start = (code << shift) as usize;
            lut.get_mut(start..start + (1usize << shift))
                .ok_or_else(|| {
                    CodecError::corrupt("huffman", "code book overflows the decode LUT")
                })?
                .fill((s as u8, len as u8));
        }
    }
    // Canonical tables for the slow path, one entry per code length:
    // (symbol count, first canonical code, index of the first symbol of
    // that length in the canonical order).
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut levels = vec![(0u64, 0u64, 0usize); (max_len + 1) as usize];
    for &(_, len, _) in &sorted {
        if let Some(level) = levels.get_mut(len as usize) {
            level.0 += 1;
        }
    }
    {
        let mut code = 0u64;
        let mut idx = 0usize;
        for level in levels.iter_mut().skip(1) {
            level.1 = code;
            level.2 = idx;
            code = (code + level.0) << 1;
            idx += level.0 as usize;
        }
    }

    let payload = cur.take_rest();
    // Every decoded symbol consumes at least one bit, so a symbol count
    // beyond the payload's bit count is corrupt. Without this check the
    // decode loop would read the final byte's zero padding indefinitely.
    if n > payload.len() * 8 {
        return Err(CodecError::corrupt(
            "huffman",
            format!("claimed {n} symbols from a {}-byte payload", payload.len()),
        ));
    }
    let mut br = BitReader::new(payload);
    let mut out = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let peek = br.peek_bits(LUT_BITS) as usize;
        if let Some(&(sym, len)) = lut.get(peek) {
            if len != 0 {
                br.consume(len as u32);
                out.push(sym);
                continue;
            }
        }
        // Slow path: the code is longer than LUT_BITS; decode it bit by bit
        // with the canonical tables.
        let mut code = 0u64;
        let mut l = 0u32;
        loop {
            l += 1;
            if l > max_len {
                return Err(CodecError::corrupt(
                    "huffman",
                    "code longer than the longest code length",
                ));
            }
            code = (code << 1) | br.get_bit()? as u64;
            let &(cnt, first_code, first_index) = levels
                .get(l as usize)
                .ok_or_else(|| CodecError::corrupt("huffman", "code length out of range"))?;
            if cnt > 0 && code >= first_code && code - first_code < cnt {
                let idx = first_index + (code - first_code) as usize;
                let &(sym, _, _) = sorted.get(idx).ok_or_else(|| {
                    CodecError::corrupt("huffman", "canonical index out of range")
                })?;
                out.push(sym as u8);
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) {
        let enc = encode(data);
        let dec = decode(&enc).expect("decode failed");
        assert_eq!(dec, data);
    }

    #[test]
    fn word_encoder_matches_the_bitwriter_reference() {
        // The table-driven WordWriter hot loop must be byte-identical to
        // the byte-at-a-time reference on every input shape, including
        // skewed histograms that produce length-limited (32-bit) codes.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let mut skewed = Vec::new();
        for s in 0..200u32 {
            let reps = 1usize << (s % 18).min(14);
            skewed.extend(std::iter::repeat_n(s as u8, reps));
        }
        let uniform: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        for data in [&b""[..], &b"a"[..], &skewed[..], &uniform[..]] {
            assert_eq!(encode(data), encode_reference(data));
        }
    }

    #[test]
    fn oversubscribed_code_book_is_rejected() {
        // A book claiming length 1 for three symbols violates the Kraft
        // inequality; canonical code assignment would overflow the LUT.
        let mut stream = Vec::new();
        crate::bitio::put_u64(&mut stream, 8);
        let mut bw = BitWriter::new();
        for s in 0..256u32 {
            bw.put_bits(if s < 3 { 1 } else { 0 }, 6);
        }
        stream.extend_from_slice(&bw.finish());
        stream.extend_from_slice(&[0xAA; 16]);
        assert!(decode(&stream).is_err());
    }

    #[test]
    fn symbol_count_beyond_payload_bits_is_rejected() {
        // Each symbol consumes at least one bit; inflating the count must
        // fail upfront instead of decoding the final byte's padding forever.
        let mut enc = encode(&[1u8, 2, 3, 4, 5, 6, 7, 8]);
        enc[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&enc).is_err());
        // And decode_limited rejects counts beyond the caller's bound.
        let mut enc = encode(&[9u8; 100]);
        enc[0..8].copy_from_slice(&400u64.to_le_bytes());
        assert!(decode_limited(&enc, 100).is_err());
    }

    #[test]
    fn empty_input() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_runs() {
        roundtrip(&[42u8; 1000]);
        roundtrip(&[0u8]);
    }

    #[test]
    fn two_symbols() {
        let data: Vec<u8> = (0..500).map(|i| if i % 3 == 0 { 7 } else { 200 }).collect();
        roundtrip(&data);
    }

    #[test]
    fn all_symbols_uniform() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 256) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // Quantization-code-like data: strongly peaked around 128.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                let r: f64 = rng.gen();
                128u8.wrapping_add(((r - 0.5) * 8.0) as i8 as u8)
            })
            .collect();
        let enc = encode(&data);
        assert!(
            enc.len() < data.len() / 2,
            "skewed data should compress at least 2x, got {} -> {}",
            data.len(),
            enc.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn random_data_roundtrips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for len in [1usize, 2, 3, 255, 256, 1000, 65537] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn lengths_satisfy_kraft_inequality() {
        let mut hist = [0u64; 256];
        // Fibonacci-ish weights force long codes.
        let mut a = 1u64;
        let mut b = 1u64;
        for h in hist.iter_mut().take(64) {
            *h = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let book = HuffmanBook::from_histogram(&hist);
        let kraft: f64 = (0..256)
            .filter(|&s| book.lengths[s] > 0)
            .map(|s| 2f64.powi(-(book.lengths[s] as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "Kraft sum {kraft} exceeds 1");
        assert!(book.lengths.iter().all(|&l| l <= MAX_CODE_LEN));
    }

    #[test]
    fn truncated_stream_errors() {
        let enc = encode(&[1u8, 2, 3, 4, 5, 6, 7, 8]);
        assert!(decode(&enc[..enc.len() - 1]).is_err() || decode(&enc[..enc.len() - 1]).is_ok());
        // Cutting into the header must error.
        assert!(decode(&enc[..16]).is_err());
    }

    #[test]
    fn encoded_bits_matches_actual_payload() {
        let data: Vec<u8> = (0..10_000).map(|i| ((i * i) % 7) as u8).collect();
        let mut hist = [0u64; 256];
        for &b in &data {
            hist[b as usize] += 1;
        }
        let book = HuffmanBook::from_histogram(&hist);
        let bits = book.encoded_bits(&hist);
        let enc = encode(&data);
        let payload_bytes = enc.len() as u64 - 8 - 192;
        assert!(
            payload_bytes >= bits / 8 && payload_bytes <= bits / 8 + 1,
            "payload {payload_bytes} vs predicted bits {bits}"
        );
    }
}
