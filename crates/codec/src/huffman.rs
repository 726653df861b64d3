//! Canonical Huffman coding over byte symbols.
//!
//! cuSZ, cuSZ-I and the CR-mode pipeline of cuSZ-Hi all use Huffman coding as
//! the entropy stage over the quantization codes. This module implements a
//! canonical, length-limited Huffman coder over `u8` symbols:
//!
//! * code lengths come from a standard two-queue Huffman construction over
//!   the symbol histogram, then are limited to `MAX_CODE_LEN` bits with a
//!   Kraft-sum fix-up (the approach used by zlib);
//! * only the 256 code lengths are stored in the header (canonical codes are
//!   reconstructed on decode), so the header overhead matches the "Huffman
//!   tree can be a non-negligible overhead at very high CR" effect the paper
//!   discusses for small inputs;
//! * the histogram is counted in four interleaved lanes, and the payload is
//!   written through one packed `(code, length)` table lookup per symbol;
//! * decoding is a table kernel: each of the 2^12 entries of the decode table
//!   holds every whole code inside one 12-bit window (up to eight symbols)
//!   with their count and total length, so one lookup in a 64-bit window of
//!   the payload emits up to eight symbols with one 8-byte store, and one
//!   window load serves four lookups. A code longer than 12 bits is found by
//!   a canonical search over a window, which holds it because lengths are
//!   capped at `MAX_CODE_LEN`.
//!
//! The stream is `n u64 | 256 × 6-bit lengths (192 bytes) | payload`; the
//! payload is the canonical codes, MSB first, zero-padded to a byte.
//! Decoding treats the payload as followed by zero bits, except that a code
//! longer than 12 bits must end inside it.

#[cfg(test)]
use crate::bitio::BitWriter;
use crate::bitio::{put_u64, BitReader, ByteCursor, WordWriter};
use crate::histogram::byte_histogram;
use crate::CodecError;

/// Maximum code length in bits. 32 is far above the entropy of quantization
/// codes but keeps the fix-up cheap, and every code fits in the decoder's
/// 64-bit window at any bit offset. The decoder rejects longer lengths.
pub(crate) const MAX_CODE_LEN: u32 = 32;

/// Bits of the window the decode table is indexed by.
const LUT_BITS: u32 = 12;

/// Symbols one decode-table entry holds at most: one 8-byte store.
const MAX_RUN: usize = 8;

/// Table lookups per window load. A load holds at least 57 payload bits,
/// and each lookup consumes at most [`LUT_BITS`] of them, so the fourth
/// still sees `57 − 3 × 12 = 21` loaded bits.
const LOOKUPS_PER_LOAD: usize = 4;

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
/// first, ties broken by symbol value. The decoder reads the same
/// assignment from [`Canonical`].
fn canonical_codes(lengths: &[u32; 256]) -> [u64; 256] {
    let book = Canonical::new(lengths);
    let mut codes = [0u64; 256];
    for level in &book.levels {
        for rank in 0..level.count {
            let s = book.symbols[level.first_index + rank as usize];
            codes[s as usize] = level.first_code + rank;
        }
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
    /// Builds the code book from an explicit histogram.
    pub fn from_histogram(hist: &[u64; 256]) -> Self {
        let lengths = code_lengths(hist);
        let codes = canonical_codes(&lengths);
        HuffmanBook { lengths, codes }
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

/// Bytes of a stream ahead of its payload: the symbol count and the 256
/// packed 6-bit code lengths.
const HEADER_BYTES: usize = 8 + 192;

/// The exact length of [`encode`]'s output for any input whose byte
/// histogram is `hist`: the header plus the payload's code bits, padded to
/// a byte. The trial engine sizes a Huffman stage with it before running it.
pub(crate) fn encoded_len(hist: &[u64; 256]) -> usize {
    let bits = HuffmanBook::from_histogram(hist).encoded_bits(hist);
    HEADER_BYTES + bits.div_ceil(8) as usize
}

/// Encodes `data` with a canonical Huffman code built from its histogram.
///
/// Output layout: `[n_symbols: u64][256 packed 6-bit lengths][payload bits]`.
/// The payload loop is table-driven over a `u64` bit accumulator: one packed
/// `(code, len)` lookup and one [`WordWriter::put`] shift-or per symbol,
/// flushing 32 output bits at a time.
pub fn encode(data: &[u8]) -> Vec<u8> {
    encode_counted(data, &byte_histogram(data))
}

/// [`encode`] of `data` whose byte histogram the caller already counted.
pub(crate) fn encode_counted(data: &[u8], hist: &[u64; 256]) -> Vec<u8> {
    let book = HuffmanBook::from_histogram(hist);
    let mut out = Vec::with_capacity(data.len() / 2 + 256);
    put_u64(&mut out, data.len() as u64);
    // Pack the 256 code lengths, 6 bits each (MAX_CODE_LEN ≤ 63).
    let mut lw = WordWriter::with_capacity_bits(256 * 6);
    for s in 0..256 {
        lw.put(book.lengths[s], 6);
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
    encode_with_book(&HuffmanBook::from_histogram(&byte_histogram(data)), data)
}

/// The stream of `data` under `book`, written as [`encode_reference`]
/// writes it. Every symbol of `data` must have a code in `book`; tests use
/// it to build streams under code books no histogram of theirs would give.
#[cfg(test)]
fn encode_with_book(book: &HuffmanBook, data: &[u8]) -> Vec<u8> {
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

/// One code length's share of a canonical code book.
#[derive(Clone, Copy, Default)]
struct Level {
    /// Codes of this length.
    count: u64,
    /// The first (smallest) code of this length.
    first_code: u64,
    /// Canonical index of the symbol with that first code.
    first_index: usize,
}

/// A validated code book as the decoder reads it. Canonical codes of one
/// length are consecutive, so a code's symbol is found from its length's
/// [`Level`] alone.
struct Canonical {
    /// The occurring symbols in canonical order: by (length, symbol).
    symbols: [u8; 256],
    /// Indexed by code length; entry 0 is unused.
    levels: [Level; MAX_CODE_LEN as usize + 1],
    max_len: u32,
}

impl Canonical {
    /// The book of `lengths`, which must all be at most [`MAX_CODE_LEN`].
    fn new(lengths: &[u32; 256]) -> Self {
        let mut levels = [Level::default(); MAX_CODE_LEN as usize + 1];
        for &l in lengths.iter().filter(|&&l| l > 0) {
            if let Some(level) = levels.get_mut(l as usize) {
                level.count += 1;
            }
        }
        let (mut code, mut index) = (0u64, 0usize);
        for level in levels.iter_mut().skip(1) {
            level.first_code = code;
            level.first_index = index;
            code = (code + level.count) << 1;
            index += level.count as usize;
        }
        // Symbols ascend within each length, so placing them in symbol
        // order at their length's next slot gives the canonical order.
        let mut next = levels.map(|level| level.first_index);
        let mut symbols = [0u8; 256];
        for (s, &l) in lengths.iter().enumerate().filter(|&(_, &l)| l > 0) {
            if let Some(slot) = next.get_mut(l as usize) {
                if let Some(sym) = symbols.get_mut(*slot) {
                    *sym = s as u8;
                }
                *slot += 1;
            }
        }
        Canonical {
            symbols,
            levels,
            max_len: lengths.iter().copied().max().unwrap_or(0),
        }
    }

    /// The symbol whose code is `code`, `len` bits long, if there is one.
    #[inline]
    fn symbol_of(&self, len: u32, code: u64) -> Option<u8> {
        let level = self.levels.get(len as usize)?;
        let rank = code.wrapping_sub(level.first_code);
        if rank < level.count {
            self.symbols.get(level.first_index + rank as usize).copied()
        } else {
            None
        }
    }

    /// The code longer than [`LUT_BITS`] that `window` starts with, as
    /// `(symbol, length)`.
    fn long_code(&self, window: u64) -> Option<(u8, u32)> {
        (LUT_BITS + 1..=self.max_len)
            .find_map(|len| Some((self.symbol_of(len, window >> (64 - len))?, len)))
    }

    /// Every code of at most [`LUT_BITS`] bits as `(symbol, length, code)`,
    /// in canonical order.
    fn short_codes(&self) -> impl Iterator<Item = (u8, u32, u64)> + '_ {
        (1..=LUT_BITS).flat_map(move |len| {
            let level = self.levels.get(len as usize).copied().unwrap_or_default();
            (0..level.count).filter_map(move |rank| {
                let sym = self.symbols.get(level.first_index + rank as usize)?;
                Some((*sym, len, level.first_code + rank))
            })
        })
    }
}

/// A stream whose header [`read_stream`] has checked.
struct Stream<'a> {
    /// Symbols to decode, at least one.
    n: usize,
    book: Canonical,
    payload: &'a [u8],
}

/// Reads a stream's symbol count and code book and checks them against
/// each other and the payload. `None` is the empty stream, whose code book
/// is never read.
fn read_stream(data: &[u8], max_out: usize) -> Result<Option<Stream<'_>>, CodecError> {
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
        return Ok(None);
    }
    if lengths.iter().all(|&l| l == 0) {
        return Err(CodecError::header(
            "huffman",
            "no symbols in code book for non-empty payload",
        ));
    }
    // The encoder never writes a longer code, and the Kraft sum below
    // cannot see one: `2^32 >> l` is zero for every l above 32.
    if let Some(&l) = lengths.iter().find(|&&l| l > MAX_CODE_LEN) {
        return Err(CodecError::header(
            "huffman",
            format!("code length {l} exceeds {MAX_CODE_LEN}"),
        ));
    }
    // Reject code books that violate the Kraft inequality: canonical code
    // assignment for an over-subscribed book overflows the codes' bit
    // lengths, and with them the decode table's index space.
    let unit = 1u64 << MAX_CODE_LEN;
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    if kraft > unit {
        return Err(CodecError::corrupt(
            "huffman",
            "code book violates the Kraft inequality",
        ));
    }
    let payload = cur.take_rest();
    // Every decoded symbol consumes at least one bit, so a symbol count
    // beyond the payload's bit count is corrupt. This also bounds the
    // output the decoder allocates by eight times the payload.
    if n > payload.len() * 8 {
        return Err(CodecError::corrupt(
            "huffman",
            format!("claimed {n} symbols from a {}-byte payload", payload.len()),
        ));
    }
    Ok(Some(Stream {
        n,
        book: Canonical::new(&lengths),
        payload,
    }))
}

/// One decode-table entry: the whole codes a [`LUT_BITS`]-bit window starts
/// with, up to [`MAX_RUN`] of them. `count == 0` means the window starts
/// with a longer code, or with no code of the book.
#[derive(Clone, Copy, Default)]
struct Entry {
    symbols: [u8; MAX_RUN],
    count: u8,
    /// Total length of the `count` codes.
    bits: u8,
}

/// Builds the decode table of `book`: entry `w` holds every whole code
/// window `w` starts with.
fn decode_table(book: &Canonical) -> Result<Vec<Entry>, CodecError> {
    let short: Vec<(u8, u32, u64)> = book.short_codes().collect();
    // covered[r]: how many r-bit windows start with a code of at most r
    // bits. Canonical codes of at most r bits are the smallest r-bit
    // prefixes, so those windows are exactly 0..covered[r].
    let mut covered = [0u64; LUT_BITS as usize + 1];
    let mut windows = 0u64;
    for (r, slot) in covered.iter_mut().enumerate().skip(1) {
        windows = 2 * windows + book.levels.get(r).map_or(0, |level| level.count);
        *slot = windows;
    }
    let mut table = vec![Entry::default(); 1 << LUT_BITS];
    fill_runs(&mut table, &short, &covered, 0, Entry::default())?;
    Ok(table)
}

/// Fills the entries of every window that starts with the codes of `run`
/// (concatenated: `prefix`, `run.bits` long). Windows whose next code also
/// fits are left to the longer runs; the rest get `run` itself. Every
/// window is written once.
fn fill_runs(
    table: &mut [Entry],
    short: &[(u8, u32, u64)],
    covered: &[u64; LUT_BITS as usize + 1],
    prefix: u64,
    run: Entry,
) -> Result<(), CodecError> {
    let rest = LUT_BITS - run.bits as u32;
    let full = run.count as usize == MAX_RUN;
    let longer = if full {
        0
    } else {
        covered.get(rest as usize).copied().unwrap_or(0)
    };
    let start = (prefix << rest) as usize;
    let end = ((prefix + 1) << rest) as usize;
    table
        .get_mut(start + longer as usize..end)
        .ok_or_else(|| CodecError::corrupt("huffman", "code book overflows the decode table"))?
        .fill(run);
    if full {
        return Ok(());
    }
    for &(sym, len, code) in short.iter().take_while(|&&(_, len, _)| len <= rest) {
        let mut next = run;
        if let Some(slot) = next.symbols.get_mut(run.count as usize) {
            *slot = sym;
        }
        next.count += 1;
        next.bits += len as u8;
        fill_runs(table, short, covered, (prefix << len) | code, next)?;
    }
    Ok(())
}

/// The 64 payload bits from bit `bitpos` on, MSB first; bits past the end
/// of the payload read as zero.
#[inline(always)]
fn window_at(payload: &[u8], bitpos: usize) -> u64 {
    let rest = payload.get(bitpos >> 3..).unwrap_or(&[]);
    let bytes = match rest.first_chunk::<8>() {
        Some(&bytes) => bytes,
        None => {
            let mut bytes = [0u8; 8];
            bytes.iter_mut().zip(rest).for_each(|(d, &s)| *d = s);
            bytes
        }
    };
    u64::from_be_bytes(bytes) << (bitpos & 7)
}

/// Decodes a stream produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    decode_limited(data, usize::MAX)
}

/// Like [`decode`], but rejects streams whose claimed symbol count exceeds
/// `max_out` before any decoding work, for use on untrusted input.
///
/// Each step loads the 64-bit window at the current bit and looks its top
/// 12 bits up in the decode table, up to four times per load: one 8-byte
/// store writes an entry's symbols into the output's slack, and the
/// position and the window advance by their count and length. An entry
/// without symbols means a longer code, found by a canonical search over a
/// freshly loaded window.
pub fn decode_limited(data: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
    let Some(Stream { n, book, payload }) = read_stream(data, max_out)? else {
        return Ok(Vec::new());
    };
    let table = decode_table(&book)?;
    let total_bits = payload.len() * 8;
    // `n` is at most eight times the payload (`read_stream`); the slack
    // takes the last entry's store whole.
    let mut out = vec![0u8; n + MAX_RUN];
    let (mut produced, mut bitpos) = (0usize, 0usize);
    while produced < n {
        let mut window = window_at(payload, bitpos);
        let start = produced;
        for _ in 0..LOOKUPS_PER_LOAD {
            let entry = table
                .get((window >> (64 - LUT_BITS)) as usize)
                .copied()
                .unwrap_or_default();
            if entry.count == 0 || produced >= n {
                break;
            }
            out.get_mut(produced..produced + MAX_RUN)
                .ok_or_else(|| CodecError::corrupt("huffman", "output slack exhausted"))?
                .copy_from_slice(&entry.symbols);
            produced += entry.count as usize;
            bitpos += entry.bits as usize;
            window <<= entry.bits;
        }
        if produced > start {
            continue;
        }
        let (sym, len) = book.long_code(window).ok_or_else(|| {
            CodecError::corrupt("huffman", "code longer than the longest code length")
        })?;
        // Only a code of at most LUT_BITS bits may reach into the zero
        // bits past the payload.
        bitpos += len as usize;
        if bitpos > total_bits {
            return Err(CodecError::eof("huffman"));
        }
        if let Some(slot) = out.get_mut(produced) {
            *slot = sym;
        }
        produced += 1;
    }
    out.truncate(n);
    Ok(out)
}

/// Reference decoder kept for the differential tests: the one-symbol-per-
/// peek loop the table kernel replaced, with its `(symbol, length)` table
/// for codes of at most [`LUT_BITS`] bits and a bit-by-bit canonical search
/// above. It reads the stream through the same [`read_stream`].
#[cfg(test)]
pub fn decode_reference(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let Some(Stream { n, book, payload }) = read_stream(data, usize::MAX)? else {
        return Ok(Vec::new());
    };
    let mut lut = vec![(0u8, 0u32); 1 << LUT_BITS];
    for (sym, len, code) in book.short_codes() {
        let shift = LUT_BITS - len;
        let start = (code << shift) as usize;
        lut[start..start + (1 << shift)].fill((sym, len));
    }
    let mut br = BitReader::new(payload);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (sym, len) = lut[br.peek_bits(LUT_BITS) as usize];
        if len != 0 {
            br.consume(len);
            out.push(sym);
            continue;
        }
        let mut code = 0u64;
        let mut len = 0u32;
        loop {
            len += 1;
            if len > book.max_len {
                return Err(CodecError::corrupt(
                    "huffman",
                    "code longer than the longest code length",
                ));
            }
            code = (code << 1) | br.get_bit()? as u64;
            if let Some(sym) = book.symbol_of(len, code) {
                out.push(sym);
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

    /// A book whose Fibonacci-weighted histogram over 40 symbols needs codes
    /// of up to 39 bits, so the encoder limits them to [`MAX_CODE_LEN`].
    fn length_limited_book() -> HuffmanBook {
        let mut hist = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for h in hist.iter_mut().take(40) {
            *h = a;
            (a, b) = (b, a + b);
        }
        HuffmanBook::from_histogram(&hist)
    }

    #[test]
    fn word_encoder_matches_the_bitwriter_reference() {
        // The table-driven WordWriter hot loop must be byte-identical to
        // the byte-at-a-time reference on every input shape, including
        // skewed histograms that produce long codes.
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

    /// Streams of every shape the table kernel must agree with the
    /// reference on, as `(name, data, stream)`.
    fn differential_streams() -> Vec<(String, Vec<u8>, Vec<u8>)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let limited = length_limited_book();
        assert_eq!(limited.lengths.iter().copied().max(), Some(MAX_CODE_LEN));
        let mut streams = Vec::new();
        for len in [1usize, 2, 3, 7, 13, 64, 301, 1001] {
            let uniform: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let skewed: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen::<f64>() < 0.95 {
                        128u8.wrapping_add(rng.gen_range(0..3u8)).wrapping_sub(1)
                    } else {
                        rng.gen()
                    }
                })
                .collect();
            let single = vec![200u8; len];
            // Mostly the longest codes, some short ones between them.
            let long: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen::<f64>() < 0.7 {
                        rng.gen_range(0..3u8)
                    } else {
                        rng.gen_range(0..40u8)
                    }
                })
                .collect();
            for (kind, data) in [("uniform", uniform), ("skewed", skewed), ("single", single)] {
                let stream = encode(&data);
                streams.push((format!("{kind} × {len}"), data, stream));
            }
            let stream = encode_with_book(&limited, &long);
            streams.push((format!("32-bit × {len}"), long, stream));
        }
        streams
    }

    #[test]
    fn table_kernel_matches_the_reference_on_valid_streams() {
        for (what, data, stream) in differential_streams() {
            assert_eq!(
                decode_reference(&stream).unwrap(),
                data,
                "{what}: reference"
            );
            assert_eq!(decode(&stream).unwrap(), data, "{what}: kernel");
        }
    }

    #[test]
    fn table_kernel_fails_exactly_where_the_reference_fails() {
        // Every truncation and every 3-mask byte flip: where the reference
        // decodes, the kernel returns the same bytes; where it fails, the
        // kernel fails. Both read the header through `read_stream`, whose
        // only departure from the loop's old validation is the length cap
        // (`code_lengths_above_the_cap_are_rejected`).
        for (what, _, stream) in differential_streams() {
            for cut in 0..8 + 192 {
                assert!(
                    decode(&stream[..cut]).is_err(),
                    "{what}: header cut at {cut}"
                );
            }
            let mut damaged: Vec<Vec<u8>> =
                (0..stream.len()).map(|n| stream[..n].to_vec()).collect();
            for i in 0..stream.len() {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut bytes = stream.clone();
                    bytes[i] ^= flip;
                    damaged.push(bytes);
                }
            }
            for bytes in damaged {
                match (decode_reference(&bytes), decode(&bytes)) {
                    (Ok(want), Ok(got)) => assert_eq!(got, want, "{what}"),
                    (Err(_), Err(_)) => {}
                    (want, got) => panic!(
                        "{what}: reference {:?}, kernel {:?}",
                        want.map(|v| v.len()),
                        got.map(|v| v.len())
                    ),
                }
            }
        }
    }

    #[test]
    fn code_lengths_above_the_cap_are_rejected() {
        // One symbol of length 40 over five zero bytes: the Kraft sum
        // rounds its share to zero, so only the length cap rejects it.
        let mut stream = Vec::new();
        put_u64(&mut stream, 1);
        let mut bw = BitWriter::new();
        for s in 0..256u32 {
            bw.put_bits(if s == 0 { 40 } else { 0 }, 6);
        }
        stream.extend_from_slice(&bw.finish());
        stream.extend_from_slice(&[0; 5]);
        assert!(matches!(
            decode(&stream),
            Err(CodecError::InvalidHeader { .. })
        ));
    }

    #[test]
    fn oversubscribed_code_book_is_rejected() {
        // A book claiming length 1 for three symbols violates the Kraft
        // inequality; canonical code assignment would overflow the table.
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
    fn encoded_bits_matches_actual_payload() {
        let data: Vec<u8> = (0..10_000).map(|i| ((i * i) % 7) as u8).collect();
        let hist = byte_histogram(&data);
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
