//! A byte-aligned LZSS dictionary coder.
//!
//! Figure 6 of the paper benchmarks several dictionary coders (GPULZ, nvCOMP
//! LZ4/GDeflate/Zstd). This module provides the open-source stand-in used by
//! the Figure 6 harness: a greedy hash-chain LZSS coder with an LZ4-style
//! token format. Two effort levels mirror the throughput/ratio trade-off of
//! the originals: [`Effort::Fast`] (single hash probe, GPULZ/LZ4-like) and
//! [`Effort::Thorough`] (longer chains, GDeflate/Zstd-like).

use crate::bitio::{decode_capacity, put_u64, ByteCursor};
use crate::CodecError;

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 16;

/// Search effort of the match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effort {
    /// One probe per position (fast, lower ratio).
    Fast,
    /// Up to 32 chained probes per position (slower, higher ratio).
    Thorough,
}

impl Effort {
    fn max_probes(self) -> usize {
        match self {
            Effort::Fast => 1,
            Effort::Thorough => 32,
        }
    }
}

#[inline]
fn hash4(word: [u8; 4]) -> usize {
    (u32::from_le_bytes(word).wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn write_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_len(cur: &mut ByteCursor<'_>, nibble: usize) -> Result<usize, CodecError> {
    let mut len = nibble;
    if nibble == 15 {
        loop {
            let b = cur.get_u8()?;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Every this many positions past the table base the base moves up; see
/// [`MatchTables::rebase`].
const REBASE_EVERY: usize = 1 << 31;

/// The match finder's tables. An entry holds a position as its offset
/// from a base plus one, and 0 marks an empty slot: `head` holds the
/// newest position of each hash, `chain` the previous position with the
/// same hash, in a ring of `MAX_OFFSET + 1` slots indexed by the absolute
/// position. A chain slot is read only for a candidate within `MAX_OFFSET`
/// of the current position, and every later position that maps to the
/// same slot lies more than `MAX_OFFSET` past that candidate, so no slot
/// is read after it has been overwritten.
struct MatchTables {
    head: Box<[u32; 1 << HASH_BITS]>,
    chain: Box<[u32; MAX_OFFSET + 1]>,
    /// The absolute position of entry 1.
    base: usize,
    /// How far past `base` a position may lie before the tables rebase.
    rebase_every: usize,
}

/// A zeroed table of `N` entries, all empty.
fn empty_table<const N: usize>() -> Box<[u32; N]> {
    match vec![0u32; N].into_boxed_slice().try_into() {
        Ok(table) => table,
        Err(_) => unreachable!("a vector of N entries converts to [u32; N]"),
    }
}

impl MatchTables {
    fn new(rebase_every: usize) -> Self {
        MatchTables {
            head: empty_table(),
            chain: empty_table(),
            base: 0,
            rebase_every,
        }
    }

    /// Makes `pos` the newest position of hash `h`.
    fn link(&mut self, h: usize, pos: usize) {
        self.rebase(pos);
        self.chain[pos & MAX_OFFSET] = self.head[h];
        self.head[h] = (pos - self.base + 1) as u32;
    }

    /// Keeps every entry at most `rebase_every`, however long the input:
    /// once `pos` lies `rebase_every` past the base, the base moves up to
    /// `MAX_OFFSET + 1` before `pos`. Entries below the new base are
    /// farther than `MAX_OFFSET` from `pos` and every later position, where
    /// the search stops anyway, so they become empty.
    fn rebase(&mut self, pos: usize) {
        if pos - self.base < self.rebase_every {
            return;
        }
        let shift = (pos - MAX_OFFSET - 1 - self.base) as u32;
        for entry in self.head.iter_mut().chain(self.chain.iter_mut()) {
            *entry = entry.saturating_sub(shift);
        }
        self.base += shift as usize;
    }
}

/// Compresses `input`.
///
/// Layout: `orig_len u64 | LZ4-style sequences` (token byte with
/// literal/match length nibbles, literals, little-endian 16-bit offset,
/// length extension bytes; the final sequence carries literals only).
pub fn compress(input: &[u8], effort: Effort) -> Vec<u8> {
    compress_rebasing(input, effort, REBASE_EVERY)
}

/// [`compress`] with the tables rebased every `rebase_every` positions
/// (more than `MAX_OFFSET + 1`), so the tests can rebase on short inputs.
///
/// The parse is greedy: at each position the chain of earlier positions
/// with the same hash is walked newest first, for at most
/// `effort.max_probes()` candidates and no farther back than `MAX_OFFSET`,
/// and only a strictly longer match replaces the best one. A candidate
/// must agree at the best length to beat it, so that one byte rejects
/// most of them; while there is no best match, its first four bytes.
fn compress_rebasing(input: &[u8], effort: Effort, rebase_every: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }

    let mut tables = MatchTables::new(rebase_every);
    let max_probes = effort.max_probes();

    let mut pos = 0usize;
    let mut literal_start = 0usize;
    // The next position's hash and head entry, read before this
    // position's walk so that the table read overlaps it; `None` once a
    // match or a rebase has rewritten the tables.
    let mut ahead: Option<(usize, u32)> = None;
    while let Some(&word) = input[pos..].first_chunk::<4>() {
        let (h, head) = ahead.unwrap_or_else(|| {
            let h = hash4(word);
            (h, tables.head[h])
        });
        ahead = input[pos + 1..].first_chunk::<4>().map(|&next| {
            let h = hash4(next);
            (h, tables.head[h])
        });
        let here = &input[pos..];
        let mut best_len = 0usize;
        let mut best_offset = 0usize;
        // Entries are offsets from the base plus one; `pos` would be
        // `entry_of_pos`, and an entry below `oldest` (an empty slot
        // among them) lies outside the window.
        let entry_of_pos = pos - tables.base + 1;
        let oldest = entry_of_pos.saturating_sub(MAX_OFFSET).max(1);
        let mut entry = head as usize;
        let mut probes = max_probes;
        while entry >= oldest {
            let candidate = tables.base + entry - 1;
            let there = &input[candidate..];
            if best_len == 0 {
                if there.first_chunk::<4>() == Some(&word) {
                    best_len = MIN_MATCH + common_prefix(&there[MIN_MATCH..], &here[MIN_MATCH..]);
                    best_offset = entry_of_pos - entry;
                }
            } else if there[best_len] == here[best_len] {
                let len = common_prefix(there, here);
                if len > best_len {
                    best_len = len;
                    best_offset = entry_of_pos - entry;
                }
            }
            probes -= 1;
            // A match to the end of the input cannot be beaten.
            if probes == 0 || best_len == here.len() {
                break;
            }
            entry = tables.chain[candidate & MAX_OFFSET] as usize;
        }

        if best_len >= MIN_MATCH {
            emit_match(&mut out, &input[literal_start..pos], best_offset, best_len);
            // Insert the covered positions into the hash chains (sparsely for
            // speed) and advance.
            let end = pos + best_len;
            let step = if best_len > 64 { 8 } else { 1 };
            let mut p = pos;
            while p < end {
                let Some(&word) = input[p..].first_chunk::<4>() else {
                    break;
                };
                tables.link(hash4(word), p);
                p += step;
            }
            pos = end;
            literal_start = pos;
            ahead = None;
        } else {
            let base = tables.base;
            tables.link(h, pos);
            pos += 1;
            if tables.base != base {
                ahead = None;
            } else if let Some((next, head)) = &mut ahead {
                // A next position with this one's hash starts its walk at
                // the position just linked.
                if *next == h {
                    *head = tables.head[h];
                }
            }
        }
    }
    emit_literals(&mut out, &input[literal_start..]);
    out
}

/// The length of the common prefix of `a` and `b`, compared eight bytes at
/// a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.as_chunks::<8>().0.iter().zip(b.as_chunks::<8>().0) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Writes one sequence: the pending `literals` and a match of `len` bytes
/// at `offset`.
fn emit_match(out: &mut Vec<u8>, literals: &[u8], offset: usize, len: usize) {
    let lit_nibble = literals.len().min(15);
    let match_nibble = (len - MIN_MATCH).min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        write_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if match_nibble == 15 {
        write_len(out, len - MIN_MATCH - 15);
    }
}

/// Writes the final, literal-only sequence.
fn emit_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_nibble = literals.len().min(15);
    out.push((lit_nibble as u8) << 4);
    if lit_nibble == 15 {
        write_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Decompresses a stream produced by [`compress`], rejecting streams whose
/// claimed output length exceeds `max_out` before any decoding work, for
/// use on untrusted input.
pub(crate) fn decompress_limited(input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(input);
    let orig_len = cur.get_u64()? as usize;
    if orig_len > max_out {
        return Err(CodecError::corrupt(
            "lz",
            format!("claimed {orig_len} bytes, limit {max_out}"),
        ));
    }
    let mut out = Vec::with_capacity(decode_capacity(orig_len));
    while out.len() < orig_len {
        let token = cur.get_u8()?;
        let lit_len = read_len(&mut cur, (token >> 4) as usize)?;
        let literals = cur.take(lit_len)?;
        out.extend_from_slice(literals);
        if out.len() >= orig_len {
            break;
        }
        if cur.remaining() == 0 {
            return Err(CodecError::eof("lz"));
        }
        let offset = cur.get_u16()? as usize;
        if offset == 0 || offset > out.len() {
            return Err(CodecError::corrupt(
                "lz",
                format!("invalid offset {offset} at output length {}", out.len()),
            ));
        }
        let match_len = read_len(&mut cur, (token & 0x0f) as usize)? + MIN_MATCH;
        let start = out.len() - offset;
        for k in 0..match_len {
            // The copy source may overlap the bytes this loop appends (an
            // RLE-style match), so re-resolve the index every iteration.
            let b = *out
                .get(start + k)
                .ok_or_else(|| CodecError::corrupt("lz", "match source past produced output"))?;
            out.push(b);
        }
    }
    if out.len() != orig_len {
        return Err(CodecError::corrupt(
            "lz",
            format!("decoded {} bytes, expected {orig_len}", out.len()),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The coder before its tables were sized to the window, kept as the
    /// reference: a `usize` head per hash and a chain entry per input byte.
    fn compress_reference(input: &[u8], effort: Effort) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        put_u64(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }

        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut chain = vec![usize::MAX; input.len()];
        let max_probes = effort.max_probes();

        let mut pos = 0usize;
        let mut literal_start = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let h = hash4([input[pos], input[pos + 1], input[pos + 2], input[pos + 3]]);
            // Find the best match among up to `max_probes` chained candidates.
            let mut best_len = 0usize;
            let mut best_offset = 0usize;
            let mut candidate = head[h];
            let mut probes = 0usize;
            while candidate != usize::MAX && probes < max_probes {
                let offset = pos - candidate;
                if offset > MAX_OFFSET {
                    break;
                }
                let limit = input.len() - pos;
                let mut len = 0usize;
                while len < limit && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                if len >= MIN_MATCH && len > best_len {
                    best_len = len;
                    best_offset = offset;
                }
                candidate = chain[candidate];
                probes += 1;
            }

            if best_len >= MIN_MATCH {
                // Emit the pending literals and the match.
                let literals = &input[literal_start..pos];
                let lit_nibble = literals.len().min(15);
                let match_nibble = (best_len - MIN_MATCH).min(15);
                out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
                if lit_nibble == 15 {
                    write_len(&mut out, literals.len() - 15);
                }
                out.extend_from_slice(literals);
                out.extend_from_slice(&(best_offset as u16).to_le_bytes());
                if match_nibble == 15 {
                    write_len(&mut out, best_len - MIN_MATCH - 15);
                }
                // Insert the covered positions into the hash chains (sparsely for
                // speed) and advance.
                let end = pos + best_len;
                let step = if best_len > 64 { 8 } else { 1 };
                let mut p = pos;
                while p < end && p + MIN_MATCH <= input.len() {
                    let hh = hash4([input[p], input[p + 1], input[p + 2], input[p + 3]]);
                    chain[p] = head[hh];
                    head[hh] = p;
                    p += step;
                }
                pos = end;
                literal_start = pos;
            } else {
                chain[pos] = head[h];
                head[h] = pos;
                pos += 1;
            }
        }

        // Final literal-only sequence.
        let literals = &input[literal_start..];
        let lit_nibble = literals.len().min(15);
        out.push((lit_nibble as u8) << 4);
        if lit_nibble == 15 {
            write_len(&mut out, literals.len() - 15);
        }
        out.extend_from_slice(literals);
        out
    }

    /// Inputs past one ring of positions: random bytes, run-heavy,
    /// zero-heavy and banded data, and a block repeated at offsets 65,535
    /// (the farthest a match may reach) and 65,536 (one past it).
    fn ring_inputs() -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let random: Vec<u8> = (0..200_000).map(|_| rng.gen()).collect();
        let mut runs = Vec::new();
        while runs.len() < 300_000 {
            let (byte, len) = (rng.gen_range(0..4u8), rng.gen_range(1..300usize));
            runs.extend(std::iter::repeat_n(byte, len));
        }
        let zeros: Vec<u8> = (0..250_000)
            .map(|_| {
                if rng.gen_range(0..50) == 0 {
                    rng.gen()
                } else {
                    0
                }
            })
            .collect();
        // Quantization-code-like bytes in a narrow band whose centre moves
        // every 4 KiB: short, frequent matches and long hash chains.
        let banded: Vec<u8> = (0..280_000usize)
            .map(|i| (100 + (i >> 12) % 40) as u8 + rng.gen_range(0..4u8))
            .collect();
        let block: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let mut far = Vec::new();
        for gap in [MAX_OFFSET, MAX_OFFSET + 1] {
            let noise: Vec<u8> = (0..gap - block.len()).map(|_| rng.gen()).collect();
            far.extend_from_slice(&block);
            far.extend_from_slice(&noise);
            far.extend_from_slice(&block);
            far.extend((0..1000).map(|_| rng.gen::<u8>()));
        }
        vec![random, runs, zeros, banded, far]
    }

    /// The kernel against the reference at both efforts, rebasing every
    /// 2^31 positions and every `rebase_every`, and the reference's stream
    /// decoded back.
    fn assert_kernel_matches(input: &[u8], what: &str, rebase_every: &[usize]) {
        for effort in [Effort::Fast, Effort::Thorough] {
            let expect = compress_reference(input, effort);
            assert!(compress(input, effort) == expect, "{what}, {effort:?}");
            for &every in rebase_every {
                let rebased = compress_rebasing(input, effort, every);
                assert!(rebased == expect, "{what}, {effort:?}, rebase {every}");
            }
            assert_eq!(decompress_limited(&expect, usize::MAX).unwrap(), *input);
        }
    }

    /// The match offsets of a stream, in order.
    fn match_offsets(stream: &[u8]) -> Vec<usize> {
        let mut cur = ByteCursor::new(stream);
        let orig_len = cur.get_u64().unwrap() as usize;
        let (mut produced, mut offsets) = (0, Vec::new());
        while produced < orig_len {
            let token = cur.get_u8().unwrap();
            let literals = read_len(&mut cur, (token >> 4) as usize).unwrap();
            cur.take(literals).unwrap();
            produced += literals;
            if produced < orig_len {
                offsets.push(cur.get_u16().unwrap() as usize);
                produced += read_len(&mut cur, (token & 0x0f) as usize).unwrap() + MIN_MATCH;
            }
        }
        offsets
    }

    #[test]
    fn window_sized_tables_match_the_reference() {
        let inputs = ring_inputs();
        // The far-match input holds a match at the largest offset, and the
        // chained search finds it.
        let far = inputs.last().unwrap();
        assert!(match_offsets(&compress(far, Effort::Thorough)).contains(&MAX_OFFSET));
        for (n, input) in inputs.iter().enumerate() {
            // Rebasing every ~70 K or ~131 K positions instead of every
            // 2^31 changes nothing either.
            assert_kernel_matches(input, &format!("input {n}"), &[70_001, 2 * MAX_OFFSET + 3]);
        }
        // Short inputs, at and around the four-byte minimum match.
        for input in [
            &[][..],
            &[1],
            &[1, 2, 3],
            &[9; 4],
            &[9; 5],
            &[1, 2, 3, 1, 2, 3, 1, 2],
        ] {
            assert_kernel_matches(input, &format!("{input:?}"), &[]);
        }
    }

    /// Multi-MiB inputs that rebase the tables many times over: long
    /// repeats both inside and beyond the window, run-heavy and banded
    /// data. Run with `--ignored`.
    #[test]
    #[ignore = "long differential suite; CI runs it on release code"]
    fn window_sized_tables_match_the_reference_across_rebases() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let mut repeats = Vec::new();
        while repeats.len() < 3 << 20 {
            if repeats.len() > 1 << 16 && rng.gen_range(0..3) == 0 {
                let len = rng.gen_range(4..3_000usize);
                let back = rng.gen_range(len..repeats.len().min(200_000));
                let start = repeats.len() - back;
                repeats.extend_from_within(start..start + len);
            } else {
                repeats.extend((0..rng.gen_range(1..2_000)).map(|_| rng.gen::<u8>() & 0x3f));
            }
        }
        let mut runs = Vec::new();
        while runs.len() < 3 << 20 {
            let (byte, len) = (rng.gen_range(0..3u8), rng.gen_range(1..5_000usize));
            runs.extend(std::iter::repeat_n(byte, len));
        }
        let banded: Vec<u8> = (0..3usize << 20)
            .map(|i| (100 + (i >> 14) % 40) as u8 + rng.gen_range(0..6u8))
            .collect();
        for (what, input) in [("repeats", repeats), ("runs", runs), ("banded", banded)] {
            assert_kernel_matches(&input, what, &[70_001, 1 << 20]);
        }
    }

    fn roundtrip(data: &[u8], effort: Effort) -> usize {
        let enc = compress(data, effort);
        assert_eq!(
            decompress_limited(&enc, usize::MAX).unwrap(),
            data,
            "effort {effort:?} len {}",
            data.len()
        );
        enc.len()
    }

    #[test]
    fn roundtrip_edge_cases() {
        for effort in [Effort::Fast, Effort::Thorough] {
            roundtrip(&[], effort);
            roundtrip(&[1], effort);
            roundtrip(&[1, 2, 3], effort);
            roundtrip(&[9; 4], effort);
        }
    }

    #[test]
    fn repeated_patterns_compress() {
        let mut data = Vec::new();
        for _ in 0..1000 {
            data.extend_from_slice(b"abcdefgh12345678");
        }
        for effort in [Effort::Fast, Effort::Thorough] {
            let size = roundtrip(&data, effort);
            assert!(
                size < data.len() / 10,
                "periodic data must compress >10x, got {size}"
            );
        }
    }

    #[test]
    fn long_zero_runs_compress() {
        let data = vec![0u8; 1 << 18];
        let size = roundtrip(&data, Effort::Fast);
        assert!(size < 4096, "zero run should collapse, got {size}");
    }

    #[test]
    fn random_data_survives_with_bounded_expansion() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        let data: Vec<u8> = (0..100_000).map(|_| rng.gen()).collect();
        for effort in [Effort::Fast, Effort::Thorough] {
            let size = roundtrip(&data, effort);
            assert!(size <= data.len() + data.len() / 100 + 64);
        }
    }

    #[test]
    fn thorough_is_at_least_as_good_on_structured_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        // Structured: repeated fragments with small perturbations.
        let mut data = Vec::new();
        let fragment: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        for i in 0..2000 {
            data.extend_from_slice(&fragment);
            data.push((i % 256) as u8);
        }
        let fast = compress(&data, Effort::Fast).len();
        let thorough = compress(&data, Effort::Thorough).len();
        assert!(
            thorough <= fast,
            "thorough ({thorough}) must not be worse than fast ({fast})"
        );
    }

    #[test]
    fn overlapping_matches_decode_correctly() {
        // "aaaa..." forces overlapping copies (offset 1, long match).
        let data = vec![b'a'; 500];
        roundtrip(&data, Effort::Fast);
    }

    #[test]
    fn corrupt_offset_is_rejected() {
        let enc = compress(
            &[1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8],
            Effort::Fast,
        );
        // Truncating usually produces an EOF or invalid-offset error.
        assert!(decompress_limited(&enc[..enc.len() - 2], usize::MAX).is_err());
    }
}
