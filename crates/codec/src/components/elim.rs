//! The elimination kernel RRE and RZE share.
//!
//! Both reducers emit a bitmap with one bit per `W`-byte symbol (LSB-first
//! within each byte) and the symbols whose bit is set. RRE sets the bit when
//! a symbol differs from its predecessor (symbol 0 is always kept) and
//! rebuilds a dropped symbol from the last kept one; RZE sets it when a
//! symbol is nonzero and rebuilds a dropped symbol as zero. The bitmap is
//! then compressed by a second, byte-granular pass of the same reducer — the
//! "recursive bitmap compression" of §5.2.3. `ZEROS` picks the reducer.
//!
//! Layout: `orig_len u64 | bitmap_len u64 | bm_bitmap_len u64 |
//! bm_kept_len u64 | kept_len u64 | bm_bitmap | bm_kept | kept`, where kept
//! symbols are stored at full width (a ragged tail symbol zero-padded) and
//! the true tail length is recovered from `orig_len`.

use super::{symbol, symbol_count, word};
use crate::bitio::{put_u64, ByteCursor};
use crate::CodecError;

fn name<const ZEROS: bool>() -> &'static str {
    if ZEROS {
        "rze"
    } else {
        "rre"
    }
}

/// Encodes `input` as `W`-byte symbols.
pub(crate) fn encode<const W: usize, const ZEROS: bool>(input: &[u8]) -> Vec<u8> {
    let (bitmap, kept) = pass::<W, ZEROS>(input);
    let (bm_bitmap, bm_kept) = pass::<1, ZEROS>(&bitmap);
    let mut out = Vec::with_capacity(kept.len() + bm_kept.len() + 48);
    put_u64(&mut out, input.len() as u64);
    put_u64(&mut out, bitmap.len() as u64);
    put_u64(&mut out, bm_bitmap.len() as u64);
    put_u64(&mut out, bm_kept.len() as u64);
    put_u64(&mut out, kept.len() as u64);
    out.extend_from_slice(&bm_bitmap);
    out.extend_from_slice(&bm_kept);
    out.extend_from_slice(&kept);
    out
}

/// One elimination pass: `(bitmap, kept)`. Each bitmap byte is built from
/// eight symbols, and every symbol is copied to the end of `kept`, which
/// advances past it only when it is kept — a fixed-width copy per symbol and
/// no branch.
fn pass<const W: usize, const ZEROS: bool>(input: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let (symbols, tail) = input.as_chunks::<W>();
    let n_sym = symbol_count(input.len(), W);
    let mut bitmap = Vec::with_capacity(n_sym.div_ceil(8));
    let mut kept = vec![0u8; n_sym * W];
    let mut len = 0usize;
    // Symbol 0 is always kept: no word equals its own complement.
    let mut prev = !word(input.get(..W).unwrap_or(input));
    let mut eights = symbols.chunks_exact(8);
    for eight in eights.by_ref() {
        bitmap.push(pass_byte::<W, ZEROS>(eight, &mut prev, &mut kept, &mut len));
    }
    // The last, partial bitmap byte: whole symbols, then the zero-padded
    // ragged one.
    let mut last = [[0u8; W]; 8];
    let mut n_last = 0;
    for (dst, s) in last.iter_mut().zip(eights.remainder()) {
        *dst = *s;
        n_last += 1;
    }
    if !tail.is_empty() {
        last[n_last] = symbol::<W>(word(tail));
        n_last += 1;
    }
    if n_last > 0 {
        bitmap.push(pass_byte::<W, ZEROS>(
            &last[..n_last],
            &mut prev,
            &mut kept,
            &mut len,
        ));
    }
    kept.truncate(len);
    (bitmap, kept)
}

/// The bitmap byte of up to eight symbols, appending the kept ones.
#[inline(always)]
fn pass_byte<const W: usize, const ZEROS: bool>(
    eight: &[[u8; W]],
    prev: &mut u64,
    kept: &mut [u8],
    len: &mut usize,
) -> u8 {
    let mut byte = 0u8;
    for (i, s) in eight.iter().enumerate() {
        let v = word(s);
        let keep = if ZEROS { v != 0 } else { v != *prev };
        *prev = v;
        byte |= (keep as u8) << i;
        kept[*len..*len + W].copy_from_slice(s);
        *len += keep as usize * W;
    }
    byte
}

/// Decodes a stream produced by [`encode`] with the same `W` and `ZEROS`,
/// failing with a typed error instead of producing more than `max_out`
/// bytes. Every length field is checked against the lengths it implies
/// before anything is allocated, so the work is bounded by `max_out` and by
/// the input itself.
pub(crate) fn decode<const W: usize, const ZEROS: bool>(
    input: &[u8],
    max_out: usize,
) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(input);
    let orig_len = cur.get_u64()? as usize;
    let bitmap_len = cur.get_u64()? as usize;
    let bm_bitmap_len = cur.get_u64()? as usize;
    let bm_kept_len = cur.get_u64()? as usize;
    let kept_len = cur.get_u64()? as usize;
    if orig_len > max_out {
        return Err(CodecError::corrupt(
            name::<ZEROS>(),
            format!("claims {orig_len} bytes, limit {max_out}"),
        ));
    }
    if bitmap_len != symbol_count(orig_len, W).div_ceil(8)
        || bm_bitmap_len != bitmap_len.div_ceil(8)
    {
        return Err(CodecError::corrupt(
            name::<ZEROS>(),
            format!("bitmap lengths {bitmap_len}/{bm_bitmap_len} do not fit {orig_len} bytes"),
        ));
    }
    let bm_bitmap = cur.take(bm_bitmap_len)?;
    let bm_kept = cur.take(bm_kept_len)?;
    let kept = cur.take(kept_len)?;
    let bitmap = unpass::<1, ZEROS>(bm_bitmap, bm_kept, bitmap_len)?;
    unpass::<W, ZEROS>(&bitmap, kept, orig_len)
}

/// Reverses one pass by rank: symbol `i` is kept symbol `r − 1`, where `r`
/// counts the set bits up to and including bit `i` (RZE zeroes it when its
/// own bit is clear). The caller has sized `bitmap` to `orig_len`; the kept
/// symbols the bitmap asks for are counted before anything is written.
fn unpass<const W: usize, const ZEROS: bool>(
    bitmap: &[u8],
    kept: &[u8],
    orig_len: usize,
) -> Result<Vec<u8>, CodecError> {
    let n_sym = symbol_count(orig_len, W);
    let (kept, _) = kept.as_chunks::<W>();
    let wanted: usize = bitmap
        .iter()
        .enumerate()
        .map(|(b, &byte)| {
            let valid = n_sym.saturating_sub(8 * b).min(8);
            (byte & ((1u16 << valid) - 1) as u8).count_ones() as usize
        })
        .sum();
    if wanted > kept.len() {
        return Err(CodecError::eof(name::<ZEROS>()));
    }
    if !ZEROS && n_sym > 0 && bitmap.first().is_none_or(|&b| b & 1 == 0) {
        return Err(CodecError::corrupt("rre", "first symbol marked as repeat"));
    }
    let mut out = vec![[0u8; W]; n_sym];
    let mut rank = 0usize;
    for (eight, &byte) in out.chunks_mut(8).zip(bitmap) {
        for (i, dst) in eight.iter_mut().enumerate() {
            let bit = (byte >> i) & 1;
            rank += bit as usize;
            let v = kept.get(rank.wrapping_sub(1)).map_or(0, |s| word(s));
            let keep = if ZEROS {
                (bit as u64).wrapping_neg()
            } else {
                u64::MAX
            };
            *dst = symbol::<W>(v & keep);
        }
    }
    let mut out = out.into_flattened();
    out.truncate(orig_len);
    Ok(out)
}

/// The per-symbol encoder [`encode`] replaced, kept as the differential
/// tests' reference. Its width is a run-time value, so it rejects the widths
/// the word kernels refuse to compile with.
#[cfg(test)]
pub(crate) fn encode_reference(input: &[u8], width: usize, zeros: bool) -> Vec<u8> {
    assert!(
        super::is_word_width(width),
        "unsupported {} symbol width {width}",
        if zeros { "RZE" } else { "RRE" }
    );
    let (bitmap, kept) = pass_reference(input, width, zeros);
    let (bm_bitmap, bm_kept) = pass_reference(&bitmap, 1, zeros);
    let mut out = Vec::with_capacity(kept.len() + bm_kept.len() + 48);
    put_u64(&mut out, input.len() as u64);
    put_u64(&mut out, bitmap.len() as u64);
    put_u64(&mut out, bm_bitmap.len() as u64);
    put_u64(&mut out, bm_kept.len() as u64);
    put_u64(&mut out, kept.len() as u64);
    out.extend_from_slice(&bm_bitmap);
    out.extend_from_slice(&bm_kept);
    out.extend_from_slice(&kept);
    out
}

#[cfg(test)]
fn pass_reference(input: &[u8], width: usize, zeros: bool) -> (Vec<u8>, Vec<u8>) {
    use super::read_symbol;
    let n_sym = symbol_count(input.len(), width);
    let mut bitmap = vec![0u8; n_sym.div_ceil(8)];
    let mut kept = Vec::with_capacity(input.len() / 2);
    let mut prev: Option<u64> = None;
    for i in 0..n_sym {
        let sym = read_symbol(input, i, width);
        let keep = if zeros { sym != 0 } else { prev != Some(sym) };
        if keep {
            bitmap[i / 8] |= 1 << (i % 8);
            for k in 0..width {
                kept.push((sym >> (8 * k)) as u8);
            }
        }
        prev = Some(sym);
    }
    (bitmap, kept)
}

/// The per-symbol decoder [`decode`] replaced.
#[cfg(test)]
pub(crate) fn decode_reference(
    input: &[u8],
    width: usize,
    zeros: bool,
) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(input);
    let orig_len = cur.get_u64()? as usize;
    let bitmap_len = cur.get_u64()? as usize;
    let bm_bitmap_len = cur.get_u64()? as usize;
    let bm_kept_len = cur.get_u64()? as usize;
    let kept_len = cur.get_u64()? as usize;
    let bm_bitmap = cur.take(bm_bitmap_len)?;
    let bm_kept = cur.take(bm_kept_len)?;
    let kept = cur.take(kept_len)?;
    let bitmap = unpass_reference(bm_bitmap, bm_kept, 1, bitmap_len, zeros)?;
    unpass_reference(&bitmap, kept, width, orig_len, zeros)
}

#[cfg(test)]
fn unpass_reference(
    bitmap: &[u8],
    kept: &[u8],
    width: usize,
    orig_len: usize,
    zeros: bool,
) -> Result<Vec<u8>, CodecError> {
    use super::{read_symbol, write_symbol};
    use crate::bitio::decode_capacity;
    let n_sym = symbol_count(orig_len, width);
    let mut out = Vec::with_capacity(decode_capacity(orig_len));
    let mut kept_pos = 0usize;
    let mut prev = 0u64;
    for i in 0..n_sym {
        let byte = *bitmap.get(i / 8).ok_or_else(|| CodecError::eof("bitmap"))?;
        let keep = byte >> (i % 8) & 1 == 1;
        let sym = if keep {
            if kept_pos + width > kept.len() {
                return Err(CodecError::eof("payload"));
            }
            let v = read_symbol(kept, kept_pos / width, width);
            kept_pos += width;
            v
        } else if zeros {
            0
        } else {
            if i == 0 {
                return Err(CodecError::corrupt("rre", "first symbol marked as repeat"));
            }
            prev
        };
        let remaining = orig_len - i * width;
        write_symbol(&mut out, sym, width, remaining);
        prev = sym;
    }
    Ok(out)
}
