//! Bit-level I/O and small integer serialisation helpers.
//!
//! The Huffman coder, the fixed-length packers and several LC-style
//! components all need to emit values that are not byte aligned. The
//! [`WordWriter`]/[`BitReader`] pair implements MSB-first bit streams backed
//! by a `Vec<u8>`, and the `put_*`/`get_*` helpers implement the
//! little-endian integer fields used by every header in the workspace.

use crate::CodecError;

/// MSB-first bit stream writer, one byte at a time: the reference the
/// differential tests hold [`WordWriter`] and the encoders built on it to.
#[cfg(test)]
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits currently staged in `acc` (0..=63).
    nbits: u32,
    acc: u64,
}

#[cfg(test)]
impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for roughly `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bits / 8 + 8),
            nbits: 0,
            acc: 0,
        }
    }

    /// Appends the lowest `n` bits of `value` (MSB of the field first).
    /// `n` must be at most 57 so the staging accumulator never overflows.
    #[inline]
    pub fn put_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "put_bits supports at most 57 bits per call");
        if n == 0 {
            return;
        }
        let mask = u64::MAX >> (64 - n);
        self.acc = (self.acc << n) | (value & mask);
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u64, 1);
    }

    /// Number of complete bytes written so far (excluding staged bits).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Flushes any staged bits (padding the final byte with zeros) and
    /// returns the byte buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc <<= pad;
            self.buf.push(self.acc as u8);
            self.nbits = 0;
        }
        self.buf
    }
}

/// The MSB-first bit writer: bits accumulate in a `u64` word and are
/// flushed to the output 32 bits at a time, so the per-field cost is one
/// shift-or plus a single branch instead of a byte-at-a-time drain loop.
/// Fields are limited to 32 bits per call (enough for every field written
/// in this workspace); the emitted byte stream is bit-for-bit identical to
/// writing the same fields one byte at a time (the test-only `BitWriter`
/// reference).
#[derive(Debug, Default, Clone)]
pub struct WordWriter {
    buf: Vec<u8>,
    /// Staged bits: the low `nbits` bits of `acc` are pending output
    /// (higher bits are stale and ignored); `nbits` stays below 32 between
    /// calls, so a 32-bit push never overflows the 64-bit accumulator.
    acc: u64,
    nbits: u32,
}

impl WordWriter {
    /// Creates an empty writer with capacity for roughly `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        WordWriter {
            buf: Vec::with_capacity(bits / 8 + 8),
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the lowest `n` bits of `value` (MSB of the field first).
    /// `n` must be at most 32 and `value` must not carry bits above `n`.
    #[inline]
    pub fn put(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32, "WordWriter fields are at most 32 bits");
        debug_assert!(n == 32 || value >> n == 0, "value has bits above n");
        self.acc = (self.acc << n) | value as u64;
        self.nbits += n;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Flushes any staged bits (padding the final byte with zeros) and
    /// returns the byte buffer.
    pub fn finish(mut self) -> Vec<u8> {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
        if self.nbits > 0 {
            self.buf.push(((self.acc << (8 - self.nbits)) & 0xFF) as u8);
        }
        self.buf
    }
}

/// MSB-first bit stream reader.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next byte to load.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Number of bits consumed so far.
    pub fn bits_consumed(&self) -> usize {
        self.pos * 8 - self.nbits as usize
    }

    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 {
            let Some(&byte) = self.buf.get(self.pos) else {
                break;
            };
            self.acc = (self.acc << 8) | byte as u64;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `n` bits (MSB first). Returns an error if the stream is
    /// exhausted. Reading the zero-padding of the final byte is allowed.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 57);
        if n == 0 {
            return Ok(0);
        }
        self.refill();
        if self.nbits < n {
            return Err(CodecError::eof("bitreader"));
        }
        self.nbits -= n;
        let v = (self.acc >> self.nbits) & (u64::MAX >> (64 - n));
        Ok(v)
    }

    /// Reads a single bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_bits(1)? != 0)
    }

    /// Peeks at most `n` bits without consuming them. If fewer than `n` bits
    /// remain, the missing low bits are zero.
    #[cfg(test)]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 57);
        self.refill();
        if self.nbits >= n {
            (self.acc >> (self.nbits - n)) & (u64::MAX >> (64 - n.max(1)))
        } else {
            let avail = self.nbits;
            let v = if avail == 0 {
                0
            } else {
                self.acc & (u64::MAX >> (64 - avail))
            };
            v << (n - avail)
        }
    }

    /// Consumes `n` bits previously inspected with [`BitReader::peek_bits`].
    /// Consuming past the end of the buffer (into the implicit zero padding)
    /// is permitted; the reference Huffman decoder relies on it.
    #[cfg(test)]
    pub fn consume(&mut self, n: u32) {
        if self.nbits >= n {
            self.nbits -= n;
        } else {
            self.nbits = 0;
        }
    }
}

// --- little-endian integer fields used by headers ---------------------------

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over a byte slice for reading header fields.
#[derive(Debug, Clone)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    /// Creates a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteCursor { buf, pos: 0 }
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns the next `n` bytes and advances.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CodecError::eof("bytecursor"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| CodecError::eof("bytecursor"))?;
        self.pos = end;
        Ok(s)
    }

    /// Returns the next `N` bytes as a fixed-size array and advances.
    pub(crate) fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or_else(|| CodecError::eof("bytecursor"))
    }

    /// Returns every remaining byte and advances to the end.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let s = self.buf.get(self.pos..).unwrap_or(&[]);
        self.pos = self.buf.len();
        s
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `f32`.
    pub fn get_f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
}

/// Caps a `Vec` pre-allocation hint derived from an untrusted length field.
///
/// Decoders read the claimed output length before decoding; trusting it for
/// `with_capacity` would let a single corrupted length byte demand a
/// multi-gigabyte allocation up front — an uncatchable abort, not a typed
/// error. Capping affects only the hint: the vector still grows to the true
/// decoded length, and truncated input fails with a typed error first.
pub fn decode_capacity(claimed: usize) -> usize {
    const MAX_PREALLOC: usize = 1 << 24; // 16 MiB
    claimed.min(MAX_PREALLOC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0xfeed, 16);
        w.put_bit(true);
        w.put_bits(0, 0);
        w.put_bits(0x1_2345_6789, 33);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(16).unwrap(), 0xfeed);
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_bits(33).unwrap(), 0x1_2345_6789);
    }

    #[test]
    fn reader_detects_eof() {
        let mut w = BitWriter::new();
        w.put_bits(0xab, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(8).unwrap(), 0xab);
        assert!(r.get_bits(8).is_err());
    }

    #[test]
    fn peek_and_consume_match_get() {
        let mut w = BitWriter::new();
        for i in 0..32u64 {
            w.put_bits(i, 5);
        }
        let bytes = w.finish();
        let mut r1 = BitReader::new(&bytes);
        let mut r2 = BitReader::new(&bytes);
        for _ in 0..32 {
            let p = r1.peek_bits(5);
            r1.consume(5);
            assert_eq!(p, r2.get_bits(5).unwrap());
        }
    }

    #[test]
    fn peek_past_end_pads_with_zeros() {
        let bytes = [0b1010_0000u8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(16), 0b1010_0000_0000_0000);
    }

    #[test]
    fn header_fields_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0x1234);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, 0x0102_0304_0506_0708);
        put_f32(&mut buf, 1.5);
        put_f64(&mut buf, -2.25);
        let mut c = ByteCursor::new(&buf);
        assert_eq!(c.get_u8().unwrap(), 7);
        assert_eq!(c.get_u16().unwrap(), 0x1234);
        assert_eq!(c.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(c.get_u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(c.get_f32().unwrap(), 1.5);
        assert_eq!(c.get_f64().unwrap(), -2.25);
        assert_eq!(c.remaining(), 0);
        assert!(c.get_u8().is_err());
    }

    #[test]
    fn word_writer_matches_bit_writer_byte_for_byte() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for len in [0usize, 1, 2, 3, 7, 100, 1000] {
            let fields: Vec<(u32, u32)> = (0..len)
                .map(|_| {
                    let n = rng.gen_range(0..=32u32);
                    let v = if n == 0 {
                        0
                    } else if n == 32 {
                        rng.gen::<u32>()
                    } else {
                        rng.gen::<u32>() & ((1u32 << n) - 1)
                    };
                    (v, n)
                })
                .collect();
            let mut bw = BitWriter::new();
            let mut ww = WordWriter::with_capacity_bits(len * 16);
            for &(v, n) in &fields {
                bw.put_bits(v as u64, n);
                ww.put(v, n);
            }
            assert_eq!(ww.bit_len(), bw.bit_len());
            assert_eq!(ww.finish(), bw.finish(), "diverged at {len} fields");
        }
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.put_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        assert_eq!(w.byte_len(), 0);
        w.put_bits(0xff, 8);
        assert_eq!(w.bit_len(), 10);
        assert_eq!(w.byte_len(), 1);
    }
}
