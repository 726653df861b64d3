//! TUPL — tuple/lane splitting transformers.
//!
//! These components regroup the byte stream so that bytes playing the same
//! structural role become contiguous, exposing redundancy to the following
//! reducer:
//!
//! * [`TuplQ`] (quad split): splits single-byte symbols into four lanes by
//!   index modulo 4 — effective when the stream has a period-4 structure
//!   (e.g. 32-bit records).
//! * [`TuplD`] (dual split): treats the stream as 2-byte symbols and splits
//!   it into a low-byte lane and a high-byte lane (structure-of-arrays
//!   layout) — high bytes of small values form long zero runs.
//!
//! Both are length-preserving apart from an 8-byte length header (needed to
//! undo the split for lengths that are not lane-aligned).

use crate::bitio::{put_u64, ByteCursor};
use crate::CodecError;

/// Quad lane split of single-byte symbols.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TuplQ;

impl TuplQ {
    /// Creates the quad-split component.
    pub(crate) fn new() -> Self {
        TuplQ
    }

    /// Splits `input` into four lanes (`i % 4`), concatenated in lane order.
    pub(crate) fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() + 8);
        put_u64(&mut out, input.len() as u64);
        for lane in 0..4 {
            out.extend(input.iter().skip(lane).step_by(4));
        }
        out
    }

    /// Reverses the quad split.
    pub(crate) fn decode_bytes(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut cur = ByteCursor::new(input);
        let orig_len = cur.get_u64()? as usize;
        let body = cur.take_rest();
        if body.len() != orig_len {
            return Err(CodecError::corrupt(
                "tuplq",
                format!("expected {orig_len} bytes, got {}", body.len()),
            ));
        }
        let mut out = vec![0u8; orig_len];
        let mut rest = body;
        for lane in 0..4 {
            let lane_len = (orig_len + 3 - lane) / 4;
            let (lane_bytes, tail) = rest
                .split_at_checked(lane_len)
                .ok_or_else(|| CodecError::corrupt("tuplq", "lane extends past the body"))?;
            rest = tail;
            for (slot, &b) in out.iter_mut().skip(lane).step_by(4).zip(lane_bytes) {
                *slot = b;
            }
        }
        Ok(out)
    }
}

/// Dual byte-lane split of 2-byte symbols.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TuplD;

impl TuplD {
    /// Creates the dual-split component.
    pub(crate) fn new() -> Self {
        TuplD
    }

    /// Splits `input` into a low-byte lane and a high-byte lane; a trailing
    /// odd byte is appended after the lanes.
    pub(crate) fn encode_bytes(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() + 8);
        put_u64(&mut out, input.len() as u64);
        out.extend(input.iter().step_by(2));
        out.extend(input.iter().skip(1).step_by(2));
        out
    }

    /// Reverses the dual split.
    pub(crate) fn decode_bytes(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut cur = ByteCursor::new(input);
        let orig_len = cur.get_u64()? as usize;
        let body = cur.take_rest();
        if body.len() != orig_len {
            return Err(CodecError::corrupt(
                "tupld",
                format!("expected {orig_len} bytes, got {}", body.len()),
            ));
        }
        let low_len = orig_len.div_ceil(2);
        let (low, high) = body
            .split_at_checked(low_len)
            .ok_or_else(|| CodecError::corrupt("tupld", "low lane extends past the body"))?;
        let mut out = vec![0u8; orig_len];
        for (slot, &b) in out.iter_mut().step_by(2).zip(low) {
            *slot = b;
        }
        for (slot, &b) in out.iter_mut().skip(1).step_by(2).zip(high) {
            *slot = b;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn quad_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 1023, 4096] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let t = TuplQ::new();
            assert_eq!(
                t.decode_bytes(&t.encode_bytes(&data)).unwrap(),
                data,
                "len {len}"
            );
        }
    }

    #[test]
    fn dual_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        for len in [0usize, 1, 2, 3, 5, 8, 1023, 4096] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let t = TuplD::new();
            assert_eq!(
                t.decode_bytes(&t.encode_bytes(&data)).unwrap(),
                data,
                "len {len}"
            );
        }
    }

    #[test]
    fn quad_groups_period_four_structure() {
        // Records of [id, 0, 0, 0]: lanes 1..3 become all-zero runs.
        let mut data = Vec::new();
        for i in 0..100u8 {
            data.extend_from_slice(&[i, 0, 0, 0]);
        }
        let enc = TuplQ::new().encode_bytes(&data);
        let body = &enc[8..];
        assert!(
            body[100..].iter().all(|&b| b == 0),
            "lanes 1..3 must be zero"
        );
    }

    #[test]
    fn dual_separates_low_and_high_bytes() {
        // u16 values < 256: the high-byte lane is all zeros.
        let mut data = Vec::new();
        for i in 0..100u16 {
            data.extend_from_slice(&i.to_le_bytes());
        }
        let enc = TuplD::new().encode_bytes(&data);
        let body = &enc[8..];
        assert!(
            body[100..].iter().all(|&b| b == 0),
            "high-byte lane must be zero"
        );
    }

    #[test]
    fn corrupt_length_is_detected() {
        let enc = TuplQ::new().encode_bytes(&[1, 2, 3, 4, 5]);
        assert!(TuplQ::new().decode_bytes(&enc[..enc.len() - 1]).is_err());
        let enc = TuplD::new().encode_bytes(&[1, 2, 3, 4, 5]);
        assert!(TuplD::new().decode_bytes(&enc[..enc.len() - 1]).is_err());
    }
}
