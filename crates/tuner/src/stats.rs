//! Byte-stream statistics for the stage-aware size models.

/// Summary statistics of a (sampled) byte stream, computed in one pass.
///
/// The code **histogram** and its entropy drive the Huffman/ANS entropy
/// bound that the stage models in [`estimate`](crate::estimate) close an
/// entropy-coded pipeline with.
#[derive(Debug, Clone)]
pub(crate) struct CodeStats {
    /// Number of bytes summarised.
    pub n: usize,
    /// Byte-value histogram.
    pub histogram: [u64; 256],
    /// Shannon entropy of the histogram in bits per byte (0 for an empty
    /// stream).
    pub entropy_bits: f64,
}

impl CodeStats {
    /// Computes the statistics of `bytes` in a single pass.
    pub(crate) fn from_codes(bytes: &[u8]) -> CodeStats {
        let mut histogram = [0u64; 256];
        for &b in bytes {
            histogram[b as usize] += 1;
        }
        let n = bytes.len();
        let mut entropy_bits = 0.0f64;
        if n > 0 {
            for &count in &histogram {
                if count > 0 {
                    let p = count as f64 / n as f64;
                    entropy_bits -= p * p.log2();
                }
            }
        }
        CodeStats {
            n,
            histogram,
            entropy_bits,
        }
    }

    /// The histogram → entropy lower bound on any entropy coder's payload
    /// for a stream of `scaled_n` bytes with this distribution, in bytes
    /// (table/header overhead excluded).
    pub(crate) fn entropy_bound_bytes(&self, scaled_n: f64) -> f64 {
        scaled_n * self.entropy_bits / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stream_has_zero_entropy_and_full_repeats() {
        let s = CodeStats::from_codes(&[42u8; 1000]);
        assert_eq!(s.n, 1000);
        assert_eq!(s.entropy_bits, 0.0);
        // Every byte repeats the first: one symbol holds the histogram.
        assert_eq!(s.histogram[42], 1000);
    }

    #[test]
    fn uniform_stream_has_eight_bits_of_entropy() {
        let bytes: Vec<u8> = (0..25_600usize).map(|i| (i % 256) as u8).collect();
        let s = CodeStats::from_codes(&bytes);
        assert!((s.entropy_bits - 8.0).abs() < 1e-9);
    }

    #[test]
    fn two_symbol_stream_has_one_bit_of_entropy() {
        let bytes: Vec<u8> = (0..4096usize).map(|i| (i % 2) as u8 * 128).collect();
        let s = CodeStats::from_codes(&bytes);
        assert!((s.entropy_bits - 1.0).abs() < 1e-9);
        assert!((s.entropy_bound_bytes(4096.0) - 512.0).abs() < 1e-6);
    }

    #[test]
    fn empty_stream_is_all_zeros() {
        let s = CodeStats::from_codes(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.entropy_bits, 0.0);
    }
}
