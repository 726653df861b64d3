//! Deterministic code sampling.
//!
//! The cost models in this crate never look at a whole chunk's
//! quantization codes: they look at a small, **deterministic** sample.
//! Two properties matter:
//!
//! * the sample must be a pure function of the input (no RNG), so
//!   orchestration decisions are byte-reproducible at any thread count;
//! * the sample must preserve *local* structure — zero runs and repeat
//!   runs are what RRE/RZE exploit — so it is drawn as a handful of
//!   **contiguous segments** spread evenly across the chunk, not as a
//!   strided gather (which would shred every run).

/// Number of contiguous segments a sample is assembled from.
pub(crate) const DEFAULT_SEGMENTS: usize = 16;

/// Draws a deterministic sample of at most `budget` bytes from `codes`:
/// `segments` contiguous, equally long segments whose starts are spread
/// evenly across the input (first segment at the start, last ending at the
/// end). Inputs no longer than the budget are returned whole.
///
/// ```
/// let codes: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
/// let sample = szhi_tuner::sample_codes(&codes, 8192, 16);
/// assert!(sample.len() <= 8192);
/// // Deterministic: the same input always yields the same sample.
/// assert_eq!(sample, szhi_tuner::sample_codes(&codes, 8192, 16));
/// ```
pub fn sample_codes(codes: &[u8], budget: usize, segments: usize) -> Vec<u8> {
    if codes.len() <= budget || budget == 0 {
        return codes.to_vec();
    }
    let segments = segments.clamp(1, budget);
    let seg_len = (budget / segments).max(1);
    let mut out = Vec::with_capacity(seg_len * segments);
    let last_start = codes.len() - seg_len;
    for s in 0..segments {
        // Integer interpolation of the segment start over [0, last_start]:
        // deterministic, no overlap while seg_len ≤ last_start/(segments-1).
        let start = if segments == 1 {
            0
        } else {
            last_start * s / (segments - 1)
        };
        out.extend_from_slice(&codes[start..start + seg_len]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_inputs_are_returned_whole() {
        let codes = vec![7u8; 100];
        assert_eq!(sample_codes(&codes, 8192, 16), codes);
        assert_eq!(sample_codes(&[], 8192, 16), Vec::<u8>::new());
    }

    #[test]
    fn samples_respect_the_budget_and_cover_both_ends() {
        let codes: Vec<u8> = (0..100_000usize).map(|i| (i % 256) as u8).collect();
        let sample = sample_codes(&codes, 8192, 16);
        assert!(sample.len() <= 8192);
        assert!(sample.len() >= 8192 - 16);
        // First segment starts at the start, last segment ends at the end.
        assert_eq!(sample[0], codes[0]);
        assert_eq!(sample[sample.len() - 1], codes[codes.len() - 1]);
    }

    #[test]
    fn segments_preserve_run_structure() {
        // A stream of 64-byte constant runs: any contiguous 512-byte
        // segment has ≥ 87% repeat density; a strided gather would have 0.
        let codes: Vec<u8> = (0..65_536usize).map(|i| (i / 64 % 256) as u8).collect();
        let sample = sample_codes(&codes, 8192, 16);
        let repeats = sample.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            repeats as f64 / sample.len() as f64 > 0.8,
            "sampling destroyed run structure: {repeats}/{}",
            sample.len()
        );
    }

    #[test]
    fn degenerate_parameters_do_not_panic() {
        let codes = vec![1u8; 1000];
        assert_eq!(sample_codes(&codes, 0, 16), codes);
        let s = sample_codes(&codes, 10, 0);
        assert!(!s.is_empty() && s.len() <= 10);
        let s = sample_codes(&codes, 999, 1000);
        assert!(!s.is_empty() && s.len() <= 999);
    }
}
