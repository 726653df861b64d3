//! Estimator-guided pipeline selection.
//!
//! [`select_pipeline`] is the orchestration primitive `szhi-core`'s
//! `ModeTuning::Estimated` runs per chunk: rank every candidate by the
//! sampled cost model, then trial-encode only a short refinement list and
//! keep the genuinely smallest payload. The chosen payload is therefore
//! always a *real* encode — the estimator only decides which few encodes
//! are worth running — and because the configured default (the first
//! candidate) is always refined, the selection can never be worse than
//! the default mode.

use crate::estimate::estimate_size;
use crate::sample::{sample_codes, DEFAULT_SEGMENTS};
use szhi_codec::{CodecError, PipelineSpec};

/// Tunable knobs of the estimator-guided selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectParams {
    /// Maximum sampled bytes per chunk (the cost-model input).
    pub sample_budget: usize,
    /// Number of contiguous segments the sample is assembled from.
    pub segments: usize,
    /// How many of the best-estimated candidates are trial-encoded in
    /// full. The first candidate (the configured default) is always
    /// refined in addition, so the real encode count per chunk is at most
    /// `refine + 1` — against `candidates.len()` for exhaustive
    /// trial-encoding.
    pub refine: usize,
}

impl Default for SelectParams {
    fn default() -> Self {
        SelectParams {
            sample_budget: 8192,
            segments: DEFAULT_SEGMENTS,
            refine: 3,
        }
    }
}

/// The outcome of one estimator-guided selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The winning pipeline.
    pub pipeline: PipelineSpec,
    /// Its (real, decodable) encoded payload.
    pub payload: Vec<u8>,
    /// Every candidate's estimated size, in the order the candidates were
    /// given (after deduplication).
    pub estimates: Vec<(PipelineSpec, f64)>,
    /// How many candidates were trial-encoded in full.
    pub trial_encoded: usize,
}

/// Selects the lossless pipeline for `codes` from `candidates` using the
/// sampled cost model, trial-encoding only the estimated best few (plus
/// the first candidate, the caller's default). Ties among trial-encoded
/// payloads break toward the earlier candidate, exactly like
/// [`PipelineSpec::try_encode_select`] — so with the default first, the
/// choice is deterministic and never worse than the default mode.
///
/// Repeated candidates are deduplicated (first occurrence wins). An empty
/// candidate set is a typed [`CodecError::InvalidRequest`].
///
/// ```
/// use szhi_codec::PipelineSpec;
/// use szhi_tuner::{select_pipeline, SelectParams};
///
/// let codes = vec![128u8; 100_000];
/// let sel = select_pipeline(
///     &PipelineSpec::fig6_set(),
///     &codes,
///     &SelectParams::default(),
/// )
/// .unwrap();
/// // Far fewer full encodes than the 18-candidate exhaustive sweep…
/// assert!(sel.trial_encoded <= 4);
/// // …and the payload is a real encode that round-trips.
/// assert_eq!(sel.pipeline.decode_bounded(&sel.payload, codes.len()).unwrap(), codes);
/// ```
pub fn select_pipeline(
    candidates: &[PipelineSpec],
    codes: &[u8],
    params: &SelectParams,
) -> Result<Selection, CodecError> {
    // Deduplicate, keeping first occurrences: order carries the tie-break.
    let mut cands: Vec<PipelineSpec> = Vec::with_capacity(candidates.len());
    for &c in candidates {
        if !cands.contains(&c) {
            cands.push(c);
        }
    }
    if cands.is_empty() {
        return Err(CodecError::request(
            "select_pipeline",
            "empty candidate pipeline set".to_string(),
        ));
    }
    let refine = params.refine.max(1);
    if cands.len() <= refine + 1 {
        // Estimation cannot save an encode: trial the whole (small) set.
        let (pipeline, payload) = PipelineSpec::try_encode_select(&cands, codes)?;
        let trial_encoded = cands.len();
        return Ok(Selection {
            pipeline,
            payload,
            estimates: Vec::new(),
            trial_encoded,
        });
    }

    let sample = sample_codes(codes, params.sample_budget, params.segments);
    let estimates: Vec<(PipelineSpec, f64)> = cands
        .iter()
        .map(|&spec| (spec, estimate_size(spec, &sample, codes.len()).bytes))
        .collect();

    // Rank by estimate; `total_cmp` plus the candidate index keeps the
    // order fully deterministic even on exactly equal estimates.
    let mut ranked: Vec<usize> = (0..cands.len()).collect();
    ranked.sort_by(|&a, &b| estimates[a].1.total_cmp(&estimates[b].1).then(a.cmp(&b)));

    // The refinement list: the estimated top `refine`, plus the default
    // (candidate 0) as a floor. Re-sorted into candidate order so the
    // first-wins tie-break of `try_encode_select` still prefers the
    // default over an equally sized challenger.
    let mut shortlist: Vec<usize> = ranked[..refine].to_vec();
    if !shortlist.contains(&0) {
        shortlist.push(0);
    }
    shortlist.sort_unstable();
    let shortlist: Vec<PipelineSpec> = shortlist.into_iter().map(|i| cands[i]).collect();
    let trial_encoded = shortlist.len();
    let (pipeline, payload) = PipelineSpec::try_encode_select(&shortlist, codes)?;
    Ok(Selection {
        pipeline,
        payload,
        estimates,
        trial_encoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn quant_like(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let r: f64 = rng.gen();
                if r < 0.995 {
                    let d: f64 = rng.gen::<f64>() * rng.gen::<f64>() * 3.0;
                    128u8.wrapping_add((d as i8 * if rng.gen() { 1 } else { -1 }) as u8)
                } else {
                    rng.gen()
                }
            })
            .collect()
    }

    #[test]
    fn empty_candidate_set_is_a_typed_error() {
        let err = select_pipeline(&[], &[1, 2, 3], &SelectParams::default()).unwrap_err();
        assert!(matches!(err, CodecError::InvalidRequest { .. }));
    }

    #[test]
    fn small_candidate_sets_fall_back_to_exhaustive_trial_encoding() {
        let codes = quant_like(50_000, 3);
        let sel = select_pipeline(
            &[PipelineSpec::CR, PipelineSpec::TP],
            &codes,
            &SelectParams::default(),
        )
        .unwrap();
        let (spec, payload) =
            PipelineSpec::try_encode_select(&[PipelineSpec::CR, PipelineSpec::TP], &codes).unwrap();
        assert_eq!(sel.pipeline, spec);
        assert_eq!(sel.payload, payload);
        assert_eq!(sel.trial_encoded, 2);
    }

    #[test]
    fn selection_is_never_worse_than_the_default_candidate() {
        // The default (first candidate) is always refined, so the chosen
        // payload can never exceed the default's.
        for seed in [5u64, 17, 29] {
            let codes = quant_like(80_000, seed);
            let cands = PipelineSpec::fig6_set();
            let sel = select_pipeline(&cands, &codes, &SelectParams::default()).unwrap();
            let default_len = cands[0].encode(&codes).len();
            assert!(
                sel.payload.len() <= default_len,
                "seed {seed}: selection ({}) worse than default ({default_len})",
                sel.payload.len()
            );
        }
    }

    #[test]
    fn selection_tracks_the_exhaustive_winner_within_tolerance() {
        // The acceptance contract: the estimator-guided payload is within
        // 5% of the exhaustive trial-encode winner's.
        for (label, codes) in [
            ("quant-like", quant_like(120_000, 41)),
            (
                "runs",
                (0..120_000usize).map(|i| (i / 64 % 5) as u8 * 51).collect(),
            ),
            ("zero-heavy", {
                let mut rng = rand::rngs::StdRng::seed_from_u64(43);
                (0..120_000usize)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.97 {
                            0u8
                        } else {
                            rng.gen()
                        }
                    })
                    .collect()
            }),
        ] {
            let cands = PipelineSpec::fig6_set();
            let sel = select_pipeline(&cands, &codes, &SelectParams::default()).unwrap();
            let (_, exhaustive) = PipelineSpec::try_encode_select(&cands, &codes).unwrap();
            assert!(
                (sel.payload.len() as f64) <= exhaustive.len() as f64 * 1.05,
                "{label}: estimated pick {} vs exhaustive {}",
                sel.payload.len(),
                exhaustive.len()
            );
            assert!(
                sel.trial_encoded < cands.len() / 3,
                "{label}: refined {} of {} candidates",
                sel.trial_encoded,
                cands.len()
            );
        }
    }

    #[test]
    fn selection_is_deterministic_and_dedups() {
        let codes = quant_like(60_000, 51);
        let cands = PipelineSpec::fig6_set();
        let mut with_dups = cands.clone();
        with_dups.extend_from_slice(&cands);
        let a = select_pipeline(&cands, &codes, &SelectParams::default()).unwrap();
        let b = select_pipeline(&with_dups, &codes, &SelectParams::default()).unwrap();
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.estimates.len(), b.estimates.len());
    }
}
