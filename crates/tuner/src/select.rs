//! Estimator-guided pipeline selection.
//!
//! [`select_pipeline`] is the orchestration primitive `szhi-core`'s
//! `ModeTuning::Estimated` runs per chunk: rank every candidate by the
//! sampled cost model, then trial a short refinement list on the chunk's
//! codes and keep the genuinely smallest payload. The chosen payload is
//! therefore always a *real* encode — the estimator only decides which few
//! trials are worth running — and because the configured default (the
//! first candidate) is always refined, the selection can never be worse
//! than the default mode.
//!
//! The estimates come from one pass over the sample
//! ([`estimate_sizes`]), and the trials from the stage-level engine
//! [`szhi_codec::trial::select`]: every refined candidate's trial *starts*,
//! stage prefixes the candidates share run once, and a trial whose final
//! Huffman or rANS stage provably cannot win ends before that stage, so
//! fewer trials *complete* than start.

use crate::estimate::estimate_sizes;
use crate::sample::{sample_codes, DEFAULT_SEGMENTS};
use szhi_codec::{trial, CodecError, PipelineSpec};

/// Maximum sampled bytes per chunk (the cost-model input), drawn as
/// [`DEFAULT_SEGMENTS`] contiguous segments.
const SAMPLE_BUDGET: usize = 8192;

/// Tunable knobs of the estimator-guided selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectParams {
    /// How many of the best-estimated candidates are trialled. The first
    /// candidate (the configured default) is always trialled in addition,
    /// so at most `refine + 1` trials start per chunk — against
    /// `candidates.len()` for exhaustive trialling — and at most that many
    /// complete: a trial a floor cuts ends before its last stage.
    pub refine: usize,
}

impl Default for SelectParams {
    fn default() -> Self {
        SelectParams { refine: 3 }
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
    /// How many candidates' trials started.
    pub trial_encoded: usize,
    /// How many of those trials a floor ended before their last stage.
    pub trials_cut: usize,
}

/// Selects the lossless pipeline for `codes` from `candidates` using the
/// sampled cost model, trialling only the estimated best few (plus the
/// first candidate, the caller's default). Ties among trialled payloads
/// break toward the earlier candidate, exactly like
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
/// // Far fewer trials than the 18-candidate exhaustive sweep…
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
    let (shortlist, estimates) = if cands.len() <= refine + 1 {
        // Estimation cannot save a trial: trial the whole (small) set.
        (cands, Vec::new())
    } else {
        let sample = sample_codes(codes, SAMPLE_BUDGET, DEFAULT_SEGMENTS);
        let estimates: Vec<(PipelineSpec, f64)> = estimate_sizes(&cands, &sample, codes.len())
            .into_iter()
            .map(|est| (est.pipeline, est.bytes))
            .collect();
        // Rank by estimate; `total_cmp` plus the candidate index keeps the
        // order fully deterministic even on exactly equal estimates.
        let mut ranked: Vec<usize> = (0..cands.len()).collect();
        ranked.sort_by(|&a, &b| estimates[a].1.total_cmp(&estimates[b].1).then(a.cmp(&b)));
        // The refinement list: the estimated top `refine`, plus the default
        // (candidate 0) as a floor. Re-sorted into candidate order so the
        // earliest-wins tie-break still prefers the default over an equally
        // sized challenger.
        let mut shortlist: Vec<usize> = ranked[..refine].to_vec();
        if !shortlist.contains(&0) {
            shortlist.push(0);
        }
        shortlist.sort_unstable();
        (shortlist.into_iter().map(|i| cands[i]).collect(), estimates)
    };
    let outcome = trial::select(&shortlist, codes)?;
    Ok(Selection {
        pipeline: outcome.pipeline,
        payload: outcome.payload,
        estimates,
        trial_encoded: outcome.started,
        trials_cut: outcome.cut,
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

    /// [`select_pipeline`] before the one-pass estimates and the trial
    /// engine, kept as the reference: each estimate from
    /// `estimate_size_reference`, and every shortlisted candidate encoded
    /// in full, in list order, the strictly smaller payload kept.
    fn select_pipeline_reference(
        candidates: &[PipelineSpec],
        codes: &[u8],
        params: &SelectParams,
    ) -> (PipelineSpec, Vec<u8>, Vec<(PipelineSpec, f64)>, usize) {
        let mut cands: Vec<PipelineSpec> = Vec::new();
        for &c in candidates {
            if !cands.contains(&c) {
                cands.push(c);
            }
        }
        let refine = params.refine.max(1);
        let (shortlist, estimates) = if cands.len() <= refine + 1 {
            (cands, Vec::new())
        } else {
            let sample = sample_codes(codes, SAMPLE_BUDGET, DEFAULT_SEGMENTS);
            let estimates: Vec<(PipelineSpec, f64)> = cands
                .iter()
                .map(|&spec| {
                    let est = crate::estimate::estimate_size_reference(spec, &sample, codes.len());
                    (spec, est.bytes)
                })
                .collect();
            let mut ranked: Vec<usize> = (0..cands.len()).collect();
            ranked.sort_by(|&a, &b| estimates[a].1.total_cmp(&estimates[b].1).then(a.cmp(&b)));
            let mut shortlist: Vec<usize> = ranked[..refine].to_vec();
            if !shortlist.contains(&0) {
                shortlist.push(0);
            }
            shortlist.sort_unstable();
            (shortlist.into_iter().map(|i| cands[i]).collect(), estimates)
        };
        let mut best: Option<(PipelineSpec, Vec<u8>)> = None;
        for &spec in &shortlist {
            let payload = spec.encode(codes);
            if best.as_ref().is_none_or(|(_, b)| payload.len() < b.len()) {
                best = Some((spec, payload));
            }
        }
        let (pipeline, payload) = best.unwrap();
        (pipeline, payload, estimates, shortlist.len())
    }

    #[test]
    fn selection_matches_the_reference_bit_for_bit() {
        let all = PipelineSpec::fig6_set();
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let mut lists = vec![all.clone(), all.iter().rev().copied().collect()];
        let mut with_dups = all.clone();
        with_dups.extend_from_slice(&all[3..9]);
        with_dups.swap(0, 5);
        lists.push(with_dups);
        for _ in 0..6 {
            let mut list: Vec<PipelineSpec> =
                all.iter().copied().filter(|_| rng.gen::<bool>()).collect();
            list.push(all[rng.gen_range(0..all.len())]);
            for i in (1..list.len()).rev() {
                list.swap(i, rng.gen_range(0..=i));
            }
            lists.push(list);
        }
        let streams = [
            ("quant-like", quant_like(60_000, 61)),
            ("zero-heavy", {
                let mut rng = rand::rngs::StdRng::seed_from_u64(67);
                (0..60_000usize)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.97 {
                            0u8
                        } else {
                            rng.gen()
                        }
                    })
                    .collect()
            }),
            (
                "runs",
                (0..60_000usize).map(|i| (i / 64 % 5) as u8 * 51).collect(),
            ),
            (
                "uniform",
                (0..40_000usize).map(|_| rng.gen::<u8>()).collect(),
            ),
        ];
        let params = [
            SelectParams::default(),
            SelectParams { refine: 1 },
            SelectParams { refine: 18 },
        ];
        for (label, codes) in &streams {
            for list in &lists {
                for params in &params {
                    let sel = select_pipeline(list, codes, params).unwrap();
                    let (pipeline, payload, estimates, trials) =
                        select_pipeline_reference(list, codes, params);
                    assert_eq!(sel.pipeline, pipeline, "{label}: {list:?}");
                    assert!(sel.payload == payload, "{label}: {list:?}");
                    assert_eq!(sel.trial_encoded, trials, "{label}: {list:?}");
                    let bits = |e: &[(PipelineSpec, f64)]| -> Vec<(PipelineSpec, u64)> {
                        e.iter().map(|&(p, b)| (p, b.to_bits())).collect()
                    };
                    assert_eq!(bits(&sel.estimates), bits(&estimates), "{label}");
                }
            }
        }
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
