//! Stage-aware pipeline output-size estimation.
//!
//! [`estimate_sizes`] predicts candidate pipelines' encoded sizes for a
//! full code stream while touching only a small deterministic sample of
//! it. It walks the pipeline's [`StageSpec`] list and models each stage by
//! what the stage actually *is*:
//!
//! * **Component stages** (RRE/RZE repeat- and zero-run eliminators, the
//!   TCMS/BIT/DIFFMS/CLOG/TUPL transforms, Bitcomp, LZ) are applied to
//!   the sample itself. These stages are cheap and local, so the sampled
//!   stream's zero runs and byte-range occupancy propagate through them
//!   exactly as they would through the full stream, and their reduction
//!   measured on the sample extrapolates linearly.
//! * **Entropy coders** (Huffman/ANS) are closed with the **histogram →
//!   entropy bound**: the payload of a full stream with the sampled
//!   distribution is `n · H / 8` bytes, no encode needed. Stages *behind*
//!   the entropy coder see near-incompressible bytes, so their net effect
//!   is measured once on the sample and applied as a multiplicative
//!   factor to the bound.
//! * The pipeline's **constant skeleton** (length headers, the Huffman
//!   code-length table, the ANS frequency table) is measured exactly by
//!   encoding an empty stream — it must not be multiplied by the
//!   sample-to-full scale factor, which is what makes naive
//!   sample-encode-and-scale estimates misrank close candidates.
//!
//! The estimate is a pure function of `(spec, sample, full_len)`; with the
//! deterministic sampler in [`crate::sample`] the whole cost model is
//! byte-reproducible at any thread count.

use crate::stats::CodeStats;
use std::sync::OnceLock;
use szhi_codec::trial::PrefixOutputs;
use szhi_codec::{PipelineSpec, Stage, StageSpec};

/// One pipeline's estimated output size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SizeEstimate {
    /// The candidate pipeline.
    pub pipeline: PipelineSpec,
    /// Estimated encoded size of the full stream, in bytes.
    pub bytes: f64,
    /// Whether the estimate was closed by the histogram → entropy bound
    /// (the pipeline contains a Huffman/ANS stage) rather than by sampled
    /// component reduction alone.
    pub entropy_bounded: bool,
}

/// Estimates the encoded size of a `full_len`-byte stream under each spec
/// in `specs`, from a deterministic `sample` of it (see
/// [`crate::sample_codes`]), in one pass over the sample: a stage prefix
/// that several specs start with runs on the sample once, each stage
/// output feeding an entropy stage is summarised by [`CodeStats`] once,
/// and each spec's constant skeleton is measured once per process. Every
/// estimate is bit for bit the one the spec gets when estimated alone.
pub(crate) fn estimate_sizes(
    specs: &[PipelineSpec],
    sample: &[u8],
    full_len: usize,
) -> Vec<SizeEstimate> {
    let mut outputs = PrefixOutputs::new(sample);
    let mut models: Vec<(&'static [StageSpec], CodeStats)> = Vec::new();
    let mut estimates = Vec::with_capacity(specs.len());
    // The full stream is `scale`× the sampled one.
    let scale =
        (!sample.is_empty() && full_len != 0).then(|| full_len as f64 / sample.len() as f64);
    for (i, &spec) in specs.iter().enumerate() {
        let wanted = |prefix: &[StageSpec]| {
            specs[i + 1..]
                .iter()
                .any(|later| later.stages().starts_with(prefix))
        };
        estimates.push(estimate_one(
            spec,
            &mut outputs,
            &mut models,
            &wanted,
            scale,
        ));
        outputs.release(wanted);
    }
    estimates
}

/// One spec's estimate, reading stage outputs on the sample from `outputs`
/// and the statistics of each entropy stage's input from `models`; `scale`
/// is `None` for an empty sample or stream, which estimate the skeleton.
fn estimate_one(
    spec: PipelineSpec,
    outputs: &mut PrefixOutputs<'_>,
    models: &mut Vec<(&'static [StageSpec], CodeStats)>,
    wanted: &dyn Fn(&[StageSpec]) -> bool,
    scale: Option<f64>,
) -> SizeEstimate {
    let skeleton = Skeleton::of(spec);
    let Some(scale) = scale else {
        return SizeEstimate {
            pipeline: spec,
            bytes: skeleton.whole,
            entropy_bounded: false,
        };
    };
    let stages = spec.stages();

    if let Some(k) = stages.iter().position(StageSpec::is_entropy_coder) {
        // Component stages ahead of the entropy coder run on the sample so
        // their run/occupancy effects reach the histogram.
        let model = &stages[..k];
        let m = match models.iter().position(|(prefix, _)| *prefix == model) {
            Some(m) => m,
            None => {
                let stats = CodeStats::from_codes(outputs.run(model, wanted));
                models.push((model, stats));
                models.len() - 1
            }
        };
        let stats = &models[m].1;
        // The histogram bound for the full stream at this stage (the
        // stream is `scale`× the sampled one with the same distribution).
        // ANS approaches the Shannon entropy; Huffman is a prefix code
        // that cannot spend less than one bit per symbol, so its bound is
        // the exact cost of the canonical code built from the histogram.
        let bound = match stages[k] {
            StageSpec::Huffman => {
                let book = szhi_codec::huffman::HuffmanBook::from_histogram(&stats.histogram);
                book.encoded_bits(&stats.histogram) as f64 / 8.0 * scale
            }
            _ => stats.entropy_bound_bytes(stats.n as f64 * scale),
        };
        // Stages behind the entropy coder act on near-incompressible
        // bytes; measure their net *payload* factor once on the sample.
        // Constant parts (the entropy coder's table, the post stages'
        // headers) are taken out of both sides first — they are already
        // accounted for by the unscaled skeleton term, and leaving them
        // in would multiply sample-level constants by the scale factor.
        let entropy_out = outputs.run(&stages[..=k], wanted).len() as f64;
        let payload_in = (entropy_out - skeleton.entropy).max(1.0);
        let tail = outputs.run(stages, wanted).len() as f64;
        let payload_out = (tail - skeleton.tail).max(0.0);
        let post_factor = payload_out / payload_in;
        SizeEstimate {
            pipeline: spec,
            bytes: bound * post_factor + skeleton.whole,
            entropy_bounded: true,
        }
    } else {
        // No entropy stage: the sampled reduction extrapolates linearly
        // once the constant skeleton is taken out of the scaled term.
        let model = outputs.run(stages, wanted).len() as f64;
        SizeEstimate {
            pipeline: spec,
            bytes: (model - skeleton.whole).max(0.0) * scale + skeleton.whole,
            entropy_bounded: false,
        }
    }
}

/// A spec's constant output parts: headers and tables that do not scale
/// with the input. Encoding an empty stream measures them exactly, once
/// per process.
#[derive(Debug, Clone, Copy)]
struct Skeleton {
    /// The whole pipeline's output on an empty stream.
    whole: f64,
    /// Its first entropy stage's output on an empty stream (0 without one).
    entropy: f64,
    /// That output run through the stages behind the entropy stage.
    tail: f64,
}

impl Skeleton {
    fn of(spec: PipelineSpec) -> Skeleton {
        static TABLE: OnceLock<Vec<Skeleton>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            PipelineSpec::all()
                .into_iter()
                .map(Skeleton::measure)
                .collect()
        });
        table[spec.id() as usize]
    }

    fn measure(spec: PipelineSpec) -> Skeleton {
        let stages = spec.stages();
        let (entropy, tail) = match stages.iter().position(StageSpec::is_entropy_coder) {
            Some(k) => {
                let mut out = stages[k].encode(&[]);
                let entropy = out.len() as f64;
                for stage in &stages[k + 1..] {
                    out = stage.encode(&out);
                }
                (entropy, out.len() as f64)
            }
            None => (0.0, 0.0),
        };
        Skeleton {
            whole: spec.encode(&[]).len() as f64,
            entropy,
            tail,
        }
    }
}

/// One spec's estimate as it was before [`estimate_sizes`] shared work
/// across specs, kept as the reference the estimates must match bit for
/// bit: every stage run on a fresh copy of the sample, the statistics and
/// the skeleton measured per call.
#[cfg(test)]
pub(crate) fn estimate_size_reference(
    spec: PipelineSpec,
    sample: &[u8],
    full_len: usize,
) -> SizeEstimate {
    let skeleton = spec.encode(&[]).len() as f64;
    if sample.is_empty() || full_len == 0 {
        return SizeEstimate {
            pipeline: spec,
            bytes: skeleton,
            entropy_bounded: false,
        };
    }
    let scale = full_len as f64 / sample.len() as f64;
    let stages = spec.stages();
    if let Some(k) = stages.iter().position(StageSpec::is_entropy_coder) {
        let mut model = sample.to_vec();
        for stage in &stages[..k] {
            model = stage.encode(&model);
        }
        let stats = CodeStats::from_codes(&model);
        let bound = match stages[k] {
            StageSpec::Huffman => {
                let book = szhi_codec::huffman::HuffmanBook::from_histogram(&stats.histogram);
                book.encoded_bits(&stats.histogram) as f64 / 8.0 * scale
            }
            _ => stats.entropy_bound_bytes(model.len() as f64 * scale),
        };
        let entropy_out = stages[k].encode(&model);
        let mut entropy_skeleton = stages[k].encode(&[]);
        let payload_in = (entropy_out.len() as f64 - entropy_skeleton.len() as f64).max(1.0);
        let mut tail = entropy_out;
        for stage in &stages[k + 1..] {
            tail = stage.encode(&tail);
            entropy_skeleton = stage.encode(&entropy_skeleton);
        }
        let payload_out = (tail.len() as f64 - entropy_skeleton.len() as f64).max(0.0);
        let post_factor = payload_out / payload_in;
        SizeEstimate {
            pipeline: spec,
            bytes: bound * post_factor + skeleton,
            entropy_bounded: true,
        }
    } else {
        let mut model = sample.to_vec();
        for stage in stages {
            model = stage.encode(&model);
        }
        SizeEstimate {
            pipeline: spec,
            bytes: (model.len() as f64 - skeleton).max(0.0) * scale + skeleton,
            entropy_bounded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_codes;
    use rand::{Rng, SeedableRng};

    /// Quantization-code-like data: tightly clustered around 128 with rare
    /// excursions (mirrors the codec crate's test distribution).
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

    fn uniform(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    /// 64-byte constant runs with slowly varying values (RRE-friendly).
    fn runs(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i / 64 % 7) as u8 * 36).collect()
    }

    /// Mostly zeros with sparse spikes (RZE-friendly).
    fn zero_heavy(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < 0.97 {
                    0
                } else {
                    rng.gen()
                }
            })
            .collect()
    }

    fn rank_of_true_best(codes: &[u8]) -> usize {
        let candidates = PipelineSpec::fig6_set();
        let sample = sample_codes(codes, 8192, 16);
        let mut est: Vec<(usize, f64)> = estimate_sizes(&candidates, &sample, codes.len())
            .iter()
            .map(|e| e.bytes)
            .enumerate()
            .collect();
        est.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let actual_best = candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, spec)| spec.encode(codes).len())
            .map(|(i, _)| i)
            .unwrap();
        est.iter().position(|&(i, _)| i == actual_best).unwrap()
    }

    #[test]
    fn the_true_best_pipeline_ranks_near_the_top_of_the_estimates() {
        // The contract the top-K refinement in `select` relies on: across
        // qualitatively different code distributions, the estimator puts
        // the genuinely smallest pipeline within its top few candidates.
        for (label, codes) in [
            ("quant-like", quant_like(120_000, 7)),
            ("uniform", uniform(120_000, 11)),
            ("runs", runs(120_000)),
            ("zero-heavy", zero_heavy(120_000, 13)),
        ] {
            let rank = rank_of_true_best(&codes);
            assert!(
                rank < 4,
                "{label}: true best pipeline ranked {rank} by the estimator"
            );
        }
    }

    #[test]
    fn estimates_are_within_a_factor_of_the_truth_on_quant_codes() {
        let codes = quant_like(150_000, 23);
        let sample = sample_codes(&codes, 8192, 16);
        for spec in PipelineSpec::fig6_set() {
            let est = estimate_sizes(&[spec], &sample, codes.len())[0].bytes;
            let actual = spec.encode(&codes).len() as f64;
            let ratio = est / actual;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{spec}: estimate {est:.0} vs actual {actual:.0} (x{ratio:.2})"
            );
        }
    }

    #[test]
    fn entropy_bound_drives_hf_estimates() {
        // A two-symbol stream has 1 bit/byte of entropy: the HF estimate
        // must sit near n/8, far below the raw size.
        let codes: Vec<u8> = (0..131_072usize).map(|i| (i % 2) as u8 * 9).collect();
        let sample = sample_codes(&codes, 8192, 16);
        let est = estimate_sizes(&[PipelineSpec::Hf], &sample, codes.len())[0];
        assert!(est.entropy_bounded);
        let bound = codes.len() as f64 / 8.0;
        assert!(
            est.bytes > bound * 0.8 && est.bytes < bound * 2.0,
            "HF estimate {:.0} vs entropy bound {bound:.0}",
            est.bytes
        );
    }

    #[test]
    fn empty_and_degenerate_inputs_estimate_the_skeleton() {
        for spec in PipelineSpec::fig6_set() {
            let est = estimate_sizes(&[spec], &[], 0)[0];
            let skeleton = spec.encode(&[]).len() as f64;
            assert_eq!(est.bytes, skeleton, "{spec}");
        }
    }

    #[test]
    fn one_pass_estimates_are_bit_identical_to_the_reference() {
        let all = PipelineSpec::fig6_set();
        let mut shuffled: Vec<PipelineSpec> = all.iter().rev().copied().collect();
        shuffled.extend([PipelineSpec::Hf, PipelineSpec::Zstd, PipelineSpec::CR]);
        shuffled.swap(2, 11);
        for (label, codes) in [
            ("quant-like", quant_like(120_000, 7)),
            ("uniform", uniform(120_000, 11)),
            ("runs", runs(120_000)),
            ("zero-heavy", zero_heavy(120_000, 13)),
            ("short", quant_like(3_000, 17)),
        ] {
            let sample = sample_codes(&codes, 8192, 16);
            for (len, sample) in [(codes.len(), &sample[..]), (0, &sample[..]), (5, &[][..])] {
                for specs in [&all, &shuffled] {
                    let batch = estimate_sizes(specs, sample, len);
                    for (&spec, est) in specs.iter().zip(&batch) {
                        let want = estimate_size_reference(spec, sample, len);
                        let alone = estimate_sizes(&[spec], sample, len)[0];
                        for got in [est, &alone] {
                            assert_eq!(got.pipeline, want.pipeline, "{label}");
                            assert_eq!(
                                got.bytes.to_bits(),
                                want.bytes.to_bits(),
                                "{label}: {spec}"
                            );
                            assert_eq!(got.entropy_bounded, want.entropy_bounded, "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let codes = quant_like(100_000, 31);
        let sample = sample_codes(&codes, 8192, 16);
        for spec in PipelineSpec::fig6_set() {
            let a = estimate_sizes(&[spec], &sample, codes.len())[0];
            let b = estimate_sizes(&[spec], &sample, codes.len())[0];
            assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "{spec}");
        }
    }
}
