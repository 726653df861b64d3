//! The stage-level trial engine behind per-chunk pipeline selection.
//!
//! [`select`] encodes one input with a list of candidate pipelines and
//! keeps the smallest payload, breaking ties toward the earlier candidate.
//! It works stage by stage rather than pipeline by pipeline, so it does
//! less work than encoding every candidate in full and picks exactly the
//! same `(pipeline, payload)`:
//!
//! * **Shared stage prefixes.** Candidates that start with the same stages
//!   run them once: `HF` runs once for `CR`, `HF` and `HF+ANS`, and
//!   `LZ-THOROUGH` once for `GDeflate` and `Zstd`. [`PrefixOutputs`] holds
//!   an output only while a later candidate still starts with it.
//! * **Cheap first.** Candidates without a dictionary (LZ) stage run first.
//!   The winner is the least `(payload length, candidate index)`, so the
//!   order changes neither the winner nor the earliest-wins tie-break; it
//!   only lets the cheap candidates set the bar the floors are held to.
//! * **Floors before a final entropy stage.** Before a candidate's last
//!   stage, when that stage is Huffman or rANS, the histogram of its input
//!   sizes its output from below (`huffman::encoded_len` exactly,
//!   `ans::encoded_len_floor` as a proven bound). When the floor cannot
//!   beat the best payload so far, the trial ends there: it is *started*
//!   but not *completed*.

use crate::histogram::byte_histogram;
use crate::{ans, huffman, CodecError, PipelineSpec, Stage, StageSpec};

/// The outcome of one trial selection.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The winning pipeline.
    pub pipeline: PipelineSpec,
    /// Its encoded payload, byte for byte `pipeline.encode(input)`.
    pub payload: Vec<u8>,
    /// Candidates whose trial started (after deduplication).
    pub started: usize,
    /// Trials a floor ended before their last stage.
    pub cut: usize,
}

/// Encodes `input` with every distinct candidate, as far as it can still
/// win, and returns the least `(payload length, candidate index)`. An empty
/// candidate set is a typed [`CodecError::InvalidRequest`].
pub fn select(candidates: &[PipelineSpec], input: &[u8]) -> Result<TrialOutcome, CodecError> {
    let mut cands: Vec<PipelineSpec> = Vec::with_capacity(candidates.len());
    for &c in candidates {
        if !cands.contains(&c) {
            cands.push(c);
        }
    }
    // Cheap first: candidates without a dictionary (LZ) stage.
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by_key(|&i| {
        let lz = |s: &StageSpec| matches!(s, StageSpec::LzFast | StageSpec::LzThorough);
        (cands[i].stages().iter().any(lz), i)
    });

    let mut outputs = PrefixOutputs::new(input);
    let mut best: Option<(usize, Vec<u8>)> = None;
    let mut cut = 0;
    for (pos, &i) in order.iter().enumerate() {
        let later = &order[pos + 1..];
        let wanted =
            |prefix: &[StageSpec]| later.iter().any(|&j| cands[j].stages().starts_with(prefix));
        let stages = cands[i].stages();
        let payload = match outputs.take(stages) {
            Some(payload) => payload,
            None => {
                let (&last, head) = stages
                    .split_last()
                    .expect("every catalogued pipeline has a stage");
                let data = outputs.run(head, wanted);
                let hist =
                    (last.is_entropy_coder() && best.is_some()).then(|| byte_histogram(data));
                if let (Some(hist), Some((b, payload))) = (&hist, &best) {
                    let floor = match last {
                        StageSpec::Huffman => huffman::encoded_len(hist),
                        _ => ans::encoded_len_floor(hist),
                    };
                    if (floor, i) > (payload.len(), *b) {
                        cut += 1;
                        outputs.release(wanted);
                        continue;
                    }
                }
                match (last, &hist) {
                    (StageSpec::Huffman, Some(hist)) => huffman::encode_counted(data, hist),
                    (StageSpec::Ans, Some(hist)) => ans::encode_counted(data, hist),
                    _ => last.encode(data),
                }
            }
        };
        if wanted(stages) {
            outputs.hold(stages, payload.clone());
        }
        if best
            .as_ref()
            .is_none_or(|(b, p)| (payload.len(), i) < (p.len(), *b))
        {
            best = Some((i, payload));
        }
        outputs.release(wanted);
    }
    let (winner, payload) = best.ok_or_else(|| {
        CodecError::request("encode_select", "empty candidate pipeline set".to_string())
    })?;
    Ok(TrialOutcome {
        pipeline: cands[winner],
        payload,
        started: cands.len(),
        cut,
    })
}

/// Stage outputs of one input, shared by stage prefix: running a stage
/// list starts from the longest prefix of it already held.
#[derive(Debug)]
pub struct PrefixOutputs<'a> {
    input: &'a [u8],
    held: Vec<(&'static [StageSpec], Vec<u8>)>,
}

impl<'a> PrefixOutputs<'a> {
    /// Nothing held yet; the empty prefix is `input` itself.
    pub fn new(input: &'a [u8]) -> Self {
        PrefixOutputs {
            input,
            held: Vec::new(),
        }
    }

    /// The output of `stages` (a prefix of a catalogued stage list) on the
    /// input. Runs only the stages past the longest prefix held; of the
    /// outputs it computes, it holds those `wanted` accepts and the last
    /// one, which it returns.
    pub fn run(
        &mut self,
        stages: &'static [StageSpec],
        wanted: impl Fn(&[StageSpec]) -> bool,
    ) -> &[u8] {
        let from = self
            .held
            .iter()
            .enumerate()
            .filter(|(_, (prefix, _))| stages.starts_with(prefix))
            .max_by_key(|(_, (prefix, _))| prefix.len());
        let (mut depth, from) = from.map_or((0, None), |(h, (prefix, _))| (prefix.len(), Some(h)));
        if depth == stages.len() {
            return from.map_or(self.input, |h| &self.held[h].1);
        }
        let mut own: Option<Vec<u8>> = None;
        while depth < stages.len() {
            let data = match (&own, from) {
                (Some(out), _) => out.as_slice(),
                (None, Some(h)) => &self.held[h].1,
                (None, None) => self.input,
            };
            let next = stages[depth].encode(data);
            if let Some(prev) = own.replace(next) {
                if wanted(&stages[..depth]) {
                    self.held.push((&stages[..depth], prev));
                }
            }
            depth += 1;
        }
        let out = own.expect("at least one stage ran");
        self.held.push((stages, out));
        &self.held[self.held.len() - 1].1
    }

    /// Removes and returns the held output of exactly `stages`, if any.
    pub(crate) fn take(&mut self, stages: &[StageSpec]) -> Option<Vec<u8>> {
        let h = self.held.iter().position(|(prefix, _)| *prefix == stages)?;
        Some(self.held.swap_remove(h).1)
    }

    /// Holds `output` as the output of `stages`.
    pub(crate) fn hold(&mut self, stages: &'static [StageSpec], output: Vec<u8>) {
        self.held.push((stages, output));
    }

    /// Drops every held output whose stage prefix `wanted` rejects.
    pub fn release(&mut self, wanted: impl Fn(&[StageSpec]) -> bool) {
        self.held.retain(|(prefix, _)| wanted(prefix));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The selection loop `PipelineSpec::try_encode_select` ran before this
    /// engine, kept as the reference: every distinct candidate encoded in
    /// full, in list order, the strictly smaller payload kept.
    fn select_reference(
        candidates: &[PipelineSpec],
        input: &[u8],
    ) -> Result<(PipelineSpec, Vec<u8>), CodecError> {
        let mut seen: Vec<PipelineSpec> = Vec::with_capacity(candidates.len());
        let mut best: Option<(PipelineSpec, Vec<u8>)> = None;
        for &spec in candidates {
            if seen.contains(&spec) {
                continue;
            }
            seen.push(spec);
            let payload = spec.encode(input);
            if best.as_ref().is_none_or(|(_, b)| payload.len() < b.len()) {
                best = Some((spec, payload));
            }
        }
        best.ok_or_else(|| {
            CodecError::request("encode_select", "empty candidate pipeline set".to_string())
        })
    }

    /// Codes clustered around 128 with rare excursions; `spread` widens
    /// the cluster, so a larger one gives higher-entropy codes.
    fn quant_like(n: usize, spread: f64, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < 0.995 {
                    let d = rng.gen::<f64>() * rng.gen::<f64>() * spread;
                    128u8.wrapping_add((d as i8 * if rng.gen() { 1 } else { -1 }) as u8)
                } else {
                    rng.gen()
                }
            })
            .collect()
    }

    fn zero_heavy(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
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

    fn run_heavy(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (byte, len) = (rng.gen_range(120..136u8), rng.gen_range(1..200usize));
            out.extend(std::iter::repeat_n(byte, len.min(n - out.len())));
        }
        out
    }

    fn uniform(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    /// Floor inputs: empty, one byte, one symbol, two skewed symbols, a
    /// limited alphabet, uniform bytes, more than 256 KiB of codes, and
    /// streams whose rare symbols normalise to frequency 1.
    fn floor_inputs() -> Vec<(&'static str, Vec<u8>)> {
        let mut rng = StdRng::seed_from_u64(17);
        let mut rare = vec![128u8; 300_000];
        for s in 0..200usize {
            rare[s * 1_409] = s as u8;
        }
        let mut rare_small = vec![7u8; 5_000];
        rare_small[10] = 200;
        rare_small[4_000] = 9;
        vec![
            ("empty", Vec::new()),
            ("one byte", vec![42]),
            ("one symbol", vec![9u8; 70_000]),
            (
                "two skewed",
                (0..50_000)
                    .map(|_| if rng.gen_range(0..100) == 0 { 1 } else { 0 })
                    .collect(),
            ),
            (
                "alphabet of 5",
                (0..40_000).map(|_| rng.gen_range(60..65u8)).collect(),
            ),
            ("uniform", uniform(100_000, 19)),
            ("over 256 KiB", quant_like(300_000, 12.0, 23)),
            ("rare symbols", rare),
            ("rare in small", rare_small),
        ]
    }

    #[test]
    fn the_huffman_floor_is_the_exact_encoded_length() {
        for (label, input) in floor_inputs() {
            let hist = byte_histogram(&input);
            assert_eq!(
                huffman::encoded_len(&hist),
                huffman::encode(&input).len(),
                "{label}"
            );
        }
    }

    #[test]
    fn the_rans_floor_is_never_above_the_encoded_length() {
        for (label, input) in floor_inputs() {
            let hist = byte_histogram(&input);
            let (floor, len) = (ans::encoded_len_floor(&hist), ans::encode(&input).len());
            assert!(floor <= len, "{label}: floor {floor} above {len}");
            // Tight where it matters: within 1 % on long inputs.
            if input.len() >= 40_000 && len > 2_000 {
                assert!(
                    floor as f64 >= 0.99 * len as f64,
                    "{label}: {floor} vs {len}"
                );
            }
        }
        // Short streams over random alphabets and skews.
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..300 {
            let (n, alphabet) = (rng.gen_range(1..3_000), rng.gen_range(1..=256u32));
            let skew = rng.gen_range(1..6);
            let input: Vec<u8> = (0..n)
                .map(|_| (0..skew).map(|_| rng.gen_range(0..alphabet)).min().unwrap() as u8)
                .collect();
            let hist = byte_histogram(&input);
            assert!(ans::encoded_len_floor(&hist) <= ans::encode(&input).len());
        }
    }

    #[test]
    fn a_floor_cuts_the_lz_trial_that_cannot_beat_plain_ans() {
        // High-entropy codes: LZ finds short matches that cost more than
        // they save, and its output's histogram proves rANS over it cannot
        // beat rANS over the codes themselves.
        let codes = quant_like(200_000, 40.0, 29);
        let (ans, zstd) = (
            PipelineSpec::Ans.encode(&codes),
            PipelineSpec::Zstd.encode(&codes),
        );
        assert!(ans.len() < zstd.len());
        let outcome = select(&[PipelineSpec::Zstd, PipelineSpec::Ans], &codes).unwrap();
        assert_eq!(
            (outcome.pipeline, outcome.payload),
            (PipelineSpec::Ans, ans)
        );
        assert_eq!((outcome.started, outcome.cut), (2, 1));
        // Alone, nothing is there to cut it against.
        let alone = select(&[PipelineSpec::Zstd], &codes).unwrap();
        assert_eq!((alone.payload, alone.cut), (zstd, 0));
    }

    #[test]
    fn exact_length_ties_go_to_the_earlier_candidate() {
        // On an empty input HF+ANS and Zstd both encode to 524 bytes, so
        // the rANS floor meets the best payload exactly: it must cut the
        // later candidate and run the earlier one, which wins the tie.
        // LZ4, GDeflate and Bitcomp tie at 8 bytes.
        let (hf_ans, zstd) = (PipelineSpec::HfAns, PipelineSpec::Zstd);
        assert_eq!(hf_ans.encode(&[]).len(), zstd.encode(&[]).len());
        let first = select(&[zstd, hf_ans], &[]).unwrap();
        assert_eq!((first.pipeline, first.cut), (zstd, 0));
        let later = select(&[hf_ans, zstd], &[]).unwrap();
        assert_eq!((later.pipeline, later.cut), (hf_ans, 1));
        for order in [
            [
                PipelineSpec::Gdeflate,
                PipelineSpec::Lz4,
                PipelineSpec::Bitcomp,
            ],
            [
                PipelineSpec::Bitcomp,
                PipelineSpec::Gdeflate,
                PipelineSpec::Lz4,
            ],
            [
                PipelineSpec::Lz4,
                PipelineSpec::Bitcomp,
                PipelineSpec::Gdeflate,
            ],
        ] {
            assert_eq!(select(&order, &[]).unwrap().pipeline, order[0]);
        }
    }

    #[test]
    fn the_engine_picks_what_full_encodes_pick() {
        let all = PipelineSpec::fig6_set();
        let mut rng = StdRng::seed_from_u64(31);
        let streams = [
            ("quant-like", quant_like(30_000, 3.0, 37)),
            ("high-entropy", quant_like(30_000, 40.0, 41)),
            ("zero-heavy", zero_heavy(30_000, 43)),
            ("run-heavy", run_heavy(30_000, 47)),
            ("uniform", uniform(20_000, 53)),
            ("empty", Vec::new()),
            ("one byte", vec![128]),
            ("short run", vec![128; 4096]),
        ];
        let mut cut = 0;
        for (label, codes) in &streams {
            let mut lists = vec![all.clone(), all.iter().rev().copied().collect()];
            for _ in 0..12 {
                // A random subset, shuffled, with duplicates.
                let mut list: Vec<PipelineSpec> =
                    all.iter().copied().filter(|_| rng.gen::<bool>()).collect();
                for _ in 0..rng.gen_range(0..4) {
                    list.push(all[rng.gen_range(0..all.len())]);
                }
                for i in (1..list.len()).rev() {
                    list.swap(i, rng.gen_range(0..=i));
                }
                if !list.is_empty() {
                    lists.push(list);
                }
            }
            for list in &lists {
                let outcome = select(list, codes).unwrap();
                let (spec, payload) = select_reference(list, codes).unwrap();
                assert_eq!(outcome.pipeline, spec, "{label}: {list:?}");
                assert!(outcome.payload == payload, "{label}: {list:?}");
                let distinct = all.iter().filter(|s| list.contains(s)).count();
                assert_eq!(outcome.started, distinct, "{label}: {list:?}");
                assert!(outcome.cut < distinct, "{label}: {list:?}");
                cut += outcome.cut;
            }
        }
        assert!(cut > 0, "no floor cut a trial");
        assert!(select(&[], &[1, 2, 3]).is_err());
    }

    #[test]
    fn prefix_outputs_hold_only_what_is_wanted() {
        use StageSpec::*;
        let codes = quant_like(5_000, 3.0, 59);
        let cr = PipelineSpec::CR.stages();
        let mut outputs = PrefixOutputs::new(&codes);
        let hf_rre4 = outputs
            .run(&cr[..2], |p: &[StageSpec]| p == [Huffman])
            .to_vec();
        assert_eq!(hf_rre4, StageSpec::Rre4.encode(&Huffman.encode(&codes)));
        let held: Vec<&[StageSpec]> = outputs.held.iter().map(|(p, _)| *p).collect();
        assert_eq!(held, [&[Huffman][..], &cr[..2]]);
        // A longer prefix starts from the held one.
        assert_eq!(
            outputs.run(cr, |_: &[StageSpec]| false),
            PipelineSpec::CR.encode(&codes)
        );
        outputs.release(|_: &[StageSpec]| false);
        assert!(outputs.held.is_empty());
        assert_eq!(outputs.run(&[], |_: &[StageSpec]| false), codes);
    }
}
