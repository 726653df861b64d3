//! Lossless stages and the named pipeline catalogue.
//!
//! A [`StageSpec`] is one lossless bytes→bytes stage, and a [`PipelineSpec`]
//! is a named, ordered list of them ([`PipelineSpec::stages`]) applied left
//! to right on encode and right to left on decode. Both are plain `Copy`
//! enums, so the catalogue is data: the encoder, the decoder and the
//! `szhi-tuner` size estimator walk the same stage list, and running a
//! pipeline boxes nothing. The catalogue names every pipeline the paper uses
//! or benchmarks: the two cuSZ-Hi modes of Figure 7, the LC-style
//! combinations and the third-party codecs of Figure 6.

use crate::components::{Bit, Clog, DiffMs, Rre, Rze, Tcms, TuplD, TuplQ};
use crate::{ans, bitcomp_sim, huffman, lz, CodecError};
use std::borrow::Cow;

/// One lossless encoding stage. [`StageSpec`] is its one implementation;
/// the trait is the object-safe face the benchmark harness boxes.
pub trait Stage: Send + Sync {
    /// Short name used in benchmark output (e.g. `"RRE4"`).
    fn name(&self) -> &'static str;
    /// Encodes `input` into a self-describing byte stream.
    fn encode(&self, input: &[u8]) -> Vec<u8>;
    /// Decodes a stream produced by [`Stage::encode`], failing with a typed
    /// error instead of producing more than `max_out` bytes — the form for
    /// untrusted streams.
    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError>;
    /// Decodes a trusted stream produced by [`Stage::encode`].
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.decode_limited(input, usize::MAX)
    }
}

/// One catalogued lossless stage. Every value is runnable: the symbol
/// width is part of the variant, so there is no width a stage cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageSpec {
    /// Canonical Huffman entropy coding (`HF`).
    Huffman,
    /// Static rANS entropy coding (`ANS`), the nvCOMP ANS stand-in.
    Ans,
    /// The Bitcomp simulator (`BITCOMP`), the NVIDIA Bitcomp stand-in.
    Bitcomp,
    /// Fast LZSS (`LZ-FAST`), the GPULZ / nvCOMP LZ4 stand-in.
    LzFast,
    /// Thorough LZSS (`LZ-THOROUGH`), the nvCOMP GDeflate / Zstd
    /// match-finding stand-in.
    LzThorough,
    /// Run-of-repeats elimination over 1-byte symbols (`RRE1`).
    Rre1,
    /// Run-of-repeats elimination over 2-byte symbols (`RRE2`).
    Rre2,
    /// Run-of-repeats elimination over 4-byte symbols (`RRE4`).
    Rre4,
    /// Run-of-zeros elimination over 1-byte symbols (`RZE1`).
    Rze1,
    /// Two's-complement → magnitude-sign transform over 1-byte symbols
    /// (`TCMS1`).
    Tcms1,
    /// Two's-complement → magnitude-sign transform over 8-byte symbols
    /// (`TCMS8`).
    Tcms8,
    /// Bit shuffle over 1-byte symbols (`BIT1`).
    Bit1,
    /// Difference + magnitude-sign transform over 1-byte symbols
    /// (`DIFFMS1`).
    DiffMs1,
    /// Conditional-logarithm transform over 1-byte symbols (`CLOG1`).
    Clog1,
    /// Quad-tuple interleave (`TUPLQ1`).
    TuplQ1,
    /// Duo-tuple de-interleave (`TUPLD2`).
    TuplD2,
}

impl StageSpec {
    /// Whether this stage is an entropy coder (Huffman or ANS), whose
    /// output size a histogram entropy bound models well and whose output
    /// bytes are near-incompressible for the downstream stages.
    pub fn is_entropy_coder(&self) -> bool {
        matches!(self, StageSpec::Huffman | StageSpec::Ans)
    }

    /// The stage as a boxed [`Stage`]: a copy of itself. Kept for the
    /// benchmark harness, which still boxes stages.
    pub fn build(&self) -> Box<dyn Stage> {
        Box::new(*self)
    }
}

impl Stage for StageSpec {
    fn name(&self) -> &'static str {
        use StageSpec::*;
        match self {
            Huffman => "HF",
            Ans => "ANS",
            Bitcomp => "BITCOMP",
            LzFast => "LZ-FAST",
            LzThorough => "LZ-THOROUGH",
            Rre1 => "RRE1",
            Rre2 => "RRE2",
            Rre4 => "RRE4",
            Rze1 => "RZE1",
            Tcms1 => "TCMS1",
            Tcms8 => "TCMS8",
            Bit1 => "BIT1",
            DiffMs1 => "DIFFMS1",
            Clog1 => "CLOG1",
            TuplQ1 => "TUPLQ1",
            TuplD2 => "TUPLD2",
        }
    }

    fn encode(&self, input: &[u8]) -> Vec<u8> {
        use StageSpec::*;
        match self {
            Huffman => huffman::encode(input),
            Ans => ans::encode(input),
            Bitcomp => bitcomp_sim::compress(input),
            LzFast => lz::compress(input, lz::Effort::Fast),
            LzThorough => lz::compress(input, lz::Effort::Thorough),
            Rre1 => Rre::<1>.encode_bytes(input),
            Rre2 => Rre::<2>.encode_bytes(input),
            Rre4 => Rre::<4>.encode_bytes(input),
            Rze1 => Rze::<1>.encode_bytes(input),
            Tcms1 => Tcms::<1>.encode_bytes(input),
            Tcms8 => Tcms::<8>.encode_bytes(input),
            Bit1 => Bit::<1>.encode_bytes(input),
            DiffMs1 => DiffMs::<1>.encode_bytes(input),
            Clog1 => Clog::<1>.encode_bytes(input),
            TuplQ1 => TuplQ::new().encode_bytes(input),
            TuplD2 => TuplD::new().encode_bytes(input),
        }
    }

    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        use StageSpec::*;
        let out = match self {
            // These decoders, the component reducers among them, expand
            // their input by a claimed output count, so they reject it
            // against the bound before doing any work.
            Huffman => return huffman::decode_limited(input, max_out),
            Ans => return ans::decode_limited(input, max_out),
            Bitcomp => return bitcomp_sim::decompress_limited(input, max_out),
            LzFast | LzThorough => return lz::decompress_limited(input, max_out),
            Rre1 => return Rre::<1>.decode_bytes(input, max_out),
            Rre2 => return Rre::<2>.decode_bytes(input, max_out),
            Rre4 => return Rre::<4>.decode_bytes(input, max_out),
            Rze1 => return Rze::<1>.decode_bytes(input, max_out),
            Clog1 => return Clog::<1>.decode_bytes(input, max_out),
            // The transforms produce no more bytes than they read, so
            // checking the produced length afterwards is enough.
            Tcms1 => Tcms::<1>.decode_bytes(input)?,
            Tcms8 => Tcms::<8>.decode_bytes(input)?,
            Bit1 => Bit::<1>.decode_bytes(input)?,
            DiffMs1 => DiffMs::<1>.decode_bytes(input)?,
            TuplQ1 => TuplQ::new().decode_bytes(input)?,
            TuplD2 => TuplD::new().decode_bytes(input)?,
        };
        if out.len() > max_out {
            return Err(CodecError::corrupt(
                self.name(),
                format!("decoded {} bytes, limit {max_out}", out.len()),
            ));
        }
        Ok(out)
    }
}

/// Every named lossless pipeline used in the paper.
///
/// The first two variants are the production pipelines of cuSZ-Hi
/// (Figure 7); the remainder are the Figure 6 benchmark entries. Proprietary
/// codecs are represented by open-source stand-ins, each argued in its own
/// module doc (`crate::ans`, [`crate::bitcomp_sim`], `crate::lz`): `ANS` →
/// rANS, `Bitcomp` → bitcomp-sim, `LZ4`/`GPULZ` → fast LZSS, `GDeflate`/`Zstd`
/// → thorough LZSS, `Zstd` additionally entropy-coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineSpec {
    /// `HF → RRE4 → TCMS8 → RZE1`: the CR-mode pipeline of cuSZ-Hi.
    HfRre4Tcms8Rze1,
    /// `TCMS1 → BIT1 → RRE1`: the TP-mode pipeline of cuSZ-Hi.
    Tcms1Bit1Rre1,
    /// Huffman alone (the cuSZ / cuSZ-I lossless stage).
    Hf,
    /// `HF → RRE1`.
    HfRre1,
    /// `HF → TUPLQ1 → RRE1`.
    HfTuplq1Rre1,
    /// `HF → TUPLD2 → RRE2 → TUPLQ1 → RRE1`.
    HfTupld2Rre2Tuplq1Rre1,
    /// `HF → ANS` (Huffman then the nvCOMP-ANS stand-in).
    HfAns,
    /// `HF → Bitcomp-sim` (the cuSZ-IB lossless stack).
    HfBitcomp,
    /// `HF → fast LZ` (Huffman then a GPULZ/LZ4 stand-in).
    HfLz,
    /// `RRE1` alone.
    Rre1,
    /// `RRE1 → RRE2`.
    Rre1Rre2,
    /// `RRE1 → RZE1 → DIFFMS1 → CLOG1`.
    Rre1Rze1Diffms1Clog1,
    /// rANS alone (nvCOMP ANS stand-in).
    Ans,
    /// Bitcomp-sim alone.
    Bitcomp,
    /// Fast LZSS (GPULZ / nvCOMP LZ4 stand-in).
    Lz4,
    /// Thorough LZSS (nvCOMP GDeflate stand-in).
    Gdeflate,
    /// Thorough LZSS followed by rANS (nvCOMP Zstd stand-in).
    Zstd,
    /// `DIFFMS1 → BIT1 → RZE1` (ndzip-style transform + residual coder).
    Ndzip,
}

impl PipelineSpec {
    /// The CR-preferred production pipeline.
    pub const CR: PipelineSpec = PipelineSpec::HfRre4Tcms8Rze1;
    /// The TP-preferred production pipeline.
    pub const TP: PipelineSpec = PipelineSpec::Tcms1Bit1Rre1;

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineSpec::HfRre4Tcms8Rze1 => "HF-RRE4-TCMS8-RZE1",
            PipelineSpec::Tcms1Bit1Rre1 => "TCMS1-BIT1-RRE1",
            PipelineSpec::Hf => "HF",
            PipelineSpec::HfRre1 => "HF+RRE1",
            PipelineSpec::HfTuplq1Rre1 => "HF+TUPLQ1-RRE1",
            PipelineSpec::HfTupld2Rre2Tuplq1Rre1 => "HF+TUPLD2-RRE2-TUPLQ1-RRE1",
            PipelineSpec::HfAns => "HF+ANS",
            PipelineSpec::HfBitcomp => "HF+Bitcomp",
            PipelineSpec::HfLz => "HF+GPULZ",
            PipelineSpec::Rre1 => "RRE1",
            PipelineSpec::Rre1Rre2 => "RRE1-RRE2",
            PipelineSpec::Rre1Rze1Diffms1Clog1 => "RRE1-RZE1-DIFFMS1-CLOG1",
            PipelineSpec::Ans => "ANS",
            PipelineSpec::Bitcomp => "Bitcomp",
            PipelineSpec::Lz4 => "LZ4/GPULZ",
            PipelineSpec::Gdeflate => "GDeflate",
            PipelineSpec::Zstd => "Zstd",
            PipelineSpec::Ndzip => "ndzip",
        }
    }

    /// Stable identifier stored in compressed-stream headers.
    pub fn id(&self) -> u8 {
        match self {
            PipelineSpec::HfRre4Tcms8Rze1 => 0,
            PipelineSpec::Tcms1Bit1Rre1 => 1,
            PipelineSpec::Hf => 2,
            PipelineSpec::HfRre1 => 3,
            PipelineSpec::HfTuplq1Rre1 => 4,
            PipelineSpec::HfTupld2Rre2Tuplq1Rre1 => 5,
            PipelineSpec::HfAns => 6,
            PipelineSpec::HfBitcomp => 7,
            PipelineSpec::HfLz => 8,
            PipelineSpec::Rre1 => 9,
            PipelineSpec::Rre1Rre2 => 10,
            PipelineSpec::Rre1Rze1Diffms1Clog1 => 11,
            PipelineSpec::Ans => 12,
            PipelineSpec::Bitcomp => 13,
            PipelineSpec::Lz4 => 14,
            PipelineSpec::Gdeflate => 15,
            PipelineSpec::Zstd => 16,
            PipelineSpec::Ndzip => 17,
        }
    }

    /// Inverse of [`PipelineSpec::id`].
    pub fn from_id(id: u8) -> Option<PipelineSpec> {
        PipelineSpec::all().into_iter().find(|p| p.id() == id)
    }

    /// Every named pipeline, in [`PipelineSpec::id`] order.
    pub fn all() -> Vec<PipelineSpec> {
        vec![
            PipelineSpec::HfRre4Tcms8Rze1,
            PipelineSpec::Tcms1Bit1Rre1,
            PipelineSpec::Hf,
            PipelineSpec::HfRre1,
            PipelineSpec::HfTuplq1Rre1,
            PipelineSpec::HfTupld2Rre2Tuplq1Rre1,
            PipelineSpec::HfAns,
            PipelineSpec::HfBitcomp,
            PipelineSpec::HfLz,
            PipelineSpec::Rre1,
            PipelineSpec::Rre1Rre2,
            PipelineSpec::Rre1Rze1Diffms1Clog1,
            PipelineSpec::Ans,
            PipelineSpec::Bitcomp,
            PipelineSpec::Lz4,
            PipelineSpec::Gdeflate,
            PipelineSpec::Zstd,
            PipelineSpec::Ndzip,
        ]
    }

    /// The pipelines swept in the Figure 6 lossless-encoder benchmark.
    pub fn fig6_set() -> Vec<PipelineSpec> {
        Self::all()
    }

    /// Per-invocation pipeline selection: returns the candidate whose
    /// encode of `input` is smallest, with that payload. An empty candidate
    /// set is a typed [`CodecError::InvalidRequest`], never a panic.
    ///
    /// **Ties break toward the earliest candidate**, so putting a preferred
    /// default first makes the choice deterministic. Repeated candidates are
    /// deduplicated (first occurrence wins), so a sloppily assembled
    /// candidate list costs no duplicate work and cannot perturb the
    /// tie-break.
    ///
    /// The trials run on the stage-level engine, [`crate::trial::select`]:
    /// a stage prefix that several candidates share runs once, candidates
    /// without an LZ stage run first, and a candidate whose last stage is
    /// Huffman or rANS stops before that stage when the histogram of its
    /// input proves it cannot win. Every candidate's trial *starts*; not
    /// every one *completes*. The result is the one encoding every
    /// candidate in full would pick.
    ///
    /// This is the trial-encode primitive behind per-chunk mode selection
    /// in the chunked stream containers (reached through
    /// `szhi_tuner::select_pipeline`): each chunk's quantization codes are
    /// offered to a candidate set and the stream records the chosen
    /// pipeline id per chunk, so smooth and noisy regions of one field can
    /// use different lossless pipelines.
    ///
    /// ```
    /// use szhi_codec::{CodecError, PipelineSpec};
    ///
    /// let codes = vec![128u8; 4096];
    /// let (spec, payload) =
    ///     PipelineSpec::try_encode_select(&[PipelineSpec::CR, PipelineSpec::TP], &codes)
    ///         .unwrap();
    /// // The winner's payload decodes back to the input.
    /// assert_eq!(spec.decode_bounded(&payload, codes.len()).unwrap(), codes);
    ///
    /// let err = PipelineSpec::try_encode_select(&[], &[1, 2, 3]).unwrap_err();
    /// assert!(matches!(err, CodecError::InvalidRequest { .. }));
    /// ```
    pub fn try_encode_select(
        candidates: &[PipelineSpec],
        input: &[u8],
    ) -> Result<(PipelineSpec, Vec<u8>), CodecError> {
        let outcome = crate::trial::select(candidates, input)?;
        Ok((outcome.pipeline, outcome.payload))
    }

    /// The ordered stage list of the pipeline — the one description that
    /// [`PipelineSpec::encode`], [`PipelineSpec::decode_bounded`] and the
    /// `szhi-tuner` size estimator all walk, so they cannot disagree.
    pub fn stages(&self) -> &'static [StageSpec] {
        use StageSpec::*;
        match self {
            PipelineSpec::HfRre4Tcms8Rze1 => &[Huffman, Rre4, Tcms8, Rze1],
            PipelineSpec::Tcms1Bit1Rre1 => &[Tcms1, Bit1, Rre1],
            PipelineSpec::Hf => &[Huffman],
            PipelineSpec::HfRre1 => &[Huffman, Rre1],
            PipelineSpec::HfTuplq1Rre1 => &[Huffman, TuplQ1, Rre1],
            PipelineSpec::HfTupld2Rre2Tuplq1Rre1 => &[Huffman, TuplD2, Rre2, TuplQ1, Rre1],
            PipelineSpec::HfAns => &[Huffman, Ans],
            PipelineSpec::HfBitcomp => &[Huffman, Bitcomp],
            PipelineSpec::HfLz => &[Huffman, LzFast],
            PipelineSpec::Rre1 => &[Rre1],
            PipelineSpec::Rre1Rre2 => &[Rre1, Rre2],
            PipelineSpec::Rre1Rze1Diffms1Clog1 => &[Rre1, Rze1, DiffMs1, Clog1],
            PipelineSpec::Ans => &[Ans],
            PipelineSpec::Bitcomp => &[Bitcomp],
            PipelineSpec::Lz4 => &[LzFast],
            PipelineSpec::Gdeflate => &[LzThorough],
            PipelineSpec::Zstd => &[LzThorough, Ans],
            PipelineSpec::Ndzip => &[DiffMs1, Bit1, Rze1],
        }
    }

    /// Applies every stage in order; the first stage reads `input` itself.
    pub fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut data = Cow::Borrowed(input);
        for stage in self.stages() {
            data = Cow::Owned(stage.encode(&data));
        }
        data.into_owned()
    }

    /// Decodes an **untrusted** stream whose final decoded size is known to
    /// be `expected_len`, reversing every stage in reverse order. Every
    /// intermediate stage output is bounded by `2 * expected_len + 4096` —
    /// generous for any stream this pipeline's own encoder can produce
    /// (stages grow their input by at most ~9/8 plus a constant header) —
    /// so a corrupted length field inside a stage fails with a typed error
    /// instead of decoding gigabytes.
    pub fn decode_bounded(&self, input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
        let max_interm = expected_len.saturating_mul(2).saturating_add(4096);
        let mut data = Cow::Borrowed(input);
        for stage in self.stages().iter().rev() {
            data = Cow::Owned(stage.decode_limited(&data, max_interm)?);
        }
        Ok(data.into_owned())
    }

    /// The identity: a `PipelineSpec` runs itself. Kept for the benchmark
    /// harness, which still calls it.
    pub fn build(&self) -> PipelineSpec {
        *self
    }
}

impl std::fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Quantization-code-like test data: values clustered tightly around 128
    /// with occasional excursions — the input every pipeline is designed for.
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
    fn every_named_pipeline_roundtrips() {
        let data = quant_like(40_000, 73);
        for spec in PipelineSpec::all() {
            let enc = spec.encode(&data);
            let dec = spec
                .decode_bounded(&enc, data.len())
                .unwrap_or_else(|e| panic!("{spec} failed to decode: {e}"));
            assert_eq!(dec, data, "{spec} round-trip mismatch");
        }
    }

    #[test]
    fn every_named_pipeline_roundtrips_tiny_inputs() {
        for spec in PipelineSpec::all() {
            for data in [
                vec![],
                vec![128u8],
                vec![0u8; 7],
                (0..64u8).collect::<Vec<_>>(),
            ] {
                let enc = spec.encode(&data);
                assert_eq!(
                    spec.decode_bounded(&enc, data.len()).unwrap(),
                    data,
                    "{spec} on {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn production_pipelines_compress_quant_codes() {
        let data = quant_like(200_000, 79);
        for spec in [PipelineSpec::CR, PipelineSpec::TP] {
            let enc = spec.encode(&data);
            let ratio = data.len() as f64 / enc.len() as f64;
            assert!(
                ratio > 2.5,
                "{spec} achieved only {ratio:.2}x on quant-code-like data"
            );
        }
    }

    #[test]
    fn cr_mode_beats_tp_mode_on_ratio() {
        let data = quant_like(400_000, 83);
        let cr = PipelineSpec::CR.encode(&data).len();
        let tp = PipelineSpec::TP.encode(&data).len();
        assert!(
            cr < tp,
            "CR pipeline ({cr} bytes) must beat TP pipeline ({tp} bytes) on ratio"
        );
    }

    #[test]
    fn ids_are_unique_and_roundtrip() {
        let all = PipelineSpec::all();
        let mut seen = std::collections::HashSet::new();
        for spec in &all {
            assert!(seen.insert(spec.id()), "duplicate id for {spec}");
            assert_eq!(all[spec.id() as usize], *spec, "{spec} is out of id order");
            assert_eq!(PipelineSpec::from_id(spec.id()), Some(*spec));
        }
        assert_eq!(PipelineSpec::from_id(200), None);
    }

    #[test]
    fn encode_select_picks_the_smallest_payload() {
        let data = quant_like(100_000, 91);
        let (spec, payload) =
            PipelineSpec::try_encode_select(&[PipelineSpec::CR, PipelineSpec::TP], &data).unwrap();
        let cr = PipelineSpec::CR.encode(&data).len();
        let tp = PipelineSpec::TP.encode(&data).len();
        assert_eq!(payload.len(), cr.min(tp));
        let expected = if cr <= tp {
            PipelineSpec::CR
        } else {
            PipelineSpec::TP
        };
        assert_eq!(spec, expected);
        assert_eq!(spec.decode_bounded(&payload, data.len()).unwrap(), data);
    }

    #[test]
    fn encode_select_breaks_ties_toward_the_first_candidate() {
        // Two copies of the same spec always tie; the first must win.
        let data = quant_like(5_000, 97);
        let (spec, _) =
            PipelineSpec::try_encode_select(&[PipelineSpec::TP, PipelineSpec::TP], &data).unwrap();
        assert_eq!(spec, PipelineSpec::TP);
        let (spec, payload) = PipelineSpec::try_encode_select(&[PipelineSpec::Hf], &data).unwrap();
        assert_eq!(spec, PipelineSpec::Hf);
        assert_eq!(spec.decode_bounded(&payload, data.len()).unwrap(), data);
    }

    #[test]
    fn try_encode_select_rejects_an_empty_candidate_set_without_panicking() {
        // Regression: the panicking `encode_select` used to be the only
        // entry point and aborted on an empty slice. Selection must surface
        // the misconfiguration as a typed error so a long-running stream
        // writer can report it instead of dying.
        let result = std::panic::catch_unwind(|| PipelineSpec::try_encode_select(&[], &[1, 2, 3]));
        let inner = result.expect("try_encode_select must not panic");
        assert!(matches!(
            inner,
            Err(CodecError::InvalidRequest { context, .. }) if context == "encode_select"
        ));
        // The non-empty path returns the winner's own encode.
        let data = quant_like(2_000, 11);
        let (spec, payload) =
            PipelineSpec::try_encode_select(&[PipelineSpec::CR, PipelineSpec::TP], &data).unwrap();
        assert!(spec == PipelineSpec::CR || spec == PipelineSpec::TP);
        assert_eq!(payload, spec.encode(&data));
    }

    #[test]
    fn pipeline_decode_rejects_garbage() {
        assert!(PipelineSpec::CR.decode_bounded(&[1, 2, 3], 1024).is_err());
    }

    #[test]
    fn stage_lists_match_the_built_pipelines() {
        // `stages()` is what `encode` and `decode_bounded` walk: running
        // the stages one by one must reproduce the pipeline byte for byte
        // in both directions.
        let data = quant_like(10_000, 41);
        for spec in PipelineSpec::all() {
            let stages = spec.stages();
            let mut manual = data.clone();
            for stage in stages {
                manual = stage.encode(&manual);
            }
            assert_eq!(manual, spec.encode(&data), "{spec} stage-wise encode");
            for stage in stages.iter().rev() {
                manual = stage.decode(&manual).unwrap();
            }
            assert_eq!(manual, data, "{spec} stage-wise decode");
        }
    }

    #[test]
    fn every_stage_roundtrips_and_enforces_its_output_bound() {
        // Every stage value is runnable: none can panic on a width, each
        // round-trips, and each refuses to produce more than its bound.
        let data = quant_like(20_000, 59);
        let mut stages: Vec<StageSpec> = Vec::new();
        for spec in PipelineSpec::all() {
            for &stage in spec.stages() {
                if !stages.contains(&stage) {
                    stages.push(stage);
                }
            }
        }
        assert_eq!(stages.len(), 16, "the catalogue uses every stage");
        for stage in stages {
            let enc = stage.encode(&data);
            assert_eq!(stage.decode(&enc).unwrap(), data, "{}", stage.name());
            assert_eq!(
                stage.build().decode(&enc).unwrap(),
                data,
                "{}",
                stage.name()
            );
            assert!(
                stage.decode_limited(&enc, data.len() - 1).is_err(),
                "{} ignored its output bound",
                stage.name()
            );
        }
    }

    /// Every catalogued pipeline's stage names and encoded bytes, pinned as
    /// `(crc32, length)` over four inputs: `quant_like(40_000, 73)`, the
    /// empty input, a 4 KiB run of 128 and the ragged `quant_like(40_003,
    /// 79)`, whose length is a multiple of no symbol width or block, so
    /// every BIT, TCMS and RRE tail is pinned too. The golden corpus covers only CR
    /// and TP; this table is what proves a refactor moved none of the
    /// other pipelines' bytes. Never regenerate it to make a change pass.
    type Pins = [(u32, usize); 4];
    #[rustfmt::skip]
    const PINNED: [(PipelineSpec, &[&str], Pins); 18] = [
        (PipelineSpec::HfRre4Tcms8Rze1, &["HF", "RRE4", "TCMS8", "RZE1"], [(0xb55c236f, 9272), (0xcad047a9, 55), (0x5d66f706, 59), (0xeab91acf, 9229)]),
        (PipelineSpec::Tcms1Bit1Rre1, &["TCMS1", "BIT1", "RRE1"], [(0x7c8176d7, 15837), (0xe9ec3db1, 40), (0xf3127028, 107), (0x3380055a, 15864)]),
        (PipelineSpec::Hf, &["HF"], [(0x5cb5f1c0, 8341), (0xc971a876, 200), (0x831bb3d7, 712), (0x8fa68de7, 8304)]),
        (PipelineSpec::HfRre1, &["HF", "RRE1"], [(0xa1fe91d3, 8595), (0x75053eb9, 47), (0xa96cb304, 61), (0xbff44a57, 8528)]),
        (PipelineSpec::HfTuplq1Rre1, &["HF", "TUPLQ1", "RRE1"], [(0xa83960b4, 8576), (0x9196d1cf, 48), (0x36277ce4, 65), (0xfb9b730f, 8533)]),
        (PipelineSpec::HfTupld2Rre2Tuplq1Rre1, &["HF", "TUPLD2", "RRE2", "TUPLQ1", "RRE1"], [(0x52797657, 8636), (0x4b91015e, 64), (0xa8fae04f, 75), (0x7a596122, 8582)]),
        (PipelineSpec::HfAns, &["HF", "ANS"], [(0xf4755e2b, 8156), (0x82785a81, 524), (0xf2274809, 526), (0x31bbe4a4, 8106)]),
        (PipelineSpec::HfBitcomp, &["HF", "BITCOMP"], [(0x73cbf679, 8350), (0xe516b5fe, 9), (0x76e35b0e, 543), (0xc4d29f20, 8313)]),
        (PipelineSpec::HfLz, &["HF", "LZ-FAST"], [(0x4d4da434, 8360), (0xeabdc375, 14), (0xbbf5e62b, 26), (0xb9f1e2e0, 8315)]),
        (PipelineSpec::Rre1, &["RRE1"], [(0x72e8d0bf, 25074), (0xe9ec3db1, 40), (0x33a81c85, 107), (0x2b94c6c9, 25012)]),
        (PipelineSpec::Rre1Rre2, &["RRE1", "RRE2"], [(0x421d9e83, 21885), (0xeb1dcf58, 45), (0x3fa75bd6, 72), (0x5c806364, 21608)]),
        (PipelineSpec::Rre1Rze1Diffms1Clog1, &["RRE1", "RZE1", "DIFFMS1", "CLOG1"], [(0x18a191ce, 24844), (0xaab233a7, 45), (0x566119c3, 66), (0x41db1c6b, 25231)]),
        (PipelineSpec::Ans, &["ANS"], [(0x5823d0aa, 8059), (0x7647c33c, 520), (0x8cf726ff, 524), (0xa097886a, 8023)]),
        (PipelineSpec::Bitcomp, &["BITCOMP"], [(0xf46f4bb1, 40010), (0x6522df69, 8), (0x7aebc988, 4105), (0xe8dae256, 40013)]),
        (PipelineSpec::Lz4, &["LZ-FAST"], [(0xe9e1ac0b, 23503), (0x6522df69, 8), (0x2935d8c8, 29), (0xf497c4e9, 23436)]),
        (PipelineSpec::Gdeflate, &["LZ-THOROUGH"], [(0x2f419fe0, 16012), (0x6522df69, 8), (0x2935d8c8, 29), (0x3a11a3e9, 15837)]),
        (PipelineSpec::Zstd, &["LZ-THOROUGH", "ANS"], [(0x7b71de8b, 12643), (0x90880abe, 524), (0x64cbf9f8, 530), (0xe6a38990, 12541)]),
        (PipelineSpec::Ndzip, &["DIFFMS1", "BIT1", "RZE1"], [(0xc2995a47, 15283), (0xe9ec3db1, 40), (0x59056cdd, 120), (0xe9b9fc2d, 15243)]),
    ];

    #[test]
    fn every_catalogued_pipeline_encodes_its_pinned_bytes() {
        let specs: Vec<PipelineSpec> = PINNED.iter().map(|row| row.0).collect();
        assert_eq!(specs, PipelineSpec::all(), "the table covers the catalogue");
        let inputs = [
            quant_like(40_000, 73),
            Vec::new(),
            vec![128u8; 4096],
            quant_like(40_003, 79),
        ];
        for (spec, names, pins) in PINNED {
            let stage_names: Vec<&str> = spec.stages().iter().map(|s| s.name()).collect();
            assert_eq!(stage_names, names, "{spec} stage names");
            for (input, (crc, len)) in inputs.iter().zip(pins) {
                let encoded = spec.encode(input);
                assert_eq!(
                    (crate::checksum::crc32(&encoded), encoded.len()),
                    (crc, len),
                    "{spec} on {} input bytes",
                    input.len()
                );
            }
        }
    }

    /// About 300 KiB that crosses the 64 KiB LZ window several times:
    /// quantization-like blocks, a repeat of the first block 100,000 bytes
    /// back (out of the window), a repeat 60,000 bytes back (in it, one
    /// match far longer than 64 bytes) and a run of one code.
    fn window_crossing_input() -> Vec<u8> {
        let far = quant_like(100_000, 83);
        let near = quant_like(60_000, 89);
        let mut data = far.clone();
        data.extend_from_slice(&far[..70_000]);
        data.extend_from_slice(&near);
        data.extend_from_slice(&near[..40_000]);
        data.extend(std::iter::repeat_n(128u8, 30_000));
        data
    }

    /// The pipelines with an LZ or rANS stage, pinned as `(crc32, length)`
    /// on [`window_crossing_input`], whose matches wrap the match finder's
    /// position ring. Taken from the coder before its kernels were
    /// rewritten; never regenerate it to make a change pass.
    #[rustfmt::skip]
    const PINNED_WINDOW: [(PipelineSpec, (u32, usize)); 6] = [
        (PipelineSpec::Lz4, (0x3073c929, 134736)),
        (PipelineSpec::Gdeflate, (0x0c27eefa, 88679)),
        (PipelineSpec::Zstd, (0x826c78d6, 68932)),
        (PipelineSpec::HfLz, (0x70ccc05d, 55386)),
        (PipelineSpec::Ans, (0x7bda6298, 54733)),
        (PipelineSpec::HfAns, (0xcabbf757, 53071)),
    ];

    #[test]
    fn window_crossing_pipelines_encode_their_pinned_bytes() {
        let input = window_crossing_input();
        assert_eq!(input.len(), 300_000);
        for (spec, pin) in PINNED_WINDOW {
            let encoded = spec.encode(&input);
            assert_eq!(
                (crate::checksum::crc32(&encoded), encoded.len()),
                pin,
                "{spec}"
            );
        }
    }

    #[test]
    fn try_encode_select_dedups_repeated_candidates() {
        // Regression (PR 5): repeated candidates must neither be
        // trial-encoded twice nor perturb the documented first-wins
        // tie-break — a list with duplicates selects exactly what its
        // deduplicated form selects.
        let data = quant_like(20_000, 53);
        let with_dups = [
            PipelineSpec::CR,
            PipelineSpec::TP,
            PipelineSpec::CR,
            PipelineSpec::TP,
            PipelineSpec::CR,
        ];
        let deduped = [PipelineSpec::CR, PipelineSpec::TP];
        let (spec_a, payload_a) = PipelineSpec::try_encode_select(&with_dups, &data).unwrap();
        let (spec_b, payload_b) = PipelineSpec::try_encode_select(&deduped, &data).unwrap();
        assert_eq!(spec_a, spec_b);
        assert_eq!(payload_a, payload_b);
        // A pure-duplicate list ties with itself; the first (only) spec wins.
        let (spec, _) = PipelineSpec::try_encode_select(
            &[PipelineSpec::Hf, PipelineSpec::Hf, PipelineSpec::Hf],
            &data,
        )
        .unwrap();
        assert_eq!(spec, PipelineSpec::Hf);
    }
}
