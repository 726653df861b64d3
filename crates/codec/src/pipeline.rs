//! Lossless stage composition and the named pipeline catalogue.
//!
//! A [`Stage`] is one lossless bytes→bytes encoder; a [`Pipeline`] is an
//! ordered list of stages applied left to right on encode and right to left
//! on decode. The [`PipelineSpec`] enum names every pipeline the paper uses
//! or benchmarks: the two cuSZ-Hi modes of Figure 7, the LC-style
//! combinations and the third-party codecs of Figure 6.

use crate::components::{Bit, Clog, DiffMs, Rre, Rze, Tcms, TuplD, TuplQ};
use crate::{ans, bitcomp_sim, huffman, lz, CodecError};

/// One lossless encoding stage.
pub trait Stage: Send + Sync {
    /// Short name used in benchmark output (e.g. `"RRE4"`).
    fn name(&self) -> &'static str;
    /// Encodes `input` into a self-describing byte stream.
    fn encode(&self, input: &[u8]) -> Vec<u8>;
    /// Decodes a stream produced by [`Stage::encode`].
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError>;
    /// Decodes with an output-size bound for untrusted streams. The default
    /// checks the produced length after the fact, which is enough for the
    /// input-bounded component transforms; stages whose decoders trust a
    /// claimed output count (entropy coders, LZ, Bitcomp) override this to
    /// reject the count before doing any work.
    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        let out = self.decode(input)?;
        if out.len() > max_out {
            return Err(CodecError::corrupt(
                self.name(),
                format!("decoded {} bytes, limit {max_out}", out.len()),
            ));
        }
        Ok(out)
    }
}

macro_rules! component_stage {
    ($wrapper:ident, $inner:ty, $name:expr, $ctor:expr) => {
        /// Stage adapter for the corresponding codec component.
        #[derive(Debug, Clone, Copy)]
        pub struct $wrapper($inner);

        impl $wrapper {
            /// Creates the stage.
            pub fn new() -> Self {
                $wrapper($ctor)
            }
        }

        impl Default for $wrapper {
            fn default() -> Self {
                Self::new()
            }
        }

        impl Stage for $wrapper {
            fn name(&self) -> &'static str {
                $name
            }
            fn encode(&self, input: &[u8]) -> Vec<u8> {
                self.0.encode_bytes(input)
            }
            fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
                self.0.decode_bytes(input)
            }
        }
    };
}

component_stage!(Rre1Stage, Rre, "RRE1", Rre::new(1));
component_stage!(Rre2Stage, Rre, "RRE2", Rre::new(2));
component_stage!(Rre4Stage, Rre, "RRE4", Rre::new(4));
component_stage!(Rze1Stage, Rze, "RZE1", Rze::new(1));
component_stage!(Tcms1Stage, Tcms, "TCMS1", Tcms::new(1));
component_stage!(Tcms8Stage, Tcms, "TCMS8", Tcms::new(8));
component_stage!(Bit1Stage, Bit, "BIT1", Bit::new(1));
component_stage!(DiffMs1Stage, DiffMs, "DIFFMS1", DiffMs::new(1));
component_stage!(Clog1Stage, Clog, "CLOG1", Clog::new(1));
component_stage!(TuplQ1Stage, TuplQ, "TUPLQ1", TuplQ::new());
component_stage!(TuplD2Stage, TuplD, "TUPLD2", TuplD::new());

/// Canonical Huffman entropy coding stage (`HF` in the paper's figures).
#[derive(Debug, Clone, Copy, Default)]
pub struct HuffmanStage;

impl Stage for HuffmanStage {
    fn name(&self) -> &'static str {
        "HF"
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        huffman::encode(input)
    }
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        huffman::decode(input)
    }
    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        huffman::decode_limited(input, max_out)
    }
}

/// Static rANS entropy coding stage (stand-in for nvCOMP ANS).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnsStage;

impl Stage for AnsStage {
    fn name(&self) -> &'static str {
        "ANS"
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        ans::encode(input)
    }
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        ans::decode(input)
    }
    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        ans::decode_limited(input, max_out)
    }
}

/// Bitcomp-simulator stage (stand-in for NVIDIA Bitcomp).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitcompStage;

impl Stage for BitcompStage {
    fn name(&self) -> &'static str {
        "BITCOMP"
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        bitcomp_sim::compress(input)
    }
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        bitcomp_sim::decompress(input)
    }
    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        bitcomp_sim::decompress_limited(input, max_out)
    }
}

/// Fast LZ stage (stand-in for GPULZ / nvCOMP LZ4).
#[derive(Debug, Clone, Copy, Default)]
pub struct LzFastStage;

impl Stage for LzFastStage {
    fn name(&self) -> &'static str {
        "LZ-FAST"
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        lz::compress(input, lz::Effort::Fast)
    }
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        lz::decompress(input)
    }
    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        lz::decompress_limited(input, max_out)
    }
}

/// Thorough LZ stage (stand-in for nvCOMP GDeflate / Zstd match finding).
#[derive(Debug, Clone, Copy, Default)]
pub struct LzThoroughStage;

impl Stage for LzThoroughStage {
    fn name(&self) -> &'static str {
        "LZ-THOROUGH"
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        lz::compress(input, lz::Effort::Thorough)
    }
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        lz::decompress(input)
    }
    fn decode_limited(&self, input: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
        lz::decompress_limited(input, max_out)
    }
}

/// An ordered composition of lossless stages.
pub struct Pipeline {
    name: String,
    stages: Vec<Box<dyn Stage>>,
}

impl Pipeline {
    /// Builds a pipeline from stages applied left to right on encode.
    pub fn new(name: impl Into<String>, stages: Vec<Box<dyn Stage>>) -> Self {
        Pipeline {
            name: name.into(),
            stages,
        }
    }

    /// The pipeline's display name, e.g. `"HF-RRE4-TCMS8-RZE1"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages (an identity pipeline).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Applies every stage in order.
    pub fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut data = input.to_vec();
        for stage in &self.stages {
            data = stage.encode(&data);
        }
        data
    }

    /// Reverses every stage in reverse order.
    pub fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut data = input.to_vec();
        for stage in self.stages.iter().rev() {
            data = stage.decode(&data)?;
        }
        Ok(data)
    }

    /// Decodes an **untrusted** stream whose final decoded size is known to
    /// be `expected_len`. Every intermediate stage output is bounded by
    /// `2 * expected_len + 4096` — generous for any stream this pipeline's
    /// own encoder can produce (stages grow their input by at most ~9/8
    /// plus a constant header) — so a corrupted length field inside a stage
    /// fails with a typed error instead of decoding gigabytes.
    pub fn decode_bounded(&self, input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
        let max_interm = expected_len.saturating_mul(2).saturating_add(4096);
        let mut data = input.to_vec();
        for stage in self.stages.iter().rev() {
            data = stage.decode_limited(&data, max_interm)?;
        }
        Ok(data)
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pipeline({})", self.name)
    }
}

/// One stage of a named pipeline, as introspectable data.
///
/// [`PipelineSpec::stages`] exposes every named pipeline as a list of
/// `StageSpec`s, and [`PipelineSpec::build`] materialises the runnable
/// [`Pipeline`] from the same list — so a cost model (such as the
/// `szhi-tuner` size estimator) that walks `stages()` can never drift from
/// what the encoder actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageSpec {
    /// Canonical Huffman entropy coding (`HF`).
    Huffman,
    /// Static rANS entropy coding (`ANS`).
    Ans,
    /// The Bitcomp simulator (`BITCOMP`).
    Bitcomp,
    /// Fast LZSS (`LZ-FAST`).
    LzFast,
    /// Thorough LZSS (`LZ-THOROUGH`).
    LzThorough,
    /// Run-of-repeats elimination at the given symbol width (`RRE{w}`).
    Rre(usize),
    /// Run-of-zeros elimination at the given symbol width (`RZE{w}`).
    Rze(usize),
    /// Two's-complement → magnitude-sign transform at the given symbol
    /// width (`TCMS{w}`).
    Tcms(usize),
    /// Bit shuffle at the given symbol width (`BIT{w}`).
    Bit(usize),
    /// Difference + magnitude-sign transform (`DIFFMS{w}`).
    DiffMs(usize),
    /// Conditional-logarithm transform (`CLOG{w}`).
    Clog(usize),
    /// Quad-tuple interleave (`TUPLQ1`).
    TuplQ,
    /// Duo-tuple de-interleave (`TUPLD2`).
    TuplD,
}

impl StageSpec {
    /// Whether this stage is an entropy coder (Huffman or ANS), whose
    /// output size a histogram entropy bound models well and whose output
    /// bytes are near-incompressible for the downstream stages.
    pub fn is_entropy_coder(&self) -> bool {
        matches!(self, StageSpec::Huffman | StageSpec::Ans)
    }

    /// Whether this stage is a pure length-preserving transform (no
    /// headers, no size change): TCMS, BIT, DIFFMS, CLOG, TUPL.
    pub fn is_transform(&self) -> bool {
        matches!(
            self,
            StageSpec::Tcms(_)
                | StageSpec::Bit(_)
                | StageSpec::DiffMs(_)
                | StageSpec::Clog(_)
                | StageSpec::TuplQ
                | StageSpec::TuplD
        )
    }

    /// Materialises the runnable stage.
    ///
    /// # Panics
    ///
    /// Panics on a symbol width no named pipeline uses (the catalogue only
    /// instantiates RRE at widths 1/2/4, RZE/BIT/DIFFMS/CLOG at width 1 and
    /// TCMS at widths 1/8).
    pub fn build(&self) -> Box<dyn Stage> {
        match *self {
            StageSpec::Huffman => Box::new(HuffmanStage),
            StageSpec::Ans => Box::new(AnsStage),
            StageSpec::Bitcomp => Box::new(BitcompStage),
            StageSpec::LzFast => Box::new(LzFastStage),
            StageSpec::LzThorough => Box::new(LzThoroughStage),
            StageSpec::Rre(1) => Box::new(Rre1Stage::new()),
            StageSpec::Rre(2) => Box::new(Rre2Stage::new()),
            StageSpec::Rre(4) => Box::new(Rre4Stage::new()),
            StageSpec::Rze(1) => Box::new(Rze1Stage::new()),
            StageSpec::Tcms(1) => Box::new(Tcms1Stage::new()),
            StageSpec::Tcms(8) => Box::new(Tcms8Stage::new()),
            StageSpec::Bit(1) => Box::new(Bit1Stage::new()),
            StageSpec::DiffMs(1) => Box::new(DiffMs1Stage::new()),
            StageSpec::Clog(1) => Box::new(Clog1Stage::new()),
            StageSpec::TuplQ => Box::new(TuplQ1Stage::new()),
            StageSpec::TuplD => Box::new(TuplD2Stage::new()),
            StageSpec::Rre(w) | StageSpec::Rze(w) | StageSpec::Tcms(w) => {
                panic!("no named pipeline uses this stage at width {w}")
            }
            StageSpec::Bit(w) | StageSpec::DiffMs(w) | StageSpec::Clog(w) => {
                panic!("no named pipeline uses this stage at width {w}")
            }
        }
    }
}

/// Every named lossless pipeline used in the paper.
///
/// The first two variants are the production pipelines of cuSZ-Hi
/// (Figure 7); the remainder are the Figure 6 benchmark entries. Proprietary
/// codecs are represented by open-source stand-ins, each argued in its own
/// module doc ([`crate::ans`], [`crate::bitcomp_sim`], [`crate::lz`]): `ANS` →
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

    /// Every named pipeline.
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

    /// Per-invocation pipeline selection: encodes `input` with every
    /// candidate and returns the winner — the `(spec, payload)` pair with
    /// the smallest payload. Ties break toward the earlier candidate, so
    /// putting a preferred default first makes the choice deterministic.
    ///
    /// This is the primitive behind per-chunk mode selection in the chunked
    /// stream containers: each chunk's quantization codes are offered to a
    /// small candidate set and the stream records the chosen pipeline id per
    /// chunk, so smooth and noisy regions of one field can use different
    /// lossless pipelines.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty. Long-running callers that cannot
    /// afford an abort should use the fallible
    /// [`PipelineSpec::try_encode_select`] instead.
    ///
    /// ```
    /// use szhi_codec::PipelineSpec;
    ///
    /// let codes = vec![128u8; 4096];
    /// let (spec, payload) = PipelineSpec::encode_select(
    ///     &[PipelineSpec::CR, PipelineSpec::TP],
    ///     &codes,
    /// );
    /// // The winner's payload decodes back to the input.
    /// assert_eq!(spec.build().decode(&payload).unwrap(), codes);
    /// ```
    pub fn encode_select(candidates: &[PipelineSpec], input: &[u8]) -> (PipelineSpec, Vec<u8>) {
        Self::try_encode_select(candidates, input)
            .expect("encode_select requires at least one candidate pipeline")
    }

    /// Fallible sibling of [`PipelineSpec::encode_select`]: an empty
    /// candidate set is reported as a typed [`CodecError::InvalidRequest`]
    /// instead of a panic, so a misconfigured per-chunk mode tuner can
    /// never abort a long-running stream.
    ///
    /// The selection contract is identical to `encode_select`: the winner
    /// is the smallest payload, and **ties break toward the earliest
    /// candidate** — putting a preferred default first makes the choice
    /// deterministic. Repeated candidates are deduplicated (first
    /// occurrence wins) before any trial encoding, so a sloppily assembled
    /// candidate list costs no duplicate encode work and cannot perturb
    /// the tie-break.
    ///
    /// ```
    /// use szhi_codec::{CodecError, PipelineSpec};
    ///
    /// let err = PipelineSpec::try_encode_select(&[], &[1, 2, 3]).unwrap_err();
    /// assert!(matches!(err, CodecError::InvalidRequest { .. }));
    /// ```
    pub fn try_encode_select(
        candidates: &[PipelineSpec],
        input: &[u8],
    ) -> Result<(PipelineSpec, Vec<u8>), CodecError> {
        let mut seen: Vec<PipelineSpec> = Vec::with_capacity(candidates.len());
        let mut best: Option<(PipelineSpec, Vec<u8>)> = None;
        for &spec in candidates {
            // Deduplicate before encoding: a repeated candidate can only
            // ever tie with its first occurrence, which already won.
            if seen.contains(&spec) {
                continue;
            }
            seen.push(spec);
            let payload = spec.build().encode(input);
            // Strictly smaller only: on ties the earliest candidate wins.
            if best.as_ref().is_none_or(|(_, b)| payload.len() < b.len()) {
                best = Some((spec, payload));
            }
        }
        best.ok_or_else(|| {
            CodecError::request("encode_select", "empty candidate pipeline set".to_string())
        })
    }

    /// The ordered stage list of the pipeline, as introspectable data.
    ///
    /// This is the single source of truth [`PipelineSpec::build`]
    /// materialises from, so size estimators walking the stage list (the
    /// `szhi-tuner` cost model) can never disagree with the encoder.
    pub fn stages(&self) -> Vec<StageSpec> {
        use StageSpec::*;
        match self {
            PipelineSpec::HfRre4Tcms8Rze1 => vec![Huffman, Rre(4), Tcms(8), Rze(1)],
            PipelineSpec::Tcms1Bit1Rre1 => vec![Tcms(1), Bit(1), Rre(1)],
            PipelineSpec::Hf => vec![Huffman],
            PipelineSpec::HfRre1 => vec![Huffman, Rre(1)],
            PipelineSpec::HfTuplq1Rre1 => vec![Huffman, TuplQ, Rre(1)],
            PipelineSpec::HfTupld2Rre2Tuplq1Rre1 => {
                vec![Huffman, TuplD, Rre(2), TuplQ, Rre(1)]
            }
            PipelineSpec::HfAns => vec![Huffman, Ans],
            PipelineSpec::HfBitcomp => vec![Huffman, Bitcomp],
            PipelineSpec::HfLz => vec![Huffman, LzFast],
            PipelineSpec::Rre1 => vec![Rre(1)],
            PipelineSpec::Rre1Rre2 => vec![Rre(1), Rre(2)],
            PipelineSpec::Rre1Rze1Diffms1Clog1 => vec![Rre(1), Rze(1), DiffMs(1), Clog(1)],
            PipelineSpec::Ans => vec![Ans],
            PipelineSpec::Bitcomp => vec![Bitcomp],
            PipelineSpec::Lz4 => vec![LzFast],
            PipelineSpec::Gdeflate => vec![LzThorough],
            PipelineSpec::Zstd => vec![LzThorough, Ans],
            PipelineSpec::Ndzip => vec![DiffMs(1), Bit(1), Rze(1)],
        }
    }

    /// Materialises the pipeline.
    pub fn build(&self) -> Pipeline {
        Pipeline::new(
            self.name(),
            self.stages().iter().map(StageSpec::build).collect(),
        )
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
            let p = spec.build();
            let enc = p.encode(&data);
            let dec = p
                .decode(&enc)
                .unwrap_or_else(|e| panic!("{spec} failed to decode: {e}"));
            assert_eq!(dec, data, "{spec} round-trip mismatch");
        }
    }

    #[test]
    fn every_named_pipeline_roundtrips_tiny_inputs() {
        for spec in PipelineSpec::all() {
            let p = spec.build();
            for data in [
                vec![],
                vec![128u8],
                vec![0u8; 7],
                (0..64u8).collect::<Vec<_>>(),
            ] {
                let enc = p.encode(&data);
                assert_eq!(
                    p.decode(&enc).unwrap(),
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
            let p = spec.build();
            let enc = p.encode(&data);
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
        let cr = PipelineSpec::CR.build().encode(&data).len();
        let tp = PipelineSpec::TP.build().encode(&data).len();
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
            assert_eq!(PipelineSpec::from_id(spec.id()), Some(*spec));
        }
        assert_eq!(PipelineSpec::from_id(200), None);
    }

    #[test]
    fn encode_select_picks_the_smallest_payload() {
        let data = quant_like(100_000, 91);
        let (spec, payload) =
            PipelineSpec::encode_select(&[PipelineSpec::CR, PipelineSpec::TP], &data);
        let cr = PipelineSpec::CR.build().encode(&data).len();
        let tp = PipelineSpec::TP.build().encode(&data).len();
        assert_eq!(payload.len(), cr.min(tp));
        let expected = if cr <= tp {
            PipelineSpec::CR
        } else {
            PipelineSpec::TP
        };
        assert_eq!(spec, expected);
        assert_eq!(spec.build().decode(&payload).unwrap(), data);
    }

    #[test]
    fn encode_select_breaks_ties_toward_the_first_candidate() {
        // Two copies of the same spec always tie; the first must win.
        let data = quant_like(5_000, 97);
        let (spec, _) = PipelineSpec::encode_select(&[PipelineSpec::TP, PipelineSpec::TP], &data);
        assert_eq!(spec, PipelineSpec::TP);
        let (spec, payload) = PipelineSpec::encode_select(&[PipelineSpec::Hf], &data);
        assert_eq!(spec, PipelineSpec::Hf);
        assert_eq!(spec.build().decode(&payload).unwrap(), data);
    }

    #[test]
    fn try_encode_select_rejects_an_empty_candidate_set_without_panicking() {
        // Regression: `encode_select` used to be the only entry point and
        // aborted on an empty slice. The fallible sibling must surface the
        // misconfiguration as a typed error so a long-running stream writer
        // can report it instead of dying.
        let result = std::panic::catch_unwind(|| PipelineSpec::try_encode_select(&[], &[1, 2, 3]));
        let inner = result.expect("try_encode_select must not panic");
        assert!(matches!(
            inner,
            Err(CodecError::InvalidRequest { context, .. }) if context == "encode_select"
        ));
        // The non-empty path agrees with the panicking wrapper.
        let data = quant_like(2_000, 11);
        let (spec, payload) =
            PipelineSpec::try_encode_select(&[PipelineSpec::CR, PipelineSpec::TP], &data).unwrap();
        let (spec2, payload2) =
            PipelineSpec::encode_select(&[PipelineSpec::CR, PipelineSpec::TP], &data);
        assert_eq!(spec, spec2);
        assert_eq!(payload, payload2);
    }

    #[test]
    fn pipeline_decode_rejects_garbage() {
        let p = PipelineSpec::CR.build();
        assert!(p.decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn stage_lists_match_the_built_pipelines() {
        // `stages()` is the source of truth `build()` materialises from:
        // every named pipeline's stage count and stage names must agree,
        // and encoding through individually built stages must reproduce
        // the pipeline encoder byte for byte.
        let data = quant_like(10_000, 41);
        for spec in PipelineSpec::all() {
            let stages = spec.stages();
            let pipeline = spec.build();
            assert_eq!(pipeline.len(), stages.len(), "{spec}");
            let mut manual = data.clone();
            for stage in &stages {
                manual = stage.build().encode(&manual);
            }
            assert_eq!(manual, pipeline.encode(&data), "{spec} stage-wise encode");
            // Classification sanity: a stage is never both an entropy coder
            // and a pure transform.
            for stage in &stages {
                assert!(!(stage.is_entropy_coder() && stage.is_transform()));
            }
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
