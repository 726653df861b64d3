//! LC-framework-style lossless components.
//!
//! The paper builds its lossless pipelines out of fine-grained, composable
//! components taken from the LC framework (Azami et al., ASPLOS'25): symbol
//! *transformers* (TCMS, BIT, DIFFMS, TUPL) that expose redundancy, and
//! *reducers* (RRE, RZE, CLOG) that actually shrink the stream. The numeric
//! suffix of a component name is the width in bytes of the symbols it
//! processes (`RRE4` works on 4-byte symbols, `TCMS1` on single bytes, …).
//!
//! Every component is strictly lossless. Reducers embed a small
//! self-describing header; transformers are length-preserving and headerless.
//!
//! # Word kernels
//!
//! The symbol width is a const generic: `Rre::<4>` is `RRE4`, and a width
//! the component does not support fails to compile. Each kernel views its
//! input as `[u8; W]` words (`as_chunks`), so with `W` known at compile time
//! every loop body is a few word operations and a ragged tail symbol is
//! handled once, after the loop:
//!
//! * TCMS and DIFFMS map whole words;
//! * BIT transposes 8×8 bit tiles with three shift-xor-mask rounds;
//! * RRE and RZE (one shared kernel, `elim`) build each bitmap byte from
//!   eight symbols and append kept symbols with a fixed-width copy, and
//!   decode by rank: symbol `i` is kept symbol number `popcount(bits ≤ i)`;
//! * CLOG sizes each block with one OR-reduction and packs it through the
//!   word-accumulator bit writer.
//!
//! The reducers expand on decode (RRE and RZE up to `64 × W` output bytes per
//! input byte), so each checks its claimed output length against the
//! caller's bound, and every length field against the lengths it implies,
//! before it allocates or decodes anything.
//!
//! The per-symbol `read_symbol`/`write_symbol` forms the kernels replaced are
//! kept under `#[cfg(test)]` as each component's `*_reference`, and the
//! differential tests below pin every kernel to them byte for byte.

pub(crate) mod bitshuf;
pub(crate) mod clog;
pub(crate) mod diffms;
mod elim;
pub(crate) mod rre;
pub(crate) mod rze;
pub(crate) mod tcms;
pub(crate) mod tupl;

pub use bitshuf::Bit;
pub(crate) use clog::Clog;
pub(crate) use diffms::DiffMs;
pub use rre::Rre;
pub use rze::Rze;
pub(crate) use tcms::Tcms;
pub(crate) use tupl::{TuplD, TuplQ};

/// Splits a byte stream into `n_sym` symbols of `width` bytes, zero-padding
/// the final symbol if the input length is not a multiple of the width.
pub(crate) fn symbol_count(len: usize, width: usize) -> usize {
    len.div_ceil(width)
}

/// Whether `W` is a symbol width the transforms and RRE/RZE support.
pub(crate) const fn is_word_width(w: usize) -> bool {
    matches!(w, 1 | 2 | 4 | 8)
}

/// The low `8 × W` bits set: the value range of a `W`-byte symbol.
#[inline(always)]
pub(crate) const fn word_mask<const W: usize>() -> u64 {
    u64::MAX >> (64 - 8 * W)
}

/// The little-endian value of `bytes` (at most eight), zero-padded: one
/// symbol as a word. Given a `[u8; W]` it compiles to one `W`-byte load.
#[inline(always)]
pub(crate) fn word(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le.iter_mut().zip(bytes).for_each(|(d, &s)| *d = s);
    u64::from_le_bytes(le)
}

/// The low `W` bytes of `v`, little-endian: one word as a symbol.
#[inline(always)]
pub(crate) fn symbol<const W: usize>(v: u64) -> [u8; W] {
    let mut out = [0u8; W];
    out.iter_mut()
        .zip(v.to_le_bytes())
        .for_each(|(d, s)| *d = s);
    out
}

/// Maps every whole `W`-byte symbol of `input` through `f` and passes a
/// ragged tail through untouched — the shape of every length-preserving
/// word transform.
#[inline(always)]
pub(crate) fn map_words<const W: usize>(input: &[u8], mut f: impl FnMut(u64) -> u64) -> Vec<u8> {
    let (words, tail) = input.as_chunks::<W>();
    // szhi-analyzer: allow(steady-alloc, capped-alloc) -- sized by `input`, bytes already in memory, not by a length claim; the output vector is the stage's product, returned as `StageSpec`'s encode or decode output and kept by the selector as the chunk payload; the runtime allocator gate (tests/steady_state_alloc.rs) budgets payload-only allocation on the warm path
    let mut out: Vec<[u8; W]> = Vec::with_capacity(words.len() + 1);
    out.extend(words.iter().map(|w| symbol::<W>(f(word(w)))));
    let mut out = out.into_flattened();
    out.extend_from_slice(tail);
    out
}

/// Reads the symbol at index `i` (little-endian, zero-padded) as a `u64`.
#[cfg(test)]
pub(crate) fn read_symbol(input: &[u8], i: usize, width: usize) -> u64 {
    let start = i * width;
    let end = (start + width).min(input.len());
    let mut v = 0u64;
    for (k, &b) in input.get(start..end).unwrap_or(&[]).iter().enumerate() {
        v |= (b as u64) << (8 * k);
    }
    v
}

/// Appends the low `width` bytes of `v` (little-endian) to `out`, truncating
/// the final symbol to `remaining` bytes when it was zero-padded.
#[cfg(test)]
pub(crate) fn write_symbol(out: &mut Vec<u8>, v: u64, width: usize, remaining: usize) {
    let n = width.min(remaining);
    for k in 0..n {
        out.push((v >> (8 * k)) as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecError;
    use rand::{Rng, SeedableRng};

    #[test]
    fn symbol_count_rounds_up() {
        assert_eq!(symbol_count(0, 4), 0);
        assert_eq!(symbol_count(3, 4), 1);
        assert_eq!(symbol_count(4, 4), 1);
        assert_eq!(symbol_count(5, 4), 2);
    }

    #[test]
    fn read_symbol_pads_with_zero() {
        let data = [0x01u8, 0x02, 0x03];
        assert_eq!(read_symbol(&data, 0, 2), 0x0201);
        assert_eq!(read_symbol(&data, 1, 2), 0x0003);
        assert_eq!(word(&data[2..]), read_symbol(&data, 1, 2));
    }

    #[test]
    fn write_symbol_truncates_tail() {
        let mut out = Vec::new();
        write_symbol(&mut out, 0x0403_0201, 4, 4);
        write_symbol(&mut out, 0x0000_0605, 4, 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(symbol::<4>(0x0403_0201), [1, 2, 3, 4]);
    }

    /// One component as the differential tests see it: the kernel and its
    /// per-symbol reference, each as an encode/decode pair.
    struct Pair {
        name: String,
        encode: fn(&[u8]) -> Vec<u8>,
        decode: fn(&[u8]) -> Result<Vec<u8>, CodecError>,
        encode_reference: fn(&[u8]) -> Vec<u8>,
        decode_reference: fn(&[u8]) -> Result<Vec<u8>, CodecError>,
    }

    /// Every component at every width it supports.
    fn pairs() -> Vec<Pair> {
        let mut pairs = Vec::new();
        word_pairs::<1>(&mut pairs);
        word_pairs::<2>(&mut pairs);
        word_pairs::<4>(&mut pairs);
        word_pairs::<8>(&mut pairs);
        clog_pair::<1>(&mut pairs);
        clog_pair::<2>(&mut pairs);
        clog_pair::<4>(&mut pairs);
        pairs
    }

    fn word_pairs<const W: usize>(pairs: &mut Vec<Pair>) {
        pairs.push(Pair {
            name: format!("TCMS{W}"),
            encode: |d| Tcms::<W>.encode_bytes(d),
            decode: |d| Tcms::<W>.decode_bytes(d),
            encode_reference: |d| tcms::encode_reference(d, W),
            decode_reference: |d| Ok(tcms::decode_reference(d, W)),
        });
        pairs.push(Pair {
            name: format!("BIT{W}"),
            encode: |d| Bit::<W>.encode_bytes(d),
            decode: |d| Bit::<W>.decode_bytes(d),
            encode_reference: |d| bitshuf::encode_reference(d, W),
            decode_reference: |d| bitshuf::decode_reference(d, W),
        });
        pairs.push(Pair {
            name: format!("DIFFMS{W}"),
            encode: |d| DiffMs::<W>.encode_bytes(d),
            decode: |d| DiffMs::<W>.decode_bytes(d),
            encode_reference: |d| diffms::encode_reference(d, W),
            decode_reference: |d| Ok(diffms::decode_reference(d, W)),
        });
        pairs.push(Pair {
            name: format!("RRE{W}"),
            encode: |d| Rre::<W>.encode_bytes(d),
            decode: |d| Rre::<W>.decode_bytes(d, usize::MAX),
            encode_reference: |d| elim::encode_reference(d, W, false),
            decode_reference: |d| elim::decode_reference(d, W, false),
        });
        pairs.push(Pair {
            name: format!("RZE{W}"),
            encode: |d| Rze::<W>.encode_bytes(d),
            decode: |d| Rze::<W>.decode_bytes(d, usize::MAX),
            encode_reference: |d| elim::encode_reference(d, W, true),
            decode_reference: |d| elim::decode_reference(d, W, true),
        });
    }

    fn clog_pair<const W: usize>(pairs: &mut Vec<Pair>) {
        pairs.push(Pair {
            name: format!("CLOG{W}"),
            encode: |d| Clog::<W>.encode_bytes(d),
            decode: |d| Clog::<W>.decode_bytes(d, usize::MAX),
            encode_reference: |d| clog::encode_reference(d, W),
            decode_reference: |d| clog::decode_reference(d, W),
        });
    }

    /// Smooth, quantization-code-like, all-zero and random inputs of `len`
    /// bytes.
    fn inputs(len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let smooth = (0..len)
            .map(|i| (128.0 + 60.0 * (i as f64 / 97.0).sin()) as u8)
            .collect();
        let quant = (0..len)
            .map(|_| {
                if rng.gen::<f64>() < 0.97 {
                    128u8.wrapping_add(rng.gen_range(0..3u8)).wrapping_sub(1)
                } else {
                    rng.gen()
                }
            })
            .collect();
        let random = (0..len).map(|_| rng.gen()).collect();
        vec![smooth, quant, vec![0u8; len], random]
    }

    #[test]
    fn every_kernel_matches_its_reference() {
        for pair in pairs() {
            for len in [0usize, 1, 2, 3, 7, 63, 64, 65, 4097, 40_003] {
                for (kind, data) in inputs(len, len as u64).iter().enumerate() {
                    let what = format!("{} on input {kind} of {len} bytes", pair.name);
                    let encoded = (pair.encode)(data);
                    assert_eq!(encoded, (pair.encode_reference)(data), "{what}: encode");
                    let decoded = (pair.decode)(&encoded).unwrap();
                    assert_eq!(decoded, data.as_slice(), "{what}: decode");
                    assert_eq!(
                        (pair.decode_reference)(&encoded).unwrap(),
                        decoded,
                        "{what}: reference decode"
                    );
                }
            }
        }
    }

    #[test]
    fn every_kernel_rejects_what_its_reference_rejects() {
        // Every truncation and every single-byte flip of a small stream:
        // where the reference fails, the kernel must fail too, and where
        // both succeed they must agree. (The kernel may reject more: the
        // reducers check their length fields against each other up front.)
        for pair in pairs() {
            for data in inputs(150, 5) {
                let encoded = (pair.encode)(&data);
                let mut damaged: Vec<Vec<u8>> =
                    (0..encoded.len()).map(|n| encoded[..n].to_vec()).collect();
                for i in 0..encoded.len() {
                    for flip in [0x01u8, 0x80, 0xff] {
                        let mut bytes = encoded.clone();
                        bytes[i] ^= flip;
                        damaged.push(bytes);
                    }
                }
                for bytes in damaged {
                    match ((pair.decode_reference)(&bytes), (pair.decode)(&bytes)) {
                        (Err(_), Ok(_)) => {
                            panic!("{} accepted a stream its reference rejects", pair.name)
                        }
                        (Ok(want), Ok(got)) => assert_eq!(got, want, "{}", pair.name),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn words_round_trip_through_symbols() {
        let v = 0x0807_0605_0403_0201u64;
        assert_eq!(word(&symbol::<8>(v)), v);
        assert_eq!(word(&symbol::<2>(v)), v & word_mask::<2>());
        assert_eq!(word(&[]), 0);
    }
}
