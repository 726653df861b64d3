//! The chunk reader against a failing reader.
//!
//! The pinned `v2.szhi` (leading table) and `v5.szhi` (trailing table) are
//! read through a reader that fails once `k` bytes have been read, one
//! that is interrupted before every read, and one that returns at most 7
//! bytes per read. A seekable `StreamSource` is drained whole and chunk by
//! chunk, and `ForwardSource` whole. A run ends either in the value bits of
//! in-memory `decompress` (and `decompress_chunk`) or in a typed
//! `SzhiError::Io`; a reader that only interrupts or returns short reads
//! never makes a run fail.

use std::io::{self, Cursor, Read, Seek, SeekFrom};
use szhi::core::{decompress_chunk, SzhiError};
use szhi::prelude::*;
use szhi_cli::golden;

/// How [`Faulty`] misbehaves.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Fails every read once this many bytes have been read.
    FailAfter(usize),
    /// Returns `Interrupted` before every successful read.
    Interrupt,
    /// Returns at most 7 bytes per read.
    Short,
}

/// A reader over in-memory bytes that misbehaves as its [`Fault`] says.
/// Seeks pass through and count no bytes.
struct Faulty<'a> {
    inner: Cursor<&'a [u8]>,
    fault: Fault,
    read: usize,
    interrupted: bool,
}

impl<'a> Faulty<'a> {
    fn new(bytes: &'a [u8], fault: Fault) -> Self {
        Faulty {
            inner: Cursor::new(bytes),
            fault,
            read: 0,
            interrupted: false,
        }
    }
}

impl Read for Faulty<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = match self.fault {
            Fault::FailAfter(k) if self.read >= k && !buf.is_empty() => {
                return Err(io::Error::other("injected read failure"));
            }
            Fault::FailAfter(k) => k - self.read,
            Fault::Interrupt => {
                self.interrupted = !self.interrupted;
                if self.interrupted {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                buf.len()
            }
            Fault::Short => 7,
        };
        let n = buf.len().min(cap);
        let got = self.inner.read(&mut buf[..n])?;
        self.read += got;
        Ok(got)
    }
}

impl Seek for Faulty<'_> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

fn bits(g: &Grid<f32>) -> Vec<u32> {
    g.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A run's outcome must be the expected bits or a typed I/O error.
fn check(what: &str, got: Result<Grid<f32>, SzhiError>, want: &Grid<f32>, may_fail: bool) {
    match got {
        Ok(grid) => assert_eq!(bits(&grid), bits(want), "{what}: decoded bits differ"),
        Err(SzhiError::Io(_)) if may_fail => {}
        Err(e) => panic!("{what}: {e:?}"),
    }
}

/// Drains `bytes` through every reader under `fault`.
fn run(name: &str, bytes: &[u8], fault: Fault, whole: &Grid<f32>, chunks: &[Grid<f32>]) {
    let may_fail = matches!(fault, Fault::FailAfter(_));
    let what = format!("{name} {fault:?}");
    check(
        &format!("{what} StreamSource::read_all"),
        StreamSource::new(Faulty::new(bytes, fault)).and_then(|mut s| s.read_all()),
        whole,
        may_fail,
    );
    match StreamSource::new(Faulty::new(bytes, fault)) {
        Ok(mut source) => {
            for (i, want) in chunks.iter().enumerate() {
                let got = source.read_chunk(i).map(|(_, sub)| sub);
                check(&format!("{what} read_chunk({i})"), got, want, may_fail);
            }
        }
        Err(e) => check(
            &format!("{what} StreamSource::new"),
            Err(e),
            whole,
            may_fail,
        ),
    }
    check(
        &format!("{what} ForwardSource::read_all"),
        ForwardSource::new(Faulty::new(bytes, fault)).and_then(|mut s| s.read_all()),
        whole,
        may_fail,
    );
}

#[test]
fn every_reader_fault_ends_in_the_decode_or_a_typed_error() {
    for name in ["v2.szhi", "v5.szhi"] {
        let bytes = std::fs::read(golden::corpus_dir().join(name)).unwrap();
        let whole = decompress(&bytes).unwrap();
        let chunks: Vec<Grid<f32>> = (0..StreamSource::from_bytes(&bytes).unwrap().chunk_count())
            .map(|i| decompress_chunk(&bytes, i).unwrap().1)
            .collect();

        // The bytes a seekable open reads: the header and the chunk table,
        // and for v5 the trailer. The sweep fails at each of them, at each
        // byte of the stream's tail (where v5 keeps its table and trailer)
        // and at a stride through the chunk bodies.
        let mut counting = Faulty::new(&bytes, Fault::FailAfter(usize::MAX));
        StreamSource::new(&mut counting).unwrap();
        let meta = counting.read;
        assert!(meta < bytes.len() / 4, "{name}: {meta} metadata bytes");
        let ks = (0..=meta)
            .chain((meta..bytes.len() - meta).step_by(101))
            .chain(bytes.len() - meta..=bytes.len());
        for k in ks {
            run(name, &bytes, Fault::FailAfter(k), &whole, &chunks);
        }
        for fault in [Fault::Interrupt, Fault::Short] {
            run(name, &bytes, fault, &whole, &chunks);
        }
    }
}
