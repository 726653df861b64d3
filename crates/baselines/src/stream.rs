//! Shared stream-header helpers for the baseline compressors.
//!
//! Every baseline writes a small self-describing header (magic, shape,
//! absolute error bound) followed by compressor-specific sections; this
//! module centralises the header so the per-baseline formats stay tiny.

use szhi_codec::bitio::{put_f64, put_u64, put_u8, ByteCursor};
use szhi_core::SzhiError;
use szhi_ndgrid::Dims;

/// Writes the common baseline header.
pub(crate) fn write_header(out: &mut Vec<u8>, magic: &[u8; 4], dims: Dims, abs_eb: f64) {
    out.extend_from_slice(magic);
    put_u8(out, dims.rank() as u8);
    put_u64(out, dims.nz() as u64);
    put_u64(out, dims.ny() as u64);
    put_u64(out, dims.nx() as u64);
    put_f64(out, abs_eb);
}

/// Reads the common baseline header, checking the magic bytes.
pub(crate) fn read_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    name: &str,
) -> Result<(ByteCursor<'a>, Dims, f64), SzhiError> {
    let mut cur = ByteCursor::new(bytes);
    let found = cur
        .take(4)
        .map_err(|_| SzhiError::InvalidStream(format!("{name}: stream too short")))?;
    if found != magic {
        return Err(SzhiError::InvalidStream(format!("{name}: bad magic")));
    }
    let rank = cur.get_u8().map_err(SzhiError::from)? as usize;
    let nz = cur.get_u64().map_err(SzhiError::from)? as usize;
    let ny = cur.get_u64().map_err(SzhiError::from)? as usize;
    let nx = cur.get_u64().map_err(SzhiError::from)? as usize;
    let dims = match rank {
        1 => Dims::d1(nx),
        2 => Dims::d2(ny, nx),
        3 => Dims::d3(nz, ny, nx),
        _ => {
            return Err(SzhiError::InvalidStream(format!(
                "{name}: unsupported rank {rank}"
            )))
        }
    };
    let abs_eb = cur.get_f64().map_err(SzhiError::from)?;
    Ok((cur, dims, abs_eb))
}

/// Serialises a `u16` code array as two byte planes (all low bytes, then all
/// high bytes) so byte-oriented entropy coders see two homogeneous streams.
pub(crate) fn codes_to_byte_planes(codes: &[u16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(codes.len() * 2);
    out.extend(codes.iter().map(|&c| (c & 0xff) as u8));
    out.extend(codes.iter().map(|&c| (c >> 8) as u8));
    out
}

/// Inverse of [`codes_to_byte_planes`].
pub(crate) fn byte_planes_to_codes(bytes: &[u8], n: usize) -> Result<Vec<u16>, SzhiError> {
    if bytes.len() != 2 * n {
        return Err(SzhiError::InvalidStream(format!(
            "expected {} code bytes, got {}",
            2 * n,
            bytes.len()
        )));
    }
    Ok((0..n)
        .map(|i| bytes[i] as u16 | ((bytes[n + i] as u16) << 8))
        .collect())
}

/// Serialises an outlier list `(index, i64 value)` used by the
/// integer-domain predictors.
pub(crate) fn write_int_outliers(out: &mut Vec<u8>, outliers: &[(u64, i64)]) {
    put_u64(out, outliers.len() as u64);
    for &(idx, v) in outliers {
        put_u64(out, idx);
        put_u64(out, v as u64);
    }
}

/// Inverse of [`write_int_outliers`]. The count is checked against the
/// bytes left before anything is allocated, so a corrupt count is a typed
/// error, not an allocation abort.
pub(crate) fn read_int_outliers(cur: &mut ByteCursor<'_>) -> Result<Vec<(u64, i64)>, SzhiError> {
    let n = cur.get_u64().map_err(SzhiError::from)?;
    if n.checked_mul(16)
        .is_none_or(|bytes| bytes > cur.remaining() as u64)
    {
        return Err(SzhiError::InvalidStream(format!(
            "outlier count {n} exceeds the {} bytes left in the stream",
            cur.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let idx = cur.get_u64().map_err(SzhiError::from)?;
        let v = cur.get_u64().map_err(SzhiError::from)? as i64;
        out.push((idx, v));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let mut buf = Vec::new();
        write_header(&mut buf, b"TEST", Dims::d3(4, 5, 6), 2.5e-3);
        let (_, dims, eb) = read_header(&buf, b"TEST", "test").unwrap();
        assert_eq!(dims, Dims::d3(4, 5, 6));
        assert_eq!(eb, 2.5e-3);
        assert!(read_header(&buf, b"XXXX", "test").is_err());
    }

    #[test]
    fn byte_planes_roundtrip() {
        let codes: Vec<u16> = (0..1000u16).map(|i| i.wrapping_mul(257)).collect();
        let planes = codes_to_byte_planes(&codes);
        assert_eq!(byte_planes_to_codes(&planes, codes.len()).unwrap(), codes);
        assert!(byte_planes_to_codes(&planes, codes.len() + 1).is_err());
    }

    #[test]
    fn int_outliers_roundtrip() {
        let outliers = vec![(3u64, -100i64), (77, 1 << 40)];
        let mut buf = Vec::new();
        write_int_outliers(&mut buf, &outliers);
        let mut cur = ByteCursor::new(&buf);
        assert_eq!(read_int_outliers(&mut cur).unwrap(), outliers);
    }
}
