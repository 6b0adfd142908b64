//! Shared binary-codec helpers for length-prefixed wire formats.
//!
//! The trace codec in [`crate::trace`] and the `nfv-net` serving protocol
//! both speak versioned, length-prefixed binary built on `bytes`. This
//! module holds the pieces they share: bounds-checked readers that turn
//! truncation into a clean `Err` (never a panic, never a partial value),
//! length-prefixed string/float-slice codecs, and the FNV-1a checksum used
//! to detect corrupted frames.
//!
//! A read fails with a [`CodecError`]: too few bytes, or bytes that hold
//! no valid value. Callers map it into their own error enums
//! (`SimError::Config`; `WireError::Truncated` / `WireError::Decode`).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Why a bounded read failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Fewer bytes remain than the field needs.
    Short(String),
    /// The bytes are there, but the value is not: over its cap, or a
    /// string that is not UTF-8.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Short(m) | CodecError::Invalid(m) => f.write_str(m),
        }
    }
}

/// FNV-1a 64-bit over raw bytes: the frame checksum. Stable across runs
/// and platforms (unlike `DefaultHasher`), dependency-free, and fast
/// enough to disappear next to a model evaluation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fails with [`CodecError::Short`] unless `n` bytes remain in `buf`.
pub fn ensure(buf: &impl Buf, n: usize, what: &str) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Short(format!(
            "truncated {what}: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Bounds-checked `u8` read.
pub fn get_u8(buf: &mut Bytes, what: &str) -> Result<u8, CodecError> {
    ensure(buf, 1, what)?;
    Ok(Buf::get_u8(buf))
}

/// Bounds-checked little-endian `u16` read.
pub fn get_u16(buf: &mut Bytes, what: &str) -> Result<u16, CodecError> {
    ensure(buf, 2, what)?;
    Ok(buf.get_u16_le())
}

/// Bounds-checked little-endian `u32` read.
pub fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32, CodecError> {
    ensure(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

/// Bounds-checked little-endian `u64` read.
pub fn get_u64(buf: &mut Bytes, what: &str) -> Result<u64, CodecError> {
    ensure(buf, 8, what)?;
    Ok(buf.get_u64_le())
}

/// Bounds-checked `f64` read. The encoding is the IEEE-754 bit pattern in
/// little-endian order, so values — including NaN payloads and signed
/// zeros — round-trip bit-exactly.
pub fn get_f64(buf: &mut Bytes, what: &str) -> Result<f64, CodecError> {
    ensure(buf, 8, what)?;
    Ok(f64::from_bits(buf.get_u64_le()))
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a `u32`-length-prefixed UTF-8 string of at most `max_len` bytes.
/// The length is validated against both the cap and the remaining buffer
/// *before* any allocation, so a hostile prefix cannot trigger OOM.
pub fn get_str(buf: &mut Bytes, max_len: usize, what: &str) -> Result<String, CodecError> {
    let len = get_u32(buf, what)? as usize;
    if len > max_len {
        let over = format!("{what}: string length {len} exceeds cap {max_len}");
        return Err(CodecError::Invalid(over));
    }
    ensure(buf, len, what)?;
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| CodecError::Invalid(format!("{what}: invalid UTF-8")))
}

/// Appends a `u32`-count-prefixed slice of `f64` bit patterns.
pub fn put_f64s(buf: &mut BytesMut, values: &[f64]) {
    buf.put_u32_le(values.len() as u32);
    for &v in values {
        buf.put_u64_le(v.to_bits());
    }
}

/// Reads a `u32`-count-prefixed `f64` vector of at most `max_len` values,
/// validating the count against the remaining bytes before allocating.
pub fn get_f64s(buf: &mut Bytes, max_len: usize, what: &str) -> Result<Vec<f64>, CodecError> {
    let n = get_u32(buf, what)? as usize;
    if n > max_len {
        return Err(CodecError::Invalid(format!(
            "{what}: {n} values exceed cap {max_len}"
        )));
    }
    ensure(buf, n * 8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f64::from_bits(buf.get_u64_le()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b"nfv"), fnv1a(b"nfv"));
        assert_ne!(fnv1a(b"nfv"), fnv1a(b"nfw"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn str_roundtrip_and_caps() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "kernel-shap");
        let mut b = buf.freeze();
        assert_eq!(get_str(&mut b, 64, "tag").unwrap(), "kernel-shap");

        let mut buf = BytesMut::new();
        put_str(&mut buf, "too long for the cap");
        let mut b = buf.freeze();
        assert!(matches!(
            get_str(&mut b, 4, "tag"),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn f64s_roundtrip_bit_exactly() {
        let values = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, -1e-308];
        let mut buf = BytesMut::new();
        put_f64s(&mut buf, &values);
        let mut b = buf.freeze();
        let back = get_f64s(&mut b, 16, "vals").unwrap();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "bit patterns survive, NaN and -0.0 included");
    }

    #[test]
    fn hostile_length_prefixes_error_before_allocating() {
        // A count claiming 2^31 floats with 4 bytes of payload behind it.
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX / 2);
        buf.put_u32_le(7);
        let mut b = buf.freeze();
        assert!(get_f64s(&mut b, 1 << 20, "vals").is_err());

        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        let mut b = buf.freeze();
        assert!(matches!(
            get_str(&mut b, usize::MAX, "s"),
            Err(CodecError::Short(_))
        ));
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut b = Bytes::from_vec(vec![1, 2, 3]);
        assert!(get_u64(&mut b, "x").is_err());
        assert!(get_u32(&mut b, "x").is_err());
        assert_eq!(get_u16(&mut b, "x").unwrap(), 0x0201);
        assert_eq!(get_u8(&mut b, "x").unwrap(), 3);
        assert!(get_u8(&mut b, "x").is_err());
    }
}
