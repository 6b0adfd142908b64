//! The frame layer: one message = one length-prefixed, checksummed frame.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! MAGIC "NFVW" | version u16 | msg_type u8 | len u32 | payload[len] | fnv1a u64
//! ```
//!
//! The checksum is FNV-1a 64 over the payload bytes ([`nfv_sim::wire::fnv1a`],
//! the same hash the serving cache keys use). Decoding is fail-loud: a bad
//! magic, another protocol version, unknown type, oversized length prefix,
//! truncated body, or checksum mismatch each yield a distinct [`WireError`]
//! — never a panic, never a partially-decoded message. The length prefix is
//! validated against [`MAX_PAYLOAD`] *before* any allocation, so a hostile
//! peer cannot OOM the process with a 4 GiB claim.
//!
//! Each message type has exactly one payload layout per [`VERSION`]: there
//! are no optional fields and no legacy shapes. A layout change bumps
//! [`VERSION`], and a peer of another version gets [`WireError::BadVersion`]
//! (a shard closes that connection as a protocol error).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use nfv_sim::wire;
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Magic bytes opening every frame ("NFV Wire").
pub const MAGIC: [u8; 4] = *b"NFVW";

/// Current protocol version. Bump on any layout change; peers reject
/// mismatches instead of guessing. Version 2: a method is its `(id,
/// budget)` pair, and the fidelity pair and method-config count are always
/// written.
pub const VERSION: u16 = 2;

/// Default cap on a frame's payload length. Large enough for a registered
/// model plus a few thousand background rows, small enough that a corrupt
/// or hostile length prefix cannot exhaust memory.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Bytes of frame header preceding the payload: magic + version + type + len.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;

/// Message discriminants carried in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Client → shard: explain one instance.
    ExplainRequest = 1,
    /// Shard → client: the answer (or error) for one request id.
    ExplainResponse = 2,
    /// Client → shard: register a model (model JSON + background rows).
    RegisterModel = 3,
    /// Shard → client: registration succeeded, carries the version.
    RegisterOk = 4,
    /// Client → shard: health probe.
    Health = 5,
    /// Shard → client: health snapshot.
    HealthOk = 6,
    /// Client → shard: stop accepting work, finish in-flight requests.
    Drain = 7,
    /// Shard → client: drain complete, carries requests served.
    DrainOk = 8,
    /// Shard → client: registration failed, carries the typed error.
    RegisterErr = 9,
}

impl MsgType {
    /// Parses a wire discriminant.
    pub fn from_u8(v: u8) -> Result<MsgType, WireError> {
        Ok(match v {
            1 => MsgType::ExplainRequest,
            2 => MsgType::ExplainResponse,
            3 => MsgType::RegisterModel,
            4 => MsgType::RegisterOk,
            5 => MsgType::Health,
            6 => MsgType::HealthOk,
            7 => MsgType::Drain,
            8 => MsgType::DrainOk,
            9 => MsgType::RegisterErr,
            other => return Err(WireError::BadType(other)),
        })
    }
}

/// Everything the wire layer can reject. Every variant names the field
/// that failed and the numbers involved — a protocol error must be
/// diagnosable from its message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// OS-level I/O failure (other than a closed peer).
    Io(String),
    /// The peer closed the connection (EOF mid-protocol or reset).
    ConnectionLost(String),
    /// Frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Peer speaks a different protocol version.
    BadVersion(u16),
    /// Unknown message discriminant.
    BadType(u8),
    /// Length prefix exceeds the payload cap (checked before allocating).
    Oversized {
        /// Claimed payload length.
        len: usize,
        /// Configured cap.
        cap: usize,
    },
    /// Fewer bytes than a field needs.
    Truncated(String),
    /// Payload bytes do not hash to the trailing checksum.
    Checksum {
        /// Checksum the frame carried.
        expected: u64,
        /// Checksum of the bytes actually received.
        got: u64,
    },
    /// Payload decoded structurally but a field was invalid.
    Decode(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "i/o error: {m}"),
            WireError::ConnectionLost(m) => write!(f, "connection lost: {m}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:?}, expected {MAGIC:?}"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (supported: {VERSION})")
            }
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
            WireError::Oversized { len, cap } => {
                write!(f, "payload length {len} exceeds cap {cap}")
            }
            WireError::Truncated(m) => write!(f, "truncated frame: {m}"),
            WireError::Checksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#x}, got {got:#x}"
                )
            }
            WireError::Decode(m) => write!(f, "decode error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        match e.kind() {
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe => WireError::ConnectionLost(e.to_string()),
            _ => WireError::Io(e.to_string()),
        }
    }
}

/// Maps the string errors of the shared [`wire`] helpers into [`WireError`].
pub(crate) fn truncated(e: String) -> WireError {
    WireError::Truncated(e)
}

/// Validates a frame header in wire order — magic, version, type, then
/// the length against `cap` — and returns the message type and payload
/// length. The one place header validation lives: [`read_frame`],
/// [`decode_frame`], and the server's incremental stream parser all call
/// it, so the checks cannot drift apart.
pub fn parse_header(header: &[u8; HEADER_LEN], cap: usize) -> Result<(MsgType, usize), WireError> {
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let t = MsgType::from_u8(header[6])?;
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    if len > cap {
        return Err(WireError::Oversized { len, cap });
    }
    Ok((t, len))
}

/// Verifies the trailing checksum of a payload slice against its 8-byte
/// little-endian FNV-1a tail. Shared by every frame reader.
pub fn verify_checksum(payload: &[u8], tail: &[u8]) -> Result<(), WireError> {
    let expected =
        u64::from_le_bytes(tail.try_into().map_err(|_| {
            WireError::Truncated("frame checksum tail shorter than 8 bytes".into())
        })?);
    let got = wire::fnv1a(payload);
    if expected != got {
        return Err(WireError::Checksum { expected, got });
    }
    Ok(())
}

/// Assembles one frame into a byte vector (header, payload, checksum).
pub fn encode_frame(t: MsgType, payload: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len() + 8);
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(t as u8);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf.put_u64_le(wire::fnv1a(payload));
    buf.freeze().as_ref().to_vec()
}

/// Decodes one frame from an in-memory buffer, advancing past it. The
/// in-memory twin of [`read_frame`], shared with the codec proptests.
pub fn decode_frame(data: &mut Bytes, cap: usize) -> Result<(MsgType, Bytes), WireError> {
    wire::ensure(data, HEADER_LEN, "frame header").map_err(truncated)?;
    let mut header = [0u8; HEADER_LEN];
    data.copy_to_slice(&mut header);
    let (t, len) = parse_header(&header, cap)?;
    wire::ensure(data, len + 8, "frame payload + checksum").map_err(truncated)?;
    let payload = data.slice(0..len);
    data.advance(len);
    let mut tail = [0u8; 8];
    data.copy_to_slice(&mut tail);
    verify_checksum(payload.as_ref(), &tail)?;
    Ok((t, payload))
}

/// Writes one frame to a stream (single buffered write + flush).
pub fn write_frame(w: &mut impl Write, t: MsgType, payload: &[u8]) -> Result<(), WireError> {
    let frame = encode_frame(t, payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a stream. The header is read and validated first;
/// the payload buffer is only allocated after the length prefix passes the
/// cap check.
pub fn read_frame(r: &mut impl Read, cap: usize) -> Result<(MsgType, Bytes), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (t, len) = parse_header(&header, cap)?;
    let mut body = vec![0u8; len + 8];
    r.read_exact(&mut body)?;
    let tail: [u8; 8] = body[len..len + 8].try_into().expect("8-byte tail");
    body.truncate(len);
    verify_checksum(&body, &tail)?;
    Ok((t, Bytes::from_vec(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_through_memory_and_io() {
        let payload = b"explain this".to_vec();
        let frame = encode_frame(MsgType::Health, &payload);
        let mut mem = Bytes::from_vec(frame.clone());
        let (t, body) = decode_frame(&mut mem, MAX_PAYLOAD).unwrap();
        assert_eq!(t, MsgType::Health);
        assert_eq!(body.as_ref(), payload.as_slice());
        assert_eq!(mem.remaining(), 0, "decode consumes the whole frame");

        let mut cursor = std::io::Cursor::new(frame);
        let (t2, body2) = read_frame(&mut cursor, MAX_PAYLOAD).unwrap();
        assert_eq!(t2, MsgType::Health);
        assert_eq!(body2.as_ref(), payload.as_slice());
    }

    #[test]
    fn every_header_fault_gets_its_own_error() {
        let good = encode_frame(MsgType::Drain, b"x");

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&mut Bytes::from_vec(bad), MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_frame(&mut Bytes::from_vec(bad), MAX_PAYLOAD),
            Err(WireError::BadVersion(_))
        ));

        let mut bad = good.clone();
        bad[6] = 200;
        assert!(matches!(
            decode_frame(&mut Bytes::from_vec(bad), MAX_PAYLOAD),
            Err(WireError::BadType(200))
        ));

        // Corrupt one payload byte: checksum catches it.
        let mut bad = good.clone();
        bad[HEADER_LEN] ^= 0xff;
        assert!(matches!(
            decode_frame(&mut Bytes::from_vec(bad), MAX_PAYLOAD),
            Err(WireError::Checksum { .. })
        ));

        // Truncation.
        let cut = good[..good.len() - 3].to_vec();
        assert!(matches!(
            decode_frame(&mut Bytes::from_vec(cut), MAX_PAYLOAD),
            Err(WireError::Truncated(_))
        ));
    }

    /// A version-1 peer is refused, not decoded under this layout.
    #[test]
    fn a_version_1_header_is_bad_version() {
        let mut v1 = encode_frame(MsgType::Health, &7u64.to_le_bytes());
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            decode_frame(&mut Bytes::from_vec(v1), MAX_PAYLOAD),
            Err(WireError::BadVersion(1))
        ));
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        // Hand-build a header claiming a 3 GiB payload.
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u8(MsgType::Health as u8);
        buf.put_u32_le(3 << 30);
        let frame = buf.freeze().as_ref().to_vec();
        assert!(matches!(
            decode_frame(&mut Bytes::from_vec(frame.clone()), MAX_PAYLOAD),
            Err(WireError::Oversized { .. })
        ));
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, MAX_PAYLOAD),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn eof_maps_to_connection_lost() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut cursor, MAX_PAYLOAD),
            Err(WireError::ConnectionLost(_))
        ));
    }
}
