//! Compact binary telemetry traces.
//!
//! A production monitoring pipeline ships window snapshots over the wire;
//! this module defines that wire format for the simulator: a versioned,
//! length-prefixed binary encoding of [`WindowSnapshot`] streams, built on
//! `bytes`. Latency histograms are run-length encoded (they are mostly
//! zeros), so a trace is typically ~10× smaller than its JSON form.

use crate::telemetry::{LatencyHistogram, VnfWindowStats, WindowSnapshot};
use crate::wire;
use crate::SimError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes opening every trace.
const MAGIC: &[u8; 4] = b"NFVT";
/// Current format version.
const VERSION: u16 = 1;

fn put_histogram(buf: &mut BytesMut, h: &LatencyHistogram) {
    let (buckets, count, sum_secs, min_ns, max_ns) = h.raw_parts();
    buf.put_u64_le(count);
    buf.put_f64_le(sum_secs);
    buf.put_u64_le(min_ns);
    buf.put_u64_le(max_ns);
    // Run-length encode: (skip_zeros: u16, value: u64)* terminated by
    // skip = u16::MAX.
    let mut zeros: u32 = 0;
    for &b in buckets {
        if b == 0 {
            zeros += 1;
            continue;
        }
        while zeros > u16::MAX as u32 - 1 {
            // Emit a max-skip run with a zero value to keep skips in u16.
            buf.put_u16_le(u16::MAX - 1);
            buf.put_u64_le(0);
            zeros -= u16::MAX as u32 - 1;
        }
        buf.put_u16_le(zeros as u16);
        buf.put_u64_le(b);
        zeros = 0;
    }
    buf.put_u16_le(u16::MAX);
}

/// Shared truncation check: the [`wire::ensure`] helper with its
/// [`wire::CodecError`] mapped into this codec's [`SimError::Config`].
fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), SimError> {
    wire::ensure(buf, n, what).map_err(|e| SimError::Config(e.to_string()))
}

fn get_histogram(buf: &mut Bytes) -> Result<LatencyHistogram, SimError> {
    let need = |buf: &Bytes, n: usize| need(buf, n, "trace histogram");
    need(buf, 8 + 8 + 8 + 8)?;
    let count = buf.get_u64_le();
    let sum_secs = buf.get_f64_le();
    let min_ns = buf.get_u64_le();
    let max_ns = buf.get_u64_le();
    let mut buckets = vec![0u64; LatencyHistogram::n_buckets()];
    let mut at = 0usize;
    loop {
        need(buf, 2)?;
        let skip = buf.get_u16_le();
        if skip == u16::MAX {
            break;
        }
        need(buf, 8)?;
        let value = buf.get_u64_le();
        at += skip as usize;
        if value != 0 {
            if at >= buckets.len() {
                return Err(SimError::Config("trace histogram overflows buckets".into()));
            }
            buckets[at] = value;
            at += 1;
        }
    }
    LatencyHistogram::from_raw_parts(buckets, count, sum_secs, min_ns, max_ns)
        .map_err(SimError::Config)
}

fn put_snapshot(buf: &mut BytesMut, s: &WindowSnapshot) {
    buf.put_f64_le(s.start_s);
    buf.put_f64_le(s.window_s);
    buf.put_u64_le(s.delivered);
    buf.put_u64_le(s.dropped);
    buf.put_f64_le(s.offered_pps);
    buf.put_f64_le(s.mean_payload_bytes);
    put_histogram(buf, &s.latency);
    buf.put_u16_le(s.per_vnf.len() as u16);
    for v in &s.per_vnf {
        buf.put_u64_le(v.processed);
        buf.put_u64_le(v.dropped);
        buf.put_f64_le(v.busy_secs);
        buf.put_f64_le(v.queue_area);
        buf.put_u32_le(v.queue_max as u32);
        buf.put_f64_le(v.bytes);
    }
    buf.put_u16_le(s.interference.len() as u16);
    for &i in &s.interference {
        buf.put_f64_le(i);
    }
}

fn get_snapshot(buf: &mut Bytes) -> Result<WindowSnapshot, SimError> {
    let need = |buf: &Bytes, n: usize| need(buf, n, "trace snapshot");
    need(buf, 8 * 4 + 16)?;
    let start_s = buf.get_f64_le();
    let window_s = buf.get_f64_le();
    let delivered = buf.get_u64_le();
    let dropped = buf.get_u64_le();
    let offered_pps = buf.get_f64_le();
    let mean_payload_bytes = buf.get_f64_le();
    let latency = get_histogram(buf)?;
    need(buf, 2)?;
    let n_vnf = buf.get_u16_le() as usize;
    let mut per_vnf = Vec::with_capacity(n_vnf);
    for _ in 0..n_vnf {
        need(buf, 8 * 5 + 4)?;
        per_vnf.push(VnfWindowStats {
            processed: buf.get_u64_le(),
            dropped: buf.get_u64_le(),
            busy_secs: buf.get_f64_le(),
            queue_area: buf.get_f64_le(),
            queue_max: buf.get_u32_le() as usize,
            bytes: buf.get_f64_le(),
        });
    }
    need(buf, 2)?;
    let n_int = buf.get_u16_le() as usize;
    let mut interference = Vec::with_capacity(n_int);
    for _ in 0..n_int {
        need(buf, 8)?;
        interference.push(buf.get_f64_le());
    }
    Ok(WindowSnapshot {
        start_s,
        window_s,
        delivered,
        dropped,
        offered_pps,
        mean_payload_bytes,
        latency,
        per_vnf,
        interference,
    })
}

/// Encodes per-chain window streams into one binary trace.
pub fn encode_trace(windows: &[Vec<WindowSnapshot>]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(windows.len() as u32);
    for chain in windows {
        buf.put_u32_le(chain.len() as u32);
        for s in chain {
            put_snapshot(&mut buf, s);
        }
    }
    buf.freeze()
}

/// Decodes a trace produced by [`encode_trace`].
pub fn decode_trace(mut data: Bytes) -> Result<Vec<Vec<WindowSnapshot>>, SimError> {
    if data.remaining() < 10 {
        return Err(SimError::Config("trace too short for header".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SimError::Config(format!(
            "bad trace magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(SimError::Config(format!(
            "unsupported trace version {version} (supported: {VERSION})"
        )));
    }
    let n_chains = data.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n_chains.min(4096));
    for _ in 0..n_chains {
        if data.remaining() < 4 {
            return Err(SimError::Config("truncated trace: chain header".into()));
        }
        let n_windows = data.get_u32_le() as usize;
        let mut chain = Vec::with_capacity(n_windows.min(1 << 20));
        for _ in 0..n_windows {
            chain.push(get_snapshot(&mut data)?);
        }
        out.push(chain);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn sample_windows() -> Vec<Vec<WindowSnapshot>> {
        let sc = Scenario::demo(9);
        sc.run_des(&RunConfig {
            horizon: SimDuration::from_secs_f64(2.0),
            window: SimDuration::from_secs_f64(0.5),
            seed: 9,
            warmup_windows: 0,
        })
        .unwrap()
        .windows
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let windows = sample_windows();
        let encoded = encode_trace(&windows);
        let decoded = decode_trace(encoded).unwrap();
        assert_eq!(decoded, windows);
    }

    #[test]
    fn trace_is_much_smaller_than_json() {
        let windows = sample_windows();
        let binary = encode_trace(&windows).len();
        let json = serde_json::to_string(&windows).unwrap().len();
        assert!(binary * 4 < json, "binary {binary} should be ≪ json {json}");
    }

    #[test]
    fn corrupt_traces_are_rejected_not_panicked() {
        assert!(decode_trace(Bytes::from_static(b"")).is_err());
        assert!(decode_trace(Bytes::from_static(b"XXXX\x01\x00\x00\x00\x00\x00")).is_err());
        // Wrong version.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(99);
        buf.put_u32_le(0);
        assert!(decode_trace(buf.freeze()).is_err());
        // Truncated mid-snapshot: take a valid trace and cut it.
        let windows = sample_windows();
        let full = encode_trace(&windows);
        let cut = full.slice(0..full.len() / 2);
        assert!(decode_trace(cut).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let encoded = encode_trace(&[]);
        let decoded = decode_trace(encoded).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn histogram_with_huge_samples_roundtrips() {
        // Exercise the RLE path with sparse, extreme buckets.
        let mut h = LatencyHistogram::new();
        h.record(SimDuration(1));
        h.record(SimDuration(u64::MAX / 3));
        for _ in 0..1000 {
            h.record(SimDuration(5_000));
        }
        let snap = WindowSnapshot {
            start_s: 0.0,
            window_s: 1.0,
            delivered: 1002,
            dropped: 0,
            offered_pps: 1002.0,
            mean_payload_bytes: 500.0,
            latency: h,
            per_vnf: vec![],
            interference: vec![],
        };
        let decoded = decode_trace(encode_trace(&[vec![snap.clone()]])).unwrap();
        assert_eq!(decoded[0][0], snap);
        assert_eq!(
            decoded[0][0].latency.quantile_secs(0.5),
            snap.latency.quantile_secs(0.5)
        );
    }
}
