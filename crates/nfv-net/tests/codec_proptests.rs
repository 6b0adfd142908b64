//! Property tests for the wire codec: round-trips are exact, and *no*
//! mutation of the byte stream — truncation, extension, bit flips,
//! hostile length prefixes — can cause a panic or a silently-wrong decode.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use nfv_net::frame::{
    decode_frame, encode_frame, MsgType, WireError, HEADER_LEN, MAX_PAYLOAD, VERSION,
};
use nfv_net::msg::{Message, WireHealth, WireRegister, WireRequest, WireResponse};
use nfv_serve::prelude::{ExplainMethod, RejectReason, ServeError};
use proptest::prelude::*;

/// Generates an arbitrary message from drawn scalars. Covers every
/// message type; floats include negative, subnormal, and huge values.
fn arbitrary_message(
    kind: u64,
    rid: u64,
    n: usize,
    x: f64,
    flag: bool,
    text_len: usize,
) -> Message {
    let text: String = "wire-αβγ-0123456789"
        .chars()
        .cycle()
        .take(text_len)
        .collect();
    let features: Vec<f64> = (0..n)
        .map(|i| x * (i as f64 + 0.5) * if i % 2 == 0 { 1e-12 } else { -1e9 })
        .collect();
    match kind % 8 {
        0 => Message::Explain(WireRequest {
            rid,
            model_id: text.clone(),
            features,
            method: match kind % 9 {
                0 => ExplainMethod::TreeShap,
                1 => ExplainMethod::KernelShap { n_coalitions: n },
                2 => ExplainMethod::Lime { n_samples: n + 1 },
                3 => ExplainMethod::SamplingShapley {
                    n_permutations: n,
                    antithetic: flag,
                },
                4 => ExplainMethod::ExactShapley,
                5 => ExplainMethod::GroupedShapley,
                6 => ExplainMethod::Permutation,
                7 => ExplainMethod::Interactions,
                _ => ExplainMethod::custom("prop-plugin", rid),
            },
            budget_ns: rid.wrapping_mul(31),
        }),
        1 => Message::ExplainReply(WireResponse {
            rid,
            outcome: Ok(nfv_net::msg::WireAnswer {
                attribution: nfv_xai::prelude::Attribution {
                    names: (0..n).map(|i| format!("f{i}")).collect(),
                    values: features,
                    base_value: x,
                    prediction: -x,
                    method: text.clone(),
                },
                model_version: rid,
                cache_hit: flag,
                batch_size: n as u64,
                queue_wait_ns: rid,
                service_ns: rid / 2,
                coarse_budget: if flag { n as u64 } else { 0 },
                max_abs_err: if flag { x.abs() } else { 0.0 },
            }),
        }),
        2 => Message::ExplainReply(WireResponse {
            rid,
            outcome: Err(match kind % 5 {
                0 => ServeError::Rejected(RejectReason::QueueFull { capacity: n }),
                1 => ServeError::Rejected(RejectReason::UnknownModel {
                    model_id: text.clone(),
                }),
                2 => ServeError::Rejected(RejectReason::ShuttingDown),
                3 => ServeError::Explain(nfv_xai::XaiError::Numeric(text.clone())),
                _ => ServeError::Internal(text.clone()),
            }),
        }),
        3 => Message::Register(WireRegister {
            rid,
            model_id: text.clone(),
            model_json: format!("{{\"k\":{}}}", n),
            feature_names: (0..n.min(8)).map(|i| format!("f{i}")).collect(),
            background_rows: (0..n.min(4)).map(|_| vec![x, -x, x * 0.5]).collect(),
            method_configs: if flag {
                vec![(text.clone(), n as u64)]
            } else {
                Vec::new()
            },
        }),
        4 => Message::RegisterOk { rid, version: rid },
        5 => Message::Health { rid },
        6 => Message::HealthOk(WireHealth {
            rid,
            draining: flag,
            queue_len: n as u64,
            cache_len: rid,
            protocol_errors: 0,
            stats_json: text,
        }),
        _ => Message::DrainOk {
            rid,
            completed: rid,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_generated_message_roundtrips_exactly(
        kind in 0u64..1_000_000,
        rid in 0u64..u64::MAX,
        n in 0usize..24,
        x in -1e12f64..1e12,
        text_len in 0usize..64,
    ) {
        let m = arbitrary_message(kind, rid, n, x, kind % 3 == 0, text_len);
        let payload = m.encode_payload();
        let back = Message::decode_payload(m.msg_type(), Bytes::from_vec(payload.clone()))
            .expect("well-formed payload decodes");
        prop_assert_eq!(&back, &m);

        // Through the full frame layer too.
        let frame = encode_frame(m.msg_type(), &payload);
        let mut buf = Bytes::from_vec(frame);
        let (t, body) = decode_frame(&mut buf, MAX_PAYLOAD).expect("frame decodes");
        prop_assert_eq!(t, m.msg_type());
        prop_assert_eq!(
            Message::decode_payload(t, body).expect("body decodes"),
            m
        );
    }

    #[test]
    fn protocol_v1_method_tags_are_typed_errors(
        tag in 1u8..8,
        n in 1usize..1024,
        antithetic in 0u8..2,
        rid in 0u64..u64::MAX,
    ) {
        // An Explain payload exactly as a protocol-v1 peer built it: a
        // one-byte method discriminant, then its budget fields. Under the
        // one v2 layout it is a typed error, never some other method.
        let mut buf = BytesMut::new();
        buf.put_u64_le(rid);
        nfv_sim::wire::put_str(&mut buf, "m");
        nfv_sim::wire::put_f64s(&mut buf, &[1.0, -2.5]);
        buf.put_u8(tag);
        match tag {
            2 | 3 => buf.put_u64_le(n as u64),
            4 => {
                buf.put_u64_le(n as u64);
                buf.put_u8(antithetic);
            }
            _ => {}
        }
        buf.put_u64_le(77);
        let payload = buf.freeze().as_ref().to_vec();
        prop_assert!(matches!(
            Message::decode_payload(MsgType::ExplainRequest, Bytes::from_vec(payload)),
            Err(WireError::Truncated(_))
        ));
    }

    #[test]
    fn truncation_at_any_point_is_a_clean_error(
        kind in 0u64..1_000_000,
        rid in 0u64..u64::MAX,
        n in 0usize..16,
        cut_frac in 0.0f64..1.0,
    ) {
        let m = arbitrary_message(kind, rid, n, 1.25, true, 12);
        let frame = encode_frame(m.msg_type(), &m.encode_payload());
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < frame.len());
        let mut buf = Bytes::from_vec(frame[..cut].to_vec());
        // Must be an Err — never a panic, never an Ok from partial bytes.
        prop_assert!(decode_frame(&mut buf, MAX_PAYLOAD).is_err());
    }

    #[test]
    fn single_byte_corruption_never_panics_and_never_lies(
        kind in 0u64..1_000_000,
        rid in 0u64..u64::MAX,
        n in 0usize..16,
        pos_frac in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let m = arbitrary_message(kind, rid, n, -3.5, false, 8);
        let clean = encode_frame(m.msg_type(), &m.encode_payload());
        let mut dirty = clean.clone();
        let pos = ((dirty.len() as f64) * pos_frac) as usize % dirty.len();
        dirty[pos] ^= xor;
        let mut buf = Bytes::from_vec(dirty);
        match decode_frame(&mut buf, MAX_PAYLOAD) {
            // Header/checksum corruption: rejected, fine.
            Err(_) => {}
            // The corrupted byte can only decode if it was outside the
            // checksummed/validated region — impossible: every byte is
            // either header (validated) or payload/checksum (hashed).
            // Exception: a flip inside the length field can alias ONLY if
            // the checksum still matches, which FNV makes astronomically
            // unlikely; treat a clean decode of identical content as pass.
            Ok((t, body)) => {
                let back = Message::decode_payload(t, body);
                prop_assert!(
                    back == Message::decode_payload(
                        m.msg_type(),
                        Bytes::from_vec(m.encode_payload())
                    ),
                    "corrupted frame decoded to different content"
                );
            }
        }
    }

    #[test]
    fn trailing_extension_is_rejected(
        kind in 0u64..1_000_000,
        extra in 1usize..16,
    ) {
        let m = arbitrary_message(kind, 7, 3, 2.0, true, 5);
        let mut payload = m.encode_payload();
        payload.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(matches!(
            Message::decode_payload(m.msg_type(), Bytes::from_vec(payload)),
            Err(WireError::Decode(_))
        ));
    }

    #[test]
    fn hostile_length_prefixes_cannot_allocate(
        claimed in (MAX_PAYLOAD as u64 + 1)..u64::from(u32::MAX),
    ) {
        // A header claiming up to 4 GiB of payload with nothing behind it.
        let mut buf = BytesMut::new();
        buf.put_slice(b"NFVW");
        buf.put_u16_le(VERSION);
        buf.put_u8(MsgType::Health as u8);
        buf.put_u32_le(claimed as u32);
        let mut frame = Bytes::from_vec(buf.freeze().as_ref().to_vec());
        prop_assert!(matches!(
            decode_frame(&mut frame, MAX_PAYLOAD),
            Err(WireError::Oversized { .. })
        ));
    }
}

#[test]
fn decode_consumes_exactly_one_frame() {
    // Two frames back-to-back: decoding the first leaves the second intact.
    let a = Message::Health { rid: 1 };
    let b = Message::DrainOk {
        rid: 2,
        completed: 9,
    };
    let mut stream = encode_frame(a.msg_type(), &a.encode_payload());
    stream.extend(encode_frame(b.msg_type(), &b.encode_payload()));
    let mut buf = Bytes::from_vec(stream);
    let (t1, p1) = decode_frame(&mut buf, MAX_PAYLOAD).unwrap();
    assert_eq!(Message::decode_payload(t1, p1).unwrap(), a);
    let (t2, p2) = decode_frame(&mut buf, MAX_PAYLOAD).unwrap();
    assert_eq!(Message::decode_payload(t2, p2).unwrap(), b);
    assert_eq!(buf.remaining(), 0);
}

#[test]
fn header_len_matches_layout() {
    // Magic(4) + version(2) + type(1) + len(4).
    assert_eq!(HEADER_LEN, 11);
    let frame = encode_frame(MsgType::Drain, b"abc");
    assert_eq!(frame.len(), HEADER_LEN + 3 + 8);
}
