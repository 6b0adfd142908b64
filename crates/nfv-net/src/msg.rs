//! Message bodies: what rides inside a frame's payload.
//!
//! Every message carries a request id (`rid`) chosen by the client, echoed
//! verbatim by the shard. Responses may arrive in any order — a shard
//! answers cheap cache hits while an exact-Shapley request is still
//! computing — and the client demultiplexes purely on `rid`.
//!
//! Numbers cross the wire as fixed-width little-endian; every `f64` is its
//! IEEE-754 bit pattern, so feature vectors and attributions round-trip
//! bit-exactly. Models travel as `serde_json` of
//! [`ServeModel`](nfv_serve::prelude::ServeModel) — all
//! weights are finite, and Rust's shortest-round-trip float formatting
//! makes that encoding bit-exact too. Background data travels as raw rows;
//! the shard rebuilds summary statistics with `Background::from_rows`, the
//! same constructor the in-process path uses.

use crate::frame::{MsgType, WireError};
use bytes::{BufMut, Bytes, BytesMut};
use nfv_serve::prelude::{ExplainMethod, Refusal, RejectReason, ServeError};
use nfv_sim::wire;
use nfv_xai::prelude::Attribution;
use nfv_xai::XaiError;

/// Cap for short strings (model ids, method names, error messages).
pub const MAX_STR: usize = 1 << 16;
/// Cap for serialized model JSON.
pub const MAX_MODEL_JSON: usize = 32 << 20;
/// Cap for f64 vector lengths (features, attribution values, background
/// rows): 2^20 values = 8 MiB.
pub const MAX_VEC: usize = 1 << 20;
/// Cap on background row count in one registration.
pub const MAX_ROWS: usize = 1 << 16;

/// One explanation request as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub rid: u64,
    /// Registry id of the model to explain.
    pub model_id: String,
    /// The instance to explain.
    pub features: Vec<f64>,
    /// Which explainer to run.
    pub method: ExplainMethod,
    /// Latency budget, nanoseconds.
    pub budget_ns: u64,
}

/// The successful half of a response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// The attribution, reconstructed field-for-field.
    pub attribution: Attribution,
    /// Version of the model that produced it.
    pub model_version: u64,
    /// Served from the shard's cache.
    pub cache_hit: bool,
    /// Worker batch size.
    pub batch_size: u64,
    /// Queue wait on the shard, nanoseconds.
    pub queue_wait_ns: u64,
    /// Explainer compute time, nanoseconds.
    pub service_ns: u64,
    /// Sampling budget of a coarse (anytime) answer; `0` means the
    /// attribution was computed at the request's full budget.
    pub coarse_budget: u64,
    /// Max-abs dequantization error of a cold-tier hit; `0.0` means the
    /// attribution is bit-exact.
    pub max_abs_err: f64,
}

/// A response: the answer or the engine's error, tagged with the rid.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Echo of the request's correlation id.
    pub rid: u64,
    /// What the shard's engine returned.
    pub outcome: Result<WireAnswer, ServeError>,
}

/// A model registration as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRegister {
    /// Correlation id.
    pub rid: u64,
    /// Registry id to register under.
    pub model_id: String,
    /// `serde_json` of [`nfv_serve::prelude::ServeModel`].
    pub model_json: String,
    /// Feature names, in order.
    pub feature_names: Vec<String>,
    /// Raw background rows; the shard rebuilds the `Background`.
    pub background_rows: Vec<Vec<f64>>,
    /// Per-method serving configuration shipped with the registration:
    /// `(method name, anytime coarsening divisor)` pairs the shard applies
    /// via `ModelRegistry::set_anytime_divisor`.
    pub method_configs: Vec<(String, u64)>,
}

/// Cap on [`WireRegister::method_configs`] entries per frame — far above
/// any real per-model method count, small enough that a hostile length
/// prefix cannot balloon allocation.
pub const MAX_METHOD_CONFIGS: usize = 1024;

/// A shard's health snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHealth {
    /// Correlation id.
    pub rid: u64,
    /// True once a drain has been requested.
    pub draining: bool,
    /// Engine queue depth at snapshot time.
    pub queue_len: u64,
    /// Engine cache entries at snapshot time.
    pub cache_len: u64,
    /// Frames this shard failed to decode (fail-loud counter).
    pub protocol_errors: u64,
    /// `serde_json` of the shard's `ServeStats`.
    pub stats_json: String,
}

/// Every protocol message. The variant set mirrors [`MsgType`] one-to-one.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → shard.
    Explain(WireRequest),
    /// Shard → client. Also the error reply for any failed RPC.
    ExplainReply(WireResponse),
    /// Client → shard.
    Register(WireRegister),
    /// Shard → client.
    RegisterOk {
        /// Correlation id.
        rid: u64,
        /// Registry version assigned to the model.
        version: u64,
    },
    /// Client → shard.
    Health {
        /// Correlation id.
        rid: u64,
    },
    /// Shard → client.
    HealthOk(WireHealth),
    /// Client → shard.
    Drain {
        /// Correlation id.
        rid: u64,
    },
    /// Shard → client.
    DrainOk {
        /// Correlation id.
        rid: u64,
        /// Requests this shard completed over its lifetime.
        completed: u64,
    },
    /// Shard → client: a [`Message::Register`] failed, with the typed
    /// engine error.
    RegisterErr {
        /// Correlation id.
        rid: u64,
        /// Why the registration failed.
        error: ServeError,
    },
}

/// A method crosses as its identity `(method_id, budget_word)` — the pair
/// cache keys, seeds and admission classes hash — and decodes through
/// [`ExplainMethod::from_parts`], so both ends compute the same keys. An id
/// the shard's registry does not know is answered by the engine's typed
/// `UnknownMethod` reject, never a protocol error.
fn put_method(buf: &mut BytesMut, m: ExplainMethod) {
    buf.put_u64_le(m.method_id());
    buf.put_u64_le(m.budget_word());
}

fn get_method(buf: &mut Bytes) -> Result<ExplainMethod, WireError> {
    let id = wire::get_u64(buf, "method id")?;
    let budget = wire::get_u64(buf, "method budget")?;
    Ok(ExplainMethod::from_parts(id, budget))
}

fn put_string(buf: &mut BytesMut, s: &str) {
    wire::put_str(buf, s);
}

fn get_string(buf: &mut Bytes, cap: usize, what: &str) -> Result<String, WireError> {
    Ok(wire::get_str(buf, cap, what)?)
}

fn get_vec_f64(buf: &mut Bytes, what: &str) -> Result<Vec<f64>, WireError> {
    Ok(wire::get_f64s(buf, MAX_VEC, what)?)
}

fn put_serve_error(buf: &mut BytesMut, e: &ServeError) {
    match e {
        ServeError::Rejected(r) => {
            buf.put_u8(1);
            match r {
                RejectReason::QueueFull { capacity } => {
                    buf.put_u8(1);
                    buf.put_u64_le(*capacity as u64);
                }
                RejectReason::DeadlineUnmeetable {
                    estimated_us,
                    budget_us,
                } => {
                    buf.put_u8(2);
                    buf.put_u64_le(*estimated_us);
                    buf.put_u64_le(*budget_us);
                }
                RejectReason::DeadlineExpired {
                    waited_us,
                    budget_us,
                } => {
                    buf.put_u8(3);
                    buf.put_u64_le(*waited_us);
                    buf.put_u64_le(*budget_us);
                }
                RejectReason::UnknownModel { model_id } => {
                    buf.put_u8(4);
                    put_string(buf, model_id);
                }
                RejectReason::InvalidRequest { reason } => {
                    buf.put_u8(5);
                    put_string(buf, reason);
                }
                RejectReason::ShuttingDown => buf.put_u8(6),
                RejectReason::PipelineTooDeep { depth, limit } => {
                    buf.put_u8(7);
                    buf.put_u64_le(*depth);
                    buf.put_u64_le(*limit);
                }
                RejectReason::UnknownMethod { method } => {
                    buf.put_u8(8);
                    put_string(buf, method);
                }
            }
        }
        ServeError::Explain(x) => {
            buf.put_u8(2);
            let (tag, msg) = match x {
                XaiError::Input(m) => (1u8, m),
                XaiError::Budget(m) => (2, m),
                XaiError::Numeric(m) => (3, m),
            };
            buf.put_u8(tag);
            put_string(buf, msg);
        }
        ServeError::Internal(m) => {
            buf.put_u8(3);
            put_string(buf, m);
        }
        ServeError::Refused(r) => {
            buf.put_u8(4);
            match r {
                Refusal::NoShards => buf.put_u8(1),
                Refusal::VersionMismatch {
                    shard,
                    model_id,
                    assigned,
                    expected,
                } => {
                    buf.put_u8(4);
                    buf.put_u32_le(*shard);
                    put_string(buf, model_id);
                    buf.put_u64_le(*assigned);
                    buf.put_u64_le(*expected);
                }
            }
        }
    }
}

fn get_serve_error(buf: &mut Bytes) -> Result<ServeError, WireError> {
    let kind = wire::get_u8(buf, "error kind")?;
    Ok(match kind {
        1 => {
            let tag = wire::get_u8(buf, "reject tag")?;
            let reason = match tag {
                1 => RejectReason::QueueFull {
                    capacity: wire::get_u64(buf, "capacity")? as usize,
                },
                2 => RejectReason::DeadlineUnmeetable {
                    estimated_us: wire::get_u64(buf, "estimated_us")?,
                    budget_us: wire::get_u64(buf, "budget_us")?,
                },
                3 => RejectReason::DeadlineExpired {
                    waited_us: wire::get_u64(buf, "waited_us")?,
                    budget_us: wire::get_u64(buf, "budget_us")?,
                },
                4 => RejectReason::UnknownModel {
                    model_id: get_string(buf, MAX_STR, "model_id")?,
                },
                5 => RejectReason::InvalidRequest {
                    reason: get_string(buf, MAX_STR, "reason")?,
                },
                6 => RejectReason::ShuttingDown,
                7 => RejectReason::PipelineTooDeep {
                    depth: wire::get_u64(buf, "depth")?,
                    limit: wire::get_u64(buf, "limit")?,
                },
                8 => RejectReason::UnknownMethod {
                    method: get_string(buf, MAX_STR, "method")?,
                },
                other => return Err(WireError::Decode(format!("unknown reject tag {other}"))),
            };
            ServeError::Rejected(reason)
        }
        2 => {
            let tag = wire::get_u8(buf, "xai tag")?;
            let msg = get_string(buf, MAX_STR, "xai message")?;
            ServeError::Explain(match tag {
                1 => XaiError::Input(msg),
                2 => XaiError::Budget(msg),
                3 => XaiError::Numeric(msg),
                other => return Err(WireError::Decode(format!("unknown xai tag {other}"))),
            })
        }
        3 => ServeError::Internal(get_string(buf, MAX_STR, "internal message")?),
        4 => {
            let tag = wire::get_u8(buf, "refusal tag")?;
            ServeError::Refused(match tag {
                1 => Refusal::NoShards,
                4 => Refusal::VersionMismatch {
                    shard: wire::get_u32(buf, "shard")?,
                    model_id: get_string(buf, MAX_STR, "model_id")?,
                    assigned: wire::get_u64(buf, "assigned")?,
                    expected: wire::get_u64(buf, "expected")?,
                },
                other => return Err(WireError::Decode(format!("unknown refusal tag {other}"))),
            })
        }
        other => return Err(WireError::Decode(format!("unknown error kind {other}"))),
    })
}

fn put_attribution(buf: &mut BytesMut, a: &Attribution) {
    buf.put_u32_le(a.names.len() as u32);
    for n in a.names.iter() {
        put_string(buf, n);
    }
    wire::put_f64s(buf, &a.values);
    buf.put_u64_le(a.base_value.to_bits());
    buf.put_u64_le(a.prediction.to_bits());
    put_string(buf, &a.method);
}

fn get_attribution(buf: &mut Bytes) -> Result<Attribution, WireError> {
    let n_names = wire::get_u32(buf, "attribution names")? as usize;
    if n_names > MAX_VEC {
        return Err(WireError::Decode(format!(
            "attribution claims {n_names} names, cap {MAX_VEC}"
        )));
    }
    let mut names = Vec::with_capacity(n_names.min(4096));
    for _ in 0..n_names {
        names.push(get_string(buf, MAX_STR, "attribution name")?);
    }
    let values = get_vec_f64(buf, "attribution values")?;
    let base_value = wire::get_f64(buf, "base_value")?;
    let prediction = wire::get_f64(buf, "prediction")?;
    let method = get_string(buf, MAX_STR, "attribution method")?;
    Ok(Attribution {
        names: names.into(),
        values,
        base_value,
        prediction,
        method,
    })
}

impl Message {
    /// The frame discriminant this message travels under.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Message::Explain(_) => MsgType::ExplainRequest,
            Message::ExplainReply(_) => MsgType::ExplainResponse,
            Message::Register(_) => MsgType::RegisterModel,
            Message::RegisterOk { .. } => MsgType::RegisterOk,
            Message::Health { .. } => MsgType::Health,
            Message::HealthOk(_) => MsgType::HealthOk,
            Message::Drain { .. } => MsgType::Drain,
            Message::DrainOk { .. } => MsgType::DrainOk,
            Message::RegisterErr { .. } => MsgType::RegisterErr,
        }
    }

    /// The correlation id — the demultiplexing key on both sides.
    pub fn rid(&self) -> u64 {
        match self {
            Message::Explain(r) => r.rid,
            Message::ExplainReply(r) => r.rid,
            Message::Register(r) => r.rid,
            Message::RegisterOk { rid, .. } => *rid,
            Message::Health { rid } => *rid,
            Message::HealthOk(h) => h.rid,
            Message::Drain { rid } => *rid,
            Message::DrainOk { rid, .. } => *rid,
            Message::RegisterErr { rid, .. } => *rid,
        }
    }

    /// Encodes the payload bytes (frame header and checksum are added by
    /// [`crate::frame::write_frame`]).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            Message::Explain(r) => {
                buf.put_u64_le(r.rid);
                put_string(&mut buf, &r.model_id);
                wire::put_f64s(&mut buf, &r.features);
                put_method(&mut buf, r.method);
                buf.put_u64_le(r.budget_ns);
            }
            Message::ExplainReply(r) => {
                buf.put_u64_le(r.rid);
                match &r.outcome {
                    Ok(a) => {
                        buf.put_u8(1);
                        put_attribution(&mut buf, &a.attribution);
                        buf.put_u64_le(a.model_version);
                        buf.put_u8(a.cache_hit as u8);
                        buf.put_u64_le(a.batch_size);
                        buf.put_u64_le(a.queue_wait_ns);
                        buf.put_u64_le(a.service_ns);
                        buf.put_u64_le(a.coarse_budget);
                        buf.put_u64_le(a.max_abs_err.to_bits());
                    }
                    Err(e) => {
                        buf.put_u8(0);
                        put_serve_error(&mut buf, e);
                    }
                }
            }
            Message::Register(r) => {
                buf.put_u64_le(r.rid);
                put_string(&mut buf, &r.model_id);
                put_string(&mut buf, &r.model_json);
                buf.put_u32_le(r.feature_names.len() as u32);
                for n in &r.feature_names {
                    put_string(&mut buf, n);
                }
                buf.put_u32_le(r.background_rows.len() as u32);
                for row in &r.background_rows {
                    wire::put_f64s(&mut buf, row);
                }
                buf.put_u32_le(r.method_configs.len() as u32);
                for (name, divisor) in &r.method_configs {
                    put_string(&mut buf, name);
                    buf.put_u64_le(*divisor);
                }
            }
            Message::RegisterOk { rid, version } => {
                buf.put_u64_le(*rid);
                buf.put_u64_le(*version);
            }
            Message::Health { rid } => buf.put_u64_le(*rid),
            Message::HealthOk(h) => {
                buf.put_u64_le(h.rid);
                buf.put_u8(h.draining as u8);
                buf.put_u64_le(h.queue_len);
                buf.put_u64_le(h.cache_len);
                buf.put_u64_le(h.protocol_errors);
                put_string(&mut buf, &h.stats_json);
            }
            Message::Drain { rid } => buf.put_u64_le(*rid),
            Message::DrainOk { rid, completed } => {
                buf.put_u64_le(*rid);
                buf.put_u64_le(*completed);
            }
            Message::RegisterErr { rid, error } => {
                buf.put_u64_le(*rid);
                put_serve_error(&mut buf, error);
            }
        }
        buf.into()
    }

    /// Decodes a payload under its frame's [`MsgType`]. Trailing garbage
    /// after a well-formed body is a decode error: a frame is exactly one
    /// message.
    pub fn decode_payload(t: MsgType, mut buf: Bytes) -> Result<Message, WireError> {
        let rid = wire::get_u64(&mut buf, "rid")?;
        let msg = match t {
            MsgType::ExplainRequest => Message::Explain(WireRequest {
                rid,
                model_id: get_string(&mut buf, MAX_STR, "model_id")?,
                features: get_vec_f64(&mut buf, "features")?,
                method: get_method(&mut buf)?,
                budget_ns: wire::get_u64(&mut buf, "budget_ns")?,
            }),
            MsgType::ExplainResponse => {
                let ok = wire::get_u8(&mut buf, "outcome tag")?;
                let outcome = match ok {
                    1 => {
                        let attribution = get_attribution(&mut buf)?;
                        let model_version = wire::get_u64(&mut buf, "model_version")?;
                        let cache_hit = wire::get_u8(&mut buf, "cache_hit")? != 0;
                        let batch_size = wire::get_u64(&mut buf, "batch_size")?;
                        let queue_wait_ns = wire::get_u64(&mut buf, "queue_wait_ns")?;
                        let service_ns = wire::get_u64(&mut buf, "service_ns")?;
                        let coarse_budget = wire::get_u64(&mut buf, "coarse_budget")?;
                        let max_abs_err = wire::get_f64(&mut buf, "max_abs_err")?;
                        Ok(WireAnswer {
                            attribution,
                            model_version,
                            cache_hit,
                            batch_size,
                            queue_wait_ns,
                            service_ns,
                            coarse_budget,
                            max_abs_err,
                        })
                    }
                    0 => Err(get_serve_error(&mut buf)?),
                    other => return Err(WireError::Decode(format!("unknown outcome tag {other}"))),
                };
                Message::ExplainReply(WireResponse { rid, outcome })
            }
            MsgType::RegisterModel => {
                let model_id = get_string(&mut buf, MAX_STR, "model_id")?;
                let model_json = get_string(&mut buf, MAX_MODEL_JSON, "model_json")?;
                let n_names = wire::get_u32(&mut buf, "feature_names")? as usize;
                if n_names > MAX_VEC {
                    return Err(WireError::Decode(format!(
                        "register claims {n_names} feature names, cap {MAX_VEC}"
                    )));
                }
                let mut feature_names = Vec::with_capacity(n_names.min(4096));
                for _ in 0..n_names {
                    feature_names.push(get_string(&mut buf, MAX_STR, "feature name")?);
                }
                let n_rows = wire::get_u32(&mut buf, "background rows")? as usize;
                if n_rows > MAX_ROWS {
                    return Err(WireError::Decode(format!(
                        "register claims {n_rows} background rows, cap {MAX_ROWS}"
                    )));
                }
                let mut background_rows = Vec::with_capacity(n_rows.min(4096));
                for _ in 0..n_rows {
                    background_rows.push(get_vec_f64(&mut buf, "background row")?);
                }
                let n = wire::get_u32(&mut buf, "method configs")? as usize;
                if n > MAX_METHOD_CONFIGS {
                    return Err(WireError::Decode(format!(
                        "register claims {n} method configs, cap {MAX_METHOD_CONFIGS}"
                    )));
                }
                let mut method_configs = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_string(&mut buf, MAX_STR, "method config name")?;
                    let divisor = wire::get_u64(&mut buf, "method config divisor")?;
                    method_configs.push((name, divisor));
                }
                Message::Register(WireRegister {
                    rid,
                    model_id,
                    model_json,
                    feature_names,
                    background_rows,
                    method_configs,
                })
            }
            MsgType::RegisterOk => Message::RegisterOk {
                rid,
                version: wire::get_u64(&mut buf, "version")?,
            },
            MsgType::Health => Message::Health { rid },
            MsgType::HealthOk => Message::HealthOk(WireHealth {
                rid,
                draining: wire::get_u8(&mut buf, "draining")? != 0,
                queue_len: wire::get_u64(&mut buf, "queue_len")?,
                cache_len: wire::get_u64(&mut buf, "cache_len")?,
                protocol_errors: wire::get_u64(&mut buf, "protocol_errors")?,
                stats_json: get_string(&mut buf, MAX_STR, "stats_json")?,
            }),
            MsgType::Drain => Message::Drain { rid },
            MsgType::DrainOk => Message::DrainOk {
                rid,
                completed: wire::get_u64(&mut buf, "completed")?,
            },
            MsgType::RegisterErr => Message::RegisterErr {
                rid,
                error: get_serve_error(&mut buf)?,
            },
        };
        if !buf.is_empty() {
            return Err(WireError::Decode(format!(
                "{} trailing bytes after {:?} body",
                buf.len(),
                t
            )));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: &Message) -> Message {
        let payload = m.encode_payload();
        Message::decode_payload(m.msg_type(), Bytes::from_vec(payload)).unwrap()
    }

    #[test]
    fn every_message_type_roundtrips() {
        let attribution = Attribution {
            names: ["pps".to_string(), "q_len".into()].into(),
            values: vec![0.25, -1.5e-9],
            base_value: 3.125,
            prediction: 1.875,
            method: "kernel-shap".into(),
        };
        let messages = [
            Message::Explain(WireRequest {
                rid: 7,
                model_id: "sla".into(),
                features: vec![1.0, -0.0, f64::MIN_POSITIVE],
                method: ExplainMethod::SamplingShapley {
                    n_permutations: 32,
                    antithetic: true,
                },
                budget_ns: 1_000_000,
            }),
            Message::ExplainReply(WireResponse {
                rid: 6,
                outcome: Ok(WireAnswer {
                    attribution: attribution.clone(),
                    model_version: 3,
                    cache_hit: false,
                    batch_size: 1,
                    queue_wait_ns: 10,
                    service_ns: 20,
                    coarse_budget: 0,
                    max_abs_err: 0.0,
                }),
            }),
            Message::ExplainReply(WireResponse {
                rid: 7,
                outcome: Ok(WireAnswer {
                    attribution,
                    model_version: 3,
                    cache_hit: true,
                    batch_size: 4,
                    queue_wait_ns: 120,
                    service_ns: 4_500,
                    coarse_budget: 16,
                    max_abs_err: 1.25e-4,
                }),
            }),
            Message::ExplainReply(WireResponse {
                rid: 8,
                outcome: Err(ServeError::Rejected(RejectReason::QueueFull {
                    capacity: 256,
                })),
            }),
            Message::Register(WireRegister {
                rid: 1,
                model_id: "sla".into(),
                model_json: "{\"Linear\":{}}".into(),
                feature_names: vec!["a".into(), "b".into()],
                background_rows: vec![vec![0.5, 1.5], vec![-2.0, 0.25]],
                method_configs: vec![("kernel-shap".into(), 4), ("lime".into(), 16)],
            }),
            Message::Register(WireRegister {
                rid: 2,
                model_id: "sla".into(),
                model_json: "{}".into(),
                feature_names: vec!["a".into()],
                background_rows: vec![vec![0.0]],
                method_configs: Vec::new(),
            }),
            Message::RegisterOk { rid: 1, version: 1 },
            Message::Health { rid: 2 },
            Message::HealthOk(WireHealth {
                rid: 2,
                draining: false,
                queue_len: 3,
                cache_len: 9,
                protocol_errors: 0,
                stats_json: "{}".into(),
            }),
            Message::Drain { rid: 3 },
            Message::DrainOk {
                rid: 3,
                completed: 42,
            },
            Message::RegisterErr {
                rid: 4,
                error: ServeError::Internal("model json: EOF".into()),
            },
            Message::RegisterErr {
                rid: 5,
                error: ServeError::Rejected(RejectReason::InvalidRequest {
                    reason: "zero-dimensional background".into(),
                }),
            },
        ];
        for m in &messages {
            assert_eq!(&roundtrip(m), m);
            assert_eq!(roundtrip(m).rid(), m.rid());
        }
    }

    #[test]
    fn every_serve_error_variant_roundtrips() {
        let errors = [
            ServeError::Rejected(RejectReason::QueueFull { capacity: 8 }),
            ServeError::Rejected(RejectReason::DeadlineUnmeetable {
                estimated_us: 900,
                budget_us: 100,
            }),
            ServeError::Rejected(RejectReason::DeadlineExpired {
                waited_us: 150,
                budget_us: 100,
            }),
            ServeError::Rejected(RejectReason::UnknownModel {
                model_id: "ghost".into(),
            }),
            ServeError::Rejected(RejectReason::InvalidRequest {
                reason: "wrong feature count".into(),
            }),
            ServeError::Rejected(RejectReason::ShuttingDown),
            ServeError::Rejected(RejectReason::PipelineTooDeep {
                depth: 65,
                limit: 64,
            }),
            ServeError::Rejected(RejectReason::UnknownMethod {
                method: "online-sage".into(),
            }),
            ServeError::Explain(XaiError::Input("bad".into())),
            ServeError::Explain(XaiError::Budget("zero".into())),
            ServeError::Explain(XaiError::Numeric("singular".into())),
            ServeError::Internal("worker died".into()),
            ServeError::Refused(Refusal::NoShards),
            ServeError::Refused(Refusal::VersionMismatch {
                shard: 2,
                model_id: "sla".into(),
                assigned: 5,
                expected: 4,
            }),
        ];
        for e in errors {
            let m = Message::ExplainReply(WireResponse {
                rid: 9,
                outcome: Err(e.clone()),
            });
            match roundtrip(&m) {
                Message::ExplainReply(WireResponse {
                    outcome: Err(back), ..
                }) => assert_eq!(back, e),
                other => panic!("wrong shape: {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Message::Health { rid: 1 }.encode_payload();
        payload.push(0);
        assert!(matches!(
            Message::decode_payload(MsgType::Health, Bytes::from_vec(payload)),
            Err(WireError::Decode(_))
        ));
    }

    fn decode(t: MsgType, payload: Vec<u8>) -> Result<Message, WireError> {
        Message::decode_payload(t, Bytes::from_vec(payload))
    }

    /// Version-1 payload shapes are typed errors, not guesses: an answer
    /// ending at `service_ns` (no fidelity pair) and a registration ending
    /// at its background rows (no config count) are both truncated.
    #[test]
    fn old_shape_payloads_are_typed_errors() {
        let mut v1_register = BytesMut::new();
        v1_register.put_u64_le(4);
        put_string(&mut v1_register, "sla");
        put_string(&mut v1_register, "{}");
        v1_register.put_u32_le(1);
        put_string(&mut v1_register, "a");
        v1_register.put_u32_le(1);
        wire::put_f64s(&mut v1_register, &[0.0]);
        assert!(matches!(
            decode(
                MsgType::RegisterModel,
                v1_register.freeze().as_ref().to_vec()
            ),
            Err(WireError::Truncated(_))
        ));

        let answer = Message::ExplainReply(WireResponse {
            rid: 9,
            outcome: Ok(WireAnswer {
                attribution: Attribution {
                    names: ["pps".to_string()].into(),
                    values: vec![0.5],
                    base_value: 1.0,
                    prediction: 1.5,
                    method: "tree-shap".into(),
                },
                model_version: 2,
                cache_hit: false,
                batch_size: 1,
                queue_wait_ns: 10,
                service_ns: 20,
                coarse_budget: 8,
                max_abs_err: 3.0e-5,
            }),
        });
        let mut payload = answer.encode_payload();
        payload.truncate(payload.len() - 16);
        assert!(matches!(
            decode(MsgType::ExplainResponse, payload),
            Err(WireError::Truncated(_))
        ));
    }

    #[test]
    fn methods_cross_as_their_identity() {
        for method in [
            // A built-in's id with a budget it does not take keeps the budget.
            ExplainMethod::Custom {
                id: nfv_xai::prelude::method_id("tree-shap"),
                budget: 5,
            },
            ExplainMethod::Interactions,
            ExplainMethod::custom("online-sage", 32),
            // An id no registry knows keeps its id: no name travels.
            ExplainMethod::Custom {
                id: 0xfeed_f00d_dead_beef,
                budget: 2,
            },
        ] {
            let m = Message::Explain(WireRequest {
                rid: 3,
                model_id: "m".into(),
                features: vec![1.0],
                method,
                budget_ns: 5,
            });
            assert_eq!(roundtrip(&m), m);
            let mut buf = BytesMut::new();
            put_method(&mut buf, method);
            assert_eq!(buf.len(), 16, "a method is one (id, budget) pair");
        }
    }

    #[test]
    fn oversized_method_config_counts_are_rejected() {
        let bare = Message::Register(WireRegister {
            rid: 4,
            model_id: "sla".into(),
            model_json: "{}".into(),
            feature_names: vec!["a".into()],
            background_rows: vec![vec![0.0]],
            method_configs: Vec::new(),
        });
        let mut payload = bare.encode_payload();
        // A model id that is not UTF-8 is as invalid: every byte is there.
        let mut not_utf8 = payload.clone();
        not_utf8[8 + 4] = 0xff; // the first byte of "sla", after rid and length
        assert!(matches!(
            decode(MsgType::RegisterModel, not_utf8),
            Err(WireError::Decode(_))
        ));
        // Claim a hostile config count with no entries behind it.
        let count = payload.len() - 4;
        payload[count..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(MsgType::RegisterModel, payload),
            Err(WireError::Decode(_))
        ));
    }

    #[test]
    fn features_cross_bit_exactly() {
        let features = vec![f64::NAN, -0.0, 1.0 + f64::EPSILON, 1e-308];
        let m = Message::Explain(WireRequest {
            rid: 1,
            model_id: "m".into(),
            features: features.clone(),
            method: ExplainMethod::TreeShap,
            budget_ns: 1,
        });
        match roundtrip(&m) {
            Message::Explain(r) => {
                let want: Vec<u64> = features.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = r.features.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }
}
