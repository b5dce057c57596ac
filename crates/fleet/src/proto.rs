//! The fleet's binary message layer on top of [`prionn_store::wire`]
//! frames.
//!
//! Every message travels as one [`Frame`](prionn_store::wire::Frame):
//! a 21-byte header (magic, kind, correlation id, payload length, CRC32)
//! followed by a payload encoded with the store's little-endian wire
//! primitives. The correlation id lets a single TCP connection carry many
//! requests in flight at once (pipelining); responses echo the id of the
//! request they answer and may arrive out of order.
//!
//! | kind | message | payload |
//! |------|---------|---------|
//! | `0x01` | PredictRequest  | priority u8, deadline_ms u32, script count u32, then per script a length-prefixed string |
//! | `0x02` | Predictions     | epoch u64, count u32, then per prediction 3×f64 (runtime minutes, read bytes, write bytes) |
//! | `0x03` | Error           | code u8 (see [`ErrorCode`]; 3 is retired, was preburst — never reuse), length-prefixed message string |
//! | `0x04` | ReviseRequest   | job id u64, elapsed seconds f64, read/write bytes-so-far 2×f64, initial prediction 3×f64, coverage f64 |
//! | `0x05` | Revision        | epoch u64, then per head (runtime minutes, read bytes, write bytes) an interval lo/point/hi 3×f64 |
//! | `0x10` | Ping            | empty |
//! | `0x11` | Pong            | empty |
//! | `0x12` | StatsRequest    | empty |
//! | `0x13` | Stats           | epoch u64, live_replicas u64, queue_depth u64, requests_served u64, draining bool, requests_shed u64, failover_arrivals u64, revisions_served u64 (last three optional — absent from pre-observability shards) |
//! | `0x20` | SwapWeights     | a full checkpoint byte image (self-verifying: magic + per-section CRC) |
//! | `0x21` | SwapAck         | epoch u64 the shard's weight bus assigned |
//! | `0x30` | Drain           | empty |
//! | `0x31` | DrainAck        | empty |
//!
//! Any request kind may additionally carry the [`KIND_TRACE_FLAG`] high
//! bit (`0x80`), marking a [`TraceContext`] extension prefixed to the
//! payload: `version u8, body_len u8, trace_id u64, parent_span_id u64,
//! hop u8`. See [`strip_trace`] for the version-gating rules.

use prionn_core::ResourcePrediction;
use prionn_revise::{PredictionInterval, ProgressObs};
use prionn_serve::{Priority, ServeError};
use prionn_store::wire::{put_bool, put_f64, put_str, put_u32, put_u64, put_u8, Reader};
use prionn_store::{Result as StoreResult, StoreError};

/// Frame kind: predict request.
pub const KIND_PREDICT: u8 = 0x01;
/// Frame kind: predictions response.
pub const KIND_PREDICTIONS: u8 = 0x02;
/// Frame kind: typed error response.
pub const KIND_ERROR: u8 = 0x03;
/// Frame kind: in-flight revision request.
pub const KIND_REVISE: u8 = 0x04;
/// Frame kind: revision response (calibrated intervals).
pub const KIND_REVISION: u8 = 0x05;
/// Frame kind: liveness ping.
pub const KIND_PING: u8 = 0x10;
/// Frame kind: ping response.
pub const KIND_PONG: u8 = 0x11;
/// Frame kind: shard stats request.
pub const KIND_STATS: u8 = 0x12;
/// Frame kind: shard stats response.
pub const KIND_STATS_REPLY: u8 = 0x13;
/// Frame kind: weight hot-swap push (checkpoint bytes).
pub const KIND_SWAP_WEIGHTS: u8 = 0x20;
/// Frame kind: hot-swap acknowledgement carrying the new epoch.
pub const KIND_SWAP_ACK: u8 = 0x21;
/// Frame kind: graceful-drain command.
pub const KIND_DRAIN: u8 = 0x30;
/// Frame kind: drain acknowledgement.
pub const KIND_DRAIN_ACK: u8 = 0x31;

/// High bit of the frame kind: set when the payload begins with a
/// trace-context extension. All base kinds live below `0x80`, so a peer
/// that predates tracing rejects flagged frames as an unknown kind rather
/// than mis-parsing the payload, and unflagged frames are byte-identical
/// to the pre-tracing wire format.
pub const KIND_TRACE_FLAG: u8 = 0x80;

/// Current trace-context extension version.
pub const TRACE_EXT_VERSION: u8 = 1;

/// Distributed trace context carried in front of a flagged payload.
///
/// Wire layout: `version u8, body_len u8`, then `body_len` bytes of body.
/// Version 1's body is `trace_id u64, parent_span_id u64, hop u8` (17
/// bytes). The explicit body length is the version gate: a decoder that
/// sees a *newer* version can still skip the extension and recover the
/// base payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Fleet-wide trace id (namespaced so shards never collide).
    pub trace_id: u64,
    /// Span id of the caller's span; the shard parents its root under it.
    pub parent_span_id: u64,
    /// Ring-walk hop index: 0 for the primary owner, `n > 0` when this
    /// request arrived after `n` failovers — lets the shard count
    /// failover arrivals without a side channel.
    pub hop: u8,
}

const TRACE_EXT_BODY_LEN: usize = 17;

/// Prefix `payload` with an encoded trace-context extension. The caller
/// must also set [`KIND_TRACE_FLAG`] on the frame kind.
pub fn encode_with_trace(ctx: &TraceContext, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + TRACE_EXT_BODY_LEN + payload.len());
    put_u8(&mut buf, TRACE_EXT_VERSION);
    put_u8(&mut buf, TRACE_EXT_BODY_LEN as u8);
    put_u64(&mut buf, ctx.trace_id);
    put_u64(&mut buf, ctx.parent_span_id);
    put_u8(&mut buf, ctx.hop);
    buf.extend_from_slice(payload);
    buf
}

/// Split a received frame into its base kind, optional trace context, and
/// base payload. Unflagged kinds pass through untouched; flagged frames
/// with a future extension version drop the (unintelligible) context but
/// keep the payload.
pub fn strip_trace(kind: u8, payload: &[u8]) -> StoreResult<(u8, Option<TraceContext>, &[u8])> {
    if kind & KIND_TRACE_FLAG == 0 {
        return Ok((kind, None, payload));
    }
    let base = kind & !KIND_TRACE_FLAG;
    if payload.len() < 2 {
        return Err(StoreError::Truncated("trace extension header"));
    }
    let version = payload[0];
    let body_len = payload[1] as usize;
    if payload.len() < 2 + body_len {
        return Err(StoreError::Truncated("trace extension body"));
    }
    let body = &payload[2..2 + body_len];
    let rest = &payload[2 + body_len..];
    if version != TRACE_EXT_VERSION {
        return Ok((base, None, rest));
    }
    if body_len < TRACE_EXT_BODY_LEN {
        return Err(StoreError::Corrupt(format!(
            "trace extension v1 body is {body_len} bytes, need {TRACE_EXT_BODY_LEN}"
        )));
    }
    let mut r = Reader::new(body);
    let ctx = TraceContext {
        trace_id: r.get_u64("trace extension trace id")?,
        parent_span_id: r.get_u64("trace extension parent span id")?,
        hop: r.get_u8("trace extension hop")?,
    };
    Ok((base, Some(ctx), rest))
}

/// Typed error codes a shard can answer with. The numeric values are wire
/// format — append-only, never renumber. Code 3 is retired (was preburst),
/// never reuse: [`ErrorCode::from_u8`] no longer knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The shard's admission queue was full ([`ServeError::Overloaded`]).
    Overloaded = 1,
    /// The request's deadline expired in the shard's queue.
    DeadlineExceeded = 2,
    /// The shard's gateway has stopped (or lost every replica).
    Stopped = 4,
    /// The model failed on this batch.
    Model = 5,
    /// The shard is draining and takes no new work.
    Draining = 6,
    /// The request could not be decoded or used an unknown frame kind.
    BadRequest = 7,
    /// The request frame exceeded the shard's payload cap.
    TooLarge = 8,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            4 => ErrorCode::Stopped,
            5 => ErrorCode::Model,
            6 => ErrorCode::Draining,
            7 => ErrorCode::BadRequest,
            8 => ErrorCode::TooLarge,
            _ => return None,
        })
    }

    /// The code a gateway-level shed maps to on the wire.
    pub fn from_serve_error(e: &ServeError) -> ErrorCode {
        match e {
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::Stopped => ErrorCode::Stopped,
            ServeError::Model(_) | ServeError::Spawn(_) | ServeError::Snapshot(_) => {
                ErrorCode::Model
            }
        }
    }

    /// Stable label for metrics (`fleet_shed_total{reason=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline",
            ErrorCode::Stopped => "stopped",
            ErrorCode::Model => "model",
            ErrorCode::Draining => "draining",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::TooLarge => "too_large",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A shard's live health snapshot, served on [`KIND_STATS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Latest weight epoch published on the shard's bus.
    pub epoch: u64,
    /// Replica worker threads still alive.
    pub live_replicas: u64,
    /// Requests currently queued in the shard's gateway.
    pub queue_depth: u64,
    /// Predict requests this shard server has answered since spawn.
    pub requests_served: u64,
    /// True once the shard has been told to drain.
    pub draining: bool,
    /// Predict requests refused with a typed error (any code) since
    /// spawn. With `requests_served` this yields a per-shard shed ratio
    /// without an ops-endpoint scrape.
    pub requests_shed: u64,
    /// Requests that arrived with a ring-walk hop index > 0 — i.e. after
    /// at least one other shard refused them.
    pub failover_arrivals: u64,
    /// In-flight revision requests answered since spawn.
    pub revisions_served: u64,
}

/// Encode a predict request payload.
pub fn encode_predict(priority: Priority, deadline_ms: u32, scripts: &[String]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + scripts.iter().map(|s| 4 + s.len()).sum::<usize>());
    put_u8(&mut buf, matches!(priority, Priority::Low) as u8);
    put_u32(&mut buf, deadline_ms);
    put_u32(&mut buf, scripts.len() as u32);
    for s in scripts {
        put_str(&mut buf, s);
    }
    buf
}

/// Decode a predict request payload.
pub fn decode_predict(payload: &[u8]) -> StoreResult<(Priority, u32, Vec<String>)> {
    let mut r = Reader::new(payload);
    let priority = match r.get_u8("predict priority")? {
        0 => Priority::Normal,
        1 => Priority::Low,
        v => {
            return Err(StoreError::Corrupt(format!(
                "predict priority byte {v} is not 0/1"
            )))
        }
    };
    let deadline_ms = r.get_u32("predict deadline")?;
    let count = r.get_u32("predict script count")? as usize;
    // A count the payload cannot possibly hold is corruption, not an
    // allocation request: each script costs at least its 4-byte length.
    if count > payload.len() / 4 {
        return Err(StoreError::Corrupt(format!(
            "script count {count} exceeds what {} payload bytes can hold",
            payload.len()
        )));
    }
    let mut scripts = Vec::with_capacity(count);
    for _ in 0..count {
        scripts.push(r.get_str("predict script")?.to_string());
    }
    r.expect_end("predict request")?;
    Ok((priority, deadline_ms, scripts))
}

/// Encode a predictions response payload.
pub fn encode_predictions(epoch: u64, preds: &[ResourcePrediction]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + preds.len() * 24);
    put_u64(&mut buf, epoch);
    put_u32(&mut buf, preds.len() as u32);
    for p in preds {
        put_f64(&mut buf, p.runtime_minutes);
        put_f64(&mut buf, p.read_bytes);
        put_f64(&mut buf, p.write_bytes);
    }
    buf
}

/// Decode a predictions response payload.
pub fn decode_predictions(payload: &[u8]) -> StoreResult<(u64, Vec<ResourcePrediction>)> {
    let mut r = Reader::new(payload);
    let epoch = r.get_u64("predictions epoch")?;
    let count = r.get_u32("predictions count")? as usize;
    if count > payload.len() / 24 {
        return Err(StoreError::Corrupt(format!(
            "prediction count {count} exceeds what {} payload bytes can hold",
            payload.len()
        )));
    }
    let mut preds = Vec::with_capacity(count);
    for _ in 0..count {
        preds.push(ResourcePrediction {
            runtime_minutes: r.get_f64("prediction runtime")?,
            read_bytes: r.get_f64("prediction read bytes")?,
            write_bytes: r.get_f64("prediction write bytes")?,
        });
    }
    r.expect_end("predictions response")?;
    Ok((epoch, preds))
}

/// Encode a typed error payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + message.len());
    put_u8(&mut buf, code as u8);
    put_str(&mut buf, message);
    buf
}

/// Decode a typed error payload.
pub fn decode_error(payload: &[u8]) -> StoreResult<(ErrorCode, String)> {
    let mut r = Reader::new(payload);
    let raw = r.get_u8("error code")?;
    let code = ErrorCode::from_u8(raw)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown error code {raw}")))?;
    let message = r.get_str("error message")?.to_string();
    r.expect_end("error response")?;
    Ok((code, message))
}

/// Encode a shard stats payload.
pub fn encode_stats(s: &ShardStats) -> Vec<u8> {
    let mut buf = Vec::with_capacity(57);
    put_u64(&mut buf, s.epoch);
    put_u64(&mut buf, s.live_replicas);
    put_u64(&mut buf, s.queue_depth);
    put_u64(&mut buf, s.requests_served);
    put_bool(&mut buf, s.draining);
    put_u64(&mut buf, s.requests_shed);
    put_u64(&mut buf, s.failover_arrivals);
    put_u64(&mut buf, s.revisions_served);
    buf
}

/// Decode a shard stats payload. The shed/failover/revision counters were
/// appended after the first release: a 33-byte payload from an old shard
/// still decodes, with those counters reported as zero.
pub fn decode_stats(payload: &[u8]) -> StoreResult<ShardStats> {
    let mut r = Reader::new(payload);
    let mut stats = ShardStats {
        epoch: r.get_u64("stats epoch")?,
        live_replicas: r.get_u64("stats live replicas")?,
        queue_depth: r.get_u64("stats queue depth")?,
        requests_served: r.get_u64("stats requests served")?,
        draining: r.get_bool("stats draining")?,
        requests_shed: 0,
        failover_arrivals: 0,
        revisions_served: 0,
    };
    if r.remaining() > 0 {
        stats.requests_shed = r.get_u64("stats requests shed")?;
        stats.failover_arrivals = r.get_u64("stats failover arrivals")?;
        stats.revisions_served = r.get_u64("stats revisions served")?;
    }
    r.expect_end("stats response")?;
    Ok(stats)
}

/// Encode a swap acknowledgement payload.
pub fn encode_swap_ack(epoch: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8);
    put_u64(&mut buf, epoch);
    buf
}

/// Decode a swap acknowledgement payload.
pub fn decode_swap_ack(payload: &[u8]) -> StoreResult<u64> {
    let mut r = Reader::new(payload);
    let epoch = r.get_u64("swap ack epoch")?;
    r.expect_end("swap ack")?;
    Ok(epoch)
}

/// An in-flight revision request: the submission-time prediction plus one
/// partial-progress observation, served on [`KIND_REVISE`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReviseRequest {
    /// The progress observation (job id, elapsed, IO-so-far).
    pub obs: ProgressObs,
    /// The submission-time prediction being revised.
    pub initial: ResourcePrediction,
    /// Nominal coverage for the conformal intervals, in `(0, 1)`.
    pub coverage: f64,
}

/// A shard's answer to [`KIND_REVISE`]: the revised point predictions
/// wrapped in split-conformal intervals calibrated on that shard's drift
/// window, plus the weight epoch the shard was serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevisionReply {
    /// Weight epoch of the answering shard.
    pub epoch: u64,
    /// Revised runtime, minutes.
    pub runtime_minutes: PredictionInterval,
    /// Revised bytes read.
    pub read_bytes: PredictionInterval,
    /// Revised bytes written.
    pub write_bytes: PredictionInterval,
}

/// Encode a revision request payload.
pub fn encode_revise(req: &ReviseRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u64(&mut buf, req.obs.job_id);
    put_f64(&mut buf, req.obs.elapsed_seconds);
    put_f64(&mut buf, req.obs.read_bytes_so_far);
    put_f64(&mut buf, req.obs.write_bytes_so_far);
    put_f64(&mut buf, req.initial.runtime_minutes);
    put_f64(&mut buf, req.initial.read_bytes);
    put_f64(&mut buf, req.initial.write_bytes);
    put_f64(&mut buf, req.coverage);
    buf
}

/// Decode a revision request payload. Non-finite progress numbers and a
/// coverage outside `(0, 1)` are corruption, not requests.
pub fn decode_revise(payload: &[u8]) -> StoreResult<ReviseRequest> {
    let mut r = Reader::new(payload);
    let req = ReviseRequest {
        obs: ProgressObs {
            job_id: r.get_u64("revise job id")?,
            elapsed_seconds: r.get_f64("revise elapsed seconds")?,
            read_bytes_so_far: r.get_f64("revise read bytes so far")?,
            write_bytes_so_far: r.get_f64("revise write bytes so far")?,
        },
        initial: ResourcePrediction {
            runtime_minutes: r.get_f64("revise initial runtime")?,
            read_bytes: r.get_f64("revise initial read bytes")?,
            write_bytes: r.get_f64("revise initial write bytes")?,
        },
        coverage: r.get_f64("revise coverage")?,
    };
    r.expect_end("revise request")?;
    for (name, v) in [
        ("elapsed seconds", req.obs.elapsed_seconds),
        ("read bytes so far", req.obs.read_bytes_so_far),
        ("write bytes so far", req.obs.write_bytes_so_far),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(StoreError::Corrupt(format!(
                "revise {name} {v} is not a finite non-negative number"
            )));
        }
    }
    if !req.coverage.is_finite() || !(0.0..1.0).contains(&req.coverage) {
        return Err(StoreError::Corrupt(format!(
            "revise coverage {} is outside [0, 1)",
            req.coverage
        )));
    }
    Ok(req)
}

fn put_interval(buf: &mut Vec<u8>, iv: &PredictionInterval) {
    put_f64(buf, iv.lo);
    put_f64(buf, iv.point);
    put_f64(buf, iv.hi);
}

fn get_interval(r: &mut Reader<'_>, head: &str) -> StoreResult<PredictionInterval> {
    let iv = PredictionInterval {
        lo: r.get_f64("revision interval lo")?,
        point: r.get_f64("revision interval point")?,
        hi: r.get_f64("revision interval hi")?,
    };
    if !(iv.lo.is_finite() && iv.point.is_finite() && iv.hi.is_finite()) || iv.lo > iv.hi {
        return Err(StoreError::Corrupt(format!(
            "revision {head} interval [{}, {}] is not a finite ordered pair",
            iv.lo, iv.hi
        )));
    }
    Ok(iv)
}

/// Encode a revision response payload.
pub fn encode_revision(reply: &RevisionReply) -> Vec<u8> {
    let mut buf = Vec::with_capacity(80);
    put_u64(&mut buf, reply.epoch);
    put_interval(&mut buf, &reply.runtime_minutes);
    put_interval(&mut buf, &reply.read_bytes);
    put_interval(&mut buf, &reply.write_bytes);
    buf
}

/// Decode a revision response payload. Intervals must be finite with
/// `lo ≤ hi`; anything else is corruption.
pub fn decode_revision(payload: &[u8]) -> StoreResult<RevisionReply> {
    let mut r = Reader::new(payload);
    let reply = RevisionReply {
        epoch: r.get_u64("revision epoch")?,
        runtime_minutes: get_interval(&mut r, "runtime")?,
        read_bytes: get_interval(&mut r, "read bytes")?,
        write_bytes: get_interval(&mut r, "write bytes")?,
    };
    r.expect_end("revision response")?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_roundtrip() {
        let scripts = vec!["#!/bin/bash\nsrun ./a\n".to_string(), "job 2".to_string()];
        let payload = encode_predict(Priority::Low, 1500, &scripts);
        let (prio, deadline, back) = decode_predict(&payload).unwrap();
        assert_eq!(prio, Priority::Low);
        assert_eq!(deadline, 1500);
        assert_eq!(back, scripts);
    }

    #[test]
    fn predictions_roundtrip() {
        let preds = vec![
            ResourcePrediction {
                runtime_minutes: 12.5,
                read_bytes: 1e9,
                write_bytes: 2e8,
            },
            ResourcePrediction {
                runtime_minutes: 700.0,
                read_bytes: 0.0,
                write_bytes: 0.0,
            },
        ];
        let payload = encode_predictions(42, &preds);
        let (epoch, back) = decode_predictions(&payload).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].runtime_minutes, 12.5);
        assert_eq!(back[1].runtime_minutes, 700.0);
    }

    #[test]
    fn error_and_stats_roundtrip() {
        let payload = encode_error(ErrorCode::Draining, "shard 2 draining");
        let (code, msg) = decode_error(&payload).unwrap();
        assert_eq!(code, ErrorCode::Draining);
        assert_eq!(msg, "shard 2 draining");

        let stats = ShardStats {
            epoch: 7,
            live_replicas: 2,
            queue_depth: 3,
            requests_served: 999,
            draining: true,
            requests_shed: 41,
            failover_arrivals: 6,
            revisions_served: 17,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);
    }

    #[test]
    fn legacy_33_byte_stats_payload_still_decodes() {
        // A pre-observability shard sends only the first five fields; the
        // appended counters must read back as zero, not as Truncated.
        let full = encode_stats(&ShardStats {
            epoch: 7,
            live_replicas: 2,
            queue_depth: 3,
            requests_served: 999,
            draining: false,
            requests_shed: 41,
            failover_arrivals: 6,
            revisions_served: 17,
        });
        let legacy = &full[..33];
        let stats = decode_stats(legacy).unwrap();
        assert_eq!(stats.requests_served, 999);
        assert_eq!(stats.requests_shed, 0);
        assert_eq!(stats.failover_arrivals, 0);
        assert_eq!(stats.revisions_served, 0);
    }

    #[test]
    fn malformed_stats_payloads_are_typed() {
        let full = encode_stats(&ShardStats::default());
        // Cut inside the appended counters: Truncated, not zeros.
        assert!(matches!(
            decode_stats(&full[..40]),
            Err(StoreError::Truncated(_))
        ));
        // Trailing garbage past the full layout is Corrupt.
        let mut padded = full.clone();
        padded.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(decode_stats(&padded), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn trace_context_roundtrip_and_passthrough() {
        let ctx = TraceContext {
            trace_id: (3u64 << 48) | 12,
            parent_span_id: (1u64 << 48) | 99,
            hop: 2,
        };
        let base = encode_predict(Priority::Normal, 250, &["job".to_string()]);
        let framed = encode_with_trace(&ctx, &base);
        let (kind, got, rest) = strip_trace(KIND_PREDICT | KIND_TRACE_FLAG, &framed).unwrap();
        assert_eq!(kind, KIND_PREDICT);
        assert_eq!(got, Some(ctx));
        assert_eq!(rest, &base[..]);
        // Unflagged kinds pass straight through.
        let (kind, got, rest) = strip_trace(KIND_PREDICT, &base).unwrap();
        assert_eq!(kind, KIND_PREDICT);
        assert_eq!(got, None);
        assert_eq!(rest, &base[..]);
    }

    #[test]
    fn future_trace_extension_version_is_skipped_not_fatal() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span_id: 2,
            hop: 0,
        };
        let base = encode_predict(Priority::Normal, 250, &["job".to_string()]);
        let mut framed = encode_with_trace(&ctx, &base);
        framed[0] = TRACE_EXT_VERSION + 1; // a version we cannot parse
        let (kind, got, rest) = strip_trace(KIND_PREDICT | KIND_TRACE_FLAG, &framed).unwrap();
        assert_eq!(kind, KIND_PREDICT);
        assert_eq!(got, None, "unknown version drops the context");
        assert_eq!(rest, &base[..], "but the base payload survives");
    }

    #[test]
    fn malformed_trace_extensions_are_typed() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span_id: 2,
            hop: 1,
        };
        let framed = encode_with_trace(&ctx, b"payload");
        // Cut inside the extension header and body.
        for cut in [0, 1, 5, 18] {
            assert!(
                matches!(
                    strip_trace(KIND_PREDICT | KIND_TRACE_FLAG, &framed[..cut]),
                    Err(StoreError::Truncated(_))
                ),
                "cut at {cut} should be Truncated"
            );
        }
        // A v1 extension claiming a too-short body is Corrupt.
        let mut short = framed.clone();
        short[1] = 8;
        assert!(matches!(
            strip_trace(KIND_PREDICT | KIND_TRACE_FLAG, &short),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_counts_are_corrupt_not_allocations() {
        // A tiny payload claiming 2^31 scripts must fail on the count
        // check, not try to reserve gigabytes.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(decode_predict(&buf), Err(StoreError::Corrupt(_))));

        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            decode_predictions(&buf),
            Err(StoreError::Corrupt(_))
        ));
    }

    fn revise_request() -> ReviseRequest {
        ReviseRequest {
            obs: ProgressObs {
                job_id: 99,
                elapsed_seconds: 1800.0,
                read_bytes_so_far: 2.5e9,
                write_bytes_so_far: 1.0e8,
            },
            initial: ResourcePrediction {
                runtime_minutes: 60.0,
                read_bytes: 10.0e9,
                write_bytes: 1.0e9,
            },
            coverage: 0.9,
        }
    }

    #[test]
    fn revise_roundtrip() {
        let req = revise_request();
        assert_eq!(decode_revise(&encode_revise(&req)).unwrap(), req);
    }

    #[test]
    fn revision_roundtrip() {
        let reply = RevisionReply {
            epoch: 3,
            runtime_minutes: PredictionInterval {
                lo: 55.0,
                point: 80.0,
                hi: 130.0,
            },
            read_bytes: PredictionInterval {
                lo: 8.0e9,
                point: 10.0e9,
                hi: 14.0e9,
            },
            write_bytes: PredictionInterval::degenerate(1.0e9),
        };
        assert_eq!(decode_revision(&encode_revision(&reply)).unwrap(), reply);
    }

    #[test]
    fn revise_rejects_nonsense_numbers_as_corrupt() {
        // Coverage of 1.0 would demand an infinite interval; NaN elapsed
        // is not an observation. Both are typed Corrupt, not accepted.
        let mut bad_coverage = revise_request();
        bad_coverage.coverage = 1.0;
        assert!(matches!(
            decode_revise(&encode_revise(&bad_coverage)),
            Err(StoreError::Corrupt(_))
        ));

        let mut nan_elapsed = revise_request();
        nan_elapsed.obs.elapsed_seconds = f64::NAN;
        assert!(matches!(
            decode_revise(&encode_revise(&nan_elapsed)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn revision_rejects_inverted_intervals_as_corrupt() {
        let reply = RevisionReply {
            epoch: 1,
            runtime_minutes: PredictionInterval {
                lo: 130.0,
                point: 80.0,
                hi: 55.0,
            },
            read_bytes: PredictionInterval::degenerate(1.0),
            write_bytes: PredictionInterval::degenerate(1.0),
        };
        assert!(matches!(
            decode_revision(&encode_revision(&reply)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_revise_payloads_are_typed_truncated() {
        let full = encode_revise(&revise_request());
        for cut in [0, 7, 8, 20, full.len() - 1] {
            assert!(
                matches!(decode_revise(&full[..cut]), Err(StoreError::Truncated(_))),
                "cut at {cut} should be Truncated"
            );
        }
        let reply_full = encode_revision(&RevisionReply {
            epoch: 1,
            runtime_minutes: PredictionInterval::degenerate(5.0),
            read_bytes: PredictionInterval::degenerate(5.0),
            write_bytes: PredictionInterval::degenerate(5.0),
        });
        assert!(matches!(
            decode_revision(&reply_full[..reply_full.len() - 3]),
            Err(StoreError::Truncated(_))
        ));
        // Trailing garbage after a valid payload is Corrupt: the frame
        // length said more bytes than the message has fields.
        let mut padded = reply_full.clone();
        padded.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_revision(&padded),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn retired_code_3_is_not_decoded() {
        assert_eq!(ErrorCode::from_u8(3), None);
        let mut payload = vec![3u8];
        put_str(&mut payload, "from an older shard");
        assert!(matches!(
            decode_error(&payload),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn every_serve_error_maps_to_a_code() {
        let cases = [
            (
                ServeError::Overloaded { queue_cap: 4 },
                ErrorCode::Overloaded,
            ),
            (ServeError::DeadlineExceeded, ErrorCode::DeadlineExceeded),
            (ServeError::Stopped, ErrorCode::Stopped),
            (ServeError::Model("boom".into()), ErrorCode::Model),
        ];
        for (err, code) in cases {
            assert_eq!(ErrorCode::from_serve_error(&err), code);
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
    }
}
