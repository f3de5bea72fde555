//! The wire protocol: newline-delimited JSON request/response frames.
//!
//! One request per line, one response line per request, answered in
//! order per connection (clients may pipeline). Requests:
//!
//! ```text
//! {"id":1,"op":"predict","model":"rocket","series":"1.0,2.0:0.5,0.5"}
//! {"id":2,"op":"stats"}
//! {"id":3,"op":"list"}
//! {"id":4,"op":"ping"}
//! {"id":5,"op":"augment","pipeline":"light","seed":7,"index":3,"series":"1.0,2.0"}
//! ```
//!
//! `series` is the `.ts` data-line layout (dimensions split by `:`,
//! values by `,`, `?` for missing) parsed by
//! [`tsda_datasets::ts_format::parse_series_line`]. Responses always
//! carry the request `id` and an `ok` flag:
//!
//! ```text
//! {"id":1,"ok":true,"model":"rocket","label":2,"batch":7,"micros":412}
//! {"id":1,"ok":false,"error":"unknown model \"nope\""}
//! ```
//!
//! Parsing is hand-rolled over the vendored JSON value tree so missing
//! or mistyped fields produce error *responses*, never panics.

use serde::Value;
use tsda_core::{Mts, TsdaError};
use tsda_datasets::ts_format::parse_series_line;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one series with the named model.
    Predict {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Registry name of the target model.
        model: String,
        /// The series, `.ts` data-line encoded.
        series: String,
    },
    /// Server-side counters (uptime, throughput, latency, batch sizes).
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Names + input shapes of every served model.
    List {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Run one series through a named augmentation pipeline.
    ///
    /// The reply series is bit-identical to offline
    /// `AugPipeline::apply_one(series, seed, index)` — `(seed, index)`
    /// fully determine every stochastic choice, so any replica returns
    /// the same bytes.
    Augment {
        /// Correlation id.
        id: u64,
        /// Registry name of the target pipeline.
        pipeline: String,
        /// Master seed for the derived per-sample streams.
        seed: u64,
        /// Sample index within the seeded corpus.
        index: u64,
        /// The input series, `.ts` data-line encoded.
        series: String,
    },
}

impl Request {
    /// The correlation id of any request.
    pub fn id(&self) -> u64 {
        match self {
            Self::Predict { id, .. }
            | Self::Stats { id }
            | Self::List { id }
            | Self::Ping { id }
            | Self::Augment { id, .. } => *id,
        }
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_f64).map(|n| n as u64)
}

fn field_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// Parse one request line. The error string is ready to ship back in an
/// error response (the id is recovered when possible so the client can
/// correlate it; id 0 otherwise).
pub fn parse_request(line: &str) -> Result<Request, (u64, String)> {
    let v = serde_json::parse_value(line).map_err(|e| (0, format!("bad json: {e}")))?;
    let id = field_u64(&v, "id").unwrap_or(0);
    let op = field_str(&v, "op").ok_or((id, "missing \"op\" field".to_string()))?;
    match op.as_str() {
        "predict" => {
            let model =
                field_str(&v, "model").ok_or((id, "predict needs a \"model\" field".to_string()))?;
            let series =
                field_str(&v, "series").ok_or((id, "predict needs a \"series\" field".to_string()))?;
            Ok(Request::Predict { id, model, series })
        }
        "stats" => Ok(Request::Stats { id }),
        "list" => Ok(Request::List { id }),
        "ping" => Ok(Request::Ping { id }),
        "augment" => {
            let pipeline = field_str(&v, "pipeline")
                .ok_or((id, "augment needs a \"pipeline\" field".to_string()))?;
            let series = field_str(&v, "series")
                .ok_or((id, "augment needs a \"series\" field".to_string()))?;
            let seed =
                field_u64(&v, "seed").ok_or((id, "augment needs a \"seed\" field".to_string()))?;
            let index =
                field_u64(&v, "index").ok_or((id, "augment needs an \"index\" field".to_string()))?;
            Ok(Request::Augment { id, pipeline, seed, index, series })
        }
        other => Err((id, format!("unknown op {other:?}"))),
    }
}

/// Decode a predict payload into a series.
///
/// Hot path (`tsda_analyze` R3): runs once per predict request; the
/// decoded series buffer is the one allowlisted allocation.
#[doc(alias = "tsda::hot")]
pub fn decode_series(series: &str) -> Result<Mts, TsdaError> {
    parse_series_line(series)
}

/// Append `s` as a JSON string literal. The escape set matches the
/// vendored serialiser byte-for-byte (`"`, `\`, `\n`, `\r`, `\t`,
/// `\uXXXX` for remaining control characters), so the `_into` builders
/// below produce exactly the bytes `serde_json::to_string` would.
fn push_json_str(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// The response builders append to a caller-owned buffer — the
// connection loop reuses one String per connection, so a warm
// connection answers without allocating for the envelope. The JSON is
// written directly (same key order, same escaping, integer-printed
// counters) and is byte-identical to what the old Value-tree path
// produced.

/// Successful predict response, appended to `out`.
pub fn predict_response_into(
    out: &mut String,
    id: u64,
    model: &str,
    label: usize,
    batch: usize,
    micros: u64,
) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"model\":");
    push_json_str(out, model);
    let _ = write!(out, ",\"label\":{label},\"batch\":{batch},\"micros\":{micros}}}");
}

/// Successful augment response, appended to `out`. The series is `.ts`
/// data-line encoded; Rust's `{}` float formatting prints the shortest
/// round-trip representation, so finite values survive the text hop
/// bit-exactly.
pub fn augment_response_into(
    out: &mut String,
    id: u64,
    pipeline: &str,
    series: &Mts,
    batch: usize,
    micros: u64,
) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"pipeline\":");
    push_json_str(out, pipeline);
    out.push_str(",\"series\":");
    push_json_str(out, &tsda_datasets::ts_format::format_series_line(series));
    let _ = write!(out, ",\"batch\":{batch},\"micros\":{micros}}}");
}

/// Error response for any request, appended to `out`.
pub fn error_response_into(out: &mut String, id: u64, message: &str) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":false,\"error\":");
    push_json_str(out, message);
    out.push('}');
}

/// The marker error string in load-shedding replies.
pub const OVERLOADED: &str = "overloaded";

/// Load-shedding reply, appended to `out`: the queue is full (or the
/// fault plan sheds); the client should back off roughly `retry_ms`
/// and retry.
pub fn overloaded_response_into(out: &mut String, id: u64, retry_ms: u64) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":false,\"error\":\"{OVERLOADED}\",\"retry_ms\":{retry_ms}}}"
    );
}

/// The marker error string in admission-control refusals.
pub const THROTTLED: &str = "throttled";

/// Admission-control refusal, appended to `out`: the client's token
/// bucket is empty; one token refills in roughly `retry_ms`.
pub fn throttled_response_into(out: &mut String, id: u64, retry_ms: u64) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":false,\"error\":\"{THROTTLED}\",\"retry_ms\":{retry_ms}}}"
    );
}

/// Generic success response wrapping a payload under `"result"`,
/// appended to `out`.
pub fn result_response_into(out: &mut String, id: u64, result: &Value) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"result\":");
    serde_json::append_to_string(result, out);
    out.push('}');
}

/// A parsed server response, as seen by clients.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed correlation id.
    pub id: u64,
    /// Success flag.
    pub ok: bool,
    /// Predicted label (predict responses only).
    pub label: Option<usize>,
    /// Batch size the prediction rode in (predict responses only).
    pub batch: Option<usize>,
    /// Server-side latency in microseconds (predict responses only).
    pub micros: Option<u64>,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Backoff hint carried by `overloaded` replies, milliseconds.
    pub retry_ms: Option<u64>,
    /// Result payload for stats/list responses.
    pub result: Option<Value>,
    /// Augmented series (augment responses only).
    pub series: Option<Mts>,
}

impl Response {
    /// True for a load-shedding reply (`{"ok":false,"error":"overloaded",…}`).
    pub fn is_overloaded(&self) -> bool {
        !self.ok && self.error.as_deref() == Some(OVERLOADED)
    }

    /// True for an admission-control refusal
    /// (`{"ok":false,"error":"throttled",…}`).
    pub fn is_throttled(&self) -> bool {
        !self.ok && self.error.as_deref() == Some(THROTTLED)
    }

    /// True for any backpressure refusal — batcher shed, fault-plan
    /// shed, or admission throttle, from a replica or the router. All
    /// carry `retry_ms` hints that floor the client's next backoff.
    pub fn is_shed(&self) -> bool {
        self.is_overloaded() || self.is_throttled()
    }
}

/// Parse one response line (client side).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("bad json: {e}"))?;
    let ok = match v.get("ok") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("missing \"ok\" field".into()),
    };
    let series = match field_str(&v, "series") {
        Some(text) => Some(parse_series_line(&text).map_err(|e| format!("bad series: {e}"))?),
        None => None,
    };
    Ok(Response {
        id: field_u64(&v, "id").unwrap_or(0),
        ok,
        label: field_u64(&v, "label").map(|n| n as usize),
        batch: field_u64(&v, "batch").map(|n| n as usize),
        micros: field_u64(&v, "micros"),
        error: field_str(&v, "error"),
        retry_ms: field_u64(&v, "retry_ms"),
        result: v.get("result").cloned(),
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Render one response line through an `_into` builder.
    fn render(build: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        build(&mut out);
        out
    }

    #[test]
    fn predict_request_round_trip() {
        let r = parse_request(r#"{"id":7,"op":"predict","model":"rocket","series":"1,2:3,4"}"#)
            .unwrap();
        assert_eq!(
            r,
            Request::Predict { id: 7, model: "rocket".into(), series: "1,2:3,4".into() }
        );
        let s = decode_series("1,2:3,4").unwrap();
        assert_eq!(s.n_dims(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn malformed_requests_return_errors_with_ids() {
        assert!(parse_request("not json").is_err());
        let (id, msg) = parse_request(r#"{"id":9,"op":"predict"}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("model"));
        let (id, _) = parse_request(r#"{"id":3,"op":"warp"}"#).unwrap_err();
        assert_eq!(id, 3);
    }

    #[test]
    fn responses_parse_back() {
        let line = render(|o| predict_response_into(o, 5, "rocket", 2, 8, 1234));
        let r = parse_response(&line).unwrap();
        assert!(r.ok);
        assert_eq!((r.id, r.label, r.batch, r.micros), (5, Some(2), Some(8), Some(1234)));
        let e = parse_response(&render(|o| error_response_into(o, 6, "nope"))).unwrap();
        assert!(!e.ok);
        assert_eq!(e.error.as_deref(), Some("nope"));
    }

    #[test]
    fn overloaded_response_round_trips_the_retry_hint() {
        let line = render(|o| overloaded_response_into(o, 12, 25));
        let r = parse_response(&line).unwrap();
        assert!(!r.ok);
        assert!(r.is_overloaded());
        assert_eq!((r.id, r.retry_ms), (12, Some(25)));
        // Non-overloaded errors do not claim to be shedding.
        let e = parse_response(&render(|o| error_response_into(o, 3, "bad series"))).unwrap();
        assert!(!e.is_overloaded());
        assert_eq!(e.retry_ms, None);
    }

    #[test]
    fn throttled_response_round_trips_and_is_shed() {
        let r = parse_response(&render(|o| throttled_response_into(o, 4, 120))).unwrap();
        assert!(r.is_throttled() && r.is_shed() && !r.is_overloaded());
        assert_eq!((r.id, r.retry_ms), (4, Some(120)));
        let o = parse_response(&render(|o| overloaded_response_into(o, 5, 20))).unwrap();
        assert!(o.is_shed() && !o.is_throttled());
        let e = parse_response(&render(|o| error_response_into(o, 6, "nope"))).unwrap();
        assert!(!e.is_shed());
    }

    #[test]
    fn augment_request_and_response_round_trip() {
        let r = parse_request(
            r#"{"id":8,"op":"augment","pipeline":"light","seed":7,"index":3,"series":"1,2,3"}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Augment {
                id: 8,
                pipeline: "light".into(),
                seed: 7,
                index: 3,
                series: "1,2,3".into()
            }
        );
        let s = Mts::from_dims(vec![vec![0.25, -1.5, 3.0e-7], vec![0.1 + 0.2, 1.0, -0.0]]);
        let line = render(|o| augment_response_into(o, 8, "light", &s, 4, 99));
        let resp = parse_response(&line).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.series.as_ref(), Some(&s), "text hop must be bit-exact");
        assert_eq!((resp.batch, resp.micros), (Some(4), Some(99)));
        let (id, msg) =
            parse_request(r#"{"id":9,"op":"augment","pipeline":"p","series":"1"}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("seed"), "{msg}");
    }

    #[test]
    fn series_decode_rejects_garbage() {
        assert!(decode_series("1,zzz").is_err());
        assert!(decode_series("").is_err());
    }

    #[test]
    fn into_builders_match_the_value_tree_serialiser_byte_for_byte() {
        // The hand-written builders replaced a Value-tree path; pin
        // them against it (including escaping and integer printing) so
        // wire output provably never changed.
        let tricky = "ro\"ck\\et\n\u{1}";
        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(5.0)),
            ("ok".into(), Value::Bool(true)),
            ("model".into(), Value::Str(tricky.into())),
            ("label".into(), Value::Num(2.0)),
            ("batch".into(), Value::Num(8.0)),
            ("micros".into(), Value::Num(1234.0)),
        ]))
        .unwrap();
        assert_eq!(render(|o| predict_response_into(o, 5, tricky, 2, 8, 1234)), want);

        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(0.0)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::Str(tricky.into())),
        ]))
        .unwrap();
        assert_eq!(render(|o| error_response_into(o, 0, tricky)), want);

        let payload = Value::Object(vec![
            ("names".into(), Value::Array(vec![Value::Str("a\tb".into()), Value::Null])),
            ("n".into(), Value::Num(3.5)),
        ]);
        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(9.0)),
            ("ok".into(), Value::Bool(true)),
            ("result".into(), payload.clone()),
        ]))
        .unwrap();
        assert_eq!(render(|o| result_response_into(o, 9, &payload)), want);

        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(12.0)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::Str(OVERLOADED.into())),
            ("retry_ms".into(), Value::Num(25.0)),
        ]))
        .unwrap();
        assert_eq!(render(|o| overloaded_response_into(o, 12, 25)), want);

        let s = Mts::from_dims(vec![vec![0.25, -1.5], vec![3.0e-7, 1.0]]);
        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(8.0)),
            ("ok".into(), Value::Bool(true)),
            ("pipeline".into(), Value::Str("light".into())),
            (
                "series".into(),
                Value::Str(tsda_datasets::ts_format::format_series_line(&s)),
            ),
            ("batch".into(), Value::Num(4.0)),
            ("micros".into(), Value::Num(99.0)),
        ]))
        .unwrap();
        assert_eq!(render(|o| augment_response_into(o, 8, "light", &s, 4, 99)), want);

        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(4.0)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::Str(THROTTLED.into())),
            ("retry_ms".into(), Value::Num(120.0)),
        ]))
        .unwrap();
        assert_eq!(render(|o| throttled_response_into(o, 4, 120)), want);
    }
}
