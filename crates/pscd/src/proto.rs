//! The `pscd` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per accepted request —
//! exactly one, which is the invariant the resilience soak test and the
//! `parsched-loadgen` client both check. Requests:
//!
//! ```json
//! {"id": 1, "op": "compile", "src": "func @f() { ... }",
//!  "machine": "paper", "regs": 32, "strategy": "combined",
//!  "deadline_ms": 200}
//! {"id": 2, "op": "stats"}
//! {"id": 3, "op": "ping"}
//! {"id": 4, "op": "shutdown"}
//! ```
//!
//! Responses carry the request `id`, a `code` (see [`CODE_OK`],
//! [`CODE_PROTO`], [`CODE_OVERLOADED`], and the `parsched` exit codes
//! 3–12 for compile failures), and either a `body` object or an
//! `error`/`class` pair. The compile `body` is the cached unit: hot and
//! cold responses embed byte-identical body text (only the `cached`
//! flag differs).

use parsched_telemetry::escape_json;
use parsched_telemetry::json::{parse, Value};

/// Hard cap on one request line. Longer lines are rejected with
/// [`CODE_PROTO`] and drained without buffering, so an oversized (or
/// hostile) client cannot balloon daemon memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Success.
pub const CODE_OK: i32 = 0;
/// Malformed request: bad JSON, missing/invalid fields, oversized line,
/// unknown machine or strategy. Mirrors `psc`'s usage exit code.
pub const CODE_PROTO: i32 = 2;
/// Admission refused the request: the queue is full, the client deadline
/// is unmeetable at enqueue, or the daemon is draining. Compile failures
/// keep the `parsched` exit codes (3–12); 13 is the first free slot.
pub const CODE_OVERLOADED: i32 = 13;

/// A compile request body.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileReq {
    /// `.psc` source text of one module (usually one function).
    pub src: String,
    /// Machine preset label: `single|paper|mips|rs6000|wide4`.
    pub machine: String,
    /// Register-file size override for the preset.
    pub regs: u32,
    /// Preferred strategy label (the first ladder rung):
    /// `combined|alloc-first|sched-first|linear-scan|spill-everything`.
    pub strategy: String,
    /// Client deadline in milliseconds from receipt; admission fast-fails
    /// the request when the deadline is unmeetable at enqueue time.
    pub deadline_ms: Option<u64>,
}

/// A parsed request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Compile one module.
    Compile(CompileReq),
    /// Report service counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain and stop the daemon.
    Shutdown,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

fn field_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    let n = v.get(key)?.as_num()?;
    (n.is_finite() && n >= 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// Parses one request line.
///
/// # Errors
/// Returns a human-readable message (for a [`CODE_PROTO`] response) on
/// malformed JSON or missing/invalid fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse(line).map_err(|e| e.to_string())?;
    let id = field_u64(&doc, "id").ok_or("missing or invalid `id`")?;
    let op = field_str(&doc, "op").ok_or("missing `op`")?;
    let op = match op.as_str() {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "compile" => Op::Compile(CompileReq {
            src: field_str(&doc, "src").ok_or("compile needs `src`")?,
            machine: field_str(&doc, "machine")
                .unwrap_or_else(|| parsched_machine::presets::DEFAULT_NAME.to_string()),
            regs: field_u64(&doc, "regs").map_or(32, |r| r.min(u32::MAX as u64) as u32),
            strategy: field_str(&doc, "strategy").unwrap_or_else(|| "combined".to_string()),
            deadline_ms: field_u64(&doc, "deadline_ms"),
        }),
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok(Request { id, op })
}

/// A success response wrapping a pre-serialized JSON `body` object.
///
/// The body text is what the result cache stores, so a cache hit replays
/// the exact bytes of the original (cold) response body.
pub fn ok_response(id: u64, cached: bool, body: &str) -> String {
    format!("{{\"id\":{id},\"code\":{CODE_OK},\"cached\":{cached},\"body\":{body}}}")
}

/// An error response. `id` is `null` when the line never parsed far
/// enough to recover one.
pub fn error_response(id: Option<u64>, code: i32, class: &str, message: &str) -> String {
    let id = id.map_or("null".to_string(), |i| i.to_string());
    format!(
        "{{\"id\":{id},\"code\":{code},\"class\":\"{}\",\"error\":\"{}\"}}",
        escape_json(class),
        escape_json(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_compile_request() {
        let r = parse_request(
            r#"{"id": 7, "op": "compile", "src": "func @f() {}", "machine": "mips",
                "regs": 16, "strategy": "linear-scan", "deadline_ms": 250}"#,
        );
        let Ok(Request {
            id: 7,
            op: Op::Compile(c),
        }) = r
        else {
            unreachable!("fixed valid request must parse: {r:?}")
        };
        assert_eq!(c.machine, "mips");
        assert_eq!(c.regs, 16);
        assert_eq!(c.strategy, "linear-scan");
        assert_eq!(c.deadline_ms, Some(250));
    }

    #[test]
    fn compile_defaults_match_psc() {
        let r = parse_request(r#"{"id": 1, "op": "compile", "src": "x"}"#);
        let Ok(Request {
            op: Op::Compile(c), ..
        }) = r
        else {
            unreachable!("fixed valid request must parse: {r:?}")
        };
        assert_eq!((c.machine.as_str(), c.regs), ("paper", 32));
        assert_eq!(c.strategy, "combined");
        assert_eq!(c.deadline_ms, None);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "{\"op\": \"ping\"}",                    // no id
            "{\"id\": 1}",                           // no op
            "{\"id\": -1, \"op\": \"ping\"}",        // negative id
            "{\"id\": 1, \"op\": \"reticulate\"}",   // unknown op
            "{\"id\": 1, \"op\": \"compile\"}",      // compile without src
            "{\"id\": 1.5e99999, \"op\": \"ping\"}", // non-finite id
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn response_shapes_roundtrip_through_the_parser() {
        let ok = ok_response(3, true, "{\"pong\":true}");
        let Ok(doc) = parse(&ok) else {
            unreachable!("own output must parse: {ok}")
        };
        assert_eq!(doc.get("id").and_then(Value::as_num), Some(3.0));
        assert_eq!(doc.get("cached"), Some(&Value::Bool(true)));

        let err = error_response(None, CODE_PROTO, "proto", "bad \"line\"");
        let Ok(doc) = parse(&err) else {
            unreachable!("own output must parse: {err}")
        };
        assert_eq!(doc.get("id"), Some(&Value::Null));
        assert_eq!(doc.get("code").and_then(Value::as_num), Some(2.0));
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("bad \"line\"")
        );
    }
}
