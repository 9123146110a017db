//! The discovery wire format shared by the `tsfm query --json` output and
//! the `tsfm serve` JSONL-over-TCP protocol — hand-rolled JSON, no
//! dependencies.
//!
//! ## Protocol
//!
//! One request per line, one response line per request:
//!
//! ```text
//! → {"mode":"join","k":3,"csv":"city,pop\nVienna,1900000\n"}
//! → {"mode":"union","k":5,"id":"cities","explain":true}
//! ← {"query":"cities","mode":"union","corpus":812,"micros":412,"hits":[
//!      {"rank":1,"table":"city_areas","matching_columns":2,"score":0.013}]}
//! ← {"error":{"kind":"invalid_request","detail":"..."},"client":true}
//! ```
//!
//! Request fields: `mode` (required), exactly one of `csv` (inline query
//! table) or `id` (id of an ingested table), and optionally `k`,
//! `query_id`, `min_score`, `exclude_self`, `explain`, `columns`,
//! `profile` (per-stage timing breakdown in the response).
//! Unknown fields are rejected — typos must not silently change a query.
//!
//! Besides queries the protocol carries control verbs, dispatched on an
//! `op` field (see [`ServeCommand`]):
//!
//! ```text
//! → {"op":"stats"}
//! ← {"stats":{"uptime_ms":..,"tables":..,"requests":{...},"latency_us":{...}}}
//! → {"op":"metrics"}
//! ← {"metrics":"# HELP tsfm_serve_requests_total ...\n..."}
//! → {"op":"slowlog"}
//! ← {"slowlog":[{"query":"q1","mode":"join","micros":812,"unix_ms":...,
//!      "stages":[["features",90],["beam",600],...]}]}
//! ```
//!
//! A server at capacity answers new connections with a non-taxonomy
//! `unavailable` error ([`unavailable_json`]) before closing them.

use crate::engine::{QueryMode, TableHit};
use crate::error::{StoreError, StoreResult};
use crate::request::{DiscoveryRequest, DiscoveryResponse};

// ---- serialization --------------------------------------------------------

/// JSON string escaping per RFC 8259.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become null.
fn num_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One ranked hit as a JSON object — the single serializer behind both the
/// CLI's `--json` lines and the serve response's `hits` array.
pub fn hit_json(rank: usize, hit: &TableHit) -> String {
    format!(
        "{{\"rank\":{rank},\"table\":\"{}\",\"matching_columns\":{},\"score\":{}}}",
        escape_json(&hit.table_id),
        hit.matching_columns,
        num_json(hit.score)
    )
}

/// A whole response as one JSON line.
pub fn response_json(resp: &DiscoveryResponse) -> String {
    let hits: Vec<String> =
        resp.hits.iter().enumerate().map(|(i, h)| hit_json(i + 1, h)).collect();
    let mut out = format!(
        "{{\"query\":\"{}\",\"mode\":\"{}\",\"corpus\":{},\"micros\":{},\"hits\":[{}]",
        escape_json(&resp.query_id),
        resp.mode,
        resp.corpus_size,
        resp.elapsed_micros,
        hits.join(",")
    );
    if let Some(profile) = &resp.profile {
        let stages: Vec<String> = profile
            .iter()
            .map(|(stage, us)| format!("[\"{}\",{us}]", escape_json(stage)))
            .collect();
        out.push_str(&format!(",\"profile\":[{}]", stages.join(",")));
    }
    if let Some(explanations) = &resp.explanations {
        let ex: Vec<String> = explanations
            .iter()
            .map(|e| {
                let matches: Vec<String> = e
                    .matches
                    .iter()
                    .map(|m| {
                        format!(
                            "{{\"query_column\":\"{}\",\"corpus_column\":\"{}\",\"distance\":{}}}",
                            escape_json(&m.query_column),
                            escape_json(&m.corpus_column),
                            num_json(m.distance as f64)
                        )
                    })
                    .collect();
                format!(
                    "{{\"table\":\"{}\",\"matches\":[{}]}}",
                    escape_json(&e.table_id),
                    matches.join(",")
                )
            })
            .collect();
        out.push_str(&format!(",\"explanations\":[{}]", ex.join(",")));
    }
    out.push('}');
    out
}

/// An error as one JSON line, tagged with its taxonomy kind and whether
/// the fault is the client's (`InvalidRequest` et al.) or the server's.
/// Corruption attributed to a store file additionally carries `file` and
/// `offset` so an operator reading server logs can go straight to
/// `tsfm fsck` without re-deriving which file died.
pub fn error_json(e: &StoreError) -> String {
    let kind = match e {
        StoreError::Io(_) => "io",
        StoreError::Corrupt { .. } => "corrupt",
        StoreError::UnknownTable(_) => "unknown_table",
        StoreError::InvalidRequest(_) => "invalid_request",
        StoreError::EmptyIndex => "empty_index",
        StoreError::Internal(_) => "internal",
    };
    let mut attribution = String::new();
    if let StoreError::Corrupt { file, offset, .. } = e {
        if let Some(f) = file {
            attribution.push_str(&format!(",\"file\":\"{}\"", escape_json(f)));
        }
        if let Some(at) = offset {
            attribution.push_str(&format!(",\"offset\":{at}"));
        }
    }
    format!(
        "{{\"error\":{{\"kind\":\"{kind}\",\"detail\":\"{}\"{attribution}}},\"client\":{}}}",
        escape_json(&e.to_string()),
        e.is_client_error()
    )
}

/// The overload reply a server at capacity sends before closing a shed
/// connection. Deliberately outside the [`StoreError`] taxonomy: nothing
/// is wrong with the store or the request — the server simply refuses the
/// connection, and a client seeing `kind:"unavailable"` should back off
/// and retry.
pub fn unavailable_json(detail: &str) -> String {
    format!(
        "{{\"error\":{{\"kind\":\"unavailable\",\"detail\":\"{}\"}},\"client\":false}}",
        escape_json(detail)
    )
}

// ---- parsing --------------------------------------------------------------

/// A parsed JSON value (just enough JSON for the request protocol).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one JSON document (trailing garbage is an error).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut pos = 0;
    let v = parse_value(s, &mut pos)?;
    skip_ws(s.as_bytes(), &mut pos);
    if pos != s.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(s, pos),
        Some(b'[') => parse_array(s, pos),
        Some(b'"') => parse_string(s, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-')) {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one go. All three stop bytes are ASCII, so the run ends on a
        // char boundary of `s`.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .map_or(b.len(), |n| *pos + n);
        out.push_str(&s[*pos..run]);
        *pos = run;
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(b, pos)?;
                        let cp = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: require a valid low half.
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("high surrogate not followed by a low one".into());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else {
                            hi
                        };
                        out.push(char::from_u32(cp).ok_or("invalid \\u escape")?);
                    }
                    _ => return Err(format!("bad escape \\{}", e as char)),
                }
            }
            // RFC 8259 §7: control characters (U+0000–U+001F) must be
            // escaped inside strings. Rejecting raw ones keeps the
            // serialize side (`escape_json`, which always emits `\uXXXX`)
            // and the parse side in exact agreement, and means a raw
            // newline can never smuggle a second JSONL frame into one
            // string. The run above stops only at a quote, a backslash or
            // such a byte, so this arm is the control byte.
            _ => {
                return Err(format!(
                    "unescaped control character 0x{c:02x} in string (must be \\u-escaped)"
                ));
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let chunk = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
    // RFC 8259 §7: exactly four hex digits. `from_str_radix` alone is too
    // lenient — it accepts a leading `+`, so `\u+fff` would silently
    // decode as U+0FFF.
    if !chunk.iter().all(u8::is_ascii_hexdigit) {
        return Err("bad \\u escape".into());
    }
    let s = std::str::from_utf8(chunk).map_err(|_| "bad \\u escape")?;
    *pos += 4;
    u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".into())
}

fn parse_array(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(s, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(s, pos)?;
        out.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---- the serve request ----------------------------------------------------

/// A parsed serve-protocol request: the validated [`DiscoveryRequest`]
/// plus where the query table comes from (inline CSV or a stored id).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    pub request: DiscoveryRequest,
    /// Inline query table as CSV text, if provided.
    pub csv: Option<String>,
    /// Id of an ingested table to use as the query, if provided.
    pub id: Option<String>,
    /// Id reported back for inline-CSV queries (default `"query"`).
    pub query_id: String,
}

/// One line of the serve protocol, dispatched: discovery queries are the
/// default shape; control verbs carry an `op` field instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeCommand {
    /// A discovery query (the `{"mode":...,"csv"|"id":...}` shape).
    Query(Box<ServeRequest>),
    /// `{"op":"stats"}` — operational counters and latency percentiles.
    Stats,
    /// `{"op":"metrics"}` — Prometheus text exposition, as one JSON string.
    Metrics,
    /// `{"op":"slowlog"}` — the slowest requests with stage breakdowns.
    Slowlog,
}

impl ServeCommand {
    /// Parse one request line into a command. Control verbs win when an
    /// `op` field is present; anything else is parsed as a discovery
    /// query. Every failure is [`StoreError::InvalidRequest`].
    pub fn parse_line(line: &str) -> StoreResult<ServeCommand> {
        let json = parse_request_json(line)?;
        if let Some(op) = json.get("op") {
            let op = op
                .as_str()
                .ok_or_else(|| StoreError::invalid("\"op\" must be a string"))?;
            let sole_field = |cmd: ServeCommand| {
                if let Json::Obj(fields) = &json {
                    if fields.len() != 1 {
                        return Err(StoreError::invalid(format!(
                            "\"op\":{op:?} takes no other fields"
                        )));
                    }
                }
                Ok(cmd)
            };
            return match op {
                "stats" => sole_field(ServeCommand::Stats),
                "metrics" => sole_field(ServeCommand::Metrics),
                "slowlog" => sole_field(ServeCommand::Slowlog),
                other => Err(StoreError::invalid(format!(
                    "unknown op {other:?} (known ops: metrics, slowlog, stats)"
                ))),
            };
        }
        ServeRequest::from_json(&json).map(|r| ServeCommand::Query(Box::new(r)))
    }
}

/// Parse a request line into a JSON object (shared by every verb).
fn parse_request_json(line: &str) -> StoreResult<Json> {
    let json = parse_json(line.trim())
        .map_err(|e| StoreError::invalid(format!("request is not valid JSON: {e}")))?;
    if !matches!(json, Json::Obj(_)) {
        return Err(StoreError::invalid("request must be a JSON object"));
    }
    Ok(json)
}

impl ServeRequest {
    /// Parse and validate one request line. Every failure is a
    /// [`StoreError::InvalidRequest`] so the serve loop answers it as a
    /// client error rather than dying.
    pub fn parse_line(line: &str) -> StoreResult<ServeRequest> {
        Self::from_json(&parse_request_json(line)?)
    }

    /// Validate an already-parsed request object.
    pub fn from_json(json: &Json) -> StoreResult<ServeRequest> {
        let Json::Obj(fields) = &json else {
            return Err(StoreError::invalid("request must be a JSON object"));
        };

        const KNOWN: [&str; 10] = [
            "mode", "k", "csv", "id", "query_id", "min_score", "exclude_self", "explain",
            "columns", "profile",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(StoreError::invalid(format!(
                    "unknown request field {key:?} (known fields: {})",
                    KNOWN.join(", ")
                )));
            }
        }

        let mode: QueryMode = json
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| StoreError::invalid("request needs a string \"mode\" field"))?
            .parse()?;
        let mut builder = DiscoveryRequest::builder(mode);
        if let Some(k) = json.get("k") {
            let k = k
                .as_f64()
                .filter(|k| k.fract() == 0.0 && *k >= 0.0 && *k <= u32::MAX as f64)
                .ok_or_else(|| StoreError::invalid("\"k\" must be a non-negative integer"))?;
            builder = builder.k(k as usize);
        }
        if let Some(ms) = json.get("min_score") {
            let ms = ms
                .as_f64()
                .ok_or_else(|| StoreError::invalid("\"min_score\" must be a number"))?;
            builder = builder.min_score(ms);
        }
        if let Some(ex) = json.get("exclude_self") {
            let ex = ex
                .as_bool()
                .ok_or_else(|| StoreError::invalid("\"exclude_self\" must be a boolean"))?;
            builder = builder.exclude_self(ex);
        }
        if let Some(ex) = json.get("explain") {
            let ex = ex
                .as_bool()
                .ok_or_else(|| StoreError::invalid("\"explain\" must be a boolean"))?;
            builder = builder.explain(ex);
        }
        if let Some(p) = json.get("profile") {
            let p = p
                .as_bool()
                .ok_or_else(|| StoreError::invalid("\"profile\" must be a boolean"))?;
            builder = builder.profile(p);
        }
        if let Some(cols) = json.get("columns") {
            let Json::Arr(items) = cols else {
                return Err(StoreError::invalid("\"columns\" must be an array of strings"));
            };
            let names: Option<Vec<&str>> = items.iter().map(Json::as_str).collect();
            let names =
                names.ok_or_else(|| StoreError::invalid("\"columns\" must be an array of strings"))?;
            builder = builder.columns(names);
        }
        let request = builder.build()?;

        let csv = json.get("csv").map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| StoreError::invalid("\"csv\" must be a string"))
        });
        let csv = csv.transpose()?;
        let id = json.get("id").map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| StoreError::invalid("\"id\" must be a string"))
        });
        let id = id.transpose()?;
        match (&csv, &id) {
            (Some(_), Some(_)) => {
                return Err(StoreError::invalid("give either \"csv\" or \"id\", not both"))
            }
            (None, None) => {
                return Err(StoreError::invalid(
                    "request needs a query table: inline \"csv\" or a stored \"id\"",
                ))
            }
            _ => {}
        }
        let query_id = match json.get("query_id") {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| StoreError::invalid("\"query_id\" must be a string"))?,
            None => id.clone().unwrap_or_else(|| "query".to_string()),
        };
        Ok(ServeRequest { request, csv, id, query_id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ColumnMatch, HitExplanation};

    #[test]
    fn escape_roundtrips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode 🦀";
        let line = format!("{{\"s\":\"{}\"}}", escape_json(nasty));
        let parsed = parse_json(&line).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str(), Some(nasty));
    }

    /// Every control character U+0000–U+001F must survive a serialize →
    /// parse round trip when escaped (table ids come straight from file
    /// stems and wire requests, so hostile names must not corrupt the
    /// JSONL protocol)…
    #[test]
    fn control_characters_roundtrip_escaped() {
        let every_control: String =
            (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        for id in [
            every_control.as_str(),
            "tab\there",
            "new\nline",
            "carriage\rreturn",
            "nul\u{0}byte",
            "esc\u{1b}[31mred",
            "back\u{8}space and \u{c}feed",
        ] {
            let escaped = escape_json(id);
            assert!(
                escaped.bytes().all(|b| b >= 0x20),
                "escape_json must never emit raw control bytes: {escaped:?}"
            );
            let line = format!("{{\"s\":\"{escaped}\"}}");
            let parsed = parse_json(&line).unwrap();
            assert_eq!(parsed.get("s").unwrap().as_str(), Some(id), "{id:?}");
        }
    }

    /// …and the full hit/response serializers inherit that: a hostile
    /// table id round-trips through `hit_json` / `response_json`.
    #[test]
    fn hostile_table_ids_roundtrip_through_response_json() {
        let hostile = "evil\u{0}\u{1f}\ttable\n\"name\\with\u{7}bell";
        let hit = TableHit { table_id: hostile.into(), matching_columns: 1, score: 0.5 };
        let parsed = parse_json(&hit_json(1, &hit)).expect("hit_json emits valid JSON");
        assert_eq!(parsed.get("table").unwrap().as_str(), Some(hostile));

        let resp = DiscoveryResponse {
            mode: QueryMode::Join,
            query_id: hostile.into(),
            corpus_size: 1,
            elapsed_micros: 1,
            hits: vec![hit],
            explanations: Some(vec![HitExplanation {
                table_id: hostile.into(),
                matches: vec![ColumnMatch {
                    query_column: hostile.into(),
                    corpus_column: hostile.into(),
                    distance: 0.25,
                }],
            }]),
            profile: None,
        };
        let v = parse_json(&response_json(&resp)).expect("response_json emits valid JSON");
        assert_eq!(v.get("query").unwrap().as_str(), Some(hostile));
        let Json::Arr(ex) = v.get("explanations").unwrap() else { panic!() };
        let Json::Arr(matches) = ex[0].get("matches").unwrap() else { panic!() };
        assert_eq!(matches[0].get("corpus_column").unwrap().as_str(), Some(hostile));
    }

    /// Raw (unescaped) control bytes inside strings are a parse error per
    /// RFC 8259 — previously they were silently accepted.
    #[test]
    fn raw_control_characters_rejected_by_parser() {
        for c in 0u8..0x20 {
            let line = format!("{{\"s\":\"a{}b\"}}", c as char);
            let err = parse_json(&line).unwrap_err();
            assert!(
                err.contains("control character"),
                "byte 0x{c:02x} must be rejected, got: {err}"
            );
        }
        // The same bytes escaped are fine.
        assert!(parse_json("{\"s\":\"a\\u0000b\"}").is_ok());
    }

    proptest::proptest! {
        /// Any string — control chars, quotes, backslashes, astral chars
        /// and plain runs between them — survives `escape_json` and the
        /// parser unchanged; the same string with a raw control byte
        /// spliced in between two escaped halves is rejected with the
        /// control-character error.
        #[test]
        fn prop_escape_parse_roundtrip(
            s in "[\u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f}\n\r\t\"\"\\\\/ ab xyz é€🦀𝄞]{0,40}",
            cut in 0usize..41,
            ctrl in 0u8..0x20
        ) {
            let parsed = parse_json(&format!("\"{}\"", escape_json(&s)));
            proptest::prop_assert_eq!(
                parsed.as_ref().ok().and_then(Json::as_str),
                Some(s.as_str())
            );

            let cut = s.char_indices().map(|(i, _)| i).nth(cut).unwrap_or(s.len());
            let (head, tail) = s.split_at(cut);
            let spliced =
                format!("\"{}{}{}\"", escape_json(head), ctrl as char, escape_json(tail));
            proptest::prop_assert_eq!(
                parse_json(&spliced).unwrap_err(),
                format!(
                    "unescaped control character 0x{ctrl:02x} in string (must be \\u-escaped)"
                )
            );
        }
    }

    #[test]
    fn parser_handles_nesting_numbers_and_rejects_garbage() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"x"}"#).unwrap();
        let Json::Arr(arr) = v.get("a").unwrap() else { panic!() };
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));

        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "nul", "\"\\q\""] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }

        // Surrogate escapes: a valid pair decodes, broken ones error
        // instead of silently decoding a wrong codepoint.
        assert_eq!(parse_json(r#""\ud83e\udd80""#).unwrap().as_str(), Some("🦀"));
        for bad in [r#""\ud800""#, r#""\ud800\u0041""#, r#""\ud800x""#] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// RFC 8259 §7 surrogate handling: every astral-plane codepoint must
    /// survive both the raw-UTF-8 path and the `\uXXXX\uXXXX` escaped
    /// path, and broken surrogates must be rejected — not silently
    /// mis-decoded — whether they appear in a table id or a CSV payload.
    #[test]
    fn surrogate_pairs_roundtrip_raw_and_escaped() {
        // Codepoints straddling every interesting boundary: first/last
        // astral, musical symbol, emoji, BMP neighbours of the surrogate
        // gap, and a supplementary CJK ideograph.
        let cases = ['\u{10000}', '\u{10FFFF}', '\u{1D11E}', '🦀', '\u{D7FF}', '\u{E000}', '\u{2A6D6}'];
        for c in cases {
            let raw = format!("id-{c}-end");
            // Raw UTF-8 through the serializer (escape_json passes
            // non-control chars through unescaped, as RFC allows).
            let line = format!("{{\"s\":\"{}\"}}", escape_json(&raw));
            assert_eq!(parse_json(&line).unwrap().get("s").unwrap().as_str(), Some(raw.as_str()));

            // The same codepoint spelled as an escaped surrogate pair (or
            // a single \uXXXX for BMP chars) must decode identically.
            let escaped: String = raw
                .chars()
                .map(|c| {
                    let mut units = [0u16; 2];
                    c.encode_utf16(&mut units)
                        .iter()
                        .map(|u| format!("\\u{u:04x}"))
                        .collect::<String>()
                })
                .collect();
            let line = format!("{{\"s\":\"{escaped}\"}}");
            assert_eq!(
                parse_json(&line).unwrap().get("s").unwrap().as_str(),
                Some(raw.as_str()),
                "escaped form {escaped:?}"
            );
        }

        // Uppercase hex digits are as valid as lowercase.
        assert_eq!(parse_json("\"\\uD83E\\uDD80\"").unwrap().as_str(), Some("🦀"));

        // Broken surrogates: lone high, lone low, high+BMP, high+high,
        // low-first pair, truncated low half, and a `+`-smuggled escape
        // (from_str_radix would otherwise accept it).
        for bad in [
            r#""\ud834""#,
            r#""\udd1e""#,
            r#""\udc00""#,
            r#""\ud834A""#,
            r#""\ud834\ud834""#,
            r#""\udd1e\ud834""#,
            r#""\ud834\udd""#,
            r#""\u+fff""#,
            r#""\ud834\u+d1e""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    /// Astral characters flow end to end through the serve protocol: a
    /// surrogate-pair-escaped CSV payload and query id parse into the
    /// right Rust strings, and hostile ids serialize back out parseably.
    #[test]
    fn surrogates_roundtrip_through_serve_requests_and_responses() {
        let line = r#"{"mode":"join","k":2,"query_id":"q🦀","csv":"name\n𝄞\n"}"#;
        let req = ServeRequest::parse_line(line).unwrap();
        assert_eq!(req.query_id, "q🦀");
        assert_eq!(req.csv.as_deref(), Some("name\n\u{1D11E}\n"));

        let hit = TableHit { table_id: "t-𝄞-🦀".into(), matching_columns: 1, score: 0.5 };
        let parsed = parse_json(&hit_json(1, &hit)).unwrap();
        assert_eq!(parsed.get("table").unwrap().as_str(), Some("t-𝄞-🦀"));
    }

    #[test]
    fn serve_command_dispatches_ops_and_queries() {
        assert_eq!(ServeCommand::parse_line(r#"{"op":"stats"}"#).unwrap(), ServeCommand::Stats);
        assert_eq!(
            ServeCommand::parse_line(r#"{"op":"metrics"}"#).unwrap(),
            ServeCommand::Metrics
        );
        assert_eq!(
            ServeCommand::parse_line(r#"{"op":"slowlog"}"#).unwrap(),
            ServeCommand::Slowlog
        );
        let cmd = ServeCommand::parse_line(r#"{"mode":"join","id":"cities"}"#).unwrap();
        let ServeCommand::Query(q) = cmd else { panic!("expected a query") };
        assert_eq!(q.id.as_deref(), Some("cities"));

        for (line, expect) in [
            (r#"{"op":"reboot"}"#, "unknown op"),
            (r#"{"op":42}"#, "must be a string"),
            (r#"{"op":"stats","k":3}"#, "no other fields"),
            (r#"{"op":"metrics","k":3}"#, "no other fields"),
            (r#"{"op":"slowlog","verbose":true}"#, "no other fields"),
        ] {
            let err = ServeCommand::parse_line(line).unwrap_err();
            assert!(matches!(err, StoreError::InvalidRequest(_)), "{line}");
            assert!(err.to_string().contains(expect), "{line} → {err}");
        }
        // The unknown-op error teaches the full verb list.
        let err = ServeCommand::parse_line(r#"{"op":"reboot"}"#).unwrap_err().to_string();
        for verb in ["metrics", "slowlog", "stats"] {
            assert!(err.contains(verb), "{err}");
        }
    }

    #[test]
    fn profile_field_parses_and_serializes() {
        let req =
            ServeRequest::parse_line(r#"{"mode":"join","id":"t","profile":true}"#).unwrap();
        assert!(req.request.profile());
        let req = ServeRequest::parse_line(r#"{"mode":"join","id":"t"}"#).unwrap();
        assert!(!req.request.profile());
        let err =
            ServeRequest::parse_line(r#"{"mode":"join","id":"t","profile":1}"#).unwrap_err();
        assert!(err.to_string().contains("\"profile\" must be a boolean"), "{err}");

        let resp = DiscoveryResponse {
            mode: QueryMode::Join,
            query_id: "q".into(),
            corpus_size: 1,
            elapsed_micros: 100,
            hits: vec![],
            explanations: None,
            profile: Some(vec![("beam".into(), 70), ("other".into(), 30)]),
        };
        let v = parse_json(&response_json(&resp)).expect("valid JSON");
        let Json::Arr(stages) = v.get("profile").unwrap() else { panic!() };
        assert_eq!(stages.len(), 2);
        let Json::Arr(first) = &stages[0] else { panic!() };
        assert_eq!(first[0].as_str(), Some("beam"));
        assert_eq!(first[1].as_f64(), Some(70.0));
    }

    #[test]
    fn unavailable_json_is_parseable_and_tagged() {
        let v = parse_json(&unavailable_json("server at connection capacity")).unwrap();
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("unavailable"));
        assert_eq!(v.get("client").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn serve_request_roundtrip_with_all_fields() {
        let line = r#"{"mode":"union","k":5,"csv":"a,b\n1,2\n","query_id":"q1",
            "min_score":2,"exclude_self":false,"explain":true,"columns":["a","b"]}"#
            .replace('\n', " ");
        let req = ServeRequest::parse_line(&line).unwrap();
        assert_eq!(req.request.mode(), QueryMode::Union);
        assert_eq!(req.request.k(), 5);
        assert_eq!(req.request.min_score(), Some(2.0));
        assert!(!req.request.exclude_self());
        assert!(req.request.explain());
        assert_eq!(req.request.columns(), Some(&["a".to_string(), "b".to_string()][..]));
        assert_eq!(req.csv.as_deref(), Some("a,b\n1,2\n"));
        assert_eq!(req.query_id, "q1");
    }

    #[test]
    fn serve_request_validation() {
        // Unknown field, missing mode, bad k, both/neither query source.
        let cases = [
            (r#"{"mode":"join","csv":"a\n1\n","bogus":1}"#, "unknown request field"),
            (r#"{"csv":"a\n1\n"}"#, "\"mode\""),
            (r#"{"mode":"fuzzy","csv":"a\n1\n"}"#, "valid modes"),
            (r#"{"mode":"join","k":0,"csv":"a\n1\n"}"#, "k must be >= 1"),
            (r#"{"mode":"join","k":1.5,"csv":"a\n1\n"}"#, "non-negative integer"),
            (r#"{"mode":"join","csv":"a\n1\n","id":"t"}"#, "not both"),
            (r#"{"mode":"join"}"#, "needs a query table"),
            ("not json", "not valid JSON"),
        ];
        for (line, expect) in cases {
            let err = ServeRequest::parse_line(line).unwrap_err();
            assert!(matches!(err, StoreError::InvalidRequest(_)), "{line} → {err}");
            assert!(err.to_string().contains(expect), "{line} → {err}");
        }
    }

    #[test]
    fn id_becomes_default_query_id() {
        let req = ServeRequest::parse_line(r#"{"mode":"join","id":"cities"}"#).unwrap();
        assert_eq!(req.id.as_deref(), Some("cities"));
        assert_eq!(req.query_id, "cities");
    }

    #[test]
    fn response_json_is_parseable_and_complete() {
        let resp = DiscoveryResponse {
            mode: QueryMode::Join,
            query_id: "q\"uote".into(),
            corpus_size: 42,
            elapsed_micros: 137,
            hits: vec![
                TableHit { table_id: "t1".into(), matching_columns: 2, score: 0.25 },
                TableHit { table_id: "t2".into(), matching_columns: 1, score: 1.5 },
            ],
            explanations: Some(vec![
                HitExplanation {
                    table_id: "t1".into(),
                    matches: vec![ColumnMatch {
                        query_column: "city".into(),
                        corpus_column: "town".into(),
                        distance: 0.125,
                    }],
                },
                HitExplanation { table_id: "t2".into(), matches: vec![] },
            ]),
            profile: None,
        };
        let line = response_json(&resp);
        let v = parse_json(&line).expect("serializer emits valid JSON");
        assert_eq!(v.get("query").unwrap().as_str(), Some("q\"uote"));
        assert_eq!(v.get("corpus").unwrap().as_f64(), Some(42.0));
        let Json::Arr(hits) = v.get("hits").unwrap() else { panic!() };
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].get("rank").unwrap().as_f64(), Some(1.0));
        assert_eq!(hits[0].get("table").unwrap().as_str(), Some("t1"));
        let Json::Arr(ex) = v.get("explanations").unwrap() else { panic!() };
        let Json::Arr(matches) = ex[0].get("matches").unwrap() else { panic!() };
        assert_eq!(matches[0].get("corpus_column").unwrap().as_str(), Some("town"));
    }

    #[test]
    fn error_json_tags_kind_and_client() {
        let line = error_json(&StoreError::invalid("k must be >= 1"));
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("invalid_request"));
        assert_eq!(v.get("client").unwrap().as_bool(), Some(true));

        let line = error_json(&StoreError::corrupt("TSFMSEG1", "boom"));
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("corrupt"));
        assert_eq!(v.get("client").unwrap().as_bool(), Some(false));
        assert!(v.get("error").unwrap().get("file").is_none(), "unattributed: no file field");

        // File-attributed corruption carries file + offset for operators.
        let stamped = StoreError::corrupt("TSFMSEG1", "checksum mismatch")
            .with_file(std::path::Path::new("/lake/segments/t1.seg"), 96);
        let v = parse_json(&error_json(&stamped)).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("file").unwrap().as_str(), Some("/lake/segments/t1.seg"));
        assert_eq!(err.get("offset").unwrap().as_f64(), Some(96.0));

        let line = error_json(&StoreError::internal("worker panicked"));
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("internal"));
        assert_eq!(v.get("client").unwrap().as_bool(), Some(false));
    }
}
