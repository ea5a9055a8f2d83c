//! The JSON layer of the experiment runner's output: a hand-rolled JSON
//! value, its one printer (`JsonWriter`) and parser, and the JSON form of
//! every per-run record — runs, latency summaries, sketches, time series,
//! fabric stats, profiles and Chrome traces. The result artefacts built
//! from these records (fleet objects, cluster/chain arrays, CSV) are laid
//! out by [`crate::artefact`]. Everything is deliberately boring and fully
//! deterministic so that exported artefacts are diffable and pinnable by
//! golden tests:
//!
//! * **field order is fixed** — JSON objects preserve the declaration order
//!   of the result structs;
//! * **float formatting is fixed** — finite floats print via Rust's
//!   shortest-round-trip formatter (`{}`), which is a pure function of the
//!   bit pattern, so bit-identical results (what the fleet's
//!   parallel-vs-sequential invariant guarantees) export to byte-identical
//!   text; durations and timestamps are exported as integer nanoseconds;
//! * **no external dependencies** — the workspace is offline; like the
//!   vendored criterion shim, the JSON layer is a minimal hand-rolled
//!   value type with a writer *and* a parser, so round-trip validation
//!   (`apc-cli validate`) needs nothing but this crate.
//!
//! # Example
//!
//! ```
//! use apc_analysis::export::{run_result_json, JsonValue};
//! use apc_server::config::ServerConfig;
//! use apc_server::sim::run_experiment;
//! use apc_sim::SimDuration;
//! use apc_workloads::spec::WorkloadSpec;
//!
//! let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(5));
//! let result = run_experiment(config, WorkloadSpec::memcached_etc(), 10_000.0);
//! let text = run_result_json(&result).to_pretty_string();
//! // The export round-trips through the bundled parser.
//! let parsed = JsonValue::parse(&text).unwrap();
//! assert_eq!(parsed.get("config").and_then(JsonValue::as_str), Some("CPC1A"));
//! assert!(parsed.get("completed_requests").and_then(JsonValue::as_u64).unwrap() > 0);
//! ```

use std::io;

use apc_network::NetworkStats;
use apc_power::units::Watts;
use apc_server::result::RunResult;
use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::PackageCState;
use apc_telemetry::latency::{LatencyRecorder, LatencySummary};
use apc_telemetry::sketch::{QuantileSketch, SketchParts};
use apc_telemetry::timeseries::{TimeSeries, TimeSeriesSample};
use apc_trace::{ProfileReport, TraceLog};

/// A JSON value with insertion-ordered objects.
///
/// Only what the exporters need: numbers are either integers (durations in
/// nanoseconds, counters) or floats (powers, rates, fractions); objects
/// preserve the order keys were inserted in, which is what makes the
/// serialised form deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (exported counters and nanosecond durations).
    Int(i64),
    /// An unsigned integer that may exceed `i64` (seeds).
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience: an empty object builder.
    #[must_use]
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects; the exporters
    /// only build objects through this).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: JsonValue) -> &mut Self {
        match self {
            JsonValue::Object(entries) => entries.push((key.to_owned(), value)),
            other => panic!("JsonValue::push on non-object {other:?}"),
        }
        self
    }

    /// Looks a key up in an object (`None` for absent keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for non-arrays).
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; `None` for non-numbers).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a `u64` (`None` for non-integers and negatives).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as a string slice (`None` for non-strings).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned-integer member `key` of an object, or an error naming
    /// the record (`what`) and the key.
    pub fn u64_member(&self, what: &str, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{what}: missing or non-integer `{key}`"))
    }

    /// The numeric member `key` of an object, or an error naming the record
    /// (`what`) and the key.
    pub fn f64_member(&self, what: &str, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{what}: missing or non-number `{key}`"))
    }

    /// Serialises compactly (no whitespace).
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        self.print(JsonWriter::compact(Vec::new()))
    }

    /// Serialises with 2-space indentation and one key per line — the form
    /// the golden tests pin and `apc-cli --format json` emits.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        self.print(JsonWriter::pretty(Vec::new()))
    }

    fn print(&self, mut json: JsonWriter<Vec<u8>>) -> String {
        let in_memory = "writing to memory cannot fail";
        json.value(self).expect(in_memory);
        String::from_utf8(json.finish().expect(in_memory)).expect("JSON text is UTF-8")
    }
}

/// An object with the given members, in order.
impl<const N: usize> From<[(&str, JsonValue); N]> for JsonValue {
    fn from(members: [(&str, JsonValue); N]) -> Self {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }
}

/// The one JSON printer: it serialises [`JsonValue`] trees
/// ([`JsonValue::to_pretty_string`], [`JsonValue::to_compact_string`]) and
/// writes documents incrementally into any [`io::Write`] — open a
/// container, write its members as they become available, close it later.
/// The artefact writers in [`crate::artefact`] stream results this way, so
/// a streamed document and a serialised tree are the same bytes because
/// they come from the same code.
///
/// Pretty output puts every member on its own line, indented two spaces
/// per open container, and ends the document with a newline; empty
/// containers print as `[]` / `{}`. Every method propagates the underlying
/// writer's errors.
#[derive(Debug)]
pub(crate) struct JsonWriter<W> {
    out: W,
    pretty: bool,
    /// Closing bracket and member count of every open container, innermost
    /// last.
    open: Vec<(u8, usize)>,
    /// A key was just written: the next value completes its member.
    after_key: bool,
}

impl<W: io::Write> JsonWriter<W> {
    /// A pretty-printing writer.
    pub fn pretty(out: W) -> Self {
        JsonWriter {
            out,
            pretty: true,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// A compact writer (no whitespace).
    pub fn compact(out: W) -> Self {
        JsonWriter {
            pretty: false,
            ..JsonWriter::pretty(out)
        }
    }

    /// Opens an object as the next value.
    pub fn begin_object(&mut self) -> io::Result<()> {
        self.begin(b'{', b'}')
    }

    /// Opens an array as the next value.
    pub fn begin_array(&mut self) -> io::Result<()> {
        self.begin(b'[', b']')
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics if no container is open.
    pub fn end(&mut self) -> io::Result<()> {
        let (close, members) = self.open.pop().expect("a JSON container is open");
        if members > 0 {
            self.newline()?;
        }
        self.out.write_all(&[close])
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> io::Result<()> {
        self.member()?;
        write_json_string(&mut self.out, key)?;
        self.out.write_all(if self.pretty { b": " } else { b":" })?;
        self.after_key = true;
        Ok(())
    }

    /// Writes every member of `object` into the open object (a non-object
    /// writes nothing).
    pub fn members(&mut self, object: &JsonValue) -> io::Result<()> {
        if let JsonValue::Object(entries) = object {
            for (key, value) in entries {
                self.key(key)?;
                self.value(value)?;
            }
        }
        Ok(())
    }

    /// Writes a whole value.
    pub fn value(&mut self, value: &JsonValue) -> io::Result<()> {
        match value {
            JsonValue::Array(items) => {
                self.begin_array()?;
                for item in items {
                    self.value(item)?;
                }
                return self.end();
            }
            JsonValue::Object(_) => {
                self.begin_object()?;
                self.members(value)?;
                return self.end();
            }
            _ => self.member()?,
        }
        match value {
            JsonValue::Null => self.out.write_all(b"null"),
            JsonValue::Bool(b) => self.out.write_all(if *b { b"true" } else { b"false" }),
            JsonValue::Int(i) => write!(self.out, "{i}"),
            JsonValue::UInt(u) => write!(self.out, "{u}"),
            JsonValue::Float(f) => write_f64(&mut self.out, *f),
            JsonValue::Str(s) => write_json_string(&mut self.out, s),
            JsonValue::Array(_) | JsonValue::Object(_) => Ok(()),
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Ends the document (a pretty one with a newline), flushes and returns
    /// the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        debug_assert!(self.open.is_empty(), "unclosed JSON container");
        if self.pretty {
            self.out.write_all(b"\n")?;
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn begin(&mut self, open: u8, close: u8) -> io::Result<()> {
        self.member()?;
        self.open.push((close, 0));
        self.out.write_all(&[open])
    }

    /// Starts the next value: right after its key, or as the next member of
    /// the open container (separated from the previous one and, pretty, on
    /// its own line).
    fn member(&mut self) -> io::Result<()> {
        if std::mem::take(&mut self.after_key) {
            return Ok(());
        }
        let Some((_, members)) = self.open.last_mut() else {
            return Ok(());
        };
        *members += 1;
        if *members > 1 {
            self.out.write_all(b",")?;
        }
        self.newline()
    }

    fn newline(&mut self) -> io::Result<()> {
        if self.pretty {
            self.out.write_all(b"\n")?;
            for _ in 0..self.open.len() {
                self.out.write_all(b"  ")?;
            }
        }
        Ok(())
    }
}

/// Deterministic float formatting: Rust's shortest-round-trip `{}` for
/// finite values (a pure function of the bit pattern, with `.0` appended to
/// integral values so floats stay visibly floats), `null` for non-finite
/// values (JSON has no NaN/Inf).
fn write_f64(out: &mut impl io::Write, v: f64) -> io::Result<()> {
    if !v.is_finite() {
        return out.write_all(b"null");
    }
    // `{}` prints integral values without a fraction and never uses an
    // exponent.
    write!(out, "{v}")?;
    if v.fract() == 0.0 {
        out.write_all(b".0")?;
    }
    Ok(())
}

fn write_json_string(out: &mut impl io::Write, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    // Every escaped character is ASCII, so plain runs end on char
    // boundaries.
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.write_all(&bytes[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_all(escape)?;
        }
        run = i + 1;
    }
    out.write_all(&bytes[run..])?;
    out.write_all(b"\"")
}

/// A JSON parse error: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a JSON document (strict: exactly one value, nothing but
    /// whitespace after it). Numbers parse to [`JsonValue::Int`] when they
    /// are integral and fit, else [`JsonValue::Float`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text:?}")))
        }
    }

    /// Maximum container nesting. The parser recurses per nesting level, so
    /// without a bound a hostile `[[[[…` input overflows the stack (an
    /// abort, not a `JsonError`); our own exports nest 4 levels deep.
    const MAX_DEPTH: usize = 128;

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > Self::MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&c) = rest.first() else {
                return Err(self.error("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .copied()
                        .ok_or_else(|| self.error("unterminated escape sequence"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            // Exactly four hex digits — `from_str_radix`
                            // alone would also accept a leading sign.
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not needed by our own exports;
                            // map unpaired ones to the replacement char.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or backslash
                    // in one slice. Both are ASCII, so the run ends on a
                    // char boundary of the `&str` input.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    s.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Consumes a run of ASCII digits, erroring when none are present —
    /// JSON requires at least one digit in every numeric part.
    fn digits(&mut self, part: &str) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(&format!("expected a digit in the {part} of a number")));
        }
        Ok(self.pos - start)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits("integer part")?;
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            return Err(JsonError {
                message: "leading zeros are not allowed".to_owned(),
                offset: int_start,
            });
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits("fraction part")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent")?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError {
                message: format!("invalid number {text:?}"),
                offset: start,
            })
    }
}

// ---- result -> JSON ----------------------------------------------------

/// A latency summary as an object of nanosecond integers.
#[must_use]
pub fn latency_json(l: &LatencySummary) -> JsonValue {
    use JsonValue::UInt;
    JsonValue::from([
        ("count", UInt(l.count as u64)),
        ("mean_ns", UInt(l.mean.as_nanos())),
        ("p50_ns", UInt(l.p50.as_nanos())),
        ("p95_ns", UInt(l.p95.as_nanos())),
        ("p99_ns", UInt(l.p99.as_nanos())),
        ("p999_ns", UInt(l.p999.as_nanos())),
        ("max_ns", UInt(l.max.as_nanos())),
    ])
}

/// One run's full result as an object (field order mirrors [`RunResult`]'s
/// declaration order; durations in integer nanoseconds, powers in watts).
/// The `timeseries` key appears only when the run recorded one.
#[must_use]
pub fn run_result_json(r: &RunResult) -> JsonValue {
    use JsonValue::{Float, Str, UInt};
    let mut o = JsonValue::from([
        ("config", Str(r.config_name.to_owned())),
        ("workload", Str(r.workload.to_owned())),
        ("offered_rate_rps", Float(r.offered_rate)),
        ("duration_ns", UInt(r.duration.as_nanos())),
        ("completed_requests", UInt(r.completed_requests)),
        ("throughput_rps", Float(r.throughput())),
        ("latency", latency_json(&r.latency)),
        ("avg_soc_power_w", Float(r.avg_soc_power.as_f64())),
        ("avg_dram_power_w", Float(r.avg_dram_power.as_f64())),
        ("cpu_utilization", Float(r.cpu_utilization)),
        ("cc0_fraction", Float(r.cc0_fraction)),
        ("cc1_fraction", Float(r.cc1_fraction)),
        ("cc6_fraction", Float(r.cc6_fraction)),
        ("all_idle_fraction", Float(r.all_idle_fraction)),
        ("pc1a_residency", Float(r.pc1a_residency)),
        ("pc6_residency", Float(r.pc6_residency)),
        ("pc1a_transitions", UInt(r.pc1a_transitions)),
        ("pc1a_aborted", UInt(r.pc1a_aborted)),
        ("pc6_transitions", UInt(r.pc6_transitions)),
        ("idle_periods", UInt(r.idle_periods)),
        ("idle_periods_20_200us", Float(r.idle_periods_20_200us)),
        ("events_dispatched", UInt(r.events_dispatched)),
    ]);
    if let Some(ts) = &r.timeseries {
        o.push("timeseries", timeseries_json(ts));
    }
    if let Some(profile) = &r.profile {
        o.push("profile", profile_report_json(profile));
    }
    o
}

/// Rebuilds a [`RunResult`] from the [`run_result_json`] form plus the
/// state that form does not carry: the run's latency sketch (checkpoints
/// store it beside the run, under a `sketch` key) and its end-of-timeline
/// stamp. The summary facade is re-derived *from the sketch* — never
/// parsed — so a reconstructed result renders byte-identically to the
/// original through every exporter; the JSON's own `latency` block is
/// checked against the re-derivation and a mismatch is rejected
/// (a corrupted or hand-edited checkpoint, not a format variant).
///
/// # Errors
///
/// Returns a description of the first missing, malformed or inconsistent
/// field. Results carrying a `profile` are rejected — profiles are not
/// round-trippable and sharded sweeps refuse `--profile` up front.
pub fn run_result_from_json(
    v: &JsonValue,
    sketch: QuantileSketch,
    finished_at: SimTime,
) -> Result<RunResult, String> {
    let u64_field = |key| v.u64_member("run", key);
    let f64_field = |key| v.f64_member("run", key);
    let config_name = match v.get("config").and_then(JsonValue::as_str) {
        Some("Cshallow") => "Cshallow",
        Some("Cdeep") => "Cdeep",
        Some("CPC1A") => "CPC1A",
        Some(other) => return Err(format!("run: unknown platform config `{other}`")),
        None => return Err("run: missing or non-string `config`".to_owned()),
    };
    let workload = match v.get("workload").and_then(JsonValue::as_str) {
        Some("memcached") => "memcached",
        Some("kafka") => "kafka",
        Some("mysql") => "mysql",
        Some(other) => return Err(format!("run: unknown workload `{other}`")),
        None => return Err("run: missing or non-string `workload`".to_owned()),
    };
    if v.get("profile").is_some() {
        return Err("run: carries a `profile`, which does not round-trip".to_owned());
    }
    let latency = LatencyRecorder::from_sketch(sketch.clone()).summary();
    // Compare rendered text, not `JsonValue` structure: the parser reads
    // integers that fit as `Int` while the exporter builds `UInt`.
    let printed = v.get("latency").map_or_else(
        || JsonValue::Null.to_compact_string(),
        JsonValue::to_compact_string,
    );
    if latency_json(&latency).to_compact_string() != printed {
        return Err("run: `latency` summary does not match its sketch".to_owned());
    }
    let timeseries = v
        .get("timeseries")
        .map(timeseries_from_json)
        .transpose()
        .map_err(|e| format!("run: {e}"))?;
    Ok(RunResult {
        config_name,
        workload,
        offered_rate: f64_field("offered_rate_rps")?,
        duration: SimDuration::from_nanos(u64_field("duration_ns")?),
        completed_requests: u64_field("completed_requests")?,
        latency,
        latency_sketch: sketch,
        avg_soc_power: Watts(f64_field("avg_soc_power_w")?),
        avg_dram_power: Watts(f64_field("avg_dram_power_w")?),
        cpu_utilization: f64_field("cpu_utilization")?,
        cc0_fraction: f64_field("cc0_fraction")?,
        cc1_fraction: f64_field("cc1_fraction")?,
        cc6_fraction: f64_field("cc6_fraction")?,
        all_idle_fraction: f64_field("all_idle_fraction")?,
        pc1a_residency: f64_field("pc1a_residency")?,
        pc6_residency: f64_field("pc6_residency")?,
        pc1a_transitions: u64_field("pc1a_transitions")?,
        pc1a_aborted: u64_field("pc1a_aborted")?,
        pc6_transitions: u64_field("pc6_transitions")?,
        idle_periods: u64_field("idle_periods")?,
        idle_periods_20_200us: f64_field("idle_periods_20_200us")?,
        timeseries,
        trace: None,
        profile: None,
        events_dispatched: u64_field("events_dispatched")?,
        finished_at,
    })
}

/// A quantile sketch as JSON: its parameters, the exact scalars
/// (count/sum/min/max) and the non-zero log-buckets as `[index, count]`
/// pairs. The `sum` is a `u128` and exports as a decimal *string* — JSON
/// implementations only guarantee `u64` integers. Round-trips exactly
/// through [`sketch_from_json`]: the sweep-shard checkpoint format relies
/// on `parse(sketch_json(s)) == s`, bit for bit.
#[must_use]
pub fn sketch_json(s: &QuantileSketch) -> JsonValue {
    use JsonValue::{Array, Float, Int, Str, UInt};
    let parts = s.parts();
    let buckets = parts.buckets.iter();
    JsonValue::from([
        ("relative_error", Float(parts.relative_error)),
        ("max_buckets", UInt(parts.max_buckets as u64)),
        (
            "floor_index",
            parts.floor_index.map_or(JsonValue::Null, |i| Int(i.into())),
        ),
        ("zero_count", UInt(parts.zero_count)),
        ("sum", Str(parts.sum.to_string())),
        ("min_ns", UInt(parts.min)),
        ("max_ns", UInt(parts.max)),
        (
            "buckets",
            Array(
                buckets
                    .map(|&(i, n)| Array(vec![Int(i.into()), UInt(n)]))
                    .collect(),
            ),
        ),
    ])
}

/// Rebuilds a [`QuantileSketch`] from the [`sketch_json`] form.
///
/// # Errors
///
/// Returns a description of the first malformed or inconsistent field —
/// missing keys, out-of-range parameters, unsorted buckets.
pub fn sketch_from_json(v: &JsonValue) -> Result<QuantileSketch, String> {
    let u64_field = |key| v.u64_member("sketch", key);
    let relative_error = v.f64_member("sketch", "relative_error")?;
    let floor_index = match v.get("floor_index") {
        None => return Err("sketch: missing `floor_index`".to_owned()),
        Some(JsonValue::Null) => None,
        Some(value) => Some(
            value
                .as_f64()
                .and_then(|f| {
                    let i = f as i32;
                    (f64::from(i) == f).then_some(i)
                })
                .ok_or("sketch: `floor_index` must be null or a 32-bit integer")?,
        ),
    };
    let sum = v
        .get("sum")
        .and_then(JsonValue::as_str)
        .ok_or("sketch: missing or non-string `sum`")?
        .parse::<u128>()
        .map_err(|e| format!("sketch: invalid `sum`: {e}"))?;
    let buckets =
        v.get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or("sketch: missing or non-array `buckets`")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("sketch: every bucket must be an `[index, count]` pair".to_owned())?;
                let index = match pair[0] {
                    JsonValue::Int(i) => i32::try_from(i)
                        .map_err(|_| "sketch: bucket index out of range".to_owned())?,
                    _ => return Err("sketch: bucket index must be an integer".to_owned()),
                };
                let count = pair[1]
                    .as_u64()
                    .ok_or("sketch: bucket count must be a non-negative integer")?;
                Ok((index, count))
            })
            .collect::<Result<Vec<(i32, u64)>, String>>()?;
    let parts = SketchParts {
        relative_error,
        max_buckets: usize::try_from(u64_field("max_buckets")?)
            .map_err(|_| "sketch: `max_buckets` out of range".to_owned())?,
        floor_index,
        zero_count: u64_field("zero_count")?,
        sum,
        min: u64_field("min_ns")?,
        max: u64_field("max_ns")?,
        buckets,
    };
    QuantileSketch::from_parts(&parts).map_err(|e| format!("sketch: {e}"))
}

/// Network fabric stats as an object: the topology and link parameters the
/// fabric ran with, then the traffic census (message count, total / mean /
/// maximum wire delay) and the per-link breakdown (messages, serialization
/// occupancy and store-and-forward queueing per link, indexed by link id —
/// see `apc_network::Topology::link_label` for the id → name mapping).
/// `bandwidth_bytes_per_sec` is `null` for infinite-bandwidth links; links
/// that never carried a message are omitted from `per_link`.
#[must_use]
pub fn network_stats_json(n: &NetworkStats) -> JsonValue {
    use JsonValue::{Array, Str, UInt};
    let config = &n.config;
    let per_link = n.per_link.iter().enumerate();
    JsonValue::from([
        ("topology", Str(config.topology.name().to_owned())),
        ("link_latency_ns", UInt(config.link_latency.as_nanos())),
        (
            "bandwidth_bytes_per_sec",
            config.bandwidth_bytes_per_sec.map_or(JsonValue::Null, UInt),
        ),
        ("rpc_bytes", UInt(config.rpc_bytes)),
        ("messages", UInt(n.messages)),
        ("total_wire_delay_ns", UInt(n.total_wire_delay.as_nanos())),
        ("mean_wire_delay_ns", UInt(n.mean_wire_delay().as_nanos())),
        ("max_wire_delay_ns", UInt(n.max_wire_delay.as_nanos())),
        (
            "per_link",
            Array(
                per_link
                    .filter(|(_, link)| link.messages != 0)
                    .map(|(id, link)| {
                        JsonValue::from([
                            ("link", UInt(id as u64)),
                            ("messages", UInt(link.messages)),
                            ("busy_ns", UInt(link.busy_time.as_nanos())),
                            (
                                "total_queue_delay_ns",
                                UInt(link.total_queue_delay.as_nanos()),
                            ),
                            ("max_queue_delay_ns", UInt(link.max_queue_delay.as_nanos())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A time series as `{interval_ns, samples: [...]}`; samples carry the
/// timestamp, power, queue depth and residency deltas.
#[must_use]
pub fn timeseries_json(ts: &TimeSeries) -> JsonValue {
    use JsonValue::{Array, Float, Str, UInt};
    let samples = ts.samples().iter().map(|s| {
        JsonValue::from([
            ("at_ns", UInt(s.at.as_nanos())),
            ("soc_power_w", Float(s.soc_power_w)),
            ("queue_depth", UInt(s.queue_depth as u64)),
            ("busy_cores", UInt(s.busy_cores as u64)),
            ("package_state", Str(format!("{:?}", s.package_state))),
            ("pc0_delta_ns", UInt(s.pc0_delta.as_nanos())),
            ("pc0_idle_delta_ns", UInt(s.pc0_idle_delta.as_nanos())),
            ("pc1a_delta_ns", UInt(s.pc1a_delta.as_nanos())),
            ("pc6_delta_ns", UInt(s.pc6_delta.as_nanos())),
        ])
    });
    JsonValue::from([
        ("interval_ns", UInt(ts.interval().as_nanos())),
        ("samples", Array(samples.collect())),
    ])
}

/// Rebuilds a [`TimeSeries`] from the [`timeseries_json`] form — the other
/// half of the sweep-shard checkpoint round-trip (`parse(timeseries_json(
/// ts))` reproduces `ts` exactly: every field is an integer, a
/// shortest-round-trip float or a C-state name).
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn timeseries_from_json(v: &JsonValue) -> Result<TimeSeries, String> {
    let duration = |v: &JsonValue, what, key| v.u64_member(what, key).map(SimDuration::from_nanos);
    let interval = duration(v, "timeseries", "interval_ns")?;
    if interval.is_zero() {
        return Err("timeseries: `interval_ns` must be non-zero".to_owned());
    }
    let mut ts = TimeSeries::new(interval);
    let samples = v
        .get("samples")
        .and_then(JsonValue::as_array)
        .ok_or("timeseries: missing or non-array `samples`")?;
    let mut previous_at = None;
    for s in samples {
        let at = SimTime::ZERO + duration(s, "sample", "at_ns")?;
        // `TimeSeries::push` only debug-asserts monotonicity; parsing
        // hostile input must not rely on debug assertions.
        if previous_at.is_some_and(|prev| at <= prev) {
            return Err("timeseries: sample timestamps must be strictly increasing".to_owned());
        }
        previous_at = Some(at);
        let package_state = match s.get("package_state").and_then(JsonValue::as_str) {
            Some("PC0") => PackageCState::PC0,
            Some("PC0Idle") => PackageCState::PC0Idle,
            Some("PC2") => PackageCState::PC2,
            Some("PC6") => PackageCState::PC6,
            Some("PC1A") => PackageCState::PC1A,
            Some(other) => return Err(format!("sample: unknown package state `{other}`")),
            None => return Err("sample: missing or non-string `package_state`".to_owned()),
        };
        ts.push(TimeSeriesSample {
            at,
            soc_power_w: s.f64_member("sample", "soc_power_w")?,
            queue_depth: s
                .get("queue_depth")
                .and_then(JsonValue::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("sample: missing or non-integer `queue_depth`")?,
            busy_cores: s
                .get("busy_cores")
                .and_then(JsonValue::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("sample: missing or non-integer `busy_cores`")?,
            package_state,
            pc0_delta: duration(s, "sample", "pc0_delta_ns")?,
            pc0_idle_delta: duration(s, "sample", "pc0_idle_delta_ns")?,
            pc1a_delta: duration(s, "sample", "pc1a_delta_ns")?,
            pc6_delta: duration(s, "sample", "pc6_delta_ns")?,
        });
    }
    Ok(ts)
}

/// An engine self-profile as an object: the aggregate event-core counters
/// and the per-event-kind breakdown.
#[must_use]
pub fn profile_report_json(p: &ProfileReport) -> JsonValue {
    use JsonValue::{Array, Str, UInt};
    let e = &p.engine;
    let events = p.events.iter().map(|k| {
        JsonValue::from([
            ("kind", Str(k.kind.to_owned())),
            ("scheduled", UInt(k.scheduled)),
            ("dispatched", UInt(k.dispatched)),
            ("cancelled", UInt(k.cancelled)),
        ])
    });
    let engine = JsonValue::from([
        ("scheduled", UInt(e.scheduled)),
        ("dispatched", UInt(e.dispatched)),
        ("cancelled", UInt(e.cancelled)),
        ("level0_batches", UInt(e.level0_batches)),
        ("batched_events", UInt(e.batched_events)),
        ("max_batch", UInt(e.max_batch)),
        ("overflow_hits", UInt(e.overflow_hits)),
        ("hook_calls", UInt(e.hook_calls)),
    ]);
    JsonValue::from([("engine", engine), ("events", Array(events.collect()))])
}

/// A span log as Chrome trace-event JSON (the format `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev) load directly).
///
/// Every span becomes one complete (`"ph": "X"`) event: `ts`/`dur` are the
/// span's simulated start/length in *microseconds* (the format's unit),
/// `pid` is the node (chain coordinators use the node count as a
/// pseudo-node), `tid` the lane within the node, `cat` the span kind and
/// `args.trace` the trace id. Wake spans are named after the C-state the
/// core left; every other span is named after its kind. The microsecond
/// floats are exact (`ns / 1000.0` in IEEE arithmetic) and formatted
/// shortest-round-trip, so fixed-seed traces export byte-identically.
#[must_use]
pub fn chrome_trace_json(log: &TraceLog) -> JsonValue {
    use JsonValue::{Array, Float, Str, UInt};
    let events = log.spans().iter().map(|s| {
        let name = if s.label.is_empty() {
            s.kind.name()
        } else {
            s.label
        };
        JsonValue::from([
            ("name", Str(name.to_owned())),
            ("cat", Str(s.kind.name().to_owned())),
            ("ph", Str("X".to_owned())),
            ("ts", Float(s.start.as_nanos() as f64 / 1000.0)),
            ("dur", Float(s.duration().as_nanos() as f64 / 1000.0)),
            ("pid", UInt(u64::from(s.node))),
            ("tid", UInt(u64::from(s.lane))),
            ("args", JsonValue::from([("trace", UInt(s.trace))])),
        ])
    });
    JsonValue::from([
        ("traceEvents", Array(events.collect())),
        ("displayTimeUnit", Str("ns".to_owned())),
        ("dropped_spans", UInt(log.dropped())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_is_deterministic_and_ordered() {
        let mut o = JsonValue::object();
        o.push("b", JsonValue::Int(1))
            .push("a", JsonValue::Float(2.5))
            .push("s", JsonValue::Str("x\"y".to_owned()))
            .push(
                "l",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            );
        assert_eq!(
            o.to_compact_string(),
            r#"{"b":1,"a":2.5,"s":"x\"y","l":[null,true]}"#
        );
        assert_eq!(o.to_compact_string(), o.clone().to_compact_string());
    }

    #[test]
    fn float_formatting_is_fixed() {
        let text = |v: f64| JsonValue::Float(v).to_compact_string();
        assert_eq!(text(50.18249155799904), "50.18249155799904");
        assert_eq!(
            text(4000.0),
            "4000.0",
            "integral floats keep a fractional part"
        );
        assert_eq!(text(-0.0), "-0.0");
        assert_eq!(text(1e21), "1000000000000000000000.0", "never an exponent");
        assert_eq!(text(1e-7), "0.0000001");
        assert_eq!(text(f64::NAN), "null");
        assert_eq!(text(f64::INFINITY), "null");
    }

    #[test]
    fn incremental_writing_matches_tree_serialisation() {
        let mut tree = JsonValue::object();
        tree.push("empty", JsonValue::Array(Vec::new()))
            .push("s", JsonValue::Str("a\u{1}\"é".to_owned()))
            .push(
                "rows",
                JsonValue::Array(vec![JsonValue::Int(1), JsonValue::object()]),
            );
        for pretty in [true, false] {
            let mut json = if pretty {
                JsonWriter::pretty(Vec::new())
            } else {
                JsonWriter::compact(Vec::new())
            };
            json.begin_object().unwrap();
            json.key("empty").unwrap();
            json.begin_array().unwrap();
            json.end().unwrap();
            json.key("s").unwrap();
            json.value(&JsonValue::Str("a\u{1}\"é".to_owned())).unwrap();
            json.key("rows").unwrap();
            json.begin_array().unwrap();
            json.value(&JsonValue::Int(1)).unwrap();
            json.value(&JsonValue::object()).unwrap();
            json.end().unwrap();
            json.end().unwrap();
            let text = String::from_utf8(json.finish().unwrap()).unwrap();
            let expected = if pretty {
                tree.to_pretty_string()
            } else {
                tree.to_compact_string()
            };
            assert_eq!(text, expected);
        }
        assert_eq!(
            tree.to_compact_string(),
            r#"{"empty":[],"s":"a\u0001\"é","rows":[1,{}]}"#
        );
        assert_eq!(
            tree.to_pretty_string(),
            "{\n  \"empty\": [],\n  \"s\": \"a\\u0001\\\"é\",\n  \"rows\": [\n    1,\n    {}\n  ]\n}\n"
        );
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut o = JsonValue::object();
        o.push("n", JsonValue::Int(-3))
            .push("u", JsonValue::UInt(u64::MAX))
            .push("f", JsonValue::Float(0.125))
            .push("s", JsonValue::Str("tab\t\"quote\"".to_owned()))
            .push(
                "arr",
                JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Null]),
            )
            .push("empty", JsonValue::object());
        for text in [o.to_compact_string(), o.to_pretty_string()] {
            let parsed = JsonValue::parse(&text).expect("round-trip parse");
            assert_eq!(parsed.get("n"), Some(&JsonValue::Int(-3)));
            assert_eq!(parsed.get("u"), Some(&JsonValue::UInt(u64::MAX)));
            assert_eq!(parsed.get("f"), Some(&JsonValue::Float(0.125)));
            assert_eq!(
                parsed.get("s").and_then(JsonValue::as_str),
                Some("tab\t\"quote\"")
            );
            assert_eq!(
                parsed
                    .get("arr")
                    .and_then(JsonValue::as_array)
                    .map(<[_]>::len),
                Some(2)
            );
        }
    }

    #[test]
    fn parser_round_trips_megabyte_documents() {
        // Long strings mixing plain runs, every escape the writer emits and
        // multibyte characters; the parser must stay linear in the input.
        let chunk = "plain ASCII run, \"quoted\", back\\slash, tab\t, newline\n, \
                     control\u{1}, µs → ∞, 🚀 emoji; "
            .repeat(64);
        let rows = (0..400)
            .map(|i| {
                let mut row = JsonValue::object();
                row.push("id", JsonValue::Int(i))
                    .push("label", JsonValue::Str(format!("row {i}: {chunk}")))
                    .push("tail", JsonValue::Str("é".repeat(i as usize)));
                row
            })
            .collect();
        let doc = JsonValue::Array(rows);
        for text in [doc.to_compact_string(), doc.to_pretty_string()] {
            assert!(text.len() >= 1 << 20, "document is {} bytes", text.len());
            assert_eq!(JsonValue::parse(&text).expect("round-trip parse"), doc);
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "{\"a\" 1}",
            "nul",
            // Strict number grammar: no bare dots, leading zeros, dangling
            // signs/exponents (all rejected by standard JSON parsers).
            "1.",
            ".5",
            "01",
            "-",
            "1e",
            "1e+",
            "-.5",
            // \u escapes are exactly four hex digits, no signs.
            "\"\\u+041\"",
            "\"\\u12\"",
            "\"\\uzzzz\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
        for good in ["0", "-0.5", "1e9", "10", "1.25E-3", "\"\\u0041\""] {
            assert!(JsonValue::parse(good).is_ok(), "{good:?} should parse");
        }
        // Nesting beyond the depth bound is a parse error, not a stack
        // overflow abort.
        let deep = "[".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok_depth = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&ok_depth).is_ok());
        let err = JsonValue::parse("{\"a\": \x01}").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn parser_decodes_every_escape_sequence() {
        let text = r#""q\"b\\s\/n\nr\rt\tb\bf\fu\u00e9\u20AC""#;
        assert_eq!(
            JsonValue::parse(text).expect("escapes parse"),
            JsonValue::Str("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}u\u{e9}\u{20ac}".to_owned())
        );
        // Back-to-back escapes with no plain run between them.
        assert_eq!(
            JsonValue::parse(r#""\n\n\\\"""#).expect("adjacent escapes parse"),
            JsonValue::Str("\n\n\\\"".to_owned())
        );
        assert_eq!(
            JsonValue::parse(r#""""#).expect("empty string parses"),
            JsonValue::Str(String::new())
        );
    }

    #[test]
    fn parser_maps_unpaired_surrogates_to_the_replacement_character() {
        assert_eq!(
            JsonValue::parse(r#""\ud83d""#).expect("lone high surrogate"),
            JsonValue::Str("\u{fffd}".to_owned())
        );
        assert_eq!(
            JsonValue::parse(r#""a\udc00b""#).expect("lone low surrogate"),
            JsonValue::Str("a\u{fffd}b".to_owned())
        );
    }

    #[test]
    fn parser_keeps_multibyte_characters_next_to_escapes() {
        let text = "{\"µs\": \"é\\n🚀\\\"ü\", \"∞\": [\"→\", \"\\t€\"]}";
        let parsed = JsonValue::parse(text).expect("multibyte document parses");
        assert_eq!(
            parsed.get("µs").and_then(JsonValue::as_str),
            Some("é\n🚀\"ü")
        );
        assert_eq!(
            parsed.get("∞"),
            Some(&JsonValue::Array(vec![
                JsonValue::Str("→".to_owned()),
                JsonValue::Str("\t€".to_owned()),
            ]))
        );
    }

    #[test]
    fn parser_reports_string_errors_at_their_byte_offset() {
        for (bad, message, offset) in [
            ("\"abc", "unterminated string", 4),
            ("\"ab\\", "unterminated escape sequence", 3),
            ("\"a\\qb\"", "invalid escape sequence", 4),
            ("\"\\u12\"", "invalid \\u escape", 3),
            // Offsets count bytes, so a two-byte `é` shifts the error by two.
            ("\"é\\x\"", "invalid escape sequence", 5),
            ("{\"a\": \"🚀", "unterminated string", 11),
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parser_reports_structural_errors_at_their_byte_offset() {
        for (bad, message, offset) in [
            ("[1,]", "expected a JSON value", 3),
            ("1 2", "trailing characters after the document", 2),
            ("{\"a\" 1}", "expected ':'", 5),
            ("[1 2]", "expected ',' or ']' in array", 3),
            ("{\"a\": 1 \"b\"}", "expected ',' or '}' in object", 8),
            ("{1: 2}", "expected '\"'", 1),
            ("-01", "leading zeros are not allowed", 1),
            ("tru", "expected \"true\"", 0),
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn profile_json_carries_only_engine_and_event_counters() {
        let worker = apc_trace::WorkerProfile {
            worker: 0,
            epochs: 9,
            barrier_wait_ns: 10,
            cross_wires: 11,
        };
        let report = ProfileReport {
            workers: vec![worker],
            hub_replay_ns: 12,
            ..Default::default()
        };
        let JsonValue::Object(entries) = profile_report_json(&report) else {
            panic!("profile exports as an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["engine", "events"]);
    }
}
