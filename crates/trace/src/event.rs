//! The telemetry event: one record per span close, metric flush, or
//! explicit emission, serializable to a single JSON line and parseable
//! back (see [`crate::json`]).

use std::fmt;

/// Well-known structured-event names shared by producers across the
/// workspace and by downstream consumers (sweep binaries, analysis
/// scripts), so both sides agree on spelling.
pub mod names {
    /// Per-epoch training metrics: loss, HSIC, grad norm, weight stats.
    pub const EPOCH: &str = "epoch";
    /// End-of-run tensor op-profile summary (per-op counts, peak bytes).
    pub const TENSOR_PROFILE: &str = "tensor_profile";
    /// Per-kernel parallel region timings from the deterministic pool.
    pub const TENSOR_PARALLEL: &str = "tensor_parallel";
    /// Buffer-pool memory-engine counters: hits, misses, fresh
    /// allocations, bytes served from recycled buffers.
    pub const TENSOR_MEMORY: &str = "tensor_memory";
    /// Start-of-run manifest: schema version, seed, thread count,
    /// dataset, backbone, git revision (see [`crate::manifest`]).
    pub const RUN_MANIFEST: &str = "run_manifest";
    /// End-of-run summary: wall time and peak memory high-water marks.
    pub const RUN_SUMMARY: &str = "run_summary";
    /// Perf-gate verdict: pass/fail, wall time, attribution coverage.
    pub const PERF_GATE: &str = "perf_gate";
    /// Serving-runtime drain summary: ok/shed/timeout/degraded counters.
    pub const SERVE_SUMMARY: &str = "serve_summary";
    /// Periodic serving snapshot: uptime, queue depth, in-flight count,
    /// rolling-window rates and per-stage latency quantiles, breaker
    /// state. Emitted by the serve executor so any JSONL trace replays
    /// into a time series (`serve_top` consumes these).
    pub const SERVE_STATS: &str = "serve_stats";
    /// Successful hot checkpoint reload: model, new version, path.
    pub const MODEL_RELOAD: &str = "model_reload";
    /// A TCP connection was accepted: connection id, peer address, open
    /// connection count.
    pub const SERVE_CONN_OPEN: &str = "serve_conn_open";
    /// A TCP connection closed: connection id, cause (eof / idle /
    /// slow_client / error / drain), lines read and replies written.
    pub const SERVE_CONN_CLOSE: &str = "serve_conn_close";
    /// A TCP connection was refused at the `--max-conns` admission gauge.
    pub const SERVE_CONN_SHED: &str = "serve_conn_shed";
}

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer (counters, epochs, iteration counts).
    Int(i64),
    /// Floating point (losses, norms, durations).
    Float(f64),
    /// String (names, labels).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `i64` if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `&str` if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v as f64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.abs() >= 1e-3 || *x == 0.0 {
                    write!(f, "{x:.4}")
                } else {
                    write!(f, "{x:.3e}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Kind of telemetry record. Serialized as the `kind` JSON field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span: `name` is the span path, fields carry `dur_us`/`depth`.
    Span,
    /// A counter flush: monotonically increasing total in `value`.
    Counter,
    /// A gauge flush: last set value in `value`.
    Gauge,
    /// A histogram flush: `count`/`mean`/`min`/`max`/`p50`/`p95`/`p99`.
    Hist,
    /// A free-form structured event (per-epoch training metrics, run
    /// metadata, bench results).
    Event,
}

impl EventKind {
    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Hist => "hist",
            EventKind::Event => "event",
        }
    }

    /// Parse a serialized kind name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "span" => EventKind::Span,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "hist" => EventKind::Hist,
            "event" => EventKind::Event,
            _ => return None,
        })
    }
}

/// One telemetry record. The global emitter stamps `run`, `seed` and
/// `ts_us` (microseconds since the run context was set) before the event
/// reaches any sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Record kind.
    pub kind: EventKind,
    /// Name (metric name, span path, or event type like `"epoch"`).
    pub name: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// A new event with no fields yet.
    pub fn new(kind: EventKind, name: impl Into<String>) -> Self {
        Event {
            kind,
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Append a field.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((key.into(), value.into()));
    }

    /// Look up a field by key (first match).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serialize as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"kind\":");
        crate::json::write_str(&mut out, self.kind.name());
        out.push_str(",\"name\":");
        crate::json::write_str(&mut out, &self.name);
        for (k, v) in &self.fields {
            out.push(',');
            crate::json::write_str(&mut out, k);
            out.push(':');
            crate::json::write_value(&mut out, v);
        }
        out.push('}');
        out
    }

    /// Parse an event back from a JSON line produced by [`Event::to_json`].
    pub fn from_json_line(line: &str) -> Result<Event, String> {
        let pairs = crate::json::parse_object(line, 0)?;
        let mut kind = None;
        let mut name = None;
        let mut fields = Vec::new();
        for (k, v) in pairs {
            match k.as_str() {
                "kind" => {
                    let s = v.as_str().ok_or("kind must be a string")?;
                    kind = Some(EventKind::parse(s).ok_or_else(|| format!("unknown kind {s}"))?);
                }
                "name" => name = Some(v.as_str().ok_or("name must be a string")?.to_string()),
                // `null` encodes a non-finite float; the field is dropped.
                _ => {
                    if let Some(v) = v.into_value().map_err(|e| format!("{k}: {e}"))? {
                        fields.push((k, v));
                    }
                }
            }
        }
        Ok(Event {
            kind: kind.ok_or("missing kind")?,
            name: name.ok_or("missing name")?,
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let e = Event::new(EventKind::Event, "epoch")
            .with("epoch", 3usize)
            .with("loss", 0.25f32)
            .with("note", "a \"quoted\" string\nwith newline")
            .with("converged", true);
        let line = e.to_json();
        let back = Event::from_json_line(&line).unwrap();
        assert_eq!(back.kind, EventKind::Event);
        assert_eq!(back.name, "epoch");
        assert_eq!(back.field("epoch").unwrap().as_i64(), Some(3));
        assert!((back.field("loss").unwrap().as_f64().unwrap() - 0.25).abs() < 1e-9);
        assert_eq!(
            back.field("note").unwrap().as_str(),
            Some("a \"quoted\" string\nwith newline")
        );
        assert_eq!(back.field("converged"), Some(&Value::Bool(true)));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let e = Event::new(EventKind::Gauge, "g").with("v", f64::NAN);
        let line = e.to_json();
        assert!(line.contains("null"), "{line}");
        let back = Event::from_json_line(&line).unwrap();
        // Nulls are dropped on parse.
        assert!(back.field("v").is_none());
    }
}
