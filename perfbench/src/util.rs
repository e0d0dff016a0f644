//! Small helpers shared by the benchmark phases: order statistics,
//! process memory, and JSON output lines.

use trace::json::{write_str, write_value};
use trace::Value;

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sample (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set size (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`; `None` when unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Number of CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON object built field by field with the trace crate's JSON
/// writer (strings escaped, non-finite numbers as `null`).
#[derive(Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        write_str(&mut self.body, k);
        self.body.push(':');
    }

    fn value(mut self, k: &str, v: Value) -> Self {
        self.key(k);
        write_value(&mut self.body, &v);
        self
    }

    /// Add a number.
    pub fn num(self, k: &str, v: f64) -> Self {
        self.value(k, Value::Float(v))
    }

    /// Add a string.
    pub fn str(self, k: &str, v: &str) -> Self {
        self.value(k, Value::Str(v.to_string()))
    }

    /// Add a boolean.
    pub fn bool(self, k: &str, v: bool) -> Self {
        self.value(k, Value::Bool(v))
    }

    /// Add already-serialized JSON.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    /// The finished object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}
