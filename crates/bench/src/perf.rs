//! Machine-readable performance records: one flat JSON object per file,
//! string values for metadata (tool, git revision, checksums) and numeric
//! values for metrics. `perf_gate` compares these against committed
//! baselines under `results/baselines/`, and `threads_sweep` emits the
//! same format next to its markdown table so every perf
//! artifact in `results/` is diffable by the same tooling.
//!
//! The encoding reuses the trace crate's JSON writer and reader (flat
//! objects only), so no new serialization surface is introduced. Files are
//! pretty-printed one key per line to keep committed-baseline diffs
//! reviewable.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use trace::json::{self, Json};
use trace::Value;

/// Format-version stamp written into every metric file.
pub const METRIC_SCHEMA_VERSION: i64 = 1;

/// A flat set of named metrics plus string metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricFile {
    /// String context: tool name, git revision, checksums, thread counts.
    pub meta: BTreeMap<String, String>,
    /// Numeric measurements keyed by metric name.
    pub metrics: BTreeMap<String, f64>,
}

impl MetricFile {
    /// A new record stamped with the schema version, emitting tool and
    /// current git revision.
    pub fn new(tool: &str) -> Self {
        let mut m = MetricFile::default();
        m.meta
            .insert("schema".into(), METRIC_SCHEMA_VERSION.to_string());
        m.meta.insert("tool".into(), tool.to_string());
        m.meta
            .insert("git".into(), trace::manifest::git_describe().to_string());
        m
    }

    /// Set a numeric metric (non-finite values are stored as 0 with a
    /// poisoned marker suffix in meta, so baselines never carry NaN).
    pub fn set(&mut self, key: &str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(key.to_string(), value);
        } else {
            self.meta
                .insert(format!("{key}.non_finite"), value.to_string());
            self.metrics.insert(key.to_string(), 0.0);
        }
    }

    /// Set a metadata string.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.insert(key.to_string(), value.into());
    }

    /// Look up a metric.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// Serialize as a pretty-printed flat JSON object (meta first, then
    /// metrics, both alphabetical).
    pub fn to_json(&self) -> String {
        format!("{{\n{}\n}}\n", self.members("  ", ": ", ",\n"))
    }

    /// Every field as `"key"<colon>value`, each after `indent`, joined by
    /// `sep`: meta first, then metrics, both alphabetical.
    fn members(&self, indent: &str, colon: &str, sep: &str) -> String {
        let meta = self.meta.iter().map(|(k, v)| (k, Value::Str(v.clone())));
        let metrics = self.metrics.iter().map(|(k, v)| (k, Value::Float(*v)));
        let mut out = String::new();
        for (i, (k, v)) in meta.chain(metrics).enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(indent);
            json::write_str(&mut out, k);
            out.push_str(colon);
            json::write_value(&mut out, &v);
        }
        out
    }

    /// Parse a metric file back: string values become meta, numbers become
    /// metrics, booleans/nulls are rejected (nothing here emits them).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let pairs = json::parse_object(text.trim(), 0)?;
        let mut m = MetricFile::default();
        for (k, v) in pairs {
            match v {
                Json::Str(s) => {
                    m.meta.insert(k, s);
                }
                Json::Int(i) => {
                    m.metrics.insert(k, i as f64);
                }
                Json::Float(f) => {
                    m.metrics.insert(k, f);
                }
                other => return Err(format!("unexpected value for {k}: {other:?}")),
            }
        }
        Ok(m)
    }

    /// Write to `path`, creating parent directories.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Load from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        Self::from_json(&text)
    }

    /// Append this record as one JSON line to a trajectory file (the
    /// run-over-run history `perf_gate` accumulates under `results/`).
    pub fn append_to_trajectory(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let line = format!("{{{}}}", self.members("", ":", ","));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{line}")
    }
}

/// Outcome of comparing one metric against its baseline.
#[derive(Debug, Clone)]
pub struct Deviation {
    /// Metric name.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Permitted upper bound (`baseline * band` or `baseline + abs`).
    pub limit: f64,
}

/// A per-metric tolerance: the current value fails when it exceeds
/// `baseline * ratio + slack` (regressions only — a *lower* value is an
/// improvement, reported separately so stale baselines get refreshed).
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Multiplicative headroom over the baseline (1.5 = +50%).
    pub ratio: f64,
    /// Additive slack in the metric's own unit, absorbing noise when the
    /// baseline is tiny (e.g. a 0.2 ms kernel total).
    pub slack: f64,
}

impl Band {
    /// The largest non-regressing value for a given baseline.
    pub fn limit(&self, baseline: f64) -> f64 {
        baseline * self.ratio + self.slack
    }
}

/// Compare every metric present in **both** files against its band.
/// Returns `(regressions, improvements)`; metrics only on one side are
/// ignored (workload drift is guarded by the meta comparison, not here).
/// `scale` multiplies every band's ratio headroom — CI passes >1 to
/// absorb shared-runner noise.
pub fn compare(
    baseline: &MetricFile,
    current: &MetricFile,
    band_for: impl Fn(&str) -> Option<Band>,
    scale: f64,
) -> (Vec<Deviation>, Vec<Deviation>) {
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    for (key, &base) in &baseline.metrics {
        let Some(cur) = current.get(key) else {
            continue;
        };
        let Some(band) = band_for(key) else {
            continue;
        };
        let scaled = Band {
            ratio: 1.0 + (band.ratio - 1.0) * scale,
            slack: band.slack * scale,
        };
        let limit = scaled.limit(base);
        let d = Deviation {
            key: key.clone(),
            baseline: base,
            current: cur,
            limit,
        };
        if cur > limit {
            regressions.push(d);
        } else if base > scaled.slack && cur < base / scaled.ratio - scaled.slack {
            improvements.push(d);
        }
    }
    (regressions, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut m = MetricFile::new("perf_gate");
        m.set("wall_ms", 123.456);
        m.set("allocations", 257.0);
        m.set_meta("checksum", "0xdeadbeef");
        let text = m.to_json();
        let back = MetricFile::from_json(&text).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.meta["tool"], "perf_gate");
        assert_eq!(back.get("wall_ms"), Some(123.456));
    }

    #[test]
    fn non_finite_metrics_are_marked_not_written() {
        let mut m = MetricFile::new("t");
        m.set("bad", f64::NAN);
        let text = m.to_json();
        assert!(!text.contains("null"), "{text}");
        let back = MetricFile::from_json(&text).unwrap();
        assert_eq!(back.get("bad"), Some(0.0));
        assert!(back.meta.contains_key("bad.non_finite"));
    }

    #[test]
    fn compare_flags_regressions_and_improvements() {
        let mut base = MetricFile::new("t");
        base.set("wall_ms", 100.0);
        base.set("allocations", 200.0);
        base.set("untracked", 1.0);
        let mut cur = MetricFile::new("t");
        cur.set("wall_ms", 180.0); // +80% > +50% band
        cur.set("allocations", 40.0); // big improvement
        cur.set("untracked", 900.0); // no band -> ignored
        let band = |k: &str| match k {
            "wall_ms" | "allocations" => Some(Band {
                ratio: 1.5,
                slack: 1.0,
            }),
            _ => None,
        };
        let (reg, imp) = compare(&base, &cur, band, 1.0);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].key, "wall_ms");
        assert!(reg[0].current > reg[0].limit);
        assert_eq!(imp.len(), 1);
        assert_eq!(imp[0].key, "allocations");
    }

    #[test]
    fn tolerance_scale_widens_bands() {
        let mut base = MetricFile::new("t");
        base.set("wall_ms", 100.0);
        let mut cur = MetricFile::new("t");
        cur.set("wall_ms", 180.0);
        let band = |_: &str| {
            Some(Band {
                ratio: 1.5,
                slack: 0.0,
            })
        };
        let (reg, _) = compare(&base, &cur, band, 1.0);
        assert_eq!(reg.len(), 1);
        // scale 2: ratio headroom 0.5 -> 1.0, limit 200 -> passes.
        let (reg, _) = compare(&base, &cur, band, 2.0);
        assert!(reg.is_empty());
    }

    #[test]
    fn trajectory_appends_one_line_per_run() {
        let dir = std::env::temp_dir().join(format!("perf-traj-{}", std::process::id()));
        let path = dir.join("BENCH_trajectory.jsonl");
        let mut m = MetricFile::new("perf_gate");
        m.set("wall_ms", 5.0);
        m.append_to_trajectory(&path).unwrap();
        m.set("wall_ms", 6.0);
        m.append_to_trajectory(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = MetricFile::from_json(lines[0]).unwrap();
        assert_eq!(first.get("wall_ms"), Some(5.0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
