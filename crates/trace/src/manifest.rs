//! Run manifests: one structured `run_manifest` event stamped at the
//! start of every training run and bench binary, recording everything
//! needed to reproduce and compare the run — schema version, seed,
//! thread count, dataset, backbone, and the git revision the
//! binary was built from.
//!
//! The manifest is the join key of the analysis tier: `trace::agg`
//! surfaces it at the top of every report, and `perf_gate` refuses to
//! compare runs whose manifests describe different workloads.

use crate::event::{names, Value};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Bump when manifest fields change incompatibly.
pub const MANIFEST_SCHEMA_VERSION: i64 = 1;

/// Builder for the `run_manifest` event. Construct with
/// [`RunManifest::new`], chain the known context, then [`emit`]
/// (no-op while no sink is attached).
///
/// [`emit`]: RunManifest::emit
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// The emitting binary or entry point (`"perf_gate"`, `"train_run"`).
    pub bin: String,
    /// Experiment seed.
    pub seed: Option<u64>,
    /// Tensor execution-layer thread count.
    pub threads: Option<usize>,
    /// Dataset name (`"TRIANGLES"`, …).
    pub dataset: Option<String>,
    /// Encoder backbone (`"Gin"`, …).
    pub backbone: Option<String>,
    /// Training epochs, when the run trains.
    pub epochs: Option<usize>,
    /// Extra `(key, value)` pairs for binary-specific context.
    pub extra: Vec<(String, Value)>,
}

impl RunManifest {
    /// A manifest for the named entry point.
    pub fn new(bin: impl Into<String>) -> Self {
        RunManifest {
            bin: bin.into(),
            seed: None,
            threads: None,
            dataset: None,
            backbone: None,
            epochs: None,
            extra: Vec::new(),
        }
    }

    /// Record the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Record the tensor execution-layer thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Record the dataset name.
    pub fn dataset(mut self, name: impl Into<String>) -> Self {
        self.dataset = Some(name.into());
        self
    }

    /// Record the encoder backbone.
    pub fn backbone(mut self, name: impl Into<String>) -> Self {
        self.backbone = Some(name.into());
        self
    }

    /// Record the number of training epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = Some(epochs);
        self
    }

    /// Attach a binary-specific field.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.extra.push((key.into(), value.into()));
        self
    }

    /// The manifest as ordered event fields (without emitting).
    pub fn fields(&self) -> Vec<(String, Value)> {
        let mut f: Vec<(String, Value)> = vec![
            ("schema".into(), MANIFEST_SCHEMA_VERSION.into()),
            ("bin".into(), self.bin.as_str().into()),
            ("git".into(), git_describe().into()),
            ("unix_secs".into(), (unix_secs() as i64).into()),
        ];
        if let Some(s) = self.seed {
            f.push(("seed".into(), s.into()));
        }
        if let Some(t) = self.threads {
            f.push(("threads".into(), t.into()));
        }
        if let Some(d) = &self.dataset {
            f.push(("dataset".into(), d.as_str().into()));
        }
        if let Some(b) = &self.backbone {
            f.push(("backbone".into(), b.as_str().into()));
        }
        if let Some(e) = self.epochs {
            f.push(("epochs".into(), e.into()));
        }
        f.extend(self.extra.iter().cloned());
        f
    }

    /// Emit the `run_manifest` event to every attached sink. No-op while
    /// recording is disabled.
    pub fn emit(&self) {
        if !crate::enabled() {
            return;
        }
        let mut e = crate::event::Event::new(crate::event::EventKind::Event, names::RUN_MANIFEST);
        for (k, v) in self.fields() {
            e.push(k, v);
        }
        crate::emit(e);
    }
}

/// `git describe --always --dirty --tags` of the working tree, cached for
/// the process lifetime; `"unknown"` when git or the repository is
/// unavailable (e.g. a deployed binary).
pub fn git_describe() -> &'static str {
    static GIT: OnceLock<String> = OnceLock::new();
    GIT.get_or_init(|| {
        Command::new("git")
            .args(["describe", "--always", "--dirty", "--tags"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn manifest_fields_are_complete_and_ordered() {
        let m = RunManifest::new("perf_gate")
            .seed(17)
            .threads(4)
            .dataset("TRIANGLES")
            .backbone("Gin")
            .epochs(6)
            .with("frac", 0.02f64);
        let fields = m.fields();
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("schema"), Some(Value::Int(MANIFEST_SCHEMA_VERSION)));
        assert_eq!(get("bin"), Some(Value::Str("perf_gate".into())));
        assert_eq!(get("seed"), Some(Value::Int(17)));
        assert_eq!(get("threads"), Some(Value::Int(4)));
        assert_eq!(get("dataset"), Some(Value::Str("TRIANGLES".into())));
        assert_eq!(get("backbone"), Some(Value::Str("Gin".into())));
        assert_eq!(get("epochs"), Some(Value::Int(6)));
        assert_eq!(get("frac"), Some(Value::Float(0.02)));
        assert!(get("git").is_some());
        assert!(get("unix_secs").is_some());
    }

    #[test]
    fn emit_reaches_sinks_and_agg_surfaces_it() {
        let _guard = crate::test_lock();
        let sink = MemorySink::shared();
        crate::attach(Box::new(sink.clone()));
        RunManifest::new("demo").seed(3).emit();
        crate::detach_all();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, names::RUN_MANIFEST);
        let a = crate::agg::analyze(&events);
        let m = a.manifest.expect("manifest surfaced");
        assert_eq!(m.field("bin").unwrap().as_str(), Some("demo"));
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }
}
