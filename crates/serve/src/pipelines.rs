//! Named-pipeline registry: load declarative augmentation pipelines at
//! startup from a TOML file and serve them through the `augment` op.
//!
//! Mirrors [`crate::registry::ModelRegistry`]: a `BTreeMap` read
//! through a plain `Arc` with no locking — [`AugPipeline`] execution is
//! `&self` and every stochastic choice derives from the request's
//! `(seed, index)`, so concurrent batch workers never contend.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use tsda_augment::declarative::{AugPipeline, PipelineConfig};
use tsda_core::TsdaError;

/// All pipelines served by one server instance, keyed by name.
#[derive(Default)]
pub struct PipelineRegistry {
    pipelines: BTreeMap<String, Arc<AugPipeline>>,
}

impl std::fmt::Debug for PipelineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineRegistry").field("names", &self.names()).finish()
    }
}

impl PipelineRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a parsed config (names are unique post-parse).
    pub fn from_config(cfg: &PipelineConfig) -> Result<Self, TsdaError> {
        let mut reg = Self::new();
        for p in AugPipeline::from_config(cfg)? {
            reg.insert(p);
        }
        Ok(reg)
    }

    /// Parse and build from TOML text.
    pub fn from_toml(text: &str) -> Result<Self, TsdaError> {
        Self::from_config(&PipelineConfig::parse(text)?)
    }

    /// Load from a TOML file.
    pub fn from_file(path: &Path) -> Result<Self, TsdaError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| TsdaError::Io(format!("read {}: {e}", path.display())))?;
        Self::from_toml(&text)
    }

    /// Insert a pipeline under its name (replacing any previous holder).
    pub fn insert(&mut self, pipeline: AugPipeline) {
        self.pipelines.insert(pipeline.name().to_string(), Arc::new(pipeline));
    }

    /// Look up a pipeline by name.
    pub fn get(&self, name: &str) -> Option<&Arc<AugPipeline>> {
        self.pipelines.get(name)
    }

    /// `(name, pipeline)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Arc<AugPipeline>)> {
        self.pipelines.iter()
    }

    /// Pipeline names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.pipelines.keys().cloned().collect()
    }

    /// Number of registered pipelines.
    pub fn len(&self) -> usize {
        self.pipelines.len()
    }

    /// True when no pipelines are registered.
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// Listing payload (merged into observability output).
    pub fn describe(&self) -> Value {
        Value::Array(
            self.pipelines
                .values()
                .map(|p| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(p.name().to_string())),
                        ("stages".into(), Value::Num(p.n_stages() as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
[pipeline]
name = "light"

[[stage]]
choose = ["jitter", "scaling"]
prob = 0.8

[pipeline]
name = "heavy"

[[stage]]
choose = ["time_warp"]

[[stage]]
choose = ["noise_3", "masking"]
prob = 0.5
"#;

    #[test]
    fn loads_and_lists_pipelines() {
        let reg = PipelineRegistry::from_toml(TOML).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["heavy".to_string(), "light".to_string()]);
        assert!(reg.get("light").is_some());
        assert!(reg.get("nope").is_none());
        let listing = serde_json::to_string(&reg.describe()).unwrap();
        assert!(listing.contains("\"heavy\""));
    }

    #[test]
    fn bad_toml_is_a_typed_error() {
        let err = PipelineRegistry::from_toml("[pipeline]\nname = \"p\"\n").unwrap_err();
        assert!(matches!(err, TsdaError::Parse { .. }), "{err:?}");
        let err = PipelineRegistry::from_file(Path::new("/nonexistent/p.toml")).unwrap_err();
        assert!(matches!(err, TsdaError::Io(_)), "{err:?}");
    }
}
