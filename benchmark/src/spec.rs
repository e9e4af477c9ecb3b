//! `BENCHMARK.json`: the declared workloads, metrics and bounds.

use std::fs;
use std::path::Path;

use coyote_telemetry::{parse_json, JsonValue};

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &JsonValue, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    list.iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("a `{key}` entry lacks `{field}`"))
            };
            Ok(MetricSpec {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                higher_is_better: match text("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

impl BenchSpec {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed part.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("`workloads` is not an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "a workload lacks `name`".to_owned())
            })
            .collect::<Result<_, _>>()?;
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("`run_seconds` is not a whole number")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse error, prefixed with the path.
    pub fn load(path: &Path) -> Result<BenchSpec, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}
