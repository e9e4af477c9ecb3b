//! The repo benchmark: five workloads, end-to-end metrics with tracing
//! off, and a separately reported traced pass whose per-layer numbers come
//! from drivers that call each crate's public functions from outside.
//!
//! `README.md` beside this crate has the workload table, the metric →
//! layer → end-to-end map and the list of public functions called here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod endtoend;
pub mod layers;
pub mod procfs;
pub mod rep;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

use coyote_telemetry::JsonValue;

use crate::stats::Summary;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported (gated) value: the best rep for timings.
    pub value: f64,
    /// Sample statistics, for timed metrics.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A timing-derived metric, reported as its best rep (see `stats`).
    #[must_use]
    pub fn timed(name: &'static str, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name,
            unit,
            value: summary.best,
            summary: Some(summary),
        }
    }

    /// A single reading: a count, a ratio of counts, or a one-shot
    /// measurement.
    #[must_use]
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    /// `{value, unit}` — the form the contract's result line uses.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("value", self.value)
            .with("unit", self.unit)
    }

    /// `{value, unit, stats}` — the form result files use.
    #[must_use]
    pub fn to_json_full(&self) -> JsonValue {
        self.to_json().with(
            "stats",
            self.summary
                .as_ref()
                .map_or(JsonValue::Null, Summary::to_json),
        )
    }

    /// One aligned table row: name, value, unit, then n/quartiles/tail.
    #[must_use]
    pub fn row(&self) -> String {
        let stats = self.summary.as_ref().map_or(String::new(), |s| {
            let tail = s.tail.map_or(String::new(), |(pct, value, rank)| {
                format!("  p{pct}={value:.6} (rank {rank})")
            });
            format!(
                "  n={} best={:.6} p50={:.6} q1={:.6} q3={:.6}{tail}",
                s.n, s.best, s.p50, s.q1, s.q3
            )
        });
        format!(
            "  {:<34} {:>16.6} {:<10}{stats}",
            self.name, self.value, self.unit
        )
    }
}
