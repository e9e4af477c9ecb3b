//! `compare A.json B.json`: is result set B worse than A, under the bounds
//! `BENCHMARK.json` fixes?

use coyote_telemetry::JsonValue;

use crate::spec::{BenchSpec, MetricSpec};

/// Simulated quantities. The simulator is deterministic, so between two
/// sets taken with one seed they must be equal, whatever their bound.
const SIMULATED: [&str; 2] = ["sim_cycles", "sim_ipc"];

/// How B stands against A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound (or unequal, for an exact metric).
    Worse,
    /// Within the bound, but a set's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's value (the base of the ratio).
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// One aligned table line; the ratio is B ÷ A.
    #[must_use]
    pub fn line(&self) -> String {
        let ratio = if self.a == 0.0 {
            "-".to_owned()
        } else {
            format!("{:.4}", self.b / self.a)
        };
        format!(
            "{:<22} {:<18} A={:<16.6} B={:<16.6} B/A={ratio:<8} {}",
            self.workload,
            self.metric,
            self.a,
            self.b,
            self.verdict.label()
        )
    }
}

fn workload_doc<'a>(set: &'a JsonValue, name: &str) -> Result<&'a JsonValue, String> {
    set.get("workloads")
        .and_then(JsonValue::as_array)
        .and_then(|list| {
            list.iter()
                .find(|w| w.get("workload").and_then(JsonValue::as_str) == Some(name))
        })
        .ok_or_else(|| format!("a result set lacks workload `{name}`"))
}

/// `(value, IQR ÷ value)` of one metric in a workload document.
fn reading(doc: &JsonValue, metric: &str) -> Result<(f64, f64), String> {
    let m = doc
        .get("metrics")
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("a workload lacks metric `{metric}`"))?;
    let value = m
        .get("value")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("metric `{metric}` has no value"))?;
    let stat = |key: &str| {
        m.get("stats")
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
    };
    let spread = match (stat("q1"), stat("q3")) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Ok((value, spread))
}

fn judge(metric: &MetricSpec, exact: bool, a: (f64, f64), b: (f64, f64)) -> Verdict {
    if exact {
        return if a.0 == b.0 {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    }
    let bound = metric.bound.unwrap_or(0.0);
    let worsening = if metric.higher_is_better {
        a.0 - b.0
    } else {
        b.0 - a.0
    } / a.0.abs();
    if worsening > bound {
        Verdict::Worse
    } else if a.1.max(b.1) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compares two `run --all` result sets: one row per (workload,
/// end-to-end metric), plus a `fail_share` row per workload.
///
/// # Errors
///
/// Returns an error when a set lacks a declared workload or metric.
pub fn compare(spec: &BenchSpec, a: &JsonValue, b: &JsonValue) -> Result<Vec<Row>, String> {
    let seed = |set: &JsonValue| set.get("seed").and_then(JsonValue::as_u64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let (doc_a, doc_b) = (workload_doc(a, workload)?, workload_doc(b, workload)?);
        for metric in &spec.end_to_end {
            let (ra, rb) = (reading(doc_a, &metric.name)?, reading(doc_b, &metric.name)?);
            let exact = same_seed && SIMULATED.contains(&metric.name.as_str());
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                a: ra.0,
                b: rb.0,
                verdict: judge(metric, exact, ra, rb),
            });
        }
        let fail_share = |doc: &JsonValue| {
            let count = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0) as f64;
            count("failed") / count("attempted").max(1.0)
        };
        let (fa, fb) = (fail_share(doc_a), fail_share(doc_b));
        rows.push(Row {
            workload: workload.clone(),
            metric: "fail_share".to_owned(),
            a: fa,
            b: fb,
            verdict: if fa == 0.0 && fb == 0.0 {
                Verdict::Ok
            } else {
                Verdict::Worse
            },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_owned(),
            unit: "u".to_owned(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(false, 0.10);
        assert_eq!(judge(&lower, false, (1.0, 0.0), (1.09, 0.0)), Verdict::Ok);
        assert_eq!(
            judge(&lower, false, (1.0, 0.0), (1.11, 0.0)),
            Verdict::Worse
        );
        assert_eq!(judge(&lower, false, (1.0, 0.0), (0.5, 0.0)), Verdict::Ok);
        assert_eq!(
            judge(&lower, false, (1.0, 0.2), (1.0, 0.0)),
            Verdict::Unresolved
        );
        let higher = metric(true, 0.10);
        assert_eq!(
            judge(&higher, false, (10.0, 0.0), (8.9, 0.0)),
            Verdict::Worse
        );
        assert_eq!(judge(&higher, false, (10.0, 0.0), (12.0, 0.0)), Verdict::Ok);
        assert_eq!(
            judge(&higher, true, (10.0, 0.0), (10.1, 0.0)),
            Verdict::Worse
        );
        assert_eq!(judge(&higher, true, (10.0, 0.0), (10.0, 0.0)), Verdict::Ok);
    }
}
