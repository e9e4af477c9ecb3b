//! Order statistics for repeated timings.
//!
//! Every sample set is a set of *times* for one fixed piece of work. The
//! simulator is deterministic and the load is a closed loop, so a rep can
//! only be slowed — by the host, never by the program — and the fastest
//! rep is the steadiest estimate of what the code costs: on this shared
//! 2-CPU host the median of 45 reps moved by 20 % between back-to-back
//! runs of one binary while the minimum moved by 4 %. The reported
//! (gated) value is therefore the best rep; the median, quartiles and
//! tail are printed beside it.

use coyote_telemetry::JsonValue;

/// Percentiles considered for the tail figure, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Best, median, quartiles and tail of one timed quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The fastest rep: the smallest time, or the rate derived from it
    /// (the gated value).
    pub best: f64,
    /// Median.
    pub p50: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest percentile with at least ten samples beyond it, as
    /// `(percentile, value, 1-based rank)`; `None` when `n` is too small.
    pub tail: Option<(f64, f64, usize)>,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_PERCENTILES.iter().find_map(|&pct| {
            // 1-based nearest-rank position of the percentile.
            let rank = ((pct / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (pct, sorted[rank - 1], rank))
        });
        Some(Summary {
            n,
            best: sorted[0],
            p50: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail,
        })
    }

    /// Interquartile range as a share of the median.
    #[must_use]
    pub fn iqr_frac(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.p50.abs()
        }
    }

    /// The summary of `f(x)` for a monotone *decreasing* `f` (a rate
    /// derived from a time): quartiles swap, the tail is dropped.
    #[must_use]
    pub fn map_inverse(&self, f: impl Fn(f64) -> f64) -> Summary {
        Summary {
            n: self.n,
            best: f(self.best),
            p50: f(self.p50),
            q1: f(self.q3),
            q3: f(self.q1),
            tail: None,
        }
    }

    /// The summary of `k * x` for `k > 0` (a change of unit).
    #[must_use]
    pub fn scale(&self, k: f64) -> Summary {
        Summary {
            n: self.n,
            best: k * self.best,
            p50: k * self.p50,
            q1: k * self.q1,
            q3: k * self.q3,
            tail: self.tail.map(|(pct, value, rank)| (pct, k * value, rank)),
        }
    }

    /// `{n, best, p50, q1, q3, tail}` as JSON.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let tail = self.tail.map_or(JsonValue::Null, |(pct, value, rank)| {
            JsonValue::object()
                .with("percentile", pct)
                .with("value", value)
                .with("rank", rank)
        });
        JsonValue::object()
            .with("n", self.n)
            .with("best", self.best)
            .with("p50", self.p50)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("tail", tail)
    }
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.best, s.q1, s.p50, s.q3), (5, 1.0, 2.0, 3.0, 4.0));
        assert_eq!(s.tail, None);
        assert!((s.iqr_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly ten samples lie beyond.
        assert_eq!(Summary::of(&values).unwrap().tail, Some((90.0, 90.0, 90)));
        assert_eq!(Summary::of(&values[..99]).unwrap().tail, None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&many).unwrap().tail, Some((99.0, 990.0, 990)));
    }

    #[test]
    fn inverse_map_swaps_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 4.0])
            .unwrap()
            .map_inverse(|t| 8.0 / t);
        assert_eq!(
            (s.best, s.q1, s.p50, s.q3),
            (8.0, 8.0 / 3.0, 4.0, 8.0 / 1.5)
        );
    }
}
