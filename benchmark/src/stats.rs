//! The arithmetic every reported number goes through: nearest-rank
//! percentiles over samples, and the median / min / max of the per-segment
//! values a run reports.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least `pct` percent of the samples at or below it. `None` when there
/// are no samples.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    percentile_with_failures(sorted, 0, pct)
}

/// Percentile of latency samples where `failed` further requests never
/// completed: a failed request counts as slower than every sample, so it
/// pushes the rank up and a percentile that lands among the failures is
/// `f64::INFINITY` ("missed every limit").
pub fn percentile_with_failures(sorted: &[f64], failed: usize, pct: f64) -> Option<f64> {
    let total = sorted.len() + failed;
    if total == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * total as f64).ceil() as usize;
    let idx = rank.clamp(1, total) - 1;
    Some(sorted.get(idx).copied().unwrap_or(f64::INFINITY))
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One reported metric: its value for the run — the median of the
/// per-segment values unless the metric says otherwise — with the
/// per-segment extremes printed beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Median-of-segments summary; all zero when no segment reported.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            value: median(values),
            min: values.iter().copied().reduce(f64::min).unwrap_or(0.0),
            max: values.iter().copied().reduce(f64::max).unwrap_or(0.0),
        }
    }

    /// A metric measured once per run rather than per segment.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            min: value,
            max: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 4 samples: p50 is the 2nd, p75 the 3rd, p76 the 4th.
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(percentile(&s, 75.0), Some(3.0));
        assert_eq!(percentile(&s, 76.0), Some(4.0));
    }

    #[test]
    fn failed_requests_miss_every_percentile_they_reach() {
        let s: Vec<f64> = (1..=90).map(f64::from).collect();
        // 90 completed + 10 failed: p50 and p90 are real samples, p95 is not.
        assert_eq!(percentile_with_failures(&s, 10, 50.0), Some(50.0));
        assert_eq!(percentile_with_failures(&s, 10, 90.0), Some(90.0));
        assert_eq!(percentile_with_failures(&s, 10, 95.0), Some(f64::INFINITY));
        // No failures: identical to the plain percentile.
        assert_eq!(percentile_with_failures(&s, 0, 95.0), percentile(&s, 95.0));
        assert_eq!(percentile_with_failures(&[], 0, 50.0), None);
        assert_eq!(percentile_with_failures(&[], 3, 50.0), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One outlier segment does not move the median of three.
        assert_eq!(median(&[100.0, 101.0, 5.0]), 100.0);
        let s = Summary::of(&[100.0, 101.0, 5.0]);
        assert_eq!((s.value, s.min, s.max), (100.0, 5.0, 101.0));
        let empty = Summary::of(&[]);
        assert_eq!((empty.value, empty.min, empty.max), (0.0, 0.0, 0.0));
    }
}
