//! Order statistics with the benchmark's reporting rules.
//!
//! * A percentile is reported only when at least [`MIN_BEYOND`] samples
//!   lie beyond it, so a p99 needs 1000 samples and a p50 needs 20.
//! * A timing repeated across several measurements is reported as its
//!   median with the interquartile range and the sample count.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support the `q` quantile (`q` in `[0, 1)`): at
/// least [`MIN_BEYOND`] of them lie strictly above its rank.
pub fn supports(n: usize, q: f64) -> bool {
    let beyond = (n as f64 * (1.0 - q)).floor() as usize;
    beyond >= MIN_BEYOND
}

/// The `q` quantile of `values` (nearest rank on the sorted samples), or
/// `None` when the sample does not support it (see [`supports`]).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if !supports(values.len(), q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(rank(&sorted, q))
}

/// The `q` quantile of already sorted, non-empty samples (nearest rank).
fn rank(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The `q` percentile of each consecutive window of `values` in arrival
/// order, every window at least 1000 long (so that even a p99 is
/// supported in each); `None` for fewer than 1000 values.
pub fn window_percentiles(values: &[f64], q: f64) -> Option<Vec<f64>> {
    let window_min = 100 * MIN_BEYOND;
    let windows = values.len() / window_min;
    if windows == 0 {
        return None;
    }
    let size = values.len() / windows;
    Some(
        values
            .chunks(size)
            .filter(|c| c.len() >= window_min)
            .filter_map(|c| percentile(c, q))
            .collect(),
    )
}

/// The `q` percentile of a run read across its windows (see
/// [`window_percentiles`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// The median of the per-window values: the figure reported.
    pub median: f64,
    /// Interquartile range of the per-window values over their median.
    pub spread: f64,
    /// Least-squares change of the per-window values from the first
    /// window to the last, over their median: positive when later windows
    /// are worse, as when a backlog builds up during the run.
    pub trend: f64,
    /// Number of windows.
    pub windows: usize,
}

/// The windowed reading of the `q` percentile; `None` for fewer than
/// 1000 values. A stall of the machine that disturbs fewer than half of
/// the windows does not move the median; a change in the program that
/// disturbs half of them or more does, and one that grows over the run
/// shows in the trend.
pub fn windowed(values: &[f64], q: f64) -> Option<Windowed> {
    let w = window_percentiles(values, q)?;
    let s = Spread::of(&w)?;
    let scale = s.median.abs().max(f64::MIN_POSITIVE);
    Some(Windowed {
        median: s.median,
        spread: (s.q3 - s.q1) / scale,
        trend: slope(&w) * (w.len() - 1) as f64 / scale,
        windows: w.len(),
    })
}

/// `values` as median, interquartile range and count, for the report.
pub fn describe(values: &[f64], unit: &str) -> String {
    match Spread::of(values) {
        Some(s) => format!(
            "median {:.6} {unit}, IQR [{:.6}, {:.6}], n = {}",
            s.median, s.q1, s.q3, s.n
        ),
        None => "no samples".to_string(),
    }
}

/// Median, quartiles and count of a set of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of measurements.
    pub n: usize,
}

impl Spread {
    /// The spread of `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Spread> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = interpolated(&sorted, 0.5);
        Some(Spread {
            median,
            q1: interpolated(&sorted, 0.25),
            q3: interpolated(&sorted, 0.75),
            n: sorted.len(),
        })
    }
}

/// Linear interpolation between closest ranks (the median of an even
/// count is the mean of the middle pair).
fn interpolated(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    Spread::of(values).map_or(0.0, |s| s.median)
}

/// Least-squares slope of `ys` against their index (0 for fewer than two
/// points). Used as the backlog-growth test: a bounded backlog has a
/// slope near zero.
pub fn slope(ys: &[f64]) -> f64 {
    let n = ys.len();
    if n < 2 {
        return 0.0;
    }
    let mean_x = (n - 1) as f64 / 2.0;
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let (mut num, mut den) = (0.0, 0.0);
    for (i, y) in ys.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(percentile(&vec![1.0; 999], 0.99).is_none());
        assert!(percentile(&vec![1.0; 1000], 0.99).is_some());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert!(!supports(19, 0.5));
        assert!(supports(20, 0.5));
    }

    #[test]
    fn nearest_rank_leaves_ten_samples_beyond_p99() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 0.99).expect("supported");
        assert_eq!(p99, 990.0);
        assert_eq!(values.iter().filter(|&&v| v > p99).count(), MIN_BEYOND);
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        assert!(windowed(&[1.0; 999], 0.99).is_none());
        let mut values = vec![1.0; 5000];
        // A stall in one window of five does not move the reading.
        for v in &mut values[0..100] {
            *v = 50.0;
        }
        assert_eq!(percentile(&values, 0.99), Some(50.0));
        assert_eq!(
            window_percentiles(&values, 0.99),
            Some(vec![50.0, 1.0, 1.0, 1.0, 1.0])
        );
        let w = windowed(&values, 0.99).expect("five windows");
        assert_eq!((w.median, w.windows), (1.0, 5));
        // Slower in three windows of five: the reading moves.
        for start in [1000, 2000, 3000] {
            for v in &mut values[start..start + 100] {
                *v = 3.0;
            }
        }
        assert_eq!(windowed(&values, 0.99).map(|w| w.median), Some(3.0));
    }

    #[test]
    fn a_growing_latency_shows_as_a_positive_trend() {
        // Every window slower than the last, as under a growing backlog.
        let growing: Vec<f64> = (0..5000).map(|i| 1.0 + (i / 1000) as f64).collect();
        let w = windowed(&growing, 0.5).expect("five windows");
        assert_eq!(w.median, 3.0);
        assert!((w.trend - 4.0 / 3.0).abs() < 1e-12, "{w:?}");
        assert!(w.spread > 0.0);
        let flat = windowed(&vec![2.0; 5000], 0.99).expect("five windows");
        assert_eq!((flat.trend, flat.spread), (0.0, 0.0));
    }

    #[test]
    fn spread_matches_python_inclusive_quartiles() {
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let even = Spread::of(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn slope_of_flat_and_growing_series() {
        assert_eq!(slope(&[3.0, 3.0, 3.0]), 0.0);
        assert!((slope(&[0.0, 2.0, 4.0, 6.0]) - 2.0).abs() < 1e-12);
    }
}
