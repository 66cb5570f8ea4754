//! Order statistics with one estimator for every number the benchmark
//! reports: latency and per-layer percentiles interpolate exactly as the
//! run-to-run quartiles that judge the benchmark do. The one exception
//! is readings the program itself truncated to whole microseconds (see
//! [`quantile_truncated`]).
//!
//! The estimator is the "exclusive" method of Python's
//! `statistics.quantiles` (its default): the `p`-quantile of `n` sorted
//! values sits at 1-based rank `p·(n+1)`, interpolated linearly between
//! the neighbouring values, with the rank clamped to `[1, n-1]` so the
//! two ends extrapolate exactly as Python does. A spread computed here
//! therefore matches one computed from the same values in Python.

/// The `p`-quantile (`0 < p < 1`) of `values`, which need not be sorted.
/// `None` for an empty slice; a single value is its own quantile.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted[..] {
        [] => None,
        [only] => Some(only),
        _ => {
            let n = sorted.len();
            let h = p * (n + 1) as f64;
            // 1-based lower neighbour rank, clamped like Python's.
            let j = (h.floor() as usize).clamp(1, n - 1);
            let delta = h - j as f64;
            let (lo, hi) = (sorted[j - 1], sorted[j]);
            Some(lo + delta * (hi - lo))
        }
    }
}

/// The `p`-quantile of whole-microsecond readings that truncate the true
/// value (a reading of `k` means a value in `[k, k+1)`): the grouped-data
/// estimate that spreads each reading uniformly over its unit bin and
/// interpolates the cumulative count. Unlike [`quantile`] it is not stuck
/// on whole numbers when many readings tie. `None` for an empty slice.
pub fn quantile_truncated(readings: &[u64], p: f64) -> Option<f64> {
    let mut sorted = readings.to_vec();
    sorted.sort_unstable();
    let target = p * sorted.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let k = sorted[i];
        let count = sorted[i..].iter().take_while(|&&v| v == k).count();
        if (below + count) as f64 >= target {
            return Some(k as f64 + (target - below as f64) / count as f64);
        }
        below += count;
        i += count;
    }
    sorted.last().map(|&k| k as f64 + 1.0)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1.0)
    }

    // Reference values printed by Python 3.11:
    // `statistics.quantiles(d, n=4)`, `quantiles(d, n=20)[18]` (p95) and
    // `quantiles(d, n=100)[49]` (p50).
    const CASES: [(&[f64], [f64; 3], f64, f64); 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
            10.45,
            5.5,
        ),
        (
            &[3.5, 1.25, 9.0, 2.0, 7.0, 7.0, 4.5],
            [2.0, 4.5, 7.0],
            10.2,
            4.5,
        ),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5], 5.7, 3.0),
        (&[10.0, 20.0], [7.5, 15.0, 22.5], 28.5, 15.0),
    ];

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        for (data, q, _, _) in CASES {
            for (p, want) in [0.25, 0.5, 0.75].into_iter().zip(q) {
                let got = quantile(data, p).unwrap();
                assert!(close(got, want), "{data:?} at {p}: got {got}, want {want}");
            }
        }
    }

    #[test]
    fn percentiles_match_python_including_extrapolation() {
        for (data, _, p95, p50) in CASES {
            assert!(close(quantile(data, 0.95).unwrap(), p95), "{data:?} p95");
            assert!(close(quantile(data, 0.50).unwrap(), p50), "{data:?} p50");
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[4.0], 0.95), Some(4.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn truncated_readings_interpolate_within_their_bins() {
        // Four readings of 3 µs (values in [3, 4)) and one of 5 µs: half
        // the mass lies below 3 + 2.5/4.
        assert!(close(
            quantile_truncated(&[3, 5, 3, 3, 3], 0.5).unwrap(),
            3.625
        ));
        assert!(close(
            quantile_truncated(&[3, 5, 3, 3, 3], 0.95).unwrap(),
            5.75
        ));
        assert!(close(quantile_truncated(&[7], 0.5).unwrap(), 7.5));
        assert_eq!(quantile_truncated(&[], 0.5), None);
    }

    #[test]
    fn large_samples_interpolate_inside_the_data() {
        let data: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank 0.95 * 201 = 190.95 → between the 190th and 191st values.
        assert!(close(quantile(&data, 0.95).unwrap(), 190.95));
        assert!(close(quantile(&data, 0.50).unwrap(), 100.5));
    }
}
