//! Order statistics over samples the driver collects.

/// Nearest-rank percentile of an unsorted sample (`p` in `0..=1`).
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median with the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles `statistics.quantiles(values, n=4)` gives
/// (the exclusive method): the spread figure the A/A criterion uses.
/// Fewer than two values have no spread.
pub fn relative_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let n = sorted.len();
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / mid).abs()
}

/// Standard deviation over mean (0 for fewer than two values).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt() / mean
}

/// One op of the measured window.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// When the op ended, in seconds from the window's start.
    pub end_s: f64,
    /// How long the op took.
    pub dur_s: f64,
    /// The driver's whole turn of the loop: op, output check, collector
    /// drain. The calibration tick that follows is not in it.
    pub busy_s: f64,
    /// How much slower than the reference host the calibration kernel
    /// ran around this op.
    pub slowdown: f64,
}

impl OpSample {
    /// The op's duration in ms on the reference host.
    pub fn norm_ms(&self) -> f64 {
        self.dur_s * 1e3 / self.slowdown
    }
}

/// The window cut into `slices` equal parts, with the ops that ended in
/// each. An op ending exactly on the window's end belongs to the last.
pub fn slice_ops(samples: &[OpSample], window_s: f64, slices: usize) -> Vec<Vec<OpSample>> {
    let mut out = vec![Vec::new(); slices];
    for s in samples {
        let idx = ((s.end_s / window_s) * slices as f64) as usize;
        out[idx.min(slices - 1)].push(*s);
    }
    out
}

/// Ops per second of each slice, on the reference host: ops over the
/// time the driver's loop spent on them, each turn divided by the
/// host's slowdown at the time. Empty slices are left out.
pub fn slice_rates(samples: &[OpSample], window_s: f64, slices: usize) -> Vec<f64> {
    slice_ops(samples, window_s, slices)
        .iter()
        .filter(|ops| !ops.is_empty())
        .map(|ops| ops.len() as f64 / ops.iter().map(|s| s.busy_s / s.slowdown).sum::<f64>())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.9), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn relative_iqr_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[7.0]), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_slow_slice() {
        // 10 ops/s everywhere except a stalled second slice.
        let mut samples = Vec::new();
        for slice in 0..5 {
            let n = if slice == 1 { 2 } else { 10 };
            for i in 0..n {
                samples.push(OpSample {
                    end_s: slice as f64 + (i as f64 + 0.5) / n as f64,
                    dur_s: 0.1,
                    busy_s: if slice == 1 { 0.5 } else { 0.1 },
                    slowdown: 1.0,
                });
            }
        }
        let rates = slice_rates(&samples, 5.0, 5);
        for (got, want) in rates.iter().zip([10.0, 2.0, 10.0, 10.0, 10.0]) {
            assert!((got - want).abs() < 1e-9, "{rates:?}");
        }
        assert!((median(&rates) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn op_on_window_end_lands_in_last_slice() {
        let s = [OpSample {
            end_s: 5.0,
            dur_s: 1.0,
            busy_s: 1.0,
            slowdown: 1.0,
        }];
        let cut = slice_ops(&s, 5.0, 5);
        assert_eq!(cut[4].len(), 1);
    }

    #[test]
    fn a_slow_host_is_divided_out() {
        // The same program on a host that is 1.5x slower for the whole
        // window: every op takes 1.5x as long and the kernel says so.
        let on = |slowdown: f64| -> Vec<OpSample> {
            (0..50)
                .map(|i| OpSample {
                    end_s: (i + 1) as f64 * 0.1 * slowdown,
                    dur_s: 0.09 * slowdown,
                    busy_s: 0.1 * slowdown,
                    slowdown,
                })
                .collect()
        };
        let (quiet, busy) = (on(1.0), on(1.5));
        assert!((quiet[7].norm_ms() - busy[7].norm_ms()).abs() < 1e-9);
        let rate = |s: &[OpSample]| median(&slice_rates(s, s[s.len() - 1].end_s, 5));
        assert!((rate(&quiet) - rate(&busy)).abs() < 1e-9);
        assert!((rate(&quiet) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cv_of_constant_sample_is_zero() {
        assert_eq!(coefficient_of_variation(&[2.0, 2.0, 2.0]), 0.0);
        assert!(coefficient_of_variation(&[1.0, 3.0]) > 0.0);
    }
}
