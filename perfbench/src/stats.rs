//! The benchmark's own arithmetic: medians, quartiles, tail
//! percentiles and the unexplained-latency subtraction.

/// Median of `xs` (the mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method, which extrapolates past the ends of very small samples).
/// With fewer than two values every quartile is that value.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        let delta = k as f64 / 4.0 - j as f64;
        *q = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    out
}

/// The run-to-run spread the benchmark is judged by: the distance
/// between the quartiles as a share of the median.
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small slack keeps decimal percentiles such as 99.9, which binary
/// floating point holds slightly high, from rounding up a whole rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Percentiles a latency report may use, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`LADDER`] that leaves at least ten of
/// `n` samples strictly above its rank, so the tail it reports rests
/// on more than one or two outliers. `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| n >= rank(p, n) + 10)
}

/// Percentile `p`, lowered to the highest supported one when `n` is
/// too small to carry it (see [`highest_supported_percentile`]).
/// Returns the percentile actually used and its value.
pub fn tail(sorted: &[f64], p: f64) -> (f64, f64) {
    let used = highest_supported_percentile(sorted.len()).map_or(50.0, |h| h.min(p));
    (used, percentile(sorted, used))
}

/// Latency a request spends outside the parts the benchmark can price:
/// `p50_us` minus `hops` one-way loopback hops (half a measured
/// round trip each) minus `layers_ns`, the summed cost of the layer
/// calls timed in isolation.
pub fn unexplained_us(p50_us: f64, hops: u32, rtt_us: f64, layers_ns: f64) -> f64 {
    p50_us - f64::from(hops) * rtt_us / 2.0 - layers_ns / 1000.0
}

/// Indices of the samples taken while the hypervisor stole no more of
/// the host's CPU than at the median sample (`steal_pct` holds each
/// sample's share): every sample on a quiet host, at least half of them
/// on a busy one. A stolen CPU stalls every thread waiting to be woken
/// on it, so these samples time the program rather than its neighbours.
pub fn quiet(steal_pct: &[f64]) -> Vec<usize> {
    let m = median(steal_pct);
    (0..steal_pct.len())
        .filter(|&i| steal_pct[i] <= m)
        .collect()
}

/// The values of `xs` at `idx`.
pub fn pick(xs: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|&i| xs[i]).collect()
}

/// `(b / a - 1) * 100`: how much larger `b` is than `a`, in percent.
pub fn pct_over(a: f64, b: f64) -> f64 {
    (b / a - 1.0) * 100.0
}

/// Median of seven timings, each `f()` of one batch of calls: the
/// layer micro-timings use it so one preempted batch cannot skew them.
pub fn median_of_batches(f: impl FnMut() -> f64) -> f64 {
    let times: Vec<f64> = std::iter::repeat_with(f).take(7).collect();
    median(&times)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_samples_at_or_below_the_median_steal() {
        assert_eq!(quiet(&[0.0, 0.0, 0.0]), [0, 1, 2]);
        assert_eq!(quiet(&[5.0, 0.0, 12.0, 1.0]), [1, 3]);
        assert_eq!(quiet(&[3.0, 9.0, 1.0, 3.0, 20.0]), [0, 2, 3]);
        assert_eq!(pick(&[10.0, 20.0, 30.0], &[2, 0]), [30.0, 10.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[4.0, 4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn tail_lowers_an_unsupported_percentile() {
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&small, 99.0), (90.0, 180.0));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big, 99.0), (99.0, 1980.0));
    }

    #[test]
    fn unexplained_subtracts_hops_and_layers() {
        // 300us p50, 4 one-way hops of a 40us round trip, 2500ns of
        // layer calls: 300 - 80 - 2.5.
        assert!((unexplained_us(300.0, 4, 40.0, 2500.0) - 217.5).abs() < 1e-9);
        assert!((unexplained_us(100.0, 5, 40.0, 0.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn percent_over_base() {
        assert!((pct_over(100.0, 110.0) - 10.0).abs() < 1e-9);
        assert!((pct_over(100.0, 95.0) + 5.0).abs() < 1e-9);
    }
}
