//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is read off the sorted raw
//! samples, never off a bucketed histogram (`disparity_obs::Histogram`
//! reports power-of-two bucket ceilings, which are accurate only to 2x).

/// Sorts samples ascending (NaN-free input; `total_cmp` keeps it total).
#[must_use]
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`
/// samples, with the number of samples strictly beyond its rank.
fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let r = rank(sorted.len(), p);
    Some((sorted[r - 1], sorted.len() - r))
}

/// The median (nearest rank) of ascending samples.
///
/// # Errors
///
/// When there are no samples.
pub fn median(sorted: &[f64]) -> Result<f64, String> {
    nearest_rank(sorted, 50.0)
        .map(|(v, _)| v)
        .ok_or_else(|| "no samples".to_string())
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of ascending samples, refused unless at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it. A run too short for
/// its tail percentile fails; it never falls back to a lower percentile.
///
/// # Errors
///
/// When there are too few samples for `p`.
pub fn tail(sorted: &[f64], p: f64) -> Result<f64, String> {
    match nearest_rank(sorted, p) {
        Some((v, beyond)) if beyond >= TAIL_MIN_BEYOND => Ok(v),
        _ => Err(format!(
            "p{p} needs at least {TAIL_MIN_BEYOND} samples beyond it; {} sample(s) give {}",
            sorted.len(),
            nearest_rank(sorted, p).map_or(0, |(_, b)| b)
        )),
    }
}

/// The smallest sample count whose nearest-rank percentile `p` has
/// [`TAIL_MIN_BEYOND`] samples beyond it (1000 for p99, 200 for p95).
#[must_use]
pub fn tail_min_samples(p: f64) -> usize {
    if !(p > 0.0 && p < 100.0) {
        return usize::MAX;
    }
    (TAIL_MIN_BEYOND..)
        .find(|&n| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// First quartile, median and third quartile of ascending values, by the
/// same rule as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so repeat-mode spreads match an outside check.
///
/// # Errors
///
/// With fewer than two values.
pub fn quartiles(sorted: &[f64]) -> Result<[f64; 3], String> {
    let n = sorted.len();
    if n < 2 {
        return Err(format!("quartiles need at least 2 values, got {n}"));
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = i + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_of_a_uniform_ramp_are_exact() {
        let s = uniform(1000);
        assert_eq!(median(&s).unwrap(), 500.0);
        assert_eq!(tail(&s, 99.0).unwrap(), 990.0);
        assert_eq!(tail(&s, 95.0).unwrap(), 950.0);
        // Not a power-of-two ceiling: 990 sits between 512 and 1024.
        assert!(tail(&s, 99.0).unwrap() < 1023.0);
    }

    #[test]
    fn exponential_quantiles_match_the_closed_form() {
        // Deterministic inverse-CDF sample of Exp(mean = 100).
        let n = 100_000;
        let s = sorted(
            (0..n)
                .map(|i| -100.0 * (1.0 - (i as f64 + 0.5) / n as f64).ln())
                .collect(),
        );
        let want_p50 = 100.0 * 2f64.ln();
        let want_p99 = 100.0 * 100f64.ln();
        assert!((median(&s).unwrap() - want_p50).abs() / want_p50 < 1e-3);
        assert!((tail(&s, 99.0).unwrap() - want_p99).abs() / want_p99 < 1e-3);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond; of 999 only 9.
        assert!(tail(&uniform(1000), 99.0).is_ok());
        let err = tail(&uniform(999), 99.0).unwrap_err();
        assert!(err.contains("at least 10"), "{err}");
        assert!(tail(&uniform(200), 95.0).is_ok());
        assert!(tail(&uniform(199), 95.0).is_err());
        assert!(tail(&[], 99.0).is_err());
        assert!(median(&[]).is_err());
    }

    #[test]
    fn tail_sample_minimums() {
        assert_eq!(tail_min_samples(99.0), 1000);
        assert_eq!(tail_min_samples(95.0), 200);
        assert_eq!(tail_min_samples(100.0), usize::MAX);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&uniform(10)).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&uniform(2)).unwrap(), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = sorted(vec![3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!(quartiles(&s).unwrap(), [1.0, 3.0, 4.5]);
        assert!(quartiles(&[1.0]).is_err());
    }
}
