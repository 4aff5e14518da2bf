//! Order statistics and the open-loop send schedule.
//!
//! Every figure the benchmark publishes goes through these helpers, so
//! their rules live in one place: medians and quartiles as Python's
//! `statistics` module computes them, a percentile only when at least
//! [`MIN_BEYOND`] samples lie beyond it, and Poisson arrivals drawn from
//! the workload seed.

use rand::rngs::StdRng;
use rand::RngCore;

/// Samples that must lie beyond a percentile before it is published.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(v, n=4)` (the default "exclusive"
/// method). A single value is its own quartiles; an empty slice gives
/// zeros.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let num = (i + 1) * m;
        // Clamp as Python does: the interpolation index stays inside
        // 1..n-1 so both neighbours exist.
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Whether `n` samples support percentile `p` (0..100): at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    // Integer arithmetic in thousandths of a percent, so that 1000
    // samples at p99 count exactly 10 beyond rather than 9.99...
    let beyond_milli = n as u128 * (100_000 - (p * 1000.0).round() as u128);
    beyond_milli >= (MIN_BEYOND as u128) * 100_000
}

/// Nearest-rank percentile `p` of `v`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    if v.is_empty() || !supports(v.len(), p) {
        return None;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// The highest of the usual tail percentiles that `v` supports, as
/// `(percentile, value)`; `None` when not even the median is supported.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(v, p).map(|x| (p, x)))
}

/// Largest value, 0 for an empty slice.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Sum of `v`.
pub fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Mean of `v`, 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        sum(v) / v.len() as f64
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Open-loop send times (seconds from the phase start) for independent
/// users arriving as a Poisson process of `rate` per second over
/// `duration` seconds. The gaps are exponential draws from `rng`, so the
/// same seed gives the same schedule.
pub fn poisson_schedule(rate: f64, duration: f64, rng: &mut StdRng) -> Vec<f64> {
    assert!(
        rate > 0.0 && duration > 0.0,
        "rate and duration must be > 0"
    );
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // Uniform in (0, 1]: 53 random bits, shifted off zero.
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(supports(10_000, 99.9));
        assert!(!supports(9_999, 99.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_on_rate() {
        let a = poisson_schedule(500.0, 20.0, &mut StdRng::seed_from_u64(7));
        let b = poisson_schedule(500.0, 20.0, &mut StdRng::seed_from_u64(7));
        let c = poisson_schedule(500.0, 20.0, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t > 0.0 && t < 20.0));
        // 10 000 expected arrivals: the count's standard deviation is 100.
        assert!((9_500..=10_500).contains(&a.len()), "{}", a.len());
        // Exponential gaps: the median gap is ln 2 / rate.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let want = std::f64::consts::LN_2 / 500.0;
        assert!((median(&gaps) / want - 1.0).abs() < 0.05);
    }
}
