//! Summary statistics for host timings and pooled simulated latencies.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank `p`-quantile (`0 < p < 1`), reported only when at least
/// [`MIN_BEYOND`] samples lie above it; `None` means refused.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Rank of the nearest-rank quantile: ceil(p·n), 1-based.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (n >= rank && n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// 64-bit FNV-1a digest of a string (the digest printed per run).
pub fn digest(s: &str) -> u64 {
    diknn_snap::fingerprint(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // ceil(0.95·200) = 190: samples 191..=200 lie beyond, exactly ten.
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&v[..199], 0.95), None);
    }

    #[test]
    fn p50_and_p90_thresholds() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
    }

    #[test]
    fn refuses_on_empty_input() {
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 0.5), Some(20.0));
    }
}
