//! Order statistics over raw samples.
//!
//! Percentiles are nearest-rank over the sorted samples, never bucket
//! bounds: a histogram with 1-2-5 buckets cannot resolve a 10% change.

/// Nearest-rank percentile (`pct` in 0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest whole percentile that still has at least ten samples above
/// it, i.e. the highest percentile the sample count resolves; 0 when fewer
/// than eleven samples exist.
pub fn resolved_percentile(n: usize) -> u32 {
    (1..=99u32)
        .rev()
        .find(|&p| {
            let rank = ((p as f64 / 100.0) * n as f64).ceil() as usize;
            rank >= 1 && n >= rank + 10
        })
        .unwrap_or(0)
}

/// Geometric mean of positive ratios; 0 when empty.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn resolution_needs_ten_samples_beyond() {
        assert_eq!(resolved_percentile(1000), 99);
        assert_eq!(resolved_percentile(100), 90);
        assert_eq!(resolved_percentile(10), 0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
