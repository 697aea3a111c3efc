//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail latency: the nearest-rank 99th percentile, lowered until at
/// least ten samples lie beyond it, so the figure never rests on a
/// handful of outliers. With ten samples or fewer no percentile has ten
/// beyond it and the maximum is returned. 0 for an empty slice.
pub fn tail(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    s.get(tail_index(s.len())).copied().unwrap_or(0.0)
}

/// Index into `n` sorted samples of the value [`tail`] reports.
fn tail_index(n: usize) -> usize {
    if n <= 10 {
        return n.saturating_sub(1);
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    p99.min(n - 11)
}

/// The geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-300).ln()).sum();
    (log_sum / xs.len() as f64).exp()
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_medians_weights_every_kernel_equally() {
        // Two kernels at 4 and 16 MIPS: the geomean of their medians is 8,
        // however many samples each kernel contributed.
        let fast = [16.0, 15.0, 17.0, 16.0, 100.0];
        let slow = [4.0, 4.0, 3.0];
        let g = geomean(&[median(&fast), median(&slow)]);
        assert!((g - 8.0).abs() < 1e-9, "geomean {g}");
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 11..5000 {
            let i = tail_index(n);
            assert!(n - 1 - i >= 10, "n={n}: only {} beyond", n - 1 - i);
            // Never above the nearest-rank p99.
            assert!(i < (n * 99).div_ceil(100), "n={n}: index {i} above p99");
        }
        // Large samples: exactly the p99 (24k samples leave 240 beyond).
        assert_eq!(tail_index(24_000), 23_759);
        assert_eq!(tail_index(2000), 1979);
        // Small samples: the eleventh-largest value.
        assert_eq!(tail_index(300), 289);
        assert_eq!(tail_index(11), 0);
        // Too few samples for any such percentile: the maximum.
        assert_eq!(tail_index(10), 9);
        assert_eq!(tail_index(1), 0);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), 990.0);
        assert_eq!(tail(&[]), 0.0);
    }
}
