//! Order statistics over latency samples.

/// Sorts a copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or a ratio of positive numbers).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (mean of the two middle samples for an even count); 0 when
/// there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest order statistic of `xs` that still has at least ten
/// samples above it (the 11th largest). With fewer than 22 samples that
/// would fall below the median, so the median is returned instead.
pub fn tail(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    if v.len() < 22 {
        return median(xs);
    }
    v[v.len() - 11]
}

/// Percentile rank (0–100) of [`tail`] for `n` samples, for the sample
/// count line printed beside each result.
pub fn tail_rank(n: usize) -> f64 {
    if n < 22 {
        50.0
    } else {
        100.0 * (n - 10) as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        // Ten samples (21..=30) lie above the tail.
        assert_eq!(tail(&xs), 20.0);
        assert_eq!(tail(&xs[..10]), median(&xs[..10]));
    }
}
