//! Order statistics with an honest "unsupported" answer.

/// The `q`-quantile (nearest rank) of `samples`, or `None` when fewer than
/// ten samples lie beyond that rank: a tail read off a handful of samples is
/// noise, so callers must print "unsupported" instead of a number.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median of a few repetitions (set-up times, probe repeats). Not a
/// latency percentile: no minimum sample count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was counted (a layer the workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.90), Some(90.0));
        assert_eq!(percentile(&samples, 0.50), Some(50.0));
        assert_eq!(
            percentile(&samples, 0.99),
            None,
            "only one sample beyond p99 of 100"
        );
        assert_eq!(
            percentile(&samples[..99], 0.90),
            None,
            "nine samples beyond p90 of 99"
        );
        assert_eq!(percentile(&samples[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.90), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
