//! Order statistics over latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency and the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile: the share of samples at or below its rank, in %.
    pub percentile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// beyond it: the `(TAIL_BEYOND + 1)`-th largest sample. When that
/// sample would sit below the median (fewer than `2 * TAIL_BEYOND + 1`
/// samples) it is no tail, so the maximum is reported instead (p100,
/// nothing beyond) and says so. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let beyond = if n > 2 * TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    let rank = n - beyond; // 1-based rank of the reported sample
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: the 11th largest is 90, with exactly 10 samples above.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_percentile_follows_sample_count() {
        // 200 samples: 10 beyond is p95, not a fixed p90.
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (190.0, 95.0, 200));
        // 21 samples: the 11th largest is the median, still a tail.
        let values: Vec<f64> = (0..21).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.beyond), (10.0, 10));
    }

    #[test]
    fn tail_falls_back_to_max_when_short() {
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (9.0, 100.0, 0));
        // 20 samples: the 11th largest would sit below the median.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&twenty).unwrap().value, 19.0);
        assert_eq!(tail(&[]), None);
    }
}
