//! Order statistics over pass timings.

/// The median of `values` (mean of the middle pair for an even count),
/// or `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample set: the highest order statistic that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Its rank as a percentile: the share of samples at or below it.
    pub percentile: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Samples in the set.
    pub samples: usize,
}

/// The highest percentile of `values` with at least [`TAIL_BEYOND`]
/// samples beyond it, or `None` when there are too few samples for any.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: n - 1 - rank,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_of_a_hundred_samples_is_p90() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples");
        assert_eq!(t.value, 0.0, "the minimum is the only rank with ten above");
    }

    #[test]
    fn tail_always_leaves_ten_samples_beyond_and_is_the_highest_such_rank() {
        for n in 11..400usize {
            // distinct values in a scrambled order
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&values).expect("enough samples");
            let above = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(above, TAIL_BEYOND, "n = {n}");
            // one rank higher would leave only nine beyond
            let next = values
                .iter()
                .copied()
                .filter(|&v| v > t.value)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                values.iter().filter(|&&v| v > next).count(),
                TAIL_BEYOND - 1
            );
        }
    }
}
