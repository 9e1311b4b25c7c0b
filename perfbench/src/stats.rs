//! Order statistics for the timing samples.

/// The percentiles a timing report may quote, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `samples` without their slowest tenth (rounded down).
///
/// The host's speed swings between a fast and a slow level every second
/// or so. Samples shorter than that fall on one level or the other, and
/// their median jumps between the levels when the mix moves a little,
/// while their mean moves in proportion. Leaving out the slowest tenth
/// drops the rare sample that a descheduling stretched.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are not NaN"));
    let kept = &sorted[..sorted.len() - sorted.len() / 10];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest percentile of the ladder that leaves at least ten samples
/// above it, with its value by the nearest-rank rule; `None` when fewer
/// than twenty samples support even the median.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are not NaN"));
    TAIL_LADDER.into_iter().find_map(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// One line describing a timing: median, the supported tail percentile
/// and the sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some((p, v)) => format!("p{p:.0} {v:.6} {unit}"),
        None => "no percentile has ten samples above it".to_string(),
    };
    format!("{name}: median {:.6} {unit}, {tail}, n = {}", median(samples), samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_the_slowest_tenth() {
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
        let mut samples: Vec<f64> = vec![1.0; 9];
        samples.push(100.0);
        assert_eq!(trimmed_mean(&samples), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_above_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
    }
}
