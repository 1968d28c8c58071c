//! Order statistics for latency samples.

/// Median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller has at least one pass.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `samples` (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail latency and the percentile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// The percentile (100 means the maximum).
    pub percentile: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it. With fewer than 40 samples no ladder step
/// qualifies and the upper quartile is reported (percentile 75): the
/// maximum of a dozen long calls is one outlier, not a tail.
///
/// A fixed ladder, rather than "exactly ten samples beyond", keeps the
/// reported percentile the same across runs whose sample counts differ
/// by a pass or two.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    for p in TAIL_LADDER {
        if n as f64 * (1.0 - p / 100.0) >= 10.0 {
            return Tail { value: quantile(samples, p / 100.0), percentile: p, samples: n };
        }
    }
    Tail { value: quantile(samples, 0.75), percentile: 75.0, samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(tail(&few), Tail { value: 8.25, percentile: 75.0, samples: 12 });
        let many: Vec<f64> = (0..300).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!(t.percentile, 95.0);
        assert!(many.iter().filter(|&&v| v > t.value).count() >= 10);
    }
}
