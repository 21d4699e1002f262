//! Order statistics the ledger reports: medians, the quiet-host quantile
//! and the segment-median tail percentile.

/// Samples that must lie beyond a reported tail percentile: with fewer,
/// the percentile is an extreme value, not an estimate.
pub const BEYOND: usize = 10;

/// The quantile that stands for a closed-loop, CPU-bound operation's
/// time (its complement for a rate). On a shared host interference only
/// ever *adds* time, in bursts that last seconds and cover a third or
/// more of a run, so the median of such an operation moves by 10–15 %
/// between identical runs while its first decile moves by half that (see
/// the README's repeatability table). Open-loop latencies, which are
/// mostly waiting, keep the median.
pub const QUIET: f64 = 0.1;

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q ∈ [0, 1]` of `values` by linear interpolation between
/// order statistics; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail percentile estimated per segment and summarised across them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median across segments of the per-segment percentile.
    pub value: f64,
    /// The percentile each segment supports, in `[0, 1)`.
    pub q: f64,
    /// Full segments used.
    pub segments: usize,
    /// Samples used (segments × segment length).
    pub samples: usize,
}

/// The highest percentile of each consecutive `segment`-sample run that
/// still has [`BEYOND`] samples above it (p99 for 1 000-sample
/// segments), reported as the median across full segments. A trailing
/// partial segment is dropped; when there is no full segment the whole
/// sample is one segment. `None` when that leaves no sample with
/// [`BEYOND`] above it.
pub fn segment_tail(samples: &[f64], segment: usize) -> Option<Tail> {
    let seg = if samples.len() >= segment && segment > 0 {
        segment
    } else {
        samples.len()
    };
    if seg <= BEYOND {
        return None;
    }
    let per_segment: Vec<f64> = samples
        .chunks_exact(seg)
        .map(|chunk| {
            let mut v = chunk.to_vec();
            v.sort_by(f64::total_cmp);
            v[seg - 1 - BEYOND]
        })
        .collect();
    Some(Tail {
        value: median(&per_segment),
        q: (seg - BEYOND) as f64 / seg as f64,
        segments: per_segment.len(),
        samples: per_segment.len() * seg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, QUIET), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.5);
        assert_eq!(quantile(&v, 1.0), 10.0);
        // Eight relabel passes: the first decile sits between the two
        // fastest, so one lucky pass does not decide it.
        let passes = [1.2, 1.0, 1.3, 1.1, 1.5, 1.4, 1.25, 1.35];
        assert!((quantile(&passes, QUIET) - 1.07).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p99_of_a_thousand_leaves_exactly_ten_beyond() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = segment_tail(&samples, 1000).unwrap();
        assert_eq!(t.value, 989.0);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), BEYOND);
        assert!((t.q - 0.99).abs() < 1e-12);
        assert_eq!((t.segments, t.samples), (1, 1000));
    }

    #[test]
    fn tail_is_the_median_of_full_segments_and_drops_the_partial_one() {
        // Three full segments whose p99s are 989, 1989+1000 and 2989, plus
        // a partial fourth holding a huge outlier that must not count.
        let mut samples: Vec<f64> = (0..3000).map(f64::from).collect();
        samples[1989] = 5000.0; // lifts the middle segment's tail only
        samples.extend([1e9; 500]);
        let t = segment_tail(&samples, 1000).unwrap();
        assert_eq!(t.segments, 3);
        assert_eq!(t.samples, 3000);
        assert_eq!(t.value, 1990.0);
    }

    #[test]
    fn short_samples_use_one_segment_or_refuse() {
        // 60 rounds: the highest percentile with ten beyond is p83.
        let rounds: Vec<f64> = (0..60).map(f64::from).collect();
        let t = segment_tail(&rounds, 1000).unwrap();
        assert_eq!(t.value, 49.0);
        assert!((t.q - 50.0 / 60.0).abs() < 1e-12);
        assert!(segment_tail(&rounds[..10], 1000).is_none());
        assert!(segment_tail(&[], 1000).is_none());
    }
}
