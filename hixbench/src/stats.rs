//! Order statistics for the reported latencies, on
//! `hix_obs::percentile_sorted_pm`'s nearest-rank rule.

/// Percentile `pm` (per mille) of an unsorted, non-negative sample; 0
/// for an empty one. Non-negative floats sort like their bit patterns,
/// so the sample is ranked as `u64`s.
fn percentile_pm(values: &[f64], pm: u32) -> f64 {
    let mut bits: Vec<u64> = values
        .iter()
        .map(|v| {
            debug_assert!(v.is_sign_positive(), "negative sample {v}");
            v.to_bits()
        })
        .collect();
    bits.sort_unstable();
    hix_obs::percentile_sorted_pm(&bits, pm).map_or(0.0, f64::from_bits)
}

pub fn median(values: &[f64]) -> f64 {
    percentile_pm(values, 500)
}

/// The 10th percentile: the time a step takes outside the host's slow
/// phases, which can cover most of a run (see NOTES.md).
pub fn p10(values: &[f64]) -> f64 {
    percentile_pm(values, 100)
}

/// The tail: the highest percentile (in steps of 0.1) with at least ten
/// samples beyond it. Returns `(percentile, value)`; with 20 samples or
/// fewer no percentile above the median qualifies and the median is
/// returned.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let pm = (500..1000)
        .rev()
        .find(|pm| n >= n * *pm as usize / 1000 + 11)
        .unwrap_or(500);
    (f64::from(pm) / 10.0, percentile_pm(values, pm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (98.9, 990.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (89.9, 90.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }
}
