//! Order statistics used by every workload: medians, quartiles and the
//! tail percentile rule.

/// The percentile ladder tried for a tail figure, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    // The epsilon keeps float error (99.9% of 10 000 = 9990.000…2) from
    // bumping an exact rank up by one.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// A tail figure: which percentile was reported, its value and the
/// sample count it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    /// `p99`, `p95`, ... or `max` when no ladder percentile qualifies.
    pub label: String,
    /// The percentile's value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it; the maximum when the sample is too small for any.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    for p in TAIL_LADDER {
        let (value, beyond) = nearest_rank(&v, p);
        if beyond >= TAIL_MIN_BEYOND {
            return Tail {
                label: format!("p{p}"),
                value,
                n: v.len(),
            };
        }
    }
    Tail {
        label: "max".into(),
        value: v[v.len() - 1],
        n: v.len(),
    }
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p).0
}

/// Mean of `values` after dropping the lowest and highest `trim` share
/// (rounded down) of them: robust to a stalled repetition, yet it keeps
/// the average of a two-mode distribution that a median would flip
/// between.
///
/// # Panics
///
/// Panics on an empty slice or a trim share outside `[0, 0.5)`.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of no samples");
    assert!((0.0..0.5).contains(&trim), "trim share must be in [0, 0.5)");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    mean(&v[cut..v.len() - cut])
}

/// Median over `reps` samples of the mean seconds one call of `f` takes,
/// each sample timing `batch` calls together so microsecond-scale work
/// is not lost in timer resolution.
pub fn median_secs<T>(reps: usize, batch: usize, f: impl Fn() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&times)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.label.as_str(), t.value, t.n), ("p99", 990.0, 1000));
        // 999 samples: p99 has 9 beyond, so p95 is the highest honest one.
        let t = tail(&ramp(999));
        assert_eq!((t.label.as_str(), t.value), ("p95", 950.0));
        // 10 000 samples: p99.9 has 10 beyond.
        let t = tail(&ramp(10_000));
        assert_eq!((t.label.as_str(), t.value), ("p99.9", 9990.0));
        // 200 samples: p95 has 10 beyond.
        assert_eq!(tail(&ramp(200)).label, "p95");
        // Too few samples for any ladder percentile: the maximum.
        let t = tail(&ramp(12));
        assert_eq!((t.label.as_str(), t.value), ("max", 12.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(1000);
        v.reverse();
        assert_eq!(tail(&v).value, 990.0);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let mut v = ramp(10);
        v[9] = 1000.0;
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.1), 3.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(100), 50.0), 50.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
