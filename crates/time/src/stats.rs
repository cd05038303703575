//! Statistics for scoring timing channels.
//!
//! Used to regenerate Figure 10's transmit-0/transmit-1 distributions, the
//! §7.3 accuracy and leak-rate numbers, and the stage breakdowns of Figure 7.

use std::fmt;

/// Basic summary statistics over a sample.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Summarize `samples` (empty input produces an all-zero summary).
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary::default();
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} sd={:.1} min={:.1} max={:.1}",
            self.n, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// A fixed-bin-width histogram over `f64` samples.
///
/// ```
/// use racer_time::Histogram;
/// let h = Histogram::from_samples(&[1.0, 1.5, 9.0], 0.0, 2.0, 5);
/// assert_eq!(h.count(0), 2);
/// assert_eq!(h.count(4), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    lo: i64,
    width_milli: i64,
}

impl Histogram {
    /// Bin `samples` into `bins` buckets of `width` starting at `lo`.
    /// Out-of-range samples clamp into the first/last bin.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `width` is not strictly positive.
    pub fn from_samples(samples: &[f64], lo: f64, width: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(width > 0.0, "bin width must be positive");
        let mut counts = vec![0u64; bins];
        for &s in samples {
            let idx = ((s - lo) / width).floor();
            let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
            counts[idx] += 1;
        }
        Histogram {
            counts,
            lo: (lo * 1000.0) as i64,
            width_milli: (width * 1000.0) as i64,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Normalized probability per bin.
    pub fn probabilities(&self) -> Vec<f64> {
        let t = self.total().max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        (self.lo + self.width_milli * i as i64) as f64 / 1000.0
    }

    /// An ASCII rendering, one row per non-empty bin.
    pub fn render(&self, max_width: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = "#".repeat(((c as usize * max_width) / peak as usize).max(1));
            let _ = writeln!(s, "{:>12.1} | {bar} {c}", self.bin_lo(i));
        }
        s
    }
}

/// Overlap coefficient between two sample sets, computed over a shared
/// histogram domain: `sum_i min(p_i, q_i)` ∈ [0, 1]. Zero means perfectly
/// separable distributions (Figure 10: "almost no overlap between the two
/// transmissions").
pub fn overlap_coefficient(a: &[f64], b: &[f64], bins: usize) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let lo = a.iter().chain(b).copied().fold(f64::INFINITY, f64::min);
    let hi = a.iter().chain(b).copied().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / bins as f64).max(f64::EPSILON);
    let ha = Histogram::from_samples(a, lo, width, bins);
    let hb = Histogram::from_samples(b, lo, width, bins);
    ha.probabilities()
        .iter()
        .zip(hb.probabilities())
        .map(|(&p, q)| p.min(q))
        .sum()
}

/// Find the threshold that best separates `zeros` from `ones` (assuming
/// `ones` tend larger) and the classification accuracy it achieves.
///
/// Returns `(threshold, accuracy)` with accuracy in [0.5, 1.0].
pub fn best_threshold(zeros: &[f64], ones: &[f64]) -> (f64, f64) {
    assert!(
        !zeros.is_empty() && !ones.is_empty(),
        "both classes need at least one sample"
    );
    let mut candidates: Vec<f64> = zeros.iter().chain(ones).copied().collect();
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    candidates.dedup();
    let total = (zeros.len() + ones.len()) as f64;
    let mut best = (candidates[0], 0.0);
    for &t in &candidates {
        let correct =
            zeros.iter().filter(|&&z| z < t).count() + ones.iter().filter(|&&o| o >= t).count();
        let acc = correct as f64 / total;
        if acc > best.1 {
            best = (t, acc);
        }
    }
    best
}

/// Leak rate in kilobits per second given `bits` transmitted over
/// `duration_ns` of simulated time (the paper reports 4.3 kbit/s for
/// SpectreBack, §7.3).
pub fn leak_rate_kbps(bits: u64, duration_ns: f64) -> f64 {
    if duration_ns <= 0.0 {
        return 0.0;
    }
    bits as f64 / (duration_ns * 1e-9) / 1000.0
}

impl Summary {
    /// JSON form of the summary statistics.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("n", self.n)
            .with("mean", self.mean)
            .with("std_dev", self.std_dev)
            .with("min", self.min)
            .with("max", self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let h = Histogram::from_samples(&[-5.0, 0.5, 1.5, 100.0], 0.0, 1.0, 4);
        assert_eq!(h.count(0), 2, "underflow clamps into bin 0");
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(3), 1, "overflow clamps into the last bin");
        assert_eq!(h.total(), 4);
        assert!((h.bin_lo(2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_renders_nonempty() {
        let h = Histogram::from_samples(&[1.0, 1.0, 2.0], 0.0, 1.0, 4);
        let r = h.render(20);
        assert!(r.contains('#'));
    }

    #[test]
    fn overlap_of_identical_is_one_and_disjoint_is_zero() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let o = overlap_coefficient(&a, &a, 20);
        assert!((o - 1.0).abs() < 1e-9);

        let b: Vec<f64> = (1000..1100).map(|i| i as f64).collect();
        let o = overlap_coefficient(&a, &b, 50);
        assert!(o < 0.05, "disjoint distributions must barely overlap: {o}");
    }

    #[test]
    fn threshold_separates_clean_classes() {
        let zeros = vec![1.0, 2.0, 3.0];
        let ones = vec![10.0, 11.0, 12.0];
        let (t, acc) = best_threshold(&zeros, &ones);
        assert!(t > 3.0 && t <= 10.0);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn threshold_on_overlapping_classes_is_partial() {
        let zeros = vec![1.0, 2.0, 3.0, 10.0];
        let ones = vec![2.5, 9.0, 11.0, 12.0];
        let (_, acc) = best_threshold(&zeros, &ones);
        assert!((0.5..1.0).contains(&acc));
    }

    #[test]
    fn leak_rate_matches_hand_computation() {
        // 4300 bits in one second = 4.3 kbit/s.
        let r = leak_rate_kbps(4300, 1e9);
        assert!((r - 4.3).abs() < 1e-9);
        assert_eq!(leak_rate_kbps(100, 0.0), 0.0);
    }
}
