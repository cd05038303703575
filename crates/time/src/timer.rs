//! Timer observation models.

use racer_rng::SplitMix64;

/// A source of timestamps as observed by the attacker.
///
/// Implementations map *true* simulated time (nanoseconds since run start)
/// to the value the sandboxed code would actually read. Methods take `&mut
/// self` because jittered/fuzzy timers consume randomness per reading.
pub trait Timer {
    /// Observe the clock at true time `t_ns`.
    fn now(&mut self, t_ns: f64) -> f64;

    /// The nominal resolution in nanoseconds (0 for a perfect timer).
    fn resolution_ns(&self) -> f64;

    /// Observe a duration: two readings around `[start_ns, end_ns]`.
    fn measure(&mut self, start_ns: f64, end_ns: f64) -> f64 {
        let begin = self.now(start_ns);
        let end = self.now(end_ns);
        end - begin
    }
}

/// An ideal, infinitely precise timer (ground truth; *not* available to the
/// paper's attacker).
#[derive(Copy, Clone, Debug, Default)]
pub struct PerfectTimer;

impl Timer for PerfectTimer {
    fn now(&mut self, t_ns: f64) -> f64 {
        t_ns
    }

    fn resolution_ns(&self) -> f64 {
        0.0
    }
}

/// `performance.now()` as shipped after Spectre: timestamps quantized to a
/// fixed resolution, optionally with added uniform jitter (Chrome used
/// 100 ms + 100 ms jitter at the height of the mitigations; today's default
/// is 5 µs — paper §2.2).
///
/// ```
/// use racer_time::{CoarseTimer, Timer};
/// let mut t = CoarseTimer::new(5_000.0);
/// assert_eq!(t.now(4_999.0), 0.0);
/// assert_eq!(t.now(5_001.0), 5_000.0);
/// ```
#[derive(Clone, Debug)]
pub struct CoarseTimer {
    resolution_ns: f64,
    jitter_ns: f64,
    rng: SplitMix64,
}

impl CoarseTimer {
    /// A quantizing timer with `resolution_ns` granularity and no jitter.
    ///
    /// # Panics
    ///
    /// Panics if `resolution_ns` is not strictly positive.
    pub fn new(resolution_ns: f64) -> Self {
        Self::with_jitter(resolution_ns, 0.0, 0)
    }

    /// A quantizing timer that also adds uniform jitter in
    /// `[0, jitter_ns)` to each reading (deterministic per `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `resolution_ns` is not strictly positive or `jitter_ns` is
    /// negative.
    pub fn with_jitter(resolution_ns: f64, jitter_ns: f64, seed: u64) -> Self {
        assert!(resolution_ns > 0.0, "resolution must be positive");
        assert!(jitter_ns >= 0.0, "jitter must be non-negative");
        CoarseTimer {
            resolution_ns,
            jitter_ns,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// The paper's 5 µs browser-timer threshold (§3).
    pub fn browser_5us() -> Self {
        Self::new(5_000.0)
    }

    /// Chrome-2018-style 100 ms resolution with 100 ms jitter (§2.2).
    pub fn chrome_2018(seed: u64) -> Self {
        Self::with_jitter(100_000_000.0, 100_000_000.0, seed)
    }
}

impl Timer for CoarseTimer {
    fn now(&mut self, t_ns: f64) -> f64 {
        let quantized = (t_ns / self.resolution_ns).floor() * self.resolution_ns;
        if self.jitter_ns > 0.0 {
            quantized + self.rng.range_f64(0.0, self.jitter_ns)
        } else {
            quantized
        }
    }

    fn resolution_ns(&self) -> f64 {
        self.resolution_ns
    }
}

/// The fuzzy-time countermeasure (Kohlbrenner & Shacham, §2.2): clock edges
/// are randomly perturbed so that even edge-thresholding sees a noisy edge.
/// Each resolution-sized interval gets an independent phase offset.
#[derive(Clone, Debug)]
pub struct FuzzyTimer {
    resolution_ns: f64,
    rng: SplitMix64,
}

impl FuzzyTimer {
    /// A fuzzy timer of nominal `resolution_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution_ns` is not strictly positive.
    pub fn new(resolution_ns: f64, seed: u64) -> Self {
        assert!(resolution_ns > 0.0, "resolution must be positive");
        FuzzyTimer {
            resolution_ns,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }
}

impl Timer for FuzzyTimer {
    fn now(&mut self, t_ns: f64) -> f64 {
        // Perturb the reading by up to ±half a resolution before
        // quantizing: the edge the attacker sees wobbles per reading.
        let dither = self.rng.range_f64(-0.5, 0.5) * self.resolution_ns;
        ((t_ns + dither) / self.resolution_ns).floor() * self.resolution_ns
    }

    fn resolution_ns(&self) -> f64 {
        self.resolution_ns
    }
}

/// The SharedArrayBuffer counting-thread timer of Schwarz et al. (§2.2):
/// a worker increments a shared counter in a tight loop, giving the main
/// thread an effective resolution of 2–15 ns. Removed from browsers as a
/// Spectre response — included here as the *baseline* that Hacky Racers
/// resurrect without any shared memory.
#[derive(Copy, Clone, Debug)]
pub struct SabCounterTimer {
    period_ns: f64,
}

impl SabCounterTimer {
    /// A counting thread incrementing every `period_ns` (2–15 ns is
    /// realistic; the default [`SabCounterTimer::typical`] uses 3 ns).
    ///
    /// # Panics
    ///
    /// Panics if `period_ns` is not strictly positive.
    pub fn new(period_ns: f64) -> Self {
        assert!(period_ns > 0.0, "period must be positive");
        SabCounterTimer { period_ns }
    }

    /// The ~3 ns/increment counting thread from the paper's citation.
    pub fn typical() -> Self {
        Self::new(3.0)
    }

    /// The raw counter value at time `t_ns`.
    pub fn count(&self, t_ns: f64) -> u64 {
        (t_ns / self.period_ns).floor() as u64
    }
}

impl Timer for SabCounterTimer {
    fn now(&mut self, t_ns: f64) -> f64 {
        self.count(t_ns) as f64 * self.period_ns
    }

    fn resolution_ns(&self) -> f64 {
        self.period_ns
    }
}

/// Estimate a sub-resolution duration with the edge-thresholding technique
/// (§2.2): repeat the measurement at random clock phases and count how often
/// the duration straddles a clock edge. The crossing probability equals
/// `duration / resolution` for durations below one tick.
///
/// Returns the estimated duration in nanoseconds.
pub fn edge_threshold_estimate(
    timer: &mut dyn Timer,
    duration_ns: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let res = timer.resolution_ns();
    assert!(
        res > 0.0,
        "edge thresholding needs a finite-resolution timer"
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut crossings = 0usize;
    for _ in 0..trials {
        let start = rng.range_f64(0.0, res * 1000.0);
        if timer.measure(start, start + duration_ns) > 0.0 {
            crossings += 1;
        }
    }
    (crossings as f64 / trials as f64) * res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_timer_is_identity() {
        let mut t = PerfectTimer;
        assert_eq!(t.now(123.456), 123.456);
        assert_eq!(t.measure(10.0, 250.0), 240.0);
    }

    #[test]
    fn coarse_timer_hides_sub_resolution_differences() {
        let mut t = CoarseTimer::browser_5us();
        // A 100 ns LLC-miss difference (paper §2.1) is invisible…
        assert_eq!(t.measure(0.0, 100.0), 0.0);
        // …while a magnified 50 µs difference is plainly visible.
        assert!(t.measure(0.0, 50_000.0) >= 45_000.0);
    }

    #[test]
    fn coarse_timer_quantizes_to_multiples() {
        let mut t = CoarseTimer::new(2_000.0);
        for raw in [0.0, 1.0, 1999.0, 2000.0, 12345.0] {
            let v = t.now(raw);
            assert_eq!(v % 2_000.0, 0.0, "reading {v} not on a tick");
            assert!(v <= raw && raw - v < 2_000.0);
        }
    }

    #[test]
    fn jittered_timer_varies_readings() {
        let mut t = CoarseTimer::with_jitter(5_000.0, 5_000.0, 1);
        let a = t.now(10_000.0);
        let b = t.now(10_000.0);
        assert_ne!(a, b, "jitter should vary repeated readings of one instant");
    }

    #[test]
    fn sab_counter_resolves_nanoseconds() {
        let mut t = SabCounterTimer::typical();
        // A 100 ns difference is ~33 counts: easily visible.
        assert!(t.measure(0.0, 100.0) >= 90.0);
        assert_eq!(t.count(9.0), 3);
    }

    #[test]
    fn fuzzy_timer_wobbles_edges() {
        let mut t = FuzzyTimer::new(5_000.0, 7);
        // Reading exactly at an edge sometimes rounds down, sometimes up.
        let readings: Vec<f64> = (0..100).map(|_| t.now(5_000.0)).collect();
        let distinct: std::collections::HashSet<u64> = readings.iter().map(|r| *r as u64).collect();
        assert!(distinct.len() > 1, "fuzzy edges must wobble");
    }

    #[test]
    fn edge_thresholding_recovers_sub_tick_durations() {
        let mut t = CoarseTimer::new(5_000.0);
        let est = edge_threshold_estimate(&mut t, 1_000.0, 20_000, 42);
        assert!(
            (est - 1_000.0).abs() < 150.0,
            "edge thresholding should estimate ~1000 ns, got {est:.0}"
        );
    }

    #[test]
    fn edge_thresholding_is_defeated_by_fuzzy_time() {
        // Against a fuzzy timer the crossing probability still averages
        // d/res, but individual estimates are noisier; more importantly the
        // technique cannot sharpen a *single* measurement. We check the
        // aggregate stays unbiased-ish but with degraded precision vs the
        // plain coarse timer at low trial counts.
        let mut plain = CoarseTimer::new(5_000.0);
        let mut fuzzy = FuzzyTimer::new(5_000.0, 3);
        let trials = 60;
        let mut plain_err = 0.0;
        let mut fuzzy_err = 0.0;
        for seed in 0..40 {
            let p = edge_threshold_estimate(&mut plain, 1_000.0, trials, seed);
            let f = edge_threshold_estimate(&mut fuzzy, 1_000.0, trials, seed);
            plain_err += (p - 1_000.0).abs();
            fuzzy_err += (f - 1_000.0).abs();
        }
        assert!(
            fuzzy_err >= plain_err * 0.8,
            "fuzzy time must not make estimation easier: plain={plain_err:.0} fuzzy={fuzzy_err:.0}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_resolution_rejected() {
        let _ = CoarseTimer::new(0.0);
    }
}
