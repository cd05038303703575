//! The workspace's one seeded generator.
//!
//! SplitMix64 (Steele et al., the JDK `SplittableRandom` finalizer): a
//! 64-bit counter state pushed through a fixed avalanche. Two properties
//! matter here and both are structural: the sequence is a pure function
//! of the seed (every random-replacement victim, timer jitter reading and
//! gadget-search candidate is reproducible from its seed), and the whole
//! generator state is one `u64`, so a checkpoint record captures it
//! losslessly and a resumed search draws the exact sequence an
//! uninterrupted run would have.
//!
//! Committed goldens and digests record streams drawn through two
//! seedings ([`new`](SplitMix64::new) and
//! [`seed_from_u64`](SplitMix64::seed_from_u64)) and two integer
//! reductions ([`below`](SplitMix64::below) and
//! [`below_mod`](SplitMix64::below_mod)). They return different values
//! for the same state, so each call site keeps the one it was recorded
//! with; the known-vector tests below pin all of them.

/// The SplitMix64 state increment (2⁶⁴ / φ, odd).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic 64-bit generator with single-word state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded with `seed` (any value, including 0, is fine —
    /// the increment is odd, so the state never cycles short).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Generator for the cache-hierarchy and timer streams: the state
    /// starts one increment past `seed`, so its first output is the
    /// second output of [`new(seed)`](Self::new).
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed.wrapping_add(GAMMA))
    }

    /// Rebuild a generator from a checkpointed [`state`](Self::state).
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// The raw state word; serialize this to resume the exact sequence.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` via the multiply-shift reduction (no
    /// modulo bias spike at small `n`, branch-free, deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is an empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Draw in `0..n` by plain modulo reduction.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below_mod(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below_mod(0) is an empty range");
        self.next_u64() % n
    }

    /// Draw in `0..=max` by plain modulo reduction; `max = u64::MAX`
    /// returns the raw 64 bits.
    pub fn at_most_mod(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(n) => self.next_u64() % n,
            None => self.next_u64(),
        }
    }

    /// Uniform float in `[start, end)`: a 53-bit unit draw scaled onto
    /// the range.
    pub fn range_f64(&mut self, start: f64, end: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        start + unit * (end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_reproducible_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_roundtrip_resumes_the_sequence() {
        let mut a = SplitMix64::new(7);
        for _ in 0..13 {
            a.next_u64();
        }
        let mut b = SplitMix64::from_state(a.state());
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws should cover 0..7");
    }

    #[test]
    fn known_vector_pins_the_algorithm() {
        // First outputs for seed 0 — pins the exact avalanche constants
        // so a refactor cannot silently change every committed search.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(7);
        let mut b = SplitMix64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.below_mod(13), b.below_mod(13));
            assert_eq!(a.at_most_mod(30), b.at_most_mod(30));
            assert_eq!(a.range_f64(-0.5, 0.5), b.range_f64(-0.5, 0.5));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(rng.below_mod(14) < 14);
            assert!(rng.at_most_mod(5) <= 5);
            let f = rng.range_f64(-0.5, 0.5);
            assert!((-0.5..0.5).contains(&f));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::seed_from_u64(1);
        let mut b = SplitMix64::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    // The vectors below were recorded from the `rand::StdRng` stand-in
    // (`seed_from_u64` + `gen_range`) these draws replace, one per draw
    // shape the workspace uses. Every random-replacement golden, noise
    // sweep and timer-mitigation result depends on them.

    #[test]
    fn seeded_stream_skips_the_first_output() {
        let mut rng = SplitMix64::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn known_vector_victim_draws() {
        // `gen_range(0..ways)` for the random replacement policies.
        let mut rng = SplitMix64::seed_from_u64(42);
        let v: Vec<u64> = (0..8).map(|_| rng.below_mod(8)).collect();
        assert_eq!(v, [3, 2, 4, 2, 6, 5, 4, 5]);
        let mut rng = SplitMix64::seed_from_u64(7);
        let v: Vec<u64> = (0..8).map(|_| rng.below_mod(12)).collect();
        assert_eq!(v, [0, 6, 3, 10, 9, 10, 6, 5]);
    }

    #[test]
    fn known_vector_memory_jitter_draws() {
        // `gen_range(0..=memory_jitter)` for DRAM latency jitter.
        let mut rng = SplitMix64::seed_from_u64(1);
        let v: Vec<u64> = (0..8).map(|_| rng.at_most_mod(30)).collect();
        assert_eq!(v, [23, 19, 10, 23, 1, 23, 2, 22]);
    }

    #[test]
    fn inclusive_draw_at_u64_max_does_not_overflow() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let v: Vec<u64> = (0..4).map(|_| rng.at_most_mod(u64::MAX)).collect();
        assert_eq!(
            v,
            [
                0xb346_6f8a_7b81_a989,
                0x9ceb_e8a6_d050_dd01,
                0x12a7_64fb_66ab_c9cf,
                0x3768_8dad_cab7_9996,
            ]
        );
    }

    #[test]
    fn known_vector_timer_jitter_draws() {
        // `gen_range(0.0..jitter_ns)` for coarse-timer jitter and
        // edge-threshold start offsets.
        let mut rng = SplitMix64::seed_from_u64(5);
        let v: Vec<u64> = (0..4).map(|_| rng.range_f64(0.0, 2.5).to_bits()).collect();
        assert_eq!(
            v,
            [
                0x3ffe_179f_b41f_0fa0,
                0x3fe2_9de2_3b05_21ac,
                0x3fcf_c9e2_7390_8726,
                0x3fde_12d8_b9ca_40d7,
            ]
        );
    }

    #[test]
    fn known_vector_fuzzy_dither_draws() {
        // `gen_range(-0.5..0.5)` for fuzzy-timer edge dither.
        let mut rng = SplitMix64::seed_from_u64(9);
        let v: Vec<u64> = (0..4).map(|_| rng.range_f64(-0.5, 0.5).to_bits()).collect();
        assert_eq!(
            v,
            [
                0x3fd0_0b62_97a1_ebfa,
                0xbfce_09ea_0d5d_a53c,
                0x3fd2_3a63_35a5_cc58,
                0xbfce_64a6_43e8_53c0,
            ]
        );
    }
}
