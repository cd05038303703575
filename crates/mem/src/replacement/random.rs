//! Uniform-random replacement, the example policy for the paper's
//! arbitrary-replacement magnifier gadget (§6.3).

use super::ReplacementPolicy;
use racer_rng::SplitMix64;

/// Uniform-random victim selection, as on the Arm1176 the paper cites for
/// its §6.3 demonstration ("an L1 cache with 64 sets, 8 ways and a random
/// replacement policy").
///
/// The RNG is seeded per instance so simulations are reproducible; two
/// instances built with the same seed produce identical victim sequences.
///
/// ```
/// use racer_mem::{RandomReplacement, ReplacementPolicy};
/// let mut a = RandomReplacement::new(8, 42);
/// let mut b = RandomReplacement::new(8, 42);
/// let va: Vec<usize> = (0..16).map(|_| a.victim()).collect();
/// let vb: Vec<usize> = (0..16).map(|_| b.victim()).collect();
/// assert_eq!(va, vb);
/// ```
#[derive(Clone, Debug)]
pub struct RandomReplacement {
    ways: usize,
    rng: SplitMix64,
    /// Victim pre-drawn so `peek_victim` can preview without advancing state.
    next: usize,
}

impl RandomReplacement {
    /// Create a random-replacement instance for `ways` ways, seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize, seed: u64) -> Self {
        assert!(ways >= 1, "random replacement needs at least one way");
        let mut rng = SplitMix64::seed_from_u64(seed);
        let next = rng.below_mod(ways as u64) as usize;
        RandomReplacement { ways, rng, next }
    }
}

impl ReplacementPolicy for RandomReplacement {
    fn ways(&self) -> usize {
        self.ways
    }

    fn on_hit(&mut self, _way: usize) {}

    fn on_fill(&mut self, _way: usize) {}

    fn victim(&mut self) -> usize {
        let v = self.next;
        self.next = self.rng.below_mod(self.ways as u64) as usize;
        v
    }

    fn peek_victim(&self) -> usize {
        self.next
    }

    fn on_invalidate(&mut self, _way: usize) {}

    fn reset(&mut self) {
        // Deliberately keeps the RNG stream: resetting content does not
        // rewind hardware randomness.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_cover_all_ways() {
        let mut p = RandomReplacement::new(8, 1);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[p.victim()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "512 draws should hit every way of 8"
        );
    }

    #[test]
    fn victims_roughly_uniform() {
        let mut p = RandomReplacement::new(4, 7);
        let mut counts = [0usize; 4];
        let n = 4000;
        for _ in 0..n {
            counts[p.victim()] += 1;
        }
        for &c in &counts {
            // Expected 1000 each; allow generous slack.
            assert!(
                (700..=1300).contains(&c),
                "non-uniform victim counts: {counts:?}"
            );
        }
    }

    #[test]
    fn peek_matches_next_victim() {
        let mut p = RandomReplacement::new(8, 3);
        for _ in 0..64 {
            let peeked = p.peek_victim();
            assert_eq!(p.victim(), peeked);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomReplacement::new(8, 1);
        let mut b = RandomReplacement::new(8, 2);
        let va: Vec<usize> = (0..32).map(|_| a.victim()).collect();
        let vb: Vec<usize> = (0..32).map(|_| b.victim()).collect();
        assert_ne!(va, vb);
    }
}
