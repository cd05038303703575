//! Cache replacement policies.
//!
//! The paper's magnifier gadgets are arguments about replacement-policy state
//! machines, so the policies here are first-class, independently testable
//! objects. [`TreePlru`] is the star of the show (paper §6.1/§6.2, Figures 3
//! and 4); [`RandomReplacement`] underpins the arbitrary-replacement magnifier
//! (§6.3); [`Lru`], [`Fifo`] and [`Srrip`] exist to demonstrate the paper's
//! claim that *"changing the replacement policy is no cure"* (§6, §8).
//!
//! Two encodings of the same state machines coexist: the boxed per-set
//! [`ReplacementPolicy`] objects below (the readable reference, used by
//! [`CacheSet`](crate::CacheSet) and the magnifier experiments that reason
//! about one set at a time), and the packed struct-of-arrays
//! `PackedPolicy` (crate-private, in `packed`) that [`Cache`](crate::Cache)
//! dispatches on for the simulator's hot paths. The differential proptest
//! in `crates/mem/tests/differential.rs` keeps them bit-identical.

mod fifo;
mod lru;
mod packed;
mod random;
mod srrip;
mod tree_plru;

pub(crate) use packed::PackedPolicy;

pub use fifo::Fifo;
pub use lru::Lru;
pub use random::RandomReplacement;
pub use srrip::Srrip;
pub use tree_plru::TreePlru;

/// Per-set replacement state machine.
///
/// One instance manages one cache set of `ways()` ways. The containing
/// [`CacheSet`](crate::CacheSet) handles tag matching and empty-way
/// preference; the policy only decides *victims* and tracks recency state.
///
/// Implementations in this crate: [`TreePlru`], [`Lru`], [`RandomReplacement`],
/// [`Fifo`], [`Srrip`].
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Number of ways this policy instance manages.
    fn ways(&self) -> usize;

    /// A demand access hit way `way`.
    fn on_hit(&mut self, way: usize);

    /// A line was inserted into `way` (the set had an empty way, or the
    /// victim at `way` was just displaced).
    fn on_fill(&mut self, way: usize);

    /// Like [`on_fill`](Self::on_fill) but with a low-priority insertion hint
    /// (non-temporal prefetch, paper §6.3.1 footnote: such lines are "easier
    /// to be evicted"). The default treats it as a normal fill; policies with
    /// a recency notion override it to insert at eviction-candidate position.
    fn on_fill_low_priority(&mut self, way: usize) {
        self.on_fill(way);
    }

    /// Choose the way to evict for an incoming fill when the set is full.
    ///
    /// Takes `&mut self` so stochastic policies can advance their RNG; the
    /// deterministic policies do not mutate state here (state changes happen
    /// in `on_fill`).
    fn victim(&mut self) -> usize;

    /// Inspect the current eviction candidate *without* advancing any RNG or
    /// other state. For stochastic policies this is a best-effort preview.
    fn peek_victim(&self) -> usize;

    /// The line in `way` was invalidated (flush or back-invalidation).
    fn on_invalidate(&mut self, way: usize);

    /// Reset to the post-construction state.
    fn reset(&mut self);
}

/// Factory enumeration for building per-set policy instances.
///
/// ```
/// use racer_mem::ReplacementKind;
/// let p = ReplacementKind::TreePlru.build(4, 7);
/// assert_eq!(p.ways(), 4);
/// ```
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum ReplacementKind {
    /// Binary-tree pseudo-LRU (paper Figures 3–4; "prevalent on modern CPUs").
    TreePlru,
    /// True least-recently-used.
    Lru,
    /// Uniform-random victim selection (paper §6.3's example policy, as in
    /// the Arm1176 the paper cites).
    Random,
    /// First-in first-out (round-robin) replacement.
    Fifo,
    /// Static re-reference interval prediction (2-bit SRRIP).
    Srrip,
}

impl ReplacementKind {
    /// Build a policy instance for one set of `ways` ways.
    ///
    /// `seed` only matters for [`ReplacementKind::Random`]; deterministic
    /// policies ignore it. Callers typically derive a distinct seed per set.
    pub fn build(self, ways: usize, seed: u64) -> Box<dyn ReplacementPolicy> {
        match self {
            ReplacementKind::TreePlru => Box::new(TreePlru::new(ways)),
            ReplacementKind::Lru => Box::new(Lru::new(ways)),
            ReplacementKind::Random => Box::new(RandomReplacement::new(ways, seed)),
            ReplacementKind::Fifo => Box::new(Fifo::new(ways)),
            ReplacementKind::Srrip => Box::new(Srrip::new(ways)),
        }
    }
}

impl std::fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ReplacementKind::TreePlru => "tree-plru",
            ReplacementKind::Lru => "lru",
            ReplacementKind::Random => "random",
            ReplacementKind::Fifo => "fifo",
            ReplacementKind::Srrip => "srrip",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(kind: ReplacementKind, ways: usize) {
        let mut p = kind.build(ways, 99);
        assert_eq!(p.ways(), ways);
        // Fill all ways then hit each; victim must always be in range.
        for w in 0..ways {
            p.on_fill(w);
        }
        for w in 0..ways {
            p.on_hit(w);
            assert!(p.peek_victim() < ways);
            assert!(p.victim() < ways);
        }
        p.on_invalidate(0);
        p.reset();
        assert!(p.peek_victim() < ways);
    }

    #[test]
    fn all_policies_stay_in_range() {
        for kind in [
            ReplacementKind::TreePlru,
            ReplacementKind::Lru,
            ReplacementKind::Random,
            ReplacementKind::Fifo,
            ReplacementKind::Srrip,
        ] {
            for ways in [1usize, 2, 4, 8, 16] {
                if kind == ReplacementKind::TreePlru && !ways.is_power_of_two() {
                    continue;
                }
                exercise(kind, ways);
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementKind::TreePlru.to_string(), "tree-plru");
        assert_eq!(ReplacementKind::Random.to_string(), "random");
    }
}
