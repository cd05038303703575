//! Packed, enum-dispatched replacement state for the flattened cache model.
//!
//! [`PackedPolicy`] holds the replacement state of *every* set of one cache
//! level in contiguous arrays — one tree-PLRU bit-word per set, one byte per
//! way for the recency/RRPV policies — and dispatches on a plain enum
//! instead of a `Box<dyn ReplacementPolicy>` per set. It is a bit-exact
//! re-encoding of the boxed policies in this module's siblings: every
//! transition (`on_hit`, `on_fill`, `on_fill_low_priority`, `on_invalidate`,
//! `victim`, `peek_victim`, `reset`) produces the same victims in the same
//! order, including the per-set SplitMix64 streams of the random policy.
//! The differential proptest in `crates/mem/tests/differential.rs` pins that
//! equivalence against the retained boxed implementations.

use super::ReplacementKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replacement state for all sets of one cache level, struct-of-arrays.
#[derive(Clone, Debug)]
pub(crate) enum PackedPolicy {
    /// One direction-bit word per set, heap-indexed from bit 1 like
    /// [`TreePlru`](super::TreePlru)'s `bits` vector (bit 0 unused).
    TreePlru { ways: usize, bits: Vec<u64> },
    /// Recency order, `ways` bytes per set; position 0 is MRU, the last
    /// position is the victim (same layout as [`Lru`](super::Lru)'s `order`).
    Lru { ways: usize, order: Vec<u8> },
    /// Fill order, `ways` bytes per set; position 0 is the oldest fill
    /// (the victim), newest at the back.
    Fifo { ways: usize, queue: Vec<u8> },
    /// 2-bit re-reference prediction values, `ways` bytes per set.
    Srrip { ways: usize, rrpv: Vec<u8> },
    /// Per-set SplitMix64 generators with the pre-drawn next victim, so
    /// `peek_victim` previews without advancing the stream — identical
    /// streams to [`RandomReplacement`](super::RandomReplacement) built
    /// from the same derived seeds.
    Random {
        ways: usize,
        rngs: Vec<StdRng>,
        next: Vec<u8>,
    },
}

/// SRRIP constants, mirroring `replacement::srrip`.
const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;

impl PackedPolicy {
    /// Build packed state for `sets` sets of `ways` ways. Per-set random
    /// seeds are derived exactly as [`crate::Cache`] always has:
    /// `base_seed * 0x9E3779B97F4A7C15 + set`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, exceeds 64 (the packed layouts use
    /// byte-indexed ways and one `u64` bit-word per set), or — for
    /// tree-PLRU — is not a power of two.
    #[cfg(test)]
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize, base_seed: u64) -> Self {
        Self::new_at_offset(kind, sets, ways, base_seed, 0)
    }

    /// [`PackedPolicy::new`] for a *chunk* of a level: state for `sets`
    /// sets whose global indices start at `set_offset`. Local set index 0
    /// here is global set `set_offset`, so random-replacement per-set
    /// seeds — derived from the global index — match a monolithic level
    /// bit-for-bit when chunks are laid side by side.
    pub(crate) fn new_at_offset(
        kind: ReplacementKind,
        sets: usize,
        ways: usize,
        base_seed: u64,
        set_offset: usize,
    ) -> Self {
        assert!(ways >= 1, "need at least one way");
        assert!(
            ways <= 64,
            "packed replacement state supports at most 64 ways"
        );
        match kind {
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU needs a power-of-two way count"
                );
                PackedPolicy::TreePlru {
                    ways,
                    bits: vec![0; sets],
                }
            }
            ReplacementKind::Lru => PackedPolicy::Lru {
                ways,
                order: identity_order(sets, ways),
            },
            ReplacementKind::Fifo => PackedPolicy::Fifo {
                ways,
                queue: identity_order(sets, ways),
            },
            ReplacementKind::Srrip => PackedPolicy::Srrip {
                ways,
                rrpv: vec![RRPV_MAX; sets * ways],
            },
            ReplacementKind::Random => {
                let mut rngs = Vec::with_capacity(sets);
                let mut next = Vec::with_capacity(sets);
                for set in set_offset..set_offset + sets {
                    let seed = base_seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(set as u64);
                    let mut rng = StdRng::seed_from_u64(seed);
                    next.push(rng.gen_range(0..ways) as u8);
                    rngs.push(rng);
                }
                PackedPolicy::Random { ways, rngs, next }
            }
        }
    }

    /// A demand access hit `way` of `set`.
    #[inline]
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        match self {
            PackedPolicy::TreePlru { ways, bits } => plru_touch_away(&mut bits[set], *ways, way),
            PackedPolicy::Lru { ways, order } => promote(order, set, *ways, way),
            PackedPolicy::Fifo { .. } => {}
            PackedPolicy::Srrip { ways, rrpv } => rrpv[set * *ways + way] = 0,
            PackedPolicy::Random { .. } => {}
        }
    }

    /// A line was inserted into `way` of `set`.
    #[inline]
    pub(crate) fn on_fill(&mut self, set: usize, way: usize) {
        match self {
            PackedPolicy::TreePlru { ways, bits } => plru_touch_away(&mut bits[set], *ways, way),
            PackedPolicy::Lru { ways, order } => promote(order, set, *ways, way),
            PackedPolicy::Fifo { ways, queue } => move_to_back(queue, set, *ways, way),
            PackedPolicy::Srrip { ways, rrpv } => rrpv[set * *ways + way] = RRPV_INSERT,
            PackedPolicy::Random { .. } => {}
        }
    }

    /// Non-temporal insertion: the new line becomes (or stays near) the
    /// eviction candidate.
    #[inline]
    pub(crate) fn on_fill_low_priority(&mut self, set: usize, way: usize) {
        match self {
            PackedPolicy::TreePlru { ways, bits } => plru_touch_toward(&mut bits[set], *ways, way),
            PackedPolicy::Lru { ways, order } => demote(order, set, *ways, way),
            // FIFO and random have no low-priority notion: normal fill.
            PackedPolicy::Fifo { ways, queue } => move_to_back(queue, set, *ways, way),
            PackedPolicy::Srrip { ways, rrpv } => rrpv[set * *ways + way] = RRPV_MAX,
            PackedPolicy::Random { .. } => {}
        }
    }

    /// The line in `way` of `set` was invalidated.
    #[inline]
    pub(crate) fn on_invalidate(&mut self, set: usize, way: usize) {
        match self {
            // Tree bits keep their value (matches common hardware).
            PackedPolicy::TreePlru { .. } => {}
            PackedPolicy::Lru { ways, order } => demote(order, set, *ways, way),
            PackedPolicy::Fifo { ways, queue } => move_to_front(queue, set, *ways, way),
            PackedPolicy::Srrip { ways, rrpv } => rrpv[set * *ways + way] = RRPV_MAX,
            PackedPolicy::Random { .. } => {}
        }
    }

    /// Choose the victim way for a fill into a full `set`, advancing any
    /// stochastic state.
    #[inline]
    pub(crate) fn victim(&mut self, set: usize) -> usize {
        match self {
            PackedPolicy::TreePlru { ways, bits } => plru_walk(bits[set], *ways),
            PackedPolicy::Lru { ways, order } => order[set * *ways + *ways - 1] as usize,
            PackedPolicy::Fifo { ways, queue } => queue[set * *ways] as usize,
            PackedPolicy::Srrip { ways, rrpv } => {
                let rrpv = &mut rrpv[set * *ways..(set + 1) * *ways];
                loop {
                    if let Some(w) = rrpv.iter().position(|&v| v == RRPV_MAX) {
                        return w;
                    }
                    for v in rrpv.iter_mut() {
                        *v += 1;
                    }
                }
            }
            PackedPolicy::Random { ways, rngs, next } => {
                let v = next[set] as usize;
                next[set] = rngs[set].gen_range(0..*ways) as u8;
                v
            }
        }
    }

    /// Preview the current eviction candidate without advancing any state.
    #[inline]
    pub(crate) fn peek_victim(&self, set: usize) -> usize {
        match self {
            PackedPolicy::TreePlru { ways, bits } => plru_walk(bits[set], *ways),
            PackedPolicy::Lru { ways, order } => order[set * *ways + *ways - 1] as usize,
            PackedPolicy::Fifo { ways, queue } => queue[set * *ways] as usize,
            PackedPolicy::Srrip { ways, rrpv } => {
                // First way holding the maximum current RRPV (the way that
                // wins after aging), exactly like `Srrip::peek_victim`.
                let rrpv = &rrpv[set * *ways..(set + 1) * *ways];
                let max = *rrpv.iter().max().expect("at least one way");
                rrpv.iter().position(|&v| v == max).expect("max exists")
            }
            PackedPolicy::Random { next, .. } => next[set] as usize,
        }
    }

    /// Reset every set to the post-construction state. Random keeps its RNG
    /// streams — resetting cache contents does not rewind hardware
    /// randomness (mirrors `RandomReplacement::reset`).
    pub(crate) fn reset(&mut self) {
        match self {
            PackedPolicy::TreePlru { bits, .. } => bits.fill(0),
            PackedPolicy::Lru { ways, order } | PackedPolicy::Fifo { ways, queue: order } => {
                let ways = *ways;
                for (i, slot) in order.iter_mut().enumerate() {
                    *slot = (i % ways) as u8;
                }
            }
            PackedPolicy::Srrip { rrpv, .. } => rrpv.fill(RRPV_MAX),
            PackedPolicy::Random { .. } => {}
        }
    }
}

/// `[0, 1, …, ways-1]` repeated per set.
fn identity_order(sets: usize, ways: usize) -> Vec<u8> {
    (0..sets * ways).map(|i| (i % ways) as u8).collect()
}

/// Flip every direction bit on the root→`way` path to point *away* from
/// `way` (the tree-PLRU touch).
#[inline]
fn plru_touch_away(bits: &mut u64, ways: usize, way: usize) {
    debug_assert!(way < ways);
    if ways == 1 {
        return;
    }
    let mut node = way + ways;
    while node > 1 {
        let parent = node / 2;
        // Came from the left child (even heap index) ⇒ point right.
        let b = node.is_multiple_of(2) as u64;
        *bits = (*bits & !(1u64 << parent)) | (b << parent);
        node = parent;
    }
}

/// Point every direction bit on the root→`way` path *toward* `way`, making
/// it the next eviction candidate (non-temporal insertion).
#[inline]
fn plru_touch_toward(bits: &mut u64, ways: usize, way: usize) {
    if ways == 1 {
        return;
    }
    let mut node = way + ways;
    while node > 1 {
        let parent = node / 2;
        let b = (!node.is_multiple_of(2)) as u64;
        *bits = (*bits & !(1u64 << parent)) | (b << parent);
        node = parent;
    }
}

/// Walk the direction bits from the root to the eviction-candidate leaf.
#[inline]
fn plru_walk(bits: u64, ways: usize) -> usize {
    if ways == 1 {
        return 0;
    }
    let mut node = 1usize;
    while node < ways {
        node = 2 * node + ((bits >> node) & 1) as usize;
    }
    node - ways
}

/// Move `way` to the MRU (front) position of its set's order array.
#[inline]
fn promote(order: &mut [u8], set: usize, ways: usize, way: usize) {
    let slice = &mut order[set * ways..(set + 1) * ways];
    let pos = slice
        .iter()
        .position(|&w| w as usize == way)
        .expect("way present in recency order");
    slice.copy_within(0..pos, 1);
    slice[0] = way as u8;
}

/// Move `way` to the victim (back) position of its set's order array.
#[inline]
fn demote(order: &mut [u8], set: usize, ways: usize, way: usize) {
    let slice = &mut order[set * ways..(set + 1) * ways];
    let pos = slice
        .iter()
        .position(|&w| w as usize == way)
        .expect("way present in recency order");
    slice.copy_within(pos + 1..ways, pos);
    slice[ways - 1] = way as u8;
}

/// Move `way` to the back of its set's FIFO queue (newest fill).
#[inline]
fn move_to_back(queue: &mut [u8], set: usize, ways: usize, way: usize) {
    demote(queue, set, ways, way);
}

/// Move `way` to the front of its set's FIFO queue (next victim).
#[inline]
fn move_to_front(queue: &mut [u8], set: usize, ways: usize, way: usize) {
    promote(queue, set, ways, way);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementPolicy;

    /// Every packed policy must track its boxed counterpart transition for
    /// transition under a common pseudo-random driver.
    #[test]
    fn packed_matches_boxed_policies_step_for_step() {
        for kind in [
            ReplacementKind::TreePlru,
            ReplacementKind::Lru,
            ReplacementKind::Random,
            ReplacementKind::Fifo,
            ReplacementKind::Srrip,
        ] {
            for ways in [1usize, 2, 4, 8, 16] {
                let sets = 4usize;
                let base_seed = 0xABCD;
                let mut packed = PackedPolicy::new(kind, sets, ways, base_seed);
                let mut boxed: Vec<Box<dyn ReplacementPolicy>> = (0..sets)
                    .map(|set| {
                        let seed = base_seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(set as u64);
                        kind.build(ways, seed)
                    })
                    .collect();
                let mut x = 12345usize;
                for step in 0..4000 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let set = (x >> 33) % sets;
                    let way = (x >> 13) % ways;
                    match step % 7 {
                        0 | 1 => {
                            packed.on_hit(set, way);
                            boxed[set].on_hit(way);
                        }
                        2 | 3 => {
                            packed.on_fill(set, way);
                            boxed[set].on_fill(way);
                        }
                        4 => {
                            packed.on_fill_low_priority(set, way);
                            boxed[set].on_fill_low_priority(way);
                        }
                        5 => {
                            packed.on_invalidate(set, way);
                            boxed[set].on_invalidate(way);
                        }
                        _ => {
                            assert_eq!(
                                packed.victim(set),
                                boxed[set].victim(),
                                "{kind:?} ways={ways} diverged at step {step}"
                            );
                        }
                    }
                    assert_eq!(
                        packed.peek_victim(set),
                        boxed[set].peek_victim(),
                        "{kind:?} ways={ways} peek diverged at step {step}"
                    );
                }
                packed.reset();
                for p in &mut boxed {
                    p.reset();
                }
                for (set, b) in boxed.iter().enumerate() {
                    assert_eq!(packed.peek_victim(set), b.peek_victim());
                }
            }
        }
    }

    /// Chunked construction (local indices + global set offset) must give
    /// every set exactly the state a monolithic level gives it — in
    /// particular the random policy's global-index-derived seed streams.
    #[test]
    fn offset_chunks_match_monolithic_level() {
        for kind in [
            ReplacementKind::TreePlru,
            ReplacementKind::Lru,
            ReplacementKind::Random,
            ReplacementKind::Fifo,
            ReplacementKind::Srrip,
        ] {
            let (sets, ways, chunk, seed) = (16usize, 4usize, 4usize, 0xBEEF);
            let mut whole = PackedPolicy::new(kind, sets, ways, seed);
            let mut chunks: Vec<PackedPolicy> = (0..sets / chunk)
                .map(|c| PackedPolicy::new_at_offset(kind, chunk, ways, seed, c * chunk))
                .collect();
            let mut x = 99usize;
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let set = (x >> 33) % sets;
                let way = (x >> 13) % ways;
                let local = set % chunk;
                let part = &mut chunks[set / chunk];
                match x % 5 {
                    0 => {
                        whole.on_hit(set, way);
                        part.on_hit(local, way);
                    }
                    1 => {
                        whole.on_fill(set, way);
                        part.on_fill(local, way);
                    }
                    2 => {
                        whole.on_fill_low_priority(set, way);
                        part.on_fill_low_priority(local, way);
                    }
                    3 => {
                        whole.on_invalidate(set, way);
                        part.on_invalidate(local, way);
                    }
                    _ => assert_eq!(whole.victim(set), part.victim(local), "{kind:?}"),
                }
                assert_eq!(whole.peek_victim(set), part.peek_victim(local), "{kind:?}");
            }
        }
    }

    #[test]
    fn plru_bit_word_matches_documented_walk() {
        let mut p = PackedPolicy::new(ReplacementKind::TreePlru, 1, 4, 0);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 1);
        p.on_hit(0, 2);
        p.on_hit(0, 3);
        assert_eq!(p.peek_victim(0), 0, "way 0 is the coldest leaf");
        p.on_fill_low_priority(0, 2);
        assert_eq!(p.peek_victim(0), 2, "NT insertion becomes the candidate");
    }
}
