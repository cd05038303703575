//! A single set-associative cache level, stored struct-of-arrays in
//! copy-on-write chunks.
//!
//! Tags and valid bits live in contiguous per-chunk arrays (way-major
//! within each set) and replacement state is packed per chunk in a
//! [`PackedPolicy`](crate::replacement) enum — no per-set allocations, no
//! `Box<dyn ReplacementPolicy>` virtual dispatch, and a single tag scan per
//! access via [`Cache::lookup`] whose result the hit path reuses.
//!
//! Each chunk covers `SETS_PER_CHUNK` consecutive sets and sits behind an
//! [`Arc`]: cloning a `Cache` copies chunk *pointers* only, and a clone
//! materialises a private copy of a chunk the first time it mutates a set
//! inside it (`Arc::make_mut`). Forks of one warmed snapshot therefore
//! share a single L2/L3 image until their access streams actually
//! diverge — and pay copy costs proportional to the sets
//! they touch, not the level's size. Value semantics are unchanged: a clone
//! is observationally an independent deep copy.
//!
//! The boxed per-set implementation ([`CacheSet`](crate::CacheSet)) is
//! retained as the reference model; the differential proptest in
//! `crates/mem/tests/differential.rs` pins the two bit-identical, and
//! `crates/mem/tests/cow.rs` pins forked (chunk-sharing) clones against
//! eagerly materialised ones.

use crate::addr::LineAddr;
use crate::replacement::{PackedPolicy, ReplacementKind};
use crate::set::FillOutcome;
use crate::stats::CacheStats;
use std::sync::Arc;

/// Sets per copy-on-write chunk. 64 keeps a Coffee-Lake L1D (64 sets) in
/// one chunk while splitting the L2 into 16 and the L3 into 128
/// independently materialisable blocks (~9 KB each for the L3) — fine
/// enough that a lane touching a few hundred lines copies kilobytes, not
/// the megabyte-scale level.
const SETS_PER_CHUNK: usize = 64;

/// Geometry and policy of one cache level.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Load-to-use latency in cycles when this level hits.
    pub hit_latency: u64,
    /// Replacement policy for every set.
    pub replacement: ReplacementKind,
    /// Base RNG seed (per-set seeds are derived from it; only meaningful for
    /// stochastic policies).
    pub seed: u64,
}

impl CacheConfig {
    /// 32 KB, 8-way, 64-set L1D with tree-PLRU at 4-cycle latency — the
    /// paper's Coffee Lake evaluation machine.
    pub fn l1d_coffee_lake() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            hit_latency: 4,
            replacement: ReplacementKind::TreePlru,
            seed: 0x11d,
        }
    }

    /// 256 KB, 4-way, 1024-set unified L2 at 12-cycle latency.
    pub fn l2_coffee_lake() -> Self {
        CacheConfig {
            sets: 1024,
            ways: 4,
            hit_latency: 12,
            replacement: ReplacementKind::TreePlru,
            seed: 0x12,
        }
    }

    /// Shared L3 at 40-cycle latency. The paper's machine has a 9 MB 12-way
    /// LLC; we round to 8 MB / 16-way / 8192 sets to keep power-of-two
    /// indexing and tree-PLRU's power-of-two way requirement. Capacity class
    /// and inclusivity — the properties the attacks rely on — are preserved.
    pub fn l3_coffee_lake() -> Self {
        CacheConfig {
            sets: 8192,
            ways: 16,
            hit_latency: 40,
            replacement: ReplacementKind::TreePlru,
            seed: 0x13,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * crate::LINE_BYTES
    }
}

/// One copy-on-write block of consecutive sets: their tags, valid masks and
/// packed replacement state. Sized so materialising a block on first write
/// copies kilobytes.
#[derive(Clone, Debug, PartialEq)]
struct Chunk {
    /// Line addresses, `chunk_sets * ways` entries, way-major within each
    /// set. Entries are only meaningful where the set's valid bit is set.
    tags: Vec<u64>,
    /// Per-set occupancy bitmask (bit `w` set ⇔ way `w` holds a line).
    valid: Vec<u64>,
    /// Replacement state for the chunk's sets (local indices; random
    /// per-set seeds still derive from the global set index).
    policy: PackedPolicy,
}

/// A single cache level: flattened tag arrays, packed per-set replacement
/// state and counters, chunked copy-on-write (see the [module docs](self)).
///
/// ```
/// use racer_mem::{Cache, CacheConfig, LineAddr};
/// let mut l1 = Cache::new(CacheConfig::l1d_coffee_lake());
/// let line = LineAddr(0x40);
/// assert!(!l1.access(line));      // cold miss
/// l1.fill(line);
/// assert!(l1.access(line));       // now hits
///
/// // Clones share storage until written: a fork costs pointer copies.
/// let fork = l1.clone();
/// assert_eq!(fork.shared_chunks_with(&l1), l1.num_chunks());
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    /// `log2(sets per chunk)` — shift a set index right by this for its
    /// chunk index.
    chunk_shift: u32,
    /// `sets per chunk - 1` — mask a set index by this for its local index.
    chunk_mask: usize,
    /// The level's sets in consecutive copy-on-write chunks.
    chunks: Vec<Arc<Chunk>>,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.sets` is not a power of two, `cfg.ways` is zero or
    /// exceeds 64 (the packed replacement layouts use one bit-word per set).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(cfg.ways >= 1, "need at least one way");
        let chunk_sets = cfg.sets.min(SETS_PER_CHUNK);
        let chunks = (0..cfg.sets / chunk_sets)
            .map(|c| {
                Arc::new(Chunk {
                    tags: vec![0; chunk_sets * cfg.ways],
                    valid: vec![0; chunk_sets],
                    policy: PackedPolicy::new_at_offset(
                        cfg.replacement,
                        chunk_sets,
                        cfg.ways,
                        cfg.seed,
                        c * chunk_sets,
                    ),
                })
            })
            .collect();
        Cache {
            ways: cfg.ways,
            chunk_shift: chunk_sets.trailing_zeros(),
            chunk_mask: chunk_sets - 1,
            chunks,
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Set index for `line`.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> usize {
        line.set_index(self.cfg.sets)
    }

    /// The chunk holding `set`, plus the set's local index inside it
    /// (read path: shared storage is fine).
    #[inline]
    fn chunk(&self, set: usize) -> (&Chunk, usize) {
        (&self.chunks[set >> self.chunk_shift], set & self.chunk_mask)
    }

    /// Mutable access to the chunk holding `set` — materialises a private
    /// copy if the chunk is still shared with a clone (copy-on-write).
    #[inline]
    fn chunk_mut(&mut self, set: usize) -> (&mut Chunk, usize) {
        (
            Arc::make_mut(&mut self.chunks[set >> self.chunk_shift]),
            set & self.chunk_mask,
        )
    }

    /// The full-set occupancy mask for this associativity.
    #[inline]
    fn full_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    /// Way currently holding `line`, if resident — one contiguous tag scan,
    /// touching no replacement state. This is the single lookup the hit
    /// paths reuse: callers pass the returned way to [`Cache::record_hit`]
    /// instead of paying a second scan (the old `probe`-then-`access`
    /// pattern walked the tags twice).
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<usize> {
        let (chunk, local) = self.chunk(self.set_index(line));
        let vmask = chunk.valid[local];
        let base = local * self.ways;
        let tags = &chunk.tags[base..base + self.ways];
        for (w, &t) in tags.iter().enumerate() {
            if t == line.0 && (vmask >> w) & 1 == 1 {
                return Some(w);
            }
        }
        None
    }

    /// Whether `line` is resident, without touching replacement state.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.lookup(line).is_some()
    }

    /// Record a demand hit on `line`, known (from [`Cache::lookup`]) to be
    /// resident in `way`: updates replacement state and counters without
    /// re-scanning the tags.
    #[inline]
    pub fn record_hit(&mut self, line: LineAddr, way: usize) {
        debug_assert_eq!(self.lookup(line), Some(way), "record_hit on a stale way");
        let (chunk, local) = self.chunk_mut(self.set_index(line));
        chunk.policy.on_hit(local, way);
        self.stats.hits += 1;
    }

    /// Record a demand miss (the lookup found nothing; the hierarchy
    /// decides fills).
    #[inline]
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Demand access: returns `true` on hit (updating replacement state),
    /// `false` on miss (*without* filling — the hierarchy decides fills).
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> bool {
        match self.lookup(line) {
            Some(way) => {
                self.record_hit(line, way);
                true
            }
            None => {
                self.record_miss();
                false
            }
        }
    }

    /// Insert `line`, returning the eviction outcome.
    pub fn fill(&mut self, line: LineAddr) -> FillOutcome {
        self.fill_inner(line, false)
    }

    /// Insert `line` with a non-temporal hint (placed at eviction-candidate
    /// priority; paper §6.3.1 footnote 7).
    pub fn fill_low_priority(&mut self, line: LineAddr) -> FillOutcome {
        self.fill_inner(line, true)
    }

    fn fill_inner(&mut self, line: LineAddr, low_priority: bool) -> FillOutcome {
        let resident = self.lookup(line);
        let ways = self.ways;
        let full = self.full_mask();
        let (chunk, local) = self.chunk_mut(self.set_index(line));
        let out = if let Some(way) = resident {
            // Already resident: degenerates to a touch (hardware never
            // double-fills a line).
            chunk.policy.on_hit(local, way);
            FillOutcome { way, evicted: None }
        } else {
            let base = local * ways;
            let vmask = chunk.valid[local];
            // Prefer the lowest-index empty way; only a full set consults
            // the policy for a victim.
            let (way, evicted) = if vmask != full {
                ((!vmask).trailing_zeros() as usize, None)
            } else {
                let victim = chunk.policy.victim(local);
                (victim, Some(LineAddr(chunk.tags[base + victim])))
            };
            chunk.tags[base + way] = line.0;
            chunk.valid[local] = vmask | (1 << way);
            if low_priority {
                chunk.policy.on_fill_low_priority(local, way);
            } else {
                chunk.policy.on_fill(local, way);
            }
            FillOutcome { way, evicted }
        };
        self.stats.fills += 1;
        if out.evicted.is_some() {
            self.stats.evictions += 1;
        }
        out
    }

    /// Remove `line` if resident (flush / back-invalidation).
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        match self.lookup(line) {
            Some(way) => {
                let (chunk, local) = self.chunk_mut(self.set_index(line));
                chunk.valid[local] &= !(1u64 << way);
                chunk.policy.on_invalidate(local, way);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Read-only view of one set, for diagnostics, experiments and tests.
    pub fn set(&self, index: usize) -> SetView<'_> {
        assert!(index < self.cfg.sets, "set index out of range");
        SetView {
            cache: self,
            set: index,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.cfg.sets
    }

    /// Number of copy-on-write chunks backing this level.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this cache's chunks are still *physically shared* with
    /// `other` (same allocation — neither side has written into them since
    /// the clone). Two independently built caches share nothing; a fresh
    /// clone shares everything.
    pub fn shared_chunks_with(&self, other: &Cache) -> usize {
        if self.chunks.len() != other.chunks.len() {
            return 0;
        }
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Whether this cache holds exactly `other`'s state — tags, valid bits
    /// and replacement state (random replacement's generators included),
    /// counters aside. Chunks still physically shared are equal without a
    /// look, so comparing a recent clone touches only the chunks written
    /// since it was taken.
    pub(crate) fn same_state(&self, other: &Cache) -> bool {
        self.cfg == other.cfg
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }

    /// Add `times` copies of `delta` to the counters.
    pub(crate) fn add_stats(&mut self, delta: &CacheStats, times: u64) {
        self.stats.add_times(delta, times);
    }

    /// Materialise a private copy of every still-shared chunk, making this
    /// cache's storage fully independent of any clone — the eager
    /// deep-clone the copy-on-write representation otherwise avoids.
    /// Observable state is unchanged.
    pub fn unshare(&mut self) {
        for chunk in &mut self.chunks {
            let _ = Arc::make_mut(chunk);
        }
    }

    /// Event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset counters (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Empty every set and reset all replacement state and counters (random
    /// replacement keeps its RNG streams, as hardware randomness does not
    /// rewind).
    pub fn clear(&mut self) {
        for chunk in &mut self.chunks {
            let chunk = Arc::make_mut(chunk);
            chunk.valid.fill(0);
            chunk.policy.reset();
        }
        self.stats.reset();
    }
}

/// Read-only view of one set of a [`Cache`] — the flattened-storage
/// equivalent of handing out `&CacheSet`.
#[derive(Copy, Clone)]
pub struct SetView<'a> {
    cache: &'a Cache,
    set: usize,
}

impl<'a> SetView<'a> {
    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.cache.ways
    }

    /// Way currently holding `line`, if resident in this set.
    pub fn way_of(&self, line: LineAddr) -> Option<usize> {
        let (chunk, local) = self.cache.chunk(self.set);
        let vmask = chunk.valid[local];
        let base = local * self.cache.ways;
        (0..self.cache.ways).find(|&w| (vmask >> w) & 1 == 1 && chunk.tags[base + w] == line.0)
    }

    /// Whether `line` is resident in this set.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.way_of(line).is_some()
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        let (chunk, local) = self.cache.chunk(self.set);
        chunk.valid[local].count_ones() as usize
    }

    /// The resident lines, in way order.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + 'a {
        let (chunk, local) = self.cache.chunk(self.set);
        let vmask = chunk.valid[local];
        let base = local * self.cache.ways;
        let tags = &chunk.tags[base..base + self.cache.ways];
        tags.iter()
            .enumerate()
            .filter(move |&(w, _)| (vmask >> w) & 1 == 1)
            .map(|(_, &t)| LineAddr(t))
    }

    /// The line the policy would evict next if a fill arrived now (only
    /// meaningful when the set is full).
    pub fn eviction_candidate(&self) -> Option<LineAddr> {
        if self.occupancy() < self.cache.ways {
            return None;
        }
        let (chunk, local) = self.cache.chunk(self.set);
        let way = chunk.policy.peek_victim(local);
        Some(LineAddr(chunk.tags[local * self.cache.ways + way]))
    }
}

impl std::fmt::Debug for SetView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetView")
            .field("set", &self.set)
            .field("lines", &self.resident_lines().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    #[test]
    fn capacity_matches_coffee_lake() {
        assert_eq!(CacheConfig::l1d_coffee_lake().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheConfig::l2_coffee_lake().capacity_bytes(), 256 * 1024);
        assert_eq!(
            CacheConfig::l3_coffee_lake().capacity_bytes(),
            8 * 1024 * 1024
        );
    }

    #[test]
    fn lines_map_to_disjoint_sets() {
        let c = Cache::new(CacheConfig::l1d_coffee_lake());
        // Lines differing only above the index bits share a set.
        assert_eq!(c.set_index(LineAddr(5)), c.set_index(LineAddr(5 + 64)));
        assert_ne!(c.set_index(LineAddr(5)), c.set_index(LineAddr(6)));
    }

    #[test]
    fn access_fill_probe_roundtrip() {
        let mut c = Cache::new(CacheConfig::l1d_coffee_lake());
        let l = LineAddr(0x123);
        assert!(!c.probe(l));
        assert!(!c.access(l));
        c.fill(l);
        assert!(c.probe(l));
        assert!(c.access(l));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn lookup_returns_the_way_the_fill_used() {
        let mut c = Cache::new(CacheConfig::l1d_coffee_lake());
        let l = LineAddr(0x40);
        assert_eq!(c.lookup(l), None);
        let out = c.fill(l);
        assert_eq!(c.lookup(l), Some(out.way));
    }

    #[test]
    fn conflict_evictions_counted() {
        let cfg = CacheConfig {
            sets: 2,
            ways: 2,
            hit_latency: 1,
            replacement: ReplacementKind::Lru,
            seed: 0,
        };
        let mut c = Cache::new(cfg);
        // Three lines in the same set of a 2-way cache.
        for i in 0..3u64 {
            c.fill(LineAddr(i * 2));
        }
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.probe(LineAddr(0)), "LRU victim was line 0");
    }

    #[test]
    fn invalidate_then_probe_misses() {
        let mut c = Cache::new(CacheConfig::l1d_coffee_lake());
        let l = LineAddr(0x55);
        c.fill(l);
        assert!(c.invalidate(l));
        assert!(!c.probe(l));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = Cache::new(CacheConfig::l1d_coffee_lake());
        c.fill(LineAddr(1));
        c.access(LineAddr(1));
        c.clear();
        assert!(!c.probe(LineAddr(1)));
        assert_eq!(c.stats(), &CacheStats::default());
    }

    #[test]
    fn set_view_reports_contents_in_way_order() {
        let mut c = Cache::new(CacheConfig::l1d_coffee_lake());
        // Two lines mapping to set 3 (stride = 64 lines).
        c.fill(LineAddr(3));
        c.fill(LineAddr(3 + 64));
        let view = c.set(3);
        assert_eq!(view.occupancy(), 2);
        assert_eq!(view.way_of(LineAddr(3)), Some(0));
        assert_eq!(view.way_of(LineAddr(3 + 64)), Some(1));
        assert!(view.contains(LineAddr(3)));
        assert_eq!(
            view.resident_lines().collect::<Vec<_>>(),
            vec![LineAddr(3), LineAddr(3 + 64)]
        );
        assert_eq!(view.eviction_candidate(), None, "set not full yet");
    }

    #[test]
    fn clones_share_chunks_until_written() {
        let mut base = Cache::new(CacheConfig::l2_coffee_lake());
        for i in 0..256u64 {
            base.fill(LineAddr(i));
        }
        let mut fork = base.clone();
        assert_eq!(fork.num_chunks(), 16, "1024 sets / 64 per chunk");
        assert_eq!(fork.shared_chunks_with(&base), 16);

        // Reads (lookup/probe/set views) never materialise.
        assert!(fork.probe(LineAddr(7)));
        let _ = fork.set(0).eviction_candidate();
        assert_eq!(fork.shared_chunks_with(&base), 16);

        // A write splits exactly the chunk it lands in…
        fork.fill(LineAddr(4096));
        assert_eq!(fork.shared_chunks_with(&base), 15);
        // …without becoming visible to the original.
        assert!(!base.probe(LineAddr(4096)));
        assert!(fork.probe(LineAddr(4096)));
    }

    #[test]
    fn unshare_materialises_everything_without_observable_change() {
        let mut base = Cache::new(CacheConfig::l1d_coffee_lake());
        for i in 0..100u64 {
            base.fill(LineAddr(i * 3));
        }
        let mut fork = base.clone();
        fork.unshare();
        assert_eq!(fork.shared_chunks_with(&base), 0);
        for set in 0..base.num_sets() {
            assert_eq!(
                fork.set(set).resident_lines().collect::<Vec<_>>(),
                base.set(set).resident_lines().collect::<Vec<_>>()
            );
            assert_eq!(
                fork.set(set).eviction_candidate(),
                base.set(set).eviction_candidate()
            );
        }
    }
}
