//! Copy-on-write fork semantics: cloning a [`Hierarchy`] shares chunked
//! cache storage behind `Arc`s and materialises private chunks on first
//! write — these tests pin that the sharing is *unobservable*. A forked
//! pair driven by arbitrary interleaved access streams must stay
//! bit-identical (outcomes, stats, tag contents, replacement state, RNG
//! position) to eagerly deep-cloned hierarchies driven by the same
//! streams, including the case where one fork never writes a shared level
//! at all.

use proptest::prelude::*;
use racer_mem::{AccessKind, Addr, Cache, Hierarchy, HierarchyConfig, ReplacementKind};

fn kinds() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![
        Just(ReplacementKind::TreePlru),
        Just(ReplacementKind::Lru),
        Just(ReplacementKind::Random),
        Just(ReplacementKind::Fifo),
        Just(ReplacementKind::Srrip),
    ]
}

/// Small levels so a few hundred ops reach every eviction and
/// back-invalidation path, with enough sets that the L2/L3 span multiple
/// would-be chunks of larger geometries.
fn tiny_hierarchy(kind: ReplacementKind) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::coffee_lake();
    cfg.l1d.sets = 4;
    cfg.l1d.ways = 2;
    cfg.l1d.replacement = kind;
    cfg.l2.sets = 8;
    cfg.l2.ways = 2;
    cfg.l2.replacement = kind;
    cfg.l3.sets = 8;
    cfg.l3.ways = 4;
    cfg.l3.replacement = kind;
    cfg
}

/// Apply one encoded op to a hierarchy. Ops 0–3 mutate; 4 flushes; 5–6 are
/// read-only (they must never split a shared chunk).
fn apply(h: &mut Hierarchy, addr: u64, op: u8) -> String {
    let a = Addr(addr * 64);
    match op % 7 {
        0 => format!("{:?}", h.access(a, AccessKind::Load)),
        1 => format!("{:?}", h.access(a, AccessKind::Store)),
        2 => format!("{:?}", h.access(a, AccessKind::Prefetch)),
        3 => format!("{:?}", h.access(a, AccessKind::PrefetchNta)),
        4 => {
            h.flush(a);
            "flush".into()
        }
        5 => format!("{:?}", h.probe(a)),
        _ => format!("{:?}", h.peek_latency(a)),
    }
}

/// Full-state fingerprint: the derived `Debug` output covers tags, valid
/// masks, packed replacement state, RNG position and every counter.
/// (`PackedPolicy` and `Hierarchy` deliberately have no `PartialEq`, so
/// the formatted form is the bit-exactness proxy, as in the differential
/// suite.)
fn fingerprint(h: &Hierarchy) -> String {
    format!("{h:?}")
}

/// Chunks per level (L1, L2, L3) that `h` no longer shares with `base` —
/// the private copies a copy-on-write clone has materialised.
fn unshared_chunks(h: &Hierarchy, base: &Hierarchy) -> [usize; 3] {
    let unshared = |a: &Cache, b: &Cache| a.num_chunks() - a.shared_chunks_with(b);
    [
        unshared(h.l1d(), base.l1d()),
        unshared(h.l2(), base.l2()),
        unshared(h.l3(), base.l3()),
    ]
}

proptest! {
    /// A fresh hierarchy, whose cold levels share one pristine chunk
    /// across all their slots, behaves exactly like a fresh hierarchy
    /// with every chunk private: same per-op outcomes and counters, and
    /// the same state at the end. Coffee-lake, with a tree-PLRU or a
    /// random-replacement L1 (whose chunks are built per position, not
    /// shared). Lines spread over sets in different chunks of every
    /// level and carry more tags than the L3 has ways, so writes land in
    /// shared slots, evict and back-invalidate.
    #[test]
    fn fresh_shared_levels_match_private_ones(
        random_l1 in any::<bool>(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u64..16, 0u64..20, 0u8..7), 1..600),
    ) {
        let mut cfg = HierarchyConfig::coffee_lake();
        if random_l1 {
            cfg.l1d.replacement = ReplacementKind::Random;
            cfg.l1d.seed = seed;
        }
        let mut shared = Hierarchy::new(cfg);
        let mut private = Hierarchy::new(cfg);
        private.unshare();
        prop_assert_eq!(private.l3().shared_chunks_with(shared.l3()), 0);

        for &(set, tag, op) in &ops {
            let line = set * 513 + tag * cfg.l3.sets as u64;
            let got = apply(&mut shared, line, op);
            let want = apply(&mut private, line, op);
            prop_assert_eq!(got, want, "outcome diverged (random L1: {})", random_l1);
            prop_assert_eq!(shared.stats(), private.stats());
        }
        prop_assert!(shared.same_state(&private));
    }

    /// A COW-forked pair under an arbitrary interleaved access stream is
    /// bit-identical — per-op outcomes and final full state — to eagerly
    /// deep-cloned (`unshare`d) hierarchies driven by the same per-lane
    /// streams, and neither fork's writes leak into the other or into the
    /// warmed base.
    #[test]
    fn forked_pair_matches_eager_deep_clones(
        kind in kinds(),
        warmup in proptest::collection::vec((0u64..64, 0u8..4), 0..120),
        ops in proptest::collection::vec((any::<bool>(), 0u64..64, 0u8..7), 1..400),
    ) {
        let mut base = Hierarchy::new(tiny_hierarchy(kind));
        for &(addr, op) in &warmup {
            apply(&mut base, addr, op);
        }

        // Copy-on-write forks: chunk-pointer copies of the warmed base.
        let mut cow = [base.clone(), base.clone()];
        prop_assert_eq!(unshared_chunks(&cow[0], &base), [0; 3]);
        prop_assert_eq!(unshared_chunks(&cow[1], &base), [0; 3]);

        // Eager deep clones of the same state: all storage private up front.
        let mut eager = [base.clone(), base.clone()];
        eager[0].unshare();
        eager[1].unshare();
        prop_assert_eq!(eager[0].l3().shared_chunks_with(base.l3()), 0);

        let base_before = fingerprint(&base);
        for &(second, addr, op) in &ops {
            let lane = second as usize;
            let got = apply(&mut cow[lane], addr, op);
            let want = apply(&mut eager[lane], addr, op);
            prop_assert_eq!(got, want, "outcome diverged (kind {:?})", kind);
        }

        // Final state bit-identical per lane; forks and base fully isolated.
        prop_assert_eq!(fingerprint(&cow[0]), fingerprint(&eager[0]));
        prop_assert_eq!(fingerprint(&cow[1]), fingerprint(&eager[1]));
        prop_assert_eq!(fingerprint(&base), base_before, "fork wrote into its base");
    }

    /// Read-only traffic (probes, latency peeks) on one fork while the
    /// other mutates: the read-only fork stays fully chunk-shared with the
    /// base — the never-written-shared-level case — and still reports
    /// exactly the base's contents.
    #[test]
    fn never_written_fork_stays_shared_and_exact(
        kind in kinds(),
        warmup in proptest::collection::vec((0u64..64, 0u8..4), 1..120),
        ops in proptest::collection::vec((0u64..64, 0u8..7), 1..200),
    ) {
        let mut base = Hierarchy::new(tiny_hierarchy(kind));
        for &(addr, op) in &warmup {
            apply(&mut base, addr, op);
        }
        let mut writer = base.clone();
        let mut reader = base.clone();

        for &(addr, op) in &ops {
            apply(&mut writer, addr, op);
            // Reader only ever probes/peeks (ops 5 and 6).
            let got = apply(&mut reader, addr, 5 + op % 2);
            let want = apply(&mut base.clone(), addr, 5 + op % 2);
            prop_assert_eq!(got, want);
        }

        // The reader never materialised anything…
        prop_assert_eq!(unshared_chunks(&reader, &base), [0; 3]);
        // …and is still bit-identical to the base despite the writer's
        // traffic against the same shared chunks.
        prop_assert_eq!(fingerprint(&reader), fingerprint(&base));
    }
}

/// Full-geometry smoke test: at Coffee-Lake scale a fork materialises
/// only the chunks it touched, not whole levels — what keeps a snapshot
/// fork cheap.
#[test]
fn coffee_lake_fork_materialises_proportionally() {
    let mut base = Hierarchy::new(HierarchyConfig::coffee_lake());
    // Warm a realistic working set: 512 lines.
    for i in 0..512u64 {
        base.load(Addr(i * 64));
    }
    let mut fork = base.clone();
    assert_eq!(unshared_chunks(&fork, &base), [0; 3]);

    // Touch a single line: at most one chunk per level splits, out of
    // the many chunks a deep clone of the L2/L3 would copy.
    fork.load(Addr(0));
    let after_one = unshared_chunks(&fork, &base);
    assert!(
        after_one.iter().sum::<usize>() > 0,
        "a write must materialise something"
    );
    assert!(
        after_one.iter().all(|&n| n <= 1),
        "single-line touch materialised {after_one:?} chunks — not chunk-granular"
    );
    assert!(base.l3().num_chunks() > 1, "the L3 spans several chunks");

    // The base is untouched and other forks still share everything.
    let other = base.clone();
    assert_eq!(unshared_chunks(&other, &base), [0; 3]);
}
