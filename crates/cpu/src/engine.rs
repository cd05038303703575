//! The fork-and-run engine: many independent single-thread machines
//! forked from warm snapshots, each run to completion in turn.
//!
//! Sweeps are the repo's dominant workload shape: run N program *variants*
//! (target lengths, repeat counts, magnifier settings) on machines that
//! share a warmed-up starting state. Spawning one fresh [`Cpu`] per
//! variant pays the warmup run N times; a [`Snapshot`] pays it once:
//!
//! * **Snapshots** ([`Snapshot`]): a warmed [`Cpu`] — caches (replacement
//!   state included), data memory, trained branch predictor — behind an
//!   [`Arc`], shared across lanes and across host threads
//!   ([`batch::par_map`](crate::batch::par_map) workers can all fork from
//!   the same snapshot). A fork is a clone of that machine, and a lane is
//!   `snap.fork().run_one(prog, Backend::EventDriven)`: the same
//!   single-thread path as every other one-program run.
//! * **Shared µop tables**: a program carries its µop table, decoded
//!   once when it was built ([`Program::decoded`]); every lane running
//!   that program indexes the same table, and a run decodes nothing.
//! * **Copy-on-write lane memory**: forking clones the snapshot's
//!   [`Hierarchy`](racer_mem::Hierarchy), which shares cache storage in
//!   `Arc`-backed chunks and only materialises the chunks the lane
//!   actually writes (see `racer_mem`'s COW docs).
//! * **Scheduling contexts belong to the host thread**: the ROB ring,
//!   completion wheel, ready heaps, stall pool and store queue are not
//!   part of a [`Cpu`]. A run takes its host thread's contexts and puts
//!   them back when it ends, so a thread that runs thousands of short
//!   forks (the gadget search runs one per ladder rung) allocates its
//!   scheduling structures once.
//!
//! The engine never spawns threads: callers fan lanes out across host
//! cores with [`batch::par_map`](crate::batch::par_map).
//!
//! # Cycle exactness
//!
//! Lanes are *independent machines*: they share no simulated state, only
//! host-side tables and allocations. A lane is bit-identical (cycles,
//! committed state, timer readings, cache stats) to running the captured
//! machine itself to completion, in any lane order and on any host
//! thread. The differential suites pin the single-thread path against
//! the reference scheduler.
//!
//! ```
//! use racer_cpu::{Backend, Cpu, CpuConfig};
//! use racer_isa::Asm;
//! use racer_mem::HierarchyConfig;
//!
//! let mut asm = Asm::new();
//! let r = asm.reg();
//! asm.mov_imm(r, 21);
//! asm.add(r, r, r);
//! asm.halt();
//! let prog = asm.assemble()?;
//!
//! // Warm a machine, snapshot it, run eight forks of the snapshot.
//! let mut cpu = Cpu::new(CpuConfig::default(), HierarchyConfig::coffee_lake());
//! cpu.run_one(&prog, Backend::EventDriven); // warmup
//! let results = cpu.snapshot().run_many(&vec![prog; 8]);
//! assert_eq!(results.len(), 8);
//! // Every lane forked the same warmed state: identical results.
//! assert!(results.iter().all(|r| r.cycles == results[0].cycles));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::config::{Backend, CpuConfig};
use crate::core::Cpu;
use crate::stats::RunResult;
use racer_isa::Program;
use racer_mem::HierarchyConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// An immutable capture of a single-thread machine — config, cache
/// hierarchy (replacement and stats state included), data memory and
/// trained branch predictor — shared behind an [`Arc`].
///
/// Cloning a `Snapshot` is O(1); [`Snapshot::fork`] stamps out a fresh
/// independent [`Cpu`] whose first run behaves exactly as the captured
/// machine's next run would have. `Snapshot` is `Send + Sync`, so one
/// warmed snapshot can seed forks on every
/// [`batch::par_map`](crate::batch::par_map) worker at once.
#[derive(Clone, Debug)]
pub struct Snapshot {
    inner: Arc<Cpu>,
}

impl Snapshot {
    /// Capture `cpu`; subsequent clones and forks share it.
    ///
    /// # Panics
    ///
    /// Panics unless `cpu` is a single-thread config (forked lanes are
    /// single-thread machines).
    pub(crate) fn capture(cpu: Cpu) -> Self {
        assert_eq!(
            cpu.cfg.threads, 1,
            "snapshots capture single-thread machines"
        );
        Snapshot {
            inner: Arc::new(cpu),
        }
    }

    /// A snapshot of a *cold* machine: fresh caches, empty memory,
    /// untrained predictor. The snapshot equivalent of [`Cpu::new`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or is not single-thread.
    pub fn cold(cfg: CpuConfig, hier_cfg: HierarchyConfig) -> Self {
        Self::capture(Cpu::new(cfg, hier_cfg))
    }

    /// The captured core configuration.
    pub fn config(&self) -> &CpuConfig {
        self.inner.config()
    }

    /// Stamp out an independent machine starting from the captured state:
    /// a clone of the captured [`Cpu`]. Nothing the fork does is visible
    /// to the snapshot or to sibling forks.
    pub fn fork(&self) -> Cpu {
        Cpu::clone(&self.inner)
    }

    /// Run each of `progs` on an independent fork of this snapshot and
    /// return one [`RunResult`] per program, in input order:
    /// `self.fork().run_one(prog, Backend::EventDriven)` per program.
    pub fn run_many(&self, progs: &[Program]) -> Vec<RunResult> {
        progs
            .iter()
            .map(|p| self.fork().run_one(p, Backend::EventDriven))
            .collect()
    }
}

/// Hit/miss counters for a [`SnapshotCache`], read via
/// [`SnapshotCache::counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotCacheCounters {
    /// Lookups answered by an existing (or concurrently built) snapshot.
    pub hits: u64,
    /// Lookups that had to build (and warm) a machine.
    pub misses: u64,
}

/// The exact key a [`SnapshotCache`] slot is built from.
type CacheKey = (CpuConfig, HierarchyConfig, Option<(Program, usize)>);

/// A process-wide cache of warm [`Snapshot`]s, keyed by *(core config,
/// hierarchy config, warmup program × run count)*.
///
/// A search or sweep may stamp out thousands of machines that share a
/// [`CpuConfig`], a [`HierarchyConfig`] and a warmup program; each
/// construction would re-run the warmup. (A cold machine needs no cache:
/// its hierarchy starts as one shared pristine chunk per level, so
/// [`Cpu::new`] is already cheap.) The cache builds each distinct
/// configuration **once per process** and hands every later request an
/// O(1) [`Snapshot`] clone whose forks are bit-identical to a freshly
/// constructed and identically warmed machine.
///
/// Keying is exact: a lookup matches only when the configs and the warmup
/// program compare equal (`Eq`), so distinct configurations *never* share
/// a snapshot, no matter how similar. Each key owns one slot. The lock is
/// held only to find or insert that slot; the build runs in the slot's
/// [`OnceLock`] with no lock held. Concurrent
/// [`batch::par_map`](crate::batch::par_map) workers racing for one key
/// wait on its slot and then all hit the single built snapshot — "warm
/// exactly once per process" holds under parallelism too — while lookups
/// of other keys never wait behind a warmup. A build that panics (an
/// invalid [`CpuConfig`], say) leaves its slot empty, and the next lookup
/// of that key builds again. Nothing is evicted: the whole scenario suite
/// builds one key, the gadget search's evaluation machine.
///
/// [`SnapshotCache::global`] is the shared instance the gadget search
/// uses; independent instances can be built for tests.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    slots: Mutex<Vec<(CacheKey, Arc<OnceLock<Snapshot>>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SnapshotCache {
    /// An empty cache.
    pub const fn new() -> Self {
        SnapshotCache {
            slots: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static SnapshotCache {
        static GLOBAL: SnapshotCache = SnapshotCache::new();
        &GLOBAL
    }

    /// A snapshot of a machine under `(cfg, hier_cfg)` warmed by running
    /// `warmup`'s program the given number of times on the event-driven
    /// backend (`None` ⇒ cold). Forks are bit-identical to constructing
    /// and warming a fresh machine the same way. The caller that builds
    /// counts a miss; every other caller of the key counts a hit.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or is not single-thread.
    pub fn warmed(
        &self,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        warmup: Option<(&Program, usize)>,
    ) -> Snapshot {
        let slot = self.slot(cfg, hier_cfg, warmup);
        let mut built = false;
        let snap = slot.get_or_init(|| {
            built = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut cpu = Cpu::new(cfg, hier_cfg);
            if let Some((prog, runs)) = warmup {
                for _ in 0..runs {
                    cpu.run_one(prog, Backend::EventDriven);
                }
            }
            Snapshot::capture(cpu)
        });
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        snap.clone()
    }

    /// The key's slot, inserted empty on first sight.
    fn slot(
        &self,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        warmup: Option<(&Program, usize)>,
    ) -> Arc<OnceLock<Snapshot>> {
        let mut slots = self.lock();
        let found = slots.iter().find(|((c, h, w), _)| {
            *c == cfg && *h == hier_cfg && w.as_ref().map(|(p, runs)| (p, *runs)) == warmup
        });
        if let Some((_, slot)) = found {
            return Arc::clone(slot);
        }
        let slot = Arc::default();
        let key = (cfg, hier_cfg, warmup.map(|(p, runs)| (p.clone(), runs)));
        slots.push((key, Arc::clone(&slot)));
        slot
    }

    /// The slot list, recovered if a panic ever poisoned the lock. Sound
    /// because the list is only ever searched or pushed to under it.
    fn lock(&self) -> MutexGuard<'_, Vec<(CacheKey, Arc<OnceLock<Snapshot>>)>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hit/miss counters since construction.
    pub fn counters(&self) -> SnapshotCacheCounters {
        SnapshotCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of built snapshots (a slot whose build is in flight or
    /// panicked does not count).
    pub fn len(&self) -> usize {
        self.lock()
            .iter()
            .filter(|(_, s)| s.get().is_some())
            .count()
    }

    /// Whether no snapshot is built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached snapshot (counters are kept).
    pub fn clear(&self) {
        self.lock().clear();
    }
}
