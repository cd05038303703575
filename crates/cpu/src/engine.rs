//! The fork-and-run engine: many independent single-thread machines
//! forked from warm snapshots, each run to completion in turn.
//!
//! Sweeps are the repo's dominant workload shape: run N program *variants*
//! (target lengths, repeat counts, magnifier settings) on machines that
//! share a warmed-up starting state. Spawning one fresh [`Cpu`] per
//! variant pays the warmup run and the scheduling-structure allocation N
//! times; [`fork_and_run`] pays them once:
//!
//! * **Snapshots** ([`Snapshot`]): one deep capture of a machine's
//!   persistent state — caches (replacement state included), data memory,
//!   trained branch predictor — behind an [`Arc`], shared copy-on-fork
//!   across lanes and across host threads
//!   ([`batch::par_map`](crate::batch::par_map) workers can all fork from
//!   the same snapshot). A sweep warms one machine, snapshots it, and
//!   forks it per point instead of re-running warmup per point.
//! * **Shared µop tables**: a program carries its µop table, decoded
//!   once when it was built ([`Program::decoded`]); every lane running
//!   that program indexes the same table, and the engine decodes
//!   nothing. A countermeasure or repeat-count sweep that runs the same
//!   gadget N times decodes it once.
//! * **Copy-on-write lane memory**: forking a lane clones the snapshot's
//!   [`Hierarchy`], which shares cache storage in
//!   `Arc`-backed chunks and only materialises the chunks the lane
//!   actually writes (see `racer_mem`'s COW docs).
//! * **One reused context per host thread**: a `ThreadCtx` (ROB ring,
//!   completion wheel, ready heaps, stall pool, store queue) belongs to
//!   the host thread, not to the call. It is reset for every lane and
//!   parked in a thread-local slot between calls, so a thread that makes
//!   thousands of short calls (the gadget search scores one candidate per
//!   call) allocates its scheduling structures once.
//!
//! The engine never spawns threads: callers fan calls out across host
//! cores with [`batch::par_map`](crate::batch::par_map).
//!
//! # Cycle exactness
//!
//! Lanes are *independent machines*: they share no simulated state, only
//! host-side tables and allocations. Each lane runs the **same**
//! single-thread cycle loop [`Cpu::run`] uses, under its own snapshot's
//! [`CpuConfig`], so a lane is bit-identical (cycles, committed state,
//! timer readings, cache stats) to forking a whole machine and running it
//! to completion, in any lane order. The differential suites pin this
//! against both schedulers.
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
use crate::core::{self, Cpu, ThreadCtx};
use crate::predictor::Predictor;
use crate::stats::RunResult;
use racer_isa::{DataMemory, Program};
use racer_mem::{Hierarchy, HierarchyConfig};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// An immutable capture of a machine's persistent state — config, cache
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
    inner: Arc<SnapshotState>,
}

#[derive(Debug)]
struct SnapshotState {
    cfg: CpuConfig,
    hier: Hierarchy,
    mem: DataMemory,
    predictor: Box<dyn Predictor>,
}

impl Snapshot {
    /// Capture `cpu`'s persistent state. One deep copy; subsequent clones
    /// and forks share it.
    ///
    /// # Panics
    ///
    /// Panics unless `cpu` is a single-thread config (forked lanes are
    /// single-thread machines).
    pub(crate) fn capture(cpu: &Cpu) -> Self {
        assert_eq!(
            cpu.cfg.threads, 1,
            "snapshots capture single-thread machines"
        );
        Snapshot {
            inner: Arc::new(SnapshotState {
                cfg: cpu.cfg,
                hier: cpu.hier.clone(),
                mem: cpu.mem.clone(),
                predictor: cpu.predictors[0].clone_box(),
            }),
        }
    }

    /// A snapshot of a *cold* machine: fresh caches, empty memory,
    /// untrained predictor. The snapshot equivalent of [`Cpu::new`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or is not single-thread.
    pub fn cold(cfg: CpuConfig, hier_cfg: HierarchyConfig) -> Self {
        Self::capture(&Cpu::new(cfg, hier_cfg))
    }

    /// The captured core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.inner.cfg
    }

    /// Stamp out an independent machine starting from the captured state.
    /// The fork owns its own copies: nothing it does is visible to the
    /// snapshot or to sibling forks.
    pub fn fork(&self) -> Cpu {
        Cpu {
            cfg: self.inner.cfg,
            hier: self.inner.hier.clone(),
            mem: self.inner.mem.clone(),
            predictors: vec![self.inner.predictor.clone_box()],
            ctxs: vec![ThreadCtx::default()],
        }
    }

    /// Run each of `progs` on an independent fork of this snapshot and
    /// return one [`RunResult`] per program, in input order — the
    /// single-source form of [`fork_and_run`]. Results are bit-identical
    /// to `self.fork().run_one(prog, Backend::EventDriven)` per program.
    pub fn run_many(&self, progs: &[Program]) -> Vec<RunResult> {
        fork_and_run(progs.iter().map(|p| (self, p))).collect()
    }
}

thread_local! {
    /// This host thread's scheduling context, parked between
    /// [`fork_and_run`] calls (empty while a call holds it).
    static PARKED_CTX: Cell<Option<ThreadCtx>> = const { Cell::new(None) };
}

/// A [`fork_and_run`] call's lanes plus the scheduling context they run
/// on, taken from this host thread's slot and put back on drop.
struct Lanes<I> {
    lanes: I,
    ctx: ThreadCtx,
}

impl<'a, I: Iterator<Item = (&'a Snapshot, &'a Program)>> Iterator for Lanes<I> {
    type Item = RunResult;

    fn next(&mut self) -> Option<RunResult> {
        let (snap, prog) = self.lanes.next()?;
        let src = &snap.inner;
        self.ctx.reset(src.cfg.rob_size);
        Some(core::run_fork(
            &src.cfg,
            src.hier.clone(),
            src.mem.clone(),
            src.predictor.clone_box(),
            prog,
            &mut self.ctx,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.lanes.size_hint()
    }
}

impl<I> Drop for Lanes<I> {
    fn drop(&mut self) {
        let ctx = std::mem::take(&mut self.ctx);
        // During thread teardown the slot may already be gone; the
        // context is then simply dropped.
        let _ = PARKED_CTX.try_with(|slot| slot.set(Some(ctx)));
    }
}

/// Run every `(snapshot, program)` lane to completion on its own fork of
/// the snapshot, one lane after another, yielding one [`RunResult`] per
/// lane in input order.
///
/// Lanes run lazily: each one runs when the iterator reaches it, so a
/// caller that reads each result before asking for the next holds one
/// result at a time (one trace, for a traced config), and one that stops
/// early runs no further lanes. `.collect()` runs them all.
///
/// Lanes may fork from different snapshots — distinct cache layouts,
/// jitter seeds, planted secrets, even distinct [`CpuConfig`]s: each lane
/// runs under its own snapshot's config. Each lane reads its program's own
/// µop table ([`Program::decoded`]). The scheduling context belongs to the
/// host thread and persists across calls: a call takes the thread's
/// context when it starts, resets it for every lane, and puts it back when
/// the iterator drops, so a loop of calls on one thread (one gadget
/// candidate per call) allocates its ROB ring, wheel and heaps once. A
/// call made while another call's iterator is alive on the same thread
/// builds its own context. Each result is bit-identical to
/// `snap.fork().run_one(prog, Backend::EventDriven)`; the snapshots are
/// untouched.
pub fn fork_and_run<'a, I>(lanes: I) -> impl Iterator<Item = RunResult> + 'a
where
    I: IntoIterator<Item = (&'a Snapshot, &'a Program)>,
    I::IntoIter: 'a,
{
    Lanes {
        lanes: lanes.into_iter(),
        ctx: PARKED_CTX.with(Cell::take).unwrap_or_default(),
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
/// Scenarios stamp out hundreds of machines that share a [`CpuConfig`]
/// and a [`HierarchyConfig`]; each construction re-allocates the cache
/// hierarchy and (for warmed sweeps) re-runs the warmup program. The
/// cache builds each distinct configuration **once per process** and
/// hands every later request an O(1) [`Snapshot`] clone whose forks are
/// bit-identical to a freshly constructed (and identically warmed)
/// machine — the byte-identity argument the batch-first experiment
/// pipeline rests on.
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
/// builds about a dozen keys.
///
/// [`SnapshotCache::global`] is the shared instance the experiment
/// pipeline uses; independent instances can be built for tests.
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

    /// A snapshot of a cold machine under `(cfg, hier_cfg)` — cached
    /// [`Snapshot::cold`]. Forks are bit-identical to
    /// `Cpu::new(cfg, hier_cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or is not single-thread.
    pub fn cold(&self, cfg: CpuConfig, hier_cfg: HierarchyConfig) -> Snapshot {
        self.warmed(cfg, hier_cfg, None)
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
            cpu.snapshot()
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
