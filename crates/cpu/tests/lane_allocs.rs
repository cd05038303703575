//! The allocation budget of a warmed fork-and-run lane.
//!
//! A host thread keeps its scheduling context (ROB ring, consumer lists,
//! completion wheel, ready heaps) across runs, so once one run has warmed
//! it, a lane — `snap.fork().run_one(..)` — allocates only a fixed
//! handful: the fork's hierarchy and memory clones, its predictor vector
//! and table, the divider state, its trace (reserved once) and its
//! register file. This binary counts heap allocations with its own
//! global allocator and holds exactly one test, so no sibling test's
//! allocations land in the count.

use racer_cpu::workloads::{alu_chain, timer_race_phased};
use racer_cpu::{Backend, Cpu, CpuConfig, RecordLevel};
use racer_mem::HierarchyConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a warmed traced straight-line lane may make.
const ALLOCS_PER_LANE: u64 = 8;

#[test]
fn a_warmed_lane_allocates_a_fixed_handful() {
    // The gadget search's shape: a small warmed machine, traced
    // straight-line racing programs of different lengths. The longest
    // lane dispatches more instructions than the ROB holds and runs for
    // more cycles than one turn of the completion wheel, so every ring
    // slot and wheel bucket is reused within a lane, not only across
    // lanes.
    let cfg = CpuConfig::coffee_lake().with_record_level(RecordLevel::Trace);
    let mut cpu = Cpu::new(cfg, HierarchyConfig::small_plru());
    cpu.run_one(&alu_chain(32), Backend::EventDriven);
    let snap = cpu.snapshot();
    let progs: Vec<_> = (0..8)
        .map(|i| timer_race_phased(4 + 6 * i, 40 + 25 * i, i % 3).prog)
        .collect();
    let lane = |p| snap.fork().run_one(p, Backend::EventDriven);

    let warm: Vec<_> = progs.iter().map(lane).collect();
    let longest = warm.last().expect("eight lanes");
    assert!(longest.trace.len() > cfg.rob_size && longest.cycles > 512);

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut committed = 0;
    for p in &progs {
        committed += lane(p).committed;
    }
    let made = ALLOCS.load(Ordering::Relaxed) - before;

    let want: u64 = warm.iter().map(|r| r.committed).sum();
    assert_eq!(committed, want, "the two passes ran the same lanes");
    let lanes = progs.len() as u64;
    assert!(
        made <= ALLOCS_PER_LANE * lanes,
        "{made} allocations over {lanes} warmed lanes, budget {ALLOCS_PER_LANE} a lane"
    );
}
