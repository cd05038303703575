//! The construction footprint of a cold machine.
//!
//! A cold cache level starts as one pristine chunk shared by all its
//! sets (`racer_mem::Cache::new`), so building a Coffee-Lake machine
//! allocates a few dozen small blocks, not the megabyte-scale hierarchy:
//! the 8 MiB L3's 128 chunks alone would be 256 allocations and about a
//! megabyte. This binary counts heap allocations and their bytes with its
//! own global allocator and holds exactly one test, so no sibling test's
//! allocations land in the count.

use racer_cpu::{Cpu, CpuConfig};
use racer_mem::HierarchyConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation and
/// the bytes each asks for.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters have no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one cold Coffee-Lake construction may make.
const MAX_ALLOCS: u64 = 32;
/// Bytes one cold Coffee-Lake construction may ask for.
const MAX_BYTES: u64 = 64 * 1024;

#[test]
fn a_cold_coffee_lake_machine_allocates_kilobytes() {
    for threads in [1, 2] {
        let cfg = CpuConfig {
            threads,
            ..CpuConfig::coffee_lake()
        };
        let (allocs, bytes) = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        let cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
        let bytes = BYTES.load(Ordering::Relaxed) - bytes;
        drop(cpu);
        assert!(
            allocs <= MAX_ALLOCS && bytes <= MAX_BYTES,
            "{threads}-thread Cpu::new made {allocs} allocations of {bytes} B, \
             budget {MAX_ALLOCS} allocations and {MAX_BYTES} B"
        );
    }
}
