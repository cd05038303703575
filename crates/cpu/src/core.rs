//! The cycle-level out-of-order pipeline.
//!
//! A classic dynamically scheduled core: predicted fetch → rename/dispatch
//! into a reorder buffer → data-driven issue to functional-unit ports →
//! writeback with branch resolution and squash → in-order commit.
//!
//! Two properties matter for Hacky Racers and are modelled faithfully:
//!
//! 1. **ILP races are real**: independent dependence chains issue in data
//!    order, not program order, bounded by ports, the scheduler window and
//!    the ROB — so which of two *paths* (paper §4) finishes first depends
//!    only on their latencies.
//! 2. **Cache state updates at access time**: a load that issues — even one
//!    later squashed by a mispredicted branch — changes replacement state
//!    immediately ("fill at issue"). Completion order of racing loads is
//!    therefore visible in the cache, which is precisely what the racing
//!    gadgets (§5) transmit through and the countermeasure modes
//!    (`Countermeasure`) selectively suppress.
//!
//! # SMT: multiple hardware threads
//!
//! The core is a **multi-context SMT machine** (paper §9, "other shared
//! resources"): [`CpuConfig::threads`](crate::CpuConfig) contexts each own
//! a private front end (fetch PC, fetch queue), ROB ring, rename state
//! (RAT + undo log), scheduling structures and retire port — all hoisted
//! into `ThreadCtx` — while the *structural* resources stay shared at the
//! core level: issue bandwidth, functional-unit ports, the non-pipelined
//! divider units, the MSHR file and the cache hierarchy (`Shared`).
//! Each cycle an [`SmtPolicy`](crate::config::SmtPolicy) (round-robin or
//! ICOUNT) decides which context claims issue slots first. A one-thread
//! run takes the single-thread cycle loop instead of the SMT driver;
//! the differential suites pin both cycle-exactly against the retained
//! reference scheduler.
//!
//! Threads share the data memory as a common physical address space but
//! have **no cross-thread memory-ordering model** (no inter-thread store
//! forwarding or disambiguation); co-scheduled workloads are expected to
//! use disjoint address ranges, which is exactly the SMT port-contention
//! threat model: the attacker observes the victim through *timing* on
//! shared ports, never through shared data.
//!
//! # Scheduling implementation
//!
//! Every paper experiment funnels millions of simulated cycles through this
//! file, so the scheduler is **event-driven** rather than scan-based (the
//! original scan-based implementation survives, cycle-exactly equivalent, as
//! [`crate::reference`]):
//!
//! * **Tag-broadcast wakeup.** Each in-flight producer keeps a list of the
//!   (consumer, operand-slot) pairs that renamed against it; when it
//!   completes, only those dependents are woken. There is no per-cycle
//!   ROB-wide source refresh and no commit-time broadcast scan — a consumer
//!   that dispatches after its producer completed reads the value straight
//!   from the producer's ROB slot.
//! * **Ring-buffer ROB.** Entries live in fixed slots of a pre-sized ring;
//!   a `(sequence, slot)` pair is a validated O(1) handle, replacing the
//!   `VecDeque` + `binary_search` lookups. Squash invalidates the tail
//!   lazily: stale handles in the scheduling heaps are dropped on pop.
//! * **Ready heaps per functional-unit class.** Issue merges the per-class
//!   min-sequence heaps, skipping classes whose ports are exhausted — the
//!   same instructions the reference scheduler picks by scanning the whole
//!   ROB in program order, at O(issued · log window) instead of O(ROB).
//! * **Undo-log rename recovery.** Each entry records the RAT mapping its
//!   destination displaced; a squash walks the squashed suffix youngest-
//!   first restoring them — no per-branch RAT clone, no checkpoint
//!   `HashMap`.
//! * **O(1) order checks.** Load speculation status ("any older unresolved
//!   branch?") and conservative store disambiguation come from small
//!   in-flight queues (`spec_branches`, `store_q`) instead of prefix walks
//!   of the ROB.
//! * **Pre-decoded µop tables.** Every stage indexes the program's own
//!   µop table ([`Program::decoded`], decoded once when the program was
//!   built, never per run) by pc instead of pattern-matching
//!   [`Instr`](racer_isa::Instr): FU
//!   classes are dense indices, operand reads are slot lookups (no
//!   register-compare walks), destinations/source lists/branch targets are
//!   precomputed. ROB slots do not store the instruction at all. (The
//!   reference scheduler deliberately keeps executing from `Instr`, so the
//!   differential suite cross-checks the decoder too.)
//! * **Load stall pool.** A load that fails issue (MSHR capacity, store
//!   disambiguation, delay-on-miss) parks in `stalled_loads` and is
//!   re-attempted only when a wake condition fires — the earliest
//!   outstanding-miss expiry, a store issuing or committing, a line fill,
//!   or branch resolution under delay-on-miss — instead of a heap
//!   round-trip plus a full re-check every cycle. Every skipped cycle is
//!   one where the attempt provably fails exactly as before, so issue
//!   timing is unchanged (and differentially tested). Under SMT the same
//!   holds: every fill site also posts the line to each sibling thread,
//!   which drains its pool at its next issue pass if a parked load waits
//!   on that line. Freed MSHR capacity is the expiry wake above; a
//!   sibling's fill or new outstanding miss is the only other cross-thread
//!   event that can unblock a parked load.
//! * **Steady-state fast-forward** (`core/steady.rs`). A program's
//!   repeated region (`racer_isa::Region`) is stored once, so every slot
//!   carries its µop index next to its logical pc.
//!   On a single-thread, counters-only run whose body has no store, the
//!   loop watches the region's round boundaries; once the machine state at one
//!   boundary equals an earlier one (relative to cycle, sequence number
//!   and round), the loop skips whole periods and simulates the rest —
//!   bit-identical results, counted in `RunResult::fast_forwarded`. The
//!   reference scheduler never fast-forwards.
//! * **No steady-state allocation.** All scheduling structures live in
//!   the per-thread `ThreadCtx` structs, which belong to the host
//!   thread, not to a [`Cpu`]: a run takes its host thread's contexts
//!   (one per simulated hardware thread) and puts them back when it ends,
//!   so consecutive runs on one host thread — of one machine or of
//!   thousands of [`Snapshot::fork`](crate::Snapshot::fork)s — reuse
//!   them. A [`Cpu`] is therefore plain state, and a fork is a clone of
//!   it. A run decodes nothing (the µop table belongs to the program);
//!   sources use inline `[Src; 3]` storage (no instruction has more than
//!   three; the register names live in the decoded table), and the
//!   `loads`/`trace` vectors are only touched when
//!   [`CpuConfig::record`](crate::CpuConfig) asks for them (a
//!   single-thread traced run reserves its trace once, one record per
//!   stored instruction). SMT arbitration fills two driver-owned buffers, sized
//!   once per run.

use crate::config::{Backend, Countermeasure, CpuConfig, RecordLevel};
use crate::predictor::Predictor;
use crate::stats::{LoadEvent, RunResult};
use racer_isa::{
    AluOp, DataMemory, DecodedInstr, DecodedMem, DecodedOp, FuClass, Program, SrcRef, NUM_REGS,
};
use racer_mem::{AccessKind, Addr, Hierarchy, HitLevel};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

mod steady;

/// Dynamic-instruction sequence number (per hardware thread).
type Seq = u64;

#[derive(Copy, Clone, Debug, Eq, PartialEq)]
enum EntryState {
    /// Dispatched, waiting for sources / a port.
    Waiting,
    /// Executing on a functional unit.
    Issued,
    /// Result available.
    Done,
}

#[derive(Copy, Clone, Debug)]
enum Src {
    Ready(u64),
    Tag(Seq),
}

/// Completion time-wheel size in cycles (power of two, comfortably above
/// the worst memory latency the hierarchy model produces).
const WHEEL: usize = 512;

/// Functional-unit classes as dense indices for the per-class ready heaps —
/// the same indices [`FuClass::index`] bakes into every
/// [`DecodedInstr::cls`] at decode time.
const CLS_ALU: usize = FuClass::Alu.index();
const CLS_MUL: usize = FuClass::Mul.index();
const CLS_DIV: usize = FuClass::Div.index();
const CLS_LOAD: usize = FuClass::Load.index();
const CLS_STORE: usize = FuClass::Store.index();
const CLS_BRANCH: usize = FuClass::Branch.index();
const NUM_CLASSES: usize = FuClass::COUNT;

/// One ROB ring slot. Slots are overwritten in place at dispatch; the
/// `consumers` vector keeps its capacity across reuse, so a warmed-up
/// pipeline dispatches without touching the allocator. The instruction
/// itself is *not* stored: `pc` indexes the program's µop table
/// ([`Program::decoded`]), which already holds every static fact the
/// stages need.
#[derive(Clone, Debug)]
struct Slot {
    seq: Seq,
    /// Logical pc (predictor index, branch fall-through, load events).
    pc: usize,
    /// Stored µop index of `pc` ([`DecodedProgram::uop_index`]), the
    /// index every stage reads the µop table by.
    uop: u32,
    state: EntryState,
    /// Number of sources (`srcs[..nsrcs]` are live).
    nsrcs: u8,
    /// Sources still waiting on a producer tag.
    pending: u8,
    /// Inline source storage — no instruction reads more than 3 registers.
    /// Indexed by decode-time source slot; the register names live in the
    /// decoded table, so only the value/tag state is kept here.
    srcs: [Src; 3],
    result: u64,
    completion: u64,
    predicted_taken: bool,
    /// Effective address for memory ops, resolved at issue.
    mem_addr: Option<u64>,
    /// Cache fill deferred to commit (invisible-speculation modes).
    deferred_fill: bool,
    /// Index into the run's load-event vector, if recorded.
    load_event: Option<u32>,
    /// Index into the run's trace vector, if recorded.
    trace_idx: Option<u32>,
    /// RAT mapping this entry's destination displaced at rename (the squash
    /// undo-log entry).
    prev_rat: Option<(Seq, u32)>,
    /// For branches: resolution (train + possible squash) already happened.
    resolved: bool,
    /// Cycle of the most recent issue attempt (loads only): a stall-pool
    /// drain triggered by a mid-cycle event must not attempt the same entry
    /// twice in one cycle — the reference scheduler attempts each entry at
    /// most once per cycle.
    last_attempt: u64,
    /// Dependents to wake at completion: (consumer seq, slot, source index).
    consumers: Vec<(Seq, u32, u8)>,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: 0,
            pc: 0,
            uop: 0,
            state: EntryState::Done,
            nsrcs: 0,
            pending: 0,
            srcs: [Src::Ready(0); 3],
            result: 0,
            completion: 0,
            predicted_taken: false,
            mem_addr: None,
            deferred_fill: false,
            load_event: None,
            trace_idx: None,
            prev_rat: None,
            resolved: false,
            last_attempt: u64::MAX,
            consumers: Vec::new(),
        }
    }
}

/// A fetch-queue entry. Deliberately lean — the instruction itself is
/// re-read from program memory at dispatch rather than copied through the
/// queue (the front end moves `fetch_width` of these every cycle).
#[derive(Copy, Clone, Debug)]
struct FetchedInstr {
    pc: u32,
    predicted_taken: bool,
    ready_cycle: u64,
}

/// One hardware thread context: everything private to a context — the
/// reusable scheduling structures (ROB ring, RAT, ready heaps, completion
/// wheel, stall pool, front-end queue) *and* the per-run state (fetch PC,
/// fence/drain flags, result counters, event vectors). Owned by the host
/// thread, not by a [`Cpu`] (see [`with_host_ctxs`]), so consecutive runs
/// on one host thread — of one machine or of thousands of forks, the
/// shape of every sweep — run allocation-free once capacities have
/// warmed up.
#[derive(Debug, Default)]
pub(crate) struct ThreadCtx {
    /// ROB ring storage (capacity = `rob_size`).
    slots: Vec<Slot>,
    /// Ring position of the oldest entry.
    head: usize,
    /// Occupied ring length.
    len: usize,
    /// Per-class min-seq heaps of ready-to-issue entries.
    ready: [BinaryHeap<Reverse<(Seq, u32)>>; NUM_CLASSES],
    /// Bitmask of classes whose ready heap is non-empty (issue's class
    /// merge skips empty heaps without touching them).
    ready_mask: u8,
    /// Completion time wheel: in-flight entries bucketed by completion
    /// cycle modulo [`WHEEL`] — O(1) insert and O(arrivals) drain, replacing
    /// a binary heap on the two hottest per-instruction edges.
    wheel: Vec<Vec<(Seq, u32)>>,
    /// Scratch bucket swapped in while draining the current wheel slot;
    /// the slot's own buffer goes back after, so every bucket keeps its
    /// capacity from run to run.
    wheel_scratch: Vec<(Seq, u32)>,
    /// Completions further than [`WHEEL`] cycles out (DRAM-latency outliers;
    /// re-homed into the wheel as their arrival approaches).
    far: Vec<(u64, Seq, u32)>,
    /// Completed branches awaiting resolution, oldest first.
    resolve_q: BinaryHeap<Reverse<(Seq, u32)>>,
    /// Loads whose issue attempt failed (store disambiguation, MSHR
    /// capacity, delay-on-miss). They re-enter the ready heap only when a
    /// *wake condition* fires — the earliest outstanding-miss expiry
    /// (`stall_wake_cycle`) or an unblocking event (`stall_wake_now`) —
    /// instead of burning a heap round-trip plus a full re-check every
    /// cycle. Every skipped cycle is one where the attempt provably fails
    /// exactly as it did before, so issue timing is unchanged.
    stalled_loads: Vec<(Seq, u32)>,
    /// Earliest cycle an outstanding L1 miss completes and frees an MSHR
    /// (`u64::MAX` when no capacity-blocked load is waiting on one).
    stall_wake_cycle: u64,
    /// An unblocking event fired (store issued/committed, a line filled,
    /// a branch resolved under delay-on-miss): drain the stall pool at the
    /// next issue opportunity.
    stall_wake_now: bool,
    /// Wakeup scratch (swapped with a completing producer's consumer list).
    wake: Vec<(Seq, u32, u8)>,
    /// Front-end queue between fetch and dispatch.
    fetch_q: VecDeque<FetchedInstr>,
    /// Register alias table: architectural register → youngest in-flight
    /// producer handle.
    rat: Vec<Option<(Seq, u32)>>,
    /// Architectural register file.
    arch_regs: Vec<u64>,
    /// In-flight stores in program order: (seq, address once resolved).
    store_q: VecDeque<(Seq, Option<u64>)>,
    /// In-flight conditional branches in program order (resolved ones are
    /// popped lazily from the front).
    spec_branches: VecDeque<(Seq, u32)>,
    /// Entries in `Waiting` state (reservation-station occupancy).
    waiting_count: usize,
    /// In-order mode: window positions before this offset hold no Waiting
    /// entry (monotone cursor, reset on squash).
    inorder_skip: usize,

    // ---- per-run state (reset by `reset`) ------------------------------
    /// Next dynamic sequence number.
    next_seq: Seq,
    /// Next pc the front end fetches.
    fetch_pc: usize,
    /// Fetch has stopped (program end or fetched `halt`).
    fetch_stopped: bool,
    /// An in-flight fence blocks dispatch until it commits/squashes.
    fence_active: Option<Seq>,
    /// Pipeline draining for the timer-interrupt model.
    draining: bool,
    /// This context finished its program (committed halt, ran off the end,
    /// or hit the cycle limit) — the driver skips all its stages.
    done: bool,
    /// Cycle this context finished at (its `RunResult::cycles`).
    end_cycle: u64,
    /// The context aborted at the configured cycle limit.
    limit_hit: bool,

    /// Loads parked in the stall pool so far (the steady-state detector
    /// reads it to know whether the periodic pool drain mattered).
    stall_parks: u64,

    // Results under construction.
    committed: u64,
    mispredicts: u64,
    squashed: u64,
    interrupts: u64,
    /// Body rounds advanced by steady-state extrapolation.
    fast_forwarded: u64,
    halted: bool,
    loads: Vec<LoadEvent>,
    trace: Vec<crate::trace::TraceRecord>,
}

impl ThreadCtx {
    pub(crate) fn reset(&mut self, rob_size: usize) {
        if self.slots.len() != rob_size {
            self.slots.clear();
            self.slots.resize_with(rob_size, Slot::empty);
        }
        self.head = 0;
        self.len = 0;
        for h in &mut self.ready {
            h.clear();
        }
        self.ready_mask = 0;
        if self.wheel.len() != WHEEL {
            self.wheel = (0..WHEEL).map(|_| Vec::new()).collect();
        }
        for b in &mut self.wheel {
            b.clear();
        }
        self.wheel_scratch.clear();
        self.far.clear();
        self.resolve_q.clear();
        self.stalled_loads.clear();
        self.stall_wake_cycle = u64::MAX;
        self.stall_wake_now = false;
        self.wake.clear();
        self.fetch_q.clear();
        if self.rat.len() != NUM_REGS {
            self.rat.resize(NUM_REGS, None);
            self.arch_regs.resize(NUM_REGS, 0);
        }
        self.rat.fill(None);
        self.arch_regs.fill(0);
        self.store_q.clear();
        self.spec_branches.clear();
        self.waiting_count = 0;
        self.inorder_skip = 0;

        self.next_seq = 0;
        self.fetch_pc = 0;
        self.fetch_stopped = false;
        self.fence_active = None;
        self.draining = false;
        self.done = false;
        self.end_cycle = 0;
        self.limit_hit = false;
        self.stall_parks = 0;
        self.committed = 0;
        self.mispredicts = 0;
        self.squashed = 0;
        self.interrupts = 0;
        self.fast_forwarded = 0;
        self.halted = false;
        self.loads = Vec::new();
        self.trace = Vec::new();
    }

    /// Is a load parked in the stall pool on `line`?
    fn parks_on_line(&self, line: u64) -> bool {
        self.stalled_loads.iter().any(|&(_, slot)| {
            self.slots[slot as usize]
                .mem_addr
                .is_some_and(|a| Addr(a).line().0 == line)
        })
    }

    #[inline]
    fn cap(&self) -> usize {
        self.slots.len()
    }

    /// `x mod cap` for `x < 2*cap` without an integer division (the ROB
    /// capacity is not a power of two, and these run several times per
    /// simulated instruction).
    #[inline]
    fn wrap(&self, x: usize) -> usize {
        let cap = self.cap();
        if x >= cap {
            x - cap
        } else {
            x
        }
    }

    /// Ring position of `slot` relative to the window head.
    #[inline]
    fn pos(&self, slot: u32) -> usize {
        self.wrap(slot as usize + self.cap() - self.head)
    }

    /// Is this (seq, slot) handle still a live ROB entry?
    #[inline]
    fn valid(&self, seq: Seq, slot: u32) -> bool {
        self.pos(slot) < self.len && self.slots[slot as usize].seq == seq
    }

    /// Ring index of the youngest entry (window must be non-empty).
    #[inline]
    fn tail_slot(&self) -> usize {
        self.wrap(self.head + self.len - 1)
    }

    /// Ring index the next dispatch will use.
    #[inline]
    fn alloc_slot(&self) -> usize {
        self.wrap(self.head + self.len)
    }

    /// Assemble this context's finished run into a [`RunResult`], moving
    /// the recorded event vectors out. `mem_stats` is the hierarchy delta
    /// the caller attributes to the run. Shared by the single-thread and
    /// SMT paths so the result shape can never drift between them.
    fn take_result(&mut self, mem_stats: racer_mem::HierarchyStats) -> RunResult {
        RunResult {
            cycles: self.end_cycle,
            committed: self.committed,
            halted: self.halted,
            limit_hit: self.limit_hit,
            mispredicts: self.mispredicts,
            squashed_instrs: self.squashed,
            interrupts: self.interrupts,
            fast_forwarded: self.fast_forwarded,
            regs: self.arch_regs.clone(),
            mem_stats,
            loads: std::mem::take(&mut self.loads),
            trace: std::mem::take(&mut self.trace),
        }
    }
}

thread_local! {
    /// This host thread's scheduling contexts, one per hardware thread of
    /// the widest run it has made (empty while a run holds them).
    static HOST_CTXS: Cell<Vec<ThreadCtx>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on `n` of this host thread's scheduling contexts, each reset
/// for a ROB of `rob_size`. The run takes the contexts and puts them back
/// when it ends, so the next run on the thread reuses their capacity
/// whatever machine it simulates; a run that panics drops them, and the
/// next run builds fresh ones.
fn with_host_ctxs<R>(n: usize, rob_size: usize, f: impl FnOnce(&mut [ThreadCtx]) -> R) -> R {
    let mut ctxs = HOST_CTXS.take();
    if ctxs.len() < n {
        ctxs.resize_with(n, ThreadCtx::default);
    }
    for ctx in &mut ctxs[..n] {
        ctx.reset(rob_size);
    }
    let r = f(&mut ctxs[..n]);
    HOST_CTXS.set(ctxs);
    r
}

/// Structural resources shared by every hardware thread: the divider
/// units (one busy-until cycle **per unit** — multi-port divide configs no
/// longer serialize on a single scalar) and the L1 MSHR file. Issue ports
/// and bandwidth are also shared, but live as per-cycle counters in the
/// driver loop.
#[derive(Debug)]
struct Shared {
    /// Outstanding L1 miss lines → data-arrival cycle (MSHR model; at most
    /// `mshrs` entries, so linear scans beat hashing). Shared across
    /// threads, like a real L1's MSHR file: one thread's misses consume
    /// capacity — and open merge windows — for the other.
    inflight: Vec<(u64, u64)>,
    /// Per-divider-unit next-free cycle (non-fully-pipelined units).
    div_busy_until: Vec<u64>,
    /// Per thread of an SMT run (empty for a single thread): lines a
    /// sibling filled, or opened an outstanding miss on, since the
    /// thread's last issue pass — the cross-thread stall-pool wake
    /// source. `None` once the thread has finished and nobody reads it.
    sibling_fills: Vec<Option<Vec<u64>>>,
}

impl Shared {
    fn new(div_ports: usize, nthreads: usize) -> Self {
        Shared {
            inflight: Vec::new(),
            div_busy_until: vec![0; div_ports],
            sibling_fills: if nthreads > 1 {
                vec![Some(Vec::new()); nthreads]
            } else {
                Vec::new()
            },
        }
    }

    /// Post `line`'s fill from thread `from` to every other live thread.
    fn post_fill(&mut self, from: usize, line: u64) {
        for (tid, fills) in self.sibling_fills.iter_mut().enumerate() {
            if let Some(fills) = fills.as_mut().filter(|_| tid != from) {
                fills.push(line);
            }
        }
    }

    /// Is any divider unit free this cycle?
    #[inline]
    fn div_unit_free(&self, now: u64) -> bool {
        self.div_busy_until.iter().any(|&b| b <= now)
    }

    /// Claim a free divider unit for `recip` cycles (caller checked
    /// [`Shared::div_unit_free`]).
    #[inline]
    fn claim_div_unit(&mut self, now: u64, recip: u64) {
        let unit = self
            .div_busy_until
            .iter()
            .position(|&b| b <= now)
            .expect("div_unit_free checked before claiming");
        self.div_busy_until[unit] = now + recip;
    }
}

/// The simulated core, owning its memory hierarchy, data memory and branch
/// predictors. All of those persist across [`Cpu::run`] calls — caches
/// stay warm and the predictors stay trained, exactly like the machine a
/// JavaScript attacker repeatedly invokes functions on. That state is
/// all a `Cpu` holds (scheduling structures belong to the host thread),
/// so a clone is an independent machine, cheap to make: its caches are
/// copy-on-write.
///
/// ```
/// use racer_cpu::{Backend, Cpu, CpuConfig};
/// use racer_isa::Asm;
/// use racer_mem::HierarchyConfig;
///
/// let mut cpu = Cpu::new(CpuConfig::default(), HierarchyConfig::coffee_lake());
/// let mut asm = Asm::new();
/// let r = asm.reg();
/// asm.mov_imm(r, 21);
/// asm.add(r, r, r);
/// asm.halt();
/// let prog = asm.assemble()?;
/// let result = cpu.run_one(&prog, Backend::EventDriven);
/// assert!(result.halted);
/// assert_eq!(result.regs[r.index()], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cpu {
    pub(crate) cfg: CpuConfig,
    pub(crate) hier: Hierarchy,
    pub(crate) mem: DataMemory,
    /// One predictor per hardware thread (real SMT designs partition or
    /// tag predictor state per context; sharing it would also be a
    /// cross-thread channel this model deliberately does not open).
    /// Index 0 is the classic single-thread predictor; all persist across
    /// `run` calls.
    pub(crate) predictors: Vec<Predictor>,
}

impl Cpu {
    /// Build a core with a fresh (cold) memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CpuConfig::validate`].
    pub fn new(cfg: CpuConfig, hier_cfg: racer_mem::HierarchyConfig) -> Self {
        cfg.validate();
        Cpu {
            predictors: vec![Predictor::new(cfg.predictor)],
            cfg,
            hier: Hierarchy::new(hier_cfg),
            mem: DataMemory::new(),
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Replace the countermeasure mode (for sweeping defences over the same
    /// warmed-up machine state).
    pub fn set_countermeasure(&mut self, c: Countermeasure) {
        self.cfg.countermeasure = c;
    }

    /// Replace the event-recording level (a caller that reads only the
    /// counters of one run lowers it to [`RecordLevel::Counters`], which
    /// also lets a repeated region fast-forward, and restores it after).
    pub fn set_record_level(&mut self, level: RecordLevel) {
        self.cfg.record = level;
    }

    /// Architectural data memory.
    pub fn mem(&self) -> &DataMemory {
        &self.mem
    }

    /// Mutable architectural data memory (experiment setup).
    pub fn mem_mut(&mut self) -> &mut DataMemory {
        &mut self.mem
    }

    /// The cache hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Mutable cache hierarchy (experiment setup, e.g. pre-warming sets).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hier
    }

    /// Reset every hardware thread's branch predictor (forget all
    /// training).
    pub fn reset_predictor(&mut self) {
        for p in &mut self.predictors {
            p.reset();
        }
    }

    /// Grow the per-thread predictors to `n` contexts.
    fn ensure_threads(&mut self, n: usize) {
        let kind = self.cfg.predictor;
        if self.predictors.len() < n {
            self.predictors.resize_with(n, || Predictor::new(kind));
        }
    }

    /// Run `prog` to completion (committed `halt`, program end, or the
    /// configured cycle limit) on a single hardware thread with the chosen
    /// [`Backend`], returning timing and event data.
    ///
    /// Pipeline state is fresh per call; caches, data memory and predictor
    /// state persist from previous calls (run on a
    /// [`Snapshot::fork`](crate::Snapshot::fork) to leave this machine
    /// untouched). Always runs exactly one context regardless of
    /// [`CpuConfig::threads`](crate::CpuConfig) — use [`Cpu::run`] for
    /// co-scheduled programs.
    pub fn run_one(&mut self, prog: &Program, backend: Backend) -> RunResult {
        match backend {
            Backend::EventDriven => self.run_single(prog),
            Backend::Reference => self.run_reference(&[prog]).remove(0),
        }
    }

    /// The single execution entry point: run `progs` with the chosen
    /// [`Backend`], returning one [`RunResult`] per program
    /// (index-matched).
    ///
    /// Both backends **co-schedule** the programs, one per configured
    /// hardware thread. Each thread's `cycles` is the cycle *that thread*
    /// finished at; a thread that finishes early leaves the machine to
    /// the survivors, so contention is strongest while both run.
    /// `mem_stats` is the shared hierarchy's delta for the whole co-run
    /// (the caches are shared, so per-thread attribution does not exist
    /// in hardware either). With one thread the event-driven backend takes
    /// the same path as [`Cpu::run_one`].
    ///
    /// # Panics
    ///
    /// Panics unless `progs.len()` equals
    /// [`CpuConfig::threads`](crate::CpuConfig).
    pub fn run(&mut self, progs: &[&Program], backend: Backend) -> Vec<RunResult> {
        assert_eq!(
            progs.len(),
            self.cfg.threads,
            "the {backend} backend co-schedules one program per configured hardware thread"
        );
        match backend {
            Backend::EventDriven if progs.len() == 1 => vec![self.run_single(progs[0])],
            Backend::EventDriven => self.run_smt(progs),
            Backend::Reference => self.run_reference(progs),
        }
    }

    /// Capture this machine's persistent state (config, caches, data
    /// memory, trained predictor) as a shareable [`Snapshot`](crate::Snapshot) that
    /// [`Snapshot::fork`](crate::Snapshot::fork) can stamp out independent machines from.
    ///
    /// # Panics
    ///
    /// Panics unless this is a single-thread config (forked lanes are
    /// single-thread machines).
    pub fn snapshot(&self) -> crate::engine::Snapshot {
        crate::engine::Snapshot::capture(self.clone())
    }

    /// The one single-thread event-driven path — forks, one-program calls
    /// and one-thread [`Cpu::run`] calls all take it: the
    /// [`Pipeline::run_single`] loop on this host thread's first
    /// scheduling context.
    fn run_single(&mut self, prog: &Program) -> RunResult {
        let cfg = &self.cfg;
        with_host_ctxs(1, cfg.rob_size, |ctxs| {
            let s = &mut ctxs[0];
            if cfg.record.trace() {
                // One record per dispatched instruction: a straight-line
                // program dispatches each stored instruction once.
                s.trace.reserve(prog.stored().len());
            }
            let stats_before = self.hier.stats();
            Pipeline {
                cfg,
                hier: &mut self.hier,
                mem: &mut self.mem,
                predictor: &mut self.predictors[0],
                prog,
                dec: prog.decoded().uops(),
                tid: 0,
                s,
                sh: &mut Shared::new(cfg.div_ports, 1),
                cycle: 0,
            }
            .run_single();
            s.take_result(self.hier.stats().since(&stats_before))
        })
    }

    /// Co-schedule two or more programs on this host thread's scheduling
    /// contexts.
    fn run_smt(&mut self, progs: &[&Program]) -> Vec<RunResult> {
        let n = progs.len();
        self.ensure_threads(n);
        with_host_ctxs(n, self.cfg.rob_size, |ctxs| {
            SmtRun {
                cfg: self.cfg,
                hier: &mut self.hier,
                mem: &mut self.mem,
                predictors: &mut self.predictors[..n],
                progs,
                ctxs,
                shared: Shared::new(self.cfg.div_ports, n),
                cycle: 0,
            }
            .run()
        })
    }

    fn run_reference(&mut self, progs: &[&Program]) -> Vec<RunResult> {
        let n = progs.len();
        self.ensure_threads(n);
        crate::reference::RefPipeline::new(
            self.cfg,
            &mut self.hier,
            &mut self.mem,
            &mut self.predictors[..n],
            progs,
        )
        .run()
    }
}

/// The per-cycle driver of a run of two or more hardware threads: owns
/// the shared structural resources and walks every live thread context
/// through the five pipeline stages in a fixed global order (all
/// writebacks, all commits, arbitrated issue, all dispatches, all
/// fetches). One-thread runs take [`Pipeline::run_single`] instead; the
/// SMT differential suite pins this driver against the reference
/// scheduler.
struct SmtRun<'a> {
    cfg: CpuConfig,
    hier: &'a mut Hierarchy,
    mem: &'a mut DataMemory,
    predictors: &'a mut [Predictor],
    progs: &'a [&'a Program],
    ctxs: &'a mut [ThreadCtx],
    shared: Shared,
    cycle: u64,
}

impl SmtRun<'_> {
    /// Run one stage of thread `tid` through a per-thread pipeline view.
    fn stage<R>(&mut self, tid: usize, f: impl FnOnce(&mut Pipeline<'_>) -> R) -> R {
        let mut view = Pipeline {
            cfg: &self.cfg,
            hier: self.hier,
            mem: self.mem,
            predictor: &mut self.predictors[tid],
            prog: self.progs[tid],
            dec: self.progs[tid].decoded().uops(),
            tid,
            s: &mut self.ctxs[tid],
            sh: &mut self.shared,
            cycle: self.cycle,
        };
        f(&mut view)
    }

    /// Mark thread `tid` finished at the current cycle.
    fn finish_thread(&mut self, tid: usize, limit_hit: bool) {
        let c = &mut self.ctxs[tid];
        c.done = true;
        c.end_cycle = self.cycle;
        c.limit_hit = limit_hit;
        self.shared.sibling_fills[tid] = None;
    }

    fn run(mut self) -> Vec<RunResult> {
        let stats_before = self.hier.stats();
        let n = self.progs.len();
        // Arbitration buffers, rewritten every cycle.
        let mut occupancy = vec![0usize; n];
        let mut order = vec![0usize; n];
        loop {
            for tid in 0..n {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.writeback());
                }
            }
            for tid in 0..n {
                if self.ctxs[tid].done {
                    continue;
                }
                self.stage(tid, |p| p.commit());
                if self.ctxs[tid].halted {
                    self.finish_thread(tid, false);
                }
            }
            // Issue: shared bandwidth and ports; the arbitration policy
            // decides which context claims first. Both live here in the
            // driver, not per thread.
            let mut used = [0usize; NUM_CLASSES];
            let mut issued = 0usize;
            for (occ, c) in occupancy.iter_mut().zip(self.ctxs.iter()) {
                *occ = c.len;
            }
            self.cfg
                .smt_policy
                .order(self.cycle, &occupancy, &mut order);
            for &tid in &order {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.issue(&mut used, &mut issued));
                }
            }
            for tid in 0..n {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.dispatch());
                }
            }
            for tid in 0..n {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.fetch());
                }
            }
            for tid in 0..n {
                if !self.ctxs[tid].done && self.stage(tid, |p| p.finished()) {
                    self.finish_thread(tid, false);
                }
            }
            if self.ctxs.iter().all(|c| c.done) {
                break;
            }
            self.cycle += 1;
            for tid in 0..n {
                let c = &mut self.ctxs[tid];
                if c.done {
                    continue;
                }
                if let Some(interval) = self.cfg.interrupt_interval {
                    if self.cycle.is_multiple_of(interval) && !c.draining {
                        c.draining = true;
                        c.interrupts += 1;
                    }
                }
                if c.draining && c.len == 0 {
                    c.draining = false;
                }
            }
            if self.cycle >= self.cfg.max_run_cycles {
                for tid in 0..n {
                    if !self.ctxs[tid].done {
                        self.finish_thread(tid, true);
                    }
                }
                break;
            }
        }
        let mem_stats = self.hier.stats().since(&stats_before);
        self.ctxs
            .iter_mut()
            .map(|c| c.take_result(mem_stats))
            .collect()
    }
}

/// One thread's view of the machine for one pipeline stage: its private
/// context (`s`), the shared structural resources (`sh`), and the shared
/// memory system.
struct Pipeline<'a> {
    cfg: &'a CpuConfig,
    hier: &'a mut Hierarchy,
    mem: &'a mut DataMemory,
    predictor: &'a mut Predictor,
    prog: &'a Program,
    /// `prog`'s stored µops ([`Program::decoded`]), indexed by µop index
    /// (`Slot::uop`; fetch and dispatch map pcs with `uop_index`).
    dec: &'a [DecodedInstr],
    /// This thread's index (its slot in `sh.sibling_fills`).
    tid: usize,
    s: &'a mut ThreadCtx,
    sh: &'a mut Shared,
    cycle: u64,
}

impl<'a> Pipeline<'a> {
    /// The whole single-thread run, on one view: structurally the
    /// original pre-SMT cycle loop (stage order, halt/finish breaks,
    /// interrupt drain, cycle limit), so the classic path pays no
    /// per-cycle driver cost. Leaves the context's `done`/`end_cycle`/
    /// `limit_hit` set for the shared result assembly. A run that can
    /// fast-forward ends every cycle with the steady-state detector.
    fn run_single(&mut self) {
        let mut steady = steady::Steady::new(self);
        loop {
            self.writeback();
            self.commit();
            if self.s.halted {
                self.finish(false);
                return;
            }
            let mut used = [0usize; NUM_CLASSES];
            let mut issued = 0usize;
            self.issue(&mut used, &mut issued);
            self.dispatch();
            self.fetch();
            if self.finished() {
                self.finish(false);
                return;
            }
            self.cycle += 1;
            if let Some(interval) = self.cfg.interrupt_interval {
                if self.cycle.is_multiple_of(interval) && !self.s.draining {
                    self.s.draining = true;
                    self.s.interrupts += 1;
                }
            }
            if self.s.draining && self.s.len == 0 {
                self.s.draining = false;
            }
            if self.cycle >= self.cfg.max_run_cycles {
                self.finish(true);
                return;
            }
            if let Some(st) = steady.as_mut() {
                st.end_of_cycle(self);
            }
        }
    }

    /// Record this context as finished at the current cycle.
    fn finish(&mut self, limit_hit: bool) {
        self.s.done = true;
        self.s.end_cycle = self.cycle;
        self.s.limit_hit = limit_hit;
    }

    /// With ROB and fetch queue empty and fetch stopped (or the program
    /// exhausted), nothing can restart the machine: a stopped fetch either
    /// means the program fell off its end (a committed `halt` would have set
    /// `halted` instead), or a wrong-path `halt` was fetched — and the
    /// mispredicted branch that caused it must already have resolved and
    /// redirected fetch, since the ROB has drained.
    fn finished(&self) -> bool {
        self.s.len == 0
            && self.s.fetch_q.is_empty()
            && (self.s.fetch_stopped || self.s.fetch_pc >= self.prog.len())
            && !self.s.halted
    }

    // ---- helpers -----------------------------------------------------------

    /// Value of the `i`-th source slot (the decode-time slot mapping: no
    /// register comparison walk).
    #[inline]
    fn slot_value(slot: &Slot, i: u8) -> u64 {
        match slot.srcs[i as usize] {
            Src::Ready(v) => v,
            Src::Tag(_) => panic!("source slot {i} read before ready"),
        }
    }

    /// Value of a decode-time operand reference.
    #[inline]
    fn src_value(slot: &Slot, s: SrcRef) -> u64 {
        match s {
            SrcRef::Slot(i) => Self::slot_value(slot, i),
            SrcRef::Imm(v) => v,
        }
    }

    /// Effective address of a slot-mapped memory operand.
    #[inline]
    fn mem_operand_addr(slot: &Slot, m: &DecodedMem) -> u64 {
        let base = m.base.map_or(0, |i| Self::slot_value(slot, i));
        let index = m.index.map_or(0, |i| Self::slot_value(slot, i));
        base.wrapping_add(index.wrapping_mul(m.scale as u64))
            .wrapping_add(m.disp as u64)
    }

    /// Is the entry with sequence number `seq` speculative, i.e. does an
    /// older unresolved conditional branch exist? O(1) amortized: resolved
    /// and retired branches are popped from the front lazily, so the front
    /// is always the oldest in-flight unresolved branch.
    fn is_speculative(&mut self, seq: Seq) -> bool {
        while let Some(&(bseq, bslot)) = self.s.spec_branches.front() {
            if !self.s.valid(bseq, bslot) || self.s.slots[bslot as usize].state == EntryState::Done
            {
                self.s.spec_branches.pop_front();
                continue;
            }
            break;
        }
        matches!(self.s.spec_branches.front(), Some(&(bseq, _)) if bseq < seq)
    }

    // ---- pipeline stages ----------------------------------------------------

    /// Push an entry onto a class ready heap (and flag the class non-empty).
    #[inline]
    fn ready_push(&mut self, cls: usize, seq: Seq, slot: u32) {
        self.s.ready[cls].push(Reverse((seq, slot)));
        self.s.ready_mask |= 1 << cls;
    }

    /// Completions, dependency wakeup and branch resolution.
    fn writeback(&mut self) {
        // Re-home far-out completions (DRAM outliers) whose arrival is now
        // inside the wheel horizon.
        if !self.s.far.is_empty() {
            let mut i = 0;
            while i < self.s.far.len() {
                let (comp, seq, slot) = self.s.far[i];
                if comp - self.cycle < WHEEL as u64 {
                    self.s.far.swap_remove(i);
                    self.s.wheel[comp as usize & (WHEEL - 1)].push((seq, slot));
                } else {
                    i += 1;
                }
            }
        }
        // Drain this cycle's wheel bucket: everything whose functional-unit
        // latency has elapsed.
        let now_bucket = self.cycle as usize & (WHEEL - 1);
        let mut bucket = std::mem::take(&mut self.s.wheel_scratch);
        std::mem::swap(&mut bucket, &mut self.s.wheel[now_bucket]);
        for &(seq, slot) in &bucket {
            if !self.s.valid(seq, slot) {
                continue; // squashed while in flight
            }
            let e = &mut self.s.slots[slot as usize];
            debug_assert_eq!(
                e.state,
                EntryState::Issued,
                "completion of non-issued entry"
            );
            e.state = EntryState::Done;
            let result = e.result;
            if let Some(t) = e.trace_idx {
                self.s.trace[t as usize].completed = Some(e.completion);
            }
            // Tag broadcast: wake exactly the registered dependents.
            let is_branch = matches!(
                self.dec[self.s.slots[slot as usize].uop as usize].op,
                DecodedOp::Branch { .. }
            );
            if is_branch && self.cfg.countermeasure == Countermeasure::DelayOnMiss {
                // A resolving branch can turn a delay-on-miss-blocked load
                // non-speculative: wake the stall pool this cycle.
                self.s.stall_wake_now = true;
            }
            if self.s.slots[slot as usize].consumers.is_empty() {
                if is_branch {
                    self.s.resolve_q.push(Reverse((seq, slot)));
                }
                continue;
            }
            let mut wake = std::mem::take(&mut self.s.wake);
            std::mem::swap(&mut wake, &mut self.s.slots[slot as usize].consumers);
            for &(cseq, cslot, si) in &wake {
                if !self.s.valid(cseq, cslot) {
                    continue; // consumer squashed
                }
                let c = &mut self.s.slots[cslot as usize];
                debug_assert!(
                    matches!(c.srcs[si as usize], Src::Tag(t) if t == seq),
                    "consumer source does not hold the producer tag"
                );
                c.srcs[si as usize] = Src::Ready(result);
                c.pending -= 1;
                let now_ready = c.pending == 0
                    && c.state == EntryState::Waiting
                    && self.cfg.countermeasure != Countermeasure::InOrder;
                if now_ready {
                    let cls = self.dec[c.uop as usize].cls as usize;
                    self.ready_push(cls, cseq, cslot);
                }
            }
            wake.clear();
            self.s.wake = wake;
            if is_branch {
                self.s.resolve_q.push(Reverse((seq, slot)));
            }
        }
        // The drain scheduled nothing, so the slot still holds the empty
        // scratch: give the bucket its own buffer back, so every bucket
        // keeps its capacity instead of drifting round the wheel.
        bucket.clear();
        std::mem::swap(&mut bucket, &mut self.s.wheel[now_bucket]);
        debug_assert!(bucket.is_empty(), "the drain refilled its own bucket");
        self.s.wheel_scratch = bucket;
        // Resolve branches oldest-first; a squash invalidates younger ones,
        // whose stale handles are dropped by the validity check.
        while let Some(Reverse((seq, slot))) = self.s.resolve_q.pop() {
            if !self.s.valid(seq, slot) {
                continue;
            }
            let e = &self.s.slots[slot as usize];
            if e.resolved {
                continue;
            }
            let taken = e.result != 0;
            let predicted = e.predicted_taken;
            let pc = e.pc;
            self.predictor.train(pc, taken);
            self.s.slots[slot as usize].resolved = true;
            if taken != predicted {
                self.mispredict(slot, seq, taken);
            }
        }
    }

    fn mispredict(&mut self, slot: u32, seq: Seq, taken: bool) {
        self.s.mispredicts += 1;
        // Squash everything younger than the branch, youngest first,
        // restoring the displaced RAT mappings as we go (undo log). Walking
        // youngest-to-oldest makes the sequence of `prev_rat` restores
        // reconstruct exactly the rename state at the branch's dispatch.
        while self.s.len > 0 {
            let t = self.s.tail_slot();
            if self.s.slots[t].seq <= seq {
                break;
            }
            let d = &self.dec[self.s.slots[t].uop as usize];
            let v = &mut self.s.slots[t];
            if let Some(dst) = d.dst {
                self.s.rat[dst.index()] = v.prev_rat;
            }
            if v.state == EntryState::Waiting {
                self.s.waiting_count -= 1;
            }
            if let Some(li) = v.load_event {
                // Invariant: a load being squashed can never have committed.
                assert!(
                    !self.s.loads[li as usize].committed,
                    "squashed load marked committed"
                );
            }
            // CleanupSpec: undo the squashed load's cache fill. The *state*
            // is repaired — but any timing difference it caused has already
            // been consumed by older instructions (SpectreBack's point).
            if self.cfg.countermeasure == Countermeasure::CleanupSpec {
                let v = &self.s.slots[t];
                if let DecodedOp::Load(_) = d.op {
                    if v.state != EntryState::Waiting {
                        if let Some(addr) = v.mem_addr {
                            self.hier.flush(Addr(addr));
                        }
                    }
                }
            }
            self.s.squashed += 1;
            self.s.len -= 1;
        }
        while matches!(self.s.store_q.back(), Some(&(sseq, _)) if sseq > seq) {
            self.s.store_q.pop_back();
        }
        while matches!(self.s.spec_branches.back(), Some(&(bseq, _)) if bseq > seq) {
            self.s.spec_branches.pop_back();
        }
        self.s.stalled_loads.retain(|&(sseq, _)| sseq <= seq);
        if self.s.inorder_skip > self.s.len {
            self.s.inorder_skip = self.s.len;
        }
        // Redirect fetch down the correct path.
        let (pc, uop) = (
            self.s.slots[slot as usize].pc,
            self.s.slots[slot as usize].uop,
        );
        let target = match self.dec[uop as usize].op {
            DecodedOp::Branch { target, .. } => {
                if taken {
                    target as usize
                } else {
                    pc + 1
                }
            }
            _ => unreachable!("mispredict on non-branch"),
        };
        self.s.fetch_q.clear();
        self.s.fetch_pc = target;
        self.s.fetch_stopped = target >= self.prog.len();
        // A squashed fence no longer blocks dispatch.
        if let Some(fseq) = self.s.fence_active {
            if fseq > seq {
                self.s.fence_active = None;
            }
        }
    }

    /// In-order retirement. (No commit-time tag broadcast is needed: the
    /// completion-time wakeup resolved every registered consumer, and later
    /// consumers rename straight to the ready value.)
    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.s.len == 0 {
                break;
            }
            let h = self.s.head;
            if self.s.slots[h].state != EntryState::Done {
                break;
            }
            self.s.head = self.s.wrap(h + 1);
            self.s.len -= 1;
            self.s.inorder_skip = self.s.inorder_skip.saturating_sub(1);
            self.s.committed += 1;
            let e = &self.s.slots[h];
            let (seq, result, mem_addr) = (e.seq, e.result, e.mem_addr);
            let d = &self.dec[e.uop as usize];
            if let Some(t) = e.trace_idx {
                self.s.trace[t as usize].committed = Some(self.cycle);
            }
            // Architectural register update + RAT release.
            if let Some(dst) = d.dst {
                self.s.arch_regs[dst.index()] = result;
                if matches!(self.s.rat[dst.index()], Some((rseq, _)) if rseq == seq) {
                    self.s.rat[dst.index()] = None;
                }
            }
            match d.op {
                DecodedOp::Store { .. } => {
                    let addr = mem_addr.expect("store address resolved at issue");
                    self.mem.write(addr, result);
                    self.hier.access(Addr(addr), AccessKind::Store);
                    debug_assert_eq!(
                        self.s.store_q.front().map(|&(s, _)| s),
                        Some(seq),
                        "stores commit in store-queue order"
                    );
                    self.s.store_q.pop_front();
                    // The commit both fills the line and removes the store
                    // from the disambiguation window: wake aliased loads.
                    // Commit precedes issue, so everyone may observe it.
                    self.wake_stalled_on_line(Addr(addr).line().0, 0);
                }
                DecodedOp::Load(_) if self.s.slots[h].deferred_fill => {
                    // Invisible-speculation modes: apply the fill now.
                    let addr = mem_addr.expect("load address resolved at issue");
                    self.hier.access(Addr(addr), AccessKind::Load);
                    self.wake_stalled_on_line(Addr(addr).line().0, 0);
                }
                DecodedOp::Fence => {
                    self.s.fence_active = None;
                }
                DecodedOp::Halt => {
                    self.s.halted = true;
                    return;
                }
                _ => {}
            }
            if let Some(li) = self.s.slots[h].load_event {
                self.s.loads[li as usize].committed = true;
            }
        }
    }

    /// Data-driven issue to functional units: merge the per-class ready
    /// heaps in global sequence order, skipping classes with exhausted
    /// ports — selecting exactly the instructions the reference scheduler's
    /// program-order ROB scan would pick. `used` and `issued` are the
    /// per-cycle port and bandwidth budgets, shared across hardware
    /// threads: the driver passes the same counters to every context, in
    /// arbitration order.
    fn issue(&mut self, used: &mut [usize; NUM_CLASSES], issued: &mut usize) {
        let sibling_fill = self.take_sibling_fills();
        if self.cfg.countermeasure == Countermeasure::InOrder {
            self.issue_in_order(used, issued);
            return;
        }
        // Prune arrived fills once per cycle (`now` is constant inside the
        // cycle, so per-attempt pruning was redundant work; with SMT the
        // retain simply re-runs as a no-op for later threads).
        let now = self.cycle;
        self.sh.inflight.retain(|&(_, done)| done > now);
        // Wake the stall pool when a blocking condition may have cleared:
        // an outstanding miss expired (deterministic cycle), an unblocking
        // event of this thread fired since the last issue pass, or a
        // sibling thread filled (or opened a miss on) a parked load's line
        // since then. A sibling's fill posted before this pass is seen now
        // and one posted after it next cycle — exactly when the reference
        // scheduler's per-cycle attempts would first succeed. A periodic
        // fallback drain bounds staleness as a liveness belt-and-braces —
        // a drained attempt that still fails just goes straight back.
        if self.s.stall_wake_now
            || now >= self.s.stall_wake_cycle
            || sibling_fill
            || (!self.s.stalled_loads.is_empty() && now.is_multiple_of(64))
        {
            self.s.stall_wake_now = false;
            self.s.stall_wake_cycle = u64::MAX;
            self.drain_stalled(None);
        }
        while *issued < self.cfg.issue_width {
            // Pick the oldest ready entry among classes with a free port,
            // visiting only classes whose heap is non-empty.
            let mut best: Option<(Seq, u32, usize)> = None;
            let mut mask = self.s.ready_mask;
            while mask != 0 {
                let cls = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if !self.port_available(cls, used) {
                    continue;
                }
                // Drop stale (squashed) handles while peeking.
                let top = loop {
                    let candidate = match self.s.ready[cls].peek() {
                        Some(&Reverse((seq, slot))) => (seq, slot),
                        None => {
                            self.s.ready_mask &= !(1 << cls);
                            break None;
                        }
                    };
                    if self.s.valid(candidate.0, candidate.1) {
                        break Some(candidate);
                    }
                    self.s.ready[cls].pop();
                };
                if let Some((seq, slot)) = top {
                    if best.is_none_or(|(bseq, _, _)| seq < bseq) {
                        best = Some((seq, slot, cls));
                    }
                }
            }
            let Some((seq, slot, cls)) = best else { break };
            self.s.ready[cls].pop();
            if self.s.ready[cls].is_empty() {
                self.s.ready_mask &= !(1 << cls);
            }
            if self.try_issue(slot as usize, cls, used) {
                *issued += 1;
            } else {
                // Only loads can fail (disambiguation / MSHRs /
                // delay-on-miss): park in the stall pool until a wake
                // condition fires.
                debug_assert_eq!(cls, CLS_LOAD);
                self.s.stalled_loads.push((seq, slot));
                self.s.stall_parks += 1;
            }
        }
    }

    /// Move stalled loads back into the ready heap. `after = None` drains
    /// everything (start-of-cycle wake); a mid-issue event passes its own
    /// sequence number and only entries *younger* than it drain, because
    /// the reference scheduler's program-order scan only lets younger
    /// instructions observe the event's effect within the same cycle.
    /// Entries already attempted this cycle stay pooled (one attempt per
    /// entry per cycle) and re-arm a next-cycle wake.
    fn drain_stalled(&mut self, after: Option<Seq>) {
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.s.stalled_loads.len() {
            let (seq, slot) = self.s.stalled_loads[i];
            if !self.s.valid(seq, slot) {
                self.s.stalled_loads.swap_remove(i); // squashed
                continue;
            }
            if after.is_some_and(|a| seq <= a) {
                i += 1;
                continue;
            }
            if self.s.slots[slot as usize].last_attempt == cycle {
                self.s.stall_wake_now = true;
                i += 1;
                continue;
            }
            self.s.stalled_loads.swap_remove(i);
            self.ready_push(CLS_LOAD, seq, slot);
        }
    }

    /// A line was just filled (or an aliased store left the store queue):
    /// wake stalled loads on that line — younger ones this cycle (from
    /// `event_seq`), everyone at the next issue pass — and post the line
    /// to every sibling thread, whose parked loads it may unblock too.
    fn wake_stalled_on_line(&mut self, line: u64, event_seq: Seq) {
        self.sh.post_fill(self.tid, line);
        if self.s.parks_on_line(line) {
            self.s.stall_wake_now = true;
            self.drain_stalled(Some(event_seq));
        }
    }

    /// Consume the lines siblings posted since this thread's last issue
    /// pass; true if one of them is a parked load's line.
    fn take_sibling_fills(&mut self) -> bool {
        let Some(Some(fills)) = self.sh.sibling_fills.get_mut(self.tid) else {
            return false;
        };
        let hit = fills.iter().any(|&line| self.s.parks_on_line(line));
        fills.clear();
        hit
    }

    /// Strict in-order issue (the `Countermeasure::InOrder` mode): the
    /// oldest unissued instruction must go first; if it cannot, nothing
    /// younger may. `inorder_skip` remembers how much of the window front is
    /// already issued, so the scan is O(1) amortized.
    fn issue_in_order(&mut self, used: &mut [usize; NUM_CLASSES], issued: &mut usize) {
        // Prune arrived fills once per cycle (mirrors `issue`).
        let now = self.cycle;
        self.sh.inflight.retain(|&(_, done)| done > now);
        while *issued < self.cfg.issue_width {
            while self.s.inorder_skip < self.s.len {
                let slot = self.s.wrap(self.s.head + self.s.inorder_skip);
                if self.s.slots[slot].state == EntryState::Waiting {
                    break;
                }
                self.s.inorder_skip += 1;
            }
            if self.s.inorder_skip >= self.s.len {
                break;
            }
            let slot = self.s.wrap(self.s.head + self.s.inorder_skip);
            if self.s.slots[slot].pending > 0 {
                break; // oldest unissued not ready ⇒ stall everything
            }
            let cls = self.dec[self.s.slots[slot].uop as usize].cls as usize;
            if !self.port_available(cls, used) || !self.try_issue(slot, cls, used) {
                break;
            }
            *issued += 1;
        }
    }

    /// Does class `cls` still have an issue port this cycle?
    fn port_available(&self, cls: usize, used: &[usize; NUM_CLASSES]) -> bool {
        match cls {
            CLS_ALU => used[CLS_ALU] < self.cfg.alu_ports,
            CLS_MUL => used[CLS_MUL] < self.cfg.mul_ports,
            CLS_DIV => used[CLS_DIV] < self.cfg.div_ports && self.sh.div_unit_free(self.cycle),
            CLS_LOAD => used[CLS_LOAD] < self.cfg.load_ports,
            CLS_STORE => used[CLS_STORE] < self.cfg.store_ports,
            CLS_BRANCH => used[CLS_BRANCH] < self.cfg.branch_ports,
            _ => true,
        }
    }

    /// Execute the issue of the entry in `slot` (port availability already
    /// checked); returns false only for loads that must retry later.
    fn try_issue(&mut self, slot: usize, cls: usize, used: &mut [usize; NUM_CLASSES]) -> bool {
        let lat = self.cfg.latencies;
        let now = self.cycle;
        match self.dec[self.s.slots[slot].uop as usize].op {
            DecodedOp::Alu { op, a, b } => {
                let av = Self::src_value(&self.s.slots[slot], a);
                let bv = Self::src_value(&self.s.slots[slot], b);
                let latency = match op {
                    AluOp::Mul => lat.mul,
                    AluOp::Div => {
                        self.sh.claim_div_unit(now, lat.div_recip);
                        lat.div_min + ((av ^ bv) & 1)
                    }
                    _ => lat.alu,
                };
                self.finish_issue(slot, cls, used, op.eval(av, bv), now + latency);
            }
            DecodedOp::Lea(mem) => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                self.finish_issue(slot, cls, used, addr, now + lat.alu);
            }
            DecodedOp::Load(mem) => {
                if !self.issue_load(slot, mem, used) {
                    return false;
                }
            }
            DecodedOp::Store { src, mem } => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                let val = Self::src_value(&self.s.slots[slot], src);
                let e = &mut self.s.slots[slot];
                e.mem_addr = Some(addr);
                let seq = e.seq;
                // Publish the now-known address for load disambiguation.
                if let Some(entry) = self
                    .s
                    .store_q
                    .iter_mut()
                    .rev()
                    .find(|(sseq, _)| *sseq == seq)
                {
                    entry.1 = Some(addr);
                }
                self.finish_issue(slot, cls, used, val, now + lat.store);
                // The now-known address unblocks younger loads that were
                // stalled on this store's unknown address.
                self.drain_stalled(Some(seq));
            }
            DecodedOp::Prefetch { mem, nta } => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                let kind = if nta {
                    AccessKind::PrefetchNta
                } else {
                    AccessKind::Prefetch
                };
                self.hier.access(Addr(addr), kind);
                self.s.slots[slot].mem_addr = Some(addr);
                let seq = self.s.slots[slot].seq;
                self.finish_issue(slot, cls, used, 0, now + 1);
                // Prefetch fills at issue: stalled loads on this line may
                // now hit.
                self.wake_stalled_on_line(Addr(addr).line().0, seq);
            }
            DecodedOp::Flush(mem) => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                self.hier.flush(Addr(addr));
                self.s.slots[slot].mem_addr = Some(addr);
                self.finish_issue(slot, cls, used, 0, now + 1);
            }
            DecodedOp::Branch { cond, b, .. } => {
                let av = Self::slot_value(&self.s.slots[slot], 0);
                let bv = Self::src_value(&self.s.slots[slot], b);
                let result = u64::from(cond.eval(av, bv));
                self.finish_issue(slot, cls, used, result, now + lat.branch);
            }
            DecodedOp::Jump { .. } | DecodedOp::Nop | DecodedOp::Fence | DecodedOp::Halt => {
                self.finish_issue(slot, cls, used, 0, now);
            }
        }
        true
    }

    /// Common successful-issue bookkeeping: state transition, port charge,
    /// completion event, trace stamp.
    fn finish_issue(
        &mut self,
        slot: usize,
        cls: usize,
        used: &mut [usize; NUM_CLASSES],
        result: u64,
        completion: u64,
    ) {
        used[cls] += 1;
        let e = &mut self.s.slots[slot];
        debug_assert_eq!(e.state, EntryState::Waiting);
        e.result = result;
        e.state = EntryState::Issued;
        e.completion = completion;
        let seq = e.seq;
        self.s.waiting_count -= 1;
        // Writeback processes arrivals strictly after the issuing cycle, so
        // zero-latency completions land in the next cycle's bucket.
        let arrival = completion.max(self.cycle + 1);
        if arrival - self.cycle < WHEEL as u64 {
            self.s.wheel[arrival as usize & (WHEEL - 1)].push((seq, slot as u32));
        } else {
            self.s.far.push((arrival, seq, slot as u32));
        }
        if let Some(t) = self.s.slots[slot].trace_idx {
            self.s.trace[t as usize].issued = Some(self.cycle);
        }
    }

    /// Issue a load, honouring store ordering, MSHRs and countermeasures.
    /// Returns false if the load must retry later.
    fn issue_load(
        &mut self,
        slot: usize,
        mem_op: DecodedMem,
        used: &mut [usize; NUM_CLASSES],
    ) -> bool {
        // A load only reaches here with all sources ready, so its effective
        // address is final: compute it once and cache it across the (often
        // many) MSHR-full retry attempts. `mem_addr` on a still-Waiting
        // entry is ignored by every other consumer.
        let addr = match self.s.slots[slot].mem_addr {
            Some(a) => a,
            None => {
                let a = Self::mem_operand_addr(&self.s.slots[slot], &mem_op);
                self.s.slots[slot].mem_addr = Some(a);
                a
            }
        };
        self.s.slots[slot].last_attempt = self.cycle;
        let seq = self.s.slots[slot].seq;
        // Conservative memory disambiguation: an older in-flight store with
        // an unknown address, or a known address matching this word, blocks
        // the load until the store commits. The store queue holds only
        // in-flight stores, so this scan is tiny (vs. the reference
        // scheduler's walk of the whole ROB prefix). Stores are a
        // same-thread affair: threads share no memory-ordering model.
        for &(sseq, saddr) in &self.s.store_q {
            if sseq > seq {
                break;
            }
            match saddr {
                None => return false,
                Some(sa) if sa == addr => return false,
                _ => {}
            }
        }

        let speculative = self.is_speculative(seq);
        let now = self.cycle;
        let line = Addr(addr).line().0;
        // (Arrived fills were pruned from `inflight` once at the top of
        // this cycle's issue pass.)

        let cm = self.cfg.countermeasure;
        let shield = match cm {
            Countermeasure::InvisibleSpec | Countermeasure::GhostMinion => speculative,
            _ => false,
        };
        let inflight_done = self
            .sh
            .inflight
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, done)| done);
        // Single stateless L1 lookup; the hit path below reuses the way
        // instead of re-scanning the tags (and, unlike a full `probe`, an
        // L1 miss here never walks the L2/L3 tag arrays).
        let l1_way = self.hier.lookup_l1(Addr(addr));
        if cm == Countermeasure::DelayOnMiss
            && speculative
            && l1_way.is_none()
            && inflight_done.is_none()
        {
            // Speculative L1 miss: delay until non-speculative.
            return false;
        }

        let (latency, level) = if let Some(done) = inflight_done {
            // Merge into the outstanding miss (MSHR hit) — possibly one
            // another hardware thread started.
            (
                done.saturating_sub(now).max(self.cfg.latencies.alu),
                HitLevel::L2,
            )
        } else if shield {
            // Invisible speculation: timing only, no state change.
            (
                self.hier.peek_latency(Addr(addr)),
                self.hier.probe(Addr(addr)),
            )
        } else {
            // Normal path: check MSHR capacity for misses.
            if l1_way.is_none() && self.sh.inflight.len() >= self.cfg.mshrs {
                // Capacity cannot free before the earliest outstanding
                // fill arrives: arm the stall pool's deterministic wake.
                let min_done = self
                    .sh
                    .inflight
                    .iter()
                    .map(|&(_, done)| done)
                    .min()
                    .expect("MSHRs full implies outstanding entries");
                self.s.stall_wake_cycle = self.s.stall_wake_cycle.min(min_done);
                return false;
            }
            let out = match l1_way {
                Some(way) => self.hier.access_l1_hit(Addr(addr), way),
                None => self.hier.access_l1_miss(Addr(addr), AccessKind::Load),
            };
            if out.level != HitLevel::L1 {
                self.sh.inflight.push((line, now + out.latency));
                // The miss filled the line at issue and registered it as
                // outstanding: stalled loads on the same line can now
                // merge or hit.
                self.wake_stalled_on_line(line, seq);
            }
            (out.latency, out.level)
        };

        let value = self.mem.read(addr);
        let record = self.cfg.record.loads();
        let e = &mut self.s.slots[slot];
        e.mem_addr = Some(addr);
        e.deferred_fill = shield;
        if record {
            let ev = LoadEvent {
                pc: e.pc,
                seq: e.seq,
                addr,
                issue_cycle: now,
                complete_cycle: now + latency,
                level,
                speculative,
                committed: false,
            };
            e.load_event = Some(self.s.loads.len() as u32);
            self.s.loads.push(ev);
        }
        self.finish_issue(slot, CLS_LOAD, used, value, now + latency);
        true
    }

    /// Rename and dispatch from the fetch queue into the ROB.
    fn dispatch(&mut self) {
        if self.s.draining {
            return;
        }
        for _ in 0..self.cfg.dispatch_width {
            if self.s.fence_active.is_some() {
                break;
            }
            if self.s.len >= self.cfg.rob_size {
                break;
            }
            if self.s.waiting_count >= self.cfg.rs_size {
                break;
            }
            let Some(front) = self.s.fetch_q.front() else {
                break;
            };
            if front.ready_cycle > self.cycle {
                break;
            }
            let fetched = self.s.fetch_q.pop_front().expect("front exists");
            let pc = fetched.pc as usize;
            let uop = self.prog.decoded().uop_index(pc);
            let d = &self.dec[uop];
            let seq = self.s.next_seq;
            self.s.next_seq += 1;
            let slot = self.s.alloc_slot();

            // Rename: resolve each source against the RAT. A live producer
            // that is already Done hands over its value immediately; an
            // in-flight one gets this entry appended to its consumer list.
            let nsrcs = d.nsrcs as usize;
            let src_regs = d.srcs;
            let mut srcs = [Src::Ready(0); 3];
            let mut pending = 0u8;
            for (i, &r) in src_regs[..nsrcs].iter().enumerate() {
                let src = match self.s.rat[r.index()] {
                    None => Src::Ready(self.s.arch_regs[r.index()]),
                    Some((pseq, pslot)) => {
                        if self.s.valid(pseq, pslot) {
                            let p = &mut self.s.slots[pslot as usize];
                            if p.state == EntryState::Done {
                                Src::Ready(p.result)
                            } else {
                                p.consumers.push((seq, slot as u32, i as u8));
                                pending += 1;
                                Src::Tag(pseq)
                            }
                        } else {
                            // Producer already committed.
                            Src::Ready(self.s.arch_regs[r.index()])
                        }
                    }
                };
                srcs[i] = src;
            }

            let d = &self.dec[uop];
            let prev_rat = match d.dst {
                Some(dst) => {
                    let prev = self.s.rat[dst.index()];
                    self.s.rat[dst.index()] = Some((seq, slot as u32));
                    prev
                }
                None => None,
            };
            let cls = d.cls as usize;
            match d.op {
                DecodedOp::Branch { .. } => self.s.spec_branches.push_back((seq, slot as u32)),
                DecodedOp::Fence => self.s.fence_active = Some(seq),
                DecodedOp::Store { .. } => self.s.store_q.push_back((seq, None)),
                _ => {}
            }

            let trace_idx = if self.cfg.record.trace() {
                let instr = self.prog.get(pc).expect("fetched pc in range");
                let fetched_cycle = fetched.ready_cycle.saturating_sub(self.cfg.front_end_depth);
                let mut rec = crate::trace::TraceRecord::new(seq, pc, *instr, fetched_cycle);
                rec.dispatched = self.cycle;
                self.s.trace.push(rec);
                Some((self.s.trace.len() - 1) as u32)
            } else {
                None
            };

            let e = &mut self.s.slots[slot];
            e.seq = seq;
            e.pc = pc;
            e.uop = uop as u32;
            e.state = EntryState::Waiting;
            e.nsrcs = nsrcs as u8;
            e.pending = pending;
            e.srcs = srcs;
            e.result = 0;
            e.completion = 0;
            e.predicted_taken = fetched.predicted_taken;
            e.mem_addr = None;
            e.deferred_fill = false;
            e.load_event = None;
            e.trace_idx = trace_idx;
            e.prev_rat = prev_rat;
            e.resolved = false;
            e.last_attempt = u64::MAX;
            e.consumers.clear();
            self.s.len += 1;
            self.s.waiting_count += 1;

            if pending == 0 && self.cfg.countermeasure != Countermeasure::InOrder {
                self.ready_push(cls, seq, slot as u32);
            }
        }
    }

    /// Predicted instruction fetch.
    fn fetch(&mut self) {
        if self.s.draining || self.s.fetch_stopped {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.s.fetch_pc >= self.prog.len() {
                self.s.fetch_stopped = true;
                break;
            }
            if self.s.fetch_q.len() >= self.cfg.rob_size {
                break;
            }
            let pc = self.s.fetch_pc;
            let mut predicted_taken = false;
            let mut next = pc + 1;
            match self.dec[self.prog.decoded().uop_index(pc)].op {
                DecodedOp::Branch { target, .. } => {
                    predicted_taken = self.predictor.predict(pc);
                    if predicted_taken {
                        next = target as usize;
                    }
                }
                DecodedOp::Jump { target } => {
                    predicted_taken = true;
                    next = target as usize;
                }
                DecodedOp::Halt => {
                    self.s.fetch_stopped = true;
                }
                _ => {}
            }
            self.s.fetch_q.push_back(FetchedInstr {
                pc: pc as u32,
                predicted_taken,
                ready_cycle: self.cycle + self.cfg.front_end_depth,
            });
            if self.s.fetch_stopped {
                break;
            }
            self.s.fetch_pc = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::memory_stream;
    use racer_mem::HierarchyConfig;

    /// Thread 0's cycles and stall-pool parks for `prog` on a cold
    /// coffee-lake machine with `threads` contexts, every sibling running
    /// a lone `halt` (it issues once, while thread 0's first loads are
    /// still in the front end, and touches no memory).
    fn thread0_parks(prog: &Program, threads: usize) -> (u64, u64) {
        let cfg = CpuConfig::coffee_lake().with_threads(threads);
        let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        let idle = Program::from_instrs(vec![racer_isa::Instr::Halt]).expect("valid program");
        let mut progs = vec![prog];
        progs.resize(threads, &idle);
        let cycles = cpu.run(&progs, Backend::EventDriven)[0].cycles;
        let ctxs = HOST_CTXS.take();
        let parks = ctxs[0].stall_parks;
        HOST_CTXS.set(ctxs);
        (cycles, parks)
    }

    /// An idle sibling posts no fills, so under SMT the stall pool wakes
    /// on exactly the events it wakes on alone: the same timing and the
    /// same number of parked loads. (A pool that drained every cycle
    /// parked about twenty times as many.)
    #[test]
    fn an_idle_sibling_parks_no_more_loads_than_a_single_thread() {
        let prog = memory_stream(80);
        let (solo_cycles, solo_parks) = thread0_parks(&prog, 1);
        assert!(
            solo_parks > 1000,
            "the stream must park loads: {solo_parks}"
        );
        assert_eq!(thread0_parks(&prog, 2), (solo_cycles, solo_parks));
    }
}
