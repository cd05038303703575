//! Core configuration: widths, window sizes, latencies, ports,
//! countermeasure modes, and the [`Backend`] (event-driven scheduler or
//! reference oracle) a run executes on.

/// Hardware Spectre/side-channel countermeasures modelled by the core
/// (paper §8, "Potential Countermeasures").
///
/// The paper's central claim is that defences which only police *transient*
/// execution do not stop the non-transient reorder racing gadget; these modes
/// let experiments demonstrate that claim quantitatively.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Hash)]
pub enum Countermeasure {
    /// No countermeasure: a conventional aggressive out-of-order core.
    #[default]
    None,
    /// In-order issue: instructions issue strictly in program order and the
    /// first non-ready instruction stalls all younger ones. Destroys the ILP
    /// races entirely (the paper: "assuring behavior equivalent to in-order
    /// execution is likely to require actual in-order execution").
    InOrder,
    /// Delay-on-miss (Sakalis et al., ISCA 2019): *speculative* loads that
    /// miss in the L1 are stalled until they become non-speculative. L1 hits
    /// proceed. Defeats transient P/A gadgets, but the branch-free reorder
    /// gadget is entirely non-speculative and races anyway (paper §8).
    DelayOnMiss,
    /// Invisible speculation (InvisiSpec-like): speculative loads do not
    /// update cache state; their fills are applied when the load becomes
    /// architecturally safe (here: at commit). Blocks transient traces.
    InvisibleSpec,
    /// GhostMinion-like strictness ordering: speculative loads fill a ghost
    /// structure and merge to the L1 at commit, but *non-speculative* loads
    /// (no unresolved older branch) behave exactly as the baseline — so the
    /// branch-free reorder gadget still transmits (paper §8, footnote 9).
    GhostMinion,
    /// CleanupSpec-style rollback: speculative loads fill normally, but a
    /// squash *undoes* their fills (flushes the touched lines). Cleans up
    /// "the effects of misspeculation once it has happened" — which is too
    /// late for SpectreBack, whose racing gadget consumed the transient
    /// timing difference before the squash (paper §7.3/§8).
    CleanupSpec,
}

impl std::fmt::Display for Countermeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Countermeasure::None => "baseline",
            Countermeasure::InOrder => "in-order",
            Countermeasure::DelayOnMiss => "delay-on-miss",
            Countermeasure::InvisibleSpec => "invisible-speculation",
            Countermeasure::GhostMinion => "ghostminion",
            Countermeasure::CleanupSpec => "cleanupspec",
        };
        f.write_str(s)
    }
}

/// Execution backend: which simulation engine runs the program(s) handed
/// to [`Cpu::run`](crate::Cpu::run).
///
/// The two backends are cycle-exact against each other (pinned by the
/// differential suites); they differ only in host-side execution strategy
/// and therefore in throughput:
///
/// * [`EventDriven`](Backend::EventDriven) — the production scheduler
///   (tag-broadcast wakeup, completion time wheel). Fastest for a single
///   machine; the default.
/// * [`Reference`](Backend::Reference) — the retained scan-based seed
///   scheduler. Slow but structurally simple; kept as the differential
///   oracle.
///
/// Independent single-thread runs forked from one warm state are not a
/// backend: they go through [`Snapshot::run_many`](crate::Snapshot::run_many),
/// which runs each fork on the event-driven scheduler.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Hash)]
pub enum Backend {
    /// Event-driven scheduler (the production engine).
    #[default]
    EventDriven,
    /// Retained scan-based reference scheduler (the differential oracle).
    Reference,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::EventDriven => "event-driven",
            Backend::Reference => "reference",
        })
    }
}

/// SMT issue-arbitration policy: which hardware thread gets first claim on
/// the shared issue bandwidth and functional-unit ports each cycle.
///
/// Paper §9 ("other shared resources"): a racing-gadget timer reads *any*
/// contended shared resource, and SMT port contention is the canonical
/// example. The arbitration policy decides how that contention is shaped.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Hash)]
pub enum SmtPolicy {
    /// Rotate first claim among threads each cycle (cycle mod thread
    /// count). The classic fair baseline.
    #[default]
    RoundRobin,
    /// ICOUNT-style (Tullsen et al.): the thread with the fewest
    /// instructions in flight (smallest ROB occupancy) issues first;
    /// ties break toward the lower thread id. Starves neither thread but
    /// favours the one making progress.
    Icount,
}

impl SmtPolicy {
    /// Fill `order` with the order in which thread contexts claim issue
    /// slots this cycle. `occupancy[tid]` is thread `tid`'s current ROB
    /// occupancy. Both the event-driven and the reference scheduler call
    /// this one function, so the arbitration decision can never drift
    /// between them. The caller owns `order`, so the per-cycle call
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `order` and `occupancy` have the same length.
    pub fn order(self, cycle: u64, occupancy: &[usize], order: &mut [usize]) {
        let n = occupancy.len();
        assert_eq!(order.len(), n, "one order slot per thread");
        for (tid, slot) in order.iter_mut().enumerate() {
            *slot = tid;
        }
        match self {
            SmtPolicy::RoundRobin => {
                let start = (cycle % n.max(1) as u64) as usize;
                order.rotate_left(start);
            }
            SmtPolicy::Icount => {
                // Keys are distinct (the thread id breaks ties), so the
                // in-place unstable sort orders exactly as a stable one.
                order.sort_unstable_by_key(|&tid| (occupancy[tid], tid));
            }
        }
    }
}

impl std::fmt::Display for SmtPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SmtPolicy::RoundRobin => "round-robin",
            SmtPolicy::Icount => "icount",
        })
    }
}

/// Branch-predictor selection.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum PredictorKind {
    /// Classic 2-bit saturating counters indexed by PC. Trainable — the
    /// transient P/A racing gadget's train/detect phases rely on it.
    TwoBit {
        /// Number of table entries (power of two).
        entries: usize,
    },
    /// Statically predict taken.
    AlwaysTaken,
    /// Statically predict not-taken.
    AlwaysNotTaken,
}

impl Default for PredictorKind {
    fn default() -> Self {
        PredictorKind::TwoBit { entries: 1024 }
    }
}

/// Functional-unit latencies, after the paper's §7 processor details and
/// Agner Fog's tables for Coffee Lake.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub struct Latencies {
    /// Simple integer ops and `lea` (cycles).
    pub alu: u64,
    /// Pipelined multiply (cycles).
    pub mul: u64,
    /// Divide, minimum (cycles). Actual latency is `div_min` or
    /// `div_min + 1` depending on operand content, matching the paper's
    /// "13-14 cycles based on the operand content".
    pub div_min: u64,
    /// Divider reciprocal throughput (a new divide may start only this many
    /// cycles after the previous one — the §6.4 contention source).
    pub div_recip: u64,
    /// Branch resolution (cycles, after sources ready).
    pub branch: u64,
    /// Store address-generation (cycles).
    pub store: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            alu: 1,
            mul: 3,
            div_min: 13,
            div_recip: 4,
            branch: 1,
            store: 1,
        }
    }
}

/// How much per-instruction event data a run records.
///
/// Recording costs both memory (the `loads`/`trace` vectors grow with the
/// dynamic instruction count) and time (every load / every dispatch takes a
/// bookkeeping branch plus a push). Paper-scale sweeps that only consume
/// [`RunResult::cycles`](crate::RunResult::cycles) and aggregate
/// [`mem_stats`](crate::RunResult::mem_stats) should run at
/// [`RecordLevel::Counters`] (the default), which skips both vectors
/// entirely; gadget debugging and the probe-based attacks opt into the
/// richer levels.
///
/// Levels are cumulative: `Trace` implies `Loads` implies `Counters`.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Ord, PartialOrd, Hash)]
pub enum RecordLevel {
    /// Aggregate counters only (`cycles`, `committed`, `mem_stats`, …);
    /// the `loads` and `trace` vectors stay empty and unallocated.
    #[default]
    Counters,
    /// Also record one [`LoadEvent`](crate::LoadEvent) per issued load
    /// (the probe/attack readout path).
    Loads,
    /// Also record the full per-instruction pipeline trace
    /// (fetch/dispatch/issue/complete/commit cycles; the most expensive).
    Trace,
}

impl RecordLevel {
    /// Whether per-load events are recorded at this level.
    #[inline]
    pub fn loads(self) -> bool {
        self >= RecordLevel::Loads
    }

    /// Whether the full pipeline trace is recorded at this level.
    #[inline]
    pub fn trace(self) -> bool {
        self == RecordLevel::Trace
    }
}

/// Out-of-order core configuration.
///
/// Defaults model a Coffee-Lake-class core at 2 GHz (the paper's i7-8750H):
/// 4-wide front end, 224-entry ROB, ~60-entry scheduler, 4 ALUs, 1 MUL,
/// 1 non-pipelined DIV, 2 load ports.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct CpuConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Front-end depth in cycles (fetch-to-dispatch delay; also the
    /// misprediction redirect penalty).
    pub front_end_depth: u64,
    /// Instructions renamed/dispatched into the ROB per cycle.
    pub dispatch_width: usize,
    /// Maximum instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Scheduler (reservation-station) capacity: maximum instructions
    /// dispatched but not yet issued. This bounds how far a racing gadget
    /// can see (§7.2's ~54-operation limit).
    pub rs_size: usize,
    /// Number of simple-ALU ports.
    pub alu_ports: usize,
    /// Number of multiply ports.
    pub mul_ports: usize,
    /// Number of divide units.
    pub div_ports: usize,
    /// Number of load ports.
    pub load_ports: usize,
    /// Number of store ports.
    pub store_ports: usize,
    /// Number of branch-resolution ports.
    pub branch_ports: usize,
    /// Miss-status-holding registers: maximum outstanding L1 miss lines.
    /// Shared across hardware threads, like a real L1's MSHR file.
    pub mshrs: usize,
    /// Hardware thread contexts (SMT). Each context has a private front
    /// end, ROB, rename state and retire port; issue bandwidth,
    /// functional-unit ports, divider units, MSHRs and the cache hierarchy
    /// are shared. `1` (the default) is the classic single-threaded core;
    /// [`Cpu::run`](crate::Cpu::run) expects one program per context.
    pub threads: usize,
    /// SMT issue-arbitration policy (ignored when `threads == 1`).
    pub smt_policy: SmtPolicy,
    /// Functional-unit latencies.
    pub latencies: Latencies,
    /// Branch predictor.
    pub predictor: PredictorKind,
    /// Countermeasure mode.
    pub countermeasure: Countermeasure,
    /// Core clock in MHz (used to convert cycles to nanoseconds; the paper's
    /// machine runs at 2 GHz, i.e. 0.5 ns per cycle).
    pub clock_mhz: u64,
    /// If set, the pipeline drains every `n` cycles, modelling the OS timer
    /// interrupt that bounds the stateless arithmetic magnifier (§7.5: "the
    /// total run-time approaches the interval of timer interrupts (4ms)").
    pub interrupt_interval: Option<u64>,
    /// Safety valve: a single program run aborts after this many cycles.
    pub max_run_cycles: u64,
    /// Event-recording level for run results (see [`RecordLevel`]).
    pub record: RecordLevel,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            fetch_width: 4,
            front_end_depth: 5,
            dispatch_width: 4,
            issue_width: 6,
            commit_width: 4,
            rob_size: 224,
            rs_size: 60,
            alu_ports: 4,
            mul_ports: 1,
            div_ports: 1,
            load_ports: 2,
            store_ports: 1,
            branch_ports: 1,
            mshrs: 10,
            threads: 1,
            smt_policy: SmtPolicy::RoundRobin,
            latencies: Latencies::default(),
            predictor: PredictorKind::default(),
            countermeasure: Countermeasure::None,
            clock_mhz: 2000,
            interrupt_interval: None,
            max_run_cycles: 50_000_000,
            record: RecordLevel::Counters,
        }
    }
}

impl CpuConfig {
    /// The default Coffee-Lake-class configuration.
    pub fn coffee_lake() -> Self {
        Self::default()
    }

    /// Nanoseconds per core cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1000.0 / self.clock_mhz as f64
    }

    /// Convert a cycle count to simulated nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.ns_per_cycle()
    }

    /// Builder-style: set the countermeasure.
    pub fn with_countermeasure(mut self, c: Countermeasure) -> Self {
        self.countermeasure = c;
        self
    }

    /// Builder-style: set the hardware thread count (SMT contexts).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style: set the SMT issue-arbitration policy.
    pub fn with_smt_policy(mut self, policy: SmtPolicy) -> Self {
        self.smt_policy = policy;
        self
    }

    /// Builder-style: record per-load events (raises the level to at least
    /// [`RecordLevel::Loads`]).
    pub fn with_load_recording(mut self) -> Self {
        self.record = self.record.max(RecordLevel::Loads);
        self
    }

    /// Builder-style: record the full pipeline trace
    /// ([`RecordLevel::Trace`], which includes load events).
    pub fn with_trace(mut self) -> Self {
        self.record = RecordLevel::Trace;
        self
    }

    /// Builder-style: set the event-recording level explicitly.
    pub fn with_record_level(mut self, level: RecordLevel) -> Self {
        self.record = level;
        self
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any width or capacity is zero.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0, "fetch width must be positive");
        assert!(self.dispatch_width > 0, "dispatch width must be positive");
        assert!(self.issue_width > 0, "issue width must be positive");
        assert!(self.commit_width > 0, "commit width must be positive");
        assert!(self.rob_size > 0, "ROB must have capacity");
        assert!(self.rs_size > 0, "scheduler must have capacity");
        assert!(self.mshrs > 0, "need at least one MSHR");
        assert!(
            self.alu_ports > 0 && self.load_ports > 0 && self.branch_ports > 0,
            "need at least one ALU, load and branch port"
        );
        assert!(self.clock_mhz > 0, "clock must be positive");
        assert!(self.threads > 0, "need at least one hardware thread");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CpuConfig::default().validate();
    }

    #[test]
    fn clock_conversion() {
        let cfg = CpuConfig::default();
        assert!(
            (cfg.ns_per_cycle() - 0.5).abs() < 1e-9,
            "2 GHz = 0.5 ns/cycle"
        );
        assert!((cfg.cycles_to_ns(4000) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn builders() {
        let cfg = CpuConfig::default()
            .with_countermeasure(Countermeasure::DelayOnMiss)
            .with_load_recording();
        assert_eq!(cfg.countermeasure, Countermeasure::DelayOnMiss);
        assert!(cfg.record.loads());
        assert!(!cfg.record.trace());
    }

    #[test]
    fn record_levels_are_cumulative() {
        assert!(!RecordLevel::Counters.loads());
        assert!(!RecordLevel::Counters.trace());
        assert!(RecordLevel::Loads.loads());
        assert!(!RecordLevel::Loads.trace());
        assert!(RecordLevel::Trace.loads());
        assert!(RecordLevel::Trace.trace());
        // with_trace never lowers the level; with_load_recording never
        // erases tracing.
        let cfg = CpuConfig::default().with_trace().with_load_recording();
        assert!(cfg.record.trace());
    }

    #[test]
    #[should_panic]
    fn zero_rob_rejected() {
        let cfg = CpuConfig {
            rob_size: 0,
            ..CpuConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn smt_defaults_and_builders() {
        let cfg = CpuConfig::default();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.smt_policy, SmtPolicy::RoundRobin);
        let cfg = cfg.with_threads(2).with_smt_policy(SmtPolicy::Icount);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.smt_policy, SmtPolicy::Icount);
        cfg.validate();
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let cfg = CpuConfig {
            threads: 0,
            ..CpuConfig::default()
        };
        cfg.validate();
    }

    /// `p.order` into a fresh buffer.
    fn order_of(p: SmtPolicy, cycle: u64, occupancy: &[usize]) -> Vec<usize> {
        let mut order = vec![usize::MAX; occupancy.len()];
        p.order(cycle, occupancy, &mut order);
        order
    }

    #[test]
    fn round_robin_order_rotates_by_cycle() {
        let p = SmtPolicy::RoundRobin;
        assert_eq!(order_of(p, 0, &[5, 5]), vec![0, 1]);
        assert_eq!(order_of(p, 1, &[5, 5]), vec![1, 0]);
        assert_eq!(order_of(p, 2, &[5, 5]), vec![0, 1]);
        assert_eq!(order_of(p, 7, &[0, 0, 0]), vec![1, 2, 0]);
        assert_eq!(order_of(p, 123, &[9]), vec![0]);
    }

    #[test]
    fn icount_order_prefers_emptier_thread() {
        let p = SmtPolicy::Icount;
        assert_eq!(order_of(p, 0, &[10, 3]), vec![1, 0]);
        assert_eq!(
            order_of(p, 5, &[2, 9, 2]),
            vec![0, 2, 1],
            "ties break by id"
        );
    }

    #[test]
    fn order_overwrites_a_reused_buffer() {
        // The schedulers reuse one buffer every cycle: each call must
        // rewrite all of it, whatever the previous cycle left there.
        let mut order = vec![0; 3];
        SmtPolicy::Icount.order(0, &[9, 1, 5], &mut order);
        assert_eq!(order, vec![1, 2, 0]);
        SmtPolicy::RoundRobin.order(4, &[9, 1, 5], &mut order);
        assert_eq!(order, vec![1, 2, 0]);
        SmtPolicy::RoundRobin.order(3, &[9, 1, 5], &mut order);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn countermeasure_display() {
        assert_eq!(Countermeasure::None.to_string(), "baseline");
        assert_eq!(Countermeasure::DelayOnMiss.to_string(), "delay-on-miss");
    }
}
