//! The attacker's machine: a simulated core plus the standard layouts and
//! timer plumbing the experiments share.

use crate::layout::Layout;
use racer_cpu::{Backend, Countermeasure, Cpu, CpuConfig, RecordLevel, RunResult, Snapshot};
use racer_isa::Program;
use racer_mem::{Addr, CacheConfig, HierarchyConfig, ReplacementKind};
use racer_time::Timer;

/// A simulated machine under attack: core + hierarchy + address layout,
/// with a running simulated-time clock for timer reads.
///
/// The constructors correspond to the hardware variants the paper's
/// experiments need:
///
/// * [`Machine::baseline`] — tree-PLRU 4-way L1 (the W=4 illustration of
///   Figures 3–4, standing in for the paper's 8-way L1; see
///   [`HierarchyConfig::small_plru`]), used by the PLRU magnifiers and
///   most attacks;
/// * [`Machine::random_l1`] — 64-set, 8-way, random-replacement L1, the
///   §6.3 arbitrary-replacement configuration;
/// * [`Machine::small_llc`] — a scaled-down inclusive LLC for the §7.4
///   eviction-set experiment;
/// * [`Machine::noisy`] — DRAM jitter enabled, for distribution experiments
///   (Figure 10).
#[derive(Debug)]
pub struct Machine {
    cpu: Cpu,
    layout: Layout,
    /// Simulated nanoseconds accumulated over every program run, used as
    /// the wall clock that coarse timers observe.
    elapsed_ns: f64,
    /// Body rounds the clock-advancing runs on this machine skipped by
    /// steady-state fast-forward.
    fast_forwarded: u64,
}

impl Machine {
    /// Build from explicit configurations. A cold machine is cheap: each
    /// cache level starts as one pristine chunk shared by all its sets
    /// (see [`racer_mem::Cache::new`]), so building one per trial costs
    /// microseconds.
    pub fn with(cpu_cfg: CpuConfig, hier_cfg: HierarchyConfig) -> Self {
        Machine {
            cpu: Cpu::new(cpu_cfg, hier_cfg),
            layout: Layout::default(),
            elapsed_ns: 0.0,
            fast_forwarded: 0,
        }
    }

    /// Tree-PLRU 4-way L1 machine (the default attack target).
    pub fn baseline() -> Self {
        Self::with(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::small_plru(),
        )
    }

    /// Baseline machine with DRAM jitter for noisy-distribution experiments.
    pub fn noisy(seed: u64) -> Self {
        Self::with(
            CpuConfig::coffee_lake().with_load_recording(),
            Self::noisy_hierarchy(seed),
        )
    }

    /// The hierarchy of [`Machine::noisy`]: the baseline's, with DRAM
    /// jitter drawn from `seed`. Drivers that read only cycle counts pair
    /// it with a core that records no load events.
    pub fn noisy_hierarchy(seed: u64) -> HierarchyConfig {
        let mut hier = HierarchyConfig::small_plru();
        hier.memory_jitter = 30;
        hier.seed = seed;
        hier
    }

    /// 64-set 8-way random-replacement L1 (paper §6.3's configuration).
    pub fn random_l1(seed: u64) -> Self {
        let mut hier = HierarchyConfig::coffee_lake();
        hier.l1d = CacheConfig {
            sets: 64,
            ways: 8,
            replacement: ReplacementKind::Random,
            seed,
            ..CacheConfig::l1d_coffee_lake()
        };
        Self::with(CpuConfig::coffee_lake().with_load_recording(), hier)
    }

    /// Scaled-down inclusive LLC (128 sets × 8 ways) so eviction-set
    /// profiling is tractable; the algorithmic behaviour (§7.4) is
    /// unchanged.
    pub fn small_llc() -> Self {
        let mut hier = HierarchyConfig::small_plru();
        hier.l3 = CacheConfig {
            sets: 128,
            ways: 8,
            hit_latency: 40,
            replacement: ReplacementKind::TreePlru,
            seed: 0x77,
        };
        // Keep L2 tiny too so L3-resident lines are not hidden by L2 hits.
        hier.l2 = CacheConfig {
            sets: 64,
            ways: 2,
            hit_latency: 12,
            replacement: ReplacementKind::TreePlru,
            seed: 0x78,
        };
        Self::with(CpuConfig::coffee_lake().with_load_recording(), hier)
    }

    /// Change the modelled countermeasure.
    pub fn set_countermeasure(&mut self, c: Countermeasure) {
        self.cpu.set_countermeasure(c);
    }

    /// The address layout gadget code uses.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The underlying core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the underlying core.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Run a program on the event-driven backend, advancing the machine's
    /// wall clock by the program's simulated duration.
    pub fn run(&mut self, prog: &Program) -> RunResult {
        let r = self.cpu.run_one(prog, Backend::EventDriven);
        self.elapsed_ns += self.cpu.config().cycles_to_ns(r.cycles);
        self.fast_forwarded += r.fast_forwarded;
        r
    }

    /// Capture the machine's persistent state (caches, memory, trained
    /// predictor) as a shareable [`Snapshot`]; [`Machine::from_snapshot`]
    /// stamps out independent machines from it, so a sweep warms one
    /// machine and forks it per point.
    pub fn snapshot(&self) -> Snapshot {
        self.cpu.snapshot()
    }

    /// Fork an independent machine from a [`Snapshot`] (the wall clock
    /// starts at zero; the layout is the standard one every constructor
    /// uses).
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        Machine {
            cpu: snap.fork(),
            layout: Layout::default(),
            elapsed_ns: 0.0,
            fast_forwarded: 0,
        }
    }

    /// Run a program and return just its cycle count.
    ///
    /// Like [`Machine::run_timed`], the run records counters only.
    pub fn run_cycles(&mut self, prog: &Program) -> u64 {
        self.run_counters(prog).cycles
    }

    /// Run a program and measure it with the attacker's `timer` — the only
    /// measurement the threat model (§3) allows. Returns the *observed*
    /// duration in nanoseconds.
    ///
    /// Nothing but the duration leaves this method, so the run records
    /// counters only ([`RecordLevel::Counters`], whatever the machine's
    /// configured level): no load events, and a magnifier's repeated
    /// region fast-forwards through its steady state. Timing and the
    /// clock are the same as at any level.
    pub fn run_timed(&mut self, prog: &Program, timer: &mut dyn Timer) -> f64 {
        let start = self.elapsed_ns;
        self.run_counters(prog);
        timer.measure(start, self.elapsed_ns)
    }

    /// [`Machine::run`] at [`RecordLevel::Counters`], restoring the
    /// configured level afterwards.
    fn run_counters(&mut self, prog: &Program) -> RunResult {
        let level = self.cpu.config().record;
        self.cpu.set_record_level(RecordLevel::Counters);
        let r = self.run(prog);
        self.cpu.set_record_level(level);
        r
    }

    /// Total simulated nanoseconds elapsed on this machine.
    pub fn elapsed_ns(&self) -> f64 {
        self.elapsed_ns
    }

    /// Body rounds skipped by steady-state fast-forward
    /// ([`RunResult::fast_forwarded`], summed) over the clock-advancing
    /// runs on this machine ([`Machine::run`]/[`Machine::run_timed`];
    /// runs on a fork leave the machine untouched). It tells whether a
    /// driver's timed magnifier runs took the fast path.
    pub fn fast_forwarded_total(&self) -> u64 {
        self.fast_forwarded
    }

    /// Host-level cache-line flush (used for experiment setup; the gadgets
    /// themselves only flush where the paper's attacker legitimately could,
    /// e.g. by eviction).
    pub fn flush(&mut self, addr: Addr) {
        self.cpu.hierarchy_mut().flush(addr);
    }

    /// Host-level warm-up load (fills all levels, like an attacker touching
    /// their own array before the attack).
    pub fn warm(&mut self, addr: Addr) {
        self.cpu.hierarchy_mut().load(addr);
    }

    /// Remove `addr`'s line from the L1 only, leaving L2/L3 copies in place
    /// (the state an attacker reaches by conflict-evicting a line from the
    /// L1 with same-set accesses).
    pub fn evict_from_l1(&mut self, addr: Addr) {
        self.cpu.hierarchy_mut().l1d_mut().invalidate(addr.line());
    }

    /// Empty the given L1 set entirely (setup helper emulating an attacker
    /// priming pass).
    pub fn clear_l1_set(&mut self, set: usize) {
        let lines: Vec<_> = self
            .cpu
            .hierarchy()
            .l1d()
            .set(set)
            .resident_lines()
            .collect();
        for l in lines {
            self.cpu.hierarchy_mut().l1d_mut().invalidate(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_isa::Asm;
    use racer_time::{CoarseTimer, PerfectTimer};

    #[test]
    fn machine_clock_advances_with_runs() {
        let mut m = Machine::baseline();
        let mut asm = Asm::new();
        let r = asm.reg();
        asm.mov_imm(r, 1);
        asm.halt();
        let prog = asm.assemble().unwrap();
        assert_eq!(m.elapsed_ns(), 0.0);
        m.run(&prog);
        let t1 = m.elapsed_ns();
        assert!(t1 > 0.0);
        m.run(&prog);
        assert!(m.elapsed_ns() > t1);
    }

    #[test]
    fn timed_run_with_perfect_timer_matches_cycles() {
        let mut m = Machine::baseline();
        let mut asm = Asm::new();
        let r = asm.reg();
        for _ in 0..50 {
            asm.addi(r, r, 1);
        }
        asm.halt();
        let prog = asm.assemble().unwrap();
        let cycles = m.cpu_mut().run_one(&prog, Backend::EventDriven).cycles;
        let observed = m.run_timed(&prog, &mut PerfectTimer);
        assert!((observed - cycles as f64 * 0.5).abs() < 1.0);
    }

    #[test]
    fn coarse_timer_hides_short_runs() {
        let mut m = Machine::baseline();
        let mut asm = Asm::new();
        let r = asm.reg();
        asm.mov_imm(r, 1);
        asm.halt();
        let prog = asm.assemble().unwrap();
        let mut t = CoarseTimer::browser_5us();
        let observed = m.run_timed(&prog, &mut t);
        assert_eq!(observed, 0.0, "a handful of cycles is invisible at 5 µs");
    }

    #[test]
    fn variant_constructors_build() {
        let _ = Machine::noisy(3);
        let _ = Machine::random_l1(4);
        let _ = Machine::small_llc();
    }

    /// A short load-heavy probe whose timing is state-sensitive.
    fn probe(touch: u64) -> Program {
        let mut asm = Asm::new();
        let r = asm.reg();
        for i in 0..touch {
            asm.load(r, racer_isa::MemOperand::abs(0x8000 + i * 64));
        }
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn cached_baseline_matches_from_scratch_construction() {
        let mut cached = Machine::baseline();
        let mut direct = Machine::with(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::small_plru(),
        );
        let p = probe(16);
        let a = cached.run(&p);
        let b = direct.run(&p);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
