//! Repetition gadgets, with and without racing gadgets (paper §7.1,
//! Figure 7).
//!
//! The paper's counter-intuitive observation: naively repeating a
//! Flush+Reload probe N times does **not** accumulate a timing difference,
//! because the victim-load stage and the attacker-reload stage have
//! *opposite* timing dependence on the secret (a hit saved in one is a miss
//! paid in the other), cancelling in the total. Wrapping the load stage in a
//! racing gadget whose baseline path out-lasts either load case makes that
//! stage constant-time, so the reload difference survives into the total.

use crate::layout::Layout;
use crate::machine::Machine;
use crate::path::{emit_sync_head, PathSpec};
use racer_isa::{Asm, MemOperand, Program};
use racer_mem::Addr;

/// Configuration of one repetition-gadget run.
#[derive(Copy, Clone, Debug)]
pub struct RepetitionConfig {
    /// Flush→load→reload iterations.
    pub iterations: usize,
    /// Whether the victim accesses the *same* address the attacker probes
    /// (the secret bit the channel transmits).
    pub same_addr: bool,
    /// Wrap the victim-load stage in a racing gadget (Figure 7b) or leave
    /// it bare (Figure 7a).
    pub use_racing: bool,
    /// Length of the constant baseline path when racing, in chained MULs.
    /// It must out-last a DRAM miss (95 × 3 = 285 cycles > ~245) while its
    /// instruction count stays far below the ROB capacity — a long ADD
    /// chain of equal duration would overflow the window and leak the
    /// victim's latency back out through dispatch backpressure (the §7.2
    /// window constraint, felt from the defender's side).
    pub baseline_ops: usize,
}

impl Default for RepetitionConfig {
    fn default() -> Self {
        RepetitionConfig {
            iterations: 40,
            same_addr: true,
            use_racing: false,
            baseline_ops: 95,
        }
    }
}

/// Cycle totals per stage across all iterations (the Figure 7 stack bars).
#[derive(Copy, Clone, Debug, Default)]
pub struct StageBreakdown {
    /// Victim-load stage cycles.
    pub load: u64,
    /// Attacker-reload (probe) stage cycles.
    pub reload: u64,
    /// Eviction/flush stage cycles.
    pub evict: u64,
}

impl StageBreakdown {
    /// Total cycles over all stages.
    pub fn total(&self) -> u64 {
        self.load + self.reload + self.evict
    }
}

/// Run a full repetition-gadget attack and return the per-stage breakdown.
///
/// Stages per iteration, each its own program run (the attacker times each
/// stage separately in the paper's Figure 7 instrumentation):
///
/// 1. **evict**: flush the probe line (the baseline native attack uses
///    `clflush`; eviction-set variants behave identically here);
/// 2. **load**: the victim accesses its address — equal to the probe when
///    `same_addr`, a disjoint line otherwise;
/// 3. **reload**: the attacker probes the line.
pub fn run_repetition(m: &mut Machine, cfg: &RepetitionConfig) -> StageBreakdown {
    let layout = m.layout();
    let probe = layout.probe;
    let other = Addr(layout.probe.0 + 0x2000);
    let victim = if cfg.same_addr { probe } else { other };

    let evict_prog = flush_program(probe);
    let load_prog = if cfg.use_racing {
        raced_load_program(layout, victim, cfg.baseline_ops)
    } else {
        load_program(victim)
    };
    let reload_prog = load_program(probe);

    // Warm the non-probe victim line once (it stays warm thereafter, which
    // is exactly the asymmetry that makes the bare gadget cancel).
    m.warm(other);

    let mut out = StageBreakdown::default();
    for _ in 0..cfg.iterations {
        out.evict += m.run_cycles(&evict_prog);
        if cfg.use_racing {
            m.flush(layout.sync);
        }
        out.load += m.run_cycles(&load_prog);
        out.reload += m.run_cycles(&reload_prog);
    }
    out
}

fn flush_program(addr: Addr) -> Program {
    let mut asm = Asm::new();
    asm.flush(MemOperand::abs(addr.0));
    asm.halt();
    asm.assemble().expect("flush program assembles")
}

fn load_program(addr: Addr) -> Program {
    let mut asm = Asm::new();
    let d = asm.reg();
    asm.load(d, MemOperand::abs(addr.0));
    // Make the run time observe the load's completion.
    let e = asm.reg();
    asm.addi(e, d, 1);
    asm.halt();
    asm.assemble().expect("load program assembles")
}

/// The Figure 7b fix: the victim load is one path of a race whose baseline
/// path runs `baseline_ops` adds — longer than either load case — so the
/// stage's duration is the baseline's, constant.
fn raced_load_program(layout: Layout, victim: Addr, baseline_ops: usize) -> Program {
    let mut asm = Asm::new();
    let seed = emit_sync_head(&mut asm, layout.sync);
    let rm = PathSpec::load_chain([victim]).emit(&mut asm, seed);
    let rb = PathSpec::op_chain(racer_isa::AluOp::Mul, baseline_ops).emit(&mut asm, seed);
    let join = asm.reg();
    asm.add(join, rm, rb); // completion requires both paths
    asm.halt();
    asm.assemble().expect("raced load program assembles")
}

impl StageBreakdown {
    /// JSON form: per-stage cycles plus the total.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("load", self.load)
            .with("reload", self.reload)
            .with("evict", self.evict)
            .with("total", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(same: bool, racing: bool) -> StageBreakdown {
        let mut m = Machine::baseline();
        let cfg = RepetitionConfig {
            iterations: 30,
            same_addr: same,
            use_racing: racing,
            baseline_ops: 95,
        };
        run_repetition(&mut m, &cfg)
    }

    /// Figure 7a: without racing, the per-stage differences cancel and the
    /// totals are indistinguishable.
    #[test]
    fn bare_repetition_cancels_in_the_total() {
        let same = run(true, false);
        let diff = run(false, false);
        // Reload differs strongly (same → hit, different → miss)…
        assert!(
            diff.reload > same.reload + 2000,
            "reload stage must favour same-addr: {same:?} vs {diff:?}"
        );
        // …load differs the opposite way (same → miss, different → hit)…
        assert!(
            same.load > diff.load + 2000,
            "load stage must favour different-addr: {same:?} vs {diff:?}"
        );
        // …and the totals cancel to within a few percent.
        let (a, b) = (same.total() as f64, diff.total() as f64);
        let rel = (a - b).abs() / a.max(b);
        assert!(
            rel < 0.05,
            "totals must cancel (Fig 7a): same={} different={} rel={rel:.3}",
            same.total(),
            diff.total()
        );
    }

    /// Figure 7b: with the load stage raced constant, the reload difference
    /// survives into the total.
    #[test]
    fn raced_repetition_exposes_the_difference() {
        let same = run(true, true);
        let diff = run(false, true);
        // The load stage is now constant-time…
        let load_rel =
            (same.load as f64 - diff.load as f64).abs() / same.load.max(diff.load) as f64;
        assert!(
            load_rel < 0.02,
            "raced load stage must be constant: same={} diff={}",
            same.load,
            diff.load
        );
        // …so the total now separates the two cases.
        assert!(
            diff.total() > same.total() + 2000,
            "raced totals must differ (Fig 7b): same={} different={}",
            same.total(),
            diff.total()
        );
    }

    /// The per-iteration signal matches Flush+Reload expectations.
    #[test]
    fn reload_hit_vs_miss_scale() {
        let same = run(true, false);
        let diff = run(false, false);
        let per_iter = (diff.reload - same.reload) / 30;
        assert!(
            (150..=300).contains(&per_iter),
            "per-iteration reload difference should be ~DRAM-L1: {per_iter}"
        );
    }
}
