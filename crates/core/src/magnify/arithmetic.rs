//! The arithmetic-operation-only magnifier (paper §6.4, Figure 6).
//!
//! No cache involvement at all — immune to any cache defence. Two paths
//! alternate *racing stages* and *buffer stages*:
//!
//! * `PathA`: a chain of MULs timed to equal PathB's DIV chain, then a
//!   burst of parallel DIVs, then an ADD buffer chain;
//! * `PathB`: a chain of DIVs (the critical path being measured), then an
//!   ADD buffer chain.
//!
//! Aligned, PathA's parallel DIVs retire before PathB next needs the
//! divider. Misaligned, they collide with PathB's DIV chain on the
//! non-fully-pipelined divider (4-cycle reciprocal throughput), delaying
//! PathB further each stage — the contention chain reaction.
//!
//! Being stateless, the accumulated difference stops growing when the OS
//! timer interrupt drains the pipeline and re-aligns the paths (§7.5,
//! Figure 12) — configure [`racer_cpu::CpuConfig::interrupt_interval`] to
//! model that bound.
//!
//! **Period: one stage.** The racing+buffer stage pair is one repeated
//! region. Aligned lanes settle at 144 cycles per stage and delayed ones
//! at 189; the core fast-forwards between timer interrupts (a jump never
//! crosses an interrupt boundary, and after each drain the lane settles
//! again).

use crate::layout::Layout;
use crate::machine::Machine;
use crate::path::{emit_sync_head, PathSpec};
use racer_isa::{AluOp, Asm, Program};

/// Driver for the §6.4 magnifier.
#[derive(Clone, Debug)]
pub struct ArithmeticMagnifier {
    layout: Layout,
    /// Racing+buffer stage pairs (Figure 12's x-axis "repeat num").
    pub stages: usize,
    /// Chained DIVs per PathB racing stage.
    pub divs_per_stage: usize,
    /// Chained MULs per PathA racing stage — chosen so
    /// `muls × lat(MUL) ≈ divs × lat(DIV)` (stage parity).
    pub muls_per_stage: usize,
    /// Parallel DIVs PathA fires after its MUL chain (the contention).
    pub par_divs: usize,
    /// ADD-chain length of the buffer stage (both paths; long enough for
    /// the parallel DIVs to drain when aligned).
    pub buffer_adds: usize,
}

impl ArithmeticMagnifier {
    /// A stage geometry tuned to the default latencies (DIV 14, MUL 3) and
    /// validated to give *sustained* per-stage displacement (~45 cycles per
    /// stage) in the misaligned state while the aligned state stays clean:
    ///
    /// * racing stages of exactly equal length: 6 chained DIVs = 84 cycles
    ///   = 28 chained MULs;
    /// * a 12-deep parallel-DIV burst occupying the divider for the 48
    ///   cycles after PathA's racing stage — *older in program order* than
    ///   PathB's next divides, so oldest-first issue arbitration makes a
    ///   late PathB wait out the whole burst (Figure 6b), while an aligned
    ///   PathB's divides all precede it;
    /// * 60-add buffers, long enough that the burst drains before the next
    ///   aligned racing stage (paper: "large enough so that the next racing
    ///   stage will start … after all parallel DIVs have finished").
    ///
    /// The two states are stable fixed points: once misaligned by ≥ ~16
    /// cycles, every subsequent stage's divides land in the burst window
    /// again and the displacement accrues linearly, forever (until a
    /// pipeline drain re-aligns the paths, §7.5).
    pub fn new(layout: Layout) -> Self {
        ArithmeticMagnifier {
            layout,
            stages: 50,
            divs_per_stage: 6,
            muls_per_stage: 28,
            par_divs: 12,
            buffer_adds: 60,
        }
    }

    /// Build the program with `initial_delay` extra adds ahead of PathB.
    pub fn program(&self, initial_delay: usize) -> Program {
        let mut asm = Asm::new();
        let seed = emit_sync_head(&mut asm, self.layout.sync);
        let seed_b = PathSpec::op_chain(AluOp::Add, initial_delay).emit(&mut asm, seed);
        self.emit_stages(&mut asm, seed, seed_b);
        asm.halt();
        asm.assemble().expect("arithmetic magnifier assembles")
    }

    /// Emit the magnifier's stage pairs with explicit path seeds: PathA
    /// hangs off `seed_a`, PathB (the measured critical path) off `seed_b`.
    ///
    /// Exposing the seeds lets a *racing gadget's terminators* drive the
    /// misalignment directly — a completely cache-free timer when composed
    /// (see [`crate::attacks::CacheFreeTimer`]).
    pub fn emit_stages(&self, asm: &mut Asm, seed_a: racer_isa::Reg, seed_b: racer_isa::Reg) {
        let a = asm.reg(); // PathA chain register (value 0 throughout)
        let b = asm.reg(); // PathB chain register
        let pd = asm.reg(); // parallel-DIV scratch destination
        asm.add(a, seed_a, 0i64);
        asm.add(b, seed_b, 0i64);

        asm.repeat(self.stages, |asm| {
            // PathA racing stage: MUL chain.
            for _ in 0..self.muls_per_stage {
                asm.mul(a, a, 1i64);
            }
            // PathA: parallel DIVs — independent of each other, hanging off
            // the MUL chain. Emitted *before* PathB's divides so they are
            // older in program order and win oldest-first issue arbitration
            // whenever the two paths' divider demands collide.
            for _ in 0..self.par_divs {
                asm.div(pd, a, 1i64);
            }
            // PathB racing stage: DIV chain (the measured critical path).
            for _ in 0..self.divs_per_stage {
                asm.div(b, b, 1i64);
            }
            // Buffer stages (both paths).
            for _ in 0..self.buffer_adds {
                asm.add(a, a, 0i64);
                asm.add(b, b, 0i64);
            }
        });
    }

    /// Run with the given initial delay; returns total cycles. The sync
    /// head is flushed so both paths start on its DRAM return.
    pub fn measure(&self, m: &mut Machine, initial_delay: usize) -> u64 {
        m.flush(self.layout.sync);
        let prog = self.program(initial_delay);
        m.run_cycles(&prog)
    }

    /// Amplified difference: delayed minus aligned minus the delay itself.
    pub fn amplification(&self, m: &mut Machine, initial_delay: usize) -> i64 {
        let aligned = self.measure(m, 0);
        let delayed = self.measure(m, initial_delay);
        delayed as i64 - aligned as i64 - initial_delay as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_cpu::CpuConfig;
    use racer_mem::HierarchyConfig;

    fn magnifier(stages: usize) -> ArithmeticMagnifier {
        let mut mag = ArithmeticMagnifier::new(Layout::default());
        mag.stages = stages;
        mag
    }

    #[test]
    fn misalignment_grows_through_divider_contention() {
        let mut m = Machine::baseline();
        let amp = magnifier(60).amplification(&mut m, 20);
        assert!(
            amp > 30,
            "divider contention must amplify a 20-cycle offset, got {amp}"
        );
    }

    #[test]
    fn amplification_grows_with_stage_count() {
        let mut m = Machine::baseline();
        let short = magnifier(30).amplification(&mut m, 20);
        let long = magnifier(120).amplification(&mut m, 20);
        assert!(
            long > short + 50,
            "more stages must amplify more: {short} → {long}"
        );
    }

    #[test]
    fn no_cache_accesses_involved() {
        let mut m = Machine::baseline();
        let mag = magnifier(20);
        m.flush(m.layout().sync);
        let prog = mag.program(5);
        let r = m.run(&prog);
        // Only the sync head and x-free setup touch memory: one load.
        assert!(
            r.mem_stats.l1d.accesses() <= 2,
            "the arithmetic magnifier must not use the cache: {:?}",
            r.mem_stats.l1d
        );
    }

    #[test]
    fn pipeline_drains_stop_accumulation() {
        // §7.5: with timer interrupts, the stateless magnifier stops
        // accumulating once the run spans an interrupt (Figure 12 plateau).
        let drained = {
            let mut cfg = CpuConfig::coffee_lake();
            cfg.interrupt_interval = Some(4_000);
            let mut m = Machine::with(cfg, HierarchyConfig::small_plru());
            magnifier(400).amplification(&mut m, 20)
        };
        let free = {
            let mut m = Machine::baseline();
            magnifier(400).amplification(&mut m, 20)
        };
        assert!(
            drained < free,
            "interrupt drains must cap the amplification: drained={drained} free={free}"
        );
    }
}
