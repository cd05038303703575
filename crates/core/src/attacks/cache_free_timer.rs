//! A completely cache-free fine-grained timer.
//!
//! The paper's §8 closes with the observation that even if every
//! cache-based gadget were mitigated, "an attacker can then change strategy
//! to transmit timing based on within-core contention". This module is
//! that strategy, end to end: a non-transient race between a target path
//! and a reference path feeds the **arithmetic-operation-only magnifier**
//! (§6.4) *directly* — the race's time difference becomes the magnifier's
//! path misalignment, amplified by divider contention to coarse-timer
//! scale. No load instructions are involved beyond the single §4.1
//! synchronization head; no cache state carries the secret at any point.

use crate::layout::Layout;
use crate::machine::Machine;
use crate::magnify::ArithmeticMagnifier;
use crate::path::{emit_sync_head, PathSpec};
use racer_isa::{AluOp, Asm, Program};
use racer_time::Timer;

/// A timer that never touches the cache: race → divider-contention
/// magnifier → coarse clock.
#[derive(Clone, Debug)]
pub struct CacheFreeTimer {
    layout: Layout,
    /// Operation the reference path is chained from.
    pub ref_op: AluOp,
    /// Magnifier geometry (stage count controls amplification).
    pub magnifier: ArithmeticMagnifier,
}

impl CacheFreeTimer {
    /// A cache-free timer with an ADD-chained reference and a 60-stage
    /// magnifier (~2700 cycles ≈ 1.35 µs of amplification per decision at
    /// the default geometry — raise `magnifier.stages` for coarser clocks).
    pub fn new(layout: Layout) -> Self {
        let mut magnifier = ArithmeticMagnifier::new(layout);
        magnifier.stages = 60;
        CacheFreeTimer {
            layout,
            ref_op: AluOp::Add,
            magnifier,
        }
    }

    /// Build the composed program: sync head, then the reference path seeds
    /// the magnifier's PathA while the target path seeds PathB. If the
    /// target out-lasts the reference by more than the bistability margin
    /// (~16 cycles), the magnifier locks into its misaligned state and the
    /// whole program runs visibly longer.
    pub fn program(&self, target: &PathSpec, ref_ops: usize) -> Program {
        let mut asm = Asm::new();
        let seed = emit_sync_head(&mut asm, self.layout.sync);
        let seed_a = PathSpec::op_chain(self.ref_op, ref_ops).emit(&mut asm, seed);
        let seed_b = target.emit(&mut asm, seed);
        self.magnifier.emit_stages(&mut asm, seed_a, seed_b);
        asm.halt();
        asm.assemble().expect("cache-free timer assembles")
    }

    /// Run one measurement, returning the observed duration through
    /// `timer`.
    pub fn observe(
        &self,
        m: &mut Machine,
        target: &PathSpec,
        ref_ops: usize,
        timer: &mut dyn Timer,
    ) -> f64 {
        m.flush(self.layout.sync);
        let prog = self.program(target, ref_ops);
        m.run_timed(&prog, timer)
    }

    /// Does `target` exceed `ref_ops` reference operations (by at least the
    /// magnifier's lock-in margin)? Decided purely from `timer` readings
    /// against a calibrated `threshold_ns`.
    pub fn exceeds_observed(
        &self,
        m: &mut Machine,
        target: &PathSpec,
        ref_ops: usize,
        timer: &mut dyn Timer,
        threshold_ns: f64,
    ) -> bool {
        self.observe(m, target, ref_ops, timer) > threshold_ns
    }

    /// Calibrate the decision threshold from two known targets (well under
    /// and well over the reference).
    pub fn calibrate(&self, m: &mut Machine, ref_ops: usize, timer: &mut dyn Timer) -> f64 {
        let fast = PathSpec::op_chain(self.ref_op, 1);
        let slow = PathSpec::op_chain(self.ref_op, ref_ops * 2 + 40);
        let lo = self.observe(m, &fast, ref_ops, timer);
        let hi = self.observe(m, &slow, ref_ops, timer);
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_time::{CoarseTimer, PerfectTimer};

    #[test]
    fn distinguishes_fast_from_slow_targets() {
        let mut m = Machine::baseline();
        let timer = CacheFreeTimer::new(m.layout());
        let threshold = timer.calibrate(&mut m, 40, &mut PerfectTimer);
        let fast = PathSpec::op_chain(AluOp::Add, 10);
        let slow = PathSpec::op_chain(AluOp::Add, 70);
        assert!(!timer.exceeds_observed(&mut m, &fast, 40, &mut PerfectTimer, threshold));
        assert!(timer.exceeds_observed(&mut m, &slow, 40, &mut PerfectTimer, threshold));
    }

    #[test]
    fn works_through_a_5us_browser_timer() {
        let mut m = Machine::baseline();
        let mut timer = CacheFreeTimer::new(m.layout());
        // Enough stages that the misaligned state exceeds several ticks.
        timer.magnifier.stages = 400;
        let mut coarse = CoarseTimer::browser_5us();
        let threshold = timer.calibrate(&mut m, 40, &mut coarse);
        let fast = PathSpec::op_chain(AluOp::Add, 5);
        let slow = PathSpec::op_chain(AluOp::Add, 80);
        assert!(!timer.exceeds_observed(&mut m, &fast, 40, &mut coarse, threshold));
        assert!(timer.exceeds_observed(&mut m, &slow, 40, &mut coarse, threshold));
    }

    #[test]
    fn whole_pipeline_is_cache_free() {
        let mut m = Machine::baseline();
        let timer = CacheFreeTimer::new(m.layout());
        m.flush(m.layout().sync);
        let prog = timer.program(&PathSpec::op_chain(AluOp::Mul, 20), 40);
        // Static check: the only memory instruction is the sync head.
        let memory_instrs = prog.iter().filter(|i| i.is_memory()).count();
        assert_eq!(memory_instrs, 1, "only the §4.1 sync head may touch memory");
        // Dynamic check: one L1 access in the whole run.
        let r = m.run(&prog);
        assert!(r.mem_stats.l1d.accesses() <= 1, "{:?}", r.mem_stats.l1d);
    }

    #[test]
    fn timing_verdict_is_divider_contention_not_cache() {
        // Run the same measurement twice with a cold and a fully warm
        // hierarchy: the verdict must not change.
        let timer = CacheFreeTimer::new(Layout::default());
        let slow = PathSpec::op_chain(AluOp::Add, 70);
        let mut cold = Machine::baseline();
        let cold_obs = timer.observe(&mut cold, &slow, 40, &mut PerfectTimer);
        let mut warm = Machine::baseline();
        timer.observe(&mut warm, &slow, 40, &mut PerfectTimer);
        let warm_obs = timer.observe(&mut warm, &slow, 40, &mut PerfectTimer);
        let rel = (cold_obs - warm_obs).abs() / cold_obs.max(warm_obs);
        assert!(
            rel < 0.05,
            "cache temperature must not affect the verdict: {cold_obs} vs {warm_obs}"
        );
    }
}
