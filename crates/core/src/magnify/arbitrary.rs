//! The arbitrary-replacement-policy magnifier (paper §6.3, Figure 5).
//!
//! Works for *any* per-set replacement policy, including random: the
//! magnifier is itself a racing pair. `PathA` walks `SEQ` eviction-set
//! chains through even-indexed sets and fires the next set's `PAR`
//! addresses in parallel behind itself; `PathB` walks the odd-indexed
//! `SEQ`s. Aligned, `PAR_{i+1}` lands *after* `PathB` has finished reading
//! `SEQ_{i+1}` — no interference. Misaligned (PathB delayed), the `PAR`
//! fills evict `SEQ` members *before* PathB reads them, adding misses that
//! grow the misalignment round over round — a chain reaction.
//!
//! With in-path prefetching (§6.3.1) PathB restores the initial state of
//! sets `DIST` iterations ahead, so the finite cache magnifies an unbounded
//! number of rounds (Figure 11).
//!
//! **Period: one traversal of the chosen sets** (two when the set count is
//! odd, so both paths keep their parity). Every traversal clear of the end
//! is one repeated region; the last one (no PAR after the final
//! iteration, no prefetch beyond it) is emitted unrolled. Under FIFO
//! replacement the machine repeats every traversal except for the ways
//! the lines occupy, which rotate through an 8-way set in eight
//! traversals; the core fast-forwards with that period. Random replacement
//! draws from each set's generator on every eviction, so those lanes never
//! repeat and always run in full.

use crate::layout::Layout;
use crate::machine::Machine;
use crate::path::{emit_sync_head, PathSpec};
use racer_isa::{Asm, MemOperand, Program};
use racer_mem::HitLevel;

/// Driver for the §6.3 magnifier. Requires a machine whose L1 matches the
/// paper's demonstration cache — 64 sets, 8 ways, random replacement
/// ([`Machine::random_l1`]) — though any policy works.
#[derive(Clone, Debug)]
pub struct ArbitraryReplacementMagnifier {
    layout: Layout,
    /// Number of L1 sets used per traversal (paper: half of 64 = 32).
    pub num_sets: usize,
    /// Members per `SEQ_i` (paper §6.3.3: 6 — three-quarters of the
    /// associativity).
    pub seq_len: usize,
    /// Members per `PAR_i` (paper §6.3.3: 5 gives ≥1 eviction with ~96%
    /// probability under random replacement).
    pub par_len: usize,
    /// Prefetch distance in logical iterations (paper §7.5: 22); 0 disables
    /// prefetching, capping magnification at one traversal (§6.3.1).
    pub prefetch_dist: usize,
    /// Passes over each restored SEQ during prefetching. Under random
    /// replacement a single pass of fills can evict just-restored members,
    /// so restoration needs repetition (paper footnote 6: "this initial
    /// state can be achieved through repeatedly accessing SEQi").
    pub prefetch_passes: usize,
    /// Chained ALU pad (cycles) inserted after each SEQ chain on *both*
    /// paths. The pad postpones `PAR_{i+1}` past the aligned PathB's reads
    /// — giving the clean state a safety margin — while a PathB delayed by
    /// more than the pad still collides. This sets the gadget's switching
    /// threshold, like the buffer stage of §6.4.
    pub iteration_pad: usize,
    /// Full traversals of the chosen sets (Figure 11's x-axis).
    pub repeats: usize,
}

impl ArbitraryReplacementMagnifier {
    /// The paper's configuration: 32 sets, SEQ=6, PAR=5, prefetch distance
    /// 22, one traversal.
    pub fn new(layout: Layout) -> Self {
        ArbitraryReplacementMagnifier {
            layout,
            num_sets: 32,
            seq_len: 6,
            par_len: 5,
            prefetch_dist: 22,
            prefetch_passes: 3,
            iteration_pad: 10,
            repeats: 1,
        }
    }

    /// L1 set used by logical iteration `i` (sets 1..=num_sets, clear of
    /// set 0 where the sync line lives).
    fn set_of(&self, i: usize) -> usize {
        1 + (i % self.num_sets)
    }

    /// Total logical iterations.
    fn iterations(&self) -> usize {
        self.repeats * self.num_sets
    }

    /// Prepare the initial cache state: every `SEQ_i` member L1-resident,
    /// every `PAR_i` member warm in L2/L3 but *not* in the L1 (so its later
    /// fill evicts something). Converges by repeated access, as the paper's
    /// footnote 6 prescribes for random replacement.
    pub fn prepare(&self, m: &mut Machine) {
        for s in (0..self.num_sets).map(|i| self.set_of(i)) {
            let l1 = m.cpu().hierarchy().l1d();
            let seqs: Vec<_> = (0..self.seq_len)
                .map(|k| self.layout.seq_line(l1, s, k))
                .collect();
            let pars: Vec<_> = (0..self.par_len)
                .map(|k| self.layout.par_line(l1, s, k))
                .collect();
            for &p in &pars {
                m.warm(p);
                m.evict_from_l1(p);
            }
            // Repeatedly touch SEQ members until all are simultaneously
            // resident (random replacement may evict siblings on fill).
            for _ in 0..64 {
                let mut all_in = true;
                for &q in &seqs {
                    if m.cpu().hierarchy().probe(q) != HitLevel::L1 {
                        m.warm(q);
                        all_in = false;
                    }
                }
                if all_in {
                    break;
                }
            }
            for &p in &pars {
                m.evict_from_l1(p);
            }
        }
    }

    /// Build the two-path magnifier program. `initial_delay` prepends that
    /// many dependent adds to PathB's seed — the misalignment under test
    /// (a racing gadget's output in a real attack).
    pub fn program(&self, m: &Machine, initial_delay: usize) -> Program {
        let l1 = m.cpu().hierarchy().l1d();
        let total = self.iterations();
        let mut asm = Asm::new();
        let seed = emit_sync_head(&mut asm, self.layout.sync);
        let seed_b = PathSpec::op_chain(racer_isa::AluOp::Add, initial_delay).emit(&mut asm, seed);

        // Per-path chain registers (reused; renaming keeps them private).
        let (va, ma) = (asm.reg(), asm.reg());
        let (vb, mb) = (asm.reg(), asm.reg());
        let scratch = asm.reg();
        // Seed the chains.
        asm.add(va, seed, 0i64);
        asm.add(vb, seed_b, 0i64);

        let regs = [va, ma, vb, mb, scratch];
        // Iteration `i`'s code depends only on `i` modulo the set count
        // (and its parity), except where it looks past the last iteration
        // (no PAR after it, no prefetch beyond it). So every traversal
        // clear of the end is the same code: emit those as one repeated
        // region, then the tail iterations one by one.
        let unit = if self.num_sets.is_multiple_of(2) {
            self.num_sets
        } else {
            2 * self.num_sets
        };
        let reach = self.prefetch_dist.max(1);
        let full = total.saturating_sub(reach) / unit;
        asm.repeat(full, |asm| {
            for i in 0..unit {
                self.emit_iteration(asm, l1, regs, i, total);
            }
        });
        for i in full * unit..total {
            self.emit_iteration(&mut asm, l1, regs, i, total);
        }
        asm.halt();
        asm.assemble()
            .expect("arbitrary-replacement magnifier assembles")
    }

    /// Emit logical iteration `i` of `total`: PathA on even iterations,
    /// PathB on odd ones. `regs` are the chain registers
    /// `[va, ma, vb, mb, scratch]`.
    fn emit_iteration(
        &self,
        asm: &mut Asm,
        l1: &racer_mem::Cache,
        regs: [racer_isa::Reg; 5],
        i: usize,
        total: usize,
    ) {
        let [va, ma, vb, mb, scratch] = regs;
        let s = self.set_of(i);
        if i.is_multiple_of(2) {
            // PathA: SEQ_i chained, a pad, then PAR_{i+1} in parallel.
            for k in 0..self.seq_len {
                let addr = self.layout.seq_line(l1, s, k);
                asm.and(ma, va, 0i64);
                asm.load(va, MemOperand::base_disp(ma, addr.0 as i64));
            }
            for _ in 0..self.iteration_pad {
                asm.add(va, va, 0i64);
            }
            if i + 1 < total {
                let sp = self.set_of(i + 1);
                asm.and(ma, va, 0i64);
                for k in 0..self.par_len {
                    let addr = self.layout.par_line(l1, sp, k);
                    asm.load(scratch, MemOperand::base_disp(ma, addr.0 as i64));
                }
            }
        } else {
            // PathB: SEQ_i chained, the matching pad (keeping the two
            // paths' iteration periods equal), plus prefetches DIST ahead
            // to restore the initial state for later rounds (§6.3.1).
            for k in 0..self.seq_len {
                let addr = self.layout.seq_line(l1, s, k);
                asm.and(mb, vb, 0i64);
                asm.load(vb, MemOperand::base_disp(mb, addr.0 as i64));
            }
            for _ in 0..self.iteration_pad {
                asm.add(vb, vb, 0i64);
            }
            if self.prefetch_dist > 0 && i + self.prefetch_dist < total {
                let sf = self.set_of(i + self.prefetch_dist);
                asm.and(mb, vb, 0i64);
                for _ in 0..self.prefetch_passes.max(1) {
                    for k in 0..self.seq_len {
                        let addr = self.layout.seq_line(l1, sf, k);
                        asm.prefetch(MemOperand::base_disp(mb, addr.0 as i64));
                    }
                }
            }
        }
    }

    /// Prepare, then run with `initial_delay`; returns total cycles.
    pub fn measure(&self, m: &mut Machine, initial_delay: usize) -> u64 {
        self.prepare(m);
        m.flush(self.layout.sync);
        let prog = self.program(m, initial_delay);
        m.run_cycles(&prog)
    }

    /// The magnified timing difference: delayed run minus aligned run minus
    /// the delay itself (i.e. pure amplification).
    pub fn amplification(&self, m: &mut Machine, initial_delay: usize) -> i64 {
        let aligned = self.measure(m, 0);
        let delayed = self.measure(m, initial_delay);
        delayed as i64 - aligned as i64 - initial_delay as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn magnifier(repeats: usize, prefetch: usize) -> ArbitraryReplacementMagnifier {
        let mut mag = ArbitraryReplacementMagnifier::new(Layout::default());
        mag.repeats = repeats;
        mag.prefetch_dist = prefetch;
        mag
    }

    /// The program as one plain loop over every logical iteration — the
    /// construction the repeated region must reproduce exactly.
    fn unrolled_reference(
        mag: &ArbitraryReplacementMagnifier,
        m: &Machine,
        delay: usize,
    ) -> Vec<racer_isa::Instr> {
        let l1 = m.cpu().hierarchy().l1d();
        let total = mag.iterations();
        let mut asm = Asm::new();
        let seed = emit_sync_head(&mut asm, mag.layout.sync);
        let seed_b = PathSpec::op_chain(racer_isa::AluOp::Add, delay).emit(&mut asm, seed);
        let (va, ma) = (asm.reg(), asm.reg());
        let (vb, mb) = (asm.reg(), asm.reg());
        let scratch = asm.reg();
        asm.add(va, seed, 0i64);
        asm.add(vb, seed_b, 0i64);
        for i in 0..total {
            mag.emit_iteration(&mut asm, l1, [va, ma, vb, mb, scratch], i, total);
        }
        asm.halt();
        asm.assemble().unwrap().iter().copied().collect()
    }

    #[test]
    fn repeated_traversals_reproduce_the_unrolled_stream() {
        let m = Machine::random_l1(3);
        for (repeats, prefetch, rounds) in [
            (0, 22, None),
            (1, 22, None),
            (2, 22, None),
            (5, 22, Some(4)),
            (5, 0, Some(4)),
            (5, 40, Some(3)),
        ] {
            let mag = magnifier(repeats, prefetch);
            let prog = mag.program(&m, 30);
            assert_eq!(
                prog.region().map(|r| r.rounds),
                rounds,
                "repeats={repeats} prefetch={prefetch}"
            );
            let stream: Vec<_> = prog.iter().copied().collect();
            assert!(
                stream == unrolled_reference(&mag, &m, 30),
                "repeats={repeats} prefetch={prefetch}: stream differs"
            );
        }
    }

    #[test]
    fn aligned_paths_run_clean() {
        let mut m = Machine::random_l1(11);
        let mag = magnifier(1, 22);
        mag.prepare(&mut m);
        m.flush(m.layout().sync);
        let prog = mag.program(&m, 0);
        let r = m.run(&prog);
        // Aligned: PathB's critical-path SEQ accesses overwhelmingly hit
        // (Figure 5a: "the SEQi accesses will all hit in the cache").
        let l1 = m.cpu().hierarchy().l1d();
        let b_seq: std::collections::HashSet<u64> = (0..mag.iterations())
            .filter(|i| i % 2 == 1)
            .flat_map(|i| {
                let s = mag.set_of(i);
                (0..mag.seq_len).map(move |k| (s, k))
            })
            .map(|(s, k)| mag.layout.seq_line(l1, s, k).0)
            .collect();
        let (mut hits, mut misses) = (0u64, 0u64);
        for ev in r
            .loads
            .iter()
            .filter(|l| l.committed && b_seq.contains(&l.addr))
        {
            if ev.level == HitLevel::L1 {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert!(hits > 0);
        assert!(
            misses * 4 <= hits,
            "aligned PathB SEQ accesses must mostly hit: {hits} hits vs {misses} misses"
        );
    }

    #[test]
    fn misalignment_is_amplified() {
        let mut m = Machine::random_l1(7);
        let mag = magnifier(4, 22);
        let delay = 30usize;
        let amp = mag.amplification(&mut m, delay);
        assert!(
            amp > delay as i64 * 2,
            "a {delay}-cycle misalignment must be amplified, got {amp} extra cycles"
        );
    }

    #[test]
    fn amplification_grows_with_repeats() {
        // Growth is tested under FIFO, where the deterministic simulator
        // sustains the chain reaction indefinitely (see the Figure 11
        // deviation note in EXPERIMENTS.md: deterministic random-
        // replacement churn equalizes the two runs after tens of repeats,
        // which real-hardware noise does not).
        use racer_cpu::CpuConfig;
        use racer_mem::{CacheConfig, HierarchyConfig, ReplacementKind};
        let mut machine = {
            let mut hier = HierarchyConfig::coffee_lake();
            hier.l1d = CacheConfig {
                sets: 64,
                ways: 8,
                replacement: ReplacementKind::Fifo,
                seed: 13,
                ..CacheConfig::l1d_coffee_lake()
            };
            Machine::with(CpuConfig::coffee_lake().with_load_recording(), hier)
        };
        let small = magnifier(2, 22).amplification(&mut machine, 30);
        let large = magnifier(8, 22).amplification(&mut machine, 30);
        assert!(
            large > small * 2,
            "more traversals must amplify more: {small} → {large}"
        );
    }

    #[test]
    fn without_prefetching_magnification_saturates() {
        // §6.3.1: without prefetching the amplification is bounded by the
        // number of sets — more repeats add (almost) nothing once the
        // initial state is consumed. Deterministic random-replacement churn
        // makes the margin seed-sensitive; this seed gives a >2x margin on
        // both assertions under the workspace's vendored generator.
        let mut m = Machine::random_l1(5);
        let two = magnifier(2, 0).amplification(&mut m, 30);
        let eight = magnifier(8, 0).amplification(&mut m, 30);
        let with_prefetch = magnifier(8, 22).amplification(&mut m, 30);
        assert!(
            with_prefetch > eight,
            "prefetching must beat the capped variant: {with_prefetch} vs {eight}"
        );
        // The capped variant grows sublinearly: going 2→8 repeats (4×)
        // must yield well under 4× the amplification.
        assert!(
            eight < two * 3 + 200,
            "without prefetch the growth must saturate: {two} → {eight}"
        );
    }

    #[test]
    fn works_under_fifo_replacement_too() {
        // §6.3 claims independence from the replacement policy. Recency-free
        // policies (random, FIFO) sustain the PAR eviction pressure across
        // traversals; verify the chain reaction also fires under FIFO.
        use racer_cpu::CpuConfig;
        use racer_mem::{CacheConfig, HierarchyConfig, ReplacementKind};
        let mut machine = {
            let mut hier = HierarchyConfig::coffee_lake();
            hier.l1d = CacheConfig {
                sets: 64,
                ways: 8,
                replacement: ReplacementKind::Fifo,
                seed: 5,
                ..CacheConfig::l1d_coffee_lake()
            };
            Machine::with(CpuConfig::coffee_lake().with_load_recording(), hier)
        };
        let amp = magnifier(4, 22).amplification(&mut machine, 30);
        assert!(
            amp > 500,
            "chain reaction must fire under FIFO as well, got {amp}"
        );
    }
}
