//! The racing-gadget template grammar and its lowering to programs.
//!
//! A [`GadgetTemplate`] is the searchable description of a Hacky-Racer
//! timer: which functional unit the *measured* chain occupies and how
//! many ops per target unit, which unit the *clock* chain ticks on, how
//! the two arms are laid out in program order, how much serialization
//! (fences) and padding surrounds the measured chain, how many
//! independent cover-traffic chains run alongside, and how many rounds
//! the race body repeats (arithmetic-magnifier nesting, §6.4: the clock
//! keeps accumulating across rounds).
//!
//! `lower(target, clock_len)` assembles the straight-line program for a
//! given measured length, mirroring `racer_cpu::workloads::timer_race`:
//! a serial measured chain races a serial clock chain, and the timer
//! reading is how many clock ops completed before the measured tail did.
//! Lowering is total — every template in the sampled space produces a
//! program that assembles, runs branch-free and memory-free, and halts —
//! which `crates/core/tests/gadget_gen.rs` pins across all three
//! execution backends.

use racer_isa::{Asm, Instr, Program, Reg};
use racer_rng::SplitMix64;

/// Serial-chain operation: the FU the chain occupies and its per-op
/// latency class (ADD 1 cycle, MUL 3 cycles pipelined, DIV non-pipelined
/// double-digit — the paper's measured/clock building blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainOp {
    /// 1-cycle ALU add: the paper's clock chain.
    Add,
    /// 3-cycle pipelined multiply.
    Mul,
    /// Non-pipelined divide: the paper's measured chain.
    Div,
}

impl ChainOp {
    /// Every grammar value, in sampling order.
    pub const ALL: [ChainOp; 3] = [ChainOp::Add, ChainOp::Mul, ChainOp::Div];

    /// Stable lowercase name (serialization / provenance).
    pub fn name(self) -> &'static str {
        match self {
            ChainOp::Add => "add",
            ChainOp::Mul => "mul",
            ChainOp::Div => "div",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<ChainOp> {
        Self::ALL.into_iter().find(|op| op.name() == name)
    }

    fn index(self) -> u8 {
        Self::ALL
            .iter()
            .position(|&op| op == self)
            .expect("ALL is total") as u8
    }

    /// Emit one serial chain step `r = r op k` (constants chosen so DIV
    /// never divides by zero and the chain stays data-dependent).
    fn emit(self, asm: &mut Asm, r: Reg) {
        match self {
            ChainOp::Add => asm.addi(r, r, 1),
            ChainOp::Mul => asm.mul(r, r, 3i64),
            ChainOp::Div => asm.div(r, r, 3i64),
        };
    }
}

/// Program-order layout of the two race arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArmLayout {
    /// Clock ops interleaved proportionally between measured ops — the
    /// paper's shape: both chains feed the front end from cycle one.
    Interleaved,
    /// All clock ops first, then the measured chain.
    ClockFirst,
    /// The measured chain first, then all clock ops.
    MeasuredFirst,
}

impl ArmLayout {
    /// Every grammar value, in sampling order.
    pub const ALL: [ArmLayout; 3] = [
        ArmLayout::Interleaved,
        ArmLayout::ClockFirst,
        ArmLayout::MeasuredFirst,
    ];

    /// Stable name (serialization / provenance).
    pub fn name(self) -> &'static str {
        match self {
            ArmLayout::Interleaved => "interleaved",
            ArmLayout::ClockFirst => "clock-first",
            ArmLayout::MeasuredFirst => "measured-first",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<ArmLayout> {
        Self::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// Number of independently sampled template fields (mutation picks one).
const FIELDS: usize = 8;

/// A point in the racing-gadget grammar. The sampled space is small
/// enough to enumerate (~9k points) but large enough that a 2k-candidate
/// search covers it only partially — coverage-guided breeding matters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GadgetTemplate {
    /// FU of the measured (timed) chain.
    pub measured_op: ChainOp,
    /// Measured ops emitted per target unit (1..=3): chain-depth knob.
    pub measured_scale: u32,
    /// FU of the clock chain (its per-op latency is the tick size).
    pub clock_op: ChainOp,
    /// Program-order layout of the arms.
    pub layout: ArmLayout,
    /// Serializing fences after each measured op (0..=2) — the
    /// countermeasure-interplay knob; fences drain the pipeline and
    /// should destroy the race.
    pub fences: u32,
    /// Leading no-op padding (0..=7): dispatch-alignment knob.
    pub pad_nops: u32,
    /// Independent 1-cycle cover-traffic chains (0..=3) raising IPC so
    /// the gadget does not look backend-bound to a counter classifier.
    pub noise_chains: u32,
    /// Race-body rounds (1..=3): §6.4-style nesting, clock accumulates.
    pub rounds: u32,
}

/// A template lowered at one target length: the program plus the pc map
/// the fitness function reads the race outcome through.
pub struct LoweredGadget {
    /// The assembled straight-line program (always halts).
    pub prog: Program,
    /// pc of the measured chain's final op (its init `mov` when
    /// `target == 0`).
    pub measured_tail_pc: usize,
    /// pcs of every clock op, in emission order; the timer reading at
    /// this target is how many of them complete before the measured
    /// tail does.
    pub clock_pcs: Vec<usize>,
}

impl GadgetTemplate {
    /// Draw a template uniformly from the grammar. Field order is fixed
    /// and part of the determinism contract: `(seed) → template` must
    /// never change silently (the search's committed provenance depends
    /// on it).
    pub fn sample(rng: &mut SplitMix64) -> GadgetTemplate {
        let mut t = GadgetTemplate {
            measured_op: ChainOp::Add,
            measured_scale: 1,
            clock_op: ChainOp::Add,
            layout: ArmLayout::Interleaved,
            fences: 0,
            pad_nops: 0,
            noise_chains: 0,
            rounds: 1,
        };
        for field in 0..FIELDS {
            t.resample_field(field, rng);
        }
        t
    }

    /// One mutation step: resample a single uniformly chosen field
    /// (which may redraw its current value — a deliberate no-op
    /// mutation, cheaper than rejection loops and still ergodic).
    pub fn mutate(&self, rng: &mut SplitMix64) -> GadgetTemplate {
        let mut t = *self;
        let field = rng.below(FIELDS as u64) as usize;
        t.resample_field(field, rng);
        t
    }

    fn resample_field(&mut self, field: usize, rng: &mut SplitMix64) {
        match field {
            0 => self.measured_op = ChainOp::ALL[rng.below(3) as usize],
            1 => self.measured_scale = 1 + rng.below(3) as u32,
            2 => self.clock_op = ChainOp::ALL[rng.below(3) as usize],
            3 => self.layout = ArmLayout::ALL[rng.below(3) as usize],
            4 => self.fences = rng.below(3) as u32,
            5 => self.pad_nops = rng.below(8) as u32,
            6 => self.noise_chains = rng.below(4) as u32,
            7 => self.rounds = 1 + rng.below(3) as u32,
            _ => unreachable!("field index bounded by FIELDS"),
        }
    }

    /// The FU-pressure half of the behaviour descriptor: which units the
    /// arms occupy, how much cover traffic runs beside them, and whether
    /// fences / nesting reshape the pipeline pressure. Two templates
    /// with the same signature stress the backend the same way.
    pub fn fu_signature(&self) -> u8 {
        self.measured_op.index()
            | (self.clock_op.index() << 2)
            | ((self.noise_chains.min(3) as u8) << 4)
            | (u8::from(self.fences > 0) << 6)
            | (u8::from(self.rounds > 1) << 7)
    }

    /// Lower at `target` measured units with `clock_len` total clock
    /// ops. The measured chain is `target × measured_scale` ops per
    /// round; clock ops are split evenly across rounds (remainder to the
    /// last) so nesting never changes the total tick budget.
    pub fn lower(&self, target: usize, clock_len: usize) -> LoweredGadget {
        let mut asm = Asm::new();
        let m = asm.reg();
        let c = asm.reg();
        let noise: Vec<Reg> = (0..self.noise_chains).map(|_| asm.reg()).collect();
        for _ in 0..self.pad_nops {
            asm.emit(Instr::Nop);
        }
        let mut measured_tail_pc = asm.position();
        asm.mov_imm(m, 1 << 20);
        asm.mov_imm(c, 0);
        for &n in &noise {
            asm.mov_imm(n, 0);
        }
        let mut clock_pcs = Vec::with_capacity(clock_len);
        let mut noise_rr = 0usize;
        let measured_per_round = target * self.measured_scale as usize;
        let rounds = self.rounds as usize;
        for round in 0..rounds {
            let clock_this_round = if round + 1 == rounds {
                clock_len - (clock_len / rounds) * (rounds - 1)
            } else {
                clock_len / rounds
            };
            let mut emit_clock = |asm: &mut Asm, clock_pcs: &mut Vec<usize>| {
                clock_pcs.push(asm.position());
                self.clock_op.emit(asm, c);
                // Cover traffic rides the clock: one independent add per
                // tick, rotating across chains, so noise scales with the
                // program rather than with the (searched) chain depths.
                if !noise.is_empty() {
                    let n = noise[noise_rr % noise.len()];
                    noise_rr += 1;
                    asm.addi(n, n, 1);
                }
            };
            let emit_measured = |asm: &mut Asm, tail: &mut usize| {
                *tail = asm.position();
                self.measured_op.emit(asm, m);
                for _ in 0..self.fences {
                    asm.fence();
                }
            };
            match self.layout {
                ArmLayout::ClockFirst => {
                    for _ in 0..clock_this_round {
                        emit_clock(&mut asm, &mut clock_pcs);
                    }
                    for _ in 0..measured_per_round {
                        emit_measured(&mut asm, &mut measured_tail_pc);
                    }
                }
                ArmLayout::MeasuredFirst => {
                    for _ in 0..measured_per_round {
                        emit_measured(&mut asm, &mut measured_tail_pc);
                    }
                    for _ in 0..clock_this_round {
                        emit_clock(&mut asm, &mut clock_pcs);
                    }
                }
                ArmLayout::Interleaved => {
                    // Proportional interleave, same arithmetic as
                    // workloads::timer_race_phased.
                    let mut emitted_clock = 0usize;
                    for d in 0..measured_per_round {
                        emit_measured(&mut asm, &mut measured_tail_pc);
                        let want = clock_this_round * (d + 1) / measured_per_round.max(1);
                        while emitted_clock < want {
                            emit_clock(&mut asm, &mut clock_pcs);
                            emitted_clock += 1;
                        }
                    }
                    while emitted_clock < clock_this_round {
                        emit_clock(&mut asm, &mut clock_pcs);
                        emitted_clock += 1;
                    }
                }
            }
        }
        asm.halt();
        let prog = asm
            .assemble()
            .expect("gadget templates lower to valid programs");
        debug_assert_eq!(clock_pcs.len(), clock_len);
        LoweredGadget {
            prog,
            measured_tail_pc,
            clock_pcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_reproducible_and_in_bounds() {
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        for _ in 0..200 {
            let ta = GadgetTemplate::sample(&mut a);
            let tb = GadgetTemplate::sample(&mut b);
            assert_eq!(ta, tb);
            assert!((1..=3).contains(&ta.measured_scale));
            assert!(ta.fences <= 2);
            assert!(ta.pad_nops <= 7);
            assert!(ta.noise_chains <= 3);
            assert!((1..=3).contains(&ta.rounds));
        }
    }

    #[test]
    fn mutation_changes_at_most_one_field() {
        let mut rng = SplitMix64::new(3);
        let parent = GadgetTemplate::sample(&mut rng);
        for _ in 0..100 {
            let child = parent.mutate(&mut rng);
            let diffs = usize::from(child.measured_op != parent.measured_op)
                + usize::from(child.measured_scale != parent.measured_scale)
                + usize::from(child.clock_op != parent.clock_op)
                + usize::from(child.layout != parent.layout)
                + usize::from(child.fences != parent.fences)
                + usize::from(child.pad_nops != parent.pad_nops)
                + usize::from(child.noise_chains != parent.noise_chains)
                + usize::from(child.rounds != parent.rounds);
            assert!(diffs <= 1, "one mutation step touches one field");
        }
    }

    #[test]
    fn lowering_counts_every_clock_op_once() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..50 {
            let t = GadgetTemplate::sample(&mut rng);
            let lowered = t.lower(4, 96);
            assert_eq!(lowered.clock_pcs.len(), 96);
            let mut sorted = lowered.clock_pcs.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 96, "clock pcs are distinct");
            assert!(lowered.measured_tail_pc < lowered.prog.len());
        }
    }

    #[test]
    fn zero_target_lowers_to_the_init_mov() {
        let t = GadgetTemplate {
            measured_op: ChainOp::Div,
            measured_scale: 2,
            clock_op: ChainOp::Add,
            layout: ArmLayout::Interleaved,
            fences: 0,
            pad_nops: 3,
            noise_chains: 1,
            rounds: 2,
        };
        let lowered = t.lower(0, 48);
        assert_eq!(
            lowered.measured_tail_pc, 3,
            "tail is the mov after the pads"
        );
        assert_eq!(lowered.clock_pcs.len(), 48);
    }

    #[test]
    fn chain_op_names_roundtrip() {
        for op in ChainOp::ALL {
            assert_eq!(ChainOp::from_name(op.name()), Some(op));
        }
        for l in ArmLayout::ALL {
            assert_eq!(ArmLayout::from_name(l.name()), Some(l));
        }
        assert_eq!(ChainOp::from_name("bogus"), None);
    }
}
