//! Leaking a square-and-multiply exponent through an ILP race — §4.2's
//! "embed the expression whose timing we would like to observe" applied to
//! the textbook RSA timing side channel.
//!
//! Victim model: one step of left-to-right binary exponentiation. Every
//! step squares; steps whose exponent bit is 1 also multiply:
//!
//! ```text
//! t = square(x)            // 1 MUL (3 cycles)
//! if bit == 1 { t *= x }   // +1 MUL
//! ```
//!
//! The 3-cycle difference is far below any coarse timer — and comfortably
//! inside the racing gadget's 1–3-cycle granularity (§7.2). The victim step
//! is embedded as the measurement path of a **reorder race** (§5.2) against
//! a reference ADD chain; the insertion order of two cache lines then
//! carries the exponent bit into a PLRU reorder magnifier (§6.2) and out
//! through the attacker's 5 µs clock.

use crate::layout::Layout;
use crate::machine::Machine;
use crate::magnify::{PlruInput, PlruMagnifier};
use crate::path::{emit_sync_head, PathSpec};
use racer_isa::{AluOp, Asm, Cond, MemOperand, Program};
use racer_mem::Addr;
use racer_time::Timer;

/// Result of leaking an exponent.
#[derive(Clone, Debug)]
pub struct ExponentLeak {
    /// Recovered bits, most significant first.
    pub bits: Vec<bool>,
    /// Simulated nanoseconds spent.
    pub elapsed_ns: f64,
}

/// Driver for the exponent-bit leak.
#[derive(Clone, Debug)]
pub struct RsaBitLeak {
    layout: Layout,
    /// Reference ADD-chain length: between the bit-0 step (~1 MUL) and the
    /// bit-1 step (~2 MULs) of the victim.
    pub ref_adds: usize,
    /// Magnifier rounds per bit readout.
    pub magnifier_rounds: usize,
    /// Predictor warm-up runs per bit (settles the victim's own branch).
    pub warmups: usize,
}

impl RsaBitLeak {
    /// A leak driver over `layout`.
    pub fn new(layout: Layout) -> Self {
        RsaBitLeak {
            layout,
            ref_adds: 5,
            magnifier_rounds: 1200,
            warmups: 2,
        }
    }

    /// Address of exponent bit `i` in victim memory (one word per bit).
    pub fn bit_addr(&self, i: usize) -> Addr {
        Addr(self.layout.secret_base.0 + 0x2000 + i as u64 * 8)
    }

    /// Plant the victim's exponent bits.
    pub fn plant_exponent(&self, m: &mut Machine, bits: &[bool]) {
        for (i, &b) in bits.iter().enumerate() {
            m.cpu_mut()
                .mem_mut()
                .write(self.bit_addr(i).0, u64::from(b));
        }
    }

    /// Build the race program for exponent bit `i`:
    ///
    /// ```text
    /// seed = load [sync] & 0          ; §4.1 head
    /// ; measurement path = the victim's exponentiation step
    /// rb   = load [bit_i]             ; the victim reading its key bit
    /// t    = seed * 1                 ; square
    /// br rb == 0 → skip
    /// t    = t * 1                    ; conditional multiply
    /// skip:
    /// load [t + A]                    ; path_m terminal
    /// ; baseline path
    /// rref = ref ADD chain(seed)
    /// load [rref + B]                 ; path_b terminal
    /// ```
    pub fn program(&self, m: &Machine, i: usize) -> Program {
        let mag = self.magnifier();
        let (a, b) = (mag.line_a(m), mag.line_b(m));
        let mut asm = Asm::new();
        let seed = emit_sync_head(&mut asm, self.layout.sync);

        let rb = asm.reg();
        asm.load(rb, MemOperand::abs(self.bit_addr(i).0));
        let t = asm.reg();
        asm.mul(t, seed, 1i64); // square
        let skip = asm.fwd_label();
        asm.br(Cond::Eq, rb, 0i64, skip);
        asm.mul(t, t, 1i64); // multiply (bit = 1 only)
        asm.bind(skip);
        let va = asm.reg();
        asm.load(va, MemOperand::base_disp(t, a.0 as i64));

        let rref = PathSpec::op_chain(AluOp::Add, self.ref_adds).emit(&mut asm, seed);
        let vb = asm.reg();
        asm.load(vb, MemOperand::base_disp(rref, b.0 as i64));
        asm.halt();
        asm.assemble().expect("RSA bit-leak race assembles")
    }

    /// The reorder magnifier used for readout.
    pub fn magnifier(&self) -> PlruMagnifier {
        PlruMagnifier::with(self.layout, 5, self.magnifier_rounds)
    }

    /// Leak one exponent bit through `timer` against a calibrated
    /// `threshold_ns`. Large readings (A inserted first, misses forever)
    /// mean the victim step was *fast* — bit 0.
    pub fn leak_bit(
        &self,
        m: &mut Machine,
        i: usize,
        timer: &mut dyn Timer,
        threshold_ns: f64,
    ) -> bool {
        let prog = self.program(m, i);
        let mag = self.magnifier();
        m.warm(self.bit_addr(i));
        for _ in 0..self.warmups {
            m.flush(self.layout.sync);
            m.run(&prog);
        }
        mag.prepare(m);
        m.flush(self.layout.sync);
        m.run(&prog);
        let observed = m.run_timed(&mag.program(m, PlruInput::Reorder), timer);
        observed < threshold_ns // fast magnifier ⇒ B first ⇒ slow step ⇒ bit 1
    }

    /// Calibrate the threshold with attacker-known bits (the attacker runs
    /// the identical code shape against its own array).
    pub fn calibrate(&self, m: &mut Machine, timer: &mut dyn Timer) -> f64 {
        // Use two scratch victim slots the test/demo controls; a real
        // attacker uses its own function with known inputs — identical
        // timing classes by construction.
        let scratch = 62; // bit index reserved for calibration
        let mut readings = [0.0f64; 2];
        for known in [false, true] {
            m.cpu_mut()
                .mem_mut()
                .write(self.bit_addr(scratch).0, u64::from(known));
            let prog = self.program(m, scratch);
            let mag = self.magnifier();
            m.warm(self.bit_addr(scratch));
            for _ in 0..self.warmups {
                m.flush(self.layout.sync);
                m.run(&prog);
            }
            mag.prepare(m);
            m.flush(self.layout.sync);
            m.run(&prog);
            readings[usize::from(known)] = m.run_timed(&mag.program(m, PlruInput::Reorder), timer);
        }
        (readings[0] + readings[1]) / 2.0
    }

    /// Leak `n` exponent bits.
    pub fn leak_exponent(&self, m: &mut Machine, n: usize, timer: &mut dyn Timer) -> ExponentLeak {
        let start = m.elapsed_ns();
        let threshold = self.calibrate(m, timer);
        let bits = (0..n)
            .map(|i| self.leak_bit(m, i, timer, threshold))
            .collect();
        ExponentLeak {
            bits,
            elapsed_ns: m.elapsed_ns() - start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_time::{CoarseTimer, PerfectTimer};

    const EXPONENT: [bool; 12] = [
        true, false, true, true, false, false, true, false, true, true, true, false,
    ];

    #[test]
    fn leaks_the_exponent_with_a_perfect_timer() {
        let mut m = Machine::baseline();
        let atk = RsaBitLeak::new(m.layout());
        atk.plant_exponent(&mut m, &EXPONENT);
        let leak = atk.leak_exponent(&mut m, EXPONENT.len(), &mut PerfectTimer);
        assert_eq!(leak.bits, EXPONENT, "every exponent bit must be recovered");
    }

    #[test]
    fn leaks_the_exponent_with_a_5us_browser_timer() {
        let mut m = Machine::noisy(0x5A);
        let atk = RsaBitLeak::new(m.layout());
        atk.plant_exponent(&mut m, &EXPONENT);
        let mut timer = CoarseTimer::browser_5us();
        let leak = atk.leak_exponent(&mut m, EXPONENT.len(), &mut timer);
        let correct = leak
            .bits
            .iter()
            .zip(&EXPONENT)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            correct as f64 / EXPONENT.len() as f64 > 0.9,
            "coarse-timer recovery must be >90% accurate: {correct}/{}",
            EXPONENT.len()
        );
    }

    #[test]
    fn single_mul_difference_decides_the_race() {
        // The gadget resolves a 3-cycle (one MUL) difference — the paper's
        // §7.2 granularity claim applied to a real victim.
        let mut m = Machine::baseline();
        let atk = RsaBitLeak::new(m.layout());
        atk.plant_exponent(&mut m, &[false, true]);
        let threshold = atk.calibrate(&mut m, &mut PerfectTimer);
        assert!(!atk.leak_bit(&mut m, 0, &mut PerfectTimer, threshold));
        assert!(atk.leak_bit(&mut m, 1, &mut PerfectTimer, threshold));
    }
}
