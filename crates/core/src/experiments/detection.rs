//! §8's run-time detection discussion, made measurable: performance-counter
//! classifiers against gadget and benign workloads.
//!
//! The paper expects racing gadgets "to look so similar to normal
//! out-of-order execution that they will be difficult to catch without very
//! high false positive rates", while magnifiers' repetitive patterns are
//! more exposed: the L1-miss counter sees the PLRU gadget ("though only as
//! a very weak classifier"), and the arithmetic gadget's signature is a
//! long backend-bound chain with almost no mispredictions.

use crate::layout::Layout;
use crate::machine::Machine;
use crate::magnify::{ArithmeticMagnifier, PlruInput, PlruMagnifier};
use crate::path::PathSpec;
use crate::racing::TransientPaRace;
use racer_cpu::RunResult;
use racer_isa::{Asm, Cond, MemOperand};

/// Counter-derived features of one program run (what a hardware detector
/// could see).
#[derive(Clone, Debug)]
pub struct CounterProfile {
    /// Workload label.
    pub name: String,
    /// L1 misses per kilo-instruction.
    pub l1_mpki: f64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Mispredicts per kilo-instruction.
    pub mispredict_pki: f64,
}

impl CounterProfile {
    /// Derive the counter features a hardware detector could observe from
    /// one finished run. Crate-visible so the gadget-search fitness
    /// function scores candidates against the same classifiers this
    /// module evaluates.
    pub(crate) fn from_run(name: &str, r: &RunResult) -> Self {
        let ki = (r.committed as f64 / 1000.0).max(1e-9);
        CounterProfile {
            name: name.to_string(),
            l1_mpki: r.mem_stats.l1d.misses as f64 / ki,
            ipc: r.ipc(),
            mispredict_pki: r.mispredicts as f64 / ki,
        }
    }
}

/// The "frequent L1 misses" detector the paper suggests: flags runs whose
/// miss density exceeds `threshold_mpki`.
pub fn l1_miss_detector(profile: &CounterProfile, threshold_mpki: f64) -> bool {
    profile.l1_mpki > threshold_mpki
}

/// The backend-bound detector for the arithmetic gadget (paper: "executes
/// long backend-bounded instruction chains without misprediction"): flags
/// low-IPC, low-mispredict, low-miss runs.
pub fn backend_bound_detector(profile: &CounterProfile) -> bool {
    profile.ipc < 1.2 && profile.mispredict_pki < 1.0 && profile.l1_mpki < 5.0
}

/// Profile the workload suite: the three gadget families plus two benign
/// programs (a pointer-chasing list traversal and a compute loop).
///
/// The five profiles are independent — each prepares its own
/// [`Machine::baseline`] — so they fan out across host cores, in
/// declaration order.
pub fn profile_suite() -> Vec<CounterProfile> {
    let profiles: [fn() -> CounterProfile; 5] = [
        profile_plru_magnifier,
        profile_arithmetic_magnifier,
        profile_racing_gadget,
        profile_benign_list_traversal,
        profile_benign_compute_loop,
    ];
    racer_cpu::batch::par_map(&profiles, |f| f())
}

/// PLRU magnifier in its miss-heavy (transmit-1) state.
fn profile_plru_magnifier() -> CounterProfile {
    let mut m = Machine::baseline();
    let mag = PlruMagnifier::with(m.layout(), 5, 500);
    mag.prepare(&mut m);
    let a = mag.line_a(&m);
    m.warm(a);
    let prog = mag.program(&m, PlruInput::PresenceAbsence);
    let r = m.run(&prog);
    CounterProfile::from_run("plru-magnifier", &r)
}

/// Arithmetic magnifier (misaligned state).
fn profile_arithmetic_magnifier() -> CounterProfile {
    let mut m = Machine::baseline();
    let mut mag = ArithmeticMagnifier::new(Layout::default());
    mag.stages = 60;
    m.flush(m.layout().sync);
    let prog = mag.program(20);
    let r = m.run(&prog);
    CounterProfile::from_run("arithmetic-magnifier", &r)
}

/// A single racing gadget (detection phase).
fn profile_racing_gadget() -> CounterProfile {
    let mut m = Machine::baseline();
    let race = TransientPaRace::new(m.layout());
    let prog = race.program(
        &PathSpec::op_chain(racer_isa::AluOp::Add, 30),
        &PathSpec::op_chain(racer_isa::AluOp::Mul, 5),
    );
    race.train(&mut m, &prog);
    let layout = m.layout();
    m.cpu_mut().mem_mut().write(layout.x_flag.0, 1);
    m.flush(layout.sync);
    let r = m.run(&prog);
    CounterProfile::from_run("racing-gadget", &r)
}

/// Benign: linked-list traversal (high L1 miss rate, no attack).
fn profile_benign_list_traversal() -> CounterProfile {
    let mut m = Machine::baseline();
    for i in 0..256u64 {
        let here = 0x0900_0000 + i * 4096;
        let next = 0x0900_0000 + (i + 1) * 4096;
        m.cpu_mut().mem_mut().write(here, next);
    }
    let mut asm = Asm::new();
    let p = asm.reg();
    asm.mov_imm(p, 0x0900_0000);
    for _ in 0..256 {
        asm.load(p, MemOperand::base_disp(p, 0));
    }
    asm.halt();
    let r = m.run(&asm.assemble().expect("benign chase assembles"));
    CounterProfile::from_run("benign-list-traversal", &r)
}

/// Benign: a compute loop (mul/add mix with a loop branch).
fn profile_benign_compute_loop() -> CounterProfile {
    let mut m = Machine::baseline();
    let mut asm = Asm::new();
    let (i, acc, t) = (asm.reg(), asm.reg(), asm.reg());
    asm.mov_imm(i, 400);
    let top = asm.here();
    asm.mul(t, i, 3i64);
    asm.add(acc, acc, t);
    asm.subi(i, i, 1);
    asm.br(Cond::Ne, i, 0i64, top);
    asm.halt();
    let r = m.run(&asm.assemble().expect("benign compute assembles"));
    CounterProfile::from_run("benign-compute-loop", &r)
}

/// Render the profiles and both detectors' verdicts.
pub fn render(profiles: &[CounterProfile]) -> String {
    use std::fmt::Write as _;
    let mut s =
        String::from("workload\tl1_mpki\tipc\tmispredict_pki\tmiss-detector\tbackend-detector\n");
    for p in profiles {
        let _ = writeln!(
            s,
            "{}\t{:.1}\t{:.2}\t{:.2}\t{}\t{}",
            p.name,
            p.l1_mpki,
            p.ipc,
            p.mispredict_pki,
            if l1_miss_detector(p, 50.0) {
                "FLAG"
            } else {
                "-"
            },
            if backend_bound_detector(p) {
                "FLAG"
            } else {
                "-"
            },
        );
    }
    s
}

impl CounterProfile {
    /// JSON form: raw counters plus both detectors' verdicts (the miss
    /// detector at the render threshold of 50 MPKI).
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("name", self.name.as_str())
            .with("l1_mpki", self.l1_mpki)
            .with("ipc", self.ipc)
            .with("mispredict_pki", self.mispredict_pki)
            .with("l1_miss_flagged", l1_miss_detector(self, 50.0))
            .with("backend_bound_flagged", backend_bound_detector(self))
    }
}

/// JSON form of the whole profile suite.
pub fn to_value(profiles: &[CounterProfile]) -> racer_results::Value {
    racer_results::Value::Array(profiles.iter().map(|p| p.to_value()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(ps: &'a [CounterProfile], name: &str) -> &'a CounterProfile {
        ps.iter().find(|p| p.name == name).unwrap()
    }

    #[test]
    fn miss_detector_sees_plru_magnifier_but_also_benign_traffic() {
        let ps = profile_suite();
        let plru = find(&ps, "plru-magnifier");
        let benign = find(&ps, "benign-list-traversal");
        assert!(
            l1_miss_detector(plru, 50.0),
            "the L1-miss counter must flag the PLRU magnifier: {plru:?}"
        );
        // The paper's point: it is a weak classifier — ordinary pointer
        // chasing looks just as suspicious.
        assert!(
            l1_miss_detector(benign, 50.0),
            "benign list traversal must trip the same detector: {benign:?}"
        );
    }

    #[test]
    fn arithmetic_magnifier_evades_the_cache_detector() {
        let ps = profile_suite();
        let arith = find(&ps, "arithmetic-magnifier");
        assert!(
            !l1_miss_detector(arith, 50.0),
            "no cache signature for the arithmetic gadget: {arith:?}"
        );
        assert!(
            backend_bound_detector(arith),
            "the backend-bound signature must show instead: {arith:?}"
        );
    }

    #[test]
    fn compute_loop_is_clean_for_both_detectors() {
        let ps = profile_suite();
        let loopw = find(&ps, "benign-compute-loop");
        assert!(!l1_miss_detector(loopw, 50.0));
        assert!(!backend_bound_detector(loopw), "{loopw:?}");
    }

    #[test]
    fn racing_gadget_alone_is_unremarkable() {
        // Paper: "we expect racing gadgets to look so similar to normal
        // out-of-order execution that they will be difficult to catch".
        let ps = profile_suite();
        let race = find(&ps, "racing-gadget");
        assert!(!l1_miss_detector(race, 50.0), "{race:?}");
    }
}
