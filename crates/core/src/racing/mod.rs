//! Racing gadgets (paper §5): differentially time a measurement path
//! against a baseline path with known constant execution time, leaving the
//! outcome as a micro-architectural state change.
//!
//! Two flavours:
//!
//! * [`TransientPaRace`] (§5.1) — the baseline path is a *mispredicted
//!   branch condition*; the measurement path executes transiently in the
//!   branch shadow and its final probe access either does or does not issue
//!   before the squash (presence/absence output).
//! * [`ReorderRace`] (§5.2) — no speculation at all: two independent paths
//!   end in loads to two lines of one cache set, and the *insertion order*
//!   of those lines is the output. Immune to Spectre-class defences.

mod reorder;
mod transient_pa;

pub use reorder::ReorderRace;
pub use transient_pa::TransientPaRace;

use crate::machine::Machine;
use crate::path::PathSpec;

/// Outcome of one race, as read back by the (omniscient) harness. Real
/// attacks never see this directly — they feed the state difference into a
/// magnifier gadget (§6) and observe a coarse timer.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct RaceOutcome {
    /// Whether the measurement path won (its terminal access happened /
    /// happened first).
    pub measurement_won: bool,
    /// Cycle the measurement path's terminal load issued, if it did.
    pub measurement_issue: Option<u64>,
    /// Cycle the baseline path's terminal event occurred, if recorded.
    pub baseline_issue: Option<u64>,
    /// Total cycles of the race program.
    pub cycles: u64,
}

/// Warm every address a path's load chains touch (attacker touching their
/// own arrays pre-attack, so in-path loads have predictable latency).
pub fn warm_path(m: &mut Machine, spec: &PathSpec) {
    match spec {
        PathSpec::LoadChain { addrs } => {
            for &a in addrs {
                m.warm(racer_mem::Addr(a));
            }
        }
        PathSpec::IndirectLoad { ptr } => {
            // Warm the pointer cell only; the pointee is the measured
            // subject and must not be disturbed.
            m.warm(racer_mem::Addr(*ptr));
        }
        PathSpec::Seq(parts) => {
            for p in parts {
                warm_path(m, p);
            }
        }
        PathSpec::OpChain { .. } | PathSpec::LeaChain { .. } => {}
    }
}
