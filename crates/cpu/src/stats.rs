//! Run results and per-load event records.

use racer_mem::{HierarchyStats, HitLevel};

/// One dynamic load observed during a run (recorded at
/// [`RecordLevel::Loads`](crate::RecordLevel::Loads) and above).
///
/// Squashed loads — issued on a mispredicted path and later discarded — are
/// the paper's transient cache transmitters: they appear here with
/// `committed == false` but may still have changed cache state.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct LoadEvent {
    /// Static instruction index.
    pub pc: usize,
    /// Dynamic sequence number.
    pub seq: u64,
    /// Effective byte address.
    pub addr: u64,
    /// Cycle the load issued to the memory system.
    pub issue_cycle: u64,
    /// Cycle its value became available.
    pub complete_cycle: u64,
    /// Hierarchy level that serviced it.
    pub level: HitLevel,
    /// Whether the load was issued while an older branch was unresolved.
    pub speculative: bool,
    /// Whether the load ultimately committed (false = squashed).
    pub committed: bool,
}

/// Outcome of executing one program on the out-of-order core.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Total cycles from first fetch to final commit/drain.
    pub cycles: u64,
    /// Committed (architecturally executed) instructions.
    pub committed: u64,
    /// Whether a `halt` committed (vs. falling off the program end).
    pub halted: bool,
    /// Whether the run aborted at the configured cycle limit.
    pub limit_hit: bool,
    /// Mispredicted branches (each causes a squash).
    pub mispredicts: u64,
    /// Instructions discarded by squashes.
    pub squashed_instrs: u64,
    /// Pipeline drains triggered by the timer-interrupt model.
    pub interrupts: u64,
    /// Rounds of the program's repeated region (see
    /// [`racer_isa::Region`]) the event-driven core advanced by steady-state
    /// extrapolation instead of simulating them. Observability only: every
    /// other field is identical to a run that simulated every round, and
    /// the reference scheduler never fast-forwards (it always reports 0).
    pub fast_forwarded: u64,
    /// Final architectural register file.
    pub regs: Vec<u64>,
    /// Cache/memory counters accumulated during this run only.
    pub mem_stats: HierarchyStats,
    /// Per-load events (empty below
    /// [`RecordLevel::Loads`](crate::RecordLevel::Loads)).
    pub loads: Vec<LoadEvent>,
    /// Per-instruction pipeline trace (empty below
    /// [`RecordLevel::Trace`](crate::RecordLevel::Trace)).
    pub trace: Vec<crate::trace::TraceRecord>,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Loads that issued but never committed (transient accesses).
    pub fn transient_loads(&self) -> impl Iterator<Item = &LoadEvent> {
        self.loads.iter().filter(|l| !l.committed)
    }

    /// Convenience: whether any transient load touched `addr`.
    pub fn transient_touched(&self, addr: u64) -> bool {
        self.transient_loads().any(|l| l.addr == addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(RunResult::default().ipc(), 0.0);
    }

    #[test]
    fn transient_load_filtering() {
        let mk = |addr, committed| LoadEvent {
            pc: 0,
            seq: 0,
            addr,
            issue_cycle: 0,
            complete_cycle: 0,
            level: HitLevel::L1,
            speculative: true,
            committed,
        };
        let r = RunResult {
            loads: vec![mk(1, true), mk(2, false)],
            ..Default::default()
        };
        assert_eq!(r.transient_loads().count(), 1);
        assert!(r.transient_touched(2));
        assert!(!r.transient_touched(1));
    }
}
