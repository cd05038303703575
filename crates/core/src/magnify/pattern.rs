//! Search-based generalization of the PLRU magnifier pattern to arbitrary
//! power-of-two associativity.
//!
//! The paper illustrates its §6.1/§6.2 gadgets on a 4-way set (Figures 3–4)
//! and evaluates on real 8-way hardware, citing leaky.page's construction.
//! The structure generalizes: keep one *protected* line `A` resident while
//! an access pattern over `W` other lines misses every round — possible
//! exactly because tree-PLRU redirects the eviction candidate away from
//! whatever was touched last.
//!
//! Rather than hard-coding per-associativity patterns, [`derive_pattern`]
//! *discovers* a working cyclic pattern by greedy simulation over the
//! tree-PLRU state machine with cycle detection — the same offline search
//! an attacker would run against a modelled replacement policy.
//!
//! **Period: one round of the derived pattern.** The prelude is emitted
//! once and the cyclic pattern as one repeated region; by construction
//! the set returns to the same tree state after every traversal of the
//! pattern, so counters-only runs fast-forward through the region.

use crate::layout::Layout;
use crate::machine::Machine;
use racer_isa::{Asm, MemOperand, Program};
use racer_mem::{Addr, CacheSet, LineAddr, ReplacementKind};

/// Sentinel line id for the protected line `A` during the search.
const A: u64 = u64::MAX;

/// A derived cyclic PLRU magnifier pattern for some associativity.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct PlruPattern {
    /// Associativity the pattern was derived for.
    pub ways: usize,
    /// One-time lead-in from the prepared initial state to the cycle entry.
    pub prelude: Vec<usize>,
    /// The cyclic access pattern, as indices `0..ways` into the pattern
    /// lines (`A` itself never appears: the gadget must not touch it).
    pub pattern: Vec<usize>,
    /// Misses per traversal of `pattern` while `A` is resident.
    pub misses_per_round: usize,
}

/// Derive a magnifier pattern for a `ways`-way tree-PLRU set.
///
/// Returns `None` if the greedy search fails (it succeeds for every
/// power-of-two associativity ≥ 2 in practice; see tests for 2–16 ways).
///
/// Procedure: fill the set with pattern lines `0..ways`, insert `A`
/// (evicting the candidate), then repeatedly
///
/// 1. if the eviction candidate is `A`, touch a resident pattern line that
///    deflects the candidate away from `A` (a *protector* access — the role
///    line `C` plays in Figure 3);
/// 2. otherwise access the one non-resident pattern line, scoring a miss
///    that evicts the candidate (≠ `A`).
///
/// Each step records the full `(contents, tree)` state; when a state
/// recurs, the steps between the two occurrences form a self-sustaining
/// cycle.
pub fn derive_pattern(ways: usize) -> Option<PlruPattern> {
    assert!(
        ways.is_power_of_two() && ways >= 2,
        "tree-PLRU needs power-of-two ways ≥ 2"
    );
    let mut accesses: Vec<usize> = Vec::new();
    let mut history: Vec<(Vec<u64>, usize)> = Vec::new(); // (state, access count)
    let max_steps = 8 * ways * ways;

    for _ in 0..max_steps {
        let set = replay(ways, &accesses);
        let state = state_of(&set, ways);
        if let Some(&(_, prefix_len)) = history.iter().find(|(s, _)| *s == state) {
            // Cycle candidate: the accesses between the two occurrences,
            // entered via the prelude that led up to the first occurrence.
            let prelude: Vec<usize> = accesses[..prefix_len].to_vec();
            let cycle: Vec<usize> = accesses[prefix_len..].to_vec();
            if cycle.is_empty() {
                return None;
            }
            if let Some(misses) = verify_cycle(ways, &prelude, &cycle) {
                return Some(PlruPattern {
                    ways,
                    prelude,
                    pattern: cycle,
                    misses_per_round: misses,
                });
            }
            return None;
        }
        history.push((state, accesses.len()));

        let evc = set.eviction_candidate().expect("set is full");
        if evc == LineAddr(A) {
            // Protector step: find a resident pattern line whose touch
            // deflects the EVC off A (checked by exact replay).
            let protector = (0..ways).find(|&l| {
                if set.way_of(LineAddr(l as u64)).is_none() {
                    return false;
                }
                let mut probe_accesses = accesses.clone();
                probe_accesses.push(l);
                let probe = replay(ways, &probe_accesses);
                probe.way_of(LineAddr(A)).is_some()
                    && probe.eviction_candidate() != Some(LineAddr(A))
            })?;
            accesses.push(protector);
        } else {
            // Miss step: access the (unique) non-resident pattern line.
            let absent = (0..ways).find(|&l| set.way_of(LineAddr(l as u64)).is_none())?;
            accesses.push(absent);
        }
        // Abort if A was lost (should be unreachable given the two rules).
        let check = replay(ways, &accesses);
        check.way_of(LineAddr(A))?;
    }
    None
}

/// Rebuild the search state exactly: fill the pattern lines, insert `A`,
/// then apply `accesses` (touch if resident, fill otherwise).
fn replay(ways: usize, accesses: &[usize]) -> CacheSet {
    let mut set = CacheSet::new(ReplacementKind::TreePlru.build(ways, 0));
    for line in 0..ways as u64 {
        set.fill(LineAddr(line));
    }
    set.fill(LineAddr(A));
    for &l in accesses {
        let line = LineAddr(l as u64);
        if set.way_of(line).is_some() {
            set.touch(line);
        } else {
            set.fill(line);
        }
    }
    set
}

/// Replay the prelude and then the cycle repeatedly from the prepared
/// initial state; confirm A is never evicted and each traversal scores at
/// least one miss. Returns the per-round miss count.
fn verify_cycle(ways: usize, prelude: &[usize], cycle: &[usize]) -> Option<usize> {
    let mut set = replay(ways, prelude);
    set.way_of(LineAddr(A))?;
    // Warm-up traversals to reach the steady state, then measure.
    let mut misses_last = 0;
    for round in 0..8 {
        let mut misses = 0;
        for &l in cycle {
            let line = LineAddr(l as u64);
            if set.way_of(line).is_some() {
                set.touch(line);
            } else {
                let out = set.fill(line);
                if out.evicted == Some(LineAddr(A)) {
                    return None;
                }
                misses += 1;
            }
        }
        if round >= 4 && misses == 0 {
            return None; // pattern quiesced: no magnification
        }
        misses_last = misses;
    }
    Some(misses_last)
}

fn state_of(set: &CacheSet, ways: usize) -> Vec<u64> {
    // Contents by way plus the EVC identify the PLRU state for our purposes
    // (two states with equal contents and equal victim walks behave
    // identically under the pattern's deterministic continuation).
    let mut v: Vec<u64> = set.resident_lines().map(|l| l.0).collect();
    v.push(set.eviction_candidate().map_or(u64::MAX - 1, |l| l.0));
    debug_assert_eq!(v.len(), ways + 1);
    v
}

/// A PLRU magnifier for arbitrary power-of-two associativity, built from a
/// derived pattern. Works on, e.g., the 8-way Coffee-Lake L1 that the
/// paper's real-hardware attack targets.
#[derive(Clone, Debug)]
pub struct GeneralPlruMagnifier {
    layout: Layout,
    /// L1 set index used.
    pub set: usize,
    /// Pattern repetitions per measurement.
    pub rounds: usize,
    pattern: PlruPattern,
}

impl GeneralPlruMagnifier {
    /// Derive a pattern for `ways` and build a magnifier on L1 `set`.
    ///
    /// # Panics
    ///
    /// Panics if no pattern can be derived for `ways`.
    pub fn new(layout: Layout, ways: usize, set: usize, rounds: usize) -> Self {
        let pattern = derive_pattern(ways).expect("pattern derivable for power-of-two ways");
        GeneralPlruMagnifier {
            layout,
            set,
            rounds,
            pattern,
        }
    }

    /// The derived pattern.
    pub fn pattern(&self) -> &PlruPattern {
        &self.pattern
    }

    /// Pattern line `i` (0-based); the protected line `A` is
    /// [`GeneralPlruMagnifier::line_a`].
    pub fn line(&self, m: &Machine, i: usize) -> Addr {
        self.layout
            .plru_line(m.cpu().hierarchy().l1d(), self.set, i + 1)
    }

    /// The protected line `A`.
    pub fn line_a(&self, m: &Machine) -> Addr {
        self.layout
            .plru_line(m.cpu().hierarchy().l1d(), self.set, 0)
    }

    /// Prepare the initial state: pattern lines resident (filling the whole
    /// set in index order), `A` warm below the L1.
    pub fn prepare(&self, m: &mut Machine) {
        let a = self.line_a(m);
        m.clear_l1_set(self.set);
        m.warm(a);
        m.evict_from_l1(a);
        for i in 0..self.pattern.ways {
            let addr = self.line(m, i);
            m.warm(addr);
        }
    }

    /// Emit the magnifier program: the derived prelude once (lead-in from
    /// the prepared state to the cycle), then the cycle × rounds, as one
    /// masked dependent chase.
    pub fn program(&self, m: &Machine) -> Program {
        let prelude: Vec<Addr> = self
            .pattern
            .prelude
            .iter()
            .map(|&i| self.line(m, i))
            .collect();
        let addrs: Vec<Addr> = self
            .pattern
            .pattern
            .iter()
            .map(|&i| self.line(m, i))
            .collect();
        let mut asm = Asm::new();
        let val = asm.reg();
        let mask = asm.reg();
        for addr in &prelude {
            asm.and(mask, val, 0i64);
            asm.load(val, MemOperand::base_disp(mask, addr.0 as i64));
        }
        asm.repeat(self.rounds, |asm| {
            for addr in &addrs {
                asm.and(mask, val, 0i64);
                asm.load(val, MemOperand::base_disp(mask, addr.0 as i64));
            }
        });
        asm.halt();
        asm.assemble().expect("general PLRU magnifier assembles")
    }

    /// Run the magnifier, returning cycles.
    pub fn measure(&self, m: &mut Machine) -> u64 {
        let prog = self.program(m);
        m.run_cycles(&prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_cpu::CpuConfig;
    use racer_mem::HierarchyConfig;

    #[test]
    fn derives_patterns_for_all_power_of_two_ways() {
        for ways in [4usize, 8, 16] {
            let p = derive_pattern(ways).unwrap_or_else(|| panic!("no pattern for {ways} ways"));
            assert!(
                p.misses_per_round >= 1,
                "{ways}-way pattern must keep missing"
            );
            assert!(
                p.pattern.iter().all(|&i| i < ways),
                "{ways}-way pattern uses only pattern lines"
            );
        }
    }

    #[test]
    fn four_way_pattern_matches_the_papers_shape() {
        let p = derive_pattern(4).expect("derivable");
        // The paper's pattern (B,C,E,C,D,C) has period 6 with 3 misses;
        // the derived one must have the same miss density (1 every other
        // access) even if the line labels permute.
        assert_eq!(
            p.misses_per_round * 2,
            p.pattern.len(),
            "misses every other access"
        );
    }

    /// The derived 8-way pattern works end-to-end on the Coffee-Lake-shaped
    /// 8-way L1 — the configuration the paper's real attack ran against.
    #[test]
    fn eight_way_magnifier_works_on_coffee_lake_l1() {
        let mut m = Machine::with(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::coffee_lake(), // 64-set, 8-way tree-PLRU L1
        );
        let mag = GeneralPlruMagnifier::new(m.layout(), 8, 5, 300);

        mag.prepare(&mut m);
        let absent = mag.measure(&mut m);
        mag.prepare(&mut m);
        let a = mag.line_a(&m);
        m.warm(a);
        let present = mag.measure(&mut m);

        let per_round = (present.saturating_sub(absent)) as f64 / 300.0;
        assert!(
            per_round >= 6.0,
            "8-way magnifier must amplify ≥1 miss/round: {per_round:.1} cycles/round"
        );
    }

    #[test]
    fn protected_line_survives_the_whole_run() {
        let mut m = Machine::with(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::coffee_lake(),
        );
        let mag = GeneralPlruMagnifier::new(m.layout(), 8, 5, 200);
        mag.prepare(&mut m);
        let a = mag.line_a(&m);
        m.warm(a);
        mag.measure(&mut m);
        assert_eq!(
            m.cpu().hierarchy().probe(a),
            racer_mem::HitLevel::L1,
            "A must never be evicted by the derived pattern"
        );
    }

    #[test]
    fn absent_case_quiesces() {
        let mut m = Machine::with(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::coffee_lake(),
        );
        let mag = GeneralPlruMagnifier::new(m.layout(), 8, 5, 50);
        mag.prepare(&mut m);
        // Two consecutive absent measurements: the second must be pure hits
        // (same cycle count as the first, which warmed everything).
        let first = mag.measure(&mut m);
        let second = mag.measure(&mut m);
        assert!(
            second <= first,
            "absent pattern must quiesce: {first} then {second}"
        );
    }
}
