//! The attacker's memory layout: disjoint address regions for each gadget
//! ingredient.
//!
//! Everything the gadgets touch lives at a fixed, documented address so that
//! experiments are reproducible and regions provably do not collide (see
//! [`Layout::assert_disjoint`], exercised by tests).

use racer_mem::{Addr, Cache, LINE_BYTES};

/// Fixed address regions used by gadget code.
///
/// All regions are ≥ 1 MiB apart, so no two regions ever share a cache line;
/// set collisions between regions are possible (sets are small) and handled
/// per-gadget by choosing set indices.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct Layout {
    /// The synchronization head (§4.1): flushed before each race so both
    /// paths start together when its DRAM fill returns.
    pub sync: Addr,
    /// The `x` input of the transient P/A gadget (§5.1): 0 during training,
    /// 1 during detection.
    pub x_flag: Addr,
    /// Transient-probe address (`access[A]` of §5.1).
    pub probe: Addr,
    /// Base of the PLRU-magnifier working region (lines A,B,C,D,E of
    /// Figures 3–4 are carved from here).
    pub plru_base: Addr,
    /// Base of the SEQ/PAR eviction-set region for the §6.3 magnifier.
    pub seqpar_base: Addr,
    /// Base of the pointer-chase region used by SpectreBack (§7.3).
    pub chase_base: Addr,
    /// The in-bounds attacker array for Spectre-style gadgets.
    pub array_base: Addr,
    /// The victim's secret (out of bounds of `array_base`).
    pub secret_base: Addr,
    /// Base of the candidate pool for eviction-set profiling (§7.4).
    pub ev_pool_base: Addr,
}

impl Default for Layout {
    fn default() -> Self {
        Layout {
            sync: Addr(0x0100_0000),
            x_flag: Addr(0x0110_0000),
            probe: Addr(0x0120_0000),
            plru_base: Addr(0x0200_0000),
            seqpar_base: Addr(0x0300_0000),
            chase_base: Addr(0x0400_0000),
            array_base: Addr(0x0500_0000),
            secret_base: Addr(0x0510_0000),
            ev_pool_base: Addr(0x0600_0000),
        }
    }
}

impl Layout {
    /// The standard layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// All regions as (name, address) pairs.
    pub fn regions(&self) -> Vec<(&'static str, Addr)> {
        vec![
            ("sync", self.sync),
            ("x_flag", self.x_flag),
            ("probe", self.probe),
            ("plru_base", self.plru_base),
            ("seqpar_base", self.seqpar_base),
            ("chase_base", self.chase_base),
            ("array_base", self.array_base),
            ("secret_base", self.secret_base),
            ("ev_pool_base", self.ev_pool_base),
        ]
    }

    /// Verify no two regions are within `span` bytes of each other.
    ///
    /// # Panics
    ///
    /// Panics if two regions are closer than `span`.
    pub fn assert_disjoint(&self, span: u64) {
        let regions = self.regions();
        for (i, (na, a)) in regions.iter().enumerate() {
            for (nb, b) in regions.iter().skip(i + 1) {
                assert!(
                    a.0.abs_diff(b.0) >= span,
                    "regions {na} and {nb} overlap within {span} bytes"
                );
            }
        }
    }

    /// The `i`-th line of the PLRU working region that maps to L1 `set` of
    /// `l1`: consecutive `i` values give distinct, congruent lines.
    ///
    /// Line 0 is conventionally "A" (the racer-inserted line), lines 1..=4
    /// are B, C, D, E of Figures 3–4.
    pub fn plru_line(&self, l1: &Cache, set: usize, i: usize) -> Addr {
        congruent(self.plru_base, l1, set, i)
    }

    /// The `k`-th member of `SEQ_i` for the §6.3 magnifier: a line in L1
    /// `set` of `l1`, disjoint from all `PAR` members.
    pub fn seq_line(&self, l1: &Cache, set: usize, k: usize) -> Addr {
        congruent(self.seqpar_base, l1, set, k)
    }

    /// The `k`-th member of `PAR_i` (offset past the SEQ block so the two
    /// never overlap; paper §6.3 "without overlap between them").
    pub fn par_line(&self, l1: &Cache, set: usize, k: usize) -> Addr {
        congruent(self.seqpar_base, l1, set, 32 + k)
    }
}

/// The `i`-th distinct line congruent to `set` in `cache`, at or above `base`.
fn congruent(base: Addr, cache: &Cache, set: usize, i: usize) -> Addr {
    assert!(set < cache.num_sets(), "set index out of range");
    let stride_lines = cache.num_sets() as u64;
    let base_line = base.line().0 - (base.line().0 % stride_lines) + set as u64;
    racer_mem::LineAddr(base_line + i as u64 * stride_lines).base_addr()
}

/// Distinct line-aligned probe addresses derived from `base`, `LINE_BYTES`
/// apart — handy for gadgets needing several independent probes.
pub fn probe_addr(base: Addr, i: usize) -> Addr {
    Addr(base.0 + i as u64 * LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_mem::CacheConfig;

    #[test]
    fn default_layout_is_disjoint_by_a_mebibyte() {
        Layout::default().assert_disjoint(1 << 20);
    }

    #[test]
    fn plru_lines_are_congruent_and_distinct() {
        let l1 = Cache::new(CacheConfig {
            sets: 16,
            ways: 4,
            ..CacheConfig::l1d_coffee_lake()
        });
        let layout = Layout::default();
        let lines: Vec<Addr> = (0..5).map(|i| layout.plru_line(&l1, 7, i)).collect();
        for a in &lines {
            assert_eq!(l1.set_index(a.line()), 7);
        }
        let mut dedup = lines.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "lines must be distinct");
    }

    #[test]
    fn seq_and_par_never_overlap() {
        let l1 = Cache::new(CacheConfig {
            sets: 64,
            ways: 8,
            ..CacheConfig::l1d_coffee_lake()
        });
        let layout = Layout::default();
        for set in [0usize, 13, 63] {
            let seq: Vec<Addr> = (0..6).map(|k| layout.seq_line(&l1, set, k)).collect();
            let par: Vec<Addr> = (0..5).map(|k| layout.par_line(&l1, set, k)).collect();
            for s in &seq {
                assert_eq!(l1.set_index(s.line()), set);
                assert!(!par.contains(s), "SEQ and PAR must be disjoint");
            }
            for p in &par {
                assert_eq!(l1.set_index(p.line()), set);
            }
        }
    }

    #[test]
    fn probe_addrs_are_distinct_lines() {
        let a = probe_addr(Addr(0x1000), 0);
        let b = probe_addr(Addr(0x1000), 1);
        assert_ne!(a.line(), b.line());
    }
}
