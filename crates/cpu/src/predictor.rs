//! Branch predictors.
//!
//! The transient presence/absence racing gadget (paper §5.1) relies on a
//! *trainable* predictor: the attacker first executes the gadget with inputs
//! that make the branch resolve one way, then flips the input so the
//! (now-mistrained) predictor speculatively executes the wrong path. The
//! [`Predictor::TwoBit`] predictor reproduces that behaviour; the static
//! predictors exist for controlled experiments.

use crate::config::PredictorKind;

/// A direction predictor for conditional branches.
///
/// Predictor state persists across [`Cpu::run`](crate::Cpu::run) calls —
/// training in one run carries into the next, exactly like real hardware
/// observed by a JavaScript attacker re-invoking a function. Cloning
/// copies the trained state, which is how a
/// [`Snapshot::fork`](crate::Snapshot::fork) gets its own predictor.
///
/// ```
/// use racer_cpu::predictor::Predictor;
/// use racer_cpu::PredictorKind;
/// let mut p = Predictor::new(PredictorKind::TwoBit { entries: 64 });
/// p.train(5, true);
/// p.train(5, true);
/// assert!(p.predict(5));
/// p.train(5, false);
/// assert!(p.predict(5), "one contrary outcome does not flip a saturated counter");
/// p.train(5, false);
/// assert!(!p.predict(5));
/// ```
#[derive(Clone, Debug)]
pub enum Predictor {
    /// Classic 2-bit saturating-counter bimodal predictor indexed by PC.
    /// Counters: 0,1 → predict not-taken; 2,3 → predict taken.
    /// Initialised to 1 (weakly not-taken).
    TwoBit {
        /// One 2-bit counter per entry.
        table: Vec<u8>,
        /// `table.len() - 1`: a pc's entry is `pc & mask`.
        mask: usize,
    },
    /// Statically predicts one direction, ignoring history.
    Static {
        /// The predicted direction.
        taken: bool,
    },
}

impl Predictor {
    /// Build the predictor selected by `kind`.
    ///
    /// # Panics
    ///
    /// Panics if a two-bit table size is zero or not a power of two.
    pub fn new(kind: PredictorKind) -> Self {
        match kind {
            PredictorKind::TwoBit { entries } => {
                assert!(
                    entries.is_power_of_two(),
                    "predictor table size must be a power of two"
                );
                Predictor::TwoBit {
                    table: vec![1; entries],
                    mask: entries - 1,
                }
            }
            PredictorKind::AlwaysTaken => Predictor::Static { taken: true },
            PredictorKind::AlwaysNotTaken => Predictor::Static { taken: false },
        }
    }

    /// Predict the direction of the branch at `pc`.
    pub fn predict(&self, pc: usize) -> bool {
        match self {
            Predictor::TwoBit { table, mask } => table[pc & mask] >= 2,
            Predictor::Static { taken } => *taken,
        }
    }

    /// Record the resolved direction of the branch at `pc`.
    pub fn train(&mut self, pc: usize, taken: bool) {
        if let Predictor::TwoBit { table, mask } = self {
            let c = &mut table[pc & *mask];
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        if let Predictor::TwoBit { table, .. } = self {
            table.fill(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bit(entries: usize) -> Predictor {
        Predictor::new(PredictorKind::TwoBit { entries })
    }

    #[test]
    fn two_bit_saturates_both_ways() {
        let mut p = two_bit(16);
        for _ in 0..10 {
            p.train(3, true);
        }
        assert!(p.predict(3));
        p.train(3, false);
        assert!(p.predict(3), "3→2 still predicts taken");
        p.train(3, false);
        assert!(!p.predict(3), "2→1 flips to not-taken");
        for _ in 0..10 {
            p.train(3, false);
        }
        p.train(3, true);
        assert!(!p.predict(3), "0→1 still predicts not-taken");
    }

    #[test]
    fn pcs_alias_by_mask() {
        let mut p = two_bit(8);
        p.train(1, true);
        p.train(1, true);
        assert!(p.predict(9), "pc 9 aliases pc 1 in an 8-entry table");
        assert!(!p.predict(2));
    }

    #[test]
    fn initial_prediction_is_not_taken() {
        let p = two_bit(8);
        for pc in 0..8 {
            assert!(!p.predict(pc));
        }
    }

    #[test]
    fn reset_forgets_training() {
        let mut p = two_bit(8);
        p.train(0, true);
        p.train(0, true);
        p.reset();
        assert!(!p.predict(0));
    }

    #[test]
    fn static_predictors() {
        let t = Predictor::new(PredictorKind::AlwaysTaken);
        let nt = Predictor::new(PredictorKind::AlwaysNotTaken);
        assert!(t.predict(123));
        assert!(!nt.predict(123));
    }

    #[test]
    fn factory_builds_two_bit() {
        let mut p = Predictor::new(PredictorKind::TwoBit { entries: 32 });
        p.train(4, true);
        p.train(4, true);
        assert!(p.predict(4));
    }
}
