//! Architectural registers.

use std::fmt;

/// Number of architectural registers.
///
/// Deliberately generous: generated gadget code is register-hungry (every
/// chain link gets a fresh name to avoid false dependencies), and renaming in
/// the out-of-order core removes any cost to a large architectural file.
pub const NUM_REGS: usize = 256;

/// An architectural register identifier (`r0` … `r255`).
///
/// ```
/// use racer_isa::Reg;
/// let r = Reg::new(7);
/// assert_eq!(r.index(), 7);
/// assert_eq!(r.to_string(), "r7");
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct Reg(u16);

impl Reg {
    /// Register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    pub fn new(index: usize) -> Self {
        assert!(index < NUM_REGS, "register index {index} out of range");
        Reg(index as u16)
    }

    /// Numeric index, suitable for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_index() {
        for i in [0usize, 1, 100, NUM_REGS - 1] {
            assert_eq!(Reg::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let _ = Reg::new(NUM_REGS);
    }

    #[test]
    fn display() {
        assert_eq!(Reg::new(42).to_string(), "r42");
    }
}
