//! Architectural registers and the unified register file.
//!
//! The TM3270 has a unified register file of 128 32-bit registers (paper,
//! Table 1). Following TriMedia convention, `r0` always reads as `0` and
//! `r1` always reads as `1`; writing either is an architectural error.

use std::fmt;

/// Number of architectural registers in the unified register file.
pub const NUM_REGS: usize = 128;

/// An architectural register identifier (`r0`..`r127`).
///
/// `r0` always reads 0 and `r1` always reads 1; they are commonly used as
/// the constant-zero source and the always-true guard respectively.
///
/// # Examples
///
/// ```
/// use tm3270_isa::Reg;
/// let r = Reg::new(5);
/// assert_eq!(r.index(), 5);
/// assert_eq!(r.to_string(), "r5");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The constant-zero register.
    pub const ZERO: Reg = Reg(0);
    /// The constant-one register, used as the always-true guard.
    pub const ONE: Reg = Reg(1);

    /// Creates a register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 128`.
    #[inline]
    pub fn new(index: u8) -> Reg {
        assert!(
            (index as usize) < NUM_REGS,
            "register index {index} out of range (0..128)"
        );
        Reg(index)
    }

    /// Creates a register identifier without bounds checking the index.
    ///
    /// Returns `None` if `index >= 128`.
    #[inline]
    pub fn try_new(index: u8) -> Option<Reg> {
        if (index as usize) < NUM_REGS {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// The register's index in the register file (0..128).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this register is one of the hard-wired constants (`r0`/`r1`).
    #[inline]
    pub fn is_constant(self) -> bool {
        self.0 < 2
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<Reg> for u8 {
    fn from(r: Reg) -> u8 {
        r.0
    }
}

/// The unified 128-entry, 32-bit register file.
///
/// Reads of `r0`/`r1` return the hard-wired constants; writes to them are
/// reported (so a simulator can trap) but never change the constants.
///
/// # Examples
///
/// ```
/// use tm3270_isa::{Reg, RegFile};
/// let mut rf = RegFile::new();
/// rf.write(Reg::new(7), 42);
/// assert_eq!(rf.read(Reg::new(7)), 42);
/// assert_eq!(rf.read(Reg::ZERO), 0);
/// assert_eq!(rf.read(Reg::ONE), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; NUM_REGS],
}

impl RegFile {
    /// Creates a register file with all general registers zeroed.
    pub fn new() -> RegFile {
        let mut regs = [0u32; NUM_REGS];
        regs[1] = 1;
        RegFile { regs }
    }

    /// Reads a register. `r0` and `r1` read as their constants.
    #[inline]
    pub fn read(&self, r: Reg) -> u32 {
        // `Reg` is always < NUM_REGS (enforced at construction); the
        // mask is a no-op that lets the optimizer drop the bounds check
        // on this hot-path index.
        self.regs[r.index() & (NUM_REGS - 1)]
    }

    /// Writes a register. Writes to `r0`/`r1` are ignored and reported by
    /// returning `false`.
    #[inline]
    pub fn write(&mut self, r: Reg, value: u32) -> bool {
        if r.is_constant() {
            return false;
        }
        self.regs[r.index() & (NUM_REGS - 1)] = value;
        true
    }

    /// Reads the guard bit of a register (bit 0).
    #[inline]
    pub fn guard(&self, r: Reg) -> bool {
        self.read(r) & 1 == 1
    }

    /// Iterates over `(register, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, u32)> + '_ {
        self.regs
            .iter()
            .enumerate()
            .map(|(i, &v)| (Reg(i as u8), v))
    }
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_hardwired() {
        let mut rf = RegFile::new();
        assert_eq!(rf.read(Reg::ZERO), 0);
        assert_eq!(rf.read(Reg::ONE), 1);
        assert!(!rf.write(Reg::ZERO, 99));
        assert!(!rf.write(Reg::ONE, 99));
        assert_eq!(rf.read(Reg::ZERO), 0);
        assert_eq!(rf.read(Reg::ONE), 1);
    }

    #[test]
    fn general_registers_read_back() {
        let mut rf = RegFile::new();
        for i in 2..128u8 {
            assert!(rf.write(Reg::new(i), u32::from(i) * 3));
        }
        for i in 2..128u8 {
            assert_eq!(rf.read(Reg::new(i)), u32::from(i) * 3);
        }
    }

    #[test]
    fn guard_reads_bit_zero() {
        let mut rf = RegFile::new();
        rf.write(Reg::new(10), 0xfffe);
        assert!(!rf.guard(Reg::new(10)));
        rf.write(Reg::new(10), 0x0001);
        assert!(rf.guard(Reg::new(10)));
        assert!(rf.guard(Reg::ONE));
        assert!(!rf.guard(Reg::ZERO));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_panics() {
        let _ = Reg::new(128);
    }

    #[test]
    fn try_new_bounds() {
        assert!(Reg::try_new(127).is_some());
        assert!(Reg::try_new(128).is_none());
    }

    #[test]
    fn display_format() {
        assert_eq!(Reg::new(127).to_string(), "r127");
    }
}
