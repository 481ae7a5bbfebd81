//! Virtual-time arithmetic.
//!
//! The simulator reports results in *virtual* time derived from cycle
//! accounting, never from the host wall clock. [`Cycles`] counts clock
//! ticks of some component; a [`Frequency`] converts a cycle count into a
//! [`VirtualDuration`], which is what cross-machine comparisons (e.g. "SPE
//! kernel vs Pentium D kernel") are expressed in.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A monotonically accumulating count of clock cycles on one component.
///
/// Saturating arithmetic is deliberate: a simulation that somehow reaches
/// `u64::MAX` cycles is already meaningless, and saturation keeps the
/// accounting total-ordered instead of panicking deep inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    pub const ZERO: Cycles = Cycles(0);

    #[inline]
    pub fn new(n: u64) -> Self {
        Cycles(n)
    }

    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Cycles scaled by a real factor, rounded to nearest.
    ///
    /// Used by cost models that derate or boost a baseline count (e.g. a
    /// CPI factor). Negative factors clamp to zero.
    #[inline]
    pub fn scale(self, factor: f64) -> Cycles {
        if factor <= 0.0 {
            return Cycles::ZERO;
        }
        Cycles((self.0 as f64 * factor).round() as u64)
    }

    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }

    /// Elapsed virtual time at clock frequency `f`.
    #[inline]
    pub fn at(self, f: Frequency) -> VirtualDuration {
        VirtualDuration::from_seconds(self.0 as f64 / f.hertz())
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs.max(1))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock frequency, stored in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Construct from gigahertz. Panics on non-positive input — a clock
    /// that does not tick cannot convert cycles to time.
    pub fn ghz(g: f64) -> Self {
        assert!(g > 0.0, "frequency must be positive, got {g} GHz");
        Frequency(g * 1e9)
    }

    pub fn mhz(m: f64) -> Self {
        assert!(m > 0.0, "frequency must be positive, got {m} MHz");
        Frequency(m * 1e6)
    }

    #[inline]
    pub fn hertz(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Number of cycles that elapse in `d` at this frequency (rounded).
    pub fn cycles_in(self, d: VirtualDuration) -> Cycles {
        Cycles((d.seconds() * self.0).round() as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.as_ghz())
    }
}

/// A span of virtual time, stored as seconds in an `f64`.
///
/// `f64` seconds keep cross-frequency arithmetic simple and are precise to
/// well under a nanosecond for every span this simulator produces.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct VirtualDuration(f64);

impl VirtualDuration {
    pub const ZERO: VirtualDuration = VirtualDuration(0.0);

    pub fn from_seconds(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        VirtualDuration(s)
    }

    pub fn from_millis(ms: f64) -> Self {
        Self::from_seconds(ms / 1e3)
    }

    pub fn from_micros(us: f64) -> Self {
        Self::from_seconds(us / 1e6)
    }

    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    #[inline]
    pub fn max(self, other: Self) -> Self {
        VirtualDuration(self.0.max(other.0))
    }

    /// `self / other` — the speed-up of `other` relative to `self` when
    /// `self` is the slower (reference) time.
    pub fn ratio_over(self, other: VirtualDuration) -> f64 {
        assert!(other.0 > 0.0, "cannot divide by a zero duration");
        self.0 / other.0
    }

    pub fn scale(self, factor: f64) -> Self {
        Self::from_seconds(self.0 * factor)
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualDuration {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        VirtualDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Sum for VirtualDuration {
    fn sum<I: Iterator<Item = VirtualDuration>>(iter: I) -> Self {
        iter.fold(VirtualDuration::ZERO, |a, b| a + b)
    }
}

impl Mul<f64> for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.4} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.4} ms", self.millis())
        } else {
            write!(f, "{:.3} us", self.micros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_add_and_saturate() {
        assert_eq!(Cycles(2) + Cycles(3), Cycles(5));
        assert_eq!(Cycles(u64::MAX) + Cycles(1), Cycles(u64::MAX));
        let mut c = Cycles(10);
        c += Cycles(5);
        assert_eq!(c, Cycles(15));
        c -= Cycles(20);
        assert_eq!(c, Cycles::ZERO);
    }

    #[test]
    fn cycles_scale_rounds_to_nearest() {
        assert_eq!(Cycles(10).scale(1.26), Cycles(13));
        assert_eq!(Cycles(10).scale(0.0), Cycles::ZERO);
        assert_eq!(Cycles(10).scale(-4.0), Cycles::ZERO);
    }

    #[test]
    fn cycles_to_duration_roundtrip() {
        let f = Frequency::ghz(3.2);
        let c = Cycles(3_200_000_000);
        let d = c.at(f);
        assert!((d.seconds() - 1.0).abs() < 1e-12);
        assert_eq!(f.cycles_in(d), c);
    }

    #[test]
    fn frequency_constructors() {
        assert!((Frequency::ghz(1.8).hertz() - 1.8e9).abs() < 1.0);
        assert!((Frequency::mhz(800.0).as_ghz() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::ghz(0.0);
    }

    #[test]
    fn duration_ratio_is_speedup() {
        let slow = VirtualDuration::from_millis(100.0);
        let fast = VirtualDuration::from_millis(10.0);
        assert!((slow.ratio_over(fast) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn duration_sub_clamps_at_zero() {
        let a = VirtualDuration::from_millis(1.0);
        let b = VirtualDuration::from_millis(2.0);
        assert_eq!((a - b).seconds(), 0.0);
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(
            format!("{}", VirtualDuration::from_seconds(2.5)),
            "2.5000 s"
        );
        assert_eq!(
            format!("{}", VirtualDuration::from_millis(2.5)),
            "2.5000 ms"
        );
        assert_eq!(format!("{}", VirtualDuration::from_micros(2.5)), "2.500 us");
    }

    #[test]
    fn sums() {
        let cs: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(cs, Cycles(6));
        let ds: VirtualDuration = [
            VirtualDuration::from_seconds(0.5),
            VirtualDuration::from_seconds(0.25),
        ]
        .into_iter()
        .sum();
        assert!((ds.seconds() - 0.75).abs() < 1e-12);
    }
}
