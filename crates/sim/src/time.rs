//! Virtual time: nanosecond-resolution instants and durations.
//!
//! `SimTime` is an absolute instant on the simulation clock (nanoseconds
//! since simulation start); `SimDuration` is a span between instants. Both
//! wrap a `u64`, giving ~584 simulated years of range — far beyond any
//! experiment horizon — while staying `Copy` and trivially comparable.
//!
//! Arithmetic is checked in debug builds (standard Rust overflow semantics);
//! saturating helpers are provided where wraparound would otherwise be a
//! plausible hazard (e.g. subtracting a warm-up offset from an early event).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far away"
    /// sentinel for disarmed timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as `f64` (lossy beyond ~2^53 ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later (e.g. comparing against a warm-up boundary).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of two instants.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Add a duration, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span; used as an "infinite" timeout.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Seconds as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True iff this is the zero-length span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative float, rounding to nearest nanosecond.
    /// Saturates at `SimDuration::MAX`.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0 && k.is_finite(), "negative or non-finite factor");
        if self.0 < F64_EXACT_LIMIT {
            let ns = self.0 as f64 * k;
            if ns >= u64::MAX as f64 {
                SimDuration::MAX
            } else {
                SimDuration(ns.round() as u64)
            }
        } else {
            SimDuration(mul_u64_f64(self.0, k, true))
        }
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

/// Largest `u64` magnitude below which the `u64 -> f64` cast is exact
/// (2^53). Float-scaling helpers keep the plain f64 product below this —
/// it is exact there and its rounding is frozen into run digests — and
/// switch to the 128-bit integer route above it.
pub(crate) const F64_EXACT_LIMIT: u64 = 1 << 53;

/// Exact `x * k` for a non-negative finite `k`: decomposes `k` into its
/// IEEE-754 mantissa and exponent and multiplies in 128-bit integer
/// arithmetic, so no precision is lost for `x >= 2^53` (where the naive
/// `(x as f64 * k) as u64` round-trip silently misplaces up to 2^11
/// units). Truncates toward zero, or rounds to nearest (ties away from
/// zero, matching `f64::round`) when `round_nearest` is set; saturates at
/// `u64::MAX`.
pub(crate) fn mul_u64_f64(x: u64, k: f64, round_nearest: bool) -> u64 {
    debug_assert!(k >= 0.0 && k.is_finite(), "negative or non-finite factor");
    if x == 0 || k == 0.0 {
        return 0;
    }
    let bits = k.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = bits & ((1u64 << 52) - 1);
    // k = mant * 2^exp with mant an integer below 2^53.
    let (mant, exp) = if raw_exp == 0 {
        (frac, -1074i64) // subnormal: no implicit leading bit
    } else {
        (frac | (1u64 << 52), raw_exp - 1075)
    };
    if mant == 0 {
        return 0;
    }
    let prod = x as u128 * mant as u128; // < 2^117: cannot overflow u128
    let val = if exp >= 0 {
        // Left shifts only grow the value; anything shifted past the top
        // bit is far beyond u64 range already.
        if exp as u32 > prod.leading_zeros() {
            u128::MAX
        } else {
            prod << exp as u32
        }
    } else if -exp >= 128 {
        // prod < 2^117 and the shift eats >= 128 bits: the true value is
        // below 2^-11, which rounds (either mode) to zero.
        0
    } else {
        let s = (-exp) as u32;
        if round_nearest {
            (prod + (1u128 << (s - 1))) >> s // prod < 2^117: cannot overflow
        } else {
            prod >> s
        }
    };
    val.min(u64::MAX as u128) as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("t=")?;
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

/// Human-readable rendering with an adaptive unit, written straight into
/// `f`. Width, fill and precision flags on `f` are ignored (`write!` into
/// a `Formatter` starts from default flags): the text is the same under
/// any flags, as it is inside outcome and scenario digests.
fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns == u64::MAX {
        f.write_str("inf")
    } else if ns >= NANOS_PER_SEC {
        write!(f, "{:.6}s", ns as f64 / NANOS_PER_SEC as f64)
    } else if ns >= NANOS_PER_MILLI {
        write!(f, "{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
    } else if ns >= NANOS_PER_MICRO {
        write!(f, "{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
    } else {
        write!(f, "{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3 * NANOS_PER_MILLI);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4 * NANOS_PER_MICRO);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!(t + d, SimTime::from_millis(15));
        assert_eq!(t - d, SimTime::from_millis(5));
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 3, SimDuration::from_millis(15));
        assert_eq!(d / 5, SimDuration::from_millis(1));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(early.checked_since(late), None);
    }

    #[test]
    fn float_conversions() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        let d = SimDuration::from_secs_f64(0.25).mul_f64(2.0);
        assert_eq!(d, SimDuration::from_millis(500));
    }

    #[test]
    fn mul_f64_saturates() {
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn mul_f64_is_exact_above_f64_mantissa_range() {
        // Unity must be the identity over the full range; the old f64
        // round-trip returned 2^53 for 2^53 + 1.
        let d = SimDuration::from_nanos((1 << 53) + 1);
        assert_eq!(d.mul_f64(1.0), d);
        assert_eq!(SimDuration::MAX.mul_f64(1.0), SimDuration::MAX);
        // Halving a huge duration rounds to nearest, ties away from zero
        // (odd value: true result ends in .5).
        let odd = SimDuration::from_nanos((1 << 60) + 1);
        assert_eq!(odd.mul_f64(0.5).as_nanos(), (1u64 << 59) + 1);
        // RTO-style backoff on a large span stays exact.
        let x = (1u64 << 58) + 3;
        assert_eq!(
            SimDuration::from_nanos(x).mul_f64(1.5).as_nanos(),
            (x as u128 * 3 / 2 + 1) as u64 // true value ends in .5: rounds up
        );
    }

    #[test]
    fn mul_u64_f64_handles_subnormal_and_tiny_factors() {
        // Smallest positive subnormal: 2^-1074. Any u64 times it rounds
        // to zero in both modes.
        let tiny = f64::from_bits(1);
        assert_eq!(mul_u64_f64(u64::MAX, tiny, false), 0);
        assert_eq!(mul_u64_f64(u64::MAX, tiny, true), 0);
        assert_eq!(mul_u64_f64(u64::MAX, 0.0, true), 0);
        // A factor large enough to saturate from any nonzero x.
        assert_eq!(mul_u64_f64(1, f64::MAX, false), u64::MAX);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000000s");
        assert_eq!(format!("{}", SimDuration::MAX), "inf");
    }

    /// The allocating renderer `fmt_ns` replaced, kept as the oracle.
    fn format_ns_oracle(ns: u64) -> String {
        if ns == u64::MAX {
            "inf".to_owned()
        } else if ns >= NANOS_PER_SEC {
            format!("{:.6}s", ns as f64 / NANOS_PER_SEC as f64)
        } else if ns >= NANOS_PER_MILLI {
            format!("{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
        } else if ns >= NANOS_PER_MICRO {
            format!("{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
        } else {
            format!("{ns}ns")
        }
    }

    #[test]
    fn formatting_matches_the_allocating_renderer_under_any_flags() {
        for ns in [
            0,
            999,
            NANOS_PER_MICRO,
            NANOS_PER_MILLI,
            NANOS_PER_SEC,
            1_234_567_891,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let text = format_ns_oracle(ns);
            let (t, d) = (SimTime::from_nanos(ns), SimDuration::from_nanos(ns));
            assert_eq!(format!("{t}"), text);
            assert_eq!(format!("{t:?}"), format!("t={text}"));
            assert_eq!(format!("{d}"), text);
            assert_eq!(format!("{d:?}"), text);
            // Flags never reached the old renderer's inner `format!`.
            assert_eq!(format!("{t:>12}"), text);
            assert_eq!(format!("{d:*<12}"), text);
            assert_eq!(format!("{d:>12?}"), text);
        }
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
        assert!(SimDuration::ZERO < SimDuration::from_nanos(1));
    }
}
