//! Bandwidth (data rate) arithmetic.
//!
//! [`Bandwidth`] wraps bits-per-second as a `u64` and provides the two
//! conversions the simulator needs constantly and must never get wrong:
//!
//! * the serialization delay of a frame of `n` bytes at this rate, and
//! * the number of bytes transferable in a given duration.
//!
//! Both are computed in `u128` to avoid intermediate overflow (e.g.
//! `bytes * 8 * 1e9` overflows `u64` past ~2.3 GB).

use crate::time::{mul_u64_f64, SimDuration, F64_EXACT_LIMIT, NANOS_PER_SEC};
use std::fmt;

/// A data rate in bits per second.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate (useful as a sentinel for "unlimited" is *not* this —
    /// zero means nothing can be sent).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from kilobits per second (10^3 bps).
    #[inline]
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// Construct from megabits per second (10^6 bps).
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Construct from gigabits per second (10^9 bps).
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Megabits per second as `f64`.
    #[inline]
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Bytes per second as `f64`.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Time to serialize `bytes` onto a link of this rate, rounded up to the
    /// next nanosecond so that back-to-back frames never overlap.
    ///
    /// # Panics
    /// Panics if the rate is zero (a zero-rate link can never transmit).
    #[inline]
    pub fn serialization_time(self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0, "serialization on a zero-rate link");
        let bits = bytes as u128 * 8;
        let ns = (bits * NANOS_PER_SEC as u128).div_ceil(self.0 as u128);
        SimDuration::from_nanos(ns as u64)
    }

    /// Bytes transferable in `dur` at this rate (truncating).
    #[inline]
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        let bits = self.0 as u128 * dur.as_nanos() as u128 / NANOS_PER_SEC as u128;
        (bits / 8) as u64
    }

    /// Scale the rate by a non-negative float (used by pacing gains),
    /// truncating to whole bits per second and saturating at `u64::MAX`.
    ///
    /// Above 2^53 bps the naive `u64 -> f64 -> u64` round-trip misplaces
    /// low bits; this routes through exact 128-bit mantissa arithmetic
    /// there (see [`mul_u64_f64`]) so e.g. `mul_f64(1.0)` is the identity
    /// over the full range.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Bandwidth {
        debug_assert!(k >= 0.0 && k.is_finite(), "negative or non-finite gain");
        if self.0 < F64_EXACT_LIMIT {
            let bps = self.0 as f64 * k;
            if bps >= u64::MAX as f64 {
                Bandwidth(u64::MAX)
            } else {
                Bandwidth(bps as u64)
            }
        } else {
            Bandwidth(mul_u64_f64(self.0, k, false))
        }
    }

    /// Construct from a bytes-per-`dur` measurement (e.g. a delivery-rate
    /// sample). Returns `None` when `dur` is zero.
    #[inline]
    pub fn from_bytes_per(bytes: u64, dur: SimDuration) -> Option<Bandwidth> {
        if dur.is_zero() {
            return None;
        }
        let bps = bytes as u128 * 8 * NANOS_PER_SEC as u128 / dur.as_nanos() as u128;
        Some(Bandwidth(bps.min(u64::MAX as u128) as u64))
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1_000_000_000 {
            write!(f, "{:.3}Gbps", bps as f64 / 1e9)
        } else if bps >= 1_000_000 {
            write!(f, "{:.3}Mbps", bps as f64 / 1e6)
        } else if bps >= 1_000 {
            write!(f, "{:.3}Kbps", bps as f64 / 1e3)
        } else {
            write!(f, "{bps}bps")
        }
    }
}

/// `num / den` with a degenerate-denominator guard: `0.0` when `den` is
/// zero, negative, or non-finite (a zero-event run, a sub-microsecond
/// dispatch span), and `0.0` when the quotient itself is non-finite.
///
/// Rates written to ledgers and manifests must go through this rather
/// than relying on the JSON writer's non-finite fallback: that fallback
/// keeps the *document* parseable but the in-memory value would still be
/// `inf`/NaN, poisoning comparisons, histograms, and rollup arithmetic
/// before serialization ever happens.
pub fn safe_rate(num: f64, den: f64) -> f64 {
    if den <= 0.0 || !den.is_finite() {
        return 0.0;
    }
    let q = num / den;
    if q.is_finite() {
        q
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Bandwidth::from_gbps(10).as_bps(), 10_000_000_000);
        assert_eq!(Bandwidth::from_mbps(100).as_bps(), 100_000_000);
        assert_eq!(Bandwidth::from_kbps(64).as_bps(), 64_000);
    }

    #[test]
    fn serialization_time_exact() {
        // 1500 bytes at 100 Mbps = 120 microseconds.
        let bw = Bandwidth::from_mbps(100);
        assert_eq!(bw.serialization_time(1500), SimDuration::from_micros(120));
        // 1500 bytes at 10 Gbps = 1.2 microseconds.
        let bw = Bandwidth::from_gbps(10);
        assert_eq!(bw.serialization_time(1500), SimDuration::from_nanos(1200));
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1 byte at 3 bps: 8 bits / 3 bps = 2.666...s -> must round up.
        let bw = Bandwidth::from_bps(3);
        assert_eq!(
            bw.serialization_time(1),
            SimDuration::from_nanos(2_666_666_667)
        );
    }

    #[test]
    fn no_overflow_on_large_frames() {
        // A 1 GB "frame" at 1 bps would overflow u64 bits*ns math if done
        // naively; u128 internals must cope.
        let bw = Bandwidth::from_gbps(100);
        let t = bw.serialization_time(1_000_000_000);
        assert_eq!(t, SimDuration::from_millis(80));
    }

    #[test]
    fn bytes_in_duration() {
        let bw = Bandwidth::from_mbps(8); // 1 MB/s
        assert_eq!(bw.bytes_in(SimDuration::from_secs(1)), 1_000_000);
        assert_eq!(bw.bytes_in(SimDuration::from_millis(1)), 1_000);
    }

    #[test]
    fn from_bytes_per_round_trip() {
        let rate = Bandwidth::from_bytes_per(125_000, SimDuration::from_secs(1)).unwrap();
        assert_eq!(rate, Bandwidth::from_mbps(1));
        assert_eq!(Bandwidth::from_bytes_per(1, SimDuration::ZERO), None);
    }

    #[test]
    fn gain_scaling() {
        let bw = Bandwidth::from_mbps(100);
        assert_eq!(bw.mul_f64(1.25), Bandwidth::from_bps(125_000_000));
        assert_eq!(bw.mul_f64(0.75), Bandwidth::from_bps(75_000_000));
    }

    #[test]
    fn gain_scaling_is_exact_above_f64_mantissa_range() {
        // 2^53 + 1 is the first u64 the f64 round-trip corrupts: the old
        // implementation returned 2^53 for a unity gain.
        let bw = Bandwidth::from_bps((1 << 53) + 1);
        assert_eq!(bw.mul_f64(1.0), bw);
        // Power-of-two gains must be exact bit shifts over the full range.
        let big = Bandwidth::from_bps(u64::MAX - 12345);
        assert_eq!(big.mul_f64(0.5).as_bps(), (u64::MAX - 12345) >> 1);
        assert_eq!(big.mul_f64(2.0), Bandwidth(u64::MAX), "must saturate");
        // A representative BBR-style gain on a huge rate: exact rational.
        let x = (1u64 << 60) + 977;
        let k = 1.25f64; // == 5/4 exactly
        assert_eq!(
            Bandwidth::from_bps(x).mul_f64(k).as_bps(),
            (x as u128 * 5 / 4) as u64
        );
    }

    #[test]
    #[should_panic(expected = "zero-rate")]
    fn zero_rate_serialization_panics() {
        Bandwidth::ZERO.serialization_time(1);
    }

    #[test]
    fn safe_rate_is_finite_for_every_degenerate_denominator() {
        assert_eq!(safe_rate(100.0, 0.0), 0.0);
        assert_eq!(safe_rate(100.0, -1.0), 0.0);
        assert_eq!(safe_rate(100.0, f64::NAN), 0.0);
        assert_eq!(safe_rate(100.0, f64::INFINITY), 0.0);
        assert_eq!(safe_rate(0.0, 0.0), 0.0);
        // Overflowing quotients degrade to zero rather than inf.
        assert_eq!(safe_rate(f64::MAX, f64::MIN_POSITIVE), 0.0);
        assert_eq!(safe_rate(9.0, 2.0), 4.5);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Bandwidth::from_gbps(10)), "10.000Gbps");
        assert_eq!(format!("{}", Bandwidth::from_mbps(100)), "100.000Mbps");
        assert_eq!(format!("{}", Bandwidth::from_bps(42)), "42bps");
    }
}
