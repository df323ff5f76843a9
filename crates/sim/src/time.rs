//! Virtual time for the discrete-event engine.
//!
//! All simulation timestamps are nanoseconds since simulation start, stored
//! in a `u64`. That gives ~584 years of range, far beyond any experiment,
//! while keeping arithmetic exact and ordering total. Durations derived from
//! bandwidth models are computed in `f64` seconds and rounded to the nearest
//! nanosecond once, per event, so rounding error never accumulates across
//! events.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Microseconds since simulation start as a float — the Chrome
    /// trace-event timestamp unit, so exporters can map virtual time onto
    /// trace timelines without unit juggling.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is later than self"),
        )
    }

    /// Saturating difference: zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from float seconds, rounding to the nearest nanosecond.
    ///
    /// Panics on negative or non-finite input: a negative service time is
    /// always a modelling bug and must not be silently clamped.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimDuration::from_secs_f64: invalid duration {s}"
        );
        SimDuration(round_to_u64(s * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Float seconds (for reporting and rate computations).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Float microseconds (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer-scaled duration (e.g. `block_time * nblocks`).
    pub fn saturating_mul(self, n: u64) -> Self {
        SimDuration(self.0.saturating_mul(n))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulation ran past u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted past simulation start"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A data rate in bytes per second, used by link and DMA cost models.
///
/// Kept as a newtype so MiB/s (the unit the paper reports) and bytes/s are
/// never confused.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From bytes per second.
    pub fn from_bytes_per_sec(b: f64) -> Self {
        assert!(b > 0.0 && b.is_finite(), "bandwidth must be positive");
        Bandwidth(b)
    }

    /// From MiB/s — the unit used throughout the paper's figures.
    pub fn from_mib_per_sec(mib: f64) -> Self {
        Self::from_bytes_per_sec(mib * 1024.0 * 1024.0)
    }

    /// From GiB/s.
    pub fn from_gib_per_sec(gib: f64) -> Self {
        Self::from_bytes_per_sec(gib * 1024.0 * 1024.0 * 1024.0)
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// MiB per second.
    pub fn mib_per_sec(self) -> f64 {
        self.0 / (1024.0 * 1024.0)
    }

    /// Time to move `bytes` at this rate (no latency/overhead terms).
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.0)
    }
}

/// Convenience: observed bandwidth of moving `bytes` in `elapsed`.
pub fn observed_bandwidth(bytes: u64, elapsed: SimDuration) -> Bandwidth {
    assert!(!elapsed.is_zero(), "observed_bandwidth: zero elapsed time");
    Bandwidth::from_bytes_per_sec(bytes as f64 / elapsed.as_secs_f64())
}

/// `x.round() as u64` for finite `x >= 0`, inline: `f64::round` is a libm
/// call on the baseline x86-64 target (no SSE4.1), and every wire time is
/// rounded here. The remainder `x - trunc(x)` is exact, so comparing it
/// with a half rounds halves away from zero as `round` does; the add
/// saturates where the cast does.
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn same_as_round(x: f64) {
        assert_eq!(round_to_u64(x), x.round() as u64, "rounding {x:e}");
    }

    #[test]
    fn rounding_matches_f64_round_on_edges() {
        let two = |e: i32| 2f64.powi(e);
        for x in [
            0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            two(52) - 0.5,
            two(52) + 0.5,
            two(52) + 1.0,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64) - 2048.0,
            two(64),
            two(65),
            f64::MAX,
        ] {
            same_as_round(x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any finite non-negative value, a dyadic fraction, and a half
        /// and its two neighbours round as `f64::round` does.
        #[test]
        fn rounding_matches_f64_round(
            bits in 0u64..0x7FF0_0000_0000_0000,
            mantissa in 0u64..1 << 53,
            shift in 0i32..64,
            whole in 0u64..1 << 52,
        ) {
            let half = whole as f64 + 0.5;
            for x in [
                f64::from_bits(bits),
                mantissa as f64 / 2f64.powi(shift),
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
            ] {
                same_as_round(x);
            }
        }
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_micros(5));
        assert_eq!((t - SimDuration::from_micros(5)), SimTime::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn duration_f64_roundtrip_is_exact_at_ns() {
        let d = SimDuration::from_nanos(123_456_789);
        assert_eq!(SimDuration::from_secs_f64(d.as_secs_f64()), d);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_mib_per_sec(1024.0); // 1 GiB/s
        let t = bw.transfer_time(1024 * 1024 * 1024);
        assert_eq!(t, SimDuration::from_secs(1));
    }

    #[test]
    fn observed_bandwidth_inverts_transfer_time() {
        let bw = Bandwidth::from_mib_per_sec(2660.0);
        let bytes = 64 * 1024 * 1024;
        let t = bw.transfer_time(bytes);
        let back = observed_bandwidth(bytes, t);
        assert!((back.mib_per_sec() - 2660.0).abs() < 0.01);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(10);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_nanos(5));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}
