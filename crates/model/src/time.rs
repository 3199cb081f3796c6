//! Signed, integer-nanosecond time arithmetic.
//!
//! Every quantity in the paper — release times, backward times, sampling
//! windows — lives on a signed time axis: the analyzed job's release is
//! pinned to zero and sources are traced *backwards*, and the best-case
//! backward time of a chain may even be negative (paper, end of §III).
//! Floating point would silently break the `⌊·⌋`/`⌈·⌉` steps of Theorem 2,
//! so both [`Instant`] (a point on the time axis) and [`Duration`] (a signed
//! span) wrap an `i64` nanosecond count.
//!
//! # Examples
//!
//! ```
//! use disparity_model::time::{Duration, Instant};
//!
//! let period = Duration::from_millis(10);
//! let release = Instant::ZERO + period * 3;
//! assert_eq!(release - Instant::ZERO, Duration::from_millis(30));
//! assert_eq!(period.as_micros(), 10_000);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};


/// A signed span of time with nanosecond resolution.
///
/// Unlike [`std::time::Duration`], this type is signed: subtracting a later
/// instant from an earlier one, or computing a best-case backward time, may
/// legitimately produce a negative span.
///
/// # Examples
///
/// ```
/// use disparity_model::time::Duration;
///
/// let d = Duration::from_micros(1500) - Duration::from_millis(2);
/// assert!(d.is_negative());
/// assert_eq!(d.as_micros(), -500);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct Duration(i64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// Largest representable span.
    pub const MAX: Duration = Duration(i64::MAX);
    /// Smallest (most negative) representable span.
    pub const MIN: Duration = Duration(i64::MIN);

    /// Creates a span from a signed nanosecond count.
    #[must_use]
    pub const fn from_nanos(nanos: i64) -> Self {
        Duration(nanos)
    }

    /// Creates a span from a (possibly fractional) nanosecond count,
    /// rounding to the nearest integer with the saturating float→int
    /// conversion (`NaN` maps to zero).
    ///
    /// This is the workspace's single blessed float→time cast site; all
    /// other code must route float scaling through here or [`scale`]
    /// (enforced by `srclint`'s `time-cast` rule, see `srclint.allow`).
    ///
    /// [`scale`]: Duration::scale
    #[must_use]
    pub fn from_nanos_f64(nanos: f64) -> Self {
        Duration(nanos.round() as i64)
    }

    /// Scales the span by a float factor, rounding to the nearest
    /// nanosecond and saturating at the representable range.
    #[must_use]
    pub fn scale(self, factor: f64) -> Self {
        Duration::from_nanos_f64(self.0 as f64 * factor)
    }

    /// Creates a span from a signed microsecond count.
    #[must_use]
    pub const fn from_micros(micros: i64) -> Self {
        Duration(micros * 1_000)
    }

    /// Creates a span from a signed millisecond count.
    #[must_use]
    pub const fn from_millis(millis: i64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// [`Duration::from_millis`], `None` when the nanosecond count
    /// overflows `i64`.
    #[must_use]
    pub const fn checked_from_millis(millis: i64) -> Option<Self> {
        match millis.checked_mul(1_000_000) {
            Some(nanos) => Some(Duration(nanos)),
            None => None,
        }
    }

    /// Creates a span from a signed second count.
    #[must_use]
    pub const fn from_secs(secs: i64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// The span as whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// The span as whole microseconds, truncated towards zero.
    #[must_use]
    pub const fn as_micros(self) -> i64 {
        self.0 / 1_000
    }

    /// The span as whole milliseconds, truncated towards zero.
    #[must_use]
    pub const fn as_millis(self) -> i64 {
        self.0 / 1_000_000
    }

    /// The span as fractional milliseconds (for reporting only).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// `true` if the span is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` if the span is strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Absolute value of the span.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the span is [`Duration::MIN`].
    #[must_use]
    pub const fn abs(self) -> Self {
        Duration(self.0.abs())
    }

    /// The larger of two spans.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Duration(self.0.min(other.0))
    }

    /// Clamp the span to be at least zero.
    #[must_use]
    pub fn max_zero(self) -> Self {
        self.max(Duration::ZERO)
    }

    /// Checked addition, `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        self.0.checked_add(rhs.0).map(Duration)
    }

    /// Checked subtraction, `None` on overflow.
    #[must_use]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.0.checked_sub(rhs.0).map(Duration)
    }

    /// Checked multiplication by a scalar, `None` on overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: i64) -> Option<Self> {
        self.0.checked_mul(rhs).map(Duration)
    }

    /// Floor division by another span (exact `⌊a/b⌋` on signed values).
    ///
    /// This is the `⌊·⌋` of Theorem 2: `Duration::from_millis(-25)
    /// .div_floor(Duration::from_millis(10))` is `-3`, not `-2`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use disparity_model::time::Duration;
    ///
    /// let t = Duration::from_millis(10);
    /// assert_eq!(Duration::from_millis(25).div_floor(t), 2);
    /// assert_eq!(Duration::from_millis(-25).div_floor(t), -3);
    /// ```
    #[must_use]
    pub fn div_floor(self, rhs: Self) -> i64 {
        div_floor(self.0, rhs.0)
    }

    /// Ceiling division by another span (exact `⌈a/b⌉` on signed values).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use disparity_model::time::Duration;
    ///
    /// let t = Duration::from_millis(10);
    /// assert_eq!(Duration::from_millis(25).div_ceil(t), 3);
    /// assert_eq!(Duration::from_millis(-25).div_ceil(t), -2);
    /// ```
    #[must_use]
    pub fn div_ceil(self, rhs: Self) -> i64 {
        div_ceil(self.0, rhs.0)
    }
}

/// Exact floor division on signed integers.
///
/// # Panics
///
/// Panics if `b` is zero.
#[must_use]
pub fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    let r = a % b;
    if (r != 0) && ((r < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Exact ceiling division on signed integers.
///
/// # Panics
///
/// Panics if `b` is zero.
#[must_use]
pub fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    let r = a % b;
    if (r != 0) && ((r < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Neg for Duration {
    type Output = Duration;
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<Duration> for i64 {
    type Output = Duration;
    fn mul(self, rhs: Duration) -> Duration {
        Duration(self * rhs.0)
    }
}

impl Div<i64> for Duration {
    type Output = Duration;
    fn div(self, rhs: i64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns % 1_000_000 == 0 {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns % 1_000 == 0 {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A point on the (signed) simulated time axis, nanosecond resolution.
///
/// The origin is arbitrary; the analysis pins the analyzed job's release at
/// [`Instant::ZERO`] and traces sources into negative territory.
///
/// # Examples
///
/// ```
/// use disparity_model::time::{Duration, Instant};
///
/// let t0 = Instant::ZERO;
/// let t1 = t0 + Duration::from_millis(5);
/// assert!(t1 > t0);
/// assert_eq!(t1.elapsed_since(t0), Duration::from_millis(5));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct Instant(i64);

impl Instant {
    /// The time origin.
    pub const ZERO: Instant = Instant(0);
    /// Latest representable instant.
    pub const MAX: Instant = Instant(i64::MAX);
    /// Earliest representable instant.
    pub const MIN: Instant = Instant(i64::MIN);

    /// Creates an instant `nanos` nanoseconds from the origin.
    #[must_use]
    pub const fn from_nanos(nanos: i64) -> Self {
        Instant(nanos)
    }

    /// Creates an instant `millis` milliseconds from the origin.
    #[must_use]
    pub const fn from_millis(millis: i64) -> Self {
        Instant(millis * 1_000_000)
    }

    /// Nanoseconds from the origin (possibly negative).
    #[must_use]
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// The span from `earlier` to `self` (negative if `self` is earlier).
    #[must_use]
    pub fn elapsed_since(self, earlier: Instant) -> Duration {
        Duration(self.0 - earlier.0)
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Instant(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Instant(self.0.min(other.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0 - rhs.as_nanos())
    }
}

impl Sub for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Duration(self.0))
    }
}

/// Least common multiple of a set of periods (the hyperperiod).
///
/// Returns `None` for an empty iterator or if any period is non-positive or
/// the result overflows `i64`.
///
/// # Examples
///
/// ```
/// use disparity_model::time::{hyperperiod, Duration};
///
/// let periods = [Duration::from_millis(10), Duration::from_millis(4)];
/// assert_eq!(hyperperiod(periods), Some(Duration::from_millis(20)));
/// ```
#[must_use]
pub fn hyperperiod<I: IntoIterator<Item = Duration>>(periods: I) -> Option<Duration> {
    let mut acc: Option<i64> = None;
    for p in periods {
        let p = p.as_nanos();
        if p <= 0 {
            return None;
        }
        acc = Some(match acc {
            None => p,
            Some(a) => {
                let g = gcd(a, p);
                (a / g).checked_mul(p)?
            }
        });
    }
    acc.map(Duration::from_nanos)
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
    }

    #[test]
    fn negative_spans_behave() {
        let d = Duration::from_millis(-3);
        assert!(d.is_negative());
        assert_eq!(d.abs(), Duration::from_millis(3));
        assert_eq!(-d, Duration::from_millis(3));
        assert_eq!(d.max_zero(), Duration::ZERO);
    }

    #[test]
    fn div_floor_matches_mathematical_floor() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(7, -2), -4);
        assert_eq!(div_floor(-7, -2), 3);
        assert_eq!(div_floor(6, 2), 3);
        assert_eq!(div_floor(-6, 2), -3);
        assert_eq!(div_floor(0, 5), 0);
    }

    #[test]
    fn div_ceil_matches_mathematical_ceil() {
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(7, -2), -3);
        assert_eq!(div_ceil(-7, -2), 4);
        assert_eq!(div_ceil(6, 2), 3);
        assert_eq!(div_ceil(-6, 2), -3);
        assert_eq!(div_ceil(0, 5), 0);
    }

    #[test]
    fn instant_duration_arithmetic_round_trips() {
        let t = Instant::from_nanos(42);
        let d = Duration::from_nanos(58);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.elapsed_since(t + d), -d);
    }

    #[test]
    fn hyperperiod_of_waters_periods() {
        let periods = [1i64, 2, 5, 10, 20, 50, 100, 200]
            .into_iter()
            .map(Duration::from_millis);
        assert_eq!(hyperperiod(periods), Some(Duration::from_millis(200)));
    }

    #[test]
    fn hyperperiod_rejects_degenerate_input() {
        assert_eq!(hyperperiod([]), None);
        assert_eq!(hyperperiod([Duration::ZERO]), None);
        assert_eq!(hyperperiod([Duration::from_millis(-5)]), None);
    }

    #[test]
    fn display_picks_coarsest_exact_unit() {
        assert_eq!(Duration::from_millis(5).to_string(), "5ms");
        assert_eq!(Duration::from_micros(1500).to_string(), "1500us");
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
    }

    #[test]
    fn duration_sum_and_scalar_ops() {
        let total: Duration = [1, 2, 3].into_iter().map(Duration::from_millis).sum();
        assert_eq!(total, Duration::from_millis(6));
        assert_eq!(Duration::from_millis(2) * 3, Duration::from_millis(6));
        assert_eq!(3 * Duration::from_millis(2), Duration::from_millis(6));
        assert_eq!(Duration::from_millis(7) / 2, Duration::from_micros(3500));
    }

    #[test]
    fn checked_ops_catch_overflow() {
        assert_eq!(Duration::MAX.checked_add(Duration::from_nanos(1)), None);
        assert_eq!(Duration::MIN.checked_sub(Duration::from_nanos(1)), None);
        assert_eq!(Duration::MAX.checked_mul(2), None);
        assert_eq!(
            Duration::from_nanos(2).checked_mul(3),
            Some(Duration::from_nanos(6))
        );
        assert_eq!(
            Duration::checked_from_millis(250),
            Some(Duration::from_millis(250))
        );
        let first_overflow = i64::MAX / 1_000_000 + 1;
        assert_eq!(Duration::checked_from_millis(first_overflow), None);
        assert_eq!(Duration::checked_from_millis(10_000_000_000_000), None);
    }
}
