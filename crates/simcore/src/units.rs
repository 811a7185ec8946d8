//! Physical and economic quantities shared by the hardware and network
//! models.
//!
//! Newtypes keep megabytes from being added to megabits and dollars from
//! being added to watts — exactly the class of bug a cost/power comparison
//! like the paper's Table I invites.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A quantity of data in bytes.
///
/// # Example
///
/// ```
/// use picloud_simcore::units::Bytes;
///
/// let sd_card = Bytes::gib(16);
/// assert_eq!(sd_card.as_u64(), 16 * 1024 * 1024 * 1024);
/// assert_eq!(Bytes::mib(256) - Bytes::mib(90), Bytes::mib(166));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a quantity from raw bytes.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// `n` kibibytes.
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This quantity in (fractional) mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Whether this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs` exceeds `self`.
    pub fn checked_sub(self, rhs: Bytes) -> Option<Bytes> {
        self.0.checked_sub(rhs.0).map(Bytes)
    }

    /// Scales by a float factor (clamping negatives to zero); useful for
    /// proportional shares.
    pub fn mul_f64(self, factor: f64) -> Bytes {
        if factor <= 0.0 || !factor.is_finite() {
            return Bytes::ZERO;
        }
        Bytes((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const GIB: u64 = 1024 * 1024 * 1024;
        const MIB: u64 = 1024 * 1024;
        const KIB: u64 = 1024;
        if self.0 >= GIB {
            write!(f, "{:.2}GiB", self.0 as f64 / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2}MiB", self.0 as f64 / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2}KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_add(rhs.0).expect("byte count overflowed"))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(
            self.0
                .checked_sub(rhs.0)
                .expect("byte count underflowed below zero"),
        )
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.checked_mul(rhs).expect("byte count overflowed"))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

/// Link or NIC bandwidth in bits per second.
///
/// # Example
///
/// ```
/// use picloud_simcore::units::{Bandwidth, Bytes};
///
/// let fast_ethernet = Bandwidth::mbps(100);
/// let t = fast_ethernet.transfer_time(Bytes::mib(1));
/// // 8 Mbit over 100 Mbit/s ≈ 83.9 ms
/// assert!((t.as_secs_f64() - 0.0839).abs() < 0.001);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth from raw bits per second.
    pub const fn bps(bits_per_sec: u64) -> Self {
        Bandwidth(bits_per_sec)
    }

    /// `n` megabits per second (10^6, as link rates are quoted).
    pub const fn mbps(n: u64) -> Self {
        Bandwidth(n * 1_000_000)
    }

    /// `n` gigabits per second.
    pub const fn gbps(n: u64) -> Self {
        Bandwidth(n * 1_000_000_000)
    }

    /// Raw bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// This bandwidth in (fractional) megabits per second.
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to move `data` at this rate.
    ///
    /// Returns [`SimDuration::MAX`] for zero bandwidth (the transfer never
    /// completes).
    pub fn transfer_time(self, data: Bytes) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        let bits = data.as_u64() as f64 * 8.0;
        SimDuration::from_secs_f64(bits / self.0 as f64)
    }

    /// Data moved in `elapsed` at this rate.
    pub fn data_in(self, elapsed: SimDuration) -> Bytes {
        Bytes::new((self.0 as f64 * elapsed.as_secs_f64() / 8.0).floor() as u64)
    }

    /// Scales by a float factor, clamping negatives to zero.
    pub fn mul_f64(self, factor: f64) -> Bandwidth {
        if factor <= 0.0 || !factor.is_finite() {
            return Bandwidth::ZERO;
        }
        Bandwidth((self.0 as f64 * factor).round() as u64)
    }

    /// Divides evenly among `n` shares (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn div_shares(self, n: u64) -> Bandwidth {
        assert!(n > 0, "cannot divide bandwidth among zero shares");
        Bandwidth(self.0 / n)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbit/s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbit/s", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bit/s", self.0)
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_add(rhs.0).expect("bandwidth overflowed"))
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        *self = *self + rhs;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(
            self.0
                .checked_sub(rhs.0)
                .expect("bandwidth underflowed below zero"),
        )
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

/// Electrical power in watts.
///
/// # Example
///
/// ```
/// use picloud_simcore::units::Power;
/// use picloud_simcore::SimDuration;
///
/// let pi = Power::watts(3.5);
/// let cluster = pi * 56.0;
/// assert!((cluster.as_watts() - 196.0).abs() < 1e-9);
/// let day = cluster.energy_over(SimDuration::from_secs(24 * 3600));
/// assert!((day.as_kwh() - 4.704).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power(f64);

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn watts(w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "power must be finite and non-negative"
        );
        Power(w)
    }

    /// Raw watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Energy dissipated over `elapsed`.
    pub fn energy_over(self, elapsed: SimDuration) -> Energy {
        Energy(self.0 * elapsed.as_secs_f64())
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}W", self.0)
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power::watts(self.0 * rhs)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64);

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    pub fn joules(j: f64) -> Self {
        assert!(
            j.is_finite() && j >= 0.0,
            "energy must be finite and non-negative"
        );
        Energy(j)
    }

    /// Raw joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// This energy in kilowatt-hours.
    pub fn as_kwh(self) -> f64 {
        self.0 / 3_600_000.0
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3_600_000.0 {
            write!(f, "{:.3}kWh", self.as_kwh())
        } else {
            write!(f, "{:.1}J", self.0)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

/// Money in US cents, exact.
///
/// # Example
///
/// ```
/// use picloud_simcore::units::Money;
///
/// let pi = Money::dollars(35);
/// let picloud = pi * 56;
/// assert_eq!(picloud, Money::dollars(1_960));
/// assert_eq!(picloud.to_string(), "$1960.00");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Money(i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Creates money from whole cents.
    pub const fn cents(cents: i64) -> Self {
        Money(cents)
    }

    /// Creates money from whole dollars.
    pub const fn dollars(d: i64) -> Self {
        Money(d * 100)
    }

    /// Raw cents.
    pub const fn as_cents(self) -> i64 {
        self.0
    }

    /// This amount in (fractional) dollars.
    pub fn as_dollars_f64(self) -> f64 {
        self.0 as f64 / 100.0
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}${}.{:02}", abs / 100, abs % 100)
    }
}

impl Add for Money {
    type Output = Money;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn add(self, rhs: Money) -> Money {
        Money(self.0.checked_add(rhs.0).expect("money overflowed"))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn sub(self, rhs: Money) -> Money {
        Money(self.0.checked_sub(rhs.0).expect("money overflowed"))
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn mul(self, rhs: i64) -> Money {
        Money(self.0.checked_mul(rhs).expect("money overflowed"))
    }
}

impl Div<i64> for Money {
    type Output = Money;
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

/// CPU clock frequency in hertz.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from raw hertz.
    pub const fn hz(hz: u64) -> Self {
        Frequency(hz)
    }

    /// `n` megahertz.
    pub const fn mhz(n: u64) -> Self {
        Frequency(n * 1_000_000)
    }

    /// `n` gigahertz.
    pub const fn ghz(n: u64) -> Self {
        Frequency(n * 1_000_000_000)
    }

    /// Raw hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Time to retire `cycles` at this clock (single-issue model).
    ///
    /// Returns [`SimDuration::MAX`] at zero frequency.
    pub fn time_for(self, cycles: Cycles) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(cycles.as_u64() as f64 / self.0 as f64)
    }

    /// Cycles retired in `elapsed` at this clock.
    pub fn cycles_in(self, elapsed: SimDuration) -> Cycles {
        Cycles::new((self.0 as f64 * elapsed.as_secs_f64()).floor() as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GHz", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.0}MHz", self.0 as f64 / 1e6)
        }
    }
}

/// An abstract amount of CPU work, measured in clock cycles of the executing
/// core. The same work takes longer on a slower clock — this is the knob the
/// scale model uses to contrast a 700 MHz Pi with a ~3 GHz x86 server.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a work amount from raw cycles.
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// `n` million cycles.
    pub const fn mega(n: u64) -> Self {
        Cycles(n * 1_000_000)
    }

    /// Raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Whether this is zero work.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.1}Mcyc", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}cyc", self.0)
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_add(rhs.0).expect("cycle count overflowed"))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::kib(1).as_u64(), 1024);
        assert_eq!(Bytes::mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::gib(1).as_u64(), 1024 * 1024 * 1024);
        assert_eq!(Bytes::new(12).to_string(), "12B");
        assert_eq!(Bytes::mib(256).to_string(), "256.00MiB");
    }

    #[test]
    fn bytes_arith_and_saturation() {
        assert_eq!(Bytes::mib(3) - Bytes::mib(1), Bytes::mib(2));
        assert_eq!(Bytes::mib(1).saturating_sub(Bytes::mib(2)), Bytes::ZERO);
        assert_eq!(Bytes::mib(1).checked_sub(Bytes::mib(2)), None);
        assert_eq!(Bytes::mib(2).mul_f64(0.5), Bytes::mib(1));
        assert_eq!(Bytes::mib(2).mul_f64(-1.0), Bytes::ZERO);
        let total: Bytes = [Bytes::kib(1), Bytes::kib(3)].into_iter().sum();
        assert_eq!(total, Bytes::kib(4));
    }

    #[test]
    fn bandwidth_transfer_roundtrip() {
        let bw = Bandwidth::mbps(100);
        let data = Bytes::mib(10);
        let t = bw.transfer_time(data);
        let back = bw.data_in(t);
        // Round-trip loses at most a byte to rounding.
        assert!(data.as_u64().abs_diff(back.as_u64()) <= 1);
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        assert_eq!(
            Bandwidth::ZERO.transfer_time(Bytes::new(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn bandwidth_shares() {
        assert_eq!(Bandwidth::mbps(100).div_shares(4), Bandwidth::mbps(25));
        assert_eq!(Bandwidth::mbps(100).mul_f64(0.5), Bandwidth::mbps(50));
    }

    #[test]
    fn power_and_energy_model_table1() {
        // Table I nameplate figures.
        let x86 = Power::watts(180.0) * 56.0;
        let pis = Power::watts(3.5) * 56.0;
        assert!((x86.as_watts() - 10_080.0).abs() < 1e-9);
        assert!((pis.as_watts() - 196.0).abs() < 1e-9);
        let hour = pis.energy_over(SimDuration::from_secs(3600));
        assert!((hour.as_kwh() - 0.196).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let _ = Power::watts(-1.0);
    }

    #[test]
    fn money_formatting_and_math() {
        assert_eq!(Money::dollars(2000) * 56, Money::dollars(112_000));
        assert_eq!(Money::cents(-150).to_string(), "-$1.50");
        assert_eq!(Money::dollars(7).as_dollars_f64(), 7.0);
        assert_eq!(Money::dollars(10) / 4, Money::cents(250));
    }

    #[test]
    fn frequency_cycle_timing() {
        let pi_clock = Frequency::mhz(700);
        let t = pi_clock.time_for(Cycles::mega(700));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(
            pi_clock.cycles_in(SimDuration::from_secs(2)),
            Cycles::mega(1400)
        );
        assert_eq!(Frequency::hz(0).time_for(Cycles::new(1)), SimDuration::MAX);
    }

    #[test]
    fn display_units() {
        assert_eq!(Bandwidth::mbps(100).to_string(), "100.00Mbit/s");
        assert_eq!(Bandwidth::gbps(1).to_string(), "1.00Gbit/s");
        assert_eq!(Frequency::mhz(700).to_string(), "700MHz");
        assert_eq!(Frequency::ghz(3).to_string(), "3.00GHz");
        assert_eq!(Power::watts(3.5).to_string(), "3.5W");
        assert_eq!(Cycles::mega(2).to_string(), "2.0Mcyc");
    }
}
