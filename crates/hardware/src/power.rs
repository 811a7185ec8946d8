//! Power and cooling models.
//!
//! Table I of the paper compares 56 x86 servers (10,080 W, cooling
//! required) with 56 Pis (196 W, no cooling), and §IV notes that power and
//! cooling management "reportedly accounts for 33% of the total power
//! consumption in Cloud DCs". §III adds that the whole PiCloud "can run...
//! from a single trailing power socket board". This module models all three
//! claims:
//!
//! * [`PowerModel`] — a utilisation-linear curve from idle to nameplate
//!   draw, the standard first-order server power model.
//! * [`CoolingModel`] — overhead power as a fraction of total facility
//!   power, matching how the paper states the 33 % figure.
//! * [`PowerSocket`] — a feasibility check that a machine population fits a
//!   domestic socket.

use picloud_simcore::units::Power;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A machine's power draw as a linear function of utilisation.
///
/// `draw(u) = idle + (nameplate − idle) × u` — the standard first-order
/// model; the paper's Table I numbers are the `nameplate` points.
///
/// # Example
///
/// ```
/// use picloud_hardware::power::PowerModel;
///
/// let pi = PowerModel::raspberry_pi(3.5);
/// assert!(pi.draw_at(0.0).as_watts() < 3.5);
/// assert_eq!(pi.draw_at(1.0).as_watts(), 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    idle_watts: f64,
    nameplate_watts: f64,
}

impl PowerModel {
    /// Creates a model with explicit idle and nameplate (full-load) draw.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative/non-finite or `idle > nameplate`.
    pub fn new(idle_watts: f64, nameplate_watts: f64) -> Self {
        assert!(
            idle_watts.is_finite() && idle_watts >= 0.0,
            "idle power must be non-negative"
        );
        assert!(
            nameplate_watts.is_finite() && nameplate_watts >= idle_watts,
            "nameplate power must be at least idle power"
        );
        PowerModel {
            idle_watts,
            nameplate_watts,
        }
    }

    /// A Raspberry Pi drawing `nameplate_watts` at full load. Pis have a
    /// high idle floor (no deep sleep states on the BCM2835): ~70 % of
    /// nameplate.
    pub fn raspberry_pi(nameplate_watts: f64) -> Self {
        PowerModel::new(nameplate_watts * 0.7, nameplate_watts)
    }

    /// An x86 server drawing `nameplate_watts` at full load; 2013-era
    /// servers idled around 50 % of peak.
    pub fn x86_server(nameplate_watts: f64) -> Self {
        PowerModel::new(nameplate_watts * 0.5, nameplate_watts)
    }

    /// Idle draw.
    pub fn idle(&self) -> Power {
        Power::watts(self.idle_watts)
    }

    /// Full-load (nameplate) draw — the figure Table I quotes.
    pub fn nameplate(&self) -> Power {
        Power::watts(self.nameplate_watts)
    }

    /// Draw at `utilisation` ∈ [0, 1] (clamped).
    pub fn draw_at(&self, utilisation: f64) -> Power {
        let u = utilisation.clamp(0.0, 1.0);
        Power::watts(self.idle_watts + (self.nameplate_watts - self.idle_watts) * u)
    }

    /// First-order SoC temperature estimate at `utilisation`: ambient
    /// 22 °C plus a rise proportional to draw, scaled so full load sits
    /// 30 °C above ambient — the free-air-cooling envelope §IV argues a
    /// Pi cloud never leaves (no HVAC line in Table I).
    pub fn soc_temperature_at(&self, utilisation: f64) -> f64 {
        const AMBIENT_C: f64 = 22.0;
        const FULL_LOAD_RISE_C: f64 = 30.0;
        if self.nameplate_watts <= 0.0 {
            return AMBIENT_C;
        }
        let draw = self.draw_at(utilisation).as_watts();
        AMBIENT_C + FULL_LOAD_RISE_C * (draw / self.nameplate_watts)
    }
}

impl fmt::Display for PowerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}W idle / {:.1}W peak",
            self.idle_watts, self.nameplate_watts
        )
    }
}

/// Facility cooling overhead, expressed the way the paper quotes it: the
/// fraction of *total* facility power that cooling consumes.
///
/// If cooling is fraction `f` of total power and IT power is `P`, then
/// cooling power is `P · f / (1 − f)` — at the paper's 33 %, cooling adds
/// roughly half of IT power again.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingModel {
    fraction_of_total: f64,
}

impl CoolingModel {
    /// No cooling at all — the PiCloud row of Table I.
    pub const NONE: CoolingModel = CoolingModel {
        fraction_of_total: 0.0,
    };

    /// Creates a model where cooling is `fraction` of total facility power.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction < 1`.
    pub fn fraction_of_total(fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..1.0).contains(&fraction),
            "cooling fraction must be in [0, 1)"
        );
        CoolingModel {
            fraction_of_total: fraction,
        }
    }

    /// The 33 %-of-total figure the paper cites for cloud DCs.
    pub fn datacenter_typical() -> Self {
        CoolingModel::fraction_of_total(0.33)
    }

    /// Whether any cooling infrastructure is needed — Table I's
    /// "Needs Cooling?" column.
    pub fn is_required(&self) -> bool {
        self.fraction_of_total > 0.0
    }

    /// Cooling power needed for `it_power` of IT load.
    pub fn cooling_power(&self, it_power: Power) -> Power {
        let f = self.fraction_of_total;
        Power::watts(it_power.as_watts() * f / (1.0 - f))
    }

    /// Total facility power (IT + cooling) for `it_power` of IT load.
    pub fn total_power(&self, it_power: Power) -> Power {
        it_power + self.cooling_power(it_power)
    }
}

impl fmt::Display for CoolingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_required() {
            write!(
                f,
                "cooling = {:.0}% of total power",
                self.fraction_of_total * 100.0
            )
        } else {
            write!(f, "no cooling")
        }
    }
}

/// A domestic power socket (or trailing socket board) with a safe capacity.
///
/// §III: "we can run the PiCloud from a single trailing power socket
/// board."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSocket {
    capacity_watts: f64,
}

impl PowerSocket {
    /// A UK 13 A / 230 V socket: ~3 kW.
    pub fn uk_domestic() -> Self {
        PowerSocket {
            capacity_watts: 13.0 * 230.0,
        }
    }

    /// A socket with explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is not positive.
    pub fn with_capacity(watts: f64) -> Self {
        assert!(
            watts.is_finite() && watts > 0.0,
            "socket capacity must be positive"
        );
        PowerSocket {
            capacity_watts: watts,
        }
    }

    /// Socket capacity.
    pub fn capacity(&self) -> Power {
        Power::watts(self.capacity_watts)
    }

    /// Whether `load` fits this socket.
    pub fn can_supply(&self, load: Power) -> bool {
        load.as_watts() <= self.capacity_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation() {
        let m = PowerModel::new(100.0, 200.0);
        assert_eq!(m.draw_at(0.0).as_watts(), 100.0);
        assert_eq!(m.draw_at(0.5).as_watts(), 150.0);
        assert_eq!(m.draw_at(1.0).as_watts(), 200.0);
        // Clamping.
        assert_eq!(m.draw_at(-1.0).as_watts(), 100.0);
        assert_eq!(m.draw_at(2.0).as_watts(), 200.0);
    }

    #[test]
    fn table1_power_rows() {
        let pi_cloud: Power = (0..56)
            .map(|_| PowerModel::raspberry_pi(3.5).nameplate())
            .sum();
        let testbed: Power = (0..56)
            .map(|_| PowerModel::x86_server(180.0).nameplate())
            .sum();
        assert!((pi_cloud.as_watts() - 196.0).abs() < 1e-9);
        assert!((testbed.as_watts() - 10_080.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_33_percent_of_total() {
        let cooling = CoolingModel::datacenter_typical();
        let it = Power::watts(670.0);
        let total = cooling.total_power(it);
        let cool = cooling.cooling_power(it);
        assert!((cool.as_watts() / total.as_watts() - 0.33).abs() < 1e-9);
        assert!(cooling.is_required());
    }

    #[test]
    fn no_cooling_adds_nothing() {
        let it = Power::watts(196.0);
        assert_eq!(CoolingModel::NONE.total_power(it).as_watts(), 196.0);
        assert!(!CoolingModel::NONE.is_required());
    }

    #[test]
    fn picloud_fits_single_socket_testbed_does_not() {
        let socket = PowerSocket::uk_domestic();
        assert!(socket.can_supply(Power::watts(196.0)));
        assert!(!socket.can_supply(Power::watts(10_080.0)));
    }

    #[test]
    #[should_panic(expected = "at least idle")]
    fn nameplate_below_idle_rejected() {
        let _ = PowerModel::new(10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "cooling fraction")]
    fn cooling_fraction_one_rejected() {
        let _ = CoolingModel::fraction_of_total(1.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            PowerModel::new(1.0, 2.0).to_string(),
            "1.0W idle / 2.0W peak"
        );
        assert_eq!(CoolingModel::NONE.to_string(), "no cooling");
        assert!(CoolingModel::datacenter_typical()
            .to_string()
            .contains("33%"));
    }
}
