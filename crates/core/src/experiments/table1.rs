//! **T1 — Table I**: cost breakdown of a testbed consisting of 56 servers.
//!
//! The paper's table:
//!
//! | | Server | Power Needs | Cooling? |
//! |---|---|---|---|
//! | Testbed | $112,000 (@$2,000) | 10,080 W (@180 W) | Yes |
//! | PiCloud | $1,960 (@$35) | 196 W (@3.5 W) | No |
//!
//! These are nameplate arithmetic, so the reproduction must match them
//! *exactly*; the experiment additionally reports the modelled idle draw,
//! the §IV cooling overhead (33 % of total power) and the BoM context.

use crate::cluster::PiCloud;
use crate::report::{with_commas, TextTable};
use picloud_hardware::cost::{BillOfMaterials, TestbedCost};
use picloud_hardware::node::NodeSpec;
use picloud_simcore::units::{Money, Power};
use std::fmt;

/// One row of the reproduced table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Row label (`"Testbed"` / `"PiCloud"`).
    pub label: String,
    /// Number of machines.
    pub machines: u32,
    /// Per-unit cost.
    pub unit_cost: Money,
    /// Total cost.
    pub total_cost: Money,
    /// Per-unit nameplate power.
    pub unit_power: Power,
    /// Total nameplate power.
    pub total_power: Power,
    /// Total *facility* power including cooling overhead.
    pub total_power_with_cooling: Power,
    /// Whether cooling infrastructure is needed.
    pub needs_cooling: bool,
}

/// The reproduced Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The two rows, Testbed first (as in the paper).
    pub rows: Vec<Table1Row>,
    /// How many times cheaper the PiCloud is.
    pub cost_factor: f64,
    /// How many times less power the PiCloud draws (nameplate).
    pub power_factor: f64,
    /// The paper's inferred Pi bill of materials, for the §IV discussion.
    pub pi_bom: BillOfMaterials,
}

impl Table1 {
    /// Runs the comparison for `machines` servers per platform (56 in the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero.
    pub fn run(machines: u16) -> Table1 {
        assert!(machines > 0, "a testbed needs machines");
        let per_rack = machines.div_ceil(4);
        let racks = machines.div_ceil(per_rack);
        let machines = u32::from(machines);
        let row = |label: &str, cloud: &PiCloud| {
            let unit_power = cloud.node_spec().power.nameplate();
            let total_power = cloud.nameplate_power();
            let cooling = cloud.cooling();
            Table1Row {
                label: label.to_owned(),
                machines,
                unit_cost: cloud.node_spec().unit_cost,
                total_cost: cloud.hardware_cost(),
                unit_power,
                total_power,
                total_power_with_cooling: cooling.total_power(total_power),
                needs_cooling: cooling.is_required(),
            }
        };
        // Build both platforms as actual clouds so the figures come out of
        // the same inventory code the rest of the emulator uses.
        let build = |spec: NodeSpec| {
            PiCloud::builder()
                .racks(racks)
                .pis_per_rack(per_rack)
                .node_spec(spec)
                .build()
        };
        let testbed = build(NodeSpec::x86_commodity());
        let picloud = build(NodeSpec::pi_model_b_rev1());
        let rows = vec![row("Testbed", &testbed), row("PiCloud", &picloud)];
        let cost_factor = TestbedCost::new(machines, rows[1].unit_cost)
            .cheaper_factor_vs(&TestbedCost::new(machines, rows[0].unit_cost));
        let power_factor = rows[0].total_power.as_watts() / rows[1].total_power.as_watts();
        Table1 {
            rows,
            cost_factor,
            power_factor,
            pi_bom: BillOfMaterials::raspberry_pi_estimate(),
        }
    }

    /// The paper's exact configuration (56 machines).
    pub fn paper() -> Table1 {
        Table1::run(56)
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(vec![
            "".into(),
            "Server".into(),
            "Power Needs".into(),
            "Cooling?".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                format!(
                    "${} (@${})",
                    with_commas(r.total_cost.as_dollars_f64() as u64),
                    r.unit_cost.as_dollars_f64() as u64
                ),
                format!(
                    "{}W/h (@{}W/h)",
                    with_commas(r.total_power.as_watts() as u64),
                    r.unit_power.as_watts()
                ),
                if r.needs_cooling { "Yes" } else { "No" }.into(),
            ]);
        }
        writeln!(
            f,
            "TABLE I: Cost breakdown of a testbed consisting {} servers",
            self.rows[0].machines
        )?;
        write!(f, "{t}")?;
        writeln!(
            f,
            "PiCloud is {:.1}x cheaper and draws {:.1}x less power (nameplate).",
            self.cost_factor, self.power_factor
        )?;
        writeln!(
            f,
            "With cooling at 33% of total power, the x86 facility draws {:.0} W.",
            self.rows[0].total_power_with_cooling.as_watts()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_exactly() {
        let t = Table1::paper();
        let testbed = &t.rows[0];
        let picloud = &t.rows[1];
        assert_eq!(testbed.total_cost, Money::dollars(112_000));
        assert_eq!(testbed.unit_cost, Money::dollars(2_000));
        assert!((testbed.total_power.as_watts() - 10_080.0).abs() < 1e-9);
        assert!(testbed.needs_cooling);
        assert_eq!(picloud.total_cost, Money::dollars(1_960));
        assert_eq!(picloud.unit_cost, Money::dollars(35));
        assert!((picloud.total_power.as_watts() - 196.0).abs() < 1e-9);
        assert!(!picloud.needs_cooling);
    }

    #[test]
    fn factors_match_the_papers_framing() {
        let t = Table1::paper();
        // "several orders of magnitude smaller" in cost per the paper's
        // rhetoric; arithmetically ~57x cheaper, ~51x less power.
        assert!((t.cost_factor - 112_000.0 / 1_960.0).abs() < 1e-9);
        assert!((t.power_factor - 10_080.0 / 196.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_overhead_is_half_of_it_power() {
        let t = Table1::paper();
        let testbed = &t.rows[0];
        let overhead = testbed.total_power_with_cooling.as_watts() - testbed.total_power.as_watts();
        // f/(1-f) at 33% ≈ 0.4925 of IT power.
        assert!((overhead / testbed.total_power.as_watts() - 0.33 / 0.67).abs() < 1e-9);
        // The PiCloud row adds nothing.
        assert_eq!(t.rows[1].total_power_with_cooling, t.rows[1].total_power);
    }

    #[test]
    fn bom_sits_below_retail() {
        let t = Table1::paper();
        assert!(t.pi_bom.total() < t.rows[1].unit_cost);
    }

    #[test]
    fn rendering_matches_paper_strings() {
        let s = Table1::paper().to_string();
        assert!(s.contains("$112,000 (@$2000)"), "{s}");
        assert!(s.contains("$1,960 (@$35)"), "{s}");
        assert!(s.contains("10,080W/h (@180W/h)"), "{s}");
        assert!(s.contains("196W/h (@3.5W/h)"), "{s}");
        assert!(s.contains("Yes") && s.contains("No"));
    }

    #[test]
    fn scales_to_other_testbed_sizes() {
        let t = Table1::run(40);
        assert_eq!(t.rows[0].total_cost, Money::dollars(80_000));
        assert_eq!(t.rows[1].total_cost, Money::dollars(1_400));
    }
}
