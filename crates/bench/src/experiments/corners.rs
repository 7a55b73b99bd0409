//! DVFS / Vt-flavor corner projection (Table 3's closing note).
//!
//! *"For applications that have lower throughput demands, a lower VDD,
//! lower clock frequency, and HVT transistors can be utilized to
//! significantly reduce power consumption, while maintaining similar
//! energy/Inference."* This experiment projects the paper-anchored 4R
//! system (810 MHz, 44 MInf/s, 29 mW) across operating corners using the
//! alpha-power DVFS model.

use esam_tech::calibration::paper;
use esam_tech::dvfs::OperatingPoint;
use esam_tech::finfet::VtFlavor;
use esam_tech::units::{Hertz, Volts};

use crate::Table;

/// Leakage share of total power at the nominal corner, from the system
/// model's dynamic/leakage split (≈8 % of 29 mW).
const NOMINAL_LEAKAGE_FRACTION: f64 = 0.08;

/// The corners swept: the paper point plus three energy-oriented options.
fn corner_set() -> Vec<(&'static str, OperatingPoint)> {
    vec![
        ("nominal 700 mV SVT", OperatingPoint::nominal()),
        (
            "600 mV SVT",
            OperatingPoint::new(Volts::from_mv(600.0), VtFlavor::Svt),
        ),
        (
            "500 mV SVT",
            OperatingPoint::new(Volts::from_mv(500.0), VtFlavor::Svt),
        ),
        (
            "500 mV HVT (paper's eco option)",
            OperatingPoint::new(Volts::from_mv(500.0), VtFlavor::Hvt),
        ),
    ]
}

/// Builds the corner-projection table.
pub fn corners_table() -> Table {
    let mut table = Table::new(
        "Table 3 note — DVFS/HVT corner projection of the 4R system",
        &[
            "corner",
            "clock [MHz]",
            "throughput [MInf/s]",
            "power [mW]",
            "energy/Inf [pJ]",
        ],
    );
    let nominal = OperatingPoint::nominal();
    let base_clock = Hertz::from_mhz(paper::SYSTEM_CLOCK_MHZ);
    let base_throughput = paper::SYSTEM_THROUGHPUT_INF_S;
    let base_power_mw = paper::SYSTEM_POWER_MW;
    let base_dynamic = base_power_mw * (1.0 - NOMINAL_LEAKAGE_FRACTION);
    let base_leak = base_power_mw * NOMINAL_LEAKAGE_FRACTION;

    for (name, corner) in corner_set() {
        let f = corner.frequency_scale(&nominal);
        let clock = corner.max_clock(&nominal, base_clock);
        let throughput = base_throughput * f;
        let dynamic = base_dynamic * corner.dynamic_power_scale(&nominal);
        let leak = base_leak * corner.leakage_power_scale(&nominal);
        let power = dynamic + leak;
        // pJ/Inf = mW / MInf/s × 1000; leakage is amortized over the
        // (slower) inference stream.
        let energy_pj = power / (throughput / 1e6) * 1000.0;
        table.row_owned(vec![
            name.to_string(),
            format!("{:.0}", clock.mhz()),
            format!("{:.1}", throughput / 1e6),
            format!("{:.2}", power),
            format!("{:.0}", energy_pj),
        ]);
    }
    table.note(&format!(
        "anchored on Table 3: {} MHz, {:.0} MInf/s, {} mW, {} pJ/Inf; leakage share {:.0}%",
        paper::SYSTEM_CLOCK_MHZ,
        paper::SYSTEM_THROUGHPUT_INF_S / 1e6,
        paper::SYSTEM_POWER_MW,
        paper::SYSTEM_ENERGY_PER_INF_PJ,
        NOMINAL_LEAKAGE_FRACTION * 100.0,
    ));
    table.note("the eco corner trades ~2.5× clock for ~4-5× lower power at slightly *better* energy/Inf — exactly the paper's stated escape hatch");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eco_corner_cuts_power_but_keeps_energy_per_inf() {
        let table = corners_table();
        assert_eq!(table.row_count(), 4);
        let power = |r: usize| -> f64 { table.cell(r, 3).unwrap().parse().unwrap() };
        let energy = |r: usize| -> f64 { table.cell(r, 4).unwrap().parse().unwrap() };
        // Power falls monotonically down the corner list.
        for r in 1..4 {
            assert!(power(r) < power(r - 1), "power must fall at row {r}");
        }
        // The eco corner: ≥4× power cut, energy/Inf within ±50 % of nominal.
        assert!(power(3) < power(0) / 4.0, "eco power {}", power(3));
        let ratio = energy(3) / energy(0);
        assert!((0.4..1.5).contains(&ratio), "energy/Inf drifted: {ratio}");
    }

    #[test]
    fn nominal_row_reproduces_the_paper_anchor() {
        let table = corners_table();
        let clock: f64 = table.cell(0, 1).unwrap().parse().unwrap();
        let throughput: f64 = table.cell(0, 2).unwrap().parse().unwrap();
        let power: f64 = table.cell(0, 3).unwrap().parse().unwrap();
        assert!((clock - 810.0).abs() < 1.0);
        assert!((throughput - 44.0).abs() < 0.5);
        assert!((power - 29.0).abs() < 0.1);
    }
}
