//! Fig. 7 reproduction: average access energy and time per port count for
//! different precharge rails (128×128 arrays, full port utilization).

use esam_sram::{ArrayConfig, BitcellKind, EnergyAnalysis, TimingAnalysis};
use esam_tech::units::Volts;

use crate::{BenchError, Table};

/// Precharge rails swept by the figure (mV).
const RAILS_MV: [f64; 4] = [700.0, 600.0, 500.0, 400.0];

/// Reproduces Fig. 7. "Total access time is calculated as the sum of the
/// precharge time and the Read time" (§4.2); with `p` ports fully utilized,
/// the average per access divides by `p`. Energy assumes the typical ~50 %
/// zero-bits per read row.
pub fn fig7_table() -> Result<Table, BenchError> {
    let mut table = Table::new(
        "Fig. 7 — Avg access time/energy vs ports and V_prech (128×128, full utilization)",
        &[
            "V_prech [mV]",
            "ports",
            "access time/port [ps]",
            "access energy/port [fJ]",
        ],
    );
    for &rail in &RAILS_MV {
        for ports in 1..=4u8 {
            let cell = BitcellKind::multiport(ports).expect("1..=4 ports");
            let config = ArrayConfig::builder(128, 128, cell)
                .vprech(Volts::from_mv(rail))
                .build()?;
            let timing = TimingAnalysis::new(&config).inference_read();
            let energy = EnergyAnalysis::new(&config).inference_read(64);
            table.row_owned(vec![
                format!("{rail:.0}"),
                ports.to_string(),
                format!("{:.0}", timing.total().ps() / ports as f64),
                format!("{:.1}", energy.fj()),
            ]);
        }
    }
    table.note("paper: V_prech 700→500 mV saves ≥43% energy at ≤19% slower access; 400 mV helps 1–2-port cells but hurts 3–4-port cells");
    Ok(table)
}

/// Key Fig. 7 scalars for assertions: energy saving of 500 mV vs 700 mV
/// and of 400 mV vs 500 mV for a given port count.
pub fn fig7_savings(ports: u8) -> Result<(f64, f64), BenchError> {
    let energy_at = |mv: f64| -> Result<f64, BenchError> {
        let cell = BitcellKind::multiport(ports).expect("1..=4 ports");
        let config = ArrayConfig::builder(128, 128, cell)
            .vprech(Volts::from_mv(mv))
            .build()?;
        Ok(EnergyAnalysis::new(&config).inference_read(64).fj())
    };
    let e700 = energy_at(700.0)?;
    let e500 = energy_at(500.0)?;
    let e400 = energy_at(400.0)?;
    Ok((1.0 - e500 / e700, 1.0 - e400 / e500))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_the_sweep() {
        let t = fig7_table().unwrap();
        assert_eq!(t.row_count(), 16);
    }

    #[test]
    fn savings_match_paper_shape() {
        // ≥43 % at 500 mV for every port count.
        for ports in 1..=4 {
            let (s500, _) = fig7_savings(ports).unwrap();
            assert!(s500 > 0.40, "p={ports}: 500 mV saving {s500:.3}");
        }
        // 400 mV: helps 1–2 ports, hurts 3–4 ports.
        assert!(fig7_savings(1).unwrap().1 > 0.0);
        assert!(fig7_savings(2).unwrap().1 > 0.0);
        assert!(fig7_savings(3).unwrap().1 < 0.0);
        assert!(fig7_savings(4).unwrap().1 < 0.0);
    }

    #[test]
    fn access_time_falls_with_ports() {
        let t = fig7_table().unwrap();
        // Within each rail, time/port decreases with port count.
        for rail_index in 0..4 {
            let mut prev = f64::INFINITY;
            for port_index in 0..4 {
                let row = rail_index * 4 + port_index;
                let v: f64 = t.cell(row, 2).unwrap().parse().unwrap();
                assert!(
                    v < prev,
                    "rail {rail_index}: time/port must fall with ports"
                );
                prev = v;
            }
        }
    }
}
