//! Table 3 reproduction: comparison with state-of-the-art small-scale SNN
//! accelerators.

use esam_core::baselines::{sota_entries, this_work_descriptor};
use esam_core::{SystemConfig, SystemMetrics};
use esam_sram::BitcellKind;
use esam_tech::calibration::paper;

use crate::Table;

/// Renders Table 3: the three literature columns (quoted) next to the
/// measured "This Work" column and the paper's own "This Work" values.
pub fn table3_table(four_port: &SystemMetrics, accuracy_percent: f64) -> Table {
    let mut table = Table::new(
        "Table 3 — Comparison with state-of-the-art small-scale SNN accelerators",
        &[
            "quantity",
            "[6]",
            "[9]",
            "[10]",
            "this work (measured)",
            "this work (paper)",
        ],
    );
    let sota = sota_entries();
    let config = SystemConfig::paper_default(BitcellKind::multiport(4).expect("4 ports"));
    let descriptor = this_work_descriptor(&config);

    let fmt_opt = |v: Option<u8>| v.map_or("-".to_string(), |b| b.to_string());
    table.row_owned(vec![
        "technology [nm]".into(),
        format!("{:.0}", sota[0].technology_nm),
        format!("{:.0}", sota[1].technology_nm),
        format!("{:.0}", sota[2].technology_nm),
        descriptor.technology_nm.to_string(),
        "3".into(),
    ]);
    table.row_owned(vec![
        "neurons".into(),
        sota[0].neurons.to_string(),
        sota[1].neurons.to_string(),
        sota[2].neurons.to_string(),
        descriptor.neurons.to_string(),
        paper::SYSTEM_NEURON_COUNT.to_string(),
    ]);
    table.row_owned(vec![
        "synapses".into(),
        sota[0].synapses.to_string(),
        sota[1].synapses.to_string(),
        sota[2].synapses.to_string(),
        descriptor.synapses.to_string(),
        paper::SYSTEM_SYNAPSE_COUNT.to_string(),
    ]);
    table.row_owned(vec![
        "activation bits".into(),
        fmt_opt(sota[0].activation_bits),
        fmt_opt(sota[1].activation_bits),
        fmt_opt(sota[2].activation_bits),
        descriptor.activation_bits.to_string(),
        "1".into(),
    ]);
    table.row_owned(vec![
        "weight bits".into(),
        sota[0].weight_bits.to_string(),
        sota[1].weight_bits.to_string(),
        sota[2].weight_bits.to_string(),
        descriptor.weight_bits.to_string(),
        "1".into(),
    ]);
    table.row_owned(vec![
        "transposable".into(),
        yes_no(sota[0].transposable),
        yes_no(sota[1].transposable),
        yes_no(sota[2].transposable),
        yes_no(descriptor.transposable),
        "yes".into(),
    ]);
    table.row_owned(vec![
        "clock".into(),
        "70 kHz".into(),
        "506 MHz".into(),
        "100 MHz".into(),
        format!("{:.0} MHz", four_port.clock.mhz()),
        format!("{:.0} MHz", paper::SYSTEM_CLOCK_MHZ),
    ]);
    table.row_owned(vec![
        "power".into(),
        "305 nW".into(),
        "196 mW*".into(),
        "53 mW".into(),
        format!("{:.1} mW", four_port.total_power().mw()),
        format!("{:.0} mW", paper::SYSTEM_POWER_MW),
    ]);
    table.row_owned(vec![
        "accuracy [%]".into(),
        format!("{:.1}", sota[0].accuracy_percent),
        format!("{:.1}", sota[1].accuracy_percent),
        format!("{:.1}", sota[2].accuracy_percent),
        format!("{accuracy_percent:.1}**"),
        format!("{:.1}", paper::MNIST_ACCURACY_PERCENT),
    ]);
    table.row_owned(vec![
        "throughput [inf/s]".into(),
        "2".into(),
        "6250".into(),
        "20".into(),
        format!("{:.1}M", four_port.throughput_minf_s()),
        "44M".into(),
    ]);
    table.row_owned(vec![
        "energy/inf".into(),
        "195 nJ".into(),
        "1000 nJ".into(),
        "-".into(),
        format!("{:.0} pJ", four_port.energy_per_inf.pj()),
        format!("{:.0} pJ", paper::SYSTEM_ENERGY_PER_INF_PJ),
    ]);
    table.note("* inferred by the paper from SOP/s/mm², area and pJ/SOP");
    table.note("** on the synthetic digit set (MNIST is unavailable offline; see README.md, \"Which `repro` id reproduces what\")");
    table
}

fn yes_no(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esam_tech::units::{AreaUm2, Hertz, Joules, Seconds, Watts};

    #[test]
    fn table_renders_all_rows() {
        let metrics = SystemMetrics {
            clock: Hertz::from_mhz(766.0),
            bottleneck_cycles: 16.1,
            throughput_inf_s: 47.6e6,
            latency: Seconds::from_ns(90.0),
            energy_per_inf: Joules::from_pj(605.0),
            dynamic_power: Watts::from_mw(28.8),
            leakage_power: Watts::from_mw(2.1),
            area: AreaUm2::new(17_657.0),
            learning: None,
        };
        let t = table3_table(&metrics, 97.8);
        assert_eq!(t.row_count(), 11);
        assert_eq!(t.cell(1, 4), Some("778"));
        assert_eq!(t.cell(2, 5), Some("330240"));
    }
}
