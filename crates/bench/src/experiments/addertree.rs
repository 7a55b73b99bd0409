//! Adder-tree vs CIM-P design-space sweep (the introduction's framing).
//!
//! The paper motivates CIM-P by contrast with adder-tree digital CIM
//! (its refs [2–5]): trees buy row-parallelism with "considerable
//! hardware overhead" and burn energy independent of sparsity, while
//! CIM-P "efficiently leverages the sparsity of SNNs". This experiment
//! quantifies both halves of that argument on a 128×128 binary array.

use esam_core::{energy_crossover, sparsity_sweep, AdderTreeMacro};
use esam_sram::{ArrayConfig, BitcellKind, SramMacro};

use crate::{BenchError, Table};

/// Spike densities swept (fractions of rows firing per timestep).
const DENSITIES: [f64; 6] = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50];

/// Builds the sparsity-sweep comparison table.
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn addertree_table() -> Result<Table, BenchError> {
    let mut table = Table::new(
        "Intro baseline — adder-tree CIM vs CIM-P (128×128, 4 ports, binary weights)",
        &[
            "spike density",
            "CIM-P cycles",
            "tree cycles",
            "CIM-P energy [pJ]",
            "tree energy [pJ]",
            "energy winner",
        ],
    );
    let points = sparsity_sweep(128, 128, 4, &DENSITIES)?;
    for point in &points {
        let winner = if point.cim_energy <= point.tree_energy {
            "CIM-P"
        } else {
            "adder tree"
        };
        table.row_owned(vec![
            format!("{:.0}%", point.spike_density * 100.0),
            point.cim_cycles.to_string(),
            point.tree_cycles.to_string(),
            format!("{:.3}", point.cim_energy.pj()),
            format!("{:.3}", point.tree_energy.pj()),
            winner.to_string(),
        ]);
    }

    let tree = AdderTreeMacro::new(128, 128)?;
    let cim = SramMacro::new(ArrayConfig::paper_default(BitcellKind::MultiPort {
        read_ports: 4,
    }));
    let crossover = energy_crossover(128, 128, 4)?;
    table.note(&format!(
        "area: fully column-parallel adder tree {:.0} µm² ({:.1}× plain array; refs [2-5] time-multiplex to trade this down) vs CIM-P 4R macro {:.0} µm²; {} gates/column tree",
        tree.area().value(),
        tree.area_overhead_vs_sram(),
        cim.area().total().value(),
        tree.tree_gates(),
    ));
    table.note(&format!(
        "energy crossover at ≈{:.1}% spike density — typical SNN layers run well below it, which is the intro's argument for CIM-P",
        crossover * 100.0
    ));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_rows_favor_cim_p_and_dense_rows_do_not() {
        let table = addertree_table().unwrap();
        assert_eq!(table.row_count(), DENSITIES.len());
        assert_eq!(table.cell(0, 5), Some("CIM-P"));
        // CIM-P energy grows with density; tree energy is flat.
        let cim: Vec<f64> = (0..table.row_count())
            .map(|r| table.cell(r, 3).unwrap().parse().unwrap())
            .collect();
        assert!(cim.windows(2).all(|w| w[0] <= w[1]));
        let tree: Vec<f64> = (0..table.row_count())
            .map(|r| table.cell(r, 4).unwrap().parse().unwrap())
            .collect();
        assert!((tree[0] - tree[tree.len() - 1]).abs() < 1e-9);
    }
}
