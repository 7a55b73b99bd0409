//! Property tests for the functional SRAM array: port semantics, transposed
//! access, and physical-model monotonicities.

use esam_bits::{BitMatrix, BitVec};
use esam_sram::AccessStats;
use esam_sram::{
    ArrayConfig, BitcellKind, EnergyAnalysis, IntegrityMode, IntegrityTally, SramArray,
    TimingAnalysis,
};
use esam_tech::units::{Joules, Volts};
use proptest::prelude::*;

fn weights(rows: usize, cols: usize) -> impl Strategy<Value = BitMatrix> {
    any::<u64>().prop_map(move |seed| {
        BitMatrix::from_fn(rows, cols, |r, c| {
            (seed >> ((r * 13 + c * 7) % 64)) & 1 == 1
        })
    })
}

/// A pseudo-random bit vector of `len` bits drawn from `seed`.
fn bits_from(len: usize, seed: u64) -> BitVec {
    (0..len)
        .map(|i| (seed.rotate_left((i * 7) as u32) ^ (i as u64 * 0x9e37)) & 1 == 1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn column_view_tracks_every_mutator(
        ports in 0u8..=4,
        initial in weights(124, 100),
        ops in proptest::collection::vec((0u8..5, 0usize..124, 0usize..100, any::<u64>()), 1..24),
    ) {
        // A ragged 124×100 block: both dimensions leave a partial last
        // word. Multiport cells write columns through the transposed port,
        // the 6T baseline rewrites rows through its RW port.
        let cell = if ports == 0 {
            BitcellKind::Std6T
        } else {
            BitcellKind::multiport(ports).unwrap()
        };
        let mut array = SramArray::new(ArrayConfig::builder(124, 100, cell).build().unwrap());
        array.load_weights(&initial).unwrap();
        array.enable_ecc();
        let mut golden = initial;
        let mut tally = IntegrityTally::default();
        for (step, &(op, row, col, seed)) in ops.iter().enumerate() {
            match op {
                0 => {
                    golden = BitMatrix::from_fn(124, 100, |r, c| (seed >> ((r * 5 + c * 3) % 64)) & 1 == 1);
                    array.load_weights(&golden).unwrap();
                }
                1 => array.flip_bit(row, col).unwrap(),
                2 if cell.is_transposable() => {
                    array.transposed_write(col, &bits_from(124, seed)).unwrap();
                }
                2 => array.rowwise_write(row, &bits_from(100, seed)).unwrap(),
                3 => array.scrub_audited(&golden, IntegrityMode::Detect, &mut tally).unwrap(),
                _ => array.scrub_audited(&golden, IntegrityMode::Correct, &mut tally).unwrap(),
            }
            for c in 0..100 {
                let gathered = array.bits().column(c);
                prop_assert_eq!(
                    array.column_words(c),
                    gathered.words(),
                    "step {} op {} column {}",
                    step,
                    op,
                    c
                );
            }
        }
    }

    #[test]
    fn inference_reads_mirror_contents_on_every_port(
        w in weights(128, 128),
        row in 0usize..128,
    ) {
        for ports in 1..=4u8 {
            let cell = BitcellKind::multiport(ports).unwrap();
            let mut array = SramArray::new(ArrayConfig::paper_default(cell));
            array.load_weights(&w).unwrap();
            for port in 0..ports as usize {
                let bits = array.inference_read(port, row).unwrap();
                prop_assert_eq!(&bits, &w.row(row), "port {} row {}", port, row);
            }
        }
    }

    #[test]
    fn transposed_write_then_read_roundtrips(
        w in weights(128, 128),
        col in 0usize..128,
        column_seed in any::<u64>(),
    ) {
        let cell = BitcellKind::multiport(4).unwrap();
        let mut array = SramArray::new(ArrayConfig::paper_default(cell));
        array.load_weights(&w).unwrap();
        let column: BitVec = (0..128).map(|r| (column_seed >> (r % 64)) & 1 == 1).collect();
        array.transposed_write(col, &column).unwrap();
        prop_assert_eq!(array.transposed_read(col).unwrap(), column);
        // Neighbouring columns are untouched.
        let other = (col + 1) % 128;
        prop_assert_eq!(array.transposed_read(other).unwrap(), w.column(other));
    }

    #[test]
    fn rowwise_rmw_equals_transposed_update(
        w in weights(64, 64),
        col in 0usize..64,
        column_seed in any::<u64>(),
    ) {
        // The 6T baseline's row-wise read-modify-write must produce the same
        // final contents as a multiport transposed write.
        let column: BitVec = (0..64).map(|r| (column_seed >> (r % 64)) & 1 == 1).collect();

        let mp = BitcellKind::multiport(2).unwrap();
        let mut multi = SramArray::new(ArrayConfig::builder(64, 64, mp).build().unwrap());
        multi.load_weights(&w).unwrap();
        let _old_column = multi.transposed_read(col).unwrap(); // read-modify-write
        multi.transposed_write(col, &column).unwrap();

        let mut single = SramArray::new(ArrayConfig::builder(64, 64, BitcellKind::Std6T).build().unwrap());
        single.load_weights(&w).unwrap();
        for row in 0..64 {
            let mut bits = single.rowwise_read(row).unwrap();
            bits.set(col, column.get(row));
            single.rowwise_write(row, &bits).unwrap();
        }
        prop_assert_eq!(single.bits(), multi.bits());
        // …but at wildly different access cost (the §4.4.1 point).
        prop_assert_eq!(multi.stats().rw_read_cycles + multi.stats().rw_write_cycles, 8);
        prop_assert_eq!(single.stats().rw_read_cycles + single.stats().rw_write_cycles, 128);
    }

    #[test]
    fn zero_count_energy_accounting_is_exact(
        w in weights(128, 128),
        row in 0usize..128,
    ) {
        let cell = BitcellKind::multiport(3).unwrap();
        let mut array = SramArray::new(ArrayConfig::paper_default(cell));
        array.load_weights(&w).unwrap();
        array.inference_read(0, row).unwrap();
        let zeros = 128 - w.row(row).count_ones();
        prop_assert_eq!(array.stats().inference_zero_bits, zeros as u64);
        let expected = EnergyAnalysis::new(array.config()).inference_read(zeros);
        let consumed = array.consumed_energy().unwrap();
        prop_assert!((consumed.fj() - expected.fj()).abs() < 1e-9);
    }

    #[test]
    fn cached_energies_match_a_fresh_analysis(
        rail_mv in 320.0f64..700.0,
        counts in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        writes in any::<bool>(),
    ) {
        // The array evaluates its per-access energies once; every
        // reconstruction must keep the bits of the expression evaluated on
        // a fresh analysis.
        let stats = AccessStats {
            inference_reads: u64::from(counts.0),
            inference_zero_bits: u64::from(counts.1),
            rw_read_cycles: u64::from(counts.2),
            rw_write_cycles: if writes { u64::from(counts.3) } else { 0 },
        };
        for cell in BitcellKind::ALL {
            let config = ArrayConfig::builder(128, 128, cell)
                .vprech(Volts::from_mv(rail_mv))
                .build()
                .unwrap();
            let array = SramArray::new(config);
            let energy = EnergyAnalysis::new(array.config());
            let write = if stats.rw_write_cycles > 0 {
                energy.rw_write_cycle().unwrap() * stats.rw_write_cycles as f64
            } else {
                Joules::ZERO
            };
            let expected = energy.inference_read_fixed() * stats.inference_reads as f64
                + energy.inference_read_per_zero() * stats.inference_zero_bits as f64
                + energy.rw_read_cycle() * stats.rw_read_cycles as f64
                + write;
            let got = array.energy_for_stats(&stats).unwrap();
            prop_assert_eq!(got.value().to_bits(), expected.value().to_bits(), "{}", cell);
        }
    }

    #[test]
    fn lower_precharge_rail_never_speeds_access(
        ports in 1u8..=4,
        rail_mv in 320.0f64..700.0,
    ) {
        // Monotonicity of the Fig. 7 time axis: any rail below 700 mV is at
        // least as slow as 700 mV.
        let cell = BitcellKind::multiport(ports).unwrap();
        let low = ArrayConfig::builder(128, 128, cell)
            .vprech(Volts::from_mv(rail_mv))
            .build()
            .unwrap();
        let high = ArrayConfig::builder(128, 128, cell)
            .vprech(Volts::from_mv(700.0))
            .build()
            .unwrap();
        let t_low = TimingAnalysis::new(&low).inference_read().total();
        let t_high = TimingAnalysis::new(&high).inference_read().total();
        prop_assert!(t_low >= t_high);
    }

    #[test]
    fn smaller_arrays_are_never_slower_or_hungrier(
        rows in 1usize..=128,
        cols in 1usize..=128,
    ) {
        // Any sub-array of the paper's 128×128 has shorter lines: its access
        // time and per-op energy cannot exceed the full array's.
        prop_assume!(rows.is_multiple_of(4) || rows < 4);
        let cell = BitcellKind::multiport(4).unwrap();
        let mux = if rows.is_multiple_of(4) { 4 } else { 1 };
        let small = ArrayConfig::builder(rows, cols, cell).mux_ratio(mux).build().unwrap();
        let full = ArrayConfig::paper_default(cell);
        let t_small = TimingAnalysis::new(&small).inference_read().total();
        let t_full = TimingAnalysis::new(&full).inference_read().total();
        prop_assert!(t_small.ps() <= t_full.ps() + 1e-6);
        let e_small = EnergyAnalysis::new(&small).inference_read_fixed();
        let e_full = EnergyAnalysis::new(&full).inference_read_fixed();
        prop_assert!(e_small.fj() <= e_full.fj() + 1e-9);
    }
}
