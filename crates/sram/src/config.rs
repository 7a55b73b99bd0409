//! SRAM array configuration and validation.

use esam_tech::calibration::paper;
use esam_tech::nbl::NblModel;
use esam_tech::process::VariationModel;
use esam_tech::units::Volts;

use crate::cell::BitcellKind;
use crate::error::SramError;
use crate::lines::ArrayGeometry;

/// Configuration of one SRAM array macro.
///
/// Construct with [`ArrayConfig::builder`]; [`ArrayConfig::paper_default`]
/// gives the paper's 128×128 / 700 mV / 500 mV setup (Table 1) for any cell
/// kind.
///
/// # Examples
///
/// ```
/// use esam_sram::{ArrayConfig, BitcellKind};
///
/// let cfg = ArrayConfig::paper_default(BitcellKind::multiport(4).unwrap());
/// assert_eq!(cfg.rows(), 128);
/// assert!(cfg.write_assist().unwrap().mv() < 0.0); // NBL kick required
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayConfig {
    rows: usize,
    cols: usize,
    cell: BitcellKind,
    vdd: Volts,
    vprech: Volts,
    mux_ratio: usize,
    variation: VariationModel,
    nbl: NblModel,
}

impl ArrayConfig {
    /// Starts building a configuration for a `rows × cols` array of `cell`s.
    pub fn builder(rows: usize, cols: usize, cell: BitcellKind) -> ArrayConfigBuilder {
        ArrayConfigBuilder {
            config: ArrayConfig {
                rows,
                cols,
                cell,
                vdd: Volts::from_mv(paper::VDD_MV),
                vprech: Volts::from_mv(paper::VPRECH_MV),
                mux_ratio: 4,
                variation: VariationModel::paper_default(),
                nbl: NblModel::paper_default(),
            },
        }
    }

    /// The paper's experimental setup (Table 1): 128×128 array, 700 mV
    /// supply, 500 mV precharge for the decoupled ports, 4:1 row mux,
    /// worst-case ±3σ cell.
    pub fn paper_default(cell: BitcellKind) -> Self {
        Self::builder(128, 128, cell)
            .build()
            .expect("the paper's 128x128 configuration is always valid")
    }

    /// Array rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The bitcell kind.
    pub fn cell(&self) -> BitcellKind {
        self.cell
    }

    /// Supply voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Precharge rail of the decoupled single-ended read ports.
    pub fn vprech(&self) -> Volts {
        self.vprech
    }

    /// Row-mux ratio of the transposed port sense amplifiers (4 in the
    /// paper, giving the `2 × 4` learning cycles of §4.4.1).
    pub fn mux_ratio(&self) -> usize {
        self.mux_ratio
    }

    /// Process-variation model (±3σ worst case by default).
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// NBL write-assist model.
    pub fn nbl(&self) -> &NblModel {
        &self.nbl
    }

    /// Geometry view of the array.
    pub fn geometry(&self) -> ArrayGeometry {
        ArrayGeometry::new(self.rows, self.cols, self.cell)
    }

    /// The negative bitline voltage the write driver must generate.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::WriteMargin`] when the array dimensions violate
    /// the −400 mV yield rule (§4.1).
    pub fn write_assist(&self) -> Result<Volts, SramError> {
        let geometry = self.geometry();
        Ok(self.nbl.required_assist(
            geometry.cells_on_write_bitline(),
            self.cell.area_multiplier(),
        )?)
    }

    fn validate(&self) -> Result<(), SramError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(SramError::InvalidConfig(
                "array dimensions must be non-zero".into(),
            ));
        }
        if self.vdd.v() <= 0.0 {
            return Err(SramError::InvalidConfig("VDD must be positive".into()));
        }
        if self.vprech.v() <= 0.0 || self.vprech > self.vdd {
            return Err(SramError::InvalidConfig(format!(
                "precharge rail {} must lie in (0, VDD = {}]",
                self.vprech, self.vdd
            )));
        }
        if self.mux_ratio == 0 || !self.rows.is_multiple_of(self.mux_ratio) {
            return Err(SramError::InvalidConfig(format!(
                "mux ratio {} must divide the row count {}",
                self.mux_ratio, self.rows
            )));
        }
        // Precharge devices need overdrive to operate at all.
        if self.vprech.v() <= esam_tech::calibration::fitted::PRECHARGE_VTP {
            return Err(SramError::InvalidConfig(format!(
                "precharge rail {} leaves no overdrive over the {} mV device threshold",
                self.vprech,
                esam_tech::calibration::fitted::PRECHARGE_VTP * 1e3
            )));
        }
        // The NBL yield rule (§4.1) is what actually limits array sizes.
        self.write_assist()?;
        Ok(())
    }
}

/// Builder for [`ArrayConfig`] (`C-BUILDER`).
#[derive(Debug, Clone)]
pub struct ArrayConfigBuilder {
    config: ArrayConfig,
}

impl ArrayConfigBuilder {
    /// Sets the supply voltage (default 700 mV).
    pub fn vdd(mut self, vdd: Volts) -> Self {
        self.config.vdd = vdd;
        self
    }

    /// Sets the decoupled-port precharge rail (default 500 mV).
    pub fn vprech(mut self, vprech: Volts) -> Self {
        self.config.vprech = vprech;
        self
    }

    /// Sets the transposed-port row-mux ratio (default 4).
    pub fn mux_ratio(mut self, mux_ratio: usize) -> Self {
        self.config.mux_ratio = mux_ratio;
        self
    }

    /// Sets the process-variation model (default ±3σ worst case).
    pub fn variation(mut self, variation: VariationModel) -> Self {
        self.config.variation = variation;
        self
    }

    /// Sets the NBL write-assist model.
    pub fn nbl(mut self, nbl: NblModel) -> Self {
        self.config.nbl = nbl;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidConfig`] for malformed parameters and
    /// [`SramError::WriteMargin`] for array sizes the NBL rule rejects.
    pub fn build(self) -> Result<ArrayConfig, SramError> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// The configuration without validation, so the crate's tests can
    /// build an array past the NBL write-margin limit.
    #[cfg(test)]
    pub(crate) fn build_unchecked(self) -> ArrayConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_for_all_cells() {
        for cell in BitcellKind::ALL {
            let cfg = ArrayConfig::paper_default(cell);
            assert_eq!((cfg.rows(), cfg.cols()), (128, 128));
            assert!((cfg.vdd().mv() - 700.0).abs() < 1e-9);
            assert!(cfg.write_assist().is_ok());
        }
    }

    #[test]
    fn oversized_arrays_are_rejected() {
        for cell in BitcellKind::ALL {
            let result = ArrayConfig::builder(256, 256, cell).build();
            assert!(
                matches!(result, Err(SramError::WriteMargin(_))),
                "256x256 must violate the yield rule for {cell}"
            );
        }
    }

    #[test]
    fn transposed_cells_are_limited_by_columns() {
        // The multiport write BL runs along the columns: a wide-but-short
        // array is as hard to write as a square one.
        let cell = BitcellKind::multiport(4).unwrap();
        assert!(ArrayConfig::builder(8, 256, cell).build().is_err());
        assert!(ArrayConfig::builder(128, 128, cell).build().is_ok());
    }

    #[test]
    fn bad_voltages_are_rejected() {
        let cell = BitcellKind::Std6T;
        assert!(matches!(
            ArrayConfig::builder(128, 128, cell)
                .vprech(Volts::from_mv(900.0))
                .build(),
            Err(SramError::InvalidConfig(_))
        ));
        assert!(matches!(
            ArrayConfig::builder(128, 128, cell)
                .vprech(Volts::from_mv(100.0))
                .build(),
            Err(SramError::InvalidConfig(_))
        ));
    }

    #[test]
    fn mux_ratio_must_divide_rows() {
        let cell = BitcellKind::multiport(1).unwrap();
        assert!(ArrayConfig::builder(128, 128, cell)
            .mux_ratio(3)
            .build()
            .is_err());
        assert!(ArrayConfig::builder(128, 128, cell)
            .mux_ratio(8)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_customization() {
        let cfg = ArrayConfig::builder(64, 128, BitcellKind::multiport(2).unwrap())
            .vprech(Volts::from_mv(400.0))
            .vdd(Volts::from_mv(700.0))
            .build()
            .unwrap();
        assert!((cfg.vprech().mv() - 400.0).abs() < 1e-9);
        assert_eq!(cfg.rows(), 64);
    }
}
