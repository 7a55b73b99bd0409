//! Error type for the experiment harness.

use std::fmt;

use esam_circuit::CircuitError;
use esam_core::CoreError;
use esam_logic::LogicError;
use esam_nn::NnError;
use esam_sram::SramError;

/// Errors produced while reproducing experiments.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// Propagated system-model error.
    Core(CoreError),
    /// Propagated network error.
    Nn(NnError),
    /// Propagated SRAM error.
    Sram(SramError),
    /// Propagated gate-level netlist/simulation error.
    Logic(LogicError),
    /// Propagated transient-solver error.
    Circuit(CircuitError),
    /// Unknown experiment id requested from the CLI.
    UnknownExperiment(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Core(e) => write!(f, "{e}"),
            BenchError::Nn(e) => write!(f, "{e}"),
            BenchError::Sram(e) => write!(f, "{e}"),
            BenchError::Logic(e) => write!(f, "{e}"),
            BenchError::Circuit(e) => write!(f, "{e}"),
            BenchError::UnknownExperiment(id) => {
                write!(f, "unknown experiment '{id}' (try: ")?;
                for known in crate::experiment_ids() {
                    write!(f, "{known}, ")?;
                }
                write!(f, "all)")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Core(e) => Some(e),
            BenchError::Nn(e) => Some(e),
            BenchError::Sram(e) => Some(e),
            BenchError::Logic(e) => Some(e),
            BenchError::Circuit(e) => Some(e),
            BenchError::UnknownExperiment(_) => None,
        }
    }
}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> Self {
        BenchError::Core(e)
    }
}

impl From<NnError> for BenchError {
    fn from(e: NnError) -> Self {
        BenchError::Nn(e)
    }
}

impl From<SramError> for BenchError {
    fn from(e: SramError) -> Self {
        BenchError::Sram(e)
    }
}

impl From<LogicError> for BenchError {
    fn from(e: LogicError) -> Self {
        BenchError::Logic(e)
    }
}

impl From<CircuitError> for BenchError {
    fn from(e: CircuitError) -> Self {
        BenchError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = BenchError::UnknownExperiment("bogus".into());
        assert!(e.to_string().contains("bogus"));
        assert!(std::error::Error::source(&e).is_none());
        let e: BenchError = NnError::EmptyDataset.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn unknown_experiment_message_names_every_id() {
        let message = BenchError::UnknownExperiment("bogus".into()).to_string();
        let listed: Vec<&str> = message
            .split_once("(try: ")
            .and_then(|(_, list)| list.strip_suffix(')'))
            .expect("message ends in an id list")
            .split(", ")
            .collect();
        for id in crate::CIRCUIT_EXPERIMENTS
            .iter()
            .chain(&crate::SYSTEM_EXPERIMENTS)
            .chain(&["all"])
        {
            assert!(listed.contains(id), "'{id}' missing from: {message}");
        }
    }
}
