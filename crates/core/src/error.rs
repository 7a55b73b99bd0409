//! Error type for system construction and simulation.

use std::fmt;

use esam_arbiter::ArbiterError;
use esam_nn::NnError;
use esam_sram::SramError;

/// Errors produced by the ESAM system model.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// Propagated SRAM macro error (write margin, port bounds, …).
    Sram(SramError),
    /// Propagated arbiter construction error.
    Arbiter(ArbiterError),
    /// Propagated network/conversion error.
    Nn(NnError),
    /// The SNN model's topology does not match the system configuration.
    TopologyMismatch {
        /// Topology expected by the configuration.
        expected: Vec<usize>,
        /// Topology of the provided model.
        got: Vec<usize>,
    },
    /// An input spike frame had the wrong width.
    InputWidthMismatch {
        /// Expected input width.
        expected: usize,
        /// Received width.
        got: usize,
    },
    /// A caller-provided output buffer was mis-shaped for the call.
    BufferMismatch {
        /// Which buffer dimension disagreed (e.g. `"cycles length"`).
        buffer: &'static str,
        /// Size the call needed.
        expected: usize,
        /// Size the caller provided.
        got: usize,
    },
    /// Invalid system configuration.
    InvalidConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sram(e) => write!(f, "sram: {e}"),
            CoreError::Arbiter(e) => write!(f, "arbiter: {e}"),
            CoreError::Nn(e) => write!(f, "network: {e}"),
            CoreError::TopologyMismatch { expected, got } => {
                write!(
                    f,
                    "topology mismatch: system expects {expected:?}, model has {got:?}"
                )
            }
            CoreError::InputWidthMismatch { expected, got } => {
                write!(
                    f,
                    "input frame width mismatch: expected {expected}, got {got}"
                )
            }
            CoreError::BufferMismatch {
                buffer,
                expected,
                got,
            } => write!(f, "{buffer} mismatch: expected {expected}, got {got}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid system configuration: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sram(e) => Some(e),
            CoreError::Arbiter(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SramError> for CoreError {
    fn from(e: SramError) -> Self {
        CoreError::Sram(e)
    }
}

impl From<ArbiterError> for CoreError {
    fn from(e: ArbiterError) -> Self {
        CoreError::Arbiter(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e: CoreError = ArbiterError::ZeroWidth.into();
        assert!(e.to_string().contains("arbiter"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::TopologyMismatch {
            expected: vec![768, 10],
            got: vec![768, 20],
        };
        assert!(e.to_string().contains("768"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
