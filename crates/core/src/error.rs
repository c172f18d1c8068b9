//! CFSF error type.

use std::fmt;

/// Errors from fitting a CFSF model.
#[derive(Debug, Clone, PartialEq)]
pub enum CfsfError {
    /// A hyper-parameter was outside its legal range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// What was wrong.
        message: String,
    },
    /// The training matrix has no ratings.
    EmptyTrainingMatrix,
    /// A rebuild failed before publishing; the previous generation still
    /// serves and the pending ratings are intact.
    RefreshFailed {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CfsfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            Self::EmptyTrainingMatrix => write!(f, "training matrix has no ratings"),
            Self::RefreshFailed { message } => {
                write!(f, "refresh aborted (model unchanged): {message}")
            }
        }
    }
}

impl std::error::Error for CfsfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parameter() {
        let e = CfsfError::InvalidParameter {
            name: "lambda",
            message: "2 is outside [0, 1]".into(),
        };
        assert!(e.to_string().contains("lambda"));
        assert!(CfsfError::EmptyTrainingMatrix
            .to_string()
            .contains("no ratings"));
    }

    #[test]
    fn refresh_failure_promises_an_unchanged_model() {
        let e = CfsfError::RefreshFailed {
            message: "injected".into(),
        };
        assert!(e.to_string().contains("model unchanged"), "{e}");
        assert!(e.to_string().contains("injected"), "{e}");
    }
}
