//! Error types for the analytical model.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or evaluating the analytical model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A physical quantity was negative, NaN or infinite.
    InvalidQuantity {
        /// Name of the offending quantity type (e.g. `"Seconds"`).
        quantity: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An acceleration factor `s_sub` was below 1 or non-finite.
    InvalidSpeedup {
        /// The rejected value.
        value: f64,
    },
    /// A breakdown's component shares did not sum close to 1.
    UnnormalizedBreakdown {
        /// The actual sum of the shares.
        sum: f64,
    },
    /// An acceleration plan referenced a CPU category twice.
    DuplicateComponent {
        /// Human-readable name of the duplicated category.
        category: String,
    },
    /// A query population was empty where at least one query is required.
    EmptyPopulation,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidQuantity { quantity, value } => {
                write!(
                    f,
                    "invalid {quantity}: {value} (must be finite and in range)"
                )
            }
            ModelError::InvalidSpeedup { value } => {
                write!(f, "speedup factor {value} must be finite and >= 1")
            }
            ModelError::UnnormalizedBreakdown { sum } => {
                write!(f, "breakdown shares sum to {sum}, expected 1.0")
            }
            ModelError::DuplicateComponent { category } => {
                write!(f, "component {category} assigned more than once")
            }
            ModelError::EmptyPopulation => write!(f, "query population is empty"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errs: Vec<ModelError> = vec![
            ModelError::InvalidQuantity {
                quantity: "Seconds",
                value: -1.0,
            },
            ModelError::InvalidSpeedup { value: 0.5 },
            ModelError::UnnormalizedBreakdown { sum: 0.8 },
            ModelError::DuplicateComponent {
                category: "Protobuf".into(),
            },
            ModelError::EmptyPopulation,
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ModelError>();
    }
}
