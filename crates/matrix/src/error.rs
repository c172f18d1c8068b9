//! Error type for matrix construction and validation.

use std::fmt;

use crate::{ItemId, UserId};

/// Errors produced while building or validating a rating matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// A rating value was not finite (NaN or ±∞).
    NonFiniteRating {
        /// The offending user.
        user: UserId,
        /// The offending item.
        item: ItemId,
        /// The raw value.
        value: f64,
    },
    /// A rating value fell outside the declared rating scale.
    RatingOutOfScale {
        /// The offending user.
        user: UserId,
        /// The offending item.
        item: ItemId,
        /// The raw value.
        value: f64,
        /// Lower bound of the scale.
        min: f64,
        /// Upper bound of the scale.
        max: f64,
    },
    /// The same (user, item) cell was rated twice with different values.
    ConflictingDuplicate {
        /// The offending user.
        user: UserId,
        /// The offending item.
        item: ItemId,
        /// First value seen.
        first: f64,
        /// Second, conflicting value.
        second: f64,
    },
    /// A cell addressed a user or item outside the matrix's fixed
    /// dimensions.
    CellOutOfRange {
        /// The offending user.
        user: UserId,
        /// The offending item.
        item: ItemId,
        /// Users in the matrix.
        num_users: usize,
        /// Items in the matrix.
        num_items: usize,
    },
    /// The builder produced no ratings at all.
    Empty,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteRating { user, item, value } => {
                write!(f, "non-finite rating {value} at ({user:?}, {item:?})")
            }
            Self::RatingOutOfScale {
                user,
                item,
                value,
                min,
                max,
            } => write!(
                f,
                "rating {value} at ({user:?}, {item:?}) outside scale [{min}, {max}]"
            ),
            Self::ConflictingDuplicate {
                user,
                item,
                first,
                second,
            } => write!(
                f,
                "cell ({user:?}, {item:?}) rated twice with different values: {first} then {second}"
            ),
            Self::CellOutOfRange {
                user,
                item,
                num_users,
                num_items,
            } => write!(
                f,
                "cell ({user:?}, {item:?}) is outside the {num_users}×{num_items} matrix"
            ),
            Self::Empty => write!(f, "matrix has no ratings"),
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MatrixError::NonFiniteRating {
            user: UserId::new(1),
            item: ItemId::new(2),
            value: f64::NAN,
        };
        let s = e.to_string();
        assert!(s.contains("u1") && s.contains("i2"), "{s}");

        let e = MatrixError::RatingOutOfScale {
            user: UserId::new(0),
            item: ItemId::new(0),
            value: 9.0,
            min: 1.0,
            max: 5.0,
        };
        assert!(e.to_string().contains("[1, 5]"));

        assert!(MatrixError::Empty.to_string().contains("no ratings"));
    }
}
