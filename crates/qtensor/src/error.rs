//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Error raised by fallible tensor operations.
///
/// All public fallible operations in this crate return
/// `Result<_, TensorError>`.
///
/// # Examples
///
/// ```
/// use cq_tensor::{ops, Tensor, TensorError};
///
/// let a = Tensor::zeros(&[2, 3]);
/// let b = Tensor::zeros(&[4, 5]);
/// let err = ops::matmul(&a, &b).unwrap_err();
/// assert!(matches!(err, TensorError::ShapeMismatch { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left/first operand.
        lhs: Vec<usize>,
        /// Shape of the right/second operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The number of elements implied by a reshape differs from the source.
    InvalidReshape {
        /// Source element count.
        from: usize,
        /// Requested shape.
        to: Vec<usize>,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// Offending index.
        index: Vec<usize>,
        /// Tensor shape.
        shape: Vec<usize>,
    },
    /// The operation requires a tensor of a particular rank.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A configuration parameter was invalid (zero dims, bad stride, ...).
    InvalidArgument(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::InvalidReshape { from, to } => {
                write!(f, "cannot reshape {from} elements into {to:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::RankMismatch {
                expected,
                actual,
                op,
            } => {
                write!(f, "{op} expects rank {expected}, got rank {actual}")
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            lhs: vec![2, 3],
            rhs: vec![4, 5],
            op: "matmul",
        };
        assert_eq!(e.to_string(), "shape mismatch in matmul: [2, 3] vs [4, 5]");
    }

    #[test]
    fn display_invalid_reshape() {
        let e = TensorError::InvalidReshape {
            from: 6,
            to: vec![4],
        };
        assert_eq!(e.to_string(), "cannot reshape 6 elements into [4]");
    }

    #[test]
    fn display_index_out_of_bounds() {
        let e = TensorError::IndexOutOfBounds {
            index: vec![9],
            shape: vec![3],
        };
        assert_eq!(e.to_string(), "index [9] out of bounds for shape [3]");
    }

    #[test]
    fn display_rank_mismatch() {
        let e = TensorError::RankMismatch {
            expected: 2,
            actual: 3,
            op: "transpose",
        };
        assert_eq!(e.to_string(), "transpose expects rank 2, got rank 3");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
