//! The dense `f32` tensor type.

use crate::error::TensorError;
use crate::shape::Shape;
use std::fmt;

/// A dense, row-major, owned `f32` tensor.
///
/// `Tensor` is the numeric substrate of the Cambricon-Q reproduction. It is
/// deliberately simple: owned contiguous storage, row-major layout, and a
/// small set of carefully tested kernels (see [`crate::ops`]). Quantized
/// representations live in the `cq-quant` crate and convert to and from this
/// type.
///
/// # Examples
///
/// ```
/// use cq_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.get(&[1, 0])?, 3.0);
/// let doubled = t.map(|x| x * 2.0);
/// assert_eq!(doubled.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok::<(), cq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if `data.len()` does not match
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != data.len() {
            return Err(TensorError::InvalidReshape {
                from: data.len(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension list (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != self.data.len() {
            return Err(TensorError::InvalidReshape {
                from: self.data.len(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "zip_map",
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Accumulates `alpha * other` into `self` (`axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "add_scaled",
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value of all elements (0.0 for empty tensors).
    ///
    /// This is the statistic θ = max|X| that every statistic-based quantized
    /// training algorithm in the paper relies on (Table III).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().fold(f32::INFINITY, |m, &x| m.min(x))
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    }

    /// Sum of squared elements.
    pub fn sum_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.sum_sq().sqrt()
    }

    /// Rectilinear (L1) distance to another tensor: Σ|aᵢ − bᵢ|.
    ///
    /// Used by E²BQM's rectilinear error estimator (paper §III.B).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn l1_distance(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "l1_distance",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .sum())
    }

    /// Cosine similarity with another tensor (1.0 when both are zero).
    ///
    /// Used by Zhu et al.'s direction-sensitive gradient clipping and by the
    /// cosine error estimator in E²BQM.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn cosine_similarity(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "cosine_similarity",
            });
        }
        let dot: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum();
        let na = self.norm();
        let nb = other.norm();
        if na == 0.0 && nb == 0.0 {
            Ok(1.0)
        } else if na == 0.0 || nb == 0.0 {
            Ok(0.0)
        } else {
            Ok(dot / (na * nb))
        }
    }

    /// 2-D transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extracts the contiguous slice `[start, start + len)` of the flat data
    /// as a rank-1 tensor. This is how LDQ carves a tensor into blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range exceeds the
    /// data length.
    pub fn slice_flat(&self, start: usize, len: usize) -> Result<Tensor, TensorError> {
        if start + len > self.data.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![start + len],
                shape: self.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: Shape::new(&[len]),
            data: self.data[start..start + len].to_vec(),
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} {:?}", self.shape, &self.data)
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects an iterator into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let shape = Shape::new(&[data.len()]);
        Tensor { shape, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[1, 2]).unwrap(), 6.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[10.0, 40.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, 6.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_scaled_axpy() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        a.add_scaled(&g, -0.5).unwrap();
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.sum_sq(), 14.0);
    }

    #[test]
    fn max_abs_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(&[0]).max_abs(), 0.0);
    }

    #[test]
    fn l1_and_cosine() {
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
        assert_eq!(a.l1_distance(&b).unwrap(), 2.0);
        assert!((a.cosine_similarity(&b).unwrap()).abs() < 1e-6);
        assert!((a.cosine_similarity(&a).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vectors() {
        let z = Tensor::zeros(&[2]);
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        assert_eq!(z.cosine_similarity(&z).unwrap(), 1.0);
        assert_eq!(z.cosine_similarity(&a).unwrap(), 0.0);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]).unwrap(), 6.0);
        assert_eq!(tt.get(&[0, 1]).unwrap(), 4.0);
    }

    #[test]
    fn transpose_requires_rank2() {
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.get(&[1, 1]).unwrap(), 4.0);
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn slice_flat_blocks() {
        let t = Tensor::from_vec((0..10).map(|i| i as f32).collect(), &[10]).unwrap();
        let b = t.slice_flat(4, 3).unwrap();
        assert_eq!(b.data(), &[4.0, 5.0, 6.0]);
        assert!(t.slice_flat(8, 3).is_err());
    }

    #[test]
    fn from_iterator() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.dims(), &[4]);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.get(&[]).unwrap(), 3.5);
    }

    #[test]
    fn map_inplace() {
        let mut t = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        t.map_inplace(|x| x.max(0.0));
        assert_eq!(t.data(), &[1.0, 0.0]);
    }
}
