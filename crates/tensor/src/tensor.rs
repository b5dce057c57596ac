//! The [`Tensor`] type: contiguous row-major `f32` storage plus a shape.

use crate::{Result, Shape, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Layout guarantees: `data.len() == shape.len()` at all times, and the
/// element at multi-index `(i0, .., ik)` lives at the row-major offset
/// computed by [`Shape::offset`]. This invariant is what lets the kernels in
/// [`crate::ops`] hand out disjoint row chunks to rayon workers safely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Build a tensor from an existing buffer; the buffer length must match
    /// the number of elements implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.len() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A rank-1 tensor holding `data`.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::from([data.len()]),
            data: data.to_vec(),
        }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Axis lengths.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of axes).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer, row-major.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index, bounds-checked.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Write an element at a multi-index, bounds-checked.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Unchecked 2-D accessor used by hot kernels (debug-asserted).
    #[inline]
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        let cols = self.shape.dim(1);
        debug_assert!(row < self.shape.dim(0) && col < cols);
        self.data[row * cols + col]
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    pub fn reshape(self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Borrow one row of a rank-2 tensor.
    pub fn row(&self, row: usize) -> Result<&[f32]> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                axis: 0,
                index: row,
                len: rows,
            });
        }
        Ok(&self.data[row * cols..(row + 1) * cols])
    }

    /// Mutably borrow one row of a rank-2 tensor.
    pub fn row_mut(&mut self, row: usize) -> Result<&mut [f32]> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row_mut",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                axis: 0,
                index: row,
                len: rows,
            });
        }
        Ok(&mut self.data[row * cols..(row + 1) * cols])
    }

    /// Copy a contiguous batch slice `[start, end)` along axis 0.
    ///
    /// The result keeps the trailing axes and has `end - start` leading rows.
    /// Used to carve minibatches out of a dataset tensor.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "slice_axis0",
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape.dim(0);
        if start > end || end > n {
            return Err(TensorError::IndexOutOfBounds {
                axis: 0,
                index: end,
                len: n,
            });
        }
        let inner: usize = self.shape.dims()[1..].iter().product();
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        Ok(Tensor {
            shape: Shape::from(dims),
            data: self.data[start * inner..end * inner].to_vec(),
        })
    }

    /// Gather rows along axis 0 by index (with repetition allowed).
    ///
    /// Used to assemble shuffled minibatches from a dataset tensor.
    pub fn gather_axis0(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "gather_axis0",
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape.dim(0);
        let inner: usize = self.shape.dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * inner);
        for &i in indices {
            if i >= n {
                return Err(TensorError::IndexOutOfBounds {
                    axis: 0,
                    index: i,
                    len: n,
                });
            }
            data.extend_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        let mut dims = self.shape.dims().to_vec();
        dims[0] = indices.len();
        Tensor::from_vec(dims, data)
    }

    /// Stack rank-`k` tensors with identical shapes into one rank-`k+1`
    /// tensor along a new leading axis.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("stack of zero tensors".to_string()))?;
        let mut data = Vec::with_capacity(first.len() * items.len());
        for t in items {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        Ok(Tensor {
            shape: Shape::from(dims),
            data,
        })
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose2(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose2",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec([c, r], out)
    }

    /// A new tensor with `f` applied elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Fill with zeros, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Serialise the element buffer as little-endian bytes (4 per element,
    /// row-major order). On little-endian targets this is a plain view of
    /// the storage; the shape is *not* included — persist it separately and
    /// rebuild with [`Tensor::from_le_bytes`].
    pub fn to_le_bytes(&self) -> Vec<u8> {
        #[cfg(target_endian = "little")]
        {
            // f32 has no padding and every bit pattern is a valid byte view.
            unsafe {
                std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.data.len() * 4)
            }
            .to_vec()
        }
        #[cfg(not(target_endian = "little"))]
        {
            let mut out = Vec::with_capacity(self.data.len() * 4);
            for v in &self.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
    }

    /// Rebuild a tensor from [`Tensor::to_le_bytes`] output and its shape.
    /// The byte count must be exactly `4 ×` the element count of `shape`.
    pub fn from_le_bytes(shape: impl Into<Shape>, bytes: &[u8]) -> Result<Self> {
        let shape = shape.into();
        if bytes.len() != shape.len() * 4 {
            return Err(TensorError::LengthMismatch {
                expected: shape.len() * 4,
                actual: bytes.len(),
            });
        }
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunked by 4")))
            .collect();
        Ok(Tensor { shape, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec([2, 2], vec![1.0; 5]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 5
            })
        ));
    }

    #[test]
    fn le_byte_view_round_trips_every_bit() {
        let t =
            Tensor::from_vec([2, 3], vec![1.5, -0.0, f32::MIN_POSITIVE, 3e38, -7.25, 0.1]).unwrap();
        let bytes = t.to_le_bytes();
        assert_eq!(bytes.len(), 24);
        let back = Tensor::from_le_bytes([2, 3], &bytes).unwrap();
        // Bit-exact, not just approximately equal.
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.dims(), &[2, 3]);
    }

    #[test]
    fn from_le_bytes_rejects_wrong_length() {
        assert!(Tensor::from_le_bytes([2, 2], &[0u8; 15]).is_err());
        assert!(Tensor::from_le_bytes([2, 2], &[0u8; 17]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.get(&[2, 1]).unwrap(), 5.0);
    }

    #[test]
    fn reshape_rejects_bad_len() {
        let t = Tensor::zeros([2, 3]);
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn row_borrow() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.row(1).unwrap(), &[4., 5., 6.]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn slice_axis0_copies_batch() {
        let t = Tensor::from_vec([4, 2], (0..8).map(|i| i as f32).collect()).unwrap();
        let s = t.slice_axis0(1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[2., 3., 4., 5.]);
    }

    #[test]
    fn slice_axis0_rejects_bad_range() {
        let t = Tensor::zeros([4, 2]);
        assert!(t.slice_axis0(3, 5).is_err());
        assert!(t.slice_axis0(3, 2).is_err());
    }

    #[test]
    fn gather_axis0_selects_and_repeats_rows() {
        let t = Tensor::from_vec([3, 2], vec![0., 1., 2., 3., 4., 5.]).unwrap();
        let g = t.gather_axis0(&[2, 0, 2]).unwrap();
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.as_slice(), &[4., 5., 0., 1., 4., 5.]);
    }

    #[test]
    fn gather_axis0_rejects_out_of_range() {
        let t = Tensor::zeros([3, 2]);
        assert!(t.gather_axis0(&[3]).is_err());
    }

    #[test]
    fn stack_builds_leading_axis() {
        let a = Tensor::from_vec([2], vec![1., 2.]).unwrap();
        let b = Tensor::from_vec([2], vec![3., 4.]).unwrap();
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn stack_rejects_mixed_shapes() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(Tensor::stack(&[a, b]).is_err());
    }

    #[test]
    fn stack_rejects_empty() {
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn transpose2_swaps_axes() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose2().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 0]).unwrap(), 3.0);
        assert_eq!(tt.get(&[0, 1]).unwrap(), 4.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_slice(&[1., -2., 3.]);
        let m = t.map(|v| v.abs());
        assert_eq!(m.as_slice(), &[1., 2., 3.]);
    }
}
