//! A minimal flat row-major feature matrix.

use crate::{MlError, Result};

/// A dense `n_rows × n_cols` feature matrix, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    n_cols: usize,
    data: Vec<f32>,
}

impl FeatureMatrix {
    /// An empty matrix with a fixed column count.
    pub fn new(n_cols: usize) -> Self {
        FeatureMatrix {
            n_cols,
            data: Vec::new(),
        }
    }

    /// Build from a flat buffer.
    pub fn from_vec(n_cols: usize, data: Vec<f32>) -> Result<Self> {
        if n_cols == 0 {
            return Err(MlError::InvalidArgument("zero feature columns".into()));
        }
        if !data.len().is_multiple_of(n_cols) {
            return Err(MlError::DimensionMismatch {
                op: "from_vec",
                expected: n_cols,
                actual: data.len(),
            });
        }
        Ok(FeatureMatrix { n_cols, data })
    }

    /// Append one row.
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.n_cols {
            return Err(MlError::DimensionMismatch {
                op: "push_row",
                expected: self.n_cols,
                actual: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Row count.
    pub fn n_rows(&self) -> usize {
        self.data.len() / self.n_cols
    }

    /// Column count.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// True when no rows are present.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// All rows, iterated.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks(self.n_cols)
    }

    /// Select a subset of rows by index (bootstrap sampling).
    pub fn select_rows(&self, indices: &[usize]) -> FeatureMatrix {
        let mut data = Vec::with_capacity(indices.len() * self.n_cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        FeatureMatrix {
            n_cols: self.n_cols,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut m = FeatureMatrix::new(2);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let mut m = FeatureMatrix::new(2);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn from_vec_validates_multiple() {
        assert!(FeatureMatrix::from_vec(3, vec![0.0; 7]).is_err());
        assert!(FeatureMatrix::from_vec(3, vec![0.0; 9]).is_ok());
        assert!(FeatureMatrix::from_vec(0, vec![]).is_err());
    }

    #[test]
    fn select_rows_reorders() {
        let m = FeatureMatrix::from_vec(1, vec![10., 20., 30.]).unwrap();
        let s = m.select_rows(&[2, 0, 0]);
        assert_eq!(s.row(0), &[30.]);
        assert_eq!(s.row(1), &[10.]);
        assert_eq!(s.row(2), &[10.]);
    }
}
