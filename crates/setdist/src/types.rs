//! The vector set representation (Section 4.1).

/// A set of `d`-dimensional feature vectors, stored flat.
///
/// An object is represented by at most `k` vectors; unlike the one-vector
/// model, *no dummy covers* are required — sets of different cardinality
/// are first-class (Section 4.1 lists this as a storage advantage).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f64>,
}

impl VectorSet {
    /// Empty set of `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        VectorSet { dim, data: Vec::new() }
    }

    /// Empty set with reserved capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        VectorSet { dim, data: Vec::with_capacity(dim * n) }
    }

    /// Build from a flat buffer of `n · dim` values.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "flat length must be a multiple of dim");
        VectorSet { dim, data }
    }

    /// Build from a slice of rows.
    pub fn from_rows(dim: usize, rows: &[&[f64]]) -> Self {
        let mut s = VectorSet::with_capacity(dim, rows.len());
        for r in rows {
            s.push(r);
        }
        s
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors `|X|`.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a vector; must have length `dim`.
    pub fn push(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.dim, "vector has wrong dimension");
        self.data.extend_from_slice(v);
    }

    /// Replace the contents with the `n · dim` `values`, keeping the
    /// allocation — for loops that decode many sets one after the other.
    pub fn refill(&mut self, dim: usize, values: impl IntoIterator<Item = f64>) {
        self.data.clear();
        self.data.extend(values);
        assert!(
            dim > 0 && self.data.len().is_multiple_of(dim),
            "flat length must be a multiple of dim"
        );
        self.dim = dim;
    }

    /// The `i`-th vector.
    #[inline]
    pub fn get(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterate over the vectors.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// The flat backing buffer (for serialization).
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// Whether this set's vectors fit one SIMD lane block — true for
    /// both paper feature models (dim 6 and 7).
    #[inline]
    pub fn fits_lanes(&self) -> bool {
        self.dim <= crate::simd::LANES
    }

    /// Zero-pad every vector into `LANES`-strided lane rows (the
    /// engine's cost-fill layout; see [`crate::simd::pad_rows`]).
    /// Requires [`VectorSet::fits_lanes`].
    pub fn pad_lanes(&self, out: &mut Vec<f64>) {
        crate::simd::pad_rows(self.dim, &self.data, out);
    }

    /// Component-wise sum of all vectors.
    pub fn sum(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim];
        for v in self.iter() {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        acc
    }

    /// Bytes needed to store this set (used by the simulated-I/O storage
    /// layer): 8 per component plus a small header.
    pub fn storage_bytes(&self) -> usize {
        8 * self.data.len() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter() {
        let mut s = VectorSet::new(3);
        assert!(s.is_empty());
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), &[4.0, 5.0, 6.0]);
        let rows: Vec<_> = s.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
    }

    #[test]
    fn from_flat_and_rows_agree() {
        let a = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = VectorSet::from_rows(2, &[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn sum_is_componentwise() {
        let s = VectorSet::from_rows(2, &[&[1.0, 2.0], &[10.0, 20.0], &[-1.0, 0.5]]);
        assert_eq!(s.sum(), vec![10.0, 22.5]);
    }

    #[test]
    #[should_panic]
    fn wrong_dim_push_panics() {
        let mut s = VectorSet::new(2);
        s.push(&[1.0]);
    }

    #[test]
    #[should_panic]
    fn bad_flat_length_panics() {
        let _ = VectorSet::from_flat(3, vec![1.0, 2.0]);
    }
}
