//! Column-major dense matrices (LAPACK convention).

use crate::blas::add_scaled_columns;
use dacc_fabric::payload::Payload;
use dacc_sim::rng::SimRng;

/// A dense column-major matrix with `lda == rows`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Random entries uniform in `[-1, 1]`.
    pub fn random(rows: usize, cols: usize, rng: &mut SimRng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.uniform_range(-1.0, 1.0);
        }
        m
    }

    /// Random symmetric positive-definite matrix (`B Bᵀ + n·I`).
    pub fn random_spd(n: usize, rng: &mut SimRng) -> Self {
        let b = Matrix::random(n, n, rng);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b.get(i, k) * b.get(j, k);
                }
                a.set(i, j, s + if i == j { n as f64 } else { 0.0 });
            }
        }
        a
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (equals `rows`).
    pub fn lda(&self) -> usize {
        self.rows
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// The backing column-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The backing column-major slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy of columns `[j0, j0+w)` as a dense `rows × w` matrix.
    pub fn columns(&self, j0: usize, w: usize) -> Matrix {
        assert!(j0 + w <= self.cols);
        Matrix {
            rows: self.rows,
            cols: w,
            data: self.data[j0 * self.rows..(j0 + w) * self.rows].to_vec(),
        }
    }

    /// Overwrite columns `[j0, j0+w)` from `src` (must be `rows × w`).
    pub fn set_columns(&mut self, j0: usize, src: &Matrix) {
        assert_eq!(src.rows, self.rows);
        assert!(j0 + src.cols <= self.cols);
        self.data[j0 * self.rows..(j0 + src.cols) * self.rows].copy_from_slice(&src.data);
    }

    /// Copy of the sub-matrix at `(i0, j0)` of size `m × n`.
    pub fn sub(&self, i0: usize, j0: usize, m: usize, n: usize) -> Matrix {
        assert!(i0 + m <= self.rows && j0 + n <= self.cols);
        Matrix::from_fn(m, n, |i, j| self.get(i0 + i, j0 + j))
    }

    /// Matrix product `self · other` (verification only).
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut c = Matrix::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            let b_j = &other.data[j * other.rows..][..other.rows];
            add_scaled_columns(
                &mut c.data[j * c.rows..][..c.rows],
                &self.data,
                self.rows,
                nonzero_terms(b_j),
            );
        }
        c
    }

    /// Transpose (verification only).
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `max |self - other|` over all entries.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Zero the strictly upper triangle (extract `L` from a factored
    /// lower-triangular storage).
    pub fn lower_triangle(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            if i >= j {
                self.get(i, j)
            } else {
                0.0
            }
        })
    }

    /// Zero the strictly lower triangle (extract `R`).
    pub fn upper_triangle(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            if i <= j {
                self.get(i, j)
            } else {
                0.0
            }
        })
    }
}

/// The terms `(l, b[l])` of a product with the column `b`, leaving out the
/// zeros.
pub(crate) fn nonzero_terms(b: &[f64]) -> impl Iterator<Item = (usize, f64)> + '_ {
    b.iter().copied().enumerate().filter(|&(_, bl)| bl != 0.0)
}

/// A host-side matrix that may be real (functional runs) or shape-only
/// (timing-only runs at paper scale). The hybrid factorization drivers work
/// on either; the same control flow and the same transfer sizes are used.
pub enum HostMatrix {
    /// Real data.
    Real(Matrix),
    /// Dimensions only.
    Shape {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
}

impl HostMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            HostMatrix::Real(m) => m.rows(),
            HostMatrix::Shape { rows, .. } => *rows,
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            HostMatrix::Real(m) => m.cols(),
            HostMatrix::Shape { cols, .. } => *cols,
        }
    }

    /// True if backed by real data.
    pub fn is_real(&self) -> bool {
        matches!(self, HostMatrix::Real(_))
    }

    /// Borrow the real matrix (panics for shape-only).
    pub fn real(&self) -> &Matrix {
        match self {
            HostMatrix::Real(m) => m,
            HostMatrix::Shape { .. } => panic!("HostMatrix::real on shape-only matrix"),
        }
    }

    /// Borrow the real matrix mutably (panics for shape-only).
    pub fn real_mut(&mut self) -> &mut Matrix {
        match self {
            HostMatrix::Real(m) => m,
            HostMatrix::Shape { .. } => panic!("HostMatrix::real_mut on shape-only matrix"),
        }
    }

    /// Columns `[j0, j0+w)` as a transfer payload (`rows·w·8` bytes).
    pub fn columns_payload(&self, j0: usize, w: usize) -> Payload {
        match self {
            HostMatrix::Real(m) => {
                let sub = m.columns(j0, w);
                let mut bytes = Vec::with_capacity(sub.as_slice().len() * 8);
                for v in sub.as_slice() {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                Payload::from_vec(bytes)
            }
            HostMatrix::Shape { rows, .. } => Payload::size_only((rows * w * 8) as u64),
        }
    }

    /// Overwrite columns `[j0, j0+w)` from a transfer payload.
    pub fn set_columns_payload(&mut self, j0: usize, w: usize, payload: &Payload) {
        let rows = self.rows();
        assert_eq!(
            payload.len(),
            (rows * w * 8) as u64,
            "payload size mismatch"
        );
        if let HostMatrix::Real(m) = self {
            // to_bytes(): accept chained payloads too (an f64 may straddle
            // a segment boundary).
            let bytes = payload.to_bytes();
            let vals: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let sub = Matrix {
                rows,
                cols: w,
                data: vals,
            };
            m.set_columns(j0, &sub);
        }
    }
}

/// Decode a payload of `f64`s (functional-mode helper). Accepts both
/// contiguous and chained payloads; panics on size-only.
pub fn payload_to_f64(p: &Payload) -> Vec<f64> {
    p.to_bytes()
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Encode `f64`s as a payload.
pub fn f64_to_payload(v: &[f64]) -> Payload {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    Payload::from_vec(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        // Column-major layout.
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
    }

    #[test]
    fn identity_times_anything() {
        let mut rng = SimRng::new(1);
        let a = Matrix::random(4, 4, &mut rng);
        let i = Matrix::identity(4);
        assert_eq!(i.mul(&a), a);
        assert_eq!(a.mul(&i), a);
    }

    #[test]
    fn columns_roundtrip() {
        let mut rng = SimRng::new(2);
        let a = Matrix::random(5, 6, &mut rng);
        let cols = a.columns(2, 3);
        let mut b = Matrix::zeros(5, 6);
        b.set_columns(2, &cols);
        assert_eq!(b.sub(0, 2, 5, 3), a.sub(0, 2, 5, 3));
    }

    #[test]
    fn spd_is_symmetric_with_dominant_diagonal() {
        let mut rng = SimRng::new(3);
        let a = Matrix::random_spd(8, &mut rng);
        for i in 0..8 {
            for j in 0..8 {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-12);
            }
            assert!(a.get(i, i) >= 8.0);
        }
    }

    #[test]
    fn triangles() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j + 1) as f64);
        let l = a.lower_triangle();
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(l.get(1, 0), a.get(1, 0));
        let u = a.upper_triangle();
        assert_eq!(u.get(1, 0), 0.0);
        assert_eq!(u.get(0, 1), a.get(0, 1));
    }

    #[test]
    fn host_matrix_payload_roundtrip() {
        let mut rng = SimRng::new(4);
        let a = Matrix::random(7, 5, &mut rng);
        let mut h = HostMatrix::Real(a.clone());
        let p = h.columns_payload(1, 3);
        assert_eq!(p.len(), 7 * 3 * 8);
        let mut dst = HostMatrix::Real(Matrix::zeros(7, 5));
        dst.set_columns_payload(1, 3, &p);
        assert_eq!(dst.real().sub(0, 1, 7, 3), a.sub(0, 1, 7, 3));
        // Shape-only: sizes must agree, contents ignored.
        let mut shape = HostMatrix::Shape { rows: 7, cols: 5 };
        let sp = shape.columns_payload(0, 5);
        assert_eq!(sp.len(), 7 * 5 * 8);
        shape.set_columns_payload(0, 5, &sp);
        h.set_columns_payload(0, 3, &h.columns_payload(0, 3));
    }

    #[test]
    fn f64_payload_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, 1e300];
        assert_eq!(payload_to_f64(&f64_to_payload(&v)), v);
    }
}
