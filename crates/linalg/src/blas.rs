//! A CPU BLAS subset (column-major, explicit leading dimensions).
//!
//! These routines do the real arithmetic for CPU panel factorizations and
//! back the functional bodies of the GPU kernels. They follow the reference
//! BLAS semantics closely enough that the LAPACK-style routines in
//! [`crate::lapack`] read like their Fortran counterparts.

use std::ops::Range;

/// Operation applied to a matrix operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the transpose.
    Yes,
}

/// Which side a triangular matrix multiplies from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// `op(A) · X`.
    Left,
    /// `X · op(A)`.
    Right,
}

/// Which triangle of a triangular matrix is stored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpLo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

/// Whether a triangular matrix has an implicit unit diagonal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Diag {
    /// Diagonal as stored.
    NonUnit,
    /// Implicit ones on the diagonal.
    Unit,
}

#[inline]
fn at(a: &[f64], lda: usize, i: usize, j: usize) -> f64 {
    a[j * lda + i]
}

#[inline]
fn at_mut(a: &mut [f64], lda: usize, i: usize, j: usize) -> &mut f64 {
    &mut a[j * lda + i]
}

/// Columns a reduction works on side by side: its dot products are
/// independent add chains, and one chain alone runs at the latency of a
/// floating-point add.
pub(crate) const CHAINS: usize = 8;

/// Rows of `A` a packed panel of `dgemm` holds (`Aᵀ` case): 16 KiB, so the
/// panel and a column of `B` stay in L1.
const PANEL_ROWS: usize = 256;

/// Up to `CHAINS` columns of a column-major array, interleaved row by
/// row: one row of the panel is one contiguous run of `CHAINS` entries, so
/// a fold or an update down the columns is one stream of vector
/// operations. Each column keeps its own chain and its own operation
/// order, so every result is the one a loop over one column at a time
/// gives, bit for bit.
pub(crate) struct Panel {
    rows: Vec<[f64; CHAINS]>,
}

impl Panel {
    pub(crate) fn new() -> Self {
        Panel { rows: Vec::new() }
    }

    /// Copy rows `r0..r0 + len` of the columns `cols` (at most
    /// `CHAINS`) of the `ld`-strided `a`; lanes past the last column
    /// are zero.
    pub(crate) fn load(&mut self, a: &[f64], ld: usize, r0: usize, len: usize, cols: Range<usize>) {
        self.rows.clear();
        self.rows.resize(len, [0.0; CHAINS]);
        for (t, c) in cols.enumerate() {
            for (row, &x) in self.rows.iter_mut().zip(&a[c * ld + r0..][..len]) {
                row[t] = x;
            }
        }
    }

    /// Write the panel back over the columns `cols` it was loaded from.
    pub(crate) fn store(&self, a: &mut [f64], ld: usize, r0: usize, cols: Range<usize>) {
        for (t, c) in cols.enumerate() {
            for (x, row) in a[c * ld + r0..][..self.rows.len()]
                .iter_mut()
                .zip(&self.rows)
            {
                *x = row[t];
            }
        }
    }

    /// Row `r` of the panel.
    pub(crate) fn row(&self, r: usize) -> [f64; CHAINS] {
        self.rows[r]
    }

    /// The panel's rows, mutably.
    pub(crate) fn rows_mut(&mut self) -> &mut [[f64; CHAINS]] {
        &mut self.rows
    }

    /// Fold `step` down every lane against `y`, over the panel rows
    /// `from..from + y.len()`: lane `t` becomes
    /// `step(…step(acc[t], p[from][t], y[0])…, p[from + n − 1][t], y[n − 1])`,
    /// leaving out the steps where `y[l] == 0` if `SKIP_ZERO`.
    #[inline(always)]
    pub(crate) fn fold<const SKIP_ZERO: bool>(
        &self,
        from: usize,
        y: &[f64],
        acc: &mut [f64; CHAINS],
        step: impl Fn(f64, f64, f64) -> f64,
    ) {
        let mut s = *acc;
        for (row, &yl) in self.rows[from..][..y.len()].iter().zip(y) {
            if SKIP_ZERO && yl == 0.0 {
                continue;
            }
            for t in 0..CHAINS {
                s[t] = step(s[t], row[t], yl);
            }
        }
        *acc = s;
    }
}

/// Columns of `a` a pass of `add_scaled_columns` adds at once.
const STREAMS: usize = 4;

/// `c += Σ s·a[:, l]` over `terms` `(l, s)`, where column `l` of the
/// `lda`-strided `a` starts at `a[l * lda]`: every element adds `s·a[i, l]`
/// term by term in the order given. Each pass over `c` adds [`STREAMS`]
/// terms, so `c` is loaded and stored once per four columns.
pub(crate) fn add_scaled_columns(
    c: &mut [f64],
    a: &[f64],
    lda: usize,
    mut terms: impl Iterator<Item = (usize, f64)>,
) {
    let m = c.len();
    let col = |l: usize| &a[l * lda..][..m];
    loop {
        let group: [Option<(usize, f64)>; STREAMS] = std::array::from_fn(|_| terms.next());
        if let [Some((l0, s0)), Some((l1, s1)), Some((l2, s2)), Some((l3, s3))] = group {
            let (a0, a1, a2, a3) = (col(l0), col(l1), col(l2), col(l3));
            for i in 0..m {
                c[i] = c[i] + s0 * a0[i] + s1 * a1[i] + s2 * a2[i] + s3 * a3[i];
            }
            continue;
        }
        for (l, s) in group.into_iter().flatten() {
            for (ci, &ail) in c.iter_mut().zip(col(l)) {
                *ci += s * ail;
            }
        }
        return;
    }
}

/// `C ← α·op(A)·op(B) + β·C` where `C` is `m × n` and the contracted
/// dimension is `k`.
///
/// Every element is computed in the reference BLAS order: `β·c` first,
/// then `+ (α·b_lj)·a_il` for `l` ascending, skipping each term whose
/// `b_lj` is zero. Only the loop nest differs per transpose case: with `A`
/// as stored the product streams down columns of `C`; with `Aᵀ` each
/// element is a dot product down a column of `A`, `CHAINS` at a time
/// through a `Panel` of at most `PANEL_ROWS` rows.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    for j in 0..n {
        for cij in &mut c[j * ldc..][..m] {
            *cij *= beta;
        }
    }
    if alpha == 0.0 || k == 0 {
        return;
    }
    let gb = |l: usize, j: usize| match transb {
        Trans::No => b[j * ldb + l],
        Trans::Yes => b[l * ldb + j],
    };
    match (transa, transb) {
        (Trans::No, _) => {
            for j in 0..n {
                let terms = (0..k)
                    .map(|l| (l, gb(l, j)))
                    .filter(|&(_, blj)| blj != 0.0)
                    .map(|(l, blj)| (l, alpha * blj));
                add_scaled_columns(&mut c[j * ldc..][..m], a, lda, terms);
            }
        }
        (Trans::Yes, Trans::No) => {
            // CHAINS columns of A at a time, PANEL_ROWS rows at a time:
            // the partial sums wait in C between row blocks.
            let mut panel = Panel::new();
            for i0 in (0..m).step_by(CHAINS) {
                let cols = i0..(i0 + CHAINS).min(m);
                for l0 in (0..k).step_by(PANEL_ROWS) {
                    let len = PANEL_ROWS.min(k - l0);
                    panel.load(a, lda, l0, len, cols.clone());
                    for j in 0..n {
                        let cj = &mut c[j * ldc + i0..][..cols.len()];
                        let mut s = [0.0; CHAINS];
                        s[..cj.len()].copy_from_slice(cj);
                        panel.fold::<true>(
                            0,
                            &b[j * ldb + l0..][..len],
                            &mut s,
                            |cij, ali, blj| cij + alpha * blj * ali,
                        );
                        cj.copy_from_slice(&s[..cj.len()]);
                    }
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            // CHAINS columns of C at a time: row i of them is column i of A
            // against a contiguous run of every row of B.
            for j0 in (0..n).step_by(CHAINS) {
                let w = CHAINS.min(n - j0);
                for i in 0..m {
                    let mut s = [0.0; CHAINS];
                    for t in 0..w {
                        s[t] = c[(j0 + t) * ldc + i];
                    }
                    for (l, &ail) in a[i * lda..][..k].iter().enumerate() {
                        for (st, &blj) in s.iter_mut().zip(&b[l * ldb + j0..][..w]) {
                            if blj != 0.0 {
                                *st += alpha * blj * ail;
                            }
                        }
                    }
                    for t in 0..w {
                        c[(j0 + t) * ldc + i] = s[t];
                    }
                }
            }
        }
    }
}

/// `C ← α·A·Aᵀ + β·C` (or `AᵀA` when `trans`), updating only the `uplo`
/// triangle of the `n × n` matrix `C`; `k` is the contracted dimension.
///
/// Each element is `α·s + β·c` with `s` summed over `l` ascending from
/// `0.0`. With `A` as stored, `CHAINS` consecutive rows of a column of
/// `C` accumulate side by side down the columns of `A`; with `Aᵀ`,
/// `CHAINS` dot products down columns of `A` run through a `Panel`.
#[allow(clippy::too_many_arguments)]
pub fn dsyrk(
    uplo: UpLo,
    trans: Trans,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let mut panel = Panel::new();
    let mut s = [0.0; CHAINS];
    for j in 0..n {
        let (lo, hi) = match uplo {
            UpLo::Lower => (j, n),
            UpLo::Upper => (0, j + 1),
        };
        for i0 in (lo..hi).step_by(CHAINS) {
            let w = CHAINS.min(hi - i0);
            s.fill(0.0);
            match trans {
                Trans::No => {
                    for l in 0..k {
                        let ajl = a[l * lda + j];
                        for (st, &ail) in s.iter_mut().zip(&a[l * lda + i0..][..w]) {
                            *st += ail * ajl;
                        }
                    }
                }
                Trans::Yes if k > 0 => {
                    panel.load(a, lda, 0, k, i0..i0 + w);
                    panel.fold::<false>(0, &a[j * lda..][..k], &mut s, |st, ali, alj| {
                        st + ali * alj
                    });
                }
                Trans::Yes => {}
            }
            for (cij, &st) in c[j * ldc + i0..][..w].iter_mut().zip(&s) {
                *cij = alpha * st + beta * *cij;
            }
        }
    }
}

/// Triangular solve with multiple right-hand sides:
/// `op(A)·X = α·B` (left) or `X·op(A) = α·B` (right); `B` (`m × n`) is
/// overwritten with `X`. `A` is triangular per `uplo`/`diag`.
#[allow(clippy::too_many_arguments)]
pub fn dtrsm(
    side: Side,
    uplo: UpLo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    for j in 0..n {
        for i in 0..m {
            *at_mut(b, ldb, i, j) *= alpha;
        }
    }
    let dim = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let diag_at = |i: usize| match diag {
        Diag::NonUnit => at(a, lda, i, i),
        Diag::Unit => 1.0,
    };
    // Effective triangle after transposition.
    let lower = matches!(
        (uplo, trans),
        (UpLo::Lower, Trans::No) | (UpLo::Upper, Trans::Yes)
    );
    let ga = |i: usize, l: usize| match trans {
        Trans::No => at(a, lda, i, l),
        Trans::Yes => at(a, lda, l, i),
    };
    match side {
        Side::Left => {
            // Solve op(A) X = B column by column.
            for j in 0..n {
                if lower {
                    for i in 0..dim {
                        let mut s = at(b, ldb, i, j);
                        for l in 0..i {
                            s -= ga(i, l) * at(b, ldb, l, j);
                        }
                        *at_mut(b, ldb, i, j) = s / diag_at(i);
                    }
                } else {
                    for i in (0..dim).rev() {
                        let mut s = at(b, ldb, i, j);
                        for l in i + 1..dim {
                            s -= ga(i, l) * at(b, ldb, l, j);
                        }
                        *at_mut(b, ldb, i, j) = s / diag_at(i);
                    }
                }
            }
        }
        Side::Right => {
            // Solve X op(A) = B row by row: X[:, j] depends on previous
            // (lower: later) columns of X.
            if lower {
                // X A = B with A lower: column j of X uses columns > j.
                for j in (0..dim).rev() {
                    for i in 0..m {
                        let mut s = at(b, ldb, i, j);
                        for l in j + 1..dim {
                            s -= at(b, ldb, i, l) * ga(l, j);
                        }
                        *at_mut(b, ldb, i, j) = s / diag_at(j);
                    }
                }
            } else {
                for j in 0..dim {
                    for i in 0..m {
                        let mut s = at(b, ldb, i, j);
                        for l in 0..j {
                            s -= at(b, ldb, i, l) * ga(l, j);
                        }
                        *at_mut(b, ldb, i, j) = s / diag_at(j);
                    }
                }
            }
        }
    }
}

/// `y ← α·x + y`.
pub fn daxpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
    for i in 0..n {
        y[i * incy] += alpha * x[i * incx];
    }
}

/// `x ← α·x`.
pub fn dscal(n: usize, alpha: f64, x: &mut [f64], incx: usize) {
    for i in 0..n {
        x[i * incx] *= alpha;
    }
}

/// Euclidean norm of a strided vector.
pub fn dnrm2(n: usize, x: &[f64], incx: usize) -> f64 {
    (0..n)
        .map(|i| x[i * incx] * x[i * incx])
        .sum::<f64>()
        .sqrt()
}

/// Dot product of two strided vectors.
pub fn ddot(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
    (0..n).map(|i| x[i * incx] * y[i * incy]).sum()
}

/// Rank-1 update `A ← A + α·x·yᵀ`.
#[allow(clippy::too_many_arguments)]
pub fn dger(
    m: usize,
    n: usize,
    alpha: f64,
    x: &[f64],
    incx: usize,
    y: &[f64],
    incy: usize,
    a: &mut [f64],
    lda: usize,
) {
    for j in 0..n {
        let ayj = alpha * y[j * incy];
        if ayj == 0.0 {
            continue;
        }
        for i in 0..m {
            *at_mut(a, lda, i, j) += x[i * incx] * ayj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use dacc_sim::rng::SimRng;

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        Matrix::random(m, n, &mut SimRng::new(seed))
    }

    #[test]
    fn dgemm_matches_naive_all_trans() {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let (m, n, k) = (5, 4, 3);
            let a = match ta {
                Trans::No => random(m, k, 1),
                Trans::Yes => random(k, m, 1),
            };
            let b = match tb {
                Trans::No => random(k, n, 2),
                Trans::Yes => random(n, k, 2),
            };
            let mut c = random(m, n, 3);
            let c0 = c.clone();
            let (alpha, beta) = (1.5, -0.5);
            dgemm(
                ta,
                tb,
                m,
                n,
                k,
                alpha,
                a.as_slice(),
                a.lda(),
                b.as_slice(),
                b.lda(),
                beta,
                c.as_mut_slice(),
                m,
            );
            let aa = match ta {
                Trans::No => a.clone(),
                Trans::Yes => a.transpose(),
            };
            let bb = match tb {
                Trans::No => b.clone(),
                Trans::Yes => b.transpose(),
            };
            let expect = Matrix::from_fn(m, n, |i, j| {
                alpha * aa.mul(&bb).get(i, j) + beta * c0.get(i, j)
            });
            assert!(
                c.max_abs_diff(&expect) < 1e-12,
                "dgemm mismatch for ({ta:?}, {tb:?})"
            );
        }
    }

    #[test]
    fn dgemm_respects_lda_submatrix() {
        // Operate on a 2x2 block inside a 4x4 matrix.
        let mut big = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let a = [1.0, 0.0, 0.0, 1.0]; // 2x2 identity, lda=2
        let b = [1.0, 2.0, 3.0, 4.0]; // 2x2, lda=2
                                      // C block at (1,1) inside big (lda=4): offset = 1*4+1
        let lda_big = 4;
        let offset = lda_big + 1;
        let before = big.clone();
        dgemm(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            1.0,
            &a,
            2,
            &b,
            2,
            0.0,
            &mut big.as_mut_slice()[offset..],
            lda_big,
        );
        // The 2x2 block is overwritten with B; everything else untouched.
        assert_eq!(big.get(1, 1), 1.0);
        assert_eq!(big.get(2, 1), 2.0);
        assert_eq!(big.get(1, 2), 3.0);
        assert_eq!(big.get(2, 2), 4.0);
        assert_eq!(big.get(0, 0), before.get(0, 0));
        assert_eq!(big.get(3, 3), before.get(3, 3));
    }

    #[test]
    fn dsyrk_matches_dgemm_on_triangle() {
        let n = 5;
        let k = 3;
        let a = random(n, k, 4);
        let mut c_syrk = random(n, n, 5);
        // Symmetrize the testing target.
        let mut c_full = c_syrk.clone();
        dsyrk(
            UpLo::Lower,
            Trans::No,
            n,
            k,
            2.0,
            a.as_slice(),
            n,
            0.5,
            c_syrk.as_mut_slice(),
            n,
        );
        dgemm(
            Trans::No,
            Trans::Yes,
            n,
            n,
            k,
            2.0,
            a.as_slice(),
            n,
            a.as_slice(),
            n,
            0.5,
            c_full.as_mut_slice(),
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!((c_syrk.get(i, j) - c_full.get(i, j)).abs() < 1e-12);
            }
            // Upper triangle untouched by dsyrk — verified by comparing
            // against the scaled-but-not-updated value being different from
            // dgemm's (when i < j the dgemm result generally differs).
        }
    }

    #[test]
    fn dtrsm_left_lower_solves() {
        let n = 4;
        let nrhs = 3;
        // Well-conditioned lower-triangular A.
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + i as f64
            } else if i > j {
                0.3
            } else {
                0.0
            }
        });
        let x_true = random(n, nrhs, 6);
        let b = a.mul(&x_true);
        let mut x = b.clone();
        dtrsm(
            Side::Left,
            UpLo::Lower,
            Trans::No,
            Diag::NonUnit,
            n,
            nrhs,
            1.0,
            a.as_slice(),
            n,
            x.as_mut_slice(),
            n,
        );
        assert!(x.max_abs_diff(&x_true) < 1e-12);
    }

    #[test]
    fn dtrsm_right_lower_trans_solves() {
        // The Cholesky panel case: X · Lᵀ = B.
        let n = 4;
        let m = 6;
        let l = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else if i > j {
                0.5
            } else {
                0.0
            }
        });
        let x_true = random(m, n, 7);
        let b = x_true.mul(&l.transpose());
        let mut x = b.clone();
        dtrsm(
            Side::Right,
            UpLo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            m,
            n,
            1.0,
            l.as_slice(),
            n,
            x.as_mut_slice(),
            m,
        );
        assert!(x.max_abs_diff(&x_true) < 1e-12);
    }

    #[test]
    fn dtrsm_unit_diag_ignores_stored_diagonal() {
        let n = 3;
        let mut a = Matrix::identity(n);
        a.set(0, 0, 99.0); // must be ignored with Diag::Unit
        a.set(1, 0, 0.5);
        let b = random(n, 2, 8);
        let mut x = b.clone();
        dtrsm(
            Side::Left,
            UpLo::Lower,
            Trans::No,
            Diag::Unit,
            n,
            2,
            1.0,
            a.as_slice(),
            n,
            x.as_mut_slice(),
            n,
        );
        // Row 0 unchanged (unit diag), row 1 = b1 - 0.5*b0.
        for j in 0..2 {
            assert!((x.get(0, j) - b.get(0, j)).abs() < 1e-14);
            assert!((x.get(1, j) - (b.get(1, j) - 0.5 * b.get(0, j))).abs() < 1e-14);
        }
    }

    #[test]
    fn vector_routines() {
        let x = vec![3.0, 4.0];
        assert_eq!(dnrm2(2, &x, 1), 5.0);
        assert_eq!(ddot(2, &x, 1, &x, 1), 25.0);
        let mut y = vec![1.0, 1.0];
        daxpy(2, 2.0, &x, 1, &mut y, 1);
        assert_eq!(y, vec![7.0, 9.0]);
        let mut z = vec![2.0, 4.0];
        dscal(2, 0.5, &mut z, 1);
        assert_eq!(z, vec![1.0, 2.0]);
    }

    #[test]
    fn dger_rank1() {
        let mut a = Matrix::zeros(2, 3);
        let x = vec![1.0, 2.0];
        let y = vec![3.0, 4.0, 5.0];
        dger(2, 3, 2.0, &x, 1, &y, 1, a.as_mut_slice(), 2);
        assert_eq!(a.get(1, 2), 2.0 * 2.0 * 5.0);
        assert_eq!(a.get(0, 0), 2.0 * 1.0 * 3.0);
    }

    #[test]
    fn strided_vector_ops() {
        // Row access in a column-major matrix: stride = lda.
        let m = Matrix::from_fn(3, 3, |i, j| (i + 10 * j) as f64);
        // Row 1: elements (1,0),(1,1),(1,2) = 1, 11, 21 with stride 3.
        let row_start = 1;
        let row: Vec<f64> = m.as_slice()[row_start..].to_vec();
        assert_eq!(ddot(3, &row, 3, &row, 3), 1.0 + 121.0 + 441.0);
    }
}
