//! LAPACK-style factorizations on the CPU.
//!
//! These serve three roles: (i) reference implementations that the hybrid
//! GPU routines are verified against, (ii) the real panel work inside the
//! hybrid routines (`dpotf2`, `dgeqr2`, `dlarft`), and (iii) the functional
//! bodies of several GPU kernels.

use crate::blas::{
    add_scaled_columns, ddot, dgemm, dnrm2, dscal, dsyrk, dtrsm, Diag, Panel, Side, Trans, UpLo,
    CHAINS,
};
use crate::matrix::{nonzero_terms, Matrix};

/// Error from a factorization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LapackError {
    /// The leading minor of this (1-based) order is not positive definite.
    NotPositiveDefinite(usize),
}

impl std::fmt::Display for LapackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LapackError::NotPositiveDefinite(k) => {
                write!(f, "matrix not positive definite at minor {k}")
            }
        }
    }
}
impl std::error::Error for LapackError {}

/// Unblocked lower Cholesky of the leading `n × n` of `a` (lda-strided).
/// On success the lower triangle holds `L`.
pub fn dpotf2(n: usize, a: &mut [f64], lda: usize) -> Result<(), LapackError> {
    for j in 0..n {
        let mut ajj = a[j * lda + j] - ddot(j, &a[j..], lda, &a[j..], lda);
        if ajj <= 0.0 || !ajj.is_finite() {
            return Err(LapackError::NotPositiveDefinite(j + 1));
        }
        ajj = ajj.sqrt();
        a[j * lda + j] = ajj;
        if j + 1 < n {
            // A[j+1.., j] -= A[j+1.., 0..j] * A[j, 0..j]ᵀ  then scale.
            for k in 0..j {
                let ajk = a[k * lda + j];
                if ajk != 0.0 {
                    for i in j + 1..n {
                        a[j * lda + i] -= ajk * a[k * lda + i];
                    }
                }
            }
            dscal(n - j - 1, 1.0 / ajj, &mut a[j * lda + j + 1..], 1);
        }
    }
    Ok(())
}

/// Blocked lower Cholesky (CPU reference): right-looking, block size `nb`.
pub fn dpotrf(n: usize, a: &mut [f64], lda: usize, nb: usize) -> Result<(), LapackError> {
    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        // Diagonal block.
        let diag_off = k * lda + k;
        dpotf2(kb, &mut a[diag_off..], lda).map_err(|LapackError::NotPositiveDefinite(i)| {
            LapackError::NotPositiveDefinite(k + i)
        })?;
        let rest = n - k - kb;
        if rest > 0 {
            // Panel: A[k+kb.., k..k+kb] := A[k+kb.., k..k+kb] * L_kkᵀ⁻¹.
            let (diag_block, _) = split_at_owned(a, diag_off);
            let panel_off = k * lda + k + kb;
            dtrsm(
                Side::Right,
                UpLo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                rest,
                kb,
                1.0,
                &diag_block,
                lda,
                &mut a[panel_off..],
                lda,
            );
            // Trailing update: A22 -= L21 L21ᵀ (lower triangle).
            let panel = copy_block(a, lda, k + kb, k, rest, kb);
            dsyrk(
                UpLo::Lower,
                Trans::No,
                rest,
                kb,
                -1.0,
                &panel,
                rest,
                1.0,
                &mut a[(k + kb) * lda + k + kb..],
                lda,
            );
        }
        k += kb;
    }
    Ok(())
}

/// Copy an `m × n` lda-strided block starting at `(i0, j0)` into a dense
/// column-major buffer.
pub fn copy_block(a: &[f64], lda: usize, i0: usize, j0: usize, m: usize, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(m * n);
    for j in 0..n {
        let base = (j0 + j) * lda + i0;
        out.extend_from_slice(&a[base..base + m]);
    }
    out
}

/// Write a dense `m × n` buffer back into an lda-strided block.
pub fn write_block(
    a: &mut [f64],
    lda: usize,
    i0: usize,
    j0: usize,
    m: usize,
    n: usize,
    src: &[f64],
) {
    for j in 0..n {
        let base = (j0 + j) * lda + i0;
        a[base..base + m].copy_from_slice(&src[j * m..(j + 1) * m]);
    }
}

fn split_at_owned(a: &[f64], off: usize) -> (Vec<f64>, ()) {
    (a[off..].to_vec(), ())
}

/// Unblocked Householder QR of the `m × n` panel in `a` (lda-strided).
/// Returns the scalar factors `tau`; reflectors are stored below the
/// diagonal (implicit unit), `R` on and above it. (LAPACK `dgeqr2`.)
pub fn dgeqr2(m: usize, n: usize, a: &mut [f64], lda: usize) -> Vec<f64> {
    let kmax = m.min(n);
    let mut tau = vec![0.0; kmax];
    let mut panel = Panel::new();
    for k in 0..kmax {
        // Generate the reflector for column k.
        let alpha = a[k * lda + k];
        let xnorm = if k + 1 < m {
            dnrm2(m - k - 1, &a[k * lda + k + 1..], 1)
        } else {
            0.0
        };
        if xnorm == 0.0 {
            tau[k] = 0.0;
            continue;
        }
        let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
        tau[k] = (beta - alpha) / beta;
        let scale = 1.0 / (alpha - beta);
        dscal(m - k - 1, scale, &mut a[k * lda + k + 1..], 1);
        a[k * lda + k] = beta;

        // Apply H = I - tau v vᵀ to the trailing columns A[k.., k+1..],
        // CHAINS columns' dot products at a time. v = [1; A[k+1.., k]].
        if k + 1 < n {
            let (head, trail) = a.split_at_mut((k + 1) * lda);
            let v = &head[k * lda + k + 1..][..m - k - 1];
            for j0 in (0..n - k - 1).step_by(CHAINS) {
                let cols = j0..(j0 + CHAINS).min(n - k - 1);
                panel.load(trail, lda, k + 1, v.len(), cols.clone());
                // The same sum as `ddot`, whose fold starts at -0.0.
                let mut dots = [-0.0; CHAINS];
                panel.fold::<false>(0, v, &mut dots, |s, aj, vr| s + vr * aj);
                for (j, &dot) in cols.zip(&dots) {
                    let col = &mut trail[j * lda + k..][..m - k];
                    let t = -tau[k] * (col[0] + dot);
                    col[0] += t;
                    for (x, &vr) in col[1..].iter_mut().zip(v) {
                        *x += t * vr;
                    }
                }
            }
        }
    }
    tau
}

/// Build the upper-triangular block reflector factor `T` (`k × k`) from the
/// panel `v` (`m × k`, unit lower, reflectors below the diagonal) and `tau`.
/// (LAPACK `dlarft`, forward/columnwise.)
pub fn dlarft(m: usize, k: usize, v: &[f64], ldv: usize, tau: &[f64]) -> Vec<f64> {
    let mut t = vec![0.0; k * k];
    let mut w = vec![0.0; k];
    let mut panel = Panel::new();
    for i in 0..k {
        if tau[i] == 0.0 {
            continue;
        }
        // w = Vᵀ[:, 0..i] v_i  where v_i = [zeros(i); 1; V[i+1.., i]].
        // Using the unit-lower structure: for column c < i:
        //   w[c] = V[i, c] + Σ_{r>i} V[r, c] V[r, i]
        let tail = (i + 1).min(m)..m;
        let vi = &v[i * ldv + tail.start..][..tail.len()];
        for c0 in (0..i).step_by(CHAINS) {
            let cols = c0..(c0 + CHAINS).min(i);
            let mut s = [0.0; CHAINS];
            for (st, c) in s.iter_mut().zip(cols.clone()) {
                *st = v[c * ldv + i]; // V[i, c] (v_i has 1 at row i)
            }
            panel.load(v, ldv, tail.start, tail.len(), cols.clone());
            panel.fold::<false>(0, vi, &mut s, |s, vc, vi| s + vc * vi);
            w[cols.clone()].copy_from_slice(&s[..cols.len()]);
        }
        // T[0..i, i] = -tau_i * T[0..i, 0..i] * w
        for r in 0..i {
            let mut s = 0.0;
            for c in r..i {
                s += t[c * k + r] * w[c];
            }
            t[i * k + r] = -tau[i] * s;
        }
        t[i * k + i] = tau[i];
    }
    t
}

/// Apply the block reflector `Hᵀ = (I − V T Vᵀ)ᵀ` from the left to the
/// `m × n` matrix `c` (lda-strided). `v` is `m × k` with unit lower
/// triangle; `t` is `k × k` upper triangular. (LAPACK `dlarfb`,
/// left/transpose/forward/columnwise — the QR trailing update.)
#[allow(clippy::too_many_arguments)]
pub fn dlarfb_left_trans(
    m: usize,
    n: usize,
    k: usize,
    v: &[f64],
    ldv: usize,
    t: &[f64],
    c: &mut [f64],
    ldc: usize,
) {
    // Materialize V with its unit-lower structure.
    let mut vfull = vec![0.0; m * k];
    for j in 0..k {
        for i in 0..m {
            vfull[j * m + i] = match i.cmp(&j) {
                std::cmp::Ordering::Less => 0.0,
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Greater => v[j * ldv + i],
            };
        }
    }
    // W = Vᵀ C  (k × n)
    let mut w = vec![0.0; k * n];
    dgemm(
        Trans::Yes,
        Trans::No,
        k,
        n,
        m,
        1.0,
        &vfull,
        m,
        c,
        ldc,
        0.0,
        &mut w,
        k,
    );
    // W = Tᵀ W
    let mut w2 = vec![0.0; k * n];
    dgemm(
        Trans::Yes,
        Trans::No,
        k,
        n,
        k,
        1.0,
        t,
        k,
        &w,
        k,
        0.0,
        &mut w2,
        k,
    );
    // C -= V W
    dgemm(
        Trans::No,
        Trans::No,
        m,
        n,
        k,
        -1.0,
        &vfull,
        m,
        &w2,
        k,
        1.0,
        c,
        ldc,
    );
}

/// Blocked Householder QR (CPU reference, block size `nb`): panels via
/// [`dgeqr2`], trailing updates via [`dlarfb_left_trans`]. Returns `tau`.
pub fn dgeqrf(m: usize, n: usize, a: &mut [f64], lda: usize, nb: usize) -> Vec<f64> {
    let kmax = m.min(n);
    let mut tau = vec![0.0; kmax];
    let mut k = 0;
    while k < kmax {
        let kb = nb.min(kmax - k);
        let mrem = m - k;
        // Factor the panel A[k.., k..k+kb].
        let panel_off = k * lda + k;
        let ptau = dgeqr2(mrem, kb, &mut a[panel_off..], lda);
        tau[k..k + kb].copy_from_slice(&ptau);
        // Trailing update.
        if k + kb < n {
            let t = dlarft(mrem, kb, &a[panel_off..], lda, &ptau);
            let v = copy_block(a, lda, k, k, mrem, kb);
            let trail_off = (k + kb) * lda + k;
            dlarfb_left_trans(mrem, n - k - kb, kb, &v, mrem, &t, &mut a[trail_off..], lda);
        }
        k += kb;
    }
    tau
}

/// Explicitly build `Q` (`m × m`) from a factored QR (`a` holding
/// reflectors, `tau`) by applying `H_1 ⋯ H_k` to the identity, last
/// reflector first. Used by [`qr_residuals`]; `O(m²k)` flops.
///
/// Each step is `Q ← Q − τ·v·(Qᵀv)ᵀ`, and a column of `Q` only ever
/// meets itself and the reflectors, so `Q` is built `CHAINS` columns at
/// a time in a `Panel`: every reflector's dot products, then its update,
/// while the panel stays in cache.
pub fn build_q(m: usize, a: &Matrix, tau: &[f64]) -> Matrix {
    let mut q = Matrix::identity(m);
    let k = tau.len();
    // Reflector j's entries below its implicit unit diagonal.
    let tail = |j: usize| &a.as_slice()[j * a.rows()..][j + 1..m];
    // Before step j, columns c < j of Q are still e_c as long as the
    // reflectors j + 1.. are all finite: their dot products are +0 and the
    // reference leaves them alone, so this does too. Below the last
    // non-finite reflector every column is worked.
    let last_bad = (0..k)
        .rev()
        .find(|&j| !tau[j].is_finite() || !tail(j).iter().all(|x| x.is_finite()));
    let blocked = |j: usize| last_bad.is_none_or(|bad| j > bad);
    let mut panel = Panel::new();
    for c0 in (0..m).step_by(CHAINS) {
        let cols = c0..(c0 + CHAINS).min(m);
        panel.load(q.as_slice(), m, 0, m, cols.clone());
        for j in (0..k).rev() {
            if blocked(j) && cols.end <= j {
                continue;
            }
            let v = tail(j);
            // w = Qᵀv with v = [zeros(j); 1; v]: the sum starts at 0.0.
            let mut w = panel.row(j).map(|qjc| 0.0 + qjc * 1.0);
            panel.fold::<false>(j + 1, v, &mut w, |s, qrc, vr| s + qrc * vr);
            // Q[:, c] += v · ayj[c]. The reference skips a column with
            // ayj[c] == 0, but that only adds ±0 where v is finite (and
            // where it is not, no ayj is 0), and no entry of Q is ever -0:
            // adding ±0 changes nothing. For the same reason rows i < j
            // (v_i = 0) only matter when some ayj[c] is not finite.
            let ayj = w.map(|wc| -tau[j] * wc);
            let finite = ayj[..cols.len()].iter().all(|x| x.is_finite());
            let rows = panel.rows_mut();
            let add = |row: &mut [f64; CHAINS], vr: f64| {
                for t in 0..CHAINS {
                    row[t] += vr * ayj[t];
                }
            };
            if !finite {
                rows[..j].iter_mut().for_each(|row| add(row, 0.0));
            }
            add(&mut rows[j], 1.0);
            rows[j + 1..]
                .iter_mut()
                .zip(v)
                .for_each(|(row, &vr)| add(row, vr));
        }
        panel.store(q.as_mut_slice(), m, 0, cols);
    }
    q
}

/// Relative Cholesky residual `‖A − L Lᵀ‖_F / ‖A‖_F`.
pub fn cholesky_residual(a: &Matrix, factored: &Matrix) -> f64 {
    let l = factored.lower_triangle();
    let llt = l.mul(&l.transpose());
    let mut diff = 0.0;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let d = a.get(i, j) - llt.get(i, j);
            diff += d * d;
        }
    }
    diff.sqrt() / a.frob_norm()
}

/// Verification figures for `factored` (reflectors below the diagonal,
/// `R` on and above it) and `tau`, the QR of the `m × n` matrix `a`:
///
/// * the residual `max|A − Q·R| · m·n / max(‖A‖_F, 1)`;
/// * the orthogonality `max|QᵀQ − I|`.
///
/// `Q` comes from [`build_q`]; `R` is read in place. `Q·R` is formed one
/// column at a time and `QᵀQ`, which is symmetric, one triangle at a time
/// (both if `Q` has a non-finite entry, where the two need not agree);
/// neither is kept.
pub fn qr_residuals(a: &Matrix, factored: &Matrix, tau: &[f64]) -> (f64, f64) {
    let (m, n) = (a.rows(), a.cols());
    assert!(factored.rows() >= m && factored.cols() == n);
    let q = build_q(m, factored, tau);
    let mut col = vec![0.0; m];
    let mut max_diff = 0.0f64;
    for j in 0..n {
        col.fill(0.0);
        let r_j = &factored.as_slice()[j * factored.rows()..][..(j + 1).min(m)];
        add_scaled_columns(&mut col, q.as_slice(), m, nonzero_terms(r_j));
        for (i, &qr) in col.iter().enumerate() {
            max_diff = max_diff.max((qr - a.get(i, j)).abs());
        }
    }
    let resid = max_diff * (m * n) as f64 / a.frob_norm().max(1.0);
    (resid, orthogonality(&q))
}

/// `max|QᵀQ − I|` for the square `q`, `QᵀQ` summed as `Matrix::mul` sums
/// it. `QᵀQ[i, j]` is the dot of columns `i` and `j`, skipping the rows
/// where `Q[r, j] == 0`. With `Q` finite such a row adds `±0` to a sum that
/// is never `-0`, so the skip changes nothing and the two triangles agree:
/// the upper one, with the diagonal, is enough.
pub(crate) fn orthogonality(q: &Matrix) -> f64 {
    let m = q.rows();
    let qs = q.as_slice();
    let full = !qs.iter().all(|x| x.is_finite());
    let mut orth = 0.0f64;
    let mut panel = Panel::new();
    for i0 in (0..m).step_by(CHAINS) {
        let cols = i0..(i0 + CHAINS).min(m);
        panel.load(qs, m, 0, m, cols.clone());
        let j0 = if full { 0 } else { i0 };
        for j in j0..m {
            let qj = &qs[j * m..][..m];
            let mut dots = [0.0; CHAINS];
            if full {
                panel.fold::<true>(0, qj, &mut dots, |s, qri, qrj| s + qri * qrj);
            } else {
                panel.fold::<false>(0, qj, &mut dots, |s, qri, qrj| s + qri * qrj);
            }
            for (i, &d) in cols.clone().zip(&dots) {
                let eye = if i == j { 1.0 } else { 0.0 };
                orth = orth.max((d - eye).abs());
            }
        }
    }
    orth
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacc_sim::rng::SimRng;

    #[test]
    fn dpotf2_small_known() {
        // A = [[4, 2], [2, 5]] => L = [[2, 0], [1, 2]]
        let mut a = vec![4.0, 2.0, 2.0, 5.0];
        dpotf2(2, &mut a, 2).unwrap();
        assert!((a[0] - 2.0).abs() < 1e-15);
        assert!((a[1] - 1.0).abs() < 1e-15);
        assert!((a[3] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn dpotf2_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // indefinite
        assert_eq!(
            dpotf2(2, &mut a, 2),
            Err(LapackError::NotPositiveDefinite(2))
        );
    }

    #[test]
    fn blocked_cholesky_matches_unblocked() {
        for n in [1usize, 5, 16, 33, 64] {
            let a = Matrix::random_spd(n, &mut SimRng::new(n as u64));
            let mut x1 = a.clone();
            dpotf2(n, x1.as_mut_slice(), n).unwrap();
            let mut x2 = a.clone();
            dpotrf(n, x2.as_mut_slice(), n, 8).unwrap();
            assert!(
                x1.lower_triangle().max_abs_diff(&x2.lower_triangle()) < 1e-9,
                "n={n}"
            );
        }
    }

    #[test]
    fn blocked_cholesky_residual_small() {
        let n = 48;
        let a = Matrix::random_spd(n, &mut SimRng::new(9));
        let mut f = a.clone();
        dpotrf(n, f.as_mut_slice(), n, 16).unwrap();
        assert!(cholesky_residual(&a, &f) < 1e-12);
    }

    #[test]
    fn dgeqr2_reproduces_a() {
        let (m, n) = (8, 5);
        let a = Matrix::random(m, n, &mut SimRng::new(10));
        let mut f = a.clone();
        let tau = dgeqr2(m, n, f.as_mut_slice(), m);
        let (resid, orth) = qr_residuals(&a, &f, &tau);
        assert!(resid < 1e-10, "residual {resid}");
        assert!(orth < 1e-12, "orthogonality {orth}");
    }

    #[test]
    fn blocked_qr_matches_unblocked() {
        for (m, n) in [(12usize, 12usize), (20, 12), (17, 17), (33, 20)] {
            let a = Matrix::random(m, n, &mut SimRng::new((m * 100 + n) as u64));
            let mut f1 = a.clone();
            let tau1 = dgeqr2(m, n, f1.as_mut_slice(), m);
            let mut f2 = a.clone();
            let tau2 = dgeqrf(m, n, f2.as_mut_slice(), m, 5);
            // R may differ in reflector storage, but R itself (upper part)
            // is unique up to column signs; compare |R|.
            for j in 0..n {
                for i in 0..=j.min(m - 1) {
                    assert!(
                        (f1.get(i, j).abs() - f2.get(i, j).abs()).abs() < 1e-9,
                        "R mismatch at ({i},{j}) for {m}x{n}"
                    );
                }
            }
            // Both reproduce A.
            let (r1, o1) = qr_residuals(&a, &f1, &tau1);
            let (r2, o2) = qr_residuals(&a, &f2, &tau2);
            assert!(r1 < 1e-9 && r2 < 1e-9, "residuals {r1} {r2}");
            assert!(o1 < 1e-11 && o2 < 1e-11);
        }
    }

    #[test]
    fn dlarft_consistent_with_sequential_reflectors() {
        // Applying I - V T Vᵀ must equal applying H_1 H_2 ... H_k.
        let (m, k) = (10, 4);
        let a = Matrix::random(m, k, &mut SimRng::new(11));
        let mut f = a.clone();
        let tau = dgeqr2(m, k, f.as_mut_slice(), m);
        let t = dlarft(m, k, f.as_slice(), m, &tau);

        // Apply blockwise to a random C.
        let c0 = Matrix::random(m, 3, &mut SimRng::new(12));
        let mut c_block = c0.clone();
        dlarfb_left_trans(m, 3, k, f.as_slice(), m, &t, c_block.as_mut_slice(), m);

        // Apply reflectors one by one: C := H_k ... H_1 C (i.e. Qᵀ C).
        let mut c_seq = c0.clone();
        for j in 0..k {
            let mut v = vec![0.0; m];
            v[j] = 1.0;
            for i in j + 1..m {
                v[i] = f.get(i, j);
            }
            for col in 0..3 {
                let mut w = 0.0;
                for r in j..m {
                    w += v[r] * c_seq.get(r, col);
                }
                for r in j..m {
                    let cur = c_seq.get(r, col);
                    c_seq.set(r, col, cur - tau[j] * v[r] * w);
                }
            }
        }
        assert!(c_block.max_abs_diff(&c_seq) < 1e-11);
    }

    #[test]
    fn copy_write_block_roundtrip() {
        let mut a: Vec<f64> = (0..20).map(|x| x as f64).collect(); // 4x5, lda 4
        let blk = copy_block(&a, 4, 1, 1, 2, 3);
        assert_eq!(blk, vec![5.0, 6.0, 9.0, 10.0, 13.0, 14.0]);
        let newblk = vec![-1.0, -2.0, -3.0, -4.0, -5.0, -6.0];
        write_block(&mut a, 4, 1, 1, 2, 3, &newblk);
        assert_eq!(copy_block(&a, 4, 1, 1, 2, 3), newblk);
        assert_eq!(a[0], 0.0);
    }
}
