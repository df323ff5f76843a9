//! The plain loops the fast kernels replaced, kept verbatim as the oracle
//! of the differential tests below: every fast kernel must produce the
//! same bits as its reference here, on every input.

use crate::blas::{daxpy, ddot, dger, dnrm2, dscal, Trans, UpLo};
use crate::matrix::Matrix;

#[inline]
fn at(a: &[f64], lda: usize, i: usize, j: usize) -> f64 {
    a[j * lda + i]
}

#[inline]
fn at_mut(a: &mut [f64], lda: usize, i: usize, j: usize) -> &mut f64 {
    &mut a[j * lda + i]
}

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
    // Scale C by beta first.
    for j in 0..n {
        for i in 0..m {
            let cij = at_mut(c, ldc, i, j);
            *cij *= beta;
        }
    }
    if alpha == 0.0 {
        return;
    }
    let ga = |i: usize, l: usize| match transa {
        Trans::No => at(a, lda, i, l),
        Trans::Yes => at(a, lda, l, i),
    };
    let gb = |l: usize, j: usize| match transb {
        Trans::No => at(b, ldb, l, j),
        Trans::Yes => at(b, ldb, j, l),
    };
    for j in 0..n {
        for l in 0..k {
            let blj = gb(l, j);
            if blj == 0.0 {
                continue;
            }
            let s = alpha * blj;
            for i in 0..m {
                *at_mut(c, ldc, i, j) += s * ga(i, l);
            }
        }
    }
}

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
    let ga = |i: usize, l: usize| match trans {
        Trans::No => at(a, lda, i, l),
        Trans::Yes => at(a, lda, l, i),
    };
    for j in 0..n {
        let (lo, hi) = match uplo {
            UpLo::Lower => (j, n),
            UpLo::Upper => (0, j + 1),
        };
        for i in lo..hi {
            let mut s = 0.0;
            for l in 0..k {
                s += ga(i, l) * ga(j, l);
            }
            let cij = at_mut(c, ldc, i, j);
            *cij = alpha * s + beta * *cij;
        }
    }
}

/// `Matrix::mul`.
pub fn mul(a: &Matrix, other: &Matrix) -> Matrix {
    assert_eq!(a.cols(), other.rows());
    let mut c = Matrix::zeros(a.rows(), other.cols());
    let rows = c.rows();
    for j in 0..other.cols() {
        for k in 0..a.cols() {
            let bkj = other.get(k, j);
            if bkj != 0.0 {
                for i in 0..a.rows() {
                    c.as_mut_slice()[j * rows + i] += a.get(i, k) * bkj;
                }
            }
        }
    }
    c
}

pub fn dgeqr2(m: usize, n: usize, a: &mut [f64], lda: usize) -> Vec<f64> {
    let kmax = m.min(n);
    let mut tau = vec![0.0; kmax];
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

        // Apply H = I - tau v vᵀ to the trailing columns A[k.., k+1..].
        if k + 1 < n {
            // v = [1; A[k+1.., k]]
            for j in k + 1..n {
                let mut w = a[j * lda + k]; // v0 * A[k, j]
                w += ddot(
                    m - k - 1,
                    &a[k * lda + k + 1..],
                    1,
                    &a[j * lda + k + 1..],
                    1,
                );
                let t = -tau[k] * w;
                a[j * lda + k] += t;
                daxpy(
                    m - k - 1,
                    t,
                    &copy_col(a, lda, k, k + 1, m - k - 1),
                    1,
                    &mut a[j * lda + k + 1..],
                    1,
                );
            }
        }
    }
    tau
}

fn copy_col(a: &[f64], lda: usize, col: usize, row0: usize, len: usize) -> Vec<f64> {
    a[col * lda + row0..col * lda + row0 + len].to_vec()
}

pub fn dlarft(m: usize, k: usize, v: &[f64], ldv: usize, tau: &[f64]) -> Vec<f64> {
    let mut t = vec![0.0; k * k];
    for i in 0..k {
        if tau[i] == 0.0 {
            continue;
        }
        // w = Vᵀ[:, 0..i] v_i  where v_i = [zeros(i); 1; V[i+1.., i]].
        // Using the unit-lower structure: for column c < i:
        //   w[c] = V[i, c] + Σ_{r>i} V[r, c] V[r, i]
        let mut w = vec![0.0; i];
        for (c, wc) in w.iter_mut().enumerate() {
            let mut s = v[c * ldv + i]; // V[i, c] (v_i has 1 at row i)
            for r in i + 1..m {
                s += v[c * ldv + r] * v[i * ldv + r];
            }
            *wc = s;
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

pub fn build_q(m: usize, a: &Matrix, tau: &[f64]) -> Matrix {
    let mut q = Matrix::identity(m);
    let k = tau.len();
    for j in (0..k).rev() {
        // v = [zeros(j); 1; A[j+1.., j]]
        let mut v = vec![0.0; m];
        v[j] = 1.0;
        for i in j + 1..m {
            v[i] = a.get(i, j);
        }
        // Q := (I - tau v vᵀ) Q
        let mut w = vec![0.0; m]; // w = Qᵀ v
        for c in 0..m {
            let mut s = 0.0;
            for r in j..m {
                s += q.get(r, c) * v[r];
            }
            w[c] = s;
        }
        let qs = q.as_mut_slice();
        dger(m, m, -tau[j], &v, 1, &w, 1, qs, m);
    }
    q
}

pub fn cholesky_residual(a: &Matrix, factored: &Matrix) -> f64 {
    let l = factored.lower_triangle();
    let llt = mul(&l, &l.transpose());
    let mut diff = 0.0;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let d = a.get(i, j) - llt.get(i, j);
            diff += d * d;
        }
    }
    diff.sqrt() / a.frob_norm()
}

pub fn qr_residuals(a: &Matrix, factored: &Matrix, tau: &[f64]) -> (f64, f64) {
    let m = a.rows();
    let q = build_q(m, factored, tau);
    let r = factored.upper_triangle();
    let qr = mul(&q, &r.sub(0, 0, m.min(factored.rows()), factored.cols()));
    let resid = qr.max_abs_diff(a) * (a.rows() * a.cols()) as f64 / a.frob_norm().max(1.0);
    let qtq = mul(&q.transpose(), &q);
    let orth = qtq.max_abs_diff(&Matrix::identity(m));
    (resid, orth)
}

#[cfg(test)]
mod tests {
    use crate::blas::{Trans, UpLo};
    use crate::lapack;
    use crate::matrix::Matrix;
    use dacc_sim::rng::SimRng;

    /// Sizes around the chain width, and one past a multiple of it.
    const SIZES: [usize; 7] = [0, 1, 3, 8, 9, 17, 70];
    const SCALARS: [(f64, f64); 9] = [
        (0.0, 0.0),
        (0.0, 1.0),
        (0.0, -0.5),
        (1.0, 0.0),
        (1.0, 1.0),
        (1.0, -0.5),
        (1.5, 0.0),
        (1.5, 1.0),
        (1.5, -0.5),
    ];
    const TRANS: [(Trans, Trans); 4] = [
        (Trans::No, Trans::No),
        (Trans::No, Trans::Yes),
        (Trans::Yes, Trans::No),
        (Trans::Yes, Trans::Yes),
    ];
    const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

    /// Equal bits, element by element. A NaN only has to meet a NaN: Rust
    /// leaves the sign and payload of a NaN that arithmetic produces
    /// unspecified, and the same source compiles to either operand order.
    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(
                same,
                "{what}: element {i}: {g:e} ({:#x}) vs {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// `len` uniform entries with about one in five zeroed (either sign).
    fn entries(len: usize, rng: &mut SimRng) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.uniform_range(0.0, 1.0) {
                p if p < 0.1 => 0.0,
                p if p < 0.2 => -0.0,
                _ => rng.uniform_range(-1.0, 1.0),
            })
            .collect()
    }

    /// Overwrite a few entries with ±0, ±inf and NaN.
    fn sprinkle(v: &mut [f64], rng: &mut SimRng) {
        if v.is_empty() {
            return;
        }
        for (i, &x) in SPECIALS.iter().enumerate() {
            let at = ((rng.uniform_range(0.0, 1.0) * v.len() as f64) as usize + i) % v.len();
            v[at] = x;
        }
    }

    /// Storage for a `rows × cols` operand with leading dimension
    /// `rows + pad`.
    fn operand(rows: usize, cols: usize, pad: usize, rng: &mut SimRng) -> (Vec<f64>, usize) {
        let ld = rows + pad;
        (entries(ld * cols, rng), ld.max(1))
    }

    #[test]
    fn dgemm_is_bit_identical_to_reference() {
        let mut rng = SimRng::new(40);
        let mut case = 0usize;
        for (ta, tb) in TRANS {
            for m in SIZES {
                for n in SIZES {
                    for k in SIZES {
                        case += 1;
                        let (alpha, beta) = SCALARS[case % SCALARS.len()];
                        let pad = case % 3;
                        let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                        let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
                        let (mut a, lda) = operand(ar, ac, pad, &mut rng);
                        let (b, ldb) = operand(br, bc, pad, &mut rng);
                        let (c0, ldc) = operand(m, n, pad, &mut rng);
                        if case.is_multiple_of(4) {
                            sprinkle(&mut a, &mut rng);
                        }
                        let (mut want, mut got) = (c0.clone(), c0);
                        super::dgemm(
                            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc,
                        );
                        crate::blas::dgemm(
                            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut got, ldc,
                        );
                        let what = format!("dgemm {ta:?}/{tb:?} {m}x{n}x{k} α={alpha} β={beta}");
                        assert_bits(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn dgemm_every_scalar_pair_with_non_finite_entries() {
        let mut rng = SimRng::new(41);
        let (m, n, k, pad) = (19, 11, 13, 2);
        for (ta, tb) in TRANS {
            for (alpha, beta) in SCALARS {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
                let (mut a, lda) = operand(ar, ac, pad, &mut rng);
                let (b, ldb) = operand(br, bc, pad, &mut rng);
                let (mut c0, ldc) = operand(m, n, pad, &mut rng);
                sprinkle(&mut a, &mut rng);
                sprinkle(&mut c0, &mut rng);
                let (mut want, mut got) = (c0.clone(), c0);
                super::dgemm(
                    ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc,
                );
                crate::blas::dgemm(
                    ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut got, ldc,
                );
                assert_bits(
                    &got,
                    &want,
                    &format!("dgemm {ta:?}/{tb:?} α={alpha} β={beta}"),
                );
            }
        }
    }

    #[test]
    fn dsyrk_is_bit_identical_to_reference() {
        let mut rng = SimRng::new(42);
        let mut case = 0usize;
        for uplo in [UpLo::Lower, UpLo::Upper] {
            for trans in [Trans::No, Trans::Yes] {
                for n in SIZES {
                    for k in SIZES {
                        case += 1;
                        let (alpha, beta) = SCALARS[case % SCALARS.len()];
                        let pad = case % 3;
                        let (ar, ac) = if trans == Trans::No { (n, k) } else { (k, n) };
                        let (mut a, lda) = operand(ar, ac, pad, &mut rng);
                        let (c0, ldc) = operand(n, n, pad, &mut rng);
                        if case.is_multiple_of(4) {
                            sprinkle(&mut a, &mut rng);
                        }
                        let (mut want, mut got) = (c0.clone(), c0);
                        super::dsyrk(uplo, trans, n, k, alpha, &a, lda, beta, &mut want, ldc);
                        crate::blas::dsyrk(uplo, trans, n, k, alpha, &a, lda, beta, &mut got, ldc);
                        let what = format!("dsyrk {uplo:?}/{trans:?} n={n} k={k}");
                        assert_bits(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_mul_is_bit_identical_to_reference() {
        let mut rng = SimRng::new(43);
        for (case, (m, n, k)) in SIZES
            .iter()
            .flat_map(|&m| SIZES.iter().flat_map(move |&n| SIZES.map(|k| (m, n, k))))
            .enumerate()
        {
            let mut a = entries(m * k, &mut rng);
            if case.is_multiple_of(4) {
                sprinkle(&mut a, &mut rng);
            }
            let a = Matrix::from_fn(m, k, |i, j| a[j * m + i]);
            let b = entries(k * n, &mut rng);
            let b = Matrix::from_fn(k, n, |i, j| b[j * k + i]);
            let what = format!("Matrix::mul {m}x{k} · {k}x{n}");
            assert_bits(a.mul(&b).as_slice(), super::mul(&a, &b).as_slice(), &what);
        }
    }

    #[test]
    fn panel_kernels_are_bit_identical_to_reference() {
        let mut rng = SimRng::new(44);
        for (m, n) in [(1, 1), (9, 8), (17, 9), (33, 33), (70, 17), (130, 64)] {
            for pad in [0, 5] {
                let lda = m + pad;
                let a = entries(lda * n, &mut rng);
                let (mut want, mut got) = (a.clone(), a);
                let tau_want = super::dgeqr2(m, n, &mut want, lda);
                let tau_got = lapack::dgeqr2(m, n, &mut got, lda);
                assert_bits(&tau_got, &tau_want, &format!("dgeqr2 tau {m}x{n}"));
                assert_bits(&got, &want, &format!("dgeqr2 {m}x{n} lda={lda}"));
                let k = m.min(n);
                let t_want = super::dlarft(m, k, &want, lda, &tau_want);
                let t_got = lapack::dlarft(m, k, &want, lda, &tau_want);
                assert_bits(&t_got, &t_want, &format!("dlarft {m}x{k} lda={lda}"));
            }
        }
    }

    fn factored(m: usize, n: usize, seed: u64) -> (Matrix, Matrix, Vec<f64>) {
        let a = Matrix::random(m, n, &mut SimRng::new(seed));
        let mut f = a.clone();
        let tau = lapack::dgeqrf(m, n, f.as_mut_slice(), m, 16);
        (a, f, tau)
    }

    #[test]
    fn build_q_and_qr_residuals_are_bit_identical_to_reference() {
        for (m, n) in [(8, 8), (33, 33), (96, 96), (130, 130), (70, 33), (0, 0)] {
            let (a, f, tau) = factored(m, n, (m * 1000 + n) as u64);
            let what = format!("{m}x{n}");
            assert_bits(
                lapack::build_q(m, &f, &tau).as_slice(),
                super::build_q(m, &f, &tau).as_slice(),
                &format!("build_q {what}"),
            );
            let (r_got, o_got) = lapack::qr_residuals(&a, &f, &tau);
            let (r_want, o_want) = super::qr_residuals(&a, &f, &tau);
            assert_bits(
                &[r_got, o_got],
                &[r_want, o_want],
                &format!("qr_residuals {what}"),
            );
        }
    }

    /// A reflector entry or a `tau` overwritten with a non-finite or huge
    /// value.
    #[derive(Debug)]
    enum Poison {
        Entry(usize, usize, f64),
        Tau(usize, f64),
    }

    #[test]
    fn build_q_and_qr_residuals_agree_on_non_finite_factors() {
        let m = 33;
        for poison in [
            Poison::Entry(20, 5, f64::INFINITY),
            Poison::Entry(3, 1, f64::NAN),
            Poison::Entry(30, 29, f64::NEG_INFINITY),
            Poison::Entry(9, 2, 1e300),
            Poison::Tau(4, f64::NAN),
            Poison::Tau(20, f64::INFINITY),
            Poison::Tau(25, 1e300),
        ] {
            let (a, mut f, mut tau) = factored(m, m, 7);
            match poison {
                Poison::Entry(i, j, x) => f.set(i, j, x),
                Poison::Tau(t, x) => tau[t] = x,
            }
            let what = format!("{poison:?}");
            assert_bits(
                lapack::build_q(m, &f, &tau).as_slice(),
                super::build_q(m, &f, &tau).as_slice(),
                &format!("build_q {what}"),
            );
            let (r_got, o_got) = lapack::qr_residuals(&a, &f, &tau);
            let (r_want, o_want) = super::qr_residuals(&a, &f, &tau);
            assert_bits(
                &[r_got, o_got],
                &[r_want, o_want],
                &format!("qr_residuals {what}"),
            );
        }
    }

    #[test]
    fn build_q_works_every_row_of_an_overflowing_update() {
        // Finite reflectors whose second step overflows: `tau[1]·(Qᵀv)`
        // is -inf, so the reference adds 0·inf = NaN to row 0, and the
        // first step then sees that NaN.
        let m = 6;
        let f = Matrix::from_fn(m, 2, |i, j| match (i, j) {
            (i, 0) if i > 0 => 1.0,
            (i, 1) if i > 1 => 1e10,
            _ => 0.5,
        });
        let tau = [1.0, 1e300];
        assert_bits(
            lapack::build_q(m, &f, &tau).as_slice(),
            super::build_q(m, &f, &tau).as_slice(),
            "build_q overflowing update",
        );
    }

    /// `max|QᵀQ − I|` as the reference forms it.
    fn orthogonality(q: &Matrix) -> f64 {
        let m = q.rows();
        super::mul(&q.transpose(), q).max_abs_diff(&Matrix::identity(m))
    }

    #[test]
    fn orthogonality_is_bit_identical_to_reference() {
        // Q = I but for two columns: p = (NaN, 5, 0, …) and s = (0, 5, 0, …).
        // QᵀQ[p, s] = 25 is the largest finite entry only because the
        // reference skips the rows where Q[r, s] == 0; QᵀQ[s, p] is NaN.
        // Once above the diagonal, once below, past the first panel.
        let crafted = |p: usize, s: usize| {
            let mut q = Matrix::identity(10);
            for (c, head) in [(p, f64::NAN), (s, 0.0)] {
                for r in 0..10 {
                    q.set(r, c, [head, 5.0].get(r).copied().unwrap_or(0.0));
                }
            }
            q
        };
        let mut rng = SimRng::new(45);
        let mut cases = vec![crafted(0, 9), crafted(9, 0)];
        for m in SIZES {
            let mut q = entries(m * m, &mut rng);
            cases.push(Matrix::from_fn(m, m, |i, j| q[j * m + i]));
            sprinkle(&mut q, &mut rng);
            cases.push(Matrix::from_fn(m, m, |i, j| q[j * m + i]));
        }
        for q in &cases {
            let what = format!("orthogonality {}x{}", q.rows(), q.cols());
            assert_bits(&[lapack::orthogonality(q)], &[orthogonality(q)], &what);
        }
    }

    #[test]
    fn dgeqr2_sums_its_dots_from_negative_zero() {
        // A trailing column of -0: each product is -0, and only a sum that
        // starts at -0.0, as `ddot`'s does, stays -0.
        let (m, n) = (4, 2);
        let a = [1.0, 2.0, 3.0, 4.0, -0.0, -0.0, -0.0, -0.0];
        let (mut want, mut got) = (a, a);
        let tau_want = super::dgeqr2(m, n, &mut want, m);
        let tau_got = lapack::dgeqr2(m, n, &mut got, m);
        assert_bits(&tau_got, &tau_want, "dgeqr2 tau");
        assert_bits(&got, &want, "dgeqr2 on a -0 column");
    }

    #[test]
    fn cholesky_residual_is_bit_identical_to_reference() {
        for n in [1, 8, 33, 96] {
            let a = Matrix::random_spd(n, &mut SimRng::new(n as u64));
            let mut f = a.clone();
            lapack::dpotrf(n, f.as_mut_slice(), n, 16).unwrap();
            let got = lapack::cholesky_residual(&a, &f);
            let want = super::cholesky_residual(&a, &f);
            assert_bits(&[got], &[want], &format!("cholesky_residual n={n}"));
        }
    }
}
