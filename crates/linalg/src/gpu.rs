//! GPU kernels for dense linear algebra, with C1060-calibrated cost models.
//!
//! Functional bodies run the real arithmetic (via [`crate::blas`]) on device
//! memory; cost models charge `flops / effective_rate` where the effective
//! rate follows a saturating efficiency curve in each dimension — small
//! trailing matrices run far below peak, which is what bends the GFlop/s
//! curves of Figures 9 and 10 at small N.

use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{KernelArg, KernelError, KernelRegistry, LaunchConfig};
use dacc_vgpu::memory::{DeviceMem, DevicePtr};
use dacc_vgpu::params::GpuParams;

use crate::blas::{dgemm, dtrsm, Diag, Side, Trans, UpLo};
use crate::lapack::dlarfb_left_trans;

/// Saturating efficiency factor: `x / (x + x0)`.
fn eff(x: usize, x0: f64) -> f64 {
    let x = x as f64;
    x / (x + x0)
}

/// Effective DGEMM rate for an `m × n × k` product on this device.
///
/// Calibration: with `k = 128` (the hybrid block size) and large `m, n`,
/// a C1060 sustains ≈ 60–65 GFlop/s fp64 DGEMM out of its 78 GFlop/s peak.
pub fn dgemm_rate(m: usize, n: usize, k: usize, p: &GpuParams) -> f64 {
    p.fp64_peak_flops * eff(m, 192.0) * eff(n, 24.0) * eff(k, 16.0)
}

/// Modelled execution time of an `m × n × k` DGEMM.
pub fn dgemm_time(m: usize, n: usize, k: usize, p: &GpuParams) -> SimDuration {
    if m == 0 || n == 0 || k == 0 {
        return SimDuration::ZERO;
    }
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    SimDuration::from_secs_f64(flops / dgemm_rate(m, n, k, p))
}

/// The bytes from an `m × n` column-major matrix's first element to past
/// its last, with `ld` doubles between columns; a leading dimension below
/// the row count (columns overlapping) or a span past `u64` is a bad
/// argument.
fn mat_span(ld: usize, m: usize, n: usize) -> Result<u64, KernelError> {
    if n > 1 && ld < m {
        return Err(KernelError::BadArg(format!(
            "leading dimension {ld} < {m} rows"
        )));
    }
    let span = match (m, n) {
        (0, _) | (_, 0) => Some(0),
        _ => (n - 1)
            .checked_mul(ld)
            .and_then(|x| x.checked_add(m))
            .and_then(|x| x.checked_mul(8)),
    };
    let span = span.ok_or_else(|| KernelError::BadArg(format!("{m} x {n} matrix, ld {ld}")));
    Ok(span? as u64)
}

/// Read an `m × n` matrix: its whole span is bounds-checked before
/// anything is reserved or read.
fn read_mat(
    mem: &DeviceMem,
    ptr: DevicePtr,
    ld: usize,
    m: usize,
    n: usize,
) -> Result<Vec<f64>, KernelError> {
    let span = mat_span(ld, m, n)?;
    if span == 0 {
        return Ok(Vec::new());
    }
    mem.resolve(ptr, span)?;
    let mut out = Vec::with_capacity(m * n);
    for j in 0..n {
        out.extend(mem.read_f64(ptr.offset((j * ld * 8) as u64), m)?);
    }
    Ok(out)
}

/// Write an `m × n` matrix from `data`, its span checked first.
fn write_mat(
    mem: &mut DeviceMem,
    ptr: DevicePtr,
    ld: usize,
    m: usize,
    n: usize,
    data: &[f64],
) -> Result<(), KernelError> {
    let span = mat_span(ld, m, n)?;
    if span == 0 {
        return Ok(());
    }
    mem.resolve(ptr, span)?;
    for j in 0..n {
        mem.write_f64(ptr.offset((j * ld * 8) as u64), &data[j * m..(j + 1) * m])?;
    }
    Ok(())
}

/// Register the linear-algebra kernels on `reg`:
///
/// * `la.dgemm(ta, tb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc)`
/// * `la.dtrsm_rlt(m, n, A, lda, X, ldx)` — `X ← X · A⁻ᵀ`, `A` lower
///   triangular (the Cholesky panel solve)
/// * `la.dlarfb(m, n, k, V, ldv, T, C, ldc)` — apply the blocked reflector
///   `(I − V T Vᵀ)ᵀ` from the left (the QR trailing update; internally three
///   DGEMMs, charged as such)
pub fn register_linalg_kernels(reg: &KernelRegistry) {
    reg.register(
        "la.dgemm",
        13,
        |_cfg, args, p| {
            let m = args[2].usize().unwrap_or(0);
            let n = args[3].usize().unwrap_or(0);
            let k = args[4].usize().unwrap_or(0);
            dgemm_time(m, n, k, p)
        },
        |mem, _cfg, args| {
            let ta = if args[0].u64()? != 0 {
                Trans::Yes
            } else {
                Trans::No
            };
            let tb = if args[1].u64()? != 0 {
                Trans::Yes
            } else {
                Trans::No
            };
            let (m, n, k) = (args[2].usize()?, args[3].usize()?, args[4].usize()?);
            let alpha = args[5].f64()?;
            let (pa, lda) = (args[6].ptr()?, args[7].usize()?);
            let (pb, ldb) = (args[8].ptr()?, args[9].usize()?);
            let beta = args[10].f64()?;
            let (pc, ldc) = (args[11].ptr()?, args[12].usize()?);
            if m == 0 || n == 0 {
                return Ok(());
            }
            let (am, an) = match ta {
                Trans::No => (m, k),
                Trans::Yes => (k, m),
            };
            let (bm, bn) = match tb {
                Trans::No => (k, n),
                Trans::Yes => (n, k),
            };
            let a = read_mat(mem, pa, lda, am, an)?;
            let b = read_mat(mem, pb, ldb, bm, bn)?;
            let mut c = read_mat(mem, pc, ldc, m, n)?;
            dgemm(ta, tb, m, n, k, alpha, &a, am, &b, bm, beta, &mut c, m);
            write_mat(mem, pc, ldc, m, n, &c)?;
            Ok(())
        },
    );

    reg.register(
        "la.dtrsm_rlt",
        6,
        |_cfg, args, p| {
            let m = args[0].usize().unwrap_or(0);
            let n = args[1].usize().unwrap_or(0);
            // m·n² flops; triangular solves run below DGEMM efficiency.
            if m == 0 || n == 0 {
                return SimDuration::ZERO;
            }
            let flops = m as f64 * (n as f64 * n as f64);
            SimDuration::from_secs_f64(flops / (0.6 * dgemm_rate(m, n, n, p)))
        },
        |mem, _cfg, args| {
            let (m, n) = (args[0].usize()?, args[1].usize()?);
            let (pa, lda) = (args[2].ptr()?, args[3].usize()?);
            let (px, ldx) = (args[4].ptr()?, args[5].usize()?);
            if m == 0 || n == 0 {
                return Ok(());
            }
            let a = read_mat(mem, pa, lda, n, n)?;
            let mut x = read_mat(mem, px, ldx, m, n)?;
            dtrsm(
                Side::Right,
                UpLo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                m,
                n,
                1.0,
                &a,
                n,
                &mut x,
                m,
            );
            write_mat(mem, px, ldx, m, n, &x)?;
            Ok(())
        },
    );

    reg.register(
        "la.dlarfb",
        8,
        |_cfg, args, p| {
            let m = args[0].usize().unwrap_or(0);
            let n = args[1].usize().unwrap_or(0);
            let k = args[2].usize().unwrap_or(0);
            if m == 0 || n == 0 || k == 0 {
                return SimDuration::ZERO;
            }
            // W = VᵀC, W = TᵀW, C -= V W: 4mnk + 2k²n flops. MAGMA's
            // fused dlarfb sustains DGEMM-like rates, so charge the whole
            // thing at the rate of the dominant (m × n × k) product.
            let (m_, n_, k_) = (m as f64, n as f64, k as f64);
            let flops = 4.0 * (m_ * n_) * k_ + 2.0 * (k_ * k_ * n_);
            SimDuration::from_secs_f64(flops / dgemm_rate(m, n, k, p))
        },
        |mem, _cfg, args| {
            let (m, n, k) = (args[0].usize()?, args[1].usize()?, args[2].usize()?);
            let (pv, ldv) = (args[3].ptr()?, args[4].usize()?);
            let pt = args[5].ptr()?;
            let (pc, ldc) = (args[6].ptr()?, args[7].usize()?);
            if m == 0 || n == 0 || k == 0 {
                return Ok(());
            }
            let v = read_mat(mem, pv, ldv, m, k)?;
            let t = read_mat(mem, pt, k, k, k)?;
            let mut c = read_mat(mem, pc, ldc, m, n)?;
            dlarfb_left_trans(m, n, k, &v, m, &t, &mut c, m);
            write_mat(mem, pc, ldc, m, n, &c)?;
            Ok(())
        },
    );
}

/// Register the pack/unpack staging kernels (strided ↔ dense on device).
///
/// One-dimensional `acMemCpy` cannot move an lda-strided sub-matrix in one
/// transfer, so — as MAGMA's multi-GPU ports do — strided panels are packed
/// into a contiguous scratch buffer on the device before a D2H transfer,
/// and unpacked after an H2D transfer. Cost: a device-memory copy at GDDR
/// bandwidth.
///
/// * `la.pack(src, ld, rows, cols, dst)` — gather into dense `dst`.
/// * `la.unpack(src, dst, ld, rows, cols)` — scatter dense `src`.
pub fn register_staging_kernels(reg: &KernelRegistry) {
    let copy_cost = |rows: u64, cols: u64| {
        let bytes = rows.saturating_mul(cols).saturating_mul(8);
        // Read + write at ~35 GiB/s effective device-memory bandwidth.
        Bandwidth::from_gib_per_sec(35.0).transfer_time(bytes.saturating_mul(2))
    };
    reg.register(
        "la.pack",
        5,
        move |_cfg, args, _p| copy_cost(args[2].u64().unwrap_or(0), args[3].u64().unwrap_or(0)),
        |mem, _cfg, args| {
            let (src, ld) = (args[0].ptr()?, args[1].usize()?);
            let (rows, cols) = (args[2].usize()?, args[3].usize()?);
            let dst = args[4].ptr()?;
            let data = read_mat(mem, src, ld, rows, cols)?;
            mem.write_f64(dst, &data)?;
            Ok(())
        },
    );
    reg.register(
        "la.unpack",
        5,
        move |_cfg, args, _p| copy_cost(args[3].u64().unwrap_or(0), args[4].u64().unwrap_or(0)),
        |mem, _cfg, args| {
            let src = args[0].ptr()?;
            let (dst, ld) = (args[1].ptr()?, args[2].usize()?);
            let (rows, cols) = (args[3].usize()?, args[4].usize()?);
            let count = rows.checked_mul(cols);
            let count = count.ok_or_else(|| KernelError::BadArg(format!("{rows} x {cols}")))?;
            let data = mem.read_f64(src, count)?;
            write_mat(mem, dst, ld, rows, cols, &data)?;
            Ok(())
        },
    );
}

/// Convenience argument builders for the registered kernels.
pub mod args {
    use super::*;

    /// Arguments for `la.dgemm`.
    #[allow(clippy::too_many_arguments)]
    pub fn dgemm_args(
        ta: Trans,
        tb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: DevicePtr,
        lda: usize,
        b: DevicePtr,
        ldb: usize,
        beta: f64,
        c: DevicePtr,
        ldc: usize,
    ) -> Vec<KernelArg> {
        vec![
            KernelArg::U64(u64::from(ta == Trans::Yes)),
            KernelArg::U64(u64::from(tb == Trans::Yes)),
            KernelArg::U64(m as u64),
            KernelArg::U64(n as u64),
            KernelArg::U64(k as u64),
            KernelArg::F64(alpha),
            KernelArg::Ptr(a),
            KernelArg::U64(lda as u64),
            KernelArg::Ptr(b),
            KernelArg::U64(ldb as u64),
            KernelArg::F64(beta),
            KernelArg::Ptr(c),
            KernelArg::U64(ldc as u64),
        ]
    }

    /// Arguments for `la.dtrsm_rlt`.
    pub fn dtrsm_rlt_args(
        m: usize,
        n: usize,
        a: DevicePtr,
        lda: usize,
        x: DevicePtr,
        ldx: usize,
    ) -> Vec<KernelArg> {
        vec![
            KernelArg::U64(m as u64),
            KernelArg::U64(n as u64),
            KernelArg::Ptr(a),
            KernelArg::U64(lda as u64),
            KernelArg::Ptr(x),
            KernelArg::U64(ldx as u64),
        ]
    }

    /// Arguments for `la.dlarfb`.
    #[allow(clippy::too_many_arguments)]
    pub fn dlarfb_args(
        m: usize,
        n: usize,
        k: usize,
        v: DevicePtr,
        ldv: usize,
        t: DevicePtr,
        c: DevicePtr,
        ldc: usize,
    ) -> Vec<KernelArg> {
        vec![
            KernelArg::U64(m as u64),
            KernelArg::U64(n as u64),
            KernelArg::U64(k as u64),
            KernelArg::Ptr(v),
            KernelArg::U64(ldv as u64),
            KernelArg::Ptr(t),
            KernelArg::Ptr(c),
            KernelArg::U64(ldc as u64),
        ]
    }

    /// Standard launch configuration for these kernels (grid sized by
    /// output tiles; the cost model is what matters).
    pub fn launch_cfg(m: usize, n: usize) -> LaunchConfig {
        LaunchConfig {
            grid: (
                m.div_ceil(64).max(1) as u32,
                n.div_ceil(16).max(1) as u32,
                1,
            ),
            block: (64, 16, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use dacc_sim::rng::SimRng;
    use dacc_vgpu::device::{HostMemKind, VirtualGpu};
    use dacc_vgpu::params::{ExecMode, GpuParams};

    fn upload(gpu: &VirtualGpu, m: &Matrix) -> DevicePtr {
        let ptr = gpu.mem().alloc((m.as_slice().len() * 8) as u64).unwrap();
        gpu.mem().write_f64(ptr, m.as_slice()).unwrap();
        ptr
    }

    fn download(gpu: &VirtualGpu, ptr: DevicePtr, rows: usize, cols: usize) -> Matrix {
        let v = gpu.mem().read_f64(ptr, rows * cols).unwrap();
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice().copy_from_slice(&v);
        m
    }

    fn test_gpu() -> (Sim, VirtualGpu) {
        let sim = Sim::new();
        let reg = KernelRegistry::new();
        register_linalg_kernels(&reg);
        let gpu = VirtualGpu::new(
            &sim.handle(),
            "gpu",
            GpuParams::tesla_c1060(),
            ExecMode::Functional,
            reg,
        );
        (sim, gpu)
    }

    #[test]
    fn device_dgemm_matches_cpu() {
        let (mut sim, gpu) = test_gpu();
        let mut rng = SimRng::new(1);
        let a = Matrix::random(6, 4, &mut rng);
        let b = Matrix::random(4, 5, &mut rng);
        let c = Matrix::random(6, 5, &mut rng);
        let pa = upload(&gpu, &a);
        let pb = upload(&gpu, &b);
        let pc = upload(&gpu, &c);
        let gpu2 = gpu.clone();
        sim.spawn("t", async move {
            gpu2.launch(
                "la.dgemm",
                args::launch_cfg(6, 5),
                &args::dgemm_args(
                    Trans::No,
                    Trans::No,
                    6,
                    5,
                    4,
                    1.0,
                    pa,
                    6,
                    pb,
                    4,
                    -1.0,
                    pc,
                    6,
                ),
            )
            .await
            .unwrap();
        });
        sim.run();
        let got = download(&gpu, pc, 6, 5);
        let expect = Matrix::from_fn(6, 5, |i, j| a.mul(&b).get(i, j) - c.get(i, j));
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn device_dgemm_strided_submatrix() {
        // C is a 3x2 block inside a 5x4 device matrix (ldc = 5).
        let (mut sim, gpu) = test_gpu();
        let mut rng = SimRng::new(2);
        let big = Matrix::random(5, 4, &mut rng);
        let a = Matrix::random(3, 2, &mut rng);
        let b = Matrix::random(2, 2, &mut rng);
        let pbig = upload(&gpu, &big);
        let pa = upload(&gpu, &a);
        let pb = upload(&gpu, &b);
        // Block starts at (1, 1): offset (1*5 + 1) elements.
        let pc = pbig.offset((5 + 1) * 8);
        let gpu2 = gpu.clone();
        sim.spawn("t", async move {
            gpu2.launch(
                "la.dgemm",
                args::launch_cfg(3, 2),
                &args::dgemm_args(Trans::No, Trans::No, 3, 2, 2, 1.0, pa, 3, pb, 2, 0.0, pc, 5),
            )
            .await
            .unwrap();
        });
        sim.run();
        let got = download(&gpu, pbig, 5, 4);
        let ab = a.mul(&b);
        for i in 0..3 {
            for j in 0..2 {
                assert!((got.get(1 + i, 1 + j) - ab.get(i, j)).abs() < 1e-12);
            }
        }
        // Border untouched.
        assert_eq!(got.get(0, 0), big.get(0, 0));
        assert_eq!(got.get(4, 3), big.get(4, 3));
    }

    #[test]
    fn device_dtrsm_solves_cholesky_panel() {
        let (mut sim, gpu) = test_gpu();
        let mut rng = SimRng::new(3);
        let l = Matrix::from_fn(3, 3, |i, j| {
            if i == j {
                2.0
            } else if i > j {
                0.4
            } else {
                0.0
            }
        });
        let x_true = Matrix::random(5, 3, &mut rng);
        let b = x_true.mul(&l.transpose());
        let pl = upload(&gpu, &l);
        let px = upload(&gpu, &b);
        let gpu2 = gpu.clone();
        sim.spawn("t", async move {
            gpu2.launch(
                "la.dtrsm_rlt",
                args::launch_cfg(5, 3),
                &args::dtrsm_rlt_args(5, 3, pl, 3, px, 5),
            )
            .await
            .unwrap();
        });
        sim.run();
        let got = download(&gpu, px, 5, 3);
        assert!(got.max_abs_diff(&x_true) < 1e-12);
    }

    #[test]
    fn device_dlarfb_matches_cpu() {
        let (mut sim, gpu) = test_gpu();
        let mut rng = SimRng::new(4);
        let (m, k, n) = (8, 3, 4);
        let a = Matrix::random(m, k, &mut rng);
        let mut f = a.clone();
        let tau = crate::lapack::dgeqr2(m, k, f.as_mut_slice(), m);
        let t = crate::lapack::dlarft(m, k, f.as_slice(), m, &tau);
        let c = Matrix::random(m, n, &mut rng);
        let mut c_cpu = c.clone();
        dlarfb_left_trans(m, n, k, f.as_slice(), m, &t, c_cpu.as_mut_slice(), m);

        let pv = upload(&gpu, &f);
        let pt = {
            let ptr = gpu.mem().alloc((k * k * 8) as u64).unwrap();
            gpu.mem().write_f64(ptr, &t).unwrap();
            ptr
        };
        let pc = upload(&gpu, &c);
        let gpu2 = gpu.clone();
        sim.spawn("t", async move {
            gpu2.launch(
                "la.dlarfb",
                args::launch_cfg(m, n),
                &args::dlarfb_args(m, n, k, pv, m, pt, pc, m),
            )
            .await
            .unwrap();
        });
        sim.run();
        let got = download(&gpu, pc, m, n);
        assert!(got.max_abs_diff(&c_cpu) < 1e-11);
    }

    #[test]
    fn gemm_rate_calibration() {
        let p = GpuParams::tesla_c1060();
        // Large m,n with the hybrid's k=128: 60-65 GFlop/s.
        let r = dgemm_rate(8000, 4000, 128, &p) / 1e9;
        assert!((58.0..=70.0).contains(&r), "k=128 rate {r}");
        // Tiny matrices: far below peak.
        let small = dgemm_rate(128, 128, 128, &p) / 1e9;
        assert!(small < 30.0, "small-matrix rate {small}");
        // Zero-size: zero time.
        assert_eq!(dgemm_time(0, 10, 10, &p), SimDuration::ZERO);
    }

    #[test]
    fn local_copy_then_kernel_pipeline() {
        // Upload via the device copy path (not direct mem access) and run.
        let (mut sim, gpu) = test_gpu();
        let a = Matrix::from_fn(4, 4, |i, j| (i == j) as u64 as f64 * 2.0);
        let gpu2 = gpu.clone();
        let done = sim.spawn("t", async move {
            let pa = gpu2.mem().alloc(4 * 4 * 8).unwrap();
            let pc = gpu2.mem().alloc(4 * 4 * 8).unwrap();
            gpu2.memcpy_h2d(
                &crate::matrix::f64_to_payload(a.as_slice()),
                pa,
                HostMemKind::Pinned,
            )
            .await
            .unwrap();
            gpu2.memcpy_h2d(
                &crate::matrix::f64_to_payload(a.as_slice()),
                pc,
                HostMemKind::Pinned,
            )
            .await
            .unwrap();
            // C := A*A - so C should be 4I since A = 2I... C = A*A + 0*C.
            gpu2.launch(
                "la.dgemm",
                args::launch_cfg(4, 4),
                &args::dgemm_args(Trans::No, Trans::No, 4, 4, 4, 1.0, pa, 4, pa, 4, 0.0, pc, 4),
            )
            .await
            .unwrap();
            gpu2.memcpy_d2h(pc, 4 * 4 * 8, HostMemKind::Pinned)
                .await
                .unwrap()
        });
        sim.run();
        let payload = done.try_take().unwrap();
        let vals = crate::matrix::payload_to_f64(&payload);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 4.0 } else { 0.0 };
                assert_eq!(vals[j * 4 + i], expect);
            }
        }
    }
}
