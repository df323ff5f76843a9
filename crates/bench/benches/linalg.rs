//! Host-side cost of the `dacc-linalg` CPU kernels: the products, `Q` and
//! the residuals that verify a functional QR, and one small functional
//! hybrid QR on three remote GPUs. Timings are informational.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use dacc_linalg::blas::{dgemm, Trans};
use dacc_linalg::hybrid::{dgeqrf_hybrid, HybridConfig};
use dacc_linalg::lapack::{build_q, dgeqrf, qr_residuals};
use dacc_linalg::matrix::{HostMatrix, Matrix};
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::KernelRegistry;
use dacc_vgpu::params::{ExecMode, GpuParams};

/// Order of the kernel benches: the verification order of the host-clock
/// benchmark's `qr_3gpu` workload.
const N: usize = 512;

fn bench_dgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg/dgemm_512");
    g.sample_size(10);
    let mut rng = SimRng::new(1);
    let a = Matrix::random(N, N, &mut rng);
    let b = Matrix::random(N, N, &mut rng);
    let c0 = Matrix::random(N, N, &mut rng);
    for (name, ta, tb) in [
        ("nn", Trans::No, Trans::No),
        ("nt", Trans::No, Trans::Yes),
        ("tn", Trans::Yes, Trans::No),
        ("tt", Trans::Yes, Trans::Yes),
    ] {
        g.bench_function(name, |bench| {
            let mut out = c0.clone();
            bench.iter(|| {
                dgemm(
                    ta,
                    tb,
                    N,
                    N,
                    N,
                    1.5,
                    a.as_slice(),
                    N,
                    b.as_slice(),
                    N,
                    -0.5,
                    out.as_mut_slice(),
                    N,
                );
                black_box(out.get(N - 1, N - 1))
            })
        });
    }
    g.finish();
}

fn bench_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg/qr_verify_512");
    g.sample_size(10);
    let a = Matrix::random(N, N, &mut SimRng::new(2));
    let mut f = a.clone();
    let tau = dgeqrf(N, N, f.as_mut_slice(), N, 128);
    g.bench_function("build_q", |bench| {
        bench.iter(|| black_box(build_q(N, &f, &tau).get(0, 0)))
    });
    g.bench_function("qr_residuals", |bench| {
        bench.iter(|| black_box(qr_residuals(&a, &f, &tau)))
    });
    g.finish();
}

/// One functional 48 × 48 hybrid QR (block 16) on three remote GPUs: the
/// order the tests and examples factor.
fn hybrid_qr_48(a: &Matrix) -> Vec<f64> {
    let reg = KernelRegistry::new();
    dacc_linalg::gpu::register_linalg_kernels(&reg);
    dacc_linalg::gpu::register_staging_kernels(&reg);
    let mut sim = Sim::new();
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: 3,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, reg);
    let ep = cluster.cn_endpoints.remove(0);
    let devices: Vec<AcDevice> = (0..3)
        .map(|i| {
            AcDevice::Remote(RemoteAccelerator::new(
                ep.clone(),
                cluster.daemon_rank(i),
                FrontendConfig::default(),
            ))
        })
        .collect();
    let h = sim.handle();
    let mut host = HostMatrix::Real(a.clone());
    let out = sim.spawn("qr", async move {
        let cfg = HybridConfig {
            nb: 16,
            ..HybridConfig::default()
        };
        let report = dgeqrf_hybrid(&h, &devices, &mut host, &cfg)
            .await
            .expect("hybrid QR");
        for d in &devices {
            if let AcDevice::Remote(r) = d {
                let _ = r.shutdown().await;
            }
        }
        report.tau
    });
    sim.run();
    out.try_take().expect("hybrid QR did not finish")
}

fn bench_hybrid(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg/hybrid_qr_48");
    let a = Matrix::random(48, 48, &mut SimRng::new(3));
    g.bench_function("functional_3_remote", |bench| {
        bench.iter(|| black_box(hybrid_qr_48(&a)))
    });
    g.finish();
}

criterion_group!(benches, bench_dgemm, bench_verification, bench_hybrid);
criterion_main!(benches);
