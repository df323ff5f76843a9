//! Figure 9/10 measurement driver: hybrid QR and Cholesky at paper scale.

use dacc_linalg::gpu::{register_linalg_kernels, register_staging_kernels};
use dacc_linalg::hybrid::{dgeqrf_hybrid, dpotrf_hybrid, HybridConfig};
use dacc_linalg::matrix::HostMatrix;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::KernelRegistry;
use dacc_vgpu::params::{ExecMode, GpuParams};

/// Which factorization to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Routine {
    /// `magma_dgeqrf2_mgpu` equivalent.
    Qr,
    /// `magma_dpotrf_mgpu` equivalent.
    Cholesky,
}

/// Device configuration for one series.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// One node-local, PCIe-attached GPU (the static baseline).
    LocalGpu,
    /// `g` network-attached GPUs via the middleware.
    RemoteGpus(usize),
}

/// The matrix sizes of Figures 9 and 10.
pub fn paper_sizes() -> Vec<usize> {
    vec![1024, 2048, 3072, 4032, 5184, 6048, 7200, 8064, 8928, 10240]
}

fn registry() -> KernelRegistry {
    let reg = KernelRegistry::new();
    register_linalg_kernels(&reg);
    register_staging_kernels(&reg);
    reg
}

/// Run one factorization at size `n` in timing-only mode; returns GFlop/s.
pub fn run_factorization(routine: Routine, config: Config, n: usize) -> f64 {
    run_factorization_with(
        routine,
        config,
        n,
        dacc_fabric::topology::FabricParams::qdr_infiniband(),
    )
}

/// Like [`run_factorization`] but over an explicit fabric model.
pub fn run_factorization_with(
    routine: Routine,
    config: Config,
    n: usize,
    fabric: dacc_fabric::topology::FabricParams,
) -> f64 {
    let accels = match config {
        Config::LocalGpu => 0,
        Config::RemoteGpus(g) => g,
    };
    let mut sim = Sim::new();
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: accels.max(1),
        local_gpus: matches!(config, Config::LocalGpu),
        mode: ExecMode::TimingOnly,
        gpu: GpuParams::tesla_c1060(),
        fabric,
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry());
    crate::telem::attach(&cluster);
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let devices: Vec<AcDevice> = match config {
        Config::LocalGpu => vec![AcProcess::local_device(cluster.local_gpus[0].clone())],
        Config::RemoteGpus(g) => (0..g)
            .map(|i| {
                AcDevice::Remote(RemoteAccelerator::new(
                    ep.clone(),
                    cluster.daemon_rank(i),
                    FrontendConfig::default(),
                ))
            })
            .collect(),
    };
    let out = sim.spawn("factor", async move {
        let mut host = HostMatrix::Shape { rows: n, cols: n };
        let cfg = HybridConfig::default();
        let report = match routine {
            Routine::Qr => dgeqrf_hybrid(&h, &devices, &mut host, &cfg).await.unwrap(),
            Routine::Cholesky => dpotrf_hybrid(&h, &devices, &mut host, &cfg).await.unwrap(),
        };
        for d in &devices {
            if let AcDevice::Remote(r) = d {
                let _ = r.shutdown().await;
            }
        }
        report.gflops
    });
    sim.run();
    out.try_take().expect("factorization did not finish")
}

/// Outcome of one instrumented remote run: throughput plus the daemons'
/// request accounting (for round-trip ablations).
pub struct DetailedRun {
    /// Achieved GFlop/s.
    pub gflops: f64,
    /// Virtual wall time of the factorization.
    pub elapsed: SimDuration,
    /// Per-daemon serving statistics, collected at shutdown.
    pub stats: Vec<DaemonStats>,
}

/// Run one factorization on `g` network-attached GPUs with explicit
/// daemon, front-end and hybrid configuration, and collect daemon
/// statistics.
pub fn run_factorization_detailed(
    routine: Routine,
    g: usize,
    n: usize,
    daemon: DaemonConfig,
    frontend: FrontendConfig,
    hybrid: HybridConfig,
) -> DetailedRun {
    let mut sim = Sim::new();
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: g,
        mode: ExecMode::TimingOnly,
        gpu: GpuParams::tesla_c1060(),
        daemon,
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry());
    crate::telem::attach(&cluster);
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let devices: Vec<AcDevice> = (0..g)
        .map(|i| {
            AcDevice::Remote(RemoteAccelerator::new(
                ep.clone(),
                cluster.daemon_rank(i),
                frontend,
            ))
        })
        .collect();
    let out = sim.spawn("factor", async move {
        let mut host = HostMatrix::Shape { rows: n, cols: n };
        let report = match routine {
            Routine::Qr => dgeqrf_hybrid(&h, &devices, &mut host, &hybrid)
                .await
                .unwrap(),
            Routine::Cholesky => dpotrf_hybrid(&h, &devices, &mut host, &hybrid)
                .await
                .unwrap(),
        };
        for d in &devices {
            if let AcDevice::Remote(r) = d {
                let _ = r.shutdown().await;
            }
        }
        (report.gflops, report.elapsed)
    });
    sim.run();
    let (gflops, elapsed) = out.try_take().expect("factorization did not finish");
    let stats = cluster
        .daemon_handles
        .into_iter()
        .map(|h| h.try_take().expect("daemon still running"))
        .collect();
    DetailedRun {
        gflops,
        elapsed,
        stats,
    }
}
