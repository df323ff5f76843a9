//! Accelerator failover under deterministic fault injection: a seeded
//! chaos schedule kills the granted accelerator's daemon mid-QR; the
//! front-end detects the loss through request timeouts, reports it to the
//! ARM, receives a replacement grant, replays its command log onto the new
//! accelerator, and the factorization completes with correct numerics.
//!
//! Run with: `cargo run -p dacc-examples --bin failover`

use dacc_arm::state::JobId;
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_linalg::hybrid::{dgeqrf_hybrid, HybridConfig};
use dacc_linalg::lapack::qr_residuals;
use dacc_linalg::matrix::{HostMatrix, Matrix};
use dacc_runtime::daemon::DaemonConfig;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

fn main() {
    let mut sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    dacc_linalg::gpu::register_linalg_kernels(&registry);
    dacc_linalg::gpu::register_staging_kernels(&registry);

    // 1 compute node + 2 accelerators. Ranks: 0 = ARM, 1 = the compute
    // node, 2 and 3 = accelerator daemons. The job is granted accelerator
    // 0 (rank 2); the chaos schedule kills that daemon 60 fabric
    // transmissions into the run — mid-factorization.
    let tracer = Tracer::new(1 << 14);
    let plane = ChaosPlane::new(
        2026,
        FaultSchedule::new().after_events(60, Fault::kill_daemon(2)),
    );
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: 2,
        local_gpus: false,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        daemon: DaemonConfig {
            data_timeout: Some(SimDuration::from_millis(20)),
            ..DaemonConfig::default()
        },
        frontend: FrontendConfig {
            retry: Some(RetryPolicy {
                timeout: SimDuration::from_millis(25),
                max_retries: 4,
                backoff: SimDuration::from_micros(200),
                ..RetryPolicy::default()
            }),
            ..FrontendConfig::default()
        },
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry);
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane));
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;

    let n = 48;
    let a = Matrix::random(n, n, &mut SimRng::new(1));
    let a0 = a.clone();
    let out = sim.spawn("qr-job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        println!("[{}] granted accelerator {}", h.now(), session.accel_id().0);
        let devices = vec![AcDevice::Resilient(session.clone())];
        let mut host = HostMatrix::Real(a);
        let cfg = HybridConfig {
            nb: 16,
            ..HybridConfig::default()
        };
        let report = dgeqrf_hybrid(&h, &devices, &mut host, &cfg).await.unwrap();
        println!(
            "[{}] QR done on accelerator {} after {} failover(s)",
            h.now(),
            session.accel_id().0,
            session.failovers()
        );
        proc.finish().await;
        let factored = match host {
            HostMatrix::Real(m) => m,
            _ => unreachable!(),
        };
        (factored, report.tau)
    });
    sim.run();
    let (factored, tau) = out.try_take().expect("job did not finish");
    let (resid, orth) = qr_residuals(&a0, &factored, &tau);
    println!("residual {resid:.2e}, orthogonality {orth:.2e}");

    println!("\nfault/retry/failover trace:");
    for e in tracer.events() {
        if e.category.starts_with("fault.")
            || e.category.starts_with("retry.")
            || e.category == "arm.failover"
            || e.category == "daemon.dedupe"
        {
            println!("  [{}] {:<14} {}", e.time, e.category, e.label);
        }
    }
}
