//! Shared fixtures for the cross-crate integration tests.
//!
//! A cluster is one spec: start from [`chaos_spec`] (or
//! `ClusterSpec::default()`), override the planes a test needs, build it
//! with [`cluster_from`], then attach a tracer and a fault hook with
//! `Cluster::set_tracer` / `Cluster::set_fault_hook` before `sim.run`.

use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

/// Build `spec` onto a fresh `Sim` with every kernel family registered.
pub fn cluster_from(spec: ClusterSpec) -> (Sim, Cluster) {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    dacc_linalg::gpu::register_linalg_kernels(&registry);
    dacc_linalg::gpu::register_staging_kernels(&registry);
    dacc_mp2c::srd::register_srd_kernel(&registry);
    let cluster = build_cluster(&sim, spec, registry);
    (sim, cluster)
}

/// Build a functional cluster with every kernel family registered.
pub fn full_cluster(compute_nodes: usize, accelerators: usize, mode: ExecMode) -> (Sim, Cluster) {
    cluster_from(ClusterSpec {
        compute_nodes,
        accelerators,
        local_gpus: true,
        mode,
        gpu: GpuParams::tesla_c1060(),
        ..ClusterSpec::default()
    })
}

/// Deterministic byte pattern.
pub fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 131 + salt as u64 * 7919) % 251) as u8)
        .collect()
}

/// The spec with the fault-tolerance plane armed: bounded daemon data
/// waits and client-side timeouts with retry. The retry deadline (25 ms)
/// must exceed the longest healthy operation in these tests so only
/// genuinely lost traffic is retried. The health plane, sharing and a
/// replicated ARM are off unless a test sets them (or `DACC_ARM_HA` does);
/// a test that turns on `health` must shut the daemons down at the end
/// (heartbeat agents only exit with their daemon) or the sim never goes
/// quiet.
pub fn chaos_spec(compute_nodes: usize, accelerators: usize, mode: ExecMode) -> ClusterSpec {
    ClusterSpec {
        compute_nodes,
        accelerators,
        local_gpus: false,
        mode,
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
    }
}
