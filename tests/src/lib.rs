//! Shared fixtures for the cross-crate integration tests.
//!
//! A cluster is one spec: start from [`chaos_spec`] (or
//! `ClusterSpec::default()`), override the planes a test needs, build it
//! with [`cluster_from`], then attach a tracer and a fault hook with
//! `Cluster::set_tracer` / `Cluster::set_fault_hook` before `sim.run`.
//!
//! [`chaos_spec`] and [`full_cluster`] start from the wiring and ARM
//! standbys CI's matrix rows name in `DACC_TOPOLOGY` and `DACC_ARM_HA`
//! ([`matrix_spec`]), so the plane suites run on every fabric model and
//! with a replicated ARM unedited. The library crates read no environment.

use dacc_fabric::topology::TopologySpec;
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
        ..matrix_default()
    })
}

/// [`matrix_spec`] of this process's `DACC_TOPOLOGY` and `DACC_ARM_HA`.
fn matrix_default() -> ClusterSpec {
    let var = |name| std::env::var(name).ok();
    matrix_spec(
        var("DACC_TOPOLOGY").as_deref(),
        var("DACC_ARM_HA").as_deref(),
    )
}

/// `ClusterSpec::default()` on the wiring and ARM standbys a CI matrix row
/// names: `topology` as [`TopologySpec::parse`] reads it (the single switch
/// when unset or unparseable), `arm_ha` a standby count (unset, empty and
/// `0` are off, so a row may pass the variable unconditionally; a value
/// that is not a number means one).
pub fn matrix_spec(topology: Option<&str>, arm_ha: Option<&str>) -> ClusterSpec {
    let arm_ha = arm_ha
        .map(str::trim)
        .filter(|v| !v.is_empty() && *v != "0")
        .map(|v| ArmHaSpec {
            standbys: v.parse().unwrap_or(1),
            ..ArmHaSpec::default()
        });
    ClusterSpec {
        topology: topology.and_then(TopologySpec::parse).unwrap_or_default(),
        arm_ha,
        ..ClusterSpec::default()
    }
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
/// replicated ARM are off unless a test sets them (or `DACC_ARM_HA` does,
/// [`matrix_spec`]); a test that turns on `health` must shut the daemons
/// down at the end (heartbeat agents only exit with their daemon) or the
/// sim never goes quiet.
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
        ..matrix_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn standbys(arm_ha: Option<&str>) -> Option<usize> {
        matrix_spec(None, arm_ha).arm_ha.map(|ha| ha.standbys)
    }

    #[test]
    fn matrix_values_steer_the_default_spec() {
        let plain = matrix_spec(None, None);
        assert_eq!(plain.topology, TopologySpec::SingleSwitch);
        assert!(plain.arm_ha.is_none());
        for (value, spec) in [
            ("switch", TopologySpec::SingleSwitch),
            ("fattree:4", TopologySpec::FatTree { radix: 4 }),
            ("dragonfly:3", TopologySpec::Dragonfly { groups: 3 }),
            ("", TopologySpec::SingleSwitch),
            ("mesh", TopologySpec::SingleSwitch),
        ] {
            assert_eq!(matrix_spec(Some(value), None).topology, spec, "{value:?}");
        }
        assert_eq!(standbys(Some("")), None);
        assert_eq!(standbys(Some(" 0 ")), None);
        assert_eq!(standbys(Some("1")), Some(1));
        assert_eq!(standbys(Some("2")), Some(2));
        assert_eq!(standbys(Some("yes")), Some(1));
    }
}
