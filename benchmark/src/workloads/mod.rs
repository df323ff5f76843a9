//! The four workloads. Each is a fixed, seed-generated op list replayed
//! round after round on a fresh `Sim` and cluster; the harness times the
//! measured ops on the host clock and checks every output.

pub mod copy;
pub mod ctrl;
pub mod qr;

use std::time::{Duration, Instant};

use dacc_arm::state::AllocPolicy;
use dacc_fabric::payload::Payload;
use dacc_fabric::topology::{FabricParams, LinkClass, TopologySpec};
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::Telemetry;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

use crate::trace::{Scope, Trace};

/// What a round runs with: where its spans go and, in traced rounds, the
/// telemetry handle attached to the cluster for its counters.
pub struct RoundCx {
    /// The enclosing `round` span (of a disabled trace in untraced rounds).
    pub root: Scope,
    /// Program-side counters; `None` keeps the program's telemetry off.
    pub tele: Option<Telemetry>,
}

impl RoundCx {
    /// An untraced round: no spans, program telemetry off.
    pub fn untraced() -> Self {
        RoundCx {
            root: Trace::off().round(0),
            tele: None,
        }
    }
}

/// Exact per-round counts from the layers' public stats. They repeat bit
/// for bit, so every round of a run must report the same values.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counts {
    /// `RunOutcome.events`.
    pub events: u64,
    /// Frames that left a host NIC (`Topology::link_stats`, TX wires).
    pub fabric_msgs: u64,
    /// Bytes that left a host NIC, headers included.
    pub fabric_bytes: u64,
    /// Deepest queue seen behind any link.
    pub peak_link_queue: u64,
    /// `DaemonStats.requests`, all daemons.
    pub requests: u64,
    /// `DaemonStats.kernels`, all daemons.
    pub kernels: u64,
    /// Bytes written to device memory (`GpuCounters.h2d_bytes`).
    pub dev_written: u64,
    /// Bytes read from device memory (`GpuCounters.d2h_bytes`).
    pub dev_read: u64,
    /// Accelerator grants (`Pool::total_grants` of the final pool).
    pub grants: u64,
    /// Telemetry, traced rounds only: sealed/opened data blocks.
    pub blocks: u64,
    /// Telemetry: bytes run through the CRC engine.
    pub crc_bytes: u64,
    /// Telemetry: front-end plus ARM-client retries (must be 0).
    pub retries: u64,
    /// Telemetry: ARM client requests answered without a `Queued` ack.
    pub arm_direct: u64,
    /// Telemetry: replication-log entries shipped to the standby.
    pub repl_entries: u64,
    /// Telemetry: heartbeats the ARM served.
    pub heartbeats: u64,
}

impl Counts {
    /// The counts an untraced round can see too (telemetry's zeroed).
    pub fn structural(self) -> Counts {
        Counts {
            blocks: 0,
            crc_bytes: 0,
            retries: 0,
            arm_direct: 0,
            repl_entries: 0,
            heartbeats: 0,
            ..self
        }
    }
}

/// One round's result.
#[derive(Default)]
pub struct RoundOut {
    /// Host time of the measured ops (build, prologue and checks excluded).
    pub host: Duration,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that returned `Ok` and passed their check.
    pub good: u64,
    /// Payload bytes the measured ops moved.
    pub bytes: u64,
    /// ARM client calls the harness made (acquire, finish, shutdown).
    pub arm_calls: u64,
    /// Factorizations run (QR only).
    pub factorizations: u64,
    /// Virtual-clock outputs in ns; identical in every round, or the run
    /// fails its determinism check. `virt[0]` is the measured ops' span.
    pub virt: Vec<u64>,
    /// GFlop/s the model reports at N = 4032 (QR only).
    pub gflops_n4032: f64,
    /// Exact counts.
    pub counts: Counts,
    /// What went wrong, if anything.
    pub failures: Vec<String>,
}

impl RoundOut {
    /// `Ok` when every op was good and nothing else went wrong.
    pub fn verdict(&self) -> Result<(), String> {
        if self.failures.is_empty() && self.good == self.ops {
            Ok(())
        } else {
            Err(format!(
                "{} of {} ops good; {}",
                self.good,
                self.ops,
                self.failures.join("; ")
            ))
        }
    }
}

/// A workload: inputs fixed at construction, replayed by every round.
pub trait Workload {
    /// The verification pass run once per set-up (stricter than a round's
    /// own checks where the round can only afford a spot check).
    fn verify(&self) -> Result<(), String>;
    /// Build a fresh cluster, drive the op list, check, collect.
    fn round(&self, cx: &RoundCx) -> RoundOut;
    /// Whether device memory holds real bytes (CRC and memcpy are real).
    fn functional(&self) -> bool;
}

/// Build workload `name` from `seed`; `half` halves the ops per round
/// (for `selfcheck`).
pub fn build(name: &str, seed: u64, half: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "copy_h2d" => Box::new(copy::Copy::new(copy::Dir::H2D, seed, half)),
        "copy_d2h" => Box::new(copy::Copy::new(copy::Dir::D2H, seed, half)),
        "ctrl_churn" => Box::new(ctrl::Churn::new(seed, half)),
        "qr_3gpu" => Box::new(qr::Qr::new(seed, half)),
        _ => return None,
    })
}

/// The pinned base profile. Every field is set here, none through
/// `ClusterSpec::default()`, which consults `DACC_TOPOLOGY` and
/// `DACC_ARM_HA`; a later change of a default must not move the workload.
pub fn pinned_spec(compute_nodes: usize, accelerators: usize, mode: ExecMode) -> ClusterSpec {
    ClusterSpec {
        compute_nodes,
        accelerators,
        local_gpus: false,
        fabric: FabricParams::qdr_infiniband(),
        topology: TopologySpec::SingleSwitch,
        gpu: GpuParams::tesla_c1060(),
        mode,
        daemon: DaemonConfig::default(),
        frontend: FrontendConfig::default(),
        alloc_policy: AllocPolicy::FirstFit,
        health: None,
        share: None,
        arm_ha: None,
    }
}

/// A fresh `Sim` plus cluster, spanned as `build_cluster`.
pub fn fresh_cluster(cx: &RoundCx, spec: ClusterSpec) -> (Sim, Cluster) {
    let sim = Sim::new();
    let span = cx.root.open("build_cluster", 0);
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    dacc_linalg::gpu::register_linalg_kernels(&registry);
    dacc_linalg::gpu::register_staging_kernels(&registry);
    let cluster = build_cluster(&sim, spec, registry);
    if let Some(tele) = &cx.tele {
        tele.clear();
        cluster.set_telemetry(tele.clone());
    }
    span.close();
    (sim, cluster)
}

/// Open the `sim.run` span before the client tasks are spawned, so their
/// call spans can name it as parent; [`run_sim`] closes it.
pub fn begin_run(cx: &RoundCx) -> Scope {
    cx.root.open("sim.run", 0)
}

/// `Sim::run` under span `run`. The per-endpoint `mpi.dispatcher` loops
/// park forever by design; any other task left parked means a client,
/// daemon, heartbeat agent or ARM replica never finished, which fails
/// the round.
pub fn run_sim(run: Scope, sim: &mut Sim, failures: &mut Vec<String>) -> RunOutcome {
    let outcome = sim.run();
    run.close();
    let mut parked = sim.pending_task_names();
    parked.retain(|&name| name != "mpi.dispatcher");
    if !parked.is_empty() {
        failures.push(format!("sim did not drain: {parked:?} still parked"));
    }
    outcome
}

/// Read every layer's public stats after the sim has drained.
pub fn collect(cx: &RoundCx, cluster: Cluster, outcome: RunOutcome) -> Counts {
    let mut c = Counts {
        events: outcome.events,
        ..Counts::default()
    };
    for link in cluster.fabric.topology().link_stats() {
        if link.class == LinkClass::HostTx {
            c.fabric_msgs += link.msgs;
            c.fabric_bytes += link.bytes;
        }
        c.peak_link_queue = c.peak_link_queue.max(link.peak_queue);
    }
    for handle in &cluster.daemon_handles {
        if let Some(stats) = handle.try_take() {
            c.requests += stats.requests;
            c.kernels += stats.kernels;
        }
    }
    for gpu in &cluster.accel_gpus {
        let g = gpu.counters();
        c.dev_written += g.h2d_bytes;
        c.dev_read += g.d2h_bytes;
    }
    if let Some(pool) = cluster.arm_handle.try_take() {
        c.grants = pool.total_grants();
    }
    if let Some(tele) = &cx.tele {
        c.blocks = tele.span_count("daemon.dma");
        c.crc_bytes = tele.counter("wire.crc_bytes");
        c.retries = tele.counter("retry.attempts") + tele.counter("arm.client.retries");
        c.arm_direct = tele.histogram("arm.client.rtt").map_or(0, |h| h.count());
        c.repl_entries = tele.counter("arm.ha.replicated_ops");
        c.heartbeats = tele.counter("arm.heartbeat");
    }
    c
}

/// Host-clock stopwatch a client task runs around its measured ops, so
/// prologue fills and output checks stay outside the timed span.
#[derive(Default)]
pub struct OpClock {
    total: Duration,
}

impl OpClock {
    /// Time one measured call.
    pub async fn time<T>(&mut self, fut: impl std::future::Future<Output = T>) -> T {
        let t0 = Instant::now();
        let out = fut.await;
        self.total += t0.elapsed();
        out
    }

    /// Sum of the timed calls.
    pub fn total(&self) -> Duration {
        self.total
    }
}

/// Byte-for-byte comparison of a (possibly chained) payload with `want`,
/// without concatenating it first.
pub fn payload_eq(got: &Payload, want: &[u8]) -> bool {
    if !got.is_functional() || got.len() != want.len() as u64 {
        return false;
    }
    let mut at = 0;
    got.segments().iter().all(|seg| {
        let ok = seg[..] == want[at..at + seg.len()];
        at += seg.len();
        ok
    })
}

/// Tear the cluster down so the sim drains: every daemon through a fresh,
/// unfenced handle on `arm`'s endpoint, then the ARM (whose `Shutdown`
/// replicates to any standby).
pub async fn shutdown_cluster(
    arm: &dacc_arm::client::ArmClient,
    daemons: &[dacc_fabric::mpi::Rank],
    frontend: FrontendConfig,
) -> Result<(), AcError> {
    for &rank in daemons {
        RemoteAccelerator::new(arm.endpoint().clone(), rank, frontend)
            .shutdown()
            .await?;
    }
    arm.shutdown().await;
    Ok(())
}
