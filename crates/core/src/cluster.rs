//! Cluster assembly: wire up ARM, daemons, compute nodes in one call.
//!
//! The canonical layout mirrors Figure 1: an accelerator resource manager,
//! compute nodes, and accelerator nodes, all on one interconnect. Compute
//! nodes may additionally carry a node-local GPU so the same experiment can
//! be run against the classic static architecture (the paper's baselines).

use std::sync::Arc;

use dacc_arm::client::{ArmClient, ArmRetryConfig};
use dacc_arm::health::HealthConfig;
use dacc_arm::proto::{arm_tags, ArmError, ArmRequest, ArmResponse, GrantedAccelerator};
use dacc_arm::server::{run_arm_replica, ArmHaConfig, ArmReplica};
use dacc_arm::state::{inventory, AcceleratorId, AllocPolicy, JobId, Pool, ShareConfig};
use dacc_fabric::mpi::{Endpoint, Fabric, Rank};
use dacc_fabric::payload::Payload;
use dacc_fabric::topology::{FabricParams, NodeId, Topology, TopologySpec};
use dacc_sim::fault::{FaultHook, ProcessFault};
use dacc_sim::prelude::*;
use dacc_vgpu::device::{HostMemKind, VirtualGpu};
use dacc_vgpu::kernel::KernelRegistry;
use dacc_vgpu::params::{ExecMode, GpuParams};

use crate::api::{AcDevice, AcError, FrontendConfig, RemoteAccelerator};
use crate::daemon::{run_daemon, DaemonConfig, DaemonHealth, DaemonStats};
use crate::failover::FailoverSession;
use crate::proto::{ac_tags, ControlBatch};

/// Everything needed to stand up a cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Number of compute nodes.
    pub compute_nodes: usize,
    /// Number of network-attached accelerators.
    pub accelerators: usize,
    /// Give each compute node a PCIe-attached GPU too (for baselines).
    pub local_gpus: bool,
    /// Interconnect parameters.
    pub fabric: FabricParams,
    /// Interconnect wiring model. Defaults to
    /// [`TopologySpec::SingleSwitch`], the paper's testbed.
    pub topology: TopologySpec,
    /// GPU hardware parameters (same for local and network-attached).
    pub gpu: GpuParams,
    /// Functional or timing-only execution.
    pub mode: ExecMode,
    /// Daemon tuning.
    pub daemon: DaemonConfig,
    /// Front-end tuning.
    pub frontend: FrontendConfig,
    /// ARM allocation policy. [`AllocPolicy::FirstFit`] is its only value;
    /// the field stays only because the host-clock benchmark's pinned spec
    /// names it, and goes when that spec drops it.
    pub alloc_policy: AllocPolicy,
    /// Health plane (leases, heartbeats, epoch fencing). `None` (the
    /// default) reproduces the pre-health-plane cluster exactly: no
    /// heartbeat traffic, no lease expiry, epoch 0 everywhere.
    pub health: Option<HealthConfig>,
    /// Oversubscription (time-sliced vGPU sharing through the ARM's
    /// scheduler path). Requires `health` — slice rotation and fencing
    /// ride the lease/heartbeat machinery. `None` (the default) keeps
    /// every assignment exclusive.
    pub share: Option<ShareConfig>,
    /// ARM control-plane high availability: standby replicas fed by a
    /// deterministic replication log, with lease-safe takeover. `None`
    /// (the default) runs the classic single unreplicated ARM.
    pub arm_ha: Option<ArmHaSpec>,
}

/// High-availability shape of the ARM control plane.
#[derive(Clone, Copy, Debug)]
pub struct ArmHaSpec {
    /// Standby replicas, on dedicated nodes appended after the
    /// accelerator nodes (so default rank numbering is untouched).
    pub standbys: usize,
    /// Replication / takeover tuning shared by every replica.
    pub ha: ArmHaConfig,
    /// Retry budget for replica-aware clients ([`Cluster::arm_client`]).
    /// The daemons' heartbeat agents do not use it: they time out each
    /// beat after one heartbeat period and move to the next replica after
    /// two straight misses.
    pub retry: ArmRetryConfig,
}

impl Default for ArmHaSpec {
    fn default() -> Self {
        ArmHaSpec {
            standbys: 1,
            ha: ArmHaConfig::default(),
            retry: ArmRetryConfig::default(),
        }
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            compute_nodes: 1,
            accelerators: 3,
            local_gpus: false,
            fabric: FabricParams::qdr_infiniband(),
            topology: TopologySpec::SingleSwitch,
            gpu: GpuParams::tesla_c1060(),
            mode: ExecMode::Functional,
            daemon: DaemonConfig::default(),
            frontend: FrontendConfig::default(),
            alloc_policy: AllocPolicy::FirstFit,
            health: None,
            share: None,
            arm_ha: None,
        }
    }
}

/// A built cluster: handles to everything the application layer needs.
pub struct Cluster {
    /// The message fabric (node 0 hosts the ARM; compute nodes follow;
    /// accelerator nodes last).
    pub fabric: Fabric,
    /// Rank of the accelerator resource manager.
    pub arm_rank: Rank,
    /// One endpoint per compute-node process (move each into its task).
    pub cn_endpoints: Vec<Endpoint>,
    /// Node-local GPUs, one per compute node (empty unless `local_gpus`).
    pub local_gpus: Vec<VirtualGpu>,
    /// The network-attached accelerators' GPUs (for test inspection).
    pub accel_gpus: Vec<VirtualGpu>,
    /// Daemon completion handles; resolve to [`DaemonStats`] at shutdown.
    pub daemon_handles: Vec<JoinHandle<DaemonStats>>,
    /// Per-daemon shared health state (fence, busy counter); heartbeat
    /// agents run only when [`ClusterSpec::health`] is set, but the
    /// handles exist either way for test inspection.
    pub daemon_health: Vec<DaemonHealth>,
    /// ARM completion handle; resolves to the final pool at shutdown.
    /// With HA enabled this is the initial primary's handle.
    pub arm_handle: JoinHandle<Pool>,
    /// Every ARM replica's rank, primary first (just `[arm_rank]`
    /// without HA).
    pub arm_replicas: Vec<Rank>,
    /// Standby ARM completion handles (empty without HA). Standbys exit
    /// when the primary's `Shutdown` replicates to them; a cluster torn
    /// down without an ARM shutdown leaves them parked, not exited.
    pub standby_handles: Vec<JoinHandle<Pool>>,
    /// The kernel registry shared by every device.
    pub registry: KernelRegistry,
    /// The spec the cluster was built from.
    pub spec: ClusterSpec,
}

impl Cluster {
    /// Node id of compute node `i`.
    pub fn cn_node(&self, i: usize) -> NodeId {
        NodeId(1 + i)
    }

    /// Node id of accelerator `i`.
    pub fn ac_node(&self, i: usize) -> NodeId {
        NodeId(1 + self.spec.compute_nodes + i)
    }

    /// Daemon rank of accelerator `i`.
    pub fn daemon_rank(&self, i: usize) -> Rank {
        Rank(1 + self.spec.compute_nodes + i)
    }

    /// An ARM client for `ep`: replica-aware (timeouts, dedupe retry,
    /// transparent failover) when the cluster has HA enabled, the classic
    /// single-target client otherwise.
    pub fn arm_client(&self, ep: Endpoint) -> ArmClient {
        match self.spec.arm_ha {
            Some(ha) => ArmClient::with_replicas(ep, self.arm_replicas.clone(), ha.retry),
            None => ArmClient::new(ep, self.arm_rank),
        }
    }

    /// Attach a telemetry handle to the cluster's fabric: every layer
    /// (fabric send/recv, daemons, streams, ARM, front-end API) records
    /// into it from this point on.
    pub fn set_telemetry(&self, tele: dacc_telemetry::Telemetry) {
        self.fabric.set_telemetry(tele);
    }

    /// Attach an event tracer to the cluster's fabric: the topology records
    /// `fault.*`, daemons `daemon.*`, the ARM `arm.*`, and front-ends
    /// `retry.*` and `arm.failover` into it. Call before `sim.run`: each
    /// process reads the tracer when it starts.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.fabric.set_tracer(tracer);
    }

    /// Install a fault plane on the cluster's fabric: the topology consults
    /// `hook` on every transmission, and each daemon, heartbeat agent and
    /// replicated ARM on every service iteration, so a seeded schedule can
    /// drop messages, degrade links, and crash or hang processes
    /// deterministically. A lone ARM (no [`ClusterSpec::arm_ha`]) never
    /// consults process faults. Call before `sim.run`, after
    /// [`Cluster::set_tracer`]: each process reads the hook when it starts.
    ///
    /// A dropped or corrupt [`ControlBatch`] discards up to its whole
    /// batch of responses; without a retry plane nothing replays them and
    /// the front-end hangs awaiting its response. A hook on a `ctrl_batch`
    /// cluster with neither a front-end retry policy nor a daemon
    /// `data_timeout` traces a `config.warn` event rather than silently
    /// wedging a chaos run.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        let spec = &self.spec;
        if hook.is_some()
            && spec.daemon.ctrl_batch
            && spec.frontend.retry.is_none()
            && spec.daemon.data_timeout.is_none()
        {
            let warning = "ctrl_batch under fault injection without a retry policy or \
                           data_timeout: a dropped ControlBatch loses its responses permanently";
            let tracer = self.fabric.tracer();
            tracer.record(self.fabric.handle(), "config.warn", || warning.to_string());
        }
        self.fabric.set_fault_hook(hook);
    }
}

/// Build the cluster onto `sim`: spawns the ARM server and one daemon per
/// accelerator, each with its own GPU sharing `registry`. A tracer and a
/// fault hook ride the fabric: attach them with [`Cluster::set_tracer`] and
/// [`Cluster::set_fault_hook`] before the simulation runs.
pub fn build_cluster(sim: &Sim, spec: ClusterSpec, registry: KernelRegistry) -> Cluster {
    let h = sim.handle();
    let n_standby = spec.arm_ha.map_or(0, |h| h.standbys);
    let total_nodes = 1 + spec.compute_nodes + spec.accelerators + n_standby;
    let topo = Topology::with_spec(&h, total_nodes, spec.fabric, spec.topology);
    // Link-locality hint for the ARM: hop distances between every node
    // pair, so FirstFit can prefer accelerators close to the requester.
    // On the single switch every distance is equal and placement is
    // unchanged.
    let hop_matrix = topo.hop_matrix();
    let fabric = Fabric::new(&h, topo);

    // Control-batch unbundler: a daemon with `ctrl_batch` on packs several
    // responses/stream-acks for one peer into a single CTRL-tagged fabric
    // message; the fabric splits it back into per-tag envelopes on
    // delivery, so receivers never see the difference. A batch that fails
    // its CRC (or decode) is dropped whole, exactly like a lost message —
    // sender-side retry heals it. Installed unconditionally: with batching
    // off (the default) no CTRL traffic exists and this is inert.
    fabric.set_unbundler(
        ac_tags::CTRL,
        Arc::new(|p: &Payload| {
            if !p.is_functional() {
                // A size-only payload carries nothing to decode; treat it
                // like a damaged batch (dropped whole) rather than
                // panicking on arrival.
                return None;
            }
            let buf = p.to_bytes();
            let batch = ControlBatch::decode(&buf).ok()?;
            Some(
                batch
                    .entries
                    .into_iter()
                    .map(|(tag, bytes)| (dacc_fabric::mpi::Tag(tag), Payload::from_bytes(bytes)))
                    .collect(),
            )
        }),
    );

    // Rank 0: ARM.
    let arm_ep = fabric.add_endpoint(NodeId(0));
    let arm_rank = arm_ep.rank();
    // Standby ARM ranks trail the daemons (their endpoints are created
    // last, keeping default rank numbering untouched), but the rank
    // values are known now for the heartbeat agents.
    let mut arm_replicas = vec![arm_rank];
    for i in 0..n_standby {
        arm_replicas.push(Rank(1 + spec.compute_nodes + spec.accelerators + i));
    }

    // Ranks 1..=CN: compute-node processes.
    let cn_endpoints: Vec<Endpoint> = (0..spec.compute_nodes)
        .map(|i| fabric.add_endpoint(NodeId(1 + i)))
        .collect();

    // Ranks CN+1..: accelerator daemons.
    let mut accel_gpus = Vec::with_capacity(spec.accelerators);
    let mut daemon_handles = Vec::with_capacity(spec.accelerators);
    let mut daemon_ranks = Vec::with_capacity(spec.accelerators);
    let mut daemon_nodes = Vec::with_capacity(spec.accelerators);
    let mut daemon_health = Vec::with_capacity(spec.accelerators);
    for i in 0..spec.accelerators {
        let node = NodeId(1 + spec.compute_nodes + i);
        let ep = fabric.add_endpoint(node);
        daemon_ranks.push(ep.rank());
        daemon_nodes.push(node);
        let gpu = VirtualGpu::new(&h, "accel", spec.gpu, spec.mode, registry.clone());
        accel_gpus.push(gpu.clone());
        let daemon_cfg = spec.daemon;
        let health = DaemonHealth::new();
        daemon_health.push(health.clone());
        if let Some(hc) = spec.health {
            h.spawn(
                "heartbeat",
                heartbeat_agent(
                    ep.clone(),
                    arm_replicas.clone(),
                    AcceleratorId(i),
                    hc,
                    health.clone(),
                ),
            );
        }
        daemon_handles.push(h.spawn("daemon", async move {
            run_daemon(ep, gpu, daemon_cfg, health).await
        }));
    }

    // Standby ARM endpoints, last so daemon ranks keep their numbers.
    let mut standby_eps = Vec::with_capacity(n_standby);
    for i in 0..n_standby {
        let ep = fabric.add_endpoint(NodeId(1 + spec.compute_nodes + spec.accelerators + i));
        debug_assert_eq!(ep.rank(), arm_replicas[1 + i], "standby rank layout");
        standby_eps.push(ep);
    }

    // The ARM's pool over the daemons — one identical copy per replica
    // (a standby's pool must start from the same deterministic base for
    // log replay to converge).
    let make_pool = || {
        let mut pool = Pool::new(inventory(&daemon_nodes, &daemon_ranks));
        pool.set_locality(hop_matrix.clone());
        if let Some(hc) = spec.health {
            pool.set_health(hc);
        }
        if let Some(sc) = spec.share {
            pool.set_share(sc);
        }
        pool
    };
    // One driver for every replica; without HA the replica set is the lone
    // ARM.
    let ha = spec.arm_ha.map_or_else(ArmHaConfig::default, |s| s.ha);
    let spawn_replica = |position: usize, ep: Endpoint| {
        let pool = make_pool();
        let replica = ArmReplica {
            replicas: arm_replicas.clone(),
            position,
        };
        let name = if position == 0 { "arm" } else { "arm-standby" };
        h.spawn(name, run_arm_replica(ep, pool, ha, replica))
    };
    let arm_handle = spawn_replica(0, arm_ep);
    let standby_handles = (standby_eps.into_iter().enumerate())
        .map(|(i, ep)| spawn_replica(1 + i, ep))
        .collect();

    let local_gpus = if spec.local_gpus {
        (0..spec.compute_nodes)
            .map(|_| VirtualGpu::new(&h, "local", spec.gpu, spec.mode, registry.clone()))
            .collect()
    } else {
        Vec::new()
    };

    Cluster {
        fabric,
        arm_rank,
        cn_endpoints,
        local_gpus,
        accel_gpus,
        daemon_handles,
        daemon_health,
        arm_handle,
        arm_replicas,
        standby_handles,
        registry,
        spec,
    }
}

/// The per-daemon heartbeat agent: a sibling task on the accelerator
/// node that beats the ARM every [`HealthConfig::heartbeat_period`],
/// reporting the daemon's busy counter (implicit lease renewal) and its
/// adopted fence. The ARM's ack carries the authoritative fence — raising
/// it fences stale-epoch traffic in the request loop — and may order a
/// probe self-test when the accelerator is quarantined; a passed probe
/// reintegrates it on probation.
///
/// The agent dies with its daemon: it stops once the request loop exits
/// (shutdown or injected crash), so a dead daemon falls silent and the
/// ARM's liveness judgement takes over. Like the daemon, it reads the fault
/// hook from the fabric when it starts.
async fn heartbeat_agent(
    ep: Endpoint,
    arms: Vec<Rank>,
    accel: AcceleratorId,
    hc: HealthConfig,
    health: DaemonHealth,
) {
    let handle = ep.fabric().handle().clone();
    let fault = ep.fabric().fault_hook();
    let me = ep.rank();
    let mut beat: u64 = 0;
    // Replica cursor: beats follow the ARM primary across a takeover so
    // liveness judgement and implicit lease renewal keep working.
    let mut cur = 0usize;
    let mut misses = 0u32;
    loop {
        handle.delay(hc.heartbeat_period).await;
        if !health.alive() {
            if health.started() {
                return;
            }
            // Daemon task not scheduled yet; try again next period.
            continue;
        }
        if let Some(hook) = &fault {
            if hook.process_state(me.0, handle.now()) == ProcessFault::Crash {
                return;
            }
            if !hook.heartbeat(me.0, beat, handle.now()) {
                // Muted beat (wedged health agent / flaky device): the
                // ARM sees silence even though the daemon still serves.
                beat += 1;
                continue;
            }
        }
        beat += 1;
        let busy = health.take_busy().min(u64::from(u32::MAX)) as u32;
        let req = ArmRequest::Heartbeat {
            accel,
            fence: health.fence(),
            busy,
        };
        let arm = arms[cur % arms.len()];
        ep.send(arm, arm_tags::REQUEST, Payload::from_vec(req.encode()))
            .await;
        let Some(env) = ep
            .recv_timeout(Some(arm), Some(arm_tags::RESPONSE), hc.heartbeat_period)
            .await
        else {
            // Silent ARM: after two straight missed acks, beat the next
            // replica — the primary may have crashed and a standby be
            // taking over.
            misses += 1;
            if arms.len() > 1 && misses >= 2 {
                cur += 1;
                misses = 0;
            }
            continue;
        };
        let ack = env
            .payload
            .bytes()
            .and_then(|b| ArmResponse::decode(b).ok());
        let Some(ArmResponse::HeartbeatAck { fence, probe }) = ack else {
            // A standby bounced us: follow the replica ring to find the
            // current primary.
            if matches!(ack, Some(ArmResponse::Error(ArmError::NotPrimary))) && arms.len() > 1 {
                cur += 1;
                misses = 0;
            }
            continue;
        };
        misses = 0;
        health.raise_fence(fence);
        if probe {
            // Quarantine probe: run the self-test, then report the verdict.
            // The simulated self-test always passes — permanently broken
            // devices are modelled by staying silent (never reaching here)
            // or by exhausting the re-quarantine budget.
            handle.delay(hc.probe_cost).await;
            let req = ArmRequest::ProbeResult { accel, ok: true };
            ep.send(arm, arm_tags::REQUEST, Payload::from_vec(req.encode()))
                .await;
            let _ = ep
                .recv_timeout(Some(arm), Some(arm_tags::RESPONSE), hc.heartbeat_period)
                .await;
        }
    }
}

/// A compute-node process's view of the dynamic architecture: its fabric
/// endpoint, its ARM connection, and its job identity.
pub struct AcProcess {
    ep: Endpoint,
    arm: ArmClient,
    job: JobId,
    config: FrontendConfig,
}

impl AcProcess {
    /// Create the process context (one per compute-node process).
    pub fn new(ep: Endpoint, arm_rank: Rank, job: JobId, config: FrontendConfig) -> Self {
        let arm = ArmClient::new(ep.clone(), arm_rank);
        AcProcess {
            ep,
            arm,
            job,
            config,
        }
    }

    /// Create the process context from an existing ARM client — e.g. a
    /// replica-aware one from [`Cluster::arm_client`] so requests fail over
    /// to a standby ARM after a primary crash.
    pub fn with_client(arm: ArmClient, job: JobId, config: FrontendConfig) -> Self {
        AcProcess {
            ep: arm.endpoint().clone(),
            arm,
            job,
            config,
        }
    }

    /// This process's fabric endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// This process's job id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The ARM client (for queries and fault reports).
    pub fn arm(&self) -> &ArmClient {
        &self.arm
    }

    /// One handle per grant, stamped with the grant's epoch; an ARM error
    /// becomes [`AcError::Local`].
    fn remotes(
        &self,
        grants: Result<Vec<GrantedAccelerator>, ArmError>,
    ) -> Result<Vec<RemoteAccelerator>, AcError> {
        Ok(local(grants)?
            .into_iter()
            .map(|g| {
                RemoteAccelerator::new(self.ep.clone(), g.daemon_rank, self.config)
                    .with_epoch(g.epoch)
            })
            .collect())
    }

    /// Static/dynamic allocation: get `n` exclusive accelerators, failing
    /// fast on shortage.
    pub async fn acquire(&self, n: u32) -> Result<Vec<RemoteAccelerator>, AcError> {
        self.remotes(self.arm.allocate(self.job, n).await)
    }

    /// Dynamic allocation that queues until accelerators free up.
    pub async fn acquire_waiting(&self, n: u32) -> Result<Vec<RemoteAccelerator>, AcError> {
        self.remotes(self.arm.allocate_waiting(self.job, n).await)
    }

    /// Tenant-aware allocation through the ARM's multi-tenant scheduler:
    /// admission quotas, weighted fair share, and all-or-nothing gang
    /// placement of `gang` accelerators. With `share_ok` a gang of one
    /// consents to time-sliced co-residency on a shared accelerator (watch
    /// [`ArmClient::take_slice_grant`] and adopt new epochs via
    /// [`RemoteAccelerator::set_epoch`]). With `wait` the call queues
    /// until placeable; otherwise it fails fast.
    pub async fn acquire_scheduled(
        &self,
        tenant: u32,
        gang: u32,
        share_ok: bool,
        wait: bool,
    ) -> Result<Vec<RemoteAccelerator>, AcError> {
        let grants = self.arm.submit_job(self.job, tenant, gang, share_ok, wait);
        self.remotes(grants.await)
    }

    /// Acquire `n` accelerators behind the failover plane (§III-A): each
    /// session retries silently-dropped requests and, when its accelerator
    /// dies, reports it to the ARM and replays onto a replacement grant.
    /// `config.retry` should be set — it is the failure detector.
    pub async fn acquire_resilient(&self, n: u32) -> Result<Vec<FailoverSession>, AcError> {
        Ok(local(self.arm.allocate(self.job, n).await)?
            .into_iter()
            .map(|g| {
                FailoverSession::new(self.ep.clone(), self.arm.clone(), self.job, g, self.config)
            })
            .collect())
    }

    /// Job end: the middleware releases every accelerator the job holds
    /// (§III-C "accelerators are automatically released"). Returns how
    /// many the ARM released; 0 when the release failed (an error or
    /// malformed reply).
    pub async fn finish(&self) -> u32 {
        self.arm.release_job(self.job).await.unwrap_or(0)
    }

    /// Wrap a set of remote accelerators as [`AcDevice`]s.
    pub fn as_devices(accels: &[RemoteAccelerator]) -> Vec<AcDevice> {
        accels.iter().cloned().map(AcDevice::Remote).collect()
    }

    /// Wrap a local GPU as an [`AcDevice`] (static-architecture baseline).
    pub fn local_device(gpu: VirtualGpu) -> AcDevice {
        AcDevice::Local {
            gpu,
            host_mem: HostMemKind::Pinned,
        }
    }
}

/// An ARM error, as the front-end reports it.
fn local<T>(r: Result<T, ArmError>) -> Result<T, AcError> {
    r.map_err(|e| AcError::Local(e.to_string()))
}
