//! Ablation A10: the multi-tenant ARM scheduler. Three sections:
//!
//! (a) **Fair share** — a closed-loop workload (every tenant keeps a fixed
//!     backlog queued) drives the SFQ dispatcher over a pool of 4
//!     accelerators. At equal weights the grant counts should be near-equal
//!     (Jain index ~1.0); at 2:1 weights the grant split should track the
//!     weights. Grant latency (submit -> grant, virtual ms) is reported as
//!     p50/p99.
//! (b) **Oversubscription** — two consenting single-accelerator jobs share
//!     one vGPU through the time-slice rotation machinery; the ablation
//!     counts residents per device, slice rotations, and ops fenced by the
//!     epoch check that protects rotated-out holders.
//! (c) **End-to-end** — a small fabric cluster runs the same protocol
//!     through the real ARM server (SubmitJob / SetTenant), so the
//!     `arm.queue_depth` / `arm.accel_utilization` gauges and the
//!     `arm.sched.grant_latency` histogram land in the metrics file.
//!
//! Everything is driven by the deterministic sim; numbers are exact across
//! runs, which is what lets the regression gate pin them.

use std::collections::HashMap;

use dacc_arm::health::HealthConfig;
use dacc_arm::state::{inventory, AcceleratorId, HealthEvent, JobId, Pool, ShareConfig};
use dacc_bench::json::{write_results, Json};
use dacc_fabric::mpi::Rank;
use dacc_fabric::topology::NodeId;
use dacc_runtime::prelude::*;
use dacc_sched::{
    jain_index, Admitted, Capacity, JobReq, PlaceKind, Scheduler, TenantConfig, TenantId,
};
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

fn pool(n: usize) -> Pool {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let ranks: Vec<Rank> = (100..100 + n).map(Rank).collect();
    Pool::new(inventory(&nodes, &ranks))
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

struct FairOutcome {
    /// Grants won per tenant over the run.
    grants: Vec<u64>,
    /// Submit->grant latency of every grant, in virtual ms (1 tick = 1 ms).
    latencies_ms: Vec<f64>,
}

/// Closed-loop fair-share run: each tenant keeps `BACKLOG` single-accel
/// jobs queued; every granted job runs `SERVICE_TICKS` ticks and is then
/// released. The dispatcher is the same `Scheduler` the ARM server embeds.
fn fair_run(weights: &[u32], devices: usize, ticks: u32) -> FairOutcome {
    const BACKLOG: u32 = 4;
    const SERVICE_TICKS: u32 = 3;
    let mut pool = pool(devices);
    let mut sched = Scheduler::new(devices as u32);
    for (t, &w) in weights.iter().enumerate() {
        sched.set_tenant(TenantId(t as u32), TenantConfig::weighted(w));
    }
    let mut next_job = 0u64;
    let mut meta: HashMap<u64, (usize, u32)> = HashMap::new(); // job -> (tenant, submit tick)
    let mut running: Vec<(u64, u32)> = Vec::new(); // (job, done tick)
    let mut out = FairOutcome {
        grants: vec![0; weights.len()],
        latencies_ms: Vec::new(),
    };
    for tick in 0..ticks {
        // Completions due this tick hand their device back.
        let done: Vec<u64> = running
            .iter()
            .filter(|&&(_, d)| d <= tick)
            .map(|&(j, _)| j)
            .collect();
        running.retain(|&(_, d)| d > tick);
        for job in done {
            pool.release_job_at(JobId(job), None);
            sched.finished(job);
            meta.remove(&job);
        }
        // Closed loop: top every tenant's backlog back up.
        for t in 0..weights.len() {
            let (_, queued) = sched.tenant_load(TenantId(t as u32));
            for _ in queued..BACKLOG {
                let job = next_job;
                next_job += 1;
                if let Admitted::Queued { .. } = sched.submit(JobReq {
                    job,
                    tenant: TenantId(t as u32),
                    gang: 1,
                    share_ok: false,
                }) {
                    meta.insert(job, (t, tick));
                }
            }
        }
        // Fair-share dispatch, applied to the pool exactly as the server does.
        let cap = Capacity {
            free: pool.free_count(),
            share_slots: pool.share_slots(),
        };
        for p in sched.dispatch(cap) {
            match pool.try_allocate_at(JobId(p.job), p.gang, None) {
                Ok(_) => {
                    let (t, submitted) = meta[&p.job];
                    out.grants[t] += 1;
                    out.latencies_ms.push(f64::from(tick - submitted));
                    running.push((p.job, tick + SERVICE_TICKS));
                }
                Err(_) => sched.released(p.job, p.gang),
            }
        }
    }
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

struct OversubOutcome {
    jobs_per_vgpu: u32,
    rotations: u64,
    /// Ops the epoch fence would reject (stale holder kept issuing).
    fenced_ops: u64,
    /// Ops the active resident issued with a live epoch.
    live_ops: u64,
}

/// Two share-willing jobs on one device: the first opens the share, the
/// second joins (which rotates immediately, fencing the first). Heartbeats
/// ack fences and sweeps rotate the slice every `slice_ms`. Both residents
/// issue one op per ms with their last-known epoch; ops below the device
/// fence are counted as rejected — that is the daemon's exact check.
fn oversub_run(window_ms: u64) -> OversubOutcome {
    let mut pool = pool(1);
    pool.set_health(HealthConfig::default());
    pool.set_share(ShareConfig::default());
    let dev = AcceleratorId(0);
    let mut sched = Scheduler::new(1);
    sched.set_tenant(TenantId(0), TenantConfig::weighted(1));
    for job in 0..2u64 {
        sched.submit(JobReq {
            job,
            tenant: TenantId(0),
            gang: 1,
            share_ok: true,
        });
    }
    let mut epochs: HashMap<u64, u64> = HashMap::new(); // job -> last grant epoch seen
    let mut daemon_fence = 0u64;
    let mut out = OversubOutcome {
        jobs_per_vgpu: 0,
        rotations: 0,
        fenced_ops: 0,
        live_ops: 0,
    };
    for ms in 0..window_ms {
        let now = at(ms);
        // Daemon heartbeat: reports busy work and adopts the ARM's fence.
        daemon_fence = pool.heartbeat(dev, daemon_fence, 1, now).expect("beat").0;
        // ARM sweep: lease/liveness bookkeeping plus slice rotation.
        for ev in pool.tick(now) {
            if let HealthEvent::Rotated { job, grant, .. } = ev {
                epochs.insert(job.0, grant.epoch);
            }
        }
        // Scheduler pass, exactly as the server applies it.
        let cap = Capacity {
            free: pool.free_count(),
            share_slots: pool.share_slots(),
        };
        for p in sched.dispatch(cap) {
            let job = JobId(p.job);
            let granted = match p.kind {
                PlaceKind::Exclusive => pool.try_allocate_at(job, 1, Some(now)).map(|g| {
                    let _ = pool.open_share(g[0].accel, job);
                    g[0].epoch
                }),
                PlaceKind::Shared => pool.try_join_share_at(job, Some(now)).map(|g| g.epoch),
            };
            match granted {
                Ok(epoch) => {
                    epochs.insert(p.job, epoch);
                }
                Err(_) => sched.released(p.job, p.gang),
            }
        }
        // Every resident issues one op stamped with its last-known epoch.
        let fence = pool.meta(dev).expect("meta").fence;
        for job in pool.residents(dev) {
            let e = epochs.get(&job.0).copied().unwrap_or(0);
            if e != 0 && e < fence {
                out.fenced_ops += 1;
            } else {
                out.live_ops += 1;
            }
        }
        out.jobs_per_vgpu = out.jobs_per_vgpu.max(pool.residents(dev).len() as u32);
    }
    out.rotations = pool.total_rotations();
    out
}

/// Drive the same protocol end-to-end through the real ARM server so the
/// scheduler gauges and grant-latency histogram land in the metrics file.
/// Returns (queued grants, slice rotations observed by the clients).
fn cluster_run() -> (u32, u32) {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let spec = ClusterSpec {
        compute_nodes: 2,
        accelerators: 2,
        local_gpus: false,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        health: Some(HealthConfig::default()),
        share: Some(ShareConfig::default()),
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry);
    dacc_bench::telem::attach(&cluster);
    let arm_rank = cluster.arm_rank;
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    let daemons = [cluster.daemon_rank(0), cluster.daemon_rank(1)];

    let holder = sim.spawn("holder", async move {
        let proc = AcProcess::new(ep1, arm_rank, JobId(1), frontend);
        proc.arm().set_tenant(7, 2, 0, 4, 8).await.expect("tenant");
        let accels = proc
            .acquire_scheduled(7, 1, false, true)
            .await
            .expect("grant");
        h.delay(SimDuration::from_millis(2)).await;
        proc.finish().await;
        accels.len() as u32
    });
    let waiter = sim.spawn("waiter", async move {
        let proc = AcProcess::new(ep2.clone(), arm_rank, JobId(2), frontend);
        proc.arm().set_tenant(8, 1, 0, 4, 8).await.expect("tenant");
        // Queue behind the holder with a gang of 2: granted only after the
        // holder's release frees the second device.
        let accels = proc
            .acquire_scheduled(8, 2, false, true)
            .await
            .expect("grant");
        let n = accels.len() as u32;
        proc.finish().await;
        for rank in daemons {
            let _ = RemoteAccelerator::new(ep2.clone(), rank, frontend)
                .shutdown()
                .await;
        }
        proc.arm().shutdown().await;
        n
    });
    let mut sim = sim;
    sim.run();
    let held = holder.try_take().expect("holder never finished");
    let gang = waiter.try_take().expect("waiter never finished");
    (held + gang, 0)
}

fn main() {
    println!("# Ablation: multi-tenant ARM scheduler (fair share, quotas, vGPU slicing)");

    // (a) Fairness + latency.
    let ticks = 400u32;
    let equal = fair_run(&[1, 1, 1, 1], 4, ticks);
    let service: Vec<f64> = equal.grants.iter().map(|&g| g as f64).collect();
    let jain_equal = jain_index(&service);
    let mut lats = equal.latencies_ms.clone();
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = percentile(&lats, 50.0);
    let p99 = percentile(&lats, 99.0);
    println!("\n## Fair share, 4 tenants x weight 1, 4 devices, {ticks} ticks");
    println!("  grants per tenant: {:?}", equal.grants);
    println!("  Jain fairness index: {jain_equal:.4}");
    println!("  grant latency: p50 {p50:.1} ms, p99 {p99:.1} ms");

    let weighted = fair_run(&[2, 1], 4, ticks);
    let ratio = weighted.grants[0] as f64 / (weighted.grants[1].max(1)) as f64;
    // 1.0 when the split is exactly 2:1, degrading toward 0 either way.
    let split_score = (ratio / 2.0).min(2.0 / ratio);
    let normalized: Vec<f64> = weighted
        .grants
        .iter()
        .zip([2.0, 1.0])
        .map(|(&g, w)| g as f64 / w)
        .collect();
    let jain_weighted = jain_index(&normalized);
    println!("\n## Fair share, 2 tenants at 2:1 weights, 4 devices, {ticks} ticks");
    println!(
        "  grants per tenant: {:?} (ratio {ratio:.2}, target 2.00)",
        weighted.grants
    );
    println!("  weighted Jain index: {jain_weighted:.4}  split score: {split_score:.4}");

    // (b) Oversubscription.
    let ov = oversub_run(60);
    println!("\n## Oversubscription, 2 jobs on 1 vGPU, 60 ms window");
    println!(
        "  residents/vGPU: {}  rotations: {}  live ops: {}  fenced stale ops: {}",
        ov.jobs_per_vgpu, ov.rotations, ov.live_ops, ov.fenced_ops
    );

    // (c) End-to-end cluster pass (fills the metrics file's gauges).
    let (grants, _) = cluster_run();
    println!("\n## End-to-end SubmitJob path: {grants} accelerators granted via queue");

    write_results(
        "ablation_sched",
        &Json::obj([
            (
                "title",
                Json::from(
                    "Ablation: multi-tenant ARM scheduler (fair share, quotas, vGPU slicing)",
                ),
            ),
            (
                "fairness",
                Json::Arr(vec![
                    Json::obj([
                        ("case", Json::from("equal")),
                        ("weights", Json::from(vec![1u64, 1, 1, 1])),
                        ("grants", Json::from(equal.grants.clone())),
                        ("jain", Json::from(jain_equal)),
                    ]),
                    Json::obj([
                        ("case", Json::from("weighted-2to1")),
                        ("weights", Json::from(vec![2u64, 1])),
                        ("grants", Json::from(weighted.grants.clone())),
                        ("ratio", Json::from(ratio)),
                        ("split_score", Json::from(split_score)),
                        ("jain_weighted", Json::from(jain_weighted)),
                    ]),
                ]),
            ),
            (
                "latency",
                Json::obj([("p50_ms", Json::from(p50)), ("p99_ms", Json::from(p99))]),
            ),
            (
                "oversub",
                Json::obj([
                    ("jobs_per_vgpu", Json::from(ov.jobs_per_vgpu)),
                    ("rotations", Json::from(ov.rotations)),
                    ("live_ops", Json::from(ov.live_ops)),
                    ("fenced_stale_ops", Json::from(ov.fenced_ops)),
                ]),
            ),
            ("cluster_grants", Json::from(grants)),
        ]),
    );
    dacc_bench::telem::write_metrics("ablation_sched");
}
