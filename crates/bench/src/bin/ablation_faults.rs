//! Ablation: fault-tolerance overhead. The same remote hybrid QR runs
//! (a) fault-free, (b) with the retry plane enabled but no faults — the
//! pure cost of framed requests and sequenced data blocks, (c) under a
//! burst of dropped messages absorbed by timeouts and retries, and
//! (d) through an accelerator death absorbed by ARM-driven failover with
//! command-log replay, and (d') under in-flight payload corruption caught
//! by the CRC trailers and healed by retransmission. The health-plane
//! rows then measure the same QR
//! (e) with heartbeats and leases on but no faults (pure health-plane
//! cost), (f) through the same accelerator death recovered proactively by
//! heartbeat-driven quarantine eviction, (g) through a heartbeat mute
//! long enough to quarantine the (healthy) accelerator, and (h) through a
//! graceful operator drain. A recovery-scaling section grows the logged
//! history 10x and contrasts full-replay recovery (linear in history)
//! against checkpointed recovery (flat: restore live state + replay the
//! tail). A final row reports how long the ARM takes to reclaim a crashed
//! compute node's accelerator through lease expiry. Completion times are
//! virtual (simulated) seconds.

use std::sync::Arc;

use dacc_arm::client::ArmClient;
use dacc_arm::health::HealthConfig;
use dacc_arm::state::{AcceleratorId, JobId};
use dacc_bench::json::{write_results, Json};
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_linalg::hybrid::{dgeqrf_hybrid, HybridConfig};
use dacc_linalg::lapack::qr_residuals;
use dacc_linalg::matrix::{HostMatrix, Matrix};
use dacc_runtime::daemon::DaemonConfig;
use dacc_runtime::prelude::*;
use dacc_sim::fault::FaultHook;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

const N: usize = 96;
const NB: usize = 16;

/// Health-plane tuning scaled to this benchmark's ~1.3ms healthy QR:
/// sub-millisecond liveness judgement so quarantine/drain land mid-run.
fn bench_health() -> HealthConfig {
    HealthConfig {
        // Must comfortably exceed the front-end retry timeout (25 ms here):
        // a replacement grant has to survive until a timed-out client
        // adopts it, or the grant itself expires and gets fenced.
        lease: SimDuration::from_millis(30),
        heartbeat_period: SimDuration::from_micros(100),
        suspect_after: SimDuration::from_micros(300),
        quarantine_after: SimDuration::from_micros(600),
        dead_after: SimDuration::from_millis(50),
        max_quarantines: 2,
        probe_cost: SimDuration::from_micros(50),
        queue_feedback: false,
    }
}

struct Scenario {
    retry: Option<RetryPolicy>,
    fault: Option<Arc<dyn FaultHook>>,
    health: Option<HealthConfig>,
    /// Drain the granted accelerator (id 0) at this virtual time, from a
    /// second compute node acting as the operator.
    drain_at: Option<SimDuration>,
}

struct Outcome {
    elapsed: SimDuration,
    failovers: u32,
    retries: usize,
    resid_ok: bool,
}

/// Run one QR to completion on a chaos cluster and report the virtual time
/// from job start to `proc.finish()`. With the health plane on, daemons
/// and the ARM are shut down after the measurement so heartbeat agents
/// quiesce.
fn run_qr(s: Scenario) -> Outcome {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    dacc_linalg::gpu::register_linalg_kernels(&registry);
    dacc_linalg::gpu::register_staging_kernels(&registry);
    let compute_nodes = 1 + usize::from(s.drain_at.is_some());
    let spec = ClusterSpec {
        compute_nodes,
        accelerators: 2,
        local_gpus: false,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        daemon: DaemonConfig {
            data_timeout: s.retry.map(|_| SimDuration::from_millis(20)),
            ..DaemonConfig::default()
        },
        frontend: FrontendConfig {
            retry: s.retry,
            ..FrontendConfig::default()
        },
        health: s.health,
        ..ClusterSpec::default()
    };
    let tracer = Tracer::new(1 << 16);
    let mut sim = sim;
    let mut cluster = build_cluster(&sim, spec, registry);
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(s.fault);
    dacc_bench::telem::attach(&cluster);
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    let a = Matrix::random(N, N, &mut SimRng::new(7));
    let a0 = a.clone();

    if let Some(at) = s.drain_at {
        // The operator: drain the accelerator the QR job is using.
        let admin_ep = cluster.cn_endpoints.remove(0);
        let admin_h = h.clone();
        sim.spawn("admin", async move {
            let arm = ArmClient::new(admin_ep, arm_rank);
            admin_h.delay(at).await;
            let _ = arm.drain(AcceleratorId(0)).await;
        });
    }

    let health_on = s.health.is_some();
    let daemon_health = cluster.daemon_health.clone();
    let out = sim.spawn("qr", async move {
        let start = h.now();
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let devices = vec![AcDevice::Resilient(session.clone())];
        let mut host = HostMatrix::Real(a);
        let cfg = HybridConfig {
            nb: NB,
            ..HybridConfig::default()
        };
        let report = dgeqrf_hybrid(&h, &devices, &mut host, &cfg).await.unwrap();
        proc.finish().await;
        let elapsed = h.now().since(start);
        if health_on {
            // Stop surviving daemons (their heartbeat agents exit with
            // them), then the ARM; otherwise the sim never goes quiet.
            let ep = proc.endpoint().clone();
            for (i, dh) in daemon_health.iter().enumerate() {
                if dh.alive() {
                    let rank = dacc_fabric::mpi::Rank(1 + compute_nodes + i);
                    let _ = RemoteAccelerator::new(ep.clone(), rank, frontend)
                        .shutdown()
                        .await;
                }
            }
            proc.arm().shutdown().await;
        }
        let factored = match host {
            HostMatrix::Real(m) => m,
            _ => unreachable!(),
        };
        (elapsed, factored, report.tau, session.failovers())
    });
    sim.run();
    let (elapsed, factored, tau, failovers) = out.try_take().expect("QR did not finish");
    let (resid, orth) = qr_residuals(&a0, &factored, &tau);
    Outcome {
        elapsed,
        failovers,
        retries: tracer.events_in("retry.attempt").len(),
        resid_ok: resid < 1e-8 && orth < 1e-10,
    }
}

const RECOVERY_SLOTS: u64 = 8;
const RECOVERY_OP_LEN: u64 = 256 << 10;

struct RecoveryOutcome {
    recovery: SimDuration,
    restored: u64,
    replayed: u64,
    exact: bool,
}

/// One bounded-time-recovery measurement: `ops` H2D writes land in a
/// rotating window of `RECOVERY_SLOTS` buffer slots, optionally a
/// checkpoint truncates the log (leaving a two-op tail so recovery
/// exercises restore *and* tail replay), then the granted accelerator is
/// killed and a D2H probe forces failover. Returns the virtual time from
/// the probe to the verified bytes. The retry policy is tightened so
/// death detection does not drown the replay cost being measured.
fn run_recovery(ops: usize, ckpt: bool) -> RecoveryOutcome {
    let retry = RetryPolicy {
        timeout: SimDuration::from_millis(2),
        max_retries: 2,
        backoff: SimDuration::from_micros(100),
        ..RetryPolicy::default()
    };
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let plane = ChaosPlane::new(11, FaultSchedule::new());
    let hook: Arc<dyn FaultHook> = plane.clone();
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
            retry: Some(retry),
            ..FrontendConfig::default()
        },
        ..ClusterSpec::default()
    };
    let mut sim = Sim::new();
    let mut cluster = build_cluster(&sim, spec, registry);
    cluster.set_fault_hook(Some(hook));
    let tele = Telemetry::new(dacc_telemetry::DEFAULT_SPAN_CAPACITY);
    cluster.set_telemetry(tele.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;

    let buf_len = RECOVERY_SLOTS * RECOVERY_OP_LEN;
    fn fill(i: usize) -> Vec<u8> {
        (0..RECOVERY_OP_LEN as usize)
            .map(|j| ((j * 131 + i * 7919) % 251) as u8)
            .collect()
    }
    let mut expect = vec![0u8; buf_len as usize];
    for i in 0..ops {
        let off = ((i as u64 % RECOVERY_SLOTS) * RECOVERY_OP_LEN) as usize;
        expect[off..off + RECOVERY_OP_LEN as usize].copy_from_slice(&fill(i));
    }

    let out = sim.spawn("recovery", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let ptr = session.mem_alloc(buf_len).await.unwrap();
        session.mem_set(ptr, buf_len, 0).await.unwrap();
        let split = if ckpt { ops.saturating_sub(2) } else { ops };
        for i in 0..ops {
            if ckpt && i == split {
                session.checkpoint().await.unwrap();
            }
            let off = (i as u64 % RECOVERY_SLOTS) * RECOVERY_OP_LEN;
            let data = dacc_fabric::payload::Payload::from_vec(fill(i));
            session.mem_cpy_h2d(&data, ptr.offset(off)).await.unwrap();
        }
        plane.inject(Fault::kill_daemon(2));
        let t0 = h.now();
        let back = session.mem_cpy_d2h(ptr, buf_len).await.unwrap();
        let recovery = h.now().since(t0);
        proc.finish().await;
        (recovery, back, session.failovers())
    });
    sim.run();
    let (recovery, back, failovers) = out.try_take().expect("recovery run did not finish");
    assert!(failovers >= 1, "the kill never forced a failover");
    RecoveryOutcome {
        recovery,
        restored: tele.counter("failover.restored_bytes"),
        replayed: tele.counter("failover.tail_replayed_ops"),
        exact: back.expect_bytes().as_ref() == expect.as_slice(),
    }
}

/// Lease-expiry reclaim latency: a compute node crashes while holding an
/// accelerator; measure the virtual time until the ARM has expired the
/// lease, fenced the epoch, seen the fence acked, and returned the device
/// to the free pool.
fn run_lease_reclaim(retry: RetryPolicy, health: HealthConfig) -> SimDuration {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    // ARM 0, CNs 1-2, daemons 3-4. Node 1 drops off the fabric at 300us.
    let plane: Arc<dyn FaultHook> = ChaosPlane::new(
        5,
        FaultSchedule::new().at(
            SimTime::ZERO + SimDuration::from_micros(300),
            Fault::CrashComputeNode { node: 1 },
        ),
    );
    let spec = ClusterSpec {
        compute_nodes: 2,
        accelerators: 2,
        local_gpus: false,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        daemon: DaemonConfig {
            data_timeout: Some(SimDuration::from_millis(20)),
            ..DaemonConfig::default()
        },
        frontend: FrontendConfig {
            retry: Some(retry),
            ..FrontendConfig::default()
        },
        health: Some(health),
        ..ClusterSpec::default()
    };
    let mut sim = sim;
    let mut cluster = build_cluster(&sim, spec, registry);
    cluster.set_fault_hook(Some(plane));
    let arm_rank = cluster.arm_rank;
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    let daemons = [cluster.daemon_rank(0), cluster.daemon_rank(1)];

    sim.spawn("victim", async move {
        let proc = AcProcess::new(ep1, arm_rank, JobId(1), frontend);
        let accels = proc.acquire(1).await.unwrap();
        let ptr = accels[0].mem_alloc(4 << 10).await.unwrap();
        let data = dacc_fabric::payload::Payload::from_vec(vec![0x5A; 4 << 10]);
        accels[0].mem_cpy_h2d(&data, ptr).await.unwrap();
        // The node crashes at 300us; the job simply vanishes mid-hold.
    });

    let out = sim.spawn("supervisor", async move {
        let arm = ArmClient::new(ep2.clone(), arm_rank);
        let recovered = loop {
            h.delay(SimDuration::from_micros(500)).await;
            let stats = arm.query().await.unwrap();
            if stats.free == 2 {
                break h.now().since(SimTime::ZERO);
            }
        };
        for rank in daemons {
            let _ = RemoteAccelerator::new(ep2.clone(), rank, frontend)
                .shutdown()
                .await;
        }
        arm.shutdown().await;
        recovered
    });
    sim.run();
    out.try_take().expect("pool never recovered")
}

fn main() {
    let retry = RetryPolicy {
        timeout: SimDuration::from_millis(25),
        max_retries: 4,
        backoff: SimDuration::from_micros(200),
        ..RetryPolicy::default()
    };
    let health = bench_health();
    // The granted accelerator is rank 2 (ARM=0, CN=1, daemons=2,3).
    let drops: Arc<dyn FaultHook> = ChaosPlane::new(
        5,
        FaultSchedule::new()
            .after_events(
                80,
                Fault::DropMessages {
                    src: Some(1),
                    dst: Some(2),
                    count: 2,
                },
            )
            .after_events(
                160,
                Fault::DropMessages {
                    src: Some(2),
                    dst: Some(1),
                    count: 2,
                },
            ),
    );
    let kill: Arc<dyn FaultHook> = ChaosPlane::new(
        5,
        FaultSchedule::new().after_events(120, Fault::kill_daemon(2)),
    );
    // One bit flip in each direction of the data path, caught by the CRC
    // trailers and healed by retransmission.
    let corrupt: Arc<dyn FaultHook> = ChaosPlane::new(
        5,
        FaultSchedule::new()
            .after_events(
                80,
                Fault::CorruptPayload {
                    src: Some(1),
                    dst: Some(2),
                    nth: 1,
                },
            )
            .after_events(
                160,
                Fault::CorruptPayload {
                    src: Some(2),
                    dst: Some(1),
                    nth: 1,
                },
            ),
    );
    // Time-pinned variants for the health rows: heartbeat traffic shifts
    // event counts, so the schedules trigger on the virtual clock instead.
    let kill_at: Arc<dyn FaultHook> = ChaosPlane::new(
        5,
        FaultSchedule::new().at(
            SimTime::ZERO + SimDuration::from_micros(500),
            Fault::kill_daemon(2),
        ),
    );
    let mute: Arc<dyn FaultHook> = ChaosPlane::new(
        5,
        FaultSchedule::new().at(
            SimTime::ZERO + SimDuration::from_micros(200),
            Fault::MuteHeartbeats { rank: 2, count: 15 },
        ),
    );

    let cases: Vec<(&'static str, Scenario)> = dacc_bench::smoke_truncate(
        vec![
            (
                "fault-free, retry plane off",
                Scenario {
                    retry: None,
                    fault: None,
                    health: None,
                    drain_at: None,
                },
            ),
            (
                "fault-free, retry plane on",
                Scenario {
                    retry: Some(retry),
                    fault: None,
                    health: None,
                    drain_at: None,
                },
            ),
            (
                "4 dropped messages (retries)",
                Scenario {
                    retry: Some(retry),
                    fault: Some(drops),
                    health: None,
                    drain_at: None,
                },
            ),
            (
                "accelerator death (failover)",
                Scenario {
                    retry: Some(retry),
                    fault: Some(kill),
                    health: None,
                    drain_at: None,
                },
            ),
            (
                "corrupted payloads (CRC + retransmit)",
                Scenario {
                    retry: Some(retry),
                    fault: Some(corrupt),
                    health: None,
                    drain_at: None,
                },
            ),
            (
                "fault-free, health plane on",
                Scenario {
                    retry: Some(retry),
                    fault: None,
                    health: Some(health),
                    drain_at: None,
                },
            ),
            (
                "accelerator death (proactive eviction)",
                Scenario {
                    retry: Some(retry),
                    fault: Some(kill_at),
                    health: Some(health),
                    drain_at: None,
                },
            ),
            (
                "quarantine eviction (muted beats)",
                Scenario {
                    retry: Some(retry),
                    fault: Some(mute),
                    health: Some(health),
                    drain_at: None,
                },
            ),
            (
                "graceful drain mid-run",
                Scenario {
                    retry: Some(retry),
                    fault: None,
                    health: Some(health),
                    drain_at: Some(SimDuration::from_micros(500)),
                },
            ),
        ],
        2,
    );

    println!("# Ablation: fault-tolerance overhead (remote dgeqrf, n={N}, nb={NB})");
    let mut baseline = None;
    let mut rows = Vec::new();
    for (label, scenario) in cases {
        let o = run_qr(scenario);
        let secs = o.elapsed.as_secs_f64();
        let base = *baseline.get_or_insert(secs);
        let overhead = (secs / base - 1.0) * 100.0;
        println!(
            "{label:>38}: {secs:>9.6} s  ({overhead:>+8.1}% vs baseline)  \
             retries={:<3} failovers={} numerics={}",
            o.retries,
            o.failovers,
            if o.resid_ok { "ok" } else { "CORRUPT" },
        );
        rows.push(Json::obj([
            ("case", Json::from(label)),
            ("elapsed_s", Json::from(secs)),
            ("overhead_pct", Json::from(overhead)),
            ("retries", Json::from(o.retries)),
            ("failovers", Json::from(o.failovers)),
            ("numerics_ok", Json::from(o.resid_ok)),
        ]));
    }
    // Bounded-time recovery scaling: grow the logged history 10x and watch
    // full-replay recovery grow with it while checkpointed recovery stays
    // pinned to O(live state + tail).
    let mut recovery_rows = Vec::new();
    let mut recovery_times = std::collections::HashMap::new();
    if !dacc_bench::smoke() {
        println!("\n# Recovery-time scaling (2 MiB live state, 256 KiB ops)");
        for (label, ops, ckpt) in [
            ("full replay x1", 24usize, false),
            ("full replay x10", 240, false),
            ("checkpointed x1", 24, true),
            ("checkpointed x10", 240, true),
        ] {
            let o = run_recovery(ops, ckpt);
            let secs = o.recovery.as_secs_f64();
            recovery_times.insert(label, secs);
            println!(
                "{label:>38}: {secs:>9.6} s  logged={ops:<3} replayed={:<3} \
                 restored={:>8}B bytes={}",
                o.replayed,
                o.restored,
                if o.exact { "exact" } else { "CORRUPT" },
            );
            recovery_rows.push(Json::obj([
                ("case", Json::from(label)),
                ("logged_ops", Json::from(ops)),
                ("recovery_s", Json::from(secs)),
                ("replayed_ops", Json::from(o.replayed)),
                ("restored_bytes", Json::from(o.restored)),
                ("exact", Json::from(o.exact)),
            ]));
        }
    }
    // Checkpointed recovery time at 10x the history, relative to 1x: ~1.0
    // means recovery is flat in log length (the tentpole property).
    let ckpt_flatness = match (
        recovery_times.get("checkpointed x10"),
        recovery_times.get("checkpointed x1"),
    ) {
        (Some(a), Some(b)) if *b > 0.0 => a / b,
        _ => 1.0,
    };
    if !recovery_times.is_empty() {
        println!(
            "{:>38}: {ckpt_flatness:>9.3}x",
            "checkpointed 10x/1x flatness"
        );
    }
    if !dacc_bench::smoke() {
        let reclaim = run_lease_reclaim(retry, health);
        let secs = reclaim.as_secs_f64();
        println!(
            "{:>38}: {secs:>9.6} s  (crash -> pool free again)",
            "lease expiry reclaim (crashed CN)"
        );
        rows.push(Json::obj([
            ("case", Json::from("lease expiry reclaim (crashed CN)")),
            ("elapsed_s", Json::from(secs)),
            ("overhead_pct", Json::from(0.0)),
            ("retries", Json::from(0usize)),
            ("failovers", Json::from(0u32)),
            ("numerics_ok", Json::from(true)),
        ]));
    }
    write_results(
        "ablation_faults",
        &Json::obj([
            (
                "title",
                Json::from("Ablation: fault-tolerance overhead (remote dgeqrf)"),
            ),
            ("n", Json::from(N)),
            ("nb", Json::from(NB)),
            ("runs", Json::Arr(rows)),
            ("recovery", Json::Arr(recovery_rows)),
            ("recovery_ckpt_flatness", Json::from(ckpt_flatness)),
        ]),
    );
    dacc_bench::telem::write_metrics("ablation_faults");
}
