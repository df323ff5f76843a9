//! ARM control-plane high-availability integration scenarios: the chaos
//! plane crashes or partitions the primary resource manager mid-workload;
//! a standby replica takes over from the replication log and the cluster
//! keeps its promises — held grants stay valid, queued work is eventually
//! dispatched, and device results match a fault-free run byte for byte.

use std::sync::Arc;

use dacc_arm::health::HealthConfig;
use dacc_arm::server::ArmHaConfig;
use dacc_arm::state::JobId;
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_tests::{chaos_spec, cluster_from, pattern};
use dacc_vgpu::params::ExecMode;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// HA tuning for these tests: sub-millisecond beacons so a takeover
/// completes within a few milliseconds of the crash, and a small snapshot
/// interval so replay at takeover is short.
fn fast_ha() -> ArmHaSpec {
    ArmHaSpec {
        standbys: 1,
        ha: ArmHaConfig {
            beacon_period: SimDuration::from_micros(500),
            takeover_silence: SimDuration::from_millis(2),
            snapshot_every: 8,
            replay_cost: SimDuration::from_micros(1),
            park_after: 8,
        },
        retry: dacc_arm::client::ArmRetryConfig {
            timeout: SimDuration::from_millis(3),
            attempts: 10,
            backoff: SimDuration::from_micros(200),
        },
    }
}

/// Health tuning that tolerates the heartbeat gap a takeover opens: the
/// daemons lose a few beats while they rotate from the dead primary to
/// the promoted standby, which must not read as accelerator failure.
fn ha_health() -> HealthConfig {
    HealthConfig {
        lease: SimDuration::from_millis(50),
        suspect_after: SimDuration::from_millis(6),
        quarantine_after: SimDuration::from_millis(20),
        dead_after: SimDuration::from_millis(200),
        ..HealthConfig::default()
    }
}

/// The acceptance workload, parameterized by an optional fault plane: an
/// allocation-and-transfer sequence with a quiet window in the middle for
/// the chaos plane to kill the primary ARM. Returns the device-side
/// readbacks plus which replica the client ended up talking to.
fn run_workload(fault: Option<Arc<ChaosPlane>>) -> (Vec<u8>, Vec<u8>, dacc_fabric::mpi::Rank) {
    let tracer = Tracer::new(65536);
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        arm_ha: Some(fast_ha()),
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer);
    cluster.set_fault_hook(fault.map(|p| p as Arc<dyn dacc_sim::fault::FaultHook>));
    let ep = cluster.cn_endpoints.remove(0);
    let client = cluster.arm_client(ep);
    let frontend = cluster.spec.frontend;
    let h = sim.handle();

    let out = sim.spawn("ha-workload", async move {
        let proc = AcProcess::with_client(client, JobId(1), frontend);
        // Phase 1 (before the crash window): acquire and seed device 1.
        let first = proc.acquire(1).await.unwrap();
        let len = 32usize << 10;
        let p1 = first[0].mem_alloc(len as u64).await.unwrap();
        first[0]
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 1)), p1)
            .await
            .unwrap();
        first[0].mem_set(p1.offset(100), 5_000, 0x5A).await.unwrap();
        // Quiet window: the fault plane crashes the primary in here.
        h.delay(SimDuration::from_millis(8)).await;
        // Phase 2 (after takeover): the held grant must still be honored
        // by its daemon — a wrongly fenced epoch would error these ops.
        first[0].mem_set(p1.offset(200), 100, 0x11).await.unwrap();
        let back1 = first[0].mem_cpy_d2h(p1, len as u64).await.unwrap();
        // And a brand-new allocation must succeed against whichever
        // replica is primary now.
        let second = proc.acquire(1).await.unwrap();
        let p2 = second[0].mem_alloc(len as u64).await.unwrap();
        second[0]
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 2)), p2)
            .await
            .unwrap();
        let back2 = second[0].mem_cpy_d2h(p2, len as u64).await.unwrap();
        proc.finish().await;
        proc.arm().shutdown().await;
        (
            back1.expect_bytes().to_vec(),
            back2.expect_bytes().to_vec(),
            proc.arm().arm_rank(),
        )
    });
    sim.run();
    let (b1, b2, served_by) = out.try_take().expect("HA workload did not finish");
    // Every replica handle must have resolved: the (possibly crashed)
    // primary and the standby both exit by the end of the run.
    assert!(
        cluster.arm_handle.try_take().is_some(),
        "primary ARM task never exited"
    );
    for (i, hnd) in cluster.standby_handles.iter().enumerate() {
        assert!(hnd.try_take().is_some(), "standby ARM {i} never exited");
    }
    (b1, b2, served_by)
}

/// Acceptance: crash the primary ARM mid-workload. The standby takes
/// over, the held grant stays usable, a fresh allocation succeeds, and
/// the device readbacks are byte-identical to a fault-free run.
#[test]
fn arm_crash_mid_workload_fails_over_with_identical_results() {
    let (clean1, clean2, clean_rank) = run_workload(None);

    // ARM is rank 0; with 1 CN + 2 ACs the standby sits at rank 4.
    let plane = ChaosPlane::new(
        13,
        FaultSchedule::new().at(t(3), Fault::CrashArm { rank: 0 }),
    );
    let (ha1, ha2, ha_rank) = run_workload(Some(plane.clone()));

    assert!(plane.counters().crashes >= 1, "the primary never crashed");
    assert_eq!(
        clean_rank,
        dacc_fabric::mpi::Rank(0),
        "fault-free run should finish on the original primary"
    );
    assert_eq!(
        ha_rank,
        dacc_fabric::mpi::Rank(4),
        "faulted run should finish on the standby"
    );
    assert_eq!(ha1, clean1, "held-grant readback diverged under takeover");
    assert_eq!(ha2, clean2, "post-takeover readback diverged");
}

/// Outstanding leases across a takeover: with the health plane armed, the
/// daemons' heartbeat agents must rotate to the promoted standby fast
/// enough that no accelerator is suspected/quarantined and the holder's
/// lease keeps renewing — the grant is never wrongly fenced.
#[test]
fn arm_crash_with_outstanding_leases_never_fences_the_holder() {
    let tracer = Tracer::new(65536);
    let plane = ChaosPlane::new(
        17,
        FaultSchedule::new().at(t(4), Fault::CrashArm { rank: 0 }),
    );
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(ha_health()),
        arm_ha: Some(fast_ha()),
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let ep = cluster.cn_endpoints.remove(0);
    let client = cluster.arm_client(ep.clone());
    let frontend = cluster.spec.frontend;
    let h = sim.handle();

    let out = sim.spawn("lease-holder", async move {
        let proc = AcProcess::with_client(client, JobId(1), frontend);
        let accels = proc.acquire(2).await.unwrap();
        let epoch_before = accels[0].epoch();
        let len = 16usize << 10;
        let ptr = accels[0].mem_alloc(len as u64).await.unwrap();
        accels[0]
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 7)), ptr)
            .await
            .unwrap();
        // Sit on the grant across the crash + takeover, well past the
        // suspect threshold measured from the primary's death.
        h.delay(SimDuration::from_millis(12)).await;
        // An explicit renewal must land at the new primary and cover both
        // held accelerators.
        let renewed = proc.arm().renew_lease(JobId(1)).await.unwrap();
        // The original epoch still clears the daemon's fence.
        let back = accels[0].mem_cpy_d2h(ptr, len as u64).await.unwrap();
        let intact = back.expect_bytes().as_ref() == pattern(len, 7).as_slice();
        proc.finish().await;
        for a in &accels {
            a.shutdown().await.unwrap();
        }
        proc.arm().shutdown().await;
        (renewed, epoch_before, intact)
    });
    sim.run();
    let (renewed, epoch_before, intact) = out.try_take().expect("lease holder did not finish");
    assert_eq!(renewed, 2, "renewal after takeover missed held grants");
    assert_eq!(epoch_before, 1, "first grant should sit at epoch 1");
    assert!(intact, "device payload corrupted across ARM takeover");
    assert!(plane.counters().crashes >= 1, "the primary never crashed");
    assert!(
        tracer.events_in("arm.health.quarantine").is_empty(),
        "takeover heartbeat gap was misread as accelerator failure"
    );
    assert!(
        tracer.events_in("arm.lease.expired").is_empty(),
        "a live holder's lease expired across the takeover"
    );
}

/// Gang dispatch across a takeover: a gang submission queued behind a
/// pool-filling job survives the primary's crash inside the replicated
/// log, keeps waiting at the promoted standby (the retrying client is
/// re-acked, not re-queued), and is dispatched when the blocker releases.
#[test]
fn queued_gang_submission_survives_arm_takeover() {
    let tracer = Tracer::new(65536);
    let plane = ChaosPlane::new(
        23,
        FaultSchedule::new().at(t(4), Fault::CrashArm { rank: 0 }),
    );
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        arm_ha: Some(fast_ha()),
        ..chaos_spec(2, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer);
    cluster.set_fault_hook(Some(plane.clone()));
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let c1 = cluster.arm_client(ep1);
    let c2 = cluster.arm_client(ep2);
    let frontend = cluster.spec.frontend;
    let h = sim.handle();

    // Job 1 grabs the whole pool, holds it across the crash, releases at
    // 12ms — after the standby has taken over.
    let blocker = sim.spawn("blocker", async move {
        let proc = AcProcess::with_client(c1, JobId(1), frontend);
        let accels = proc.acquire(2).await.unwrap();
        h.delay(SimDuration::from_millis(12)).await;
        proc.finish().await;
        accels.len()
    });
    // Job 2 submits a gang of 2 at 1ms; it queues at the original
    // primary, is crash-orphaned, and must be granted by the standby.
    let h2 = sim.handle();
    let gang = sim.spawn("gang-job", async move {
        let proc = AcProcess::with_client(c2, JobId(2), frontend);
        h2.delay(SimDuration::from_millis(1)).await;
        let accels = proc.acquire_scheduled(1, 2, false, true).await.unwrap();
        // Prove both grants are live devices under the new primary.
        let mut ok = 0;
        for a in &accels {
            let ptr = a.mem_alloc(4096).await.unwrap();
            a.mem_cpy_h2d(&Payload::from_vec(pattern(4096, 3)), ptr)
                .await
                .unwrap();
            let back = a.mem_cpy_d2h(ptr, 4096).await.unwrap();
            ok += (back.expect_bytes().as_ref() == pattern(4096, 3).as_slice()) as usize;
        }
        proc.finish().await;
        proc.arm().shutdown().await;
        (accels.len(), ok)
    });
    sim.run();
    assert_eq!(blocker.try_take(), Some(2), "blocker job did not finish");
    let (granted, ok) = gang.try_take().expect("gang job was never dispatched");
    assert_eq!(granted, 2, "gang dispatched with the wrong width");
    assert_eq!(ok, 2, "gang members unusable after takeover dispatch");
    assert!(plane.counters().crashes >= 1, "the primary never crashed");
}

/// Split-brain: partition the primary instead of killing it. The standby
/// promotes itself and serves; when the partition heals, the deposed
/// primary hears the new primary's higher-index beacon and demotes itself
/// — by shutdown time there is exactly one primary, and the demoted one
/// exits through the replicated shutdown like any standby.
#[test]
fn partitioned_primary_demotes_when_partition_heals() {
    let tracer = Tracer::new(65536);
    let plane = ChaosPlane::new(
        29,
        FaultSchedule::new().at(t(3), Fault::PartitionArm { rank: 0 }),
    );
    let mut spec = fast_ha();
    // Never park: the healed loser must be listening for beacons so the
    // winner's higher replication index can demote it deterministically.
    spec.ha.park_after = 0;
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        arm_ha: Some(spec),
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer);
    cluster.set_fault_hook(Some(plane.clone()));
    let ep = cluster.cn_endpoints.remove(0);
    let client = cluster.arm_client(ep);
    let frontend = cluster.spec.frontend;
    let h = sim.handle();

    let heal_plane = plane.clone();
    let heal_h = sim.handle();
    sim.spawn("healer", async move {
        heal_h.delay(SimDuration::from_millis(15)).await;
        heal_plane.lift(&Fault::PartitionArm { rank: 0 });
    });

    let out = sim.spawn("ha-client", async move {
        let proc = AcProcess::with_client(client, JobId(1), frontend);
        // Work submitted during the partition lands on the standby.
        h.delay(SimDuration::from_millis(6)).await;
        let accels = proc.acquire(2).await.unwrap();
        let served_during_partition = proc.arm().arm_rank();
        // Give the healed partition time to carry beacons both ways.
        h.delay(SimDuration::from_millis(15)).await;
        proc.finish().await;
        proc.arm().shutdown().await;
        (accels.len(), served_during_partition)
    });
    sim.run();
    let (granted, served_by) = out.try_take().expect("client did not finish");
    assert_eq!(granted, 2, "standby did not serve during the partition");
    assert_eq!(
        served_by,
        dacc_fabric::mpi::Rank(4),
        "allocations during the partition should come from the standby"
    );
    // Both replicas exited: the winner on the client's shutdown, the
    // demoted ex-primary through the replicated shutdown entry. A
    // split-brain survivor would still be running (and the sim would not
    // have drained its beacon timers at all).
    assert!(
        cluster.arm_handle.try_take().is_some(),
        "deposed primary never demoted/exited after the partition healed"
    );
    assert!(
        cluster.standby_handles[0].try_take().is_some(),
        "promoted standby never exited"
    );
}

/// Process faults never reach a lone ARM: on a cluster without HA, a hook
/// whose `process_state` crashes rank 0 from 1 ms on leaves the ARM
/// serving allocations after that.
#[test]
fn lone_arm_ignores_process_faults() {
    struct CrashRank0;
    impl dacc_sim::fault::FaultHook for CrashRank0 {
        fn process_state(&self, process: usize, now: SimTime) -> ProcessFault {
            if process == 0 && now >= t(1) {
                ProcessFault::Crash
            } else {
                ProcessFault::Healthy
            }
        }
    }
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        arm_ha: None,
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_fault_hook(Some(Arc::new(CrashRank0)));
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;
    let daemons = [cluster.daemon_rank(0), cluster.daemon_rank(1)];
    let h = sim.handle();
    let out = sim.spawn("job", async move {
        let proc = AcProcess::new(ep.clone(), arm_rank, JobId(1), frontend);
        h.delay(SimDuration::from_millis(5)).await;
        let grants = proc.acquire(2).await.map(|a| a.len());
        proc.finish().await;
        for d in daemons {
            RemoteAccelerator::new(ep.clone(), d, frontend)
                .shutdown()
                .await
                .unwrap();
        }
        proc.arm().shutdown().await;
        grants
    });
    sim.run();
    assert_eq!(out.try_take(), Some(Ok(2)));
    assert!(
        cluster.arm_handle.try_take().is_some(),
        "the ARM never shut down"
    );
}
