//! Health-plane integration scenarios: leases, heartbeat liveness, epoch
//! fencing, quarantine with reintegration, and graceful drain.
//!
//! Every test that enables the health plane must shut the daemons down at
//! the end — heartbeat agents only exit with their daemon, and a beating
//! agent keeps the sim alive forever.

use std::cell::RefCell;
use std::rc::Rc;

use dacc_arm::client::ArmClient;
use dacc_arm::health::HealthConfig;
use dacc_arm::state::{inventory, AcceleratorId, JobId, Pool};
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_fabric::mpi::Rank;
use dacc_fabric::payload::Payload;
use dacc_fabric::topology::NodeId;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_tests::{chaos_spec, cluster_from, pattern};
use dacc_vgpu::params::ExecMode;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Acceptance (a): a compute node crashes while holding every accelerator.
/// Its leases run out, the ARM reclaims both devices, and a later job can
/// allocate and actually use them under a fresh epoch.
#[test]
fn crashed_compute_node_lease_expires_and_pool_recovers() {
    let tracer = Tracer::new(65536);
    // ARM rank 0, CNs ranks 1-2, daemons ranks 3-4. Node 1 (the holding
    // job's host) drops off the fabric at 2ms: both directions blackholed.
    let plane = ChaosPlane::new(
        7,
        FaultSchedule::new().at(t(2), Fault::CrashComputeNode { node: 1 }),
    );
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        ..chaos_spec(2, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let arm_rank = cluster.arm_rank;
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;

    // Job 1: grabs the whole pool, touches one device, then its node dies.
    let h1 = h.clone();
    let victim = sim.spawn("victim-job", async move {
        let proc = AcProcess::new(ep1, arm_rank, JobId(1), frontend);
        let accels = proc.acquire(2).await.unwrap();
        let ptr = accels[0].mem_alloc(8 << 10).await.unwrap();
        accels[0]
            .mem_cpy_h2d(&Payload::from_vec(pattern(8 << 10, 5)), ptr)
            .await
            .unwrap();
        // The node is blackholed from 2ms on; this op can never get out.
        h1.delay(SimDuration::from_millis(10)).await;
        accels[1].mem_alloc(64).await
    });

    // Job 2: waits out the victim's lease (50ms), then takes over.
    let out = sim.spawn("takeover-job", async move {
        let proc = AcProcess::new(ep2.clone(), arm_rank, JobId(2), frontend);
        h.delay(SimDuration::from_millis(60)).await;
        let grants = proc.arm().allocate(JobId(2), 2).await.unwrap();
        assert_eq!(grants.len(), 2, "reclaimed accelerators not grantable");
        // Prove a reclaimed accelerator is actually usable.
        let ac = RemoteAccelerator::new(ep2.clone(), grants[0].daemon_rank, frontend)
            .with_epoch(grants[0].epoch);
        let data = pattern(4 << 10, 9);
        let ptr = ac.mem_alloc(4 << 10).await.unwrap();
        ac.mem_cpy_h2d(&Payload::from_vec(data.clone()), ptr)
            .await
            .unwrap();
        let back = ac.mem_cpy_d2h(ptr, 4 << 10).await.unwrap();
        let intact = back.expect_bytes().as_ref() == data.as_slice();
        proc.finish().await;
        for g in &grants {
            RemoteAccelerator::new(ep2.clone(), g.daemon_rank, frontend)
                .shutdown()
                .await
                .unwrap();
        }
        proc.arm().shutdown().await;
        (grants[0].epoch, grants[1].epoch, intact)
    });

    sim.run();
    let victim_err = victim.try_take().expect("victim job did not finish");
    assert!(
        matches!(victim_err, Err(AcError::Unreachable)),
        "the crashed node somehow reached the cluster: {victim_err:?}"
    );
    let (e0, e1, intact) = out.try_take().expect("takeover job did not finish");
    // First tenure was epoch 1; the reclaim fenced it at 2 and the second
    // grant must sit at the fence.
    assert_eq!((e0, e1), (2, 2), "re-grant did not advance past the fence");
    assert!(intact, "reclaimed accelerator corrupted the roundtrip");
    assert_eq!(
        tracer.events_in("arm.lease.expired").len(),
        2,
        "both leases should have expired exactly once"
    );
    let pool = cluster.arm_handle.try_take().expect("ARM still running");
    let stats = pool.stats();
    assert_eq!(
        (stats.free, stats.broken),
        (2, 0),
        "pool did not recover cleanly: {stats:?}"
    );
}

/// Acceptance (b): a zombie client wakes after its lease was reclaimed and
/// aims a write at the exact region the new tenant is using. The daemon
/// fences the stale epoch deterministically: the op is rejected and never
/// touches device state.
#[test]
fn stale_epoch_op_is_fenced_and_cannot_corrupt_reassigned_accelerator() {
    let tracer = Tracer::new(65536);
    // ARM 0, CNs 1-2, one accelerator (daemon rank 3).
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        ..chaos_spec(2, 1, ExecMode::Functional)
    });
    cluster.set_tracer(tracer.clone());
    let arm_rank = cluster.arm_rank;
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    // The tenant publishes its device pointer so the zombie can aim at it.
    let shared_ptr: Rc<RefCell<Option<dacc_vgpu::memory::DevicePtr>>> = Rc::new(RefCell::new(None));

    let zombie_target = Rc::clone(&shared_ptr);
    let h1 = h.clone();
    let zombie = sim.spawn("zombie", async move {
        let proc = AcProcess::new(ep1, arm_rank, JobId(1), frontend);
        let mut accels = proc.acquire(1).await.unwrap();
        let ac = accels.remove(0);
        let ptr = ac.mem_alloc(8 << 10).await.unwrap();
        ac.mem_cpy_h2d(&Payload::from_vec(pattern(8 << 10, 1)), ptr)
            .await
            .unwrap();
        // Go silent past the lease; wake up and stomp on the new tenant.
        h1.delay(SimDuration::from_millis(70)).await;
        let target = (*zombie_target.borrow()).expect("tenant never allocated");
        ac.mem_set(target, 1024, 0xEE).await
    });

    let tenant_ptr = Rc::clone(&shared_ptr);
    let out = sim.spawn("tenant", async move {
        h.delay(SimDuration::from_millis(60)).await;
        let proc = AcProcess::new(ep2.clone(), arm_rank, JobId(2), frontend);
        let grants = proc.arm().allocate(JobId(2), 1).await.unwrap();
        let ac = RemoteAccelerator::new(ep2.clone(), grants[0].daemon_rank, frontend)
            .with_epoch(grants[0].epoch);
        let data = pattern(8 << 10, 2);
        let ptr = ac.mem_alloc(8 << 10).await.unwrap();
        ac.mem_cpy_h2d(&Payload::from_vec(data.clone()), ptr)
            .await
            .unwrap();
        *tenant_ptr.borrow_mut() = Some(ptr);
        // Let the zombie take its shot at 70ms, then audit the bytes.
        h.delay(SimDuration::from_millis(20)).await;
        let back = ac.mem_cpy_d2h(ptr, 8 << 10).await.unwrap();
        let intact = back.expect_bytes().as_ref() == data.as_slice();
        proc.finish().await;
        RemoteAccelerator::new(ep2.clone(), grants[0].daemon_rank, frontend)
            .shutdown()
            .await
            .unwrap();
        proc.arm().shutdown().await;
        (grants[0].epoch, intact)
    });

    sim.run();
    let zombie_result = zombie.try_take().expect("zombie did not finish");
    assert!(
        matches!(zombie_result, Err(AcError::Remote(Status::StaleEpoch))),
        "stale-epoch op was not fenced: {zombie_result:?}"
    );
    let (epoch, intact) = out.try_take().expect("tenant did not finish");
    assert_eq!(epoch, 2, "tenant grant did not advance past the fence");
    assert!(intact, "the zombie's write reached the reassigned device");
    assert!(
        !tracer.events_in("daemon.fenced").is_empty(),
        "fencing decision not traced"
    );
    assert!(
        !tracer.events_in("daemon.reset").is_empty(),
        "daemon never reset its session state on the fence raise"
    );
    assert!(
        !tracer.events_in("arm.lease.expired").is_empty(),
        "lease expiry not traced"
    );
}

/// One recovery run for acceptance (c): a resilient session works through a
/// fixed op schedule while its accelerator's daemon is killed at 5ms.
/// Returns the readback bytes, the virtual completion time, the failover
/// count, and the tracer.
fn recovery_run(health: Option<HealthConfig>) -> (Vec<u8>, SimTime, u32, Tracer) {
    let tracer = Tracer::new(65536);
    // ARM 0, CN 1, daemons 2-3; FirstFit grants accel 0 (rank 2).
    let plane = ChaosPlane::new(13, FaultSchedule::new().at(t(5), Fault::kill_daemon(2)));
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health,
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    let survivor = cluster.daemon_rank(1);
    let out = sim.spawn("job", async move {
        let proc = AcProcess::new(ep.clone(), arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let len = 32usize << 10;
        let ptr = session.mem_alloc(len as u64).await.unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 3)), ptr)
            .await
            .unwrap();
        for i in 0..6u64 {
            h.delay(SimDuration::from_millis(2)).await;
            session
                .mem_set(ptr.offset(i * 1000), 500, 0x40 + i as u8)
                .await
                .unwrap();
        }
        let back = session.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        let done = h.now();
        proc.finish().await;
        // The killed daemon is gone; stop the survivor, then the ARM.
        RemoteAccelerator::new(ep.clone(), survivor, frontend)
            .shutdown()
            .await
            .unwrap();
        proc.arm().shutdown().await;
        (back.expect_bytes().to_vec(), done, session.failovers())
    });
    sim.run();
    let (bytes, done, failovers) = out.try_take().expect("recovery job did not finish");
    (bytes, done, failovers, tracer)
}

/// Acceptance (c): on the identical fault schedule and workload, the
/// heartbeat-driven proactive eviction path recovers strictly faster (in
/// virtual time) than the reactive request-timeout path — and both land on
/// byte-identical results.
#[test]
fn proactive_heartbeat_failover_beats_reactive_timeout_path() {
    let (proactive_bytes, proactive_done, proactive_failovers, proactive_tracer) =
        recovery_run(Some(HealthConfig::default()));
    let (reactive_bytes, reactive_done, reactive_failovers, reactive_tracer) = recovery_run(None);

    let mut expect = pattern(32 << 10, 3);
    for i in 0..6usize {
        expect[i * 1000..i * 1000 + 500].fill(0x40 + i as u8);
    }
    assert_eq!(proactive_bytes, expect, "proactive run corrupted the data");
    assert_eq!(reactive_bytes, expect, "reactive run corrupted the data");
    assert_eq!(
        (proactive_failovers, reactive_failovers),
        (1, 1),
        "both paths must fail over exactly once"
    );
    assert!(
        proactive_done < reactive_done,
        "proactive recovery ({proactive_done}) not faster than reactive ({reactive_done})"
    );
    // The proactive path was driven by the liveness plane, not by luck:
    // the ARM quarantined the silent accelerator and the client abandoned
    // its retry budget on the eviction notice.
    assert!(
        !proactive_tracer
            .events_in("arm.health.quarantine")
            .is_empty(),
        "quarantine eviction not traced"
    );
    assert!(
        !proactive_tracer.events_in("retry.evicted").is_empty(),
        "the eviction notice never cut a retry budget short"
    );
    // The reactive path really did burn its full budget.
    assert!(
        reactive_tracer.events_in("retry.timeout").len()
            > proactive_tracer.events_in("retry.timeout").len(),
        "reactive path should time out more often than proactive"
    );
}

/// Liveness round trip: muted heartbeats quarantine an accelerator, the
/// holding job is proactively migrated (no request timeout fires), and once
/// beats resume a passed probe reintegrates the device on probation, where
/// a later job can allocate it again.
#[test]
fn muted_heartbeats_quarantine_probe_and_reintegrate_on_probation() {
    let tracer = Tracer::new(65536);
    // ARM 0, CN 1, daemons 2-3. Accel 0's next 12 beats are muted from
    // 2ms: silence crosses quarantine_after (8ms) but beats resume at
    // ~15ms, so it probes and comes back.
    let plane = ChaosPlane::new(
        5,
        FaultSchedule::new().at(t(2), Fault::MuteHeartbeats { rank: 2, count: 12 }),
    );
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    let daemons = [cluster.daemon_rank(0), cluster.daemon_rank(1)];
    let out = sim.spawn("job", async move {
        let proc = AcProcess::new(ep.clone(), arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let len = 8usize << 10;
        let ptr = session.mem_alloc(len as u64).await.unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 1)), ptr)
            .await
            .unwrap();
        // Sit through the quarantine: the ARM evicts us with a replacement
        // grant at ~10ms; the next op migrates before any timeout.
        h.delay(SimDuration::from_millis(15)).await;
        session.mem_set(ptr, 100, 0x77).await.unwrap();
        let back = session.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        let mut expect = pattern(len, 1);
        expect[..100].fill(0x77);
        let intact = back.expect_bytes().as_ref() == expect.as_slice();
        // By ~20ms accel 0 has beaten again, probed, and reintegrated:
        // a second job can allocate it.
        h.delay(SimDuration::from_millis(5)).await;
        let grants = proc.arm().allocate(JobId(2), 1).await.unwrap();
        let reused = grants[0].accel;
        proc.finish().await;
        proc.arm().release_job(JobId(2)).await.unwrap();
        for rank in daemons {
            RemoteAccelerator::new(ep.clone(), rank, frontend)
                .shutdown()
                .await
                .unwrap();
        }
        proc.arm().shutdown().await;
        (intact, session.failovers(), reused)
    });

    sim.run();
    let (intact, failovers, reused) = out.try_take().expect("job did not finish");
    assert!(intact, "migration lost or reordered writes");
    assert_eq!(
        failovers, 1,
        "the quarantine eviction never migrated the job"
    );
    assert_eq!(
        reused,
        AcceleratorId(0),
        "the reintegrated accelerator was not granted again"
    );
    assert!(
        tracer.events_in("retry.timeout").is_empty(),
        "proactive migration must complete before any request timeout"
    );
    assert!(
        !tracer.events_in("arm.health.quarantine").is_empty(),
        "quarantine eviction not traced"
    );
    assert!(
        tracer
            .events_in("arm.health")
            .iter()
            .any(|e| e.label.contains("reintegrated")),
        "probe reintegration not traced"
    );
    assert!(
        plane.counters().muted_beats >= 12,
        "the schedule muted fewer beats than planned: {:?}",
        plane.counters()
    );
    let pool = cluster.arm_handle.try_take().expect("ARM still running");
    let meta = pool.meta(AcceleratorId(0)).unwrap();
    assert_eq!(meta.quarantines, 1, "exactly one quarantine expected");
    assert!(
        meta.probation,
        "reintegration must leave the device on probation"
    );
}

/// A flaky accelerator that keeps cycling up/down exhausts its
/// re-quarantine budget (max_quarantines = 2) and is permanently broken —
/// the third quarantine is terminal.
#[test]
fn flaky_accelerator_exhausts_requarantine_budget_and_breaks() {
    let tracer = Tracer::new(65536);
    // ARM 0, CN 1, daemons 2-3. Accel 0 beats twice, then goes dark for 10
    // beats, forever (2 up / 10 down on a 1ms beat → ~12ms per cycle).
    let plane = ChaosPlane::new(
        3,
        FaultSchedule::new().at(
            SimTime::ZERO,
            Fault::FlakyAccel {
                rank: 2,
                up: 2,
                down: 10,
            },
        ),
    );
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    let daemons = [cluster.daemon_rank(0), cluster.daemon_rank(1)];
    let out = sim.spawn("supervisor", async move {
        let arm = ArmClient::new(ep.clone(), arm_rank);
        // Three ~12ms flap cycles exhaust the budget by ~35ms.
        h.delay(SimDuration::from_millis(45)).await;
        let stats = arm.query().await.unwrap();
        for rank in daemons {
            RemoteAccelerator::new(ep.clone(), rank, frontend)
                .shutdown()
                .await
                .unwrap();
        }
        arm.shutdown().await;
        stats
    });

    sim.run();
    let stats = out.try_take().expect("supervisor did not finish");
    assert_eq!(
        stats.broken, 1,
        "the flaky accelerator should be permanently broken: {stats:?}"
    );
    assert!(
        tracer
            .events_in("arm.health")
            .iter()
            .any(|e| e.label.contains("permanently broken")),
        "terminal quarantine not traced"
    );
    let pool = cluster.arm_handle.try_take().expect("ARM still running");
    let meta = pool.meta(AcceleratorId(0)).unwrap();
    assert!(
        meta.quarantines > 2,
        "the budget (2) was never exhausted: {} quarantines",
        meta.quarantines
    );
}

/// Graceful drain under load: an operator drains a healthy, busy
/// accelerator. The holding job is migrated through the same replay
/// machinery (no timeout, no data loss) and the drained device returns to
/// the pool for a later allocation.
#[test]
fn drain_migrates_job_and_returns_accelerator_to_pool() {
    let tracer = Tracer::new(65536);
    // ARM 0, CNs 1-2, daemons 3-4.
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        ..chaos_spec(2, 2, ExecMode::Functional)
    });
    cluster.set_tracer(tracer.clone());
    let arm_rank = cluster.arm_rank;
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;
    let daemons = [cluster.daemon_rank(0), cluster.daemon_rank(1)];

    let len = 16usize << 10;
    let mut expect = pattern(len, 4);
    for i in 0..8usize {
        expect[i * 512..i * 512 + 256].fill(0x60 + i as u8);
    }

    let h1 = h.clone();
    let job = sim.spawn("job", async move {
        let proc = AcProcess::new(ep1, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let ptr = session.mem_alloc(len as u64).await.unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 4)), ptr)
            .await
            .unwrap();
        for i in 0..8u64 {
            h1.delay(SimDuration::from_millis(1)).await;
            session
                .mem_set(ptr.offset(i * 512), 256, 0x60 + i as u8)
                .await
                .unwrap();
        }
        let back = session.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        proc.finish().await;
        (back.expect_bytes().to_vec(), session.failovers())
    });

    let admin = sim.spawn("admin", async move {
        let arm = ArmClient::new(ep2.clone(), arm_rank);
        h.delay(SimDuration::from_millis(4)).await;
        let evicted = arm.drain(AcceleratorId(0)).await.unwrap();
        assert_eq!(evicted, 1, "drain should evict the holder");
        // Once its daemon acks the fence, the drained accelerator is
        // grantable again.
        h.delay(SimDuration::from_millis(10)).await;
        let grants = arm.allocate(JobId(9), 1).await.unwrap();
        let got = grants[0].accel;
        arm.release_job(JobId(9)).await.unwrap();
        // Leave time for the job to finish before tearing the fabric down.
        h.delay(SimDuration::from_millis(10)).await;
        for rank in daemons {
            RemoteAccelerator::new(ep2.clone(), rank, frontend)
                .shutdown()
                .await
                .unwrap();
        }
        arm.shutdown().await;
        got
    });

    sim.run();
    let (bytes, failovers) = job.try_take().expect("job did not finish");
    assert_eq!(bytes, expect, "drain migration lost or reordered writes");
    assert_eq!(failovers, 1, "the drain never migrated the job");
    assert_eq!(
        admin.try_take(),
        Some(AcceleratorId(0)),
        "the drained accelerator never returned to the pool"
    );
    assert!(
        !tracer.events_in("arm.drain.evict").is_empty(),
        "drain eviction not traced"
    );
    assert!(
        tracer.events_in("retry.timeout").is_empty(),
        "drain must migrate the job without a single request timeout"
    );
}

/// Satellite regression: a duplicate `ReportFailure` (e.g. the client
/// retried a lost response) must replay the original replacement grant
/// instead of burning a second accelerator.
#[test]
fn duplicate_failure_reports_replay_the_same_replacement() {
    let nodes: Vec<NodeId> = (0..3).map(|i| NodeId(2 + i)).collect();
    let ranks: Vec<Rank> = (0..3).map(|i| Rank(2 + i)).collect();
    let mut pool = Pool::new(inventory(&nodes, &ranks));
    pool.set_health(HealthConfig::default());
    let now = t(1);
    let grants = pool.try_allocate_at(JobId(1), 1, Some(now)).unwrap();
    let lost = grants[0].accel;
    let first = pool.report_failure(JobId(1), lost, Some(now)).unwrap();
    let second = pool.report_failure(JobId(1), lost, Some(now)).unwrap();
    assert_eq!(
        first, second,
        "a duplicate report must replay the original grant"
    );
    assert_eq!(
        pool.free_count(),
        1,
        "the duplicate report burned a second replacement"
    );
    assert_eq!(pool.stats().broken, 1);
    pool.check_invariants();
}

#[cfg(test)]
mod convergence {
    use super::*;
    use dacc_arm::proto::GrantedAccelerator;
    use proptest::prelude::*;

    /// Drive a pool through a fixed schedule of ticks, heartbeats, lease
    /// renewals, and a fault report. `flips[k]` only controls which of the
    /// two accelerators' heartbeats lands first within tick `k`.
    fn apply_interleaving(flips: &[u8]) -> String {
        let nodes: Vec<NodeId> = (0..2).map(|i| NodeId(2 + i)).collect();
        let ranks: Vec<Rank> = (0..2).map(|i| Rank(2 + i)).collect();
        let mut pool = Pool::new(inventory(&nodes, &ranks));
        pool.set_health(HealthConfig::default());
        let mut grant: Option<GrantedAccelerator> = None;
        for (k, &flip) in flips.iter().enumerate() {
            let now = t(k as u64 + 1);
            let _ = pool.tick(now);
            let order: [usize; 2] = if flip == 0 { [0, 1] } else { [1, 0] };
            for a in order {
                let accel = AcceleratorId(a);
                // The model daemon adopts fences instantly: each beat
                // echoes the pool's current fence back.
                let fence = pool.meta(accel).unwrap().fence;
                let busy = u32::from(a == 0);
                let _ = pool.heartbeat(accel, fence, busy, now);
            }
            match k {
                3 => {
                    grant = pool
                        .try_allocate_at(JobId(1), 1, Some(now))
                        .ok()
                        .map(|mut g| g.remove(0));
                }
                9 => {
                    let _ = pool.renew_lease(JobId(1), now);
                }
                15 => {
                    if let Some(g) = grant {
                        let _ = pool.report_failure(JobId(1), g.accel, Some(now));
                    }
                }
                21 => {
                    let _ = pool.release_job(JobId(1));
                }
                _ => {}
            }
            pool.check_invariants();
        }
        pool.snapshot()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite: interleaving order of same-timestamp heartbeats
        /// never changes the final pool state — any seeded interleaving
        /// of heartbeats, renewals, and fault triggers converges to the
        /// same snapshot.
        #[test]
        fn heartbeat_interleavings_converge(flips in proptest::collection::vec(0u8..2, 1..40)) {
            let forward = apply_interleaving(&flips);
            let mirrored_flips: Vec<u8> = flips.iter().map(|f| 1 - f).collect();
            let mirrored = apply_interleaving(&mirrored_flips);
            prop_assert_eq!(forward, mirrored);
        }
    }
}
