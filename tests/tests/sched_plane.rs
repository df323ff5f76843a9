//! Scheduler-plane integration tests: tenant quotas, gang allocation, and
//! vGPU oversubscription exercised end-to-end over the fabric — real ARM
//! server, real daemons, real epoch fencing — plus a property test of the
//! scheduler's weighted fair share. Arbitrary scheduler/pool interleavings
//! are property-tested on the ARM's own dispatch, in `dacc-arm`'s
//! `server::service` tests.

use std::cell::RefCell;
use std::rc::Rc;

use dacc_arm::health::HealthConfig;
use dacc_arm::state::{JobId, ShareConfig};
use dacc_fabric::mpi::Rank;
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sched::RejectReason;
use dacc_sim::prelude::*;
use dacc_tests::{chaos_spec, cluster_from, pattern};
use dacc_vgpu::params::ExecMode;

/// Tenant quotas ride the wire: an over-quota gang is rejected at
/// admission with a typed reason, an in-quota gang lands, and a job that
/// would push the tenant past its accelerator cap fails fast instead of
/// silently waiting.
#[test]
fn tenant_quotas_enforced_end_to_end() {
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        ..chaos_spec(1, 3, ExecMode::Functional)
    });
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;
    let daemon_ranks: Vec<Rank> = (0..3).map(|i| cluster.daemon_rank(i)).collect();
    let out = sim.spawn("tenant", async move {
        let proc = AcProcess::new(ep.clone(), arm_rank, JobId(1), frontend);
        let arm = proc.arm();
        // Tenant 5 may hold at most 2 accelerators.
        arm.set_tenant(5, 1, 0, 2, 8).await.unwrap();
        let err = arm
            .submit_job(JobId(1), 5, 3, false, false)
            .await
            .unwrap_err();
        assert_eq!(
            err,
            dacc_arm::ArmError::Rejected(RejectReason::QuotaAccels {
                requested: 3,
                quota: 2
            })
        );
        let grants = arm.submit_job(JobId(1), 5, 2, false, false).await.unwrap();
        assert_eq!(grants.len(), 2);
        // A third accelerator would breach the cap: with a free device in
        // the pool, the job still cannot start, and fails fast.
        let err = arm
            .submit_job(JobId(2), 5, 1, false, false)
            .await
            .unwrap_err();
        assert!(matches!(err, dacc_arm::ArmError::Insufficient { .. }));
        // A zero-queue tenant admits nothing at all.
        arm.set_tenant(6, 1, 0, 8, 0).await.unwrap();
        let err = arm
            .submit_job(JobId(3), 6, 1, false, false)
            .await
            .unwrap_err();
        assert_eq!(
            err,
            dacc_arm::ArmError::Rejected(RejectReason::QuotaQueue { depth: 0, quota: 0 })
        );
        arm.release_job(JobId(1)).await.unwrap();
        for r in daemon_ranks {
            RemoteAccelerator::new(ep.clone(), r, frontend)
                .shutdown()
                .await
                .unwrap();
        }
        arm.shutdown().await;
        true
    });
    sim.run();
    assert_eq!(out.try_take(), Some(true));
}

/// Gang allocation is all-or-nothing over the wire: a two-accelerator
/// gang with only one device free waits for the full set rather than
/// starting degraded.
#[test]
fn gang_waits_for_full_set() {
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        ..chaos_spec(2, 2, ExecMode::Functional)
    });
    let arm_rank = cluster.arm_rank;
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;
    let daemon_ranks: Vec<Rank> = (0..2).map(|i| cluster.daemon_rank(i)).collect();
    let h = sim.handle();
    let release_time = Rc::new(RefCell::new(SimTime::ZERO));
    {
        let h = h.clone();
        let release_time = Rc::clone(&release_time);
        sim.spawn("holder", async move {
            let proc = AcProcess::new(ep1, arm_rank, JobId(1), frontend);
            proc.arm()
                .submit_job(JobId(1), 1, 1, false, false)
                .await
                .unwrap();
            h.delay(SimDuration::from_millis(2)).await;
            *release_time.borrow_mut() = h.now();
            proc.arm().release_job(JobId(1)).await.unwrap();
        });
    }
    let out = {
        let h = h.clone();
        let release_time = Rc::clone(&release_time);
        sim.spawn("gang", async move {
            h.delay(SimDuration::from_micros(50)).await;
            let proc = AcProcess::new(ep2.clone(), arm_rank, JobId(2), frontend);
            // One device is free right now, but the gang needs two: the
            // grant must not arrive before the holder releases.
            let grants = proc
                .arm()
                .submit_job(JobId(2), 2, 2, false, true)
                .await
                .unwrap();
            assert_eq!(grants.len(), 2);
            let granted_at = h.now();
            assert!(
                granted_at >= *release_time.borrow(),
                "gang granted at {granted_at} before the holder released"
            );
            proc.arm().release_job(JobId(2)).await.unwrap();
            for r in daemon_ranks {
                RemoteAccelerator::new(ep2.clone(), r, frontend)
                    .shutdown()
                    .await
                    .unwrap();
            }
            proc.arm().shutdown().await;
            true
        })
    };
    sim.run();
    assert_eq!(out.try_take(), Some(true));
}

/// The full oversubscription protocol on one vGPU: two consenting jobs
/// share the device; the joiner's slice fences the first holder (whose
/// stale-epoch op the daemon then rejects); slice rotation re-activates
/// the first holder with a fresh grant it adopts via `set_epoch`, after
/// which its traffic lands again — and the other tenant's device memory
/// was never disturbed.
#[test]
fn oversubscription_shares_vgpu_with_epoch_fencing() {
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        health: Some(HealthConfig::default()),
        share: Some(ShareConfig::default()),
        ..chaos_spec(2, 1, ExecMode::Functional)
    });
    let arm_rank = cluster.arm_rank;
    let ep1 = cluster.cn_endpoints.remove(0);
    let ep2 = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;
    let daemon_rank = cluster.daemon_rank(0);
    let h = sim.handle();

    let first = {
        let h = h.clone();
        let ep1 = ep1.clone();
        sim.spawn("first", async move {
            let proc = AcProcess::new(ep1.clone(), arm_rank, JobId(1), frontend);
            let grants = proc
                .arm()
                .submit_job(JobId(1), 1, 1, true, false)
                .await
                .unwrap();
            let g = grants[0];
            let mut ac =
                RemoteAccelerator::new(ep1.clone(), g.daemon_rank, frontend).with_epoch(g.epoch);
            let data = pattern(4 << 10, 1);
            let ptr = ac.mem_alloc(4 << 10).await.unwrap();
            ac.mem_cpy_h2d(&Payload::from_vec(data.clone()), ptr)
                .await
                .unwrap();
            // Sleep past job 2's join (at ~1 ms) and the daemon's fence
            // adoption (next heartbeat): our epoch is now stale.
            h.delay(SimDuration::from_millis(3)).await;
            let stale = ac.mem_cpy_d2h(ptr, 4 << 10).await;
            assert!(
                matches!(stale, Err(AcError::Remote(Status::StaleEpoch))),
                "stale-epoch op must be fenced, got {stale:?}"
            );
            // Wait for rotation to hand the slice back, then adopt the
            // fresh epoch from the ARM's Slice event.
            let fresh = loop {
                proc.arm().pump_evictions().await;
                if let Some(fresh) = proc.arm().take_slice_grant(g.accel) {
                    break fresh;
                }
                h.delay(SimDuration::from_millis(1)).await;
            };
            assert!(fresh.epoch > g.epoch);
            ac.set_epoch(fresh.epoch);
            // Give the daemon a heartbeat to adopt the new fence, then
            // verify our bytes survived the co-tenant untouched.
            h.delay(SimDuration::from_millis(2)).await;
            let back = ac.mem_cpy_d2h(ptr, 4 << 10).await.unwrap();
            assert_eq!(back.expect_bytes().as_ref(), data.as_slice());
            proc.arm().release_job(JobId(1)).await.unwrap();
            (g.epoch, fresh.epoch)
        })
    };
    let out = {
        let h = h.clone();
        sim.spawn("second", async move {
            h.delay(SimDuration::from_millis(1)).await;
            let proc = AcProcess::new(ep2.clone(), arm_rank, JobId(2), frontend);
            let grants = proc
                .arm()
                .submit_job(JobId(2), 2, 1, true, false)
                .await
                .unwrap();
            let g = grants[0];
            let ac =
                RemoteAccelerator::new(ep2.clone(), g.daemon_rank, frontend).with_epoch(g.epoch);
            // Our slice is live on arrival: traffic lands immediately.
            let ptr = ac.mem_alloc(2 << 10).await.unwrap();
            ac.mem_cpy_h2d(&Payload::from_vec(pattern(2 << 10, 9)), ptr)
                .await
                .unwrap();
            h.delay(SimDuration::from_millis(12)).await;
            proc.arm().release_job(JobId(2)).await.unwrap();
            h.delay(SimDuration::from_millis(2)).await;
            RemoteAccelerator::new(ep2.clone(), daemon_rank, frontend)
                .shutdown()
                .await
                .unwrap();
            proc.arm().shutdown().await;
            g.epoch
        })
    };
    sim.run();
    let (e1, e_fresh) = first.try_take().expect("first job must finish");
    let e2 = out.try_take().expect("second job must finish");
    assert!(e2 > e1, "joiner must fence the first holder");
    assert!(e_fresh > e2, "rotation must mint a fresh epoch");
}

mod props {
    use dacc_sched::{Capacity, JobReq, Scheduler, TenantConfig, TenantId};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Weighted fair share converges for any weight pair: with both
        /// tenants backlogged on a single device, normalized service
        /// (grants / weight) stays within one virtual-time slot.
        #[test]
        fn fair_share_tracks_weights(wa in 1u32..6, wb in 1u32..6) {
            let mut s = Scheduler::new(1);
            s.set_tenant(TenantId(0), TenantConfig::weighted(wa));
            s.set_tenant(TenantId(1), TenantConfig::weighted(wb));
            let mut job = 0u64;
            for _ in 0..200 {
                for t in 0..2u32 {
                    s.submit(JobReq { job, tenant: TenantId(t), gang: 1, share_ok: false });
                    job += 1;
                }
            }
            let mut counts = [0u64; 2];
            let rounds = 40 * (wa + wb) as usize;
            for _ in 0..rounds {
                let placed = s.dispatch(Capacity { free: 1, share_slots: 0 });
                prop_assert_eq!(placed.len(), 1);
                counts[placed[0].tenant.0 as usize] += 1;
                s.released(placed[0].job, 1);
            }
            let na = counts[0] as f64 / f64::from(wa);
            let nb = counts[1] as f64 / f64::from(wb);
            prop_assert!(
                (na - nb).abs() <= 1.5,
                "normalized service diverged: {na:.2} vs {nb:.2} (weights {wa}:{wb}, counts {counts:?})"
            );
        }
    }
}
