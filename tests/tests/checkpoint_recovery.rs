//! Bounded-time recovery scenarios: device-memory checkpoints truncate the
//! failover command log, recovery restores the snapshot and replays only
//! the tail, and CRC trailers catch payloads damaged in flight.

use dacc_arm::state::JobId;
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::DEFAULT_SPAN_CAPACITY;
use dacc_tests::{chaos_spec, cluster_from, pattern};
use dacc_vgpu::kernel::{KernelArg, LaunchConfig};
use dacc_vgpu::params::ExecMode;

/// A checkpoint empties the replay log and releases every retained H2D
/// payload, without disturbing device state.
#[test]
fn checkpoint_truncates_log_and_drops_retained_payloads() {
    let tracer = Tracer::new(16384);
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 1, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;

    let len = 64usize << 10;
    let mut expect = pattern(len, 7);
    for (i, b) in expect[..128 * 8].chunks_exact_mut(8).enumerate() {
        let _ = i;
        b.copy_from_slice(&3.5f64.to_le_bytes());
    }
    expect[40_000..48_000].fill(0xCD);
    expect[50_000..51_000].fill(0x11);

    let out = sim.spawn("ckpt-job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let ptr = session.mem_alloc(len as u64).await.unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 7)), ptr)
            .await
            .unwrap();
        session
            .launch(
                "fill_f64",
                LaunchConfig::linear(1, 128),
                &[
                    KernelArg::Ptr(ptr),
                    KernelArg::U64(128),
                    KernelArg::F64(3.5),
                ],
            )
            .await
            .unwrap();
        session
            .mem_set(ptr.offset(40_000), 8_000, 0xCD)
            .await
            .unwrap();
        let before = (session.logged_ops(), session.retained_log_bytes());
        session.checkpoint().await.unwrap();
        let after = (
            session.logged_ops(),
            session.retained_log_bytes(),
            session.has_checkpoint(),
        );
        // Tail op after the checkpoint, then read the whole buffer back.
        session
            .mem_set(ptr.offset(50_000), 1_000, 0x11)
            .await
            .unwrap();
        let back = session.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        proc.finish().await;
        (before, after, session.logged_ops(), back)
    });
    sim.run();
    let (before, after, tail_ops, back) = out.try_take().expect("job did not finish");

    assert_eq!(before, (4, 64 << 10), "log should hold alloc+h2d+fill+set");
    assert_eq!(
        after,
        (0, 0, true),
        "checkpoint must truncate the log and drop retained payloads"
    );
    assert_eq!(tail_ops, 1, "only the post-checkpoint memset is logged");
    assert_eq!(
        back.expect_bytes().as_ref(),
        expect.as_slice(),
        "device state disturbed by the checkpoint"
    );
    assert!(
        !tracer.events_in("failover.checkpoint").is_empty(),
        "checkpoint not traced"
    );
}

/// The configured policy checkpoints automatically once the log outgrows
/// its op threshold — no explicit `checkpoint()` calls anywhere.
#[test]
fn automatic_policy_checkpoints_at_op_threshold() {
    let tracer = Tracer::new(16384);
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 1, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;

    let out = sim.spawn("auto-ckpt", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0).with_checkpoint_policy(CheckpointPolicy {
            every_ops: 3,
            every_bytes: 0,
        });
        let ptr = session.mem_alloc(8 << 10).await.unwrap();
        for i in 0..6u8 {
            session.mem_set(ptr, 8 << 10, i).await.unwrap();
        }
        proc.finish().await;
        (session.logged_ops(), session.has_checkpoint())
    });
    sim.run();
    let (logged, has_ckpt) = out.try_take().expect("job did not finish");
    assert!(has_ckpt, "the policy never checkpointed");
    assert!(
        logged < 3,
        "log kept growing past the policy threshold: {logged} ops"
    );
    assert!(
        tracer.events_in("failover.checkpoint").len() >= 2,
        "7 logged ops at every_ops=3 should checkpoint at least twice"
    );
}

/// Failover after a checkpoint restores the snapshot onto the replacement
/// and replays only the post-checkpoint tail; the recovered bytes are
/// exact.
#[test]
fn failover_after_checkpoint_restores_snapshot_and_replays_tail() {
    let tracer = Tracer::new(65536);
    let plane = ChaosPlane::new(17, FaultSchedule::new());
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 2, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let tele = dacc_telemetry::Telemetry::new(DEFAULT_SPAN_CAPACITY);
    cluster.set_telemetry(tele.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;

    let len = 256usize << 10;
    let mut expect = pattern(len, 3);
    for b in expect[..512 * 8].chunks_exact_mut(8) {
        b.copy_from_slice(&2.0f64.to_le_bytes());
    }
    expect[100_000..105_000].fill(0x5A);
    expect[200_000..202_000].copy_from_slice(&pattern(2_000, 9));

    let job_plane = plane.clone();
    let out = sim.spawn("restore-job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let ptr = session.mem_alloc(len as u64).await.unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 3)), ptr)
            .await
            .unwrap();
        session
            .launch(
                "fill_f64",
                LaunchConfig::linear(4, 128),
                &[
                    KernelArg::Ptr(ptr),
                    KernelArg::U64(512),
                    KernelArg::F64(2.0),
                ],
            )
            .await
            .unwrap();
        session.checkpoint().await.unwrap();
        // Two tail ops past the checkpoint...
        session
            .mem_set(ptr.offset(100_000), 5_000, 0x5A)
            .await
            .unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(2_000, 9)), ptr.offset(200_000))
            .await
            .unwrap();
        // ...then the granted accelerator (first daemon, rank 2) dies.
        job_plane.inject(Fault::kill_daemon(2));
        let back = session.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        proc.finish().await;
        (back, session.failovers())
    });
    sim.run();
    let (back, failovers) = out.try_take().expect("job did not finish");

    assert_eq!(
        back.expect_bytes().as_ref(),
        expect.as_slice(),
        "recovered state diverged from the pre-failure state"
    );
    assert!(failovers >= 1, "the session never failed over");
    assert!(plane.counters().crashes >= 1, "the daemon never crashed");
    if tele.is_enabled() {
        assert_eq!(
            tele.counter("failover.restored_bytes"),
            256 << 10,
            "the whole checkpoint should have been restored"
        );
        assert_eq!(
            tele.counter("failover.tail_replayed_ops"),
            2,
            "only the two post-checkpoint ops should replay"
        );
        assert_eq!(tele.counter("failover.checkpoints"), 1);
    }
}

/// A daemon killed under a snapshot fails the checkpoint cleanly: the
/// partial snapshot is discarded, the previous checkpoint and the full log
/// tail survive, and recovery falls back to them with exact bytes.
#[test]
fn failed_checkpoint_keeps_previous_checkpoint_and_full_log() {
    let tracer = Tracer::new(65536);
    let plane = ChaosPlane::new(23, FaultSchedule::new());
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 2, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let tele = dacc_telemetry::Telemetry::new(DEFAULT_SPAN_CAPACITY);
    cluster.set_telemetry(tele.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;

    let len = 128usize << 10;
    let mut expect = pattern(len, 5);
    expect[60_000..70_000].fill(0x77);
    expect[10_000..11_000].copy_from_slice(&pattern(1_000, 8));

    let job_plane = plane.clone();
    let out = sim.spawn("fallback-job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let ptr = session.mem_alloc(len as u64).await.unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(len, 5)), ptr)
            .await
            .unwrap();
        session.checkpoint().await.unwrap();
        // Tail ops since the good checkpoint.
        session
            .mem_set(ptr.offset(60_000), 10_000, 0x77)
            .await
            .unwrap();
        session
            .mem_cpy_h2d(&Payload::from_vec(pattern(1_000, 8)), ptr.offset(10_000))
            .await
            .unwrap();
        // The daemon dies; the second checkpoint attempt must fail without
        // touching the recovery state.
        job_plane.inject(Fault::kill_daemon(2));
        let ckpt2 = session.checkpoint().await;
        let state = (
            session.has_checkpoint(),
            session.logged_ops(),
            session.retained_log_bytes(),
        );
        let back = session.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        proc.finish().await;
        (ckpt2, state, back, session.failovers())
    });
    sim.run();
    let (ckpt2, state, back, failovers) = out.try_take().expect("job did not finish");

    assert!(ckpt2.is_err(), "checkpoint against a dead daemon succeeded");
    assert_eq!(
        state,
        (true, 2, 1_000),
        "a failed checkpoint must keep the previous checkpoint and the full tail"
    );
    assert_eq!(
        back.expect_bytes().as_ref(),
        expect.as_slice(),
        "fallback recovery diverged"
    );
    assert!(failovers >= 1, "the session never failed over");
    if tele.is_enabled() {
        assert_eq!(
            tele.counter("failover.restored_bytes"),
            128 << 10,
            "recovery should restore the previous (good) checkpoint"
        );
        assert_eq!(tele.counter("failover.tail_replayed_ops"), 2);
    }
}

/// In-flight bit flips on both directions of the data path are caught by
/// the CRC trailers and healed by block retransmission: results stay
/// byte-exact and no wrong-result completion slips through.
#[test]
fn corrupt_payloads_are_detected_and_healed_by_retransmit() {
    let tracer = Tracer::new(16384);
    // Corrupt one daemon-bound message early (hits the H2D data phase),
    // then one client-bound message later (hits the D2H data phase).
    let plane = ChaosPlane::new(
        5,
        FaultSchedule::new()
            .after_events(
                20,
                Fault::CorruptPayload {
                    src: Some(1),
                    dst: Some(2),
                    nth: 1,
                },
            )
            .after_events(
                60,
                Fault::CorruptPayload {
                    src: Some(2),
                    dst: Some(1),
                    nth: 1,
                },
            ),
    );
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 1, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let frontend = cluster.spec.frontend;
    let out = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, frontend);
        let mut roundtrips = Vec::new();
        for (i, len) in [64usize << 10, 300 << 10, 1 << 20].into_iter().enumerate() {
            let data = pattern(len, i as u8);
            let ptr = ac.mem_alloc(len as u64).await.unwrap();
            ac.mem_cpy_h2d(&Payload::from_vec(data.clone()), ptr)
                .await
                .unwrap();
            let back = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
            roundtrips.push(back.expect_bytes().to_vec() == data);
            ac.mem_free(ptr).await.unwrap();
        }
        ac.shutdown().await.unwrap();
        roundtrips
    });
    sim.run();
    let roundtrips = out.try_take().expect("transfer job did not finish");
    assert!(
        roundtrips.iter().all(|ok| *ok),
        "corrupted payload reached the application: {roundtrips:?}"
    );
    assert_eq!(
        plane.counters().corruptions,
        2,
        "both scheduled corruptions should fire: {:?}",
        plane.counters()
    );
    assert!(
        !tracer.events_in("fault.corrupt").is_empty(),
        "corruption not traced by the topology"
    );
    assert!(
        !tracer.events_in("retry.attempt").is_empty(),
        "corruption must be healed through the retry plane"
    );
}
