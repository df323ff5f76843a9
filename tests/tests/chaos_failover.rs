//! Fault-injection integration scenarios: the chaos plane kills traffic
//! and daemons; the retry/failover plane keeps jobs alive.

use dacc_arm::state::JobId;
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_tests::{chaos_spec, cluster_from, pattern};
use dacc_vgpu::params::ExecMode;

/// The acceptance scenario: an accelerator dies mid-QR; the front-end
/// reports it to the ARM, receives a replacement grant, replays the command
/// log, and the factorization completes with correct numerics.
#[test]
fn accelerator_death_mid_qr_fails_over_and_completes() {
    use dacc_linalg::hybrid::{dgeqrf_hybrid, HybridConfig};
    use dacc_linalg::lapack::qr_residuals;
    use dacc_linalg::matrix::{HostMatrix, Matrix};

    let tracer = Tracer::new(65536);
    // 1 compute node + 2 accelerators: ARM is rank 0, the CN rank 1, the
    // daemons ranks 2 and 3. FirstFit grants accelerator 0 (rank 2); kill
    // it mid-factorization (the whole healthy run is ~110 fabric
    // transmissions) so the command log already holds allocations, copies,
    // and kernel runs when the replacement is granted.
    let plane = ChaosPlane::new(
        11,
        FaultSchedule::new().after_events(60, Fault::kill_daemon(2)),
    );
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 2, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let frontend = cluster.spec.frontend;

    let n = 48usize;
    let a = Matrix::random(n, n, &mut SimRng::new(4242));
    let a0 = a.clone();
    let out = sim.spawn("qr-job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let devices = vec![AcDevice::Resilient(session.clone())];
        let mut host = HostMatrix::Real(a);
        let cfg = HybridConfig {
            nb: 16,
            ..HybridConfig::default()
        };
        let report = dgeqrf_hybrid(&h, &devices, &mut host, &cfg).await.unwrap();
        proc.finish().await;
        let factored = match host {
            HostMatrix::Real(m) => m,
            _ => unreachable!(),
        };
        (factored, report.tau, session.failovers())
    });
    sim.run();
    let (factored, tau, failovers) = out.try_take().expect("QR job did not finish");

    // The numerics survived the mid-flight accelerator death.
    let (resid, orth) = qr_residuals(&a0, &factored, &tau);
    assert!(
        resid < 1e-8 && orth < 1e-10,
        "QR corrupted by failover: resid={resid:e} orth={orth:e}"
    );
    // The failure actually happened and the failover is visible end-to-end.
    assert!(failovers >= 1, "the session never failed over");
    assert!(plane.counters().crashes >= 1, "the daemon never crashed");
    assert!(
        !tracer.events_in("fault.crash").is_empty(),
        "daemon crash not traced"
    );
    assert!(
        !tracer.events_in("arm.failover").is_empty(),
        "ARM failover decision not traced"
    );
    assert!(
        !tracer.events_in("retry.timeout").is_empty(),
        "the dead accelerator should have produced request timeouts"
    );
}

/// Streamed submission + failover: commands enqueued on an async stream
/// over a resilient session are deferred, so the failover command log must
/// record them in submission order — after a mid-window daemon death, the
/// replay onto the replacement accelerator has to reproduce that exact
/// order. The write set is deliberately overlapping (copy, fill, copy,
/// fill over the same region), so any reordering or loss changes bytes.
#[test]
fn streamed_submission_survives_daemon_crash_with_ordered_replay() {
    use dacc_runtime::stream::StreamConfig;

    let tracer = Tracer::new(65536);
    // Same layout as the QR scenario: ARM=0, CN=1, daemons 2 and 3; kill
    // the granted accelerator (rank 2) mid-run. The whole healthy run is
    // ~25 fabric transmissions (acquire ~6, then the drained stream ops);
    // event 14 lands inside the drain, with commands already executed on
    // the dead accelerator and more still queued behind the window.
    let plane = ChaosPlane::new(
        11,
        FaultSchedule::new().after_events(14, Fault::kill_daemon(2)),
    );
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 2, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;

    let len = 64usize << 10;
    // Host-side mirror of the submission order.
    let mut expect = pattern(len, 1);
    expect[1000..31_000].fill(0xAB);
    expect[20_000..30_000].copy_from_slice(&pattern(10_000, 2));
    expect[25_000..30_000].fill(0x33);

    let out = sim.spawn("stream-job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let dev = AcDevice::Resilient(session.clone());
        let s = dev.stream(StreamConfig {
            window: 8,
            max_batch: 4,
        });
        // Resilient sessions must get the order-preserving direct queue,
        // never wire batching (the command log assumes one op per request).
        assert!(!s.is_wire());
        let ptr = s.mem_alloc(len as u64).await.unwrap();
        s.mem_cpy_h2d(&Payload::from_vec(pattern(len, 1)), ptr)
            .await
            .unwrap();
        s.mem_set(ptr.offset(1000), 30_000, 0xAB).await.unwrap();
        s.mem_cpy_h2d(&Payload::from_vec(pattern(10_000, 2)), ptr.offset(20_000))
            .await
            .unwrap();
        s.mem_set(ptr.offset(25_000), 5_000, 0x33).await.unwrap();
        s.synchronize().await.unwrap();
        let back = dev.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        s.mem_free(ptr).await.unwrap();
        s.synchronize().await.unwrap();
        proc.finish().await;
        (back, session.failovers())
    });
    sim.run();
    let (back, failovers) = out.try_take().expect("streamed job did not finish");
    assert_eq!(
        back.expect_bytes().as_ref(),
        expect.as_slice(),
        "replayed stream diverged from submission order"
    );
    assert!(
        failovers >= 1,
        "the session never failed over: {:?}",
        plane.counters()
    );
    assert!(plane.counters().crashes >= 1, "the daemon never crashed");
    assert!(
        !tracer.events_in("arm.failover").is_empty(),
        "ARM failover decision not traced"
    );
}

/// Pure message loss (no death): counted drops on both directions of the
/// client↔daemon link are absorbed by timeouts and retries; payloads stay
/// byte-exact and no failover is needed.
#[test]
fn transfers_survive_injected_message_drops() {
    let tracer = Tracer::new(16384);
    // Drop 4 daemon-bound messages early, then 2 client-bound responses a
    // little later (events counts chosen to land inside the transfers).
    let plane = ChaosPlane::new(
        3,
        FaultSchedule::new()
            .after_events(
                20,
                Fault::DropMessages {
                    src: Some(1),
                    dst: Some(2),
                    count: 4,
                },
            )
            .after_events(
                60,
                Fault::DropMessages {
                    src: Some(2),
                    dst: Some(1),
                    count: 2,
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
        "payload corrupted under message drops: {roundtrips:?}"
    );
    assert!(
        plane.counters().drops >= 4,
        "the schedule injected fewer drops than planned: {:?}",
        plane.counters()
    );
    assert!(
        !tracer.events_in("fault.drop").is_empty(),
        "drops not traced by the topology"
    );
}

/// Satellite: determinism regression. Two chaos runs with the same seed and
/// schedule must produce the identical trace event sequence — times,
/// categories, and labels, event for event.
#[test]
fn chaos_runs_with_same_seed_are_identical() {
    fn run_once() -> Vec<TraceEvent> {
        let tracer = Tracer::new(16384);
        let plane = ChaosPlane::new(
            99,
            FaultSchedule::new()
                .after_events(
                    10,
                    Fault::DropRandomly {
                        src: None,
                        dst: None,
                        p: 0.05,
                    },
                )
                .at(
                    SimTime::ZERO + SimDuration::from_millis(1),
                    Fault::DegradeLink {
                        src: Some(1),
                        dst: Some(2),
                        factor: 3.0,
                    },
                ),
        );
        let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 1, ExecMode::Functional));
        cluster.set_tracer(tracer.clone());
        cluster.set_fault_hook(Some(plane));
        let ep = cluster.cn_endpoints.remove(0);
        let daemon = cluster.daemon_rank(0);
        let frontend = cluster.spec.frontend;
        sim.spawn("app", async move {
            let ac = RemoteAccelerator::new(ep, daemon, frontend);
            for (i, len) in [128usize << 10, 512 << 10].into_iter().enumerate() {
                let data = pattern(len, 40 + i as u8);
                let ptr = ac.mem_alloc(len as u64).await.unwrap();
                ac.mem_cpy_h2d(&Payload::from_vec(data.clone()), ptr)
                    .await
                    .unwrap();
                let back = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
                assert_eq!(back.expect_bytes(), &data[..]);
                ac.mem_free(ptr).await.unwrap();
            }
            ac.shutdown().await.unwrap();
        });
        sim.run();
        tracer.events()
    }

    let first = run_once();
    let second = run_once();
    assert!(
        !first.is_empty(),
        "chaos run recorded no trace events at all"
    );
    assert_eq!(
        first, second,
        "identical seed + schedule must reproduce the identical event sequence"
    );
}
