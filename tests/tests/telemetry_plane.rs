//! Telemetry-plane integration: spans recorded across fabric, daemon,
//! retry, and failover layers stay balanced and show the overlaps the
//! protocols are built around.

use dacc_arm::state::JobId;
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::{SpanEvent, DEFAULT_SPAN_CAPACITY};
use dacc_tests::{chaos_spec, cluster_from, full_cluster, pattern};
use dacc_vgpu::params::ExecMode;

/// Total virtual time (ns) where a span from `a` overlaps a span from `b`.
fn overlap_ns(a: &[SpanEvent], b: &[SpanEvent]) -> u64 {
    let mut total = 0;
    for x in a {
        for y in b {
            let lo = x.start.as_nanos().max(y.start.as_nanos());
            let hi = x.end.as_nanos().min(y.end.as_nanos());
            total += hi.saturating_sub(lo);
        }
    }
    total
}

/// The Fig. 5 acceptance check: a pipelined H2D copy must record
/// network-receive spans overlapping DMA spans — that concurrency is the
/// protocol's entire reason to exist.
#[test]
fn pipelined_copy_overlaps_network_recv_with_dma() {
    let (mut sim, mut cluster) = full_cluster(1, 1, ExecMode::TimingOnly);
    let tele = Telemetry::new(DEFAULT_SPAN_CAPACITY);
    if !tele.is_enabled() {
        return; // telemetry compiled out; nothing to observe
    }
    cluster.set_telemetry(tele.clone());
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let frontend = FrontendConfig {
        h2d: TransferProtocol::Pipeline { block: 256 << 10 },
        ..cluster.spec.frontend
    };
    sim.spawn("copy", async move {
        let ac = RemoteAccelerator::new(ep, daemon, frontend);
        let bytes = 4u64 << 20;
        let ptr = ac.mem_alloc(bytes).await.unwrap();
        ac.mem_cpy_h2d(&Payload::size_only(bytes), ptr)
            .await
            .unwrap();
        ac.shutdown().await.unwrap();
    });
    sim.run();

    let recvs = tele.spans_in("daemon.recv_block");
    let dmas = tele.spans_in("daemon.dma");
    assert!(recvs.len() >= 2, "expected blockwise receives: {recvs:?}");
    assert_eq!(recvs.len(), dmas.len(), "every block gets exactly one DMA");
    assert!(
        overlap_ns(&recvs, &dmas) > 0,
        "pipelined copy never overlapped network recv with DMA"
    );
    // The span bytes must account for the whole transfer.
    let dma_bytes: u64 = dmas.iter().map(|s| s.bytes.unwrap_or(0)).sum();
    assert_eq!(dma_bytes, 4 << 20);
}

/// Span begin/end balance under adversity: message drops force retries and
/// a daemon death forces a failover replay, yet every recorded span still
/// closes (end >= start), the daemon phase counts stay consistent, and the
/// retry/failover layers leave their own spans behind.
#[test]
fn spans_stay_balanced_under_retries_and_failover() {
    let tracer = Tracer::new(65536);
    // ARM=0, CN=1, daemons 2 and 3. Drop a few messages early (retries),
    // then kill the granted accelerator (failover + replay).
    let plane = ChaosPlane::new(
        7,
        FaultSchedule::new()
            .after_events(
                8,
                Fault::DropMessages {
                    src: Some(1),
                    dst: Some(2),
                    count: 2,
                },
            )
            .after_events(14, Fault::kill_daemon(2)),
    );
    let (mut sim, mut cluster) = cluster_from(chaos_spec(1, 2, ExecMode::Functional));
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let tele = Telemetry::new(DEFAULT_SPAN_CAPACITY);
    if !tele.is_enabled() {
        return;
    }
    cluster.set_telemetry(tele.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;
    let out = sim.spawn("job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let mut sessions = proc.acquire_resilient(1).await.unwrap();
        let session = sessions.remove(0);
        let dev = AcDevice::Resilient(session.clone());
        let len = 96usize << 10;
        let data = pattern(len, 9);
        let ptr = dev.mem_alloc(len as u64).await.unwrap();
        dev.mem_cpy_h2d(&Payload::from_vec(data.clone()), ptr)
            .await
            .unwrap();
        let back = dev.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        assert_eq!(back.expect_bytes(), &data[..]);
        proc.finish().await;
        session.failovers()
    });
    sim.run();
    let failovers = out.try_take().expect("job did not finish");
    assert!(failovers >= 1, "the scenario must exercise a failover");

    // Balance: every span closed, in order.
    let spans = tele.spans();
    assert!(!spans.is_empty());
    for s in &spans {
        assert!(
            s.end >= s.start,
            "unbalanced span {}/{}: {:?} > {:?}",
            s.category,
            s.label,
            s.start,
            s.end
        );
    }
    assert_eq!(tele.dropped_spans(), 0, "capacity was not supposed to fill");

    // Daemon phases: a request is decoded before it is executed, and only
    // executed requests are acked, even across the dead daemon's ruins.
    let decodes = tele.span_count("daemon.decode");
    let execs = tele.span_count("daemon.execute");
    let acks = tele.span_count("daemon.ack");
    assert!(
        decodes >= execs && execs >= acks && acks > 0,
        "phase counts out of order: decode={decodes} execute={execs} ack={acks}"
    );

    // The adversity itself is visible in the telemetry.
    assert!(tele.counter("retry.attempts") > 0);
    assert!(
        !tele.spans_in("retry.backoff").is_empty(),
        "retries must record backoff spans"
    );
    assert_eq!(tele.counter("failover.count"), failovers as u64);
    let replays = tele.spans_in("failover.replay");
    assert_eq!(replays.len(), 1, "exactly one failover replay: {replays:?}");
    assert!(
        tele.counter("failover.replayed_ops") > 0,
        "the replay must re-execute logged commands"
    );

    // The export paths digest the whole adversarial run.
    let trace = tele.chrome_trace();
    assert!(trace.contains("\"failover.replay\""));
    assert!(!tele.summary().is_empty());
}

/// ARM allocate/release spans bracket the grant lifecycle seen by jobs.
#[test]
fn arm_requests_record_allocate_and_release_spans() {
    let (mut sim, mut cluster) = full_cluster(1, 2, ExecMode::Functional);
    let tele = Telemetry::new(DEFAULT_SPAN_CAPACITY);
    if !tele.is_enabled() {
        return;
    }
    cluster.set_telemetry(tele.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;
    sim.spawn("job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let accels = proc.acquire(2).await.unwrap();
        for ac in &accels {
            ac.shutdown().await.unwrap();
        }
        proc.finish().await;
        proc.arm().shutdown().await;
    });
    sim.run();
    assert!(tele.counter("arm.allocate") >= 1);
    assert!(tele.counter("arm.release") >= 1);
    assert!(!tele.spans_in("arm.allocate").is_empty());
    assert!(tele
        .histogram("arm.client.rtt")
        .is_some_and(|h| h.count() > 0));
}

/// HA metrics: the replicated control plane reports its role, replication
/// volume, snapshot traffic, and takeover latency through the standard
/// metrics registry — and the JSON export carries all of it.
#[test]
fn arm_ha_metrics_cover_replication_and_takeover() {
    use dacc_arm::server::ArmHaConfig;

    let plane = ChaosPlane::new(
        31,
        FaultSchedule::new().at(
            SimTime::ZERO + SimDuration::from_millis(5),
            Fault::CrashArm { rank: 0 },
        ),
    );
    let ha = ArmHaSpec {
        standbys: 1,
        ha: ArmHaConfig {
            beacon_period: SimDuration::from_micros(500),
            takeover_silence: SimDuration::from_millis(2),
            snapshot_every: 4,
            replay_cost: SimDuration::from_micros(1),
            park_after: 8,
        },
        retry: dacc_arm::client::ArmRetryConfig {
            timeout: SimDuration::from_millis(3),
            attempts: 10,
            backoff: SimDuration::from_micros(200),
        },
    };
    let (mut sim, mut cluster) = cluster_from(ClusterSpec {
        arm_ha: Some(ha),
        ..chaos_spec(1, 2, ExecMode::Functional)
    });
    cluster.set_tracer(Tracer::new(4096));
    cluster.set_fault_hook(Some(plane));
    let tele = Telemetry::new(DEFAULT_SPAN_CAPACITY);
    if !tele.is_enabled() {
        return;
    }
    cluster.set_telemetry(tele.clone());
    let ep = cluster.cn_endpoints.remove(0);
    let client = cluster.arm_client(ep);
    let frontend = cluster.spec.frontend;
    let h = sim.handle();
    sim.spawn("ha-metrics-job", async move {
        let proc = AcProcess::with_client(client, JobId(1), frontend);
        // Enough replicated ops before the crash to cross a snapshot
        // boundary (snapshot_every = 4).
        for _ in 0..3 {
            let accels = proc.acquire(1).await.unwrap();
            drop(accels);
            proc.finish().await;
        }
        h.delay(SimDuration::from_millis(8)).await;
        // Post-takeover traffic served by the promoted standby.
        let accels = proc.acquire(1).await.unwrap();
        drop(accels);
        proc.finish().await;
        proc.arm().shutdown().await;
    });
    sim.run();

    // Role: the gauge's last write is the promoted standby announcing that
    // replica position 1 now acts as primary.
    assert_eq!(
        tele.gauge_value("arm.role"),
        Some(1.0),
        "role after takeover"
    );
    assert!(
        tele.counter("arm.ha.replicated_ops") >= 6,
        "log entries fanned out to the standby: {}",
        tele.counter("arm.ha.replicated_ops")
    );
    assert!(
        tele.counter("arm.ha.snapshot_bytes") > 0,
        "at least one snapshot must have shipped"
    );
    assert_eq!(tele.counter("arm.ha.takeovers"), 1, "exactly one takeover");
    let lat = tele
        .histogram("arm.ha.takeover_latency")
        .expect("takeover latency histogram missing");
    assert_eq!(lat.count(), 1, "one takeover, one latency sample");
    // The client-side failover shows up too: at least one retry was spent
    // discovering the dead primary.
    assert!(
        tele.counter("arm.client.retries") >= 1,
        "no retries counted"
    );

    // Everything above survives the metrics export.
    let json = tele.metrics_json();
    for name in [
        "arm.role",
        "arm.ha.replicated_ops",
        "arm.ha.snapshot_bytes",
        "arm.ha.takeovers",
        "arm.ha.takeover_latency",
    ] {
        assert!(json.contains(name), "{name} missing from metrics export");
    }
}
