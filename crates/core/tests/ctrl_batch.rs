//! End-to-end coverage for coalesced control messages (`ctrl_batch`).
//!
//! A wire stream with `max_batch: 1` floods the daemon with back-to-back
//! single-command batch frames; with `ctrl_batch` on, the daemon stages
//! the resulting stream acks and flushes several of them to the client in
//! one `ControlBatch` fabric message, which the fabric unbundles
//! transparently. The workload's *results* must be identical either way —
//! batching changes message counts, never semantics. The counts are read
//! from the daemon node's transmit wire, which both builds keep; the
//! telemetry counters are checked only where telemetry is compiled in.

use dacc_fabric::topology::host_tx_link;
use dacc_runtime::prelude::*;
use dacc_runtime::stream::StreamConfig;
use dacc_sim::prelude::*;
use dacc_telemetry::{Telemetry, DEFAULT_SPAN_CAPACITY};
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

/// The flood workload's device readback, telemetry, and the number of
/// messages the daemon's node sent.
struct Flood {
    back: Vec<u8>,
    tele: Telemetry,
    daemon_msgs: u64,
}

fn run_flood(ctrl_batch: bool) -> Flood {
    let mut sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: 1,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        daemon: DaemonConfig {
            ctrl_batch,
            ..DaemonConfig::default()
        },
        ..ClusterSpec::default()
    };
    let cluster = build_cluster(&sim, spec, registry);
    let tele = Telemetry::new(DEFAULT_SPAN_CAPACITY);
    cluster.set_telemetry(tele.clone());
    let mut cluster = cluster;
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let fabric = cluster.fabric.clone();

    let result = sim.spawn("app", async move {
        let dev = AcDevice::Remote(RemoteAccelerator::new(
            ep,
            daemon,
            FrontendConfig::default(),
        ));
        // max_batch 1: every command becomes its own batch frame, so many
        // frames (and their acks) are in flight inside one window.
        let s = dev.stream(StreamConfig {
            window: 64,
            max_batch: 1,
        });
        assert!(s.is_wire());
        let ptr = s.mem_alloc(4096).await.unwrap();
        for i in 0..16u8 {
            s.mem_set(ptr.offset(u64::from(i) * 256), 256, i.wrapping_mul(7))
                .await
                .unwrap();
        }
        s.synchronize().await.unwrap();
        let back = dev.mem_cpy_d2h(ptr, 4096).await.unwrap();
        s.mem_free(ptr).await.unwrap();
        s.synchronize().await.unwrap();
        if let AcDevice::Remote(r) = &dev {
            r.shutdown().await.unwrap();
        }
        back
    });
    sim.run();
    let back = result.try_take().expect("flood run did not finish");
    let daemon_tx = host_tx_link(fabric.node_of(daemon).0);
    Flood {
        back: back.expect_bytes().to_vec(),
        tele,
        daemon_msgs: fabric.topology().link_stats()[daemon_tx].msgs,
    }
}

fn expected_pattern() -> Vec<u8> {
    let mut want = vec![0u8; 4096];
    for i in 0..16u8 {
        let start = usize::from(i) * 256;
        want[start..start + 256].fill(i.wrapping_mul(7));
    }
    want
}

#[test]
fn ctrl_batching_coalesces_acks_without_changing_results() {
    let run = run_flood(true);
    assert_eq!(
        run.back,
        expected_pattern(),
        "batched run corrupted results"
    );
    let unbatched = run_flood(false).daemon_msgs;
    assert!(
        run.daemon_msgs + 2 <= unbatched,
        "flood of 18 single-command batches coalesced no acks: the daemon \
         sent {} messages batched, {unbatched} unbatched",
        run.daemon_msgs
    );
    if run.tele.is_enabled() {
        let batched = run.tele.counter("wire.ctrl_batched");
        assert!(
            batched >= 2,
            "flood of 18 single-command batches staged no coalesced acks \
             (wire.ctrl_batched = {batched})"
        );
        assert_eq!(
            run.tele.counter("fabric.ctrl.dropped"),
            0,
            "well-formed control batches must never be dropped"
        );
    }
}

#[test]
fn lone_tenant_response_is_not_starved_by_streaming_peer() {
    // Two front-ends share one daemon with batching on. Tenant A floods
    // the daemon with single-command stream frames; tenant B issues plain
    // sequential request/response calls, so each of B's next requests
    // waits on its previous (possibly staged) response. The daemon's
    // staleness bound must flush B's lone staged responses while A keeps
    // the request queue busy — if B's responses could be deferred until
    // the queue went idle, B would fall arbitrarily far behind A.
    let mut sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let fe = FrontendConfig::default();
    let spec = ClusterSpec {
        compute_nodes: 2,
        accelerators: 1,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        daemon: DaemonConfig {
            ctrl_batch: true,
            ..DaemonConfig::default()
        },
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry);
    let tele = Telemetry::new(DEFAULT_SPAN_CAPACITY);
    cluster.set_telemetry(tele.clone());
    let mut eps = std::mem::take(&mut cluster.cn_endpoints);
    let ep_b = eps.remove(1);
    let ep_a = eps.remove(0);
    let daemon = cluster.daemon_rank(0);

    let a = sim.spawn("tenant-a", async move {
        let dev = AcDevice::Remote(RemoteAccelerator::new(ep_a, daemon, fe));
        let s = dev.stream(StreamConfig {
            window: 64,
            max_batch: 1,
        });
        let ptr = s.mem_alloc(4096).await.unwrap();
        for i in 0..32u8 {
            s.mem_set(ptr.offset(u64::from(i) * 128), 128, i.wrapping_mul(3))
                .await
                .unwrap();
        }
        s.synchronize().await.unwrap();
        let back = dev.mem_cpy_d2h(ptr, 4096).await.unwrap();
        back.expect_bytes().to_vec()
    });
    let b = sim.spawn("tenant-b", async move {
        let dev = AcDevice::Remote(RemoteAccelerator::new(ep_b, daemon, fe));
        let ptr = dev.mem_alloc(1024).await.unwrap();
        for i in 0..8u8 {
            dev.mem_set(ptr.offset(u64::from(i) * 128), 128, i.wrapping_add(1))
                .await
                .unwrap();
        }
        let back = dev.mem_cpy_d2h(ptr, 1024).await.unwrap();
        back.expect_bytes().to_vec()
    });
    sim.run();

    let back_a = a.try_take().expect("streaming tenant did not finish");
    let mut want_a = vec![0u8; 4096];
    for i in 0..32u8 {
        let start = usize::from(i) * 128;
        want_a[start..start + 128].fill(i.wrapping_mul(3));
    }
    assert_eq!(back_a, want_a, "streaming tenant corrupted results");

    let back_b = b.try_take().expect(
        "request/response tenant starved: its staged responses were never \
         flushed while the streaming tenant kept the queue busy",
    );
    let mut want_b = vec![0u8; 1024];
    for i in 0..8u8 {
        let start = usize::from(i) * 128;
        want_b[start..start + 128].fill(i.wrapping_add(1));
    }
    assert_eq!(back_b, want_b, "request/response tenant corrupted results");
}

#[test]
fn ctrl_batching_off_by_default_sends_no_ctrl_frames() {
    // The repin invariant: with the knob off (the default), the wire
    // carries exactly the pre-refactor message sequence — nothing is
    // coalesced, so archived virtual-time baselines stay valid.
    let run = run_flood(false);
    assert_eq!(
        run.back,
        expected_pattern(),
        "unbatched run corrupted results"
    );
    assert_eq!(
        run.tele.counter("wire.ctrl_batched"),
        0,
        "default config must not coalesce control messages"
    );
}
