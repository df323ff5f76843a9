//! End-to-end middleware tests: front-end ↔ daemon over the simulated
//! fabric, against a functional virtual GPU.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::fault::{FaultHook, LinkFault};
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelArg, KernelRegistry, LaunchConfig};
use dacc_vgpu::params::{ExecMode, GpuParams};

fn functional_cluster(accels: usize) -> (Sim, Cluster) {
    cluster_with(accels, ExecMode::Functional, DaemonConfig::default())
}

fn cluster_with(accels: usize, mode: ExecMode, daemon: DaemonConfig) -> (Sim, Cluster) {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: accels,
        mode,
        gpu: GpuParams::tesla_c1060(),
        daemon,
        ..ClusterSpec::default()
    };
    let cluster = build_cluster(&sim, spec, registry);
    (sim, cluster)
}

fn test_pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

#[test]
fn listing2_alloc_copy_kernel_copy_free() {
    // The paper's Listing 2, end to end: allocate, H2D, kernel (three-step),
    // D2H, free — on a remote accelerator.
    let (mut sim, mut cluster) = functional_cluster(1);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let arm_rank = cluster.arm_rank;
    let ep = cns.remove(0);
    use dacc_arm::state::JobId;

    let result = sim.spawn("app", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), FrontendConfig::default());
        let accels = proc.acquire(1).await.unwrap();
        let ac = &accels[0];

        let n = 1000usize;
        let ptr = ac.mem_alloc((n * 8) as u64).await.unwrap();

        // acKernelCreate / acKernelSetArgs / acKernelRun.
        ac.kernel_create("fill_f64").await.unwrap();
        ac.kernel_set_args(&[
            KernelArg::Ptr(ptr),
            KernelArg::U64(n as u64),
            KernelArg::F64(2.5),
        ])
        .await
        .unwrap();
        ac.kernel_run(LaunchConfig::linear(4, 256)).await.unwrap();

        let back = ac.mem_cpy_d2h(ptr, (n * 8) as u64).await.unwrap();
        ac.mem_free(ptr).await.unwrap();
        let released = proc.finish().await;
        ac.shutdown().await.unwrap();
        proc.arm().shutdown().await;
        (back, released)
    });
    let out = sim.run();
    let (payload, released) = result.try_take().expect("app did not finish");
    assert_eq!(released, 1);
    let bytes = payload.expect_bytes();
    let vals: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(vals, vec![2.5; 1000]);
    // After shutdown nothing is left parked: ARM, daemon and app all exited,
    // and endpoints have no progress task of their own.
    assert_eq!(
        out.pending_tasks,
        0,
        "unexpected pending tasks: {:?}",
        sim.pending_task_names()
    );
}

#[test]
fn h2d_roundtrip_byte_exact_across_protocols() {
    for protocol in [
        TransferProtocol::Naive,
        TransferProtocol::Pipeline { block: 4 << 10 },
        TransferProtocol::Pipeline { block: 64 << 10 },
        TransferProtocol::h2d_default(),
    ] {
        for len in [1usize, 100, 4096, 65_537, 300_000] {
            let (mut sim, mut cluster) = functional_cluster(1);
            let mut cns = std::mem::take(&mut cluster.cn_endpoints);
            let ep = cns.remove(0);
            let daemon = cluster.daemon_rank(0);
            let data = test_pattern(len);
            let expect = data.clone();

            let cfg = FrontendConfig {
                h2d: protocol,
                d2h: protocol,
                ..FrontendConfig::default()
            };
            let result = sim.spawn("app", async move {
                let ac = RemoteAccelerator::new(ep, daemon, cfg);
                let ptr = ac.mem_alloc(len as u64).await.unwrap();
                ac.mem_cpy_h2d(&Payload::from_vec(data), ptr).await.unwrap();
                let back = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
                ac.shutdown().await.unwrap();
                back
            });
            sim.run();
            let back = result.try_take().expect("transfer did not finish");
            assert_eq!(
                back.expect_bytes().as_ref(),
                expect.as_slice(),
                "corruption with {protocol:?} len {len}"
            );
        }
    }
}

#[test]
fn zero_length_copies_are_noops() {
    let (mut sim, mut cluster) = functional_cluster(1);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let ep = cns.remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let ptr = ac.mem_alloc(16).await.unwrap();
        ac.mem_cpy_h2d(&Payload::empty(), ptr).await.unwrap();
        let back = ac.mem_cpy_d2h(ptr, 0).await.unwrap();
        ac.shutdown().await.unwrap();
        back.len()
    });
    sim.run();
    assert_eq!(result.try_take(), Some(0));
}

#[test]
fn remote_errors_surface_with_status() {
    let (mut sim, mut cluster) = functional_cluster(1);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let ep = cns.remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        // OOM: C1060 has 4 GiB.
        let oom = ac.mem_alloc(64 << 30).await.unwrap_err();
        // Invalid free.
        let bad_free = ac
            .mem_free(dacc_vgpu::memory::DevicePtr(12345))
            .await
            .unwrap_err();
        // Unknown kernel.
        let bad_kernel = ac.kernel_create("does_not_exist").await.unwrap_err();
        // Run without create.
        let no_bind = ac.kernel_run(LaunchConfig::default()).await.unwrap_err();
        // Copy to invalid pointer: daemon must drain data and answer.
        let bad_copy = ac
            .mem_cpy_h2d(
                &Payload::from_vec(vec![0; 100_000]),
                dacc_vgpu::memory::DevicePtr(999),
            )
            .await
            .unwrap_err();
        // The daemon is still healthy afterwards.
        let ptr = ac.mem_alloc(64).await.unwrap();
        ac.mem_free(ptr).await.unwrap();
        ac.shutdown().await.unwrap();
        (oom, bad_free, bad_kernel, no_bind, bad_copy)
    });
    sim.run();
    let (oom, bad_free, bad_kernel, no_bind, bad_copy) = result.try_take().unwrap();
    assert_eq!(oom, AcError::Remote(Status::OutOfMemory));
    assert_eq!(bad_free, AcError::Remote(Status::InvalidPointer));
    assert_eq!(bad_kernel, AcError::Remote(Status::UnknownKernel));
    assert_eq!(no_bind, AcError::Remote(Status::NoKernelBound));
    assert_eq!(bad_copy, AcError::Remote(Status::InvalidPointer));
}

/// A framed `fill_f64` launch whose `n` overruns its 2 KiB buffer by far
/// more than host memory answers `OutOfBounds` instead of materialising
/// `n` doubles (`1 << 40` of them would abort the process on the
/// allocation, `1 << 62` on a capacity overflow), and the daemon serves
/// the requests after it.
#[test]
fn a_wire_sized_fill_is_out_of_bounds_and_the_daemon_serves_on() {
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    // Framed, with a timeout longer than the kernels' modelled cost (the
    // cost model charges for all `n` elements before the body runs).
    let frontend = FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_secs(1 << 32),
            ..RetryPolicy::default()
        }),
        ..FrontendConfig::default()
    };
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, frontend);
        let ptr = ac.mem_alloc(2048).await.unwrap();
        let cfg = LaunchConfig::linear(1, 256);
        let fill = |n| [KernelArg::Ptr(ptr), KernelArg::U64(n), KernelArg::F64(1.5)];
        let mut errs = Vec::new();
        for n in [1 << 40, 1 << 62] {
            errs.push(ac.launch("fill_f64", cfg, &fill(n)).await.unwrap_err());
        }
        ac.launch("fill_f64", cfg, &fill(256)).await.unwrap();
        let back = ac.mem_cpy_d2h(ptr, 2048).await.unwrap();
        ac.shutdown().await.unwrap();
        (errs, back)
    });
    sim.run();
    let (errs, back) = result.try_take().unwrap();
    assert_eq!(errs, vec![AcError::Remote(Status::OutOfBounds); 2]);
    let want: Vec<u8> = (0..256).flat_map(|_| 1.5f64.to_le_bytes()).collect();
    assert_eq!(back.to_bytes().as_ref(), &want[..]);
}

/// A launch with fewer arguments than its kernel reads, fused or through
/// `kernel_set_args`, is answered `BadArgs` before the kernel's cost model
/// indexes them (it used to panic the daemon's process), and the daemon
/// serves the requests after it.
#[test]
fn a_launch_with_too_few_arguments_is_bad_args_and_the_daemon_serves_on() {
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let ptr = ac.mem_alloc(2048).await.unwrap();
        let cfg = LaunchConfig::linear(1, 256);
        let mut errs = vec![ac.launch("fill_f64", cfg, &[]).await.unwrap_err()];
        ac.kernel_create("daxpy").await.unwrap();
        ac.kernel_set_args(&[KernelArg::Ptr(ptr)]).await.unwrap();
        errs.push(ac.kernel_run(cfg).await.unwrap_err());
        let fill = [
            KernelArg::Ptr(ptr),
            KernelArg::U64(256),
            KernelArg::F64(0.5),
        ];
        ac.launch("fill_f64", cfg, &fill).await.unwrap();
        let back = ac.mem_cpy_d2h(ptr, 2048).await.unwrap();
        ac.shutdown().await.unwrap();
        (errs, back)
    });
    sim.run();
    let (errs, back) = result.try_take().unwrap();
    assert_eq!(errs, vec![AcError::Remote(Status::BadArgs); 2]);
    let want: Vec<u8> = (0..256).flat_map(|_| 0.5f64.to_le_bytes()).collect();
    assert_eq!(back.to_bytes().as_ref(), &want[..]);
}

#[test]
fn device_to_device_streams_between_daemons() {
    let (mut sim, mut cluster) = functional_cluster(2);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let ep = cns.remove(0);
    let d0 = cluster.daemon_rank(0);
    let d1 = cluster.daemon_rank(1);
    let data = test_pattern(700_000);
    let expect = data.clone();
    let result = sim.spawn("app", async move {
        let a = RemoteAccelerator::new(ep.clone(), d0, FrontendConfig::default());
        let b = RemoteAccelerator::new(ep, d1, FrontendConfig::default());
        let pa = a.mem_alloc(700_000).await.unwrap();
        let pb = b.mem_alloc(700_000).await.unwrap();
        a.mem_cpy_h2d(&Payload::from_vec(data), pa).await.unwrap();
        device_to_device(&a, pa, &b, pb, 700_000).await.unwrap();
        let back = b.mem_cpy_d2h(pb, 700_000).await.unwrap();
        a.shutdown().await.unwrap();
        b.shutdown().await.unwrap();
        back
    });
    sim.run();
    let back = result.try_take().expect("d2d did not finish");
    assert_eq!(back.expect_bytes().as_ref(), expect.as_slice());
}

#[test]
fn d2d_bypasses_compute_node_nic() {
    // The whole point of direct AC↔AC transfers: the CN's NIC carries only
    // control messages, not the payload.
    let (mut sim, mut cluster) = functional_cluster(2);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let ep = cns.remove(0);
    let cn_node = cluster.cn_node(0);
    let d0 = cluster.daemon_rank(0);
    let d1 = cluster.daemon_rank(1);
    let fabric = cluster.fabric.clone();
    let len = 1u64 << 20;
    let result = sim.spawn("app", async move {
        let a = RemoteAccelerator::new(ep.clone(), d0, FrontendConfig::default());
        let b = RemoteAccelerator::new(ep, d1, FrontendConfig::default());
        let pa = a.mem_alloc(len).await.unwrap();
        let pb = b.mem_alloc(len).await.unwrap();
        a.mem_cpy_h2d(&Payload::from_vec(vec![7; len as usize]), pa)
            .await
            .unwrap();
        let tx_before = fabric.topology().nic_stats(cn_node).tx_bytes;
        device_to_device(&a, pa, &b, pb, len).await.unwrap();
        let tx_after = fabric.topology().nic_stats(cn_node).tx_bytes;
        a.shutdown().await.unwrap();
        b.shutdown().await.unwrap();
        tx_after - tx_before
    });
    sim.run();
    let cn_tx_delta = result.try_take().unwrap();
    assert!(
        cn_tx_delta < 1024,
        "CN sent {cn_tx_delta} bytes during a D2D transfer (should be control only)"
    );
}

#[test]
fn naive_needs_full_buffer_pipeline_does_not() {
    // §V.A: the naive protocol requires a host buffer of the full message
    // size; the pipeline's footprint is independent of message size.
    let run = |protocol: TransferProtocol| -> DaemonStats {
        let (mut sim, mut cluster) = functional_cluster(1);
        let mut cns = std::mem::take(&mut cluster.cn_endpoints);
        let ep = cns.remove(0);
        let daemon = cluster.daemon_rank(0);
        let cfg = FrontendConfig {
            h2d: protocol,
            ..FrontendConfig::default()
        };
        let daemon_handle = cluster.daemon_handles.remove(0);
        sim.spawn("app", async move {
            let ac = RemoteAccelerator::new(ep, daemon, cfg);
            let len = 8u64 << 20;
            let ptr = ac.mem_alloc(len).await.unwrap();
            ac.mem_cpy_h2d(&Payload::from_vec(vec![1; len as usize]), ptr)
                .await
                .unwrap();
            ac.shutdown().await.unwrap();
        });
        sim.run();
        daemon_handle.try_take().expect("daemon did not shut down")
    };
    let naive = run(TransferProtocol::Naive);
    let pipeline = run(TransferProtocol::Pipeline { block: 128 << 10 });
    assert_eq!(naive.host_buffer_peak, 8 << 20);
    assert!(
        pipeline.host_buffer_peak <= 4 << 20,
        "pipeline peak {} should be bounded by the pinned ring",
        pipeline.host_buffer_peak
    );
}

#[test]
fn concurrent_transfers_to_multiple_accelerators() {
    // One CN feeding 2 accelerators concurrently: transfers interleave on
    // the CN NIC but both complete correctly.
    let (mut sim, mut cluster) = functional_cluster(2);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let ep = cns.remove(0);
    let d0 = cluster.daemon_rank(0);
    let d1 = cluster.daemon_rank(1);
    let h = sim.handle();
    let result = sim.spawn("app", async move {
        let a = RemoteAccelerator::new(ep.clone(), d0, FrontendConfig::default());
        let b = RemoteAccelerator::new(ep, d1, FrontendConfig::default());
        let len = 500_000u64;
        let pa = a.mem_alloc(len).await.unwrap();
        let pb = b.mem_alloc(len).await.unwrap();
        let da = test_pattern(len as usize);
        let db: Vec<u8> = test_pattern(len as usize)
            .iter()
            .map(|b| b ^ 0xFF)
            .collect();
        let (ea, eb) = (da.clone(), db.clone());
        let ta = {
            let a = a.clone();
            h.spawn("xfer.a", async move {
                a.mem_cpy_h2d(&Payload::from_vec(da), pa).await.unwrap();
                a.mem_cpy_d2h(pa, len).await.unwrap()
            })
        };
        let tb = {
            let b = b.clone();
            h.spawn("xfer.b", async move {
                b.mem_cpy_h2d(&Payload::from_vec(db), pb).await.unwrap();
                b.mem_cpy_d2h(pb, len).await.unwrap()
            })
        };
        let ra = ta.await;
        let rb = tb.await;
        a.shutdown().await.unwrap();
        b.shutdown().await.unwrap();
        (ra, ea, rb, eb)
    });
    sim.run();
    let (ra, ea, rb, eb) = result.try_take().expect("did not finish");
    assert_eq!(ra.expect_bytes().as_ref(), ea.as_slice());
    assert_eq!(rb.expect_bytes().as_ref(), eb.as_slice());
}

#[test]
fn request_roundtrip_overhead_is_microseconds() {
    // §V.A: the per-request overhead (2 MPI messages + daemon handling) is
    // a few microseconds — negligible against multi-MiB transfers.
    let (mut sim, mut cluster) = functional_cluster(1);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let ep = cns.remove(0);
    let daemon = cluster.daemon_rank(0);
    let h = sim.handle();
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let ptr = ac.mem_alloc(64).await.unwrap();
        // Time an effectively-free operation: kernel_set_args.
        let start = h.now();
        ac.kernel_create("fill_f64").await.unwrap();
        let elapsed = h.now().since(start);
        ac.mem_free(ptr).await.unwrap();
        ac.shutdown().await.unwrap();
        elapsed
    });
    sim.run();
    let rtt = result.try_take().unwrap();
    let us = rtt.as_micros_f64();
    assert!((4.0..=20.0).contains(&us), "request RTT {us} us");
}

#[test]
fn deterministic_end_time() {
    let run_once = || {
        let (mut sim, mut cluster) = functional_cluster(1);
        let mut cns = std::mem::take(&mut cluster.cn_endpoints);
        let ep = cns.remove(0);
        let daemon = cluster.daemon_rank(0);
        sim.spawn("app", async move {
            let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
            let ptr = ac.mem_alloc(1 << 20).await.unwrap();
            ac.mem_cpy_h2d(&Payload::from_vec(vec![3; 1 << 20]), ptr)
                .await
                .unwrap();
            ac.shutdown().await.unwrap();
        });
        sim.run().time
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn mem_set_fills_device_memory() {
    let (mut sim, mut cluster) = functional_cluster(1);
    let mut cns = std::mem::take(&mut cluster.cn_endpoints);
    let ep = cns.remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let ptr = ac.mem_alloc(4096).await.unwrap();
        ac.mem_set(ptr, 4096, 0x5A).await.unwrap();
        // Partial overwrite via offset pointer.
        ac.mem_set(ptr.offset(1024), 512, 0xFF).await.unwrap();
        let back = ac.mem_cpy_d2h(ptr, 4096).await.unwrap();
        // Error path: out of bounds.
        let err = ac.mem_set(ptr, 8192, 0).await.unwrap_err();
        ac.shutdown().await.unwrap();
        (back, err)
    });
    sim.run();
    let (back, err) = result.try_take().unwrap();
    let b = back.expect_bytes();
    assert!(b[..1024].iter().all(|&x| x == 0x5A));
    assert!(b[1024..1536].iter().all(|&x| x == 0xFF));
    assert!(b[1536..].iter().all(|&x| x == 0x5A));
    assert_eq!(err, AcError::Remote(Status::OutOfBounds));
}

#[test]
fn a_held_d2h_result_keeps_its_bytes_when_the_device_overwrites_them() {
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let gpu = cluster.accel_gpus[0].clone();
    let len = 300_000;
    let data = test_pattern(len);
    let src = Payload::from_vec(data.clone());
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let ptr = ac.mem_alloc(len as u64).await.unwrap();
        ac.mem_cpy_h2d(&src, ptr).await.unwrap();
        let held = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        let before = gpu.counters().cow_bytes;
        ac.mem_set(ptr, len as u64, 0xC3).await.unwrap();
        let now = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        ac.shutdown().await.unwrap();
        (held, now, before, gpu.counters().cow_bytes)
    });
    sim.run();
    let (held, now, before, cow) = result.try_take().expect("app did not finish");
    assert_eq!(held.expect_bytes().as_ref(), data.as_slice());
    assert!(now.expect_bytes().iter().all(|&b| b == 0xC3));
    assert_eq!(before, 0);
    // Device memory holds the sender's buffer, which the held result views
    // too; the set covers all of it, so it writes fresh storage and has
    // nothing to copy.
    assert_eq!(cow, 0, "the set copies nothing");
}

#[test]
fn a_closed_loop_of_copies_copies_no_device_memory() {
    // Like the copy workloads: each result is checked and dropped before
    // the next copy, so no write ever finds a view of its allocation.
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let gpu = cluster.accel_gpus[0].clone();
    let master = Payload::from_vec(test_pattern(6 << 20));
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let region = 5 << 20;
        let ptr = ac.mem_alloc(region).await.unwrap();
        let mut good = 0;
        for (i, len) in [256 << 10, 4 << 20, 5 << 20, 256 << 10, 4 << 20]
            .into_iter()
            .enumerate()
        {
            let src = master.slice(i as u64 * 4099, len);
            ac.mem_cpy_h2d(&src, ptr).await.unwrap();
            good += u64::from(ac.mem_cpy_d2h(ptr, len).await.unwrap() == src);
            ac.mem_set(ptr, region, i as u8).await.unwrap();
        }
        ac.shutdown().await.unwrap();
        (good, gpu.counters())
    });
    sim.run();
    let (good, counters) = result.try_take().expect("app did not finish");
    assert_eq!(good, 5);
    assert!(counters.d2h_bytes > 0);
    assert_eq!(counters.cow_bytes, 0);
}

#[test]
fn daemon_trace_records_request_sequence() {
    use dacc_sim::trace::Tracer;
    let mut sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    // Hand-built two-node setup so we control the daemon spawn.
    let h = sim.handle();
    let topo = dacc_fabric::topology::Topology::new(
        &h,
        2,
        dacc_fabric::topology::FabricParams::qdr_infiniband(),
    );
    let fabric = dacc_fabric::mpi::Fabric::new(&h, topo);
    let cn = fabric.add_endpoint(dacc_fabric::topology::NodeId(0));
    let daemon_ep = fabric.add_endpoint(dacc_fabric::topology::NodeId(1));
    let gpu = dacc_vgpu::device::VirtualGpu::new(
        &h,
        "accel",
        GpuParams::tesla_c1060(),
        ExecMode::Functional,
        registry,
    );
    let tracer = Tracer::new(64);
    fabric.set_tracer(tracer.clone());
    sim.spawn("daemon", async move {
        let health = DaemonHealth::new();
        run_daemon(daemon_ep, gpu, DaemonConfig::default(), health).await
    });
    sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(cn, dacc_fabric::mpi::Rank(1), FrontendConfig::default());
        let ptr = ac.mem_alloc(1024).await.unwrap();
        ac.mem_set(ptr, 1024, 1).await.unwrap();
        ac.mem_free(ptr).await.unwrap();
        ac.shutdown().await.unwrap();
    });
    sim.run();
    let kinds: Vec<String> = tracer
        .events_in("daemon.request")
        .iter()
        .map(|e| e.label.split(' ').next().unwrap().to_owned())
        .collect();
    assert_eq!(kinds, vec!["MemAlloc", "MemSet", "MemFree", "Shutdown"]);
    // Events carry strictly nondecreasing times.
    let times: Vec<_> = tracer.events().iter().map(|e| e.time).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn stream_wire_batches_commands_with_coalesced_acks() {
    // A bare remote gets the wire fast path: commands pack into batch
    // frames, each answered by a single cumulative ack, and the result is
    // byte-identical to the synchronous sequence.
    use dacc_runtime::stream::StreamConfig;
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let daemon_handle = cluster.daemon_handles.remove(0);
    let data = test_pattern(8192);
    let mut expect = data.clone();
    for chunk in expect[4096..].chunks_exact_mut(8) {
        chunk.copy_from_slice(&2.5f64.to_le_bytes());
    }
    let result = sim.spawn("app", async move {
        let dev = AcDevice::Remote(RemoteAccelerator::new(
            ep,
            daemon,
            FrontendConfig::default(),
        ));
        let s = dev.stream(StreamConfig::default());
        assert!(s.is_wire());
        let ptr = s.mem_alloc(8192).await.unwrap();
        assert!(
            ptr.0 >= dacc_runtime::proto::STREAM_VIRT_BASE,
            "wire streams mint stream-virtual pointers"
        );
        s.mem_cpy_h2d(&Payload::from_vec(data), ptr).await.unwrap();
        // Overwrite the second half through an offset pointer — the daemon
        // must translate offsets into stream-virtual regions, kernel args
        // included.
        s.launch(
            "fill_f64",
            LaunchConfig::linear(2, 256),
            &[
                KernelArg::Ptr(ptr.offset(4096)),
                KernelArg::U64(512),
                KernelArg::F64(2.5),
            ],
        )
        .await
        .unwrap();
        // flush (not synchronize) is enough before a dependent plain D2H:
        // the batch and the read share the non-overtaking request tag.
        s.flush().await.unwrap();
        let back = dev.mem_cpy_d2h(ptr, 8192).await.unwrap();
        s.mem_free(ptr).await.unwrap();
        s.synchronize().await.unwrap();
        if let AcDevice::Remote(r) = &dev {
            r.shutdown().await.unwrap();
        }
        back
    });
    sim.run();
    let back = result.try_take().expect("stream run did not finish");
    assert_eq!(back.expect_bytes().as_ref(), expect.as_slice());
    let stats = daemon_handle.try_take().expect("daemon still running");
    assert!(stats.stream_batches >= 1, "no batch frames reached daemon");
    assert_eq!(stats.stream_cmds, 4, "alloc + h2d + launch + free");
    // 4 streamed commands collapse into batches; only the D2H and the
    // shutdown are plain round trips.
    assert!(
        stats.requests <= 2 + stats.stream_batches,
        "requests {} vs batches {}",
        stats.requests,
        stats.stream_batches
    );
}

#[test]
fn stream_eliminates_round_trips_vs_sync_sequence() {
    // The same 3×(h2d + fused launch) hot loop, synchronous vs streamed:
    // the streamed run must reach the daemon in at least 3× fewer requests.
    use dacc_runtime::stream::StreamConfig;
    let run = |streamed: bool| -> DaemonStats {
        let (mut sim, mut cluster) = functional_cluster(1);
        let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
        let daemon = cluster.daemon_rank(0);
        let daemon_handle = cluster.daemon_handles.remove(0);
        sim.spawn("app", async move {
            let dev = AcDevice::Remote(RemoteAccelerator::new(
                ep,
                daemon,
                FrontendConfig::default(),
            ));
            let s = dev.stream(StreamConfig::default());
            let args = |ptr| {
                [
                    KernelArg::Ptr(ptr),
                    KernelArg::U64(512),
                    KernelArg::F64(1.0),
                ]
            };
            if streamed {
                let ptr = s.mem_alloc(4096).await.unwrap();
                for _ in 0..3 {
                    s.mem_cpy_h2d(&Payload::from_vec(vec![9; 4096]), ptr)
                        .await
                        .unwrap();
                    s.launch("fill_f64", LaunchConfig::linear(2, 256), &args(ptr))
                        .await
                        .unwrap();
                }
                s.synchronize().await.unwrap();
            } else {
                let ptr = dev.mem_alloc(4096).await.unwrap();
                for _ in 0..3 {
                    dev.mem_cpy_h2d(&Payload::from_vec(vec![9; 4096]), ptr)
                        .await
                        .unwrap();
                    dev.launch("fill_f64", LaunchConfig::linear(2, 256), &args(ptr))
                        .await
                        .unwrap();
                }
            }
            if let AcDevice::Remote(r) = &dev {
                r.shutdown().await.unwrap();
            }
        });
        sim.run();
        daemon_handle.try_take().expect("daemon still running")
    };
    let sync = run(false);
    let streamed = run(true);
    assert_eq!(sync.kernels, streamed.kernels, "same work must execute");
    assert!(
        sync.requests as f64 / streamed.requests as f64 >= 3.0,
        "streamed {} vs sync {} requests",
        streamed.requests,
        sync.requests
    );
}

#[test]
fn fused_launch_is_one_request_legacy_is_three() {
    let run = |fused: bool| -> DaemonStats {
        let (mut sim, mut cluster) = functional_cluster(1);
        let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
        let daemon = cluster.daemon_rank(0);
        let daemon_handle = cluster.daemon_handles.remove(0);
        sim.spawn("app", async move {
            let cfg = FrontendConfig {
                fused_launch: fused,
                ..FrontendConfig::default()
            };
            let ac = RemoteAccelerator::new(ep, daemon, cfg);
            let ptr = ac.mem_alloc(1024).await.unwrap();
            ac.launch(
                "fill_f64",
                LaunchConfig::linear(1, 128),
                &[
                    KernelArg::Ptr(ptr),
                    KernelArg::U64(128),
                    KernelArg::F64(1.0),
                ],
            )
            .await
            .unwrap();
            let back = ac.mem_cpy_d2h(ptr, 8).await.unwrap();
            assert_eq!(&back.expect_bytes()[..8], 1.0f64.to_le_bytes().as_slice());
            ac.shutdown().await.unwrap();
        });
        sim.run();
        daemon_handle.try_take().expect("daemon still running")
    };
    let fused = run(true);
    let legacy = run(false);
    assert_eq!(legacy.requests - fused.requests, 2, "launch: 3 RTTs vs 1");
    assert_eq!(fused.kernels, 1);
    assert_eq!(legacy.kernels, 1);
}

#[test]
fn stream_error_is_sticky_and_surfaces_at_synchronize() {
    use dacc_runtime::stream::StreamConfig;
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let dev = AcDevice::Remote(RemoteAccelerator::new(
            ep.clone(),
            daemon,
            FrontendConfig::default(),
        ));
        let s = dev.stream(StreamConfig::default());
        let ptr = s.mem_alloc(64).await.unwrap();
        // Enqueue is fire-and-forget: an out-of-bounds fill reports Ok at
        // enqueue time...
        s.mem_set(ptr, 4096, 0xEE).await.unwrap();
        // ...later commands in the same batch still execute (their H2D
        // payloads must be consumed)...
        s.mem_set(ptr, 64, 0x11).await.unwrap();
        // ...and the first failure surfaces, latched, at synchronize.
        let e1 = s.synchronize().await.unwrap_err();
        let e2 = s.synchronize().await.unwrap_err();
        // A poisoned stream fails fast on new work.
        let e3 = s.mem_set(ptr, 1, 0).await.unwrap_err();
        // The device itself is unaffected: the command after the failed one
        // did run.
        let back = dev.mem_cpy_d2h(ptr, 64).await.unwrap();
        if let AcDevice::Remote(r) = &dev {
            r.shutdown().await.unwrap();
        }
        (e1, e2, e3, back)
    });
    sim.run();
    let (e1, e2, e3, back) = result.try_take().expect("did not finish");
    assert_eq!(e1, AcError::Remote(Status::OutOfBounds));
    assert_eq!(e2, e1, "sticky error must stay latched");
    assert_eq!(e3, e1, "enqueue after failure must fail fast");
    assert!(back.expect_bytes().iter().all(|&b| b == 0x11));
}

#[test]
fn stream_window_flow_control_bounds_inflight() {
    // A tiny window with 1-command batches: 32 commands must still all
    // execute, in order, with one ack per batch.
    use dacc_runtime::stream::StreamConfig;
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let daemon_handle = cluster.daemon_handles.remove(0);
    let result = sim.spawn("app", async move {
        let dev = AcDevice::Remote(RemoteAccelerator::new(
            ep,
            daemon,
            FrontendConfig::default(),
        ));
        let s = dev.stream(StreamConfig {
            window: 2,
            max_batch: 1,
        });
        let ptr = s.mem_alloc(32).await.unwrap();
        for i in 0..31u64 {
            // Each fill overwrites one byte; last writer wins per byte.
            s.mem_set(ptr.offset(i), 32 - i, i as u8).await.unwrap();
        }
        s.flush().await.unwrap();
        let back = dev.mem_cpy_d2h(ptr, 32).await.unwrap();
        s.synchronize().await.unwrap();
        if let AcDevice::Remote(r) = &dev {
            r.shutdown().await.unwrap();
        }
        back
    });
    sim.run();
    let back = result.try_take().expect("did not finish");
    let expect: Vec<u8> = (0..31u8).chain([30]).collect();
    assert_eq!(back.expect_bytes().as_ref(), expect.as_slice());
    let stats = daemon_handle.try_take().expect("daemon still running");
    assert_eq!(stats.stream_cmds, 32, "alloc + 31 fills");
    assert_eq!(stats.stream_batches, 32, "max_batch=1 → one frame each");
}

#[test]
fn stream_over_retry_remote_uses_direct_mode() {
    // A retry-framed remote must not take the wire fast path (op-id dedupe
    // and replay assume one request per op) — but the stream API still
    // works, deferring and executing in order.
    use dacc_runtime::stream::StreamConfig;
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let daemon_handle = cluster.daemon_handles.remove(0);
    let data = test_pattern(4096);
    let expect = data.clone();
    let result = sim.spawn("app", async move {
        let cfg = FrontendConfig {
            retry: Some(RetryPolicy::default()),
            ..FrontendConfig::default()
        };
        let dev = AcDevice::Remote(RemoteAccelerator::new(ep, daemon, cfg));
        let s = dev.stream(StreamConfig::default());
        assert!(!s.is_wire());
        let ptr = s.mem_alloc(4096).await.unwrap();
        s.mem_cpy_h2d(&Payload::from_vec(data), ptr).await.unwrap();
        let ev = s.record_event();
        s.wait_event(ev).await.unwrap();
        let back = dev.mem_cpy_d2h(ptr, 4096).await.unwrap();
        s.mem_free(ptr).await.unwrap();
        s.synchronize().await.unwrap();
        if let AcDevice::Remote(r) = &dev {
            r.shutdown().await.unwrap();
        }
        back
    });
    sim.run();
    let back = result.try_take().expect("did not finish");
    assert_eq!(back.expect_bytes().as_ref(), expect.as_slice());
    let stats = daemon_handle.try_take().expect("daemon still running");
    assert_eq!(stats.stream_batches, 0, "direct mode must not batch");
}

#[test]
fn oversized_pipeline_block_rejected_cleanly() {
    // A front-end configured with blocks larger than the daemon's pinned
    // buffers must get an error, not a daemon crash — and the daemon must
    // stay usable afterwards.
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let big_block = FrontendConfig {
            h2d: TransferProtocol::Pipeline { block: 4 << 20 }, // > 1 MiB buffer
            d2h: TransferProtocol::Pipeline { block: 4 << 20 },
            ..FrontendConfig::default()
        };
        let bad = RemoteAccelerator::new(ep.clone(), daemon, big_block);
        let ptr = bad.mem_alloc(8 << 20).await.unwrap();
        let up = bad
            .mem_cpy_h2d(&Payload::from_vec(vec![1; 8 << 20]), ptr)
            .await
            .unwrap_err();
        let down = bad.mem_cpy_d2h(ptr, 8 << 20).await.unwrap_err();
        // Same daemon, sane config: still healthy.
        let good = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        good.mem_cpy_h2d(&Payload::from_vec(vec![2; 1 << 20]), ptr)
            .await
            .unwrap();
        let back = good.mem_cpy_d2h(ptr, 4).await.unwrap();
        good.shutdown().await.unwrap();
        (up, down, back.expect_bytes()[0])
    });
    sim.run();
    let (up, down, byte) = result.try_take().expect("did not finish");
    assert_eq!(up, AcError::Remote(Status::Malformed));
    assert_eq!(down, AcError::Remote(Status::Malformed));
    assert_eq!(byte, 2);
}

/// Fabric node of the compute node and of the daemon in a one-accelerator
/// cluster (node 0 hosts the ARM).
const CN: usize = 1;
const DAEMON: usize = 2;

/// One message to damage or lose in flight: the `nth` from node `src` to
/// node `dst` that is a sealed data block (`blocks`: 1 KiB of payload or
/// more) or a control message (a request or a response: less, but not the
/// empty RTS/CTS handshakes, which are never touched).
#[derive(Clone, Copy, Debug)]
struct Hit {
    src: usize,
    dst: usize,
    blocks: bool,
    nth: u64,
    fault: LinkFault,
}

/// Applies its [`Hit`] once, counting messages from the moment it is armed.
struct HitOnce {
    hit: Option<Hit>,
    countdown: AtomicU64,
    fired: AtomicU64,
}

impl HitOnce {
    fn arm(&self) {
        let nth = self.hit.map_or(0, |h| h.nth);
        self.countdown.store(nth, Ordering::Relaxed);
    }

    fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

impl FaultHook for HitOnce {
    fn on_transmit(&self, src: usize, dst: usize, payload_bytes: u64, _: SimTime) -> LinkFault {
        let Some(hit) = self.hit else {
            return LinkFault::Deliver;
        };
        let eligible = if hit.blocks {
            payload_bytes >= 1024
        } else {
            (1..1024).contains(&payload_bytes)
        };
        if (src, dst) != (hit.src, hit.dst) || !eligible {
            return LinkFault::Deliver;
        }
        // Counts down through zero and wraps: only the `nth` call sees 1,
        // and an unarmed hook (zero) none.
        if self.countdown.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.fired.fetch_add(1, Ordering::Relaxed);
            hit.fault
        } else {
            LinkFault::Deliver
        }
    }
}

/// What [`with_fault`] observed.
struct Faulted<T> {
    out: T,
    /// Messages the hook damaged or dropped.
    fired: u64,
    tele: Telemetry,
    outcome: RunOutcome,
}

/// Run `job` against one accelerator under `retry`, with `hit` (if any)
/// applied to the wire once the job arms the hook it is handed. No hook is
/// installed without a `hit`, so such a run costs what a plain one does.
fn with_fault<T: 'static, F>(
    hit: Option<Hit>,
    retry: Option<RetryPolicy>,
    job: impl FnOnce(RemoteAccelerator, Arc<HitOnce>) -> F + 'static,
) -> Faulted<T>
where
    F: std::future::Future<Output = T> + 'static,
{
    // The front-end stops receiving an attempt it abandons, so under a
    // retry policy the daemon must be able to give up on the rest of that
    // attempt's blocks.
    let daemon = DaemonConfig {
        data_timeout: retry.map(|_| SimDuration::from_millis(5)),
        ..DaemonConfig::default()
    };
    let (mut sim, mut cluster) = cluster_with(1, ExecMode::Functional, daemon);
    let tele = Telemetry::new(dacc_telemetry::DEFAULT_SPAN_CAPACITY);
    cluster.set_telemetry(tele.clone());
    let hook = Arc::new(HitOnce {
        hit,
        countdown: AtomicU64::new(0),
        fired: AtomicU64::new(0),
    });
    if hit.is_some() {
        cluster.fabric.topology().set_fault_hook(Some(hook.clone()));
    }
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let config = FrontendConfig {
        retry,
        ..FrontendConfig::default()
    };
    let ac = RemoteAccelerator::new(ep, daemon, config);
    let out = sim.spawn("app", job(ac, hook.clone()));
    let outcome = sim.run();
    Faulted {
        out: out.try_take().expect("job did not finish"),
        fired: hook.fired(),
        tele,
        outcome,
    }
}

/// The `nth` device→host data block, corrupted in flight.
fn corrupt_d2h_block(nth: u64) -> Option<Hit> {
    Some(Hit {
        src: DAEMON,
        dst: CN,
        blocks: true,
        nth,
        fault: LinkFault::Corrupt,
    })
}

#[test]
fn d2h_with_a_corrupted_block_is_replayed_or_refused_never_partial() {
    // Four 128 KiB blocks and a short one; the third is damaged after two
    // have landed.
    let len = (512 << 10) + 5000;
    let data = test_pattern(len);
    for retry in [Some(RetryPolicy::default()), None] {
        let src = Payload::from_vec(data.clone());
        let run = with_fault(corrupt_d2h_block(3), retry, move |ac, hook| async move {
            hook.arm();
            let ptr = ac.mem_alloc(len as u64).await.unwrap();
            ac.mem_cpy_h2d(&src, ptr).await.unwrap();
            ac.mem_cpy_d2h(ptr, len as u64).await
        });
        assert_eq!(run.fired, 1, "the hook must have fired (retry: {retry:?})");
        let back = run.out;
        match retry {
            // The abandoned attempt's two good blocks are gone: the caller
            // sees the replay, whole and byte-exact, in one buffer.
            Some(_) => {
                let back = back.expect("retry heals a corrupt block");
                assert!(matches!(back, Payload::Bytes(_)));
                assert_eq!(back.expect_bytes().as_ref(), data.as_slice());
            }
            // No retransmit path: an error, not two good blocks.
            None => assert_eq!(back, Err(AcError::Remote(Status::Corrupt))),
        }
    }
}

#[test]
fn h2d_with_a_corrupted_block_is_replayed_or_refused_never_partial() {
    // The front-end seals each block when its clear-to-send arrives; the
    // third of four 128 KiB blocks and a short one is damaged after that.
    let len = (512 << 10) + 5000;
    let data = test_pattern(len);
    for retry in [Some(RetryPolicy::default()), None] {
        let src = Payload::from_vec(data.clone());
        let hit = Some(Hit {
            src: CN,
            dst: DAEMON,
            blocks: true,
            nth: 3,
            fault: LinkFault::Corrupt,
        });
        let run = with_fault(hit, retry, move |ac, hook| async move {
            let ptr = ac.mem_alloc(len as u64).await.unwrap();
            hook.arm();
            let copied = ac.mem_cpy_h2d(&src, ptr).await;
            let back = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
            (copied, back)
        });
        assert_eq!(run.fired, 1, "the hook must have fired (retry: {retry:?})");
        let (copied, back) = run.out;
        match retry {
            // The damaged attempt is replayed whole: device memory holds
            // exactly what was sent.
            Some(_) => {
                copied.expect("retry heals a corrupt block");
                assert_eq!(back.to_bytes().as_ref(), data.as_slice());
            }
            // The daemon refuses the copy rather than acknowledge it.
            None => assert_eq!(copied, Err(AcError::Remote(Status::Corrupt))),
        }
    }
}

#[test]
fn snapshot_with_a_corrupted_block_is_replayed_or_refused_never_partial() {
    // Regions of three and two blocks; the fourth block on the wire is the
    // first of the second region, after one whole region was assembled.
    let lens = [(256 << 10) + 5000, (128 << 10) + 5000];
    let data = lens.map(test_pattern);
    for retry in [Some(RetryPolicy::default()), None] {
        let src = data.clone().map(Payload::from_vec);
        let run = with_fault(corrupt_d2h_block(4), retry, move |ac, hook| async move {
            hook.arm();
            let mut regions = Vec::new();
            for p in &src {
                let ptr = ac.mem_alloc(p.len()).await.unwrap();
                ac.mem_cpy_h2d(p, ptr).await.unwrap();
                regions.push((ptr, p.len()));
            }
            ac.snapshot(&regions).await
        });
        assert_eq!(run.fired, 1, "the hook must have fired (retry: {retry:?})");
        let back = run.out;
        match retry {
            Some(_) => {
                let back = back.expect("retry heals a corrupt block");
                assert_eq!(back.len(), 2);
                for (got, want) in back.iter().zip(&data) {
                    assert!(matches!(got, Payload::Bytes(_)));
                    assert_eq!(got.expect_bytes().as_ref(), want.as_slice());
                }
            }
            None => assert_eq!(back, Err(AcError::Remote(Status::Corrupt))),
        }
    }
}

#[test]
fn timing_only_d2h_returns_its_size() {
    let (mut sim, mut cluster) = cluster_with(1, ExecMode::TimingOnly, DaemonConfig::default());
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let ptr = ac.mem_alloc(3 << 20).await.unwrap();
        // One block, and twenty-four.
        let small = ac.mem_cpy_d2h(ptr, 4096).await.unwrap();
        let large = ac.mem_cpy_d2h(ptr, 3 << 20).await.unwrap();
        ac.shutdown().await.unwrap();
        (small, large)
    });
    sim.run();
    let (small, large) = result.try_take().expect("job did not finish");
    assert!(matches!(small, Payload::Size(4096)));
    assert!(matches!(large, Payload::Size(n) if n == 3 << 20));
}

/// The operations of the front-end's one exchange loop: two without a data
/// phase, two that send block trains (one part, many) and two that receive
/// them (one region, many).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Alloc,
    Launch,
    H2d,
    D2h,
    Snapshot,
    Restore,
}

const OPS: [Op; 6] = [
    Op::Alloc,
    Op::Launch,
    Op::H2d,
    Op::D2h,
    Op::Snapshot,
    Op::Restore,
];

/// Region A holds three 128 KiB blocks of `f64`s; region B one block and a
/// short one.
const A_LEN: u64 = 384 << 10;
const B_LEN: u64 = (128 << 10) + 5000;

fn f64_pattern(len: u64) -> Vec<u8> {
    (0..len / 8)
        .flat_map(|i| (i as f64).to_le_bytes())
        .collect()
}

/// Fill two regions (unarmed), arm `hook`, run `op`, and report every byte
/// it could have touched: what it returned, then both regions read back.
/// Also reports how often the hook fired *during* `op`.
async fn run_op(ac: RemoteAccelerator, hook: Arc<HitOnce>, op: Op) -> (Vec<Vec<u8>>, u64) {
    let a = ac.mem_alloc(A_LEN).await.unwrap();
    let b = ac.mem_alloc(B_LEN).await.unwrap();
    ac.mem_cpy_h2d(&Payload::from_vec(f64_pattern(A_LEN)), a)
        .await
        .unwrap();
    ac.mem_cpy_h2d(&Payload::from_vec(test_pattern(B_LEN as usize)), b)
        .await
        .unwrap();
    let regions = [(a, A_LEN), (b, B_LEN)];
    let fresh = |len: u64| Payload::from_vec((0..len).map(|i| (i * 7 % 253) as u8).collect());
    hook.arm();
    let returned = match op {
        Op::Alloc => {
            let ptr = ac.mem_alloc(4096).await.unwrap();
            vec![ptr.0.to_le_bytes().to_vec()]
        }
        // y += 1.0 * y on region A: a second execution would double it again.
        Op::Launch => {
            let args = [
                KernelArg::Ptr(a),
                KernelArg::Ptr(a),
                KernelArg::U64(A_LEN / 8),
                KernelArg::F64(1.0),
            ];
            ac.launch("daxpy", LaunchConfig::linear(4, 256), &args)
                .await
                .unwrap();
            vec![]
        }
        Op::H2d => {
            ac.mem_cpy_h2d(&fresh(A_LEN), a).await.unwrap();
            vec![]
        }
        Op::D2h => vec![ac.mem_cpy_d2h(a, A_LEN).await.unwrap().to_bytes().to_vec()],
        Op::Snapshot => {
            let parts = ac.snapshot(&regions).await.unwrap();
            parts.iter().map(|p| p.to_bytes().to_vec()).collect()
        }
        Op::Restore => {
            ac.restore(&regions, &[fresh(A_LEN), fresh(B_LEN)])
                .await
                .unwrap();
            vec![]
        }
    };
    let fired = hook.fired();
    let mut bytes = returned;
    for (ptr, len) in regions {
        bytes.push(ac.mem_cpy_d2h(ptr, len).await.unwrap().to_bytes().to_vec());
    }
    (bytes, fired)
}

#[test]
fn every_operation_heals_one_fault_on_its_first_attempt() {
    let retry = Some(RetryPolicy::default());
    for op in OPS {
        let clean = with_fault(None, retry, move |ac, hook| run_op(ac, hook, op));
        assert_eq!(clean.tele.counter("retry.attempts"), 0, "{op:?}");
        // The data blocks of `op` travel towards the daemon or away from it.
        let (block_src, block_dst) = match op {
            Op::H2d | Op::Restore => (CN, DAEMON),
            _ => (DAEMON, CN),
        };
        let hit = |src, dst, blocks, nth, fault| Hit {
            src,
            dst,
            blocks,
            nth,
            fault,
        };
        let mut faults = vec![
            (
                "request dropped",
                hit(CN, DAEMON, false, 1, LinkFault::Drop),
            ),
            (
                "response dropped",
                hit(DAEMON, CN, false, 1, LinkFault::Drop),
            ),
        ];
        if !matches!(op, Op::Alloc | Op::Launch) {
            // The second block: one has landed before the fault.
            let (src, dst) = (block_src, block_dst);
            faults.push(("block dropped", hit(src, dst, true, 2, LinkFault::Drop)));
            faults.push((
                "block corrupted",
                hit(src, dst, true, 2, LinkFault::Corrupt),
            ));
        }
        for (what, hit) in faults {
            let run = with_fault(Some(hit), retry, move |ac, hook| run_op(ac, hook, op));
            let (bytes, fired_in_op) = &run.out;
            assert_eq!(*fired_in_op, 1, "{op:?}, {what}: the fault must hit the op");
            assert_eq!(run.fired, 1, "{op:?}, {what}");
            assert!(
                *bytes == clean.out.0,
                "{op:?}, {what}: bytes differ from the fault-free run"
            );
            if !run.tele.is_enabled() {
                continue;
            }
            assert_eq!(run.tele.counter("retry.attempts"), 1, "{op:?}, {what}");
            assert_eq!(run.tele.counter("retry.gave_up"), 0, "{op:?}, {what}");
            // An operation without a data phase whose response was lost ran:
            // its replay is answered from the dedupe cache, not run again.
            let deduped = what == "response dropped" && matches!(op, Op::Alloc | Op::Launch);
            assert_eq!(
                run.tele.counter("daemon.dedupe"),
                u64::from(deduped),
                "{op:?}, {what}"
            );
            if deduped {
                assert_eq!(
                    run.tele.span_count("daemon.execute"),
                    clean.tele.span_count("daemon.execute"),
                    "{op:?}, {what}: executed once"
                );
            }
        }
    }
}

/// Generated on the parent of the one-loop front-end (355291d) by this
/// test as 1 717: the unretried path arms no timer and sends nothing extra.
/// The block train brought it to 1 367. The run moves 38 blocks each way:
/// 4 events fewer per host→device block and 5 per device→host block (no
/// slot is ever waited for here) make 342, and the last 8 are polls the
/// block tasks spent queueing — seven DMA tasks woken to take the copy
/// engine from its queue, and a daemon awaiting its block tasks one by one
/// at the end of a train. Messages are unchanged.
const UNRETRIED_EVENTS: u64 = 1367;
const UNRETRIED_SEND_MSGS: u64 = 160;

#[test]
fn unretried_operations_cost_what_they_did_and_count_no_retry() {
    let run = with_fault(None, None, |ac, hook| async move {
        let mut all = Vec::new();
        for op in OPS {
            all.push(run_op(ac.clone(), hook.clone(), op).await.0);
        }
        all
    });
    for (op, bytes) in OPS.iter().zip(&run.out) {
        let clean = with_fault(None, Some(RetryPolicy::default()), {
            let op = *op;
            move |ac, hook| run_op(ac, hook, op)
        });
        // Allocation addresses depend on what ran before; everything else
        // must match the framed, retrying path byte for byte.
        let skip = usize::from(*op == Op::Alloc);
        assert!(bytes[skip..] == clean.out.0[skip..], "{op:?}");
    }
    assert_eq!(run.outcome.events, UNRETRIED_EVENTS);
    if run.tele.is_enabled() {
        assert_eq!(run.tele.counter("fabric.send.msgs"), UNRETRIED_SEND_MSGS);
        assert!(
            !run.tele.metrics_json().contains("\"retry."),
            "an unretried run records nothing under retry.*"
        );
    }
}

/// Events of one timing-only run: allocate, copy `blocks` blocks of
/// 128 KiB one way (`h2d`) or the other on the default pipeline, shut down.
fn events_of_copy(h2d: bool, blocks: u64) -> u64 {
    let (mut sim, mut cluster) = cluster_with(1, ExecMode::TimingOnly, DaemonConfig::default());
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let len = blocks * (128 << 10);
    sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
        let ptr = ac.mem_alloc(len).await.unwrap();
        if h2d {
            ac.mem_cpy_h2d(&Payload::size_only(len), ptr).await.unwrap();
        } else {
            ac.mem_cpy_d2h(ptr, len).await.unwrap();
        }
        ac.shutdown().await.unwrap();
    });
    sim.run().events
}

/// Events one more block adds to a pipelined copy between one front-end and
/// one daemon, measured as what an 8-block copy gains by growing to 16
/// blocks (the pinned ring of 4 is full by then, so this is the steady
/// state). Either way a block is 10: 8 for its three frames (RTS, CTS,
/// payload: end of serialization and arrival each) and the two CPU
/// overheads (`o_send`, `o_recv`), one calendar call for the daemon's
/// per-block cost and one for the copy engine's service.
///
/// Generated on the task-based daemon as 14 and 16. The block train took
/// out what a block cost in tasks: per host→device block the daemon's poll
/// on arrival and after its cost, and the DMA task's first poll and final
/// poll; per device→host block the daemon's polls after the copy and after
/// its cost, the send task's two polls, the daemon's poll on the slot that
/// send freed, and the front-end's poll on arrival.
const H2D_BLOCK_EVENTS: u64 = 10;
const D2H_BLOCK_EVENTS: u64 = 10;

#[test]
fn one_more_pipelined_block_costs_a_pinned_number_of_events() {
    for (h2d, per_block) in [(true, H2D_BLOCK_EVENTS), (false, D2H_BLOCK_EVENTS)] {
        let grown = events_of_copy(h2d, 16) - events_of_copy(h2d, 8);
        assert_eq!(grown, 8 * per_block, "h2d: {h2d}");
    }
}

/// A fault hook on a `ctrl_batch` cluster with neither a front-end retry
/// policy nor a daemon `data_timeout` is flagged with one `config.warn`
/// trace event; either safeguard, or no hook, silences it.
#[test]
fn ctrl_batch_under_faults_without_retry_warns() {
    let retry = Some(RetryPolicy::default());
    let timeout = Some(SimDuration::from_millis(20));
    for (hook, retry, data_timeout, warns) in [
        (true, None, None, 1),
        (true, retry, None, 0),
        (true, None, timeout, 0),
        (false, None, None, 0),
    ] {
        let sim = Sim::new();
        let spec = ClusterSpec {
            daemon: DaemonConfig {
                ctrl_batch: true,
                data_timeout,
                ..DaemonConfig::default()
            },
            frontend: FrontendConfig {
                retry,
                ..FrontendConfig::default()
            },
            ..ClusterSpec::default()
        };
        let cluster = build_cluster(&sim, spec, KernelRegistry::new());
        let tracer = Tracer::new(16);
        cluster.set_tracer(tracer.clone());
        cluster.set_fault_hook(hook.then(|| Arc::new(NoFaults) as Arc<dyn FaultHook>));
        assert_eq!(tracer.events_in("config.warn").len(), warns);
    }
}

/// Wait on an event recorded on another stream of the same accelerator.
/// The waiting stream waits for at most what it has enqueued itself, in
/// wire mode as in direct mode.
fn wait_on_another_streams_event(retry: Option<RetryPolicy>) {
    use dacc_runtime::stream::StreamConfig;
    let (mut sim, mut cluster) = functional_cluster(1);
    let ep = std::mem::take(&mut cluster.cn_endpoints).remove(0);
    let daemon = cluster.daemon_rank(0);
    let result = sim.spawn("app", async move {
        let cfg = FrontendConfig {
            retry,
            ..FrontendConfig::default()
        };
        let dev = AcDevice::Remote(RemoteAccelerator::new(ep, daemon, cfg));
        let (a, b) = (
            dev.stream(StreamConfig::default()),
            dev.stream(StreamConfig::default()),
        );
        assert_eq!(
            (a.is_wire(), b.is_wire()),
            (retry.is_none(), retry.is_none())
        );
        let ptr = a.mem_alloc(64).await.unwrap();
        a.mem_set(ptr, 64, 0x5A).await.unwrap();
        a.mem_set(ptr, 32, 0xA5).await.unwrap();
        let waited = b.wait_event(a.record_event()).await;
        a.synchronize().await.unwrap();
        let back = dev.mem_cpy_d2h(ptr, 64).await.unwrap();
        if let AcDevice::Remote(r) = &dev {
            r.shutdown().await.unwrap();
        }
        (waited, back)
    });
    sim.run();
    let (waited, back) = result.try_take().expect("did not finish");
    assert_eq!(waited, Ok(()));
    let expect: Vec<u8> = [[0xA5; 32], [0x5A; 32]].concat();
    assert_eq!(back.expect_bytes().as_ref(), expect.as_slice());
}

#[test]
fn wait_event_from_another_wire_stream_returns() {
    wait_on_another_streams_event(None);
}

#[test]
fn wait_event_from_another_direct_stream_returns() {
    wait_on_another_streams_event(Some(RetryPolicy::default()));
}
