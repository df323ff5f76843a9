//! Whole-system integration scenarios spanning every crate.

use dacc_arm::state::JobId;
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_tests::{full_cluster, pattern};
use dacc_vgpu::kernel::{KernelArg, LaunchConfig};
use dacc_vgpu::params::ExecMode;

#[test]
fn two_jobs_share_the_pool_concurrently() {
    // Two compute nodes run independent jobs against a shared pool of 3
    // accelerators; both complete with correct results and the pool drains
    // back to fully free.
    let (mut sim, mut cluster) = full_cluster(2, 3, ExecMode::Functional);
    let arm_rank = cluster.arm_rank;
    let eps = std::mem::take(&mut cluster.cn_endpoints);
    let mut handles = Vec::new();
    for (i, ep) in eps.into_iter().enumerate() {
        let want = (i + 1) as u32; // job0: 1 accel, job1: 2 accels
        handles.push(sim.spawn("job", async move {
            let proc = AcProcess::new(ep, arm_rank, JobId(i as u64), FrontendConfig::default());
            let accels = proc.acquire_waiting(want).await.unwrap();
            let mut sums = Vec::new();
            for (k, ac) in accels.iter().enumerate() {
                let n = 100u64;
                let ptr = ac.mem_alloc(n * 8).await.unwrap();
                ac.launch(
                    "fill_f64",
                    LaunchConfig::linear(1, 128),
                    &[
                        KernelArg::Ptr(ptr),
                        KernelArg::U64(n),
                        KernelArg::F64((i * 10 + k) as f64),
                    ],
                )
                .await
                .unwrap();
                let out = ac.mem_alloc(8).await.unwrap();
                ac.launch(
                    "reduce_sum",
                    LaunchConfig::default(),
                    &[KernelArg::Ptr(ptr), KernelArg::Ptr(out), KernelArg::U64(n)],
                )
                .await
                .unwrap();
                let back = ac.mem_cpy_d2h(out, 8).await.unwrap();
                let sum = f64::from_le_bytes(back.expect_bytes()[..8].try_into().unwrap());
                sums.push(sum);
                ac.mem_free(ptr).await.unwrap();
                ac.mem_free(out).await.unwrap();
            }
            let released = proc.finish().await;
            (sums, released, proc)
        }));
    }
    sim.run();
    let mut total_released = 0;
    for (i, h) in handles.into_iter().enumerate() {
        let (sums, released, _proc) = h.try_take().expect("job did not finish");
        total_released += released;
        for (k, sum) in sums.iter().enumerate() {
            assert_eq!(*sum, (i * 10 + k) as f64 * 100.0, "job {i} accel {k}");
        }
    }
    assert_eq!(total_released, 3);
}

#[test]
fn accelerator_failure_does_not_take_down_compute_nodes() {
    // Fault-tolerance claim of §III-A: a broken accelerator is removed from
    // the pool; the compute node carries on with a replacement.
    let (mut sim, mut cluster) = full_cluster(1, 2, ExecMode::Functional);
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let out = sim.spawn("job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), FrontendConfig::default());
        let accels = proc.acquire(1).await.unwrap();
        // The accelerator "fails": report it broken.
        proc.arm()
            .mark_broken(dacc_arm::state::AcceleratorId(0))
            .await
            .unwrap();
        // The compute node is alive and acquires the other accelerator.
        let replacement = proc.acquire(1).await.unwrap();
        let ptr = replacement[0].mem_alloc(1024).await.unwrap();
        replacement[0]
            .mem_cpy_h2d(&Payload::from_vec(vec![9u8; 1024]), ptr)
            .await
            .unwrap();
        let back = replacement[0].mem_cpy_d2h(ptr, 1024).await.unwrap();
        let stats = proc.arm().query().await.unwrap();
        proc.finish().await;
        drop(accels);
        (back.expect_bytes()[0], stats.broken)
    });
    sim.run();
    let (byte, broken) = out.try_take().expect("job did not finish");
    assert_eq!(byte, 9);
    assert_eq!(broken, 1);
}

#[test]
fn cn_nic_contention_with_three_accelerators() {
    // Feeding 3 accelerators from one compute node serializes on the CN's
    // TX wire: the aggregate time is ~3x one transfer, not ~1x.
    let (mut sim, mut cluster) = full_cluster(1, 3, ExecMode::TimingOnly);
    let ep = cluster.cn_endpoints.remove(0);
    let daemons: Vec<_> = (0..3).map(|i| cluster.daemon_rank(i)).collect();
    let h = sim.handle();
    let out = sim.spawn("fanout", async move {
        let accels: Vec<_> = daemons
            .iter()
            .map(|&d| RemoteAccelerator::new(ep.clone(), d, FrontendConfig::default()))
            .collect();
        let len = 16u64 << 20;
        let mut ptrs = Vec::new();
        for a in &accels {
            ptrs.push(a.mem_alloc(len).await.unwrap());
        }
        // One transfer alone.
        let t0 = h.now();
        accels[0]
            .mem_cpy_h2d(&Payload::size_only(len), ptrs[0])
            .await
            .unwrap();
        let single = h.now().since(t0);
        // Three concurrent transfers.
        let t1 = h.now();
        let futs: Vec<_> = accels
            .iter()
            .zip(&ptrs)
            .map(|(a, &p)| {
                let a = a.clone();
                async move { a.mem_cpy_h2d(&Payload::size_only(len), p).await.unwrap() }
            })
            .collect();
        join_all(futs).await;
        let triple = h.now().since(t1);
        for a in &accels {
            a.shutdown().await.unwrap();
        }
        (single, triple)
    });
    sim.run();
    let (single, triple) = out.try_take().expect("did not finish");
    let ratio = triple.as_secs_f64() / single.as_secs_f64();
    assert!(
        (2.5..=3.5).contains(&ratio),
        "3 concurrent transfers should take ~3x one ({ratio:.2}x: {single} vs {triple})"
    );
}

#[test]
fn whole_system_is_deterministic() {
    let run_once = || {
        let (mut sim, mut cluster) = full_cluster(2, 2, ExecMode::Functional);
        let arm_rank = cluster.arm_rank;
        let eps = std::mem::take(&mut cluster.cn_endpoints);
        for (i, ep) in eps.into_iter().enumerate() {
            sim.spawn("job", async move {
                let proc = AcProcess::new(ep, arm_rank, JobId(i as u64), FrontendConfig::default());
                let accels = proc.acquire_waiting(1).await.unwrap();
                let ac = &accels[0];
                let data = pattern(100_000, i as u8);
                let ptr = ac.mem_alloc(100_000).await.unwrap();
                ac.mem_cpy_h2d(&Payload::from_vec(data), ptr).await.unwrap();
                ac.mem_cpy_d2h(ptr, 100_000).await.unwrap();
                proc.finish().await;
            });
        }
        let out = sim.run();
        (out.time, out.events)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn mixed_static_architecture_comparison() {
    // The same workload on a node-local GPU vs a remote accelerator gives
    // identical results; the remote one pays the network.
    let (mut sim, mut cluster) = full_cluster(1, 1, ExecMode::Functional);
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    let local_gpu = cluster.local_gpus[0].clone();
    let h = sim.handle();
    let out = sim.spawn("compare", async move {
        let data = pattern(2 << 20, 5);
        let mut results = Vec::new();
        let mut times = Vec::new();
        let remote = AcDevice::Remote(RemoteAccelerator::new(
            ep,
            daemon,
            FrontendConfig::default(),
        ));
        let local = AcProcess::local_device(local_gpu);
        for dev in [&local, &remote] {
            let t0 = h.now();
            let ptr = dev.mem_alloc(2 << 20).await.unwrap();
            dev.mem_cpy_h2d(&Payload::from_vec(data.clone()), ptr)
                .await
                .unwrap();
            let back = dev.mem_cpy_d2h(ptr, 2 << 20).await.unwrap();
            dev.mem_free(ptr).await.unwrap();
            times.push(h.now().since(t0));
            results.push(back);
        }
        if let AcDevice::Remote(r) = &remote {
            r.shutdown().await.unwrap();
        }
        (results, times)
    });
    sim.run();
    let (results, times) = out.try_take().expect("did not finish");
    assert_eq!(
        results[0].expect_bytes(),
        results[1].expect_bytes(),
        "local and remote disagree"
    );
    assert!(
        times[1] > times[0],
        "remote ({}) should be slower than local ({})",
        times[1],
        times[0]
    );
}

#[test]
fn dead_daemon_detected_and_replaced() {
    // A fault-tolerance scenario the paper argues for in §III-A: an
    // accelerator daemon dies; the compute node detects it via a timed-out
    // liveness probe, reports the accelerator broken to the ARM, and
    // carries on with a replacement.
    let (mut sim, mut cluster) = full_cluster(1, 2, ExecMode::Functional);
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let out = sim.spawn("job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), FrontendConfig::default());
        let accels = proc.acquire(1).await.unwrap();
        let ac = &accels[0];
        // Healthy daemon answers the probe.
        assert!(ac.ping(SimDuration::from_millis(1)).await);
        // "Crash" the daemon (shutdown stands in for a node failure).
        ac.shutdown().await.unwrap();
        // The probe now times out: the accelerator is unreachable.
        let alive = ac.ping(SimDuration::from_millis(1)).await;
        assert!(!alive, "dead daemon answered a ping");
        // Report it broken and acquire the other accelerator.
        proc.arm()
            .mark_broken(dacc_arm::state::AcceleratorId(0))
            .await
            .unwrap();
        let replacement = proc.acquire(1).await.unwrap();
        assert!(replacement[0].ping(SimDuration::from_millis(1)).await);
        let ptr = replacement[0].mem_alloc(256).await.unwrap();
        replacement[0].mem_free(ptr).await.unwrap();
        proc.finish().await;
        true
    });
    sim.run();
    assert_eq!(out.try_take(), Some(true));
}

#[test]
fn mixed_workload_factorization_and_fluid_share_the_pool() {
    // The paper's target deployment: heterogeneous jobs with very different
    // accelerator demand sharing one pool. One compute node runs a QR on
    // two accelerators while two other nodes run a 2-rank MP2C with one
    // accelerator each — all concurrently, all functional, all verified.
    use dacc_linalg::hybrid::{dgeqrf_hybrid, HybridConfig};
    use dacc_linalg::lapack::qr_residuals;
    use dacc_linalg::matrix::{HostMatrix, Matrix};
    use dacc_mp2c::app::{run_rank, Mp2cConfig, RankCtx, Slab};
    use dacc_mp2c::particles::Particles;

    let (mut sim, mut cluster) = full_cluster(3, 4, ExecMode::Functional);
    let arm_rank = cluster.arm_rank;
    let mut eps = std::mem::take(&mut cluster.cn_endpoints);
    let h = sim.handle();

    // Job 1: hybrid QR on compute node 0 with 2 accelerators from the pool.
    let qr_ep = eps.remove(0);
    let n = 48usize;
    let a = Matrix::random(n, n, &mut SimRng::new(77));
    let a0 = a.clone();
    let qr_handle = {
        let h = h.clone();
        sim.spawn("qr-job", async move {
            let proc = AcProcess::new(qr_ep, arm_rank, JobId(1), FrontendConfig::default());
            let accels = proc.acquire_waiting(2).await.unwrap();
            let devices = AcProcess::as_devices(&accels);
            let mut host = HostMatrix::Real(a);
            let cfg = HybridConfig {
                nb: 16,
                ..HybridConfig::default()
            };
            let report = dgeqrf_hybrid(&h, &devices, &mut host, &cfg).await.unwrap();
            proc.finish().await;
            (
                match host {
                    HostMatrix::Real(m) => m,
                    _ => unreachable!(),
                },
                report.tau,
            )
        })
    };

    // Job 2: two MP2C ranks on compute nodes 1 and 2, one accelerator each.
    let slabs = Slab::decompose(8, 4, 4, 1.0, 2);
    let group: Vec<_> = eps.iter().map(|e| e.rank()).collect();
    let mut fluid_handles = Vec::new();
    for (i, ep) in eps.into_iter().enumerate() {
        let h = h.clone();
        let group = group.clone();
        let slab = slabs[i];
        let mut rng = SimRng::derive(3, &format!("mix{i}"));
        let particles =
            Particles::random(200, [slab.x_lo, 0.0, 0.0], [slab.x_hi, 4.0, 4.0], &mut rng);
        fluid_handles.push(sim.spawn("fluid-rank", async move {
            let proc = AcProcess::new(
                ep.clone(),
                arm_rank,
                JobId(10 + i as u64),
                FrontendConfig::default(),
            );
            let accels = proc.acquire_waiting(1).await.unwrap();
            let ctx = RankCtx {
                index: i,
                group,
                ep,
                device: AcDevice::Remote(accels[0].clone()),
                slab,
            };
            let cfg = Mp2cConfig {
                steps: 10,
                md_ns_per_particle: 100.0,
                ..Mp2cConfig::default()
            };
            let report = run_rank(&h, &ctx, &cfg, Some(particles), 200)
                .await
                .unwrap();
            proc.finish().await;
            report.particles.unwrap().kinetic_energy()
        }));
    }

    sim.run();
    // QR verified against the original matrix.
    let (factored, tau) = qr_handle.try_take().expect("QR job did not finish");
    let (resid, orth) = qr_residuals(&a0, &factored, &tau);
    assert!(resid < 1e-8 && orth < 1e-10, "QR corrupted by shared pool");
    // Fluid conserved its energy.
    let total_energy: f64 = fluid_handles
        .into_iter()
        .map(|h| h.try_take().expect("fluid rank did not finish"))
        .sum();
    let mut expect = 0.0;
    for (i, slab) in slabs.iter().enumerate() {
        let mut rng = SimRng::derive(3, &format!("mix{i}"));
        expect += Particles::random(200, [slab.x_lo, 0.0, 0.0], [slab.x_hi, 4.0, 4.0], &mut rng)
            .kinetic_energy();
    }
    assert!(
        (total_energy - expect).abs() / expect < 1e-10,
        "fluid energy drifted under shared-pool interference"
    );
}

#[test]
fn dropping_the_sim_frees_a_cluster_with_parked_daemons() {
    // Nothing shuts the cluster down here: daemons and the ARM stay parked
    // on their receives, each task owning handles onto the
    // fabric and its device. Every device holds the kernel registry, so a
    // kernel body that owns a sentinel is freed exactly when the last device
    // (and the buffer written below with it) is.
    use std::rc::Rc;
    let (mut sim, mut cluster) = full_cluster(1, 2, ExecMode::Functional);
    let sentinel = Rc::new(());
    let weak = Rc::downgrade(&sentinel);
    cluster.registry.register(
        "sentinel",
        0,
        |_, _, _| SimDuration::ZERO,
        move |_, _, _| {
            let _ = &sentinel;
            Ok(())
        },
    );
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let job = sim.spawn("job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), FrontendConfig::default());
        let accels = proc.acquire(2).await.unwrap();
        for ac in &accels {
            let data = Payload::from_vec(pattern(256 * 1024, 3));
            let ptr = ac.mem_alloc(data.len()).await.unwrap();
            ac.mem_cpy_h2d(&data, ptr).await.unwrap();
            ac.launch("sentinel", LaunchConfig::default(), &[])
                .await
                .unwrap();
        }
    });
    let out = sim.run();
    assert!(job.is_finished());
    assert!(out.pending_tasks > 0, "daemons and the ARM are parked");
    drop(cluster);
    assert!(
        weak.upgrade().is_some(),
        "the parked daemons still own their devices"
    );
    drop(sim);
    assert!(weak.upgrade().is_none(), "dropping the sim frees them");
}
