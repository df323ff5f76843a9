//! Dynamic accelerator assignment (§III-C, Figure 3b): jobs acquire and
//! release accelerators *at runtime* as their demand changes, queueing at
//! the ARM when the pool is empty — including surviving an accelerator
//! failure without losing the compute node.
//!
//! Run with: `cargo run -p dacc-examples --bin dynamic_allocation`

use dacc_arm::state::JobId;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

fn main() {
    let mut sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let spec = ClusterSpec {
        compute_nodes: 2,
        accelerators: 2,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry);
    let arm_rank = cluster.arm_rank;
    let eps = std::mem::take(&mut cluster.cn_endpoints);
    let h = sim.handle();

    // Job 1: grabs both accelerators for a burst, then releases them.
    let ep1 = eps[0].clone();
    {
        let h = h.clone();
        sim.spawn("job1", async move {
            let proc = AcProcess::new(ep1, arm_rank, JobId(1), FrontendConfig::default());
            let accels = proc.acquire(2).await.unwrap();
            println!("[{}] job1: acquired 2 accelerators", h.now());
            h.delay(SimDuration::from_millis(5)).await; // burst phase
            let stats = proc.arm().query().await.unwrap();
            println!(
                "[{}] job1: pool during burst: free={} assigned={} queued={}",
                h.now(),
                stats.free,
                stats.assigned,
                stats.queued_requests
            );
            proc.finish().await;
            println!("[{}] job1: released everything at job end", h.now());
            drop(accels);
        });
    }

    // Job 2: arrives while the pool is empty; waits in the ARM queue, then
    // runs, then reports one accelerator broken.
    let ep2 = eps[1].clone();
    {
        let h = h.clone();
        sim.spawn("job2", async move {
            h.delay(SimDuration::from_millis(1)).await;
            let proc = AcProcess::new(ep2, arm_rank, JobId(2), FrontendConfig::default());
            println!(
                "[{}] job2: requesting 1 accelerator (pool is empty)...",
                h.now()
            );
            let accels = proc.acquire_waiting(1).await.unwrap();
            println!("[{}] job2: granted after job1 released", h.now());
            // Fault tolerance: the accelerator fails; the compute node
            // lives on, reports it, and acquires a replacement.
            let broken = accels[0].clone();
            let broken_id = dacc_arm::state::AcceleratorId(0);
            proc.arm().mark_broken(broken_id).await.ok();
            println!(
                "[{}] job2: reported accelerator broken; acquiring a replacement",
                h.now()
            );
            let replacement = proc.acquire_waiting(1).await.unwrap();
            let ptr = replacement[0].mem_alloc(4096).await.unwrap();
            replacement[0].mem_free(ptr).await.unwrap();
            println!("[{}] job2: replacement works; finishing", h.now());
            proc.finish().await;
            let stats = proc.arm().query().await.unwrap();
            println!(
                "[{}] final pool: free={} broken={}",
                h.now(),
                stats.free,
                stats.broken
            );
            for a in [&broken, &replacement[0]] {
                let _ = a.shutdown().await;
            }
            proc.arm().shutdown().await;
        });
    }

    sim.run();
    println!("done");
}
