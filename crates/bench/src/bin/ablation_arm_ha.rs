//! Ablation: ARM control-plane high availability. First the steady-state
//! cost: the same allocate/release workload runs against a single
//! unreplicated ARM and against a primary with one log-shadowing standby —
//! the delta is the pure price of log-ahead replication (framed requests,
//! per-op fan-out, periodic snapshots). Then the takeover sweep: the
//! workload builds a replication log of L entries, the primary is crashed,
//! and the run measures (a) takeover latency — silence detection plus the
//! standby's replay of its buffered backlog — and (b) end-to-end recovery,
//! crash to the first allocation served by the promoted standby. Growing L
//! 10x with snapshots disabled grows replay linearly; with snapshots on,
//! replay is bounded by the tail since the last snapshot and takeover
//! stays flat — the property the snapshot machinery exists to buy. All
//! times are virtual (simulated) seconds; the whole sweep is deterministic
//! and costs milliseconds of virtual time, so smoke runs execute it
//! unabridged and baselines pin exact values.

use std::sync::Arc;

use dacc_arm::client::ArmRetryConfig;
use dacc_arm::server::ArmHaConfig;
use dacc_arm::state::JobId;
use dacc_bench::json::{write_results, Json};
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::{Telemetry, DEFAULT_SPAN_CAPACITY};
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::ExecMode;

/// Pre-crash replication log length for the x1 rows.
const LOG_X1: usize = 60;
/// Replication tuning used by every HA row (pinned, not default, so the
/// bench is immune to future default changes).
fn bench_ha(snapshot_every: u32) -> ArmHaSpec {
    ArmHaSpec {
        standbys: 1,
        ha: ArmHaConfig {
            beacon_period: SimDuration::from_micros(500),
            takeover_silence: SimDuration::from_millis(2),
            snapshot_every,
            // Large enough that replaying hundreds of entries dominates
            // the silence threshold — the effect under measurement.
            replay_cost: SimDuration::from_micros(10),
            park_after: 8,
        },
        retry: ArmRetryConfig {
            timeout: SimDuration::from_millis(3),
            attempts: 10,
            backoff: SimDuration::from_micros(200),
        },
    }
}

fn build(ha: Option<ArmHaSpec>, fault: Option<Arc<ChaosPlane>>) -> (Sim, Cluster, Telemetry) {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: 2,
        local_gpus: false,
        mode: ExecMode::Functional,
        arm_ha: ha,
        ..ClusterSpec::default()
    };
    let cluster = build_cluster(&sim, spec, registry);
    cluster.set_fault_hook(fault.map(|p| p as Arc<dyn dacc_sim::fault::FaultHook>));
    let tele = Telemetry::new(DEFAULT_SPAN_CAPACITY);
    cluster.set_telemetry(tele.clone());
    (sim, cluster, tele)
}

/// Steady-state workload: `ops` allocate/release-all pairs, then shutdown.
/// Returns the virtual completion time.
fn run_steady(ha: Option<ArmHaSpec>, ops: usize) -> SimDuration {
    let (mut sim, mut cluster, _tele) = build(ha, None);
    let ep = cluster.cn_endpoints.remove(0);
    let client = cluster.arm_client(ep);
    let h = sim.handle();
    let out = sim.spawn("steady", async move {
        for i in 0..ops {
            let job = JobId(1 + i as u64);
            client.allocate(job, 1).await.unwrap();
            client.release_job(job).await.unwrap();
        }
        client.shutdown().await;
        h.now()
    });
    sim.run();
    out.try_take()
        .expect("steady workload did not finish")
        .since(SimTime::ZERO)
}

struct Takeover {
    /// Standby-side promotion latency: silence detection + backlog replay.
    takeover: SimDuration,
    /// Crash to first allocation served by the new primary.
    recovery: SimDuration,
    /// Bytes of snapshot state shipped before the crash.
    snapshot_bytes: u64,
}

/// Build a log of `log_ops` replicated entries, crash the primary, and
/// measure how long the standby takes to own the cluster.
fn run_takeover(log_ops: usize, snapshot_every: u32) -> Takeover {
    let plane = ChaosPlane::new(5, FaultSchedule::new());
    let (mut sim, mut cluster, tele) = build(Some(bench_ha(snapshot_every)), Some(plane.clone()));
    let ep = cluster.cn_endpoints.remove(0);
    let client = cluster.arm_client(ep);
    let h = sim.handle();
    let out = sim.spawn("takeover", async move {
        // Phase 1: grow the replication log. Lease renewals are the
        // cheapest state-touching op — one entry each.
        let grants = client.allocate(JobId(1), 1).await.unwrap();
        assert_eq!(grants.len(), 1);
        for _ in 0..log_ops {
            client.renew_lease(JobId(1)).await.unwrap();
        }
        // Phase 2: behead the primary at a known instant.
        plane.inject(Fault::CrashArm { rank: 0 });
        let crashed = h.now();
        // Phase 3: the next allocation only succeeds once the standby has
        // detected the silence, replayed its backlog, and taken over.
        client.allocate(JobId(2), 1).await.unwrap();
        let recovered = h.now();
        client.shutdown().await;
        recovered.since(crashed)
    });
    sim.run();
    let recovery = out.try_take().expect("takeover run did not finish");
    let takeover = tele
        .histogram("arm.ha.takeover_latency")
        .map(|hist| SimDuration::from_nanos(hist.mean_ns() as u64))
        .expect("no takeover recorded");
    Takeover {
        takeover,
        recovery,
        snapshot_bytes: tele.counter("arm.ha.snapshot_bytes"),
    }
}

fn main() {
    println!("# Ablation: ARM control-plane HA (replication cost + takeover scaling)");

    // Steady-state replication overhead.
    let ops = 40usize;
    let single = run_steady(None, ops);
    let replicated = run_steady(Some(bench_ha(16)), ops);
    let overhead_pct = (replicated.as_secs_f64() / single.as_secs_f64() - 1.0) * 100.0;
    println!(
        "{:>34}: {:>9.6} s",
        "single ARM (no HA)",
        single.as_secs_f64()
    );
    println!(
        "{:>34}: {:>9.6} s  ({overhead_pct:+.1}% replication overhead)",
        "primary + 1 standby",
        replicated.as_secs_f64()
    );

    // Takeover scaling: log length x1 and x10, snapshots off vs on.
    let mut rows = Vec::new();
    let mut times = std::collections::HashMap::new();
    println!("\n# Takeover latency vs replication-log length");
    for (label, log_ops, snapshot_every) in [
        ("no snapshots, log x1", LOG_X1, 0u32),
        ("no snapshots, log x10", LOG_X1 * 10, 0),
        ("snapshotted, log x1", LOG_X1, 16),
        ("snapshotted, log x10", LOG_X1 * 10, 16),
    ] {
        let t = run_takeover(log_ops, snapshot_every);
        let takeover_s = t.takeover.as_secs_f64();
        times.insert(label, takeover_s);
        println!(
            "{label:>34}: takeover {takeover_s:>9.6} s  recovery {:>9.6} s  \
             log={log_ops:<4} snapshot_bytes={}",
            t.recovery.as_secs_f64(),
            t.snapshot_bytes,
        );
        rows.push(Json::obj([
            ("case", Json::from(label)),
            ("log_ops", Json::from(log_ops)),
            ("snapshot_every", Json::from(snapshot_every)),
            ("takeover_s", Json::from(takeover_s)),
            ("recovery_s", Json::from(t.recovery.as_secs_f64())),
            ("snapshot_bytes", Json::from(t.snapshot_bytes)),
        ]));
    }
    // Snapshotted takeover at 10x the log, relative to 1x: ~1.0 means the
    // snapshot machinery bounds catch-up (the tentpole property). The
    // unsnapshotted ratio shows what it would cost without.
    let ratio = |a: &str, b: &str| match (times.get(a), times.get(b)) {
        (Some(x), Some(y)) if *y > 0.0 => x / y,
        _ => 1.0,
    };
    let snap_flat = ratio("snapshotted, log x10", "snapshotted, log x1");
    let nosnap_growth = ratio("no snapshots, log x10", "no snapshots, log x1");
    println!(
        "{:>34}: {snap_flat:>9.3}x   (unsnapshotted: {nosnap_growth:.3}x)",
        "takeover 10x/1x with snapshots"
    );

    write_results(
        "ablation_arm_ha",
        &Json::obj([
            (
                "title",
                Json::from("Ablation: ARM HA replication cost and takeover scaling"),
            ),
            ("steady_ops", Json::from(ops)),
            ("single_arm_s", Json::from(single.as_secs_f64())),
            ("replicated_s", Json::from(replicated.as_secs_f64())),
            ("replication_overhead_pct", Json::from(overhead_pct)),
            ("takeovers", Json::Arr(rows)),
            ("snapshot_flatness_10x", Json::from(snap_flat)),
            ("nosnapshot_growth_10x", Json::from(nosnap_growth)),
        ]),
    );
}
