//! Ablation A13: the overload-robustness plane. Two sections:
//!
//! (a) **Goodput vs offered load** — closed-loop clients (one op in
//!     flight each, 20µs/request daemon, so ~4 clients saturate the
//!     daemon) sweep offered load from below saturation to a 10× storm.
//!     Each point runs twice: *plane on* (bounded run-queue + fair-share
//!     shedding with `Overloaded` fast-rejects, 200µs op deadlines
//!     stamped on the wire, capped+jittered retry backoff, token-bucket
//!     retry budget) and *plane off* (legacy unbounded queue, uncapped
//!     exponential backoff). Goodput counts ops that complete within the
//!     200µs deadline. Plane-on goodput stays at saturation through the
//!     storm; plane-off collapses — queue latency exceeds the client
//!     timeout, every timeout re-sends, and the daemon burns its whole
//!     capacity on work whose callers already gave up (retry
//!     amplification, the classic metastable failure).
//! (b) **Circuit breaker** — a transient `OverloadStorm` gray-fails one
//!     accelerator (requests stall, heartbeats stay healthy).
//!     Consecutive timeouts trip the per-accelerator breaker open,
//!     open-state calls shed without touching the wire, and a half-open
//!     probe re-closes it once the storm drains.
//!
//! Everything runs on the deterministic sim, so the goodput ratios and
//! breaker counts are exact across runs and pinned by the regression gate.

use dacc_bench::json::{write_results, Json};
use dacc_bench::smoke_truncate;
use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
use dacc_vgpu::params::{ExecMode, GpuParams};

/// Daemon service time per request: 20µs ⇒ 50k ops/s of capacity.
const SERVICE_US: u64 = 20;
/// Per-op deadline and the goodput latency bar (same value both ways, so
/// plane-on and plane-off are judged by the same yardstick).
const DEADLINE_US: u64 = 200;
/// Measurement window, in virtual milliseconds.
const WINDOW_MS: u64 = 30;
/// Clients ramp in 100µs apart and the window opens after this warmup, so
/// every point measures the same steady-state interval.
const WARMUP_MS: u64 = 5;

#[derive(Clone, Copy, Default)]
struct PointOutcome {
    /// Ops completed within the deadline during the window.
    good: u64,
    /// Ops started during the window.
    offered: u64,
    /// Ops that ended in an `Overloaded` fast-reject.
    shed: u64,
}

fn plane_on_frontend() -> FrontendConfig {
    FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_micros(150),
            max_retries: 3,
            backoff: SimDuration::from_micros(50),
            max_backoff: SimDuration::from_micros(200),
            jitter: true,
        }),
        overload: Some(OverloadConfig {
            deadline: Some(SimDuration::from_micros(DEADLINE_US)),
            retry_budget: Some(RetryBudget::default()),
            breaker: None,
        }),
        ..FrontendConfig::default()
    }
}

fn plane_off_frontend() -> FrontendConfig {
    FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_micros(300),
            max_retries: 3,
            backoff: SimDuration::from_micros(50),
            max_backoff: SimDuration::from_nanos(u64::MAX),
            jitter: false,
        }),
        overload: None,
        ..FrontendConfig::default()
    }
}

/// One sweep point: `clients` closed-loop clients against one daemon for
/// a fixed virtual window. Each client allocates during a staggered ramp,
/// then hammers `mem_set` from the common window start; errors pause 50µs
/// so a fast-failing client cannot spin without advancing virtual time.
fn run_point(clients: usize, plane_on: bool, attach: bool) -> PointOutcome {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let daemon = DaemonConfig {
        request_cost: SimDuration::from_micros(SERVICE_US),
        admission: if plane_on {
            Some(AdmissionConfig {
                max_queue: 4,
                retry_after: SimDuration::from_micros(50),
            })
        } else {
            None
        },
        ..DaemonConfig::default()
    };
    let frontend = if plane_on {
        plane_on_frontend()
    } else {
        plane_off_frontend()
    };
    let spec = ClusterSpec {
        compute_nodes: clients,
        accelerators: 1,
        local_gpus: false,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        daemon,
        frontend,
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry);
    if attach {
        dacc_bench::telem::attach(&cluster);
    }
    let daemon_rank = cluster.daemon_rank(0);
    let start = SimTime::ZERO + SimDuration::from_millis(WARMUP_MS);
    let end = start + SimDuration::from_millis(WINDOW_MS);
    let mut tasks = Vec::new();
    for i in 0..clients {
        let ep = cluster.cn_endpoints.remove(0);
        tasks.push(sim.spawn("client", async move {
            let acc = RemoteAccelerator::new(ep, daemon_rank, frontend);
            let h = acc.endpoint().fabric().handle().clone();
            h.delay(SimDuration::from_micros(100 * i as u64)).await;
            let ptr = loop {
                match acc.mem_alloc(64).await {
                    Ok(p) => break p,
                    Err(_) => h.delay(SimDuration::from_micros(100)).await,
                }
            };
            h.delay(start.saturating_since(h.now())).await;
            let mut out = PointOutcome::default();
            while h.now() < end {
                out.offered += 1;
                let t0 = h.now();
                match acc.mem_set(ptr, 64, i as u8).await {
                    Ok(()) => {
                        if h.now().saturating_since(t0) <= SimDuration::from_micros(DEADLINE_US) {
                            out.good += 1;
                        }
                    }
                    Err(AcError::Overloaded) => {
                        out.shed += 1;
                        h.delay(SimDuration::from_micros(50)).await;
                    }
                    Err(_) => h.delay(SimDuration::from_micros(50)).await,
                }
            }
            out
        }));
    }
    let mut sim = sim;
    sim.run();
    let mut total = PointOutcome::default();
    for t in tasks {
        let o = t.try_take().expect("client never finished");
        total.good += o.good;
        total.offered += o.offered;
        total.shed += o.shed;
    }
    total
}

struct BreakerOutcome {
    stats: BreakerStats,
    /// Open-state calls shed client-side without touching the wire.
    fast_shed: u64,
    /// Virtual µs from storm onset to the first post-re-close success.
    recover_us: u64,
}

/// Gray failure: a transient storm stalls the next 10 requests 1ms each
/// while heartbeats stay healthy. The breaker (threshold 3, open 2ms)
/// must trip, shed, half-open probe, and re-close.
fn breaker_run() -> BreakerOutcome {
    let sim = Sim::new();
    let registry = KernelRegistry::new();
    register_builtin_kernels(&registry);
    let plane = ChaosPlane::new(9, FaultSchedule::new());
    let frontend = FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_micros(200),
            max_retries: 0,
            backoff: SimDuration::from_micros(100),
            ..RetryPolicy::default()
        }),
        overload: Some(OverloadConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                open_for: SimDuration::from_millis(2),
            }),
            ..OverloadConfig::default()
        }),
        ..FrontendConfig::default()
    };
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: 1,
        local_gpus: false,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        frontend,
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, registry);
    cluster.set_fault_hook(Some(plane.clone()));
    dacc_bench::telem::attach(&cluster);
    let daemon_rank = cluster.daemon_rank(0);
    let ep = cluster.cn_endpoints.remove(0);
    let inject = plane;
    let out = sim.spawn("client", async move {
        let acc = RemoteAccelerator::new(ep, daemon_rank, frontend);
        let h = acc.endpoint().fabric().handle().clone();
        let ptr = acc.mem_alloc(256).await.expect("alloc before storm");
        inject.inject(Fault::OverloadStorm {
            rank: daemon_rank.0,
            requests: 10,
            stall: SimDuration::from_millis(1),
        });
        let storm_at = h.now();
        let mut fast_shed = 0u64;
        let mut recover_us = 0u64;
        for _ in 0..400 {
            h.delay(SimDuration::from_micros(200)).await;
            match acc.mem_set(ptr, 256, 0x11).await {
                Ok(()) => {
                    if acc.breaker_stats().closed >= 1 {
                        recover_us = h.now().saturating_since(storm_at).as_nanos() / 1_000;
                        break;
                    }
                }
                Err(AcError::Overloaded) => fast_shed += 1,
                Err(_) => {}
            }
        }
        (acc.breaker_stats(), fast_shed, recover_us)
    });
    let mut sim = sim;
    sim.run();
    let (stats, fast_shed, recover_us) = out.try_take().expect("client never finished");
    BreakerOutcome {
        stats,
        fast_shed,
        recover_us,
    }
}

fn main() {
    println!("# Ablation: overload-robustness plane (deadlines, shedding, budgets, breakers)");
    let capacity_ops = WINDOW_MS * 1_000 / SERVICE_US;
    println!(
        "daemon service {SERVICE_US}µs/request, {WINDOW_MS}ms window \
         ⇒ capacity {capacity_ops} ops; goodput bar {DEADLINE_US}µs"
    );

    // (a) Goodput sweep. Order puts the two regression-pinned points first
    // so smoke runs (prefix truncation) still feed the gate: 4 clients
    // saturate the daemon, 40 clients are the 10× storm.
    let sweep = smoke_truncate(vec![4usize, 40, 1, 2, 16], 2);
    println!("\n## Goodput vs offered load (closed-loop clients, 1 daemon)");
    println!("| clients | plane on | shed | plane off |");
    println!("|---------|----------|------|-----------|");
    let mut points = Vec::new();
    for &clients in &sweep {
        let attach = clients == 40;
        let on = run_point(clients, true, attach);
        let off = run_point(clients, false, false);
        println!(
            "| {clients:7} | {:8} | {:4} | {:9} |",
            on.good, on.shed, off.good
        );
        points.push((clients, on, off));
    }
    let find = |n: usize| {
        points
            .iter()
            .find(|&&(c, _, _)| c == n)
            .expect("sweep point")
    };
    let &(_, sat_on, _) = find(4);
    let &(_, storm_on, storm_off) = find(40);
    let ratio_on = storm_on.good as f64 / sat_on.good.max(1) as f64;
    let ratio_off = storm_off.good as f64 / sat_on.good.max(1) as f64;
    let shed_fraction = storm_on.shed as f64 / storm_on.offered.max(1) as f64;
    println!(
        "\nsaturation goodput (4 clients, plane on): {}",
        sat_on.good
    );
    println!(
        "10× storm, plane on:  {} good ({ratio_on:.3}× saturation)",
        storm_on.good
    );
    println!(
        "10× storm, plane off: {} good ({ratio_off:.3}× saturation)",
        storm_off.good
    );
    println!("storm shed fraction (plane on): {shed_fraction:.3}");

    // (b) Breaker lifecycle under a gray-failure storm.
    let br = breaker_run();
    println!("\n## Circuit breaker under a transient OverloadStorm");
    println!(
        "  opened {}× closed {}×, {} open-state calls shed off-wire, recovered in {}µs",
        br.stats.opened, br.stats.closed, br.fast_shed, br.recover_us
    );

    write_results(
        "ablation_overload",
        &Json::obj([
            (
                "title",
                Json::from(
                    "Ablation: overload-robustness plane (deadlines, shedding, budgets, breakers)",
                ),
            ),
            ("window_ms", Json::from(WINDOW_MS)),
            ("service_us", Json::from(SERVICE_US)),
            ("capacity_ops", Json::from(capacity_ops)),
            (
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|&(clients, on, off)| {
                            Json::obj([
                                ("clients", Json::from(clients as u64)),
                                ("on_goodput", Json::from(on.good)),
                                ("on_offered", Json::from(on.offered)),
                                ("on_shed", Json::from(on.shed)),
                                ("off_goodput", Json::from(off.good)),
                                ("off_offered", Json::from(off.offered)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "load",
                Json::obj([
                    ("sat_goodput", Json::from(sat_on.good)),
                    ("storm_goodput_on", Json::from(storm_on.good)),
                    ("storm_goodput_off", Json::from(storm_off.good)),
                    ("ratio_on", Json::from(ratio_on)),
                    ("ratio_off", Json::from(ratio_off)),
                    ("shed_fraction", Json::from(shed_fraction)),
                ]),
            ),
            (
                "breaker",
                Json::obj([
                    ("opened", Json::from(br.stats.opened)),
                    ("closed", Json::from(br.stats.closed)),
                    ("fast_shed", Json::from(br.fast_shed)),
                    ("recover_us", Json::from(br.recover_us)),
                ]),
            ),
        ]),
    );
    dacc_bench::telem::write_metrics("ablation_overload");
}
