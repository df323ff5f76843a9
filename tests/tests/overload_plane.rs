//! Overload-robustness plane integration: end-to-end deadlines, daemon
//! admission control with fair-share load shedding, retry budgets, and
//! per-accelerator circuit breakers.

use std::cell::RefCell;
use std::rc::Rc;

use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_tests::{chaos_spec, cluster_from};
use dacc_vgpu::params::ExecMode;
use proptest::prelude::*;

/// A minimal cluster with explicit daemon and front-end tuning — the
/// overload tests drive daemons directly (epoch 0), so the ARM just idles.
fn overload_cluster(
    compute_nodes: usize,
    accelerators: usize,
    daemon: DaemonConfig,
    frontend: FrontendConfig,
) -> (Sim, Cluster) {
    cluster_from(ClusterSpec {
        daemon,
        frontend,
        ..chaos_spec(compute_nodes, accelerators, ExecMode::Functional)
    })
}

/// A gray-failed accelerator stalls every request past the op deadline:
/// the client stops retrying with [`AcError::DeadlineExceeded`] instead of
/// burning its whole retry schedule, and the daemon drops the expired
/// frames undecoded once the stall clears.
#[test]
fn deadline_expiry_stops_client_and_daemon_drops_expired_work() {
    let tracer = Tracer::new(4096);
    let plane = ChaosPlane::new(5, FaultSchedule::new());
    let frontend = FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_millis(1),
            max_retries: 10,
            backoff: SimDuration::from_micros(100),
            ..RetryPolicy::default()
        }),
        overload: Some(OverloadConfig {
            deadline: Some(SimDuration::from_millis(3)),
            ..OverloadConfig::default()
        }),
        ..FrontendConfig::default()
    };
    let (mut sim, mut cluster) = overload_cluster(1, 1, DaemonConfig::default(), frontend);
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let daemon_rank = cluster.daemon_rank(0);
    let ep = cluster.cn_endpoints.remove(0);
    let inject = plane.clone();
    let out = sim.spawn("client", async move {
        let acc = RemoteAccelerator::new(ep, daemon_rank, frontend);
        let ptr = acc.mem_alloc(1024).await.unwrap();
        // Gray failure: the daemon stalls 10ms per request — far past the
        // 3ms op deadline — while heartbeats would still look healthy.
        inject.inject(Fault::SlowAccel {
            rank: daemon_rank.0,
            stall: SimDuration::from_millis(10),
        });
        let started = acc.endpoint().fabric().handle().now();
        let err = acc.mem_set(ptr, 1024, 0xAB).await.unwrap_err();
        let waited = acc
            .endpoint()
            .fabric()
            .handle()
            .now()
            .saturating_since(started);
        (err, waited)
    });
    sim.run();
    let (err, waited) = out.try_take().expect("client did not finish");
    assert_eq!(err, AcError::DeadlineExceeded);
    // The client gave up at the deadline, not after 10 blind retries
    // (which would take > 10ms of backoff alone).
    assert!(
        waited <= SimDuration::from_millis(4),
        "client kept retrying past its deadline: waited {waited}"
    );
    assert!(
        !tracer.events_in("overload.deadline").is_empty(),
        "deadline abandonment must be traced"
    );
    // Once the stall clears, the daemon serves its backlog and drops the
    // expired retry frames before decoding them.
    assert!(
        !tracer.events_in("daemon.expired").is_empty(),
        "the daemon never dropped the expired frames"
    );
}

/// Satellite (c): a flood tenant hammering the daemon cannot starve a
/// trickle tenant. Admission control sheds the flood's overflow under
/// per-tenant fair share, so every trickle op completes within its
/// deadline while the flood eats the `Overloaded` fast-rejects.
#[test]
fn flood_tenant_cannot_starve_trickle_tenant() {
    let tracer = Tracer::new(1 << 16);
    let daemon = DaemonConfig {
        // Slow daemon + tiny queue: a handful of concurrent floods
        // saturate it immediately.
        request_cost: SimDuration::from_micros(20),
        admission: Some(AdmissionConfig {
            max_queue: 4,
            retry_after: SimDuration::from_micros(100),
        }),
        ..DaemonConfig::default()
    };
    let frontend = FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_micros(500),
            max_retries: 4,
            backoff: SimDuration::from_micros(50),
            max_backoff: SimDuration::from_micros(400),
            jitter: true,
        }),
        overload: Some(OverloadConfig {
            deadline: Some(SimDuration::from_millis(2)),
            ..OverloadConfig::default()
        }),
        ..FrontendConfig::default()
    };
    // CNs 1..=3 flood; CN 4 trickles.
    let (mut sim, mut cluster) = overload_cluster(4, 1, daemon, frontend);
    cluster.set_tracer(tracer.clone());
    let daemon_rank = cluster.daemon_rank(0);
    let h = sim.handle();
    let overloaded_seen = Rc::new(RefCell::new(0u64));
    for flood in 0..3 {
        let ep = cluster.cn_endpoints.remove(0);
        let seen = Rc::clone(&overloaded_seen);
        sim.spawn("flood", async move {
            let acc = RemoteAccelerator::new(ep, daemon_rank, frontend);
            let ptr = acc
                .mem_alloc(64)
                .await
                .unwrap_or(dacc_vgpu::memory::DevicePtr(0));
            // Eight concurrent op streams per flood node: offered load far
            // past what one 20µs/request daemon can serve.
            let h = acc.endpoint().fabric().handle().clone();
            let tasks: Vec<_> = (0..8)
                .map(|_| {
                    let acc = acc.clone();
                    let seen = Rc::clone(&seen);
                    h.spawn("flood-stream", async move {
                        for _ in 0..24 {
                            match acc.mem_set(ptr, 64, flood as u8).await {
                                Ok(()) => {}
                                Err(AcError::Overloaded) => *seen.borrow_mut() += 1,
                                Err(_) => {}
                            }
                        }
                    })
                })
                .collect();
            for t in tasks {
                t.await;
            }
        });
    }
    let trickle_ep = cluster.cn_endpoints.remove(0);
    let trickle_h = h.clone();
    let trickle = sim.spawn("trickle", async move {
        let acc = RemoteAccelerator::new(trickle_ep, daemon_rank, frontend);
        let ptr = acc.mem_alloc(64).await.unwrap();
        let mut ok = 0u32;
        for _ in 0..20 {
            trickle_h.delay(SimDuration::from_micros(100)).await;
            if acc.mem_set(ptr, 64, 0x5A).await.is_ok() {
                ok += 1;
            }
        }
        ok
    });
    sim.run();
    let trickle_ok = trickle.try_take().expect("trickle client did not finish");
    assert_eq!(
        trickle_ok, 20,
        "fair-share shedding must protect the trickle tenant"
    );
    assert!(
        !tracer.events_in("daemon.shed").is_empty(),
        "the flood never overflowed the run-queue"
    );
    assert!(
        *overloaded_seen.borrow() > 0,
        "the flood never saw an Overloaded fast-reject"
    );
}

/// Breaker lifecycle under a transient overload storm: consecutive
/// timeouts trip it open, open-state calls shed without touching the
/// wire, and once the storm drains a half-open probe re-closes it.
#[test]
fn circuit_breaker_opens_sheds_and_recloses_after_storm() {
    let tracer = Tracer::new(1 << 14);
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
    let (mut sim, mut cluster) = overload_cluster(1, 1, DaemonConfig::default(), frontend);
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane.clone()));
    let daemon_rank = cluster.daemon_rank(0);
    let h = sim.handle();
    let inject = plane.clone();
    let out = sim.spawn("client", async move {
        let acc = RemoteAccelerator::new(ep_taken(&mut cluster), daemon_rank, frontend);
        let ptr = acc.mem_alloc(256).await.unwrap();
        // Transient storm: the next 10 requests each stall 1ms, then the
        // daemon is healthy again.
        inject.inject(Fault::OverloadStorm {
            rank: daemon_rank.0,
            requests: 10,
            stall: SimDuration::from_millis(1),
        });
        let mut fast_shed = 0u64;
        let mut recovered = false;
        for _ in 0..400 {
            h.delay(SimDuration::from_micros(200)).await;
            match acc.mem_set(ptr, 256, 0x11).await {
                Ok(()) => {
                    if acc.breaker_stats().closed >= 1 {
                        recovered = true;
                        break;
                    }
                }
                Err(AcError::Overloaded) => fast_shed += 1,
                Err(_) => {}
            }
        }
        (acc.breaker_stats(), fast_shed, recovered)
    });
    sim.run();
    let (stats, fast_shed, recovered) = out.try_take().expect("client did not finish");
    assert!(
        stats.opened >= 1,
        "consecutive timeouts never tripped the breaker: {stats:?}"
    );
    assert!(
        stats.closed >= 1,
        "the half-open probe never re-closed the breaker: {stats:?}"
    );
    assert!(recovered, "the client never completed an op after re-close");
    assert!(
        fast_shed > 0,
        "the open breaker never shed a call without touching the wire"
    );
    assert!(
        !tracer.events_in("overload.breaker").is_empty(),
        "breaker transitions must be traced"
    );
}

fn ep_taken(cluster: &mut Cluster) -> dacc_fabric::mpi::Endpoint {
    cluster.cn_endpoints.remove(0)
}

/// A drained retry budget fails fast with [`AcError::Overloaded`] instead
/// of hammering a dead daemon with the full retry schedule forever.
#[test]
fn retry_budget_exhaustion_fails_fast() {
    let tracer = Tracer::new(4096);
    let plane = ChaosPlane::new(
        13,
        FaultSchedule::new().at(SimTime::ZERO, Fault::kill_daemon(2)),
    );
    let frontend = FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_micros(300),
            max_retries: 5,
            backoff: SimDuration::from_micros(100),
            max_backoff: SimDuration::from_micros(400),
            ..RetryPolicy::default()
        }),
        overload: Some(OverloadConfig {
            retry_budget: Some(RetryBudget {
                capacity: 2,
                earn_tenths: 1,
            }),
            ..OverloadConfig::default()
        }),
        ..FrontendConfig::default()
    };
    let (mut sim, mut cluster) = overload_cluster(1, 1, DaemonConfig::default(), frontend);
    cluster.set_tracer(tracer.clone());
    cluster.set_fault_hook(Some(plane));
    let daemon_rank = cluster.daemon_rank(0);
    let ep = cluster.cn_endpoints.remove(0);
    let out = sim.spawn("client", async move {
        let acc = RemoteAccelerator::new(ep, daemon_rank, frontend);
        // First op spends the whole 2-token budget on its retries.
        let first = acc.mem_alloc(64).await.unwrap_err();
        // Later ops get their free first attempt, then fail fast: no
        // budget left to amplify traffic against a dead daemon.
        let second = acc.mem_alloc(64).await.unwrap_err();
        (first, second)
    });
    sim.run();
    let (first, second) = out.try_take().expect("client did not finish");
    assert_eq!(
        first,
        AcError::Overloaded,
        "budget exhaustion mid-retry must surface as Overloaded"
    );
    assert_eq!(second, AcError::Overloaded);
    assert!(
        !tracer.events_in("overload.budget").is_empty(),
        "budget exhaustion must be traced"
    );
}

/// Satellite (a): the backoff cap bounds worst-case retry latency, and
/// jitter is a pure function of the op id — deterministic across runs,
/// consuming no seeded randomness.
#[test]
fn capped_backoff_bounds_latency_and_jitter_is_deterministic() {
    fn failure_time(max_backoff: SimDuration, jitter: bool) -> SimDuration {
        let plane = ChaosPlane::new(
            3,
            FaultSchedule::new().at(SimTime::ZERO, Fault::kill_daemon(2)),
        );
        let frontend = FrontendConfig {
            retry: Some(RetryPolicy {
                timeout: SimDuration::from_micros(100),
                max_retries: 6,
                backoff: SimDuration::from_micros(100),
                max_backoff,
                jitter,
            }),
            ..FrontendConfig::default()
        };
        let (mut sim, mut cluster) = overload_cluster(1, 1, DaemonConfig::default(), frontend);
        cluster.set_fault_hook(Some(plane));
        let daemon_rank = cluster.daemon_rank(0);
        let ep = cluster.cn_endpoints.remove(0);
        let out = sim.spawn("client", async move {
            let acc = RemoteAccelerator::new(ep, daemon_rank, frontend);
            let err = acc.mem_alloc(64).await.unwrap_err();
            assert_eq!(err, AcError::Unreachable);
            acc.endpoint().fabric().handle().now()
        });
        sim.run();
        out.try_take()
            .expect("client did not finish")
            .saturating_since(SimTime::ZERO)
    }

    let uncapped = failure_time(SimDuration::from_nanos(u64::MAX), false);
    let capped = failure_time(SimDuration::from_micros(200), false);
    // Uncapped doubling: 100+200+400+800+1600+3200 µs of backoff.
    // Capped at 200µs: 100+200*5 µs. The gap is the point of the cap.
    assert!(
        capped < uncapped,
        "cap must bound retry latency: capped={capped} uncapped={uncapped}"
    );
    assert!(
        capped <= SimDuration::from_millis(2),
        "capped retry schedule still too slow: {capped}"
    );
    // Jitter shifts the pauses but is derived from (op_id, attempt), so
    // two identical runs land on the identical virtual instant.
    let jittered = failure_time(SimDuration::from_micros(200), true);
    assert_eq!(
        jittered,
        failure_time(SimDuration::from_micros(200), true),
        "jitter must be deterministic run-to-run"
    );
    assert_ne!(
        jittered, capped,
        "jitter on must actually spread the pauses"
    );
}

/// Pure discrete-queue goodput model for the proptest below: one server,
/// one job per tick, FIFO. With the plane on, deadline-expired entries are
/// dropped for free before service and overflow past `capacity` is shed
/// through the production [`dacc_sched::shed_overflow`]. With the plane
/// off (legacy), the server has no deadline knowledge: every entry —
/// including long-expired ones — burns a full service tick.
#[derive(Clone, Copy, Debug)]
struct ModelJob {
    tenant: u32,
    arrival: u64,
    deadline: u64,
}

fn model_goodput(jobs: &[ModelJob], capacity: usize, plane_on: bool) -> u64 {
    let horizon = jobs.iter().map(|j| j.deadline).max().unwrap_or(0) + capacity as u64 + 2;
    let mut queue: std::collections::VecDeque<ModelJob> = std::collections::VecDeque::new();
    let mut good = 0u64;
    let mut next = 0usize;
    for now in 0..horizon {
        while next < jobs.len() && jobs[next].arrival <= now {
            queue.push_back(jobs[next]);
            next += 1;
        }
        if plane_on {
            queue.retain(|j| j.deadline > now);
            if queue.len() > capacity {
                let entries: Vec<(u32, u64)> =
                    queue.iter().map(|j| (j.tenant, j.deadline)).collect();
                let shed = dacc_sched::shed_overflow(&entries, capacity);
                let mut shed = shed.into_iter().peekable();
                let mut kept = std::collections::VecDeque::with_capacity(capacity);
                for (i, j) in queue.drain(..).enumerate() {
                    if shed.peek() == Some(&i) {
                        shed.next();
                    } else {
                        kept.push_back(j);
                    }
                }
                queue = kept;
            }
        }
        if let Some(j) = queue.pop_front() {
            if now < j.deadline {
                good += 1;
            }
        }
    }
    good
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under arbitrary multi-tenant arrival interleavings — bursts, gaps,
    /// sustained floods — bounded-queue shedding plus expired-entry
    /// dropping never completes fewer jobs on time than the legacy
    /// unbounded queue, which wastes service on work whose callers have
    /// already given up. (Deadline slack equals the queue bound, the
    /// natural sizing: the queue admits exactly as much work as can still
    /// meet a deadline.)
    #[test]
    fn shedding_never_reduces_goodput(
        capacity in 2usize..6,
        arrivals in proptest::collection::vec((0u64..3, 0u32..4), 0..80),
    ) {
        let slack = capacity as u64;
        let mut t = 0u64;
        let jobs: Vec<ModelJob> = arrivals
            .iter()
            .map(|&(gap, tenant)| {
                t += gap;
                ModelJob { tenant, arrival: t, deadline: t + slack }
            })
            .collect();
        let with_plane = model_goodput(&jobs, capacity, true);
        let without = model_goodput(&jobs, capacity, false);
        prop_assert!(
            with_plane >= without,
            "shedding lost goodput: {} with plane vs {} without ({} jobs, capacity {})",
            with_plane, without, jobs.len(), capacity
        );
    }
}

/// A copy whose every attempt the daemon sheds fails with
/// [`AcError::Overloaded`], like a call does, and a [`FailoverSession`]
/// therefore stays put: the accelerator is saturated, not dead.
///
/// The daemon spends 500µs per request and queues one. Three clones of the
/// copying handle keep it busy with small fills, so at every drain a fill
/// that arrived earlier sits ahead of the copy's request: same tenant, no
/// deadlines, and arrival order decides who is kept.
#[test]
fn shed_copies_are_overloaded_and_never_fail_over() {
    use dacc_arm::state::JobId;
    use dacc_fabric::payload::Payload;

    let tracer = Tracer::new(1 << 16);
    let daemon = DaemonConfig {
        request_cost: SimDuration::from_micros(500),
        admission: Some(AdmissionConfig {
            max_queue: 1,
            retry_after: SimDuration::from_micros(20),
        }),
        ..DaemonConfig::default()
    };
    let frontend = FrontendConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_millis(2),
            max_retries: 2,
            backoff: SimDuration::from_micros(50),
            ..RetryPolicy::default()
        }),
        ..FrontendConfig::default()
    };
    // Two accelerators: a session that wrongly gave this one up for dead
    // would be granted the other.
    let (mut sim, mut cluster) = overload_cluster(1, 2, daemon, frontend);
    cluster.set_tracer(tracer.clone());
    let arm_rank = cluster.arm_rank;
    let ep = cluster.cn_endpoints.remove(0);
    let h = sim.handle();
    let out = sim.spawn("job", async move {
        let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
        let session = proc.acquire_resilient(1).await.unwrap().remove(0);
        // The raw handle shares the session's op-id sequence; it takes real
        // pointers, the session virtual ones.
        let raw = session.current_accelerator();
        let len = 256u64 << 10;
        let virt = session.mem_alloc(len).await.unwrap();
        let real = raw.mem_alloc(len).await.unwrap();
        let scratch = raw.mem_alloc(64).await.unwrap();
        let stop = Rc::new(RefCell::new(false));
        let fills: Vec<_> = (0..3u8)
            .map(|i| {
                let (acc, stop) = (raw.clone(), Rc::clone(&stop));
                h.spawn("fill", async move {
                    while !*stop.borrow() {
                        let _ = acc.mem_set(scratch, 64, i).await;
                    }
                })
            })
            .collect();
        let src = Payload::from_vec(vec![7; len as usize]);
        // A copy gives up at a drain, as the fills shed with it start their
        // 20µs pause: let them queue up again before the next copy starts.
        let settle = || h.delay(SimDuration::from_micros(100));
        h.delay(SimDuration::from_millis(2)).await;
        let raw_h2d = raw.mem_cpy_h2d(&src, real).await;
        settle().await;
        let raw_d2h = raw.mem_cpy_d2h(real, len).await.map(|_| ());
        settle().await;
        let h2d = session.mem_cpy_h2d(&src, virt).await;
        settle().await;
        let d2h = session.mem_cpy_d2h(virt, len).await.map(|_| ());
        let results = (raw_h2d, raw_d2h, h2d, d2h);
        *stop.borrow_mut() = true;
        for fill in fills {
            fill.await;
        }
        (results, session.failovers())
    });
    sim.run();
    let ((raw_h2d, raw_d2h, h2d, d2h), failovers) = out.try_take().expect("job did not finish");
    assert_eq!(raw_h2d, Err(AcError::Overloaded));
    assert_eq!(raw_d2h, Err(AcError::Overloaded));
    assert_eq!(h2d, Err(AcError::Overloaded));
    assert_eq!(d2h, Err(AcError::Overloaded));
    assert_eq!(failovers, 0, "a saturated accelerator is not a dead one");
    assert!(
        tracer.events_in("arm.failover").is_empty(),
        "no failure may be reported to the ARM"
    );
    assert!(
        !tracer.events_in("daemon.shed").is_empty(),
        "the daemon never shed anything"
    );
}
