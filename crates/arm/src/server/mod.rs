//! The ARM server: one driver for every replica of the accelerator
//! resource manager, over the fabric.
//!
//! A replica is split three ways. `service` is the deterministic core:
//! `ArmState::apply` turns one request into state changes plus an
//! ordered effect list, with no `await`. `replication` holds the input
//! log, a standby's handling of replication traffic and the full-state
//! snapshot. This module is the driver: it receives, charges the service
//! time, replicates, performs effects with the servers' shared
//! [`perform`] loop, and runs the takeover state machine. A lone ARM is the replica set of one: it never times out
//! a receive, logs nothing, takes no snapshots and ignores process faults.

mod replication;
mod service;

use std::convert::Infallible;

use dacc_fabric::machine::{perform, Io, Machine};
use dacc_fabric::mpi::{Endpoint, Rank};
use dacc_sim::prelude::*;
use dacc_telemetry::SpanGuard;

use crate::proto::{arm_tags, ArmError, ArmResponse, ReplMsg};
use crate::state::Pool;
use replication::{ReplLog, StandbyStep};
use service::{respond, ArmState, Fx, Note};

/// ARM server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ArmServerConfig {
    /// CPU time to process one request.
    pub service_time: SimDuration,
}

impl Default for ArmServerConfig {
    fn default() -> Self {
        ArmServerConfig {
            service_time: SimDuration::from_micros(2),
        }
    }
}

/// High-availability replication tuning (see [`run_arm_replica`]).
#[derive(Clone, Copy, Debug)]
pub struct ArmHaConfig {
    /// Primary liveness beacon cadence on quiet links (busy links carry
    /// log entries, which count as liveness too).
    pub beacon_period: SimDuration,
    /// A standby promotes itself after hearing nothing from the primary
    /// for this long (scaled by its replica position so two standbys
    /// never promote simultaneously).
    pub takeover_silence: SimDuration,
    /// Log entries between full-state snapshots pushed to standbys
    /// (0 disables snapshots; standbys then replay the whole log at
    /// takeover).
    pub snapshot_every: u32,
    /// Virtual CPU time a promoting standby charges per buffered log
    /// entry it replays — the knob `ablation_arm_ha` sweeps to show
    /// snapshots bound catch-up time.
    pub replay_cost: SimDuration,
    /// Quiet beacon periods after which an idle primary *parks*: it tells
    /// the standbys to stop expecting beacons and every replica falls
    /// back to untimed receives, so a finished simulation can drain its
    /// event calendar instead of beaconing forever. The next client
    /// request or replication message re-arms the timers. 0 never parks.
    pub park_after: u32,
}

impl Default for ArmHaConfig {
    fn default() -> Self {
        ArmHaConfig {
            beacon_period: SimDuration::from_millis(1),
            takeover_silence: SimDuration::from_millis(4),
            snapshot_every: 64,
            replay_cost: SimDuration::from_micros(1),
            park_after: 8,
        }
    }
}

/// This server's place in the ARM replica set.
#[derive(Clone, Debug)]
pub struct ArmReplica {
    /// All replica ranks; position 0 is the initial primary.
    pub replicas: Vec<Rank>,
    /// This server's index into `replicas`.
    pub position: usize,
}

impl ArmReplica {
    /// The replica set of one: a lone ARM at `rank`.
    pub fn solo(rank: Rank) -> Self {
        ArmReplica {
            replicas: vec![rank],
            position: 0,
        }
    }
}

/// Run a lone accelerator resource manager on `ep` until a `Shutdown`
/// request arrives. Returns the final pool (for inspection).
pub async fn run_arm_server(ep: Endpoint, pool: Pool, config: ArmServerConfig) -> Pool {
    let solo = ArmReplica::solo(ep.rank());
    let ha = ArmHaConfig::default();
    run_arm_replica(ep, pool, config, ha, solo).await
}

/// A replica's handles, and the request span a primary holds open while
/// it performs the request's effects. Only a primary performs effects, so
/// nothing here needs muting on a standby.
struct Driver {
    io: Io,
    span: Option<SpanGuard>,
}

impl Machine for Driver {
    type Call = Infallible;
    type Note = Note;
    type Outcome = ();

    fn io(&self) -> &Io {
        &self.io
    }

    async fn run(&mut self, call: Infallible) {
        match call {}
    }

    fn note(&mut self, note: Note) {
        let (h, tele, tracer) = (&self.io.handle, &self.io.tele, &self.io.tracer);
        match note {
            Note::Begin(kind, from) => {
                self.span = Some(tele.span(h, kind, || format!("{kind} from {from}")));
            }
            Note::Failover(j, a, Ok((r, n))) => tracer.record(h, "arm.failover", || {
                format!("job {j} lost accel {a}; replacement accel {r} (rank {n})")
            }),
            Note::Failover(j, a, Err(e)) => tracer.record(h, "arm.failover", || {
                format!("job {j} lost accel {a}; no replacement ({e})")
            }),
            Note::Health(a, what) => tracer.record(h, "arm.health", || format!("accel {a} {what}")),
            Note::Evicted(kind, j, a, e, r) => tracer.record(h, kind, || {
                format!("job {j} evicted from accel {a} (epoch {e}); replacement {r:?}")
            }),
            Note::Rotated(j, a, e) => tracer.record(h, "arm.sched", || {
                format!("job {j} active on shared accel {a} (epoch {e})")
            }),
        }
    }

    fn finish(&mut self, _: Option<()>, _: &mut Fx) {}
}

/// Send `msg` to each of `to` on the replication tag.
async fn repl(d: &mut Driver, fx: &mut Fx, to: &[Rank], msg: &ReplMsg) {
    for &p in to {
        fx.send(p, arm_tags::REPL, |enc| msg.encode_into(enc));
    }
    perform(d, fx).await;
}

/// Run one member of an ARM replica set until it shuts down or crashes.
/// `replica.position == 0` starts as the primary; the rest start as
/// standbys. [`ArmReplica::solo`] is the lone ARM ([`run_arm_server`]).
///
/// The primary appends every executed request to a deterministic input
/// log, ships each entry to the standbys *before* responding (log-ahead:
/// the fabric is reliable FIFO per link, so if a response arrived the
/// entry did too), and pushes a full-state snapshot every
/// `ha.snapshot_every` entries. Standbys buffer entries lazily and answer
/// client traffic with `NotPrimary`; after `ha.takeover_silence` of
/// hearing nothing (scaled by position so standbys promote in order), a
/// standby replays its buffered log — `ArmState::apply` with the effects
/// dropped, charging `ha.replay_cost` per entry — rebases leases over the
/// outage gap, and serves as the new primary. Epochs and fences continue
/// monotonically from the replicated state, so grants held across the
/// takeover stay valid and zombies stay fenced.
///
/// Trace events go to the fabric's tracer. A replica reads the fabric's
/// fault hook when it starts and consults it for process faults once per
/// received message; a lone ARM never does.
pub async fn run_arm_replica(
    ep: Endpoint,
    pool: Pool,
    config: ArmServerConfig,
    ha: ArmHaConfig,
    replica: ArmReplica,
) -> Pool {
    let fabric = ep.fabric().clone();
    let me = replica.replicas[replica.position];
    let mut peers = replica.replicas.clone();
    peers.retain(|&r| r != me);
    // With nobody to beacon to or take over from, a lone ARM receives
    // untimed, like a parked replica set, and is never crashed or hung.
    let solo = peers.is_empty();
    let fault = fabric.fault_hook().filter(|_| !solo);
    let process = |now| {
        fault
            .as_ref()
            .map_or(ProcessFault::Healthy, |f| f.process_state(me.0, now))
    };
    let (h, tele) = (fabric.handle().clone(), fabric.telemetry());
    let io = Io::new(ep.clone());
    let fx = &mut Fx::new(io.records());
    let d = &mut Driver { io, span: None };
    let mut state = ArmState::new(pool, move |rank| fabric.node_of(rank));
    let mut log = ReplLog::default();
    let mut last_heard = h.now();
    let mut is_primary = replica.position == 0;
    // Parked: the cluster went idle and every replica dropped its timers
    // (see [`ArmHaConfig::park_after`]); receives block untimed.
    let mut parked = false;
    let mut quiet: u32 = 0;

    if !is_primary {
        // Announce ourselves so a primary that already made progress
        // (e.g. a standby restarted mid-run) sends catch-up state.
        repl(d, fx, &[replica.replicas[0]], &ReplMsg::Hello { have: 0 }).await;
    } else if !solo {
        tele.gauge("arm.role", 0.0);
    }
    // A standby further down the replica list waits proportionally longer,
    // so two standbys never promote simultaneously.
    let my_silence = ha
        .takeover_silence
        .saturating_mul(replica.position.max(1) as u64);

    loop {
        match process(h.now()) {
            ProcessFault::Crash => return state.into_pool(),
            ProcessFault::Hang(d) => h.delay(d).await,
            ProcessFault::Healthy => {}
        }
        let env = if parked || solo {
            Some(ep.recv(None, None).await)
        } else {
            ep.recv_timeout(None, None, ha.beacon_period).await
        };
        // A crash that struck while we were blocked in recv must not let
        // the wake-up message be served posthumously.
        if env.is_some() && process(h.now()) == ProcessFault::Crash {
            return state.into_pool();
        }
        if is_primary {
            let Some(env) = env else {
                // Quiet link: prove liveness to the standbys, or, idle
                // long enough, release every replica's timers so the
                // simulation can drain once work stops arriving.
                quiet += 1;
                let park = ha.park_after > 0 && quiet >= ha.park_after;
                let index = log.next_index;
                let msg = if park {
                    ReplMsg::Park { index }
                } else {
                    ReplMsg::Beacon { index }
                };
                repl(d, fx, &peers, &msg).await;
                if park {
                    parked = true;
                    quiet = 0;
                }
                continue;
            };
            parked = false;
            quiet = 0;
            match env.tag {
                arm_tags::REPL => match env.payload.bytes().map(|raw| ReplMsg::decode(raw)) {
                    Some(Ok(ReplMsg::Hello { have })) => {
                        for msg in log.catch_up(have) {
                            repl(d, fx, &[env.src], &msg).await;
                        }
                    }
                    Some(Ok(ReplMsg::Beacon { index })) if index >= log.next_index => {
                        // A peer beaconing at or beyond our index promoted
                        // while we were partitioned away: step down, so a
                        // healed partition never leaves two primaries.
                        is_primary = false;
                        log.demote();
                        last_heard = h.now();
                        repl(d, fx, &[env.src], &ReplMsg::Hello { have: log.applied }).await;
                    }
                    _ => {}
                },
                arm_tags::REQUEST => {
                    let from = env.src;
                    let raw = env.payload.bytes().map(|b| b.as_ref());
                    let Some((op_id, req)) = state.admit(from, raw, fx) else {
                        perform(d, fx).await;
                        continue;
                    };
                    // Model the ARM's processing cost, then pin the
                    // timestamp the request executes at — the log entry
                    // carries it so a standby replays at the identical
                    // virtual instant.
                    h.delay(config.service_time).await;
                    let now = h.now();
                    if !solo {
                        // Log-ahead: every standby holds the entry before
                        // the client can observe any effect of it.
                        let body = raw.map_or(&[][..], |raw| {
                            crate::proto::peek_frame(raw).map_or(raw, |(_, body)| body)
                        });
                        let entry = log.append(now, from, op_id, body.to_vec());
                        repl(d, fx, &peers, &ReplMsg::Entry(entry.clone())).await;
                        tele.count("arm.ha.replicated_ops", 1);
                    }
                    let shutdown = state.apply(now, from, op_id, req, fx);
                    perform(d, fx).await;
                    d.span = None;
                    if !solo && log.snapshot_due(ha.snapshot_every) {
                        let snap = state.snapshot();
                        tele.count("arm.ha.snapshot_bytes", snap.len() as u64);
                        let msg = ReplMsg::Snapshot {
                            index: log.next_index,
                            state: snap.clone(),
                        };
                        repl(d, fx, &peers, &msg).await;
                        log.cut(snap);
                    }
                    if shutdown {
                        return state.into_pool();
                    }
                }
                _ => {}
            }
        } else {
            // Standby: buffer replication, bounce clients, watch for
            // silence (unless parked — then only traffic re-arms us).
            let Some(env) = env else {
                let now = h.now();
                if now.saturating_since(last_heard) < my_silence {
                    continue;
                }
                // Takeover: charge the replay of the buffered log (this is
                // where lazy standbys pay — `ablation_arm_ha` measures
                // it), replay it, rebase leases over the outage gap, go
                // live. Nothing observes the state between entries, so
                // applying them after the charge is the same as between.
                for _ in 0..log.tail.len() {
                    h.delay(ha.replay_cost).await;
                }
                if log.take_over(&mut state) {
                    return state.into_pool();
                }
                let now = h.now();
                state.pool.grace_rebase(now);
                tele.count("arm.ha.takeovers", 1);
                tele.observe("arm.ha.takeover_latency", now.saturating_since(last_heard));
                tele.gauge("arm.role", replica.position as f64);
                is_primary = true;
                continue;
            };
            match env.tag {
                arm_tags::REPL => {
                    last_heard = h.now();
                    let Some(Ok(msg)) = env.payload.bytes().map(|raw| ReplMsg::decode(raw)) else {
                        continue;
                    };
                    match log.standby_take(&mut state, msg) {
                        StandbyStep::Idle => {}
                        StandbyStep::Hello(have) => {
                            repl(d, fx, &[env.src], &ReplMsg::Hello { have }).await;
                        }
                        StandbyStep::Park => parked = true,
                        StandbyStep::Shutdown => return state.into_pool(),
                    }
                }
                arm_tags::REQUEST => {
                    if parked {
                        // A client is probing while the cluster is parked:
                        // the primary may have died idle. Re-arm the
                        // silence timer so takeover can still trigger.
                        parked = false;
                        last_heard = h.now();
                    }
                    // Not the primary: bounce, echoing the dedupe id so
                    // the client can match the error to its operation.
                    let op_id = env
                        .payload
                        .bytes()
                        .and_then(|b| crate::proto::peek_frame(b))
                        .map_or(0, |(id, _)| id);
                    let resp = ArmResponse::Error(ArmError::NotPrimary);
                    respond(fx, env.src, op_id, &resp);
                    perform(d, fx).await;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ArmClient;
    use crate::state::{inventory, AcceleratorId, JobId, Pool};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Cluster: node 0 = ARM, node 1.. = compute nodes, accelerators on
    /// dedicated nodes after that (daemon ranks are placeholders here; the
    /// ARM does not talk to daemons).
    fn setup(n_cn: usize, n_ac: usize) -> (Sim, Fabric, Vec<Endpoint>, Endpoint) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 1 + n_cn + n_ac, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let arm_ep = fabric.add_endpoint(NodeId(0));
        let cn_eps: Vec<Endpoint> = (0..n_cn)
            .map(|i| fabric.add_endpoint(NodeId(1 + i)))
            .collect();
        (sim, fabric, cn_eps, arm_ep)
    }

    fn spawn_arm(sim: &Sim, arm_ep: Endpoint, n_ac: usize, n_cn: usize) {
        let nodes: Vec<NodeId> = (0..n_ac).map(|i| NodeId(1 + n_cn + i)).collect();
        let ranks: Vec<Rank> = (0..n_ac).map(|i| Rank(1 + n_cn + i)).collect();
        let pool = Pool::new(inventory(&nodes, &ranks));
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default()).await;
        });
    }

    #[test]
    fn allocate_use_release_over_fabric() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 3);
        spawn_arm(&sim, arm_ep, 3, 1);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            let grants = client.allocate(JobId(1), 2).await.unwrap();
            assert_eq!(grants.len(), 2);
            let stats = client.query().await.unwrap();
            assert_eq!((stats.free, stats.assigned), (1, 2));
            let released = client.release_job(JobId(1)).await.unwrap();
            assert_eq!(released, 2);
            let stats = client.query().await.unwrap();
            client.shutdown().await;
            stats.free
        });
        sim.run();
        assert_eq!(result.try_take(), Some(3));
    }

    #[test]
    fn failfast_insufficient() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 1);
        spawn_arm(&sim, arm_ep, 1, 1);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client.allocate(JobId(1), 1).await.unwrap();
            let err = client.allocate(JobId(2), 1).await.unwrap_err();
            client.shutdown().await;
            err
        });
        sim.run();
        assert_eq!(
            result.try_take(),
            Some(ArmError::Insufficient {
                requested: 1,
                free: 0
            })
        );
    }

    #[test]
    fn waiting_allocation_granted_on_release() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(2, 1);
        spawn_arm(&sim, arm_ep, 1, 2);
        let cn_a = cns.remove(0);
        let cn_b = cns.remove(0);
        let h = sim.handle();
        let grant_time = Rc::new(RefCell::new(SimTime::ZERO));
        {
            // Job 1 holds the accelerator for 1ms, then releases.
            let h = h.clone();
            sim.spawn("job1", async move {
                let client = ArmClient::new(cn_a, Rank(0));
                client.allocate(JobId(1), 1).await.unwrap();
                h.delay(SimDuration::from_millis(1)).await;
                client.release_job(JobId(1)).await.unwrap();
            });
        }
        {
            // Job 2 queues at ~10us and is granted after job 1 releases.
            let h = h.clone();
            let grant_time = Rc::clone(&grant_time);
            sim.spawn("job2", async move {
                h.delay(SimDuration::from_micros(10)).await;
                let client = ArmClient::new(cn_b, Rank(0));
                let grants = client.allocate_waiting(JobId(2), 1).await.unwrap();
                assert_eq!(grants.len(), 1);
                *grant_time.borrow_mut() = h.now();
                client.release_job(JobId(2)).await.unwrap();
                client.shutdown().await;
            });
        }
        sim.run();
        assert!(
            *grant_time.borrow() >= SimTime::ZERO + SimDuration::from_millis(1),
            "granted at {} before release",
            *grant_time.borrow()
        );
    }

    #[test]
    fn broken_accelerator_excluded_from_grants() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 2);
        spawn_arm(&sim, arm_ep, 2, 1);
        let cn = cns.remove(0);
        let got = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client.mark_broken(AcceleratorId(0)).await.unwrap();
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            client.shutdown().await;
            grants[0].accel
        });
        sim.run();
        assert_eq!(got.try_take(), Some(AcceleratorId(1)));
    }

    #[test]
    fn report_failure_marks_broken_and_grants_replacement() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 3);
        let tracer = Tracer::new(64);
        arm_ep.fabric().set_tracer(tracer.clone());
        {
            let nodes: Vec<NodeId> = (0..3).map(|i| NodeId(2 + i)).collect();
            let ranks: Vec<Rank> = (0..3).map(|i| Rank(2 + i)).collect();
            let pool = Pool::new(inventory(&nodes, &ranks));
            sim.spawn("arm", async move {
                run_arm_server(arm_ep, pool, ArmServerConfig::default()).await;
            });
        }
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            let lost = grants[0].accel;
            // The accelerator dies; report it and get a substitute.
            let replacement = client.report_failure(JobId(1), lost).await.unwrap();
            assert_ne!(replacement.accel, lost);
            let stats = client.query().await.unwrap();
            assert_eq!((stats.broken, stats.assigned), (1, 1));
            // A second failure still finds capacity; a third does not.
            let replacement2 = client
                .report_failure(JobId(1), replacement.accel)
                .await
                .unwrap();
            let err = client
                .report_failure(JobId(1), replacement2.accel)
                .await
                .unwrap_err();
            assert!(matches!(err, ArmError::Insufficient { free: 0, .. }));
            client.release_job(JobId(1)).await.unwrap();
            client.shutdown().await;
            true
        });
        sim.run();
        assert_eq!(out.try_take(), Some(true));
        assert!(
            tracer.events_in("arm.failover").len() >= 3,
            "failover decisions must be traced"
        );
    }

    #[test]
    fn fifo_queue_is_fair() {
        // One accelerator; jobs 2 and 3 queue in order; grants follow order.
        let (mut sim, _fabric, mut cns, arm_ep) = setup(3, 1);
        spawn_arm(&sim, arm_ep, 1, 3);
        let order = Rc::new(RefCell::new(Vec::new()));
        let holder = cns.remove(0);
        let h0 = sim.handle();
        sim.spawn("job1", async move {
            let client = ArmClient::new(holder, Rank(0));
            client.allocate(JobId(1), 1).await.unwrap();
            h0.delay(SimDuration::from_millis(1)).await;
            client.release_job(JobId(1)).await.unwrap();
        });
        for (i, job) in [(0usize, 2u64), (1, 3)] {
            let cn = cns.remove(0);
            let h = sim.handle();
            let order = Rc::clone(&order);
            sim.spawn("waiter", async move {
                // Stagger arrivals so queue order is deterministic.
                h.delay(SimDuration::from_micros(10 * (i as u64 + 1))).await;
                let client = ArmClient::new(cn, Rank(0));
                client.allocate_waiting(JobId(job), 1).await.unwrap();
                order.borrow_mut().push(job);
                h.delay(SimDuration::from_micros(100)).await;
                client.release_job(JobId(job)).await.unwrap();
                if job == 3 {
                    client.shutdown().await;
                }
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![2, 3]);
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;
    use crate::client::ArmClient;
    use crate::health::HealthConfig;
    use crate::proto::RejectReason;
    use crate::state::{inventory, JobId, Pool, ShareConfig};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};

    fn setup(n_cn: usize, n_ac: usize) -> (Sim, Fabric, Vec<Endpoint>, Endpoint) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 1 + n_cn + n_ac, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let arm_ep = fabric.add_endpoint(NodeId(0));
        let cn_eps: Vec<Endpoint> = (0..n_cn)
            .map(|i| fabric.add_endpoint(NodeId(1 + i)))
            .collect();
        (sim, fabric, cn_eps, arm_ep)
    }

    fn make_pool(n_ac: usize, n_cn: usize, share: bool) -> Pool {
        let nodes: Vec<NodeId> = (0..n_ac).map(|i| NodeId(1 + n_cn + i)).collect();
        let ranks: Vec<Rank> = (0..n_ac).map(|i| Rank(1 + n_cn + i)).collect();
        let mut pool = Pool::new(inventory(&nodes, &ranks));
        if share {
            pool.set_health(HealthConfig::default());
            pool.set_share(ShareConfig::default());
        }
        pool
    }

    #[test]
    fn submit_rejected_by_tenant_quota() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 4);
        let pool = make_pool(4, 1, false);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default()).await;
        });
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client.set_tenant(7, 1, 0, 2, 8).await.unwrap();
            // Gang of 3 exceeds tenant 7's two-accelerator quota.
            let err = client
                .submit_job(JobId(1), 7, 3, false, false)
                .await
                .unwrap_err();
            // Within quota it lands.
            let grants = client
                .submit_job(JobId(2), 7, 2, false, false)
                .await
                .unwrap();
            client.release_job(JobId(2)).await.unwrap();
            client.shutdown().await;
            (err, grants.len())
        });
        sim.run();
        assert_eq!(
            out.try_take(),
            Some((
                ArmError::Rejected(RejectReason::QuotaAccels {
                    requested: 3,
                    quota: 2
                }),
                2
            ))
        );
    }

    #[test]
    fn waiting_submit_granted_when_capacity_frees() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(2, 2);
        let pool = make_pool(2, 2, false);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default()).await;
        });
        let cn_a = cns.remove(0);
        let cn_b = cns.remove(0);
        let h = sim.handle();
        {
            let h = h.clone();
            sim.spawn("job1", async move {
                let client = ArmClient::new(cn_a, Rank(0));
                client
                    .submit_job(JobId(1), 1, 2, false, false)
                    .await
                    .unwrap();
                h.delay(SimDuration::from_millis(1)).await;
                client.release_job(JobId(1)).await.unwrap();
            });
        }
        let granted_at = {
            let h = h.clone();
            sim.spawn("job2", async move {
                h.delay(SimDuration::from_micros(10)).await;
                let client = ArmClient::new(cn_b, Rank(0));
                // Pool is full: queues, then granted after job 1 releases.
                let grants = client
                    .submit_job(JobId(2), 2, 2, false, true)
                    .await
                    .unwrap();
                assert_eq!(grants.len(), 2);
                let t = h.now();
                client.release_job(JobId(2)).await.unwrap();
                client.shutdown().await;
                t
            })
        };
        sim.run();
        let t = granted_at.try_take().expect("job2 must complete");
        assert!(
            t >= SimTime::ZERO + SimDuration::from_millis(1),
            "granted at {t} before job 1 released"
        );
    }

    #[test]
    fn nonwaiting_submit_fails_fast_when_full() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 1);
        let pool = make_pool(1, 1, false);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default()).await;
        });
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client
                .submit_job(JobId(1), 1, 1, false, false)
                .await
                .unwrap();
            let err = client
                .submit_job(JobId(2), 2, 1, false, false)
                .await
                .unwrap_err();
            // The abandoned submission must not linger in the queue.
            let stats = client.query().await.unwrap();
            client.shutdown().await;
            (err, stats.queued_requests)
        });
        sim.run();
        assert_eq!(
            out.try_take(),
            Some((
                ArmError::Insufficient {
                    requested: 1,
                    free: 0
                },
                0
            ))
        );
    }

    #[test]
    fn oversubscription_shares_one_accelerator() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 1);
        let pool = make_pool(1, 1, true);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default()).await;
        });
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            // Job 1 consents to sharing and takes the only accelerator.
            let g1 = client
                .submit_job(JobId(1), 1, 1, true, false)
                .await
                .unwrap();
            // Job 2 lands on the same device via a share slot; its slice
            // starts immediately with a fresh epoch, fencing job 1.
            let g2 = client
                .submit_job(JobId(2), 2, 1, true, false)
                .await
                .unwrap();
            assert_eq!(g1[0].accel, g2[0].accel);
            assert!(g2[0].epoch > g1[0].epoch, "joiner must hold the live epoch");
            // A third job finds neither free capacity nor a spare slot.
            let err = client
                .submit_job(JobId(3), 3, 1, true, false)
                .await
                .unwrap_err();
            assert!(matches!(err, ArmError::Insufficient { .. }));
            client.release_job(JobId(2)).await.unwrap();
            client.release_job(JobId(1)).await.unwrap();
            let stats = client.query().await.unwrap();
            client.shutdown().await;
            stats.free
        });
        sim.run();
        assert_eq!(out.try_take(), Some(1));
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use crate::client::ArmClient;
    use crate::state::{inventory, AcceleratorId, JobId, Pool};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};

    #[test]
    fn repair_returns_accelerator_and_unblocks_queue() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 3, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let arm_ep = fabric.add_endpoint(NodeId(0));
        let cn = fabric.add_endpoint(NodeId(1));
        let pool = Pool::new(inventory(&[NodeId(2)], &[Rank(2)]));
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default()).await;
        });
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            // Break the only accelerator; allocation must fail.
            client.mark_broken(AcceleratorId(0)).await.unwrap();
            let err = client.allocate(JobId(1), 1).await.unwrap_err();
            assert!(matches!(err, ArmError::Insufficient { free: 0, .. }));
            // Repair it; allocation succeeds again.
            client.repair(AcceleratorId(0)).await.unwrap();
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(1)).await.unwrap();
            client.shutdown().await;
            grants.len()
        });
        sim.run();
        assert_eq!(out.try_take(), Some(1));
    }
}

#[cfg(test)]
mod ha_tests {
    use super::*;
    use crate::client::{ArmClient, ArmRetryConfig};
    use crate::proto::ArmRequest;
    use crate::state::{inventory, JobId, Pool};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};
    use std::sync::Arc;

    /// Nodes: 0 = primary ARM, 1..=n_cn compute, then n_ac accelerator
    /// nodes, then n_standby standby ARMs (appended last so the default
    /// single-ARM numbering is untouched).
    fn setup_ha(
        n_cn: usize,
        n_ac: usize,
        n_standby: usize,
    ) -> (Sim, Fabric, Vec<Endpoint>, Vec<Endpoint>, Vec<Rank>) {
        let sim = Sim::new();
        let h = sim.handle();
        let total = 1 + n_cn + n_ac + n_standby;
        let topo = Topology::new(&h, total, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        // Endpoint creation order assigns ranks: ARM first (rank 0), then
        // compute nodes, then standbys on the trailing nodes.
        let mut arm_eps = vec![fabric.add_endpoint(NodeId(0))];
        let cn_eps: Vec<Endpoint> = (0..n_cn)
            .map(|i| fabric.add_endpoint(NodeId(1 + i)))
            .collect();
        for i in 0..n_standby {
            arm_eps.push(fabric.add_endpoint(NodeId(1 + n_cn + n_ac + i)));
        }
        let replicas: Vec<Rank> = arm_eps.iter().map(|ep| ep.rank()).collect();
        (sim, fabric, cn_eps, arm_eps, replicas)
    }

    fn test_pool(n_cn: usize, n_ac: usize) -> Pool {
        let nodes: Vec<NodeId> = (0..n_ac).map(|i| NodeId(1 + n_cn + i)).collect();
        let ranks: Vec<Rank> = (0..n_ac).map(|i| Rank(1 + n_cn + i)).collect();
        Pool::new(inventory(&nodes, &ranks))
    }

    fn spawn_replicas(
        sim: &Sim,
        arm_eps: Vec<Endpoint>,
        replicas: Vec<Rank>,
        n_cn: usize,
        n_ac: usize,
        ha: ArmHaConfig,
        health: Option<crate::health::HealthConfig>,
    ) -> Vec<JoinHandle<Pool>> {
        let mut handles = Vec::new();
        for (position, ep) in arm_eps.into_iter().enumerate() {
            let mut pool = test_pool(n_cn, n_ac);
            if let Some(cfg) = health {
                pool.set_health(cfg);
            }
            let replica = ArmReplica {
                replicas: replicas.clone(),
                position,
            };
            let name = if position == 0 {
                "arm-primary"
            } else {
                "arm-standby"
            };
            handles.push(sim.spawn(name, async move {
                run_arm_replica(ep, pool, ArmServerConfig::default(), ha, replica).await
            }));
        }
        handles
    }

    fn fast_ha() -> ArmHaConfig {
        ArmHaConfig {
            beacon_period: SimDuration::from_micros(500),
            takeover_silence: SimDuration::from_millis(2),
            snapshot_every: 4,
            replay_cost: SimDuration::from_micros(1),
            park_after: 8,
        }
    }

    fn fast_retry() -> ArmRetryConfig {
        ArmRetryConfig {
            timeout: SimDuration::from_millis(3),
            attempts: 10,
            backoff: SimDuration::from_micros(200),
        }
    }

    /// Health plane with leases on but liveness judgement effectively
    /// disabled (no daemons beat in these unit tests).
    fn long_lease_health() -> crate::health::HealthConfig {
        crate::health::HealthConfig {
            suspect_after: SimDuration::from_secs(10),
            quarantine_after: SimDuration::from_secs(20),
            dead_after: SimDuration::from_secs(30),
            ..Default::default()
        }
    }

    /// Crash one fabric rank at a fixed virtual time.
    struct CrashAt {
        rank: usize,
        at: SimTime,
    }

    impl FaultHook for CrashAt {
        fn process_state(&self, process: usize, now: SimTime) -> ProcessFault {
            if process == self.rank && now >= self.at {
                ProcessFault::Crash
            } else {
                ProcessFault::Healthy
            }
        }
    }

    #[test]
    fn ha_replicated_cluster_serves_and_shuts_down_cleanly() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 3, 1);
        let handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 1, 3, fast_ha(), None);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(1), 2).await.unwrap();
            assert_eq!(grants.len(), 2);
            let stats = client.query().await.unwrap();
            assert_eq!((stats.free, stats.assigned), (1, 2));
            let released = client.release_job(JobId(1)).await.unwrap();
            assert_eq!(released, 2);
            client.shutdown().await;
            stats.assigned
        });
        sim.run();
        assert_eq!(result.try_take(), Some(2));
        // The replicated Shutdown entry terminates the standby too.
        for h in handles {
            assert!(h.try_take().is_some(), "a replica never exited");
        }
    }

    #[test]
    fn ha_takeover_preserves_grants_and_serves_new_work() {
        let (mut sim, fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 1);
        let crash: Arc<dyn FaultHook> = Arc::new(CrashAt {
            rank: 0,
            at: SimTime::ZERO + SimDuration::from_millis(1),
        });
        fabric.set_fault_hook(Some(crash));
        let handles = spawn_replicas(
            &sim,
            arm_eps,
            replicas.clone(),
            1,
            2,
            fast_ha(),
            Some(long_lease_health()),
        );
        let standby = *replicas.last().unwrap();
        let cn = cns.remove(0);
        let h = sim.handle();
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            // Grant taken while the original primary is alive.
            let before = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(before.len(), 1);
            // Outlive the crash (1ms) and the takeover silence window.
            h.delay(SimDuration::from_millis(10)).await;
            // The replicated lease survives: no StaleEpoch, no re-grant.
            let renewed = client.renew_lease(JobId(1)).await.unwrap();
            assert_eq!(renewed, 1);
            // New work succeeds against the promoted standby.
            let after = client.allocate(JobId(2), 1).await.unwrap();
            assert_eq!(after.len(), 1);
            assert_ne!(before[0].accel, after[0].accel);
            let stats = client.query().await.unwrap();
            assert_eq!((stats.free, stats.assigned), (0, 2));
            assert_eq!(client.arm_rank(), standby);
            client.release_job(JobId(1)).await.unwrap();
            client.release_job(JobId(2)).await.unwrap();
            client.shutdown().await;
        });
        sim.run();
        result.try_take().expect("client never finished");
        // Primary crashed; promoted standby exited on Shutdown with the
        // fully released pool.
        let pool = handles
            .into_iter()
            .nth(1)
            .unwrap()
            .try_take()
            .expect("standby never exited");
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn ha_waiting_allocation_survives_takeover() {
        let (mut sim, fabric, mut cns, arm_eps, replicas) = setup_ha(2, 1, 1);
        let crash: Arc<dyn FaultHook> = Arc::new(CrashAt {
            rank: 0,
            at: SimTime::ZERO + SimDuration::from_millis(1),
        });
        fabric.set_fault_hook(Some(crash));
        let _handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 2, 1, fast_ha(), None);
        let cn_a = cns.remove(0);
        let cn_b = cns.remove(0);
        let h = sim.handle();
        {
            // Job 1 takes the only accelerator, holds it across the
            // crash, and releases against the promoted standby.
            let h = h.clone();
            let replicas = replicas.clone();
            sim.spawn("job1", async move {
                let client = ArmClient::with_replicas(cn_a, replicas, fast_retry());
                client.allocate(JobId(1), 1).await.unwrap();
                h.delay(SimDuration::from_millis(12)).await;
                client.release_job(JobId(1)).await.unwrap();
            });
        }
        let granted = {
            // Job 2 queues behind job 1 before the crash; the queue entry
            // is replicated, so the promoted standby pushes the grant
            // once job 1 releases.
            let h = h.clone();
            sim.spawn("job2", async move {
                h.delay(SimDuration::from_micros(50)).await;
                let client = ArmClient::with_replicas(cn_b, replicas, fast_retry());
                let grants = client.allocate_waiting(JobId(2), 1).await.unwrap();
                let at = h.now();
                client.release_job(JobId(2)).await.unwrap();
                client.shutdown().await;
                (grants.len(), at)
            })
        };
        sim.run();
        let (n, at) = granted.try_take().expect("waiter never granted");
        assert_eq!(n, 1);
        assert!(
            at >= SimTime::ZERO + SimDuration::from_millis(12),
            "granted at {at} before the holder released"
        );
    }

    #[test]
    fn ha_standby_bounces_clients_that_only_know_it() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 1, 1);
        let handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 1, 1, fast_ha(), None);
        let standby = *replicas.last().unwrap();
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            // Misconfigured client that only knows the standby: every
            // attempt bounces NotPrimary until the budget runs out.
            let lost = ArmClient::with_replicas(
                cn.clone(),
                vec![standby],
                ArmRetryConfig {
                    timeout: SimDuration::from_millis(1),
                    attempts: 3,
                    backoff: SimDuration::from_micros(100),
                },
            );
            let err = lost.allocate(JobId(1), 1).await.unwrap_err();
            // A correctly configured client still works afterwards.
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(2), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(2)).await.unwrap();
            client.shutdown().await;
            err
        });
        sim.run();
        assert_eq!(result.try_take(), Some(ArmError::Unreachable));
        for h in handles {
            assert!(h.try_take().is_some(), "a replica never exited");
        }
    }

    #[test]
    fn ha_idle_cluster_parks_and_sim_drains_without_shutdown() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 1);
        let handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 1, 2, fast_ha(), None);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(1)).await.unwrap()
        });
        // No shutdown: once the primary parks, no replica holds a timer
        // and the calendar drains. A regression here hangs the test.
        let outcome = sim.run();
        assert_eq!(result.try_take(), Some(1));
        for h in handles {
            // Replicas are parked in untimed receives, not exited.
            assert!(h.try_take().is_none());
        }
        assert!(
            outcome.time < SimTime::ZERO + SimDuration::from_secs(1),
            "parking should drain the calendar quickly, ran to {}",
            outcome.time
        );
    }

    #[test]
    fn ha_takeover_from_parked_standby_on_client_probe() {
        let (mut sim, fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 1);
        // Crash the primary long after it parked (~4ms idle with fast_ha).
        let crash: Arc<dyn FaultHook> = Arc::new(CrashAt {
            rank: 0,
            at: SimTime::ZERO + SimDuration::from_millis(20),
        });
        fabric.set_fault_hook(Some(crash));
        let _handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 1, 2, fast_ha(), None);
        let standby = *replicas.last().unwrap();
        let cn = cns.remove(0);
        let h = sim.handle();
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(1)).await.unwrap();
            // Go idle past the park threshold AND the crash, then come
            // back: the first probes bounce off the parked standby, which
            // re-arms its silence timer, promotes, and serves.
            h.delay(SimDuration::from_millis(30)).await;
            let grants = client.allocate(JobId(2), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            assert_eq!(client.arm_rank(), standby);
            client.release_job(JobId(2)).await.unwrap();
            client.shutdown().await;
        });
        sim.run();
        result.try_take().expect("client never finished");
    }

    #[test]
    fn ha_duplicate_framed_request_is_deduped() {
        use crate::proto::frame_request;
        use dacc_fabric::codec::EncodeBuf;
        use dacc_fabric::payload::Payload;

        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 0);
        let handles = spawn_replicas(&sim, arm_eps, replicas, 1, 2, fast_ha(), None);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let mut enc = EncodeBuf::new();
            let req = ArmRequest::Allocate {
                job: JobId(7),
                count: 1,
                wait: false,
            };
            let mut responses = Vec::new();
            for _ in 0..2 {
                let bytes = frame_request(9, &req, &mut enc);
                cn.send(Rank(0), arm_tags::REQUEST, Payload::from_bytes(bytes))
                    .await;
                let env = cn.recv(Some(Rank(0)), Some(arm_tags::RESPONSE)).await;
                let raw = env.payload.bytes().unwrap();
                let (rid, body) = crate::proto::peek_frame(raw).expect("framed response");
                assert_eq!(rid, 9);
                responses.push(ArmResponse::decode(body).unwrap());
            }
            // Replay, not re-execution: the duplicate returns the cached
            // grant and only one accelerator left the pool.
            assert_eq!(responses[0], responses[1]);
            assert!(matches!(responses[0], ArmResponse::Granted(ref g) if g.len() == 1));
            let client = ArmClient::new(cn, Rank(0));
            let stats = client.query().await.unwrap();
            assert_eq!((stats.free, stats.assigned), (1, 1));
            client.shutdown().await;
        });
        sim.run();
        result.try_take().expect("client never finished");
        for h in handles {
            assert!(h.try_take().is_some(), "a replica never exited");
        }
    }
}
