//! The ARM's deterministic core, with no I/O: [`ArmState::apply`] executes
//! one decoded request at a virtual instant and appends what the replica
//! must do about it to an ordered effect list ([`Fx`]): replies and
//! notices already encoded, counters, gauges and plain-data [`Note`]s. It
//! never awaits,
//! sends or reads a clock: a primary performs the effects, a standby
//! replaying its log drops them, a test needs no simulator. The same
//! starting state and `(now, from, op_id, request)` sequence give a
//! bit-identical state, which is what makes input-log replication work.
//!
//! Two allocation paths coexist:
//!
//! * the legacy `Allocate` path — strict-FIFO wait queue, no tenancy —
//!   kept for clients that predate the scheduler, and
//! * the `SubmitJob` path, where an embedded [`Scheduler`] applies
//!   admission quotas, weighted fair share, priority bands, gang
//!   reservations, and oversubscription placement. The scheduler is a
//!   pure state machine too; `apply` snapshots pool capacity into it and
//!   applies the placements it returns.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;

use dacc_fabric::machine::Effects;
use dacc_fabric::mpi::Rank;
use dacc_fabric::topology::NodeId;
use dacc_sched::{Admitted, Capacity, JobReq, PlaceKind, Scheduler, TenantConfig, TenantId};
use dacc_sim::prelude::SimTime;

use crate::proto::{
    arm_tags, frame_response, ArmError, ArmEvent, ArmRequest, ArmResponse, EvictReason, Eviction,
    PoolStats,
};
use crate::state::{HealthEvent, JobId, Pool};

/// The ARM's effect list: the shared core, with no blocking call of its
/// own. A list is in the order the effects arose, so a primary that
/// performs them one by one reproduces its wire traffic, trace timestamps
/// and span boundaries exactly.
pub type Fx = Effects<Infallible, Note>;

/// Trace events and the request's span as plain data, rendered (under the
/// ARM's trace labels) only by a driver that records. Accelerators are by
/// id and jobs by number.
#[derive(Debug)]
pub enum Note {
    /// Open the request's span of this category, named after the
    /// requester: the request proper starts after the lazy sweep's effects,
    /// and its span closes once the list is performed.
    Begin(&'static str, Rank),
    /// `arm.failover`: job, lost accelerator, and the replacement's id and
    /// rank or why there is none.
    Failover(u64, usize, Result<(usize, usize), ArmError>),
    /// `arm.health`: what became of an accelerator.
    Health(usize, &'static str),
    /// An eviction under its category: job, accelerator, epoch and the
    /// replacement's id.
    Evicted(&'static str, u64, usize, u64, Option<usize>),
    /// `arm.sched`: a job's slice on a shared accelerator began under this
    /// epoch.
    Rotated(u64, usize, u64),
}

/// A legacy `Allocate` waiting for capacity.
pub(super) struct Waiting {
    pub(super) requester: Rank,
    pub(super) job: JobId,
    pub(super) count: u32,
    /// Dedupe id of the framed request that queued this entry (0 for
    /// legacy traffic); the eventual pushed grant echoes it.
    pub(super) op_id: u64,
}

/// A `SubmitJob` admitted to the scheduler and awaiting placement: where
/// to send the eventual `Granted`, and when it was submitted (for the
/// grant-latency histogram).
pub(super) struct PendingSubmit {
    pub(super) requester: Rank,
    pub(super) submitted: SimTime,
    /// Dedupe id of the framed submit (0 for legacy traffic).
    pub(super) op_id: u64,
}

/// The full mutable state of one ARM replica.
pub struct ArmState {
    pub(super) pool: Pool,
    pub(super) queue: VecDeque<Waiting>,
    /// Where each job's front-end can be reached for eviction notices
    /// (learned from the job's own requests).
    pub(super) contacts: HashMap<JobId, Rank>,
    pub(super) sched: Scheduler,
    pub(super) pending: HashMap<JobId, PendingSubmit>,
    /// Last completed framed operation per requester rank: replayed on
    /// retry instead of executing twice (mirrors the daemon dedupe path).
    pub(super) completed: HashMap<Rank, (u64, ArmResponse)>,
    /// The node a rank lives on, for placing grants near their requester.
    locate: Box<dyn Fn(Rank) -> NodeId>,
}

impl ArmState {
    /// A replica over `pool`. `locate` maps a requester's rank to its node
    /// (it matters only when the pool has locality, [`Pool::set_locality`]).
    pub fn new(pool: Pool, locate: impl Fn(Rank) -> NodeId + 'static) -> Self {
        // The scheduler is the policy brain for the SubmitJob path. Legacy
        // Allocate traffic bypasses it; the scheduler only sees capacity
        // that is actually free at dispatch time, so the two paths cannot
        // double-grant.
        let sched = Scheduler::new(pool.len() as u32);
        ArmState {
            pool,
            queue: VecDeque::new(),
            contacts: HashMap::new(),
            sched,
            pending: HashMap::new(),
            completed: HashMap::new(),
            locate: Box::new(locate),
        }
    }

    /// Give the pool back.
    pub fn into_pool(self) -> Pool {
        self.pool
    }

    /// What a `Query` answers: pool counters plus everyone waiting on
    /// either allocation path.
    pub fn stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        stats.queued_requests = self.queue.len() as u32 + self.sched.queue_depth();
        stats
    }

    /// Decode one inbound request: strip the dedupe frame, replay the
    /// cached response for a retry of an already-completed framed op,
    /// re-ack a retry of an op still queued for a pushed grant, and reject
    /// malformed bytes. Returns the request only when it must actually be
    /// executed; otherwise the answer is in `fx`.
    pub fn admit(
        &mut self,
        from: Rank,
        raw: Option<&[u8]>,
        fx: &mut Fx,
    ) -> Option<(u64, ArmRequest)> {
        let Some(raw) = raw else {
            self.reply(fx, from, 0, ArmResponse::Error(ArmError::Malformed));
            return None;
        };
        let (op_id, body) = crate::proto::peek_frame(raw).unwrap_or((0, raw));
        if op_id != 0 {
            if let Some((done, resp)) = self.completed.get(&from) {
                if *done == op_id {
                    let resp = resp.clone();
                    fx.count("arm.ha.dedupe", 1);
                    self.reply(fx, from, op_id, resp);
                    return None;
                }
            }
            // Still in flight (queued for a pushed grant): executing the
            // retry again would enqueue a duplicate. The grant will be
            // pushed when capacity frees; re-ack instead of staying silent
            // so a retrying waiter can tell "alive, still queued" from a
            // dead primary.
            let in_flight = self
                .queue
                .iter()
                .any(|w| w.requester == from && w.op_id == op_id)
                || self
                    .pending
                    .values()
                    .any(|p| p.requester == from && p.op_id == op_id);
            if in_flight {
                fx.count("arm.ha.dedupe", 1);
                self.reply(fx, from, op_id, ArmResponse::Queued { position: 0 });
                return None;
            }
        }
        match ArmRequest::decode(body) {
            Ok(r) => Some((op_id, r)),
            Err(e) => {
                self.reply(fx, from, op_id, ArmResponse::Error(e));
                None
            }
        }
    }

    /// Apply one decoded request at time `now`: health sweep, telemetry,
    /// then the request itself. Returns `true` on `Shutdown`.
    pub fn apply(
        &mut self,
        now: SimTime,
        from: Rank,
        op_id: u64,
        req: ArmRequest,
        fx: &mut Fx,
    ) -> bool {
        // Lazy health sweep: every received message advances the pool's
        // clocks (heartbeats from healthy daemons keep this frequent).
        let swept = self.pool.tick(now);
        if !swept.is_empty() {
            self.act_on(swept, fx);
            self.settle(now, fx);
        }
        // The request's category, and whether capacity it frees, repairs
        // or fence-acks may then satisfy a waiter.
        use ArmRequest as R;
        let (kind, settle) = match &req {
            R::Allocate { .. } => ("arm.allocate", false),
            R::SubmitJob { .. } => ("arm.submit", false),
            R::Release { .. } | R::ReleaseJob { .. } => ("arm.release", true),
            R::ReportFailure { .. } => ("arm.failover", false),
            R::Heartbeat { .. } | R::HeartbeatQ { .. } => ("arm.heartbeat", true),
            R::ProbeResult { .. } => ("arm.heartbeat", true),
            R::RenewLease { .. } => ("arm.lease", false),
            R::Drain { .. } => ("arm.drain", false),
            R::Repair { .. } => ("arm.other", true),
            _ => ("arm.other", false),
        };
        fx.count(kind, 1);
        // Occupancy gauges: once here (covers the lazy sweep above) and
        // again after the request is applied, so the exported value
        // reflects every submit/grant/release/evict transition rather than
        // the state as of the previous message.
        self.gauges(fx);
        fx.note(Note::Begin(kind, from));
        let shutdown = matches!(req, ArmRequest::Shutdown);
        if let Some(resp) = self.execute(now, from, op_id, req, fx) {
            self.reply(fx, from, op_id, resp);
        }
        if shutdown {
            return true;
        }
        if settle {
            self.settle(now, fx);
        }
        self.gauges(fx);
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
        false
    }

    /// The request's own transition. Returns the requester's answer if it
    /// gets one now (a queued legacy waiter, or a submit placed during its
    /// own dispatch, is answered elsewhere or later).
    fn execute(
        &mut self,
        now: SimTime,
        from: Rank,
        op_id: u64,
        req: ArmRequest,
        fx: &mut Fx,
    ) -> Option<ArmResponse> {
        let released = |released| ArmResponse::Released { released };
        Some(match req {
            ArmRequest::Allocate { job, count, wait } => {
                self.contacts.insert(job, from);
                // FIFO fairness: if anyone is already queued, new waiting
                // requests go behind them even if satisfiable now.
                let granted = if wait && !self.queue.is_empty() {
                    None
                } else {
                    let near = Some((self.locate)(from));
                    Some(self.pool.try_allocate_near(job, count, Some(now), near))
                };
                match granted {
                    Some(Ok(grants)) => ArmResponse::Granted(grants),
                    Some(Err(e)) if !(wait && matches!(e, ArmError::Insufficient { .. })) => {
                        ArmResponse::Error(e)
                    }
                    _ => {
                        self.queue.push_back(Waiting {
                            requester: from,
                            job,
                            count,
                            op_id,
                        });
                        // Legacy unframed waiters get nothing — the classic
                        // wire protocol stays byte-identical — while framed
                        // waiters use the ack (and its dedupe replay on
                        // retries) as a liveness signal during the
                        // open-ended wait for capacity.
                        let position = self.queue.len() as u32 - 1;
                        return (op_id != 0).then_some(ArmResponse::Queued { position });
                    }
                }
            }
            ArmRequest::SubmitJob {
                job,
                tenant,
                gang,
                share_ok,
                wait,
            } => {
                self.contacts.insert(job, from);
                let req = JobReq {
                    job: job.0,
                    tenant: TenantId(tenant),
                    gang,
                    share_ok,
                };
                let position = match self.sched.submit(req) {
                    Admitted::Rejected(reason) => {
                        fx.count("arm.sched.reject", 1);
                        return Some(ArmResponse::Error(ArmError::Rejected(reason)));
                    }
                    Admitted::Queued { position } => position,
                };
                let submitted = PendingSubmit {
                    requester: from,
                    submitted: now,
                    op_id,
                };
                self.pending.insert(job, submitted);
                self.sched_dispatch(now, fx);
                if !self.pending.contains_key(&job) {
                    // Placed at once: the grant went out from dispatch.
                    return None;
                }
                if wait {
                    // Granted comes later, once capacity frees.
                    ArmResponse::Queued { position }
                } else {
                    self.sched.cancel(job.0);
                    self.pending.remove(&job);
                    let free = self.pool.free_count();
                    ArmResponse::Error(ArmError::Insufficient {
                        requested: gang,
                        free,
                    })
                }
            }
            ArmRequest::SetTenant {
                tenant,
                weight,
                priority,
                max_accels,
                max_queued,
            } => {
                let cfg = TenantConfig {
                    weight: weight.max(1),
                    priority,
                    max_accels,
                    max_queued,
                };
                self.sched.set_tenant(TenantId(tenant), cfg);
                released(0)
            }
            ArmRequest::Release { job, accels } => {
                match self.pool.release_at(job, &accels, Some(now)) {
                    Ok((n, events)) => {
                        self.sched.released(job.0, accels.len() as u32);
                        self.act_on(events, fx);
                        released(n)
                    }
                    Err(e) => ArmResponse::Error(e),
                }
            }
            ArmRequest::ReleaseJob { job } => {
                let (n, events) = self.pool.release_job_at(job, Some(now));
                self.sched.finished(job.0);
                self.sched.cancel(job.0);
                self.pending.remove(&job);
                self.contacts.remove(&job);
                self.act_on(events, fx);
                released(n)
            }
            ArmRequest::MarkBroken { accel } => match self.pool.mark_broken(accel) {
                Ok(()) => released(0),
                Err(e) => ArmResponse::Error(e),
            },
            ArmRequest::Query => ArmResponse::Stats(self.stats()),
            ArmRequest::Repair { accel } => match self.pool.repair(accel) {
                Ok(()) => released(0),
                Err(e) => ArmResponse::Error(e),
            },
            ArmRequest::ReportFailure { job, accel } => {
                // Mark broken + fence, then grant a substitute in the same
                // round trip so the front-end can fail over without a
                // second request. Duplicate reports for the same loss
                // replay the first grant (no leaked replacements). The
                // broken accelerator stays nominally held by the job until
                // `ReleaseJob` (release tolerates broken).
                self.contacts.insert(job, from);
                let result = self.pool.report_failure(job, accel, Some(now));
                let replacement = (result.as_ref())
                    .map(|g| (g[0].accel.0, g[0].daemon_rank.0))
                    .map_err(|&e| e);
                fx.note(Note::Failover(job.0, accel.0, replacement));
                match result {
                    Ok(grants) => ArmResponse::Granted(grants),
                    Err(e) => ArmResponse::Error(e),
                }
            }
            ArmRequest::RenewLease { job } => {
                self.contacts.insert(job, from);
                let renewed = self.pool.renew_lease(job, now);
                ArmResponse::Renewed { renewed }
            }
            ArmRequest::Heartbeat { accel, fence, busy } => {
                beat_ack(self.pool.heartbeat(accel, fence, busy, now))
            }
            // Extended beat: identical liveness handling, plus the daemon's
            // admission run-queue depth feeds placement (a backed-up
            // accelerator is penalized by `try_allocate_near`).
            ArmRequest::HeartbeatQ {
                accel,
                fence,
                busy,
                queue_depth,
            } => beat_ack(
                self.pool
                    .heartbeat_depth(accel, fence, busy, queue_depth, now),
            ),
            ArmRequest::ProbeResult { accel, ok } => match self.pool.probe_result(accel, ok) {
                Ok(reintegrated) => {
                    // Only a passed probe reintegrates.
                    let what = match (ok, reintegrated) {
                        (_, true) => "probe passed: reintegrated on probation",
                        (true, false) => "probe passed: kept out of pool",
                        (false, false) => "probe failed: kept out of pool",
                    };
                    fx.note(Note::Health(accel.0, what));
                    released(u32::from(reintegrated))
                }
                Err(e) => ArmResponse::Error(e),
            },
            ArmRequest::Drain { accel } => match self.pool.drain(accel, Some(now)) {
                Ok(events) => {
                    let evicted = events.len() as u32;
                    self.act_on(events, fx);
                    released(evicted)
                }
                Err(e) => ArmResponse::Error(e),
            },
            ArmRequest::Shutdown => released(0),
        })
    }

    /// Answer `to`, recording the response in the dedupe table when the
    /// request was framed (`op_id != 0`) so a retry replays it instead of
    /// re-executing. The table updates on every replica — replay must
    /// reconstruct it — whether or not anyone performs the reply.
    fn reply(&mut self, fx: &mut Fx, to: Rank, op_id: u64, resp: ArmResponse) {
        respond(fx, to, op_id, &resp);
        if op_id != 0 {
            self.completed.insert(to, (op_id, resp));
        }
    }

    /// Export the ARM occupancy gauges from current state, on every state
    /// transition — not only when a query happens to arrive — so a
    /// telemetry scrape between messages always sees up-to-date values.
    fn gauges(&self, fx: &mut Fx) {
        let s = self.pool.stats();
        let depth = self.sched.queue_depth() + self.queue.len() as u32;
        let busy = f64::from(s.assigned) / f64::from((s.free + s.assigned).max(1));
        fx.gauge("arm.queue_depth", f64::from(depth));
        fx.gauge("arm.accel_utilization", busy);
    }

    /// Act on health-plane transitions: reconcile the scheduler's holdings
    /// (an eviction without a replacement shrinks the job's footprint by
    /// one, with one it is net zero, and unknown legacy-path jobs are
    /// no-ops), count and trace them, and forward evictions and slice
    /// rotations to the holding job's front-end as one-way notices (eager
    /// sends — a dead client can never wedge the ARM).
    fn act_on(&mut self, events: Vec<HealthEvent>, fx: &mut Fx) {
        for ev in &events {
            if let HealthEvent::Evicted {
                job,
                replacement: None,
                ..
            } = ev
            {
                self.sched.released(job.0, 1);
            }
        }
        for ev in events {
            match ev {
                HealthEvent::Suspected { accel } => {
                    fx.count("arm.health.suspect", 1);
                    fx.note(Note::Health(accel.0, "missed heartbeats: suspect"));
                }
                HealthEvent::Broke { accel } => {
                    fx.count("arm.health.broken", 1);
                    fx.note(Note::Health(accel.0, "permanently broken"));
                }
                HealthEvent::Evicted {
                    job,
                    accel,
                    epoch,
                    reason,
                    replacement,
                } => {
                    let kind = match reason {
                        EvictReason::LeaseExpired => "arm.lease.expired",
                        EvictReason::Quarantined => "arm.health.quarantine",
                        EvictReason::Drained => "arm.drain.evict",
                    };
                    fx.count(kind, 1);
                    let other = replacement.as_ref().map(|g| g.accel.0);
                    fx.note(Note::Evicted(kind, job.0, accel.0, epoch, other));
                    if let Some(&to) = self.contacts.get(&job) {
                        let event = ArmEvent::Evict(Eviction {
                            accel,
                            epoch,
                            reason,
                            replacement,
                        });
                        fx.send(to, arm_tags::EVENT, |enc| event.encode_into(enc));
                    }
                }
                HealthEvent::Rotated { job, accel, grant } => {
                    // A time slice rotated this job back onto a shared
                    // accelerator: forward the fresh grant (new epoch) so
                    // the front-end can resume issuing fenced ops.
                    fx.count("arm.sched.rotation", 1);
                    fx.note(Note::Rotated(job.0, accel.0, grant.epoch));
                    if let Some(&to) = self.contacts.get(&job) {
                        let event = ArmEvent::Slice { grant };
                        fx.send(to, arm_tags::EVENT, |enc| event.encode_into(enc));
                    }
                }
            }
        }
    }

    /// Hand freed capacity to waiters: the legacy queue first, strictly
    /// FIFO (the head blocks the rest, so large requests cannot be starved
    /// by a stream of small ones), then the scheduler.
    fn settle(&mut self, now: SimTime, fx: &mut Fx) {
        while let Some(head) = self.queue.front() {
            let near = Some((self.locate)(head.requester));
            match self
                .pool
                .try_allocate_near(head.job, head.count, Some(now), near)
            {
                Ok(grants) => {
                    let (to, op_id) = (head.requester, head.op_id);
                    self.queue.pop_front();
                    self.reply(fx, to, op_id, ArmResponse::Granted(grants));
                }
                Err(_) => break,
            }
        }
        self.sched_dispatch(now, fx);
    }

    /// Ask the scheduler what to start given the pool's current free
    /// capacity and apply its placements: exclusive gangs through
    /// `try_allocate_near` (opening a share domain when the job
    /// consented), shared singles through `try_join_share_at`. Grants are
    /// pushed to the submitters recorded in `pending`.
    fn sched_dispatch(&mut self, now: SimTime, fx: &mut Fx) {
        let cap = Capacity {
            free: self.pool.free_count(),
            share_slots: self.pool.share_slots(),
        };
        for p in self.sched.dispatch(cap) {
            let job = JobId(p.job);
            let result = match p.kind {
                PlaceKind::Exclusive => {
                    // Place the gang near the submitting front-end when we
                    // still know where it lives (pushed grants keep no
                    // contact once acknowledged).
                    let near = self.pending.get(&job).map(|ps| (self.locate)(ps.requester));
                    let pool = &mut self.pool;
                    pool.try_allocate_near(job, p.gang, Some(now), near)
                        .inspect(|grants| {
                            if p.share_ok && p.gang == 1 && pool.share_config().is_some() {
                                // Consenting single-accel job: open its
                                // accelerator for time-sliced co-residents.
                                let _ = pool.open_share(grants[0].accel, job);
                            }
                        })
                }
                PlaceKind::Shared => self.pool.try_join_share_at(job, Some(now)).map(|g| vec![g]),
            };
            let resp = match result {
                Ok(grants) => {
                    fx.count("arm.sched.grant", 1);
                    if let Some(ps) = self.pending.get(&job) {
                        let waited = now.saturating_since(ps.submitted);
                        fx.observe("arm.sched.grant_latency", waited);
                    }
                    ArmResponse::Granted(grants)
                }
                Err(e) => {
                    // The capacity snapshot went stale mid-application (e.g.
                    // a health transition). Roll the scheduler back and
                    // fail the submit rather than wedge it.
                    self.sched.released(p.job, p.gang);
                    ArmResponse::Error(e)
                }
            };
            if let Some(ps) = self.pending.remove(&job) {
                self.reply(fx, ps.requester, ps.op_id, resp);
            }
        }
    }

    /// Panic unless the pool's own invariants hold (no accelerator granted
    /// twice), the FIFO head does not wait beside enough free accelerators,
    /// and every pending submit has a contact. Debug builds check this
    /// after every [`ArmState::apply`].
    pub fn check_invariants(&self) {
        self.pool.check_invariants();
        if let Some(head) = self.queue.front() {
            let free = self.pool.free_count();
            assert!(
                head.count > free,
                "queue head (job {}, {} accels) waits beside {free} free",
                head.job.0,
                head.count
            );
        }
        for job in self.pending.keys() {
            assert!(
                self.contacts.contains_key(job),
                "pending job {} has no contact",
                job.0
            );
        }
    }
}

/// A heartbeat's answer.
fn beat_ack(ack: Result<(u64, bool), ArmError>) -> ArmResponse {
    match ack {
        Ok((fence, probe)) => ArmResponse::HeartbeatAck { fence, probe },
        Err(e) => ArmResponse::Error(e),
    }
}

/// Answer a client, framed with `op_id` unless it is 0.
pub(super) fn respond(fx: &mut Fx, to: Rank, op_id: u64, resp: &ArmResponse) {
    fx.send(to, arm_tags::RESPONSE, |enc| match op_id {
        0 => resp.encode_into(enc),
        _ => frame_response(op_id, resp, enc),
    });
}

#[cfg(test)]
mod tests {
    //! Property tests with no simulator: random request sequences on the
    //! legacy allocation path and non-waiting submits, against a small
    //! reference model of grants, epochs, queue positions, one tenant's
    //! quota and the dedupe table; and scheduler/pool interleavings with the
    //! health plane and sharing on, against the invariants alone.

    use super::*;
    use crate::health::HealthConfig;
    use crate::proto::{frame_request, peek_frame, GrantedAccelerator, RejectReason};
    use crate::state::{inventory, AcceleratorId, ShareConfig};
    use dacc_fabric::codec::EncodeBuf;
    use dacc_fabric::machine::Effect;
    use dacc_sim::prelude::SimDuration;
    use proptest::prelude::*;

    const ACCELS: usize = 4;

    /// One drawn step: a new request, or `None` to re-send the requester's
    /// last request under its op id. Allocations use jobs 0..4 and submits
    /// (tenant 0) jobs 10..14.
    fn request(kind: u8, id: usize, count: u32, wait: bool) -> Option<ArmRequest> {
        let (job, accel, submitted) = (JobId(id as u64), AcceleratorId(id), JobId(10 + id as u64));
        Some(match kind {
            0..=2 => ArmRequest::Allocate { job, count, wait },
            3 => ArmRequest::ReleaseJob { job },
            4 => ArmRequest::ReleaseJob { job: submitted },
            5 => ArmRequest::MarkBroken { accel },
            6 => ArmRequest::Repair { accel },
            7 => ArmRequest::Query,
            8 => ArmRequest::SubmitJob {
                job: submitted,
                tenant: 0,
                gang: count,
                share_ok: false,
                wait: false,
            },
            _ => return None,
        })
    }

    fn granted(i: usize, epoch: u64) -> GrantedAccelerator {
        GrantedAccelerator {
            accel: AcceleratorId(i),
            daemon_rank: Rank(100 + i),
            node: NodeId(10 + i),
            epoch,
        }
    }

    /// The reference: the legacy path on a pool without a health plane.
    #[derive(Default)]
    struct Model {
        holder: [Option<u64>; ACCELS],
        broken: [bool; ACCELS],
        epoch: [u64; ACCELS],
        /// Waiting allocations: requester, job, count, op id.
        queue: VecDeque<(Rank, u64, u32, u64)>,
        /// Tenant 0's accelerator quota, what it holds, and what each of its
        /// running jobs was last placed with (a re-submitted running job
        /// replaces its record, as the scheduler does).
        quota: u32,
        tenant_held: u32,
        running: HashMap<u64, u32>,
        completed: HashMap<Rank, (u64, ArmResponse)>,
        /// Replies, in order.
        out: Vec<(Rank, u64, ArmResponse)>,
    }

    impl Model {
        fn free(&self) -> Vec<usize> {
            (0..ACCELS)
                .filter(|&i| !self.broken[i] && self.holder[i].is_none())
                .collect()
        }

        fn reply(&mut self, to: Rank, op_id: u64, resp: ArmResponse) {
            self.completed.insert(to, (op_id, resp.clone()));
            self.out.push((to, op_id, resp));
        }

        /// The lowest-id free accelerators, each under a fresh epoch.
        fn take(&mut self, job: u64, count: u32) -> Result<Vec<GrantedAccelerator>, ArmError> {
            let free = self.free();
            if free.len() < count as usize {
                let free = free.len() as u32;
                return Err(ArmError::Insufficient {
                    requested: count,
                    free,
                });
            }
            let grants = free[..count as usize].iter().map(|&i| {
                self.holder[i] = Some(job);
                self.epoch[i] += 1;
                granted(i, self.epoch[i])
            });
            Ok(grants.collect())
        }

        fn settle(&mut self) {
            while let Some(&(to, job, count, op_id)) = self.queue.front() {
                let Ok(grants) = self.take(job, count) else {
                    break;
                };
                self.queue.pop_front();
                self.reply(to, op_id, ArmResponse::Granted(grants));
            }
        }

        fn execute(&mut self, from: Rank, op_id: u64, req: &ArmRequest) {
            let ok = ArmResponse::Released { released: 0 };
            match *req {
                ArmRequest::Allocate { job, count, wait } => {
                    let tried = (!wait || self.queue.is_empty()).then(|| self.take(job.0, count));
                    match tried {
                        Some(Ok(grants)) => self.reply(from, op_id, ArmResponse::Granted(grants)),
                        Some(Err(e)) if !wait => self.reply(from, op_id, ArmResponse::Error(e)),
                        _ => {
                            self.queue.push_back((from, job.0, count, op_id));
                            let position = self.queue.len() as u32 - 1;
                            self.reply(from, op_id, ArmResponse::Queued { position });
                        }
                    }
                }
                ArmRequest::SubmitJob { job, gang, .. } => {
                    let free = self.free().len() as u32;
                    let resp = if gang > self.quota {
                        let quota = self.quota;
                        let reason = RejectReason::QuotaAccels {
                            requested: gang,
                            quota,
                        };
                        ArmResponse::Error(ArmError::Rejected(reason))
                    } else if self.tenant_held + gang <= self.quota && free >= gang {
                        self.running.insert(job.0, gang);
                        self.tenant_held += gang;
                        ArmResponse::Granted(self.take(job.0, gang).unwrap())
                    } else {
                        ArmResponse::Error(ArmError::Insufficient {
                            requested: gang,
                            free,
                        })
                    };
                    self.reply(from, op_id, resp);
                }
                ArmRequest::SetTenant { max_accels, .. } => {
                    self.quota = max_accels;
                    self.reply(from, op_id, ok);
                }
                ArmRequest::ReleaseJob { job } => {
                    self.tenant_held -= self.running.remove(&job.0).unwrap_or(0);
                    let mut released = 0;
                    for i in 0..ACCELS {
                        if self.holder[i] == Some(job.0) {
                            self.holder[i] = None;
                            released += u32::from(!self.broken[i]);
                        }
                    }
                    self.reply(from, op_id, ArmResponse::Released { released });
                    self.settle();
                }
                ArmRequest::MarkBroken { accel } => {
                    self.broken[accel.0] = true;
                    self.reply(from, op_id, ok);
                }
                ArmRequest::Repair { accel } => {
                    if self.broken[accel.0] {
                        self.broken[accel.0] = false;
                        self.holder[accel.0] = None;
                    }
                    self.reply(from, op_id, ok);
                    self.settle();
                }
                ArmRequest::Query => {
                    let count = |f: &dyn Fn(usize) -> bool| (0..ACCELS).filter(|&i| f(i)).count();
                    let stats = PoolStats {
                        free: self.free().len() as u32,
                        assigned: count(&|i| !self.broken[i] && self.holder[i].is_some()) as u32,
                        broken: count(&|i| self.broken[i]) as u32,
                        queued_requests: self.queue.len() as u32,
                    };
                    self.reply(from, op_id, ArmResponse::Stats(stats));
                }
                _ => unreachable!("the model covers the legacy path"),
            }
        }

        /// What the server's dedupe table does with a re-sent request.
        fn retry(&mut self, from: Rank, op_id: u64, req: &ArmRequest) {
            match self.completed.get(&from) {
                Some((done, resp)) if *done == op_id => {
                    let resp = resp.clone();
                    self.reply(from, op_id, resp);
                }
                _ if self.queue.iter().any(|w| w.0 == from && w.3 == op_id) => {
                    self.reply(from, op_id, ArmResponse::Queued { position: 0 });
                }
                _ => self.execute(from, op_id, req),
            }
        }
    }

    /// The sends in `fx`, which it empties.
    fn sends(fx: &mut Fx) -> Vec<(Rank, dacc_fabric::mpi::Tag, bytes::Bytes)> {
        let each = fx.drain().filter_map(|e| match e {
            Effect::Send(to, tag, bytes) => Some((to, tag, bytes)),
            _ => None,
        });
        each.collect()
    }

    fn arm() -> ArmState {
        let nodes: Vec<NodeId> = (0..ACCELS).map(|i| NodeId(10 + i)).collect();
        let ranks: Vec<Rank> = (0..ACCELS).map(|i| Rank(100 + i)).collect();
        ArmState::new(Pool::new(inventory(&nodes, &ranks)), |r| NodeId(r.0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `admit` + `apply` answer every request, retries included, as
        /// the reference model does, with sends byte-identical whether or
        /// not the driver records, and a standby that installs the final
        /// snapshot holds the identical state.
        #[test]
        fn apply_matches_the_reference_model(
            quota in 1u32..4,
            record in any::<bool>(),
            steps in proptest::collection::vec((0u8..10, 1usize..4, 0usize..ACCELS, 1u32..4, any::<bool>()), 1..80)
        ) {
            let mut state = arm();
            let mut model = Model::default();
            let mut last: HashMap<Rank, (u64, ArmRequest)> = HashMap::new();
            let mut enc = EncodeBuf::new();
            let mut fx = Fx::new(record);
            // A twin that records the other way sends the same bytes.
            let (mut twin, mut twin_fx) = (arm(), Fx::new(!record));
            let tenant = ArmRequest::SetTenant {
                tenant: 0,
                weight: 1,
                priority: 0,
                max_accels: quota,
                max_queued: 8,
            };
            let steps = std::iter::once((u8::MAX, 1, 0, 0, false)).chain(steps);
            for (step, (kind, from, id, count, wait)) in steps.enumerate() {
                let now = SimTime::ZERO + SimDuration::from_micros(step as u64);
                let from = Rank(from);
                let drawn = if kind == u8::MAX { Some(tenant.clone()) } else { request(kind, id, count, wait) };
                let (op_id, req) = match drawn {
                    Some(req) => {
                        let op_id = step as u64 + 1;
                        model.execute(from, op_id, &req);
                        (op_id, req)
                    }
                    None => {
                        let Some((op_id, req)) = last.get(&from).cloned() else {
                            continue;
                        };
                        model.retry(from, op_id, &req);
                        (op_id, req)
                    }
                };
                let bytes = frame_request(op_id, &req, &mut enc);
                for (state, fx) in [(&mut state, &mut fx), (&mut twin, &mut twin_fx)] {
                    if let Some((op_id, req)) = state.admit(from, Some(&bytes), fx) {
                        state.apply(now, from, op_id, req, fx);
                    }
                }
                last.insert(from, (op_id, req));
                let sent = sends(&mut fx);
                prop_assert_eq!(&sent, &sends(&mut twin_fx));
                let replies: Vec<_> = (sent.into_iter())
                    .map(|(to, tag, bytes)| {
                        prop_assert_eq!(tag, arm_tags::RESPONSE);
                        let (op_id, body) = peek_frame(&bytes).unwrap();
                        (to, op_id, ArmResponse::decode(body).unwrap())
                    })
                    .collect();
                prop_assert_eq!(replies, std::mem::take(&mut model.out));
                prop_assert_eq!(state.stats().queued_requests, model.queue.len() as u32);
            }
            let mut standby = arm();
            standby.install(&state.snapshot()).unwrap();
            prop_assert_eq!(standby.snapshot(), state.snapshot());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Waiting and non-waiting submits, releases, heartbeats and
        /// queries (each one a lazy health sweep) in any order, on a pool
        /// with the health plane and sharing on, all through `apply`, so
        /// the scheduler's placements go through the server's own
        /// dispatch: the pool never grants twice, and no tenant holds more
        /// than its quota or queues more than four jobs.
        #[test]
        fn scheduler_pool_interleavings_hold_invariants(
            ops in proptest::collection::vec((0u8..5, 0u8..8, 1u32..4, any::<bool>()), 1..100)
        ) {
            const QUOTAS: [u32; 2] = [3, 2];
            let mut pool = arm().into_pool();
            pool.set_health(HealthConfig::default());
            pool.set_share(ShareConfig::default());
            let mut state = ArmState::new(pool, |r| NodeId(r.0));
            let mut fx = Fx::new(true);
            for (t, &max_accels) in QUOTAS.iter().enumerate() {
                let tenant = t as u32;
                let req = ArmRequest::SetTenant { tenant, weight: tenant + 1, priority: 0, max_accels, max_queued: 4 };
                state.apply(SimTime::ZERO, Rank(1), 0, req, &mut fx);
            }
            let mut jobs = 0u64;
            for (step, (op, sel, n, flag)) in ops.into_iter().enumerate() {
                let now = SimTime::ZERO + SimDuration::from_millis(step as u64 + 1);
                let tenant = u32::from(sel) % 2;
                let req = match op {
                    0 | 1 => {
                        jobs += 1;
                        let job = JobId(jobs);
                        ArmRequest::SubmitJob { job, tenant, gang: n, share_ok: flag, wait: op == 0 }
                    }
                    2 => ArmRequest::ReleaseJob { job: JobId(u64::from(sel) % (jobs + 1)) },
                    3 => ArmRequest::Heartbeat { accel: AcceleratorId(usize::from(sel) % ACCELS), fence: 0, busy: n },
                    _ => ArmRequest::Query,
                };
                state.apply(now, Rank(1 + tenant as usize), 0, req, &mut fx);
                fx.drain();
                state.check_invariants();
                for (t, &quota) in QUOTAS.iter().enumerate() {
                    let (held, queued) = state.sched.tenant_load(TenantId(t as u32));
                    prop_assert!(held <= quota, "tenant {} holds {} > quota {}", t, held, quota);
                    prop_assert!(queued <= 4, "tenant {} queue {} > quota 4", t, queued);
                }
            }
        }
    }
}
