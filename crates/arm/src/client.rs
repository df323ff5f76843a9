//! Client side of the resource-management API (§III-C).
//!
//! Compute-node processes use this next to the computation API: request
//! accelerators before (static assignment) or during (dynamic assignment)
//! the job, and release them when done.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::mpi::{Endpoint, Rank};
use dacc_fabric::payload::Payload;
use dacc_sim::prelude::SimDuration;

use crate::proto::{
    arm_tags, frame_request, peek_frame, ArmError, ArmEvent, ArmRequest, ArmResponse, Eviction,
    GrantedAccelerator, PoolStats,
};
use crate::state::{AcceleratorId, JobId};

/// Per-request reliability budget for [`ArmClient::with_replicas`]:
/// each request is framed with a dedupe id, waits at most `timeout` per
/// attempt, and rotates to the next replica between attempts (mirroring
/// the daemon retry path). Exceeding `attempts` yields
/// [`ArmError::Unreachable`] instead of hanging forever.
#[derive(Clone, Copy, Debug)]
pub struct ArmRetryConfig {
    /// How long one attempt waits for a response before retrying.
    pub timeout: SimDuration,
    /// Total attempts (including the first) before giving up.
    pub attempts: u32,
    /// Pause between attempts, giving a standby time to promote.
    pub backoff: SimDuration,
}

impl Default for ArmRetryConfig {
    fn default() -> Self {
        ArmRetryConfig {
            timeout: SimDuration::from_millis(10),
            attempts: 5,
            backoff: SimDuration::from_millis(1),
        }
    }
}

/// A compute-node process's connection to the ARM.
///
/// Clones share the event mailboxes: proactive [`Eviction`] notices and
/// time-slice reactivation grants from the ARM are pumped off the fabric
/// into them, and each resilient session takes the notices addressed to
/// its accelerator. Clones also share the dedupe-id counter and the
/// current-primary cursor, so concurrent clones never reuse a request id
/// and a failover discovered by one clone redirects them all.
///
/// Request/response calls must not be interleaved across clones of the
/// same endpoint: each call assumes the next `RESPONSE` frame on the
/// endpoint answers it (stale frames from its own timed-out attempts are
/// recognised by dedupe id and skipped).
#[derive(Clone)]
pub struct ArmClient {
    ep: Endpoint,
    /// ARM replica ranks, primary-first. Single-element for the classic
    /// unreplicated deployment.
    replicas: Vec<Rank>,
    /// Index into `replicas` of the replica currently believed primary.
    current: Rc<Cell<usize>>,
    /// `None` preserves the legacy wire format (unframed requests, no
    /// timeout — the response is awaited forever).
    retry: Option<ArmRetryConfig>,
    /// Next dedupe request id (ids start at 1; 0 marks unframed legacy
    /// traffic on the wire).
    next_op: Rc<Cell<u64>>,
    evictions: Rc<RefCell<VecDeque<Eviction>>>,
    slices: Rc<RefCell<VecDeque<GrantedAccelerator>>>,
    /// Shared encode arena: clones serialise their requests into one
    /// reusable buffer instead of allocating per message.
    enc: Rc<RefCell<EncodeBuf>>,
}

impl ArmClient {
    /// Connect `ep`'s process to the ARM at rank `arm` (legacy wire
    /// format, no timeouts: a lost response blocks forever).
    pub fn new(ep: Endpoint, arm: Rank) -> Self {
        ArmClient {
            ep,
            replicas: vec![arm],
            current: Rc::new(Cell::new(0)),
            retry: None,
            next_op: Rc::new(Cell::new(1)),
            evictions: Rc::new(RefCell::new(VecDeque::new())),
            slices: Rc::new(RefCell::new(VecDeque::new())),
            enc: Rc::new(RefCell::new(EncodeBuf::new())),
        }
    }

    /// Connect to a replicated ARM: requests carry dedupe ids, wait at
    /// most `retry.timeout` per attempt, and fail over to the next
    /// replica on silence or a `NotPrimary` bounce. Also usable with a
    /// single replica purely for the timeout/retry behaviour.
    pub fn with_replicas(ep: Endpoint, replicas: Vec<Rank>, retry: ArmRetryConfig) -> Self {
        assert!(!replicas.is_empty(), "need at least one ARM replica");
        ArmClient {
            ep,
            replicas,
            current: Rc::new(Cell::new(0)),
            retry: Some(retry),
            next_op: Rc::new(Cell::new(1)),
            evictions: Rc::new(RefCell::new(VecDeque::new())),
            slices: Rc::new(RefCell::new(VecDeque::new())),
            enc: Rc::new(RefCell::new(EncodeBuf::new())),
        }
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// The rank of the ARM replica currently believed to be primary.
    pub fn arm_rank(&self) -> Rank {
        self.replicas[self.current.get() % self.replicas.len()]
    }

    /// Advance the current-primary cursor to the next replica.
    fn rotate(&self) {
        self.current
            .set((self.current.get() + 1) % self.replicas.len());
    }

    /// True when an ARM eviction notice is waiting (either already pumped
    /// into the mailbox or still sitting on the fabric). Non-blocking and
    /// non-consuming: safe to poll from a retry loop to cut a doomed
    /// timeout budget short.
    pub fn eviction_pending(&self) -> bool {
        !self.evictions.borrow().is_empty()
            || self
                .replicas
                .iter()
                .any(|&r| self.ep.iprobe(Some(r), Some(arm_tags::EVENT)).is_some())
    }

    /// Drain any one-way ARM events off the fabric into the shared
    /// mailboxes: eviction notices and time-slice reactivation grants.
    /// Probes every replica, so after a takeover the `EVENT` push channel
    /// re-subscribes transparently — notices pushed by the new primary
    /// are picked up without client reconfiguration.
    pub async fn pump_evictions(&self) {
        while let Some(src) = self
            .replicas
            .iter()
            .copied()
            .find(|&r| self.ep.iprobe(Some(r), Some(arm_tags::EVENT)).is_some())
        {
            let env = self.ep.recv(Some(src), Some(arm_tags::EVENT)).await;
            match env.payload.bytes().and_then(|b| ArmEvent::decode(b).ok()) {
                Some(ArmEvent::Evict(ev)) => self.evictions.borrow_mut().push_back(ev),
                Some(ArmEvent::Slice { grant }) => self.slices.borrow_mut().push_back(grant),
                None => {}
            }
        }
    }

    /// Take the oldest pending eviction notice for `accel`, if any.
    /// Pump first ([`ArmClient::pump_evictions`]) to see fresh notices.
    pub fn take_eviction(&self, accel: AcceleratorId) -> Option<Eviction> {
        let mut mailbox = self.evictions.borrow_mut();
        let idx = mailbox.iter().position(|e| e.accel == accel)?;
        mailbox.remove(idx)
    }

    /// Take the oldest pending time-slice reactivation grant for `accel`,
    /// if any: the ARM rotated this job back to active residency on a
    /// shared accelerator and the grant carries the fresh epoch to adopt.
    /// Pump first ([`ArmClient::pump_evictions`]) to see fresh grants.
    pub fn take_slice_grant(&self, accel: AcceleratorId) -> Option<GrantedAccelerator> {
        let mut mailbox = self.slices.borrow_mut();
        let idx = mailbox.iter().position(|g| g.accel == accel)?;
        mailbox.remove(idx)
    }

    /// Send `req` to the replica currently believed primary: framed with
    /// its dedupe id, or (`None`) in the legacy unframed format. Re-sending
    /// a framed request is idempotent — the server's dedupe cache answers.
    async fn send_request(&self, op_id: Option<u64>, req: &ArmRequest) {
        let bytes = match op_id {
            Some(id) => frame_request(id, req, &mut self.enc.borrow_mut()),
            None => req.encode_into(&mut self.enc.borrow_mut()),
        };
        let tele = self.ep.fabric().telemetry();
        tele.count("wire.encode_bytes", bytes.len() as u64);
        self.ep
            .send(
                self.arm_rank(),
                arm_tags::REQUEST,
                Payload::from_bytes(bytes),
            )
            .await;
    }

    /// Await the reply to operation `op_id` from `src` (`None`: from any
    /// replica), skipping stale frames — replies to this client's own
    /// timed-out earlier requests. `None` when `timeout` passed without
    /// one; no `timeout` waits forever. Legacy traffic (`op_id` `None`) is
    /// unframed, so the next message is the reply.
    async fn recv_reply(
        &self,
        src: Option<Rank>,
        op_id: Option<u64>,
        timeout: Option<SimDuration>,
    ) -> Option<ArmResponse> {
        loop {
            let env = match timeout {
                Some(t) => {
                    self.ep
                        .recv_timeout(src, Some(arm_tags::RESPONSE), t)
                        .await?
                }
                None => self.ep.recv(src, Some(arm_tags::RESPONSE)).await,
            };
            let bytes = env.payload.bytes().map_or(&[][..], |b| b.as_ref());
            let body = match op_id {
                None => bytes,
                Some(id) => match peek_frame(bytes) {
                    Some((rid, body)) if rid == id => body,
                    _ => continue,
                },
            };
            let resp = ArmResponse::decode(body);
            return Some(resp.unwrap_or(ArmResponse::Error(ArmError::Malformed)));
        }
    }

    /// One request, start to finish. Without a retry budget this is a
    /// single attempt: unframed, awaited forever, the RTT sampled at the
    /// first reply. With one, the request is framed with a fresh dedupe
    /// id, each attempt is bounded by `timeout`, and silence or a
    /// `NotPrimary` bounce rotates to the next replica after `backoff`;
    /// the RTT is sampled only on a direct answer. A `Queued` ack (waiting
    /// allocation or scheduler admission) hands off to
    /// [`ArmClient::await_grant`].
    async fn request(&self, req: ArmRequest) -> ArmResponse {
        let op_id = self.retry.map(|_| {
            let id = self.next_op.get();
            self.next_op.set(id + 1);
            id
        });
        let (attempts, timeout) = self
            .retry
            .map_or((1, None), |cfg| (cfg.attempts.max(1), Some(cfg.timeout)));
        let fabric = self.ep.fabric();
        let handle = fabric.handle();
        let start = handle.now();
        for attempt in 0..attempts {
            let target = self.arm_rank();
            self.send_request(op_id, &req).await;
            let reply = self.recv_reply(Some(target), op_id, timeout).await;
            // Silence or a standby's bounce moves a retried request on; an
            // unretried one takes whatever comes back.
            let bounced = matches!(reply, None | Some(ArmResponse::Error(ArmError::NotPrimary)));
            if let Some(resp) = reply.filter(|_| op_id.is_none() || !bounced) {
                let queued = matches!(resp, ArmResponse::Queued { .. });
                if op_id.is_none() || !queued {
                    let rtt = handle.now().since(start);
                    fabric.telemetry().observe("arm.client.rtt", rtt);
                }
                if queued {
                    return self.await_grant(op_id, &req).await;
                }
                return resp;
            }
            fabric.telemetry().count("arm.client.retries", 1);
            self.rotate();
            if let Some(cfg) = self.retry.filter(|_| attempt + 1 < attempts) {
                handle.delay(cfg.backoff).await;
            }
        }
        ArmResponse::Error(ArmError::Unreachable)
    }

    /// Second phase of a waiting request: the job is queued server-side
    /// and the grant will be pushed when capacity frees. Unretried, the
    /// grant is simply the next reply, awaited forever. Retried, it waits
    /// without an overall deadline (that is the semantics of `wait`), but
    /// probes liveness: after `timeout` of silence it re-sends the same
    /// framed request to the current replica, whose dedupe cache re-acks
    /// `Queued` (still waiting), replays the grant (sent but lost to a
    /// crash), or — on a freshly promoted standby — finds the replayed
    /// queue entry and re-acks from there. Only `attempts` consecutive
    /// silent probes end the wait with [`ArmError::Unreachable`].
    async fn await_grant(&self, op_id: Option<u64>, req: &ArmRequest) -> ArmResponse {
        let Some(cfg) = self.retry else {
            let reply = self.recv_reply(Some(self.arm_rank()), None, None).await;
            return reply.unwrap_or(ArmResponse::Error(ArmError::Unreachable));
        };
        let tele = self.ep.fabric().telemetry();
        let mut silent = 0u32;
        loop {
            match self.recv_reply(None, op_id, Some(cfg.timeout)).await {
                // Alive and still queued: keep waiting.
                Some(ArmResponse::Queued { .. }) => {
                    silent = 0;
                    continue;
                }
                // Probed a standby: try the next replica. `silent` is
                // deliberately NOT reset, so a cluster with no live primary
                // still runs out of budget instead of ping-ponging.
                Some(ArmResponse::Error(ArmError::NotPrimary)) => {}
                Some(resp) => return resp,
                // The replica we were listening to has gone quiet — it may
                // have crashed. Probe the next one; a standby bounces us
                // onward, a promoted primary re-acks from its replayed
                // queue.
                None => {
                    silent += 1;
                    if silent >= cfg.attempts.max(1) {
                        return ArmResponse::Error(ArmError::Unreachable);
                    }
                }
            }
            tele.count("arm.client.retries", 1);
            self.rotate();
            self.send_request(op_id, req).await;
        }
    }

    /// Allocate `count` accelerators for `job`, failing fast on shortage.
    pub async fn allocate(
        &self,
        job: JobId,
        count: u32,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        self.allocate_inner(job, count, false).await
    }

    /// Allocate `count` accelerators for `job`, queueing until available.
    pub async fn allocate_waiting(
        &self,
        job: JobId,
        count: u32,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        self.allocate_inner(job, count, true).await
    }

    async fn allocate_inner(
        &self,
        job: JobId,
        count: u32,
        wait: bool,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        match self
            .request(ArmRequest::Allocate { job, count, wait })
            .await
        {
            ArmResponse::Granted(g) => Ok(g),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Submit `job` through the multi-tenant scheduler: admission quotas,
    /// weighted fair share, and gang (all-or-nothing) placement. With
    /// `share_ok` a single-accelerator job consents to time-sliced
    /// co-residency on a shared accelerator. With `wait` the call blocks
    /// (a `Queued` ack arrives first, then the grant once capacity frees);
    /// without it an unplaceable job fails fast with
    /// [`ArmError::Insufficient`]. Quota and sizing violations fail with
    /// [`ArmError::Rejected`] either way.
    pub async fn submit_job(
        &self,
        job: JobId,
        tenant: u32,
        gang: u32,
        share_ok: bool,
        wait: bool,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        let req = ArmRequest::SubmitJob {
            job,
            tenant,
            gang,
            share_ok,
            wait,
        };
        match self.request(req).await {
            ArmResponse::Granted(g) => Ok(g),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Configure (or reconfigure) a tenant's scheduling parameters:
    /// fair-share `weight`, `priority` band (higher preempts lower at
    /// dispatch), and admission quotas (`max_accels` held at once,
    /// `max_queued` jobs waiting).
    pub async fn set_tenant(
        &self,
        tenant: u32,
        weight: u32,
        priority: u8,
        max_accels: u32,
        max_queued: u32,
    ) -> Result<(), ArmError> {
        match self
            .request(ArmRequest::SetTenant {
                tenant,
                weight,
                priority,
                max_accels,
                max_queued,
            })
            .await
        {
            ArmResponse::Released { .. } => Ok(()),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Release specific accelerators held by `job`.
    pub async fn release(&self, job: JobId, accels: &[AcceleratorId]) -> Result<u32, ArmError> {
        match self
            .request(ArmRequest::Release {
                job,
                accels: accels.to_vec(),
            })
            .await
        {
            ArmResponse::Released { released } => Ok(released),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Release everything `job` holds (called automatically at job end).
    pub async fn release_job(&self, job: JobId) -> Result<u32, ArmError> {
        match self.request(ArmRequest::ReleaseJob { job }).await {
            ArmResponse::Released { released } => Ok(released),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Failover (§III-A): report `accel` dead and receive a replacement
    /// grant in the same round trip. The broken accelerator is excluded
    /// from all future grants until repaired.
    pub async fn report_failure(
        &self,
        job: JobId,
        accel: AcceleratorId,
    ) -> Result<GrantedAccelerator, ArmError> {
        match self.request(ArmRequest::ReportFailure { job, accel }).await {
            ArmResponse::Granted(mut g) if g.len() == 1 => Ok(g.remove(0)),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Report an accelerator broken.
    pub async fn mark_broken(&self, accel: AcceleratorId) -> Result<(), ArmError> {
        match self.request(ArmRequest::MarkBroken { accel }).await {
            ArmResponse::Released { .. } => Ok(()),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Return a repaired accelerator to the pool.
    pub async fn repair(&self, accel: AcceleratorId) -> Result<(), ArmError> {
        match self.request(ArmRequest::Repair { accel }).await {
            ArmResponse::Released { .. } => Ok(()),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Explicitly renew the leases on everything `job` holds (the
    /// lightweight keep-alive for clients idle between phases; active
    /// traffic renews implicitly via daemon heartbeats). Returns how many
    /// assignments were renewed.
    pub async fn renew_lease(&self, job: JobId) -> Result<u32, ArmError> {
        match self.request(ArmRequest::RenewLease { job }).await {
            ArmResponse::Renewed { renewed } => Ok(renewed),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Migrate any holder off `accel` (maintenance/rebalance) and return
    /// it to the pool. The holder is notified proactively with a
    /// replacement grant and replays its command log there.
    pub async fn drain(&self, accel: AcceleratorId) -> Result<u32, ArmError> {
        match self.request(ArmRequest::Drain { accel }).await {
            ArmResponse::Released { released } => Ok(released),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Query pool counters.
    pub async fn query(&self) -> Result<PoolStats, ArmError> {
        match self.request(ArmRequest::Query).await {
            ArmResponse::Stats(s) => Ok(s),
            ArmResponse::Error(e) => Err(e),
            _ => Err(ArmError::Malformed),
        }
    }

    /// Ask the ARM server to stop (simulation tear-down).
    pub async fn shutdown(&self) {
        let _ = self.request(ArmRequest::Shutdown).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::frame_response;
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};
    use dacc_sim::prelude::*;

    /// ARM frames carry no CRC, so a corrupted variant byte can turn a
    /// grant into a valid reply of another kind. A hand-driven fake ARM
    /// answers `allocate` with `Released`: the client returns
    /// `Malformed`, unframed and framed alike, instead of panicking.
    #[test]
    fn reply_of_the_wrong_kind_is_malformed() {
        for retry in [None, Some(ArmRetryConfig::default())] {
            let mut sim = Sim::new();
            let h = sim.handle();
            let fabric = Fabric::new(&h, Topology::new(&h, 2, FabricParams::qdr_infiniband()));
            let arm = fabric.add_endpoint(NodeId(0));
            let cn = fabric.add_endpoint(NodeId(1));
            sim.spawn("fake-arm", async move {
                let env = arm.recv(None, Some(arm_tags::REQUEST)).await;
                let raw = env.payload.bytes().expect("a functional request");
                let resp = ArmResponse::Released { released: 1 };
                let mut enc = EncodeBuf::new();
                let bytes = match peek_frame(raw) {
                    Some((op_id, _)) => frame_response(op_id, &resp, &mut enc),
                    None => resp.encode_into(&mut enc),
                };
                arm.send(env.src, arm_tags::RESPONSE, Payload::from_bytes(bytes))
                    .await;
            });
            let out = sim.spawn("cn", async move {
                let client = match retry {
                    None => ArmClient::new(cn, Rank(0)),
                    Some(cfg) => ArmClient::with_replicas(cn, vec![Rank(0)], cfg),
                };
                client.allocate(JobId(1), 1).await
            });
            sim.run();
            assert_eq!(out.try_take(), Some(Err(ArmError::Malformed)));
        }
    }

    /// `release_job` and `query` treat a reply of the wrong kind like
    /// their siblings do: a fake ARM answers both with an empty grant, and
    /// each returns `Malformed`, unframed and framed alike.
    #[test]
    fn release_job_and_query_reject_a_reply_of_the_wrong_kind() {
        for retry in [None, Some(ArmRetryConfig::default())] {
            let mut sim = Sim::new();
            let h = sim.handle();
            let fabric = Fabric::new(&h, Topology::new(&h, 2, FabricParams::qdr_infiniband()));
            let arm = fabric.add_endpoint(NodeId(0));
            let cn = fabric.add_endpoint(NodeId(1));
            sim.spawn("fake-arm", async move {
                let mut enc = EncodeBuf::new();
                for _ in 0..2 {
                    let env = arm.recv(None, Some(arm_tags::REQUEST)).await;
                    let raw = env.payload.bytes().expect("a functional request");
                    let resp = ArmResponse::Granted(Vec::new());
                    let bytes = match peek_frame(raw) {
                        Some((op_id, _)) => frame_response(op_id, &resp, &mut enc),
                        None => resp.encode_into(&mut enc),
                    };
                    arm.send(env.src, arm_tags::RESPONSE, Payload::from_bytes(bytes))
                        .await;
                }
            });
            let out = sim.spawn("cn", async move {
                let client = match retry {
                    None => ArmClient::new(cn, Rank(0)),
                    Some(cfg) => ArmClient::with_replicas(cn, vec![Rank(0)], cfg),
                };
                (client.release_job(JobId(1)).await, client.query().await)
            });
            sim.run();
            assert_eq!(
                out.try_take(),
                Some((Err(ArmError::Malformed), Err(ArmError::Malformed)))
            );
        }
    }
}
