//! `dacc-sched` — the multi-tenant accelerator scheduler.
//!
//! The ARM's original allocator was a free list with a strict-FIFO wait
//! queue: one grant at a time, no tenancy, no sharing. This crate is the
//! policy brain that replaces it, as a *pure state machine*: the ARM
//! server owns the [`Pool`](../dacc_arm/state/struct.Pool.html) and the
//! fabric; the scheduler only decides **which queued job starts next and
//! how it is placed**. Keeping it pure (no clock, no I/O — callers pass a
//! capacity snapshot in and apply placements out) makes every policy
//! directly unit- and property-testable.
//!
//! Four mechanisms, layered:
//!
//! * **Weighted fair share** — start-time fair queuing (SFQ): each job is
//!   tagged with a virtual start time `max(vnow, tenant.vtail)` and a
//!   virtual finish `vstart + gang/weight`; dispatch serves the eligible
//!   job with the smallest start tag. Virtual time only moves forward, so
//!   a backlogged tenant can lag its entitlement by at most one job —
//!   starvation-free by construction — and an idle tenant cannot hoard
//!   credit (its tail is clamped up to `vnow` on the next submit).
//! * **Priority bands** — dispatch considers the highest priority band
//!   with eligible work first; fair share operates *within* a band.
//!   Bands are strict (document your tenants accordingly).
//! * **Gang allocation** — a job's `gang` accelerators are granted all or
//!   nothing. When the best job does not fit, it becomes the *blocked
//!   head* holding a reservation: smaller jobs may still backfill, but
//!   only [`SchedConfig::max_leapfrogs`] times; after that the scheduler
//!   idles capacity until the head starts. Bounded bypass = no
//!   starvation, without needing runtime estimates.
//! * **Quotas** — admission control at submit (`max_queued` queued jobs
//!   per tenant, and a gang larger than `max_accels` can never run) plus
//!   a dispatch-time hold (a tenant at its `max_accels` concurrency stops
//!   being eligible until it releases; its quota-blocked head does not
//!   block other tenants).
//!
//! Oversubscription is a *placement kind*, not a policy here: a
//! single-accelerator job that declared `share_ok` may be placed onto an
//! already-assigned accelerator's spare share slot
//! ([`PlaceKind::Shared`]). The pool enforces the safety story (epoch
//! fencing of rotated-out holders); the scheduler only decides when a
//! shared slot is preferable to waiting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap, VecDeque};

/// Identifies a tenant (an accounting principal: user, team, or service).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TenantId(pub u32);

/// Per-tenant scheduling configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TenantConfig {
    /// Fair-share weight (relative accelerator share under contention).
    /// Zero is treated as one.
    pub weight: u32,
    /// Priority band; higher bands are served strictly first.
    pub priority: u8,
    /// Max accelerators the tenant may hold concurrently, and the largest
    /// gang it may request.
    pub max_accels: u32,
    /// Max jobs the tenant may have queued (admission control).
    pub max_queued: u32,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            priority: 0,
            max_accels: u32::MAX,
            max_queued: u32::MAX,
        }
    }
}

impl TenantConfig {
    /// A tenant with `weight` and no quotas.
    pub fn weighted(weight: u32) -> Self {
        TenantConfig {
            weight,
            ..TenantConfig::default()
        }
    }
}

/// Scheduler tuning.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// How many jobs may backfill past a capacity-blocked gang before the
    /// scheduler holds capacity for it (bounded-bypass starvation guard).
    pub max_leapfrogs: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { max_leapfrogs: 8 }
    }
}

/// A job submission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobReq {
    /// Job identity (the ARM's `JobId`).
    pub job: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Accelerators required, granted all-or-nothing.
    pub gang: u32,
    /// The job tolerates a time-sliced share of one accelerator
    /// (only meaningful for `gang == 1`).
    pub share_ok: bool,
}

/// Why admission control refused a submission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The gang exceeds the whole pool (or is zero) — never satisfiable.
    TooLarge {
        /// Accelerators requested.
        requested: u32,
        /// Accelerators in the pool.
        pool: u32,
    },
    /// The gang exceeds the tenant's concurrency quota — never satisfiable.
    QuotaAccels {
        /// Accelerators requested.
        requested: u32,
        /// The tenant's `max_accels`.
        quota: u32,
    },
    /// The tenant's queue is full.
    QuotaQueue {
        /// Jobs the tenant already has queued.
        depth: u32,
        /// The tenant's `max_queued`.
        quota: u32,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::TooLarge { requested, pool } => {
                write!(f, "gang of {requested} exceeds pool of {pool}")
            }
            RejectReason::QuotaAccels { requested, quota } => {
                write!(f, "gang of {requested} exceeds tenant quota of {quota}")
            }
            RejectReason::QuotaQueue { depth, quota } => {
                write!(f, "tenant queue full ({depth} of {quota})")
            }
        }
    }
}

/// Admission verdict for a submission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admitted {
    /// Accepted and queued (dispatch decides when it starts). `position`
    /// is the total number of jobs queued ahead of it at admission.
    Queued {
        /// Jobs queued ahead at admission time.
        position: u32,
    },
    /// Refused by admission control; nothing was queued.
    Rejected(RejectReason),
}

/// A capacity snapshot the caller takes from the pool just before
/// [`Scheduler::dispatch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Capacity {
    /// Accelerators grantable exclusively right now.
    pub free: u32,
    /// Spare share slots on already-assigned accelerators (0 when
    /// oversubscription is off).
    pub share_slots: u32,
}

/// How a dispatched job is to be placed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlaceKind {
    /// Whole accelerators, exclusively.
    Exclusive,
    /// A time-sliced share of one already-assigned accelerator.
    Shared,
}

/// One dispatch decision: start this job now.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Placement {
    /// The job to start.
    pub job: u64,
    /// Its tenant.
    pub tenant: TenantId,
    /// Accelerators to grant (1 for `Shared`).
    pub gang: u32,
    /// Exclusive grant or shared slot.
    pub kind: PlaceKind,
    /// The job declared itself shareable at submit (an `Exclusive`
    /// placement of such a job may open a new share domain).
    pub share_ok: bool,
}

#[derive(Clone, Copy, Debug)]
struct QJob {
    job: u64,
    gang: u32,
    share_ok: bool,
    vstart: f64,
    /// The tenant's `vtail` before this job was tagged (for exact rollback
    /// when the tail job is cancelled).
    prev_vtail: f64,
    seq: u64,
}

struct TenantState {
    cfg: TenantConfig,
    /// Virtual finish tag of the last job enqueued (the SFQ chain).
    vtail: f64,
    queue: VecDeque<QJob>,
    /// Accelerators (or share slots) currently held via this scheduler.
    held: u32,
}

impl TenantState {
    fn new(cfg: TenantConfig) -> Self {
        TenantState {
            cfg,
            vtail: 0.0,
            queue: VecDeque::new(),
            held: 0,
        }
    }
}

struct Running {
    tenant: u32,
    held: u32,
}

/// The multi-tenant scheduler state machine (see module docs).
pub struct Scheduler {
    config: SchedConfig,
    pool_size: u32,
    tenants: BTreeMap<u32, TenantState>,
    running: HashMap<u64, Running>,
    /// Global virtual clock: the largest start tag ever served.
    vnow: f64,
    seq: u64,
    /// The capacity-blocked job currently holding a reservation, if any.
    blocked_head: Option<u64>,
    /// Jobs that have leapfrogged the blocked head since it blocked.
    head_skips: u32,
    queued_total: u32,
}

impl Scheduler {
    /// A scheduler over a pool of `pool_size` accelerators.
    pub fn new(pool_size: u32) -> Self {
        Self::with_config(pool_size, SchedConfig::default())
    }

    /// [`Scheduler::new`] with explicit tuning.
    pub fn with_config(pool_size: u32, config: SchedConfig) -> Self {
        Scheduler {
            config,
            pool_size,
            tenants: BTreeMap::new(),
            running: HashMap::new(),
            vnow: 0.0,
            seq: 0,
            blocked_head: None,
            head_skips: 0,
            queued_total: 0,
        }
    }

    /// Install (or replace) a tenant's configuration. Tenants that submit
    /// without prior installation get [`TenantConfig::default`].
    pub fn set_tenant(&mut self, tenant: TenantId, cfg: TenantConfig) {
        self.tenants
            .entry(tenant.0)
            .and_modify(|t| t.cfg = cfg)
            .or_insert_with(|| TenantState::new(cfg));
    }

    /// The tenant's configuration (default if never installed).
    pub fn tenant_config(&self, tenant: TenantId) -> TenantConfig {
        self.tenants
            .get(&tenant.0)
            .map_or_else(TenantConfig::default, |t| t.cfg)
    }

    /// Jobs queued across all tenants.
    pub fn queue_depth(&self) -> u32 {
        self.queued_total
    }

    /// `(held, queued)` for one tenant.
    pub fn tenant_load(&self, tenant: TenantId) -> (u32, u32) {
        self.tenants
            .get(&tenant.0)
            .map_or((0, 0), |t| (t.held, t.queue.len() as u32))
    }

    /// Admission control: queue the job or refuse it (see module docs).
    pub fn submit(&mut self, req: JobReq) -> Admitted {
        let cfg = self.tenant_config(req.tenant);
        if req.gang == 0 || req.gang > self.pool_size {
            return Admitted::Rejected(RejectReason::TooLarge {
                requested: req.gang,
                pool: self.pool_size,
            });
        }
        if req.gang > cfg.max_accels {
            return Admitted::Rejected(RejectReason::QuotaAccels {
                requested: req.gang,
                quota: cfg.max_accels,
            });
        }
        let position = self.queued_total;
        let vnow = self.vnow;
        let seq = self.seq;
        let ts = self
            .tenants
            .entry(req.tenant.0)
            .or_insert_with(|| TenantState::new(cfg));
        let depth = ts.queue.len() as u32;
        if depth >= ts.cfg.max_queued {
            return Admitted::Rejected(RejectReason::QuotaQueue {
                depth,
                quota: ts.cfg.max_queued,
            });
        }
        // SFQ tagging: chain within the tenant, clamped up to the global
        // virtual clock so idle tenants cannot hoard credit.
        let prev_vtail = ts.vtail;
        let vstart = vnow.max(ts.vtail);
        let weight = ts.cfg.weight.max(1) as f64;
        ts.vtail = vstart + f64::from(req.gang) / weight;
        ts.queue.push_back(QJob {
            job: req.job,
            gang: req.gang,
            share_ok: req.share_ok,
            vstart,
            prev_vtail,
            seq,
        });
        self.seq += 1;
        self.queued_total += 1;
        Admitted::Queued { position }
    }

    /// Remove a queued job (a non-waiting submit that could not start).
    /// Returns false if the job is not queued.
    pub fn cancel(&mut self, job: u64) -> bool {
        for ts in self.tenants.values_mut() {
            if let Some(idx) = ts.queue.iter().position(|q| q.job == job) {
                let removed = ts.queue.remove(idx).unwrap();
                if idx == ts.queue.len() {
                    // Tail removal: roll the SFQ chain back exactly to the
                    // value it had before this job was tagged. (Mid-queue
                    // removal leaves a harmless gap in the chain.)
                    ts.vtail = removed.prev_vtail;
                }
                self.queued_total -= 1;
                if self.blocked_head == Some(job) {
                    self.blocked_head = None;
                    self.head_skips = 0;
                }
                return true;
            }
        }
        false
    }

    /// A running job released `n` of its accelerators (or share slots).
    pub fn released(&mut self, job: u64, n: u32) {
        if let Some(r) = self.running.get_mut(&job) {
            let n = n.min(r.held);
            r.held -= n;
            if let Some(ts) = self.tenants.get_mut(&r.tenant) {
                ts.held = ts.held.saturating_sub(n);
            }
            if r.held == 0 {
                self.running.remove(&job);
            }
        }
    }

    /// A running job finished: all of its holdings return.
    pub fn finished(&mut self, job: u64) {
        if let Some(r) = self.running.remove(&job) {
            if let Some(ts) = self.tenants.get_mut(&r.tenant) {
                ts.held = ts.held.saturating_sub(r.held);
            }
        }
    }

    /// True when the blocked head's reservation is live: it still sits at
    /// the head of its tenant's queue and is not quota-blocked.
    fn reservation_live(&self, job: u64) -> bool {
        self.tenants.values().any(|ts| {
            ts.queue.front().is_some_and(|h| h.job == job)
                && ts.held.saturating_add(ts.queue.front().unwrap().gang) <= ts.cfg.max_accels
        })
    }

    /// Start every job the policy allows given `cap`, in fair-share order.
    /// The caller applies each [`Placement`] to the pool (exclusive grant
    /// or shared-slot join) in order; the capacities in `cap` are exactly
    /// consumed, so application cannot fail unless the snapshot was stale.
    pub fn dispatch(&mut self, cap: Capacity) -> Vec<Placement> {
        let mut free = cap.free;
        let mut slots = cap.share_slots;
        let mut placed = Vec::new();
        // Jobs found capacity-blocked during this call (deferred so the
        // scan can move past them exactly once per call).
        let mut deferred: Vec<u64> = Vec::new();
        loop {
            // Best eligible head: highest priority band, then smallest
            // virtual start tag, then submission order.
            let mut best: Option<(u8, f64, u64, u32)> = None;
            for (&tid, ts) in &self.tenants {
                let Some(head) = ts.queue.front() else {
                    continue;
                };
                if deferred.contains(&head.job) {
                    continue;
                }
                if ts.held.saturating_add(head.gang) > ts.cfg.max_accels {
                    continue; // quota hold: ineligible, does not reserve
                }
                let cand = (ts.cfg.priority, head.vstart, head.seq, tid);
                let better = match &best {
                    None => true,
                    Some((bp, bv, bs, _)) => {
                        cand.0 > *bp || (cand.0 == *bp && (cand.1, cand.2) < (*bv, *bs))
                    }
                };
                if better {
                    best = Some(cand);
                }
            }
            let Some((_, _, _, tid)) = best else { break };
            let head = *self.tenants[&tid].queue.front().unwrap();
            let fits_exclusive = head.gang <= free;
            let fits_shared = !fits_exclusive && head.share_ok && head.gang == 1 && slots > 0;
            if fits_exclusive || fits_shared {
                if let Some(resv) = self.blocked_head {
                    if resv != head.job && self.reservation_live(resv) {
                        self.head_skips += 1;
                    }
                }
                if self.blocked_head == Some(head.job) {
                    self.blocked_head = None;
                    self.head_skips = 0;
                }
                let ts = self.tenants.get_mut(&tid).unwrap();
                ts.queue.pop_front();
                ts.held += head.gang;
                self.queued_total -= 1;
                self.vnow = self.vnow.max(head.vstart);
                self.running.insert(
                    head.job,
                    Running {
                        tenant: tid,
                        held: head.gang,
                    },
                );
                let kind = if fits_exclusive {
                    free -= head.gang;
                    PlaceKind::Exclusive
                } else {
                    slots -= 1;
                    PlaceKind::Shared
                };
                placed.push(Placement {
                    job: head.job,
                    tenant: TenantId(tid),
                    gang: head.gang,
                    kind,
                    share_ok: head.share_ok,
                });
            } else {
                // Capacity-blocked. The first such job (in service order)
                // holds the reservation; once its leapfrog budget is
                // spent, capacity idles for it.
                if self.blocked_head.is_none() {
                    self.blocked_head = Some(head.job);
                    self.head_skips = 0;
                }
                if self.blocked_head == Some(head.job)
                    && self.head_skips >= self.config.max_leapfrogs
                {
                    break;
                }
                deferred.push(head.job);
            }
        }
        placed
    }
}

// --- snapshot / restore (ARM high-availability plane) ---
//
// A standby ARM catches up from a primary snapshot plus a replication-log
// tail, so the scheduler must serialize its *entire* decision state:
// virtual clocks are `f64` and travel as raw IEEE-754 bits so a restored
// scheduler reproduces dispatch decisions bit-for-bit.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
    fn u32(&mut self) -> Option<u32> {
        let s = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        let s = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

const SNAPSHOT_VERSION: u8 = 1;

impl Scheduler {
    /// Serialize the complete scheduler state to a compact little-endian
    /// byte string. [`Scheduler::restore`] rebuilds an identical state
    /// machine: same admission verdicts, same dispatch order, same virtual
    /// clocks (f64 tags round-trip as raw bits).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, self.pool_size);
        put_u32(&mut out, self.config.max_leapfrogs);
        put_f64(&mut out, self.vnow);
        put_u64(&mut out, self.seq);
        match self.blocked_head {
            None => put_u8(&mut out, 0),
            Some(j) => {
                put_u8(&mut out, 1);
                put_u64(&mut out, j);
            }
        }
        put_u32(&mut out, self.head_skips);
        put_u32(&mut out, self.queued_total);
        put_u32(&mut out, self.tenants.len() as u32);
        for (&tid, ts) in &self.tenants {
            put_u32(&mut out, tid);
            put_u32(&mut out, ts.cfg.weight);
            put_u8(&mut out, ts.cfg.priority);
            put_u32(&mut out, ts.cfg.max_accels);
            put_u32(&mut out, ts.cfg.max_queued);
            put_f64(&mut out, ts.vtail);
            put_u32(&mut out, ts.held);
            put_u32(&mut out, ts.queue.len() as u32);
            for q in &ts.queue {
                put_u64(&mut out, q.job);
                put_u32(&mut out, q.gang);
                put_u8(&mut out, u8::from(q.share_ok));
                put_f64(&mut out, q.vstart);
                put_f64(&mut out, q.prev_vtail);
                put_u64(&mut out, q.seq);
            }
        }
        // HashMap iteration order is nondeterministic; sort by job id so
        // identical states always serialize to identical bytes.
        let mut running: Vec<(&u64, &Running)> = self.running.iter().collect();
        running.sort_by_key(|(job, _)| **job);
        put_u32(&mut out, running.len() as u32);
        for (job, r) in running {
            put_u64(&mut out, *job);
            put_u32(&mut out, r.tenant);
            put_u32(&mut out, r.held);
        }
        out
    }

    /// Rebuild a scheduler from [`Scheduler::snapshot_bytes`] output.
    /// Returns `None` on truncated, trailing, or version-mismatched input
    /// (never panics — snapshots cross the wire).
    pub fn restore(bytes: &[u8]) -> Option<Scheduler> {
        let mut c = Cursor::new(bytes);
        if c.u8()? != SNAPSHOT_VERSION {
            return None;
        }
        let pool_size = c.u32()?;
        let config = SchedConfig {
            max_leapfrogs: c.u32()?,
        };
        let vnow = c.f64()?;
        let seq = c.u64()?;
        let blocked_head = match c.u8()? {
            0 => None,
            1 => Some(c.u64()?),
            _ => return None,
        };
        let head_skips = c.u32()?;
        let queued_total = c.u32()?;
        let n_tenants = c.u32()?;
        let mut tenants = BTreeMap::new();
        for _ in 0..n_tenants {
            let tid = c.u32()?;
            let cfg = TenantConfig {
                weight: c.u32()?,
                priority: c.u8()?,
                max_accels: c.u32()?,
                max_queued: c.u32()?,
            };
            let vtail = c.f64()?;
            let held = c.u32()?;
            let n_queue = c.u32()?;
            // Cap pre-allocation by what the buffer could possibly hold so
            // a corrupt length cannot balloon memory before the read fails.
            let mut queue = VecDeque::with_capacity((n_queue as usize).min(bytes.len() / 29 + 1));
            for _ in 0..n_queue {
                queue.push_back(QJob {
                    job: c.u64()?,
                    gang: c.u32()?,
                    share_ok: c.u8()? != 0,
                    vstart: c.f64()?,
                    prev_vtail: c.f64()?,
                    seq: c.u64()?,
                });
            }
            tenants.insert(
                tid,
                TenantState {
                    cfg,
                    vtail,
                    queue,
                    held,
                },
            );
        }
        let n_running = c.u32()?;
        let mut running = HashMap::new();
        for _ in 0..n_running {
            let job = c.u64()?;
            running.insert(
                job,
                Running {
                    tenant: c.u32()?,
                    held: c.u32()?,
                },
            );
        }
        if !c.done() {
            return None;
        }
        Some(Scheduler {
            config,
            pool_size,
            tenants,
            running,
            vnow,
            seq,
            blocked_head,
            head_skips,
            queued_total,
        })
    }
}

/// Jain's fairness index over per-tenant service totals: 1.0 is perfectly
/// fair, 1/n is maximally unfair. Empty or all-zero input yields 1.0.
pub fn jain_index(service: &[f64]) -> f64 {
    let n = service.len() as f64;
    let sum: f64 = service.iter().sum();
    let sumsq: f64 = service.iter().map(|x| x * x).sum();
    if sum <= 0.0 || sumsq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sumsq)
}

/// Select which queued requests to shed when an admission queue holds
/// more than `capacity` entries — the pure decision kernel behind the
/// daemon's overload plane, shared here so placement and admission use
/// one fairness definition.
///
/// `entries` is the queue in arrival order as `(tenant, deadline)` pairs
/// (absolute deadline in nanoseconds; `u64::MAX` for "none"). Keeps at
/// most `capacity` entries under **max-min per-tenant fair share**: each
/// tenant is entitled to an equal slice of the queue, and slack left by
/// tenants under their slice is redistributed to heavier ones — so one
/// tenant's flood can never push another tenant's trickle out of the
/// queue. Within a tenant the entries kept are those with the *earliest*
/// deadlines (most urgent; a shed latest-deadline request has the most
/// slack to retry), ties broken by arrival order. Returns the indices to
/// shed, in ascending order; empty when the queue already fits.
pub fn shed_overflow(entries: &[(u32, u64)], capacity: usize) -> Vec<usize> {
    if entries.len() <= capacity {
        return Vec::new();
    }
    // Group queue positions per tenant (BTreeMap: deterministic order).
    let mut by_tenant: std::collections::BTreeMap<u32, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, (tenant, _)) in entries.iter().enumerate() {
        by_tenant.entry(*tenant).or_default().push(i);
    }
    // Max-min quotas: walk tenants from lightest demand to heaviest,
    // granting each min(demand, ceil(remaining / tenants-left)) so
    // unused share flows to heavier tenants.
    let mut demands: Vec<(usize, u32)> = by_tenant.iter().map(|(t, v)| (v.len(), *t)).collect();
    demands.sort_unstable();
    let mut remaining = capacity;
    let mut tenants_left = demands.len();
    let mut shed = Vec::new();
    for (demand, tenant) in demands {
        let share = remaining.div_ceil(tenants_left.max(1));
        let quota = demand.min(share);
        remaining -= quota;
        tenants_left -= 1;
        if demand > quota {
            // Keep the quota most-urgent entries; shed the rest.
            let mut idx = by_tenant.remove(&tenant).expect("tenant grouped above");
            idx.sort_by_key(|&i| (entries[i].1, i));
            shed.extend_from_slice(&idx[quota..]);
        }
    }
    shed.sort_unstable();
    shed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(job: u64, tenant: u32, gang: u32) -> JobReq {
        JobReq {
            job,
            tenant: TenantId(tenant),
            gang,
            share_ok: false,
        }
    }

    fn drain_order(s: &mut Scheduler, cap_per_round: u32, rounds: usize) -> Vec<u64> {
        // Serve one accelerator's worth per round (place, finish, repeat)
        // so the service order is observable.
        let mut order = Vec::new();
        for _ in 0..rounds {
            let placed = s.dispatch(Capacity {
                free: cap_per_round,
                share_slots: 0,
            });
            for p in &placed {
                order.push(p.job);
                s.finished(p.job);
            }
            if placed.is_empty() {
                break;
            }
        }
        order
    }

    #[test]
    fn equal_weights_interleave() {
        let mut s = Scheduler::new(4);
        for i in 0..4u64 {
            s.submit(req(10 + i, 1, 1));
            s.submit(req(20 + i, 2, 1));
        }
        let order = drain_order(&mut s, 1, 16);
        // Strict alternation between the two tenants.
        for pair in order.chunks(2) {
            let t: Vec<u64> = pair.iter().map(|j| j / 10).collect();
            assert!(t.contains(&1) && t.contains(&2), "unfair order {order:?}");
        }
    }

    #[test]
    fn weights_split_two_to_one() {
        let mut s = Scheduler::new(1);
        s.set_tenant(TenantId(1), TenantConfig::weighted(2));
        s.set_tenant(TenantId(2), TenantConfig::weighted(1));
        for i in 0..12u64 {
            s.submit(req(100 + i, 1, 1));
            s.submit(req(200 + i, 2, 1));
        }
        let order = drain_order(&mut s, 1, 18);
        let heavy = order.iter().take(9).filter(|j| **j < 200).count();
        // First 9 grants: tenant 1 gets ~2/3.
        assert_eq!(heavy, 6, "2:1 weights must yield a 2:1 split: {order:?}");
    }

    #[test]
    fn priority_band_served_first() {
        let mut s = Scheduler::new(1);
        s.set_tenant(
            TenantId(9),
            TenantConfig {
                priority: 3,
                ..TenantConfig::default()
            },
        );
        s.submit(req(1, 1, 1));
        s.submit(req(2, 1, 1));
        s.submit(req(90, 9, 1));
        let order = drain_order(&mut s, 1, 8);
        assert_eq!(order[0], 90, "high band must dequeue first: {order:?}");
    }

    #[test]
    fn gang_is_all_or_nothing() {
        let mut s = Scheduler::new(8);
        s.submit(req(1, 1, 4));
        let placed = s.dispatch(Capacity {
            free: 3,
            share_slots: 0,
        });
        assert!(placed.is_empty(), "partial gang placed: {placed:?}");
        let placed = s.dispatch(Capacity {
            free: 4,
            share_slots: 0,
        });
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].gang, 4);
    }

    #[test]
    fn blocked_gang_reserves_after_leapfrog_budget() {
        let cfg = SchedConfig { max_leapfrogs: 2 };
        let mut s = Scheduler::with_config(4, cfg);
        s.submit(req(1, 1, 3)); // head: needs 3, only 1 free below
        for i in 0..8u64 {
            s.submit(req(10 + i, 2, 1));
        }
        // Round 1: head blocked, 1 free — one small job leapfrogs.
        let p = s.dispatch(Capacity {
            free: 1,
            share_slots: 0,
        });
        assert_eq!(p.len(), 1);
        // Round 2: another leapfrog, budget now spent.
        let p = s.dispatch(Capacity {
            free: 1,
            share_slots: 0,
        });
        assert_eq!(p.len(), 1);
        // Round 3: budget exhausted — capacity idles for the head.
        let p = s.dispatch(Capacity {
            free: 2,
            share_slots: 0,
        });
        assert!(p.is_empty(), "leapfrog past spent budget: {p:?}");
        // Once the head fits, it starts and the budget resets.
        let p = s.dispatch(Capacity {
            free: 3,
            share_slots: 0,
        });
        assert_eq!(p.first().map(|p| p.job), Some(1));
    }

    #[test]
    fn quota_max_queued_rejects() {
        let mut s = Scheduler::new(4);
        s.set_tenant(
            TenantId(1),
            TenantConfig {
                max_queued: 2,
                ..TenantConfig::default()
            },
        );
        assert!(matches!(s.submit(req(1, 1, 1)), Admitted::Queued { .. }));
        assert!(matches!(s.submit(req(2, 1, 1)), Admitted::Queued { .. }));
        assert_eq!(
            s.submit(req(3, 1, 1)),
            Admitted::Rejected(RejectReason::QuotaQueue { depth: 2, quota: 2 })
        );
    }

    #[test]
    fn quota_max_accels_holds_dispatch_without_blocking_others() {
        let mut s = Scheduler::new(4);
        s.set_tenant(
            TenantId(1),
            TenantConfig {
                max_accels: 1,
                ..TenantConfig::default()
            },
        );
        s.submit(req(1, 1, 1));
        s.submit(req(2, 1, 1)); // would exceed tenant 1's concurrency
        s.submit(req(3, 2, 1));
        let placed = s.dispatch(Capacity {
            free: 4,
            share_slots: 0,
        });
        let jobs: Vec<u64> = placed.iter().map(|p| p.job).collect();
        assert_eq!(jobs, vec![1, 3], "quota hold must not block tenant 2");
        // Tenant 1 releases; its second job becomes eligible.
        s.finished(1);
        let placed = s.dispatch(Capacity {
            free: 3,
            share_slots: 0,
        });
        assert_eq!(placed.first().map(|p| p.job), Some(2));
    }

    #[test]
    fn oversized_gang_rejected_at_admission() {
        let mut s = Scheduler::new(4);
        s.set_tenant(
            TenantId(1),
            TenantConfig {
                max_accels: 2,
                ..TenantConfig::default()
            },
        );
        assert_eq!(
            s.submit(req(1, 1, 3)),
            Admitted::Rejected(RejectReason::QuotaAccels {
                requested: 3,
                quota: 2
            })
        );
        assert_eq!(
            s.submit(req(2, 1, 9)),
            Admitted::Rejected(RejectReason::TooLarge {
                requested: 9,
                pool: 4
            })
        );
        assert_eq!(
            s.submit(req(3, 1, 0)),
            Admitted::Rejected(RejectReason::TooLarge {
                requested: 0,
                pool: 4
            })
        );
    }

    #[test]
    fn share_slot_placement_when_pool_full() {
        let mut s = Scheduler::new(2);
        s.submit(JobReq {
            job: 1,
            tenant: TenantId(1),
            gang: 1,
            share_ok: true,
        });
        let placed = s.dispatch(Capacity {
            free: 0,
            share_slots: 1,
        });
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].kind, PlaceKind::Shared);
        // A gang of 2 never lands on a share slot.
        s.submit(req(2, 1, 2));
        let placed = s.dispatch(Capacity {
            free: 0,
            share_slots: 4,
        });
        assert!(placed.is_empty());
    }

    #[test]
    fn cancel_rolls_back_the_fair_share_chain() {
        let mut s = Scheduler::new(4);
        s.submit(req(1, 1, 2));
        let tail_before = s.tenants[&1].vtail;
        s.submit(req(2, 1, 2));
        assert!(s.cancel(2));
        assert_eq!(s.tenants[&1].vtail, tail_before);
        assert!(!s.cancel(2), "double cancel must fail");
        assert_eq!(s.queue_depth(), 1);
    }

    #[test]
    fn idle_tenant_cannot_hoard_credit() {
        let mut s = Scheduler::new(1);
        // Tenant 1 runs alone for a while: vnow advances.
        for i in 0..6u64 {
            s.submit(req(i, 1, 1));
        }
        drain_order(&mut s, 1, 6);
        // Tenant 2 was idle the whole time; its first job must not predate
        // the clock (which would let it monopolize the pool).
        s.submit(req(100, 2, 1));
        let ts = &s.tenants[&2];
        assert!(
            ts.queue[0].vstart >= s.vnow,
            "idle tenant hoarded virtual time"
        );
    }

    #[test]
    fn snapshot_restores_identical_dispatch_state() {
        let cfg = SchedConfig { max_leapfrogs: 2 };
        let mut s = Scheduler::with_config(4, cfg);
        s.set_tenant(TenantId(1), TenantConfig::weighted(2));
        s.set_tenant(
            TenantId(2),
            TenantConfig {
                priority: 1,
                max_accels: 3,
                ..TenantConfig::default()
            },
        );
        for i in 0..5u64 {
            s.submit(req(10 + i, 1, 1));
            s.submit(req(20 + i, 2, 1));
        }
        s.submit(req(99, 1, 3)); // a gang that will block
        let placed = s.dispatch(Capacity {
            free: 2,
            share_slots: 0,
        });
        assert!(!placed.is_empty());

        let bytes = s.snapshot_bytes();
        let mut restored = Scheduler::restore(&bytes).expect("restore");
        // Same bytes again: serialization is deterministic.
        assert_eq!(restored.snapshot_bytes(), bytes);
        // The restored scheduler makes the same decisions as the original
        // from here on.
        for cap in [1u32, 2, 1, 3, 1, 4] {
            let a = s.dispatch(Capacity {
                free: cap,
                share_slots: 0,
            });
            let b = restored.dispatch(Capacity {
                free: cap,
                share_slots: 0,
            });
            assert_eq!(a, b, "divergent dispatch at cap {cap}");
            for p in a {
                s.finished(p.job);
                restored.finished(p.job);
            }
        }
        assert_eq!(s.queue_depth(), restored.queue_depth());
    }

    #[test]
    fn snapshot_restore_rejects_malformed_input() {
        let mut s = Scheduler::new(4);
        s.submit(req(1, 1, 1));
        let bytes = s.snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(Scheduler::restore(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Scheduler::restore(&trailing).is_none());
        let mut bad_version = bytes;
        bad_version[0] = 0xFF;
        assert!(Scheduler::restore(&bad_version).is_none());
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        let mid = jain_index(&[2.0, 1.0]);
        assert!(mid > 0.5 && mid < 1.0);
    }
}

#[cfg(test)]
mod shed_tests {
    use super::shed_overflow;

    #[test]
    fn under_capacity_sheds_nothing() {
        assert!(shed_overflow(&[(0, 5), (1, 3)], 2).is_empty());
        assert!(shed_overflow(&[], 0).is_empty());
    }

    #[test]
    fn flood_cannot_evict_a_trickle() {
        // Tenant 0 floods 9 entries, tenant 1 has one; capacity 4 must
        // keep tenant 1's single entry and give the flood the rest.
        let mut entries: Vec<(u32, u64)> = (0..9).map(|i| (0, 100 + i)).collect();
        entries.push((1, 50));
        let shed = shed_overflow(&entries, 4);
        assert_eq!(shed.len(), 6);
        assert!(!shed.contains(&9), "the trickle tenant's entry survives");
        // The flood keeps its three earliest deadlines.
        assert!(!shed.contains(&0) && !shed.contains(&1) && !shed.contains(&2));
    }

    #[test]
    fn within_a_tenant_latest_deadlines_shed_first() {
        let entries = [(0, 400), (0, 100), (0, 300), (0, 200)];
        let shed = shed_overflow(&entries, 2);
        assert_eq!(shed, vec![0, 2], "keeps deadlines 100 and 200");
    }

    #[test]
    fn equal_demand_splits_capacity_evenly() {
        let entries: Vec<(u32, u64)> = (0..12).map(|i| ((i % 3) as u32, i as u64)).collect();
        let shed = shed_overflow(&entries, 6);
        assert_eq!(shed.len(), 6);
        for t in 0..3u32 {
            let kept = entries
                .iter()
                .enumerate()
                .filter(|(i, (tt, _))| *tt == t && !shed.contains(i))
                .count();
            assert_eq!(kept, 2, "tenant {t} keeps its fair share");
        }
    }

    #[test]
    fn slack_flows_to_heavier_tenants() {
        // Capacity 6, tenant 0 wants 1, tenant 1 wants 8: tenant 1 gets
        // the unused share (5), not just half the queue.
        let mut entries = vec![(0u32, 10u64)];
        entries.extend((0..8).map(|i| (1u32, 20 + i)));
        let shed = shed_overflow(&entries, 6);
        assert_eq!(shed.len(), 3);
        assert!(!shed.contains(&0));
    }
}
