//! ARM pool state: the accelerator inventory and assignment bookkeeping.
//!
//! Pure, synchronous state machine — the async server in
//! [`crate::server`] drives it. Keeping it pure makes the exclusivity and
//! conservation invariants directly testable (including with proptest).

use std::collections::HashMap;

use bytes::BytesMut;
use dacc_fabric::codec::{Reader, Writer};
use dacc_fabric::mpi::Rank;
use dacc_fabric::topology::NodeId;
use dacc_sim::prelude::{SimDuration, SimTime};

use crate::health::{Health, HealthConfig, HealthMeta};
use crate::proto::{ArmError, EvictReason, GrantedAccelerator, PoolStats};

/// Identifies one accelerator in the pool.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AcceleratorId(pub usize);

/// Identifies a job (a set of cooperating compute-node processes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

/// Lifecycle state of one accelerator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccelState {
    /// Available for assignment.
    Free,
    /// Exclusively assigned to a job.
    Assigned(JobId),
    /// Failed; removed from the pool until repaired.
    Broken,
}

/// Static description of one accelerator.
#[derive(Clone, Copy, Debug)]
pub struct AcceleratorDesc {
    /// Identity in the pool.
    pub id: AcceleratorId,
    /// Node the accelerator occupies.
    pub node: NodeId,
    /// Fabric rank of its back-end daemon.
    pub daemon_rank: Rank,
}

/// Which free accelerator an allocation picks first. The pool has one
/// policy. The type stays only because the host-clock benchmark's pinned
/// cluster spec names it through `dacc-runtime`'s
/// `ClusterSpec::alloc_policy`; both go once that spec drops the field.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AllocPolicy {
    /// Lowest id first (dense packing; predictable for tests), or nearest
    /// first under [`Pool::set_locality`].
    #[default]
    FirstFit,
}

/// A health-plane transition surfaced by [`Pool::tick`] (and friends) for
/// the server to act on (send eviction notices, trace, count).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HealthEvent {
    /// Beats overdue: the accelerator turned `Suspect` (telemetry only).
    Suspected {
        /// The overdue accelerator.
        accel: AcceleratorId,
    },
    /// A job lost an accelerator (lease expiry, quarantine, or drain).
    /// The server forwards this to the holder as a
    /// [`crate::proto::Eviction`] notice.
    Evicted {
        /// The job that held the accelerator.
        job: JobId,
        /// The accelerator taken away.
        accel: AcceleratorId,
        /// The (now fenced) epoch of the revoked assignment.
        epoch: u64,
        /// Why the assignment was revoked.
        reason: EvictReason,
        /// Replacement grant pre-allocated for the job, if capacity allowed
        /// (never for `LeaseExpired` — the holder is presumed dead).
        replacement: Option<GrantedAccelerator>,
    },
    /// The accelerator was branded permanently broken (re-quarantine
    /// budget exhausted, probe failure, or daemon silence past
    /// [`HealthConfig::dead_after`]).
    Broke {
        /// The accelerator removed from service.
        accel: AcceleratorId,
    },
    /// A time-sliced accelerator rotated to its next resident: the old
    /// holder's epoch is fenced and `job` now owns the live epoch carried
    /// in `grant`. The server forwards the grant to the new holder as a
    /// slice notice.
    Rotated {
        /// The resident whose slice is starting.
        job: JobId,
        /// The shared accelerator.
        accel: AcceleratorId,
        /// Fresh grant (new live epoch) for the new holder.
        grant: GrantedAccelerator,
    },
}

/// Oversubscription tuning: lets several single-accelerator jobs
/// time-share one vGPU. Attached with [`Pool::set_share`].
#[derive(Clone, Copy, Debug)]
pub struct ShareConfig {
    /// Max residents (time-slice holders) per shared accelerator.
    pub slots_per_accel: u32,
    /// Rotation period: how long each resident's slice lasts before the
    /// pool fences it and activates the next resident.
    pub slice: SimDuration,
}

impl Default for ShareConfig {
    fn default() -> Self {
        ShareConfig {
            slots_per_accel: 2,
            slice: SimDuration::from_millis(5),
        }
    }
}

/// Per-accelerator share domain: the resident set and rotation clock.
/// `state[i]` stays `Assigned(active)`, so exclusivity invariants hold
/// unchanged; passive residents are tracked only here and hold fenced
/// (dead) epochs until their slice comes around.
#[derive(Clone, Debug)]
struct ShareState {
    /// Resident jobs in rotation order. The entry at `active` is the
    /// current holder of the live epoch.
    residents: Vec<JobId>,
    active: usize,
    /// When the current slice ends (None until a second resident joins —
    /// a sole resident never needs rotating).
    next_rotation: Option<SimTime>,
}

/// Wire version of [`Pool::save_state`] snapshots.
const POOL_SNAPSHOT_VERSION: u8 = 1;

/// The ARM's pool: inventory plus assignment map.
pub struct Pool {
    accels: Vec<AcceleratorDesc>,
    state: Vec<AccelState>,
    meta: Vec<HealthMeta>,
    health: Option<HealthConfig>,
    held_by: HashMap<JobId, Vec<AcceleratorId>>,
    /// Dedupe cache for `ReportFailure`: the first grant issued for a
    /// (job, accel, epoch) failure is replayed on duplicate reports
    /// instead of burning a second replacement.
    failure_grants: HashMap<(JobId, AcceleratorId, u64), Vec<GrantedAccelerator>>,
    total_grants: u64,
    share: Option<ShareConfig>,
    shares: HashMap<usize, ShareState>,
    total_rotations: u64,
    /// Node×node hop matrix from the fabric topology (`hops[from][to]`),
    /// when locality-aware placement is enabled. See [`Pool::set_locality`].
    locality: Option<Vec<Vec<u32>>>,
}

impl Pool {
    /// Build a pool from an inventory.
    pub fn new(accels: Vec<AcceleratorDesc>) -> Self {
        for (i, a) in accels.iter().enumerate() {
            assert_eq!(a.id.0, i, "accelerator ids must be dense and ordered");
        }
        let n = accels.len();
        Pool {
            accels,
            state: vec![AccelState::Free; n],
            meta: vec![HealthMeta::default(); n],
            health: None,
            held_by: HashMap::new(),
            failure_grants: HashMap::new(),
            total_grants: 0,
            share: None,
            shares: HashMap::new(),
            total_rotations: 0,
            locality: None,
        }
    }

    /// Enable the health plane (leases, liveness, fencing) with `config`.
    pub fn set_health(&mut self, config: HealthConfig) {
        self.health = Some(config);
    }

    /// Enable locality-aware placement: `hops[from][to]` is the fabric's
    /// node×node hop matrix (see `Topology::hop_matrix`). With it set,
    /// allocations that know the requester's node prefer the nearest
    /// grantable accelerators, breaking distance ties by lowest id — on a
    /// single-switch fabric every distance is equal, so the scan order
    /// (and every grant) is unchanged.
    pub fn set_locality(&mut self, hops: Vec<Vec<u32>>) {
        self.locality = Some(hops);
    }

    /// The hop distance from `from` to accelerator `i`'s node, when
    /// locality is enabled.
    fn distance(&self, from: NodeId, i: usize) -> u32 {
        self.locality
            .as_ref()
            .and_then(|h| h.get(from.0))
            .and_then(|row| row.get(self.accels[i].node.0))
            .copied()
            .unwrap_or(u32::MAX)
    }

    /// The health configuration, if the health plane is enabled.
    pub fn health_config(&self) -> Option<HealthConfig> {
        self.health
    }

    /// Enable oversubscription (time-sliced vGPU sharing) with `config`.
    pub fn set_share(&mut self, config: ShareConfig) {
        self.share = Some(config);
    }

    /// The oversubscription configuration, if enabled.
    pub fn share_config(&self) -> Option<ShareConfig> {
        self.share
    }

    /// Spare share slots across all open share domains: the capacity the
    /// scheduler may fill with `Shared` placements.
    pub fn share_slots(&self) -> u32 {
        let Some(cfg) = self.share else {
            return 0;
        };
        self.shares
            .iter()
            .filter(|(&i, _)| {
                matches!(self.state[i], AccelState::Assigned(_))
                    && self.meta[i].health == Health::Healthy
            })
            .map(|(_, s)| cfg.slots_per_accel.saturating_sub(s.residents.len() as u32))
            .sum()
    }

    /// Residents of `accel`'s share domain, in rotation order (empty when
    /// the accelerator is not shared).
    pub fn residents(&self, accel: AcceleratorId) -> Vec<JobId> {
        self.shares
            .get(&accel.0)
            .map(|s| s.residents.clone())
            .unwrap_or_default()
    }

    /// Lifetime count of slice rotations across all share domains.
    pub fn total_rotations(&self) -> u64 {
        self.total_rotations
    }

    /// Open a share domain on `accel`, which `job` just received as an
    /// exclusive grant and declared shareable: later share placements may
    /// co-locate onto it. No-op when oversubscription is disabled.
    pub fn open_share(&mut self, accel: AcceleratorId, job: JobId) -> Result<(), ArmError> {
        match self.state_of(accel)? {
            AccelState::Assigned(owner) if owner == job => {}
            _ => return Err(ArmError::NotHeld),
        }
        if self.share.is_some() {
            self.shares.entry(accel.0).or_insert(ShareState {
                residents: vec![job],
                active: 0,
                next_rotation: None,
            });
        }
        Ok(())
    }

    /// Place `job` onto the best open share domain with a spare slot. The
    /// joiner's slice starts immediately: the previous holder's epoch is
    /// fenced and it is re-activated (with a fresh grant) when rotation
    /// comes back around. Ranking prefers the domain with the fewest
    /// residents, then the lowest cumulative busy count (the utilization
    /// signal heartbeats already carry), then the lowest id.
    pub fn try_join_share_at(
        &mut self,
        job: JobId,
        now: Option<SimTime>,
    ) -> Result<GrantedAccelerator, ArmError> {
        let Some(cfg) = self.share else {
            return Err(ArmError::Insufficient {
                requested: 1,
                free: 0,
            });
        };
        let mut best: Option<(usize, u64, usize)> = None;
        for (&i, s) in &self.shares {
            if s.residents.len() as u32 >= cfg.slots_per_accel || s.residents.contains(&job) {
                continue;
            }
            if !matches!(self.state[i], AccelState::Assigned(_))
                || self.meta[i].health != Health::Healthy
            {
                continue;
            }
            let key = (s.residents.len(), self.meta[i].busy_total, i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let Some((_, _, i)) = best else {
            return Err(ArmError::Insufficient {
                requested: 1,
                free: 0,
            });
        };
        let grant = self.rotate_to(i, job, now);
        let slice = cfg.slice;
        let s = self.shares.get_mut(&i).unwrap();
        s.residents.push(job);
        s.active = s.residents.len() - 1;
        s.next_rotation = now.map(|n| n + slice);
        self.total_grants += 1;
        Ok(grant)
    }

    /// Fence the current holder of `i` and hand the live epoch to `to`.
    /// The daemon adopts the new fence at its next heartbeat; until then
    /// the rotated-out holder has a bounded staleness window — the same
    /// trade-off the lease plane makes between revocation and ack latency.
    fn rotate_to(&mut self, i: usize, to: JobId, now: Option<SimTime>) -> GrantedAccelerator {
        if let AccelState::Assigned(old) = self.state[i] {
            if let Some(held) = self.held_by.get_mut(&old) {
                held.retain(|h| h.0 != i);
                if held.is_empty() {
                    self.held_by.remove(&old);
                }
            }
        }
        let lease = match (self.health, now) {
            (Some(cfg), Some(now)) => Some(now + cfg.lease),
            _ => None,
        };
        let m = &mut self.meta[i];
        m.fence = m.epoch + 1;
        m.epoch = m.fence;
        m.lease_expiry = lease;
        self.state[i] = AccelState::Assigned(to);
        self.held_by.entry(to).or_default().push(AcceleratorId(i));
        let d = self.accels[i];
        GrantedAccelerator {
            accel: d.id,
            daemon_rank: d.daemon_rank,
            node: d.node,
            epoch: self.meta[i].epoch,
        }
    }

    /// Health metadata of one accelerator.
    pub fn meta(&self, id: AcceleratorId) -> Result<&HealthMeta, ArmError> {
        self.meta.get(id.0).ok_or(ArmError::UnknownAccelerator)
    }

    /// True when the accelerator can be handed out: it is `Free`, its
    /// daemon has acknowledged the current fence epoch (no zombie ops can
    /// still land), and liveness judges it healthy.
    fn grantable(&self, i: usize) -> bool {
        self.state[i] == AccelState::Free
            && self.meta[i].acked_fence >= self.meta[i].fence
            && self.meta[i].health == Health::Healthy
    }

    /// Number of accelerators (any state).
    pub fn len(&self) -> usize {
        self.accels.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.accels.is_empty()
    }

    /// Current state of one accelerator.
    pub fn state_of(&self, id: AcceleratorId) -> Result<AccelState, ArmError> {
        self.state
            .get(id.0)
            .copied()
            .ok_or(ArmError::UnknownAccelerator)
    }

    /// Accelerators grantable right now (free, fence-acked, healthy).
    pub fn free_count(&self) -> u32 {
        (0..self.state.len()).filter(|&i| self.grantable(i)).count() as u32
    }

    /// Pool counters (queue depth filled in by the server).
    pub fn stats(&self) -> PoolStats {
        let mut s = PoolStats::default();
        for st in &self.state {
            match st {
                AccelState::Free => s.free += 1,
                AccelState::Assigned(_) => s.assigned += 1,
                AccelState::Broken => s.broken += 1,
            }
        }
        s
    }

    /// Total allocations granted over the pool's lifetime.
    pub fn total_grants(&self) -> u64 {
        self.total_grants
    }

    /// Accelerators currently held by `job` (empty if none).
    pub fn held_by(&self, job: JobId) -> &[AcceleratorId] {
        self.held_by.get(&job).map_or(&[], Vec::as_slice)
    }

    /// Try to assign `count` free accelerators to `job` (lowest ids first).
    ///
    /// All-or-nothing: on shortage nothing is assigned and
    /// [`ArmError::Insufficient`] is returned. Leases are only stamped
    /// when `now` is known — see [`Pool::try_allocate_at`].
    pub fn try_allocate(
        &mut self,
        job: JobId,
        count: u32,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        self.try_allocate_at(job, count, None)
    }

    /// [`Pool::try_allocate`] with a timestamp: each grant's lease starts
    /// at `now` (when the health plane is enabled) and its epoch is bumped
    /// past the accelerator's fence so the new holder's ops pass fencing.
    pub fn try_allocate_at(
        &mut self,
        job: JobId,
        count: u32,
        now: Option<SimTime>,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        self.try_allocate_near(job, count, now, None)
    }

    /// [`Pool::try_allocate_at`] with the requester's node: when locality
    /// is enabled ([`Pool::set_locality`]), the scan visits accelerators
    /// nearest `from` first (hop count, ties by lowest id — a stable
    /// order, so an all-equal-distance fabric reproduces plain first-fit
    /// exactly).
    pub fn try_allocate_near(
        &mut self,
        job: JobId,
        count: u32,
        now: Option<SimTime>,
        from: Option<NodeId>,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        let free = self.free_count();
        if free < count {
            return Err(ArmError::Insufficient {
                requested: count,
                free,
            });
        }
        let mut order: Vec<usize> = (0..self.state.len()).collect();
        if let (Some(_), Some(from)) = (&self.locality, from) {
            order.sort_by_key(|&i| self.distance(from, i));
        }
        let mut grants = Vec::with_capacity(count as usize);
        for i in order {
            if grants.len() as u32 == count {
                break;
            }
            if self.grantable(i) {
                self.state[i] = AccelState::Assigned(job);
                let m = &mut self.meta[i];
                m.epoch = (m.epoch + 1).max(m.fence);
                m.lease_expiry = match (self.health, now) {
                    (Some(cfg), Some(now)) => Some(now + cfg.lease),
                    _ => None,
                };
                let d = self.accels[i];
                grants.push(GrantedAccelerator {
                    accel: d.id,
                    daemon_rank: d.daemon_rank,
                    node: d.node,
                    epoch: self.meta[i].epoch,
                });
                self.held_by.entry(job).or_default().push(d.id);
            }
        }
        self.total_grants += count as u64;
        Ok(grants)
    }

    /// Release specific accelerators held by `job`. Broken accelerators are
    /// acknowledged but stay broken. Returns how many returned to Free.
    /// (Legacy wrapper: with oversubscription enabled use
    /// [`Pool::release_at`], which surfaces the rotation events releasing
    /// a shared accelerator can produce.)
    pub fn release(&mut self, job: JobId, accels: &[AcceleratorId]) -> Result<u32, ArmError> {
        self.release_at(job, accels, None).map(|(n, _)| n)
    }

    /// [`Pool::release`] with a timestamp: releasing the *active* resident
    /// of a shared accelerator rotates the live epoch to a surviving
    /// resident instead of freeing the device, surfaced as a
    /// [`HealthEvent::Rotated`] the server must forward. Releasing a
    /// passive resident just vacates its slot.
    pub fn release_at(
        &mut self,
        job: JobId,
        accels: &[AcceleratorId],
        now: Option<SimTime>,
    ) -> Result<(u32, Vec<HealthEvent>), ArmError> {
        // Validate everything first: release is all-or-nothing.
        for id in accels {
            match self.state_of(*id)? {
                AccelState::Assigned(owner) if owner == job => {}
                AccelState::Broken if self.held_by.get(&job).is_some_and(|v| v.contains(id)) => {}
                _ if self
                    .shares
                    .get(&id.0)
                    .is_some_and(|s| s.residents.contains(&job)) => {}
                _ => return Err(ArmError::NotHeld),
            }
        }
        let mut released = 0;
        let mut events = Vec::new();
        for id in accels {
            let mut counted = false;
            if let Some(s) = self.shares.get_mut(&id.0) {
                if s.residents.contains(&job) {
                    let was_active = self.state[id.0] == AccelState::Assigned(job);
                    let active_job = s.residents[s.active];
                    s.residents.retain(|r| *r != job);
                    released += 1;
                    counted = true;
                    if !was_active {
                        // Keep `active` pointing at the live-epoch holder
                        // after the removal shifted indices.
                        s.active = s
                            .residents
                            .iter()
                            .position(|r| *r == active_job)
                            .unwrap_or(0);
                    }
                    if s.residents.is_empty() {
                        // Last resident out: fall through and free the
                        // device like an exclusive release.
                        self.shares.remove(&id.0);
                    } else if was_active {
                        // The live-epoch holder leaves: rotate the device
                        // to a survivor instead of freeing it.
                        if s.active >= s.residents.len() {
                            s.active = 0;
                        }
                        let next = s.residents[s.active];
                        let slice = self.share.map(|c| c.slice);
                        s.next_rotation = now.zip(slice).map(|(n, d)| n + d);
                        let grant = self.rotate_to(id.0, next, now);
                        self.total_rotations += 1;
                        events.push(HealthEvent::Rotated {
                            job: next,
                            accel: *id,
                            grant,
                        });
                        continue;
                    } else {
                        // Passive resident: slot vacated, nothing else moves.
                        continue;
                    }
                }
            }
            if self.state[id.0] == AccelState::Assigned(job) {
                self.state[id.0] = AccelState::Free;
                self.meta[id.0].lease_expiry = None;
                if !counted {
                    released += 1;
                }
            }
            if let Some(held) = self.held_by.get_mut(&job) {
                held.retain(|h| h != id);
            }
        }
        if self.held_by.get(&job).is_some_and(Vec::is_empty) {
            self.held_by.remove(&job);
        }
        Ok((released, events))
    }

    /// Release everything `job` holds (automatic release at job end).
    /// (Legacy wrapper — see [`Pool::release_job_at`].)
    pub fn release_job(&mut self, job: JobId) -> u32 {
        self.release_job_at(job, None).0
    }

    /// Release everything `job` holds or resides on: exclusive grants,
    /// active shared slices (rotating the device to a survivor), and
    /// passive residencies.
    pub fn release_job_at(&mut self, job: JobId, now: Option<SimTime>) -> (u32, Vec<HealthEvent>) {
        let mut ids: Vec<AcceleratorId> = self.held_by.get(&job).cloned().unwrap_or_default();
        for (&i, s) in &self.shares {
            if s.residents.contains(&job) {
                ids.push(AcceleratorId(i));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        self.release_at(job, &ids, now).unwrap_or_default()
    }

    /// Mark an accelerator broken. A broken accelerator never gets assigned
    /// again until [`Pool::repair`]; compute nodes are unaffected (§III-A:
    /// fault isolation).
    pub fn mark_broken(&mut self, id: AcceleratorId) -> Result<(), ArmError> {
        match self.state_of(id)? {
            AccelState::Broken => Ok(()),
            _ => {
                // A broken shared device: the domain is torn down, but
                // every resident stays charged in `held_by` so each can
                // acknowledge the loss with a release (the same contract
                // exclusive holders of a broken accelerator get).
                if let Some(s) = self.shares.remove(&id.0) {
                    for r in s.residents {
                        let held = self.held_by.entry(r).or_default();
                        if !held.contains(&id) {
                            held.push(id);
                        }
                    }
                }
                self.state[id.0] = AccelState::Broken;
                Ok(())
            }
        }
    }

    /// Return a broken accelerator to service. An operator repair implies
    /// a full device reset: the fence is considered acknowledged and the
    /// health record starts over.
    pub fn repair(&mut self, id: AcceleratorId) -> Result<(), ArmError> {
        match self.state_of(id)? {
            AccelState::Broken => {
                // If some job still nominally holds it, hand it back to them?
                // No: repair returns it to the free pool; the holding job
                // already saw the failure.
                for held in self.held_by.values_mut() {
                    held.retain(|h| *h != id);
                }
                self.held_by.retain(|_, held| !held.is_empty());
                self.state[id.0] = AccelState::Free;
                let m = &mut self.meta[id.0];
                m.acked_fence = m.fence;
                m.health = Health::Healthy;
                m.last_beat = None;
                m.lease_expiry = None;
                m.quarantines = 0;
                m.probation = false;
                m.probing = false;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    // --- health plane -----------------------------------------------------

    /// Sweep the pool's clocks: expire leases (reclaiming the accelerator
    /// and fencing the old epoch) and judge liveness (Suspect →
    /// Quarantined → permanently broken). Called lazily by the server
    /// before handling each message — daemon heartbeats are the clock.
    ///
    /// Returns the transitions the server must act on, in accelerator-id
    /// order (deterministic).
    pub fn tick(&mut self, now: SimTime) -> Vec<HealthEvent> {
        let Some(cfg) = self.health else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for i in 0..self.state.len() {
            if self.state[i] == AccelState::Broken {
                continue;
            }
            if let Some(last) = self.meta[i].last_beat {
                let silent = now.since(last);
                if silent >= cfg.dead_after && self.meta[i].health == Health::Quarantined {
                    // The daemon never came back: not flaky, gone.
                    self.break_accel(i);
                    events.push(HealthEvent::Broke {
                        accel: AcceleratorId(i),
                    });
                    continue;
                }
                if silent >= cfg.quarantine_after && self.meta[i].health != Health::Quarantined {
                    events.extend(self.quarantine(i, now));
                    continue;
                }
                if silent >= cfg.suspect_after && self.meta[i].health == Health::Healthy {
                    self.meta[i].health = Health::Suspect;
                    events.push(HealthEvent::Suspected {
                        accel: AcceleratorId(i),
                    });
                }
            }
            if let AccelState::Assigned(job) = self.state[i] {
                if self.meta[i].lease_expiry.is_some_and(|e| e <= now) {
                    let epoch = self.meta[i].epoch;
                    if let Some(s) = self.shares.get_mut(&i) {
                        // Only the (silent, presumed dead) active resident
                        // is pruned; the domain — and the survivors'
                        // device memory — outlives the eviction.
                        s.residents.retain(|r| *r != job);
                        if s.residents.is_empty() {
                            self.shares.remove(&i);
                            self.reclaim(i, job);
                        } else {
                            if s.active >= s.residents.len() {
                                s.active = 0;
                            }
                            let next = s.residents[s.active];
                            let slice = self.share.map(|c| c.slice).unwrap_or(cfg.lease);
                            s.next_rotation = Some(now + slice);
                            let grant = self.rotate_to(i, next, Some(now));
                            self.total_rotations += 1;
                            events.push(HealthEvent::Rotated {
                                job: next,
                                accel: AcceleratorId(i),
                                grant,
                            });
                        }
                    } else {
                        self.reclaim(i, job);
                    }
                    events.push(HealthEvent::Evicted {
                        job,
                        accel: AcceleratorId(i),
                        epoch,
                        reason: EvictReason::LeaseExpired,
                        // The holder went silent past its lease: presumed
                        // dead, so no replacement is reserved for it.
                        replacement: None,
                    });
                }
            }
        }
        // Slice rotations: every `slice`, a shared device with two or
        // more residents fences its active holder and hands the live
        // epoch to the next resident in round-robin order.
        if let Some(scfg) = self.share {
            let mut shared: Vec<usize> = self.shares.keys().copied().collect();
            shared.sort_unstable();
            for i in shared {
                let s = &self.shares[&i];
                if s.residents.len() < 2
                    || !matches!(self.state[i], AccelState::Assigned(_))
                    || self.meta[i].health != Health::Healthy
                {
                    continue;
                }
                match s.next_rotation {
                    None => {
                        // Second resident arrived without a timestamped
                        // join: start the clock now.
                        self.shares.get_mut(&i).unwrap().next_rotation = Some(now + scfg.slice);
                    }
                    Some(due) if due <= now => {
                        let s = self.shares.get_mut(&i).unwrap();
                        s.active = (s.active + 1) % s.residents.len();
                        let next = s.residents[s.active];
                        s.next_rotation = Some(now + scfg.slice);
                        let grant = self.rotate_to(i, next, Some(now));
                        self.total_rotations += 1;
                        events.push(HealthEvent::Rotated {
                            job: next,
                            accel: AcceleratorId(i),
                            grant,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        events
    }

    /// Record a daemon heartbeat for `accel` at `now`. `fence` is the
    /// fence epoch the daemon currently enforces (acknowledging resets);
    /// `busy` > 0 renews the holder's lease implicitly.
    ///
    /// Returns `(fence, probe)`: the fence epoch the daemon must adopt,
    /// and whether it should run a quarantine probe self-test.
    pub fn heartbeat(
        &mut self,
        accel: AcceleratorId,
        fence: u64,
        busy: u32,
        now: SimTime,
    ) -> Result<(u64, bool), ArmError> {
        let state = self.state_of(accel)?;
        let lease = self.health.map(|c| c.lease);
        let i = accel.0;
        let m = &mut self.meta[i];
        m.last_beat = Some(now);
        m.busy_total += u64::from(busy);
        m.acked_fence = m.acked_fence.max(fence.min(m.fence));
        if m.health == Health::Suspect {
            m.health = Health::Healthy;
        }
        let mut probe = false;
        if state != AccelState::Broken && m.health == Health::Quarantined && !m.probing {
            // Beats resumed while quarantined: order a probe self-test.
            m.probing = true;
            probe = true;
        }
        if busy > 0 && matches!(state, AccelState::Assigned(_)) {
            if let Some(lease) = lease {
                m.lease_expiry = Some(now + lease);
            }
        }
        Ok((m.fence, probe))
    }

    /// Explicitly renew the leases on everything `job` holds. Returns how
    /// many assignments were renewed.
    pub fn renew_lease(&mut self, job: JobId, now: SimTime) -> u32 {
        let Some(cfg) = self.health else {
            return 0;
        };
        let held: Vec<AcceleratorId> = self.held_by.get(&job).cloned().unwrap_or_default();
        let mut renewed = 0;
        for id in held {
            if self.state[id.0] == AccelState::Assigned(job) {
                self.meta[id.0].lease_expiry = Some(now + cfg.lease);
                renewed += 1;
            }
        }
        renewed
    }

    /// Record the result of a quarantine probe self-test. A pass
    /// reintegrates the accelerator on probation (the re-quarantine budget
    /// keeps counting); a failure brands it permanently broken. Returns
    /// whether the accelerator re-entered the pool.
    pub fn probe_result(&mut self, accel: AcceleratorId, ok: bool) -> Result<bool, ArmError> {
        let state = self.state_of(accel)?;
        let i = accel.0;
        self.meta[i].probing = false;
        if state == AccelState::Broken || self.meta[i].health != Health::Quarantined {
            return Ok(false);
        }
        if ok {
            self.meta[i].health = Health::Healthy;
            self.meta[i].probation = true;
            Ok(true)
        } else {
            self.break_accel(i);
            Ok(false)
        }
    }

    /// Report a failure observed by `job` on `accel`: mark it broken,
    /// fence its epoch, and grant one replacement in the same round trip.
    ///
    /// Duplicate reports for the same (job, accel, epoch) replay the first
    /// grant instead of burning a second replacement — a client retrying a
    /// lost `ReportFailure` response must not leak accelerators.
    pub fn report_failure(
        &mut self,
        job: JobId,
        accel: AcceleratorId,
        now: Option<SimTime>,
    ) -> Result<Vec<GrantedAccelerator>, ArmError> {
        self.state_of(accel)?;
        let key = (job, accel, self.meta[accel.0].epoch);
        if let Some(cached) = self.failure_grants.get(&key) {
            return Ok(cached.clone());
        }
        self.mark_broken(accel)?;
        let m = &mut self.meta[accel.0];
        m.fence = m.epoch + 1;
        m.lease_expiry = None;
        if self.health.is_none() {
            // No heartbeat channel to distribute the fence: ack it here so
            // a later `repair` can re-grant (legacy behavior).
            self.meta[accel.0].acked_fence = self.meta[accel.0].fence;
        }
        let grants = self.try_allocate_at(job, 1, now)?;
        self.failure_grants.insert(key, grants.clone());
        Ok(grants)
    }

    /// Vacate `accel` for maintenance/rebalance: every holder (all
    /// residents, for a shared device) gets a replacement grant and an
    /// eviction notice, the old epoch is fenced, and the accelerator
    /// returns to the pool once its daemon acks the fence. Fails with
    /// [`ArmError::Insufficient`] (changing nothing) when replacements
    /// cannot be reserved for everyone.
    pub fn drain(
        &mut self,
        accel: AcceleratorId,
        now: Option<SimTime>,
    ) -> Result<Vec<HealthEvent>, ArmError> {
        match self.state_of(accel)? {
            AccelState::Free | AccelState::Broken => Ok(Vec::new()),
            AccelState::Assigned(job) => {
                let epoch = self.meta[accel.0].epoch;
                let evictees: Vec<JobId> = match self.shares.get(&accel.0) {
                    Some(s) => s.residents.clone(),
                    None => vec![job],
                };
                // Reserve the replacements first: the drained accelerator
                // must not be handed back as its own replacement, and a
                // capacity failure must leave the assignments untouched.
                let need = evictees.len() as u32;
                let free = self.free_count();
                if free < need {
                    return Err(ArmError::Insufficient {
                        requested: need,
                        free,
                    });
                }
                let mut events = Vec::with_capacity(evictees.len());
                self.shares.remove(&accel.0);
                for r in &evictees {
                    let replacement = self.try_allocate_at(*r, 1, now)?[0];
                    events.push(HealthEvent::Evicted {
                        job: *r,
                        accel,
                        epoch,
                        reason: EvictReason::Drained,
                        replacement: Some(replacement),
                    });
                }
                self.reclaim(accel.0, job);
                Ok(events)
            }
        }
    }

    /// Take `i` away from `job`: back to `Free`, lease cleared, fence
    /// raised past the revoked epoch. The accelerator stays ungrantable
    /// until its daemon acks the new fence (or immediately grantable when
    /// the health plane — and thus fencing — is disabled).
    fn reclaim(&mut self, i: usize, job: JobId) {
        if let Some(held) = self.held_by.get_mut(&job) {
            held.retain(|h| h.0 != i);
            if held.is_empty() {
                self.held_by.remove(&job);
            }
        }
        self.state[i] = AccelState::Free;
        let m = &mut self.meta[i];
        m.lease_expiry = None;
        m.fence = m.epoch + 1;
        if self.health.is_none() {
            m.acked_fence = m.fence;
        }
    }

    /// How many times an accelerator may be re-quarantined (after probe
    /// reintegration) before it is branded permanently broken.
    const MAX_QUARANTINES: u32 = 2;

    /// Quarantine `i` (evicting any holder with a replacement grant), or
    /// brand it broken outright when the re-quarantine budget is spent.
    fn quarantine(&mut self, i: usize, now: SimTime) -> Vec<HealthEvent> {
        let mut events = Vec::new();
        let holder = match self.state[i] {
            AccelState::Assigned(job) => Some(job),
            _ => None,
        };
        let epoch = self.meta[i].epoch;
        // Every resident of a shared domain loses the device, not just
        // the active holder; each gets its own eviction (and replacement
        // attempt) below.
        let evictees: Vec<JobId> = match self.shares.remove(&i) {
            Some(s) => s.residents,
            None => holder.into_iter().collect(),
        };
        if let Some(job) = holder {
            self.reclaim(i, job);
        }
        self.meta[i].quarantines += 1;
        self.meta[i].probation = false;
        self.meta[i].probing = false;
        if self.meta[i].quarantines > Self::MAX_QUARANTINES {
            self.break_accel(i);
            events.push(HealthEvent::Broke {
                accel: AcceleratorId(i),
            });
        } else {
            self.meta[i].health = Health::Quarantined;
        }
        for job in evictees {
            let replacement = self
                .try_allocate_at(job, 1, Some(now))
                .ok()
                .map(|mut g| g.remove(0));
            events.push(HealthEvent::Evicted {
                job,
                accel: AcceleratorId(i),
                epoch,
                reason: EvictReason::Quarantined,
                replacement,
            });
        }
        events
    }

    /// Permanently remove `i` from service (until an operator `repair`).
    fn break_accel(&mut self, i: usize) {
        self.shares.remove(&i);
        for held in self.held_by.values_mut() {
            held.retain(|h| h.0 != i);
        }
        self.held_by.retain(|_, held| !held.is_empty());
        self.state[i] = AccelState::Broken;
        let m = &mut self.meta[i];
        m.lease_expiry = None;
        m.fence = m.epoch + 1;
        m.probing = false;
        m.probation = false;
    }

    // --- HA snapshot / takeover -------------------------------------------

    /// Serialize the pool's *dynamic* state (assignments, health metadata,
    /// share domains, dedupe caches, counters) to compact little-endian
    /// bytes. Static configuration — inventory, health/share
    /// tuning, locality — is not included: a standby ARM is constructed
    /// with the identical configuration and [`Pool::load_state`] overlays
    /// the dynamic state onto it.
    pub fn save_state(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.save_into(&mut Writer::new(&mut buf));
        buf.to_vec()
    }

    /// Append [`Pool::save_state`]'s bytes to `w`.
    pub(crate) fn save_into(&self, w: &mut Writer<'_>) {
        w.u8(POOL_SNAPSHOT_VERSION);
        w.u32(self.accels.len() as u32);
        for (state, m) in self.state.iter().zip(&self.meta) {
            match state {
                AccelState::Free => w.u8(0),
                AccelState::Assigned(job) => {
                    w.u8(1);
                    w.put(job);
                }
                AccelState::Broken => w.u8(2),
            }
            w.u64(m.epoch);
            w.u64(m.fence);
            w.u64(m.acked_fence);
            w.put(&m.lease_expiry);
            w.put(&m.last_beat);
            w.u8(match m.health {
                Health::Healthy => 0,
                Health::Suspect => 1,
                Health::Quarantined => 2,
            });
            w.u32(m.quarantines);
            w.put(&m.probation);
            w.put(&m.probing);
            w.u64(m.busy_total);
            // Retired queue-depth slot: always 0. Kept so the snapshot
            // layout, and the bytes the ARM-HA replication link carries
            // (`arm.ha.snapshot_bytes`), stay as they were.
            w.u32(0);
        }
        // HashMaps iterate in nondeterministic order: sort every map by
        // key so identical states serialize to identical bytes.
        let mut held: Vec<(&JobId, &Vec<AcceleratorId>)> = self.held_by.iter().collect();
        held.sort_by_key(|(j, _)| j.0);
        w.u32(held.len() as u32);
        for (job, ids) in held {
            w.put(job);
            w.put(ids);
        }
        let mut fails: Vec<_> = self.failure_grants.iter().collect();
        fails.sort_by_key(|((j, a, e), _)| (j.0, a.0, *e));
        w.u32(fails.len() as u32);
        for (key, grants) in fails {
            w.put(key);
            w.put(grants);
        }
        let mut shares: Vec<(&usize, &ShareState)> = self.shares.iter().collect();
        shares.sort_by_key(|(i, _)| **i);
        w.u32(shares.len() as u32);
        for (&i, s) in shares {
            w.u32(i as u32);
            w.put(&s.residents);
            w.u32(s.active as u32);
            w.put(&s.next_rotation);
        }
        w.u64(self.total_grants);
        // Retired round-robin cursor slot: always 0, kept like the
        // queue-depth slot above.
        w.u64(0);
        w.u64(self.total_rotations);
    }

    /// Overlay [`Pool::save_state`] bytes onto this pool. The pool must
    /// have the same inventory size the snapshot was taken from (the
    /// standby mirrors the primary's construction); configuration is kept,
    /// only dynamic state is replaced. Malformed, truncated, or
    /// size-mismatched input fails with [`ArmError::Malformed`] and leaves
    /// the pool unchanged.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), ArmError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != POOL_SNAPSHOT_VERSION {
            return Err(ArmError::Malformed);
        }
        let n = r.u32()? as usize;
        if n != self.accels.len() {
            return Err(ArmError::Malformed);
        }
        let mut state = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        for _ in 0..n {
            state.push(match r.u8()? {
                0 => AccelState::Free,
                1 => AccelState::Assigned(r.get()?),
                2 => AccelState::Broken,
                _ => return Err(ArmError::Malformed),
            });
            meta.push(HealthMeta {
                epoch: r.u64()?,
                fence: r.u64()?,
                acked_fence: r.u64()?,
                lease_expiry: r.get()?,
                last_beat: r.get()?,
                health: match r.u8()? {
                    0 => Health::Healthy,
                    1 => Health::Suspect,
                    2 => Health::Quarantined,
                    _ => return Err(ArmError::Malformed),
                },
                quarantines: r.u32()?,
                probation: r.get()?,
                probing: r.get()?,
                busy_total: r.u64()?,
            });
            // The retired queue-depth slot (see `save_into`).
            r.u32()?;
        }
        let held_by: Vec<(JobId, Vec<AcceleratorId>)> = r.get()?;
        let failure_grants: Vec<((JobId, AcceleratorId, u64), Vec<GrantedAccelerator>)> =
            r.get()?;
        let shares = r.seq(|r| {
            let i = r.u32()? as usize;
            let share = ShareState {
                residents: r.get()?,
                active: r.u32()? as usize,
                next_rotation: r.get()?,
            };
            Ok((i, share))
        })?;
        let total_grants = r.u64()?;
        // The retired cursor slot (see `save_into`).
        r.u64()?;
        let total_rotations = r.u64()?;
        r.finish()?;
        self.state = state;
        self.meta = meta;
        self.held_by = held_by.into_iter().collect();
        self.failure_grants = failure_grants.into_iter().collect();
        self.shares = shares.into_iter().collect();
        self.total_grants = total_grants;
        self.total_rotations = total_rotations;
        Ok(())
    }

    /// Takeover grace rebase: a standby promoting to primary calls this
    /// once with its own clock before serving traffic. The failover gap —
    /// detection silence plus log replay — must not be charged against the
    /// cluster: every accelerator's liveness clock restarts at `now` (so
    /// daemons are not suspected or quarantined for beats the dead primary
    /// absorbed) and every live lease is extended to at least one full
    /// lease from `now` (so holders that could not renew during the gap
    /// are not wrongly fenced — the lease-safe-continuity guarantee).
    /// Pending probe orders are cleared so a lost `ProbeResult` re-orders
    /// at the next beat instead of wedging the accelerator in quarantine.
    /// Epochs and fences are untouched: they continue monotonically from
    /// the replicated state.
    pub fn grace_rebase(&mut self, now: SimTime) {
        let lease = self.health.map(|c| c.lease);
        for i in 0..self.meta.len() {
            let assigned = matches!(self.state[i], AccelState::Assigned(_));
            let m = &mut self.meta[i];
            if m.last_beat.is_some() {
                m.last_beat = Some(now);
            }
            if let (Some(expiry), Some(lease), true) = (m.lease_expiry, lease, assigned) {
                m.lease_expiry = Some(expiry.max(now + lease));
            }
            m.probing = false;
        }
    }

    /// A deterministic rendering of the complete pool state (assignments,
    /// health metadata, counters) for equality checks in determinism
    /// tests.
    pub fn snapshot(&self) -> String {
        let mut held: Vec<(u64, Vec<usize>)> = self
            .held_by
            .iter()
            .map(|(j, v)| {
                let mut ids: Vec<usize> = v.iter().map(|a| a.0).collect();
                ids.sort_unstable();
                (j.0, ids)
            })
            .collect();
        held.sort();
        let mut shares: Vec<(usize, Vec<u64>, usize)> = self
            .shares
            .iter()
            .map(|(&i, s)| (i, s.residents.iter().map(|j| j.0).collect(), s.active))
            .collect();
        shares.sort();
        format!(
            "state={:?} meta={:?} held={held:?} grants={} shares={shares:?} rotations={}",
            self.state, self.meta, self.total_grants, self.total_rotations
        )
    }

    /// Internal consistency check, used by tests:
    /// every `Assigned(j)` appears exactly once in `held_by[j]` and
    /// vice versa (modulo broken accelerators still charged to a job).
    pub fn check_invariants(&self) {
        for (i, st) in self.state.iter().enumerate() {
            if let AccelState::Assigned(job) = st {
                let held = self.held_by.get(job).expect("assigned but not held");
                assert_eq!(
                    held.iter().filter(|h| h.0 == i).count(),
                    1,
                    "accelerator {i} held {} times by {job:?}",
                    held.iter().filter(|h| h.0 == i).count()
                );
            }
        }
        for (job, held) in &self.held_by {
            for id in held {
                match self.state[id.0] {
                    AccelState::Assigned(owner) => assert_eq!(owner, *job, "cross-job hold"),
                    AccelState::Broken => {}
                    AccelState::Free => panic!("held accelerator {id:?} is Free"),
                }
            }
        }
        for (&i, s) in &self.shares {
            let AccelState::Assigned(active_job) = self.state[i] else {
                panic!("share domain on non-assigned accelerator {i}");
            };
            assert!(!s.residents.is_empty(), "empty share domain on {i}");
            assert!(s.active < s.residents.len(), "active index out of range");
            assert_eq!(
                s.residents[s.active], active_job,
                "active resident of {i} does not hold the live epoch"
            );
            if let Some(cfg) = self.share {
                assert!(
                    s.residents.len() as u32 <= cfg.slots_per_accel,
                    "accelerator {i} oversubscribed past its slot quota"
                );
            }
            let mut uniq: Vec<u64> = s.residents.iter().map(|j| j.0).collect();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), s.residents.len(), "duplicate resident on {i}");
            for r in &s.residents {
                if *r != active_job {
                    assert!(
                        !self
                            .held_by
                            .get(r)
                            .is_some_and(|h| h.contains(&AcceleratorId(i))),
                        "passive resident {r:?} charged with holding {i}"
                    );
                }
            }
        }
    }
}

/// Build a dense inventory: accelerator `i` on `nodes[i]` with daemon rank
/// `ranks[i]`.
pub fn inventory(nodes: &[NodeId], ranks: &[Rank]) -> Vec<AcceleratorDesc> {
    assert_eq!(nodes.len(), ranks.len());
    nodes
        .iter()
        .zip(ranks)
        .enumerate()
        .map(|(i, (&node, &daemon_rank))| AcceleratorDesc {
            id: AcceleratorId(i),
            node,
            daemon_rank,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Pool {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let ranks: Vec<Rank> = (100..100 + n).map(Rank).collect();
        Pool::new(inventory(&nodes, &ranks))
    }

    #[test]
    fn allocate_assigns_lowest_free_ids() {
        let mut p = pool(4);
        let g = p.try_allocate(JobId(1), 2).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].accel, AcceleratorId(0));
        assert_eq!(g[1].accel, AcceleratorId(1));
        assert_eq!(g[0].daemon_rank, Rank(100));
        assert_eq!(p.free_count(), 2);
        p.check_invariants();
    }

    #[test]
    fn locality_prefers_nearest_node_with_stable_ties() {
        // 4 accelerators on nodes 0..4; hop matrix says node 2 is nearest
        // to accels on nodes 2 and 3 (same edge switch), two hops from
        // nodes 0 and 1.
        let mut p = pool(4);
        p.set_locality(vec![
            vec![0, 2, 2, 2],
            vec![2, 0, 2, 2],
            vec![2, 2, 0, 1],
            vec![2, 2, 1, 0],
        ]);
        let g = p
            .try_allocate_near(JobId(1), 2, None, Some(NodeId(2)))
            .unwrap();
        let ids: Vec<usize> = g.iter().map(|g| g.accel.0).collect();
        assert_eq!(ids, vec![2, 3], "nearest accelerators granted first");
        // Equidistant remainder falls back to lowest-id (stable) order.
        let g = p
            .try_allocate_near(JobId(2), 2, None, Some(NodeId(2)))
            .unwrap();
        let ids: Vec<usize> = g.iter().map(|g| g.accel.0).collect();
        assert_eq!(ids, vec![0, 1]);
        p.check_invariants();
    }

    #[test]
    fn locality_all_equal_distances_is_plain_first_fit() {
        // A flat fabric (single switch): every distance equal, so the
        // locality-sorted order must reproduce plain first-fit exactly.
        let mut p = pool(4);
        p.set_locality(vec![vec![1; 4]; 4]);
        let g = p
            .try_allocate_near(JobId(1), 2, None, Some(NodeId(3)))
            .unwrap();
        let ids: Vec<usize> = g.iter().map(|g| g.accel.0).collect();
        assert_eq!(ids, vec![0, 1]);
        p.check_invariants();
    }

    #[test]
    fn allocation_is_all_or_nothing() {
        let mut p = pool(3);
        p.try_allocate(JobId(1), 2).unwrap();
        let err = p.try_allocate(JobId(2), 2).unwrap_err();
        assert_eq!(
            err,
            ArmError::Insufficient {
                requested: 2,
                free: 1
            }
        );
        assert_eq!(p.free_count(), 1, "failed allocation must not leak");
        p.check_invariants();
    }

    #[test]
    fn exclusive_assignment() {
        let mut p = pool(2);
        p.try_allocate(JobId(1), 1).unwrap();
        p.try_allocate(JobId(2), 1).unwrap();
        assert_eq!(
            p.state_of(AcceleratorId(0)),
            Ok(AccelState::Assigned(JobId(1)))
        );
        assert_eq!(
            p.state_of(AcceleratorId(1)),
            Ok(AccelState::Assigned(JobId(2)))
        );
        p.check_invariants();
    }

    #[test]
    fn release_returns_to_pool_and_is_reusable() {
        let mut p = pool(2);
        let g = p.try_allocate(JobId(1), 2).unwrap();
        let ids: Vec<_> = g.iter().map(|g| g.accel).collect();
        assert_eq!(p.release(JobId(1), &ids[..1]).unwrap(), 1);
        assert_eq!(p.free_count(), 1);
        let g2 = p.try_allocate(JobId(2), 1).unwrap();
        assert_eq!(g2[0].accel, ids[0]);
        p.check_invariants();
    }

    #[test]
    fn release_of_unheld_is_rejected_atomically() {
        let mut p = pool(3);
        let g = p.try_allocate(JobId(1), 1).unwrap();
        // One valid + one not held: nothing must change.
        let err = p
            .release(JobId(1), &[g[0].accel, AcceleratorId(2)])
            .unwrap_err();
        assert_eq!(err, ArmError::NotHeld);
        assert_eq!(p.state_of(g[0].accel), Ok(AccelState::Assigned(JobId(1))));
        p.check_invariants();
    }

    #[test]
    fn release_job_frees_everything() {
        let mut p = pool(4);
        p.try_allocate(JobId(1), 3).unwrap();
        assert_eq!(p.release_job(JobId(1)), 3);
        assert_eq!(p.free_count(), 4);
        assert!(p.held_by(JobId(1)).is_empty());
        p.check_invariants();
    }

    #[test]
    fn broken_accelerator_not_assignable() {
        let mut p = pool(2);
        p.mark_broken(AcceleratorId(0)).unwrap();
        let g = p.try_allocate(JobId(1), 1).unwrap();
        assert_eq!(g[0].accel, AcceleratorId(1));
        let err = p.try_allocate(JobId(2), 1).unwrap_err();
        assert!(matches!(err, ArmError::Insufficient { free: 0, .. }));
        p.check_invariants();
    }

    #[test]
    fn broken_while_assigned_release_acknowledged() {
        let mut p = pool(1);
        let g = p.try_allocate(JobId(1), 1).unwrap();
        p.mark_broken(g[0].accel).unwrap();
        // Job releases it at job end: acknowledged, stays broken.
        assert_eq!(p.release(JobId(1), &[g[0].accel]).unwrap(), 0);
        assert_eq!(p.state_of(g[0].accel), Ok(AccelState::Broken));
        assert_eq!(p.free_count(), 0);
        p.check_invariants();
    }

    #[test]
    fn repair_returns_to_free() {
        let mut p = pool(1);
        p.mark_broken(AcceleratorId(0)).unwrap();
        p.repair(AcceleratorId(0)).unwrap();
        assert_eq!(p.free_count(), 1);
        p.check_invariants();
    }

    #[test]
    fn stats_count_states() {
        let mut p = pool(4);
        p.try_allocate(JobId(1), 2).unwrap();
        p.mark_broken(AcceleratorId(3)).unwrap();
        let s = p.stats();
        assert_eq!((s.free, s.assigned, s.broken), (1, 2, 1));
    }

    #[test]
    fn unknown_accelerator_errors() {
        let mut p = pool(1);
        assert_eq!(
            p.mark_broken(AcceleratorId(5)),
            Err(ArmError::UnknownAccelerator)
        );
        assert_eq!(
            p.state_of(AcceleratorId(9)),
            Err(ArmError::UnknownAccelerator)
        );
    }

    // ---- oversubscription (time-sliced vGPU sharing) ----

    use crate::health::HealthConfig;

    fn shared_pool(n: usize) -> Pool {
        let mut p = pool(n);
        p.set_health(HealthConfig::default());
        p.set_share(ShareConfig::default());
        p
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn join_share_fences_previous_holder() {
        let mut p = shared_pool(1);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g1[0].accel;
        p.open_share(a, JobId(1)).unwrap();
        assert_eq!(p.share_slots(), 1);
        let g2 = p.try_join_share_at(JobId(2), Some(at(1))).unwrap();
        assert_eq!(g2.accel, a);
        // The joiner's slice starts immediately with a fresh (fenced)
        // epoch; the rotated-out holder's old epoch is now stale.
        assert!(g2.epoch > g1[0].epoch);
        assert_eq!(p.residents(a), vec![JobId(1), JobId(2)]);
        assert_eq!(p.state_of(a), Ok(AccelState::Assigned(JobId(2))));
        assert_eq!(p.share_slots(), 0, "domain is full");
        p.check_invariants();
    }

    #[test]
    fn slice_rotation_round_robins_residents() {
        let mut p = shared_pool(1);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g1[0].accel;
        p.open_share(a, JobId(1)).unwrap();
        p.try_join_share_at(JobId(2), Some(at(1))).unwrap();
        // Slice is 5ms: at 6ms the device rotates back to job 1.
        let events = p.tick(at(6));
        let rotated: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                HealthEvent::Rotated { job, accel, grant } => Some((*job, *accel, grant.epoch)),
                _ => None,
            })
            .collect();
        assert_eq!(rotated.len(), 1);
        assert_eq!((rotated[0].0, rotated[0].1), (JobId(1), a));
        assert_eq!(p.state_of(a), Ok(AccelState::Assigned(JobId(1))));
        // And 5ms later it rotates forward to job 2 again.
        let events = p.tick(at(11));
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::Rotated { job, .. } if *job == JobId(2))));
        assert_eq!(p.total_rotations(), 2, "two slice rotations");
        p.check_invariants();
    }

    #[test]
    fn release_of_active_resident_rotates_to_survivor() {
        let mut p = shared_pool(1);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g1[0].accel;
        p.open_share(a, JobId(1)).unwrap();
        p.try_join_share_at(JobId(2), Some(at(1))).unwrap();
        // Job 2 (active) leaves: the device rotates to job 1 rather than
        // going free, and the release is acknowledged.
        let (released, events) = p.release_at(JobId(2), &[a], Some(at(2))).unwrap();
        assert_eq!(released, 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::Rotated { job, .. } if *job == JobId(1))));
        assert_eq!(p.state_of(a), Ok(AccelState::Assigned(JobId(1))));
        assert_eq!(p.residents(a), vec![JobId(1)]);
        // The last resident leaving frees the device.
        let (released, _) = p.release_at(JobId(1), &[a], Some(at(3))).unwrap();
        assert_eq!(released, 1);
        assert_eq!(p.state_of(a), Ok(AccelState::Free));
        assert!(p.residents(a).is_empty());
        p.check_invariants();
    }

    #[test]
    fn passive_resident_release_keeps_active_running() {
        let mut p = shared_pool(1);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g1[0].accel;
        p.open_share(a, JobId(1)).unwrap();
        p.try_join_share_at(JobId(2), Some(at(1))).unwrap();
        // Job 1 is passive (job 2 holds the live epoch); its release must
        // not disturb job 2.
        let (released, events) = p.release_at(JobId(1), &[a], Some(at(2))).unwrap();
        assert_eq!((released, events.len()), (1, 0));
        assert_eq!(p.state_of(a), Ok(AccelState::Assigned(JobId(2))));
        assert_eq!(p.residents(a), vec![JobId(2)]);
        p.check_invariants();
    }

    #[test]
    fn quarantine_evicts_every_resident() {
        let mut p = shared_pool(2);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g1[0].accel;
        p.open_share(a, JobId(1)).unwrap();
        p.try_join_share_at(JobId(2), Some(at(0))).unwrap();
        // The shared device's daemon goes silent past the quarantine
        // threshold: both residents are evicted, each with a replacement
        // attempt from the free accelerator.
        p.heartbeat(a, 0, 1, at(0)).unwrap();
        let events = p.tick(at(9));
        let evicted: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                HealthEvent::Evicted {
                    job, replacement, ..
                } => Some((*job, replacement.is_some())),
                _ => None,
            })
            .collect();
        assert_eq!(evicted.len(), 2, "both residents evicted: {events:?}");
        assert_eq!(
            evicted.iter().filter(|(_, repl)| *repl).count(),
            1,
            "one free accelerator covers exactly one replacement"
        );
        assert!(p.residents(a).is_empty());
        p.check_invariants();
    }

    #[test]
    fn lease_expiry_on_shared_device_prunes_only_active_resident() {
        let mut p = shared_pool(1);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g1[0].accel;
        p.open_share(a, JobId(1)).unwrap();
        p.try_join_share_at(JobId(2), Some(at(1))).unwrap();
        // Nobody renews: at 51ms+ the active resident's lease lapses. The
        // survivor inherits the device instead of the pool reclaiming it.
        // (No heartbeats ever arrived, so liveness never trips first.)
        let events = p.tick(at(52));
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::Evicted { job, .. } if *job == JobId(2))));
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::Rotated { job, .. } if *job == JobId(1))));
        assert_eq!(p.state_of(a), Ok(AccelState::Assigned(JobId(1))));
        assert_eq!(p.residents(a), vec![JobId(1)]);
        p.check_invariants();
    }

    // ---- HA snapshot / takeover ----

    #[test]
    fn save_load_roundtrips_complete_dynamic_state() {
        let mut p = shared_pool(4);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        p.open_share(g1[0].accel, JobId(1)).unwrap();
        p.try_join_share_at(JobId(2), Some(at(1))).unwrap();
        p.try_allocate_at(JobId(3), 1, Some(at(1))).unwrap();
        p.heartbeat(AcceleratorId(2), 0, 3, at(2)).unwrap();
        p.report_failure(JobId(3), AcceleratorId(1), Some(at(3)))
            .unwrap();
        p.tick(at(9));

        let bytes = p.save_state();
        let mut q = shared_pool(4);
        q.load_state(&bytes).unwrap();
        assert_eq!(q.snapshot(), p.snapshot(), "restored pool must match");
        assert_eq!(q.save_state(), bytes, "serialization is deterministic");
        q.check_invariants();
        // The restored pool keeps evolving identically.
        assert_eq!(p.tick(at(20)), q.tick(at(20)));
        assert_eq!(p.snapshot(), q.snapshot());
    }

    #[test]
    fn load_state_rejects_malformed_without_corrupting() {
        let mut p = shared_pool(2);
        p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let bytes = p.save_state();
        let before = p.snapshot();
        for cut in 0..bytes.len() {
            assert_eq!(p.load_state(&bytes[..cut]), Err(ArmError::Malformed));
        }
        let wrong_size = pool(3).save_state();
        assert_eq!(p.load_state(&wrong_size), Err(ArmError::Malformed));
        assert_eq!(p.snapshot(), before, "failed loads must not corrupt");
    }

    #[test]
    fn save_state_bytes_are_pinned() {
        // Standbys decode these bytes, and their length is what
        // `arm.ha.snapshot_bytes` counts: neither the field order nor the
        // retired queue-depth and cursor slots (always 0) may drift.
        let mut p = shared_pool(3);
        let g = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        p.open_share(g[0].accel, JobId(1)).unwrap();
        p.try_join_share_at(JobId(2), Some(at(1))).unwrap();
        p.try_allocate_at(JobId(3), 1, Some(at(1))).unwrap();
        p.heartbeat(AcceleratorId(1), 0, 3, at(2)).unwrap();
        p.report_failure(JobId(3), AcceleratorId(1), Some(at(3)))
            .unwrap();
        let hex: String = p.save_state().iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            "0103000000010200000000000000020000000000000002000000000000000000",
            "00000000000001c0320a03000000000000000000000000000000000000000000",
            "0000000201000000000000000200000000000000000000000000000000018084",
            "1e00000000000000000000000003000000000000000000000001030000000000",
            "00000100000000000000000000000000000000000000000000000140b7280300",
            "0000000000000000000000000000000000000000000000020000000200000000",
            "0000000100000000000000030000000000000002000000010000000200000001",
            "0000000300000000000000010000000100000000000000010000000200000066",
            "0000000200000001000000000000000100000000000000020000000100000000",
            "00000002000000000000000100000001808d5b00000000000400000000000000",
            "00000000000000000000000000000000",
        );
        assert_eq!(hex, expected);
    }

    #[test]
    fn grace_rebase_preserves_grants_across_a_failover_gap() {
        let mut p = shared_pool(2);
        let g = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        p.heartbeat(g[0].accel, 0, 1, at(1)).unwrap();
        let epoch = p.meta(g[0].accel).unwrap().epoch;
        let fence = p.meta(g[0].accel).unwrap().fence;
        // A long primary outage: without the rebase, the first tick at
        // t=120ms would quarantine the accelerator (silent since 1ms) and
        // expire the lease (granted at 0ms, 50ms long).
        p.grace_rebase(at(120));
        let events = p.tick(at(120));
        assert!(
            events.is_empty(),
            "failover gap charged to holders: {events:?}"
        );
        assert_eq!(p.state_of(g[0].accel), Ok(AccelState::Assigned(JobId(1))));
        let m = p.meta(g[0].accel).unwrap();
        assert_eq!((m.epoch, m.fence), (epoch, fence), "epochs must not move");
        assert_eq!(m.health, Health::Healthy);
        // Liveness judgement resumes from the rebased clock.
        let events = p.tick(at(120 + 9));
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::Evicted { .. })
                || matches!(e, HealthEvent::Suspected { .. })));
    }

    // ---- tick idempotence under replayed heartbeats (takeover replays
    // recent beats; transitions must not double-fire) ----

    #[test]
    fn duplicated_heartbeats_do_not_move_epochs_or_budgets() {
        let mut p = shared_pool(2);
        let g = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g[0].accel;
        p.heartbeat(a, 0, 1, at(1)).unwrap();
        let m1 = p.meta(a).unwrap().clone();
        // Replay the identical beat (a takeover re-applies the log tail).
        let ack1 = p.heartbeat(a, 0, 1, at(1)).unwrap();
        let ack2 = p.heartbeat(a, 0, 1, at(1)).unwrap();
        assert_eq!(ack1, ack2, "duplicate beats must ack identically");
        let m2 = p.meta(a).unwrap();
        assert_eq!(m1.epoch, m2.epoch);
        assert_eq!(m1.fence, m2.fence);
        assert_eq!(m1.acked_fence, m2.acked_fence);
        assert_eq!(m1.quarantines, m2.quarantines);
        assert_eq!(m1.lease_expiry, m2.lease_expiry);
        p.check_invariants();
    }

    #[test]
    fn tick_is_idempotent_at_a_fixed_instant() {
        let mut p = shared_pool(2);
        let g = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        let a = g[0].accel;
        p.heartbeat(a, 0, 1, at(0)).unwrap();
        // First tick past the quarantine threshold fires the transitions.
        let events = p.tick(at(9));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, HealthEvent::Evicted { .. })),
            "expected a quarantine eviction: {events:?}"
        );
        let quarantines = p.meta(a).unwrap().quarantines;
        let fence = p.meta(a).unwrap().fence;
        // Replaying the sweep at the same instant (or later, with no new
        // beats) must not burn another quarantine budget or re-raise the
        // fence: the transition already happened.
        for _ in 0..3 {
            let again = p.tick(at(9));
            assert!(again.is_empty(), "double-fired transitions: {again:?}");
        }
        let m = p.meta(a).unwrap();
        assert_eq!(m.quarantines, quarantines, "quarantine budget re-charged");
        assert_eq!(m.fence, fence, "fence re-bumped by replayed tick");
        p.check_invariants();
    }

    #[test]
    fn share_slots_ignore_unhealthy_and_unshared() {
        let mut p = shared_pool(2);
        let g1 = p.try_allocate_at(JobId(1), 1, Some(at(0))).unwrap();
        p.open_share(g1[0].accel, JobId(1)).unwrap();
        // Accel 1 assigned but NOT opened for sharing: contributes none.
        p.try_allocate_at(JobId(2), 1, Some(at(0))).unwrap();
        assert_eq!(p.share_slots(), 1);
        p.mark_broken(g1[0].accel).unwrap();
        assert_eq!(p.share_slots(), 0);
        let err = p.try_join_share_at(JobId(3), Some(at(1))).unwrap_err();
        assert!(matches!(err, ArmError::Insufficient { .. }));
        p.check_invariants();
    }
}
