//! Health-plane configuration and per-accelerator health metadata.
//!
//! The ARM's failure handling before this module was purely *client*
//! driven (`ReportFailure`): a crashed compute node leaked its
//! accelerators forever and a zombie client could keep driving a
//! reassigned device. The health plane adds ARM-driven reclamation:
//!
//! * **Leases + epochs** — every assignment carries a time-bounded lease
//!   and a monotonically increasing epoch. Traffic renews the lease
//!   implicitly (daemon heartbeats report a busy counter); idle clients
//!   renew explicitly with `RenewLease`. On expiry the ARM reclaims the
//!   accelerator and raises its **fence**: any later op stamped with an
//!   older epoch is rejected deterministically by the daemon.
//! * **Liveness** — daemons heartbeat the ARM on the sim clock. Missed
//!   beats move an accelerator `Healthy → Suspect → Quarantined`; holders
//!   of a quarantined accelerator are evicted proactively with a
//!   replacement grant. A quarantined accelerator whose beats resume is
//!   probed; passing the probe re-enters the pool *on probation* with a
//!   bounded re-quarantine budget before it is branded permanently broken.
//! * **Fence acks** — a reclaimed accelerator is only grantable again once
//!   its daemon has acknowledged the new fence epoch (reported in a later
//!   heartbeat), so a new assignment can never race a zombie's in-flight
//!   ops.
//!
//! All state lives in the pure [`crate::state::Pool`]; timestamps are
//! passed in explicitly, which keeps every transition deterministic and
//! directly proptestable.

use dacc_sim::prelude::{SimDuration, SimTime};

/// Liveness state of one accelerator, as judged from its daemon's
/// heartbeats.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Health {
    /// Beats arriving on schedule (or liveness not yet judged).
    #[default]
    Healthy,
    /// Beats overdue; still assigned but under suspicion.
    Suspect,
    /// Beats missed long enough that the ARM revoked all assignments.
    /// Re-enters the pool only after a successful probe self-test.
    Quarantined,
}

/// Tuning for the health plane. Attached to a [`crate::state::Pool`] with
/// [`crate::state::Pool::set_health`]; a pool without it behaves exactly
/// like the pre-health-plane ARM (no leases, no liveness judgement).
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Lease duration granted at assignment and on each renewal. Must
    /// comfortably exceed the front-end's retry timeout: a replacement
    /// grant carried by an eviction notice has to survive until a
    /// timed-out client adopts it, or the replacement itself expires and
    /// is fenced before first use.
    pub lease: SimDuration,
    /// Interval between daemon heartbeats.
    pub heartbeat_period: SimDuration,
    /// Beat silence after which an accelerator turns `Suspect`.
    pub suspect_after: SimDuration,
    /// Beat silence after which an accelerator is quarantined and its
    /// holder evicted.
    pub quarantine_after: SimDuration,
    /// Beat silence after which a quarantined accelerator is branded
    /// permanently broken (its daemon is gone, not merely flaky).
    pub dead_after: SimDuration,
    /// Virtual time a quarantine probe self-test takes on the daemon.
    pub probe_cost: SimDuration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            lease: SimDuration::from_millis(50),
            heartbeat_period: SimDuration::from_millis(1),
            suspect_after: SimDuration::from_millis(3),
            quarantine_after: SimDuration::from_millis(8),
            dead_after: SimDuration::from_millis(100),
            probe_cost: SimDuration::from_micros(500),
        }
    }
}

/// Per-accelerator health metadata tracked by the pool.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HealthMeta {
    /// Epoch of the current (or most recent) assignment. Bumped on every
    /// grant; carried in [`crate::proto::GrantedAccelerator`].
    pub epoch: u64,
    /// Fence epoch: ops stamped with an epoch below this are stale and
    /// must be rejected by the daemon. Raised when the ARM reclaims the
    /// accelerator out from under a (possibly zombie) holder.
    pub fence: u64,
    /// Highest fence the daemon has confirmed adopting (via heartbeat).
    /// The accelerator is only grantable while `acked_fence >= fence`.
    pub acked_fence: u64,
    /// When the current lease runs out (`None` when unassigned or when
    /// the pool has no health config).
    pub lease_expiry: Option<SimTime>,
    /// Time of the last heartbeat (`None` until the first beat arrives;
    /// liveness is not judged before that).
    pub last_beat: Option<SimTime>,
    /// Liveness judgement.
    pub health: Health,
    /// Times this accelerator has entered quarantine.
    pub quarantines: u32,
    /// True after a probe-passed reintegration (still counts against the
    /// re-quarantine budget).
    pub probation: bool,
    /// A probe self-test has been ordered and its result is pending.
    pub probing: bool,
    /// Cumulative busy counter accumulated from heartbeats (a coarse
    /// utilization signal; the share placer prefers cooler accelerators).
    pub busy_total: u64,
}
