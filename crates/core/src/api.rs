//! The front-end computation API (§IV, Listing 2).
//!
//! Compute-node processes drive remote accelerators through
//! [`RemoteAccelerator`]: `mem_alloc` / `mem_cpy_h2d` / `mem_cpy_d2h` /
//! `mem_free` plus the three-step kernel interface `kernel_create` /
//! `kernel_set_args` / `kernel_run` — the same shape as the paper's
//! `acMemAlloc(…, ac_handle)` family. [`AcDevice`] unifies a remote
//! accelerator with a node-local GPU behind one interface so the same
//! application code runs in both configurations (that is exactly the
//! "port by substituting calls" exercise of §V.B/§V.C).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::mpi::{Endpoint, Envelope, Rank, Tag};
use dacc_fabric::payload::Payload;
use dacc_sim::time::{SimDuration, SimTime};
use dacc_telemetry::Telemetry;
use dacc_vgpu::device::{GpuError, HostMemKind, VirtualGpu};
use dacc_vgpu::kernel::{KernelArg, LaunchConfig};
use dacc_vgpu::memory::DevicePtr;

use crate::failover::CheckpointPolicy;
use crate::proto::{
    ac_tags, seal_block, Request, RequestFrame, Response, Status, WireProtocol, CRC_TRAILER_BYTES,
};
use crate::train::{Sink, Source, Spec, Train};

/// Transfer-protocol selection policy for one direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferProtocol {
    /// Single bulk message, then one DMA.
    Naive,
    /// Fixed pipeline block size.
    Pipeline {
        /// Block size in bytes.
        block: u64,
    },
    /// Size-dependent block size (§V.A: 128 KiB below the threshold,
    /// 512 KiB above it on the paper's testbed).
    Adaptive {
        /// Block size for messages below `threshold`.
        small_block: u64,
        /// Block size for messages at or above `threshold`.
        large_block: u64,
        /// Switch-over message size.
        threshold: u64,
    },
}

impl TransferProtocol {
    /// The tuned default for host→device copies: 128 KiB blocks below the
    /// crossover, 512 KiB above it. The crossover is system-dependent and
    /// tuned once per installation (§V.A); on the paper's testbed it fell at
    /// 9 MiB, on this simulated testbed it measures ≈ 4 MiB.
    pub fn h2d_default() -> Self {
        TransferProtocol::Adaptive {
            small_block: 128 << 10,
            large_block: 512 << 10,
            threshold: 4 << 20,
        }
    }

    /// The paper testbed's tuning (crossover at 9 MiB), kept for the figure
    /// harnesses that label a series "pipeline-128-512K" as in Fig. 5.
    pub fn h2d_paper_tuning() -> Self {
        TransferProtocol::Adaptive {
            small_block: 128 << 10,
            large_block: 512 << 10,
            threshold: 9 << 20,
        }
    }

    /// The tuned default for device→host copies (128 KiB everywhere).
    pub fn d2h_default() -> Self {
        TransferProtocol::Pipeline { block: 128 << 10 }
    }

    /// Resolve to the wire protocol for a transfer of `len` bytes.
    pub fn wire(&self, len: u64) -> WireProtocol {
        match *self {
            TransferProtocol::Naive => WireProtocol::Naive,
            TransferProtocol::Pipeline { block } => WireProtocol::Pipeline { block },
            TransferProtocol::Adaptive {
                small_block,
                large_block,
                threshold,
            } => WireProtocol::Pipeline {
                block: if len < threshold {
                    small_block
                } else {
                    large_block
                },
            },
        }
    }
}

/// Per-request fault-tolerance policy (§III-A).
///
/// Every operation of the front-end is one loop of attempts
/// (`RemoteAccelerator::exchange`). When a policy is set, every request
/// carries an operation id and an attempt number ([`RequestFrame`]); the
/// response and each data block are awaited on attempt-scoped tags with a
/// deadline, and an attempt that goes unanswered, loses or damages data, or
/// is shed by an overloaded daemon is replayed whole after a backoff. The
/// daemon dedupes replayed requests by operation id, so retries of
/// non-idempotent operations (allocations, kernel launches) are safe: a
/// replay whose original execution succeeded gets the cached response
/// instead of a second execution; copies, snapshots and restores are
/// re-executed, which is idempotent. Once every attempt has failed the
/// operation fails with [`AcError::Unreachable`] — the accelerator is
/// presumed dead and should be reported to the ARM for replacement — or,
/// if the last attempt was shed, with [`AcError::Overloaded`]: alive, and
/// saturated.
///
/// `None` in [`FrontendConfig::retry`] is the same loop run once, untimed
/// and unframed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Per-attempt response deadline. Must comfortably exceed the longest
    /// legitimate operation (large transfer, long kernel) or healthy slow
    /// operations will be spuriously retried.
    pub timeout: SimDuration,
    /// Additional attempts after the first (0 = timeout only, no retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff: SimDuration,
    /// Ceiling on the doubled backoff. The default is effectively
    /// uncapped (`u64::MAX` nanoseconds), which reproduces the historic
    /// unbounded doubling exactly; overload-hardened deployments cap it
    /// so a long outage cannot push waiting clients into hour-long sleeps.
    pub max_backoff: SimDuration,
    /// Spread each backoff pause by ±25%, deterministically derived from
    /// `(op_id, attempt)`. Decorrelates retry herds after a shared fault
    /// *without* drawing from the seeded RNG — chaos schedules replay
    /// identically whether jitter is on or off. Off by default (archived
    /// virtual-time baselines keep their exact pauses).
    pub jitter: bool,
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based) of operation
    /// `op_id`: doubled per retry, capped at `max_backoff`, and — with
    /// `jitter` on — spread ±25% by a pure hash of `(op_id, attempt)` so
    /// synchronized retry herds decorrelate without consuming seeded
    /// randomness.
    fn pause_before(&self, op_id: u64, attempt: u32) -> SimDuration {
        let exp = self
            .backoff
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(self.max_backoff);
        if !self.jitter {
            return exp;
        }
        // Scale by a factor in [0.75, 1.25).
        let h = jitter_hash(op_id, attempt) % 512;
        SimDuration::from_nanos(
            (u128::from(exp.as_nanos()) * (768 + u128::from(h)) / 1024).min(u128::from(u64::MAX))
                as u64,
        )
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(50),
            max_retries: 3,
            backoff: SimDuration::from_micros(500),
            max_backoff: SimDuration::from_nanos(u64::MAX),
            jitter: false,
        }
    }
}

/// Client-side overload control: end-to-end deadlines, a token-bucket
/// retry budget, and a per-accelerator circuit breaker. All three knobs
/// default to off, preserving the pre-overload-plane behaviour (and every
/// archived virtual-time baseline) byte-for-byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OverloadConfig {
    /// Per-operation deadline budget: each operation's absolute deadline
    /// is `now + deadline` at first send, stamped into the frame
    /// ([`crate::proto::DEADLINE_MARKER`]) so daemons can drop expired
    /// work, and enforced locally so the client stops retrying an
    /// operation whose caller has already given up.
    pub deadline: Option<SimDuration>,
    /// Token-bucket retry budget shared by all clones of a handle.
    /// `None` = unlimited retries (legacy).
    pub retry_budget: Option<RetryBudget>,
    /// Per-accelerator circuit breaker. `None` = disabled.
    pub breaker: Option<BreakerConfig>,
}

/// A token-bucket retry budget: retries *spend* whole tokens, successes
/// *earn* fractional ones. Under a healthy accelerator the bucket stays
/// full and retries are free; under sustained failure the bucket drains
/// and further retries fail fast instead of amplifying the storm (the
/// classic metastable-failure guard: total traffic is bounded at
/// `1 + earn_tenths/10` times the offered load).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryBudget {
    /// Bucket capacity in retry tokens (the bucket starts full).
    pub capacity: u32,
    /// Tokens earned per successful response, in tenths of a token
    /// (1 = one retry banked per ten successes).
    pub earn_tenths: u32,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            capacity: 10,
            earn_tenths: 1,
        }
    }
}

/// Circuit-breaker tuning for one accelerator handle.
///
/// Closed → (threshold consecutive failures) → Open → (after `open_for`)
/// → Half-open probe → Closed on success / Open on failure. While open,
/// calls fail fast with [`AcError::Overloaded`] instead of queueing onto
/// a struggling accelerator — the client-side mirror of the health
/// plane's Suspect state, reacting in round-trips instead of heartbeats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BreakerConfig {
    /// Consecutive overload-class failures (timeouts, `Overloaded`
    /// rejects) that open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting one half-open
    /// probe operation.
    pub open_for: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_for: SimDuration::from_millis(5),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BreakerState {
    Closed,
    /// Shedding until the stored instant, then half-open.
    Open(SimTime),
    /// One probe operation is in flight; everything else sheds.
    HalfOpen,
}

/// The block train riding with one request (§III, Fig. 4): one direction,
/// or none.
enum Data<'a> {
    /// Request and response only.
    None,
    /// Host→device: every part cut into sealed blocks of `block` bytes
    /// (`acMemCpy` sends one part, a restore one per region).
    Out { parts: &'a [Payload], block: u64 },
    /// Device→host: `regions[i]` lands in `out[i]` (`acMemCpy` reads one
    /// region, a snapshot many). A slice, not a `Vec`, so that a single
    /// copy hands its payload back without allocating.
    In {
        regions: &'a [(DevicePtr, u64)],
        protocol: WireProtocol,
        out: &'a mut [Payload],
    },
}

/// How one attempt of an operation goes on the wire — the front-end's half
/// of what the daemon derives from the `framed` bit of the request it
/// decodes (DESIGN §13 has the table).
struct Attempt {
    request: Payload,
    response_tag: Tag,
    data_tag: Tag,
    /// Longest wait for the response and for each data block. `None` waits
    /// without arming a timer.
    timeout: Option<SimDuration>,
}

/// Why an attempt did not complete its operation.
enum Failure {
    /// No response in time, or (`garbled`) one that failed its CRC: damage
    /// in flight is healed by retransmission, never trusted.
    Silent { garbled: bool },
    /// The block train was cut: a block lost ([`Status::Timeout`]) or
    /// failing its CRC ([`Status::Corrupt`]), seen by whichever side was
    /// receiving.
    Data(Status),
    /// The daemon shed the request before queueing it, and says when to
    /// come back.
    Shed(SimDuration),
}

impl Failure {
    /// What the failure is to a caller with no retry policy: the answer.
    fn unretried(self) -> AcError {
        match self {
            Failure::Silent { .. } => AcError::Protocol,
            Failure::Data(cut) => AcError::Remote(cut),
            Failure::Shed(_) => AcError::Remote(Status::Overloaded),
        }
    }
}

/// Shared mutable overload state (one per front-end session; clones of a
/// [`RemoteAccelerator`] share it, like the op-id counter).
#[derive(Debug)]
struct OverloadState {
    /// Banked retry tokens, in tenths.
    budget_tenths: u64,
    consecutive_failures: u32,
    breaker: BreakerState,
    opened: u64,
    closed: u64,
}

/// Lifetime circuit-breaker transition counts for one handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BreakerStats {
    /// Times the breaker tripped open.
    pub opened: u64,
    /// Times a half-open probe succeeded and re-closed it.
    pub closed: u64,
}

/// Deterministic pseudo-random spread for retry jitter: a splitmix64
/// finalizer over `(op_id, attempt)`. Pure — consumes no seeded RNG, so
/// enabling jitter cannot shift any chaos schedule.
fn jitter_hash(op_id: u64, attempt: u32) -> u64 {
    let mut z = op_id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Front-end configuration.
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// Host→device protocol policy.
    pub h2d: TransferProtocol,
    /// Device→host protocol policy.
    pub d2h: TransferProtocol,
    /// Timeout/retry policy. `None` (the default) is the loop run once,
    /// untimed and unframed: bare requests on the fixed tags of §III, no
    /// timer armed, the one attempt's outcome returned as it is — exactly
    /// the pre-fault-tolerance behavior.
    pub retry: Option<RetryPolicy>,
    /// Use the fused [`Request::Launch`] (one round trip) for
    /// [`RemoteAccelerator::launch`] instead of the legacy
    /// create → set-args → run sequence (three round trips). On by
    /// default; the A2-style ablations turn it off to measure the
    /// paper-era behaviour.
    pub fused_launch: bool,
    /// Automatic checkpoint policy for resilient sessions: snapshot live
    /// device state and truncate the command log whenever the logged tail
    /// grows past the policy's thresholds, bounding recovery time by the
    /// tail instead of the job's whole history. `None` (the default) keeps
    /// the full log — the pre-checkpoint behaviour.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Overload-robustness plane: per-op deadlines, retry budgets, and a
    /// per-accelerator circuit breaker. `None` (the default) disables all
    /// three — wire traffic, retry pacing, and archived virtual-time
    /// baselines are untouched.
    pub overload: Option<OverloadConfig>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            h2d: TransferProtocol::h2d_default(),
            d2h: TransferProtocol::d2h_default(),
            retry: None,
            fused_launch: true,
            checkpoint: None,
            overload: None,
        }
    }
}

/// Errors surfaced by the computation API.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AcError {
    /// The daemon reported a failure.
    Remote(Status),
    /// A response could not be decoded.
    Protocol,
    /// A local GPU operation failed (local-device configurations).
    Local(String),
    /// The accelerator did not answer within the retry budget and is
    /// presumed dead (report it to the ARM and fail over).
    Unreachable,
    /// The operation's end-to-end deadline expired before a successful
    /// response — the caller has already given up, so retrying is wasted
    /// work.
    DeadlineExceeded,
    /// The operation was shed by overload control — the daemon fast-
    /// rejected it, the client's retry budget is exhausted, or this
    /// accelerator's circuit breaker is open. The accelerator is alive;
    /// back off and reduce offered load rather than failing over.
    Overloaded,
}

impl std::fmt::Display for AcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcError::Remote(s) => write!(f, "remote accelerator error: {s:?}"),
            AcError::Protocol => write!(f, "middleware protocol error"),
            AcError::Local(e) => write!(f, "local accelerator error: {e}"),
            AcError::Unreachable => write!(f, "accelerator unreachable (retry budget exhausted)"),
            AcError::DeadlineExceeded => write!(f, "operation deadline exceeded"),
            AcError::Overloaded => write!(f, "accelerator overloaded (request shed)"),
        }
    }
}
impl std::error::Error for AcError {}

impl From<GpuError> for AcError {
    fn from(e: GpuError) -> Self {
        AcError::Local(e.to_string())
    }
}

fn check(resp: Response) -> Result<u64, AcError> {
    match resp.status {
        Status::Ok => Ok(resp.value),
        s => Err(AcError::Remote(s)),
    }
}

/// A handle onto one exclusively assigned, network-attached accelerator —
/// the paper's `ac_handle`.
#[derive(Clone)]
pub struct RemoteAccelerator {
    pub(crate) ep: Endpoint,
    pub(crate) daemon: Rank,
    pub(crate) config: FrontendConfig,
    /// Monotonic operation-id counter, shared by clones of this handle so
    /// the daemon's dedupe cache sees one id sequence per front-end.
    next_op: Rc<Cell<u64>>,
    /// Assignment epoch from the ARM grant, stamped into every framed
    /// request so the daemon can fence stale holders. `0` = unstamped.
    pub(crate) epoch: u64,
    /// Health-plane hook: when it reports `true` after a timed-out
    /// attempt, the remaining retry budget is abandoned immediately — the
    /// ARM has already evicted this assignment, so further retries can
    /// only waste virtual time.
    pub(crate) eviction_watch: Option<Rc<dyn Fn() -> bool>>,
    /// Per-handle encode arena: request headers for this handle (and its
    /// clones — they share one front-end session) are serialised into a
    /// single reusable buffer instead of a fresh `Vec` per message.
    pub(crate) enc: Rc<RefCell<EncodeBuf>>,
    /// Overload-control state (retry-token bucket + circuit breaker),
    /// shared by clones like the op-id counter. `None` when
    /// `config.overload` is unset.
    overload: Option<Rc<RefCell<OverloadState>>>,
}

impl RemoteAccelerator {
    /// Bind a front-end endpoint to the daemon at `daemon`.
    pub fn new(ep: Endpoint, daemon: Rank, config: FrontendConfig) -> Self {
        let overload = config.overload.map(|oc| {
            Rc::new(RefCell::new(OverloadState {
                budget_tenths: oc.retry_budget.map_or(0, |b| u64::from(b.capacity) * 10),
                consecutive_failures: 0,
                breaker: BreakerState::Closed,
                opened: 0,
                closed: 0,
            }))
        });
        RemoteAccelerator {
            ep,
            daemon,
            config,
            next_op: Rc::new(Cell::new(0)),
            epoch: 0,
            eviction_watch: None,
            enc: Rc::new(RefCell::new(EncodeBuf::new())),
            overload,
        }
    }

    /// Stamp this handle's framed requests with an ARM assignment epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The assignment epoch stamped into framed requests (0 = unstamped).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopt a new assignment epoch in place. Time-sliced oversubscription
    /// uses this: when the ARM rotates this job back onto a shared
    /// accelerator, the `Slice` event carries a fresh grant whose epoch
    /// the handle must stamp from then on (the previous one is fenced).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Install an eviction watch (typically
    /// `ArmClient::eviction_pending`): polled after each timed-out
    /// attempt, and a `true` answer aborts the remaining retry budget with
    /// [`AcError::Unreachable`] so failover can start early.
    pub fn with_eviction_watch(mut self, watch: Rc<dyn Fn() -> bool>) -> Self {
        self.eviction_watch = Some(watch);
        self
    }

    /// True when the installed eviction watch reports a pending notice.
    fn evicted(&self) -> bool {
        self.eviction_watch.as_ref().is_some_and(|w| w())
    }

    /// Consult the eviction watch after a timed-out attempt; returns true
    /// (and traces) when the retry loop should give up early.
    fn abort_retries(&self, op_id: u64) -> bool {
        if !self.evicted() {
            return false;
        }
        self.trace("retry.evicted", || {
            format!("op {op_id}: eviction notice pending, abandoning retry budget")
        });
        self.telemetry().count("retry.evicted", 1);
        true
    }

    /// Current virtual time.
    fn now(&self) -> SimTime {
        self.ep.fabric().handle().now()
    }

    /// Absolute deadline (virtual-time nanos) for an operation starting
    /// now, per the overload config. `None` when deadlines are off.
    fn op_deadline(&self) -> Option<u64> {
        let budget = self.config.overload?.deadline?;
        Some(self.now().as_nanos().saturating_add(budget.as_nanos()))
    }

    /// Lifetime circuit-breaker transition counts (zeroes when the
    /// breaker — or the whole overload plane — is disabled).
    pub fn breaker_stats(&self) -> BreakerStats {
        self.overload
            .as_ref()
            .map_or(BreakerStats::default(), |st| {
                let st = st.borrow();
                BreakerStats {
                    opened: st.opened,
                    closed: st.closed,
                }
            })
    }

    /// Admission gate run before every attempt: enforces the op deadline,
    /// the circuit breaker (all attempts), and the retry-token budget
    /// (retries only). `Ok(())` admits the attempt.
    fn attempt_gate(&self, op_id: u64, attempt: u32, deadline: Option<u64>) -> Result<(), AcError> {
        if let Some(d) = deadline {
            if self.now().as_nanos() >= d {
                self.trace("overload.deadline", || {
                    format!("op {op_id} attempt {attempt}: deadline expired, abandoning")
                });
                self.telemetry().count("retry.deadline_exceeded", 1);
                return Err(AcError::DeadlineExceeded);
            }
        }
        let Some(oc) = self.config.overload else {
            return Ok(());
        };
        let Some(st) = &self.overload else {
            return Ok(());
        };
        if oc.breaker.is_some() {
            let mut s = st.borrow_mut();
            match s.breaker {
                BreakerState::Closed => {}
                BreakerState::Open(until) => {
                    if self.now() < until {
                        drop(s);
                        self.trace("overload.breaker", || {
                            format!("op {op_id}: breaker open, fast-failing")
                        });
                        self.telemetry().count("breaker.fast_fails", 1);
                        return Err(AcError::Overloaded);
                    }
                    // Cooled off: admit this attempt as the half-open probe.
                    s.breaker = BreakerState::HalfOpen;
                    drop(s);
                    self.trace("overload.breaker", || {
                        format!("op {op_id}: breaker half-open, probing")
                    });
                    self.telemetry().count("breaker.half_open", 1);
                }
                BreakerState::HalfOpen => {
                    // One probe is already in flight (another clone of
                    // this handle); shed everything else until it lands.
                    drop(s);
                    self.telemetry().count("breaker.fast_fails", 1);
                    return Err(AcError::Overloaded);
                }
            }
        }
        if attempt > 0 {
            if let Some(_budget) = oc.retry_budget {
                let mut s = st.borrow_mut();
                if s.budget_tenths < 10 {
                    drop(s);
                    self.trace("overload.budget", || {
                        format!("op {op_id} attempt {attempt}: retry budget exhausted")
                    });
                    self.telemetry().count("retry.budget_exhausted", 1);
                    return Err(AcError::Overloaded);
                }
                s.budget_tenths -= 10;
            }
        }
        Ok(())
    }

    /// `timeout`, capped to the time remaining until `deadline` (never
    /// below 1ns so a recv is still posted and the expiry surfaces as an
    /// ordinary timeout).
    fn capped(&self, timeout: SimDuration, deadline: Option<u64>) -> SimDuration {
        match deadline {
            None => timeout,
            Some(d) => {
                let left = d.saturating_sub(self.now().as_nanos()).max(1);
                timeout.min(SimDuration::from_nanos(left))
            }
        }
    }

    /// Record a successful response: earn retry budget, reset the
    /// consecutive-failure count, and re-close a half-open breaker.
    fn overload_success(&self) {
        let Some(oc) = self.config.overload else {
            return;
        };
        let Some(st) = &self.overload else {
            return;
        };
        let mut s = st.borrow_mut();
        s.consecutive_failures = 0;
        if let Some(b) = oc.retry_budget {
            let cap = u64::from(b.capacity) * 10;
            s.budget_tenths = (s.budget_tenths + u64::from(b.earn_tenths)).min(cap);
        }
        if oc.breaker.is_some() && s.breaker == BreakerState::HalfOpen {
            s.breaker = BreakerState::Closed;
            s.closed += 1;
            drop(s);
            self.trace("overload.breaker", || {
                "probe succeeded, breaker closed".into()
            });
            self.telemetry().count("breaker.closed", 1);
        }
    }

    /// Record an overload-class failure (timeout or `Overloaded` reject):
    /// a failed half-open probe re-opens the breaker immediately, and a
    /// run of consecutive failures past the threshold trips it open.
    fn overload_failure(&self) {
        let Some(oc) = self.config.overload else {
            return;
        };
        let Some(bc) = oc.breaker else {
            return;
        };
        let Some(st) = &self.overload else {
            return;
        };
        let mut s = st.borrow_mut();
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        let reopen = s.breaker == BreakerState::HalfOpen;
        if reopen
            || (s.breaker == BreakerState::Closed && s.consecutive_failures >= bc.failure_threshold)
        {
            s.breaker = BreakerState::Open(self.now() + bc.open_for);
            s.opened += 1;
            s.consecutive_failures = 0;
            drop(s);
            self.trace("overload.breaker", || {
                if reopen {
                    "probe failed, breaker re-opened".into()
                } else {
                    "failure threshold reached, breaker opened".into()
                }
            });
            self.telemetry().count("breaker.opened", 1);
        }
    }

    pub(crate) fn alloc_op(&self) -> u64 {
        let id = self.next_op.get();
        self.next_op.set(id + 1);
        id
    }

    /// Record into the tracer attached to this accelerator's fabric.
    pub(crate) fn trace(&self, category: &'static str, label: impl FnOnce() -> String) {
        let fabric = self.ep.fabric();
        fabric.tracer().record(fabric.handle(), category, label);
    }

    /// The telemetry handle attached to this accelerator's fabric.
    pub fn telemetry(&self) -> Telemetry {
        self.ep.fabric().telemetry()
    }

    /// The daemon's fabric rank.
    pub fn daemon_rank(&self) -> Rank {
        self.daemon
    }

    /// Front-end configuration in force.
    pub fn config(&self) -> FrontendConfig {
        self.config
    }

    /// The front-end endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Serialise a bare request through this handle's encode arena.
    fn encode_req(&self, req: &Request) -> Payload {
        let bytes = req.encode_into(&mut self.enc.borrow_mut());
        self.telemetry()
            .count("wire.encode_bytes", bytes.len() as u64);
        Payload::from_bytes(bytes)
    }

    /// Serialise a framed request through this handle's encode arena.
    fn encode_frame(&self, frame: &RequestFrame) -> Payload {
        let bytes = frame.encode_into(&mut self.enc.borrow_mut());
        self.telemetry()
            .count("wire.encode_bytes", bytes.len() as u64);
        Payload::from_bytes(bytes)
    }

    /// Seal a data block, counting the bytes run through the CRC engine.
    pub(crate) fn seal_counted(&self, block: &Payload) -> Payload {
        self.telemetry()
            .count("wire.crc_bytes", block.len() + CRC_TRAILER_BYTES);
        seal_block(block)
    }

    /// Receive from the daemon on `tag`: `None` only when `timeout` ran out.
    /// No timeout arms no timer — `None` must never become a huge one, the
    /// unretried workloads' event counts are exact.
    async fn recv(&self, tag: Tag, timeout: Option<SimDuration>) -> Option<Envelope> {
        match timeout {
            Some(t) => self.ep.recv_timeout(Some(self.daemon), Some(tag), t).await,
            None => Some(self.ep.recv(Some(self.daemon), Some(tag)).await),
        }
    }

    /// The response on `tag`, or why there is none.
    async fn recv_response(
        &self,
        tag: Tag,
        timeout: Option<SimDuration>,
    ) -> Result<Response, Failure> {
        let env = self.recv(tag, timeout).await;
        let env = env.ok_or(Failure::Silent { garbled: false })?;
        env.payload
            .bytes()
            .and_then(|b| Response::decode(b).ok())
            .ok_or(Failure::Silent { garbled: true })
    }

    /// Receive the sealed data blocks of one inbound transfer on `tag` and
    /// reassemble each region into its slot of `out` — the one place the
    /// front-end takes data in: a block train ([`crate::train`]) from the
    /// wire into host memory, one receive posted at a time.
    ///
    /// Each block's verified body is a view of what the daemon sent (which
    /// is a view of device memory), and a region's views are joined back
    /// into one when its last block lands: no byte is copied. The train
    /// stops at the first block that fails its CRC ([`Status::Corrupt`]) or
    /// (with a `timeout`) does not arrive in time ([`Status::Timeout`]);
    /// `out` is written only after `Ok`, so only after every block
    /// verified. A region is one contiguous [`Payload::Bytes`], or the
    /// summed [`Payload::Size`] of a timing-only transfer.
    async fn recv_blocks(
        &self,
        tag: Tag,
        timeout: Option<SimDuration>,
        regions: &[(DevicePtr, u64)],
        protocol: WireProtocol,
        out: &mut [Payload],
    ) -> Result<(), Status> {
        let spec = Spec {
            regions: regions.iter().map(|&(_, len)| len).collect(),
            protocol,
            prepost: 1,
            window: usize::MAX,
            deadline: timeout,
            pool: None,
            cost: SimDuration::ZERO,
            daemon: false,
        };
        let source = Source::Wire {
            ep: self.ep.clone(),
            from: self.daemon,
            tag,
        };
        let landed = Train::start(self.ep.fabric().handle(), spec, source, Sink::Host).await?;
        for (slot, region) in out.iter_mut().zip(landed) {
            *slot = region;
        }
        Ok(())
    }

    /// Seal `parts` into blocks of `block` bytes and send them on `tag` —
    /// the one place the front-end sends data out: a block train from host
    /// memory onto the wire. The two wire behaviours differ, because
    /// virtual-time baselines pin both.
    ///
    /// Untimed, every block is posted at once (the paper's `MPI_Isend`
    /// loop; rendezvous pacing against the daemon's receive loop emerges
    /// from the fabric model), and the train is awaited after the response.
    /// Timed, blocks go one at a time, each with `timeout` to be cleared, so
    /// a dead receiver cannot wedge the sender: the train fails
    /// ([`Status::Timeout`]) at the first one not taken in time, and the
    /// rest are not sent.
    fn send_blocks(
        &self,
        tag: Tag,
        timeout: Option<SimDuration>,
        parts: &[Payload],
        block: u64,
    ) -> Train {
        let spec = Spec {
            regions: parts.iter().map(Payload::len).collect(),
            protocol: WireProtocol::Pipeline { block },
            prepost: 1,
            window: if timeout.is_some() { 1 } else { usize::MAX },
            deadline: timeout,
            pool: None,
            cost: SimDuration::ZERO,
            daemon: false,
        };
        let sink = Sink::Wire {
            ep: self.ep.clone(),
            to: self.daemon,
            tag,
        };
        let handle = self.ep.fabric().handle();
        Train::start(handle, spec, Source::Host(parts.to_vec()), sink)
    }

    /// Attempt `n` of `req` — where [`FrontendConfig::retry`] picks between
    /// the two shapes a request has on the wire; the daemon tells them apart
    /// by the frame marker and derives the same tags.
    fn attempt(
        &self,
        policy: Option<RetryPolicy>,
        op_id: u64,
        n: u32,
        deadline: Option<u64>,
        req: &Request,
    ) -> Attempt {
        match policy {
            // §III as published: a bare request, the fixed tags, no timer.
            None => Attempt {
                request: self.encode_req(req),
                response_tag: ac_tags::RESPONSE,
                data_tag: ac_tags::DATA,
                timeout: None,
            },
            // Tags scoped to the attempt, so stragglers of an abandoned one
            // match nothing; the operation's absolute deadline (if any)
            // rides in the frame so the daemon can shed it after expiry
            // without decoding the body.
            Some(policy) => {
                let frame = RequestFrame {
                    op_id,
                    attempt: n,
                    epoch: self.epoch,
                    deadline,
                    req: req.clone(),
                };
                Attempt {
                    request: self.encode_frame(&frame),
                    response_tag: ac_tags::response_tag(op_id, n),
                    data_tag: ac_tags::data_tag(op_id, n),
                    timeout: Some(policy.timeout),
                }
            }
        }
    }

    /// Pause before attempt number `attempt` (1-based), with tracing.
    async fn backoff(&self, op_id: u64, attempt: u32, pause: SimDuration) {
        self.trace("retry.attempt", || {
            format!("op {op_id} attempt {attempt} after timeout")
        });
        let tele = self.telemetry();
        tele.count("retry.attempts", 1);
        tele.instant(self.ep.fabric().handle(), "retry.attempt", || {
            format!("op {op_id} attempt {attempt} after timeout")
        });
        let _span = tele
            .span(self.ep.fabric().handle(), "retry.backoff", || {
                format!("op {op_id} attempt {attempt}")
            })
            .op(op_id);
        self.ep.fabric().handle().delay(pause).await;
    }

    /// Account for the failure of attempt `n` and decide what follows — one
    /// verdict for every operation. `Ok(pause)`: try again after pausing (a
    /// daemon's retry-after hint overrides the exponential schedule
    /// outright: the daemon knows its queue). `Err`: give up.
    fn failed(
        &self,
        policy: RetryPolicy,
        kind: &str,
        op_id: u64,
        n: u32,
        failure: Failure,
    ) -> Result<SimDuration, AcError> {
        let tele = self.telemetry();
        let lost = |how: &str| {
            self.trace("retry.timeout", || {
                format!("op {op_id} {kind} attempt {n}: {how}")
            });
            tele.count("retry.timeouts", 1);
        };
        let (hint, evicted) = match failure {
            Failure::Shed(retry_after) => {
                self.trace("overload.shed", || {
                    format!("op {op_id} {kind} attempt {n}: daemon shed request")
                });
                tele.count("retry.overloaded", 1);
                self.overload_failure();
                (Some(retry_after), false)
            }
            Failure::Silent { garbled } => {
                if garbled {
                    self.trace("retry.corrupt", || {
                        format!("op {op_id} {kind} attempt {n}: response failed CRC")
                    });
                    tele.count("retry.corrupt_responses", 1);
                }
                lost("timed out");
                self.overload_failure();
                (None, self.abort_retries(op_id))
            }
            // A damaged block is healed by replaying the whole operation,
            // exactly like a lost one.
            Failure::Data(cut) => {
                if cut == Status::Corrupt {
                    self.trace("retry.corrupt", || {
                        format!("op {op_id} {kind} attempt {n}: block failed CRC")
                    });
                    tele.count("retry.corrupt_blocks", 1);
                }
                lost("data phase lost");
                (None, self.abort_retries(op_id))
            }
        };
        if !evicted && n < policy.max_retries {
            return Ok(hint.unwrap_or_else(|| policy.pause_before(op_id, n + 1)));
        }
        self.trace("retry.gave_up", || {
            format!("op {op_id} {kind} abandoned after {} attempts", n + 1)
        });
        tele.count("retry.gave_up", 1);
        tele.instant(self.ep.fabric().handle(), "retry.gave_up", || {
            format!("op {op_id}")
        });
        // A shed on the final attempt means the accelerator is alive but
        // saturated — report overload, not death, so callers back off
        // instead of failing over.
        Err(match hint {
            Some(_) => AcError::Overloaded,
            None => AcError::Unreachable,
        })
    }

    /// Carry out one operation: `req` out, its block train (if any) one way
    /// or the other, the response in — §III's wire protocol, and the
    /// front-end's only path onto it (`ping` and `device_to_device` aside).
    ///
    /// Under a [`RetryPolicy`] an attempt that goes unanswered, loses or
    /// damages data, or is shed is replayed whole: the daemon dedupes
    /// replays of operations without a data phase and re-executes the
    /// others, which are idempotent (same bytes, same place). Without one
    /// this is the same loop run once. `Ok` carries whatever status the
    /// daemon answered with; for [`Data::In`], `out` is filled iff that is
    /// [`Status::Ok`].
    async fn exchange(&self, req: &Request, mut data: Data<'_>) -> Result<Response, AcError> {
        let kind = req.name();
        let policy = self.config.retry;
        // Only framed requests are numbered. Stream ids (and the stream-
        // virtual addresses derived from them) draw from the same counter,
        // so an unretried session must not advance it.
        let (op_id, deadline) = match policy {
            Some(_) => (self.alloc_op(), self.op_deadline()),
            None => (0, None),
        };
        // Sixteen `results/*.metrics.json` pin where `api.call` is recorded:
        // around every operation without a data phase, retries and all, and
        // around the control leg (request → response) of an *unretried*
        // inbound transfer, which used to be built on `call`. Nowhere else.
        let spanned = match data {
            Data::None => true,
            Data::In { .. } => policy.is_none(),
            Data::Out { .. } => false,
        };
        let mut call_span = spanned.then(|| {
            self.telemetry()
                .span(self.ep.fabric().handle(), "api.call", || {
                    format!("{kind} -> {}", self.daemon)
                })
        });
        let mut n = 0;
        loop {
            self.attempt_gate(op_id, n, deadline)?;
            let at = self.attempt(policy, op_id, n, deadline, req);
            self.ep
                .send(self.daemon, ac_tags::REQUEST, at.request)
                .await;
            let mut sending = match data {
                Data::Out { parts, block } => {
                    Some(self.send_blocks(at.data_tag, at.timeout, parts, block))
                }
                _ => None,
            };
            // A timed train is paced by its clear-to-sends: the response is
            // awaited once it is over (and given its whole timeout then).
            let mut delivered = true;
            if at.timeout.is_some() {
                if let Some(train) = sending.take() {
                    delivered = train.await.is_ok();
                }
            }
            // Collect the response even after a block was not taken — the
            // daemon's own data timeout produces a `Status::Timeout` answer.
            let wait = at.timeout.map(|t| self.capped(t, deadline));
            let failure = match self.recv_response(at.response_tag, wait).await {
                Err(failure) => failure,
                Ok(resp) => {
                    if let Some(train) = sending {
                        // Untimed: every block was posted at the start.
                        let _ = train.await;
                    }
                    match resp.status {
                        Status::Overloaded => {
                            Failure::Shed(SimDuration::from_nanos(resp.value.max(1)))
                        }
                        // The daemon's side of an outbound train: a block
                        // never came, or failed its CRC there.
                        Status::Timeout | Status::Corrupt => Failure::Data(resp.status),
                        Status::Ok if !delivered => Failure::Data(Status::Timeout),
                        status => {
                            let landed = match &mut data {
                                Data::In {
                                    regions,
                                    protocol,
                                    out,
                                } if status == Status::Ok => {
                                    drop(call_span.take());
                                    self.recv_blocks(
                                        at.data_tag,
                                        at.timeout,
                                        regions,
                                        *protocol,
                                        out,
                                    )
                                    .await
                                }
                                _ => Ok(()),
                            };
                            match landed {
                                Ok(()) => {
                                    self.overload_success();
                                    return Ok(resp);
                                }
                                Err(cut) => Failure::Data(cut),
                            }
                        }
                    }
                }
            };
            // The unretried call is the single-attempt case: nothing was
            // timed, so nothing is presumed lost, and what the attempt saw
            // — a refusal, a failed checksum — is the operation's answer,
            // under no `retry.*` counter or trace.
            let Some(policy) = policy else {
                return Err(failure.unretried());
            };
            let pause = self.failed(policy, kind, op_id, n, failure)?;
            n += 1;
            self.backoff(op_id, n, pause).await;
        }
    }

    /// An operation without a data phase; the daemon's value on success.
    async fn call(&self, req: Request) -> Result<u64, AcError> {
        check(self.exchange(&req, Data::None).await?)
    }

    /// `acMemAlloc`: allocate `len` bytes on the accelerator.
    pub async fn mem_alloc(&self, len: u64) -> Result<DevicePtr, AcError> {
        self.call(Request::MemAlloc { len }).await.map(DevicePtr)
    }

    /// `acMemFree`: release a device allocation.
    pub async fn mem_free(&self, ptr: DevicePtr) -> Result<(), AcError> {
        self.call(Request::MemFree { ptr }).await.map(|_| ())
    }

    /// `acMemSet`: fill `len` device bytes at `ptr` with `byte`.
    pub async fn mem_set(&self, ptr: DevicePtr, len: u64, byte: u8) -> Result<(), AcError> {
        let req = Request::MemSet { ptr, len, byte };
        self.call(req).await.map(|_| ())
    }

    /// `acMemCpy` host→device: copy `src` to device memory at `dst`.
    pub async fn mem_cpy_h2d(&self, src: &Payload, dst: DevicePtr) -> Result<(), AcError> {
        let len = src.len();
        let _span = self
            .telemetry()
            .span(self.ep.fabric().handle(), "api.h2d", || {
                format!("{len}B -> {} @{}", self.daemon, dst.0)
            })
            .bytes(len);
        let protocol = self.config.h2d.wire(len);
        let data = Data::Out {
            parts: std::slice::from_ref(src),
            block: protocol.block_size(len),
        };
        let req = Request::MemCpyH2D { dst, len, protocol };
        check(self.exchange(&req, data).await?).map(|_| ())
    }

    /// `acMemCpy` device→host: copy `len` device bytes at `src` back.
    pub async fn mem_cpy_d2h(&self, src: DevicePtr, len: u64) -> Result<Payload, AcError> {
        let _span = self
            .telemetry()
            .span(self.ep.fabric().handle(), "api.d2h", || {
                format!("{len}B <- {} @{}", self.daemon, src.0)
            })
            .bytes(len);
        let protocol = self.config.d2h.wire(len);
        let mut out = [Payload::empty()];
        let data = Data::In {
            regions: &[(src, len)],
            protocol,
            out: &mut out,
        };
        let req = Request::MemCpyD2H { src, len, protocol };
        check(self.exchange(&req, data).await?)?;
        let [data] = out;
        Ok(data)
    }

    /// Pipeline block size for checkpoint traffic under `policy` (snapshot
    /// and restore streams are always pipelined — a naive policy falls back
    /// to 128 KiB blocks).
    fn ckpt_block(&self, policy: TransferProtocol, len: u64) -> u64 {
        match policy.wire(len) {
            WireProtocol::Pipeline { block } => block,
            WireProtocol::Naive => 128 << 10,
        }
    }

    /// Serialize the given live device regions into host payloads — the
    /// device side of a checkpoint. Each `(ptr, len)` region streams back
    /// over the pipelined block protocol (multi-region
    /// [`Self::mem_cpy_d2h`]); the returned payloads are in region order.
    pub async fn snapshot(&self, regions: &[(DevicePtr, u64)]) -> Result<Vec<Payload>, AcError> {
        let total: u64 = regions.iter().map(|(_, l)| *l).sum();
        let _span = self
            .telemetry()
            .span(self.ep.fabric().handle(), "api.snapshot", || {
                format!("{} regions, {total}B <- {}", regions.len(), self.daemon)
            })
            .bytes(total);
        let block = self.ckpt_block(self.config.d2h, total);
        let mut out = vec![Payload::empty(); regions.len()];
        let data = Data::In {
            regions,
            protocol: WireProtocol::Pipeline { block },
            out: &mut out,
        };
        let req = Request::Snapshot {
            regions: regions.iter().map(|(p, l)| (p.0, *l)).collect(),
            block,
        };
        check(self.exchange(&req, data).await?)?;
        Ok(out)
    }

    /// Deserialize previously snapshotted payloads back into device memory
    /// at the given regions — the device side of a checkpoint restore.
    /// `data[i]` must be exactly `regions[i].1` bytes.
    pub async fn restore(
        &self,
        regions: &[(DevicePtr, u64)],
        data: &[Payload],
    ) -> Result<(), AcError> {
        assert_eq!(regions.len(), data.len(), "one payload per restored region");
        let total: u64 = regions.iter().map(|(_, l)| *l).sum();
        let _span = self
            .telemetry()
            .span(self.ep.fabric().handle(), "api.restore", || {
                format!("{} regions, {total}B -> {}", regions.len(), self.daemon)
            })
            .bytes(total);
        let block = self.ckpt_block(self.config.h2d, total);
        let req = Request::Restore {
            regions: regions.iter().map(|(p, l)| (p.0, *l)).collect(),
            block,
        };
        let data = Data::Out { parts: data, block };
        check(self.exchange(&req, data).await?).map(|_| ())
    }

    /// `acKernelCreate`: bind this session to kernel `name`.
    pub async fn kernel_create(&self, name: &str) -> Result<(), AcError> {
        let name = name.to_owned();
        self.call(Request::KernelCreate { name }).await.map(|_| ())
    }

    /// `acKernelSetArgs`: set the bound kernel's arguments.
    pub async fn kernel_set_args(&self, args: &[KernelArg]) -> Result<(), AcError> {
        let args = args.to_vec();
        self.call(Request::KernelSetArgs { args }).await.map(|_| ())
    }

    /// `acKernelRun`: launch the bound kernel; resolves at completion.
    pub async fn kernel_run(&self, cfg: LaunchConfig) -> Result<(), AcError> {
        let (grid, block) = (cfg.grid, cfg.block);
        self.call(Request::KernelRun { grid, block })
            .await
            .map(|_| ())
    }

    /// Convenience kernel launch. With
    /// [`FrontendConfig::fused_launch`] (the default) this is a single
    /// fused `Launch` round trip; otherwise it is the paper's three-step
    /// create → set-args → run sequence of Listing 2
    /// ([`Self::launch_legacy`]).
    pub async fn launch(
        &self,
        name: &str,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<(), AcError> {
        if !self.config.fused_launch {
            return self.launch_legacy(name, cfg, args).await;
        }
        let req = Request::Launch {
            name: name.to_owned(),
            args: args.to_vec(),
            grid: cfg.grid,
            block: cfg.block,
        };
        self.call(req).await.map(|_| ())
    }

    /// The paper-era three-round-trip kernel launch of Listing 2, kept for
    /// the A2-style ablations that measure per-call latency.
    pub async fn launch_legacy(
        &self,
        name: &str,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<(), AcError> {
        self.kernel_create(name).await?;
        self.kernel_set_args(args).await?;
        self.kernel_run(cfg).await
    }

    /// Liveness probe with a deadline (§III-A fault tolerance): `true` if
    /// the daemon answers within `timeout`. After a timeout the handle must
    /// not be reused — a late response would desynchronize the
    /// request/response pairing; report the accelerator broken to the ARM
    /// and acquire a replacement.
    pub async fn ping(&self, timeout: dacc_sim::time::SimDuration) -> bool {
        self.ep
            .send(
                self.daemon,
                ac_tags::REQUEST,
                self.encode_req(&Request::Ping),
            )
            .await;
        self.recv(ac_tags::RESPONSE, Some(timeout)).await.is_some()
    }

    /// Stop this accelerator's daemon (simulation tear-down).
    pub async fn shutdown(&self) -> Result<(), AcError> {
        self.call(Request::Shutdown).await.map(|_| ())
    }
}

/// Block size for accelerator-to-accelerator transfers.
const PEER_BLOCK: u64 = 512 << 10;

/// Direct accelerator-to-accelerator transfer (§III-C): move `len` bytes
/// from `src_ptr` on `src` to `dst_ptr` on `dst` without staging the data
/// through the compute node. The two daemons stream blocks directly.
///
/// Peer transfers are **not** covered by [`RetryPolicy`]: a replay would
/// have to coordinate two daemons' data cursors, which the middleware does
/// not attempt. Under fault injection, route peer traffic around injected
/// faults (or fall back to staging through the host).
pub async fn device_to_device(
    src: &RemoteAccelerator,
    src_ptr: DevicePtr,
    dst: &RemoteAccelerator,
    dst_ptr: DevicePtr,
    len: u64,
) -> Result<(), AcError> {
    // Post the receive side first so the sender's blocks always find a
    // matching operation, then the send side; await both responses.
    let recv_req = Request::PeerRecv {
        dst: dst_ptr,
        len,
        from: src.daemon.0 as u32,
        block: PEER_BLOCK,
    };
    let send_req = Request::PeerSend {
        src: src_ptr,
        len,
        peer: dst.daemon.0 as u32,
        block: PEER_BLOCK,
    };
    dst.ep
        .send(dst.daemon, ac_tags::REQUEST, dst.encode_req(&recv_req))
        .await;
    src.ep
        .send(src.daemon, ac_tags::REQUEST, src.encode_req(&send_req))
        .await;
    let r1 = dst.recv_response(ac_tags::RESPONSE, None).await;
    let r1 = r1.map_err(Failure::unretried)?;
    let r2 = src.recv_response(ac_tags::RESPONSE, None).await;
    let r2 = r2.map_err(Failure::unretried)?;
    check(r1)?;
    check(r2)?;
    Ok(())
}

/// One accelerator, local or remote, behind a single interface.
///
/// Porting MAGMA or MP2C to the dynamic architecture is the act of swapping
/// `Local` for `Remote` — the call sites are identical, which is the paper's
/// transparency claim.
#[derive(Clone)]
pub enum AcDevice {
    /// A node-local, PCIe-attached GPU (the classic static architecture).
    Local {
        /// The device.
        gpu: VirtualGpu,
        /// Host buffer kind used for copies.
        host_mem: HostMemKind,
    },
    /// A network-attached accelerator reached through the middleware.
    Remote(RemoteAccelerator),
    /// A network-attached accelerator behind the failover plane: on
    /// accelerator death the session acquires an ARM-granted replacement
    /// and replays its command log (§III-A).
    Resilient(crate::failover::FailoverSession),
}

impl AcDevice {
    /// Allocate device memory.
    pub async fn mem_alloc(&self, len: u64) -> Result<DevicePtr, AcError> {
        match self {
            AcDevice::Local { gpu, .. } => Ok(gpu.alloc(len).await?),
            AcDevice::Remote(r) => r.mem_alloc(len).await,
            AcDevice::Resilient(s) => s.mem_alloc(len).await,
        }
    }

    /// Free device memory.
    pub async fn mem_free(&self, ptr: DevicePtr) -> Result<(), AcError> {
        match self {
            AcDevice::Local { gpu, .. } => Ok(gpu.free(ptr).await?),
            AcDevice::Remote(r) => r.mem_free(ptr).await,
            AcDevice::Resilient(s) => s.mem_free(ptr).await,
        }
    }

    /// Copy host data to device memory.
    pub async fn mem_cpy_h2d(&self, src: &Payload, dst: DevicePtr) -> Result<(), AcError> {
        match self {
            AcDevice::Local { gpu, host_mem } => Ok(gpu.memcpy_h2d(src, dst, *host_mem).await?),
            AcDevice::Remote(r) => r.mem_cpy_h2d(src, dst).await,
            AcDevice::Resilient(s) => s.mem_cpy_h2d(src, dst).await,
        }
    }

    /// Fill device memory with a byte value.
    pub async fn mem_set(&self, ptr: DevicePtr, len: u64, byte: u8) -> Result<(), AcError> {
        match self {
            AcDevice::Local { gpu, .. } => Ok(gpu.memset(ptr, len, byte).await?),
            AcDevice::Remote(r) => r.mem_set(ptr, len, byte).await,
            AcDevice::Resilient(s) => s.mem_set(ptr, len, byte).await,
        }
    }

    /// Copy device data back to the host.
    pub async fn mem_cpy_d2h(&self, src: DevicePtr, len: u64) -> Result<Payload, AcError> {
        match self {
            AcDevice::Local { gpu, host_mem } => Ok(gpu.memcpy_d2h(src, len, *host_mem).await?),
            AcDevice::Remote(r) => r.mem_cpy_d2h(src, len).await,
            AcDevice::Resilient(s) => s.mem_cpy_d2h(src, len).await,
        }
    }

    /// Launch a named kernel and wait for completion.
    pub async fn launch(
        &self,
        name: &str,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<(), AcError> {
        match self {
            AcDevice::Local { gpu, .. } => Ok(gpu.launch(name, cfg, args).await?),
            AcDevice::Remote(r) => r.launch(name, cfg, args).await,
            AcDevice::Resilient(s) => s.launch(name, cfg, args).await,
        }
    }

    /// True for network-attached accelerators.
    pub fn is_remote(&self) -> bool {
        !matches!(self, AcDevice::Local { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_protocol_switches_at_threshold() {
        let p = TransferProtocol::h2d_default();
        assert_eq!(p.wire(1 << 20), WireProtocol::Pipeline { block: 128 << 10 });
        assert_eq!(
            p.wire(16 << 20),
            WireProtocol::Pipeline { block: 512 << 10 }
        );
        assert_eq!(
            p.wire(4 << 20),
            WireProtocol::Pipeline { block: 512 << 10 },
            "threshold itself uses the large block"
        );
    }

    #[test]
    fn defaults_match_paper_tuning() {
        assert_eq!(
            TransferProtocol::d2h_default(),
            TransferProtocol::Pipeline { block: 128 << 10 }
        );
        let FrontendConfig { h2d, .. } = FrontendConfig::default();
        assert_eq!(
            h2d,
            TransferProtocol::Adaptive {
                small_block: 128 << 10,
                large_block: 512 << 10,
                threshold: 4 << 20
            }
        );
    }
}
