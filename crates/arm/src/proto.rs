//! ARM wire protocol: a compact little-endian binary codec.
//!
//! Resource-management requests travel over the same interconnect as
//! everything else (the ARM is just another endpoint on the fabric), so
//! requests and responses are encoded to real bytes. Every message is
//! stated once, as a [`wire!`](dacc_fabric::wire) table; only
//! [`ArmError`]'s nested reject and the dedupe frame are written by hand,
//! on the same [`Writer`] / [`Reader`].

use crate::state::{AcceleratorId, JobId};
use bytes::Bytes;
use dacc_fabric::codec::{Blob, Codec, DecodeError, EncodeBuf, Reader, Writer};
use dacc_fabric::mpi::Rank;
use dacc_fabric::topology::NodeId;
use dacc_fabric::wire;
pub use dacc_sched::RejectReason;

/// Reserved fabric tags for ARM traffic.
pub mod arm_tags {
    use dacc_fabric::mpi::Tag;
    /// Client → ARM requests.
    pub const REQUEST: Tag = Tag(0xFFFF_0010);
    /// ARM → client responses.
    pub const RESPONSE: Tag = Tag(0xFFFF_0011);
    /// ARM → client one-way events ([`crate::proto::Eviction`] notices).
    /// Separate from RESPONSE so an unsolicited event can never satisfy a
    /// pending request/response pair; clients poll it with `iprobe`.
    pub const EVENT: Tag = Tag(0xFFFF_0012);
    /// Primary ↔ standby replication traffic ([`crate::proto::ReplMsg`]):
    /// log entries, liveness beacons, snapshots, and catch-up requests.
    /// A dedicated tag so replication can never satisfy a client
    /// request/response pair (and vice versa).
    pub const REPL: Tag = Tag(0xFFFF_0013);
}

/// First byte of a *framed* ARM request or response (the retry/dedupe
/// path). Legacy unframed requests start with an opcode byte (currently
/// 0..=14) and legacy responses with a variant byte (0..=6), so the marker
/// can never be confused with either; a server that sees it strips the
/// frame header, and one that doesn't is never sent framed traffic.
pub const FRAME_MARKER: u8 = 0xA7;

/// Encode `req` as a framed request: marker byte, little-endian `op_id`,
/// then the standard request body. The `op_id` is the client's dedupe
/// identity for the operation — every retry of the same logical operation
/// carries the same id, and the server replays its cached response for an
/// id it has already executed instead of executing twice.
pub fn frame_request(op_id: u64, req: &ArmRequest, buf: &mut EncodeBuf) -> Bytes {
    framed(op_id, buf, |w| req.encode_body(w))
}

/// Encode `resp` as a framed response echoing the request's `op_id` (the
/// client discards stale responses whose id does not match its in-flight
/// operation).
pub fn frame_response(op_id: u64, resp: &ArmResponse, buf: &mut EncodeBuf) -> Bytes {
    framed(op_id, buf, |w| resp.encode_body(w))
}

fn framed(op_id: u64, buf: &mut EncodeBuf, body: impl FnOnce(&mut Writer<'_>)) -> Bytes {
    let mut w = Writer::new(buf.buf());
    w.u8(FRAME_MARKER);
    w.u64(op_id);
    body(&mut w);
    buf.take()
}

/// Split a framed message into `(op_id, body)`. Returns `None` when the
/// bytes are not framed (legacy traffic) or the header is truncated.
pub fn peek_frame(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let mut r = Reader::new(bytes);
    if r.u8().ok()? != FRAME_MARKER {
        return None;
    }
    Some((r.u64().ok()?, r.rest()))
}

/// A `u32`.
impl Codec<AcceleratorId> for AcceleratorId {
    fn put(w: &mut Writer<'_>, v: &AcceleratorId) {
        w.u32(v.0 as u32);
    }
    fn get(r: &mut Reader<'_>) -> Result<AcceleratorId, DecodeError> {
        Ok(AcceleratorId(r.u32()? as usize))
    }
}

/// A `u64`.
impl Codec<JobId> for JobId {
    fn put(w: &mut Writer<'_>, v: &JobId) {
        w.u64(v.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<JobId, DecodeError> {
        r.u64().map(JobId)
    }
}

wire! {
    /// A request to the accelerator resource manager.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum ArmRequest: ArmError {
        /// Allocate `count` accelerators for `job`. `wait` queues the request
        /// until enough accelerators free up; otherwise insufficient capacity
        /// fails immediately.
        0 => Allocate {
            /// Requesting job.
            job: JobId,
            /// Number of accelerators wanted.
            count: u32,
            /// Queue instead of failing when short.
            wait: bool,
        },
        /// Release specific accelerators held by `job`.
        1 => Release {
            /// Owning job.
            job: JobId,
            /// Accelerators to return.
            accels: Vec<AcceleratorId>,
        },
        /// Release everything held by `job` (automatic at job end, §III-C).
        2 => ReleaseJob {
            /// Finished job.
            job: JobId,
        },
        /// Report an accelerator broken (operator/diagnostic action).
        3 => MarkBroken {
            /// The failed accelerator.
            accel: AcceleratorId,
        },
        /// Query pool counters.
        4 => Query,
        /// Return a repaired accelerator to service.
        6 => Repair {
            /// The repaired accelerator.
            accel: AcceleratorId,
        },
        /// Stop the ARM server (orderly simulation tear-down).
        5 => Shutdown,
        /// Failover report (§III-A): `accel` stopped answering `job`'s
        /// requests. The ARM marks it broken and, in the same round trip,
        /// grants the job one replacement accelerator if capacity allows.
        7 => ReportFailure {
            /// The job that observed the failure.
            job: JobId,
            /// The unresponsive accelerator.
            accel: AcceleratorId,
        },
        /// Explicitly renew the leases on everything `job` holds. Traffic
        /// renews implicitly (daemon heartbeats carry a busy counter); this is
        /// the lightweight keep-alive for clients idle between phases.
        8 => RenewLease {
            /// The job keeping its grants alive.
            job: JobId,
        },
        /// Daemon → ARM liveness beat for one accelerator. `fence` is the
        /// highest fence epoch the daemon has adopted (acks reclaim resets);
        /// `busy` counts ops executed since the previous beat (implicit lease
        /// renewal for the holding job).
        9 => Heartbeat {
            /// The accelerator this daemon serves.
            accel: AcceleratorId,
            /// Highest fence epoch the daemon enforces.
            fence: u64,
            /// Ops executed since the last beat.
            busy: u32,
        },
        /// Migrate any holder off `accel` (maintenance/rebalance) and return
        /// it to the pool. The holder is evicted with a replacement grant and
        /// replays its command log there; no data is lost.
        10 => Drain {
            /// The accelerator to vacate.
            accel: AcceleratorId,
        },
        /// Daemon → ARM result of a quarantine probe self-test.
        11 => ProbeResult {
            /// The probed accelerator.
            accel: AcceleratorId,
            /// Whether the self-test passed.
            ok: bool,
        },
        /// Submit a job to the multi-tenant scheduler (the policy-aware
        /// successor of `Allocate`): admission control applies the tenant's
        /// quotas, dispatch follows weighted fair share, and the gang is
        /// granted all-or-nothing.
        12 => SubmitJob {
            /// The submitting job.
            job: JobId,
            /// Accounting principal for fair share and quotas.
            tenant: u32,
            /// Accelerators required, granted atomically.
            gang: u32,
            /// The job tolerates a time-sliced share of one accelerator.
            share_ok: bool,
            /// Queue until dispatch (the response is `Queued`, then a second
            /// `Granted` message follows when the job starts). Without it an
            /// undispatchable job fails immediately with `Insufficient`.
            wait: bool,
        },
        /// Install or update a tenant's scheduling configuration.
        13 => SetTenant {
            /// The tenant being configured.
            tenant: u32,
            /// Fair-share weight (relative share under contention).
            weight: u32,
            /// Priority band; higher bands dequeue strictly first.
            priority: u8,
            /// Max accelerators held concurrently (and largest gang).
            max_accels: u32,
            /// Max jobs queued at once.
            max_queued: u32,
        },
    }

    /// A granted accelerator: everything a compute node needs to reach it.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct GrantedAccelerator {
        /// Accelerator identity.
        pub accel: AcceleratorId,
        /// Fabric rank of the accelerator's daemon.
        pub daemon_rank: Rank,
        /// Node the accelerator lives on.
        pub node: NodeId,
        /// Lease epoch of this assignment. Every op the client issues is
        /// stamped with it; after the ARM reclaims the accelerator, ops
        /// stamped with an older epoch are fenced by the daemon (zero means
        /// "unfenced" for legacy paths that predate the health plane).
        pub epoch: u64,
    }

    /// Pool counters returned by [`ArmRequest::Query`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub struct PoolStats {
        /// Accelerators free for assignment.
        pub free: u32,
        /// Accelerators currently assigned.
        pub assigned: u32,
        /// Accelerators marked broken.
        pub broken: u32,
        /// Allocation requests waiting in the queue.
        pub queued_requests: u32,
    }

    /// A response from the accelerator resource manager.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum ArmResponse: ArmError {
        /// Allocation succeeded.
        0 => Granted(Vec<GrantedAccelerator>),
        /// Release acknowledged (`released` = how many returned to the pool).
        1 => Released {
            /// Accelerators returned to the free pool.
            released: u32,
        },
        /// Request failed.
        2 => Error(ArmError),
        /// Pool counters.
        3 => Stats(PoolStats),
        /// Lease renewal acknowledged (`renewed` = grants whose lease moved).
        4 => Renewed {
            /// Number of held accelerators whose lease was extended.
            renewed: u32,
        },
        /// Heartbeat acknowledged. `fence` is the fence epoch the daemon must
        /// adopt (resetting its sessions if it rises); `probe` asks the daemon
        /// to run a self-test and report back with
        /// [`ArmRequest::ProbeResult`].
        5 => HeartbeatAck {
            /// Fence epoch the daemon must enforce from now on.
            fence: u64,
            /// Run a quarantine probe self-test.
            probe: bool,
        },
        /// A waiting `SubmitJob` was admitted and queued; a `Granted` message
        /// follows on the same response tag when the scheduler dispatches it.
        6 => Queued {
            /// Jobs queued ahead of this one at admission time.
            position: u32,
        },
    }

    /// Why the ARM evicted a job from an accelerator.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum EvictReason {
        /// The job's lease expired without renewal.
        0 => LeaseExpired,
        /// The accelerator missed heartbeats and was quarantined.
        1 => Quarantined,
        /// An operator drain request vacated the accelerator.
        2 => Drained,
    }

    /// A one-way ARM → client eviction notice on [`arm_tags::EVENT`].
    ///
    /// Sent *proactively* when the ARM takes an accelerator away from a
    /// holding job (quarantine, drain, lease expiry) so the client can migrate
    /// by command-log replay before its own request timeout would fire.
    /// Carries the replacement grant (when capacity allowed) so migration
    /// costs zero extra round trips.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct Eviction: ArmError {
        /// The accelerator being taken away.
        pub accel: AcceleratorId,
        /// The (now fenced) epoch of the evicted assignment.
        pub epoch: u64,
        /// Why the ARM revoked the assignment.
        pub reason: EvictReason,
        /// Pre-allocated replacement, if the pool had capacity.
        pub replacement: Option<GrantedAccelerator>,
    }

    /// A one-way ARM → client event on [`arm_tags::EVENT`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ArmEvent: ArmError {
        /// An accelerator was taken away (see [`Eviction`]).
        0 => Evict(Eviction),
        /// A time-sliced accelerator rotated to this job: `grant` carries the
        /// fresh live epoch the job must stamp its ops with from now on (the
        /// previous epoch it held on this accelerator is fenced).
        1 => Slice {
            /// The grant for the slice now starting.
            grant: GrantedAccelerator,
        },
    }

    /// One replicated operation in the primary's deterministic input log.
    ///
    /// Replication ships the *input*, not the effect: the standby replays the
    /// original request bytes through the same pure `Pool`/`Scheduler` logic
    /// (with its sends suppressed) at the original timestamp, which
    /// reconstructs the primary's state — including epochs, fences, leases,
    /// and the response dedupe cache — bit for bit.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ReplEntry {
        /// Position in the replication log (0-based, gap-free).
        pub index: u64,
        /// The primary's clock when it processed the request (nanoseconds).
        pub now_ns: u64,
        /// Fabric rank the request arrived from.
        pub src: u32,
        /// Dedupe id when the request was framed (0 for legacy traffic).
        pub op_id: u64,
        /// The request body bytes exactly as received (unframed).
        pub frame: Vec<u8> as Blob,
    }

    /// Primary ↔ standby replication traffic on [`arm_tags::REPL`].
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum ReplMsg: ArmError {
        /// One log entry, sent by the primary *before* it responds to the
        /// client (log-ahead), so any client-visible effect is already
        /// replicated when the response leaves.
        0 => Entry(ReplEntry),
        /// Primary liveness beacon carrying the current log length; a standby
        /// that stops hearing these (and everything else) past its takeover
        /// silence threshold promotes itself.
        1 => Beacon {
            /// Log entries written so far.
            index: u64,
        },
        /// Snapshot of the full server state at log position `index`: a
        /// catching-up standby installs it and discards buffered entries at or
        /// below `index`, bounding replay work regardless of log length.
        2 => Snapshot {
            /// Log position the snapshot captures (entries 0..index applied).
            index: u64,
            /// Opaque state bytes (see `server::ServerSnapshot`).
            state: Vec<u8> as Blob,
        },
        /// Standby → primary: announce presence and request catch-up from
        /// `have` (the log position the standby already holds).
        3 => Hello {
            /// First log index the standby is missing.
            have: u64,
        },
        /// Primary → standbys: the cluster is idle, stop expecting beacons.
        /// Both sides fall back to untimed receives (so a quiet simulation can
        /// drain its event calendar); the next client request or log entry
        /// re-arms the timers on whoever sees it.
        4 => Park {
            /// Log entries written so far (lets a parked standby notice a gap
            /// on wake-up and Hello for catch-up).
            index: u64,
        },
    }
}

/// ARM-level failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArmError {
    /// Not enough free accelerators (and the request did not ask to wait).
    Insufficient {
        /// Accelerators requested.
        requested: u32,
        /// Accelerators free at the time.
        free: u32,
    },
    /// Released an accelerator the job does not hold.
    NotHeld,
    /// Request referenced an unknown accelerator.
    UnknownAccelerator,
    /// The wire message could not be decoded.
    Malformed,
    /// A `SubmitJob` was refused by admission control (quota or size);
    /// nothing was queued.
    Rejected(RejectReason),
    /// The receiving ARM replica is a standby, not the primary. The
    /// client should try the next replica (or wait for a takeover); the
    /// operation was not executed.
    NotPrimary,
    /// No ARM replica answered within the client's retry budget
    /// (client-side verdict; also encodable so proxies can forward it).
    Unreachable,
}

impl From<DecodeError> for ArmError {
    fn from(_: DecodeError) -> Self {
        ArmError::Malformed
    }
}

impl std::fmt::Display for ArmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArmError::Insufficient { requested, free } => {
                write!(
                    f,
                    "insufficient accelerators: requested {requested}, free {free}"
                )
            }
            ArmError::NotHeld => write!(f, "accelerator not held by this job"),
            ArmError::UnknownAccelerator => write!(f, "unknown accelerator"),
            ArmError::Malformed => write!(f, "malformed ARM message"),
            ArmError::Rejected(reason) => write!(f, "submission rejected: {reason}"),
            ArmError::NotPrimary => write!(f, "replica is a standby, not the primary"),
            ArmError::Unreachable => write!(f, "no ARM replica answered within the retry budget"),
        }
    }
}
impl std::error::Error for ArmError {}

/// A kind byte, then the kind's fields; a reject carries its own kind byte
/// and two `u32`s.
impl Codec<ArmError> for ArmError {
    fn put(w: &mut Writer<'_>, e: &ArmError) {
        match *e {
            ArmError::Insufficient { requested, free } => {
                w.u8(0);
                w.u32(requested);
                w.u32(free);
            }
            ArmError::NotHeld => w.u8(1),
            ArmError::UnknownAccelerator => w.u8(2),
            ArmError::Malformed => w.u8(3),
            ArmError::Rejected(reason) => {
                let (kind, a, b) = match reason {
                    RejectReason::TooLarge { requested, pool } => (0, requested, pool),
                    RejectReason::QuotaAccels { requested, quota } => (1, requested, quota),
                    RejectReason::QuotaQueue { depth, quota } => (2, depth, quota),
                };
                w.u8(4);
                w.u8(kind);
                w.u32(a);
                w.u32(b);
            }
            ArmError::NotPrimary => w.u8(5),
            ArmError::Unreachable => w.u8(6),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<ArmError, DecodeError> {
        Ok(match r.u8()? {
            0 => ArmError::Insufficient {
                requested: r.u32()?,
                free: r.u32()?,
            },
            1 => ArmError::NotHeld,
            2 => ArmError::UnknownAccelerator,
            3 => ArmError::Malformed,
            4 => {
                let (kind, a, b) = (r.u8()?, r.u32()?, r.u32()?);
                ArmError::Rejected(match kind {
                    0 => RejectReason::TooLarge {
                        requested: a,
                        pool: b,
                    },
                    1 => RejectReason::QuotaAccels {
                        requested: a,
                        quota: b,
                    },
                    2 => RejectReason::QuotaQueue { depth: a, quota: b },
                    _ => return Err(DecodeError),
                })
            }
            5 => ArmError::NotPrimary,
            6 => ArmError::Unreachable,
            _ => return Err(DecodeError),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: ArmRequest) {
        assert_eq!(ArmRequest::decode(&req.encode()), Ok(req));
    }

    fn roundtrip_resp(resp: ArmResponse) {
        assert_eq!(ArmResponse::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(ArmRequest::Allocate {
            job: JobId(42),
            count: 3,
            wait: true,
        });
        roundtrip_req(ArmRequest::Release {
            job: JobId(1),
            accels: vec![AcceleratorId(0), AcceleratorId(7)],
        });
        roundtrip_req(ArmRequest::ReleaseJob { job: JobId(9) });
        roundtrip_req(ArmRequest::MarkBroken {
            accel: AcceleratorId(2),
        });
        roundtrip_req(ArmRequest::Query);
        roundtrip_req(ArmRequest::Shutdown);
        roundtrip_req(ArmRequest::Repair {
            accel: AcceleratorId(1),
        });
        roundtrip_req(ArmRequest::ReportFailure {
            job: JobId(7),
            accel: AcceleratorId(3),
        });
        roundtrip_req(ArmRequest::RenewLease { job: JobId(11) });
        roundtrip_req(ArmRequest::Heartbeat {
            accel: AcceleratorId(2),
            fence: 5,
            busy: 17,
        });
        roundtrip_req(ArmRequest::Drain {
            accel: AcceleratorId(6),
        });
        roundtrip_req(ArmRequest::ProbeResult {
            accel: AcceleratorId(4),
            ok: true,
        });
        roundtrip_req(ArmRequest::SubmitJob {
            job: JobId(77),
            tenant: 3,
            gang: 4,
            share_ok: true,
            wait: false,
        });
        roundtrip_req(ArmRequest::SetTenant {
            tenant: 9,
            weight: 5,
            priority: 2,
            max_accels: 16,
            max_queued: 8,
        });
    }

    #[test]
    fn scheduler_responses_roundtrip() {
        roundtrip_resp(ArmResponse::Queued { position: 4 });
        roundtrip_resp(ArmResponse::Error(ArmError::Rejected(
            RejectReason::TooLarge {
                requested: 9,
                pool: 4,
            },
        )));
        roundtrip_resp(ArmResponse::Error(ArmError::Rejected(
            RejectReason::QuotaAccels {
                requested: 5,
                quota: 2,
            },
        )));
        roundtrip_resp(ArmResponse::Error(ArmError::Rejected(
            RejectReason::QuotaQueue { depth: 7, quota: 7 },
        )));
    }

    #[test]
    fn arm_events_roundtrip() {
        for ev in [
            ArmEvent::Evict(Eviction {
                accel: AcceleratorId(3),
                epoch: 4,
                reason: EvictReason::LeaseExpired,
                replacement: None,
            }),
            ArmEvent::Slice {
                grant: GrantedAccelerator {
                    accel: AcceleratorId(2),
                    daemon_rank: Rank(8),
                    node: NodeId(4),
                    epoch: 21,
                },
            },
        ] {
            assert_eq!(ArmEvent::decode(&ev.encode()), Ok(ev));
        }
        assert_eq!(ArmEvent::decode(&[9]), Err(ArmError::Malformed));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(ArmResponse::Granted(vec![GrantedAccelerator {
            accel: AcceleratorId(1),
            daemon_rank: Rank(5),
            node: NodeId(3),
            epoch: 9,
        }]));
        roundtrip_resp(ArmResponse::Released { released: 2 });
        roundtrip_resp(ArmResponse::Error(ArmError::Insufficient {
            requested: 4,
            free: 1,
        }));
        roundtrip_resp(ArmResponse::Error(ArmError::NotHeld));
        roundtrip_resp(ArmResponse::Stats(PoolStats {
            free: 1,
            assigned: 2,
            broken: 3,
            queued_requests: 4,
        }));
        roundtrip_resp(ArmResponse::Renewed { renewed: 3 });
        roundtrip_resp(ArmResponse::HeartbeatAck {
            fence: 7,
            probe: true,
        });
    }

    #[test]
    fn evictions_roundtrip() {
        for ev in [
            Eviction {
                accel: AcceleratorId(3),
                epoch: 4,
                reason: EvictReason::LeaseExpired,
                replacement: None,
            },
            Eviction {
                accel: AcceleratorId(0),
                epoch: 12,
                reason: EvictReason::Quarantined,
                replacement: Some(GrantedAccelerator {
                    accel: AcceleratorId(1),
                    daemon_rank: Rank(5),
                    node: NodeId(3),
                    epoch: 13,
                }),
            },
            Eviction {
                accel: AcceleratorId(7),
                epoch: 1,
                reason: EvictReason::Drained,
                replacement: None,
            },
        ] {
            assert_eq!(Eviction::decode(&ev.encode()), Ok(ev));
        }
        let mut bytes = Eviction {
            accel: AcceleratorId(3),
            epoch: 4,
            reason: EvictReason::LeaseExpired,
            replacement: None,
        }
        .encode();
        bytes.push(0);
        assert_eq!(Eviction::decode(&bytes), Err(ArmError::Malformed));
    }

    #[test]
    fn ha_error_variants_roundtrip() {
        roundtrip_resp(ArmResponse::Error(ArmError::NotPrimary));
        roundtrip_resp(ArmResponse::Error(ArmError::Unreachable));
    }

    #[test]
    fn repl_messages_roundtrip() {
        for msg in [
            ReplMsg::Entry(ReplEntry {
                index: 7,
                now_ns: 123_456,
                src: 3,
                op_id: 99,
                frame: ArmRequest::Allocate {
                    job: JobId(1),
                    count: 2,
                    wait: true,
                }
                .encode(),
            }),
            ReplMsg::Beacon { index: 41 },
            ReplMsg::Snapshot {
                index: 12,
                state: vec![1, 2, 3, 4, 5],
            },
            ReplMsg::Hello { have: 0 },
        ] {
            assert_eq!(ReplMsg::decode(&msg.encode()), Ok(msg.clone()));
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    ReplMsg::decode(&bytes[..cut]),
                    Err(ArmError::Malformed),
                    "cut at {cut}"
                );
            }
        }
        assert_eq!(ReplMsg::decode(&[9]), Err(ArmError::Malformed));
    }

    #[test]
    fn framed_requests_strip_to_legacy_bytes() {
        let req = ArmRequest::Allocate {
            job: JobId(5),
            count: 1,
            wait: false,
        };
        let framed = frame_request(42, &req, &mut EncodeBuf::new());
        let (op_id, body) = peek_frame(&framed).expect("framed");
        assert_eq!(op_id, 42);
        assert_eq!(ArmRequest::decode(body), Ok(req.clone()));
        // Legacy bytes are not mistaken for a frame.
        assert_eq!(peek_frame(&req.encode()), None);
        // A truncated frame header is not a frame either.
        assert_eq!(peek_frame(&[FRAME_MARKER, 1, 2]), None);

        let resp = ArmResponse::Granted(vec![]);
        let framed = frame_response(42, &resp, &mut EncodeBuf::new());
        let (op_id, body) = peek_frame(&framed).expect("framed");
        assert_eq!(op_id, 42);
        assert_eq!(ArmResponse::decode(body), Ok(resp));
    }

    #[test]
    fn truncated_input_is_malformed() {
        let bytes = ArmRequest::Allocate {
            job: JobId(1),
            count: 1,
            wait: false,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                ArmRequest::decode(&bytes[..cut]),
                Err(ArmError::Malformed),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut bytes = ArmRequest::Query.encode();
        bytes.push(0xAA);
        assert_eq!(ArmRequest::decode(&bytes), Err(ArmError::Malformed));
    }

    #[test]
    fn unknown_opcode_is_malformed() {
        assert_eq!(ArmRequest::decode(&[99]), Err(ArmError::Malformed));
        assert_eq!(ArmResponse::decode(&[99]), Err(ArmError::Malformed));
    }
}
