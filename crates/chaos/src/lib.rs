//! `dacc-chaos` — deterministic, seeded fault injection.
//!
//! A [`ChaosPlane`] implements [`FaultHook`] and is attached to a built
//! cluster's fabric with `Cluster::set_fault_hook`: the topology consults
//! it per transmission, and daemons, heartbeat agents and replicated ARMs
//! read it from their endpoints for their per-iteration process state.
//! Faults are declared up front in a [`FaultSchedule`] — *inject X at
//! virtual time T* or *after N fabric transmissions* — and every
//! probabilistic decision draws from a seeded [`SimRng`], so a chaos run
//! is a pure function of `(seed, schedule, workload)`: two runs with the
//! same inputs produce the identical fault sequence, event for event. That determinism is what makes failover bugs
//! reproducible and is regression-tested in `tests/`.
//!
//! The plane only *decides*; the effects live where the state lives: the
//! topology charges the sender and suppresses delivery on `Drop`, stretches
//! serialization on `Degrade`, and the daemon loop returns (crash) or
//! pauses (hang) on process faults. Crash and hang verdicts are therefore
//! observed at the daemon's next request, which keeps them deterministic
//! with respect to the request stream rather than racing a timer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use dacc_sim::fault::{FaultHook, LinkFault, ProcessFault};
use dacc_sim::rng::SimRng;
use dacc_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;

/// When a scheduled fault arms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// Arm at virtual time `t` (first hook consultation at or after `t`).
    At(SimTime),
    /// Arm once the plane has observed this many fabric transmissions.
    AfterEvents(u64),
}

/// A fault to inject. Link faults select traffic by optional source and
/// destination rank (`None` = any); process faults select a daemon by rank.
#[derive(Clone, PartialEq, Debug)]
pub enum Fault {
    /// Drop the next `count` matching messages outright, then disarm.
    DropMessages {
        /// Source rank filter (`None` matches all).
        src: Option<usize>,
        /// Destination rank filter (`None` matches all).
        dst: Option<usize>,
        /// How many matching messages to drop.
        count: u32,
    },
    /// Drop each matching message with probability `p` (seeded; stays
    /// armed once triggered).
    DropRandomly {
        /// Source rank filter (`None` matches all).
        src: Option<usize>,
        /// Destination rank filter (`None` matches all).
        dst: Option<usize>,
        /// Per-message drop probability in `[0, 1]`.
        p: f64,
    },
    /// Multiply matching messages' serialization time by `factor` (stays
    /// armed once triggered).
    DegradeLink {
        /// Source rank filter (`None` matches all).
        src: Option<usize>,
        /// Destination rank filter (`None` matches all).
        dst: Option<usize>,
        /// Serialization-time multiplier (> 1 slows the link).
        factor: f64,
    },
    /// Flip one bit in the `nth` matching message (1-based, counted from
    /// arming), then disarm. Timing is untouched — the damaged payload is
    /// delivered on schedule, so only receiver-side integrity checks (CRC
    /// trailers) can tell, making this the adversary for end-to-end payload
    /// verification.
    CorruptPayload {
        /// Source rank filter (`None` matches all).
        src: Option<usize>,
        /// Destination rank filter (`None` matches all).
        dst: Option<usize>,
        /// Which matching message to corrupt (1 = the next one).
        nth: u64,
    },
    /// Kill the daemon at `rank`: it consumes its next request and returns
    /// without responding, permanently (the accelerator is dead).
    CrashProcess {
        /// The daemon's fabric rank.
        rank: usize,
    },
    /// Pause the daemon at `rank` for `pause` before it serves its next
    /// request, once, then disarm (a transient stall, not a death).
    HangProcess {
        /// The daemon's fabric rank.
        rank: usize,
        /// Stall duration.
        pause: SimDuration,
    },
    /// Kill the compute node at `node`: every message to or from it is
    /// dropped, permanently. Models a whole-node death — the client
    /// process goes silent without releasing anything, which is exactly
    /// the lease-expiry reclamation scenario (daemons on other nodes keep
    /// heartbeating).
    CrashComputeNode {
        /// The dead node's id (equals its rank in the standard layout).
        node: usize,
    },
    /// Suppress the next `count` heartbeats from the daemon at `rank`,
    /// then heal. The daemon keeps serving requests — only its liveness
    /// beats vanish, driving the ARM's Suspect → Quarantined → probe →
    /// reintegration path without any real failure.
    MuteHeartbeats {
        /// The daemon's fabric rank.
        rank: usize,
        /// How many consecutive beats to mute.
        count: u32,
    },
    /// A flaky accelerator: its daemon's heartbeats cycle `up` delivered
    /// then `down` muted, indefinitely (by beat index, so the pattern is
    /// deterministic). Repeated quarantines exhaust the ARM's
    /// re-quarantine budget and brand the accelerator permanently broken.
    FlakyAccel {
        /// The daemon's fabric rank.
        rank: usize,
        /// Beats delivered per cycle.
        up: u64,
        /// Beats muted per cycle.
        down: u64,
    },
    /// Sever one physical link (by topology link id): every frame routed
    /// over it is lost after serializing, permanently. Unlike
    /// [`Fault::DropMessages`] this is addressed at the *wire*, not the
    /// endpoint pair — cutting a fat-tree uplink blackholes every flow that
    /// routes through it while same-edge traffic keeps flowing.
    CutLink {
        /// The topology link id to sever.
        link: usize,
    },
    /// Multiply the serialization time of every frame crossing one
    /// physical link by `factor` (> 1 models a degraded wire), permanently
    /// once armed.
    SlowLink {
        /// The topology link id to slow.
        link: usize,
        /// Serialization-time multiplier.
        factor: f64,
    },
    /// A gray failure: the daemon at `rank` stalls `stall` before serving
    /// *every* request, permanently once armed. It never goes silent — it
    /// heartbeats on schedule and eventually answers — so the liveness
    /// plane sees a healthy accelerator while callers see their deadlines
    /// burn. The adversary for per-accelerator circuit breakers, which
    /// judge by observed response behaviour rather than beats.
    SlowAccel {
        /// The daemon's fabric rank.
        rank: usize,
        /// Per-request stall.
        stall: SimDuration,
    },
    /// Kill the ARM replica at `rank`: its server task returns at its next
    /// fault check (the loop top, or on waking from a blocked receive) and
    /// every message to or from it is dropped, permanently. With standbys
    /// configured this is the control-plane takeover adversary; without,
    /// it beheads the cluster.
    CrashArm {
        /// The ARM replica's fabric rank.
        rank: usize,
    },
    /// Partition the ARM replica at `rank`: every message to or from it is
    /// dropped, but the process keeps running. The replica believes it is
    /// healthy while the rest of the cluster elects around it — the
    /// split-brain adversary for the demote-on-beacon rule.
    PartitionArm {
        /// The ARM replica's fabric rank.
        rank: usize,
    },
    /// An overload storm at the daemon at `rank`: the next `requests`
    /// requests each queue behind `stall` of synthetic backlog, then the
    /// storm drains and the daemon is healthy again. Models a transient
    /// burst (another tenant's flood, a GC pause train) that a retrying
    /// client base can turn metastable — the scenario admission control,
    /// retry budgets, and deadline shedding exist to survive.
    OverloadStorm {
        /// The daemon's fabric rank.
        rank: usize,
        /// How many requests the storm delays before it drains.
        requests: u32,
        /// Queueing delay added to each stormed request.
        stall: SimDuration,
    },
}

impl Fault {
    /// Shorthand: kill the accelerator daemon at `rank`.
    pub fn kill_daemon(rank: usize) -> Fault {
        Fault::CrashProcess { rank }
    }
}

fn link_matches(src_sel: Option<usize>, dst_sel: Option<usize>, src: usize, dst: usize) -> bool {
    src_sel.is_none_or(|s| s == src) && dst_sel.is_none_or(|d| d == dst)
}

/// A declarative fault plan: `(trigger, fault)` pairs, built fluently.
///
/// ```
/// use dacc_chaos::{Fault, FaultSchedule};
/// use dacc_sim::time::{SimDuration, SimTime};
///
/// let schedule = FaultSchedule::new()
///     .after_events(100, Fault::DropMessages { src: None, dst: None, count: 3 })
///     .at(
///         SimTime::ZERO + SimDuration::from_millis(2),
///         Fault::kill_daemon(2),
///     );
/// assert_eq!(schedule.len(), 2);
/// ```
#[derive(Clone, Default, Debug)]
pub struct FaultSchedule {
    entries: Vec<(Trigger, Fault)>,
}

impl FaultSchedule {
    /// An empty schedule (a chaos plane over it injects nothing).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Arm `fault` at virtual time `t`.
    pub fn at(mut self, t: SimTime, fault: Fault) -> Self {
        self.entries.push((Trigger::At(t), fault));
        self
    }

    /// Arm `fault` after `n` observed fabric transmissions.
    pub fn after_events(mut self, n: u64, fault: Fault) -> Self {
        self.entries.push((Trigger::AfterEvents(n), fault));
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Counters of what the plane has actually injected.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ChaosCounters {
    /// Fabric transmissions observed.
    pub events: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Messages degraded.
    pub degrades: u64,
    /// Messages delivered with a flipped bit.
    pub corruptions: u64,
    /// Crash verdicts returned (one per request the dead daemon consumed).
    pub crashes: u64,
    /// Hang verdicts returned.
    pub hangs: u64,
    /// Heartbeats suppressed before reaching the fabric.
    pub muted_beats: u64,
}

struct State {
    pending: Vec<(Trigger, Fault)>,
    active: Vec<Fault>,
    rng: SimRng,
    counters: ChaosCounters,
}

/// The seeded fault-injection plane (see crate docs).
pub struct ChaosPlane {
    state: Mutex<State>,
}

impl ChaosPlane {
    /// Build a plane over `schedule`; `seed` drives every probabilistic
    /// decision ([`Fault::DropRandomly`]).
    pub fn new(seed: u64, schedule: FaultSchedule) -> Arc<Self> {
        Arc::new(ChaosPlane {
            state: Mutex::new(State {
                pending: schedule.entries,
                active: Vec::new(),
                rng: SimRng::derive(seed, "chaos"),
                counters: ChaosCounters::default(),
            }),
        })
    }

    /// What has been injected so far.
    pub fn counters(&self) -> ChaosCounters {
        self.state.lock().counters
    }

    /// Arm `fault` immediately, bypassing the schedule. Test drivers use
    /// this for faults whose right moment is only known at runtime — e.g.
    /// "kill the daemon now that the checkpoint completed" — where no event
    /// count or virtual time can be pinned in advance.
    pub fn inject(&self, fault: Fault) {
        self.state.lock().active.push(fault);
    }

    /// Disarm every active instance of `fault` (exact match), healing it.
    /// Permanent faults like [`Fault::PartitionArm`] have no natural end;
    /// test drivers lift them at runtime to model a partition healing.
    pub fn lift(&self, fault: &Fault) {
        self.state.lock().active.retain(|f| f != fault);
    }
}

fn arm_due(st: &mut State, now: SimTime) {
    let events = st.counters.events;
    let mut i = 0;
    while i < st.pending.len() {
        let due = match st.pending[i].0 {
            Trigger::At(t) => now >= t,
            Trigger::AfterEvents(n) => events >= n,
        };
        if due {
            let (_, fault) = st.pending.remove(i);
            st.active.push(fault);
        } else {
            i += 1;
        }
    }
}

impl FaultHook for ChaosPlane {
    fn on_transmit(&self, src: usize, dst: usize, _payload_bytes: u64, now: SimTime) -> LinkFault {
        let mut st = self.state.lock();
        st.counters.events += 1;
        arm_due(&mut st, now);
        // A dead node blackholes everything first; then counted drops take
        // priority over degradation; first matching armed fault of each
        // kind decides.
        if st
            .active
            .iter()
            .any(|f| matches!(f, Fault::CrashComputeNode { node } if *node == src || *node == dst))
        {
            st.counters.drops += 1;
            return LinkFault::Drop;
        }
        // A crashed or partitioned ARM replica is likewise unreachable in
        // both directions — crashed because the process is gone, partitioned
        // because the wire is cut while the process keeps running.
        if st.active.iter().any(|f| {
            matches!(f,
                Fault::CrashArm { rank } | Fault::PartitionArm { rank }
                    if *rank == src || *rank == dst)
        }) {
            st.counters.drops += 1;
            return LinkFault::Drop;
        }
        for i in 0..st.active.len() {
            match st.active[i].clone() {
                Fault::DropMessages {
                    src: s,
                    dst: d,
                    count,
                } if link_matches(s, d, src, dst) => {
                    if count <= 1 {
                        st.active.remove(i);
                    } else if let Fault::DropMessages { count, .. } = &mut st.active[i] {
                        *count -= 1;
                    }
                    st.counters.drops += 1;
                    return LinkFault::Drop;
                }
                Fault::DropRandomly { src: s, dst: d, p }
                    if link_matches(s, d, src, dst) && st.rng.uniform() < p =>
                {
                    st.counters.drops += 1;
                    return LinkFault::Drop;
                }
                _ => {}
            }
        }
        // Corruption: count matching deliveries down to the nth, damage it,
        // disarm. Runs after drops (a dropped message has no bits left to
        // flip) and before degradation (the damaged frame keeps its timing).
        for i in 0..st.active.len() {
            if let Fault::CorruptPayload {
                src: s,
                dst: d,
                nth,
            } = st.active[i].clone()
            {
                if link_matches(s, d, src, dst) {
                    if nth <= 1 {
                        st.active.remove(i);
                        st.counters.corruptions += 1;
                        return LinkFault::Corrupt;
                    } else if let Fault::CorruptPayload { nth, .. } = &mut st.active[i] {
                        *nth -= 1;
                    }
                    break;
                }
            }
        }
        for f in &st.active {
            if let Fault::DegradeLink {
                src: s,
                dst: d,
                factor,
            } = *f
            {
                if link_matches(s, d, src, dst) {
                    st.counters.degrades += 1;
                    return LinkFault::Degrade(factor);
                }
            }
        }
        LinkFault::Deliver
    }

    fn on_link(&self, link: usize, now: SimTime) -> LinkFault {
        // Note: deliberately does NOT advance the `events` counter —
        // `AfterEvents` triggers count messages (on_transmit calls), not
        // per-link consultations, so schedules stay stable across
        // topologies with different route lengths. No seeded randomness is
        // drawn here either, for the same reason.
        let mut st = self.state.lock();
        arm_due(&mut st, now);
        if st
            .active
            .iter()
            .any(|f| matches!(f, Fault::CutLink { link: l } if *l == link))
        {
            st.counters.drops += 1;
            return LinkFault::Drop;
        }
        for f in &st.active {
            if let Fault::SlowLink { link: l, factor } = *f {
                if l == link {
                    st.counters.degrades += 1;
                    return LinkFault::Degrade(factor);
                }
            }
        }
        LinkFault::Deliver
    }

    fn process_state(&self, process: usize, now: SimTime) -> ProcessFault {
        let mut st = self.state.lock();
        arm_due(&mut st, now);
        if st.active.iter().any(|f| {
            matches!(f,
                Fault::CrashProcess { rank } | Fault::CrashArm { rank }
                    if *rank == process)
        }) {
            st.counters.crashes += 1;
            return ProcessFault::Crash;
        }
        if let Some(i) = st
            .active
            .iter()
            .position(|f| matches!(f, Fault::HangProcess { rank, .. } if *rank == process))
        {
            let Fault::HangProcess { pause, .. } = st.active.remove(i) else {
                unreachable!()
            };
            st.counters.hangs += 1;
            return ProcessFault::Hang(pause);
        }
        // Overload storm: a counted burst, one stall per request, disarming
        // once the backlog drains.
        if let Some(i) = st
            .active
            .iter()
            .position(|f| matches!(f, Fault::OverloadStorm { rank, .. } if *rank == process))
        {
            let Fault::OverloadStorm {
                requests, stall, ..
            } = st.active[i].clone()
            else {
                unreachable!()
            };
            if requests <= 1 {
                st.active.remove(i);
            } else if let Fault::OverloadStorm { requests, .. } = &mut st.active[i] {
                *requests -= 1;
            }
            st.counters.hangs += 1;
            return ProcessFault::Hang(stall);
        }
        // Gray failure: permanent per-request stall, never disarms.
        for f in &st.active {
            if let Fault::SlowAccel { rank, stall } = *f {
                if rank == process {
                    st.counters.hangs += 1;
                    return ProcessFault::Hang(stall);
                }
            }
        }
        ProcessFault::Healthy
    }

    fn heartbeat(&self, process: usize, beat: u64, now: SimTime) -> bool {
        let mut st = self.state.lock();
        arm_due(&mut st, now);
        for i in 0..st.active.len() {
            match st.active[i] {
                Fault::MuteHeartbeats { rank, count } if rank == process => {
                    if count <= 1 {
                        st.active.remove(i);
                    } else if let Fault::MuteHeartbeats { count, .. } = &mut st.active[i] {
                        *count -= 1;
                    }
                    st.counters.muted_beats += 1;
                    return false;
                }
                Fault::FlakyAccel { rank, up, down } if rank == process => {
                    if beat % (up + down) >= up {
                        st.counters.muted_beats += 1;
                        return false;
                    }
                    return true;
                }
                _ => {}
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn counted_drops_disarm_after_exhaustion() {
        let plane = ChaosPlane::new(
            1,
            FaultSchedule::new().after_events(
                2,
                Fault::DropMessages {
                    src: Some(1),
                    dst: Some(2),
                    count: 2,
                },
            ),
        );
        // Events 1: not armed yet. Event 2 arms it (>= 2) and drops.
        assert_eq!(plane.on_transmit(1, 2, 64, t(0)), LinkFault::Deliver);
        assert_eq!(plane.on_transmit(1, 2, 64, t(1)), LinkFault::Drop);
        // Non-matching traffic unaffected.
        assert_eq!(plane.on_transmit(2, 1, 64, t(2)), LinkFault::Deliver);
        assert_eq!(plane.on_transmit(1, 2, 64, t(3)), LinkFault::Drop);
        // Exhausted.
        assert_eq!(plane.on_transmit(1, 2, 64, t(4)), LinkFault::Deliver);
        assert_eq!(plane.counters().drops, 2);
    }

    #[test]
    fn time_triggered_degradation_and_crash() {
        let plane = ChaosPlane::new(
            7,
            FaultSchedule::new()
                .at(
                    t(10),
                    Fault::DegradeLink {
                        src: None,
                        dst: Some(3),
                        factor: 4.0,
                    },
                )
                .at(t(20), Fault::kill_daemon(3))
                .at(
                    t(20),
                    Fault::HangProcess {
                        rank: 4,
                        pause: SimDuration::from_micros(50),
                    },
                ),
        );
        assert_eq!(plane.on_transmit(0, 3, 64, t(5)), LinkFault::Deliver);
        assert_eq!(plane.on_transmit(0, 3, 64, t(10)), LinkFault::Degrade(4.0));
        assert_eq!(plane.process_state(3, t(15)), ProcessFault::Healthy);
        assert_eq!(plane.process_state(3, t(20)), ProcessFault::Crash);
        // Crash is permanent; hang fires once then disarms.
        assert_eq!(plane.process_state(3, t(30)), ProcessFault::Crash);
        assert_eq!(
            plane.process_state(4, t(30)),
            ProcessFault::Hang(SimDuration::from_micros(50))
        );
        assert_eq!(plane.process_state(4, t(31)), ProcessFault::Healthy);
    }

    #[test]
    fn crashed_arm_blackholes_and_kills_partition_keeps_process() {
        let plane = ChaosPlane::new(
            7,
            FaultSchedule::new()
                .at(t(10), Fault::CrashArm { rank: 0 })
                .at(t(10), Fault::PartitionArm { rank: 5 }),
        );
        assert_eq!(plane.on_transmit(1, 0, 64, t(5)), LinkFault::Deliver);
        assert_eq!(plane.process_state(0, t(5)), ProcessFault::Healthy);
        // Crashed ARM: wire dead both ways and the process verdict is Crash.
        assert_eq!(plane.on_transmit(1, 0, 64, t(10)), LinkFault::Drop);
        assert_eq!(plane.on_transmit(0, 2, 64, t(11)), LinkFault::Drop);
        assert_eq!(plane.process_state(0, t(12)), ProcessFault::Crash);
        // Partitioned ARM: wire dead both ways but the process stays alive.
        assert_eq!(plane.on_transmit(5, 1, 64, t(12)), LinkFault::Drop);
        assert_eq!(plane.on_transmit(1, 5, 64, t(12)), LinkFault::Drop);
        assert_eq!(plane.process_state(5, t(12)), ProcessFault::Healthy);
        // Bystander traffic still flows.
        assert_eq!(plane.on_transmit(1, 2, 64, t(13)), LinkFault::Deliver);
    }

    #[test]
    fn crashed_node_blackholes_both_directions() {
        let plane = ChaosPlane::new(
            3,
            FaultSchedule::new().at(t(10), Fault::CrashComputeNode { node: 1 }),
        );
        assert_eq!(plane.on_transmit(1, 2, 64, t(5)), LinkFault::Deliver);
        assert_eq!(plane.on_transmit(1, 2, 64, t(10)), LinkFault::Drop);
        assert_eq!(plane.on_transmit(0, 1, 64, t(11)), LinkFault::Drop);
        // Unrelated traffic flows.
        assert_eq!(plane.on_transmit(0, 2, 64, t(12)), LinkFault::Deliver);
        // Permanent.
        assert_eq!(plane.on_transmit(2, 1, 64, t(9999)), LinkFault::Drop);
        assert_eq!(plane.counters().drops, 3);
    }

    #[test]
    fn corrupt_payload_hits_the_nth_match_then_disarms() {
        let plane = ChaosPlane::new(
            5,
            FaultSchedule::new().at(
                t(0),
                Fault::CorruptPayload {
                    src: Some(1),
                    dst: Some(2),
                    nth: 3,
                },
            ),
        );
        // First two matches pass; interleaved non-matching traffic ignored.
        assert_eq!(plane.on_transmit(1, 2, 64, t(1)), LinkFault::Deliver);
        assert_eq!(plane.on_transmit(2, 1, 64, t(2)), LinkFault::Deliver);
        assert_eq!(plane.on_transmit(1, 2, 64, t(3)), LinkFault::Deliver);
        // Third match is damaged, then the fault disarms.
        assert_eq!(plane.on_transmit(1, 2, 64, t(4)), LinkFault::Corrupt);
        assert_eq!(plane.on_transmit(1, 2, 64, t(5)), LinkFault::Deliver);
        assert_eq!(plane.counters().corruptions, 1);
    }

    #[test]
    fn muted_heartbeats_heal_after_count() {
        let plane = ChaosPlane::new(
            3,
            FaultSchedule::new().at(t(0), Fault::MuteHeartbeats { rank: 2, count: 2 }),
        );
        assert!(plane.heartbeat(3, 0, t(1)), "other rank beats freely");
        assert!(!plane.heartbeat(2, 0, t(1)));
        assert!(!plane.heartbeat(2, 1, t(2)));
        assert!(plane.heartbeat(2, 2, t(3)), "healed after count");
        assert_eq!(plane.counters().muted_beats, 2);
    }

    #[test]
    fn flaky_accel_mutes_cyclically_by_beat() {
        let plane = ChaosPlane::new(
            3,
            FaultSchedule::new().at(
                t(0),
                Fault::FlakyAccel {
                    rank: 2,
                    up: 2,
                    down: 3,
                },
            ),
        );
        let pattern: Vec<bool> = (0..10).map(|b| plane.heartbeat(2, b, t(b))).collect();
        assert_eq!(
            pattern,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
    }

    #[test]
    fn slow_accel_stalls_every_request_without_dying() {
        let plane = ChaosPlane::new(
            2,
            FaultSchedule::new().at(
                t(10),
                Fault::SlowAccel {
                    rank: 3,
                    stall: SimDuration::from_micros(40),
                },
            ),
        );
        assert_eq!(plane.process_state(3, t(5)), ProcessFault::Healthy);
        // Every request stalls, indefinitely — a gray failure, not a crash.
        for i in 0..4 {
            assert_eq!(
                plane.process_state(3, t(10 + i)),
                ProcessFault::Hang(SimDuration::from_micros(40))
            );
        }
        // The slow daemon still heartbeats: liveness looks fine.
        assert!(plane.heartbeat(3, 0, t(12)));
        // Other daemons are untouched.
        assert_eq!(plane.process_state(4, t(12)), ProcessFault::Healthy);
        assert_eq!(plane.counters().hangs, 4);
    }

    #[test]
    fn overload_storm_drains_after_counted_requests() {
        let plane = ChaosPlane::new(
            2,
            FaultSchedule::new().at(
                t(10),
                Fault::OverloadStorm {
                    rank: 2,
                    requests: 3,
                    stall: SimDuration::from_micros(100),
                },
            ),
        );
        assert_eq!(plane.process_state(2, t(5)), ProcessFault::Healthy);
        for i in 0..3 {
            assert_eq!(
                plane.process_state(2, t(10 + i)),
                ProcessFault::Hang(SimDuration::from_micros(100))
            );
        }
        // Backlog drained: healthy again.
        assert_eq!(plane.process_state(2, t(20)), ProcessFault::Healthy);
        assert_eq!(plane.counters().hangs, 3);
    }

    #[test]
    fn link_faults_address_wires_not_endpoint_pairs() {
        let plane = ChaosPlane::new(
            1,
            FaultSchedule::new()
                .at(t(10), Fault::CutLink { link: 12 })
                .at(
                    t(10),
                    Fault::SlowLink {
                        link: 13,
                        factor: 3.0,
                    },
                ),
        );
        // Before arming, every link delivers.
        assert_eq!(plane.on_link(12, t(5)), LinkFault::Deliver);
        // Cut and slowed links answer per-wire; others stay healthy.
        assert_eq!(plane.on_link(12, t(10)), LinkFault::Drop);
        assert_eq!(plane.on_link(13, t(11)), LinkFault::Degrade(3.0));
        assert_eq!(plane.on_link(14, t(12)), LinkFault::Deliver);
        // Permanent once armed.
        assert_eq!(plane.on_link(12, t(9999)), LinkFault::Drop);
        // Per-link consultations never advance the message-event counter.
        assert_eq!(plane.counters().events, 0);
        assert_eq!(plane.counters().drops, 2);
        assert_eq!(plane.counters().degrades, 1);
    }

    #[test]
    fn same_seed_same_schedule_same_verdicts() {
        let schedule = FaultSchedule::new().after_events(
            1,
            Fault::DropRandomly {
                src: None,
                dst: None,
                p: 0.3,
            },
        );
        let a = ChaosPlane::new(42, schedule.clone());
        let b = ChaosPlane::new(42, schedule.clone());
        let c = ChaosPlane::new(43, schedule);
        let va: Vec<LinkFault> = (0..256)
            .map(|i| a.on_transmit(i % 5, (i + 1) % 5, 128, t(i as u64)))
            .collect();
        let vb: Vec<LinkFault> = (0..256)
            .map(|i| b.on_transmit(i % 5, (i + 1) % 5, 128, t(i as u64)))
            .collect();
        let vc: Vec<LinkFault> = (0..256)
            .map(|i| c.on_transmit(i % 5, (i + 1) % 5, 128, t(i as u64)))
            .collect();
        assert_eq!(va, vb, "same seed must reproduce the fault sequence");
        assert_ne!(vc, va, "a different seed must explore a different sequence");
        assert!(va.contains(&LinkFault::Drop));
        assert!(va.contains(&LinkFault::Deliver));
    }
}
