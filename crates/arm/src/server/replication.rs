//! Input-log replication between ARM replicas: each replica's log, a
//! standby's handling of replication traffic, and the full-state snapshot
//! that bounds catch-up. The driver sends what these functions return.

use std::collections::VecDeque;

use bytes::BytesMut;
use dacc_fabric::codec::{decode_whole, Reader, Writer};
use dacc_fabric::mpi::Rank;
use dacc_sched::Scheduler;
use dacc_sim::prelude::SimTime;

use super::service::{ArmState, Fx, PendingSubmit, Waiting};
use crate::proto::{ArmError, ArmRequest, ArmResponse, ReplEntry, ReplMsg};
use crate::state::JobId;

/// Version tag of the full-server snapshot wire format.
const SERVER_SNAPSHOT_VERSION: u8 = 1;

/// One replica's place in the replication log.
#[derive(Default)]
pub(super) struct ReplLog {
    /// Primary: the index the next entry gets.
    pub(super) next_index: u64,
    /// Standby: entries applied, or covered by an installed snapshot.
    pub(super) applied: u64,
    /// Primary: the entries since the last snapshot, for `Hello` catch-up.
    /// Standby: entries received but not yet applied.
    pub(super) tail: VecDeque<ReplEntry>,
    /// Primary: the latest snapshot and the index it covers.
    snapshot: Option<(u64, Vec<u8>)>,
}

/// What a standby must do after taking in one replication message.
pub(super) enum StandbyStep {
    Idle,
    /// Entries are missing: ask the sender for everything from `have` on.
    Hello(u64),
    /// The primary parked the replica set: stop timing out receives.
    Park,
    /// The primary replicated its own `Shutdown`: exit too.
    Shutdown,
}

impl ReplLog {
    /// Primary: log one executed request (its body as received, unframed)
    /// and return the entry to ship.
    pub(super) fn append(
        &mut self,
        now: SimTime,
        src: Rank,
        op_id: u64,
        frame: Vec<u8>,
    ) -> &ReplEntry {
        self.tail.push_back(ReplEntry {
            index: self.next_index,
            now_ns: now.as_nanos(),
            src: src.0 as u32,
            op_id,
            frame,
        });
        self.next_index += 1;
        &self.tail[self.tail.len() - 1]
    }

    /// Primary: whether the entry just applied completes a snapshot period.
    pub(super) fn snapshot_due(&self, every: u32) -> bool {
        every > 0 && self.next_index.is_multiple_of(u64::from(every))
    }

    /// Primary: keep `state` as the snapshot at the current index; the log
    /// before it is no longer needed for catch-up.
    pub(super) fn cut(&mut self, state: Vec<u8>) {
        self.snapshot = Some((self.next_index, state));
        self.tail.clear();
    }

    /// Primary: what brings a standby holding `have` entries up to date —
    /// the latest snapshot if it is ahead of the standby, then the tail.
    pub(super) fn catch_up(&self, have: u64) -> Vec<ReplMsg> {
        let snapshot = self.snapshot.iter().filter(|(index, _)| *index > have);
        let snapshot = snapshot.map(|(index, state)| ReplMsg::Snapshot {
            index: *index,
            state: state.clone(),
        });
        let tail = self.tail.iter().filter(|e| e.index >= have);
        snapshot
            .chain(tail.map(|e| ReplMsg::Entry(e.clone())))
            .collect()
    }

    /// Primary → standby: our state is a prefix of the new primary's
    /// (nothing reached us while it was elected), so resync from it like
    /// any lagging standby.
    pub(super) fn demote(&mut self) {
        self.applied = self.next_index;
        self.tail.clear();
        self.snapshot = None;
    }

    /// Standby → primary: apply the buffered entries to `arm` with their
    /// effects dropped, keep them (a second standby may `Hello` for exactly
    /// this tail), and number new entries after them. `true` if one was a
    /// `Shutdown` (never buffered: see [`ReplLog::standby_take`]).
    pub(super) fn take_over(&mut self, arm: &mut ArmState) -> bool {
        let mut fx = Fx::new(false);
        for e in &self.tail {
            if let Ok(req) = ArmRequest::decode(&e.frame) {
                let (at, from) = (SimTime::from_nanos(e.now_ns), Rank(e.src as usize));
                if arm.apply(at, from, e.op_id, req, &mut fx) {
                    return true;
                }
                fx.drain();
            }
        }
        self.applied += self.tail.len() as u64;
        self.next_index = self.applied;
        self.snapshot = None;
        false
    }

    /// Standby: take in one replication message, installing snapshots
    /// into `arm` and buffering entries lazily (they are applied only at
    /// takeover).
    pub(super) fn standby_take(&mut self, arm: &mut ArmState, msg: ReplMsg) -> StandbyStep {
        let expected = self.applied + self.tail.len() as u64;
        match msg {
            ReplMsg::Entry(e) if e.index == expected => {
                if matches!(ArmRequest::decode(&e.frame), Ok(ArmRequest::Shutdown)) {
                    return StandbyStep::Shutdown;
                }
                self.tail.push_back(e);
                StandbyStep::Idle
            }
            // An entry, beacon or park notice from beyond what we hold:
            // catch up first.
            ReplMsg::Entry(ReplEntry { index, .. })
            | ReplMsg::Beacon { index }
            | ReplMsg::Park { index }
                if index > expected =>
            {
                StandbyStep::Hello(expected)
            }
            ReplMsg::Park { .. } => StandbyStep::Park,
            ReplMsg::Snapshot { index, state } => {
                if index > self.applied && arm.install(&state).is_ok() {
                    self.applied = index;
                    while self.tail.front().is_some_and(|e| e.index < index) {
                        self.tail.pop_front();
                    }
                }
                StandbyStep::Idle
            }
            // Duplicate catch-up entries, current beacons, and `Hello`
            // (only primaries serve catch-up).
            _ => StandbyStep::Idle,
        }
    }
}

impl ArmState {
    /// Serialize the complete replica state — pool, scheduler, legacy wait
    /// queue, contacts, pending submits, and the dedupe table — into one
    /// deterministic byte string a standby can install verbatim.
    pub(super) fn snapshot(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        let mut w = Writer::new(&mut buf);
        w.u8(SERVER_SNAPSHOT_VERSION);
        w.prefixed(|w| self.pool.save_into(w));
        w.bytes(&self.sched.snapshot_bytes());
        w.u32(self.queue.len() as u32);
        for q in &self.queue {
            w.put(&q.requester);
            w.put(&q.job);
            w.u32(q.count);
            w.u64(q.op_id);
        }
        let mut contacts: Vec<_> = self.contacts.iter().collect();
        contacts.sort_by_key(|(job, _)| job.0);
        w.u32(contacts.len() as u32);
        for (job, rank) in contacts {
            w.put(job);
            w.put(rank);
        }
        let mut pending: Vec<_> = self.pending.iter().collect();
        pending.sort_by_key(|(job, _)| job.0);
        w.u32(pending.len() as u32);
        for (job, ps) in pending {
            w.put(job);
            w.put(&ps.requester);
            w.put(&ps.submitted);
            w.u64(ps.op_id);
        }
        let mut completed: Vec<_> = self.completed.iter().collect();
        completed.sort_by_key(|(rank, _)| rank.0);
        w.u32(completed.len() as u32);
        for (rank, (op_id, resp)) in completed {
            w.put(rank);
            w.u64(*op_id);
            w.prefixed(|w| resp.encode_body(w));
        }
        buf.to_vec()
    }

    /// Install an [`ArmState::snapshot`] image, replacing all replica
    /// state. Everything is parsed and validated before anything is
    /// assigned, so a malformed snapshot leaves the current state intact.
    pub(super) fn install(&mut self, bytes: &[u8]) -> Result<(), ArmError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != SERVER_SNAPSHOT_VERSION {
            return Err(ArmError::Malformed);
        }
        let pool_bytes = r.bytes()?;
        let sched_bytes = r.bytes()?;
        let queue = r.seq(|r| {
            Ok(Waiting {
                requester: r.get()?,
                job: r.get()?,
                count: r.u32()?,
                op_id: r.u64()?,
            })
        })?;
        let contacts: Vec<(JobId, Rank)> = r.get()?;
        let pending = r.seq(|r| {
            let job: JobId = r.get()?;
            let ps = PendingSubmit {
                requester: r.get()?,
                submitted: r.get()?,
                op_id: r.u64()?,
            };
            Ok((job, ps))
        })?;
        let completed = r.seq(|r| {
            let rank: Rank = r.get()?;
            let op_id = r.u64()?;
            let resp = decode_whole(r.bytes()?, ArmResponse::decode_body)?;
            Ok((rank, (op_id, resp)))
        })?;
        r.finish()?;
        let sched = Scheduler::restore(sched_bytes).ok_or(ArmError::Malformed)?;
        // `load_state` validates fully before mutating, so a failure here
        // still leaves `self` untouched.
        self.pool.load_state(pool_bytes)?;
        self.sched = sched;
        self.queue = queue.into();
        self.contacts = contacts.into_iter().collect();
        self.pending = pending.into_iter().collect();
        self.completed = completed.into_iter().collect();
        Ok(())
    }
}
