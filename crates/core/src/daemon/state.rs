//! The daemon's logic as a state machine that never awaits.
//!
//! [`DaemonState::apply`] takes one arrived frame and
//! [`DaemonState::finish`] the outcome of the blocking effect that ended the
//! last list; both append to an ordered effect list ([`Fx`]), which the
//! driver (`run_daemon`) performs with [`dacc_fabric::machine::perform`].

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use dacc_fabric::machine::{Effect, Effects};
use dacc_fabric::mpi::{Envelope, Rank, Tag};
use dacc_fabric::payload::Payload;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{KernelArg, KernelRegistry, LaunchConfig};
use dacc_vgpu::memory::DevicePtr;

use super::{DaemonConfig, DaemonStats};
use crate::proto::{
    ac_tags, AnyRequest, ControlBatch, Request, RequestFrame, Response, Status, StreamAck,
    WireProtocol, STREAM_VIRT_BASE,
};

/// Hard cap on entries staged per peer before a forced flush: keeps a
/// coalesced frame comfortably eager-sized (nobody posts receives on the
/// CTRL tag, so the unbundler only ever sees eager packets).
pub(crate) const CTRL_BATCH_MAX: usize = 8;

/// Service windows a peer's staging may sit idle (no new entries) before
/// it is force-flushed. Bounds how long one tenant's lone response can be
/// deferred while *other* tenants keep the request queue busy: a
/// continuously-streaming front-end appends to its own staging every
/// window and still batches up to [`CTRL_BATCH_MAX`], but a blocked peer
/// stops appending and drains within this many serviced requests.
pub(crate) const CTRL_STAGE_MAX_AGE: u64 = 2;

/// The daemon's effect list: the shared core plus its own notes and calls.
pub(crate) type Fx = Effects<Call, Note>;

/// What a request is called in trace labels.
#[derive(Clone, Copy, Debug)]
pub(crate) enum What {
    Req(&'static str),
    /// A stream batch of this many commands.
    Batch(usize),
}

impl std::fmt::Display for What {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            What::Req(kind) => f.write_str(kind),
            What::Batch(n) => write!(f, "StreamBatch[{n}]"),
        }
    }
}

/// Trace events and span edges as plain data: the driver renders their
/// labels only when it records. `Option<u64>` fields are framed op ids.
/// `Busy` and `Stop` are signals, emitted whatever the record bit.
#[derive(Debug)]
pub(crate) enum Note {
    /// Count one executed operation for the heartbeat agent.
    Busy,
    /// The daemon stops once this list is performed.
    Stop,
    /// `daemon.reset` at this fence.
    Reset(u64),
    /// `daemon.expired`: `n` queued frames, or the one from this rank.
    Expired(u64, Option<Rank>),
    /// `daemon.shed`: a frame from this rank, past this queue capacity.
    Shed(Rank, usize),
    /// `daemon.request`, and the `daemon.decode` span from arrival to now
    /// over the frame's bytes.
    Request(What, Rank, SimTime, u64, Option<u64>),
    /// `daemon.fenced`: epoch below fence.
    Fenced(What, Rank, Option<u64>, u64, u64),
    /// `daemon.dedupe`: op id and attempt.
    Dedupe(Rank, u64, u32),
    /// `daemon.stream.cmd`: a command's kind and sequence number.
    Cmd(Rank, &'static str, u64),
    /// Open `daemon.execute`.
    Execute(What, Rank, Option<u64>),
    /// Open `daemon.ack` for a response's status, or for a stream ack
    /// (`None`), tagged with its op id or sequence number.
    Ack(Rank, Option<Status>, u64),
    /// Close `daemon.execute`.
    Executed,
    /// Close `daemon.ack`.
    Acked,
}

/// A call's outcome: a success's value (an allocation's pointer, else 0),
/// or a status.
pub(crate) type Outcome = Result<u64, Status>;

/// A copy's device region: its translated pointer (or why translation
/// failed) and its length.
pub(crate) type Region = (Result<DevicePtr, Status>, u64);

/// The regions of one copy. A single copy is the one-region case of a
/// snapshot or restore and keeps its region inline.
#[derive(Clone, Debug)]
pub(crate) enum Regions {
    One([Region; 1]),
    Many(Vec<Region>),
}

impl std::ops::Deref for Regions {
    type Target = [Region];
    fn deref(&self) -> &[Region] {
        match self {
            Regions::One(r) => r,
            Regions::Many(v) => v,
        }
    }
}

/// A blocking call: the fault hook, a GPU call or a block train.
#[derive(Debug)]
pub(crate) enum Call {
    /// Consult the process fault hook: stall through a hang; a crash ends
    /// the daemon with no reply.
    Stall,
    Alloc(u64),
    Free(DevicePtr),
    Set(DevicePtr, u64, u8),
    Launch(String, Vec<KernelArg>, LaunchConfig),
    /// Check that every region translated and is allocated: the first
    /// failure in region order.
    Check(Regions),
    /// Receive each region's blocks from the rank on the tag into device
    /// memory. A region that did not translate, or follows a failure, is
    /// drained instead; the outcome is the last failure.
    H2D(Rank, Tag, WireProtocol, Regions),
    /// Check the regions, then stream each to the rank on the tag.
    D2H(Rank, Tag, WireProtocol, Regions),
}

/// The frame in service.
struct Job {
    from: Rank,
    arrived: SimTime,
    /// Bytes of the frame.
    bytes: u64,
    what: What,
    /// `(op_id, attempt)` of a framed request.
    framed: Option<(u64, u32)>,
    /// Assignment epoch (0: unstamped, never fenced).
    epoch: u64,
    reply: Tag,
    data: Tag,
    /// A stream batch's progress: its reply is the cumulative ack.
    batch: Option<Batch>,
}

struct Batch {
    cmds: std::vec::IntoIter<Request>,
    seq: u64,
    /// The sequence number the ack covers up to.
    last: u64,
    first_err: Option<Status>,
    value: u64,
}

/// What the state waits for, and how it goes on.
enum Wait {
    Idle,
    /// The fault hook's verdict on this frame.
    Stall(Payload),
    /// The dispatch cost of this request (`None`: the job's batch).
    Dispatch(Option<Request>),
    /// A call whose outcome answers the command.
    Answer,
    /// A stream-virtual allocation at `virt` of `len` bytes: map it.
    Map(u64, u64),
    /// Checked regions for the front-end: the pre-data reply (this value)
    /// must leave before the data and is never staged; then they stream.
    Ready(u64, WireProtocol, Regions),
    /// Streamed back: the request has replied already.
    Streamed,
}

/// A command's next step.
enum Step {
    Answer(Response),
    Run(Call, Wait),
    /// The request has replied itself.
    Done,
    /// A batch's next command.
    Next,
}

/// One live stream-virtual allocation from a client's command stream.
struct StreamRegion {
    virt: u64,
    len: u64,
    real: DevicePtr,
}

#[derive(Default)]
struct Session {
    kernel: Option<String>,
    args: Vec<KernelArg>,
    /// Stream-virtual allocations (see [`Request::MemAllocAt`]), translated
    /// on every use from this client.
    regions: Vec<StreamRegion>,
}

impl Session {
    /// Translate a possibly stream-virtual pointer to a real device pointer.
    fn resolve(&self, p: DevicePtr) -> Result<DevicePtr, Status> {
        if p.0 < STREAM_VIRT_BASE {
            return Ok(p);
        }
        self.regions
            .iter()
            .find(|r| p.0 >= r.virt && p.0 - r.virt < r.len.max(1))
            .map(|r| r.real.offset(p.0 - r.virt))
            .ok_or(Status::InvalidPointer)
    }

    /// The one region `p..p + len`.
    fn region(&self, p: DevicePtr, len: u64) -> Regions {
        Regions::One([(self.resolve(p), len)])
    }

    /// Snapshot or restore regions, given by stream-virtual address.
    fn regions(&self, regions: &[(u64, u64)]) -> Regions {
        let each = |&(virt, len): &(u64, u64)| (self.resolve(DevicePtr(virt)), len);
        Regions::Many(regions.iter().map(each).collect())
    }

    /// Launch the bound kernel with its (translated) arguments.
    fn run(&self, cfg: LaunchConfig) -> Step {
        let Some(name) = &self.kernel else {
            return Step::Answer(Response::err(Status::NoKernelBound));
        };
        let args = self.args.iter().map(|a| match a {
            KernelArg::Ptr(p) => self.resolve(*p).map(KernelArg::Ptr),
            other => Ok(*other),
        });
        match args.collect() {
            Ok(args) => Step::Run(Call::Launch(name.clone(), args, cfg), Wait::Answer),
            Err(st) => Step::Answer(Response::err(st)),
        }
    }
}

/// Per-peer staged control entries, and the service window of the most
/// recent append (for the staleness bound).
struct Staged {
    last_append: u64,
    entries: Vec<(u32, Bytes)>,
}

/// Outgoing control messages, staged per peer when `ctrl_batch` is on so
/// that several ride one [`ControlBatch`] fabric message.
struct Outbox {
    batching: bool,
    /// Service-window counter, advanced by [`DaemonState::tick`].
    window: u64,
    staged: HashMap<Rank, Staged>,
}

impl Outbox {
    /// Post `resp`, or for a stream batch (`ack`: the sequence number it
    /// covers up to) the cumulative [`StreamAck`] carrying it. The one
    /// staging decision: an urgent message (a pre-data reply, a
    /// fast-reject, the shutdown ack), or any with batching off, leaves
    /// now; the rest are staged.
    fn post(
        &mut self,
        to: Rank,
        tag: Tag,
        urgent: bool,
        fx: &mut Fx,
        resp: Response,
        ack: Option<u64>,
    ) {
        let (status, value) = (resp.status, resp.value);
        let bytes = fx.encode(|enc| match ack {
            Some(seq) => StreamAck { seq, status, value }.encode_into(enc),
            None => resp.encode_into(enc),
        });
        if urgent || !self.batching {
            return fx.push(Effect::Send(to, tag, bytes));
        }
        let window = self.window;
        let staged = self.staged.entry(to).or_insert_with(|| Staged {
            last_append: window,
            entries: Vec::new(),
        });
        staged.last_append = window;
        staged.entries.push((tag.0, bytes));
        if staged.entries.len() >= CTRL_BATCH_MAX {
            self.flush_peer(to, fx);
        }
    }

    /// Send what `peers` have staged, in rank order.
    fn flush(&mut self, mut peers: Vec<Rank>, fx: &mut Fx) {
        peers.sort_unstable_by_key(|r| r.0);
        for to in peers {
            self.flush_peer(to, fx);
        }
    }

    fn flush_peer(&mut self, to: Rank, fx: &mut Fx) {
        let Some(Staged { entries, .. }) = self.staged.remove(&to) else {
            return;
        };
        let entries = match <[_; 1]>::try_from(entries) {
            // A lone message gains nothing from batching: send it on its
            // own tag, byte-identical to the unbatched path.
            Ok([(tag, bytes)]) => return fx.push(Effect::Send(to, Tag(tag), bytes)),
            Err(entries) => entries,
        };
        fx.count("wire.ctrl_batched", entries.len() as u64);
        fx.send(to, ac_tags::CTRL, |enc| {
            ControlBatch { entries }.encode_into(enc)
        });
    }
}

/// Whether a deadline-stamped frame's sender has stopped waiting: the one
/// expiry test, for the run queue and for the frame about to be served.
fn expired(frame: &Payload, now: SimTime) -> bool {
    deadline(frame).is_some_and(|d| d <= now.as_nanos())
}

fn deadline(frame: &Payload) -> Option<u64> {
    frame.bytes().and_then(|b| RequestFrame::peek_deadline(b))
}

/// The daemon's state: everything `run_daemon` decides, none of what it
/// awaits.
pub(crate) struct DaemonState {
    pub(crate) config: DaemonConfig,
    registry: KernelRegistry,
    sessions: HashMap<Rank, Session>,
    /// Last completed framed operation per front-end: (op_id, response).
    completed: HashMap<Rank, (u64, Response)>,
    /// The fence the sessions were last reset at.
    fence: u64,
    /// The bounded run queue (admission control only).
    pub(crate) runq: VecDeque<Envelope>,
    out: Outbox,
    job: Job,
    wait: Wait,
    /// Activity counters; the driver adds its calls' bytes and kernels.
    pub(crate) stats: DaemonStats,
}

impl DaemonState {
    /// A daemon with no sessions, checking kernel names against `registry`.
    pub(crate) fn new(config: DaemonConfig, registry: KernelRegistry) -> Self {
        let out = Outbox {
            batching: config.ctrl_batch,
            window: 0,
            staged: HashMap::new(),
        };
        DaemonState {
            config,
            registry,
            sessions: HashMap::new(),
            completed: HashMap::new(),
            fence: 0,
            runq: VecDeque::new(),
            out,
            job: Job::new(Rank(0), SimTime::ZERO),
            wait: Wait::Idle,
            stats: DaemonStats::default(),
        }
    }

    /// Close one service window: advance the window clock and flush any
    /// peer whose staging has not grown for [`CTRL_STAGE_MAX_AGE`]
    /// windows. Called once per service iteration, so a staged entry never
    /// waits unboundedly behind other peers' traffic: the idle flush only
    /// guarantees progress when the *whole* queue drains.
    pub(crate) fn tick(&mut self, fx: &mut Fx) {
        let out = &mut self.out;
        out.window += 1;
        let stale: Vec<Rank> = (out.staged.iter())
            .filter(|(_, s)| out.window - s.last_append >= CTRL_STAGE_MAX_AGE)
            .map(|(r, _)| *r)
            .collect();
        if !stale.is_empty() {
            out.flush(stale, fx);
        }
    }

    /// True while some control message is staged.
    pub(crate) fn has_staged(&self) -> bool {
        !self.out.staged.is_empty()
    }

    /// Flush everything staged: the request queue went idle (the batching
    /// window closes) or the daemon is shutting down.
    pub(crate) fn flush_all(&mut self, fx: &mut Fx) {
        self.out
            .flush(self.out.staged.keys().copied().collect(), fx);
    }

    /// Admission control over the run queue: drop expired frames
    /// undecoded, then shed past `max_queue` (per-tenant fair share,
    /// latest deadlines first) with an [`Status::Overloaded`] fast-reject
    /// each. A no-op without [`DaemonConfig::admission`].
    pub(crate) fn admit(&mut self, now: SimTime, fx: &mut Fx) {
        let Some(adm) = self.config.admission else {
            return;
        };
        let before = self.runq.len();
        self.runq.retain(|e| !expired(&e.payload, now));
        let n = (before - self.runq.len()) as u64;
        if n > 0 {
            fx.note(Note::Expired(n, None));
        }
        let cap = adm.max_queue as usize;
        if self.runq.len() <= cap {
            return;
        }
        let entries: Vec<(u32, u64)> = (self.runq.iter())
            .map(|e| (e.src.0 as u32, deadline(&e.payload).unwrap_or(u64::MAX)))
            .collect();
        let shed = dacc_sched::shed_overflow(&entries, cap);
        fx.count("daemon.shed", shed.len() as u64);
        let (mut shed, mut i) = (shed.into_iter().peekable(), 0);
        let out = &mut self.out;
        self.runq.retain(|e| {
            i += 1;
            if shed.next_if_eq(&(i - 1)).is_none() {
                return true;
            }
            // Fast-reject without decoding the body: peek the op/attempt
            // ids so the reply lands on the attempt-scoped tag the sender
            // is awaiting.
            let tag = (e.payload.bytes())
                .and_then(|b| RequestFrame::peek_reject_ids(b))
                .map_or(ac_tags::RESPONSE, |(op, att)| {
                    ac_tags::response_tag(op, att)
                });
            fx.note(Note::Shed(e.src, cap));
            let value = adm.retry_after.as_nanos();
            let reject = Response {
                status: Status::Overloaded,
                value,
            };
            out.post(e.src, tag, true, fx, reject, None);
            false
        });
    }

    /// Serve a frame from `from` that arrived `now`, under the daemon's
    /// current `fence`. A fence raised since the last frame first resets
    /// every session and the dedupe cache, so the next holder starts on a
    /// clean device.
    pub(crate) fn apply(
        &mut self,
        now: SimTime,
        fence: u64,
        from: Rank,
        frame: Payload,
        fx: &mut Fx,
    ) {
        if fence > self.fence {
            self.fence = fence;
            self.sessions.clear();
            self.completed.clear();
            fx.note(Note::Reset(fence));
        }
        self.job = Job::new(from, now);
        fx.push(Effect::Run(Call::Stall));
        self.wait = Wait::Stall(frame);
    }

    /// Continue after the blocking effect that ended the last list. The
    /// fence is read again here: the dispatch cost may straddle a raise.
    pub(crate) fn finish(&mut self, now: SimTime, fence: u64, outcome: Outcome, fx: &mut Fx) {
        match std::mem::replace(&mut self.wait, Wait::Idle) {
            Wait::Idle => {}
            Wait::Stall(frame) => self.decode(now, frame, fx),
            Wait::Dispatch(req) => self.dispatch(fence, req, fx),
            then => {
                let step = self.then(then, outcome, fx);
                self.step(step, fx);
            }
        }
    }

    /// After the fault hook: drop the frame if it expired while queued or
    /// stalled, else decode it and pay the dispatch cost.
    fn decode(&mut self, now: SimTime, frame: Payload, fx: &mut Fx) {
        let job = &mut self.job;
        if expired(&frame, now) {
            return fx.note(Note::Expired(1, Some(job.from)));
        }
        self.stats.requests += 1;
        let req = match frame.bytes().map(|b| AnyRequest::decode(b)) {
            Some(Ok(AnyRequest::Bare(req))) => Some(req),
            Some(Ok(AnyRequest::Framed(f))) => {
                job.framed = Some((f.op_id, f.attempt));
                job.epoch = f.epoch;
                job.reply = ac_tags::response_tag(f.op_id, f.attempt);
                job.data = ac_tags::data_tag(f.op_id, f.attempt);
                Some(f.req)
            }
            Some(Ok(AnyRequest::Batch(b))) => {
                // One message, in-order execution, one cumulative ack: the
                // whole batch pays the dispatch cost once.
                self.stats.stream_batches += 1;
                let n = b.cmds.len();
                job.what = What::Batch(n);
                job.epoch = b.epoch;
                job.reply = ac_tags::stream_ack_tag(b.stream);
                job.data = ac_tags::stream_data_tag(b.stream);
                job.batch = Some(Batch {
                    cmds: b.cmds.into_iter(),
                    seq: b.first_seq,
                    last: b.first_seq.wrapping_add(n as u64).wrapping_sub(1),
                    first_err: None,
                    value: 0,
                });
                None
            }
            _ => return self.reply(Response::err(Status::Malformed), fx),
        };
        if let Some(req) = &req {
            job.what = What::Req(req.name());
        }
        job.bytes = frame.len();
        fx.push(Effect::Delay(self.config.request_cost));
        self.wait = Wait::Dispatch(req);
    }

    /// After the dispatch cost: fence, dedupe, then execute.
    fn dispatch(&mut self, fence: u64, req: Option<Request>, fx: &mut Fx) {
        let job = &self.job;
        let (what, from, op) = (job.what, job.from, job.framed.map(|(op, _)| op));
        let decoded = Note::Request(what, from, job.arrived, job.bytes, op);
        fx.note(decoded);
        // Fence stale holders before the dedupe cache and before any
        // execution: work stamped with a pre-reclaim epoch must never
        // touch the (possibly reassigned) device.
        if job.epoch != 0 && job.epoch < fence {
            fx.note(Note::Fenced(what, from, op, job.epoch, fence));
            fx.count("daemon.fenced", 1);
            return self.reply(Response::err(Status::StaleEpoch), fx);
        }
        let Some(req) = req else {
            fx.count("daemon.stream.batches", 1);
            fx.note(Note::Execute(what, from, None));
            return self.step(Step::Next, fx);
        };
        // A replayed operation (the op id this front-end last completed)
        // is answered from the cache unless its data phase must be
        // re-driven; data-phase ops are idempotent re-executions.
        if let (Some((op, attempt)), Some(&(last, resp))) = (job.framed, self.completed.get(&from))
        {
            if last == op && !has_data_phase(&req) {
                fx.note(Note::Dedupe(from, op, attempt));
                return self.reply(resp, fx);
            }
        }
        fx.push(Effect::Note(Note::Busy));
        let op = Some(op.unwrap_or(0));
        fx.note(Note::Execute(what, from, op));
        let step = self.exec(req, fx);
        self.step(step, fx);
    }

    /// Take a command's step: perform its call, or account its answer. A
    /// batch then runs its next commands, each after its per-command cost,
    /// until one blocks on a call, and acks once all have run. Nothing after
    /// the cost reads fresh input, so a command runs here and its effects
    /// follow the cost in the same list.
    fn step(&mut self, mut step: Step, fx: &mut Fx) {
        loop {
            let resp = match step {
                Step::Run(call, then) => {
                    fx.push(Effect::Run(call));
                    return self.wait = then;
                }
                // Only a single request replies itself (a copy back to the
                // front-end, shutdown); no stream command does.
                Step::Done => return fx.note(Note::Executed),
                Step::Answer(resp) => Some(resp),
                Step::Next => None,
            };
            let Some(batch) = &mut self.job.batch else {
                if let Some(resp) = resp {
                    self.done(resp, fx);
                }
                return;
            };
            if let Some(resp) = resp {
                // The client latches the first error as its sticky one.
                if resp.status != Status::Ok {
                    batch.first_err.get_or_insert(resp.status);
                }
                batch.value = resp.value;
                batch.seq = batch.seq.wrapping_add(1);
            }
            let Some(cmd) = batch.cmds.next() else {
                let (status, value) = (batch.first_err.unwrap_or(Status::Ok), batch.value);
                return self.done(Response { status, value }, fx);
            };
            self.stats.stream_cmds += 1;
            fx.push(Effect::Note(Note::Busy));
            fx.count("daemon.stream.cmds", 1);
            fx.push(Effect::Delay(self.config.per_block_cost));
            fx.note(Note::Cmd(self.job.from, cmd.name(), batch.seq));
            // A non-batchable command is rejected alone; the rest of the
            // batch still runs, so the stream's data-tag pairing never skews.
            step = match cmd.batchable() {
                true => self.exec(cmd, fx),
                false => Step::Answer(Response::err(Status::Malformed)),
            };
        }
    }

    /// The request ran: close its execution, remember a framed op's
    /// outcome so that a replay (lost response) is answered without
    /// re-execution (timeouts and corrupt data phases must re-execute),
    /// and reply inside the `daemon.ack` span: a response's, or a stream
    /// batch's cumulative ack's.
    fn done(&mut self, resp: Response, fx: &mut Fx) {
        let (job, status) = (&self.job, resp.status);
        fx.note(Note::Executed);
        let op = job.framed.map_or(0, |(op, _)| op);
        let ack = match &job.batch {
            Some(b) => Note::Ack(job.from, None, b.last),
            None => Note::Ack(job.from, Some(status), op),
        };
        if job.framed.is_some() && !matches!(status, Status::Timeout | Status::Corrupt) {
            self.completed.insert(job.from, (op, resp));
        }
        fx.note(ack);
        self.reply(resp, fx);
        fx.note(Note::Acked);
    }

    /// Reply to the job, staged when batching is on.
    fn reply(&mut self, resp: Response, fx: &mut Fx) {
        let (job, urgent) = (&self.job, false);
        let ack = job.batch.as_ref().map(|b| b.last);
        self.out.post(job.from, job.reply, urgent, fx, resp, ack);
    }

    /// A command's first step. Stream-virtual pointers
    /// (≥ [`STREAM_VIRT_BASE`]) are translated through the sender's
    /// session on every use.
    fn exec(&mut self, req: Request, fx: &mut Fx) -> Step {
        let (from, data) = (self.job.from, self.job.data);
        let session = self.sessions.entry(from).or_default();
        let h2d = |from, tag, protocol, regions| {
            Step::Run(Call::H2D(from, tag, protocol, regions), Wait::Answer)
        };
        // A copy back is checked first, so the front-end knows from the
        // response whether data will follow.
        let d2h = |value, protocol, regions: Regions| {
            Step::Run(
                Call::Check(regions.clone()),
                Wait::Ready(value, protocol, regions),
            )
        };
        match req {
            Request::MemAlloc { len } => Step::Run(Call::Alloc(len), Wait::Answer),
            Request::MemAllocAt { virt, len } => {
                let span = len.max(1);
                let overlaps = (session.regions.iter())
                    .any(|r| virt < r.virt + r.len.max(1) && r.virt < virt + span);
                if virt < STREAM_VIRT_BASE || overlaps {
                    return Step::Answer(Response::err(Status::Malformed));
                }
                Step::Run(Call::Alloc(len), Wait::Map(virt, len))
            }
            Request::MemFree { mut ptr } => {
                if ptr.0 >= STREAM_VIRT_BASE {
                    // Stream-virtual frees must name a region base exactly.
                    let Some(i) = session.regions.iter().position(|r| r.virt == ptr.0) else {
                        return Step::Answer(Response::err(Status::InvalidPointer));
                    };
                    ptr = session.regions.swap_remove(i).real;
                }
                Step::Run(Call::Free(ptr), Wait::Answer)
            }
            Request::MemSet { ptr, len, byte } => match session.resolve(ptr) {
                Err(st) => Step::Answer(Response::err(st)),
                Ok(ptr) => Step::Run(Call::Set(ptr, len, byte), Wait::Answer),
            },
            // A rejected region's payload is already in flight: the call
            // drains it, so the next data phase pairs correctly.
            Request::MemCpyH2D { dst, len, protocol } => {
                h2d(from, data, protocol, session.region(dst, len))
            }
            Request::Restore { regions, block } => {
                let protocol = WireProtocol::Pipeline { block };
                h2d(from, data, protocol, session.regions(&regions))
            }
            Request::PeerRecv {
                dst,
                len,
                from: peer,
                block,
            } => {
                let (peer, protocol) = (Rank(peer as usize), WireProtocol::Pipeline { block });
                h2d(peer, ac_tags::PEER_DATA, protocol, session.region(dst, len))
            }
            Request::MemCpyD2H { src, len, protocol } => d2h(0, protocol, session.region(src, len)),
            Request::Snapshot { regions, block } => {
                let total = regions
                    .iter()
                    .fold(0u64, |sum, &(_, len)| sum.wrapping_add(len));
                d2h(
                    total,
                    WireProtocol::Pipeline { block },
                    session.regions(&regions),
                )
            }
            Request::PeerSend {
                src,
                len,
                peer,
                block,
            } => {
                let (peer, protocol) = (Rank(peer as usize), WireProtocol::Pipeline { block });
                let call = Call::D2H(peer, ac_tags::PEER_DATA, protocol, session.region(src, len));
                Step::Run(call, Wait::Answer)
            }
            Request::KernelCreate { name } if self.registry.contains(&name) => {
                session.kernel = Some(name);
                session.args.clear();
                Step::Answer(Response::ok())
            }
            Request::KernelSetArgs { args } => {
                session.args = args;
                Step::Answer(Response::ok())
            }
            Request::KernelRun { grid, block } => session.run(LaunchConfig { grid, block }),
            // Bind, then run: the session ends as after the three-call
            // path, so fused and legacy launches mix mid-session.
            Request::Launch {
                name,
                args,
                grid,
                block,
            } if self.registry.contains(&name) => {
                session.kernel = Some(name);
                session.args = args;
                session.run(LaunchConfig { grid, block })
            }
            Request::KernelCreate { .. } | Request::Launch { .. } => {
                Step::Answer(Response::err(Status::UnknownKernel))
            }
            Request::Ping => Step::Answer(Response::ok()),
            Request::Shutdown => {
                // Nothing staged may outlive the daemon.
                self.flush_all(fx);
                self.out
                    .post(from, self.job.reply, true, fx, Response::ok(), None);
                fx.push(Effect::Note(Note::Stop));
                Step::Done
            }
        }
    }

    /// A command's next step once its call returned `outcome`.
    fn then(&mut self, then: Wait, outcome: Outcome, fx: &mut Fx) -> Step {
        let value = match (then, outcome) {
            (Wait::Answer, Ok(value)) => value,
            (Wait::Map(virt, len), Ok(real)) => {
                let session = self.sessions.entry(self.job.from).or_default();
                let real = DevicePtr(real);
                session.regions.push(StreamRegion { virt, len, real });
                real.0
            }
            (Wait::Ready(value, protocol, regions), Ok(_)) => {
                let pinned = self.config.pinned_buffer;
                if !regions.iter().all(|&(_, len)| fits(pinned, protocol, len)) {
                    self.reply(Response::err(Status::Malformed), fx);
                    return Step::Done;
                }
                let (to, job) = (self.job.from, &self.job);
                let ready = Response {
                    status: Status::Ok,
                    value,
                };
                self.out.post(to, job.reply, true, fx, ready, None);
                return Step::Run(Call::D2H(to, job.data, protocol, regions), Wait::Streamed);
            }
            (Wait::Ready(..), Err(st)) => {
                self.reply(Response::err(st), fx);
                return Step::Done;
            }
            (Wait::Answer | Wait::Map(..), Err(st)) => return Step::Answer(Response::err(st)),
            _ => return Step::Done,
        };
        Step::Answer(Response {
            status: Status::Ok,
            value,
        })
    }
}

impl Job {
    fn new(from: Rank, arrived: SimTime) -> Self {
        Job {
            from,
            arrived,
            bytes: 0,
            what: What::Req(""),
            framed: None,
            epoch: 0,
            reply: ac_tags::RESPONSE,
            data: ac_tags::DATA,
            batch: None,
        }
    }
}

/// A pipelined transfer's blocks must fit a pinned buffer.
pub(super) fn fits(pinned_buffer: u64, protocol: WireProtocol, len: u64) -> bool {
    match protocol {
        WireProtocol::Pipeline { .. } => protocol.block_size(len) <= pinned_buffer,
        WireProtocol::Naive => true,
    }
}

/// True for operations whose bulk-data phase must be re-executed on a
/// replayed request (the front-end re-drives the data messages); all other
/// operations answer a replay from the dedupe cache without re-executing.
fn has_data_phase(req: &Request) -> bool {
    matches!(
        req,
        Request::MemCpyH2D { .. }
            | Request::MemCpyD2H { .. }
            | Request::PeerSend { .. }
            | Request::PeerRecv { .. }
            | Request::Snapshot { .. }
            | Request::Restore { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::AdmissionConfig;
    use crate::proto::StreamBatch;
    use dacc_vgpu::kernel::register_builtin_kernels;
    use proptest::prelude::*;

    const MAX_QUEUE: u32 = 4;

    /// What one request's reply must be.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Expect {
        /// Exactly one reply, with this status.
        Status(Status),
        /// Exactly one reply, neither fenced nor shed.
        Served,
        /// Exactly one reply, equal to the reply on this tag.
        SameAs(Tag),
        /// No reply: the frame expired undecoded.
        Nothing,
    }

    /// `run_daemon` without a simulator: every call succeeds at once, an
    /// allocation returns a fresh pointer, and sends land in `sent`
    /// unbundled.
    struct World {
        st: DaemonState,
        now: SimTime,
        fence: u64,
        fx: Fx,
        sent: Vec<(Rank, Tag, Bytes)>,
        next_ptr: u64,
    }

    impl World {
        fn new(batching: bool, record: bool) -> Self {
            let registry = KernelRegistry::new();
            register_builtin_kernels(&registry);
            let config = DaemonConfig {
                ctrl_batch: batching,
                admission: Some(AdmissionConfig {
                    max_queue: MAX_QUEUE,
                    ..AdmissionConfig::default()
                }),
                ..DaemonConfig::default()
            };
            World {
                st: DaemonState::new(config, registry),
                now: SimTime::ZERO,
                fence: 1,
                fx: Fx::new(record),
                sent: Vec::new(),
                next_ptr: 1 << 12,
            }
        }

        /// Perform the effects like the driver; the calls run.
        fn perform(&mut self) -> usize {
            let mut runs = 0;
            loop {
                let mut outcome = None;
                for effect in self.fx.drain() {
                    match effect {
                        Effect::Send(to, tag, bytes) if tag == ac_tags::CTRL => {
                            let batch = ControlBatch::decode(&bytes).unwrap();
                            let each = batch.entries.into_iter();
                            self.sent.extend(each.map(|(tag, b)| (to, Tag(tag), b)));
                        }
                        Effect::Send(to, tag, bytes) => self.sent.push((to, tag, bytes)),
                        Effect::Run(Call::Stall) => outcome = Some(Ok(0)),
                        Effect::Delay(d) => {
                            self.now += d;
                            outcome = Some(Ok(0));
                        }
                        Effect::Run(call) => {
                            runs += 1;
                            self.next_ptr += 1 << 12;
                            let ptr = matches!(call, Call::Alloc(_)).then_some(self.next_ptr);
                            outcome = Some(Ok(ptr.unwrap_or(0)));
                        }
                        _ => {}
                    }
                }
                let Some(outcome) = outcome else {
                    return runs;
                };
                (self.st).finish(self.now, self.fence, outcome, &mut self.fx);
            }
        }

        /// Close a service window, as the driver's loop does before each
        /// frame, and check the staging bound.
        fn tick(&mut self) {
            self.st.tick(&mut self.fx);
            self.perform();
            let out = &self.st.out;
            for s in out.staged.values() {
                prop_assert!(out.window - s.last_append < CTRL_STAGE_MAX_AGE);
                prop_assert!(s.entries.len() < CTRL_BATCH_MAX);
            }
        }

        /// Serve one frame; the number of calls it ran.
        fn serve(&mut self, from: Rank, frame: Vec<u8>) -> usize {
            let raised = self.fence > self.st.fence;
            let frame = Payload::from_bytes(Bytes::from(frame));
            (self.st).apply(self.now, self.fence, from, frame, &mut self.fx);
            if raised {
                prop_assert!(self.st.sessions.is_empty() && self.st.completed.is_empty());
            }
            self.perform()
        }
    }

    fn decode(tag: Tag, bytes: &Bytes) -> Response {
        if tag.0 & 0xF000_0000 == 0xC000_0000 {
            let ack = StreamAck::decode(bytes).unwrap();
            return Response {
                status: ack.status,
                value: ack.value,
            };
        }
        Response::decode(bytes).unwrap()
    }

    fn request(kind: u8, ptr: u64) -> Request {
        let ptr = DevicePtr(ptr);
        match kind % 7 {
            0 => Request::MemAlloc { len: 64 },
            1 => Request::MemSet {
                ptr,
                len: 8,
                byte: 7,
            },
            2 => Request::Ping,
            3 => Request::Launch {
                name: "fill_f64".into(),
                args: vec![KernelArg::Ptr(ptr), KernelArg::U64(8), KernelArg::F64(1.0)],
                grid: (1, 1, 1),
                block: (8, 1, 1),
            },
            4 => Request::KernelCreate {
                name: "no_such_kernel".into(),
            },
            5 => Request::MemCpyD2H {
                src: ptr,
                len: 16,
                protocol: WireProtocol::Naive,
            },
            _ => Request::MemCpyH2D {
                dst: ptr,
                len: 0,
                protocol: WireProtocol::Naive,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random bare and framed requests, replays of a client's last op,
        /// fence raises with stale and current epochs, stream batches,
        /// admission bursts with deadlines, and idle windows, through
        /// `apply`/`finish` with no simulator. Stale work runs nothing and
        /// is answered `StaleEpoch`; a replayed non-data op runs nothing
        /// and gets its first answer again; a raise empties the sessions
        /// and the dedupe cache; admission keeps at most `max_queue` and
        /// answers each shed frame once with `Overloaded`; every frame
        /// kept is served; every staged reply leaves within the staging
        /// bound, at idle or at the end; and the sends are byte-identical
        /// with and without recording.
        #[test]
        fn apply_matches_the_reference_model(
            batching in any::<bool>(),
            record in any::<bool>(),
            steps in proptest::collection::vec((0u8..12, 0usize..3, 0u8..3, any::<u8>(), any::<bool>()), 1..60)
        ) {
            let sent = model_run(batching, record, &steps);
            prop_assert_eq!(sent, model_run(batching, !record, &steps));
        }
    }

    /// One run of the reference-model test: its sends, unbundled.
    fn model_run(
        batching: bool,
        record: bool,
        steps: &[(u8, usize, u8, u8, bool)],
    ) -> Vec<(Rank, Tag, Bytes)> {
        let mut w = World::new(batching, record);
        let mut expect: HashMap<(Rank, Tag), Expect> = HashMap::new();
        // Per client: the last framed request sent, and the op id the
        // daemon's dedupe cache holds.
        let mut last: HashMap<Rank, (u64, u32, u64, Request)> = HashMap::new();
        let mut cached: HashMap<Rank, (u64, Tag)> = HashMap::new();
        let (mut op_id, mut bare, mut stream) = (0u64, 0usize, 0u32);
        // A fresh attempt whose reply tag no earlier request used.
        let unique = |expect: &HashMap<(Rank, Tag), Expect>, from, op, mut attempt: u32| {
            while expect.contains_key(&(from, ac_tags::response_tag(op, attempt))) {
                attempt += 1;
            }
            attempt
        };
        for &(kind, client, pick, arg, flag) in steps {
            let from = Rank(10 + client);
            let epoch = match pick {
                0 => 0,
                1 => w.fence - 1,
                _ => w.fence,
            };
            let stale = epoch != 0 && epoch < w.fence;
            w.tick();
            match kind {
                0..=7 => {
                    let replay = kind == 7;
                    let (op, attempt, epoch, req) = match last.get(&from) {
                        Some((op, attempt, _, req)) if replay => {
                            (*op, attempt + 1, epoch, req.clone())
                        }
                        _ if replay => continue,
                        _ => {
                            op_id += 1;
                            (op_id, 0, epoch, request(kind, w.next_ptr))
                        }
                    };
                    if !flag && !replay {
                        // A bare request: never fenced, never deduplicated.
                        bare += 1;
                        w.serve(from, req.encode());
                        continue;
                    }
                    let attempt = unique(&expect, from, op, attempt);
                    let tag = ac_tags::response_tag(op, attempt);
                    last.insert(from, (op, attempt, epoch, req.clone()));
                    let data = has_data_phase(&req);
                    let dedupe = cached
                        .get(&from)
                        .filter(|&&(c, _)| replay && c == op && !data);
                    let frame = RequestFrame {
                        op_id: op,
                        attempt,
                        epoch,
                        deadline: None,
                        req: req.clone(),
                    };
                    let runs = w.serve(from, frame.encode());
                    if stale {
                        prop_assert_eq!(runs, 0);
                        expect.insert((from, tag), Expect::Status(Status::StaleEpoch));
                    } else if let Some(&(_, first)) = dedupe {
                        prop_assert_eq!(runs, 0);
                        expect.insert((from, tag), Expect::SameAs(first));
                    } else {
                        expect.insert((from, tag), Expect::Served);
                        if !matches!(req, Request::MemCpyD2H { .. }) {
                            cached.insert(from, (op, tag));
                        }
                    }
                }
                8 => {
                    stream += 1;
                    let n = 1 + arg as usize % 4;
                    let cmds = (0..n)
                        .map(|i| request([0, 2, 4][(i + arg as usize) % 3], 0))
                        .collect();
                    let batch = StreamBatch {
                        stream,
                        first_seq: 5,
                        epoch,
                        cmds,
                    };
                    let runs = w.serve(from, batch.encode());
                    let tag = ac_tags::stream_ack_tag(stream);
                    if stale {
                        prop_assert_eq!(runs, 0);
                        expect.insert((from, tag), Expect::Status(Status::StaleEpoch));
                    } else {
                        expect.insert((from, tag), Expect::Served);
                    }
                }
                9 => {
                    // The next frame resets every session and the cache.
                    w.fence += 1;
                    cached.clear();
                }
                10 => {
                    // An admission burst: some frames already expired.
                    for i in 0..1 + arg as usize % 8 {
                        op_id += 1;
                        let from = Rank(10 + (client + i) % 3);
                        let expired = (i + arg as usize).is_multiple_of(3);
                        let now = w.now.as_nanos();
                        let deadline = Some(if expired { now } else { now + 1_000_000 });
                        let frame = RequestFrame {
                            op_id,
                            attempt: 0,
                            epoch: 0,
                            deadline,
                            req: Request::Ping,
                        };
                        let tag = ac_tags::response_tag(op_id, 0);
                        expect.insert(
                            (from, tag),
                            if expired {
                                Expect::Nothing
                            } else {
                                Expect::Served
                            },
                        );
                        let env = Envelope {
                            src: from,
                            tag: ac_tags::REQUEST,
                            payload: Payload::from_vec(frame.encode()),
                        };
                        w.st.runq.push_back(env);
                    }
                    let before = w.sent.len();
                    w.st.admit(w.now, &mut w.fx);
                    w.perform();
                    prop_assert!(w.st.runq.len() <= MAX_QUEUE as usize);
                    for (to, tag, bytes) in &w.sent[before..] {
                        prop_assert_eq!(decode(*tag, bytes).status, Status::Overloaded);
                        prop_assert_eq!(
                            expect.insert((*to, *tag), Expect::Status(Status::Overloaded)),
                            Some(Expect::Served)
                        );
                    }
                    while let Some(env) = w.st.runq.pop_front() {
                        let bytes = env.payload.to_bytes();
                        if let Some((op, attempt)) = RequestFrame::peek_reject_ids(&bytes) {
                            cached.insert(env.src, (op, ac_tags::response_tag(op, attempt)));
                        }
                        w.tick();
                        w.serve(env.src, bytes.to_vec());
                    }
                }
                _ => {
                    // The queue went idle: the batching window closes.
                    w.st.flush_all(&mut w.fx);
                    w.perform();
                    prop_assert!(w.st.out.staged.is_empty());
                }
            }
        }
        w.st.flush_all(&mut w.fx);
        w.perform();
        let mut replies: HashMap<(Rank, Tag), Vec<Response>> = HashMap::new();
        for (to, tag, bytes) in &w.sent {
            replies
                .entry((*to, *tag))
                .or_default()
                .push(decode(*tag, bytes));
        }
        let bare_replies = replies.remove_entry_by_tag(ac_tags::RESPONSE);
        prop_assert_eq!(bare_replies, bare);
        for (key, want) in &expect {
            let got = replies.get(key).map_or(&[][..], |r| &r[..]);
            match *want {
                Expect::Nothing => prop_assert!(got.is_empty()),
                Expect::Status(status) => {
                    prop_assert_eq!(got.len(), 1);
                    prop_assert_eq!(got[0].status, status);
                }
                Expect::Served => {
                    prop_assert_eq!(got.len(), 1);
                    prop_assert!(!matches!(
                        got[0].status,
                        Status::StaleEpoch | Status::Overloaded
                    ));
                }
                Expect::SameAs(first) => {
                    prop_assert_eq!(got.len(), 1);
                    prop_assert_eq!(
                        Some(&got[0]),
                        replies.get(&(key.0, first)).and_then(|r| r.first())
                    );
                }
            }
        }
        prop_assert_eq!(
            replies.len(),
            expect.values().filter(|e| **e != Expect::Nothing).count()
        );
        w.sent
    }

    trait ByTag {
        fn remove_entry_by_tag(&mut self, tag: Tag) -> usize;
    }

    impl ByTag for HashMap<(Rank, Tag), Vec<Response>> {
        /// Drop every reply on `tag`, returning how many there were.
        fn remove_entry_by_tag(&mut self, tag: Tag) -> usize {
            let keys: Vec<_> = self.keys().filter(|k| k.1 == tag).copied().collect();
            keys.iter()
                .map(|k| self.remove(k).map_or(0, |r| r.len()))
                .sum()
        }
    }
}
