//! The block train (§III–IV, Fig. 4): the one routine that moves the data
//! of a copy, at either end of the wire.
//!
//! A transfer is cut into blocks that flow one way. Each block goes through
//! the same stages, in block order where the stages are serial:
//!
//! 1. **admission** — a buffer of the pinned ring (a [`PinnedPool`] slot;
//!    back-pressure when the ring is full), or a place in the window of
//!    sends in flight;
//! 2. **source** — the block's receive is posted (up to `prepost` ahead of
//!    the CPU), or the copy engine reads it from the device, or it is
//!    sliced from the host payload;
//! 3. **CPU** — serial on the owner's CPU: the per-block cost (and the
//!    staging copy without GPUDirect), then the checksum of what came in is
//!    verified; what goes out is sealed when the fabric puts it on the wire
//!    (the [`Finish`] of its send), so the receiver opens each block
//!    within a few events of its seal, while its bytes are in cache;
//! 4. **sink** — the copy engine writes it to the device, or it is sent, or
//!    it lands in the host buffer; the pinned slot is freed when the sink is
//!    done.
//!
//! A block is a *record* in the train, not a task: every stage is advanced
//! from the completion of the one before — a pool grant, a receive's or
//! send's completion ([`Endpoint::irecv_then`], [`Endpoint::isend_then`]),
//! the end of a copy ([`VirtualGpu::memcpy_h2d_then`]), a calendar call for
//! a CPU charge. Nothing spawns, arms a `Timer` or polls per block; the task
//! that starts a train awaits it once ([`Train`] is a future).
//!
//! **Same-instant order.** The train replaces a loop task plus a task per
//! pipelined block, and must make every virtual-time decision in the order
//! those tasks did. The calendar only pops once no task is ready, so what
//! the loop task did in the poll after a wake happens here at the end of
//! the call that completed the stage. And where the loop handed a block's
//! sink to a fresh task and carried on — posting the next receive (its
//! clear-to-send) or issuing the next device read — that task only ran once
//! the loop parked: here, a block's sink waits in `deferred` and starts when
//! the train next waits. A per-block deadline is a withdrawable calendar
//! call, armed and withdrawn exactly where the task's timer was.
//!
//! **Ownership.** A train is owned by the future that awaits it. Whatever
//! waits for a pool slot, a copy engine, a message or a calendar call holds
//! it weakly, so no `Rc` cycle runs through the endpoint, the pool or the
//! device: a train dropped unfinished (with its `Sim`, say) is freed on the
//! spot, and its pending stages find nobody when they complete.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use dacc_fabric::mpi::{Endpoint, Envelope, Finish, Rank, Tag};
use dacc_fabric::payload::Payload;
use dacc_sim::prelude::*;
use dacc_sim::slab::Slab;
use dacc_telemetry::Telemetry;
use dacc_vgpu::device::{GpuError, HostMemKind, VirtualGpu};
use dacc_vgpu::memory::DevicePtr;
use dacc_vgpu::pinned::PinnedPool;

use crate::daemon::status_of_gpu_error;
use crate::proto::{open_block, seal_block, Status, WireProtocol, CRC_TRAILER_BYTES};

/// Where a train's blocks come from.
pub(crate) enum Source {
    /// Received from `from` on `tag`.
    Wire { ep: Endpoint, from: Rank, tag: Tag },
    /// Read from device memory starting at `ptr`.
    Device { gpu: VirtualGpu, ptr: DevicePtr },
    /// Sliced from host payloads, one per region.
    Host(Vec<Payload>),
}

/// Where a train's blocks go.
pub(crate) enum Sink {
    /// Sent to `to` on `tag`.
    Wire { ep: Endpoint, to: Rank, tag: Tag },
    /// Written to device memory starting at `ptr`.
    Device { gpu: VirtualGpu, ptr: DevicePtr },
    /// Landed in host memory, one payload per region (the train's output).
    Host,
}

/// One train's parameters.
pub(crate) struct Spec {
    /// Length of each region (a transfer is one region; a snapshot or a
    /// restore moves several back to back).
    pub regions: Vec<u64>,
    /// Cuts a region into blocks; `Naive` is one block per region (and
    /// names the spans so).
    pub protocol: WireProtocol,
    /// Blocks whose source may be started ahead of the CPU.
    pub prepost: usize,
    /// Blocks admitted and not yet through their sink, at most.
    pub window: usize,
    /// Longest wait for each block at the wire end: a receive not complete
    /// in time, or a send not cleared in time.
    pub deadline: Option<SimDuration>,
    /// The pinned ring, when blocks occupy one of its buffers from
    /// admission to the end of their sink.
    pub pool: Option<PinnedPool>,
    /// Serial CPU time per block.
    pub cost: SimDuration,
    /// The daemon's train: it records the daemon's per-block spans
    /// (`daemon.recv_block`, `daemon.dma`, `daemon.send_block`), a damaged
    /// block is received and dropped and reported at the end (the channel
    /// stays clean), and a send given up on is ignored; only a lost inbound
    /// block ends it early. The front-end's train ends at the first lost or
    /// damaged block, or send given up on.
    pub daemon: bool,
}

/// What a block's source delivered.
enum Arrival {
    Pending,
    In(Payload),
    /// The wire end's deadline passed first.
    Lost,
}

/// One block, a record in the train's slab from admission to the end of its
/// sink; the train's queues hold its place there.
struct Block {
    /// Its number in the train: what a token checks its place against (a
    /// place is reused once the block is done).
    index: u64,
    region: usize,
    offset: u64,
    len: u64,
    /// The last block of its region.
    last: bool,
    /// When its current stage started: its source, then its sink.
    started: SimTime,
    /// Its buffer of the pinned ring, if the train has one.
    slot: Option<ResourceGuard>,
    data: Arrival,
}

/// The block the CPU is working on.
struct Cpu {
    block: u32,
    /// Charges left before the checksum, in order.
    before: [SimDuration; 2],
}

/// The next block to admit.
#[derive(Clone, Copy)]
struct Cursor {
    index: u64,
    region: usize,
    offset: u64,
}

/// A decision taken under the state's borrow, carried out after it: every
/// one of these may complete something synchronously and re-enter.
enum Step {
    /// Ask the pinned ring for a buffer of `len` bytes.
    Acquire(u64),
    /// Start the source of the block at `offset`, `len` bytes long, which
    /// `token` names.
    Source(u64, u64, u64),
    Charge(SimDuration),
    /// Nothing can move until something completes.
    Wait,
    /// Drop this slot, if any (outside the borrow: a release grants the
    /// next waiter on the spot), then look again.
    Free(Option<ResourceGuard>),
}

/// What a train is, fixed when it starts: read without borrowing its state,
/// so the calls that may re-enter the train need no clone of it.
struct Ends {
    handle: SimHandle,
    tele: Telemetry,
    spec: Spec,
    source: Source,
    sink: Sink,
}

struct Shared {
    ends: Ends,
    st: RefCell<State>,
}

/// How a request names its block: its place in the slab, and its number
/// (a place is reused once its block is done).
fn token(block: u32, index: u64) -> u64 {
    (index << 32) | u64::from(block)
}

fn block_of(token: u64) -> (u32, u64) {
    (token as u32, token >> 32)
}

/// The train is the record that its pool, its copy engine, its endpoint and
/// the calendar tell, by token, when a block's stage completes; they hold it
/// weakly. No stage of a block costs an allocation of its own.
impl Shared {
    /// `f` on the train, then move it.
    fn fire(self: Rc<Self>, f: impl FnOnce(&mut State, &Ends)) {
        f(&mut self.st.borrow_mut(), &self.ends);
        advance(&self);
    }

    /// The sink of the block is done: its buffer is freed first (which may
    /// admit the next block on the spot), then the sink is accounted for.
    fn sunk(self: Rc<Self>, token: u64, outcome: Sunk) {
        let (block, index) = block_of(token);
        let slot = self
            .st
            .borrow_mut()
            .block(block, index)
            .and_then(|b| b.slot.take());
        // The block stays in `sinks` until it is accounted for: a train that
        // the freed buffer moves on must not finish before its outcome.
        drop(slot);
        self.st.borrow_mut().sunk(&self.ends, block, index, outcome);
        advance(&self);
    }
}

/// How a sink ended.
enum Sunk {
    Copied(Result<(), GpuError>),
    Sent(bool),
}

/// A CPU charge is over.
impl Complete<()> for Shared {
    fn complete(self: Rc<Self>, _: u64, (): ()) {
        self.fire(|st, _| st.charging = false);
    }
}

/// A buffer of the ring is the train's.
impl Complete<Granted> for Shared {
    fn complete(self: Rc<Self>, _: u64, _: Granted) {
        self.fire(|st, e| {
            let pool = e.spec.pool.as_ref().expect("admission asks a pool");
            st.admitting = false;
            st.granted = Some(pool.held());
        });
    }
}

impl Complete<Option<Envelope>> for Shared {
    fn complete(self: Rc<Self>, token: u64, env: Option<Envelope>) {
        let data = env.map_or(Arrival::Lost, |env| Arrival::In(env.payload));
        self.fire(|st, e| st.arrived(e, token, data));
    }
}

impl Complete<Result<Payload, GpuError>> for Shared {
    fn complete(self: Rc<Self>, token: u64, read: Result<Payload, GpuError>) {
        let data = Arrival::In(read.expect("validated before streaming"));
        self.fire(|st, e| st.arrived(e, token, data));
    }
}

impl Complete<bool> for Shared {
    fn complete(self: Rc<Self>, token: u64, sent: bool) {
        self.sunk(token, Sunk::Sent(sent));
    }
}

impl Complete<Result<(), GpuError>> for Shared {
    fn complete(self: Rc<Self>, token: u64, written: Result<(), GpuError>) {
        self.sunk(token, Sunk::Copied(written));
    }
}

struct State {
    next: Cursor,
    /// Every admitted block not yet through its sink.
    blocks: Slab<Block>,
    /// Admitted blocks not yet taken by the CPU, in order.
    queue: VecDeque<u32>,
    /// A slot was asked for and not granted yet.
    admitting: bool,
    granted: Option<ResourceGuard>,
    cpu: Option<Cpu>,
    /// A CPU charge is running.
    charging: bool,
    /// Blocks whose sink starts when the train next waits.
    deferred: VecDeque<u32>,
    /// Blocks in their sink.
    sinks: VecDeque<u32>,
    /// No more blocks are admitted.
    stopped: bool,
    /// Slots of the blocks abandoned by a stop, freed one per step.
    freeing: VecDeque<ResourceGuard>,
    failure: Option<Status>,
    out: Vec<Payload>,
    /// The segments of the blocks of the region landing now.
    landed: Vec<Bytes>,
    /// `advance` is on the stack; `again` asks it to look once more.
    running: bool,
    again: bool,
    outcome: Option<Result<Vec<Payload>, Status>>,
    finished: bool,
    waker: Option<Waker>,
}

/// A train in motion, and the future of its outcome: the host payloads it
/// landed (one per region; empty unless the sink is [`Sink::Host`]), or the
/// first failure — [`Status::Timeout`] for a lost block (which overrides
/// any other), [`Status::Corrupt`], or the device's error.
pub(crate) struct Train(Rc<Shared>);

impl Train {
    /// Start moving `spec.regions` from `source` to `sink`; blocks are
    /// admitted and their sources started before this returns.
    pub(crate) fn start(handle: &SimHandle, spec: Spec, source: Source, sink: Sink) -> Train {
        let ep = match (&source, &sink) {
            (Source::Wire { ep, .. }, _) | (_, Sink::Wire { ep, .. }) => ep,
            _ => unreachable!("a train has one end on the wire"),
        };
        let tele = ep.fabric().telemetry();
        let out = vec![Payload::empty(); spec.regions.len()];
        // Sized once: blocks between the CPU and the end of their sink, at
        // most the window, the ring, or the whole transfer (none for a
        // landing, which is on the spot).
        let blocks: u64 = spec
            .regions
            .iter()
            .map(|&len| spec.protocol.block_count(len))
            .sum();
        let ring = spec.pool.as_ref().map_or(usize::MAX, PinnedPool::depth);
        let held = match sink {
            Sink::Host => 0,
            Sink::Wire { .. } | Sink::Device { .. } => spec.window.min(ring).min(blocks as usize),
        };
        // Admitted and not yet at the CPU, at most `prepost` of them.
        let ahead = spec.prepost.min(blocks as usize);
        let shared = Rc::new(Shared {
            ends: Ends {
                handle: handle.clone(),
                tele,
                spec,
                source,
                sink,
            },
            st: RefCell::new(State {
                next: Cursor {
                    index: 0,
                    region: 0,
                    offset: 0,
                },
                blocks: Slab::with_capacity(ahead + 1 + held),
                queue: VecDeque::with_capacity(ahead),
                admitting: false,
                granted: None,
                cpu: None,
                charging: false,
                deferred: VecDeque::with_capacity(held),
                sinks: VecDeque::with_capacity(held),
                stopped: false,
                freeing: VecDeque::new(),
                failure: None,
                out,
                landed: Vec::new(),
                running: false,
                again: false,
                outcome: None,
                finished: false,
                waker: None,
            }),
        });
        #[cfg(test)]
        tests::LIVE.with(|live| live.borrow_mut().push(Rc::downgrade(&shared)));
        advance(&shared);
        Train(shared)
    }
}

impl Future for Train {
    type Output = Result<Vec<Payload>, Status>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.0.st.borrow_mut();
        match st.outcome.take() {
            Some(outcome) => Poll::Ready(outcome),
            None => {
                assert!(!st.finished, "a train is awaited once");
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl Ends {
    /// How a block is named in spans and traces.
    fn name(&self, b: &Block) -> String {
        match self.spec.protocol {
            WireProtocol::Naive => format!("naive {}B", b.len),
            WireProtocol::Pipeline { .. } => format!("block @{} ({}B)", b.offset, b.len),
        }
    }

    /// Record one of the daemon's per-block spans, from `b.started` to now.
    fn span(&self, category: &'static str, b: &Block, what: impl std::fmt::Display) {
        if self.spec.daemon {
            let label = || format!("{} {what}", self.name(b));
            let now = self.handle.now();
            self.tele
                .span_at(category, label, b.started, now, Some(b.len), None);
        }
    }

    fn staging(&self, len: u64) -> SimDuration {
        self.spec
            .pool
            .as_ref()
            .map_or(SimDuration::ZERO, |p| p.staging_cost(len))
    }
}

impl State {
    /// Block `index`, if it is still in place `block`.
    fn block(&mut self, block: u32, index: u64) -> Option<&mut Block> {
        self.blocks.get_mut(block).filter(|b| b.index == index)
    }

    fn fail(&mut self, status: Status) {
        if status == Status::Timeout || self.failure.is_none() {
            self.failure = Some(status);
        }
    }

    /// Length of the block the admission cursor points at.
    fn next_len(&self, e: &Ends) -> u64 {
        let Cursor { region, offset, .. } = self.next;
        let total = e.spec.regions[region];
        e.spec.protocol.block_size(total).min(total - offset)
    }

    /// Advance the admission cursor; returns the place of the block it
    /// pointed at (its slot and source still to come).
    fn take_next(&mut self, e: &Ends) -> u32 {
        let Cursor {
            index,
            region,
            offset,
        } = self.next;
        let len = self.next_len(e);
        let last = offset + len == e.spec.regions[region];
        self.next = Cursor {
            index: index + 1,
            region: if last { region + 1 } else { region },
            offset: if last { 0 } else { offset + len },
        };
        self.blocks.insert(Block {
            index,
            region,
            offset,
            len,
            last,
            started: e.handle.now(),
            slot: None,
            data: Arrival::Pending,
        })
    }

    /// Skip regions with nothing to move.
    fn exhausted(&mut self, e: &Ends) -> bool {
        let regions = &e.spec.regions;
        while self.next.region < regions.len() && regions[self.next.region] == 0 {
            self.next.region += 1;
        }
        self.next.region == regions.len()
    }

    fn may_admit(&mut self, e: &Ends) -> bool {
        let unsunk = self.queue.len() + self.deferred.len() + self.sinks.len();
        !self.stopped
            && !self.exhausted(e)
            && self.queue.len() < e.spec.prepost
            && unsunk < e.spec.window
    }

    /// The one decision function: what moves next, given everything.
    fn step(&mut self, e: &Ends) -> Step {
        if let Some(slot) = self.freeing.pop_front() {
            return Step::Free(Some(slot));
        }
        if self.finished || self.charging {
            return Step::Wait;
        }
        if let Some(cpu) = &mut self.cpu {
            if let Some(i) = cpu.before.iter().position(|d| !d.is_zero()) {
                let d = std::mem::take(&mut cpu.before[i]);
                self.charging = true;
                return Step::Charge(d);
            }
            let cpu = self.cpu.take().expect("checked above");
            return self.checksum(e, cpu.block);
        }
        if self.admitting {
            return Step::Wait;
        }
        // The loop's top: admit up to `prepost` blocks ahead.
        if let Some(slot) = self.granted.take() {
            if self.stopped {
                return Step::Free(Some(slot));
            }
            let block = self.take_next(e);
            self.blocks[block].slot = Some(slot);
            return self.source(e, block);
        }
        if self.may_admit(e) {
            if e.spec.pool.is_some() {
                self.admitting = true;
                return Step::Acquire(self.next_len(e));
            }
            let block = self.take_next(e);
            return self.source(e, block);
        }
        // The CPU takes the head once its source is done.
        match self.queue.front().map(|&b| &self.blocks[b].data) {
            Some(Arrival::Pending) => Step::Wait,
            Some(Arrival::Lost) => {
                let head = self.queue.pop_front().expect("checked above");
                let head = self.blocks.take(head).expect("a queued block is in place");
                self.fail(Status::Timeout);
                self.stop(head.slot)
            }
            Some(Arrival::In(_)) => {
                let block = self.queue.pop_front().expect("checked above");
                self.begin(e, block)
            }
            None => {
                let idle = self.deferred.is_empty() && self.sinks.is_empty();
                if idle && (self.stopped || self.exhausted(e)) {
                    self.finish();
                }
                Step::Wait
            }
        }
    }

    /// Stop admitting; abandon what was admitted and not yet at the CPU.
    /// `slot` is freed first, then theirs, before anything else moves.
    fn stop(&mut self, slot: Option<ResourceGuard>) -> Step {
        self.stopped = true;
        for block in std::mem::take(&mut self.queue) {
            let abandoned = self.blocks.take(block).and_then(|b| b.slot);
            self.freeing.extend(abandoned);
        }
        Step::Free(slot)
    }

    /// Start the source of the block in place `block`; blocks sliced from
    /// the host have theirs at once.
    fn source(&mut self, e: &Ends, block: u32) -> Step {
        let b = &mut self.blocks[block];
        b.started = e.handle.now();
        let (index, offset, len) = (b.index, b.offset, b.len);
        let sliced = match &e.source {
            Source::Host(parts) => Some(parts[b.region].slice(offset, len)),
            Source::Wire { .. } | Source::Device { .. } => None,
        };
        let started = sliced.is_none();
        if let Some(data) = sliced {
            b.data = Arrival::In(data);
        }
        self.queue.push_back(block);
        if started {
            Step::Source(offset, len, token(block, index))
        } else {
            Step::Free(None)
        }
    }

    /// The CPU takes the block in place `block`.
    fn begin(&mut self, e: &Ends, block: u32) -> Step {
        let b = &self.blocks[block];
        let before = match &e.source {
            Source::Wire { from, .. } => {
                e.span("daemon.recv_block", b, format_args!("from {from}"));
                [e.spec.cost, SimDuration::ZERO]
            }
            // The staging copy out of the device's buffer comes first.
            Source::Device { .. } => [e.staging(b.len), e.spec.cost],
            Source::Host(_) => [e.spec.cost, SimDuration::ZERO],
        };
        self.cpu = Some(Cpu { block, before });
        Step::Free(None)
    }

    /// The CPU's charges are paid: verify what came in (what goes out is
    /// counted here and sealed on the wire), then land the block or hand it
    /// to its sink.
    fn checksum(&mut self, e: &Ends, block: u32) -> Step {
        let b = &mut self.blocks[block];
        let Arrival::In(data) = std::mem::replace(&mut b.data, Arrival::Pending) else {
            unreachable!("the CPU only takes blocks whose source is done");
        };
        let data = match (&e.source, &e.sink) {
            (Source::Wire { from, .. }, _) => {
                e.tele.count("wire.crc_bytes", data.len());
                match open_block(&data) {
                    Ok(body) => body,
                    Err(_) => {
                        let b = self
                            .blocks
                            .take(block)
                            .expect("the CPU's block is in place");
                        if e.spec.daemon {
                            e.tele.count("daemon.corrupt_blocks", 1);
                            let label = || format!("{} from {from} failed CRC", e.name(&b));
                            e.tele.instant(&e.handle, "daemon.corrupt", label);
                        }
                        self.fail(Status::Corrupt);
                        if e.spec.daemon {
                            return Step::Free(b.slot);
                        }
                        return self.stop(b.slot);
                    }
                }
            }
            (_, Sink::Wire { .. }) => {
                e.tele
                    .count("wire.crc_bytes", data.len() + CRC_TRAILER_BYTES);
                data
            }
            _ => data,
        };
        if let Sink::Host = e.sink {
            let b = self
                .blocks
                .take(block)
                .expect("the CPU's block is in place");
            self.land(e, &b, data);
            return Step::Free(b.slot);
        }
        // Without GPUDirect the staging copy into the DMA buffer holds the
        // CPU after the copy is posted.
        let b = &mut self.blocks[block];
        let staging = match e.sink {
            Sink::Device { .. } => e.staging(b.len),
            _ => SimDuration::ZERO,
        };
        b.data = Arrival::In(data);
        self.deferred.push_back(block);
        if staging.is_zero() {
            return Step::Free(None);
        }
        self.charging = true;
        Step::Charge(staging)
    }

    /// Land a verified block in its region's host payload. A region of one
    /// block is its verified body as it came; the segments of several are
    /// joined by [`Payload::chain`] when the last lands, so the blocks of one
    /// device read, views of one buffer, come back as one view: no copy.
    fn land(&mut self, e: &Ends, block: &Block, body: Payload) {
        let (region, len) = (block.region, e.spec.regions[block.region]);
        if block.offset == 0 && block.last && !matches!(body, Payload::Chain(_)) {
            self.out[region] = body;
            return;
        } else if block.offset == 0 && body.is_functional() {
            let blocks = e.spec.protocol.block_count(len);
            self.landed.reserve_exact(blocks as usize);
        }
        self.landed.extend_from_slice(body.segments());
        if block.last {
            let segs = std::mem::take(&mut self.landed);
            self.out[region] = match body {
                Payload::Size(_) => Payload::size_only(len),
                _ => Payload::Bytes(Payload::chain(segs).to_bytes()),
            };
        }
    }

    /// Take the next deferred block into its sink: its data and offset, and
    /// the token the sink is to tell back.
    fn next_sink(&mut self, e: &Ends) -> Option<(Payload, u64, u64)> {
        let block = self.deferred.pop_front()?;
        let b = &mut self.blocks[block];
        let Arrival::In(data) = std::mem::replace(&mut b.data, Arrival::Pending) else {
            unreachable!("a sink starts with the block's data");
        };
        b.started = e.handle.now();
        let (offset, index) = (b.offset, b.index);
        self.sinks.push_back(block);
        Some((data, offset, token(block, index)))
    }

    /// Block `index`'s sink ended (its buffer is back already).
    fn sunk(&mut self, e: &Ends, block: u32, index: u64, outcome: Sunk) {
        let Some(at) = self.sinks.iter().position(|&b| b == block) else {
            return;
        };
        if self.block(block, index).is_none() {
            return;
        }
        self.sinks.remove(at);
        let b = self.blocks.take(block).expect("checked above");
        match outcome {
            Sunk::Copied(written) => {
                e.span("daemon.dma", &b, "h2d");
                if let Err(err) = written {
                    self.fail(status_of_gpu_error(&err));
                }
            }
            Sunk::Sent(sent) => {
                if let Sink::Wire { to, .. } = e.sink {
                    e.span("daemon.send_block", &b, format_args!("to {to}"));
                }
                if !sent && !e.spec.daemon {
                    self.fail(Status::Timeout);
                    self.stopped = true;
                }
            }
        }
    }

    fn finish(&mut self) {
        self.finished = true;
        self.outcome = Some(match self.failure {
            Some(status) => Err(status),
            None => Ok(std::mem::take(&mut self.out)),
        });
        if let Some(waker) = self.waker.take() {
            waker.wake();
        }
    }

    /// The source of the block `token` names delivered (or its deadline
    /// passed).
    fn arrived(&mut self, e: &Ends, token: u64, data: Arrival) {
        let (block, index) = block_of(token);
        let Some(b) = self.block(block, index) else {
            return;
        };
        if let (Source::Device { .. }, Arrival::In(_)) = (&e.source, &data) {
            e.span("daemon.dma", b, "d2h");
        }
        b.data = data;
    }
}

/// Move the train as far as it goes now. Re-entrant: a stage completed
/// synchronously from inside a step asks the running call to look again.
fn advance(this: &Rc<Shared>) {
    {
        let mut st = this.st.borrow_mut();
        if st.running {
            st.again = true;
            return;
        }
        st.running = true;
    }
    let e = &this.ends;
    loop {
        let step = this.st.borrow_mut().step(e);
        match step {
            Step::Free(slot) => drop(slot),
            Step::Acquire(len) => {
                let pool = e.spec.pool.as_ref().expect("admission asks a pool");
                pool.acquire_for(len, this, 0);
            }
            Step::Source(offset, len, token) => match &e.source {
                Source::Wire { ep, from, tag } => {
                    let done = Reply::to(this, token);
                    ep.irecv_then(Some(*from), Some(*tag), e.spec.deadline, done);
                }
                Source::Device { gpu, ptr } => {
                    let (src, done) = (ptr.offset(offset), Reply::to(this, token));
                    gpu.memcpy_d2h_then(src, len, HostMemKind::Pinned, done);
                }
                Source::Host(_) => unreachable!("host slices are taken on the spot"),
            },
            Step::Charge(d) => e.handle.tell_at(e.handle.now() + d, Reply::to(this, 0)),
            Step::Wait => {
                // The train waits: deferred sinks start now, in block order
                // (the hand-off rule under "Same-instant order" above).
                let next = this.st.borrow_mut().next_sink(e);
                if let Some((data, offset, token)) = next {
                    start_sink(this, data, offset, token);
                    continue;
                }
                let mut st = this.st.borrow_mut();
                if std::mem::take(&mut st.again) {
                    continue;
                }
                st.running = false;
                return;
            }
        }
    }
}

/// A block sent on the wire is sealed there, as its bytes go out (at its
/// clear-to-send), so the receiver opens it while they are in cache. Sealing
/// charges no virtual time: only the host moment of the checksum moves.
const SEAL: Finish = Finish {
    apply: seal_block,
    extra: CRC_TRAILER_BYTES,
};

/// Hand the block at `offset` to the train's sink, which tells `token` back
/// when it is done.
fn start_sink(this: &Rc<Shared>, data: Payload, offset: u64, token: u64) {
    let e = &this.ends;
    match &e.sink {
        Sink::Device { gpu, ptr } => {
            let (dst, done) = (ptr.offset(offset), Reply::to(this, token));
            gpu.memcpy_h2d_then(data, dst, HostMemKind::Pinned, done);
        }
        Sink::Wire { ep, to, tag } => {
            let done = Reply::to(this, token);
            ep.isend_then(*to, *tag, data, Some(SEAL), e.spec.deadline, done);
        }
        Sink::Host => unreachable!("host landings are not deferred"),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prelude::*;
    use dacc_fabric::topology::TopologySpec;
    use dacc_sim::fault::FaultHook;
    use dacc_vgpu::kernel::KernelRegistry;
    use dacc_vgpu::params::ExecMode;
    use std::rc::Weak;
    use std::sync::Arc;

    thread_local! {
        /// Every train started on this thread, weakly.
        pub(crate) static LIVE: RefCell<Vec<Weak<Shared>>> =
            const { RefCell::new(Vec::new()) };
    }

    /// Holds a sentinel where it is installed (the topology holds its
    /// fault hook); delivers everything.
    struct Watch {
        _held: Arc<()>,
    }
    impl FaultHook for Watch {}

    #[test]
    fn a_train_in_flight_is_freed_with_its_sim() {
        // A 4 MiB copy stopped halfway: the front-end's and the daemon's
        // trains wait in pool, copy-engine, endpoint and link queues and on
        // the calendar, and the records they wait as sit in their owners'
        // slabs — frames queued behind a busy link in the topology's, the
        // copy engine's service in the device's, each block receive's
        // armed or withdrawn deadline in the fabric's. None of that may keep
        // a train — or, through one, the topology, the fabric or the device
        // — alive once the `Sim` and the handles are gone.
        let specs = [
            TopologySpec::SingleSwitch,
            TopologySpec::FatTree { radix: 2 },
            TopologySpec::Dragonfly { groups: 3 },
        ];
        for topology in specs {
            for h2d in [true, false] {
                LIVE.with(|live| live.borrow_mut().clear());
                let mut sim = Sim::new();
                // The device owns the registry, the registry this kernel.
                let sentinel = Rc::new(());
                let device = Rc::downgrade(&sentinel);
                let registry = KernelRegistry::new();
                registry.register(
                    "sentinel",
                    0,
                    |_, _, _| SimDuration::ZERO,
                    move |_, _, _| {
                        let _ = &sentinel;
                        Ok(())
                    },
                );
                let spec = ClusterSpec {
                    compute_nodes: 1,
                    accelerators: 1,
                    mode: ExecMode::Functional,
                    topology,
                    // Every block the daemon receives has a deadline: armed
                    // while it waits, withdrawn once the block is in.
                    daemon: DaemonConfig {
                        data_timeout: Some(SimDuration::from_millis(50)),
                        ..DaemonConfig::default()
                    },
                    ..ClusterSpec::default()
                };
                let mut cluster = build_cluster(&sim, spec, registry);
                // The topology holds its fault hook, the fabric its
                // unbundlers: each holds a sentinel of its owner.
                let topo_sentinel = Arc::new(());
                let topo = Arc::downgrade(&topo_sentinel);
                cluster.fabric.set_fault_hook(Some(Arc::new(Watch {
                    _held: topo_sentinel,
                })));
                let fabric_sentinel = Arc::new(());
                let fabric = Arc::downgrade(&fabric_sentinel);
                cluster.fabric.set_unbundler(
                    Tag(0xFFFF_FF00),
                    Arc::new(move |_| {
                        let _ = &fabric_sentinel;
                        None
                    }),
                );
                let ep = cluster.cn_endpoints.remove(0);
                let daemon = cluster.daemon_rank(0);
                let len = 4u64 << 20;
                sim.spawn("app", async move {
                    let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
                    let ptr = ac.mem_alloc(len).await.unwrap();
                    if h2d {
                        let data = Payload::from_vec(vec![7; len as usize]);
                        ac.mem_cpy_h2d(&data, ptr).await.unwrap();
                    } else {
                        ac.mem_cpy_d2h(ptr, len).await.unwrap();
                    }
                });
                sim.run_until(SimTime::ZERO + SimDuration::from_micros(600));
                let trains = LIVE.with(|live| live.borrow().clone());
                let alive = trains.iter().filter(|t| t.upgrade().is_some()).count();
                assert_eq!(alive, 2, "{topology}, h2d {h2d}: both ends mid-copy");
                if h2d {
                    // Blocks queued for the front-end's wire, and the copy
                    // engine not through them.
                    let queued = cluster.fabric.topology().link_stats();
                    assert!(queued.iter().any(|l| l.peak_queue > 0), "{topology}");
                    let copied = cluster.accel_gpus[0].counters().h2d_bytes;
                    assert!(copied < len, "{topology}: {copied}");
                }
                drop(cluster);
                drop(sim);
                for train in trains {
                    assert!(
                        train.upgrade().is_none(),
                        "{topology}, h2d {h2d}: train leaked"
                    );
                }
                assert!(
                    device.upgrade().is_none(),
                    "{topology}, h2d {h2d}: device leaked"
                );
                assert!(
                    topo.upgrade().is_none() && fabric.upgrade().is_none(),
                    "{topology}, h2d {h2d}: topology or fabric leaked"
                );
            }
        }
    }
}
