//! An MPI-like message-passing layer over the simulated interconnect.
//!
//! The paper's middleware uses MPI as its communication substrate (§IV):
//! every API call is one request + one response message, and the pipelined
//! memory-copy protocol issues many medium-sized messages back to back. This
//! module reproduces the MPI behaviours those protocols are sensitive to:
//!
//! * tag matching with source/tag wildcards and an unexpected-message queue,
//! * the eager protocol for small messages (sender completes locally) and
//!   the rendezvous protocol (RTS/CTS handshake) for large ones,
//! * per-(source, destination) non-overtaking order,
//! * sender/receiver CPU overheads and NIC wire contention
//!   (via [`Topology`]).
//!
//! There is no progress engine to run and no helper task anywhere: a
//! message is a frame that the topology advances ([`Topology`]), its arrival
//! a calendar call that runs tag matching on the destination's state, and a
//! send or receive a small record whose stages — `o_send` elapsed,
//! clear-to-send arrived, payload on the wire, matched plus `o_recv` — are
//! calendar calls and arrival actions completing a oneshot — or, for a
//! record that is not a task ([`Endpoint::isend_then`],
//! [`Endpoint::irecv_then`]), calling it back in place. The only tasks are
//! the application's own; the blocking calls start a request and await it.
//! A receive's completion `o_recv` after its match, its deadline and a
//! rendezvous send's clear-to-send deadline are records of the fabric's
//! slab, a deadline a withdrawable calendar entry.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::task::{Context, Poll};

use dacc_sim::channel::oneshot::{oneshot, OneReceiver, OneSender};
use dacc_sim::executor::CallKey;
use dacc_sim::prelude::*;
use dacc_sim::slab::Slab;
use dacc_telemetry::Telemetry;

use crate::payload::Payload;
use crate::topology::{Cargo, NodeId, Topology};

/// A communication endpoint id ("rank"). One process = one rank.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rank(pub usize);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// Message tag. Values at or above [`tags::RESERVED_BASE`] are reserved for
/// internal protocols.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tag(pub u32);

/// Reserved tag space.
pub mod tags {
    /// Tags `>= RESERVED_BASE` are reserved for internal use.
    pub const RESERVED_BASE: u32 = 0xFFFF_0000;
}

/// A matched, received message.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Message payload.
    pub payload: Payload,
}

const CONTROL_BYTES: u64 = 0; // RTS/CTS carry only the envelope header

pub(crate) enum Packet {
    Eager {
        src: Rank,
        tag: Tag,
        payload: Payload,
    },
    Rts {
        src: Rank,
        tag: Tag,
        size: u64,
        msg: MsgId,
    },
    Cts {
        msg: MsgId,
    },
    Data {
        src: Rank,
        tag: Tag,
        msg: MsgId,
        payload: Payload,
    },
}

/// A rendezvous message's name: a serial, unique in the fabric, and its
/// places in the sender's slab of sends awaiting their clear-to-send and,
/// once matched, in the receiver's slab of receives awaiting the payload.
/// A place is reused; the serial tells a late packet from its new occupant.
#[derive(Clone, Copy)]
pub(crate) struct MsgId {
    serial: u64,
    send: u32,
    recv: u32,
}

enum Unexpected {
    Eager(Envelope),
    Rts {
        src: Rank,
        tag: Tag,
        size: u64,
        msg: MsgId,
    },
}

impl Unexpected {
    fn src_tag(&self) -> (Rank, Tag) {
        match self {
            Unexpected::Eager(env) => (env.src, env.tag),
            Unexpected::Rts { src, tag, .. } => (*src, *tag),
        }
    }
}

/// The state behind a request is only ever dropped with its endpoint.
const STATE_GONE: &str = "request dropped: the endpoint's matching state is gone";

/// What is left of a send once its payload is on its way: who is told, and
/// what the `fabric.send` span will say.
pub(crate) struct SendTicket {
    src: Rank,
    dst: Rank,
    tag: Tag,
    size: u64,
    start: SimTime,
    deadline: bool,
    done: Reply<bool>,
}

impl SendTicket {
    /// The send buffer is reusable (`sent`) or the send was abandoned.
    fn complete(self, tele: &Telemetry, now: SimTime, sent: bool) {
        tele.span_at(
            "fabric.send",
            || {
                let deadline = if self.deadline { " (deadline)" } else { "" };
                format!("{} -> {} tag {}{deadline}", self.src, self.dst, self.tag.0)
            },
            self.start,
            now,
            Some(self.size),
            None,
        );
        self.done.send(sent);
    }
}

/// How a send's body becomes its wire bytes ([`Endpoint::isend_then`]):
/// `apply` returns them, `extra` bytes longer than the body. It runs when
/// they go on the wire — at the post for an eager message, at the
/// clear-to-send for a rendezvous one, never for a send abandoned before
/// that — so what it writes is still in cache when the receiver reads it.
/// Every size the fabric decides on (the eager threshold, the
/// request-to-send's, the wire time) is the finished length.
#[derive(Clone, Copy)]
pub struct Finish {
    /// Forms the wire bytes from the body.
    pub apply: fn(&Payload) -> Payload,
    /// How much longer they are than the body.
    pub extra: u64,
}

/// `body`'s wire bytes.
fn finished(body: Payload, finish: Option<Finish>) -> Payload {
    let Some(finish) = finish else { return body };
    let wire = (finish.apply)(&body);
    debug_assert_eq!(wire.len(), body.len() + finish.extra, "finish adds `extra`");
    wire
}

/// A rendezvous send between its request-to-send and its clear-to-send.
struct Sending {
    serial: u64,
    body: Payload,
    finish: Option<Finish>,
    ticket: SendTicket,
    /// The clear-to-send's deadline's record in the fabric's slab, once
    /// armed; withdrawn when the clear-to-send is in. (The record holds the
    /// key: a send stays within 128 bytes, which a move copies inline.)
    expiry: Option<u32>,
}

/// An open receive: who gets the envelope, and what the `fabric.recv` span
/// will say.
struct Receiving {
    /// Unique per endpoint; how a deadline finds its receive.
    id: u64,
    src: Option<Rank>,
    tag: Option<Tag>,
    start: SimTime,
    deadline: bool,
    /// The pending deadline, once armed, and its record in the fabric's
    /// slab; withdrawn when the message is in.
    expiry: Option<(CallKey, u32)>,
    done: Reply<Option<Envelope>>,
}

impl Receiving {
    /// Hand over the message, or `None` at the deadline.
    fn complete(self, fabric: &FabricInner, tele: &Telemetry, me: Rank, env: Option<Envelope>) {
        fabric.withdraw(self.expiry);
        let now = fabric.handle.now();
        tele.span_at(
            "fabric.recv",
            || {
                let deadline = if self.deadline { " (deadline)" } else { "" };
                format!(
                    "{me} <- {:?} tag {:?}{deadline}",
                    self.src,
                    self.tag.map(|t| t.0)
                )
            },
            self.start,
            now,
            env.as_ref().map(|env| env.payload.len()),
            None,
        );
        self.done.send(env);
    }
}

/// State of one rendezvous message whose CTS has been issued.
enum DataWaiter {
    /// A receive is waiting for the payload.
    Deliver(Receiving),
    /// The receive was abandoned (deadline); discard the payload if it
    /// ever arrives. Tombstones for payloads lost in the fabric persist —
    /// a bounded leak proportional to the number of abandoned receives.
    Discard,
}

/// One endpoint's matching state. Arriving packets are matched against it
/// by [`Fabric::arrive`], straight from the calendar: there is no progress
/// task and no mailbox between the wire and this state. Nothing in here may
/// own the fabric (the fabric owns this).
#[derive(Default)]
struct EpState {
    unexpected: VecDeque<Unexpected>,
    posted: VecDeque<Receiving>,
    data_waiting: Slab<(u64, DataWaiter)>,
    cts_waiting: Slab<Sending>,
    next_recv_id: u64,
}

impl EpState {
    fn take_posted(&mut self, src: Rank, tag: Tag) -> Option<Receiving> {
        let pos = self
            .posted
            .iter()
            .position(|p| p.src.is_none_or(|s| s == src) && p.tag.is_none_or(|t| t == tag))?;
        self.posted.remove(pos)
    }

    /// Deliver one eager envelope through normal matching: to a waiting
    /// posted receive if any (returned with it, for the caller to complete),
    /// else into the unexpected queue.
    fn deliver_eager(
        &mut self,
        src: Rank,
        tag: Tag,
        payload: Payload,
    ) -> Option<(Receiving, Envelope)> {
        let env = Envelope { src, tag, payload };
        match self.take_posted(src, tag) {
            Some(recv) => Some((recv, env)),
            None => {
                self.unexpected.push_back(Unexpected::Eager(env));
                None
            }
        }
    }

    /// Match a rendezvous request-to-send; the message, now with the
    /// receive's place, if a posted receive took it (the caller then owes
    /// the sender a CTS).
    fn deliver_rts(&mut self, src: Rank, tag: Tag, size: u64, msg: MsgId) -> Option<MsgId> {
        match self.take_posted(src, tag) {
            Some(recv) => Some(self.await_data(msg, recv)),
            None => {
                let rts = Unexpected::Rts {
                    src,
                    tag,
                    size,
                    msg,
                };
                self.unexpected.push_back(rts);
                None
            }
        }
    }

    /// `recv` took `msg`'s request-to-send and awaits its payload.
    fn await_data(&mut self, mut msg: MsgId, recv: Receiving) -> MsgId {
        let waiting = (msg.serial, DataWaiter::Deliver(recv));
        msg.recv = self.data_waiting.insert(waiting);
        msg
    }

    /// The send `msg` names, unless it was abandoned.
    fn take_sending(&mut self, msg: MsgId) -> Option<Sending> {
        let send = self.cts_waiting.get(msg.send)?;
        (send.serial == msg.serial).then(|| self.cts_waiting.take(msg.send))?
    }

    /// Withdraw the open receive `id`, whatever stage it has reached: posted
    /// and never matched, or matched to a request-to-send whose payload is
    /// still outstanding (a tombstone then discards the late arrival).
    /// `None` if it was matched in full: it is completing, or complete.
    fn abandon_recv(&mut self, id: u64) -> Option<Receiving> {
        if let Some(pos) = self.posted.iter().position(|p| p.id == id) {
            return self.posted.remove(pos);
        }
        let waiting = |w: &DataWaiter| matches!(w, DataWaiter::Deliver(recv) if recv.id == id);
        let (at, _) = self.data_waiting.iter().find(|(_, (_, w))| waiting(w))?;
        match std::mem::replace(&mut self.data_waiting[at].1, DataWaiter::Discard) {
            DataWaiter::Deliver(recv) => Some(recv),
            DataWaiter::Discard => None,
        }
    }

    /// The receive the payload is for. `None` means it was abandoned after
    /// the handshake: the payload is discarded.
    fn deliver_data(&mut self, msg: MsgId) -> Option<Receiving> {
        let (serial, _) = self.data_waiting.get(msg.recv)?;
        if *serial != msg.serial {
            return None;
        }
        match self.data_waiting.take(msg.recv)?.1 {
            DataWaiter::Deliver(recv) => Some(recv),
            DataWaiter::Discard => None,
        }
    }
}

/// What the fabric keeps per endpoint: the matching state only. (An
/// [`Endpoint`] here would close an `Rc` cycle through its [`Fabric`].)
struct EndpointRecord {
    node: NodeId,
    state: Rc<RefCell<EpState>>,
}

/// A control-batch unbundler (see [`Fabric::set_unbundler`]): splits one
/// delivered payload into `(tag, payload)` envelopes, or `None` when the
/// payload fails its integrity check (the whole batch is then dropped, as
/// if lost in flight — sender-side retry heals it).
pub type Unbundler = Arc<dyn Fn(&Payload) -> Option<Vec<(Tag, Payload)>> + Send + Sync>;

pub(crate) struct FabricInner {
    endpoints: RefCell<Vec<EndpointRecord>>,
    next_msg_id: Cell<u64>,
    /// The attached telemetry handle; disabled when nothing is attached.
    telemetry: RefCell<Telemetry>,
    /// Per-tag unbundlers; empty in every run without control batching.
    unbundlers: RefCell<HashMap<u32, Unbundler>>,
    handle: SimHandle,
    /// Receives completing and sends' and receives' deadlines, and their
    /// kind of calendar entry.
    pending: RefCell<Slab<Pending>>,
    kind: Kind,
}

/// A calendar record of a send or a receive.
enum Pending {
    /// Matched, a receive completes `o_recv` later.
    Deliver {
        me: Rank,
        recv: Receiving,
        env: Envelope,
    },
    /// The deadline of receive `id` of rank `rank`.
    Expire { rank: Rank, id: u64 },
    /// The clear-to-send's deadline of rank `rank`'s send `msg`, and its
    /// key once armed.
    Abandon {
        rank: Rank,
        msg: MsgId,
        key: Option<CallKey>,
    },
}

impl FabricInner {
    /// Withdraw a receive's deadline, and its record.
    fn withdraw(&self, expiry: Option<(CallKey, u32)>) {
        if let Some((key, index)) = expiry {
            if self.handle.cancel(key) {
                self.pending.borrow_mut().take(index);
            }
        }
    }

    /// Withdraw a send's clear-to-send deadline, and its record.
    fn withdraw_send(&self, expiry: Option<u32>) {
        let pending = expiry.and_then(|index| self.pending.borrow_mut().take(index));
        if let Some(Pending::Abandon { key: Some(key), .. }) = pending {
            self.handle.cancel(key);
        }
    }

    /// The clear-to-send of rank `rank`'s send `msg` did not come in time:
    /// the send is abandoned (a late clear-to-send is then ignored).
    #[cold]
    fn abandon(&self, rank: Rank, msg: MsgId) {
        let state = Rc::clone(&self.endpoints.borrow()[rank.0].state);
        let withdrawn = state.borrow_mut().take_sending(msg);
        if let Some(send) = withdrawn {
            let tele = self.telemetry.borrow().clone();
            tele.count("fabric.send.abandoned", 1);
            send.ticket.complete(&tele, self.handle.now(), false);
        }
    }

    /// Arm the clear-to-send's deadline of rank `rank`'s send `msg`, which
    /// runs from now: a withdrawable entry, like a receive's. (A loopback
    /// clear-to-send may be in already: the entry then finds nothing.)
    #[cold]
    fn arm_deadline(&self, rank: Rank, msg: MsgId, timeout: SimDuration) {
        if timeout.is_zero() {
            return self.abandon(rank, msg);
        }
        let mut pending = self.pending.borrow_mut();
        let index = pending.insert(Pending::Abandon {
            rank,
            msg,
            key: None,
        });
        let at = self.handle.now() + timeout;
        let armed = self.handle.call_cancellable_at(at, self.kind, index);
        if let Pending::Abandon { key, .. } = &mut pending[index] {
            *key = Some(armed);
        }
        drop(pending);
        let state = Rc::clone(&self.endpoints.borrow()[rank.0].state);
        let mut st = state.borrow_mut();
        let send = st.cts_waiting.get_mut(msg.send);
        if let Some(send) = send.filter(|s| s.serial == msg.serial) {
            send.expiry = Some(index);
        }
    }

    /// Complete `recv`, posted by rank `me`, with the message it matched.
    fn deliver(&self, me: Rank, recv: Receiving, env: Envelope) {
        let tele = self.telemetry.borrow().clone();
        let len = env.payload.len();
        tele.count("fabric.recv.msgs", 1);
        tele.count("fabric.recv.bytes", len);
        recv.complete(self, &tele, me, Some(env));
    }

    /// The deadline of receive `id` of rank `rank` is up: abandon whatever
    /// stage it reached — unless it was matched in full and is completing,
    /// `o_recv` from the match.
    fn expire(&self, rank: Rank, id: u64) {
        let state = Rc::clone(&self.endpoints.borrow()[rank.0].state);
        let abandoned = state.borrow_mut().abandon_recv(id);
        if let Some(recv) = abandoned {
            let tele = self.telemetry.borrow().clone();
            tele.count("fabric.recv.timeout", 1);
            recv.complete(self, &tele, rank, None);
        }
    }
}

/// A calendar entry of the fabric's has come due.
impl Complete<()> for FabricInner {
    fn complete(self: Rc<Self>, index: u64, (): ()) {
        let pending = self.pending.borrow_mut().take(index as u32);
        match pending {
            Some(Pending::Deliver { me, recv, env }) => self.deliver(me, recv, env),
            Some(Pending::Expire { rank, id }) => self.expire(rank, id),
            Some(Pending::Abandon { rank, msg, .. }) => self.abandon(rank, msg),
            None => {}
        }
    }
}

/// Who a frame tells of its progress ([`Cargo`]).
pub(crate) enum Notice {
    /// A send request completes: its buffer is reusable.
    Sent(Rc<FabricInner>, SendTicket),
    /// [`Topology::transmit_checked`]'s task, told the corruption verdict.
    Serialized(OneSender<bool>),
    /// A rendezvous send's request-to-send is out: its clear-to-send's
    /// deadline starts.
    Deadline(Rc<FabricInner>, Rank, MsgId, SimDuration),
}

impl Notice {
    pub(crate) fn tell(self, corrupt: bool) {
        match self {
            Notice::Sent(fabric, ticket) => {
                let tele = fabric.telemetry.borrow().clone();
                ticket.complete(&tele, fabric.handle.now(), true);
            }
            Notice::Serialized(task) => task.send(corrupt),
            Notice::Deadline(fabric, rank, msg, timeout) => {
                fabric.arm_deadline(rank, msg, timeout);
            }
        }
    }
}

/// What a frame's arrival does ([`Cargo`]).
pub(crate) enum Delivery {
    /// Match `packet` against rank `dst`'s state ([`Fabric::arrive`]).
    Packet {
        fabric: Rc<FabricInner>,
        dst: Rank,
        packet: Packet,
    },
    /// Set [`Topology::transmit`]'s flag.
    Flag(EventFlag),
}

impl Delivery {
    pub(crate) fn arrive(self, topo: &Topology, corrupt: bool) {
        match self {
            Delivery::Packet {
                fabric,
                dst,
                packet,
            } => {
                let handle = topo.handle().clone();
                let topo = topo.clone();
                let fabric = Fabric {
                    topo,
                    inner: fabric,
                    handle,
                };
                fabric.arrive(dst, packet, corrupt);
            }
            Delivery::Flag(flag) => flag.set(),
        }
    }
}

/// The message-passing fabric: topology + endpoint registry.
#[derive(Clone)]
pub struct Fabric {
    topo: Topology,
    inner: Rc<FabricInner>,
    handle: SimHandle,
}

impl Fabric {
    /// Wrap a [`Topology`] with the message-passing layer.
    pub fn new(handle: &SimHandle, topo: Topology) -> Self {
        Fabric {
            topo,
            inner: Rc::new_cyclic(|me: &Weak<FabricInner>| FabricInner {
                endpoints: RefCell::new(Vec::new()),
                next_msg_id: Cell::new(0),
                telemetry: RefCell::new(Telemetry::disabled()),
                unbundlers: RefCell::new(HashMap::new()),
                handle: handle.clone(),
                pending: RefCell::new(Slab::default()),
                kind: handle.kind(me.clone()),
            }),
            handle: handle.clone(),
        }
    }

    /// The underlying topology (for NIC statistics).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The simulation handle this fabric schedules on.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Attach a telemetry handle: every endpoint on this fabric (and the
    /// daemon/stream/ARM layers above, which reach their telemetry through
    /// the fabric) starts recording into it. Pass [`Telemetry::disabled`]
    /// to detach.
    pub fn set_telemetry(&self, tele: Telemetry) {
        // The topology records per-link traffic into the same handle.
        self.topo.set_telemetry(tele.clone());
        *self.inner.telemetry.borrow_mut() = tele;
    }

    /// Attach an event tracer: the topology records `fault.*` into it, and
    /// the processes above (daemons, ARM, front-ends) read it from here
    /// when they start. Attach before the processes run.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.topo.set_tracer(tracer);
    }

    /// The attached tracer, or a disabled one when nothing is attached.
    pub fn tracer(&self) -> Tracer {
        self.topo.tracer()
    }

    /// Install a fault hook: the topology consults it on every
    /// transmission, and daemons, heartbeat agents and replicated ARMs read
    /// it from here when they start, for their process faults. `None`
    /// restores the healthy cluster.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        self.topo.set_fault_hook(hook);
    }

    /// The installed fault hook, if any.
    pub fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        self.topo.fault_hook()
    }

    /// Register `f` as the unbundler for messages arriving on `tag`: it is
    /// called on every such arrival and the fabric feeds the returned
    /// `(tag, payload)` envelopes through normal matching (posted receives
    /// first, then the unexpected queue), in order, as if each had been
    /// sent individually from the same source. `f` returning `None` drops
    /// the whole message — the integrity-check-failed case, equivalent to
    /// losing it in flight.
    ///
    /// This is the receive half of small-control-message coalescing: a
    /// sender packs several control frames for one peer into a single
    /// fabric message on `tag`, halving per-message overheads, and the
    /// receiver's protocol code never sees the difference. Batched
    /// messages must stay **eager-sized** (below the fabric's rendezvous
    /// threshold): nobody posts receives on the batch tag itself, so a
    /// rendezvous handshake would never complete.
    pub fn set_unbundler(&self, tag: Tag, f: Unbundler) {
        self.inner.unbundlers.borrow_mut().insert(tag.0, f);
    }

    fn unbundler_for(&self, tag: Tag) -> Option<Unbundler> {
        self.inner.unbundlers.borrow().get(&tag.0).cloned()
    }

    /// The attached telemetry handle, or a disabled one when nothing is
    /// attached.
    pub fn telemetry(&self) -> Telemetry {
        self.inner.telemetry.borrow().clone()
    }

    /// Create an endpoint on `node`. Ranks are assigned in creation order.
    pub fn add_endpoint(&self, node: NodeId) -> Endpoint {
        assert!(
            node.0 < self.topo.node_count(),
            "add_endpoint: {node} outside topology"
        );
        let state = Rc::new(RefCell::new(EpState::default()));
        let mut eps = self.inner.endpoints.borrow_mut();
        let rank = Rank(eps.len());
        eps.push(EndpointRecord {
            node,
            state: Rc::clone(&state),
        });
        Endpoint {
            rank,
            node,
            fabric: self.clone(),
            state,
        }
    }

    /// The node an endpoint lives on.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.inner.endpoints.borrow()[rank.0].node
    }

    fn next_msg_id(&self) -> u64 {
        let id = self.inner.next_msg_id.get();
        self.inner.next_msg_id.set(id + 1);
        id
    }

    /// Send a frame of `bytes` from `src_node` to the node of `dst_rank`,
    /// `lead` from now; when its last byte arrives, `packet` is matched
    /// against the destination's state ([`Fabric::arrive`]). `on_inject` is
    /// told when the frame is handed to the NIC, `on_wire` when its first
    /// hop has serialized (sender side). A frame dropped in the fabric never
    /// arrives.
    #[allow(clippy::too_many_arguments)]
    fn wire_send(
        &self,
        src_node: NodeId,
        dst_rank: Rank,
        bytes: u64,
        packet: Packet,
        lead: SimDuration,
        on_inject: Option<Notice>,
        on_wire: Option<Notice>,
    ) {
        let dst_node = self.node_of(dst_rank);
        let fabric = Rc::clone(&self.inner);
        let at_inject = on_inject.is_some();
        let cargo = Cargo {
            notice: on_inject.or(on_wire),
            at_inject,
            delivery: Delivery::Packet {
                fabric,
                dst: dst_rank,
                packet,
            },
        };
        self.topo
            .transmit_then(src_node, dst_node, bytes, lead, cargo);
    }

    /// The last byte of `packet` reached `dst`: run tag matching on that
    /// endpoint's state and start what the match calls for — the receive's
    /// completion, the clear-to-send, the payload. This is the whole
    /// progress engine; it runs as a calendar call, so it wakes, schedules
    /// and injects but never waits.
    fn arrive(&self, dst: Rank, packet: Packet, corrupt: bool) {
        let (node, state) = {
            let eps = self.inner.endpoints.borrow();
            (eps[dst.0].node, Rc::clone(&eps[dst.0].state))
        };
        // A corrupt verdict damages the delivered bytes, never the timing.
        // Only packets that carry a payload have bits to flip; control
        // packets (RTS/CTS) pass through and the verdict is a no-op.
        let damaged = |payload: Payload| {
            if corrupt {
                payload.corrupted()
            } else {
                payload
            }
        };
        match packet {
            Packet::Eager { src, tag, payload } => {
                let payload = damaged(payload);
                let deliver = |tag, payload| {
                    let matched = state.borrow_mut().deliver_eager(src, tag, payload);
                    if let Some((recv, env)) = matched {
                        self.complete_recv(dst, recv, env);
                    }
                };
                let Some(unbundle) = self.unbundler_for(tag) else {
                    return deliver(tag, payload);
                };
                // Unbundled outside any borrow: the callback is foreign code.
                match unbundle(&payload) {
                    Some(entries) => entries.into_iter().for_each(|(t, p)| deliver(t, p)),
                    // Damaged batch: drop it whole, like a lost message —
                    // sender-side retry heals it.
                    None => self.telemetry().count("fabric.ctrl.dropped", 1),
                }
            }
            Packet::Rts {
                src,
                tag,
                size,
                msg,
            } => {
                let matched = state.borrow_mut().deliver_rts(src, tag, size, msg);
                if let Some(msg) = matched {
                    self.send_cts(node, src, msg);
                }
            }
            Packet::Cts { msg } => {
                // No send waiting: it was abandoned (send deadline passed) and
                // the late CTS is ignored.
                let waiting = state.borrow_mut().take_sending(msg);
                let Some(send) = waiting else {
                    return;
                };
                self.inner.withdraw_send(send.expiry);
                // Clear to send: stream the payload; the send completes when
                // it has been fully serialized onto the wire.
                let ticket = send.ticket;
                let packet = Packet::Data {
                    src: ticket.src,
                    tag: ticket.tag,
                    msg,
                    payload: finished(send.body, send.finish),
                };
                let (to, size) = (ticket.dst, ticket.size);
                let on_wire = Notice::Sent(Rc::clone(&self.inner), ticket);
                self.wire_send(
                    node,
                    to,
                    size,
                    packet,
                    SimDuration::ZERO,
                    None,
                    Some(on_wire),
                );
            }
            Packet::Data {
                src,
                tag,
                msg,
                payload,
            } => {
                let matched = state.borrow_mut().deliver_data(msg);
                if let Some(recv) = matched {
                    let payload = damaged(payload);
                    self.complete_recv(dst, recv, Envelope { src, tag, payload });
                }
            }
        }
    }

    /// `recv`, posted by rank `me`, matched `env`: it completes once the
    /// receiver's CPU overhead has been charged, whatever a deadline says
    /// in the meantime.
    fn complete_recv(&self, me: Rank, recv: Receiving, env: Envelope) {
        let o_recv = self.topo.params().o_recv;
        if o_recv.is_zero() {
            return self.inner.deliver(me, recv, env);
        }
        let index = self
            .inner
            .pending
            .borrow_mut()
            .insert(Pending::Deliver { me, recv, env });
        self.handle
            .schedule(self.handle.now() + o_recv, self.inner.kind, index);
    }

    /// Answer a matched RTS: the clear-to-send travels like any message.
    fn send_cts(&self, from: NodeId, to: Rank, msg: MsgId) {
        let packet = Packet::Cts { msg };
        self.wire_send(
            from,
            to,
            CONTROL_BYTES,
            packet,
            SimDuration::ZERO,
            None,
            None,
        );
    }
}

/// A nonblocking send in progress ([`Endpoint::isend`]). Await it to
/// complete the request (like `MPI_Wait`); dropping it un-awaited detaches
/// the message, which is delivered all the same.
#[must_use = "await the request to know the send buffer is reusable"]
pub struct SendRequest(OneReceiver<bool>);

impl Future for SendRequest {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // A send without a deadline is never abandoned: the flag says nothing.
        Pin::new(&mut self.0).poll(cx).map(|sent| {
            sent.expect(STATE_GONE);
        })
    }
}

/// A nonblocking receive in progress ([`Endpoint::irecv`]). Await it for the
/// matched message; dropped un-awaited, the receive stays posted and
/// consumes the message it matches.
#[must_use = "await the request for the matched message"]
pub struct RecvRequest(OneReceiver<Option<Envelope>>);

impl Future for RecvRequest {
    type Output = Envelope;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Envelope> {
        Pin::new(&mut self.0).poll(cx).map(|env| {
            env.expect(STATE_GONE)
                .expect("a receive without a deadline completes with a message")
        })
    }
}

/// One process's communication endpoint.
///
/// Cloning is cheap and clones address the *same* rank; matching state is
/// shared.
#[derive(Clone)]
pub struct Endpoint {
    rank: Rank,
    node: NodeId,
    fabric: Fabric,
    state: Rc<RefCell<EpState>>,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The node this endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fabric this endpoint belongs to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Blocking send. Completes when the send buffer is reusable: for eager
    /// messages after local injection, for rendezvous messages once the
    /// payload has been fully serialized onto the wire.
    pub async fn send(&self, dst: Rank, tag: Tag, payload: Payload) {
        self.isend(dst, tag, payload).await;
    }

    /// [`Endpoint::send`] with a deadline on the rendezvous clear-to-send.
    ///
    /// Returns `false` if the message is rendezvous-sized and no CTS
    /// arrived within `timeout` of the request-to-send going out (the
    /// receiver never matched, or the handshake was lost in the fabric):
    /// the send is abandoned and the payload is **not** delivered.
    /// Eager-sized messages are handed to the NIC immediately and always
    /// return `true` — on a lossy fabric that is fire-and-forget, not a
    /// delivery guarantee.
    pub async fn send_timeout(
        &self,
        dst: Rank,
        tag: Tag,
        payload: Payload,
        timeout: SimDuration,
    ) -> bool {
        let (done, completion) = oneshot();
        self.start_send(dst, tag, payload, None, Some(timeout), Reply::Wake(done));
        completion.await.expect(STATE_GONE)
    }

    /// Nonblocking send: the message is on its way when this returns. Await
    /// the returned request to complete it (like `MPI_Wait`).
    pub fn isend(&self, dst: Rank, tag: Tag, payload: Payload) -> SendRequest {
        let (done, completion) = oneshot();
        self.start_send(dst, tag, payload, None, None, Reply::Wake(done));
        SendRequest(completion)
    }

    /// [`Endpoint::isend`] (or, with a `cts_deadline`, the start of
    /// [`Endpoint::send_timeout`]) for a record rather than a task. What
    /// goes on the wire is `body`, or what `finish` makes of it there.
    /// `done` is called where the request completes — `true` once the send
    /// buffer is reusable, `false` if the deadline abandoned it. It rides
    /// with the message until then (queued behind wires, waiting for a
    /// clear-to-send), so it must own neither this endpoint nor its fabric.
    pub fn isend_then(
        &self,
        dst: Rank,
        tag: Tag,
        body: Payload,
        finish: Option<Finish>,
        cts_deadline: Option<SimDuration>,
        done: Reply<bool>,
    ) {
        self.start_send(dst, tag, body, finish, cts_deadline, done);
    }

    /// The one send routine: the message goes out after `o_send`. `done`
    /// learns `true` when the send buffer is reusable, `false` when a
    /// rendezvous send is abandoned `cts_deadline` after its request-to-send
    /// went out.
    fn start_send(
        &self,
        dst: Rank,
        tag: Tag,
        body: Payload,
        finish: Option<Finish>,
        cts_deadline: Option<SimDuration>,
        done: Reply<bool>,
    ) {
        let fabric = &self.fabric;
        let handle = fabric.handle.clone();
        let p = fabric.topo.params();
        let size = body.len() + finish.map_or(0, |f| f.extra);
        let tele = fabric.telemetry();
        tele.count("fabric.send.msgs", 1);
        tele.count("fabric.send.bytes", size);
        let src = self.rank;
        let ticket = SendTicket {
            src,
            dst,
            tag,
            size,
            start: handle.now(),
            deadline: cts_deadline.is_some(),
            done,
        };
        if size <= p.eager_threshold {
            // Eager: complete once handed to the NIC; the transfer proceeds
            // in the background.
            let payload = finished(body, finish);
            let packet = Packet::Eager { src, tag, payload };
            let on_inject = Notice::Sent(Rc::clone(&fabric.inner), ticket);
            fabric.wire_send(
                self.node,
                dst,
                size,
                packet,
                p.o_send,
                Some(on_inject),
                None,
            );
            return;
        }
        // Rendezvous: RTS; the CTS's arrival streams the payload.
        let serial = fabric.next_msg_id();
        let sending = Sending {
            serial,
            body,
            finish,
            ticket,
            expiry: None,
        };
        let send = self.state.borrow_mut().cts_waiting.insert(sending);
        let msg = MsgId {
            serial,
            send,
            recv: u32::MAX,
        };
        let packet = Packet::Rts {
            src,
            tag,
            size,
            msg,
        };
        // A deadline runs from the moment the RTS is out.
        let on_wire = cts_deadline
            .map(|timeout| Notice::Deadline(Rc::clone(&fabric.inner), src, msg, timeout));
        let bytes = CONTROL_BYTES;
        fabric.wire_send(self.node, dst, bytes, packet, p.o_send, None, on_wire);
    }

    /// Blocking receive. `src`/`tag` of `None` are wildcards
    /// (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`). Messages from the same sender
    /// with the same tag are received in send order.
    pub async fn recv(&self, src: Option<Rank>, tag: Option<Tag>) -> Envelope {
        self.irecv(src, tag).await
    }

    /// Nonblocking receive: the receive is posted when this returns. Await
    /// the returned request for the matched message.
    pub fn irecv(&self, src: Option<Rank>, tag: Option<Tag>) -> RecvRequest {
        let (done, completion) = oneshot();
        self.start_recv(src, tag, None, Reply::Wake(done));
        RecvRequest(completion)
    }

    /// Blocking receive with a deadline: returns `None` if the message has
    /// not been **fully received** within `timeout`. Unlike a plain
    /// [`Endpoint::recv`], the deadline also covers the rendezvous data
    /// phase, so a payload lost in the fabric after its handshake cannot
    /// wedge the receiver: the receive is abandoned and a tombstone
    /// discards the payload if it ever shows up late.
    pub async fn recv_timeout(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        timeout: SimDuration,
    ) -> Option<Envelope> {
        let (done, completion) = oneshot();
        self.start_recv(src, tag, Some(timeout), Reply::Wake(done));
        completion.await.expect(STATE_GONE)
    }

    /// [`Endpoint::irecv`] (or, with a `deadline`, [`Endpoint::recv_timeout`])
    /// for a record rather than a task: `done` is called where the receive
    /// completes, with the message or with `None` at the deadline. It waits
    /// in this endpoint's matching state until then, so it must own neither
    /// this endpoint nor its fabric.
    pub fn irecv_then(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        deadline: Option<SimDuration>,
        done: Reply<Option<Envelope>>,
    ) {
        self.start_recv(src, tag, deadline, done);
    }

    /// The one receive routine: match an unexpected message now, or post
    /// the receive; it completes with the message `o_recv` after the match.
    /// A `deadline` is a withdrawable calendar entry naming a record of the
    /// fabric's slab, armed unless the receive was matched in full on the
    /// spot: most deadlines never fire, and a withdrawn one frees its record
    /// at once and still counts as one event, like a dropped timer's. A
    /// message matched before the deadline is delivered even if its
    /// `o_recv` ends after it.
    fn start_recv(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        deadline: Option<SimDuration>,
        done: Reply<Option<Envelope>>,
    ) {
        let fabric = &self.fabric;
        let matches = |(m_src, m_tag): (Rank, Tag)| {
            src.is_none_or(|s| s == m_src) && tag.is_none_or(|t| t == m_tag)
        };
        let mut st = self.state.borrow_mut();
        let id = st.next_recv_id;
        st.next_recv_id += 1;
        let recv = Receiving {
            id,
            src,
            tag,
            start: fabric.handle.now(),
            deadline: deadline.is_some(),
            expiry: None,
            done,
        };
        let unexpected = st.unexpected.iter().position(|u| matches(u.src_tag()));
        let awaiting_payload = match unexpected.and_then(|pos| st.unexpected.remove(pos)) {
            Some(Unexpected::Eager(env)) => {
                drop(st);
                return fabric.complete_recv(self.rank, recv, env);
            }
            Some(Unexpected::Rts {
                src: sender, msg, ..
            }) => {
                let msg = st.await_data(msg, recv);
                drop(st);
                fabric.send_cts(self.node, sender, msg);
                Some(msg)
            }
            None => {
                st.posted.push_back(recv);
                drop(st);
                None
            }
        };
        let Some(timeout) = deadline else { return };
        if timeout.is_zero() {
            return fabric.inner.expire(self.rank, id);
        }
        let inner = &fabric.inner;
        let at = inner.handle.now() + timeout;
        let rank = self.rank;
        let index = inner
            .pending
            .borrow_mut()
            .insert(Pending::Expire { rank, id });
        let key = inner.handle.call_cancellable_at(at, inner.kind, index);
        // The receive is where it was left above: nothing ran since.
        let mut st = self.state.borrow_mut();
        let recv = match awaiting_payload {
            None => st.posted.back_mut(),
            Some(msg) => match st.data_waiting.get_mut(msg.recv) {
                Some((_, DataWaiter::Deliver(recv))) => Some(recv),
                _ => None,
            },
        };
        recv.expect("an open receive stays put until something runs")
            .expiry = Some((key, index));
    }

    /// Nonblocking probe (`MPI_Iprobe`): is a matching message waiting in
    /// the unexpected queue? Returns its envelope metadata without
    /// consuming it. (Messages matched by posted receives are not visible
    /// here, exactly like MPI.)
    pub fn iprobe(&self, src: Option<Rank>, tag: Option<Tag>) -> Option<(Rank, Tag, u64)> {
        let matches = |m_src: Rank, m_tag: Tag| {
            src.is_none_or(|s| s == m_src) && tag.is_none_or(|t| t == m_tag)
        };
        let st = self.state.borrow();
        st.unexpected
            .iter()
            .find(|u| matches(u.src_tag().0, u.src_tag().1))
            .map(|u| match u {
                Unexpected::Eager(env) => (env.src, env.tag, env.payload.len()),
                Unexpected::Rts { src, tag, size, .. } => (*src, *tag, *size),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FabricParams;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup(nodes: usize, params: FabricParams) -> (Sim, Fabric) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, nodes, params);
        let fabric = Fabric::new(&h, topo);
        (sim, fabric)
    }

    #[test]
    fn eager_send_recv_roundtrip() {
        let (mut sim, fabric) = setup(2, FabricParams::qdr_infiniband());
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        sim.spawn("a", async move {
            a.send(Rank(1), Tag(7), Payload::from_vec(vec![1, 2, 3]))
                .await;
        });
        sim.spawn("b", async move {
            let env = b.recv(Some(Rank(0)), Some(Tag(7))).await;
            *got2.borrow_mut() = Some(env);
        });
        sim.run();
        let env = got.borrow().clone().unwrap();
        assert_eq!(env.src, Rank(0));
        assert_eq!(env.tag, Tag(7));
        assert_eq!(env.payload.expect_bytes().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn rendezvous_transfers_large_payload() {
        let (mut sim, fabric) = setup(2, FabricParams::qdr_infiniband());
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let data: Vec<u8> = (0..100_000u32).map(|x| (x % 251) as u8).collect();
        let expect = data.clone();
        let ok = Rc::new(RefCell::new(false));
        let ok2 = Rc::clone(&ok);
        sim.spawn("a", async move {
            a.send(Rank(1), Tag(0), Payload::from_vec(data)).await;
        });
        sim.spawn("b", async move {
            let env = b.recv(None, None).await;
            *ok2.borrow_mut() = env.payload.expect_bytes().as_ref() == expect.as_slice();
        });
        sim.run();
        assert!(*ok.borrow());
    }

    #[test]
    fn unexpected_messages_match_later_recv() {
        let (mut sim, fabric) = setup(2, FabricParams::qdr_infiniband());
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let h = sim.handle();
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        sim.spawn("a", async move {
            a.send(Rank(1), Tag(1), Payload::from_vec(vec![1])).await;
            a.send(Rank(1), Tag(2), Payload::from_vec(vec![2])).await;
        });
        sim.spawn("b", async move {
            // Let both arrive before any recv is posted.
            h.delay(SimDuration::from_millis(1)).await;
            // Receive out of tag order: matching is by tag, not arrival.
            let e2 = b.recv(None, Some(Tag(2))).await;
            let e1 = b.recv(None, Some(Tag(1))).await;
            got2.borrow_mut()
                .push((e1.tag, e1.payload.expect_bytes()[0]));
            got2.borrow_mut()
                .push((e2.tag, e2.payload.expect_bytes()[0]));
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![(Tag(1), 1), (Tag(2), 2)]);
    }

    #[test]
    fn non_overtaking_same_src_dst_tag() {
        let (mut sim, fabric) = setup(2, FabricParams::qdr_infiniband());
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        sim.spawn("a", async move {
            for i in 0..20u8 {
                // Mix eager (small) and rendezvous (large) messages.
                let payload = if i % 3 == 0 {
                    Payload::from_vec(vec![i; 100_000])
                } else {
                    Payload::from_vec(vec![i])
                };
                a.send(Rank(1), Tag(5), payload).await;
            }
        });
        sim.spawn("b", async move {
            for _ in 0..20 {
                let env = b.recv(Some(Rank(0)), Some(Tag(5))).await;
                got2.borrow_mut().push(env.payload.expect_bytes()[0]);
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), (0..20u8).collect::<Vec<_>>());
    }

    #[test]
    fn wildcard_source_receives_from_all() {
        let (mut sim, fabric) = setup(3, FabricParams::qdr_infiniband());
        let root = fabric.add_endpoint(NodeId(0));
        let senders: Vec<_> = (1..3).map(|i| fabric.add_endpoint(NodeId(i))).collect();
        let got = Rc::new(RefCell::new(Vec::new()));
        for ep in senders {
            sim.spawn("s", async move {
                let r = ep.rank();
                ep.send(Rank(0), Tag(9), Payload::from_vec(vec![r.0 as u8]))
                    .await;
            });
        }
        let got2 = Rc::clone(&got);
        sim.spawn("root", async move {
            for _ in 0..2 {
                let env = root.recv(None, Some(Tag(9))).await;
                got2.borrow_mut().push(env.src.0);
            }
        });
        sim.run();
        let mut srcs = got.borrow().clone();
        srcs.sort_unstable();
        assert_eq!(srcs, vec![1, 2]);
    }

    #[test]
    fn isend_overlaps_and_completes() {
        let (mut sim, fabric) = setup(2, FabricParams::qdr_infiniband());
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let count = Rc::new(RefCell::new(0));
        let count2 = Rc::clone(&count);
        sim.spawn("a", async move {
            let reqs: Vec<_> = (0..4)
                .map(|i| a.isend(Rank(1), Tag(i), Payload::from_vec(vec![i as u8; 50_000])))
                .collect();
            for r in reqs {
                r.await;
            }
        });
        sim.spawn("b", async move {
            for i in 0..4 {
                let env = b.recv(Some(Rank(0)), Some(Tag(i))).await;
                assert_eq!(env.payload.len(), 50_000);
                *count2.borrow_mut() += 1;
            }
        });
        sim.run();
        assert_eq!(*count.borrow(), 4);
    }

    #[test]
    fn rendezvous_sender_completion_before_arrival() {
        // Sender completes at serialization end; the receiver sees the data
        // one latency later. Verify the sender is not charged the latency.
        let params = FabricParams {
            latency: SimDuration::from_millis(10), // exaggerated
            ..FabricParams::qdr_infiniband()
        };
        let (mut sim, fabric) = setup(2, params);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let t_send = Rc::new(RefCell::new(SimTime::ZERO));
        let t_recv = Rc::new(RefCell::new(SimTime::ZERO));
        {
            let t_send = Rc::clone(&t_send);
            let h = sim.handle();
            sim.spawn("a", async move {
                a.send(Rank(1), Tag(0), Payload::size_only(1 << 20)).await;
                *t_send.borrow_mut() = h.now();
            });
        }
        {
            let t_recv = Rc::clone(&t_recv);
            let h = sim.handle();
            sim.spawn("b", async move {
                b.recv(None, None).await;
                *t_recv.borrow_mut() = h.now();
            });
        }
        sim.run();
        let dt = t_recv.borrow().since(*t_send.borrow());
        // Receiver lags the sender by roughly one latency.
        assert!(
            dt >= SimDuration::from_millis(9) && dt <= SimDuration::from_millis(11),
            "lag {dt}"
        );
    }

    #[test]
    fn corrupt_fault_damages_delivered_bytes() {
        use dacc_sim::fault::{FaultHook, LinkFault};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Corrupts the first wire message only.
        struct CorruptFirst(AtomicUsize);
        impl FaultHook for CorruptFirst {
            fn on_transmit(&self, _: usize, _: usize, _: u64, _: SimTime) -> LinkFault {
                if self.0.fetch_add(1, Ordering::Relaxed) == 0 {
                    LinkFault::Corrupt
                } else {
                    LinkFault::Deliver
                }
            }
        }

        let (mut sim, fabric) = setup(2, FabricParams::qdr_infiniband());
        fabric
            .topology()
            .set_fault_hook(Some(Arc::new(CorruptFirst(AtomicUsize::new(0)))));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let data = vec![0u8; 64];
        sim.spawn("a", async move {
            a.send(Rank(1), Tag(1), Payload::from_vec(vec![0u8; 64]))
                .await;
            a.send(Rank(1), Tag(2), Payload::from_vec(vec![0u8; 64]))
                .await;
        });
        let out = sim.spawn("b", async move {
            let first = b.recv(None, Some(Tag(1))).await;
            let second = b.recv(None, Some(Tag(2))).await;
            (
                first.payload.expect_bytes().to_vec(),
                second.payload.expect_bytes().to_vec(),
            )
        });
        sim.run();
        let (first, second) = out.try_take().unwrap();
        assert_ne!(first, data, "corrupted message must differ");
        assert_eq!(first.len(), data.len(), "length is preserved");
        assert_eq!(second, data, "later traffic is untouched");
        assert_eq!(fabric.topology().corrupted_messages(), 1);
    }

    #[test]
    fn size_only_payload_flows_through() {
        let (mut sim, fabric) = setup(2, FabricParams::qdr_infiniband());
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let got = Rc::new(RefCell::new(0u64));
        let got2 = Rc::clone(&got);
        sim.spawn("a", async move {
            a.send(Rank(1), Tag(0), Payload::size_only(64 << 20)).await;
        });
        sim.spawn("b", async move {
            *got2.borrow_mut() = b.recv(None, None).await.payload.len();
        });
        sim.run();
        assert_eq!(*got.borrow(), 64 << 20);
    }
}

#[cfg(test)]
mod timeout_tests {
    use super::*;
    use crate::topology::{FabricParams, Topology};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup() -> (Sim, Fabric) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        (sim, fabric)
    }

    #[test]
    fn recv_timeout_returns_none_when_nothing_arrives() {
        let (mut sim, fabric) = setup();
        let a = fabric.add_endpoint(NodeId(0));
        let h = sim.handle();
        let out = sim.spawn("t", async move {
            let start = h.now();
            let got = a
                .recv_timeout(None, Some(Tag(1)), SimDuration::from_micros(50))
                .await;
            (got.is_none(), h.now().since(start))
        });
        sim.run();
        let (timed_out, elapsed) = out.try_take().unwrap();
        assert!(timed_out);
        assert_eq!(elapsed, SimDuration::from_micros(50));
    }

    #[test]
    fn recv_timeout_delivers_early_message() {
        let (mut sim, fabric) = setup();
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        sim.spawn("sender", async move {
            b.send(Rank(0), Tag(2), Payload::from_vec(vec![5])).await;
        });
        let out = sim.spawn("recv", async move {
            a.recv_timeout(Some(Rank(1)), Some(Tag(2)), SimDuration::from_millis(10))
                .await
        });
        sim.run();
        let env = out.try_take().unwrap().expect("message should arrive");
        assert_eq!(env.payload.expect_bytes().as_ref(), &[5]);
    }

    #[test]
    fn cancelled_recv_does_not_steal_later_messages() {
        // A timed-out receive must not consume a message that arrives
        // afterwards: the next real receive gets it.
        let (mut sim, fabric) = setup();
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let h = sim.handle();
        sim.spawn("sender", async move {
            h.delay(SimDuration::from_micros(100)).await;
            b.send(Rank(0), Tag(3), Payload::from_vec(vec![9])).await;
        });
        let out = sim.spawn("recv", async move {
            let first = a
                .recv_timeout(None, Some(Tag(3)), SimDuration::from_micros(10))
                .await;
            assert!(first.is_none(), "timed out receive must return None");
            // The message arrives later and is matched by a fresh receive.
            let second = a.recv(None, Some(Tag(3))).await;
            second.payload.expect_bytes()[0]
        });
        sim.run();
        assert_eq!(out.try_take(), Some(9));
    }

    #[test]
    fn matched_rendezvous_completes_within_deadline() {
        // A large (rendezvous) message whose RTS arrived before the recv:
        // the handshake is answered and the payload lands well inside a
        // generous deadline.
        let (mut sim, fabric) = setup();
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let h = sim.handle();
        let done = Rc::new(RefCell::new(0u64));
        {
            let done = Rc::clone(&done);
            sim.spawn("recv", async move {
                // Let the RTS arrive first.
                h.delay(SimDuration::from_micros(50)).await;
                let env = a
                    .recv_timeout(None, Some(Tag(4)), SimDuration::from_secs(1))
                    .await
                    .expect("matched rendezvous must complete");
                *done.borrow_mut() = env.payload.len();
            });
        }
        sim.spawn("send", async move {
            b.send(Rank(0), Tag(4), Payload::size_only(1 << 20)).await;
        });
        sim.run();
        assert_eq!(*done.borrow(), 1 << 20);
    }

    #[test]
    fn deadline_covers_rendezvous_data_phase() {
        // The payload of a matched rendezvous is lost in the fabric: the
        // deadline must still fire (old semantics wedged here), and the
        // receiver must stay usable for later traffic.
        use dacc_sim::fault::{FaultHook, LinkFault};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Drops the 3rd wire message (RTS, CTS, then Data) only.
        struct DropData(AtomicUsize);
        impl FaultHook for DropData {
            fn on_transmit(&self, _: usize, _: usize, _: u64, _: SimTime) -> LinkFault {
                if self.0.fetch_add(1, Ordering::Relaxed) == 2 {
                    LinkFault::Drop
                } else {
                    LinkFault::Deliver
                }
            }
        }

        let (mut sim, fabric) = setup();
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        fabric
            .topology()
            .set_fault_hook(Some(Arc::new(DropData(AtomicUsize::new(0)))));
        {
            let fabric = fabric.clone();
            sim.spawn("send", async move {
                b.send(Rank(0), Tag(4), Payload::size_only(1 << 20)).await;
                // Second, intact message after the fault window.
                fabric.topology().set_fault_hook(None);
                b.send(Rank(0), Tag(4), Payload::size_only(128)).await;
            });
        }
        let out = sim.spawn("recv", async move {
            let lost = a
                .recv_timeout(None, Some(Tag(4)), SimDuration::from_millis(1))
                .await;
            let next = a
                .recv_timeout(None, Some(Tag(4)), SimDuration::from_secs(1))
                .await;
            (lost.is_none(), next.map(|e| e.payload.len()))
        });
        sim.run();
        let (timed_out, next) = out.try_take().unwrap();
        assert!(timed_out, "lost payload must not wedge the receiver");
        assert_eq!(next, Some(128));
    }

    #[test]
    fn send_timeout_abandons_unanswered_rendezvous() {
        // No receiver ever posts: a rendezvous send_timeout gives up and
        // returns false; an eager-sized one returns true immediately.
        let (mut sim, fabric) = setup();
        let a = fabric.add_endpoint(NodeId(0));
        let _b = fabric.add_endpoint(NodeId(1));
        let h = sim.handle();
        let out = sim.spawn("send", async move {
            let t0 = h.now();
            let big = a
                .send_timeout(
                    Rank(1),
                    Tag(7),
                    Payload::size_only(1 << 20),
                    SimDuration::from_millis(1),
                )
                .await;
            let waited = h.now().since(t0);
            let small = a
                .send_timeout(
                    Rank(1),
                    Tag(7),
                    Payload::from_vec(vec![1]),
                    SimDuration::from_millis(1),
                )
                .await;
            (big, waited, small)
        });
        sim.run();
        let (big, waited, small) = out.try_take().unwrap();
        assert!(!big, "unanswered rendezvous must be abandoned");
        assert!(waited >= SimDuration::from_millis(1));
        assert!(small, "eager sends are fire-and-forget");
    }

    #[test]
    fn send_timeout_delivers_when_cts_arrives() {
        let (mut sim, fabric) = setup();
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        sim.spawn("recv", async move {
            let env = b.recv(None, Some(Tag(8))).await;
            assert_eq!(env.payload.len(), 1 << 20);
        });
        let out = sim.spawn("send", async move {
            a.send_timeout(
                Rank(1),
                Tag(8),
                Payload::size_only(1 << 20),
                SimDuration::from_secs(1),
            )
            .await
        });
        sim.run();
        assert_eq!(out.try_take(), Some(true));
    }

    #[test]
    fn a_loopback_cts_may_beat_its_send_deadline_onto_the_calendar() {
        // With no per-message or sender overhead, a loopback request-to-send
        // is matched, and its clear-to-send is in, before the sender learns
        // that the request is out and arms its deadline: the deadline then
        // finds no send, yet its entry still moves the clock.
        let mut sim = Sim::new();
        let h = sim.handle();
        let params = FabricParams {
            per_message: SimDuration::ZERO,
            o_send: SimDuration::ZERO,
            ..FabricParams::qdr_infiniband()
        };
        let fabric = Fabric::new(&h, Topology::new(&h, 1, params));
        let (a, b) = (
            fabric.add_endpoint(NodeId(0)),
            fabric.add_endpoint(NodeId(0)),
        );
        sim.spawn("recv", async move {
            b.recv(None, Some(Tag(9))).await;
        });
        let out = sim.spawn("send", async move {
            let big = Payload::size_only(1 << 20);
            a.send_timeout(Rank(1), Tag(9), big, SimDuration::from_secs(1))
                .await
        });
        let end = sim.run();
        assert_eq!(out.try_take(), Some(true));
        assert_eq!(end.time, SimTime::ZERO + SimDuration::from_secs(1));
    }
}

#[cfg(test)]
mod sendrecv_tests {
    use super::*;
    use crate::topology::{FabricParams, Topology};

    #[test]
    fn symmetric_sendrecv_does_not_deadlock() {
        // Both ranks exchange large (rendezvous) messages simultaneously —
        // naive blocking sends would deadlock; a nonblocking send must not.
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        // Post the send nonblocking, receive, then complete the send.
        let ja = sim.spawn("a", async move {
            let send = a.isend(Rank(1), Tag(1), Payload::from_vec(vec![1u8; 100_000]));
            let got = a.recv(Some(Rank(1)), Some(Tag(1))).await.payload.len();
            send.await;
            got
        });
        let jb = sim.spawn("b", async move {
            let send = b.isend(Rank(0), Tag(1), Payload::from_vec(vec![2u8; 50_000]));
            let got = b.recv(Some(Rank(0)), Some(Tag(1))).await.payload.len();
            send.await;
            got
        });
        sim.run();
        assert_eq!(ja.try_take(), Some(50_000));
        assert_eq!(jb.try_take(), Some(100_000));
    }
}

#[cfg(test)]
mod iprobe_tests {
    use super::*;
    use crate::topology::{FabricParams, Topology};

    #[test]
    fn iprobe_sees_unexpected_messages_without_consuming() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        sim.spawn("send", async move {
            // Small (eager) and large (rendezvous) messages.
            a.send(Rank(1), Tag(1), Payload::from_vec(vec![1, 2, 3]))
                .await;
            a.send(Rank(1), Tag(2), Payload::size_only(1 << 20)).await;
        });
        let out = sim.spawn("probe", {
            let h = h.clone();
            async move {
                // Nothing arrived yet at t=0.
                let early = b.iprobe(None, None).is_none();
                h.delay(SimDuration::from_millis(1)).await;
                // Both envelopes are now queued unexpected.
                let p1 = b.iprobe(Some(Rank(0)), Some(Tag(1)));
                let p2 = b.iprobe(None, Some(Tag(2)));
                let p3 = b.iprobe(None, Some(Tag(9)));
                // Probing does not consume: receives still succeed.
                let e1 = b.recv(None, Some(Tag(1))).await;
                let e2 = b.recv(None, Some(Tag(2))).await;
                (early, p1, p2, p3, e1.payload.len(), e2.payload.len())
            }
        });
        sim.run();
        let (early, p1, p2, p3, l1, l2) = out.try_take().unwrap();
        assert!(early, "probe before arrival must be None");
        assert_eq!(p1, Some((Rank(0), Tag(1), 3)));
        assert_eq!(p2, Some((Rank(0), Tag(2), 1 << 20)));
        assert_eq!(p3, None);
        assert_eq!((l1, l2), (3, 1 << 20));
    }
}

#[cfg(test)]
mod arrival_tests {
    //! Arrival is a calendar entry and matching a plain function call:
    //! exact event counts, same-instant order, faults, teardown.

    use super::*;
    use crate::topology::{FabricParams, Topology, TopologySpec};
    use dacc_sim::fault::{FaultHook, LinkFault};

    const SPECS: [TopologySpec; 3] = [
        TopologySpec::SingleSwitch,
        TopologySpec::FatTree { radix: 2 },
        TopologySpec::Dragonfly { groups: 3 },
    ];

    fn setup(nodes: usize, params: FabricParams, spec: TopologySpec) -> (Sim, Fabric) {
        let sim = Sim::new();
        let h = sim.handle();
        let fabric = Fabric::new(&h, Topology::with_spec(&h, nodes, params, spec));
        (sim, fabric)
    }

    /// Events of one run in which rank 0 sends `payload` to rank 1, whose
    /// receive is already posted when the message arrives.
    fn events_of_one_message(payload: Payload) -> u64 {
        let (mut sim, fabric) = setup(
            2,
            FabricParams::qdr_infiniband(),
            TopologySpec::SingleSwitch,
        );
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let len = payload.len();
        sim.spawn("a", async move { a.send(Rank(1), Tag(1), payload).await });
        let got = sim.spawn("b", async move { b.recv(None, None).await.payload.len() });
        let out = sim.run();
        assert_eq!((got.try_take(), out.pending_tasks), (Some(len), 0));
        out.events
    }

    /// Events one eager message costs between two idle endpoints, first
    /// polls of the two application tasks included. Sender 3: first poll
    /// (starts the request), the `o_send` call (injects the frame on idle
    /// wires and completes the request), poll. Frame 2: the
    /// end-of-serialization call (counts it, schedules the arrival, frees the
    /// wires), the arrival call (matches the posted receive). Receiver 3:
    /// first poll (posts the receive), the `o_recv` call (completes it),
    /// poll. No poll is spent on being woken just to arm a timer.
    const EAGER_MSG_EVENTS: u64 = 8;
    /// The same for one rendezvous message. Sender 3: first poll, the
    /// `o_send` call (injects the RTS), and the poll after the payload's
    /// end-of-serialization call completed the request. Frames 6: end of
    /// serialization and arrival of the RTS (the arrival matches and injects
    /// the CTS), of the CTS (the arrival injects the payload) and of the
    /// payload. Receiver 3, as above.
    const RENDEZVOUS_MSG_EVENTS: u64 = 12;

    #[test]
    fn one_message_costs_a_pinned_number_of_events() {
        // A regression in per-message events fails here, not in a benchmark.
        assert_eq!(
            events_of_one_message(Payload::size_only(512)),
            EAGER_MSG_EVENTS
        );
        assert_eq!(
            events_of_one_message(Payload::size_only(1 << 20)),
            RENDEZVOUS_MSG_EVENTS
        );
    }

    #[test]
    fn same_instant_arrivals_match_in_send_order_per_source_and_calendar_order_across() {
        // Zero wire time and a fixed latency per step: frames from two
        // sources at the same distance reach node 0 at the same instant.
        // Each source's frames must match in send order; across sources the
        // order is that of the calendar entries, i.e. of injection (rank 1's
        // tasks run before rank 2's at every instant).
        let params = FabricParams {
            latency: SimDuration::from_micros(2),
            ..FabricParams::ideal()
        };
        for spec in SPECS {
            // Nodes 2 and 3 are equidistant from node 0 in every model.
            let (mut sim, fabric) = setup(6, params, spec);
            let dst = fabric.add_endpoint(NodeId(0));
            let hops = fabric.topology().hops(NodeId(2), NodeId(0));
            assert_eq!(hops, fabric.topology().hops(NodeId(3), NodeId(0)));
            for node in [2usize, 3] {
                let ep = fabric.add_endpoint(NodeId(node));
                sim.spawn("src", async move {
                    for i in 0..3u8 {
                        ep.send(Rank(0), Tag(9), Payload::from_vec(vec![i])).await;
                    }
                });
            }
            let h = sim.handle();
            let got = sim.spawn("dst", async move {
                let mut got = Vec::new();
                for _ in 0..6 {
                    let env = dst.recv(None, Some(Tag(9))).await;
                    got.push((env.src.0, env.payload.expect_bytes()[0], h.now()));
                }
                got
            });
            let out = sim.run();
            assert_eq!(out.pending_tasks, 0, "{spec}");
            let got = got.try_take().unwrap();
            let arrival = SimTime::ZERO + SimDuration::from_micros(2 * hops as u64);
            assert!(got.iter().all(|&(_, _, t)| t == arrival), "{spec}: {got:?}");
            let order: Vec<_> = got.iter().map(|&(src, i, _)| (src, i)).collect();
            assert_eq!(
                order,
                [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
                "{spec}"
            );
        }
    }

    /// Applies `fault` to every frame crossing `link`.
    struct OnLink {
        link: usize,
        fault: LinkFault,
    }
    impl FaultHook for OnLink {
        fn on_link(&self, link: usize, _: SimTime) -> LinkFault {
            if link == self.link {
                self.fault
            } else {
                LinkFault::Deliver
            }
        }
    }

    #[test]
    fn a_frame_dropped_at_any_hop_never_reaches_matching() {
        // Dragonfly, node 1 -> node 4: TX wire 2, global link 13, RX wire 9.
        for (hop, link) in [(0usize, 2usize), (1, 13), (2, 9)] {
            let (mut sim, fabric) = setup(
                6,
                FabricParams::qdr_infiniband(),
                TopologySpec::Dragonfly { groups: 3 },
            );
            assert_eq!(
                fabric.topology().route_of(NodeId(1), NodeId(4))[hop],
                [link]
            );
            fabric.topology().set_fault_hook(Some(Arc::new(OnLink {
                link,
                fault: LinkFault::Drop,
            })));
            let dst = fabric.add_endpoint(NodeId(4));
            let src = fabric.add_endpoint(NodeId(1));
            sim.spawn("src", async move {
                src.send(Rank(0), Tag(1), Payload::from_vec(vec![7; 64]))
                    .await;
            });
            // A receive is posted: an arrival would complete it.
            let got = sim.spawn("dst", async move {
                dst.recv_timeout(None, None, SimDuration::from_millis(1))
                    .await
            });
            let out = sim.run();
            assert!(got.try_take().unwrap().is_none(), "hop {hop}");
            assert_eq!(fabric.topology().dropped_messages(), 1, "hop {hop}");
            assert_eq!(out.pending_tasks, 0, "hop {hop}");
        }
    }

    #[test]
    fn corruption_damages_exactly_the_delivered_payload() {
        // Eager and rendezvous, corrupted on the global link of a dragonfly
        // route: one bit of the delivered copy flips, the sender's buffer
        // and the length stay intact, and control packets pass unharmed.
        for len in [64usize, 100_000] {
            let (mut sim, fabric) = setup(
                6,
                FabricParams::qdr_infiniband(),
                TopologySpec::Dragonfly { groups: 3 },
            );
            fabric.topology().set_fault_hook(Some(Arc::new(OnLink {
                link: 13,
                fault: LinkFault::Corrupt,
            })));
            let dst = fabric.add_endpoint(NodeId(4));
            let src = fabric.add_endpoint(NodeId(1));
            let sent = Payload::from_vec((0..len).map(|i| i as u8).collect());
            let kept = sent.clone();
            sim.spawn("src", async move { src.send(Rank(0), Tag(1), sent).await });
            let got = sim.spawn("dst", async move { dst.recv(None, None).await.payload });
            sim.run();
            let got = got.try_take().unwrap();
            let (got, kept) = (got.expect_bytes(), kept.expect_bytes());
            assert_eq!(got.len(), kept.len());
            let flipped: u32 = got
                .iter()
                .zip(kept.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "{len} B");
            assert!(kept.iter().enumerate().all(|(i, &b)| b == i as u8));
        }
    }

    #[test]
    fn dropping_the_sim_frees_messages_in_flight_and_queued() {
        // One message sits unmatched in rank 1's unexpected queue, one is a
        // frame in the topology's slab (propagating to its destination or to
        // its next hop): both own a payload, the second a handle onto the
        // fabric. The calendar owns neither: its entry names the frame.
        let params = FabricParams {
            latency: SimDuration::from_millis(10),
            ..FabricParams::qdr_infiniband()
        };
        for spec in SPECS {
            let (mut sim, fabric) = setup(4, params, spec);
            let a = fabric.add_endpoint(NodeId(0));
            let b = fabric.add_endpoint(NodeId(2));
            let h = sim.handle();
            sim.spawn("a", async move {
                a.send(Rank(1), Tag(1), Payload::from_vec(vec![1; 256]))
                    .await;
                h.delay(SimDuration::from_millis(100)).await;
                a.send(Rank(1), Tag(2), Payload::from_vec(vec![2; 256]))
                    .await;
            });
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(101));
            assert_eq!(b.iprobe(None, None), Some((Rank(0), Tag(1), 256)));
            assert!(b.iprobe(None, Some(Tag(2))).is_none(), "{spec}: in flight");
            let state = Rc::downgrade(&b.state);
            let inner = Rc::downgrade(&fabric.inner);
            let topo = fabric.topology().sentinel();
            drop((b, fabric));
            // The unexpected queue (and its payload) goes with the state,
            // the frame in flight (and its payload) with the topology that
            // held it: nothing on the calendar keeps either.
            assert!(topo.upgrade().is_none(), "{spec}: topology leaked");
            assert!(state.upgrade().is_none(), "{spec}: matching state leaked");
            assert!(inner.upgrade().is_none(), "{spec}: fabric leaked");
            drop(sim);
        }
    }

    #[test]
    fn dropping_the_sim_frees_queued_frames_and_open_requests() {
        // What tasks used to own, records now do, and no record may keep the
        // fabric alive once the sim and the handles are gone: frames queued
        // behind a busy link (owned by the link), a send awaiting its CTS
        // and a receive never matched (owned by the matching state), none of
        // them ever awaited.
        for spec in SPECS {
            let (mut sim, fabric) = setup(4, FabricParams::qdr_infiniband(), spec);
            let a = fabric.add_endpoint(NodeId(0));
            let b = fabric.add_endpoint(NodeId(2));
            let c = fabric.add_endpoint(NodeId(1));
            // Four frames leave `a` at the same instant: one serializes for
            // ~4.8 us, three queue behind it on the TX wire.
            for i in 0..4u8 {
                drop(a.isend(Rank(1), Tag(1), Payload::from_vec(vec![i; 12 << 10])));
            }
            // No receive for this one: its RTS will wait at `b` unmatched.
            drop(c.isend(Rank(1), Tag(2), Payload::from_vec(vec![9; 64 << 10])));
            drop(b.irecv(Some(Rank(0)), Some(Tag(3))));
            sim.run_until(SimTime::ZERO + SimDuration::from_micros(3));
            let tx = fabric.topology().tx_stats(NodeId(0));
            assert_eq!(tx.acquisitions, 1, "{spec}: three frames are queued");
            assert_eq!(c.state.borrow().cts_waiting.iter().count(), 1, "{spec}");
            assert_eq!(b.state.borrow().posted.len(), 1, "{spec}");

            let topo = fabric.topology().sentinel();
            let inner = Rc::downgrade(&fabric.inner);
            let states = [&a, &b, &c].map(|ep| Rc::downgrade(&ep.state));
            drop((a, b, c, fabric));
            // The frames (on the wire and queued) are records of the
            // topology, and the calendar's entries only name them.
            drop(sim);
            assert!(topo.upgrade().is_none(), "{spec}: topology leaked");
            assert!(inner.upgrade().is_none(), "{spec}: fabric leaked");
            for state in states {
                assert!(state.upgrade().is_none(), "{spec}: matching state leaked");
            }
        }
    }

    #[test]
    fn an_unawaited_request_is_neither_cancelled_nor_leaked() {
        for spec in SPECS {
            let (mut sim, fabric) = setup(4, FabricParams::qdr_infiniband(), spec);
            let a = fabric.add_endpoint(NodeId(0));
            let b = fabric.add_endpoint(NodeId(2));
            // Dropped on the spot: an eager and a rendezvous send, and the
            // receive that takes the first of them.
            drop(a.isend(Rank(1), Tag(1), Payload::from_vec(vec![1; 64])));
            drop(a.isend(Rank(1), Tag(2), Payload::from_vec(vec![2; 100_000])));
            drop(b.irecv(None, Some(Tag(1))));
            let b2 = b.clone();
            let got = sim.spawn("b", async move { b2.recv(None, None).await });
            let out = sim.run();
            assert_eq!(out.pending_tasks, 0, "{spec}");
            // The rendezvous went through its whole handshake unattended...
            let env = got.try_take().expect("delivered");
            assert_eq!((env.tag, env.payload.len()), (Tag(2), 100_000), "{spec}");
            // ... the dropped receive consumed the message it matched, and
            // no record of either is left behind.
            assert_eq!(b.iprobe(None, None), None, "{spec}");
            for ep in [&a, &b] {
                let st = ep.state.borrow();
                assert!(st.posted.is_empty() && st.unexpected.is_empty(), "{spec}");
                assert!(
                    st.cts_waiting.iter().next().is_none()
                        && st.data_waiting.iter().next().is_none()
                );
            }
        }
    }

    /// Drops the first frame whose route crosses `link`.
    struct DropFirstOn {
        link: usize,
        seen: std::sync::atomic::AtomicUsize,
    }
    impl FaultHook for DropFirstOn {
        fn on_link(&self, link: usize, _: SimTime) -> LinkFault {
            use std::sync::atomic::Ordering::Relaxed;
            if link == self.link && self.seen.fetch_add(1, Relaxed) == 0 {
                LinkFault::Drop
            } else {
                LinkFault::Deliver
            }
        }
    }

    #[test]
    fn a_frame_lost_at_any_hop_frees_its_links_for_the_frames_queued_behind() {
        // Dragonfly, 3 groups of 2: nodes 0 and 1 reach node 4 over global
        // link 13, node 2 over global link 15; all end on RX wire 9. Three
        // senders with three frames each keep a queue on a TX wire (hop 0),
        // on the shared global link (hop 1) and on the RX wire (hop 2). A
        // lost frame occupies its wires up to and including the hop it dies
        // on and none after: every other frame must still arrive, in its
        // sender's order, no later than on the healthy fabric — and at the
        // very same instant when the frame dies on the last hop.
        let run = |fault: Option<usize>| {
            let (mut sim, fabric) = setup(
                6,
                FabricParams::qdr_infiniband(),
                TopologySpec::Dragonfly { groups: 3 },
            );
            fabric.topology().set_fault_hook(fault.map(|link| {
                Arc::new(DropFirstOn {
                    link,
                    seen: Default::default(),
                }) as Arc<dyn FaultHook>
            }));
            let dst = fabric.add_endpoint(NodeId(4));
            for node in [0usize, 1, 2] {
                let ep = fabric.add_endpoint(NodeId(node));
                for i in 0..3u8 {
                    drop(ep.isend(Rank(0), Tag(1), Payload::from_vec(vec![i; 4096])));
                }
            }
            let h = sim.handle();
            let got = sim.spawn("dst", async move {
                let mut got = Vec::new();
                let patience = SimDuration::from_millis(1);
                while let Some(env) = dst.recv_timeout(None, None, patience).await {
                    got.push((env.src.0, env.payload.expect_bytes()[0], h.now()));
                }
                got
            });
            let out = sim.run();
            assert_eq!(out.pending_tasks, 0);
            let peaks: Vec<u64> = fabric
                .topology()
                .link_stats()
                .iter()
                .map(|l| l.peak_queue)
                .collect();
            let dropped = fabric.topology().dropped_messages();
            (got.try_take().unwrap(), peaks, dropped)
        };
        let (healthy, peaks, _) = run(None);
        assert_eq!(healthy.len(), 9);
        for (hop, link) in [(0usize, 2usize), (1, 13), (2, 9)] {
            assert!(peaks[link] >= 1, "hop {hop}: a queue forms on link {link}");
            let (got, _, dropped) = run(Some(link));
            assert_eq!(dropped, 1, "hop {hop}");
            assert_eq!(got.len(), 8, "hop {hop}: {got:?}");
            for &(src, i, at) in &got {
                let on_time = healthy
                    .iter()
                    .any(|&(s, j, t)| (s, j) == (src, i) && at <= t && (hop < 2 || at == t));
                assert!(on_time, "hop {hop}: frame {i} of rank {src} at {at}");
            }
            for src in 1..=3 {
                let seq: Vec<u8> = got.iter().filter(|m| m.0 == src).map(|m| m.1).collect();
                assert!(seq.is_sorted(), "hop {hop}: rank {src} reordered: {seq:?}");
            }
        }
    }
}

#[cfg(test)]
mod finish_tests {
    //! A send's [`Finish`] runs when its bytes go on the wire: at the post
    //! for an eager message, at the clear-to-send for a rendezvous one,
    //! never for an abandoned one.

    use super::*;
    use crate::topology::{FabricParams, Topology};
    use dacc_sim::fault::{FaultHook, LinkFault};

    thread_local! {
        /// Bodies [`tail`] finished on this thread.
        static FINISHED: Cell<u32> = const { Cell::new(0) };
    }

    const TAIL: &[u8] = b"tail";

    /// Appends [`TAIL`], counting the call.
    fn tail(body: &Payload) -> Payload {
        FINISHED.with(|n| n.set(n.get() + 1));
        let mut wire = body.to_bytes().to_vec();
        wire.extend_from_slice(TAIL);
        Payload::from_vec(wire)
    }

    const FINISH: Finish = Finish {
        apply: tail,
        extra: TAIL.len() as u64,
    };

    fn finished() -> u32 {
        FINISHED.with(Cell::get)
    }

    fn body(len: usize) -> Payload {
        Payload::from_vec((0..len).map(|i| (i % 251) as u8).collect())
    }

    fn setup() -> (Sim, Endpoint, Endpoint) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        (sim, a, b)
    }

    /// Rendezvous-sized on QDR InfiniBand (12 KiB eager threshold).
    const LARGE: usize = 100_000;

    /// Notes a send's outcome, and how many bodies were finished by then.
    struct Sent(Cell<Option<(bool, u32)>>);
    impl Complete<bool> for Sent {
        fn complete(self: Rc<Self>, _: u64, ok: bool) {
            self.0.set(Some((ok, finished())));
        }
    }

    fn sent() -> (Rc<Sent>, Reply<bool>) {
        let sent = Rc::new(Sent(Cell::new(None)));
        let reply = Reply::to(&sent, 0);
        (sent, reply)
    }

    #[test]
    fn an_eager_send_is_finished_once_at_the_post() {
        let (mut sim, a, b) = setup();
        a.isend_then(Rank(1), Tag(1), body(64), Some(FINISH), None, sent().1);
        assert_eq!(finished(), 1, "finished before the post returns");
        let got = sim.spawn("b", async move { b.recv(None, None).await.payload });
        sim.run();
        assert_eq!(finished(), 1);
        assert_eq!(got.try_take().unwrap().len(), 64 + TAIL.len() as u64);
    }

    #[test]
    fn a_rendezvous_send_is_finished_once_at_its_clear_to_send() {
        let (mut sim, a, b) = setup();
        let (sent, on_done) = sent();
        a.isend_then(Rank(1), Tag(1), body(LARGE), Some(FINISH), None, on_done);
        assert_eq!(finished(), 0, "not finished at the post");
        let h = sim.handle();
        let got = sim.spawn("b", async move {
            // The request-to-send waits unmatched until the receive is posted.
            h.delay(SimDuration::from_millis(1)).await;
            let before = finished();
            (before, b.recv(None, None).await.payload)
        });
        sim.run();
        let (before_cts, got) = got.try_take().unwrap();
        assert_eq!(before_cts, 0, "not finished before its clear-to-send");
        assert_eq!(sent.0.get(), Some((true, 1)), "finished once, then sent");
        assert_eq!(got.expect_bytes(), tail(&body(LARGE)).expect_bytes());
    }

    #[test]
    fn eight_rendezvous_sends_posted_at_once_are_finished_one_per_clear_to_send() {
        let (mut sim, a, b) = setup();
        for i in 0..8 {
            a.isend_then(Rank(1), Tag(i), body(LARGE), Some(FINISH), None, sent().1);
        }
        assert_eq!(finished(), 0);
        // One receive at a time: the clear-to-send of the next message only
        // leaves once the last one is in.
        let seen = sim.spawn("b", async move {
            let mut seen = Vec::new();
            for i in 0..8 {
                b.recv(None, Some(Tag(i))).await;
                seen.push(finished());
            }
            seen
        });
        sim.run();
        assert_eq!(seen.try_take().unwrap(), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn a_send_abandoned_at_its_deadline_is_never_finished() {
        let (mut sim, a, _b) = setup();
        let (sent, on_done) = sent();
        let deadline = Some(SimDuration::from_millis(1));
        a.isend_then(
            Rank(1),
            Tag(1),
            body(LARGE),
            Some(FINISH),
            deadline,
            on_done,
        );
        sim.run();
        assert_eq!(sent.0.get().map(|(ok, _)| ok), Some(false), "abandoned");
        assert_eq!(finished(), 0);
    }

    /// Corrupts every frame that carries payload bytes.
    struct CorruptData;
    impl FaultHook for CorruptData {
        fn on_transmit(&self, _: usize, _: usize, bytes: u64, _: SimTime) -> LinkFault {
            if bytes > 0 {
                LinkFault::Corrupt
            } else {
                LinkFault::Deliver
            }
        }
    }

    #[test]
    fn the_receiver_gets_the_finished_bytes_and_corruption_damages_them() {
        let want = tail(&body(LARGE)).to_bytes();
        for corrupt in [false, true] {
            let (mut sim, a, b) = setup();
            if corrupt {
                let topo = a.fabric().topology();
                topo.set_fault_hook(Some(Arc::new(CorruptData)));
            }
            a.isend_then(Rank(1), Tag(1), body(LARGE), Some(FINISH), None, sent().1);
            let got = sim.spawn("b", async move { b.recv(None, None).await.payload });
            sim.run();
            let got = got.try_take().unwrap().to_bytes();
            assert_eq!(got.len(), want.len());
            let flipped: u32 = got
                .iter()
                .zip(want.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            assert_eq!(flipped, u32::from(corrupt), "corrupt: {corrupt}");
        }
    }
}
