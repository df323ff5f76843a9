//! Timing-golden test for the message-passing fabric.
//!
//! One seeded traffic mix — message sizes on both sides of the eager
//! threshold, blocking and nonblocking sends and receives, wildcard
//! receives, two to nine senders per receiver (some sharing a NIC), replies
//! flowing against the stream, a `send_timeout` that is abandoned and a
//! `recv_timeout` that leaves a tombstone — runs on each of the three
//! topology models, and everything a protocol above the fabric could observe
//! is folded into one hash per model: `(src, dst, tag, send-complete ns,
//! receive-complete ns)` of every message, each receiver's delivery order,
//! the outcome and instant of every deadline, and every link's
//! acquisitions, busy time, bytes, frames and peak queue.
//!
//! The constants below were generated with the fabric of commit 03590db
//! (sender-side injection, clear-to-send and nonblocking requests as helper
//! tasks: `mpi.eager`, `mpi.cts`, `mpi.isend`, `mpi.irecv`, `fabric.forward`)
//! and must never be edited by a change that claims to keep the fabric's
//! timing: a different hash means some message completed at a different
//! virtual nanosecond, was matched in a different order, or queued
//! differently behind a link. `RunOutcome::events` and the number of tasks
//! are *not* part of the hash — those are what such changes are for.
//!
//! One shape is deliberately constrained. The helper task behind an `isend`
//! charged `o_send` from its own first poll, after the poll that called
//! `isend` had returned: a blocking `send` issued by that same poll armed
//! its `o_send` first and overtook the nonblocking one on the wire (and in
//! matching, against MPI's non-overtaking rule). A request charges
//! `o_send` from the call. Here virtual time always passes between posting
//! a request and the poster's next send, so both read the same.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dacc_fabric::prelude::*;
use dacc_fabric::topology::TopologySpec;
use dacc_sim::prelude::*;

const SEED: u64 = 0xDACC_0023;
const NODES: usize = 12;

/// Messages delivered by one run of the scenario (same on every model).
const GOLDEN_MESSAGES: usize = 225;
/// FNV-1a per topology model, see [`run_scenario`].
const GOLDEN: [(TopologySpec, u64); 3] = [
    (TopologySpec::SingleSwitch, 0x178c_8c91_ca0a_6327),
    (TopologySpec::FatTree { radix: 4 }, 0xea96_b2b0_bc03_ce70),
    (TopologySpec::Dragonfly { groups: 3 }, 0x8ee4_500c_e92d_8613),
];

/// Payload sizes straddling the 12 KiB eager threshold.
const SIZES: [u64; 9] = [
    0,
    64,
    512,
    4096,
    12 * 1024,
    12 * 1024 + 1,
    40_000,
    128 * 1024,
    1 << 20,
];
const GAPS_NS: [u64; 6] = [0, 0, 150, 700, 2_500, 20_000];

/// Tag of a stream message: unique per `(sender, k)`.
fn stream_tag(k: usize) -> Tag {
    Tag(100 + k as u32)
}
const REPLY: Tag = Tag(7);
const NEVER_RECEIVED: Tag = Tag(9_999);
const LATE: Tag = Tag(8_000);

#[derive(Default)]
struct Log {
    /// `(src, dst, tag) -> send-complete ns`.
    sent: BTreeMap<(usize, usize, u32), u64>,
    /// `(src, dst, tag) -> receive-complete ns`.
    received: BTreeMap<(usize, usize, u32), u64>,
    /// Per receiver, `(src, tag)` in delivery order.
    order: BTreeMap<usize, Vec<(usize, u32)>>,
    /// Deadline outcomes: `(what, rank, outcome, ns)`.
    deadlines: Vec<(&'static str, usize, bool, u64)>,
}

#[derive(Clone)]
struct World {
    h: SimHandle,
    log: Rc<RefCell<Log>>,
}

impl World {
    fn now(&self) -> u64 {
        self.h.now().as_nanos()
    }

    fn sent(&self, src: Rank, dst: Rank, tag: Tag) {
        let prev = self
            .log
            .borrow_mut()
            .sent
            .insert((src.0, dst.0, tag.0), self.now());
        assert!(prev.is_none(), "{src} -> {dst} tag {} sent twice", tag.0);
    }

    fn received(&self, dst: Rank, env: &Envelope) {
        let mut log = self.log.borrow_mut();
        let prev = log
            .received
            .insert((env.src.0, dst.0, env.tag.0), self.now());
        assert!(prev.is_none(), "{} -> {dst} received twice", env.src);
        log.order
            .entry(dst.0)
            .or_default()
            .push((env.src.0, env.tag.0));
    }

    fn deadline(&self, what: &'static str, rank: Rank, outcome: bool) {
        let now = self.now();
        self.log
            .borrow_mut()
            .deadlines
            .push((what, rank.0, outcome, now));
    }

    async fn gap(&self, ns: u64) {
        self.h.delay(SimDuration::from_nanos(ns)).await;
    }
}

fn pick(rng: &mut SimRng, from: &[u64]) -> u64 {
    from[rng.index(from.len())]
}

/// How a receiver takes its stream.
#[derive(Clone, Copy)]
enum RecvStyle {
    /// Blocking `recv(None, None)`: any source, any tag.
    Wildcard,
    /// Blocking `recv(None, Some(tag))` walking the tags round by round:
    /// any source, so same-tag messages match in arrival order.
    AnySource,
    /// A window of `irecv(Some(src), None)` kept posted per sender.
    Preposted,
}

struct Receiver {
    node: usize,
    senders: Vec<usize>,
    style: RecvStyle,
}

/// Messages each stream sender sends.
const PER_SENDER: usize = 14;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Run the mix on `spec`; returns (messages delivered, hash).
fn run_scenario(spec: TopologySpec) -> (usize, u64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let topo = Topology::with_spec(&h, NODES, FabricParams::qdr_infiniband(), spec);
    let fabric = Fabric::new(&h, topo);
    let w = World {
        h: h.clone(),
        log: Rc::new(RefCell::new(Log::default())),
    };
    let mut rng = SimRng::new(SEED);

    // Receivers on nodes 0, 5, 9 (distinct fat-tree edges and dragonfly
    // groups) with 9, 2 and 5 senders; sender nodes repeat, so some
    // senders share a NIC with each other or with a receiver.
    let receivers = [
        Receiver {
            node: 0,
            senders: vec![1, 2, 3, 4, 6, 7, 8, 10, 11],
            style: RecvStyle::Wildcard,
        },
        Receiver {
            node: 5,
            senders: vec![4, 9],
            style: RecvStyle::Preposted,
        },
        Receiver {
            node: 9,
            senders: vec![0, 1, 5, 6, 11],
            style: RecvStyle::AnySource,
        },
    ];

    for r in receivers {
        let rx = fabric.add_endpoint(NodeId(r.node));
        let rx_rank = rx.rank();
        let mut sender_ranks = Vec::new();
        for (i, &node) in r.senders.iter().enumerate() {
            let tx = fabric.add_endpoint(NodeId(node));
            sender_ranks.push(tx.rank());
            // Every third sender sends blocking only and waits for a reply to
            // each message; the others post a third of theirs nonblocking.
            let wants_reply = i % 3 == 0;
            let plan: Vec<(u64, u64, bool)> = (0..PER_SENDER)
                .map(|_| {
                    (
                        pick(&mut rng, &SIZES),
                        pick(&mut rng, &GAPS_NS),
                        rng.index(3) == 0 && !wants_reply,
                    )
                })
                .collect();
            let w = w.clone();
            sim.spawn("sender", async move {
                let me = tx.rank();
                let mut posted = Vec::new();
                for (k, (size, gap, nonblocking)) in plan.into_iter().enumerate() {
                    // Virtual time passes between posting a request and the
                    // next send (see the module docs).
                    let just_posted = posted.last().is_some_and(|(t, _)| *t == stream_tag(k - 1));
                    w.gap(if just_posted { gap.max(150) } else { gap }).await;
                    let tag = stream_tag(k);
                    let payload = Payload::size_only(size);
                    if nonblocking {
                        posted.push((tag, tx.isend(rx_rank, tag, payload)));
                        continue;
                    }
                    tx.send(rx_rank, tag, payload).await;
                    w.sent(me, rx_rank, tag);
                    if wants_reply {
                        let env = tx.recv(Some(rx_rank), Some(REPLY)).await;
                        assert_eq!(env.payload.len(), u64::from(tag.0));
                    }
                    // Complete outstanding requests in batches of three.
                    if posted.len() >= 3 {
                        for (tag, req) in posted.drain(..) {
                            req.await;
                            w.sent(me, rx_rank, tag);
                        }
                    }
                }
                for (tag, req) in posted {
                    req.await;
                    w.sent(me, rx_rank, tag);
                }
            });
        }

        let total = r.senders.len() * PER_SENDER;
        let replies_to: Vec<Rank> = sender_ranks.iter().copied().step_by(3).collect();
        let w = w.clone();
        let style = r.style;
        let think = pick(&mut rng, &[0, 300, 1_200]);
        sim.spawn("receiver", async move {
            let me = rx.rank();
            // Replies flow against the stream and carry the tag back.
            let answer = |env: &Envelope| replies_to.contains(&env.src);
            let mut reply_reqs = Vec::new();
            let mut got = 0usize;
            let mut windows: Vec<(Rank, usize)> = sender_ranks.iter().map(|&s| (s, 0)).collect();
            let mut inflight = std::collections::VecDeque::new();
            while got < total {
                let env = match style {
                    RecvStyle::Wildcard => rx.recv(None, None).await,
                    RecvStyle::AnySource => {
                        // Round-robin over tags: `got / senders` is the
                        // round, every sender sends each tag once.
                        let tag = stream_tag(got / sender_ranks.len());
                        rx.recv(None, Some(tag)).await
                    }
                    RecvStyle::Preposted => {
                        // Keep two receives posted per sender.
                        for (src, posted) in windows.iter_mut() {
                            while *posted < PER_SENDER
                                && inflight.iter().filter(|(s, _)| s == src).count() < 2
                            {
                                inflight.push_back((*src, rx.irecv(Some(*src), None)));
                                *posted += 1;
                            }
                        }
                        let (_, req) = inflight.pop_front().expect("a receive is posted");
                        req.await
                    }
                };
                w.received(me, &env);
                got += 1;
                w.gap(think).await;
                if answer(&env) {
                    // Nonblocking, so a rendezvous stream is never stalled
                    // behind its own reply.
                    reply_reqs.push(rx.isend(env.src, REPLY, Payload::size_only(env.tag.0.into())));
                }
            }
            for req in reply_reqs {
                req.await;
            }
        });
    }

    // A quiet endpoint: nobody ever receives here. One rendezvous
    // `send_timeout` to it is abandoned at its deadline, one eager-sized
    // one is fire-and-forget.
    let quiet = fabric.add_endpoint(NodeId(3));
    let quiet_rank = quiet.rank();
    {
        let tx = fabric.add_endpoint(NodeId(7));
        let w = w.clone();
        sim.spawn("abandoner", async move {
            w.gap(5_000).await;
            let ok = tx
                .send_timeout(
                    quiet_rank,
                    NEVER_RECEIVED,
                    Payload::size_only(256 * 1024),
                    SimDuration::from_micros(40),
                )
                .await;
            w.deadline("send_timeout.rendezvous", tx.rank(), ok);
            let ok = tx
                .send_timeout(
                    quiet_rank,
                    NEVER_RECEIVED,
                    Payload::size_only(256),
                    SimDuration::from_micros(40),
                )
                .await;
            w.deadline("send_timeout.eager", tx.rank(), ok);
        });
    }

    // Deadlined receives on node 2: one never matched, one whose payload
    // (1 MiB: ~375 us on the wire) is still outstanding when the deadline
    // hits after the handshake — it leaves a tombstone and the payload is
    // discarded on arrival — and one that completes in time.
    {
        let rx = fabric.add_endpoint(NodeId(2));
        let tx = fabric.add_endpoint(NodeId(8));
        let (rx_rank, tx_rank) = (rx.rank(), tx.rank());
        let w2 = w.clone();
        sim.spawn("late.sender", async move {
            w2.gap(10_000).await;
            tx.send(rx_rank, LATE, Payload::size_only(1 << 20)).await;
            w2.sent(tx_rank, rx_rank, LATE);
            tx.send(rx_rank, Tag(LATE.0 + 1), Payload::size_only(64 * 1024))
                .await;
            w2.sent(tx_rank, rx_rank, Tag(LATE.0 + 1));
        });
        let w2 = w.clone();
        sim.spawn("late.receiver", async move {
            let none = rx
                .recv_timeout(None, Some(Tag(1)), SimDuration::from_micros(3))
                .await;
            w2.deadline("recv_timeout.unmatched", rx_rank, none.is_some());
            let lost = rx
                .recv_timeout(Some(tx_rank), Some(LATE), SimDuration::from_micros(100))
                .await;
            w2.deadline("recv_timeout.tombstone", rx_rank, lost.is_some());
            let env = rx
                .recv_timeout(None, None, SimDuration::from_millis(5))
                .await;
            w2.deadline("recv_timeout.in_time", rx_rank, env.is_some());
            w2.received(rx_rank, &env.expect("the second message arrives in time"));
        });
    }

    let out = sim.run();

    let log = w.log.borrow();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (&(src, dst, tag), &t_recv) in &log.received {
        let t_send = log.sent[&(src, dst, tag)];
        for v in [src as u64, dst as u64, u64::from(tag), t_send, t_recv] {
            fnv(&mut hash, &v.to_le_bytes());
        }
    }
    for (&dst, order) in &log.order {
        fnv(&mut hash, &(dst as u64).to_le_bytes());
        for &(src, tag) in order {
            fnv(&mut hash, &(src as u64).to_le_bytes());
            fnv(&mut hash, &u64::from(tag).to_le_bytes());
        }
    }
    for &(what, rank, outcome, ns) in &log.deadlines {
        fnv(&mut hash, what.as_bytes());
        for v in [rank as u64, u64::from(outcome), ns] {
            fnv(&mut hash, &v.to_le_bytes());
        }
    }
    for link in fabric.topology().link_stats() {
        fnv(&mut hash, link.name.as_bytes());
        for v in [
            link.acquisitions,
            link.busy_time.as_nanos(),
            link.bytes,
            link.msgs,
            link.peak_queue,
        ] {
            fnv(&mut hash, &v.to_le_bytes());
        }
    }
    fnv(&mut hash, &out.time.as_nanos().to_le_bytes());

    // The deadlines went the way the scenario intends.
    let outcomes: Vec<_> = log.deadlines.iter().map(|d| (d.0, d.2)).collect();
    for expect in [
        ("send_timeout.rendezvous", false),
        ("send_timeout.eager", true),
        ("recv_timeout.unmatched", false),
        ("recv_timeout.tombstone", false),
        ("recv_timeout.in_time", true),
    ] {
        assert!(
            outcomes.contains(&expect),
            "{spec}: {expect:?} in {outcomes:?}"
        );
    }
    // The tombstoned message was sent in full and never received.
    assert!(log.sent.keys().any(|k| k.2 == LATE.0), "{spec}");
    assert!(!log.received.keys().any(|k| k.2 == LATE.0), "{spec}");
    (log.received.len(), hash)
}

#[test]
fn message_timing_and_link_accounting_match_the_task_based_fabric() {
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(spec, _)| (spec, run_scenario(spec)))
        .collect();
    let report = || {
        got.iter()
            .map(|(spec, (n, hash))| format!("{spec}: {n} messages, hash {hash:#018x}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for ((spec, (n, hash)), (_, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(*n, GOLDEN_MESSAGES, "{spec}\n{}", report());
        assert_eq!(*hash, golden, "{spec}\n{}", report());
    }
}

#[test]
fn the_scenario_is_deterministic() {
    let spec = TopologySpec::FatTree { radix: 4 };
    assert_eq!(run_scenario(spec), run_scenario(spec));
}
