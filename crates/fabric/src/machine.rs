//! The servers' one effect vocabulary and one perform loop.
//!
//! The accelerator resource manager and the back-end daemon are state
//! machines that never await: each turns an input into an ordered list of
//! [`Effect`]s, which its driver performs with [`perform`]. The core
//! effects mean the same to both; a machine adds its own plain-data notes
//! (`N`) and blocking calls (`C`). With neither a tracer nor telemetry
//! attached, counters, gauges and notes are not emitted at all.

use bytes::Bytes;
use dacc_sim::prelude::*;
use dacc_sim::trace::Tracer;
use dacc_telemetry::Telemetry;

use crate::codec::EncodeBuf;
use crate::mpi::{Endpoint, Rank, Tag};
use crate::payload::Payload;

/// One thing for a driver to do. `Delay` and `Run` block.
#[derive(Debug)]
pub enum Effect<C, N> {
    /// Send encoded bytes.
    Send(Rank, Tag, Bytes),
    /// Pay a CPU cost.
    Delay(SimDuration),
    /// Perform one of the machine's blocking calls.
    Run(C),
    /// Add to a telemetry counter.
    Count(&'static str, u64),
    /// Record a duration into a histogram.
    Observe(&'static str, SimDuration),
    /// Set a gauge.
    Gauge(&'static str, f64),
    /// A trace event, span edge or signal for the driver.
    Note(N),
}

/// An effect list, whether its driver records, and the arena every sent
/// message is encoded through.
pub struct Effects<C, N> {
    list: Vec<Effect<C, N>>,
    record: bool,
    enc: EncodeBuf,
}

impl<C, N> Effects<C, N> {
    /// An empty list; `record` if the driver renders notes and counts.
    pub fn new(record: bool) -> Self {
        // A list rarely outgrows 8.
        let list = Vec::with_capacity(8);
        Effects {
            list,
            record,
            enc: EncodeBuf::new(),
        }
    }

    /// Append an effect whatever the record bit.
    pub fn push(&mut self, effect: Effect<C, N>) {
        self.list.push(effect);
    }

    fn recorded(&mut self, effect: Effect<C, N>) {
        if self.record {
            self.list.push(effect);
        }
    }

    /// Encode one message through the arena, counting its bytes.
    pub fn encode(&mut self, encode: impl FnOnce(&mut EncodeBuf) -> Bytes) -> Bytes {
        let bytes = encode(&mut self.enc);
        self.count("wire.encode_bytes", bytes.len() as u64);
        bytes
    }

    /// Encode one message and send it.
    pub fn send(&mut self, to: Rank, tag: Tag, encode: impl FnOnce(&mut EncodeBuf) -> Bytes) {
        let bytes = self.encode(encode);
        self.push(Effect::Send(to, tag, bytes));
    }

    /// A note, when recording.
    pub fn note(&mut self, note: N) {
        self.recorded(Effect::Note(note));
    }

    /// Add to a counter, when recording.
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.recorded(Effect::Count(name, n));
    }

    /// Record a duration, when recording.
    pub fn observe(&mut self, name: &'static str, d: SimDuration) {
        self.recorded(Effect::Observe(name, d));
    }

    /// Set a gauge, when recording.
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        self.recorded(Effect::Gauge(name, v));
    }

    /// Take the effects out in order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect<C, N>> {
        self.list.drain(..)
    }
}

/// A driver's handles, read from its endpoint's fabric when it starts.
pub struct Io {
    /// The server's endpoint.
    pub ep: Endpoint,
    /// The simulation clock.
    pub handle: SimHandle,
    /// Counters, histograms and spans.
    pub tele: Telemetry,
    /// Trace events.
    pub tracer: Tracer,
}

impl Io {
    /// The handles of `ep`'s fabric.
    pub fn new(ep: Endpoint) -> Self {
        let fabric = ep.fabric();
        let (handle, tele, tracer) = (fabric.handle().clone(), fabric.telemetry(), fabric.tracer());
        Io {
            ep,
            handle,
            tele,
            tracer,
        }
    }

    /// The record bit of every [`Effects`] this driver performs.
    pub fn records(&self) -> bool {
        self.tracer.is_enabled() || self.tele.is_enabled()
    }
}

/// A server as [`perform`] sees it: its handles, its own calls and notes,
/// and how it goes on after a blocking effect.
// The simulator is single-threaded: no future here needs to be `Send`.
#[allow(async_fn_in_trait)]
pub trait Machine {
    /// A blocking call.
    type Call;
    /// A plain-data note.
    type Note;
    /// A call's outcome.
    type Outcome;
    /// The driver's handles.
    fn io(&self) -> &Io;
    /// Perform one blocking call.
    async fn run(&mut self, call: Self::Call) -> Self::Outcome;
    /// Render one note.
    fn note(&mut self, note: Self::Note);
    /// Go on after a list whose last blocking effect was a call with this
    /// outcome, or a delay (`None`), appending the next list to `fx`.
    fn finish(&mut self, outcome: Option<Self::Outcome>, fx: &mut Effects<Self::Call, Self::Note>);
}

/// Perform `fx` in order, then hand the last blocking effect's outcome to
/// [`Machine::finish`] and perform what it appends; stop after a list
/// without one.
pub async fn perform<M: Machine>(m: &mut M, fx: &mut Effects<M::Call, M::Note>) {
    loop {
        let mut blocked = None;
        for effect in fx.drain() {
            let io = m.io();
            match effect {
                Effect::Send(to, tag, bytes) => {
                    io.ep.send(to, tag, Payload::from_bytes(bytes)).await
                }
                Effect::Delay(d) => {
                    io.handle.delay(d).await;
                    blocked = Some(None);
                }
                Effect::Run(call) => blocked = Some(Some(m.run(call).await)),
                Effect::Count(name, n) => io.tele.count(name, n),
                Effect::Observe(name, d) => io.tele.observe(name, d),
                Effect::Gauge(name, v) => io.tele.gauge(name, v),
                Effect::Note(note) => m.note(note),
            }
        }
        let Some(outcome) = blocked else {
            return;
        };
        m.finish(outcome, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi::Fabric;
    use crate::topology::{FabricParams, NodeId, Topology};

    /// Runs take `call` ns and answer `2 * call`; `finish` logs what it
    /// was handed and appends a next list until three have gone by.
    struct Doubler {
        io: Io,
        log: Vec<String>,
    }

    impl Machine for Doubler {
        type Call = u64;
        type Note = &'static str;
        type Outcome = u64;

        fn io(&self) -> &Io {
            &self.io
        }

        async fn run(&mut self, call: u64) -> u64 {
            self.io.handle.delay(SimDuration::from_nanos(call)).await;
            2 * call
        }

        fn note(&mut self, note: &'static str) {
            let now = self.io.handle.now().as_nanos();
            self.log.push(format!("{note}@{now}"));
        }

        fn finish(&mut self, outcome: Option<u64>, fx: &mut Effects<u64, &'static str>) {
            self.log.push(format!("finish {outcome:?}"));
            match self.log.len() {
                ..=3 => fx.push(Effect::Delay(SimDuration::from_nanos(5))),
                4 | 5 => fx.push(Effect::Run(7)),
                _ => fx.push(Effect::Note("done")),
            }
        }
    }

    #[test]
    fn perform_hands_the_last_blocking_outcome_to_finish() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let fabric = Fabric::new(&h, Topology::new(&h, 1, FabricParams::qdr_infiniband()));
        let io = Io::new(fabric.add_endpoint(NodeId(0)));
        let log = sim.spawn("machine", async move {
            let mut m = Doubler {
                io,
                log: Vec::new(),
            };
            let mut fx = Effects::new(true);
            fx.push(Effect::Run(3));
            fx.note("after run");
            fx.push(Effect::Delay(SimDuration::from_nanos(1)));
            fx.push(Effect::Run(4));
            perform(&mut m, &mut fx).await;
            m.log
        });
        sim.run();
        let want = [
            "after run@3",
            "finish Some(8)",
            "finish None",
            "finish None",
            "finish Some(14)",
            "finish Some(14)",
            "done@32",
        ];
        assert_eq!(log.try_take().unwrap(), want);
    }

    #[test]
    fn without_recording_only_sends_and_pushes_remain() {
        for record in [false, true] {
            let mut fx: Effects<(), &'static str> = Effects::new(record);
            fx.count("c", 1);
            fx.observe("o", SimDuration::ZERO);
            fx.gauge("g", 1.0);
            fx.note("n");
            fx.push(Effect::Note("signal"));
            fx.send(Rank(1), Tag(2), |enc| {
                enc.buf().extend_from_slice(b"hi");
                enc.take()
            });
            let kinds: Vec<String> = (fx.drain())
                .map(|e| match e {
                    Effect::Send(_, _, bytes) => format!("send {}", bytes.len()),
                    Effect::Note(n) => n.to_string(),
                    Effect::Count(name, n) => format!("{name} {n}"),
                    other => format!("{other:?}"),
                })
                .collect();
            let want: &[&str] = match record {
                false => &["signal", "send 2"],
                true => &[
                    "c 1",
                    "Observe(\"o\", 0ns)",
                    "Gauge(\"g\", 1.0)",
                    "n",
                    "signal",
                    "wire.encode_bytes 2",
                    "send 2",
                ],
            };
            assert_eq!(kinds, want);
        }
    }
}
