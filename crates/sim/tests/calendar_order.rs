//! The calendar against a reference model: random schedules with many
//! same-instant ties, mixing plain calls, records' entries, withdrawable
//! calls (some withdrawn before the run, some by a call that runs first)
//! and timers (some dropped, then armed again). Whatever fires must fire in
//! the order of a `BinaryHeap<(time, seq)>`, and the run must end at the
//! model's instant after the model's number of events: a withdrawn or
//! dropped entry still counts, and still moves the clock.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::{poll_fn, Future};
use std::rc::{Rc, Weak};
use std::task::Poll;

use dacc_sim::executor::CallKey;
use dacc_sim::prelude::*;
use proptest::prelude::*;

/// One scheduled thing, at `at` microseconds.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A plain call; it withdraws withdrawable call `withdraws` (by op
    /// index) when it runs, if that one has not fired yet.
    Call { at: u64, withdraws: Option<usize> },
    /// A withdrawable call, withdrawn before the run or not.
    Cancellable { at: u64, withdrawn: bool },
    /// A record's entry ([`SimHandle::schedule`]).
    Scheduled { at: u64 },
    /// A task's timer, or a timer the task drops once armed before it
    /// awaits one at `again`.
    Timer { at: u64, again: Option<u64> },
}

/// An op from a drawn tuple: its kind, its instant (from 1 us: a timer due
/// now is ready without an entry), and the choices it may use — a target,
/// a second instant (0 for none), a flag.
fn op((kind, at, target, again, flag): (u8, u64, usize, u64, bool)) -> Op {
    match kind {
        0 => Op::Call {
            at,
            withdraws: flag.then_some(target),
        },
        1 => Op::Cancellable {
            at,
            withdrawn: flag,
        },
        2 => Op::Scheduled { at },
        _ => Op::Timer {
            at,
            again: (again > 0).then_some(again),
        },
    }
}

/// What fired, in order: op indices.
type Log = Rc<RefCell<Vec<usize>>>;

/// The records of withdrawable calls and scheduled entries.
struct Records(Log);
impl Complete<()> for Records {
    fn complete(self: Rc<Self>, index: u64, (): ()) {
        self.0.borrow_mut().push(index as usize);
    }
}

fn us(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(n)
}

/// Run `ops` on a `Sim`: what fired, and how the run ended.
fn simulate(ops: &[Op]) -> (Vec<usize>, RunOutcome) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let log: Log = Rc::default();
    let records = Rc::new(Records(Rc::clone(&log)));
    let kind = h.kind(Rc::downgrade(&records) as Weak<dyn Complete<()>>);
    let keys: Rc<RefCell<Vec<Option<CallKey>>>> = Rc::new(RefCell::new(vec![None; ops.len()]));
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Call { at, withdraws } => {
                let (h2, log, keys) = (h.clone(), Rc::clone(&log), Rc::clone(&keys));
                h.call_at(us(at), move || {
                    log.borrow_mut().push(i);
                    if let Some(key) = withdraws.and_then(|w| keys.borrow().get(w).copied()?) {
                        h2.cancel(key);
                    }
                });
            }
            Op::Cancellable { at, withdrawn } => {
                let key = h.call_cancellable_at(us(at), kind, i as u32);
                if withdrawn {
                    assert!(h.cancel(key), "a pending call is withdrawn");
                }
                keys.borrow_mut()[i] = Some(key);
            }
            Op::Scheduled { at } => h.schedule(us(at), kind, i as u32),
            Op::Timer { at, again } => {
                let (h2, log) = (h.clone(), Rc::clone(&log));
                sim.spawn("timer", async move {
                    if let Some(again) = again {
                        // Armed and dropped; its slot is armed again below.
                        let mut dropped = Box::pin(h2.delay_until(us(at)));
                        poll_fn(|cx| {
                            let _ = dropped.as_mut().poll(cx);
                            Poll::Ready(())
                        })
                        .await;
                        drop(dropped);
                        h2.delay_until(us(again)).await;
                    } else {
                        h2.delay_until(us(at)).await;
                    }
                    log.borrow_mut().push(i);
                });
            }
        }
    }
    let out = sim.run();
    let fired = log.borrow().clone();
    drop(records);
    (fired, out)
}

/// The reference: every entry in a `BinaryHeap<(time, seq)>`, `seq` in
/// registration order — the calls in program order, then each task's
/// timers as its first poll arms them, in spawn order.
fn model(ops: &[Op]) -> (Vec<usize>, u64, SimTime) {
    // (time, seq) -> (op, live)
    let mut entries = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Call { at, .. } | Op::Scheduled { at } => entries.push((at, i, true)),
            Op::Cancellable { at, withdrawn } => entries.push((at, i, !withdrawn)),
            Op::Timer { .. } => {}
        }
    }
    let mut polls = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        if let Op::Timer { at, again } = op {
            polls += 2; // the first poll, and the one its timer wakes
            match again {
                Some(again) => {
                    entries.push((at, usize::MAX, false));
                    entries.push((again, i, true));
                }
                None => entries.push((at, i, true)),
            }
        }
    }
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (seq, &(at, _, _)) in entries.iter().enumerate() {
        heap.push(Reverse((at, seq)));
    }
    let mut live: Vec<bool> = entries.iter().map(|e| e.2).collect();
    let (mut fired, mut events, mut end) = (Vec::new(), 0u64, 0u64);
    while let Some(Reverse((at, seq))) = heap.pop() {
        events += 1;
        end = at;
        if !live[seq] {
            continue;
        }
        let op = entries[seq].1;
        fired.push(op);
        if let Op::Call {
            withdraws: Some(w), ..
        } = ops[op]
        {
            if matches!(ops.get(w), Some(Op::Cancellable { .. })) {
                if let Some(target) = entries.iter().position(|e| e.1 == w) {
                    live[target] = false;
                }
            }
        }
    }
    (fired, events + polls, us(end))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn entries_fire_in_reference_heap_order(
        drawn in proptest::collection::vec((0u8..4, 1u64..7, 0usize..64, 0u64..7, any::<bool>()), 1..400)
    ) {
        let ops: Vec<Op> = drawn.into_iter().map(op).collect();
        let (fired, out) = simulate(&ops);
        let (want, events, end) = model(&ops);
        prop_assert_eq!(fired, want);
        prop_assert_eq!(out.events, events);
        prop_assert_eq!(out.time, end);
        prop_assert_eq!(out.pending_tasks, 0);
    }
}
