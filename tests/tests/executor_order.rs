//! Order-golden test for the `dacc-sim` executor.
//!
//! One seeded scenario drives every scheduling shape the stack relies on —
//! same-instant timer ties, a channel with several senders, oneshot RPCs, a
//! contended [`Resource`], spawns nested inside polls, `join_all`, raced
//! timeouts, a task that finishes while still queued, barrier and flag
//! wake-ups, a parked daemon — and folds `(task name, virtual ns)` of
//! **every poll** into one hash. The constants below were generated with the
//! executor of commit a645222 (`HashMap` task table, per-poll `Arc` wakers,
//! `Mutex` state) and must never be edited by a change that claims to keep
//! the ordering contract: a different hash means some task was polled at a
//! different virtual time or in a different order.
//!
//! One shape is deliberately constrained. A [`Timer`](dacc_sim::executor::Timer)
//! that is re-polled while pending (inside `join_all` or a hand-rolled race)
//! is always the *last* thing its task waits for: the a645222 executor armed
//! a fresh calendar entry on each such poll, and the duplicates popped as
//! extra polls of a still-running task. Here they can only hit a finished
//! task, which no executor polls, so the poll sequence is the same with and
//! without the duplicates. `RunOutcome::events` does count them and is
//! therefore not part of the hash.

use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use dacc_sim::channel::oneshot::OneSender;
use dacc_sim::prelude::*;

/// Polls recorded by one run of the scenario.
const GOLDEN_POLLS: u64 = 198;
/// FNV-1a over `(task name, virtual ns)` of every poll, in poll order, then
/// the stop time and the number of parked tasks.
const GOLDEN_HASH: u64 = 0xc285_8dce_1d3c_76d5;

const SEED: u64 = 0xDACC_0015;

struct Recorder {
    h: SimHandle,
    hash: Cell<u64>,
    polls: Cell<u64>,
}

impl Recorder {
    fn fold(&self, bytes: &[u8]) {
        let mut x = self.hash.get();
        for &b in bytes {
            x ^= u64::from(b);
            x = x.wrapping_mul(0x100_0000_01b3);
        }
        self.hash.set(x);
    }

    fn note_poll(&self, name: &str) {
        self.fold(name.as_bytes());
        self.fold(&[0xff]);
        self.fold(&self.h.now().as_nanos().to_le_bytes());
        self.polls.set(self.polls.get() + 1);
    }
}

/// Records every poll of the wrapped task before forwarding it.
struct Traced {
    name: &'static str,
    rec: Rc<Recorder>,
    fut: Pin<Box<dyn Future<Output = ()>>>,
}

impl Future for Traced {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.rec.note_poll(self.name);
        self.fut.as_mut().poll(cx)
    }
}

#[derive(Clone)]
struct World {
    h: SimHandle,
    rec: Rc<Recorder>,
}

impl World {
    fn spawn(&self, name: &'static str, fut: impl Future<Output = ()> + 'static) -> JoinHandle<()> {
        self.h.spawn(
            name,
            Traced {
                name,
                rec: Rc::clone(&self.rec),
                fut: Box::pin(fut),
            },
        )
    }

    fn us(&self, us: u64) -> dacc_sim::executor::Timer {
        self.h.delay(SimDuration::from_micros(us))
    }
}

fn pick(rng: &mut SimRng, from: &[u64]) -> u64 {
    from[rng.index(from.len())]
}

/// Resolve with `Some(output)` if `fut` finishes first, `None` if `timer`
/// does; both are polled, in that order, on every wake.
async fn race<F: Future>(fut: F, timer: dacc_sim::executor::Timer) -> Option<F::Output> {
    let mut fut = Box::pin(fut);
    let mut timer = Box::pin(timer);
    poll_fn(|cx| {
        if let Poll::Ready(v) = fut.as_mut().poll(cx) {
            return Poll::Ready(Some(v));
        }
        timer.as_mut().poll(cx).map(|()| None)
    })
    .await
}

fn run_scenario() -> (u64, u64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let rec = Rc::new(Recorder {
        h: h.clone(),
        hash: Cell::new(0xcbf2_9ce4_8422_2325),
        polls: Cell::new(0),
    });
    let w = World {
        h: h.clone(),
        rec: Rc::clone(&rec),
    };
    let mut rng = SimRng::new(SEED);

    // A: timers landing on the same instants; ties resolve by registration.
    for _ in 0..10 {
        let delays: Vec<u64> = (0..3).map(|_| pick(&mut rng, &[0, 5, 5, 10, 20])).collect();
        let w2 = w.clone();
        w.spawn("tick", async move {
            for d in delays {
                w2.us(d).await;
            }
        });
    }

    // B: four senders into one consumer that spawns children inside its poll
    // and draws its own delays as it goes (so a reordered delivery changes
    // every later timestamp).
    {
        let (tx, rx) = channel::<(u64, u64)>();
        for p in 0..4u64 {
            let tx = tx.clone();
            let gaps: Vec<u64> = (0..4).map(|_| pick(&mut rng, &[0, 0, 3, 5])).collect();
            let w2 = w.clone();
            w.spawn("mux.producer", async move {
                for (k, gap) in gaps.into_iter().enumerate() {
                    w2.us(gap).await;
                    tx.send((p, k as u64)).unwrap();
                }
            });
        }
        drop(tx);
        let w2 = w.clone();
        let mut own = SimRng::derive(SEED, "mux");
        w.spawn("mux.consumer", async move {
            let mut seen = 0u64;
            while let Ok((p, k)) = rx.recv().await {
                seen = seen.wrapping_mul(31) + p * 4 + k;
                if k % 2 == 0 {
                    let d = pick(&mut own, &[0, 2, 2, 6]);
                    let w3 = w2.clone();
                    w2.spawn("mux.child", async move {
                        w3.us(d).await;
                        yield_now().await;
                    });
                }
                if k == 3 {
                    w2.us(1).await;
                }
            }
            // The delivery order is part of the contract too.
            w2.rec.fold(&seen.to_le_bytes());
        });
    }

    // C: oneshot request/reply through a shared server.
    {
        let (req_tx, req_rx) = channel::<(u64, OneSender<u64>)>();
        let w2 = w.clone();
        w.spawn("rpc.server", async move {
            while let Ok((x, reply)) = req_rx.recv().await {
                w2.us(2).await;
                reply.send(x * 2);
            }
        });
        for c in 0..3u64 {
            let req_tx = req_tx.clone();
            let think: Vec<u64> = (0..3).map(|_| pick(&mut rng, &[0, 1, 4])).collect();
            let w2 = w.clone();
            w.spawn("rpc.client", async move {
                for (j, t) in think.into_iter().enumerate() {
                    let (otx, orx) = oneshot::<u64>();
                    let x = c * 10 + j as u64;
                    assert!(req_tx.send((x, otx)).is_ok());
                    assert_eq!(orx.await.unwrap(), x * 2);
                    w2.us(t).await;
                }
            });
        }
    }

    // D: a two-permit resource, contended; one waiter gives up while queued.
    let res = Resource::new(&h, "golden.res", 2);
    for u in 0..6usize {
        let res = res.clone();
        let arrive = pick(&mut rng, &[0, 0, 1]);
        let hold = pick(&mut rng, &[4, 4, 7]);
        let need = 1 + u % 2;
        let w2 = w.clone();
        w.spawn("res.user", async move {
            w2.us(arrive).await;
            let g = res.acquire_many(need).await;
            w2.us(hold).await;
            drop(g);
        });
    }
    {
        let res = res.clone();
        let w2 = w.clone();
        w.spawn("res.impatient", async move {
            w2.us(1).await;
            let got = race(res.acquire_many(2), w2.us(3)).await;
            drop(got);
        });
    }

    // E: spawns and wakes issued by one poll — the woken sink runs before
    // the children, the children in spawn order.
    {
        let (tx, rx) = channel::<u32>();
        w.spawn(
            "fanout.sink",
            async move { while rx.recv().await.is_ok() {} },
        );
        let w2 = w.clone();
        w.spawn("fanout", async move {
            w2.us(6).await;
            let mut kids = Vec::new();
            for (i, d) in [5u64, 0, 5].into_iter().enumerate() {
                let w3 = w2.clone();
                kids.push(w2.spawn("fanout.child", async move {
                    w3.us(d).await;
                }));
                tx.send(i as u32).unwrap();
            }
            for k in kids {
                k.await;
            }
        });
    }

    // F: join_all over a channel, a oneshot, the contended resource and a
    // timer that is re-polled on every sibling wake and finishes last.
    {
        let (ftx, frx) = channel::<u64>();
        let (otx, orx) = oneshot::<u64>();
        let w2 = w.clone();
        w.spawn("gather.feeder", async move {
            w2.us(7).await;
            ftx.send(70).unwrap();
            w2.us(5).await;
            otx.send(120);
        });
        let res = res.clone();
        let w2 = w.clone();
        w.spawn("gather", async move {
            type Part = Pin<Box<dyn Future<Output = u64>>>;
            let w3 = w2.clone();
            let parts: Vec<Part> = vec![
                Box::pin(async move { frx.recv().await.unwrap() }),
                Box::pin(async move { orx.await.unwrap() }),
                Box::pin(async move {
                    drop(res.acquire().await);
                    1
                }),
                Box::pin(async move {
                    w3.us(200).await;
                    200
                }),
            ];
            assert_eq!(join_all(parts).await, vec![70, 120, 1, 200]);
            assert_eq!(w2.h.now().as_nanos(), 200_000, "the timer finishes last");
        });
    }

    // G: raced timeouts. `racer.recv` re-polls one 500 us timer across six
    // messages and the messages win; `racer.timer` re-polls a 30 us timer
    // across two messages and the timer wins.
    {
        let (tx, rx) = channel::<u32>();
        let w2 = w.clone();
        w.spawn("racer.feeder", async move {
            for i in 0..6 {
                w2.us(3).await;
                tx.send(i).unwrap();
            }
        });
        let w2 = w.clone();
        w.spawn("racer.recv", async move {
            let six = async {
                for _ in 0..6 {
                    rx.recv().await.unwrap();
                }
            };
            assert!(race(six, w2.us(500)).await.is_some());
        });
    }
    {
        let (tx, rx) = channel::<u32>();
        let w2 = w.clone();
        w.spawn("racer.slow_feeder", async move {
            for i in 0..2 {
                w2.us(8).await;
                tx.send(i).unwrap();
            }
            w2.us(100).await;
        });
        let w2 = w.clone();
        w.spawn("racer.timer", async move {
            let three = async {
                for _ in 0..3 {
                    rx.recv().await.unwrap();
                }
            };
            assert!(race(three, w2.us(30)).await.is_none());
        });
    }

    // H: a task that wakes itself and finishes in the same poll stays in the
    // ready queue as a dead entry; yielders re-queue behind each other.
    {
        let w2 = w.clone();
        w.spawn("selfwake", async move {
            w2.us(9).await;
            poll_fn(|cx| {
                cx.waker().wake_by_ref();
                Poll::Ready(())
            })
            .await;
        });
        for _ in 0..2 {
            w.spawn("yielder", async move {
                for _ in 0..3 {
                    yield_now().await;
                }
            });
        }
    }

    // I: barrier rounds, then a flag that releases everyone at once.
    {
        let barrier = Barrier::new(3);
        let flag = EventFlag::new();
        for i in 0..3u64 {
            let barrier = barrier.clone();
            let flag = flag.clone();
            let w2 = w.clone();
            w.spawn("party", async move {
                for round in 0..2 {
                    w2.us(i * 2 + round).await;
                    barrier.wait().await;
                }
                flag.wait().await;
            });
        }
        let w2 = w.clone();
        w.spawn("flag.setter", async move {
            w2.us(15).await;
            flag.set();
        });
    }

    // J: a daemon parked on a mailbox whose sender outlives the run.
    let (daemon_tx, daemon_rx) = channel::<u32>();
    w.spawn(
        "daemon",
        async move { while daemon_rx.recv().await.is_ok() {} },
    );

    let out = sim.run();
    assert_eq!(sim.pending_task_names(), vec!["daemon"]);
    drop(daemon_tx);
    rec.fold(&out.time.as_nanos().to_le_bytes());
    rec.fold(&(out.pending_tasks as u64).to_le_bytes());
    (rec.polls.get(), rec.hash.get())
}

#[test]
fn poll_order_matches_the_golden_hash() {
    let (polls, hash) = run_scenario();
    assert_eq!(
        (polls, hash),
        (GOLDEN_POLLS, GOLDEN_HASH),
        "poll order changed: got polls={polls} hash={hash:#018x}"
    );
}

#[test]
fn poll_order_repeats_within_one_process() {
    assert_eq!(run_scenario(), run_scenario());
}
