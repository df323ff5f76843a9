//! Synchronization primitives for simulation tasks: barrier and event flag.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct BarrierInner {
    parties: usize,
    arrived: usize,
    generation: u64,
    wakers: Vec<Waker>,
}

/// Reusable barrier: `wait().await` blocks until `parties` tasks have called
/// it, then all proceed and the barrier resets for the next round.
#[derive(Clone)]
pub struct Barrier {
    inner: Rc<RefCell<BarrierInner>>,
}

impl Barrier {
    /// A barrier for `parties` tasks.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        Barrier {
            inner: Rc::new(RefCell::new(BarrierInner {
                parties,
                arrived: 0,
                generation: 0,
                wakers: Vec::new(),
            })),
        }
    }

    /// Arrive and wait for the rest of the group.
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            barrier: self.clone(),
            arrived_gen: None,
        }
    }
}

/// Future returned by [`Barrier::wait`].
pub struct BarrierWait {
    barrier: Barrier,
    arrived_gen: Option<u64>,
}

impl Future for BarrierWait {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.barrier.inner.borrow_mut();
        match self.arrived_gen {
            None => {
                inner.arrived += 1;
                let gen = inner.generation;
                if inner.arrived == inner.parties {
                    inner.arrived = 0;
                    inner.generation += 1;
                    for w in inner.wakers.drain(..) {
                        w.wake();
                    }
                    Poll::Ready(())
                } else {
                    inner.wakers.push(cx.waker().clone());
                    drop(inner);
                    self.arrived_gen = Some(gen);
                    Poll::Pending
                }
            }
            Some(gen) => {
                if inner.generation > gen {
                    Poll::Ready(())
                } else {
                    inner.wakers.push(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

struct FlagInner {
    set: bool,
    wakers: Vec<Waker>,
}

/// One-way latch: once set, every current and future waiter proceeds.
#[derive(Clone)]
pub struct EventFlag {
    inner: Rc<RefCell<FlagInner>>,
}

impl Default for EventFlag {
    fn default() -> Self {
        Self::new()
    }
}

impl EventFlag {
    /// An unset flag.
    pub fn new() -> Self {
        EventFlag {
            inner: Rc::new(RefCell::new(FlagInner {
                set: false,
                wakers: Vec::new(),
            })),
        }
    }

    /// Set the flag, waking all waiters. Idempotent.
    pub fn set(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.set = true;
        for w in inner.wakers.drain(..) {
            w.wake();
        }
    }

    /// True if already set.
    pub fn is_set(&self) -> bool {
        self.inner.borrow().set
    }

    /// Wait until the flag is set.
    pub fn wait(&self) -> FlagWait {
        FlagWait { flag: self.clone() }
    }
}

/// Future returned by [`EventFlag::wait`].
pub struct FlagWait {
    flag: EventFlag,
}

impl Future for FlagWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.flag.inner.borrow_mut();
        if inner.set {
            Poll::Ready(())
        } else {
            inner.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let mut sim = Sim::new();
        let barrier = Barrier::new(3);
        let times = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let b = barrier.clone();
            let h = sim.handle();
            let times = Rc::clone(&times);
            sim.spawn("p", async move {
                h.delay(SimDuration::from_micros(i * 10)).await;
                b.wait().await;
                times.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*times.borrow(), vec![20_000, 20_000, 20_000]);
    }

    #[test]
    fn barrier_is_reusable() {
        let mut sim = Sim::new();
        let barrier = Barrier::new(2);
        let count = Rc::new(RefCell::new(0));
        for i in 0..2u64 {
            let b = barrier.clone();
            let h = sim.handle();
            let count = Rc::clone(&count);
            sim.spawn("p", async move {
                for round in 0..5u64 {
                    h.delay(SimDuration::from_micros(i * (round + 1))).await;
                    b.wait().await;
                    *count.borrow_mut() += 1;
                }
            });
        }
        let out = sim.run();
        assert_eq!(*count.borrow(), 10);
        assert_eq!(out.pending_tasks, 0);
    }

    #[test]
    fn event_flag_wakes_waiters_and_latches() {
        let mut sim = Sim::new();
        let flag = EventFlag::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let f = flag.clone();
            let h = sim.handle();
            let times = Rc::clone(&times);
            sim.spawn("waiter", async move {
                f.wait().await;
                times.borrow_mut().push(h.now().as_nanos());
            });
        }
        {
            let f = flag.clone();
            let h = sim.handle();
            sim.spawn("setter", async move {
                h.delay(SimDuration::from_micros(7)).await;
                f.set();
            });
        }
        {
            // Late waiter: passes immediately at its own time.
            let f = flag.clone();
            let h = sim.handle();
            let times = Rc::clone(&times);
            sim.spawn("late", async move {
                h.delay(SimDuration::from_micros(20)).await;
                f.wait().await;
                times.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*times.borrow(), vec![7_000, 7_000, 20_000]);
        assert!(flag.is_set());
    }
}
