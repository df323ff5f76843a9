//! FCFS resources: the queueing primitives that make contention and overlap
//! emerge from simulated protocol code instead of being hand-computed.
//!
//! * [`Resource`] — a counted-permit resource with strict FIFO granting
//!   (head-of-line blocking, like a hardware queue).
//! * [`Server`] — a single-capacity resource plus a helper that charges a
//!   service time while holding it (a CPU core, a DMA engine).
//!
//! A waiter is a task ([`Resource::acquire`]) or a one-shot callback
//! ([`Resource::acquire_then`]); both stand in the same queue under the same
//! tickets. The interconnect's wires are such resources, held by frames that
//! are records rather than tasks: see `dacc_fabric::topology`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::channel::oneshot::oneshot;
use crate::executor::{Call, SimHandle};
use crate::time::{SimDuration, SimTime};

/// A waiter that is not a task ([`Resource::acquire_then`]): called with the
/// guard when its turn comes. Every `FnOnce(ResourceGuard)` closure is one;
/// a record that queues often implements it itself and waits in the box it
/// already has.
pub trait Granted {
    /// The permit is yours.
    fn granted(self: Box<Self>, guard: ResourceGuard);
}

impl<F: FnOnce(ResourceGuard)> Granted for F {
    fn granted(self: Box<Self>, guard: ResourceGuard) {
        (*self)(guard)
    }
}

/// Whom a grant goes to.
enum Notify {
    /// A task parked in [`Acquire`]: woken, it takes its permits when polled.
    Task(Waker),
    /// A callback ([`Resource::acquire_then`]): handed its permit on the spot.
    Call(Box<dyn Granted>),
}

struct Waiter {
    ticket: u64,
    need: usize,
    notify: Notify,
}

struct ResInner {
    permits: usize,
    capacity: usize,
    queue: VecDeque<Waiter>,
    next_ticket: u64,
    busy_since: Option<SimTime>,
    busy_accum: SimDuration,
    acquisitions: u64,
    created_at: SimTime,
}

impl ResInner {
    fn note_acquire(&mut self, now: SimTime) {
        self.acquisitions += 1;
        if self.permits < self.capacity && self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    fn note_release(&mut self, now: SimTime) {
        if self.permits == self.capacity {
            if let Some(since) = self.busy_since.take() {
                self.busy_accum += now.since(since);
            }
        }
    }
}

/// Counted-permit resource with strict FCFS granting.
///
/// Waiters are served in arrival order even when a later, smaller request
/// could be satisfied first — this mirrors hardware queues (DMA engines,
/// NIC send queues) where reordering does not happen.
#[derive(Clone)]
pub struct Resource {
    inner: Rc<RefCell<ResInner>>,
    handle: SimHandle,
    name: &'static str,
}

impl Resource {
    /// A resource with `capacity` permits.
    pub fn new(handle: &SimHandle, name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        Resource {
            inner: Rc::new(RefCell::new(ResInner {
                permits: capacity,
                capacity,
                queue: VecDeque::new(),
                next_ticket: 0,
                busy_since: None,
                busy_accum: SimDuration::ZERO,
                acquisitions: 0,
                created_at: handle.now(),
            })),
            handle: handle.clone(),
            name,
        }
    }

    /// Acquire one permit.
    pub fn acquire(&self) -> Acquire {
        self.acquire_many(1)
    }

    /// Acquire `need` permits at once (granted atomically, FCFS).
    pub fn acquire_many(&self, need: usize) -> Acquire {
        let cap = self.inner.borrow().capacity;
        assert!(
            need > 0 && need <= cap,
            "acquire_many({need}) on '{}' with capacity {cap}",
            self.name
        );
        Acquire {
            resource: self.clone(),
            need,
            ticket: None,
        }
    }

    /// Take one permit if that overtakes nobody: `None` when the permits are
    /// out or anyone is queued.
    pub fn try_acquire(&self) -> Option<ResourceGuard> {
        self.try_take(1)
    }

    /// The fast path of every acquisition: nothing queued, permits there.
    fn try_take(&self, need: usize) -> Option<ResourceGuard> {
        let mut inner = self.inner.borrow_mut();
        if !inner.queue.is_empty() || inner.permits < need {
            return None;
        }
        inner.permits -= need;
        inner.note_acquire(self.handle.now());
        drop(inner);
        Some(self.guard(need))
    }

    /// Queue for one permit on behalf of something that is not a task:
    /// `waiter` stands in the FCFS queue like any other and is called with
    /// the guard when its turn comes — at once, if nobody is ahead and a
    /// permit is free; otherwise from inside the release that frees it,
    /// before that release returns (where a woken task would act only when
    /// next polled). Until then the queue owns it: a waiter must not own
    /// the resource back.
    pub fn acquire_then(&self, waiter: Box<dyn Granted>) {
        if let Some(guard) = self.try_take(1) {
            return waiter.granted(guard);
        }
        {
            let mut inner = self.inner.borrow_mut();
            let ticket = inner.next_ticket;
            inner.next_ticket += 1;
            inner.queue.push_back(Waiter {
                ticket,
                need: 1,
                notify: Notify::Call(waiter),
            });
        }
        self.serve_queue();
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Waiters queued right now.
    pub fn queue_len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Snapshot of usage statistics.
    pub fn stats(&self) -> ResourceStats {
        let inner = self.inner.borrow();
        let now = self.handle.now();
        let mut busy = inner.busy_accum;
        if let Some(since) = inner.busy_since {
            busy += now.since(since);
        }
        let lifetime = now.saturating_since(inner.created_at);
        ResourceStats {
            name: self.name,
            acquisitions: inner.acquisitions,
            busy_time: busy,
            utilization: if lifetime.is_zero() {
                0.0
            } else {
                busy.as_secs_f64() / lifetime.as_secs_f64()
            },
        }
    }

    fn guard(&self, need: usize) -> ResourceGuard {
        ResourceGuard {
            resource: self.clone(),
            need,
            released: false,
        }
    }

    /// Serve the queue from its head for as long as the head can be
    /// satisfied: a callback is handed its permit here (outside any borrow —
    /// it may acquire, release and queue), a task is woken and serves whoever
    /// stands behind it when it has taken its own.
    fn serve_queue(&self) {
        loop {
            let mut inner = self.inner.borrow_mut();
            let Some(head) = inner.queue.front() else {
                return;
            };
            if inner.permits < head.need {
                return;
            }
            if let Notify::Task(waker) = &head.notify {
                waker.wake_by_ref();
                return;
            }
            let Some(Waiter {
                need,
                notify: Notify::Call(waiter),
                ..
            }) = inner.queue.pop_front()
            else {
                unreachable!("the head was a callback a moment ago");
            };
            inner.permits -= need;
            inner.note_acquire(self.handle.now());
            drop(inner);
            waiter.granted(self.guard(need));
        }
    }

    fn release(&self, need: usize) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.permits += need;
            debug_assert!(inner.permits <= inner.capacity, "double release");
            inner.note_release(self.handle.now());
        }
        self.serve_queue();
    }
}

/// Usage statistics of a [`Resource`].
#[derive(Clone, Copy, Debug)]
pub struct ResourceStats {
    /// Name given at construction.
    pub name: &'static str,
    /// Number of successful acquisitions so far.
    pub acquisitions: u64,
    /// Accumulated time with at least one permit held.
    pub busy_time: SimDuration,
    /// Fraction of lifetime with at least one permit held.
    pub utilization: f64,
}

/// Future returned by [`Resource::acquire`]; resolves to a [`ResourceGuard`].
pub struct Acquire {
    resource: Resource,
    need: usize,
    ticket: Option<u64>,
}

impl Future for Acquire {
    type Output = ResourceGuard;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if this.ticket.is_none() {
            if let Some(guard) = this.resource.try_take(this.need) {
                return Poll::Ready(guard);
            }
        }
        let mut inner = this.resource.inner.borrow_mut();
        match this.ticket {
            None => {
                let ticket = inner.next_ticket;
                inner.next_ticket += 1;
                inner.queue.push_back(Waiter {
                    ticket,
                    need: this.need,
                    notify: Notify::Task(cx.waker().clone()),
                });
                this.ticket = Some(ticket);
                Poll::Pending
            }
            Some(ticket) => {
                let is_head = inner.queue.front().map(|w| w.ticket) == Some(ticket);
                if is_head && inner.permits >= this.need {
                    inner.queue.pop_front();
                    inner.permits -= this.need;
                    let now = this.resource.handle.now();
                    inner.note_acquire(now);
                    drop(inner);
                    this.ticket = None;
                    // The next waiter may also be satisfiable.
                    this.resource.serve_queue();
                    Poll::Ready(this.resource.guard(this.need))
                } else {
                    // Still queued (the queue is sorted by ticket). Replace
                    // the stored waker only if the future moved to another
                    // task since it queued.
                    if let Ok(pos) = inner.queue.binary_search_by_key(&ticket, |w| w.ticket) {
                        if let Notify::Task(waker) = &mut inner.queue[pos].notify {
                            if !waker.will_wake(cx.waker()) {
                                *waker = cx.waker().clone();
                            }
                        }
                    }
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket {
            // Cancelled while queued: remove our entry and let the next
            // waiter (if now at the head) have a chance.
            let mut inner = self.resource.inner.borrow_mut();
            if let Some(pos) = inner.queue.iter().position(|w| w.ticket == ticket) {
                inner.queue.remove(pos);
                drop(inner);
                if pos == 0 {
                    self.resource.serve_queue();
                }
            }
        }
    }
}

/// Holds permits; releases them (and wakes the queue head) on drop.
pub struct ResourceGuard {
    resource: Resource,
    need: usize,
    released: bool,
}

impl ResourceGuard {
    /// Release early (equivalent to dropping the guard).
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if !self.released {
            self.released = true;
            self.resource.release(self.need);
        }
    }
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        self.do_release();
    }
}

/// Single FCFS server: acquire-exclusive, charge a service time, release.
///
/// Models a CPU core executing request handlers, a DMA engine, a disk, etc.
#[derive(Clone)]
pub struct Server {
    resource: Resource,
    handle: SimHandle,
}

impl Server {
    /// A single-capacity FCFS server.
    pub fn new(handle: &SimHandle, name: &'static str) -> Self {
        Server {
            resource: Resource::new(handle, name, 1),
            handle: handle.clone(),
        }
    }

    /// Queue for the server, hold it for `service`, then release:
    /// [`Server::serve_then`], awaited.
    pub async fn serve(&self, service: SimDuration) {
        let (done, served) = oneshot();
        self.serve_then(service, move || done.send(()));
        served
            .await
            .expect("a service is dropped only with its simulation");
    }

    /// Queue for the server, hold it for `service`, release it and run
    /// `done` — a service as a record rather than a task: one box, which is
    /// the FCFS waiter while queued and the calendar call while in service
    /// (a zero `service` completes on the spot, like a zero delay). The
    /// release comes first, so the next waiter is in service before `done`
    /// runs. Until it is granted the server's queue owns `done`, which
    /// must therefore not own the server back.
    pub fn serve_then(&self, service: SimDuration, done: impl FnOnce() + 'static) {
        self.resource.acquire_then(Box::new(Serving {
            handle: self.handle.clone(),
            service,
            guard: None,
            done,
        }));
    }

    /// Acquire exclusively; caller charges arbitrary time while holding.
    pub async fn acquire(&self) -> ResourceGuard {
        self.resource.acquire().await
    }

    /// Usage statistics.
    pub fn stats(&self) -> ResourceStats {
        self.resource.stats()
    }
}

/// One [`Server::serve_then`]: queued, then in service.
struct Serving<F> {
    handle: SimHandle,
    service: SimDuration,
    guard: Option<ResourceGuard>,
    done: F,
}

impl<F: FnOnce() + 'static> Granted for Serving<F> {
    fn granted(mut self: Box<Self>, guard: ResourceGuard) {
        if self.service.is_zero() {
            drop(guard);
            return (self.done)();
        }
        self.guard = Some(guard);
        let at = self.handle.now() + self.service;
        self.handle.clone().call_boxed_at(at, self);
    }
}

impl<F: FnOnce() + 'static> Call for Serving<F> {
    fn call(self: Box<Self>) {
        let Serving { guard, done, .. } = *self;
        drop(guard);
        done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn resource_serializes_two_holders() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let res = Resource::new(&h, "r", 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let res = res.clone();
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn("user", async move {
                let g = res.acquire().await;
                log.borrow_mut().push((i, "start", h.now().as_nanos()));
                h.delay(SimDuration::from_micros(10)).await;
                log.borrow_mut().push((i, "end", h.now().as_nanos()));
                drop(g);
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log[0], (0, "start", 0));
        assert_eq!(log[1], (0, "end", 10_000));
        assert_eq!(log[2], (1, "start", 10_000));
        assert_eq!(log[3], (1, "end", 20_000));
    }

    #[test]
    fn resource_fcfs_ordering() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let res = Resource::new(&h, "r", 1);
        let order = Rc::new(RefCell::new(Vec::new()));
        // First holder keeps it busy; then 3 waiters arrive in known order.
        {
            let res = res.clone();
            let h = sim.handle();
            sim.spawn("holder", async move {
                let g = res.acquire().await;
                h.delay(SimDuration::from_micros(5)).await;
                drop(g);
            });
        }
        for i in 0..3u32 {
            let res = res.clone();
            let h = sim.handle();
            let order = Rc::clone(&order);
            sim.spawn("waiter", async move {
                // Stagger arrivals by 1ns to fix the order.
                h.delay(SimDuration::from_nanos(1 + i as u64)).await;
                let _g = res.acquire().await;
                order.borrow_mut().push(i);
                h.delay(SimDuration::from_micros(1)).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn acquire_many_blocks_until_enough() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let res = Resource::new(&h, "r", 4);
        let t_big = Rc::new(RefCell::new(0u64));
        {
            // Two holders of 2 permits each, releasing at 10us and 20us.
            for (i, us) in [(0u64, 10u64), (1, 20)] {
                let res = res.clone();
                let h = sim.handle();
                sim.spawn("small", async move {
                    let _ = i;
                    let g = res.acquire_many(2).await;
                    h.delay(SimDuration::from_micros(us)).await;
                    drop(g);
                });
            }
        }
        {
            let res = res.clone();
            let h = sim.handle();
            let t_big = Rc::clone(&t_big);
            sim.spawn("big", async move {
                h.delay(SimDuration::from_nanos(1)).await;
                let _g = res.acquire_many(4).await;
                *t_big.borrow_mut() = h.now().as_nanos();
            });
        }
        sim.run();
        // Needs all 4 permits: both holders must release (at 20us).
        assert_eq!(*t_big.borrow(), 20_000);
    }

    #[test]
    fn cancelled_waiter_unblocks_queue() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let res = Resource::new(&h, "r", 1);
        let got = Rc::new(RefCell::new(false));
        {
            let res = res.clone();
            let h = sim.handle();
            sim.spawn("holder", async move {
                let g = res.acquire().await;
                h.delay(SimDuration::from_micros(10)).await;
                drop(g);
            });
        }
        {
            // This waiter gives up (drops the acquire future) at 5us.
            let res = res.clone();
            let h = sim.handle();
            sim.spawn("quitter", async move {
                h.delay(SimDuration::from_nanos(1)).await;
                let acq = res.acquire();
                futures_select_timeout(&h, acq, SimDuration::from_micros(4)).await;
            });
        }
        {
            let res = res.clone();
            let h = sim.handle();
            let got = Rc::clone(&got);
            sim.spawn("patient", async move {
                h.delay(SimDuration::from_nanos(2)).await;
                let _g = res.acquire().await;
                *got.borrow_mut() = true;
            });
        }
        let out = sim.run();
        assert!(*got.borrow());
        assert_eq!(out.pending_tasks, 0);
    }

    /// Minimal "timeout" helper for the cancellation test: polls `fut` until
    /// the deadline, then drops it.
    async fn futures_select_timeout<F: Future + Unpin>(
        h: &SimHandle,
        mut fut: F,
        dur: SimDuration,
    ) {
        use std::future::poll_fn;
        let deadline = h.now() + dur;
        let mut timer = Box::pin(h.delay_until(deadline));
        poll_fn(|cx| {
            if Pin::new(&mut fut).poll(cx).is_ready() {
                return Poll::Ready(());
            }
            timer.as_mut().poll(cx)
        })
        .await;
    }

    #[test]
    fn callbacks_and_tasks_share_one_fcfs_queue() {
        // A holder keeps the permit until 5 us; a task, a callback and another
        // task queue behind it in that order and are served in that order.
        let mut sim = Sim::new();
        let h = sim.handle();
        let res = Resource::new(&h, "r", 1);
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let (res, h) = (res.clone(), h.clone());
            sim.spawn("holder", async move {
                let g = res.acquire().await;
                h.delay(SimDuration::from_micros(5)).await;
                drop(g);
            });
        }
        for i in [0u32, 2] {
            let (res, h, order) = (res.clone(), h.clone(), Rc::clone(&order));
            sim.spawn("waiter", async move {
                h.delay(SimDuration::from_nanos(1 + u64::from(i))).await;
                let _g = res.acquire().await;
                order.borrow_mut().push((i, h.now().as_nanos()));
                h.delay(SimDuration::from_micros(1)).await;
            });
        }
        {
            let (res, h2, order) = (res.clone(), h.clone(), Rc::clone(&order));
            h.call_at(SimTime::ZERO + SimDuration::from_nanos(2), move || {
                assert!(res.try_acquire().is_none(), "busy, and a task is queued");
                res.acquire_then(Box::new(move |g: ResourceGuard| {
                    order.borrow_mut().push((1, h2.now().as_nanos()));
                    // Hold it for 1 us, like the tasks do.
                    let at = h2.now() + SimDuration::from_micros(1);
                    h2.call_at(at, move || drop(g));
                }));
                assert_eq!(res.queue_len(), 2);
            });
        }
        let out = sim.run();
        assert_eq!(*order.borrow(), [(0, 5_000), (1, 6_000), (2, 7_000)]);
        assert_eq!(out.pending_tasks, 0);
        let stats = res.stats();
        assert_eq!(stats.acquisitions, 4);
        assert_eq!(stats.busy_time, SimDuration::from_micros(8));
    }

    #[test]
    fn a_callback_acts_inside_the_release_that_serves_it() {
        // Where a woken task takes its permit when next polled, a callback
        // has it — and has acted on it — before `drop(guard)` returns; an
        // idle resource grants at once, and a chain of callbacks is served
        // while permits last.
        let sim = Sim::new();
        let res = Resource::new(&sim.handle(), "r", 2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let note = |what: &'static str| {
            let log = Rc::clone(&log);
            Box::new(move |g: ResourceGuard| {
                log.borrow_mut().push(what);
                std::mem::forget(g); // keep the permit
            })
        };
        res.acquire_then(note("idle"));
        assert_eq!(*log.borrow(), ["idle"]);
        let last = res.try_acquire().expect("one permit left");
        assert!(res.try_acquire().is_none());
        res.acquire_then(note("first"));
        res.acquire_then(note("second"));
        assert_eq!((res.queue_len(), log.borrow().len()), (2, 1));
        drop(last);
        assert_eq!(*log.borrow(), ["idle", "first"], "one permit, one grant");
        assert_eq!((res.queue_len(), res.available()), (1, 0));
    }

    #[test]
    fn a_service_releases_the_server_before_its_callback_and_serves_fcfs() {
        // Three services queue at once; each callback finds the next
        // already in service (its release granted it), and a zero service
        // completes on the spot — inside the release that grants it, so
        // before the callback of the service that released — adding no
        // calendar entry.
        let mut sim = Sim::new();
        let h = sim.handle();
        let server = Server::new(&h, "engine");
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, us) in [(0u32, 5u64), (1, 3), (2, 0)] {
            let (s, h, log) = (server.clone(), h.clone(), Rc::clone(&log));
            server.serve_then(SimDuration::from_micros(us), move || {
                let busy = s.resource.available() == 0;
                log.borrow_mut().push((i, h.now().as_nanos(), busy));
            });
        }
        assert_eq!(server.resource.queue_len(), 2);
        let out = sim.run();
        assert_eq!(
            *log.borrow(),
            [(0, 5_000, true), (2, 8_000, false), (1, 8_000, false)]
        );
        // Two calendar entries: the zero service rode the second's release.
        assert_eq!(out.events, 2);
        assert_eq!(server.stats().busy_time, SimDuration::from_micros(8));
    }

    #[test]
    fn server_utilization_accounting() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let server = Server::new(&h, "cpu");
        {
            let server = server.clone();
            let h = sim.handle();
            sim.spawn("work", async move {
                server.serve(SimDuration::from_micros(30)).await;
                h.delay(SimDuration::from_micros(70)).await;
            });
        }
        sim.run();
        let stats = server.stats();
        assert_eq!(stats.acquisitions, 1);
        assert_eq!(stats.busy_time, SimDuration::from_micros(30));
        assert!((stats.utilization - 0.3).abs() < 1e-9);
    }
}
