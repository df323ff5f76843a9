//! FCFS resources: the queueing primitives that make contention and overlap
//! emerge from simulated protocol code instead of being hand-computed.
//!
//! * [`Resource`] — a counted-permit resource with strict FIFO granting
//!   (head-of-line blocking, like a hardware queue).
//! * [`Server`] — a single-capacity resource plus a helper that charges a
//!   service time while holding it (a CPU core, a DMA engine).
//!
//! A waiter is a task ([`Resource::acquire`]) or a record
//! ([`Resource::acquire_for`]); both stand in the same queue under the same
//! tickets. The interconnect's wires are such resources, held by frames that
//! are records rather than tasks: see `dacc_fabric::topology`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::channel::oneshot::oneshot;
use crate::executor::{Complete, Kind, Reply, SimHandle};
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Whom a grant goes to.
enum Notify {
    /// A task parked in [`Acquire`]: woken, it takes its permits when polled.
    Task(Waker),
    /// A record ([`Resource::acquire_for`]): told on the spot.
    Record(Weak<dyn Complete<Granted>>, u64),
}

/// What a record queued by [`Resource::acquire_for`] is told when its turn
/// comes: it holds one permit, and gives it back with
/// [`Resource::release_permit`] (a record knows what it holds, so it needs
/// no guard) or hands it to [`Resource::held`].
pub struct Granted;

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
        self.take_permits(need).then(|| self.guard(need))
    }

    fn take_permits(&self, need: usize) -> bool {
        let mut inner = self.inner.borrow_mut();
        if !inner.queue.is_empty() || inner.permits < need {
            return false;
        }
        inner.permits -= need;
        inner.note_acquire(self.handle.now());
        true
    }

    /// Queue for one permit on behalf of `record`, a waiter that is not a
    /// task: it stands in the FCFS queue like any other and is told
    /// [`Granted`], with `token`, when its turn comes — at once, if nobody
    /// is ahead and a permit is free; otherwise from inside the release that
    /// frees it, before that release returns (where a woken task would act
    /// only when next polled). The queue holds it weakly.
    pub fn acquire_for(&self, record: &Rc<impl Complete<Granted> + 'static>, token: u64) {
        if self.try_permit() {
            Rc::clone(record).complete(token, Granted);
        } else {
            let record = Rc::downgrade(record) as Weak<dyn Complete<Granted>>;
            self.queue(Notify::Record(record, token));
        }
    }

    /// A guard for one permit the caller holds already (taken by
    /// [`Resource::try_permit`] or granted to a record): it gives it back
    /// when dropped.
    pub fn held(&self) -> ResourceGuard {
        self.guard(1)
    }

    /// Take one permit if that overtakes nobody, to give back with
    /// [`Resource::release_permit`]; `false` when the permits are out or
    /// anyone is queued.
    pub fn try_permit(&self) -> bool {
        self.take_permits(1)
    }

    /// Give back one permit taken by [`Resource::try_permit`] or granted to
    /// a record.
    pub fn release_permit(&self) {
        self.release(1);
    }

    fn queue(&self, notify: Notify) {
        {
            let mut inner = self.inner.borrow_mut();
            let ticket = inner.next_ticket;
            inner.next_ticket += 1;
            inner.queue.push_back(Waiter {
                ticket,
                need: 1,
                notify,
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

    /// Waiters queued right now, plus one if every permit is out: what a
    /// newcomer finds ahead of it.
    pub fn backlog(&self) -> usize {
        let inner = self.inner.borrow();
        inner.queue.len() + usize::from(inner.permits == 0)
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
    /// satisfied: a record is told of its permit here (outside any borrow —
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
            let Some(Waiter { need, notify, .. }) = inner.queue.pop_front() else {
                return;
            };
            inner.permits -= need;
            inner.note_acquire(self.handle.now());
            drop(inner);
            match notify {
                Notify::Record(record, token) => match record.upgrade() {
                    Some(record) => record.complete(token, Granted),
                    // Its records are gone: the permit is nobody's.
                    None => return self.release(need),
                },
                Notify::Task(_) => unreachable!("a task at the head is woken above"),
            }
        }
    }

    fn release(&self, need: usize) {
        let queued = {
            let mut inner = self.inner.borrow_mut();
            inner.permits += need;
            debug_assert!(inner.permits <= inner.capacity, "double release");
            inner.note_release(self.handle.now());
            !inner.queue.is_empty()
        };
        if queued {
            self.serve_queue();
        }
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
    services: Rc<Services>,
}

/// A server's queue and the service in progress: records in its slab, the
/// FCFS waiter while queued and the calendar entry while in service.
struct Services {
    resource: Resource,
    kind: Kind,
    slab: RefCell<Slab<Service>>,
}

struct Service {
    service: SimDuration,
    done: Reply<()>,
}

impl Server {
    /// A single-capacity FCFS server.
    pub fn new(handle: &SimHandle, name: &'static str) -> Self {
        let services = Rc::new_cyclic(|me: &Weak<Services>| Services {
            resource: Resource::new(handle, name, 1),
            kind: handle.kind(me.clone()),
            slab: RefCell::new(Slab::default()),
        });
        Server { services }
    }

    /// Queue for the server, hold it for `service`, then release:
    /// [`Server::serve_then`], awaited.
    pub async fn serve(&self, service: SimDuration) {
        let (done, served) = oneshot();
        self.serve_then(service, Reply::Wake(done));
        served
            .await
            .expect("a service is dropped only with its simulation");
    }

    /// Queue for the server, hold it for `service`, release it and tell
    /// `done` — a service as a record rather than a task, kept in the
    /// server's slab, which costs no box (a zero `service` completes on the
    /// spot, like a zero delay). The release comes first, so the next
    /// waiter is in service before `done` is told.
    pub fn serve_then(&self, service: SimDuration, done: Reply<()>) {
        let s = &self.services;
        let index = s.slab.borrow_mut().insert(Service { service, done });
        s.resource.acquire_for(s, u64::from(index));
    }

    /// Acquire exclusively; caller charges arbitrary time while holding.
    pub async fn acquire(&self) -> ResourceGuard {
        self.services.resource.acquire().await
    }

    /// Usage statistics.
    pub fn stats(&self) -> ResourceStats {
        self.services.resource.stats()
    }
}

impl Services {
    /// Service `index` is over: release the server, then tell its owner.
    fn over(&self, index: u32) {
        let service = self.slab.borrow_mut().take(index);
        self.resource.release_permit();
        if let Some(s) = service {
            s.done.send(());
        }
    }
}

/// The server is granted to service `token`.
impl Complete<Granted> for Services {
    fn complete(self: Rc<Self>, token: u64, _: Granted) {
        let index = token as u32;
        let service = self.slab.borrow().get(index).map(|s| s.service);
        match service {
            Some(d) if !d.is_zero() => {
                let handle = &self.resource.handle;
                handle.schedule(handle.now() + d, self.kind, index);
            }
            _ => self.over(index),
        }
    }
}

/// Service `token` has lasted its time.
impl Complete<()> for Services {
    fn complete(self: Rc<Self>, token: u64, (): ()) {
        self.over(token as u32);
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
        /// Holds its permit for 1 us from the grant.
        struct Waiter(Resource, SimHandle, Rc<RefCell<Vec<(u32, u64)>>>);
        impl Complete<Granted> for Waiter {
            fn complete(self: Rc<Self>, i: u64, _: Granted) {
                let now = self.1.now();
                self.2.borrow_mut().push((i as u32, now.as_nanos()));
                let g = self.0.held();
                self.1
                    .call_at(now + SimDuration::from_micros(1), move || drop(g));
            }
        }
        let waiter = Rc::new(Waiter(res.clone(), h.clone(), Rc::clone(&order)));
        {
            let (res, waiter) = (res.clone(), Rc::clone(&waiter));
            h.call_at(SimTime::ZERO + SimDuration::from_nanos(2), move || {
                assert!(res.try_acquire().is_none(), "busy, and a task is queued");
                res.acquire_for(&waiter, 1);
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
        /// Notes its grants and keeps the permits.
        struct Note(RefCell<Vec<&'static str>>);
        impl Complete<Granted> for Note {
            fn complete(self: Rc<Self>, i: u64, _: Granted) {
                self.0
                    .borrow_mut()
                    .push(["idle", "first", "second"][i as usize]);
            }
        }
        let log = Rc::new(Note(RefCell::new(Vec::new())));
        res.acquire_for(&log, 0);
        assert_eq!(*log.0.borrow(), ["idle"]);
        let last = res.try_acquire().expect("one permit left");
        assert!(res.try_acquire().is_none());
        res.acquire_for(&log, 1);
        res.acquire_for(&log, 2);
        assert_eq!((res.queue_len(), log.0.borrow().len()), (2, 1));
        drop(last);
        assert_eq!(*log.0.borrow(), ["idle", "first"], "one permit, one grant");
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
        /// Logs each service's end, and whether the server is busy then.
        struct Log(Server, SimHandle, RefCell<Vec<(u32, u64, bool)>>);
        impl Complete<()> for Log {
            fn complete(self: Rc<Self>, i: u64, (): ()) {
                let busy = self.0.services.resource.available() == 0;
                let now = self.1.now().as_nanos();
                self.2.borrow_mut().push((i as u32, now, busy));
            }
        }
        let log = Rc::new(Log(server.clone(), h.clone(), RefCell::new(Vec::new())));
        for (i, us) in [(0u64, 5u64), (1, 3), (2, 0)] {
            server.serve_then(SimDuration::from_micros(us), Reply::to(&log, i));
        }
        assert_eq!(server.services.resource.queue_len(), 2);
        let out = sim.run();
        assert_eq!(
            *log.2.borrow(),
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
