//! FCFS resources: the queueing primitives that make contention and overlap
//! emerge from simulated protocol code instead of being hand-computed.
//!
//! * [`Resource`] — a counted-permit resource with strict FIFO granting
//!   (head-of-line blocking, like a hardware queue).
//! * [`Server`] — a single-capacity resource plus a helper that charges a
//!   service time while holding it (a CPU core, a DMA engine).
//! * [`Link`] — a point-to-point wire: messages serialize on the wire at a
//!   byte rate, then experience propagation latency *off* the wire, so
//!   back-to-back messages pipeline exactly as on a real network.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::SimHandle;
use crate::time::{Bandwidth, SimDuration, SimTime};

struct Waiter {
    ticket: u64,
    need: usize,
    waker: Waker,
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

    fn wake_head(inner: &mut ResInner) {
        if let Some(head) = inner.queue.front() {
            if inner.permits >= head.need {
                head.waker.wake_by_ref();
            }
        }
    }

    fn release(&self, need: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += need;
        debug_assert!(inner.permits <= inner.capacity, "double release");
        let now = self.handle.now();
        inner.note_release(now);
        Self::wake_head(&mut inner);
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
        let mut inner = this.resource.inner.borrow_mut();
        match this.ticket {
            None => {
                // Fast path: nothing queued and permits available.
                if inner.queue.is_empty() && inner.permits >= this.need {
                    inner.permits -= this.need;
                    let now = this.resource.handle.now();
                    inner.note_acquire(now);
                    drop(inner);
                    return Poll::Ready(ResourceGuard {
                        resource: this.resource.clone(),
                        need: this.need,
                        released: false,
                    });
                }
                let ticket = inner.next_ticket;
                inner.next_ticket += 1;
                inner.queue.push_back(Waiter {
                    ticket,
                    need: this.need,
                    waker: cx.waker().clone(),
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
                    // The next waiter may also be satisfiable.
                    Resource::wake_head(&mut inner);
                    drop(inner);
                    this.ticket = None;
                    Poll::Ready(ResourceGuard {
                        resource: this.resource.clone(),
                        need: this.need,
                        released: false,
                    })
                } else {
                    // Still queued (the queue is sorted by ticket). Replace
                    // the stored waker only if the future moved to another
                    // task since it queued.
                    if let Ok(pos) = inner.queue.binary_search_by_key(&ticket, |w| w.ticket) {
                        let w = &mut inner.queue[pos];
                        if !w.waker.will_wake(cx.waker()) {
                            w.waker = cx.waker().clone();
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
                if pos == 0 {
                    Resource::wake_head(&mut inner);
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

    /// Queue for the server, hold it for `service`, then release.
    pub async fn serve(&self, service: SimDuration) {
        let guard = self.resource.acquire().await;
        self.handle.delay(service).await;
        drop(guard);
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

/// Parameters of a point-to-point link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Propagation + switching latency, charged after the wire is released.
    pub latency: SimDuration,
    /// Wire serialization rate.
    pub bandwidth: Bandwidth,
    /// Fixed per-message cost charged on the wire (header, MTU framing,
    /// send-side setup that serializes with the payload).
    pub per_message: SimDuration,
}

/// A point-to-point wire with FCFS serialization and pipelined latency.
///
/// `transmit(bytes)` completes when the last byte *arrives* at the far end:
/// the wire is held for `per_message + bytes/bandwidth`, then `latency`
/// elapses off the wire, so consecutive messages overlap their propagation.
#[derive(Clone)]
pub struct Link {
    wire: Resource,
    params: LinkParams,
    handle: SimHandle,
    bytes: Rc<Cell<u64>>,
}

impl Link {
    /// A link with the given parameters.
    pub fn new(handle: &SimHandle, name: &'static str, params: LinkParams) -> Self {
        Link {
            wire: Resource::new(handle, name, 1),
            params,
            handle: handle.clone(),
            bytes: Rc::new(Cell::new(0)),
        }
    }

    /// Link parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Move `bytes` across the link; resolves at arrival of the last byte.
    pub async fn transmit(&self, bytes: u64) {
        let guard = self.wire.acquire().await;
        let serialize = self.params.per_message + self.params.bandwidth.transfer_time(bytes);
        self.handle.delay(serialize).await;
        drop(guard);
        self.bytes.set(self.bytes.get() + bytes);
        self.handle.delay(self.params.latency).await;
    }

    /// Total payload bytes that have crossed the link.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes.get()
    }

    /// Wire usage statistics.
    pub fn stats(&self) -> ResourceStats {
        self.wire.stats()
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
    fn link_pipelines_latency() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let link = Link::new(
            &h,
            "wire",
            LinkParams {
                latency: SimDuration::from_micros(100),
                bandwidth: Bandwidth::from_bytes_per_sec(1e9), // 1 GB/s => 1us/KB
                per_message: SimDuration::ZERO,
            },
        );
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let link = link.clone();
            let h = sim.handle();
            let arrivals = Rc::clone(&arrivals);
            sim.spawn("msg", async move {
                link.transmit(1000).await; // 1us serialization
                arrivals.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        // msg0: serialize [0,1us], arrive 101us. msg1: serialize [1,2us],
        // arrive 102us — latency overlapped, wire serialized.
        assert_eq!(*arrivals.borrow(), vec![101_000, 102_000]);
        assert_eq!(link.bytes_transferred(), 2000);
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
