//! A deterministic, single-threaded async executor driven by a virtual clock.
//!
//! Simulation "processes" (MPI ranks, accelerator daemons, the resource
//! manager) are plain `async fn`s. Blocking operations — timers, channel
//! receives, resource acquisition — are hand-written futures that park the
//! task and register a wake-up, either immediately (ready queue) or at a
//! future virtual time (the event calendar).
//!
//! # Ordering contract
//!
//! Two runs of the same program with the same seeds poll the same tasks at
//! the same virtual times in the same order, because every queue has one
//! fixed discipline:
//!
//! * **Ready queue: FIFO.** A queued task is never queued twice (several
//!   wakes before its poll run it once), and a wake issued *during* its own
//!   poll re-queues it behind whatever is already waiting.
//! * **Spawns.** Tasks spawned during a poll become ready after that poll
//!   returns, in spawn order, behind every wake the poll issued.
//! * **Calendar.** Popped only when the ready queue is empty, in
//!   `(time, seq)` order, `seq` taken when the wake-up was registered — so
//!   same-instant timers fire in registration order.
//!
//! # Threading model
//!
//! One [`Sim`] lives on one thread. Tasks are `!Send` futures, so the core
//! state is plain `Cell`/`RefCell` behind an `Rc` and every handle
//! ([`SimHandle`], [`JoinHandle`], [`Timer`], channels, resources) is `!Send`
//! by construction; programs parallelise by running independent `Sim`s on
//! different threads. The one thread-safe cell is the ready queue, because
//! `std::task::Wake` requires wakers to be `Send + Sync`.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task, unique within one [`Sim`] and never reused
/// (the table slot a task occupies is).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId(u64);

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A calendar entry: wake `waker` at `time`.
struct CalEntry {
    time: SimTime,
    seq: u64,
    waker: Waker,
}

impl PartialEq for CalEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for CalEntry {}
impl PartialOrd for CalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The ready queue: the one piece of executor state wakers can reach, hence
/// the one piece behind a thread-safe lock (never contended).
struct ReadyQueue {
    /// `None` once the [`Sim`] is gone: later wakes are dropped instead of
    /// parking wakers (which own this queue) inside it forever.
    queue: Mutex<Option<VecDeque<Arc<TaskWaker>>>>,
}

impl ReadyQueue {
    fn lock(&self) -> MutexGuard<'_, Option<VecDeque<Arc<TaskWaker>>>> {
        // No update below can unwind half-done, and wakes also run from
        // destructors during a panic, so a poisoned lock is taken anyway.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, task: &Arc<TaskWaker>) {
        let mut q = self.lock();
        if let Some(q) = q.as_mut() {
            // A task woken several times before being polled runs once.
            if !task.queued.load(Ordering::Relaxed) {
                task.queued.store(true, Ordering::Relaxed);
                q.push_back(Arc::clone(task));
            }
        }
    }

    fn pop(&self) -> Option<Arc<TaskWaker>> {
        let mut q = self.lock();
        let task = q.as_mut()?.pop_front()?;
        task.queued.store(false, Ordering::Relaxed);
        Some(task)
    }

    fn close(&self) {
        *self.lock() = None;
    }

    fn is_closed(&self) -> bool {
        self.lock().is_none()
    }
}

/// The waker of one task, built once at spawn; every `Waker` the task ever
/// sees is a clone of the same `Arc`, so `Waker::will_wake` holds between
/// any two polls of a task.
struct TaskWaker {
    slot: u32,
    /// The occupant of `slot` this waker belongs to. A waker that outlives
    /// its task (a timeout that lost its race, say) still queues, and the
    /// run loop finds the slot empty or re-occupied and polls nothing.
    id: TaskId,
    /// In the ready queue right now. Touched only under the queue's lock.
    queued: AtomicBool,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self);
    }
}

struct Slot {
    id: TaskId,
    name: &'static str,
    /// `None` while the task is being polled (so a re-entrant spawn or wake
    /// cannot alias it) and once it has finished.
    fut: Option<BoxedFuture>,
}

/// The task table: a slab whose slots are reused through a free list. The
/// occupant's [`TaskId`] doubles as the slot's generation.
#[derive(Default)]
struct TaskTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl TaskTable {
    fn insert(&mut self, id: TaskId, name: &'static str, fut: BoxedFuture) -> u32 {
        self.live += 1;
        let slot = Slot {
            id,
            name,
            fut: Some(fut),
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("more than 2^32 live tasks");
                self.slots.push(slot);
                i
            }
        }
    }

    /// Take the future of task `id` out of `slot` for polling; `None` if that
    /// task has finished (whoever occupies the slot now).
    fn take(&mut self, slot: u32, id: TaskId) -> Option<BoxedFuture> {
        let s = &mut self.slots[slot as usize];
        if s.id == id {
            s.fut.take()
        } else {
            None
        }
    }

    fn put_back(&mut self, slot: u32, fut: BoxedFuture) {
        self.slots[slot as usize].fut = Some(fut);
    }

    fn release(&mut self, slot: u32) {
        self.live -= 1;
        self.free.push(slot);
    }
}

/// Shared mutable state of the simulation; see the module docs for why none
/// of it is synchronised.
pub(crate) struct SimCore {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    calendar: RefCell<BinaryHeap<Reverse<CalEntry>>>,
    ready: Arc<ReadyQueue>,
    tasks: RefCell<TaskTable>,
    /// Tasks spawned since the run loop last looked, in spawn order.
    newly_spawned: RefCell<Vec<Arc<TaskWaker>>>,
    next_task: Cell<u64>,
    events_processed: Cell<u64>,
}

impl SimCore {
    fn new() -> Self {
        SimCore {
            now: Cell::new(SimTime::ZERO),
            seq: Cell::new(0),
            calendar: RefCell::new(BinaryHeap::new()),
            ready: Arc::new(ReadyQueue {
                queue: Mutex::new(Some(VecDeque::new())),
            }),
            tasks: RefCell::new(TaskTable::default()),
            newly_spawned: RefCell::new(Vec::new()),
            next_task: Cell::new(0),
            events_processed: Cell::new(0),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Register `waker` to fire at absolute time `at`.
    pub(crate) fn schedule_wake(&self, at: SimTime, waker: Waker) {
        debug_assert!(at >= self.now(), "cannot schedule a wake in the past");
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.calendar.borrow_mut().push(Reverse(CalEntry {
            time: at,
            seq,
            waker,
        }));
    }

    fn count_event(&self) {
        self.events_processed.set(self.events_processed.get() + 1);
    }
}

/// Outcome of [`Sim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Virtual time when the run loop stopped.
    pub time: SimTime,
    /// Tasks still alive but blocked with no event that could ever wake them
    /// (e.g. daemons parked on a channel whose senders are still live).
    /// Zero means every task ran to completion.
    pub pending_tasks: usize,
    /// Total calendar + ready events processed (for engine benchmarks).
    pub events: u64,
}

/// The discrete-event simulation: owns the run loop.
///
/// Dropping the `Sim` drops every task that is still parked, together with
/// whatever those tasks own.
pub struct Sim {
    core: Rc<SimCore>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Sim {
            core: Rc::new(SimCore::new()),
        }
    }

    /// A cheaply clonable handle for spawning tasks and creating timers.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            core: Rc::clone(&self.core),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Spawn a root task. See [`SimHandle::spawn`].
    pub fn spawn<F>(&self, name: &'static str, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.handle().spawn(name, fut)
    }

    /// Run until no future event exists or `deadline` is reached.
    ///
    /// Returns the stop time and the number of still-blocked tasks. Tasks
    /// blocked forever (e.g. server loops awaiting closed-over channels that
    /// are never written again) are reported, not treated as errors: it is up
    /// to the caller to decide whether that is expected.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let core = &*self.core;
        loop {
            // Adopt tasks spawned since the last iteration.
            self.adopt_spawned();

            // Drain the ready queue at the current time, FIFO.
            while let Some(task) = core.ready.pop() {
                self.poll_task(task);
                self.adopt_spawned();
                core.count_event();
            }

            // Advance to the next calendar event.
            let entry = {
                let mut cal = core.calendar.borrow_mut();
                match cal.peek() {
                    Some(Reverse(e)) if e.time <= deadline => cal.pop().map(|Reverse(e)| e),
                    _ => None,
                }
            };
            match entry {
                Some(e) => {
                    debug_assert!(e.time >= core.now(), "calendar went backwards");
                    core.now.set(e.time);
                    core.count_event();
                    e.waker.wake();
                }
                None => break,
            }
        }
        // With no event left before the deadline, the clock still advances
        // to it: "run for one second" means one second elapses.
        if deadline != SimTime::MAX && core.now() < deadline {
            core.now.set(deadline);
        }
        RunOutcome {
            time: core.now(),
            pending_tasks: core.tasks.borrow().live,
            events: core.events_processed.get(),
        }
    }

    /// Run until the event calendar and ready queue are exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Names of tasks that are still blocked (diagnostics for stalls).
    pub fn pending_task_names(&self) -> Vec<&'static str> {
        let tasks = self.core.tasks.borrow();
        let mut v: Vec<&'static str> = tasks
            .slots
            .iter()
            .filter(|s| s.fut.is_some())
            .map(|s| s.name)
            .collect();
        v.sort_unstable();
        v
    }

    fn adopt_spawned(&self) {
        // Queueing touches only the ready queue, never this list.
        for task in self.core.newly_spawned.borrow_mut().drain(..) {
            self.core.ready.push(&task);
        }
    }

    fn poll_task(&self, task: Arc<TaskWaker>) {
        let slot = task.slot;
        // Taken out while polling so a re-entrant spawn finds the table free.
        let Some(mut fut) = self.core.tasks.borrow_mut().take(slot, task.id) else {
            return; // already completed; spurious wake
        };
        let waker = Waker::from(task);
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => self.core.tasks.borrow_mut().release(slot),
            Poll::Pending => self.core.tasks.borrow_mut().put_back(slot, fut),
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Every parked task owns `SimHandle`s and the core owns the tasks: a
        // reference cycle that would keep a whole cluster alive. Take what
        // can hold a handle out of the core and drop it outside any borrow;
        // a future's own `Drop` may wake or spawn, so repeat until empty.
        self.core.ready.close();
        loop {
            let futures: Vec<BoxedFuture> = {
                let mut tasks = self.core.tasks.borrow_mut();
                tasks
                    .slots
                    .iter_mut()
                    .filter_map(|s| s.fut.take())
                    .collect()
            };
            let spawned = std::mem::take(&mut *self.core.newly_spawned.borrow_mut());
            let calendar = std::mem::take(&mut *self.core.calendar.borrow_mut());
            if futures.is_empty() && spawned.is_empty() && calendar.is_empty() {
                break;
            }
        }
    }
}

/// Cheap handle onto a [`Sim`]: spawn tasks, read the clock, create timers.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<SimCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed.get()
    }

    /// True once the [`Sim`] has been dropped. Parked tasks are destroyed
    /// then, mid-operation; a destructor that would record the operation as
    /// completed (a span guard) checks this and stands down.
    pub fn is_torn_down(&self) -> bool {
        self.core.ready.is_closed()
    }

    /// Spawn a task. It starts running at the current virtual time, after
    /// already-ready tasks. The returned [`JoinHandle`] can be awaited for
    /// the task's output; dropping it detaches the task.
    pub fn spawn<F>(&self, name: &'static str, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let core = &*self.core;
        let id = TaskId(core.next_task.get());
        core.next_task.set(id.0 + 1);
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = Rc::clone(&state);
        let wrapped: BoxedFuture = Box::pin(async move {
            let out = fut.await;
            let waiter = {
                let mut s = state2.borrow_mut();
                s.result = Some(out);
                s.waker.take()
            };
            if let Some(w) = waiter {
                w.wake();
            }
        });
        let slot = core.tasks.borrow_mut().insert(id, name, wrapped);
        core.newly_spawned.borrow_mut().push(Arc::new(TaskWaker {
            slot,
            id,
            queued: AtomicBool::new(false),
            ready: Arc::clone(&core.ready),
        }));
        JoinHandle { state, id }
    }

    /// Sleep for `dur` of virtual time.
    pub fn delay(&self, dur: SimDuration) -> Timer {
        self.delay_until(self.core.now() + dur)
    }

    /// Sleep until the absolute virtual time `at` (no-op if already past).
    pub fn delay_until(&self, at: SimTime) -> Timer {
        Timer {
            core: Rc::clone(&self.core),
            deadline: at,
            armed_for: None,
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Awaitable completion of a spawned task.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id (diagnostics).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// True once the task has finished (its result not yet taken).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }

    /// Take the result if the task has finished (useful after `Sim::run`
    /// from outside async context).
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        match s.result.take() {
            Some(v) => Poll::Ready(v),
            None => {
                s.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Future returned by [`SimHandle::delay`].
pub struct Timer {
    core: Rc<SimCore>,
    deadline: SimTime,
    /// The waker the calendar entry was registered with. A pending timer
    /// polled again by the same task (a timeout raced against replies, a
    /// `join_all` sibling waking) is already armed and adds no entry.
    armed_for: Option<Waker>,
}

impl Future for Timer {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now() >= self.deadline {
            return Poll::Ready(());
        }
        let armed = self
            .armed_for
            .as_ref()
            .is_some_and(|w| w.will_wake(cx.waker()));
        if !armed {
            // First poll, or the future moved to another task.
            self.core.schedule_wake(self.deadline, cx.waker().clone());
            self.armed_for = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

/// Yield once: reschedules the task at the current time, behind the ready
/// queue. Useful to model "the CPU gets around to it" orderings in tests.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let mut sim = Sim::new();
        let out = sim.run();
        assert_eq!(out.time, SimTime::ZERO);
        assert_eq!(out.pending_tasks, 0);
    }

    #[test]
    fn timer_advances_clock() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let done = Rc::new(RefCell::new(None));
        let done2 = Rc::clone(&done);
        sim.spawn("t", async move {
            h.delay(SimDuration::from_micros(10)).await;
            *done2.borrow_mut() = Some(h.now());
        });
        let out = sim.run();
        assert_eq!(
            *done.borrow(),
            Some(SimTime::ZERO + SimDuration::from_micros(10))
        );
        assert_eq!(out.pending_tasks, 0);
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let mut sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, us) in [(0u32, 30u64), (1, 10), (2, 20), (3, 10)] {
            let h = sim.handle();
            let order = Rc::clone(&order);
            sim.spawn("t", async move {
                h.delay(SimDuration::from_micros(us)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        // 10us ties resolve in spawn order: 1 before 3.
        assert_eq!(*order.borrow(), vec![1, 3, 2, 0]);
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn("child", async move {
            h.delay(SimDuration::from_micros(1)).await;
            42u32
        });
        let h2 = sim.handle();
        let result = Rc::new(RefCell::new(0));
        let result2 = Rc::clone(&result);
        sim.spawn("parent", async move {
            let _ = &h2;
            *result2.borrow_mut() = jh.await;
        });
        sim.run();
        assert_eq!(*result.borrow(), 42);
    }

    #[test]
    fn nested_spawn_runs() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let flag = Rc::new(RefCell::new(false));
        let flag2 = Rc::clone(&flag);
        sim.spawn("outer", async move {
            let inner_flag = Rc::clone(&flag2);
            let hh = h.clone();
            let jh = h.spawn("inner", async move {
                hh.delay(SimDuration::from_micros(5)).await;
                *inner_flag.borrow_mut() = true;
            });
            jh.await;
        });
        let out = sim.run();
        assert!(*flag.borrow());
        assert_eq!(out.time, SimTime::ZERO + SimDuration::from_micros(5));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn("late", async move {
            h.delay(SimDuration::from_secs(100)).await;
        });
        let out = sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(out.time, SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(out.pending_tasks, 1);
        assert_eq!(sim.pending_task_names(), vec!["late"]);
    }

    #[test]
    fn yield_now_interleaves() {
        let mut sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let order = Rc::clone(&order);
            sim.spawn("y", async move {
                order.borrow_mut().push((i, 0));
                yield_now().await;
                order.borrow_mut().push((i, 1));
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn determinism_same_program_same_event_count() {
        fn run_once() -> (u64, SimTime) {
            let mut sim = Sim::new();
            for i in 0..50u64 {
                let h = sim.handle();
                sim.spawn("t", async move {
                    h.delay(SimDuration::from_nanos(i * 7 % 13)).await;
                    h.delay(SimDuration::from_nanos(i)).await;
                });
            }
            let out = sim.run();
            (out.events, out.time)
        }
        assert_eq!(run_once(), run_once());
    }

    /// Hands the polling task's waker out of the sim, then finishes.
    fn leak_waker(out: Rc<RefCell<Option<Waker>>>) -> impl Future<Output = ()> {
        std::future::poll_fn(move |cx| {
            *out.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        })
    }

    #[test]
    fn stale_waker_after_slot_reuse_does_not_poll_the_new_occupant() {
        let mut sim = Sim::new();
        let stale = Rc::new(RefCell::new(None));
        sim.spawn("first", leak_waker(Rc::clone(&stale)));
        assert_eq!(sim.run().events, 1);

        // The finished task's slot is free: the next spawn takes it.
        let polls = Rc::new(Cell::new(0u32));
        let polls2 = Rc::clone(&polls);
        sim.spawn("second", async move {
            std::future::poll_fn(|_| {
                polls2.set(polls2.get() + 1);
                Poll::<()>::Pending
            })
            .await
        });
        assert_eq!(sim.core.tasks.borrow().slots.len(), 1, "slot reused");
        let out = sim.run();
        assert_eq!((polls.get(), out.pending_tasks, out.events), (1, 1, 2));

        // The old occupant's waker queues, counts as an event, polls nothing.
        stale.borrow().as_ref().unwrap().wake_by_ref();
        let out = sim.run();
        assert_eq!((polls.get(), out.pending_tasks, out.events), (1, 1, 3));
        assert_eq!(sim.pending_task_names(), vec!["second"]);
    }

    #[test]
    fn wake_during_own_poll_requeues_exactly_once() {
        let mut sim = Sim::new();
        let polls = Rc::new(Cell::new(0u32));
        let polls2 = Rc::clone(&polls);
        sim.spawn("self-waker", async move {
            std::future::poll_fn(|cx| {
                polls2.set(polls2.get() + 1);
                if polls2.get() == 1 {
                    // Three wakes inside one poll: one queue entry.
                    cx.waker().wake_by_ref();
                    cx.waker().wake_by_ref();
                    let by_value = cx.waker().clone();
                    by_value.wake();
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            })
            .await
        });
        let out = sim.run();
        assert_eq!((polls.get(), out.events, out.pending_tasks), (2, 2, 0));
    }

    #[test]
    fn spawn_wave_with_cross_wakes_is_linear() {
        // 200 000 tasks become ready at once and each is woken once more by
        // its neighbour's send while the whole wave is still queued. A ready
        // queue that scans for duplicates on push does 2 x 10^10 comparisons
        // here; this one finishes in well under a second.
        const N: usize = 200_000;
        let mut sim = Sim::new();
        let mut rxs = Vec::with_capacity(N);
        let mut txs = Vec::with_capacity(N);
        for _ in 0..N {
            let (tx, rx) = crate::channel::channel::<()>();
            txs.push(tx);
            rxs.push(rx);
        }
        // Task i owns receiver i and the sender of task i + 1 (the last one
        // wraps around to task 0, which has parked by then).
        txs.rotate_left(1);
        for (rx, tx) in rxs.into_iter().zip(txs) {
            sim.spawn("wave", async move {
                tx.send(()).unwrap();
                rx.recv().await.unwrap();
            });
        }
        let out = sim.run();
        assert_eq!(out.pending_tasks, 0);
        // First pass: N polls; task 0 parks, every other task finds its
        // message already there and finishes. The last send wakes task 0.
        assert_eq!(out.events, N as u64 + 1);
        assert_eq!(sim.core.tasks.borrow().free.len(), N);
    }

    #[test]
    fn dropping_the_sim_drops_parked_tasks() {
        let mut sim = Sim::new();
        let sentinel = Rc::new(());
        let (tx, rx) = crate::channel::channel::<()>();
        {
            let held = Rc::clone(&sentinel);
            let h = sim.handle();
            sim.spawn("daemon", async move {
                let _held = held;
                let _h = h; // the handle closes the task <-> core cycle
                rx.recv().await.ok();
            });
        }
        {
            // Parked on the calendar instead, beyond the run's deadline.
            let held = Rc::clone(&sentinel);
            let h = sim.handle();
            sim.spawn("sleeper", async move {
                let _held = held;
                h.delay(SimDuration::from_secs(3600)).await;
            });
        }
        let out = sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(out.pending_tasks, 2);
        assert_eq!(Rc::strong_count(&sentinel), 3);
        let core = Rc::downgrade(&sim.core);
        drop(sim);
        assert_eq!(Rc::strong_count(&sentinel), 1);
        assert!(
            core.upgrade().is_none(),
            "no handle left: the core is freed"
        );
        assert!(tx.send(()).is_err(), "the receiver went with its task");
    }

    #[test]
    fn drop_handles_tasks_that_spawn_and_wake_while_being_dropped() {
        struct SpawnOnDrop(SimHandle, Rc<()>);
        impl Drop for SpawnOnDrop {
            fn drop(&mut self) {
                let held = Rc::clone(&self.1);
                let h = self.0.clone();
                self.0.spawn("late", async move {
                    let _held = held;
                    let _h = h;
                });
            }
        }
        let mut sim = Sim::new();
        let sentinel = Rc::new(());
        let guard = SpawnOnDrop(sim.handle(), Rc::clone(&sentinel));
        let (tx, rx) = crate::channel::channel::<()>();
        let woken = Rc::new(RefCell::new(None));
        sim.spawn("parked", {
            let woken = Rc::clone(&woken);
            async move {
                let _guard = guard;
                let _tx = tx; // dropping it wakes "listener" mid-teardown
                std::future::poll_fn(|cx| {
                    *woken.borrow_mut() = Some(cx.waker().clone());
                    Poll::<()>::Pending
                })
                .await
            }
        });
        sim.spawn("listener", async move {
            rx.recv().await.ok();
        });
        sim.run();
        drop(sim);
        assert_eq!(Rc::strong_count(&sentinel), 1);
        // A waker that outlives its sim is inert.
        woken.borrow().as_ref().unwrap().wake_by_ref();
    }

    #[test]
    fn raced_timer_arms_once() {
        // One task races a 1 s timer against 1 000 channel messages, polling
        // both on every wake: the calendar must hold the timer's one entry
        // throughout, not one per message.
        const MSGS: u64 = 1_000;
        let mut sim = Sim::new();
        let (tx, rx) = crate::channel::channel::<u64>();
        let h = sim.handle();
        sim.spawn("feeder", async move {
            for i in 0..MSGS {
                h.delay(SimDuration::from_micros(1)).await;
                tx.send(i).unwrap();
            }
        });
        let h = sim.handle();
        let peak = Rc::new(Cell::new(0usize));
        let peak2 = Rc::clone(&peak);
        let racer = sim.spawn("racer", async move {
            let mut timer = Box::pin(h.delay(SimDuration::from_secs(1)));
            let mut got = 0u64;
            std::future::poll_fn(|cx| {
                while let Poll::Ready(msg) = Pin::new(&mut rx.recv()).poll(cx) {
                    match msg {
                        Ok(_) => got += 1,
                        Err(_) => return Poll::Ready(false),
                    }
                }
                // Entries in the calendar: the feeder's next delay + ours.
                peak2.set(peak2.get().max(h.core.calendar.borrow().len()));
                timer.as_mut().poll(cx).map(|()| true)
            })
            .await;
            got
        });
        let out = sim.run();
        assert_eq!(racer.try_take(), Some(MSGS));
        assert_eq!(peak.get(), 2);
        // feeder: 1 first poll + per message a calendar pop and a poll;
        // racer: 1 first poll + 1 poll per message (the last one also sees
        // the channel close); then the dead timer entry pops at 1 s and its
        // wake finds no task: 2 more.
        assert_eq!(out.events, (1 + 2 * MSGS) + (1 + MSGS) + 2);
        assert_eq!(out.time, SimTime::ZERO + SimDuration::from_secs(1));
    }
}
