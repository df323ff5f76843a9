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
//! * **Calls.** A calendar entry is a timer's wake-up or a one-shot call
//!   ([`SimHandle::call_at`]); both share the `(time, seq)` order. A call
//!   runs between polls, on the run loop: what it wakes and spawns becomes
//!   ready exactly as if a poll had done it, and it cannot await. Calls
//!   still pending when the [`Sim`] is dropped are dropped with it, unrun.
//! * **Dropped timers.** A [`Timer`] dropped before it fires leaves its
//!   entry on the calendar: the clock still visits that instant (so a run
//!   drains at the same virtual time), but no task is woken or polled.
//!
//! # Threading model
//!
//! One [`Sim`] lives on one thread. Tasks are `!Send` futures, so the core
//! state is plain `Cell`/`RefCell` behind an `Rc` and every handle
//! ([`SimHandle`], [`JoinHandle`], [`Timer`], channels, resources) is `!Send`
//! by construction; programs parallelise by running independent `Sim`s on
//! different threads.
//!
//! `std::task::Wake` requires wakers to be `Send + Sync`, and a task's
//! waker is that: it names its task by plain numbers (the `Sim`'s id, never
//! reused in the process, a table slot and a [`TaskId`]) and owns nothing.
//! The ready queue it reaches is not inside the waker but in a per-thread
//! registry keyed by the `Sim`'s id, which only the `Sim`'s own thread can
//! see: a wake issued on any other thread, or after the `Sim` is dropped,
//! finds no queue under that id and does nothing. No lock, no `unsafe`, and
//! no atomic read-modify-write on the path: a wake moves (or, by
//! reference, clones) the task's `Arc` into the queue, and the run loop
//! polls with the waker built once at spawn.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task, unique within one [`Sim`] and never reused
/// (the table slot a task occupies is).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId(u64);

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A one-shot call that owns its box: what a calendar call entry holds.
///
/// Every `FnOnce()` closure is one. A record that crosses several waits —
/// a frame crossing a fabric hop by hop — implements it itself and goes
/// back on the calendar in the box it already has
/// ([`SimHandle::call_boxed_at`]), instead of a fresh boxed closure per wait.
pub trait Call {
    /// Run the call, consuming it.
    fn call(self: Box<Self>);
}

impl<F: FnOnce()> Call for F {
    fn call(self: Box<Self>) {
        (*self)()
    }
}

type BoxedCall = Box<dyn Call>;

/// A calendar entry: do `action` at `time`.
struct CalEntry<A> {
    time: SimTime,
    seq: u64,
    action: A,
}

impl<A> CalEntry<A> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }

    fn map<B>(self, f: impl FnOnce(A) -> B) -> CalEntry<B> {
        CalEntry {
            time: self.time,
            seq: self.seq,
            action: f(self.action),
        }
    }
}

impl<A> PartialEq for CalEntry<A> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<A> Eq for CalEntry<A> {}
impl<A> PartialOrd for CalEntry<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<A> Ord for CalEntry<A> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// What a due calendar entry does.
enum CalAction {
    /// A timer: wake the task that armed it.
    Wake(Waker),
    /// A timer dropped, or a call withdrawn, before its time: the clock
    /// moves, nothing runs.
    Dead,
    /// A one-shot call, run by the run loop itself between polls.
    Call(BoxedCall),
}

/// What an armed slot of the calendar's slab does when its entry comes due.
enum Armed {
    /// Wake a [`Timer`]'s task (the slot is freed when the timer drops).
    Wake(Waker),
    /// Run a withdrawable call ([`SimHandle::call_cancellable_at`]; the
    /// slot is freed when it runs or is withdrawn).
    Call(BoxedCall),
}

/// An armed entry of the slab: what to do, and for which entry.
struct TimerSlot {
    /// `seq` of the calendar entry this slot is armed for. `seq` is never
    /// reused, so an entry whose timer or call is gone (its slot freed, or
    /// armed again by another) cannot pass for a live one.
    seq: u64,
    /// Taken when the entry fires.
    armed: Option<Armed>,
}

/// The event calendar: one `(time, seq)` order over timers' wake-ups and
/// one-shot calls. Each kind has its own heap, so that a timer's entry is
/// no larger for calls existing (every sift moves whole entries), and a
/// timer's entry holds only the index of its slot: dropping a [`Timer`]
/// (or withdrawing a call armed the same way) frees the slot and what it
/// holds at once, while its entry stays in the heap so the clock still
/// visits that instant.
#[derive(Default)]
struct Calendar {
    wakes: BinaryHeap<Reverse<CalEntry<u32>>>,
    calls: BinaryHeap<Reverse<CalEntry<BoxedCall>>>,
    /// A slab: slots of live armed timers and withdrawable calls, reused
    /// through `free_timers`.
    timers: Vec<TimerSlot>,
    free_timers: Vec<u32>,
}

impl Calendar {
    /// Put an entry for `armed` on the calendar; returns its slot.
    fn arm(&mut self, time: SimTime, seq: u64, armed: Armed) -> u32 {
        let armed = TimerSlot {
            seq,
            armed: Some(armed),
        };
        let slot = match self.free_timers.pop() {
            Some(slot) => {
                self.timers[slot as usize] = armed;
                slot
            }
            None => {
                let slot = u32::try_from(self.timers.len()).expect("more than 2^32 live timers");
                self.timers.push(armed);
                slot
            }
        };
        self.wakes.push(Reverse(CalEntry {
            time,
            seq,
            action: slot,
        }));
        slot
    }

    /// The timer or call in `slot` is gone (fired and finished, dropped or
    /// withdrawn early); returns what it still held, for the caller to drop
    /// outside any borrow.
    fn disarm(&mut self, slot: u32) -> Option<Armed> {
        let freed = std::mem::replace(
            &mut self.timers[slot as usize],
            TimerSlot {
                seq: u64::MAX,
                armed: None,
            },
        );
        self.free_timers.push(slot);
        freed.armed
    }

    /// Remove the earliest entry if it is due by `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<CalEntry<CalAction>> {
        let wake = self.wakes.peek().map(|Reverse(e)| e.key());
        let call = self.calls.peek().map(|Reverse(e)| e.key());
        let call_first = match (wake, call) {
            (Some(w), Some(c)) => c < w,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let (time, seq) = if call_first { call? } else { wake? };
        if time > deadline {
            return None;
        }
        if call_first {
            return Some(self.calls.pop()?.0.map(CalAction::Call));
        }
        let entry = self.wakes.pop()?.0;
        let slot = entry.action;
        let timer = &mut self.timers[slot as usize];
        let action = match timer.armed.take_if(|_| timer.seq == seq) {
            Some(Armed::Wake(waker)) => CalAction::Wake(waker),
            Some(Armed::Call(call)) => {
                // Nobody owns a withdrawable call's slot once it runs.
                self.disarm(slot);
                CalAction::Call(call)
            }
            None => CalAction::Dead,
        };
        Some(entry.map(|_| action))
    }
}

/// Ids of `Sim`s, unique in the process: what a waker names its `Sim` by.
static NEXT_SIM: AtomicU64 = AtomicU64::new(0);

/// Tasks ready to be polled, FIFO.
type ReadyQueue = RefCell<VecDeque<Arc<TaskWaker>>>;

thread_local! {
    /// The ready queues of the `Sim`s alive on this thread, by `Sim` id — the
    /// only way a waker reaches one. Registered by [`Sim::new`], removed when
    /// the `Sim` is dropped.
    static READY: RefCell<Vec<(u64, Rc<ReadyQueue>)>> = const { RefCell::new(Vec::new()) };
}

/// Queue `task` on its `Sim`'s ready queue, if that `Sim` lives on this
/// thread and the task is not queued already (several wakes before a poll
/// run it once). Anywhere else — another thread, or after the `Sim` is gone
/// — nothing happens. The `Arc` is moved into the queue, not cloned.
fn enqueue(task: Arc<TaskWaker>) {
    if task.queued.load(Ordering::Relaxed) {
        return;
    }
    // During thread teardown the registry may be gone: no `Sim` is left.
    let _ = READY.try_with(|registry| {
        let registry = registry.borrow();
        if let Some((_, queue)) = registry.iter().find(|(sim, _)| *sim == task.sim) {
            task.queued.store(true, Ordering::Relaxed);
            queue.borrow_mut().push_back(task);
        }
    });
}

/// The waker of one task, built once at spawn; every `Waker` the task ever
/// sees is a clone of the same `Arc`, so `Waker::will_wake` holds between
/// any two polls of a task. It owns nothing: it names its `Sim` and task.
struct TaskWaker {
    /// Id of the `Sim` the task belongs to (see [`READY`]).
    sim: u64,
    slot: u32,
    /// The occupant of `slot` this waker belongs to. A waker that outlives
    /// its task (a timeout that lost its race, say) still queues, and the
    /// run loop finds the slot empty or re-occupied and polls nothing.
    id: TaskId,
    /// In the ready queue right now. Set by [`enqueue`] and cleared by the
    /// run loop, both on the `Sim`'s thread; other threads only read it.
    queued: AtomicBool,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        enqueue(self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.load(Ordering::Relaxed) {
            enqueue(Arc::clone(self));
        }
    }
}

/// A task between polls: its future, and the waker it is polled with.
struct Parked {
    fut: BoxedFuture,
    waker: Waker,
}

struct Slot {
    id: TaskId,
    name: &'static str,
    /// `None` while the task is being polled (so a re-entrant spawn or wake
    /// cannot alias it) and once it has finished.
    task: Option<Parked>,
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
    /// The slot the next task will occupy.
    fn next_slot(&self) -> u32 {
        match self.free.last() {
            Some(&i) => i,
            None => u32::try_from(self.slots.len()).expect("more than 2^32 live tasks"),
        }
    }

    /// Seat a task in [`TaskTable::next_slot`].
    fn insert(&mut self, id: TaskId, name: &'static str, task: Parked) {
        self.live += 1;
        let slot = Slot {
            id,
            name,
            task: Some(task),
        };
        match self.free.pop() {
            Some(i) => self.slots[i as usize] = slot,
            None => self.slots.push(slot),
        }
    }

    /// Take task `id` out of `slot` for polling; `None` if that task has
    /// finished (whoever occupies the slot now).
    fn take(&mut self, slot: u32, id: TaskId) -> Option<Parked> {
        let s = &mut self.slots[slot as usize];
        if s.id == id {
            s.task.take()
        } else {
            None
        }
    }

    fn put_back(&mut self, slot: u32, task: Parked) {
        self.slots[slot as usize].task = Some(task);
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
    calendar: RefCell<Calendar>,
    /// This `Sim`'s id in the per-thread registry of ready queues.
    id: u64,
    /// The ready queue, also reachable from [`READY`] until the `Sim` is
    /// dropped.
    ready: Rc<ReadyQueue>,
    /// The `Sim` has been dropped: its tasks are being destroyed.
    torn_down: Cell<bool>,
    tasks: RefCell<TaskTable>,
    /// Tasks spawned since the run loop last looked, in spawn order.
    newly_spawned: RefCell<Vec<Arc<TaskWaker>>>,
    next_task: Cell<u64>,
    events_processed: Cell<u64>,
}

impl SimCore {
    fn new() -> Self {
        let id = NEXT_SIM.fetch_add(1, Ordering::Relaxed);
        let ready = Rc::new(ReadyQueue::default());
        READY.with(|registry| registry.borrow_mut().push((id, Rc::clone(&ready))));
        SimCore {
            now: Cell::new(SimTime::ZERO),
            seq: Cell::new(0),
            calendar: RefCell::new(Calendar::default()),
            id,
            ready,
            torn_down: Cell::new(false),
            tasks: RefCell::new(TaskTable::default()),
            newly_spawned: RefCell::new(Vec::new()),
            next_task: Cell::new(0),
            events_processed: Cell::new(0),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    /// The `seq` of the next calendar entry, registered for time `at`.
    fn next_seq(&self, at: SimTime) -> u64 {
        debug_assert!(at >= self.now(), "cannot schedule an entry in the past");
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        seq
    }

    /// Register `waker` to fire at absolute time `at`; returns the timer's
    /// slot on the calendar.
    fn schedule_wake(&self, at: SimTime, waker: Waker) -> u32 {
        let seq = self.next_seq(at);
        self.calendar.borrow_mut().arm(at, seq, Armed::Wake(waker))
    }

    /// Register `f` to run at absolute time `at`.
    fn schedule_call(&self, at: SimTime, f: BoxedCall) {
        let seq = self.next_seq(at);
        self.calendar.borrow_mut().calls.push(Reverse(CalEntry {
            time: at,
            seq,
            action: f,
        }));
    }

    fn count_event(&self) {
        self.events_processed.set(self.events_processed.get() + 1);
    }

    fn pop_ready(&self) -> Option<Arc<TaskWaker>> {
        let task = self.ready.borrow_mut().pop_front()?;
        task.queued.store(false, Ordering::Relaxed);
        Some(task)
    }
}

/// Outcome of [`Sim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Virtual time when the run loop stopped.
    pub time: SimTime,
    /// Tasks still alive but blocked with no event that could ever wake them
    /// (e.g. daemons parked on a channel whose senders are still live).
    /// Zero means every task ran to completion. Only processes are tasks:
    /// a message in flight, a frame queued for a wire and a nonblocking
    /// send or receive awaiting its match are calendar calls and records
    /// (`dacc_fabric::mpi`), so an unmatched message or an unanswered
    /// handshake no longer shows up here — the process awaiting it does.
    pub pending_tasks: usize,
    /// Calendar entries popped (timers fired or found dead, calls run) plus
    /// ready-queue entries popped (task polls, including wakes that found
    /// their task finished) — for engine benchmarks.
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
            while let Some(task) = core.pop_ready() {
                self.poll_task(task);
                self.adopt_spawned();
                core.count_event();
            }

            // Advance to the next calendar event.
            let entry = core.calendar.borrow_mut().pop_due(deadline);
            match entry {
                Some(e) => {
                    debug_assert!(e.time >= core.now(), "calendar went backwards");
                    core.now.set(e.time);
                    core.count_event();
                    // The calendar borrow ended above: a call is free to
                    // schedule, spawn and wake.
                    match e.action {
                        CalAction::Wake(waker) => waker.wake(),
                        CalAction::Dead => {}
                        CalAction::Call(call) => call.call(),
                    }
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

    /// Names of tasks that are still blocked (diagnostics for stalls). These
    /// are processes; messages and requests in flight are not tasks (see
    /// [`RunOutcome::pending_tasks`]).
    pub fn pending_task_names(&self) -> Vec<&'static str> {
        let tasks = self.core.tasks.borrow();
        let mut v: Vec<&'static str> = tasks
            .slots
            .iter()
            .filter(|s| s.task.is_some())
            .map(|s| s.name)
            .collect();
        v.sort_unstable();
        v
    }

    fn adopt_spawned(&self) {
        let core = &self.core;
        let mut spawned = core.newly_spawned.borrow_mut();
        if spawned.is_empty() {
            return;
        }
        let mut ready = core.ready.borrow_mut();
        for task in spawned.drain(..) {
            // Nobody holds the waker of a task not yet polled: not queued.
            task.queued.store(true, Ordering::Relaxed);
            ready.push_back(task);
        }
    }

    fn poll_task(&self, task: Arc<TaskWaker>) {
        let slot = task.slot;
        // Taken out while polling so a re-entrant spawn finds the table free.
        let Some(mut parked) = self.core.tasks.borrow_mut().take(slot, task.id) else {
            return; // already completed; spurious wake
        };
        let mut cx = Context::from_waker(&parked.waker);
        match parked.fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => self.core.tasks.borrow_mut().release(slot),
            Poll::Pending => self.core.tasks.borrow_mut().put_back(slot, parked),
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Every parked task owns `SimHandle`s and the core owns the tasks: a
        // reference cycle that would keep a whole cluster alive (and so does
        // a pending call that captured one). Take what can hold a handle out
        // of the core and drop it outside any borrow; a future's or a call's
        // own `Drop` may wake, spawn or schedule, so repeat until empty.
        // Wakes from here on find no queue.
        let core = &*self.core;
        core.torn_down.set(true);
        let _ = READY.try_with(|registry| registry.borrow_mut().retain(|(sim, _)| *sim != core.id));
        core.ready.borrow_mut().clear();
        loop {
            let tasks: Vec<Parked> = {
                let mut tasks = core.tasks.borrow_mut();
                tasks
                    .slots
                    .iter_mut()
                    .filter_map(|s| s.task.take())
                    .collect()
            };
            let spawned = std::mem::take(&mut *core.newly_spawned.borrow_mut());
            // Timer slots stay (parked `Timer`s free them as they drop);
            // withdrawable calls go with the entries.
            let (wakes, calls, armed) = {
                let mut cal = core.calendar.borrow_mut();
                let armed_calls: Vec<u32> = (0..cal.timers.len() as u32)
                    .filter(|&i| matches!(cal.timers[i as usize].armed, Some(Armed::Call(_))))
                    .collect();
                let armed: Vec<Armed> = armed_calls
                    .into_iter()
                    .filter_map(|i| cal.disarm(i))
                    .collect();
                (
                    std::mem::take(&mut cal.wakes),
                    std::mem::take(&mut cal.calls),
                    armed,
                )
            };
            if tasks.is_empty()
                && spawned.is_empty()
                && wakes.is_empty()
                && calls.is_empty()
                && armed.is_empty()
            {
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
        self.core.torn_down.get()
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
        let mut tasks = core.tasks.borrow_mut();
        let task = Arc::new(TaskWaker {
            sim: core.id,
            slot: tasks.next_slot(),
            id,
            queued: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&task));
        tasks.insert(
            id,
            name,
            Parked {
                fut: wrapped,
                waker,
            },
        );
        drop(tasks);
        core.newly_spawned.borrow_mut().push(task);
        JoinHandle { state, id }
    }

    /// Run `f` once at virtual time `at` (not in the past), as a calendar
    /// entry rather than a task: no spawn, no poll, one allocation. `f` runs
    /// on the run loop between polls, in `(time, seq)` order with timers; it
    /// may wake, spawn, schedule and borrow shared state, but cannot await.
    /// A call still pending when the [`Sim`] is dropped is dropped unrun.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce() + 'static) {
        self.core.schedule_call(at, Box::new(f));
    }

    /// [`SimHandle::call_at`] for a call that is boxed already: no allocation.
    pub fn call_boxed_at(&self, at: SimTime, call: Box<dyn Call>) {
        self.core.schedule_call(at, call);
    }

    /// [`SimHandle::call_boxed_at`] for a call that may be withdrawn before
    /// it runs ([`SimHandle::cancel`]) — a deadline that usually loses its
    /// race. It is armed like a [`Timer`]: the calendar entry holds a slot
    /// of the timer slab, and withdrawing the call frees the slot and the
    /// box at once while the entry stays, so the clock still visits that
    /// instant and the entry pops as one event that runs nothing, exactly
    /// like a dropped timer's.
    pub fn call_cancellable_at(&self, at: SimTime, call: Box<dyn Call>) -> CallKey {
        let seq = self.core.next_seq(at);
        let slot = self
            .core
            .calendar
            .borrow_mut()
            .arm(at, seq, Armed::Call(call));
        CallKey { slot, seq }
    }

    /// Withdraw a call armed by [`SimHandle::call_cancellable_at`]; a no-op
    /// if it has run (or was withdrawn) already.
    pub fn cancel(&self, key: CallKey) {
        let withdrawn = {
            let mut cal = self.core.calendar.borrow_mut();
            if cal.timers[key.slot as usize].seq == key.seq {
                cal.disarm(key.slot)
            } else {
                None
            }
        };
        // Dropped outside the borrow: the call's own `Drop` may schedule.
        drop(withdrawn);
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
            slot: None,
        }
    }
}

/// Names a call armed by [`SimHandle::call_cancellable_at`].
#[derive(Clone, Copy, Debug)]
pub struct CallKey {
    slot: u32,
    seq: u64,
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
    /// The calendar slot holding the waker this timer armed with. A pending
    /// timer polled again (a timeout raced against replies, a `join_all`
    /// sibling waking) is already armed and adds no entry.
    slot: Option<u32>,
}

impl Future for Timer {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now() >= self.deadline {
            return Poll::Ready(());
        }
        match self.slot {
            None => {
                let slot = self.core.schedule_wake(self.deadline, cx.waker().clone());
                self.slot = Some(slot);
            }
            Some(slot) => {
                // Same entry; a new waker only if the future moved tasks.
                let mut cal = self.core.calendar.borrow_mut();
                let armed = &mut cal.timers[slot as usize].armed;
                if !matches!(armed, Some(Armed::Wake(w)) if w.will_wake(cx.waker())) {
                    *armed = Some(Armed::Wake(cx.waker().clone()));
                }
            }
        }
        Poll::Pending
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        // Dropped before its time (a timeout whose reply won), the timer
        // leaves its entry on the calendar — the clock still reaches the
        // deadline — with nobody to wake.
        if let Some(slot) = self.slot.take() {
            let waker = self.core.calendar.borrow_mut().disarm(slot);
            drop(waker);
        }
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
                peak2.set(peak2.get().max(h.core.calendar.borrow().wakes.len()));
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
        // the channel close); then the dropped timer's entry pops at 1 s,
        // moving the clock there and waking nobody: 1 more.
        assert_eq!(out.events, (1 + 2 * MSGS) + (1 + MSGS) + 1);
        assert_eq!(out.time, SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn dropped_timer_does_not_wake_its_live_task() {
        // A timeout that lost its race belongs to a task that lives on: its
        // entry must not poll that task again when the deadline passes.
        let mut sim = Sim::new();
        let h = sim.handle();
        let polls = Rc::new(Cell::new(0u32));
        let polls2 = Rc::clone(&polls);
        sim.spawn("t", async move {
            let mut timeout = Box::pin(h.delay(SimDuration::from_micros(10)));
            std::future::poll_fn(|cx| {
                let _ = timeout.as_mut().poll(cx); // arm, then abandon
                Poll::Ready(())
            })
            .await;
            drop(timeout);
            let mut long = Box::pin(h.delay(SimDuration::from_micros(50)));
            std::future::poll_fn(|cx| {
                polls2.set(polls2.get() + 1);
                long.as_mut().poll(cx)
            })
            .await;
        });
        let out = sim.run();
        // Polled when first reached and when the 50 us timer fires; not at
        // 10 us. Events: first poll, dead pop, live pop, final poll.
        assert_eq!((polls.get(), out.events, out.pending_tasks), (2, 4, 0));
        assert_eq!(out.time, SimTime::ZERO + SimDuration::from_micros(50));
        let cal = sim.core.calendar.borrow();
        assert_eq!(
            (cal.timers.len(), cal.free_timers.len()),
            (1, 1),
            "slot reused"
        );
    }

    #[test]
    fn calls_share_calendar_order_with_timers_and_may_wake_and_spawn() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // Registration order at t = 10 us: timer A, call B, timer C, call D.
        let root = sim.handle();
        let spawn_timer = |name: &'static str| {
            let (h, log) = (root.clone(), Rc::clone(&log));
            root.spawn(name, async move {
                h.delay_until(at(10)).await;
                log.borrow_mut().push((name, h.now()));
            });
        };
        spawn_timer("A");
        sim.run_until(SimTime::ZERO); // A arms first
        let (tx, rx) = crate::channel::channel::<&'static str>();
        {
            let (h, log) = (sim.handle(), Rc::clone(&log));
            sim.handle().call_at(at(10), move || {
                log.borrow_mut().push(("B", h.now()));
                // A call may wake a parked task and spawn a new one; the
                // wake runs first, the spawn behind it, both before the
                // next calendar entry.
                tx.send("woken-by-B").unwrap();
                let log2 = Rc::clone(&log);
                let h2 = h.clone();
                h.spawn("spawned", async move {
                    log2.borrow_mut().push(("spawned-by-B", h2.now()));
                });
            });
        }
        {
            let (h, log) = (sim.handle(), Rc::clone(&log));
            sim.spawn("listener", async move {
                let what = rx.recv().await.unwrap();
                log.borrow_mut().push((what, h.now()));
            });
        }
        spawn_timer("C");
        sim.run_until(SimTime::ZERO); // listener parks, C arms
        {
            let (h, log) = (sim.handle(), Rc::clone(&log));
            sim.handle().call_at(at(10), move || {
                log.borrow_mut().push(("D", h.now()));
                // ... and schedule: an earlier-registered entry at a later
                // time still runs after it.
                let (h2, log2) = (h.clone(), Rc::clone(&log));
                h.call_at(at(20), move || log2.borrow_mut().push(("E", h2.now())));
            });
        }
        let out = sim.run();
        let names: Vec<_> = log.borrow().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["A", "B", "woken-by-B", "spawned-by-B", "C", "D", "E"]
        );
        assert!(log.borrow()[..6].iter().all(|(_, t)| *t == at(10)));
        assert_eq!((out.time, out.pending_tasks), (at(20), 0));
        // 3 first polls (A, listener, C), 5 calendar pops, and the polls of
        // A, listener, spawned, C that those caused.
        assert_eq!(out.events, 3 + 5 + 4);
    }

    #[test]
    fn dropping_the_sim_drops_pending_calls_unrun() {
        struct ScheduleOnDrop(SimHandle, Rc<()>);
        impl Drop for ScheduleOnDrop {
            fn drop(&mut self) {
                let held = Rc::clone(&self.1);
                let h = self.0.clone();
                let at = self.0.now() + SimDuration::from_secs(1);
                self.0.call_at(at, move || {
                    let (_held, _h) = (&held, &h);
                    unreachable!("scheduled during teardown");
                });
            }
        }
        let mut sim = Sim::new();
        let sentinel = Rc::new(());
        let ran = Rc::new(Cell::new(false));
        {
            // The call owns a handle (the call <-> core cycle), a sentinel,
            // and a guard that schedules another call when dropped.
            let guard = ScheduleOnDrop(sim.handle(), Rc::clone(&sentinel));
            let ran = Rc::clone(&ran);
            let at = SimTime::ZERO + SimDuration::from_secs(3600);
            sim.handle().call_at(at, move || {
                let _guard = &guard;
                ran.set(true);
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(Rc::strong_count(&sentinel), 2);
        let core = Rc::downgrade(&sim.core);
        drop(sim);
        assert!(!ran.get());
        assert_eq!(Rc::strong_count(&sentinel), 1);
        assert!(core.upgrade().is_none(), "no call left holding the core");
    }

    /// A task that parks forever and hands its waker out.
    fn parked_forever(sim: &Sim) -> Rc<RefCell<Option<Waker>>> {
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        sim.spawn("parked", async move {
            std::future::poll_fn(|cx| {
                *out2.borrow_mut() = Some(cx.waker().clone());
                Poll::<()>::Pending
            })
            .await
        });
        out
    }

    #[test]
    fn a_wake_after_the_sim_is_dropped_does_nothing() {
        let mut sim = Sim::new();
        let waker = parked_forever(&sim);
        assert_eq!(sim.run().events, 1);
        let waker = waker.borrow_mut().take().expect("polled once");
        // Another sim on the same thread: the stale waker must not reach it.
        let mut other = Sim::new();
        let other_waker = parked_forever(&other);
        drop(sim);
        waker.wake_by_ref();
        waker.wake();
        let out = other.run();
        assert_eq!((out.events, out.pending_tasks), (1, 1));
        assert!(other_waker.borrow().is_some());
    }

    #[test]
    fn a_wake_from_another_thread_does_nothing() {
        let mut sim = Sim::new();
        let waker = parked_forever(&sim);
        assert_eq!(sim.run().events, 1);
        let waker = waker.borrow_mut().take().expect("polled once");
        // Wakers are `Send`: the other thread finds no queue under this
        // `Sim`'s id in its registry (even with a `Sim` of its own there).
        std::thread::spawn(move || {
            let mut there = Sim::new();
            let theirs = parked_forever(&there);
            waker.wake_by_ref();
            assert_eq!(there.run().events, 1);
            waker.wake();
            assert_eq!(there.run().events, 1);
            drop(theirs);
        })
        .join()
        .expect("the foreign wake must not panic");
        let out = sim.run();
        assert_eq!(
            (out.events, out.pending_tasks),
            (1, 1),
            "nothing was polled"
        );
    }

    #[test]
    fn a_withdrawn_call_frees_its_box_and_still_moves_the_clock() {
        /// Holds the sentinel; sets the flag when run.
        struct Guarded(Rc<()>, Rc<Cell<bool>>);
        impl Call for Guarded {
            fn call(self: Box<Self>) {
                let Guarded(_held, ran) = *self;
                ran.set(true);
            }
        }
        let mut sim = Sim::new();
        let h = sim.handle();
        let sentinel = Rc::new(());
        let ran = Rc::new(Cell::new(false));
        let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
        let withdrawn = h.call_cancellable_at(
            at(10),
            Box::new(Guarded(Rc::clone(&sentinel), Rc::clone(&ran))),
        );
        let kept = h.call_cancellable_at(
            at(5),
            Box::new(Guarded(Rc::clone(&sentinel), Rc::clone(&ran))),
        );
        assert_eq!(Rc::strong_count(&sentinel), 3);
        h.cancel(withdrawn);
        assert_eq!(Rc::strong_count(&sentinel), 2, "freed at once");
        let out = sim.run();
        assert!(ran.get());
        assert_eq!(Rc::strong_count(&sentinel), 1);
        // Two entries popped; the clock went to the withdrawn one's instant.
        assert_eq!((out.events, out.time), (2, at(10)));
        // Withdrawing after the run, or twice, is a no-op, even once both
        // slots are reused.
        h.cancel(kept);
        h.cancel(withdrawn);
        let cal = sim.core.calendar.borrow();
        assert_eq!((cal.timers.len(), cal.free_timers.len()), (2, 2));
    }

    #[test]
    fn a_withdrawable_call_pending_at_teardown_is_dropped_unrun() {
        let mut sim = Sim::new();
        let sentinel = Rc::new(());
        {
            let (held, h) = (Rc::clone(&sentinel), sim.handle());
            let at = SimTime::ZERO + SimDuration::from_secs(3600);
            sim.handle().call_cancellable_at(
                at,
                Box::new(move || {
                    let _ = (&held, &h);
                    unreachable!("dropped unrun");
                }),
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let core = Rc::downgrade(&sim.core);
        drop(sim);
        assert_eq!(Rc::strong_count(&sentinel), 1);
        assert!(core.upgrade().is_none(), "the call held the core");
    }
}
