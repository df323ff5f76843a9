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
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::channel::oneshot::OneSender;
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task, unique within one [`Sim`] and never reused
/// (the table slot a task occupies is).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId(u64);

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A record that is not a task, told by token when something it waits for
/// happens: its calendar entry comes due (`T = ()`), a queue grants it
/// ([`Granted`](crate::resource::Granted)), a request it made completes. A
/// record that waits again and again (a frame crossing the fabric hop by
/// hop, a copy train's blocks) stays in its owner's [`Slab`] and costs no
/// box per wait: the token names its place there.
pub trait Complete<T> {
    /// What `token` waited for has happened, with `value`.
    fn complete(self: Rc<Self>, token: u64, value: T);
}

/// Who learns of an outcome: the task awaiting its future, or a record,
/// told right there — held weakly: a record gone by then is not told.
pub enum Reply<T> {
    /// The task holding the other end.
    Wake(OneSender<T>),
    /// A record, and its token.
    Record(Weak<dyn Complete<T>>, u64),
}

impl<T: 'static> Reply<T> {
    /// A reply to `record`, naming `token`.
    #[inline]
    pub fn to(record: &Rc<impl Complete<T> + 'static>, token: u64) -> Self {
        Reply::Record(Rc::downgrade(record) as Weak<dyn Complete<T>>, token)
    }

    /// Tell whoever is waiting.
    #[inline]
    pub fn send(self, value: T) {
        match self {
            Reply::Wake(task) => task.send(value),
            Reply::Record(record, token) => {
                if let Some(record) = record.upgrade() {
                    record.complete(token, value);
                }
            }
        }
    }
}

/// A kind of record registered once ([`SimHandle::kind`]): a calendar entry
/// names one of its records by `(kind, index)`, with no reference of its
/// own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Kind(u32);

/// Entries whose `index` names a slot of the calendar's own slab.
const SLOT: Kind = Kind(u32::MAX);

/// What a calendar entry does when it comes due.
enum Later {
    /// Wake a [`Timer`]'s task (the timer frees the slot when it drops).
    Wake(Waker),
    /// Run a call ([`SimHandle::call_at`]).
    Call(Box<dyn FnOnce()>),
    /// Tell a record.
    Tell(Reply<()>),
    /// Tell a registered record, upgraded as its entry is popped.
    Due(Rc<dyn Complete<()>>, u64),
}

/// A calendar entry: `(time, seq)` orders it (`seq` is never reused), `kind`
/// and `index` say what it does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    seq: u64,
    kind: Kind,
    index: u32,
}

/// A slot of the calendar's slab: what its entry does, and for which entry.
struct Armed {
    /// `seq` of the entry this slot is for; never reused, so an entry whose
    /// slot was freed and taken again cannot pass for a live one.
    seq: u64,
    /// Taken when the entry fires.
    later: Option<Later>,
}

/// A plain entry earlier than its deque's last is placed by a scan from the
/// back that goes at most this far; one that would need more goes to the
/// heap, so no push costs more than this many steps or a heap push.
const SCAN: usize = 8;

/// The event calendar: one `(time, seq)` order over plain entries (never
/// withdrawn) and withdrawable ones (timers' wake-ups, records armed by
/// [`SimHandle::call_cancellable_at`]). Plain entries wait a wire's, a
/// server's or a CPU's time, a few at once: they are kept sorted in a
/// deque, and a new one is placed by a short scan from the back (see
/// [`SCAN`]). Withdrawable ones wait
/// anything up to a timeout, in a heap, each naming its slot: dropping a
/// [`Timer`] or withdrawing a call frees the slot at once, and once
/// withdrawn entries make up half their heap they are purged from it. A
/// purged entry's instant is kept as a ghost, which counts as an event and
/// moves the clock exactly as popping it would have: nothing observes the
/// clock between entries, only [`RunOutcome`] does.
#[derive(Default)]
struct Calendar {
    plain: VecDeque<Entry>,
    timed: BinaryHeap<Reverse<Entry>>,
    slots: Slab<Armed>,
    /// Entries of `timed` whose slot is gone.
    dead: usize,
    /// Instants of purged entries the clock has not passed yet, and how
    /// many it has passed since the run loop last counted them.
    ghosts: Vec<SimTime>,
    passed: u64,
    /// Registered kinds, by [`Kind`].
    kinds: Vec<Weak<dyn Complete<()>>>,
}

impl Calendar {
    /// A reply to record `index` of `kind`.
    fn tell(&self, kind: Kind, index: u32) -> Later {
        let records = self.kinds[kind.0 as usize].clone();
        Later::Tell(Reply::Record(records, u64::from(index)))
    }

    /// Put a plain entry on the calendar: behind every entry not later than
    /// it, as its `seq` is the largest so far.
    fn push(&mut self, entry: Entry) {
        let plain = &mut self.plain;
        if plain.back().is_none_or(|e| e.time <= entry.time) {
            return plain.push_back(entry);
        }
        let from = plain.len().saturating_sub(SCAN);
        match plain.range(from..).rposition(|e| e.time <= entry.time) {
            Some(i) => return plain.insert(from + i + 1, entry),
            None if from == 0 => return plain.push_front(entry),
            None => {}
        }
        let index = match entry.kind {
            SLOT => entry.index,
            kind => {
                let later = Some(self.tell(kind, entry.index));
                self.slots.insert(Armed {
                    seq: entry.seq,
                    later,
                })
            }
        };
        self.timed.push(Reverse(Entry {
            kind: SLOT,
            index,
            ..entry
        }));
    }

    /// Put a withdrawable entry for `later` on the calendar; returns its
    /// slot.
    fn arm(&mut self, time: SimTime, seq: u64, later: Later) -> u32 {
        let later = Some(later);
        let index = self.slots.insert(Armed { seq, later });
        self.timed.push(Reverse(Entry {
            time,
            seq,
            kind: SLOT,
            index,
        }));
        index
    }

    /// The entry `seq` of `slot` is gone (fired and finished, dropped or
    /// withdrawn early); returns what it still held, for the caller to drop
    /// outside any borrow. An entry withdrawn before its time stays in its
    /// heap, dead, until the dead are half of it.
    fn disarm(&mut self, slot: u32, seq: u64, now: SimTime) -> Option<Later> {
        if self.slots.get(slot).is_none_or(|s| s.seq != seq) {
            return None;
        }
        let later = self.slots.take(slot)?.later;
        if later.is_some() {
            self.dead += 1;
            if self.dead > 32 && 2 * self.dead > self.timed.len() {
                self.purge(now);
            }
        }
        later
    }

    /// Drop the dead entries of `timed`, keeping their instants as ghosts.
    fn purge(&mut self, now: SimTime) {
        let ghosts = self.ghosts.len();
        self.ghosts.retain(|&t| t > now);
        self.passed += (ghosts - self.ghosts.len()) as u64;
        let (slots, ghosts) = (&self.slots, &mut self.ghosts);
        self.timed.retain(|Reverse(e)| {
            let live = slots.get(e.index).is_some_and(|s| s.seq == e.seq);
            if !live {
                ghosts.push(e.time);
            }
            live
        });
        self.dead = 0;
    }

    /// Remove the earliest entry if it is due by `deadline`; with it, what
    /// it does (`None` if it was withdrawn).
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Option<Later>)> {
        let plain = self.plain.front().map(|e| (e.time, e.seq));
        let timed = self.timed.peek().map(|Reverse(e)| (e.time, e.seq));
        let from_plain = match (plain, timed) {
            (Some(p), Some(t)) => p < t,
            (p, _) => p.is_some(),
        };
        let (time, _) = if from_plain { plain? } else { timed? };
        if time > deadline {
            return None;
        }
        let e = if from_plain {
            self.plain.pop_front()?
        } else {
            self.timed.pop()?.0
        };
        if e.kind != SLOT {
            let records = self.kinds[e.kind.0 as usize].upgrade();
            let index = u64::from(e.index);
            return Some((time, records.map(|r| Later::Due(r, index))));
        }
        let slot = self.slots.get_mut(e.index).filter(|s| s.seq == e.seq);
        let later = slot.and_then(|s| s.later.take());
        match later {
            // A timer's slot is its own until it drops.
            Some(Later::Wake(_)) => {}
            Some(_) => drop(self.slots.take(e.index)),
            None => self.dead = self.dead.saturating_sub(1),
        }
        Some((time, later))
    }

    /// The clock stops at `deadline`: count the ghosts it passed; returns
    /// how many, and the latest instant among them.
    fn pass_ghosts(&mut self, deadline: SimTime) -> (u64, Option<SimTime>) {
        let (mut passed, mut latest) = (std::mem::take(&mut self.passed), None);
        self.ghosts.retain(|&t| {
            let due = t <= deadline;
            if due {
                passed += 1;
                latest = latest.max(Some(t));
            }
            !due
        });
        (passed, latest)
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

    /// Arm a withdrawable entry for `later` at absolute time `at`; returns
    /// its slot and `seq`.
    fn arm(&self, at: SimTime, later: Later) -> (u32, u64) {
        let seq = self.next_seq(at);
        (self.calendar.borrow_mut().arm(at, seq, later), seq)
    }

    /// Register record `index` of `kind` to fire at absolute time `at`.
    fn schedule(&self, at: SimTime, kind: Kind, index: u32) {
        let seq = self.next_seq(at);
        self.calendar.borrow_mut().push(Entry {
            time: at,
            seq,
            kind,
            index,
        });
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
            let Some((time, fire)) = core.calendar.borrow_mut().pop_due(deadline) else {
                break;
            };
            debug_assert!(time >= core.now(), "calendar went backwards");
            core.now.set(time);
            core.count_event();
            // The calendar borrow ended above: a call is free to schedule,
            // spawn and wake.
            match fire {
                Some(Later::Wake(waker)) => waker.wake(),
                Some(Later::Call(call)) => call(),
                Some(Later::Tell(reply)) => reply.send(()),
                Some(Later::Due(records, index)) => records.complete(index, ()),
                None => {}
            }
        }
        // Withdrawn entries purged from the calendar are popped here: each
        // is one event, and the clock passes its instant.
        let (passed, latest) = core.calendar.borrow_mut().pass_ghosts(deadline);
        core.events_processed
            .set(core.events_processed.get() + passed);
        if let Some(latest) = latest.filter(|&t| t > core.now()) {
            core.now.set(latest);
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
            // Records stay with their owners: only calls own anything. (A
            // parked `Timer` finds its slot gone when it drops.)
            let calls = {
                let mut cal = core.calendar.borrow_mut();
                cal.plain.clear();
                cal.timed.clear();
                cal.slots.drain()
            };
            if tasks.is_empty() && spawned.is_empty() && calls.is_empty() {
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
        self.defer(at, Later::Call(Box::new(f)));
    }

    /// Tell `reply` at virtual time `at` — [`SimHandle::call_at`] for a
    /// record with no kind of its own, costing no allocation.
    pub fn tell_at(&self, at: SimTime, reply: Reply<()>) {
        self.defer(at, Later::Tell(reply));
    }

    fn defer(&self, at: SimTime, later: Later) {
        let seq = self.core.next_seq(at);
        let mut cal = self.core.calendar.borrow_mut();
        let later = Some(later);
        let index = cal.slots.insert(Armed { seq, later });
        cal.push(Entry {
            time: at,
            seq,
            kind: SLOT,
            index,
        });
    }

    /// Register `records` as a kind of calendar entry, for as long as the
    /// [`Sim`] lives; held weakly, so entries that come due once they are
    /// gone run nothing.
    pub fn kind(&self, records: Weak<dyn Complete<()>>) -> Kind {
        let mut cal = self.core.calendar.borrow_mut();
        cal.kinds.push(records);
        Kind(u32::try_from(cal.kinds.len() - 1).expect("fewer than 2^32 kinds"))
    }

    /// Tell record `index` of `kind` at virtual time `at` (not in the past),
    /// in `(time, seq)` order with every other entry.
    pub fn schedule(&self, at: SimTime, kind: Kind, index: u32) {
        self.core.schedule(at, kind, index);
    }

    /// [`SimHandle::schedule`] for an entry that may be withdrawn before it
    /// fires ([`SimHandle::cancel`]) — a deadline that usually loses its
    /// race. It is armed like a [`Timer`], in a slot of the timer slab;
    /// withdrawn, it fires nothing, while the clock still visits its instant
    /// and it still counts as one event, exactly like a dropped timer's.
    pub fn call_cancellable_at(&self, at: SimTime, kind: Kind, index: u32) -> CallKey {
        let later = self.core.calendar.borrow().tell(kind, index);
        let (slot, seq) = self.core.arm(at, later);
        CallKey { slot, seq }
    }

    /// Withdraw an entry armed by [`SimHandle::call_cancellable_at`];
    /// `false`, doing nothing, if it has fired (or was withdrawn) already.
    pub fn cancel(&self, key: CallKey) -> bool {
        let now = self.core.now();
        let withdrawn = self
            .core
            .calendar
            .borrow_mut()
            .disarm(key.slot, key.seq, now);
        withdrawn.is_some()
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
    /// The calendar slot holding the waker this timer armed with, and its
    /// entry's `seq`. A pending timer polled again (a timeout raced against
    /// replies, a `join_all` sibling waking) is already armed and adds no
    /// entry.
    slot: Option<(u32, u64)>,
}

impl Future for Timer {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now() >= self.deadline {
            return Poll::Ready(());
        }
        match self.slot {
            None => {
                let later = Later::Wake(cx.waker().clone());
                self.slot = Some(self.core.arm(self.deadline, later));
            }
            Some((slot, _)) => {
                // Same entry; a new waker only if the future moved tasks.
                let mut cal = self.core.calendar.borrow_mut();
                let later = &mut cal.slots[slot].later;
                if !matches!(later, Some(Later::Wake(w)) if w.will_wake(cx.waker())) {
                    *later = Some(Later::Wake(cx.waker().clone()));
                }
            }
        }
        Poll::Pending
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        // Dropped before its time (a timeout whose reply won), the timer
        // leaves an entry that wakes nobody; the clock still reaches the
        // deadline.
        if let Some((slot, seq)) = self.slot.take() {
            let now = self.core.now();
            let waker = self.core.calendar.borrow_mut().disarm(slot, seq, now);
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
                peak2.set(peak2.get().max(h.core.calendar.borrow().timed.len()));
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
        assert_eq!(cal.slots.places(), 1, "slot reused");
        assert!(cal.slots.get(0).is_none());
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

    /// Records that log which of them fired, and when.
    struct Fired(SimHandle, RefCell<Vec<(u32, SimTime)>>);
    impl Complete<()> for Fired {
        fn complete(self: Rc<Self>, index: u64, (): ()) {
            let now = self.0.now();
            self.1.borrow_mut().push((index as u32, now));
        }
    }

    fn fired(sim: &Sim) -> (Rc<Fired>, Kind) {
        let h = sim.handle();
        let records = Rc::new(Fired(h.clone(), RefCell::new(Vec::new())));
        let kind = h.kind(Rc::downgrade(&records) as Weak<dyn Complete<()>>);
        (records, kind)
    }

    #[test]
    fn a_withdrawn_call_frees_its_box_and_still_moves_the_clock() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let (records, kind) = fired(&sim);
        let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
        let withdrawn = h.call_cancellable_at(at(10), kind, 7);
        let kept = h.call_cancellable_at(at(5), kind, 8);
        h.cancel(withdrawn);
        let out = sim.run();
        assert_eq!(*records.1.borrow(), [(8, at(5))]);
        // Two entries popped; the clock went to the withdrawn one's instant.
        assert_eq!((out.events, out.time), (2, at(10)));
        // Withdrawing after the run, or twice, is a no-op, even once both
        // slots are reused.
        h.cancel(kept);
        h.cancel(withdrawn);
        let cal = sim.core.calendar.borrow();
        assert_eq!(cal.slots.places(), 2);
        assert!(cal.slots.get(0).is_none() && cal.slots.get(1).is_none());
    }

    #[test]
    fn a_withdrawable_call_pending_at_teardown_is_dropped_unrun() {
        let mut sim = Sim::new();
        let (records, kind) = fired(&sim);
        let at = SimTime::ZERO + SimDuration::from_secs(3600);
        sim.handle().call_cancellable_at(at, kind, 0);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let core = Rc::downgrade(&sim.core);
        drop(sim);
        assert!(records.1.borrow().is_empty(), "dropped unrun");
        drop(records);
        assert!(core.upgrade().is_none(), "the entry held the core");
    }

    #[test]
    fn withdrawn_entries_leave_the_calendar_and_keep_their_events_and_instants() {
        // 1 000 deadlines armed and withdrawn while a live entry is pending:
        // the withdrawn ones are purged, yet each still counts as one event
        // and the clock still ends at the latest of them.
        let mut sim = Sim::new();
        let h = sim.handle();
        let (records, kind) = fired(&sim);
        let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
        h.call_cancellable_at(at(1), kind, 0);
        for i in 0..1_000 {
            let key = h.call_cancellable_at(at(2 + i), kind, 1);
            h.cancel(key);
        }
        assert!(sim.core.calendar.borrow().timed.len() < 100);
        let early = sim.run_until(at(500));
        assert_eq!((early.events, early.time), (1 + 499, at(500)));
        let out = sim.run();
        assert_eq!((out.events, out.time), (1 + 1_000, at(1_001)));
        assert_eq!(*records.1.borrow(), [(0, at(1))]);
    }
}
