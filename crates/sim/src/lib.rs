//! `dacc-sim` — deterministic discrete-event simulation core.
//!
//! This crate provides the substrate on which the dynamic accelerator-cluster
//! reproduction runs: a virtual clock, a single-threaded deterministic async
//! executor, zero-latency channels for task synchronization, FCFS resources
//! (links, servers) for modelling contention, and seeded RNG streams.
//!
//! # Example
//!
//! ```
//! use dacc_sim::prelude::*;
//!
//! let mut sim = Sim::new();
//! let h = sim.handle();
//! let (tx, rx) = channel::<u32>();
//! sim.spawn("producer", {
//!     let h = h.clone();
//!     async move {
//!         h.delay(SimDuration::from_micros(5)).await;
//!         tx.send(42).unwrap();
//!     }
//! });
//! let result = sim.spawn("consumer", async move { rx.recv().await.unwrap() });
//! sim.run();
//! assert_eq!(result.try_take(), Some(42));
//! ```

#![warn(missing_docs)]
// Shared state is `RefCell`-backed: a borrow held across an `.await` would
// panic at the next access where a mutex would have deadlocked.
#![deny(clippy::await_holding_refcell_ref, clippy::await_holding_lock)]

pub mod channel;
pub mod executor;
pub mod fault;
pub mod futures;
pub mod resource;
pub mod rng;
pub mod slab;
pub mod sync;
pub mod time;
pub mod trace;

/// Common imports for simulation code.
pub mod prelude {
    pub use crate::channel::{channel, oneshot::oneshot, Receiver, RecvError, SendError, Sender};
    pub use crate::executor::{
        yield_now, Complete, JoinHandle, Kind, Reply, RunOutcome, Sim, SimHandle,
    };
    pub use crate::fault::{FaultHook, LinkFault, NoFaults, ProcessFault};
    pub use crate::futures::{join2, join_all};
    pub use crate::resource::{Granted, Resource, ResourceGuard, Server};
    pub use crate::rng::SimRng;
    pub use crate::sync::{Barrier, EventFlag};
    pub use crate::time::{observed_bandwidth, Bandwidth, SimDuration, SimTime};
    pub use crate::trace::{TraceEvent, Tracer};
}

pub use prelude::*;
