//! `dacc-fabric` — the simulated cluster interconnect and MPI-like layer.
//!
//! Reproduces the communication substrate of the paper's testbed: nodes with
//! full-duplex NICs on a non-blocking switch (QDR Infiniband calibration),
//! and an MPI-like endpoint layer with eager/rendezvous protocols, tag
//! matching, wildcards and non-overtaking order — everything the
//! middleware's request/response and pipelined-copy protocols depend on.
//!
//! # Example
//!
//! ```
//! use dacc_fabric::prelude::*;
//! use dacc_sim::prelude::*;
//!
//! let mut sim = Sim::new();
//! let h = sim.handle();
//! let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
//! let fabric = Fabric::new(&h, topo);
//! let a = fabric.add_endpoint(NodeId(0));
//! let b = fabric.add_endpoint(NodeId(1));
//! sim.spawn("a", async move {
//!     a.send(Rank(1), Tag(1), Payload::from_vec(vec![42])).await;
//! });
//! let got = sim.spawn("b", async move { b.recv(None, None).await.payload });
//! sim.run();
//! assert_eq!(got.try_take().unwrap().expect_bytes().as_ref(), &[42]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Shared state is `RefCell`-backed: a borrow held across an `.await` would
// panic at the next access where a mutex would have deadlocked.
#![deny(clippy::await_holding_refcell_ref, clippy::await_holding_lock)]

pub mod codec;
pub mod imb;
pub mod machine;
pub mod mpi;
pub mod payload;
pub mod topology;

/// Common imports.
pub mod prelude {
    pub use crate::codec::EncodeBuf;
    pub use crate::imb::{paper_sizes, run_pingpong, PingPongPoint};
    pub use crate::mpi::{tags, Endpoint, Envelope, Fabric, Rank, RecvRequest, SendRequest, Tag};
    pub use crate::payload::Payload;
    pub use crate::topology::{FabricParams, NicStats, NodeId, Topology};
}

pub use prelude::*;
