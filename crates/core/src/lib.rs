//! `dacc-runtime` — the dynamic accelerator-cluster middleware.
//!
//! This is the paper's primary contribution: a software stack that makes
//! network-attached accelerators appear locally attached to any compute
//! node. A front-end library on each compute node translates CUDA-like API
//! calls (`acMemAlloc`, `acMemCpy`, `acKernelCreate/SetArgs/Run`) into
//! request messages; a back-end daemon on each accelerator executes them on
//! its GPU; an efficient pipelined memory-copy protocol built on GPUDirect
//! pinned buffers keeps remote-copy bandwidth close to the raw MPI ceiling.
//!
//! Modules:
//! * [`proto`] — the wire protocol (request/response + data blocks), and
//!   the CRC-32 that seals it (`crc.rs`: the crate's one `unsafe` site, a
//!   carry-less-multiply kernel, 128 or 512 bits wide as the CPU allows,
//!   behind the safe [`proto::Crc32`], and the scheduler calls that keep
//!   the helper thread splitting large blocks off the caller's CPU).
//! * [`daemon`] — the accelerator-side daemon.
//! * `train` — the block train: the one routine that moves a copy's data,
//!   both directions, at both ends, as records rather than tasks.
//! * [`api`] — the compute-node-side computation API and protocols.
//! * [`failover`] — command-log replay onto ARM-granted replacement
//!   accelerators when one dies mid-job.
//! * [`stream`] — asynchronous in-order command streams: request fusion,
//!   windowed in-flight submission, and coalesced acks.
//! * [`opencl`] — an OpenCL-flavoured front-end over the same wire protocol.
//! * [`cluster`] — one-call assembly of ARM + daemons + compute nodes.
//!
//! # Example
//!
//! ```
//! use dacc_runtime::prelude::*;
//! use dacc_sim::prelude::*;
//! use dacc_fabric::payload::Payload;
//! use dacc_vgpu::kernel::KernelRegistry;
//! use dacc_vgpu::params::ExecMode;
//!
//! let mut sim = Sim::new();
//! let spec = ClusterSpec {
//!     compute_nodes: 1,
//!     accelerators: 1,
//!     mode: ExecMode::Functional,
//!     ..ClusterSpec::default()
//! };
//! let mut cluster = build_cluster(&sim, spec, KernelRegistry::new());
//! let ep = cluster.cn_endpoints.remove(0);
//! let daemon = cluster.daemon_rank(0);
//! let out = sim.spawn("app", async move {
//!     let ac = RemoteAccelerator::new(ep, daemon, FrontendConfig::default());
//!     let ptr = ac.mem_alloc(4).await.unwrap();
//!     ac.mem_cpy_h2d(&Payload::from_vec(vec![1, 2, 3, 4]), ptr).await.unwrap();
//!     let back = ac.mem_cpy_d2h(ptr, 4).await.unwrap();
//!     ac.shutdown().await.unwrap();
//!     back.expect_bytes().to_vec()
//! });
//! sim.run();
//! assert_eq!(out.try_take().unwrap(), vec![1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// `crc.rs` holds every `unsafe` block of the crate (two unaligned loads and
// the calls into the feature-gated kernel): each must say why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]
// Session state (overload counters, encode arenas, failover logs) is
// `RefCell`-backed and sits next to awaits: a borrow held across one would
// panic at the next access.
#![deny(clippy::await_holding_refcell_ref, clippy::await_holding_lock)]

pub mod api;
pub mod cluster;
mod crc;
pub mod daemon;
pub mod failover;
pub mod opencl;
pub mod proto;
pub mod stream;
mod train;

/// Common imports.
pub mod prelude {
    pub use crate::api::{
        device_to_device, AcDevice, AcError, BreakerConfig, BreakerStats, FrontendConfig,
        OverloadConfig, RemoteAccelerator, RetryBudget, RetryPolicy, TransferProtocol,
    };
    pub use crate::cluster::{build_cluster, AcProcess, ArmHaSpec, Cluster, ClusterSpec};
    pub use crate::daemon::{run_daemon, AdmissionConfig, DaemonConfig, DaemonHealth, DaemonStats};
    pub use crate::failover::{CheckpointPolicy, FailoverSession};
    pub use crate::opencl::{ClBuffer, ClCommandQueue, ClContext, ClKernel};
    pub use crate::proto::{
        ac_tags, Request, RequestFrame, Response, Status, StreamAck, StreamBatch, WireProtocol,
    };
    pub use crate::stream::{AcStream, StreamConfig, StreamEvent};
    pub use dacc_telemetry::{SpanGuard, Telemetry};
}

pub use prelude::*;
