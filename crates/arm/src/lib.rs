//! `dacc-arm` — the Accelerator Resource Manager (§III).
//!
//! Maintains the pool of network-attached accelerators: which are free, in
//! use, or broken; assigns them exclusively to compute-node processes
//! (static assignment before job start or dynamic assignment at runtime);
//! and releases them automatically at job end. The ARM is an ordinary
//! endpoint on the fabric — requests and responses are real wire messages.
//!
//! # Example (pool state machine)
//!
//! ```
//! use dacc_arm::prelude::*;
//! use dacc_fabric::mpi::Rank;
//! use dacc_fabric::topology::NodeId;
//!
//! let mut pool = Pool::new(inventory(&[NodeId(1), NodeId(2)], &[Rank(5), Rank(6)]));
//! let grants = pool.try_allocate(JobId(1), 2).unwrap();
//! assert_eq!(grants.len(), 2);
//! assert_eq!(pool.free_count(), 0);
//! assert_eq!(pool.release_job(JobId(1)), 2);
//! assert_eq!(pool.free_count(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Client mailboxes and encode arenas are `RefCell`-backed and sit next to
// awaits: a borrow held across one would panic at the next access.
#![deny(clippy::await_holding_refcell_ref, clippy::await_holding_lock)]

pub mod batch;
pub mod client;
pub mod health;
pub mod proto;
pub mod server;
pub mod state;

/// Common imports.
pub mod prelude {
    pub use crate::batch::{BatchPolicy, BatchRequest, BatchScheduler, StartedJob};
    pub use crate::client::ArmClient;
    pub use crate::health::{Health, HealthConfig, HealthMeta};
    pub use crate::proto::{
        arm_tags, ArmError, ArmEvent, ArmRequest, ArmResponse, EvictReason, Eviction,
        GrantedAccelerator, PoolStats,
    };
    pub use crate::server::{run_arm_server, ArmServerConfig};
    pub use crate::state::{
        inventory, AccelState, AcceleratorDesc, AcceleratorId, AllocPolicy, HealthEvent, JobId,
        Pool, ShareConfig,
    };
    pub use dacc_sched::{
        jain_index, Admitted, RejectReason, SchedConfig, Scheduler, TenantConfig, TenantId,
    };
}

pub use prelude::*;
