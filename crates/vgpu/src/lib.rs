//! `dacc-vgpu` — a virtual CUDA-like GPU.
//!
//! Reproduces the accelerator the paper's middleware drives through the CUDA
//! driver API: device memory with real (or size-only) backing, a named
//! kernel registry with per-kernel timing models, FCFS copy and compute
//! engines (so copies serialize and copy/compute overlap), PCIe transfer
//! cost models calibrated to a Tesla C1060, and the GPUDirect v1
//! pinned-buffer pool the pipelined transfer protocol depends on.
//!
//! # Example
//!
//! ```
//! use dacc_vgpu::prelude::*;
//! use dacc_fabric::payload::Payload;
//! use dacc_sim::prelude::*;
//!
//! let mut sim = Sim::new();
//! let reg = KernelRegistry::new();
//! register_builtin_kernels(&reg);
//! let gpu = VirtualGpu::new(
//!     &sim.handle(), "gpu0", GpuParams::tesla_c1060(), ExecMode::Functional, reg,
//! );
//! let out = sim.spawn("t", async move {
//!     let p = gpu.alloc(8 * 4).await.unwrap();
//!     gpu.launch(
//!         "fill_f64",
//!         LaunchConfig::linear(1, 4),
//!         &[KernelArg::Ptr(p), KernelArg::U64(4), KernelArg::F64(2.0)],
//!     ).await.unwrap();
//!     gpu.mem().read_f64(p, 4).unwrap()
//! });
//! sim.run();
//! assert_eq!(out.try_take().unwrap(), vec![2.0; 4]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The engine is strictly single-threaded; `Arc` is used for `std::task::Wake`
// compatibility, not cross-thread sharing, so non-Send contents are fine.
#![allow(clippy::arc_with_non_send_sync)]

pub mod bandwidth;
pub mod device;
pub mod kernel;
pub mod memory;
pub mod params;
pub mod pinned;

/// Common imports.
pub mod prelude {
    pub use crate::bandwidth::{local_bandwidth_test, BandwidthPoint, Direction};
    pub use crate::device::{GpuCounters, GpuError, HostMemKind, VirtualGpu};
    pub use crate::kernel::{
        register_builtin_kernels, KernelArg, KernelError, KernelRegistry, LaunchConfig,
    };
    pub use crate::memory::{DeviceMem, DevicePtr, MemError, ALIGN};
    pub use crate::params::{ExecMode, GpuParams, XferParams};
    pub use crate::pinned::PinnedPool;
}

pub use prelude::*;
