//! The virtual GPU device: memory, copy engine, compute engine.
//!
//! A device owns a [`DeviceMem`], a PCIe copy engine, and a compute engine —
//! both FCFS servers, so copies serialize with copies, kernels with kernels,
//! while copy/compute overlap (the C1060 has one copy engine and one compute
//! engine). All operations charge virtual time from [`GpuParams`]; in
//! functional mode they also move real bytes and execute kernel bodies.

use std::cell::{Cell, RefCell, RefMut};
use std::rc::Rc;

use dacc_fabric::payload::Payload;
use dacc_sim::prelude::*;
use dacc_sim::slab::Slab;

use crate::kernel::{KernelArg, KernelError, KernelRegistry, LaunchConfig};
use crate::memory::{DeviceMem, DevicePtr, MemError};
use crate::params::{ExecMode, GpuParams, XferParams};

const COPY_GONE: &str = "a copy is dropped only with its device";

/// Whether a host buffer is pinned (page-locked, DMA-capable) or pageable
/// (transfers go through CPU programmed I/O).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostMemKind {
    /// Page-locked host memory: GPU DMA engine path.
    Pinned,
    /// Ordinary pageable host memory: CPU PIO path.
    Pageable,
}

/// Errors from device operations.
#[derive(Clone, PartialEq, Debug)]
pub enum GpuError {
    /// Device memory error.
    Mem(MemError),
    /// Kernel error.
    Kernel(KernelError),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::Mem(e) => write!(f, "{e}"),
            GpuError::Kernel(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for GpuError {}

impl From<MemError> for GpuError {
    fn from(e: MemError) -> Self {
        GpuError::Mem(e)
    }
}
impl From<KernelError> for GpuError {
    fn from(e: KernelError) -> Self {
        GpuError::Kernel(e)
    }
}

/// Cumulative device activity counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuCounters {
    /// Kernels launched.
    pub kernels: u64,
    /// Host→device bytes copied.
    pub h2d_bytes: u64,
    /// Device→host bytes copied.
    pub d2h_bytes: u64,
    /// Bytes copied on write ([`DeviceMem::cow_bytes`]); no virtual time.
    pub cow_bytes: u64,
}

/// One device's state. It lives on its simulation's thread like every sim
/// primitive (its engines are `Rc`-based), so nothing here is synchronised.
struct GpuInner {
    name: &'static str,
    params: GpuParams,
    mem: RefCell<DeviceMem>,
    compute: Server,
    copy_engine: Server,
    registry: KernelRegistry,
    handle: SimHandle,
    kernels: Cell<u64>,
    h2d_bytes: Cell<u64>,
    d2h_bytes: Cell<u64>,
    /// Copies queued for or in the copy engine.
    copies: RefCell<Slab<Copy>>,
}

/// Told the outcome of a copy ([`VirtualGpu::memcpy_h2d_then`]).
pub type CopyDone<T> = Reply<Result<T, GpuError>>;

/// A copy as a record of its device: the copy engine's waiter, then its
/// service; the bytes move when the service ends.
enum Copy {
    H2d {
        src: Payload,
        dst: DevicePtr,
        done: CopyDone<()>,
    },
    D2h {
        src: DevicePtr,
        len: u64,
        done: CopyDone<Payload>,
    },
}

/// The copy engine's service of a copy is over.
impl Complete<()> for GpuInner {
    fn complete(self: Rc<Self>, index: u64, (): ()) {
        let Some(copy) = self.copies.borrow_mut().take(index as u32) else {
            return;
        };
        let gpu = VirtualGpu { inner: self };
        match copy {
            Copy::H2d { src, dst, done } => {
                let written = gpu.mem().write_payload(dst, &src);
                if written.is_ok() {
                    bump(&gpu.inner.h2d_bytes, src.len());
                }
                done.send(written.map_err(GpuError::from));
            }
            Copy::D2h { src, len, done } => {
                let read = gpu.mem().read_payload(src, len);
                if read.is_ok() {
                    bump(&gpu.inner.d2h_bytes, len);
                }
                done.send(read.map_err(GpuError::from));
            }
        }
    }
}

fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

/// A virtual CUDA-like GPU. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct VirtualGpu {
    inner: Rc<GpuInner>,
}

impl VirtualGpu {
    /// Create a device with the given parameters and kernel registry.
    pub fn new(
        handle: &SimHandle,
        name: &'static str,
        params: GpuParams,
        mode: ExecMode,
        registry: KernelRegistry,
    ) -> Self {
        VirtualGpu {
            inner: Rc::new(GpuInner {
                name,
                params,
                mem: RefCell::new(DeviceMem::new(params.memory_capacity, mode)),
                compute: Server::new(handle, "gpu.compute"),
                copy_engine: Server::new(handle, "gpu.copy"),
                registry,
                handle: handle.clone(),
                kernels: Cell::new(0),
                h2d_bytes: Cell::new(0),
                d2h_bytes: Cell::new(0),
                copies: RefCell::new(Slab::default()),
            }),
        }
    }

    /// Device name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Hardware parameters.
    pub fn params(&self) -> GpuParams {
        self.inner.params
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.inner.mem.borrow().mode()
    }

    /// Kernel registry.
    pub fn registry(&self) -> &KernelRegistry {
        &self.inner.registry
    }

    /// Direct access to device memory (tests, kernel verification). Do not
    /// hold it across an `.await`: a device operation completing meanwhile
    /// would find it borrowed and panic.
    pub fn mem(&self) -> RefMut<'_, DeviceMem> {
        self.inner.mem.borrow_mut()
    }

    /// Activity counters.
    pub fn counters(&self) -> GpuCounters {
        GpuCounters {
            kernels: self.inner.kernels.get(),
            h2d_bytes: self.inner.h2d_bytes.get(),
            d2h_bytes: self.inner.d2h_bytes.get(),
            cow_bytes: self.inner.mem.borrow().cow_bytes(),
        }
    }

    /// Allocate device memory (charges the driver-call cost).
    pub async fn alloc(&self, len: u64) -> Result<DevicePtr, GpuError> {
        self.inner.handle.delay(self.inner.params.alloc_cost).await;
        Ok(self.mem().alloc(len)?)
    }

    /// Free device memory (charges the driver-call cost).
    pub async fn free(&self, ptr: DevicePtr) -> Result<(), GpuError> {
        self.inner.handle.delay(self.inner.params.alloc_cost).await;
        Ok(self.mem().free(ptr)?)
    }

    fn h2d_path(&self, kind: HostMemKind) -> XferParams {
        match kind {
            HostMemKind::Pinned => self.inner.params.h2d_pinned,
            HostMemKind::Pageable => self.inner.params.h2d_pageable,
        }
    }

    fn d2h_path(&self, kind: HostMemKind) -> XferParams {
        match kind {
            HostMemKind::Pinned => self.inner.params.d2h_pinned,
            HostMemKind::Pageable => self.inner.params.d2h_pageable,
        }
    }

    /// Copy a host payload to device memory at `dst`:
    /// [`VirtualGpu::memcpy_h2d_then`], awaited.
    pub async fn memcpy_h2d(
        &self,
        src: &Payload,
        dst: DevicePtr,
        kind: HostMemKind,
    ) -> Result<(), GpuError> {
        let (done, copied) = oneshot();
        self.memcpy_h2d_then(src.clone(), dst, kind, Reply::Wake(done));
        copied.await.unwrap_or_else(|_| unreachable!("{COPY_GONE}"))
    }

    /// Copy a host payload to device memory at `dst`, then tell `done` —
    /// the copy as a record rather than a task: validated at once (an
    /// invalid one tells `done` on the spot, charging no time), then one
    /// service of the copy engine ([`Server::serve_then`]), and the bytes
    /// land when it ends: device memory adopts the payload's segments
    /// ([`DeviceMem::write_payload`]). The copy waits in the device's slab:
    /// one still queued when the device is dropped is dropped with it,
    /// `done` untold.
    pub fn memcpy_h2d_then(
        &self,
        src: Payload,
        dst: DevicePtr,
        kind: HostMemKind,
        done: CopyDone<()>,
    ) {
        // Validate before charging time, like the driver would.
        if let Err(e) = self.mem().resolve(dst, src.len()) {
            return done.send(Err(e.into()));
        }
        let time = self.h2d_path(kind).time(src.len());
        self.copy_then(time, Copy::H2d { src, dst, done });
    }

    /// Copy `len` device bytes at `src` back to the host:
    /// [`VirtualGpu::memcpy_d2h_then`], awaited, as one contiguous payload —
    /// joined here, once, when device memory holds the bytes in several
    /// extents.
    pub async fn memcpy_d2h(
        &self,
        src: DevicePtr,
        len: u64,
        kind: HostMemKind,
    ) -> Result<Payload, GpuError> {
        let (done, copied) = oneshot();
        self.memcpy_d2h_then(src, len, kind, Reply::Wake(done));
        let read = copied.await.unwrap_or_else(|_| unreachable!("{COPY_GONE}"));
        read.map(|p| match p {
            Payload::Chain(_) => Payload::Bytes(p.to_bytes()),
            p => p,
        })
    }

    /// Copy `len` device bytes at `src` back to the host, then tell `done`
    /// — the record form of [`VirtualGpu::memcpy_d2h`], like
    /// [`VirtualGpu::memcpy_h2d_then`]; the bytes are read when the copy
    /// engine's service ends, as views of device memory
    /// ([`DeviceMem::read_payload`]: a chain when they span extents).
    pub fn memcpy_d2h_then(
        &self,
        src: DevicePtr,
        len: u64,
        kind: HostMemKind,
        done: CopyDone<Payload>,
    ) {
        if let Err(e) = self.mem().resolve(src, len) {
            return done.send(Err(e.into()));
        }
        let time = self.d2h_path(kind).time(len);
        self.copy_then(time, Copy::D2h { src, len, done });
    }

    /// One service of the copy engine for `copy`, a record of this device.
    fn copy_then(&self, time: SimDuration, copy: Copy) {
        let index = self.inner.copies.borrow_mut().insert(copy);
        let done = Reply::to(&self.inner, u64::from(index));
        self.inner.copy_engine.serve_then(time, done);
    }

    /// Set `len` device bytes at `dst` to `byte` (like `cuMemsetD8`).
    pub async fn memset(&self, dst: DevicePtr, len: u64, byte: u8) -> Result<(), GpuError> {
        self.mem().resolve(dst, len)?;
        // Device-memory fill at GDDR write bandwidth.
        let rate = Bandwidth::from_gib_per_sec(50.0);
        self.inner
            .copy_engine
            .serve(SimDuration::from_micros(3) + rate.transfer_time(len))
            .await;
        self.mem().fill(dst, len, byte)?;
        Ok(())
    }

    /// Launch a registered kernel and wait for its completion.
    ///
    /// Charges launch overhead plus the kernel's modelled cost on the
    /// compute engine; in functional mode also runs the kernel body. An
    /// argument list shorter than the kernel reads, or a cost that would
    /// run the virtual clock past its end, is a [`KernelError::BadArg`].
    pub async fn launch(
        &self,
        name: &str,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<(), GpuError> {
        let def = self.inner.registry.get(name)?;
        def.check_arity(name, args)?;
        let cost = (def.cost)(&cfg, args, &self.inner.params);
        let guard = self.inner.compute.acquire().await;
        let h = &self.inner.handle;
        let end = (h.now().as_nanos())
            .checked_add(self.inner.params.launch_overhead.as_nanos())
            .and_then(|t| t.checked_add(cost.as_nanos()))
            .ok_or_else(|| KernelError::BadArg(format!("{name} runs {cost}, past virtual time")))?;
        h.delay_until(SimTime::from_nanos(end)).await;
        let result = {
            let mut mem = self.mem();
            match mem.mode() {
                ExecMode::Functional => (def.body)(&mut mem, &cfg, args),
                ExecMode::TimingOnly => Ok(()),
            }
        };
        drop(guard);
        bump(&self.inner.kernels, 1);
        result?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::register_builtin_kernels;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn gpu(sim: &Sim, params: GpuParams, mode: ExecMode) -> VirtualGpu {
        let reg = KernelRegistry::new();
        register_builtin_kernels(&reg);
        VirtualGpu::new(&sim.handle(), "gpu0", params, mode, reg)
    }

    #[test]
    fn h2d_then_d2h_roundtrip() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::test_tiny(), ExecMode::Functional);
        let out = sim.spawn("t", async move {
            let p = g.alloc(100).await.unwrap();
            g.memcpy_h2d(&Payload::from_vec(vec![5u8; 100]), p, HostMemKind::Pinned)
                .await
                .unwrap();
            let back = g.memcpy_d2h(p, 100, HostMemKind::Pinned).await.unwrap();
            g.free(p).await.unwrap();
            back
        });
        sim.run();
        assert_eq!(out.try_take().unwrap().expect_bytes().as_ref(), &[5u8; 100]);
    }

    #[test]
    fn copy_charges_modeled_time() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::tesla_c1060(), ExecMode::TimingOnly);
        let h = sim.handle();
        let elapsed = Rc::new(RefCell::new(SimDuration::ZERO));
        {
            let elapsed = Rc::clone(&elapsed);
            sim.spawn("t", async move {
                let p = g.alloc(1 << 20).await.unwrap();
                let start = h.now();
                g.memcpy_h2d(&Payload::size_only(1 << 20), p, HostMemKind::Pinned)
                    .await
                    .unwrap();
                *elapsed.borrow_mut() = h.now().since(start);
            });
        }
        sim.run();
        let expect = GpuParams::tesla_c1060().h2d_pinned.time(1 << 20);
        assert_eq!(*elapsed.borrow(), expect);
    }

    #[test]
    fn pageable_slower_than_pinned() {
        let p = GpuParams::tesla_c1060();
        let bytes = 16u64 << 20;
        assert!(p.h2d_pageable.time(bytes) > p.h2d_pinned.time(bytes));
    }

    #[test]
    fn kernel_launch_executes_body() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::test_tiny(), ExecMode::Functional);
        let g2 = g.clone();
        sim.spawn("t", async move {
            let p = g2.alloc(80).await.unwrap();
            g2.launch(
                "fill_f64",
                LaunchConfig::linear(1, 10),
                &[KernelArg::Ptr(p), KernelArg::U64(10), KernelArg::F64(3.5)],
            )
            .await
            .unwrap();
            assert_eq!(g2.mem().read_f64(p, 10).unwrap(), vec![3.5; 10]);
        });
        let out = sim.run();
        assert_eq!(out.pending_tasks, 0);
        assert_eq!(g.counters().kernels, 1);
    }

    #[test]
    fn timing_only_skips_body_but_charges_time() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::tesla_c1060(), ExecMode::TimingOnly);
        let h = sim.handle();
        let elapsed = Rc::new(RefCell::new(SimDuration::ZERO));
        {
            let elapsed = Rc::clone(&elapsed);
            sim.spawn("t", async move {
                let p = g.alloc(8 * 1000).await.unwrap();
                let start = h.now();
                g.launch(
                    "fill_f64",
                    LaunchConfig::linear(1, 1),
                    &[KernelArg::Ptr(p), KernelArg::U64(1000), KernelArg::F64(0.0)],
                )
                .await
                .unwrap();
                *elapsed.borrow_mut() = h.now().since(start);
            });
        }
        sim.run();
        // launch overhead (7us) + 1000 elems at 78/8 GFlop/s.
        assert!(*elapsed.borrow() >= SimDuration::from_micros(7));
    }

    #[test]
    fn unknown_kernel_errors() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::test_tiny(), ExecMode::Functional);
        let out = sim.spawn("t", async move {
            g.launch("nope", LaunchConfig::default(), &[]).await
        });
        sim.run();
        assert!(matches!(
            out.try_take().unwrap(),
            Err(GpuError::Kernel(KernelError::UnknownKernel(_)))
        ));
    }

    #[test]
    fn copies_serialize_on_copy_engine() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::test_tiny(), ExecMode::TimingOnly);
        let h = sim.handle();
        let done = Rc::new(RefCell::new(Vec::new()));
        // 1 MiB buffers... tiny device has 1 MiB total; use 64 KiB each.
        let len = 64u64 << 10;
        for i in 0..2 {
            let g = g.clone();
            let h = h.clone();
            let done = Rc::clone(&done);
            sim.spawn("copy", async move {
                let p = g.alloc(len).await.unwrap();
                g.memcpy_h2d(&Payload::size_only(len), p, HostMemKind::Pinned)
                    .await
                    .unwrap();
                done.borrow_mut().push((i, h.now().as_nanos()));
            });
        }
        sim.run();
        let done = done.borrow();
        // 64 KiB at 1 GiB/s = 61.035us each, strictly serialized.
        assert_eq!(done[0].0, 0);
        assert!(done[1].1 >= 2 * done[0].1, "copies overlapped: {done:?}");
    }

    #[test]
    fn copy_and_compute_overlap() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::test_tiny(), ExecMode::TimingOnly);
        let h = sim.handle();
        let t_end = Rc::new(RefCell::new(0u64));
        {
            let g = g.clone();
            let t_end = Rc::clone(&t_end);
            sim.spawn("both", async move {
                let p = g.alloc(512 << 10).await.unwrap();
                let n_elems = 50_000u64; // compute cost 50k/(1e9/8) = 400us
                let copy_len = 400u64 << 10; // ~400us at 1 GiB/s
                let g2 = g.clone();
                let kernel = h.spawn("k", async move {
                    g2.launch(
                        "fill_f64",
                        LaunchConfig::default(),
                        &[
                            KernelArg::Ptr(p),
                            KernelArg::U64(n_elems),
                            KernelArg::F64(0.0),
                        ],
                    )
                    .await
                    .unwrap();
                });
                g.memcpy_h2d(&Payload::size_only(copy_len), p, HostMemKind::Pinned)
                    .await
                    .unwrap();
                kernel.await;
                *t_end.borrow_mut() = h.now().as_nanos();
            });
        }
        sim.run();
        // If serialized this would take ~800us; overlapped it is ~400us.
        assert!(
            *t_end.borrow() < 600_000,
            "no copy/compute overlap: {}ns",
            t_end.borrow()
        );
    }

    #[test]
    fn oom_surfaces_as_error() {
        let mut sim = Sim::new();
        let g = gpu(&sim, GpuParams::test_tiny(), ExecMode::Functional);
        let out = sim.spawn("t", async move { g.alloc(2 << 20).await });
        sim.run();
        assert!(matches!(
            out.try_take().unwrap(),
            Err(GpuError::Mem(MemError::OutOfMemory { .. }))
        ));
    }
}
