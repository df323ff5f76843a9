//! A copy moves no byte on the host, in either direction. Device→host: the
//! daemon's read of device memory is a view of it, each block's verified
//! body is a view of that, and the front-end joins the views of a region
//! back into one instead of copying them into a buffer of its own.
//! Host→device: each verified block is a view of the sender's buffer, and
//! device memory adopts it as it is. Observed the way the host-clock
//! benchmark observes allocations: a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dacc_fabric::mpi::{Endpoint, Rank};
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::device::VirtualGpu;
use dacc_vgpu::kernel::KernelRegistry;
use dacc_vgpu::params::{ExecMode, GpuParams};

thread_local! {
    /// `(threshold, count)`: allocations of at least `threshold` bytes made
    /// by this thread since the pair was last set. Per thread, because the
    /// test harness runs tests side by side; a simulation never leaves its
    /// thread.
    static LARGE: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
}

/// [`System`] plus a per-thread count of large allocations.
struct Counting;

impl Counting {
    fn note(size: usize) {
        LARGE.with(|c| {
            let (threshold, count) = c.get();
            if size >= threshold {
                c.set((threshold, count + 1));
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` without a destructor, so touching it allocates nothing and is valid
// for the whole life of the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A functional cluster of one compute node and one accelerator: the
/// simulation, the compute node's endpoint, the daemon and its device.
fn one_accelerator() -> (Sim, Endpoint, Rank, VirtualGpu) {
    let sim = Sim::new();
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: 1,
        mode: ExecMode::Functional,
        gpu: GpuParams::tesla_c1060(),
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, KernelRegistry::new());
    let ep = cluster.cn_endpoints.remove(0);
    let (daemon, gpu) = (cluster.daemon_rank(0), cluster.accel_gpus[0].clone());
    (sim, ep, daemon, gpu)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Copy a `len`-byte pattern to one accelerator and read it back under
/// `d2h`. Returns what came back, whether it is a view of the device's
/// memory, and how many allocations of at least `large` bytes the
/// read-back made, on either side of the wire.
fn read_back(d2h: TransferProtocol, len: usize, large: usize) -> (Vec<u8>, Payload, bool, u64) {
    let (mut sim, ep, daemon, gpu) = one_accelerator();
    let data = pattern(len);
    let src = Payload::from_vec(data.clone());
    let result = sim.spawn("app", async move {
        let config = FrontendConfig {
            d2h,
            ..FrontendConfig::default()
        };
        let ac = RemoteAccelerator::new(ep, daemon, config);
        let ptr = ac.mem_alloc(len as u64).await.unwrap();
        ac.mem_cpy_h2d(&src, ptr).await.unwrap();
        LARGE.set((large, 0));
        let back = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
        let (_, large) = LARGE.replace((usize::MAX, 0));
        let device = gpu.mem().read_payload(ptr, len as u64).unwrap();
        let view = back.bytes().map(|b| b.as_ptr()) == device.bytes().map(|b| b.as_ptr());
        ac.shutdown().await.unwrap();
        (back, view, large)
    });
    sim.run();
    let (back, view, large) = result.try_take().expect("job did not finish");
    (data, back, view, large)
}

#[test]
fn single_block_d2h_returns_the_verified_body_without_a_copy() {
    for (d2h, len) in [
        (TransferProtocol::d2h_default(), 64),
        (TransferProtocol::d2h_default(), 128 << 10),
        // A naive copy is one block whatever its size.
        (TransferProtocol::Naive, 300 << 10),
    ] {
        let (data, back, view, large) = read_back(d2h, len, len);
        assert!(matches!(back, Payload::Bytes(_)), "{d2h:?} len {len}");
        assert_eq!(back.expect_bytes().as_ref(), data.as_slice());
        assert!(view, "{d2h:?} len {len}: not a view of device memory");
        if len > 64 {
            // The daemon's read of device memory is a view of it, not a
            // buffer of the transfer's size; the front-end adds none.
            assert_eq!(large, 0, "{d2h:?} len {len}");
        }
    }
}

#[test]
fn pipelined_d2h_comes_back_as_one_view_of_device_memory() {
    let block = 128 << 10;
    let d2h = TransferProtocol::Pipeline { block };
    let (data, back, view, large) = read_back(d2h, 4 << 20, block as usize);
    assert!(
        matches!(back, Payload::Bytes(_)),
        "32 blocks came back as {back:?}"
    );
    assert_eq!(back.expect_bytes().as_ref(), data.as_slice());
    assert!(view, "not a view of device memory");
    assert_eq!(large, 0, "an allocation of a block or more");
}

#[test]
fn pipelined_h2d_keeps_the_senders_buffer_as_device_memory() {
    let (mut sim, ep, daemon, gpu) = one_accelerator();
    let len = 4 << 20;
    let data = pattern(len as usize);
    let src = Payload::from_vec(data.clone());
    let result = sim.spawn("app", async move {
        let config = FrontendConfig {
            h2d: TransferProtocol::Pipeline { block: 512 << 10 },
            ..FrontendConfig::default()
        };
        let ac = RemoteAccelerator::new(ep, daemon, config);
        let ptr = ac.mem_alloc(len).await.unwrap();
        LARGE.set((128 << 10, 0));
        ac.mem_cpy_h2d(&src, ptr).await.unwrap();
        let (_, large) = LARGE.replace((usize::MAX, 0));
        let device = gpu.mem().read_payload(ptr, len).unwrap();
        let view =
            matches!(&device, Payload::Bytes(b) if b.as_ptr() == src.expect_bytes().as_ptr());
        drop(device);
        let back = ac.mem_cpy_d2h(ptr, len).await.unwrap();
        ac.shutdown().await.unwrap();
        (large, view, back, gpu.counters())
    });
    sim.run();
    let (large, view, back, counters) = result.try_take().expect("job did not finish");
    // Eight blocks, and not one buffer of a block's size or more on either
    // side: the daemon writes each verified block into device memory as
    // the view of the sender's buffer it arrived as.
    assert_eq!(large, 0, "an allocation of 128 KiB or more");
    assert!(view, "device memory is not one view of the sender's buffer");
    assert_eq!(back.expect_bytes().as_ref(), data.as_slice());
    assert_eq!((counters.h2d_bytes, counters.cow_bytes), (len, 0));
}

#[test]
fn chain_merges_views_of_one_buffer_without_allocating() {
    let whole = bytes::Bytes::from(vec![5u8; 1 << 20]);
    let segs: Vec<_> = (0..8)
        .map(|i| whole.slice(i << 17..(i + 1) << 17))
        .collect();
    LARGE.set((1, 0));
    let joined = Payload::chain(segs);
    let (_, allocs) = LARGE.replace((usize::MAX, 0));
    assert_eq!(allocs, 0, "Payload::chain allocated");
    assert!(matches!(&joined, Payload::Bytes(b) if b.as_ptr() == whole.as_ptr()));
    assert_eq!(joined.len(), 1 << 20);
}
