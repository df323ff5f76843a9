//! GPUDirect v1 pinned-buffer pool.
//!
//! GPUDirect v1 lets the NIC and the GPU DMA engine share the same
//! page-locked host buffers, so a received network block can be DMA'd to the
//! device without an intermediate host-to-host copy. The paper's pipelined
//! transfer protocol (§IV) rests on this: blocks are received into a small
//! ring of pinned buffers and forwarded to the GPU while later blocks are
//! still in flight.
//!
//! The pool models the two properties protocols care about:
//!
//! * **bounded depth** — at most `depth` blocks in flight; acquiring a slot
//!   back-pressures the network receive loop exactly like a real buffer
//!   ring, and
//! * **the staging copy** — when GPUDirect is *off*, each block pays an
//!   extra host memcpy between the NIC buffer and the DMA-able buffer
//!   ([`PinnedPool::staging_cost`]).

use std::rc::Rc;

use dacc_sim::prelude::*;

/// A bounded pool of pinned, NIC- and GPU-registered host buffers.
#[derive(Clone)]
pub struct PinnedPool {
    slots: Resource,
    buffer_size: u64,
    gpudirect: bool,
    staging_rate: Bandwidth,
}

impl PinnedPool {
    /// A pool of `depth` buffers of `buffer_size` bytes each.
    ///
    /// `gpudirect` selects whether NIC and GPU share the buffers (no staging
    /// copy) or not (each block pays `bytes / staging_rate`).
    pub fn new(
        handle: &SimHandle,
        depth: usize,
        buffer_size: u64,
        gpudirect: bool,
        staging_rate: Bandwidth,
    ) -> Self {
        assert!(depth > 0, "pinned pool needs at least one buffer");
        assert!(buffer_size > 0, "pinned buffers must be non-empty");
        PinnedPool {
            slots: Resource::new(handle, "pinned.pool", depth),
            buffer_size,
            gpudirect,
            staging_rate,
        }
    }

    /// Buffer size each slot can hold.
    pub fn buffer_size(&self) -> u64 {
        self.buffer_size
    }

    /// Number of buffers in the pool.
    pub fn depth(&self) -> usize {
        self.slots.capacity()
    }

    /// Buffers currently free.
    pub fn available(&self) -> usize {
        self.slots.available()
    }

    /// Whether GPUDirect sharing is enabled.
    pub fn gpudirect(&self) -> bool {
        self.gpudirect
    }

    /// Acquire one buffer for a block of `bytes` on behalf of `record`: it
    /// is told [`Granted`], with `token`, when its turn in the ring's FCFS
    /// queue comes — at once if one is free and nobody is ahead, else inside
    /// the release that frees one — and takes the buffer as the guard whose
    /// drop returns it ([`PinnedPool::held`]). Back-pressure is the wait.
    /// Panics if `bytes` exceeds the buffer size (a protocol bug, not a
    /// runtime condition).
    pub fn acquire_for(
        &self,
        bytes: u64,
        record: &Rc<impl Complete<Granted> + 'static>,
        token: u64,
    ) {
        assert!(
            bytes <= self.buffer_size,
            "block of {bytes} bytes exceeds pinned buffer size {}",
            self.buffer_size
        );
        self.slots.acquire_for(record, token);
    }

    /// The buffer just granted to a record, as a guard.
    pub fn held(&self) -> ResourceGuard {
        self.slots.held()
    }

    /// Extra host-to-host copy charged per block when GPUDirect is off;
    /// zero when it is on.
    pub fn staging_cost(&self, bytes: u64) -> SimDuration {
        if self.gpudirect {
            SimDuration::ZERO
        } else {
            self.staging_rate.transfer_time(bytes)
        }
    }

    /// Pool utilization statistics.
    pub fn stats(&self) -> dacc_sim::resource::ResourceStats {
        self.slots.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pool(sim: &Sim, depth: usize, gpudirect: bool) -> PinnedPool {
        PinnedPool::new(
            &sim.handle(),
            depth,
            128 << 10,
            gpudirect,
            Bandwidth::from_gib_per_sec(5.0),
        )
    }

    #[test]
    fn depth_limits_inflight_blocks() {
        let mut sim = Sim::new();
        let p = pool(&sim, 2, true);
        let h = sim.handle();
        /// Holds each buffer for 10 us from its grant.
        struct Blocks(PinnedPool, SimHandle, RefCell<Vec<(u32, u64)>>);
        impl Complete<Granted> for Blocks {
            fn complete(self: Rc<Self>, i: u64, _: Granted) {
                let now = self.1.now();
                self.2.borrow_mut().push((i as u32, now.as_nanos()));
                let slot = self.0.held();
                self.1
                    .call_at(now + SimDuration::from_micros(10), move || drop(slot));
            }
        }
        let blocks = Rc::new(Blocks(p.clone(), h, RefCell::new(Vec::new())));
        for i in 0..4 {
            p.acquire_for(1024, &blocks, i);
        }
        sim.run();
        let acquired = blocks.2.borrow();
        // First two get buffers immediately; the rest wait for releases.
        assert_eq!(acquired[0].1, 0);
        assert_eq!(acquired[1].1, 0);
        assert_eq!(acquired[2].1, 10_000);
        assert_eq!(acquired[3].1, 10_000);
    }

    #[test]
    fn gpudirect_removes_staging_cost() {
        let sim = Sim::new();
        let with = pool(&sim, 4, true);
        let without = pool(&sim, 4, false);
        assert_eq!(with.staging_cost(128 << 10), SimDuration::ZERO);
        let expected = Bandwidth::from_gib_per_sec(5.0).transfer_time(128 << 10);
        assert_eq!(without.staging_cost(128 << 10), expected);
    }

    #[test]
    #[should_panic(expected = "exceeds pinned buffer size")]
    fn oversized_block_panics() {
        let sim = Sim::new();
        let p = pool(&sim, 2, true);
        /// Never granted.
        struct Nobody;
        impl Complete<Granted> for Nobody {
            fn complete(self: Rc<Self>, _: u64, _: Granted) {}
        }
        p.acquire_for(1 << 20, &Rc::new(Nobody), 0);
    }

    #[test]
    fn accessors() {
        let sim = Sim::new();
        let p = pool(&sim, 3, true);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.available(), 3);
        assert_eq!(p.buffer_size(), 128 << 10);
        assert!(p.gpudirect());
    }
}
