//! Counting global allocator: every heap allocation the harness binary
//! makes (program and harness alike) bumps one relaxed counter, so
//! `harness.allocs_per_kop` and `core.encode_allocs_per_msg` are exact
//! counts that repeat bit for bit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus a call counter.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, so `Relaxed` is enough.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Pin glibc malloc to one regime: serve everything below 32 MiB from the
/// heap and never trim it.
///
/// By default glibc moves its mmap and trim thresholds with the sizes a
/// process happens to free, and returns the top of the heap whenever
/// nothing long-lived sits above it. `copy_d2h` allocates and frees a
/// 12 MiB concatenation buffer per copy; whether those pages were
/// re-faulted (and re-zeroed by the kernel) on every round depended on
/// what else was alive — measured 457 ms per round against 375 ms for the
/// same code in the traced run, whose span buffers happened to hold the
/// heap top. A benchmark with 5–10 % bounds cannot leave that to chance,
/// so the heap is kept warm: after the warm-up rounds no round pays for
/// fresh pages. Other C libraries keep their defaults.
pub fn pin_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` is glibc's own tuning call; these two
        // parameters only store a number in malloc's state. It runs
        // first thing in `main`, before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        }
    }
}
