//! Device memory: a first-fit allocator over a virtual address space, with
//! optional real backing storage, which reads share and writes copy while
//! shared (copy on write).
//!
//! Pointers are plain addresses, so pointer arithmetic works exactly as with
//! CUDA device pointers (`ptr + offset` addresses into an allocation) — the
//! linear-algebra routines rely on sub-matrix pointers.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use dacc_fabric::payload::Payload;

use crate::params::ExecMode;

/// Allocation alignment (matches CUDA's 256-byte guarantee).
pub const ALIGN: u64 = 256;

/// A device pointer: an address in one device's virtual address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Pointer `bytes` past this one (must stay inside the allocation to be
    /// usable).
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }
}

/// Errors from device memory operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemError {
    /// Not enough contiguous free device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free (possibly fragmented).
        free: u64,
    },
    /// The pointer does not fall inside any live allocation.
    InvalidPointer(DevicePtr),
    /// The access runs past the end of its allocation.
    OutOfBounds {
        /// Accessed pointer.
        ptr: DevicePtr,
        /// Access length.
        len: u64,
    },
    /// `free` was called with a pointer that is not an allocation base.
    NotABase(DevicePtr),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested}, free {free}"
                )
            }
            MemError::InvalidPointer(p) => write!(f, "invalid device pointer {p:?}"),
            MemError::OutOfBounds { ptr, len } => {
                write!(f, "device access out of bounds: {ptr:?} + {len}")
            }
            MemError::NotABase(p) => write!(f, "free of non-base pointer {p:?}"),
        }
    }
}
impl std::error::Error for MemError {}

struct Allocation {
    len: u64,
    /// Functional mode's bytes, shared with the views reads handed out.
    data: Option<Arc<Vec<u8>>>,
}

/// One device's memory: allocator plus (in functional mode) backing bytes.
pub struct DeviceMem {
    capacity: u64,
    mode: ExecMode,
    /// Free ranges `(addr, len)`, sorted by address, coalesced.
    free: Vec<(u64, u64)>,
    /// Live allocations keyed by base address.
    allocs: BTreeMap<u64, Allocation>,
    used: u64,
    /// Bytes copied because a write found a view of its allocation alive.
    cow_bytes: u64,
}

impl DeviceMem {
    /// Fresh device memory. Addresses start at `ALIGN` (0 is the null page).
    pub fn new(capacity: u64, mode: ExecMode) -> Self {
        assert!(capacity > ALIGN, "capacity too small");
        DeviceMem {
            capacity,
            mode,
            free: vec![(ALIGN, capacity - ALIGN)],
            allocs: BTreeMap::new(),
            used: 0,
            cow_bytes: 0,
        }
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).sum()
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes copied so far because a write found a view from an earlier
    /// read alive: the allocation's size, once per write after such a read.
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.allocs.len()
    }

    /// Allocate `len` bytes (first fit, 256-byte aligned).
    pub fn alloc(&mut self, len: u64) -> Result<DevicePtr, MemError> {
        let want = len.max(1).next_multiple_of(ALIGN);
        let slot = self.free.iter().position(|&(_, flen)| flen >= want);
        let Some(i) = slot else {
            return Err(MemError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            });
        };
        let (addr, flen) = self.free[i];
        if flen == want {
            self.free.remove(i);
        } else {
            self.free[i] = (addr + want, flen - want);
        }
        let data = match self.mode {
            ExecMode::Functional => Some(Arc::new(vec![0u8; len as usize])),
            ExecMode::TimingOnly => None,
        };
        self.allocs.insert(addr, Allocation { len, data });
        self.used += want;
        Ok(DevicePtr(addr))
    }

    /// Free an allocation by its base pointer.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), MemError> {
        let Some(alloc) = self.allocs.remove(&ptr.0) else {
            // Distinguish interior pointers from unknown ones for a better
            // diagnostic.
            return if self.resolve(ptr, 0).is_ok() {
                Err(MemError::NotABase(ptr))
            } else {
                Err(MemError::InvalidPointer(ptr))
            };
        };
        let want = alloc.len.max(1).next_multiple_of(ALIGN);
        self.used -= want;
        // Insert into the free list, coalescing neighbours.
        let pos = self.free.partition_point(|&(a, _)| a < ptr.0);
        self.free.insert(pos, (ptr.0, want));
        self.coalesce_around(pos);
        Ok(())
    }

    fn coalesce_around(&mut self, pos: usize) {
        // Merge with successor first (indices stay valid), then predecessor.
        if pos + 1 < self.free.len() {
            let (a, l) = self.free[pos];
            let (na, nl) = self.free[pos + 1];
            if a + l == na {
                self.free[pos] = (a, l + nl);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (pa, pl) = self.free[pos - 1];
            let (a, l) = self.free[pos];
            if pa + pl == a {
                self.free[pos - 1] = (pa, pl + l);
                self.free.remove(pos);
            }
        }
    }

    /// Find the allocation containing `[ptr, ptr+len)`; returns
    /// `(base, offset)`.
    pub fn resolve(&self, ptr: DevicePtr, len: u64) -> Result<(u64, u64), MemError> {
        let (base, alloc) = self
            .allocs
            .range(..=ptr.0)
            .next_back()
            .ok_or(MemError::InvalidPointer(ptr))?;
        let offset = ptr.0 - base;
        if offset >= alloc.len && !(offset == alloc.len && len == 0) {
            return Err(MemError::InvalidPointer(ptr));
        }
        if offset + len > alloc.len {
            return Err(MemError::OutOfBounds { ptr, len });
        }
        Ok((*base, offset))
    }

    /// The allocation at `base`'s bytes for every writer (`None` in timing
    /// mode); copied first while a view from an earlier read is alive.
    fn bytes_mut(&mut self, base: u64) -> Option<&mut Vec<u8>> {
        let data = self.allocs.get_mut(&base)?.data.as_mut()?;
        if Arc::strong_count(data) > 1 {
            self.cow_bytes += data.len() as u64;
        }
        Some(Arc::make_mut(data))
    }

    /// Write payload bytes at `ptr`. In timing-only mode this is a bounds
    /// check; size-only payloads in functional mode are also only
    /// bounds-checked (they carry no data to write).
    pub fn write_payload(&mut self, ptr: DevicePtr, payload: &Payload) -> Result<(), MemError> {
        let (base, offset) = self.resolve(ptr, payload.len())?;
        if let Some(data) = self.bytes_mut(base) {
            // Copy each segment at its running offset so scatter-gather
            // chains (e.g. sealed blocks sliced across segments) land
            // byte-identical to their contiguous equivalent. Size-only
            // payloads have no segments and stay a bounds check.
            let mut at = offset as usize;
            for seg in payload.segments() {
                data[at..at + seg.len()].copy_from_slice(seg);
                at += seg.len();
            }
        }
        Ok(())
    }

    /// Read `len` bytes at `ptr` as a payload (size-only in timing mode): a
    /// view that keeps the bytes as of now, through later writes and `free`.
    pub fn read_payload(&self, ptr: DevicePtr, len: u64) -> Result<Payload, MemError> {
        let (base, offset) = self.resolve(ptr, len)?;
        match self.allocs[&base].data.as_ref() {
            Some(data) => Ok(Payload::from_bytes(
                Bytes::from_shared(Arc::clone(data))
                    .slice(offset as usize..(offset + len) as usize),
            )),
            None => Ok(Payload::size_only(len)),
        }
    }

    /// Set `len` bytes at `ptr` to `byte`, in place. A bounds check in
    /// timing-only mode.
    pub fn fill(&mut self, ptr: DevicePtr, len: u64, byte: u8) -> Result<(), MemError> {
        let (base, offset) = self.resolve(ptr, len)?;
        if let Some(data) = self.bytes_mut(base) {
            data[offset as usize..(offset + len) as usize].fill(byte);
        }
        Ok(())
    }

    /// Copy `len` bytes device-to-device (within this device), in place.
    /// The ranges may overlap: the destination ends up with what the source
    /// held before the copy.
    pub fn copy_within(
        &mut self,
        src: DevicePtr,
        dst: DevicePtr,
        len: u64,
    ) -> Result<(), MemError> {
        let (src_base, from) = self.resolve(src, len)?;
        let (dst_base, to) = self.resolve(dst, len)?;
        let (from, to, len) = (from as usize, to as usize, len as usize);
        if src_base == dst_base {
            if let Some(data) = self.bytes_mut(dst_base) {
                data.copy_within(from..from + len, to);
            }
        } else if let Some(src) = self.allocs[&src_base].data.clone() {
            // A second handle on the source (only read, so never copied)
            // lets the destination be borrowed beside it.
            let data = self.bytes_mut(dst_base).expect("one mode per device");
            data[to..to + len].copy_from_slice(&src[from..from + len]);
        }
        Ok(())
    }

    /// Read `count` little-endian `f64`s starting at `ptr`.
    ///
    /// Panics in timing-only mode — numeric access requires functional mode.
    pub fn read_f64(&self, ptr: DevicePtr, count: usize) -> Result<Vec<f64>, MemError> {
        let (base, offset) = self.resolve(ptr, (count * 8) as u64)?;
        let data = self.allocs[&base]
            .data
            .as_ref()
            .expect("read_f64 requires functional mode");
        let start = offset as usize;
        Ok(data[start..start + count * 8]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Write `f64`s at `ptr` (little-endian).
    ///
    /// Panics in timing-only mode — numeric access requires functional mode.
    pub fn write_f64(&mut self, ptr: DevicePtr, values: &[f64]) -> Result<(), MemError> {
        let (base, offset) = self.resolve(ptr, (values.len() * 8) as u64)?;
        let data = self
            .bytes_mut(base)
            .expect("write_f64 requires functional mode");
        let start = offset as usize;
        for (i, v) in values.iter().enumerate() {
            data[start + i * 8..start + (i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> DeviceMem {
        DeviceMem::new(1 << 20, ExecMode::Functional)
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut m = mem();
        let p = m.alloc(100).unwrap();
        m.write_payload(p, &Payload::from_vec(vec![7u8; 100]))
            .unwrap();
        let back = m.read_payload(p, 100).unwrap();
        assert_eq!(back.expect_bytes().as_ref(), &[7u8; 100]);
    }

    #[test]
    fn chained_payload_writes_every_segment() {
        // An H2D of a sealed block that spans segments arrives as a
        // Payload::Chain; all segments must land, in order.
        let mut m = mem();
        let p = m.alloc(100).unwrap();
        let data: Vec<u8> = (0..100).collect();
        let chain = Payload::chain(vec![
            bytes::Bytes::from(data[..33].to_vec()),
            bytes::Bytes::from(data[33..34].to_vec()),
            bytes::Bytes::from(data[34..].to_vec()),
        ]);
        assert!(chain.bytes().is_none(), "test requires a real chain");
        m.write_payload(p, &chain).unwrap();
        let back = m.read_payload(p, 100).unwrap();
        assert_eq!(back.expect_bytes().as_ref(), data.as_slice());
    }

    #[test]
    fn a_write_copies_the_allocation_only_while_a_view_is_alive() {
        let mut m = mem();
        let p = m.alloc(64).unwrap();
        let q = m.alloc(64).unwrap();
        m.write_payload(p, &Payload::from_vec((0..64).collect()))
            .unwrap();
        let writes: [&dyn Fn(&mut DeviceMem); 4] = [
            &|m| {
                m.write_payload(p.offset(8), &Payload::from_vec(vec![0xEE; 8]))
                    .unwrap()
            },
            &|m| m.fill(p, 4, 0xEE).unwrap(),
            &|m| m.write_f64(p.offset(16), &[1.5]).unwrap(),
            &|m| m.copy_within(q, p, 8).unwrap(),
        ];
        for (i, write) in writes.iter().enumerate() {
            let view = m.read_payload(p, 64).unwrap();
            let old = view.expect_bytes().to_vec();
            write(&mut m);
            assert_eq!(view.expect_bytes().as_ref(), old.as_slice(), "write {i}");
            let now = m.read_payload(p, 64).unwrap();
            assert_ne!(now.expect_bytes().as_ref(), old.as_slice(), "write {i}");
            assert_eq!(m.cow_bytes(), 64 * (i as u64 + 1), "write {i}");
            // Once copied, the allocation is the device's own again.
            drop(now);
            write(&mut m);
            assert_eq!(m.cow_bytes(), 64 * (i as u64 + 1), "write {i} again");
        }
        // A view of the source of a copy, or of nothing written, costs
        // nothing; a view outlives its allocation's `free`.
        let view = m.read_payload(p, 64).unwrap();
        let old = view.expect_bytes().to_vec();
        m.copy_within(p, q, 64).unwrap();
        m.fill(q, 64, 1).unwrap();
        m.free(p).unwrap();
        assert_eq!(m.cow_bytes(), 256);
        assert_eq!(view.expect_bytes().as_ref(), old.as_slice());
        let mut fresh = mem();
        let r = fresh.alloc(32).unwrap();
        for _ in 0..3 {
            fresh
                .write_payload(r, &Payload::from_vec(vec![3; 32]))
                .unwrap();
            drop(fresh.read_payload(r, 32).unwrap());
        }
        assert_eq!(fresh.cow_bytes(), 0, "no view was alive at a write");
    }

    #[test]
    fn fresh_allocation_is_zeroed() {
        let mut m = mem();
        let p = m.alloc(64).unwrap();
        assert_eq!(
            m.read_payload(p, 64).unwrap().expect_bytes().as_ref(),
            &[0u8; 64]
        );
    }

    #[test]
    fn interior_pointer_resolves() {
        let mut m = mem();
        let p = m.alloc(1000).unwrap();
        m.write_payload(p.offset(500), &Payload::from_vec(vec![9u8; 10]))
            .unwrap();
        let back = m.read_payload(p.offset(500), 10).unwrap();
        assert_eq!(back.expect_bytes().as_ref(), &[9u8; 10]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = mem();
        let p = m.alloc(100).unwrap();
        assert!(matches!(
            m.read_payload(p, 101),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.write_payload(p.offset(50), &Payload::from_vec(vec![0; 51])),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut m = DeviceMem::new(4096, ExecMode::Functional);
        match m.alloc(1 << 20) {
            Err(MemError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, 1 << 20);
                assert_eq!(free, 4096 - ALIGN);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_reuses_space() {
        let mut m = DeviceMem::new(ALIGN + 3 * ALIGN, ExecMode::Functional);
        let a = m.alloc(ALIGN).unwrap();
        let _b = m.alloc(ALIGN).unwrap();
        let _c = m.alloc(ALIGN).unwrap();
        assert!(m.alloc(1).is_err());
        m.free(a).unwrap();
        let d = m.alloc(ALIGN).unwrap();
        assert_eq!(d, a, "first-fit should reuse the freed slot");
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut m = mem();
        let a = m.alloc(ALIGN).unwrap();
        let b = m.alloc(ALIGN).unwrap();
        let c = m.alloc(ALIGN).unwrap();
        let free_before = m.free_bytes();
        m.free(a).unwrap();
        m.free(c).unwrap();
        m.free(b).unwrap();
        assert_eq!(m.free_bytes(), free_before + 3 * ALIGN);
        // After coalescing everything, a capacity-filling alloc succeeds.
        let big = m.free_bytes();
        assert!(m.alloc(big).is_ok());
    }

    #[test]
    fn double_free_rejected() {
        let mut m = mem();
        let p = m.alloc(10).unwrap();
        m.free(p).unwrap();
        assert!(matches!(m.free(p), Err(MemError::InvalidPointer(_))));
    }

    #[test]
    fn free_of_interior_pointer_rejected() {
        let mut m = mem();
        let p = m.alloc(1000).unwrap();
        assert_eq!(m.free(p.offset(8)), Err(MemError::NotABase(p.offset(8))));
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = mem();
        let p = m.alloc(80).unwrap();
        let vals: Vec<f64> = (0..10).map(|i| i as f64 * 1.5).collect();
        m.write_f64(p, &vals).unwrap();
        assert_eq!(m.read_f64(p, 10).unwrap(), vals);
        // Offset access (element 4 onwards).
        assert_eq!(m.read_f64(p.offset(32), 3).unwrap(), vec![6.0, 7.5, 9.0]);
    }

    #[test]
    fn timing_only_checks_bounds_without_data() {
        let mut m = DeviceMem::new(1 << 20, ExecMode::TimingOnly);
        let p = m.alloc(1 << 10).unwrap();
        m.write_payload(p, &Payload::size_only(1 << 10)).unwrap();
        let r = m.read_payload(p, 512).unwrap();
        assert_eq!(r, Payload::size_only(512));
        assert!(m.write_payload(p, &Payload::size_only(2 << 10)).is_err());
    }

    #[test]
    fn copy_within_moves_bytes() {
        let mut m = mem();
        let a = m.alloc(16).unwrap();
        let b = m.alloc(16).unwrap();
        m.write_payload(a, &Payload::from_vec((0..16).collect()))
            .unwrap();
        m.copy_within(a, b, 16).unwrap();
        assert_eq!(
            m.read_payload(b, 16).unwrap().expect_bytes().as_ref(),
            (0..16).collect::<Vec<u8>>().as_slice()
        );
        // Inside one allocation, overlapping either way: the destination
        // gets what the source held before the copy.
        m.copy_within(a, a.offset(4), 8).unwrap();
        assert_eq!(
            m.read_payload(a, 16).unwrap().expect_bytes().as_ref(),
            &[0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15]
        );
        m.copy_within(b.offset(4), b, 8).unwrap();
        assert_eq!(
            m.read_payload(b, 16).unwrap().expect_bytes().as_ref(),
            &[4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 11, 12, 13, 14, 15]
        );
        // Bounds are those of a read then a write; nothing moves on error.
        assert!(m.copy_within(a.offset(9), b, 8).is_err());
        assert!(m.copy_within(a, b.offset(9), 8).is_err());
        assert_eq!(
            m.read_payload(b, 4).unwrap().expect_bytes().as_ref(),
            &[4, 5, 6, 7]
        );
        // Timing-only memory checks the same bounds and has nothing to move.
        let mut t = DeviceMem::new(1 << 20, ExecMode::TimingOnly);
        let (a, b) = (t.alloc(16).unwrap(), t.alloc(16).unwrap());
        t.copy_within(a, b, 16).unwrap();
        assert!(t.copy_within(a, b.offset(1), 16).is_err());
    }

    #[test]
    fn fill_sets_exactly_the_range() {
        let mut m = mem();
        let p = m.alloc(16).unwrap();
        m.fill(p.offset(2), 5, 0xAB).unwrap();
        let mut want = [0u8; 16];
        want[2..7].fill(0xAB);
        assert_eq!(
            m.read_payload(p, 16).unwrap().expect_bytes().as_ref(),
            &want
        );
        m.fill(p.offset(16), 0, 1).unwrap();
        assert!(m.fill(p.offset(12), 5, 1).is_err());
        assert_eq!(
            m.read_payload(p, 16).unwrap().expect_bytes().as_ref(),
            &want
        );
        let mut t = DeviceMem::new(1 << 20, ExecMode::TimingOnly);
        let p = t.alloc(16).unwrap();
        t.fill(p, 16, 1).unwrap();
        assert!(t.fill(p, 17, 1).is_err());
    }
}

#[cfg(test)]
mod alignment_tests {
    use super::*;

    #[test]
    fn allocations_are_256_byte_aligned() {
        let mut m = DeviceMem::new(1 << 20, ExecMode::Functional);
        for len in [1u64, 7, 255, 256, 257, 4096, 100_000] {
            let p = m.alloc(len).unwrap();
            assert_eq!(p.0 % ALIGN, 0, "len {len} gave unaligned {p:?}");
        }
    }

    #[test]
    fn null_page_never_allocated() {
        let mut m = DeviceMem::new(1 << 16, ExecMode::Functional);
        let p = m.alloc(1).unwrap();
        assert!(p.0 >= ALIGN, "allocation landed in the null page");
        assert!(m.resolve(DevicePtr(0), 1).is_err());
    }
}
