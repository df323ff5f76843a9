//! Device memory: a first-fit allocator over a virtual address space, with
//! optional real backing storage kept as extents.
//!
//! Pointers are plain addresses, so pointer arithmetic works exactly as with
//! CUDA device pointers (`ptr + offset` addresses into an allocation) — the
//! linear-algebra routines rely on sub-matrix pointers.
//!
//! A functional allocation's bytes are *extents* that cover the allocation
//! end to end, each at its offset: `Bytes` views, or zeros that nothing has
//! written and no buffer holds yet (a fresh allocation). A payload write
//! adopts the payload's segments in place of the range it covers, so a
//! host→device copy keeps its verified blocks, not a copy of them, and a
//! read hands out views of the extents it covers. The mutators (`fill`, `write_f64`, `copy_within`)
//! write in place when one extent that nothing else shares covers their
//! range; otherwise they first gather the extents they touch into one new
//! extent of the device's own, copying only the bytes they do not
//! overwrite ([`DeviceMem::cow_bytes`]).

use std::collections::BTreeMap;
use std::ops::Range;

use bytes::Bytes;
use dacc_fabric::payload::Payload;

use crate::params::ExecMode;

/// Allocation alignment (matches CUDA's 256-byte guarantee).
pub const ALIGN: u64 = 256;

/// Bytes of allocation per extent, on average, at the extent bound: an
/// allocation of `len` bytes keeps at most `4 + len / EXTENT_BYTES`.
const EXTENT_BYTES: usize = 4096;

/// A device pointer: an address in one device's virtual address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Pointer `bytes` past this one (must stay inside the allocation to be
    /// usable). Saturates: a pointer past the address space lies in no
    /// allocation, so an access through it is `InvalidPointer`.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0.saturating_add(bytes))
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
    /// Numeric access to timing-only memory, which holds sizes, not bytes.
    SizeOnly(DevicePtr),
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
            MemError::SizeOnly(p) => write!(f, "numeric access to timing-only memory at {p:?}"),
        }
    }
}
impl std::error::Error for MemError {}

/// One extent's bytes.
enum Extent {
    /// Bytes nothing has written yet: zeros that no buffer holds.
    Zeros(usize),
    /// A view of a buffer: the device's own, a host's, or shared.
    View(Bytes),
}

impl Extent {
    fn len(&self) -> usize {
        match self {
            Extent::Zeros(len) => *len,
            Extent::View(view) => view.len(),
        }
    }

    /// `range` of this extent as an extent.
    fn slice(&self, range: Range<usize>) -> Extent {
        match self {
            Extent::Zeros(_) => Extent::Zeros(range.len()),
            Extent::View(view) => Extent::View(view.slice(range)),
        }
    }

    /// `range` of this extent as a view; zeros get a buffer of their own.
    fn view(&self, range: Range<usize>) -> Bytes {
        match self {
            Extent::Zeros(_) => Bytes::from(vec![0; range.len()]),
            Extent::View(view) => view.slice(range),
        }
    }

    /// The bytes, writable in place, when this extent's buffer has no
    /// other holder.
    fn try_mut(&mut self) -> Option<&mut [u8]> {
        match self {
            Extent::Zeros(_) => None,
            Extent::View(view) => view.try_mut(),
        }
    }
}

/// One functional allocation's bytes: non-empty extents in offset order,
/// each with its offset, covering the allocation end to end.
struct Extents(Vec<(usize, Extent)>);

impl Extents {
    /// A fresh allocation's: zeros, which cost no host memory until a
    /// mutator writes them.
    fn zeroed(len: usize) -> Self {
        Extents(
            (len > 0)
                .then_some((0, Extent::Zeros(len)))
                .into_iter()
                .collect(),
        )
    }

    /// Index of the extent holding byte `at`, which lies inside the
    /// allocation (so at or past the first extent, which starts at 0).
    fn find(&self, at: usize) -> usize {
        self.0.partition_point(|&(off, _)| off <= at) - 1
    }

    /// `[at, at + len)` as views, in order: each extent it touches, sliced.
    fn views(&self, at: usize, len: usize) -> impl Iterator<Item = Bytes> + '_ {
        let end = at + len;
        let first = if len == 0 {
            self.0.len()
        } else {
            self.find(at)
        };
        self.0[first..]
            .iter()
            .take_while(move |(off, _)| *off < end)
            .map(move |(off, extent)| {
                extent.view(at.saturating_sub(*off)..extent.len().min(end - off))
            })
    }

    /// Make `at` (inside the allocation or its end) an extent boundary;
    /// returns the index of the extent that starts there, or the extent
    /// count when `at` is the end.
    fn split(&mut self, at: usize) -> usize {
        let i = self.0.partition_point(|&(off, _)| off < at);
        let Some((off, extent)) = i.checked_sub(1).map(|j| &mut self.0[j]) else {
            return i;
        };
        let cut = at - *off;
        if cut == extent.len() {
            return i;
        }
        let tail = extent.slice(cut..extent.len());
        *extent = extent.slice(0..cut);
        self.0.insert(i, (at, tail));
        i
    }

    /// Put `payload`'s segments in place of the range they cover, from
    /// `at`, copying no byte. A segment that is the next view of the same
    /// buffer as its neighbour joins it, so the blocks of one host buffer
    /// become one extent. Past the bound the whole allocation is copied
    /// into one extent, so small writes cannot grow the map without limit.
    fn adopt(&mut self, at: usize, payload: &Payload) {
        let alloc_len = self.0.last().map_or(0, |(off, extent)| off + extent.len());
        let segs = payload.segments().iter().filter(|s| !s.is_empty());
        let lo = self.split(at);
        let hi = self.split(at + payload.len() as usize);
        let count = segs.clone().count();
        let mut off = at;
        let adopted = segs.map(|s| {
            off += s.len();
            (off - s.len(), Extent::View(s.clone()))
        });
        self.0.splice(lo..hi, adopted);
        // Join across the two seams and between the new extents (there is
        // at least one: the payload is not empty).
        let mut i = lo.saturating_sub(1);
        let mut last = (lo + count).min(self.0.len() - 1);
        while i < last {
            let (left, right) = self.0.split_at_mut(i + 1);
            let joined = match (&mut left[i].1, &mut right[0].1) {
                (Extent::View(view), Extent::View(next)) => {
                    match view.try_unsplit(std::mem::take(next)) {
                        Ok(()) => true,
                        Err(back) => {
                            *next = back;
                            false
                        }
                    }
                }
                _ => false,
            };
            if joined {
                self.0.remove(i + 1);
                last -= 1;
            } else {
                i += 1;
            }
        }
        if self.0.len() > 4 + alloc_len / EXTENT_BYTES {
            let mut whole = vec![0; alloc_len];
            for (off, extent) in &self.0 {
                if let Extent::View(view) = extent {
                    whole[*off..*off + view.len()].copy_from_slice(view);
                }
            }
            self.0 = vec![(0, Extent::View(Bytes::from(whole)))];
        }
    }

    /// `[at, at + len)` (`len > 0`) writable in place, and the bytes copied
    /// from shared storage to make it so. One extent that nothing else
    /// shares and that covers the range is written as it is. Otherwise the
    /// extents the range touches become one new extent of the device's
    /// own, copied from them except for the range itself, which the caller
    /// overwrites — unless `keep`, which copies it too.
    fn owned(&mut self, at: usize, len: usize, keep: bool) -> (&mut [u8], u64) {
        let end = at + len;
        let (first, last) = (self.find(at), self.find(end - 1));
        let mut shared = 0;
        if first != last || self.0[first].1.try_mut().is_none() {
            let lo = self.0[first].0;
            let hi = self.0[last].0 + self.0[last].1.len();
            let mut whole = vec![0u8; hi - lo];
            for (off, extent) in &mut self.0[first..=last] {
                let was_shared = extent.try_mut().is_none();
                let Extent::View(view) = extent else {
                    continue;
                };
                let span = *off..*off + view.len();
                let kept = if keep {
                    [span, 0..0]
                } else {
                    [span.start..span.end.min(at), span.start.max(end)..span.end]
                };
                for r in kept.into_iter().filter(|r| !r.is_empty()) {
                    whole[r.start - lo..r.end - lo]
                        .copy_from_slice(&view[r.start - *off..r.end - *off]);
                    if was_shared {
                        shared += r.len() as u64;
                    }
                }
            }
            self.0
                .splice(first..=last, [(lo, Extent::View(Bytes::from(whole)))]);
        }
        let (off, extent) = &mut self.0[first];
        // Unreachable: the extent was found unshared above, or was just
        // built from a `Vec` that no other view holds.
        let bytes = extent.try_mut().expect("an extent of the device's own");
        (&mut bytes[at - *off..end - *off], shared)
    }
}

struct Allocation {
    len: u64,
    /// Functional mode's bytes (`None` in timing-only mode).
    bytes: Option<Extents>,
}

/// Bytes in `count` `f64`s at `ptr`, if that fits in an address.
fn f64_bytes(ptr: DevicePtr, count: usize) -> Result<u64, MemError> {
    count
        .checked_mul(8)
        .map(|n| n as u64)
        .ok_or(MemError::OutOfBounds {
            ptr,
            len: (count as u64).saturating_mul(8),
        })
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
    /// Bytes a mutator copied because storage it touched was shared.
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

    /// Bytes copied so far because storage a mutator touched was shared —
    /// with a view from a read, a host buffer a write adopted, or another
    /// extent: the bytes of the touched extents it did not overwrite.
    /// Payload writes copy nothing.
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.allocs.len()
    }

    /// Allocate `len` bytes (first fit, 256-byte aligned).
    pub fn alloc(&mut self, len: u64) -> Result<DevicePtr, MemError> {
        let want = len.max(1).checked_next_multiple_of(ALIGN);
        let slot = want.and_then(|want| self.free.iter().position(|&(_, flen)| flen >= want));
        let (Some(want), Some(i)) = (want, slot) else {
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
        let bytes = match self.mode {
            ExecMode::Functional => Some(Extents::zeroed(len as usize)),
            ExecMode::TimingOnly => None,
        };
        self.allocs.insert(addr, Allocation { len, bytes });
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
        if offset.checked_add(len).is_none_or(|end| end > alloc.len) {
            return Err(MemError::OutOfBounds { ptr, len });
        }
        Ok((*base, offset))
    }

    /// The bytes of the allocation at `base` (`None` in timing-only mode).
    fn extents(&self, base: u64) -> Option<&Extents> {
        self.allocs.get(&base)?.bytes.as_ref()
    }

    /// The bytes of the allocation at `base`, writable.
    fn extents_mut(&mut self, base: u64) -> Option<&mut Extents> {
        self.allocs.get_mut(&base)?.bytes.as_mut()
    }

    /// Write payload bytes at `ptr` by adopting the payload's segments: no
    /// byte is copied, and device memory holds the payload's buffers until
    /// they are overwritten or freed. In timing-only mode this is a bounds
    /// check; size-only payloads in functional mode are also only
    /// bounds-checked (they carry no data to write).
    pub fn write_payload(&mut self, ptr: DevicePtr, payload: &Payload) -> Result<(), MemError> {
        let (base, at) = self.resolve(ptr, payload.len())?;
        if let Some(extents) = self.extents_mut(base) {
            if payload.is_functional() && !payload.is_empty() {
                extents.adopt(at as usize, payload);
            }
        }
        Ok(())
    }

    /// Read `len` bytes at `ptr` as a payload (size-only in timing mode):
    /// views of the extents that hold them — one `Payload::Bytes` when one
    /// extent does, a chain otherwise — which keep the bytes as of now,
    /// through later writes and `free`.
    pub fn read_payload(&self, ptr: DevicePtr, len: u64) -> Result<Payload, MemError> {
        let (base, offset) = self.resolve(ptr, len)?;
        let Some(extents) = self.extents(base) else {
            return Ok(Payload::size_only(len));
        };
        // One extent is one view, without a list to collect it in.
        let mut views = extents.views(offset as usize, len as usize);
        let first = views.next();
        Ok(match views.next() {
            None => first.map_or_else(Payload::empty, Payload::from_bytes),
            Some(second) => {
                Payload::chain(first.into_iter().chain([second]).chain(views).collect())
            }
        })
    }

    /// Set `len` bytes at `ptr` to `byte`. A bounds check in timing-only
    /// mode.
    pub fn fill(&mut self, ptr: DevicePtr, len: u64, byte: u8) -> Result<(), MemError> {
        let (base, at) = self.resolve(ptr, len)?;
        if let Some(extents) = self.extents_mut(base).filter(|_| len > 0) {
            let (bytes, copied) = extents.owned(at as usize, len as usize, false);
            bytes.fill(byte);
            self.cow_bytes += copied;
        }
        Ok(())
    }

    /// Copy `len` bytes device-to-device (within this device). The ranges
    /// may overlap: the destination ends up with what the source held
    /// before the copy.
    pub fn copy_within(
        &mut self,
        src: DevicePtr,
        dst: DevicePtr,
        len: u64,
    ) -> Result<(), MemError> {
        let (src_base, from) = self.resolve(src, len)?;
        let (dst_base, to) = self.resolve(dst, len)?;
        let (from, to, len) = (from as usize, to as usize, len as usize);
        if len == 0 {
            return Ok(());
        }
        // Views of another allocation's source (no byte copied) let the
        // destination be borrowed alone.
        let source: Option<Vec<Bytes>> = match self.extents(src_base) {
            Some(extents) if src_base != dst_base => Some(extents.views(from, len).collect()),
            _ => None,
        };
        let Some(extents) = self.extents_mut(dst_base) else {
            return Ok(());
        };
        let copied = match source {
            Some(segs) => {
                let (bytes, copied) = extents.owned(to, len, false);
                let mut at = 0;
                for seg in segs {
                    bytes[at..at + seg.len()].copy_from_slice(&seg);
                    at += seg.len();
                }
                copied
            }
            // One span over both ranges, kept whole: the source is in it.
            None => {
                let lo = from.min(to);
                let (bytes, copied) = extents.owned(lo, from.max(to) + len - lo, true);
                bytes.copy_within(from - lo..from - lo + len, to - lo);
                copied
            }
        };
        self.cow_bytes += copied;
        Ok(())
    }

    /// Read `count` little-endian `f64`s starting at `ptr`, decoded from
    /// the extents that hold them. Timing-only memory has no values:
    /// [`MemError::SizeOnly`].
    pub fn read_f64(&self, ptr: DevicePtr, count: usize) -> Result<Vec<f64>, MemError> {
        let (base, offset) = self.resolve(ptr, f64_bytes(ptr, count)?)?;
        let extents = self.extents(base).ok_or(MemError::SizeOnly(ptr))?;
        let mut out = Vec::with_capacity(count);
        // A value split between two extents is gathered here.
        let (mut part, mut held) = ([0u8; 8], 0);
        for view in extents.views(offset as usize, count * 8) {
            let mut seg = &view[..];
            if held > 0 {
                let take = (8 - held).min(seg.len());
                part[held..held + take].copy_from_slice(&seg[..take]);
                (held, seg) = (held + take, &seg[take..]);
                if held < 8 {
                    continue;
                }
                out.push(f64::from_le_bytes(part));
            }
            let (words, tail) = seg.as_chunks::<8>();
            out.extend(words.iter().map(|w| f64::from_le_bytes(*w)));
            part[..tail.len()].copy_from_slice(tail);
            held = tail.len();
        }
        Ok(out)
    }

    /// Write `f64`s at `ptr` (little-endian). Timing-only memory has no
    /// values: [`MemError::SizeOnly`].
    pub fn write_f64(&mut self, ptr: DevicePtr, values: &[f64]) -> Result<(), MemError> {
        self.write_words(ptr, values.len(), |i| values[i])
    }

    /// Write `count` copies of `v` at `ptr`. The range is checked before
    /// anything is written or allocated, so a `count` from the wire that
    /// overruns the allocation is `OutOfBounds`, whatever its size.
    pub fn fill_f64(&mut self, ptr: DevicePtr, count: usize, v: f64) -> Result<(), MemError> {
        self.write_words(ptr, count, |_| v)
    }

    /// Write `count` little-endian doubles at `ptr`, the `i`th `word(i)`.
    fn write_words(
        &mut self,
        ptr: DevicePtr,
        count: usize,
        word: impl Fn(usize) -> f64,
    ) -> Result<(), MemError> {
        let (base, at) = self.resolve(ptr, f64_bytes(ptr, count)?)?;
        let extents = self.extents_mut(base).ok_or(MemError::SizeOnly(ptr))?;
        if count == 0 {
            return Ok(());
        }
        let (bytes, copied) = extents.owned(at as usize, count * 8, false);
        for (i, chunk) in bytes.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            *chunk = word(i).to_le_bytes();
        }
        self.cow_bytes += copied;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prop_assert_eq;

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
        // Three buffers are three extents: the read is a chain of them.
        let back = m.read_payload(p, 100).unwrap();
        assert_eq!(back.segments().len(), 3);
        assert_eq!(back.to_bytes().as_ref(), data.as_slice());
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
        // What each write copies while the view is alive: a payload write
        // adopts its bytes and copies none; the others copy the bytes of
        // the extent they touch that they do not overwrite — [4, 8) of
        // [0, 8), [24, 64) of [16, 64), and nothing of [0, 8) overwritten
        // whole.
        let copied = [0, 4, 40, 0];
        let mut total = 0;
        for (i, write) in writes.iter().enumerate() {
            let view = m.read_payload(p, 64).unwrap();
            let old = view.to_bytes().to_vec();
            write(&mut m);
            assert_eq!(view.to_bytes().as_ref(), old.as_slice(), "write {i}");
            let now = m.read_payload(p, 64).unwrap();
            assert_ne!(now.to_bytes().as_ref(), old.as_slice(), "write {i}");
            total += copied[i];
            assert_eq!(m.cow_bytes(), total, "write {i}");
            // Once copied, the extent is the device's own again.
            drop(now);
            write(&mut m);
            assert_eq!(m.cow_bytes(), total, "write {i} again");
        }
        // A view of the source of a copy, or of nothing written, costs
        // nothing; a view outlives its allocation's `free`.
        let view = m.read_payload(p, 64).unwrap();
        let old = view.to_bytes().to_vec();
        m.copy_within(p, q, 64).unwrap();
        m.fill(q, 64, 1).unwrap();
        m.free(p).unwrap();
        assert_eq!(m.cow_bytes(), 44);
        assert_eq!(view.to_bytes().as_ref(), old.as_slice());
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

    /// Every allocation's extents are non-empty, cover it end to end and
    /// stay under the bound its length sets.
    fn check_extents(m: &DeviceMem) {
        for (base, alloc) in &m.allocs {
            let Some(extents) = &alloc.bytes else {
                continue;
            };
            let mut end = 0;
            for (off, extent) in &extents.0 {
                assert_eq!(*off, end, "allocation {base}: gap or overlap");
                assert!(extent.len() > 0, "allocation {base}: empty extent");
                end += extent.len();
            }
            assert_eq!(end as u64, alloc.len, "allocation {base}: not covered");
            let bound = 4 + alloc.len as usize / EXTENT_BYTES;
            assert!(
                extents.0.len() <= bound,
                "allocation {base}: {} extents",
                extents.0.len()
            );
        }
    }

    fn extent_count(m: &DeviceMem, p: DevicePtr) -> usize {
        m.allocs[&p.0].bytes.as_ref().map_or(0, |e| e.0.len())
    }

    #[test]
    fn the_blocks_of_one_host_buffer_become_one_extent() {
        let mut m = mem();
        let p = m.alloc(64 << 10).unwrap();
        let host = Bytes::from((0..48 << 10).map(|i| i as u8).collect::<Vec<_>>());
        // Three blocks in order: each is adopted and joins the extent
        // before it, whose view it continues.
        for (i, at) in [0, 1, 2].into_iter().enumerate() {
            let block = Payload::from_bytes(host.slice(at << 14..(at + 1) << 14));
            m.write_payload(p.offset((i as u64) << 14), &block).unwrap();
        }
        assert_eq!(extent_count(&m, p), 2, "one host extent, one zeroed");
        let back = m.read_payload(p, 48 << 10).unwrap();
        assert_eq!(
            back.expect_bytes().as_ptr(),
            host.as_ptr(),
            "not a view of the host"
        );
        // A view of the same buffer that continues neither neighbour splits
        // the extent instead.
        m.write_payload(p.offset(1 << 14), &Payload::from_bytes(host.slice(0..16)))
            .unwrap();
        assert_eq!(extent_count(&m, p), 4);
        let mut want = host.to_vec();
        want[1 << 14..(1 << 14) + 16].copy_from_slice(&host[..16]);
        assert_eq!(m.read_payload(p, 48 << 10).unwrap().to_bytes(), want);
        check_extents(&m);
    }

    #[test]
    fn a_kernel_and_set_cycle_copies_nothing() {
        // The control workload's session: a fill kernel over the buffer and
        // a memset of its head, eight times, a 64 B read-back, a free.
        let mut m = mem();
        for session in 0..4u8 {
            let p = m.alloc(2048).unwrap();
            for i in 0..8 {
                m.write_f64(p, &[f64::from(session) + f64::from(i); 256])
                    .unwrap();
                m.fill(p, 32, session + i).unwrap();
            }
            let back = m.read_payload(p, 64).unwrap();
            assert_eq!(back.expect_bytes()[..32], [session + 7; 32]);
            drop(back);
            m.free(p).unwrap();
        }
        assert_eq!(m.cow_bytes(), 0);
    }

    #[test]
    fn numeric_access_to_timing_only_memory_is_an_error() {
        let mut t = DeviceMem::new(1 << 20, ExecMode::TimingOnly);
        let p = t.alloc(64).unwrap();
        assert_eq!(t.read_f64(p, 8), Err(MemError::SizeOnly(p)));
        assert_eq!(t.write_f64(p, &[1.0]), Err(MemError::SizeOnly(p)));
        // Bounds come first, as in functional mode.
        assert!(matches!(
            t.read_f64(p, 9),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn lengths_past_the_address_space_fail_without_a_panic() {
        let mut m = mem();
        let p = m.alloc(64).unwrap();
        let huge = u64::MAX - 8;
        assert!(matches!(
            m.resolve(p.offset(16), huge),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(m.fill(p.offset(16), huge, 0).is_err());
        assert!(m.copy_within(p, p.offset(8), huge).is_err());
        assert!(m.read_payload(p.offset(8), huge).is_err());
        assert!(m.read_f64(p, usize::MAX / 4).is_err());
        assert!(matches!(
            m.alloc(u64::MAX),
            Err(MemError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn ten_thousand_small_writes_stay_under_the_bound() {
        let mut m = mem();
        let len = 64 << 10;
        let p = m.alloc(len as u64).unwrap();
        let mut flat = vec![0u8; len];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..10_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = 1 + (x >> 40) as usize % 16;
            let at = (x as usize >> 8) % (len - n);
            let bytes: Vec<u8> = (0..n).map(|k| (i as usize * 7 + k) as u8).collect();
            flat[at..at + n].copy_from_slice(&bytes);
            m.write_payload(p.offset(at as u64), &Payload::from_vec(bytes))
                .unwrap();
            assert!(extent_count(&m, p) <= 4 + len / EXTENT_BYTES, "write {i}");
        }
        check_extents(&m);
        assert_eq!(m.read_payload(p, len as u64).unwrap().to_bytes(), flat);
    }

    /// Host buffers the model test's writes adopt views of.
    fn host_buffers() -> Vec<Bytes> {
        (0..3u8)
            .map(|k| Bytes::from((0..4096u32).map(|i| (i * 13) as u8 ^ k).collect::<Vec<_>>()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Device memory against a flat `Vec<u8>` per allocation: every
        /// read is byte-exact, every view taken earlier still reads its
        /// bytes after later writes and `free`, and every allocation's
        /// extents stay under their bound.
        #[test]
        fn extents_read_like_flat_memory(
            steps in proptest::collection::vec(
                (0u8..9, 0u64..1 << 32, 0u64..1 << 32, 0u64..1 << 32),
                1..160,
            )
        ) {
            let hosts = host_buffers();
            let mut m = mem();
            let mut model: Vec<(DevicePtr, Vec<u8>)> = Vec::new();
            let mut views: Vec<(Payload, Vec<u8>)> = Vec::new();
            // A random range `(at, len)` of a `size`-byte allocation.
            let range = |size: usize, a: u64, b: u64| {
                let at = a as usize % (size + 1);
                (at, b as usize % (size - at + 1))
            };
            for (kind, a, b, c) in steps {
                if model.is_empty() || kind == 0 {
                    if model.len() < 6 {
                        let len = 1 + a as usize % 3000;
                        model.push((m.alloc(len as u64).unwrap(), vec![0; len]));
                    }
                    continue;
                }
                let pick = c as usize % model.len();
                let (p, size) = (model[pick].0, model[pick].1.len());
                match kind {
                    1 => {
                        m.free(p).unwrap();
                        model.swap_remove(pick);
                    }
                    // Writes of host views: one view, or a chain of up to
                    // four whose neighbours sometimes continue each other.
                    2 | 3 => {
                        let (at, len) = range(size, a, b);
                        let host = &hosts[(b % 3) as usize];
                        let from = (c >> 8) as usize % (host.len() - len);
                        let segs = if kind == 2 {
                            vec![host.slice(from..from + len)]
                        } else {
                            let mut cuts: Vec<usize> = (0..3)
                                .map(|k| (c >> (20 + 8 * k)) as usize % (len + 1))
                                .collect();
                            cuts.sort_unstable();
                            let mut segs = Vec::new();
                            let mut prev = 0;
                            for (k, cut) in cuts.into_iter().chain([len]).enumerate() {
                                let other = &hosts[(k + (a % 3) as usize) % 3];
                                segs.push(if (c >> k) & 1 == 0 {
                                    host.slice(from + prev..from + cut)
                                } else {
                                    other.slice(from + prev..from + cut)
                                });
                                prev = cut;
                            }
                            segs
                        };
                        let payload = Payload::Chain(segs);
                        let bytes = payload.to_bytes();
                        m.write_payload(p.offset(at as u64), &payload).unwrap();
                        model[pick].1[at..at + len].copy_from_slice(&bytes);
                    }
                    4 => {
                        let (at, len) = range(size, a, b);
                        let view = m.read_payload(p.offset(at as u64), len as u64).unwrap();
                        let want = model[pick].1[at..at + len].to_vec();
                        prop_assert_eq!(view.to_bytes().to_vec(), want.clone());
                        if c & 1 == 0 {
                            views.push((view, want));
                        }
                    }
                    5 => {
                        let (at, len) = range(size, a, b);
                        m.fill(p.offset(at as u64), len as u64, c as u8).unwrap();
                        model[pick].1[at..at + len].fill(c as u8);
                    }
                    // Device to device: within one allocation (overlapping
                    // or not) or from another.
                    6 => {
                        let other = (c >> 16) as usize % model.len();
                        let (q, qsize) = (model[other].0, model[other].1.len());
                        let (from, len) = range(qsize.min(size), a, b);
                        let to = (c >> 24) as usize % (size - len + 1);
                        m.copy_within(q.offset(from as u64), p.offset(to as u64), len as u64)
                            .unwrap();
                        let src = model[other].1[from..from + len].to_vec();
                        model[pick].1[to..to + len].copy_from_slice(&src);
                    }
                    7 => {
                        let (at, len) = range(size, a, b);
                        let values: Vec<f64> =
                            (0..len / 8).map(|k| c as f64 + k as f64 * 0.5).collect();
                        m.write_f64(p.offset(at as u64), &values).unwrap();
                        for (k, v) in values.iter().enumerate() {
                            model[pick].1[at + 8 * k..at + 8 * k + 8]
                                .copy_from_slice(&v.to_le_bytes());
                        }
                    }
                    _ => {
                        let (at, len) = range(size, a, b);
                        let got = m.read_f64(p.offset(at as u64), len / 8).unwrap();
                        let want: Vec<f64> = model[pick].1[at..at + len / 8 * 8]
                            .chunks_exact(8)
                            .map(|w| f64::from_le_bytes(w.try_into().unwrap()))
                            .collect();
                        prop_assert_eq!(got.len(), want.len());
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(&got), bits(&want));
                    }
                }
                check_extents(&m);
                for (view, want) in &views {
                    prop_assert_eq!(&view.to_bytes().to_vec(), want);
                }
            }
            for (p, want) in &model {
                let whole = m.read_payload(*p, want.len() as u64).unwrap();
                prop_assert_eq!(&whole.to_bytes().to_vec(), want);
            }
        }
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
