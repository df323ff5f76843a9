//! Message payloads.
//!
//! The middleware runs in two modes sharing one code path:
//!
//! * **Functional** — payloads carry real bytes ([`Payload::Bytes`]); kernels
//!   compute real results; tests verify byte-exact delivery.
//! * **Timing-only** — payloads carry just a size ([`Payload::Size`]); the
//!   figure harnesses replay paper-scale transfers (tens of MiB) without
//!   touching memory.
//!
//! All protocol code (splitting into pipeline blocks, reassembly) goes
//! through this type so it cannot accidentally diverge between modes.
//!
//! Functional payloads come in two shapes: contiguous ([`Payload::Bytes`])
//! and scatter-gather ([`Payload::Chain`], a short list of refcounted
//! segments). A chain carries the same logical byte sequence as the
//! equivalent contiguous payload — equality, length, slicing, and
//! corruption all operate on the logical bytes — so a sender can append a
//! small trailer to a multi-MiB body without copying the body, and the
//! receiver sees no difference on the wire.

use bytes::Bytes;

/// A message payload: real bytes (contiguous or chained) or a size-only
/// stand-in.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Real data (cheaply clonable / sliceable).
    Bytes(Bytes),
    /// Real data as a scatter-gather chain of segments. Logically
    /// equivalent to the concatenation of its segments; built by
    /// [`Payload::chain`], which normalizes away empty segments, merges
    /// consecutive views of one buffer and collapses 0/1-segment chains to
    /// [`Payload::Bytes`].
    Chain(Vec<Bytes>),
    /// Size-only stand-in for timing studies.
    Size(u64),
}

impl PartialEq for Payload {
    /// Logical equality: two functional payloads are equal when their
    /// concatenated bytes match, regardless of segmentation; size-only
    /// payloads are equal to each other by length and never to a
    /// functional payload.
    fn eq(&self, other: &Self) -> bool {
        match (self.is_functional(), other.is_functional()) {
            (false, false) => self.len() == other.len(),
            (true, true) => self.len() == other.len() && iter_eq(self.segments(), other.segments()),
            _ => false,
        }
    }
}
impl Eq for Payload {}

/// Compare two segment lists as flat byte streams, a slice at a time: each
/// step compares the longest run that lies inside one segment on both
/// sides.
fn iter_eq(a: &[Bytes], b: &[Bytes]) -> bool {
    let mut a = a.iter().map(|s| &s[..]).filter(|s| !s.is_empty());
    let mut b = b.iter().map(|s| &s[..]).filter(|s| !s.is_empty());
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        match (x, y) {
            (None, None) => return true,
            (Some(p), Some(q)) => {
                let n = p.len().min(q.len());
                if p[..n] != q[..n] {
                    return false;
                }
                x = if n < p.len() { Some(&p[n..]) } else { a.next() };
                y = if n < q.len() { Some(&q[n..]) } else { b.next() };
            }
            // One stream ended inside the other.
            _ => return false,
        }
    }
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Self {
        Payload::Bytes(Bytes::new())
    }

    /// Wrap owned bytes.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Payload::Bytes(Bytes::from(v))
    }

    /// Wrap shared bytes without copying.
    pub fn from_bytes(b: Bytes) -> Self {
        Payload::Bytes(b)
    }

    /// Build a scatter-gather payload from segments without copying any of
    /// them. Empty segments are dropped and a segment that is the next view
    /// of the same buffer as the one before it is merged into it, in place
    /// in `segments` (nothing is allocated); zero or one surviving segment
    /// collapses to a contiguous [`Payload::Bytes`].
    pub fn chain(mut segs: Vec<Bytes>) -> Self {
        segs.retain(|s| !s.is_empty());
        segs.dedup_by(|next, prev| match prev.try_unsplit(std::mem::take(next)) {
            Ok(()) => true,
            Err(back) => {
                *next = back;
                false
            }
        });
        match segs.len() {
            0 => Payload::empty(),
            1 => Payload::Bytes(segs.pop().expect("len checked")),
            _ => Payload::Chain(segs),
        }
    }

    /// A size-only payload.
    pub fn size_only(len: u64) -> Self {
        Payload::Size(len)
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Chain(segs) => segs.iter().map(|s| s.len() as u64).sum(),
            Payload::Size(n) => *n,
        }
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this payload carries real bytes.
    pub fn is_functional(&self) -> bool {
        matches!(self, Payload::Bytes(_) | Payload::Chain(_))
    }

    /// Borrow the bytes when contiguous; `None` for size-only payloads
    /// *and* for multi-segment chains (which have no single backing
    /// buffer — use [`Payload::segments`] or [`Payload::to_bytes`]).
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            Payload::Chain(_) | Payload::Size(_) => None,
        }
    }

    /// Borrow the bytes, panicking on a size-only payload or a
    /// scatter-gather chain. Use in functional-mode code paths that
    /// already know the payload is contiguous.
    pub fn expect_bytes(&self) -> &Bytes {
        self.bytes()
            .expect("expected a contiguous functional payload")
    }

    /// The payload's segments in order: one for contiguous bytes, several
    /// for a chain, none for size-only. Iterating these visits every
    /// logical byte exactly once without copying.
    pub fn segments(&self) -> &[Bytes] {
        match self {
            Payload::Bytes(b) => std::slice::from_ref(b),
            Payload::Chain(segs) => segs,
            Payload::Size(_) => &[],
        }
    }

    /// Realize the logical bytes contiguously: zero-copy for
    /// [`Payload::Bytes`], one copy for a chain. Panics on size-only
    /// payloads.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            Payload::Bytes(b) => b.clone(),
            Payload::Chain(segs) => {
                let total: usize = segs.iter().map(Bytes::len).sum();
                let mut v = Vec::with_capacity(total);
                for s in segs {
                    v.extend_from_slice(s);
                }
                Bytes::from(v)
            }
            Payload::Size(_) => panic!("expected a functional payload, found size-only"),
        }
    }

    /// Sub-range `[offset, offset+len)` of the payload.
    ///
    /// For byte payloads this is a zero-copy slice (a slice of a chain
    /// that lands inside one segment collapses back to a contiguous
    /// payload); for size-only payloads just arithmetic. Panics if the
    /// range exceeds the payload.
    pub fn slice(&self, offset: u64, len: u64) -> Payload {
        let total = self.len();
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= total),
            "slice [{offset}, {offset}+{len}) out of bounds for payload of {total} bytes"
        );
        match self {
            Payload::Bytes(b) => Payload::Bytes(b.slice(offset as usize..(offset + len) as usize)),
            Payload::Chain(segs) => {
                let mut out = Vec::new();
                let mut skip = offset as usize;
                let mut want = len as usize;
                for s in segs {
                    if want == 0 {
                        break;
                    }
                    if skip >= s.len() {
                        skip -= s.len();
                        continue;
                    }
                    let take = (s.len() - skip).min(want);
                    out.push(s.slice(skip..skip + take));
                    skip = 0;
                    want -= take;
                }
                Payload::chain(out)
            }
            Payload::Size(_) => Payload::Size(len),
        }
    }

    /// Split into consecutive blocks of `block` bytes (last may be short).
    ///
    /// Panics if `block == 0`. An empty payload yields no blocks.
    pub fn blocks(&self, block: u64) -> Vec<Payload> {
        assert!(block > 0, "block size must be positive");
        let total = self.len();
        let mut out = Vec::with_capacity(total.div_ceil(block) as usize);
        let mut off = 0;
        while off < total {
            let len = block.min(total - off);
            out.push(self.slice(off, len));
            off += len;
        }
        out
    }

    /// A copy of this payload with one bit flipped (the fault plane's
    /// in-flight corruption model). Size-only and empty payloads carry no
    /// bits to damage and are returned unchanged — timing is identical
    /// either way, so timing-only runs see corrupt faults as no-ops.
    /// Chains copy only the segment containing the flipped byte; the
    /// others stay shared.
    pub fn corrupted(&self) -> Payload {
        match self {
            Payload::Bytes(b) if !b.is_empty() => {
                let mut v = b.to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x40;
                Payload::Bytes(Bytes::from(v))
            }
            Payload::Chain(segs) => {
                let mut mid = (self.len() / 2) as usize;
                let mut out = Vec::with_capacity(segs.len());
                for s in segs {
                    if mid < s.len() {
                        let mut v = s.to_vec();
                        v[mid] ^= 0x40;
                        out.push(Bytes::from(v));
                        mid = usize::MAX; // remaining segments pass through
                    } else {
                        mid = mid.saturating_sub(s.len());
                        out.push(s.clone());
                    }
                }
                Payload::Chain(out)
            }
            other => other.clone(),
        }
    }

    /// Reassemble consecutive blocks produced by [`Payload::blocks`] into
    /// one contiguous payload: the blocks' segments through
    /// [`Payload::chain`], so blocks of one buffer come back as one view of
    /// it, and the bytes are copied only when they come from several.
    ///
    /// All blocks must be the same mode. Returns an empty byte payload for
    /// no blocks.
    pub fn concat(blocks: &[Payload]) -> Payload {
        let functional = blocks.first().is_none_or(Payload::is_functional);
        assert!(
            blocks.iter().all(|b| b.is_functional() == functional),
            "cannot concatenate mixed functional/size-only blocks"
        );
        if !functional {
            return Payload::Size(blocks.iter().map(Payload::len).sum());
        }
        let segs = blocks.iter().flat_map(Payload::segments).cloned().collect();
        Payload::Bytes(Payload::chain(segs).to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_modes() {
        let b = Payload::from_vec(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(b.is_functional());
        let s = Payload::size_only(1 << 20);
        assert_eq!(s.len(), 1 << 20);
        assert!(!s.is_functional());
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let p = Payload::from_vec((0u8..100).collect());
        let s = p.slice(10, 5);
        assert_eq!(s.expect_bytes().as_ref(), &[10, 11, 12, 13, 14]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_oob_panics() {
        Payload::from_vec(vec![0; 10]).slice(5, 6);
    }

    #[test]
    fn blocks_roundtrip_bytes() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).map(|x: u16| x as u8).collect();
        let p = Payload::from_vec(data.clone());
        for block in [1u64, 7, 128, 999, 1000, 4096] {
            let blocks = p.blocks(block);
            let expected = (1000u64).div_ceil(block);
            assert_eq!(blocks.len() as u64, expected, "block={block}");
            let whole = Payload::concat(&blocks);
            assert_eq!(whole.expect_bytes().as_ref(), data.as_slice());
        }
    }

    #[test]
    fn blocks_roundtrip_size_only() {
        let p = Payload::size_only(10_000_000);
        let blocks = p.blocks(128 * 1024);
        assert_eq!(Payload::concat(&blocks).len(), 10_000_000);
        assert!(blocks.iter().all(|b| !b.is_functional()));
        // All but the last are full blocks.
        for b in &blocks[..blocks.len() - 1] {
            assert_eq!(b.len(), 128 * 1024);
        }
    }

    #[test]
    fn empty_payload_has_no_blocks() {
        assert!(Payload::empty().blocks(64).is_empty());
        assert_eq!(Payload::concat(&[]).len(), 0);
    }

    #[test]
    fn corrupted_flips_exactly_one_bit() {
        let data: Vec<u8> = (0..100).collect();
        let p = Payload::from_vec(data.clone());
        let c = p.corrupted();
        let diff: u32 = c
            .expect_bytes()
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert_eq!(c.len(), p.len());
        // Size-only and empty payloads pass through unchanged.
        assert_eq!(Payload::size_only(64).corrupted(), Payload::size_only(64));
        assert_eq!(Payload::empty().corrupted(), Payload::empty());
    }

    #[test]
    #[should_panic(expected = "mixed")]
    fn concat_rejects_mixed_modes() {
        Payload::concat(&[Payload::from_vec(vec![1]), Payload::size_only(1)]);
    }

    #[test]
    fn chain_normalizes_and_measures() {
        // Empty segments vanish; 0/1 segments collapse to contiguous.
        assert_eq!(Payload::chain(vec![]), Payload::empty());
        assert!(matches!(
            Payload::chain(vec![Bytes::from(vec![1, 2])]),
            Payload::Bytes(_)
        ));
        assert!(matches!(
            Payload::chain(vec![Bytes::new(), Bytes::from(vec![1])]),
            Payload::Bytes(_)
        ));
        let c = Payload::chain(vec![Bytes::from(vec![1, 2]), Bytes::from(vec![3])]);
        assert!(matches!(c, Payload::Chain(_)));
        assert_eq!(c.len(), 3);
        assert!(c.is_functional());
        assert!(c.bytes().is_none(), "chains have no single backing buffer");
        assert_eq!(c.to_bytes().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn chain_equals_contiguous_with_same_bytes() {
        let c = Payload::chain(vec![Bytes::from(vec![1, 2]), Bytes::from(vec![3, 4, 5])]);
        let b = Payload::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(c, b);
        assert_eq!(b, c);
        // Same length, different bytes: unequal.
        assert_ne!(c, Payload::from_vec(vec![1, 2, 3, 4, 9]));
        // Different segmentation, same bytes: equal.
        let c2 = Payload::chain(vec![
            Bytes::from(vec![1]),
            Bytes::from(vec![2, 3]),
            Bytes::from(vec![4, 5]),
        ]);
        assert_eq!(c, c2);
        // Functional never equals size-only, even at matching length.
        assert_ne!(c, Payload::size_only(5));
    }

    #[test]
    fn equality_walks_misaligned_segment_boundaries() {
        // Boundaries at 3, 10, 11 on one side and 1, 7, 64, 90 on the other
        // (plus empty segments built by hand, which `chain` would drop):
        // no run starts at the same offset on both sides after the first.
        let data: Vec<u8> = (0..100).collect();
        let cut = |at: &[usize]| {
            let mut segs = vec![Bytes::new()];
            let mut from = 0;
            for &to in at.iter().chain([&data.len()]) {
                segs.push(Bytes::from(data[from..to].to_vec()));
                from = to;
            }
            segs.push(Bytes::new());
            Payload::Chain(segs)
        };
        let (a, b) = (cut(&[3, 10, 11]), cut(&[1, 7, 64, 90]));
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert_eq!(a, Payload::from_vec(data.clone()));
        // One differing byte inside each run of the overlap is found.
        for flip in [0, 2, 3, 8, 10, 12, 63, 64, 89, 99] {
            let mut bad = data.clone();
            bad[flip] ^= 1;
            assert_ne!(a, Payload::from_vec(bad.clone()), "flip at {flip}");
            let bad = Payload::chain(vec![
                Bytes::from(bad[..50].to_vec()),
                Bytes::from(bad[50..].to_vec()),
            ]);
            assert_ne!(bad, b, "flip at {flip}");
        }
        // A strict prefix is not equal, whichever side is shorter.
        assert_ne!(a, Payload::from_vec(data[..99].to_vec()));
        assert_ne!(Payload::from_vec(data[..99].to_vec()), b);
    }

    #[test]
    fn chain_slices_without_copying_across_segments() {
        let seg_a = Bytes::from((0u8..10).collect::<Vec<_>>());
        let seg_b = Bytes::from((10u8..14).collect::<Vec<_>>());
        let c = Payload::chain(vec![seg_a, seg_b]);

        // Entirely inside one segment: collapses to contiguous.
        let s = c.slice(2, 5);
        assert!(matches!(s, Payload::Bytes(_)));
        assert_eq!(s.expect_bytes().as_ref(), &[2, 3, 4, 5, 6]);
        let s = c.slice(10, 4);
        assert!(matches!(s, Payload::Bytes(_)));
        assert_eq!(s.expect_bytes().as_ref(), &[10, 11, 12, 13]);

        // Straddling the boundary: stays a chain, same logical bytes.
        let s = c.slice(8, 4);
        assert!(matches!(s, Payload::Chain(_)));
        assert_eq!(s.to_bytes().as_ref(), &[8, 9, 10, 11]);

        // Full-range and empty slices.
        assert_eq!(c.slice(0, 14), c);
        assert!(c.slice(7, 0).is_empty());
    }

    #[test]
    fn chain_blocks_concat_roundtrip() {
        let data: Vec<u8> = (0..=255).cycle().take(777).map(|x: u16| x as u8).collect();
        let c = Payload::chain(vec![
            Bytes::from(data[..300].to_vec()),
            Bytes::from(data[300..301].to_vec()),
            Bytes::from(data[301..].to_vec()),
        ]);
        for block in [1u64, 64, 299, 777, 4096] {
            let whole = Payload::concat(&c.blocks(block));
            assert_eq!(
                whole.expect_bytes().as_ref(),
                data.as_slice(),
                "block={block}"
            );
        }
    }

    #[test]
    fn chain_corruption_flips_one_bit_in_place() {
        let data: Vec<u8> = (0..100).collect();
        let c = Payload::chain(vec![
            Bytes::from(data[..40].to_vec()),
            Bytes::from(data[40..].to_vec()),
        ]);
        let bad = c.corrupted();
        assert_eq!(bad.len(), c.len());
        let diff: u32 = bad
            .to_bytes()
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        // The flipped byte is the same one the contiguous model flips.
        assert_eq!(
            Payload::from_vec(data).corrupted().expect_bytes(),
            &bad.to_bytes()
        );
    }

    #[test]
    fn concat_matches_to_bytes_of_the_same_blocks() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).map(|x: u16| x as u8).collect();
        let contiguous = Payload::from_vec(data.clone());
        let chained = Payload::chain(vec![
            Bytes::from(data[..300].to_vec()),
            Bytes::from(data[300..301].to_vec()),
            Bytes::from(data[301..].to_vec()),
        ]);
        for whole in [&contiguous, &chained] {
            for block in [1u64, 7, 299, 300, 1000, 4096] {
                let got = Payload::concat(&whole.blocks(block));
                assert!(matches!(got, Payload::Bytes(_)), "block={block}");
                assert_eq!(got.expect_bytes(), &whole.to_bytes(), "block={block}");
            }
        }
        // Blocks of one buffer come back as a view of it, not a copy.
        let back = Payload::concat(&contiguous.blocks(7));
        assert_eq!(
            back.expect_bytes().as_ptr(),
            contiguous.expect_bytes().as_ptr()
        );
        // Size-only blocks are summed.
        let sizes = Payload::size_only(10_000_000).blocks(128 << 10);
        assert!(matches!(Payload::concat(&sizes), Payload::Size(10_000_000)));
        // Blocks without bytes give an empty byte payload.
        let empties = [Payload::empty(), Payload::empty()];
        assert!(matches!(Payload::concat(&empties), Payload::Bytes(b) if b.is_empty()));
    }

    #[test]
    fn chain_merges_next_views_of_one_buffer_in_place() {
        let whole = Bytes::from((0u8..=255).collect::<Vec<_>>());
        let other = Bytes::from(vec![9u8; 8]);
        let segs = vec![
            whole.slice(0..10),
            Bytes::new(),
            whole.slice(10..100),
            whole.slice(100..),
            other.clone(),
            whole.slice(0..4),
            whole.slice(5..8),
            whole.slice(8..8),
            whole.slice(8..9),
        ];
        let list = segs.as_ptr();
        let c = Payload::chain(segs);
        let Payload::Chain(segs) = &c else {
            panic!("expected a chain, got {c:?}")
        };
        // The buffer's first three views are one; another buffer and a gap
        // (byte 4) are boundaries; an empty view between two views does not
        // stop them joining.
        let runs: Vec<_> = segs.iter().map(|s| (s.as_ptr(), s.len())).collect();
        let at = |i: usize| whole[i..].as_ptr();
        assert_eq!(
            runs,
            [(at(0), 256), (other.as_ptr(), 8), (at(0), 4), (at(5), 4)]
        );
        assert_eq!(segs.as_ptr(), list, "the segment list was not reused");
        // One buffer's consecutive views collapse to a contiguous view.
        let one = Payload::chain(vec![whole.slice(..128), whole.slice(128..)]);
        assert!(
            matches!(&one, Payload::Bytes(b) if b.as_ptr() == whole.as_ptr() && b.len() == 256)
        );
    }
}
