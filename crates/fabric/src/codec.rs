//! The wire codec every protocol in the stack shares.
//!
//! * [`EncodeBuf`] is a per-connection encode arena. A frame is written
//!   into the arena's [`BytesMut`], then split off as an immutable
//!   refcounted [`Bytes`] handed to the fabric. When the fabric (and any
//!   receiver clones) drop the frame, the next `reserve` reclaims the
//!   arena's capacity in place — so a steady-state connection encodes every
//!   message into the same allocation instead of one `malloc`/`free` pair
//!   per frame.
//! * [`Writer`] and [`Reader`] are the one little-endian byte writer and
//!   reader pair; a short or malformed input is a [`DecodeError`], never a
//!   panic. [`Reader::seq`] reads every counted sequence and caps its
//!   pre-allocation by the bytes that remain, so a corrupt count fails on
//!   the first short read instead of reserving gigabytes.
//! * [`Codec`] is a field codec: how one value is laid out. Plain types,
//!   sequences, tuples, options, ranks, nodes and times have one here;
//!   a protocol crate adds its own types, and wraps foreign ones in local
//!   marker types (the orphan rule forbids implementing this trait for a
//!   foreign type outside this crate).
//! * [`wire!`](crate::wire) states each message's layout once, as a table
//!   of opcodes and fields, and generates the type, its body codec and its
//!   `encode` / `encode_into` / `decode` trio.

#[doc(hidden)]
pub use bytes::Bytes;
use bytes::BytesMut;
use dacc_sim::time::SimTime;

use crate::mpi::Rank;
use crate::topology::NodeId;

/// Default arena capacity: comfortably holds any control frame (requests,
/// responses, stream batches of a few dozen commands) without growing.
const DEFAULT_CAPACITY: usize = 1024;

/// A per-connection encode arena (see the module docs).
///
/// Usage pattern: append one frame's bytes to [`EncodeBuf::buf`], then
/// call [`EncodeBuf::take`] to split it off as an immutable [`Bytes`]. The
/// arena is empty again afterwards and ready for the next frame, reusing
/// the same backing allocation once outstanding frames are dropped.
#[derive(Debug)]
pub struct EncodeBuf {
    buf: BytesMut,
}

impl EncodeBuf {
    /// An arena with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An arena pre-sized for frames up to `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        EncodeBuf {
            buf: BytesMut::with_capacity(capacity),
        }
    }

    /// The write cursor for the frame under construction. Codecs append
    /// here; the arena guarantees the buffer starts empty after every
    /// [`EncodeBuf::take`].
    pub fn buf(&mut self) -> &mut BytesMut {
        // `reserve` on an empty BytesMut whose previously split-off frames
        // have all been dropped reclaims the original capacity in place —
        // this is the call that makes the arena reusable instead of
        // allocating fresh storage per frame.
        if self.buf.is_empty() {
            self.buf
                .reserve(DEFAULT_CAPACITY.min(self.buf.capacity().max(1)));
        }
        &mut self.buf
    }

    /// Split off everything written so far as an immutable frame, leaving
    /// the arena empty for the next one.
    pub fn take(&mut self) -> Bytes {
        self.buf.split().freeze()
    }
}

impl Default for EncodeBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// The bytes do not hold a value of the expected layout: they end early,
/// carry a value a field does not allow, or have bytes left over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError;

/// Little-endian writer appending to a frame under construction.
/// `prefixed` backfills a length prefix, so a nested body encodes in place
/// rather than through an intermediate allocation.
pub struct Writer<'a>(&'a mut BytesMut);

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    #[inline]
    pub fn new(buf: &'a mut BytesMut) -> Self {
        Writer(buf)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.put_u8(v);
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u32` length prefix, then the bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }

    /// One value through its own codec.
    #[inline]
    pub fn put<T: Codec<T>>(&mut self, v: &T) {
        T::put(self, v);
    }

    /// A `u32` length prefix, then what `body` writes: the same bytes as
    /// [`Writer::bytes`] of the body, written in place.
    #[inline]
    pub fn prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.0.len();
        self.u32(0);
        body(self);
        let len = (self.0.len() - at - 4) as u32;
        self.0[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Little-endian reader over borrowed bytes. Every read is bounds-checked:
/// a short input is a [`DecodeError`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let a = *self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk)
            .ok_or(DecodeError)?;
        self.pos += N;
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let v = *self.buf.get(self.pos).ok_or(DecodeError)?;
        self.pos += 1;
        Ok(v)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length prefix, then that many bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        let end = self.pos.checked_add(n).ok_or(DecodeError)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError)?;
        self.pos = end;
        Ok(s)
    }

    /// One value through its own codec.
    #[inline]
    pub fn get<T: Codec<T>>(&mut self) -> Result<T, DecodeError> {
        T::get(self)
    }

    /// A `u32` count, then that many items read by `item`. The
    /// pre-allocation is capped by the bytes that remain (every item takes
    /// at least one), so a corrupt count fails on the first short read
    /// instead of reserving memory for items that cannot be there.
    #[inline(always)]
    pub fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The unread bytes, consuming them.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// `Ok` only if every byte has been read.
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError)
        }
    }
}

/// Decode `buf` as exactly one value: `body` reads it, and no byte may be
/// left over.
#[inline]
pub fn decode_whole<T>(
    buf: &[u8],
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(buf);
    let v = body(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// A field codec: how one `T` is laid out on the wire. `Self` is usually
/// `T` itself; a local marker type stands in for a foreign `T`.
///
/// The impls here and the `Writer` / `Reader` methods are `#[inline]`,
/// because the protocol crates call them across the crate boundary. The
/// generic wrappers and every `decode_body` are `#[inline(always)]`, so a
/// message decodes in one function, as a hand-written decoder would.
pub trait Codec<T> {
    /// Append `v`.
    fn put(w: &mut Writer<'_>, v: &T);
    /// Read one `T`.
    fn get(r: &mut Reader<'_>) -> Result<T, DecodeError>;
}

/// Codecs for plain values that take one `Writer` / `Reader` call each,
/// with a conversion each way.
macro_rules! via {
    ($($t:ty => $m:ident, |$v:ident| $put:expr, |$x:ident| $get:expr;)*) => {$(
        impl Codec<$t> for $t {
            #[inline]
            fn put(w: &mut Writer<'_>, $v: &$t) {
                w.$m($put);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<$t, DecodeError> {
                let $x = r.$m()?;
                Ok($get)
            }
        }
    )*};
}

via! {
    u8 => u8, |v| *v, |x| x;
    u32 => u32, |v| *v, |x| x;
    u64 => u64, |v| *v, |x| x;
    f64 => u64, |v| v.to_bits(), |x| f64::from_bits(x);
    // Written `0`/`1`; any nonzero byte reads as `true`.
    bool => u8, |v| u8::from(*v), |x| x != 0;
    SimTime => u64, |v| v.as_nanos(), |x| SimTime::from_nanos(x);
    Rank => u32, |v| v.0 as u32, |x| Rank(x as usize);
    NodeId => u32, |v| v.0 as u32, |x| NodeId(x as usize);
}

/// A `u32` length prefix, then UTF-8 bytes (validated in place, allocated
/// once).
impl Codec<String> for String {
    #[inline]
    fn put(w: &mut Writer<'_>, v: &String) {
        w.bytes(v.as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        std::str::from_utf8(r.bytes()?)
            .map(str::to_owned)
            .map_err(|_| DecodeError)
    }
}

/// A `u32` count, then each item ([`Seq`] of the item's own codec).
impl<T: Codec<T>> Codec<Vec<T>> for Vec<T> {
    #[inline(always)]
    fn put(w: &mut Writer<'_>, v: &Vec<T>) {
        <Seq<T> as Codec<Vec<T>>>::put(w, v);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        <Seq<T> as Codec<Vec<T>>>::get(r)
    }
}

/// A counted sequence whose items use codec `C`: a `u32` count, then each
/// item.
pub struct Seq<C>(std::marker::PhantomData<C>);

impl<T, C: Codec<T>> Codec<Vec<T>> for Seq<C> {
    #[inline(always)]
    fn put(w: &mut Writer<'_>, v: &Vec<T>) {
        w.u32(v.len() as u32);
        for x in v {
            C::put(w, x);
        }
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        r.seq(C::get)
    }
}

/// Opaque bytes: a `u32` length prefix, then the bytes (the same layout as
/// `Vec<u8>`, copied in one piece).
pub struct Blob;

impl Codec<Vec<u8>> for Blob {
    #[inline]
    fn put(w: &mut Writer<'_>, v: &Vec<u8>) {
        w.bytes(v);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
        r.bytes().map(<[u8]>::to_vec)
    }
}

/// A tag byte: `0` for `None`, `1` then the value for `Some`; any other
/// tag is malformed.
impl<T: Codec<T>> Codec<Option<T>> for Option<T> {
    #[inline(always)]
    fn put(w: &mut Writer<'_>, v: &Option<T>) {
        match v {
            None => w.u8(0),
            Some(x) => {
                w.u8(1);
                T::put(w, x);
            }
        }
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            _ => Err(DecodeError),
        }
    }
}

impl<A: Codec<A>, B: Codec<B>> Codec<(A, B)> for (A, B) {
    #[inline(always)]
    fn put(w: &mut Writer<'_>, v: &(A, B)) {
        A::put(w, &v.0);
        B::put(w, &v.1);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Codec<A>, B: Codec<B>, C: Codec<C>> Codec<(A, B, C)> for (A, B, C) {
    #[inline(always)]
    fn put(w: &mut Writer<'_>, v: &(A, B, C)) {
        A::put(w, &v.0);
        B::put(w, &v.1);
        C::put(w, &v.2);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<(A, B, C), DecodeError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// State each message's layout once and generate its codec.
///
/// The table holds enums and structs. An enum variant is an opcode byte,
/// then its fields in order; a struct is its fields in order. Every field
/// uses its type's own [`Codec`], or the codec named after `as` (a local
/// marker type for a foreign field type). Attributes, doc comments
/// included, pass through to the generated items.
///
/// Each item gets a [`Codec`] impl and inherent `encode_body` /
/// `decode_body`; an enum also gets `OPCODES`, every opcode in declaration
/// order. An item written `Name: Error` is a whole message and also gets
/// `encode`, `encode_into` and a `decode` that rejects leftover bytes and
/// reports `Error` (which must convert from [`DecodeError`]).
///
/// ```
/// use dacc_fabric::codec::{DecodeError, Seq};
///
/// dacc_fabric::wire! {
///     /// A toy protocol.
///     #[derive(Debug, PartialEq)]
///     pub enum Msg: DecodeError {
///         /// Say hello.
///         0 => Hello { name: String },
///         /// Some numbers.
///         1 => Numbers(Vec<u32> as Seq<u32>),
///         /// Goodbye.
///         7 => Bye,
///     }
/// }
///
/// let m = Msg::Hello { name: "gpu".into() };
/// assert_eq!(m.encode(), [0, 3, 0, 0, 0, b'g', b'p', b'u']);
/// assert_eq!(Msg::decode(&m.encode()), Ok(m));
/// assert_eq!(Msg::decode(&[1, 0xff, 0xff, 0xff, 0xff]), Err(DecodeError));
/// assert_eq!(Msg::OPCODES, [0, 1, 7]);
/// ```
#[macro_export]
macro_rules! wire {
    () => {};

    // The field codec: the type's own, or the one named after `as`.
    (@codec $t:ty) => { $t };
    (@codec $t:ty as $c:ty) => { $c };

    // An enum: collect each variant's definition, encode arm, decode arm
    // and opcode, then emit them together. `w` and `r` travel as tokens
    // so every arm names the same bindings.
    (@enum $hdr:tt $err:tt [$w:ident $r:ident]
        [$($def:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($op:tt)*] [$($nm:tt)*]
        $(#[$vm:meta])* $code:literal => $v:ident {
            $( $(#[$fm:meta])* $f:ident : $t:ty $(as $c:ty)? ),* $(,)?
        }
        $(, $($rest:tt)*)?
    ) => {
        $crate::wire!(@enum $hdr $err [$w $r]
            [$($def)* $(#[$vm])* $v { $( $(#[$fm])* $f: $t, )* },]
            [$($enc)* Self::$v { $($f),* } => {
                $w.u8($code);
                $( <$crate::wire!(@codec $t $(as $c)?) as $crate::codec::Codec<$t>>::put($w, $f); )*
            }]
            [$($dec)* $code => Self::$v {
                $( $f: <$crate::wire!(@codec $t $(as $c)?) as $crate::codec::Codec<$t>>::get($r)?, )*
            },]
            [$($op)* $code,]
            [$($nm)* Self::$v { .. } => stringify!($v),]
            $($($rest)*)?
        );
    };
    (@enum $hdr:tt $err:tt [$w:ident $r:ident]
        [$($def:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($op:tt)*] [$($nm:tt)*]
        $(#[$vm:meta])* $code:literal => $v:ident ( $t:ty $(as $c:ty)? )
        $(, $($rest:tt)*)?
    ) => {
        $crate::wire!(@enum $hdr $err [$w $r]
            [$($def)* $(#[$vm])* $v($t),]
            [$($enc)* Self::$v(x) => {
                $w.u8($code);
                <$crate::wire!(@codec $t $(as $c)?) as $crate::codec::Codec<$t>>::put($w, x);
            }]
            [$($dec)* $code => Self::$v(
                <$crate::wire!(@codec $t $(as $c)?) as $crate::codec::Codec<$t>>::get($r)?
            ),]
            [$($op)* $code,]
            [$($nm)* Self::$v(..) => stringify!($v),]
            $($($rest)*)?
        );
    };
    (@enum $hdr:tt $err:tt [$w:ident $r:ident]
        [$($def:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($op:tt)*] [$($nm:tt)*]
        $(#[$vm:meta])* $code:literal => $v:ident
        $(, $($rest:tt)*)?
    ) => {
        $crate::wire!(@enum $hdr $err [$w $r]
            [$($def)* $(#[$vm])* $v,]
            [$($enc)* Self::$v => $w.u8($code),]
            [$($dec)* $code => Self::$v,]
            [$($op)* $code,]
            [$($nm)* Self::$v => stringify!($v),]
            $($($rest)*)?
        );
    };
    (@enum [$(#[$m:meta])* $vis:vis $name:ident] [$($err:ty)?] [$w:ident $r:ident]
        [$($def:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($op:tt)*] [$($nm:tt)*]
    ) => {
        $(#[$m])*
        $vis enum $name { $($def)* }

        impl $name {
            /// Every variant's opcode, in declaration order.
            pub const OPCODES: &'static [u8] = &[$($op)*];

            /// The variant's name, as its table writes it.
            pub fn name(&self) -> &'static str {
                match self {
                    $($nm)*
                }
            }

            /// Append the opcode, then the variant's fields.
            pub fn encode_body(&self, $w: &mut $crate::codec::Writer<'_>) {
                match self {
                    $($enc)*
                }
            }

            /// Read one value written by `encode_body`.
            #[inline(always)]
            pub fn decode_body(
                $r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::DecodeError> {
                ::core::result::Result::Ok(match $r.u8()? {
                    $($dec)*
                    _ => return ::core::result::Result::Err($crate::codec::DecodeError),
                })
            }
        }

        $crate::wire!(@codec_impl $name);
        $crate::wire!(@message $name $($err)?);
    };

    // `Codec` for a table item, through its body codec.
    (@codec_impl $name:ident) => {
        impl $crate::codec::Codec<$name> for $name {
            #[inline]
            fn put(w: &mut $crate::codec::Writer<'_>, v: &$name) {
                v.encode_body(w);
            }
            #[inline]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<$name, $crate::codec::DecodeError> {
                $name::decode_body(r)
            }
        }
    };

    // The whole-message trio, for items written `Name: Error`.
    (@message $name:ident) => {};
    (@message $name:ident $err:ty) => {
        impl $name {
            /// Encode to fresh wire bytes (see `encode_into`).
            pub fn encode(&self) -> ::std::vec::Vec<u8> {
                self.encode_into(&mut $crate::codec::EncodeBuf::new()).to_vec()
            }

            /// Encode into a reusable arena, returning the frame as
            /// refcounted bytes (no copy out of the arena).
            pub fn encode_into(&self, buf: &mut $crate::codec::EncodeBuf) -> $crate::codec::Bytes {
                self.encode_body(&mut $crate::codec::Writer::new(buf.buf()));
                buf.take()
            }

            /// Decode from wire bytes: exactly one message, nothing left
            /// over.
            pub fn decode(buf: &[u8]) -> ::core::result::Result<Self, $err> {
                $crate::codec::decode_whole(buf, Self::decode_body).map_err(::core::convert::Into::into)
            }
        }
    };

    // Items.
    (
        $(#[$m:meta])* $vis:vis enum $name:ident $(: $err:ty)? { $($body:tt)* }
        $($rest:tt)*
    ) => {
        $crate::wire!(@enum [$(#[$m])* $vis $name] [$($err)?] [w r] [] [] [] [] [] $($body)*);
        $crate::wire!($($rest)*);
    };
    (
        $(#[$m:meta])* $vis:vis struct $name:ident $(: $err:ty)? {
            $( $(#[$fm:meta])* $fvis:vis $f:ident : $t:ty $(as $c:ty)? ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$m])*
        $vis struct $name { $( $(#[$fm])* $fvis $f: $t, )* }

        impl $name {
            /// Append the fields in order.
            pub fn encode_body(&self, w: &mut $crate::codec::Writer<'_>) {
                $( <$crate::wire!(@codec $t $(as $c)?) as $crate::codec::Codec<$t>>::put(w, &self.$f); )*
            }

            /// Read one value written by `encode_body`.
            #[inline(always)]
            pub fn decode_body(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::DecodeError> {
                ::core::result::Result::Ok($name {
                    $( $f: <$crate::wire!(@codec $t $(as $c)?) as $crate::codec::Codec<$t>>::get(r)?, )*
                })
            }
        }

        $crate::wire!(@codec_impl $name);
        $crate::wire!(@message $name $($err)?);
        $crate::wire!($($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_cleanly() {
        let mut b = EncodeBuf::new();
        b.buf().extend_from_slice(b"alpha");
        let a = b.take();
        b.buf().extend_from_slice(b"beta");
        let c = b.take();
        assert_eq!(a.as_ref(), b"alpha");
        assert_eq!(c.as_ref(), b"beta");
        assert_eq!(b.take().len(), 0);
    }

    #[test]
    fn capacity_is_reclaimed_after_frames_drop() {
        let mut b = EncodeBuf::with_capacity(64);
        let base = {
            b.buf().extend_from_slice(&[7u8; 48]);
            let frame = b.take();
            frame.as_ptr() as usize
        };
        // The frame is dropped; the next frame must reuse the same
        // storage rather than allocate a new block.
        b.buf().extend_from_slice(&[8u8; 48]);
        let again = b.take();
        assert_eq!(again.as_ptr() as usize, base, "arena was not reclaimed");
    }

    #[test]
    fn a_huge_count_fails_without_reserving_it() {
        let bytes = [0xff, 0xff, 0xff, 0xff, 1, 2];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.seq(|r| r.u64()), Err(DecodeError));
        assert_eq!(decode_whole(&bytes, Vec::<u8>::get), Err(DecodeError));
    }

    #[test]
    fn reads_are_bounded_and_leftovers_rejected() {
        let mut buf = BytesMut::new();
        let mut w = Writer::new(&mut buf);
        w.put(&(7u32, Some(SimTime::from_nanos(9)), vec![true, false]));
        w.bytes(b"xy");
        let bytes = buf.to_vec();
        let mut r = Reader::new(&bytes);
        let v: (u32, Option<SimTime>, Vec<bool>) = r.get().unwrap();
        assert_eq!(v, (7, Some(SimTime::from_nanos(9)), vec![true, false]));
        assert_eq!(r.bytes(), Ok(&b"xy"[..]));
        assert_eq!(r.finish(), Ok(()));
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let whole = r
                .get::<(u32, Option<SimTime>, Vec<bool>)>()
                .and_then(|_| r.bytes());
            assert_eq!(whole, Err(DecodeError), "cut at {cut}");
        }
        assert_eq!(decode_whole(&[1, 0], u8::get), Err(DecodeError));
        assert_eq!(decode_whole(&[2, 0], Option::<u8>::get), Err(DecodeError));
    }
}
