//! The middleware wire protocol.
//!
//! §IV: "each request involves two MPI messages. First, the front-end sends
//! a request message to the back-end. Second, the back-end sends the results
//! (e.g., error code or data) back to the front-end." Bulk payloads ride as
//! separate data messages between the request and the response — one for
//! the naive protocol, one per block for the pipeline protocol.
//!
//! **Integrity**: every framed header ([`RequestFrame`], [`StreamBatch`],
//! [`Response`], [`StreamAck`]) and every bulk data block carries a CRC32
//! trailer ([`seal_block`] / [`open_block`]). A mismatch is surfaced as
//! [`DecodeError`] (headers) or [`Status::Corrupt`] (blocks) and treated
//! exactly like a lost message: the retry plane retransmits, so a bit
//! flipped in flight can never be silently executed or returned as data.
//!
//! **Layout**: [`Request`], [`Status`], [`Response`] and [`StreamAck`] are
//! stated once, as a [`wire!`](dacc_fabric::wire) table; the framed
//! carriers and the validating field codecs below it are written by hand
//! on the same [`Writer`] / [`Reader`].

// The checksum and its kernel live in `crc.rs`; this is their public path.
use crate::crc::checksum;
pub use crate::crc::{crc32, split_active, Crc32, SPLIT_MIN};
use bytes::Bytes;
pub use dacc_fabric::codec::DecodeError;
use dacc_fabric::codec::{decode_whole, Codec, EncodeBuf, Reader, Seq, Writer};
use dacc_fabric::payload::Payload;
use dacc_fabric::wire;
use dacc_vgpu::kernel::KernelArg;
use dacc_vgpu::memory::DevicePtr;

/// Reserved fabric tags for middleware traffic.
pub mod ac_tags {
    use dacc_fabric::mpi::Tag;
    /// Front-end → daemon request headers.
    pub const REQUEST: Tag = Tag(0xFFFF_0020);
    /// Daemon → front-end response headers.
    pub const RESPONSE: Tag = Tag(0xFFFF_0021);
    /// Bulk data blocks (either direction).
    pub const DATA: Tag = Tag(0xFFFF_0022);
    /// Accelerator-to-accelerator data blocks.
    pub const PEER_DATA: Tag = Tag(0xFFFF_0023);
    /// Coalesced control traffic: one [`ControlBatch`](super::ControlBatch)
    /// frame carrying several small daemon → front-end messages (responses,
    /// stream acks) for the same peer. The fabric's unbundler splits it back
    /// into per-entry tags on arrival, so receivers never see this tag.
    pub const CTRL: Tag = Tag(0xFFFF_0024);

    /// Response tag scoped to one `(op_id, attempt)` of a framed request.
    ///
    /// Retried requests listen on a fresh tag per attempt so a late
    /// response from an abandoned attempt can never be mistaken for the
    /// current one — it rots in the unexpected queue instead (a bounded
    /// leak the simulation tolerates). Response tags live in
    /// `0x4000_0000..0x8000_0000` and data tags in
    /// `0x8000_0000..0xC000_0000`, disjoint from each other, from the
    /// reserved `0xFFFF_00xx` tags, and from ordinary application tags
    /// (which stay small). The 30-bit scramble can alias two operations
    /// only if a stale message additionally survives with the same source
    /// rank, which bounded-retry clients never produce.
    pub fn response_tag(op_id: u64, attempt: u32) -> Tag {
        Tag(0x4000_0000 | scramble(op_id, attempt))
    }

    /// Data-block tag scoped to one `(op_id, attempt)` of a framed request.
    pub fn data_tag(op_id: u64, attempt: u32) -> Tag {
        Tag(0x8000_0000 | scramble(op_id, attempt))
    }

    /// Cumulative-ack tag for one command stream (see
    /// [`StreamBatch`](super::StreamBatch)). Stream ack tags live in
    /// `0xC000_0000..0xD000_0000`, disjoint from the response and data
    /// scramble ranges above.
    pub fn stream_ack_tag(stream: u32) -> Tag {
        Tag(0xC000_0000 | (stream & 0x0FFF_FFFF))
    }

    /// Bulk-data tag for host→device copies enqueued on one command
    /// stream. Stream data tags live in `0xD000_0000..0xE000_0000`.
    pub fn stream_data_tag(stream: u32) -> Tag {
        Tag(0xD000_0000 | (stream & 0x0FFF_FFFF))
    }

    fn scramble(op_id: u64, attempt: u32) -> u32 {
        let mix = (op_id ^ ((attempt as u64) << 40).wrapping_add(attempt as u64))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mix >> 34) as u32) & 0x3FFF_FFFF
    }
}

/// Base of the client-minted stream-virtual device address space used by
/// [`MemAllocAt`](Request::MemAllocAt): a streamed allocation must return a
/// pointer before the daemon's ack arrives, so the front-end mints one from
/// this range and the daemon translates on use. Far above both physical
/// device addresses and the failover plane's session-virtual range
/// (`1 << 48`), so a pointer crossing planes fails fast.
pub const STREAM_VIRT_BASE: u64 = 1 << 52;

/// Transfer protocol selector carried in copy requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireProtocol {
    /// Single bulk message, fully received before one DMA.
    Naive,
    /// Split into blocks of the given size; network and DMA overlap.
    Pipeline {
        /// Block size in bytes.
        block: u64,
    },
}

impl WireProtocol {
    /// Block size used on the wire (`len` itself for naive).
    pub fn block_size(&self, len: u64) -> u64 {
        match self {
            WireProtocol::Naive => len.max(1),
            WireProtocol::Pipeline { block } => (*block).min(len.max(1)),
        }
    }

    /// Number of data messages for a `len`-byte transfer.
    pub fn block_count(&self, len: u64) -> u64 {
        if len == 0 {
            0
        } else {
            len.div_ceil(self.block_size(len))
        }
    }
}

/// A kind byte (`0` naive, `1` pipeline), then the block size (`0` for
/// naive). A pipeline of zero-byte blocks is malformed.
impl Codec<WireProtocol> for WireProtocol {
    fn put(w: &mut Writer<'_>, p: &WireProtocol) {
        match p {
            WireProtocol::Naive => {
                w.u8(0);
                w.u64(0);
            }
            WireProtocol::Pipeline { block } => {
                w.u8(1);
                w.u64(*block);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<WireProtocol, DecodeError> {
        let kind = r.u8()?;
        let block = r.u64()?;
        match kind {
            0 => Ok(WireProtocol::Naive),
            1 if block > 0 => Ok(WireProtocol::Pipeline { block }),
            _ => Err(DecodeError),
        }
    }
}

/// Field codec for a [`DevicePtr`]: its address as a `u64`.
struct Ptr;

impl Codec<DevicePtr> for Ptr {
    fn put(w: &mut Writer<'_>, p: &DevicePtr) {
        w.u64(p.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<DevicePtr, DecodeError> {
        r.u64().map(DevicePtr)
    }
}

/// Field codec for a [`KernelArg`]: a kind byte, then the value as 8 bytes.
struct Arg;

impl Codec<KernelArg> for Arg {
    fn put(w: &mut Writer<'_>, a: &KernelArg) {
        let (kind, bits) = match *a {
            KernelArg::Ptr(p) => (0, p.0),
            KernelArg::U64(v) => (1, v),
            KernelArg::I64(v) => (2, v as u64),
            KernelArg::F64(v) => (3, v.to_bits()),
        };
        w.u8(kind);
        w.u64(bits);
    }
    fn get(r: &mut Reader<'_>) -> Result<KernelArg, DecodeError> {
        Ok(match r.u8()? {
            0 => KernelArg::Ptr(DevicePtr(r.u64()?)),
            1 => KernelArg::U64(r.u64()?),
            2 => KernelArg::I64(r.u64()? as i64),
            3 => KernelArg::F64(f64::from_bits(r.u64()?)),
            _ => return Err(DecodeError),
        })
    }
}

/// Field codec for a pipeline block size that must not be zero.
struct Block;

impl Codec<u64> for Block {
    fn put(w: &mut Writer<'_>, block: &u64) {
        w.u64(*block);
    }
    fn get(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
        match r.u64()? {
            0 => Err(DecodeError),
            block => Ok(block),
        }
    }
}

wire! {
    /// A front-end → daemon request.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Request: DecodeError {
        /// `acMemAlloc`: allocate `len` bytes of device memory.
        0 => MemAlloc {
            /// Allocation size in bytes.
            len: u64,
        },
        /// `acMemFree`: free a device allocation.
        1 => MemFree {
            /// Base pointer to free.
            ptr: DevicePtr as Ptr,
        },
        /// `acMemCpy` host→device: data messages follow this header.
        2 => MemCpyH2D {
            /// Destination device pointer.
            dst: DevicePtr as Ptr,
            /// Transfer length in bytes.
            len: u64,
            /// Protocol for the data messages.
            protocol: WireProtocol,
        },
        /// `acMemCpy` device→host: daemon streams data messages, then responds.
        3 => MemCpyD2H {
            /// Source device pointer.
            src: DevicePtr as Ptr,
            /// Transfer length in bytes.
            len: u64,
            /// Protocol for the data messages.
            protocol: WireProtocol,
        },
        /// `acKernelCreate`: bind the session to a named kernel.
        4 => KernelCreate {
            /// Registered kernel name.
            name: String,
        },
        /// `acKernelSetArgs`: set the bound kernel's arguments.
        5 => KernelSetArgs {
            /// Argument list.
            args: Vec<KernelArg> as Seq<Arg>,
        },
        /// `acKernelRun`: launch the bound kernel with this configuration.
        6 => KernelRun {
            /// Grid dimensions.
            grid: (u32, u32, u32),
            /// Block dimensions.
            block: (u32, u32, u32),
        },
        /// Stream device data directly to a peer accelerator's daemon
        /// (the paper's accelerator-to-accelerator exchange, §III-C).
        7 => PeerSend {
            /// Source device pointer on this accelerator.
            src: DevicePtr as Ptr,
            /// Bytes to stream.
            len: u64,
            /// Fabric rank of the receiving daemon.
            peer: u32,
            /// Pipeline block size.
            block: u64,
        },
        /// Receive device data streamed by a peer accelerator's daemon.
        8 => PeerRecv {
            /// Destination device pointer on this accelerator.
            dst: DevicePtr as Ptr,
            /// Bytes expected.
            len: u64,
            /// Fabric rank of the sending daemon.
            from: u32,
            /// Pipeline block size.
            block: u64,
        },
        /// `acMemSet`: fill `len` device bytes with `byte` (cuMemsetD8).
        10 => MemSet {
            /// Destination device pointer.
            ptr: DevicePtr as Ptr,
            /// Fill length in bytes.
            len: u64,
            /// Fill value.
            byte: u8,
        },
        /// Liveness probe: the daemon answers immediately.
        11 => Ping,
        /// Stop the daemon (orderly tear-down).
        9 => Shutdown,
        /// Fused `acKernelCreate` + `acKernelSetArgs` + `acKernelRun`: one
        /// round trip instead of three (§IV pays a full request/response pair
        /// per call, which dominates small-kernel latency).
        12 => Launch {
            /// Registered kernel name.
            name: String,
            /// Argument list.
            args: Vec<KernelArg> as Seq<Arg>,
            /// Grid dimensions.
            grid: (u32, u32, u32),
            /// Block dimensions.
            block: (u32, u32, u32),
        },
        /// `acMemAlloc` at a client-minted stream-virtual address (≥
        /// [`STREAM_VIRT_BASE`]): lets a command stream hand out pointers
        /// without waiting for the daemon's ack. The daemon records the
        /// `virt → real` mapping in the client's session and translates on
        /// every later use from that client.
        13 => MemAllocAt {
            /// Stream-virtual base address chosen by the client.
            virt: u64,
            /// Allocation size in bytes.
            len: u64,
        },
        /// Checkpoint read-out: the daemon streams the live contents of each
        /// listed region back to the front-end over the pipelined block
        /// protocol (like a multi-region `MemCpyD2H`), letting a resilient
        /// session capture device state in one round trip.
        14 => Snapshot {
            /// `(ptr, len)` of each live device region, in session order.
            regions: Vec<(u64, u64)>,
            /// Pipeline block size for the data phase.
            block: u64 as Block,
        },
        /// Checkpoint restore: the front-end streams each listed region's
        /// contents to the daemon (like a multi-region `MemCpyH2D`), restoring
        /// a previously captured snapshot onto a replacement accelerator.
        15 => Restore {
            /// `(ptr, len)` of each destination region, in session order.
            regions: Vec<(u64, u64)>,
            /// Pipeline block size for the data phase.
            block: u64 as Block,
        },
    }

    /// Status codes carried in responses.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Status {
        /// Success.
        0 => Ok,
        /// Device out of memory.
        1 => OutOfMemory,
        /// Invalid device pointer.
        2 => InvalidPointer,
        /// Access out of bounds.
        3 => OutOfBounds,
        /// Kernel name not registered.
        4 => UnknownKernel,
        /// Kernel argument mismatch.
        5 => BadArgs,
        /// Kernel body failed.
        6 => KernelFailed,
        /// No kernel bound to the session (`acKernelRun` before `acKernelCreate`).
        7 => NoKernelBound,
        /// Malformed request.
        8 => Malformed,
        /// The daemon gave up waiting for the request's data phase (lost
        /// blocks); the front-end should retry the whole operation.
        9 => Timeout,
        /// The request was stamped with an assignment epoch older than the
        /// daemon's fence: the accelerator has been reclaimed and possibly
        /// reassigned since the sender's grant, so the op is rejected
        /// deterministically without touching device state.
        10 => StaleEpoch,
        /// A data block failed its CRC32 integrity check. The payload was
        /// discarded without touching device state; the front-end retries the
        /// whole operation like a timeout.
        11 => Corrupt,
        /// The daemon's admission queue is full: the request was rejected
        /// *before* decode/execute (a typed fast-reject is far cheaper than
        /// letting the client burn a full timeout). The response's `value`
        /// carries a retry-after hint in nanoseconds; well-behaved clients
        /// wait at least that long (spending retry budget) before retrying.
        12 => Overloaded,
    }

    /// A daemon → front-end response: status plus one optional word
    /// (the allocated pointer for `MemAlloc`).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct Response {
        /// Outcome of the request.
        pub status: Status,
        /// Request-specific value (e.g. allocated pointer address).
        pub value: u64,
    }

    /// Cumulative acknowledgement for a [`StreamBatch`]: covers every command
    /// up to and including `seq`. `status` is `Ok` iff all of them succeeded;
    /// otherwise it is the *first* failure in the batch (later commands still
    /// execute so the stream's data-tag pairing never skews, but the client
    /// latches the first error as its sticky stream error). `value` carries
    /// the last command's response value (unused by streams today, but kept
    /// for symmetry with [`Response`]).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct StreamAck {
        /// Highest command sequence number covered by this ack.
        pub seq: u64,
        /// `Ok`, or the first failure among the acked commands.
        pub status: Status,
        /// Response value of the last command in the batch.
        pub value: u64,
    }
}

impl Response {
    /// A success response with no value.
    pub fn ok() -> Self {
        Response {
            status: Status::Ok,
            value: 0,
        }
    }

    /// An error response.
    pub fn err(status: Status) -> Self {
        Response { status, value: 0 }
    }

    /// Encode to fresh wire bytes (see [`Response::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena (with a CRC32 trailer).
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        sealed(buf, |w| self.encode_body(w))
    }

    /// Decode from wire bytes. A CRC mismatch fails like a malformed
    /// response; retrying clients treat that as a lost reply.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        unsealed(buf, Self::decode_body)
    }
}

impl StreamAck {
    /// Encode to fresh wire bytes (see [`StreamAck::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena (with a CRC32 trailer).
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        sealed(buf, |w| self.encode_body(w))
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        unsealed(buf, Self::decode_body)
    }
}

/// Bytes added to every sealed header and data block by the CRC trailer.
pub const CRC_TRAILER_BYTES: u64 = 4;

/// Encode one sealed header: `body` writes the frame into the arena, a
/// CRC32 trailer over it follows, and the sealed frame is split off.
fn sealed(buf: &mut EncodeBuf, body: impl FnOnce(&mut Writer<'_>)) -> Bytes {
    let b = buf.buf();
    body(&mut Writer::new(b));
    let crc = crc32(b);
    b.extend_from_slice(&crc.to_le_bytes());
    buf.take()
}

/// Verify and strip a CRC32 trailer, returning the covered body.
fn unseal(buf: &[u8]) -> Result<&[u8], DecodeError> {
    let split = buf
        .len()
        .checked_sub(CRC_TRAILER_BYTES as usize)
        .ok_or(DecodeError)?;
    let (body, trailer) = buf.split_at(split);
    if crc32(body).to_le_bytes() == trailer {
        Ok(body)
    } else {
        Err(DecodeError)
    }
}

/// Decode one sealed header: verify its trailer, then `body` must read
/// every byte it covers.
fn unsealed<T>(
    buf: &[u8],
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    decode_whole(unseal(buf)?, body)
}

/// Seal one bulk data block for the wire: functional payloads get a CRC32
/// trailer appended **as an extra chained segment** — the body bytes are
/// shared, never copied — while size-only payloads just grow by the trailer
/// size so both modes see identical wire timing.
pub fn seal_block(p: &Payload) -> Payload {
    if !p.is_functional() {
        return Payload::size_only(p.len() + CRC_TRAILER_BYTES);
    }
    let segs = p.segments();
    let crc = checksum(segs, p.len() as usize);
    let mut sealed = Vec::with_capacity(segs.len() + 1);
    sealed.extend_from_slice(segs);
    sealed.push(Bytes::copy_from_slice(&crc.to_le_bytes()));
    Payload::chain(sealed)
}

/// Verify and strip the trailer of a sealed data block: the checksum runs
/// over the body portion of the segments, the trailer is read from their
/// tail, and on a match the verified body is returned as a zero-copy slice.
/// A CRC mismatch — or a block too short to carry a trailer — is `Err`.
/// Size-only blocks carry no bits to check and always verify.
pub fn open_block(p: &Payload) -> Result<Payload, DecodeError> {
    if p.len() < CRC_TRAILER_BYTES {
        return Err(DecodeError);
    }
    let body_len = p.len() - CRC_TRAILER_BYTES;
    if !p.is_functional() {
        return Ok(Payload::size_only(body_len));
    }
    if checksum(p.segments(), body_len as usize).to_le_bytes() != trailer(p.segments()) {
        return Err(DecodeError);
    }
    Ok(p.slice(0, body_len))
}

/// The last [`CRC_TRAILER_BYTES`] bytes of a segment list at least that
/// long, gathered from its tail.
fn trailer(segs: &[Bytes]) -> [u8; CRC_TRAILER_BYTES as usize] {
    let mut out = [0u8; CRC_TRAILER_BYTES as usize];
    let mut need = out.len();
    for s in segs.iter().rev() {
        let take = need.min(s.len());
        out[need - take..need].copy_from_slice(&s[s.len() - take..]);
        need -= take;
        if need == 0 {
            break;
        }
    }
    out
}

impl Request {
    /// True for operations a command stream may carry inside a
    /// [`StreamBatch`]: fire-and-forget commands whose only reply is the
    /// batch's cumulative ack. Requests that stream data *back* to the
    /// front-end (D2H, peer exchange) or control the daemon itself
    /// (ping/shutdown) must go through the ordinary request/response path.
    pub fn batchable(&self) -> bool {
        matches!(
            self,
            Request::MemAlloc { .. }
                | Request::MemAllocAt { .. }
                | Request::MemFree { .. }
                | Request::MemSet { .. }
                | Request::MemCpyH2D { .. }
                | Request::KernelCreate { .. }
                | Request::KernelSetArgs { .. }
                | Request::KernelRun { .. }
                | Request::Launch { .. }
        )
    }
}

/// Marker byte distinguishing a [`RequestFrame`] from a bare [`Request`]
/// on the wire (bare request opcodes stay below it).
pub const FRAME_MARKER: u8 = 0xFB;

/// Marker byte for a [`RequestFrame`] carrying an absolute deadline
/// (`RequestFrame::deadline = Some(..)`). The layout is identical to a
/// [`FRAME_MARKER`] frame except the deadline rides immediately after the
/// marker — bytes `[1..9]` — so an overloaded daemon can drop expired
/// work with a fixed-offset peek, before paying for CRC verification or
/// decode. Deadlines are opt-in (default off), so the default wire format
/// stays byte-identical to the archived golden vectors.
pub const DEADLINE_MARKER: u8 = 0xFA;

/// Marker byte distinguishing a [`StreamBatch`] from bare requests and
/// [`RequestFrame`]s on the wire.
pub const BATCH_MARKER: u8 = 0xFC;

/// Marker byte distinguishing a [`ControlBatch`] from the other framed
/// wire forms.
pub const CTRL_MARKER: u8 = 0xFD;

/// What a framed header's marker byte announces.
enum Head {
    /// A [`RequestFrame`], with the deadline a [`DEADLINE_MARKER`] carries.
    Frame { deadline: Option<u64> },
    /// A [`StreamBatch`].
    Batch,
    /// A [`ControlBatch`].
    Ctrl,
}

/// Read a framed header's marker, and a deadline frame's deadline: the one
/// place the four core markers are parsed. Any other first byte — a bare
/// request's opcode included — is `Err`.
fn head(r: &mut Reader<'_>) -> Result<Head, DecodeError> {
    Ok(match r.u8()? {
        FRAME_MARKER => Head::Frame { deadline: None },
        DEADLINE_MARKER => Head::Frame {
            deadline: Some(r.u64()?),
        },
        BATCH_MARKER => Head::Batch,
        CTRL_MARKER => Head::Ctrl,
        _ => return Err(DecodeError),
    })
}

/// A retryable request envelope: a [`Request`] plus the sequence numbers
/// the daemon needs to dedupe replays.
///
/// `op_id` identifies the logical operation (monotonic per front-end
/// session); `attempt` counts retransmissions of that operation. The
/// daemon replies on [`ac_tags::response_tag`]`(op_id, attempt)` and the
/// data phase (if any) uses [`ac_tags::data_tag`]`(op_id, attempt)`, so
/// traffic from an abandoned attempt can never satisfy the current one.
#[derive(Clone, PartialEq, Debug)]
pub struct RequestFrame {
    /// Logical operation id, monotonic per front-end.
    pub op_id: u64,
    /// Retransmission counter, 0 for the first send.
    pub attempt: u32,
    /// Assignment epoch of the sender's grant (health plane). Daemons
    /// fence frames whose epoch is older than their current fence; `0`
    /// means "unstamped" (legacy client) and is never fenced.
    pub epoch: u64,
    /// Absolute deadline (virtual-time nanoseconds) after which the
    /// caller no longer wants the result. `None` (the default path)
    /// encodes with [`FRAME_MARKER`] — byte-identical to the pre-deadline
    /// wire format; `Some` switches to [`DEADLINE_MARKER`]. Daemons drop
    /// expired frames before decode.
    pub deadline: Option<u64>,
    /// The operation itself.
    pub req: Request,
}

impl RequestFrame {
    /// Encode to fresh wire bytes (see [`RequestFrame::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena (marker, op_id, attempt, epoch,
    /// request body inlined, CRC32 trailer) — one frame, zero intermediate
    /// allocations.
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        sealed(buf, |w| {
            match self.deadline {
                None => w.u8(FRAME_MARKER),
                Some(d) => {
                    w.u8(DEADLINE_MARKER);
                    w.u64(d);
                }
            }
            w.u64(self.op_id);
            w.u32(self.attempt);
            w.u64(self.epoch);
            self.req.encode_body(w);
        })
    }

    /// Decode a framed request (the marker byte is required). A CRC
    /// mismatch — the frame was damaged in flight — fails like any other
    /// malformed header.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        unsealed(buf, |r| {
            let Head::Frame { deadline } = head(r)? else {
                return Err(DecodeError);
            };
            Ok(RequestFrame {
                deadline,
                op_id: r.u64()?,
                attempt: r.u32()?,
                epoch: r.u64()?,
                req: Request::decode_body(r)?,
            })
        })
    }

    /// Peek the absolute deadline of an *encoded* frame without CRC
    /// verification or decode: `Some(nanos)` only for deadline-stamped
    /// frames ([`DEADLINE_MARKER`]). Overloaded daemons use this to drop
    /// expired work at minimum cost; a frame corrupted into an early drop
    /// is indistinguishable from a shed one and heals the same way (the
    /// client retries or has already given up).
    pub fn peek_deadline(buf: &[u8]) -> Option<u64> {
        match head(&mut Reader::new(buf)) {
            Ok(Head::Frame { deadline }) => deadline,
            _ => None,
        }
    }

    /// Peek `(op_id, attempt)` of an *encoded* frame without CRC
    /// verification or decode — enough to address a typed
    /// [`Status::Overloaded`] fast-reject at the sender's attempt-scoped
    /// response tag. `None` for bare requests and stream batches (which
    /// are never fast-rejected).
    pub fn peek_reject_ids(buf: &[u8]) -> Option<(u64, u32)> {
        let mut r = Reader::new(buf);
        let Ok(Head::Frame { .. }) = head(&mut r) else {
            return None;
        };
        Some((r.u64().ok()?, r.u32().ok()?))
    }
}

/// A batched frame from one command stream: several small queued requests
/// packed into a single fabric message. The daemon executes the commands
/// strictly in order and answers with **one** cumulative [`StreamAck`] on
/// [`ac_tags::stream_ack_tag`]`(stream)` covering the whole batch, so an
/// in-flight window of `w` commands costs `⌈w / batch⌉` round trips
/// instead of `w`.
///
/// Commands are numbered consecutively from `first_seq` in submission
/// order; host→device payloads for any `MemCpyH2D` commands follow the
/// frame on [`ac_tags::stream_data_tag`]`(stream)` in the same order.
/// Batches ride the same [`ac_tags::REQUEST`] tag as ordinary requests,
/// so the fabric's non-overtaking guarantee serializes a client's batches
/// against its plain requests — a front-end only needs to *flush* (not
/// drain) a stream before issuing a dependent plain request.
#[derive(Clone, PartialEq, Debug)]
pub struct StreamBatch {
    /// Stream identifier (scopes ack/data tags).
    pub stream: u32,
    /// Sequence number of the first command in the batch.
    pub first_seq: u64,
    /// Assignment epoch of the sender's grant (health plane); `0` means
    /// unstamped. A fenced batch is rejected whole with one cumulative
    /// [`StreamAck`] carrying [`Status::StaleEpoch`].
    pub epoch: u64,
    /// The commands, in submission order. Each must be
    /// [`Request::batchable`].
    pub cmds: Vec<Request>,
}

impl StreamBatch {
    /// Encode to fresh wire bytes (see [`StreamBatch::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena (marker, stream, first_seq, epoch,
    /// count, each command length-prefixed, CRC32 trailer). Command bodies
    /// encode in place with their length prefix patched in afterwards, so
    /// a batch of `n` commands costs zero intermediate allocations instead
    /// of `n` nested `Vec`s.
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        sealed(buf, |w| {
            w.u8(BATCH_MARKER);
            w.u32(self.stream);
            w.u64(self.first_seq);
            w.u64(self.epoch);
            w.u32(self.cmds.len() as u32);
            for cmd in &self.cmds {
                w.prefixed(|w| cmd.encode_body(w));
            }
        })
    }

    /// Decode a stream batch (the marker byte is required).
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        unsealed(buf, |r| {
            let Head::Batch = head(r)? else {
                return Err(DecodeError);
            };
            Ok(StreamBatch {
                stream: r.u32()?,
                first_seq: r.u64()?,
                epoch: r.u64()?,
                cmds: r.seq(|r| Request::decode(r.bytes()?))?,
            })
        })
    }
}

/// A decoded request header: a legacy bare [`Request`] (replies on
/// [`ac_tags::RESPONSE`], no dedupe), a [`RequestFrame`], or a
/// [`StreamBatch`] from a command stream.
#[derive(Clone, PartialEq, Debug)]
pub enum AnyRequest {
    /// Unframed request from a client without retry enabled.
    Bare(Request),
    /// Framed, retryable request.
    Framed(RequestFrame),
    /// Batched command-stream frame, acked cumulatively.
    Batch(StreamBatch),
}

impl AnyRequest {
    /// Decode any wire form, keyed on the marker byte.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        Ok(match head(&mut Reader::new(buf)) {
            Ok(Head::Frame { .. }) => AnyRequest::Framed(RequestFrame::decode(buf)?),
            Ok(Head::Batch) => AnyRequest::Batch(StreamBatch::decode(buf)?),
            _ => AnyRequest::Bare(Request::decode(buf)?),
        })
    }
}

/// Several small control messages (responses, stream acks) for one peer,
/// coalesced into a single fabric message on [`ac_tags::CTRL`].
///
/// Each entry carries the fabric tag its body would have been sent on
/// individually; the receiving fabric's unbundler re-delivers every entry
/// under its own tag, so clients are oblivious to batching. The frame is
/// sealed like every other header, and the whole batch is dropped on a CRC
/// mismatch — exactly the lost-message semantics the retry plane already
/// handles. Batches must stay under the fabric's eager threshold: the
/// unbundler only sees eager packets (nothing ever posts a receive on the
/// CTRL tag, so a rendezvous would never complete).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ControlBatch {
    /// `(tag, sealed body)` per coalesced message, in send order.
    pub entries: Vec<(u32, Bytes)>,
}

impl ControlBatch {
    /// Encode to fresh wire bytes (see [`ControlBatch::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena (marker, count, per entry the tag and
    /// length-prefixed body, CRC32 trailer over the whole frame).
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        sealed(buf, |w| {
            w.u8(CTRL_MARKER);
            w.u32(self.entries.len() as u32);
            for (tag, body) in &self.entries {
                w.u32(*tag);
                w.bytes(body);
            }
        })
    }

    /// Decode from wire bytes. Entry bodies are returned as zero-copy
    /// slices of `buf`; a truncated, oversized, or damaged frame fails
    /// whole with `DecodeError`.
    pub fn decode(buf: &Bytes) -> Result<Self, DecodeError> {
        unsealed(buf, |r| {
            let Head::Ctrl = head(r)? else {
                return Err(DecodeError);
            };
            let entries = r.seq(|r| {
                let tag = r.u32()?;
                let len = r.bytes()?.len();
                Ok((tag, buf.slice(r.pos() - len..r.pos())))
            })?;
            Ok(ControlBatch { entries })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: Request) {
        assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(Request::MemAlloc { len: 1 << 30 });
        roundtrip(Request::MemFree {
            ptr: DevicePtr(4096),
        });
        roundtrip(Request::MemCpyH2D {
            dst: DevicePtr(512),
            len: 10_000_000,
            protocol: WireProtocol::Pipeline { block: 128 << 10 },
        });
        roundtrip(Request::MemCpyD2H {
            src: DevicePtr(512),
            len: 7,
            protocol: WireProtocol::Naive,
        });
        roundtrip(Request::KernelCreate {
            name: "dgemm_nt".into(),
        });
        roundtrip(Request::KernelSetArgs {
            args: vec![
                KernelArg::Ptr(DevicePtr(77)),
                KernelArg::U64(9),
                KernelArg::I64(-3),
                KernelArg::F64(-1.25),
            ],
        });
        roundtrip(Request::KernelRun {
            grid: (16, 16, 1),
            block: (32, 8, 1),
        });
        roundtrip(Request::PeerSend {
            src: DevicePtr(1),
            len: 2,
            peer: 3,
            block: 4,
        });
        roundtrip(Request::PeerRecv {
            dst: DevicePtr(1),
            len: 2,
            from: 3,
            block: 4,
        });
        roundtrip(Request::MemSet {
            ptr: DevicePtr(64),
            len: 1 << 20,
            byte: 0xAB,
        });
        roundtrip(Request::Ping);
        roundtrip(Request::Shutdown);
        roundtrip(Request::Launch {
            name: "la.dgemm".into(),
            args: vec![
                KernelArg::Ptr(DevicePtr(STREAM_VIRT_BASE + 256)),
                KernelArg::U64(128),
                KernelArg::F64(-1.0),
            ],
            grid: (8, 8, 1),
            block: (16, 16, 1),
        });
        roundtrip(Request::MemAllocAt {
            virt: STREAM_VIRT_BASE,
            len: 1 << 20,
        });
        roundtrip(Request::Snapshot {
            regions: vec![(4096, 1 << 20), (8192, 256)],
            block: 128 << 10,
        });
        roundtrip(Request::Restore {
            regions: vec![(4096, 1 << 20)],
            block: 128 << 10,
        });
        roundtrip(Request::Snapshot {
            regions: vec![],
            block: 1,
        });
    }

    #[test]
    fn batchable_partition_matches_data_direction() {
        // Everything that only flows front-end → daemon batches; anything
        // with a return data phase or daemon control does not.
        assert!(Request::MemAlloc { len: 1 }.batchable());
        assert!(Request::MemAllocAt { virt: 0, len: 1 }.batchable());
        assert!(Request::MemFree { ptr: DevicePtr(1) }.batchable());
        assert!(Request::MemSet {
            ptr: DevicePtr(1),
            len: 1,
            byte: 0
        }
        .batchable());
        assert!(Request::MemCpyH2D {
            dst: DevicePtr(1),
            len: 1,
            protocol: WireProtocol::Naive
        }
        .batchable());
        assert!(Request::Launch {
            name: "k".into(),
            args: vec![],
            grid: (1, 1, 1),
            block: (1, 1, 1)
        }
        .batchable());
        assert!(!Request::MemCpyD2H {
            src: DevicePtr(1),
            len: 1,
            protocol: WireProtocol::Naive
        }
        .batchable());
        assert!(!Request::PeerSend {
            src: DevicePtr(1),
            len: 1,
            peer: 2,
            block: 4
        }
        .batchable());
        assert!(!Request::Ping.batchable());
        assert!(!Request::Shutdown.batchable());
        // Checkpoint ops have data phases in both directions and belong to
        // the recovery plane, not to command streams.
        assert!(!Request::Snapshot {
            regions: vec![(1, 2)],
            block: 4
        }
        .batchable());
        assert!(!Request::Restore {
            regions: vec![(1, 2)],
            block: 4
        }
        .batchable());
    }

    #[test]
    fn stream_batches_roundtrip() {
        let batch = StreamBatch {
            stream: 0x0ABC_DEF0,
            first_seq: 41,
            epoch: 6,
            cmds: vec![
                Request::MemAllocAt {
                    virt: STREAM_VIRT_BASE + 4096,
                    len: 1 << 16,
                },
                Request::MemCpyH2D {
                    dst: DevicePtr(STREAM_VIRT_BASE + 4096),
                    len: 1 << 16,
                    protocol: WireProtocol::Pipeline { block: 128 << 10 },
                },
                Request::Launch {
                    name: "la.dlarfb".into(),
                    args: vec![KernelArg::Ptr(DevicePtr(7)), KernelArg::U64(3)],
                    grid: (4, 4, 1),
                    block: (32, 4, 1),
                },
            ],
        };
        let bytes = batch.encode();
        assert_eq!(StreamBatch::decode(&bytes), Ok(batch.clone()));
        assert_eq!(AnyRequest::decode(&bytes), Ok(AnyRequest::Batch(batch)));
        for cut in 0..bytes.len() {
            assert_eq!(StreamBatch::decode(&bytes[..cut]), Err(DecodeError));
        }
        // Empty batches are legal on the wire (the client never sends them).
        let empty = StreamBatch {
            stream: 1,
            first_seq: 0,
            epoch: 0,
            cmds: vec![],
        };
        assert_eq!(StreamBatch::decode(&empty.encode()), Ok(empty));
    }

    #[test]
    fn stream_acks_roundtrip() {
        for status in [Status::Ok, Status::InvalidPointer, Status::Malformed] {
            let ack = StreamAck {
                seq: u64::MAX - 3,
                status,
                value: 0x1234_5678,
            };
            let bytes = ack.encode();
            assert_eq!(StreamAck::decode(&bytes), Ok(ack));
            for cut in 0..bytes.len() {
                assert_eq!(StreamAck::decode(&bytes[..cut]), Err(DecodeError));
            }
        }
    }

    #[test]
    fn stream_tags_disjoint_from_scramble_ranges() {
        for id in [0u32, 1, 0x0FFF_FFFF, u32::MAX] {
            let ack = ac_tags::stream_ack_tag(id).0;
            let data = ac_tags::stream_data_tag(id).0;
            assert!((0xC000_0000..0xD000_0000).contains(&ack));
            assert!((0xD000_0000..0xE000_0000).contains(&data));
        }
        for op in 0..256u64 {
            for att in 0..6u32 {
                assert!((0x4000_0000..0x8000_0000).contains(&ac_tags::response_tag(op, att).0));
                assert!((0x8000_0000..0xC000_0000).contains(&ac_tags::data_tag(op, att).0));
            }
        }
    }

    #[test]
    fn frames_roundtrip_and_coexist_with_bare_requests() {
        let frame = RequestFrame {
            op_id: 0xDEAD_BEEF_0042,
            attempt: 3,
            epoch: 11,
            deadline: None,
            req: Request::MemCpyH2D {
                dst: DevicePtr(512),
                len: 1 << 20,
                protocol: WireProtocol::Pipeline { block: 128 << 10 },
            },
        };
        let bytes = frame.encode();
        assert_eq!(RequestFrame::decode(&bytes), Ok(frame.clone()));
        assert_eq!(AnyRequest::decode(&bytes), Ok(AnyRequest::Framed(frame)));
        // Bare requests still decode through the same entry point.
        let bare = Request::Ping.encode();
        assert_eq!(
            AnyRequest::decode(&bare),
            Ok(AnyRequest::Bare(Request::Ping))
        );
        // Truncated frames fail cleanly.
        let long = RequestFrame {
            op_id: 7,
            attempt: 0,
            epoch: 0,
            deadline: None,
            req: Request::KernelCreate { name: "qr".into() },
        }
        .encode();
        for cut in 0..long.len() {
            assert_eq!(RequestFrame::decode(&long[..cut]), Err(DecodeError));
        }
    }

    #[test]
    fn deadline_frames_roundtrip_and_peek() {
        let frame = RequestFrame {
            op_id: 0x1122_3344_5566,
            attempt: 2,
            epoch: 5,
            deadline: Some(987_654_321),
            req: Request::MemAlloc { len: 4096 },
        };
        let bytes = frame.encode();
        assert_eq!(bytes[0], DEADLINE_MARKER);
        assert_eq!(RequestFrame::decode(&bytes), Ok(frame.clone()));
        assert_eq!(AnyRequest::decode(&bytes), Ok(AnyRequest::Framed(frame)));
        // Fixed-offset peeks agree with the decoded fields.
        assert_eq!(RequestFrame::peek_deadline(&bytes), Some(987_654_321));
        assert_eq!(
            RequestFrame::peek_reject_ids(&bytes),
            Some((0x1122_3344_5566, 2))
        );
        // A deadline-free frame peeks no deadline but still yields ids.
        let plain = RequestFrame {
            op_id: 9,
            attempt: 1,
            epoch: 0,
            deadline: None,
            req: Request::Ping,
        }
        .encode();
        assert_eq!(plain[0], FRAME_MARKER);
        assert_eq!(RequestFrame::peek_deadline(&plain), None);
        assert_eq!(RequestFrame::peek_reject_ids(&plain), Some((9, 1)));
        // Bare requests and batches are never peekable.
        assert_eq!(RequestFrame::peek_deadline(&Request::Ping.encode()), None);
        assert_eq!(RequestFrame::peek_reject_ids(&Request::Ping.encode()), None);
        // Truncated deadline frames fail cleanly, and a too-short peek is
        // None rather than a panic.
        for cut in 0..bytes.len() {
            assert_eq!(RequestFrame::decode(&bytes[..cut]), Err(DecodeError));
        }
        assert_eq!(RequestFrame::peek_deadline(&bytes[..5]), None);
        assert_eq!(RequestFrame::peek_reject_ids(&bytes[..12]), None);
    }

    #[test]
    fn deadline_off_is_byte_identical_to_legacy_frames() {
        // The opt-in extension must not perturb the default wire format:
        // `deadline: None` produces exactly the pre-extension bytes.
        let mk = |deadline| RequestFrame {
            op_id: 42,
            attempt: 3,
            epoch: 7,
            deadline,
            req: Request::MemSet {
                ptr: DevicePtr(0x3000),
                len: 64,
                byte: 0xAB,
            },
        };
        let legacy = mk(None).encode();
        let stamped = mk(Some(1)).encode();
        assert_eq!(legacy[0], FRAME_MARKER);
        assert_eq!(
            stamped.len(),
            legacy.len() + 8,
            "deadline adds exactly 8 bytes"
        );
    }

    #[test]
    fn attempt_scoped_tags_are_distinct() {
        use dacc_fabric::mpi::Tag;
        // Distinct attempts of one op and adjacent ops must get distinct
        // tags, and none may collide with the reserved base tags.
        let mut seen = std::collections::HashSet::new();
        for op in 0..64u64 {
            for attempt in 0..4u32 {
                for tag in [
                    ac_tags::response_tag(op, attempt),
                    ac_tags::data_tag(op, attempt),
                ] {
                    assert!(seen.insert(tag), "tag collision at op={op} att={attempt}");
                    for base in [
                        ac_tags::REQUEST,
                        ac_tags::RESPONSE,
                        ac_tags::DATA,
                        ac_tags::PEER_DATA,
                        ac_tags::CTRL,
                    ] {
                        assert_ne!(tag, base);
                    }
                }
            }
        }
        let _: Tag = ac_tags::response_tag(0, 0);
    }

    #[test]
    fn responses_roundtrip() {
        for status in [
            Status::Ok,
            Status::OutOfMemory,
            Status::InvalidPointer,
            Status::OutOfBounds,
            Status::UnknownKernel,
            Status::BadArgs,
            Status::KernelFailed,
            Status::NoKernelBound,
            Status::Malformed,
            Status::Timeout,
            Status::StaleEpoch,
            Status::Corrupt,
            Status::Overloaded,
        ] {
            let r = Response { status, value: 42 };
            assert_eq!(Response::decode(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn damaged_headers_fail_their_crc() {
        let frame = RequestFrame {
            op_id: 9,
            attempt: 1,
            epoch: 2,
            deadline: None,
            req: Request::MemAlloc { len: 64 },
        };
        let mut bytes = frame.encode();
        assert_eq!(RequestFrame::decode(&bytes), Ok(frame));
        // Flip one payload bit the structural decoder would never notice
        // (the op_id field): only the CRC can catch this.
        bytes[3] ^= 0x10;
        assert_eq!(RequestFrame::decode(&bytes), Err(DecodeError));

        let resp = Response::ok();
        let mut bytes = resp.encode();
        bytes[4] ^= 0x01; // value field
        assert_eq!(Response::decode(&bytes), Err(DecodeError));

        let ack = StreamAck {
            seq: 7,
            status: Status::Ok,
            value: 0,
        };
        let mut bytes = ack.encode();
        bytes[0] ^= 0x80; // seq field
        assert_eq!(StreamAck::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn sealed_blocks_roundtrip_and_detect_damage() {
        let data: Vec<u8> = (0..200u8).collect();
        let p = Payload::from_vec(data.clone());
        let sealed = seal_block(&p);
        assert_eq!(sealed.len(), p.len() + CRC_TRAILER_BYTES);
        let opened = open_block(&sealed).expect("pristine block must verify");
        assert_eq!(opened.expect_bytes().as_ref(), data.as_slice());

        // Any single flipped bit is detected, wherever it lands (payload
        // or trailer).
        for i in [0usize, 100, 199, 200, 203] {
            let mut v = sealed.to_bytes().to_vec();
            v[i] ^= 0x40;
            assert_eq!(
                open_block(&Payload::from_vec(v)),
                Err(DecodeError),
                "flip at byte {i} must be detected"
            );
        }

        // The fault plane's own bit-flip is detected too.
        assert_eq!(open_block(&sealed.corrupted()), Err(DecodeError));

        // Size-only blocks keep timing parity and always verify.
        let s = seal_block(&Payload::size_only(1 << 20));
        assert_eq!(s.len(), (1 << 20) + CRC_TRAILER_BYTES);
        assert_eq!(open_block(&s), Ok(Payload::size_only(1 << 20)));

        // Runt blocks (shorter than a trailer) fail cleanly.
        assert_eq!(open_block(&Payload::from_vec(vec![1, 2])), Err(DecodeError));
        assert_eq!(open_block(&Payload::size_only(2)), Err(DecodeError));

        // An empty payload seals to just its trailer and verifies.
        let e = seal_block(&Payload::empty());
        assert_eq!(e.len(), CRC_TRAILER_BYTES);
        assert_eq!(open_block(&e).unwrap().len(), 0);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = Request::MemCpyH2D {
            dst: DevicePtr(1),
            len: 2,
            protocol: WireProtocol::Pipeline { block: 3 },
        }
        .encode();
        for cut in 0..bytes.len() {
            assert_eq!(Request::decode(&bytes[..cut]), Err(DecodeError));
        }
    }

    #[test]
    fn zero_block_pipeline_rejected() {
        let mut bytes = Request::MemCpyH2D {
            dst: DevicePtr(1),
            len: 2,
            protocol: WireProtocol::Pipeline { block: 1 },
        }
        .encode();
        // Overwrite the block-size field (last 8 bytes) with zero.
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(Request::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn wire_protocol_block_math() {
        let p = WireProtocol::Pipeline { block: 128 << 10 };
        assert_eq!(p.block_count(0), 0);
        assert_eq!(p.block_count(1), 1);
        assert_eq!(p.block_count(128 << 10), 1);
        assert_eq!(p.block_count((128 << 10) + 1), 2);
        assert_eq!(p.block_count(64 << 20), 512);
        let n = WireProtocol::Naive;
        assert_eq!(n.block_count(64 << 20), 1);
        assert_eq!(n.block_size(64 << 20), 64 << 20);
        // Block larger than the message: clamp to the message.
        assert_eq!(p.block_size(1000), 1000);
    }

    #[test]
    fn crc_incremental_matches_one_shot() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        // Splitting the input at every awkward boundary must not change
        // the checksum — this is what lets segment chains seal without
        // reassembly.
        for cut in [0usize, 1, 3, 7, 8, 9, 63, 64, 1000, 4095, 4096] {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finalize(), crc32(&data), "cut at {cut}");
        }
        // Many tiny updates, including empty ones.
        let mut c = Crc32::new();
        for chunk in data.chunks(5) {
            c.update(chunk);
            c.update(&[]);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn four_threads_seal_and_open_at_once() {
        // One helper serves the process: while it works for one thread the
        // other three find its slot taken and fold on their own core, and
        // every trailer must still be the serial CRC.
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..24usize {
                        let len = SPLIT_MIN + (usize::from(t) * 24 + i) * 4099 % (448 << 10);
                        let body: Vec<u8> = (0..len).map(|j| (j * 31 + i) as u8 ^ t).collect();
                        let p = Payload::from_vec(body.clone());
                        let sealed = seal_block(&p);
                        assert_eq!(sealed.segments()[1][..], crc32(&body).to_le_bytes());
                        assert_eq!(open_block(&sealed), Ok(p), "thread {t}, block {i}");
                        assert_eq!(open_block(&sealed.corrupted()), Err(DecodeError));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("a sealing thread panicked");
        }
    }

    #[test]
    fn sealing_shares_body_bytes_without_copying() {
        let p = Payload::from_vec((0..1000u32).map(|i| i as u8).collect());
        let body_ptr = p.expect_bytes().as_ptr();
        let sealed = seal_block(&p);
        // The sealed chain's first segment is the original body buffer,
        // not a copy; only the 4-byte trailer is new.
        assert_eq!(sealed.segments().len(), 2);
        assert_eq!(sealed.segments()[0].as_ptr(), body_ptr);
        assert_eq!(sealed.segments()[1].len(), CRC_TRAILER_BYTES as usize);
        // Opening hands the same buffer back as a zero-copy slice.
        let opened = open_block(&sealed).unwrap();
        assert_eq!(opened.expect_bytes().as_ptr(), body_ptr);
    }

    #[test]
    fn sealed_chains_verify_across_segment_boundaries() {
        // A chained payload (e.g. a re-sliced pipeline block) seals and
        // opens without reassembly.
        let a: Vec<u8> = (0..100u8).collect();
        let b: Vec<u8> = (100..180u8).collect();
        let chained = Payload::chain(vec![Bytes::from(a.clone()), Bytes::from(b.clone())]);
        let opened = open_block(&seal_block(&chained)).unwrap();
        let mut want = a;
        want.extend_from_slice(&b);
        assert_eq!(opened.to_bytes().as_ref(), want.as_slice());

        // Even a trailer split across segments verifies: re-slicing a
        // sealed chain can put the split anywhere.
        let sealed = seal_block(&Payload::from_vec(want.clone()));
        let flat = sealed.to_bytes();
        for cut in [1u64, 100, 179, 180, 181, 182, 183] {
            // Built by hand: `Payload::chain` would join the two views.
            let rechained =
                Payload::Chain(vec![flat.slice(..cut as usize), flat.slice(cut as usize..)]);
            let opened = open_block(&rechained).expect("split sealed block must verify");
            assert_eq!(opened.to_bytes().as_ref(), want.as_slice());
        }
    }

    #[test]
    fn control_batches_roundtrip() {
        let resp = Response {
            status: Status::Ok,
            value: 0xBEEF,
        }
        .encode();
        let ack = StreamAck {
            seq: 17,
            status: Status::Ok,
            value: 3,
        }
        .encode();
        let batch = ControlBatch {
            entries: vec![
                (ac_tags::response_tag(9, 0).0, Bytes::from(resp.clone())),
                (ac_tags::stream_ack_tag(4).0, Bytes::from(ack.clone())),
            ],
        };
        let bytes = Bytes::from(batch.encode());
        let back = ControlBatch::decode(&bytes).unwrap();
        assert_eq!(back, batch);
        // Entries decode as zero-copy slices of the incoming frame.
        assert_eq!(back.entries[0].1.as_ref(), resp.as_slice());
        assert_eq!(
            Response::decode(&back.entries[0].1),
            Ok(Response {
                status: Status::Ok,
                value: 0xBEEF,
            })
        );
        assert_eq!(StreamAck::decode(&back.entries[1].1).unwrap().seq, 17);
        // Empty batches are legal on the wire.
        let empty = ControlBatch { entries: vec![] };
        assert_eq!(
            ControlBatch::decode(&Bytes::from(empty.encode())),
            Ok(empty)
        );
    }

    #[test]
    fn damaged_control_batches_fail_cleanly() {
        let batch = ControlBatch {
            entries: vec![(7, Bytes::from(vec![1, 2, 3])), (8, Bytes::new())],
        };
        let bytes = batch.encode();
        // Truncation at every length fails without panicking.
        for cut in 0..bytes.len() {
            assert_eq!(
                ControlBatch::decode(&Bytes::from(bytes[..cut].to_vec())),
                Err(DecodeError),
                "truncation at {cut}"
            );
        }
        // Any flipped bit (marker, count, tag, length prefix, body,
        // trailer) is caught by the frame CRC.
        for i in 0..bytes.len() {
            let mut v = bytes.clone();
            v[i] ^= 0x04;
            assert_eq!(
                ControlBatch::decode(&Bytes::from(v)),
                Err(DecodeError),
                "flip at {i}"
            );
        }
        // An oversized length prefix that still passes the CRC (re-sealed
        // here to isolate the structural check) must fail, not panic.
        let mut v = bytes[..bytes.len() - 4].to_vec();
        v[9..13].copy_from_slice(&u32::MAX.to_le_bytes()); // first entry len
        let resealed = {
            let c = crc32(&v);
            v.extend_from_slice(&c.to_le_bytes());
            v
        };
        assert_eq!(
            ControlBatch::decode(&Bytes::from(resealed)),
            Err(DecodeError)
        );
    }

    #[test]
    fn arena_encoding_is_byte_identical_and_reuses_storage() {
        let frame = RequestFrame {
            op_id: 1,
            attempt: 0,
            epoch: 4,
            deadline: None,
            req: Request::Launch {
                name: "fill".into(),
                args: vec![KernelArg::Ptr(DevicePtr(64)), KernelArg::F64(0.5)],
                grid: (2, 2, 1),
                block: (32, 1, 1),
            },
        };
        let mut arena = EncodeBuf::new();
        let first = frame.encode_into(&mut arena);
        assert_eq!(first.as_ref(), frame.encode().as_slice());
        let base = first.as_ptr() as usize;
        drop(first);
        // Same arena, frame dropped: the next encode reuses the storage.
        let second = frame.encode_into(&mut arena);
        assert_eq!(second.as_ptr() as usize, base, "arena was not reclaimed");
        assert_eq!(second.as_ref(), frame.encode().as_slice());
    }
}
