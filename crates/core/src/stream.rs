//! Asynchronous in-order command streams.
//!
//! The paper's API (§IV) pays one request/response round trip per call, so
//! a kernel launch through the legacy path costs three round trips and a
//! QR panel step serializes a dozen ~2 µs stalls onto the critical path —
//! exactly the latency-bound region where Fig. 9/10 show remote GPUs
//! losing to a local one at small N. [`AcStream`] removes those stalls:
//! commands (`mem_alloc` / `mem_set` / `mem_cpy_h2d` / fused launch /
//! `mem_free`) are *enqueued* fire-and-forget under a sliding in-flight
//! window, and errors are deferred — latched sticky on the stream and
//! surfaced at [`AcStream::synchronize`] or event waits, like a CUDA
//! stream.
//!
//! Two implementations sit behind the one API:
//!
//! * **Wire mode** — over a bare [`RemoteAccelerator`] (no retry policy,
//!   lossless fabric): queued commands are packed into
//!   [`StreamBatch`] frames — one fabric
//!   message, one cumulative ack for the whole batch — and allocations
//!   return client-minted stream-virtual pointers
//!   ([`MemAllocAt`](crate::proto::Request::MemAllocAt)) so even
//!   `mem_alloc` needs no round trip. Batches ride the ordinary request
//!   tag, so the fabric's non-overtaking guarantee serializes them against
//!   the client's plain requests: a dependent `mem_cpy_d2h` or peer
//!   transfer only needs [`AcStream::flush`] before it, not a full drain.
//! * **Direct mode** — over a local GPU, a retry-framed remote, or a
//!   [`Resilient`](AcDevice::Resilient) failover session: commands are
//!   deferred in a host-side queue and executed one at a time at flush
//!   points through the underlying device. This keeps the retry plane's
//!   op-id dedupe and the failover command log correct — a replay after an
//!   accelerator death reproduces exactly the stream's submission order.
//!
//! In both modes the observable semantics are the same: commands execute
//! in submission order, completion is only guaranteed after a successful
//! `synchronize`, and the first failure sticks to the stream.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use dacc_fabric::payload::Payload;
use dacc_sim::time::SimTime;
use dacc_vgpu::kernel::{KernelArg, LaunchConfig};
use dacc_vgpu::memory::DevicePtr;

use crate::api::{AcDevice, AcError, RemoteAccelerator};
use crate::proto::{ac_tags, Request, Status, StreamAck, StreamBatch, STREAM_VIRT_BASE};

/// Command-stream tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Maximum commands submitted but not yet acknowledged (wire mode) or
    /// deferred but not yet executed (direct mode). Enqueueing past the
    /// window blocks until credits return — the sliding-window flow
    /// control that bounds daemon-side queueing.
    pub window: usize,
    /// Maximum commands packed into one batch frame; a full pending queue
    /// is flushed eagerly.
    pub max_batch: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 64,
            max_batch: 16,
        }
    }
}

/// A recorded point in a stream's command sequence (see
/// [`AcStream::record_event`]).
#[derive(Clone, Copy, Debug)]
pub struct StreamEvent {
    /// Number of commands enqueued on the stream before the event.
    seq: u64,
}

/// Stream-virtual allocations are aligned like real ones.
const VIRT_ALIGN: u64 = 256;
/// Address space reserved per stream, so streams sharing one daemon
/// session never mint overlapping regions.
const VIRT_STRIDE: u64 = 1 << 34;

/// An asynchronous, in-order command stream onto one accelerator.
///
/// Clones share state (like the underlying device handles); a stream is a
/// single logical command queue and is not meant to be driven from
/// concurrent tasks.
#[derive(Clone)]
pub struct AcStream {
    imp: Imp,
}

#[derive(Clone)]
enum Imp {
    Wire(Rc<Wire>),
    Direct(Rc<Direct>),
}

impl AcStream {
    /// Open a stream onto `dev`. Bare remote accelerators (no retry
    /// policy) get wire batching; everything else gets the order-preserving
    /// direct queue.
    pub fn new(dev: &AcDevice, cfg: StreamConfig) -> Self {
        match dev {
            AcDevice::Remote(r) if r.config().retry.is_none() => AcStream {
                imp: Imp::Wire(Rc::new(Wire::new(r.clone(), cfg))),
            },
            _ => AcStream {
                imp: Imp::Direct(Rc::new(Direct {
                    dev: dev.clone(),
                    cfg,
                    st: RefCell::new(DirectState::default()),
                })),
            },
        }
    }

    /// True when this stream batches commands on the wire (bare remote
    /// fast path) rather than deferring them host-side.
    pub fn is_wire(&self) -> bool {
        matches!(self.imp, Imp::Wire(_))
    }

    /// Enqueue an allocation of `len` bytes; the returned pointer is
    /// usable immediately in later commands (and in plain requests from
    /// the same front-end after a [`flush`](Self::flush)).
    ///
    /// Wire streams mint a stream-virtual pointer (≥
    /// [`STREAM_VIRT_BASE`]) that the daemon translates on every use;
    /// direct streams execute the deferred queue and allocate eagerly, so
    /// the call blocks but ordering is preserved.
    pub async fn mem_alloc(&self, len: u64) -> Result<DevicePtr, AcError> {
        match &self.imp {
            Imp::Wire(w) => {
                let virt = {
                    let mut st = w.st.borrow_mut();
                    let v = st.next_virt;
                    st.next_virt += (len.max(1) + VIRT_ALIGN - 1) & !(VIRT_ALIGN - 1);
                    v
                };
                w.enqueue(Request::MemAllocAt { virt, len }, None).await?;
                Ok(DevicePtr(virt))
            }
            Imp::Direct(d) => {
                d.drain().await;
                d.sticky()?;
                d.dev.mem_alloc(len).await
            }
        }
    }

    /// Enqueue a free of `ptr` (a base pointer from
    /// [`mem_alloc`](Self::mem_alloc)).
    pub async fn mem_free(&self, ptr: DevicePtr) -> Result<(), AcError> {
        match &self.imp {
            Imp::Wire(w) => w.enqueue(Request::MemFree { ptr }, None).await,
            Imp::Direct(d) => d.enqueue(DirectOp::Free(ptr)).await,
        }
    }

    /// Enqueue a fill of `len` device bytes at `ptr` with `byte`.
    pub async fn mem_set(&self, ptr: DevicePtr, len: u64, byte: u8) -> Result<(), AcError> {
        match &self.imp {
            Imp::Wire(w) => w.enqueue(Request::MemSet { ptr, len, byte }, None).await,
            Imp::Direct(d) => d.enqueue(DirectOp::Set(ptr, len, byte)).await,
        }
    }

    /// Enqueue a host→device copy of `src` to `dst`.
    pub async fn mem_cpy_h2d(&self, src: &Payload, dst: DevicePtr) -> Result<(), AcError> {
        match &self.imp {
            Imp::Wire(w) => {
                let protocol = w.accel.config().h2d.wire(src.len());
                w.enqueue(
                    Request::MemCpyH2D {
                        dst,
                        len: src.len(),
                        protocol,
                    },
                    Some(src.clone()),
                )
                .await
            }
            Imp::Direct(d) => d.enqueue(DirectOp::H2D(src.clone(), dst)).await,
        }
    }

    /// Enqueue a fused kernel launch.
    pub async fn launch(
        &self,
        name: &str,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<(), AcError> {
        match &self.imp {
            Imp::Wire(w) => {
                w.enqueue(
                    Request::Launch {
                        name: name.to_owned(),
                        args: args.to_vec(),
                        grid: cfg.grid,
                        block: cfg.block,
                    },
                    None,
                )
                .await
            }
            Imp::Direct(d) => {
                d.enqueue(DirectOp::Launch(name.to_owned(), cfg, args.to_vec()))
                    .await
            }
        }
    }

    /// Record the stream's current position; [`wait_event`](Self::wait_event)
    /// on the returned event completes once every command enqueued before
    /// this point has executed.
    pub fn record_event(&self) -> StreamEvent {
        let seq = match &self.imp {
            Imp::Wire(w) => w.st.borrow().enqueued,
            Imp::Direct(d) => d.st.borrow().enqueued,
        };
        StreamEvent { seq }
    }

    /// Wait until every command enqueued before `event` was recorded has
    /// executed, surfacing the stream's sticky error if any command so far
    /// has failed. An event recorded on another stream waits for at most
    /// the commands this stream has enqueued.
    pub async fn wait_event(&self, event: StreamEvent) -> Result<(), AcError> {
        match &self.imp {
            Imp::Wire(w) => {
                w.send_batch().await;
                let until = event.seq.min(w.st.borrow().enqueued);
                while w.st.borrow().acked < until {
                    w.await_ack().await;
                }
                w.sticky()
            }
            Imp::Direct(d) => {
                if d.st.borrow().completed < event.seq {
                    d.drain().await;
                }
                d.sticky()
            }
        }
    }

    /// Submit everything queued so far without waiting for completion.
    ///
    /// After a flush, plain requests from the same front-end (e.g.
    /// `mem_cpy_d2h`, peer transfers) are ordered after the stream's
    /// commands: wire batches share the request tag's non-overtaking
    /// order, and direct streams have already executed the queue.
    pub async fn flush(&self) -> Result<(), AcError> {
        match &self.imp {
            Imp::Wire(w) => {
                w.sticky()?;
                w.accel.telemetry().count("stream.flushes", 1);
                w.send_batch().await;
                Ok(())
            }
            Imp::Direct(d) => {
                d.drain().await;
                d.sticky()
            }
        }
    }

    /// Drain the stream: submit everything, wait for all acks, and surface
    /// the sticky error (the first failure among all commands so far).
    /// The error stays latched — a failed stream keeps failing.
    pub async fn synchronize(&self) -> Result<(), AcError> {
        match &self.imp {
            Imp::Wire(w) => {
                w.send_batch().await;
                while !w.st.borrow().inflight.is_empty() {
                    w.await_ack().await;
                }
                w.sticky()
            }
            Imp::Direct(d) => {
                d.drain().await;
                d.sticky()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire mode
// ---------------------------------------------------------------------------

struct Wire {
    accel: RemoteAccelerator,
    id: u32,
    cfg: StreamConfig,
    st: RefCell<WireState>,
}

struct WireState {
    /// Commands queued but not yet packed into a batch.
    pending: Vec<Request>,
    /// H2D payloads for pending copies, in command order.
    pending_data: Vec<Payload>,
    /// Unacked batches: (last sequence number, command count, submit time).
    inflight: VecDeque<(u64, u32, SimTime)>,
    /// Commands ever enqueued (== next sequence number to assign).
    enqueued: u64,
    /// Commands sent in batches (== next batch's `first_seq`).
    sent: u64,
    /// Commands covered by received acks.
    acked: u64,
    /// Next stream-virtual address to mint.
    next_virt: u64,
    /// First deferred failure; latched until the stream is dropped.
    sticky: Option<AcError>,
}

impl Wire {
    fn new(accel: RemoteAccelerator, cfg: StreamConfig) -> Self {
        let id = accel.alloc_op() as u32 & 0x0FFF_FFFF;
        let st = WireState {
            pending: Vec::new(),
            pending_data: Vec::new(),
            inflight: VecDeque::new(),
            enqueued: 0,
            sent: 0,
            acked: 0,
            next_virt: STREAM_VIRT_BASE + id as u64 * VIRT_STRIDE,
            sticky: None,
        };
        Wire {
            accel,
            id,
            cfg,
            st: RefCell::new(st),
        }
    }

    fn sticky(&self) -> Result<(), AcError> {
        match &self.st.borrow().sticky {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    async fn enqueue(&self, req: Request, data: Option<Payload>) -> Result<(), AcError> {
        debug_assert!(req.batchable());
        // Fail fast once the stream has a latched error; the caller will
        // see the full picture at `synchronize`.
        self.sticky()?;
        // Window flow control: credits cover pending + unacked commands.
        loop {
            let (outstanding, have_inflight, have_pending) = {
                let st = self.st.borrow();
                (
                    (st.enqueued - st.acked) as usize,
                    !st.inflight.is_empty(),
                    !st.pending.is_empty(),
                )
            };
            if outstanding < self.cfg.window.max(1) {
                break;
            }
            if have_inflight {
                self.await_ack().await;
            } else if have_pending {
                self.send_batch().await;
            } else {
                break;
            }
        }
        {
            let mut st = self.st.borrow_mut();
            if let Some(p) = data {
                st.pending_data.push(p);
            }
            st.pending.push(req);
            st.enqueued += 1;
        }
        self.accel.telemetry().count("stream.cmds", 1);
        if self.st.borrow().pending.len() >= self.cfg.max_batch.max(1) {
            self.send_batch().await;
        }
        Ok(())
    }

    /// Pack the pending queue into one batch frame and put it on the wire,
    /// followed by the data blocks of any queued H2D copies (same order,
    /// stream data tag).
    async fn send_batch(&self) {
        let handle = self.accel.ep.fabric().handle().clone();
        let (frame, data) = {
            let mut st = self.st.borrow_mut();
            if st.pending.is_empty() {
                return;
            }
            let cmds = std::mem::take(&mut st.pending);
            let data = std::mem::take(&mut st.pending_data);
            let n = cmds.len() as u64;
            let batch = StreamBatch {
                stream: self.id,
                first_seq: st.sent,
                epoch: self.accel.epoch,
                cmds,
            };
            let last_seq = st.sent + n - 1;
            st.inflight.push_back((last_seq, n as u32, handle.now()));
            st.sent += n;
            (batch, data)
        };
        let id = self.id;
        let ncmds = frame.cmds.len();
        self.accel.trace("stream.batch", || {
            format!("stream {id}: {ncmds} cmds from seq {}", frame.first_seq)
        });
        let tele = self.accel.telemetry();
        tele.count("stream.batches", 1);
        let data_bytes: u64 = data.iter().map(|p| p.len()).sum();
        let _submit_span = tele
            .span(&handle, "stream.submit", || {
                format!("stream {id}: {ncmds} cmds from seq {}", frame.first_seq)
            })
            .bytes(data_bytes)
            .op(frame.first_seq);
        let bytes = frame.encode_into(&mut self.accel.enc.borrow_mut());
        self.accel
            .telemetry()
            .count("wire.encode_bytes", bytes.len() as u64);
        self.accel
            .ep
            .send(
                self.accel.daemon,
                ac_tags::REQUEST,
                Payload::from_bytes(bytes),
            )
            .await;
        let dtag = ac_tags::stream_data_tag(self.id);
        for payload in data {
            let len = payload.len();
            let block = self.accel.config().h2d.wire(len).block_size(len);
            let mut offset = 0u64;
            while offset < len {
                let bs = block.min(len - offset);
                self.accel
                    .ep
                    .send(
                        self.accel.daemon,
                        dtag,
                        self.accel.seal_counted(&payload.slice(offset, bs)),
                    )
                    .await;
                offset += bs;
            }
        }
    }

    /// Receive one cumulative ack, returning its credits to the window and
    /// latching the batch's first error (if any) as the sticky error.
    async fn await_ack(&self) {
        let (last_seq, n, submitted) = {
            let mut st = self.st.borrow_mut();
            st.inflight.pop_front().expect("no in-flight batch to ack")
        };
        let env = self
            .accel
            .ep
            .recv(
                Some(self.accel.daemon),
                Some(ac_tags::stream_ack_tag(self.id)),
            )
            .await;
        let tele = self.accel.telemetry();
        let id = self.id;
        tele.span_at(
            "stream.ack_window",
            || format!("stream {id}: batch through seq {last_seq} ({n} cmds)"),
            submitted,
            self.accel.ep.fabric().handle().now(),
            None,
            Some(last_seq),
        );
        tele.count("stream.acks", 1);
        let mut st = self.st.borrow_mut();
        st.acked += n as u64;
        match env.payload.bytes().and_then(|b| StreamAck::decode(b).ok()) {
            None => {
                if st.sticky.is_none() {
                    st.sticky = Some(AcError::Protocol);
                }
            }
            Some(ack) if ack.seq != last_seq => {
                if st.sticky.is_none() {
                    st.sticky = Some(AcError::Protocol);
                }
            }
            Some(ack) => {
                if ack.status != Status::Ok && st.sticky.is_none() {
                    st.sticky = Some(AcError::Remote(ack.status));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Direct mode
// ---------------------------------------------------------------------------

struct Direct {
    dev: AcDevice,
    cfg: StreamConfig,
    st: RefCell<DirectState>,
}

#[derive(Default)]
struct DirectState {
    queue: VecDeque<DirectOp>,
    enqueued: u64,
    completed: u64,
    sticky: Option<AcError>,
}

enum DirectOp {
    Free(DevicePtr),
    Set(DevicePtr, u64, u8),
    H2D(Payload, DevicePtr),
    Launch(String, LaunchConfig, Vec<KernelArg>),
}

impl Direct {
    fn sticky(&self) -> Result<(), AcError> {
        match &self.st.borrow().sticky {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    async fn enqueue(&self, op: DirectOp) -> Result<(), AcError> {
        self.sticky()?;
        let depth = {
            let mut st = self.st.borrow_mut();
            st.queue.push_back(op);
            st.enqueued += 1;
            st.queue.len()
        };
        // Bound deferral: past the window, execute before returning.
        if depth >= self.cfg.window.max(1) {
            self.drain().await;
        }
        Ok(())
    }

    /// Execute the deferred queue strictly in submission order through the
    /// underlying device. Over a `Resilient` session this is what keeps
    /// the failover command log identical to the stream order — a replay
    /// after an accelerator death reproduces the submission sequence.
    async fn drain(&self) {
        loop {
            let op = {
                let mut st = self.st.borrow_mut();
                if st.sticky.is_some() {
                    // A failed stream stops executing; drop what's queued
                    // (it would have observed the failed state anyway).
                    let dropped = st.queue.len() as u64;
                    st.queue.clear();
                    st.completed += dropped;
                    return;
                }
                match st.queue.pop_front() {
                    Some(op) => op,
                    None => return,
                }
            };
            let result = match &op {
                DirectOp::Free(ptr) => self.dev.mem_free(*ptr).await,
                DirectOp::Set(ptr, len, byte) => self.dev.mem_set(*ptr, *len, *byte).await,
                DirectOp::H2D(payload, dst) => self.dev.mem_cpy_h2d(payload, *dst).await,
                DirectOp::Launch(name, cfg, args) => self.dev.launch(name, *cfg, args).await,
            };
            let mut st = self.st.borrow_mut();
            st.completed += 1;
            if let Err(e) = result {
                if st.sticky.is_none() {
                    st.sticky = Some(e);
                }
            }
        }
    }
}

impl AcDevice {
    /// Open an asynchronous command stream onto this device (see
    /// [`AcStream`]).
    pub fn stream(&self, cfg: StreamConfig) -> AcStream {
        AcStream::new(self, cfg)
    }
}
