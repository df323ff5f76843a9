//! The back-end daemon running on every accelerator (§IV).
//!
//! Receives requests from front-ends over the fabric and executes them on
//! the local GPU through the (virtual) CUDA driver API. The daemon is one
//! task: its loop serves one request at a time. Bulk copies use either the
//! naive protocol — receive everything into main memory, then one DMA — or
//! the pipelined protocol: blocks are received into a bounded ring of
//! GPUDirect pinned buffers and DMA'd onward while later blocks are still
//! on the wire. Either way the data moves as one block train
//! (`train.rs`) that the loop awaits once: blocks are records
//! advanced by their receives, copies and sends, not tasks.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::mpi::{Endpoint, Rank, Tag};
use dacc_fabric::payload::Payload;
use dacc_sim::fault::ProcessFault;
use dacc_sim::prelude::*;
use dacc_vgpu::device::{GpuError, VirtualGpu};
use dacc_vgpu::kernel::{KernelArg, KernelError, LaunchConfig};
use dacc_vgpu::memory::{DevicePtr, MemError};
use dacc_vgpu::pinned::PinnedPool;

use crate::proto::{
    ac_tags, AnyRequest, ControlBatch, Request, Response, Status, StreamAck, WireProtocol,
    STREAM_VIRT_BASE,
};
use crate::train::{Sink, Source, Spec, Train};

/// Daemon tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// CPU cost to decode and dispatch one request.
    pub request_cost: SimDuration,
    /// CPU cost per pipeline block (progressing MPI, posting the DMA).
    /// This sits between a block's arrival and the posting of the next
    /// receive, so it shows up as the per-block wire gap the paper blames
    /// for small-block overhead at large message sizes.
    pub per_block_cost: SimDuration,
    /// Number of pinned buffers in the GPUDirect ring.
    pub pinned_depth: usize,
    /// Size of each pinned buffer (must cover the largest pipeline block).
    pub pinned_buffer: u64,
    /// Whether GPUDirect NIC/GPU buffer sharing is enabled; when off, every
    /// block pays a host staging copy.
    pub gpudirect: bool,
    /// Number of block receives posted ahead during pipelined H2D
    /// transfers. With 1 (the paper-era behaviour) each block's rendezvous
    /// clear-to-send waits for the previous block's arrival, leaving a
    /// per-block wire gap; larger values pre-issue CTSs and close the gap
    /// (bounded by `pinned_depth`).
    pub recv_prepost: usize,
    /// How long to wait for each data-phase message before aborting the
    /// operation with [`Status::Timeout`]. `None` (the default) waits
    /// forever, which is correct on a lossless fabric; runs with injected
    /// message drops must set this or a lost block wedges the daemon.
    pub data_timeout: Option<SimDuration>,
    /// Coalesce small control messages — terminal responses and stream
    /// acks — bound for the same peer into one
    /// [`ControlBatch`] frame when several are
    /// staged in the same service window. Off by default: batching changes
    /// fabric message counts, so archived virtual-time results stay
    /// pinned unless a run opts in.
    ///
    /// Under fault injection, batching widens the blast radius of a
    /// single drop/corrupt fault from one control message to a whole
    /// batch (the fabric discards a damaged [`ControlBatch`] wholesale),
    /// so runs that inject faults should only enable it together with a
    /// front-end retry policy and [`DaemonConfig::data_timeout`] —
    /// otherwise a front-end awaiting a discarded response hangs forever.
    /// [`Cluster::set_fault_hook`](crate::cluster::Cluster::set_fault_hook)
    /// traces a `config.warn` event when this combination is detected.
    pub ctrl_batch: bool,
    /// Bounded-run-queue admission control (the overload plane). `None`
    /// (the default) keeps the legacy unbounded queue: every arrival is
    /// eventually served, message counts and ordering are untouched, and
    /// archived virtual-time results stay pinned. With a config set, the
    /// daemon drains the fabric queue each service iteration, drops
    /// deadline-expired requests before decode, and sheds arrivals past
    /// `max_queue` with [`Status::Overloaded`] fast-rejects under
    /// per-tenant max-min fair share (see
    /// [`dacc_sched::shed_overflow`]).
    pub admission: Option<AdmissionConfig>,
}

/// Tuning for the daemon's bounded run-queue (see
/// [`DaemonConfig::admission`]).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum requests held in the run-queue; arrivals past this are
    /// shed (per-tenant fair share, latest deadlines first) with a
    /// [`Status::Overloaded`] fast-reject — far cheaper for the sender
    /// than discovering the overload by timeout.
    pub max_queue: u32,
    /// Retry-after hint stamped into each fast-reject's `value` (nanos),
    /// pacing the sender's next attempt.
    pub retry_after: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue: 16,
            retry_after: SimDuration::from_micros(200),
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            request_cost: SimDuration::from_micros(3),
            per_block_cost: SimDuration::from_nanos(400),
            pinned_depth: 4,
            pinned_buffer: 1 << 20,
            gpudirect: true,
            recv_prepost: 1,
            data_timeout: None,
            ctrl_batch: false,
            admission: None,
        }
    }
}

/// Daemon activity counters, returned when the daemon shuts down.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonStats {
    /// Requests served (including the final shutdown).
    pub requests: u64,
    /// Payload bytes received from front-ends (H2D + peer).
    pub bytes_in: u64,
    /// Payload bytes sent to front-ends (D2H + peer).
    pub bytes_out: u64,
    /// Peak host-memory footprint of receive buffers. The naive protocol
    /// needs the full message; the pipeline needs `depth × buffer` no matter
    /// the message size (§V.A).
    pub host_buffer_peak: u64,
    /// Kernels launched on behalf of front-ends.
    pub kernels: u64,
    /// Command-stream batch frames received (each counts once in
    /// `requests`).
    pub stream_batches: u64,
    /// Individual commands executed out of stream batches.
    pub stream_cmds: u64,
}

/// State shared between a daemon's request loop and its heartbeat agent
/// (a sibling task on the same simulated process, spawned by the cluster
/// builder when the health plane is enabled).
///
/// The agent learns the ARM's current **fence** from heartbeat acks and
/// raises it here; the request loop then rejects any framed request or
/// stream batch stamped with an older assignment epoch
/// ([`Status::StaleEpoch`]) before it can touch device state, and resets
/// its per-client sessions so the next holder starts clean. In the other
/// direction the loop counts executed operations so the agent can report
/// the accelerator busy — the ARM renews the holder's lease implicitly on
/// that traffic.
#[derive(Clone, Default)]
pub struct DaemonHealth(Rc<RefCell<DaemonHealthState>>);

#[derive(Default)]
struct DaemonHealthState {
    fence: u64,
    busy_ops: u64,
    reset: bool,
    alive: bool,
    started: bool,
    queue_depth: u32,
}

impl DaemonHealth {
    /// Fresh shared state (fence 0 — nothing is fenced).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current fence: framed traffic stamped with an epoch below this
    /// is rejected. Epoch 0 (unstamped/legacy) is never fenced.
    pub fn fence(&self) -> u64 {
        self.0.borrow().fence
    }

    /// Raise the fence (monotonic). A raise also schedules a session
    /// reset in the request loop so the evicted holder's kernel bindings
    /// and stream regions cannot leak into the next assignment.
    pub fn raise_fence(&self, fence: u64) {
        let mut st = self.0.borrow_mut();
        if fence > st.fence {
            st.fence = fence;
            st.reset = true;
        }
    }

    /// Consume the pending session-reset flag.
    fn take_reset(&self) -> bool {
        std::mem::take(&mut self.0.borrow_mut().reset)
    }

    fn count_op(&self) {
        self.0.borrow_mut().busy_ops += 1;
    }

    /// Operations executed since the last call; the heartbeat agent
    /// reports this as the accelerator's busyness (implicit lease renewal).
    pub fn take_busy(&self) -> u64 {
        std::mem::take(&mut self.0.borrow_mut().busy_ops)
    }

    /// True while the request loop is running (between service start and
    /// shutdown/crash). The heartbeat agent stops beating when this drops.
    pub fn alive(&self) -> bool {
        self.0.borrow().alive
    }

    /// True once the request loop has started serving at least once.
    pub fn started(&self) -> bool {
        self.0.borrow().started
    }

    fn set_alive(&self, alive: bool) {
        let mut st = self.0.borrow_mut();
        st.alive = alive;
        st.started |= alive;
    }

    /// Run-queue depth last published by the request loop (0 when
    /// admission control is off). The heartbeat agent reports it to the
    /// ARM so placement can steer work away from backed-up accelerators.
    pub fn queue_depth(&self) -> u32 {
        self.0.borrow().queue_depth
    }

    /// Publish the current run-queue depth for the heartbeat agent.
    pub fn set_queue_depth(&self, depth: u32) {
        self.0.borrow_mut().queue_depth = depth;
    }
}

/// One live stream-virtual allocation from a client's command stream.
struct StreamRegion {
    virt: u64,
    len: u64,
    real: DevicePtr,
}

#[derive(Default)]
struct Session {
    kernel: Option<String>,
    args: Vec<KernelArg>,
    /// Stream-virtual allocations (see [`Request::MemAllocAt`]), translated
    /// on every use from this client.
    regions: Vec<StreamRegion>,
}

impl Session {
    /// Translate a possibly stream-virtual pointer to a real device pointer.
    fn resolve_ptr(&self, p: DevicePtr) -> Result<DevicePtr, Status> {
        if p.0 < STREAM_VIRT_BASE {
            return Ok(p);
        }
        self.regions
            .iter()
            .find(|r| p.0 >= r.virt && p.0 - r.virt < r.len.max(1))
            .map(|r| r.real.offset(p.0 - r.virt))
            .ok_or(Status::InvalidPointer)
    }

    /// Translate `p` and check that `len` bytes from there are allocated.
    fn resolve_region(
        &self,
        gpu: &VirtualGpu,
        p: DevicePtr,
        len: u64,
    ) -> Result<DevicePtr, Status> {
        let real = self.resolve_ptr(p)?;
        match gpu.mem().resolve(real, len) {
            Ok(_) => Ok(real),
            Err(e) => Err(status_of_gpu_error(&e.into())),
        }
    }

    /// Translate any stream-virtual pointer arguments for a kernel launch.
    fn resolve_args(&self, args: &[KernelArg]) -> Result<Vec<KernelArg>, Status> {
        args.iter()
            .map(|a| match a {
                KernelArg::Ptr(p) => self.resolve_ptr(*p).map(KernelArg::Ptr),
                other => Ok(*other),
            })
            .collect()
    }
}

pub(crate) fn status_of_gpu_error(e: &GpuError) -> Status {
    match e {
        GpuError::Mem(MemError::OutOfMemory { .. }) => Status::OutOfMemory,
        GpuError::Mem(MemError::InvalidPointer(_)) | GpuError::Mem(MemError::NotABase(_)) => {
            Status::InvalidPointer
        }
        GpuError::Mem(MemError::OutOfBounds { .. }) => Status::OutOfBounds,
        // Only numeric access raises it, and only kernel bodies, which run
        // in functional mode alone, make one.
        GpuError::Mem(MemError::SizeOnly(_)) => Status::KernelFailed,
        GpuError::Kernel(KernelError::UnknownKernel(_)) => Status::UnknownKernel,
        GpuError::Kernel(KernelError::BadArg(_)) => Status::BadArgs,
        GpuError::Kernel(KernelError::Mem(_)) => Status::OutOfBounds,
        GpuError::Kernel(KernelError::Failed(_)) => Status::KernelFailed,
    }
}

pub(crate) fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::MemAlloc { .. } => "MemAlloc",
        Request::MemFree { .. } => "MemFree",
        Request::MemCpyH2D { .. } => "MemCpyH2D",
        Request::MemCpyD2H { .. } => "MemCpyD2H",
        Request::KernelCreate { .. } => "KernelCreate",
        Request::KernelSetArgs { .. } => "KernelSetArgs",
        Request::KernelRun { .. } => "KernelRun",
        Request::PeerSend { .. } => "PeerSend",
        Request::PeerRecv { .. } => "PeerRecv",
        Request::MemSet { .. } => "MemSet",
        Request::Ping => "Ping",
        Request::Shutdown => "Shutdown",
        Request::Launch { .. } => "Launch",
        Request::MemAllocAt { .. } => "MemAllocAt",
        Request::Snapshot { .. } => "Snapshot",
        Request::Restore { .. } => "Restore",
    }
}

/// True for operations whose bulk-data phase must be re-executed on a
/// replayed request (the front-end re-drives the data messages); all other
/// operations answer a replay from the dedupe cache without re-executing.
fn has_data_phase(req: &Request) -> bool {
    matches!(
        req,
        Request::MemCpyH2D { .. }
            | Request::MemCpyD2H { .. }
            | Request::PeerSend { .. }
            | Request::PeerRecv { .. }
            | Request::Snapshot { .. }
            | Request::Restore { .. }
    )
}

/// Run a back-end daemon on `ep`, driving `gpu`, until a front-end sends
/// `Shutdown`. Returns the daemon's activity counters.
///
/// The daemon reads its tracer and fault hook from its fabric when it
/// starts. Every request is traced as a `daemon.request` event (`<Kind>
/// from rankN`), and the hook is consulted once per request: `Crash`
/// makes the daemon vanish mid-service (no response, no tear-down), `Hang`
/// stalls it. Framed requests (see [`crate::proto::RequestFrame`]) are
/// deduplicated against the last completed operation per front-end, so a
/// retried request whose response was lost is not executed twice.
/// `health` is shared with the daemon's heartbeat agent: the fence it
/// adopts rejects stale-epoch traffic ([`Status::StaleEpoch`]) and resets
/// sessions, and executed operations are counted for implicit lease
/// renewal.
pub async fn run_daemon(
    ep: Endpoint,
    gpu: VirtualGpu,
    config: DaemonConfig,
    health: DaemonHealth,
) -> DaemonStats {
    health.set_alive(true);
    let handle = ep.fabric().handle().clone();
    let tele = ep.fabric().telemetry();
    let tracer = ep.fabric().tracer();
    let fault = ep.fabric().fault_hook();
    let me = ep.rank();
    let pool = PinnedPool::new(
        &handle,
        config.pinned_depth,
        config.pinned_buffer,
        config.gpudirect,
        gpu.params().staging_rate,
    );
    let path = DataPath {
        handle: &handle,
        ep: &ep,
        gpu: &gpu,
        pool: &pool,
        config: &config,
    };
    let mut stats = DaemonStats::default();
    let mut sessions: HashMap<Rank, Session> = HashMap::new();
    // Last completed framed operation per front-end: (op_id, response).
    let mut completed: HashMap<Rank, (u64, Response)> = HashMap::new();
    let mut coal = Coalescer::new(config.ctrl_batch);
    // Bounded run-queue (admission control only; empty and untouched on
    // the legacy path).
    let mut runq: std::collections::VecDeque<dacc_fabric::mpi::Envelope> =
        std::collections::VecDeque::new();

    loop {
        // The batching window closes when the request queue goes idle:
        // anything staged while requests kept arriving back-to-back is
        // flushed (coalesced per peer) before the daemon blocks. Every
        // staged message is owed to a peer that is *waiting* on it, but an
        // empty queue only guarantees progress globally — one tenant's
        // lone staged response must not wait behind another tenant's
        // continuous stream, so `tick` additionally flushes any peer
        // whose staging sat idle for a bounded number of windows.
        coal.tick(&ep).await;
        if coal.has_staged() && ep.iprobe(None, Some(ac_tags::REQUEST)).is_none() {
            coal.flush_all(&ep).await;
        }
        let env = match config.admission {
            None => ep.recv(None, Some(ac_tags::REQUEST)).await,
            Some(adm) => {
                // Admission control: pull everything already queued on
                // the fabric into the run-queue, drop expired work, shed
                // past capacity, then serve the head.
                if runq.is_empty() {
                    runq.push_back(ep.recv(None, Some(ac_tags::REQUEST)).await);
                }
                while ep.iprobe(None, Some(ac_tags::REQUEST)).is_some() {
                    runq.push_back(ep.recv(None, Some(ac_tags::REQUEST)).await);
                }
                // Deadline-expired requests are dropped before decode:
                // their senders have already given up, so even a reject
                // would be wasted work. Only frames that opted into a
                // deadline stamp can expire.
                let now_ns = handle.now().as_nanos();
                let before = runq.len();
                runq.retain(|e| {
                    e.payload
                        .bytes()
                        .and_then(|b| crate::proto::RequestFrame::peek_deadline(b))
                        .is_none_or(|d| d > now_ns)
                });
                let expired = (before - runq.len()) as u64;
                if expired > 0 {
                    tele.count("daemon.expired", expired);
                    tracer.record(&handle, "daemon.expired", || {
                        format!("{me} dropped {expired} expired requests undecoded")
                    });
                }
                let cap = adm.max_queue as usize;
                if runq.len() > cap {
                    let entries: Vec<(u32, u64)> = runq
                        .iter()
                        .map(|e| {
                            let d = e
                                .payload
                                .bytes()
                                .and_then(|b| crate::proto::RequestFrame::peek_deadline(b))
                                .unwrap_or(u64::MAX);
                            (e.src.0 as u32, d)
                        })
                        .collect();
                    let shed = dacc_sched::shed_overflow(&entries, cap);
                    tele.count("daemon.shed", shed.len() as u64);
                    let mut shed = shed.into_iter().peekable();
                    let mut kept = std::collections::VecDeque::with_capacity(cap);
                    for (i, e) in runq.drain(..).enumerate() {
                        if shed.peek() != Some(&i) {
                            kept.push_back(e);
                            continue;
                        }
                        shed.next();
                        // Fast-reject without decoding the body: peek the
                        // op/attempt ids so the reply lands on the
                        // attempt-scoped tag the sender is awaiting.
                        let tag = e
                            .payload
                            .bytes()
                            .and_then(|b| crate::proto::RequestFrame::peek_reject_ids(b))
                            .map_or(ac_tags::RESPONSE, |(op, att)| {
                                ac_tags::response_tag(op, att)
                            });
                        let src = e.src;
                        tracer.record(&handle, "daemon.shed", || {
                            format!("{me} sheds request from {src} (queue over {cap})")
                        });
                        coal.respond_now(
                            &ep,
                            src,
                            tag,
                            Response {
                                status: Status::Overloaded,
                                value: adm.retry_after.as_nanos(),
                            },
                        )
                        .await;
                    }
                    runq = kept;
                }
                health.set_queue_depth(runq.len() as u32);
                match runq.pop_front() {
                    Some(env) => env,
                    // Everything drained was expired or shed.
                    None => continue,
                }
            }
        };
        let t_arrive = handle.now();
        let cn = env.src;
        if health.take_reset() {
            // The ARM reclaimed this accelerator (fence raised): drop every
            // client's kernel bindings, stream regions, and dedupe entries
            // so the next holder starts on a clean device.
            sessions.clear();
            completed.clear();
            let fence = health.fence();
            tracer.record(&handle, "daemon.reset", || {
                format!("{me} resets sessions at fence {fence}")
            });
            tele.count("daemon.reset", 1);
        }
        if let Some(hook) = &fault {
            match hook.process_state(me.0, handle.now()) {
                ProcessFault::Healthy => {}
                ProcessFault::Hang(d) => {
                    tracer.record(&handle, "fault.hang", || format!("{me} stalls for {d}"));
                    handle.delay(d).await;
                }
                ProcessFault::Crash => {}
            }
            // Re-check after a possible stall: a hang may straddle the
            // crash time.
            if hook.process_state(me.0, handle.now()) == ProcessFault::Crash {
                tracer.record(&handle, "fault.crash", || format!("{me} dies"));
                health.set_alive(false);
                return stats;
            }
        }
        // Deadline-stamped work that expired while queued (or during a
        // stall above) is dropped before decode: the sender has already
        // stopped waiting. Undecorated traffic has no stamp and is never
        // dropped.
        if let Some(d) = env
            .payload
            .bytes()
            .and_then(|b| crate::proto::RequestFrame::peek_deadline(b))
        {
            if handle.now().as_nanos() >= d {
                tele.count("daemon.expired", 1);
                tracer.record(&handle, "daemon.expired", || {
                    format!("{me} drops expired request from {cn} undecoded")
                });
                continue;
            }
        }
        stats.requests += 1;
        let (framed, op_id, attempt, epoch, req) =
            match env.payload.bytes().map(|b| AnyRequest::decode(b)) {
                Some(Ok(AnyRequest::Bare(r))) => (false, 0, 0, 0, r),
                Some(Ok(AnyRequest::Framed(f))) => (true, f.op_id, f.attempt, f.epoch, f.req),
                Some(Ok(AnyRequest::Batch(batch))) => {
                    // Command-stream batch: one message, in-order execution,
                    // one cumulative ack. The whole batch pays the per-request
                    // dispatch cost once — that is the point of batching.
                    handle.delay(config.request_cost).await;
                    stats.stream_batches += 1;
                    let ncmds = batch.cmds.len();
                    let fence = health.fence();
                    if batch.epoch != 0 && batch.epoch < fence {
                        // The sender's grant was revoked: reject the whole
                        // batch with one cumulative StaleEpoch ack and never
                        // touch device state.
                        let bepoch = batch.epoch;
                        tracer.record(&handle, "daemon.fenced", || {
                            format!(
                                "StreamBatch[{ncmds}] from {cn}: epoch {bepoch} < fence {fence}"
                            )
                        });
                        tele.count("daemon.fenced", 1);
                        let ack = StreamAck {
                            seq: batch.first_seq.wrapping_add(ncmds as u64).wrapping_sub(1),
                            status: Status::StaleEpoch,
                            value: 0,
                        };
                        coal.ack(&ep, cn, ac_tags::stream_ack_tag(batch.stream), ack)
                            .await;
                        continue;
                    }
                    tracer.record(&handle, "daemon.request", || {
                        format!("StreamBatch[{ncmds}] from {cn}")
                    });
                    tele.span_at(
                        "daemon.decode",
                        || format!("StreamBatch[{ncmds}] from {cn}"),
                        t_arrive,
                        handle.now(),
                        Some(env.payload.len()),
                        None,
                    );
                    tele.count("daemon.stream.batches", 1);
                    let exec_span = tele.span(&handle, "daemon.execute", || {
                        format!("StreamBatch[{ncmds}] from {cn}")
                    });
                    let data_tag = ac_tags::stream_data_tag(batch.stream);
                    let session = sessions.entry(cn).or_default();
                    let mut first_err: Option<Status> = None;
                    let mut last_value = 0u64;
                    let mut seq = batch.first_seq;
                    for cmd in batch.cmds {
                        stats.stream_cmds += 1;
                        health.count_op();
                        tele.count("daemon.stream.cmds", 1);
                        handle.delay(config.per_block_cost).await;
                        tracer.record(&handle, "daemon.stream.cmd", || {
                            format!("{} seq {} from {}", request_kind(&cmd), seq, cn)
                        });
                        // Non-batchable commands are rejected individually, but
                        // the rest of the batch still executes so the stream's
                        // data-tag pairing never skews; the client latches the
                        // first error as its sticky stream error.
                        let resp = if cmd.batchable() {
                            exec_batchable(&path, &mut stats, session, cn, cmd, data_tag).await
                        } else {
                            Response::err(Status::Malformed)
                        };
                        if resp.status != Status::Ok && first_err.is_none() {
                            first_err = Some(resp.status);
                        }
                        last_value = resp.value;
                        seq = seq.wrapping_add(1);
                    }
                    let ack = StreamAck {
                        seq: seq.wrapping_sub(1),
                        status: first_err.unwrap_or(Status::Ok),
                        value: last_value,
                    };
                    drop(exec_span);
                    let ack_seq = ack.seq;
                    let ack_span = tele
                        .span(&handle, "daemon.ack", || {
                            format!("StreamAck seq {ack_seq} to {cn}")
                        })
                        .op(ack_seq);
                    coal.ack(&ep, cn, ac_tags::stream_ack_tag(batch.stream), ack)
                        .await;
                    drop(ack_span);
                    continue;
                }
                _ => {
                    coal.respond(&ep, cn, ac_tags::RESPONSE, Response::err(Status::Malformed))
                        .await;
                    continue;
                }
            };
        let resp_tag = if framed {
            ac_tags::response_tag(op_id, attempt)
        } else {
            ac_tags::RESPONSE
        };
        let data_tag = if framed {
            ac_tags::data_tag(op_id, attempt)
        } else {
            ac_tags::DATA
        };
        handle.delay(config.request_cost).await;
        tracer.record(&handle, "daemon.request", || {
            format!("{} from {}", request_kind(&req), cn)
        });
        tele.span_at(
            "daemon.decode",
            || format!("{} from {}", request_kind(&req), cn),
            t_arrive,
            handle.now(),
            Some(env.payload.len()),
            framed.then_some(op_id),
        );

        // Fence stale holders before the dedupe cache and before any
        // execution: an op stamped with a pre-reclaim epoch must never
        // mutate the (possibly reassigned) device.
        let fence = health.fence();
        if framed && epoch != 0 && epoch < fence {
            tracer.record(&handle, "daemon.fenced", || {
                format!(
                    "{} op {op_id} from {cn}: epoch {epoch} < fence {fence}",
                    request_kind(&req)
                )
            });
            tele.count("daemon.fenced", 1);
            coal.respond(&ep, cn, resp_tag, Response::err(Status::StaleEpoch))
                .await;
            continue;
        }

        // A replayed operation (same op id as the last one this front-end
        // completed) is answered from the cache unless its data phase must
        // be re-driven; data-phase ops are idempotent re-executions.
        if framed && !has_data_phase(&req) {
            if let Some((last_op, last_resp)) = completed.get(&cn) {
                if *last_op == op_id {
                    tracer.record(&handle, "daemon.dedupe", || {
                        format!("replay op {op_id} attempt {attempt} from {cn}")
                    });
                    tele.count("daemon.dedupe", 1);
                    tele.instant(&handle, "daemon.dedupe", || {
                        format!("replay op {op_id} attempt {attempt} from {cn}")
                    });
                    coal.respond(&ep, cn, resp_tag, *last_resp).await;
                    continue;
                }
            }
        }

        health.count_op();
        let exec_span = tele
            .span(&handle, "daemon.execute", || {
                format!("{} from {}", request_kind(&req), cn)
            })
            .op(op_id);
        let resp = if req.batchable() {
            let session = sessions.entry(cn).or_default();
            exec_batchable(&path, &mut stats, session, cn, req, data_tag).await
        } else {
            let session = sessions.entry(cn).or_default();
            match req {
                Request::MemCpyD2H { src, len, protocol } => {
                    // Validate before streaming so the front-end knows
                    // whether data messages will follow the response.
                    let valid = session.resolve_region(&gpu, src, len).and_then(|real| {
                        path.fits(protocol, len)
                            .then_some(real)
                            .ok_or(Status::Malformed)
                    });
                    match valid {
                        Err(st) => coal.respond(&ep, cn, resp_tag, Response::err(st)).await,
                        Ok(real) => {
                            // Pre-data response: the front-end awaits it
                            // before its data phase — never stage it.
                            coal.respond_now(&ep, cn, resp_tag, Response::ok()).await;
                            path.d2h(&mut stats, cn, real, len, protocol, data_tag)
                                .await;
                        }
                    }
                    continue;
                }
                Request::Snapshot { regions, block } => {
                    // Serialize the named device regions to the front-end
                    // over the pipelined block protocol, exactly like a
                    // multi-region D2H: validate everything first so the
                    // front-end knows from the response whether data blocks
                    // will follow, then stream region by region.
                    let protocol = WireProtocol::Pipeline { block };
                    let resolved: Result<Vec<_>, _> = regions
                        .iter()
                        .map(|&(virt, len)| {
                            let real = session.resolve_region(&gpu, DevicePtr(virt), len);
                            real.map(|real| (real, len))
                        })
                        .collect();
                    let fits = regions.iter().all(|&(_, len)| path.fits(protocol, len));
                    match resolved {
                        Err(st) => coal.respond(&ep, cn, resp_tag, Response::err(st)).await,
                        Ok(_) if !fits => {
                            coal.respond(&ep, cn, resp_tag, Response::err(Status::Malformed))
                                .await;
                        }
                        Ok(resolved) => {
                            // Pre-data response (see MemCpyD2H above).
                            let total = regions.iter().map(|&(_, len)| len).sum();
                            let ready = Response {
                                status: Status::Ok,
                                value: total,
                            };
                            coal.respond_now(&ep, cn, resp_tag, ready).await;
                            for (real, len) in resolved {
                                path.d2h(&mut stats, cn, real, len, protocol, data_tag)
                                    .await;
                            }
                        }
                    }
                    continue;
                }
                Request::Restore { regions, block } => {
                    // Deserialize previously snapshotted regions back into
                    // device memory: a multi-region H2D. After the first
                    // failure the remaining regions' blocks are already in
                    // flight, so drain them to keep the channel clean and
                    // report the first failure.
                    let protocol = WireProtocol::Pipeline { block };
                    let mut resp = Response::ok();
                    for &(virt, len) in &regions {
                        let real = match session.resolve_ptr(DevicePtr(virt)) {
                            Ok(real) if resp.status == Status::Ok => real,
                            failed => {
                                path.drain(cn, data_tag, len, protocol).await;
                                if let Err(st) = failed {
                                    resp = Response::err(st);
                                }
                                continue;
                            }
                        };
                        let r = path
                            .h2d(&mut stats, cn, real, len, protocol, data_tag)
                            .await;
                        if r.status != Status::Ok {
                            resp = r;
                        }
                    }
                    resp
                }
                Request::PeerSend {
                    src,
                    len,
                    peer,
                    block,
                } => match session.resolve_region(&gpu, src, len) {
                    Err(st) => Response::err(st),
                    Ok(real) => {
                        let (to, protocol) =
                            (Rank(peer as usize), WireProtocol::Pipeline { block });
                        path.d2h(&mut stats, to, real, len, protocol, ac_tags::PEER_DATA)
                            .await;
                        Response::ok()
                    }
                },
                Request::PeerRecv {
                    dst,
                    len,
                    from,
                    block,
                } => {
                    let (from, protocol) = (Rank(from as usize), WireProtocol::Pipeline { block });
                    match session.resolve_ptr(dst) {
                        Err(st) => {
                            // The peer's data is already in flight; drain it
                            // to keep the channel clean.
                            path.drain(from, ac_tags::PEER_DATA, len, protocol).await;
                            Response::err(st)
                        }
                        Ok(real) => {
                            let tag = ac_tags::PEER_DATA;
                            path.h2d(&mut stats, from, real, len, protocol, tag).await
                        }
                    }
                }
                Request::Ping => Response::ok(),
                Request::Shutdown => {
                    // Nothing staged may outlive the daemon.
                    coal.flush_all(&ep).await;
                    coal.respond_now(&ep, cn, resp_tag, Response::ok()).await;
                    health.set_alive(false);
                    return stats;
                }
                _ => unreachable!("batchable requests handled above"),
            }
        };
        drop(exec_span);
        // Remember the outcome so a replayed request (lost response) is
        // answered without re-execution; timeouts and corrupt data phases
        // must re-execute.
        if framed && resp.status != Status::Timeout && resp.status != Status::Corrupt {
            completed.insert(cn, (op_id, resp));
        }
        let ack_span = tele
            .span(&handle, "daemon.ack", || {
                format!("{:?} to {}", resp.status, cn)
            })
            .op(op_id);
        coal.respond(&ep, cn, resp_tag, resp).await;
        drop(ack_span);
    }
}

/// Execute one [`Request::batchable`] command for `cn`'s session: the shared
/// path between ordinary request/response service and in-order stream
/// batches. Stream-virtual pointers (≥ [`STREAM_VIRT_BASE`]) are translated
/// through the session's region table on every use.
async fn exec_batchable(
    path: &DataPath<'_>,
    stats: &mut DaemonStats,
    session: &mut Session,
    cn: Rank,
    req: Request,
    data_tag: Tag,
) -> Response {
    let gpu = path.gpu;
    match req {
        Request::MemAlloc { len } => match gpu.alloc(len).await {
            Ok(ptr) => Response {
                status: Status::Ok,
                value: ptr.0,
            },
            Err(e) => Response::err(status_of_gpu_error(&e)),
        },
        Request::MemAllocAt { virt, len } => {
            let span = len.max(1);
            let overlaps = session
                .regions
                .iter()
                .any(|r| virt < r.virt + r.len.max(1) && r.virt < virt + span);
            if virt < STREAM_VIRT_BASE || overlaps {
                return Response::err(Status::Malformed);
            }
            match gpu.alloc(len).await {
                Ok(real) => {
                    session.regions.push(StreamRegion { virt, len, real });
                    Response {
                        status: Status::Ok,
                        value: real.0,
                    }
                }
                Err(e) => Response::err(status_of_gpu_error(&e)),
            }
        }
        Request::MemFree { ptr } => {
            if ptr.0 >= STREAM_VIRT_BASE {
                // Stream-virtual frees must name a region base exactly.
                let Some(i) = session.regions.iter().position(|r| r.virt == ptr.0) else {
                    return Response::err(Status::InvalidPointer);
                };
                let region = session.regions.swap_remove(i);
                match gpu.free(region.real).await {
                    Ok(()) => Response::ok(),
                    Err(e) => Response::err(status_of_gpu_error(&e)),
                }
            } else {
                match gpu.free(ptr).await {
                    Ok(()) => Response::ok(),
                    Err(e) => Response::err(status_of_gpu_error(&e)),
                }
            }
        }
        Request::MemSet { ptr, len, byte } => match session.resolve_ptr(ptr) {
            Err(st) => Response::err(st),
            Ok(real) => match gpu.memset(real, len, byte).await {
                Ok(()) => Response::ok(),
                Err(e) => Response::err(status_of_gpu_error(&e)),
            },
        },
        Request::MemCpyH2D { dst, len, protocol } => match session.resolve_ptr(dst) {
            Err(st) => {
                // The payload is already in flight; drain it so the next
                // command's data phase pairs correctly.
                path.drain(cn, data_tag, len, protocol).await;
                Response::err(st)
            }
            Ok(real) => path.h2d(stats, cn, real, len, protocol, data_tag).await,
        },
        Request::KernelCreate { name } => {
            if gpu.registry().contains(&name) {
                session.kernel = Some(name);
                session.args.clear();
                Response::ok()
            } else {
                Response::err(Status::UnknownKernel)
            }
        }
        Request::KernelSetArgs { args } => {
            session.args = args;
            Response::ok()
        }
        Request::KernelRun { grid, block } => match session.kernel.clone() {
            None => Response::err(Status::NoKernelBound),
            Some(name) => {
                let args = match session.resolve_args(&session.args) {
                    Ok(args) => args,
                    Err(st) => return Response::err(st),
                };
                let cfg = LaunchConfig { grid, block };
                match gpu.launch(&name, cfg, &args).await {
                    Ok(()) => {
                        stats.kernels += 1;
                        Response::ok()
                    }
                    Err(e) => Response::err(status_of_gpu_error(&e)),
                }
            }
        },
        Request::Launch {
            name,
            args,
            grid,
            block,
        } => {
            if !gpu.registry().contains(&name) {
                return Response::err(Status::UnknownKernel);
            }
            // Mirror the 3-call path's session effects so fused and legacy
            // launches are interchangeable mid-session.
            session.kernel = Some(name.clone());
            session.args = args;
            let args = match session.resolve_args(&session.args) {
                Ok(args) => args,
                Err(st) => return Response::err(st),
            };
            let cfg = LaunchConfig { grid, block };
            match gpu.launch(&name, cfg, &args).await {
                Ok(()) => {
                    stats.kernels += 1;
                    Response::ok()
                }
                Err(e) => Response::err(status_of_gpu_error(&e)),
            }
        }
        _ => Response::err(Status::Malformed),
    }
}

/// Hard cap on entries staged per peer before a forced flush: keeps a
/// coalesced frame comfortably eager-sized (nobody posts receives on the
/// CTRL tag, so the unbundler only ever sees eager packets).
const CTRL_BATCH_MAX: usize = 8;

/// Service windows a peer's staging may sit idle (no new entries) before
/// it is force-flushed. Bounds how long one tenant's lone response can be
/// deferred while *other* tenants keep the request queue busy: a
/// continuously-streaming front-end appends to its own staging every
/// window and still batches up to [`CTRL_BATCH_MAX`], but a blocked peer
/// stops appending and drains within this many serviced requests.
const CTRL_STAGE_MAX_AGE: u64 = 2;

/// Per-peer staged control entries plus the service window of the most
/// recent append (for the staleness bound).
struct Staged {
    last_append: u64,
    entries: Vec<(u32, Bytes)>,
}

/// Outgoing control-message path: encodes responses and stream acks
/// through one reusable arena, and — when `ctrl_batch` is on — stages
/// those bound for the same peer so several can ride one
/// [`ControlBatch`] fabric message.
struct Coalescer {
    enabled: bool,
    enc: EncodeBuf,
    /// Service-window counter; advanced by [`Coalescer::tick`] once per
    /// daemon loop iteration.
    window: u64,
    staged: HashMap<Rank, Staged>,
}

impl Coalescer {
    fn new(enabled: bool) -> Self {
        Coalescer {
            enabled,
            enc: EncodeBuf::new(),
            window: 0,
            staged: HashMap::new(),
        }
    }

    /// Send a response: immediately when batching is off, staged otherwise.
    async fn respond(&mut self, ep: &Endpoint, to: Rank, tag: Tag, resp: Response) {
        let bytes = resp.encode_into(&mut self.enc);
        ep.fabric()
            .telemetry()
            .count("wire.encode_bytes", bytes.len() as u64);
        self.dispatch(ep, to, tag, bytes).await;
    }

    /// Send a response that must leave now even under batching (pre-data
    /// responses the peer awaits before its data phase, shutdown acks).
    async fn respond_now(&mut self, ep: &Endpoint, to: Rank, tag: Tag, resp: Response) {
        let bytes = resp.encode_into(&mut self.enc);
        ep.fabric()
            .telemetry()
            .count("wire.encode_bytes", bytes.len() as u64);
        ep.send(to, tag, Payload::from_bytes(bytes)).await;
    }

    /// Send a stream ack: immediately when batching is off, staged otherwise.
    async fn ack(&mut self, ep: &Endpoint, to: Rank, tag: Tag, ack: StreamAck) {
        let bytes = ack.encode_into(&mut self.enc);
        ep.fabric()
            .telemetry()
            .count("wire.encode_bytes", bytes.len() as u64);
        self.dispatch(ep, to, tag, bytes).await;
    }

    async fn dispatch(&mut self, ep: &Endpoint, to: Rank, tag: Tag, bytes: Bytes) {
        if !self.enabled {
            ep.send(to, tag, Payload::from_bytes(bytes)).await;
            return;
        }
        let window = self.window;
        let staged = self.staged.entry(to).or_insert_with(|| Staged {
            last_append: window,
            entries: Vec::new(),
        });
        staged.last_append = window;
        staged.entries.push((tag.0, bytes));
        if staged.entries.len() >= CTRL_BATCH_MAX {
            self.flush_peer(ep, to).await;
        }
    }

    fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Close one service window: advance the window clock and flush any
    /// peer whose staging has not grown for [`CTRL_STAGE_MAX_AGE`]
    /// windows. Called once per daemon loop iteration so a staged entry
    /// can never wait unboundedly behind other peers' traffic — the
    /// queue-idle flush in the main loop only guarantees progress when
    /// the *whole* queue drains.
    async fn tick(&mut self, ep: &Endpoint) {
        self.window += 1;
        if self.staged.is_empty() {
            return;
        }
        let mut stale: Vec<Rank> = self
            .staged
            .iter()
            .filter(|(_, s)| self.window - s.last_append >= CTRL_STAGE_MAX_AGE)
            .map(|(r, _)| *r)
            .collect();
        stale.sort_unstable_by_key(|r| r.0); // deterministic flush order
        for peer in stale {
            self.flush_peer(ep, peer).await;
        }
    }

    /// Flush everything staged — called when the request queue goes idle
    /// (the batching window closes) and before daemon shutdown.
    async fn flush_all(&mut self, ep: &Endpoint) {
        let mut peers: Vec<Rank> = self.staged.keys().copied().collect();
        peers.sort_unstable_by_key(|r| r.0); // deterministic flush order
        for peer in peers {
            self.flush_peer(ep, peer).await;
        }
    }

    async fn flush_peer(&mut self, ep: &Endpoint, to: Rank) {
        let Some(Staged { entries, .. }) = self.staged.remove(&to) else {
            return;
        };
        if entries.len() == 1 {
            // A lone message gains nothing from batching: send it on its
            // own tag, byte-identical to the unbatched path.
            let (tag, bytes) = entries.into_iter().next().expect("len checked");
            ep.send(to, Tag(tag), Payload::from_bytes(bytes)).await;
            return;
        }
        let tele = ep.fabric().telemetry();
        tele.count("wire.ctrl_batched", entries.len() as u64);
        let batch = ControlBatch { entries };
        let bytes = batch.encode_into(&mut self.enc);
        tele.count("wire.encode_bytes", bytes.len() as u64);
        ep.send(to, ac_tags::CTRL, Payload::from_bytes(bytes)).await;
    }
}

/// What a transfer's data phase needs of the daemon: its block trains
/// ([`crate::train`]) — the pinned ring and the per-block CPU cost for a
/// pipelined transfer, one block of the whole length and neither for a
/// naive one, the data timeout as every block's deadline — and the drain of
/// a rejected transfer's blocks.
struct DataPath<'a> {
    handle: &'a SimHandle,
    ep: &'a Endpoint,
    gpu: &'a VirtualGpu,
    pool: &'a PinnedPool,
    config: &'a DaemonConfig,
}

impl DataPath<'_> {
    /// A pipelined transfer's blocks must fit a pinned buffer.
    fn fits(&self, protocol: WireProtocol, len: u64) -> bool {
        match protocol {
            WireProtocol::Pipeline { .. } => protocol.block_size(len) <= self.config.pinned_buffer,
            WireProtocol::Naive => true,
        }
    }

    /// Discard the in-flight data messages of a rejected transfer, giving
    /// up per message after the data timeout (lost blocks never arrive).
    async fn drain(&self, from: Rank, tag: Tag, len: u64, protocol: WireProtocol) {
        for _ in 0..protocol.block_count(len) {
            let received = match self.config.data_timeout {
                Some(t) => self.ep.recv_timeout(Some(from), Some(tag), t).await,
                None => Some(self.ep.recv(Some(from), Some(tag)).await),
            };
            if received.is_none() {
                break;
            }
        }
    }

    /// The train of a `len`-byte transfer under `protocol`. Damaged blocks
    /// are received and dropped, never moved on.
    fn spec(&self, len: u64, protocol: WireProtocol) -> Spec {
        let naive = protocol == WireProtocol::Naive;
        Spec {
            regions: vec![len],
            protocol,
            prepost: 1,
            window: usize::MAX,
            deadline: self.config.data_timeout,
            pool: (!naive).then(|| self.pool.clone()),
            cost: if naive {
                SimDuration::ZERO
            } else {
                self.config.per_block_cost
            },
            daemon: true,
        }
    }

    /// Host memory the transfer holds: the whole message for the naive
    /// protocol, the ring for the pipeline, whatever the size (§V.A).
    fn held(&self, spec: &Spec, len: u64) -> u64 {
        match spec.pool {
            Some(_) => self.config.pinned_buffer * self.config.pinned_depth as u64,
            None => len,
        }
    }

    /// Receive `len` bytes from `from` (tagged `tag`) and move them to
    /// device memory at `dst`.
    async fn h2d(
        &self,
        stats: &mut DaemonStats,
        from: Rank,
        dst: DevicePtr,
        len: u64,
        protocol: WireProtocol,
        tag: Tag,
    ) -> Response {
        // Pre-validate the destination and the block size. On failure the
        // data messages are already in flight; drain and discard them to
        // keep the channel clean.
        let valid = self.gpu.mem().resolve(dst, len).map(|_| ());
        if let Err(e) = valid {
            self.drain(from, tag, len, protocol).await;
            return Response::err(status_of_gpu_error(&e.into()));
        }
        if !self.fits(protocol, len) {
            self.drain(from, tag, len, protocol).await;
            return Response::err(Status::Malformed);
        }
        if len == 0 {
            return Response::ok();
        }
        stats.bytes_in += len;
        let mut spec = self.spec(len, protocol);
        if self.config.data_timeout.is_none() {
            // Posting a receive pre-issues its rendezvous clear-to-send, so
            // `prepost` decides how much of the handshake overlaps earlier
            // blocks' data. A timed train posts one at a time, so that a
            // lost block aborts the transfer instead of wedging the daemon;
            // the front-end sees `Timeout` and retries it under a fresh
            // attempt tag.
            spec.prepost = self
                .config
                .recv_prepost
                .max(1)
                .min(self.config.pinned_depth);
        }
        let (held, naive) = (self.held(&spec, len), spec.pool.is_none());
        let (gpu, ptr) = (self.gpu.clone(), dst);
        let ep = self.ep.clone();
        let source = Source::Wire { ep, from, tag };
        let moved = Train::start(self.handle, spec, source, Sink::Device { gpu, ptr }).await;
        // A naive message is held whole once it is in.
        if !naive || moved != Err(Status::Timeout) {
            stats.host_buffer_peak = stats.host_buffer_peak.max(held);
        }
        match moved {
            Ok(_) => Response::ok(),
            Err(status) => Response::err(status),
        }
    }

    /// Stream `len` device bytes at `src` to `to` (tagged `tag`).
    async fn d2h(
        &self,
        stats: &mut DaemonStats,
        to: Rank,
        src: DevicePtr,
        len: u64,
        protocol: WireProtocol,
        tag: Tag,
    ) {
        if len == 0 {
            return;
        }
        stats.bytes_out += len;
        let spec = self.spec(len, protocol);
        stats.host_buffer_peak = stats.host_buffer_peak.max(self.held(&spec, len));
        let (gpu, ptr) = (self.gpu.clone(), src);
        let ep = self.ep.clone();
        let sink = Sink::Wire { ep, to, tag };
        // A send the receiver never cleared is given up: the receiver has
        // abandoned this attempt.
        let _ = Train::start(self.handle, spec, Source::Device { gpu, ptr }, sink).await;
    }
}
