//! The back-end daemon running on every accelerator (§IV).
//!
//! Receives requests from front-ends over the fabric and executes them on
//! the local GPU through the (virtual) CUDA driver API. The daemon is one
//! task: its loop serves one request at a time. What it does with each
//! frame is decided by `DaemonState` (`daemon/state.rs`), a state
//! machine that never awaits; the loop here performs the effects it
//! returns. Bulk copies use either the naive protocol — receive everything
//! into main memory, then one DMA — or the pipelined protocol: blocks are
//! received into a bounded ring of GPUDirect pinned buffers and DMA'd
//! onward while later blocks are still on the wire. Either way the data
//! moves as one block train (`train.rs`) that the loop awaits once: blocks
//! are records advanced by their receives, copies and sends, not tasks.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dacc_fabric::machine::{perform, Io, Machine};
use dacc_fabric::mpi::{Endpoint, Rank, Tag};
use dacc_sim::fault::{FaultHook, ProcessFault};
use dacc_sim::prelude::*;
use dacc_telemetry::SpanGuard;
use dacc_vgpu::device::{GpuError, VirtualGpu};
use dacc_vgpu::kernel::KernelError;
use dacc_vgpu::memory::{DevicePtr, MemError};
use dacc_vgpu::pinned::PinnedPool;

use crate::proto::{ac_tags, Status, WireProtocol};
use crate::train::{Sink, Source, Spec, Train};

mod state;

use state::{Call, DaemonState, Fx, Note, Outcome};

/// CPU cost per pipeline block (progressing MPI, posting the DMA), and per
/// command of a stream batch. It sits between a block's arrival and the
/// posting of the next receive, so it shows up as the per-block wire gap
/// the paper blames for small-block overhead at large message sizes.
const PER_BLOCK_COST: SimDuration = SimDuration::from_nanos(400);

/// Size of each pinned buffer in the GPUDirect ring: a pipelined
/// transfer's blocks must fit one.
const PINNED_BUFFER: u64 = 1 << 20;

/// Daemon tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// CPU cost to decode and dispatch one request.
    pub request_cost: SimDuration,
    /// Number of pinned buffers in the GPUDirect ring.
    pub pinned_depth: usize,
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
    /// [`ControlBatch`](crate::proto::ControlBatch) frame when several are
    /// staged in the same service window. Off by default: batching changes
    /// fabric message counts, so archived virtual-time results stay
    /// pinned unless a run opts in.
    ///
    /// Under fault injection, batching widens the blast radius of a
    /// single drop/corrupt fault from one control message to a whole
    /// batch (the fabric discards a damaged `ControlBatch` wholesale),
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
            pinned_depth: 4,
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
    alive: bool,
    started: bool,
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

    /// Raise the fence (monotonic). The request loop resets its sessions
    /// at the next frame after a raise, so the evicted holder's kernel
    /// bindings and stream regions cannot leak into the next assignment.
    pub fn raise_fence(&self, fence: u64) {
        let mut st = self.0.borrow_mut();
        st.fence = st.fence.max(fence);
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
///
/// Every decision is `DaemonState`'s: this loop receives frames and
/// performs the effects the state returns, in order.
pub async fn run_daemon(
    ep: Endpoint,
    gpu: VirtualGpu,
    config: DaemonConfig,
    health: DaemonHealth,
) -> DaemonStats {
    health.set_alive(true);
    let io = Io::new(ep.clone());
    let (depth, rate) = (config.pinned_depth, gpu.params().staging_rate);
    let pool = PinnedPool::new(&io.handle, depth, PINNED_BUFFER, config.gpudirect, rate);
    let mut d = Driver {
        state: DaemonState::new(config, gpu.registry().clone()),
        fault: ep.fabric().fault_hook(),
        io,
        gpu,
        pool,
        health: health.clone(),
        spans: [None, None],
    };
    let fx = &mut Fx::new(d.io.records());
    let request = Some(ac_tags::REQUEST);
    while health.alive() {
        // The batching window closes when the request queue goes idle:
        // anything staged while requests kept arriving back-to-back is
        // flushed (coalesced per peer) before the daemon blocks; `tick`
        // also flushes any peer whose staging sat idle for a bounded
        // number of windows.
        d.state.tick(fx);
        perform(&mut d, fx).await;
        if d.state.has_staged() && ep.iprobe(None, request).is_none() {
            d.state.flush_all(fx);
            perform(&mut d, fx).await;
        }
        let env = if config.admission.is_none() {
            ep.recv(None, request).await
        } else {
            // Admission control: pull everything already queued on the
            // fabric into the run queue, admit, then serve its head.
            let runq = &mut d.state.runq;
            if runq.is_empty() {
                runq.push_back(ep.recv(None, request).await);
            }
            while ep.iprobe(None, request).is_some() {
                runq.push_back(ep.recv(None, request).await);
            }
            d.state.admit(d.io.handle.now(), fx);
            perform(&mut d, fx).await;
            // Everything drained may have been expired or shed.
            let Some(env) = d.state.runq.pop_front() else {
                continue;
            };
            env
        };
        d.state
            .apply(d.io.handle.now(), health.fence(), env.src, env.payload, fx);
        perform(&mut d, fx).await;
    }
    d.state.stats
}

/// The daemon's state machine and what performing its effects needs: the
/// GPU and the data path's block trains ([`crate::train`]), the handles
/// notes are rendered into, the fault hook, the heartbeat agent's shared
/// state, and the open `daemon.execute` and `daemon.ack` spans.
struct Driver {
    state: DaemonState,
    io: Io,
    gpu: VirtualGpu,
    pool: PinnedPool,
    fault: Option<Arc<dyn FaultHook>>,
    health: DaemonHealth,
    spans: [Option<SpanGuard>; 2],
}

impl Machine for Driver {
    type Call = Call;
    type Note = Note;
    type Outcome = Outcome;

    fn io(&self) -> &Io {
        &self.io
    }

    /// Perform one call: its value on success (an allocation's pointer,
    /// otherwise 0), or the failure's status.
    async fn run(&mut self, call: Call) -> Outcome {
        let (gpu, failed) = (&self.gpu, |e: GpuError| status_of_gpu_error(&e));
        match call {
            // Consult the fault hook: stall through a hang, then (a hang may
            // straddle the crash time) the daemon is gone on a crash.
            Call::Stall => {
                let Some(hook) = &self.fault else {
                    return Ok(0);
                };
                let (h, me, tracer) = (&self.io.handle, self.io.ep.rank(), &self.io.tracer);
                if let ProcessFault::Hang(d) = hook.process_state(me.0, h.now()) {
                    tracer.record(h, "fault.hang", || format!("{me} stalls for {d}"));
                    h.delay(d).await;
                }
                if hook.process_state(me.0, h.now()) == ProcessFault::Crash {
                    tracer.record(h, "fault.crash", || format!("{me} dies"));
                    self.health.set_alive(false);
                }
                Ok(0)
            }
            Call::Alloc(len) => gpu.alloc(len).await.map(|p| p.0).map_err(failed),
            Call::Free(ptr) => gpu.free(ptr).await.map(|()| 0).map_err(failed),
            Call::Set(ptr, len, byte) => {
                gpu.memset(ptr, len, byte).await.map(|()| 0).map_err(failed)
            }
            Call::Launch(name, args, cfg) => {
                gpu.launch(&name, cfg, &args).await.map_err(failed)?;
                self.state.stats.kernels += 1;
                Ok(0)
            }
            Call::Check(regions) => self.check_all(&regions),
            Call::H2D(from, tag, protocol, regions) => {
                // A region that is not translated and allocated, does not
                // fit, or follows a failure has its blocks in flight all
                // the same: drain them to keep the channel clean.
                let mut outcome = Ok(0);
                for &(real, len) in regions.iter() {
                    let go = match real {
                        Ok(real) if outcome.is_ok() => {
                            self.check(real, len, protocol).map(|()| Some(real))
                        }
                        failed => failed.map(|_| None),
                    };
                    let moved = match go {
                        Ok(Some(real)) => self.train(from, real, len, protocol, tag, true).await,
                        other => {
                            self.drain(from, tag, len, protocol).await;
                            other.map(|_| ())
                        }
                    };
                    if let Err(st) = moved {
                        outcome = Err(st);
                    }
                }
                outcome
            }
            Call::D2H(to, tag, protocol, regions) => {
                self.check_all(&regions)?;
                for &(real, len) in regions.iter() {
                    if let Ok(real) = real {
                        // A send the receiver never cleared is given up:
                        // the receiver has abandoned this attempt.
                        let _ = self.train(to, real, len, protocol, tag, false).await;
                    }
                }
                Ok(0)
            }
        }
    }

    /// Render a note into the tracer and telemetry, or act on a signal.
    fn note(&mut self, note: Note) {
        let (h, tele, tracer) = (&self.io.handle, &self.io.tele, &self.io.tracer);
        let me = self.io.ep.rank();
        match note {
            Note::Busy => self.health.count_op(),
            Note::Stop => self.health.set_alive(false),
            Note::Reset(fence) => {
                let label = || format!("{me} resets sessions at fence {fence}");
                tracer.record(h, "daemon.reset", label);
                tele.count("daemon.reset", 1);
            }
            Note::Expired(n, from) => {
                tele.count("daemon.expired", n);
                tracer.record(h, "daemon.expired", || match from {
                    None => format!("{me} dropped {n} expired requests undecoded"),
                    Some(cn) => format!("{me} drops expired request from {cn} undecoded"),
                });
            }
            Note::Shed(from, cap) => tracer.record(h, "daemon.shed", || {
                format!("{me} sheds request from {from} (queue over {cap})")
            }),
            Note::Request(what, from, arrived, bytes, op) => {
                let label = || format!("{what} from {from}");
                tracer.record(h, "daemon.request", label);
                tele.span_at("daemon.decode", label, arrived, h.now(), Some(bytes), op);
            }
            Note::Fenced(what, from, op, epoch, fence) => tracer.record(h, "daemon.fenced", || {
                let op = op.map_or(String::new(), |op| format!(" op {op}"));
                format!("{what}{op} from {from}: epoch {epoch} < fence {fence}")
            }),
            Note::Dedupe(from, op, attempt) => {
                let label = || format!("replay op {op} attempt {attempt} from {from}");
                tracer.record(h, "daemon.dedupe", label);
                tele.count("daemon.dedupe", 1);
                tele.instant(h, "daemon.dedupe", label);
            }
            Note::Cmd(from, kind, seq) => tracer.record(h, "daemon.stream.cmd", || {
                format!("{kind} seq {seq} from {from}")
            }),
            Note::Execute(what, from, op) => {
                let span = tele.span(h, "daemon.execute", || format!("{what} from {from}"));
                self.spans[0] = Some(match op {
                    Some(op) => span.op(op),
                    None => span,
                });
            }
            Note::Ack(to, status, op) => {
                let span = tele.span(h, "daemon.ack", || match status {
                    Some(status) => format!("{status:?} to {to}"),
                    None => format!("StreamAck seq {op} to {to}"),
                });
                self.spans[1] = Some(span.op(op));
            }
            Note::Executed => self.spans[0] = None,
            Note::Acked => self.spans[1] = None,
        }
    }

    /// Hand the state the outcome, reading the fence again: the dispatch
    /// cost may straddle a raise. A crashed daemon goes on with nothing.
    fn finish(&mut self, outcome: Option<Outcome>, fx: &mut Fx) {
        if self.health.alive() {
            let (now, fence) = (self.io.handle.now(), self.health.fence());
            (self.state).finish(now, fence, outcome.unwrap_or(Ok(0)), fx);
        }
    }
}

impl Driver {
    /// A region's destination must be allocated, and a pipelined
    /// transfer's blocks must fit a pinned buffer.
    fn check(&self, dst: DevicePtr, len: u64, protocol: WireProtocol) -> Result<(), Status> {
        let resolved = self.gpu.mem().resolve(dst, len);
        resolved.map_err(|e| status_of_gpu_error(&e.into()))?;
        let fits = state::fits(protocol, len);
        fits.then_some(()).ok_or(Status::Malformed)
    }

    /// Every region translated and allocated: the first failure.
    fn check_all(&self, regions: &[state::Region]) -> Outcome {
        for &(real, len) in regions {
            self.check(real?, len, WireProtocol::Naive)?;
        }
        Ok(0)
    }

    /// Discard the in-flight data messages of a rejected transfer, giving
    /// up per message after the data timeout (lost blocks never arrive).
    async fn drain(&self, from: Rank, tag: Tag, len: u64, protocol: WireProtocol) {
        for _ in 0..protocol.block_count(len) {
            let received = match self.state.config.data_timeout {
                Some(t) => self.io.ep.recv_timeout(Some(from), Some(tag), t).await,
                None => Some(self.io.ep.recv(Some(from), Some(tag)).await),
            };
            if received.is_none() {
                break;
            }
        }
    }

    /// Move `len` bytes between device memory at `ptr` and `peer` on
    /// `tag`, as one block train: in from the wire when `inbound`, out to
    /// it otherwise. A pipelined train uses the pinned ring and pays the
    /// per-block CPU cost; a naive one is one block of the whole length
    /// and pays neither. The data timeout is every block's deadline, and
    /// damaged blocks are received and dropped, never moved on.
    #[allow(clippy::too_many_arguments)]
    async fn train(
        &mut self,
        peer: Rank,
        ptr: DevicePtr,
        len: u64,
        protocol: WireProtocol,
        tag: Tag,
        inbound: bool,
    ) -> Result<(), Status> {
        if len == 0 {
            return Ok(());
        }
        let (cfg, naive) = (&self.state.config, protocol == WireProtocol::Naive);
        // Posting a receive pre-issues its rendezvous clear-to-send, so
        // `prepost` decides how much of the handshake overlaps earlier
        // blocks' data. A timed train posts one at a time, so that a lost
        // block aborts the transfer instead of wedging the daemon; the
        // front-end sees `Timeout` and retries it under a fresh attempt
        // tag.
        let prepost = match inbound && cfg.data_timeout.is_none() {
            true => cfg.recv_prepost.max(1).min(cfg.pinned_depth),
            false => 1,
        };
        let spec = Spec {
            regions: vec![len],
            protocol,
            prepost,
            window: usize::MAX,
            deadline: cfg.data_timeout,
            pool: (!naive).then(|| self.pool.clone()),
            cost: if naive {
                SimDuration::ZERO
            } else {
                PER_BLOCK_COST
            },
            daemon: true,
        };
        // Host memory held: the whole message for the naive protocol, the
        // ring for the pipeline, whatever the size (§V.A).
        let held = if naive {
            len
        } else {
            PINNED_BUFFER * cfg.pinned_depth as u64
        };
        let (gpu, ep, h) = (self.gpu.clone(), self.io.ep.clone(), &self.io.handle);
        let stats = &mut self.state.stats;
        let moved = if inbound {
            stats.bytes_in += len;
            let source = Source::Wire {
                ep,
                from: peer,
                tag,
            };
            Train::start(h, spec, source, Sink::Device { gpu, ptr }).await
        } else {
            stats.bytes_out += len;
            let sink = Sink::Wire { ep, to: peer, tag };
            Train::start(h, spec, Source::Device { gpu, ptr }, sink).await
        };
        // A naive message is held whole once it is in.
        if !inbound || !naive || moved != Err(Status::Timeout) {
            stats.host_buffer_peak = stats.host_buffer_peak.max(held);
        }
        moved.map(|_| ())
    }
}
