//! ARM-driven accelerator failover (§III-A).
//!
//! A [`FailoverSession`] wraps one granted accelerator behind the same
//! `mem_*` / `launch` surface as [`RemoteAccelerator`], but records every
//! state-changing operation in a command log. When the accelerator stops
//! answering ([`AcError::Unreachable`] from the retry plane), the session
//! reports the failure to the ARM, receives a replacement grant in the same
//! round trip, and **replays** the log against the replacement — allocations
//! re-issued, host→device copies re-driven from their retained payloads,
//! kernels re-run in order — so the in-flight job completes with degraded
//! timing instead of failing.
//!
//! Device pointers handed out by the session are *virtual*: the session
//! mints them from its own address space and translates on every call, so
//! pointers held by the application (including interior pointers formed by
//! raw [`DevicePtr::offset`] arithmetic, as the hybrid linear-algebra
//! routines do) survive re-allocation at different physical addresses on the
//! replacement device.
//!
//! An unbounded log would make recovery cost — and retained host memory —
//! grow with the job's whole history. A [`CheckpointPolicy`] bounds both:
//! once the logged tail passes the policy's thresholds the session
//! snapshots the live device regions (daemon `Snapshot` opcode, pipelined
//! block streaming), **truncates** the log, and drops the retained H2D
//! payloads. Failover then re-allocates the checkpointed regions on the
//! replacement, restores their bytes in one `Restore` stream, and replays
//! only the post-checkpoint tail — O(live state + tail) instead of
//! O(history). A proactive eviction notice additionally attempts a fresh
//! pre-copy snapshot while the old accelerator is still draining, so the
//! migration carries the newest possible state. A checkpoint that fails
//! mid-snapshot (daemon died under it) is simply discarded: the previous
//! checkpoint and the full log are kept, and recovery falls back to them.
//!
//! Remaining limitations, by design of the prototype: peer-to-peer
//! transfers are not covered (see
//! [`device_to_device`](crate::api::device_to_device)). The ARM control
//! plane itself is *not* assumed reliable: with `ClusterSpec::arm_ha` set
//! the manager is replicated to standbys and a crashed primary is replaced
//! with lease-safe continuity, so the failure report / replacement-grant
//! round trip this module depends on survives ARM death too (DESIGN §16).
//! Failure detection requires `config.retry` to be set — without it, calls
//! wait forever and failover never triggers.

use std::cell::RefCell;
use std::rc::Rc;

use dacc_arm::client::ArmClient;
use dacc_arm::proto::GrantedAccelerator;
use dacc_arm::state::{AcceleratorId, JobId};
use dacc_fabric::mpi::Endpoint;
use dacc_fabric::payload::Payload;
use dacc_vgpu::kernel::{KernelArg, LaunchConfig};
use dacc_vgpu::memory::DevicePtr;

use crate::api::{AcError, FrontendConfig, RemoteAccelerator};
use crate::proto::Status;

/// Base of the session's virtual device address space — far above any
/// physical device address the simulated GPUs hand out, so a virtual
/// pointer accidentally passed to a raw handle fails fast.
const VIRT_BASE: u64 = 1 << 48;
/// Alignment of minted virtual bases.
const VIRT_ALIGN: u64 = 256;
/// Cap on accelerator replacements for one operation.
const MAX_FAILOVERS: u32 = 4;

fn round_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

/// When to checkpoint a [`FailoverSession`] automatically: after every
/// `every_ops` logged operations and/or every `every_bytes` retained
/// host→device payload bytes, whichever trips first. A dimension set to 0
/// is disabled; [`CheckpointPolicy::default`] checkpoints every 64 ops or
/// 8 MiB of retained payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many operations are in the log (0 = never by
    /// op count).
    pub every_ops: u64,
    /// Checkpoint once the log retains this many H2D payload bytes
    /// (0 = never by bytes).
    pub every_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_ops: 64,
            every_bytes: 8 << 20,
        }
    }
}

impl CheckpointPolicy {
    /// True when a log of `ops` operations retaining `bytes` payload bytes
    /// has outgrown this policy.
    pub fn due(&self, ops: u64, bytes: u64) -> bool {
        (self.every_ops > 0 && ops >= self.every_ops)
            || (self.every_bytes > 0 && bytes >= self.every_bytes)
    }
}

/// One region captured by a checkpoint: where it lives in the session's
/// virtual address space and the bytes it held at capture time.
#[derive(Clone)]
struct CkptRegion {
    virt: u64,
    /// The allocation's true length (may be 0; the translation span is
    /// `alloc_len.max(1)`).
    alloc_len: u64,
    data: Payload,
}

/// A completed device-state checkpoint: everything needed to rebuild the
/// live regions on a replacement accelerator without the pre-checkpoint log.
#[derive(Clone)]
struct Checkpoint {
    regions: Vec<CkptRegion>,
}

/// One logged state-changing operation (replayed on failover).
#[derive(Clone)]
enum LoggedOp {
    Alloc {
        virt: u64,
        len: u64,
    },
    Free {
        virt: u64,
    },
    H2D {
        virt: u64,
        data: Payload,
    },
    MemSet {
        virt: u64,
        len: u64,
        byte: u8,
    },
    Launch {
        name: String,
        cfg: LaunchConfig,
        args: Vec<KernelArg>,
    },
}

/// A live virtual allocation and its current physical backing.
struct Region {
    virt: u64,
    /// Translation span (`alloc_len.max(1)` so zero-length allocations
    /// still own an addressable base).
    len: u64,
    /// The allocation's true length, as requested.
    alloc_len: u64,
    real: DevicePtr,
}

fn translate_in(regions: &[Region], p: DevicePtr) -> Result<DevicePtr, AcError> {
    for r in regions {
        if p.0 >= r.virt && p.0 < r.virt + r.len {
            return Ok(DevicePtr(r.real.0 + (p.0 - r.virt)));
        }
    }
    Err(AcError::Local(format!(
        "pointer {:#x} is not inside any live session allocation",
        p.0
    )))
}

fn translate_args(regions: &[Region], args: &[KernelArg]) -> Result<Vec<KernelArg>, AcError> {
    args.iter()
        .map(|a| match a {
            KernelArg::Ptr(p) => translate_in(regions, *p).map(KernelArg::Ptr),
            other => Ok(*other),
        })
        .collect()
}

/// Wrap an ARM grant in a [`RemoteAccelerator`] stamped with the grant's
/// assignment epoch and watching the ARM's eviction channel, so a doomed
/// retry budget is cut short the moment an eviction notice lands.
fn wrap_grant(
    ep: &Endpoint,
    arm: &ArmClient,
    grant: &GrantedAccelerator,
    config: FrontendConfig,
) -> RemoteAccelerator {
    let watch = arm.clone();
    RemoteAccelerator::new(ep.clone(), grant.daemon_rank, config)
        .with_epoch(grant.epoch)
        .with_eviction_watch(Rc::new(move || watch.eviction_pending()))
}

struct Inner {
    accel: RemoteAccelerator,
    accel_id: AcceleratorId,
    regions: Vec<Region>,
    log: Vec<LoggedOp>,
    next_virt: u64,
    failovers: u32,
    /// Latest completed device-state checkpoint; the log holds only the
    /// tail of operations since it was taken.
    checkpoint: Option<Checkpoint>,
    /// H2D payload bytes currently retained by the log tail (drops to 0 at
    /// every checkpoint).
    retained_bytes: u64,
}

/// A fault-tolerant session on one accelerator (see module docs).
///
/// Clones share state: all clones observe a failover together.
#[derive(Clone)]
pub struct FailoverSession {
    ep: Endpoint,
    arm: ArmClient,
    job: JobId,
    config: FrontendConfig,
    inner: Rc<RefCell<Inner>>,
}

impl FailoverSession {
    /// Wrap the granted accelerator in a failover session. `config.retry`
    /// should be set — it is the failure detector. Failover decisions are
    /// traced into the endpoint's fabric tracer.
    pub fn new(
        ep: Endpoint,
        arm: ArmClient,
        job: JobId,
        grant: GrantedAccelerator,
        config: FrontendConfig,
    ) -> Self {
        let accel = wrap_grant(&ep, &arm, &grant, config);
        FailoverSession {
            ep,
            arm,
            job,
            config,
            inner: Rc::new(RefCell::new(Inner {
                accel,
                accel_id: grant.accel,
                regions: Vec::new(),
                log: Vec::new(),
                next_virt: VIRT_BASE,
                failovers: 0,
                checkpoint: None,
                retained_bytes: 0,
            })),
        }
    }

    fn trace(&self, category: &'static str, label: impl FnOnce() -> String) {
        let fabric = self.ep.fabric();
        fabric.tracer().record(fabric.handle(), category, label);
    }

    /// Install (or replace) the automatic checkpoint policy. Equivalent to
    /// setting [`FrontendConfig::checkpoint`] before building the session.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.config.checkpoint = Some(policy);
        self
    }

    /// Operations currently in the command log (the replay tail).
    pub fn logged_ops(&self) -> u64 {
        self.inner.borrow().log.len() as u64
    }

    /// Host→device payload bytes retained by the log tail for replay.
    pub fn retained_log_bytes(&self) -> u64 {
        self.inner.borrow().retained_bytes
    }

    /// True once the session holds a completed device-state checkpoint.
    pub fn has_checkpoint(&self) -> bool {
        self.inner.borrow().checkpoint.is_some()
    }

    /// The identity of the accelerator currently serving the session.
    pub fn accel_id(&self) -> AcceleratorId {
        self.inner.borrow().accel_id
    }

    /// How many times the session has failed over.
    pub fn failovers(&self) -> u32 {
        self.inner.borrow().failovers
    }

    /// The raw handle onto the current accelerator (e.g. for shutdown).
    /// Pointers minted by this session are virtual and must not be passed
    /// to the raw handle.
    pub fn current_accelerator(&self) -> RemoteAccelerator {
        self.inner.borrow().accel.clone()
    }

    fn current(&self) -> RemoteAccelerator {
        self.inner.borrow().accel.clone()
    }

    fn translate(&self, p: DevicePtr) -> Result<DevicePtr, AcError> {
        translate_in(&self.inner.borrow().regions, p)
    }

    /// Report the current accelerator dead, obtain a replacement in the
    /// same round trip, replay the command log onto it (the reactive
    /// path, driven by an exhausted retry budget).
    async fn failover(&self) -> Result<(), AcError> {
        let old_id = self.inner.borrow().accel_id;
        self.trace("arm.failover", || {
            format!(
                "job {}: accel {} unreachable, requesting replacement",
                self.job.0, old_id.0
            )
        });
        self.ep.fabric().telemetry().count("failover.count", 1);
        let grant = self
            .arm
            .report_failure(self.job, old_id)
            .await
            .map_err(|e| AcError::Local(format!("failover denied: {e}")))?;
        self.migrate_to(grant).await
    }

    /// Apply a pending ARM eviction notice for the current accelerator,
    /// if any: migrate onto the replacement grant carried by the notice
    /// (no `ReportFailure` round trip needed), or — when the notice
    /// carries none, as after a lease expiry — allocate a fresh
    /// accelerator and replay onto that. Returns whether a notice was
    /// applied.
    async fn apply_eviction(&self) -> Result<bool, AcError> {
        self.arm.pump_evictions().await;
        let (accel_id, epoch) = {
            let inner = self.inner.borrow();
            (inner.accel_id, inner.accel.epoch())
        };
        let Some(ev) = self.arm.take_eviction(accel_id) else {
            return Ok(false);
        };
        if ev.epoch != 0 && epoch != 0 && ev.epoch < epoch {
            // A stale notice from an earlier tenure of the same
            // accelerator; the current grant is newer than the eviction.
            return Ok(false);
        }
        self.ep.fabric().telemetry().count("failover.evictions", 1);
        let reason = ev.reason;
        self.trace("arm.failover", || {
            format!(
                "job {}: accel {} evicted ({reason:?}), proactive migration",
                self.job.0, accel_id.0
            )
        });
        if self.config.checkpoint.is_some() {
            // Pre-copy: the evicted accelerator is draining, not dead, so
            // try to capture its freshest state before migrating — the
            // replacement then restores this snapshot instead of replaying
            // the whole tail. Failure is fine; migration proceeds from the
            // previous checkpoint and the longer log.
            match self.checkpoint().await {
                Ok(()) => self.ep.fabric().telemetry().count("failover.precopy", 1),
                Err(_) => self
                    .ep
                    .fabric()
                    .telemetry()
                    .count("failover.precopy_failed", 1),
            }
        }
        match ev.replacement {
            Some(grant) => self.migrate_to(grant).await?,
            None => {
                let mut grants = self.arm.allocate(self.job, 1).await.map_err(|e| {
                    AcError::Local(format!("re-allocation after eviction denied: {e}"))
                })?;
                self.migrate_to(grants.remove(0)).await?;
            }
        }
        Ok(true)
    }

    /// Recover after the current accelerator became unusable (retry
    /// budget exhausted or stale-epoch fencing): prefer a proactive
    /// eviction notice — its replacement grant is already in hand — and
    /// fall back to the reactive [`Self::failover`] report.
    async fn recover(&self) -> Result<(), AcError> {
        if self.apply_eviction().await? {
            return Ok(());
        }
        self.failover().await
    }

    /// [`Self::recover`], tolerating a *recoverable* failure of the
    /// recovery itself: a replacement grant can already be fenced or
    /// unreachable by the time the replay touches it (its lease may have
    /// expired while this client was still timing out on the old
    /// accelerator). Such a failure leaves the session on its old grant
    /// and reports success; the caller's op loop burns one more of its
    /// [`MAX_FAILOVERS`] tries and recovery runs again, by which point the
    /// ARM has posted a fresher eviction notice or can grant anew.
    async fn recover_tolerant(&self) -> Result<(), AcError> {
        match self.recover().await {
            Err(AcError::Unreachable | AcError::Remote(Status::StaleEpoch)) => Ok(()),
            other => other,
        }
    }

    /// Cheap pre-operation poll: migrate now if the ARM has already
    /// evicted us (drain, quarantine), instead of discovering it through
    /// a fenced or timed-out operation.
    async fn maybe_migrate(&self) -> Result<(), AcError> {
        if self.arm.eviction_pending() {
            self.apply_eviction().await?;
        }
        Ok(())
    }

    /// Snapshot the session's live device regions and truncate the command
    /// log to the operations issued after the snapshot began, dropping the
    /// retained H2D payloads with it.
    ///
    /// On success, recovery cost from here on is O(live state + log tail).
    /// On failure — the accelerator died mid-snapshot, say — the partial
    /// snapshot is discarded and the session keeps its previous checkpoint
    /// and its full log, so recovery falls back one checkpoint rather than
    /// trusting half-copied state. The snapshot itself is **not** retried
    /// through the failover path (that would recurse into recovery); the
    /// next operation's retry loop drives recovery as usual.
    pub async fn checkpoint(&self) -> Result<(), AcError> {
        let accel = self.current();
        let (captured, reals, logged) = {
            let inner = self.inner.borrow();
            let captured: Vec<(u64, u64)> = inner
                .regions
                .iter()
                .map(|r| (r.virt, r.alloc_len))
                .collect();
            let reals: Vec<(DevicePtr, u64)> = inner
                .regions
                .iter()
                .map(|r| (r.real, r.alloc_len))
                .collect();
            (captured, reals, inner.log.len())
        };
        let tele = self.ep.fabric().telemetry();
        let job = self.job.0;
        let nregions = reals.len();
        let total: u64 = reals.iter().map(|(_, l)| *l).sum();
        let span = tele
            .span(self.ep.fabric().handle(), "failover.checkpoint", || {
                format!("job {job}: {nregions} regions, {total}B")
            })
            .bytes(total);
        let data = accel.snapshot(&reals).await?;
        drop(span);
        let mut inner = self.inner.borrow_mut();
        inner.checkpoint = Some(Checkpoint {
            regions: captured
                .into_iter()
                .zip(data)
                .map(|((virt, alloc_len), data)| CkptRegion {
                    virt,
                    alloc_len,
                    data,
                })
                .collect(),
        });
        // Truncate exactly the prefix that predates the snapshot;
        // operations logged while the snapshot streamed stay in the tail.
        inner.log.drain(..logged);
        inner.retained_bytes = inner
            .log
            .iter()
            .map(|op| match op {
                LoggedOp::H2D { data, .. } => data.len(),
                _ => 0,
            })
            .sum();
        drop(inner);
        tele.count("failover.checkpoints", 1);
        tele.count("failover.checkpoint_bytes", total);
        self.trace("failover.checkpoint", || {
            format!("job {job}: checkpointed {nregions} regions ({total}B), {logged} ops truncated")
        });
        Ok(())
    }

    /// Checkpoint when the configured policy says the log has outgrown its
    /// thresholds; a failed automatic checkpoint is traced and swallowed
    /// (the session just keeps its longer log).
    async fn maybe_checkpoint(&self) {
        let Some(policy) = self.config.checkpoint else {
            return;
        };
        let (ops, bytes) = {
            let inner = self.inner.borrow();
            (inner.log.len() as u64, inner.retained_bytes)
        };
        if !policy.due(ops, bytes) {
            return;
        }
        if self.checkpoint().await.is_err() {
            self.ep
                .fabric()
                .telemetry()
                .count("failover.checkpoint_failed", 1);
            self.trace("failover.checkpoint", || {
                format!(
                    "job {}: automatic checkpoint failed, keeping full log",
                    self.job.0
                )
            });
        }
    }

    /// Replay the command log onto `grant` and swap it in as the
    /// session's current accelerator: the shared tail of reactive
    /// failover and proactive eviction-driven migration.
    async fn migrate_to(&self, grant: GrantedAccelerator) -> Result<(), AcError> {
        let old_id = self.inner.borrow().accel_id;
        let tele = self.ep.fabric().telemetry();
        let job = self.job.0;
        let _replay_span = tele
            .span(self.ep.fabric().handle(), "failover.replay", || {
                format!("job {job}: replacing accel {}", old_id.0)
            })
            .op(job);
        let accel = wrap_grant(&self.ep, &self.arm, &grant, self.config);
        // Clone the recovery state (payload clones are reference-counted),
        // then rebuild without holding the borrow across awaits.
        let (ckpt, log): (Option<Checkpoint>, Vec<LoggedOp>) = {
            let inner = self.inner.borrow();
            (inner.checkpoint.clone(), inner.log.clone())
        };
        let mut regions: Vec<Region> = Vec::new();
        let mut restored_bytes = 0u64;
        if let Some(ckpt) = &ckpt {
            // Rebuild the checkpointed regions first — allocations, then
            // one multi-region restore stream — so the tail replays over
            // exactly the state it was logged against.
            let mut reals = Vec::with_capacity(ckpt.regions.len());
            for cr in &ckpt.regions {
                let real = accel.mem_alloc(cr.alloc_len).await?;
                regions.push(Region {
                    virt: cr.virt,
                    len: cr.alloc_len.max(1),
                    alloc_len: cr.alloc_len,
                    real,
                });
                reals.push((real, cr.alloc_len));
            }
            let data: Vec<Payload> = ckpt.regions.iter().map(|c| c.data.clone()).collect();
            accel.restore(&reals, &data).await?;
            restored_bytes = data.iter().map(Payload::len).sum();
        }
        for op in &log {
            match op {
                LoggedOp::Alloc { virt, len } => {
                    let real = accel.mem_alloc(*len).await?;
                    regions.push(Region {
                        virt: *virt,
                        len: (*len).max(1),
                        alloc_len: *len,
                        real,
                    });
                }
                LoggedOp::Free { virt } => {
                    let real = translate_in(&regions, DevicePtr(*virt))?;
                    accel.mem_free(real).await?;
                    regions.retain(|r| r.virt != *virt);
                }
                LoggedOp::H2D { virt, data } => {
                    let real = translate_in(&regions, DevicePtr(*virt))?;
                    accel.mem_cpy_h2d(data, real).await?;
                }
                LoggedOp::MemSet { virt, len, byte } => {
                    let real = translate_in(&regions, DevicePtr(*virt))?;
                    accel.mem_set(real, *len, *byte).await?;
                }
                LoggedOp::Launch { name, cfg, args } => {
                    let real_args = translate_args(&regions, args)?;
                    accel.launch(name, *cfg, &real_args).await?;
                }
            }
        }
        let replayed = log.len();
        tele.count("failover.replayed_ops", replayed as u64);
        tele.count("failover.tail_replayed_ops", replayed as u64);
        tele.count("failover.restored_bytes", restored_bytes);
        let mut inner = self.inner.borrow_mut();
        inner.accel = accel;
        inner.accel_id = grant.accel;
        inner.regions = regions;
        inner.failovers += 1;
        drop(inner);
        self.trace("arm.failover", || {
            format!(
                "job {}: failed over accel {} -> accel {} (rank {}), \
                     {restored_bytes}B restored + {replayed} ops replayed",
                self.job.0, old_id.0, grant.accel.0, grant.daemon_rank.0
            )
        });
        Ok(())
    }

    /// Run `op` on the current accelerator; while it reports that
    /// accelerator lost (retry budget exhausted, or fenced by a newer
    /// epoch) recover and run it again, up to [`MAX_FAILOVERS`] times. `op`
    /// translates its pointers itself, so every try sees the regions of the
    /// accelerator it runs on.
    async fn with_failover<T>(
        &self,
        op: impl AsyncFn(RemoteAccelerator) -> Result<T, AcError>,
    ) -> Result<T, AcError> {
        self.maybe_migrate().await?;
        let mut tries = 0;
        loop {
            match op(self.current()).await {
                Err(AcError::Unreachable | AcError::Remote(Status::StaleEpoch))
                    if tries < MAX_FAILOVERS =>
                {
                    tries += 1;
                    self.recover_tolerant().await?;
                }
                other => return other,
            }
        }
    }

    /// Allocate `len` device bytes; returns a session-virtual pointer.
    pub async fn mem_alloc(&self, len: u64) -> Result<DevicePtr, AcError> {
        let real = self
            .with_failover(async |accel| accel.mem_alloc(len).await)
            .await?;
        let virt = {
            let mut inner = self.inner.borrow_mut();
            let virt = inner.next_virt;
            inner.next_virt += round_up(len.max(1), VIRT_ALIGN);
            inner.regions.push(Region {
                virt,
                len: len.max(1),
                alloc_len: len,
                real,
            });
            inner.log.push(LoggedOp::Alloc { virt, len });
            virt
        };
        self.maybe_checkpoint().await;
        Ok(DevicePtr(virt))
    }

    /// Free a session allocation (`ptr` must be the allocation base).
    pub async fn mem_free(&self, ptr: DevicePtr) -> Result<(), AcError> {
        self.with_failover(async |accel| accel.mem_free(self.translate(ptr)?).await)
            .await?;
        {
            let mut inner = self.inner.borrow_mut();
            inner.regions.retain(|r| r.virt != ptr.0);
            inner.log.push(LoggedOp::Free { virt: ptr.0 });
        }
        self.maybe_checkpoint().await;
        Ok(())
    }

    /// Copy host data to device memory; the payload is retained for replay.
    pub async fn mem_cpy_h2d(&self, src: &Payload, dst: DevicePtr) -> Result<(), AcError> {
        self.with_failover(async |accel| accel.mem_cpy_h2d(src, self.translate(dst)?).await)
            .await?;
        {
            // The clone shares the caller's buffer (reference counted), so
            // retention costs bookkeeping only until the caller drops its
            // copy.
            let mut inner = self.inner.borrow_mut();
            inner.retained_bytes += src.len();
            inner.log.push(LoggedOp::H2D {
                virt: dst.0,
                data: src.clone(),
            });
        }
        self.maybe_checkpoint().await;
        Ok(())
    }

    /// Fill device memory with a byte value.
    pub async fn mem_set(&self, ptr: DevicePtr, len: u64, byte: u8) -> Result<(), AcError> {
        self.with_failover(async |accel| accel.mem_set(self.translate(ptr)?, len, byte).await)
            .await?;
        self.inner.borrow_mut().log.push(LoggedOp::MemSet {
            virt: ptr.0,
            len,
            byte,
        });
        self.maybe_checkpoint().await;
        Ok(())
    }

    /// Copy device data back to the host (read-only; not logged).
    pub async fn mem_cpy_d2h(&self, src: DevicePtr, len: u64) -> Result<Payload, AcError> {
        self.with_failover(async |accel| accel.mem_cpy_d2h(self.translate(src)?, len).await)
            .await
    }

    /// Launch a named kernel and wait for completion; logged for replay.
    pub async fn launch(
        &self,
        name: &str,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<(), AcError> {
        self.with_failover(async |accel| {
            let real_args = translate_args(&self.inner.borrow().regions, args)?;
            accel.launch(name, cfg, &real_args).await
        })
        .await?;
        self.inner.borrow_mut().log.push(LoggedOp::Launch {
            name: name.to_owned(),
            cfg,
            args: args.to_vec(),
        });
        self.maybe_checkpoint().await;
        Ok(())
    }
}
