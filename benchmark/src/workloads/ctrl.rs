//! `ctrl_churn`: the control plane on the hardened profile.
//!
//! 16 CN, 64 AC (the ROADMAP's fixed scenario), functional mode, single
//! switch, every reliability plane a production cluster would run and no
//! faults: framed, op-id'd, dedupe-cached requests (25 ms / 4 retries),
//! 20 ms daemon data timeout, heartbeats + leases + epochs, one standby
//! ARM fed by log replication. 16 closed-loop clients, one per CN.
//!
//! Many events, few bytes: about 18 k ops per round, none above 2 KiB.
//! The work is executor, tag matching, routing, request/ARM codecs,
//! dedupe, replication and heartbeats; CRC does almost nothing. This is
//! the only workload that times the retry/HA/health code paths.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

use dacc_arm::health::HealthConfig;
use dacc_arm::state::JobId;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{KernelArg, LaunchConfig};
use dacc_vgpu::params::ExecMode;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{
    begin_run, collect, fresh_cluster, pinned_spec, run_sim, shutdown_cluster, RoundCx, RoundOut,
    Workload,
};
use crate::trace::Scope;

const CLIENTS: usize = 16;
const ACCELERATORS: usize = 64;
/// `(gang width, cycles of that width)` per client; a client's cycle list
/// is a seeded shuffle of this multiset, so the ops per round do not
/// depend on the seed. Sixteen clients averaging 2.9 of 64 accelerators
/// keep the pool about 70 % busy: it runs dry often enough that half the
/// `acquire_waiting` calls take the ARM's queued path, but not so often
/// that queueing delay (and the heartbeats ticking through it) stops the
/// work from scaling with the op count.
const WIDTHS: [(u32, usize); 4] = [(1, 6), (2, 6), (4, 6), (8, 2)];
/// Device buffer per accelerator session: 256 doubles.
const BUF_BYTES: u64 = 2048;
const BUF_DOUBLES: u64 = BUF_BYTES / 8;
/// `launch("fill_f64")` + `mem_set` pairs per accelerator session.
const PAIRS: u64 = 8;
const SET_BYTES: u64 = 32;
const READ_BYTES: u64 = 64;

/// One acquire … finish cycle of one client.
#[derive(Clone, Copy)]
struct Cycle {
    width: u32,
    /// Seeds the fill values and set bytes of the cycle's sessions.
    salt: u32,
}

/// The churn workload's fixed inputs: per client, its cycle list.
pub struct Churn {
    cycles: Vec<Vec<Cycle>>,
}

impl Churn {
    /// Generate every client's shuffled widths and salts.
    pub fn new(seed: u64, half: bool) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cycles = (0..CLIENTS)
            .map(|_| {
                let mut widths: Vec<u32> = WIDTHS
                    .iter()
                    .flat_map(|&(w, n)| std::iter::repeat_n(w, if half { n / 2 } else { n }))
                    .collect();
                for i in (1..widths.len()).rev() {
                    widths.swap(i, rng.gen_range(0..=i));
                }
                widths
                    .into_iter()
                    .map(|width| Cycle {
                        width,
                        salt: rng.gen(),
                    })
                    .collect()
            })
            .collect();
        Churn { cycles }
    }
}

fn spec() -> ClusterSpec {
    let mut spec = pinned_spec(CLIENTS, ACCELERATORS, ExecMode::Functional);
    spec.frontend.retry = Some(RetryPolicy {
        timeout: SimDuration::from_millis(25),
        max_retries: 4,
        ..RetryPolicy::default()
    });
    spec.daemon.data_timeout = Some(SimDuration::from_millis(20));
    spec.health = Some(HealthConfig::default());
    spec.arm_ha = Some(ArmHaSpec::default());
    spec
}

/// State the 16 client tasks share (one thread, so `Rc<RefCell>`).
#[derive(Default)]
struct Shared {
    /// Daemon ranks currently granted to some client.
    held: BTreeSet<usize>,
    clients_done: usize,
    out: RoundOut,
}

impl Shared {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.out.ops += 1;
        if ok {
            self.out.good += 1;
        } else {
            self.out.failures.push(what());
        }
    }
}

/// What one accelerator session must read back: `SET_BYTES` of the last
/// set byte, then doubles of the last fill value.
fn expected(value: f64, byte: u8) -> [u8; READ_BYTES as usize] {
    let mut want = [byte; READ_BYTES as usize];
    for chunk in want[SET_BYTES as usize..].chunks_exact_mut(8) {
        chunk.copy_from_slice(&value.to_le_bytes());
    }
    want
}

/// alloc, 8 × (fused launch + memset), 64 B read-back, free — 19 ops.
async fn session(ac: &RemoteAccelerator, salt: u32, shared: &Rc<RefCell<Shared>>, held: &Scope) {
    let rank = ac.daemon_rank().0 as u64;
    let op = |ok: bool, what: &str| {
        shared
            .borrow_mut()
            .op(ok, || format!("{what} on daemon {rank}"));
    };
    let ptr = held
        .call("ac.mem_alloc", rank, ac.mem_alloc(BUF_BYTES))
        .await;
    op(ptr.is_ok(), "mem_alloc");
    let Ok(ptr) = ptr else { return };
    let (mut value, mut byte) = (0.0, 0);
    for i in 0..PAIRS {
        value = f64::from(salt) + i as f64;
        byte = (u64::from(salt) + rank + i) as u8;
        let args = [
            KernelArg::Ptr(ptr),
            KernelArg::U64(BUF_DOUBLES),
            KernelArg::F64(value),
        ];
        let cfg = LaunchConfig::linear(1, BUF_DOUBLES as u32);
        let launched = held
            .call("ac.launch", rank, ac.launch("fill_f64", cfg, &args))
            .await;
        op(launched.is_ok(), "launch");
        let set = held
            .call("ac.mem_set", rank, ac.mem_set(ptr, SET_BYTES, byte))
            .await;
        op(set.is_ok(), "mem_set");
    }
    let back = held
        .call("ac.mem_cpy_d2h.64B", rank, ac.mem_cpy_d2h(ptr, READ_BYTES))
        .await;
    shared.borrow_mut().out.bytes += READ_BYTES;
    op(
        back.is_ok_and(|p| super::payload_eq(&p, &expected(value, byte))),
        "64 B read-back",
    );
    let freed = held.call("ac.mem_free", rank, ac.mem_free(ptr)).await;
    op(freed.is_ok(), "mem_free");
}

impl Workload for Churn {
    /// The round checks every read-back and every grant itself.
    fn verify(&self) -> Result<(), String> {
        self.round(&RoundCx::untraced()).verdict()
    }

    fn round(&self, cx: &RoundCx) -> RoundOut {
        let spec = spec();
        let (mut sim, mut cluster) = fresh_cluster(cx, spec);
        let run = begin_run(cx);
        let shared = Rc::new(RefCell::new(Shared::default()));
        let daemons: Vec<_> = (0..ACCELERATORS).map(|i| cluster.daemon_rank(i)).collect();
        let eps = std::mem::take(&mut cluster.cn_endpoints);
        for (c, ep) in eps.into_iter().enumerate() {
            let arm = cluster.arm_client(ep);
            let (cycles, shared, daemons) =
                (self.cycles[c].clone(), shared.clone(), daemons.clone());
            let lane = run.on_lane(c as u32);
            sim.spawn("client", async move {
                let proc = AcProcess::with_client(arm, JobId(1 + c as u64), spec.frontend);
                for (k, cycle) in cycles.iter().enumerate() {
                    let held = lane.open("arm.acquire_release", k as u64);
                    let accels = held
                        .call(
                            "arm.acquire_waiting",
                            k as u64,
                            proc.acquire_waiting(cycle.width),
                        )
                        .await;
                    // An accelerator granted while another client holds it
                    // fails the acquire that saw it.
                    let fresh = accels.as_ref().is_ok_and(|accels| {
                        let held = &mut shared.borrow_mut().held;
                        accels.len() == cycle.width as usize
                            && accels.iter().all(|a| held.insert(a.daemon_rank().0))
                    });
                    shared.borrow_mut().op(fresh, || {
                        format!("client {c} cycle {k}: short, failed or double grant")
                    });
                    let accels = accels.unwrap_or_default();
                    for ac in &accels {
                        session(ac, cycle.salt, &shared, &held).await;
                    }
                    for ac in &accels {
                        shared.borrow_mut().held.remove(&ac.daemon_rank().0);
                    }
                    let released = held.call("arm.finish", k as u64, proc.finish()).await;
                    held.close();
                    shared.borrow_mut().op(released == cycle.width, || {
                        format!("client {c} cycle {k}: released {released}")
                    });
                }
                let last = {
                    let mut s = shared.borrow_mut();
                    s.out.arm_calls += 2 * cycles.len() as u64;
                    s.clients_done += 1;
                    s.clients_done == CLIENTS
                };
                if last {
                    shared.borrow_mut().out.arm_calls += 1;
                    if let Err(e) = shutdown_cluster(proc.arm(), &daemons, spec.frontend).await {
                        shared
                            .borrow_mut()
                            .out
                            .failures
                            .push(format!("cluster shutdown: {e}"));
                    }
                }
            });
        }

        // All 16 clients interleave in the executor, so the round is timed
        // as a whole: first poll to drained calendar, tear-down included.
        let mut failures = Vec::new();
        let t0 = Instant::now();
        let outcome = run_sim(run, &mut sim, &mut failures);
        let host = t0.elapsed();
        let mut out = std::mem::take(&mut shared.borrow_mut().out);
        out.host = host;
        out.virt = vec![outcome.time.as_nanos()];
        out.failures.append(&mut failures);
        out.counts = collect(cx, cluster, outcome);
        out
    }

    fn functional(&self) -> bool {
        true
    }
}
