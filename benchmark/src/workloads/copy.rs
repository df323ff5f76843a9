//! `copy_h2d` and `copy_d2h`: bulk copies through the data path.
//!
//! 1 CN, 1 AC, functional mode, default front-end (adaptive 128–512 KiB
//! pipeline), one closed-loop client. The size mix — 16 × 256 KiB,
//! 24 × 4 MiB, 8 × 12 MiB = 196 MiB — crosses the naive/pipeline switch
//! and the block-size switch of Fig. 5. Sources are slices at seeded
//! offsets of one seeded 32 MiB master buffer, larger than the last-level
//! cache share, so the codec reads cold bytes. Host time here is CRC and
//! memcpy, not event count. The two directions use the same layers the
//! other way round: H2D seals on the front-end and opens on the daemon,
//! D2H seals on the daemon in fixed 128 KiB blocks (about 4× the events)
//! and the front-end opens and concatenates.

use bytes::Bytes;
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_vgpu::params::ExecMode;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{
    begin_run, collect, fresh_cluster, payload_eq, pinned_spec, run_sim, shutdown_cluster, OpClock,
    RoundCx, RoundOut, Workload,
};

const MIB: u64 = 1 << 20;
const MASTER_BYTES: u64 = 32 * MIB;
/// `(count, bytes)` of each size class in a full round.
const SIZE_MIX: [(usize, u64); 3] = [(16, 256 << 10), (24, 4 * MIB), (8, 12 * MIB)];

/// Copy direction.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
}

/// The copy workload's fixed inputs.
pub struct Copy {
    dir: Dir,
    master: Bytes,
    /// `(offset into master, length)` per copy, in issue order.
    ops: Vec<(u64, u64)>,
}

impl Copy {
    /// Generate the master buffer, the size order and the offsets.
    pub fn new(dir: Dir, seed: u64, half: bool) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut master = vec![0u8; MASTER_BYTES as usize];
        rng.fill_bytes(&mut master);
        let mut sizes: Vec<u64> = SIZE_MIX
            .iter()
            .flat_map(|&(n, len)| std::iter::repeat_n(len, if half { n / 2 } else { n }))
            .collect();
        // Fisher–Yates with the harness generator: the order is seeded,
        // the multiset of sizes (and so the work) is not.
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.gen_range(0..=i));
        }
        let ops = sizes
            .into_iter()
            .map(|len| (rng.gen_range(0..=MASTER_BYTES - len), len))
            .collect();
        Copy {
            dir,
            master: Bytes::from(master),
            ops,
        }
    }

    /// One round; `inspect` additionally compares device memory with the
    /// source after every H2D (the verification pass).
    fn run(&self, cx: &RoundCx, inspect: bool) -> RoundOut {
        let spec = pinned_spec(1, 1, ExecMode::Functional);
        let (mut sim, mut cluster) = fresh_cluster(cx, spec);
        let run = begin_run(cx);
        let ep = cluster.cn_endpoints.remove(0);
        let arm = cluster.arm_client(ep.clone());
        let daemon = cluster.daemon_rank(0);
        let gpu = cluster.accel_gpus[0].clone();
        let (dir, master, ops) = (self.dir, self.master.clone(), self.ops.clone());
        let h = sim.handle();

        let calls = run.clone();
        let task = sim.spawn("client", async move {
            let mut out = RoundOut::default();
            let mut clock = OpClock::default();
            let ac = RemoteAccelerator::new(ep, daemon, spec.frontend);
            let fill = Payload::from_bytes(master.clone());
            // D2H reads slices of a device-resident copy of the master;
            // H2D overwrites one region sized for the largest copy.
            let region = match dir {
                Dir::H2D => 12 * MIB,
                Dir::D2H => MASTER_BYTES,
            };
            let dev = ac.mem_alloc(region).await.expect("prologue alloc");
            if dir == Dir::D2H {
                // Straight into device memory, not through the program: the
                // round's counts then cover the measured copies alone.
                gpu.mem().write_payload(dev, &fill).expect("prologue fill");
            }
            let t0 = h.now();
            for (i, &(off, len)) in ops.iter().enumerate() {
                let want = &master[off as usize..(off + len) as usize];
                let mib = len as f64 / MIB as f64;
                out.ops += 1;
                out.bytes += len;
                let ok = match dir {
                    Dir::H2D => {
                        let src = fill.slice(off, len);
                        let call = calls.call_per("ac.mem_cpy_h2d", i as u64, mib, async {
                            ac.mem_cpy_h2d(&src, dev).await
                        });
                        clock.time(call).await.is_ok()
                            && (!inspect
                                || gpu
                                    .mem()
                                    .read_payload(dev, len)
                                    .is_ok_and(|p| payload_eq(&p, want)))
                    }
                    Dir::D2H => {
                        let call = calls.call_per(
                            "ac.mem_cpy_d2h",
                            i as u64,
                            mib,
                            ac.mem_cpy_d2h(dev.offset(off), len),
                        );
                        clock
                            .time(call)
                            .await
                            .is_ok_and(|back| payload_eq(&back, want))
                    }
                };
                if ok {
                    out.good += 1;
                } else {
                    out.failures.push(format!("copy {i} ({len} B at {off})"));
                }
                out.virt.push(h.now().since(t0).as_nanos());
            }
            out.virt.insert(0, h.now().since(t0).as_nanos());
            if dir == Dir::H2D {
                // The round's own check, on device memory itself (so it adds
                // nothing to the round's counts): every copy landed at the
                // region's start, so byte `x` must hold the last copy longer
                // than `x`. Always the whole region, whatever the order: a
                // check sized by the last copy made peak RSS depend on the
                // seed.
                let mut want = vec![0u8; region as usize];
                let mut covered = 0;
                for &(off, len) in ops.iter().rev() {
                    if len > covered {
                        let (from, to) = ((off + covered) as usize, (off + len) as usize);
                        want[covered as usize..len as usize].copy_from_slice(&master[from..to]);
                        covered = len;
                    }
                }
                let back = gpu.mem().read_payload(dev, covered);
                if !back.is_ok_and(|b| payload_eq(&b, &want[..covered as usize])) {
                    out.good -= 1;
                    out.failures
                        .push("device region after the last copy".into());
                }
            }
            if let Err(e) = shutdown_cluster(&arm, &[daemon], spec.frontend).await {
                out.failures.push(format!("cluster shutdown: {e}"));
            }
            out.host = clock.total();
            out
        });

        let mut failures = Vec::new();
        let outcome = run_sim(run, &mut sim, &mut failures);
        let mut out = task.try_take().unwrap_or_else(|| {
            failures.push("client task did not finish".into());
            RoundOut::default()
        });
        out.failures.append(&mut failures);
        out.counts = collect(cx, cluster, outcome);
        out
    }
}

impl Workload for Copy {
    fn verify(&self) -> Result<(), String> {
        self.run(&RoundCx::untraced(), true).verdict()
    }

    fn round(&self, cx: &RoundCx) -> RoundOut {
        self.run(cx, false)
    }

    fn functional(&self) -> bool {
        true
    }
}
