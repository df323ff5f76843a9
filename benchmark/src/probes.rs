//! Per-layer probes: each layer's public functions timed in isolation, on
//! inputs from the same seeded generator as the workloads. A probe is a
//! tight loop repeated `REPS` times; the median repetition is reported.
//! Unit costs from here, multiplied by the exact counts of a traced round,
//! give the layer shares.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use dacc_arm::health::HealthConfig;
use dacc_arm::proto::{frame_request, peek_frame, ArmRequest};
use dacc_arm::state::{inventory, JobId, Pool};
use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::mpi::{Fabric, Rank, Tag};
use dacc_fabric::payload::Payload;
use dacc_fabric::topology::{FabricParams, NodeId, Topology, TopologySpec};
use dacc_runtime::proto::{
    crc32, open_block, seal_block, Request, RequestFrame, CRC_TRAILER_BYTES,
};
use dacc_sched::{shed_overflow, Capacity, JobReq, Scheduler, TenantConfig, TenantId};
use dacc_sim::prelude::*;
use dacc_telemetry::Telemetry;
use dacc_vgpu::device::VirtualGpu;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelArg, KernelRegistry, LaunchConfig};
use dacc_vgpu::memory::{DeviceMem, DevicePtr};
use dacc_vgpu::params::{ExecMode, GpuParams};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Repetitions per probe (the sample count printed beside each value).
pub const REPS: usize = 5;
const GIB: f64 = (1u64 << 30) as f64;
const BLOCK_128K: usize = 128 << 10;
const BLOCK_512K: usize = 512 << 10;
const FOUR_MIB: usize = 4 << 20;
/// Hosts of the routing probe: the 16 + 64 nodes of `ctrl_churn` plus ARM.
const ROUTE_HOSTS: usize = 81;

/// Every probe's median.
#[derive(Clone, Copy, Default)]
pub struct Probes {
    pub sim_timer_ns_per_event: f64,
    pub sim_chan_ns_per_msg: f64,
    pub sim_spawn_ns_per_task: f64,
    pub fabric_send_recv_ns_per_msg: f64,
    /// Sim events one 512 B send/recv pair costs (exact).
    pub fabric_events_per_msg: f64,
    pub fabric_route_ns_switch: f64,
    pub fabric_route_ns_fattree: f64,
    pub fabric_route_ns_dragonfly: f64,
    pub fabric_payload_blocks_ns_per_block: f64,
    pub fabric_payload_to_bytes_gib_per_s: f64,
    pub core_crc_gib_per_s: f64,
    pub core_seal_ns_128k: f64,
    pub core_seal_ns_512k: f64,
    pub core_open_ns_128k: f64,
    pub core_open_ns_512k: f64,
    pub core_req_encode_ns: f64,
    pub core_req_decode_ns: f64,
    pub core_frame_ns: f64,
    /// Heap allocations per `Request::encode_into` (exact).
    pub core_encode_allocs_per_msg: f64,
    pub vgpu_mem_write_gib_per_s: f64,
    pub vgpu_mem_read_gib_per_s: f64,
    pub vgpu_launch_ns: f64,
    /// Sim events one local launch costs (exact).
    pub vgpu_events_per_launch: f64,
    pub vgpu_alloc_free_ns: f64,
    pub arm_req_codec_ns: f64,
    pub arm_pool_tick_ns: f64,
    pub sched_decision_ns: f64,
    pub sched_shed_ns: f64,
    pub telemetry_span_record_ns: f64,
}

impl Probes {
    /// The per-layer metric `name`, if a probe backs it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        Some(match name {
            "sim.timer_ns_per_event" => self.sim_timer_ns_per_event,
            "sim.chan_ns_per_msg" => self.sim_chan_ns_per_msg,
            "sim.spawn_ns_per_task" => self.sim_spawn_ns_per_task,
            "fabric.send_recv_ns_per_msg" => self.fabric_send_recv_ns_per_msg,
            "fabric.route_ns.switch" => self.fabric_route_ns_switch,
            "fabric.route_ns.fattree" => self.fabric_route_ns_fattree,
            "fabric.route_ns.dragonfly" => self.fabric_route_ns_dragonfly,
            "fabric.payload_blocks_ns_per_block" => self.fabric_payload_blocks_ns_per_block,
            "fabric.payload_to_bytes_gib_per_s" => self.fabric_payload_to_bytes_gib_per_s,
            "core.crc_gib_per_s" => self.core_crc_gib_per_s,
            "core.seal_ns_per_block.128k" => self.core_seal_ns_128k,
            "core.seal_ns_per_block.512k" => self.core_seal_ns_512k,
            "core.open_ns_per_block.128k" => self.core_open_ns_128k,
            "core.open_ns_per_block.512k" => self.core_open_ns_512k,
            "core.req_encode_ns" => self.core_req_encode_ns,
            "core.req_decode_ns" => self.core_req_decode_ns,
            "core.frame_ns" => self.core_frame_ns,
            "core.encode_allocs_per_msg" => self.core_encode_allocs_per_msg,
            "vgpu.mem_write_gib_per_s" => self.vgpu_mem_write_gib_per_s,
            "vgpu.mem_read_gib_per_s" => self.vgpu_mem_read_gib_per_s,
            "vgpu.launch_ns" => self.vgpu_launch_ns,
            "vgpu.alloc_free_ns" => self.vgpu_alloc_free_ns,
            "arm.req_codec_ns" => self.arm_req_codec_ns,
            "arm.pool_tick_ns" => self.arm_pool_tick_ns,
            "sched.decision_ns" => self.sched_decision_ns,
            "sched.shed_ns" => self.sched_shed_ns,
            "telemetry.span_record_ns" => self.telemetry_span_record_ns,
            _ => return None,
        })
    }
}

/// Median of `REPS` runs of `f`, which returns one repetition's unit cost.
fn median(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

/// ns per iteration of `iters` calls to `f`.
fn ns_per_iter(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn random_bytes(rng: &mut ChaCha8Rng, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    Bytes::from(v)
}

/// Run every probe on inputs generated from `seed`.
pub fn run(seed: u64) -> Probes {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x70726f6265); // "probe"
    let mut p = Probes::default();
    sim(&mut rng, &mut p);
    fabric(&mut rng, &mut p);
    core(&mut rng, &mut p);
    vgpu(&mut rng, &mut p);
    arm(&mut p);
    sched(&mut rng, &mut p);
    telemetry(&mut p);
    p
}

fn sim(rng: &mut ChaCha8Rng, p: &mut Probes) {
    // As many sleepers as `ctrl_churn` has live tasks, each through a run
    // of seeded delays: the calendar (heap push/pop), waker and
    // ready-queue cost of one event at that population.
    const TASKS: usize = 256;
    const DELAYS: usize = 160;
    let delays: Vec<u64> = (0..TASKS * DELAYS)
        .map(|_| rng.gen_range(100..1_000_000))
        .collect();
    p.sim_timer_ns_per_event = median(|| {
        let mut sim = Sim::new();
        let h = sim.handle();
        for t in 0..TASKS {
            let (h, d) = (h.clone(), delays[t * DELAYS..(t + 1) * DELAYS].to_vec());
            sim.spawn("sleeper", async move {
                for ns in d {
                    h.delay(SimDuration::from_nanos(ns)).await;
                }
            });
        }
        let t0 = Instant::now();
        let outcome = sim.run();
        t0.elapsed().as_nanos() as f64 / outcome.events as f64
    });

    const PINGS: usize = 100_000;
    p.sim_chan_ns_per_msg = median(|| {
        let mut sim = Sim::new();
        let (to_b, from_a) = channel::<u64>();
        let (to_a, from_b) = channel::<u64>();
        sim.spawn("ping", async move {
            for i in 0..PINGS as u64 {
                to_b.send(i).expect("pong task alive");
                black_box(from_b.recv().await.expect("pong task alive"));
            }
        });
        sim.spawn("pong", async move {
            while let Ok(v) = from_a.recv().await {
                if to_a.send(v).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        sim.run();
        t0.elapsed().as_nanos() as f64 / (2 * PINGS) as f64
    });

    // Spawn-and-complete in waves the size of a cluster build. (The
    // ready queue scans itself on every push, so one 100 k wave would
    // time that scan and nothing else.)
    const WAVES: usize = 100;
    const WAVE: usize = 256;
    p.sim_spawn_ns_per_task = median(|| {
        let mut sim = Sim::new();
        let t0 = Instant::now();
        for _ in 0..WAVES {
            for i in 0..WAVE {
                sim.spawn("leaf", async move {
                    black_box(i);
                });
            }
            sim.run();
        }
        t0.elapsed().as_nanos() as f64 / (WAVES * WAVE) as f64
    });
}

fn fabric(rng: &mut ChaCha8Rng, p: &mut Probes) {
    const MSGS: usize = 10_000;
    let body = random_bytes(rng, 512);
    let mut events_per_msg = 0.0;
    p.fabric_send_recv_ns_per_msg = median(|| {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::with_spec(
            &h,
            2,
            FabricParams::qdr_infiniband(),
            TopologySpec::SingleSwitch,
        );
        let fabric = Fabric::new(&h, topo);
        let (a, b) = (
            fabric.add_endpoint(NodeId(0)),
            fabric.add_endpoint(NodeId(1)),
        );
        let (ra, rb, tag) = (a.rank(), b.rank(), Tag(7));
        let body = body.clone();
        sim.spawn("tx", async move {
            for _ in 0..MSGS {
                a.send(rb, tag, Payload::from_bytes(body.clone())).await;
            }
        });
        sim.spawn("rx", async move {
            for _ in 0..MSGS {
                black_box(b.recv(Some(ra), Some(tag)).await);
            }
        });
        let t0 = Instant::now();
        let outcome = sim.run();
        events_per_msg = outcome.events as f64 / MSGS as f64;
        t0.elapsed().as_nanos() as f64 / MSGS as f64
    });
    p.fabric_events_per_msg = events_per_msg;

    // `TopologyModel::route` over all ordered pairs; fat tree and
    // dragonfly at the shapes the CI topology matrix runs.
    let route_ns = |spec: TopologySpec| {
        let model = spec.model(ROUTE_HOSTS);
        median(|| {
            ns_per_iter(ROUTE_HOSTS * ROUTE_HOSTS, |i| {
                let (s, d) = (i / ROUTE_HOSTS, i % ROUTE_HOSTS);
                if s != d {
                    black_box(model.route(black_box(s), black_box(d)));
                }
            })
        })
    };
    p.fabric_route_ns_switch = route_ns(TopologySpec::SingleSwitch);
    p.fabric_route_ns_fattree = route_ns(TopologySpec::FatTree { radix: 4 });
    p.fabric_route_ns_dragonfly = route_ns(TopologySpec::Dragonfly { groups: 3 });

    let four_mib = Payload::from_bytes(random_bytes(rng, FOUR_MIB));
    let blocks_per_call = (FOUR_MIB / BLOCK_128K) as f64;
    p.fabric_payload_blocks_ns_per_block = median(|| {
        ns_per_iter(2_000, |_| {
            black_box(black_box(&four_mib).blocks(BLOCK_128K as u64));
        }) / blocks_per_call
    });

    // What a D2H hands the application: 32 sealed-and-opened 128 KiB
    // segments chained, realized contiguously.
    let chained = Payload::chain(
        four_mib
            .blocks(BLOCK_128K as u64)
            .iter()
            .map(Payload::to_bytes)
            .collect(),
    );
    p.fabric_payload_to_bytes_gib_per_s = median(|| {
        let ns = ns_per_iter(20, |_| {
            black_box(black_box(&chained).to_bytes());
        });
        FOUR_MIB as f64 / GIB / (ns / 1e9)
    });
}

fn core(rng: &mut ChaCha8Rng, p: &mut Probes) {
    let four_mib = random_bytes(rng, FOUR_MIB);
    p.core_crc_gib_per_s = median(|| {
        let ns = ns_per_iter(20, |_| {
            black_box(crc32(black_box(&four_mib)));
        });
        FOUR_MIB as f64 / GIB / (ns / 1e9)
    });

    let mut seal_open = |len: usize| {
        let block = Payload::from_bytes(random_bytes(rng, len));
        let sealed = seal_block(&block);
        assert_eq!(sealed.len(), len as u64 + CRC_TRAILER_BYTES);
        let iters = (16 << 20) / len;
        let seal = median(|| {
            ns_per_iter(iters, |_| {
                black_box(seal_block(black_box(&block)));
            })
        });
        let open = median(|| {
            ns_per_iter(iters, |_| {
                black_box(open_block(black_box(&sealed)).expect("intact block"));
            })
        });
        (seal, open)
    };
    (p.core_seal_ns_128k, p.core_open_ns_128k) = seal_open(BLOCK_128K);
    (p.core_seal_ns_512k, p.core_open_ns_512k) = seal_open(BLOCK_512K);

    // The request `ctrl_churn` sends most: a fused launch with three args.
    let req = Request::Launch {
        name: "fill_f64".to_owned(),
        args: vec![
            KernelArg::Ptr(DevicePtr(rng.gen_range(256..1 << 30))),
            KernelArg::U64(256),
            KernelArg::F64(rng.gen()),
        ],
        grid: (1, 1, 1),
        block: (256, 1, 1),
    };
    const CODEC_ITERS: usize = 50_000;
    let mut buf = EncodeBuf::new();
    p.core_req_encode_ns = median(|| {
        ns_per_iter(CODEC_ITERS, |_| {
            black_box(black_box(&req).encode_into(&mut buf));
        })
    });
    let allocs_before = crate::alloc::count();
    for _ in 0..CODEC_ITERS {
        black_box(req.encode_into(&mut buf));
    }
    p.core_encode_allocs_per_msg =
        (crate::alloc::count() - allocs_before) as f64 / CODEC_ITERS as f64;
    let wire = req.encode_into(&mut buf);
    p.core_req_decode_ns = median(|| {
        ns_per_iter(CODEC_ITERS, |_| {
            black_box(Request::decode(black_box(&wire)).expect("own encoding"));
        })
    });
    let frame = RequestFrame {
        op_id: rng.gen(),
        attempt: 0,
        epoch: 1,
        deadline: None,
        req,
    };
    p.core_frame_ns = median(|| {
        ns_per_iter(CODEC_ITERS, |_| {
            let wire = black_box(&frame).encode_into(&mut buf);
            black_box(RequestFrame::decode(&wire).expect("own encoding"));
        })
    });
}

fn vgpu(rng: &mut ChaCha8Rng, p: &mut Probes) {
    let four_mib = Payload::from_bytes(random_bytes(rng, FOUR_MIB));
    let mut mem = DeviceMem::new(1 << 30, ExecMode::Functional);
    let ptr = mem.alloc(FOUR_MIB as u64).expect("1 GiB device");
    let rate = |ns: f64| FOUR_MIB as f64 / GIB / (ns / 1e9);
    p.vgpu_mem_write_gib_per_s = median(|| {
        rate(ns_per_iter(20, |_| {
            mem.write_payload(ptr, black_box(&four_mib))
                .expect("in bounds");
        }))
    });
    p.vgpu_mem_read_gib_per_s = median(|| {
        rate(ns_per_iter(20, |_| {
            black_box(mem.read_payload(ptr, FOUR_MIB as u64).expect("in bounds"));
        }))
    });
    p.vgpu_alloc_free_ns = median(|| {
        ns_per_iter(100_000, |_| {
            let q = mem.alloc(black_box(2048)).expect("1 GiB device");
            mem.free(q).expect("just allocated");
        })
    });

    // A local `fill_f64` of 256 elements: registry lookup, cost model,
    // compute-engine acquire, one timer and the kernel body.
    const LAUNCHES: usize = 20_000;
    let value: f64 = rng.gen();
    let mut events_per_launch = 0.0;
    p.vgpu_launch_ns = median(|| {
        let mut sim = Sim::new();
        let registry = KernelRegistry::new();
        register_builtin_kernels(&registry);
        let gpu = VirtualGpu::new(
            &sim.handle(),
            "probe",
            GpuParams::tesla_c1060(),
            ExecMode::Functional,
            registry,
        );
        sim.spawn("launcher", async move {
            let ptr = gpu.alloc(2048).await.expect("empty device");
            let args = [
                KernelArg::Ptr(ptr),
                KernelArg::U64(256),
                KernelArg::F64(value),
            ];
            for _ in 0..LAUNCHES {
                gpu.launch("fill_f64", LaunchConfig::linear(1, 256), &args)
                    .await
                    .expect("registered kernel");
            }
        });
        let t0 = Instant::now();
        let outcome = sim.run();
        events_per_launch = outcome.events as f64 / LAUNCHES as f64;
        t0.elapsed().as_nanos() as f64 / LAUNCHES as f64
    });
    p.vgpu_events_per_launch = events_per_launch;
}

fn arm(p: &mut Probes) {
    let req = ArmRequest::Allocate {
        job: JobId(7),
        count: 4,
        wait: true,
    };
    let mut buf = EncodeBuf::new();
    p.arm_req_codec_ns = median(|| {
        ns_per_iter(50_000, |i| {
            let wire = frame_request(i as u64, black_box(&req), &mut buf);
            let (_, body) = peek_frame(&wire).expect("framed");
            black_box(ArmRequest::decode(body).expect("own encoding"));
        })
    });

    // `Pool::tick` is the ARM's lazy health sweep, run before every
    // message: 64 healthy, leased-out accelerators, beats kept fresh.
    let nodes: Vec<NodeId> = (0..64).map(|i| NodeId(17 + i)).collect();
    let ranks: Vec<Rank> = (0..64).map(|i| Rank(17 + i)).collect();
    let mut pool = Pool::new(inventory(&nodes, &ranks));
    let hc = HealthConfig::default();
    pool.set_health(hc);
    let t0 = SimTime::ZERO + SimDuration::from_micros(1);
    for j in 0..16 {
        pool.try_allocate_at(JobId(j), 4, Some(t0))
            .expect("64 free");
    }
    let mut now = t0;
    p.arm_pool_tick_ns = median(|| {
        ns_per_iter(20_000, |i| {
            now += SimDuration::from_micros(10);
            if i % 50 == 0 {
                for a in 0..64 {
                    let _ = pool.heartbeat(dacc_arm::state::AcceleratorId(a), 0, 1, now);
                }
            }
            black_box(pool.tick(now));
        })
    });
}

fn sched(rng: &mut ChaCha8Rng, p: &mut Probes) {
    const JOBS: usize = 1_000;
    let jobs: Vec<JobReq> = (0..JOBS)
        .map(|j| JobReq {
            job: j as u64,
            tenant: TenantId(rng.gen_range(0..4)),
            gang: [1, 2, 4][rng.gen_range(0..3)],
            share_ok: false,
        })
        .collect();
    p.sched_decision_ns = median(|| {
        let mut s = Scheduler::new(64);
        for t in 0..4 {
            s.set_tenant(TenantId(t), TenantConfig::weighted(1 + t));
        }
        let mut free = 64u32;
        let mut running = std::collections::VecDeque::new();
        ns_per_iter(JOBS, |j| {
            black_box(s.submit(jobs[j]));
            for placed in s.dispatch(Capacity {
                free,
                share_slots: 0,
            }) {
                free -= placed.gang;
                running.push_back((placed.job, placed.gang));
            }
            // Closed pool: retire the oldest job once half the pool is busy.
            if free < 32 {
                if let Some((job, gang)) = running.pop_front() {
                    s.finished(job);
                    free += gang;
                }
            }
        })
    });

    let queue: Vec<(u32, u64)> = (0..64)
        .map(|_| (rng.gen_range(0..4), rng.gen_range(1..1_000_000)))
        .collect();
    p.sched_shed_ns = median(|| {
        ns_per_iter(20_000, |_| {
            black_box(shed_overflow(black_box(&queue), 16));
        })
    });
}

fn telemetry(p: &mut Probes) {
    let sim = Sim::new();
    let h = sim.handle();
    let tele = Telemetry::new(dacc_telemetry::DEFAULT_SPAN_CAPACITY);
    p.telemetry_span_record_ns = median(|| {
        ns_per_iter(100_000, |i| {
            drop(
                tele.span(&h, "probe.span", || "probe".to_owned())
                    .op(i as u64),
            );
        })
    });
}
