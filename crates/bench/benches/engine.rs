//! Simulator-core performance: how fast the discrete-event engine and the
//! fabric run on the host (events/second), so regressions in the engine
//! itself are caught.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use dacc_fabric::prelude::*;
use dacc_sim::prelude::*;

/// [`System`] plus a count of allocation calls, so the benches below can pin
/// allocations per message and per block the way they pin events.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, so `Relaxed` is enough.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocation calls it made (the benches run on one
/// thread).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Allocations per unit beyond a fixed set-up: what `n` more units of `run`
/// cost, divided by `n`.
fn allocs_per(run: impl Fn(u64) -> u64, n: u64) -> f64 {
    let (_, small) = counted(|| run(n));
    let (_, large) = counted(|| run(2 * n));
    (large - small) as f64 / n as f64
}

fn bench_executor(c: &mut Criterion) {
    c.bench_function("engine/10k_timers", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            for i in 0..10_000u64 {
                let h = sim.handle();
                sim.spawn("t", async move {
                    h.delay(SimDuration::from_nanos(i % 977)).await;
                });
            }
            let out = sim.run();
            assert_eq!(out.pending_tasks, 0);
            out.events
        })
    });

    c.bench_function("engine/channel_ping_1k", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let (tx, rx) = channel::<u64>();
            let (tx2, rx2) = channel::<u64>();
            sim.spawn("a", async move {
                for i in 0..1000u64 {
                    tx.send(i).unwrap();
                    rx2.recv().await.unwrap();
                }
            });
            sim.spawn("b", async move {
                while let Ok(v) = rx.recv().await {
                    if tx2.send(v).is_err() {
                        break;
                    }
                }
            });
            sim.run().events
        })
    });

    // A whole wave becomes ready at once and every task is woken a second
    // time while the wave is still queued: the cost of one ready-queue push
    // must not depend on the queue's length.
    c.bench_function("engine/spawn_wave_100k", |b| {
        b.iter(|| {
            const N: usize = 100_000;
            let mut sim = Sim::new();
            let (mut txs, rxs): (Vec<_>, Vec<_>) = (0..N).map(|_| channel::<()>()).unzip();
            txs.rotate_left(1);
            for (rx, tx) in rxs.into_iter().zip(txs) {
                sim.spawn("wave", async move {
                    tx.send(()).unwrap();
                    rx.recv().await.unwrap();
                });
            }
            let out = sim.run();
            assert_eq!(out.pending_tasks, 0);
            out.events
        })
    });

    // One timeout raced against 1 000 replies, both polled on every wake
    // (`recv_timeout`, retry and ARM deadlines have this shape). The timer
    // loses: its entry pops at 1 s and wakes nobody.
    c.bench_function("engine/raced_timeout_1k", |b| {
        b.iter(|| {
            use std::future::{poll_fn, Future};
            use std::pin::Pin;
            use std::task::Poll;
            let mut sim = Sim::new();
            let (tx, rx) = channel::<u64>();
            let h = sim.handle();
            sim.spawn("replies", async move {
                for i in 0..1000u64 {
                    h.delay(SimDuration::from_micros(1)).await;
                    tx.send(i).unwrap();
                }
            });
            let h = sim.handle();
            sim.spawn("racer", async move {
                let mut timer = Box::pin(h.delay(SimDuration::from_secs(1)));
                poll_fn(|cx| {
                    while let Poll::Ready(msg) = Pin::new(&mut rx.recv()).poll(cx) {
                        if msg.is_err() {
                            return Poll::Ready(());
                        }
                    }
                    timer.as_mut().poll(cx)
                })
                .await
            });
            let events = sim.run().events;
            assert_eq!(events, 2001 + 1001 + 1);
            events
        })
    });

    // Stand a cluster up, leave its daemons and ARM parked on their
    // receives, and drop it: what every figure point, proptest case
    // and benchmark round pays around its measured work.
    c.bench_function("engine/build_drop_parked_cluster", |b| {
        use dacc_runtime::cluster::{build_cluster, ClusterSpec};
        use dacc_vgpu::kernel::KernelRegistry;
        b.iter(|| {
            let mut sim = Sim::new();
            let spec = ClusterSpec {
                compute_nodes: 16,
                accelerators: 64,
                ..ClusterSpec::default()
            };
            let cluster = build_cluster(&sim, spec, KernelRegistry::new());
            let out = sim.run();
            drop(cluster);
            drop(sim);
            out.pending_tasks
        })
    });
}

fn bench_fabric(c: &mut Criterion) {
    c.bench_function("fabric/pingpong_1MiB", |b| {
        b.iter(|| {
            let pts = run_pingpong(FabricParams::qdr_infiniband(), &[1 << 20], 3);
            pts[0].half_rtt
        })
    });

    c.bench_function("fabric/500_small_messages", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let h = sim.handle();
            let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
            let fabric = Fabric::new(&h, topo);
            let a = fabric.add_endpoint(NodeId(0));
            let bb = fabric.add_endpoint(NodeId(1));
            sim.spawn("send", async move {
                for i in 0..500u32 {
                    a.send(Rank(1), Tag(i), Payload::size_only(512)).await;
                }
            });
            sim.spawn("recv", async move {
                for i in 0..500u32 {
                    bb.recv(None, Some(Tag(i))).await;
                }
            });
            sim.run().events
        })
    });
}

/// `n` back-to-back messages of `bytes` each between two endpoints on the
/// paper's fabric; returns the run's events.
fn message_stream(n: u32, bytes: u64) -> u64 {
    let mut sim = Sim::new();
    let h = sim.handle();
    let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
    let fabric = Fabric::new(&h, topo);
    let a = fabric.add_endpoint(NodeId(0));
    let b = fabric.add_endpoint(NodeId(1));
    sim.spawn("send", async move {
        for _ in 0..n {
            a.send(Rank(1), Tag(1), Payload::size_only(bytes)).await;
        }
    });
    sim.spawn("recv", async move {
        for _ in 0..n {
            b.recv(Some(Rank(0)), Some(Tag(1))).await;
        }
    });
    let out = sim.run();
    assert_eq!(out.pending_tasks, 0);
    out.events
}

/// The unit cost of everything above the fabric: one message, by protocol.
/// Events per message are exact (the assertions), wall time is Criterion's.
fn bench_messages(c: &mut Criterion) {
    // Per message, either protocol: the two oneshots the sending and the
    // receiving task await. Frames, receive completions and deadlines are
    // slab records; only growth of a slab or a queue adds the fraction.
    let eager = allocs_per(|n| message_stream(n as u32, 512), 1_000);
    let rendezvous = allocs_per(|n| message_stream(n as u32, 1 << 20), 1_000);
    assert!(eager < 2.1 && rendezvous < 2.1, "{eager} {rendezvous}");
    c.bench_function("engine/eager_msg_10k", |b| {
        b.iter(|| {
            let events = message_stream(10_000, 512);
            // Per message: sender 2 (the frame's injection call after
            // `o_send`, which completes the request; poll), frame 2 (end of
            // serialization, arrival), receiver 2 (the `o_recv` call that
            // completes the receive; poll). Queueing for the TX wire behind
            // the predecessor costs no event. Plus the two first polls.
            assert_eq!(events, 6 * 10_000 + 2);
            events
        })
    });

    c.bench_function("engine/rendezvous_msg_1k", |b| {
        b.iter(|| {
            let events = message_stream(1_000, 1 << 20);
            // Per message: sender 2 (RTS injection call; poll once the
            // payload is on the wire), frames 6 (end of serialization and
            // arrival of RTS, CTS and payload), receiver 2. Plus the two
            // first polls.
            assert_eq!(events, 10 * 1_000 + 2);
            events
        })
    });

    // Eight senders stream rendezvous messages into one receiver: every RTS
    // and every payload queues for the receiver's RX wire, every CTS for its
    // TX wire — the queued-waiter path of the FCFS links, where a frame is
    // granted its wire inside the release that frees it.
    c.bench_function("engine/contended_link_1k", |b| {
        b.iter(|| {
            const SENDERS: usize = 8;
            const PER_SENDER: usize = 125;
            let mut sim = Sim::new();
            let h = sim.handle();
            let topo = Topology::new(&h, SENDERS + 1, FabricParams::qdr_infiniband());
            let fabric = Fabric::new(&h, topo);
            let rx = fabric.add_endpoint(NodeId(0));
            for node in 1..=SENDERS {
                let tx = fabric.add_endpoint(NodeId(node));
                sim.spawn("send", async move {
                    for _ in 0..PER_SENDER {
                        tx.send(Rank(0), Tag(1), Payload::size_only(64 << 10)).await;
                    }
                });
            }
            sim.spawn("recv", async move {
                for _ in 0..SENDERS * PER_SENDER {
                    rx.recv(None, Some(Tag(1))).await;
                }
            });
            let out = sim.run();
            assert_eq!(out.pending_tasks, 0);
            let queued = fabric.topology().link_stats()[1].peak_queue;
            assert!(queued >= SENDERS as u64 - 1, "RX wire queue: {queued}");
            // The same 10 events per message as on idle wires — waiting for
            // a wire is not an event — plus the nine first polls.
            assert_eq!(out.events, 10 * 1_000 + 9);
            out.events
        })
    });
}

/// Events of one timing-only run that allocates and copies `blocks` blocks
/// of 128 KiB one way or the other between one front-end and one daemon
/// on the default pipeline, and shuts the daemon down.
fn copy_train(h2d: bool, blocks: u64) -> u64 {
    use dacc_runtime::prelude::*;
    use dacc_vgpu::kernel::KernelRegistry;
    use dacc_vgpu::params::ExecMode;
    let mut sim = Sim::new();
    let spec = ClusterSpec {
        compute_nodes: 1,
        accelerators: 1,
        mode: ExecMode::TimingOnly,
        ..ClusterSpec::default()
    };
    let mut cluster = build_cluster(&sim, spec, KernelRegistry::new());
    let ep = cluster.cn_endpoints.remove(0);
    let daemon = cluster.daemon_rank(0);
    // Below the adaptive threshold: 128 KiB blocks both ways.
    let config = FrontendConfig {
        h2d: TransferProtocol::Pipeline { block: 128 << 10 },
        ..FrontendConfig::default()
    };
    let len = blocks * (128 << 10);
    sim.spawn("app", async move {
        let ac = RemoteAccelerator::new(ep, daemon, config);
        let ptr = ac.mem_alloc(len).await.unwrap();
        if h2d {
            ac.mem_cpy_h2d(&Payload::size_only(len), ptr).await.unwrap();
        } else {
            ac.mem_cpy_d2h(ptr, len).await.unwrap();
        }
        ac.shutdown().await.unwrap();
    });
    sim.run().events
}

/// The unit cost of a copy: one pipelined block, each way. Events per block
/// are exact (the assertions), wall time is Criterion's.
fn bench_trains(c: &mut Criterion) {
    // A pipelined block allocates nothing of its own: its frames, its
    // receive's completion, its copy-engine service and the train's stages
    // are records in slabs, told by index or token.
    let h2d = allocs_per(|n| copy_train(true, n), 1_000);
    let d2h = allocs_per(|n| copy_train(false, n), 1_000);
    assert!(h2d < 0.1 && d2h < 0.1, "{h2d} {d2h}");
    // Per block: 8 for its three frames (end of serialization and arrival
    // of RTS, CTS, payload) and `o_send`/`o_recv`, one calendar call for the
    // daemon's per-block cost and one for the copy engine — no task, no
    // poll. The rest is the allocation, the request and response, and the
    // shutdown around the copy.
    c.bench_function("engine/h2d_train_1k", |b| {
        b.iter(|| {
            let events = copy_train(true, 1_000);
            assert_eq!(events, 10 * 1_000 + 48);
            events
        })
    });
    c.bench_function("engine/d2h_train_1k", |b| {
        b.iter(|| {
            let events = copy_train(false, 1_000);
            assert_eq!(events, 10 * 1_000 + 49);
            events
        })
    });
}

criterion_group!(
    benches,
    bench_executor,
    bench_fabric,
    bench_messages,
    bench_trains
);
criterion_main!(benches);
