//! Property-based tests over the core invariants of every subsystem.

use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_tests::{full_cluster, pattern};
use dacc_vgpu::kernel::{KernelArg, LaunchConfig};
use dacc_vgpu::memory::{DeviceMem, DevicePtr, ALIGN};
use dacc_vgpu::params::ExecMode;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting any payload into any block size and reassembling is
    /// lossless, in both functional and size-only modes.
    #[test]
    fn payload_block_roundtrip(len in 0usize..10_000, block in 1u64..5_000, salt: u8) {
        let data = pattern(len, salt);
        let p = Payload::from_vec(data.clone());
        let blocks = p.blocks(block);
        let back = Payload::concat(&blocks);
        prop_assert_eq!(back.expect_bytes().as_ref(), data.as_slice());

        let s = Payload::size_only(len as u64);
        prop_assert_eq!(Payload::concat(&s.blocks(block)).len(), len as u64);
    }

    /// The device allocator never hands out overlapping regions, and
    /// free+coalesce conserves capacity.
    #[test]
    fn allocator_no_overlap_no_leak(ops in proptest::collection::vec((0u8..2, 1u64..5000), 1..60)) {
        let capacity = 1u64 << 20;
        let mut mem = DeviceMem::new(capacity, ExecMode::TimingOnly);
        let mut live: Vec<(DevicePtr, u64)> = Vec::new();
        for (op, len) in ops {
            if op == 0 || live.is_empty() {
                if let Ok(ptr) = mem.alloc(len) {
                    // Overlap check against all live allocations.
                    let a0 = ptr.0;
                    let a1 = ptr.0 + len;
                    for &(q, qlen) in &live {
                        let b0 = q.0;
                        let b1 = q.0 + qlen;
                        prop_assert!(a1 <= b0 || b1 <= a0,
                            "overlap: [{a0},{a1}) vs [{b0},{b1})");
                    }
                    live.push((ptr, len));
                }
            } else {
                let idx = (len as usize) % live.len();
                let (ptr, _) = live.swap_remove(idx);
                prop_assert!(mem.free(ptr).is_ok());
            }
        }
        // Free everything: the full capacity must come back.
        for (ptr, _) in live {
            prop_assert!(mem.free(ptr).is_ok());
        }
        prop_assert_eq!(mem.free_bytes(), capacity - ALIGN);
        prop_assert_eq!(mem.used(), 0);
        prop_assert_eq!(mem.allocation_count(), 0);
    }

    /// The ARM pool keeps exclusivity and conservation under arbitrary
    /// allocate/release/break sequences.
    #[test]
    fn arm_pool_invariants(ops in proptest::collection::vec((0u8..4, 0u64..6, 1u32..4), 1..80)) {
        use dacc_arm::state::{inventory, AcceleratorId, JobId, Pool};
        use dacc_fabric::mpi::Rank;
        use dacc_fabric::topology::NodeId;
        let n = 5;
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let ranks: Vec<Rank> = (10..10 + n).map(Rank).collect();
        let mut pool = Pool::new(inventory(&nodes, &ranks));
        for (op, job, count) in ops {
            let job = JobId(job);
            match op {
                0 => {
                    let _ = pool.try_allocate(job, count);
                }
                1 => {
                    let held: Vec<AcceleratorId> = pool.held_by(job).to_vec();
                    if !held.is_empty() {
                        let take = (count as usize).min(held.len());
                        let _ = pool.release(job, &held[..take]);
                    }
                }
                2 => {
                    pool.release_job(job);
                }
                _ => {
                    let _ = pool.mark_broken(AcceleratorId(count as usize % n));
                }
            }
            pool.check_invariants();
            let s = pool.stats();
            prop_assert_eq!(s.free + s.assigned + s.broken, n as u32);
        }
    }

    /// Wire-protocol requests survive encode/decode for arbitrary field
    /// values.
    #[test]
    fn request_codec_roundtrip(
        op in 0u8..7,
        a: u64, b: u64, c: u32,
        name in "[a-z_.]{1,24}",
    ) {
        use dacc_runtime::proto::{Request, WireProtocol};
        let req = match op {
            0 => Request::MemAlloc { len: a },
            1 => Request::MemFree { ptr: DevicePtr(a) },
            2 => Request::MemCpyH2D {
                dst: DevicePtr(a),
                len: b,
                protocol: if c % 2 == 0 {
                    WireProtocol::Naive
                } else {
                    WireProtocol::Pipeline { block: (c as u64).max(1) }
                },
            },
            3 => Request::MemCpyD2H {
                src: DevicePtr(a),
                len: b,
                protocol: WireProtocol::Pipeline { block: (c as u64).max(1) },
            },
            4 => Request::KernelCreate { name },
            5 => Request::PeerSend { src: DevicePtr(a), len: b, peer: c, block: (a % 997).max(1) },
            _ => Request::PeerRecv { dst: DevicePtr(a), len: b, from: c, block: (b % 997).max(1) },
        };
        prop_assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    /// Control batches round-trip for arbitrary entry sets through the
    /// arena encoder, and any single-bit corruption of the sealed frame
    /// is rejected as a [`DecodeError`] (never a panic).
    #[test]
    fn control_batch_roundtrip_and_rejects_corruption(
        entries in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..12,
        ),
        flip: u16,
    ) {
        use bytes::Bytes;
        use dacc_fabric::codec::EncodeBuf;
        use dacc_runtime::proto::ControlBatch;
        let batch = ControlBatch {
            entries: entries
                .iter()
                .map(|(tag, body)| (*tag, Bytes::from(body.clone())))
                .collect(),
        };
        let mut enc = EncodeBuf::new();
        let bytes = batch.encode_into(&mut enc);
        let back = ControlBatch::decode(&bytes);
        prop_assert_eq!(back, Ok(batch));
        // A sealed frame is CRC-protected: flipping any one bit must be
        // detected (CRC32 catches all single-bit errors).
        let mut damaged = bytes.to_vec();
        let pos = (flip as usize / 8) % damaged.len();
        damaged[pos] ^= 1 << (flip % 8);
        prop_assert!(ControlBatch::decode(&Bytes::from(damaged)).is_err());
    }

    /// A chained (scatter-gather) payload is indistinguishable from its
    /// contiguous equivalent: length, arbitrary sub-slices, and
    /// seal/open across segment boundaries all agree byte-for-byte.
    #[test]
    fn chained_payload_slices_like_contiguous(
        segs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..8,
        ),
        offset_sel: u64,
        len_sel: u64,
    ) {
        use bytes::Bytes;
        use dacc_runtime::proto::{open_block, seal_block};
        let flat: Vec<u8> = segs.iter().flatten().copied().collect();
        let chain = Payload::chain(
            segs.iter().map(|s| Bytes::from(s.clone())).collect(),
        );
        let total = flat.len() as u64;
        prop_assert_eq!(chain.len(), total);
        let offset = if total == 0 { 0 } else { offset_sel % (total + 1) };
        let len = len_sel % (total - offset + 1);
        let slice = chain.slice(offset, len);
        prop_assert_eq!(
            slice.to_bytes().as_ref(),
            &flat[offset as usize..(offset + len) as usize]
        );
        // Sealing chains the CRC trailer on as one more segment; opening
        // must verify it straddling whatever cuts the chain has.
        let opened = open_block(&seal_block(&chain)).expect("sealed chain must verify");
        prop_assert_eq!(opened.to_bytes().as_ref(), flat.as_slice());
    }

    /// Scrambled per-attempt tags stay inside their documented ranges —
    /// response tags in `0x4000_0000..0x8000_0000`, data tags in
    /// `0x8000_0000..0xC000_0000`, stream tags in `0xC000_0000..0xE000_0000`
    /// — so no class can collide with another, with the reserved
    /// `0xFFFF_00xx` tags, or with small application tags.
    #[test]
    fn tag_ranges_disjoint(op_id: u64, attempt in 0u32..8, stream: u32) {
        use dacc_runtime::proto::ac_tags;
        let r = ac_tags::response_tag(op_id, attempt).0;
        let d = ac_tags::data_tag(op_id, attempt).0;
        let sa = ac_tags::stream_ack_tag(stream).0;
        let sd = ac_tags::stream_data_tag(stream).0;
        prop_assert!((0x4000_0000..0x8000_0000).contains(&r), "response {r:#x}");
        prop_assert!((0x8000_0000..0xC000_0000).contains(&d), "data {d:#x}");
        prop_assert!((0xC000_0000..0xD000_0000).contains(&sa), "stream ack {sa:#x}");
        prop_assert!((0xD000_0000..0xE000_0000).contains(&sd), "stream data {sd:#x}");
    }

    /// Within one bounded-retry operation, every attempt gets a distinct
    /// response (and data) tag, and no attempt of a *different* recent
    /// operation shares one — the property that lets a late response from
    /// an abandoned attempt rot unclaimed instead of corrupting a
    /// neighbouring op. Bounded retry means at most `max_retries + 1 ≤ 6`
    /// attempts per op; ops are the client's monotone counter.
    #[test]
    fn tag_scramble_collision_free_per_client_window(base_op in 0u64..1_000_000) {
        use dacc_runtime::proto::ac_tags;
        use std::collections::HashMap;
        // A window of consecutive op-ids, as one client's retry plane
        // would mint them, each with the full attempt fan-out.
        let mut owners: HashMap<u32, (u64, u32)> = HashMap::new();
        for op_id in base_op..base_op + 64 {
            for attempt in 0..6u32 {
                let t = ac_tags::response_tag(op_id, attempt).0;
                if let Some(&(o, a)) = owners.get(&t) {
                    prop_assert!(
                        false,
                        "tag {t:#x} shared by (op {op_id}, attempt {attempt}) and (op {o}, attempt {a})"
                    );
                }
                owners.insert(t, (op_id, attempt));
                // Data tags mirror response tags bit-for-bit in the low 30
                // bits, so one uniqueness argument covers both classes.
                prop_assert_eq!(
                    ac_tags::data_tag(op_id, attempt).0 & 0x3FFF_FFFF,
                    t & 0x3FFF_FFFF
                );
            }
        }
    }

    /// SRD conserves momentum and kinetic energy for arbitrary particle
    /// ensembles and rotation angles.
    #[test]
    fn srd_conservation(n in 2usize..300, seed: u64, alpha in 0.1f64..3.0) {
        use dacc_mp2c::particles::Particles;
        use dacc_mp2c::srd::{srd_collide, SrdParams};
        let mut rng = SimRng::new(seed);
        let mut p = Particles::random(n, [0.0; 3], [4.0; 3], &mut rng);
        let m0 = p.total_momentum();
        let e0 = p.kinetic_energy();
        srd_collide(&mut p, &SrdParams { cell_size: 1.0, alpha, box_size: [4.0; 3] }, seed, 1);
        let m1 = p.total_momentum();
        for a in 0..3 {
            prop_assert!((m0[a] - m1[a]).abs() < 1e-8);
        }
        prop_assert!((e0 - p.kinetic_energy()).abs() / e0.max(1e-9) < 1e-10);
    }

    /// CPU Cholesky then reconstruction matches the original for random SPD
    /// matrices.
    #[test]
    fn cpu_cholesky_reconstructs(n in 1usize..40, seed: u64, nb in 1usize..12) {
        use dacc_linalg::lapack::{cholesky_residual, dpotrf};
        use dacc_linalg::matrix::Matrix;
        let a = Matrix::random_spd(n, &mut SimRng::new(seed));
        let mut f = a.clone();
        prop_assert!(dpotrf(n, f.as_mut_slice(), n, nb).is_ok());
        prop_assert!(cholesky_residual(&a, &f) < 1e-10);
    }

    /// CPU blocked QR reproduces A for random shapes.
    #[test]
    fn cpu_qr_reconstructs(m in 1usize..30, extra in 0usize..10, seed: u64, nb in 1usize..8) {
        use dacc_linalg::lapack::{dgeqrf, qr_residuals};
        use dacc_linalg::matrix::Matrix;
        let n = m; // square up to...
        let m = m + extra; // ...tall
        let a = Matrix::random(m, n, &mut SimRng::new(seed));
        let mut f = a.clone();
        let tau = dgeqrf(m, n, f.as_mut_slice(), m, nb);
        let (resid, orth) = qr_residuals(&a, &f, &tau);
        prop_assert!(resid < 1e-8, "residual {}", resid);
        prop_assert!(orth < 1e-10, "orthogonality {}", orth);
    }
}

proptest! {
    // End-to-end transfers spin up a whole cluster per case: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full middleware path delivers bytes exactly for arbitrary sizes
    /// and pipeline block sizes (the paper's byte-exactness requirement).
    #[test]
    fn middleware_transfer_byte_exact(
        len in 1usize..200_000,
        block in 1u64..300_000,
        salt: u8,
    ) {
        let (mut sim, mut cluster) = full_cluster(1, 1, ExecMode::Functional);
        let ep = cluster.cn_endpoints.remove(0);
        let daemon = cluster.daemon_rank(0);
        let data = pattern(len, salt);
        let expect = data.clone();
        let cfg = FrontendConfig {
            h2d: TransferProtocol::Pipeline { block },
            d2h: TransferProtocol::Pipeline { block },
            ..FrontendConfig::default()
        };
        let out = sim.spawn("xfer", async move {
            let ac = RemoteAccelerator::new(ep, daemon, cfg);
            let ptr = ac.mem_alloc(len as u64).await.unwrap();
            ac.mem_cpy_h2d(&Payload::from_vec(data), ptr).await.unwrap();
            let back = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
            ac.shutdown().await.unwrap();
            back
        });
        sim.run();
        let back = out.try_take().expect("did not finish");
        prop_assert_eq!(back.expect_bytes().as_ref(), expect.as_slice());
    }
}

fn seeded_body(len: usize, seed: u64) -> Vec<u8> {
    use rand::{RngCore, SeedableRng};
    let mut body = vec![0u8; len];
    rand_chacha::ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut body);
    body
}

/// Cut `whole` into a chain. Each `(position, width)` pair cuts at
/// `position` and again `width` bytes on. The tests draw widths from two
/// ranges: 1..=70 bytes, which straddle the CRC kernel's 16 B and 64 B
/// strides, and 1..2000 bytes, which straddle its 256 B stride and the
/// 512 B hand-over to the 512-bit loop — so one chain has segments for the
/// table loop, the 128-bit loop and the 512-bit loop, and the register
/// crosses between them in every order.
fn cut_into_chain(whole: bytes::Bytes, cuts: &[(u64, u64)]) -> Payload {
    let len = whole.len();
    let mut at: Vec<usize> = cuts
        .iter()
        .flat_map(|&(pos, width)| {
            let a = (pos % (len as u64 + 1)) as usize;
            [a, (a + width as usize).min(len)]
        })
        .chain([0, len])
        .collect();
    at.sort_unstable();
    at.dedup();
    // Built by hand: `Payload::chain` would join the views back into one.
    Payload::Chain(at.windows(2).map(|w| whole.slice(w[0]..w[1])).collect())
}

proptest! {
    // Bodies reach 600 KiB: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sealing is blind to how a body is cut: a chain seals to the same
    /// bytes as its contiguous copy and opens back to the body, at sizes
    /// that cross from the table CRC into both loops of the
    /// carry-less-multiply kernel.
    #[test]
    fn sealed_chain_equals_sealed_contiguous(
        len in 0usize..=(600 << 10),
        seed: u64,
        cuts in proptest::collection::vec((any::<u64>(), 1u64..=70), 0..24),
        wide_cuts in proptest::collection::vec((any::<u64>(), 1u64..2000), 0..24),
    ) {
        use dacc_runtime::proto::{open_block, seal_block};
        let cuts = [cuts, wide_cuts].concat();
        let body = seeded_body(len, seed);
        let sealed = seal_block(&cut_into_chain(body.clone().into(), &cuts));
        prop_assert_eq!(
            sealed.to_bytes(),
            seal_block(&Payload::from_vec(body.clone())).to_bytes()
        );
        let opened = open_block(&sealed).expect("sealed chain must verify");
        prop_assert_eq!(opened.to_bytes().as_ref(), body.as_slice());
    }

    /// Any single flipped bit of a sealed block — body or trailer — fails
    /// verification, whatever chain the damaged block arrives as.
    #[test]
    fn any_flipped_bit_fails_open_block(
        len in 60usize..=(600 << 10),
        seed: u64,
        bit_sel: u64,
        cuts in proptest::collection::vec((any::<u64>(), 1u64..=70), 0..24),
        wide_cuts in proptest::collection::vec((any::<u64>(), 1u64..2000), 0..24),
    ) {
        use dacc_runtime::proto::{open_block, seal_block};
        let cuts = [cuts, wide_cuts].concat();
        let body = Payload::from_vec(seeded_body(len, seed));
        let mut sealed = seal_block(&body).to_bytes().to_vec();
        let bit = bit_sel % (sealed.len() as u64 * 8);
        sealed[(bit / 8) as usize] ^= 1 << (bit % 8);
        let whole = bytes::Bytes::from(sealed);
        prop_assert!(open_block(&Payload::from_bytes(whole.clone())).is_err(), "bit {bit}");
        prop_assert!(open_block(&cut_into_chain(whole, &cuts)).is_err(), "bit {bit}, chained");
    }
}

proptest! {
    // Each case spins up a chaos cluster: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Byte-exactness survives fault injection: for arbitrary transfer
    /// sizes, pipeline block sizes, and counted message drops in either
    /// direction of the client↔daemon link, the retry plane delivers the
    /// exact payload. Drop counts stay within the retry budget (4 retries
    /// absorb at most 2 lost requests plus 2 lost responses per op).
    #[test]
    fn chaos_transfer_byte_exact_under_drops(
        len in 1usize..60_000,
        block in 1u64..80_000,
        salt: u8,
        seed: u64,
        to_daemon in 0u32..3,
        to_client in 0u32..3,
        start_a in 0u64..60,
        start_b in 0u64..60,
    ) {
        use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
        let tracer = Tracer::new(16384);
        let plane = ChaosPlane::new(
            seed,
            FaultSchedule::new()
                .after_events(start_a, Fault::DropMessages {
                    src: Some(1), dst: Some(2), count: to_daemon,
                })
                .after_events(start_b, Fault::DropMessages {
                    src: Some(2), dst: Some(1), count: to_client,
                }),
        );
        let spec = dacc_tests::chaos_spec(1, 1, ExecMode::Functional);
        let (mut sim, mut cluster) = dacc_tests::cluster_from(spec);
        cluster.set_tracer(tracer);
        cluster.set_fault_hook(Some(plane));
        let ep = cluster.cn_endpoints.remove(0);
        let daemon = cluster.daemon_rank(0);
        let cfg = FrontendConfig {
            h2d: TransferProtocol::Pipeline { block },
            d2h: TransferProtocol::Pipeline { block },
            ..cluster.spec.frontend
        };
        let data = pattern(len, salt);
        let expect = data.clone();
        let out = sim.spawn("xfer", async move {
            let ac = RemoteAccelerator::new(ep, daemon, cfg);
            let ptr = ac.mem_alloc(len as u64).await.unwrap();
            ac.mem_cpy_h2d(&Payload::from_vec(data), ptr).await.unwrap();
            let back = ac.mem_cpy_d2h(ptr, len as u64).await.unwrap();
            ac.shutdown().await.unwrap();
            back
        });
        sim.run();
        let back = out.try_take().expect("did not finish under drops");
        prop_assert_eq!(back.expect_bytes().as_ref(), expect.as_slice());
    }
}

proptest! {
    // Each case spins up two clusters (faulty + reference): fewer cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Bounded-time recovery is semantically invisible: for arbitrary op
    /// interleavings (H2D, memset, kernel launch) split at an arbitrary
    /// checkpoint index, snapshot → log truncation → daemon kill →
    /// restore + tail replay yields bytes identical to the same op
    /// sequence executed on a healthy cluster with no checkpoint at all.
    #[test]
    fn checkpointed_recovery_matches_full_replay(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..32_000, 1u64..4_000, any::<u8>()),
            1..10,
        ),
        k in 0usize..10,
        seed: u64,
    ) {
        use dacc_arm::state::JobId;
        use dacc_chaos::{ChaosPlane, Fault, FaultSchedule};
        use dacc_vgpu::kernel::{KernelArg, LaunchConfig};

        let buf_len = 36_000u64;
        let k = k.min(ops.len());

        // One closure applies an op slice to any FailoverSession, so the
        // faulty and the reference run execute byte-for-byte the same
        // program.
        async fn apply(
            session: &FailoverSession,
            ptr: dacc_vgpu::memory::DevicePtr,
            ops: &[(u8, u64, u64, u8)],
        ) {
            for &(sel, offset, len, val) in ops {
                match sel {
                    0 => session
                        .mem_cpy_h2d(
                            &Payload::from_vec(pattern(len as usize, val)),
                            ptr.offset(offset),
                        )
                        .await
                        .map(|_| ())
                        .unwrap(),
                    1 => session.mem_set(ptr.offset(offset), len, val).await.unwrap(),
                    _ => {
                        let off = offset & !7;
                        let count = (len / 8).max(1);
                        session
                            .launch(
                                "fill_f64",
                                LaunchConfig::linear(count.div_ceil(128) as u32, 128),
                                &[
                                    KernelArg::Ptr(ptr.offset(off)),
                                    KernelArg::U64(count),
                                    KernelArg::F64(val as f64),
                                ],
                            )
                            .await
                            .unwrap();
                    }
                }
            }
        }

        // Faulty run: checkpoint at k, kill the granted daemon, read back
        // through failover recovery.
        let tracer = Tracer::new(65536);
        let plane = ChaosPlane::new(seed, FaultSchedule::new());
        let spec = dacc_tests::chaos_spec(1, 2, ExecMode::Functional);
        let (mut sim, mut cluster) = dacc_tests::cluster_from(spec);
        cluster.set_tracer(tracer);
        cluster.set_fault_hook(Some(plane.clone()));
        let arm_rank = cluster.arm_rank;
        let ep = cluster.cn_endpoints.remove(0);
        let frontend = cluster.spec.frontend;
        let (head, tail) = (ops[..k].to_vec(), ops[k..].to_vec());
        let job_plane = plane.clone();
        let out = sim.spawn("faulty", async move {
            let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
            let mut sessions = proc.acquire_resilient(1).await.unwrap();
            let session = sessions.remove(0);
            let ptr = session.mem_alloc(buf_len).await.unwrap();
            session.mem_set(ptr, buf_len, 0).await.unwrap();
            apply(&session, ptr, &head).await;
            session.checkpoint().await.unwrap();
            apply(&session, ptr, &tail).await;
            job_plane.inject(Fault::kill_daemon(2));
            let back = session.mem_cpy_d2h(ptr, buf_len).await.unwrap();
            proc.finish().await;
            (back, session.failovers())
        });
        sim.run();
        let (recovered, failovers) = out.try_take().expect("faulty run did not finish");
        prop_assert!(failovers >= 1, "the kill never forced a failover");

        // Reference run: same ops, healthy cluster, no checkpoint.
        let tracer = Tracer::new(65536);
        let spec = dacc_tests::chaos_spec(1, 1, ExecMode::Functional);
        let (mut sim, mut cluster) = dacc_tests::cluster_from(spec);
        cluster.set_tracer(tracer);
        let arm_rank = cluster.arm_rank;
        let ep = cluster.cn_endpoints.remove(0);
        let frontend = cluster.spec.frontend;
        let all = ops.clone();
        let out = sim.spawn("reference", async move {
            let proc = AcProcess::new(ep, arm_rank, JobId(1), frontend);
            let mut sessions = proc.acquire_resilient(1).await.unwrap();
            let session = sessions.remove(0);
            let ptr = session.mem_alloc(buf_len).await.unwrap();
            session.mem_set(ptr, buf_len, 0).await.unwrap();
            apply(&session, ptr, &all).await;
            let back = session.mem_cpy_d2h(ptr, buf_len).await.unwrap();
            proc.finish().await;
            back
        });
        sim.run();
        let reference = out.try_take().expect("reference run did not finish");
        prop_assert_eq!(
            recovered.expect_bytes().as_ref(),
            reference.expect_bytes().as_ref(),
            "checkpointed recovery diverged from full replay"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-(source, tag) message order is never violated, for arbitrary
    /// interleavings of small (eager) and large (rendezvous) messages
    /// across several tags.
    #[test]
    fn fabric_non_overtaking_random_messages(
        msgs in proptest::collection::vec((0u32..3, 1u64..60_000), 1..30),
    ) {
        use dacc_fabric::prelude::*;
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 2, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        // Sequence numbers per tag, stamped into the first 4 payload bytes.
        let mut per_tag: std::collections::HashMap<u32, u32> = Default::default();
        let plan: Vec<(u32, u64, u32)> = msgs
            .iter()
            .map(|&(tag, len)| {
                let seq = per_tag.entry(tag).or_insert(0);
                let s = *seq;
                *seq += 1;
                (tag, len.max(4), s)
            })
            .collect();
        let plan2 = plan.clone();
        sim.spawn("sender", async move {
            for (tag, len, seq) in plan2 {
                let mut data = vec![0u8; len as usize];
                data[..4].copy_from_slice(&seq.to_le_bytes());
                a.send(Rank(1), Tag(tag), Payload::from_vec(data)).await;
            }
        });
        let counts = per_tag.clone();
        let ok = sim.spawn("receiver", async move {
            let mut next: std::collections::HashMap<u32, u32> = Default::default();
            let total: u32 = counts.values().sum();
            for _ in 0..total {
                let env = b.recv(Some(Rank(0)), None).await;
                let seq = u32::from_le_bytes(
                    env.payload.expect_bytes()[..4].try_into().unwrap(),
                );
                let expect = next.entry(env.tag.0).or_insert(0);
                if seq != *expect {
                    return false;
                }
                *expect += 1;
            }
            true
        });
        sim.run();
        prop_assert!(ok.try_take().unwrap(), "per-tag order violated");
    }

    /// Every route a topology model computes is well-formed: it starts on
    /// the source's TX wire, ends on the destination's RX wire, stays
    /// inside the link table, and never revisits a link (loop-free).
    #[test]
    fn topology_routes_valid_and_loop_free(
        kind in 0u8..3,
        param in 1usize..6,
        nodes in 2usize..16,
    ) {
        use dacc_fabric::topology::{host_rx_link, host_tx_link, TopologySpec};
        let spec = match kind {
            0 => TopologySpec::SingleSwitch,
            1 => TopologySpec::FatTree { radix: param },
            _ => TopologySpec::Dragonfly { groups: param },
        };
        let model = spec.model(nodes);
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst {
                    prop_assert_eq!(model.hops(src, dst), 0);
                    continue;
                }
                let route = model.route(src, dst);
                prop_assert!(!route.is_empty(), "{spec}: empty route {src}->{dst}");
                prop_assert_eq!(model.hops(src, dst), route.len());
                prop_assert!(
                    route[0].contains(&host_tx_link(src)),
                    "{spec}: route {src}->{dst} skips the source TX wire"
                );
                prop_assert!(
                    route[route.len() - 1].contains(&host_rx_link(dst)),
                    "{spec}: route {src}->{dst} misses the destination RX wire"
                );
                let mut seen = std::collections::HashSet::new();
                for step in &route {
                    prop_assert!(!step.is_empty(), "{spec}: empty step {src}->{dst}");
                    for &l in step {
                        prop_assert!(
                            l < model.link_count(),
                            "{spec}: link {l} out of range {src}->{dst}"
                        );
                        prop_assert!(
                            seen.insert(l),
                            "{spec}: route {src}->{dst} revisits link {l}"
                        );
                    }
                }
            }
        }
    }

    /// Per-link byte accounting conserves the message: every link on the
    /// route records exactly the wire size (payload + header) once, and no
    /// off-route link records anything.
    #[test]
    fn topology_per_link_byte_conservation(
        kind in 0u8..3,
        param in 1usize..6,
        nodes in 2usize..10,
        end_a: u8,
        end_b: u8,
        len in 0u64..100_000,
    ) {
        use dacc_fabric::prelude::*;
        use dacc_fabric::topology::TopologySpec;
        let spec = match kind {
            0 => TopologySpec::SingleSwitch,
            1 => TopologySpec::FatTree { radix: param },
            _ => TopologySpec::Dragonfly { groups: param },
        };
        let src = end_a as usize % nodes;
        let mut dst = end_b as usize % nodes;
        if dst == src {
            dst = (dst + 1) % nodes;
        }
        let mut sim = Sim::new();
        let h = sim.handle();
        let params = FabricParams::qdr_infiniband();
        let topo = Topology::with_spec(&h, nodes, params, spec);
        let t = topo.clone();
        sim.spawn("tx", async move {
            let flag = t.transmit(NodeId(src), NodeId(dst), len).await;
            flag.wait().await;
        });
        sim.run();
        let wire = len + params.header_bytes;
        let on_route: std::collections::HashSet<usize> = topo
            .route_of(NodeId(src), NodeId(dst))
            .into_iter()
            .flatten()
            .collect();
        for (l, s) in topo.link_stats().into_iter().enumerate() {
            if on_route.contains(&l) {
                prop_assert_eq!(s.bytes, wire, "{spec}: link {l} ({}) bytes", s.name);
                prop_assert_eq!(s.msgs, 1, "{spec}: link {l} ({}) msgs", s.name);
            } else {
                prop_assert_eq!(s.bytes, 0, "{spec}: off-route link {l} ({})", s.name);
                prop_assert_eq!(s.msgs, 0, "{spec}: off-route link {l} ({})", s.name);
            }
        }
    }

    /// Unloaded virtual time follows the closed form on every model: the
    /// sender resumes after one serialization, and arrival lands at
    /// `hops x (serialization + latency)`. With one hop this is exactly the
    /// legacy single-switch fabric's `serialize + propagate` timing, so the
    /// default model reproduces archived virtual-time results.
    #[test]
    fn topology_unloaded_timing_closed_form(
        kind in 0u8..3,
        param in 1usize..6,
        nodes in 2usize..10,
        end_a: u8,
        end_b: u8,
        len in 1u64..4_000_000,
    ) {
        use dacc_fabric::prelude::*;
        use dacc_fabric::topology::TopologySpec;
        let spec = match kind {
            0 => TopologySpec::SingleSwitch,
            1 => TopologySpec::FatTree { radix: param },
            _ => TopologySpec::Dragonfly { groups: param },
        };
        let src = end_a as usize % nodes;
        let mut dst = end_b as usize % nodes;
        if dst == src {
            dst = (dst + 1) % nodes;
        }
        let params = FabricParams {
            latency: SimDuration::from_micros(2),
            bandwidth: Bandwidth::from_bytes_per_sec(1e9),
            per_message: SimDuration::ZERO,
            eager_threshold: 12 * 1024,
            o_send: SimDuration::ZERO,
            o_recv: SimDuration::ZERO,
            header_bytes: 0,
            switch_bandwidth: None,
        };
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::with_spec(&h, nodes, params, spec);
        let hops = topo.hops(NodeId(src), NodeId(dst));
        let t = topo.clone();
        let hh = h.clone();
        let times = sim.spawn("tx", async move {
            let flag = t.transmit(NodeId(src), NodeId(dst), len).await;
            let resumed = hh.now();
            flag.wait().await;
            (resumed, hh.now())
        });
        sim.run();
        let (resumed, arrived) = times.try_take().expect("transmit did not finish");
        let ser = params.bandwidth.transfer_time(len);
        prop_assert_eq!(resumed.since(SimTime::ZERO), ser, "{spec}: sender resume");
        let mut expect = SimDuration::ZERO;
        for _ in 0..hops {
            expect = expect + ser + params.latency;
        }
        prop_assert_eq!(
            arrived.since(SimTime::ZERO),
            expect,
            "{spec}: arrival at {hops} hops"
        );
    }
}

/// One representative of each ARM request family, for mutation fuzzing.
fn arm_request_corpus() -> Vec<dacc_arm::proto::ArmRequest> {
    use dacc_arm::proto::ArmRequest;
    use dacc_arm::state::{AcceleratorId, JobId};
    vec![
        ArmRequest::Allocate {
            job: JobId(3),
            count: 2,
            wait: true,
        },
        ArmRequest::Release {
            job: JobId(3),
            accels: vec![AcceleratorId(0), AcceleratorId(1)],
        },
        ArmRequest::ReleaseJob { job: JobId(7) },
        ArmRequest::Query,
        ArmRequest::Heartbeat {
            accel: AcceleratorId(1),
            fence: 4,
            busy: 9,
        },
        ArmRequest::SubmitJob {
            job: JobId(5),
            tenant: 2,
            gang: 3,
            share_ok: false,
            wait: true,
        },
        ArmRequest::RenewLease { job: JobId(5) },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Malformed-input hardening, decode layer: arbitrary bytes fed to
    /// every ARM wire decoder return a typed result — never a panic. This
    /// is the contract the replicated control plane leans on: a corrupted
    /// or truncated frame must surface as `ArmError::Malformed`, not take
    /// the server down.
    #[test]
    fn arm_decoders_never_panic_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        use dacc_arm::proto::{ArmEvent, ArmRequest, ArmResponse, ReplMsg};
        let _ = ArmRequest::decode(&bytes);
        let _ = ArmResponse::decode(&bytes);
        let _ = ArmEvent::decode(&bytes);
        let _ = ReplMsg::decode(&bytes);
        let _ = dacc_arm::proto::peek_frame(&bytes);
    }

    /// Malformed-input hardening, mutation layer: take a valid encoded
    /// (optionally dedupe-framed) request, truncate it anywhere or flip
    /// any single bit, and every decoder still returns without panicking.
    /// Truncation of a *valid* prefix may legitimately decode (shorter
    /// variants share opcodes), but it must never crash or loop.
    #[test]
    fn arm_decoders_survive_truncated_and_bitflipped_frames(
        which in 0usize..7,
        framed: bool,
        op_id in 1u64..u64::MAX,
        cut in 0usize..64,
        // 512.. means "no flip" (the vendored proptest has no Option strategy).
        flip_bit in 0usize..768,
    ) {
        use dacc_arm::proto::{frame_request, ArmRequest};
        use dacc_fabric::codec::EncodeBuf;
        let req = arm_request_corpus().swap_remove(which);
        let mut enc = EncodeBuf::default();
        let wire: Vec<u8> = if framed {
            frame_request(op_id, &req, &mut enc).as_ref().to_vec()
        } else {
            req.encode()
        };
        let mut bytes = wire.clone();
        bytes.truncate(cut.min(bytes.len()));
        if flip_bit < 512 && !bytes.is_empty() {
            let i = (flip_bit / 8) % bytes.len();
            bytes[i] ^= 1 << (flip_bit % 8);
        }
        if let Some((_, body)) = dacc_arm::proto::peek_frame(&bytes) {
            let _ = ArmRequest::decode(body);
        }
        let _ = ArmRequest::decode(&bytes);
        // The untouched original must still round-trip.
        if framed {
            let (rid, body) = dacc_arm::proto::peek_frame(&wire).expect("frame lost");
            prop_assert_eq!(rid, op_id);
            prop_assert_eq!(ArmRequest::decode(body).unwrap(), req.clone());
        } else {
            prop_assert_eq!(ArmRequest::decode(&wire).unwrap(), req);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Malformed-input hardening, end to end: a hostile client sprays the
    /// live ARM server with garbage — random bytes, truncated frames,
    /// bit-flipped valid requests — and the server must stay serviceable:
    /// a well-formed allocation afterwards succeeds and shutdown is clean.
    #[test]
    fn arm_server_survives_garbage_frames_and_stays_serviceable(
        frames in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(any::<u8>(), 0..96), 0usize..7, 0usize..512),
            1..12,
        ),
    ) {
        use dacc_arm::proto::{arm_tags, frame_request};
        use dacc_fabric::codec::EncodeBuf;
        use dacc_arm::state::JobId;

        let (mut sim, mut cluster) = full_cluster(1, 1, ExecMode::Functional);
        let ep = cluster.cn_endpoints.remove(0);
        let arm_rank = cluster.arm_rank;
        let frontend = cluster.spec.frontend;
        let out = sim.spawn("hostile-then-honest", async move {
            let mut enc = EncodeBuf::default();
            for (kind, raw, which, bit) in frames {
                let bytes = match kind {
                    // Pure garbage.
                    0 => raw,
                    // Truncated valid framed request.
                    1 => {
                        let req = arm_request_corpus().swap_remove(which);
                        let mut b = frame_request(77, &req, &mut enc).as_ref().to_vec();
                        b.truncate(bit % (b.len() + 1));
                        b
                    }
                    // Bit-flipped valid framed request.
                    _ => {
                        let req = arm_request_corpus().swap_remove(which);
                        let mut b = frame_request(78, &req, &mut enc).as_ref().to_vec();
                        let i = (bit / 8) % b.len();
                        b[i] ^= 1 << (bit % 8);
                        b
                    }
                };
                // Keep only genuinely malformed frames: a mutation can by
                // chance produce a different *valid* request (even a
                // Shutdown), and honoring valid requests is correct server
                // behavior, not a robustness failure. Mirror the server's
                // peel-then-decode to classify.
                let body = match dacc_arm::proto::peek_frame(&bytes) {
                    Some((_, body)) => body,
                    None => &bytes[..],
                };
                if dacc_arm::proto::ArmRequest::decode(body).is_ok() {
                    continue;
                }
                ep.send(arm_rank, arm_tags::REQUEST, Payload::from_vec(bytes)).await;
            }
            // The server must still serve honest traffic. The replica-aware
            // client is used deliberately: its response-id filter skips the
            // error replies the garbage provoked.
            let client = dacc_arm::client::ArmClient::with_replicas(
                ep,
                vec![arm_rank],
                dacc_arm::client::ArmRetryConfig::default(),
            );
            let proc = AcProcess::with_client(client, JobId(1), frontend);
            let accels = proc.acquire(1).await.unwrap();
            let ptr = accels[0].mem_alloc(4096).await.unwrap();
            accels[0]
                .mem_cpy_h2d(&Payload::from_vec(pattern(4096, 9)), ptr)
                .await
                .unwrap();
            let back = accels[0].mem_cpy_d2h(ptr, 4096).await.unwrap();
            let ok = back.expect_bytes().as_ref() == pattern(4096, 9).as_slice();
            proc.finish().await;
            proc.arm().shutdown().await;
            ok
        });
        sim.run();
        prop_assert_eq!(out.try_take(), Some(true), "server unserviceable after garbage");
        prop_assert!(
            cluster.arm_handle.try_take().is_some(),
            "ARM server did not exit cleanly after garbage + shutdown"
        );
    }
}

/// A few bytes off the wire must never abort the process: every count
/// field, read through a decoder reachable from the wire, with a count no
/// input could back. Each row fails as truncated; none may reserve memory
/// for the count it claims.
#[test]
fn huge_counts_fail_as_truncated() {
    use bytes::Bytes;
    use dacc_arm::proto::{ArmRequest, ArmResponse};
    use dacc_runtime::proto::{crc32, ControlBatch, Request, StreamBatch};
    const HUGE: [u8; 4] = [0xff; 4];
    let sealed = |body: Vec<u8>| {
        let mut b = body.clone();
        b.extend_from_slice(&crc32(&body).to_le_bytes());
        b
    };
    let cat = |parts: &[&[u8]]| parts.concat();
    let rows: Vec<(&str, Vec<u8>, bool)> = vec![
        ("Request::KernelSetArgs args", cat(&[&[5], &HUGE]), false),
        (
            "ArmRequest::Release accels",
            cat(&[&[1], &[0; 8], &HUGE]),
            true,
        ),
        ("ArmResponse::Granted grants", cat(&[&[0], &HUGE]), true),
        ("Request::Launch args", cat(&[&[12], &[0; 4], &HUGE]), false),
        ("Request::Snapshot regions", cat(&[&[14], &HUGE]), false),
        ("Request::Restore regions", cat(&[&[15], &HUGE]), false),
        (
            "StreamBatch cmds, CRC valid",
            sealed(cat(&[&[0xFC], &[0; 4 + 8 + 8], &HUGE])),
            false,
        ),
        (
            "ControlBatch entries, CRC valid",
            sealed(cat(&[&[0xFD], &HUGE])),
            false,
        ),
    ];
    for (name, bytes, arm) in rows {
        let failed = if arm {
            ArmRequest::decode(&bytes).is_err() && ArmResponse::decode(&bytes).is_err()
        } else {
            Request::decode(&bytes).is_err()
                && StreamBatch::decode(&bytes).is_err()
                && ControlBatch::decode(&Bytes::from(bytes.clone())).is_err()
                && dacc_runtime::proto::AnyRequest::decode(&bytes).is_err()
        };
        assert!(failed, "{name}: {bytes:02x?} decoded");
    }
}

/// One request of every kind, fields drawn from `a`, `b`, `c`, `name`.
fn request_corpus(a: u64, b: u64, c: u32, name: &str) -> Vec<dacc_runtime::proto::Request> {
    use dacc_runtime::proto::{Request, WireProtocol};
    use dacc_vgpu::kernel::KernelArg;
    let args = vec![
        KernelArg::Ptr(DevicePtr(a)),
        KernelArg::U64(b),
        KernelArg::I64(-(c as i64)),
        KernelArg::F64(a as f64 / -3.0),
    ];
    let dims = (c, c >> 8, 1);
    vec![
        Request::MemAlloc { len: a },
        Request::MemFree { ptr: DevicePtr(a) },
        Request::MemCpyH2D {
            dst: DevicePtr(a),
            len: b,
            protocol: WireProtocol::Naive,
        },
        Request::MemCpyD2H {
            src: DevicePtr(a),
            len: b,
            protocol: WireProtocol::Pipeline { block: b.max(1) },
        },
        Request::KernelCreate { name: name.into() },
        Request::KernelSetArgs { args: args.clone() },
        Request::KernelRun {
            grid: dims,
            block: (c >> 16, 2, 1),
        },
        Request::PeerSend {
            src: DevicePtr(a),
            len: b,
            peer: c,
            block: a,
        },
        Request::PeerRecv {
            dst: DevicePtr(b),
            len: a,
            from: c,
            block: b,
        },
        Request::MemSet {
            ptr: DevicePtr(a),
            len: b,
            byte: c as u8,
        },
        Request::Ping,
        Request::Shutdown,
        Request::Launch {
            name: name.into(),
            args,
            grid: dims,
            block: (32, 1, 1),
        },
        Request::MemAllocAt { virt: a, len: b },
        Request::Snapshot {
            regions: vec![(a, b), (b, a)],
            block: a.max(1),
        },
        Request::Restore {
            regions: vec![(a, b)],
            block: b.max(1),
        },
    ]
}

/// The valid encoded form of carrier `form` (bare request, request frame,
/// stream batch, response, stream ack, control batch) around `req`.
fn core_wire_form(form: usize, req: &dacc_runtime::proto::Request, a: u64, c: u32) -> Vec<u8> {
    use bytes::Bytes;
    use dacc_runtime::proto::*;
    let op = Status::OPCODES[c as usize % Status::OPCODES.len()];
    let status =
        Status::decode_body(&mut dacc_fabric::codec::Reader::new(&[op])).expect("a status opcode");
    match form {
        0 => req.encode(),
        1 => RequestFrame {
            op_id: a,
            attempt: c,
            epoch: a >> 3,
            deadline: (c % 2 == 1).then_some(a ^ 0x55),
            req: req.clone(),
        }
        .encode(),
        2 => StreamBatch {
            stream: c,
            first_seq: a,
            epoch: 1,
            cmds: vec![req.clone(), Request::Ping],
        }
        .encode(),
        3 => Response { status, value: a }.encode(),
        4 => StreamAck {
            seq: a,
            status,
            value: c as u64,
        }
        .encode(),
        _ => ControlBatch {
            entries: vec![
                (c, Bytes::from(req.encode())),
                (c ^ 1, Bytes::from(Response::ok().encode())),
            ],
        }
        .encode(),
    }
}

/// Run `bytes` through every core decoder reachable from the wire.
fn decode_as_every_core_form(bytes: &[u8]) {
    use bytes::Bytes;
    use dacc_runtime::proto::*;
    let _ = AnyRequest::decode(bytes);
    let _ = Request::decode(bytes);
    let _ = RequestFrame::decode(bytes);
    let _ = RequestFrame::peek_deadline(bytes);
    let _ = RequestFrame::peek_reject_ids(bytes);
    let _ = StreamBatch::decode(bytes);
    let _ = Response::decode(bytes);
    let _ = StreamAck::decode(bytes);
    let _ = ControlBatch::decode(&Bytes::copy_from_slice(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core protocol is total: arbitrary bytes, valid frames cut short
    /// or with one bit flipped, and a valid opcode followed by a huge count
    /// all decode to a typed result — never a panic or an abort. And every
    /// variant round-trips, bare and in every carrier: the corpus must
    /// cover every opcode the table declares, so a variant added without a
    /// case fails here.
    #[test]
    fn core_codec_is_total_and_every_variant_roundtrips(
        mode in 0u8..4,
        garbage in proptest::collection::vec(any::<u8>(), 0..160),
        which in 0usize..16,
        form in 0usize..6,
        cut in 0usize..160,
        flip_bit in 0usize..1280,
        count in 0x0100_0000u32..u32::MAX,
        pad: bool,
        a: u64, b: u64, c: u32,
        name in "[a-z_.]{0,12}",
    ) {
        use dacc_runtime::proto::*;
        let corpus = request_corpus(a, b, c, &name);
        let mut covered: Vec<u8> = corpus.iter().map(|r| r.encode()[0]).collect();
        covered.sort_unstable();
        let mut declared = Request::OPCODES.to_vec();
        declared.sort_unstable();
        prop_assert_eq!(covered, declared, "a request variant has no corpus case");
        for req in &corpus {
            prop_assert_eq!(&Request::decode(&req.encode()), &Ok(req.clone()));
            let frame = core_wire_form(1, req, a, c);
            prop_assert_eq!(RequestFrame::decode(&frame).map(|f| f.req), Ok(req.clone()));
            let batch = core_wire_form(2, req, a, c);
            prop_assert_eq!(StreamBatch::decode(&batch).map(|s| s.cmds[0].clone()), Ok(req.clone()));
        }
        for &op in Status::OPCODES {
            let status = Status::decode_body(&mut dacc_fabric::codec::Reader::new(&[op])).unwrap();
            let resp = Response { status, value: b };
            prop_assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }

        let bytes = match mode {
            0 => garbage,
            1 => {
                let mut v = core_wire_form(form, &corpus[which], a, c);
                v.truncate(cut);
                v
            }
            2 => {
                let mut v = core_wire_form(form, &corpus[which], a, c);
                let i = (flip_bit / 8) % v.len();
                v[i] ^= 1 << (flip_bit % 8);
                v
            }
            _ => {
                let op = Request::OPCODES[which % Request::OPCODES.len()];
                let pad: &[u8] = if pad { &[0; 4] } else { &[] };
                [&[op][..], pad, &count.to_le_bytes(), &garbage[..garbage.len().min(24)]].concat()
            }
        };
        decode_as_every_core_form(&bytes);
    }
}

/// One message of every ARM kind, fields drawn from `a` and `c`:
/// requests, responses, events and replication traffic.
fn arm_corpus(
    a: u64,
    c: u32,
) -> (
    Vec<dacc_arm::proto::ArmRequest>,
    Vec<dacc_arm::proto::ArmResponse>,
    Vec<dacc_arm::proto::ArmEvent>,
    Vec<dacc_arm::proto::ReplMsg>,
) {
    use dacc_arm::proto::*;
    use dacc_arm::state::{AcceleratorId, JobId};
    use dacc_fabric::mpi::Rank;
    use dacc_fabric::topology::NodeId;
    let (job, accel) = (JobId(a), AcceleratorId(c as usize));
    let grant = GrantedAccelerator {
        accel,
        daemon_rank: Rank(c as usize >> 4),
        node: NodeId(c as usize >> 8),
        epoch: a >> 1,
    };
    let requests = vec![
        ArmRequest::Allocate {
            job,
            count: c,
            wait: a.is_multiple_of(2),
        },
        ArmRequest::Release {
            job,
            accels: vec![accel, AcceleratorId(1)],
        },
        ArmRequest::ReleaseJob { job },
        ArmRequest::MarkBroken { accel },
        ArmRequest::Query,
        ArmRequest::Repair { accel },
        ArmRequest::Shutdown,
        ArmRequest::ReportFailure { job, accel },
        ArmRequest::RenewLease { job },
        ArmRequest::Heartbeat {
            accel,
            fence: a,
            busy: c,
        },
        ArmRequest::Drain { accel },
        ArmRequest::ProbeResult {
            accel,
            ok: c.is_multiple_of(2),
        },
        ArmRequest::SubmitJob {
            job,
            tenant: c,
            gang: c >> 3,
            share_ok: a.is_multiple_of(3),
            wait: c.is_multiple_of(3),
        },
        ArmRequest::SetTenant {
            tenant: c,
            weight: c >> 1,
            priority: c as u8,
            max_accels: c >> 2,
            max_queued: c >> 3,
        },
    ];
    let responses = vec![
        ArmResponse::Granted(vec![grant, grant]),
        ArmResponse::Released { released: c },
        ArmResponse::Error(ArmError::Insufficient {
            requested: c,
            free: c >> 1,
        }),
        ArmResponse::Error(ArmError::Rejected(RejectReason::QuotaQueue {
            depth: c,
            quota: 3,
        })),
        ArmResponse::Error(ArmError::NotPrimary),
        ArmResponse::Stats(PoolStats {
            free: c,
            assigned: 1,
            broken: 2,
            queued_requests: c >> 4,
        }),
        ArmResponse::Renewed { renewed: c },
        ArmResponse::HeartbeatAck {
            fence: a,
            probe: c % 2 == 1,
        },
        ArmResponse::Queued { position: c },
    ];
    let events = EvictReason::OPCODES
        .iter()
        .map(|&op| {
            let reason = EvictReason::decode_body(&mut dacc_fabric::codec::Reader::new(&[op]))
                .expect("a reason opcode");
            ArmEvent::Evict(Eviction {
                accel,
                epoch: a,
                reason,
                replacement: op.is_multiple_of(2).then_some(grant),
            })
        })
        .chain([ArmEvent::Slice { grant }])
        .collect();
    let repl = vec![
        ReplMsg::Entry(ReplEntry {
            index: a,
            now_ns: a >> 2,
            src: c,
            op_id: a ^ 7,
            frame: requests[c as usize % requests.len()].encode(),
        }),
        ReplMsg::Beacon { index: a },
        ReplMsg::Snapshot {
            index: a,
            state: vec![c as u8; (c % 64) as usize],
        },
        ReplMsg::Hello { have: a },
        ReplMsg::Park { index: a },
    ];
    (requests, responses, events, repl)
}

/// Sorted first bytes of `msgs`' encodings equal the sorted `declared`
/// opcodes: the corpus covers every variant.
fn covers<T>(msgs: &[T], encode: impl Fn(&T) -> Vec<u8>, declared: &[u8]) -> bool {
    let mut covered: Vec<u8> = msgs.iter().map(|m| encode(m)[0]).collect();
    covered.sort_unstable();
    covered.dedup();
    let mut declared = declared.to_vec();
    declared.sort_unstable();
    covered == declared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ARM protocol is total: arbitrary bytes, valid (optionally
    /// dedupe-framed) messages cut short or with one bit flipped, and a
    /// valid opcode followed by a huge count all decode to a typed result
    /// — never a panic or an abort. And every variant of every ARM message
    /// round-trips; the corpus must cover every opcode the tables declare.
    #[test]
    fn arm_codec_is_total_and_every_variant_roundtrips(
        mode in 0u8..4,
        garbage in proptest::collection::vec(any::<u8>(), 0..160),
        which in 0usize..32,
        framed: bool,
        cut in 0usize..96,
        flip_bit in 0usize..768,
        count in 0x0100_0000u32..u32::MAX,
        pad: bool,
        a: u64, c: u32,
    ) {
        use dacc_arm::proto::*;
        use dacc_fabric::codec::EncodeBuf;
        let (requests, responses, events, repl) = arm_corpus(a, c);
        prop_assert!(covers(&requests, ArmRequest::encode, ArmRequest::OPCODES));
        prop_assert!(covers(&responses, ArmResponse::encode, ArmResponse::OPCODES));
        prop_assert!(covers(&events, ArmEvent::encode, ArmEvent::OPCODES));
        prop_assert!(covers(&repl, ReplMsg::encode, ReplMsg::OPCODES));
        for m in &requests {
            prop_assert_eq!(&ArmRequest::decode(&m.encode()), &Ok(m.clone()));
        }
        for m in &responses {
            prop_assert_eq!(&ArmResponse::decode(&m.encode()), &Ok(m.clone()));
        }
        for m in &events {
            prop_assert_eq!(&ArmEvent::decode(&m.encode()), &Ok(*m));
        }
        for m in &repl {
            prop_assert_eq!(&ReplMsg::decode(&m.encode()), &Ok(m.clone()));
        }

        let mut enc = EncodeBuf::new();
        let valid = |enc: &mut EncodeBuf| -> Vec<u8> {
            match which % 4 {
                0 => {
                    let m = &requests[which % requests.len()];
                    if framed { frame_request(a, m, enc).to_vec() } else { m.encode() }
                }
                1 => {
                    let m = &responses[which % responses.len()];
                    if framed { frame_response(a, m, enc).to_vec() } else { m.encode() }
                }
                2 => events[which % events.len()].encode(),
                _ => repl[which % repl.len()].encode(),
            }
        };
        let bytes = match mode {
            0 => garbage,
            1 => {
                let mut v = valid(&mut enc);
                v.truncate(cut);
                v
            }
            2 => {
                let mut v = valid(&mut enc);
                let i = (flip_bit / 8) % v.len();
                v[i] ^= 1 << (flip_bit % 8);
                v
            }
            _ => {
                let ops = [ArmRequest::OPCODES, ArmResponse::OPCODES, ReplMsg::OPCODES].concat();
                let op = ops[which % ops.len()];
                let pad: &[u8] = if pad { &[0; 8] } else { &[] };
                [&[op][..], pad, &count.to_le_bytes(), &garbage[..garbage.len().min(24)]].concat()
            }
        };
        let body = peek_frame(&bytes).map_or(&bytes[..], |(_, body)| body);
        for b in [&bytes[..], body] {
            let _ = ArmRequest::decode(b);
            let _ = ArmResponse::decode(b);
            let _ = ArmEvent::decode(b);
            let _ = Eviction::decode(b);
            let _ = ReplMsg::decode(b);
        }
    }
}

/// Each registered kernel's argument kinds: `p` a pointer, `u` an
/// unsigned integer, `f` a double.
const KERNEL_SIGNATURES: [(&str, &str); 10] = [
    ("daxpy", "ppuf"),
    ("fill_f64", "puf"),
    ("la.dgemm", "uuuuufpupufpu"),
    ("la.dlarfb", "uuupuppu"),
    ("la.dtrsm_rlt", "uupupu"),
    ("la.pack", "puuup"),
    ("la.unpack", "ppuuu"),
    ("mp2c.srd", "ppufffffuu"),
    ("reduce_sum", "ppu"),
    ("vec_add", "pppu"),
];

/// One drawn kernel argument: a kind (pointer, unsigned, signed, double),
/// which of a few small or extreme values, and raw bits for the rest.
fn kernel_arg(kind: u8, pick: u8, raw: u64, bufs: &[DevicePtr; 2]) -> KernelArg {
    let int = match pick % 16 {
        13 => 1 << 32,
        14 => u64::MAX,
        15 => raw,
        small => u64::from(small % 9),
    };
    // Sizes that tile an SRD box come up often enough to reach its body.
    let float = [
        1.0,
        2.0,
        4.0,
        1.0,
        2.0,
        4.0,
        0.5,
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
    ];
    match kind % 4 {
        0 => KernelArg::Ptr(match pick % 4 {
            0 | 1 => bufs[pick as usize % 2],
            2 => bufs[raw as usize % 2].offset((raw % 4096) & !7),
            _ => DevicePtr(raw),
        }),
        1 => KernelArg::U64(int),
        2 => KernelArg::I64(int as i64),
        _ => KernelArg::F64(match pick % 12 {
            11 => f64::from_bits(raw),
            i => float[i as usize],
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every registered kernel (builtin, `la.*`, staging and `mp2c.srd`)
    /// launched on a small functional device, half the time with 0–14
    /// arguments of random kinds and half with its own signature's kinds,
    /// extreme values included in both: the launch is `Ok` or an error,
    /// never a panic or an abort.
    #[test]
    fn kernel_launch_is_total(
        pick: u8,
        typed: bool,
        kinds in proptest::collection::vec(0u8..4, 0..15),
        values in proptest::collection::vec((any::<u8>(), any::<u64>()), 14..15)
    ) {
        use dacc_vgpu::device::VirtualGpu;
        use dacc_vgpu::kernel::{register_builtin_kernels, KernelRegistry};
        use dacc_vgpu::params::GpuParams;

        let registry = KernelRegistry::new();
        register_builtin_kernels(&registry);
        dacc_linalg::gpu::register_linalg_kernels(&registry);
        dacc_linalg::gpu::register_staging_kernels(&registry);
        dacc_mp2c::srd::register_srd_kernel(&registry);
        let names: Vec<_> = KERNEL_SIGNATURES.iter().map(|(name, _)| name.to_string()).collect();
        prop_assert_eq!(&registry.names(), &names);
        let (name, signature) = KERNEL_SIGNATURES[pick as usize % names.len()];
        let kinds: Vec<u8> = match typed {
            true => signature.bytes().map(|k| b"pu.f".iter().position(|&c| c == k).unwrap() as u8).collect(),
            false => kinds,
        };
        let mut sim = Sim::new();
        let params = GpuParams { memory_capacity: 64 << 10, ..GpuParams::test_tiny() };
        let gpu = VirtualGpu::new(&sim.handle(), "gpu0", params, ExecMode::Functional, registry);
        let launched = sim.spawn("launch", async move {
            let bufs = [gpu.alloc(4096).await.unwrap(), gpu.alloc(32 << 10).await.unwrap()];
            let args: Vec<_> = (kinds.iter().zip(&values))
                .map(|(&kind, &(pick, raw))| kernel_arg(kind, pick, raw, &bufs))
                .collect();
            gpu.launch(name, LaunchConfig::linear(1, 64), &args).await.is_ok()
        });
        sim.run();
        prop_assert!(launched.try_take().is_some());
    }
}
