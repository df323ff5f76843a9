//! Ablation A11: the zero-copy wire codec.
//!
//! Three measurements, one per codec optimisation:
//!
//! 1. **Wall-clock seal/open throughput** — the seed codec (bitwise CRC32,
//!    body copied into a fresh `Vec` on seal and again on open) against the
//!    shipped codec (dispatched CRC: a carry-less-multiply kernel where the
//!    CPU has one — its 512-bit loop with AVX-512 + VPCLMULQDQ, its 128-bit
//!    loop without — slice-by-8 tables otherwise; chained-segment trailer,
//!    zero-copy open), with PR 7's slice-by-8 CRC as the column in between.
//!    The two superseded paths are reproduced locally in [`seed`] and
//!    [`table`] so the comparison survives the refactors that deleted or
//!    hid them.
//! 2. **Allocations per control message** — a counting global allocator
//!    measures the fresh-`Vec` encode path against the reusable
//!    [`EncodeBuf`] arena, and asserts the seal/open cycle of a 4 MiB
//!    block allocates nowhere near the payload size (zero bulk copies).
//! 3. **Virtual-time delta of coalesced control messages** — the same
//!    streamed QR run as `ablation_async`, with `ctrl_batch` off (the
//!    pinned default) and on. Daemon-served requests must be identical:
//!    batching coalesces *responses*, never requests.
//!
//! Wall-clock numbers are hardware-dependent and are **not** pinned in
//! `results/baselines.json`; the deterministic metrics (allocations per
//! message, request counts, virtual req/s) are.
//!
//! Set `DACC_SMOKE=1` for a reduced run (CI smoke).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dacc_bench::json::{write_results, Json};
use dacc_bench::linalg_runs::{run_factorization_detailed, DetailedRun, Routine};
use dacc_bench::table::print_table;
use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::payload::Payload;
use dacc_linalg::hybrid::HybridConfig;
use dacc_runtime::prelude::{DaemonConfig, FrontendConfig};
use dacc_runtime::proto::{
    crc32, open_block, seal_block, split_active, Request, WireProtocol, SPLIT_MIN,
};

// ---------------------------------------------------------------------------
// Counting allocator: every heap request in the process is tallied so the
// bench can report allocations (and bytes) per codec operation.

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// (calls, bytes) allocated while running `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
        out,
    )
}

// ---------------------------------------------------------------------------
// The seed codec, reproduced for the ablation baseline: bitwise CRC32 and
// copying seal/open. This is what the hot path did before the refactor.

mod seed {
    /// Bitwise (one bit per inner iteration) CRC-32, IEEE reflected
    /// polynomial — identical output to `proto::crc32`.
    pub fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// Seed seal: copy the body into a fresh buffer and append the CRC.
    pub fn seal_copy(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 4);
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32_bitwise(body).to_le_bytes());
        out
    }

    /// Seed open: verify the trailer and copy the body back out.
    pub fn open_copy(sealed: &[u8]) -> Option<Vec<u8>> {
        if sealed.len() < 4 {
            return None;
        }
        let (body, trailer) = sealed.split_at(sealed.len() - 4);
        if crc32_bitwise(body).to_le_bytes() != trailer {
            return None;
        }
        Some(body.to_vec())
    }
}

// ---------------------------------------------------------------------------
// PR 7's CRC, reproduced for the middle column: `proto::crc32` keeps this
// loop private now, for short inputs and CPUs without carry-less multiply.

mod table {
    const TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    };

    /// Slice-by-8 CRC-32: eight table look-ups per eight input bytes.
    pub fn crc32_slice8(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        let (words, tail) = data.as_chunks::<8>();
        for w in words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in tail {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }
}

// ---------------------------------------------------------------------------

fn gib_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / secs
}

/// Which of its three inner loops `proto::crc32` picks for bulk inputs on
/// this CPU; it decides from the same feature bits.
fn crc_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
        {
            return "carry-less-multiply kernel, 512-bit loop (avx512f + vpclmulqdq detected)";
        }
        return "carry-less-multiply kernel, 128-bit loop (pclmulqdq + sse4.1 detected, \
                no avx512f + vpclmulqdq)";
    }
    "slice-by-8 tables (no pclmulqdq + sse4.1)"
}

/// A representative hot-path control message (an H2D header).
fn sample_request() -> Request {
    Request::MemCpyH2D {
        dst: dacc_vgpu::prelude::DevicePtr(0x1000),
        len: 1 << 20,
        protocol: WireProtocol::Pipeline { block: 128 << 10 },
    }
}

fn main() {
    let smoke = dacc_bench::smoke();
    let buf_len: usize = if smoke { 1 << 20 } else { 8 << 20 };
    let passes: u32 = if smoke { 2 } else { 4 };
    let msgs: u64 = if smoke { 2_000 } else { 20_000 };

    println!("# Ablation: zero-copy wire codec (seed vs shipped hot path)");
    println!("  seed = bitwise CRC32 + copying seal/open + fresh-Vec encode");
    println!("  dispatched CRC32 runs on: {}\n", crc_path());

    // -- 1. Wall-clock: raw CRC, then the full seal+open cycle. ------------
    let body: Vec<u8> = (0..buf_len)
        .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
        .collect();
    let total = u64::from(passes) * body.len() as u64;

    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..passes {
        acc ^= seed::crc32_bitwise(&body);
    }
    let crc_seed_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    let t = Instant::now();
    for _ in 0..passes {
        acc ^= table::crc32_slice8(&body);
    }
    let crc_table_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    let t = Instant::now();
    for _ in 0..passes {
        acc ^= crc32(&body);
    }
    let crc_new_gibs = gib_per_s(total, t.elapsed().as_secs_f64());
    let reference = seed::crc32_bitwise(&body);
    assert_eq!(
        table::crc32_slice8(&body),
        reference,
        "slice-by-8 CRC diverged from the bitwise reference"
    );
    assert_eq!(
        crc32(&body),
        reference,
        "dispatched CRC diverged from the bitwise reference"
    );

    let t = Instant::now();
    for _ in 0..passes {
        let sealed = seed::seal_copy(&body);
        let opened = seed::open_copy(&sealed).expect("seed open failed");
        acc ^= u32::from(opened[0]);
    }
    let cycle_seed_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    let payload = Payload::from_vec(body.clone());
    let t = Instant::now();
    for _ in 0..passes {
        let sealed = seal_block(&payload);
        let opened = open_block(&sealed).expect("open_block failed");
        acc ^= u32::from(opened.segments()[0][0]);
    }
    let cycle_new_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    // Seal+open at the pipeline's block sizes, blocks walked through the
    // whole buffer: on one core (two CRC passes per block, what seal and
    // open cost without the helper) and as shipped, which splits each
    // checksum of `SPLIT_MIN` bytes or more across two cores when the
    // helper runs.
    let mut split_rows = Vec::new();
    for block in [128usize << 10, 512 << 10] {
        let blocks = payload.blocks(block as u64);
        let t = Instant::now();
        for _ in 0..passes {
            for b in &blocks {
                let body = b.expect_bytes();
                acc ^= crc32(body) ^ crc32(body);
            }
        }
        let one_core = gib_per_s(total, t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..passes {
            for b in &blocks {
                let opened = open_block(&seal_block(b)).expect("open_block failed");
                acc ^= u32::from(opened.segments()[0][0]);
            }
        }
        let two_core = gib_per_s(total, t.elapsed().as_secs_f64());
        split_rows.push((block, one_core, two_core));
    }
    std::hint::black_box(acc);

    let crc_speedup = crc_new_gibs / crc_seed_gibs;
    let cycle_speedup = cycle_new_gibs / cycle_seed_gibs;
    println!("CRC32 throughput        : seed {crc_seed_gibs:.2} GiB/s, slice-by-8 {crc_table_gibs:.2} GiB/s, dispatched {crc_new_gibs:.2} GiB/s ({crc_speedup:.1}x seed)");
    println!("seal+open cycle         : seed {cycle_seed_gibs:.2} GiB/s, zero-copy {cycle_new_gibs:.2} GiB/s ({cycle_speedup:.1}x)");
    let helper = if split_active() {
        "helper active"
    } else {
        "helper off: one usable CPU, every checksum folds on the caller"
    };
    println!(
        "seal+open, two cores    : blocks from {} KiB split across two cores ({helper})",
        SPLIT_MIN >> 10
    );
    for &(block, one_core, two_core) in &split_rows {
        println!(
            "  {:>3} KiB blocks       : one core {one_core:.2} GiB/s, as shipped {two_core:.2} GiB/s ({:.2}x)",
            block >> 10,
            two_core / one_core
        );
    }
    assert!(
        cycle_speedup >= 5.0,
        "zero-copy seal+open must beat the seed path by >= 5x wall-clock \
         (got {cycle_speedup:.2}x)"
    );

    // -- 2. Allocations per message, and the zero-bulk-copy invariant. -----
    let req = sample_request();
    // Warm both paths so one-time setup isn't billed to either.
    std::hint::black_box(req.encode());
    let mut arena = EncodeBuf::new();
    std::hint::black_box(req.encode_into(&mut arena));

    let (naive_calls, _, _) = count_allocs(|| {
        for _ in 0..msgs {
            let p = Payload::from_vec(req.encode());
            std::hint::black_box(&p);
        }
    });
    let (arena_calls, _, _) = count_allocs(|| {
        for _ in 0..msgs {
            let p = Payload::from_bytes(req.encode_into(&mut arena));
            std::hint::black_box(&p);
        }
    });
    let naive_per_msg = naive_calls as f64 / msgs as f64;
    let arena_per_msg = arena_calls as f64 / msgs as f64;
    println!("\nencode allocations/msg  : fresh-Vec {naive_per_msg:.2}, arena {arena_per_msg:.2}");
    assert!(
        naive_per_msg >= 1.0,
        "fresh-Vec encode should allocate every message (got {naive_per_msg:.2}/msg)"
    );
    assert!(
        arena_per_msg < naive_per_msg / 2.0,
        "arena encode must at least halve allocations per message \
         (naive {naive_per_msg:.2}, arena {arena_per_msg:.2})"
    );

    let bulk = Payload::from_vec(vec![0xA5u8; 4 << 20]);
    let (_, seal_open_bytes, _) = count_allocs(|| {
        let sealed = seal_block(&bulk);
        let opened = open_block(&sealed).expect("bulk open failed");
        std::hint::black_box(&opened);
    });
    println!(
        "seal+open of 4 MiB block: {seal_open_bytes} heap bytes allocated \
         (payload {} bytes)",
        bulk.len()
    );
    assert!(
        seal_open_bytes < bulk.len() / 8,
        "seal+open must not copy the bulk payload \
         ({seal_open_bytes} heap bytes for a {} byte block)",
        bulk.len()
    );

    // -- 3. Virtual time: coalesced control messages on the QR hot path. ---
    let sizes: Vec<usize> = dacc_bench::smoke_truncate(vec![1024, 2048], 1);
    let hybrid = HybridConfig {
        streams: true,
        ..HybridConfig::default()
    };
    let run = |ctrl_batch: bool, n: usize| -> DetailedRun {
        let daemon = DaemonConfig {
            ctrl_batch,
            ..DaemonConfig::default()
        };
        run_factorization_detailed(Routine::Qr, 1, n, daemon, FrontendConfig::default(), hybrid)
    };

    let xs: Vec<String> = sizes.iter().map(|n| n.to_string()).collect();
    let mut gflops_series: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut case_rows = Vec::new();
    let mut reqs_per_s_batched = Vec::new();
    for (label, ctrl_batch) in [("ctrl_batch off", false), ("ctrl_batch on", true)] {
        let mut gflops = Vec::new();
        let mut rows = Vec::new();
        for &n in &sizes {
            let r = run(ctrl_batch, n);
            let requests: u64 = r.stats.iter().map(|s| s.requests).sum();
            let reqs_per_s = requests as f64 / r.elapsed.as_secs_f64();
            gflops.push(r.gflops);
            if ctrl_batch {
                reqs_per_s_batched.push(reqs_per_s);
            }
            rows.push(Json::obj([
                ("n", Json::from(n)),
                ("gflops", Json::from(r.gflops)),
                ("elapsed_s", Json::from(r.elapsed.as_secs_f64())),
                ("requests", Json::from(requests)),
                ("reqs_per_s", Json::from(reqs_per_s)),
            ]));
        }
        gflops_series.push((label, gflops));
        case_rows.push(Json::obj([
            ("case", Json::from(label)),
            ("runs", Json::Arr(rows)),
        ]));
    }

    println!();
    print_table(
        "Streamed QR throughput [GFlop/s]",
        "N of NxN matrix",
        &xs,
        &gflops_series,
    );
    for (i, n) in sizes.iter().enumerate() {
        let off = gflops_series[0].1[i];
        let on = gflops_series[1].1[i];
        let delta_pct = (on / off - 1.0) * 100.0;
        println!("  N={n}: ctrl_batch virtual-time delta {delta_pct:+.3}%");
        assert!(
            on >= off * 0.90,
            "ctrl batching must not cost >10% virtual throughput at N={n} \
             (off {off:.2}, on {on:.2} GFlop/s)"
        );
    }

    write_results(
        "ablation_codec",
        &Json::obj([
            (
                "title",
                Json::from("Ablation: zero-copy wire codec (seed vs shipped hot path)"),
            ),
            ("crc_seed_gibs", Json::from(crc_seed_gibs)),
            ("crc_table_gibs", Json::from(crc_table_gibs)),
            ("crc_new_gibs", Json::from(crc_new_gibs)),
            ("crc_speedup", Json::from(crc_speedup)),
            ("cycle_seed_gibs", Json::from(cycle_seed_gibs)),
            ("cycle_new_gibs", Json::from(cycle_new_gibs)),
            ("cycle_speedup", Json::from(cycle_speedup)),
            ("split_active", Json::from(split_active())),
            ("split_min_bytes", Json::from(SPLIT_MIN)),
            (
                "seal_open_split",
                Json::Arr(
                    split_rows
                        .iter()
                        .map(|&(block, one_core, two_core)| {
                            Json::obj([
                                ("block_bytes", Json::from(block)),
                                ("one_core_gibs", Json::from(one_core)),
                                ("two_core_gibs", Json::from(two_core)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("encode_allocs_per_msg_naive", Json::from(naive_per_msg)),
            ("encode_allocs_per_msg_arena", Json::from(arena_per_msg)),
            ("seal_open_4mib_heap_bytes", Json::from(seal_open_bytes)),
            ("sizes", Json::from(sizes.clone())),
            ("cases", Json::Arr(case_rows)),
            ("reqs_per_s_batched", Json::from(reqs_per_s_batched)),
        ]),
    );
    dacc_bench::telem::write_metrics("ablation_codec");
}
