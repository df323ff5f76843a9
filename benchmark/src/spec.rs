//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and regression bounds. `benchmark manifest` prints
//! `BENCHMARK.json` from these tables, so the file at the repository root
//! and the harness cannot drift apart.

use std::fmt::Write as _;

/// Seconds one run measures (`--seconds` default; frozen in the manifest).
pub const RUN_SECONDS: u32 = 24;
/// A run never reports on fewer measured rounds than this, however slow
/// the machine: the percentiles need the samples.
pub const MIN_ROUNDS: usize = 40;
/// Untimed warm-up rounds per set-up.
pub const WARMUP_ROUNDS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A workload and why it is here.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "copy_h2d",
        why: "196 MiB of H2D copies across the naive/pipeline and block-size switches: front-end seal, daemon open, device write; host time is CRC and memcpy, not events",
    },
    WorkloadSpec {
        name: "copy_d2h",
        why: "same bytes the other way: daemon seals fixed 128 KiB blocks (4x the events), front-end opens and concatenates; catches codec changes that help seal and hurt open",
    },
    WorkloadSpec {
        name: "ctrl_churn",
        why: "16 clients churn 64 accelerators with retry framing, dedupe, heartbeats, leases and a replicated ARM on: 18k ops under 2 KiB, all executor, matching, codecs and replication",
    },
    WorkloadSpec {
        name: "qr_3gpu",
        why: "the paper's Fig. 9 app: hybrid QR on 3 remote GPUs, timing-only so no CRC or memcpy; dacc-linalg orchestration and pipelined block events at a realistic op mix",
    },
];

/// One metric of the contract.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    e2e(name, unit, higher, 0.0)
}

/// End-to-end metrics, all on the host clock, from the untraced run.
///
/// The bounds come from ten-seed sets on the shared 2-core sandbox, whose
/// neighbours slow a workload by up to 10 % for minutes at a time. Within
/// one set `round_ms_p50` spread (interquartile ÷ median) up to 11.3 % and
/// `round_ms_p10` up to 10.7 %, both on `ctrl_churn`; medians moved 8–10 %
/// between a quiet and a noisy spell. A bound must hold for all four
/// workloads, so the noisiest sets it: 25 % is the most the contract allows.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("round_ms_p50", "ms", false, 0.25),
    e2e("round_ms_p10", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.10),
    // Must read 1.0: any failed op also sets `correct` to false. The
    // bound is a hair above 0 so a strict comparison cannot reject a
    // metric that never moves.
    e2e("good_ratio", "ratio", true, 0.001),
];

/// Per-layer metrics, from the probes and the traced run. Every workload
/// reports every one; a metric the workload does not exercise reads 0.
pub const PER_LAYER: [MetricSpec; 69] = [
    layer("sim.events_per_op", "count", false),
    layer("sim.ns_per_event", "ns", false),
    layer("sim.timer_ns_per_event", "ns", false),
    layer("sim.chan_ns_per_msg", "ns", false),
    layer("sim.spawn_ns_per_task", "ns", false),
    layer("sim.share", "ratio", false),
    layer("fabric.msgs_per_op", "count", false),
    layer("fabric.bytes_per_op", "count", false),
    layer("fabric.peak_link_queue", "count", false),
    layer("fabric.send_recv_ns_per_msg", "ns", false),
    layer("fabric.route_ns.switch", "ns", false),
    layer("fabric.route_ns.fattree", "ns", false),
    layer("fabric.route_ns.dragonfly", "ns", false),
    layer("fabric.payload_blocks_ns_per_block", "ns", false),
    layer("fabric.payload_to_bytes_gib_per_s", "GiB/s", true),
    layer("fabric.share", "ratio", false),
    layer("core.crc_gib_per_s", "GiB/s", true),
    layer("core.seal_ns_per_block.128k", "ns", false),
    layer("core.seal_ns_per_block.512k", "ns", false),
    layer("core.open_ns_per_block.128k", "ns", false),
    layer("core.open_ns_per_block.512k", "ns", false),
    layer("core.req_encode_ns", "ns", false),
    layer("core.req_decode_ns", "ns", false),
    layer("core.frame_ns", "ns", false),
    layer("core.encode_allocs_per_msg", "count", false),
    layer("core.requests_per_op", "count", false),
    layer("core.blocks_per_op", "count", false),
    layer("core.retries", "count", false),
    layer("core.h2d_us_per_mib", "us/MiB", false),
    layer("core.d2h_us_per_mib", "us/MiB", false),
    layer("core.launch_us", "us", false),
    layer("core.memset_us", "us", false),
    layer("core.alloc_free_us", "us", false),
    layer("core.cluster_build_us", "us", false),
    layer("core.codec_share", "ratio", false),
    layer("vgpu.mem_write_gib_per_s", "GiB/s", true),
    layer("vgpu.mem_read_gib_per_s", "GiB/s", true),
    layer("vgpu.launch_ns", "ns", false),
    layer("vgpu.alloc_free_ns", "ns", false),
    layer("vgpu.share", "ratio", false),
    layer("arm.acquire_release_us", "us", false),
    layer("arm.req_codec_ns", "ns", false),
    layer("arm.grants", "count", false),
    layer("arm.queued_grants", "count", false),
    layer("arm.repl_entries", "count", false),
    layer("arm.heartbeats", "count", false),
    layer("arm.pool_tick_ns", "ns", false),
    layer("sched.decision_ns", "ns", false),
    layer("sched.shed_ns", "ns", false),
    layer("linalg.requests_per_factorization", "count", false),
    layer("linalg.events_per_factorization", "count", false),
    layer("linalg.qr_us_n2048", "us", false),
    layer("linalg.qr_us_n3072", "us", false),
    layer("linalg.qr_us_n4032", "us", false),
    layer("telemetry.trace_overhead_ratio", "ratio", false),
    layer("telemetry.span_record_ns", "ns", false),
    layer("model.virt_ms_per_round", "ms", false),
    layer("model.virt_mib_per_s", "MiB/s", true),
    layer("model.gflops_n4032", "GFlop/s", true),
    layer("harness.round_ms_p50_traced", "ms", false),
    layer("harness.round_ms_p90", "ms", false),
    layer("harness.round_ms_min", "ms", false),
    layer("harness.cpu_s", "s", false),
    layer("harness.mib_per_s", "MiB/s", true),
    layer("harness.allocs_per_kop", "count", false),
    layer("harness.spans_per_round", "count", false),
    layer("harness.ops_per_round", "count", false),
    layer("harness.rounds", "count", true),
    layer("harness.unattributed_share", "ratio", false),
];

/// Per-layer metrics that are exact counts or virtual-clock outputs: two
/// runs of the same code on the same seed must print identical values.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("model.")
        || matches!(
            name,
            "sim.events_per_op"
                | "fabric.msgs_per_op"
                | "fabric.bytes_per_op"
                | "fabric.peak_link_queue"
                | "core.encode_allocs_per_msg"
                | "core.requests_per_op"
                | "core.blocks_per_op"
                | "core.retries"
                | "arm.grants"
                | "arm.queued_grants"
                | "arm.repl_entries"
                | "arm.heartbeats"
                | "linalg.requests_per_factorization"
                | "linalg.events_per_factorization"
                | "harness.ops_per_round"
                | "harness.spans_per_round"
        )
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let better = |m: &MetricSpec| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m)
        );
    }
    s.push_str("  ]\n}\n");
    s
}
