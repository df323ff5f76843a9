//! Ablation A7: asynchronous command streams on the runtime hot path.
//!
//! The same hybrid QR runs (a) with the legacy three-call kernel launch and
//! one blocking round trip per API call, (b) with the fused single-request
//! launch, and (c) with fused launches submitted through an asynchronous
//! command stream (windowed in-flight batches, one coalesced ack per
//! batch). Requests are counted at the daemon, so the round-trip reduction
//! is measured, not modelled; the small-N end of the Fig. 9 sweep is where
//! latency (not bandwidth) dominates and the streams pay off.
//!
//! Set `DACC_SMOKE=1` to run the smallest size only (CI smoke).

use dacc_bench::json::{write_results, Json};
use dacc_bench::linalg_runs::{run_factorization_detailed, DetailedRun, Routine};
use dacc_bench::table::print_table;
use dacc_linalg::hybrid::HybridConfig;
use dacc_runtime::prelude::{DaemonConfig, FrontendConfig};

struct Case {
    label: &'static str,
    frontend: FrontendConfig,
    streams: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "legacy (3-call launch)",
            frontend: FrontendConfig {
                fused_launch: false,
                ..FrontendConfig::default()
            },
            streams: false,
        },
        Case {
            label: "fused launch",
            frontend: FrontendConfig::default(),
            streams: false,
        },
        Case {
            label: "fused + streams",
            frontend: FrontendConfig::default(),
            streams: true,
        },
    ]
}

fn run(case: &Case, n: usize) -> DetailedRun {
    let hybrid = HybridConfig {
        streams: case.streams,
        ..HybridConfig::default()
    };
    let daemon = DaemonConfig::default();
    run_factorization_detailed(Routine::Qr, 1, n, daemon, case.frontend, hybrid)
}

fn main() {
    let sizes: Vec<usize> = dacc_bench::smoke_truncate(vec![1024, 2048, 3072], 1);
    let nb = HybridConfig::default().nb;

    println!("# Ablation: async command streams (remote dgeqrf, 1 network GPU, nb={nb})");
    println!("  round trips = daemon-served requests; a stream batch counts once\n");

    let xs: Vec<String> = sizes.iter().map(|n| n.to_string()).collect();
    let mut gflops_series: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut rtt_series: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut case_rows = Vec::new();
    // requests-per-panel-step per case, on the largest size.
    let mut per_panel = Vec::new();

    for case in cases() {
        let mut gflops = Vec::new();
        let mut rtts = Vec::new();
        let mut rows = Vec::new();
        for &n in &sizes {
            let r = run(&case, n);
            let requests: u64 = r.stats.iter().map(|s| s.requests).sum();
            let batches: u64 = r.stats.iter().map(|s| s.stream_batches).sum();
            let cmds: u64 = r.stats.iter().map(|s| s.stream_cmds).sum();
            let panels = n.div_ceil(nb) as f64;
            gflops.push(r.gflops);
            rtts.push(requests as f64);
            rows.push(Json::obj([
                ("n", Json::from(n)),
                ("gflops", Json::from(r.gflops)),
                ("elapsed_s", Json::from(r.elapsed.as_secs_f64())),
                ("requests", Json::from(requests)),
                ("requests_per_panel", Json::from(requests as f64 / panels)),
                ("stream_batches", Json::from(batches)),
                ("stream_cmds", Json::from(cmds)),
            ]));
            if n == *sizes.last().unwrap() {
                per_panel.push(requests as f64 / panels);
            }
        }
        gflops_series.push((case.label, gflops));
        rtt_series.push((case.label, rtts));
        case_rows.push(Json::obj([
            ("case", Json::from(case.label)),
            ("runs", Json::Arr(rows)),
        ]));
    }

    print_table(
        "QR throughput [GFlop/s]",
        "N of NxN matrix",
        &xs,
        &gflops_series,
    );
    print_table(
        "Front-end <-> daemon round trips (total)",
        "N of NxN matrix",
        &xs,
        &rtt_series,
    );

    let n_last = *sizes.last().unwrap();
    let rtt_reduction = per_panel[0] / per_panel[2];
    println!("\nRequests per panel step at N={n_last}:");
    for (case, pp) in cases().iter().zip(&per_panel) {
        println!("{:>24}: {pp:.1}", case.label);
    }
    println!(
        "\nRound-trip reduction, legacy vs streamed: {rtt_reduction:.1}x \
         (target: >= 3x)"
    );
    assert!(
        rtt_reduction >= 3.0,
        "streamed submission must eliminate >= 3x round trips per panel step \
         (got {rtt_reduction:.2}x)"
    );

    let speedups: Vec<f64> = gflops_series[2]
        .1
        .iter()
        .zip(&gflops_series[0].1)
        .map(|(s, l)| s / l)
        .collect();
    println!("\nSmall-N speedup (fused + streams vs legacy):");
    for (n, s) in sizes.iter().zip(&speedups) {
        println!("{n:>8}: {s:.4}x");
        assert!(
            *s > 1.0,
            "streamed submission must improve virtual time at N={n} (got {s:.4}x)"
        );
    }

    write_results(
        "ablation_async",
        &Json::obj([
            (
                "title",
                Json::from("Ablation: async command streams (remote dgeqrf, 1 network GPU)"),
            ),
            ("nb", Json::from(nb)),
            ("sizes", Json::from(sizes.clone())),
            ("cases", Json::Arr(case_rows)),
            ("requests_per_panel_at_largest_n", Json::from(per_panel)),
            (
                "rtt_reduction_legacy_vs_streamed",
                Json::from(rtt_reduction),
            ),
            ("speedup_streamed_vs_legacy", Json::from(speedups)),
        ]),
    );
    dacc_bench::telem::write_metrics("ablation_async");
}
