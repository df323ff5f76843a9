//! Host-clock benchmark for the dacc stack.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all | aa | selfcheck | probe | manifest   [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form is one run of one workload in this process (what
//! `BENCHMARK.json`'s command invokes); the last line of its standard
//! output is the result object. The subcommands run workloads in fresh
//! child processes of this same binary. See `benchmark/README.md`.

mod alloc;
mod measure;
mod probes;
mod spec;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Cli {
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub half: bool,
    pub out_dir: String,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        half: false,
        out_dir: "benchmark/out".to_owned(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".to_owned());
                }
            }
            "--trace" => cli.trace = value()? != "0",
            "--half-work" => cli.half = true,
            "--out" => cli.out_dir = value()?,
            cmd if !cmd.starts_with('-') && cli.command.is_none() => {
                cli.command = Some(cmd.to_owned());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    alloc::pin_heap();
    // A CI matrix row must not change the workload: every `ClusterSpec`
    // field is pinned in code, and the variables the crates' defaults
    // consult are gone before the first spec is built.
    for var in ["DACC_TOPOLOGY", "DACC_ARM_HA", "DACC_SMOKE"] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.command.as_deref() {
        None | Some("run") => run_one(&cli, started),
        Some("all") => suite::all(&cli),
        Some("aa") => suite::aa(&cli),
        Some("selfcheck") => suite::selfcheck(&cli),
        Some("probe") => {
            print_probes(cli.seed);
            true
        }
        Some("manifest") => {
            print!("{}", spec::manifest());
            true
        }
        Some(other) => {
            eprintln!("benchmark: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload in this process: metric lines, then the result object.
fn run_one(cli: &Cli, started: Instant) -> bool {
    let Some(workload) = cli.workload.clone() else {
        eprintln!("benchmark: --workload <name> is required");
        return false;
    };
    let args = measure::RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        half: cli.half,
        out_dir: cli.out_dir.clone(),
    };
    let Some(report) = measure::run(&args, started) else {
        eprintln!("benchmark: unknown workload {}", args.workload);
        return false;
    };
    for m in &report.metrics {
        println!(
            "metric {} {} {} n={}",
            m.name,
            measure::json_number(m.value),
            m.unit,
            m.n
        );
    }
    for f in report.failures.iter().take(20) {
        eprintln!("benchmark: FAILED {f}");
    }
    println!("{}", report.json_line());
    report.correct
}

/// The probe-backed rows of the per-layer table.
fn print_probes(seed: u64) {
    let p = probes::run(seed);
    for m in &spec::PER_LAYER {
        if let Some(v) = p.metric(m.name) {
            println!(
                "metric {} {} {} n={}",
                m.name,
                measure::json_number(v),
                m.unit,
                probes::REPS
            );
        }
    }
}
