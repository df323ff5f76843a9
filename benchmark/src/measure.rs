//! One run of one workload: set-up, measured rounds, statistics, checks.
//!
//! A run is `SETUPS` set-ups followed by identical rounds. Each round
//! replays the same seed-generated op list on a fresh `Sim` and cluster,
//! so the work per round is fixed, the spread between rounds is host
//! noise, and every round's virtual-clock outputs and exact counts must
//! be bit-identical — that is checked. Timings are per round (median,
//! 10th percentile), so they do not depend on how many rounds fit into
//! `--seconds`; the count is printed beside every timing.

use std::path::Path;
use std::time::{Duration, Instant};

use dacc_telemetry::Telemetry;

use crate::probes::{self, Probes};
use crate::spec::{self, MetricSpec};
use crate::trace::Trace;
use crate::workloads::{self, qr, Counts, RoundCx, RoundOut, Workload};

/// What to run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Half the ops per round (`selfcheck`).
    pub half: bool,
    /// Where `<workload>.trace.json` goes.
    pub out_dir: String,
}

/// One reported value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (rounds, spans or probe repetitions).
    pub n: usize,
}

/// A finished run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl Report {
    /// The result line the driver reads: exactly these four keys.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as JSON: all its digits, and never `NaN` or `inf`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The rounds' host times in ms, sorted.
fn round_ms(rounds: &[RoundOut]) -> Vec<f64> {
    let ms: Vec<f64> = rounds.iter().map(|r| r.host.as_secs_f64() * 1e3).collect();
    sorted(&ms)
}

/// Median of a sorted slice (0 when empty).
fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The sample with a tenth of the samples below it (`low`) or beyond it.
fn tenth(sorted: &[f64], low: bool) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let k = n / 10;
    sorted[if low { k } else { n - 1 - k }]
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU seconds of this process so far (`/proc/self/schedstat`, the
/// same quantity `getrusage` sums, without a libc dependency).
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Inputs from the seed, the verification pass, then the warm-up rounds.
fn set_up(args: &RunArgs, failures: &mut Vec<String>) -> Option<Box<dyn Workload>> {
    let workload = workloads::build(&args.workload, args.seed, args.half)?;
    if let Err(e) = workload.verify() {
        failures.push(format!("verification pass: {e}"));
    }
    for _ in 0..spec::WARMUP_ROUNDS {
        if let Err(e) = workload.round(&RoundCx::untraced()).verdict() {
            failures.push(format!("warm-up round: {e}"));
        }
    }
    Some(workload)
}

/// Run `args`; `started` is the process's first instant, so the first
/// set-up also covers process start. `None` for an unknown workload.
pub fn run(args: &RunArgs, started: Instant) -> Option<Report> {
    let mut failures = Vec::new();

    let mut setups = Vec::with_capacity(spec::SETUPS);
    let mut workload = set_up(args, &mut failures)?;
    setups.push(started.elapsed().as_secs_f64());
    while setups.len() < spec::SETUPS {
        let t0 = Instant::now();
        workload = set_up(args, &mut failures)?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let probes = args.trace.then(|| probes::run(args.seed));
    let trace = if args.trace {
        Trace::on()
    } else {
        Trace::off()
    };
    let tele = args
        .trace
        .then(|| Telemetry::new(dacc_telemetry::DEFAULT_SPAN_CAPACITY));

    // Measured rounds. A traced run alternates untraced and traced rounds,
    // so the overhead ratio compares neighbours in time.
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced): (Vec<RoundOut>, Vec<RoundOut>) = (Vec::new(), Vec::new());
    let mut plain_allocs = 0;
    let mut peak_rss_mib = 0.0;
    let cpu0 = cpu_seconds();
    let measuring = Instant::now();
    while plain.len() + traced.len() < spec::MIN_ROUNDS || measuring.elapsed() < budget {
        let allocs0 = crate::alloc::count();
        plain.push(workload.round(&RoundCx::untraced()));
        plain_allocs += crate::alloc::count() - allocs0;
        // Every `Sim` dropped with parked tasks leaks its cluster, so the
        // high-water mark climbs with the round count. Read it after a
        // fixed amount of work, not after however many rounds fitted.
        if plain.len() == spec::MIN_ROUNDS {
            peak_rss_mib = status_mib("VmHWM:");
        }
        if args.trace {
            let cx = RoundCx {
                root: trace.round(traced.len() as u64),
                tele: tele.clone(),
            };
            traced.push(workload.round(&cx));
            cx.root.close();
        }
    }
    let cpu_s = cpu_seconds() - cpu0;

    // Checks: every op good, every round bit-identical on the virtual
    // clock and in its exact counts, telemetry invisible to both.
    let first = &plain[0];
    for (kind, rounds) in [("untraced", &plain), ("traced", &traced)] {
        for (i, r) in rounds.iter().enumerate() {
            for f in &r.failures {
                failures.push(format!("{kind} round {i}: {f}"));
            }
            if r.virt != first.virt {
                failures.push(format!("{kind} round {i}: virtual-clock outputs differ"));
            }
            if r.counts.structural() != first.counts.structural()
                || r.counts != rounds[0].counts
                || r.ops != first.ops
            {
                failures.push(format!("{kind} round {i}: exact counts differ"));
            }
        }
    }
    if let Some(t) = traced.first() {
        if t.counts.retries != 0 {
            failures.push(format!("{} retries in a fault-free run", t.counts.retries));
        }
    }
    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.ops).sum();
    let good: u64 = plain.iter().chain(&traced).map(|r| r.good).sum();

    let ms = round_ms(&plain);
    let n = ms.len();
    let total_s: f64 = plain.iter().map(|r| r.host.as_secs_f64()).sum();
    let plain_ops: u64 = plain.iter().map(|r| r.ops).sum();
    let plain_good: u64 = plain.iter().map(|r| r.good).sum();

    let mut metrics = Vec::new();
    if let Some(probes) = probes {
        if let Err(e) = write_trace(&trace, &args.out_dir, &args.workload) {
            failures.push(format!("writing the trace: {e}"));
        }
        let layer = Layer {
            probes,
            functional: workload.functional(),
            round: first,
            counts: traced[0].counts,
            round_ms: &ms,
            traced_ms: &round_ms(&traced),
            trace: &trace,
            cpu_s,
            mib_per_s: plain.iter().map(|r| r.bytes).sum::<u64>() as f64
                / (1u64 << 20) as f64
                / total_s,
            allocs_per_kop: plain_allocs as f64 / plain_ops as f64 * 1e3,
        };
        for m in &spec::PER_LAYER {
            let (value, n) = layer.value(m.name);
            metrics.push(metric(m, value, n));
        }
    } else {
        let setups = sorted(&setups);
        for m in &spec::END_TO_END {
            let (value, n) = match m.name {
                "setup_s" => (median(&setups), setups.len()),
                "round_ms_p50" => (median(&ms), n),
                "round_ms_p10" => (tenth(&ms, true), n),
                "ops_per_s" => (plain_good as f64 / total_s, n),
                "peak_rss_mib" => (peak_rss_mib, 1),
                "good_ratio" => (plain_good as f64 / plain_ops as f64, n),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            metrics.push(metric(m, value, n));
        }
    }

    Some(Report {
        correct: failures.is_empty() && good == attempted,
        attempted,
        failed: attempted - good,
        metrics,
        failures,
    })
}

fn metric(spec: &MetricSpec, value: f64, n: usize) -> Metric {
    Metric {
        name: spec.name,
        value,
        unit: spec.unit,
        n,
    }
}

fn write_trace(trace: &Trace, out_dir: &str, workload: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let path = Path::new(out_dir).join(format!("{workload}.trace.json"));
    std::fs::write(path, trace.chrome_json(workload))
}

/// Everything a per-layer metric is computed from.
struct Layer<'a> {
    probes: Probes,
    functional: bool,
    /// Any round (they are identical but for host time).
    round: &'a RoundOut,
    /// A traced round's counts (telemetry's included).
    counts: Counts,
    /// Untraced and traced round times, sorted.
    round_ms: &'a [f64],
    traced_ms: &'a [f64],
    trace: &'a Trace,
    cpu_s: f64,
    mib_per_s: f64,
    allocs_per_kop: f64,
}

impl Layer<'_> {
    fn round_ns(&self) -> f64 {
        median(self.round_ms) * 1e6
    }

    /// Median and sample count of the spans named `name`.
    fn span_p50(&self, name: &str) -> (f64, usize) {
        let d = sorted(&self.trace.durations(name));
        (median(&d), d.len())
    }

    /// Host ns of sim-engine work: events × the probe's cost per event.
    fn sim_ns(&self) -> f64 {
        self.counts.events as f64 * self.probes.sim_timer_ns_per_event
    }

    /// Fabric work net of the events it schedules (those are `sim`'s).
    fn fabric_ns(&self) -> f64 {
        let p = &self.probes;
        let net =
            p.fabric_send_recv_ns_per_msg - p.fabric_events_per_msg * p.sim_timer_ns_per_event;
        self.counts.fabric_msgs as f64 * net.max(0.0)
    }

    /// CRC work; size-only payloads carry no bytes to checksum.
    fn codec_ns(&self) -> f64 {
        if !self.functional {
            return 0.0;
        }
        self.counts.crc_bytes as f64 / (self.probes.core_crc_gib_per_s * (1u64 << 30) as f64) * 1e9
    }

    /// Device memcpy (functional mode only) plus kernel launches net of
    /// their events.
    fn vgpu_ns(&self) -> f64 {
        let p = &self.probes;
        let gib = (1u64 << 30) as f64;
        let copies = if self.functional {
            (self.counts.dev_written as f64 / (p.vgpu_mem_write_gib_per_s * gib)
                + self.counts.dev_read as f64 / (p.vgpu_mem_read_gib_per_s * gib))
                * 1e9
        } else {
            0.0
        };
        let launch = p.vgpu_launch_ns - p.vgpu_events_per_launch * p.sim_timer_ns_per_event;
        copies + self.counts.kernels as f64 * launch.max(0.0)
    }

    /// `(value, samples)` of the per-layer metric `name`.
    fn value(&self, name: &str) -> (f64, usize) {
        let p = &self.probes;
        let c = &self.counts;
        let r = self.round;
        let ops = r.ops as f64;
        let rounds = self.round_ms.len();
        let per_fact = |x: u64| match r.factorizations {
            0 => 0.0,
            f => x as f64 / f as f64,
        };
        if let Some(v) = p.metric(name) {
            return (v, probes::REPS);
        }
        let exact = |v: f64| (v, rounds + self.traced_ms.len());
        let virt_s = r.virt[0] as f64 / 1e9;
        match name {
            "sim.events_per_op" => exact(c.events as f64 / ops),
            "sim.ns_per_event" => (self.round_ns() / c.events as f64, rounds),
            "sim.share" => (self.sim_ns() / self.round_ns(), rounds),
            "fabric.msgs_per_op" => exact(c.fabric_msgs as f64 / ops),
            "fabric.bytes_per_op" => exact(c.fabric_bytes as f64 / ops),
            "fabric.peak_link_queue" => exact(c.peak_link_queue as f64),
            "fabric.share" => (self.fabric_ns() / self.round_ns(), rounds),
            "core.requests_per_op" => exact(c.requests as f64 / ops),
            "core.blocks_per_op" => exact(c.blocks as f64 / ops),
            "core.retries" => exact(c.retries as f64),
            "core.h2d_us_per_mib" => self.span_p50("ac.mem_cpy_h2d"),
            "core.d2h_us_per_mib" => self.span_p50("ac.mem_cpy_d2h"),
            "core.launch_us" => self.span_p50("ac.launch"),
            "core.memset_us" => self.span_p50("ac.mem_set"),
            "core.alloc_free_us" => {
                let (alloc, n) = self.span_p50("ac.mem_alloc");
                (alloc + self.span_p50("ac.mem_free").0, n)
            }
            "core.cluster_build_us" => self.span_p50("build_cluster"),
            "core.codec_share" => (self.codec_ns() / self.round_ns(), rounds),
            "vgpu.share" => (self.vgpu_ns() / self.round_ns(), rounds),
            "arm.acquire_release_us" => self.span_p50("arm.acquire_release"),
            "arm.grants" => exact(c.grants as f64),
            "arm.queued_grants" => exact(r.arm_calls.saturating_sub(c.arm_direct) as f64),
            "arm.repl_entries" => exact(c.repl_entries as f64),
            "arm.heartbeats" => exact(c.heartbeats as f64),
            "linalg.requests_per_factorization" => exact(per_fact(c.requests)),
            "linalg.events_per_factorization" => exact(per_fact(c.events)),
            "linalg.qr_us_n2048" => self.span_p50(qr::span_name(2048)),
            "linalg.qr_us_n3072" => self.span_p50(qr::span_name(3072)),
            "linalg.qr_us_n4032" => self.span_p50(qr::span_name(4032)),
            "telemetry.trace_overhead_ratio" => {
                (median(self.traced_ms) / median(self.round_ms), rounds)
            }
            "model.virt_ms_per_round" => exact(virt_s * 1e3),
            "model.virt_mib_per_s" => exact(r.bytes as f64 / (1u64 << 20) as f64 / virt_s),
            "model.gflops_n4032" => exact(r.gflops_n4032),
            "harness.round_ms_p50_traced" => (median(self.traced_ms), self.traced_ms.len()),
            "harness.round_ms_p90" => (tenth(self.round_ms, false), rounds),
            "harness.round_ms_min" => (self.round_ms[0], rounds),
            "harness.cpu_s" => (self.cpu_s, 1),
            "harness.mib_per_s" => (self.mib_per_s, rounds),
            "harness.allocs_per_kop" => (self.allocs_per_kop, rounds),
            "harness.spans_per_round" => exact(self.trace.span_count() as f64),
            "harness.ops_per_round" => exact(ops),
            "harness.rounds" => (rounds as f64, rounds),
            "harness.unattributed_share" => (
                1.0 - (self.sim_ns() + self.fabric_ns() + self.codec_ns() + self.vgpu_ns())
                    / self.round_ns(),
                rounds,
            ),
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    }
}
