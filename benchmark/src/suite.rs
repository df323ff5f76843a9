//! `all`, `aa` and `selfcheck`: sets of runs, each workload in a fresh
//! child process of this binary so no run inherits another's heap, page
//! cache footprint or peak RSS.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::measure::json_number;
use crate::spec::{self, MetricSpec, END_TO_END, WORKLOADS};
use crate::Cli;

/// One child run: its metric lines, parsed.
struct Run {
    correct: bool,
    /// `name → (value, unit)`.
    metrics: BTreeMap<String, (f64, String)>,
}

/// Run `workload` in a child, echo its metric lines under a prefix, and
/// wait for it to end.
fn child(cli: &Cli, workload: &str, seed: u64, trace: bool, half: bool) -> Run {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--workload", workload, "--out", &cli.out_dir])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if half {
        cmd.arg("--half-work");
    }
    let mut run = Run {
        correct: false,
        metrics: BTreeMap::new(),
    };
    let output = match cmd.output() {
        Ok(output) => output,
        Err(e) => {
            eprintln!("benchmark: cannot run {workload}: {e}");
            return run;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let tag = format!(
        "{workload}{}{}",
        if trace { " traced" } else { "" },
        if half { " half" } else { "" }
    );
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", name, value, unit, n] = f[..] {
            println!("{tag}: {name} {value} {unit} {n}");
            if let Ok(v) = value.parse() {
                run.metrics.insert(name.to_owned(), (v, unit.to_owned()));
            }
        }
    }
    run.correct = output.status.success()
        && stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\": true"));
    if !run.correct {
        println!("{tag}: FAILED (exit {:?})", output.status.code());
    }
    run
}

/// `BENCHMARK.json` is generated from the harness's tables; a copy in the
/// working directory that has drifted from them fails the set.
fn manifest_in_sync() -> bool {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(on_disk) if on_disk != spec::manifest() => {
            println!("BENCHMARK.json differs from `benchmark manifest`: regenerate it");
            false
        }
        _ => true,
    }
}

/// Untraced and traced run of every workload on `seed`.
fn set(cli: &Cli, seed: u64) -> Vec<(&'static str, Run, Run)> {
    WORKLOADS
        .iter()
        .map(|w| {
            (
                w.name,
                child(cli, w.name, seed, false, false),
                child(cli, w.name, seed, true, false),
            )
        })
        .collect()
}

fn json_metrics(run: &Run) -> String {
    let fields: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every metric of every workload, then one JSON object per workload.
/// Fails if any check failed, any `good_ratio` is below 1, or the virtual
/// outputs differed between rounds (the child reports all three as
/// `correct: false`).
pub fn all(cli: &Cli) -> bool {
    let runs = set(cli, cli.seed);
    let mut ok = manifest_in_sync();
    for (name, plain, traced) in &runs {
        let correct = plain.correct
            && traced.correct
            && plain.metrics.get("good_ratio").is_some_and(|m| m.0 >= 1.0);
        ok &= correct;
        // No performance claim: this change defines the benchmark.
        println!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"correct\": {correct}, \
             \"end_to_end\": {}, \"per_layer\": {}, \"claim\": null}}",
            cli.seed,
            json_metrics(plain),
            json_metrics(traced)
        );
    }
    ok
}

/// By how much of `a` the value `b` is worse (negative: better).
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if spec.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Compare two untraced runs metric by metric against the bounds; `true`
/// when each differs by no more than its bound, either way round.
fn within_bounds(what: &str, a: &Run, b: &Run) -> bool {
    let mut ok = a.correct && b.correct;
    for m in &END_TO_END {
        let (Some(x), Some(y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
            println!("{what}: {} missing", m.name);
            ok = false;
            continue;
        };
        let diff = worse_by(m, x.0, y.0).abs();
        let verdict = if diff <= m.bound { "ok" } else { "OUTSIDE" };
        ok &= diff <= m.bound;
        println!(
            "{what}: {} {} vs {} {}: differs {:.2}% of bound {:.1}% {verdict}",
            m.name,
            json_number(x.0),
            json_number(y.0),
            m.unit,
            diff * 100.0,
            m.bound * 100.0
        );
    }
    ok
}

/// Two sets of runs of the same binary on the same seed: every
/// end-to-end metric must agree within its bound, and every `model.*`
/// value and exact count must be identical.
pub fn aa(cli: &Cli) -> bool {
    let first = set(cli, cli.seed);
    let second = set(cli, cli.seed);
    let mut ok = manifest_in_sync();
    for ((name, plain_a, traced_a), (_, plain_b, traced_b)) in first.iter().zip(&second) {
        ok &= within_bounds(&format!("aa {name}"), plain_a, plain_b);
        ok &= traced_a.correct && traced_b.correct;
        for (metric, (a, unit)) in &traced_a.metrics {
            if !spec::is_exact(metric) {
                continue;
            }
            let same = traced_b.metrics.get(metric).is_some_and(|b| b.0 == *a);
            ok &= same;
            println!(
                "aa {name}: {metric} {} {unit}: {}",
                json_number(*a),
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    println!("aa: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Workloads whose ops per round `selfcheck` halves, with the windows
/// the halved run's `round_ms_p10` and `ops_per_s` must land in, as
/// multiples of the full run's.
///
/// `ctrl_churn` is allowed to come in below one half. Its round is not
/// uniform: events per op climb from 35 in the first cycles to 50 in the
/// last (864 k events for 18 272 ops, 389 k for the first 9 136), because
/// the timers behind every framed request and ARM call are not cancelled
/// when the reply arrives, and begin to fire, each waking its task for
/// nothing, once the round has outlived their timeouts. Half the ops is
/// 0.45 of the events, and the time follows the events.
const HALVED: [(&str, [f64; 2], [f64; 2]); 2] = [
    ("copy_h2d", [0.45, 0.55], [0.9, 1.1]),
    ("ctrl_churn", [0.40, 0.55], [0.9, 1.25]),
];

/// The numbers must track work and not the seed: half the ops per round
/// puts `round_ms_p10` and `ops_per_s` inside the [`HALVED`] windows, and
/// a second seed keeps every end-to-end metric of every workload within
/// its bound.
pub fn selfcheck(cli: &Cli) -> bool {
    let mut ok = true;
    let other_seed = cli.seed.wrapping_add(1);
    for w in &WORKLOADS {
        // Runs that are compared are neighbours in time: the sandbox's
        // noise comes in spells of minutes.
        let whole = child(cli, w.name, cli.seed, false, false);
        if let Some((_, time_window, rate_window)) = HALVED.iter().find(|h| h.0 == w.name) {
            let half = child(cli, w.name, cli.seed, false, true);
            let get = |r: &Run, m: &str| r.metrics.get(m).map_or(f64::NAN, |v| v.0);
            let time = get(&half, "round_ms_p10") / get(&whole, "round_ms_p10");
            let rate = get(&half, "ops_per_s") / get(&whole, "ops_per_s");
            let pass = half.correct
                && whole.correct
                && (time_window[0]..=time_window[1]).contains(&time)
                && (rate_window[0]..=rate_window[1]).contains(&rate);
            ok &= pass;
            println!(
                "selfcheck {}: half the work gives {time:.3}x round_ms_p10 (want {}-{}), \
                 {rate:.3}x ops_per_s (want {}-{}): {}",
                w.name,
                time_window[0],
                time_window[1],
                rate_window[0],
                rate_window[1],
                if pass { "ok" } else { "FAIL" }
            );
        }
        let other = child(cli, w.name, other_seed, false, false);
        ok &= within_bounds(
            &format!("selfcheck {} seed {} vs {other_seed}", w.name, cli.seed),
            &whole,
            &other,
        );
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    ok
}
