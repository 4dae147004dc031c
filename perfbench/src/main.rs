//! Runs one workload for a seed and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_suite --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The run draws the scenario stream, then repeats the workload's fixed
//! batch while the next one is predicted to end within `--seconds`, with
//! a burst of set-ups before the first batch and after each one. With
//! `--trace 0` it also times a fixed reference work between scenarios and
//! reports the end-to-end metrics, its timings divided by the run's
//! slowdown against the reference host; with `--trace 1` it
//! alternates untraced and traced batches, reports the per-layer
//! metrics from the traced ones and writes their spans to
//! `perfbench/out/`. A human-readable table goes to stderr; the last
//! line of stdout is one JSON object. The exit code is 1 when any output
//! is wrong: a digest that differs between batches or from the one
//! recorded for the seed, a planning error, or a violated invariant.

use perfbench::{
    process_cpu_s, recorded_digest, run_batch, Batch, Calibrator, Tracer, Workload, REFERENCE_S,
    THREADS, WORKLOADS,
};
use recon_core::exec::ExecPolicy;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use traffic::NetworkScenario;

/// Set-ups per burst. One burst runs before the first batch and one after
/// each batch; `setup_s` is the median of them all. A burst lasts a few
/// milliseconds, and a shared host's speed can change from second to
/// second, so set-ups spread over the run give a steadier median than one
/// burst at the start.
const SETUP_BURST: usize = 11;

/// Layers whose spans sit directly under a scenario or batch span, in
/// pipeline order.
const LAYERS: [&str; 6] = [
    "core.compact.build",
    "core.probe.planner_new",
    "core.probe.score",
    "experiments.harness.accept",
    "attack.trials",
    "output",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::named(&value)
                            .ok_or_else(|| bad(&format!("one of {}", WORKLOADS.join(", "))))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("a positive number of seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let missing = |name: &str| format!("missing {name}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// One timed batch.
struct Timed {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    batch: Batch,
}

/// Nearest-rank quantile of `v`; 0 when empty.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    let mut setup_s = Vec::new();
    let (stream, policy) = set_up(w, args.seed, &mut tracer, &mut setup_s);

    // Measure: repeat the batch while the next one is predicted to end in
    // time. A traced run alternates untraced and traced batches and needs
    // one of each.
    let start = Instant::now();
    let mut untraced_tracer = Tracer::disabled();
    let mut calibrator = Calibrator::new();
    let mut runs: Vec<Timed> = Vec::new();
    loop {
        let traced = args.trace && runs.len() % 2 == 1;
        let t = if traced {
            &mut tracer
        } else {
            &mut untraced_tracer
        };
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        // Traced runs report no timings to scale, and keep the reference
        // work out of their batch spans.
        let batch = run_batch(w, &stream, args.seed, policy, t, &mut || {
            if !args.trace {
                calibrator.sample();
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        runs.push(Timed {
            traced,
            wall_s,
            cpu_s: process_cpu_s() - cpu0,
            batch,
        });
        let _ = set_up(w, args.seed, &mut tracer, &mut setup_s);
        let need_traced = args.trace && runs.len() < 2;
        if !need_traced && start.elapsed().as_secs_f64() + wall_s > args.seconds {
            break;
        }
    }

    // Correctness: every batch agrees with the first, scenario by
    // scenario, and the first agrees with the recorded digest.
    let first = &runs[0].batch;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for r in &runs {
        attempted += r.batch.counts.scenarios;
        failed += r.batch.errors.len() as u64;
        failed += r
            .batch
            .lines
            .iter()
            .zip(&first.lines)
            .filter(|(a, b)| a != b)
            .count() as u64;
    }
    for e in runs.iter().flat_map(|r| &r.batch.errors).take(10) {
        eprintln!("perfbench: {e}");
    }
    let recorded = recorded_digest(w.name, args.seed);
    let verdict = match recorded {
        Some(d) if d == first.digest => "matches the recorded digest",
        Some(_) => {
            failed = attempted;
            "MISMATCHES the recorded digest"
        }
        None => "has no recorded digest; checked batch-to-batch agreement only",
    };
    eprintln!(
        "digest {} {} {:016x} {verdict}",
        w.name, args.seed, first.digest
    );

    let metrics = if args.trace {
        layer_metrics(&runs, &tracer, setup_s.len() as f64)
    } else {
        end_to_end_metrics(&runs, &setup_s, calibrator.times())
    };
    eprintln!(
        "{} seed {} on {THREADS} threads: {} batches of {} scenarios, {} accepted per batch",
        w.name,
        args.seed,
        runs.len(),
        first.counts.scenarios,
        first.counts.accepted
    );
    let walls: Vec<String> = runs
        .iter()
        .map(|r| format!("{:.3}{}", r.wall_s, if r.traced { "t" } else { "" }))
        .collect();
    eprintln!("batch wall times (s, t = traced): {}", walls.join(" "));
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<40} {value:>14.6} {unit}");
    }
    if args.trace {
        print_budget(&runs, &tracer);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs a burst of set-ups, each drawing the scenario stream and choosing
/// the execution policy, and appends their durations to `times`.
fn set_up(
    w: &Workload,
    seed: u64,
    tracer: &mut Tracer,
    times: &mut Vec<f64>,
) -> (Vec<NetworkScenario>, ExecPolicy) {
    let mut setup = (Vec::new(), ExecPolicy::Serial);
    for _ in 0..SETUP_BURST {
        // Free the previous set-up's stream before the clock starts.
        setup.0 = Vec::new();
        let t0 = Instant::now();
        let open = tracer.enter("setup", None);
        setup = (
            w.sample_stream(seed, tracer),
            ExecPolicy::with_threads(THREADS),
        );
        tracer.exit(open);
        times.push(t0.elapsed().as_secs_f64());
    }
    setup
}

fn end_to_end_metrics(runs: &[Timed], setup_s: &[f64], reference_s: &[f64]) -> Vec<Metric> {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
    let plan_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.batch.plan_s.iter().map(|s| s * 1e3))
        .collect();
    // How much slower this host ran than the reference host; every
    // timing is divided by it.
    let slowdown = median(reference_s) / REFERENCE_S;
    eprintln!(
        "plan latency samples: {}; reference work: {} samples, median {:.3} ms, \
         slowdown {slowdown:.4} (timings are divided by it)",
        plan_ms.len(),
        reference_s.len(),
        median(reference_s) * 1e3
    );
    let raw = [
        ("wall_s", median(&walls), "s"),
        ("cpu_s", median(&cpus), "s"),
        ("plan_ms_p50", quantile(&plan_ms, 0.5), "ms"),
        ("plan_ms_p75", quantile(&plan_ms, 0.75), "ms"),
        ("setup_s", median(setup_s), "s"),
    ];
    for (name, value, unit) in &raw {
        eprintln!("  {name:<40} {value:>14.6} {unit} unscaled");
    }
    let mut metrics: Vec<Metric> = raw
        .iter()
        .map(|&(name, value, unit)| (name, value / slowdown, unit))
        .collect();
    metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
    metrics
}

/// The spans called `name`: their summed self time and CPU time, and
/// each one's duration.
struct LayerTimes {
    busy_s: f64,
    cpu_s: f64,
    walls: Vec<f64>,
}

fn layer_times(tracer: &Tracer, own: &[f64], name: &str) -> LayerTimes {
    let mut lt = LayerTimes {
        busy_s: 0.0,
        cpu_s: 0.0,
        walls: Vec::new(),
    };
    for (s, own) in tracer.spans().iter().zip(own) {
        if s.name == name {
            lt.busy_s += own;
            lt.cpu_s += s.cpu_s;
            lt.walls.push(s.wall_s());
        }
    }
    lt
}

fn layer_metrics(runs: &[Timed], tracer: &Tracer, setups: f64) -> Vec<Metric> {
    let own = tracer.self_times();
    let traced: Vec<&Timed> = runs.iter().filter(|r| r.traced).collect();
    let n = traced.len() as f64;
    let per_batch = |name: &str| {
        let lt = layer_times(tracer, &own, name);
        (
            lt.walls.len() as f64 / n,
            lt.busy_s / n,
            lt.cpu_s / n,
            lt.walls,
        )
    };
    let sample = layer_times(tracer, &own, "traffic.sample");
    let (build_calls, build_busy, build_cpu, build_walls) = per_batch("core.compact.build");
    let (new_calls, new_busy, _, new_walls) = per_batch("core.probe.planner_new");
    let (score_calls, score_busy, _, _) = per_batch("core.probe.score");
    let (_, accept_busy, _, _) = per_batch("experiments.harness.accept");
    let (trial_calls, trial_busy, trial_cpu, _) = per_batch("attack.trials");
    let (_, output_busy, _, _) = per_batch("output");
    let batch_wall = layer_times(tracer, &own, "batch").walls.iter().sum::<f64>() / n;
    let layer_busy: f64 = LAYERS.iter().map(|l| per_batch(l).1).sum();
    let cpu = traced.iter().map(|r| r.cpu_s).sum::<f64>() / n;
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    let untraced_walls: Vec<f64> = runs
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall_s)
        .collect();
    let c = &traced[0].batch.counts;
    let ms = |v: &[f64], q: f64| quantile(v, q) * 1e3;
    vec![
        (
            "traffic.sample.calls",
            sample.walls.len() as f64 / setups,
            "count",
        ),
        ("traffic.sample.busy_s", sample.busy_s / setups, "s"),
        ("core.compact.build.calls", build_calls, "count"),
        ("core.compact.build.busy_s", build_busy, "s"),
        ("core.compact.build.cpu_s", build_cpu, "s"),
        ("core.compact.build.ms_p50", ms(&build_walls, 0.5), "ms"),
        ("core.compact.build.ms_p90", ms(&build_walls, 0.9), "ms"),
        ("core.compact.build.states", c.states as f64, "count"),
        (
            "core.compact.build.us_per_state",
            ratio(build_busy * 1e6, c.states as f64),
            "us",
        ),
        ("core.probe.planner_new.calls", new_calls, "count"),
        ("core.probe.planner_new.busy_s", new_busy, "s"),
        ("core.probe.planner_new.ms_p50", ms(&new_walls, 0.5), "ms"),
        ("core.probe.score.calls", score_calls, "count"),
        ("core.probe.score.busy_s", score_busy, "s"),
        ("core.probe.score.candidates", c.candidates as f64, "count"),
        ("experiments.harness.accept.busy_s", accept_busy, "s"),
        ("attack.trials.calls", trial_calls, "count"),
        ("attack.trials.busy_s", trial_busy, "s"),
        ("attack.trials.cpu_s", trial_cpu, "s"),
        ("attack.trials.trials", c.trials as f64, "count"),
        (
            "attack.trials.us_per_trial",
            ratio(trial_busy * 1e6, c.trials as f64),
            "us",
        ),
        ("netsim.cache.hits", c.cache.hits as f64, "count"),
        ("netsim.cache.misses", c.cache.misses as f64, "count"),
        ("netsim.cache.installs", c.cache.installs as f64, "count"),
        ("netsim.cache.evictions", c.cache.evictions as f64, "count"),
        (
            "netsim.cache.hit_ratio",
            ratio(c.cache.hits as f64, (c.cache.hits + c.cache.misses) as f64),
            "ratio",
        ),
        ("netsim.faults.injected", c.faults_injected as f64, "count"),
        ("attack.robust.probes", c.robust.probes as f64, "count"),
        ("attack.robust.retries", c.robust.retries as f64, "count"),
        ("attack.robust.timeouts", c.robust.timeouts as f64, "count"),
        (
            "attack.robust.inconclusive",
            c.robust.inconclusive as f64,
            "count",
        ),
        (
            "attack.robust.answer_ratio",
            ratio(c.answered as f64, c.asked as f64),
            "ratio",
        ),
        ("experiments.harness.scenarios", c.scenarios as f64, "count"),
        ("experiments.harness.accepted", c.accepted as f64, "count"),
        (
            "experiments.harness.accept_ratio",
            ratio(c.accepted as f64, c.scenarios as f64),
            "ratio",
        ),
        (
            "experiments.harness.rejected.not_detector",
            c.not_detector as f64,
            "count",
        ),
        (
            "experiments.harness.rejected.model_error",
            c.model_error as f64,
            "count",
        ),
        ("exec.idle_core_s", THREADS as f64 * batch_wall - cpu, "s"),
        ("output.busy_s", output_busy, "s"),
        ("budget.wall_s", batch_wall, "s"),
        ("budget.unattributed_s", batch_wall - layer_busy, "s"),
        (
            "budget.trace_overhead_s",
            median(&traced_walls) - median(&untraced_walls),
            "s",
        ),
    ]
}

/// Prints the per-layer budget of a traced batch: each layer's self
/// time, and the batch and scenario spans' own time as "unattributed".
fn print_budget(runs: &[Timed], tracer: &Tracer) {
    let own = tracer.self_times();
    let n = runs.iter().filter(|r| r.traced).count() as f64;
    let wall = layer_times(tracer, &own, "batch").walls.iter().sum::<f64>() / n;
    eprintln!("budget per traced batch ({n} batches):");
    eprintln!("  {:<28} {:>10} {:>8}", "layer", "self_s", "share");
    let mut rows: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&l| (l, layer_times(tracer, &own, l).busy_s / n))
        .collect();
    let unattributed = (layer_times(tracer, &own, "batch").busy_s
        + layer_times(tracer, &own, "scenario").busy_s)
        / n;
    rows.push(("unattributed", unattributed));
    for (name, s) in &rows {
        eprintln!("  {name:<28} {s:>10.4} {:>7.2}%", ratio(100.0 * s, wall));
    }
    eprintln!("  {:<28} {wall:>10.4} {:>7.2}%", "wall", 100.0);
}
