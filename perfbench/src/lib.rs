//! The benchmark's workloads and the closed loop that drives them through
//! the pipeline's layers.
//!
//! One batch takes a workload's scenario stream, drawn from the seed with
//! [`ScenarioSampler::sample_forced`], and passes each scenario through
//! the public entry point of each layer in turn: the §IV compact model,
//! the §V probe planner, the `evaluate_suite` accept rule and the §VI
//! trials. One scenario is in flight at a time; layers that parallelise
//! internally get the benchmark's [`ExecPolicy`]. Every layer call runs
//! inside a [`Tracer`] span, so a traced batch splits its wall time by
//! layer.

pub mod calib;
pub mod span;

use attack::{
    run_trials_robust_policy, run_trials_with_policy, scenario_net_config, AttackPlan,
    AttackerKind, ExecPolicy, FaultCounters, ProbePolicy, TrialReport,
};
use ftcache::PolicyKind;
use netsim::{FaultPlan, SwitchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::compact::CompactModel;
use recon_core::probe::{ProbeAnalysis, ProbePlanner};
use recon_core::useq::Evaluator;
use recon_core::ModelError;
use std::fmt::Write as _;
use std::time::Instant;
use traffic::{NetworkScenario, ScenarioSampler};

pub use calib::{Calibrator, REFERENCE_S};
pub use span::{process_cpu_s, Tracer};

/// Worker threads for layers that parallelise internally (model scoring,
/// trials): the core count of the two-core host the benchmark was sized
/// on.
pub const THREADS: usize = 2;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_suite", "trial_heavy", "lru_faults"];

/// When a batch ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After this many scenarios, accepted or not. Suits workloads whose
    /// cost is planning, which every scenario pays.
    Scenarios(usize),
    /// Once this many scenarios are accepted, or the stream of `60 ×`
    /// this many runs out, as in the experiment harness. Suits workloads
    /// whose cost is trials, which only accepted scenarios pay.
    Accepted(usize),
}

impl Stop {
    /// Scenarios drawn into the stream at set-up.
    #[must_use]
    pub fn stream_len(self) -> usize {
        match self {
            Stop::Scenarios(n) => n,
            Stop::Accepted(k) => 60 * k,
        }
    }
}

/// One named set of inputs: how scenarios are drawn and how each is
/// planned and tried.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name given on the command line.
    pub name: &'static str,
    /// The scenario generator.
    pub sampler: ScenarioSampler,
    /// Target-absence probability range passed to `sample_forced`.
    pub absence: (f64, f64),
    /// When a batch ends.
    pub stop: Stop,
    /// Attackers run in every trial.
    pub kinds: Vec<AttackerKind>,
    /// Trials per accepted scenario.
    pub trials: usize,
    /// Eviction policy the attacker models and the switch runs.
    pub cache_policy: PolicyKind,
    /// Rate passed to [`FaultPlan::uniform`]; 0 injects nothing.
    pub fault_rate: f64,
    /// Whether the attackers probe through the robust loop
    /// (`ProbePolicy::default()`).
    pub robust: bool,
}

impl Workload {
    /// The workload called `name`, or `None` if there is none.
    #[must_use]
    pub fn named(name: &str) -> Option<Workload> {
        let fast = ScenarioSampler {
            bits: 3,
            n_rules: 6,
            capacity: 3,
            delta: 0.05,
            window_secs: 10.0,
            ..ScenarioSampler::default()
        };
        let pressured = ScenarioSampler {
            capacity: 3,
            lambda_max: 2.0,
            ..ScenarioSampler::default()
        };
        let w = match name {
            // §VI-A operating point: model construction dominates.
            "paper_suite" => Workload {
                name: "paper_suite",
                sampler: ScenarioSampler::default(),
                absence: (0.05, 0.95),
                stop: Stop::Scenarios(48),
                kinds: AttackerKind::all().to_vec(),
                trials: 30,
                cache_policy: PolicyKind::Srt,
                fault_rate: 0.0,
                robust: false,
            },
            // Tiny models, many trials: netsim and classification dominate.
            "trial_heavy" => Workload {
                name: "trial_heavy",
                sampler: fast,
                absence: (0.05, 0.95),
                stop: Stop::Accepted(64),
                kinds: AttackerKind::all().to_vec(),
                trials: 1000,
                cache_policy: PolicyKind::Srt,
                fault_rate: 0.0,
                robust: false,
            },
            // The defense_tournament pressure point under LRU with faults.
            "lru_faults" => Workload {
                name: "lru_faults",
                sampler: pressured,
                absence: (0.2, 0.8),
                stop: Stop::Scenarios(300),
                kinds: vec![
                    AttackerKind::Naive,
                    AttackerKind::Model,
                    AttackerKind::Random,
                ],
                trials: 100,
                cache_policy: PolicyKind::Lru,
                fault_rate: 0.05,
                robust: true,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Draws the batch's scenarios from `seed`, one `traffic.sample` span
    /// each.
    #[must_use]
    pub fn sample_stream(&self, seed: u64, tracer: &mut Tracer) -> Vec<NetworkScenario> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.stop.stream_len())
            .map(|i| {
                tracer.span("traffic.sample", Some(i), || {
                    self.sampler.sample_forced(self.absence, &mut rng)
                })
            })
            .collect()
    }
}

/// Plans one scenario through the layers' own entry points, one span per
/// layer: the mean-field compact model, the probe planner, then scoring
/// (the best probe overall, the best non-target probe and the naive
/// probe). Returns the plan and the model's state count.
///
/// # Errors
///
/// Whatever [`CompactModel::build_with_policy`] or
/// [`ProbePlanner::best_probe`] returns.
pub fn plan_scenario(
    sc: &NetworkScenario,
    cache_policy: PolicyKind,
    policy: ExecPolicy,
    tracer: &mut Tracer,
    id: usize,
) -> Result<(AttackPlan, usize), ModelError> {
    let model = tracer.span("core.compact.build", Some(id), || {
        CompactModel::build_with_policy(
            &sc.rules,
            &sc.rates(),
            sc.capacity,
            Evaluator::mean_field(),
            cache_policy,
        )
    })?;
    let planner = tracer.span("core.probe.planner_new", Some(id), || {
        ProbePlanner::with_policy(&model, sc.target, sc.horizon_steps(), policy)
    });
    let plan = tracer.span("core.probe.score", Some(id), || {
        Ok::<_, ModelError>(AttackPlan {
            optimal: planner.best_probe(sc.all_flows())?,
            optimal_non_target: planner.best_probe(sc.all_flows().filter(|&f| f != sc.target))?,
            naive: planner.analyze(sc.target),
            p_absent: planner.p_absent(),
            p_absent_poisson: planner.prior_absence_poisson(),
            multi: None,
            adaptive: None,
        })
    })?;
    Ok((plan, model.n_states()))
}

/// Work counted over one batch. Every field is a pure function of the
/// workload and seed, so it repeats exactly from run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Scenarios planned.
    pub scenarios: u64,
    /// Scenarios whose plan passed the accept rule.
    pub accepted: u64,
    /// Scenarios planned and then rejected: no detector probe.
    pub not_detector: u64,
    /// Scenarios whose planning returned an error.
    pub model_error: u64,
    /// Model states built, summed over scenarios.
    pub states: u64,
    /// Candidate probes scored, summed over scenarios.
    pub candidates: u64,
    /// Trials run (each trial runs every attacker).
    pub trials: u64,
    /// Switch cache counters, summed over attackers and scenarios.
    pub cache: SwitchStats,
    /// Faults netsim injected.
    pub faults_injected: u64,
    /// Robust-probe counters, summed over attackers and scenarios.
    pub robust: FaultCounters,
    /// Attacker questions that got an answer.
    pub answered: u64,
    /// Attacker questions asked.
    pub asked: u64,
}

/// The result of one batch.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// One canonical line per scenario: the accept decision and, for
    /// accepted scenarios, the plan and the trial report, with every
    /// float written as its bit pattern.
    pub lines: Vec<String>,
    /// Work counts.
    pub counts: Counts,
    /// Planning latency per scenario (build, planner, scoring), seconds.
    pub plan_s: Vec<f64>,
    /// Planning errors and violated invariants, one message each.
    pub errors: Vec<String>,
    /// FNV-1a digest of `lines`.
    pub digest: u64,
}

/// The trial seed of the `accepted`-th accepted scenario, as the
/// experiment harness derives it.
fn trial_seed(seed: u64, accepted: u64) -> u64 {
    seed ^ accepted.wrapping_mul(0xA5A5_5A5A_1234_5678)
}

/// Runs one batch: every scenario of `stream` through every layer,
/// calling `between` after each scenario, outside the scenario's span and
/// timing.
#[must_use]
pub fn run_batch(
    w: &Workload,
    stream: &[NetworkScenario],
    seed: u64,
    policy: ExecPolicy,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(),
) -> Batch {
    let open = tracer.enter("batch", None);
    let mut b = Batch::default();
    for (i, sc) in stream.iter().enumerate() {
        if matches!(w.stop, Stop::Accepted(k) if b.counts.accepted as usize >= k) {
            break;
        }
        let scenario = tracer.enter("scenario", Some(i));
        b.counts.scenarios += 1;
        let t0 = Instant::now();
        let planned = plan_scenario(sc, w.cache_policy, policy, tracer, i);
        b.plan_s.push(t0.elapsed().as_secs_f64());
        let line = match planned {
            Err(e) => {
                b.counts.model_error += 1;
                b.errors.push(format!("scenario {i}: planning failed: {e}"));
                format!("{i} model_error")
            }
            Ok((plan, states)) => {
                b.counts.states += states as u64;
                b.counts.candidates += 2 * sc.rules.universe_size() as u64;
                let accept =
                    tracer.span("experiments.harness.accept", Some(i), || plan.is_detector());
                if accept {
                    let report = tracer.span("attack.trials", Some(i), || {
                        run_trials(w, sc, &plan, trial_seed(seed, b.counts.accepted), policy)
                    });
                    b.counts.accepted += 1;
                    tracer.span("output", Some(i), || {
                        check(w, &plan, &report, i, &mut b.errors);
                        count_report(w, &report, &mut b.counts);
                        accepted_line(i, &plan, &report)
                    })
                } else {
                    b.counts.not_detector += 1;
                    tracer.span("output", Some(i), || {
                        format!("{i} not_detector {}", analysis_key(&plan.optimal))
                    })
                }
            }
        };
        b.lines.push(line);
        tracer.exit(scenario);
        between();
    }
    b.digest = tracer.span("output", None, || digest(&b.lines));
    tracer.exit(open);
    b
}

/// FNV-1a over the lines, newline-terminated.
fn digest(lines: &[String]) -> u64 {
    let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    obs::manifest::fnv1a(text.as_bytes())
}

fn run_trials(
    w: &Workload,
    sc: &NetworkScenario,
    plan: &AttackPlan,
    seed: u64,
    policy: ExecPolicy,
) -> TrialReport {
    let mut net = scenario_net_config(sc);
    net.policy = w.cache_policy;
    net.faults = FaultPlan::uniform(w.fault_rate);
    if w.robust {
        run_trials_robust_policy(
            sc,
            plan,
            &w.kinds,
            w.trials,
            seed,
            &net,
            policy,
            &ProbePolicy::default(),
        )
    } else {
        run_trials_with_policy(sc, plan, &w.kinds, w.trials, seed, &net, policy)
    }
}

/// Invariants every accepted scenario's plan and report must satisfy.
fn check(w: &Workload, plan: &AttackPlan, r: &TrialReport, i: usize, errors: &mut Vec<String>) {
    let mut fail = |what: &str| errors.push(format!("scenario {i}: {what}"));
    if !(0.0..=1.0).contains(&plan.p_absent) {
        fail("p_absent outside [0, 1]");
    }
    if plan.optimal.info_gain + 1e-9 < plan.naive.info_gain
        || plan.optimal.info_gain + 1e-9 < plan.optimal_non_target.info_gain
    {
        fail("optimal probe gains less than another candidate");
    }
    let kinds: Vec<AttackerKind> = r.by_attacker.iter().map(|(k, _)| *k).collect();
    if kinds != w.kinds {
        fail("report does not cover the workload's attackers in order");
    }
    if r.by_attacker
        .iter()
        .any(|(_, a)| a.total() != w.trials as u64)
    {
        fail("an attacker's verdict count differs from the trial count");
    }
    if r.cache_stats.len() != w.kinds.len() || r.sim_faults.len() != w.kinds.len() {
        fail("per-attacker stats missing");
    }
    if !w.robust && r.by_attacker.iter().any(|(_, a)| a.inconclusive > 0) {
        fail("inconclusive verdict without the robust loop");
    }
}

fn count_report(w: &Workload, r: &TrialReport, c: &mut Counts) {
    c.trials += w.trials as u64;
    for s in &r.cache_stats {
        c.cache.merge(s);
    }
    for f in &r.sim_faults {
        c.faults_injected += f.packets_dropped
            + f.packet_ins_lost
            + f.flow_mods_lost
            + f.flow_mods_delayed
            + f.flow_mods_rejected;
    }
    for f in &r.fault_counters {
        c.robust.merge(f);
    }
    for (_, a) in &r.by_attacker {
        c.answered += a.n();
        c.asked += a.total();
    }
}

fn analysis_key(a: &ProbeAnalysis) -> String {
    format!(
        "{}:{:x}:{:x}:{:x}:{:x}:{:x}:{:x}:{:x}",
        a.probe.index(),
        a.p_hit.to_bits(),
        a.p_absent.to_bits(),
        a.p_absent_given_miss.to_bits(),
        a.p_present_given_hit.to_bits(),
        a.prior_entropy.to_bits(),
        a.conditional_entropy.to_bits(),
        a.info_gain.to_bits()
    )
}

fn accepted_line(i: usize, plan: &AttackPlan, r: &TrialReport) -> String {
    let mut s = format!(
        "{i} accepted {} {} {} {:x} {:x} base={:x}",
        analysis_key(&plan.optimal),
        analysis_key(&plan.optimal_non_target),
        analysis_key(&plan.naive),
        plan.p_absent.to_bits(),
        plan.p_absent_poisson.to_bits(),
        r.base_rate_present.to_bits()
    );
    for (k, (kind, a)) in r.by_attacker.iter().enumerate() {
        let c = r.cache_stats.get(k).copied().unwrap_or_default();
        let f = r.sim_faults.get(k).copied().unwrap_or_default();
        let q = r.fault_counters.get(k).copied().unwrap_or_default();
        // Writing into a String cannot fail.
        let _ = write!(
            s,
            " {}={},{},{},{},{}/{},{},{},{},{},{}/{},{},{},{},{},{}/{},{},{},{},{},{}",
            kind.name(),
            a.tp,
            a.tn,
            a.fp,
            a.fn_,
            a.inconclusive,
            c.hits,
            c.misses,
            c.uncovered,
            c.installs,
            c.evictions,
            c.padded,
            f.packets_dropped,
            f.packet_ins_lost,
            f.flow_mods_lost,
            f.flow_mods_delayed,
            f.flow_mods_rejected,
            f.probe_timeouts,
            q.probes,
            q.timeouts,
            q.retries,
            q.outliers,
            q.inconclusive,
            q.recalibrations
        );
    }
    s
}

/// The digest recorded for `(workload, seed)` in `digests.txt`, if any.
#[must_use]
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}
