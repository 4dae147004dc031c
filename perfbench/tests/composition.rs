//! The traced, layer-by-layer split measures the same program the
//! experiments run: the plan composed from the separate layer calls is
//! the one `plan_attack_full` returns, and a batch's results do not
//! depend on the thread count or on tracing.
//!
//! Each check runs a short prefix of every workload: the stream of seed
//! [`SEED`] up to its first accepted scenario, so the trial layer runs
//! too.

use attack::{plan_attack_full, ExecPolicy};
use perfbench::{plan_scenario, run_batch, Stop, Tracer, Workload, WORKLOADS};
use recon_core::useq::Evaluator;
use std::collections::BTreeSet;

/// A seed whose streams accept a scenario within their first two.
const SEED: u64 = 2;

fn prefix(name: &str) -> Workload {
    let mut w = Workload::named(name).expect("a listed workload");
    w.stop = Stop::Accepted(1);
    w
}

#[test]
fn layer_calls_compose_to_plan_attack_full() {
    let policy = ExecPolicy::with_threads(2);
    for name in WORKLOADS {
        let w = prefix(name);
        let stream = w.sample_stream(SEED, &mut Tracer::disabled());
        for (i, sc) in stream.iter().take(2).enumerate() {
            let (layered, _) =
                plan_scenario(sc, w.cache_policy, policy, &mut Tracer::disabled(), i)
                    .expect("the workloads' scenarios plan");
            let whole = plan_attack_full(sc, Evaluator::mean_field(), 0, 0, policy, w.cache_policy)
                .expect("the workloads' scenarios plan");
            assert_eq!(layered, whole, "{name} scenario {i}");
        }
    }
}

#[test]
fn digest_is_independent_of_threads_and_tracing() {
    for name in WORKLOADS {
        let w = prefix(name);
        let stream = w.sample_stream(SEED, &mut Tracer::disabled());
        let run = |threads: usize, tracer: &mut Tracer| {
            run_batch(
                &w,
                &stream,
                SEED,
                ExecPolicy::with_threads(threads),
                tracer,
                &mut || {},
            )
        };
        let base = run(2, &mut Tracer::disabled());
        assert_eq!(base.counts.accepted, 1, "{name}");
        assert!(
            base.counts.scenarios <= 2,
            "{name}: prefix too long for a test"
        );
        assert!(base.errors.is_empty(), "{name}: {:?}", base.errors);

        let serial = run(1, &mut Tracer::disabled());
        assert_eq!(base.lines, serial.lines, "{name}: threads 1 vs 2");
        assert_eq!(base.digest, serial.digest);

        let mut tracer = Tracer::enabled();
        let traced = run(2, &mut tracer);
        assert_eq!(base.lines, traced.lines, "{name}: traced vs untraced");
        assert_eq!(base.counts, traced.counts);
        let names: BTreeSet<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for layer in [
            "batch",
            "scenario",
            "core.compact.build",
            "core.probe.planner_new",
            "core.probe.score",
            "experiments.harness.accept",
            "attack.trials",
            "output",
        ] {
            assert!(names.contains(layer), "{name}: no {layer} span");
        }
    }
}
