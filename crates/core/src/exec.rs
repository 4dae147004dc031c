//! Execution policy, run statistics, and the deterministic fan-out helper
//! shared by the trial engine, the probe-evaluation engine and the
//! compact-model build.
//!
//! Monte-Carlo evaluation (§VI) runs hundreds of independent trials per
//! configuration, probe selection (§V) scores dozens of independent
//! candidate probes, and a compact model (§IV-B) analyses thousands of
//! independent states. In each case a work item is a pure function of
//! its index — trial RNG streams derive purely from
//! `(seed, trial index, attacker index)`, a candidate probe's
//! information gain depends only on the cached evolved distributions, and
//! a state's analysis only on the state, the rules and the rates — so
//! the batch can be distributed across threads with **bit-identical**
//! results to a serial run. [`ExecPolicy`] selects how that work is
//! scheduled; [`map_indexed`] performs the index-ordered
//! fan-out/reduction, running items on the calling thread as well as on
//! the workers it spawns; [`RunStats`] reports what it cost.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
// detlint::allow(D2): RunStats reports wall-clock throughput to the user;
// the measured time never feeds back into any result.
use std::time::Instant;

/// Environment variable consulted by [`ExecPolicy::from_env`]: a thread
/// count, or `auto`/`0` for one thread per available core.
pub const THREADS_ENV_VAR: &str = "FLOW_RECON_THREADS";

/// How a batch of independent work items (trials, sweep points, candidate
/// probes) is scheduled.
///
/// The policy never affects results, only wall time: parallel execution
/// is bit-identical to [`ExecPolicy::Serial`] at the same seed (see the
/// determinism contract in `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecPolicy {
    /// Run every item on the calling thread, in index order.
    Serial,
    /// Distribute items across `threads` threads ([`map_indexed`] counts
    /// the calling thread as one of them).
    Parallel {
        /// Thread count (values ≤ 1 behave like `Serial`).
        threads: usize,
    },
}

impl ExecPolicy {
    /// One thread per available core (`Serial` on single-core hosts).
    #[must_use]
    pub fn auto() -> Self {
        let cores = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(cores)
    }

    /// A policy using exactly `threads` workers (`Serial` if ≤ 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        if threads <= 1 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel { threads }
        }
    }

    /// Reads [`THREADS_ENV_VAR`], falling back to [`ExecPolicy::auto`]
    /// when unset.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to something other than a thread
    /// count or `auto` — a misconfigured run should fail loudly, not
    /// silently change shape.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV_VAR) {
            Ok(raw) => Self::parse(&raw).unwrap_or_else(|| {
                panic!("invalid {THREADS_ENV_VAR}=`{raw}`: expected a thread count or `auto`")
            }),
            Err(_) => Self::auto(),
        }
    }

    /// Parses a thread-count argument: a positive integer, or `auto`/`0`
    /// for [`ExecPolicy::auto`]. Returns `None` on anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Some(Self::auto());
        }
        match s.parse::<usize>() {
            Ok(0) => Some(Self::auto()),
            Ok(n) => Some(Self::with_threads(n)),
            Err(_) => None,
        }
    }

    /// The number of worker threads this policy schedules on.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { threads } => threads.max(1),
        }
    }

    /// Threads actually worth spawning for `work_items` items.
    #[must_use]
    pub fn effective_threads(self, work_items: usize) -> usize {
        self.threads().min(work_items.max(1))
    }
}

impl fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecPolicy::Serial => write!(f, "serial"),
            ExecPolicy::Parallel { threads } => write!(f, "parallel({threads})"),
        }
    }
}

/// Evaluates `f(0), f(1), …, f(n - 1)` under `policy` and returns the
/// results in index order.
///
/// Each invocation of `f` must be a pure function of its index — the
/// threads pull indices from a shared cursor, so the *schedule* is
/// non-deterministic while the returned `Vec` is always identical to the
/// serial `(0..n).map(f).collect()`. Any order-sensitive reduction
/// (tie-breaking argmax folds, first-error-wins scans) therefore stays
/// with the caller, running serially over this index-ordered output —
/// that is what keeps parallel runs bit-identical to serial ones.
///
/// The calling thread runs items too: a policy of `threads` spawns only
/// `threads − 1` scoped workers, and none at all when
/// [`ExecPolicy::effective_threads`] is 1. Each thread keeps its results
/// in a private list, so there is no shared slot vector and no lock. A
/// panic in any item, on the caller or on a worker, propagates with its
/// own payload once every thread has stopped.
pub fn map_indexed<T, F>(policy: ExecPolicy, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = policy.effective_threads(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
        let mut parts = vec![drain()];
        for worker in workers {
            // Re-raise a worker's own payload; the scope still waits for
            // the other workers before the unwind leaves it.
            parts.push(
                worker
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        parts
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index filled"))
        .collect()
}

/// Wall-clock accounting for one batch of trials.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Trials executed (summed over every `run_trials` call measured).
    pub trials: u64,
    /// Worker threads the policy scheduled on.
    pub threads: usize,
    /// Elapsed wall time in seconds.
    pub wall_secs: f64,
}

impl RunStats {
    /// Runs `f`, timing it as `trials` trials under `policy`.
    pub fn measure<T>(policy: ExecPolicy, trials: usize, f: impl FnOnce() -> T) -> (T, RunStats) {
        // detlint::allow(D2): throughput accounting only; see module note.
        let start = Instant::now();
        let out = f();
        let stats = RunStats {
            trials: trials as u64,
            threads: policy.threads(),
            wall_secs: start.elapsed().as_secs_f64(),
        };
        (out, stats)
    }

    /// Throughput in trials per second (infinite for a zero-time run).
    #[must_use]
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.trials as f64 / self.wall_secs
        } else {
            f64::INFINITY
        }
    }

    /// Folds another measurement into this one (trials and wall time
    /// add; the thread count must match).
    pub fn absorb(&mut self, other: &RunStats) {
        debug_assert_eq!(
            self.threads, other.threads,
            "mixing thread counts in one stat"
        );
        self.trials += other.trials;
        self.wall_secs += other.wall_secs;
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials in {:.3} s on {} thread{} ({:.1} trials/s)",
            self.trials,
            self.wall_secs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.trials_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_collapses_to_serial() {
        assert_eq!(ExecPolicy::with_threads(0), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::with_threads(1), ExecPolicy::Serial);
        assert_eq!(
            ExecPolicy::with_threads(4),
            ExecPolicy::Parallel { threads: 4 }
        );
    }

    #[test]
    fn parse_accepts_counts_and_auto() {
        assert_eq!(ExecPolicy::parse("1"), Some(ExecPolicy::Serial));
        assert_eq!(
            ExecPolicy::parse("8"),
            Some(ExecPolicy::Parallel { threads: 8 })
        );
        assert_eq!(
            ExecPolicy::parse(" 2 "),
            Some(ExecPolicy::Parallel { threads: 2 })
        );
        assert_eq!(ExecPolicy::parse("auto"), Some(ExecPolicy::auto()));
        assert_eq!(ExecPolicy::parse("0"), Some(ExecPolicy::auto()));
        assert_eq!(ExecPolicy::parse("many"), None);
        assert_eq!(ExecPolicy::parse("-3"), None);
    }

    #[test]
    fn effective_threads_never_exceeds_work() {
        let p = ExecPolicy::Parallel { threads: 8 };
        assert_eq!(p.effective_threads(3), 3);
        assert_eq!(p.effective_threads(100), 8);
        assert_eq!(p.effective_threads(0), 1);
        assert_eq!(ExecPolicy::Serial.effective_threads(100), 1);
    }

    #[test]
    fn map_indexed_matches_serial_at_any_thread_count() {
        for n in [0, 1, 2, 17, 100] {
            let expected: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
            for threads in [1, 2, 8] {
                let policy = ExecPolicy::with_threads(threads);
                let got = map_indexed(policy, n, |i| (i as u64).wrapping_mul(0x9E37));
                assert_eq!(got, expected, "n {n} under {policy}");
            }
        }
    }

    #[test]
    fn map_indexed_spawns_nothing_for_one_effective_thread() {
        let caller = std::thread::current().id();
        for (policy, n) in [
            (ExecPolicy::Serial, 17),
            (ExecPolicy::Parallel { threads: 1 }, 17),
            (ExecPolicy::Parallel { threads: 8 }, 1),
        ] {
            assert_eq!(policy.effective_threads(n), 1);
            let ran_on = map_indexed(policy, n, |_| std::thread::current().id());
            assert!(ran_on.iter().all(|&id| id == caller), "{policy} n {n}");
        }
    }

    /// Runs 17 items on two threads and panics in whichever of items 0
    /// and 1 runs on the caller (`on_caller`) or on the worker. The two
    /// items meet at a barrier, so each thread runs one of them. Returns
    /// the payload `map_indexed` propagated.
    fn propagated_payload(on_caller: bool) -> String {
        let caller = std::thread::current().id();
        let meet = std::sync::Barrier::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_indexed(ExecPolicy::Parallel { threads: 2 }, 17, |i| {
                if i < 2 {
                    meet.wait();
                    if (std::thread::current().id() == caller) == on_caller {
                        panic!("item {i} failed");
                    }
                }
                i
            })
        }));
        let payload = outcome.expect_err("the item's panic propagates");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the item's own payload")
    }

    #[test]
    fn map_indexed_propagates_a_panic_from_the_caller_or_a_worker() {
        for on_caller in [true, false] {
            let payload = propagated_payload(on_caller);
            assert!(
                payload == "item 0 failed" || payload == "item 1 failed",
                "on_caller {on_caller}: {payload}"
            );
        }
    }

    #[test]
    fn stats_report_throughput() {
        let s = RunStats {
            trials: 100,
            threads: 2,
            wall_secs: 4.0,
        };
        assert_eq!(s.trials_per_sec(), 25.0);
        let mut total = s;
        total.absorb(&RunStats {
            trials: 60,
            threads: 2,
            wall_secs: 1.0,
        });
        assert_eq!(total.trials, 160);
        assert_eq!(total.wall_secs, 5.0);
        assert!(format!("{total}").contains("160 trials"));
        assert!(RunStats {
            trials: 5,
            threads: 1,
            wall_secs: 0.0
        }
        .trials_per_sec()
        .is_infinite());
    }

    #[test]
    fn measure_wraps_a_closure() {
        let (value, stats) = RunStats::measure(ExecPolicy::Serial, 7, || 42);
        assert_eq!(value, 42);
        assert_eq!(stats.trials, 7);
        assert_eq!(stats.threads, 1);
        assert!(stats.wall_secs >= 0.0);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(format!("{}", ExecPolicy::Serial), "serial");
        assert_eq!(
            format!("{}", ExecPolicy::Parallel { threads: 3 }),
            "parallel(3)"
        );
    }
}
