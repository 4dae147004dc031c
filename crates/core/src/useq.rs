//! Most-recent-match sequence probabilities (§IV-B).
//!
//! The compact model's states carry no timers, so the probabilities of a
//! rule being **evicted** (it has the smallest remaining lifetime) or
//! **timing out** (its idle timer just elapsed) must be *estimated* from
//! the distribution of the most-recent-match sequence `u`: an injective map
//! assigning each cached rule `j` the number of steps `u(j) ∈ 1..=t_j`
//! since it last matched. The paper defines
//!
//! ```text
//! P(u) = Π_{j ∈ cached} γ_u(j,u(j))·e^{-γ_u(j,u(j))} · Π_{k<u(j)} e^{-γ_u(j,k)}
//!      × Π_{j ∉ cached} Π_{k=1}^{L_j} e^{-γ_u(j,k)}
//! ```
//!
//! with `γ_u(j,k)` the effective rate of rule `j` at step `ℓ-k` (Eqn 1:
//! flows covered by higher-priority cached rules that, per `u`, were
//! matched more than `k` steps ago are excluded) and `L_j = t_j` below
//! capacity or `u_max(j) = t_j - min_{j'}(t_{j'} - u(j'))` at capacity.
//!
//! Summing `P(u)` over all `u` is exponential, so this module offers four
//! [`Evaluator`] strategies:
//!
//! * [`Evaluator::exact`] — full enumeration (with the injectivity
//!   constraint); the reference implementation, feasible only for small
//!   caches and timeouts.
//! * [`Evaluator::monte_carlo`] — importance sampling of `u` from mean-field
//!   proposal marginals.
//! * [`Evaluator::mean_field`] — a deterministic fixed-point approximation
//!   over per-rule age marginals, with an upward alive-likelihood message
//!   and a pairwise injectivity exclusion. It ignores the `j ∉ cached` factor
//!   (a secondary effect) and is the default for building full-size
//!   models. Its error is bounded against `Evaluator::exact` in this
//!   crate's tests and measured in the `ablation_evaluators` experiment.
//! * `Evaluator::MeanFieldRaw` — mean field without the two corrections;
//!   kept for the ablation.
//!
//! # The alive-likelihood kernel
//!
//! The upward message dominates the cost of a compact-model build. For a
//! higher-priority cached rule `hi` at age `u` and an overlapping
//! lower-priority cached rule `lo` with timeout `t₂`, it is
//!
//! ```text
//! Z_lo(u) = Σ_{u₂=1}^{t₂} γ̃(u₂)·e^{-γ̃(u₂) - C(u₂-1)},
//! γ̃(k) = base(k) + extra(k)·[k ≥ u],   C(m) = Σ_{k≤m} γ̃(k),
//! ```
//!
//! where `extra` collects the flows `hi` covers. Two identities let the
//! kernel skip work without changing a single bit of the result:
//!
//! * **Terms with `u₂ < u` do not depend on `u`.** They see `base` alone,
//!   so their running sum over `u₂ = 1, 2, …` is one prefix shared by every
//!   `u`: `Z_lo(u)` starts from the prefix at `u` and adds only the terms
//!   `u₂ ≥ u`. That is `Σ_u (t₂−u+1)` exponentials instead of `t·t₂`.
//! * **A pair whose `lo` has `hi` as its only higher-priority overlapping
//!   cached rule is state-invariant.** The mean-field discount of `lo`'s
//!   other shadowing rules is then empty, so `Z_lo(·)` depends only on the
//!   two rules and the rates. One model build computes it once and shares
//!   it across states, iterations and threads (`PairTable`).
//!
//! Both are bit-exact, not approximately equal: each value is computed from
//! the same operands by the same float operations, and every sum adds its
//! terms in the same order as a direct evaluation (the prefix is the
//! direct loop's own partial sum, stopped at `u`). A `#[cfg(test)]` copy of
//! the direct kernel is the oracle for this in the tests below.

use flowspace::relevant::FlowRates;
use flowspace::{RuleId, RuleSet};
use ftcache::PolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Eviction and timeout estimates for one compact state.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheAnalysis {
    /// The cached rules the vectors below are parallel to.
    pub cached: Vec<RuleId>,
    /// `P(rule_j should time out | rule_j ∈ cache)` per cached rule —
    /// Eqn (7) / Eqn (3).
    pub timeout: Vec<f64>,
    /// Normalized eviction distribution: the probability that each cached
    /// rule is the one with the smallest remaining lifetime — Eqn (5) /
    /// Eqn (3), normalized across the cached rules.
    pub evict: Vec<f64>,
}

impl CacheAnalysis {
    fn empty() -> Self {
        CacheAnalysis {
            cached: Vec::new(),
            timeout: Vec::new(),
            evict: Vec::new(),
        }
    }
}

/// Strategy for evaluating the §IV-B sums over most-recent-match sequences.
#[derive(Debug, Clone, PartialEq)]
pub enum Evaluator {
    /// Full enumeration of all injective `u`. Exponential; the reference.
    Exact {
        /// Abort guard: maximum number of sequences to enumerate.
        max_sequences: u64,
    },
    /// Importance sampling with mean-field proposals.
    MonteCarlo {
        /// Number of sampled sequences per state.
        samples: usize,
        /// RNG seed (sampling is deterministic given the seed).
        seed: u64,
    },
    /// Deterministic fixed-point approximation (default).
    MeanField {
        /// Fixed-point iterations over the age marginals.
        iterations: usize,
    },
    /// Mean field **without** the upward alive-likelihood message and the
    /// pairwise injectivity exclusion — the naive one-directional
    /// approximation. Kept for the evaluator ablation; do not use it to
    /// build models.
    MeanFieldRaw {
        /// Fixed-point iterations over the age marginals.
        iterations: usize,
    },
}

impl Evaluator {
    /// The exact evaluator with a 10-million-sequence guard.
    #[must_use]
    pub fn exact() -> Self {
        Evaluator::Exact {
            max_sequences: 10_000_000,
        }
    }

    /// The Monte Carlo evaluator with `samples` samples.
    #[must_use]
    pub fn monte_carlo(samples: usize, seed: u64) -> Self {
        Evaluator::MonteCarlo { samples, seed }
    }

    /// The mean-field evaluator with 4 fixed-point iterations.
    #[must_use]
    pub fn mean_field() -> Self {
        Evaluator::MeanField { iterations: 4 }
    }

    /// Computes eviction and timeout estimates for the cache state holding
    /// exactly `cached` (ids into `rules`), which `at_capacity` marks as
    /// full, assuming the switch evicts per the paper's shortest-remaining-
    /// time policy ([`PolicyKind::Srt`]).
    ///
    /// # Panics
    ///
    /// * `Evaluator::Exact` panics if the enumeration would exceed its
    ///   `max_sequences` guard.
    /// * All evaluators panic if `cached` contains duplicate ids.
    #[must_use]
    pub fn analyze(
        &self,
        rules: &RuleSet,
        rates: &FlowRates,
        cached: &[RuleId],
        at_capacity: bool,
    ) -> CacheAnalysis {
        self.analyze_policy(rules, rates, cached, at_capacity, PolicyKind::Srt)
    }

    /// [`Evaluator::analyze`] with an explicit cache policy assumption.
    ///
    /// The most-recent-match sequence distribution `P(u)` is a property of
    /// the traffic and the cache *contents*, not of the eviction policy, so
    /// the same evaluator machinery serves every policy; only the victim
    /// predicate applied to each weighted assignment `u` changes:
    ///
    /// * [`PolicyKind::Srt`] — victim has the smallest remaining lifetime
    ///   `t_j - u(j)` (the paper's Eqn 4/5);
    /// * [`PolicyKind::Lru`] — victim has the largest age `u(j)`;
    /// * [`PolicyKind::Fdrc`] — victim has the smallest *normalized*
    ///   remaining lifetime `(t_j - u(j)) / t_j`.
    ///
    /// The at-capacity bound on uncached-rule quiet factors (`u_max`)
    /// retains its SRT derivation for every policy — it is a secondary
    /// effect and keeping it fixed isolates the victim predicate as the
    /// only modeling difference between policies.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Evaluator::analyze`].
    #[must_use]
    pub fn analyze_policy(
        &self,
        rules: &RuleSet,
        rates: &FlowRates,
        cached: &[RuleId],
        at_capacity: bool,
        policy: PolicyKind,
    ) -> CacheAnalysis {
        self.analyze_shared(
            rules,
            rates,
            cached,
            at_capacity,
            policy,
            &PairTable::new(rules.len()),
        )
    }

    /// [`Evaluator::analyze_policy`] with the state-invariant pair vectors
    /// kept in `pairs`, so the states of one model build compute each only
    /// once. Every call sharing a table must pass the same `rules` and
    /// `rates`; the result is bit-identical to a fresh table's, whichever
    /// call (or thread) filled an entry first.
    pub(crate) fn analyze_shared(
        &self,
        rules: &RuleSet,
        rates: &FlowRates,
        cached: &[RuleId],
        at_capacity: bool,
        policy: PolicyKind,
        pairs: &PairTable,
    ) -> CacheAnalysis {
        let mut sorted = cached.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            cached.len(),
            "duplicate rule ids in cache state"
        );
        if cached.is_empty() {
            return CacheAnalysis::empty();
        }
        let ctx = Ctx::new(rules, rates, &sorted);
        match *self {
            Evaluator::Exact { max_sequences } => {
                let uncached = ctx.uncached(rules, rates);
                exact(
                    &ctx,
                    |u| ctx.log_p(&uncached, u, at_capacity),
                    max_sequences,
                    policy,
                )
            }
            Evaluator::MonteCarlo { samples, seed } => {
                let marg = mean_field_marginals(&ctx, 2, MeanFieldOpts::full(), pairs);
                let uncached = ctx.uncached(rules, rates);
                monte_carlo(
                    &ctx,
                    &marg,
                    |u| ctx.log_p(&uncached, u, at_capacity),
                    samples,
                    seed,
                    policy,
                )
            }
            Evaluator::MeanField { iterations } => {
                let marg = mean_field_marginals(&ctx, iterations, MeanFieldOpts::full(), pairs);
                mean_field(&ctx, &marg, policy)
            }
            Evaluator::MeanFieldRaw { iterations } => {
                let marg = mean_field_marginals(&ctx, iterations, MeanFieldOpts::raw(), pairs);
                mean_field(&ctx, &marg, policy)
            }
        }
    }
}

/// The upward alive-likelihood vectors of state-invariant pairs (see the
/// module docs), keyed by rule ids: entry `(hi, lo)` holds
/// `max(Z_lo(u), 1e-300)` for `u = 1..=t_hi`, valid for every state in
/// which `hi` is `lo`'s only higher-priority overlapping cached rule.
///
/// The table is `Sync`, so the parallel states of one build share it. An
/// entry is a pure function of the pair and the rates, so whichever thread
/// fills it first stores the same bits any other would have: the schedule
/// decides only who computes a vector, never its value.
pub(crate) struct PairTable {
    n_rules: usize,
    z: Vec<OnceLock<Vec<f64>>>,
}

impl PairTable {
    /// An empty table for a rule set of `n_rules` rules.
    pub(crate) fn new(n_rules: usize) -> Self {
        PairTable {
            n_rules,
            z: (0..n_rules * n_rules).map(|_| OnceLock::new()).collect(),
        }
    }

    fn get_or_insert_with(
        &self,
        hi: RuleId,
        lo: RuleId,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> &[f64] {
        self.z[hi.0 * self.n_rules + lo.0].get_or_init(compute)
    }
}

/// One flow of a rule's cover: its per-step rate `λΔ`, and the positions of
/// the higher-priority cached rules that overlap the rule and cover this
/// flow, ascending. Found once per state, so no evaluator loop tests flow
/// coverage.
struct FlowTerm {
    rate: f64,
    shadow: Vec<usize>,
}

/// Precomputed per-state context shared by the evaluators.
struct Ctx {
    /// Cached rules, ascending id (= descending priority).
    cached: Vec<RuleId>,
    /// Timeout (steps) of each cached rule.
    t: Vec<u32>,
    /// For each cached rule (by position), the positions of the
    /// higher-priority cached rules that overlap it.
    hp_cached: Vec<Vec<usize>>,
    /// Each cached rule's cover, flow by flow.
    flows: Vec<Vec<FlowTerm>>,
}

/// Timeout and cover of one *uncached* rule, for the quiet factor of
/// `log P(u)`.
type UncachedRule = (u32, Vec<FlowTerm>);

/// Positions in `cached` of the higher-priority cached rules overlapping
/// rule `j`.
fn higher_cached(rules: &RuleSet, cached: &[RuleId], j: RuleId) -> Vec<usize> {
    cached
        .iter()
        .enumerate()
        .filter(|&(_, &j2)| rules.outranks(j2, j) && rules.rule(j2).overlaps(rules.rule(j)))
        .map(|(pos, _)| pos)
        .collect()
}

/// Rule `j`'s cover as flow terms, shadowed by the cached positions `hp`.
fn cover_terms(
    rules: &RuleSet,
    rates: &FlowRates,
    cached: &[RuleId],
    j: RuleId,
    hp: &[usize],
) -> Vec<FlowTerm> {
    rules
        .rule(j)
        .covers()
        .iter()
        .map(|f| FlowTerm {
            rate: rates.rate(f),
            shadow: hp
                .iter()
                .copied()
                .filter(|&h| rules.rule(cached[h]).covers_flow(f))
                .collect(),
        })
        .collect()
}

impl Ctx {
    fn new(rules: &RuleSet, rates: &FlowRates, cached: &[RuleId]) -> Self {
        let t = cached
            .iter()
            .map(|&j| rules.rule(j).timeout().steps)
            .collect();
        let hp_cached: Vec<Vec<usize>> = cached
            .iter()
            .map(|&j| higher_cached(rules, cached, j))
            .collect();
        let flows = cached
            .iter()
            .zip(&hp_cached)
            .map(|(&j, hp)| cover_terms(rules, rates, cached, j, hp))
            .collect();
        Ctx {
            cached: cached.to_vec(),
            t,
            hp_cached,
            flows,
        }
    }

    fn n(&self) -> usize {
        self.cached.len()
    }

    /// The rules outside the cache, which only `log P(u)` reads.
    fn uncached(&self, rules: &RuleSet, rates: &FlowRates) -> Vec<UncachedRule> {
        rules
            .ids()
            .filter(|j| !self.cached.contains(j))
            .map(|j| {
                let hp = higher_cached(rules, &self.cached, j);
                (
                    rules.rule(j).timeout().steps,
                    cover_terms(rules, rates, &self.cached, j, &hp),
                )
            })
            .collect()
    }

    /// γ_u(j, k): effective rate of a rule with cover `terms` at step
    /// `ℓ-k`, given the full assignment `u` (ages of all cached rules).
    /// A flow is excluded if some higher-priority overlapping cached rule
    /// covering it has `u > k` (it was already in the cache then and would
    /// match first).
    fn gamma_at(terms: &[FlowTerm], u: &[u32], k: u32) -> f64 {
        terms
            .iter()
            .filter(|ft| !ft.shadow.iter().any(|&h| u[h] > k))
            .map(|ft| ft.rate)
            .sum()
    }

    /// `log P(u)` for a complete injective assignment.
    fn log_p(&self, uncached: &[UncachedRule], u: &[u32], at_capacity: bool) -> f64 {
        let mut log_p = 0.0f64;
        for (pos, terms) in self.flows.iter().enumerate() {
            // Match at age u(pos): γ·e^{-γ}; quiet before that: e^{-γ(k)}.
            let g_match = Self::gamma_at(terms, u, u[pos]);
            if g_match <= 0.0 {
                return f64::NEG_INFINITY; // impossible assignment
            }
            log_p += g_match.ln() - g_match;
            for k in 1..u[pos] {
                log_p -= Self::gamma_at(terms, u, k);
            }
        }
        // Rules not in the cache must not have been installed.
        let u_max_cap = if at_capacity {
            let min_rem = (0..self.n()).map(|p| self.t[p] - u[p]).min().unwrap_or(0);
            Some(min_rem)
        } else {
            None
        };
        for (t_j, terms) in uncached {
            let limit = match u_max_cap {
                Some(min_rem) => t_j.saturating_sub(min_rem),
                None => *t_j,
            };
            for k in 1..=limit {
                log_p -= Self::gamma_at(terms, u, k);
            }
        }
        log_p
    }
}

/// Accumulates the three §IV-B sums from weighted assignments.
struct Sums {
    d: f64,
    timeout: Vec<f64>,
    evict: Vec<f64>,
}

impl Sums {
    fn new(n: usize) -> Self {
        Sums {
            d: 0.0,
            timeout: vec![0.0; n],
            evict: vec![0.0; n],
        }
    }

    fn add(&mut self, ctx: &Ctx, u: &[u32], w: f64, policy: PolicyKind) {
        if w <= 0.0 {
            return;
        }
        self.d += w;
        let rem: Vec<u32> = (0..u.len()).map(|p| ctx.t[p] - u[p]).collect();
        for (slot, (&uv, &tv)) in self.timeout.iter_mut().zip(u.iter().zip(ctx.t.iter())) {
            if uv == tv {
                *slot += w;
            }
        }
        // Victim predicate per policy; ties count every tied rule (the
        // normalization in `finish` splits the mass), matching Eqn (4)'s
        // inclusive accounting.
        match policy {
            PolicyKind::Srt => {
                let min_rem = *rem.iter().min().expect("nonempty cache");
                for (slot, &r) in self.evict.iter_mut().zip(rem.iter()) {
                    if r == min_rem {
                        *slot += w;
                    }
                }
            }
            PolicyKind::Lru => {
                // detlint::allow(D4): same nonempty-cache invariant as the
                // Srt branch above — `u` has one entry per cached rule.
                let max_u = *u.iter().max().expect("nonempty cache");
                for (slot, &uv) in self.evict.iter_mut().zip(u.iter()) {
                    if uv == max_u {
                        *slot += w;
                    }
                }
            }
            PolicyKind::Fdrc => {
                let ratio: Vec<f64> = (0..u.len())
                    .map(|p| f64::from(rem[p]) / f64::from(ctx.t[p]))
                    .collect();
                let min_ratio = ratio.iter().copied().fold(f64::INFINITY, f64::min);
                for (slot, &r) in self.evict.iter_mut().zip(ratio.iter()) {
                    if r == min_ratio {
                        *slot += w;
                    }
                }
            }
        }
    }

    fn finish(self, cached: Vec<RuleId>) -> CacheAnalysis {
        let n = cached.len();
        let timeout = if self.d > 0.0 {
            self.timeout
                .iter()
                .map(|&x| (x / self.d).clamp(0.0, 1.0))
                .collect()
        } else {
            vec![0.0; n]
        };
        let esum: f64 = self.evict.iter().sum();
        let evict = if esum > 0.0 {
            self.evict.iter().map(|&x| x / esum).collect()
        } else {
            vec![1.0 / n as f64; n]
        };
        CacheAnalysis {
            cached,
            timeout,
            evict,
        }
    }
}

/// Exact enumeration, weighting each injective `u` by `exp(log_p(u))`.
fn exact(
    ctx: &Ctx,
    log_p: impl Fn(&[u32]) -> f64,
    max_sequences: u64,
    policy: PolicyKind,
) -> CacheAnalysis {
    let n = ctx.n();
    let total: u64 = ctx
        .t
        .iter()
        .try_fold(1u64, |acc, &t| acc.checked_mul(u64::from(t)))
        .unwrap_or(u64::MAX);
    assert!(
        total <= max_sequences,
        "exact evaluation would enumerate {total} sequences (> {max_sequences}); \
         use the mean-field or Monte Carlo evaluator"
    );
    let mut sums = Sums::new(n);
    let mut u = vec![0u32; n];
    enumerate(ctx, &log_p, &mut u, 0, &mut sums, policy);
    sums.finish(ctx.cached.clone())
}

fn enumerate(
    ctx: &Ctx,
    log_p: &impl Fn(&[u32]) -> f64,
    u: &mut Vec<u32>,
    pos: usize,
    sums: &mut Sums,
    policy: PolicyKind,
) {
    if pos == ctx.n() {
        let w = log_p(u).exp();
        sums.add(ctx, u, w, policy);
        return;
    }
    for v in 1..=ctx.t[pos] {
        if u[..pos].contains(&v) {
            continue; // injectivity
        }
        u[pos] = v;
        enumerate(ctx, log_p, u, pos + 1, sums, policy);
    }
    u[pos] = 0;
}

/// Which mean-field correction terms to apply.
#[derive(Debug, Clone, Copy)]
struct MeanFieldOpts {
    upward: bool,
    exclusion: bool,
}

impl MeanFieldOpts {
    fn full() -> Self {
        MeanFieldOpts {
            upward: true,
            exclusion: true,
        }
    }

    fn raw() -> Self {
        MeanFieldOpts {
            upward: false,
            exclusion: false,
        }
    }
}

/// A lower-priority rule's mean-field effective rate over `k = 1..=t₂`,
/// split by whether the higher-priority rule of the pair covers the flow:
/// per step (`base_k`, `extra_k`) and cumulative (`base`, `extra`), each
/// indexed `0..=t₂` with a zero at 0.
struct PairRates {
    base: Vec<f64>,
    extra: Vec<f64>,
    base_k: Vec<f64>,
    extra_k: Vec<f64>,
}

impl PairRates {
    /// The split rates of `ctx.flows[lo]` against the higher-priority `hi`.
    /// Both parts keep the mean-field discount of `lo`'s *other* shadowing
    /// rules, where `absent[h][k] = P(u(h) ≤ k)`.
    fn new(ctx: &Ctx, hi: usize, lo: usize, absent: &[Vec<f64>]) -> Self {
        let t2 = ctx.t[lo] as usize;
        let mut base = vec![0.0; t2 + 1];
        let mut extra = vec![0.0; t2 + 1];
        let mut base_k = vec![0.0; t2 + 1];
        let mut extra_k = vec![0.0; t2 + 1];
        for k in 1..=t2 {
            let mut b = 0.0;
            let mut e = 0.0;
            for ft in &ctx.flows[lo] {
                let mut keep = 1.0;
                let mut covered_by_hi = false;
                for &h in &ft.shadow {
                    if h == hi {
                        covered_by_hi = true;
                    } else {
                        keep *= absent[h][k];
                    }
                }
                if covered_by_hi {
                    e += ft.rate * keep;
                } else {
                    b += ft.rate * keep;
                }
            }
            base_k[k] = b;
            extra_k[k] = e;
            base[k] = base[k - 1] + b;
            extra[k] = extra[k - 1] + e;
        }
        PairRates {
            base,
            extra,
            base_k,
            extra_k,
        }
    }

    fn t2(&self) -> usize {
        self.base_k.len() - 1
    }

    /// `head[u]` for `u = 1..=t₂+1`: the running sum of `Z`'s terms
    /// `u₂ < u`, which see `base` alone and so are shared by every `u`.
    fn head(&self) -> Vec<f64> {
        let t2 = self.t2();
        let mut head = vec![0.0; t2 + 2];
        for u2 in 1..=t2 {
            let g = self.base_k[u2];
            head[u2 + 1] = if g > 0.0 {
                head[u2] + g * (-g - self.base[u2 - 1]).exp()
            } else {
                head[u2]
            };
        }
        head
    }

    /// `max(Z(u), 1e-300)`: `head[u]` plus the `u`-dependent terms
    /// `u₂ ≥ u`, in the direct sum's order.
    fn z(&self, head: &[f64], u: usize) -> f64 {
        let t2 = self.t2();
        let mut z = head[u.min(t2 + 1)];
        for u2 in u..=t2 {
            let g = self.base_k[u2] + self.extra_k[u2];
            // C(u₂ - 1) = Σ_{k<u₂} γ̃(k), where γ̃ gains `extra` from k = u.
            let mm = u2 - 1;
            let cum = self.base[mm]
                + if mm >= u {
                    self.extra[mm] - self.extra[u - 1]
                } else {
                    0.0
                };
            if g > 0.0 {
                z += g * (-g - cum).exp();
            }
        }
        z.max(1e-300)
    }
}

/// Mean-field age marginals: `marginals[pos][k-1] = P(u(pos) = k | alive)`.
///
/// Two coupling directions are propagated through the fixed point:
///
/// * **downward** — a lower-priority rule's effective rate γ̄(k) discounts
///   flows by the probability that a covering higher-priority cached rule
///   was already matched (survival beyond `k`);
/// * **upward** — a higher-priority rule's age is *reweighted by the
///   likelihood that each lower-priority overlapping rule is alive at all*:
///   when the high-priority rule matched recently, the low-priority rule
///   saw fewer relevant flows and is less likely to still be cached, so
///   conditioning on the observed cache contents shifts the
///   high-priority age toward "recent".
///
/// The injectivity constraint on `u` (only one flow arrives per step, so
/// two rules cannot share a most-recent-match age) is applied as a
/// first-order pairwise exclusion: each age weight is discounted by the
/// probability that any other cached rule holds the same age. Its residual
/// error is bounded by the exact evaluator in tests.
///
/// State-invariant upward vectors are read from and stored in `pairs`.
fn mean_field_marginals(
    ctx: &Ctx,
    iterations: usize,
    opts: MeanFieldOpts,
    pairs: &PairTable,
) -> Vec<Vec<f64>> {
    let n = ctx.n();
    let t_max = ctx.t.iter().copied().max().unwrap_or(0) as usize;
    // Initialize with uniform ages.
    let mut marg: Vec<Vec<f64>> = (0..n)
        .map(|pos| vec![1.0 / f64::from(ctx.t[pos]); ctx.t[pos] as usize])
        .collect();
    // down[pos] = cached positions whose effective rate pos influences.
    let down: Vec<Vec<usize>> = (0..n)
        .map(|pos| {
            (0..n)
                .filter(|&p2| ctx.hp_cached[p2].contains(&pos))
                .collect()
        })
        .collect();
    for _ in 0..iterations.max(1) {
        // absent[pos][k] = 1 - P(u(pos) > k) for k in 0..=t_max: the
        // probability that the rule was not yet cached at step ℓ-k, so it
        // lets the flows it covers through to lower-priority rules.
        let absent: Vec<Vec<f64>> = marg
            .iter()
            .map(|m| {
                let mut s = vec![0.0; m.len() + 1];
                let mut acc = 0.0;
                for k in (0..m.len()).rev() {
                    acc += m[k];
                    s[k] = acc;
                }
                (0..=t_max)
                    .map(|k| 1.0 - s.get(k).copied().unwrap_or(0.0))
                    .collect()
            })
            .collect();
        let mut next = Vec::with_capacity(n);
        for (pos, down_of_pos) in down.iter().enumerate() {
            let t = ctx.t[pos] as usize;
            let terms = &ctx.flows[pos];
            // Downward prior: γ̄(k) with each higher-priority overlap
            // present w.p. its survival beyond k.
            let gamma_bar = |k: usize| -> f64 {
                terms
                    .iter()
                    .map(|ft| {
                        let mut keep = 1.0;
                        for &h in &ft.shadow {
                            keep *= absent[h][k];
                        }
                        ft.rate * keep
                    })
                    .sum()
            };
            let mut m = vec![0.0; t];
            let mut quiet = 0.0; // Σ_{k'<k} γ̄(k')
            for k in 1..=t {
                let g = gamma_bar(k);
                m[k - 1] = if g > 0.0 {
                    (g.ln() - g - quiet).exp()
                } else {
                    0.0
                };
                quiet += g;
            }
            // Upward correction: multiply by Π_{pos2 ∈ down(pos)}
            // Z_{pos2}(u), the alive-likelihood of each influenced rule
            // given u(pos) = u (other couplings at their mean field).
            let down_of_pos: &[usize] = if opts.upward { down_of_pos } else { &[] };
            for &pos2 in down_of_pos {
                if ctx.hp_cached[pos2].len() == 1 {
                    // pos is pos2's only shadowing rule: state-invariant.
                    let z = pairs.get_or_insert_with(ctx.cached[pos], ctx.cached[pos2], || {
                        let pair = PairRates::new(ctx, pos, pos2, &absent);
                        let head = pair.head();
                        (1..=t).map(|u| pair.z(&head, u)).collect()
                    });
                    for (w, &z_u) in m.iter_mut().zip(z) {
                        if *w != 0.0 {
                            *w *= z_u;
                        }
                    }
                } else {
                    let pair = PairRates::new(ctx, pos, pos2, &absent);
                    let head = pair.head();
                    for (u_idx, w) in m.iter_mut().enumerate() {
                        if *w != 0.0 {
                            *w *= pair.z(&head, u_idx + 1);
                        }
                    }
                }
            }
            // Pairwise injectivity exclusion: u(pos) cannot equal u(j').
            if opts.exclusion {
                for (u_idx, w) in m.iter_mut().enumerate() {
                    for (other, mo) in marg.iter().enumerate() {
                        if other != pos && u_idx < mo.len() {
                            *w *= 1.0 - mo[u_idx];
                        }
                    }
                }
            }
            let s: f64 = m.iter().sum();
            if s > 0.0 {
                for x in &mut m {
                    *x /= s;
                }
            } else {
                m.fill(1.0 / t as f64);
            }
            next.push(m);
        }
        marg = next;
    }
    marg
}

/// Timeout and eviction estimates from the age marginals `marg`.
fn mean_field(ctx: &Ctx, marg: &[Vec<f64>], policy: PolicyKind) -> CacheAnalysis {
    let n = ctx.n();
    // Timeout: P(u = t | alive) directly from the marginal.
    let timeout: Vec<f64> = (0..n)
        .map(|pos| *marg[pos].last().expect("t >= 1"))
        .collect();
    // Eviction: remaining time r = t - u ∈ 0..t-1; q(r) = m[t - r - 1 + 1]?
    // u = t - r, so q_pos(r) = marg[pos][t - r - 1].
    let rem_dist: Vec<Vec<f64>> = (0..n)
        .map(|pos| {
            let t = ctx.t[pos] as usize;
            (0..t).map(|r| marg[pos][t - r - 1]).collect()
        })
        .collect();
    let evict = match policy {
        PolicyKind::Srt => mean_field_evict_srt(ctx, &rem_dist),
        PolicyKind::Lru => mean_field_evict_lru(marg),
        PolicyKind::Fdrc => mean_field_evict_fdrc(ctx, &rem_dist),
    };
    let esum: f64 = evict.iter().sum();
    let evict = if esum > 0.0 {
        evict.iter().map(|&x| x / esum).collect()
    } else {
        vec![1.0 / n as f64; n]
    };
    CacheAnalysis {
        cached: ctx.cached.clone(),
        timeout,
        evict,
    }
}

/// Unnormalized `P(rule at pos has the smallest remaining lifetime)` from
/// the per-rule remaining-time marginals.
fn mean_field_evict_srt(ctx: &Ctx, rem_dist: &[Vec<f64>]) -> Vec<f64> {
    let n = rem_dist.len();
    // Survival over remaining time: S_pos(r) = P(rem ≥ r). The eviction
    // condition (Eqn 4) is *inclusive* — on a tie every tied rule counts —
    // so the per-rule weight uses P(rem_{j'} ≥ r) for the others, matching
    // the exact evaluator's accounting before normalization.
    let rem_surv: Vec<Vec<f64>> = rem_dist
        .iter()
        .map(|q| {
            let mut s = vec![0.0; q.len() + 1];
            let mut acc = 0.0;
            for r in (0..q.len()).rev() {
                acc += q[r];
                s[r] = acc; // P(rem >= r)
            }
            s
        })
        .collect();
    let surv_ge = |pos: usize, r: usize| -> f64 {
        let s = &rem_surv[pos];
        if r < s.len() {
            s[r]
        } else {
            0.0
        }
    };
    let mut evict = vec![0.0; n];
    for (pos, ev) in evict.iter_mut().enumerate() {
        let q = &rem_dist[pos];
        let t_pos = ctx.t[pos] as usize;
        for (r, &q_r) in q.iter().enumerate() {
            let u_pos = t_pos - r;
            let mut w = q_r;
            for (other, rem_other) in rem_dist.iter().enumerate() {
                if other == pos {
                    continue;
                }
                let mut term = surv_ge(other, r);
                // Injectivity: the other rule cannot share age u_pos, so
                // remove that point from its allowed region if it is there.
                let t_o = ctx.t[other] as usize;
                if u_pos <= t_o {
                    let r_o = t_o - u_pos;
                    if r_o >= r {
                        term -= rem_other[r_o];
                    }
                }
                w *= term.max(0.0);
            }
            *ev += w;
        }
    }
    evict
}

/// Unnormalized `P(rule at pos has the largest age)` from the age
/// marginals. Injectivity makes age ties impossible, so the inclusive
/// weight minus the shared-age point reduces to the strict `P(u_{j'} < u)`.
fn mean_field_evict_lru(marg: &[Vec<f64>]) -> Vec<f64> {
    let n = marg.len();
    // cdf[pos][k] = P(u_pos ≤ k), k in 0..=t_pos.
    let cdf: Vec<Vec<f64>> = marg
        .iter()
        .map(|m| {
            let mut c = vec![0.0; m.len() + 1];
            for k in 1..=m.len() {
                c[k] = c[k - 1] + m[k - 1];
            }
            c
        })
        .collect();
    let p_lt = |pos: usize, u: usize| -> f64 {
        let c = &cdf[pos];
        c[(u - 1).min(c.len() - 1)]
    };
    let mut evict = vec![0.0; n];
    for (pos, ev) in evict.iter_mut().enumerate() {
        for (u_idx, &m_u) in marg[pos].iter().enumerate() {
            let u = u_idx + 1;
            let mut w = m_u;
            for other in 0..n {
                if other != pos {
                    w *= p_lt(other, u);
                }
            }
            *ev += w;
        }
    }
    evict
}

/// Unnormalized `P(rule at pos has the smallest normalized remaining
/// lifetime (t - u)/t)` — the FDRC-style victim predicate — from the
/// remaining-time marginals, with the same inclusive-tie accounting and
/// pairwise shared-age exclusion as the SRT weight.
fn mean_field_evict_fdrc(ctx: &Ctx, rem_dist: &[Vec<f64>]) -> Vec<f64> {
    let n = rem_dist.len();
    let mut evict = vec![0.0; n];
    for (pos, ev) in evict.iter_mut().enumerate() {
        let q = &rem_dist[pos];
        let t_pos = ctx.t[pos] as usize;
        for (r, &q_r) in q.iter().enumerate() {
            let ratio = f64::from(r as u32) / f64::from(t_pos as u32);
            let u_pos = t_pos - r;
            let mut w = q_r;
            for (other, rem_other) in rem_dist.iter().enumerate() {
                if other == pos {
                    continue;
                }
                let t_o = ctx.t[other] as usize;
                // P(ratio_other ≥ ratio), inclusive on ties.
                let mut term = 0.0;
                for (r_o, &q_o) in rem_other.iter().enumerate() {
                    if f64::from(r_o as u32) / f64::from(t_o as u32) >= ratio {
                        term += q_o;
                    }
                }
                // Injectivity: the other rule cannot share age u_pos.
                if u_pos <= t_o {
                    let r_same = t_o - u_pos;
                    if f64::from(r_same as u32) / f64::from(t_o as u32) >= ratio {
                        term -= rem_other[r_same];
                    }
                }
                w *= term.max(0.0);
            }
            *ev += w;
        }
    }
    evict
}

/// Importance sampling of `u` from the proposal marginals `marg`, each
/// injective sample weighted by `exp(log_p(u)) / q(u)`.
fn monte_carlo(
    ctx: &Ctx,
    marg: &[Vec<f64>],
    log_p: impl Fn(&[u32]) -> f64,
    samples: usize,
    seed: u64,
    policy: PolicyKind,
) -> CacheAnalysis {
    let n = ctx.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sums = Sums::new(n);
    let mut u = vec![0u32; n];
    for _ in 0..samples.max(1) {
        let mut log_q = 0.0f64;
        let mut ok = true;
        for pos in 0..n {
            let m = &marg[pos];
            let x: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = m.len(); // sentinel
            for (k, &p) in m.iter().enumerate() {
                acc += p;
                if x < acc {
                    chosen = k;
                    break;
                }
            }
            if chosen == m.len() {
                chosen = m.len() - 1; // numeric tail
            }
            let v = (chosen + 1) as u32;
            if u[..pos].contains(&v) {
                ok = false; // violates injectivity: weight 0
                break;
            }
            u[pos] = v;
            log_q += m[chosen].max(1e-300).ln();
        }
        if !ok {
            continue;
        }
        let w = (log_p(&u) - log_q).exp();
        sums.add(ctx, &u, w, policy);
    }
    sums.finish(ctx.cached.clone())
}

/// The direct evaluation the kernel above replaced, kept verbatim as the
/// bit-identity oracle: its own context (flow coverage tested in the inner
/// loops), `log P(u)`, and the mean-field marginals with the full
/// `t·t₂` upward loop.
#[cfg(test)]
mod reference {
    use super::MeanFieldOpts;
    use flowspace::relevant::FlowRates;
    use flowspace::{RuleId, RuleSet};

    /// Precomputed per-state context shared by the evaluators.
    pub(super) struct Ctx<'a> {
        rules: &'a RuleSet,
        /// Cached rules, ascending id (= descending priority).
        cached: Vec<RuleId>,
        /// Timeout (steps) of each cached rule.
        t: Vec<u32>,
        /// For each cached rule (by position), the positions of the
        /// higher-priority cached rules that overlap it.
        hp_cached: Vec<Vec<usize>>,
        /// Per-flow per-step rates of each cached rule's cover.
        flow_rates: Vec<Vec<(usize, f64)>>, // (flow index, λΔ)
        /// For each *uncached* rule: (timeout, its per-flow rates, positions of
        /// higher-priority cached rules that overlap it).
        uncached: Vec<UncachedRule>,
    }

    /// Timeout, per-flow `(flow index, λΔ)` rates, and higher-priority cached
    /// overlap positions of one uncached rule.
    type UncachedRule = (u32, Vec<(usize, f64)>, Vec<usize>);

    impl<'a> Ctx<'a> {
        pub(super) fn new(rules: &'a RuleSet, rates: &'a FlowRates, cached: &[RuleId]) -> Self {
            let t: Vec<u32> = cached
                .iter()
                .map(|&j| rules.rule(j).timeout().steps)
                .collect();
            let cover_rates = |j: RuleId| -> Vec<(usize, f64)> {
                rules
                    .rule(j)
                    .covers()
                    .iter()
                    .map(|f| (f.index(), rates.rate(f)))
                    .collect()
            };
            let hp_of = |j: RuleId| -> Vec<usize> {
                cached
                    .iter()
                    .enumerate()
                    .filter(|&(_, &j2)| {
                        rules.outranks(j2, j) && rules.rule(j2).overlaps(rules.rule(j))
                    })
                    .map(|(pos, _)| pos)
                    .collect()
            };
            let hp_cached = cached.iter().map(|&j| hp_of(j)).collect();
            let flow_rates = cached.iter().map(|&j| cover_rates(j)).collect();
            let uncached = rules
                .ids()
                .filter(|j| !cached.contains(j))
                .map(|j| (rules.rule(j).timeout().steps, cover_rates(j), hp_of(j)))
                .collect();
            Ctx {
                rules,
                cached: cached.to_vec(),
                t,
                hp_cached,
                flow_rates,
                uncached,
            }
        }

        fn n(&self) -> usize {
            self.cached.len()
        }

        /// γ_u(pos, k): effective rate of the cached rule at `pos` at step
        /// `ℓ-k`, given the full assignment `u` (ages of all cached rules).
        /// A flow is excluded if some higher-priority overlapping cached rule
        /// has `u > k` (it was already in the cache then and would match first).
        fn gamma_at(&self, flow_rates: &[(usize, f64)], hp: &[usize], u: &[u32], k: u32) -> f64 {
            flow_rates
                .iter()
                .filter(|&&(f, _)| {
                    !hp.iter().any(|&h| {
                        u[h] > k
                            && self
                                .rules
                                .rule(self.cached[h])
                                .covers_flow(flowspace::FlowId(f as u32))
                    })
                })
                .map(|&(_, r)| r)
                .sum()
        }

        /// `log P(u)` for a complete injective assignment.
        pub(super) fn log_p(&self, u: &[u32], at_capacity: bool) -> f64 {
            let mut log_p = 0.0f64;
            for pos in 0..self.n() {
                let fr = &self.flow_rates[pos];
                let hp = &self.hp_cached[pos];
                // Match at age u(pos): γ·e^{-γ}; quiet before that: e^{-γ(k)}.
                let g_match = self.gamma_at(fr, hp, u, u[pos]);
                if g_match <= 0.0 {
                    return f64::NEG_INFINITY; // impossible assignment
                }
                log_p += g_match.ln() - g_match;
                for k in 1..u[pos] {
                    log_p -= self.gamma_at(fr, hp, u, k);
                }
            }
            // Rules not in the cache must not have been installed.
            let u_max_cap = if at_capacity {
                let min_rem = (0..self.n()).map(|p| self.t[p] - u[p]).min().unwrap_or(0);
                Some(min_rem)
            } else {
                None
            };
            for (t_j, fr, hp) in &self.uncached {
                let limit = match u_max_cap {
                    Some(min_rem) => t_j.saturating_sub(min_rem),
                    None => *t_j,
                };
                for k in 1..=limit {
                    log_p -= self.gamma_at(fr, hp, u, k);
                }
            }
            log_p
        }
    }

    pub(super) fn mean_field_marginals(
        ctx: &Ctx<'_>,
        iterations: usize,
        opts: MeanFieldOpts,
    ) -> Vec<Vec<f64>> {
        let n = ctx.n();
        // Initialize with uniform ages.
        let mut marg: Vec<Vec<f64>> = (0..n)
            .map(|pos| vec![1.0 / f64::from(ctx.t[pos]); ctx.t[pos] as usize])
            .collect();
        // down[pos] = cached positions whose effective rate pos influences.
        let down: Vec<Vec<usize>> = (0..n)
            .map(|pos| {
                (0..n)
                    .filter(|&p2| ctx.hp_cached[p2].contains(&pos))
                    .collect()
            })
            .collect();
        for _ in 0..iterations.max(1) {
            // Survival s[pos][k] = P(u(pos) > k), k in 0..=t (s[t] = 0).
            let survival: Vec<Vec<f64>> = marg
                .iter()
                .map(|m| {
                    let mut s = vec![0.0; m.len() + 1];
                    let mut acc = 0.0;
                    for k in (0..m.len()).rev() {
                        acc += m[k];
                        s[k] = acc;
                    }
                    s
                })
                .collect();
            let surv = |pos: usize, k: usize| -> f64 {
                let s = &survival[pos];
                if k < s.len() {
                    s[k]
                } else {
                    0.0
                }
            };
            let mut next = Vec::with_capacity(n);
            for (pos, down_of_pos) in down.iter().enumerate() {
                let t = ctx.t[pos] as usize;
                let fr = &ctx.flow_rates[pos];
                let hp = &ctx.hp_cached[pos];
                // Downward prior: γ̄(k) with each higher-priority overlap
                // present w.p. its survival beyond k.
                let gamma_bar = |k: usize| -> f64 {
                    fr.iter()
                        .map(|&(f, r)| {
                            let mut keep = 1.0;
                            for &h in hp {
                                if ctx
                                    .rules
                                    .rule(ctx.cached[h])
                                    .covers_flow(flowspace::FlowId(f as u32))
                                {
                                    keep *= 1.0 - surv(h, k);
                                }
                            }
                            r * keep
                        })
                        .sum()
                };
                let mut m = vec![0.0; t];
                let mut quiet = 0.0; // Σ_{k'<k} γ̄(k')
                for k in 1..=t {
                    let g = gamma_bar(k);
                    m[k - 1] = if g > 0.0 {
                        (g.ln() - g - quiet).exp()
                    } else {
                        0.0
                    };
                    quiet += g;
                }
                // Upward correction: multiply by Π_{pos2 ∈ down(pos)}
                // Z_{pos2}(u), the alive-likelihood of each influenced rule
                // given u(pos) = u (other couplings at their mean field).
                let down_of_pos: &[usize] = if opts.upward { down_of_pos } else { &[] };
                for &pos2 in down_of_pos {
                    let t2 = ctx.t[pos2] as usize;
                    // Split pos2's flows into those covered by pos (gated by
                    // [k ≥ u]) and the rest; both keep the mean-field discount
                    // of pos2's *other* higher-priority overlaps.
                    let mut base = vec![0.0; t2 + 1]; // prefix sums over k=1..t2
                    let mut extra = vec![0.0; t2 + 1];
                    let mut base_k = vec![0.0; t2 + 1];
                    let mut extra_k = vec![0.0; t2 + 1];
                    for k in 1..=t2 {
                        let mut b = 0.0;
                        let mut e = 0.0;
                        for &(f, r) in &ctx.flow_rates[pos2] {
                            let fid = flowspace::FlowId(f as u32);
                            let mut keep = 1.0;
                            for &h in &ctx.hp_cached[pos2] {
                                if h != pos && ctx.rules.rule(ctx.cached[h]).covers_flow(fid) {
                                    keep *= 1.0 - surv(h, k);
                                }
                            }
                            if ctx.rules.rule(ctx.cached[pos]).covers_flow(fid) {
                                e += r * keep;
                            } else {
                                b += r * keep;
                            }
                        }
                        base_k[k] = b;
                        extra_k[k] = e;
                        base[k] = base[k - 1] + b;
                        extra[k] = extra[k - 1] + e;
                    }
                    for (u_idx, w) in m.iter_mut().enumerate() {
                        if *w == 0.0 {
                            continue;
                        }
                        let u = u_idx + 1;
                        // γ̃(k) = base(k) + extra(k)·[k ≥ u];
                        // C(m) = Σ_{k≤m} γ̃(k).
                        let cum = |mm: usize| -> f64 {
                            let mm = mm.min(t2);
                            base[mm]
                                + if mm >= u {
                                    extra[mm] - extra[u - 1]
                                } else {
                                    0.0
                                }
                        };
                        let mut z = 0.0;
                        for u2 in 1..=t2 {
                            let g = base_k[u2] + if u2 >= u { extra_k[u2] } else { 0.0 };
                            if g > 0.0 {
                                z += g * (-g - cum(u2 - 1)).exp();
                            }
                        }
                        *w *= z.max(1e-300);
                    }
                }
                // Pairwise injectivity exclusion: u(pos) cannot equal u(j').
                if opts.exclusion {
                    for (u_idx, w) in m.iter_mut().enumerate() {
                        for (other, mo) in marg.iter().enumerate() {
                            if other != pos && u_idx < mo.len() {
                                *w *= 1.0 - mo[u_idx];
                            }
                        }
                    }
                }
                let s: f64 = m.iter().sum();
                if s > 0.0 {
                    for x in &mut m {
                        *x /= s;
                    }
                } else {
                    m.fill(1.0 / t as f64);
                }
                next.push(m);
            }
            marg = next;
        }
        marg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowId, FlowSet, Rule, Timeout};
    use proptest::prelude::*;

    fn rules_two_disjoint(t0: u32, t1: u32) -> (RuleSet, FlowRates) {
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(0)]), 20, Timeout::idle(t0)),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 10, Timeout::idle(t1)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.3, 0.1, 0.05, 0.0]);
        (rules, rates)
    }

    fn rules_overlapping() -> (RuleSet, FlowRates) {
        // rule0 covers {0,1} (higher priority), rule1 covers {1,2}.
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(0), FlowId(1)]),
                    20,
                    Timeout::idle(4),
                ),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    10,
                    Timeout::idle(5),
                ),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.2, 0.15, 0.1, 0.0]);
        (rules, rates)
    }

    #[test]
    fn empty_cache_analysis_is_empty() {
        let (rules, rates) = rules_two_disjoint(3, 4);
        let a = Evaluator::exact().analyze(&rules, &rates, &[], false);
        assert!(a.cached.is_empty() && a.timeout.is_empty() && a.evict.is_empty());
    }

    #[test]
    fn single_rule_eviction_is_certain() {
        let (rules, rates) = rules_two_disjoint(4, 4);
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(2000, 7),
        ] {
            let a = ev.analyze(&rules, &rates, &[RuleId(0)], true);
            assert_eq!(a.evict, vec![1.0], "{ev:?}");
            assert_eq!(a.timeout.len(), 1);
            assert!(
                a.timeout[0] > 0.0 && a.timeout[0] < 1.0,
                "{ev:?}: {:?}",
                a.timeout
            );
        }
    }

    #[test]
    fn single_rule_timeout_matches_closed_form() {
        // One cached rule, no overlaps, no other rules covering its flow:
        // γ is constant, so P(u=k | alive) ∝ γe^{-γk} and
        // P(timeout) = e^{-γ(t-1)}·(...) — compare exact vs analytic.
        let u = 1;
        let g: f64 = 0.25;
        let t = 6u32;
        let rules = RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(u, [FlowId(0)]),
                10,
                Timeout::idle(t),
            )],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![g]);
        let a = Evaluator::exact().analyze(&rules, &rates, &[RuleId(0)], false);
        // P(u=k) ∝ γ e^{-γ k}; normalized over k=1..t → P(u=t) =
        // e^{-γt} / Σ_k e^{-γk}.
        let z: f64 = (1..=t).map(|k| (-g * f64::from(k)).exp()).sum();
        let expected = (-g * f64::from(t)).exp() / z;
        assert!(
            (a.timeout[0] - expected).abs() < 1e-12,
            "{} vs {expected}",
            a.timeout[0]
        );
        // Mean field agrees exactly in this uncoupled case.
        let mf = Evaluator::mean_field().analyze(&rules, &rates, &[RuleId(0)], false);
        assert!((mf.timeout[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn faster_flow_rule_less_likely_to_be_evicted() {
        // rule0's flow arrives at 0.3/step, rule1's at 0.1: rule0 was
        // likely matched more recently, so rule1 is likelier to be evicted.
        let (rules, rates) = rules_two_disjoint(5, 5);
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(20_000, 3),
        ] {
            let a = ev.analyze(&rules, &rates, &[RuleId(0), RuleId(1)], true);
            assert!(a.evict[1] > a.evict[0], "{ev:?}: evict = {:?}", a.evict);
            assert!((a.evict.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Same story for timeouts.
            assert!(
                a.timeout[1] > a.timeout[0],
                "{ev:?}: timeout = {:?}",
                a.timeout
            );
        }
    }

    #[test]
    fn mean_field_tracks_exact_disjoint() {
        let (rules, rates) = rules_two_disjoint(5, 7);
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let mf = Evaluator::mean_field().analyze(&rules, &rates, &cached, true);
        for i in 0..2 {
            assert!(
                (ex.evict[i] - mf.evict[i]).abs() < 0.06,
                "evict {ex:?} vs {mf:?}"
            );
            assert!(
                (ex.timeout[i] - mf.timeout[i]).abs() < 0.06,
                "timeout {ex:?} vs {mf:?}"
            );
        }
    }

    #[test]
    fn mean_field_tracks_exact_overlapping() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let mf = Evaluator::mean_field().analyze(&rules, &rates, &cached, true);
        for i in 0..2 {
            assert!(
                (ex.evict[i] - mf.evict[i]).abs() < 0.1,
                "evict {ex:?} vs {mf:?}"
            );
            assert!(
                (ex.timeout[i] - mf.timeout[i]).abs() < 0.1,
                "timeout {ex:?} vs {mf:?}"
            );
        }
    }

    #[test]
    fn monte_carlo_tracks_exact() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let mc = Evaluator::monte_carlo(50_000, 11).analyze(&rules, &rates, &cached, true);
        for i in 0..2 {
            assert!(
                (ex.evict[i] - mc.evict[i]).abs() < 0.03,
                "evict {ex:?} vs {mc:?}"
            );
            assert!(
                (ex.timeout[i] - mc.timeout[i]).abs() < 0.03,
                "timeout {ex:?} vs {mc:?}"
            );
        }
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let a = Evaluator::monte_carlo(5_000, 42).analyze(&rules, &rates, &cached, false);
        let b = Evaluator::monte_carlo(5_000, 42).analyze(&rules, &rates, &cached, false);
        assert_eq!(a, b);
        let c = Evaluator::monte_carlo(5_000, 43).analyze(&rules, &rates, &cached, false);
        assert_ne!(a, c);
    }

    #[test]
    fn capacity_affects_exact_estimates() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let below = Evaluator::exact().analyze(&rules, &rates, &cached, false);
        let full = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        // The uncached-rule factor differs between the two cases; the
        // estimates should not be identical (rule2 exists and overlaps).
        // (They can be close; just verify the plumbing produces both.)
        assert_eq!(below.cached, full.cached);
    }

    #[test]
    #[should_panic(expected = "duplicate rule ids")]
    fn duplicate_cache_ids_rejected() {
        let (rules, rates) = rules_two_disjoint(3, 3);
        let _ = Evaluator::mean_field().analyze(&rules, &rates, &[RuleId(0), RuleId(0)], false);
    }

    #[test]
    #[should_panic(expected = "would enumerate")]
    fn exact_guard_trips() {
        let u = 2;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(0)]), 2, Timeout::idle(1000)),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 1, Timeout::idle(1000)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.1, 0.1]);
        let ev = Evaluator::Exact {
            max_sequences: 1000,
        };
        let _ = ev.analyze(&rules, &rates, &[RuleId(0), RuleId(1)], false);
    }

    #[test]
    fn raw_mean_field_is_less_accurate_than_corrected() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let full = Evaluator::mean_field().analyze(&rules, &rates, &cached, true);
        let raw = Evaluator::MeanFieldRaw { iterations: 4 }.analyze(&rules, &rates, &cached, true);
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        assert_ne!(full, raw, "corrections must change the estimates");
        assert!(
            l1(&ex.evict, &full.evict) <= l1(&ex.evict, &raw.evict) + 1e-9,
            "corrected {:?} should beat raw {:?} (exact {:?})",
            full.evict,
            raw.evict,
            ex.evict
        );
    }

    #[test]
    fn analyze_is_the_srt_policy() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(5_000, 9),
        ] {
            let a = ev.analyze(&rules, &rates, &cached, true);
            let b = ev.analyze_policy(&rules, &rates, &cached, true, PolicyKind::Srt);
            assert_eq!(a, b, "{ev:?}");
        }
    }

    #[test]
    fn lru_prefers_to_evict_the_stale_rule() {
        // rule0's flow arrives at 0.3/step, rule1's at 0.1: rule1 was
        // matched less recently (larger age), so LRU evicts it more often.
        let (rules, rates) = rules_two_disjoint(5, 5);
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(20_000, 3),
        ] {
            let a = ev.analyze_policy(
                &rules,
                &rates,
                &[RuleId(0), RuleId(1)],
                true,
                PolicyKind::Lru,
            );
            assert!(a.evict[1] > a.evict[0], "{ev:?}: {:?}", a.evict);
            assert!((a.evict.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{ev:?}");
        }
    }

    #[test]
    fn mean_field_tracks_exact_for_all_policies() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        for policy in PolicyKind::all() {
            let ex = Evaluator::exact().analyze_policy(&rules, &rates, &cached, true, policy);
            let mf = Evaluator::mean_field().analyze_policy(&rules, &rates, &cached, true, policy);
            for i in 0..2 {
                assert!(
                    (ex.evict[i] - mf.evict[i]).abs() < 0.12,
                    "{policy}: evict {:?} vs {:?}",
                    ex.evict,
                    mf.evict
                );
            }
        }
    }

    #[test]
    fn fdrc_normalization_shifts_eviction_toward_long_timeouts() {
        // Same flow rate, very different timeouts: SRT pins eviction on the
        // short-timeout rule (its remaining time is capped at t0), while
        // FDRC compares *normalized* remaining time, so the long-timeout
        // rule — stale relative to its own timeout — is evicted more often.
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(0)]), 20, Timeout::idle(3)),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 10, Timeout::idle(9)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.2, 0.2, 0.0, 0.0]);
        let cached = [RuleId(0), RuleId(1)];
        let srt = Evaluator::exact().analyze_policy(&rules, &rates, &cached, true, PolicyKind::Srt);
        let fdrc =
            Evaluator::exact().analyze_policy(&rules, &rates, &cached, true, PolicyKind::Fdrc);
        assert!(
            fdrc.evict[1] > srt.evict[1],
            "fdrc {:?} vs srt {:?}",
            fdrc.evict,
            srt.evict
        );
    }

    #[test]
    fn evict_distribution_sums_to_one() {
        let (rules, rates) = rules_overlapping();
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(5_000, 1),
        ] {
            let a = ev.analyze(&rules, &rates, &[RuleId(0), RuleId(1)], true);
            let s: f64 = a.evict.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{ev:?}: {s}");
            for &p in &a.timeout {
                assert!((0.0..=1.0).contains(&p), "{ev:?}: {p}");
            }
        }
    }

    /// Strategy: 2–6 rules over 6 flows with overlapping covers and
    /// timeouts up to 12 steps; rule `i` outranks rule `i + 1`.
    fn rule_set_strategy() -> impl Strategy<Value = RuleSet> {
        let rule = (1u32..=12, proptest::collection::btree_set(0u32..6, 1..=3));
        proptest::collection::vec(rule, 2..=6).prop_map(|specs| {
            let rules = specs
                .into_iter()
                .zip((0..100u32).rev())
                .map(|((t, flows), prio)| {
                    Rule::from_flow_set(
                        FlowSet::from_flows(6, flows.into_iter().map(FlowId)),
                        prio,
                        Timeout::idle(t),
                    )
                })
                .collect();
            RuleSet::new(rules, 6).expect("distinct priorities")
        })
    }

    /// Strategy: per-step rates with some silent and some near-silent
    /// flows, so the `γ = 0` branches and tiny-`γ` terms run too.
    fn rates_strategy() -> impl Strategy<Value = FlowRates> {
        proptest::collection::vec(0.0f64..0.4, 6).prop_map(|v| {
            let rate = |r: f64| match r {
                r if r < 0.04 => 0.0,
                r if r < 0.08 => r * 1e-3,
                r => r,
            };
            FlowRates::from_per_step(v.into_iter().map(rate).collect())
        })
    }

    type Bits = (Vec<RuleId>, Vec<u64>, Vec<u64>);

    fn bits(a: &CacheAnalysis) -> Bits {
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (a.cached.clone(), to_bits(&a.timeout), to_bits(&a.evict))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every evaluator and policy gives the same bits as the direct
        /// evaluation in `reference`: the prefix-summed upward loop, the
        /// pair table and the hoisted coverage lists change no float
        /// operation. Monte Carlo and exact also check the hoisted
        /// `log P(u)`.
        #[test]
        fn kernel_is_bit_identical_to_the_direct_evaluation(
            rules in rule_set_strategy(),
            rates in rates_strategy(),
            picks in proptest::collection::btree_set(0usize..6, 1..=4),
            full in 0u8..2,
            seed in 0u64..1000,
        ) {
            let cached: Vec<RuleId> = picks
                .into_iter()
                .filter(|&j| j < rules.len())
                .map(RuleId)
                .collect();
            prop_assume!(!cached.is_empty());
            let at_capacity = full == 1;
            let ctx = Ctx::new(&rules, &rates, &cached);
            let old = reference::Ctx::new(&rules, &rates, &cached);
            let old_log_p = |u: &[u32]| old.log_p(u, at_capacity);
            let sequences: u32 = ctx.t.iter().product();
            for policy in PolicyKind::all() {
                let marginals =
                    |iterations, opts| reference::mean_field_marginals(&old, iterations, opts);
                let mut cases = vec![
                    (
                        Evaluator::mean_field(),
                        mean_field(&ctx, &marginals(4, MeanFieldOpts::full()), policy),
                    ),
                    (
                        Evaluator::MeanFieldRaw { iterations: 4 },
                        mean_field(&ctx, &marginals(4, MeanFieldOpts::raw()), policy),
                    ),
                    (
                        Evaluator::monte_carlo(64, seed),
                        monte_carlo(
                            &ctx,
                            &marginals(2, MeanFieldOpts::full()),
                            old_log_p,
                            64,
                            seed,
                            policy,
                        ),
                    ),
                ];
                if sequences <= 3000 {
                    cases.push((Evaluator::exact(), exact(&ctx, old_log_p, u64::MAX, policy)));
                }
                for (ev, want) in cases {
                    let got = ev.analyze_policy(&rules, &rates, &cached, at_capacity, policy);
                    prop_assert_eq!(bits(&got), bits(&want), "{:?} under {}", ev, policy);
                }
            }
        }
    }
}
