//! The compact (scalable, approximate) Markov model of §IV-B.
//!
//! A state is just the *subset* of rules presently cached (at most `n`),
//! giving `Σ_{n'≤n} C(|Rules|, n')` states instead of the basic model's
//! astronomically many. The price is that timers are gone: eviction and
//! timeout behavior must be estimated probabilistically, which is the job
//! of the [`useq`](crate::useq) evaluators.
//!
//! Transitions out of a state `S` are assembled from three event kinds
//! (see the [`basic`](crate::basic) module docs for the normalization
//! rationale):
//!
//! * **arrival events** — `P(arrival matching rule j) = (1−e^{-G})·γ_j/G`
//!   with `γ_j` the effective rate of §IV-A1 and `G = Σ_j γ_j`: a cached
//!   `j` self-loops (a hit leaves the subset unchanged); an uncached `j`
//!   joins the subset, displacing a victim drawn from the estimated
//!   eviction distribution when `|S| = n` (§IV-B1, Fig. 4);
//! * **timeout events** — each cached rule may expire per its estimated
//!   per-step hazard `P(rule should time out | cached)` (§IV-B2, Fig. 5),
//!   normalized to at most one expiry per transition;
//! * **quiet event** — the remaining probability.
//!
//! # Building
//!
//! The per-state evaluator analyses are independent of each other and
//! dominate the build, so they fan out with
//! [`map_indexed`](crate::exec::map_indexed) under
//! [`ExecPolicy::auto`]: one thread per available core, the calling thread
//! included. Models under 256 states, which build in microseconds, run
//! serially instead. The thread count is not taken from a caller's `--threads`;
//! `build` has no policy parameter, and one arrives with the single
//! planning entry point rather than a `build_with_exec` variant. The
//! analyses share one `PairTable` whose entries are pure functions of the
//! rule pair and the rates, so the model is bit-identical at any thread
//! count.
//!
//! The transition rows are then built serially on the calling thread, in
//! state order. The rows are most of the model's allocations; building
//! them in the workers instead put them in the workers' malloc arenas and
//! raised the benchmark's peak RSS by about 7%.
//!
//! Rows are not stored: one function, `state_row`, derives a state's row
//! from its analysis, both for the transition matrix and, with a target
//! flow, for the substochastic [`SwitchModel::absent_matrix`], and the rows
//! go straight into the CSR arrays without a per-row allocation. Effective
//! rates come from per-flow cover bitmasks, so a row needs no `FlowSet`
//! arithmetic; the sums still add the same rates in the same order as
//! [`relevant_flow_ids`](flowspace::relevant::relevant_flow_ids).

use crate::counts::compact_state_count;
use crate::exec::{map_indexed, ExecPolicy};
use crate::useq::{CacheAnalysis, Evaluator, PairTable};
use crate::{CsrMatrix, Distribution, ModelError, SwitchModel};
use flowspace::relevant::FlowRates;
use flowspace::{FlowId, RuleId, RuleSet};
use ftcache::PolicyKind;

/// Maximum number of rules the bitmask state encoding supports.
pub const MAX_RULES: usize = 24;

/// Models with fewer states build serially: asking for the core count and
/// spawning a worker cost more (tens of µs) than a small model's whole
/// build.
const PARALLEL_MIN_STATES: u128 = 256;

/// The compact Markov model over cached-rule subsets (§IV-B).
#[derive(Debug, Clone)]
pub struct CompactModel {
    rules: RuleSet,
    rates: FlowRates,
    capacity: usize,
    /// The eviction policy the model assumes the switch runs.
    policy: PolicyKind,
    /// State bitmasks (bit `i` set ⇔ `RuleId(i)` cached), sorted ascending
    /// so a state's index is a binary search away; state 0 is always the
    /// empty cache.
    states: Vec<u32>,
    /// Per-state eviction/timeout analysis from the evaluator.
    analyses: Vec<CacheAnalysis>,
    matrix: CsrMatrix,
    /// Per-flow mask of the rules covering it, so probe-hit checks are a
    /// single AND instead of a walk over the cached rules.
    cover_masks: Vec<u32>,
    /// Per-rule list of the flows it covers, ascending.
    covered: Vec<Vec<FlowId>>,
}

/// One raw row entry of [`CompactModel::state_row`]: the destination
/// mask, the unnormalized weight, and the factor for a `target` arrival.
type RawEdge = (u32, f64, Option<f64>);

/// The set bits of `mask` as single-bit masks, ascending.
fn mask_bits(mut mask: u32) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let low = mask & mask.wrapping_neg();
        mask &= !low;
        (low != 0).then_some(low)
    })
}

fn mask_rules(mask: u32) -> Vec<RuleId> {
    mask_bits(mask)
        .map(|bit| RuleId(bit.trailing_zeros() as usize))
        .collect()
}

/// Index of the state with bitmask `mask` in the ascending `states`.
fn state_index(states: &[u32], mask: u32) -> usize {
    let found = states.binary_search(&mask);
    // detlint::allow(D4): every mask looked up here is an edge target built
    // from a state by swapping rules, so it is within capacity and present.
    found.expect("transition target is a state")
}

impl CompactModel {
    /// Builds the model for the given rule set, per-step rates, cache
    /// capacity `n`, and `u`-sequence evaluator, assuming the switch runs
    /// the paper's shortest-remaining-time eviction ([`PolicyKind::Srt`]).
    ///
    /// # Errors
    ///
    /// * [`ModelError::TooManyRules`] if the rule set exceeds [`MAX_RULES`].
    /// * [`ModelError::UniverseMismatch`] if `rates` does not cover the
    ///   rule set's flow universe.
    pub fn build(
        rules: &RuleSet,
        rates: &FlowRates,
        capacity: usize,
        evaluator: Evaluator,
    ) -> Result<Self, ModelError> {
        Self::build_with_policy(rules, rates, capacity, evaluator, PolicyKind::Srt)
    }

    /// [`CompactModel::build`] with an explicit assumption about the
    /// switch's eviction policy.
    ///
    /// The policy shapes the per-state eviction distributions (§IV-B1) and
    /// through them every at-capacity arrival edge and
    /// [`SwitchModel::apply_probe`] miss update. An attacker whose assumed
    /// policy differs from the switch's actual one plans against a
    /// mismatched belief update — the axis the `defense_tournament`
    /// experiment measures.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompactModel::build`].
    pub fn build_with_policy(
        rules: &RuleSet,
        rates: &FlowRates,
        capacity: usize,
        evaluator: Evaluator,
        policy: PolicyKind,
    ) -> Result<Self, ModelError> {
        let parallel = compact_state_count(rules.len(), capacity)
            .is_some_and(|states| states >= PARALLEL_MIN_STATES);
        let exec = if parallel {
            ExecPolicy::auto()
        } else {
            ExecPolicy::Serial
        };
        Self::build_exec(rules, rates, capacity, evaluator, policy, exec)
    }

    /// The build, with the per-state analyses scheduled under `exec` (see
    /// the module docs). The result is bit-identical under every `exec`.
    fn build_exec(
        rules: &RuleSet,
        rates: &FlowRates,
        capacity: usize,
        evaluator: Evaluator,
        policy: PolicyKind,
        exec: ExecPolicy,
    ) -> Result<Self, ModelError> {
        if rules.len() > MAX_RULES {
            return Err(ModelError::TooManyRules {
                found: rules.len(),
                max: MAX_RULES,
            });
        }
        if rules.universe_size() != rates.universe_size() {
            return Err(ModelError::UniverseMismatch {
                rules: rules.universe_size(),
                rates: rates.universe_size(),
            });
        }
        let states: Vec<u32> = (0u32..(1u32 << rules.len()))
            .filter(|mask| (mask.count_ones() as usize) <= capacity)
            .collect();

        // One table for all states: the state-invariant upward vectors of
        // the mean-field kernel are computed once per build.
        let pairs = PairTable::new(rules.len());
        let analyses = map_indexed(exec, states.len(), |s| {
            let cached = mask_rules(states[s]);
            let at_capacity = cached.len() == capacity;
            evaluator.analyze_shared(rules, rates, &cached, at_capacity, policy, &pairs)
        });

        let cover_masks = (0..rules.universe_size() as u32)
            .map(|f| {
                rules
                    .ids()
                    .filter(|&j| rules.rule(j).covers_flow(FlowId(f)))
                    .fold(0u32, |m, j| m | (1 << j.0))
            })
            .collect();
        let covered = rules
            .ids()
            .map(|j| rules.rule(j).covers().iter().collect())
            .collect();
        let mut model = CompactModel {
            rules: rules.clone(),
            rates: rates.clone(),
            capacity,
            policy,
            states,
            analyses,
            // Filled in below: the rows are derived from the fields above.
            matrix: CsrMatrix::from_csr(0, vec![0], Vec::new(), Vec::new()),
            cover_masks,
            covered,
        };
        model.matrix = model.transition_matrix(None);
        Ok(model)
    }

    /// The transition matrix, or with `target` the §V-A matrix `Â`, one
    /// [`CompactModel::state_row`] per state in state order, written
    /// straight into CSR arrays.
    ///
    /// Each row is normalized by the total of its raw entries, summed in
    /// row order before any merging. Zero entries are dropped, and a
    /// repeated destination accumulates into its first slot, as
    /// [`MatrixBuilder::add_edge`](crate::MatrixBuilder::add_edge) does.
    fn transition_matrix(&self, target: Option<FlowId>) -> CsrMatrix {
        let n = self.states.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        // `Â` has at most the edges of the built matrix.
        let mut col_idx = Vec::with_capacity(self.matrix.n_edges());
        let mut values = Vec::with_capacity(self.matrix.n_edges());
        let mut raw = Vec::new();
        for from in 0..n {
            self.state_row(from, target, &mut raw);
            let total: f64 = raw.iter().map(|(_, w, _)| w).sum();
            let start = col_idx.len();
            for &(to_mask, w, keep) in &raw {
                let prob = w / total;
                let p = keep.map_or(prob, |k| prob * k);
                assert!(p >= 0.0 && p.is_finite(), "edge probability invalid: {p}");
                if p == 0.0 {
                    continue;
                }
                let to = state_index(&self.states, to_mask);
                match col_idx[start..].iter().position(|&c| c == to) {
                    Some(k) => values[start + k] += p,
                    None => {
                        col_idx.push(to);
                        values.push(p);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_csr(n, row_ptr, col_idx, values)
    }

    /// Fills `row` with the raw outgoing entries of `state`, in the order
    /// the matrix adds them: the destination mask, the unnormalized
    /// weight, and the factor applied to it for a `target` arrival.
    ///
    /// With `Some(target)`, each arrival edge of a rule whose relevant
    /// flows include `target` keeps only the share of the rule's effective
    /// rate `γ` that is not `target`'s: it is multiplied by
    /// `((γ − λ_target)/γ).max(0)`. Quiet and timeout edges are unchanged.
    fn state_row(&self, state: usize, target: Option<FlowId>, row: &mut Vec<RawEdge>) {
        row.clear();
        let mask = self.states[state];
        let n_cached = mask.count_ones() as usize;
        let analysis = &self.analyses[state];
        // `target`'s covering rules and rate.
        let target = target.map(|t| (self.cover_masks[t.0 as usize], self.rates.rate(t)));

        // Arrival events with the wall-clock-faithful normalization
        // (see the `basic` module docs): P(arrival matching rule j) =
        // (1 − e^{-G})·γ_j/G, G = Σ_j γ_j. A flow of j is relevant (§IV-A1)
        // unless a blocker covers it: a higher-priority cached rule when j
        // is cached, otherwise any cached or higher-priority rule. The
        // relevant rates are added in ascending flow order, as
        // `relevant_flow_ids` lists them. Rules with `γ > 0` are kept as
        // (bit, γ, factor for a `target` arrival).
        let mut gammas = [(0u32, 0.0f64, None::<f64>); MAX_RULES];
        let mut n_gammas = 0;
        for (j, covered) in self.covered.iter().enumerate() {
            let bit = 1u32 << j;
            let higher = bit - 1;
            let blockers = if mask & bit != 0 {
                mask & higher
            } else {
                mask | higher
            };
            let g: f64 = covered
                .iter()
                .filter(|f| self.cover_masks[f.0 as usize] & blockers == 0)
                .map(|&f| self.rates.rate(f))
                .sum();
            if g > 0.0 {
                let keep = target.and_then(|(cover, rate)| {
                    (cover & bit != 0 && cover & blockers == 0).then(|| ((g - rate) / g).max(0.0))
                });
                gammas[n_gammas] = (bit, g, keep);
                n_gammas += 1;
            }
        }
        let gammas = &gammas[..n_gammas];
        let g_total: f64 = gammas.iter().map(|(_, g, _)| g).sum();
        let p_any = if g_total > 0.0 {
            1.0 - (-g_total).exp()
        } else {
            0.0
        };
        for &(bit, g, keep) in gammas {
            let w = p_any * g / g_total;
            if mask & bit != 0 {
                row.push((mask, w, keep));
            } else if n_cached < self.capacity {
                row.push((mask | bit, w, keep));
            } else {
                for (pos, victim) in mask_bits(mask).enumerate() {
                    let pe = analysis.evict[pos];
                    if pe > 0.0 {
                        row.push(((mask & !victim) | bit, w * pe, keep));
                    }
                }
            }
        }

        // Timeout events: a rule's timer advances on every step (as in
        // the basic model), so the §IV-B2 per-step hazard applies per
        // step, normalized to at most one expiry per transition
        // (Fig. 5 shows one rule leaving per transition). Expiry does
        // not displace arrival probability; the quiet event absorbs
        // whatever remains.
        let mut q_expire = [0.0f64; MAX_RULES];
        let q_expire = &mut q_expire[..n_cached];
        for (pos, q) in q_expire.iter_mut().enumerate() {
            let mut w = analysis.timeout[pos];
            for (pos2, &p2) in analysis.timeout.iter().enumerate() {
                if pos2 != pos {
                    w *= 1.0 - p2;
                }
            }
            *q = w;
        }
        let mut q_total: f64 = q_expire.iter().sum();
        let budget = 1.0 - p_any;
        if q_total > budget && q_total > 0.0 {
            // Hazards larger than the non-arrival share: rescale so the
            // row stays a distribution (rare; very short timeouts).
            for q in q_expire.iter_mut() {
                *q *= budget / q_total;
            }
            q_total = budget;
        }
        for (&q, bit) in q_expire.iter().zip(mask_bits(mask)) {
            if q > 0.0 {
                row.push((mask & !bit, q, None));
            }
        }
        // Quiet event: no arrival, no expiry.
        row.push((mask, budget - q_total, None));
    }

    /// Number of states (`Σ_{n'=0}^{n} C(|Rules|, n')`).
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Cache capacity `n`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction policy the model assumes the switch runs.
    #[must_use]
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The bitmask of a state (bit `i` ⇔ `RuleId(i)` cached).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn state_mask(&self, state: usize) -> u32 {
        self.states[state]
    }

    /// The cached rules of a state, ascending id.
    #[must_use]
    pub fn state_rules(&self, state: usize) -> Vec<RuleId> {
        mask_rules(self.states[state])
    }

    /// Index of the state holding exactly `rules`, if representable: `None`
    /// when the set exceeds the capacity or names a rule outside the model.
    #[must_use]
    pub fn state_of(&self, rules: &[RuleId]) -> Option<usize> {
        let mut mask = 0u32;
        for r in rules {
            if r.0 >= self.rules.len() {
                return None;
            }
            mask |= 1 << r.0;
        }
        self.states.binary_search(&mask).ok()
    }

    /// The evaluator's eviction/timeout analysis for a state.
    #[must_use]
    pub fn analysis(&self, state: usize) -> &CacheAnalysis {
        &self.analyses[state]
    }

    /// Probability (under `dist`) that `rule` is cached.
    #[must_use]
    pub fn prob_rule_cached(&self, dist: &Distribution, rule: RuleId) -> f64 {
        dist.mass_where(|i| self.states[i] & (1 << rule.0) != 0)
    }

    /// `I_T` after `steps` steps from the empty cache (Eqn 8).
    #[must_use]
    pub fn evolve(&self, steps: usize) -> Distribution {
        self.matrix.evolve_n(&self.initial(), steps)
    }
}

impl SwitchModel for CompactModel {
    fn n_states(&self) -> usize {
        self.states.len()
    }

    fn rules(&self) -> &RuleSet {
        &self.rules
    }

    fn rates(&self) -> &FlowRates {
        &self.rates
    }

    fn initial(&self) -> Distribution {
        Distribution::point(self.states.len(), 0)
    }

    fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    fn absent_matrix(&self, target: FlowId) -> CsrMatrix {
        self.transition_matrix(Some(target))
    }

    fn covers_in_state(&self, state: usize, f: FlowId) -> bool {
        let cover = self.cover_masks.get(f.0 as usize).copied().unwrap_or(0);
        self.states[state] & cover != 0
    }

    fn apply_probe(&self, dist: &Distribution, f: FlowId, hit: bool) -> Distribution {
        let conditioned = dist.retain_where(|i| self.covers_in_state(i, f) == hit);
        if hit {
            // A probe hit refreshes recency only; the subset is unchanged.
            return conditioned;
        }
        let Some(install) = self.rules.highest_covering(f) else {
            return conditioned; // uncovered probe: no rule installed
        };
        let mut out = vec![0.0; self.states.len()];
        for (i, &mask) in self.states.iter().enumerate() {
            let mass = conditioned.mass(i);
            if mass == 0.0 {
                continue;
            }
            let cached = mask_rules(mask);
            debug_assert!(!cached.contains(&install));
            if cached.len() < self.capacity {
                let to = state_index(&self.states, mask | (1 << install.0));
                out[to] += mass;
            } else {
                let analysis = &self.analyses[i];
                for (pos, &victim) in cached.iter().enumerate() {
                    let to =
                        state_index(&self.states, (mask & !(1 << victim.0)) | (1 << install.0));
                    out[to] += mass * analysis.evict[pos];
                }
            }
        }
        Distribution::from_masses(out)
    }
}

/// The build loop and the edge-based `absent_matrix` as they were before
/// rows were derived by `state_row` and effective rates by bitmask: the
/// oracle for the bit-exactness tests below.
#[cfg(test)]
mod reference {
    use super::{mask_rules, state_index};
    use crate::useq::{CacheAnalysis, Evaluator, PairTable};
    use crate::{CsrMatrix, MatrixBuilder};
    use flowspace::relevant::{relevant_flow_ids, FlowRates};
    use flowspace::{FlowId, RuleId, RuleSet};
    use ftcache::PolicyKind;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Cause {
        Quiet,
        Timeout(RuleId),
        Arrival(RuleId),
    }

    #[derive(Debug, Clone)]
    struct Edge {
        to: usize,
        prob: f64,
        cause: Cause,
    }

    pub(super) struct Model {
        rules: RuleSet,
        rates: FlowRates,
        states: Vec<u32>,
        pub(super) analyses: Vec<CacheAnalysis>,
        edges: Vec<Vec<Edge>>,
        pub(super) matrix: CsrMatrix,
    }

    impl Model {
        pub(super) fn build(
            rules: &RuleSet,
            rates: &FlowRates,
            capacity: usize,
            evaluator: Evaluator,
            policy: PolicyKind,
        ) -> Model {
            let r = rules.len();
            let mut states = Vec::new();
            for mask in 0u32..(1u32 << r) {
                if (mask.count_ones() as usize) <= capacity {
                    states.push(mask);
                }
            }

            // One table for all states: the state-invariant upward vectors of
            // the mean-field kernel are computed once per build.
            let pairs = PairTable::new(r);
            let mut analyses = Vec::with_capacity(states.len());
            let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(states.len());
            for &mask in &states {
                let cached = mask_rules(mask);
                let at_capacity = cached.len() == capacity;
                let analysis =
                    evaluator.analyze_shared(rules, rates, &cached, at_capacity, policy, &pairs);
                let mut row: Vec<(u32, f64, Cause)> = Vec::new();

                // Arrival events with the wall-clock-faithful normalization
                // (see the `basic` module docs): P(arrival matching rule j) =
                // (1 − e^{-G})·γ_j/G, G = Σ_j γ_j.
                let gammas: Vec<(RuleId, f64)> = rules
                    .ids()
                    .filter_map(|j| {
                        let g = rates.sum_over(&relevant_flow_ids(rules, &cached, j));
                        (g > 0.0).then_some((j, g))
                    })
                    .collect();
                let g_total: f64 = gammas.iter().map(|(_, g)| g).sum();
                let p_any = if g_total > 0.0 {
                    1.0 - (-g_total).exp()
                } else {
                    0.0
                };
                for &(j, g) in &gammas {
                    let w = p_any * g / g_total;
                    if cached.contains(&j) {
                        row.push((mask, w, Cause::Arrival(j)));
                    } else if cached.len() < capacity {
                        row.push((mask | (1 << j.0), w, Cause::Arrival(j)));
                    } else {
                        for (pos, &victim) in cached.iter().enumerate() {
                            let pe = analysis.evict[pos];
                            if pe > 0.0 {
                                let to = (mask & !(1 << victim.0)) | (1 << j.0);
                                row.push((to, w * pe, Cause::Arrival(j)));
                            }
                        }
                    }
                }

                // Timeout events: a rule's timer advances on every step (as in
                // the basic model), so the §IV-B2 per-step hazard applies per
                // step, normalized to at most one expiry per transition
                // (Fig. 5 shows one rule leaving per transition). Expiry does
                // not displace arrival probability; the quiet event absorbs
                // whatever remains.
                let mut q_expire: Vec<f64> = Vec::with_capacity(cached.len());
                for pos in 0..cached.len() {
                    let mut w = analysis.timeout[pos];
                    for (pos2, &p2) in analysis.timeout.iter().enumerate() {
                        if pos2 != pos {
                            w *= 1.0 - p2;
                        }
                    }
                    q_expire.push(w);
                }
                let mut q_total: f64 = q_expire.iter().sum();
                let budget = 1.0 - p_any;
                if q_total > budget && q_total > 0.0 {
                    // Hazards larger than the non-arrival share: rescale so the
                    // row stays a distribution (rare; very short timeouts).
                    for q in &mut q_expire {
                        *q *= budget / q_total;
                    }
                    q_total = budget;
                }
                for (pos, &j) in cached.iter().enumerate() {
                    if q_expire[pos] > 0.0 {
                        row.push((mask & !(1 << j.0), q_expire[pos], Cause::Timeout(j)));
                    }
                }
                // Quiet event: no arrival, no expiry.
                row.push((mask, budget - q_total, Cause::Quiet));

                let total: f64 = row.iter().map(|(_, w, _)| w).sum();
                let out: Vec<Edge> = row
                    .into_iter()
                    .map(|(to_mask, w, cause)| Edge {
                        to: state_index(&states, to_mask),
                        prob: w / total,
                        cause,
                    })
                    .collect();
                analyses.push(analysis);
                edges.push(out);
            }

            let mut matrix = MatrixBuilder::new(states.len());
            for (from, row) in edges.iter().enumerate() {
                for e in row {
                    matrix.add_edge(from, e.to, e.prob);
                }
            }
            let matrix = matrix.freeze();
            Model {
                rules: rules.clone(),
                rates: rates.clone(),
                states,
                analyses,
                edges,
                matrix,
            }
        }

        pub(super) fn absent_matrix(&self, target: FlowId) -> CsrMatrix {
            let mut m = MatrixBuilder::new(self.states.len());
            for (from, row) in self.edges.iter().enumerate() {
                let cached = mask_rules(self.states[from]);
                for e in row {
                    let p = match e.cause {
                        Cause::Quiet | Cause::Timeout(_) => e.prob,
                        Cause::Arrival(j) => {
                            let relevant = relevant_flow_ids(&self.rules, &cached, j);
                            if relevant.contains(target) {
                                let gamma = self.rates.sum_over(&relevant);
                                if gamma > 0.0 {
                                    e.prob * ((gamma - self.rates.rate(target)) / gamma).max(0.0)
                                } else {
                                    0.0
                                }
                            } else {
                                e.prob
                            }
                        }
                    };
                    m.add_edge(from, e.to, p);
                }
            }
            m.freeze()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowSet, Rule, Timeout};
    use proptest::prelude::*;

    fn small() -> (RuleSet, FlowRates) {
        // rule0 covers {1} (pri 30, t=3); rule1 covers {1,2} (pri 20, t=5);
        // rule2 covers {3} (pri 10, t=4). Flow 0 is uncovered.
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 30, Timeout::idle(3)),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    20,
                    Timeout::idle(5),
                ),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(3)]), 10, Timeout::idle(4)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.05, 0.1, 0.15, 0.2]);
        (rules, rates)
    }

    fn model(capacity: usize) -> CompactModel {
        let (rules, rates) = small();
        CompactModel::build(&rules, &rates, capacity, Evaluator::exact()).unwrap()
    }

    #[test]
    fn state_count_matches_formula() {
        let m = model(2);
        assert_eq!(m.n_states() as u128, compact_state_count(3, 2).unwrap());
        let m3 = model(3);
        assert_eq!(m3.n_states() as u128, compact_state_count(3, 3).unwrap());
    }

    #[test]
    fn matrix_is_stochastic_and_conserves_mass() {
        let m = model(2);
        assert!(m.matrix().is_stochastic(1e-9));
        let d = m.evolve(200);
        assert!((d.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn state_round_trips() {
        let m = model(2);
        for s in 0..m.n_states() {
            let rules = m.state_rules(s);
            assert_eq!(m.state_of(&rules), Some(s));
            assert_eq!(rules.len() as u32, m.state_mask(s).count_ones());
            assert!(rules.len() <= m.capacity());
        }
        assert_eq!(m.state_of(&[RuleId(0), RuleId(1), RuleId(2)]), None); // over capacity
    }

    #[test]
    fn state_of_rejects_rules_outside_the_model() {
        let m = model(2);
        assert_eq!(m.state_of(&[RuleId(3)]), None);
        // Ids past the mask width must not shift out of (or wrap around)
        // the u32 state mask.
        assert_eq!(m.state_of(&[RuleId(32)]), None);
        assert_eq!(m.state_of(&[RuleId(33)]), None);
        assert_eq!(m.state_of(&[RuleId(0), RuleId(40)]), None);
        assert_eq!(m.state_of(&[RuleId(usize::MAX)]), None);
        assert_eq!(m.state_of(&[]), Some(0));
    }

    #[test]
    fn build_shares_pair_vectors_bit_exactly() {
        // Six rules with nested and chained overlaps, so states mix pairs
        // whose lower rule has one shadowing rule (shared across the
        // build) and pairs with several (computed per state).
        let u = 8;
        let spec: [(&[u32], u32); 6] = [
            (&[0, 1], 4),
            (&[1, 2, 3], 7),
            (&[3, 4], 5),
            (&[0, 4, 5], 9),
            (&[5, 6], 3),
            (&[2, 6, 7], 6),
        ];
        let rules = RuleSet::new(
            spec.iter()
                .zip((0..60u32).rev())
                .map(|(&(flows, t), prio)| {
                    Rule::from_flow_set(
                        FlowSet::from_flows(u, flows.iter().map(|&f| FlowId(f))),
                        prio,
                        Timeout::idle(t),
                    )
                })
                .collect(),
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.12, 0.05, 0.2, 0.0, 0.08, 0.15, 0.1, 0.03]);
        let bits = |a: &CacheAnalysis| {
            let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (a.cached.clone(), to_bits(&a.timeout), to_bits(&a.evict))
        };
        for policy in PolicyKind::all() {
            for ev in [
                Evaluator::mean_field(),
                Evaluator::MeanFieldRaw { iterations: 4 },
                Evaluator::monte_carlo(32, 5),
            ] {
                let m =
                    CompactModel::build_with_policy(&rules, &rates, 3, ev.clone(), policy).unwrap();
                for s in 0..m.n_states() {
                    let cached = m.state_rules(s);
                    let at_capacity = cached.len() == m.capacity();
                    let fresh = ev.analyze_policy(&rules, &rates, &cached, at_capacity, policy);
                    assert_eq!(
                        bits(m.analysis(s)),
                        bits(&fresh),
                        "{ev:?} {policy} state {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_rate_rules_more_likely_cached() {
        let m = model(2);
        let d = m.evolve(300);
        // Flow 3 (rate .2) feeds rule2; flow 2 (.15) + flow 1 via overlap
        // feed rule1; rule0 only gets f1 (0.1) and competes with rule1.
        let p2 = m.prob_rule_cached(&d, RuleId(2));
        let p0 = m.prob_rule_cached(&d, RuleId(0));
        assert!(p2 > p0, "p2={p2} p0={p0}");
    }

    #[test]
    fn covers_in_state_checks_any_cached_cover() {
        let m = model(2);
        let s01 = m.state_of(&[RuleId(0), RuleId(1)]).unwrap();
        assert!(m.covers_in_state(s01, FlowId(1)));
        assert!(m.covers_in_state(s01, FlowId(2)));
        assert!(!m.covers_in_state(s01, FlowId(3)));
        assert!(!m.covers_in_state(0, FlowId(1))); // empty cache
    }

    #[test]
    fn absent_matrix_substochastic_and_lowers_target_rule() {
        let m = model(2);
        let target = FlowId(2); // covered only by rule1
        let sub = m.absent_matrix(target);
        assert!(sub.is_substochastic(1e-9));
        let joint = sub.evolve_n(&m.initial(), 120);
        assert!(joint.total() < 1.0);
        let full = m.evolve(120);
        let p_full = m.prob_rule_cached(&full, RuleId(1));
        let p_cond = m.prob_rule_cached(&joint, RuleId(1)) / joint.total();
        assert!(p_cond < p_full, "cond={p_cond} full={p_full}");
    }

    #[test]
    fn absent_matrix_of_uncovered_flow_is_stochastic() {
        let m = model(2);
        assert!(m.absent_matrix(FlowId(0)).is_stochastic(1e-9));
    }

    #[test]
    fn apply_probe_hit_conditions_without_moving_mass() {
        let m = model(2);
        let d = m.evolve(100);
        let hit = m.apply_probe(&d, FlowId(3), true);
        // Total equals P(Q=1).
        let p_q1 = m.prob_flow_hit(&d, FlowId(3));
        assert!((hit.total() - p_q1).abs() < 1e-12);
        // All mass sits on states containing a rule covering f3.
        for i in 0..m.n_states() {
            if hit.mass(i) > 0.0 {
                assert!(m.covers_in_state(i, FlowId(3)));
            }
        }
    }

    #[test]
    fn apply_probe_miss_installs_covering_rule() {
        let m = model(2);
        let d = m.evolve(100);
        let miss = m.apply_probe(&d, FlowId(3), false);
        let p_q0 = 1.0 - m.prob_flow_hit(&d, FlowId(3));
        assert!((miss.total() - p_q0).abs() < 1e-9);
        // After the probe, every surviving state contains rule2.
        for i in 0..m.n_states() {
            if miss.mass(i) > 1e-15 {
                assert!(m.state_rules(i).contains(&RuleId(2)), "state {i}");
            }
        }
    }

    #[test]
    fn apply_probe_miss_at_capacity_spreads_over_victims() {
        let m = model(1); // capacity 1: any install evicts the lone rule
        let d = m.evolve(50);
        let miss = m.apply_probe(&d, FlowId(3), false);
        for i in 0..m.n_states() {
            if miss.mass(i) > 1e-15 {
                assert_eq!(m.state_rules(i), vec![RuleId(2)]);
            }
        }
    }

    #[test]
    fn apply_probe_uncovered_flow_only_conditions() {
        let m = model(2);
        let d = m.evolve(100);
        let out = m.apply_probe(&d, FlowId(0), false);
        assert!((out.total() - 1.0).abs() < 1e-9); // Q=0 always for f0
        let hit = m.apply_probe(&d, FlowId(0), true);
        assert_eq!(hit.total(), 0.0);
    }

    #[test]
    fn too_many_rules_rejected() {
        let u = 32;
        let rules = RuleSet::new(
            (0..25)
                .map(|i| {
                    Rule::from_flow_set(
                        FlowSet::from_flows(u, [FlowId(i)]),
                        100 - i,
                        Timeout::idle(3),
                    )
                })
                .collect(),
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.01; 32]);
        let err = CompactModel::build(&rules, &rates, 4, Evaluator::mean_field()).unwrap_err();
        assert_eq!(
            err,
            ModelError::TooManyRules {
                found: 25,
                max: MAX_RULES
            }
        );
    }

    #[test]
    fn universe_mismatch_rejected() {
        let (rules, _) = small();
        let rates = FlowRates::from_per_step(vec![0.1; 3]);
        let err = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field()).unwrap_err();
        assert!(matches!(err, ModelError::UniverseMismatch { .. }));
    }

    #[test]
    fn build_assumes_srt_and_policies_change_the_chain() {
        let (rules, rates) = small();
        let srt = CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap();
        assert_eq!(srt.policy(), PolicyKind::Srt);
        let srt2 =
            CompactModel::build_with_policy(&rules, &rates, 2, Evaluator::exact(), PolicyKind::Srt)
                .unwrap();
        let d_srt = srt.evolve(200);
        let d_srt2 = srt2.evolve(200);
        for j in rules.ids() {
            assert_eq!(
                srt.prob_rule_cached(&d_srt, j),
                srt2.prob_rule_cached(&d_srt2, j)
            );
        }
        for policy in [PolicyKind::Lru, PolicyKind::Fdrc] {
            let m = CompactModel::build_with_policy(&rules, &rates, 2, Evaluator::exact(), policy)
                .unwrap();
            assert_eq!(m.policy(), policy);
            assert!(m.matrix().is_stochastic(1e-9), "{policy}");
            let d = m.evolve(200);
            let moved = rules.ids().any(|j| {
                (m.prob_rule_cached(&d, j) - srt.prob_rule_cached(&d_srt, j)).abs() > 1e-6
            });
            assert!(moved, "{policy} should reshape the stationary occupancy");
        }
    }

    #[test]
    fn mean_field_build_close_to_exact_build() {
        let (rules, rates) = small();
        let ex = CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap();
        let mf = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field()).unwrap();
        let de = ex.evolve(150);
        let dm = mf.evolve(150);
        for j in rules.ids() {
            let pe = ex.prob_rule_cached(&de, j);
            let pm = mf.prob_rule_cached(&dm, j);
            assert!((pe - pm).abs() < 0.05, "{j}: exact {pe} vs mean-field {pm}");
        }
    }
    /// Strategy: 2–6 rules over 6 flows with overlapping covers and
    /// timeouts up to 8 steps; rule `i` outranks rule `i + 1`.
    fn rule_set_strategy() -> impl Strategy<Value = RuleSet> {
        let rule = (1u32..=8, proptest::collection::btree_set(0u32..6, 1..=3));
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

    /// Strategy: per-step rates with silent and near-silent flows, so the
    /// `γ = 0` branches and the `target`-only arrival edges run too.
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

    type Rows = Vec<Vec<(usize, u64)>>;

    fn row_bits(m: &CsrMatrix) -> Rows {
        (0..m.n_states())
            .map(|i| m.row(i).map(|(j, p)| (j, p.to_bits())).collect())
            .collect()
    }

    type Bits = (Vec<RuleId>, Vec<u64>, Vec<u64>);

    fn analysis_bits(a: &CacheAnalysis) -> Bits {
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (a.cached.clone(), to_bits(&a.timeout), to_bits(&a.evict))
    }

    /// Everything observable about a model, as bits: its states, every
    /// analysis, and every row of `matrix()` and of each flow's
    /// `absent_matrix`.
    fn model_bits(m: &CompactModel) -> (Vec<u32>, Vec<Bits>, Rows, Vec<Rows>) {
        let flows = m.rules().universe_size() as u32;
        (
            m.states.clone(),
            m.analyses.iter().map(analysis_bits).collect(),
            row_bits(m.matrix()),
            (0..flows)
                .map(|f| row_bits(&m.absent_matrix(FlowId(f))))
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `state_row` with bitmask effective rates reproduces the stored
        /// edge rows of the pre-`state_row` build bit for bit, with and
        /// without a target flow, and the parallel build is the serial one
        /// at any thread count.
        #[test]
        fn rows_and_analyses_are_bit_identical_to_the_edge_build(
            rules in rule_set_strategy(),
            rates in rates_strategy(),
            capacity in 1usize..=4,
        ) {
            let mut evaluators = vec![Evaluator::mean_field()];
            if capacity <= 2 {
                evaluators.push(Evaluator::exact());
            }
            for policy in PolicyKind::all() {
                for ev in &evaluators {
                    let want =
                        reference::Model::build(&rules, &rates, capacity, ev.clone(), policy);
                    let got = CompactModel::build_exec(
                        &rules,
                        &rates,
                        capacity,
                        ev.clone(),
                        policy,
                        ExecPolicy::Serial,
                    )
                    .unwrap();
                    let case = format!("{ev:?} under {policy}");
                    prop_assert_eq!(row_bits(got.matrix()), row_bits(&want.matrix), "{}", case);
                    for s in 0..got.n_states() {
                        prop_assert_eq!(
                            analysis_bits(got.analysis(s)),
                            analysis_bits(&want.analyses[s]),
                            "{} state {}", case, s
                        );
                    }
                    for f in 0..rules.universe_size() as u32 {
                        prop_assert_eq!(
                            row_bits(&got.absent_matrix(FlowId(f))),
                            row_bits(&want.absent_matrix(FlowId(f))),
                            "{} target {}", case, f
                        );
                    }
                    let serial = model_bits(&got);
                    for threads in [2, 8] {
                        let parallel = CompactModel::build_exec(
                            &rules,
                            &rates,
                            capacity,
                            ev.clone(),
                            policy,
                            ExecPolicy::Parallel { threads },
                        )
                        .unwrap();
                        prop_assert_eq!(
                            &model_bits(&parallel),
                            &serial,
                            "{} on {} threads", case, threads
                        );
                    }
                }
            }
        }
    }
}
