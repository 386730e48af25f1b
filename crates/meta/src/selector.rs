//! Classification point → partitioner selection and configuration.

use samr_core::{ClassificationPoint, ModelState};
use samr_geom::sfc::SfcCurve;
use samr_partition::{DomainSfcParams, HybridParams, PartitionerChoice, PatchParams};
use serde::{Deserialize, Serialize};

/// Selector thresholds. The classification space is continuous, so the
/// selector both picks a family (coarse) and steers its parameters
/// (fine), per §4's "coarse grained partitioner selection … extremely
/// fine grained partitioner configuration".
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// d3 above this: migration dominates — prefer locality-preserving
    /// full-order SFC (minimal movement between successive cuts).
    pub migration_threshold: f64,
    /// Absolute β_l (workload-concentration Gini) above which domain-based
    /// cuts quantize too badly and a balance-first family is selected.
    pub balance_threshold: f64,
    /// Per-point communication cost relative to the per-point update cost
    /// of the machine (`cell_transfer / cell_update`): the system (C)
    /// component of the PAC triple. The product `β_c · comm_cost_ratio`
    /// estimates how much a unit of avoidable communication hurts in
    /// compute units, and gates how far the selector may stray from the
    /// communication-optimal domain-based family when balance pressure is
    /// high.
    pub comm_cost_ratio: f64,
    /// Minimum distance the classification point must move before the
    /// selection is reconsidered (hysteresis against thrashing — the
    /// sliding-window idea the paper credits to Chandra).
    pub hysteresis: f64,
    /// Number of *consecutive* classifications that must agree on a
    /// different choice before the selector actually switches. Every
    /// switch costs a redistribution, so flapping is expensive; this is
    /// the "prevent over-reacting to sudden changes" guard of ArMADA's
    /// sliding window.
    pub switch_patience: usize,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            migration_threshold: 0.35,
            balance_threshold: 0.75,
            comm_cost_ratio: 8.0,
            hysteresis: 0.08,
            switch_patience: 2,
        }
    }
}

/// The consecutive-agreement switch guard — the "prevent over-reacting
/// to sudden changes" idea of ArMADA's sliding window, factored out so
/// the selector and the adaptive partition policies share one
/// implementation instead of growing two.
///
/// The gate holds the *pending* candidate and its vote count. Each
/// [`vote`](Self::vote) for the same candidate increments the count; a
/// vote for a different candidate restarts it at one. The vote that
/// reaches `patience` consecutive agreements clears the gate and returns
/// `true` — the caller commits the switch. [`reset`](Self::reset) drops
/// pending votes (the current choice was re-affirmed, or a phase
/// boundary was crossed).
#[derive(Clone, Debug, Default)]
pub struct PatienceGate<T: Copy + PartialEq> {
    pending: Option<(T, usize)>,
}

impl<T: Copy + PartialEq> PatienceGate<T> {
    /// A gate with no pending votes.
    pub fn new() -> Self {
        Self { pending: None }
    }

    /// Cast one vote for switching to `candidate`; `true` means the
    /// candidate has now agreed `patience` times in a row (clamped to at
    /// least 1) and the switch should be committed.
    pub fn vote(&mut self, candidate: T, patience: usize) -> bool {
        let votes = match self.pending {
            Some((c, n)) if c == candidate => n + 1,
            _ => 1,
        };
        if votes >= patience.max(1) {
            self.pending = None;
            true
        } else {
            self.pending = Some((candidate, votes));
            false
        }
    }

    /// Drop any pending votes.
    pub fn reset(&mut self) {
        self.pending = None;
    }
}

/// Stateful selector with hysteresis and switch patience.
#[derive(Clone, Debug)]
pub struct Selector {
    /// Thresholds.
    pub config: SelectorConfig,
    last: Option<(ClassificationPoint, PartitionerChoice)>,
    gate: PatienceGate<PartitionerChoice>,
}

impl Selector {
    /// New selector with the given thresholds.
    pub fn new(config: SelectorConfig) -> Self {
        Self {
            config,
            last: None,
            gate: PatienceGate::new(),
        }
    }

    /// The raw (hysteresis-free) mapping from a model state to a
    /// configured choice.
    ///
    /// Family selection keys on the *absolute* penalties (§4.3's point:
    /// the relative d1 cannot tell `β_L = β_C = 0.1` apart from `0.4`,
    /// so it cannot say whether communication matters at all);
    /// the d2 coordinate steers the configuration (atomic-unit size,
    /// splitting aggressiveness). The meta never selects partially
    /// ordered SFC mappings: the ordering's marginal speed advantage is
    /// far outweighed by the data migration its unstable cuts cause (the
    /// paper's §5.2 suspicion, confirmed by `ablation_sfc` in
    /// `examples/ablations.rs`).
    pub fn map(&self, state: &ModelState) -> PartitionerChoice {
        let c = &self.config;
        let p = &state.point;
        let atomic_unit = if p.d2 >= 0.5 { 2 } else { 4 };
        if p.d3 >= c.migration_threshold {
            // Migration pressure: keep cuts stable and local — full-order
            // Hilbert SFC is the most incremental-friendly cut.
            return PartitionerChoice::DomainSfc(DomainSfcParams {
                atomic_unit,
                curve: SfcCurve::Hilbert,
                full_order: true,
            });
        }
        if state.beta_l >= c.balance_threshold {
            // The workload distribution is so concentrated that a
            // domain-based cut quantizes badly. Whether abandoning the
            // communication-optimal family pays off depends on the
            // machine: weigh the worst-case communication against its
            // cost in compute units.
            let comm_pain = state.beta_c * c.comm_cost_ratio;
            if comm_pain <= 0.5 {
                // Communication is nearly free: per-level patch-based
                // balancing, with spatially coherent assignment (the LPT
                // variant trades too much migration for marginal
                // balance).
                return PartitionerChoice::Patch(PatchParams {
                    split_factor: if p.d2 >= 0.5 { 1.0 } else { 2.0 },
                    min_block: 2,
                    assign: samr_partition::patch_part::PatchAssign::SfcChunk,
                });
            }
            if comm_pain <= 2.0 {
                // Middle ground: the hybrid keeps Core locality while the
                // Hue top-up (with exact fractional blocking) restores
                // balance.
                return PartitionerChoice::Hybrid(HybridParams {
                    atomic_unit,
                    curve: SfcCurve::Hilbert,
                    full_order: true,
                    bilevel_size: 2,
                    hue_blocks_per_proc: 2,
                    fractional_blocking: true,
                });
            }
            // Communication is too precious: live with the imbalance,
            // fall through to domain-based.
        }
        // Default: strictly domain-based — zero inter-level communication
        // and the most stable cuts.
        PartitionerChoice::DomainSfc(DomainSfcParams {
            atomic_unit,
            curve: SfcCurve::Hilbert,
            full_order: true,
        })
    }

    /// Select with hysteresis and patience: the previous choice is kept
    /// (a) while the classification point stays within `hysteresis` of
    /// the point at which the choice was made, and (b) until the raw
    /// mapping has disagreed with the current choice `switch_patience`
    /// times in a row.
    pub fn select(&mut self, state: &ModelState) -> PartitionerChoice {
        let p = &state.point;
        let Some((anchor, current)) = self.last else {
            let choice = self.map(state);
            self.last = Some((*p, choice));
            return choice;
        };
        if anchor.distance(p) < self.config.hysteresis {
            self.gate.reset();
            return current;
        }
        let mapped = self.map(state);
        if mapped == current {
            self.gate.reset();
            self.last = Some((*p, current));
            return current;
        }
        if self.gate.vote(mapped, self.config.switch_patience) {
            self.last = Some((*p, mapped));
            mapped
        } else {
            current
        }
    }

    /// Forget the hysteresis anchor and pending votes (e.g. at phase
    /// boundaries).
    pub fn reset(&mut self) {
        self.last = None;
        self.gate.reset();
    }
}

impl Default for Selector {
    fn default() -> Self {
        Self::new(SelectorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_core::tradeoff1::dimension1;
    use samr_core::tradeoff2::Tradeoff2;

    /// A model state with explicit absolute penalties; the point's d1 is
    /// derived.
    fn input(beta_l: f64, beta_c: f64, d2: f64, d3: f64) -> ModelState {
        ModelState {
            step: 0,
            beta_l,
            beta_c,
            beta_m: d3,
            tradeoff2: Tradeoff2 {
                request: 0.0,
                offer: 0.0,
                grid_size_norm: 0.0,
                d2,
            },
            point: ClassificationPoint::new(dimension1(beta_l, beta_c), d2, d3),
        }
    }

    #[test]
    fn migration_pressure_selects_stable_sfc() {
        let s = Selector::default();
        let c = s.map(&input(0.5, 0.3, 0.5, 0.8));
        match c {
            PartitionerChoice::DomainSfc(p) => {
                assert!(p.full_order);
                assert_eq!(p.curve, SfcCurve::Hilbert);
            }
            other => panic!("expected domain-based, got {other:?}"),
        }
    }

    #[test]
    fn balance_pressure_selects_patch_based_when_comm_is_cheap() {
        // β_c·ratio = 0.05·8 = 0.4 <= 0.5: communication nearly free.
        let s = Selector::default();
        assert_eq!(s.map(&input(0.9, 0.05, 0.5, 0.1)).family(), "patch-based");
    }

    #[test]
    fn balance_pressure_with_moderate_comm_selects_hybrid() {
        // β_c·ratio = 0.15·8 = 1.2 in (0.5, 2.0]: the middle ground.
        let s = Selector::default();
        let c = s.map(&input(0.9, 0.15, 0.5, 0.1));
        assert_eq!(c.family(), "hybrid");
        match c {
            PartitionerChoice::Hybrid(p) => assert!(p.fractional_blocking),
            _ => unreachable!(),
        }
    }

    #[test]
    fn balance_pressure_with_precious_comm_stays_domain_based() {
        // β_c·ratio = 0.5·8 = 4 > 2: live with the imbalance.
        let s = Selector::default();
        assert_eq!(s.map(&input(0.9, 0.5, 0.5, 0.1)).family(), "domain-based");
    }

    #[test]
    fn machine_changes_the_family_for_the_same_application_state() {
        // The PAC argument in one assertion: same (A) classification,
        // different (C) machines, different partitioner.
        let expensive = Selector::default(); // ratio 8
        let cheap = Selector::new(SelectorConfig {
            comm_cost_ratio: 0.05,
            ..SelectorConfig::default()
        });
        let st = input(0.9, 0.5, 0.5, 0.1);
        assert_eq!(expensive.map(&st).family(), "domain-based");
        assert_eq!(cheap.map(&st).family(), "patch-based");
    }

    #[test]
    fn moderate_states_select_domain_based() {
        let s = Selector::default();
        assert_eq!(s.map(&input(0.3, 0.3, 0.5, 0.1)).family(), "domain-based");
        assert_eq!(s.map(&input(0.5, 0.1, 0.5, 0.1)).family(), "domain-based");
        assert_eq!(s.map(&input(0.1, 0.5, 0.5, 0.1)).family(), "domain-based");
    }

    #[test]
    fn meta_never_selects_partial_ordering() {
        let s = Selector::default();
        for bl in [0.1, 0.5, 0.9] {
            for bc in [0.1, 0.5] {
                for d2 in [0.1, 0.9] {
                    for d3 in [0.1, 0.9] {
                        match s.map(&input(bl, bc, d2, d3)) {
                            PartitionerChoice::DomainSfc(p) => assert!(p.full_order),
                            PartitionerChoice::Hybrid(p) => assert!(p.full_order),
                            PartitionerChoice::Patch(_) => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn d2_steers_configuration_not_family() {
        let s = Selector::default();
        let fast = s.map(&input(0.3, 0.3, 0.1, 0.1));
        let quality = s.map(&input(0.3, 0.3, 0.9, 0.1));
        assert_eq!(fast.family(), "domain-based");
        assert_eq!(quality.family(), "domain-based");
        assert_ne!(fast, quality, "d2 must change the configuration");
    }

    #[test]
    fn hysteresis_keeps_choice_for_small_moves() {
        let mut s = Selector::default();
        // Anchor just below the β_l balance threshold: domain-based.
        let first = s.select(&input(0.74, 0.1, 0.5, 0.1));
        assert_eq!(first.family(), "domain-based");
        // β_l crosses the threshold, but the classification *point*
        // barely moves (β_l changes d1 only marginally): the selection
        // must hold.
        let second = s.select(&input(0.76, 0.1, 0.5, 0.1));
        assert_eq!(first, second);
    }

    #[test]
    fn patience_requires_consecutive_votes() {
        let mut s = Selector::new(SelectorConfig {
            switch_patience: 2,
            hysteresis: 0.01,
            ..SelectorConfig::default()
        });
        let first = s.select(&input(0.3, 0.3, 0.5, 0.1)); // domain-based
                                                          // One isolated vote for hybrid: selection holds.
        let v1 = s.select(&input(0.9, 0.15, 0.5, 0.1));
        assert_eq!(v1, first);
        // Second consecutive vote: now it switches.
        let v2 = s.select(&input(0.9, 0.15, 0.5, 0.1));
        assert_eq!(v2.family(), "hybrid");
    }

    #[test]
    fn interleaved_disagreement_resets_patience() {
        let mut s = Selector::new(SelectorConfig {
            switch_patience: 2,
            hysteresis: 0.01,
            ..SelectorConfig::default()
        });
        let first = s.select(&input(0.3, 0.3, 0.5, 0.1)); // domain-based
        s.select(&input(0.9, 0.15, 0.5, 0.1)); // vote hybrid (1)
        s.select(&input(0.3, 0.3, 0.5, 0.1)); // agreeing again: reset
        let again = s.select(&input(0.9, 0.15, 0.5, 0.1)); // vote hybrid (1)
        assert_eq!(again, first, "patience must have been reset");
    }

    #[test]
    fn patience_gate_counts_consecutive_votes_only() {
        let mut g = PatienceGate::new();
        assert!(!g.vote('a', 3));
        assert!(!g.vote('a', 3));
        assert!(g.vote('a', 3), "third consecutive vote commits");
        // The gate cleared itself: the count restarts.
        assert!(!g.vote('a', 3));
        // A different candidate restarts the count.
        assert!(!g.vote('b', 3));
        assert!(!g.vote('a', 3));
        // A reset drops pending votes.
        g.reset();
        assert!(!g.vote('a', 2));
        assert!(g.vote('a', 2));
        // Patience is clamped to at least one vote.
        assert!(g.vote('c', 0));
    }

    #[test]
    fn reset_clears_anchor() {
        let mut s = Selector::new(SelectorConfig {
            switch_patience: 1,
            ..SelectorConfig::default()
        });
        // Anchor just below the balance threshold: domain-based.
        let a = s.select(&input(0.74, 0.05, 0.5, 0.1));
        s.reset();
        // The same tiny move as in the hysteresis test now re-maps
        // immediately: patch-based (β_c·ratio = 0.4 ≤ 0.5).
        let b = s.select(&input(0.76, 0.05, 0.5, 0.1));
        assert_ne!(a, b);
        assert_eq!(b.family(), "patch-based");
    }
}
