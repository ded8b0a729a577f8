//! Unbounded safety verification: the static-analysis layer above the
//! bounded search in [`crate::safety`].
//!
//! The bounded breadth-first search answers the paper's safety question
//! ("can `entity` ever reach permission `p` under this administrative
//! policy?") exactly when the reachable space fits its bounds, and
//! `Unknown` otherwise. This module turns many of those `Unknown`s into
//! definitive answers with three engines:
//!
//! * [`saturation`] — when the instance is **grow-only** (no revoke rule
//!   anywhere in the edge universe, see [`is_monotone`]), reachability
//!   needs no frontier at all: the set of grantable edges only ever
//!   grows, so the least fixpoint of the add-edge split lemma decides
//!   the question outright, with a replayable derivation as witness.
//! * [`bmc`] — in the general (revocation-capable) explicit-mode case,
//!   the step relation and goal are grounded to CNF over the finite
//!   edge universe and solved with the vendored DPLL
//!   ([`minisat`]); a recurrence-diameter check closes many instances
//!   unboundedly.
//! * [`specs`] — a declarative invariant suite (TLA-style predicates as
//!   Rust combinators) replayed against recorded monitor traces as a
//!   conformance oracle for the executable semantics.
//!
//! [`crate::safety::perm_reachable`] dispatches here automatically when
//! a bounded search comes back inconclusive (see
//! [`SafetyConfig::escalate`]); [`verify_perm_reachable`] is the
//! front door for callers that want the engine report as well — it runs
//! saturation *first* on monotone instances instead of paying for a
//! doomed bounded search.

pub mod bmc;
pub mod saturation;
pub mod specs;

use crate::admission::{is_grow_only, revoke_assigned};
use crate::command::CommandQueue;
use crate::ids::{Entity, Perm, PrivId};
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::safety::{goal_alphabet, ground, ReachabilityAnswer, SafetyConfig, Toggle, Truncation};
use crate::search::{PolicySearch, SearchGoal};
use crate::transition::AuthMode;
use crate::universe::Universe;

/// Is this reachability instance **grow-only**?
///
/// Every reachable policy is a subset of the finite edge universe (root
/// edges plus alphabet command edges). A revoke command executes only
/// when its actor reaches a `♦` privilege *vertex*, and `♦` terms are
/// `⊑`-comparable only to themselves (Strict/Extended ordering) or to
/// other `♦` terms (ExtendedWithRevocation) — a grant vertex never
/// authorizes a revocation in any mode. So if no edge in the universe
/// assigns a revoke term to a role, no revocation is ever authorized in
/// any reachable policy, and the system can only grow. The check is
/// sound in every [`AuthMode`]; nested `♦` terms are covered because
/// the alphabet expands nested privileges into their own edges. The
/// alphabet may be the quotient or its grounding.
pub fn is_monotone(
    universe: &Universe,
    root: &Policy,
    alphabet: &[impl Copy + Into<Toggle>],
) -> bool {
    is_grow_only(universe, root)
        && !alphabet
            .iter()
            .any(|&entry| revoke_assigned(universe, entry.into().edge).is_some())
}

/// Which engine produced a [`VerifyReport`]'s answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineUsed {
    /// The goal already holds in the root policy.
    Immediate,
    /// Monotone saturation (definitive, unbounded).
    Saturation,
    /// The bounded breadth-first search.
    Bfs,
    /// DPLL-grounded bounded model checking.
    Bmc,
}

impl EngineUsed {
    /// A short stable name for output and logs.
    pub fn name(self) -> &'static str {
        match self {
            EngineUsed::Immediate => "immediate",
            EngineUsed::Saturation => "saturation",
            EngineUsed::Bfs => "bfs",
            EngineUsed::Bmc => "bmc",
        }
    }
}

/// The full result of [`verify_perm_reachable`]: the answer plus which
/// engine decided it and the engine's own accounting.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The reachability answer.
    pub answer: ReachabilityAnswer,
    /// The engine that produced `answer`.
    pub engine: EngineUsed,
    /// Whether the instance was detected as grow-only.
    pub monotone: bool,
    /// Saturation's applied grants with their justifying vertices
    /// (empty unless the saturation engine ran).
    pub derivation: Vec<saturation::DerivationStep>,
    /// The model checker's accounting, when it ran.
    pub bmc: Option<bmc::BmcReport>,
}

/// Answers the safety question with the best engine for the instance,
/// reporting which one ran.
///
/// Monotone instances go straight to saturation — definitive regardless
/// of `config.max_steps` / `config.max_states`. General instances run
/// the bounded search first (shortest witnesses, exhaustive refutation
/// when the space fits the bounds) and escalate an inconclusive answer
/// to the model checker under explicit authorization.
/// `config.escalate` is ignored: this *is* the escalation front door.
pub fn verify_perm_reachable(
    universe: &mut Universe,
    policy: &Policy,
    entity: Entity,
    perm: Perm,
    config: SafetyConfig,
) -> VerifyReport {
    let target = universe.priv_perm(perm);
    let root_index = ReachIndex::build(universe, policy);
    let report = |answer, engine| VerifyReport {
        answer,
        engine,
        monotone: false,
        derivation: Vec::new(),
        bmc: None,
    };
    if root_index.reach_priv(entity, target) {
        let witness = CommandQueue::new();
        return report(
            ReachabilityAnswer::Reachable { witness },
            EngineUsed::Immediate,
        );
    }
    // Slicing before the monotonicity check is deliberate: sliced
    // alphabets contain no revoke commands, so instances that were
    // non-monotone only through revoke rules take the saturation fast
    // path below.
    let alphabet = goal_alphabet(universe, policy, config, entity, target);
    let mode = config.auth_mode;
    if is_monotone(universe, policy, &alphabet) {
        let outcome = saturation::saturate(universe, policy, &alphabet, mode, entity, target);
        return VerifyReport {
            monotone: true,
            derivation: outcome.derivation,
            ..report(outcome.answer, EngineUsed::Saturation)
        };
    }
    let goal = SearchGoal::Priv { entity, target };
    let space = PolicySearch::new(universe, policy, &alphabet, mode, goal, root_index);
    match crate::safety::run_engine(&space, config) {
        // The CNF grounding encodes explicit authorization only.
        ReachabilityAnswer::Unknown { truncation } if mode == AuthMode::Explicit => {
            let (answer, bmc) =
                model_check(universe, policy, &alphabet, entity, target, truncation);
            VerifyReport {
                bmc: Some(bmc),
                ..report(answer, EngineUsed::Bmc)
            }
        }
        answer => report(answer, EngineUsed::Bfs),
    }
}

/// Escalation hook for [`crate::safety::perm_reachable`]: called after
/// the bounded search answered `Unknown`, with the already-prepared
/// alphabet. Returns a definitive answer when an unbounded engine
/// closes the instance, and `Unknown { truncation }` otherwise.
pub(crate) fn escalate(
    universe: &Universe,
    root: &Policy,
    alphabet: &[Toggle],
    config: SafetyConfig,
    entity: Entity,
    target: PrivId,
    truncation: Truncation,
) -> ReachabilityAnswer {
    if is_monotone(universe, root, alphabet) {
        return saturation::saturate(universe, root, alphabet, config.auth_mode, entity, target)
            .answer;
    }
    if config.auth_mode == AuthMode::Explicit {
        return model_check(universe, root, alphabet, entity, target, truncation).0;
    }
    ReachabilityAnswer::Unknown { truncation }
}

/// The bounded model checker on the grounding of `alphabet`; an
/// inconclusive check answers `Unknown { truncation }`.
fn model_check(
    universe: &Universe,
    root: &Policy,
    alphabet: &[Toggle],
    entity: Entity,
    target: PrivId,
    truncation: Truncation,
) -> (ReachabilityAnswer, bmc::BmcReport) {
    let grounded = ground(universe, root, alphabet);
    let report = bmc::check(
        universe,
        root,
        &grounded,
        entity,
        target,
        Default::default(),
    );
    let answer = match &report.outcome {
        bmc::BmcOutcome::Reachable { witness } => ReachabilityAnswer::Reachable {
            witness: witness.clone(),
        },
        bmc::BmcOutcome::Unreachable => ReachabilityAnswer::Unreachable,
        bmc::BmcOutcome::Inconclusive(_) => ReachabilityAnswer::Unknown { truncation },
    };
    (answer, report)
}
