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
use crate::command::{Command, CommandQueue};
use crate::ids::{Entity, Perm, PrivId};
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::safety::{ReachabilityAnswer, SafetyConfig, Truncation};
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
/// the alphabet expands nested privileges into their own edges.
pub fn is_monotone(universe: &Universe, root: &Policy, alphabet: &[(Command, PrivId)]) -> bool {
    is_grow_only(universe, root)
        && !alphabet
            .iter()
            .any(|&(cmd, _)| revoke_assigned(universe, cmd.edge).is_some())
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
    if root_index.reach_priv(entity, target) {
        return VerifyReport {
            answer: ReachabilityAnswer::Reachable {
                witness: CommandQueue::new(),
            },
            engine: EngineUsed::Immediate,
            monotone: false,
            derivation: Vec::new(),
            bmc: None,
        };
    }
    let mut alphabet = crate::safety::prepare_alphabet(universe, policy, config);
    if config.slice {
        // Slicing before the monotonicity check is deliberate: sliced
        // alphabets contain no revoke commands, so instances that were
        // non-monotone only through revoke rules take the saturation
        // fast path below.
        alphabet = crate::lint::slice_alphabet(
            universe,
            policy,
            &alphabet,
            entity,
            target,
            config.auth_mode,
        )
        .alphabet;
    }
    if is_monotone(universe, policy, &alphabet) {
        let outcome = saturation::saturate(
            universe,
            policy,
            &alphabet,
            config.auth_mode,
            entity,
            target,
        );
        return VerifyReport {
            answer: outcome.answer,
            engine: EngineUsed::Saturation,
            monotone: true,
            derivation: outcome.derivation,
            bmc: None,
        };
    }
    let answer = {
        let space = PolicySearch::new(
            universe,
            policy,
            &alphabet,
            config.auth_mode,
            SearchGoal::Priv { entity, target },
            root_index,
        );
        crate::safety::run_engine(&space, config)
    };
    let ReachabilityAnswer::Unknown { truncation } = answer else {
        return VerifyReport {
            answer,
            engine: EngineUsed::Bfs,
            monotone: false,
            derivation: Vec::new(),
            bmc: None,
        };
    };
    if config.auth_mode != AuthMode::Explicit {
        // The CNF grounding encodes explicit authorization only.
        return VerifyReport {
            answer: ReachabilityAnswer::Unknown { truncation },
            engine: EngineUsed::Bfs,
            monotone: false,
            derivation: Vec::new(),
            bmc: None,
        };
    }
    let report = bmc::check(
        universe,
        policy,
        &alphabet,
        entity,
        target,
        bmc::BmcConfig::default(),
    );
    let answer = match &report.outcome {
        bmc::BmcOutcome::Reachable { witness } => ReachabilityAnswer::Reachable {
            witness: witness.clone(),
        },
        bmc::BmcOutcome::Unreachable => ReachabilityAnswer::Unreachable,
        bmc::BmcOutcome::Inconclusive(_) => ReachabilityAnswer::Unknown { truncation },
    };
    VerifyReport {
        answer,
        engine: EngineUsed::Bmc,
        monotone: false,
        derivation: Vec::new(),
        bmc: Some(report),
    }
}

/// Escalation hook for [`crate::safety::perm_reachable`]: called after
/// the bounded search answered `Unknown`, with the already-prepared
/// alphabet. Returns a definitive answer when an unbounded engine
/// closes the instance, and `Unknown { truncation }` otherwise.
pub(crate) fn escalate(
    universe: &Universe,
    root: &Policy,
    alphabet: &[(Command, PrivId)],
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
        let report = bmc::check(
            universe,
            root,
            alphabet,
            entity,
            target,
            bmc::BmcConfig::default(),
        );
        match report.outcome {
            bmc::BmcOutcome::Reachable { witness } => {
                return ReachabilityAnswer::Reachable { witness };
            }
            bmc::BmcOutcome::Unreachable => return ReachabilityAnswer::Unreachable,
            bmc::BmcOutcome::Inconclusive(_) => {}
        }
    }
    ReachabilityAnswer::Unknown { truncation }
}
