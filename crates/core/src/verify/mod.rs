//! Unbounded safety verification: the static-analysis layer above the
//! bounded search in [`crate::safety`].
//!
//! The bounded breadth-first search answers the paper's safety question
//! ("can `entity` ever reach permission `p` under this administrative
//! policy?") exactly when the reachable space fits its bounds, and
//! `Unknown` otherwise. This module decides it on every instance with
//! one engine, and keeps a conformance oracle beside it:
//!
//! * [`saturation`] — the least fixpoint of the grant closure (below),
//!   a polynomial computation with a replayable derivation as witness.
//!   It decides every instance, revoke rules included, in every
//!   [`crate::transition::AuthMode`].
//! * [`specs`] — a declarative invariant suite (TLA-style predicates as
//!   Rust combinators) replayed against recorded monitor traces as a
//!   conformance oracle for the executable semantics.
//!
//! [`bmc`], the DPLL-grounded bounded model checker, has no caller in
//! the product: the lemma below leaves it nothing to decide. It is kept
//! for the benchmark's model-checking job and the differential test in
//! `tests/verify_unbounded.rs`.
//!
//! # The grant-closure lemma
//!
//! Let `Γ(φ)` be the least fixpoint, from `φ`, of "add every edge some
//! user is authorized to grant". Authorization and `→φ` use edges only
//! positively (the `⊑φ` rules too), so a command authorized in a policy
//! stays authorized in every superset of it.
//!
//! **Every policy reachable from `φ` is a subset of `Γ(φ)`.** By
//! induction over a run: a grant authorized in `φ′ ⊆ Γ(φ)` is
//! authorized in `Γ(φ)`, so its edge is in `Γ(φ)`; a revoke only
//! shrinks the policy.
//!
//! Conversely, `Γ(φ)` is itself reachable, by its own grants in
//! derivation order. So a goal that stays true when edges are added —
//! `entity →φ p` is one — holds in some reachable policy iff it holds
//! in `Γ(φ)`, with or without revoke rules. That is why
//! [`verify_perm_reachable`] runs no search, and why
//! [`crate::safety::perm_reachable`] hands every inconclusive bounded
//! search to [`saturation::saturate`] (see [`SafetyConfig::escalate`]).

pub mod bmc;
pub mod saturation;
pub mod specs;

use crate::command::CommandQueue;
use crate::ids::{Entity, Perm};
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::safety::{goal_alphabet, ReachabilityAnswer, SafetyConfig};
use crate::universe::Universe;

/// Which engine produced a [`VerifyReport`]'s answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineUsed {
    /// The goal already holds in the root policy.
    Immediate,
    /// Grant-closure saturation (definitive, unbounded).
    Saturation,
}

impl EngineUsed {
    /// A short stable name for output and logs.
    pub fn name(self) -> &'static str {
        match self {
            EngineUsed::Immediate => "immediate",
            EngineUsed::Saturation => "saturation",
        }
    }
}

/// The full result of [`verify_perm_reachable`]: the answer plus which
/// engine decided it and the saturation's derivation.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The reachability answer: never `Unknown`.
    pub answer: ReachabilityAnswer,
    /// The engine that produced `answer`.
    pub engine: EngineUsed,
    /// Saturation's applied grants with their justifying vertices
    /// (empty when the goal already holds in the root).
    pub derivation: Vec<saturation::DerivationStep>,
}

/// Decides the safety question by saturation (see the module docs),
/// reporting which engine answered.
///
/// The answer is definitive on every instance. `config.auth_mode`,
/// `config.weaker_depth` and `config.slice` shape the alphabet; the
/// search bounds and `config.escalate` are ignored, since no search
/// runs, and `config.jobs` is ignored everywhere.
pub fn verify_perm_reachable(
    universe: &mut Universe,
    policy: &Policy,
    entity: Entity,
    perm: Perm,
    config: SafetyConfig,
) -> VerifyReport {
    let target = universe.priv_perm(perm);
    if ReachIndex::build(universe, policy).reach_priv(entity, target) {
        return VerifyReport {
            answer: ReachabilityAnswer::Reachable {
                witness: CommandQueue::new(),
            },
            engine: EngineUsed::Immediate,
            derivation: Vec::new(),
        };
    }
    let alphabet = goal_alphabet(universe, policy, config, entity, target);
    let outcome = saturation::saturate(
        universe,
        policy,
        &alphabet,
        config.auth_mode,
        entity,
        target,
    );
    VerifyReport {
        answer: outcome.answer,
        engine: EngineUsed::Saturation,
        derivation: outcome.derivation,
    }
}
