//! Least-fixpoint saturation for grow-only instances.
//!
//! When no revoke rule exists anywhere in the edge universe (see
//! [`crate::verify::is_monotone`]), the administrative transition
//! system can only add edges, and authorization is *monotone* in the
//! edge set: both `→φ` reachability and the `⊑φ` derivation rules use
//! edges positively, so a command authorized under a policy stays
//! authorized under every superset. Two consequences:
//!
//! * The union of all reachable policies is itself reachable, and it is
//!   the least fixpoint of "apply every authorized absent grant". The
//!   goal holds in *some* reachable policy iff it holds at the fixpoint
//!   — no frontier, no state cap, no depth bound.
//! * The grants applied on the way to the fixpoint, **in application
//!   order**, form a genuine command queue: each was authorized against
//!   a subset of its replay pre-state. Positive answers therefore come
//!   with a replayable witness (not necessarily shortest).
//!
//! The fixpoint runs in at most `|edge universe|` rounds, each costing
//! one [`ReachIndex`] build plus one alphabet sweep — polynomial, where
//! the bounded search is exponential.

use crate::command::{Command, CommandKind, CommandQueue};
use crate::ids::{Entity, PrivId};
use crate::ordering::PrivilegeOrder;
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::safety::ReachabilityAnswer;
use crate::transition::{authorize_with_order, AuthMode};
use crate::universe::Universe;

/// One grant applied during saturation, with its justification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DerivationStep {
    /// The applied grant command.
    pub command: Command,
    /// The privilege vertex that authorized it (equals the required
    /// term under explicit authorization; may be `⊑`-stronger under
    /// ordered authorization).
    pub held: PrivId,
}

/// The saturation result: a definitive answer plus the derivation.
#[derive(Clone, Debug)]
pub struct SaturationOutcome {
    /// `Reachable` (with the derivation's commands as witness) or
    /// `Unreachable` — never `Unknown`.
    pub answer: ReachabilityAnswer,
    /// Fixpoint rounds run (each builds one reachability index).
    pub rounds: usize,
    /// Every grant applied, in order, with its justifying vertex. For a
    /// reachable answer this is exactly the witness; for an unreachable
    /// answer it is the full saturated closure — the complete set of
    /// grants any coalition of actors can ever effect.
    pub derivation: Vec<DerivationStep>,
}

/// Saturates the grow-only instance and decides `entity →φ target`.
///
/// Precondition: the instance is monotone (the caller checked
/// [`crate::verify::is_monotone`]); revoke commands in the alphabet are
/// ignored — on a monotone instance none is ever authorized.
pub fn saturate(
    universe: &Universe,
    root: &Policy,
    alphabet: &[(Command, PrivId)],
    auth_mode: AuthMode,
    entity: Entity,
    target: PrivId,
) -> SaturationOutcome {
    let mut policy = root.clone();
    let mut derivation: Vec<DerivationStep> = Vec::new();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let idx = ReachIndex::build(universe, &policy);
        if idx.reach_priv(entity, target) {
            return SaturationOutcome {
                answer: reachable(&derivation),
                rounds,
                derivation,
            };
        }
        // Collect every absent grant the current policy authorizes. The
        // index (and order) are for the round-start policy; authorization
        // is monotone in edges, so anything collected here stays
        // authorized while the round's earlier grants are applied.
        let additions = authorized_absent_grants(universe, &policy, &idx, alphabet, auth_mode);
        if additions.is_empty() {
            // Fixpoint: no reachable policy extends this one, and the
            // goal fails here, so it fails everywhere. Definitive.
            return SaturationOutcome {
                answer: ReachabilityAnswer::Unreachable,
                rounds,
                derivation,
            };
        }
        for step in additions {
            if !policy.add_edge(step.command.edge) {
                // Same edge collected under a second actor this round.
                continue;
            }
            derivation.push(step);
            // Split-lemma goal probe against the round-start index: when
            // it fires, the goal holds in the policy just produced, so
            // the derivation so far is a complete witness. The positive
            // direction stays sound mid-round because reachability only
            // grows. (A miss here is caught by the fresh index next
            // round — the probe only under-approximates, it never lies.)
            if idx.reach_priv_via_added_edge(entity, target, step.command.edge) {
                return SaturationOutcome {
                    answer: reachable(&derivation),
                    rounds,
                    derivation,
                };
            }
        }
    }
}

fn reachable(derivation: &[DerivationStep]) -> ReachabilityAnswer {
    ReachabilityAnswer::Reachable {
        witness: derivation
            .iter()
            .map(|s| s.command)
            .collect::<CommandQueue>(),
    }
}

fn authorized_absent_grants(
    universe: &Universe,
    policy: &Policy,
    idx: &ReachIndex,
    alphabet: &[(Command, PrivId)],
    auth_mode: AuthMode,
) -> Vec<DerivationStep> {
    let order = match auth_mode {
        AuthMode::Explicit => None,
        AuthMode::Ordered(mode) => Some(PrivilegeOrder::with_index(universe, policy, idx, mode)),
    };
    let mut additions = Vec::new();
    for &(cmd, required) in alphabet {
        if cmd.kind != CommandKind::Grant || policy.contains_edge(cmd.edge) {
            continue;
        }
        let held = match &order {
            Some(order) => match authorize_with_order(order, cmd.actor, required) {
                Some(auth) => auth.held,
                None => continue,
            },
            None => {
                if idx.reach_priv(Entity::User(cmd.actor), required) {
                    required
                } else {
                    continue;
                }
            }
        };
        additions.push(DerivationStep { command: cmd, held });
    }
    additions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::safety::{prepare_alphabet, SafetyConfig};
    use crate::transition::run_pure;
    use crate::universe::Edge;

    /// jane∈hr holds ¤(bob, staff); staff → dbusr2 → (write, t3).
    fn fixture() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        b = b.assign_priv("hr", g);
        b.finish()
    }

    #[test]
    fn decides_reachable_with_replayable_witness() {
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let alphabet = prepare_alphabet(&mut uni, &policy, SafetyConfig::default());
        let outcome = saturate(
            &uni,
            &policy,
            &alphabet,
            AuthMode::Explicit,
            Entity::User(bob),
            target,
        );
        let ReachabilityAnswer::Reachable { witness } = &outcome.answer else {
            panic!("{:?}", outcome.answer);
        };
        let final_policy = run_pure(&mut uni, &policy, witness, AuthMode::Explicit);
        assert!(ReachIndex::build(&uni, &final_policy).reach_priv(Entity::User(bob), target));
        assert_eq!(outcome.derivation.len(), witness.len());
    }

    #[test]
    fn decides_unreachable_at_fixpoint() {
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let never = uni.perm("launch", "missiles");
        let target = uni.priv_perm(never);
        let alphabet = prepare_alphabet(&mut uni, &policy, SafetyConfig::default());
        let outcome = saturate(
            &uni,
            &policy,
            &alphabet,
            AuthMode::Explicit,
            Entity::User(bob),
            target,
        );
        assert!(
            matches!(outcome.answer, ReachabilityAnswer::Unreachable),
            "{:?}",
            outcome.answer
        );
        // The closure applied the one grant HR holds.
        assert_eq!(outcome.derivation.len(), 1);
    }

    #[test]
    fn goal_in_root_is_an_empty_witness() {
        let (mut uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        // Let hr inherit staff: jane reaches (write, t3) in the root.
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let hr = uni.find_role("hr").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let mut policy = policy;
        policy.add_edge(Edge::RoleRole(hr, staff));
        let alphabet = prepare_alphabet(&mut uni, &policy, SafetyConfig::default());
        let outcome = saturate(
            &uni,
            &policy,
            &alphabet,
            AuthMode::Explicit,
            Entity::User(jane),
            target,
        );
        let ReachabilityAnswer::Reachable { witness } = &outcome.answer else {
            panic!("{:?}", outcome.answer);
        };
        assert!(witness.is_empty());
        assert_eq!(outcome.rounds, 1);
    }
}
