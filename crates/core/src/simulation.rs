//! Bounded checking of administrative refinement `φ ⊒† ψ` (Definition 7).
//!
//! Definition 7 quantifies over *all* command queues, so it cannot be
//! decided by enumeration; this module provides the bounded check used to
//! validate Theorem 1 empirically and to refute non-refinements with
//! concrete counterexamples. Theorem-1-style *certificates* (a weakening
//! step justified by `⊑φ`) need no search at all — that is the paper's
//! point.
//!
//! # Direction of the definition
//!
//! The formal text of Definition 7 binds the universally quantified queue
//! to `φ` and the existential one to `ψ`. The surrounding prose (“if ψ
//! allows a certain policy change then either the same policy change is
//! also allowed by φ, or it is a policy change that results in a safer
//! policy”) and the proof of Theorem 1 (which picks the ψ-command first
//! and matches it on φ) use the opposite binding. We implement the
//! prose/proof reading as [`SimulationDirection::Simulation`] (default):
//!
//! > `φ ⊒† ψ` iff for every queue `cq_ψ` there is a queue `cq_φ` with the
//! > same length and the same actor at every position such that
//! > `φ′ ⊒ ψ′`, where `⟨cq_φ, φ⟩ ⇒* ⟨ε, φ′⟩` and `⟨cq_ψ, ψ⟩ ⇒* ⟨ε, ψ′⟩`.
//!
//! The literal reading is available as
//! [`SimulationDirection::LiteralText`] so the discrepancy itself can be
//! tested (see `tests/theorem1.rs`).
//!
//! # The finite command alphabet
//!
//! Queues range over an infinite command space; only finitely many
//! commands can ever be *authorized* though. A command needs its exact
//! privilege term as a reachable vertex (explicit semantics), and
//! exercising privileges only ever adds edges that appear inside already-
//! existing privilege terms. The alphabet therefore contains, for both
//! policies: every existing edge, and every edge occurring (nested at any
//! depth) inside any assigned privilege term — each as both a grant and a
//! revoke, issued by every user that appears in `UA` or inside any such
//! edge. All other commands are no-ops on both sides and are represented
//! by a single distinguished no-op per actor (`allow_noop`).
//!
//! Only this check keeps the alphabet grounded per actor: Definition 7
//! matches the queues position by position with *the same actor*, where
//! reachability only asks whether *some* user may issue a toggle
//! ([`crate::safety::Toggle`]).

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::command::{Command, CommandKind, CommandQueue};
use crate::ids::UserId;
use crate::policy::Policy;
use crate::refinement::refines;
use crate::transition::authorize_explicit;
use crate::universe::{Edge, Universe};

/// Which quantifier binding of Definition 7 to check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SimulationDirection {
    /// ∀ queue on ψ ∃ queue on φ: `φ′ ⊒ ψ′` — the prose/proof reading.
    #[default]
    Simulation,
    /// ∀ queue on φ ∃ queue on ψ: `φ′ ⊒ ψ′` — the literal formal text.
    LiteralText,
}

/// Configuration for the bounded check.
#[derive(Clone, Copy, Debug)]
pub struct SimulationConfig {
    /// Maximum queue length to explore (the bound `L`).
    pub max_queue_len: usize,
    /// Quantifier binding (see module docs).
    pub direction: SimulationDirection,
    /// Whether the responder may answer a step with a no-op command
    /// (modelling an unauthorized command outside the alphabet).
    pub allow_noop: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            max_queue_len: 2,
            direction: SimulationDirection::Simulation,
            allow_noop: true,
        }
    }
}

/// A refutation of `φ ⊒† ψ`: a driver queue no responder queue can match.
#[derive(Clone, Debug)]
pub struct SimulationCounterexample {
    /// The unmatchable queue (run on ψ under [`SimulationDirection::Simulation`],
    /// on φ under [`SimulationDirection::LiteralText`]).
    pub queue: CommandQueue,
    /// The driver's final policy.
    pub driver_final: Policy,
}

/// Result of the bounded check.
#[derive(Clone, Debug)]
pub enum SimulationOutcome {
    /// No counterexample with queues up to the configured length.
    HoldsUpTo(usize),
    /// A concrete refutation.
    Fails(Box<SimulationCounterexample>),
}

impl SimulationOutcome {
    /// `true` iff no counterexample was found.
    pub fn holds(&self) -> bool {
        matches!(self, SimulationOutcome::HoldsUpTo(_))
    }
}

/// Builds the finite command alphabet for the pair of policies.
pub fn command_alphabet(universe: &Universe, policies: &[&Policy]) -> Vec<Command> {
    let (edges, actors) = alphabet_parts(universe, policies);
    let mut out = Vec::with_capacity(edges.len() * actors.len() * 2);
    for &actor in &actors {
        for &edge in &edges {
            out.push(Command::grant(actor, edge));
            out.push(Command::revoke(actor, edge));
        }
    }
    out
}

/// The edges and the actors of [`command_alphabet`]: every edge of the
/// policies or nested in one of their privilege terms, sorted and
/// deduplicated, and every user assigned in a policy or named by one of
/// those edges.
pub(crate) fn alphabet_parts(
    universe: &Universe,
    policies: &[&Policy],
) -> (Vec<Edge>, BTreeSet<UserId>) {
    let mut edges: Vec<Edge> = Vec::new();
    let mut actors: BTreeSet<UserId> = BTreeSet::new();
    for policy in policies {
        edges.extend(policy.edges());
        for p in policy.priv_vertices() {
            edges.extend(universe.edges_within(p));
        }
        actors.extend(policy.users_mentioned());
    }
    edges.sort_unstable();
    edges.dedup();
    for edge in &edges {
        if let Edge::UserRole(u, _) = edge {
            actors.insert(*u);
        }
    }
    (edges, actors)
}

/// Applies one command under explicit (Definition 5) semantics, returning
/// the successor policy. Unauthorized commands return the policy unchanged.
fn apply(universe: &Universe, policy: &Policy, cmd: &Command) -> Policy {
    let mut next = policy.clone();
    if authorize_explicit(universe, policy, cmd).is_some() {
        match cmd.kind {
            CommandKind::Grant => next.add_edge(cmd.edge),
            CommandKind::Revoke => next.remove_edge(cmd.edge),
        };
    }
    next
}

/// Checks `φ ⊒† ψ` up to the configured queue length.
///
/// Exponential in `max_queue_len` by construction — this is the
/// brute-force semantics the paper's syntactic ordering spares you from.
/// Intended for small policies (tests, counterexample extraction).
pub fn check_admin_refinement(
    universe: &Universe,
    phi: &Policy,
    psi: &Policy,
    config: SimulationConfig,
) -> SimulationOutcome {
    let (driver0, responder0, responder_is_phi) = match config.direction {
        SimulationDirection::Simulation => (psi.clone(), phi.clone(), true),
        SimulationDirection::LiteralText => (phi.clone(), psi.clone(), false),
    };
    let alphabet = command_alphabet(universe, &[phi, psi]);
    let mut by_actor: HashMap<UserId, Vec<Command>> = HashMap::new();
    for cmd in &alphabet {
        by_actor.entry(cmd.actor).or_default().push(*cmd);
    }

    // Frontier of driver states: (policy, witness queue), deduplicated by
    // policy *and* actor signature (the responder's options depend only on
    // the signature, the obligation only on the final policy — but two
    // queues with different signatures must be checked separately).
    let mut driver_frontier: Vec<(Policy, CommandQueue)> = vec![(driver0, CommandQueue::new())];
    // Responder state sets per actor signature, grown lazily. Signatures
    // are encoded as the Vec of actors.
    let mut responder_sets: HashMap<Vec<UserId>, Vec<Policy>> = HashMap::new();
    responder_sets.insert(Vec::new(), vec![responder0]);

    // Check the empty queue first: Definition 7 with cq = cq' = ε requires
    // φ ⊒ ψ outright.
    let check_pair = |responder_final: &Policy, driver_final: &Policy| -> bool {
        if responder_is_phi {
            refines(universe, responder_final, driver_final)
        } else {
            refines(universe, driver_final, responder_final)
        }
    };
    {
        let responders = &responder_sets[&Vec::new()];
        let (driver, queue) = &driver_frontier[0];
        if !responders.iter().any(|r| check_pair(r, driver)) {
            return SimulationOutcome::Fails(Box::new(SimulationCounterexample {
                queue: queue.clone(),
                driver_final: driver.clone(),
            }));
        }
    }

    for _len in 1..=config.max_queue_len {
        let mut next_frontier: Vec<(Policy, CommandQueue)> = Vec::new();
        let mut seen: HashSet<(Vec<UserId>, Policy)> = HashSet::new();
        for (driver, queue) in &driver_frontier {
            for cmd in &alphabet {
                let next = apply(universe, driver, cmd);
                let mut next_queue = queue.clone();
                next_queue.push(*cmd);
                let sig = next_queue.actor_signature();
                if !seen.insert((sig, next.clone())) {
                    continue;
                }
                next_frontier.push((next, next_queue));
            }
        }

        // Grow responder sets for every signature present in the frontier.
        for (driver, queue) in &next_frontier {
            let sig = queue.actor_signature();
            if !responder_sets.contains_key(&sig) {
                let (prefix, last) = sig.split_at(sig.len() - 1);
                let prefix_states = responder_sets
                    .get(prefix)
                    .expect("prefix signature explored first")
                    .clone();
                let actor = last[0];
                let mut states: Vec<Policy> = Vec::new();
                let mut state_seen: HashSet<Policy> = HashSet::new();
                let empty = Vec::new();
                let actor_cmds = by_actor.get(&actor).unwrap_or(&empty);
                for state in &prefix_states {
                    if config.allow_noop && state_seen.insert(state.clone()) {
                        states.push(state.clone());
                    }
                    for cmd in actor_cmds {
                        let next = apply(universe, state, cmd);
                        if state_seen.insert(next.clone()) {
                            states.push(next);
                        }
                    }
                }
                responder_sets.insert(sig.clone(), states);
            }
            let responders = &responder_sets[&sig];
            if !responders.iter().any(|r| check_pair(r, driver)) {
                return SimulationOutcome::Fails(Box::new(SimulationCounterexample {
                    queue: queue.clone(),
                    driver_final: driver.clone(),
                }));
            }
        }
        driver_frontier = next_frontier;
    }
    SimulationOutcome::HoldsUpTo(config.max_queue_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{OrderingMode, PrivilegeOrder};
    use crate::policy::PolicyBuilder;
    use crate::refinement::weaken_assignment;

    /// Small administrative policy: jane∈hr may add bob to staff;
    /// staff → dbusr2 → (write, t3).
    fn base() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3")
            .permit("staff", "prnt", "color");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        b = b.assign_priv("hr", g);
        b.finish()
    }

    #[test]
    fn refinement_is_reflexive_up_to_bound() {
        let (uni, policy) = base();
        let out = check_admin_refinement(&uni, &policy, &policy, SimulationConfig::default());
        assert!(out.holds());
    }

    #[test]
    fn weakening_is_a_refinement_theorem1() {
        // ψ replaces hr's ¤(bob, staff) with ¤(bob, dbusr2): φ ⊒† ψ.
        let (mut uni, phi) = base();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let hr = uni.find_role("hr").unwrap();
        let p = uni.grant_user_role(bob, staff);
        let q = uni.grant_user_role(bob, dbusr2);
        let order = PrivilegeOrder::new(&uni, &phi, OrderingMode::Extended);
        assert!(order.is_weaker(p, q), "precondition of Theorem 1");
        let psi = weaken_assignment(&phi, (hr, p), q);
        let out = check_admin_refinement(
            &uni,
            &phi,
            &psi,
            SimulationConfig {
                max_queue_len: 2,
                ..SimulationConfig::default()
            },
        );
        assert!(out.holds(), "Theorem 1 instance refuted: {out:?}");
    }

    #[test]
    fn strengthening_is_refuted_with_counterexample() {
        // ψ replaces hr's ¤(bob, dbusr2) with the *stronger* ¤(bob, staff):
        // ψ can make bob print in color, φ cannot.
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3")
            .permit("staff", "prnt", "color");
        let (bob, staff, dbusr2) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_role("staff").unwrap(),
                u.find_role("dbusr2").unwrap(),
            )
        };
        let weak = b.universe_mut().grant_user_role(bob, dbusr2);
        b = b.assign_priv("hr", weak);
        let (mut uni, phi) = b.finish();
        let strong = uni.grant_user_role(bob, staff);
        let hr = uni.find_role("hr").unwrap();
        let psi = weaken_assignment(&phi, (hr, weak), strong);
        let out = check_admin_refinement(
            &uni,
            &phi,
            &psi,
            SimulationConfig {
                max_queue_len: 1,
                ..SimulationConfig::default()
            },
        );
        match out {
            SimulationOutcome::Fails(ce) => {
                assert_eq!(ce.queue.len(), 1, "one command suffices: {ce:?}");
            }
            SimulationOutcome::HoldsUpTo(_) => panic!("expected a counterexample"),
        }
    }

    #[test]
    fn empty_queue_case_requires_plain_refinement() {
        // ψ grants an extra perm outright: refuted by the empty queue.
        let (mut uni, phi) = base();
        let mut psi = phi.clone();
        let nurse = uni.role("nurse");
        let diana = uni.user("diana");
        let perm = uni.perm("read", "secret");
        let p = uni.priv_perm(perm);
        psi.add_edge(Edge::UserRole(diana, nurse));
        psi.add_edge(Edge::RolePriv(nurse, p));
        let out = check_admin_refinement(&uni, &phi, &psi, SimulationConfig::default());
        match out {
            SimulationOutcome::Fails(ce) => assert!(ce.queue.is_empty()),
            SimulationOutcome::HoldsUpTo(_) => panic!("expected empty-queue refutation"),
        }
    }

    #[test]
    fn alphabet_covers_nested_edges() {
        let (mut uni, mut phi) = base();
        // Nest: hr may grant staff the privilege to add joe to nurse.
        let joe = uni.user("joe");
        let nurse = uni.role("nurse");
        let staff = uni.find_role("staff").unwrap();
        let hr = uni.find_role("hr").unwrap();
        let inner = uni.grant_user_role(joe, nurse);
        let outer = uni.grant_role_priv(staff, inner);
        phi.add_edge(Edge::RolePriv(hr, outer));
        let alphabet = command_alphabet(&uni, &[&phi]);
        assert!(
            alphabet
                .iter()
                .any(|c| c.edge == Edge::UserRole(joe, nurse)),
            "nested edge must be in the alphabet"
        );
        assert!(
            alphabet
                .iter()
                .any(|c| c.edge == Edge::RolePriv(staff, inner)),
            "intermediate edge must be in the alphabet"
        );
    }

    #[test]
    fn literal_direction_differs_from_simulation() {
        // Under the literal reading, ψ may be anything φ can stay above —
        // e.g. dropping all of ψ's administrative privileges never hurts.
        let (uni, phi) = base();
        let mut psi = phi.clone();
        // Remove hr's only privilege from ψ: ψ can never change anything.
        let hr = uni.find_role("hr").unwrap();
        let p = psi.privs_of(hr).next().unwrap();
        psi.remove_edge(Edge::RolePriv(hr, p));
        for direction in [
            SimulationDirection::Simulation,
            SimulationDirection::LiteralText,
        ] {
            let out = check_admin_refinement(
                &uni,
                &phi,
                &psi,
                SimulationConfig {
                    max_queue_len: 1,
                    direction,
                    allow_noop: true,
                },
            );
            assert!(out.holds(), "{direction:?}");
        }
    }

    #[test]
    fn revocation_swap_is_a_refinement() {
        // Replacing a revocation privilege by a different revocation
        // privilege preserves ⊒† (the D5 analysis in DESIGN.md).
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .assign("joe", "nurse")
            .assign("joe", "staff")
            .inherit("staff", "nurse")
            .permit("nurse", "read", "t1")
            .permit("staff", "write", "t3");
        let (joe, nurse, staff) = {
            let u = b.universe_mut();
            (
                u.find_user("joe").unwrap(),
                u.find_role("nurse").unwrap(),
                u.find_role("staff").unwrap(),
            )
        };
        let rev_nurse = b.universe_mut().revoke_user_role(joe, nurse);
        b = b.assign_priv("hr", rev_nurse);
        let (mut uni, phi) = b.finish();
        let rev_staff = uni.revoke_user_role(joe, staff);
        let hr = uni.find_role("hr").unwrap();
        let psi = weaken_assignment(&phi, (hr, rev_nurse), rev_staff);
        let out = check_admin_refinement(&uni, &phi, &psi, SimulationConfig::default());
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn default_auth_mode_is_explicit() {
        // Sanity: the checker runs Definition 5 semantics; AuthMode default
        // agrees.
        use crate::transition::AuthMode;
        assert_eq!(AuthMode::default(), AuthMode::Explicit);
    }
}
