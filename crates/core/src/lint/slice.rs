//! Goal-directed cone-of-influence slicing of the command alphabet.
//!
//! [`slice_alphabet`] shrinks a prepared alphabet to the commands that
//! can transitively influence a [`crate::search::SearchGoal`]
//! `entity →φ target`, so the bounded search and the saturation engine
//! explore a (often dramatically) smaller space with the **same
//! answer**.
//!
//! # Soundness
//!
//! The goal is *monotone*: authorization and `→φ` reachability use
//! edges only positively, so if the goal holds in `φ` it holds in every
//! superset of `φ`. The sliced alphabet is a subset of the input
//! alphabet in the original order, which gives one direction outright:
//! any sliced witness is a witness of the full instance. The other
//! direction is witness projection. Take a full witness run `ρ`:
//!
//! 1. **Revokes drop.** Deleting every revoke from `ρ` leaves each
//!    intermediate policy a superset of the original one, so (by
//!    monotonicity) every remaining grant stays authorized and the goal
//!    still holds at the end. A monotone goal never needs a revocation.
//! 2. **Out-of-closure grants drop.** Grants whose edge is outside the
//!    may-add closure `Φ⁺` ([`Potential`]) can never execute at all,
//!    and grants of root edges are no-ops once revokes are gone.
//! 3. **Out-of-cone grants drop.** The cone `R` is the least set of
//!    addable edges containing every *goal-relevant* edge (the add-edge
//!    split lemma evaluated over `Φ⁺`: the edge can lie on some
//!    `entity → target` path in some reachable policy) and closed under
//!    *authorization support*: for every kept grant toggle, every
//!    addable edge that can lie on some user's authorization path for
//!    it (that user's user-assignment, the role-hierarchy links, and the
//!    assignments of the required term they lead to) is in `R`.
//!    Because `Φ⁺`-reachability over-approximates reachability in every
//!    reachable policy, the goal path and every authorization path of
//!    the projected run consist of root edges and `R`-edges only — so
//!    deleting grants of non-`R` edges preserves each remaining
//!    command's authorization and the final goal.
//!
//! The projected run is a run of the sliced instance reaching the goal,
//! and it is never longer than `ρ`, so the equivalence holds under any
//! `max_steps` bound too (and the sliced state space is a subset of the
//! full one, so `max_states` truncation can only shrink).
//!
//! Under **ordered** authorization the cone closure is not valid as
//! computed — an edge can influence a run by changing the `⊑φ`
//! derivation itself, not just by lying on a path — so ordered mode
//! applies steps 1–2 only (both justified purely by monotonicity and
//! the closure over-approximation, which hold in every mode).
//!
//! Step 1 is the search-side face of the grant-closure lemma in
//! [`crate::verify`]: the sliced alphabet never contains a revoke
//! command, since no reachable goal needs one.

use crate::bitset::BitSet;
use crate::command::CommandKind;
use crate::ids::{Entity, PrivId, RoleId};
use crate::policy::Policy;
use crate::safety::Toggle;
use crate::transition::AuthMode;
use crate::universe::{Edge, Universe};

use super::potential::Potential;

/// The result of slicing an alphabet for one goal.
#[derive(Clone, Debug)]
pub struct SliceOutcome {
    /// The sliced alphabet: a subsequence of the input.
    pub alphabet: Vec<Toggle>,
    /// Toggles in the input alphabet.
    pub before: usize,
    /// Toggles kept.
    pub after: usize,
}

impl SliceOutcome {
    /// Did slicing remove anything?
    pub fn shrunk(&self) -> bool {
        self.after < self.before
    }
}

/// Slices the actor-quotiented `alphabet` to the cone of influence of
/// the goal `entity →φ target`. See the module docs for the soundness
/// argument; the answer of a `perm_reachable` search over the sliced
/// alphabet equals the unsliced answer wherever either is definite.
pub fn slice_alphabet(
    universe: &Universe,
    root: &Policy,
    alphabet: &[Toggle],
    entity: Entity,
    target: PrivId,
    auth_mode: AuthMode,
) -> SliceOutcome {
    let potential = Potential::from_alphabet(universe, root, alphabet, auth_mode);
    let keep: Vec<bool> = match auth_mode {
        AuthMode::Explicit => explicit_cone(alphabet, &potential, entity, target),
        AuthMode::Ordered(_) => alphabet
            .iter()
            .map(|t| t.kind == CommandKind::Grant && potential.addable.contains(&t.edge))
            .collect(),
    };
    let sliced: Vec<Toggle> = alphabet
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(&entry, _)| entry)
        .collect();
    SliceOutcome {
        before: alphabet.len(),
        after: sliced.len(),
        alphabet: sliced,
    }
}

/// The explicit-mode cone: seed with goal-relevant addable edges, then
/// close under authorization support per kept grant. Returns the keep
/// mask over `alphabet`.
fn explicit_cone(
    alphabet: &[Toggle],
    potential: &Potential,
    entity: Entity,
    target: PrivId,
) -> Vec<bool> {
    let idx = &potential.index;
    // The add-edge split lemma over Φ⁺: can adding `edge` complete an
    // `entity → target` path in some reachable policy?
    let mut in_cone: std::collections::BTreeSet<Edge> = potential
        .addable
        .iter()
        .copied()
        .filter(|&e| idx.reach_priv_via_added_edge(entity, target, e))
        .collect();
    // The addable grants' required terms, by edge, for worklist
    // propagation.
    let grants: std::collections::BTreeMap<Edge, PrivId> = alphabet
        .iter()
        .filter(|t| t.kind == CommandKind::Grant && potential.addable.contains(&t.edge))
        .map(|t| (t.edge, t.required))
        .collect();
    let users_reach = idx.roles_reached_by_users();
    let mut worklist: Vec<Edge> = in_cone.iter().copied().collect();
    while let Some(edge) = worklist.pop() {
        let Some(&required) = grants.get(&edge) else {
            continue;
        };
        for e in support_edges(potential, &users_reach, required) {
            if in_cone.insert(e) {
                worklist.push(e);
            }
        }
    }
    alphabet
        .iter()
        .map(|t| t.kind == CommandKind::Grant && in_cone.contains(&t.edge))
        .collect()
}

/// Every addable edge that can lie on some user's authorization path
/// for a grant requiring `required`, over-approximated in `Φ⁺`: the
/// assignments of `required` a user can reach (`users_reach` is every
/// role some user reaches in `Φ⁺`), the user-role edges leading toward
/// one, and the hierarchy links between.
fn support_edges(potential: &Potential, users_reach: &BitSet, required: PrivId) -> Vec<Edge> {
    let idx = &potential.index;
    let reached = |r: RoleId| users_reach.contains(r.index());
    // Roles whose assignment of `required` some user reaches in Φ⁺.
    let holders: Vec<RoleId> = potential
        .policy
        .pa()
        .filter(|&(r, p)| p == required && reached(r))
        .map(|(r, _)| r)
        .collect();
    if holders.is_empty() {
        return Vec::new();
    }
    let toward_holder = |x: RoleId| {
        holders
            .iter()
            .any(|&h| idx.reach_entity(Entity::Role(x), Entity::Role(h)))
    };
    // An edge into a role leading toward a holder makes its source reach
    // that holder, so a user-role edge needs no reach check of its own.
    potential
        .addable
        .iter()
        .copied()
        .filter(|&edge| match edge {
            Edge::UserRole(_, x) => toward_holder(x),
            Edge::RoleRole(x, y) => reached(x) && toward_holder(y),
            Edge::RolePriv(r, p) => p == required && reached(r),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::reach::ReachIndex;
    use crate::safety::{perm_reachable, prepare_toggles, ReachabilityAnswer, SafetyConfig};

    /// Two independent wings: jane can put bob into staff (reaching the
    /// goal), and mike can put ann into audit (irrelevant).
    fn two_wings() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .assign("mike", "itops")
            .declare_user("bob")
            .declare_user("ann")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3")
            .permit("audit", "read", "logs");
        let (bob, ann, staff, audit) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_user("ann").unwrap(),
                u.find_role("staff").unwrap(),
                u.find_role("audit").unwrap(),
            )
        };
        let g1 = b.universe_mut().grant_user_role(bob, staff);
        let g2 = b.universe_mut().grant_user_role(ann, audit);
        b = b.assign_priv("hr", g1).assign_priv("itops", g2);
        b.finish()
    }

    #[test]
    fn cone_drops_the_irrelevant_wing() {
        let (mut uni, policy) = two_wings();
        let bob = uni.find_user("bob").unwrap();
        let ann = uni.find_user("ann").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let config = SafetyConfig::default();
        let alphabet = prepare_toggles(&mut uni, &policy, config);
        let outcome = slice_alphabet(
            &uni,
            &policy,
            &alphabet,
            Entity::User(bob),
            target,
            config.auth_mode,
        );
        assert!(outcome.shrunk(), "{} -> {}", outcome.before, outcome.after);
        let staff = uni.find_role("staff").unwrap();
        // The goal edge survives; the audit wing is gone entirely.
        assert!(outcome
            .alphabet
            .iter()
            .any(|t| t.edge == Edge::UserRole(bob, staff)));
        let audit = uni.find_role("audit").unwrap();
        assert!(!outcome
            .alphabet
            .iter()
            .any(|t| t.edge == Edge::UserRole(ann, audit)));
        // No revoke survives slicing, ever.
        assert!(outcome
            .alphabet
            .iter()
            .all(|t| t.kind == CommandKind::Grant));
    }

    #[test]
    fn sliced_and_unsliced_answers_agree_on_the_wings() {
        let (mut uni, policy) = two_wings();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        for slice in [true, false] {
            let answer = perm_reachable(
                &mut uni,
                &policy,
                Entity::User(bob),
                write_t3,
                SafetyConfig {
                    slice,
                    ..SafetyConfig::default()
                },
            );
            let ReachabilityAnswer::Reachable { witness } = answer else {
                panic!("slice={slice}: expected reachable");
            };
            assert_eq!(witness.len(), 1, "slice={slice}");
        }
    }

    #[test]
    fn empty_cone_empties_the_alphabet_and_refutes_fast() {
        let (mut uni, policy) = two_wings();
        let bob = uni.find_user("bob").unwrap();
        let never = uni.perm("launch", "missiles");
        let target = uni.priv_perm(never);
        let config = SafetyConfig::default();
        let alphabet = prepare_toggles(&mut uni, &policy, config);
        let outcome = slice_alphabet(
            &uni,
            &policy,
            &alphabet,
            Entity::User(bob),
            target,
            config.auth_mode,
        );
        assert_eq!(outcome.after, 0, "{:?}", outcome.alphabet);
        // The sliced bounded search refutes immediately, no escalation
        // machinery needed.
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            never,
            SafetyConfig {
                max_states: 1,
                escalate: false,
                ..config
            },
        );
        assert!(
            matches!(answer, ReachabilityAnswer::Unreachable),
            "{answer:?}"
        );
    }

    #[test]
    fn support_includes_delegated_authorization_paths() {
        // joe's goal grant is held by hr2, and bob only reaches hr2 via
        // jane's ¤(bob, hr2): the support closure must keep jane's
        // command even though its edge is not on any goal path.
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .declare_user("joe")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3");
        let (bob, joe, staff, hr2) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_user("joe").unwrap(),
                u.find_role("staff").unwrap(),
                u.role("hr2"),
            )
        };
        let g1 = b.universe_mut().grant_user_role(bob, hr2);
        let g2 = b.universe_mut().grant_user_role(joe, staff);
        b = b.assign_priv("hr", g1);
        let (mut uni, mut policy) = b.finish();
        policy.add_edge(Edge::RolePriv(hr2, g2));
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let config = SafetyConfig::default();
        let alphabet = prepare_toggles(&mut uni, &policy, config);
        let outcome = slice_alphabet(
            &uni,
            &policy,
            &alphabet,
            Entity::User(joe),
            target,
            config.auth_mode,
        );
        assert!(outcome
            .alphabet
            .iter()
            .any(|t| t.edge == Edge::UserRole(bob, hr2)));
        // And the two-step plan still goes through sliced.
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(joe),
            write_t3,
            SafetyConfig::default(),
        );
        let ReachabilityAnswer::Reachable { witness } = answer else {
            panic!("expected reachable");
        };
        assert_eq!(witness.len(), 2);
        let _ = ReachIndex::build(&uni, &policy);
    }
}
