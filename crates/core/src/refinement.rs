//! Non-administrative refinement `φ ⊒ ψ` (Definition 6).
//!
//! `ψ` refines `φ` when `ψ` grants every user and role at most the user
//! privileges `φ` grants: for all `v ∈ U ∪ R` and user privileges `p ∈ P`,
//! `v →ψ p` implies `v →φ p`. Only *user* privileges count — moving
//! administrative privileges around does not by itself change how safe the
//! current policy is; it changes which policies are reachable, which is
//! Definition 7's business (see [`crate::simulation`]).

use crate::bitset::BitSet;
use crate::ids::{Entity, Perm};
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::universe::{Edge, Universe};

/// A witness that refinement fails: `entity` can reach `perm` in `ψ` but
/// not in `φ`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RefinementViolation {
    /// The entity with excess authority.
    pub entity: Entity,
    /// The user privilege it should not reach.
    pub perm: Perm,
}

/// Decides `φ ⊒ ψ` (“`ψ` is a non-administrative refinement of `φ`”).
pub fn refines(universe: &Universe, phi: &Policy, psi: &Policy) -> bool {
    violations_impl(universe, phi, psi, true).is_empty()
}

/// All `(entity, perm)` pairs violating `φ ⊒ ψ` (empty iff it holds).
pub fn refinement_violations(
    universe: &Universe,
    phi: &Policy,
    psi: &Policy,
) -> Vec<RefinementViolation> {
    violations_impl(universe, phi, psi, false)
}

fn violations_impl(
    universe: &Universe,
    phi: &Policy,
    psi: &Policy,
    stop_at_first: bool,
) -> Vec<RefinementViolation> {
    phi.check_universe(universe);
    psi.check_universe(universe);
    if psi.is_subset_of(phi) {
        return Vec::new(); // every ψ-path is a φ-path
    }
    let phi_idx = ReachIndex::build(universe, phi);
    let psi_idx = ReachIndex::build(universe, psi);
    violations_between(universe, phi, &phi_idx, psi, &psi_idx, stop_at_first)
}

/// The `φ ⊒ ψ` check against caller-supplied indexes, so a caller
/// comparing both directions (like [`equivalent`]), or many candidates
/// against one live policy (like a refinement service answering from a
/// snapshot with a prebuilt index), builds each [`ReachIndex`] exactly
/// once. With `stop_at_first` the scan returns at the first violation
/// (the boolean [`refines`] question); otherwise it is exhaustive.
///
/// A violation `v →ψ p ∧ ¬ v →φ p` needs a ψ-path through an edge of
/// `ψ ∖ φ`, so only the entities that ψ-reach the source of such an
/// edge are scanned (with disjoint policies, every entity).
pub fn violations_between(
    universe: &Universe,
    phi: &Policy,
    phi_idx: &ReachIndex,
    psi: &Policy,
    psi_idx: &ReachIndex,
    stop_at_first: bool,
) -> Vec<RefinementViolation> {
    let mut out = Vec::new();
    let mut users = BitSet::new(universe.user_count());
    let mut roles = BitSet::new(universe.role_count());
    for edge in psi.edges_not_in(phi) {
        match edge.source() {
            Entity::User(u) => users.insert(u.index()),
            Entity::Role(r) => roles.insert(r.index()),
        };
    }
    let candidate = |v: Entity| match v {
        Entity::User(u) if users.contains(u.index()) => true,
        _ => {
            let mut reached = psi_idx.roles_reachable(v);
            reached.intersect_with(&roles);
            !reached.is_empty()
        }
    };
    let entities = universe
        .users()
        .map(Entity::User)
        .chain(universe.roles().map(Entity::Role));
    for v in entities.filter(|&v| candidate(v)) {
        let psi_perms = psi_idx.perms_reachable(universe, psi, v);
        if psi_perms.is_empty() {
            continue;
        }
        let phi_perms = phi_idx.perms_reachable(universe, phi, v);
        // Both sides are sorted and deduplicated; walk them in lockstep.
        let mut i = 0;
        for perm in psi_perms {
            while i < phi_perms.len() && phi_perms[i] < perm {
                i += 1;
            }
            if i >= phi_perms.len() || phi_perms[i] != perm {
                out.push(RefinementViolation { entity: v, perm });
                if stop_at_first {
                    return out;
                }
            }
        }
    }
    out
}

/// `true` iff the two policies authorize exactly the same user privileges
/// (`φ ⊒ ψ` and `ψ ⊒ φ`).
///
/// Each policy's [`ReachIndex`] is built once and shared across both
/// directions (calling [`refines`] twice would rebuild both).
pub fn equivalent(universe: &Universe, a: &Policy, b: &Policy) -> bool {
    a.check_universe(universe);
    b.check_universe(universe);
    let a_idx = ReachIndex::build(universe, a);
    let b_idx = ReachIndex::build(universe, b);
    violations_between(universe, a, &a_idx, b, &b_idx, true).is_empty()
        && violations_between(universe, b, &b_idx, a, &a_idx, true).is_empty()
}

/// Theorem 1's construction: `ψ = (φ \ (r, p)) ∪ (r, q)` — replace one
/// privilege assignment by a (presumably weaker) one.
///
/// The theorem states that when `p ⊑φ q`, the result is an administrative
/// refinement of `φ`.
pub fn weaken_assignment(
    phi: &Policy,
    assignment: (crate::ids::RoleId, crate::ids::PrivId),
    weaker: crate::ids::PrivId,
) -> Policy {
    let (role, p) = assignment;
    let mut psi = phi.clone();
    psi.remove_edge(Edge::RolePriv(role, p));
    psi.add_edge(Edge::RolePriv(role, weaker));
    psi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;

    /// Figure 1 of the paper.
    fn figure1() -> (Universe, Policy) {
        PolicyBuilder::new()
            .assign("diana", "nurse")
            .assign("diana", "staff")
            .inherit("staff", "nurse")
            .inherit("nurse", "prntusr")
            .inherit("nurse", "dbusr1")
            .inherit("staff", "dbusr2")
            .inherit("dbusr2", "dbusr1")
            .permit("prntusr", "prnt", "black")
            .permit("staff", "prnt", "color")
            .permit("dbusr1", "read", "t1")
            .permit("dbusr1", "read", "t2")
            .permit("dbusr2", "write", "t3")
            .finish()
    }

    #[test]
    fn refinement_is_reflexive() {
        let (uni, policy) = figure1();
        assert!(refines(&uni, &policy, &policy));
        assert!(equivalent(&uni, &policy, &policy));
    }

    #[test]
    fn removing_any_edge_refines_example3() {
        // “Clearly, by removing any of the edges in the policy one obtains
        // a refinement of the policy.”
        let (uni, policy) = figure1();
        for edge in policy.edges().collect::<Vec<_>>() {
            let mut psi = policy.clone();
            psi.remove_edge(edge);
            assert!(
                refines(&uni, &policy, &psi),
                "removing {edge:?} must refine"
            );
        }
    }

    #[test]
    fn rearranging_diana_to_nurse_refines_example3() {
        // Replace diana→staff by diana→nurse: still a refinement.
        let (uni, policy) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let mut psi = policy.clone();
        psi.remove_edge(Edge::UserRole(diana, staff));
        psi.add_edge(Edge::UserRole(diana, nurse));
        assert!(refines(&uni, &policy, &psi));
        // And it is strict: diana lost (write, t3).
        assert!(!refines(&uni, &psi, &policy));
    }

    #[test]
    fn rearranging_nurse_to_dbusr2_does_not_refine_example3() {
        // “if we replace the edge between nurse and dbusr1 with an edge
        // between nurse and dbusr2, we do not obtain a refinement, as
        // nurses get more privileges.”
        let (uni, policy) = figure1();
        let nurse = uni.find_role("nurse").unwrap();
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let mut psi = policy.clone();
        psi.remove_edge(Edge::RoleRole(nurse, dbusr1));
        psi.add_edge(Edge::RoleRole(nurse, dbusr2));
        assert!(!refines(&uni, &policy, &psi));
        let violations = refinement_violations(&uni, &policy, &psi);
        assert!(!violations.is_empty());
        // The nurse role itself must be among the violators, with write t3.
        let mut uni2 = uni.clone();
        let w3 = uni2.perm("write", "t3");
        assert!(violations
            .iter()
            .any(|v| v.entity == Entity::Role(nurse) && v.perm == w3));
    }

    #[test]
    fn adding_edges_breaks_refinement_where_it_grants_perms() {
        let (mut uni, policy) = figure1();
        let bob = uni.user("bob");
        let staff = uni.find_role("staff").unwrap();
        let mut psi = policy.clone();
        psi.add_edge(Edge::UserRole(bob, staff));
        // psi grants bob perms that phi does not.
        assert!(!refines(&uni, &policy, &psi));
        // but phi is refined by... wait, psi has more perms, so phi ⊒ psi
        // fails while psi ⊒ phi holds.
        assert!(refines(&uni, &psi, &policy));
    }

    #[test]
    fn admin_privileges_do_not_affect_nonadmin_refinement() {
        // Adding an administrative privilege leaves Definition 6 untouched.
        let (mut uni, policy) = figure1();
        let bob = uni.user("bob");
        let staff = uni.find_role("staff").unwrap();
        let hr = uni.role("hr");
        let g = uni.grant_user_role(bob, staff);
        let mut psi = policy.clone();
        psi.add_edge(Edge::RolePriv(hr, g));
        assert!(refines(&uni, &policy, &psi));
        assert!(refines(&uni, &psi, &policy));
        assert!(equivalent(&uni, &policy, &psi));
    }

    #[test]
    fn weaken_assignment_swaps_one_edge() {
        let (mut uni, mut policy) = figure1();
        let bob = uni.user("bob");
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let hr = uni.role("hr");
        let p = uni.grant_user_role(bob, staff);
        let q = uni.grant_user_role(bob, dbusr2);
        policy.add_edge(Edge::RolePriv(hr, p));
        let psi = weaken_assignment(&policy, (hr, p), q);
        assert!(!psi.contains_edge(Edge::RolePriv(hr, p)));
        assert!(psi.contains_edge(Edge::RolePriv(hr, q)));
        assert_eq!(psi.edge_count(), policy.edge_count());
    }

    #[test]
    fn violation_reporting_is_complete() {
        let (uni, policy) = figure1();
        let empty = Policy::new(&uni);
        // Everything psi grants is a violation against the empty policy.
        let violations = refinement_violations(&uni, &empty, &policy);
        let idx = ReachIndex::build(&uni, &policy);
        let total: usize = (uni.users().map(Entity::User))
            .chain(uni.roles().map(Entity::Role))
            .map(|v| idx.perms_reachable(&uni, &policy, v).len())
            .sum();
        assert_eq!(violations.len(), total);
        assert!(refines(&uni, &policy, &empty));
    }
}
