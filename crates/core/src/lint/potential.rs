//! The *potential policy* `Φ⁺`: the may-add closure of the root.
//!
//! Every policy reachable from the root by authorized commands is a
//! subset of `Φ⁺ = lfp(E ↦ root ∪ {e | grant e is a candidate and some
//! assigned term in E authorizes it})`:
//!
//! * the root is trivially contained;
//! * a grant of edge `e` executes only when its actor reaches a term
//!   authorizing `¤(e)` in the *current* policy — inductively a subset
//!   of the closure-so-far, so `¤(e)` (or a `⊑`-compatible term, in
//!   ordered mode) is assigned in the closure and `e` is in `Φ⁺`;
//! * revokes only remove edges.
//!
//! That argument needs `e` to be a candidate. Explicit mode's candidates
//! cover every edge a grant can add; **ordered modes' do not, yet**: a
//! `⊑`-weaker grant edge no interned `¤` names is missed. With jane ∈ hr,
//! hr holding `¤(bob, staff)` and `♦(bob, nurse)`, and staff → nurse,
//! jane may grant `(bob, nurse)` under `Ordered(Extended)`, yet
//! [`Potential::from_policy`] leaves it out ([`Potential::from_alphabet`]
//! over the ordered alphabet has it). So in ordered modes `Φ⁺` contains
//! every reachable policy built from edges the policy's terms name.
//!
//! The closure deliberately ignores *actor reachability* — it asks
//! whether an authorizing term is assigned at all, not whether some
//! user reaches it — which keeps it a pure term-level over-approximation
//! computable without search.
//!
//! ## One authorization question
//!
//! "Does some administrative term assigned in `Φ⁺` authorize `t`?" is
//! answered in one place, `authorized`: in explicit mode `t` must be
//! interned and assigned; in ordered modes some assigned term `w` must
//! be `⊑`-stronger, decided on `t`'s edge, so `t` need not be interned.
//! The fixpoint step asks it with `⊑` over the maximal syntactic policy
//! (root plus every candidate edge; `⊑φ` is monotone in the edge set,
//! so that only over-approximates). Readers of a built closure — lint's
//! `dead-command`, `unauthorizable` and `shadowed-grant`, and the
//! admission interval's `Φ⁻` — ask [`Potential::authority`], with `⊑`
//! over `Φ⁺` itself.
//!
//! A [`crate::reach::ReachIndex`] built over [`Potential::policy`]
//! gives conservative reachability for every reachable policy at once:
//! if `v →φ v′` in some reachable `φ`, then `v → v′` in `Φ⁺`. The
//! closure does not build one itself; its readers (the explicit-mode
//! slicing cone, the lint's separation-of-duty check and an ordered
//! [`Authority`]) build it when they need it, so an explicit-mode
//! [`crate::admission::Interval`] or pair-free lint pass builds none.

use std::collections::BTreeSet;

use crate::command::CommandKind;
use crate::ids::PrivId;
use crate::ordering::PrivilegeOrder;
use crate::policy::Policy;
use crate::safety::Toggle;
use crate::transition::AuthMode;
use crate::universe::{Edge, PrivTerm, Universe};

/// The may-add closure of a root policy.
#[derive(Clone, Debug)]
pub struct Potential {
    /// `Φ⁺` itself: root edges plus every addable edge.
    pub policy: Policy,
    /// Terms assigned somewhere in `Φ⁺` (targets of `RolePriv` edges).
    pub assigned: BTreeSet<PrivId>,
    /// Edges in `Φ⁺` that are not in the root.
    pub addable: BTreeSet<Edge>,
    /// The authorization semantics the closure was built under; its
    /// [`Authority`] answers in the same mode.
    auth_mode: AuthMode,
}

impl Potential {
    /// Builds `Φ⁺` from the policy's own syntax: the candidate edges are
    /// everything nested inside assigned administrative terms (exactly
    /// the edge universe [`crate::simulation::command_alphabet`] uses).
    pub fn from_policy(universe: &Universe, root: &Policy, auth_mode: AuthMode) -> Potential {
        let mut candidates: BTreeSet<Edge> = BTreeSet::new();
        for p in root.priv_vertices() {
            if universe.term(p).is_administrative() {
                candidates.extend(universe.edges_within(p));
            }
        }
        let grants: Vec<(Edge, Option<PrivId>)> = candidates
            .into_iter()
            .map(|e| (e, universe.find_term(PrivTerm::Grant(e))))
            .collect();
        Potential::close(universe, root, &grants, auth_mode)
    }

    /// Builds `Φ⁺` relative to a prepared actor-quotiented alphabet:
    /// the candidates are its grant toggles with their required terms.
    /// Used by [`crate::lint::slice_alphabet`], where the alphabet may
    /// be larger than the policy's own syntax (ordered mode expands it
    /// with `⊑`-weaker edges).
    pub fn from_alphabet(
        universe: &Universe,
        root: &Policy,
        alphabet: &[Toggle],
        auth_mode: AuthMode,
    ) -> Potential {
        let grants: Vec<(Edge, Option<PrivId>)> = alphabet
            .iter()
            .filter(|t| t.kind == CommandKind::Grant)
            .map(|t| (t.edge, Some(t.required)))
            .collect();
        Potential::close(universe, root, &grants, auth_mode)
    }

    /// The least-fixpoint closure over `(edge, required ¤-term)`
    /// candidates. A `None` term means the grant term was never interned
    /// and so cannot be assigned anywhere — the edge is not addable, even
    /// where ordered mode would find a `⊑`-stronger term for it (a known
    /// gap of the syntactic candidate set; see the module docs).
    fn close(
        universe: &Universe,
        root: &Policy,
        grants: &[(Edge, Option<PrivId>)],
        auth_mode: AuthMode,
    ) -> Potential {
        // Maximal syntactic policy, for monotone-sound ⊑ queries.
        let order_policy;
        let order = match auth_mode {
            AuthMode::Explicit => None,
            AuthMode::Ordered(mode) => {
                let mut max = root.clone();
                for &(e, _) in grants {
                    max.add_edge(e);
                }
                order_policy = max;
                Some(PrivilegeOrder::new(universe, &order_policy, mode))
            }
        };
        let mut policy = root.clone();
        let mut assigned: BTreeSet<PrivId> =
            policy.pa().map(|(_, p)| p).collect::<BTreeSet<PrivId>>();
        let mut addable: BTreeSet<Edge> = BTreeSet::new();
        loop {
            let mut grew = false;
            for &(edge, required) in grants {
                if policy.contains_edge(edge) || required.is_none() {
                    continue;
                }
                let term = PrivTerm::Grant(edge);
                if !authorized(universe, order.as_ref(), &assigned, term, required) {
                    continue;
                }
                policy.add_edge(edge);
                addable.insert(edge);
                if let Edge::RolePriv(_, p) = edge {
                    assigned.insert(p);
                }
                grew = true;
            }
            if !grew {
                break;
            }
        }
        Potential {
            policy,
            assigned,
            addable,
            auth_mode,
        }
    }

    /// The authorization query over `Φ⁺`, in the closure's own mode
    /// (ordered modes build their one [`PrivilegeOrder`] here).
    pub(crate) fn authority<'a>(&'a self, universe: &'a Universe) -> Authority<'a> {
        let order = match self.auth_mode {
            AuthMode::Explicit => None,
            AuthMode::Ordered(mode) => Some(PrivilegeOrder::new(universe, &self.policy, mode)),
        };
        Authority {
            universe,
            assigned: &self.assigned,
            order,
        }
    }
}

/// [`Potential::authority`]: Definition 5's authorization, asked of
/// every reachable policy at once.
pub(crate) struct Authority<'a> {
    universe: &'a Universe,
    assigned: &'a BTreeSet<PrivId>,
    order: Option<PrivilegeOrder<'a>>,
}

impl Authority<'_> {
    /// Does some term assigned in `Φ⁺` authorize `term` (a `¤` or `♦`
    /// term, interned or not)? See the module docs.
    pub(crate) fn authorizes(&self, term: PrivTerm) -> bool {
        let id = self.universe.find_term(term);
        authorized(self.universe, self.order.as_ref(), self.assigned, term, id)
    }
}

/// Is `term` (interned as `id`, if at all) assigned, or — when `order`
/// is given — `⊑`-weaker than some assigned administrative term?
fn authorized(
    universe: &Universe,
    order: Option<&PrivilegeOrder<'_>>,
    assigned: &BTreeSet<PrivId>,
    term: PrivTerm,
    id: Option<PrivId>,
) -> bool {
    if id.is_some_and(|t| assigned.contains(&t)) {
        return true;
    }
    let Some(order) = order else {
        return false;
    };
    assigned.iter().any(|&w| {
        universe.term(w).is_administrative()
            && match id {
                Some(t) => order.is_weaker(w, t),
                None => order.is_weaker_term(w, term),
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Entity;
    use crate::policy::PolicyBuilder;
    use crate::reach::ReachIndex;

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
    fn closure_adds_exactly_the_grantable_edge() {
        let (mut uni, policy) = fixture();
        let p = Potential::from_policy(&uni, &policy, AuthMode::Explicit);
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        assert_eq!(
            p.addable.iter().copied().collect::<Vec<_>>(),
            vec![Edge::UserRole(bob, staff)]
        );
        // Conservative reachability: bob reaches (write, t3) in Φ⁺ even
        // though he reaches nothing in the root.
        let write_t3 = uni.perm("write", "t3");
        let target = uni.find_term(PrivTerm::Perm(write_t3)).unwrap();
        assert!(ReachIndex::build(&uni, &p.policy).reach_priv(Entity::User(bob), target));
        assert!(!ReachIndex::build(&uni, &policy).reach_priv(Entity::User(bob), target));
    }

    #[test]
    fn unassigned_grant_terms_are_not_addable() {
        // A rule nested only inside a revoke term is never assigned by
        // the closure: ops holds ♦(aud → ¤(erin, temps)). The inner
        // assignment edge is a candidate syntactically, but nothing
        // assigns ¤ of it, so Φ⁺ = root.
        let mut b = PolicyBuilder::new()
            .assign("olga", "ops")
            .assign("erin", "temps");
        let (erin, temps, aud) = {
            let u = b.universe_mut();
            (
                u.find_user("erin").unwrap(),
                u.find_role("temps").unwrap(),
                u.role("aud"),
            )
        };
        let inner = b.universe_mut().grant_user_role(erin, temps);
        let outer = b.universe_mut().priv_revoke(Edge::RolePriv(aud, inner));
        b = b.assign_priv("ops", outer);
        let (uni, policy) = b.finish();
        let p = Potential::from_policy(&uni, &policy, AuthMode::Explicit);
        assert!(p.addable.is_empty(), "{:?}", p.addable);
        assert!(!p.assigned.contains(&inner));
    }
}
