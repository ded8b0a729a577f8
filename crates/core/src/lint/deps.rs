//! Rule sites and what each may add.
//!
//! A *rule site* is one occurrence of an administrative term in the
//! policy: either a `(role, term)` privilege assignment, or a term
//! nested inside one (e.g. the `¤(u, r)` inside `¤(aud → ¤(u, r))`).
//! Each site denotes a family of commands (one per actor) with a fixed
//! effect edge, so edge-level diagnostics attach naturally to sites.
//!
//! A site's *grant chain* ([`RuleSite::may_add`]) is the edges executing
//! its rule, and the rules it assigns, may add: `¤(e)` adds `e`; when
//! `e` assigns a grant term, add what that term adds; a `♦` adds
//! nothing. It is purely syntactic over the finite edge universe — no
//! search.

use crate::ids::{PrivId, RoleId};
use crate::policy::Policy;
use crate::universe::{Edge, PrivTerm, Universe};

/// One occurrence of an administrative term in the policy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct RuleSite {
    /// The role whose assignment the occurrence sits under.
    pub role: RoleId,
    /// The top-level assigned term (equals `term` at depth 0).
    pub assigned: PrivId,
    /// The administrative term this site denotes.
    pub term: PrivId,
    /// Nesting depth: 0 for the assignment itself.
    pub depth: u32,
}

impl RuleSite {
    /// The site's grant chain: the edges its rule may add, directly or
    /// through the grant terms it assigns, outermost first.
    pub(crate) fn may_add(self, universe: &Universe) -> impl Iterator<Item = Edge> + '_ {
        let nested = move |&t: &PrivId| match universe.term(t) {
            PrivTerm::Grant(Edge::RolePriv(_, inner)) => Some(inner),
            _ => None,
        };
        std::iter::successors(Some(self.term), nested).map_while(move |t| match universe.term(t) {
            PrivTerm::Grant(edge) => Some(edge),
            _ => None,
        })
    }
}

/// Enumerates every rule site of `root`, outermost first, in the
/// deterministic `(role, assigned)` iteration order of the policy.
pub fn rule_sites(universe: &Universe, root: &Policy) -> Vec<RuleSite> {
    let mut sites = Vec::new();
    for (role, assigned) in root.pa() {
        if !universe.term(assigned).is_administrative() {
            continue;
        }
        let mut stack = vec![(assigned, 0u32)];
        while let Some((term, depth)) = stack.pop() {
            sites.push(RuleSite {
                role,
                assigned,
                term,
                depth,
            });
            if let Some(Edge::RolePriv(_, inner)) = universe.term(term).edge() {
                if universe.term(inner).is_administrative() {
                    stack.push((inner, depth + 1));
                }
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;

    #[test]
    fn nested_grant_summaries_are_transitive() {
        // ops holds ¤(aud → ¤(erin, temps)) and ¤(aud → ♦(erin, temps)):
        // the first may add the assignment edge and, transitively,
        // (erin, temps); the second only its assignment edge, since a
        // nested ♦ adds nothing.
        let mut b = PolicyBuilder::new()
            .assign("olga", "ops")
            .declare_user("erin");
        let (erin, temps, aud) = {
            let u = b.universe_mut();
            (u.find_user("erin").unwrap(), u.role("temps"), u.role("aud"))
        };
        let inner = b.universe_mut().grant_user_role(erin, temps);
        let outer = b.universe_mut().priv_grant(Edge::RolePriv(aud, inner));
        let strip = b.universe_mut().revoke_user_role(erin, temps);
        let outer_strip = b.universe_mut().priv_grant(Edge::RolePriv(aud, strip));
        b = b.assign_priv("ops", outer).assign_priv("ops", outer_strip);
        let (uni, policy) = b.finish();

        let sites = rule_sites(&uni, &policy);
        assert_eq!(sites.len(), 4, "{sites:?}");
        let site = |term: PrivId| *sites.iter().find(|s| s.term == term).unwrap();
        assert_eq!(site(outer).depth, 0);
        assert_eq!(site(inner).depth, 1);
        assert_eq!(site(strip).depth, 1);

        let adds = |term: PrivId| site(term).may_add(&uni).collect::<Vec<Edge>>();
        assert_eq!(
            adds(outer),
            vec![Edge::RolePriv(aud, inner), Edge::UserRole(erin, temps)]
        );
        assert_eq!(adds(inner), vec![Edge::UserRole(erin, temps)]);
        assert_eq!(adds(outer_strip), vec![Edge::RolePriv(aud, strip)]);
        assert!(adds(strip).is_empty());
    }
}
