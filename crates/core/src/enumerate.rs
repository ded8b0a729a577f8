//! Enumerating the privileges weaker than a given one (§4.2).
//!
//! The paper observes — “to our surprise” — that the set
//! `{q : p ⊑φ q}` can be **infinite** (Example 6): with
//! `(r2, ¤(r1,r2)) ∈ PA`, every extra `¤(r1, ·)` wrapper produces another
//! weaker privilege, so a naive forward search does not terminate. Remark 2
//! conjectures that for practical purposes one can stop after `n`
//! applications of rule (3), where `n` is the length of the longest chain
//! in `RH`: deeper terms only add administrative indirection (an extra
//! self-granting step) without changing what can ultimately be granted.
//!
//! [`enumerate_weaker`] generates the weaker set level by level, bounded by
//! connective depth and a result cap, and reports the per-depth frontier
//! sizes so the non-termination of the naive search is observable (the
//! frontier never empties on Example-6-shaped policies).
//! [`remark2_depth`] computes the conjectured bound from the hierarchy.

use std::collections::{BTreeSet, HashMap};

use crate::closure::RoleClosure;
use crate::ids::{Entity, PrivId, RoleId};
use crate::ordering::OrderingMode;
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::universe::{Edge, EdgeTarget, PrivTerm, Universe};

/// Bounds for the enumeration.
#[derive(Clone, Copy, Debug)]
pub struct EnumerationConfig {
    /// Maximum connective depth of generated terms.
    pub max_depth: u32,
    /// Hard cap on the number of generated privileges (safety valve; the
    /// set is infinite in general).
    pub max_results: usize,
    /// Ordering semantics to enumerate under.
    pub mode: OrderingMode,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        EnumerationConfig {
            max_depth: 4,
            max_results: 100_000,
            mode: OrderingMode::Extended,
        }
    }
}

/// The (bounded) weaker set of a privilege.
#[derive(Clone, Debug)]
pub struct WeakerSet {
    /// All generated privileges `q` with `p ⊑φ q`, `p` itself included,
    /// deduplicated, in id order.
    pub privileges: Vec<PrivId>,
    /// How many privileges have each connective depth `0..=max_depth`
    /// (index = depth). On Example-6-shaped policies the tail never
    /// reaches zero — the observable form of the infinity result.
    pub frontier_by_depth: Vec<usize>,
    /// `true` iff `max_results` cut the enumeration short.
    ///
    /// Truncated results are sound (every member is weaker) but not
    /// monotone in `max_depth`: the generator explores depth-first, so a
    /// deeper bound can exhaust the generation budget on deep terms
    /// before surfacing shallow ones. Raise `max_results` for a complete
    /// set.
    pub truncated: bool,
}

/// The Remark 2 bound: the length of the longest chain in `RH`, measured
/// in roles.
pub fn remark2_depth(universe: &Universe, policy: &Policy) -> u32 {
    policy.check_universe(universe);
    RoleClosure::build(universe.role_count(), policy.rh().map(|(a, b)| (a.0, b.0)))
        .longest_chain_roles()
}

/// Enumerates `{q : p ⊑φ q}` up to the configured depth.
///
/// Generation follows the rules of Definition 8 directly, so the result is
/// sound and (up to the bounds) complete for the selected
/// [`OrderingMode`]; a test cross-checks it against
/// [`crate::ordering::PrivilegeOrder::is_weaker`] by exhaustive term
/// generation.
pub fn enumerate_weaker(
    universe: &mut Universe,
    policy: &Policy,
    p: PrivId,
    config: EnumerationConfig,
) -> WeakerSet {
    policy.check_universe(universe);
    let reach = ReachIndex::build(universe, policy);
    let vertices: Vec<PrivId> = policy.priv_vertices().into_iter().collect();
    let mut enumerator = Enumerator {
        universe,
        reach: &reach,
        vertices: &vertices,
        config,
        memo: HashMap::new(),
        generated: 0,
        truncated: false,
    };
    let set = enumerator.weaker(p, config.max_depth);
    let truncated = enumerator.truncated;
    let mut frontier_by_depth = vec![0usize; config.max_depth as usize + 1];
    for &q in &set {
        let d = enumerator.universe.depth(q) as usize;
        if d < frontier_by_depth.len() {
            frontier_by_depth[d] += 1;
        }
    }
    WeakerSet {
        privileges: set.into_iter().collect(),
        frontier_by_depth,
        truncated,
    }
}

struct Enumerator<'a> {
    universe: &'a mut Universe,
    reach: &'a ReachIndex,
    vertices: &'a [PrivId],
    config: EnumerationConfig,
    /// Memo keyed on `(privilege, remaining depth)`.
    memo: HashMap<(PrivId, u32), BTreeSet<PrivId>>,
    generated: usize,
    truncated: bool,
}

impl Enumerator<'_> {
    fn weaker(&mut self, p: PrivId, budget: u32) -> BTreeSet<PrivId> {
        if let Some(hit) = self.memo.get(&(p, budget)) {
            return hit.clone();
        }
        let mut out: BTreeSet<PrivId> = BTreeSet::new();
        // Rule (1).
        out.insert(p);
        if self.generated_overflow(out.len()) {
            self.memo.insert((p, budget), out.clone());
            return out;
        }
        let term = self.universe.term(p);
        let (edge, revocation) = match term {
            PrivTerm::Grant(e) => (Some(e), false),
            PrivTerm::Revoke(e)
                if matches!(self.config.mode, OrderingMode::ExtendedWithRevocation) =>
            {
                (Some(e), true)
            }
            _ => (None, false),
        };
        let Some(edge) = edge else {
            self.memo.insert((p, budget), out.clone());
            return out;
        };

        let sources = self.weaker_sources(edge.source());
        match edge.target() {
            EdgeTarget::Entity(b3) => {
                // Rule (2): every entity target reachable from b3.
                let targets = self.reachable_roles(b3);
                for &v1 in &sources {
                    for &b4 in &targets {
                        let q_edge = match v1 {
                            Entity::User(u) => Edge::UserRole(u, b4),
                            Entity::Role(r) => Edge::RoleRole(r, b4),
                        };
                        let q = self.intern(q_edge, revocation);
                        out.insert(q);
                    }
                }
                // Rule (2ext∘3*): wrap the weaker set of any reachable
                // vertex. Sources of ¤(r, p) terms must be roles.
                if !matches!(self.config.mode, OrderingMode::Strict) && budget >= 1 {
                    let witnesses: Vec<PrivId> = self
                        .vertices
                        .iter()
                        .copied()
                        .filter(|&w| self.reach.reach_priv(b3, w))
                        .collect();
                    for w in witnesses {
                        let inner = self.weaker_bounded(w, budget - 1);
                        self.wrap_all(&sources, &inner, revocation, &mut out);
                    }
                }
            }
            EdgeTarget::Priv(p1) => {
                // Rule (3): wrap the weaker set of the nested privilege.
                if budget >= 1 {
                    let inner = self.weaker_bounded(p1, budget - 1);
                    self.wrap_all(&sources, &inner, revocation, &mut out);
                }
            }
        }
        // Enforce the depth bound uniformly (rule-2 results inherit p's
        // depth, which is within bounds by induction).
        out.retain(|&q| self.universe.depth(q) <= self.config.max_depth);
        self.memo.insert((p, budget), out.clone());
        out
    }

    /// Weaker set where every member must fit in `budget` depth.
    fn weaker_bounded(&mut self, p: PrivId, budget: u32) -> BTreeSet<PrivId> {
        let set = self.weaker(p, budget);
        set.into_iter()
            .filter(|&q| self.universe.depth(q) <= budget)
            .collect()
    }

    /// Wraps every `q2` in `inner` as `¤(r, q2)` (or `♦`) for every role
    /// source in `sources`.
    fn wrap_all(
        &mut self,
        sources: &[Entity],
        inner: &BTreeSet<PrivId>,
        revocation: bool,
        out: &mut BTreeSet<PrivId>,
    ) {
        for &v1 in sources {
            let Entity::Role(r) = v1 else {
                continue; // ¤(r, p) requires a role source
            };
            for &q2 in inner {
                if self.generated_overflow(out.len()) {
                    return;
                }
                let q = self.intern(Edge::RolePriv(r, q2), revocation);
                out.insert(q);
            }
        }
    }

    fn intern(&mut self, edge: Edge, revocation: bool) -> PrivId {
        self.generated += 1;
        if revocation {
            self.universe.priv_revoke(edge)
        } else {
            self.universe.priv_grant(edge)
        }
    }

    fn generated_overflow(&mut self, current: usize) -> bool {
        if current >= self.config.max_results
            || self.generated >= self.config.max_results.saturating_mul(16)
        {
            self.truncated = true;
            true
        } else {
            false
        }
    }

    /// Entities `v1` with `v1 →φ v2` — candidate sources for the weaker
    /// term.
    fn weaker_sources(&self, v2: Entity) -> Vec<Entity> {
        let mut out = Vec::new();
        match v2 {
            Entity::User(u) => out.push(Entity::User(u)),
            Entity::Role(_) => {
                for u in self.universe.users() {
                    if self.reach.reach_entity(Entity::User(u), v2) {
                        out.push(Entity::User(u));
                    }
                }
                for r in self.universe.roles() {
                    if self.reach.reach_entity(Entity::Role(r), v2) {
                        out.push(Entity::Role(r));
                    }
                }
            }
        }
        out
    }

    /// Roles `b4` with `b3 →φ b4` — candidate targets for rule (2).
    fn reachable_roles(&self, b3: Entity) -> Vec<RoleId> {
        match b3 {
            Entity::Role(r) => {
                let mut out: Vec<RoleId> = self
                    .reach
                    .roles_reachable(Entity::Role(r))
                    .iter()
                    .map(|i| RoleId(i as u32))
                    .collect();
                if !out.contains(&r) {
                    out.push(r); // reflexivity for roles outside the index
                }
                out
            }
            // A user target never occurs in well-formed edges.
            Entity::User(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::PrivilegeOrder;
    use crate::policy::PolicyBuilder;

    /// Example 6's policy: roles r1, r2 with (r2, ¤(r1,r2)) ∈ PA.
    fn example6() -> (Universe, Policy, PrivId) {
        let mut b = PolicyBuilder::new().declare_role("r1").declare_role("r2");
        let (r1, r2) = {
            let u = b.universe_mut();
            (u.find_role("r1").unwrap(), u.find_role("r2").unwrap())
        };
        let g = b.universe_mut().grant_role_role(r1, r2);
        b = b.assign_priv("r2", g);
        let (uni, policy) = b.finish();
        (uni, policy, g)
    }

    #[test]
    fn example6_chain_is_generated() {
        let (mut uni, policy, g) = example6();
        let r1 = uni.find_role("r1").unwrap();
        let set = enumerate_weaker(
            &mut uni,
            &policy,
            g,
            EnumerationConfig {
                max_depth: 4,
                ..EnumerationConfig::default()
            },
        );
        // ¤(r1, ¤(r1,r2)), ¤(r1, ¤(r1, ¤(r1,r2))) … must all be present.
        let q1 = uni.grant_role_priv(r1, g);
        let q2 = uni.grant_role_priv(r1, q1);
        let q3 = uni.grant_role_priv(r1, q2);
        for q in [g, q1, q2, q3] {
            assert!(set.privileges.contains(&q), "missing {q:?}");
        }
    }

    #[test]
    fn example6_frontier_never_dries_up() {
        // The per-depth frontier stays non-empty at every depth — the
        // observable form of “infinitely many weaker privileges”.
        let (mut uni, policy, g) = example6();
        for max_depth in [2u32, 4, 6, 8] {
            let set = enumerate_weaker(
                &mut uni,
                &policy,
                g,
                EnumerationConfig {
                    max_depth,
                    ..EnumerationConfig::default()
                },
            );
            for d in 1..=max_depth as usize {
                assert!(
                    set.frontier_by_depth[d] > 0,
                    "depth {d} empty at bound {max_depth}"
                );
            }
        }
    }

    #[test]
    fn strict_mode_generates_finite_set_on_example6() {
        let (mut uni, policy, g) = example6();
        let set = enumerate_weaker(
            &mut uni,
            &policy,
            g,
            EnumerationConfig {
                max_depth: 6,
                mode: OrderingMode::Strict,
                ..EnumerationConfig::default()
            },
        );
        // Strict rule (2) only: sources reaching r1 are {r1, r2}; targets
        // reachable from r2 are {r2}. No deeper terms.
        for &q in &set.privileges {
            assert!(uni.depth(q) <= 1, "strict must not nest: {q:?}");
        }
    }

    #[test]
    fn generation_is_sound_wrt_decision_procedure() {
        let (mut uni, policy, g) = example6();
        let set = enumerate_weaker(
            &mut uni,
            &policy,
            g,
            EnumerationConfig {
                max_depth: 3,
                ..EnumerationConfig::default()
            },
        );
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        for &q in &set.privileges {
            assert!(
                order.is_weaker(g, q),
                "generated but not weaker: {}",
                crate::display::priv_to_string(&uni, q, crate::display::Notation::Ascii)
            );
        }
    }

    #[test]
    fn generation_is_complete_up_to_depth_two() {
        // Exhaustively build every well-formed term of depth ≤ 2 over the
        // Example 6 vocabulary and compare membership against is_weaker.
        let (mut uni, policy, g) = example6();
        let r1 = uni.find_role("r1").unwrap();
        let r2 = uni.find_role("r2").unwrap();
        let roles = [r1, r2];
        let mut depth1 = Vec::new();
        for &a in &roles {
            for &b in &roles {
                depth1.push(uni.grant_role_role(a, b));
                depth1.push(uni.revoke_role_role(a, b));
            }
        }
        let mut all = depth1.clone();
        for &r in &roles {
            for &t in &depth1 {
                all.push(uni.grant_role_priv(r, t));
                all.push(uni.revoke_role_priv(r, t));
            }
        }
        let set = enumerate_weaker(
            &mut uni,
            &policy,
            g,
            EnumerationConfig {
                max_depth: 2,
                ..EnumerationConfig::default()
            },
        );
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        for &q in &all {
            let generated = set.privileges.contains(&q);
            let weaker = order.is_weaker(g, q);
            assert_eq!(
                generated,
                weaker,
                "mismatch on {}",
                crate::display::priv_to_string(&uni, q, crate::display::Notation::Ascii)
            );
        }
    }

    #[test]
    fn truncation_fires_on_low_caps() {
        let (mut uni, policy, g) = example6();
        let set = enumerate_weaker(
            &mut uni,
            &policy,
            g,
            EnumerationConfig {
                max_depth: 10,
                max_results: 5,
                mode: OrderingMode::Extended,
            },
        );
        assert!(set.truncated);
        assert!(set.privileges.len() <= 20, "cap respected (with slack)");
    }

    #[test]
    fn remark2_depth_is_longest_chain() {
        let (uni, policy) = PolicyBuilder::new()
            .inherit("a", "b")
            .inherit("b", "c")
            .inherit("c", "d")
            .finish();
        assert_eq!(remark2_depth(&uni, &policy), 4);
        let (uni2, policy2) = PolicyBuilder::new().declare_role("only").finish();
        assert_eq!(remark2_depth(&uni2, &policy2), 1);
    }

    #[test]
    fn perm_privileges_have_singleton_weaker_sets() {
        let (mut uni, policy, _) = example6();
        let perm = uni.perm("read", "t1");
        let q = uni.priv_perm(perm);
        let set = enumerate_weaker(&mut uni, &policy, q, EnumerationConfig::default());
        assert_eq!(set.privileges, vec![q]);
    }

    #[test]
    fn revocation_enumeration_under_extension() {
        let (uni_police, policy) = PolicyBuilder::new()
            .assign("joe", "staff")
            .inherit("staff", "nurse")
            .finish();
        let mut uni = uni_police;
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let p = uni.revoke_user_role(joe, staff);
        let set = enumerate_weaker(
            &mut uni,
            &policy,
            p,
            EnumerationConfig {
                mode: OrderingMode::ExtendedWithRevocation,
                ..EnumerationConfig::default()
            },
        );
        let expected = uni.revoke_user_role(joe, nurse);
        assert!(set.privileges.contains(&expected));
        // Paper modes: singleton.
        let set_paper = enumerate_weaker(&mut uni, &policy, p, EnumerationConfig::default());
        assert_eq!(set_paper.privileges, vec![p]);
    }
}
