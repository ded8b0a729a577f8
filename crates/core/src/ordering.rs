//! The privilege ordering `p ⊑φ q` (Definition 8) and its decision
//! procedure (Lemma 1).
//!
//! `p ⊑φ q` (the paper writes `p Ãφ q`) reads “`q` is weaker than `p`
//! under policy `φ`”: a user holding `p` may safely be treated as implicitly
//! holding `q`. Definition 8 gives the rules
//!
//! ```text
//! (1)  p ⊑ p
//! (2)  ¤(v2,v3) ⊑ ¤(v1,v4)   if v1 →φ v2 and v3 →φ v4
//! (3)  ¤(v2,p1) ⊑ ¤(v1,p2)   if v1 →φ v2 and p1 ⊑ p2
//! ```
//!
//! # Strict vs extended semantics
//!
//! Definition 8 declares `v1..v4 ∈ U ∪ R`. Under that *strict* reading the
//! relation generated by (1)–(3) is already reflexive and transitive:
//! rule-(2) derivations compose because reachability composes, rule-(3)
//! derivations compose by induction on the nested privilege, and the two
//! rules apply to disjoint syntactic shapes. However, Example 6 of the
//! paper derives `¤(r1,r2) ⊑ ¤(r1,¤(r1,r2))` “by applying rule (2)”, which
//! requires instantiating `v4` with the privilege *vertex* `¤(r1,r2)`
//! (reachable because `(r2,¤(r1,r2)) ∈ PA`). We call that variant of rule
//! (2) — with a privilege vertex as target — **rule (2ext)**, and
//! [`OrderingMode::Extended`] (the default) implements the
//! reflexive-transitive closure of (1), (2), (2ext), (3).
//!
//! # Deciding the extended closure (Lemma 1, constructively)
//!
//! With (2ext) in play, plain rule-matching is no longer transitively
//! closed: from `(r2,¤(r1,r2)) ∈ PA`,
//!
//! ```text
//! ¤(r1,r2) ⊑ ¤(r1,¤(r1,r2)) ⊑ ¤(r1,¤(r1,¤(r1,r2)))
//! ```
//!
//! but the composite is not an instance of any single rule (the middle term
//! is not a vertex). The fix is one derived clause, `(2ext∘3*)`:
//!
//! ```text
//! ¤(v2,b3) ⊑ ¤(v1,q2)   if v1 →φ v2 and ∃ privilege vertex w of φ:
//!                           b3 →φ w and w ⊑ q2
//! ```
//!
//! A routine induction on the structure of `q` shows the relation decided
//! by rules (1), (2), (3) and (2ext∘3*) is transitively closed:
//!
//! * (2);(2) composes into (2) because `→φ` composes;
//! * (3);(3) composes into (3) by the induction hypothesis on the strictly
//!   smaller nested privilege;
//! * (2);(2ext∘3*) composes into (2ext∘3*): the new source still reaches
//!   via `→φ`, and the witness vertex `w` is reachable through the longer
//!   path;
//! * (2ext∘3*);(3) composes into (2ext∘3*): keep the same witness `w` and
//!   apply the induction hypothesis to `w ⊑ q2 ⊑ q3`;
//! * no rule produces an entity-target grant from a privilege-target grant,
//!   so no other shapes chain.
//!
//! Every recursive call descends into a strict subterm of `q` (the witness
//! `w` ranges over the finite vertex set and is paired with a smaller
//! target), so the procedure terminates — this is Lemma 1, sharpened to the
//! extended semantics. The decider memoises only at its branch points
//! (the query itself and each witness `w` the (2ext∘3*) loop tries), so
//! at most `|vertices(φ)| · |q|` pairs are memoised, and each walks at
//! most `|q|` rule-(3) levels and one vertex loop before the next memo:
//! `O(|vertices(φ)| · |q| · (|q| + |vertices(φ)| · reach))`.
//!
//! # Revocation privileges
//!
//! The paper orders only grant privileges (“we have not identified (yet) a
//! separate ordering for revocation privileges”, §6); in
//! [`OrderingMode::Strict`] and [`OrderingMode::Extended`] a `♦` term is
//! comparable only to itself. [`OrderingMode::ExtendedWithRevocation`]
//! additionally applies the rule-(2)/(3) shapes to `♦` terms. This is a
//! *sound extension* with respect to Definition 7: executing a revocation
//! only ever removes edges, and removing edges only ever shrinks user-
//! privilege reachability, so any policy reachable by exercising the
//! substituted revocation is dominated by the matching policy in which the
//! original (or no) command ran. The bounded refinement checker exercises
//! this claim in tests; it is an extension, not part of the paper.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::ids::{Entity, PrivId};
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::universe::{Edge, EdgeTarget, PrivTerm, Universe};

/// Which reading of Definition 8 to decide. See the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OrderingMode {
    /// Rules (1)–(3) with `v1..v4 ∈ U ∪ R` literally.
    Strict,
    /// Strict plus rule (2ext) and transitive closure — validates Example 6.
    #[default]
    Extended,
    /// Extended plus the dual rules for `♦` terms (sound extension; not in
    /// the paper).
    ExtendedWithRevocation,
}

impl OrderingMode {
    fn allows_ext(self) -> bool {
        !matches!(self, OrderingMode::Strict)
    }

    fn allows_revocation(self) -> bool {
        matches!(self, OrderingMode::ExtendedWithRevocation)
    }
}

/// A derivation witnessing `p ⊑φ q`, for explanation and auditing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Derivation {
    /// Rule (1): the two terms are identical.
    Reflexive(PrivId),
    /// Rule (2): entity-target grants related through reachability.
    Rule2 {
        /// The stronger privilege.
        p: PrivId,
        /// The weaker privilege.
        q: PrivId,
    },
    /// Rule (3): privilege-target grants; `premise` relates the nested
    /// privileges.
    Rule3 {
        /// The stronger privilege.
        p: PrivId,
        /// The weaker privilege.
        q: PrivId,
        /// Derivation for the nested privileges.
        premise: Box<Derivation>,
    },
    /// Rule (2ext∘3*): entity-target grant weakened to a privilege-target
    /// grant via the policy vertex `via`.
    Rule2Ext {
        /// The stronger privilege.
        p: PrivId,
        /// The weaker privilege.
        q: PrivId,
        /// The witness vertex of the policy.
        via: PrivId,
        /// Derivation relating `via` to `q`'s nested privilege.
        premise: Box<Derivation>,
    },
    /// Dual of rules (2)/(3) for revocation terms
    /// ([`OrderingMode::ExtendedWithRevocation`] only).
    RevocationDual {
        /// The stronger privilege.
        p: PrivId,
        /// The weaker privilege.
        q: PrivId,
        /// Derivation for the underlying grant-shaped comparison.
        premise: Option<Box<Derivation>>,
    },
}

impl Derivation {
    /// Number of rule applications in the derivation.
    pub fn size(&self) -> usize {
        match self {
            Derivation::Reflexive(_) | Derivation::Rule2 { .. } => 1,
            Derivation::Rule3 { premise, .. } | Derivation::Rule2Ext { premise, .. } => {
                1 + premise.size()
            }
            Derivation::RevocationDual { premise, .. } => {
                1 + premise.as_ref().map_or(0, |d| d.size())
            }
        }
    }

    /// Human-readable rendering of the rule chain.
    pub fn render(&self, universe: &Universe) -> String {
        use crate::display::{priv_to_string, Notation};
        match self {
            Derivation::Reflexive(p) => {
                format!("refl[{}]", priv_to_string(universe, *p, Notation::Ascii))
            }
            Derivation::Rule2 { p, q } => format!(
                "rule2[{} <= {}]",
                priv_to_string(universe, *p, Notation::Ascii),
                priv_to_string(universe, *q, Notation::Ascii)
            ),
            Derivation::Rule3 { p, q, premise } => format!(
                "rule3[{} <= {}; {}]",
                priv_to_string(universe, *p, Notation::Ascii),
                priv_to_string(universe, *q, Notation::Ascii),
                premise.render(universe)
            ),
            Derivation::Rule2Ext { p, q, via, premise } => format!(
                "rule2ext[{} <= {} via {}; {}]",
                priv_to_string(universe, *p, Notation::Ascii),
                priv_to_string(universe, *q, Notation::Ascii),
                priv_to_string(universe, *via, Notation::Ascii),
                premise.render(universe)
            ),
            Derivation::RevocationDual { p, q, premise } => {
                let tail = premise
                    .as_ref()
                    .map(|d| format!("; {}", d.render(universe)))
                    .unwrap_or_default();
                format!(
                    "rev-dual[{} <= {}{}]",
                    priv_to_string(universe, *p, Notation::Ascii),
                    priv_to_string(universe, *q, Notation::Ascii),
                    tail
                )
            }
        }
    }
}

enum ReachRef<'a> {
    Owned(Box<ReachIndex>),
    Borrowed(&'a ReachIndex),
}

impl ReachRef<'_> {
    fn get(&self) -> &ReachIndex {
        match self {
            ReachRef::Owned(idx) => idx,
            ReachRef::Borrowed(idx) => idx,
        }
    }
}

/// Decision procedure for `⊑φ` against one policy snapshot.
///
/// Decisions are memoised on `(p, q)` id pairs at the procedure's branch
/// points only: each top-level [`is_weaker`](Self::is_weaker) query and
/// each witness tried by rule (2ext∘3*)'s vertex loop. A rule-(3) chain
/// has one way forward per level, so it recurses without a memo entry
/// per level. Repeated queries against the same snapshot are cheap.
/// Rebuild the order after mutating the policy.
pub struct PrivilegeOrder<'a> {
    universe: &'a Universe,
    reach: ReachRef<'a>,
    mode: OrderingMode,
    memo: RefCell<HashMap<(PrivId, PrivId), bool>>,
}

impl<'a> PrivilegeOrder<'a> {
    /// Builds the order, computing a fresh reachability index.
    pub fn new(universe: &'a Universe, policy: &'a Policy, mode: OrderingMode) -> Self {
        let reach = ReachRef::Owned(Box::new(ReachIndex::build(universe, policy)));
        Self::with_reach(universe, policy, reach, mode)
    }

    /// Builds the order over an existing reachability index (must belong to
    /// the same policy snapshot).
    pub fn with_index(
        universe: &'a Universe,
        policy: &'a Policy,
        index: &'a ReachIndex,
        mode: OrderingMode,
    ) -> Self {
        Self::with_reach(universe, policy, ReachRef::Borrowed(index), mode)
    }

    fn with_reach(
        universe: &'a Universe,
        policy: &'a Policy,
        reach: ReachRef<'a>,
        mode: OrderingMode,
    ) -> Self {
        policy.check_universe(universe);
        PrivilegeOrder {
            universe,
            reach,
            mode,
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// The mode this order decides.
    pub fn mode(&self) -> OrderingMode {
        self.mode
    }

    /// Decides `p ⊑φ q` — “`q` is weaker than (or equal to) `p`”.
    pub fn is_weaker(&self, p: PrivId, q: PrivId) -> bool {
        if p == q {
            return true;
        }
        if let Some(&hit) = self.memo.borrow().get(&(p, q)) {
            return hit;
        }
        let result = self.decide(self.universe.term(p), self.universe.term(q));
        self.memo.borrow_mut().insert((p, q), result);
        result
    }

    fn reach_entity(&self, from: Entity, to: Entity) -> bool {
        self.reach.get().reach_entity(from, to)
    }

    /// Decides `p ⊑φ q` for a term `q` given by value: every rule reads
    /// only `q`'s edge, so `q` need not be interned. Not memoised at the
    /// top (the memo is keyed on ids).
    pub(crate) fn is_weaker_term(&self, p: PrivId, q: PrivTerm) -> bool {
        let tp = self.universe.term(p);
        tp == q || self.decide(tp, q)
    }

    fn decide(&self, tp: PrivTerm, tq: PrivTerm) -> bool {
        match (tp, tq) {
            (PrivTerm::Grant(ep), PrivTerm::Grant(eq)) => self.decide_connective(ep, eq),
            (PrivTerm::Revoke(ep), PrivTerm::Revoke(eq)) if self.mode.allows_revocation() => {
                self.decide_connective(ep, eq)
            }
            // User privileges and (in paper modes) revocations: equality
            // only, already handled by the caller.
            _ => false,
        }
    }

    /// Shared body for rule (2)/(3)/(2ext∘3*); also used for the revocation
    /// dual, whose shape is identical.
    fn decide_connective(&self, ep: Edge, eq: Edge) -> bool {
        // Source condition of every rule: v1 →φ v2, where v1 is the source
        // of the *weaker* (right-hand) term.
        if !self.reach_entity(eq.source(), ep.source()) {
            return false;
        }
        match (ep.target(), eq.target()) {
            // Rule (2).
            (EdgeTarget::Entity(b3), EdgeTarget::Entity(b4)) => self.reach_entity(b3, b4),
            // Rule (3), past the memo: the nested terms strictly shrink
            // and a chain has no alternatives to share.
            (EdgeTarget::Priv(p1), EdgeTarget::Priv(q2)) => {
                self.is_weaker_term(p1, self.universe.term(q2))
            }
            // Rule (2ext∘3*) — extended modes only.
            (EdgeTarget::Entity(b3), EdgeTarget::Priv(q2)) => {
                self.mode.allows_ext() && self.witnesses(b3).any(|w| self.is_weaker(w, q2))
            }
            // A privilege-target grant is never below an entity-target one.
            (EdgeTarget::Priv(_), EdgeTarget::Entity(_)) => false,
        }
    }

    /// Produces a derivation for `p ⊑φ q`, or `None` if the relation does
    /// not hold. Follows the same search as [`PrivilegeOrder::is_weaker`].
    pub fn derive(&self, p: PrivId, q: PrivId) -> Option<Derivation> {
        if p == q {
            return Some(Derivation::Reflexive(p));
        }
        let tp = self.universe.term(p);
        let tq = self.universe.term(q);
        let (ep, eq, revocation) = match (tp, tq) {
            (PrivTerm::Grant(ep), PrivTerm::Grant(eq)) => (ep, eq, false),
            (PrivTerm::Revoke(ep), PrivTerm::Revoke(eq)) if self.mode.allows_revocation() => {
                (ep, eq, true)
            }
            _ => return None,
        };
        if !self.reach_entity(eq.source(), ep.source()) {
            return None;
        }
        let deriv = match (ep.target(), eq.target()) {
            (EdgeTarget::Entity(b3), EdgeTarget::Entity(b4)) => {
                if self.reach_entity(b3, b4) {
                    Some(Derivation::Rule2 { p, q })
                } else {
                    None
                }
            }
            (EdgeTarget::Priv(p1), EdgeTarget::Priv(q2)) => {
                self.derive(p1, q2).map(|premise| Derivation::Rule3 {
                    p,
                    q,
                    premise: Box::new(premise),
                })
            }
            (EdgeTarget::Entity(b3), EdgeTarget::Priv(q2)) if self.mode.allows_ext() => self
                .witnesses(b3)
                .find_map(|w| self.derive(w, q2).map(|premise| (w, premise)))
                .map(|(via, premise)| Derivation::Rule2Ext {
                    p,
                    q,
                    via,
                    premise: Box::new(premise),
                }),
            _ => None,
        };
        if revocation {
            deriv.map(|d| Derivation::RevocationDual {
                p,
                q,
                premise: Some(Box::new(d)),
            })
        } else {
            deriv
        }
    }

    /// All privilege vertices of `φ` reachable from `entity` that are
    /// `⊑`-below `target` — i.e. the held privileges that *implicitly
    /// authorize* `target` (the paper's practical use of the ordering,
    /// Example 4).
    pub fn authorizing_vertices(&self, entity: Entity, target: PrivId) -> Vec<PrivId> {
        self.witnesses(entity)
            .filter(|&w| self.is_weaker(w, target))
            .collect()
    }

    /// The privilege vertices of `φ` that `entity` reaches, ascending —
    /// the candidate witnesses of rule (2ext∘3*), read from the index's
    /// holder table.
    fn witnesses(&self, entity: Entity) -> impl Iterator<Item = PrivId> + '_ {
        let reach = self.reach.get();
        reach
            .priv_vertices()
            .filter(move |&w| reach.reach_priv(entity, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;

    /// The hospital policy of Figures 2/3 (see EXPERIMENTS.md for the
    /// reconstruction notes).
    fn hospital() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("diana", "nurse")
            .assign("diana", "staff")
            .assign("jane", "hr")
            .assign("alice", "so")
            .declare_user("bob")
            .declare_user("joe")
            .inherit("staff", "nurse")
            .inherit("nurse", "prntusr")
            .inherit("nurse", "dbusr1")
            .inherit("staff", "dbusr2")
            .inherit("dbusr2", "dbusr1")
            .permit("prntusr", "prnt", "black")
            .permit("staff", "prnt", "color")
            .permit("dbusr1", "read", "t1")
            .permit("dbusr1", "read", "t2")
            .permit("dbusr2", "write", "t3");
        let (bob, staff, joe, nurse) = {
            let uni = b.universe_mut();
            (
                uni.find_user("bob").unwrap(),
                uni.find_role("staff").unwrap(),
                uni.find_user("joe").unwrap(),
                uni.find_role("nurse").unwrap(),
            )
        };
        let g_bob_staff = b.universe_mut().grant_user_role(bob, staff);
        let g_joe_nurse = b.universe_mut().grant_user_role(joe, nurse);
        let r_joe_nurse = b.universe_mut().revoke_user_role(joe, nurse);
        b = b
            .assign_priv("hr", g_bob_staff)
            .assign_priv("hr", g_joe_nurse)
            .assign_priv("hr", r_joe_nurse);
        b.finish()
    }

    #[test]
    fn reflexivity_for_every_term_kind() {
        let (mut uni, policy) = hospital();
        let perm = uni.perm("read", "t1");
        let q = uni.priv_perm(perm);
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let g = uni.grant_user_role(bob, staff);
        let r = uni.revoke_user_role(bob, staff);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Strict);
        for p in [q, g, r] {
            assert!(order.is_weaker(p, p));
        }
    }

    #[test]
    fn example5_first_part_rule2() {
        // ¤(bob, staff) ⊑ ¤(bob, dbusr2) because staff →φ dbusr2.
        let (mut uni, policy) = hospital();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let p = uni.grant_user_role(bob, staff);
        let q = uni.grant_user_role(bob, dbusr2);
        for mode in [OrderingMode::Strict, OrderingMode::Extended] {
            let order = PrivilegeOrder::new(&uni, &policy, mode);
            assert!(order.is_weaker(p, q), "{mode:?}");
            assert!(!order.is_weaker(q, p), "converse must fail ({mode:?})");
        }
    }

    #[test]
    fn example5_second_part_rule3_then_rule2() {
        // ¤(staff, ¤(bob,staff)) ⊑ ¤(staff, ¤(bob,dbusr2)).
        let (mut uni, policy) = hospital();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let inner_p = uni.grant_user_role(bob, staff);
        let inner_q = uni.grant_user_role(bob, dbusr2);
        let p = uni.grant_role_priv(staff, inner_p);
        let q = uni.grant_role_priv(staff, inner_q);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Strict);
        assert!(order.is_weaker(p, q));
        let d = order.derive(p, q).expect("derivation exists");
        assert!(
            matches!(
                d,
                Derivation::Rule3 { ref premise, .. }
                    if matches!(**premise, Derivation::Rule2 { .. })
            ),
            "rule (3) then rule (2), got {d:?}"
        );
    }

    #[test]
    fn example5_negative_after_removing_edge() {
        // Remove staff → dbusr2; the relation must stop holding.
        let (mut uni, mut policy) = hospital();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        policy.remove_edge(Edge::RoleRole(staff, dbusr2));
        let bob = uni.find_user("bob").unwrap();
        let inner_p = uni.grant_user_role(bob, staff);
        let inner_q = uni.grant_user_role(bob, dbusr2);
        let p = uni.grant_role_priv(staff, inner_p);
        let q = uni.grant_role_priv(staff, inner_q);
        for mode in [OrderingMode::Strict, OrderingMode::Extended] {
            let order = PrivilegeOrder::new(&uni, &policy, mode);
            assert!(!order.is_weaker(inner_p, inner_q), "{mode:?}");
            assert!(!order.is_weaker(p, q), "{mode:?}");
            assert!(order.derive(p, q).is_none(), "{mode:?}");
        }
    }

    #[test]
    fn rule2_with_mixed_entity_kinds() {
        // ¤(r2, r3) ⊑ ¤(u1, r4) when u1 →φ r2 and r3 →φ r4 — the rule lets
        // the sources be a role and a user.
        let (mut uni, policy) = hospital();
        let jane = uni.find_user("jane").unwrap();
        let hr = uni.find_role("hr").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        let p = uni.grant_role_role(hr, nurse); // ¤(hr, nurse)
        let q = uni.grant_user_role(jane, dbusr1); // ¤(jane, dbusr1)
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Strict);
        // jane →φ hr (UA) and nurse →φ dbusr1 (RH).
        assert!(order.is_weaker(p, q));
    }

    #[test]
    fn example6_extension_validates_vertex_target() {
        // Policy with (r2, ¤(r1, r2)) ∈ PA: ¤(r1,r2) ⊑ ¤(r1,¤(r1,r2)).
        let mut b = PolicyBuilder::new().declare_role("r1").declare_role("r2");
        let (r1, r2) = {
            let u = b.universe_mut();
            (u.find_role("r1").unwrap(), u.find_role("r2").unwrap())
        };
        let g = b.universe_mut().grant_role_role(r1, r2);
        b = b.assign_priv("r2", g);
        let (mut uni, policy) = b.finish();
        let q1 = uni.grant_role_priv(r1, g); // ¤(r1, ¤(r1,r2))
        let q2 = uni.grant_role_priv(r1, q1); // ¤(r1, ¤(r1,¤(r1,r2)))

        let strict = PrivilegeOrder::new(&uni, &policy, OrderingMode::Strict);
        assert!(
            !strict.is_weaker(g, q1),
            "strict reading cannot derive Example 6"
        );

        let ext = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        assert!(ext.is_weaker(g, q1), "first Example 6 step");
        assert!(
            ext.is_weaker(g, q2),
            "transitive closure: second Example 6 step"
        );
        assert!(ext.is_weaker(q1, q2), "rule (3) link between the steps");
        let d = ext.derive(g, q1).unwrap();
        assert!(matches!(d, Derivation::Rule2Ext { via, .. } if via == g));
    }

    #[test]
    fn rule2ext_witness_is_the_lowest_reached_vertex() {
        // ¤(so, hr) ⊑ ¤(so, ¤(bob, dbusr2)) via the vertex ¤(bob, staff)
        // hr holds, since staff →φ dbusr2.
        let (mut uni, mut policy) = hospital();
        let so = uni.find_role("so").unwrap();
        let hr = uni.find_role("hr").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let held = uni.grant_user_role(bob, staff);
        let p = uni.grant_role_role(so, hr);
        let inner = uni.grant_user_role(bob, dbusr2);
        let q = uni.grant_role_priv(so, inner);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        let d = order.derive(p, q).expect("rule (2ext∘3*) applies");
        assert!(matches!(d, Derivation::Rule2Ext { via, .. } if via == held));
        assert_eq!(
            d.render(&uni),
            "rule2ext[grant(so, hr) <= grant(so, grant(bob, dbusr2)) \
             via grant(bob, staff); rule2[grant(bob, staff) <= grant(bob, dbusr2)]]"
        );
        // With a second qualifying vertex interned later, the witness is
        // still the lowest id, and both authorize.
        let later = uni.grant_user_role(bob, nurse);
        assert!(later > held);
        policy.add_edge(Edge::RolePriv(hr, later));
        let inner = uni.grant_user_role(bob, dbusr1);
        let q = uni.grant_role_priv(so, inner);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        let d = order.derive(p, q).expect("rule (2ext∘3*) applies");
        assert!(matches!(d, Derivation::Rule2Ext { via, .. } if via == held));
        let jane = uni.find_user("jane").unwrap();
        assert_eq!(
            order.authorizing_vertices(Entity::User(jane), inner),
            vec![held, later]
        );
    }

    #[test]
    fn strict_is_contained_in_extended() {
        let (mut uni, policy) = hospital();
        // A handful of terms of assorted shapes.
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let mut terms = vec![
            uni.grant_user_role(bob, staff),
            uni.grant_user_role(bob, nurse),
            uni.grant_user_role(bob, dbusr2),
            uni.grant_role_role(staff, nurse),
            uni.revoke_user_role(bob, staff),
        ];
        let nested = uni.grant_role_priv(staff, terms[0]);
        terms.push(nested);
        let strict = PrivilegeOrder::new(&uni, &policy, OrderingMode::Strict);
        let ext = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        for &p in &terms {
            for &q in &terms {
                if strict.is_weaker(p, q) {
                    assert!(ext.is_weaker(p, q), "Strict ⊆ Extended violated");
                }
            }
        }
    }

    #[test]
    fn perms_compare_only_to_themselves() {
        let (mut uni, policy) = hospital();
        let p1 = uni.perm("read", "t1");
        let p2 = uni.perm("read", "t2");
        let a = uni.priv_perm(p1);
        let b = uni.priv_perm(p2);
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let g = uni.grant_user_role(bob, staff);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        assert!(order.is_weaker(a, a));
        assert!(!order.is_weaker(a, b));
        assert!(!order.is_weaker(a, g));
        assert!(!order.is_weaker(g, a));
    }

    #[test]
    fn revocations_incomparable_in_paper_modes() {
        let (mut uni, policy) = hospital();
        let joe = uni.find_user("joe").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        let p = uni.revoke_user_role(joe, nurse);
        let q = uni.revoke_user_role(joe, dbusr1);
        for mode in [OrderingMode::Strict, OrderingMode::Extended] {
            let order = PrivilegeOrder::new(&uni, &policy, mode);
            assert!(!order.is_weaker(p, q), "{mode:?}");
        }
        let rev = PrivilegeOrder::new(&uni, &policy, OrderingMode::ExtendedWithRevocation);
        assert!(rev.is_weaker(p, q), "dual rule: nurse →φ dbusr1");
        assert!(!rev.is_weaker(q, p));
        let d = rev.derive(p, q).unwrap();
        assert!(matches!(d, Derivation::RevocationDual { .. }));
    }

    #[test]
    fn grant_never_orders_against_revoke() {
        let (mut uni, policy) = hospital();
        let joe = uni.find_user("joe").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let g = uni.grant_user_role(joe, nurse);
        let r = uni.revoke_user_role(joe, nurse);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::ExtendedWithRevocation);
        assert!(!order.is_weaker(g, r));
        assert!(!order.is_weaker(r, g));
    }

    #[test]
    fn transitivity_exhaustive_on_small_term_set() {
        let (mut uni, policy) = hospital();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let roles: Vec<_> = ["staff", "nurse", "dbusr1", "dbusr2", "prntusr", "hr"]
            .iter()
            .map(|n| uni.find_role(n).unwrap())
            .collect();
        let mut terms = Vec::new();
        for &u in &[bob, joe] {
            for &r in &roles {
                terms.push(uni.grant_user_role(u, r));
            }
        }
        for &r in &roles {
            for &s in &roles {
                terms.push(uni.grant_role_role(r, s));
            }
        }
        // One nesting level.
        let seed: Vec<PrivId> = terms.iter().copied().take(6).collect();
        for &r in roles.iter().take(3) {
            for &t in &seed {
                terms.push(uni.grant_role_priv(r, t));
            }
        }
        for mode in [OrderingMode::Strict, OrderingMode::Extended] {
            let order = PrivilegeOrder::new(&uni, &policy, mode);
            for &a in &terms {
                for &b in &terms {
                    if !order.is_weaker(a, b) {
                        continue;
                    }
                    for &c in &terms {
                        if order.is_weaker(b, c) {
                            assert!(order.is_weaker(a, c), "transitivity violated in {mode:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn authorizing_vertices_example4() {
        // Jane (HR) holds ¤(bob, staff); it implicitly authorizes
        // ¤(bob, dbusr2).
        let (mut uni, policy) = hospital();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let target = uni.grant_user_role(bob, dbusr2);
        let held = uni.grant_user_role(bob, staff);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        let auth = order.authorizing_vertices(Entity::User(jane), target);
        assert_eq!(auth, vec![held]);
        // Diana holds no administrative privileges at all.
        let diana = uni.find_user("diana").unwrap();
        assert!(order
            .authorizing_vertices(Entity::User(diana), target)
            .is_empty());
    }

    #[test]
    fn derivation_render_is_informative() {
        let (mut uni, policy) = hospital();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let p = uni.grant_user_role(bob, staff);
        let q = uni.grant_user_role(bob, dbusr2);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        let text = order.derive(p, q).unwrap().render(&uni);
        assert!(text.contains("rule2"));
        assert!(text.contains("grant(bob, staff)"));
        assert!(text.contains("grant(bob, dbusr2)"));
    }

    #[test]
    fn memoisation_is_transparent() {
        let (mut uni, policy) = hospital();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let p = uni.grant_user_role(bob, staff);
        let q = uni.grant_user_role(bob, dbusr2);
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        assert_eq!(order.is_weaker(p, q), order.is_weaker(p, q));
        assert_eq!(order.is_weaker(q, p), order.is_weaker(q, p));
    }
}
