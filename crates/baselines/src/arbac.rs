//! ARBAC97-style administration (Sandhu, Bhamidipati, Munawer 1999) —
//! the baseline the paper positions itself against in §1/§5.
//!
//! ARBAC97 keeps administrative authority in a *separate* hierarchy of
//! administrative roles and expresses it as rules:
//!
//! * **URA97** — `can_assign(ar, c, range)`: members of admin role `ar`
//!   may assign a user satisfying prerequisite condition `c` to any role in
//!   the role `range`; `can_revoke(ar, range)` likewise for revocation.
//! * **PRA97** — `can_assignp(ar, c, range)` / `can_revokep(ar, range)`
//!   for permission-role assignment.
//!
//! Where the paper's model assigns arbitrarily nested privileges to
//! ordinary roles, ARBAC97's authority is *flat* (no privileges about
//! privileges) and *range-shaped* (contiguous intervals of the hierarchy).

use adminref_core::closure::RoleClosure;
use adminref_core::ids::{Perm, RoleId, UserId};
use adminref_core::policy::Policy;
use adminref_core::universe::{Edge, PrivTerm, Universe};

/// A prerequisite condition over role memberships: a boolean combination
/// of “is (not) a member of role r” literals, evaluated against *implicit*
/// membership (membership via the hierarchy).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Prereq {
    /// Always satisfied.
    True,
    /// Member of `r` (explicitly or through a senior role).
    Role(RoleId),
    /// Negation.
    Not(Box<Prereq>),
    /// Conjunction.
    And(Box<Prereq>, Box<Prereq>),
    /// Disjunction.
    Or(Box<Prereq>, Box<Prereq>),
}

impl Prereq {
    /// Convenience: `a ∧ ¬b`.
    pub fn and_not(a: RoleId, b: RoleId) -> Self {
        Prereq::And(
            Box::new(Prereq::Role(a)),
            Box::new(Prereq::Not(Box::new(Prereq::Role(b)))),
        )
    }

    /// Evaluates against a membership test.
    pub fn eval(&self, member: &impl Fn(RoleId) -> bool) -> bool {
        match self {
            Prereq::True => true,
            Prereq::Role(r) => member(*r),
            Prereq::Not(p) => !p.eval(member),
            Prereq::And(a, b) => a.eval(member) && b.eval(member),
            Prereq::Or(a, b) => a.eval(member) || b.eval(member),
        }
    }
}

/// A contiguous range of the role hierarchy. In ARBAC97 notation
/// `[lo, hi]`, `(lo, hi]`, `[lo, hi)` or `(lo, hi)`: the roles `r` with
/// `lo ≤ r ≤ hi` (seniority order; `hi` is the senior end), endpoints
/// included per the closed flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoleRange {
    /// Junior end.
    pub lo: RoleId,
    /// Senior end.
    pub hi: RoleId,
    /// Whether `lo` itself is in the range.
    pub lo_closed: bool,
    /// Whether `hi` itself is in the range.
    pub hi_closed: bool,
}

impl RoleRange {
    /// The closed range `[lo, hi]`.
    pub fn closed(lo: RoleId, hi: RoleId) -> Self {
        RoleRange {
            lo,
            hi,
            lo_closed: true,
            hi_closed: true,
        }
    }

    /// `true` iff `r` lies in the range under `closure` (seniors reach
    /// juniors).
    pub fn contains(&self, closure: &RoleClosure, r: RoleId) -> bool {
        let senior_ok = closure.reaches(self.hi.0, r.0) && (self.hi_closed || r != self.hi);
        let junior_ok = closure.reaches(r.0, self.lo.0) && (self.lo_closed || r != self.lo);
        senior_ok && junior_ok
    }
}

/// One URA97 `can_assign` rule.
#[derive(Clone, Debug)]
pub struct CanAssign {
    /// Administrative role empowered by the rule.
    pub admin_role: RoleId,
    /// Prerequisite the *target user* must satisfy.
    pub prereq: Prereq,
    /// Roles the user may be assigned to.
    pub range: RoleRange,
}

/// One URA97 `can_revoke` rule.
#[derive(Clone, Debug)]
pub struct CanRevoke {
    /// Administrative role empowered by the rule.
    pub admin_role: RoleId,
    /// Roles the user may be revoked from.
    pub range: RoleRange,
}

/// One PRA97 `can_assignp` rule (permission-role assignment).
#[derive(Clone, Debug)]
pub struct CanAssignPerm {
    /// Administrative role empowered by the rule.
    pub admin_role: RoleId,
    /// Prerequisite the *permission* must satisfy: it must already be
    /// assigned to a role in this set (None = no prerequisite).
    pub prereq_role: Option<RoleId>,
    /// Roles the permission may be assigned to.
    pub range: RoleRange,
}

/// One PRA97 `can_revokep` rule.
#[derive(Clone, Debug)]
pub struct CanRevokePerm {
    /// Administrative role empowered by the rule.
    pub admin_role: RoleId,
    /// Roles the permission may be revoked from.
    pub range: RoleRange,
}

/// An ARBAC97 configuration over a core policy.
///
/// Administrative roles live in the same role vocabulary (ARBAC97 keeps a
/// disjoint hierarchy; here disjointness is the builder's responsibility —
/// the admin hierarchy is whatever `RH` says about the admin roles).
#[derive(Clone, Debug, Default)]
pub struct Arbac97 {
    /// URA97 assignment rules.
    pub can_assign: Vec<CanAssign>,
    /// URA97 revocation rules.
    pub can_revoke: Vec<CanRevoke>,
    /// PRA97 assignment rules.
    pub can_assignp: Vec<CanAssignPerm>,
    /// PRA97 revocation rules.
    pub can_revokep: Vec<CanRevokePerm>,
}

/// Outcome of an ARBAC97 authorization check, naming the rule that fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RuleMatch {
    /// Index of the matching rule within its rule vector.
    pub rule_index: usize,
}

impl Arbac97 {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a `can_assign` rule.
    pub fn add_can_assign(&mut self, rule: CanAssign) -> &mut Self {
        self.can_assign.push(rule);
        self
    }

    /// Adds a `can_revoke` rule.
    pub fn add_can_revoke(&mut self, rule: CanRevoke) -> &mut Self {
        self.can_revoke.push(rule);
        self
    }

    /// Adds a `can_assignp` rule.
    pub fn add_can_assignp(&mut self, rule: CanAssignPerm) -> &mut Self {
        self.can_assignp.push(rule);
        self
    }

    /// Adds a `can_revokep` rule.
    pub fn add_can_revokep(&mut self, rule: CanRevokePerm) -> &mut Self {
        self.can_revokep.push(rule);
        self
    }

    /// May `admin` assign `user` to `role`? Returns the first matching
    /// rule.
    pub fn check_assign(
        &self,
        policy: &Policy,
        closure: &RoleClosure,
        admin: UserId,
        user: UserId,
        role: RoleId,
    ) -> Option<RuleMatch> {
        let admin_member = membership_fn(policy, closure, admin);
        let user_member = membership_fn(policy, closure, user);
        self.can_assign.iter().enumerate().find_map(|(i, rule)| {
            if admin_member(rule.admin_role)
                && rule.prereq.eval(&user_member)
                && rule.range.contains(closure, role)
            {
                Some(RuleMatch { rule_index: i })
            } else {
                None
            }
        })
    }

    /// May `admin` revoke `user` from `role`?
    pub fn check_revoke(
        &self,
        policy: &Policy,
        closure: &RoleClosure,
        admin: UserId,
        role: RoleId,
    ) -> Option<RuleMatch> {
        let admin_member = membership_fn(policy, closure, admin);
        self.can_revoke.iter().enumerate().find_map(|(i, rule)| {
            if admin_member(rule.admin_role) && rule.range.contains(closure, role) {
                Some(RuleMatch { rule_index: i })
            } else {
                None
            }
        })
    }

    /// May `admin` assign permission `perm` to `role`?
    pub fn check_assign_perm(
        &self,
        universe: &Universe,
        policy: &Policy,
        closure: &RoleClosure,
        admin: UserId,
        perm: Perm,
        role: RoleId,
    ) -> Option<RuleMatch> {
        let admin_member = membership_fn(policy, closure, admin);
        self.can_assignp.iter().enumerate().find_map(|(i, rule)| {
            if !admin_member(rule.admin_role) || !rule.range.contains(closure, role) {
                return None;
            }
            let prereq_ok = match rule.prereq_role {
                None => true,
                Some(holder) => policy.pa().any(|(r, p)| {
                    closure.reaches(holder.0, r.0)
                        && matches!(universe.term(p), PrivTerm::Perm(q) if q == perm)
                }),
            };
            if prereq_ok {
                Some(RuleMatch { rule_index: i })
            } else {
                None
            }
        })
    }

    /// May `admin` revoke permission assignments from `role`?
    pub fn check_revoke_perm(
        &self,
        policy: &Policy,
        closure: &RoleClosure,
        admin: UserId,
        role: RoleId,
    ) -> Option<RuleMatch> {
        let admin_member = membership_fn(policy, closure, admin);
        self.can_revokep.iter().enumerate().find_map(|(i, rule)| {
            if admin_member(rule.admin_role) && rule.range.contains(closure, role) {
                Some(RuleMatch { rule_index: i })
            } else {
                None
            }
        })
    }

    /// Checks and applies a user-role assignment, mutating the policy.
    pub fn assign(
        &self,
        policy: &mut Policy,
        closure: &RoleClosure,
        admin: UserId,
        user: UserId,
        role: RoleId,
    ) -> Option<RuleMatch> {
        let hit = self.check_assign(policy, closure, admin, user, role)?;
        policy.add_edge(Edge::UserRole(user, role));
        Some(hit)
    }

    /// Checks and applies a user-role revocation, mutating the policy.
    ///
    /// Per URA97's weak revocation: only the explicit membership is
    /// removed.
    pub fn revoke(
        &self,
        policy: &mut Policy,
        closure: &RoleClosure,
        admin: UserId,
        user: UserId,
        role: RoleId,
    ) -> Option<RuleMatch> {
        let hit = self.check_revoke(policy, closure, admin, role)?;
        policy.remove_edge(Edge::UserRole(user, role));
        Some(hit)
    }
}

/// Implicit membership test: `user` is a member of `r` iff some explicitly
/// assigned role reaches `r`.
fn membership_fn<'a>(
    policy: &'a Policy,
    closure: &'a RoleClosure,
    user: UserId,
) -> impl Fn(RoleId) -> bool + 'a {
    let direct: Vec<RoleId> = policy.roles_of(user).collect();
    move |r: RoleId| direct.iter().any(|&d| closure.reaches(d.0, r.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::reach::ReachIndex;

    /// URA97's running example shape: a small engineering department.
    /// Hierarchy (senior → junior): dso → pso → {pl → {e1, e2} → eng} and
    /// eng → ed.
    fn setup() -> (Universe, Policy, RoleClosure) {
        let (uni, policy) = PolicyBuilder::new()
            .assign("alice", "pso")
            .assign("carol", "ed")
            .assign("dave", "eng")
            .assign("eve", "pl")
            .inherit("dso", "pso")
            .inherit("pl", "e1")
            .inherit("pl", "e2")
            .inherit("e1", "eng")
            .inherit("e2", "eng")
            .inherit("eng", "ed")
            .permit("eng", "read", "code")
            .finish();
        let closure = ReachIndex::build(&uni, &policy).role_closure().clone();
        (uni, policy, closure)
    }

    fn role(uni: &Universe, name: &str) -> RoleId {
        uni.find_role(name).unwrap()
    }

    fn user(uni: &Universe, name: &str) -> UserId {
        uni.find_user(name).unwrap()
    }

    #[test]
    fn range_membership_respects_endpoints() {
        let (uni, _, closure) = setup();
        let eng = role(&uni, "eng");
        let pl = role(&uni, "pl");
        let e1 = role(&uni, "e1");
        let ed = role(&uni, "ed");
        let closed = RoleRange::closed(eng, pl);
        assert!(closed.contains(&closure, eng));
        assert!(closed.contains(&closure, pl));
        assert!(closed.contains(&closure, e1));
        assert!(!closed.contains(&closure, ed), "ed is below the range");
        let open = RoleRange {
            lo: eng,
            hi: pl,
            lo_closed: false,
            hi_closed: false,
        };
        assert!(!open.contains(&closure, eng));
        assert!(!open.contains(&closure, pl));
        assert!(open.contains(&closure, e1));
    }

    #[test]
    fn can_assign_with_prerequisite() {
        let (uni, policy, closure) = setup();
        let mut arbac = Arbac97::new();
        // PSO members may assign users who are already ED (but not ENG)
        // into [eng, pl].
        arbac.add_can_assign(CanAssign {
            admin_role: role(&uni, "pso"),
            prereq: Prereq::and_not(role(&uni, "ed"), role(&uni, "eng")),
            range: RoleRange::closed(role(&uni, "eng"), role(&uni, "pl")),
        });
        let alice = user(&uni, "alice");
        let carol = user(&uni, "carol"); // ed only: satisfies prereq
        let dave = user(&uni, "dave"); // already eng: fails ¬eng
        let eng = role(&uni, "eng");
        assert!(arbac
            .check_assign(&policy, &closure, alice, carol, eng)
            .is_some());
        assert!(arbac
            .check_assign(&policy, &closure, alice, dave, eng)
            .is_none());
        // carol cannot administrate: she is not in pso.
        assert!(arbac
            .check_assign(&policy, &closure, carol, carol, eng)
            .is_none());
        // Out-of-range target role.
        let dso = role(&uni, "dso");
        assert!(arbac
            .check_assign(&policy, &closure, alice, carol, dso)
            .is_none());
    }

    #[test]
    fn admin_membership_is_implicit() {
        // A dso member may use a pso rule because dso → pso.
        let (mut uni, mut policy, _) = setup();
        let frank = uni.user("frank");
        let dso = role(&uni, "dso");
        policy.add_edge(Edge::UserRole(frank, dso));
        let closure = ReachIndex::build(&uni, &policy).role_closure().clone();
        let mut arbac = Arbac97::new();
        arbac.add_can_assign(CanAssign {
            admin_role: role(&uni, "pso"),
            prereq: Prereq::True,
            range: RoleRange::closed(role(&uni, "eng"), role(&uni, "eng")),
        });
        let carol = user(&uni, "carol");
        let eng = role(&uni, "eng");
        assert!(arbac
            .check_assign(&policy, &closure, frank, carol, eng)
            .is_some());
    }

    #[test]
    fn assign_and_revoke_mutate_ua() {
        let (uni, mut policy, closure) = setup();
        let mut arbac = Arbac97::new();
        let eng = role(&uni, "eng");
        arbac.add_can_assign(CanAssign {
            admin_role: role(&uni, "pso"),
            prereq: Prereq::True,
            range: RoleRange::closed(eng, eng),
        });
        arbac.add_can_revoke(CanRevoke {
            admin_role: role(&uni, "pso"),
            range: RoleRange::closed(eng, eng),
        });
        let alice = user(&uni, "alice");
        let carol = user(&uni, "carol");
        assert!(arbac
            .assign(&mut policy, &closure, alice, carol, eng)
            .is_some());
        assert!(policy.contains_edge(Edge::UserRole(carol, eng)));
        assert!(arbac
            .revoke(&mut policy, &closure, alice, carol, eng)
            .is_some());
        assert!(!policy.contains_edge(Edge::UserRole(carol, eng)));
    }

    #[test]
    fn pra97_permission_rules() {
        let (mut uni, policy, closure) = setup();
        let mut arbac = Arbac97::new();
        let eng = role(&uni, "eng");
        let pl = role(&uni, "pl");
        arbac.add_can_assignp(CanAssignPerm {
            admin_role: role(&uni, "pso"),
            prereq_role: Some(eng), // perm must already be somewhere at/below eng
            range: RoleRange::closed(pl, pl),
        });
        arbac.add_can_revokep(CanRevokePerm {
            admin_role: role(&uni, "pso"),
            range: RoleRange::closed(eng, pl),
        });
        let alice = user(&uni, "alice");
        let read_code = uni.perm("read", "code");
        let write_code = uni.perm("write", "code");
        assert!(arbac
            .check_assign_perm(&uni, &policy, &closure, alice, read_code, pl)
            .is_some());
        assert!(
            arbac
                .check_assign_perm(&uni, &policy, &closure, alice, write_code, pl)
                .is_none(),
            "write:code is not held below eng, prerequisite fails"
        );
        assert!(arbac
            .check_revoke_perm(&policy, &closure, alice, eng)
            .is_some());
        let carol = user(&uni, "carol");
        assert!(arbac
            .check_revoke_perm(&policy, &closure, carol, eng)
            .is_none());
    }

    #[test]
    fn prereq_evaluation_table() {
        let (uni, policy, closure) = setup();
        let dave = user(&uni, "dave"); // eng (hence ed, implicitly)
        let member = membership_fn(&policy, &closure, dave);
        let eng = role(&uni, "eng");
        let ed = role(&uni, "ed");
        let pl = role(&uni, "pl");
        assert!(Prereq::Role(eng).eval(&member));
        assert!(Prereq::Role(ed).eval(&member), "implicit via hierarchy");
        assert!(!Prereq::Role(pl).eval(&member));
        assert!(Prereq::True.eval(&member));
        assert!(Prereq::Not(Box::new(Prereq::Role(pl))).eval(&member));
        assert!(Prereq::Or(Box::new(Prereq::Role(pl)), Box::new(Prereq::Role(eng))).eval(&member));
        assert!(!Prereq::and_not(eng, ed).eval(&member));
    }
}
