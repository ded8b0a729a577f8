//! User-role reachability analysis for ARBAC97 policies.
//!
//! The classic safety question for ARBAC (Li & Tripunitara; Sasturkar et
//! al.): *can a given user ever become a member of a goal role* through
//! some sequence of `can_assign` / `can_revoke` steps? The general problem
//! is PSPACE-complete; two standard fragments are implemented here:
//!
//! * [`reachable_roles_monotone`] — positive preconditions and no
//!   revocation: role sets only grow, so a least fixpoint computes exact
//!   reachability in polynomial time;
//! * [`role_reachable_bounded`] — the general case, explored on the
//!   shared compact-state engine ([`adminref_core::search`]): membership
//!   states are role bitsets interned in the state arena, so a
//!   paper-vs-ARBAC comparison runs the same machinery on both sides.
//!
//! Both make ARBAC's *separate administration* assumption: administrative
//! memberships are fixed, so some administrator is always available to
//! apply a rule whose target-user precondition is met.

use std::collections::BTreeSet;

use adminref_core::closure::RoleClosure;
use adminref_core::ids::RoleId;
use adminref_core::search::arena::{clear_bit, for_each_set_bit, set_bit, test_bit};
use adminref_core::search::{search, CandidateSet, SearchLimits, SearchOutcome, StateSpace};

use crate::arbac::{CanAssign, CanRevoke, Prereq};

/// Outcome of the bounded exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BoundedAnswer {
    /// A command sequence reaching the goal exists (witness length given).
    Reachable {
        /// Number of assignment/revocation steps in the witness.
        steps: usize,
    },
    /// Exhaustively refuted within the explored state space.
    Unreachable,
    /// A bound was hit before the space was exhausted.
    Unknown,
}

/// Implicit membership closure of an explicit role set.
fn implicit(closure: &RoleClosure, explicit: &BTreeSet<RoleId>) -> BTreeSet<RoleId> {
    let mut out = BTreeSet::new();
    for &r in explicit {
        for j in closure.row(r.0).iter() {
            out.insert(RoleId(j as u32));
        }
    }
    out
}

fn prereq_holds(prereq: &Prereq, closure: &RoleClosure, explicit: &[RoleId]) -> bool {
    let member = |r: RoleId| explicit.iter().any(|&d| closure.reaches(d.0, r.0));
    prereq.eval(&member)
}

/// `true` iff the prerequisite only tests positive membership (no `Not`).
pub fn is_positive(prereq: &Prereq) -> bool {
    match prereq {
        Prereq::True | Prereq::Role(_) => true,
        Prereq::Not(_) => false,
        Prereq::And(a, b) | Prereq::Or(a, b) => is_positive(a) && is_positive(b),
    }
}

/// Exact reachability for the monotone fragment (positive preconditions,
/// no revocation): the set of roles the user can eventually hold
/// (explicitly), as a least fixpoint.
///
/// # Panics
/// Panics if any rule has a non-positive prerequisite — callers choose the
/// fragment deliberately.
pub fn reachable_roles_monotone(
    closure: &RoleClosure,
    rules: &[CanAssign],
    initial: &BTreeSet<RoleId>,
) -> BTreeSet<RoleId> {
    assert!(
        rules.iter().all(|r| is_positive(&r.prereq)),
        "monotone analysis requires positive preconditions"
    );
    let mut explicit = initial.clone();
    loop {
        let mut grew = false;
        // One snapshot per pass: a rule enabled by a role added later in
        // the same pass simply fires on the next pass (`grew` keeps the
        // loop going), so the fixpoint is unchanged.
        let snapshot: Vec<RoleId> = explicit.iter().copied().collect();
        for rule in rules {
            if !prereq_holds(&rule.prereq, closure, &snapshot) {
                continue;
            }
            // The rule lets us add any role in its range.
            for r in 0..closure.len() as u32 {
                let role = RoleId(r);
                if rule.range.contains(closure, role) && explicit.insert(role) {
                    grew = true;
                }
            }
        }
        if !grew {
            return explicit;
        }
    }
}

/// One assignment or revocation step in an ARBAC plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ArbacStep {
    role: RoleId,
    assign: bool,
}

/// The ARBAC membership state space: a state is the bitset of the
/// user's *explicit* roles.
struct ArbacSpace<'a> {
    closure: &'a RoleClosure,
    can_assign: &'a [CanAssign],
    can_revoke: &'a [CanRevoke],
    initial: &'a BTreeSet<RoleId>,
    goal: RoleId,
}

impl ArbacSpace<'_> {
    fn decode(&self, words: &[u64]) -> Vec<RoleId> {
        let mut out = Vec::new();
        for_each_set_bit(words, |b| out.push(RoleId(b as u32)));
        out
    }
}

impl StateSpace for ArbacSpace<'_> {
    type Label = ArbacStep;

    fn state_bits(&self) -> usize {
        self.closure.len()
    }

    fn write_root(&self, out: &mut [u64]) {
        for &r in self.initial {
            set_bit(out, r.index());
        }
    }

    fn expand(&self, state: &[u64], out: &mut CandidateSet<ArbacStep>) {
        let explicit = self.decode(state);
        let mut scratch = state.to_vec();
        for rule in self.can_assign {
            if !prereq_holds(&rule.prereq, self.closure, &explicit) {
                continue;
            }
            for r in 0..self.closure.len() {
                let role = RoleId(r as u32);
                if !rule.range.contains(self.closure, role) || test_bit(state, r) {
                    continue;
                }
                set_bit(&mut scratch, r);
                // Incremental goal: the parent fails the goal (engine
                // invariant), so only the newly assigned role can make
                // the implicit closure cover it.
                let goal = self.closure.reaches(role.0, self.goal.0);
                out.push(ArbacStep { role, assign: true }, goal, &scratch);
                clear_bit(&mut scratch, r);
            }
        }
        for rule in self.can_revoke {
            for &role in &explicit {
                if !rule.range.contains(self.closure, role) {
                    continue;
                }
                let r = role.index();
                clear_bit(&mut scratch, r);
                // Revocation shrinks the implicit closure: it can never
                // newly satisfy the goal.
                out.push(
                    ArbacStep {
                        role,
                        assign: false,
                    },
                    false,
                    &scratch,
                );
                set_bit(&mut scratch, r);
            }
        }
    }
}

/// Bounded search for the general case: can the user's membership evolve
/// so that `goal` is held (implicitly)?
///
/// Runs on the same compact-state engine as the paper-side safety
/// analysis ([`adminref_core::safety`]): membership states are interned
/// bitsets, bounded by `limits`' depth and state cap.
pub fn role_reachable_bounded(
    closure: &RoleClosure,
    can_assign: &[CanAssign],
    can_revoke: &[CanRevoke],
    initial: &BTreeSet<RoleId>,
    goal: RoleId,
    limits: SearchLimits,
) -> BoundedAnswer {
    if implicit(closure, initial).contains(&goal) {
        return BoundedAnswer::Reachable { steps: 0 };
    }
    let space = ArbacSpace {
        closure,
        can_assign,
        can_revoke,
        initial,
        goal,
    };
    match search(&space, limits).0 {
        SearchOutcome::Found { witness } => BoundedAnswer::Reachable {
            steps: witness.len(),
        },
        SearchOutcome::Exhausted => BoundedAnswer::Unreachable,
        SearchOutcome::Truncated => BoundedAnswer::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbac::RoleRange;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::reach::ReachIndex;
    use adminref_core::universe::Universe;

    fn states(max_states: usize) -> SearchLimits {
        SearchLimits {
            max_states,
            ..SearchLimits::default()
        }
    }

    /// Chain hierarchy pl → e1 → eng → ed plus an unrelated role q.
    fn setup() -> (Universe, RoleClosure) {
        let (uni, policy) = PolicyBuilder::new()
            .inherit("pl", "e1")
            .inherit("e1", "eng")
            .inherit("eng", "ed")
            .declare_role("q")
            .finish();
        let closure = ReachIndex::build(&uni, &policy).role_closure().clone();
        (uni, closure)
    }

    fn role(uni: &Universe, name: &str) -> RoleId {
        uni.find_role(name).unwrap()
    }

    #[test]
    fn monotone_fixpoint_climbs_the_ladder() {
        let (uni, closure) = setup();
        let ed = role(&uni, "ed");
        let eng = role(&uni, "eng");
        let e1 = role(&uni, "e1");
        // ed members may become eng; eng members may become e1.
        let rules = vec![
            CanAssign {
                admin_role: role(&uni, "pl"),
                prereq: Prereq::Role(ed),
                range: RoleRange::closed(eng, eng),
            },
            CanAssign {
                admin_role: role(&uni, "pl"),
                prereq: Prereq::Role(eng),
                range: RoleRange::closed(e1, e1),
            },
        ];
        let initial: BTreeSet<RoleId> = [ed].into_iter().collect();
        let reach = reachable_roles_monotone(&closure, &rules, &initial);
        assert!(reach.contains(&eng));
        assert!(reach.contains(&e1));
        assert!(!reach.contains(&role(&uni, "pl")));
        assert!(!reach.contains(&role(&uni, "q")));
    }

    #[test]
    fn monotone_requires_initial_seed() {
        let (uni, closure) = setup();
        let eng = role(&uni, "eng");
        let rules = vec![CanAssign {
            admin_role: role(&uni, "pl"),
            prereq: Prereq::Role(role(&uni, "ed")),
            range: RoleRange::closed(eng, eng),
        }];
        let reach = reachable_roles_monotone(&closure, &rules, &BTreeSet::new());
        assert!(reach.is_empty(), "no seed, no growth");
    }

    #[test]
    #[should_panic(expected = "positive preconditions")]
    fn monotone_rejects_negative_preconditions() {
        let (uni, closure) = setup();
        let eng = role(&uni, "eng");
        let rules = vec![CanAssign {
            admin_role: role(&uni, "pl"),
            prereq: Prereq::Not(Box::new(Prereq::Role(eng))),
            range: RoleRange::closed(eng, eng),
        }];
        reachable_roles_monotone(&closure, &rules, &BTreeSet::new());
    }

    #[test]
    fn bounded_finds_negative_precondition_plans() {
        // Reaching the goal requires first *revoking* a blocking role:
        // can_assign(…, ¬q, [e1,e1]) with the user initially in q.
        let (uni, closure) = setup();
        let e1 = role(&uni, "e1");
        let q = role(&uni, "q");
        let ed = role(&uni, "ed");
        let can_assign = vec![CanAssign {
            admin_role: role(&uni, "pl"),
            prereq: Prereq::and_not(ed, q),
            range: RoleRange::closed(e1, e1),
        }];
        let can_revoke = vec![CanRevoke {
            admin_role: role(&uni, "pl"),
            range: RoleRange::closed(q, q),
        }];
        let initial: BTreeSet<RoleId> = [ed, q].into_iter().collect();
        let ans = role_reachable_bounded(
            &closure,
            &can_assign,
            &can_revoke,
            &initial,
            e1,
            states(10_000),
        );
        assert_eq!(ans, BoundedAnswer::Reachable { steps: 2 });
        // Without the revoke rule the goal is unreachable.
        let ans2 = role_reachable_bounded(&closure, &can_assign, &[], &initial, e1, states(10_000));
        assert_eq!(ans2, BoundedAnswer::Unreachable);
    }

    #[test]
    fn bounded_zero_steps_when_goal_already_held() {
        let (uni, closure) = setup();
        let ed = role(&uni, "ed");
        let eng = role(&uni, "eng");
        let initial: BTreeSet<RoleId> = [eng].into_iter().collect();
        // eng implies ed via the hierarchy.
        let ans = role_reachable_bounded(&closure, &[], &[], &initial, ed, states(100));
        assert_eq!(ans, BoundedAnswer::Reachable { steps: 0 });
    }

    #[test]
    fn bounded_reports_unknown_on_tiny_caps() {
        let (uni, closure) = setup();
        let e1 = role(&uni, "e1");
        let q = role(&uni, "q");
        let ed = role(&uni, "ed");
        let can_assign = vec![CanAssign {
            admin_role: role(&uni, "pl"),
            prereq: Prereq::and_not(ed, q),
            range: RoleRange::closed(e1, e1),
        }];
        let can_revoke = vec![CanRevoke {
            admin_role: role(&uni, "pl"),
            range: RoleRange::closed(q, q),
        }];
        let initial: BTreeSet<RoleId> = [ed, q].into_iter().collect();
        let ans =
            role_reachable_bounded(&closure, &can_assign, &can_revoke, &initial, e1, states(1));
        assert_eq!(ans, BoundedAnswer::Unknown);
    }

    #[test]
    fn depth_bound_distinguishes_cutoff_from_exhaustion() {
        // The two-step plan (revoke q, then assign e1) needs depth 2:
        // depth 1 cuts it off (Unknown), depth ≥ 2 finds it.
        let (uni, closure) = setup();
        let e1 = role(&uni, "e1");
        let q = role(&uni, "q");
        let ed = role(&uni, "ed");
        let can_assign = vec![CanAssign {
            admin_role: role(&uni, "pl"),
            prereq: Prereq::and_not(ed, q),
            range: RoleRange::closed(e1, e1),
        }];
        let can_revoke = vec![CanRevoke {
            admin_role: role(&uni, "pl"),
            range: RoleRange::closed(q, q),
        }];
        let initial: BTreeSet<RoleId> = [ed, q].into_iter().collect();
        let shallow = role_reachable_bounded(
            &closure,
            &can_assign,
            &can_revoke,
            &initial,
            e1,
            SearchLimits {
                max_depth: 1,
                ..SearchLimits::default()
            },
        );
        assert_eq!(shallow, BoundedAnswer::Unknown);
        let deep = role_reachable_bounded(
            &closure,
            &can_assign,
            &can_revoke,
            &initial,
            e1,
            SearchLimits {
                max_depth: 2,
                ..SearchLimits::default()
            },
        );
        assert_eq!(deep, BoundedAnswer::Reachable { steps: 2 });
    }

    #[test]
    fn monotone_agrees_with_bounded_on_positive_instances() {
        let (uni, closure) = setup();
        let ed = role(&uni, "ed");
        let eng = role(&uni, "eng");
        let e1 = role(&uni, "e1");
        let rules = vec![
            CanAssign {
                admin_role: role(&uni, "pl"),
                prereq: Prereq::Role(ed),
                range: RoleRange::closed(eng, eng),
            },
            CanAssign {
                admin_role: role(&uni, "pl"),
                prereq: Prereq::Role(eng),
                range: RoleRange::closed(e1, e1),
            },
        ];
        let initial: BTreeSet<RoleId> = [ed].into_iter().collect();
        let fixpoint = reachable_roles_monotone(&closure, &rules, &initial);
        for r in 0..closure.len() as u32 {
            let goal = RoleId(r);
            let bounded =
                role_reachable_bounded(&closure, &rules, &[], &initial, goal, states(100_000));
            let in_fixpoint = implicit(&closure, &fixpoint).contains(&goal);
            match bounded {
                BoundedAnswer::Reachable { .. } => assert!(in_fixpoint, "role {r}"),
                BoundedAnswer::Unreachable => assert!(!in_fixpoint, "role {r}"),
                BoundedAnswer::Unknown => panic!("cap too small for the test"),
            }
        }
    }
}
