//! Differential tests for the unbounded verification engines.
//!
//! The bounded breadth-first search is the executable ground truth
//! wherever it is definite (a `Reachable` witness, or `Unreachable`
//! after exhausting the whole reachable space). These properties pin
//! the unbounded engines to it:
//!
//! * the grant-closure lemma (`adminref_core::verify`): saturation over
//!   an alphabet with revokes is always definitive and agrees with
//!   unsliced, unescalated BFS, in all four authorization modes, with
//!   `♦` terms of both UA and RH edges assigned;
//! * the DPLL-grounded bounded model checker never contradicts a
//!   definite BFS answer on general (revocation-capable) instances, and
//!   matches it whenever the BFS finds a witness within the BMC bound;
//! * the `perm_reachable` escalation path gives the same answers as
//!   `verify_perm_reachable`, and neither is ever `Unknown`;
//! * grow-only workloads are never `Unknown`, no matter how starved the
//!   bounded search is (`max_states = 0` included).
//!
//! Every returned witness replays through `run_pure` to the goal.

use adminref_core::prelude::*;
use adminref_core::safety::{prepare_alphabet, prepare_toggles};
use adminref_core::verify::bmc;
use adminref_workloads::{grow_only, GrowOnlySpec};
use proptest::prelude::*;

const USERS: usize = 4;
const ROLES: usize = 5;

/// Blueprint for one random policy (index lists shrink well).
#[derive(Clone, Debug)]
struct PolicySpec {
    ua: Vec<(u8, u8)>,
    rh: Vec<(u8, u8)>,
    /// (role, privilege blueprint)
    pa: Vec<(u8, PrivSpec)>,
}

#[derive(Clone, Debug)]
enum PrivSpec {
    Perm(u8),
    GrantUserRole(u8, u8),
    GrantRoleRole(u8, u8),
    RevokeUserRole(u8, u8),
    RevokeRoleRole(u8, u8),
}

/// Any privilege: a permission, or a grant or revoke of a UA or RH edge.
fn priv_spec() -> impl Strategy<Value = PrivSpec> {
    let (u, r) = (0u8..USERS as u8, 0u8..ROLES as u8);
    prop_oneof![
        2 => (0u8..3).prop_map(PrivSpec::Perm),
        2 => (u.clone(), r.clone()).prop_map(|(u, r)| PrivSpec::GrantUserRole(u, r)),
        2 => (r.clone(), r.clone()).prop_map(|(a, b)| PrivSpec::GrantRoleRole(a, b)),
        1 => (u, r.clone()).prop_map(|(u, r)| PrivSpec::RevokeUserRole(u, r)),
        1 => (r.clone(), r).prop_map(|(a, b)| PrivSpec::RevokeRoleRole(a, b)),
    ]
}

/// Revocation-capable policies over 4 users and 5 roles.
fn policy_spec() -> impl Strategy<Value = PolicySpec> {
    (
        prop::collection::vec(((0u8..USERS as u8), (0u8..ROLES as u8)), 0..4),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..ROLES as u8)), 0..5),
        prop::collection::vec(((0u8..ROLES as u8), priv_spec()), 0..5),
    )
        .prop_map(|(ua, rh, pa)| PolicySpec { ua, rh, pa })
}

/// Revocation-capable policies over 2 users, 3 roles and 2 permissions,
/// each with a permission holder and several administrative
/// privileges: small enough that many queries are reachable within a
/// few steps.
fn dense_policy_spec() -> impl Strategy<Value = PolicySpec> {
    let (u, r) = (0u8..2, 0u8..3);
    let admin = prop_oneof![
        2 => (u.clone(), r.clone()).prop_map(|(u, r)| PrivSpec::GrantUserRole(u, r)),
        1 => (r.clone(), r.clone()).prop_map(|(a, b)| PrivSpec::GrantRoleRole(a, b)),
        1 => (u.clone(), r.clone()).prop_map(|(u, r)| PrivSpec::RevokeUserRole(u, r)),
        1 => (r.clone(), r.clone()).prop_map(|(a, b)| PrivSpec::RevokeRoleRole(a, b)),
    ];
    (
        prop::collection::vec((u, r.clone()), 2..5),
        prop::collection::vec((r.clone(), r.clone()), 0..2),
        prop::collection::vec((r.clone(), (0u8..2).prop_map(PrivSpec::Perm)), 1..3),
        prop::collection::vec((r, admin), 3..7),
    )
        .prop_map(|(ua, rh, mut pa, admin)| {
            pa.extend(admin);
            PolicySpec { ua, rh, pa }
        })
}

fn build(spec: &PolicySpec) -> (Universe, Policy, Vec<UserId>) {
    let mut uni = Universe::new();
    let users: Vec<UserId> = (0..USERS).map(|i| uni.user(&format!("u{i}"))).collect();
    let roles: Vec<RoleId> = (0..ROLES).map(|i| uni.role(&format!("r{i}"))).collect();
    let mut policy = Policy::new(&uni);
    for &(u, r) in &spec.ua {
        policy.add_edge(Edge::UserRole(users[u as usize], roles[r as usize]));
    }
    for &(a, b) in &spec.rh {
        policy.add_edge(Edge::RoleRole(roles[a as usize], roles[b as usize]));
    }
    for (r, ps) in &spec.pa {
        let p = match ps {
            PrivSpec::Perm(i) => {
                let perm = uni.perm(["read", "write", "prnt"][*i as usize % 3], "obj");
                uni.priv_perm(perm)
            }
            PrivSpec::GrantUserRole(u, r) => {
                uni.grant_user_role(users[*u as usize], roles[*r as usize])
            }
            PrivSpec::GrantRoleRole(a, b) => {
                uni.grant_role_role(roles[*a as usize], roles[*b as usize])
            }
            PrivSpec::RevokeUserRole(u, r) => {
                uni.revoke_user_role(users[*u as usize], roles[*r as usize])
            }
            PrivSpec::RevokeRoleRole(a, b) => {
                let edge = Edge::RoleRole(roles[*a as usize], roles[*b as usize]);
                uni.priv_revoke(edge)
            }
        };
        policy.add_edge(Edge::RolePriv(roles[*r as usize], p));
    }
    (uni, policy, users)
}

fn answer_tag(a: &ReachabilityAnswer) -> &'static str {
    match a {
        ReachabilityAnswer::Reachable { .. } => "reachable",
        ReachabilityAnswer::Unreachable => "unreachable",
        ReachabilityAnswer::Unknown { .. } => "unknown",
    }
}

/// Replays `witness` from `root` and checks the target is reached in
/// the final policy.
fn witness_is_valid(
    uni: &mut Universe,
    root: &Policy,
    witness: &CommandQueue,
    entity: Entity,
    target: PrivId,
    mode: AuthMode,
) -> bool {
    let final_policy = run_pure(uni, root, witness, mode);
    ReachIndex::build(uni, &final_policy).reach_priv(entity, target)
}

/// Bounds generous enough that the bounded search is definite on most
/// generated instances, without ever being *required* to be.
fn generous() -> SafetyConfig {
    SafetyConfig {
        max_steps: 3,
        max_states: 4_000,
        escalate: false,
        ..SafetyConfig::default()
    }
}

/// Every authorization mode.
const MODES: [AuthMode; 4] = [
    AuthMode::Explicit,
    AuthMode::Ordered(OrderingMode::Strict),
    AuthMode::Ordered(OrderingMode::Extended),
    AuthMode::Ordered(OrderingMode::ExtendedWithRevocation),
];

/// The grant-closure lemma on one query. Saturation over the full
/// quotient (revokes included) is definitive; wherever unsliced,
/// unescalated BFS is definite, the two agree; `verify_perm_reachable`
/// (sliced) agrees with both; and every witness replays to the goal.
fn saturation_agrees_with_bfs(
    uni: &mut Universe,
    policy: &Policy,
    entity: Entity,
    perm: Perm,
    auth_mode: AuthMode,
) {
    let target = uni.priv_perm(perm);
    let config = SafetyConfig {
        auth_mode,
        weaker_depth: Some(1),
        slice: false,
        ..generous()
    };
    let alphabet = prepare_toggles(uni, policy, config);
    let outcome = saturate(uni, policy, &alphabet, auth_mode, entity, target);
    let tag = answer_tag(&outcome.answer);
    assert_ne!(tag, "unknown", "saturation is definitive");
    let bfs = perm_reachable(uni, policy, entity, perm, config);
    if answer_tag(&bfs) != "unknown" {
        assert_eq!(answer_tag(&bfs), tag, "{auth_mode:?}: BFS {bfs:?}");
    }
    let sliced = SafetyConfig {
        slice: true,
        ..config
    };
    let report = verify_perm_reachable(uni, policy, entity, perm, sliced);
    assert_eq!(answer_tag(&report.answer), tag, "{auth_mode:?}: verify");
    for answer in [&outcome.answer, &report.answer] {
        if let ReachabilityAnswer::Reachable { witness } = answer {
            assert!(
                witness_is_valid(uni, policy, witness, entity, target, auth_mode),
                "{auth_mode:?}: {witness:?} does not replay to the goal"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The grant-closure lemma on random revocation-capable instances:
    /// in every authorization mode, saturation over the full alphabet
    /// (revokes included) is definitive and agrees with BFS wherever
    /// BFS is definite.
    #[test]
    fn saturation_agrees_with_bfs_on_revocation_capable_instances(
        spec in policy_spec(),
        ui in 0u8..USERS as u8,
        pi in 0u8..3,
    ) {
        let (mut uni, policy, users) = build(&spec);
        let perm = uni.perm(["read", "write", "prnt"][pi as usize], "obj");
        for mode in MODES {
            let entity = Entity::User(users[ui as usize]);
            saturation_agrees_with_bfs(&mut uni, &policy, entity, perm, mode);
        }
    }

    /// The same lemma on dense instances, where many queries are
    /// reachable, so witnesses are exercised: every user × permission,
    /// in every authorization mode, the three ordered ones expanding
    /// the alphabet with ⊑-weaker commands.
    #[test]
    fn saturation_agrees_with_bfs_under_ordered_mode(spec in dense_policy_spec()) {
        let (mut uni, policy, users) = build(&spec);
        let perms = ["read", "write"].map(|action| uni.perm(action, "obj"));
        for (&user, perm) in users.iter().take(2).flat_map(|u| perms.map(|p| (u, p))) {
            for mode in MODES {
                saturation_agrees_with_bfs(&mut uni, &policy, Entity::User(user), perm, mode);
            }
        }
    }

    /// On general (revocation-capable) explicit-mode instances the
    /// model checker never contradicts a definite BFS answer: a BFS
    /// witness within the bound forces SAT (with a valid witness of the
    /// same length), and a BFS exhaustion refutation forbids SAT at any
    /// bound. Every user × permission of the policy is a query, so the
    /// witness branch is exercised, not just the refutations.
    #[test]
    fn bmc_never_contradicts_a_definite_bfs_answer(spec in dense_policy_spec()) {
        let (mut uni, policy, users) = build(&spec);
        let config = generous();
        let perms = ["read", "write", "prnt"].map(|action| uni.perm(action, "obj"));
        let alphabet = prepare_alphabet(&mut uni, &policy, config);
        for (&user, perm) in users.iter().flat_map(|u| perms.map(|p| (u, p))) {
            let entity = Entity::User(user);
            let target = uni.priv_perm(perm);
            if ReachIndex::build(&uni, &policy).reach_priv(entity, target) {
                // Root-reachable: nothing to check, both engines short-circuit.
                continue;
            }
            let bfs = perm_reachable(&mut uni, &policy, entity, perm, config);
            let report = bmc::check(&uni, &policy, &alphabet, entity, target, BmcConfig::default());
            match (&bfs, &report.outcome) {
                // max_steps = 3 ≤ the default BMC bound, so the model
                // checker must find a witness, and as short a one: its
                // first satisfiable bound is the BFS depth, and a model
                // with fewer real steps would have satisfied a smaller
                // bound.
                (ReachabilityAnswer::Reachable { witness }, BmcOutcome::Reachable { witness: w }) => {
                    prop_assert_eq!(w.len(), witness.len(), "both engines return shortest runs");
                    prop_assert!(witness_is_valid(
                        &mut uni, &policy, w, entity, target, config.auth_mode,
                    ));
                }
                (ReachabilityAnswer::Reachable { witness }, outcome) => {
                    prop_assert!(
                        false,
                        "BFS witness of {} step(s) but BMC said {:?}",
                        witness.len(),
                        outcome
                    );
                }
                (ReachabilityAnswer::Unreachable, BmcOutcome::Reachable { witness }) => {
                    prop_assert!(false, "BFS exhausted the space but BMC found {:?}", witness);
                }
                // BMC `Unreachable` comes from the recurrence-diameter
                // closure and so is definitive; it must not contradict a
                // BFS witness (covered above). `Inconclusive` is always
                // allowed against a definite refutation.
                _ => {}
            }
        }
    }

    /// The `perm_reachable` escalation path (bounded search starved to
    /// `max_states = 2`, then saturation) is always definitive, agrees
    /// with a generously-bounded definite BFS, and
    /// `verify_perm_reachable` reports the same answer.
    #[test]
    fn escalation_agrees_with_generous_bfs(
        spec in policy_spec(),
        ui in 0u8..USERS as u8,
        pi in 0u8..3,
    ) {
        let (mut uni, policy, users) = build(&spec);
        let entity = Entity::User(users[ui as usize]);
        let perm = uni.perm(["read", "write", "prnt"][pi as usize], "obj");
        let target = uni.priv_perm(perm);
        let reference = perm_reachable(&mut uni, &policy, entity, perm, generous());
        let starved = SafetyConfig {
            max_states: 2,
            escalate: true,
            ..generous()
        };
        let escalated = perm_reachable(&mut uni, &policy, entity, perm, starved);
        let report = verify_perm_reachable(&mut uni, &policy, entity, perm, starved);
        prop_assert_ne!(answer_tag(&escalated), "unknown", "escalation is definitive");
        if answer_tag(&reference) != "unknown" {
            prop_assert_eq!(answer_tag(&reference), answer_tag(&escalated));
        }
        prop_assert_eq!(answer_tag(&escalated), answer_tag(&report.answer));
        for answer in [&escalated, &report.answer] {
            if let ReachabilityAnswer::Reachable { witness } = answer {
                prop_assert!(witness_is_valid(
                    &mut uni, &policy, witness, entity, target, starved.auth_mode,
                ));
            }
        }
    }
}

/// Regression: a wide grow-only workload is never `Unknown`, no matter
/// how starved the bounded search is — `max_states = 0` starves BFS
/// immediately and the saturation engine still closes both polarities.
#[test]
fn wide_grow_only_workloads_are_never_unknown() {
    let mut w = grow_only(GrowOnlySpec {
        width: 64,
        users: 3,
    });
    let admin = w.admin;
    let member = w.members[0];
    for max_states in [0usize, 1, 4] {
        let config = SafetyConfig {
            max_steps: 1,
            max_states,
            ..SafetyConfig::default()
        };
        let hit = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(member),
            w.goal_perm,
            config,
        );
        assert!(
            matches!(hit, ReachabilityAnswer::Reachable { .. }),
            "max_states={max_states}: {hit:?}"
        );
        let miss = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(member),
            w.absent_perm,
            config,
        );
        assert!(
            matches!(miss, ReachabilityAnswer::Unreachable),
            "max_states={max_states}: {miss:?}"
        );
        // The admin's own grant privileges are not the goal permission.
        let admin_miss = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(admin),
            w.absent_perm,
            config,
        );
        assert!(matches!(admin_miss, ReachabilityAnswer::Unreachable));
    }
}
