//! Differential tests for the static analyzer (`adminref_core::lint`).
//!
//! Slicing claims to be *sound*: a `perm_reachable` search over the
//! sliced alphabet gives the same answer as the full search wherever
//! either is definite. These properties pin that claim to the
//! executable ground truth in both authorization modes, and pin the
//! lint pass itself to its fixtures: the seeded-defect workload must
//! flag every defect class, the clean scenarios must stay finding-free,
//! and the checked-in `fixtures/lint_demo.expected.json` must match
//! what the analyzer produces today (so the CI byte-diff lane and the
//! repo can never drift apart silently).

use adminref_core::prelude::*;
use adminref_workloads::{
    cone, deep_delegation, grow_only, seeded_defects, ConeSpec, DelegationSpec, GrowOnlySpec,
};
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
}

fn priv_spec() -> BoxedStrategy<PrivSpec> {
    prop_oneof![
        (0u8..3).prop_map(PrivSpec::Perm),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::GrantUserRole(u, r)),
        ((0u8..ROLES as u8), (0u8..ROLES as u8)).prop_map(|(a, b)| PrivSpec::GrantRoleRole(a, b)),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::RevokeUserRole(u, r)),
    ]
    .boxed()
}

fn policy_spec() -> impl Strategy<Value = PolicySpec> {
    (
        prop::collection::vec(((0u8..USERS as u8), (0u8..ROLES as u8)), 0..4),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..ROLES as u8)), 0..5),
        prop::collection::vec(((0u8..ROLES as u8), priv_spec()), 0..6),
    )
        .prop_map(|(ua, rh, pa)| PolicySpec { ua, rh, pa })
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

/// Bounds generous enough that both searches are definite on most
/// generated instances, without ever being *required* to be. Escalation
/// stays off so the comparison is purely bounded-search vs
/// bounded-search over the two alphabets.
fn generous(slice: bool) -> SafetyConfig {
    SafetyConfig {
        max_steps: 3,
        max_states: 4_000,
        escalate: false,
        slice,
        ..SafetyConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Explicit mode: wherever the sliced and the full bounded search
    /// are both definite they agree, and a sliced witness replays to a
    /// goal-reaching policy over the *original* semantics. A sliced
    /// definite answer against a full `Unknown` is fine (that is the
    /// point of slicing); a disagreement between two definite answers
    /// would be a soundness bug.
    #[test]
    fn sliced_search_agrees_with_unsliced(
        spec in policy_spec(),
        ui in 0u8..USERS as u8,
        pi in 0u8..3,
    ) {
        let (mut uni, policy, users) = build(&spec);
        let entity = Entity::User(users[ui as usize]);
        let perm = uni.perm(["read", "write", "prnt"][pi as usize], "obj");
        let target = uni.priv_perm(perm);
        let full = perm_reachable(&mut uni, &policy, entity, perm, generous(false));
        let sliced = perm_reachable(&mut uni, &policy, entity, perm, generous(true));
        if answer_tag(&full) != "unknown" && answer_tag(&sliced) != "unknown" {
            prop_assert_eq!(answer_tag(&full), answer_tag(&sliced));
        }
        if let ReachabilityAnswer::Reachable { witness } = &sliced {
            prop_assert!(witness_is_valid(
                &mut uni, &policy, witness, entity, target, AuthMode::Explicit,
            ));
        }
    }

    /// The same agreement under ordered (⊑-implicit) authorization,
    /// where the slice keeps every addable grant and only drops revokes
    /// and never-addable commands.
    #[test]
    fn sliced_search_agrees_with_unsliced_under_ordered_mode(
        spec in policy_spec(),
        ui in 0u8..USERS as u8,
    ) {
        let (mut uni, policy, users) = build(&spec);
        let entity = Entity::User(users[ui as usize]);
        let perm = uni.perm("write", "obj");
        let target = uni.priv_perm(perm);
        let ordered = |slice| SafetyConfig {
            auth_mode: AuthMode::Ordered(OrderingMode::Extended),
            weaker_depth: Some(1),
            max_states: 1_500,
            ..generous(slice)
        };
        let full = perm_reachable(&mut uni, &policy, entity, perm, ordered(false));
        let sliced = perm_reachable(&mut uni, &policy, entity, perm, ordered(true));
        if answer_tag(&full) != "unknown" && answer_tag(&sliced) != "unknown" {
            prop_assert_eq!(answer_tag(&full), answer_tag(&sliced));
        }
        if let ReachabilityAnswer::Reachable { witness } = &sliced {
            prop_assert!(witness_is_valid(
                &mut uni, &policy, witness, entity, target,
                AuthMode::Ordered(OrderingMode::Extended),
            ));
        }
    }
}

/// The named clean scenarios produce zero findings: the analyzer's
/// false-positive floor, CI-gated. (A finding here means a check fired
/// on a policy with no seeded defect.)
#[test]
fn clean_scenarios_produce_zero_findings() {
    let g = grow_only(GrowOnlySpec::default());
    let d = deep_delegation(DelegationSpec::default());
    let c = cone(ConeSpec::default());
    for (name, uni, policy) in [
        ("grow_only", &g.universe, &g.policy),
        ("deep_delegation", &d.universe, &d.policy),
        ("cone", &c.universe, &c.policy),
    ] {
        let report = lint_policy(uni, policy, &LintConfig::default());
        assert!(report.findings.is_empty(), "{name}: {:?}", report.findings);
    }
}

/// The seeded-defect workload trips every finding kind (with its SoD
/// pair declared), and nothing else.
#[test]
fn seeded_defects_trip_every_finding_kind() {
    let w = seeded_defects();
    let config = LintConfig {
        sod_pairs: vec![w.sod_pair],
        ..LintConfig::default()
    };
    let report = lint_policy(&w.universe, &w.policy, &config);
    for kind in [
        FindingKind::DeadCommand,
        FindingKind::Unauthorizable,
        FindingKind::RedundantGrant,
        FindingKind::ShadowedGrant,
        FindingKind::SodConflict,
    ] {
        assert!(
            report.findings.iter().any(|f| f.kind == kind),
            "missing {kind:?}: {:?}",
            report.findings
        );
    }
    assert_eq!(report.max_severity(), Some(Severity::Error));
}

/// The checked-in expectation for `fixtures/lint_demo.rbac` matches
/// what the analyzer produces today, byte for byte — the same diff
/// `crates/cli/tests/cli.rs` performs through the CLI. On an intentional
/// analyzer change, regenerate with
/// `adminref lint fixtures/lint_demo.rbac --sod pay,audit --json`.
#[test]
fn pinned_lint_demo_json_is_current() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/fixtures/lint_demo.rbac")).unwrap();
    let (uni, policy) = adminref_lang::load_policy(&text).unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let config = LintConfig {
        sod_pairs: vec![(pay, audit)],
        ..LintConfig::default()
    };
    let report = lint_policy(&uni, &policy, &config);
    let expected =
        std::fs::read_to_string(format!("{root}/fixtures/lint_demo.expected.json")).unwrap();
    let rendered = format!("{}\n", report.to_json(&uni, "fixtures/lint_demo.rbac"));
    assert_eq!(
        rendered, expected,
        "fixtures/lint_demo.expected.json is stale; regenerate it (see the fixture header)"
    );
}

/// Lint and the admission interval ask one authority. jane ∈ hr,
/// bob ∈ nurse, staff → nurse; hr holds `¤(bob, nurse)` and
/// `♦(bob, staff)`. Under `ExtendedWithRevocation`, `♦(bob, staff)` is
/// `⊑`-stronger than `♦(bob, nurse)`: jane's revoke of (bob, nurse)
/// executes, the edge is volatile, and hr's `¤(bob, nurse)` is no
/// dead command. The modes that order no revocation refuse the revoke,
/// freeze the edge and keep the finding.
#[test]
fn a_revoke_only_the_order_authorizes_keeps_lint_and_interval_agreed() {
    let mut b = PolicyBuilder::new()
        .assign("jane", "hr")
        .assign("bob", "nurse")
        .inherit("staff", "nurse");
    let (jane, bob, nurse, staff) = {
        let u = b.universe_mut();
        (
            u.find_user("jane").unwrap(),
            u.find_user("bob").unwrap(),
            u.find_role("nurse").unwrap(),
            u.find_role("staff").unwrap(),
        )
    };
    let grant = b.universe_mut().grant_user_role(bob, nurse);
    let strip = b.universe_mut().revoke_user_role(bob, staff);
    let (uni, policy) = b.assign_priv("hr", grant).assign_priv("hr", strip).finish();
    let edge = Edge::UserRole(bob, nurse);
    for (mode, revocable) in [
        (AuthMode::Explicit, false),
        (AuthMode::Ordered(OrderingMode::Extended), false),
        (
            AuthMode::Ordered(OrderingMode::ExtendedWithRevocation),
            true,
        ),
    ] {
        let (mut stepped_uni, mut stepped) = (uni.clone(), policy.clone());
        let revoke = Command::revoke(jane, edge);
        let outcome = step(&mut stepped_uni, &mut stepped, &revoke, mode);
        assert_eq!(outcome.executed(), revocable, "{mode:?}");
        let status = Interval::from_policy(&uni, &policy, mode).status(edge);
        let expected = if revocable {
            EdgeStatus::Volatile
        } else {
            EdgeStatus::Frozen
        };
        assert_eq!(status, expected, "{mode:?}");
        let config = LintConfig {
            auth_mode: mode,
            ..LintConfig::default()
        };
        let report = lint_policy(&uni, &policy, &config);
        let dead = report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DeadCommand && f.term == Some(grant));
        assert_eq!(dead, !revocable, "{mode:?}: {:?}", report.findings);
    }
}

/// The canonical hospital fixture is lint-clean — the analyzer does not
/// cry wolf on the paper's own policy.
#[test]
fn hospital_fixture_is_lint_clean() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/fixtures/hospital.rbac")).unwrap();
    let (uni, policy) = adminref_lang::load_policy(&text).unwrap();
    let report = lint_policy(&uni, &policy, &LintConfig::default());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
