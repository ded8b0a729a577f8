//! Property-based tests for the core calculus.
//!
//! Policies are generated from a small fixed vocabulary (4 users, 6 roles,
//! 3 perms) with random `UA`/`RH`/`PA†` edges including nested
//! administrative privileges, then the paper's claimed laws are checked:
//! ordering laws (reflexivity, transitivity, Strict ⊆ Extended),
//! BFS/index agreement, refinement partial-order laws, enumeration
//! soundness, and Theorem 1 end-to-end against the bounded simulation.

use adminref_core::prelude::*;
use proptest::prelude::*;

const USERS: usize = 4;
const ROLES: usize = 6;

/// Blueprint for one random policy, as index lists (kept `Debug`-friendly
/// for proptest shrinking).
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
    /// grant(role, nested)
    GrantNested(u8, Box<PrivSpec>),
}

fn priv_spec(depth: u32) -> BoxedStrategy<PrivSpec> {
    let leaf = prop_oneof![
        (0u8..3).prop_map(PrivSpec::Perm),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::GrantUserRole(u, r)),
        ((0u8..ROLES as u8), (0u8..ROLES as u8)).prop_map(|(a, b)| PrivSpec::GrantRoleRole(a, b)),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::RevokeUserRole(u, r)),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        let inner = priv_spec(depth - 1);
        prop_oneof![
            3 => leaf,
            1 => ((0u8..ROLES as u8), inner)
                .prop_map(|(r, p)| PrivSpec::GrantNested(r, Box::new(p))),
        ]
        .boxed()
    }
}

fn policy_spec() -> impl Strategy<Value = PolicySpec> {
    (
        prop::collection::vec(((0u8..USERS as u8), (0u8..ROLES as u8)), 0..5),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..ROLES as u8)), 0..7),
        prop::collection::vec(((0u8..ROLES as u8), priv_spec(2)), 0..5),
    )
        .prop_map(|(ua, rh, pa)| PolicySpec { ua, rh, pa })
}

fn build_priv(uni: &mut Universe, users: &[UserId], roles: &[RoleId], spec: &PrivSpec) -> PrivId {
    match spec {
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
        PrivSpec::GrantNested(r, inner) => {
            let p = build_priv(uni, users, roles, inner);
            uni.grant_role_priv(roles[*r as usize], p)
        }
    }
}

fn build(spec: &PolicySpec) -> (Universe, Policy, Vec<UserId>, Vec<RoleId>) {
    let mut uni = Universe::new();
    let users: Vec<UserId> = (0..USERS).map(|i| uni.user(&format!("u{i}"))).collect();
    let roles: Vec<RoleId> = (0..ROLES).map(|i| uni.role(&format!("r{i}"))).collect();
    let policy = policy_in(&mut uni, &users, &roles, spec);
    (uni, policy, users, roles)
}

/// The policy `spec` describes, over an existing vocabulary.
fn policy_in(uni: &mut Universe, users: &[UserId], roles: &[RoleId], spec: &PolicySpec) -> Policy {
    let mut policy = Policy::new(uni);
    for &(u, r) in &spec.ua {
        policy.add_edge(Edge::UserRole(users[u as usize], roles[r as usize]));
    }
    for &(a, b) in &spec.rh {
        policy.add_edge(Edge::RoleRole(roles[a as usize], roles[b as usize]));
    }
    for (r, ps) in &spec.pa {
        let p = build_priv(uni, users, roles, ps);
        policy.add_edge(Edge::RolePriv(roles[*r as usize], p));
    }
    policy
}

/// All policy-relevant terms: assigned vertices plus a few fresh ones.
fn term_pool(
    uni: &mut Universe,
    policy: &Policy,
    users: &[UserId],
    roles: &[RoleId],
) -> Vec<PrivId> {
    let mut terms: Vec<PrivId> = policy.priv_vertices().into_iter().collect();
    terms.push(uni.grant_user_role(users[0], roles[0]));
    terms.push(uni.grant_user_role(users[1], roles[ROLES - 1]));
    terms.push(uni.grant_role_role(roles[0], roles[1]));
    let nested = uni.grant_role_priv(roles[2], terms[terms.len() - 1]);
    terms.push(nested);
    terms.sort_unstable();
    terms.dedup();
    terms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_and_index_reachability_agree(spec in policy_spec()) {
        let (uni, policy, users, roles) = build(&spec);
        let idx = ReachIndex::build(&uni, &policy);
        let entities: Vec<Entity> = users.iter().map(|&u| Entity::User(u))
            .chain(roles.iter().map(|&r| Entity::Role(r))).collect();
        for &a in &entities {
            for &b in &entities {
                prop_assert_eq!(idx.reach_entity(a, b), reaches_entity(&policy, a, b));
            }
            for p in policy.priv_vertices() {
                prop_assert_eq!(
                    idx.reach_priv(a, p),
                    reaches(&policy, a.into(), Node::Priv(p))
                );
            }
        }
    }

    /// The add-edge split lemma: wherever `entity →φ target` fails,
    /// the parent index's one-edge probe agrees with rebuilding the
    /// index over `φ + edge`, for every absent edge of the vocabulary.
    #[test]
    fn split_lemma_agrees_with_a_rebuilt_index(spec in policy_spec()) {
        let (uni, policy, users, roles) = build(&spec);
        let idx = ReachIndex::build(&uni, &policy);
        let entities: Vec<Entity> = users.iter().map(|&u| Entity::User(u))
            .chain(roles.iter().map(|&r| Entity::Role(r))).collect();
        let targets = policy.priv_vertices();
        let mut absent: Vec<Edge> = Vec::new();
        for &r in &roles {
            absent.extend(users.iter().map(|&u| Edge::UserRole(u, r)));
            absent.extend(roles.iter().map(|&s| Edge::RoleRole(s, r)));
            absent.extend(targets.iter().map(|&p| Edge::RolePriv(r, p)));
        }
        absent.retain(|&e| !policy.contains_edge(e));
        for edge in absent {
            let mut grown = policy.clone();
            grown.add_edge(edge);
            let rebuilt = ReachIndex::build(&uni, &grown);
            for &entity in &entities {
                for &target in &targets {
                    if idx.reach_priv(entity, target) {
                        continue;
                    }
                    prop_assert_eq!(
                        idx.reach_priv_via_added_edge(entity, target, edge),
                        rebuilt.reach_priv(entity, target),
                        "{:?} -> {:?} after adding {:?}", entity, target, edge
                    );
                }
            }
        }
    }

    #[test]
    fn ordering_is_reflexive_and_transitive(spec in policy_spec()) {
        let (mut uni, policy, users, roles) = build(&spec);
        let terms = term_pool(&mut uni, &policy, &users, &roles);
        for mode in [OrderingMode::Strict, OrderingMode::Extended, OrderingMode::ExtendedWithRevocation] {
            let order = PrivilegeOrder::new(&uni, &policy, mode);
            for &a in &terms {
                prop_assert!(order.is_weaker(a, a));
            }
            for &a in &terms {
                for &b in &terms {
                    if !order.is_weaker(a, b) { continue; }
                    for &c in &terms {
                        if order.is_weaker(b, c) {
                            prop_assert!(order.is_weaker(a, c), "transitivity in {:?}", mode);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strict_is_subset_of_extended(spec in policy_spec()) {
        let (mut uni, policy, users, roles) = build(&spec);
        let terms = term_pool(&mut uni, &policy, &users, &roles);
        let strict = PrivilegeOrder::new(&uni, &policy, OrderingMode::Strict);
        let ext = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        let rev = PrivilegeOrder::new(&uni, &policy, OrderingMode::ExtendedWithRevocation);
        for &a in &terms {
            for &b in &terms {
                if strict.is_weaker(a, b) {
                    prop_assert!(ext.is_weaker(a, b));
                }
                if ext.is_weaker(a, b) {
                    prop_assert!(rev.is_weaker(a, b));
                }
            }
        }
    }

    #[test]
    fn derivations_exist_iff_weaker(spec in policy_spec()) {
        let (mut uni, policy, users, roles) = build(&spec);
        let terms = term_pool(&mut uni, &policy, &users, &roles);
        for mode in [OrderingMode::Strict, OrderingMode::Extended] {
            let order = PrivilegeOrder::new(&uni, &policy, mode);
            for &a in &terms {
                for &b in &terms {
                    prop_assert_eq!(order.is_weaker(a, b), order.derive(a, b).is_some());
                }
            }
        }
    }

    #[test]
    fn refinement_is_a_preorder(spec in policy_spec(), spec2 in policy_spec()) {
        // Reflexivity on one policy; transitivity through an edge-removed
        // middle policy.
        let (uni, policy, _, _) = build(&spec);
        prop_assert!(refines(&uni, &policy, &policy));
        let _ = spec2; // reserved for cross-policy checks below
        let mut middle = policy.clone();
        if let Some(edge) = policy.edges().next() {
            middle.remove_edge(edge);
        }
        let mut bottom = middle.clone();
        if let Some(edge) = middle.edges().last() {
            bottom.remove_edge(edge);
        }
        prop_assert!(refines(&uni, &policy, &middle));
        prop_assert!(refines(&uni, &middle, &bottom));
        prop_assert!(refines(&uni, &policy, &bottom), "transitivity");
    }

    #[test]
    fn edge_removal_always_refines(spec in policy_spec()) {
        let (uni, policy, _, _) = build(&spec);
        for edge in policy.edges().collect::<Vec<_>>() {
            let mut psi = policy.clone();
            psi.remove_edge(edge);
            prop_assert!(refines(&uni, &policy, &psi));
        }
    }

    #[test]
    fn enumeration_is_sound(spec in policy_spec()) {
        let (mut uni, policy, users, roles) = build(&spec);
        let terms = term_pool(&mut uni, &policy, &users, &roles);
        let config = EnumerationConfig { max_depth: 3, max_results: 2000, mode: OrderingMode::Extended };
        for &p in terms.iter().take(4) {
            let set = enumerate_weaker(&mut uni, &policy, p, config);
            let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
            for &q in &set.privileges {
                prop_assert!(order.is_weaker(p, q), "enumerated element not weaker");
            }
        }
    }

    #[test]
    fn theorem1_holds_on_random_weakenings(spec in policy_spec()) {
        // For every assigned administrative grant p and every weaker q from
        // the pool, the weakened policy is a bounded administrative
        // refinement.
        let (mut uni, policy, users, roles) = build(&spec);
        let terms = term_pool(&mut uni, &policy, &users, &roles);
        let assignments: Vec<(RoleId, PrivId)> = policy.pa()
            .filter(|&(_, p)| matches!(uni.term(p), PrivTerm::Grant(_)))
            .collect();
        let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
        let mut weakenings: Vec<(RoleId, PrivId, PrivId)> = Vec::new();
        for &(r, p) in assignments.iter().take(2) {
            for &q in terms.iter() {
                if q != p && order.is_weaker(p, q) && matches!(uni.term(q), PrivTerm::Grant(_)) {
                    weakenings.push((r, p, q));
                }
            }
        }
        drop(order);
        for (r, p, q) in weakenings.into_iter().take(3) {
            let psi = weaken_assignment(&policy, (r, p), q);
            let out = check_admin_refinement(
                &uni, &policy, &psi,
                SimulationConfig { max_queue_len: 2, ..SimulationConfig::default() },
            );
            prop_assert!(out.holds(), "Theorem 1 refuted: {:?}", out);
        }
    }

    #[test]
    fn unauthorized_runs_never_change_policies(spec in policy_spec()) {
        // A user with no roles and no privileges can never change anything.
        let (mut uni, policy, _, roles) = build(&spec);
        let ghost = uni.user("ghost");
        let mut mutated = policy.clone();
        let queue: CommandQueue = [
            Command::grant(ghost, Edge::UserRole(ghost, roles[0])),
            Command::revoke(ghost, Edge::RoleRole(roles[0], roles[1])),
        ].into_iter().collect();
        let trace = run(&mut uni, &mut mutated, &queue, AuthMode::Explicit);
        prop_assert_eq!(trace.executed_count(), 0);
        prop_assert_eq!(&mutated, &policy);
    }

    #[test]
    fn ordered_mode_executes_superset_of_explicit(spec in policy_spec()) {
        // Every command explicit mode authorizes, ordered mode authorizes
        // too (reflexivity of ⊑).
        let (mut uni, policy, _, _) = build(&spec);
        let alphabet = command_alphabet(&uni, &[&policy]);
        for cmd in alphabet.iter().take(40) {
            let explicit = authorize(&mut uni, &policy, cmd, AuthMode::Explicit).is_some();
            if explicit {
                let ordered = authorize(
                    &mut uni, &policy, cmd,
                    AuthMode::Ordered(OrderingMode::Extended),
                ).is_some();
                prop_assert!(ordered, "ordered must subsume explicit");
            }
        }
    }

    #[test]
    fn validation_accepts_generated_policies(spec in policy_spec()) {
        let (uni, policy, _, _) = build(&spec);
        prop_assert!(adminref_core::analysis::validate(&uni, &policy).is_ok());
    }

    #[test]
    fn stats_are_consistent(spec in policy_spec()) {
        let (uni, policy, _, _) = build(&spec);
        let s = adminref_core::analysis::stats(&uni, &policy);
        prop_assert_eq!(s.ua_edges + s.rh_edges + s.pa_edges, policy.edge_count());
        prop_assert!(s.admin_vertices <= s.priv_vertices);
        prop_assert!(s.hierarchy_sccs <= uni.role_count());
    }
}

/// The answer variants of two reachability results, for comparison.
fn answer_tag(a: &ReachabilityAnswer) -> &'static str {
    match a {
        ReachabilityAnswer::Reachable { .. } => "reachable",
        ReachabilityAnswer::Unreachable => "unreachable",
        ReachabilityAnswer::Unknown { .. } => "unknown",
    }
}

/// Replays `witness` from `policy` and checks the entity really reaches
/// the target privilege in the final policy.
fn witness_is_valid(
    uni: &mut Universe,
    policy: &Policy,
    witness: &CommandQueue,
    entity: Entity,
    target: PrivId,
    mode: AuthMode,
) -> bool {
    let final_policy = run_pure(uni, policy, witness, mode);
    ReachIndex::build(uni, &final_policy).reach_priv(entity, target)
}

// The search-engine equivalence suite runs whole bounded searches per
// case, so it gets a smaller case budget than the algebraic laws above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compact-state engine and the clone-based reference BFS agree on the answer variant, produce
    /// equally long witnesses, and every witness replays to a policy
    /// where the target is reached.
    #[test]
    fn search_engines_agree(spec in policy_spec(), ui in 0u8..USERS as u8, pi in 0u8..3) {
        let (mut uni, policy, users, _) = build(&spec);
        let entity = Entity::User(users[ui as usize]);
        let perm = uni.perm(["read", "write", "prnt"][pi as usize], "obj");
        let target = uni.priv_perm(perm);
        // `escalate: false`: the clone-based reference never escalates,
        // so the equality discipline here is over the raw bounded
        // answers (escalation agreement has its own suite in
        // `tests/verify_unbounded.rs`).
        // `slice: false`: the reference explores the full alphabet, so
        // the compared engines must too (a sliced search may say
        // Unreachable where the truncated full search says Unknown).
        let config = SafetyConfig {
            max_steps: 2,
            max_states: 300,
            escalate: false,
            slice: false,
            ..SafetyConfig::default()
        };
        let reference = find_reachable_clone(&mut uni, &policy, config, |u, p| {
            ReachIndex::build(u, p).reach_priv(entity, target)
        });
        let engine = perm_reachable(&mut uni, &policy, entity, perm, config);
        prop_assert_eq!(answer_tag(&reference), answer_tag(&engine));
        if let ReachabilityAnswer::Reachable { witness: reference_witness } = &reference {
            let ReachabilityAnswer::Reachable { witness: engine_witness } = &engine else {
                unreachable!("variants already matched");
            };
            // Equally long (shortest) witnesses, both of them valid.
            prop_assert_eq!(reference_witness.len(), engine_witness.len());
            for w in [reference_witness, engine_witness] {
                prop_assert!(witness_is_valid(
                    &mut uni, &policy, w, entity, target, config.auth_mode,
                ));
            }
        }
    }

    /// Same equivalence under ordered authorization, where the alphabet
    /// is expanded with ⊑-weaker commands and authorization runs
    /// through the privilege order.
    #[test]
    fn search_engines_agree_ordered(spec in policy_spec(), ui in 0u8..USERS as u8) {
        let (mut uni, policy, users, _) = build(&spec);
        let entity = Entity::User(users[ui as usize]);
        let perm = uni.perm("write", "obj");
        let target = uni.priv_perm(perm);
        let config = SafetyConfig {
            max_steps: 2,
            max_states: 150,
            auth_mode: AuthMode::Ordered(OrderingMode::Extended),
            weaker_depth: Some(1),
            escalate: false,
            slice: false,
            ..SafetyConfig::default()
        };
        let reference = find_reachable_clone(&mut uni, &policy, config, |u, p| {
            ReachIndex::build(u, p).reach_priv(entity, target)
        });
        let engine = perm_reachable(&mut uni, &policy, entity, perm, config);
        prop_assert_eq!(answer_tag(&reference), answer_tag(&engine));
        if let (
            ReachabilityAnswer::Reachable { witness: a },
            ReachabilityAnswer::Reachable { witness: b },
        ) = (&reference, &engine) {
            prop_assert_eq!(a.len(), b.len());
            for w in [a, b] {
                prop_assert!(witness_is_valid(
                    &mut uni, &policy, w, entity, target, config.auth_mode,
                ));
            }
        }
    }
}

/// Definition 6 by brute force: every `(v, p) ∈ (U ∪ R) × P`, users then
/// roles and permissions in order, with `v →ψ p ∧ ¬ v →φ p` decided by
/// graph search.
fn naive_violations(uni: &Universe, phi: &Policy, psi: &Policy) -> Vec<RefinementViolation> {
    let mut perms: Vec<(Perm, PrivId)> = uni
        .priv_ids()
        .filter_map(|p| match uni.term(p) {
            PrivTerm::Perm(q) => Some((q, p)),
            _ => None,
        })
        .collect();
    perms.sort_unstable();
    let entities = uni
        .users()
        .map(Entity::User)
        .chain(uni.roles().map(Entity::Role));
    let mut out = Vec::new();
    for entity in entities {
        for &(perm, p) in &perms {
            let to = Node::Priv(p);
            if reaches(psi, entity.into(), to) && !reaches(phi, entity.into(), to) {
                out.push(RefinementViolation { entity, perm });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Definition-6 check scans only the entities that reach an edge
    /// of `ψ ∖ φ`; it must still report exactly the brute-force
    /// violations, in order, in both directions. Pairs are unrelated
    /// (shape 0) or differ by one edge added (1), removed (2) or moved
    /// (3).
    #[test]
    fn nonadmin_refinement_matches_naive_enumeration(
        spec in policy_spec(),
        other in policy_spec(),
        shape in 0u8..4,
        pick in 0usize..64,
    ) {
        let (mut uni, phi, users, roles) = build(&spec);
        let other = policy_in(&mut uni, &users, &roles, &other);
        let mut psi = phi.clone();
        if shape == 0 {
            psi = other;
        } else {
            let edges: Vec<Edge> = phi.edges().collect();
            if shape >= 2 && !edges.is_empty() {
                psi.remove_edge(edges[pick % edges.len()]);
            }
            if shape != 2 {
                let fresh: Vec<Edge> = other.edges().filter(|&e| !phi.contains_edge(e)).collect();
                if !fresh.is_empty() {
                    psi.add_edge(fresh[pick % fresh.len()]);
                }
            }
        }
        for (a, b) in [(&phi, &psi), (&psi, &phi)] {
            let expected = naive_violations(&uni, a, b);
            prop_assert_eq!(&refinement_violations(&uni, a, b), &expected);
            prop_assert_eq!(refines(&uni, a, b), expected.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The search's alphabet is quotiented by actor: users who hold
    /// nothing add no entries (idle ones none at all, assigned ones only
    /// the toggles of their own assignment edges), and change neither
    /// the answer nor the witness.
    #[test]
    fn extra_users_leave_the_quotient_and_the_answer_alone(
        spec in policy_spec(),
        ui in 0u8..USERS as u8,
        pi in 0u8..3,
        idle in 0usize..3,
        assigned in 0usize..3,
    ) {
        let config = SafetyConfig {
            max_steps: 2,
            max_states: 300,
            escalate: false,
            slice: false,
            ..SafetyConfig::default()
        };
        let ask = |uni: &mut Universe, policy: &Policy, entity: Entity| {
            let perm = uni.perm(["read", "write", "prnt"][pi as usize], "obj");
            let toggles = adminref_core::safety::prepare_toggles(uni, policy, config);
            let toggles: Vec<(Edge, CommandKind)> = toggles.iter().map(|t| (t.edge, t.kind)).collect();
            (toggles, perm_reachable(uni, policy, entity, perm, config))
        };
        let (mut uni, policy, users, _) = build(&spec);
        let entity = Entity::User(users[ui as usize]);
        let (before, answer) = ask(&mut uni, &policy, entity);

        let (mut uni, mut policy, _, _) = build(&spec);
        for i in 0..idle {
            uni.user(&format!("idle{i}"));
        }
        let empty = uni.role("empty");
        let mut added = Vec::new();
        for i in 0..assigned {
            let edge = Edge::UserRole(uni.user(&format!("extra{i}")), empty);
            policy.add_edge(edge);
            added.push(edge);
        }
        let (after, crowded) = ask(&mut uni, &policy, entity);
        prop_assert_eq!(after.len(), before.len() + 2 * assigned);
        let kept: Vec<(Edge, CommandKind)> =
            after.into_iter().filter(|(e, _)| !added.contains(e)).collect();
        prop_assert_eq!(kept, before);
        prop_assert_eq!(answer_tag(&answer), answer_tag(&crowded));
        if let (
            ReachabilityAnswer::Reachable { witness: a },
            ReachabilityAnswer::Reachable { witness: b },
        ) = (&answer, &crowded) {
            prop_assert_eq!(a.commands(), b.commands());
        }
    }
}
