//! Differential and end-to-end coverage for publish-time admission
//! control (`adminref_core::admission`).
//!
//! * The **interval invariant**: `Φ⁻ ⊆ edges(φ) ⊆ Φ⁺` for every policy
//!   `φ` an explicit-state BFS over authorized commands can reach, in
//!   both authorization modes. The BFS is the executable ground truth
//!   the closed-form interval is pinned to.
//! * **Gate ⇔ refusal**: over chains of batches, the monitor refuses a
//!   batch exactly when statically evaluating the declared constraints
//!   against the simulated candidate of its current state yields
//!   findings (so an inherited `Φ⁻` never changes a verdict), and
//!   `analyze_batch` flags exactly the batches `submit_batch` refuses.
//!   A refusal leaves epoch, audit log, WAL, and published policy
//!   untouched.
//! * **`Φ⁻` inheritance**: one authorized, non-interning step never
//!   grows `Φ⁺` nor shrinks `Φ⁻`, in both authorization modes.
//! * **Lint agrees with the interval**: `dead-command` fires on a rule
//!   exactly when the interval freezes its granted edge or rules out its
//!   revoked one, in all four authorization modes.
//! * **Durable edges**: a gated batch whose WAL append fails publishes
//!   nothing, a log torn anywhere inside a gated batch's record reopens
//!   to the state before or after the batch, never to a prefix the gate
//!   did not judge, and a constraint set naming ids the universe lacks
//!   is refused in process as over the wire.
//! * The **socket story**: over a real Unix socket, a SoD-violating
//!   batch is refused with the typed `ServiceError::Admission` before
//!   publication while clean batches keep applying.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use adminref_core::prelude::*;
use adminref_monitor::{MonitorConfig, MonitorError, ReferenceMonitor};
use adminref_service::{
    Daemon, MonitorService, PolicyService, Request, ServiceError, WireClient, WireListener,
};
use adminref_store::{PolicyStore, TempDir};
use proptest::prelude::*;

const USERS: usize = 3;
const ROLES: usize = 4;

/// Blueprint for one random policy (index lists shrink well); the same
/// shape the lint differentials use, kept small enough for the BFS.
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

fn priv_spec() -> BoxedStrategy<PrivSpec> {
    prop_oneof![
        (0u8..3).prop_map(PrivSpec::Perm),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::GrantUserRole(u, r)),
        ((0u8..ROLES as u8), (0u8..ROLES as u8)).prop_map(|(a, b)| PrivSpec::GrantRoleRole(a, b)),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::RevokeUserRole(u, r)),
        ((0u8..ROLES as u8), (0u8..ROLES as u8)).prop_map(|(a, b)| PrivSpec::RevokeRoleRole(a, b)),
    ]
    .boxed()
}

fn policy_spec() -> impl Strategy<Value = PolicySpec> {
    policy_spec_of(0..4, 0..6)
}

/// Policies with `ua` memberships and `pa` privilege assignments; the
/// denser ones leave users more authorized steps to take.
fn policy_spec_of(
    ua: std::ops::Range<usize>,
    pa: std::ops::Range<usize>,
) -> impl Strategy<Value = PolicySpec> {
    (
        prop::collection::vec(((0u8..USERS as u8), (0u8..ROLES as u8)), ua),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..ROLES as u8)), 0..4),
        prop::collection::vec(((0u8..ROLES as u8), priv_spec()), pa),
    )
        .prop_map(|(ua, rh, pa)| PolicySpec { ua, rh, pa })
}

fn build(spec: &PolicySpec) -> (Universe, Policy, Vec<UserId>, Vec<RoleId>) {
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
                let e = Edge::RoleRole(roles[*a as usize], roles[*b as usize]);
                uni.priv_revoke(e)
            }
        };
        policy.add_edge(Edge::RolePriv(roles[*r as usize], p));
    }
    (uni, policy, users, roles)
}

/// Every edge some interned grant or revoke term mentions: exactly the
/// edges any authorized command can add or remove.
fn actionable_edges(uni: &Universe) -> Vec<Edge> {
    let mut set = BTreeSet::new();
    for i in 0..uni.term_count() {
        match uni.term(PrivId::from_index(i)) {
            PrivTerm::Grant(e) | PrivTerm::Revoke(e) => {
                set.insert(e);
            }
            _ => {}
        }
    }
    set.into_iter().collect()
}

/// Every grant and revoke of an actionable edge, by every user.
fn alphabet(uni: &Universe) -> Vec<Command> {
    let targets = actionable_edges(uni);
    let mut commands = Vec::with_capacity(uni.user_count() * targets.len() * 2);
    for u in uni.users() {
        for &e in &targets {
            commands.push(Command::grant(u, e));
            commands.push(Command::revoke(u, e));
        }
    }
    commands
}

/// Explicit-state BFS over authorized commands: the distinct edge sets
/// of every policy reachable from `root` within `max_depth` steps.
/// Ground truth for the interval — no abstraction, just `step`.
fn reachable_edge_sets(
    uni: &mut Universe,
    root: &Policy,
    mode: AuthMode,
    max_depth: usize,
    max_states: usize,
) -> Vec<BTreeSet<Edge>> {
    let commands = alphabet(uni);
    let fingerprint = |p: &Policy| p.edges().collect::<BTreeSet<Edge>>();
    let mut seen: BTreeSet<BTreeSet<Edge>> = BTreeSet::new();
    seen.insert(fingerprint(root));
    let mut frontier = vec![root.clone()];
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for policy in &frontier {
            for cmd in &commands {
                let mut cand = policy.clone();
                if !step(uni, &mut cand, cmd, mode).executed() {
                    continue;
                }
                if seen.insert(fingerprint(&cand)) {
                    next.push(cand);
                }
                if seen.len() >= max_states {
                    return seen.into_iter().collect();
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interval invariant, differentially against the BFS in both
    /// authorization modes: every frozen edge is in every reachable
    /// policy, and every reachable policy stays inside `Φ⁺`.
    #[test]
    fn interval_bounds_every_reachable_policy(spec in policy_spec()) {
        for mode in [AuthMode::Explicit, AuthMode::Ordered(OrderingMode::Extended)] {
            let (uni, policy, _, _) = build(&spec);
            let interval = Interval::from_policy(&uni, &policy, mode);
            let mut bfs_uni = uni.clone();
            let sets = reachable_edge_sets(&mut bfs_uni, &policy, mode, 3, 400);
            for set in &sets {
                for &e in &interval.frozen {
                    prop_assert!(
                        set.contains(&e),
                        "frozen edge {e:?} missing from a reachable policy ({mode:?})"
                    );
                }
                for &e in set {
                    prop_assert!(
                        interval.potential.policy.contains_edge(e),
                        "reachable edge {e:?} outside the may-closure ({mode:?})"
                    );
                }
            }
        }
    }
}

/// Every authorization semantics the interval and lint run under.
const ALL_MODES: [AuthMode; 4] = [
    AuthMode::Explicit,
    AuthMode::Ordered(OrderingMode::Strict),
    AuthMode::Ordered(OrderingMode::Extended),
    AuthMode::Ordered(OrderingMode::ExtendedWithRevocation),
];

proptest! {
    // No search: a lint pass and an interval per mode and case.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lint's `dead-command` says what the interval says, in all four
    /// authorization modes: a grant site is dead iff its edge is in the
    /// root and frozen (nothing reachable removes it), and a revoke site
    /// is dead iff its edge is unreachable (never present).
    #[test]
    fn dead_commands_are_exactly_what_the_interval_rules_out(
        spec in policy_spec_of(2..6, 4..10),
    ) {
        for mode in ALL_MODES {
            let (uni, policy, _, _) = build(&spec);
            let interval = Interval::from_policy(&uni, &policy, mode);
            let config = LintConfig { auth_mode: mode, ..LintConfig::default() };
            let report = lint_policy(&uni, &policy, &config);
            for site in rule_sites(&uni, &policy) {
                let dead = report.findings.iter().any(|f| {
                    f.kind == FindingKind::DeadCommand
                        && f.role == site.role
                        && f.term == Some(site.term)
                });
                let ruled_out = match uni.term(site.term) {
                    PrivTerm::Grant(e) => {
                        policy.contains_edge(e) && interval.status(e) == EdgeStatus::Frozen
                    }
                    PrivTerm::Revoke(e) => interval.status(e) == EdgeStatus::Unreachable,
                    PrivTerm::Perm(_) => false,
                };
                prop_assert_eq!(
                    dead, ruled_out,
                    "{:?} held by {:?} ({:?})", uni.term(site.term), site.role, mode
                );
            }
        }
    }
}

proptest! {
    // Four-role universes and no search: cheap enough for the cases
    // that land re-declarations after clean, inheriting epochs, and
    // step the lemma over a few thousand authorized steps.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Φ⁻` inheritance: from the root and from policies up to two steps
    /// away, every authorized step that interns no term leaves
    /// `Φ⁺(child) ⊆ Φ⁺(parent)` and `Φ⁻(parent) ⊆ Φ⁻(child)` — the lemma
    /// that lets the monitor's gate skip recomputing `Φ⁻`.
    #[test]
    fn interval_is_inherited_across_authorized_steps(spec in policy_spec_of(2..6, 4..10)) {
        for mode in MODES {
            let (uni, root, _, _) = build(&spec);
            let commands = alphabet(&uni);
            let mut frontier = vec![root];
            for _depth in 0..3 {
                let mut next = Vec::new();
                for policy in &frontier {
                    let parent = Interval::from_policy(&uni, policy, mode);
                    for cmd in &commands {
                        let (mut child_uni, mut child) = (uni.clone(), policy.clone());
                        if !step(&mut child_uni, &mut child, cmd, mode).changed
                            || child_uni.term_count() != uni.term_count()
                        {
                            continue;
                        }
                        let inherited = Interval::from_policy(&uni, &child, mode);
                        for e in inherited.potential.policy.edges() {
                            prop_assert!(
                                parent.potential.policy.contains_edge(e),
                                "{cmd:?} grew Φ⁺ by {e:?} ({mode:?})"
                            );
                        }
                        prop_assert!(
                            parent.frozen.is_subset(&inherited.frozen),
                            "{cmd:?} shrank Φ⁻ ({mode:?})"
                        );
                        next.push(child);
                    }
                }
                next.truncate(6);
                frontier = next;
            }
        }
    }

    /// Gate ⇔ refusal over a chain of batches: before each batch the
    /// monitor refuses exactly when the static evaluation of the
    /// constraints against the simulated candidate of its *current*
    /// state has findings — the findings are equal, whether the gate
    /// recomputed `Φ⁻` or inherited it, and across the re-declaration
    /// that must stop the inheritance — and a refusal mutates nothing:
    /// same epoch, same audit length, same published policy.
    #[test]
    fn monitor_gate_matches_static_evaluation(
        spec in policy_spec(),
        declared in constraint_spec(),
        chain in chain_spec(),
    ) {
        let Some(run) = GatedChain::new(&spec, &declared, &chain) else {
            return;
        };
        let monitor = &run.monitor;
        run.for_each_batch(|commands| {
            let constraints = monitor.constraints();
            let (live_uni, live_policy) = monitor.snapshot();
            let (cand_uni, cand_policy, _) =
                simulate_batch(&live_uni, &live_policy, commands, run.mode);
            let expected = evaluate_constraints(&cand_uni, &cand_policy, &constraints, run.mode);
            let epoch_before = monitor.version();
            let audit_before = monitor.audit_len();
            match monitor.submit_batch(commands) {
                Ok(_) => prop_assert!(
                    expected.is_empty(),
                    "monitor published a batch the static gate finds dirty: {expected:?}"
                ),
                Err(MonitorError::Admission(report)) => {
                    prop_assert_eq!(&report.findings, &expected);
                    prop_assert_eq!(monitor.version(), epoch_before, "epoch moved on refusal");
                    prop_assert_eq!(monitor.audit_len(), audit_before, "audit grew on refusal");
                    let (_, live) = monitor.snapshot();
                    prop_assert_eq!(&live, &live_policy, "published policy changed on refusal");
                }
                Err(other) => prop_assert!(false, "unexpected monitor error: {other}"),
            }
        });
    }

    /// Analyze and Submit judge the same candidate: along a chain of
    /// batches, `analyze_batch` reports exactly the findings that make
    /// `submit_batch` answer `Admission`, and none when it publishes.
    #[test]
    fn analyze_flags_exactly_the_batches_submit_refuses(
        spec in policy_spec(),
        declared in constraint_spec(),
        chain in chain_spec(),
    ) {
        let Some(run) = GatedChain::new(&spec, &declared, &chain) else {
            return;
        };
        run.for_each_batch(|commands| {
            let impact = run.monitor.analyze_batch(commands);
            match run.monitor.submit_batch(commands) {
                Ok(_) => prop_assert!(
                    !impact.refused(),
                    "analysis flagged a batch the gate published: {:?}",
                    impact.findings
                ),
                Err(MonitorError::Admission(report)) => {
                    prop_assert!(impact.refused(), "analysis missed a refusal");
                    prop_assert_eq!(&impact.findings, &report.findings);
                }
                Err(other) => prop_assert!(false, "unexpected monitor error: {other}"),
            }
        });
    }
}

const MODES: [AuthMode; 2] = [
    AuthMode::Explicit,
    AuthMode::Ordered(OrderingMode::Extended),
];

/// Blueprint for the constraint sets a chain runs under, and the mode.
#[derive(Clone, Debug)]
struct ConstraintSpec {
    /// The SoD pair, as role indices.
    pair: (u8, u8),
    /// Edges asserted frozen, as indices into the root's edges and the
    /// actionable ones (so absent, volatile and frozen edges all occur).
    frozen: Vec<u8>,
    /// Before which batch the full set is declared; until then the
    /// monitor enforces only the assertions frozen at the root, so the
    /// chain starts clean and the gate inherits `Φ⁻` batch to batch.
    switch_at: u8,
    ordered: bool,
}

fn constraint_spec() -> impl Strategy<Value = ConstraintSpec> {
    (
        ((0u8..ROLES as u8), (0u8..ROLES as u8)),
        prop::collection::vec(any::<u8>(), 0..3),
        0u8..5,
        any::<bool>(),
    )
        .prop_map(|(pair, frozen, switch_at, ordered)| ConstraintSpec {
            pair,
            frozen,
            switch_at,
            ordered,
        })
}

/// One to four batches of one to four `(actor, grant?, target)` picks.
fn chain_spec() -> impl Strategy<Value = Vec<Vec<(u8, u8, u8)>>> {
    prop::collection::vec(
        prop::collection::vec(((0u8..USERS as u8), 0u8..2, 0u8..32), 1..5),
        1..5,
    )
}

/// A gated monitor and the batches to run through it.
struct GatedChain {
    monitor: ReferenceMonitor,
    mode: AuthMode,
    batches: Vec<Vec<Command>>,
    /// The whole drawn set, declared before batch `switch_at`.
    full: ConstraintSet,
    switch_at: usize,
}

impl GatedChain {
    /// A monitor over `spec`'s policy enforcing the root-frozen part of
    /// `declared`, with `chain`'s batches as commands over the root's
    /// actionable edges; `None` when no command can touch the policy.
    fn new(
        spec: &PolicySpec,
        declared: &ConstraintSpec,
        chain: &[Vec<(u8, u8, u8)>],
    ) -> Option<GatedChain> {
        let mode = MODES[usize::from(declared.ordered)];
        let (uni, policy, users, roles) = build(spec);
        let targets = actionable_edges(&uni);
        if targets.is_empty() {
            return None;
        }
        let assertable: Vec<Edge> = policy
            .edges()
            .chain(targets.iter().copied())
            .collect::<BTreeSet<Edge>>()
            .into_iter()
            .collect();
        let (a, b) = declared.pair;
        let full = ConstraintSet {
            sod_pairs: vec![(roles[a as usize], roles[b as usize])],
            deny_level: None,
            frozen_edges: declared
                .frozen
                .iter()
                .map(|&i| assertable[i as usize % assertable.len()])
                .collect(),
        };
        let root_frozen = Interval::from_policy(&uni, &policy, mode).frozen;
        let clean = ConstraintSet {
            frozen_edges: full
                .frozen_edges
                .iter()
                .copied()
                .filter(|e| root_frozen.contains(e))
                .collect(),
            ..full.clone()
        };
        let batches = chain
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|&(u, grant, t)| {
                        let edge = targets[t as usize % targets.len()];
                        let actor = users[u as usize];
                        if grant == 1 {
                            Command::grant(actor, edge)
                        } else {
                            Command::revoke(actor, edge)
                        }
                    })
                    .collect()
            })
            .collect();
        let config = MonitorConfig {
            auth_mode: mode,
            ..MonitorConfig::default()
        };
        let monitor = ReferenceMonitor::new(uni, policy, config);
        monitor
            .set_constraints(clean)
            .expect("in-memory set_constraints");
        Some(GatedChain {
            monitor,
            mode,
            batches,
            full,
            switch_at: usize::from(declared.switch_at),
        })
    }

    /// Runs `check` on every batch in order, declaring the full set
    /// before batch `switch_at`.
    fn for_each_batch(&self, mut check: impl FnMut(&[Command])) {
        for (i, commands) in self.batches.iter().enumerate() {
            if i == self.switch_at {
                self.monitor
                    .set_constraints(self.full.clone())
                    .expect("in-memory set_constraints");
            }
            check(commands);
        }
    }
}

/// A deliberately tiny arena: `admin` can put `alice`/`bob` into `pay`
/// or `audit`; declaring `(pay, audit)` as a SoD pair makes "one user
/// in both" statically refusable.
fn sod_arena() -> (Universe, Policy, UserId) {
    let mut uni = Universe::new();
    let admin = uni.user("admin");
    let admins = uni.role("admins");
    let pay = uni.role("pay");
    let audit = uni.role("audit");
    let mut policy = Policy::new(&uni);
    policy.add_edge(Edge::UserRole(admin, admins));
    for user in ["alice", "bob"] {
        let u = uni.user(user);
        for role in [pay, audit] {
            let g = uni.grant_user_role(u, role);
            let v = uni.revoke_user_role(u, role);
            policy.add_edge(Edge::RolePriv(admins, g));
            policy.add_edge(Edge::RolePriv(admins, v));
        }
    }
    (uni, policy, admin)
}

/// On a durable store, a refused batch leaves the WAL byte-for-byte
/// unchanged and the constraint set (plus the clean state) survives
/// reopen — the replayed store never sees a constraint-dirty epoch.
#[test]
fn refusal_leaves_wal_untouched_and_constraints_survive_reopen() {
    let dir = TempDir::new("admission-wal").unwrap();
    let (uni, policy, admin) = sod_arena();
    let alice = uni.find_user("alice").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let constraints = ConstraintSet {
        sod_pairs: vec![(pay, audit)],
        deny_level: None,
        frozen_edges: Vec::new(),
    };
    let wal_path = dir.path().join("commands.log");
    {
        let store =
            PolicyStore::create(dir.path(), uni.clone(), policy.clone(), AuthMode::Explicit)
                .unwrap();
        let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
        monitor.set_constraints(constraints.clone()).unwrap();
        let clean = vec![Command::grant(admin, Edge::UserRole(alice, pay))];
        monitor.submit_batch(&clean).expect("clean batch publishes");
        let wal_after_clean = std::fs::metadata(&wal_path).unwrap().len();
        let epoch = monitor.version();

        let violating = vec![Command::grant(admin, Edge::UserRole(alice, audit))];
        match monitor.submit_batch(&violating) {
            Err(MonitorError::Admission(report)) => {
                assert!(report.refused());
                assert_eq!(report.constraints_checked, 1);
            }
            other => panic!("expected admission refusal, got {other:?}"),
        }
        assert_eq!(monitor.version(), epoch, "epoch moved on refusal");
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            wal_after_clean,
            "WAL grew on refusal"
        );
        assert_eq!(monitor.admission_counts(), (2, 1));
        monitor.sync().unwrap();
    }
    let (store, _) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
    assert_eq!(store.constraints(), &constraints, "constraints replay");
    assert!(store.policy().contains_edge(Edge::UserRole(alice, pay)));
    assert!(!store.policy().contains_edge(Edge::UserRole(alice, audit)));
    // The reopened store keeps enforcing: the same violating command is
    // as refusable as before (evaluated statically, no monitor needed).
    let (cand_uni, cand_policy, _) = simulate_batch(
        store.universe(),
        store.policy(),
        &[Command::grant(admin, Edge::UserRole(alice, audit))],
        AuthMode::Explicit,
    );
    assert!(!evaluate_constraints(
        &cand_uni,
        &cand_policy,
        store.constraints(),
        AuthMode::Explicit
    )
    .is_empty());
    let _ = bob;
}

/// The acceptance scenario over a real Unix socket: declare a SoD pair
/// through the wire protocol, watch a violating batch bounce with the
/// typed error and an unchanged epoch, and see clean batches (including
/// ones racing the refused client) keep publishing.
#[test]
fn socket_refuses_sod_violating_batch_before_publication() {
    let dir = TempDir::new("admission-e2e").unwrap();
    let (uni, policy, admin) = sod_arena();
    let alice = uni.find_user("alice").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let service: Arc<dyn PolicyService> = Arc::new(
        MonitorService::in_memory(uni.clone(), policy, MonitorConfig::default())
            .with_write_gather(Duration::from_micros(50)),
    );
    let path = dir.path().join("adminrefd.sock");
    let listener = WireListener::unix(&path).expect("bind unix socket");
    let daemon = Daemon::spawn(service, uni.clone(), listener).expect("spawn daemon");
    let client = WireClient::connect_unix(&path).expect("connect");

    let echoed = client
        .set_constraints(ConstraintSet {
            sod_pairs: vec![(audit, pay)],
            deny_level: None,
            frozen_edges: Vec::new(),
        })
        .expect("declare constraints");
    // The server normalizes: the pair comes back oriented low-id first.
    assert_eq!(echoed.sod_pairs, vec![(pay.min(audit), pay.max(audit))]);
    assert_eq!(client.get_constraints().expect("read back"), echoed);

    let epoch0 = client.version().expect("version");
    let violating = vec![
        Command::grant(admin, Edge::UserRole(alice, pay)),
        Command::grant(admin, Edge::UserRole(alice, audit)),
    ];
    // Pre-flight: the analyze verb sees the refusal without publishing.
    let impact = client.analyze_batch(violating.clone()).expect("analyze");
    assert!(impact.refused(), "analysis must flag the violating batch");
    assert_eq!(client.version().expect("version"), epoch0);

    // A clean batch racing the violating one: the refusal must not
    // poison the coalesced commit group.
    let racer = WireClient::connect_unix(&path).expect("connect racer");
    let clean = vec![Command::grant(admin, Edge::UserRole(bob, pay))];
    let handle = std::thread::spawn(move || racer.submit(clean));
    match client.submit(violating) {
        Err(ServiceError::Admission(report)) => {
            assert!(report.refused());
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.kind == FindingKind::SodConflict),
                "refusal must name the SoD conflict: {:?}",
                report.findings
            );
        }
        other => panic!("expected typed admission refusal, got {other:?}"),
    }
    let raced = handle.join().unwrap().expect("clean batch applies");
    assert!(raced.iter().all(|o| o.executed()));

    // The violating batch published nothing; the clean one did.
    let epoch1 = client.version().expect("version");
    assert_eq!(epoch1, epoch0 + 1, "exactly the clean batch published");
    assert!(
        client
            .submit(vec![Command::grant(admin, Edge::UserRole(bob, audit))])
            .is_err(),
        "bob in both roles must now be refusable too"
    );
    assert_eq!(client.version().expect("version"), epoch1);
    drop(client);
    daemon.shutdown();
}

/// A gated durable batch whose WAL append fails publishes nothing: the
/// published epoch, the audit log and the store stay at the parent, and
/// the next gated batch is judged afresh on that epoch.
#[test]
fn gated_batch_with_failed_append_publishes_nothing() {
    let dir = TempDir::new("admission-failed-append").unwrap();
    let (uni, policy, admin) = sod_arena();
    let alice = uni.find_user("alice").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let admins = uni.find_role("admins").unwrap();
    let mut store =
        PolicyStore::create(dir.path(), uni.clone(), policy, AuthMode::Explicit).unwrap();
    store
        .set_constraints(ConstraintSet {
            sod_pairs: vec![(pay, audit)],
            deny_level: None,
            frozen_edges: vec![Edge::UserRole(admin, admins)],
        })
        .unwrap();
    store.inject_append_failure();
    let config = MonitorConfig {
        autocompact_log_len: None,
        ..MonitorConfig::default()
    };
    let monitor = ReferenceMonitor::with_store(store, config);
    let parent = monitor.read_snapshot();
    let batch = [
        Command::grant(admin, Edge::UserRole(alice, pay)),
        Command::grant(admin, Edge::UserRole(bob, audit)),
        Command::revoke(admin, Edge::UserRole(alice, pay)),
        Command::grant(admin, Edge::UserRole(alice, audit)),
    ];
    let error = monitor.submit_batch(&batch).unwrap_err();
    assert!(matches!(error, MonitorError::Store(_)), "{error:?}");
    assert_eq!(monitor.admission_counts(), (1, 0));
    let published = monitor.read_snapshot();
    assert_eq!(published.epoch, 0);
    assert_eq!(published.checksum(), parent.checksum());
    assert_eq!(monitor.audit_len(), 0);
    // The gate still judges the next batch on the published epoch: the
    // prefix that broke nothing is clean on its own…
    assert!(monitor.submit_batch(&batch[..2]).is_ok());
    // …and the violation it enables is refused.
    let violating = [Command::grant(admin, Edge::UserRole(alice, audit))];
    assert!(matches!(
        monitor.submit_batch(&violating),
        Err(MonitorError::Admission(_))
    ));
    let checksum = monitor.read_snapshot().checksum();
    drop(monitor);
    let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
    assert_eq!((report.replayed, report.divergent), (2, 0));
    assert_eq!(
        checksum,
        policy_checksum(store.policy()),
        "the store replays exactly the published epochs"
    );
}

/// A gated batch `[assign alice→pay; revoke alice→audit]` whose first
/// step alone breaks the pay/audit SoD pair, and a log torn at every
/// byte of the batch's record: each reopened store holds the state
/// published before the batch or the one published after it — never
/// the violating prefix the gate did not judge.
#[test]
fn a_torn_gated_batch_reopens_before_or_after_it() {
    let dir = TempDir::new("admission-torn-batch").unwrap();
    let (uni, policy, admin) = sod_arena();
    let alice = uni.find_user("alice").unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let constraints = ConstraintSet {
        sod_pairs: vec![(pay, audit)],
        deny_level: None,
        frozen_edges: Vec::new(),
    };
    let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
    store.set_constraints(constraints.clone()).unwrap();
    let config = MonitorConfig {
        autocompact_log_len: None,
        ..MonitorConfig::default()
    };
    let monitor = ReferenceMonitor::with_store(store, config);
    monitor
        .submit_batch(&[Command::grant(admin, Edge::UserRole(alice, audit))])
        .unwrap();
    let log_path = dir.path().join("commands.log");
    let start = std::fs::metadata(&log_path).unwrap().len() as usize;
    let before = monitor.read_snapshot().checksum();
    let batch = [
        Command::grant(admin, Edge::UserRole(alice, pay)),
        Command::revoke(admin, Edge::UserRole(alice, audit)),
    ];
    assert!(monitor
        .submit_batch(&batch)
        .unwrap()
        .iter()
        .all(|o| o.changed));
    let after = monitor.read_snapshot().checksum();
    drop(monitor);
    let log = std::fs::read(&log_path).unwrap();
    assert!(log.len() > start);
    for cut in start..=log.len() {
        std::fs::write(&log_path, &log[..cut]).unwrap();
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        let checksum = policy_checksum(store.policy());
        let expected = if cut == log.len() { after } else { before };
        assert_eq!(checksum, expected, "log cut at byte {cut}");
        assert_eq!(report.divergent, 0, "log cut at byte {cut}");
        assert!(
            evaluate_constraints(
                store.universe(),
                store.policy(),
                &constraints,
                AuthMode::Explicit
            )
            .is_empty(),
            "log cut at byte {cut}: the recovered state breaks the SoD pair"
        );
    }
}

/// A constraint set naming an id the universe lacks is refused in
/// process — by `ReferenceMonitor::set_constraints` and by a
/// `MonitorService` call, as the CLI's local `constraint add` makes —
/// with `ForeignPolicy`, just as the wire's bounds check refuses it,
/// and the WAL and the declared set stay as they were.
#[test]
fn set_constraints_refuses_ids_outside_the_universe_in_process() {
    let dir = TempDir::new("admission-bounds").unwrap();
    let (uni, policy, admin) = sod_arena();
    let alice = uni.find_user("alice").unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
    let service = MonitorService::new(ReferenceMonitor::with_store(
        store,
        MonitorConfig::default(),
    ));
    let monitor = service.monitor();
    let declared = ConstraintSet {
        sod_pairs: vec![(pay, audit)],
        deny_level: None,
        frozen_edges: Vec::new(),
    };
    monitor.set_constraints(declared.clone()).unwrap();
    let wal_path = dir.path().join("commands.log");
    let wal = std::fs::read(&wal_path).unwrap();

    let ghost_user = ConstraintSet {
        frozen_edges: vec![Edge::UserRole(UserId::from_index(77), pay)],
        ..declared.clone()
    };
    assert!(matches!(
        monitor.set_constraints(ghost_user),
        Err(MonitorError::ForeignConstraints)
    ));
    let ghost_role = ConstraintSet {
        sod_pairs: vec![(pay, RoleId::from_index(99))],
        ..ConstraintSet::default()
    };
    assert!(matches!(
        service.call(Request::SetConstraints {
            constraints: ghost_role
        }),
        Err(ServiceError::ForeignPolicy)
    ));
    assert_eq!(
        std::fs::read(&wal_path).unwrap(),
        wal,
        "a refused set reached the WAL"
    );
    assert_eq!(*monitor.constraints(), declared);
    // The standing set keeps gating; nothing froze the writer.
    let clean = [Command::grant(admin, Edge::UserRole(alice, pay))];
    service
        .submit(clean.to_vec())
        .expect("a clean batch publishes");
    assert_eq!(service.version().unwrap(), 1);
}
