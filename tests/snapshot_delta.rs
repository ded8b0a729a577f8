//! The incremental-publication correctness anchor: a chain of
//! delta-derived snapshots is **index-identical** to from-scratch
//! builds, epoch by epoch, over random command sequences — including
//! revocations and cycle-forming role edges, the cases that exercise
//! the targeted-recompute and full-rebuild fallbacks.
//!
//! Two layers:
//!
//! 1. **Core chain** — drive `PolicySnapshot::next` directly over a
//!    random applied-edge sequence and compare every child against
//!    `PolicySnapshot::build` of the same state.
//! 2. **Monitor chain** — drive two `ReferenceMonitor`s (one pinned to
//!    `PublishMode::Incremental`, one to `PublishMode::FullRebuild`)
//!    through identical batches and compare the published snapshots
//!    after every batch.

use adminref_core::prelude::*;
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_workloads::{wide_universe_trickle, TrickleSpec};
use proptest::prelude::*;

const USERS: usize = 4;
const ROLES: usize = 6;

/// An omnipotent-admin arena: `root` holds grant *and* revoke authority
/// over every `UA` and `RH` edge of the vocabulary, so random command
/// sequences execute (and therefore produce deltas) instead of being
/// refused — including sequences that build and tear down RH cycles.
fn arena() -> (Universe, Policy, UserId) {
    let mut universe = Universe::new();
    let root = universe.user("root");
    let admins = universe.role("admins");
    let users: Vec<UserId> = (0..USERS)
        .map(|i| universe.user(&format!("u{i}")))
        .collect();
    let roles: Vec<RoleId> = (0..ROLES)
        .map(|i| universe.role(&format!("r{i}")))
        .collect();
    let mut policy = Policy::new(&universe);
    policy.add_edge(Edge::UserRole(root, admins));
    let mut edges: Vec<Edge> = Vec::new();
    for &u in &users {
        for &r in &roles {
            edges.push(Edge::UserRole(u, r));
        }
    }
    for &a in &roles {
        for &b in &roles {
            if a != b {
                edges.push(Edge::RoleRole(a, b));
            }
        }
    }
    for edge in edges {
        let g = universe.priv_grant(edge);
        let v = universe.priv_revoke(edge);
        policy.add_edge(Edge::RolePriv(admins, g));
        policy.add_edge(Edge::RolePriv(admins, v));
    }
    // A perm per role so PA-sensitive queries have something to reach.
    for (i, &r) in roles.iter().enumerate() {
        let perm = universe.perm("use", &format!("obj{i}"));
        let p = universe.priv_perm(perm);
        policy.add_edge(Edge::RolePriv(r, p));
    }
    (universe, policy, root)
}

/// Blueprint for one command over the arena vocabulary.
#[derive(Clone, Copy, Debug)]
struct CmdSpec {
    grant: bool,
    /// `true`: UserRole(user, role_a); `false`: RoleRole(role_a, role_b).
    user_edge: bool,
    user: u8,
    role_a: u8,
    role_b: u8,
}

fn cmd_spec() -> impl Strategy<Value = CmdSpec> {
    (
        any::<bool>(),
        any::<bool>(),
        0u8..USERS as u8,
        0u8..ROLES as u8,
        0u8..ROLES as u8,
    )
        .prop_map(|(grant, user_edge, user, role_a, role_b)| CmdSpec {
            grant,
            user_edge,
            user,
            role_a,
            role_b,
        })
}

fn build_command(uni: &Universe, root: UserId, spec: CmdSpec) -> Option<Command> {
    let user = uni.find_user(&format!("u{}", spec.user)).unwrap();
    let role_a = uni.find_role(&format!("r{}", spec.role_a)).unwrap();
    let role_b = uni.find_role(&format!("r{}", spec.role_b)).unwrap();
    let edge = if spec.user_edge {
        Edge::UserRole(user, role_a)
    } else if spec.role_a != spec.role_b {
        Edge::RoleRole(role_a, role_b)
    } else {
        return None;
    };
    Some(if spec.grant {
        Command::grant(root, edge)
    } else {
        Command::revoke(root, edge)
    })
}

/// Full observable-equality check between two reach indexes over the
/// same universe/policy: closure rows for every entity, privilege
/// reachability for every PA vertex, and the closure's aggregate
/// observables (SCC count, longest chain). Internal SCC numbering is
/// allowed to differ.
fn assert_index_identical(uni: &Universe, policy: &Policy, a: &ReachIndex, b: &ReachIndex) {
    let entities: Vec<Entity> = uni
        .users()
        .map(Entity::User)
        .chain(uni.roles().map(Entity::Role))
        .collect();
    for &e in &entities {
        assert_eq!(
            a.roles_reachable(e),
            b.roles_reachable(e),
            "closure row diverged for {e:?}"
        );
        for p in policy.priv_vertices() {
            assert_eq!(
                a.reach_priv(e, p),
                b.reach_priv(e, p),
                "priv reachability diverged for {e:?} -> {p:?}"
            );
        }
    }
    assert_eq!(a.role_closure().scc_count(), b.role_closure().scc_count());
    assert_eq!(
        a.role_closure().longest_chain_roles(),
        b.role_closure().longest_chain_roles()
    );
}

/// Layer 1: the core chain. Applies each command directly with `step`,
/// derives the child snapshot with `PolicySnapshot::next`, and compares
/// it against a from-scratch build after every batch.
fn check_core_chain(specs: &[CmdSpec], batch_len: usize) {
    let (mut uni, mut policy, root) = arena();
    let mut snapshot = PolicySnapshot::build(uni.clone(), policy.clone(), 0);
    let mut epoch = 0;
    for chunk in specs.chunks(batch_len.max(1)) {
        let mut outcomes = Vec::new();
        let mut commands = Vec::new();
        for &spec in chunk {
            let Some(cmd) = build_command(&uni, root, spec) else {
                continue;
            };
            outcomes.push(step(&mut uni, &mut policy, &cmd, AuthMode::Explicit));
            commands.push(cmd);
        }
        let deltas = batch_deltas(&commands, &outcomes);
        epoch += 1;
        let (child, _path) = PolicySnapshot::next(
            &snapshot,
            &uni,
            &policy,
            &deltas,
            epoch,
            PublishMode::Incremental,
        );
        let rebuilt = PolicySnapshot::build(uni.clone(), policy.clone(), epoch);
        assert_eq!(child.policy(), rebuilt.policy());
        assert_index_identical(&uni, &policy, child.reach(), rebuilt.reach());
        snapshot = child;
    }
}

/// Layer 2: the monitor chain. Two monitors, one per publish mode,
/// batch-for-batch; published snapshots must agree at every epoch.
fn check_monitor_chain(specs: &[CmdSpec], batch_len: usize) {
    let (uni, policy, root) = arena();
    let incremental = ReferenceMonitor::new(
        uni.clone(),
        policy.clone(),
        MonitorConfig {
            publish_mode: PublishMode::Incremental,
            ..MonitorConfig::default()
        },
    );
    let full = ReferenceMonitor::new(
        uni.clone(),
        policy,
        MonitorConfig {
            publish_mode: PublishMode::FullRebuild,
            ..MonitorConfig::default()
        },
    );
    for chunk in specs.chunks(batch_len.max(1)) {
        let commands: Vec<Command> = chunk
            .iter()
            .filter_map(|&s| build_command(&uni, root, s))
            .collect();
        let a = incremental.submit_batch(&commands).unwrap();
        let b = full.submit_batch(&commands).unwrap();
        assert_eq!(a, b, "outcomes are mode-independent");
        let snap_a = incremental.read_snapshot();
        let snap_b = full.read_snapshot();
        assert_eq!(snap_a.epoch, snap_b.epoch);
        assert_eq!(snap_a.policy(), snap_b.policy());
        assert_index_identical(
            snap_a.universe(),
            snap_a.policy(),
            snap_a.reach(),
            snap_b.reach(),
        );
    }
    let (_, full_rebuilds) = full.publish_counts();
    let (incr, _) = incremental.publish_counts();
    assert_eq!(
        full.publish_counts().0,
        0,
        "the pinned-full monitor never takes the delta path"
    );
    let _ = (full_rebuilds, incr);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental chains equal from-scratch builds — single-command
    /// batches (the trickle shape: every delta stands alone).
    #[test]
    fn core_chain_matches_rebuild_single_edge(
        specs in prop::collection::vec(cmd_spec(), 1..32),
    ) {
        check_core_chain(&specs, 1);
    }

    /// The same with multi-command batches (deltas compose in order,
    /// including grant/revoke toggles of one edge inside a batch).
    #[test]
    fn core_chain_matches_rebuild_batched(
        specs in prop::collection::vec(cmd_spec(), 1..48),
        batch_len in 1usize..6,
    ) {
        check_core_chain(&specs, batch_len);
    }

    /// The monitor-level differential: PublishMode::Incremental vs
    /// PublishMode::FullRebuild over identical batches.
    #[test]
    fn monitor_chain_is_mode_independent(
        specs in prop::collection::vec(cmd_spec(), 1..32),
        batch_len in 1usize..5,
    ) {
        check_monitor_chain(&specs, batch_len);
    }
}

/// Deterministic wide-universe sweep: a few dozen trickle batches on a
/// small-but-real layered hierarchy, checking the published snapshot
/// against a rebuild after every single-edge batch — and that the
/// incremental path (not the fallback) is what actually served them.
#[test]
fn trickle_chain_stays_incremental_and_identical() {
    let w = wide_universe_trickle(TrickleSpec {
        roles: 96,
        users: 24,
        toggles: 16,
        ..TrickleSpec::default()
    });
    let m = ReferenceMonitor::new(
        w.universe.clone(),
        w.policy.clone(),
        MonitorConfig {
            publish_mode: PublishMode::Incremental,
            ..MonitorConfig::default()
        },
    );
    for batch in w.batches.iter().cycle().take(w.batches.len() * 2) {
        m.submit_batch(batch).unwrap();
        let snap = m.read_snapshot();
        let rebuilt = ReachIndex::build(snap.universe(), snap.policy());
        assert_index_identical(snap.universe(), snap.policy(), snap.reach(), &rebuilt);
    }
    let (incremental, full) = m.publish_counts();
    assert_eq!(incremental + full, 2 * w.batches.len() as u64);
    // Toggles are acyclic by construction, so the only rebuilds are the
    // removal cost heuristic tripping — on a hierarchy this small the
    // fan-out cap is tight, but the incremental path must still carry
    // the bulk of the publishes (at production width it carries all of
    // them: `production_width_trickle_never_falls_back` below).
    assert!(
        full * 4 <= incremental,
        "fallbacks must be a small minority: {incremental} incremental vs {full} full"
    );
}

/// At 2048 roles (the benchmark's width) the fan-out cap has room: two
/// full toggle cycles (every grant, then every revoke, twice) publish
/// without a single fallback rebuild. This is the count behind the
/// benchmark's `monitor.incremental_share @ admission_trickle` reading
/// exactly 1.
#[test]
fn production_width_trickle_never_falls_back() {
    let w = wide_universe_trickle(TrickleSpec {
        roles: 2048,
        ..TrickleSpec::default()
    });
    let m = ReferenceMonitor::new(
        w.universe,
        w.policy,
        MonitorConfig {
            publish_mode: PublishMode::Incremental,
            ..MonitorConfig::default()
        },
    );
    for batch in w.batches.iter().cycle().take(w.batches.len() * 2) {
        m.submit_batch(batch).unwrap();
    }
    assert_eq!(m.publish_counts(), (2 * w.batches.len() as u64, 0));
}

/// Cycle-forming batches take the rebuild fallback and still agree.
#[test]
fn cycle_forming_batches_fall_back_and_agree() {
    let (uni, policy, root) = arena();
    let r0 = uni.find_role("r0").unwrap();
    let r1 = uni.find_role("r1").unwrap();
    let r2 = uni.find_role("r2").unwrap();
    let m = ReferenceMonitor::new(
        uni.clone(),
        policy,
        MonitorConfig {
            publish_mode: PublishMode::Incremental,
            ..MonitorConfig::default()
        },
    );
    // Build a 3-cycle edge by edge, then cut it mid-cycle.
    let script = [
        Command::grant(root, Edge::RoleRole(r0, r1)),
        Command::grant(root, Edge::RoleRole(r1, r2)),
        Command::grant(root, Edge::RoleRole(r2, r0)), // closes the cycle → fallback
        Command::revoke(root, Edge::RoleRole(r1, r2)), // intra-SCC removal → fallback
    ];
    for cmd in &script {
        m.submit(cmd).unwrap();
        let snap = m.read_snapshot();
        let rebuilt = ReachIndex::build(snap.universe(), snap.policy());
        assert_index_identical(snap.universe(), snap.policy(), snap.reach(), &rebuilt);
    }
    let (incremental, full) = m.publish_counts();
    assert_eq!(incremental, 2, "the acyclic prefix stayed incremental");
    assert_eq!(full, 2, "cycle formation and intra-SCC removal rebuilt");
    // After the cut, r2 →φ r0 must still hold (via nothing) — check the
    // final shape is what a from-scratch monitor would publish.
    let snap = m.read_snapshot();
    assert!(snap.reaches(Node::Role(r0), Node::Role(r1)));
    assert!(!snap.reaches(Node::Role(r1), Node::Role(r2)));
    assert!(snap.reaches(Node::Role(r2), Node::Role(r0)));
}
