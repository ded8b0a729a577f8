//! The epoch-published monitor's two load-bearing guarantees:
//!
//! 1. **Determinism** — batching is a pure performance transform. For any
//!    command sequence and any split into batches, the batched
//!    `ReferenceMonitor` produces the same `StepOutcome` sequence, the
//!    same audit trail, and the same final policy as Definition 5
//!    itself — `transition::step` applied command by command (in both
//!    authorization modes).
//! 2. **Epoch isolation** — concurrent `check_access` readers observe
//!    only published epochs: a batch's effects become visible all at
//!    once, so every read agrees with either the pre- or the post-batch
//!    snapshot, never a torn intermediate state, and epochs observed by
//!    one thread are monotone.

use std::sync::atomic::{AtomicBool, Ordering};

use adminref_core::prelude::*;
use adminref_monitor::{Decision, MonitorConfig, ReferenceMonitor};
use adminref_workloads::hospital_fig2;
use proptest::prelude::*;

const USERS: &[&str] = &["diana", "bob", "joe", "jane", "alice"];
const ROLES: &[&str] = &[
    "nurse", "staff", "prntusr", "dbusr1", "dbusr2", "dbusr3", "hr", "so",
];

/// Blueprint for one command over the Figure-2 vocabulary.
#[derive(Clone, Copy, Debug)]
struct CmdSpec {
    actor: u8,
    grant: bool,
    /// `true`: UserRole(user, role_a); `false`: RoleRole(role_a, role_b).
    user_edge: bool,
    user: u8,
    role_a: u8,
    role_b: u8,
}

fn cmd_spec() -> impl Strategy<Value = CmdSpec> {
    (
        0u8..USERS.len() as u8,
        any::<bool>(),
        any::<bool>(),
        0u8..USERS.len() as u8,
        0u8..ROLES.len() as u8,
        0u8..ROLES.len() as u8,
    )
        .prop_map(|(actor, grant, user_edge, user, role_a, role_b)| CmdSpec {
            actor,
            grant,
            user_edge,
            user,
            role_a,
            role_b,
        })
}

fn build_commands(uni: &Universe, specs: &[CmdSpec]) -> Vec<Command> {
    let users: Vec<UserId> = USERS.iter().map(|n| uni.find_user(n).unwrap()).collect();
    let roles: Vec<RoleId> = ROLES.iter().map(|n| uni.find_role(n).unwrap()).collect();
    specs
        .iter()
        .map(|s| {
            let edge = if s.user_edge {
                Edge::UserRole(users[s.user as usize], roles[s.role_a as usize])
            } else {
                Edge::RoleRole(roles[s.role_a as usize], roles[s.role_b as usize])
            };
            if s.grant {
                Command::grant(users[s.actor as usize], edge)
            } else {
                Command::revoke(users[s.actor as usize], edge)
            }
        })
        .collect()
}

/// Splits `commands` into batches at positions derived from `cuts`.
fn batches<'a>(commands: &'a [Command], cuts: &[u8]) -> Vec<&'a [Command]> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|&c| c as usize % (commands.len() + 1))
        .collect();
    points.push(0);
    points.push(commands.len());
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| &commands[w[0]..w[1]]).collect()
}

fn check_equivalence(mode: AuthMode, specs: &[CmdSpec], cuts: &[u8]) {
    let (uni, policy) = hospital_fig2();
    let commands = build_commands(&uni, specs);
    let config = MonitorConfig {
        auth_mode: mode,
        audit_capacity: 1024,
        ..MonitorConfig::default()
    };
    let epoch = ReferenceMonitor::new(uni.clone(), policy.clone(), config);

    let splits = batches(&commands, cuts);
    let split_count = splits.len();
    let mut batched_outcomes = Vec::new();
    for batch in splits {
        batched_outcomes.extend(epoch.submit_batch(batch).unwrap());
    }
    let (mut serial_uni, mut serial_policy) = (uni, policy);
    let serial_outcomes: Vec<StepOutcome> = commands
        .iter()
        .map(|c| step(&mut serial_uni, &mut serial_policy, c, mode))
        .collect();
    prop_assert_eq!(&batched_outcomes, &serial_outcomes);

    // The audit trail is the serial one: event i records command i with
    // the decision and changed-flag Definition 5 gave it.
    let epoch_audit = epoch.audit_events();
    prop_assert_eq!(epoch_audit.len(), commands.len());
    for (i, (event, (cmd, outcome))) in epoch_audit
        .iter()
        .zip(commands.iter().zip(&serial_outcomes))
        .enumerate()
    {
        let decision = match outcome.authorization {
            Some(auth) => Decision::Executed {
                held: auth.held,
                target: auth.target,
            },
            None => Decision::Refused,
        };
        prop_assert_eq!(event.seq, i as u64);
        prop_assert_eq!(event.command, *cmd);
        prop_assert_eq!(event.decision, decision);
        prop_assert_eq!(event.changed, outcome.changed);
    }

    let (_, epoch_policy) = epoch.snapshot();
    prop_assert_eq!(epoch_policy, serial_policy);
    // At most one publication per batch.
    prop_assert!(epoch.version() <= split_count as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched execution ≡ serial execution, explicit mode.
    #[test]
    fn batched_equals_serial_explicit(
        specs in prop::collection::vec(cmd_spec(), 1..24),
        cuts in prop::collection::vec(0u8..32, 0..6),
    ) {
        check_equivalence(AuthMode::Explicit, &specs, &cuts);
    }

    /// Batched execution ≡ serial execution, ordered mode (the paper's
    /// §4.1 implicit authorization, where refused commands may still
    /// intern privilege terms).
    #[test]
    fn batched_equals_serial_ordered(
        specs in prop::collection::vec(cmd_spec(), 1..16),
        cuts in prop::collection::vec(0u8..32, 0..6),
    ) {
        check_equivalence(AuthMode::Ordered(OrderingMode::Extended), &specs, &cuts);
    }
}

/// A fixture where jane holds grant *and* revoke authority over both
/// (bob, staff) and (joe, nurse) — every toggle batch below is fully
/// authorized, so any half-applied state a reader could observe must
/// come from the publication mechanism, not from a refused command.
fn toggle_fixture() -> (Universe, Policy) {
    let mut b = PolicyBuilder::new()
        .assign("jane", "hr")
        .assign("diana", "nurse")
        .declare_user("bob")
        .declare_user("joe")
        .inherit("staff", "nurse")
        .permit("nurse", "read", "t1");
    let (bob, joe, staff, nurse) = {
        let u = b.universe_mut();
        (
            u.find_user("bob").unwrap(),
            u.find_user("joe").unwrap(),
            u.find_role("staff").unwrap(),
            u.find_role("nurse").unwrap(),
        )
    };
    let g1 = b.universe_mut().grant_user_role(bob, staff);
    let r1 = b.universe_mut().revoke_user_role(bob, staff);
    let g2 = b.universe_mut().grant_user_role(joe, nurse);
    let r2 = b.universe_mut().revoke_user_role(joe, nurse);
    b = b
        .assign_priv("hr", g1)
        .assign_priv("hr", r1)
        .assign_priv("hr", g2)
        .assign_priv("hr", r2);
    b.finish()
}

/// The concurrent epoch-isolation property. The writer toggles a *pair*
/// of edges per batch — (bob, staff) and (joe, nurse) granted together,
/// then revoked together — so the invariant "both present or both
/// absent" holds in every published epoch. Concurrent readers assert it
/// on every load; observing a half-applied batch (the old per-command
/// visibility) fails the test.
fn run_epoch_isolation(rounds: usize, readers: usize) {
    let (uni, policy) = toggle_fixture();
    let jane = uni.find_user("jane").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let joe = uni.find_user("joe").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let nurse = uni.find_role("nurse").unwrap();
    let e1 = Edge::UserRole(bob, staff);
    let e2 = Edge::UserRole(joe, nurse);
    let m = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
    let grant_both = [Command::grant(jane, e1), Command::grant(jane, e2)];
    let revoke_both = [Command::revoke(jane, e1), Command::revoke(jane, e2)];
    let done = AtomicBool::new(false);
    crossbeam::scope(|scope| {
        for _ in 0..readers {
            let (m, done) = (&m, &done);
            scope.spawn(move |_| {
                let mut last_epoch = 0u64;
                let mut observed = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = m.read_snapshot();
                    assert_eq!(
                        snap.policy().contains_edge(e1),
                        snap.policy().contains_edge(e2),
                        "torn read at epoch {}",
                        snap.epoch
                    );
                    assert!(
                        snap.epoch >= last_epoch,
                        "epoch went backwards: {} after {}",
                        snap.epoch,
                        last_epoch
                    );
                    last_epoch = snap.epoch;
                    observed += 1;
                }
                observed
            });
        }
        for _ in 0..rounds {
            m.submit_batch(&grant_both).unwrap();
            m.submit_batch(&revoke_both).unwrap();
        }
        done.store(true, Ordering::Relaxed);
    })
    .unwrap();
    // Every batch changed the policy: exactly 2 publications per round.
    assert_eq!(m.version(), 2 * rounds as u64);
    let snap = m.read_snapshot();
    assert!(!snap.policy().contains_edge(e1));
    assert!(!snap.policy().contains_edge(e2));
}

#[test]
fn concurrent_readers_observe_only_published_epochs() {
    run_epoch_isolation(300, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized interleaving: vary writer rounds and reader counts so
    /// the reader/writer phase alignment differs per case.
    #[test]
    fn epoch_isolation_under_randomized_interleavings(
        rounds in 10usize..80,
        readers in 1usize..5,
    ) {
        run_epoch_isolation(rounds, readers);
    }
}

/// Session revocation under interleaving: while readers hammer
/// `check_access`, a writer revokes the session's justifying membership.
/// Once the revoke's epoch publishes, the monitor force-deactivates the
/// role — and later re-grants must NOT resurrect the session's access
/// (activation is an explicit session step, not a side effect of
/// membership).
#[test]
fn forced_deactivation_interleaves_with_concurrent_readers() {
    let (uni, policy) = toggle_fixture();
    let jane = uni.find_user("jane").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let mut probe = uni.clone();
    let read_t1 = probe.perm("read", "t1");
    let m = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
    let grant = [Command::grant(jane, Edge::UserRole(bob, staff))];
    let revoke = [Command::revoke(jane, Edge::UserRole(bob, staff))];
    m.submit_batch(&grant).unwrap();
    let sid = m.create_session(bob);
    m.activate_role(sid, staff).unwrap();
    assert!(m.check_access(sid, read_t1).unwrap());
    let done = AtomicBool::new(false);
    crossbeam::scope(|scope| {
        for _ in 0..3 {
            let (m, done) = (&m, &done);
            scope.spawn(move |_| {
                // Readers must never error, whatever the interleaving;
                // results flip from granted to denied at the revoke.
                while !done.load(Ordering::Relaxed) {
                    let _ = m.check_access(sid, read_t1).unwrap();
                }
            });
        }
        // Toggle the membership; every round ends revoked.
        for _ in 0..50 {
            m.submit_batch(&grant).unwrap();
            m.submit_batch(&revoke).unwrap();
        }
        done.store(true, Ordering::Relaxed);
    })
    .unwrap();
    assert!(
        !m.check_access(sid, read_t1).unwrap(),
        "after the final revoke the session must be denied"
    );
    // Exactly one forced deactivation: the first published revoke found
    // the role active; bob never re-activated, so later revokes had
    // nothing to sever.
    assert_eq!(m.session_revocations_total(), 1);
    let events = m.session_revocations_tail(10);
    assert_eq!((events[0].user, events[0].role), (bob, staff));
    // Re-granting restores *activatability*, not access: the session
    // must explicitly re-activate.
    m.submit_batch(&grant).unwrap();
    assert!(!m.check_access(sid, read_t1).unwrap());
    m.activate_role(sid, staff).unwrap();
    assert!(m.check_access(sid, read_t1).unwrap());
}

/// A transitive severing: revoking an `RH` edge (not the user's own
/// membership) also invalidates sessions that activated the
/// now-unreachable junior role.
#[test]
fn rh_revocation_deactivates_transitively_activated_roles() {
    let mut b = PolicyBuilder::new()
        .assign("jane", "hr")
        .assign("diana", "staff")
        .inherit("staff", "nurse")
        .permit("nurse", "read", "t1");
    let (staff, nurse) = {
        let u = b.universe_mut();
        (u.find_role("staff").unwrap(), u.find_role("nurse").unwrap())
    };
    let r = b.universe_mut().priv_revoke(Edge::RoleRole(staff, nurse));
    b = b.assign_priv("hr", r);
    let (mut uni, policy) = b.finish();
    let jane = uni.find_user("jane").unwrap();
    let diana = uni.find_user("diana").unwrap();
    let read_t1 = uni.perm("read", "t1");
    let m = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
    let sid = m.create_session(diana);
    // Diana activates nurse *via* staff → nurse inheritance.
    m.activate_role(sid, nurse).unwrap();
    assert!(m.check_access(sid, read_t1).unwrap());
    m.submit(&Command::revoke(jane, Edge::RoleRole(staff, nurse)))
        .unwrap();
    assert!(
        !m.check_access(sid, read_t1).unwrap(),
        "severed inheritance invalidates the transitive activation"
    );
    assert_eq!(m.session_revocations_total(), 1);
}

/// `check_access` itself (one snapshot per call) stays consistent under
/// churn: diana's nurse-session access to t1 does not depend on bob's
/// membership churn, in any interleaving.
#[test]
fn check_access_is_stable_under_concurrent_churn() {
    let (uni, policy) = toggle_fixture();
    let jane = uni.find_user("jane").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let diana = uni.find_user("diana").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let nurse = uni.find_role("nurse").unwrap();
    let mut probe = uni.clone();
    let read_t1 = probe.perm("read", "t1");
    let m = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
    let sid = m.create_session(diana);
    m.activate_role(sid, nurse).unwrap();
    let batch_grant = [Command::grant(jane, Edge::UserRole(bob, staff))];
    let batch_revoke = [Command::revoke(jane, Edge::UserRole(bob, staff))];
    crossbeam::scope(|scope| {
        for _ in 0..3 {
            let m = &m;
            scope.spawn(move |_| {
                for _ in 0..500 {
                    assert!(m.check_access(sid, read_t1).unwrap());
                }
            });
        }
        scope.spawn(|_| {
            for _ in 0..100 {
                m.submit_batch(&batch_grant).unwrap();
                m.submit_batch(&batch_revoke).unwrap();
            }
        });
    })
    .unwrap();
    assert_eq!(m.version(), 200);
    assert_eq!(m.audit_events_since(197, 10).len(), 2);
}
