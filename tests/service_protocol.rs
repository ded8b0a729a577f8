//! The `PolicyService` protocol's load-bearing guarantees:
//!
//! 1. **Group-commit linearizability** — N concurrent submitters'
//!    per-request outcomes match *some* serial interleaving of their
//!    requests, whether they submit in process (each request one batch
//!    under the monitor's writer lock) or over a daemon's socket (where
//!    the committer coalesces connections' requests into one batch).
//!    The audit log records the order the (serial, batched) writer
//!    actually executed; replaying exactly that command order
//!    through Definition 5 (`transition::step`) must reproduce every
//!    decision, every changed-flag, and the final policy. Requests stay
//!    atomic: each request's commands occupy contiguous audit sequence
//!    numbers, in submission order per submitter, and the outcomes each
//!    submitter received match its own commands' audit records.
//! 2. **All-or-nothing batches** — a durable-store failure surfaces
//!    `ServiceError::Backend` with no outcomes, the monitor publishes
//!    and audits none of the request, recovery reopens without it, and
//!    the request retried whole applies (one WAL record per batch,
//!    observable through the typed protocol).
//! 3. **Protocol totality** — every `Request` variant is served and the
//!    typed wrappers round-trip.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use adminref_core::prelude::*;
use adminref_monitor::{Decision, MonitorConfig};
use adminref_service::{
    Daemon, MonitorService, PolicyService, RefinementDirection, ServiceError, WireClient,
    WireListener,
};
use adminref_store::{PolicyStore, TempDir};
use proptest::prelude::*;

const ACTORS: usize = 3;
const SUBJECTS: usize = 4;
const ROLES: usize = 4;

/// `ACTORS` administrators who all hold grant *and* revoke authority
/// over every `(subject, role)` edge — maximal interference: whether a
/// grant/revoke changes the policy depends entirely on how the
/// submitters' requests interleave.
fn arena() -> (Universe, Policy) {
    let mut universe = Universe::new();
    let actors: Vec<UserId> = (0..ACTORS)
        .map(|i| universe.user(&format!("actor{i}")))
        .collect();
    let subjects: Vec<UserId> = (0..SUBJECTS)
        .map(|i| universe.user(&format!("subj{i}")))
        .collect();
    let roles: Vec<RoleId> = (0..ROLES)
        .map(|i| universe.role(&format!("r{i}")))
        .collect();
    let admins = universe.role("admins");
    let mut policy = Policy::new(&universe);
    for &a in &actors {
        policy.add_edge(Edge::UserRole(a, admins));
    }
    for &s in &subjects {
        for &r in &roles {
            let g = universe.grant_user_role(s, r);
            let v = universe.revoke_user_role(s, r);
            policy.add_edge(Edge::RolePriv(admins, g));
            policy.add_edge(Edge::RolePriv(admins, v));
        }
    }
    // Each role carries one user privilege, so membership churn is
    // visible to Definition-6 refinement and `check_access`.
    for (i, &r) in roles.iter().enumerate() {
        let perm = universe.perm("use", &format!("obj{i}"));
        let p = universe.priv_perm(perm);
        policy.add_edge(Edge::RolePriv(r, p));
    }
    (universe, policy)
}

/// Blueprint for one command (the actor is the submitting thread's).
#[derive(Clone, Copy, Debug)]
struct CmdSpec {
    grant: bool,
    subject: u8,
    role: u8,
}

fn cmd_spec() -> impl Strategy<Value = CmdSpec> {
    (any::<bool>(), 0u8..SUBJECTS as u8, 0u8..ROLES as u8).prop_map(|(grant, subject, role)| {
        CmdSpec {
            grant,
            subject,
            role,
        }
    })
}

/// Per-submitter request lists: 2–3 submitters × 1–5 requests × 1–3
/// commands.
fn submitters() -> impl Strategy<Value = Vec<Vec<Vec<CmdSpec>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(cmd_spec(), 1..4), 1..6),
        2..4,
    )
}

fn build(uni: &Universe, actor: UserId, spec: CmdSpec) -> Command {
    let subject = uni.find_user(&format!("subj{}", spec.subject)).unwrap();
    let role = uni.find_role(&format!("r{}", spec.role)).unwrap();
    let edge = Edge::UserRole(subject, role);
    if spec.grant {
        Command::grant(actor, edge)
    } else {
        Command::revoke(actor, edge)
    }
}

/// Runs the concurrent case and checks guarantee 1 end to end: in
/// process, or `over_the_wire` through a daemon on a Unix socket with
/// one `WireClient` per submitter.
fn check_group_commit_matches_serial(threads: &[Vec<Vec<CmdSpec>>], over_the_wire: bool) {
    let (uni, policy) = arena();
    let config = MonitorConfig {
        audit_capacity: 8192,
        ..MonitorConfig::default()
    };
    let service = Arc::new(
        MonitorService::in_memory(uni.clone(), policy.clone(), config)
            .with_write_gather(Duration::from_micros(50)),
    );
    let dir = TempDir::new("service-protocol-wire").unwrap();
    let socket = dir.path().join("adminrefd.sock");
    let daemon = over_the_wire.then(|| {
        let listener = WireListener::unix(&socket).unwrap();
        Daemon::spawn(service.clone(), uni.clone(), listener).unwrap()
    });
    // Collected per submitter: each request's commands and outcomes.
    type Submitted = Vec<(Vec<Command>, Vec<StepOutcome>)>;
    let collected: Vec<Mutex<Submitted>> = threads.iter().map(|_| Mutex::new(Vec::new())).collect();
    crossbeam::scope(|scope| {
        for (t, requests) in threads.iter().enumerate() {
            let (service, uni, collected, socket) = (&service, &uni, &collected, &socket);
            scope.spawn(move |_| {
                let submitter: Box<dyn PolicyService> = if over_the_wire {
                    Box::new(WireClient::connect_unix(socket).unwrap())
                } else {
                    Box::new(Arc::clone(service))
                };
                let actor = uni.find_user(&format!("actor{t}")).unwrap();
                let mut mine = Vec::new();
                for request in requests {
                    let commands: Vec<Command> =
                        request.iter().map(|&s| build(uni, actor, s)).collect();
                    let outcomes = submitter.submit(commands.clone()).expect("submit");
                    assert_eq!(outcomes.len(), commands.len());
                    mine.push((commands, outcomes));
                }
                *collected[t].lock().unwrap() = mine;
            });
        }
    })
    .unwrap();
    if let Some(daemon) = daemon {
        daemon.shutdown();
    }

    let audit = service.monitor().audit_events();
    let total: usize = threads
        .iter()
        .flat_map(|reqs| reqs.iter().map(|r| r.len()))
        .sum();
    assert_eq!(audit.len(), total, "every command audited exactly once");

    // (1a) The audit order IS a serial interleaving: replaying it through
    // Definition 5 reproduces decisions, changed-flags, and the final
    // policy.
    let (mut serial_uni, mut serial_policy) = (uni.clone(), policy);
    for event in &audit {
        let outcome = step(
            &mut serial_uni,
            &mut serial_policy,
            &event.command,
            config.auth_mode,
        );
        match (outcome.authorization, event.decision) {
            (Some(auth), Decision::Executed { held, target }) => {
                assert_eq!((auth.held, auth.target), (held, target));
            }
            (None, Decision::Refused) => {}
            other => panic!("decision mismatch at seq {}: {other:?}", event.seq),
        }
        assert_eq!(outcome.changed, event.changed, "seq {}", event.seq);
    }
    let (_, service_policy) = service.monitor().snapshot();
    assert_eq!(serial_policy, service_policy);

    // (1b) Atomicity + FIFO per submitter: each submitter's audit events
    // are exactly its submitted commands in order, each request's events
    // on contiguous sequence numbers, with outcomes matching.
    let mut by_actor: HashMap<UserId, Vec<&adminref_monitor::AuditEvent>> = HashMap::new();
    for event in &audit {
        by_actor.entry(event.command.actor).or_default().push(event);
    }
    for (t, slot) in collected.iter().enumerate() {
        let actor = uni.find_user(&format!("actor{t}")).unwrap();
        let events = by_actor.remove(&actor).unwrap_or_default();
        let mine = slot.lock().unwrap();
        let mut cursor = 0usize;
        for (commands, outcomes) in mine.iter() {
            let window = &events[cursor..cursor + commands.len()];
            for (i, ((cmd, outcome), event)) in
                commands.iter().zip(outcomes).zip(window).enumerate()
            {
                assert_eq!(*cmd, event.command, "submitter {t}, command {i}");
                assert_eq!(
                    outcome.executed(),
                    matches!(event.decision, Decision::Executed { .. })
                );
                assert_eq!(outcome.changed, event.changed);
                if i > 0 {
                    assert_eq!(
                        event.seq,
                        window[i - 1].seq + 1,
                        "submitter {t}: request torn across the batch"
                    );
                }
            }
            cursor += commands.len();
        }
        assert_eq!(cursor, events.len(), "stray events for submitter {t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Guarantee 1 under randomized request shapes and thread counts,
    /// in process.
    #[test]
    fn concurrent_submitters_match_a_serial_interleaving(threads in submitters()) {
        check_group_commit_matches_serial(&threads, false);
    }

    /// The same shapes over the wire, where the daemon's committer
    /// coalesces the connections' requests.
    #[test]
    fn concurrent_wire_submitters_match_a_serial_interleaving(threads in submitters()) {
        check_group_commit_matches_serial(&threads, true);
    }
}

/// Guarantee 2 through the public protocol: a durable backend that
/// fails writing a request's WAL record applies none of it, and a
/// retry of the whole request applies it.
#[test]
fn a_store_failure_applies_none_of_the_request() {
    let (uni, policy) = arena();
    let actor = uni.find_user("actor0").unwrap();
    let subj = uni.find_user("subj0").unwrap();
    let (r0, r1, r2) = (
        uni.find_role("r0").unwrap(),
        uni.find_role("r1").unwrap(),
        uni.find_role("r2").unwrap(),
    );
    let dir = TempDir::new("service-all-or-nothing").unwrap();
    let mut store =
        PolicyStore::create(dir.path(), uni.clone(), policy, AuthMode::Explicit).unwrap();
    store.inject_append_failure();
    let service = MonitorService::new(adminref_monitor::ReferenceMonitor::with_store(
        store,
        MonitorConfig::default(),
    ));
    let commands = vec![
        Command::grant(actor, Edge::UserRole(subj, r0)),
        Command::grant(actor, Edge::UserRole(subj, r1)),
        Command::grant(actor, Edge::UserRole(subj, r2)),
    ];
    match service.submit(commands.clone()) {
        Err(ServiceError::Backend { applied, error }) => {
            assert!(applied.is_empty(), "nothing was applied");
            assert!(error.to_string().contains("injected"), "{error}");
        }
        other => panic!("expected Backend error, got {other:?}"),
    }
    // The published snapshot and the audit log hold none of it…
    let snapshot = service.monitor().read_snapshot();
    assert_eq!(snapshot.epoch, 0);
    for role in [r0, r1, r2] {
        assert!(!snapshot.policy().contains_edge(Edge::UserRole(subj, role)));
    }
    assert_eq!(service.monitor().audit_len(), 0);
    // …and the service keeps serving: the fault was transient, so the
    // request retried whole applies.
    let retry = service.submit(commands).expect("fault was transient");
    assert!(retry.iter().all(|o| o.executed() && o.changed));
    // Recovery from disk replays exactly the retry.
    drop(service);
    let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
    assert_eq!((report.replayed, report.divergent), (3, 0));
    assert!(!report.truncated_tail);
    for role in [r0, r1, r2] {
        assert!(store.policy().contains_edge(Edge::UserRole(subj, role)));
    }
}

/// Guarantee 3: every request variant answers with its paired response
/// through the typed wrappers, against one live service.
#[test]
fn protocol_round_trips_every_variant() {
    let (uni, policy) = arena();
    let service = MonitorService::in_memory(uni.clone(), policy.clone(), MonitorConfig::default());
    let actor = uni.find_user("actor0").unwrap();
    let subj = uni.find_user("subj0").unwrap();
    let r0 = uni.find_role("r0").unwrap();

    // Sessions + access checks (session creation routes through the
    // protocol — SessionId has no public constructor for live handles).
    let sid = service.create_session(subj).unwrap();
    assert!(matches!(
        service.activate_role(sid, r0),
        Err(ServiceError::Session(_))
    ));
    service
        .submit(vec![Command::grant(actor, Edge::UserRole(subj, r0))])
        .unwrap();
    service.activate_role(sid, r0).unwrap();
    let mut probe = uni.clone();
    let granted = probe.perm("use", "obj0");
    let missing = probe.perm("read", "nothing");
    assert!(service.check_access(sid, granted).unwrap());
    assert!(!service.check_access(sid, missing).unwrap());
    assert!(service.deactivate_role(sid, r0).unwrap());
    assert!(service.drop_session(sid).unwrap());
    let ghost = adminref_monitor::SessionId::from_raw(sid.raw());
    assert!(matches!(
        service.check_access(ghost, missing),
        Err(ServiceError::UnknownSession(_))
    ));

    // Analyses.
    let answer = service
        .analyze_reach(
            Entity::User(subj),
            missing,
            SafetyConfig {
                max_steps: 1,
                ..SafetyConfig::default()
            },
        )
        .unwrap();
    assert!(!answer.is_reachable());
    // The live policy (with the extra grant) does not refine the
    // original, but the original refines it.
    let reply = service
        .check_refinement(policy.clone(), RefinementDirection::CandidateRefinesLive, 5)
        .unwrap();
    assert!(reply.holds, "removing authority is a refinement");
    let reply = service
        .check_refinement(policy.clone(), RefinementDirection::LiveRefinesCandidate, 5)
        .unwrap();
    assert!(!reply.holds);
    assert!(reply.total_violations > 0);
    assert!(reply.witnesses.len() <= 5);
    let foreign = Policy::new(&Universe::new());
    assert!(matches!(
        service.check_refinement(foreign, RefinementDirection::CandidateRefinesLive, 1),
        Err(ServiceError::ForeignPolicy)
    ));
    // A candidate built on a client-*extended* clone carries the right
    // tag but out-of-range ids; the bounds check must refuse it rather
    // than let index-building panic the server.
    let mut extended = uni.clone();
    let new_user = extended.user("interloper");
    let new_role = extended.role("shadow");
    let mut oversized = policy.clone();
    oversized.add_edge(Edge::UserRole(new_user, new_role));
    assert!(matches!(
        service.check_refinement(oversized, RefinementDirection::CandidateRefinesLive, 1),
        Err(ServiceError::ForeignPolicy)
    ));

    // Audit + version + stats. A second command distinguishes the
    // exclusive `audit_since` cursor from the bounded tail.
    assert_eq!(service.version().unwrap(), 1);
    service
        .submit(vec![Command::revoke(actor, Edge::UserRole(subj, r0))])
        .unwrap();
    let tail = service.audit_tail(10).unwrap();
    assert_eq!(tail.len(), 2);
    let since = service.audit_since(tail[0].seq, 10).unwrap();
    assert_eq!(since.len(), 1, "only events after the cursor");
    assert_eq!(since[0].seq, tail[1].seq);
    let stats = service.stats().unwrap();
    assert_eq!(stats.epoch, 2);
    assert_eq!(stats.sessions, 0, "the session was dropped");
    assert_eq!(stats.audit_retained, 2);
    assert!(stats.users >= ACTORS + SUBJECTS);
    assert!(stats.roles > ROLES);
    assert!(stats.edges > 0);
    assert_eq!(
        stats.forced_deactivations, 0,
        "the session was dropped before the revoke"
    );
    assert!(stats.recovery.is_none(), "in-memory: nothing recovered");

    // Compact is total: a no-op acknowledgment on in-memory monitors.
    service.compact().unwrap();

    // A forced deactivation is visible through Stats: activate, then
    // revoke the justifying membership out from under the session.
    let sid = service.create_session(subj).unwrap();
    service
        .submit(vec![Command::grant(actor, Edge::UserRole(subj, r0))])
        .unwrap();
    service.activate_role(sid, r0).unwrap();
    service
        .submit(vec![Command::revoke(actor, Edge::UserRole(subj, r0))])
        .unwrap();
    assert!(!service.check_access(sid, granted).unwrap());
    assert_eq!(service.stats().unwrap().forced_deactivations, 1);
}
