//! End-to-end daemon coverage over real sockets: the full protocol on a
//! Unix socket, a pipelined admin batch from concurrent callers sharing
//! one connection, analysis requests, wire-level error semantics
//! against a raw socket, prompt accepts, and clean shutdown.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use adminref_core::prelude::*;
use adminref_core::transition::AuthMode;
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_service::protocol::RefinementDirection;
use adminref_service::wire::{self, FrameKind};
use adminref_service::{
    Daemon, DaemonConfig, GroupCommit, MonitorService, PolicyService, Request, Response,
    ServiceError, WireClient, WireListener,
};
use adminref_store::{PolicyStore, TempDir};

const SUBJECTS: usize = 6;
const ROLES: usize = 3;

/// An arena where `admin` holds grant and revoke authority over every
/// `(subject, role)` edge, and every role carries one user permission.
fn arena() -> (Universe, Policy, UserId) {
    let mut universe = Universe::new();
    let admin = universe.user("admin");
    let subjects: Vec<UserId> = (0..SUBJECTS)
        .map(|i| universe.user(&format!("subj{i}")))
        .collect();
    let roles: Vec<RoleId> = (0..ROLES)
        .map(|i| universe.role(&format!("r{i}")))
        .collect();
    let admins = universe.role("admins");
    let mut policy = Policy::new(&universe);
    policy.add_edge(Edge::UserRole(admin, admins));
    for &s in &subjects {
        for &r in &roles {
            let g = universe.grant_user_role(s, r);
            let v = universe.revoke_user_role(s, r);
            policy.add_edge(Edge::RolePriv(admins, g));
            policy.add_edge(Edge::RolePriv(admins, v));
        }
    }
    for (i, &r) in roles.iter().enumerate() {
        let perm = universe.perm("use", &format!("obj{i}"));
        let p = universe.priv_perm(perm);
        policy.add_edge(Edge::RolePriv(r, p));
    }
    (universe, policy, admin)
}

fn serve_unix(dir: &TempDir) -> (Daemon, std::path::PathBuf) {
    let (universe, policy, _) = arena();
    // The same service construction `adminref serve` uses: a write
    // gather window so one pipelined round-trip's submissions coalesce.
    let service: Arc<dyn PolicyService> = Arc::new(
        MonitorService::in_memory(universe.clone(), policy, MonitorConfig::default())
            .with_write_gather(Duration::from_micros(50)),
    );
    let path = dir.path().join("adminrefd.sock");
    let listener = WireListener::unix(&path).expect("bind unix socket");
    let daemon = Daemon::spawn(service, universe, listener).expect("spawn daemon");
    (daemon, path)
}

#[test]
fn unix_socket_serves_the_full_protocol() {
    let dir = TempDir::new("daemon-e2e").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let client = WireClient::connect_unix(&path).expect("connect");
    let (mut universe, _, admin) = arena();

    let subj = universe.find_user("subj0").unwrap();
    let r0 = universe.find_role("r0").unwrap();
    // Interning is deterministic, so re-interning on this copy of the
    // universe yields the id the server uses.
    let perm0 = universe.perm("use", "obj0");

    // Access checks: subj0 reaches obj0 only once granted r0 and the
    // session activates it.
    let admin_session = client.create_session(admin).expect("admin session");
    let outcomes = client
        .submit(vec![Command {
            actor: admin,
            kind: CommandKind::Grant,
            edge: Edge::UserRole(subj, r0),
        }])
        .expect("grant");
    assert!(outcomes[0].executed() && outcomes[0].changed);

    let subj_session = client.create_session(subj).expect("subject session");
    assert!(!client.check_access(subj_session, perm0).unwrap());
    client.activate_role(subj_session, r0).expect("activate");
    assert!(client.check_access(subj_session, perm0).unwrap());

    // Analysis over the wire: the granted subject reaches the
    // permission; refinement of the live policy against itself holds.
    let answer = client
        .analyze_reach(
            Entity::User(subj),
            perm0,
            SafetyConfig {
                max_steps: 0,
                ..SafetyConfig::default()
            },
        )
        .expect("reach");
    assert!(answer.is_reachable());

    let live = client.audit_tail(16).expect("audit");
    assert_eq!(live.len(), 1, "one audited command");

    let reply = client
        .check_refinement(
            {
                let (u2, p2, _) = arena();
                assert_eq!(u2.user_count(), universe.user_count());
                p2
            },
            RefinementDirection::CandidateRefinesLive,
            4,
        )
        .expect("refinement");
    assert!(reply.holds, "the pristine arena grants no more than live");

    let report = client
        .lint(vec![(r0, universe.find_role("r1").unwrap())])
        .expect("lint");
    assert!(report.rules_checked > 0);

    let epoch = client.version().expect("version");
    assert!(epoch >= 1, "the grant published an epoch");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions, 2);
    client.compact().expect("compact is a no-op in memory");

    // Session lifecycle: deactivate, drop, and a dropped session is
    // answered with the same typed error a local caller would get.
    assert!(client.deactivate_role(subj_session, r0).unwrap());
    assert!(client.drop_session(subj_session).unwrap());
    match client.check_access(subj_session, perm0) {
        Err(ServiceError::UnknownSession(_)) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    assert!(client.drop_session(admin_session).unwrap());

    daemon.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
    // The connection is dead: calls surface Transport, never hang.
    match client.version() {
        Err(ServiceError::Transport { .. }) => {}
        other => panic!("expected Transport after shutdown, got {other:?}"),
    }
}

#[test]
fn pipelined_admin_batch_is_atomic_and_complete() {
    let dir = TempDir::new("daemon-pipe").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let client = Arc::new(WireClient::connect_unix(&path).expect("connect"));
    let (universe, _, admin) = arena();

    // Each worker toggles its own disjoint `(subject, role)` edge, so
    // every command is authorized and policy-changing regardless of how
    // the daemon's group commit interleaves the requests.
    let workers: Vec<_> = (0..SUBJECTS)
        .map(|i| {
            let client = Arc::clone(&client);
            let subj = universe.find_user(&format!("subj{i}")).unwrap();
            let role = universe.find_role(&format!("r{}", i % ROLES)).unwrap();
            std::thread::spawn(move || {
                let edge = Edge::UserRole(subj, role);
                for _ in 0..8 {
                    for kind in [CommandKind::Grant, CommandKind::Revoke] {
                        let outcomes = client
                            .submit(vec![Command {
                                actor: admin,
                                kind,
                                edge,
                            }])
                            .expect("submit");
                        assert_eq!(outcomes.len(), 1);
                        assert!(outcomes[0].executed(), "admin holds the authority");
                        assert!(outcomes[0].changed, "disjoint toggles always change");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    // Every command audited exactly once, and group commit coalesced at
    // least some of the concurrent submissions (fewer epochs than
    // requests — each epoch publishes one drained group).
    let stats = client.stats().expect("stats");
    let total = (SUBJECTS * 8 * 2) as u64;
    assert_eq!(stats.audit_retained as u64, total);
    assert!(
        stats.epoch <= total,
        "epochs ({}) cannot exceed requests ({total})",
        stats.epoch
    );
    daemon.shutdown();
}

#[test]
fn tcp_transport_speaks_the_same_protocol() {
    let (universe, policy, admin) = arena();
    let service: Arc<dyn PolicyService> = Arc::new(MonitorService::in_memory(
        universe.clone(),
        policy,
        MonitorConfig::default(),
    ));
    let listener = WireListener::tcp("127.0.0.1:0").expect("bind tcp");
    let daemon = Daemon::spawn(service, universe, listener).expect("spawn");
    let addr = daemon.local_addr().expect("tcp daemon has an address");

    let client = WireClient::connect_tcp(addr).expect("connect");
    assert_eq!(client.version().unwrap(), 0, "no writes yet");
    let session = client.create_session(admin).unwrap();
    assert!(client.drop_session(session).unwrap());
    daemon.shutdown();
}

#[cfg(unix)]
#[test]
fn framing_violations_close_with_an_id_zero_error() {
    let dir = TempDir::new("daemon-garbage").unwrap();
    let (daemon, path) = serve_unix(&dir);

    // Garbage bytes — at least a full header's worth, so the server's
    // framed read completes and rejects it: one Transport error frame
    // with request id 0, then the server closes the connection.
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    raw.write_all(b"GET /adminref HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    raw.flush().unwrap();
    let frame = wire::read_frame(&mut raw)
        .expect("server answers before closing")
        .expect("an error frame, not EOF");
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(frame.request_id, 0, "stream position untrustworthy");
    match wire::decode_error(&frame.payload).expect("decodes") {
        ServiceError::Transport { .. } => {}
        other => panic!("expected Transport, got {other:?}"),
    }
    assert!(
        wire::read_frame(&mut raw).expect("clean close").is_none(),
        "connection closed after a framing violation"
    );

    // A well-framed but undecodable request: the error echoes the id
    // and the connection survives.
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    wire::write_frame(&mut raw, FrameKind::Request, 42, &[0xFF, 0xFF, 0x01]).unwrap();
    raw.flush().unwrap();
    let frame = wire::read_frame(&mut raw).expect("read").expect("frame");
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(frame.request_id, 42, "request-level failures echo the id");

    // …and the same connection still serves real requests.
    wire::write_frame(
        &mut raw,
        FrameKind::Request,
        43,
        &wire::encode_request(&Request::Version),
    )
    .unwrap();
    raw.flush().unwrap();
    let frame = wire::read_frame(&mut raw).expect("read").expect("frame");
    assert_eq!(frame.kind, FrameKind::Response);
    assert_eq!(frame.request_id, 43);
    daemon.shutdown();
}

/// One round of pipelined submits over raw sockets: connection `c` sends
/// `requests[c]` as one write, then reads one frame per request. Returns
/// every `(request id, answer)` received, in arrival order.
#[cfg(unix)]
fn raw_round(
    conns: &mut [std::os::unix::net::UnixStream],
    requests: &[Vec<(u64, Vec<Command>)>],
) -> Vec<(u64, Result<Response, ServiceError>)> {
    for (conn, requests) in conns.iter_mut().zip(requests) {
        let mut bytes = Vec::new();
        for (id, commands) in requests {
            let submit = wire::encode_request(&Request::Submit {
                commands: commands.clone(),
            });
            wire::write_frame(&mut bytes, FrameKind::Request, *id, &submit).unwrap();
        }
        conn.write_all(&bytes).unwrap();
    }
    let mut answers = Vec::new();
    for (conn, requests) in conns.iter_mut().zip(requests) {
        for _ in requests {
            let frame = wire::read_frame(conn).unwrap().expect("a reply frame");
            let answer = match frame.kind {
                FrameKind::Response => Ok(wire::decode_response(&frame.payload).unwrap()),
                _ => Err(wire::decode_error(&frame.payload).unwrap()),
            };
            answers.push((frame.request_id, answer));
        }
    }
    answers
}

/// The committer writes the acks, and only once the group's WAL sync
/// returned: two connections with eight pipelined submits each, against
/// a durable service whose first sync fails. Every id is answered
/// exactly once; the failed group answers `Backend` with no outcomes to
/// every submit and `Outcomes` to none, and publishes nothing; the same
/// round retried answers `Outcomes` to all sixteen.
#[cfg(unix)]
#[test]
fn the_committer_acks_each_submit_once_after_the_sync() {
    let dir = TempDir::new("daemon-ack-after-sync").unwrap();
    let (universe, policy, admin) = arena();
    let mut store = PolicyStore::create(
        &dir.path().join("store"),
        universe.clone(),
        policy,
        AuthMode::Explicit,
    )
    .unwrap();
    store.inject_sync_failure();
    let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
    // A generous window, so scheduling cannot split a round's group.
    let service =
        Arc::new(MonitorService::new(monitor).with_write_gather(Duration::from_millis(200)));
    let path = dir.path().join("adminrefd.sock");
    let listener = WireListener::unix(&path).unwrap();
    let daemon = Daemon::spawn(service.clone(), universe.clone(), listener).unwrap();
    let mut conns: Vec<_> = (0..2)
        .map(|_| std::os::unix::net::UnixStream::connect(&path).unwrap())
        .collect();
    let edges: Vec<Edge> = (0..SUBJECTS * ROLES)
        .map(|k| {
            let subj = universe.find_user(&format!("subj{}", k / ROLES)).unwrap();
            let role = universe.find_role(&format!("r{}", k % ROLES)).unwrap();
            Edge::UserRole(subj, role)
        })
        .collect();
    let round = |first_id: u64, kind: CommandKind| -> Vec<Vec<(u64, Vec<Command>)>> {
        (0..2)
            .map(|c| {
                (0..8)
                    .map(|j| {
                        let edge = edges[8 * c + j];
                        let command = Command {
                            actor: admin,
                            kind,
                            edge,
                        };
                        (first_id + (8 * c + j) as u64, vec![command])
                    })
                    .collect()
            })
            .collect()
    };
    let ids_of = |answers: &[(u64, Result<Response, ServiceError>)]| {
        let mut ids: Vec<u64> = answers.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
    };

    // Sixteen empty submits in one burst: one drain of sixteen teaches
    // the combiner the population, without syncing anything.
    let primer: Vec<(u64, Vec<Command>)> = (0..16).map(|id| (id, Vec::new())).collect();
    let primed = raw_round(&mut conns[..1], &[primer]);
    assert_eq!(ids_of(&primed), (0..16).collect::<Vec<_>>());

    // The failed group: the sync failure reaches every submit, no reply
    // claims success, and no epoch is published.
    let version = service.monitor().version();
    let failed = raw_round(&mut conns, &round(100, CommandKind::Grant));
    assert_eq!(ids_of(&failed), (100..116).collect::<Vec<_>>());
    for (id, answer) in &failed {
        match answer {
            Err(ServiceError::Backend { applied, .. }) => {
                assert!(applied.is_empty(), "id {id}: nothing was applied");
            }
            other => panic!("id {id}: expected Backend, got {other:?}"),
        }
    }
    assert_eq!(service.monitor().version(), version);

    // The same round retried: every submit acknowledged with its outcome.
    let clean = raw_round(&mut conns, &round(200, CommandKind::Grant));
    assert_eq!(ids_of(&clean), (200..216).collect::<Vec<_>>());
    for (id, answer) in &clean {
        match answer {
            Ok(Response::Outcomes(outcomes)) => {
                assert!(outcomes[0].executed() && outcomes[0].changed)
            }
            other => panic!("id {id}: expected Outcomes, got {other:?}"),
        }
    }

    // Nothing is answered twice: no frame is left on either socket.
    for conn in &mut conns {
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        assert!(wire::read_frame(conn).is_err(), "a stray reply frame");
    }
    daemon.shutdown();
}

/// A client that pipelines submits and never reads its replies fills the
/// socket buffers, and the combiner's committer thread writes those
/// replies. The daemon closes that connection once a write to it stalls,
/// so another connection's submits still complete.
#[cfg(unix)]
#[test]
fn a_client_that_stops_reading_cannot_stall_the_others() {
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    let dir = TempDir::new("daemon-stalled-reader").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let (universe, _, admin) = arena();
    let edge = Edge::UserRole(
        universe.find_user("subj0").unwrap(),
        universe.find_role("r0").unwrap(),
    );
    // The stalled client floods empty submits from its own thread and
    // never reads; its writes fail once the daemon closes the socket.
    let mut flood = UnixStream::connect(&path).unwrap();
    let stalled = flood.try_clone().unwrap();
    let flooder = std::thread::spawn(move || {
        let submit = wire::encode_request(&Request::Submit {
            commands: Vec::new(),
        });
        let mut burst = Vec::new();
        for id in 0..64 {
            wire::write_frame(&mut burst, FrameKind::Request, id, &submit).unwrap();
        }
        (0..4096)
            .take_while(|_| flood.write_all(&burst).is_ok())
            .count()
    });
    std::thread::sleep(Duration::from_millis(200));

    // The other client: ten round trips of one submit each.
    let mut other = UnixStream::connect(&path).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let started = Instant::now();
    let answers: Vec<_> = (0..10u64)
        .map(|id| {
            let kind = [CommandKind::Grant, CommandKind::Revoke][id as usize % 2];
            let submit = wire::encode_request(&Request::Submit {
                commands: vec![Command {
                    actor: admin,
                    kind,
                    edge,
                }],
            });
            wire::write_frame(&mut other, FrameKind::Request, id, &submit).unwrap();
            wire::read_frame(&mut other).map(|frame| frame.map(|f| (f.request_id, f.kind)))
        })
        .collect();
    let elapsed = started.elapsed();
    // The daemon closed the stalled connection: the flood's writes fail.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !flooder.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let cut_off = flooder.is_finished();
    // Unwedge a daemon that never cut it off before asserting, so a
    // failure cannot hang the shutdown below.
    let _ = stalled.shutdown(Shutdown::Both);
    flooder.join().unwrap();
    for (id, answer) in answers.iter().enumerate() {
        match answer {
            Ok(Some((got, FrameKind::Response))) => assert_eq!(*got, id as u64),
            other => panic!("submit {id} of the reading client: {other:?}"),
        }
    }
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    assert!(cut_off, "the stalled client was never disconnected");
    daemon.shutdown();
}

/// A service whose reachability analyses take a second, so one pins a
/// worker of the daemon's pool; everything else, the write combiner
/// included, is the wrapped service's.
struct SlowAnalyses(MonitorService);

impl PolicyService for SlowAnalyses {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        if matches!(request, Request::AnalyzeReach { .. }) {
            std::thread::sleep(Duration::from_secs(1));
        }
        self.0.call(request)
    }

    fn write_combiner(&self) -> Option<&GroupCommit> {
        self.0.write_combiner()
    }
}

/// The committer never waits behind a busy worker: the daemon's only
/// worker is pinned by A's slow analyses while A's submits queue behind
/// B's drains, and B's round trips stay prompt throughout.
#[cfg(unix)]
#[test]
fn a_busy_worker_never_holds_up_the_committer() {
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    let dir = TempDir::new("daemon-busy-worker").unwrap();
    let (mut universe, policy, admin) = arena();
    let perm = universe.perm("use", "obj0");
    let inner = MonitorService::in_memory(universe.clone(), policy, MonitorConfig::default());
    let service = SlowAnalyses(inner.with_write_gather(Duration::from_micros(50)));
    let path = dir.path().join("adminrefd.sock");
    let config = DaemonConfig { workers: 1 };
    let listener = WireListener::unix(&path).unwrap();
    let service = Arc::new(service);
    let daemon =
        Daemon::spawn_replicated(service, universe.clone(), listener, config, None).unwrap();
    let toggles = |edges: std::ops::Range<usize>, first_id: u64, kind: CommandKind| {
        edges
            .map(|k| {
                let subj = universe.find_user(&format!("subj{}", k / ROLES)).unwrap();
                let role = universe.find_role(&format!("r{}", k % ROLES)).unwrap();
                let edge = Edge::UserRole(subj, role);
                let command = Command {
                    actor: admin,
                    kind,
                    edge,
                };
                (first_id + k as u64, vec![command])
            })
            .collect::<Vec<_>>()
    };
    let kind_of = |round: u64| [CommandKind::Grant, CommandKind::Revoke][round as usize % 2];

    // B: back-to-back rounds of eight pipelined submits for 2.5 s.
    let mut b = UnixStream::connect(&path).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let started = Instant::now();
    let (b_done, worst) = std::thread::scope(|scope| {
        let b_thread = scope.spawn(|| {
            let mut worst = Duration::ZERO;
            let mut round = 0u64;
            while started.elapsed() < Duration::from_millis(2500) {
                let requests = [toggles(8..16, 1000 * round, kind_of(round))];
                let sent = Instant::now();
                let answers = raw_round(std::slice::from_mut(&mut b), &requests);
                worst = worst.max(sent.elapsed());
                assert!(answers
                    .iter()
                    .all(|(_, a)| matches!(a, Ok(Response::Outcomes(_)))));
                round += 1;
            }
            (round, worst)
        });
        // A: three bursts of [slow analysis, eight submits], while B runs.
        let mut a = UnixStream::connect(&path).unwrap();
        for burst in 0..3u64 {
            std::thread::sleep(Duration::from_millis(100));
            let analyze = wire::encode_request(&Request::AnalyzeReach {
                entity: Entity::User(admin),
                perm,
                config: SafetyConfig {
                    max_steps: 0,
                    ..SafetyConfig::default()
                },
            });
            let mut bytes = Vec::new();
            wire::write_frame(&mut bytes, FrameKind::Request, 900 + burst, &analyze).unwrap();
            for (id, commands) in toggles(0..8, 100 * (burst + 1), kind_of(burst)) {
                let submit = wire::encode_request(&Request::Submit { commands });
                wire::write_frame(&mut bytes, FrameKind::Request, id, &submit).unwrap();
            }
            a.write_all(&bytes).unwrap();
        }
        a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for _ in 0..3 * 9 {
            let frame = wire::read_frame(&mut a).unwrap().expect("a reply to A");
            assert_eq!(frame.kind, FrameKind::Response, "id {}", frame.request_id);
        }
        b_thread.join().unwrap()
    });
    assert!(b_done > 10, "only {b_done} rounds of B");
    assert!(
        worst < Duration::from_millis(500),
        "a round of B waited {worst:?}"
    );
    daemon.shutdown();
}

/// The accept loop blocks in `accept`, so a new connection is served
/// at once: 32 connections in sequence, one `Version` round trip each,
/// finish well inside the time a 25 ms accept poll would add to each.
#[test]
fn connection_churn_is_served_without_an_accept_delay() {
    use std::time::Instant;

    let (universe, policy, _) = arena();
    let service: Arc<dyn PolicyService> = Arc::new(MonitorService::in_memory(
        universe.clone(),
        policy,
        MonitorConfig::default(),
    ));
    let listener = WireListener::tcp("127.0.0.1:0").expect("bind");
    let daemon = Daemon::spawn(service, universe, listener).expect("spawn");
    let addr = daemon.local_addr().unwrap();
    let start = Instant::now();
    for _ in 0..32 {
        let client = WireClient::connect_tcp(addr).expect("connect");
        client.version_info().expect("version");
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "32 connections took {took:?}"
    );
    daemon.shutdown();
}

#[test]
fn daemon_drains_connections_on_shutdown() {
    let dir = TempDir::new("daemon-drain").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let (_, _, admin) = arena();
    let client = WireClient::connect_unix(&path).expect("connect");

    // An in-flight request either completes or surfaces Transport —
    // shutdown must not wedge behind the open connection.
    let session = client.create_session(admin).expect("session");
    let worker = std::thread::spawn(move || daemon.shutdown());
    // The daemon drains: this call races shutdown, so both a served
    // reply and a transport error are acceptable — a hang is not
    // (the test harness would time out).
    match client.drop_session(session) {
        Ok(_) | Err(ServiceError::Transport { .. }) => {}
        Err(other) => panic!("unexpected error during shutdown: {other:?}"),
    }
    worker.join().expect("shutdown completes");
    assert!(!path.exists());
}

#[test]
fn daemon_config_is_tunable() {
    // A one-worker pool still serves correctly.
    let (universe, policy, admin) = arena();
    let service: Arc<dyn PolicyService> = Arc::new(MonitorService::in_memory(
        universe.clone(),
        policy,
        MonitorConfig::default(),
    ));
    let listener = WireListener::tcp("127.0.0.1:0").expect("bind");
    let config = DaemonConfig { workers: 1 };
    let daemon =
        Daemon::spawn_replicated(service, universe, listener, config, None).expect("spawn");
    let client = WireClient::connect_tcp(daemon.local_addr().unwrap()).expect("connect");
    let session = client.create_session(admin).unwrap();
    assert!(client.drop_session(session).unwrap());
    daemon.shutdown();
}
