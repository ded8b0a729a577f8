//! Replication end-to-end over real sockets: a primary daemon streams
//! epoch deltas to replica daemons, which serve the read alphabet
//! lock-free, refuse writes with a typed error, converge to
//! byte-identical state checksums, survive kill/restart via
//! snapshot-at-epoch catch-up, self-heal from divergence by
//! re-bootstrapping, and fence stale primaries after a promotion; and
//! every thread that stop, promote or shutdown ends is woken, not
//! polled, so each returns at once.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adminref_core::prelude::*;
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_service::replication::fetch_bootstrap;
use adminref_service::wire::{self, FrameKind};
use adminref_service::{
    Daemon, DaemonConfig, FollowTarget, PolicyService, ReplicatedService, ReplicationRole, Request,
    Response, ServiceError, WireClient, WireListener,
};
use adminref_store::TempDir;

const SUBJECTS: usize = 6;
const ROLES: usize = 4;
const RETRY: Duration = Duration::from_millis(25);
const DEADLINE: Duration = Duration::from_secs(20);

/// An arena where `admin` holds grant and revoke authority over every
/// `(subject, role)` edge.
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
    (universe, policy, admin)
}

/// A deterministic splitmix64 stream — the tests need varied batches,
/// not entropy, and the suite stays reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A randomized admin batch: each command toggles some `(subject,
/// role)` edge, grant or revoke, all authorized by `admin`.
fn random_batch(rng: &mut Rng, universe: &Universe, admin: UserId) -> Vec<Command> {
    let len = 1 + (rng.next() as usize) % 5;
    (0..len)
        .map(|_| {
            let subj = universe
                .find_user(&format!("subj{}", rng.next() as usize % SUBJECTS))
                .unwrap();
            let role = universe
                .find_role(&format!("r{}", rng.next() as usize % ROLES))
                .unwrap();
            let kind = if rng.next() % 2 == 0 {
                CommandKind::Grant
            } else {
                CommandKind::Revoke
            };
            Command {
                actor: admin,
                kind,
                edge: Edge::UserRole(subj, role),
            }
        })
        .collect()
}

fn spawn_primary(dir: &TempDir) -> (Daemon, Arc<ReplicatedService>, std::path::PathBuf) {
    let path = dir.path().join("primary.sock");
    let listener = WireListener::unix(&path).expect("bind primary");
    let (daemon, service) = serve_primary(listener);
    (daemon, service, path)
}

/// An in-memory primary serving `listener`, its hub attached.
fn serve_primary(listener: WireListener) -> (Daemon, Arc<ReplicatedService>) {
    let (universe, policy, _) = arena();
    let monitor = Arc::new(ReferenceMonitor::new(
        universe.clone(),
        policy,
        MonitorConfig::default(),
    ));
    let service = Arc::new(ReplicatedService::primary(monitor));
    let hub = Arc::clone(service.hub());
    let daemon = Daemon::spawn_replicated(
        Arc::clone(&service) as Arc<dyn PolicyService>,
        universe,
        listener,
        DaemonConfig::default(),
        Some(hub),
    )
    .expect("spawn primary");
    (daemon, service)
}

/// Bootstraps a replica from the primary and serves it on its own unix
/// socket — the same construction `adminref serve --follow-unix` uses.
fn spawn_replica(
    primary: &Path,
    sock: &Path,
) -> (Daemon, Arc<ReplicatedService>, Arc<ReferenceMonitor>) {
    let (service, monitor) = follow(primary, RETRY);
    let hub = Arc::clone(service.hub());
    let universe = monitor.read_snapshot().universe().clone();
    let listener = WireListener::unix(sock).expect("bind replica");
    let daemon = Daemon::spawn_replicated(
        Arc::clone(&service) as Arc<dyn PolicyService>,
        universe,
        listener,
        DaemonConfig::default(),
        Some(hub),
    )
    .expect("spawn replica");
    (daemon, service, monitor)
}

/// A replica service bootstrapped from the primary at `primary` and
/// following it, retrying a lost connection every `retry`.
fn follow(primary: &Path, retry: Duration) -> (Arc<ReplicatedService>, Arc<ReferenceMonitor>) {
    let target = FollowTarget::Unix(primary.to_path_buf());
    let (universe, policy, constraints, epoch, term) =
        fetch_bootstrap(&target, Duration::from_secs(5)).expect("bootstrap");
    let monitor = Arc::new(ReferenceMonitor::new(
        universe.clone(),
        policy.clone(),
        MonitorConfig::default(),
    ));
    monitor
        .install_replica_state(universe, policy, epoch, constraints)
        .expect("install bootstrap state");
    let service = Arc::new(ReplicatedService::replica(
        Arc::clone(&monitor),
        target,
        retry,
        Some(term),
    ));
    (service, monitor)
}

/// Polls until the replica's `(epoch, checksum)` equals the primary's.
fn await_convergence(primary: &WireClient, replica: &WireClient, what: &str) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let want = primary.version_info().expect("primary version");
        let got = replica.version_info().expect("replica version");
        if got.epoch == want.epoch && got.checksum == want.checksum {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: replica stuck at epoch {} checksum {:#018x}, \
             primary at epoch {} checksum {:#018x}",
            got.epoch,
            got.checksum,
            want.epoch,
            want.checksum
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn replicas_converge_serve_reads_and_refuse_writes() {
    let dir = TempDir::new("repl-e2e").unwrap();
    let (primary_daemon, _primary_service, primary_sock) = spawn_primary(&dir);
    let (replica_a, _svc_a, _) = spawn_replica(&primary_sock, &dir.path().join("a.sock"));
    let (replica_b, _svc_b, _) = spawn_replica(&primary_sock, &dir.path().join("b.sock"));

    let client = WireClient::connect_unix(&primary_sock).expect("connect primary");
    let client_a = WireClient::connect_unix(dir.path().join("a.sock")).expect("connect a");
    let client_b = WireClient::connect_unix(dir.path().join("b.sock")).expect("connect b");
    let (universe, _, admin) = arena();

    // Randomized batches through the primary; every epoch must arrive
    // at both replicas with a byte-identical checksum.
    let mut rng = Rng(7);
    for _ in 0..20 {
        client
            .submit(random_batch(&mut rng, &universe, admin))
            .expect("primary accepts writes");
    }
    await_convergence(&client, &client_a, "replica a");
    await_convergence(&client, &client_b, "replica b");

    // Replicas serve the read alphabet from their own snapshots…
    let stats = client_a.stats().expect("replica stats");
    let primary_stats = client.stats().expect("primary stats");
    assert_eq!(stats.edges, primary_stats.edges);
    assert_eq!(stats.checksum, primary_stats.checksum);
    let repl = stats.replication.expect("replica reports its role");
    assert_eq!(repl.role, ReplicationRole::Replica);
    assert_eq!(repl.last_applied_epoch, primary_stats.epoch);
    assert_eq!(repl.lag, 0, "converged replica reports zero lag");
    let primary_repl = primary_stats.replication.expect("primary reports too");
    assert_eq!(primary_repl.role, ReplicationRole::Primary);

    // …including analyses, sessions, and audit-free reads.
    let subj = universe.find_user("subj0").unwrap();
    let session = client_b.create_session(subj).expect("replica session");
    assert!(client_b.drop_session(session).unwrap());

    // Writes are refused with the typed error, not a transport failure.
    match client_a.submit(random_batch(&mut rng, &universe, admin)) {
        Err(ServiceError::ReadOnly) => {}
        other => panic!("expected ReadOnly from a replica, got {other:?}"),
    }
    match client_a.compact() {
        Err(ServiceError::ReadOnly) => {}
        other => panic!("expected ReadOnly for compact, got {other:?}"),
    }

    replica_a.shutdown();
    replica_b.shutdown();
    primary_daemon.shutdown();
}

#[test]
fn killed_replica_catches_up_after_restart() {
    let dir = TempDir::new("repl-restart").unwrap();
    let (primary_daemon, _svc, primary_sock) = spawn_primary(&dir);
    let client = WireClient::connect_unix(&primary_sock).expect("connect primary");
    let (universe, _, admin) = arena();
    let mut rng = Rng(11);

    // History exists before the replica is born: its bootstrap is a
    // snapshot-at-epoch, and the stream resumes exactly there.
    for _ in 0..8 {
        client
            .submit(random_batch(&mut rng, &universe, admin))
            .expect("submit");
    }
    let sock = dir.path().join("replica.sock");
    let (daemon, service, _) = spawn_replica(&primary_sock, &sock);
    {
        let client_r = WireClient::connect_unix(&sock).expect("connect replica");
        await_convergence(&client, &client_r, "initial catch-up");
    }

    // Kill the replica mid-stream…
    daemon.shutdown();
    drop(service);
    // …advance the primary while it is down…
    for _ in 0..8 {
        client
            .submit(random_batch(&mut rng, &universe, admin))
            .expect("submit while replica down");
    }
    // …and a restarted replica converges again from a fresh bootstrap.
    let sock2 = dir.path().join("replica2.sock");
    let (daemon2, _svc2, _) = spawn_replica(&primary_sock, &sock2);
    let client_r = WireClient::connect_unix(&sock2).expect("reconnect replica");
    await_convergence(&client, &client_r, "post-restart catch-up");

    daemon2.shutdown();
    primary_daemon.shutdown();
}

#[test]
fn diverged_replica_refuses_and_rebootstraps() {
    let dir = TempDir::new("repl-diverge").unwrap();
    let (primary_daemon, _svc, primary_sock) = spawn_primary(&dir);
    let client = WireClient::connect_unix(&primary_sock).expect("connect primary");
    let (universe, _, admin) = arena();
    let mut rng = Rng(13);

    for _ in 0..4 {
        client
            .submit(random_batch(&mut rng, &universe, admin))
            .expect("submit");
    }
    let sock = dir.path().join("replica.sock");
    let (daemon, _service, monitor) = spawn_replica(&primary_sock, &sock);
    let client_r = WireClient::connect_unix(&sock).expect("connect replica");
    await_convergence(&client, &client_r, "pre-divergence sync");

    // Sabotage: silently install a tampered policy at the same epoch.
    // The next delta applies cleanly but the post-apply checksum
    // disagrees with the primary's — the replica must refuse the frame
    // and re-bootstrap rather than serve corrupt state.
    {
        let snapshot = monitor.read_snapshot();
        let epoch = snapshot.epoch;
        // The replica's own universe: its tag must match the policy's.
        let replica_universe = snapshot.universe().clone();
        let mut tampered = snapshot.policy().clone();
        let subj = replica_universe.find_user("subj0").unwrap();
        let rogue = replica_universe
            .find_role(&format!("r{}", ROLES - 1))
            .unwrap();
        let edge = Edge::UserRole(subj, rogue);
        if !tampered.remove_edge(edge) {
            tampered.add_edge(edge);
        }
        monitor
            .install_replica_state(
                replica_universe,
                tampered,
                epoch,
                (*monitor.constraints()).clone(),
            )
            .expect("tamper install");
    }

    client
        .submit(random_batch(&mut rng, &universe, admin))
        .expect("submit post-tamper");
    // Convergence implies the divergence was detected: without the
    // re-bootstrap the checksums could never rejoin.
    await_convergence(&client, &client_r, "post-divergence recovery");

    daemon.shutdown();
    primary_daemon.shutdown();
}

#[test]
fn promotion_fences_the_stale_primary() {
    let dir = TempDir::new("repl-promote").unwrap();
    let (primary_daemon, _svc, primary_sock) = spawn_primary(&dir);
    let client = WireClient::connect_unix(&primary_sock).expect("connect primary");
    let (universe, _, admin) = arena();
    let mut rng = Rng(17);
    for _ in 0..4 {
        client
            .submit(random_batch(&mut rng, &universe, admin))
            .expect("submit");
    }

    let sock = dir.path().join("replica.sock");
    let (replica_daemon, _service, _) = spawn_replica(&primary_sock, &sock);
    let client_r = WireClient::connect_unix(&sock).expect("connect replica");
    await_convergence(&client, &client_r, "pre-promotion sync");

    // Failover: promote the replica. It stops following, bumps its
    // term, and starts accepting writes.
    let epoch_at_promotion = client_r.version_info().unwrap().epoch;
    let (term, epoch) = client_r.promote().expect("promote");
    assert_eq!(term, 1, "first promotion bumps the replica to term 1");
    assert_eq!(epoch, epoch_at_promotion);
    client_r
        .submit(random_batch(&mut rng, &universe, admin))
        .expect("promoted node accepts writes");
    let stats = client_r.stats().expect("stats");
    assert_eq!(
        stats.replication.expect("still reports").role,
        ReplicationRole::Primary
    );

    // The fence: the demoted primary (still term 0) must refuse a
    // subscriber announcing the new term, so it can never feed a
    // follower that has seen the newer history.
    let mut raw = std::os::unix::net::UnixStream::connect(&primary_sock).expect("connect raw");
    wire::write_frame(
        &mut raw,
        FrameKind::ReplSubscribe,
        1,
        &wire::encode_repl_subscribe(term, None),
    )
    .expect("subscribe");
    raw.flush().unwrap();
    let frame = wire::read_frame(&mut raw)
        .expect("stale primary answers")
        .expect("a frame, not EOF");
    assert_eq!(frame.kind, FrameKind::Error);
    match wire::decode_error(&frame.payload).expect("decodes") {
        ServiceError::Transport { message } => {
            assert!(
                message.contains("stale primary"),
                "fence names the refusal, got: {message}"
            );
        }
        other => panic!("expected Transport(stale primary), got {other:?}"),
    }

    // An idempotent re-promotion does not bump the term again.
    let (term_again, _) = client_r.promote().expect("re-promote");
    assert_eq!(term_again, 1);

    replica_daemon.shutdown();
    primary_daemon.shutdown();
}

/// The bound every test below holds a wake-up to: a thread that waits
/// on a timer instead of being woken shows up as a hang.
const PROMPT: Duration = Duration::from_secs(2);

/// Waits until `service`'s hub counts `n` subscribers.
fn await_subscribers(service: &ReplicatedService, n: usize) {
    let deadline = Instant::now() + DEADLINE;
    while service.hub().subscriber_count() != n {
        assert!(Instant::now() < deadline, "never reached {n} subscribers");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends a `ReplSubscribe` announcing no prior state, as a replica
/// would, and returns without reading the answer.
fn subscribe_raw(stream: &mut impl Write) {
    let subscribe = wire::encode_repl_subscribe(0, None);
    wire::write_frame(stream, FrameKind::ReplSubscribe, 1, &subscribe).expect("subscribe");
    stream.flush().unwrap();
}

/// Shutdown wakes every thread it stops: an idle client and an idle
/// replication subscriber, on TCP (bound to the unspecified address,
/// so the accept loop is woken over loopback) and on a Unix socket.
#[test]
fn shutdown_returns_at_once_with_idle_connections_open() {
    let dir = TempDir::new("repl-idle-shutdown").unwrap();
    let path = dir.path().join("idle.sock");

    let (daemon, service) = serve_primary(WireListener::tcp("0.0.0.0:0").expect("bind tcp"));
    let port = daemon.local_addr().expect("tcp address").port();
    let client = WireClient::connect_tcp(("127.0.0.1", port)).expect("connect tcp");
    client.version_info().expect("tcp round trip");
    let mut subscriber = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    subscribe_raw(&mut subscriber);
    await_subscribers(&service, 1);
    let start = Instant::now();
    daemon.shutdown();
    let took = start.elapsed();
    assert!(took < PROMPT, "tcp shutdown took {took:?}");
    assert_eq!(service.hub().subscriber_count(), 0);

    let (daemon, service) = serve_primary(WireListener::unix(&path).expect("bind unix"));
    let client = WireClient::connect_unix(&path).expect("connect unix");
    client.version_info().expect("unix round trip");
    let mut subscriber = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    subscribe_raw(&mut subscriber);
    await_subscribers(&service, 1);
    let start = Instant::now();
    daemon.shutdown();
    let took = start.elapsed();
    assert!(took < PROMPT, "unix shutdown took {took:?}");
    assert_eq!(service.hub().subscriber_count(), 0);
    assert!(!path.exists());
}

/// Floods `stream` with batches of `kind` frames, each as big as a
/// socket buffer, so the daemon's reader always finds more to read, and
/// drains the answers so the daemon's writes never stall. Returns the
/// two threads and a count of answer bytes read; both threads end once
/// the daemon closes the connection.
fn flood(
    stream: std::net::TcpStream,
    kind: FrameKind,
    payload: &[u8],
) -> ([JoinHandle<()>; 2], Arc<AtomicUsize>) {
    let mut batch = Vec::new();
    while batch.len() < 256 * 1024 {
        wire::write_frame(&mut batch, kind, 2, payload).unwrap();
    }
    let answered = Arc::new(AtomicUsize::new(0));
    let mut answers = stream.try_clone().unwrap();
    let draining = {
        let answered = Arc::clone(&answered);
        std::thread::spawn(move || {
            let mut buf = [0u8; 64 * 1024];
            while let Ok(n @ 1..) = answers.read(&mut buf) {
                answered.fetch_add(n, Ordering::Relaxed);
            }
        })
    };
    let mut stream = stream;
    let sending = std::thread::spawn(move || while stream.write_all(&batch).is_ok() {});
    ([draining, sending], answered)
}

/// Some kernels still deliver what a TCP peer sends after its read half
/// is shut down, so a reader that never finds its socket empty sees no
/// end-of-stream there; only the stop flag ends it. Shutdown returns
/// at once while a client floods the daemon with `Version` requests and
/// a subscriber floods its replication stream with stray frames.
#[test]
fn shutdown_returns_at_once_while_tcp_peers_keep_sending() {
    let (daemon, service) = serve_primary(WireListener::tcp("127.0.0.1:0").expect("bind tcp"));
    let addr = daemon.local_addr().expect("tcp address");

    let client = std::net::TcpStream::connect(addr).expect("connect");
    let version = wire::encode_request(&Request::Version);
    let (client_threads, client_answered) = flood(client, FrameKind::Request, &version);

    let mut subscriber = std::net::TcpStream::connect(addr).expect("connect");
    subscribe_raw(&mut subscriber);
    await_subscribers(&service, 1);
    // Each request frame on a replication stream is answered with an
    // error, and the stream stays open.
    let (subscriber_threads, subscriber_answered) = flood(subscriber, FrameKind::Request, &[]);

    let deadline = Instant::now() + DEADLINE;
    for answered in [&client_answered, &subscriber_answered] {
        while answered.load(Ordering::Relaxed) < 64 * 1024 {
            assert!(Instant::now() < deadline, "a flood never got going");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let start = Instant::now();
    daemon.shutdown();
    let took = start.elapsed();
    assert!(took < PROMPT, "shutdown under load took {took:?}");
    assert_eq!(service.hub().subscriber_count(), 0);
    for thread in client_threads.into_iter().chain(subscriber_threads) {
        thread.join().unwrap();
    }
}

/// Promote stops a follower blocked reading an idle primary by shutting
/// its socket down, so it returns at once.
#[test]
fn promote_returns_at_once_on_an_idle_primary() {
    let dir = TempDir::new("repl-idle-promote").unwrap();
    let (primary_daemon, primary, primary_sock) = spawn_primary(&dir);
    let (replica, _) = follow(&primary_sock, RETRY);
    await_subscribers(&primary, 1);
    let start = Instant::now();
    let promoted = replica.call(Request::Promote);
    let took = start.elapsed();
    assert!(
        matches!(promoted, Ok(Response::Promoted { term: 1, .. })),
        "{promoted:?}"
    );
    assert!(took < PROMPT, "promote took {took:?}");
    // The stopped follower closed its subscription.
    await_subscribers(&primary, 0);
    primary_daemon.shutdown();
}

/// Dropping a replica whose primary went away unparks its follower from
/// the retry wait, so the drop returns at once.
#[test]
fn dropping_a_replica_waiting_to_retry_returns_at_once() {
    let dir = TempDir::new("repl-drop-retry").unwrap();
    let (primary_daemon, primary, primary_sock) = spawn_primary(&dir);
    let (replica, _) = follow(&primary_sock, Duration::from_millis(500));
    await_subscribers(&primary, 1);
    primary_daemon.shutdown();
    // The follower sees the close, fails to reconnect, and waits.
    std::thread::sleep(Duration::from_millis(50));
    let replica = Arc::into_inner(replica).expect("the only handle on the replica");
    let start = Instant::now();
    drop(replica);
    let took = start.elapsed();
    assert!(took < PROMPT, "dropping the replica took {took:?}");
}

/// A subscriber stream is a daemon connection, so its writes carry the
/// daemon's one-second write-stall cut-off: a replica that subscribes
/// and then never reads stalls the primary's publishes at most once
/// before the hub drops it. A Unix socket's small buffers fill fast.
#[test]
fn a_stalled_subscriber_stalls_the_primary_at_most_once() {
    let dir = TempDir::new("repl-stall").unwrap();
    let (daemon, service, sock) = spawn_primary(&dir);
    let mut stalled = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    subscribe_raw(&mut stalled);
    await_subscribers(&service, 1);

    let (universe, _, admin) = arena();
    let toggle_all = |kind| -> Vec<Command> {
        (0..SUBJECTS * ROLES)
            .map(|k| Command {
                actor: admin,
                kind,
                edge: Edge::UserRole(
                    universe.find_user(&format!("subj{}", k / ROLES)).unwrap(),
                    universe.find_role(&format!("r{}", k % ROLES)).unwrap(),
                ),
            })
            .collect()
    };
    let batches = [
        toggle_all(CommandKind::Grant),
        toggle_all(CommandKind::Revoke),
    ];
    let start = Instant::now();
    let mut worst = Duration::ZERO;
    for batch in batches.iter().cycle() {
        if service.hub().subscriber_count() == 0 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the stalled subscriber was never dropped"
        );
        let submit = Instant::now();
        service.submit(batch.clone()).expect("submit");
        worst = worst.max(submit.elapsed());
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "dropping the subscriber took {took:?}"
    );
    assert!(worst < Duration::from_secs(3), "one submit took {worst:?}");
    // The daemon closed the stalled stream.
    let mut rest = Vec::new();
    let _ = stalled.read_to_end(&mut rest);
    daemon.shutdown();
}
