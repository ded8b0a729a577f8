//! Every call into a product crate, beyond `PolicyService`, `Request` and
//! `Response`, lives in this file: the workload inputs, the served
//! systems the workloads drive, the raw-frame client, the correctness
//! oracle, the single-threaded layer probes of the traced pass, and the
//! analysis jobs. When a later change reshapes a layer, this is the one
//! benchmark file that follows it.

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adminref_core::admission::{evaluate_constraints, ConstraintSet, Interval};
use adminref_core::checksum::{policy_checksum, toggle_edge};
use adminref_core::command::{Command, CommandKind};
use adminref_core::ids::{Entity, Perm, PrivId, RoleId, UserId};
use adminref_core::lint::{lint_policy, LintConfig};
use adminref_core::ordering::{OrderingMode, PrivilegeOrder};
use adminref_core::policy::Policy;
use adminref_core::reach::{EdgeDelta, ReachIndex};
use adminref_core::refinement::{refinement_violations, refines, weaken_assignment};
use adminref_core::safety::{perm_reachable, prepare_alphabet, ReachabilityAnswer, SafetyConfig};
use adminref_core::simulation::{check_admin_refinement, SimulationConfig};
use adminref_core::snapshot::PolicySnapshot;
use adminref_core::transition::{step, AuthMode};
use adminref_core::universe::{Edge, PrivTerm, Universe};
use adminref_core::verify::bmc::{self, BmcConfig, BmcOutcome};
use adminref_core::verify::{verify_perm_reachable, EngineUsed};
use adminref_monitor::{MonitorConfig, PublishEvent, ReferenceMonitor, SessionId};
use adminref_service::replication::fetch_bootstrap;
use adminref_service::wire::{self, Frame, FrameKind, HEADER_LEN};
use adminref_service::{
    Daemon, DaemonConfig, FollowTarget, MonitorService, PolicyService, ReplicatedService, Request,
    Response, WireClient, WireListener,
};
use adminref_store::{CommandLog, PolicyStore, TempDir};
use adminref_workloads::{
    chain, cone, deep_delegation, grow_only, hospital_fig2, hospital_with_nested_delegation,
    inject_admin_privs, layered, populate_perms, populate_users, wide_universe_trickle,
    write_storm, AdminSpec, ConeSpec, ConeWorkload, DelegationSpec, GrowOnlySpec, GrowOnlyWorkload,
    LayeredSpec, TrickleSpec, WriteStormSpec,
};

use crate::metrics::Values;
use crate::stats::{median, median_block_ns, median_ns};

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ----- inputs -----------------------------------------------------------

/// One reader session whose verdicts no toggle of the workload can
/// change: `hit` is granted at the base policy (and toggles only ever
/// add to it or take their own additions back), `miss` stays denied even
/// with every toggle edge present.
#[derive(Clone, Copy)]
struct ReaderProfile {
    user: UserId,
    role: RoleId,
    hit: Perm,
    miss: Perm,
}

/// A serving workload's generated inputs: the base policy, the write
/// traffic as batches of toggle commands (cycling the list keeps every
/// command authorized *and* policy-changing forever), and pinned reader
/// sessions.
pub struct Inputs {
    universe: Universe,
    policy: Policy,
    batches: Vec<Vec<Command>>,
    readers: Vec<ReaderProfile>,
    constraints: ConstraintSet,
}

impl Inputs {
    /// `wide_universe_trickle` with its single-edge toggles packed
    /// `batch_len` to a batch: a whole batch of grants, later the matching
    /// batch of revokes. (`churn` would be the obvious generator, but its
    /// batches stop changing the policy after the first cycle — every
    /// grant is then present, every revoke absent — so no epoch would swap
    /// under the readers.)
    fn trickle(spec: TrickleSpec, batch_len: usize) -> Inputs {
        let w = wide_universe_trickle(spec);
        let singles: Vec<Command> = w.batches.into_iter().flatten().collect();
        let batches = singles.chunks(batch_len).map(<[Command]>::to_vec).collect();
        Inputs::new(w.universe, w.policy, batches)
    }

    fn new(universe: Universe, policy: Policy, batches: Vec<Vec<Command>>) -> Inputs {
        let readers = pinned_readers(&universe, &policy, &batches, 2);
        Inputs {
            universe,
            policy,
            batches,
            readers,
            constraints: ConstraintSet::default(),
        }
    }

    /// 256 roles, 256 toggle edges, 32 commands per `Submit`.
    pub fn wire_read(seed: u64) -> Inputs {
        Inputs::trickle(Inputs::small_trickle(seed), 32)
    }

    /// 256 roles, 256 toggle edges, 16 commands per batch.
    pub fn replica_read(seed: u64) -> Inputs {
        Inputs::trickle(Inputs::small_trickle(seed), 16)
    }

    fn small_trickle(seed: u64) -> TrickleSpec {
        TrickleSpec {
            roles: 256,
            users: 32,
            seed,
            ..TrickleSpec::default()
        }
    }

    /// `write_storm`: 16 disjoint toggle streams as single-command
    /// batches; stream `s` is batches `2s` (grant) and `2s + 1` (revoke).
    pub fn wire_write(seed: u64) -> Inputs {
        let w = write_storm(WriteStormSpec {
            roles: 128,
            writers: 16,
            seed,
        });
        let batches = w.streams.into_iter().flatten().map(|c| vec![c]).collect();
        Inputs::new(w.universe, w.policy, batches)
    }

    /// 2048 roles, single-edge batches, and the never-firing constraint
    /// set `bench-monitor` declares: two SoD pairs over roles nothing
    /// grants and a frozen assertion on the administrator's own seat, so
    /// the gate does its full work on every publish and refuses none.
    pub fn admission_trickle(seed: u64) -> Inputs {
        let spec = TrickleSpec {
            seed,
            ..TrickleSpec::default()
        };
        let mut w = wide_universe_trickle(spec);
        let mut sod = |name: &str| w.universe.role(name);
        let sod_pairs = vec![
            (sod("bench_sod_a"), sod("bench_sod_b")),
            (sod("bench_sod_c"), sod("bench_sod_d")),
        ];
        let ops = w.universe.role("trickle_ops");
        let mut inputs = Inputs::new(w.universe, w.policy, w.batches);
        inputs.constraints = ConstraintSet {
            sod_pairs,
            deny_level: None,
            frozen_edges: vec![Edge::UserRole(w.admin, ops)],
        };
        inputs
    }

    /// One `Submit` request per batch, in cycling order.
    pub fn submits(&self) -> Vec<Request> {
        self.batches
            .iter()
            .map(|commands| Request::Submit {
                commands: commands.clone(),
            })
            .collect()
    }

    fn commands(&self) -> Vec<Command> {
        self.batches.iter().flatten().copied().collect()
    }

    fn monitor(&self) -> ReferenceMonitor {
        ReferenceMonitor::new(
            self.universe.clone(),
            self.policy.clone(),
            MonitorConfig::default(),
        )
    }

    fn durable_monitor(&self, dir: &Path) -> Res<ReferenceMonitor> {
        let store = PolicyStore::create(
            dir,
            self.universe.clone(),
            self.policy.clone(),
            AuthMode::Explicit,
        )
        .map_err(err("creating the store"))?;
        Ok(ReferenceMonitor::with_store(
            store,
            MonitorConfig::default(),
        ))
    }
}

fn pinned_readers(
    universe: &Universe,
    policy: &Policy,
    batches: &[Vec<Command>],
    n: usize,
) -> Vec<ReaderProfile> {
    let mut widest = policy.clone();
    for command in batches.iter().flatten() {
        widest.add_edge(command.edge);
    }
    let base = ReachIndex::build(universe, policy);
    let wide = ReachIndex::build(universe, &widest);
    let mut found = Vec::new();
    for user in universe.users() {
        // The largest-closure role: senior sessions are the expensive ones.
        let Some(role) = policy
            .roles_of(user)
            .max_by_key(|&r| base.roles_reachable(Entity::Role(r)).count())
        else {
            continue;
        };
        let (mut hit, mut miss) = (None, None);
        for (holder, p) in policy.pa() {
            let PrivTerm::Perm(perm) = universe.term(p) else {
                continue;
            };
            if base.reach_entity(Entity::Role(role), Entity::Role(holder)) {
                hit = Some(perm); // the last (deepest-listed) hit
            } else if miss.is_none() && !wide.reach_priv(Entity::Role(role), p) {
                miss = Some(perm);
            }
        }
        if let (Some(hit), Some(miss)) = (hit, miss) {
            found.push(ReaderProfile {
                user,
                role,
                hit,
                miss,
            });
            if found.len() == n {
                break;
            }
        }
    }
    assert!(!found.is_empty(), "generated policy has no pinnable reader");
    (0..n).map(|i| found[i % found.len()]).collect()
}

// ----- requests, replies, sessions --------------------------------------

/// A reader's two alternating requests; `hit` must answer granted and
/// `miss` denied, whatever the writers do.
pub struct Reader {
    pub hit: Request,
    pub miss: Request,
}

/// Opens reader `index`'s session on `service` (over whatever transport
/// it is) and activates its role.
pub fn open_reader(service: &dyn PolicyService, inputs: &Inputs, index: usize) -> Res<Reader> {
    let profile = inputs.readers[index % inputs.readers.len()];
    let session = service
        .create_session(profile.user)
        .map_err(err("creating a reader session"))?;
    service
        .activate_role(session, profile.role)
        .map_err(err("activating the reader's role"))?;
    Ok(Reader {
        hit: Request::CheckAccess {
            session,
            perm: profile.hit,
        },
        miss: Request::CheckAccess {
            session,
            perm: profile.miss,
        },
    })
}

/// `true` iff `response` answers a `Submit` of `expected` commands, every
/// one of them executed and policy-changing.
pub fn all_changed(response: &Response, expected: usize) -> bool {
    matches!(response, Response::Outcomes(outcomes)
        if outcomes.len() == expected && outcomes.iter().all(|o| o.executed() && o.changed))
}

/// Number of commands in a `Submit` request (0 for anything else).
pub fn command_count(request: &Request) -> usize {
    match request {
        Request::Submit { commands } => commands.len(),
        _ => 0,
    }
}

/// `true` for a `Submit` whose first command revokes. (A batch of the
/// toggle inputs is all grants or all revokes.)
pub fn is_revoke(request: &Request) -> bool {
    matches!(request, Request::Submit { commands }
        if commands.first().is_some_and(|c| c.kind == CommandKind::Revoke))
}

/// The `(epoch, checksum)` a service reports.
pub fn version_of(service: &dyn PolicyService) -> Res<(u64, u64)> {
    let info = service.version_info().map_err(err("reading the version"))?;
    Ok((info.epoch, info.checksum))
}

// ----- the oracle --------------------------------------------------------

/// One writer's acknowledged history: it cycled through the `cycle`
/// consecutive batches of [`Inputs::submits`] starting at `first`, and
/// `count` of its submits were acknowledged.
pub struct Acked {
    pub first: usize,
    pub cycle: usize,
    pub count: u64,
}

/// Replays every acknowledged batch through a fresh in-memory
/// `ReferenceMonitor` and reports the `(epoch, checksum)` it lands on.
/// Histories replay one after the other — for several concurrent
/// writers that is not the order the server saw, which is sound only
/// because their toggle streams touch disjoint edges. With `coalesce`,
/// consecutive batches are folded into larger ones: the final policy is
/// the same, the epoch count is not, so only the checksum is comparable
/// (the group-commit workload, whose server coalesces at its own
/// discretion).
pub fn oracle(inputs: &Inputs, histories: &[Acked], coalesce: bool) -> Res<(u64, u64)> {
    let monitor = inputs.monitor();
    let per_batch = if coalesce { 256 } else { 1 };
    let mut order = histories
        .iter()
        .flat_map(|h| (0..h.count).map(move |k| h.first + (k % h.cycle as u64) as usize));
    loop {
        let commands: Vec<Command> = order
            .by_ref()
            .take(per_batch)
            .flat_map(|i| inputs.batches[i].iter().copied())
            .collect();
        if commands.is_empty() {
            break;
        }
        let outcomes = monitor
            .submit_batch(&commands)
            .map_err(err("oracle replay"))?;
        if !outcomes.iter().all(|o| o.executed() && o.changed) {
            return Err("oracle replay: an acknowledged command did not change the policy".into());
        }
    }
    let snapshot = monitor.read_snapshot();
    Ok((snapshot.epoch, snapshot.checksum()))
}

// ----- served systems ----------------------------------------------------

/// A durable monitor behind `MonitorService` behind a daemon on a Unix
/// socket: the `wire_read` and `wire_write` system under test.
pub struct Served {
    dir: TempDir,
    service: Arc<MonitorService>,
    daemon: Daemon,
}

impl Served {
    /// `gather` is the group-commit leader's gather window, if any.
    pub fn start(inputs: &Inputs, label: &str, gather: Option<Duration>) -> Res<Served> {
        let dir = TempDir::new(label).map_err(err("creating the scratch directory"))?;
        let monitor = inputs.durable_monitor(&dir.path().join("store"))?;
        let mut service = MonitorService::new(monitor);
        if let Some(window) = gather {
            service = service.with_write_gather(window);
        }
        let service = Arc::new(service);
        let listener =
            WireListener::unix(dir.path().join("d.sock")).map_err(err("binding the socket"))?;
        let daemon = Daemon::spawn(
            Arc::clone(&service) as Arc<dyn PolicyService>,
            inputs.universe.clone(),
            listener,
        )
        .map_err(err("spawning the daemon"))?;
        Ok(Served {
            dir,
            service,
            daemon,
        })
    }

    fn socket(&self) -> PathBuf {
        self.dir.path().join("d.sock")
    }

    /// A new connection through the product's own client.
    pub fn connect(&self) -> Res<Box<dyn PolicyService>> {
        let client = WireClient::connect_unix(self.socket()).map_err(err("connecting"))?;
        Ok(Box::new(client))
    }

    /// A new connection through the benchmark's raw-frame client.
    pub fn connect_raw(&self) -> Res<RawConn> {
        let stream = UnixStream::connect(self.socket()).map_err(err("connecting"))?;
        let read_half = stream.try_clone().map_err(err("cloning the socket"))?;
        Ok(RawConn {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// The served service, in process (for end-of-run state checks).
    pub fn local(&self) -> &dyn PolicyService {
        &*self.service
    }

    /// `(share of publishes that took the incremental path, forced
    /// session deactivations)` of the served monitor so far.
    pub fn monitor_counters(&self) -> (f64, f64) {
        monitor_counters(self.service.monitor())
    }

    /// Shuts the daemon down and closes the store, keeping its directory.
    pub fn stop(self) -> Res<Stopped> {
        self.daemon.shutdown();
        // The daemon's threads held the other references; with them
        // joined the store closes here.
        let service =
            Arc::try_unwrap(self.service).map_err(|_| "the service outlived its daemon")?;
        drop(service);
        Ok(Stopped { dir: self.dir })
    }
}

fn monitor_counters(monitor: &ReferenceMonitor) -> (f64, f64) {
    let (incremental, full) = monitor.publish_counts();
    let share = incremental as f64 / ((incremental + full).max(1)) as f64;
    (share, monitor.session_revocations_total() as f64)
}

/// The store directory of a stopped [`Served`].
pub struct Stopped {
    dir: TempDir,
}

/// What reopening a store found.
pub struct Reopened {
    pub divergent: usize,
    pub checksum: u64,
    pub replay_ms: f64,
}

impl Stopped {
    /// Reopens the directory the way a restarted daemon would: load the
    /// snapshot, replay the WAL. A clean reopen, not a crash — the process
    /// never died, so the page cache still holds every write.
    pub fn reopen(&self) -> Res<Reopened> {
        let start = Instant::now();
        let (store, report) = PolicyStore::open(&self.dir.path().join("store"), AuthMode::Explicit)
            .map_err(err("reopening the store"))?;
        let replay_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(Reopened {
            divergent: report.divergent,
            checksum: policy_checksum(store.policy()),
            replay_ms,
        })
    }
}

const ACCEPT_LOOP_START: Duration = Duration::from_millis(5);

/// An in-memory primary serving loopback TCP with one bootstrapped
/// replica following it: the `replica_read` system under test.
pub struct Replicated {
    primary: Arc<ReplicatedService>,
    replica: ReplicatedService,
    daemon: Daemon,
    pub bootstrap_ms: f64,
}

impl Replicated {
    pub fn start(inputs: &Inputs) -> Res<Replicated> {
        let primary = Arc::new(ReplicatedService::primary(Arc::new(inputs.monitor())));
        let listener = WireListener::tcp("127.0.0.1:0").map_err(err("binding loopback"))?;
        let daemon = Daemon::spawn_replicated(
            Arc::clone(&primary) as Arc<dyn PolicyService>,
            inputs.universe.clone(),
            listener,
            DaemonConfig::default(),
            Some(Arc::clone(primary.hub())),
        )
        .map_err(err("spawning the primary's daemon"))?;
        let addr = daemon.local_addr().ok_or("the daemon has no TCP address")?;
        // A replica bootstraps from a primary that is already up. Without
        // this pause the bootstrap's connect races the daemon's very first
        // accept: it usually wins and is served at once, sometimes loses
        // and waits out a 25 ms accept poll, and `setup_s` flips between
        // two values. With it every set-up waits the same poll out.
        std::thread::sleep(ACCEPT_LOOP_START);
        let target = FollowTarget::Tcp(addr.to_string());
        let bootstrap = Instant::now();
        let (universe, policy, constraints, epoch, term) =
            fetch_bootstrap(&target, Duration::from_secs(5)).map_err(err("bootstrapping"))?;
        let monitor = Arc::new(ReferenceMonitor::new(
            universe.clone(),
            policy.clone(),
            MonitorConfig::default(),
        ));
        monitor
            .install_replica_state(universe, policy, epoch, constraints)
            .map_err(err("installing the bootstrap"))?;
        let bootstrap_ms = bootstrap.elapsed().as_secs_f64() * 1e3;
        let replica =
            ReplicatedService::replica(monitor, target, Duration::from_millis(50), Some(term));
        Ok(Replicated {
            primary,
            replica,
            daemon,
            bootstrap_ms,
        })
    }

    pub fn primary(&self) -> &dyn PolicyService {
        &*self.primary
    }

    pub fn replica(&self) -> &dyn PolicyService {
        &self.replica
    }

    pub fn monitor_counters(&self) -> (f64, f64) {
        monitor_counters(self.replica.hub().monitor())
    }

    /// Stops the follower, then the primary's daemon.
    pub fn stop(self) {
        drop(self.replica);
        self.daemon.shutdown();
    }
}

/// An in-memory `MonitorService` with the inputs' constraint set
/// declared: the `admission_trickle` system under test.
pub struct Gated {
    service: MonitorService,
}

impl Gated {
    pub fn start(inputs: &Inputs) -> Res<Gated> {
        let service = MonitorService::new(inputs.monitor());
        service
            .set_constraints(inputs.constraints.clone())
            .map_err(err("declaring the constraint set"))?;
        Ok(Gated { service })
    }

    pub fn service(&self) -> &dyn PolicyService {
        &self.service
    }

    /// `(batches the gate checked, batches it refused)`.
    pub fn admission_counts(&self) -> (u64, u64) {
        self.service.monitor().admission_counts()
    }

    pub fn monitor_counters(&self) -> (f64, f64) {
        monitor_counters(self.service.monitor())
    }
}

// ----- the raw-frame client ----------------------------------------------

/// One connection driven frame by frame, so a single thread can keep a
/// window of requests in flight (`WireClient` blocks per call) and time
/// send, wait and decode apart.
pub struct RawConn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl RawConn {
    /// Encodes `request` and appends its frame to the write buffer.
    pub fn send(&mut self, id: u64, request: &Request) -> Res<()> {
        let payload = wire::encode_request(request);
        wire::write_frame(&mut self.writer, FrameKind::Request, id, &payload)
            .map_err(err("writing a frame"))
    }

    /// Pushes every buffered frame to the socket.
    pub fn flush(&mut self) -> Res<()> {
        self.writer.flush().map_err(err("flushing the socket"))
    }

    /// Blocks until one whole reply frame has arrived.
    pub fn read_reply(&mut self) -> Res<Frame> {
        match wire::read_frame(&mut self.reader) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err("the daemon closed the connection".into()),
            Err(e) => Err(format!("reading a frame: {e}")),
        }
    }

    /// `true` while further reply bytes are already buffered.
    pub fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }

    /// Decodes a reply frame into its request id and answer.
    pub fn decode(frame: &Frame) -> (u64, Res<Response>) {
        let answer = match frame.kind {
            FrameKind::Response => wire::decode_response(&frame.payload).map_err(|e| e.to_string()),
            FrameKind::Error => Err(match wire::decode_error(&frame.payload) {
                Ok(service_error) => service_error.to_string(),
                Err(e) => e.to_string(),
            }),
            other => Err(format!("unexpected {other:?} frame")),
        };
        (frame.request_id, answer)
    }
}

// ----- layer probes -------------------------------------------------------
//
// Each probe replays a sample of the workload's own generated inputs,
// single-threaded, against one layer's public functions, timing every
// call (or block of calls) for `budget`, and records medians.

const BLOCK: usize = 256;

/// Commands logged to size `store.wal_bytes_per_cmd`.
const WAL_SAMPLE: usize = 128;

/// Batches each side of `admission.gated_over_ungated` publishes.
const GATE_SAMPLE: usize = 64;

/// `wire.*_check_*`, `wire.*_submit_*`, `wire.bytes_per_check`.
pub fn probe_wire_codec(inputs: &Inputs, values: &mut Values, budget: Duration) -> Res<()> {
    let profile = inputs.readers[0];
    let check = Request::CheckAccess {
        session: SessionId::from_raw(1),
        perm: profile.hit,
    };
    let submit = Request::Submit {
        commands: inputs.batches[0].clone(),
    };
    let outcomes = inputs
        .monitor()
        .submit_batch(&inputs.batches[0])
        .map_err(err("sample outcomes"))?;
    let samples = [
        (check, Response::Access(true)),
        (submit, Response::Outcomes(outcomes)),
    ];
    let names = [
        [
            "wire.encode_request_check_ns",
            "wire.decode_request_check_ns",
            "wire.encode_response_check_ns",
            "wire.decode_response_check_ns",
        ],
        [
            "wire.encode_request_submit_ns",
            "wire.decode_request_submit_ns",
            "wire.encode_response_submit_ns",
            "wire.decode_response_submit_ns",
        ],
    ];
    for ((request, response), names) in samples.iter().zip(names) {
        let request_bytes = wire::encode_request(request);
        let response_bytes = wire::encode_response(response);
        // The daemon's own order of work: decode, then bounds-check.
        wire::decode_request(&request_bytes, &inputs.universe)
            .and_then(|r| wire::validate_request(&r, &inputs.universe))
            .map_err(err("sample request does not decode"))?;
        wire::decode_response(&response_bytes).map_err(err("sample response does not decode"))?;
        values.set(
            names[0],
            median_block_ns(budget, BLOCK, |_| {
                std::hint::black_box(wire::encode_request(std::hint::black_box(request)));
            }),
        );
        values.set(
            names[1],
            median_block_ns(budget, BLOCK, |_| {
                let decoded = wire::decode_request(&request_bytes, &inputs.universe);
                if let Ok(r) = &decoded {
                    let _ = std::hint::black_box(wire::validate_request(r, &inputs.universe));
                }
                std::hint::black_box(decoded.is_ok());
            }),
        );
        values.set(
            names[2],
            median_block_ns(budget, BLOCK, |_| {
                std::hint::black_box(wire::encode_response(std::hint::black_box(response)));
            }),
        );
        values.set(
            names[3],
            median_block_ns(budget, BLOCK, |_| {
                std::hint::black_box(wire::decode_response(&response_bytes).is_ok());
            }),
        );
        if matches!(request, Request::CheckAccess { .. }) {
            values.set(
                "wire.bytes_per_check",
                (2 * HEADER_LEN + request_bytes.len() + response_bytes.len()) as f64,
            );
        }
    }
    Ok(())
}

/// `daemon.noop_rtt_us`: a `Version` round trip — the socket, the daemon's
/// dispatch and the client's reply matching with next to no work inside.
pub fn probe_noop_rtt(client: &dyn PolicyService, budget: Duration) -> f64 {
    median_ns(budget, 100, || {
        let _ = std::hint::black_box(client.version());
    }) / 1e3
}

/// `monitor.check_hit_ns`, `monitor.check_miss_ns`, and with `scaling`
/// also `monitor.read_scaling_2t` and `arcswap.load_ns`.
pub fn probe_monitor_reads(inputs: &Inputs, values: &mut Values, budget: Duration, scaling: bool) {
    let monitor = inputs.monitor();
    let sessions: Vec<(SessionId, Perm, Perm)> = inputs
        .readers
        .iter()
        .map(|profile| {
            let session = monitor.create_session(profile.user);
            monitor
                .activate_role(session, profile.role)
                .expect("a pinned reader's role activates");
            (session, profile.hit, profile.miss)
        })
        .collect();
    let (session, hit, miss) = sessions[0];
    values.set(
        "monitor.check_hit_ns",
        median_block_ns(budget, BLOCK, |_| {
            std::hint::black_box(monitor.check_access(session, hit).is_ok());
        }),
    );
    values.set(
        "monitor.check_miss_ns",
        median_block_ns(budget, BLOCK, |_| {
            std::hint::black_box(monitor.check_access(session, miss).is_ok());
        }),
    );
    if !scaling {
        return;
    }
    // Checks completed in `budget` by one closed-loop reader.
    let hammer = |&(session, hit, miss): &(SessionId, Perm, Perm)| -> u64 {
        let start = Instant::now();
        let mut done = 0u64;
        while start.elapsed() < budget {
            for _ in 0..BLOCK / 2 {
                std::hint::black_box(monitor.check_access(session, hit).is_ok());
                std::hint::black_box(monitor.check_access(session, miss).is_ok());
            }
            done += BLOCK as u64;
        }
        done
    };
    let alone = hammer(&sessions[0]);
    let together: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions[..2]
            .iter()
            .map(|s| scope.spawn(|| hammer(s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .sum()
    });
    values.set(
        "monitor.read_scaling_2t",
        together as f64 / (2.0 * alone as f64),
    );
    values.set(
        "arcswap.load_ns",
        median_block_ns(budget, BLOCK, |_| {
            std::hint::black_box(monitor.read_snapshot());
        }),
    );
}

/// Median in-memory `submit_batch` of the workload's own batches, in µs,
/// with or without the inputs' constraint set declared.
fn submit_batch_us(inputs: &Inputs, gated: bool, budget: Duration) -> f64 {
    let monitor = inputs.monitor();
    if gated {
        monitor
            .set_constraints(inputs.constraints.clone())
            .expect("in-memory constraints");
    }
    let mut next = inputs.batches.iter().cycle();
    median_ns(budget, 10, || {
        let batch = next.next().expect("cycle never ends");
        std::hint::black_box(monitor.submit_batch(batch).is_ok());
    }) / 1e3
}

/// `monitor.submit_batch_us`: the in-process publish of one of the
/// workload's batches (gate included where the workload declares one).
pub fn probe_monitor_submit(inputs: &Inputs, values: &mut Values, budget: Duration) {
    let gated = !inputs.constraints.is_empty();
    values.set(
        "monitor.submit_batch_us",
        submit_batch_us(inputs, gated, budget),
    );
}

/// `transition.step_ns` (Definition-5 execution per command) and
/// `checksum.toggle_ns`.
pub fn probe_core_steps(inputs: &Inputs, values: &mut Values, budget: Duration) {
    let commands = inputs.commands();
    let (mut universe, mut policy) = (inputs.universe.clone(), inputs.policy.clone());
    values.set(
        "transition.step_ns",
        median_block_ns(budget, BLOCK, |i| {
            let command = &commands[i % commands.len()];
            std::hint::black_box(step(
                &mut universe,
                &mut policy,
                command,
                AuthMode::Explicit,
            ));
        }),
    );
    let mut checksum = policy_checksum(&inputs.policy);
    values.set(
        "checksum.toggle_ns",
        median_block_ns(budget, BLOCK, |i| {
            checksum = toggle_edge(checksum, commands[i % commands.len()].edge);
            std::hint::black_box(checksum);
        }),
    );
}

/// `snapshot.next_us`, `reach.apply_delta_*_us`, `reach.build_ms`.
pub fn probe_publish_path(inputs: &Inputs, values: &mut Values, budget: Duration) -> Res<()> {
    let (universe, policy) = (&inputs.universe, &inputs.policy);
    let mode = MonitorConfig::default().publish_mode;
    let parent = PolicySnapshot::build(universe.clone(), policy.clone(), 0);
    // A sample of the workload's own toggle edges, by kind.
    let toggles: Vec<Edge> = inputs.commands().iter().map(|c| c.edge).collect();
    let sample = |want_rh: bool| -> Vec<Edge> {
        toggles
            .iter()
            .copied()
            .filter(|e| matches!(e, Edge::RoleRole(..)) == want_rh && !policy.contains_edge(*e))
            .take(32)
            .collect()
    };
    let (ua, rh) = (sample(false), sample(true));
    if ua.is_empty() || rh.is_empty() {
        return Err("the trickle inputs lack a UA or an RH toggle".into());
    }
    let add = |edge| [EdgeDelta { edge, added: true }];
    let mut i = 0usize;
    values.set(
        "reach.apply_delta_ua_us",
        median_ns(budget, 10, || {
            i += 1;
            let next = parent
                .reach()
                .apply_delta(universe, policy, &add(ua[i % ua.len()]));
            std::hint::black_box(next.is_some());
        }) / 1e3,
    );
    values.set(
        "reach.apply_delta_rh_add_us",
        median_ns(budget, 10, || {
            i += 1;
            let next = parent
                .reach()
                .apply_delta(universe, policy, &add(rh[i % rh.len()]));
            std::hint::black_box(next.is_some());
        }) / 1e3,
    );
    // Removal needs the edge present: one grown policy and index per edge.
    let grown: Vec<(Edge, Policy, ReachIndex)> = rh
        .iter()
        .map(|&edge| {
            let mut with = policy.clone();
            with.add_edge(edge);
            let index = ReachIndex::build(universe, &with);
            (edge, with, index)
        })
        .collect();
    values.set(
        "reach.apply_delta_rh_remove_us",
        median_ns(budget, 10, || {
            i += 1;
            let (edge, with, index) = &grown[i % grown.len()];
            let delta = [EdgeDelta {
                edge: *edge,
                added: false,
            }];
            std::hint::black_box(index.apply_delta(universe, with, &delta).is_some());
        }) / 1e3,
    );
    // One publish's snapshot derivation, averaged over the workload's own
    // mix of toggles (membership toggles are cheap, hierarchy toggles
    // dear, so a median over single calls would report whichever kind is
    // in the majority): each sample is one round over the first toggles
    // as generated.
    let children: Vec<(Edge, Policy)> = toggles
        .iter()
        .filter(|e| !policy.contains_edge(**e))
        .take(64)
        .map(|&edge| {
            let mut after = policy.clone();
            after.add_edge(edge);
            (edge, after)
        })
        .collect();
    values.set(
        "snapshot.next_us",
        median_ns(budget, 10, || {
            for (edge, after) in &children {
                let next = PolicySnapshot::next(&parent, universe, after, &add(*edge), 1, mode);
                std::hint::black_box(next.0.epoch);
            }
        }) / children.len() as f64
            / 1e3,
    );
    values.set(
        "reach.build_ms",
        median_ns(budget, 10, || {
            std::hint::black_box(ReachIndex::build(universe, policy));
        }) / 1e6,
    );
    Ok(())
}

/// `admission.interval_ms`, `admission.evaluate_us`,
/// `admission.gated_over_ungated`.
pub fn probe_admission(inputs: &Inputs, values: &mut Values, budget: Duration) {
    let (universe, policy) = (&inputs.universe, &inputs.policy);
    values.set(
        "admission.interval_ms",
        median_ns(budget, 10, || {
            let interval = Interval::from_policy(universe, policy, AuthMode::Explicit);
            std::hint::black_box(interval.frozen_count());
        }) / 1e6,
    );
    values.set(
        "admission.evaluate_us",
        median_ns(budget, 10, || {
            let findings =
                evaluate_constraints(universe, policy, &inputs.constraints, AuthMode::Explicit);
            std::hint::black_box(findings.len());
        }) / 1e3,
    );
    // The same fixed run of batches with and without the constraint set,
    // total time over total time: the trickle mixes cheap membership
    // toggles with dear hierarchy toggles, so medians of the two sides
    // would compare different batches.
    let total = |gated: bool| -> f64 {
        let monitor = inputs.monitor();
        if gated {
            monitor
                .set_constraints(inputs.constraints.clone())
                .expect("in-memory constraints");
        }
        let start = Instant::now();
        for batch in inputs.batches.iter().cycle().take(GATE_SAMPLE) {
            std::hint::black_box(monitor.submit_batch(batch).is_ok());
        }
        start.elapsed().as_secs_f64()
    };
    values.set("admission.gated_over_ungated", total(true) / total(false));
}

/// `store.*` except `store.open_replay_ms` (which the workload measures
/// on its own WAL).
pub fn probe_store(inputs: &Inputs, values: &mut Values, budget: Duration) -> Res<()> {
    let dir = TempDir::new("probe-store").map_err(err("creating the scratch directory"))?;
    let commands = inputs.commands();

    let path = dir.path().join("probe.log");
    let mut log = CommandLog::open(&path).map_err(err("opening a log"))?.log;
    // One append (a write to the OS) then one sync (the flush to the
    // device) per round, timed apart.
    let (mut append_ns, mut sync_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while sync_ns.len() < 10 || start.elapsed() < budget {
        let command = &commands[append_ns.len() % commands.len()];
        let t = Instant::now();
        log.append(command, true)
            .map_err(err("appending to the log"))?;
        append_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        log.sync().map_err(err("syncing the log"))?;
        sync_ns.push(t.elapsed().as_nanos() as f64);
    }
    values.set("store.append_us", median(&mut append_ns) / 1e3);
    values.set("store.sync_us", median(&mut sync_ns) / 1e3);

    // Bytes per logged command over a fixed count, so the figure is exact
    // for a seed (sequence numbers are varints and grow with the log).
    let path = dir.path().join("sized.log");
    let mut log = CommandLog::open(&path).map_err(err("opening a log"))?.log;
    for command in commands.iter().cycle().take(WAL_SAMPLE) {
        log.append(command, true)
            .map_err(err("appending to the log"))?;
    }
    let bytes = std::fs::metadata(&path)
        .map_err(err("sizing the log"))?
        .len();
    values.set("store.wal_bytes_per_cmd", bytes as f64 / WAL_SAMPLE as f64);

    // Batches of 1 and of 8 commands through the store's own batch path
    // (append each, sync once); disjoint streams keep every command
    // policy-changing.
    for (name, width) in [
        ("store.execute_batch1_us", 1usize),
        ("store.execute_batch8_us", 8),
    ] {
        let mut store = PolicyStore::create(
            &dir.path().join(name),
            inputs.universe.clone(),
            inputs.policy.clone(),
            AuthMode::Explicit,
        )
        .map_err(err("creating a store"))?;
        let mut round = 0usize;
        let us = median_ns(budget, 10, || {
            // Batch `s` of stream pairs: all grants on even rounds, all
            // revokes on odd ones.
            let batch: Vec<Command> = (0..width)
                .map(|s| inputs.batches[2 * s + round % 2][0])
                .collect();
            round += 1;
            let (outcomes, status) = store.execute_batch(batch.iter());
            std::hint::black_box((outcomes.len(), status.is_ok()));
        }) / 1e3;
        values.set(name, us);
    }
    Ok(())
}

/// `group_commit.solo_overhead_us`: what the combiner adds for a lone
/// submitter — `MonitorService`'s `Submit` minus the bare monitor's
/// `submit_batch`, both durable, alternating so disk drift cancels.
pub fn probe_group_commit_solo(inputs: &Inputs, budget: Duration) -> Res<f64> {
    let dir = TempDir::new("probe-solo").map_err(err("creating the scratch directory"))?;
    let bare = inputs.durable_monitor(&dir.path().join("bare"))?;
    let service = MonitorService::new(inputs.durable_monitor(&dir.path().join("service"))?);
    let (mut bare_ns, mut service_ns) = (Vec::new(), Vec::new());
    let mut round = 0usize;
    let start = Instant::now();
    while bare_ns.len() < 10 || start.elapsed() < 2 * budget {
        let batch = &inputs.batches[round % 2];
        round += 1;
        let t = Instant::now();
        bare.submit_batch(batch).map_err(err("bare submit"))?;
        bare_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        service
            .submit(batch.clone())
            .map_err(err("service submit"))?;
        service_ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok((median(&mut service_ns) - median(&mut bare_ns)) / 1e3)
}

/// `replication.apply_us`, `replication.bytes_per_epoch`,
/// `wire.repl_delta_{encode,decode}_ns`: capture the primary's publish
/// events for the workload's own batches, then replay them into a fresh
/// replica monitor.
pub fn probe_replication(inputs: &Inputs, values: &mut Values, budget: Duration) -> Res<()> {
    let primary = inputs.monitor();
    let events: Arc<Mutex<Vec<PublishEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    primary.set_publish_hook(Some(Box::new(move |event| {
        sink.lock().expect("event sink").push(event.clone());
    })));
    for batch in inputs.batches.iter().cycle().take(8 * inputs.batches.len()) {
        primary.submit_batch(batch).map_err(err("primary submit"))?;
    }
    primary.set_publish_hook(None);
    let events = std::mem::take(&mut *events.lock().expect("event sink"));

    let replica = inputs.monitor();
    let mut apply_ns = Vec::with_capacity(events.len());
    for event in &events {
        let t = Instant::now();
        replica
            .apply_replica_deltas(event.epoch, &event.deltas, event.checksum)
            .map_err(err("replica apply"))?;
        apply_ns.push(t.elapsed().as_nanos() as f64);
    }
    values.set("replication.apply_us", median(&mut apply_ns) / 1e3);

    let frames: Vec<Vec<u8>> = events
        .iter()
        .map(|e| wire::encode_repl_delta(1, e.epoch, &e.deltas, e.checksum))
        .collect();
    let bytes: usize = frames.iter().map(|f| HEADER_LEN + f.len()).sum();
    values.set(
        "replication.bytes_per_epoch",
        bytes as f64 / frames.len() as f64,
    );
    values.set(
        "wire.repl_delta_encode_ns",
        median_block_ns(budget, 64, |i| {
            let e = &events[i % events.len()];
            std::hint::black_box(wire::encode_repl_delta(1, e.epoch, &e.deltas, e.checksum));
        }),
    );
    values.set(
        "wire.repl_delta_decode_ns",
        median_block_ns(budget, 64, |i| {
            std::hint::black_box(wire::decode_repl_delta(&frames[i % frames.len()]).is_ok());
        }),
    );
    Ok(())
}

// ----- analysis jobs ------------------------------------------------------

/// One job of the analysis pass.
pub struct Job {
    /// The per-layer metric the job's median time is reported as.
    pub metric: &'static str,
    /// Nanoseconds of one job run per unit of the metric: the job's
    /// repetitions (each job is sized to run at least 5 ms) times the
    /// unit's own scale.
    pub ns_per_unit: f64,
}

const MS: f64 = 1e6;

pub const JOBS: [Job; 10] = [
    Job {
        metric: "search.bounded_ms",
        ns_per_unit: MS,
    },
    Job {
        metric: "search.sliced_ms",
        ns_per_unit: 3.0 * MS,
    },
    Job {
        metric: "verify.saturation_ms",
        ns_per_unit: MS,
    },
    Job {
        metric: "verify.bmc_ms",
        ns_per_unit: MS,
    },
    Job {
        metric: "lint.report_ms",
        ns_per_unit: MS,
    },
    Job {
        metric: "admission.interval_ms",
        ns_per_unit: 4.0 * MS,
    },
    Job {
        metric: "refinement.nonadmin_ms",
        ns_per_unit: 2.0 * MS,
    },
    Job {
        metric: "refinement.simulation_ms",
        ns_per_unit: 3.0 * MS,
    },
    Job {
        metric: "ordering.build_ms",
        ns_per_unit: 10.0 * MS,
    },
    Job {
        metric: "ordering.decide_ns",
        ns_per_unit: DECISIONS as f64,
    },
];

/// The job whose count is reported as `search.states_expanded`.
pub const STATES_JOB: usize = 0;

const DECISIONS: usize = 10_000;

/// What one job run concluded: whether its verdict is the pinned one,
/// and a count that must repeat exactly from pass to pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobOutcome {
    pub verdict_ok: bool,
    pub count: u64,
}

struct Sized {
    universe: Universe,
    policy: Policy,
    users: Vec<UserId>,
}

/// The layered policy shape the repository's benches size by role count:
/// four layers, users, permissions, injected administrative privileges.
fn sized(roles: usize, seed: u64) -> Sized {
    let layers = 4;
    let width = roles.div_ceil(layers).max(1);
    let mut h = layered(LayeredSpec {
        layers,
        width,
        edge_prob: (8.0 / width as f64).min(1.0),
        seed,
    });
    let users = populate_users(&mut h, (roles / 8).max(4), 2, seed);
    populate_perms(&mut h, 2, roles.max(8), seed);
    let all_roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
    inject_admin_privs(
        &mut h.universe,
        &mut h.policy,
        &users,
        &all_roles,
        AdminSpec {
            count: (roles / 4).max(8),
            max_depth: 2,
            grant_ratio: 0.8,
            seed,
        },
    );
    Sized {
        universe: h.universe,
        policy: h.policy,
        users,
    }
}

/// One explicit-mode model-checking instance, grounded over the exact
/// alphabet the bounded search would explore.
struct BmcInstance {
    universe: Universe,
    policy: Policy,
    alphabet: Vec<(Command, PrivId)>,
    entity: Entity,
    target: PrivId,
    reachable: bool,
}

/// The fixed inputs of the analysis pass.
pub struct Analysis {
    bounded: Sized,
    never: Perm,
    cone: ConeWorkload,
    grow: GrowOnlyWorkload,
    bmc: [BmcInstance; 2],
    wide: (Universe, Policy),
    pair: (Universe, Policy, Policy),
    figure2: (Universe, Policy, Policy),
    chain: (Universe, Policy, Vec<(PrivId, PrivId)>),
}

impl Analysis {
    pub fn build(seed: u64) -> Analysis {
        let mut bounded = sized(512, seed);
        let never = bounded.universe.perm("open", "no-such-vault");

        // Department 0's chain is a sixth of the alphabet: what slicing cuts to.
        let cone = cone(ConeSpec {
            departments: 6,
            depth: 5,
            fanout: 3,
        });
        let grow = grow_only(GrowOnlySpec {
            width: 256,
            users: 4,
        });

        let delegation = {
            let mut w = deep_delegation(DelegationSpec {
                depth: 5,
                fanout: 4,
            });
            let alphabet = prepare_alphabet(&mut w.universe, &w.policy, SafetyConfig::default());
            let target = w.universe.priv_perm(w.vault_perm);
            BmcInstance {
                entity: Entity::User(w.workers[0]),
                universe: w.universe,
                policy: w.policy,
                alphabet,
                target,
                reachable: true,
            }
        };
        let nested = {
            let (mut universe, policy) = hospital_with_nested_delegation();
            let alphabet = prepare_alphabet(&mut universe, &policy, SafetyConfig::default());
            let never = universe.perm("launch", "missiles");
            let target = universe.priv_perm(never);
            let entity = Entity::User(universe.users().next().expect("the hospital has users"));
            BmcInstance {
                universe,
                policy,
                alphabet,
                entity,
                target,
                reachable: false,
            }
        };

        let trickle = wide_universe_trickle(TrickleSpec {
            seed,
            ..TrickleSpec::default()
        });

        // φ and a ψ with one edge fewer: ψ refines φ, φ does not refine ψ.
        let phi = sized(1024, seed);
        let mut psi = phi.policy.clone();
        let dropped = phi.policy.edges().next().expect("a sized policy has edges");
        psi.remove_edge(dropped);

        // Figure 2 and the paper's weakening of HR's ¤(bob, staff) to
        // ¤(bob, dbusr2): an administrative refinement by Theorem 1.
        let figure2 = {
            let (mut universe, phi) = hospital_fig2();
            let find = |u: &Universe, name: &str| u.find_role(name).expect("a Figure 2 role");
            let bob = universe.find_user("bob").expect("bob");
            let (staff, dbusr2, hr) = (
                find(&universe, "staff"),
                find(&universe, "dbusr2"),
                find(&universe, "hr"),
            );
            let p = universe
                .find_term(PrivTerm::Grant(Edge::UserRole(bob, staff)))
                .expect("Figure 2 assigns ¤(bob, staff)");
            let q = universe.grant_user_role(bob, dbusr2);
            let psi = weaken_assignment(&phi, (hr, p), q);
            (universe, phi, psi)
        };

        // A 256-role chain and depth-8 privilege pairs over random role
        // pairs: about half are ordered.
        let chain = {
            let mut h = chain(256);
            let user = h.universe.user("admin");
            let roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
            h.policy.add_edge(Edge::UserRole(user, roles[0]));
            let mut mix = seed | 1;
            let pairs = (0..DECISIONS)
                .map(|_| {
                    mix ^= mix << 13;
                    mix ^= mix >> 7;
                    mix ^= mix << 17;
                    let a = roles[(mix % 256) as usize];
                    let b = roles[((mix >> 16) % 256) as usize];
                    let mut p = h.universe.grant_user_role(user, a);
                    let mut q = h.universe.grant_user_role(user, b);
                    for _ in 1..8 {
                        p = h.universe.grant_role_priv(roles[0], p);
                        q = h.universe.grant_role_priv(roles[0], q);
                    }
                    (p, q)
                })
                .collect();
            (h.universe, h.policy, pairs)
        };

        Analysis {
            bounded,
            never,
            cone,
            grow,
            bmc: [delegation, nested],
            wide: (trickle.universe, trickle.policy),
            pair: (phi.universe, phi.policy, psi),
            figure2,
            chain,
        }
    }

    /// Runs job `index` of [`JOBS`] once (all of its repetitions).
    pub fn run(&mut self, index: usize) -> JobOutcome {
        let sequential = SafetyConfig {
            jobs: 1,
            escalate: false,
            ..SafetyConfig::default()
        };
        match index {
            // One full frontier round over the complete alphabet of the
            // 512-role policy, slicing off, for a permission nothing holds.
            0 => {
                let answer = perm_reachable(
                    &mut self.bounded.universe,
                    &self.bounded.policy,
                    Entity::User(self.bounded.users[0]),
                    self.never,
                    SafetyConfig {
                        max_steps: 1,
                        max_states: 100_000,
                        slice: false,
                        ..sequential
                    },
                );
                match answer {
                    ReachabilityAnswer::Unknown { truncation } => JobOutcome {
                        verdict_ok: !truncation.cap_hit,
                        count: truncation.states as u64,
                    },
                    _ => JobOutcome {
                        verdict_ok: false,
                        count: 0,
                    },
                }
            }
            1 => {
                let mut reachable = 0;
                for _ in 0..3 {
                    let answer = perm_reachable(
                        &mut self.cone.universe,
                        &self.cone.policy,
                        Entity::User(self.cone.workers[0]),
                        self.cone.goal_perm,
                        SafetyConfig {
                            max_steps: 5,
                            max_states: 200_000,
                            ..sequential
                        },
                    );
                    reachable += u64::from(answer.is_reachable());
                }
                JobOutcome {
                    verdict_ok: reachable == 3,
                    count: reachable,
                }
            }
            // Saturation decides both polarities with the bounded engines
            // starved outright.
            2 => {
                let member = Entity::User(self.grow.members[0]);
                let starved = SafetyConfig {
                    max_steps: 0,
                    max_states: 0,
                    ..SafetyConfig::default()
                };
                let mut ok = true;
                for (perm, expect) in [(self.grow.goal_perm, true), (self.grow.absent_perm, false)]
                {
                    let report = verify_perm_reachable(
                        &mut self.grow.universe,
                        &self.grow.policy,
                        member,
                        perm,
                        starved,
                    );
                    let definitive = match report.answer {
                        ReachabilityAnswer::Reachable { .. } => expect,
                        ReachabilityAnswer::Unreachable => !expect,
                        ReachabilityAnswer::Unknown { .. } => false,
                    };
                    ok &= definitive && report.engine == EngineUsed::Saturation;
                }
                JobOutcome {
                    verdict_ok: ok,
                    count: 2,
                }
            }
            3 => {
                let mut ok = true;
                let mut variables = 0;
                for instance in &self.bmc {
                    let report = bmc::check(
                        &instance.universe,
                        &instance.policy,
                        &instance.alphabet,
                        instance.entity,
                        instance.target,
                        BmcConfig::default(),
                    );
                    ok &= match report.outcome {
                        BmcOutcome::Reachable { .. } => instance.reachable,
                        BmcOutcome::Unreachable => !instance.reachable,
                        BmcOutcome::Inconclusive(_) => false,
                    };
                    variables += report.variables as u64;
                }
                JobOutcome {
                    verdict_ok: ok,
                    count: variables,
                }
            }
            4 => {
                let report = lint_policy(&self.wide.0, &self.wide.1, &LintConfig::default());
                JobOutcome {
                    verdict_ok: report.rules_checked > 0,
                    count: report.findings.len() as u64,
                }
            }
            5 => {
                let mut frozen = 0;
                for _ in 0..4 {
                    frozen = Interval::from_policy(&self.wide.0, &self.wide.1, AuthMode::Explicit)
                        .frozen_count();
                }
                JobOutcome {
                    verdict_ok: frozen > 0,
                    count: frozen as u64,
                }
            }
            6 => {
                let (universe, phi, psi) = &self.pair;
                let mut ok = true;
                let mut violations = 0;
                for _ in 0..2 {
                    ok &= refines(universe, phi, psi);
                    violations = refinement_violations(universe, psi, phi).len();
                }
                JobOutcome {
                    verdict_ok: ok && violations > 0,
                    count: violations as u64,
                }
            }
            7 => {
                let (universe, phi, psi) = &self.figure2;
                let config = SimulationConfig {
                    max_queue_len: 2,
                    ..SimulationConfig::default()
                };
                let mut holds = 0;
                for _ in 0..3 {
                    holds += u64::from(check_admin_refinement(universe, phi, psi, config).holds());
                }
                JobOutcome {
                    verdict_ok: holds == 3,
                    count: holds,
                }
            }
            8 => {
                let (universe, phi, _) = &self.pair;
                let mut built = 0;
                for _ in 0..10 {
                    let order = PrivilegeOrder::new(universe, phi, OrderingMode::Extended);
                    built +=
                        u64::from(std::hint::black_box(order.mode()) == OrderingMode::Extended);
                }
                JobOutcome {
                    verdict_ok: built == 10,
                    count: built,
                }
            }
            // A fresh order per pass, so no decision is answered from a
            // memo an earlier pass filled.
            9 => {
                let (universe, policy, pairs) = &self.chain;
                let order = PrivilegeOrder::new(universe, policy, OrderingMode::Extended);
                let weaker = pairs
                    .iter()
                    .filter(|&&(p, q)| order.is_weaker(p, q))
                    .count();
                JobOutcome {
                    verdict_ok: weaker > 0 && weaker < pairs.len(),
                    count: weaker as u64,
                }
            }
            _ => unreachable!("JOBS has ten entries"),
        }
    }
}
