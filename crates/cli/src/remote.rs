//! The networked CLI surface: `adminref serve` runs `adminrefd` over a
//! durable store (or as a replica of one); `adminref client` connects a
//! [`WireClient`] to a running daemon and hands it to the same
//! [`verbs`] the local entry points call on an in-process monitor.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use adminref_core::command::Command;
use adminref_core::universe::Universe;
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_service::daemon::{Daemon, DaemonConfig, WireListener};
use adminref_service::replication::{
    fetch_bootstrap, FollowTarget, ReplicatedService, ReplicationHub,
};
use adminref_service::{MonitorService, PolicyService, WireClient};
use adminref_store::PolicyStore;

use crate::args::Args;
use crate::verbs::{self, read_policy, read_queue, resolve_goal, safety_config};
use crate::{open_store, report_recovery, Run};

// ----- adminref serve --------------------------------------------------

/// `adminref serve <store-dir> (--listen HOST:PORT | --unix PATH)
/// [--init policy.rbac] [--ordered] [--stop-file PATH] [--workers N]
/// [--replicate]`, or
/// `adminref serve (--follow HOST:PORT | --follow-unix PATH)
/// (--listen … | --unix …) [--stop-file PATH] [--workers N]`
///
/// Serves a durable store over the wire protocol until the stop file
/// appears (or forever without one — the process is then stopped
/// externally; the WAL makes hard kills safe, at the cost of dropping
/// in-memory sessions). `--replicate` makes the daemon a replication
/// primary that streams every published epoch to subscribed replicas;
/// `--follow` makes it an in-memory read replica of a primary (no
/// store directory) that refuses writes until promoted.
pub fn cmd_serve(rest: &[&String]) -> Run {
    let flags = "--listen= --unix= --init= --stop-file= --workers= --follow= --follow-unix= \
                 --ordered --replicate";
    let args = Args::parse(rest, 1, &[flags])?;
    let follow = match (args.value("--follow"), args.value("--follow-unix")) {
        (Some(_), Some(_)) => {
            return Err("pass at most one of --follow HOST:PORT and --follow-unix PATH".into())
        }
        (Some(addr), None) => Some(FollowTarget::Tcp(addr.into())),
        (None, Some(path)) => Some(FollowTarget::Unix(path.into())),
        (None, None) => None,
    };
    if let Some(target) = follow {
        return serve_replica(&args, target);
    }
    let dir = args.pos(0, "store directory")?;
    let mode = args.auth_mode();

    let (store, recovery) = if let Some(policy_path) = args.value("--init") {
        let (uni, policy) = read_policy(policy_path)?;
        let store = PolicyStore::create(Path::new(dir), uni, policy, mode)
            .map_err(|e| format!("creating store in {dir}: {e}"))?;
        println!("initialized {dir} from {policy_path}");
        (store, None)
    } else {
        let (store, report) = open_store(dir, mode)?;
        report_recovery(dir, &report, "serve")?;
        (store, Some(report))
    };

    let universe = store.universe().clone();
    // Thread the recovery report through so remote `client stats`
    // surfaces what replay found, same as the local monitor would.
    let monitor = ReferenceMonitor::with_store_recovered(store, recovery, MonitorConfig::default());
    // Network serving: a small write-gather window lets one pipelined
    // round-trip's submissions coalesce into one group-commit batch.
    let gather = std::time::Duration::from_micros(50);
    let (service, hub): (Arc<dyn PolicyService>, _) = if args.has("--replicate") {
        let service = ReplicatedService::primary(Arc::new(monitor)).with_write_gather(gather);
        let hub = Arc::clone(service.hub());
        (Arc::new(service), Some(hub))
    } else {
        (
            Arc::new(MonitorService::new(monitor).with_write_gather(gather)),
            None,
        )
    };

    run_daemon(&args, service, universe, hub, &format!("serving {dir}"), "")
}

/// `adminref serve --follow …`: bootstrap from the primary, serve the
/// read alphabet in memory, stream and apply its epoch deltas.
fn serve_replica(args: &Args, target: FollowTarget) -> Run {
    let (universe, policy, constraints, epoch, term) =
        fetch_bootstrap(&target, Duration::from_secs(30)).map_err(|e| format!("bootstrap: {e}"))?;
    println!(
        "bootstrapped at epoch {epoch} (term {term}): {} user(s), {} role(s)",
        universe.user_count(),
        universe.role_count()
    );
    let monitor = Arc::new(ReferenceMonitor::new(
        universe.clone(),
        policy.clone(),
        MonitorConfig::default(),
    ));
    monitor
        .install_replica_state(universe.clone(), policy, epoch, constraints)
        .map_err(|e| format!("installing bootstrap state: {e}"))?;
    let service = ReplicatedService::replica(
        Arc::clone(&monitor),
        target,
        Duration::from_millis(500),
        Some(term),
    );
    let hub = Some(Arc::clone(service.hub()));
    let note = " (writes refused until promote)";
    run_daemon(
        args,
        Arc::new(service),
        universe,
        hub,
        "replica serving",
        note,
    )
}

/// Binds `--listen`/`--unix`, serves `service` there (the serving
/// universe doubles as the wire-decode context), announces it as
/// `{what} on … {note}`, and blocks until the stop file appears — or
/// forever without one.
fn run_daemon(
    args: &Args,
    service: Arc<dyn PolicyService>,
    universe: Universe,
    hub: Option<Arc<ReplicationHub>>,
    what: &str,
    note: &str,
) -> Run {
    let unix = args.value("--unix");
    let listener = match (args.value("--listen"), unix) {
        (Some(addr), None) => WireListener::tcp(addr).map_err(|e| format!("binding {addr}: {e}")),
        (None, Some(path)) => WireListener::unix(path).map_err(|e| format!("binding {path}: {e}")),
        _ => Err("serve needs exactly one of --listen HOST:PORT or --unix PATH".into()),
    }?;
    let config = DaemonConfig {
        workers: args.number("--workers", DaemonConfig::default().workers)?,
    };
    let daemon = Daemon::spawn_replicated(service, universe, listener, config, hub)
        .map_err(|e| format!("starting daemon: {e}"))?;
    match (daemon.local_addr(), unix) {
        (Some(addr), _) => println!("{what} on tcp {addr}{note}"),
        (None, path) => println!("{what} on unix {}{note}", path.unwrap_or_default()),
    }
    // std has no signal handling and this workspace admits no raw libc
    // calls; a stop file gives scripts (and the daemon tests) a
    // portable graceful shutdown.
    let Some(stop_path) = args.value("--stop-file") else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    };
    println!("stopping when {stop_path} exists");
    while !Path::new(stop_path).exists() {
        std::thread::sleep(Duration::from_millis(200));
    }
    daemon.shutdown();
    let _ = std::fs::remove_file(stop_path);
    println!("shutdown complete");
    Ok(ExitCode::SUCCESS)
}

// ----- adminref client -------------------------------------------------

type ClientVerb = fn(&dyn PolicyService, &[&String]) -> Run;

/// Every verb `adminref client … <verb>` accepts: the [`verbs`] behind
/// their client-side grammar. Names resolve against the `.rbac` source
/// the serving store was initialized from.
pub(crate) const CLIENT_VERBS: &[(&str, ClientVerb)] = &[
    ("check", |svc, rest| {
        let args = Args::parse(rest, 4, &["--roles="])?;
        let (mut uni, _) = read_policy(args.pos(0, "policy file")?)?;
        let goal = resolve_goal(&mut uni, &args)?;
        verbs::check(svc, &uni, goal, args.value("--roles"))
    }),
    ("reach", |svc, rest| {
        let args = Args::parse(rest, 4, &[verbs::REACH_FLAGS])?;
        let (mut uni, _) = read_policy(args.pos(0, "policy file")?)?;
        let goal = resolve_goal(&mut uni, &args)?;
        verbs::reach(svc, &uni, goal, safety_config(&args)?)
    }),
    ("lint", |svc, rest| {
        let args = Args::parse(rest, 1, &[verbs::LINT_FLAGS])?;
        let path = args.pos(0, "policy file")?;
        verbs::lint(svc, &read_policy(path)?.0, path, " (served)", &args)
    }),
    ("submit", |svc, rest| {
        let (uni, commands) = policy_and_queue(rest)?;
        verbs::submit(svc, &uni, commands)
    }),
    ("analyze", |svc, rest| {
        let (uni, commands) = policy_and_queue(rest)?;
        verbs::analyze(svc, &uni, commands)
    }),
    ("constraint", |svc, rest| {
        let args = Args::parse(rest, 2, &[verbs::CONSTRAINT_FLAGS])?;
        let (uni, _) = read_policy(args.pos(0, "policy file")?)?;
        let verb = args.pos(1, "constraint verb (add|list)")?;
        verbs::constraint(svc, &uni, verb, &args)
    }),
    ("compact", |svc, rest| bare(svc, rest, verbs::compact)),
    ("stats", |svc, rest| bare(svc, rest, verbs::stats)),
    ("version", |svc, rest| bare(svc, rest, verbs::version)),
    ("promote", |svc, rest| bare(svc, rest, verbs::promote)),
];

/// The `<policy.rbac> <queue.rbacq>` operands of `submit` and `analyze`.
fn policy_and_queue(rest: &[&String]) -> Run<(Universe, Vec<Command>)> {
    let args = Args::parse(rest, 2, &[])?;
    let (mut uni, _) = read_policy(args.pos(0, "policy file")?)?;
    let commands = read_queue(args.pos(1, "queue file")?, &mut uni)?;
    Ok((uni, commands))
}

/// A verb that takes no operands.
fn bare(svc: &dyn PolicyService, rest: &[&String], verb: fn(&dyn PolicyService) -> Run) -> Run {
    Args::parse(rest, 0, &[])?;
    verb(svc)
}

/// `adminref client (<host:port> | --unix PATH) <verb> …` — connects,
/// then runs one of [`CLIENT_VERBS`] against the daemon.
pub fn cmd_client(rest: &[&String]) -> Run {
    // The address is the client's own operand, not the verb's: lift it
    // out (`--unix PATH` wherever it sits) before the verb's grammar.
    let mut rest = rest.to_vec();
    let client = match rest.iter().position(|a| a.as_str() == "--unix") {
        Some(at) => {
            let path = rest.get(at + 1).ok_or("--unix needs a value")?.as_str();
            let client =
                WireClient::connect_unix(path).map_err(|e| format!("connecting to {path}: {e}"))?;
            rest.drain(at..at + 2);
            client
        }
        None => {
            let addr = match rest.first() {
                Some(addr) if !addr.starts_with("--") => rest.remove(0),
                _ => return Err("missing server address (host:port or --unix PATH)".into()),
            };
            WireClient::connect_tcp(addr.as_str())
                .map_err(|e| format!("connecting to {addr}: {e}"))?
        }
    };
    let (verb, rest) = rest.split_first().ok_or("missing client verb")?;
    let (_, run) = CLIENT_VERBS
        .iter()
        .find(|(name, _)| name == verb)
        .ok_or_else(|| {
            let names: Vec<&str> = CLIENT_VERBS.iter().map(|(name, _)| *name).collect();
            format!("unknown client verb `{verb}` ({})", names.join("|"))
        })?;
    run(&client, rest)
}
