//! The networked CLI surface: `adminref serve` runs `adminrefd` over a
//! durable store; `adminref client` drives a running daemon through
//! [`WireClient`], reusing the same verbs (`check`, `reach`, `lint`,
//! `submit`, `analyze`, `constraint`, `compact`, `stats`, `version`)
//! that exist locally.
//!
//! Name resolution on the client side is deliberately store-free: the
//! client loads the *same* `.rbac` policy source the serving store was
//! initialized from, and deterministic interning guarantees the ids it
//! derives match the server's. The server still bounds-checks every id
//! at the wire boundary, so a mismatched policy file produces a typed
//! transport error, not a panic.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use adminref_core::ids::Entity;
use adminref_core::lint::Severity;
use adminref_core::ordering::OrderingMode;
use adminref_core::safety::{ReachabilityAnswer, SafetyConfig};
use adminref_core::transition::AuthMode;
use adminref_lang::{load_queue, print_command};
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_service::daemon::{Daemon, DaemonConfig, WireListener};
use adminref_service::replication::{fetch_bootstrap, FollowTarget, ReplicatedService};
use adminref_service::{MonitorService, PolicyService, WireClient};
use adminref_store::PolicyStore;

use crate::{
    flag, flag_value, merge_constraint_flags, parse_sod_pairs, positional, positionals,
    print_constraints, print_impact, read_policy,
};

fn auth_mode(rest: &[&String]) -> AuthMode {
    if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    }
}

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
pub fn cmd_serve(rest: &[&String]) -> Result<ExitCode, String> {
    let follow = match (
        flag_value(rest, "--follow"),
        flag_value(rest, "--follow-unix"),
    ) {
        (Some(_), Some(_)) => {
            return Err("pass at most one of --follow HOST:PORT and --follow-unix PATH".into())
        }
        (Some(addr), None) => Some(FollowTarget::Tcp(addr)),
        (None, Some(path)) => Some(FollowTarget::Unix(path.into())),
        (None, None) => None,
    };
    if let Some(target) = follow {
        return serve_replica(rest, target);
    }
    let pos = positionals(rest);
    let dir = positional(&pos, 0, "store directory")?;
    let mode = auth_mode(rest);

    let (store, recovery) = if let Some(policy_path) = flag_value(rest, "--init") {
        let (uni, policy) = read_policy(&policy_path)?;
        let store = PolicyStore::create(Path::new(dir), uni, policy, mode)
            .map_err(|e| format!("creating store in {dir}: {e}"))?;
        println!("initialized {dir} from {policy_path}");
        (store, None)
    } else {
        let (store, report) =
            PolicyStore::open(Path::new(dir), mode).map_err(|e| format!("opening {dir}: {e}"))?;
        println!(
            "opened {dir}: replayed {} entr{}{}",
            report.replayed,
            if report.replayed == 1 { "y" } else { "ies" },
            if report.truncated_tail {
                ", truncated a torn tail"
            } else {
                ""
            },
        );
        if report.divergent > 0 {
            return Err(format!(
                "{} divergent entr{}: the log and snapshot are from different histories; \
                 refusing to serve (rerun with the auth mode the log was written under)",
                report.divergent,
                if report.divergent == 1 { "y" } else { "ies" }
            ));
        }
        (store, Some(report))
    };

    // The serving universe doubles as the wire-decode context.
    let universe = store.universe().clone();
    // Thread the recovery report through so remote `client stats`
    // surfaces what replay found, same as the local monitor would.
    let monitor = ReferenceMonitor::with_store_recovered(store, recovery, MonitorConfig::default());
    // Network serving: a small write-gather window lets one pipelined
    // round-trip's submissions coalesce into one group-commit batch.
    let gather = std::time::Duration::from_micros(50);
    let (service, hub): (Arc<dyn PolicyService>, _) = if flag(rest, "--replicate") {
        let service = ReplicatedService::primary(Arc::new(monitor)).with_write_gather(gather);
        let hub = Arc::clone(service.hub());
        (Arc::new(service), Some(hub))
    } else {
        (
            Arc::new(MonitorService::new(monitor).with_write_gather(gather)),
            None,
        )
    };

    let (listener, unix) = bind_listener(rest)?;
    let config = daemon_config(rest)?;
    let daemon = Daemon::spawn_replicated(service, universe, listener, config, hub)
        .map_err(|e| format!("starting daemon: {e}"))?;
    match (daemon.local_addr(), &unix) {
        (Some(addr), _) => println!("serving {dir} on tcp {addr}"),
        (None, Some(path)) => println!("serving {dir} on unix {path}"),
        (None, None) => println!("serving {dir}"),
    }
    run_until_stopped(rest, daemon)
}

/// `adminref serve --follow …`: bootstrap from the primary, serve the
/// read alphabet in memory, stream and apply its epoch deltas.
fn serve_replica(rest: &[&String], target: FollowTarget) -> Result<ExitCode, String> {
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
    let hub = Arc::clone(service.hub());
    let (listener, unix) = bind_listener(rest)?;
    let config = daemon_config(rest)?;
    let daemon = Daemon::spawn_replicated(Arc::new(service), universe, listener, config, Some(hub))
        .map_err(|e| format!("starting daemon: {e}"))?;
    match (daemon.local_addr(), &unix) {
        (Some(addr), _) => println!("replica serving on tcp {addr} (writes refused until promote)"),
        (None, Some(path)) => {
            println!("replica serving on unix {path} (writes refused until promote)")
        }
        (None, None) => println!("replica serving (writes refused until promote)"),
    }
    run_until_stopped(rest, daemon)
}

fn bind_listener(rest: &[&String]) -> Result<(WireListener, Option<String>), String> {
    let listen = flag_value(rest, "--listen");
    let unix = flag_value(rest, "--unix");
    let listener = match (&listen, &unix) {
        (Some(addr), None) => {
            WireListener::tcp(addr.as_str()).map_err(|e| format!("binding {addr}: {e}"))?
        }
        (None, Some(path)) => {
            WireListener::unix(path).map_err(|e| format!("binding {path}: {e}"))?
        }
        _ => return Err("serve needs exactly one of --listen HOST:PORT or --unix PATH".into()),
    };
    Ok((listener, unix))
}

fn daemon_config(rest: &[&String]) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    if let Some(w) = flag_value(rest, "--workers") {
        config.workers_per_connection = w
            .parse::<usize>()
            .map_err(|e| format!("--workers: {e}"))?
            .max(1);
    }
    Ok(config)
}

fn run_until_stopped(rest: &[&String], daemon: Daemon) -> Result<ExitCode, String> {
    // std has no signal handling and this workspace admits no raw libc
    // calls; a stop file gives scripts (and the daemon tests) a
    // portable graceful shutdown.
    let stop_file = flag_value(rest, "--stop-file");
    match stop_file {
        Some(stop_path) => {
            println!("stopping when {stop_path} exists");
            while !Path::new(&stop_path).exists() {
                std::thread::sleep(Duration::from_millis(200));
            }
            daemon.shutdown();
            let _ = std::fs::remove_file(&stop_path);
            println!("shutdown complete");
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    Ok(ExitCode::SUCCESS)
}

// ----- adminref client -------------------------------------------------

/// `adminref client (<host:port> | --unix PATH) <verb> …` — the remote
/// twins of the local verbs. See the module docs for name resolution.
pub fn cmd_client(rest: &[&String]) -> Result<ExitCode, String> {
    let unix = flag_value(rest, "--unix");
    let pos = positionals(rest);
    let (client, verb_at) = match &unix {
        Some(path) => {
            let client =
                WireClient::connect_unix(path).map_err(|e| format!("connecting to {path}: {e}"))?;
            (client, 0)
        }
        None => {
            let addr = positional(&pos, 0, "server address (host:port or --unix PATH)")?;
            let client =
                WireClient::connect_tcp(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
            (client, 1)
        }
    };
    let verb = positional(&pos, verb_at, "client verb")?;
    let args = &pos[verb_at + 1..];
    match verb {
        "check" => client_check(&client, rest, args),
        "reach" => client_reach(&client, rest, args),
        "lint" => client_lint(&client, rest, args),
        "submit" => client_submit(&client, args),
        "analyze" => client_analyze(&client, args),
        "constraint" => client_constraint(&client, rest, args),
        "compact" => {
            client.compact().map_err(|e| e.to_string())?;
            println!("compacted: log folded into snapshot, reopen replays 0 entries");
            Ok(ExitCode::SUCCESS)
        }
        "stats" => client_stats(&client),
        "version" => {
            let info = client.version_info().map_err(|e| e.to_string())?;
            println!("epoch {} checksum {:#018x}", info.epoch, info.checksum);
            Ok(ExitCode::SUCCESS)
        }
        "promote" => {
            let (term, epoch) = client.promote().map_err(|e| e.to_string())?;
            println!("promoted: primary under term {term} at epoch {epoch}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown client verb `{other}` \
             (check|reach|lint|submit|analyze|constraint|compact|stats|version|promote)"
        )),
    }
}

/// `client … check <policy.rbac> <user> <action> <object> --roles r1[,r2…]`
///
/// Creates a session, activates the named roles, asks the access
/// question, and drops the session. Scriptable: granted exits 0,
/// denied exits 1.
fn client_check(client: &WireClient, rest: &[&String], args: &[&str]) -> Result<ExitCode, String> {
    let (mut uni, _policy) = read_policy(positional(args, 0, "policy file")?)?;
    let user_name = positional(args, 1, "user")?;
    let user = uni
        .find_user(user_name)
        .ok_or_else(|| format!("unknown user `{user_name}`"))?;
    let action = positional(args, 2, "action")?.to_string();
    let object = positional(args, 3, "object")?.to_string();
    let perm = uni.perm(&action, &object);
    let roles = match flag_value(rest, "--roles") {
        Some(spec) => spec
            .split(',')
            .map(|name| {
                let name = name.trim();
                uni.find_role(name)
                    .ok_or_else(|| format!("--roles: unknown role `{name}`"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => return Err("check needs --roles r1[,r2…] to activate".into()),
    };

    let session = client.create_session(user).map_err(|e| e.to_string())?;
    for role in &roles {
        client
            .activate_role(session, *role)
            .map_err(|e| format!("activating {}: {e}", uni.role_name(*role)))?;
    }
    let granted = client
        .check_access(session, perm)
        .map_err(|e| e.to_string())?;
    let _ = client.drop_session(session);
    println!(
        "ACCESS {}: {user_name} with {} role(s) on ({action}, {object})",
        if granted { "granted" } else { "denied" },
        roles.len()
    );
    Ok(if granted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `client … reach <policy.rbac> <user> <action> <object> [--steps N]
/// [--max-states N] [--jobs N] [--no-escalate] [--no-slice]`
///
/// The remote twin of `adminref reach`: the server analyzes a snapshot
/// of its *live* policy (which may have moved past the local file) and
/// overrides the auth mode with its own.
fn client_reach(client: &WireClient, rest: &[&String], args: &[&str]) -> Result<ExitCode, String> {
    let (mut uni, _policy) = read_policy(positional(args, 0, "policy file")?)?;
    let user_name = positional(args, 1, "user")?;
    let user = uni
        .find_user(user_name)
        .ok_or_else(|| format!("unknown user `{user_name}`"))?;
    let action = positional(args, 2, "action")?.to_string();
    let object = positional(args, 3, "object")?.to_string();
    let perm = uni.perm(&action, &object);
    let config = SafetyConfig {
        max_steps: match flag_value(rest, "--steps") {
            Some(v) => v.parse::<usize>().map_err(|e| format!("--steps: {e}"))?,
            None => 3,
        },
        max_states: match flag_value(rest, "--max-states") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|e| format!("--max-states: {e}"))?,
            None => SafetyConfig::default().max_states,
        },
        jobs: match flag_value(rest, "--jobs") {
            Some(v) => v.parse::<usize>().map_err(|e| format!("--jobs: {e}"))?,
            None => SafetyConfig::default().jobs,
        },
        escalate: !flag(rest, "--no-escalate"),
        slice: !flag(rest, "--no-slice"),
        ..SafetyConfig::default()
    };
    let answer = client
        .analyze_reach(Entity::User(user), perm, config)
        .map_err(|e| e.to_string())?;
    match answer {
        ReachabilityAnswer::Reachable { witness } => {
            println!(
                "REACHABLE in {} step(s): {user_name} can come to hold ({action}, {object})",
                witness.len()
            );
            for cmd in witness.iter() {
                println!("  {}", print_command(&uni, cmd));
            }
            Ok(ExitCode::SUCCESS)
        }
        ReachabilityAnswer::Unreachable => {
            println!("UNREACHABLE: the whole reachable space was explored");
            Ok(ExitCode::SUCCESS)
        }
        ReachabilityAnswer::Unknown { truncation } => {
            println!(
                "UNKNOWN: {} state(s) to depth {}, a bound cut the search off",
                truncation.states, truncation.depth
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `client … lint <policy.rbac> [--json] [--deny note|warning|error]
/// [--sod r1,r2[,…]]` — the remote twin of `adminref lint`, answered
/// from the server's live policy with the same output and exit-code
/// contract.
fn client_lint(client: &WireClient, rest: &[&String], args: &[&str]) -> Result<ExitCode, String> {
    let path = positional(args, 0, "policy file")?;
    let (uni, _policy) = read_policy(path)?;
    let deny = match flag_value(rest, "--deny") {
        Some(v) => Severity::parse(&v)
            .ok_or_else(|| format!("--deny: unknown severity `{v}` (note|warning|error)"))?,
        None => Severity::Error,
    };
    let sod_pairs = match flag_value(rest, "--sod") {
        Some(spec) => parse_sod_pairs(&uni, &spec)?,
        None => Vec::new(),
    };
    let report = client.lint(sod_pairs).map_err(|e| e.to_string())?;
    if flag(rest, "--json") {
        println!("{}", report.to_json(&uni, path));
    } else {
        println!(
            "# {path} (served): {} rule site(s), {} edge(s) in the may-add closure",
            report.rules_checked, report.closure_edges
        );
        for f in &report.findings {
            println!("{}[{}]: {}", f.severity.name(), f.kind.name(), f.message);
        }
        println!(
            "# {} note(s), {} warning(s), {} error(s)",
            report.count_of(Severity::Note),
            report.count_of(Severity::Warning),
            report.count_of(Severity::Error)
        );
    }
    Ok(if report.count_at_or_above(deny) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `client … submit <policy.rbac> <queue.rbacq>` — submits the queue as
/// one atomic batch and prints the per-command outcomes.
fn client_submit(client: &WireClient, args: &[&str]) -> Result<ExitCode, String> {
    let (mut uni, _policy) = read_policy(positional(args, 0, "policy file")?)?;
    let queue_path = positional(args, 1, "queue file")?;
    let queue_text =
        std::fs::read_to_string(queue_path).map_err(|e| format!("reading {queue_path}: {e}"))?;
    let queue = load_queue(&queue_text, &mut uni).map_err(|e| e.to_string())?;
    let commands = queue.commands().to_vec();
    let outcomes = match client.submit(commands.clone()) {
        Ok(outcomes) => outcomes,
        Err(adminref_service::protocol::ServiceError::Admission(report)) => {
            // The batch was refused before anything executed: surface
            // the findings the gate produced instead of a bare error.
            for f in &report.findings {
                println!("{}[{}]: {}", f.severity.name(), f.kind.name(), f.message);
            }
            println!("# {report}");
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => return Err(e.to_string()),
    };
    for (cmd, out) in commands.iter().zip(&outcomes) {
        println!(
            "{:60} {}",
            print_command(&uni, cmd),
            if out.executed() {
                "executed"
            } else {
                "refused"
            }
        );
    }
    let executed = outcomes.iter().filter(|o| o.executed()).count();
    println!(
        "# {} executed, {} refused, server epoch {}",
        executed,
        outcomes.len() - executed,
        client.version().map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

/// `client … analyze <policy.rbac> <queue.rbacq>` — asks the server to
/// simulate the batch against its live snapshot and constraint set, and
/// prints the impact report. Nothing is published. Scriptable: a clean
/// batch exits 0, one the gate would refuse exits 1.
fn client_analyze(client: &WireClient, args: &[&str]) -> Result<ExitCode, String> {
    let (mut uni, _policy) = read_policy(positional(args, 0, "policy file")?)?;
    let queue_path = positional(args, 1, "queue file")?;
    let queue_text =
        std::fs::read_to_string(queue_path).map_err(|e| format!("reading {queue_path}: {e}"))?;
    let queue = load_queue(&queue_text, &mut uni).map_err(|e| e.to_string())?;
    let report = client
        .analyze_batch(queue.commands().to_vec())
        .map_err(|e| e.to_string())?;
    print_impact(&uni, &report);
    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `client … constraint <policy.rbac> (add … | list)` — reads or
/// extends the server's durable constraint set. `add` fetches the
/// current set, merges the flags client-side, and sends the result, so
/// repeated adds accumulate exactly like the local verb.
fn client_constraint(
    client: &WireClient,
    rest: &[&String],
    args: &[&str],
) -> Result<ExitCode, String> {
    let (uni, _policy) = read_policy(positional(args, 0, "policy file")?)?;
    match positional(args, 1, "constraint verb (add|list)")? {
        "list" => {
            let constraints = client.get_constraints().map_err(|e| e.to_string())?;
            print_constraints(&uni, &constraints);
            Ok(ExitCode::SUCCESS)
        }
        "add" => {
            let mut constraints = client.get_constraints().map_err(|e| e.to_string())?;
            merge_constraint_flags(rest, &uni, &mut constraints)?;
            constraints.normalize();
            let echoed = client
                .set_constraints(constraints)
                .map_err(|e| e.to_string())?;
            print_constraints(&uni, &echoed);
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown constraint verb `{other}` (add|list)")),
    }
}

fn client_stats(client: &WireClient) -> Result<ExitCode, String> {
    let s = client.stats().map_err(|e| e.to_string())?;
    println!("epoch                {}", s.epoch);
    println!("checksum             {:#018x}", s.checksum);
    println!("users                {}", s.users);
    println!("roles                {}", s.roles);
    println!("edges                {}", s.edges);
    println!("sessions             {}", s.sessions);
    println!("audit retained       {}", s.audit_retained);
    println!("forced deactivations {}", s.forced_deactivations);
    println!("analyses run         {}", s.analyses_run);
    println!("analyses indefinite  {}", s.analyses_indefinite);
    println!("lints run            {}", s.lints_run);
    println!("lint findings        {}", s.lint_findings);
    match s.recovery {
        None => println!("recovery             (in-memory or fresh store)"),
        Some(r) => println!(
            "recovery             replayed {}, torn tail {}, divergent {}",
            r.replayed, r.truncated_tail, r.divergent
        ),
    }
    match s.replication {
        None => println!("replication          (not enabled)"),
        Some(r) => println!(
            "replication          {} term {}, applied epoch {}, lag {}",
            match r.role {
                adminref_service::ReplicationRole::Primary => "primary",
                adminref_service::ReplicationRole::Replica => "replica",
            },
            r.term,
            r.last_applied_epoch,
            r.lag
        ),
    }
    Ok(ExitCode::SUCCESS)
}
