//! The verb layer: every verb that exists both as `adminref <verb>` and
//! as `adminref client … <verb>` is **one** function over
//! `&dyn PolicyService` plus the universe its names resolve against.
//! The local entry points (in `main.rs`) hand it an in-process
//! [`MonitorService`](adminref_service::MonitorService); the client
//! (in [`remote`](crate::remote)) hands it a
//! [`WireClient`](adminref_service::WireClient). Flag grammar, name
//! resolution, renderers and exit rules therefore exist once.
//!
//! Name resolution is store-free on both sides: the universe comes from
//! the `.rbac` source (or the store) the serving monitor was built
//! from, and deterministic interning guarantees the ids derived here
//! match the server's. Names that *grow* the universe (a goal
//! permission, a queue's privilege terms) are resolved by the entry
//! point first — the in-process monitor is built over the grown
//! universe, while a daemon bounds-checks every id at the wire boundary
//! and answers a typed transport error, not a panic.

use std::process::ExitCode;

use adminref_core::admission::{ConstraintSet, ImpactReport};
use adminref_core::command::Command;
use adminref_core::display::{edge_to_string, priv_to_string, Notation};
use adminref_core::ids::{Entity, Perm, RoleId, UserId};
use adminref_core::lint::{Finding, Severity};
use adminref_core::policy::Policy;
use adminref_core::safety::{ReachabilityAnswer, SafetyConfig};
use adminref_core::universe::{Edge, Universe};
use adminref_lang::{load_policy, load_queue, print_command};
use adminref_service::{PolicyService, ReplicationRole, ServiceError};

use crate::args::Args;
use crate::Run;

/// `reach`'s search bounds (also `verify`'s, minus the two it lacks).
pub(crate) const REACH_FLAGS: &str = "--steps= --max-states= --jobs= --no-escalate --no-slice";
pub(crate) const LINT_FLAGS: &str = "--json --deny= --sod=";
pub(crate) const CONSTRAINT_FLAGS: &str = "--sod= --deny= --freeze=";

/// The scriptable exit: the answer is the exit code, and a `false` is
/// a completed run, not a usage error.
pub(crate) fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ----- resolving the command line --------------------------------------

pub(crate) fn read_policy(path: &str) -> Run<(Universe, Policy)> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(load_policy(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// Reads a `.rbacq` queue and resolves it, interning its terms.
pub(crate) fn read_queue(path: &str, uni: &mut Universe) -> Run<Vec<Command>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let queue = load_queue(&text, uni).map_err(|e| format!("{path}: {e}"))?;
    Ok(queue.commands().to_vec())
}

/// The `<user> <action> <object>` positionals after the policy file.
pub(crate) fn resolve_goal(uni: &mut Universe, args: &Args) -> Run<(UserId, Perm)> {
    let name = args.pos(1, "user")?;
    let user = uni
        .find_user(name)
        .ok_or_else(|| format!("unknown user `{name}`"))?;
    let perm = uni.perm(args.pos(2, "action")?, args.pos(3, "object")?);
    Ok((user, perm))
}

/// `--steps`, `--max-states`, `--jobs`, `--no-escalate`, `--no-slice`
/// and `--ordered` as a [`SafetyConfig`]; a verb that does not accept
/// one of them gets the default.
pub(crate) fn safety_config(args: &Args, default_steps: usize) -> Run<SafetyConfig> {
    let defaults = SafetyConfig::default();
    Ok(SafetyConfig {
        max_steps: args.number("--steps", default_steps)?,
        max_states: args.number("--max-states", defaults.max_states)?,
        jobs: args.number("--jobs", defaults.jobs)?,
        auth_mode: args.auth_mode(),
        escalate: !args.has("--no-escalate"),
        slice: !args.has("--no-slice"),
        ..defaults
    })
}

fn parse_severity(v: &str) -> Run<Severity> {
    let known = Severity::parse(v);
    Ok(known.ok_or_else(|| format!("--deny: unknown severity `{v}` (note|warning|error)"))?)
}

/// A comma-separated role list; every named role must exist.
fn parse_roles(uni: &Universe, flag: &str, spec: &str) -> Run<Vec<RoleId>> {
    spec.split(',')
        .map(|name| {
            let role = uni.find_role(name.trim());
            Ok(role.ok_or_else(|| format!("{flag}: unknown role `{}`", name.trim()))?)
        })
        .collect()
}

/// Parses `--sod r1,r2[,r3,r4…]` into role pairs: an even count.
pub(crate) fn parse_sod_pairs(uni: &Universe, spec: &str) -> Run<Vec<(RoleId, RoleId)>> {
    let roles = parse_roles(uni, "--sod", spec)?;
    if roles.len() % 2 != 0 {
        return Err("--sod needs a comma-separated list of role pairs (an even count)".into());
    }
    Ok(roles.chunks(2).map(|c| (c[0], c[1])).collect())
}

/// Parses `--freeze a,b[,c,d…]` into assignment/hierarchy edges: each
/// pair's first name is a user (user→role edge) or a role (role→role
/// edge), the second is always a role.
fn parse_freeze_edges(uni: &Universe, spec: &str) -> Run<Vec<Edge>> {
    let names: Vec<&str> = spec.split(',').map(str::trim).collect();
    if names.len() % 2 != 0 {
        return Err("--freeze needs a comma-separated list of name pairs (an even count)".into());
    }
    names
        .chunks(2)
        .map(|pair| {
            let target = uni
                .find_role(pair[1])
                .ok_or_else(|| format!("--freeze: unknown role `{}`", pair[1]))?;
            if let Some(user) = uni.find_user(pair[0]) {
                Ok(Edge::UserRole(user, target))
            } else if let Some(role) = uni.find_role(pair[0]) {
                Ok(Edge::RoleRole(role, target))
            } else {
                Err(format!("--freeze: unknown user or role `{}`", pair[0]).into())
            }
        })
        .collect()
}

// ----- renderers -------------------------------------------------------

fn print_findings(findings: &[Finding]) {
    for f in findings {
        println!("{}[{}]: {}", f.severity.name(), f.kind.name(), f.message);
    }
}

/// The `REACHABLE` answer of `reach` and `verify`: the goal, then the
/// witness, one command per line.
pub(crate) fn print_witness(uni: &Universe, user: UserId, perm: Perm, witness: &[Command]) {
    println!(
        "REACHABLE in {} step(s): {} can come to hold ({}, {})",
        witness.len(),
        uni.user_name(user),
        uni.action_name(perm.action),
        uni.object_name(perm.object)
    );
    for cmd in witness {
        println!("  {}", print_command(uni, cmd));
    }
}

/// Renders an [`ImpactReport`] in triage order: simulation verdicts,
/// grow-only transition, published deltas, permission flips, interval
/// status changes, severed sessions, then any admission findings.
fn print_impact(uni: &Universe, report: &ImpactReport) {
    let edge = |e| edge_to_string(uni, e, Notation::Ascii);
    let executed = report.outcomes.iter().filter(|o| o.executed()).count();
    let refused = report.outcomes.len() - executed;
    println!("# simulated: {executed} executed, {refused} refused");
    let (before, after) = (report.grow_only_before, report.grow_only_after);
    if before != after {
        println!("grow-only: {before} -> {after}");
    }
    for d in &report.deltas {
        println!(
            "delta: {} {}",
            if d.added { "+" } else { "-" },
            edge(d.edge)
        );
    }
    for f in &report.flipped {
        let verb = if f.now_granted { "gains" } else { "loses" };
        let term = priv_to_string(uni, f.term, Notation::Ascii);
        println!("flip: {} {verb} {term}", uni.user_name(f.user));
    }
    for c in &report.status_changes {
        let (before, after) = (c.before.name(), c.after.name());
        println!("status: {} {before} -> {after}", edge(c.edge));
    }
    for s in &report.severed_sessions {
        println!("severed session: {s}");
    }
    print_findings(&report.findings);
    match report.findings.len() {
        0 => println!("# admission: clean"),
        n => println!("# admission: REFUSED ({n} finding(s))"),
    }
}

/// Prints a constraint set with resolved names, one declaration per
/// line, in the canonical (normalized) order.
fn print_constraints(uni: &Universe, constraints: &ConstraintSet) {
    if constraints.is_empty() {
        println!("# no constraints declared");
        return;
    }
    for (a, b) in &constraints.sod_pairs {
        println!("sod: {}, {}", uni.role_name(*a), uni.role_name(*b));
    }
    if let Some(level) = constraints.deny_level {
        println!("deny-level: {}", level.name());
    }
    for e in &constraints.frozen_edges {
        println!("frozen: {}", edge_to_string(uni, *e, Notation::Ascii));
    }
    println!("# {} constraint(s) declared", constraints.len());
}

// ----- the verbs -------------------------------------------------------

/// `check <policy.rbac> <user> <action> <object> --roles r1[,r2…]`
///
/// Creates a session, activates the named roles, asks the access
/// question, and drops the session. Granted exits 0, denied exits 1.
pub(crate) fn check(
    svc: &dyn PolicyService,
    uni: &Universe,
    (user, perm): (UserId, Perm),
    roles: Option<&str>,
) -> Run {
    let spec = roles.ok_or("check needs --roles r1[,r2…] to activate")?;
    let roles = parse_roles(uni, "--roles", spec)?;
    let session = svc.create_session(user)?;
    for role in &roles {
        svc.activate_role(session, *role)
            .map_err(|e| format!("activating {}: {e}", uni.role_name(*role)))?;
    }
    let granted = svc.check_access(session, perm)?;
    let _ = svc.drop_session(session);
    println!(
        "ACCESS {}: {} with {} role(s) on ({}, {})",
        if granted { "granted" } else { "denied" },
        uni.user_name(user),
        roles.len(),
        uni.action_name(perm.action),
        uni.object_name(perm.object)
    );
    Ok(exit(granted))
}

/// `reach <policy.rbac> <user> <action> <object> [--steps N]
/// [--max-states N] [--jobs N] [--no-escalate] [--no-slice]`
///
/// Bounded safety analysis of the serving monitor's *live* policy,
/// under its own auth mode. `UNKNOWN` is the nonzero exit (the local
/// entry point, which only reports, drops it).
pub(crate) fn reach(
    svc: &dyn PolicyService,
    uni: &Universe,
    (user, perm): (UserId, Perm),
    config: SafetyConfig,
) -> Run {
    let answer = svc.analyze_reach(Entity::User(user), perm, config)?;
    match answer {
        ReachabilityAnswer::Reachable { witness } => {
            print_witness(uni, user, perm, witness.commands())
        }
        ReachabilityAnswer::Unreachable => println!(
            "UNREACHABLE: the whole reachable space was explored (within {} step(s))",
            config.max_steps
        ),
        ReachabilityAnswer::Unknown { truncation } => {
            println!("UNKNOWN: a bound cut the search off before the space was exhausted");
            println!(
                "  explored {} state(s) to depth {}",
                truncation.states, truncation.depth
            );
            if truncation.cap_hit {
                println!("  the state cap dropped successors: retry with a larger --max-states");
            } else {
                println!("  only the step bound cut the search off: retry with a larger --steps");
            }
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `lint <policy.rbac | store-dir> [--json] [--deny note|warning|error]
/// [--sod r1,r2[,…]]` — the search-free static analyzer over the
/// serving monitor's live policy. Prints the typed findings (stable
/// JSON with `--json`) and exits nonzero when anything at or above the
/// deny floor fires. The floor and the SoD pairs default to the serving
/// side's declared constraint set (else `error` and none), so pairs
/// need no re-declaring per invocation; `--deny`/`--sod` override.
/// `origin` marks the header of a served report.
pub(crate) fn lint(
    svc: &dyn PolicyService,
    uni: &Universe,
    path: &str,
    origin: &str,
    args: &Args,
) -> Run {
    let declared = svc.get_constraints()?;
    let deny = match args.value("--deny") {
        Some(v) => parse_severity(v)?,
        None => declared.deny_level.unwrap_or(Severity::Error),
    };
    let sod_pairs = match args.value("--sod") {
        Some(spec) => parse_sod_pairs(uni, spec)?,
        None => declared.sod_pairs,
    };
    let report = svc.lint(sod_pairs)?;
    if args.has("--json") {
        println!("{}", report.to_json(uni, path));
    } else {
        println!(
            "# {path}{origin}: {} rule site(s), {} edge(s) in the may-add closure",
            report.rules_checked, report.closure_edges
        );
        print_findings(&report.findings);
        println!(
            "# {} note(s), {} warning(s), {} error(s)",
            report.count_of(Severity::Note),
            report.count_of(Severity::Warning),
            report.count_of(Severity::Error)
        );
    }
    Ok(exit(report.count_at_or_above(deny) == 0))
}

/// `run` / `client … submit`: submits the queue as one atomic batch and
/// prints the per-command outcomes. A batch the admission gate refuses
/// executed nothing: its findings are printed and the exit is nonzero.
pub(crate) fn submit(svc: &dyn PolicyService, uni: &Universe, commands: Vec<Command>) -> Run {
    let outcomes = match svc.submit(commands.clone()) {
        Ok(outcomes) => outcomes,
        Err(ServiceError::Admission(report)) => {
            print_findings(&report.findings);
            println!("# {report}");
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => return Err(e.into()),
    };
    for (cmd, out) in commands.iter().zip(&outcomes) {
        let verdict = if out.executed() {
            "executed"
        } else {
            "refused"
        };
        println!("{:60} {verdict}", print_command(uni, cmd));
    }
    let executed = outcomes.iter().filter(|o| o.executed()).count();
    println!(
        "# {executed} executed, {} refused",
        outcomes.len() - executed
    );
    Ok(ExitCode::SUCCESS)
}

/// `analyze` — the admission dry run: the serving monitor simulates the
/// batch against its live snapshot and declared constraint set, and the
/// blast radius is printed. Nothing is published. A batch the gate
/// would refuse exits nonzero.
pub(crate) fn analyze(svc: &dyn PolicyService, uni: &Universe, commands: Vec<Command>) -> Run {
    let report = svc.analyze_batch(commands)?;
    print_impact(uni, &report);
    Ok(exit(report.findings.is_empty()))
}

/// `constraint add|list` — reads or extends the serving monitor's
/// durable admission constraint set. `add` fetches the current set,
/// merges `--sod` pairs, a `--deny` level and `--freeze` edge
/// assertions into it, and sends the result, so repeated adds
/// accumulate; both print the set now enforced.
pub(crate) fn constraint(svc: &dyn PolicyService, uni: &Universe, verb: &str, args: &Args) -> Run {
    let mut constraints = svc.get_constraints()?;
    match verb {
        "list" => {}
        "add" => {
            let (sod, deny, freeze) = (
                args.value("--sod"),
                args.value("--deny"),
                args.value("--freeze"),
            );
            if sod.or(deny).or(freeze).is_none() {
                return Err("constraint add needs at least one of --sod, --deny, --freeze".into());
            }
            if let Some(spec) = sod {
                constraints.sod_pairs.extend(parse_sod_pairs(uni, spec)?);
            }
            if let Some(v) = deny {
                constraints.deny_level = Some(parse_severity(v)?);
            }
            if let Some(spec) = freeze {
                constraints
                    .frozen_edges
                    .extend(parse_freeze_edges(uni, spec)?);
            }
            constraints.normalize();
            constraints = svc.set_constraints(constraints)?;
        }
        other => return Err(format!("unknown constraint verb `{other}` (add|list)").into()),
    }
    print_constraints(uni, &constraints);
    Ok(ExitCode::SUCCESS)
}

/// `compact` — folds the serving monitor's command log into a fresh
/// snapshot, so the next open replays nothing.
pub(crate) fn compact(svc: &dyn PolicyService) -> Run {
    svc.compact()?;
    println!(
        "compacted: log folded into snapshot ({} edges), reopen replays 0 entries",
        svc.stats()?.edges
    );
    Ok(ExitCode::SUCCESS)
}

/// `client … stats` — the serving monitor's live counters.
pub(crate) fn stats(svc: &dyn PolicyService) -> Run {
    let s = svc.stats()?;
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
                ReplicationRole::Primary => "primary",
                ReplicationRole::Replica => "replica",
            },
            r.term,
            r.last_applied_epoch,
            r.lag
        ),
    }
    Ok(ExitCode::SUCCESS)
}

/// `client … version` — the published epoch and state checksum; equal
/// lines from two servers mean byte-identical policy states.
pub(crate) fn version(svc: &dyn PolicyService) -> Run {
    let info = svc.version_info()?;
    println!("epoch {} checksum {:#018x}", info.epoch, info.checksum);
    Ok(ExitCode::SUCCESS)
}

/// `client … promote` — fails a replica over to a writable primary.
pub(crate) fn promote(svc: &dyn PolicyService) -> Run {
    let (term, epoch) = svc.promote()?;
    println!("promoted: primary under term {term} at epoch {epoch}");
    Ok(ExitCode::SUCCESS)
}
