//! `adminref` — command-line front end for the administrative-policy
//! toolkit.
//!
//! The verbs and their flags are listed once, in [`USAGE`] (`adminref`
//! with no arguments prints it).
//!
//! `refines` is scriptable: it prints the violation count and the first
//! witnesses, and exits nonzero (without usage noise) when refinement
//! fails. `lint` is the search-free static analyzer: it prints the
//! typed findings (or stable `--json` for CI diffing) and exits nonzero
//! when anything at or above the `--deny` floor (default `error`)
//! fires. `reach` and `verify` slice the command alphabet to the goal's
//! cone of influence by default — sound, often dramatically smaller —
//! and report the reduction; `--no-slice` searches the full alphabet. `verify` is the unbounded analysis front door: it dispatches
//! to the saturation engine on grow-only instances, to bounded BFS with
//! DPLL-based bounded model checking otherwise, and in `--oracle` mode
//! replays a command queue through a reference monitor and checks the
//! audit trace against the declarative invariant suite. `compact`
//! folds a durable store's command log into a fresh
//! snapshot (reporting what recovery replayed first), so reopening the
//! store replays nothing. `serve` runs the `adminrefd` network daemon
//! over a durable store (TCP or Unix socket, wire protocol in
//! `specs/wire_protocol.md`), and `client` drives a running daemon
//! with the same verbs — each is one function in [`verbs`], called on
//! an in-process monitor here and on a wire client there; see that
//! module for the name-resolution model. `serve --replicate` makes the daemon a
//! replication primary that streams each published epoch's deltas to
//! subscribers; `serve --follow` runs an in-memory read replica that
//! refuses writes until `client … promote` turns it into the new
//! primary under a bumped fencing term.
//!
//! `analyze` is the publish-time admission front door: it simulates a
//! batch against a store (or bare policy file) and prints its blast
//! radius — permission verdicts that flip, interval-status changes,
//! grow-only transitions, and any admission findings — without
//! mutating anything; it exits nonzero when the declared constraints
//! would refuse the batch. `constraint add`/`constraint list` manage
//! the store's durable constraint set (separation-of-duty pairs, a
//! lint deny-level, frozen-edge assertions) that the serving monitor
//! enforces on every publish.
//!
//! Policies use the `adminref-lang` syntax; privileges on the command
//! line use the same expression syntax, quoted.

#![forbid(unsafe_code)]

mod args;
mod remote;
mod verbs;

use std::path::Path;
use std::process::ExitCode;

use adminref_core::admission::ConstraintSet;
use adminref_core::analysis;
use adminref_core::display::{policy_to_string, priv_to_string, Notation};
use adminref_core::enumerate::{enumerate_weaker, remark2_depth, EnumerationConfig};
use adminref_core::ids::{Entity, Perm, PrivId, UserId};
use adminref_core::lint::slice_alphabet;
use adminref_core::ordering::{OrderingMode, PrivilegeOrder};
use adminref_core::policy::Policy;
use adminref_core::refinement::refinement_violations;
use adminref_core::safety::{prepare_alphabet, ReachabilityAnswer, SafetyConfig};
use adminref_core::transition::AuthMode;
use adminref_core::universe::Universe;
use adminref_core::verify::bmc::{BmcOutcome, Inconclusive};
use adminref_core::verify::{specs::InvariantSuite, verify_perm_reachable};
use adminref_lang::{parse_priv_expr, print_policy};
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_service::MonitorService;
use adminref_store::{PolicyStore, RecoveryReport};

use args::Args;
use verbs::{exit, read_policy, read_queue, resolve_goal, safety_config};

/// Why a verb did not run to completion: the message `main` prints
/// above the usage text. Anything printable converts, so `?` carries
/// service, store, parse and I/O errors here as they are.
pub(crate) struct Failure(String);

impl<E: std::fmt::Display> From<E> for Failure {
    fn from(error: E) -> Self {
        Failure(error.to_string())
    }
}

/// `Ok(code)` is a completed run (possibly a scriptable nonzero exit,
/// e.g. `refines` on a failed refinement); `Err` is a usage error.
pub(crate) type Run<T = ExitCode> = Result<T, Failure>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(Failure(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  adminref stats    <policy.rbac>
  adminref validate <policy.rbac>
  adminref print    <policy.rbac> [--paper]
  adminref lint     <policy.rbac> [--json] [--deny note|warning|error]
                    [--sod r1,r2[,r3,r4...]] [--ordered]
  adminref order    <policy.rbac> '<held priv>' '<requested priv>' [--strict]
  adminref weaker   <policy.rbac> '<priv>' [--depth N]
  adminref run      <policy.rbac> <queue.rbacq> [--ordered] [--store DIR]
  adminref analyze  (<store-dir> | <policy.rbac>) --batch <queue.rbacq> [--ordered]
  adminref constraint add  <store-dir> [--sod r1,r2[,...]]
                    [--deny note|warning|error] [--freeze a,b[,...]] [--ordered]
  adminref constraint list <store-dir> [--ordered]
  adminref compact  <store-dir> [--ordered]
  adminref refines  <policy-a.rbac> <policy-b.rbac> [--witnesses N]
  adminref reach    <policy.rbac> <user> <action> <object> [--ordered] [--steps N]
                    [--max-states N] [--jobs N] [--no-escalate] [--no-slice]
                    (--jobs 0 = all cores)
  adminref verify   <policy.rbac> <user> <action> <object> [--ordered] [--steps N]
                    [--max-states N] [--no-slice]
  adminref verify   <policy.rbac> --oracle <queue.rbacq> [--ordered]
  adminref verify   --oracle-churn [--ordered]
  adminref serve    <store-dir> (--listen HOST:PORT | --unix PATH)
                    [--init policy.rbac] [--ordered] [--stop-file PATH] [--workers N]
                    [--replicate]
  adminref serve    (--follow HOST:PORT | --follow-unix PATH)
                    (--listen HOST:PORT | --unix PATH) [--stop-file PATH] [--workers N]
  adminref client   (<host:port> | --unix PATH) <verb> ...
                    check  <policy.rbac> <user> <action> <object> --roles r1[,r2...]
                    reach  <policy.rbac> <user> <action> <object> [--steps N]
                           [--max-states N] [--jobs N] [--no-escalate] [--no-slice]
                    lint   <policy.rbac> [--json] [--deny note|warning|error] [--sod ...]
                    submit <policy.rbac> <queue.rbacq>
                    analyze <policy.rbac> <queue.rbacq>
                    constraint <policy.rbac> add [--sod ...] [--deny ...] [--freeze ...]
                    constraint <policy.rbac> list
                    compact | stats | version | promote";

type Verb = fn(&[&String]) -> Run;

/// Every subcommand `adminref` accepts.
const VERBS: &[(&str, Verb)] = &[
    ("stats", cmd_stats),
    ("validate", cmd_validate),
    ("print", cmd_print),
    ("lint", cmd_lint),
    ("order", cmd_order),
    ("weaker", cmd_weaker),
    ("run", cmd_run),
    ("analyze", cmd_analyze),
    ("constraint", cmd_constraint),
    ("compact", cmd_compact),
    ("refines", cmd_refines),
    ("reach", cmd_reach),
    ("verify", cmd_verify),
    ("serve", remote::cmd_serve),
    ("client", remote::cmd_client),
];

/// Dispatches to a subcommand.
fn dispatch(args: &[String]) -> Run {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let (_, run) = VERBS
        .iter()
        .find(|(name, _)| name == cmd)
        .ok_or_else(|| format!("unknown subcommand `{cmd}`"))?;
    run(&rest.iter().collect::<Vec<_>>())
}

// ----- the in-process callee of the twinned verbs ----------------------

const ORDERED: &str = "--ordered";

/// The CLI's in-process monitors never compact behind the operator's
/// back: what a verb leaves on disk is what it was asked to write.
fn local_config(auth_mode: AuthMode) -> MonitorConfig {
    MonitorConfig {
        auth_mode,
        autocompact_log_len: None,
        ..MonitorConfig::default()
    }
}

/// An in-memory monitor over the given state. Built *after* the command
/// line's names are resolved, so it serves every id they interned.
fn in_memory(
    uni: &Universe,
    policy: Policy,
    constraints: ConstraintSet,
    mode: AuthMode,
) -> Run<MonitorService> {
    let svc = MonitorService::in_memory(uni.clone(), policy, local_config(mode));
    svc.monitor().set_constraints(constraints)?;
    Ok(svc)
}

/// A monitor over the store itself, for the verbs that write to it.
fn over_store(store: PolicyStore, recovery: Option<RecoveryReport>) -> MonitorService {
    let config = local_config(store.auth_mode());
    MonitorService::new(ReferenceMonitor::with_store_recovered(
        store, recovery, config,
    ))
}

pub(crate) fn open_store(dir: &str, mode: AuthMode) -> Run<(PolicyStore, RecoveryReport)> {
    Ok(PolicyStore::open(Path::new(dir), mode).map_err(|e| format!("opening {dir}: {e}"))?)
}

/// The state a read-only verb analyzes: a policy file (no constraints
/// declared), or a store directory's recovered state.
fn load_state(path: &str, mode: AuthMode) -> Run<(Universe, Policy, ConstraintSet)> {
    if !Path::new(path).is_dir() {
        let (uni, policy) = read_policy(path)?;
        return Ok((uni, policy, ConstraintSet::default()));
    }
    let (store, _) = open_store(path, mode)?;
    Ok((
        store.universe().clone(),
        store.policy().clone(),
        store.constraints().clone(),
    ))
}

/// Prints what recovery found when `dir` was opened, and refuses to go
/// on (`doing`: "compact", "serve") over a divergent replay.
pub(crate) fn report_recovery(dir: &str, report: &RecoveryReport, doing: &str) -> Run<()> {
    let entries = |n: usize| if n == 1 { "y" } else { "ies" };
    let (n, torn, diverged) = (report.replayed, report.truncated_tail, report.divergent > 0);
    let mut line = format!("opened {dir}: replayed {n} entr{}", entries(n));
    line += if torn { ", truncated a torn tail" } else { "" };
    line += if diverged { ", DIVERGENT replay" } else { "" };
    println!("{line}");
    if diverged {
        return Err(format!(
            "{} divergent entr{}: the log and snapshot are from different histories; \
             refusing to {doing} (rerun with the auth mode the log was written under)",
            report.divergent,
            entries(report.divergent)
        )
        .into());
    }
    Ok(())
}

// ----- local entry points of the twinned verbs -------------------------

/// `adminref lint` — see [`verbs::lint`]. A store directory lints the
/// durable state under its declared constraint set.
fn cmd_lint(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 1, &[verbs::LINT_FLAGS, ORDERED])?;
    let path = args.pos(0, "policy file")?;
    let (uni, policy, constraints) = load_state(path, args.auth_mode())?;
    let svc = in_memory(&uni, policy, constraints, args.auth_mode())?;
    verbs::lint(&svc, &uni, path, "", &args)
}

/// `adminref run` — see [`verbs::submit`]. A bare run prints the
/// resulting policy; `--store DIR` leaves it as a durable store.
fn cmd_run(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 2, &[ORDERED, "--store="])?;
    let (mut uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    let commands = read_queue(args.pos(1, "queue file")?, &mut uni)?;
    let mode = args.auth_mode();
    if let Some(dir) = args.value("--store") {
        let store = PolicyStore::create(Path::new(dir), uni.clone(), policy, mode)
            .map_err(|e| format!("creating store in {dir}: {e}"))?;
        let code = verbs::submit(&over_store(store, None), &uni, commands)?;
        println!("# durable state in {dir}");
        return Ok(code);
    }
    let svc = in_memory(&uni, policy, ConstraintSet::default(), mode)?;
    let code = verbs::submit(&svc, &uni, commands)?;
    let (uni, result) = svc.monitor().snapshot();
    print!("{}", print_policy(&uni, &result, "result"));
    Ok(code)
}

/// `adminref analyze (<store-dir> | <policy.rbac>) --batch <queue.rbacq>`
/// — see [`verbs::analyze`]. A store's declared constraint set gates
/// the dry run; a bare policy file has an empty one — add pairs with
/// `--sod` to gate either.
fn cmd_analyze(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 1, &[ORDERED, "--batch= --sod="])?;
    let path = args.pos(0, "policy file or store directory")?;
    let batch = args
        .value("--batch")
        .ok_or("analyze needs --batch <queue.rbacq>")?;
    let (mut uni, policy, mut constraints) = load_state(path, args.auth_mode())?;
    if let Some(spec) = args.value("--sod") {
        constraints
            .sod_pairs
            .extend(verbs::parse_sod_pairs(&uni, spec)?);
    }
    let commands = read_queue(batch, &mut uni)?;
    let svc = in_memory(&uni, policy, constraints, args.auth_mode())?;
    verbs::analyze(&svc, &uni, commands)
}

/// `adminref constraint add|list <store-dir>` — see
/// [`verbs::constraint`], here over the store's WAL.
fn cmd_constraint(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 2, &[verbs::CONSTRAINT_FLAGS, ORDERED])?;
    let verb = args.pos(0, "constraint verb (add|list)")?;
    let dir = args.pos(1, "store directory")?;
    let (store, _) = open_store(dir, args.auth_mode())?;
    let uni = store.universe().clone();
    verbs::constraint(&over_store(store, None), &uni, verb, &args)
}

/// `adminref compact <store-dir>` — see [`verbs::compact`]; prints the
/// recovery report of the open (replayed entries, torn tail,
/// divergence) first.
fn cmd_compact(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 1, &[ORDERED])?;
    let dir = args.pos(0, "store directory")?;
    let (store, report) = open_store(dir, args.auth_mode())?;
    report_recovery(dir, &report, "compact")?;
    verbs::compact(&over_store(store, Some(report)))
}

/// `adminref reach` — see [`verbs::reach`]; reports the slice first,
/// and exits 0 whatever the answer (`verify` is the gating twin).
fn cmd_reach(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 4, &[verbs::REACH_FLAGS, ORDERED])?;
    let (mut uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    let goal = resolve_goal(&mut uni, &args)?;
    let config = safety_config(&args, 3)?;
    report_slice(&mut uni, &policy, goal, config);
    let svc = in_memory(&uni, policy, ConstraintSet::default(), config.auth_mode)?;
    verbs::reach(&svc, &uni, goal, config)?;
    Ok(ExitCode::SUCCESS)
}

// ----- the verbs that only exist locally -------------------------------

fn cmd_stats(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 1, &[])?;
    let (uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    let s = analysis::stats(&uni, &policy);
    println!("users            {}", s.users);
    println!("roles            {}", s.roles);
    println!("UA edges         {}", s.ua_edges);
    println!("RH edges         {}", s.rh_edges);
    println!("PA edges         {}", s.pa_edges);
    println!("priv vertices    {}", s.priv_vertices);
    println!("admin vertices   {}", s.admin_vertices);
    println!("max priv depth   {}", s.max_priv_depth);
    println!("longest RH chain {}", s.longest_chain);
    println!("hierarchy SCCs   {}", s.hierarchy_sccs);
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 1, &[])?;
    let (uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    analysis::validate(&uni, &policy)?;
    println!("ok: policy is well-formed");
    if policy.is_non_administrative(&uni) {
        println!("note: the policy is non-administrative (Definition 1)");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_print(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 1, &["--paper"])?;
    let (uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    if args.has("--paper") {
        print!("{}", policy_to_string(&uni, &policy, Notation::Paper));
    } else {
        print!("{}", print_policy(&uni, &policy, "policy"));
    }
    Ok(ExitCode::SUCCESS)
}

/// A quoted privilege expression from the command line, interned.
fn resolve_priv(uni: &mut Universe, text: &str) -> Run<PrivId> {
    let expr = parse_priv_expr(text)?;
    Ok(adminref_lang::resolve_priv(
        uni,
        &expr,
        adminref_lang::token::Pos::start(),
    )?)
}

fn cmd_order(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 3, &["--strict"])?;
    let (mut uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    let held = resolve_priv(&mut uni, args.pos(1, "held privilege")?)?;
    let req = resolve_priv(&mut uni, args.pos(2, "requested privilege")?)?;
    let mode = if args.has("--strict") {
        OrderingMode::Strict
    } else {
        OrderingMode::Extended
    };
    let order = PrivilegeOrder::new(&uni, &policy, mode);
    let weaker = order.is_weaker(held, req);
    println!(
        "{}  ⊑  {}  ({mode:?}): {}",
        priv_to_string(&uni, held, Notation::Paper),
        priv_to_string(&uni, req, Notation::Paper),
        weaker
    );
    if let Some(d) = order.derive(held, req) {
        println!("derivation: {}", d.render(&uni));
    }
    Ok(exit(weaker))
}

fn cmd_weaker(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 2, &["--depth="])?;
    let (mut uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    let p = resolve_priv(&mut uni, args.pos(1, "privilege")?)?;
    let depth = args.number("--depth", remark2_depth(&uni, &policy))?;
    let set = enumerate_weaker(
        &mut uni,
        &policy,
        p,
        EnumerationConfig {
            max_depth: depth,
            max_results: 10_000,
            mode: OrderingMode::Extended,
        },
    );
    println!(
        "# {} privileges weaker than {} (depth ≤ {depth}{})",
        set.privileges.len(),
        priv_to_string(&uni, p, Notation::Paper),
        if set.truncated { ", TRUNCATED" } else { "" }
    );
    for q in &set.privileges {
        println!("{}", priv_to_string(&uni, *q, Notation::Ascii));
    }
    Ok(ExitCode::SUCCESS)
}

/// Scriptable refinement check: prints `violations: N` plus the first
/// `(entity, perm)` witnesses (`--witnesses N`, default 10) and exits
/// nonzero — without usage noise — when refinement fails.
fn cmd_refines(rest: &[&String]) -> Run {
    let args = Args::parse(rest, 2, &["--witnesses="])?;
    // Both policies must resolve in one shared universe for comparison.
    let mut uni = Universe::new();
    let mut load = |n: usize, what: &str| -> Run<Policy> {
        let path = args.pos(n, what)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = adminref_lang::parse_policy(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(adminref_lang::resolve_policy_into(&doc, &mut uni)
            .map_err(|e| format!("{path}: {e}"))?)
    };
    let a = load(0, "first policy file")?;
    let b = load(1, "second policy file")?;
    let max_witnesses = args.number("--witnesses", 10)?;
    let violations = refinement_violations(&uni, &a, &b);
    let holds = violations.is_empty();
    println!("A ⊒ B (B is a non-administrative refinement of A): {holds}");
    println!("violations: {}", violations.len());
    for v in violations.iter().take(max_witnesses) {
        let who = match v.entity {
            Entity::User(u) => format!("user {}", uni.user_name(u)),
            Entity::Role(r) => format!("role {}", uni.role_name(r)),
        };
        println!(
            "  {who} gains ({}, {})",
            uni.action_name(v.perm.action),
            uni.object_name(v.perm.object)
        );
    }
    if violations.len() > max_witnesses {
        println!("  … and {} more", violations.len() - max_witnesses);
    }
    Ok(exit(holds))
}

/// Prints the alphabet before/after line when cone-of-influence slicing
/// is on and actually removed commands. The search recomputes the slice
/// itself — this costs one extra closure pass, paid only on the CLI.
fn report_slice(
    uni: &mut Universe,
    policy: &Policy,
    (user, perm): (UserId, Perm),
    config: SafetyConfig,
) {
    if !config.slice {
        return;
    }
    let target = uni.priv_perm(perm);
    let alphabet = prepare_alphabet(uni, policy, config);
    let entity = Entity::User(user);
    let outcome = slice_alphabet(uni, policy, &alphabet, entity, target, config.auth_mode);
    if outcome.shrunk() {
        println!(
            "slice: alphabet {} -> {} command(s) in the goal's cone of influence",
            outcome.before, outcome.after
        );
    }
}

/// `adminref verify` — the unbounded front door. Reachability mode
/// picks the best engine per instance (saturation / BFS / DPLL-BMC) and
/// reports which one decided; oracle mode replays a queue through a
/// reference monitor and checks the audit trace against the declarative
/// invariant suite. Scriptable exits: `UNKNOWN` and oracle violations
/// are completed runs with a nonzero code, not usage errors.
fn cmd_verify(rest: &[&String]) -> Run {
    let flags = "--oracle= --oracle-churn --steps= --max-states= --no-slice";
    let args = Args::parse(rest, 4, &[ORDERED, flags])?;
    let mode = args.auth_mode();
    let oracle = |uni: &Universe, root: &Policy, steps: usize| {
        let config = MonitorConfig {
            auth_mode: mode,
            audit_capacity: steps.max(1),
            ..MonitorConfig::default()
        };
        ReferenceMonitor::new(uni.clone(), root.clone(), config)
    };
    if let Some(queue_path) = args.value("--oracle") {
        let (mut uni, policy) = read_policy(args.pos(0, "policy file")?)?;
        let commands = read_queue(queue_path, &mut uni)?;
        let monitor = oracle(&uni, &policy, commands.len());
        monitor.submit_batch(&commands)?;
        return oracle_verdict(&uni, &policy, &monitor, mode);
    }
    if args.has("--oracle-churn") {
        let w = adminref_workloads::churn(adminref_workloads::ChurnSpec {
            roles: 64,
            readers: 8,
            batch_len: 16,
            batches: 4,
            ..adminref_workloads::ChurnSpec::default()
        });
        let steps = w.batches.iter().map(Vec::len).sum();
        let monitor = oracle(&w.universe, &w.policy, steps);
        for r in &w.readers {
            let sid = monitor.create_session(r.user);
            monitor.activate_role(sid, r.role)?;
        }
        for batch in &w.batches {
            monitor.submit_batch(batch)?;
        }
        return oracle_verdict(&w.universe, &w.policy, &monitor, mode);
    }
    let (mut uni, policy) = read_policy(args.pos(0, "policy file")?)?;
    let (user, perm) = resolve_goal(&mut uni, &args)?;
    let config = safety_config(&args, SafetyConfig::default().max_steps)?;
    report_slice(&mut uni, &policy, (user, perm), config);
    let report = verify_perm_reachable(&mut uni, &policy, Entity::User(user), perm, config);
    let grow_only = if report.monotone {
        " (instance is grow-only)"
    } else {
        ""
    };
    println!("engine: {}{grow_only}", report.engine.name());
    if let Some(bmc) = &report.bmc {
        println!(
            "bmc: bound {}, {} variable(s), {} clause(s)",
            bmc.bound, bmc.variables, bmc.clauses
        );
        if let BmcOutcome::Inconclusive(Inconclusive::GroundingTooLarge { estimated, budget }) =
            bmc.outcome
        {
            println!(
                "bmc: grounding bound {} needs ~{estimated} variable(s), over the {budget} budget",
                bmc.bound
            );
            if config.slice {
                println!("  the instance is too wide even sliced: reduce the policy or --steps");
            } else {
                println!("  drop --no-slice so the grounding only covers the goal's cone");
            }
        }
    }
    let (action, object) = (uni.action_name(perm.action), uni.object_name(perm.object));
    match report.answer {
        ReachabilityAnswer::Reachable { witness } => {
            verbs::print_witness(&uni, user, perm, witness.commands())
        }
        ReachabilityAnswer::Unreachable => {
            println!("UNREACHABLE: no reachable policy grants ({action}, {object})")
        }
        ReachabilityAnswer::Unknown { truncation } => {
            println!(
                "UNKNOWN: {} state(s) to depth {}, no unbounded engine closed the instance",
                truncation.states, truncation.depth
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Replays a monitor's audit trace through the standard invariant suite
/// and prints the verdict; violations exit nonzero.
fn oracle_verdict(
    uni: &Universe,
    root: &Policy,
    monitor: &ReferenceMonitor,
    mode: AuthMode,
) -> Run {
    let trace = monitor.audit_trace();
    let suite = InvariantSuite::standard(mode);
    let violations = suite.replay(uni, root, &trace, &monitor.session_views());
    for v in &violations {
        println!("VIOLATION {} at step {}: {}", v.invariant, v.seq, v.message);
    }
    if violations.is_empty() {
        println!(
            "oracle: {} step(s) replayed, {} invariant(s) hold",
            trace.len(),
            suite.len()
        );
    } else {
        println!("oracle: {} violation(s)", violations.len());
    }
    Ok(exit(violations.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every verb `dispatch` and `cmd_client` accept is in the one
    /// usage text.
    #[test]
    fn usage_names_every_verb() {
        for (verb, _) in VERBS {
            let line = format!("\n  adminref {verb} ");
            assert!(USAGE.contains(&line), "`{verb}` is missing from USAGE");
        }
        let client = USAGE.split("adminref client").nth(1).unwrap();
        for (verb, _) in remote::CLIENT_VERBS {
            let listed = client
                .split(|c: char| !c.is_alphanumeric())
                .any(|word| word == *verb);
            assert!(listed, "client verb `{verb}` is missing from USAGE");
        }
    }
}
