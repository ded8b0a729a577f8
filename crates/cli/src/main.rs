//! `adminref` — command-line front end for the administrative-policy
//! toolkit.
//!
//! ```text
//! adminref stats    <policy.rbac>
//! adminref validate <policy.rbac>
//! adminref print    <policy.rbac> [--paper]
//! adminref lint     <policy.rbac> [--json] [--deny note|warning|error]
//!                   [--sod r1,r2[,r3,r4…]] [--ordered]
//! adminref order    <policy.rbac> "<held priv>" "<requested priv>" [--strict]
//! adminref weaker   <policy.rbac> "<priv>" [--depth N]
//! adminref run      <policy.rbac> <queue.rbacq> [--ordered] [--store DIR]
//! adminref analyze  (<store-dir> | <policy.rbac>) --batch <queue.rbacq> [--ordered]
//! adminref constraint add  <store-dir> [--sod r1,r2[,…]]
//!                   [--deny note|warning|error] [--freeze a,b[,…]] [--ordered]
//! adminref constraint list <store-dir> [--ordered]
//! adminref compact  <store-dir> [--ordered]
//! adminref refines  <policy-a.rbac> <policy-b.rbac> [--witnesses N]
//! adminref reach    <policy.rbac> <user> <action> <object> [--ordered] [--steps N]
//!                   [--max-states N] [--jobs N] [--no-escalate] [--no-slice]
//! adminref verify   <policy.rbac> <user> <action> <object> [--ordered] [--steps N]
//!                   [--max-states N] [--no-slice]
//! adminref verify   <policy.rbac> --oracle <queue.rbacq> [--ordered]
//! adminref verify   --oracle-churn [--ordered]
//! adminref serve    <store-dir> (--listen HOST:PORT | --unix PATH)
//!                   [--init policy.rbac] [--ordered] [--stop-file PATH] [--workers N]
//!                   [--replicate]
//! adminref serve    (--follow HOST:PORT | --follow-unix PATH)
//!                   (--listen HOST:PORT | --unix PATH) [--stop-file PATH] [--workers N]
//! adminref client   (<host:port> | --unix PATH) <verb> ...
//!                   verbs: check | reach | lint | submit | analyze | constraint
//!                          | compact | stats | version | promote
//! ```
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
//! with remote twins of the local verbs — see [`remote`] for the
//! name-resolution model. `serve --replicate` makes the daemon a
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

mod remote;

use std::process::ExitCode;

use adminref_core::admission::{self, ConstraintSet, ImpactReport};
use adminref_core::analysis;
use adminref_core::display::{edge_to_string, priv_to_string, Notation};
use adminref_core::enumerate::{enumerate_weaker, remark2_depth, EnumerationConfig};
use adminref_core::ids::Entity;
use adminref_core::lint::{lint_policy, slice_alphabet, LintConfig, Severity};
use adminref_core::ordering::{OrderingMode, PrivilegeOrder};
use adminref_core::refinement::refinement_violations;
use adminref_core::safety::{perm_reachable, prepare_alphabet, ReachabilityAnswer, SafetyConfig};
use adminref_core::transition::AuthMode;
use adminref_core::verify::bmc::{BmcOutcome, Inconclusive};
use adminref_core::verify::{specs::InvariantSuite, verify_perm_reachable};
use adminref_lang::{load_policy, load_queue, parse_priv_expr, print_command, print_policy};
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_store::PolicyStore;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
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

/// Dispatches to a subcommand. `Ok(code)` is a completed run (possibly
/// a scriptable nonzero exit, e.g. `refines` on a failed refinement);
/// `Err` is a usage error and prints the help text.
fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&String> = it.collect();
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "stats" => done(cmd_stats(&rest)),
        "validate" => done(cmd_validate(&rest)),
        "print" => done(cmd_print(&rest)),
        "lint" => cmd_lint(&rest),
        "order" => cmd_order(&rest),
        "weaker" => done(cmd_weaker(&rest)),
        "run" => done(cmd_run(&rest)),
        "analyze" => cmd_analyze(&rest),
        "constraint" => cmd_constraint(&rest),
        "compact" => done(cmd_compact(&rest)),
        "refines" => cmd_refines(&rest),
        "reach" => done(cmd_reach(&rest)),
        "verify" => cmd_verify(&rest),
        "serve" => remote::cmd_serve(&rest),
        "client" => remote::cmd_client(&rest),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn read_policy(
    path: &str,
) -> Result<
    (
        adminref_core::universe::Universe,
        adminref_core::policy::Policy,
    ),
    String,
> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    load_policy(&text).map_err(|e| format!("{path}: {e}"))
}

fn flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| a.as_str() == name)
}

fn flag_value(rest: &[&String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.to_string())
}

/// Flags that consume the following argument; their values must not be
/// mistaken for positionals when a caller interleaves them.
const VALUE_FLAGS: &[&str] = &[
    "--listen",
    "--unix",
    "--init",
    "--stop-file",
    "--workers",
    "--sod",
    "--deny",
    "--batch",
    "--freeze",
    "--steps",
    "--max-states",
    "--jobs",
    "--roles",
    "--witnesses",
    "--follow",
    "--follow-unix",
    "--depth",
    "--store",
    "--oracle",
];

/// Positional arguments with the values of [`VALUE_FLAGS`] stripped, so
/// `lint --deny warning policy.rbac` parses the same as
/// `lint policy.rbac --deny warning`.
fn positionals<'a>(rest: &'a [&String]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip = false;
    for arg in rest {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&arg.as_str()) {
            skip = true;
            continue;
        }
        if !arg.starts_with("--") {
            out.push(arg.as_str());
        }
    }
    out
}

fn positional<'a>(pos: &[&'a str], n: usize, what: &str) -> Result<&'a str, String> {
    pos.get(n).copied().ok_or_else(|| format!("missing {what}"))
}

fn cmd_stats(rest: &[&String]) -> Result<(), String> {
    let pos = positionals(rest);
    let (uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
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
    Ok(())
}

fn cmd_validate(rest: &[&String]) -> Result<(), String> {
    let pos = positionals(rest);
    let (uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
    analysis::validate(&uni, &policy).map_err(|e| e.to_string())?;
    println!("ok: policy is well-formed");
    if policy.is_non_administrative(&uni) {
        println!("note: the policy is non-administrative (Definition 1)");
    }
    Ok(())
}

fn cmd_print(rest: &[&String]) -> Result<(), String> {
    let pos = positionals(rest);
    let (uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
    if flag(rest, "--paper") {
        print!(
            "{}",
            adminref_core::display::policy_to_string(&uni, &policy, Notation::Paper)
        );
    } else {
        print!("{}", print_policy(&uni, &policy, "policy"));
    }
    Ok(())
}

/// `adminref lint` — the search-free static analyzer. Prints the typed
/// findings (stable JSON with `--json`) and exits nonzero when anything
/// at or above the `--deny` floor (default `error`) fires, so CI lanes
/// can gate on policy hygiene without running a search. A store
/// directory lints the durable state, reading the declared SoD pairs
/// (and deny-level) from the store's constraint set, so pairs don't
/// need re-declaring on every invocation; `--sod`/`--deny` override.
fn cmd_lint(rest: &[&String]) -> Result<ExitCode, String> {
    let pos = positionals(rest);
    let path = positional(&pos, 0, "policy file")?;
    let mode = if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    };
    let (uni, policy, stored) = if std::path::Path::new(path).is_dir() {
        let (store, _) =
            PolicyStore::open(std::path::Path::new(path), mode).map_err(|e| e.to_string())?;
        (
            store.universe().clone(),
            store.policy().clone(),
            store.constraints().clone(),
        )
    } else {
        let (uni, policy) = read_policy(path)?;
        (uni, policy, ConstraintSet::default())
    };
    let deny = match flag_value(rest, "--deny") {
        Some(v) => Severity::parse(&v)
            .ok_or_else(|| format!("--deny: unknown severity `{v}` (note|warning|error)"))?,
        None => stored.deny_level.unwrap_or(Severity::Error),
    };
    let sod_pairs = match flag_value(rest, "--sod") {
        Some(spec) => parse_sod_pairs(&uni, &spec)?,
        None => stored.sod_pairs,
    };
    let report = lint_policy(
        &uni,
        &policy,
        &LintConfig {
            auth_mode: mode,
            sod_pairs,
        },
    );
    if flag(rest, "--json") {
        println!("{}", report.to_json(&uni, path));
    } else {
        println!(
            "# {path}: {} rule site(s), {} edge(s) in the may-add closure",
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
    // Scriptable: findings at or above the floor are the exit code;
    // a noisy-but-tolerated policy is still a completed run.
    Ok(if report.count_at_or_above(deny) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Parses `--sod r1,r2[,r3,r4…]` into role pairs against the policy's
/// universe. Every named role must exist; the list length must be even.
fn parse_sod_pairs(
    uni: &adminref_core::universe::Universe,
    spec: &str,
) -> Result<Vec<(adminref_core::ids::RoleId, adminref_core::ids::RoleId)>, String> {
    let roles = spec
        .split(',')
        .map(|name| {
            let name = name.trim();
            uni.find_role(name)
                .ok_or_else(|| format!("--sod: unknown role `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if roles.is_empty() || roles.len() % 2 != 0 {
        return Err("--sod needs a comma-separated list of role pairs (an even count)".into());
    }
    Ok(roles.chunks(2).map(|c| (c[0], c[1])).collect())
}

fn cmd_order(rest: &[&String]) -> Result<ExitCode, String> {
    let pos = positionals(rest);
    let (mut uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
    let held_expr =
        parse_priv_expr(positional(&pos, 1, "held privilege")?).map_err(|e| e.to_string())?;
    let req_expr =
        parse_priv_expr(positional(&pos, 2, "requested privilege")?).map_err(|e| e.to_string())?;
    let pos = adminref_lang::token::Pos::start();
    let held = adminref_lang::resolve_priv(&mut uni, &held_expr, pos).map_err(|e| e.to_string())?;
    let req = adminref_lang::resolve_priv(&mut uni, &req_expr, pos).map_err(|e| e.to_string())?;
    let mode = if flag(rest, "--strict") {
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
    // Scriptable: the answer is the exit code; `false` is a completed
    // run, not a usage error.
    Ok(if weaker {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_weaker(rest: &[&String]) -> Result<(), String> {
    let pos = positionals(rest);
    let (mut uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
    let expr = parse_priv_expr(positional(&pos, 1, "privilege")?).map_err(|e| e.to_string())?;
    let pos = adminref_lang::token::Pos::start();
    let p = adminref_lang::resolve_priv(&mut uni, &expr, pos).map_err(|e| e.to_string())?;
    let depth = match flag_value(rest, "--depth") {
        Some(v) => v.parse::<u32>().map_err(|e| e.to_string())?,
        None => remark2_depth(&uni, &policy),
    };
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
    Ok(())
}

fn cmd_run(rest: &[&String]) -> Result<(), String> {
    let pos = positionals(rest);
    let (mut uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
    let queue_text = std::fs::read_to_string(positional(&pos, 1, "queue file")?)
        .map_err(|e| format!("reading queue: {e}"))?;
    let queue = load_queue(&queue_text, &mut uni).map_err(|e| e.to_string())?;
    let mode = if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    };
    if let Some(dir) = flag_value(rest, "--store") {
        let mut store = PolicyStore::create(std::path::Path::new(&dir), uni, policy, mode)
            .map_err(|e| e.to_string())?;
        for cmd in queue.iter() {
            let out = store.execute(cmd).map_err(|e| e.to_string())?;
            println!(
                "{:60} {}",
                print_command(store.universe(), cmd),
                if out.executed() {
                    "executed"
                } else {
                    "refused"
                }
            );
        }
        store.sync().map_err(|e| e.to_string())?;
        println!("# durable state in {dir}");
    } else {
        let mut live = policy;
        let trace = adminref_core::transition::run(&mut uni, &mut live, &queue, mode);
        for s in &trace.steps {
            println!(
                "{:60} {}",
                print_command(&uni, &s.command),
                if s.outcome.executed() {
                    "executed"
                } else {
                    "refused"
                }
            );
        }
        println!(
            "# {} executed, {} refused",
            trace.executed_count(),
            trace.refused_count()
        );
        print!("{}", print_policy(&uni, &live, "result"));
    }
    Ok(())
}

/// `adminref analyze (<store-dir> | <policy.rbac>) --batch <queue.rbacq>`
/// — the admission dry run: simulates the batch, prints its blast
/// radius, and evaluates the declared constraints without mutating
/// anything. A directory argument is a durable store (whose declared
/// constraint set gates the run); a file is a bare policy with an
/// empty set — add pairs with `--sod` to gate either. Scriptable: a
/// batch the gate would refuse exits nonzero.
fn cmd_analyze(rest: &[&String]) -> Result<ExitCode, String> {
    let pos = positionals(rest);
    let path = positional(&pos, 0, "policy file or store directory")?;
    let batch_path = flag_value(rest, "--batch").ok_or("analyze needs --batch <queue.rbacq>")?;
    let mode = if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    };
    let (mut uni, policy, mut constraints) = if std::path::Path::new(path).is_dir() {
        let (store, _) =
            PolicyStore::open(std::path::Path::new(path), mode).map_err(|e| e.to_string())?;
        (
            store.universe().clone(),
            store.policy().clone(),
            store.constraints().clone(),
        )
    } else {
        let (uni, policy) = read_policy(path)?;
        (uni, policy, ConstraintSet::default())
    };
    if let Some(spec) = flag_value(rest, "--sod") {
        constraints.sod_pairs.extend(parse_sod_pairs(&uni, &spec)?);
        constraints.normalize();
    }
    let queue_text =
        std::fs::read_to_string(&batch_path).map_err(|e| format!("reading {batch_path}: {e}"))?;
    let queue = load_queue(&queue_text, &mut uni).map_err(|e| e.to_string())?;
    let report = admission::analyze_batch(&uni, &policy, queue.commands(), &constraints, mode);
    print_impact(&uni, &report);
    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Renders an [`ImpactReport`] in triage order: simulation verdicts,
/// grow-only transition, published deltas, permission flips, interval
/// status changes, severed sessions, then any admission findings.
pub(crate) fn print_impact(uni: &adminref_core::universe::Universe, report: &ImpactReport) {
    let executed = report.outcomes.iter().filter(|o| o.executed()).count();
    println!(
        "# simulated: {} executed, {} refused",
        executed,
        report.outcomes.len() - executed
    );
    if report.grow_only_before != report.grow_only_after {
        println!(
            "grow-only: {} -> {}",
            report.grow_only_before, report.grow_only_after
        );
    }
    for d in &report.deltas {
        println!(
            "delta: {} {}",
            if d.added { "+" } else { "-" },
            edge_to_string(uni, d.edge, Notation::Ascii)
        );
    }
    for f in &report.flipped {
        println!(
            "flip: {} {} {}",
            uni.user_name(f.user),
            if f.now_granted { "gains" } else { "loses" },
            priv_to_string(uni, f.term, Notation::Ascii)
        );
    }
    for c in &report.status_changes {
        println!(
            "status: {} {} -> {}",
            edge_to_string(uni, c.edge, Notation::Ascii),
            c.before.name(),
            c.after.name()
        );
    }
    for s in &report.severed_sessions {
        println!("severed session: {s}");
    }
    for f in &report.findings {
        println!("{}[{}]: {}", f.severity.name(), f.kind.name(), f.message);
    }
    println!(
        "# admission: {}",
        if report.findings.is_empty() {
            "clean".to_string()
        } else {
            format!("REFUSED ({} finding(s))", report.findings.len())
        }
    );
}

/// `adminref constraint add|list <store-dir>` — manages the store's
/// durable admission constraint set. `add` merges `--sod` pairs,
/// a `--deny` level, and `--freeze` edge assertions into the declared
/// set (normalized, WAL-persisted); `list` prints the live set.
fn cmd_constraint(rest: &[&String]) -> Result<ExitCode, String> {
    let pos = positionals(rest);
    let verb = positional(&pos, 0, "constraint verb (add|list)")?;
    let dir = positional(&pos, 1, "store directory")?;
    let mode = if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    };
    let (mut store, _) =
        PolicyStore::open(std::path::Path::new(dir), mode).map_err(|e| e.to_string())?;
    match verb {
        "list" => {
            print_constraints(store.universe(), store.constraints());
            Ok(ExitCode::SUCCESS)
        }
        "add" => {
            let mut constraints = store.constraints().clone();
            merge_constraint_flags(rest, store.universe(), &mut constraints)?;
            constraints.normalize();
            store
                .set_constraints(constraints)
                .map_err(|e| e.to_string())?;
            print_constraints(store.universe(), store.constraints());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown constraint verb `{other}` (add|list)")),
    }
}

/// Applies `--sod`, `--deny`, and `--freeze` to a constraint set; the
/// shared surface of local `constraint add` and its remote twin.
pub(crate) fn merge_constraint_flags(
    rest: &[&String],
    uni: &adminref_core::universe::Universe,
    constraints: &mut ConstraintSet,
) -> Result<(), String> {
    let mut touched = false;
    if let Some(spec) = flag_value(rest, "--sod") {
        constraints.sod_pairs.extend(parse_sod_pairs(uni, &spec)?);
        touched = true;
    }
    if let Some(v) = flag_value(rest, "--deny") {
        constraints.deny_level = Some(
            Severity::parse(&v)
                .ok_or_else(|| format!("--deny: unknown severity `{v}` (note|warning|error)"))?,
        );
        touched = true;
    }
    if let Some(spec) = flag_value(rest, "--freeze") {
        constraints
            .frozen_edges
            .extend(parse_freeze_edges(uni, &spec)?);
        touched = true;
    }
    if !touched {
        return Err("constraint add needs at least one of --sod, --deny, --freeze".into());
    }
    Ok(())
}

/// Parses `--freeze a,b[,c,d…]` into assignment/hierarchy edges: each
/// pair's first name is a user (user→role edge) or a role (role→role
/// edge), the second is always a role.
pub(crate) fn parse_freeze_edges(
    uni: &adminref_core::universe::Universe,
    spec: &str,
) -> Result<Vec<adminref_core::universe::Edge>, String> {
    use adminref_core::universe::Edge;
    let names: Vec<&str> = spec.split(',').map(str::trim).collect();
    if names.is_empty() || names.len() % 2 != 0 {
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
                Err(format!("--freeze: unknown user or role `{}`", pair[0]))
            }
        })
        .collect()
}

/// Prints a constraint set with resolved names, one declaration per
/// line, in the canonical (normalized) order.
pub(crate) fn print_constraints(
    uni: &adminref_core::universe::Universe,
    constraints: &ConstraintSet,
) {
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

/// Folds a durable store's command log into a fresh snapshot, so the
/// next open replays nothing. Prints the recovery report of the open
/// (replayed entries, torn tail, divergence) and the result.
fn cmd_compact(rest: &[&String]) -> Result<(), String> {
    let pos = positionals(rest);
    let dir = positional(&pos, 0, "store directory")?;
    let mode = if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    };
    let (mut store, report) =
        PolicyStore::open(std::path::Path::new(dir), mode).map_err(|e| e.to_string())?;
    println!(
        "opened {dir}: replayed {} entr{}{}{}",
        report.replayed,
        if report.replayed == 1 { "y" } else { "ies" },
        if report.truncated_tail {
            ", truncated a torn tail"
        } else {
            ""
        },
        if report.divergent > 0 {
            ", DIVERGENT replay"
        } else {
            ""
        },
    );
    if report.divergent > 0 {
        return Err(format!(
            "{} divergent entr{}: the log and snapshot are from different histories; \
             refusing to compact (rerun with the auth mode the log was written under)",
            report.divergent,
            if report.divergent == 1 { "y" } else { "ies" }
        ));
    }
    store.compact().map_err(|e| e.to_string())?;
    println!(
        "compacted: log folded into snapshot ({} edges), reopen replays 0 entries",
        store.policy().edge_count()
    );
    Ok(())
}

/// Scriptable refinement check: prints `violations: N` plus the first
/// `(entity, perm)` witnesses (`--witnesses N`, default 10) and exits
/// nonzero — without usage noise — when refinement fails.
fn cmd_refines(rest: &[&String]) -> Result<ExitCode, String> {
    let pos = positionals(rest);
    // Both policies must resolve in one shared universe for comparison.
    let text_a = std::fs::read_to_string(positional(&pos, 0, "first policy file")?)
        .map_err(|e| e.to_string())?;
    let text_b = std::fs::read_to_string(positional(&pos, 1, "second policy file")?)
        .map_err(|e| e.to_string())?;
    let doc_a = adminref_lang::parse_policy(&text_a).map_err(|e| e.to_string())?;
    let doc_b = adminref_lang::parse_policy(&text_b).map_err(|e| e.to_string())?;
    let mut uni = adminref_core::universe::Universe::new();
    let a = adminref_lang::resolve_policy_into(&doc_a, &mut uni).map_err(|e| e.to_string())?;
    let b = adminref_lang::resolve_policy_into(&doc_b, &mut uni).map_err(|e| e.to_string())?;
    let max_witnesses = match flag_value(rest, "--witnesses") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| format!("--witnesses: {e}"))?,
        None => 10,
    };
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
    Ok(if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints the alphabet before/after line when cone-of-influence slicing
/// is on and actually removed commands. The search recomputes the slice
/// itself — this costs one extra closure pass, paid only on the CLI.
fn report_slice(
    uni: &mut adminref_core::universe::Universe,
    policy: &adminref_core::policy::Policy,
    user: adminref_core::ids::UserId,
    perm: adminref_core::ids::Perm,
    config: SafetyConfig,
) {
    if !config.slice {
        return;
    }
    let target = uni.priv_perm(perm);
    let alphabet = prepare_alphabet(uni, policy, config);
    let outcome = slice_alphabet(
        uni,
        policy,
        &alphabet,
        Entity::User(user),
        target,
        config.auth_mode,
    );
    if outcome.shrunk() {
        println!(
            "slice: alphabet {} -> {} command(s) in the goal's cone of influence",
            outcome.before, outcome.after
        );
    }
}

fn cmd_reach(rest: &[&String]) -> Result<(), String> {
    let pos = positionals(rest);
    let (mut uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
    let user = uni
        .find_user(positional(&pos, 1, "user")?)
        .ok_or("unknown user")?;
    let action = positional(&pos, 2, "action")?.to_string();
    let object = positional(&pos, 3, "object")?.to_string();
    let perm = uni.perm(&action, &object);
    let steps = match flag_value(rest, "--steps") {
        Some(v) => v.parse::<usize>().map_err(|e| e.to_string())?,
        None => 3,
    };
    let max_states = match flag_value(rest, "--max-states") {
        Some(v) => v.parse::<usize>().map_err(|e| e.to_string())?,
        None => SafetyConfig::default().max_states,
    };
    let jobs = match flag_value(rest, "--jobs") {
        Some(v) => v.parse::<usize>().map_err(|e| e.to_string())?,
        None => SafetyConfig::default().jobs,
    };
    let mode = if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    };
    let config = SafetyConfig {
        max_steps: steps,
        max_states,
        auth_mode: mode,
        jobs,
        escalate: !flag(rest, "--no-escalate"),
        slice: !flag(rest, "--no-slice"),
        ..SafetyConfig::default()
    };
    report_slice(&mut uni, &policy, user, perm, config);
    let answer = perm_reachable(&mut uni, &policy, Entity::User(user), perm, config);
    match answer {
        ReachabilityAnswer::Reachable { witness } => {
            println!(
                "REACHABLE in {} step(s): {} can come to hold ({action}, {object})",
                witness.len(),
                uni.user_name(user)
            );
            for cmd in witness.iter() {
                println!("  {}", print_command(&uni, cmd));
            }
            Ok(())
        }
        ReachabilityAnswer::Unreachable => {
            println!(
                "UNREACHABLE: the whole reachable space was explored (within {steps} step(s))"
            );
            Ok(())
        }
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
            Ok(())
        }
    }
}

/// `adminref verify` — the unbounded front door. Reachability mode
/// picks the best engine per instance (saturation / BFS / DPLL-BMC) and
/// reports which one decided; oracle mode replays a queue through a
/// reference monitor and checks the audit trace against the declarative
/// invariant suite. Scriptable exits: `UNKNOWN` and oracle violations
/// are completed runs with a nonzero code, not usage errors.
fn cmd_verify(rest: &[&String]) -> Result<ExitCode, String> {
    let pos = positionals(rest);
    let mode = if flag(rest, "--ordered") {
        AuthMode::Ordered(OrderingMode::Extended)
    } else {
        AuthMode::Explicit
    };
    if let Some(queue_path) = flag_value(rest, "--oracle") {
        let (mut uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
        let queue_text = std::fs::read_to_string(&queue_path)
            .map_err(|e| format!("reading {queue_path}: {e}"))?;
        let queue = load_queue(&queue_text, &mut uni).map_err(|e| e.to_string())?;
        let monitor = ReferenceMonitor::new(
            uni.clone(),
            policy.clone(),
            MonitorConfig {
                auth_mode: mode,
                audit_capacity: queue.len().max(1),
                ..MonitorConfig::default()
            },
        );
        monitor.submit_queue(&queue).map_err(|e| e.to_string())?;
        return oracle_verdict(&uni, &policy, &monitor, mode);
    }
    if flag(rest, "--oracle-churn") {
        let w = adminref_workloads::churn(adminref_workloads::ChurnSpec {
            roles: 64,
            readers: 8,
            batch_len: 16,
            batches: 4,
            ..adminref_workloads::ChurnSpec::default()
        });
        let monitor = ReferenceMonitor::new(
            w.universe.clone(),
            w.policy.clone(),
            MonitorConfig {
                auth_mode: mode,
                audit_capacity: w.batches.iter().map(Vec::len).sum::<usize>().max(1),
                ..MonitorConfig::default()
            },
        );
        for r in &w.readers {
            let sid = monitor.create_session(r.user);
            monitor
                .activate_role(sid, r.role)
                .map_err(|e| e.to_string())?;
        }
        for batch in &w.batches {
            monitor.submit_batch(batch).map_err(|e| e.to_string())?;
        }
        return oracle_verdict(&w.universe, &w.policy, &monitor, mode);
    }
    let (mut uni, policy) = read_policy(positional(&pos, 0, "policy file")?)?;
    let user = uni
        .find_user(positional(&pos, 1, "user")?)
        .ok_or("unknown user")?;
    let action = positional(&pos, 2, "action")?.to_string();
    let object = positional(&pos, 3, "object")?.to_string();
    let perm = uni.perm(&action, &object);
    let config = SafetyConfig {
        max_steps: match flag_value(rest, "--steps") {
            Some(v) => v.parse::<usize>().map_err(|e| e.to_string())?,
            None => SafetyConfig::default().max_steps,
        },
        max_states: match flag_value(rest, "--max-states") {
            Some(v) => v.parse::<usize>().map_err(|e| e.to_string())?,
            None => SafetyConfig::default().max_states,
        },
        auth_mode: mode,
        slice: !flag(rest, "--no-slice"),
        ..SafetyConfig::default()
    };
    report_slice(&mut uni, &policy, user, perm, config);
    let report = verify_perm_reachable(&mut uni, &policy, Entity::User(user), perm, config);
    println!(
        "engine: {}{}",
        report.engine.name(),
        if report.monotone {
            " (instance is grow-only)"
        } else {
            ""
        }
    );
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
    match report.answer {
        ReachabilityAnswer::Reachable { witness } => {
            println!(
                "REACHABLE in {} step(s): {} can come to hold ({action}, {object})",
                witness.len(),
                uni.user_name(user)
            );
            for cmd in witness.iter() {
                println!("  {}", print_command(&uni, cmd));
            }
            Ok(ExitCode::SUCCESS)
        }
        ReachabilityAnswer::Unreachable => {
            println!("UNREACHABLE: no reachable policy grants ({action}, {object})");
            Ok(ExitCode::SUCCESS)
        }
        ReachabilityAnswer::Unknown { truncation } => {
            println!(
                "UNKNOWN: {} state(s) to depth {}, no unbounded engine closed the instance",
                truncation.states, truncation.depth
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Replays a monitor's audit trace through the standard invariant suite
/// and prints the verdict; violations exit nonzero.
fn oracle_verdict(
    uni: &adminref_core::universe::Universe,
    root: &adminref_core::policy::Policy,
    monitor: &ReferenceMonitor,
    mode: AuthMode,
) -> Result<ExitCode, String> {
    let trace = monitor.audit_trace();
    let suite = InvariantSuite::standard(mode);
    let violations = suite.replay(uni, root, &trace, &monitor.session_views());
    if violations.is_empty() {
        println!(
            "oracle: {} step(s) replayed, {} invariant(s) hold",
            trace.len(),
            suite.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            println!("VIOLATION {} at step {}: {}", v.invariant, v.seq, v.message);
        }
        println!("oracle: {} violation(s)", violations.len());
        Ok(ExitCode::FAILURE)
    }
}
