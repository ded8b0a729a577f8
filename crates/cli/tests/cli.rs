//! End-to-end tests of the `adminref` binary against the repository
//! fixtures.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adminref"))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn hospital() -> String {
    fixture("hospital.rbac").to_string_lossy().into_owned()
}

#[test]
fn stats_reports_shape() {
    let out = bin().args(["stats", &hospital()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("roles            8"), "{text}");
    assert!(text.contains("admin vertices   4"), "{text}");
    assert!(text.contains("longest RH chain 3"), "{text}");
}

#[test]
fn validate_accepts_fixture() {
    let out = bin().args(["validate", &hospital()]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("well-formed"));
}

#[test]
fn lint_is_clean_on_hospital_and_flags_the_demo() {
    // The paper's own policy is lint-clean even at the strictest floor.
    let out = bin()
        .args(["lint", &hospital(), "--deny", "note"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("0 note(s), 0 warning(s), 0 error(s)"),
        "{text}"
    );
    // The seeded-defect fixture trips every class; the SoD error makes
    // the default --deny error floor exit nonzero.
    let demo = fixture("lint_demo.rbac").to_string_lossy().into_owned();
    let out = bin()
        .args(["lint", &demo, "--sod", "pay,audit"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for kind in [
        "dead-command",
        "unauthorizable",
        "redundant-grant",
        "shadowed-grant",
        "sod-conflict",
    ] {
        assert!(text.contains(kind), "missing {kind}: {text}");
    }
    // Without the SoD pair the worst finding is a warning, so the
    // default error floor passes while --deny warning still trips.
    let out = bin().args(["lint", &demo]).output().unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["lint", &demo, "--deny", "warning"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // --json matches the pinned expectation byte for byte, modulo the
    // policy label (the CLI embeds the path it was given).
    let out = bin()
        .args(["lint", &demo, "--sod", "pay,audit", "--json"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    let expected = std::fs::read_to_string(fixture("lint_demo.expected.json")).unwrap();
    let relabeled = expected.replace("fixtures/lint_demo.rbac", &demo.replace('\\', "\\\\"));
    assert_eq!(text, relabeled);
}

#[test]
fn order_decides_flexworker_pair() {
    let out = bin()
        .args([
            "order",
            &hospital(),
            "grant(bob, staff)",
            "grant(bob, dbusr2)",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("true"), "{text}");
    assert!(text.contains("rule2"), "{text}");
    // The converse is not weaker: nonzero exit.
    let out = bin()
        .args([
            "order",
            &hospital(),
            "grant(bob, dbusr2)",
            "grant(bob, staff)",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn strict_flag_changes_semantics() {
    // Example-6-style vertex-target weakening needs Extended mode; build
    // an inline fixture.
    let dir = std::env::temp_dir().join(format!("adminref-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ex6.rbac");
    std::fs::write(
        &path,
        "policy ex6 { roles r1, r2; perm r2 -> grant(r1, r2); }",
    )
    .unwrap();
    let p = path.to_string_lossy().into_owned();
    let ext = bin()
        .args(["order", &p, "grant(r1, r2)", "grant(r1, grant(r1, r2))"])
        .output()
        .unwrap();
    assert!(ext.status.success(), "extended mode derives Example 6");
    let strict = bin()
        .args([
            "order",
            &p,
            "grant(r1, r2)",
            "grant(r1, grant(r1, r2))",
            "--strict",
        ])
        .output()
        .unwrap();
    assert!(!strict.status.success(), "strict mode does not");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_executes_queue() {
    let out = bin()
        .args([
            "run",
            &hospital(),
            &fixture("appointments.rbacq").to_string_lossy(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# 3 executed, 1 refused"), "{text}");
    assert!(text.contains("assign bob -> staff;"), "{text}");
}

#[test]
fn reach_finds_witness() {
    let out = bin()
        .args(["reach", &hospital(), "bob", "write", "t3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REACHABLE in 1 step(s)"), "{text}");
    assert!(text.contains("cmd(jane, grant, bob -> staff);"), "{text}");
}

#[test]
fn reach_parallel_jobs_and_bounds() {
    // The search is sequential: there is no worker-thread knob to set.
    let out = bin()
        .args(["reach", &hospital(), "bob", "write", "t3", "--jobs", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--jobs`"), "{err}");
    // A tiny state cap forces an inconclusive answer from the raw
    // bounded search, and the diagnostics name the binding knob.
    // --no-slice keeps the full alphabet: no command can ever grant
    // (launch, missiles), so slicing alone would refute the goal.
    let out = bin()
        .args([
            "reach",
            &hospital(),
            "bob",
            "launch",
            "missiles",
            "--max-states",
            "1",
            "--no-escalate",
            "--no-slice",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UNKNOWN"), "{text}");
    assert!(text.contains("--max-states"), "{text}");
    // With slicing (the default) the same starved bounds don't matter:
    // the goal's cone of influence is empty, the sliced alphabet is
    // empty, and the search refutes immediately.
    let out = bin()
        .args([
            "reach",
            &hospital(),
            "bob",
            "launch",
            "missiles",
            "--max-states",
            "1",
            "--no-escalate",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("slice: alphabet"), "{text}");
    assert!(text.contains("-> 0 command(s)"), "{text}");
    assert!(text.contains("UNREACHABLE"), "{text}");
    // Without --no-escalate the starved unsliced bounds escalate to
    // saturation, which refutes the goal although the hospital policy
    // grants revoke privileges.
    let out = bin()
        .args([
            "reach",
            &hospital(),
            "bob",
            "launch",
            "missiles",
            "--max-states",
            "1",
            "--no-slice",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UNREACHABLE"), "{text}");
}

#[test]
fn verify_reports_engine_and_witness() {
    let out = bin()
        .args(["verify", &hospital(), "bob", "write", "t3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("engine: saturation"), "{text}");
    assert!(text.contains("REACHABLE in 1 step(s)"), "{text}");
    assert!(text.contains("cmd(jane, grant, bob -> staff);"), "{text}");
    // Saturation refutes over the full alphabet too: the hospital
    // assigns revoke privileges, and revocations never help a goal.
    let out = bin()
        .args([
            "verify",
            &hospital(),
            "bob",
            "launch",
            "missiles",
            "--no-slice",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("engine: saturation"), "{text}");
    assert!(text.contains("UNREACHABLE"), "{text}");
    // Sliced, the same instance is refuted over an empty cone.
    let out = bin()
        .args(["verify", &hospital(), "bob", "launch", "missiles"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("slice: alphabet"), "{text}");
    assert!(text.contains("UNREACHABLE"), "{text}");
    // Ordered authorization with revoke rules: the bounded search
    // cannot exhaust this space at default bounds, saturation decides.
    for slice in [None, Some("--no-slice")] {
        let out = bin()
            .args(["verify", &hospital(), "jane", "read", "t1", "--ordered"])
            .args(slice)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{slice:?}: {text}");
        assert!(text.contains("UNREACHABLE"), "{slice:?}: {text}");
    }
    // No search runs, so the search bounds are not `verify`'s flags.
    for flag in ["--steps", "--max-states"] {
        let out = bin()
            .args(["verify", &hospital(), "bob", "write", "t3", flag, "1"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
}

#[test]
fn verify_oracle_checks_a_monitor_trace() {
    let out = bin()
        .args([
            "verify",
            &hospital(),
            "--oracle",
            &fixture("appointments.rbacq").to_string_lossy(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 step(s) replayed"), "{text}");
    assert!(text.contains("invariant(s) hold"), "{text}");
}

#[test]
fn verify_oracle_churn_holds_on_a_generated_workload() {
    let out = bin().args(["verify", "--oracle-churn"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("invariant(s) hold"), "{text}");
}

#[test]
fn weaker_lists_downset() {
    let out = bin()
        .args(["weaker", &hospital(), "grant(bob, staff)", "--depth", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("grant(bob, dbusr2)"), "{text}");
    assert!(text.contains("grant(bob, prntusr)"), "{text}");
}

#[test]
fn value_flags_parse_the_same_before_and_after_the_positionals() {
    let demo = fixture("lint_demo.rbac").to_string_lossy().into_owned();
    let h = hospital();
    let cases: [(&[&str], &[&str]); 3] = [
        (&["lint", &demo], &["--deny", "warning"]),
        (&["reach", &h, "bob", "write", "t3"], &["--steps", "2"]),
        (&["weaker", &h, "grant(bob, staff)"], &["--depth", "1"]),
    ];
    for (verb_and_positionals, flag) in cases {
        let (verb, positionals) = verb_and_positionals.split_first().unwrap();
        let run = |args: Vec<&str>| bin().arg(verb).args(args).output().unwrap();
        let last = run([positionals, flag].concat());
        let first = run([flag, positionals].concat());
        assert!(!last.stdout.is_empty(), "{verb}: no output");
        assert_eq!(
            String::from_utf8_lossy(&first.stdout),
            String::from_utf8_lossy(&last.stdout),
            "{verb}: flag-first output differs from flag-last"
        );
        assert_eq!(first.status.code(), last.status.code(), "{verb}");
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn refines_is_scriptable() {
    // A policy refines itself: exit 0, zero violations.
    let out = bin()
        .args(["refines", &hospital(), &hospital()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violations: 0"), "{text}");
    // A candidate that grants more: nonzero exit, a violation count and
    // witnesses on stdout, and NO usage spam on stderr (the answer is
    // the exit code, not a usage error).
    let dir = std::env::temp_dir().join(format!("adminref-refines-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wider = dir.join("wider.rbac");
    std::fs::write(
        &wider,
        "policy wider { users diana; roles nurse; assign diana -> nurse; \
         perm nurse -> (read, t1); perm nurse -> (read, t9); }",
    )
    .unwrap();
    let narrow = dir.join("narrow.rbac");
    std::fs::write(
        &narrow,
        "policy narrow { users diana; roles nurse; assign diana -> nurse; \
         perm nurse -> (read, t1); }",
    )
    .unwrap();
    let out = bin()
        .args([
            "refines",
            &narrow.to_string_lossy(),
            &wider.to_string_lossy(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violations: 2"), "{text}");
    assert!(text.contains("gains (read, t9)"), "{text}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "scriptable failure must not print usage"
    );
    // --witnesses caps the listing but not the count.
    let out = bin()
        .args([
            "refines",
            &narrow.to_string_lossy(),
            &wider.to_string_lossy(),
            "--witnesses",
            "1",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violations: 2"), "{text}");
    assert!(text.contains("… and 1 more"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_folds_a_store_created_by_run() {
    let dir = std::env::temp_dir().join(format!("adminref-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir = dir.join("store");
    // `run --store` creates a durable store and logs the queue.
    let out = bin()
        .args([
            "run",
            &hospital(),
            &fixture("appointments.rbacq").to_string_lossy(),
            "--store",
            &store_dir.to_string_lossy(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Compact reports what it replayed, then folds the log away…
    let out = bin()
        .args(["compact", &store_dir.to_string_lossy()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replayed 4 entries"), "{text}");
    assert!(text.contains("reopen replays 0 entries"), "{text}");
    // …so a second compact replays nothing.
    let out = bin()
        .args(["compact", &store_dir.to_string_lossy()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("replayed 0 entries"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // A missing store is a completed-run failure, not a usage error.
    let out = bin()
        .args(["compact", &dir.join("nope").to_string_lossy()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- serve / client: the daemon driven as an operator would ---------

/// A scratch directory, removed on drop, handing out argv-ready paths.
struct Scratch(adminref_store::TempDir);

impl Scratch {
    fn new(label: &str) -> Self {
        Scratch(adminref_store::TempDir::new(label).unwrap())
    }

    fn path(&self, name: &str) -> String {
        self.0.path().join(name).to_string_lossy().into_owned()
    }

    fn write(&self, name: &str, text: &str) -> String {
        std::fs::write(self.0.path().join(name), text).unwrap();
        self.path(name)
    }
}

/// Polls `done` every 50 ms for up to 10 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    for _ in 0..200 {
        if done() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}");
}

/// One `adminref serve … --unix SOCK --stop-file STOP` child process.
/// Killed on drop, so a failed assertion leaves no daemon behind.
struct Served {
    child: std::process::Child,
    sock: String,
    stop: String,
}

impl Served {
    /// Spawns `adminref serve <args> --unix … --stop-file …` with both
    /// paths under `scratch`, and waits for the socket to appear.
    fn start(scratch: &Scratch, name: &str, args: &[&str]) -> Self {
        let sock = scratch.path(&format!("{name}.sock"));
        let stop = scratch.path(&format!("{name}.stop"));
        let child = bin()
            .arg("serve")
            .args(args)
            .args(["--unix", &sock, "--stop-file", &stop])
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let served = Served { child, sock, stop };
        wait_until("the daemon's socket", || {
            std::path::Path::new(&served.sock).exists()
        });
        served
    }

    fn client(&self, args: &[&str]) -> std::process::Output {
        bin()
            .args(["client", "--unix", &self.sock])
            .args(args)
            .output()
            .unwrap()
    }

    /// `client <args>`, required to exit 0; returns its stdout.
    fn client_ok(&self, args: &[&str]) -> String {
        let out = self.client(args);
        assert!(
            out.status.success(),
            "client {args:?}: {}{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
        stdout(&out)
    }

    /// Touches the stop file and requires a clean exit that removed the
    /// socket file.
    fn stop(mut self) {
        std::fs::write(&self.stop, "").unwrap();
        let mut status = None;
        wait_until("the daemon to honour its stop-file", || {
            status = self.child.try_wait().unwrap();
            status.is_some()
        });
        assert!(status.unwrap().success(), "daemon exited with {status:?}");
        assert!(
            !std::path::Path::new(&self.sock).exists(),
            "socket file survived shutdown"
        );
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// An arena where a separation-of-duty conflict must be *created by the
/// batch*: admin can put alice (or bob) into pay and audit.
const SOD_ARENA: &str = "policy sodarena {
    users admin, alice, bob;
    roles admins, pay, audit;
    assign admin -> admins;
    perm admins -> grant(alice, pay);
    perm admins -> grant(alice, audit);
    perm admins -> grant(bob, pay);
    perm admins -> grant(bob, audit);
    perm admins -> revoke(alice, pay);
    perm admins -> revoke(alice, audit);
}";
const VIOLATING_QUEUE: &str = "queue {
    cmd(admin, grant, alice -> pay);
    cmd(admin, grant, alice -> audit);
}";
const CLEAN_QUEUE: &str = "queue { cmd(admin, grant, bob -> pay); }";

#[test]
fn daemon_serves_every_client_verb_and_cleans_up() {
    let scratch = Scratch::new("daemon");
    let h = hospital();
    let daemon = Served::start(&scratch, "d", &[&scratch.path("store"), "--init", &h]);
    assert!(daemon
        .client_ok(&["stats"])
        .contains("roles                8"));
    let text = daemon.client_ok(&["check", &h, "diana", "write", "t3", "--roles", "staff"]);
    assert!(text.contains("ACCESS granted"), "{text}");
    // Denied is a completed run with a nonzero exit, not a usage error.
    let out = daemon.client(&["check", &h, "diana", "write", "t3", "--roles", "nurse"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("ACCESS denied"), "{}", stdout(&out));
    let text = daemon.client_ok(&["reach", &h, "bob", "write", "t3"]);
    assert!(text.contains("REACHABLE in 1 step(s)"), "{text}");
    assert!(text.contains("cmd(jane, grant, bob -> staff);"), "{text}");
    let text = daemon.client_ok(&["lint", &h, "--deny", "note"]);
    assert!(
        text.contains("0 note(s), 0 warning(s), 0 error(s)"),
        "{text}"
    );
    let appointments = fixture("appointments.rbacq").to_string_lossy().into_owned();
    let text = daemon.client_ok(&["submit", &h, &appointments]);
    assert!(text.contains("# 3 executed, 1 refused"), "{text}");
    let text = daemon.client_ok(&["analyze", &h, &appointments]);
    assert!(text.contains("# admission: clean"), "{text}");
    let text = daemon.client_ok(&["constraint", &h, "list"]);
    assert!(text.contains("# no constraints declared"), "{text}");
    let text = daemon.client_ok(&["compact"]);
    assert!(text.contains("reopen replays 0 entries"), "{text}");
    assert!(daemon
        .client_ok(&["version"])
        .starts_with("epoch 1 checksum 0x"));
    // A standalone server is already a primary: term 0.
    let text = daemon.client_ok(&["promote"]);
    assert!(text.contains("term 0"), "{text}");
    let out = daemon.client(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown client verb `frobnicate`"));
    daemon.stop();
}

#[test]
fn replica_converges_refuses_writes_and_promotes() {
    let scratch = Scratch::new("replication");
    let h = hospital();
    let appointments = fixture("appointments.rbacq").to_string_lossy().into_owned();
    let primary = Served::start(
        &scratch,
        "primary",
        &[&scratch.path("store"), "--init", &h, "--replicate"],
    );
    let replica = Served::start(&scratch, "replica", &["--follow-unix", &primary.sock]);

    // A write through the primary, then convergence: identical epoch
    // and state checksum from `client version` on both nodes.
    primary.client_ok(&["submit", &h, &appointments]);
    let want = primary.client_ok(&["version"]);
    assert!(want.starts_with("epoch 1 "), "{want}");
    let mut got = String::new();
    wait_until("the replica to converge", || {
        got = replica.client_ok(&["version"]);
        got == want
    });
    let text = replica.client_ok(&["stats"]);
    assert!(text.contains("replica term 0"), "{text}");

    // The replica refuses writes with the typed error…
    let out = replica.client(&["submit", &h, &appointments]);
    assert!(!out.status.success(), "replica accepted a write");
    let err = String::from_utf8_lossy(&out.stderr).to_lowercase();
    assert!(err.contains("read-only"), "{err}");

    // …until promoted, after which it accepts them under term 1.
    let text = replica.client_ok(&["promote"]);
    assert!(text.contains("term 1"), "{text}");
    replica.client_ok(&["submit", &h, &appointments]);
    primary.stop();
    replica.stop();
}

#[test]
fn admission_gate_refuses_over_the_wire_and_leaves_the_epoch() {
    let scratch = Scratch::new("admission");
    let arena = scratch.write("sod_arena.rbac", SOD_ARENA);
    let violating = scratch.write("violating.rbacq", VIOLATING_QUEUE);
    let clean = scratch.write("clean.rbacq", CLEAN_QUEUE);
    let daemon = Served::start(&scratch, "d", &[&scratch.path("store"), "--init", &arena]);

    // Declare the pair over the wire and read it back.
    daemon.client_ok(&["constraint", &arena, "add", "--sod", "pay,audit"]);
    let text = daemon.client_ok(&["constraint", &arena, "list"]);
    assert!(text.contains("sod: pay, audit"), "{text}");
    let before = daemon.client_ok(&["version"]);

    // Pre-flight analysis flags the batch without publishing.
    let out = daemon.client(&["analyze", &arena, &violating]);
    assert!(!out.status.success(), "analyze should have exited nonzero");
    assert!(
        stdout(&out).contains("admission: REFUSED"),
        "{}",
        stdout(&out)
    );

    // The violating batch bounces with the typed finding…
    let out = daemon.client(&["submit", &arena, &violating]);
    assert!(
        !out.status.success(),
        "violating submit should have exited nonzero"
    );
    let text = stdout(&out);
    assert!(text.contains("sod-conflict"), "{text}");
    assert!(text.contains("admission refused"), "{text}");
    // …and published nothing: same epoch and checksum.
    assert_eq!(daemon.client_ok(&["version"]), before);

    // A clean batch still publishes.
    daemon.client_ok(&["submit", &arena, &clean]);
    assert_ne!(daemon.client_ok(&["version"]), before);
    daemon.stop();
}

#[test]
fn analyze_and_constraint_work_against_a_local_store() {
    let scratch = Scratch::new("local-admission");
    let arena = scratch.write("sod_arena.rbac", SOD_ARENA);
    let violating = scratch.write("violating.rbacq", VIOLATING_QUEUE);
    let clean = scratch.write("clean.rbacq", CLEAN_QUEUE);
    let store = scratch.path("store");
    let run = |args: &[&str]| bin().args(args).output().unwrap();
    assert!(run(&["run", &arena, &clean, "--store", &store])
        .status
        .success());

    let out = run(&["constraint", "list", &store]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("# no constraints declared"));
    // `add` needs something to add: a usage error.
    let out = run(&["constraint", "add", &store]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one of"));
    let out = run(&[
        "constraint",
        "add",
        &store,
        "--sod",
        "pay,audit",
        "--deny",
        "warning",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Declarations are durable and accumulate across invocations.
    let out = run(&["constraint", "add", &store, "--freeze", "admin,admins"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let added = stdout(&out);
    let out = run(&["constraint", "list", &store]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), added);
    for line in [
        "sod: pay, audit",
        "deny-level: warning",
        "frozen: admin -> admins",
        "# 3 constraint(s) declared",
    ] {
        assert!(added.contains(line), "missing `{line}`: {added}");
    }

    // The store's declared set gates the dry run; a bare policy file
    // has none, so the same batch is clean there.
    let out = run(&["analyze", &store, "--batch", &violating]);
    assert!(!out.status.success());
    let refused = stdout(&out);
    assert!(
        refused.contains("# simulated: 2 executed, 0 refused"),
        "{refused}"
    );
    assert!(refused.contains("sod-conflict"), "{refused}");
    assert!(
        refused.contains("# admission: REFUSED (4 finding(s))"),
        "{refused}"
    );
    let out = run(&["analyze", &arena, "--batch", &violating]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("delta: + alice -> audit"), "{text}");
    assert!(text.contains("# admission: clean"), "{text}");
    // …and nothing was mutated: the store still analyzes the same.
    let again = run(&["analyze", &store, "--batch", &violating]);
    assert_eq!(stdout(&again), refused);
    let out = run(&["analyze", &store]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--batch"));
}

// ----- one verb layer: flags are checked, twins agree ------------------

#[test]
fn misspelt_valueless_and_surplus_arguments_are_usage_errors() {
    let h = hospital();
    let cases: [(&[&str], &str); 5] = [
        // Skipped at the parent: exit 0 at the default floor, with
        // `warning` taken for a positional.
        (&["lint", &h, "--dney", "warning"], "unknown flag `--dney`"),
        (&["lint", &h, "--deny"], "--deny needs a value"),
        (&["lint", &h, "--deny", "--json"], "--deny needs a value"),
        (&["stats", &h, "extra"], "unexpected argument `extra`"),
        // A flag another verb owns is not this verb's.
        (&["print", &h, "--ordered"], "unknown flag `--ordered`"),
    ];
    for (args, complaint) in cases {
        let out = bin().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(complaint), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {}", stdout(&out));
    }
}

#[test]
fn an_unknown_user_is_named_in_the_error() {
    for verb in ["reach", "verify"] {
        let out = bin()
            .args([verb, &hospital(), "nobody", "write", "t3"])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown user `nobody`"), "{verb}: {err}");
    }
}

/// The property the single verb layer exists to guarantee: a verb run
/// on the file (or store) and the same verb run through a daemon
/// serving that state print the same body and exit the same way.
#[test]
fn local_and_client_twins_print_the_same_body() {
    let scratch = Scratch::new("parity");
    let h = hospital();
    let appointments = fixture("appointments.rbacq").to_string_lossy().into_owned();
    let store = scratch.path("store");
    let daemon = Served::start(&scratch, "d", &[&store, "--init", &h]);
    // A declared set that both lint (as defaults) and analyze (as the
    // gate) must pick up: diana already bridges the pair.
    let declare = ["constraint", &h, "add", "--sod", "nurse,staff"];
    daemon.client_ok(&[&declare[..], &["--deny", "warning"]].concat());

    // (the client's verb and operands, the local twin's): H is the
    // policy file, S the served store, Q the queue.
    const STARVED: &str = "reach H joe write t3 --max-states 1 --no-escalate --no-slice";
    let cases = [
        ("reach H bob write t3", "reach H bob write t3"),
        (
            "reach H joe write t3 --steps 1 --no-escalate",
            "reach H joe write t3 --steps 1 --no-escalate",
        ),
        (STARVED, STARVED),
        ("lint H --json", "lint S --json"),
        ("lint H", "lint S"),
        (
            "lint H --deny error --sod hr,so",
            "lint S --deny error --sod hr,so",
        ),
        ("analyze H Q", "analyze S --batch Q"),
        ("constraint H list", "constraint list S"),
    ];
    let words = |template: &'static str| -> Vec<&str> {
        let operand = |word| match word {
            "H" => h.as_str(),
            "S" => store.as_str(),
            "Q" => appointments.as_str(),
            word => word,
        };
        template.split(' ').map(operand).collect()
    };
    let served: Vec<_> = cases
        .iter()
        .map(|(remote, _)| daemon.client(&words(remote)))
        .collect();
    daemon.stop();

    for ((remote, local), served) in cases.iter().zip(&served) {
        let here = bin().args(words(local)).output().unwrap();
        // The allowed differences: the header label (`(served)`, and
        // the store's path where the client names the file), and the
        // slice report local `reach` prefaces its answer with.
        let body: String = stdout(&here)
            .replace(&store, &h)
            .lines()
            .filter(|line| !line.starts_with("slice: "))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(body, stdout(served).replace(" (served)", ""), "{remote:?}");
        assert!(!body.is_empty(), "{remote:?} printed nothing");
        if *remote == STARVED {
            // `reach` only reports; `client reach` (like `verify`) gates.
            assert!(body.starts_with("UNKNOWN"), "{body}");
            assert_eq!(here.status.code(), Some(0));
            assert_eq!(served.status.code(), Some(1));
        } else {
            assert_eq!(here.status.code(), served.status.code(), "{remote:?}");
        }
    }
    // The declared defaults did gate: lint and analyze both refuse.
    assert_eq!(served[4].status.code(), Some(1));
    assert_eq!(served[6].status.code(), Some(1));
}
