//! Golden disk bytes: `fixtures/store_golden.hex` pins what the store
//! writes — each kind of WAL record and one state blob (the payload of
//! `policy.snap` and of a replication bootstrap) — the way
//! `fixtures/wire_golden.hex` pins what the daemon sends. Live encoding
//! must match the fixture, every entry must decode and re-encode to
//! itself, and a store directory laid down from the fixture's bytes
//! must open to the state those bytes describe.

use std::path::PathBuf;

use adminref_core::admission::ConstraintSet;
use adminref_core::checksum::policy_checksum;
use adminref_core::command::Command;
use adminref_core::lint::Severity;
use adminref_core::policy::Policy;
use adminref_core::transition::AuthMode;
use adminref_core::universe::{Edge, Universe, UniverseTag};
use adminref_store::{decode_state, encode_state, CommandLog, PolicyStore, TempDir};

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// Figure 2's hospital policy under a fixed universe tag (a fresh tag
/// is a process-wide counter, and the blob records it).
fn hospital() -> (Universe, Policy) {
    let text = std::fs::read_to_string(repo_path("fixtures/hospital.rbac")).expect("hospital.rbac");
    let (mut universe, parsed) = adminref_lang::load_policy(&text).expect("hospital parses");
    universe.adopt_tag(UniverseTag::from_raw(7));
    let mut policy = Policy::new(&universe);
    for edge in parsed.edges() {
        policy.add_edge(edge);
    }
    (universe, policy)
}

/// `actor` orders `member` into `role`. Jane (in hr, which holds
/// `grant(bob, staff)`) putting bob on staff is executed; bob putting
/// joe among the nurses is refused.
fn enrol(universe: &Universe, actor: &str, member: &str, role: &str) -> Command {
    let user = |name| universe.find_user(name).expect("hospital user");
    let role = universe.find_role(role).expect("hospital role");
    Command::grant(user(actor), Edge::UserRole(user(member), role))
}

fn executed_command(universe: &Universe) -> Command {
    enrol(universe, "jane", "bob", "staff")
}

fn refused_command(universe: &Universe) -> Command {
    enrol(universe, "bob", "joe", "nurse")
}

fn constraints(universe: &Universe) -> ConstraintSet {
    let role = |name| universe.find_role(name).expect("hospital role");
    ConstraintSet {
        sod_pairs: vec![(role("nurse"), role("hr"))],
        deny_level: Some(Severity::Error),
        frozen_edges: vec![Edge::RoleRole(role("staff"), role("nurse"))],
    }
}

/// Every pinned entry, encoded by live code: the three WAL records in
/// log order (framed as they sit in `commands.log`), then the blob.
fn live_entries() -> Vec<(&'static str, Vec<u8>)> {
    let (universe, policy) = hospital();
    let dir = TempDir::new("golden-live").expect("tempdir");
    let path = dir.path().join("commands.log");
    let mut log = CommandLog::open(&path).expect("fresh log").log;
    log.append(&executed_command(&universe), true)
        .expect("append");
    log.append(&refused_command(&universe), false)
        .expect("append");
    log.append_constraints(&constraints(&universe))
        .expect("append");
    log.sync().expect("sync");
    let bytes = std::fs::read(&path).expect("log bytes");
    // Each record announces its payload length in its first four bytes.
    let mut records = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let len = 8 + u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        records.push(rest[..len].to_vec());
        rest = &rest[len..];
    }
    let blob = encode_state(&universe, &policy, &constraints(&universe));
    let names = [
        "record.command.executed",
        "record.command.refused",
        "record.constraints",
        "state.hospital",
    ];
    names
        .into_iter()
        .zip(records.into_iter().chain([blob]))
        .collect()
}

fn pinned_entries() -> Vec<(String, Vec<u8>)> {
    let fixture = std::fs::read_to_string(repo_path("fixtures/store_golden.hex"))
        .expect("fixtures/store_golden.hex");
    fixture
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("fixture line: `name hex`");
            (name.to_string(), unhex(hex.trim()))
        })
        .collect()
}

/// Regeneration helper, not a check: prints the live entries in fixture
/// format (`cargo test -p adminref-store --test golden -- --ignored
/// --nocapture`). Only a deliberate on-disk format change, with a new
/// snapshot magic, should ever need it.
#[test]
#[ignore = "regeneration helper for fixtures/store_golden.hex"]
fn print_golden_fixture() {
    for (name, bytes) in live_entries() {
        println!("{name} {}", hex(&bytes));
    }
}

#[test]
fn live_encoding_matches_the_fixture() {
    let pinned = pinned_entries();
    let live = live_entries();
    assert_eq!(pinned.len(), live.len(), "fixture entries vs live entries");
    for ((name, bytes), (pinned_name, pinned_bytes)) in live.iter().zip(&pinned) {
        assert_eq!(name, pinned_name, "fixture entry order");
        assert_eq!(
            hex(bytes),
            hex(pinned_bytes),
            "`{name}`: live encoding disagrees with fixtures/store_golden.hex \
             (a disk format change without a new snapshot magic?)"
        );
    }
}

#[test]
fn every_entry_decodes_and_reencodes_to_itself() {
    let pinned = pinned_entries();
    let (universe, _) = hospital();

    // The three records, concatenated, are a log.
    let dir = TempDir::new("golden-reencode").expect("tempdir");
    let path = dir.path().join("commands.log");
    let log_bytes: Vec<u8> = pinned[..3].iter().flat_map(|(_, b)| b.clone()).collect();
    std::fs::write(&path, &log_bytes).expect("write log");
    let recovered = CommandLog::open(&path).expect("golden log opens");
    assert!(!recovered.truncated_tail);
    assert_eq!(recovered.log.next_seq(), 3);
    assert_eq!(recovered.constraints, Some(constraints(&universe)));
    let [executed, refused] = recovered.entries[..] else {
        panic!("two command entries, got {:?}", recovered.entries);
    };
    assert_eq!(
        (executed.seq, executed.executed, executed.command),
        (0, true, executed_command(&universe))
    );
    assert_eq!(
        (refused.seq, refused.executed, refused.command),
        (1, false, refused_command(&universe))
    );
    let again = dir.path().join("again.log");
    let mut log = CommandLog::open(&again).expect("fresh log").log;
    log.append(&executed.command, executed.executed)
        .expect("append");
    log.append(&refused.command, refused.executed)
        .expect("append");
    log.append_constraints(&constraints(&universe))
        .expect("append");
    log.sync().expect("sync");
    assert_eq!(hex(&std::fs::read(&again).expect("read")), hex(&log_bytes));

    // The blob.
    let (name, blob) = &pinned[3];
    let (uni, policy, set) = decode_state(blob).unwrap_or_else(|e| panic!("`{name}`: {e}"));
    assert_eq!(set, constraints(&universe));
    assert_eq!(hex(&encode_state(&uni, &policy, &set)), hex(blob));
}

/// `policy_checksum` of the state the golden directory opens to, as the
/// parent of the commit that introduced the shared codec computed it.
const OPENED_CHECKSUM: u64 = 0xc89c_3ef2_436b_7492;

/// A store directory holding the fixture's bytes — the blob as
/// `policy.snap`, the records as `commands.log` — is what any earlier
/// build would have left behind. It must open to the pinned state.
#[test]
fn a_directory_of_golden_bytes_opens_to_the_pinned_state() {
    let pinned = pinned_entries();
    let dir = TempDir::new("golden-open").expect("tempdir");
    std::fs::write(dir.path().join("policy.snap"), &pinned[3].1).expect("snap");
    let log_bytes: Vec<u8> = pinned[..3].iter().flat_map(|(_, b)| b.clone()).collect();
    std::fs::write(dir.path().join("commands.log"), log_bytes).expect("log");

    let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).expect("opens");
    assert_eq!(
        (report.replayed, report.truncated_tail, report.divergent),
        (2, false, 0)
    );
    let (universe, mut policy) = hospital();
    let bob = universe.find_user("bob").expect("bob");
    let staff = universe.find_role("staff").expect("staff");
    policy.add_edge(Edge::UserRole(bob, staff));
    assert_eq!(store.policy(), &policy);
    assert_eq!(policy_checksum(store.policy()), OPENED_CHECKSUM);
    assert_eq!(store.constraints(), &constraints(&universe));
    assert_eq!(store.universe().tag(), universe.tag());
}
