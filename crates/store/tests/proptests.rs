//! Property-based tests for the storage layer: codec round-trips on
//! random universes/policies, the prefix-durability property of log
//! recovery under arbitrary truncation points, and hostile bytes inside
//! a valid CRC frame — every flip, cut and extension of a record or a
//! state blob is a typed refusal (or a clean decode), never a panic, a
//! truncated id, or work out of proportion to the input.

use adminref_core::admission::ConstraintSet;
use adminref_core::command::Command;
use adminref_core::ids::{RoleId, UserId};
use adminref_core::policy::Policy;
use adminref_core::transition::AuthMode;
use adminref_core::universe::{Edge, Universe};
use adminref_store::codec::{decode, encode, CodecError, EdgeSets, Wire};
use adminref_store::record::write_record;
use adminref_store::{decode_state, encode_state, CommandLog, PolicyStore, StoreError, TempDir};
use proptest::prelude::*;

const USERS: usize = 4;
const ROLES: usize = 5;

#[derive(Clone, Debug)]
struct Spec {
    ua: Vec<(u8, u8)>,
    rh: Vec<(u8, u8)>,
    perms: Vec<(u8, u8)>,
    grants: Vec<(u8, u8, u8)>, // holder role, user, target role
    nested: Vec<(u8, u8)>,     // holder role, wraps grant #i (mod len)
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec(((0u8..USERS as u8), (0u8..ROLES as u8)), 0..6),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..ROLES as u8)), 0..6),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..4)), 0..5),
        prop::collection::vec(
            ((0u8..ROLES as u8), (0u8..USERS as u8), (0u8..ROLES as u8)),
            0..5,
        ),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..8)), 0..3),
    )
        .prop_map(|(ua, rh, perms, grants, nested)| Spec {
            ua,
            rh,
            perms,
            grants,
            nested,
        })
}

fn build(s: &Spec) -> (Universe, Policy) {
    let mut uni = Universe::new();
    let users: Vec<UserId> = (0..USERS).map(|i| uni.user(&format!("u{i}"))).collect();
    let roles: Vec<RoleId> = (0..ROLES).map(|i| uni.role(&format!("r{i}"))).collect();
    let mut policy = Policy::new(&uni);
    for &(u, r) in &s.ua {
        policy.add_edge(Edge::UserRole(users[u as usize], roles[r as usize]));
    }
    for &(a, b) in &s.rh {
        policy.add_edge(Edge::RoleRole(roles[a as usize], roles[b as usize]));
    }
    for &(r, o) in &s.perms {
        let perm = uni.perm("read", &format!("obj{o}"));
        let p = uni.priv_perm(perm);
        policy.add_edge(Edge::RolePriv(roles[r as usize], p));
    }
    let mut grant_ids = Vec::new();
    for &(holder, u, r) in &s.grants {
        let g = uni.grant_user_role(users[u as usize], roles[r as usize]);
        grant_ids.push(g);
        policy.add_edge(Edge::RolePriv(roles[holder as usize], g));
    }
    for &(holder, i) in &s.nested {
        if grant_ids.is_empty() {
            continue;
        }
        let inner = grant_ids[i as usize % grant_ids.len()];
        let outer = uni.grant_role_priv(roles[holder as usize], inner);
        policy.add_edge(Edge::RolePriv(roles[holder as usize], outer));
    }
    (uni, policy)
}

// ----- hostile bytes inside a valid frame --------------------------------
//
// These go through the store's file-level entry points only
// (`decode_state`, `CommandLog::open`) and spell their bytes by hand, so
// they say what the *format* refuses, whatever decodes it.

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// `payload` in a CRC frame of its own: what a mutation looks like once
/// the checksum has been made to agree with it.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_record(&mut out, payload).unwrap();
    out
}

/// Opens a log holding exactly `record` (one framed record).
fn open_log_of(record: &[u8]) -> Result<Vec<adminref_store::LogEntry>, StoreError> {
    let dir = TempDir::new("hostile-log").unwrap();
    let path = dir.path().join("commands.log");
    std::fs::write(&path, record).unwrap();
    CommandLog::open(&path).map(|recovered| recovered.entries)
}

/// Runs `f` on its own thread and fails if it has not answered in five
/// seconds: a decoder that loops on a hostile count is a failure, not a
/// hung test run.
fn within_five_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(5))
        .expect("decoder still running after 5 s")
}

/// A state blob payload spelled by hand: one user `u`, one role `r`,
/// the given action table, no objects, the given (already encoded) term
/// table and policy, no constraints.
fn state_payload(actions: &[(u64, &str)], terms: &[&[u8]], policy: &[u8]) -> Vec<u8> {
    let mut p = b"ADMREFS2".to_vec();
    p.extend(varint(0)); // base_seq
    p.extend(varint(1)); // universe tag
    p.extend([1, 1, b'u', 1, 1, b'r']);
    p.extend(varint(actions.len() as u64));
    for (id, name) in actions {
        p.extend(varint(*id));
        p.extend(varint(name.len() as u64));
        p.extend(name.as_bytes());
    }
    p.push(0); // objects
    p.extend(varint(terms.len() as u64));
    for term in terms {
        p.extend(*term);
    }
    p.extend(policy);
    p.extend([0, 0, 0]); // constraints: no pairs, no level, no edges
    p
}

const EMPTY_POLICY: &[u8] = &[0, 0, 0];

#[test]
fn the_hand_spelled_blob_is_the_format() {
    // grant(u, r) as the one term, (u, r) in UA and (r, term 0) in PA.
    let payload = state_payload(&[], &[&[1, 0, 0, 0]], &[1, 0, 0, 0, 1, 0, 0]);
    let (uni, policy, constraints) = decode_state(&framed(&payload)).unwrap();
    assert_eq!(
        (uni.user_count(), uni.role_count(), uni.term_count()),
        (1, 1, 1)
    );
    assert_eq!(policy.edge_count(), 2);
    assert!(constraints.is_empty());
    assert_eq!(encode_state(&uni, &policy, &constraints), framed(&payload));
}

#[test]
fn an_id_past_u32_in_a_record_is_overflow_not_some_other_user() {
    // seq 0, command record, executed, then a grant by actor 2^32 + 1 of
    // edge (user 0, role 0): read modulo 2^32 that is user 1's command.
    let mut payload = vec![0, 0, 1];
    payload.extend(varint((1 << 32) + 1));
    payload.extend([0, 0, 0, 0]);
    assert!(matches!(
        open_log_of(&framed(&payload)),
        Err(StoreError::Codec(CodecError::VarintOverflow))
    ));
    // And in a blob: PA names term 2^32, which is not term 0.
    let mut policy = vec![0, 0, 1, 0];
    policy.extend(varint(1 << 32));
    let blob = framed(&state_payload(&[], &[&[1, 0, 0, 0]], &policy));
    assert!(matches!(
        decode_state(&blob),
        Err(StoreError::Codec(CodecError::VarintOverflow))
    ));
}

#[test]
fn a_sparse_table_cannot_demand_more_names_than_the_blob_has_bytes() {
    // One action with id 2^31: two billion placeholder names to intern
    // before it, from a blob of under forty bytes.
    let blob = framed(&state_payload(&[(1 << 31, "x")], &[], EMPTY_POLICY));
    let refused = within_five_seconds(move || decode_state(&blob).err());
    assert!(matches!(
        refused,
        Some(StoreError::Codec(CodecError::DanglingId(id))) if id == 1 << 31
    ));
    // Descending and repeated ids would renumber every name after them.
    for ids in [[2, 1], [1, 1]] {
        let blob = framed(&state_payload(
            &[(ids[0], "a"), (ids[1], "b")],
            &[],
            EMPTY_POLICY,
        ));
        assert!(matches!(
            decode_state(&blob),
            Err(StoreError::Codec(CodecError::DanglingId(1)))
        ));
    }
    // A small gap is the format working as intended.
    let blob = framed(&state_payload(&[(0, "a"), (2, "b")], &[], EMPTY_POLICY));
    assert_eq!(decode_state(&blob).unwrap().0.action_count(), 3);
}

#[test]
fn a_policy_over_ids_its_universe_lacks_is_dangling() {
    // UA (user 0, role 7); RH (role 0, role 7); PA (role 0, term 0) with
    // an empty term table. The universe has one user and one role.
    for policy in [[1, 0, 7, 0, 0], [0, 1, 0, 7, 0], [0, 0, 1, 0, 0]] {
        let blob = framed(&state_payload(&[], &[], &policy));
        assert!(
            matches!(
                decode_state(&blob),
                Err(StoreError::Codec(CodecError::DanglingId(_)))
            ),
            "policy bytes {policy:?}"
        );
    }
}

#[test]
fn bytes_left_over_inside_a_valid_frame_are_refused() {
    let mut record = vec![0, 0, 1, 0, 0, 0, 0, 0];
    assert_eq!(open_log_of(&framed(&record)).unwrap().len(), 1);
    record.push(0);
    assert!(matches!(
        open_log_of(&framed(&record)),
        Err(StoreError::Codec(CodecError::TrailingBytes { extra: 1 }))
    ));
    let mut payload = state_payload(&[], &[], EMPTY_POLICY);
    assert!(decode_state(&framed(&payload)).is_ok());
    payload.extend([0, 0]);
    assert!(matches!(
        decode_state(&framed(&payload)),
        Err(StoreError::Codec(CodecError::TrailingBytes { extra: 2 }))
    ));
}

/// Every single-byte mutation of `payload`: each byte flipped three
/// ways, the payload cut before each byte, and one byte appended.
fn mutations(payload: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for at in 0..payload.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut flipped = payload.to_vec();
            flipped[at] ^= mask;
            out.push(flipped);
        }
        out.push(payload[..at].to_vec());
    }
    for byte in [0x00, 0xFF] {
        let mut extended = payload.to_vec();
        extended.push(byte);
        out.push(extended);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mutation of a state blob's payload, re-framed so the CRC
    /// passes: a typed refusal or a state no larger than the bytes it
    /// came from — never a panic, and never a silent extension.
    #[test]
    fn mutated_state_blobs_are_typed_refusals(s in spec()) {
        let (uni, policy) = build(&s);
        let constraints = ConstraintSet {
            sod_pairs: vec![(RoleId(0), RoleId(1))],
            deny_level: None,
            frozen_edges: policy.edges().take(1).collect(),
        };
        let blob = encode_state(&uni, &policy, &constraints);
        let payload = &blob[8..];
        for mutant in mutations(payload) {
            let extended = mutant.len() > payload.len();
            match decode_state(&framed(&mutant)) {
                Ok((uni, policy, _)) => {
                    prop_assert!(!extended, "an appended byte went unnoticed");
                    let (users, roles, actions, objects, terms) = uni.population_stamp();
                    let built = users + roles + actions + objects + terms + policy.edge_count();
                    prop_assert!(built <= mutant.len(), "{built} entries from {} bytes", mutant.len());
                }
                Err(StoreError::Codec(_) | StoreError::BadHeader(_)) => {}
                Err(other) => prop_assert!(false, "untyped refusal: {other}"),
            }
        }
    }

    /// The same for each kind of log record.
    #[test]
    fn mutated_log_records_are_typed_refusals(
        seq in 0u64..300,
        ids in ((0u32..200), (0u32..200), (0u32..200)),
        executed in any::<bool>(),
    ) {
        let (actor, user, role) = ids;
        let dir = TempDir::new("prop-mutate").unwrap();
        let path = dir.path().join("commands.log");
        let mut log = CommandLog::open(&path).unwrap().log;
        log.reset(seq).unwrap();
        log.append(&Command::grant(UserId(actor), Edge::UserRole(UserId(user), RoleId(role))), executed).unwrap();
        log.append_constraints(&ConstraintSet {
            sod_pairs: vec![(RoleId(role), RoleId(actor))],
            deny_level: Some(adminref_core::lint::Severity::Warning),
            frozen_edges: vec![Edge::RoleRole(RoleId(role), RoleId(user))],
        }).unwrap();
        log.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let first = 8 + u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        for payload in [&bytes[8..first], &bytes[first + 8..]] {
            for mutant in mutations(payload) {
                match open_log_of(&framed(&mutant)) {
                    Ok(entries) => {
                        prop_assert!(mutant.len() <= payload.len(), "an appended byte went unnoticed");
                        prop_assert!(entries.len() <= 1);
                    }
                    Err(StoreError::Codec(_)) => {}
                    Err(other) => prop_assert!(false, "untyped refusal: {other}"),
                }
            }
        }
    }

    #[test]
    fn codec_round_trip(s in spec()) {
        let (uni, policy) = build(&s);
        let bytes = encode(|buf| {
            uni.put(buf);
            EdgeSets::of(&policy).put(buf);
        });
        let (uni2, policy2) = decode(&bytes, |buf| {
            let uni2 = Universe::take(buf)?;
            let policy2 = EdgeSets::take(buf)?.bind(&uni2)?;
            Ok((uni2, policy2))
        })
        .unwrap();
        prop_assert_eq!(&policy, &policy2);
        prop_assert_eq!(uni.term_count(), uni2.term_count());
        prop_assert_eq!(uni.tag(), uni2.tag(), "identity survives the codec");
        for p in uni.priv_ids() {
            prop_assert_eq!(uni.term(p), uni2.term(p));
        }
    }

    #[test]
    fn log_recovery_is_prefix_durable(
        s in spec(),
        cmds in prop::collection::vec(
            ((0u8..USERS as u8), (0u8..USERS as u8), (0u8..ROLES as u8), any::<bool>()),
            1..12,
        ),
        cut in 1usize..40,
    ) {
        let (uni, _) = build(&s);
        let users: Vec<UserId> = uni.users().collect();
        let roles: Vec<RoleId> = uni.roles().collect();
        let dir = TempDir::new("prop-log").unwrap();
        let path = dir.path().join("commands.log");
        let commands: Vec<Command> = cmds
            .iter()
            .map(|&(a, u, r, grant)| {
                let edge = Edge::UserRole(users[u as usize], roles[r as usize]);
                if grant {
                    Command::grant(users[a as usize], edge)
                } else {
                    Command::revoke(users[a as usize], edge)
                }
            })
            .collect();
        {
            let mut rec = CommandLog::open(&path).unwrap();
            for cmd in &commands {
                rec.log.append(cmd, true).unwrap();
            }
            rec.log.sync().unwrap();
        }
        // Truncate the tail at an arbitrary byte count.
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut);
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let rec = CommandLog::open(&path).unwrap();
        // Recovered entries are exactly a prefix of what was written.
        prop_assert!(rec.entries.len() <= commands.len());
        for (i, entry) in rec.entries.iter().enumerate() {
            prop_assert_eq!(entry.seq, i as u64);
            prop_assert_eq!(&entry.command, &commands[i]);
        }
    }

    #[test]
    fn store_reopen_reproduces_state(s in spec()) {
        let (uni, policy) = build(&s);
        let users: Vec<UserId> = uni.users().collect();
        let roles: Vec<RoleId> = uni.roles().collect();
        let dir = TempDir::new("prop-store").unwrap();
        let live = {
            let mut store = PolicyStore::create(
                dir.path(), uni, policy, AuthMode::Explicit,
            ).unwrap();
            // Replay a few commands (authorized or not — both are logged).
            for i in 0..6u32 {
                let cmd = Command::grant(
                    users[i as usize % users.len()],
                    Edge::UserRole(users[(i as usize + 1) % users.len()], roles[i as usize % roles.len()]),
                );
                store.execute(&cmd).unwrap();
            }
            store.sync().unwrap();
            store.policy().clone()
        };
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        prop_assert_eq!(report.replayed, 6);
        prop_assert_eq!(report.divergent, 0);
        prop_assert_eq!(store.policy(), &live);
    }
}
