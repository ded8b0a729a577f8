//! Wire-codec conformance: golden bytes pinning codec == fixture ==
//! spec for every sample below (one or more per `Request`/`Response`/
//! `ServiceError` variant and replication payload), the spec's tag
//! tables checked against the codec, re-encode round-trips, and
//! adversarial frames (truncated, oversized, bad magic, future version,
//! hostile list counts, mutated payloads) decoding to typed errors —
//! never panics.

use adminref_core::admission::{
    AdmissionReport, ConstraintSet, EdgeStatus, ImpactReport, PermFlip, StatusChange,
};
use adminref_core::command::{Command, CommandKind};
use adminref_core::ids::{ActionId, Entity, ObjectId, Perm, PrivId, RoleId, UserId};
use adminref_core::lint::{Confirmation, Finding, FindingKind, LintReport, Severity};
use adminref_core::ordering::OrderingMode;
use adminref_core::reach::EdgeDelta;
use adminref_core::safety::SafetyConfig;
use adminref_core::session::SessionError;
use adminref_core::transition::AuthMode;
use adminref_core::universe::{Edge, Universe};
use adminref_monitor::{AuditEvent, Decision, SessionId};
use adminref_service::protocol::{
    RefinementDirection, ReplicationRole, ReplicationStatus, Request, Response, ServiceError,
    ServiceStats, VersionInfo,
};
use adminref_service::wire::{
    self, FrameHeader, FrameKind, WireError, HEADER_LEN, MAX_PAYLOAD, WIRE_VERSION,
};
use adminref_store::codec::{CodecError, Wire};
use adminref_store::RecoveryReport;
use adminref_workloads::{layered, populate_perms, populate_users, LayeredSpec};
use proptest::prelude::*;

/// A small fixed workload: the universe resolves decoded requests, the
/// policy feeds `CheckRefinement` candidates.
fn test_world() -> (Universe, adminref_core::policy::Policy) {
    let mut h = layered(LayeredSpec {
        layers: 3,
        width: 3,
        edge_prob: 0.4,
        seed: 0xC0DEC,
    });
    populate_users(&mut h, 4, 2, 0xC0DEC);
    populate_perms(&mut h, 2, 4, 0xC0DEC);
    (h.universe, h.policy)
}

fn cmd(actor: u32, kind: CommandKind, edge: Edge) -> Command {
    Command {
        actor: UserId::from_index(actor as usize),
        kind,
        edge,
    }
}

fn perm(action: usize, object: usize) -> Perm {
    Perm {
        action: ActionId::from_index(action),
        object: ObjectId::from_index(object),
    }
}

/// One instance of every request variant, with assorted field shapes.
fn all_requests(policy: &adminref_core::policy::Policy) -> Vec<Request> {
    vec![
        Request::CheckAccess {
            session: SessionId::from_raw(1),
            perm: perm(2, 0),
        },
        Request::CreateSession {
            user: UserId::from_index(3),
        },
        Request::ActivateRole {
            session: SessionId::from_raw(300),
            role: RoleId::from_index(5),
        },
        Request::DeactivateRole {
            session: SessionId::from_raw(0),
            role: RoleId::from_index(0),
        },
        Request::DropSession {
            session: SessionId::from_raw(u64::MAX),
        },
        Request::Submit {
            commands: Vec::new(),
        },
        Request::Submit {
            commands: vec![
                cmd(
                    0,
                    CommandKind::Grant,
                    Edge::UserRole(UserId::from_index(1), RoleId::from_index(3)),
                ),
                cmd(
                    2,
                    CommandKind::Revoke,
                    Edge::RoleRole(RoleId::from_index(4), RoleId::from_index(6)),
                ),
                cmd(
                    1,
                    CommandKind::Grant,
                    Edge::RolePriv(RoleId::from_index(2), PrivId::from_index(7)),
                ),
            ],
        },
        Request::AnalyzeReach {
            entity: Entity::User(UserId::from_index(2)),
            perm: perm(0, 1),
            config: SafetyConfig {
                max_steps: 5,
                max_states: 10_000,
                auth_mode: AuthMode::Ordered(OrderingMode::ExtendedWithRevocation),
                weaker_depth: Some(3),
                jobs: 2,
                escalate: true,
                slice: false,
            },
        },
        Request::AnalyzeReach {
            entity: Entity::Role(RoleId::from_index(1)),
            perm: perm(1, 0),
            config: SafetyConfig::default(),
        },
        Request::CheckRefinement {
            candidate: policy.clone(),
            direction: RefinementDirection::LiveRefinesCandidate,
            max_witnesses: 8,
        },
        Request::AuditTail { max: 128 },
        Request::AuditSince { after: 77, max: 0 },
        Request::Version,
        Request::Stats,
        Request::Compact,
        Request::Lint {
            sod_pairs: vec![(RoleId::from_index(0), RoleId::from_index(4))],
        },
        Request::Analyze {
            commands: vec![cmd(
                0,
                CommandKind::Grant,
                Edge::UserRole(UserId::from_index(1), RoleId::from_index(3)),
            )],
        },
        Request::SetConstraints {
            constraints: ConstraintSet {
                sod_pairs: vec![(RoleId::from_index(1), RoleId::from_index(5))],
                deny_level: Some(Severity::Error),
                frozen_edges: vec![Edge::RolePriv(RoleId::from_index(2), PrivId::from_index(0))],
            },
        },
        Request::SetConstraints {
            constraints: ConstraintSet::default(),
        },
        Request::GetConstraints,
        Request::Promote,
    ]
}

/// One instance of every response variant.
fn all_responses() -> Vec<Response> {
    let outcome_auth = adminref_core::transition::StepOutcome {
        authorization: Some(adminref_core::transition::Authorization {
            held: PrivId::from_index(4),
            target: PrivId::from_index(2),
        }),
        changed: true,
    };
    let outcome_refused = adminref_core::transition::StepOutcome {
        authorization: None,
        changed: false,
    };
    vec![
        Response::Access(true),
        Response::Access(false),
        Response::SessionCreated(SessionId::from_raw(9000)),
        Response::RoleActivated,
        Response::RoleDeactivated(false),
        Response::SessionDropped(true),
        Response::Outcomes(vec![outcome_auth, outcome_refused]),
        Response::Reach(adminref_core::safety::ReachabilityAnswer::Reachable {
            witness: adminref_core::command::CommandQueue::from_commands(vec![cmd(
                0,
                CommandKind::Grant,
                Edge::UserRole(UserId::from_index(1), RoleId::from_index(2)),
            )]),
        }),
        Response::Reach(adminref_core::safety::ReachabilityAnswer::Unreachable),
        Response::Reach(adminref_core::safety::ReachabilityAnswer::Unknown {
            truncation: adminref_core::safety::Truncation {
                states: 5000,
                depth: 4,
                cap_hit: true,
            },
        }),
        Response::Refinement(adminref_service::protocol::RefinementReply {
            holds: false,
            total_violations: 12,
            witnesses: vec![adminref_core::refinement::RefinementViolation {
                entity: Entity::Role(RoleId::from_index(3)),
                perm: perm(1, 1),
            }],
        }),
        Response::Audit(vec![
            AuditEvent {
                seq: 41,
                command: cmd(
                    1,
                    CommandKind::Revoke,
                    Edge::RoleRole(RoleId::from_index(0), RoleId::from_index(1)),
                ),
                decision: Decision::Refused,
                changed: false,
            },
            AuditEvent {
                seq: 42,
                command: cmd(
                    0,
                    CommandKind::Grant,
                    Edge::UserRole(UserId::from_index(2), RoleId::from_index(2)),
                ),
                decision: Decision::Executed {
                    held: PrivId::from_index(1),
                    target: PrivId::from_index(0),
                },
                changed: true,
            },
        ]),
        Response::Version(VersionInfo {
            epoch: 123456789,
            checksum: 0x0123_4567_89AB_CDEF,
        }),
        Response::Stats(ServiceStats {
            epoch: 17,
            checksum: 0xDEAD_BEEF_CAFE_F00D,
            users: 4,
            roles: 9,
            edges: 30,
            sessions: 2,
            audit_retained: 100,
            forced_deactivations: 1,
            analyses_run: 5,
            analyses_indefinite: 1,
            lints_run: 2,
            lint_findings: 7,
            recovery: Some(RecoveryReport {
                replayed: 12,
                truncated_tail: true,
                divergent: 0,
            }),
            replication: Some(ReplicationStatus {
                role: ReplicationRole::Replica,
                term: 3,
                last_applied_epoch: 17,
                lag: 2,
            }),
        }),
        Response::Stats(ServiceStats {
            epoch: 0,
            checksum: 0,
            users: 0,
            roles: 0,
            edges: 0,
            sessions: 0,
            audit_retained: 0,
            forced_deactivations: 0,
            analyses_run: 0,
            analyses_indefinite: 0,
            lints_run: 0,
            lint_findings: 0,
            recovery: None,
            replication: None,
        }),
        Response::Promoted { term: 2, epoch: 40 },
        Response::Compacted,
        Response::Lint(LintReport {
            rules_checked: 6,
            closure_edges: 14,
            findings: vec![Finding {
                kind: FindingKind::ShadowedGrant,
                severity: Severity::Warning,
                role: RoleId::from_index(2),
                term: Some(PrivId::from_index(5)),
                edge: Some(Edge::RolePriv(RoleId::from_index(2), PrivId::from_index(5))),
                confirmation: Some(Confirmation::Potential),
                message: "grant shadowed by inherited privilege".to_string(),
            }],
        }),
        Response::Impact(ImpactReport {
            outcomes: vec![outcome_auth, outcome_refused],
            deltas: vec![adminref_core::reach::EdgeDelta {
                edge: Edge::UserRole(UserId::from_index(1), RoleId::from_index(3)),
                added: true,
            }],
            flipped: vec![PermFlip {
                user: UserId::from_index(2),
                term: PrivId::from_index(4),
                now_granted: false,
            }],
            grow_only_before: true,
            grow_only_after: false,
            status_changes: vec![StatusChange {
                edge: Edge::RoleRole(RoleId::from_index(0), RoleId::from_index(1)),
                before: EdgeStatus::Frozen,
                after: EdgeStatus::Volatile,
            }],
            findings: vec![Finding {
                kind: FindingKind::SodConflict,
                severity: Severity::Error,
                role: RoleId::from_index(1),
                term: None,
                edge: None,
                confirmation: Some(Confirmation::Confirmed),
                message: "user reaches both roles of a declared pair".to_string(),
            }],
            severed_sessions: vec![3, 909],
        }),
        Response::Impact(ImpactReport::default()),
        Response::Constraints(ConstraintSet {
            sod_pairs: vec![(RoleId::from_index(0), RoleId::from_index(2))],
            deny_level: Some(Severity::Warning),
            frozen_edges: vec![Edge::UserRole(UserId::from_index(0), RoleId::from_index(1))],
        }),
        Response::Constraints(ConstraintSet::default()),
    ]
}

/// One instance of every error variant but `Backend`, whose encoding
/// is deliberately lossy ([`backend_error`] is its sample).
fn all_errors() -> Vec<ServiceError> {
    vec![
        ServiceError::UnknownSession(SessionId::from_raw(5)),
        ServiceError::Session(SessionError::ActivationDenied {
            user: UserId::from_index(1),
            role: RoleId::from_index(2),
        }),
        ServiceError::Aborted,
        ServiceError::ForeignPolicy,
        ServiceError::InvalidTenant("bad/name".to_string()),
        ServiceError::UnknownTenant("ghost".to_string()),
        ServiceError::Recovery {
            tenant: "hospital".to_string(),
            divergent: 3,
        },
        ServiceError::Protocol {
            expected: "Outcomes(len 1)",
        },
        ServiceError::Transport {
            message: "connection reset".to_string(),
        },
        ServiceError::ReadOnly,
        ServiceError::Admission(AdmissionReport {
            findings: vec![
                Finding {
                    kind: FindingKind::SodConflict,
                    severity: Severity::Error,
                    role: RoleId::from_index(3),
                    term: None,
                    edge: None,
                    confirmation: Some(Confirmation::Confirmed),
                    message: "separation-of-duty pair reachable by one user".to_string(),
                },
                Finding {
                    kind: FindingKind::FrozenEdgeViolation,
                    severity: Severity::Error,
                    role: RoleId::from_index(0),
                    term: None,
                    edge: Some(Edge::UserRole(UserId::from_index(1), RoleId::from_index(0))),
                    confirmation: None,
                    message: "asserted-permanent edge becomes revocable".to_string(),
                },
            ],
            constraints_checked: 2,
        }),
        ServiceError::Admission(AdmissionReport::default()),
    ]
}

/// The `Backend` sample: it crosses as its display string, so it is
/// pinned and decoded but not expected to re-encode to itself.
fn backend_error() -> ServiceError {
    ServiceError::Backend {
        applied: vec![adminref_core::transition::StepOutcome {
            authorization: None,
            changed: false,
        }],
        error: adminref_store::StoreError::Io(std::io::Error::other("disk full")),
    }
}

/// The three replication payloads as `(name, frame kind, payload)`.
fn repl_payloads() -> Vec<(&'static str, FrameKind, Vec<u8>)> {
    let deltas = [
        EdgeDelta {
            edge: Edge::UserRole(UserId::from_index(1), RoleId::from_index(3)),
            added: true,
        },
        EdgeDelta {
            edge: Edge::RolePriv(RoleId::from_index(0), PrivId::from_index(2)),
            added: false,
        },
    ];
    vec![
        (
            "ReplSubscribe",
            FrameKind::ReplSubscribe,
            wire::encode_repl_subscribe(7, None),
        ),
        (
            "ReplSubscribe",
            FrameKind::ReplSubscribe,
            wire::encode_repl_subscribe(7, Some(300)),
        ),
        (
            "ReplSnapshot",
            FrameKind::ReplSnapshot,
            wire::encode_repl_snapshot(3, 42, &[0xde, 0xad, 0xbe, 0xef]),
        ),
        (
            "ReplDelta",
            FrameKind::ReplDelta,
            wire::encode_repl_delta(3, 43, &deltas, 0xFEED_FACE_0000_1111),
        ),
        (
            "ReplDelta",
            FrameKind::ReplDelta,
            wire::encode_repl_delta(0, 0, &[], 0),
        ),
    ]
}

// The three name functions are exhaustive on purpose: a new variant
// fails to compile here until it is named, and then
// `spec_tag_tables_match_the_codec` fails until it has a sample (and
// with it a fixture line) and a spec row.

fn request_name(req: &Request) -> &'static str {
    match req {
        Request::CheckAccess { .. } => "CheckAccess",
        Request::CreateSession { .. } => "CreateSession",
        Request::ActivateRole { .. } => "ActivateRole",
        Request::DeactivateRole { .. } => "DeactivateRole",
        Request::DropSession { .. } => "DropSession",
        Request::Submit { .. } => "Submit",
        Request::AnalyzeReach { .. } => "AnalyzeReach",
        Request::CheckRefinement { .. } => "CheckRefinement",
        Request::AuditTail { .. } => "AuditTail",
        Request::AuditSince { .. } => "AuditSince",
        Request::Version => "Version",
        Request::Stats => "Stats",
        Request::Compact => "Compact",
        Request::Lint { .. } => "Lint",
        Request::Promote => "Promote",
        Request::Analyze { .. } => "Analyze",
        Request::SetConstraints { .. } => "SetConstraints",
        Request::GetConstraints => "GetConstraints",
    }
}

fn response_name(resp: &Response) -> &'static str {
    match resp {
        Response::Access(_) => "Access",
        Response::SessionCreated(_) => "SessionCreated",
        Response::RoleActivated => "RoleActivated",
        Response::RoleDeactivated(_) => "RoleDeactivated",
        Response::SessionDropped(_) => "SessionDropped",
        Response::Outcomes(_) => "Outcomes",
        Response::Reach(_) => "Reach",
        Response::Refinement(_) => "Refinement",
        Response::Audit(_) => "Audit",
        Response::Version(_) => "Version",
        Response::Stats(_) => "Stats",
        Response::Compacted => "Compacted",
        Response::Lint(_) => "Lint",
        Response::Promoted { .. } => "Promoted",
        Response::Impact(_) => "Impact",
        Response::Constraints(_) => "Constraints",
    }
}

fn error_name(err: &ServiceError) -> &'static str {
    match err {
        ServiceError::UnknownSession(_) => "UnknownSession",
        ServiceError::Session(SessionError::ActivationDenied { .. }) => "ActivationDenied",
        ServiceError::Backend { .. } => "Backend",
        ServiceError::Aborted => "Aborted",
        ServiceError::ForeignPolicy => "ForeignPolicy",
        ServiceError::InvalidTenant(_) => "InvalidTenant",
        ServiceError::UnknownTenant(_) => "UnknownTenant",
        ServiceError::Recovery { .. } => "Recovery",
        ServiceError::Protocol { .. } => "Protocol",
        ServiceError::Transport { .. } => "Transport",
        ServiceError::ReadOnly => "ReadOnly",
        ServiceError::Admission(_) => "Admission",
    }
}

/// Every sample above as `(family, variant name, frame kind, payload)`.
fn sample_payloads() -> Vec<(&'static str, &'static str, FrameKind, Vec<u8>)> {
    let (_, policy) = test_world();
    let mut out = Vec::new();
    for req in all_requests(&policy) {
        let payload = wire::encode_request(&req);
        out.push(("request", request_name(&req), FrameKind::Request, payload));
    }
    for resp in all_responses() {
        let payload = wire::encode_response(&resp);
        out.push((
            "response",
            response_name(&resp),
            FrameKind::Response,
            payload,
        ));
    }
    for err in all_errors().iter().chain([&backend_error()]) {
        let payload = wire::encode_error(err);
        out.push(("error", error_name(err), FrameKind::Error, payload));
    }
    for (name, kind, payload) in repl_payloads() {
        out.push(("repl", name, kind, payload));
    }
    out
}

// ----- golden bytes ----------------------------------------------------

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn frame_bytes(kind: FrameKind, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, kind, id, payload).expect("vec write");
    out
}

/// The spec's eleven worked examples (§8), re-encoded from live code.
/// They open `fixtures/wire_golden.hex` under these names, and their
/// hex must also appear (whitespace insignificant) in
/// `specs/wire_protocol.md`.
fn golden_frames() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "version-request",
            frame_bytes(
                FrameKind::Request,
                1,
                &wire::encode_request(&Request::Version),
            ),
        ),
        (
            "check-access-request",
            frame_bytes(
                FrameKind::Request,
                7,
                &wire::encode_request(&Request::CheckAccess {
                    session: SessionId::from_raw(1),
                    perm: perm(2, 0),
                }),
            ),
        ),
        (
            "submit-request",
            frame_bytes(
                FrameKind::Request,
                8,
                &wire::encode_request(&Request::Submit {
                    commands: vec![cmd(
                        0,
                        CommandKind::Grant,
                        Edge::UserRole(UserId::from_index(1), RoleId::from_index(3)),
                    )],
                }),
            ),
        ),
        (
            "access-response",
            frame_bytes(
                FrameKind::Response,
                7,
                &wire::encode_response(&Response::Access(true)),
            ),
        ),
        (
            "outcomes-response",
            frame_bytes(
                FrameKind::Response,
                8,
                &wire::encode_response(&Response::Outcomes(vec![
                    adminref_core::transition::StepOutcome {
                        authorization: Some(adminref_core::transition::Authorization {
                            held: PrivId::from_index(4),
                            target: PrivId::from_index(2),
                        }),
                        changed: true,
                    },
                ])),
            ),
        ),
        (
            "aborted-error",
            frame_bytes(
                FrameKind::Error,
                9,
                &wire::encode_error(&ServiceError::Aborted),
            ),
        ),
        (
            "set-constraints-request",
            frame_bytes(
                FrameKind::Request,
                11,
                &wire::encode_request(&Request::SetConstraints {
                    constraints: ConstraintSet {
                        sod_pairs: vec![(RoleId::from_index(1), RoleId::from_index(5))],
                        deny_level: Some(Severity::Error),
                        frozen_edges: vec![Edge::UserRole(
                            UserId::from_index(0),
                            RoleId::from_index(3),
                        )],
                    },
                }),
            ),
        ),
        (
            "constraints-response",
            frame_bytes(
                FrameKind::Response,
                11,
                &wire::encode_response(&Response::Constraints(ConstraintSet {
                    sod_pairs: vec![(RoleId::from_index(1), RoleId::from_index(5))],
                    deny_level: Some(Severity::Error),
                    frozen_edges: vec![Edge::UserRole(
                        UserId::from_index(0),
                        RoleId::from_index(3),
                    )],
                })),
            ),
        ),
        (
            "admission-error",
            frame_bytes(
                FrameKind::Error,
                12,
                &wire::encode_error(&ServiceError::Admission(AdmissionReport {
                    findings: vec![Finding {
                        kind: FindingKind::SodConflict,
                        severity: Severity::Error,
                        role: RoleId::from_index(1),
                        term: None,
                        edge: None,
                        confirmation: Some(Confirmation::Confirmed),
                        message: "sod".to_string(),
                    }],
                    constraints_checked: 1,
                })),
            ),
        ),
        (
            "repl-subscribe",
            frame_bytes(
                FrameKind::ReplSubscribe,
                1,
                &wire::encode_repl_subscribe(1, Some(41)),
            ),
        ),
        (
            "repl-delta",
            frame_bytes(
                FrameKind::ReplDelta,
                0,
                &wire::encode_repl_delta(
                    1,
                    42,
                    &[EdgeDelta {
                        edge: Edge::UserRole(UserId::from_index(1), RoleId::from_index(3)),
                        added: true,
                    }],
                    0x0123_4567_89AB_CDEF,
                ),
            ),
        ),
    ]
}

/// Every frame the fixture pins, in fixture order: the worked examples,
/// then one frame per sample named `family.Variant.n` (`n` counts that
/// variant's samples), all with request id 0.
fn pinned_frames() -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = golden_frames()
        .into_iter()
        .map(|(name, bytes)| (name.to_string(), bytes))
        .collect();
    for (family, variant, kind, payload) in sample_payloads() {
        let prefix = format!("{family}.{variant}.");
        let nth = out.iter().filter(|(n, _)| n.starts_with(&prefix)).count();
        out.push((format!("{prefix}{nth}"), frame_bytes(kind, 0, &payload)));
    }
    out
}

/// Regeneration helper, not a check: prints the live frames in fixture
/// format. When the protocol legitimately changes, run
/// `cargo test -p adminref-suite --test wire_codec -- --ignored --nocapture`
/// and paste the output into `fixtures/wire_golden.hex` and the spec's
/// worked examples (and bump `WIRE_VERSION` if the change is breaking).
#[test]
#[ignore = "regeneration helper for fixtures/wire_golden.hex"]
fn print_golden_fixture() {
    for (name, bytes) in pinned_frames() {
        println!("{name} {}", hex(&bytes));
    }
}

/// Decodes a frame's payload by its kind and encodes the result again.
/// `Backend` is the one payload that does not come back byte-identical
/// (its error crosses as a display string, which
/// `backend_error_crosses_as_display_string` checks), so decoding it is
/// all that is asked here.
fn reencode(frame: &wire::Frame, universe: &Universe) -> Result<Vec<u8>, WireError> {
    Ok(match frame.kind {
        FrameKind::Request => {
            wire::encode_request(&wire::decode_request(&frame.payload, universe)?)
        }
        FrameKind::Response => wire::encode_response(&wire::decode_response(&frame.payload)?),
        FrameKind::Error => match wire::decode_error(&frame.payload)? {
            ServiceError::Backend { .. } => frame.payload.clone(),
            err => wire::encode_error(&err),
        },
        FrameKind::ReplSubscribe => {
            let (term, last_applied) = wire::decode_repl_subscribe(&frame.payload)?;
            wire::encode_repl_subscribe(term, last_applied)
        }
        FrameKind::ReplSnapshot => {
            let (term, epoch, state) = wire::decode_repl_snapshot(&frame.payload)?;
            wire::encode_repl_snapshot(term, epoch, &state)
        }
        FrameKind::ReplDelta => {
            let d = wire::decode_repl_delta(&frame.payload)?;
            wire::encode_repl_delta(d.term, d.epoch, &d.deltas, d.checksum)
        }
    })
}

#[test]
fn golden_bytes_pin_codec_fixture_and_spec() {
    let (uni, _) = test_world();
    let fixture = std::fs::read_to_string(repo_path("fixtures/wire_golden.hex"))
        .expect("fixtures/wire_golden.hex");
    let spec = std::fs::read_to_string(repo_path("specs/wire_protocol.md"))
        .expect("specs/wire_protocol.md");
    let spec_stripped: String = spec.chars().filter(|c| !c.is_whitespace()).collect();

    let mut pinned: Vec<(&str, &str)> = Vec::new();
    for line in fixture.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.split_once(' ').expect("fixture line: `name hex`");
        pinned.push((name, hex.trim()));
    }

    let live = pinned_frames();
    assert_eq!(
        live.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        pinned.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "fixture frame names disagree with pinned_frames()"
    );
    let worked_examples = golden_frames().len();
    for (i, ((name, bytes), (_, fixture_hex))) in live.iter().zip(&pinned).enumerate() {
        let live_hex = hex(bytes);
        assert_eq!(
            &live_hex, fixture_hex,
            "frame `{name}`: live encoding disagrees with fixtures/wire_golden.hex \
             (protocol change without a fixture + spec + WIRE_VERSION update?)"
        );
        assert!(
            i >= worked_examples || spec_stripped.contains(&live_hex),
            "frame `{name}` ({live_hex}) not found in specs/wire_protocol.md \
             — the spec's worked examples have drifted from the codec"
        );
        let frame = wire::read_frame(&mut bytes.as_slice())
            .unwrap_or_else(|e| panic!("frame `{name}` does not parse: {e}"))
            .expect("one frame");
        let back = reencode(&frame, &uni)
            .unwrap_or_else(|e| panic!("frame `{name}` does not decode: {e}"));
        assert_eq!(
            hex(&back),
            hex(&frame.payload),
            "frame `{name}` does not decode and re-encode to itself"
        );
    }
}

/// The `| tag | Variant | …` rows of the table under the spec heading
/// that starts with `section`.
fn spec_tag_rows(spec: &str, section: &str) -> Vec<(u64, String)> {
    spec.lines()
        .skip_while(|l| !l.starts_with(section))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| {
            let mut cells = l.strip_prefix('|')?.split('|');
            let tag = cells.next()?.trim().parse().ok()?;
            Some((tag, cells.next()?.trim().to_string()))
        })
        .collect()
}

/// The spec's three tag tables and its frame-kind row agree with the
/// codec: every sample's tag and variant name is a spec row, and
/// neither side has a row the other lacks.
#[test]
fn spec_tag_tables_match_the_codec() {
    let (uni, _) = test_world();
    let spec = std::fs::read_to_string(repo_path("specs/wire_protocol.md"))
        .expect("specs/wire_protocol.md");
    let samples = sample_payloads();

    type DecodeErr<'a> = &'a dyn Fn(&[u8]) -> Option<WireError>;
    let families: [(&str, &str, DecodeErr); 3] = [
        ("request", "## 5. Request payloads", &|p| {
            wire::decode_request(p, &uni).err()
        }),
        ("response", "## 6. Response payloads", &|p| {
            wire::decode_response(p).err()
        }),
        ("error", "## 7. Error payloads", &|p| {
            wire::decode_error(p).err()
        }),
    ];
    for (family, section, decode_err) in families {
        let rows = spec_tag_rows(&spec, section);
        let mut sampled: Vec<&str> = Vec::new();
        for (_, variant, _, payload) in samples.iter().filter(|s| s.0 == family) {
            let tag = u64::take(&mut payload.as_slice()).expect("leading tag");
            assert!(
                rows.contains(&(tag, variant.to_string())),
                "{section}: no `| {tag} | {variant} |` row in specs/wire_protocol.md"
            );
            if !sampled.contains(variant) {
                sampled.push(variant);
            }
        }
        // The codec's variant count: the tags it does not answer with
        // an unknown-tag error (a known tag alone is a short payload).
        let known = (0u8..128)
            .filter(|tag| {
                !matches!(decode_err(&[*tag]), Some(WireError::BadTag { what, .. }) if what == family)
            })
            .count();
        assert_eq!(rows.len(), known, "{section}: spec rows vs codec tags");
        assert_eq!(
            sampled.len(),
            known,
            "{family}: a variant has no sample in this file"
        );
    }

    let kind_row = spec
        .lines()
        .find(|l| l.contains("| kind "))
        .expect("frame header table has a kind row");
    let kinds = [
        (FrameKind::Request, "request"),
        (FrameKind::Response, "response"),
        (FrameKind::Error, "error"),
        (FrameKind::ReplSubscribe, "repl-subscribe"),
        (FrameKind::ReplSnapshot, "repl-snapshot"),
        (FrameKind::ReplDelta, "repl-delta"),
    ];
    for (kind, name) in kinds {
        let header = FrameHeader {
            kind,
            payload_len: 0,
            request_id: 0,
        };
        let entry = format!("`{:02x}` {name}", header.encode()[5]);
        assert!(kind_row.contains(&entry), "kind row lacks {entry}");
    }
    assert_eq!(
        kind_row.matches('`').count(),
        2 * kinds.len(),
        "kind row names a frame kind the codec does not have"
    );
}

#[test]
fn spec_names_the_current_wire_version() {
    let spec = std::fs::read_to_string(repo_path("specs/wire_protocol.md"))
        .expect("specs/wire_protocol.md");
    assert!(
        spec.contains(&format!("`WIRE_VERSION = {WIRE_VERSION}`")),
        "specs/wire_protocol.md must state `WIRE_VERSION = {WIRE_VERSION}`"
    );
}

// ----- round-trips -----------------------------------------------------

#[test]
fn every_request_variant_round_trips() {
    let (uni, policy) = test_world();
    for req in all_requests(&policy) {
        let bytes = wire::encode_request(&req);
        let back = wire::decode_request(&bytes, &uni)
            .unwrap_or_else(|e| panic!("decode of {req:?} failed: {e}"));
        assert_eq!(
            wire::encode_request(&back),
            bytes,
            "re-encode mismatch for {req:?}"
        );
    }
}

#[test]
fn every_response_variant_round_trips() {
    for resp in all_responses() {
        let bytes = wire::encode_response(&resp);
        let back = wire::decode_response(&bytes)
            .unwrap_or_else(|e| panic!("decode of {resp:?} failed: {e}"));
        assert_eq!(
            wire::encode_response(&back),
            bytes,
            "re-encode mismatch for {resp:?}"
        );
    }
}

#[test]
fn every_error_variant_round_trips() {
    for err in all_errors() {
        let bytes = wire::encode_error(&err);
        let back =
            wire::decode_error(&bytes).unwrap_or_else(|e| panic!("decode of {err:?} failed: {e}"));
        assert_eq!(
            wire::encode_error(&back),
            bytes,
            "re-encode mismatch for {err:?}"
        );
    }
}

#[test]
fn replication_payloads_round_trip() {
    let (uni, policy) = test_world();

    for last_applied in [None, Some(0), Some(41)] {
        let bytes = wire::encode_repl_subscribe(7, last_applied);
        assert_eq!(
            wire::decode_repl_subscribe(&bytes).expect("subscribe decodes"),
            (7, last_applied)
        );
    }

    let state = adminref_store::encode_state(&uni, &policy, &ConstraintSet::default());
    let bytes = wire::encode_repl_snapshot(3, 42, &state);
    let (term, epoch, blob) = wire::decode_repl_snapshot(&bytes).expect("snapshot decodes");
    assert_eq!((term, epoch), (3, 42));
    assert_eq!(blob, state);

    let deltas = vec![
        EdgeDelta {
            edge: Edge::UserRole(UserId::from_index(1), RoleId::from_index(3)),
            added: true,
        },
        EdgeDelta {
            edge: Edge::RolePriv(RoleId::from_index(0), PrivId::from_index(2)),
            added: false,
        },
    ];
    let bytes = wire::encode_repl_delta(3, 43, &deltas, 0xFEED_FACE_0000_1111);
    let frame = wire::decode_repl_delta(&bytes).expect("delta decodes");
    assert_eq!(frame.term, 3);
    assert_eq!(frame.epoch, 43);
    assert_eq!(frame.deltas, deltas);
    assert_eq!(frame.checksum, 0xFEED_FACE_0000_1111);
}

#[test]
fn backend_error_crosses_as_display_string() {
    let back = wire::decode_error(&wire::encode_error(&backend_error())).expect("decodes");
    match back {
        ServiceError::Backend { applied, error } => {
            assert_eq!(applied.len(), 1);
            assert!(error.to_string().contains("disk full"));
        }
        other => panic!("expected Backend, got {other:?}"),
    }
}

// ----- adversarial frames ----------------------------------------------

#[test]
fn adversarial_headers_yield_typed_errors() {
    let good = FrameHeader {
        kind: FrameKind::Request,
        payload_len: 4,
        request_id: 9,
    }
    .encode();

    let mut bad_magic = good;
    bad_magic[0] = b'X';
    assert!(matches!(
        FrameHeader::parse(&bad_magic),
        Err(WireError::BadMagic(_))
    ));

    let mut future_version = good;
    future_version[4] = WIRE_VERSION + 1;
    assert!(matches!(
        FrameHeader::parse(&future_version),
        Err(WireError::UnsupportedVersion { got, supported })
            if got == WIRE_VERSION + 1 && supported == WIRE_VERSION
    ));

    let mut bad_kind = good;
    bad_kind[5] = 77;
    assert!(matches!(
        FrameHeader::parse(&bad_kind),
        Err(WireError::BadFrameKind(77))
    ));

    let mut oversized = good;
    oversized[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert!(matches!(
        FrameHeader::parse(&oversized),
        Err(WireError::Oversized { .. })
    ));

    // Reserved bytes are ignored on receipt.
    let mut reserved_set = good;
    reserved_set[6] = 0xAA;
    reserved_set[7] = 0xBB;
    assert!(FrameHeader::parse(&reserved_set).is_ok());
}

#[test]
fn truncated_streams_yield_truncated_not_panics() {
    let frame = frame_bytes(
        FrameKind::Request,
        3,
        &wire::encode_request(&Request::Stats),
    );
    // Clean EOF at a frame boundary is Ok(None)…
    assert!(matches!(wire::read_frame(&mut &[][..]), Ok(None)));
    // …but EOF at every interior cut is a typed truncation.
    for cut in 1..frame.len() {
        let mut short = &frame[..cut];
        match wire::read_frame(&mut short) {
            Err(wire::FrameError::Wire(WireError::Truncated)) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

/// Panics if any single `read` is handed a buffer over 1 MiB.
struct SmallReads<R>(R);

impl<R: std::io::Read> std::io::Read for SmallReads<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        assert!(
            buf.len() <= 1 << 20,
            "read into a {}-byte buffer",
            buf.len()
        );
        self.0.read(buf)
    }
}

/// A header announcing the largest payload, followed by three bytes:
/// the reader grows its buffer as bytes arrive instead of allocating
/// the announced length up front, and still reports a truncation.
#[test]
fn announced_length_is_not_allocated_before_it_arrives() {
    let header = FrameHeader {
        kind: FrameKind::Request,
        payload_len: MAX_PAYLOAD,
        request_id: 1,
    };
    let mut stream = header.encode().to_vec();
    stream.extend_from_slice(&[1, 2, 3]);
    match wire::read_frame(&mut SmallReads(&stream[..])) {
        Err(wire::FrameError::Wire(WireError::Truncated)) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_and_bad_tags_are_rejected() {
    let (uni, _) = test_world();
    let mut padded = wire::encode_request(&Request::Version);
    padded.push(0);
    assert!(matches!(
        wire::decode_request(&padded, &uni),
        Err(WireError::TrailingBytes { extra: 1 })
    ));

    // Tag 200 names no request.
    assert!(matches!(
        wire::decode_request(&[200, 1], &uni),
        Err(WireError::BadTag {
            what: "request",
            ..
        })
    ));
    assert!(matches!(
        wire::decode_response(&[200, 1]),
        Err(WireError::BadTag {
            what: "response",
            ..
        })
    ));
    assert!(matches!(
        wire::decode_error(&[200, 1]),
        Err(WireError::BadTag { what: "error", .. })
    ));
}

#[test]
fn out_of_range_ids_are_refused_at_the_boundary() {
    let (uni, _) = test_world();
    let req = Request::CreateSession {
        user: UserId::from_index(uni.user_count() + 10),
    };
    assert!(matches!(
        wire::validate_request(&req, &uni),
        Err(WireError::IdOutOfRange { what: "user", .. })
    ));
    let req = Request::Submit {
        commands: vec![cmd(
            0,
            CommandKind::Grant,
            Edge::UserRole(UserId::from_index(0), RoleId::from_index(uni.role_count())),
        )],
    };
    assert!(matches!(
        wire::validate_request(&req, &uni),
        Err(WireError::IdOutOfRange { what: "role", .. })
    ));
}

/// A declared element count of 2^40 with nothing behind it: the list
/// decoder reserves at most its clamp, then the first element hits the
/// end of the payload — a typed error, not a terabyte allocation.
#[test]
fn hostile_list_counts_hit_eof_not_the_allocator() {
    let (uni, _) = test_world();
    let hostile = |prefix: &[u8]| {
        let mut payload = prefix.to_vec();
        (1u64 << 40).put(&mut payload);
        payload
    };
    let eof = WireError::Codec(CodecError::UnexpectedEof);
    // Request tags 5 Submit, 13 Lint (the list is the first field).
    for tag in [5, 13] {
        assert_eq!(
            wire::decode_request(&hostile(&[tag]), &uni).err(),
            Some(eof.clone())
        );
    }
    // Response tags 5 Outcomes, 8 Audit, 14 Impact (list first), and
    // 12 Lint (two counters, then the findings).
    for prefix in [&[5u8][..], &[8], &[14], &[12, 0, 0]] {
        assert_eq!(
            wire::decode_response(&hostile(prefix)).err(),
            Some(eof.clone())
        );
    }
    // Error tag 11 Admission.
    assert_eq!(wire::decode_error(&hostile(&[11])).err(), Some(eof.clone()));
    // repl-delta: term, epoch, then the deltas.
    assert_eq!(wire::decode_repl_delta(&hostile(&[1, 1])).err(), Some(eof));
}

/// An id is a varint that must fit `u32`; a larger one is a typed
/// overflow wherever ids appear, not a failed conversion.
#[test]
fn ids_past_u32_are_typed_errors() {
    let (uni, _) = test_world();
    let overflow = WireError::Codec(CodecError::VarintOverflow);
    let mut too_big = Vec::new();
    (1u64 << 32).put(&mut too_big);
    // Request tag 1 CreateSession { user }.
    let request = [&[1u8][..], &too_big].concat();
    assert_eq!(
        wire::decode_request(&request, &uni).err(),
        Some(overflow.clone())
    );
    // Error tag 1 ActivationDenied: user, then role.
    let error = [&[1u8, 0][..], &too_big].concat();
    assert_eq!(wire::decode_error(&error).err(), Some(overflow.clone()));
    // The layouts the WAL shares — command, edge, constraint set — are
    // the same rule: actor 2^32 + 1 is not user 1, whose command would
    // then pass `validate_request`.
    let mut actor = Vec::new();
    ((1u64 << 32) + 1).put(&mut actor);
    for tag in [5u8, 15] {
        // Submit / Analyze: one command, actor first, then grant (0, 0).
        let request = [&[tag, 1][..], &actor, &[0, 0, 0, 0]].concat();
        assert_eq!(
            wire::decode_request(&request, &uni).err(),
            Some(overflow.clone())
        );
    }
    // SetConstraints: one SoD pair whose second role is past u32; then
    // no pair, no level, one frozen edge (role 0, term 2^32).
    let pair = [&[16u8, 1, 0][..], &too_big, &[0, 0]].concat();
    let frozen = [&[16u8, 0, 0, 1, 2, 0][..], &too_big].concat();
    for request in [pair, frozen] {
        assert_eq!(
            wire::decode_request(&request, &uni).err(),
            Some(overflow.clone())
        );
    }
}

// ----- mutation fuzzing ------------------------------------------------

/// Overwrites the byte at `pos` (modulo the length) with `byte`.
fn corrupt(mut bytes: Vec<u8>, pos: usize, byte: u8) -> Vec<u8> {
    if !bytes.is_empty() {
        let at = pos % bytes.len();
        bytes[at] = byte;
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single-byte corruption of any valid request payload decodes
    /// to Ok or a typed error — never a panic, and trailing bytes never
    /// survive silently.
    #[test]
    fn mutated_request_payloads_never_panic(which in any::<usize>(), pos in any::<usize>(), byte in any::<u8>()) {
        let (uni, policy) = test_world();
        let reqs = all_requests(&policy);
        let bytes = corrupt(wire::encode_request(&reqs[which % reqs.len()]), pos, byte);
        // Either outcome is fine; reaching this line without a panic
        // (and without unbounded allocation) is the property.
        let _ = wire::decode_request(&bytes, &uni);
    }

    /// Same for response payloads, including truncation at every depth.
    #[test]
    fn mutated_response_payloads_never_panic(which in any::<usize>(), cut in any::<usize>(), byte in any::<u8>()) {
        let resps = all_responses();
        let mut bytes = wire::encode_response(&resps[which % resps.len()]);
        let keep = cut % (bytes.len() + 1);
        bytes.truncate(keep);
        if let Some(last) = bytes.last_mut() {
            *last = byte;
        }
        let _ = wire::decode_response(&bytes);
    }

    /// Same for error and replication payloads, corrupted or cut short.
    #[test]
    fn mutated_error_and_replication_payloads_never_panic(which in any::<usize>(), pos in any::<usize>(), byte in any::<u8>(), cut in any::<bool>()) {
        let samples: Vec<_> = sample_payloads()
            .into_iter()
            .filter(|s| s.0 == "error" || s.0 == "repl")
            .collect();
        let (_, _, kind, payload) = &samples[which % samples.len()];
        let mut bytes = corrupt(payload.clone(), pos, byte);
        if cut {
            bytes.truncate(pos % (bytes.len() + 1));
        }
        match kind {
            FrameKind::Error => drop(wire::decode_error(&bytes)),
            FrameKind::ReplSubscribe => drop(wire::decode_repl_subscribe(&bytes)),
            FrameKind::ReplSnapshot => drop(wire::decode_repl_snapshot(&bytes)),
            FrameKind::ReplDelta => drop(wire::decode_repl_delta(&bytes)),
            FrameKind::Request | FrameKind::Response => unreachable!("filtered above"),
        }
    }

    /// Random 20-byte headers parse to a typed result, never a panic.
    #[test]
    fn random_headers_never_panic(seed in 0u64..10_000) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut header = [0u8; HEADER_LEN];
        for b in &mut header {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = state as u8;
        }
        let _ = FrameHeader::parse(&header);
    }
}
