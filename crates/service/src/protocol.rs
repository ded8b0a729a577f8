//! The typed request/response protocol: one [`Request`] / [`Response`]
//! enum pair covering the whole monitor alphabet, one unified
//! [`ServiceError`], and the [`PolicyService`] trait every server
//! implements.
//!
//! The protocol is the *single* public surface: every capability of the
//! reference monitor — access checks, session lifecycle, administrative
//! command batches, reachability and refinement analyses, audit reads,
//! version/stats — is one `Request` variant, answered by exactly one
//! `Response` variant or the unified error. Typed convenience methods
//! ([`PolicyService::check_access`], [`PolicyService::submit`], …) are
//! thin wrappers that build the request, call [`PolicyService::call`],
//! and destructure the response, so adding a transport (wire encoding,
//! sharding proxy, recording proxy) means implementing one method.

use adminref_core::admission::{AdmissionReport, ConstraintSet, ImpactReport};
use adminref_core::command::Command;
use adminref_core::ids::{Entity, Perm, RoleId, UserId};
use adminref_core::lint::LintReport;
use adminref_core::policy::Policy;
use adminref_core::refinement::RefinementViolation;
use adminref_core::safety::{ReachabilityAnswer, SafetyConfig};
use adminref_core::session::SessionError;
use adminref_core::transition::StepOutcome;
use adminref_monitor::{AuditEvent, MonitorError, SessionId};
use adminref_store::{RecoveryReport, StoreError};

/// One request over the monitor alphabet.
///
/// # Examples
///
/// ```
/// use adminref_core::prelude::*;
/// use adminref_monitor::{MonitorConfig, ReferenceMonitor};
/// use adminref_service::{MonitorService, PolicyService, Request, Response};
///
/// let (uni, policy) = PolicyBuilder::new()
///     .assign("diana", "nurse")
///     .permit("nurse", "read", "t1")
///     .finish();
/// let diana = uni.find_user("diana").unwrap();
/// let nurse = uni.find_role("nurse").unwrap();
/// let mut probe = uni.clone();
/// let read_t1 = probe.perm("read", "t1");
///
/// let svc = MonitorService::in_memory(uni, policy, MonitorConfig::default());
/// // Session lifecycle and access checks, through the raw protocol:
/// let Response::SessionCreated(sid) = svc.call(Request::CreateSession { user: diana })? else {
///     unreachable!()
/// };
/// svc.call(Request::ActivateRole { session: sid, role: nurse })?;
/// let Response::Access(granted) =
///     svc.call(Request::CheckAccess { session: sid, perm: read_t1 })?
/// else {
///     unreachable!()
/// };
/// assert!(granted);
/// # Ok::<(), adminref_service::ServiceError>(())
/// ```
#[derive(Clone, Debug)]
pub enum Request {
    /// Access check: do the session's active roles reach `perm`?
    CheckAccess {
        /// The session to check.
        session: SessionId,
        /// The requested user privilege.
        perm: Perm,
    },
    /// Starts a session for `user`.
    CreateSession {
        /// The session's user.
        user: UserId,
    },
    /// Activates `role` in `session` (`u →φ r` against the current
    /// published epoch).
    ActivateRole {
        /// The session.
        session: SessionId,
        /// The role to activate.
        role: RoleId,
    },
    /// Deactivates `role` in `session`.
    DeactivateRole {
        /// The session.
        session: SessionId,
        /// The role to deactivate.
        role: RoleId,
    },
    /// Ends a session.
    DropSession {
        /// The session to end.
        session: SessionId,
    },
    /// Submits administrative commands as **one atomic batch**: executed
    /// serially under Definition 5, synced/published as one epoch, and
    /// answered with one [`StepOutcome`] per command.
    Submit {
        /// The commands, applied front to back.
        commands: Vec<Command>,
    },
    /// Bounded safety analysis against a snapshot of the live policy:
    /// can `entity` come to hold `perm`?
    AnalyzeReach {
        /// The entity under analysis.
        entity: Entity,
        /// The user privilege of interest.
        perm: Perm,
        /// Search bounds (`auth_mode` is overridden with the serving
        /// monitor's own mode).
        config: SafetyConfig,
    },
    /// Refinement check (Definition 6) between the live policy and a
    /// caller-supplied candidate over the same universe.
    CheckRefinement {
        /// The candidate policy (must be resolved against the serving
        /// monitor's universe; see [`ServiceError::ForeignPolicy`]).
        candidate: Policy,
        /// Which policy plays `φ` and which `ψ`.
        direction: RefinementDirection,
        /// Cap on returned violation witnesses (the total count is
        /// always exact).
        max_witnesses: usize,
    },
    /// Copies out at most the last `max` retained audit events.
    AuditTail {
        /// Maximum events to return.
        max: usize,
    },
    /// Copies out up to `max` retained events with `seq > after` — the
    /// incremental shipping pattern.
    AuditSince {
        /// Return only events with a larger sequence number.
        after: u64,
        /// Maximum events to return.
        max: usize,
    },
    /// The published epoch id and state checksum.
    Version,
    /// Cheap live counters (epoch, population, sessions, audit).
    Stats,
    /// Failover: asks a replica to stop following and become a writable
    /// primary under a new, higher replication term. Idempotent on a
    /// server that is already a primary (it answers with its current
    /// term, or term 0 when replication is not enabled).
    Promote,
    /// Admin op: folds a durable backend's WAL into a fresh snapshot
    /// (a no-op on in-memory monitors). Complements the monitor's
    /// automatic post-publish compaction for operator-driven
    /// maintenance windows.
    Compact,
    /// Static policy analysis over the published snapshot: the
    /// monitor's lint pass with optional caller-supplied
    /// separation-of-duty role pairs.
    Lint {
        /// Role pairs no single user/role may bridge (the SoD rule).
        sod_pairs: Vec<(RoleId, RoleId)>,
    },
    /// Batch impact analysis: simulates `commands` against the
    /// published snapshot and reports the blast radius — flipped
    /// permission verdicts, sessions the publish would force-deactivate,
    /// grow-only classification changes, interval-status changes, and
    /// the admission findings the batch would be refused with — without
    /// committing anything.
    Analyze {
        /// The candidate batch, applied front to back in simulation.
        commands: Vec<Command>,
    },
    /// Replaces the durable admission [`ConstraintSet`] (WAL-persisted
    /// on durable monitors; refused with [`ServiceError::ReadOnly`] on
    /// replicas). Subsequent `Submit` batches are statically gated
    /// against it.
    SetConstraints {
        /// The new constraint set (normalized by the server).
        constraints: ConstraintSet,
    },
    /// Reads back the admission constraint set currently enforced.
    GetConstraints,
}

/// Which direction a [`Request::CheckRefinement`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefinementDirection {
    /// `live ⊒ candidate`: the candidate is a non-administrative
    /// refinement of the live policy (grants at most what it grants).
    CandidateRefinesLive,
    /// `candidate ⊒ live`: the live policy refines the candidate.
    LiveRefinesCandidate,
}

/// The reply to a [`Request::CheckRefinement`].
#[derive(Clone, Debug)]
pub struct RefinementReply {
    /// Whether the refinement holds (no violations).
    pub holds: bool,
    /// Exact number of violating `(entity, perm)` pairs.
    pub total_violations: usize,
    /// The first violations, capped at the request's `max_witnesses`.
    pub witnesses: Vec<RefinementViolation>,
}

/// The reply to a [`Request::Version`]: the published epoch id plus the
/// canonical policy-state checksum at that epoch (see
/// [`adminref_core::checksum`]). Equal `(epoch, checksum)` pairs from
/// two servers mean they hold byte-identical policy states — the cheap
/// cross-server comparison replication is built on, usable with or
/// without replication enabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VersionInfo {
    /// The published epoch id.
    pub epoch: u64,
    /// The canonical policy-state checksum at that epoch.
    pub checksum: u64,
}

/// Which side of a replication pair a server is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicationRole {
    /// Accepts writes; streams delta frames to subscribed replicas.
    Primary,
    /// Follows a primary's delta stream; refuses writes with
    /// [`ServiceError::ReadOnly`].
    Replica,
}

/// Replication observability, surfaced through [`ServiceStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicationStatus {
    /// This server's role.
    pub role: ReplicationRole,
    /// The replication term (fencing token): bumped on every promotion,
    /// so frames from a deposed primary carry a stale term and are
    /// rejected.
    pub term: u64,
    /// The last epoch this server applied from its primary (for a
    /// primary: its own published epoch).
    pub last_applied_epoch: u64,
    /// How many epochs this server trails the newest epoch its primary
    /// has announced (always 0 on a primary).
    pub lag: u64,
}

/// The reply to a [`Request::Stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceStats {
    /// The published epoch id.
    pub epoch: u64,
    /// The canonical policy-state checksum at that epoch.
    pub checksum: u64,
    /// Users interned in the published universe.
    pub users: usize,
    /// Roles interned in the published universe.
    pub roles: usize,
    /// Edges in the live policy.
    pub edges: usize,
    /// Currently live sessions.
    pub sessions: usize,
    /// Audit events currently retained.
    pub audit_retained: usize,
    /// Publish-time forced deactivations so far (stale-session
    /// revalidation; see the monitor's session revocation audit).
    pub forced_deactivations: u64,
    /// Safety analyses served so far.
    pub analyses_run: u64,
    /// Of those, how many ended `Unknown` — truncated with no unbounded
    /// engine able to close the instance. A growing share means the
    /// analysis bounds are too small for the live policy.
    pub analyses_indefinite: u64,
    /// Static lint passes served so far (the monitor's
    /// `lint_policy` entry point).
    pub lints_run: u64,
    /// Total findings those passes produced.
    pub lint_findings: u64,
    /// What recovery found when the backing store was opened (`None`
    /// for in-memory tenants and freshly created stores) — surfaced so
    /// a truncated torn tail or divergent replay is operator-visible
    /// instead of silently discarded.
    pub recovery: Option<RecoveryReport>,
    /// Replication status, when this server participates in replication
    /// (`None` for standalone servers).
    pub replication: Option<ReplicationStatus>,
}

/// One response; each [`Request`] variant is answered by exactly one
/// `Response` variant (see the table on [`PolicyService`]).
///
/// # Examples
///
/// ```
/// use adminref_core::prelude::*;
/// use adminref_monitor::{MonitorConfig, ReferenceMonitor};
/// use adminref_service::{MonitorService, PolicyService, Request, Response};
///
/// let (uni, policy) = PolicyBuilder::new()
///     .assign("jane", "hr")
///     .declare_user("bob")
///     .declare_role("staff")
///     .finish();
/// let jane = uni.find_user("jane").unwrap();
/// let bob = uni.find_user("bob").unwrap();
/// let staff = uni.find_role("staff").unwrap();
/// let mut admin_uni = uni.clone();
/// let grant = admin_uni.grant_user_role(bob, staff);
///
/// let svc = MonitorService::in_memory(admin_uni.clone(), {
///     let mut p = policy.clone();
///     p.add_edge(Edge::RolePriv(admin_uni.find_role("hr").unwrap(), grant));
///     p
/// }, MonitorConfig::default());
///
/// // An admin batch answers with one StepOutcome per command:
/// let batch = vec![Command::grant(jane, Edge::UserRole(bob, staff))];
/// let Response::Outcomes(outcomes) = svc.call(Request::Submit { commands: batch })? else {
///     unreachable!()
/// };
/// assert!(outcomes[0].executed());
/// // …and the epoch moved:
/// let Response::Version(info) = svc.call(Request::Version)? else { unreachable!() };
/// assert_eq!(info.epoch, 1);
/// # Ok::<(), adminref_service::ServiceError>(())
/// ```
#[derive(Clone, Debug)]
pub enum Response {
    /// Answer to [`Request::CheckAccess`].
    Access(bool),
    /// Answer to [`Request::CreateSession`].
    SessionCreated(SessionId),
    /// Answer to [`Request::ActivateRole`].
    RoleActivated,
    /// Answer to [`Request::DeactivateRole`]; `true` if it was active.
    RoleDeactivated(bool),
    /// Answer to [`Request::DropSession`]; `true` if it existed.
    SessionDropped(bool),
    /// Answer to [`Request::Submit`]: one outcome per command.
    Outcomes(Vec<StepOutcome>),
    /// Answer to [`Request::AnalyzeReach`].
    Reach(ReachabilityAnswer),
    /// Answer to [`Request::CheckRefinement`].
    Refinement(RefinementReply),
    /// Answer to [`Request::AuditTail`] / [`Request::AuditSince`].
    Audit(Vec<AuditEvent>),
    /// Answer to [`Request::Version`].
    Version(VersionInfo),
    /// Answer to [`Request::Stats`].
    Stats(ServiceStats),
    /// Answer to [`Request::Compact`].
    Compacted,
    /// Answer to [`Request::Lint`].
    Lint(LintReport),
    /// Answer to [`Request::Promote`]: the (possibly new) replication
    /// term this server is now primary under, and its published epoch.
    Promoted {
        /// The replication term after the promotion.
        term: u64,
        /// The published epoch at promotion time.
        epoch: u64,
    },
    /// Answer to [`Request::Analyze`].
    Impact(ImpactReport),
    /// Answer to [`Request::SetConstraints`] (echoing the normalized
    /// set now enforced) and [`Request::GetConstraints`].
    Constraints(ConstraintSet),
}

/// The unified error type of the protocol.
#[derive(Debug)]
pub enum ServiceError {
    /// The session id is unknown (or was closed, or forged).
    UnknownSession(SessionId),
    /// Session-level refusal (e.g. role activation denied).
    Session(SessionError),
    /// Durable-backend failure. `applied` holds the outcomes of the
    /// request's own commands that executed (the applied prefix —
    /// audited and published). On a mid-batch append failure the prefix
    /// is also durable; on a batch-final sync failure every command of
    /// the request appears in `applied` but durability is in doubt.
    Backend {
        /// Outcomes of this request's applied prefix.
        applied: Vec<StepOutcome>,
        /// The underlying store failure.
        error: StoreError,
    },
    /// The request was not attempted: an earlier request in the same
    /// commit group hit a backend failure. No effect on the policy;
    /// safe to retry.
    Aborted,
    /// A [`Request::CheckRefinement`] candidate was built against a
    /// different universe than the serving monitor's.
    ForeignPolicy,
    /// A tenant id was syntactically invalid. (Retired with the two
    /// after it: see their rows in [`wire`](crate::wire).)
    InvalidTenant(String),
    /// A tenant did not exist and was not to be created.
    UnknownTenant(String),
    /// Recovery of a tenant's store replayed entries whose recorded
    /// authorization outcome diverged — the log and snapshot are from
    /// different histories — so serving it would answer from a state
    /// no serial history produced.
    Recovery {
        /// The tenant whose store diverged.
        tenant: String,
        /// Number of divergent log entries.
        divergent: usize,
    },
    /// The server is a read replica: it serves the full read-only
    /// alphabet but refuses state-changing requests (`Submit`,
    /// `Compact`, `SetConstraints`). Retry against the primary, or
    /// promote this replica first ([`Request::Promote`]).
    ReadOnly,
    /// The admission gate refused the batch: the *candidate* state a
    /// `Submit` would have published violates the durable constraint
    /// set. Nothing was logged, audited or published; the report names
    /// each violation. Not retryable as-is — amend the batch or the
    /// constraints.
    Admission(AdmissionReport),
    /// A typed wrapper received a response variant that does not answer
    /// its request — a server bug, never the caller's fault.
    Protocol {
        /// The response variant the wrapper expected.
        expected: &'static str,
    },
    /// The transport under a remote client failed: connection refused or
    /// reset, a malformed or oversized frame, an unsupported wire
    /// version. Only remote transports (see `adminref_service::client`)
    /// produce this; in-process servers never do.
    Transport {
        /// Human-readable description of the transport failure.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            ServiceError::Session(e) => write!(f, "session error: {e}"),
            ServiceError::Backend { applied, error } => write!(
                f,
                "backend failure after {} applied command(s): {error}",
                applied.len()
            ),
            ServiceError::Aborted => {
                write!(
                    f,
                    "request aborted: an earlier request in the commit group failed"
                )
            }
            ServiceError::ForeignPolicy => {
                write!(f, "candidate policy was built against a different universe")
            }
            ServiceError::InvalidTenant(t) => write!(f, "invalid tenant id {t:?}"),
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServiceError::Recovery { tenant, divergent } => write!(
                f,
                "tenant {tenant:?} refused: recovery replayed {divergent} divergent entr{}",
                if *divergent == 1 { "y" } else { "ies" }
            ),
            ServiceError::ReadOnly => {
                write!(f, "read-only replica: writes must go to the primary")
            }
            ServiceError::Protocol { expected } => {
                write!(f, "protocol violation: expected {expected} response")
            }
            ServiceError::Transport { message } => write!(f, "transport failure: {message}"),
            ServiceError::Admission(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<MonitorError> for ServiceError {
    fn from(e: MonitorError) -> Self {
        match e {
            MonitorError::UnknownSession(id) => ServiceError::UnknownSession(id),
            MonitorError::Session(s) => ServiceError::Session(s),
            MonitorError::Store(s) => ServiceError::Backend {
                applied: Vec::new(),
                error: s,
            },
            MonitorError::Admission(report) => ServiceError::Admission(report),
        }
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Backend {
            applied: Vec::new(),
            error: e,
        }
    }
}

/// A policy server: one entry point ([`call`](Self::call)) plus typed
/// convenience wrappers that are nothing but `call` + destructure.
///
/// | Request | Response | Wrapper |
/// |---------|----------|---------|
/// | `CheckAccess` | `Access` | [`check_access`](Self::check_access) |
/// | `CreateSession` | `SessionCreated` | [`create_session`](Self::create_session) |
/// | `ActivateRole` | `RoleActivated` | [`activate_role`](Self::activate_role) |
/// | `DeactivateRole` | `RoleDeactivated` | [`deactivate_role`](Self::deactivate_role) |
/// | `DropSession` | `SessionDropped` | [`drop_session`](Self::drop_session) |
/// | `Submit` | `Outcomes` | [`submit`](Self::submit) / [`submit_one`](Self::submit_one) |
/// | `AnalyzeReach` | `Reach` | [`analyze_reach`](Self::analyze_reach) |
/// | `CheckRefinement` | `Refinement` | [`check_refinement`](Self::check_refinement) |
/// | `AuditTail` / `AuditSince` | `Audit` | [`audit_tail`](Self::audit_tail) / [`audit_since`](Self::audit_since) |
/// | `Version` | `Version` | [`version`](Self::version) / [`version_info`](Self::version_info) |
/// | `Stats` | `Stats` | [`stats`](Self::stats) |
/// | `Compact` | `Compacted` | [`compact`](Self::compact) |
/// | `Lint` | `Lint` | [`lint`](Self::lint) |
/// | `Promote` | `Promoted` | [`promote`](Self::promote) |
/// | `Analyze` | `Impact` | [`analyze_batch`](Self::analyze_batch) |
/// | `SetConstraints` | `Constraints` | [`set_constraints`](Self::set_constraints) |
/// | `GetConstraints` | `Constraints` | [`get_constraints`](Self::get_constraints) |
pub trait PolicyService: Send + Sync {
    /// Serves one request.
    fn call(&self, request: Request) -> Result<Response, ServiceError>;

    /// Serves several requests from one caller, returning the results
    /// in request order.
    ///
    /// The default is a per-request loop over
    /// [`call`](PolicyService::call). Servers with a write combiner
    /// override it so that the `Submit` requests of one burst enter
    /// the combiner **together** (see
    /// [`GroupCommit::submit_many`](crate::group_commit::GroupCommit::submit_many));
    /// the network daemon uses this for frames that arrived on a
    /// connection back-to-back. Callers must not assume any ordering
    /// *between* the requests of one burst beyond what a set of
    /// concurrent `call`s would give them.
    fn call_many(&self, requests: Vec<Request>) -> Vec<Result<Response, ServiceError>> {
        requests.into_iter().map(|r| self.call(r)).collect()
    }

    /// Typed wrapper for [`Request::CheckAccess`].
    fn check_access(&self, session: SessionId, perm: Perm) -> Result<bool, ServiceError> {
        match self.call(Request::CheckAccess { session, perm })? {
            Response::Access(granted) => Ok(granted),
            _ => Err(ServiceError::Protocol { expected: "Access" }),
        }
    }

    /// Typed wrapper for [`Request::CreateSession`].
    fn create_session(&self, user: UserId) -> Result<SessionId, ServiceError> {
        match self.call(Request::CreateSession { user })? {
            Response::SessionCreated(id) => Ok(id),
            _ => Err(ServiceError::Protocol {
                expected: "SessionCreated",
            }),
        }
    }

    /// Typed wrapper for [`Request::ActivateRole`].
    fn activate_role(&self, session: SessionId, role: RoleId) -> Result<(), ServiceError> {
        match self.call(Request::ActivateRole { session, role })? {
            Response::RoleActivated => Ok(()),
            _ => Err(ServiceError::Protocol {
                expected: "RoleActivated",
            }),
        }
    }

    /// Typed wrapper for [`Request::DeactivateRole`].
    fn deactivate_role(&self, session: SessionId, role: RoleId) -> Result<bool, ServiceError> {
        match self.call(Request::DeactivateRole { session, role })? {
            Response::RoleDeactivated(was) => Ok(was),
            _ => Err(ServiceError::Protocol {
                expected: "RoleDeactivated",
            }),
        }
    }

    /// Typed wrapper for [`Request::DropSession`].
    fn drop_session(&self, session: SessionId) -> Result<bool, ServiceError> {
        match self.call(Request::DropSession { session })? {
            Response::SessionDropped(was) => Ok(was),
            _ => Err(ServiceError::Protocol {
                expected: "SessionDropped",
            }),
        }
    }

    /// Typed wrapper for [`Request::Submit`].
    fn submit(&self, commands: Vec<Command>) -> Result<Vec<StepOutcome>, ServiceError> {
        match self.call(Request::Submit { commands })? {
            Response::Outcomes(outcomes) => Ok(outcomes),
            _ => Err(ServiceError::Protocol {
                expected: "Outcomes",
            }),
        }
    }

    /// Submits a single command (a batch of one).
    fn submit_one(&self, command: Command) -> Result<StepOutcome, ServiceError> {
        let outcomes = self.submit(vec![command])?;
        outcomes.first().copied().ok_or(ServiceError::Protocol {
            expected: "Outcomes(len 1)",
        })
    }

    /// Typed wrapper for [`Request::AnalyzeReach`].
    fn analyze_reach(
        &self,
        entity: Entity,
        perm: Perm,
        config: SafetyConfig,
    ) -> Result<ReachabilityAnswer, ServiceError> {
        match self.call(Request::AnalyzeReach {
            entity,
            perm,
            config,
        })? {
            Response::Reach(answer) => Ok(answer),
            _ => Err(ServiceError::Protocol { expected: "Reach" }),
        }
    }

    /// Typed wrapper for [`Request::CheckRefinement`].
    fn check_refinement(
        &self,
        candidate: Policy,
        direction: RefinementDirection,
        max_witnesses: usize,
    ) -> Result<RefinementReply, ServiceError> {
        match self.call(Request::CheckRefinement {
            candidate,
            direction,
            max_witnesses,
        })? {
            Response::Refinement(reply) => Ok(reply),
            _ => Err(ServiceError::Protocol {
                expected: "Refinement",
            }),
        }
    }

    /// Typed wrapper for [`Request::AuditTail`].
    fn audit_tail(&self, max: usize) -> Result<Vec<AuditEvent>, ServiceError> {
        match self.call(Request::AuditTail { max })? {
            Response::Audit(events) => Ok(events),
            _ => Err(ServiceError::Protocol { expected: "Audit" }),
        }
    }

    /// Typed wrapper for [`Request::AuditSince`].
    fn audit_since(&self, after: u64, max: usize) -> Result<Vec<AuditEvent>, ServiceError> {
        match self.call(Request::AuditSince { after, max })? {
            Response::Audit(events) => Ok(events),
            _ => Err(ServiceError::Protocol { expected: "Audit" }),
        }
    }

    /// Typed wrapper for [`Request::Version`], returning only the epoch
    /// (see [`version_info`](Self::version_info) for the checksum too).
    fn version(&self) -> Result<u64, ServiceError> {
        Ok(self.version_info()?.epoch)
    }

    /// Typed wrapper for [`Request::Version`]: epoch plus state
    /// checksum.
    fn version_info(&self) -> Result<VersionInfo, ServiceError> {
        match self.call(Request::Version)? {
            Response::Version(info) => Ok(info),
            _ => Err(ServiceError::Protocol {
                expected: "Version",
            }),
        }
    }

    /// Typed wrapper for [`Request::Promote`]: returns the replication
    /// term the server is now primary under and its published epoch.
    fn promote(&self) -> Result<(u64, u64), ServiceError> {
        match self.call(Request::Promote)? {
            Response::Promoted { term, epoch } => Ok((term, epoch)),
            _ => Err(ServiceError::Protocol {
                expected: "Promoted",
            }),
        }
    }

    /// Typed wrapper for [`Request::Stats`].
    fn stats(&self) -> Result<ServiceStats, ServiceError> {
        match self.call(Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ServiceError::Protocol { expected: "Stats" }),
        }
    }

    /// Typed wrapper for [`Request::Compact`].
    fn compact(&self) -> Result<(), ServiceError> {
        match self.call(Request::Compact)? {
            Response::Compacted => Ok(()),
            _ => Err(ServiceError::Protocol {
                expected: "Compacted",
            }),
        }
    }

    /// Typed wrapper for [`Request::Lint`].
    fn lint(&self, sod_pairs: Vec<(RoleId, RoleId)>) -> Result<LintReport, ServiceError> {
        match self.call(Request::Lint { sod_pairs })? {
            Response::Lint(report) => Ok(report),
            _ => Err(ServiceError::Protocol { expected: "Lint" }),
        }
    }

    /// Typed wrapper for [`Request::Analyze`]: the batch's blast radius,
    /// computed without committing anything.
    fn analyze_batch(&self, commands: Vec<Command>) -> Result<ImpactReport, ServiceError> {
        match self.call(Request::Analyze { commands })? {
            Response::Impact(report) => Ok(report),
            _ => Err(ServiceError::Protocol { expected: "Impact" }),
        }
    }

    /// Typed wrapper for [`Request::SetConstraints`]: returns the
    /// normalized set the server now enforces.
    fn set_constraints(&self, constraints: ConstraintSet) -> Result<ConstraintSet, ServiceError> {
        match self.call(Request::SetConstraints { constraints })? {
            Response::Constraints(set) => Ok(set),
            _ => Err(ServiceError::Protocol {
                expected: "Constraints",
            }),
        }
    }

    /// Typed wrapper for [`Request::GetConstraints`].
    fn get_constraints(&self) -> Result<ConstraintSet, ServiceError> {
        match self.call(Request::GetConstraints)? {
            Response::Constraints(set) => Ok(set),
            _ => Err(ServiceError::Protocol {
                expected: "Constraints",
            }),
        }
    }
}

impl<T: PolicyService + ?Sized> PolicyService for &T {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        (**self).call(request)
    }

    fn call_many(&self, requests: Vec<Request>) -> Vec<Result<Response, ServiceError>> {
        (**self).call_many(requests)
    }
}

impl<T: PolicyService + ?Sized> PolicyService for std::sync::Arc<T> {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        (**self).call(request)
    }

    fn call_many(&self, requests: Vec<Request>) -> Vec<Result<Response, ServiceError>> {
        (**self).call_many(requests)
    }
}
