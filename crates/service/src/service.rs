//! [`MonitorService`]: the [`PolicyService`] server over one
//! [`ReferenceMonitor`], with group-commit writes.
//!
//! Two servers exist for one monitor alphabet:
//!
//! * [`MonitorService`] — the production path. `Submit` requests go
//!   through the [`GroupCommit`] combiner, so concurrent writers
//!   coalesce into one batch / one WAL sync / one index rebuild / one
//!   published epoch per drain.
//! * `impl PolicyService for ReferenceMonitor` — the per-call baseline:
//!   every `Submit` takes the writer mutex for itself and pays a full
//!   publication. It is the drop-in adapter when a single caller
//!   already owns a monitor.

use adminref_core::ids::Entity;
use adminref_core::reach::ReachIndex;
use adminref_core::refinement::violations_between;
use adminref_core::safety::SafetyConfig;
use adminref_monitor::{MonitorConfig, ReferenceMonitor};

use crate::group_commit::GroupCommit;
use crate::protocol::{
    PolicyService, RefinementDirection, RefinementReply, Request, Response, ServiceError,
    ServiceStats, VersionInfo,
};

/// A [`PolicyService`] over one reference monitor, with group-commit
/// writes. See the [crate docs](crate) for the serving model.
pub struct MonitorService {
    monitor: ReferenceMonitor,
    writes: GroupCommit,
}

impl MonitorService {
    /// Wraps an existing monitor.
    pub fn new(monitor: ReferenceMonitor) -> Self {
        MonitorService {
            monitor,
            writes: GroupCommit::new(),
        }
    }

    /// Sets a leader gather window on the write combiner: the group
    /// leader waits this long after its first drain, folding in
    /// requests that arrive meanwhile, before executing. Keep it zero
    /// (the default) for local callers; a network daemon serving
    /// pipelined connections sets a few tens of microseconds so a
    /// round-trip's straggler train still coalesces into one batch —
    /// see [`GroupCommit::with_gather`].
    pub fn with_write_gather(mut self, gather: std::time::Duration) -> Self {
        self.writes = GroupCommit::with_gather(gather);
        self
    }

    /// Convenience: an in-memory monitor over the given state.
    pub fn in_memory(
        universe: adminref_core::universe::Universe,
        policy: adminref_core::policy::Policy,
        config: MonitorConfig,
    ) -> Self {
        MonitorService::new(ReferenceMonitor::new(universe, policy, config))
    }

    /// The underlying monitor (reads, analyses, and maintenance ops like
    /// `compact`/`sync` remain directly available).
    pub fn monitor(&self) -> &ReferenceMonitor {
        &self.monitor
    }
}

impl PolicyService for MonitorService {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        match request {
            // The write path: coalesce with every request in flight.
            Request::Submit { commands } => self
                .writes
                .submit(&self.monitor, commands)
                .map(Response::Outcomes),
            read => dispatch(&self.monitor, read),
        }
    }

    /// A burst's `Submit`s enter the combiner together; reads are
    /// served per request (see `call_burst`).
    fn call_many(&self, requests: Vec<Request>) -> Vec<Result<Response, ServiceError>> {
        call_burst(&self.writes, &self.monitor, requests, |read| {
            dispatch(&self.monitor, read)
        })
    }
}

/// Burst shaping, shared by every group-commit server: the burst's
/// `Submit`s enqueue into the combiner under one queue acquisition
/// (guaranteed same drain); every other request is served per request
/// by `serve_other`. Results come back in request order either way.
pub(crate) fn call_burst(
    writes: &GroupCommit,
    monitor: &ReferenceMonitor,
    requests: Vec<Request>,
    serve_other: impl Fn(Request) -> Result<Response, ServiceError>,
) -> Vec<Result<Response, ServiceError>> {
    let mut batches: Vec<Vec<adminref_core::command::Command>> = Vec::new();
    // `None` marks a `Submit`'s place in the burst.
    let others: Vec<Option<Request>> = requests
        .into_iter()
        .map(|request| match request {
            Request::Submit { commands } => {
                batches.push(commands);
                None
            }
            other => Some(other),
        })
        .collect();
    let mut write_results = writes.submit_many(monitor, batches).into_iter();
    others
        .into_iter()
        .map(|entry| match entry {
            Some(other) => serve_other(other),
            None => match write_results.next() {
                Some(result) => result.map(Response::Outcomes),
                // Unreachable: submit_many returns one result per
                // enqueued request.
                None => Err(ServiceError::Aborted),
            },
        })
        .collect()
}

/// The per-call baseline server: `Submit` executes immediately under
/// the writer mutex (one lock acquisition, WAL sync, index rebuild, and
/// epoch per request). Reads are identical to [`MonitorService`].
impl PolicyService for ReferenceMonitor {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        dispatch(self, request)
    }
}

/// Serves one request directly against a monitor. `Submit` runs as one
/// per-call batch; group-commit servers intercept it before reaching
/// here.
pub(crate) fn dispatch(
    monitor: &ReferenceMonitor,
    request: Request,
) -> Result<Response, ServiceError> {
    match request {
        Request::CheckAccess { session, perm } => {
            Ok(Response::Access(monitor.check_access(session, perm)?))
        }
        Request::CreateSession { user } => {
            Ok(Response::SessionCreated(monitor.create_session(user)))
        }
        Request::ActivateRole { session, role } => {
            monitor.activate_role(session, role)?;
            Ok(Response::RoleActivated)
        }
        Request::DeactivateRole { session, role } => Ok(Response::RoleDeactivated(
            monitor.deactivate_role(session, role)?,
        )),
        Request::DropSession { session } => {
            Ok(Response::SessionDropped(monitor.drop_session(session)))
        }
        Request::Submit { commands } => {
            let (outcomes, error) = monitor.submit_batch_outcomes(&commands);
            match error {
                None => Ok(Response::Outcomes(outcomes)),
                Some(adminref_monitor::MonitorError::Store(store_error)) => {
                    Err(ServiceError::Backend {
                        applied: outcomes,
                        error: store_error,
                    })
                }
                Some(other) => Err(other.into()),
            }
        }
        Request::AnalyzeReach {
            entity,
            perm,
            config,
        } => Ok(Response::Reach(analyze(monitor, entity, perm, config))),
        Request::CheckRefinement {
            candidate,
            direction,
            max_witnesses,
        } => check_refinement(monitor, candidate, direction, max_witnesses),
        Request::AuditTail { max } => Ok(Response::Audit(monitor.audit_tail(max))),
        Request::AuditSince { after, max } => {
            Ok(Response::Audit(monitor.audit_events_since(after, max)))
        }
        Request::Version => {
            let (epoch, checksum) = monitor.version_checksum();
            Ok(Response::Version(VersionInfo { epoch, checksum }))
        }
        Request::Stats => Ok(Response::Stats(stats(monitor))),
        Request::Compact => {
            monitor.compact()?;
            Ok(Response::Compacted)
        }
        Request::Lint { sod_pairs } => Ok(Response::Lint(monitor.lint_policy(sod_pairs))),
        Request::Analyze { commands } => Ok(Response::Impact(monitor.analyze_batch(&commands))),
        Request::SetConstraints { constraints } => {
            monitor.set_constraints(constraints)?;
            Ok(Response::Constraints((*monitor.constraints()).clone()))
        }
        Request::GetConstraints => Ok(Response::Constraints((*monitor.constraints()).clone())),
        // A bare monitor is always writable; `promote` is idempotent and
        // answers term 0 ("replication not enabled"). The replication
        // hub's service wrapper intercepts this for real followers.
        Request::Promote => Ok(Response::Promoted {
            term: 0,
            epoch: monitor.version(),
        }),
    }
}

fn analyze(
    monitor: &ReferenceMonitor,
    entity: Entity,
    perm: adminref_core::ids::Perm,
    config: SafetyConfig,
) -> adminref_core::safety::ReachabilityAnswer {
    monitor.analyze_perm_reachable(entity, perm, config)
}

/// Definition-6 refinement between the live policy and a caller-supplied
/// candidate, answered from the published snapshot (never blocks the
/// writer).
fn check_refinement(
    monitor: &ReferenceMonitor,
    candidate: adminref_core::policy::Policy,
    direction: RefinementDirection,
    max_witnesses: usize,
) -> Result<Response, ServiceError> {
    let snapshot = monitor.read_snapshot();
    // The tag rejects policies from unrelated universes, but clones
    // preserve tags — a candidate built on a client-*extended* clone
    // carries the right tag with out-of-range ids, so the bounds check
    // is what keeps a malformed request from panicking the server.
    if candidate.universe_tag() != snapshot.universe().tag()
        || !candidate.ids_in_bounds(snapshot.universe())
    {
        return Err(ServiceError::ForeignPolicy);
    }
    // The live policy's index is prebuilt in the snapshot; only the
    // candidate's needs building.
    let live = snapshot.policy();
    let live_idx = snapshot.reach();
    let candidate_idx = ReachIndex::build(snapshot.universe(), &candidate);
    let (phi, phi_idx, psi, psi_idx) = match direction {
        RefinementDirection::CandidateRefinesLive => (live, live_idx, &candidate, &candidate_idx),
        RefinementDirection::LiveRefinesCandidate => (&candidate, &candidate_idx, live, live_idx),
    };
    let violations = violations_between(snapshot.universe(), phi, phi_idx, psi, psi_idx, false);
    let total_violations = violations.len();
    let witnesses = violations
        .into_iter()
        .take(max_witnesses)
        .collect::<Vec<_>>();
    Ok(Response::Refinement(RefinementReply {
        holds: total_violations == 0,
        total_violations,
        witnesses,
    }))
}

fn stats(monitor: &ReferenceMonitor) -> ServiceStats {
    let snapshot = monitor.read_snapshot();
    let (analyses_run, analyses_indefinite) = monitor.analysis_counts();
    let (lints_run, lint_findings) = monitor.lint_counts();
    ServiceStats {
        epoch: snapshot.epoch,
        checksum: snapshot.checksum(),
        users: snapshot.universe().user_count(),
        roles: snapshot.universe().role_count(),
        edges: snapshot.policy().edge_count(),
        sessions: monitor.session_count(),
        audit_retained: monitor.audit_len(),
        forced_deactivations: monitor.session_revocations_total(),
        analyses_run,
        analyses_indefinite,
        lints_run,
        lint_findings,
        recovery: monitor.recovery_report(),
        replication: None,
    }
}
