//! The RBAC reference monitor.
//!
//! One `ReferenceMonitor` owns the live administrative policy (its
//! published epoch, optionally backed by a durable [`PolicyStore`]),
//! manages user sessions (§2 of the paper), executes administrative
//! commands under a configured [`AuthMode`] (Definition 5, optionally
//! with the §4.1 ordering), and records every decision in the audit log.
//!
//! # Architecture: batched single writer, lock-free readers
//!
//! The paper separates rare administrative refinement steps from the
//! high-frequency authorization checks they govern, and the monitor's
//! concurrency model mirrors that split:
//!
//! * **Read path** — [`check_access`](ReferenceMonitor::check_access),
//!   [`snapshot`](ReferenceMonitor::snapshot),
//!   [`with_state`](ReferenceMonitor::with_state) and
//!   [`read_snapshot`](ReferenceMonitor::read_snapshot) never take the
//!   write path's lock. The current policy lives in an immutable,
//!   versioned [`PolicySnapshot`] (universe + policy + prebuilt
//!   [`ReachIndex`](adminref_core::reach::ReachIndex)) published through
//!   a lock-free epoch cell (`arc_swap`). A check writes no line another
//!   reader writes: it read-locks the one shard of the session table its
//!   session lives in (shards are cache-line aligned, so sessions in
//!   different shards share nothing), then answers from the index in
//!   place under a pin on its own thread's stripe of the epoch cell —
//!   no `Arc` count, no graph walk, no contention with the admin writer.
//!   Administrative commands never lock a session shard; only the
//!   post-publish revalidation sweep does, one shard at a time.
//! * **Write path** — [`submit`](ReferenceMonitor::submit) and
//!   [`submit_queue`](ReferenceMonitor::submit_queue) funnel through one
//!   writer mutex. A whole queue is applied as **one batch**, in one
//!   sequence whether or not constraints are declared: the batch is
//!   simulated against the published parent and the candidate child
//!   snapshot is **delta-derived from the parent epoch**
//!   ([`Candidate::derive`] over [`PolicySnapshot::next`] — structural
//!   sharing plus the batch's edge deltas, with a from-scratch rebuild
//!   fallback for SCC-restructuring batches or via
//!   [`PublishMode::FullRebuild`]); the admission gate judges that
//!   candidate; and the very candidate the gate judged is published
//!   atomically with `epoch = version() + 1`. Readers therefore observe
//!   only whole batches: every concurrent read agrees with either the
//!   pre- or the post-batch policy, never a torn intermediate state.
//!   After a batch
//!   containing revocations publishes, sessions are revalidated: an
//!   active role whose `u →φ r` justification the batch severed is
//!   force-deactivated (and recorded as a [`SessionRevocation`]) — a
//!   stale session can no longer keep granting through a revoked role.
//!   The writer keeps the epoch it swapped out until its next publish,
//!   so freeing an old epoch is the writer's work, never a reader's.
//!
//! The simulation is the serial Definition-5 execution, so outcomes and
//! the audit sequence are those of
//! [`step`](adminref_core::transition::step) applied command by
//! command. In memory the published epoch is the monitor's only copy of
//! the state; a durable store logs each batch's outcome as one WAL
//! record, syncs once, and adopts the candidate's state only then, so a
//! batch the store could not make durable is neither audited nor
//! published.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arc_swap::ArcSwap;
use parking_lot::{Mutex, RwLock};

use adminref_core::admission::{self, AdmissionReport, Candidate, ConstraintSet, ImpactReport};
use adminref_core::command::{Command, CommandQueue};
use adminref_core::ids::{Entity, Perm, RoleId, UserId};
use adminref_core::lint::{lint_policy, LintConfig, LintReport};
use adminref_core::policy::Policy;
use adminref_core::reach::EdgeDelta;
use adminref_core::safety::{perm_reachable, ReachabilityAnswer, SafetyConfig};
use adminref_core::session::{Session, SessionError};
use adminref_core::snapshot::{PolicySnapshot, PublishMode, PublishPath};
use adminref_core::transition::{AuthMode, StepOutcome};
use adminref_core::universe::{Edge, Universe};
use adminref_core::verify::specs::SessionView;
use adminref_store::{PolicyStore, RecoveryReport, StoreError};

use crate::audit::{AuditEvent, AuditLog, Decision, SessionRevocation};

/// Monitor configuration.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// How administrative commands are authorized.
    pub auth_mode: AuthMode,
    /// Audit log retention.
    pub audit_capacity: usize,
    /// How published snapshots are derived from their parent epoch
    /// (defaults to [`PublishMode::Incremental`]).
    pub publish_mode: PublishMode,
    /// Auto-compaction threshold for durable backends: after a batch,
    /// if the WAL holds at least this many entries it is folded into a
    /// fresh snapshot, so a long-running monitor never replays an
    /// unbounded log on reopen. `None` disables auto-compaction.
    pub autocompact_log_len: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            auth_mode: AuthMode::Explicit,
            audit_capacity: 4096,
            publish_mode: PublishMode::default(),
            autocompact_log_len: Some(4096),
        }
    }
}

/// Errors surfaced by the monitor.
#[derive(Debug)]
pub enum MonitorError {
    /// The session id is unknown (or was closed).
    UnknownSession(SessionId),
    /// Session-level refusal (e.g. role activation denied).
    Session(SessionError),
    /// Durable backend failure.
    Store(StoreError),
    /// The admission gate refused the batch: the candidate post-batch
    /// state violates the declared constraint set. Nothing was logged,
    /// audited, or published.
    Admission(AdmissionReport),
    /// A declared constraint set names a user or role this monitor's
    /// universe lacks. Nothing was logged or declared.
    ForeignConstraints,
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            MonitorError::Session(e) => write!(f, "session error: {e}"),
            MonitorError::Store(e) => write!(f, "store error: {e}"),
            MonitorError::Admission(report) => write!(f, "{report}"),
            MonitorError::ForeignConstraints => {
                write!(f, "constraint set names ids outside the monitor's universe")
            }
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<SessionError> for MonitorError {
    fn from(e: SessionError) -> Self {
        MonitorError::Session(e)
    }
}

impl From<StoreError> for MonitorError {
    fn from(e: StoreError) -> Self {
        MonitorError::Store(e)
    }
}

/// Handle to a user session.
///
/// The inner id is private: the only way to obtain a live handle is
/// [`ReferenceMonitor::create_session`] (or the service protocol's
/// `CreateSession` request), so a `SessionId` in circulation always
/// names a session some monitor actually issued. For serialization
/// boundaries (wire protocols, logs) use [`raw`](Self::raw) /
/// [`from_raw`](Self::from_raw) — reconstructing a handle is an
/// explicit, greppable act, not an incidental struct literal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SessionId(u64);

impl SessionId {
    /// Reconstructs a handle from its raw id (e.g. deserialized from a
    /// wire protocol). The id is only meaningful to the monitor that
    /// issued it; a forged or stale id is refused as
    /// [`MonitorError::UnknownSession`] at the next use.
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw id, for serialization.
    pub fn raw(self) -> u64 {
        self.0
    }
}

// On the wire a session handle is its raw id.
adminref_store::wire_struct! {
    SessionId { 0 }
}

/// Write-side state. Only the batched writer (and `compact`/`sync`)
/// ever locks this.
struct Writer {
    /// The durable store, if any. Without one the published epoch is
    /// the monitor's whole state: the writer holds this lock, so the
    /// current epoch is every batch's parent.
    store: Option<Box<PolicyStore>>,
    /// `(epoch, set)` once a gated batch left that published epoch clean
    /// under that constraint set: the next batch from it inherits `Φ⁻`
    /// instead of recomputing it (see [`admission`]'s "Why `Φ⁻` is
    /// inherited"). Every publish that is not a judged candidate clears
    /// it.
    clean: Option<(u64, Arc<ConstraintSet>)>,
    /// The epoch the last delta publish swapped out, held until the next
    /// publish drops it — so the writer, not a reader finishing its
    /// check, pays for freeing an old epoch.
    retired: Option<Arc<PolicySnapshot>>,
}

/// One published epoch, as observed by a replication hook: the epoch id,
/// the exact edge deltas that led from the parent epoch's policy to this
/// one, and the canonical state checksum of the *post-apply* policy (see
/// [`adminref_core::checksum`]). A replica that applies `deltas` to the
/// parent state must land on `checksum`, or it has diverged.
#[derive(Clone, Debug)]
pub struct PublishEvent {
    /// The newly published epoch id.
    pub epoch: u64,
    /// The batch's applied edge changes, in execution order.
    pub deltas: Vec<EdgeDelta>,
    /// Checksum of the policy state *after* applying the deltas.
    pub checksum: u64,
}

/// A publish subscription callback; see
/// [`ReferenceMonitor::set_publish_hook`].
pub type PublishHook = Box<dyn Fn(&PublishEvent) + Send + Sync>;

/// Why a replica refused to apply a delta frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicaApplyError {
    /// The frame's epoch is not the next epoch after the replica's
    /// current one: a stale duplicate (`got <= current`) is skippable,
    /// a gap (`got > expected`) means frames were missed and the
    /// replica must re-bootstrap.
    EpochGap {
        /// The epoch the replica expected next (`current + 1`).
        expected: u64,
        /// The frame's epoch.
        got: u64,
    },
    /// A delta names an id outside the replica's universe, or toggles an
    /// edge whose membership already matched — the replica's state is
    /// not the frame's parent state. Re-bootstrap.
    ForeignDelta {
        /// The frame's epoch.
        epoch: u64,
    },
    /// The post-apply checksum does not match the frame's: the replica
    /// diverged somewhere before or inside this frame. Nothing was
    /// published; re-bootstrap.
    Divergence {
        /// The frame's epoch.
        epoch: u64,
        /// The checksum the frame promised.
        expected: u64,
        /// The checksum the replica computed.
        actual: u64,
    },
    /// Replica application is only supported on in-memory backends (a
    /// follower's state is a cache of the primary's durable one).
    DurableBackend,
}

impl std::fmt::Display for ReplicaApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaApplyError::EpochGap { expected, got } => {
                write!(f, "epoch gap: expected {expected}, frame carries {got}")
            }
            ReplicaApplyError::ForeignDelta { epoch } => {
                write!(f, "frame for epoch {epoch} carries deltas foreign to this state")
            }
            ReplicaApplyError::Divergence {
                epoch,
                expected,
                actual,
            } => write!(
                f,
                "state divergence at epoch {epoch}: expected checksum {expected:#018x}, computed {actual:#018x}"
            ),
            ReplicaApplyError::DurableBackend => {
                write!(f, "replica apply requires an in-memory backend")
            }
        }
    }
}

impl std::error::Error for ReplicaApplyError {}

/// `true` iff this applied edge delta can sever some session's `u →φ r`
/// justification: only *removals* of `UA`/`RH` edges can — additions
/// are monotone, and `PA†` edges play no part in activation.
fn severs_activation(edge: Edge, added: bool) -> bool {
    !added && !matches!(edge, Edge::RolePriv(..))
}

/// Force-deactivates every active role in `sessions` whose `u →φ r` no
/// longer holds (per `reaches`), recording each forced deactivation at
/// `epoch`.
fn sweep_stale_activations(
    sessions: &mut HashMap<SessionId, Session>,
    audit: &mut AuditLog,
    epoch: u64,
    reaches: impl Fn(UserId, RoleId) -> bool,
) {
    for (&id, session) in sessions.iter_mut() {
        let user = session.user();
        let stale: Vec<RoleId> = session
            .active_roles()
            .filter(|&r| !reaches(user, r))
            .collect();
        for role in stale {
            session.deactivate(role);
            audit.record_revocation(id, user, role, epoch);
        }
    }
}

/// How many shards the session table has; session `id` lives in shard
/// `id % SHARDS`, and ids are issued in sequence, so any `SHARDS`
/// sessions opened one after another occupy distinct shards.
const SHARDS: usize = 16;

/// One shard of the session table, alone on its cache lines so that
/// checks on sessions in different shards write no common line.
#[repr(align(128))]
#[derive(Default)]
struct Shard(RwLock<HashMap<SessionId, Session>>);

/// The reference monitor.
pub struct ReferenceMonitor {
    /// Published read-side state; see the module docs.
    snapshot: ArcSwap<PolicySnapshot>,
    /// Serialized write-side state.
    writer: Mutex<Writer>,
    /// Sessions, decoupled from the policy state and sharded by id
    /// ([`shard`](Self::shard)): admin commands never lock a shard, and
    /// session churn never blocks the writer.
    sessions: [Shard; SHARDS],
    next_session: AtomicU64,
    /// The audit ring under its own short-critical-section lock, so
    /// auditors reading history don't stall command execution.
    audit: Mutex<AuditLog>,
    /// Publications that took the incremental derivation path.
    publishes_incremental: AtomicU64,
    /// Publications that rebuilt the index from scratch.
    publishes_full: AtomicU64,
    /// Auto-compactions that failed (best-effort maintenance; the
    /// batch itself was already durable).
    autocompact_failures: AtomicU64,
    /// Safety analyses served ([`analyze_perm_reachable`](Self::analyze_perm_reachable)).
    analyses_run: AtomicU64,
    /// Of those, how many came back `Unknown` — truncated with
    /// escalation off (with it on, saturation decides every instance).
    analyses_indefinite: AtomicU64,
    /// Lint passes served ([`lint_policy`](Self::lint_policy)).
    lints_run: AtomicU64,
    /// Total findings those passes produced.
    lint_findings: AtomicU64,
    /// What recovery found when the durable backend was opened (`None`
    /// for in-memory monitors and freshly created stores).
    recovery: Option<RecoveryReport>,
    /// Replication subscription: called once per published epoch, in
    /// epoch order, with the batch's deltas and post-apply checksum.
    publish_hook: RwLock<Option<PublishHook>>,
    /// The declared admission constraint set, mirrored lock-free for
    /// the read/analyze path. The writer lock serializes updates (and,
    /// on durable backends, the WAL append) before the swap.
    constraints: ArcSwap<ConstraintSet>,
    /// Batches evaluated by the admission gate.
    admission_checks: AtomicU64,
    /// Of those, batches the gate refused.
    admission_refusals: AtomicU64,
    config: MonitorConfig,
}

impl ReferenceMonitor {
    /// An in-memory monitor over the given state.
    pub fn new(universe: Universe, policy: Policy, config: MonitorConfig) -> Self {
        policy.check_universe(&universe);
        let snapshot = PolicySnapshot::build(universe, policy, 0);
        Self::assemble(snapshot, None, None, ConstraintSet::default(), config)
    }

    /// A monitor over a durable store (the store's auth mode wins).
    pub fn with_store(store: PolicyStore, config: MonitorConfig) -> Self {
        Self::with_store_recovered(store, None, config)
    }

    /// A monitor over a durable store whose open-time
    /// [`RecoveryReport`] is retained and queryable
    /// ([`recovery_report`](Self::recovery_report)) — operators reading
    /// `Stats` see whether recovery truncated a torn tail or replayed
    /// divergent entries, instead of the report being dropped on the
    /// floor at open.
    pub fn with_store_recovered(
        store: PolicyStore,
        recovery: Option<RecoveryReport>,
        config: MonitorConfig,
    ) -> Self {
        let config = MonitorConfig {
            auth_mode: store.auth_mode(),
            ..config
        };
        let snapshot = PolicySnapshot::build(store.universe().clone(), store.policy().clone(), 0);
        let constraints = store.constraints().clone();
        Self::assemble(
            snapshot,
            Some(Box::new(store)),
            recovery,
            constraints,
            config,
        )
    }

    /// The one constructor behind [`new`](Self::new) and
    /// [`with_store_recovered`](Self::with_store_recovered): `snapshot`
    /// is epoch 0, and `store`, when given, holds the same state.
    fn assemble(
        snapshot: PolicySnapshot,
        store: Option<Box<PolicyStore>>,
        recovery: Option<RecoveryReport>,
        constraints: ConstraintSet,
        config: MonitorConfig,
    ) -> Self {
        ReferenceMonitor {
            snapshot: ArcSwap::from_pointee(snapshot),
            writer: Mutex::new(Writer {
                store,
                clean: None,
                retired: None,
            }),
            sessions: Default::default(),
            next_session: AtomicU64::new(0),
            audit: Mutex::new(AuditLog::new(config.audit_capacity)),
            publishes_incremental: AtomicU64::new(0),
            publishes_full: AtomicU64::new(0),
            autocompact_failures: AtomicU64::new(0),
            analyses_run: AtomicU64::new(0),
            analyses_indefinite: AtomicU64::new(0),
            lints_run: AtomicU64::new(0),
            lint_findings: AtomicU64::new(0),
            recovery,
            publish_hook: RwLock::new(None),
            constraints: ArcSwap::from_pointee(constraints),
            admission_checks: AtomicU64::new(0),
            admission_refusals: AtomicU64::new(0),
            config,
        }
    }

    /// Submits one administrative command (a batch of one); records the
    /// decision in the audit log.
    pub fn submit(&self, cmd: &Command) -> Result<StepOutcome, MonitorError> {
        let outcomes = self.submit_batch(std::slice::from_ref(cmd))?;
        Ok(outcomes[0])
    }

    /// Submits a whole queue, front to back, as **one batch**: outcomes
    /// and audit records are identical to submitting each command
    /// individually, but the WAL is synced once, the read index is
    /// rebuilt once, and exactly one new epoch is published — concurrent
    /// readers see either the pre- or the post-queue policy, never an
    /// intermediate step.
    pub fn submit_queue(&self, queue: &CommandQueue) -> Result<Vec<StepOutcome>, MonitorError> {
        let commands: Vec<Command> = queue.iter().copied().collect();
        self.submit_batch(&commands)
    }

    /// Submits a slice of commands as one batch. See
    /// [`submit_queue`](Self::submit_queue).
    ///
    /// All or nothing: on an error — a refusal by the admission gate, or
    /// a durable store that could not log the batch — nothing was
    /// logged, audited or published.
    pub fn submit_batch(&self, commands: &[Command]) -> Result<Vec<StepOutcome>, MonitorError> {
        if commands.is_empty() {
            return Ok(Vec::new());
        }
        let mut guard = self.writer.lock();
        let writer = &mut *guard;
        let mode = self.config.auth_mode;
        // One sequence for every batch, gated or not: simulate it against
        // the published parent, derive the candidate epoch, gate that
        // candidate, commit it to the store, publish the same candidate.
        let parent = self.snapshot.load_full();
        let candidate = Candidate::derive(&parent, commands, mode, self.config.publish_mode);
        // The gate judges the candidate *before* anything touches the
        // store — a refused batch leaves the WAL, audit log, epoch, and
        // published snapshot untouched. An empty constraint set is the
        // gate switched off.
        let constraints = self.constraints.load_full();
        if !constraints.is_empty() {
            self.admission_checks.fetch_add(1, Ordering::Relaxed);
            let inherited = !candidate.interned
                && writer.clean.as_ref().is_some_and(|(epoch, set)| {
                    *epoch == parent.epoch && Arc::ptr_eq(set, &constraints)
                });
            let findings =
                admission::evaluate_snapshot(&candidate.snapshot, &constraints, mode, inherited);
            if !findings.is_empty() {
                self.admission_refusals.fetch_add(1, Ordering::Relaxed);
                let report = AdmissionReport {
                    findings,
                    constraints_checked: constraints.len(),
                };
                return Err(MonitorError::Admission(report));
            }
        }
        // The simulation against the published parent *is* the serial
        // Definition-5 execution; a store logs its outcome as one record
        // and syncs once before adopting it.
        if let Some(store) = writer.store.as_deref_mut() {
            debug_assert_eq!(store.auth_mode(), mode, "mode set at store creation");
            let (universe, policy) = (candidate.snapshot.universe(), candidate.snapshot.policy());
            store.commit(commands, &candidate.outcomes, universe, policy)?;
        }
        // Audit while still holding the writer lock, so the global audit
        // order equals the execution (and WAL) order across batches.
        {
            let mut audit = self.audit.lock();
            for (cmd, outcome) in commands.iter().zip(&candidate.outcomes) {
                let decision = match outcome.authorization {
                    Some(auth) => Decision::Executed {
                        held: auth.held,
                        target: auth.target,
                    },
                    None => Decision::Refused,
                };
                audit.record(*cmd, decision, outcome.changed);
            }
        }
        // Publish the judged candidate, if it differs from the parent at
        // all — an edge change, or a newly interned term that audit
        // rendering needs resolvable in the published universe.
        let epoch = candidate.snapshot.epoch;
        if let Some(path) = candidate.path {
            self.publish(writer, candidate.snapshot, path, Some(candidate.deltas));
        }
        if !constraints.is_empty() {
            writer.clean = Some((epoch, constraints));
        }
        // Post-publish WAL maintenance: fold an overgrown log into a
        // fresh snapshot so reopen never replays unbounded history.
        // Best-effort — the batch is already durable either way, and a
        // later batch retries; failures are counted for operators.
        if let (Some(threshold), Some(store)) =
            (self.config.autocompact_log_len, writer.store.as_deref_mut())
        {
            if store.log_len() >= threshold && store.compact().is_err() {
                self.autocompact_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(candidate.outcomes)
    }

    /// Makes `snapshot` the epoch readers see — the one publish step of
    /// a local batch, a replicated epoch and a replica bootstrap: count
    /// how the snapshot was derived, swap it in, sweep the sessions it
    /// may have severed, tell the publish hook, and retire the epoch
    /// just swapped out (freeing the one retired before it). `deltas`
    /// are the edge changes that led here from the previous epoch;
    /// `None` is a wholesale replacement, which can remove anything (so
    /// always sweeps), is no epoch of the delta stream (so tells no one)
    /// and shares nothing with its predecessor (so retires nothing).
    ///
    /// Called with the writer lock held (`writer` is its guard): that is
    /// what makes hooks observe epochs strictly in publication order,
    /// each with exactly its batch's deltas. The caller records
    /// [`Writer::clean`] afterwards if the snapshot was a judged
    /// candidate; any other publish leaves it cleared.
    fn publish(
        &self,
        writer: &mut Writer,
        snapshot: Arc<PolicySnapshot>,
        path: PublishPath,
        deltas: Option<Vec<EdgeDelta>>,
    ) {
        match path {
            PublishPath::Incremental => &self.publishes_incremental,
            PublishPath::FullRebuild => &self.publishes_full,
        }
        .fetch_add(1, Ordering::Relaxed);
        writer.clean = None;
        let wholesale = deltas.is_none();
        let swapped_out = self.snapshot.swap(Arc::clone(&snapshot));
        let severs =
            |deltas: &Vec<EdgeDelta>| deltas.iter().any(|d| severs_activation(d.edge, d.added));
        if deltas.as_ref().map_or(true, severs) {
            self.revalidate_sessions(&snapshot);
        }
        if let Some(deltas) = deltas {
            self.notify_publish(PublishEvent {
                epoch: snapshot.epoch,
                deltas,
                checksum: snapshot.checksum(),
            });
        }
        // A replacement is rare and its predecessor unrelated: free that
        // now rather than keep a whole second epoch resident.
        writer.retired = (!wholesale).then_some(swapped_out);
    }

    /// Drops every active session role whose `u →φ r` justification no
    /// longer holds in `snapshot`, recording each forced deactivation.
    ///
    /// The sweep runs shard by shard, after `publish` has swapped
    /// `snapshot` in. Each shard is scanned under its *read* lock, and its
    /// write lock is taken (to sweep it) only if some active role in it is
    /// actually stale — so a publish that severs nobody's activation never
    /// blocks a check. Per shard this is race-free against
    /// [`activate_role`](Self::activate_role), which loads its snapshot
    /// *under its session's shard write lock*, and a session never
    /// changes shard: an activation's write section on shard `k` either
    /// completes before the scan's read section on `k` (the scan sees the
    /// role and, if stale, sweeps it) or starts after it (and then
    /// validates against `snapshot` or a later epoch, so cannot be stale;
    /// the swap preceded every shard's scan). Between a shard's scan and
    /// its sweep, activations there only ever validate against the new
    /// epoch, so the sweep re-checks the shard under its write lock and
    /// misses nothing.
    fn revalidate_sessions(&self, snapshot: &PolicySnapshot) {
        let reaches = |user: UserId, role: RoleId| {
            snapshot
                .reach()
                .reach_entity(Entity::User(user), Entity::Role(role))
        };
        for Shard(shard) in &self.sessions {
            let stale = shard
                .read()
                .values()
                .any(|s| s.active_roles().any(|role| !reaches(s.user(), role)));
            if stale {
                let mut sessions = shard.write();
                let mut audit = self.audit.lock();
                sweep_stale_activations(&mut sessions, &mut audit, snapshot.epoch, reaches);
            }
        }
    }

    /// Installs (or replaces) the publish subscription hook. The hook is
    /// called once per published epoch, in strict epoch order, with the
    /// batch's [`PublishEvent`] — the primitive a replication hub builds
    /// its delta stream on. The hook runs with the writer lock held, so
    /// it must not call back into the write path; a slow hook
    /// backpressures administrative writes (reads stay lock-free).
    pub fn set_publish_hook(&self, hook: Option<PublishHook>) {
        *self.publish_hook.write() = hook;
    }

    fn notify_publish(&self, event: PublishEvent) {
        let hook = self.publish_hook.read();
        if let Some(hook) = hook.as_ref() {
            hook(&event);
        }
    }

    /// Replica bootstrap: replaces this monitor's entire state with
    /// `(universe, policy, constraints)` at `epoch`, publishing a
    /// freshly built snapshot and revalidating live sessions against it.
    /// Carrying the constraint set means a promoted replica keeps
    /// enforcing the primary's admission gate. Only valid on in-memory
    /// monitors (a follower's state is a cache of the primary's durable
    /// one). Returns the installed state's checksum.
    pub fn install_replica_state(
        &self,
        universe: Universe,
        policy: Policy,
        epoch: u64,
        constraints: ConstraintSet,
    ) -> Result<u64, ReplicaApplyError> {
        let mut guard = self.writer.lock();
        let writer = &mut *guard;
        if writer.store.is_some() {
            return Err(ReplicaApplyError::DurableBackend);
        }
        self.constraints.store(Arc::new(constraints));
        let snapshot = PolicySnapshot::build(universe, policy, epoch);
        let checksum = snapshot.checksum();
        self.publish(writer, Arc::new(snapshot), PublishPath::FullRebuild, None);
        Ok(checksum)
    }

    /// Replica apply: advances this monitor's state by one replicated
    /// epoch, applying `deltas` through the same incremental
    /// [`PolicySnapshot::next`] path the primary's publish took and
    /// verifying the post-apply state checksum against
    /// `expected_checksum`.
    ///
    /// All-or-nothing: on any refusal ([`ReplicaApplyError`]) the
    /// replica's published state is untouched — a diverged or gapped
    /// frame never becomes readable. The caller is expected to
    /// re-bootstrap via [`install_replica_state`](Self::install_replica_state).
    pub fn apply_replica_deltas(
        &self,
        epoch: u64,
        deltas: &[EdgeDelta],
        expected_checksum: u64,
    ) -> Result<(), ReplicaApplyError> {
        let mut guard = self.writer.lock();
        let writer = &mut *guard;
        let parent = self.snapshot.load_full();
        let expected_epoch = parent.epoch + 1;
        if epoch != expected_epoch {
            return Err(ReplicaApplyError::EpochGap {
                expected: expected_epoch,
                got: epoch,
            });
        }
        if writer.store.is_some() {
            return Err(ReplicaApplyError::DurableBackend);
        }
        // Apply to a clone of the published policy (three Arc bumps;
        // mutation copies only the touched relation), so a refusal
        // leaves the published epoch as it was.
        let universe = parent.universe();
        let mut next_policy = parent.policy().clone();
        for d in deltas {
            // An id beyond this universe, or a toggle that didn't change
            // membership, means our state is not the frame's parent.
            let changed = universe.check_edge(d.edge).is_ok()
                && if d.added {
                    next_policy.add_edge(d.edge)
                } else {
                    next_policy.remove_edge(d.edge)
                };
            if !changed {
                return Err(ReplicaApplyError::ForeignDelta { epoch });
            }
        }
        let (snapshot, path) = PolicySnapshot::next(
            &parent,
            universe,
            &next_policy,
            deltas,
            epoch,
            self.config.publish_mode,
        );
        if snapshot.checksum() != expected_checksum {
            return Err(ReplicaApplyError::Divergence {
                epoch,
                expected: expected_checksum,
                actual: snapshot.checksum(),
            });
        }
        // The hook forwards the frame to any downstream subscribers
        // (chained replication): the event is identical to the primary's.
        self.publish(writer, Arc::new(snapshot), path, Some(deltas.to_vec()));
        Ok(())
    }

    /// The session-table shard `session` lives in.
    fn shard(&self, session: SessionId) -> &RwLock<HashMap<SessionId, Session>> {
        &self.sessions[(session.raw() % SHARDS as u64) as usize].0
    }

    /// Starts a session for `user`.
    pub fn create_session(&self, user: UserId) -> SessionId {
        let id = SessionId::from_raw(self.next_session.fetch_add(1, Ordering::Relaxed));
        self.shard(id).write().insert(id, Session::new(user));
        id
    }

    /// Activates a role in a session (`u →φ r` against the current
    /// published epoch).
    pub fn activate_role(&self, session: SessionId, role: RoleId) -> Result<(), MonitorError> {
        let mut sessions = self.shard(session).write();
        // Load the snapshot *under* the session's shard write lock. A
        // publish swaps its epoch in before its revalidation scan takes
        // this shard's lock for reading, so an activation either holds
        // the write lock before that shard's scan (and the scan sees the
        // role and sweeps it if the new epoch severed it) or after it
        // (and then loads the new epoch, or a later one, and is refused
        // if severed). A snapshot loaded before taking the lock could
        // predate the swap while the shard's scan has already passed: the
        // activation would be validated against the stale epoch and
        // survive unswept.
        let snapshot = self.read_snapshot();
        let s = sessions
            .get_mut(&session)
            .ok_or(MonitorError::UnknownSession(session))?;
        s.activate(snapshot.policy(), role)?;
        Ok(())
    }

    /// Deactivates a role; `Ok(true)` if it was active.
    pub fn deactivate_role(&self, session: SessionId, role: RoleId) -> Result<bool, MonitorError> {
        let mut sessions = self.shard(session).write();
        let s = sessions
            .get_mut(&session)
            .ok_or(MonitorError::UnknownSession(session))?;
        Ok(s.deactivate(role))
    }

    /// Access check: do the session's active roles reach `perm`?
    ///
    /// Lock-free against the write path, and it writes no line a check
    /// on another shard's session writes: a read lock on the session's
    /// shard, then an index probe per active role, in place in the
    /// current epoch. A perm term never interned in the published
    /// universe is unreachable by definition.
    pub fn check_access(&self, session: SessionId, perm: Perm) -> Result<bool, MonitorError> {
        let sessions = self.shard(session).read();
        let s = sessions
            .get(&session)
            .ok_or(MonitorError::UnknownSession(session))?;
        // The shard lock is taken outside the epoch pin, so a publish
        // waiting out this pin waits for the probe only.
        Ok(self
            .snapshot
            .read(|snapshot| snapshot.roles_reach_perm(s.active_roles(), perm)))
    }

    /// Ends a session.
    pub fn drop_session(&self, session: SessionId) -> bool {
        self.shard(session).write().remove(&session).is_some()
    }

    /// Number of currently live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.iter().map(|Shard(s)| s.read().len()).sum()
    }

    /// Number of audit events currently retained in the ring.
    pub fn audit_len(&self) -> usize {
        self.audit.lock().len()
    }

    /// The currently published snapshot (immutable; shared, not cloned).
    /// Epochs observed through consecutive loads are monotone.
    pub fn read_snapshot(&self) -> Arc<PolicySnapshot> {
        self.snapshot.load_full()
    }

    /// Clones the current state for offline analysis.
    pub fn snapshot(&self) -> (Universe, Policy) {
        self.read_snapshot().clone_state()
    }

    /// The published epoch id: the number of snapshot publications so
    /// far, i.e. the number of *batches* that changed the policy state
    /// (with single-command submits, exactly the number of
    /// policy-changing commands).
    pub fn version(&self) -> u64 {
        self.snapshot.read(|snapshot| snapshot.epoch)
    }

    /// The published epoch id and that epoch's state checksum (see
    /// [`PolicySnapshot::checksum`]), read together from one epoch.
    pub fn version_checksum(&self) -> (u64, u64) {
        self.snapshot
            .read(|snapshot| (snapshot.epoch, snapshot.checksum()))
    }

    /// Copies out all retained audit events. For long-running monitors
    /// prefer the bounded [`audit_tail`](Self::audit_tail) /
    /// [`audit_events_since`](Self::audit_events_since) or the O(1)
    /// [`drain_audit_events`](Self::drain_audit_events), which don't
    /// copy the whole ring under the lock.
    pub fn audit_events(&self) -> Vec<AuditEvent> {
        self.audit.lock().events().copied().collect()
    }

    /// Copies out at most the last `max` retained audit events (oldest
    /// first), bounding the time the audit lock is held.
    pub fn audit_tail(&self, max: usize) -> Vec<AuditEvent> {
        self.audit.lock().tail(max)
    }

    /// Copies out up to `max` retained events with `seq > after`, oldest
    /// first — the incremental shipping pattern: keep the last seq you
    /// saw and poll for what's new.
    pub fn audit_events_since(&self, after: u64, max: usize) -> Vec<AuditEvent> {
        self.audit.lock().events_since(after, max)
    }

    /// Takes all retained events out of the ring (oldest first), leaving
    /// it empty but preserving sequence numbering. O(1) lock hold: the
    /// backing buffer is moved, not copied.
    pub fn drain_audit_events(&self) -> Vec<AuditEvent> {
        self.audit.lock().drain()
    }

    /// The retained audit stream as an oracle trace (see
    /// [`adminref_core::verify::specs`]): replay it with an
    /// [`InvariantSuite`](adminref_core::verify::specs::InvariantSuite)
    /// against the policy the monitor started from to check the
    /// executable semantics against the declarative invariants. Only
    /// valid as a full trace while nothing has been evicted from the
    /// ring (the oracle needs every step to reconstruct states).
    pub fn audit_trace(&self) -> Vec<adminref_core::verify::specs::TraceStep> {
        crate::audit::trace_of(&self.audit_events())
    }

    /// The live sessions as oracle [`SessionView`]s (user plus active
    /// roles), for the `SessionRolesAssigned` invariant.
    pub fn session_views(&self) -> Vec<SessionView> {
        let mut views = Vec::new();
        for Shard(shard) in &self.sessions {
            views.extend(shard.read().values().map(|s| SessionView {
                user: s.user(),
                active: s.active_roles().collect(),
            }));
        }
        views
    }

    /// Copies out at most the last `max` forced deactivations (oldest
    /// first) — the audit trail of publish-time session revalidation.
    pub fn session_revocations_tail(&self, max: usize) -> Vec<SessionRevocation> {
        self.audit.lock().revocations_tail(max)
    }

    /// Total forced deactivations so far (monotone across eviction).
    pub fn session_revocations_total(&self) -> u64 {
        self.audit.lock().revocations_total()
    }

    /// How published epochs were derived so far:
    /// `(incremental, full_rebuild)` counts. The sum is the number of
    /// publications since construction.
    pub fn publish_counts(&self) -> (u64, u64) {
        (
            self.publishes_incremental.load(Ordering::Relaxed),
            self.publishes_full.load(Ordering::Relaxed),
        )
    }

    /// What recovery found when this monitor's durable store was opened
    /// (`None` for in-memory monitors, fresh stores, or callers that
    /// used [`with_store`](Self::with_store) without threading the
    /// report).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Auto-compactions that failed (best-effort post-publish
    /// maintenance; nonzero values deserve operator attention even
    /// though every batch remains durable in the WAL).
    pub fn autocompact_failures(&self) -> u64 {
        self.autocompact_failures.load(Ordering::Relaxed)
    }

    /// The configured authorization mode.
    pub fn auth_mode(&self) -> AuthMode {
        self.config.auth_mode
    }

    /// Runs a closure against the published universe and policy (for
    /// analyses that do not need a clone). Lock-free; the state is the
    /// snapshot current at the call.
    pub fn with_state<T>(&self, f: impl FnOnce(&Universe, &Policy) -> T) -> T {
        let snapshot = self.read_snapshot();
        f(snapshot.universe(), snapshot.policy())
    }

    /// Bounded safety analysis against a snapshot of the live policy:
    /// can `entity` come to hold `perm` under the monitor's own
    /// authorization semantics?
    ///
    /// The analysis runs on the compact-state search engine
    /// (`adminref_core::search`), sequentially on the calling thread —
    /// `config.jobs` is ignored — and `config.auth_mode` is overridden
    /// with the monitor's configured mode so the answer reflects what
    /// this monitor would actually authorize. Runs on a snapshot, so
    /// the monitor stays live while the (possibly long) search runs.
    pub fn analyze_perm_reachable(
        &self,
        entity: Entity,
        perm: Perm,
        config: SafetyConfig,
    ) -> ReachabilityAnswer {
        let (mut universe, policy) = self.snapshot();
        let config = SafetyConfig {
            auth_mode: self.auth_mode(),
            ..config
        };
        let answer = perm_reachable(&mut universe, &policy, entity, perm, config);
        self.analyses_run.fetch_add(1, Ordering::Relaxed);
        if matches!(answer, ReachabilityAnswer::Unknown { .. }) {
            self.analyses_indefinite.fetch_add(1, Ordering::Relaxed);
        }
        answer
    }

    /// Safety analyses served so far: `(total, indefinite)`, where
    /// `indefinite` counts `Unknown` answers — truncated searches run
    /// with `escalate: false`. Escalated analyses are always definite,
    /// so a growing indefinite share means unescalated callers' bounds
    /// are too small for the live policy.
    pub fn analysis_counts(&self) -> (u64, u64) {
        (
            self.analyses_run.load(Ordering::Relaxed),
            self.analyses_indefinite.load(Ordering::Relaxed),
        )
    }

    /// Static lint pass over the live policy
    /// (`adminref_core::lint::lint_policy`): search-free diagnostics —
    /// dead rules, unauthorizable rules, shadowed or redundant grants,
    /// and separation-of-duty conflicts for the
    /// given role pairs. The pass is overridden to the monitor's own
    /// authorization mode and runs lock-free against the published
    /// snapshot.
    pub fn lint_policy(&self, sod_pairs: Vec<(RoleId, RoleId)>) -> LintReport {
        let config = LintConfig {
            auth_mode: self.auth_mode(),
            sod_pairs,
        };
        let report = self.with_state(|universe, policy| lint_policy(universe, policy, &config));
        self.lints_run.fetch_add(1, Ordering::Relaxed);
        self.lint_findings
            .fetch_add(report.findings.len() as u64, Ordering::Relaxed);
        report
    }

    /// Lint passes served so far: `(runs, total findings)`.
    pub fn lint_counts(&self) -> (u64, u64) {
        (
            self.lints_run.load(Ordering::Relaxed),
            self.lint_findings.load(Ordering::Relaxed),
        )
    }

    /// Durably replaces the admission constraint set. The set is
    /// normalized, bounds-checked against the writer's universe (a set
    /// naming an id the universe lacks is refused as
    /// [`MonitorError::ForeignConstraints`] before anything is
    /// persisted), WAL-persisted on durable backends (fsync before the
    /// live set changes), and mirrored lock-free for readers. Declaring
    /// constraints does **not** retroactively validate the current
    /// state — only future batches are gated — but callers can run
    /// [`evaluate_current_constraints`](Self::evaluate_current_constraints)
    /// to audit the standing state.
    pub fn set_constraints(&self, mut constraints: ConstraintSet) -> Result<(), MonitorError> {
        constraints.normalize();
        let mut writer = self.writer.lock();
        if !self
            .snapshot
            .read(|snapshot| constraints.ids_in_bounds(snapshot.universe()))
        {
            return Err(MonitorError::ForeignConstraints);
        }
        if let Some(store) = writer.store.as_deref_mut() {
            store.set_constraints(constraints.clone())?;
        }
        self.constraints.store(Arc::new(constraints));
        Ok(())
    }

    /// The currently declared admission constraint set (lock-free).
    pub fn constraints(&self) -> Arc<ConstraintSet> {
        self.constraints.load_full()
    }

    /// Evaluates the declared constraints against the *current*
    /// published state (no batch): the findings a zero-command batch
    /// would be judged by. Empty iff the standing state is clean.
    pub fn evaluate_current_constraints(&self) -> Vec<adminref_core::lint::Finding> {
        let constraints = self.constraints.load_full();
        let snapshot = self.read_snapshot();
        admission::evaluate_snapshot(&snapshot, &constraints, self.auth_mode(), false)
    }

    /// Admission gate activity so far: `(batches checked, refused)`.
    /// Batches submitted while no constraints were declared (or with the
    /// gate disabled) are not counted as checked.
    pub fn admission_counts(&self) -> (u64, u64) {
        (
            self.admission_checks.load(Ordering::Relaxed),
            self.admission_refusals.load(Ordering::Relaxed),
        )
    }

    /// Blast-radius analysis of a candidate batch against the published
    /// snapshot: simulated outcomes, edge deltas, flipped permission
    /// verdicts, grow-only and interval-status changes, admission
    /// findings, and the sessions a publish would force-deactivate.
    /// Lock-free against the write path; nothing is mutated.
    pub fn analyze_batch(&self, commands: &[Command]) -> ImpactReport {
        // The same candidate the write path would gate and publish.
        let parent = self.read_snapshot();
        let constraints = self.constraints.load_full();
        let candidate = Candidate::derive(
            &parent,
            commands,
            self.auth_mode(),
            self.config.publish_mode,
        );
        let mut impact = candidate.impact(&parent, &constraints, self.auth_mode());
        // Which live sessions would the publish-time revalidation sweep
        // force-deactivate? Only severing deltas can strip an active
        // role's justification.
        if impact
            .deltas
            .iter()
            .any(|d| severs_activation(d.edge, d.added))
        {
            let reach = candidate.snapshot.reach();
            for Shard(shard) in &self.sessions {
                for (id, session) in shard.read().iter() {
                    let user = session.user();
                    if session
                        .active_roles()
                        .any(|r| !reach.reach_entity(Entity::User(user), Entity::Role(r)))
                    {
                        impact.severed_sessions.push(id.raw());
                    }
                }
            }
            impact.severed_sessions.sort_unstable();
        }
        impact
    }

    /// For durable monitors: folds the command log into a fresh snapshot.
    /// A no-op on in-memory monitors.
    pub fn compact(&self) -> Result<(), MonitorError> {
        if let Some(store) = self.writer.lock().store.as_deref_mut() {
            store.compact()?;
        }
        Ok(())
    }

    /// For durable monitors: forces the log to stable storage. A no-op on
    /// in-memory monitors. Batches are already synced on publication;
    /// this remains for explicit flush points.
    pub fn sync(&self) -> Result<(), MonitorError> {
        if let Some(store) = self.writer.lock().store.as_deref_mut() {
            store.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::ordering::OrderingMode;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::universe::Edge;

    fn hospital() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .assign("diana", "staff")
            .declare_user("bob")
            .inherit("staff", "nurse")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3")
            .permit("nurse", "read", "t1");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        let r = b.universe_mut().revoke_user_role(bob, staff);
        b = b.assign_priv("hr", g).assign_priv("hr", r);
        b.finish()
    }

    fn monitor(mode: AuthMode) -> (ReferenceMonitor, Universe) {
        let (uni, policy) = hospital();
        let m = ReferenceMonitor::new(
            uni.clone(),
            policy,
            MonitorConfig {
                auth_mode: mode,
                audit_capacity: 64,
                ..MonitorConfig::default()
            },
        );
        (m, uni)
    }

    #[test]
    fn submit_and_audit() {
        let (m, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let out = m
            .submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        assert!(out.executed());
        assert_eq!(m.version(), 1);
        let events = m.audit_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].decision, Decision::Executed { .. }));
        // An unauthorized command is audited as refused and bumps nothing.
        let out2 = m
            .submit(&Command::grant(bob, Edge::UserRole(jane, staff)))
            .unwrap();
        assert!(!out2.executed());
        assert_eq!(m.version(), 1);
        assert_eq!(m.audit_events().len(), 2);
    }

    #[test]
    fn sessions_follow_policy_changes() {
        let (m, mut uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let sid = m.create_session(bob);
        assert!(m.activate_role(sid, staff).is_err(), "bob not yet assigned");
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        m.activate_role(sid, staff).unwrap();
        let read_t1 = uni.perm("read", "t1");
        assert!(m.check_access(sid, read_t1).unwrap());
        assert!(m.deactivate_role(sid, staff).unwrap());
        assert!(!m.check_access(sid, read_t1).unwrap());
        let _ = nurse;
    }

    #[test]
    fn unknown_sessions_are_errors() {
        let (m, mut uni) = monitor(AuthMode::Explicit);
        let ghost = SessionId::from_raw(999);
        let nurse = uni.find_role("nurse").unwrap();
        assert!(matches!(
            m.activate_role(ghost, nurse),
            Err(MonitorError::UnknownSession(_))
        ));
        let perm = uni.perm("read", "t1");
        assert!(matches!(
            m.check_access(ghost, perm),
            Err(MonitorError::UnknownSession(_))
        ));
        assert!(!m.drop_session(ghost));
    }

    #[test]
    fn ordered_mode_flexworker_flow() {
        let (m, uni) = monitor(AuthMode::Ordered(OrderingMode::Extended));
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        // Jane holds only ¤(bob, staff); ordered mode lets her place Bob
        // directly into dbusr2 (Example 4).
        let out = m
            .submit(&Command::grant(jane, Edge::UserRole(bob, dbusr2)))
            .unwrap();
        assert!(out.executed());
        let auth = out.authorization.unwrap();
        assert_ne!(auth.held, auth.target, "implicit authorization was used");
        // The audit trail captures both privileges, and the published
        // universe can render them (the target term was interned during
        // this batch).
        let events = m.audit_events();
        assert!(matches!(
            events[0].decision,
            Decision::Executed { held, target } if held != target
        ));
        let (uni_now, _) = m.snapshot();
        assert!(uni_now.term_count() > uni.term_count());
    }

    #[test]
    fn explicit_mode_refuses_flexworker_flow() {
        let (m, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let out = m
            .submit(&Command::grant(jane, Edge::UserRole(bob, dbusr2)))
            .unwrap();
        assert!(!out.executed());
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let (m, mut uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let diana = uni.find_user("diana").unwrap();
        let read_t1 = uni.perm("read", "t1");
        let sid = m.create_session(diana);
        m.activate_role(sid, staff).unwrap();
        crossbeam::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|_| {
                    for _ in 0..200 {
                        let _ = m.check_access(sid, read_t1).unwrap();
                        let _ = m.with_state(|_, p| p.edge_count());
                    }
                });
            }
            scope.spawn(|_| {
                for _ in 0..50 {
                    m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
                        .unwrap();
                    m.submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
                        .unwrap();
                }
            });
        })
        .unwrap();
        // 100 policy-changing commands (50 grants + 50 revokes), each its
        // own batch → 100 published epochs.
        assert_eq!(m.version(), 100);
        assert!(m.check_access(sid, read_t1).unwrap());
    }

    #[test]
    fn batched_queue_publishes_one_epoch() {
        let (m, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let queue: CommandQueue = [
            Command::grant(jane, Edge::UserRole(bob, staff)),
            Command::grant(bob, Edge::UserRole(jane, staff)), // refused
            Command::revoke(jane, Edge::UserRole(bob, staff)),
            Command::grant(jane, Edge::UserRole(bob, staff)),
        ]
        .into_iter()
        .collect();
        let outcomes = m.submit_queue(&queue).unwrap();
        assert_eq!(outcomes.iter().filter(|o| o.executed()).count(), 3);
        assert_eq!(m.version(), 1, "one batch, one epoch");
        assert_eq!(m.audit_events().len(), 4, "audit still sees every command");
        let snap = m.read_snapshot();
        assert_eq!(snap.epoch, 1);
        assert!(snap.policy().contains_edge(Edge::UserRole(bob, staff)));
        // An all-refused batch publishes nothing.
        let noop: CommandQueue = [Command::grant(bob, Edge::UserRole(jane, staff))]
            .into_iter()
            .collect();
        m.submit_queue(&noop).unwrap();
        assert_eq!(m.version(), 1);
    }

    #[test]
    fn audit_tail_since_and_drain() {
        let (m, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        for _ in 0..5 {
            m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
                .unwrap();
            m.submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
                .unwrap();
        }
        assert_eq!(m.audit_events().len(), 10);
        let tail = m.audit_tail(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[2].seq, 9);
        assert_eq!(tail[0].seq, 7);
        let since = m.audit_events_since(6, 2);
        assert_eq!(since.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8]);
        assert!(m.audit_events_since(9, 100).is_empty());
        // Drain takes everything and leaves numbering intact.
        let drained = m.drain_audit_events();
        assert_eq!(drained.len(), 10);
        assert!(m.audit_events().is_empty());
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        assert_eq!(m.audit_events()[0].seq, 10, "seq continues after drain");
    }

    #[test]
    fn durable_monitor_compacts_and_syncs() {
        use adminref_store::{PolicyStore, TempDir};
        let (uni, policy) = hospital();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dir = TempDir::new("monitor-compact").unwrap();
        let store =
            PolicyStore::create(dir.path(), uni.clone(), policy, AuthMode::Explicit).unwrap();
        let m = ReferenceMonitor::with_store(store, MonitorConfig::default());
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        m.sync().unwrap();
        m.compact().unwrap();
        drop(m);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 0, "log was compacted away");
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
        // In-memory monitors: both calls are no-ops.
        let (uni2, policy2) = hospital();
        let mem = ReferenceMonitor::new(uni2, policy2, MonitorConfig::default());
        mem.sync().unwrap();
        mem.compact().unwrap();
    }

    #[test]
    fn durable_batches_are_synced_on_publication() {
        use adminref_store::{PolicyStore, TempDir};
        let (uni, policy) = hospital();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dir = TempDir::new("monitor-batch-sync").unwrap();
        let store =
            PolicyStore::create(dir.path(), uni.clone(), policy, AuthMode::Explicit).unwrap();
        let m = ReferenceMonitor::with_store(store, MonitorConfig::default());
        let queue: CommandQueue = [
            Command::grant(jane, Edge::UserRole(bob, staff)),
            Command::revoke(jane, Edge::UserRole(bob, staff)),
        ]
        .into_iter()
        .collect();
        m.submit_queue(&queue).unwrap();
        // No explicit sync: the batch synced itself. Drop and recover.
        drop(m);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(!store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn analysis_entry_point_finds_witness() {
        // The caller's auth_mode is overridden with the monitor's own
        // mode (the answer must reflect what this monitor would
        // authorize); the witness is minimal.
        let (m_explicit, mut uni) = monitor(AuthMode::Explicit);
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let config = SafetyConfig {
            max_steps: 2,
            auth_mode: AuthMode::Ordered(OrderingMode::Extended), // overridden
            ..SafetyConfig::default()
        };
        let answer = m_explicit.analyze_perm_reachable(Entity::User(bob), write_t3, config);
        let ReachabilityAnswer::Reachable { witness } = answer else {
            panic!("bob can reach (write, t3) via staff");
        };
        assert_eq!(witness.len(), 1);
    }

    #[test]
    fn audit_trace_satisfies_the_invariant_oracle() {
        use adminref_core::verify::specs::InvariantSuite;
        // Run a mixed accepted/refused/revoking history with a live
        // session, then replay the audit trail through the declarative
        // invariant suite against the root policy.
        let (root_uni, root_policy) = hospital();
        let (m, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let diana = uni.find_user("diana").unwrap();
        let staff = uni.find_role("staff").unwrap();
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        // Unauthorized: recorded as refused, must replay as a no-op.
        m.submit(&Command::grant(bob, Edge::UserRole(jane, staff)))
            .unwrap();
        let sid = m.create_session(diana);
        m.activate_role(sid, staff).unwrap();
        // Revocation forces publish-time session revalidation, so the
        // final session views stay consistent with the final policy.
        m.submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        let trace = m.audit_trace();
        assert_eq!(trace.len(), 3);
        let suite = InvariantSuite::standard(m.auth_mode());
        let violations = suite.replay(&root_uni, &root_policy, &trace, &m.session_views());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn analysis_counters_track_indefinite_answers() {
        let (m, mut uni) = monitor(AuthMode::Explicit);
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        assert_eq!(m.analysis_counts(), (0, 0));
        let answer = m.analyze_perm_reachable(Entity::User(bob), write_t3, SafetyConfig::default());
        assert!(answer.is_reachable());
        assert_eq!(m.analysis_counts(), (1, 0));
        // Starved bounds with escalation disabled: the truncated answer
        // is counted as indefinite.
        let answer = m.analyze_perm_reachable(
            Entity::User(bob),
            write_t3,
            SafetyConfig {
                max_steps: 0,
                max_states: 1,
                escalate: false,
                ..SafetyConfig::default()
            },
        );
        assert!(matches!(answer, ReachabilityAnswer::Unknown { .. }));
        assert_eq!(m.analysis_counts(), (2, 1));
    }

    #[test]
    fn lint_entry_point_runs_on_the_live_policy_and_counts() {
        use adminref_core::lint::FindingKind;
        // The hospital fixture is clean: a run is counted, no findings.
        let (m, _uni) = monitor(AuthMode::Explicit);
        assert_eq!(m.lint_counts(), (0, 0));
        let report = m.lint_policy(Vec::new());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(m.lint_counts(), (1, 0));
        // A monitor over a policy with a dead revoke rule — the edge is
        // never present — reports it, and the counters track findings.
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("eve");
        let (eve, temps) = {
            let u = b.universe_mut();
            (u.find_user("eve").unwrap(), u.role("temps"))
        };
        let dead = b.universe_mut().revoke_user_role(eve, temps);
        b = b.assign_priv("hr", dead);
        let (uni2, policy2) = b.finish();
        let m2 = ReferenceMonitor::new(uni2, policy2, MonitorConfig::default());
        let report = m2.lint_policy(Vec::new());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::DeadCommand),
            "{:?}",
            report.findings
        );
        assert_eq!(m2.lint_counts(), (1, report.findings.len() as u64));
    }

    #[test]
    fn analysis_runs_on_a_snapshot() {
        // The search must not observe commands submitted after it
        // snapshotted, and the monitor stays usable afterwards.
        let (m, mut uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let read_t1 = uni.perm("read", "t1");
        let answer = m.analyze_perm_reachable(Entity::User(bob), read_t1, SafetyConfig::default());
        assert!(answer.is_reachable());
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        assert_eq!(m.version(), 1);
    }

    /// The sweep as it was before the read scan: the whole session table
    /// under the write lock — every shard's, held together — stale or not.
    fn write_locked_sweep(m: &ReferenceMonitor, snapshot: &PolicySnapshot) {
        let mut shards: Vec<_> = m.sessions.iter().map(|Shard(s)| s.write()).collect();
        let mut audit = m.audit.lock();
        for sessions in &mut shards {
            sweep_stale_activations(sessions, &mut audit, snapshot.epoch, |user, role| {
                snapshot
                    .reach()
                    .reach_entity(Entity::User(user), Entity::Role(role))
            });
        }
    }

    /// A thread keeps activating `staff` in bob's sessions — two in every
    /// shard — while the writer grants and revokes bob's membership.
    /// After every publish no session may hold a role its user no longer
    /// reaches in the published epoch: an activation racing the revoke
    /// either lands before its shard's sweep (and is swept) or validates
    /// against the revoked epoch (and is refused). `publish` makes one
    /// epoch current — `revoke` says whether it is the one without the
    /// membership.
    fn activations_never_outlive_a_revoke(publish: impl Fn(&ReferenceMonitor, bool)) {
        let (m, uni) = monitor(AuthMode::Explicit);
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let sessions: Vec<SessionId> = (0..2 * SHARDS).map(|_| m.create_session(bob)).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let stale = |m: &ReferenceMonitor| {
            let snapshot = m.read_snapshot();
            m.session_views().into_iter().any(|view| {
                view.active.iter().any(|&role| {
                    !snapshot
                        .reach()
                        .reach_entity(Entity::User(view.user), Entity::Role(role))
                })
            })
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    for &sid in &sessions {
                        let _ = m.activate_role(sid, staff);
                    }
                }
            });
            // Stops the activators however this loop ends, a failed
            // assertion included, so the scope can join them.
            struct Stop<'a>(&'a std::sync::atomic::AtomicBool);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _stop = Stop(&done);
            // Enough rounds that activations really raced the sweeps.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut round = 0;
            while round < 2000 || m.session_revocations_total() < 200 {
                assert!(std::time::Instant::now() < deadline, "the race never ran");
                publish(&m, false);
                publish(&m, true);
                assert!(!stale(&m), "a stale activation survived revoke {round}");
                round += 1;
            }
        });
    }

    #[test]
    fn read_scan_sweep_wins_the_activation_race() {
        let (_, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let edge = Edge::UserRole(bob, staff);
        activations_never_outlive_a_revoke(|m, revoke| {
            let cmd = if revoke {
                Command::revoke(jane, edge)
            } else {
                Command::grant(jane, edge)
            };
            assert!(m.submit(&cmd).unwrap().changed);
        });
    }

    #[test]
    fn write_locked_sweep_wins_the_activation_race() {
        let (uni, mut policy) = hospital();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let revoked = Arc::new(PolicySnapshot::build(uni.clone(), policy.clone(), 0));
        policy.add_edge(Edge::UserRole(bob, staff));
        let granted = Arc::new(PolicySnapshot::build(uni, policy, 0));
        activations_never_outlive_a_revoke(|m, revoke| {
            let _writer = m.writer.lock();
            let snapshot = if revoke { &revoked } else { &granted };
            m.snapshot.store(Arc::clone(snapshot));
            if revoke {
                write_locked_sweep(m, snapshot);
            }
        });
    }

    /// With sessions in every shard, `analyze_batch` names exactly the
    /// sessions that submitting the batch then force-deactivates, sorted.
    #[test]
    fn analyze_names_exactly_the_sessions_submit_severs() {
        let (m, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let diana = uni.find_user("diana").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let edge = Edge::UserRole(bob, staff);
        m.submit(&Command::grant(jane, edge)).unwrap();
        // Per three consecutive ids: bob with roles active (the revoke
        // severs them), bob with none, diana with staff (her own
        // assignment survives). Every third id covers every shard.
        for i in 0..3 * SHARDS {
            let user = if i % 3 == 2 { diana } else { bob };
            let sid = m.create_session(user);
            match i % 3 {
                0 => {
                    m.activate_role(sid, staff).unwrap();
                    m.activate_role(sid, nurse).unwrap();
                }
                1 => {}
                _ => m.activate_role(sid, staff).unwrap(),
            }
        }
        let revoke = [Command::revoke(jane, edge)];
        let severed = m.analyze_batch(&revoke).severed_sessions;
        assert!(severed.windows(2).all(|w| w[0] < w[1]), "{severed:?}");
        let shards: std::collections::BTreeSet<u64> =
            severed.iter().map(|id| id % SHARDS as u64).collect();
        assert_eq!(shards.len(), SHARDS, "{severed:?}");
        m.submit_batch(&revoke).unwrap();
        let mut deactivated: Vec<u64> = m
            .session_revocations_tail(usize::MAX)
            .iter()
            .map(|r| r.session.raw())
            .collect();
        assert_eq!(deactivated.len(), 2 * SHARDS, "staff and nurse per session");
        deactivated.sort_unstable();
        deactivated.dedup();
        assert_eq!(severed, deactivated);
    }

    #[test]
    fn revocation_deactivates_stale_session_roles() {
        // The regression the serving path shipped with: grant →
        // activate → revoke → check_access kept granting through the
        // revoked role, because nothing revalidated active sessions.
        let (m, mut uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let read_t1 = uni.perm("read", "t1");
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        let sid = m.create_session(bob);
        m.activate_role(sid, staff).unwrap();
        assert!(m.check_access(sid, read_t1).unwrap());
        m.submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        assert!(
            !m.check_access(sid, read_t1).unwrap(),
            "revoked membership must not keep granting"
        );
        // The forced deactivation was audited.
        let revocations = m.session_revocations_tail(10);
        assert_eq!(revocations.len(), 1);
        assert_eq!(revocations[0].user, bob);
        assert_eq!(revocations[0].role, staff);
        assert_eq!(revocations[0].session, sid);
        assert_eq!(revocations[0].epoch, m.version());
        assert_eq!(m.session_revocations_total(), 1);
        // Unrelated sessions are untouched: diana's nurse activation
        // rides on her own assignment.
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let did = m.create_session(diana);
        m.activate_role(did, staff).unwrap();
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        m.submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        assert!(m.check_access(did, read_t1).unwrap());
        let _ = nurse;
    }

    #[test]
    fn incremental_publication_is_the_default_and_counted() {
        let (m, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        for _ in 0..3 {
            m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
                .unwrap();
            m.submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
                .unwrap();
        }
        let (incremental, full) = m.publish_counts();
        assert_eq!(incremental + full, 6, "one publication per toggle");
        if m.auth_mode() == AuthMode::Explicit
            && MonitorConfig::default().publish_mode
                == adminref_core::snapshot::PublishMode::Incremental
        {
            assert_eq!(full, 0, "membership toggles never force a rebuild");
        }
        // Forced full rebuild is always available via config and
        // produces the same answers.
        let (uni2, policy2) = hospital();
        let m_full = ReferenceMonitor::new(
            uni2,
            policy2,
            MonitorConfig {
                publish_mode: adminref_core::snapshot::PublishMode::FullRebuild,
                ..MonitorConfig::default()
            },
        );
        m_full
            .submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        let (incremental, full) = m_full.publish_counts();
        assert_eq!((incremental, full), (0, 1));
        assert!(m_full
            .read_snapshot()
            .policy()
            .contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn autocompaction_bounds_the_wal() {
        use adminref_store::{PolicyStore, TempDir};
        let (uni, policy) = hospital();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dir = TempDir::new("monitor-autocompact").unwrap();
        let store =
            PolicyStore::create(dir.path(), uni.clone(), policy, AuthMode::Explicit).unwrap();
        let m = ReferenceMonitor::with_store(
            store,
            MonitorConfig {
                autocompact_log_len: Some(4),
                ..MonitorConfig::default()
            },
        );
        // 6 commands: the threshold trips at the 4th append and folds
        // the log; the remaining 2 stay in the (short) tail.
        for _ in 0..3 {
            m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
                .unwrap();
            m.submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
                .unwrap();
        }
        assert_eq!(m.autocompact_failures(), 0);
        drop(m);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert!(
            report.replayed < 4,
            "auto-compaction folded the log ({} replayed)",
            report.replayed
        );
        assert!(!store.policy().contains_edge(Edge::UserRole(bob, staff)));
        // With the exact threshold cadence, reopen replays zero: one
        // more batch lands on a compacted log and compacts again.
        drop(store);
        let (store2, _) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        let m = ReferenceMonitor::with_store(
            store2,
            MonitorConfig {
                autocompact_log_len: Some(1),
                ..MonitorConfig::default()
            },
        );
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        drop(m);
        let (_, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 0, "threshold 1 compacts after every batch");
    }

    #[test]
    fn recovery_report_is_retained() {
        use adminref_store::{PolicyStore, TempDir};
        let (uni, policy) = hospital();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dir = TempDir::new("monitor-recovery").unwrap();
        {
            let store =
                PolicyStore::create(dir.path(), uni.clone(), policy, AuthMode::Explicit).unwrap();
            let m = ReferenceMonitor::with_store(
                store,
                MonitorConfig {
                    autocompact_log_len: None,
                    ..MonitorConfig::default()
                },
            );
            assert_eq!(m.recovery_report(), None, "fresh store: nothing recovered");
            m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
                .unwrap();
        }
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        let m =
            ReferenceMonitor::with_store_recovered(store, Some(report), MonitorConfig::default());
        let retained = m.recovery_report().expect("report threaded through");
        assert_eq!(retained.replayed, 1);
        assert_eq!(retained.divergent, 0);
    }

    #[test]
    fn replica_apply_tracks_primary_and_refuses_divergence() {
        let (primary, uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let events: Arc<Mutex<Vec<PublishEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        primary.set_publish_hook(Some(Box::new(move |e| sink.lock().push(e.clone()))));

        // Bootstrap a replica from the primary's epoch-0 state.
        let (runi, rpolicy) = primary.snapshot();
        let replica =
            ReferenceMonitor::new(runi.clone(), rpolicy.clone(), MonitorConfig::default());
        replica
            .install_replica_state(runi, rpolicy, 0, ConstraintSet::default())
            .unwrap();

        for _ in 0..2 {
            primary
                .submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
                .unwrap();
            primary
                .submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
                .unwrap();
        }
        let stream: Vec<PublishEvent> = events.lock().clone();
        assert_eq!(stream.len(), 4, "one event per published epoch");
        for e in &stream {
            replica
                .apply_replica_deltas(e.epoch, &e.deltas, e.checksum)
                .unwrap();
            assert_eq!(replica.read_snapshot().checksum(), e.checksum);
        }
        assert_eq!(replica.version(), primary.version());
        assert_eq!(
            replica.read_snapshot().checksum(),
            primary.read_snapshot().checksum()
        );

        // Replaying the last frame is a skippable epoch gap (stale).
        let last = stream.last().unwrap();
        assert!(matches!(
            replica.apply_replica_deltas(last.epoch, &last.deltas, last.checksum),
            Err(ReplicaApplyError::EpochGap { .. })
        ));
        // A frame promising a wrong checksum is refused and publishes
        // nothing.
        let before = replica.read_snapshot().checksum();
        let deltas = [EdgeDelta {
            edge: Edge::UserRole(bob, staff),
            added: true,
        }];
        assert!(matches!(
            replica.apply_replica_deltas(replica.version() + 1, &deltas, 0xDEAD),
            Err(ReplicaApplyError::Divergence { .. })
        ));
        assert_eq!(replica.read_snapshot().checksum(), before);
        assert_eq!(replica.version(), primary.version());
        // A no-op toggle (revoking an absent edge) is a foreign delta.
        let foreign = [EdgeDelta {
            edge: Edge::UserRole(bob, staff),
            added: false,
        }];
        assert!(matches!(
            replica.apply_replica_deltas(replica.version() + 1, &foreign, 0),
            Err(ReplicaApplyError::ForeignDelta { .. })
        ));
    }

    #[test]
    fn replica_install_sweeps_stale_sessions() {
        let (primary, mut uni) = monitor(AuthMode::Explicit);
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let read_t1 = uni.perm("read", "t1");
        primary
            .submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        // Replica serving a session off the bootstrapped state...
        let (runi, rpolicy) = primary.snapshot();
        let replica = ReferenceMonitor::new(runi, rpolicy, MonitorConfig::default());
        let sid = replica.create_session(bob);
        replica.activate_role(sid, staff).unwrap();
        assert!(replica.check_access(sid, read_t1).unwrap());
        // ...re-bootstraps onto a state where the membership is gone.
        primary
            .submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        let (runi2, rpolicy2) = primary.snapshot();
        let checksum = replica
            .install_replica_state(runi2, rpolicy2, primary.version(), ConstraintSet::default())
            .unwrap();
        assert_eq!(checksum, primary.read_snapshot().checksum());
        assert!(
            !replica.check_access(sid, read_t1).unwrap(),
            "stale activation must not survive a bootstrap"
        );
        assert_eq!(replica.session_revocations_total(), 1);
        // Durable monitors refuse replica installs.
        use adminref_store::{PolicyStore, TempDir};
        let dir = TempDir::new("replica-durable").unwrap();
        let (duni, dpolicy) = hospital();
        let store = PolicyStore::create(
            dir.path(),
            duni.clone(),
            dpolicy.clone(),
            AuthMode::Explicit,
        )
        .unwrap();
        let durable = ReferenceMonitor::with_store(store, MonitorConfig::default());
        assert!(matches!(
            durable.install_replica_state(duni, dpolicy, 1, ConstraintSet::default()),
            Err(ReplicaApplyError::DurableBackend)
        ));
    }

    #[test]
    fn snapshot_is_isolated() {
        let (m, uni) = monitor(AuthMode::Explicit);
        let (uni2, policy2) = m.snapshot();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        m.submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        assert!(
            !policy2.contains_edge(Edge::UserRole(bob, staff)),
            "snapshot unaffected by later commands"
        );
        assert_eq!(uni2.tag(), uni.tag());
    }
}
