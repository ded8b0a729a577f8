//! Publish-time admission control: the must/may interval abstraction,
//! batch blast-radius analysis, and the constraint gate.
//!
//! The lint pass (see [`crate::lint`]) is advisory: it reports what *may*
//! go wrong somewhere in the may-add closure `Φ⁺`. This module makes
//! constraints *enforceable at publish time*:
//!
//! 1. **Interval abstraction** ([`Interval`]). Alongside `Φ⁺`
//!    ([`Potential`]) we compute a removal-aware must-closure `Φ⁻`: the
//!    root edges no authorized command sequence can ever revoke. Every
//!    edge then has a static status in {[`EdgeStatus::Frozen`],
//!    [`EdgeStatus::Volatile`], [`EdgeStatus::Unreachable`]}, and for
//!    every policy `φ` reachable from the root,
//!    `Φ⁻ ⊆ edges(φ) ⊆ Φ⁺` — the *interval invariant* (proptested
//!    differentially against the BFS engine in `tests/admission_gate.rs`).
//!    In explicit mode that is every reachable policy. In ordered modes
//!    `Φ⁺` can miss a `⊑`-weaker grant edge that no term names (see the
//!    [`crate::lint`] `potential` module docs), so there the invariant
//!    is proved, and tested, only for the reachable policies whose edges
//!    the policy's terms name — the BFS alphabet of that test.
//!    Lint's `dead-command` and `shadowed-grant` ask the same
//!    `Potential::authority` as `Φ⁻`, so lint never contradicts it.
//!
//! 2. **Impact analysis** ([`Candidate::impact`]). A candidate batch is
//!    simulated against the parent epoch ([`Candidate::derive`]) and the
//!    parent is diffed against the candidate: which permission verdicts
//!    flip, whether the grow-only (monotone saturation) classification
//!    changes, and which edges change interval status. The monitor
//!    layers session force-deactivation on top (it owns the session
//!    table).
//!
//! 3. **Admission gate** ([`evaluate_snapshot`] over
//!    [`Candidate::derive`]). A durable [`ConstraintSet`]
//!    (separation-of-duty pairs, a lint deny level, frozen-edge
//!    assertions) is evaluated *statically against the candidate state*;
//!    a non-empty findings list refuses the batch before anything is
//!    logged, audited or published, so readers and replicas only ever
//!    observe constraint-clean epochs.
//!
//! A monitor judges the epoch it is about to publish, not a copy of it:
//! [`Candidate::derive`] simulates a batch against the published parent
//! [`PolicySnapshot`] and derives the child snapshot with
//! [`PolicySnapshot::next`]; [`evaluate_snapshot`] reads SoD pairs off
//! that child's own reach index; the monitor then publishes the very
//! snapshot the gate judged. [`evaluate_constraints`] is the same
//! judgement over a bare `(universe, policy)` pair, building the index
//! it needs.
//!
//! ## Why `Φ⁻` is sound
//!
//! A root edge `e` can disappear only through an authorized `revoke e`.
//! Authorization in any reachable `φ` requires an assigned term `w` in
//! `φ` with `♦(e) ⊑φ w` (explicit mode: `w = ♦(e)` itself). Since
//! `edges(φ) ⊆ Φ⁺` and both "assigned" and `⊑` are monotone in the edge
//! set, it suffices to ask the question once against `Φ⁺`: if no
//! `⊑Φ⁺`-compatible revocation term is assigned in `Φ⁺`, none is in any
//! reachable policy, and `e` is permanent — *frozen*. The question is
//! decided on `e` itself (every `⊑` rule reads only the weaker term's
//! edge), so `♦(e)` need not be interned and nothing is copied to ask
//! it. The argument leans on `edges(φ) ⊆ Φ⁺`, so in ordered modes it
//! carries that bound's qualification above.
//!
//! ## Why `Φ⁻` is inherited
//!
//! **Lemma.** Let `φ′` be reached from `φ` by authorized commands that
//! intern no new term. Then `Φ⁺(φ′) ⊆ Φ⁺(φ)` and `Φ⁻(φ) ⊆ Φ⁻(φ′)`.
//!
//! *Proof sketch.* `φ′ ⊆ Φ⁺(φ)` by the interval invariant. Every
//! administrative term of `φ′` is therefore assigned in `Φ⁺(φ)`: a term
//! of `φ`, or one nested inside a term of `φ` (an added assignment edge
//! is a candidate, so it lies within a root term). `edges_within` is
//! transitive, so the candidate edges of `φ′` are a subset of those of
//! `φ`; the same universe means the same grant terms.
//! A least fixpoint started from a smaller root over fewer candidates,
//! under a `⊑` evaluated on a smaller maximal policy, stays inside the
//! larger one: `Φ⁺(φ′) ⊆ Φ⁺(φ)`. An edge `e ∈ Φ⁻(φ)` has no authorized
//! revoker in `Φ⁺(φ)`, so no step from `φ` to `φ′` removed it (`e ∈ φ′`)
//! and none is assigned in the smaller `Φ⁺(φ′)` either: `e ∈ Φ⁻(φ′)`. ∎
//!
//! So an edge asserted frozen in a constraint-clean epoch stays frozen
//! in every epoch a non-interning batch publishes from it, and a writer
//! that remembers "this epoch was clean under this set" may skip
//! [`Interval::from_policy`] for the next batch (`frozen_inherited` in
//! [`evaluate_snapshot`]). `tests/admission_gate.rs` checks the lemma
//! step by step in both authorization modes.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::command::Command;
use crate::ids::{Entity, PrivId, RoleId, UserId};
use crate::lint::{lint_policy, Confirmation, Finding, FindingKind, LintConfig, Potential};
use crate::policy::Policy;
use crate::reach::{EdgeDelta, ReachIndex};
use crate::snapshot::{batch_deltas, PolicySnapshot, PublishMode, PublishPath};
use crate::transition::{apply_edge, authorize, authorize_explicit, AuthMode, StepOutcome};
use crate::universe::{Edge, PrivTerm, Universe};

pub use crate::lint::Severity;

/// The static status of an edge under the must/may interval.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeStatus {
    /// In `Φ⁻`: present in the root and no authorized command sequence
    /// can revoke it. Every reachable policy contains it.
    Frozen,
    /// In `Φ⁺` but not `Φ⁻`: some reachable policy contains it, some
    /// reachable policy may not.
    Volatile,
    /// Not in `Φ⁺`: no reachable policy contains it.
    Unreachable,
}

impl EdgeStatus {
    /// Stable lowercase name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            EdgeStatus::Frozen => "frozen",
            EdgeStatus::Volatile => "volatile",
            EdgeStatus::Unreachable => "unreachable",
        }
    }
}

/// The must/may interval `[Φ⁻, Φ⁺]` of a root policy.
#[derive(Clone, Debug)]
pub struct Interval {
    /// The may-add closure `Φ⁺` with its reachability index.
    pub potential: Potential,
    /// The must-closure `Φ⁻`: root edges no authorized sequence revokes.
    pub frozen: BTreeSet<Edge>,
}

impl Interval {
    /// Computes the interval of `(universe, root)` under `auth_mode`:
    /// `Φ⁻` is the root edges whose `♦` nothing in `Φ⁺` authorizes,
    /// asked of the closure's own `Potential::authority` (decided on
    /// the edge, so a `♦` the universe never interned needs no copy of
    /// it).
    pub fn from_policy(universe: &Universe, root: &Policy, auth_mode: AuthMode) -> Interval {
        let potential = Potential::from_policy(universe, root, auth_mode);
        let frozen = {
            let authority = potential.authority(universe);
            root.edges()
                .filter(|&e| !authority.authorizes(PrivTerm::Revoke(e)))
                .collect()
        };
        Interval { potential, frozen }
    }

    /// The static status of `edge` under this interval.
    pub fn status(&self, edge: Edge) -> EdgeStatus {
        if self.frozen.contains(&edge) {
            EdgeStatus::Frozen
        } else if self.potential.policy.contains_edge(edge) {
            EdgeStatus::Volatile
        } else {
            EdgeStatus::Unreachable
        }
    }

    /// Edges in `Φ⁻`.
    pub fn frozen_count(&self) -> usize {
        self.frozen.len()
    }
}

/// A durable set of publish-time constraints.
///
/// Persisted in the [`PolicyStore`](../../adminref_store/index.html) WAL
/// and carried by the replication bootstrap, so a promoted replica keeps
/// enforcing the same set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    /// Separation-of-duty role pairs: no user may reach both roles of a
    /// pair in any published state.
    pub sod_pairs: Vec<(RoleId, RoleId)>,
    /// Refuse batches whose candidate state lints at or above this
    /// severity (`None` disables the lint gate).
    pub deny_level: Option<Severity>,
    /// Edges asserted permanent: each must be present in the candidate
    /// state *and* frozen under its interval.
    pub frozen_edges: Vec<Edge>,
}

impl ConstraintSet {
    /// `true` when no constraint is declared (the gate is a no-op).
    pub fn is_empty(&self) -> bool {
        self.sod_pairs.is_empty() && self.deny_level.is_none() && self.frozen_edges.is_empty()
    }

    /// Sorts and dedups, orienting each SoD pair `(min, max)`, so equal
    /// sets compare and encode identically.
    pub fn normalize(&mut self) {
        for pair in &mut self.sod_pairs {
            if pair.1 < pair.0 {
                *pair = (pair.1, pair.0);
            }
        }
        self.sod_pairs.sort_unstable();
        self.sod_pairs.dedup();
        self.frozen_edges.sort_unstable();
        self.frozen_edges.dedup();
    }

    /// Do all referenced ids fit inside `universe`?
    pub fn ids_in_bounds(&self, universe: &Universe) -> bool {
        // A SoD pair is two roles: the same bounds as a hierarchy edge.
        let pairs = self.sod_pairs.iter().map(|&(a, b)| Edge::RoleRole(a, b));
        pairs
            .chain(self.frozen_edges.iter().copied())
            .all(|edge| universe.check_edge(edge).is_ok())
    }

    /// Declared constraints, for reporting.
    pub fn len(&self) -> usize {
        self.sod_pairs.len() + self.frozen_edges.len() + usize::from(self.deny_level.is_some())
    }
}

/// The typed result of a refused admission: the findings that caused
/// the refusal, against the candidate state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionReport {
    /// The violations, canonically ordered. Non-empty iff refused.
    pub findings: Vec<Finding>,
    /// How many declared constraints were evaluated.
    pub constraints_checked: usize,
}

impl AdmissionReport {
    /// `true` iff the batch must be refused.
    pub fn refused(&self) -> bool {
        !self.findings.is_empty()
    }
}

impl fmt::Display for AdmissionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission refused: {} finding(s) across {} constraint(s)",
            self.findings.len(),
            self.constraints_checked
        )
    }
}

/// One permission verdict that flips between parent and candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PermFlip {
    /// The user whose verdict changes.
    pub user: UserId,
    /// The permission term (a [`PrivTerm::Perm`] id).
    pub term: PrivId,
    /// The verdict *after* the batch (`false` means access is lost).
    pub now_granted: bool,
}

/// One edge whose interval status changes between parent and candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StatusChange {
    /// The edge.
    pub edge: Edge,
    /// Its status under the parent interval.
    pub before: EdgeStatus,
    /// Its status under the candidate interval.
    pub after: EdgeStatus,
}

/// The blast radius of a candidate batch, computed before commit.
#[derive(Clone, Debug, Default)]
pub struct ImpactReport {
    /// Per-command outcomes of the simulated batch.
    pub outcomes: Vec<StepOutcome>,
    /// Edge deltas the batch would publish (the [`EdgeDelta`] path the
    /// epoch pipeline and replication stream use).
    pub deltas: Vec<EdgeDelta>,
    /// `(user, perm)` verdicts that flip.
    pub flipped: Vec<PermFlip>,
    /// Was the parent grow-only (see [`is_grow_only`])? Informational:
    /// no engine depends on it. Kept on the wire until its next
    /// version bump.
    pub grow_only_before: bool,
    /// Is the candidate grow-only?
    pub grow_only_after: bool,
    /// Edges whose {frozen, volatile, unreachable} status changes.
    pub status_changes: Vec<StatusChange>,
    /// Admission findings against the candidate (empty when no
    /// constraints are declared or none are violated).
    pub findings: Vec<Finding>,
    /// Sessions the publish would force-deactivate. The core layer
    /// leaves this empty; the monitor (which owns the session table)
    /// fills in raw session ids.
    pub severed_sessions: Vec<u64>,
}

impl ImpactReport {
    /// `true` iff the batch would be refused by the gate.
    pub fn refused(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// Simulates `commands` on a scratch copy of `(universe, policy)` and
/// returns the candidate state with per-command outcomes. Nothing is
/// mutated; this is the pre-image every gate decision is made against.
///
/// The policy clone is three `Arc` bumps (a step copies only the
/// relation it touches). The universe is copied only when a step must
/// intern a term, which only ordered authorization does: an
/// explicit-mode simulation borrows it.
pub fn simulate_batch<'u>(
    universe: &'u Universe,
    policy: &Policy,
    commands: &[Command],
    auth_mode: AuthMode,
) -> (Cow<'u, Universe>, Policy, Vec<StepOutcome>) {
    let mut cand_universe = Cow::Borrowed(universe);
    let mut cand_policy = policy.clone();
    let outcomes = commands
        .iter()
        .map(|cmd| {
            let authorization = match auth_mode {
                AuthMode::Explicit => authorize_explicit(&cand_universe, &cand_policy, cmd),
                AuthMode::Ordered(_) => {
                    authorize(cand_universe.to_mut(), &cand_policy, cmd, auth_mode)
                }
            };
            let changed = authorization.is_some() && apply_edge(&mut cand_policy, cmd);
            StepOutcome {
                authorization,
                changed,
            }
        })
        .collect();
    (cand_universe, cand_policy, outcomes)
}

/// A batch simulated against a published epoch: the child snapshot a
/// monitor would publish for it, and the outcomes that lead there.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Per-command outcomes of the simulated batch.
    pub outcomes: Vec<StepOutcome>,
    /// The edge deltas from the parent to the candidate (see
    /// [`batch_deltas`]).
    pub deltas: Vec<EdgeDelta>,
    /// The candidate epoch — the parent itself when the batch changes
    /// nothing observable.
    pub snapshot: Arc<PolicySnapshot>,
    /// How the snapshot was derived from the parent; `None` when it *is*
    /// the parent (no edge changed and no term was interned).
    pub path: Option<PublishPath>,
    /// Did the simulation intern a term (ordered authorization only)?
    pub interned: bool,
}

impl Candidate {
    /// Simulates `commands` against `parent` and derives the child at
    /// epoch `parent.epoch + 1` with [`PolicySnapshot::next`], which
    /// shares the parent's universe allocation unless a term was
    /// interned.
    pub fn derive(
        parent: &Arc<PolicySnapshot>,
        commands: &[Command],
        auth_mode: AuthMode,
        publish_mode: PublishMode,
    ) -> Candidate {
        let (universe, policy, outcomes) =
            simulate_batch(parent.universe(), parent.policy(), commands, auth_mode);
        let interned = universe.term_count() != parent.universe().term_count();
        let deltas = batch_deltas(commands, &outcomes);
        let (snapshot, path) = if deltas.is_empty() && !interned {
            (Arc::clone(parent), None)
        } else {
            let (child, path) = PolicySnapshot::next(
                parent,
                &universe,
                &policy,
                &deltas,
                parent.epoch + 1,
                publish_mode,
            );
            (Arc::new(child), Some(path))
        };
        Candidate {
            outcomes,
            deltas,
            snapshot,
            path,
            interned,
        }
    }

    /// The blast radius of this candidate against the `parent` it was
    /// derived from: flipped permission verdicts (read off the two
    /// snapshots' own reach indexes), grow-only and interval-status
    /// changes, and the admission findings.
    pub fn impact(
        &self,
        parent: &PolicySnapshot,
        constraints: &ConstraintSet,
        auth_mode: AuthMode,
    ) -> ImpactReport {
        let (universe, policy) = (parent.universe(), parent.policy());
        let cand = &self.snapshot;

        // Permission flips. Perm terms are interned only at build time
        // (steps intern ¤/♦ terms, never Perm), so the parent's term table
        // covers every Perm id in the candidate.
        let perm_terms: Vec<PrivId> = (0..universe.term_count())
            .map(PrivId::from_index)
            .filter(|&p| matches!(universe.term(p), PrivTerm::Perm(_)))
            .collect();
        let mut flipped = Vec::new();
        for u in universe.users() {
            for &p in &perm_terms {
                let before = parent.entity_reaches_priv(Entity::User(u), p);
                let after = cand.entity_reaches_priv(Entity::User(u), p);
                if before != after {
                    flipped.push(PermFlip {
                        user: u,
                        term: p,
                        now_granted: after,
                    });
                }
            }
        }

        // Interval status changes over every edge either closure mentions.
        let parent_interval = Interval::from_policy(universe, policy, auth_mode);
        let cand_interval = Interval::from_policy(cand.universe(), cand.policy(), auth_mode);
        let mut edges: BTreeSet<Edge> = parent_interval.potential.policy.edges().collect();
        edges.extend(cand_interval.potential.policy.edges());
        let status_changes = edges
            .into_iter()
            .filter_map(|e| {
                let before = parent_interval.status(e);
                let after = cand_interval.status(e);
                (before != after).then_some(StatusChange {
                    edge: e,
                    before,
                    after,
                })
            })
            .collect();

        ImpactReport {
            outcomes: self.outcomes.clone(),
            deltas: self.deltas.clone(),
            flipped,
            grow_only_before: is_grow_only(universe, policy),
            grow_only_after: is_grow_only(cand.universe(), cand.policy()),
            status_changes,
            findings: evaluate_snapshot(cand, constraints, auth_mode, false),
            severed_sessions: Vec::new(),
        }
    }
}

/// Statically evaluates `constraints` against a (candidate) state and
/// returns the violations, canonically ordered.
///
/// Emitted findings:
/// * [`FindingKind::SodConflict`] (error, confirmed) — a user reaches
///   both roles of a declared pair in the state itself;
/// * [`FindingKind::FrozenEdgeViolation`] (error, confirmed) — an edge
///   asserted frozen is absent from the state;
/// * [`FindingKind::FrozenEdgeViolation`] (error, potential) — the edge
///   is present but not in `Φ⁻` (some authorized sequence revokes it);
/// * any lint finding at or above `deny_level`, verbatim, when set.
pub fn evaluate_constraints(
    universe: &Universe,
    policy: &Policy,
    constraints: &ConstraintSet,
    auth_mode: AuthMode,
) -> Vec<Finding> {
    judge(universe, policy, None, constraints, auth_mode, false)
}

/// [`evaluate_constraints`] against a derived snapshot — the monitor's
/// gate. SoD pairs read the snapshot's own reach index instead of
/// building one. With `frozen_inherited` the frozen-edge assertions are
/// taken as holding and `Φ⁻` is not recomputed; that is sound when the
/// snapshot's parent was clean under the same set and the batch between
/// them interned no term (see "Why `Φ⁻` is inherited" above).
pub fn evaluate_snapshot(
    snapshot: &PolicySnapshot,
    constraints: &ConstraintSet,
    auth_mode: AuthMode,
    frozen_inherited: bool,
) -> Vec<Finding> {
    judge(
        snapshot.universe(),
        snapshot.policy(),
        Some(snapshot.reach()),
        constraints,
        auth_mode,
        frozen_inherited,
    )
}

/// The one evaluation behind [`evaluate_constraints`] and
/// [`evaluate_snapshot`]: `reach` is the state's index when the caller
/// has one (built here only if a SoD pair needs it).
fn judge(
    universe: &Universe,
    policy: &Policy,
    reach: Option<&ReachIndex>,
    constraints: &ConstraintSet,
    auth_mode: AuthMode,
    frozen_inherited: bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !constraints.sod_pairs.is_empty() {
        let built;
        let reach = match reach {
            Some(reach) => reach,
            None => {
                built = ReachIndex::build(universe, policy);
                &built
            }
        };
        let holds = |u: UserId, r: RoleId| reach.reach_entity(Entity::User(u), Entity::Role(r));
        for &pair in &constraints.sod_pairs {
            findings.extend(
                universe
                    .users()
                    .filter(|&u| holds(u, pair.0) && holds(u, pair.1))
                    .map(|u| sod_conflict(universe, u, pair)),
            );
        }
    }
    if !frozen_inherited && !constraints.frozen_edges.is_empty() {
        let interval = Interval::from_policy(universe, policy, auth_mode);
        findings.extend(
            constraints
                .frozen_edges
                .iter()
                .filter_map(|&edge| frozen_violation(policy, &interval, edge)),
        );
    }
    if let Some(level) = constraints.deny_level {
        let config = LintConfig {
            auth_mode,
            sod_pairs: constraints.sod_pairs.clone(),
        };
        let report = lint_policy(universe, policy, &config);
        findings.extend(report.findings.into_iter().filter(|f| f.severity >= level));
    }
    findings.sort_by_key(|f| (f.kind, f.role, f.term, f.edge, f.confirmation));
    findings.dedup();
    findings
}

/// `user` reaches both roles of the declared pair `(a, b)`.
fn sod_conflict(universe: &Universe, user: UserId, (a, b): (RoleId, RoleId)) -> Finding {
    Finding {
        kind: FindingKind::SodConflict,
        severity: Severity::Error,
        role: a,
        term: None,
        edge: None,
        confirmation: Some(Confirmation::Confirmed),
        message: format!(
            "user '{}' would hold both '{}' and '{}' in the published state",
            universe.user_name(user),
            universe.role_name(a),
            universe.role_name(b)
        ),
    }
}

/// The finding, if any, against an edge asserted frozen: absent from
/// `policy` (confirmed), or present but outside `Φ⁻` (potential).
fn frozen_violation(policy: &Policy, interval: &Interval, edge: Edge) -> Option<Finding> {
    let (confirmation, message) = if !policy.contains_edge(edge) {
        (
            Confirmation::Confirmed,
            "edge asserted frozen is absent from the published state",
        )
    } else if interval.status(edge) != EdgeStatus::Frozen {
        (
            Confirmation::Potential,
            "edge asserted frozen is revocable by an authorized command \
             sequence (not in the must-closure)",
        )
    } else {
        return None;
    };
    Some(Finding {
        kind: FindingKind::FrozenEdgeViolation,
        severity: Severity::Error,
        role: edge_anchor_role(edge),
        term: None,
        edge: Some(edge),
        confirmation: Some(confirmation),
        message: message.to_string(),
    })
}

/// The edge `e` when `edge` assigns a revoke term `¤(e)` to a role — the
/// only kind of edge through which a revocation is ever authorized.
pub fn revoke_assigned(universe: &Universe, edge: Edge) -> Option<Edge> {
    match edge {
        Edge::RolePriv(_, p) => match universe.term(p) {
            PrivTerm::Revoke(effect) => Some(effect),
            _ => None,
        },
        _ => None,
    }
}

/// Is `(universe, policy)` grow-only — no revoke-term assignment edge,
/// so no revocation is authorized in the policy? Reported by
/// [`ImpactReport`]'s `grow_only_*` fields. Safety analysis no longer
/// depends on it: saturation decides revocation-capable instances too
/// (see [`crate::verify`]).
pub fn is_grow_only(universe: &Universe, policy: &Policy) -> bool {
    !policy
        .edges()
        .any(|e| revoke_assigned(universe, e).is_some())
}

/// The role a finding about `edge` anchors to (findings require one).
fn edge_anchor_role(edge: Edge) -> RoleId {
    match edge {
        Edge::UserRole(_, r) => r,
        Edge::RoleRole(r, _) => r,
        Edge::RolePriv(r, _) => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;
    use crate::ordering::OrderingMode;
    use crate::policy::PolicyBuilder;

    /// Root: jane∈hr, bob∈staff; hr holds ♦(bob, staff) and ¤(bob, aud).
    fn fixture() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .assign("bob", "staff");
        let (bob, staff, aud) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_role("staff").unwrap(),
                u.role("aud"),
            )
        };
        let strip = b.universe_mut().priv_revoke(Edge::UserRole(bob, staff));
        let add = b.universe_mut().grant_user_role(bob, aud);
        b = b.assign_priv("hr", strip).assign_priv("hr", add);
        b.finish()
    }

    /// `(universe, policy)` as a published epoch.
    fn epoch(universe: &Universe, policy: &Policy) -> Arc<PolicySnapshot> {
        Arc::new(PolicySnapshot::build(universe.clone(), policy.clone(), 0))
    }

    /// The monitor's gate: derive the candidate epoch `commands` lead
    /// to, judge it, and refuse iff it violates `constraints`.
    fn admit(
        universe: &Universe,
        policy: &Policy,
        commands: &[Command],
        constraints: &ConstraintSet,
    ) -> Result<(), AdmissionReport> {
        let mode = AuthMode::Explicit;
        let parent = epoch(universe, policy);
        let candidate = Candidate::derive(&parent, commands, mode, PublishMode::Incremental);
        let findings = evaluate_snapshot(&candidate.snapshot, constraints, mode, false);
        if findings.is_empty() {
            Ok(())
        } else {
            Err(AdmissionReport {
                findings,
                constraints_checked: constraints.len(),
            })
        }
    }

    #[test]
    fn interval_classifies_frozen_volatile_unreachable() {
        let (uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let jane = uni.find_user("jane").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let hr = uni.find_role("hr").unwrap();
        let aud = uni.find_role("aud").unwrap();
        let iv = Interval::from_policy(&uni, &policy, AuthMode::Explicit);
        // (jane, hr) has no assigned revoker: frozen.
        assert_eq!(iv.status(Edge::UserRole(jane, hr)), EdgeStatus::Frozen);
        // (bob, staff) is revocable by hr: volatile.
        assert_eq!(iv.status(Edge::UserRole(bob, staff)), EdgeStatus::Volatile);
        // (bob, aud) is addable but not in the root: volatile.
        assert_eq!(iv.status(Edge::UserRole(bob, aud)), EdgeStatus::Volatile);
        // (jane, aud) is nowhere: unreachable.
        assert_eq!(
            iv.status(Edge::UserRole(jane, aud)),
            EdgeStatus::Unreachable
        );
        // The invariant Φ⁻ ⊆ root ⊆ Φ⁺ on this fixture.
        assert!(iv.frozen.iter().all(|&e| policy.contains_edge(e)));
        assert!(policy.edges().all(|e| iv.potential.policy.contains_edge(e)));
    }

    #[test]
    fn ordered_mode_freezes_strictly_less() {
        // Ordered ⊑ can only authorize *more* revocations, so ordered
        // Φ⁻ ⊆ explicit Φ⁻.
        let (uni, policy) = fixture();
        let explicit = Interval::from_policy(&uni, &policy, AuthMode::Explicit);
        let ordered =
            Interval::from_policy(&uni, &policy, AuthMode::Ordered(OrderingMode::Extended));
        assert!(ordered.frozen.is_subset(&explicit.frozen));
    }

    #[test]
    fn gate_refuses_candidate_sod_violation_only() {
        let (uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let jane = uni.find_user("jane").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let aud = uni.find_role("aud").unwrap();
        let mut constraints = ConstraintSet {
            sod_pairs: vec![(aud, staff)],
            ..ConstraintSet::default()
        };
        constraints.normalize();
        // The root is clean: bob holds staff but not aud.
        assert!(evaluate_constraints(&uni, &policy, &constraints, AuthMode::Explicit).is_empty());
        // A batch granting bob aud violates the pair in the candidate.
        let violating = [Command::grant(jane, Edge::UserRole(bob, aud))];
        let err = admit(&uni, &policy, &violating, &constraints).unwrap_err();
        assert!(err.refused());
        assert_eq!(err.findings.len(), 1);
        assert_eq!(err.findings[0].kind, FindingKind::SodConflict);
        assert_eq!(err.findings[0].confirmation, Some(Confirmation::Confirmed));
        // An unauthorized batch cannot reach the violating state: admitted.
        let unauthorized = [Command::grant(bob, Edge::UserRole(bob, aud))];
        admit(&uni, &policy, &unauthorized, &constraints).unwrap();
    }

    #[test]
    fn gate_enforces_frozen_edge_assertions() {
        let (uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let jane = uni.find_user("jane").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let hr = uni.find_role("hr").unwrap();
        // (jane, hr) is frozen: assertion holds, gate admits no-ops.
        let ok = ConstraintSet {
            frozen_edges: vec![Edge::UserRole(jane, hr)],
            ..ConstraintSet::default()
        };
        admit(&uni, &policy, &[], &ok).unwrap();
        // (bob, staff) is revocable: asserting it frozen fails (potential).
        let shaky = ConstraintSet {
            frozen_edges: vec![Edge::UserRole(bob, staff)],
            ..ConstraintSet::default()
        };
        let err = admit(&uni, &policy, &[], &shaky).unwrap_err();
        assert_eq!(err.findings[0].kind, FindingKind::FrozenEdgeViolation);
        assert_eq!(err.findings[0].confirmation, Some(Confirmation::Potential));
        // Revoking it outright fails confirmed.
        let batch = [Command::revoke(jane, Edge::UserRole(bob, staff))];
        let err = admit(&uni, &policy, &batch, &shaky).unwrap_err();
        assert_eq!(err.findings[0].confirmation, Some(Confirmation::Confirmed));
    }

    #[test]
    fn impact_reports_flips_deltas_and_status_changes() {
        let (uni, mut policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        // Give staff a permission so revoking bob flips a verdict.
        let mut uni2 = uni.clone();
        let read = uni2.perm("read", "logs");
        let read_t = uni2.priv_perm(read);
        policy.add_edge(Edge::RolePriv(staff, read_t));
        let batch = [Command::revoke(jane, Edge::UserRole(bob, staff))];
        let parent = epoch(&uni2, &policy);
        let candidate = Candidate::derive(
            &parent,
            &batch,
            AuthMode::Explicit,
            PublishMode::Incremental,
        );
        let impact = candidate.impact(&parent, &ConstraintSet::default(), AuthMode::Explicit);
        assert_eq!(impact.deltas.len(), 1);
        assert!(!impact.deltas[0].added);
        assert!(impact
            .flipped
            .iter()
            .any(|f| f.user == bob && !f.now_granted));
        assert!(!impact.refused());
        assert!(impact
            .status_changes
            .iter()
            .any(|c| c.edge == Edge::UserRole(bob, staff)));
    }

    #[test]
    fn constraint_set_normalizes_and_bounds_checks() {
        let (uni, _) = fixture();
        let staff = uni.find_role("staff").unwrap();
        let hr = uni.find_role("hr").unwrap();
        let mut c = ConstraintSet {
            sod_pairs: vec![(staff, hr), (hr, staff), (hr, staff)],
            ..ConstraintSet::default()
        };
        c.normalize();
        assert_eq!(c.sod_pairs, vec![(hr.min(staff), hr.max(staff))]);
        assert!(c.ids_in_bounds(&uni));
        c.sod_pairs.push((RoleId::from_index(999), hr));
        assert!(!c.ids_in_bounds(&uni));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(ConstraintSet::default().is_empty());
    }
}
