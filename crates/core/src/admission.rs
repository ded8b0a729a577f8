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
//!
//! 2. **Impact analysis** ([`analyze_batch`]). A candidate batch is
//!    simulated on a scratch clone and the parent state is diffed against
//!    the candidate: which permission verdicts flip, whether the
//!    grow-only (monotone saturation) classification changes, and which
//!    edges change interval status. The monitor layers session
//!    force-deactivation on top (it owns the session table).
//!
//! 3. **Admission gate** ([`admit_batch`]). A durable [`ConstraintSet`]
//!    (separation-of-duty pairs, a lint deny level, frozen-edge
//!    assertions) is evaluated *statically against the candidate state*;
//!    a non-empty findings list refuses the batch before anything is
//!    logged, audited or published, so readers and replicas only ever
//!    observe constraint-clean epochs.
//!
//! ## Why `Φ⁻` is sound
//!
//! A root edge `e` can disappear only through an authorized `revoke e`.
//! Authorization in any reachable `φ` requires an assigned term `w` in
//! `φ` with `♦(e) ⊑φ w` (explicit mode: `w = ♦(e)` itself). Since
//! `edges(φ) ⊆ Φ⁺` and both "assigned" and `⊑` are monotone in the edge
//! set, it suffices to ask the question once against `Φ⁺`: if no
//! `⊑Φ⁺`-compatible revocation term is assigned in `Φ⁺`, none is in any
//! reachable policy, and `e` is permanent — *frozen*.

use std::collections::BTreeSet;
use std::fmt;

use crate::command::Command;
use crate::ids::{Entity, PrivId, RoleId, UserId};
use crate::lint::{lint_policy, Confirmation, Finding, FindingKind, LintConfig, Potential};
use crate::ordering::PrivilegeOrder;
use crate::policy::Policy;
use crate::reach::{EdgeDelta, ReachIndex};
use crate::snapshot::batch_deltas;
use crate::transition::{step, AuthMode, StepOutcome};
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
    /// Computes the interval of `(universe, root)` under `auth_mode`.
    pub fn from_policy(universe: &Universe, root: &Policy, auth_mode: AuthMode) -> Interval {
        let potential = Potential::from_policy(universe, root, auth_mode);
        Interval::from_potential(universe, root, potential, auth_mode)
    }

    /// Computes `Φ⁻` against an already-built `Φ⁺`.
    ///
    /// Explicit mode asks whether `♦(e)` is interned and assigned in
    /// `Φ⁺`. Ordered mode interns `♦(e)` for every root edge into a
    /// probe clone of the universe (interning is append-only, so every
    /// existing id stays valid) and asks whether any assigned
    /// administrative term is `⊑`-stronger than it under `Φ⁺`.
    pub fn from_potential(
        universe: &Universe,
        root: &Policy,
        potential: Potential,
        auth_mode: AuthMode,
    ) -> Interval {
        let root_edges: Vec<Edge> = root.edges().collect();
        let frozen: BTreeSet<Edge> = match auth_mode {
            AuthMode::Explicit => root_edges
                .into_iter()
                .filter(|&e| {
                    !universe
                        .find_term(PrivTerm::Revoke(e))
                        .is_some_and(|t| potential.is_assigned(t))
                })
                .collect(),
            AuthMode::Ordered(mode) => {
                // Intern every ♦(e) into a probe so ⊑ can be asked even
                // for revocation terms the policy never wrote down.
                let mut probe = universe.clone();
                let revokers: Vec<(Edge, PrivId)> = root_edges
                    .iter()
                    .map(|&e| (e, probe.priv_revoke(e)))
                    .collect();
                let order = PrivilegeOrder::new(&probe, &potential.policy, mode);
                revokers
                    .into_iter()
                    .filter(|&(_, t)| {
                        !potential
                            .assigned
                            .iter()
                            .any(|&w| probe.term(w).is_administrative() && order.is_weaker(w, t))
                    })
                    .map(|(e, _)| e)
                    .collect()
            }
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
    /// Was the parent grow-only (monotone saturation applies)?
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

/// Simulates `commands` on scratch clones of `(universe, policy)` and
/// returns the candidate state with per-command outcomes. Nothing is
/// mutated; this is the pre-image every gate decision is made against.
pub fn simulate_batch(
    universe: &Universe,
    policy: &Policy,
    commands: &[Command],
    auth_mode: AuthMode,
) -> (Universe, Policy, Vec<StepOutcome>) {
    let mut cand_universe = universe.clone();
    let mut cand_policy = policy.clone();
    let outcomes = commands
        .iter()
        .map(|cmd| step(&mut cand_universe, &mut cand_policy, cmd, auth_mode))
        .collect();
    (cand_universe, cand_policy, outcomes)
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
    let mut findings = Vec::new();
    if constraints.is_empty() {
        return findings;
    }
    if !constraints.sod_pairs.is_empty() {
        let index = ReachIndex::build(universe, policy);
        for &(a, b) in &constraints.sod_pairs {
            for u in universe.users() {
                if index.reach_entity(Entity::User(u), Entity::Role(a))
                    && index.reach_entity(Entity::User(u), Entity::Role(b))
                {
                    findings.push(Finding {
                        kind: FindingKind::SodConflict,
                        severity: Severity::Error,
                        role: a,
                        term: None,
                        edge: None,
                        confirmation: Some(Confirmation::Confirmed),
                        message: format!(
                            "user '{}' would hold both '{}' and '{}' in the published state",
                            universe.user_name(u),
                            universe.role_name(a),
                            universe.role_name(b)
                        ),
                    });
                }
            }
        }
    }
    if !constraints.frozen_edges.is_empty() {
        let interval = Interval::from_policy(universe, policy, auth_mode);
        for &edge in &constraints.frozen_edges {
            if !policy.contains_edge(edge) {
                findings.push(Finding {
                    kind: FindingKind::FrozenEdgeViolation,
                    severity: Severity::Error,
                    role: edge_anchor_role(edge),
                    term: None,
                    edge: Some(edge),
                    confirmation: Some(Confirmation::Confirmed),
                    message: "edge asserted frozen is absent from the published state".to_string(),
                });
            } else if interval.status(edge) != EdgeStatus::Frozen {
                findings.push(Finding {
                    kind: FindingKind::FrozenEdgeViolation,
                    severity: Severity::Error,
                    role: edge_anchor_role(edge),
                    term: None,
                    edge: Some(edge),
                    confirmation: Some(Confirmation::Potential),
                    message: "edge asserted frozen is revocable by an authorized command \
                              sequence (not in the must-closure)"
                        .to_string(),
                });
            }
        }
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

/// The gate: simulates `commands` and refuses with an [`AdmissionReport`]
/// iff the *candidate* state violates `constraints`. `Ok(())` admits.
pub fn admit_batch(
    universe: &Universe,
    policy: &Policy,
    commands: &[Command],
    constraints: &ConstraintSet,
    auth_mode: AuthMode,
) -> Result<(), AdmissionReport> {
    if constraints.is_empty() {
        return Ok(());
    }
    let (cand_universe, cand_policy, _) = simulate_batch(universe, policy, commands, auth_mode);
    let findings = evaluate_constraints(&cand_universe, &cand_policy, constraints, auth_mode);
    if findings.is_empty() {
        Ok(())
    } else {
        Err(AdmissionReport {
            findings,
            constraints_checked: constraints.len(),
        })
    }
}

/// Is `(universe, policy)` grow-only — no revoke-term assignment edge —
/// so monotone saturation applies? Mirrors the `non-monotone-island`
/// lint's root classification.
pub fn is_grow_only(universe: &Universe, policy: &Policy) -> bool {
    !policy.edges().any(|e| match e {
        Edge::RolePriv(_, p) => matches!(universe.term(p), PrivTerm::Revoke(_)),
        _ => false,
    })
}

/// Full blast-radius analysis of a candidate batch: simulate, diff the
/// parent against the candidate, and evaluate the gate — all without
/// mutating anything.
pub fn analyze_batch(
    universe: &Universe,
    policy: &Policy,
    commands: &[Command],
    constraints: &ConstraintSet,
    auth_mode: AuthMode,
) -> ImpactReport {
    let (cand_universe, cand_policy, outcomes) =
        simulate_batch(universe, policy, commands, auth_mode);
    let deltas = batch_deltas(commands, &outcomes);

    // Permission flips. Perm terms are interned only at build time
    // (steps intern ¤/♦ terms, never Perm), so the parent's term table
    // covers every Perm id in the candidate.
    let parent_index = ReachIndex::build(universe, policy);
    let cand_index = ReachIndex::build(&cand_universe, &cand_policy);
    let perm_terms: Vec<PrivId> = (0..universe.term_count())
        .map(PrivId::from_index)
        .filter(|&p| matches!(universe.term(p), PrivTerm::Perm(_)))
        .collect();
    let mut flipped = Vec::new();
    for u in universe.users() {
        for &p in &perm_terms {
            let before = parent_index.reach_priv(Entity::User(u), p);
            let after = cand_index.reach_priv(Entity::User(u), p);
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
    let cand_interval = Interval::from_policy(&cand_universe, &cand_policy, auth_mode);
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

    let findings = evaluate_constraints(&cand_universe, &cand_policy, constraints, auth_mode);
    ImpactReport {
        outcomes,
        deltas,
        flipped,
        grow_only_before: is_grow_only(universe, policy),
        grow_only_after: is_grow_only(&cand_universe, &cand_policy),
        status_changes,
        findings,
        severed_sessions: Vec::new(),
    }
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
        let err =
            admit_batch(&uni, &policy, &violating, &constraints, AuthMode::Explicit).unwrap_err();
        assert!(err.refused());
        assert_eq!(err.findings.len(), 1);
        assert_eq!(err.findings[0].kind, FindingKind::SodConflict);
        assert_eq!(err.findings[0].confirmation, Some(Confirmation::Confirmed));
        // An unauthorized batch cannot reach the violating state: admitted.
        let unauthorized = [Command::grant(bob, Edge::UserRole(bob, aud))];
        admit_batch(
            &uni,
            &policy,
            &unauthorized,
            &constraints,
            AuthMode::Explicit,
        )
        .unwrap();
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
        admit_batch(&uni, &policy, &[], &ok, AuthMode::Explicit).unwrap();
        // (bob, staff) is revocable: asserting it frozen fails (potential).
        let shaky = ConstraintSet {
            frozen_edges: vec![Edge::UserRole(bob, staff)],
            ..ConstraintSet::default()
        };
        let err = admit_batch(&uni, &policy, &[], &shaky, AuthMode::Explicit).unwrap_err();
        assert_eq!(err.findings[0].kind, FindingKind::FrozenEdgeViolation);
        assert_eq!(err.findings[0].confirmation, Some(Confirmation::Potential));
        // Revoking it outright fails confirmed.
        let batch = [Command::revoke(jane, Edge::UserRole(bob, staff))];
        let err = admit_batch(&uni, &policy, &batch, &shaky, AuthMode::Explicit).unwrap_err();
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
        let impact = analyze_batch(
            &uni2,
            &policy,
            &batch,
            &ConstraintSet::default(),
            AuthMode::Explicit,
        );
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
