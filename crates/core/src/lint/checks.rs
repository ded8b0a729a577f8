//! The lint checks: search-free diagnostics over `(root, Φ⁺)`.
//!
//! Every check is a pure function of the root policy, its rule sites
//! and the may-add closure [`Potential`] — no state-space search
//! anywhere. Every authorization question a check asks (`dead-command`'s
//! grant side, `unauthorizable`, `shadowed-grant`) goes to the closure's
//! one [`Authority`], the same one the admission interval's `Φ⁻` asks,
//! so a finding never contradicts the interval. Each check documents the
//! exact (conservative) condition it fires on; all of them are vacuously
//! quiet on policies whose rules are all live, authorized and
//! non-overlapping, which is what keeps `fixtures/hospital.rbac`
//! finding-free.

use std::collections::BTreeSet;

use crate::display::{priv_to_string, Notation};
use crate::ids::{Entity, PrivId, RoleId, UserId};
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::universe::{Edge, PrivTerm, Universe};

use super::deps::RuleSite;
use super::findings::{Confirmation, Finding, FindingKind, Severity};
use super::potential::{Authority, Potential};
use super::LintConfig;

/// Runs every check and returns the (unsorted) findings.
pub(super) fn run_checks(
    universe: &Universe,
    root: &Policy,
    potential: &Potential,
    sites: &[RuleSite],
    config: &LintConfig,
) -> Vec<Finding> {
    let authority = potential.authority(universe);
    let root_index = ReachIndex::build(universe, root);
    let mut findings = Vec::new();
    dead_commands(universe, root, potential, &authority, sites, &mut findings);
    unauthorizable(universe, &authority, sites, &mut findings);
    redundant_grants(universe, root, &root_index, &mut findings);
    shadowed_grants(universe, root, &root_index, &authority, &mut findings);
    sod_conflicts(
        universe,
        potential,
        sites,
        &root_index,
        config,
        &mut findings,
    );
    findings
}

/// A rule is **dead** when no reachable policy changes under it:
///
/// * a grant of an edge already in the root that no reachable policy
///   can remove (nothing in `Φ⁺` authorizes its `♦`: the edge is
///   frozen, in `Φ⁻`) is a permanent no-op;
/// * a revoke of an edge that is neither in the root nor addable can
///   never find its edge present.
fn dead_commands(
    universe: &Universe,
    root: &Policy,
    potential: &Potential,
    authority: &Authority<'_>,
    sites: &[RuleSite],
    findings: &mut Vec<Finding>,
) {
    for site in sites {
        match universe.term(site.term) {
            PrivTerm::Perm(_) => {}
            PrivTerm::Grant(edge) => {
                if root.contains_edge(edge) && !authority.authorizes(PrivTerm::Revoke(edge)) {
                    findings.push(Finding {
                        kind: FindingKind::DeadCommand,
                        severity: Severity::Warning,
                        role: site.role,
                        term: Some(site.term),
                        edge: Some(edge),
                        confirmation: None,
                        message: "grants an edge already in the policy that no reachable \
                                  policy can remove; the rule is a permanent no-op"
                            .to_string(),
                    });
                }
            }
            PrivTerm::Revoke(edge) => {
                if !potential.policy.contains_edge(edge) {
                    findings.push(Finding {
                        kind: FindingKind::DeadCommand,
                        severity: Severity::Warning,
                        role: site.role,
                        term: Some(site.term),
                        edge: Some(edge),
                        confirmation: None,
                        message: "revokes an edge that is neither in the policy nor \
                                  addable by any rule; the edge is never present"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// A rule is **statically unauthorizable** when no `⊑`-compatible
/// authorizing term for it is assigned anywhere in `Φ⁺`: its command
/// can never execute, under any actor, in any reachable policy.
/// Assigned (depth-0) rules authorize themselves, so this fires only on
/// nested rules the closure never surfaces — e.g. a grant nested inside
/// a revoke term.
fn unauthorizable(
    universe: &Universe,
    authority: &Authority<'_>,
    sites: &[RuleSite],
    findings: &mut Vec<Finding>,
) {
    for site in sites {
        if !authority.authorizes(universe.term(site.term)) {
            findings.push(Finding {
                kind: FindingKind::Unauthorizable,
                severity: Severity::Warning,
                role: site.role,
                term: Some(site.term),
                edge: universe.term(site.term).edge(),
                confirmation: None,
                message: "no ⊑-compatible authorizing term is ever assigned in the \
                          may-add closure; this rule can never be executed"
                    .to_string(),
            });
        }
    }
}

/// A privilege assignment `(r, t)` is **redundant** when another role
/// `r′ ≠ r` holds the same term and `r` already reaches `r′` through
/// the root role hierarchy: removing the direct assignment changes no
/// authorization decision. The junior named is the lowest-id such `r′`
/// (the root index's holder lists are ascending).
fn redundant_grants(
    universe: &Universe,
    root: &Policy,
    root_index: &ReachIndex,
    findings: &mut Vec<Finding>,
) {
    for (r, t) in root.pa() {
        let via = root_index
            .holders_of(t)
            .iter()
            .find(|&&r2| r2 != r && root_index.reach_entity(Entity::Role(r), Entity::Role(r2)));
        if let Some(&r2) = via {
            findings.push(Finding {
                kind: FindingKind::RedundantGrant,
                severity: Severity::Note,
                role: r,
                term: Some(t),
                edge: Some(Edge::RolePriv(r, t)),
                confirmation: None,
                message: format!(
                    "role '{}' already reaches this term through junior role '{}'; \
                     the direct assignment is redundant",
                    universe.role_name(r),
                    universe.role_name(r2)
                ),
            });
        }
    }
}

/// A grant rule is **revoke-shadowed** when `Φ⁺` authorizes a revoke
/// of the rule's own assignment edge: a reachable revocation can strip
/// the rule before it is ever used, so nothing it promises is stable.
///
/// The must/may interval sharpens the verdict: when that very revoke
/// term is already assigned in the **root** policy the shadow is
/// `Confirmed` (one command strips the rule today); otherwise it is
/// `Potential`. A rule whose revoke is never authorizable does not fire
/// at all — its assignment edge is frozen and shadowing is impossible.
fn shadowed_grants(
    universe: &Universe,
    root: &Policy,
    root_index: &ReachIndex,
    authority: &Authority<'_>,
    findings: &mut Vec<Finding>,
) {
    for (r, t) in root.pa() {
        if !matches!(universe.term(t), PrivTerm::Grant(_)) {
            continue;
        }
        let rule_edge = Edge::RolePriv(r, t);
        if !authority.authorizes(PrivTerm::Revoke(rule_edge)) {
            continue;
        }
        let in_root = universe
            .find_term(PrivTerm::Revoke(rule_edge))
            .is_some_and(|rev| !root_index.holders_of(rev).is_empty());
        let (confirmation, message) = if in_root {
            (
                Confirmation::Confirmed,
                "a revocation assigned in the root policy can strip this grant rule \
                 from the role before it is used",
            )
        } else {
            (
                Confirmation::Potential,
                "a reachable revocation can strip this grant rule from the role \
                 before it is used",
            )
        };
        findings.push(Finding {
            kind: FindingKind::ShadowedGrant,
            severity: Severity::Warning,
            role: r,
            term: Some(t),
            edge: Some(rule_edge),
            confirmation: Some(confirmation),
            message: message.to_string(),
        });
    }
}

/// **Separation-of-duty conflicts** over the caller-declared role pairs
/// (the same pairs [`crate::verify::specs::separation_of_duty`] checks
/// dynamically): a user who can statically reach both roles of a pair
/// in `Φ⁺` violates the constraint in some reachable policy — or in the
/// root itself.
///
/// Severity is interval-sharpened: a co-holding witnessed by the root
/// policy itself is `Confirmed` and an **error** (the live state
/// violates the constraint); a co-holding that only exists somewhere in
/// the may-add closure is `Potential` and a **warning** (some
/// authorized command sequence could introduce it).
///
/// The `Φ⁺` reachability index is built only when pairs are declared.
fn sod_conflicts(
    universe: &Universe,
    potential: &Potential,
    sites: &[RuleSite],
    root_index: &ReachIndex,
    config: &LintConfig,
    findings: &mut Vec<Finding>,
) {
    if config.sod_pairs.is_empty() {
        return;
    }
    let potential_index = ReachIndex::build(universe, &potential.policy);
    for &(a, b) in &config.sod_pairs {
        for u in universe.users() {
            let reaches = |idx: &ReachIndex| {
                idx.reach_entity(Entity::User(u), Entity::Role(a))
                    && idx.reach_entity(Entity::User(u), Entity::Role(b))
            };
            if !reaches(&potential_index) {
                continue;
            }
            let confirmed = reaches(root_index);
            let message = if confirmed {
                format!(
                    "user '{}' reaches both '{}' and '{}' in the root policy itself",
                    universe.user_name(u),
                    universe.role_name(a),
                    universe.role_name(b)
                )
            } else {
                let enablers =
                    enabling_rules(universe, potential, &potential_index, sites, u, a, b);
                format!(
                    "user '{}' can statically reach both '{}' and '{}' via grantable \
                     edges{}",
                    universe.user_name(u),
                    universe.role_name(a),
                    universe.role_name(b),
                    render_enablers(universe, &enablers)
                )
            };
            findings.push(Finding {
                kind: FindingKind::SodConflict,
                severity: if confirmed {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                role: a,
                term: None,
                edge: None,
                confirmation: Some(if confirmed {
                    Confirmation::Confirmed
                } else {
                    Confirmation::Potential
                }),
                message,
            });
        }
    }
}

/// The rule terms whose grant chains contain an addable edge that
/// advances `u` toward `a` or `b` in `Φ⁺` (indexed by `idx`) — the
/// rules to look at first when breaking the conflict.
fn enabling_rules(
    universe: &Universe,
    potential: &Potential,
    idx: &ReachIndex,
    sites: &[RuleSite],
    u: UserId,
    a: RoleId,
    b: RoleId,
) -> BTreeSet<PrivId> {
    let toward = |x: RoleId| {
        idx.reach_entity(Entity::Role(x), Entity::Role(a))
            || idx.reach_entity(Entity::Role(x), Entity::Role(b))
    };
    let relevant = |edge: Edge| match edge {
        Edge::UserRole(u2, x) => u2 == u && toward(x),
        Edge::RoleRole(x, y) => idx.reach_entity(Entity::User(u), Entity::Role(x)) && toward(y),
        Edge::RolePriv(..) => false,
    };
    sites
        .iter()
        .filter(|site| {
            site.may_add(universe)
                .any(|e| potential.addable.contains(&e) && relevant(e))
        })
        .map(|site| site.term)
        .collect()
}

fn render_enablers(universe: &Universe, enablers: &BTreeSet<PrivId>) -> String {
    if enablers.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = enablers
        .iter()
        .map(|&t| format!("'{}'", priv_to_string(universe, t, Notation::Ascii)))
        .collect();
    format!("; enabled by rule(s) {}", rendered.join(", "))
}
