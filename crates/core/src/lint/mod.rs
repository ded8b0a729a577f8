//! Static policy analysis: lint diagnostics and goal-directed alphabet
//! slicing, both search-free.
//!
//! This module looks at an administrative policy *statically* — no
//! state-space exploration — and produces two things:
//!
//! 1. **Diagnostics** ([`lint_policy`]): the policy's rule sites
//!    ([`rule_sites`]) judged against the may-add closure `Φ⁺`
//!    ([`Potential`]), as typed [`Finding`]s. Every "is this rule
//!    authorized somewhere?" question goes to the closure's one
//!    authority (`Potential::authority`), which the admission
//!    interval's `Φ⁻` asks too, so `dead-command` fires on a grant
//!    exactly when the interval freezes its edge and on a revoke
//!    exactly when it rules its edge out. The catalog:
//!
//!    | kind | severity | fires when |
//!    |------|----------|------------|
//!    | `dead-command` | warning | a rule can never change any reachable policy: a grant of a frozen root edge, or a revoke of an edge outside `Φ⁺` |
//!    | `unauthorizable` | warning | no `⊑`-compatible authorizing term is ever assigned in `Φ⁺` |
//!    | `redundant-grant` | note | the role already reaches the term through the hierarchy |
//!    | `shadowed-grant` | warning | a revocation authorized in `Φ⁺` can strip the grant rule |
//!    | `sod-conflict` | error/warning | a user statically reaches both roles of a declared separation-of-duty pair (error when the root itself witnesses the co-holding, warning when only `Φ⁺` does; the warning names the rules whose grant chains add an edge on the way) |
//!    | `frozen-edge-violation` | error | an admission constraint asserts an edge frozen that the candidate policy drops or leaves revocable (see [`crate::admission`]) |
//!
//!    Every check is conservative over the may-add closure `Φ⁺`
//!    ([`Potential`]), which contains every reachable policy (in ordered
//!    modes, every one built from edges the policy's terms name; see the
//!    `potential` module docs); see the check docs in the `checks` module
//!    for the exact conditions.
//!
//! 2. **Slicing** ([`slice_alphabet`]): a goal-directed cone-of-influence
//!    reduction of the command alphabet that preserves the answer of
//!    `perm_reachable` exactly — the soundness argument lives in the
//!    `slice` module docs. [`crate::safety::SafetyConfig::slice`]
//!    turns it on (the default) for the bounded search and the
//!    saturation engine alike.
//!
//! Both halves share the same foundation: the goal predicate and the
//! authorization relation are *monotone* in the policy's edge set, so a
//! least fixpoint of "edges some assigned rule can add" over-approximates
//! everything any run can ever do.

mod checks;
mod deps;
mod findings;
mod potential;
mod slice;

pub use deps::{rule_sites, RuleSite};
pub use findings::{Confirmation, Finding, FindingKind, LintReport, Severity};
pub use potential::Potential;
pub use slice::{slice_alphabet, SliceOutcome};

use crate::policy::Policy;
use crate::transition::AuthMode;
use crate::universe::Universe;

/// Configuration for a lint pass.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Authorization semantics the policy runs under; affects which
    /// terms count as authorizing (`⊑`-compatible in ordered mode).
    pub auth_mode: AuthMode,
    /// Separation-of-duty role pairs to check statically (the same
    /// pairs [`crate::verify::specs::separation_of_duty`] monitors
    /// dynamically).
    pub sod_pairs: Vec<(crate::ids::RoleId, crate::ids::RoleId)>,
}

/// Runs the full lint pass over `(universe, root)` and returns the
/// canonically ordered report.
pub fn lint_policy(universe: &Universe, root: &Policy, config: &LintConfig) -> LintReport {
    let potential = Potential::from_policy(universe, root, config.auth_mode);
    let sites = rule_sites(universe, root);
    let findings = checks::run_checks(universe, root, &potential, &sites, config);
    let mut report = LintReport {
        findings,
        rules_checked: sites.len(),
        closure_edges: potential.policy.edge_count(),
    };
    report.canonicalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::universe::{Edge, PrivTerm};

    #[test]
    fn clean_grow_only_policy_has_no_findings() {
        // The hospital-shaped fixture: one live grant rule, nothing
        // dead, shadowed or redundant.
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        b = b.assign_priv("hr", g);
        let (uni, policy) = b.finish();
        let report = lint_policy(&uni, &policy, &LintConfig::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.rules_checked >= 1);
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn dead_grant_and_dead_revoke_are_flagged() {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .assign("bob", "staff")
            .declare_user("eve");
        let (bob, staff, eve, temps) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_role("staff").unwrap(),
                u.find_user("eve").unwrap(),
                u.role("temps"),
            )
        };
        // Dead grant: (bob, staff) is already in the root and nothing
        // can ever remove it.
        let dead_grant = b.universe_mut().grant_user_role(bob, staff);
        // Dead revoke: (eve, temps) is never present.
        let dead_revoke = b.universe_mut().priv_revoke(Edge::UserRole(eve, temps));
        b = b
            .assign_priv("hr", dead_grant)
            .assign_priv("hr", dead_revoke);
        let (uni, policy) = b.finish();
        let report = lint_policy(&uni, &policy, &LintConfig::default());
        let dead: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::DeadCommand)
            .collect();
        assert_eq!(dead.len(), 2, "{:?}", report.findings);
        assert!(dead.iter().any(|f| f.term == Some(dead_grant)));
        assert!(dead.iter().any(|f| f.term == Some(dead_revoke)));
    }

    #[test]
    fn nested_rule_inside_revoke_is_unauthorizable() {
        // ops holds ♦(aud → ¤(erin, temps)): the outer revoke is dead
        // (its edge never present) and the inner grant is nested where
        // the closure can never assign it.
        let mut b = PolicyBuilder::new()
            .assign("olga", "ops")
            .assign("erin", "temps");
        let (erin, temps, aud) = {
            let u = b.universe_mut();
            (
                u.find_user("erin").unwrap(),
                u.find_role("temps").unwrap(),
                u.role("aud"),
            )
        };
        let inner = b.universe_mut().grant_user_role(erin, temps);
        let outer = b.universe_mut().priv_revoke(Edge::RolePriv(aud, inner));
        b = b.assign_priv("ops", outer);
        let (uni, policy) = b.finish();
        let report = lint_policy(&uni, &policy, &LintConfig::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::Unauthorizable && f.term == Some(inner)),
            "{:?}",
            report.findings
        );
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DeadCommand && f.term == Some(outer)));
    }

    #[test]
    fn shadowed_and_redundant_grants_are_flagged() {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .assign("mike", "sec")
            .declare_user("bob")
            .inherit("senior", "junior")
            .permit("junior", "read", "logs")
            .permit("senior", "read", "logs");
        let (bob, staff, hr) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.role("staff"),
                u.find_role("hr").unwrap(),
            )
        };
        let rule = b.universe_mut().grant_user_role(bob, staff);
        b = b.assign_priv("hr", rule);
        // sec can revoke hr's grant rule: the rule is shadowed.
        let strip = b.universe_mut().priv_revoke(Edge::RolePriv(hr, rule));
        b = b.assign_priv("sec", strip);
        let (mut uni, policy) = b.finish();
        let report = lint_policy(&uni, &policy, &LintConfig::default());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::ShadowedGrant
                    && f.edge == Some(Edge::RolePriv(hr, rule))),
            "{:?}",
            report.findings
        );
        // senior's direct (read, logs) is redundant through junior.
        let read_logs_perm = uni.perm("read", "logs");
        let read_logs = uni.find_term(PrivTerm::Perm(read_logs_perm)).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::RedundantGrant && f.term == Some(read_logs)));
    }

    #[test]
    fn redundant_grant_names_the_lowest_reached_junior() {
        // (read, logs) is held by four roles. `lone` has the lowest id
        // but senior does not reach it; of the two juniors senior does
        // reach, `j_low` has the lower id although its hierarchy edge
        // was added second.
        let (uni, policy) = PolicyBuilder::new()
            .declare_role("lone")
            .declare_role("senior")
            .declare_role("j_low")
            .declare_role("j_high")
            .inherit("senior", "j_high")
            .inherit("senior", "j_low")
            .permit("lone", "read", "logs")
            .permit("j_low", "read", "logs")
            .permit("j_high", "read", "logs")
            .permit("senior", "read", "logs")
            .finish();
        let report = lint_policy(&uni, &policy, &LintConfig::default());
        let redundant: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::RedundantGrant)
            .collect();
        assert_eq!(redundant.len(), 1, "{:?}", report.findings);
        assert_eq!(redundant[0].role, uni.find_role("senior").unwrap());
        assert!(
            redundant[0].message.contains("junior role 'j_low'"),
            "{}",
            redundant[0].message
        );
    }

    #[test]
    fn sod_conflicts_report_root_and_grantable_paths() {
        let mut b = PolicyBuilder::new()
            .assign("jane", "pay")
            .assign("jane", "audit")
            .assign("mike", "pay")
            .assign("root", "admin")
            .declare_user("nobody");
        let (mike, audit, pay) = {
            let u = b.universe_mut();
            (
                u.find_user("mike").unwrap(),
                u.find_role("audit").unwrap(),
                u.find_role("pay").unwrap(),
            )
        };
        let g = b.universe_mut().grant_user_role(mike, audit);
        b = b.assign_priv("admin", g);
        let (uni, policy) = b.finish();
        let config = LintConfig {
            sod_pairs: vec![(pay, audit)],
            ..LintConfig::default()
        };
        let report = lint_policy(&uni, &policy, &config);
        let sod: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::SodConflict)
            .collect();
        // jane violates in the root; mike becomes able via admin's rule.
        assert_eq!(sod.len(), 2, "{:?}", report.findings);
        assert!(sod.iter().any(|f| f.message.contains("root policy itself")
            && f.confirmation == Some(Confirmation::Confirmed)
            && f.severity == Severity::Error));
        assert!(sod.iter().any(|f| f.message.contains("grantable")
            && f.message.contains("enabled by rule(s)")
            && f.confirmation == Some(Confirmation::Potential)
            && f.severity == Severity::Warning));
        assert_eq!(report.max_severity(), Some(Severity::Error));
        // Without declared pairs, nothing fires.
        let clean = lint_policy(&uni, &policy, &LintConfig::default());
        assert!(clean
            .findings
            .iter()
            .all(|f| f.kind != FindingKind::SodConflict));
    }
}
