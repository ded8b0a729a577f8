//! Policy analyses: statistics, diffs, validation.
//!
//! These are the operational odds and ends a reference monitor or policy
//! administration tool needs around the core calculus: summarising a
//! policy, diffing two snapshots (e.g. before/after a run), and validating
//! that a policy's ids actually belong to its universe.

use std::collections::BTreeSet;

use crate::ids::{Entity, PrivId};
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::universe::{Edge, OutOfRange, Universe};

/// Summary statistics for a policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyStats {
    /// Users mentioned in `UA`.
    pub users: usize,
    /// Roles mentioned anywhere.
    pub roles: usize,
    /// `|UA|`.
    pub ua_edges: usize,
    /// `|RH|`.
    pub rh_edges: usize,
    /// `|PA†|`.
    pub pa_edges: usize,
    /// Distinct privilege vertices.
    pub priv_vertices: usize,
    /// Vertices that are administrative (grant/revoke terms).
    pub admin_vertices: usize,
    /// Maximum connective depth among assigned privileges.
    pub max_priv_depth: u32,
    /// Longest chain of `RH` in roles (the Remark 2 bound).
    pub longest_chain: u32,
    /// Number of SCCs of the role hierarchy (`< roles` iff cycles exist).
    pub hierarchy_sccs: usize,
}

/// Computes [`PolicyStats`].
pub fn stats(universe: &Universe, policy: &Policy) -> PolicyStats {
    policy.check_universe(universe);
    let idx = ReachIndex::build(universe, policy);
    let verts = policy.priv_vertices();
    PolicyStats {
        users: policy.users_mentioned().len(),
        roles: policy.roles_mentioned().len(),
        ua_edges: policy.ua_len(),
        rh_edges: policy.rh_len(),
        pa_edges: policy.pa_len(),
        priv_vertices: verts.len(),
        admin_vertices: verts
            .iter()
            .filter(|&&p| universe.term(p).is_administrative())
            .count(),
        max_priv_depth: verts.iter().map(|&p| universe.depth(p)).max().unwrap_or(0),
        longest_chain: idx.role_closure().longest_chain_roles(),
        hierarchy_sccs: idx.role_closure().scc_count(),
    }
}

/// Difference between two policies over the same universe.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PolicyDiff {
    /// Edges in `after` but not `before`.
    pub added: Vec<Edge>,
    /// Edges in `before` but not `after`.
    pub removed: Vec<Edge>,
}

impl PolicyDiff {
    /// `true` iff the policies have identical edge sets.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Computes the edge-level diff `before → after`.
pub fn diff(before: &Policy, after: &Policy) -> PolicyDiff {
    let b: BTreeSet<Edge> = before.edges().collect();
    let a: BTreeSet<Edge> = after.edges().collect();
    PolicyDiff {
        added: a.difference(&b).copied().collect(),
        removed: b.difference(&a).copied().collect(),
    }
}

/// A structural defect found by [`validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// A user id outside the universe's user table.
    UnknownUser(u32),
    /// A role id outside the universe's role table.
    UnknownRole(u32),
    /// A privilege id outside the universe's term table.
    UnknownPriv(u32),
    /// The policy was built against a different universe.
    UniverseMismatch,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnknownUser(u) => write!(f, "unknown user id {u}"),
            ValidationError::UnknownRole(r) => write!(f, "unknown role id {r}"),
            ValidationError::UnknownPriv(p) => write!(f, "unknown privilege id {p}"),
            ValidationError::UniverseMismatch => write!(f, "policy belongs to another universe"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks that every id in the policy resolves in `universe`.
pub fn validate(universe: &Universe, policy: &Policy) -> Result<(), ValidationError> {
    if policy.universe_tag() != universe.tag() {
        return Err(ValidationError::UniverseMismatch);
    }
    let check_edge = |edge: Edge| universe.check_edge(edge).map_err(unknown_id);
    for edge in policy.edges() {
        check_edge(edge)?;
        // Nested edges of assigned privileges are valid by construction of
        // the interner, but check them anyway — validation guards against
        // corrupted deserialized input.
        if let Edge::RolePriv(_, p) = edge {
            for nested in universe.edges_within(p) {
                check_edge(nested)?;
            }
        }
    }
    Ok(())
}

/// [`Universe::check_edge`]'s complaint as a [`ValidationError`].
fn unknown_id(e: OutOfRange) -> ValidationError {
    // Ids are `u32` indices, so the raw id fits.
    let id = e.id as u32;
    match e.what {
        "user" => ValidationError::UnknownUser(id),
        "role" => ValidationError::UnknownRole(id),
        "term" => ValidationError::UnknownPriv(id),
        what => unreachable!("an edge has no {what} ids"),
    }
}

/// The entity/perm authorization matrix, sorted — a canonical form of the
/// policy's non-administrative meaning (two policies are Definition-6
/// equivalent iff their matrices are equal).
pub fn authorization_matrix(
    universe: &Universe,
    policy: &Policy,
) -> Vec<(Entity, crate::ids::Perm)> {
    let idx = ReachIndex::build(universe, policy);
    let mut out = Vec::new();
    let entities = universe
        .users()
        .map(Entity::User)
        .chain(universe.roles().map(Entity::Role));
    for v in entities {
        for perm in idx.perms_reachable(universe, policy, v) {
            out.push((v, perm));
        }
    }
    out
}

/// The set of distinct administrative privilege vertices, useful for
/// auditing which delegations a policy contains.
pub fn admin_vertices(universe: &Universe, policy: &Policy) -> Vec<PrivId> {
    policy
        .priv_vertices()
        .into_iter()
        .filter(|&p| universe.term(p).is_administrative())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;

    fn sample() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("diana", "nurse")
            .inherit("staff", "nurse")
            .inherit("nurse", "dbusr1")
            .permit("dbusr1", "read", "t1");
        let (joe, nurse) = {
            let u = b.universe_mut();
            (u.user("joe"), u.find_role("nurse").unwrap())
        };
        let g = b.universe_mut().grant_user_role(joe, nurse);
        let nested = {
            let u = b.universe_mut();
            let hr = u.role("hr");
            u.grant_role_priv(hr, g)
        };
        b = b.assign_priv("hr", nested);
        b.finish()
    }

    #[test]
    fn stats_fields() {
        let (uni, policy) = sample();
        let s = stats(&uni, &policy);
        assert_eq!(s.users, 1, "only diana is assigned");
        assert_eq!(s.ua_edges, 1);
        assert_eq!(s.rh_edges, 2);
        assert_eq!(s.pa_edges, 2);
        assert_eq!(s.priv_vertices, 2);
        assert_eq!(s.admin_vertices, 1);
        assert_eq!(s.max_priv_depth, 2, "grant(hr, grant(joe, nurse))");
        assert_eq!(s.longest_chain, 3, "staff → nurse → dbusr1");
        assert!(s.hierarchy_sccs >= 3);
    }

    #[test]
    fn diff_tracks_both_directions() {
        let (uni, policy) = sample();
        let mut after = policy.clone();
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let staff = uni.find_role("staff").unwrap();
        after.remove_edge(Edge::UserRole(diana, nurse));
        after.add_edge(Edge::UserRole(diana, staff));
        let d = diff(&policy, &after);
        assert_eq!(d.added, vec![Edge::UserRole(diana, staff)]);
        assert_eq!(d.removed, vec![Edge::UserRole(diana, nurse)]);
        assert!(diff(&policy, &policy).is_empty());
    }

    #[test]
    fn validate_accepts_well_formed() {
        let (uni, policy) = sample();
        assert_eq!(validate(&uni, &policy), Ok(()));
    }

    #[test]
    fn validate_rejects_foreign_universe() {
        let (_, policy) = sample();
        let other = Universe::new();
        assert_eq!(
            validate(&other, &policy),
            Err(ValidationError::UniverseMismatch)
        );
    }

    #[test]
    fn validate_rejects_out_of_range_ids() {
        use crate::ids::{RoleId, UserId};
        let (uni, policy) = sample();
        let nurse = uni.find_role("nurse").unwrap();
        for (edge, error) in [
            (
                Edge::UserRole(UserId(999), nurse),
                ValidationError::UnknownUser(999),
            ),
            (
                Edge::RoleRole(nurse, RoleId(998)),
                ValidationError::UnknownRole(998),
            ),
            (
                Edge::RolePriv(nurse, PrivId(997)),
                ValidationError::UnknownPriv(997),
            ),
        ] {
            let mut bad = policy.clone();
            bad.add_edge(edge);
            assert_eq!(validate(&uni, &bad), Err(error), "{edge:?}");
        }
    }

    #[test]
    fn matrix_is_canonical_form() {
        let (uni, policy) = sample();
        let m1 = authorization_matrix(&uni, &policy);
        // Adding an admin privilege does not change the matrix.
        let mut policy2 = policy.clone();
        let hr = uni.find_role("hr").unwrap();
        let g = admin_vertices(&uni, &policy)[0];
        policy2.add_edge(Edge::RolePriv(hr, g));
        let m2 = authorization_matrix(&uni, &policy2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn admin_vertices_filters_perms() {
        let (uni, policy) = sample();
        let verts = admin_vertices(&uni, &policy);
        assert_eq!(verts.len(), 1);
        assert!(uni.term(verts[0]).is_administrative());
    }
}
