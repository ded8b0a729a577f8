//! Role-graph administrative domains (Wang & Osborn, DBSec 2003) —
//! reference \[12\] of the paper.
//!
//! Wang and Osborn partition the role graph into *administrative domains*,
//! each with a single administrator role; an administrator may modify
//! exactly the edges whose endpoints both lie in its domain. Compared to
//! the paper's model this is coarse (no per-edge privileges, no nesting)
//! but checks are a constant-time partition lookup — the cheap end of the
//! baseline spectrum.

use adminref_core::ids::RoleId;
use adminref_core::universe::Edge;

/// Identifier of a domain within an [`AdminDomains`] partition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DomainId(pub u32);

/// Errors from building a domain partition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainError {
    /// A role was placed in two domains.
    Overlap(RoleId),
    /// A domain id out of range was referenced.
    UnknownDomain(DomainId),
    /// A domain's administrator is not a member of the domain.
    AdminOutsideDomain {
        /// The domain.
        domain: DomainId,
        /// Its declared administrator.
        admin: RoleId,
    },
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::Overlap(r) => write!(f, "role {r:?} assigned to two domains"),
            DomainError::UnknownDomain(d) => write!(f, "unknown domain {d:?}"),
            DomainError::AdminOutsideDomain { domain, admin } => {
                write!(f, "administrator {admin:?} outside domain {domain:?}")
            }
        }
    }
}

impl std::error::Error for DomainError {}

/// A partition of (a subset of) the roles into administrative domains.
#[derive(Clone, Debug)]
pub struct AdminDomains {
    /// Domain of each role (dense by role id), `None` = unadministered.
    domain_of: Vec<Option<DomainId>>,
    /// Administrator role per domain.
    admin_of: Vec<RoleId>,
}

impl AdminDomains {
    /// Builds a partition from `(admin, members)` groups over `role_count`
    /// roles.
    pub fn build(role_count: usize, groups: &[(RoleId, Vec<RoleId>)]) -> Result<Self, DomainError> {
        let mut domain_of: Vec<Option<DomainId>> = vec![None; role_count];
        let mut admin_of = Vec::with_capacity(groups.len());
        for (i, (admin, members)) in groups.iter().enumerate() {
            let d = DomainId(i as u32);
            if !members.contains(admin) {
                return Err(DomainError::AdminOutsideDomain {
                    domain: d,
                    admin: *admin,
                });
            }
            for &m in members {
                let slot = domain_of
                    .get_mut(m.index())
                    .ok_or(DomainError::UnknownDomain(d))?;
                if slot.is_some() {
                    return Err(DomainError::Overlap(m));
                }
                *slot = Some(d);
            }
            admin_of.push(*admin);
        }
        Ok(AdminDomains {
            domain_of,
            admin_of,
        })
    }

    /// The domain a role belongs to, if any.
    pub fn domain_of(&self, r: RoleId) -> Option<DomainId> {
        self.domain_of.get(r.index()).copied().flatten()
    }

    /// The administrator of a domain.
    pub fn admin_of(&self, d: DomainId) -> RoleId {
        self.admin_of[d.0 as usize]
    }

    /// Number of domains.
    pub fn domain_count(&self) -> usize {
        self.admin_of.len()
    }

    /// `true` iff `admin` may modify `edge`: every role endpoint of the
    /// edge lies in a domain administered by `admin`.
    ///
    /// User endpoints are unconstrained (Wang–Osborn administrate the
    /// *role graph*; user assignment inherits the target role's domain),
    /// and privilege endpoints inherit their source role's domain.
    pub fn can_modify(&self, admin: RoleId, edge: Edge) -> bool {
        let admins =
            |r: RoleId| -> bool { self.domain_of(r).is_some_and(|d| self.admin_of(d) == admin) };
        match edge {
            Edge::UserRole(_, r) => admins(r),
            Edge::RoleRole(a, b) => admins(a) && admins(b),
            Edge::RolePriv(r, _) => admins(r),
        }
    }

    /// Roles of one domain, in id order.
    pub fn members(&self, d: DomainId) -> Vec<RoleId> {
        self.domain_of
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                if *slot == Some(d) {
                    Some(RoleId(i as u32))
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::ids::UserId;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::universe::Universe;

    /// Six roles in two domains: {med_admin, nurse, doctor} and
    /// {it_admin, dbusr, prntusr}.
    fn setup() -> (Universe, AdminDomains) {
        let (uni, _) = PolicyBuilder::new()
            .declare_role("med_admin")
            .declare_role("nurse")
            .declare_role("doctor")
            .declare_role("it_admin")
            .declare_role("dbusr")
            .declare_role("prntusr")
            .finish();
        let r = |n: &str| uni.find_role(n).unwrap();
        let domains = AdminDomains::build(
            uni.role_count(),
            &[
                (
                    r("med_admin"),
                    vec![r("med_admin"), r("nurse"), r("doctor")],
                ),
                (r("it_admin"), vec![r("it_admin"), r("dbusr"), r("prntusr")]),
            ],
        )
        .unwrap();
        (uni, domains)
    }

    #[test]
    fn partition_lookup() {
        let (uni, domains) = setup();
        let r = |n: &str| uni.find_role(n).unwrap();
        assert_eq!(domains.domain_count(), 2);
        assert_eq!(domains.domain_of(r("nurse")), Some(DomainId(0)));
        assert_eq!(domains.domain_of(r("dbusr")), Some(DomainId(1)));
        assert_eq!(domains.admin_of(DomainId(0)), r("med_admin"));
        assert_eq!(domains.members(DomainId(1)).len(), 3);
    }

    #[test]
    fn intra_domain_edges_allowed() {
        let (uni, domains) = setup();
        let r = |n: &str| uni.find_role(n).unwrap();
        let med = r("med_admin");
        assert!(domains.can_modify(med, Edge::RoleRole(r("doctor"), r("nurse"))));
        assert!(domains.can_modify(med, Edge::UserRole(UserId(0), r("nurse"))));
        assert!(!domains.can_modify(med, Edge::RoleRole(r("doctor"), r("dbusr"))));
        assert!(!domains.can_modify(med, Edge::UserRole(UserId(0), r("dbusr"))));
    }

    #[test]
    fn cross_domain_edges_denied_for_everyone() {
        let (uni, domains) = setup();
        let r = |n: &str| uni.find_role(n).unwrap();
        let edge = Edge::RoleRole(r("nurse"), r("prntusr"));
        assert!(!domains.can_modify(r("med_admin"), edge));
        assert!(!domains.can_modify(r("it_admin"), edge));
    }

    #[test]
    fn overlapping_domains_rejected() {
        let (uni, _) = setup();
        let r = |n: &str| uni.find_role(n).unwrap();
        let err = AdminDomains::build(
            uni.role_count(),
            &[
                (r("med_admin"), vec![r("med_admin"), r("nurse")]),
                (r("it_admin"), vec![r("it_admin"), r("nurse")]),
            ],
        )
        .unwrap_err();
        assert_eq!(err, DomainError::Overlap(r("nurse")));
    }

    #[test]
    fn admin_must_be_member() {
        let (uni, _) = setup();
        let r = |n: &str| uni.find_role(n).unwrap();
        let err = AdminDomains::build(uni.role_count(), &[(r("med_admin"), vec![r("nurse")])])
            .unwrap_err();
        assert!(matches!(err, DomainError::AdminOutsideDomain { .. }));
    }

    #[test]
    fn unadministered_roles_cannot_be_modified() {
        let (uni, _) = setup();
        let r = |n: &str| uni.find_role(n).unwrap();
        let domains = AdminDomains::build(
            uni.role_count(),
            &[(r("med_admin"), vec![r("med_admin"), r("nurse")])],
        )
        .unwrap();
        assert_eq!(domains.domain_of(r("dbusr")), None);
        assert!(!domains.can_modify(r("med_admin"), Edge::UserRole(UserId(0), r("dbusr"))));
    }
}
