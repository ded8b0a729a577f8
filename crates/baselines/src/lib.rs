//! # adminref-baselines
//!
//! From-scratch implementations of the administrative-RBAC baselines the
//! paper discusses (§1, §5), all driven by the `adminref-core` policy
//! substrate so that comparisons run on identical hierarchies:
//!
//! * [`arbac`] — ARBAC97 (URA97/PRA97 rules with prerequisite conditions
//!   and role ranges), Sandhu–Bhamidipati–Munawer 1999;
//! * [`arbac_reach`] — user-role reachability analysis over ARBAC rules
//!   (exact monotone fixpoint + bounded general search);
//! * [`scope`] — administrative scope, Crampton–Loizou 2003;
//! * [`role_graph`] — role-graph administrative domains, Wang–Osborn 2003;
//! * [`hru`] — the HRU access-matrix model with its mono-operational
//!   safety decision and a bounded general checker, Harrison–Ruzzo–Ullman
//!   1976.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arbac;
pub mod arbac_reach;
pub mod hru;
pub mod role_graph;
pub mod scope;

pub use arbac::{Arbac97, CanAssign, CanAssignPerm, CanRevoke, CanRevokePerm, Prereq, RoleRange};
pub use arbac_reach::{
    reachable_roles_monotone, role_reachable_bounded, role_reachable_capped, BoundedAnswer,
};
pub use hru::{Matrix as HruMatrix, SafetyAnswer, System as HruSystem};
pub use role_graph::{AdminDomains, DomainError, DomainId};
pub use scope::AdminScope;
