//! # adminref-workloads
//!
//! Seeded, deterministic policy and command-queue generators plus the
//! paper's figures as canonical fixtures:
//!
//! * [`templates`] — Figures 1/2, Example 6, the Example 5 nesting;
//! * [`hierarchy`] — layered / chain hierarchies at “thousands of
//!   roles” scale, with user and permission population;
//! * [`admin`] — administrative-privilege injection with controlled
//!   nesting depth;
//! * [`queues`] — command-queue generation with a valid/junk mix;
//! * [`scenarios`] — named stress shapes (deep delegation chains whose
//!   reachable-policy count is combinatorial; the mixed read/write
//!   `churn` workload the monitor differential tests replay).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admin;
pub mod hierarchy;
pub mod queues;
pub mod scenarios;
pub mod templates;

pub use admin::{inject_admin_privs, random_admin_priv, AdminSpec};
pub use hierarchy::{chain, layered, populate_perms, populate_users, Hierarchy, LayeredSpec};
pub use queues::{generate_queue, QueueSpec};
pub use scenarios::{
    churn, cone, deep_delegation, grow_only, seeded_defects, wide_universe_trickle, write_storm,
    ChurnReader, ChurnSpec, ChurnWorkload, ConeSpec, ConeWorkload, DelegationSpec,
    DelegationWorkload, GrowOnlySpec, GrowOnlyWorkload, SeededDefectsWorkload, TrickleSpec,
    TrickleWorkload, WriteStormSpec, WriteStormWorkload,
};
pub use templates::{example6, hospital_fig1, hospital_fig2, hospital_with_nested_delegation};
