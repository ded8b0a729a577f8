//! # adminref-core
//!
//! A from-scratch implementation of **“Refinement for Administrative
//! Policies”** (M.A.C. Dekker and S. Etalle, 2007): administrative RBAC
//! policies over ANSI General Hierarchical RBAC, the small-step semantics
//! of administrative commands, non-administrative and administrative
//! refinement, and the privilege ordering `⊑φ` with its decision procedure.
//!
//! ## Map from the paper
//!
//! | Paper | Here |
//! |-------|------|
//! | Definition 1 (non-administrative policies) | [`policy::Policy`] + [`Policy::is_non_administrative`](policy::Policy::is_non_administrative) |
//! | Definition 2 (privilege grammar `P†`) | [`universe::PrivTerm`] interned in [`universe::Universe`] |
//! | Definition 3 (administrative policies) | [`policy::Policy`] |
//! | Definition 4 (commands, queues) | [`command`] |
//! | Definition 5 (transition function `⇒`) | [`transition`] |
//! | Definition 6 (non-administrative refinement `⊒`) | [`refinement`] |
//! | Definition 7 (administrative refinement `⊒†`) | [`simulation`] (bounded check) |
//! | Definition 8 (privilege ordering `⊑φ`) + Lemma 1 | [`ordering`] |
//! | Example 6 / Remark 2 (infinite weaker sets, depth bound) | [`enumerate`] |
//! | §2 sessions | [`session`] |
//!
//! ## Quick start
//!
//! ```
//! use adminref_core::prelude::*;
//!
//! // Figure 3: Jane (HR) holds ¤(bob, staff); staff reaches dbusr2.
//! let mut builder = PolicyBuilder::new()
//!     .assign("jane", "hr")
//!     .declare_user("bob")
//!     .inherit("staff", "dbusr2")
//!     .permit("dbusr2", "write", "t3");
//! let (bob, staff) = {
//!     let u = builder.universe_mut();
//!     (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
//! };
//! let held = builder.universe_mut().grant_user_role(bob, staff);
//! let (mut uni, policy) = builder.assign_priv("hr", held).finish();
//!
//! // The ordering lets Jane assign Bob directly to dbusr2.
//! let dbusr2 = uni.find_role("dbusr2").unwrap();
//! let weaker = uni.grant_user_role(bob, dbusr2);
//! let order = PrivilegeOrder::new(&uni, &policy, OrderingMode::Extended);
//! assert!(order.is_weaker(held, weaker));
//! ```
//!
//! Every substrate (interning, bitsets, SCC/closure, reachability, the
//! compact-state search engine) is implemented here, and every analysis
//! runs on the caller's thread. The only dependency in use is the
//! vendored `minisat` solver; the manifest's other two entries are
//! unused and leave with the benchmark's lockfile refresh.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod analysis;
pub mod bitset;
pub mod checksum;
pub mod closure;
pub mod command;
pub mod display;
pub mod enumerate;
pub mod ids;
pub mod interner;
pub mod lint;
pub mod ordering;
pub mod policy;
pub mod reach;
pub mod refinement;
pub mod safety;
pub mod search;
pub mod session;
pub mod simulation;
pub mod snapshot;
pub mod transition;
pub mod universe;
pub mod verify;

/// The items nearly every consumer wants.
pub mod prelude {
    pub use crate::admission::{
        evaluate_constraints, evaluate_snapshot, is_grow_only, simulate_batch, AdmissionReport,
        Candidate, ConstraintSet, EdgeStatus, ImpactReport, Interval, PermFlip, StatusChange,
    };
    pub use crate::checksum::{edge_digest, edges_checksum, policy_checksum, toggle_edge};
    pub use crate::command::{Command, CommandKind, CommandQueue};
    pub use crate::display::{
        command_to_string, edge_to_string, perm_to_string, policy_to_string, priv_to_string,
        Notation,
    };
    pub use crate::enumerate::{enumerate_weaker, remark2_depth, EnumerationConfig, WeakerSet};
    pub use crate::ids::{ActionId, Entity, Node, ObjectId, Perm, PrivId, RoleId, UserId};
    pub use crate::lint::{
        lint_policy, rule_sites, slice_alphabet, Confirmation, Finding, FindingKind, LintConfig,
        LintReport, Potential, RuleSite, Severity, SliceOutcome,
    };
    pub use crate::ordering::{Derivation, OrderingMode, PrivilegeOrder};
    pub use crate::policy::{Policy, PolicyBuilder};
    pub use crate::reach::{reaches, reaches_entity, EdgeDelta, ReachIndex};
    pub use crate::refinement::{
        equivalent, refinement_violations, refines, violations_between, weaken_assignment,
        RefinementViolation,
    };
    pub use crate::safety::{
        find_reachable_clone, perm_reachable, ReachabilityAnswer, SafetyConfig, Truncation,
    };
    pub use crate::search::{SearchLimits, SearchOutcome, SearchStats};
    pub use crate::session::{Session, SessionError};
    pub use crate::simulation::{
        check_admin_refinement, command_alphabet, SimulationConfig, SimulationDirection,
        SimulationOutcome,
    };
    pub use crate::snapshot::{batch_deltas, PolicySnapshot, PublishMode, PublishPath};
    pub use crate::transition::{
        apply_edge, authorize, authorize_explicit, authorize_with_order, required_privilege, run,
        run_pure, step, AuthMode, Authorization, RunTrace, StepOutcome, StepRecord,
    };
    pub use crate::universe::{Edge, EdgeTarget, PrivTerm, Universe, UniverseTag};
    pub use crate::verify::{
        bmc::{BmcConfig, BmcOutcome, BmcReport},
        saturation::{saturate, DerivationStep, SaturationOutcome},
        specs::{record_trace, InvariantSuite, SessionView, TraceDecision, TraceStep, Violation},
        verify_perm_reachable, EngineUsed, VerifyReport,
    };
}
