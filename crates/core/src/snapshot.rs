//! Immutable, versioned policy snapshots for serving reads.
//!
//! The paper separates rare administrative refinement steps from the
//! high-frequency authorization checks they govern. A [`PolicySnapshot`]
//! is the read-side artifact of that separation: one frozen
//! `(universe, policy)` pair together with the derived [`ReachIndex`],
//! stamped with the epoch that published it. A reference monitor builds
//! one snapshot per *batch* of administrative commands and publishes it
//! atomically; readers then answer `check_access` and analysis queries
//! against the index in O(1)–O(holders) without taking any lock or
//! re-walking the policy graph.
//!
//! Snapshots are plain owned data (`Send + Sync`), so they can sit behind
//! an epoch cell, be shipped to analysis threads, or be diffed across
//! epochs.
//!
//! # Incremental publication
//!
//! Epochs form a chain, and consecutive epochs differ by exactly the
//! edge deltas of one batch — usually a handful of edges against a
//! policy of thousands. [`PolicySnapshot::next`] exploits that: instead
//! of re-deriving the read index from scratch (`O(|R|²/64 + |E|)` per
//! publish, plus deep clones of the universe and policy), it produces
//! the child snapshot by structural sharing plus targeted updates:
//!
//! * the **universe** `Arc` is reused verbatim unless the batch interned
//!   new names or terms (checked via [`Universe::population_stamp`]);
//! * the **policy** clone is three `Arc` bumps (the writer's next
//!   mutation copies only the relation it touches);
//! * the **index** is delta-maintained by [`ReachIndex::apply_delta`]:
//!   membership and holder rows update in place, and an added role edge
//!   fans its target's closure row out along the reverse-reachability
//!   frontier of its source (the add-edge split lemma — see
//!   [`RoleClosure::add_edge_incremental`](crate::closure::RoleClosure::add_edge_incremental)).
//!   A removed role edge re-runs the build's row recurrence over only
//!   the rows that reached its source, whatever their number;
//!   SCC-changing deltas (a new cycle, an intra-cycle removal) fall back
//!   to a full [`ReachIndex::build`].
//!
//! The fallback is also available wholesale as
//! [`PublishMode::FullRebuild`], so differential tests can pin every
//! publish to the from-scratch path and assert the two chains are
//! index-identical.

use std::sync::Arc;

use crate::checksum::{policy_checksum, toggle_edge};
use crate::command::{Command, CommandKind};
use crate::ids::{Entity, Node, Perm, PrivId, RoleId};
use crate::ordering::{OrderingMode, PrivilegeOrder};
use crate::policy::Policy;
use crate::reach::{EdgeDelta, ReachIndex};
use crate::transition::StepOutcome;
use crate::universe::{PrivTerm, Universe};

/// How a monitor derives each published snapshot from its parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PublishMode {
    /// Delta-maintain the read index from the parent epoch, falling
    /// back to a rebuild only when the batch's structure demands it
    /// (the default).
    #[default]
    Incremental,
    /// Rebuild the index from scratch on every publish — the
    /// pre-incremental behavior, kept for differential testing.
    FullRebuild,
}

/// Which derivation [`PolicySnapshot::next`] actually took — exposed so
/// monitors can count how often the incremental path holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PublishPath {
    /// The child index was delta-maintained from the parent's.
    Incremental,
    /// The child index was rebuilt from scratch (configured mode, a
    /// structural fallback, or a grown universe).
    FullRebuild,
}

/// Collects the [`EdgeDelta`]s of a batch from its commands and
/// outcomes: exactly the commands whose `changed` flag is set, in
/// execution order — the sequence [`PolicySnapshot::next`] consumes.
pub fn batch_deltas(commands: &[Command], outcomes: &[StepOutcome]) -> Vec<EdgeDelta> {
    commands
        .iter()
        .zip(outcomes)
        .filter(|(_, outcome)| outcome.changed)
        .map(|(cmd, _)| EdgeDelta {
            edge: cmd.edge,
            added: matches!(cmd.kind, CommandKind::Grant),
        })
        .collect()
}

/// One frozen policy state plus its derived read indexes.
///
/// Construction cost is one [`ReachIndex::build`] (`O(|R|²/64 + |E|)`)
/// via [`build`](Self::build), or the batch's delta cost via
/// [`next`](Self::next); either way it is paid once per published
/// batch, never per query.
#[derive(Debug, Clone)]
pub struct PolicySnapshot {
    /// The epoch that published this snapshot (0 = initial state).
    pub epoch: u64,
    universe: Arc<Universe>,
    policy: Policy,
    reach: ReachIndex,
    checksum: u64,
}

impl PolicySnapshot {
    /// Freezes `(universe, policy)` as epoch `epoch`, building the
    /// reachability index from scratch.
    pub fn build(universe: Universe, policy: Policy, epoch: u64) -> Self {
        Self::build_shared(Arc::new(universe), policy, epoch)
    }

    /// [`build`](Self::build) over an already-shared universe.
    pub fn build_shared(universe: Arc<Universe>, policy: Policy, epoch: u64) -> Self {
        let reach = ReachIndex::build(&universe, &policy);
        let checksum = policy_checksum(&policy);
        PolicySnapshot {
            epoch,
            universe,
            policy,
            reach,
            checksum,
        }
    }

    /// Derives the child snapshot of `parent` after a batch.
    ///
    /// `policy` is the post-batch policy, `deltas` the exact sequence of
    /// applied edge changes leading from `parent`'s policy to it (see
    /// [`batch_deltas`]), and `universe` the post-batch universe —
    /// shared with the parent's `Arc` unless the batch interned new
    /// names or terms. Under [`PublishMode::Incremental`] the read
    /// index is delta-maintained (see the module docs for the lemma and
    /// the fallback conditions); under [`PublishMode::FullRebuild`] it
    /// is rebuilt from scratch. The returned [`PublishPath`] reports
    /// which happened; both paths produce index-identical snapshots,
    /// which the suite's differential proptests assert epoch by epoch.
    pub fn next(
        parent: &PolicySnapshot,
        universe: &Universe,
        policy: &Policy,
        deltas: &[EdgeDelta],
        epoch: u64,
        mode: PublishMode,
    ) -> (Self, PublishPath) {
        let shared = if universe.population_stamp() == parent.universe.population_stamp() {
            Arc::clone(&parent.universe)
        } else {
            Arc::new(universe.clone())
        };
        if mode == PublishMode::Incremental {
            if let Some(reach) = parent.reach.apply_delta(&shared, &parent.policy, deltas) {
                // Every applied delta toggles membership of exactly one
                // edge, so XOR-folding the digests is the exact set
                // checksum of the child policy.
                let checksum = deltas
                    .iter()
                    .fold(parent.checksum, |acc, d| toggle_edge(acc, d.edge));
                debug_assert_eq!(checksum, policy_checksum(policy));
                return (
                    PolicySnapshot {
                        epoch,
                        universe: shared,
                        policy: policy.clone(),
                        reach,
                        checksum,
                    },
                    PublishPath::Incremental,
                );
            }
        }
        (
            Self::build_shared(shared, policy.clone(), epoch),
            PublishPath::FullRebuild,
        )
    }

    /// The frozen universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The frozen universe's shared handle (for callers that want to
    /// keep it alive past the snapshot without a deep clone).
    pub fn universe_arc(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// The frozen policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The prebuilt reachability index over this snapshot.
    pub fn reach(&self) -> &ReachIndex {
        &self.reach
    }

    /// The canonical state checksum of this snapshot's edge set (see
    /// [`crate::checksum`]). Two snapshots over the same universe with
    /// equal checksums hold the same policy; replication frames carry
    /// this value so replicas can refuse divergence.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// `true` iff any of `roles` reaches the user privilege `perm` in
    /// this snapshot — the hot path of a session access check. Terms
    /// never interned in this epoch's universe are unreachable by
    /// definition.
    pub fn roles_reach_perm(&self, roles: impl IntoIterator<Item = RoleId>, perm: Perm) -> bool {
        let Some(p) = self.universe.find_term(PrivTerm::Perm(perm)) else {
            return false;
        };
        roles
            .into_iter()
            .any(|r| self.reach.reach_priv(Entity::Role(r), p))
    }

    /// `true` iff `entity` reaches the privilege vertex `p` (`v →φ p`).
    pub fn entity_reaches_priv(&self, entity: Entity, p: PrivId) -> bool {
        self.reach.reach_priv(entity, p)
    }

    /// General node-to-node reachability against the index.
    pub fn reaches(&self, from: Node, to: Node) -> bool {
        self.reach.reach_node(from, to)
    }

    /// Builds the privilege ordering `⊑φ` for this snapshot on demand,
    /// reusing the snapshot's prebuilt reachability index.
    ///
    /// The order borrows the snapshot (it memoises against the frozen
    /// policy), so derive it once per task, not per query.
    pub fn privilege_order(&self, mode: OrderingMode) -> PrivilegeOrder<'_> {
        PrivilegeOrder::with_index(&self.universe, &self.policy, &self.reach, mode)
    }

    /// Clones out the `(universe, policy)` pair for offline analysis or
    /// as the seed of a writer's working state.
    pub fn clone_state(&self) -> (Universe, Policy) {
        ((*self.universe).clone(), self.policy.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::reach::reaches;

    fn figure1() -> (Universe, Policy) {
        PolicyBuilder::new()
            .assign("diana", "nurse")
            .assign("diana", "staff")
            .inherit("staff", "nurse")
            .inherit("nurse", "dbusr1")
            .inherit("staff", "dbusr2")
            .permit("dbusr1", "read", "t1")
            .permit("dbusr2", "write", "t3")
            .finish()
    }

    #[test]
    fn roles_reach_perm_matches_bfs() {
        let (mut uni, policy) = figure1();
        let nurse = uni.find_role("nurse").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let read_t1 = uni.perm("read", "t1");
        let write_t3 = uni.perm("write", "t3");
        let p1 = uni.priv_perm(read_t1);
        let snap = PolicySnapshot::build(uni, policy.clone(), 7);
        assert_eq!(snap.epoch, 7);
        assert!(snap.roles_reach_perm([nurse], read_t1));
        assert!(!snap.roles_reach_perm([nurse], write_t3));
        assert!(snap.roles_reach_perm([nurse, staff], write_t3));
        assert!(snap.roles_reach_perm([staff], write_t3));
        assert_eq!(
            snap.reaches(Node::Role(nurse), Node::Priv(p1)),
            reaches(&policy, Node::Role(nurse), Node::Priv(p1))
        );
    }

    #[test]
    fn uninterned_perm_is_unreachable() {
        let (uni, policy) = figure1();
        let mut probe = uni.clone();
        let ghost = probe.perm("erase", "t9");
        let snap = PolicySnapshot::build(uni, policy, 0);
        let staff = snap.universe().find_role("staff").unwrap();
        assert!(!snap.roles_reach_perm([staff], ghost));
    }

    #[test]
    fn snapshot_is_frozen_against_later_mutation() {
        let (uni, policy) = figure1();
        let snap = PolicySnapshot::build(uni.clone(), policy.clone(), 1);
        let (mut u2, mut p2) = snap.clone_state();
        let diana = u2.find_user("diana").unwrap();
        let staff = u2.find_role("staff").unwrap();
        p2.remove_edge(crate::universe::Edge::UserRole(diana, staff));
        // The snapshot still answers from its frozen state.
        let write_t3 = u2.perm("write", "t3");
        assert!(snap.roles_reach_perm([staff], write_t3));
        assert!(snap
            .reach()
            .reach_entity(Entity::User(diana), Entity::Role(staff)));
    }

    #[test]
    fn next_shares_the_universe_and_matches_a_rebuild() {
        let (uni, mut policy) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let parent = PolicySnapshot::build(uni, policy.clone(), 0);
        let edge = crate::universe::Edge::UserRole(diana, dbusr2);
        assert!(policy.add_edge(edge));
        let deltas = [crate::reach::EdgeDelta { edge, added: true }];
        let (child, path) = PolicySnapshot::next(
            &parent,
            parent.universe(),
            &policy,
            &deltas,
            1,
            PublishMode::Incremental,
        );
        assert_eq!(path, PublishPath::Incremental);
        assert_eq!(child.epoch, 1);
        assert!(
            Arc::ptr_eq(parent.universe_arc(), child.universe_arc()),
            "no names interned: the universe allocation is shared"
        );
        let rebuilt = PolicySnapshot::build(child.universe().clone(), policy.clone(), 1);
        let write_t3 = {
            let mut probe = child.universe().clone();
            probe.perm("write", "t3")
        };
        assert!(child.roles_reach_perm([dbusr2], write_t3));
        for role in child.universe().roles() {
            assert_eq!(
                child.reach().roles_reachable(Entity::Role(role)),
                rebuilt.reach().roles_reachable(Entity::Role(role)),
            );
        }
        // Forced full rebuild produces the same answers.
        let (full, path) = PolicySnapshot::next(
            &parent,
            parent.universe(),
            &policy,
            &deltas,
            1,
            PublishMode::FullRebuild,
        );
        assert_eq!(path, PublishPath::FullRebuild);
        assert!(full.roles_reach_perm([dbusr2], write_t3));
        // Both derivations agree on the state checksum, and it matches a
        // from-scratch recompute over the child policy.
        assert_eq!(child.checksum(), full.checksum());
        assert_eq!(
            child.checksum(),
            crate::checksum::policy_checksum(&policy),
            "incremental checksum must equal the canonical recompute"
        );
        assert_ne!(child.checksum(), parent.checksum());
    }

    #[test]
    fn batch_deltas_keep_only_changing_commands() {
        use crate::command::Command;
        use crate::ids::UserId;
        let (uni, _) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let edge = crate::universe::Edge::UserRole(diana, nurse);
        let commands = [
            Command::grant(UserId(0), edge),
            Command::revoke(UserId(0), edge),
            Command::grant(UserId(0), edge),
        ];
        let outcomes = [
            StepOutcome {
                authorization: None,
                changed: false,
            },
            StepOutcome {
                authorization: None,
                changed: true,
            },
            StepOutcome {
                authorization: None,
                changed: true,
            },
        ];
        let deltas = batch_deltas(&commands, &outcomes);
        assert_eq!(
            deltas,
            vec![
                EdgeDelta { edge, added: false },
                EdgeDelta { edge, added: true },
            ]
        );
    }

    #[test]
    fn privilege_order_is_derivable_on_demand() {
        let (mut uni, policy) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let held = uni.grant_user_role(diana, staff);
        let snap = PolicySnapshot::build(uni, policy, 0);
        let order = snap.privilege_order(OrderingMode::Extended);
        assert!(order.is_weaker(held, held));
    }
}
