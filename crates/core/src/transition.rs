//! The administrative transition function `⇒` (Definition 5) and runs
//! `⇒*`.
//!
//! ```text
//! ⟨cmd(u,¤,v,v′) : cq, φ⟩ ⇒ ⟨cq, φ ∪ (v,v′)⟩  if u →φ r and r →φ ¤(v,v′)
//! ⟨cmd(u,♦,v,v′) : cq, φ⟩ ⇒ ⟨cq, φ \ (v,v′)⟩  if u →φ r and r →φ ♦(v,v′)
//! ⟨cmd(…) : cq, φ⟩       ⇒ ⟨cq, φ⟩            otherwise
//! ```
//!
//! Unauthorized commands are consumed without changing the policy. The
//! authorization premise `u →φ r ∧ r →φ p` is equivalent to `u →φ p`
//! (every path from a user to a privilege vertex passes through a role),
//! which is how it is checked here.
//!
//! Two authorization modes are provided:
//!
//! * [`AuthMode::Explicit`] — Definition 5 literally: the exact privilege
//!   term must be a reachable vertex.
//! * [`AuthMode::Ordered`] — the paper's §4.1 extension: a command is also
//!   authorized when the actor reaches a vertex `w` with `w ⊑φ target`
//!   (Example 4: Jane assigns Bob straight to `dbusr2` because she holds
//!   `¤(bob, staff)`). Theorem 1 is exactly the statement that this is
//!   safe.

use crate::bitset::BitSet;
use crate::command::{Command, CommandKind, CommandQueue};
use crate::ids::{Entity, Node, PrivId, UserId};
use crate::ordering::{OrderingMode, PrivilegeOrder};
use crate::policy::Policy;
use crate::reach::{reaches, ReachIndex};
use crate::universe::{PrivTerm, Universe};

/// How commands are authorized against the policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AuthMode {
    /// Definition 5: the exact privilege term must be held.
    #[default]
    Explicit,
    /// Held privileges also authorize everything `⊑`-weaker (§4.1).
    Ordered(OrderingMode),
}

/// Why (or that) a command was authorized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Authorization {
    /// The privilege vertex that justified the command.
    pub held: PrivId,
    /// The privilege the command actually required (equal to `held` under
    /// explicit authorization).
    pub target: PrivId,
}

/// Outcome of one transition step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepOutcome {
    /// `Some` iff the command was authorized (and therefore applied).
    pub authorization: Option<Authorization>,
    /// Whether the edge set actually changed (re-adding an existing edge is
    /// authorized but changes nothing).
    pub changed: bool,
}

impl StepOutcome {
    /// `true` iff the command was authorized.
    pub fn executed(&self) -> bool {
        self.authorization.is_some()
    }
}

/// The privilege term a command requires: `¤(v,v′)` or `♦(v,v′)`.
pub fn required_privilege(universe: &mut Universe, cmd: &Command) -> PrivId {
    match cmd.kind {
        CommandKind::Grant => universe.priv_grant(cmd.edge),
        CommandKind::Revoke => universe.priv_revoke(cmd.edge),
    }
}

/// Explicit authorization (Definition 5): does `actor` reach the exact
/// privilege vertex? Non-mutating — if the term was never interned it
/// cannot be a vertex of any policy.
pub fn authorize_explicit(
    universe: &Universe,
    policy: &Policy,
    cmd: &Command,
) -> Option<Authorization> {
    let term = match cmd.kind {
        CommandKind::Grant => PrivTerm::Grant(cmd.edge),
        CommandKind::Revoke => PrivTerm::Revoke(cmd.edge),
    };
    let target = universe.find_term(term)?;
    if reaches(policy, Node::User(cmd.actor), Node::Priv(target)) {
        Some(Authorization {
            held: target,
            target,
        })
    } else {
        None
    }
}

/// Ordered authorization against a prebuilt [`PrivilegeOrder`] (callers that
/// authorize many commands against one snapshot should reuse the order).
pub fn authorize_with_order(
    order: &PrivilegeOrder<'_>,
    actor: UserId,
    target: PrivId,
) -> Option<Authorization> {
    order
        .authorizing_vertices(actor.into(), target)
        .first()
        .map(|&held| Authorization { held, target })
}

/// The least user authorized for a term in one policy state, with the
/// vertex that authorizes it. Explicit mode asks the existential first:
/// do `reached`, every role some user reaches, meet the term's holders?
pub(crate) struct AnyUser<'a> {
    universe: &'a Universe,
    index: &'a ReachIndex,
    reached: BitSet,
    order: Option<PrivilegeOrder<'a>>,
}

impl<'a> AnyUser<'a> {
    /// `index` must be `policy`'s.
    pub(crate) fn new(
        universe: &'a Universe,
        policy: &'a Policy,
        index: &'a ReachIndex,
        mode: AuthMode,
    ) -> Self {
        let order = match mode {
            AuthMode::Explicit => None,
            AuthMode::Ordered(m) => Some(PrivilegeOrder::with_index(universe, policy, index, m)),
        };
        let reached = index.roles_reached_by_users();
        AnyUser {
            universe,
            index,
            reached,
            order,
        }
    }

    pub(crate) fn least(&self, target: PrivId) -> Option<(UserId, PrivId)> {
        let mut users = self.universe.users();
        match &self.order {
            Some(order) => {
                users.find_map(|u| authorize_with_order(order, u, target).map(|a| (u, a.held)))
            }
            None if self.index.held_within(&self.reached, target) => users
                .find(|&u| self.index.reach_priv(Entity::User(u), target))
                .map(|u| (u, target)),
            None => None,
        }
    }
}

/// Authorizes a command under `mode`, interning the required term when
/// needed.
pub fn authorize(
    universe: &mut Universe,
    policy: &Policy,
    cmd: &Command,
    mode: AuthMode,
) -> Option<Authorization> {
    match mode {
        AuthMode::Explicit => authorize_explicit(universe, policy, cmd),
        AuthMode::Ordered(ordering_mode) => {
            let target = required_privilege(universe, cmd);
            let order = PrivilegeOrder::new(universe, policy, ordering_mode);
            authorize_with_order(&order, cmd.actor, target)
        }
    }
}

/// The mutation half of [`step`]: applies an already-authorized
/// command's edge change to `policy`. Returns whether the edge set
/// actually changed. Callers that need to interpose between the
/// authorization decision and the state change (e.g. a write-ahead log
/// that must persist the decision before applying it) use
/// [`authorize`] + `apply_edge`; everyone else uses [`step`].
pub fn apply_edge(policy: &mut Policy, cmd: &Command) -> bool {
    match cmd.kind {
        CommandKind::Grant => policy.add_edge(cmd.edge),
        CommandKind::Revoke => policy.remove_edge(cmd.edge),
    }
}

/// One step of `⇒`: authorizes and applies `cmd` to `policy`.
pub fn step(
    universe: &mut Universe,
    policy: &mut Policy,
    cmd: &Command,
    mode: AuthMode,
) -> StepOutcome {
    let authorization = authorize(universe, policy, cmd, mode);
    let changed = authorization.is_some() && apply_edge(policy, cmd);
    StepOutcome {
        authorization,
        changed,
    }
}

/// Record of one executed (or refused) command in a run.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// The command.
    pub command: Command,
    /// Its outcome.
    pub outcome: StepOutcome,
}

/// A full run `⟨cq, φ⟩ ⇒* ⟨ε, φ′⟩`, step by step.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// One record per command, in execution order.
    pub steps: Vec<StepRecord>,
}

impl RunTrace {
    /// Number of commands that were authorized.
    pub fn executed_count(&self) -> usize {
        self.steps.iter().filter(|s| s.outcome.executed()).count()
    }

    /// Number of commands that were refused (consumed as no-ops).
    pub fn refused_count(&self) -> usize {
        self.steps.len() - self.executed_count()
    }
}

/// Runs a whole queue against `policy`, mutating it in place.
pub fn run(
    universe: &mut Universe,
    policy: &mut Policy,
    queue: &CommandQueue,
    mode: AuthMode,
) -> RunTrace {
    let mut trace = RunTrace::default();
    for cmd in queue.iter() {
        let outcome = step(universe, policy, cmd, mode);
        trace.steps.push(StepRecord {
            command: *cmd,
            outcome,
        });
    }
    trace
}

/// Runs a queue against a clone of `policy`, returning the final policy
/// `φ′` (the form Definitions 6/7 quantify over).
pub fn run_pure(
    universe: &mut Universe,
    policy: &Policy,
    queue: &CommandQueue,
    mode: AuthMode,
) -> Policy {
    let mut out = policy.clone();
    run(universe, &mut out, queue, mode);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::universe::Edge;

    /// HR (jane) may add bob to staff and add/remove joe from nurse.
    fn admin_policy() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .declare_user("joe")
            .inherit("staff", "nurse")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3");
        let (bob, joe, staff, nurse) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_user("joe").unwrap(),
                u.find_role("staff").unwrap(),
                u.find_role("nurse").unwrap(),
            )
        };
        let g1 = b.universe_mut().grant_user_role(bob, staff);
        let g2 = b.universe_mut().grant_user_role(joe, nurse);
        let r2 = b.universe_mut().revoke_user_role(joe, nurse);
        b = b
            .assign_priv("hr", g1)
            .assign_priv("hr", g2)
            .assign_priv("hr", r2);
        b.finish()
    }

    #[test]
    fn authorized_grant_applies() {
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let cmd = Command::grant(jane, Edge::UserRole(bob, staff));
        let out = step(&mut uni, &mut policy, &cmd, AuthMode::Explicit);
        assert!(out.executed());
        assert!(out.changed);
        assert!(policy.contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn unauthorized_command_is_consumed_as_noop() {
        let (mut uni, mut policy) = admin_policy();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let before = policy.clone();
        // Bob holds nothing; he may not add joe to nurse.
        let cmd = Command::grant(bob, Edge::UserRole(joe, nurse));
        let out = step(&mut uni, &mut policy, &cmd, AuthMode::Explicit);
        assert!(!out.executed());
        assert!(!out.changed);
        assert_eq!(policy, before, "third case of Definition 5: φ unchanged");
    }

    #[test]
    fn granting_an_existing_edge_is_authorized_but_unchanged() {
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let cmd = Command::grant(jane, Edge::UserRole(bob, staff));
        assert!(step(&mut uni, &mut policy, &cmd, AuthMode::Explicit).changed);
        let out = step(&mut uni, &mut policy, &cmd, AuthMode::Explicit);
        assert!(out.executed());
        assert!(!out.changed, "set union: re-adding changes nothing");
    }

    #[test]
    fn revoke_removes_edge() {
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let grant = Command::grant(jane, Edge::UserRole(joe, nurse));
        let revoke = Command::revoke(jane, Edge::UserRole(joe, nurse));
        step(&mut uni, &mut policy, &grant, AuthMode::Explicit);
        assert!(policy.contains_edge(Edge::UserRole(joe, nurse)));
        let out = step(&mut uni, &mut policy, &revoke, AuthMode::Explicit);
        assert!(out.executed() && out.changed);
        assert!(!policy.contains_edge(Edge::UserRole(joe, nurse)));
    }

    #[test]
    fn revoking_absent_edge_is_authorized_noop() {
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let revoke = Command::revoke(jane, Edge::UserRole(joe, nurse));
        let out = step(&mut uni, &mut policy, &revoke, AuthMode::Explicit);
        assert!(out.executed());
        assert!(!out.changed);
    }

    #[test]
    fn explicit_mode_refuses_weaker_commands() {
        // Jane holds ¤(bob, staff); explicit mode refuses ¤(bob, dbusr2)
        // even though it is ⊑-weaker (the motivating gap of §4.1).
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let cmd = Command::grant(jane, Edge::UserRole(bob, dbusr2));
        let out = step(&mut uni, &mut policy, &cmd, AuthMode::Explicit);
        assert!(!out.executed());
    }

    #[test]
    fn ordered_mode_authorizes_weaker_commands_example4() {
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let cmd = Command::grant(jane, Edge::UserRole(bob, dbusr2));
        let mode = AuthMode::Ordered(OrderingMode::Extended);
        let out = step(&mut uni, &mut policy, &cmd, mode);
        assert!(out.executed(), "Jane applies least privilege for Bob");
        let auth = out.authorization.unwrap();
        let held = uni
            .find_term(PrivTerm::Grant(Edge::UserRole(bob, staff)))
            .unwrap();
        assert_eq!(auth.held, held);
        assert_ne!(auth.held, auth.target);
        assert!(policy.contains_edge(Edge::UserRole(bob, dbusr2)));
        assert!(
            !policy.contains_edge(Edge::UserRole(bob, staff)),
            "bob got dbusr2 only, not staff"
        );
    }

    #[test]
    fn ordered_mode_still_refuses_unrelated_commands() {
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let staff = uni.find_role("staff").unwrap();
        // Jane may manage joe only w.r.t. nurse; staff is *above* nurse so
        // ¤(joe, staff) is stronger, not weaker.
        let cmd = Command::grant(jane, Edge::UserRole(joe, staff));
        let out = step(
            &mut uni,
            &mut policy,
            &cmd,
            AuthMode::Ordered(OrderingMode::Extended),
        );
        assert!(!out.executed());
        // dbusr2 is below staff but jane's joe-privilege is about nurse,
        // and nurse does not reach dbusr2 here.
        let nurse = uni.find_role("nurse").unwrap();
        assert!(!crate::reach::reaches_entity(
            &policy,
            nurse.into(),
            dbusr2.into()
        ));
        let cmd2 = Command::grant(jane, Edge::UserRole(joe, dbusr2));
        let out2 = step(
            &mut uni,
            &mut policy,
            &cmd2,
            AuthMode::Ordered(OrderingMode::Extended),
        );
        assert!(!out2.executed());
    }

    #[test]
    fn run_traces_every_command() {
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let queue: CommandQueue = [
            Command::grant(jane, Edge::UserRole(bob, staff)),
            Command::grant(jane, Edge::UserRole(joe, nurse)),
            Command::grant(bob, Edge::UserRole(joe, staff)), // refused
            Command::revoke(jane, Edge::UserRole(joe, nurse)),
        ]
        .into_iter()
        .collect();
        let trace = run(&mut uni, &mut policy, &queue, AuthMode::Explicit);
        assert_eq!(trace.steps.len(), 4);
        assert_eq!(trace.executed_count(), 3);
        assert_eq!(trace.refused_count(), 1);
        assert!(policy.contains_edge(Edge::UserRole(bob, staff)));
        assert!(!policy.contains_edge(Edge::UserRole(joe, nurse)));
    }

    #[test]
    fn run_pure_leaves_input_untouched() {
        let (mut uni, policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let queue: CommandQueue = [Command::grant(jane, Edge::UserRole(bob, staff))]
            .into_iter()
            .collect();
        let snapshot = policy.clone();
        let out = run_pure(&mut uni, &policy, &queue, AuthMode::Explicit);
        assert_eq!(policy, snapshot);
        assert!(out.contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn dynamic_delegation_enables_later_commands() {
        // Commands executed earlier in the queue can authorize later ones:
        // jane gives bob staff; bob may then use privileges staff holds.
        let (mut uni, mut policy) = admin_policy();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        // Give staff an administrative privilege first (by construction).
        let g = uni.grant_user_role(joe, nurse);
        policy.add_edge(Edge::RolePriv(staff, g));
        let queue: CommandQueue = [
            Command::grant(bob, Edge::UserRole(joe, nurse)), // refused: bob has nothing yet
            Command::grant(jane, Edge::UserRole(bob, staff)),
            Command::grant(bob, Edge::UserRole(joe, nurse)), // now authorized
        ]
        .into_iter()
        .collect();
        let trace = run(&mut uni, &mut policy, &queue, AuthMode::Explicit);
        assert!(!trace.steps[0].outcome.executed());
        assert!(trace.steps[1].outcome.executed());
        assert!(trace.steps[2].outcome.executed());
        assert!(policy.contains_edge(Edge::UserRole(joe, nurse)));
    }
}
