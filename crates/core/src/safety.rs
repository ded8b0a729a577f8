//! Safety analysis over the administrative transition system: which
//! policies — and hence which authorizations — are *reachable* from a
//! given policy by some command queue?
//!
//! This is the paper's analogue of the classic ARBAC user-role
//! reachability problem (cf. `adminref-baselines::arbac_reach`): instead
//! of `can_assign` rules, reachability here is driven by the assigned
//! administrative privileges and (optionally) everything `⊑`-weaker than
//! them. The state space is exponential, so the analysis is bounded by
//! step count and state count; positive answers come with a concrete
//! witness queue.
//!
//! # Engine
//!
//! The search runs on [`crate::search`]: every reachable policy differs
//! from the root only on the finite edge alphabet, so states are encoded
//! as **edge bitsets** interned in a state arena — `seen` and the parent
//! links hold `u32` indices, not policy clones, and witnesses are
//! rebuilt by walking parent indices. Each frontier policy is
//! materialised once per expansion: one [`ReachIndex`] (plus one
//! privilege order under ordered authorization) answers authorization
//! for the whole alphabet, and the `perm_reachable` goal is evaluated
//! incrementally from the parent's index instead of rebuilding an index
//! per candidate. Frontier expansion fans out over scoped worker
//! threads ([`SafetyConfig::jobs`]); answers and witnesses are
//! identical for every `jobs` setting.
//!
//! # Answer semantics
//!
//! * [`ReachabilityAnswer::Reachable`] — a witness queue was found. When
//!   the bounded search finds it, the witness is shortest; an escalated
//!   engine (below) may return a longer but still replayable witness.
//! * [`ReachabilityAnswer::Unreachable`] — exhaustively refuted, either
//!   by exploring the whole reachable space or by an unbounded engine.
//! * [`ReachabilityAnswer::Unknown`] — an unseen successor was actually
//!   cut off by `max_steps` or `max_states` before exhaustion, and no
//!   escalation engine could close the instance. The carried
//!   [`Truncation`] says exactly which bound bit and how far the search
//!   got, so the caller knows which knob to raise.
//!
//! # Escalation
//!
//! With [`SafetyConfig::escalate`] (the default), an inconclusive
//! bounded search hands the instance to [`crate::verify`]:
//!
//! * **grow-only instances** (no revoke rule anywhere in the edge
//!   universe) are decided *definitively* by the saturation engine,
//!   independent of `max_states` — even `max_states = 0` gets a real
//!   answer;
//! * general explicit-mode instances within the grounding budget go to
//!   the DPLL-backed bounded model checker, which closes many of them
//!   unboundedly via a recurrence-diameter check.
//!
//! The clone-based breadth-first search the engine replaced is kept as
//! [`find_reachable_clone`] — same answers, same witnesses, no
//! escalation — as the differential-testing baseline.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::command::{Command, CommandQueue};
use crate::enumerate::{enumerate_weaker, EnumerationConfig};
use crate::ids::{Entity, Perm, PrivId};
use crate::ordering::OrderingMode;
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::search::{search, PolicySearch, SearchGoal, SearchLimits, SearchOutcome};
use crate::simulation::command_alphabet;
use crate::transition::{required_privilege, step, AuthMode};
use crate::universe::Universe;

/// Bounds for the reachability search.
#[derive(Clone, Copy, Debug)]
pub struct SafetyConfig {
    /// Maximum queue length to explore.
    pub max_steps: usize,
    /// Maximum number of distinct policies to visit.
    pub max_states: usize,
    /// Authorization semantics commands run under.
    pub auth_mode: AuthMode,
    /// Depth bound for weaker-privilege expansion of the command alphabet
    /// in ordered mode (ignored under explicit authorization). `None`
    /// uses the Remark 2 bound (longest `RH` chain).
    pub weaker_depth: Option<u32>,
    /// Worker threads for frontier expansion: `1` is sequential, `0`
    /// uses all available cores. Answers are identical either way.
    pub jobs: usize,
    /// Escalate an inconclusive bounded search to the unbounded engines
    /// in [`crate::verify`] (saturation for grow-only instances, DPLL
    /// bounded model checking in the general explicit-mode case). A
    /// definitive escalated answer replaces `Unknown`; its witness may
    /// be longer than `max_steps` (still replayable, not necessarily
    /// shortest). `false` reports the raw bounded answer.
    pub escalate: bool,
    /// Slice the command alphabet to the goal's cone of influence
    /// before searching (see [`crate::lint::slice_alphabet`]). Sound —
    /// the answer is unchanged — and on wide instances dramatically
    /// faster; `false` searches the full alphabet (the `--no-slice`
    /// escape hatch, and what differential tests compare against).
    /// Applies only to the goal-directed entry points
    /// ([`perm_reachable`], [`crate::verify::verify_perm_reachable`]);
    /// custom-goal searches always use the full alphabet.
    pub slice: bool,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            max_steps: 4,
            max_states: 50_000,
            auth_mode: AuthMode::Explicit,
            weaker_depth: None,
            jobs: 1,
            escalate: true,
            slice: true,
        }
    }
}

impl SafetyConfig {
    /// The search-engine limits this configuration induces.
    fn limits(&self) -> SearchLimits {
        SearchLimits {
            max_depth: self.max_steps,
            max_states: self.max_states,
            jobs: self.jobs,
        }
    }
}

/// What an inconclusive bounded search looked like when it was cut off
/// — the accounting that makes an `Unknown` actionable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Truncation {
    /// Distinct states interned when the search stopped (root included).
    pub states: usize,
    /// Deepest fully generated frontier depth.
    pub depth: usize,
    /// Whether the state cap dropped an unseen successor. `false` means
    /// only the depth bound cut the search off — raising `max_states`
    /// alone cannot turn this answer definitive.
    pub cap_hit: bool,
}

/// Result of a bounded reachability question.
#[derive(Clone, Debug)]
pub enum ReachabilityAnswer {
    /// A witness queue reaching the condition.
    Reachable {
        /// The queue, front first.
        witness: CommandQueue,
    },
    /// Exhaustively refuted: the whole reachable space was explored.
    Unreachable,
    /// An unseen successor was cut off by a bound before exhaustion.
    Unknown {
        /// Where and why the search was cut off.
        truncation: Truncation,
    },
}

impl ReachabilityAnswer {
    /// `true` for [`ReachabilityAnswer::Reachable`].
    pub fn is_reachable(&self) -> bool {
        matches!(self, ReachabilityAnswer::Reachable { .. })
    }
}

/// Can `entity` come to hold the user privilege `perm` in some policy
/// reachable from `policy`?
pub fn perm_reachable(
    universe: &mut Universe,
    policy: &Policy,
    entity: Entity,
    perm: Perm,
    config: SafetyConfig,
) -> ReachabilityAnswer {
    let target = universe.priv_perm(perm);
    let root_index = ReachIndex::build(universe, policy);
    if root_index.reach_priv(entity, target) {
        return ReachabilityAnswer::Reachable {
            witness: CommandQueue::new(),
        };
    }
    let mut alphabet = prepare_alphabet(universe, policy, config);
    if config.slice {
        alphabet = crate::lint::slice_alphabet(
            universe,
            policy,
            &alphabet,
            entity,
            target,
            config.auth_mode,
        )
        .alphabet;
    }
    let answer = {
        let space = PolicySearch::new(
            universe,
            policy,
            &alphabet,
            config.auth_mode,
            SearchGoal::Priv { entity, target },
            root_index,
        );
        run_engine(&space, config)
    };
    match answer {
        ReachabilityAnswer::Unknown { truncation } if config.escalate => crate::verify::escalate(
            universe, policy, &alphabet, config, entity, target, truncation,
        ),
        other => other,
    }
}

/// Breadth-first search for a reachable policy satisfying `goal`.
///
/// The alphabet is the finite relevant command set (see
/// [`command_alphabet`]); under ordered authorization it is additionally
/// expanded with commands for the edges of privileges `⊑`-weaker than any
/// assigned vertex, up to the configured depth — those are exactly the
/// extra commands ordered mode can authorize.
pub fn find_reachable(
    universe: &mut Universe,
    policy: &Policy,
    config: SafetyConfig,
    goal: impl Fn(&Universe, &Policy) -> bool + Sync,
) -> ReachabilityAnswer {
    if goal(universe, policy) {
        return ReachabilityAnswer::Reachable {
            witness: CommandQueue::new(),
        };
    }
    let alphabet = prepare_alphabet(universe, policy, config);
    let root_index = ReachIndex::build(universe, policy);
    let space = PolicySearch::new(
        universe,
        policy,
        &alphabet,
        config.auth_mode,
        SearchGoal::Custom(&goal),
        root_index,
    );
    run_engine(&space, config)
}

pub(crate) fn run_engine(space: &PolicySearch<'_>, config: SafetyConfig) -> ReachabilityAnswer {
    let (outcome, stats) = search(space, config.limits());
    match outcome {
        SearchOutcome::Found { witness } => ReachabilityAnswer::Reachable {
            witness: CommandQueue::from_commands(witness),
        },
        SearchOutcome::Exhausted => ReachabilityAnswer::Unreachable,
        SearchOutcome::Truncated => ReachabilityAnswer::Unknown {
            truncation: Truncation {
                states: stats.states,
                depth: stats.depth,
                cap_hit: stats.cap_hit,
            },
        },
    }
}

/// Builds the alphabet and pre-interns each command's required
/// privilege term, so the search itself runs on `&Universe`. Public so
/// the unbounded engines ([`crate::verify`]) can be driven directly
/// against the exact alphabet the bounded search would explore.
pub fn prepare_alphabet(
    universe: &mut Universe,
    policy: &Policy,
    config: SafetyConfig,
) -> Vec<(Command, PrivId)> {
    let alphabet = build_alphabet(universe, policy, config);
    alphabet
        .into_iter()
        .map(|cmd| {
            let target = required_privilege(universe, &cmd);
            (cmd, target)
        })
        .collect()
}

/// The seed's clone-based breadth-first search, kept as the reference
/// implementation: full policies in `seen`, authorization by on-the-fly
/// graph walks, no escalation. Returns the same answers (and equally
/// long witnesses) as the compact-state engine run with
/// `escalate: false` — a property test enforces that — at a much higher
/// per-candidate cost.
pub fn find_reachable_clone(
    universe: &mut Universe,
    policy: &Policy,
    config: SafetyConfig,
    goal: impl Fn(&Universe, &Policy) -> bool,
) -> ReachabilityAnswer {
    if goal(universe, policy) {
        return ReachabilityAnswer::Reachable {
            witness: CommandQueue::new(),
        };
    }
    let alphabet = build_alphabet(universe, policy, config);
    let mut seen: HashSet<Policy> = HashSet::new();
    let mut parents: HashMap<Policy, (Policy, Command)> = HashMap::new();
    let mut queue: VecDeque<(Policy, usize)> = VecDeque::new();
    seen.insert(policy.clone());
    queue.push_back((policy.clone(), 0));
    let mut truncated = false;
    let mut cap_hit = false;
    let mut deepest = 0usize;
    while let Some((state, depth)) = queue.pop_front() {
        deepest = deepest.max(depth);
        if depth >= config.max_steps {
            // Depth bound: the state is not expanded, but only an
            // actually cut-off (unseen) successor makes the search
            // inconclusive — a fully explored space stays exhaustive.
            if !truncated {
                truncated = alphabet.iter().any(|cmd| {
                    let mut next = state.clone();
                    step(universe, &mut next, cmd, config.auth_mode).changed
                        && !seen.contains(&next)
                });
            }
            continue;
        }
        for cmd in &alphabet {
            let mut next = state.clone();
            let outcome = step(universe, &mut next, cmd, config.auth_mode);
            if !outcome.changed || seen.contains(&next) {
                continue;
            }
            if goal(universe, &next) {
                let mut witness = rebuild_witness(&parents, policy, &state);
                witness.push(*cmd);
                return ReachabilityAnswer::Reachable {
                    witness: CommandQueue::from_commands(witness),
                };
            }
            if seen.len() >= config.max_states {
                // Cut off by the state cap. Dropped states are *not*
                // recorded in `parents` (the seed did, growing memory
                // without bound past the cap).
                truncated = true;
                cap_hit = true;
                continue;
            }
            seen.insert(next.clone());
            parents.insert(next.clone(), (state.clone(), *cmd));
            queue.push_back((next, depth + 1));
        }
    }
    if truncated {
        ReachabilityAnswer::Unknown {
            truncation: Truncation {
                states: seen.len(),
                depth: deepest,
                cap_hit,
            },
        }
    } else {
        ReachabilityAnswer::Unreachable
    }
}

/// Commands leading from `start` to `end` (both retained states).
fn rebuild_witness(
    parents: &HashMap<Policy, (Policy, Command)>,
    start: &Policy,
    end: &Policy,
) -> Vec<Command> {
    let mut commands = Vec::new();
    let mut cursor = end.clone();
    while &cursor != start {
        let (parent, cmd) = parents
            .get(&cursor)
            .expect("every retained state has a parent");
        commands.push(*cmd);
        cursor = parent.clone();
    }
    commands.reverse();
    commands
}

fn build_alphabet(universe: &mut Universe, policy: &Policy, config: SafetyConfig) -> Vec<Command> {
    let mut alphabet = command_alphabet(universe, &[policy]);
    if let AuthMode::Ordered(mode) = config.auth_mode {
        let depth = config
            .weaker_depth
            .unwrap_or_else(|| crate::enumerate::remark2_depth(universe, policy));
        let vertices: Vec<_> = policy.priv_vertices().into_iter().collect();
        let mut extra_edges = std::collections::BTreeSet::new();
        for p in vertices {
            if !universe.term(p).is_administrative() {
                continue;
            }
            let set = enumerate_weaker(
                universe,
                policy,
                p,
                EnumerationConfig {
                    max_depth: depth.max(1),
                    max_results: 10_000,
                    mode: match mode {
                        OrderingMode::Strict => OrderingMode::Strict,
                        other => other,
                    },
                },
            );
            for q in set.privileges {
                if let Some(edge) = universe.term(q).edge() {
                    extra_edges.insert(edge);
                }
            }
        }
        let actors: std::collections::BTreeSet<_> = alphabet.iter().map(|c| c.actor).collect();
        for &actor in &actors {
            for &edge in &extra_edges {
                alphabet.push(Command::grant(actor, edge));
                alphabet.push(Command::revoke(actor, edge));
            }
        }
        alphabet.sort_unstable();
        alphabet.dedup();
    }
    alphabet
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::transition::run_pure;
    use crate::universe::Edge;

    /// jane∈hr holds ¤(bob, staff); staff → dbusr2 → (write, t3).
    fn fixture() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3")
            .permit("staff", "prnt", "color");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        b = b.assign_priv("hr", g);
        b.finish()
    }

    #[test]
    fn bob_can_gain_write_t3_in_one_step() {
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            write_t3,
            SafetyConfig::default(),
        );
        let ReachabilityAnswer::Reachable { witness } = answer else {
            panic!("expected reachable, got {answer:?}");
        };
        assert_eq!(witness.len(), 1);
        let jane = uni.find_user("jane").unwrap();
        assert_eq!(witness.commands()[0].actor, jane);
    }

    #[test]
    fn unreachable_without_admin_privileges() {
        let (mut uni, mut policy) = fixture();
        // Strip HR's privilege: nobody can change anything.
        let hr = uni.find_role("hr").unwrap();
        let p = policy.privs_of(hr).next().unwrap();
        policy.remove_edge(Edge::RolePriv(hr, p));
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            write_t3,
            SafetyConfig::default(),
        );
        assert!(matches!(answer, ReachabilityAnswer::Unreachable));
    }

    #[test]
    fn already_satisfied_goal_returns_empty_witness() {
        let (mut uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        // Jane reaches nothing perm-wise; use a goal that's true at start.
        let answer = find_reachable(&mut uni, &policy, SafetyConfig::default(), |_, p| {
            p.edge_count() > 0
        });
        let ReachabilityAnswer::Reachable { witness } = answer else {
            panic!();
        };
        assert!(witness.is_empty());
        let _ = jane;
    }

    #[test]
    fn tiny_bounds_with_escalation_are_still_definitive() {
        // The fixture is grow-only, so even absurd bounds escalate to
        // saturation and come back with a real answer.
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let never = uni.perm("launch", "missiles");
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            never,
            SafetyConfig {
                max_steps: 1,
                max_states: 1,
                ..SafetyConfig::default()
            },
        );
        assert!(
            matches!(answer, ReachabilityAnswer::Unreachable),
            "{answer:?}"
        );
    }

    #[test]
    fn unknown_on_tiny_bounds_without_escalation() {
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let never = uni.perm("launch", "missiles");
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            never,
            SafetyConfig {
                max_steps: 1,
                max_states: 1,
                escalate: false,
                // Sliced, the goal's empty cone would refute outright;
                // this test is about the raw truncation accounting.
                slice: false,
                ..SafetyConfig::default()
            },
        );
        let ReachabilityAnswer::Unknown { truncation } = answer else {
            panic!("{answer:?}");
        };
        // The state cap (not the depth bound) dropped a successor, and
        // only the root was interned.
        assert!(truncation.cap_hit);
        assert_eq!(truncation.states, 1);
    }

    #[test]
    fn exhausted_search_is_unreachable_at_exact_step_bound() {
        // Regression for the seed's truncation accounting: the only
        // reachable change is jane granting (bob, staff); the whole
        // space (two policies) is explored by max_steps = 1, so an
        // unreachable goal must answer Unreachable — the seed reported
        // Unknown whenever any state sat at the depth bound, even with
        // every successor already seen.
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let never = uni.perm("launch", "missiles");
        for max_steps in [1usize, 2, 3] {
            let answer = perm_reachable(
                &mut uni,
                &policy,
                Entity::User(bob),
                never,
                SafetyConfig {
                    max_steps,
                    ..SafetyConfig::default()
                },
            );
            assert!(
                matches!(answer, ReachabilityAnswer::Unreachable),
                "max_steps={max_steps}: {answer:?}"
            );
        }
        // One step short of the only change: the bounded search is
        // genuinely cut off, but escalation (the fixture is grow-only)
        // still closes the instance…
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            never,
            SafetyConfig {
                max_steps: 0,
                ..SafetyConfig::default()
            },
        );
        assert!(
            matches!(answer, ReachabilityAnswer::Unreachable),
            "{answer:?}"
        );
        // …and without escalation the truncation shows the depth bound
        // (not the state cap) did the cutting.
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            never,
            SafetyConfig {
                max_steps: 0,
                escalate: false,
                // As above: keep the full alphabet so the depth bound
                // genuinely cuts the search off.
                slice: false,
                ..SafetyConfig::default()
            },
        );
        let ReachabilityAnswer::Unknown { truncation } = answer else {
            panic!("{answer:?}");
        };
        assert!(!truncation.cap_hit);
    }

    #[test]
    fn reference_engine_agrees_on_the_fixture() {
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let reference = find_reachable_clone(&mut uni, &policy, SafetyConfig::default(), |u, p| {
            ReachIndex::build(u, p).reach_priv(Entity::User(bob), target)
        });
        let engine = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            write_t3,
            SafetyConfig::default(),
        );
        match (&reference, &engine) {
            (
                ReachabilityAnswer::Reachable { witness: a },
                ReachabilityAnswer::Reachable { witness: b },
            ) => assert_eq!(a.commands(), b.commands()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parallel_jobs_do_not_change_answers() {
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let baseline = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            write_t3,
            SafetyConfig::default(),
        );
        for jobs in [2usize, 4, 0] {
            let answer = perm_reachable(
                &mut uni,
                &policy,
                Entity::User(bob),
                write_t3,
                SafetyConfig {
                    jobs,
                    ..SafetyConfig::default()
                },
            );
            match (&baseline, &answer) {
                (
                    ReachabilityAnswer::Reachable { witness: a },
                    ReachabilityAnswer::Reachable { witness: b },
                ) => assert_eq!(a.commands(), b.commands(), "jobs={jobs}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn ordered_mode_reaches_strictly_more() {
        // Give HR only ¤(bob, staff); ask whether a policy where bob is in
        // dbusr2 *but not staff* is reachable. Explicit mode: no (only the
        // exact edge can be granted). Ordered mode: yes, via the weaker
        // command.
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let goal = |_: &Universe, p: &Policy| {
            p.contains_edge(Edge::UserRole(bob, dbusr2))
                && !p.contains_edge(Edge::UserRole(bob, staff))
        };
        let explicit = find_reachable(
            &mut uni,
            &policy,
            SafetyConfig {
                max_steps: 3,
                ..SafetyConfig::default()
            },
            goal,
        );
        assert!(
            matches!(explicit, ReachabilityAnswer::Unreachable),
            "{explicit:?}"
        );
        let ordered = find_reachable(
            &mut uni,
            &policy,
            SafetyConfig {
                max_steps: 2,
                auth_mode: AuthMode::Ordered(OrderingMode::Extended),
                ..SafetyConfig::default()
            },
            goal,
        );
        assert!(ordered.is_reachable(), "{ordered:?}");
    }

    #[test]
    fn witness_replays_to_a_goal_state() {
        let (mut uni, policy) = fixture();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(bob),
            write_t3,
            SafetyConfig::default(),
        );
        let ReachabilityAnswer::Reachable { witness } = answer else {
            panic!();
        };
        let final_policy = run_pure(&mut uni, &policy, &witness, AuthMode::Explicit);
        let idx = ReachIndex::build(&uni, &final_policy);
        let target = uni.priv_perm(write_t3);
        assert!(idx.reach_priv(Entity::User(bob), target));
    }

    #[test]
    fn multi_step_witness_through_delegation() {
        // Chained delegation exercises parent-link witness rebuilding:
        // jane puts bob into hr2; hr2 holds ¤(joe, staff); joe then
        // holds (write, t3) — two steps, two distinct actors.
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .declare_user("joe")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3");
        let (bob, joe, staff, hr2) = {
            let u = b.universe_mut();
            let bob = u.find_user("bob").unwrap();
            let joe = u.find_user("joe").unwrap();
            let staff = u.find_role("staff").unwrap();
            let hr2 = u.role("hr2");
            (bob, joe, staff, hr2)
        };
        let g1 = b.universe_mut().grant_user_role(bob, hr2);
        let g2 = b.universe_mut().grant_user_role(joe, staff);
        b = b.assign_priv("hr", g1);
        let (mut uni, mut policy) = b.finish();
        policy.add_edge(Edge::RolePriv(hr2, g2));
        let write_t3 = uni.perm("write", "t3");
        let answer = perm_reachable(
            &mut uni,
            &policy,
            Entity::User(joe),
            write_t3,
            SafetyConfig::default(),
        );
        let ReachabilityAnswer::Reachable { witness } = answer else {
            panic!("expected reachable");
        };
        assert_eq!(witness.len(), 2, "{witness:?}");
        let final_policy = run_pure(&mut uni, &policy, &witness, AuthMode::Explicit);
        let target = uni.priv_perm(write_t3);
        assert!(ReachIndex::build(&uni, &final_policy).reach_priv(Entity::User(joe), target));
    }
}
