//! The administrative-policy state space for the search engine.
//!
//! A policy reachable from the root differs from it only on the finite
//! *edge universe*: the edges of the root plus the edges of the command
//! alphabet (commands only ever toggle their own edge). [`EdgeTable`]
//! assigns each such edge a dense bit, so a whole policy state is a
//! bitset of present edges — the compact canonical encoding interned by
//! the arena.
//!
//! Expansion materialises each frontier policy **once**, builds one
//! [`ReachIndex`] (and, under ordered authorization, one
//! [`PrivilegeOrder`] over it) for the whole alphabet sweep, and then
//! evaluates every command as a single-bit delta:
//!
//! * *authorization* — `O(1)`-ish against the per-state index instead
//!   of a fresh graph walk per command;
//! * *goal evaluation* — incremental against the parent's index. The
//!   engine guarantees every expanded state fails the goal, so for the
//!   monotone "entity reaches privilege vertex" goal a removed edge can
//!   never newly satisfy it, and an added edge `(src, tgt)` satisfies
//!   it iff `entity →φ src ∧ tgt →φ goal` *in the parent* — no index
//!   rebuild per candidate (the seed rebuilt `ReachIndex` from scratch
//!   for every candidate policy).

use crate::command::{Command, CommandKind};
use crate::ids::{Entity, PrivId};
use crate::ordering::PrivilegeOrder;
use crate::policy::Policy;
use crate::reach::ReachIndex;
use crate::transition::{authorize_with_order, AuthMode};
use crate::universe::{Edge, Universe};

use super::arena::{for_each_set_bit, set_bit, test_bit, toggle_bit, words_for};
use super::{CandidateSet, StateSpace};

/// Dense numbering of the finite edge universe of a search.
#[derive(Debug, Clone)]
pub struct EdgeTable {
    /// Sorted, deduplicated edges; the bit of an edge is its position.
    edges: Vec<Edge>,
}

impl EdgeTable {
    /// Builds the table from the root policy and the command alphabet.
    pub fn build<'c>(root: &Policy, commands: impl IntoIterator<Item = &'c Command>) -> Self {
        let mut edges: Vec<Edge> = root.edges().collect();
        edges.extend(commands.into_iter().map(|c| c.edge));
        edges.sort_unstable();
        edges.dedup();
        EdgeTable { edges }
    }

    /// Number of distinct edges (bits per state).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff the edge universe is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The bit of `edge`, if it belongs to the universe.
    pub fn bit(&self, edge: Edge) -> Option<u32> {
        self.edges.binary_search(&edge).ok().map(|i| i as u32)
    }

    /// The edge behind a bit.
    pub fn edge(&self, bit: u32) -> Edge {
        self.edges[bit as usize]
    }
}

/// The reachability goal of a search.
pub enum SearchGoal<'g> {
    /// `entity →φ target` for a privilege vertex `target` — the
    /// [`crate::safety::perm_reachable`] shape, evaluated incrementally.
    Priv {
        /// The source entity.
        entity: Entity,
        /// The privilege vertex to reach.
        target: PrivId,
    },
    /// An arbitrary predicate over candidate policies; evaluated by
    /// materialising each changed successor.
    Custom(&'g (dyn Fn(&Universe, &Policy) -> bool + Sync)),
}

/// One alphabet command with its pre-resolved requirements.
#[derive(Debug, Clone, Copy)]
struct PreparedCommand {
    cmd: Command,
    /// The pre-interned privilege term the command requires.
    target: PrivId,
    /// The bit of the command's edge in the [`EdgeTable`].
    bit: u32,
}

/// [`StateSpace`] implementation over administrative policies.
pub struct PolicySearch<'a> {
    universe: &'a Universe,
    table: EdgeTable,
    alphabet: Vec<PreparedCommand>,
    auth_mode: AuthMode,
    goal: SearchGoal<'a>,
    /// The root's encoded state and prebuilt index: the root is both
    /// goal-checked by the caller and expanded once by the engine, so
    /// its index is built a single time and shared.
    root_words: Vec<u64>,
    root_index: ReachIndex,
}

impl<'a> PolicySearch<'a> {
    /// Builds the space. `alphabet` pairs each command with its
    /// required privilege term, pre-interned by the caller (interning
    /// needs `&mut Universe`; the search itself runs on `&Universe` so
    /// it can fan out across threads). `root_index` is the root
    /// policy's reachability index — callers have one anyway from the
    /// root goal check, and the engine reuses it when expanding the
    /// root state instead of rebuilding it.
    pub fn new(
        universe: &'a Universe,
        root: &'a Policy,
        alphabet: &[(Command, PrivId)],
        auth_mode: AuthMode,
        goal: SearchGoal<'a>,
        root_index: ReachIndex,
    ) -> Self {
        root.check_universe(universe);
        let table = EdgeTable::build(root, alphabet.iter().map(|(c, _)| c));
        let alphabet = alphabet
            .iter()
            .map(|&(cmd, target)| PreparedCommand {
                cmd,
                target,
                bit: table.bit(cmd.edge).expect("alphabet edge in table"),
            })
            .collect();
        let mut root_words = vec![0u64; words_for(table.len())];
        for edge in root.edges() {
            let bit = table.bit(edge).expect("root edge in table");
            set_bit(&mut root_words, bit as usize);
        }
        PolicySearch {
            universe,
            table,
            alphabet,
            auth_mode,
            goal,
            root_words,
            root_index,
        }
    }

    /// The prebuilt reachability index of the root policy (also used
    /// when the engine expands the root state).
    pub fn root_index(&self) -> &ReachIndex {
        &self.root_index
    }

    /// The edge universe of this search (diagnostics).
    pub fn edge_table(&self) -> &EdgeTable {
        &self.table
    }

    /// Decodes a state bitset back into a policy.
    pub fn decode(&self, words: &[u64]) -> Policy {
        let mut policy = Policy::new(self.universe);
        for_each_set_bit(words, |b| {
            policy.add_edge(self.table.edge(b as u32));
        });
        policy
    }

    /// Incremental goal check for one candidate delta, using the
    /// *parent's* reachability index. Relies on the engine's invariant
    /// that the parent itself fails the goal.
    fn goal_on_delta(&self, idx: &ReachIndex, parent: &Policy, pc: &PreparedCommand) -> bool {
        match &self.goal {
            SearchGoal::Priv { entity, target } => match pc.cmd.kind {
                // Removing an edge only shrinks reachability; the
                // parent already fails the goal.
                CommandKind::Revoke => false,
                // One added edge: the split lemma on the parent's index.
                CommandKind::Grant => idx.reach_priv_via_added_edge(*entity, *target, pc.cmd.edge),
            },
            SearchGoal::Custom(f) => {
                let mut succ = parent.clone();
                match pc.cmd.kind {
                    CommandKind::Grant => succ.add_edge(pc.cmd.edge),
                    CommandKind::Revoke => succ.remove_edge(pc.cmd.edge),
                };
                f(self.universe, &succ)
            }
        }
    }
}

impl StateSpace for PolicySearch<'_> {
    type Label = Command;

    fn state_bits(&self) -> usize {
        self.table.len()
    }

    fn write_root(&self, out: &mut [u64]) {
        out.copy_from_slice(&self.root_words);
    }

    fn expand(&self, state: &[u64], out: &mut CandidateSet<Command>) {
        let policy = self.decode(state);
        // The root's index is prebuilt (and was already used for the
        // caller's root goal check); every other state gets one fresh
        // index for the whole alphabet sweep.
        let built;
        let idx = if state == self.root_words {
            &self.root_index
        } else {
            built = ReachIndex::build(self.universe, &policy);
            &built
        };
        // Under ordered authorization, one privilege order per state
        // answers every command (the seed rebuilt it per command).
        let order = match self.auth_mode {
            AuthMode::Explicit => None,
            AuthMode::Ordered(mode) => Some(PrivilegeOrder::with_index(
                self.universe,
                &policy,
                idx,
                mode,
            )),
        };
        let mut scratch = state.to_vec();
        for pc in &self.alphabet {
            let present = test_bit(state, pc.bit as usize);
            let changes = match pc.cmd.kind {
                CommandKind::Grant => !present,
                CommandKind::Revoke => present,
            };
            if !changes {
                continue;
            }
            let authorized = match &order {
                Some(order) => authorize_with_order(order, pc.cmd.actor, pc.target).is_some(),
                None => idx.reach_priv(Entity::User(pc.cmd.actor), pc.target),
            };
            if !authorized {
                continue;
            }
            toggle_bit(&mut scratch, pc.bit as usize);
            let goal = self.goal_on_delta(idx, &policy, pc);
            out.push(pc.cmd, goal, &scratch);
            toggle_bit(&mut scratch, pc.bit as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::transition::required_privilege;

    fn space_fixture() -> (Universe, Policy) {
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
        b.finish()
    }

    #[test]
    fn root_round_trips_through_encoding() {
        let (mut uni, policy) = space_fixture();
        let alphabet = crate::simulation::command_alphabet(&uni, &[&policy]);
        let prepared: Vec<(Command, PrivId)> = alphabet
            .iter()
            .map(|c| (*c, required_privilege(&mut uni, c)))
            .collect();
        let jane = uni.find_user("jane").unwrap();
        let space = PolicySearch::new(
            &uni,
            &policy,
            &prepared,
            AuthMode::Explicit,
            SearchGoal::Priv {
                entity: Entity::User(jane),
                target: PrivId(0),
            },
            ReachIndex::build(&uni, &policy),
        );
        let words = super::super::words_for(space.state_bits());
        let mut root = vec![0u64; words];
        space.write_root(&mut root);
        assert_eq!(space.decode(&root), policy);
    }

    #[test]
    fn expansion_matches_step_semantics() {
        // Every candidate the space emits must be exactly a state the
        // transition function produces (authorized and changed).
        use crate::transition::step;
        let (mut uni, policy) = space_fixture();
        let alphabet = crate::simulation::command_alphabet(&uni, &[&policy]);
        let prepared: Vec<(Command, PrivId)> = alphabet
            .iter()
            .map(|c| (*c, required_privilege(&mut uni, c)))
            .collect();
        // Reference: run step() on a clone for every alphabet command.
        let mut expected: Vec<(Command, Policy)> = Vec::new();
        for cmd in &alphabet {
            let mut next = policy.clone();
            let outcome = step(&mut uni, &mut next, cmd, AuthMode::Explicit);
            if outcome.changed {
                expected.push((*cmd, next));
            }
        }
        let goal = |_: &Universe, _: &Policy| false;
        let space = PolicySearch::new(
            &uni,
            &policy,
            &prepared,
            AuthMode::Explicit,
            SearchGoal::Custom(&goal),
            ReachIndex::build(&uni, &policy),
        );
        let words = super::super::words_for(space.state_bits());
        let mut root = vec![0u64; words];
        space.write_root(&mut root);
        let mut out = CandidateSet::new(words);
        space.expand(&root, &mut out);
        let got: Vec<(Command, Policy)> = out
            .iter()
            .map(|(cmd, _, ws)| (cmd, space.decode(ws)))
            .collect();
        assert_eq!(got.len(), expected.len());
        for ((ca, pa), (cb, pb)) in got.iter().zip(expected.iter()) {
            assert_eq!(ca, cb);
            assert_eq!(pa, pb);
        }
    }
}
