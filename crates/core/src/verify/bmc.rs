//! Grounded constraint solving for the general (revocation-capable)
//! case: bounded model checking over the edge universe, with a
//! recurrence-diameter check that closes many instances unboundedly.
//!
//! Every policy reachable from the root is a subset of the finite edge
//! universe `E` (root edges ∪ alphabet edges), so a run of length `k`
//! grounds to propositional variables `x[e][t]` ("edge `e` present at
//! time `t`") plus one selector per (command ∪ skip, step). Explicit
//! authorization — "the actor reaches the command's exact privilege
//! vertex" — is unrolled as levelled role-reachability and Tseitin-encoded.
//! The vendored DPLL ([`minisat`]) then answers:
//!
//! * **SAT on the goal query at bound `k`** — a witness queue exists;
//!   it is decoded from the model and *validated by replay* before
//!   being reported.
//! * **UNSAT on the goal query** — the goal is unreachable within `k`
//!   steps (skips make this cover every shorter bound too). That alone
//!   is bounded; the **diameter query** asks whether any simple path of
//!   `k + 1` real (authorized, state-changing) steps leaves the root.
//!   If not, every reachable state is reachable within `k` steps, and
//!   the bounded refutation is in fact *unbounded*:
//!   [`BmcOutcome::Unreachable`] is definitive.
//!
//! Bounds deepen from 1 until an answer lands, the grounding budget is
//! exceeded, or [`BmcConfig::max_bound`] is reached. The encoding
//! models explicit authorization only; ordered-mode instances stay with
//! the bounded search.

use std::collections::HashMap;

use minisat::{Lit, SolveOutcome, Solver};

use crate::command::{Command, CommandKind, CommandQueue};
use crate::ids::{Entity, Node, PrivId};
use crate::policy::Policy;
use crate::reach::{reaches, ReachIndex};
use crate::search::policy_space::EdgeTable;
use crate::universe::{Edge, Universe};

/// Grounding and solving budgets.
#[derive(Clone, Copy, Debug)]
pub struct BmcConfig {
    /// Deepen `k = 1..=max_bound` until an answer or budget stop.
    pub max_bound: usize,
    /// Refuse to ground an instance estimated above this many variables.
    pub max_variables: usize,
    /// DPLL decision budget per solver query.
    pub max_decisions: u64,
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            max_bound: 8,
            max_variables: 200_000,
            max_decisions: 2_000_000,
        }
    }
}

/// Why the model checker stopped without an answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inconclusive {
    /// The estimated grounding exceeded [`BmcConfig::max_variables`].
    GroundingTooLarge {
        /// Variables the next bound was estimated to need.
        estimated: u64,
        /// The configured [`BmcConfig::max_variables`] ceiling it broke.
        budget: usize,
    },
    /// A solver query ran out of decisions.
    BudgetExceeded,
    /// Every bound up to [`BmcConfig::max_bound`] was refuted but the
    /// diameter query stayed satisfiable — the space is deeper than the
    /// checker is willing to look.
    BoundExhausted,
}

/// The model checker's verdict.
#[derive(Clone, Debug)]
pub enum BmcOutcome {
    /// A model at some bound decoded to this queue, and the queue
    /// replays to a goal state.
    Reachable {
        /// The validated witness, front first.
        witness: CommandQueue,
    },
    /// Refuted at a bound that the diameter query proved covers the
    /// entire reachable space — unbounded, definitive.
    Unreachable,
    /// No answer within the budgets.
    Inconclusive(Inconclusive),
}

/// Outcome plus accounting for the last grounded instance.
#[derive(Clone, Debug)]
pub struct BmcReport {
    /// The verdict.
    pub outcome: BmcOutcome,
    /// The last bound attempted.
    pub bound: usize,
    /// Variables in the last grounded instance.
    pub variables: usize,
    /// Clauses in the last grounded instance.
    pub clauses: usize,
}

/// One alphabet command the encoding keeps: its edge bit and the
/// `RolePriv` assignment bits that can authorize it.
struct GroundCommand {
    cmd: Command,
    /// Required privilege (explicit mode: the exact term), pre-interned.
    required: PrivId,
    /// Bit of the command's edge in the table.
    edge_bit: usize,
    /// `(role, bit of RolePriv(role, required))` pairs in the universe:
    /// the command is authorized iff the actor reaches one such `role`
    /// while its assignment edge is present.
    auth: Vec<(usize, usize)>,
}

/// The instance shape shared by every query at every bound.
struct Ground {
    table: EdgeTable,
    root_bits: Vec<bool>,
    commands: Vec<GroundCommand>,
    /// Per table bit: is the edge toggled by some kept command? Frozen
    /// (immutable) bits keep their root value at every time step and
    /// ground to constant literals — no per-step variables, no frame
    /// axioms, no contribution to the pairwise-distinct constraints.
    /// Alphabet slicing ([`crate::lint::slice_alphabet`]) makes this
    /// partition bite: sliced-away commands freeze their edges.
    mutable_bits: Vec<bool>,
    /// Role-to-role edges as `(from, to, bit)`.
    rh: Vec<(usize, usize, usize)>,
    /// `UserRole` bits keyed by `(user raw id, role index)`.
    ua: HashMap<(u32, usize), usize>,
    role_count: usize,
}

/// Decides `entity →φ target` under **explicit** authorization by
/// iterative-deepening BMC with a recurrence-diameter closure check.
/// The root policy must already fail the goal (callers come here from
/// an inconclusive search, which checked it).
pub fn check(
    universe: &Universe,
    root: &Policy,
    alphabet: &[(Command, PrivId)],
    entity: Entity,
    target: PrivId,
    config: BmcConfig,
) -> BmcReport {
    let ground = prepare(universe, root, alphabet);
    if ground.commands.is_empty() {
        // No command is ever authorizable: the reachable space is just
        // the root, which fails the goal.
        return BmcReport {
            outcome: BmcOutcome::Unreachable,
            bound: 0,
            variables: 0,
            clauses: 0,
        };
    }
    let mut last = (0usize, 0usize);
    for k in 1..=config.max_bound {
        let estimated = estimate_variables(&ground, k);
        if estimated > config.max_variables as u64 {
            return BmcReport {
                outcome: BmcOutcome::Inconclusive(Inconclusive::GroundingTooLarge {
                    estimated,
                    budget: config.max_variables,
                }),
                bound: k,
                variables: last.0,
                clauses: last.1,
            };
        }
        // Goal query: does some run of ≤ k steps (skips pad shorter
        // runs) reach the goal?
        let mut goal_instance = Instance::new(&ground, k, StepStyle::WithSkip);
        let goal_lit = goal_instance.goal_literal(entity, target, k);
        goal_instance.solver.add_clause(&[goal_lit]);
        last = goal_instance.size();
        match goal_instance.solver.solve_within(config.max_decisions) {
            SolveOutcome::Sat => {
                let witness = goal_instance.decode_witness();
                let outcome = match validate(universe, root, &ground, witness, entity, target) {
                    Some(queue) => BmcOutcome::Reachable { witness: queue },
                    // A model that fails replay would be an encoding bug;
                    // refuse to report it rather than hand out a bogus
                    // witness.
                    None => BmcOutcome::Inconclusive(Inconclusive::BoundExhausted),
                };
                return BmcReport {
                    outcome,
                    bound: k,
                    variables: last.0,
                    clauses: last.1,
                };
            }
            SolveOutcome::BudgetExceeded => {
                return BmcReport {
                    outcome: BmcOutcome::Inconclusive(Inconclusive::BudgetExceeded),
                    bound: k,
                    variables: last.0,
                    clauses: last.1,
                };
            }
            SolveOutcome::Unsat => {}
        }
        // Diameter query: is there a simple path of k + 1 real steps
        // from the root? If not, k steps already cover every reachable
        // state and the refutation above is unbounded.
        let mut diameter_instance = Instance::new(&ground, k + 1, StepStyle::ForcedChange);
        diameter_instance.require_pairwise_distinct_states();
        last = diameter_instance.size();
        match diameter_instance.solver.solve_within(config.max_decisions) {
            SolveOutcome::Unsat => {
                return BmcReport {
                    outcome: BmcOutcome::Unreachable,
                    bound: k,
                    variables: last.0,
                    clauses: last.1,
                };
            }
            SolveOutcome::BudgetExceeded => {
                return BmcReport {
                    outcome: BmcOutcome::Inconclusive(Inconclusive::BudgetExceeded),
                    bound: k,
                    variables: last.0,
                    clauses: last.1,
                };
            }
            SolveOutcome::Sat => {}
        }
    }
    BmcReport {
        outcome: BmcOutcome::Inconclusive(Inconclusive::BoundExhausted),
        bound: config.max_bound,
        variables: last.0,
        clauses: last.1,
    }
}

fn prepare(universe: &Universe, root: &Policy, alphabet: &[(Command, PrivId)]) -> Ground {
    let table = EdgeTable::build(root, alphabet.iter().map(|(c, _)| c.edge));
    let root_bits: Vec<bool> = (0..table.len())
        .map(|b| root.contains_edge(table.edge(b as u32)))
        .collect();
    let role_count = universe.role_count();
    let mut rh = Vec::new();
    let mut ua = HashMap::new();
    let mut assignments: HashMap<PrivId, Vec<(usize, usize)>> = HashMap::new();
    for b in 0..table.len() {
        match table.edge(b as u32) {
            Edge::RoleRole(r, s) => rh.push((r.0 as usize, s.0 as usize, b)),
            Edge::UserRole(u, r) => {
                ua.insert((u.0, r.0 as usize), b);
            }
            Edge::RolePriv(r, p) => assignments.entry(p).or_default().push((r.0 as usize, b)),
        }
    }
    // Keep only commands that can ever be authorized: their exact
    // required vertex must be assignable somewhere in the universe, and
    // the actor needs at least one user→role edge to stand on.
    let commands = alphabet
        .iter()
        .filter_map(|&(cmd, required)| {
            let auth = assignments.get(&required)?.clone();
            let grounded_actor = (0..role_count).any(|r| ua.contains_key(&(cmd.actor.0, r)));
            if !grounded_actor {
                return None;
            }
            let edge_bit = table.bit(cmd.edge).expect("alphabet edge in table") as usize;
            Some(GroundCommand {
                cmd,
                required,
                edge_bit,
                auth,
            })
        })
        .collect::<Vec<GroundCommand>>();
    let mut mutable_bits = vec![false; table.len()];
    for gc in &commands {
        mutable_bits[gc.edge_bit] = true;
    }
    Ground {
        table,
        root_bits,
        commands,
        mutable_bits,
        rh,
        ua,
        role_count,
    }
}

/// Rough variable count for an instance at `steps` transitions — used
/// only to refuse oversized groundings before building them.
fn estimate_variables(ground: &Ground, k: usize) -> u64 {
    let steps = (k + 1) as u64; // diameter query is the larger of the two
                                // Only mutable edges get per-step variables; frozen edges are
                                // constants (see [`Instance::new`]).
    let e = ground.mutable_bits.iter().filter(|&&m| m).count() as u64;
    let c = ground.commands.len() as u64;
    let r = ground.role_count as u64;
    let rh = ground.rh.len() as u64;
    let actors: std::collections::HashSet<u32> =
        ground.commands.iter().map(|g| g.cmd.actor.0).collect();
    let sources = actors.len() as u64 + 1;
    let auth_pairs: u64 = ground.commands.iter().map(|g| g.auth.len() as u64).sum();
    let states = (steps + 1) * e;
    let selectors = steps * (c + 1);
    let reach_rows = sources * steps * r * (r + rh + 1);
    let auth_aux = steps * (auth_pairs + c);
    let distinct_aux = e * (steps + 1) * steps / 2;
    states + selectors + reach_rows + auth_aux + distinct_aux
}

/// How steps are encoded.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepStyle {
    /// Each step is one authorized command or a skip (frame axiom) —
    /// the goal query, where shorter runs pad with skips.
    WithSkip,
    /// Each step is an authorized command that must actually change its
    /// edge; no skips — the diameter query's "real step" requirement.
    ForcedChange,
}

/// One grounded CNF instance at a fixed number of steps.
struct Instance<'g> {
    ground: &'g Ground,
    solver: Solver,
    /// `x[t][e]`: edge `e` present at time `t`, for `t in 0..=steps`.
    state: Vec<Vec<Lit>>,
    /// `sel[t][c]`: command `c` fires at step `t` (last slot is the
    /// skip under [`StepStyle::WithSkip`]).
    selectors: Vec<Vec<Lit>>,
    steps: usize,
    true_lit: Lit,
    /// Levelled role-reachability rows, per `(source entity, time)`.
    reach_cache: HashMap<(Entity, usize), Vec<Lit>>,
}

impl<'g> Instance<'g> {
    fn new(ground: &'g Ground, steps: usize, style: StepStyle) -> Self {
        let mut solver = Solver::new();
        let true_lit = Lit::positive(solver.new_var());
        solver.add_clause(&[true_lit]);
        // Frozen bits (edges no kept command toggles) hold their root
        // value forever: ground them to constant literals at every time
        // step instead of fresh variables. The Tseitin helpers
        // short-circuit on constants, so downstream authorization and
        // goal encodings shrink with them.
        let state: Vec<Vec<Lit>> = (0..=steps)
            .map(|_| {
                (0..ground.table.len())
                    .map(|e| {
                        if ground.mutable_bits[e] {
                            Lit::positive(solver.new_var())
                        } else if ground.root_bits[e] {
                            true_lit
                        } else {
                            !true_lit
                        }
                    })
                    .collect()
            })
            .collect();
        // Time 0 is the root policy (frozen bits are constants already).
        for (e, &present) in ground.root_bits.iter().enumerate() {
            if !ground.mutable_bits[e] {
                continue;
            }
            let lit = if present { state[0][e] } else { !state[0][e] };
            solver.add_clause(&[lit]);
        }
        let mut instance = Instance {
            ground,
            solver,
            state,
            selectors: Vec::new(),
            steps,
            true_lit,
            reach_cache: HashMap::new(),
        };
        for t in 0..steps {
            instance.encode_step(t, style);
        }
        instance
    }

    fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    fn size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    /// Tseitin `g ⇔ a ∧ b`, with constant short-circuits.
    fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        let f = self.false_lit();
        if a == f || b == f {
            return f;
        }
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit {
            return a;
        }
        let g = Lit::positive(self.solver.new_var());
        self.solver.add_clause(&[!g, a]);
        self.solver.add_clause(&[!g, b]);
        self.solver.add_clause(&[!a, !b, g]);
        g
    }

    /// Tseitin `g ⇔ ⋁ lits`, with constant short-circuits.
    fn or(&mut self, lits: &[Lit]) -> Lit {
        let f = self.false_lit();
        if lits.contains(&self.true_lit) {
            return self.true_lit;
        }
        let live: Vec<Lit> = lits.iter().copied().filter(|&l| l != f).collect();
        match live.len() {
            0 => f,
            1 => live[0],
            _ => {
                let g = Lit::positive(self.solver.new_var());
                let mut forward = vec![!g];
                forward.extend_from_slice(&live);
                self.solver.add_clause(&forward);
                for l in live {
                    self.solver.add_clause(&[!l, g]);
                }
                g
            }
        }
    }

    /// One transition `t → t + 1`: exactly one selector fires; a fired
    /// command must be authorized at `t` and writes its edge at `t + 1`;
    /// all other edges are framed.
    fn encode_step(&mut self, t: usize, style: StepStyle) {
        let command_count = self.ground.commands.len();
        let slot_count = match style {
            StepStyle::WithSkip => command_count + 1,
            StepStyle::ForcedChange => command_count,
        };
        let sels: Vec<Lit> = (0..slot_count)
            .map(|_| Lit::positive(self.solver.new_var()))
            .collect();
        self.solver.add_clause(&sels);
        for i in 0..slot_count {
            for j in (i + 1)..slot_count {
                self.solver.add_clause(&[!sels[i], !sels[j]]);
            }
        }
        for (ci, gc) in self.ground.commands.iter().enumerate() {
            let s = sels[ci];
            let auth = self.authorized_literal(ci, t);
            self.solver.add_clause(&[!s, auth]);
            let (next_effect, forced_pre) = match gc.cmd.kind {
                CommandKind::Grant => (self.state[t + 1][gc.edge_bit], !self.state[t][gc.edge_bit]),
                CommandKind::Revoke => {
                    (!self.state[t + 1][gc.edge_bit], self.state[t][gc.edge_bit])
                }
            };
            self.solver.add_clause(&[!s, next_effect]);
            if style == StepStyle::ForcedChange {
                self.solver.add_clause(&[!s, forced_pre]);
            }
            for e in 0..self.ground.table.len() {
                if e == gc.edge_bit || !self.ground.mutable_bits[e] {
                    continue;
                }
                self.frame_edge(s, t, e);
            }
        }
        if style == StepStyle::WithSkip {
            let skip = sels[command_count];
            for e in 0..self.ground.table.len() {
                if self.ground.mutable_bits[e] {
                    self.frame_edge(skip, t, e);
                }
            }
        }
        self.selectors.push(sels);
    }

    /// `sel ⟹ x[t+1][e] ⇔ x[t][e]`.
    fn frame_edge(&mut self, sel: Lit, t: usize, e: usize) {
        let now = self.state[t][e];
        let next = self.state[t + 1][e];
        self.solver.add_clause(&[!sel, !next, now]);
        self.solver.add_clause(&[!sel, next, !now]);
    }

    /// Literal for "command `ci` is authorized at time `t`": the actor
    /// reaches some role holding the command's exact privilege vertex.
    fn authorized_literal(&mut self, ci: usize, t: usize) -> Lit {
        let actor = self.ground.commands[ci].cmd.actor;
        let reach = self.reach_row(Entity::User(actor), t);
        let auth_pairs = self.ground.commands[ci].auth.clone();
        let mut terms = Vec::with_capacity(auth_pairs.len());
        for (role, pa_bit) in auth_pairs {
            let term = self.and2(reach[role], self.state[t][pa_bit]);
            terms.push(term);
        }
        self.or(&terms)
    }

    /// Levelled role-reachability of `source` at time `t`: one literal
    /// per role, true iff the source reaches that role through the
    /// edges present at `t`. Unrolled to `role_count` levels — enough
    /// for any simple inheritance path.
    fn reach_row(&mut self, source: Entity, t: usize) -> Vec<Lit> {
        if let Some(row) = self.reach_cache.get(&(source, t)) {
            return row.clone();
        }
        let role_count = self.ground.role_count;
        let f = self.false_lit();
        let mut current: Vec<Lit> = (0..role_count)
            .map(|r| match source {
                Entity::User(u) => self
                    .ground
                    .ua
                    .get(&(u.0, r))
                    .map(|&bit| self.state[t][bit])
                    .unwrap_or(f),
                Entity::Role(r0) => {
                    if r0.0 as usize == r {
                        self.true_lit
                    } else {
                        f
                    }
                }
            })
            .collect();
        let rh = self.ground.rh.clone();
        for _level in 0..role_count {
            let mut next = current.clone();
            for r in 0..role_count {
                let mut terms = vec![current[r]];
                for &(from, to, bit) in &rh {
                    if to != r {
                        continue;
                    }
                    let via = self.and2(current[from], self.state[t][bit]);
                    terms.push(via);
                }
                next[r] = self.or(&terms);
            }
            current = next;
        }
        self.reach_cache.insert((source, t), current.clone());
        current
    }

    /// Literal for "`entity` reaches the `target` privilege vertex at
    /// time `t`".
    fn goal_literal(&mut self, entity: Entity, target: PrivId, t: usize) -> Lit {
        let reach = self.reach_row(entity, t);
        let mut terms = Vec::new();
        for b in 0..self.ground.table.len() {
            if let Edge::RolePriv(r, p) = self.ground.table.edge(b as u32) {
                if p == target {
                    let term = self.and2(reach[r.0 as usize], self.state[t][b]);
                    terms.push(term);
                }
            }
        }
        self.or(&terms)
    }

    /// Every pair of states along the path must differ in some edge —
    /// the "simple path" half of the diameter query.
    fn require_pairwise_distinct_states(&mut self) {
        let edge_count = self.ground.table.len();
        for a in 0..=self.steps {
            for b in (a + 1)..=self.steps {
                let mut diffs = Vec::with_capacity(edge_count);
                for e in 0..edge_count {
                    // Frozen edges are equal at all times by construction.
                    if !self.ground.mutable_bits[e] {
                        continue;
                    }
                    let xa = self.state[a][e];
                    let xb = self.state[b][e];
                    // d ⇔ xa ⊕ xb
                    let d = Lit::positive(self.solver.new_var());
                    self.solver.add_clause(&[!d, xa, xb]);
                    self.solver.add_clause(&[!d, !xa, !xb]);
                    self.solver.add_clause(&[d, !xa, xb]);
                    self.solver.add_clause(&[d, xa, !xb]);
                    diffs.push(d);
                }
                self.solver.add_clause(&diffs);
            }
        }
    }

    /// Reads the selected command (if any) at each step out of a model.
    fn decode_witness(&self) -> Vec<(Command, PrivId)> {
        let mut out = Vec::new();
        for sels in &self.selectors {
            for (ci, &sel) in sels.iter().enumerate() {
                if !self.solver.value(sel.var()) {
                    continue;
                }
                if let Some(gc) = self.ground.commands.get(ci) {
                    out.push((gc.cmd, gc.required));
                }
                break;
            }
        }
        out
    }
}

/// Replays a decoded model against the real semantics: every command
/// must be explicitly authorized in its pre-state, and the final policy
/// must satisfy the goal. Commands that do not change the policy are
/// elided from the reported witness.
fn validate(
    universe: &Universe,
    root: &Policy,
    _ground: &Ground,
    steps: Vec<(Command, PrivId)>,
    entity: Entity,
    target: PrivId,
) -> Option<CommandQueue> {
    let mut policy = root.clone();
    let mut queue = CommandQueue::new();
    for (cmd, required) in steps {
        if !reaches(&policy, Node::User(cmd.actor), Node::Priv(required)) {
            return None;
        }
        let changed = match cmd.kind {
            CommandKind::Grant => policy.add_edge(cmd.edge),
            CommandKind::Revoke => policy.remove_edge(cmd.edge),
        };
        if changed {
            queue.push(cmd);
        }
    }
    let idx = ReachIndex::build(universe, &policy);
    idx.reach_priv(entity, target).then_some(queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::safety::{prepare_alphabet, SafetyConfig};
    use crate::transition::{run_pure, AuthMode};

    /// jane∈hr holds ¤(bob, staff) and ♦(bob, staff); staff → dbusr2 →
    /// (write, t3). Non-monotone: the revoke rule is assignable.
    fn revocable_fixture() -> (Universe, Policy) {
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
        let r = b.universe_mut().revoke_user_role(bob, staff);
        b = b.assign_priv("hr", g);
        b = b.assign_priv("hr", r);
        b.finish()
    }

    fn prepared(uni: &mut Universe, policy: &Policy) -> Vec<(Command, PrivId)> {
        prepare_alphabet(uni, policy, SafetyConfig::default())
    }

    #[test]
    fn finds_and_validates_a_witness() {
        let (mut uni, policy) = revocable_fixture();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let alphabet = prepared(&mut uni, &policy);
        let report = check(
            &uni,
            &policy,
            &alphabet,
            Entity::User(bob),
            target,
            BmcConfig::default(),
        );
        let BmcOutcome::Reachable { witness } = &report.outcome else {
            panic!("{:?}", report.outcome);
        };
        let final_policy = run_pure(&mut uni, &policy, witness, AuthMode::Explicit);
        assert!(ReachIndex::build(&uni, &final_policy).reach_priv(Entity::User(bob), target));
    }

    #[test]
    fn closes_unreachable_instances_via_the_diameter_check() {
        let (mut uni, policy) = revocable_fixture();
        let bob = uni.find_user("bob").unwrap();
        let never = uni.perm("launch", "missiles");
        let target = uni.priv_perm(never);
        let alphabet = prepared(&mut uni, &policy);
        let report = check(
            &uni,
            &policy,
            &alphabet,
            Entity::User(bob),
            target,
            BmcConfig::default(),
        );
        assert!(
            matches!(report.outcome, BmcOutcome::Unreachable),
            "{:?}",
            report.outcome
        );
        // The only real transitions toggle (bob, staff): the longest
        // simple path from the root is one step, so the instance closes
        // at the very first bound.
        assert_eq!(report.bound, 1);
    }

    #[test]
    fn empty_executable_alphabet_is_immediately_unreachable() {
        // Nobody holds any administrative privilege.
        let (mut uni, policy) = PolicyBuilder::new()
            .assign("jane", "hr")
            .permit("hr", "read", "files")
            .finish();
        let jane = uni.find_user("jane").unwrap();
        let never = uni.perm("write", "files");
        let target = uni.priv_perm(never);
        let alphabet = prepared(&mut uni, &policy);
        let report = check(
            &uni,
            &policy,
            &alphabet,
            Entity::User(jane),
            target,
            BmcConfig::default(),
        );
        assert!(matches!(report.outcome, BmcOutcome::Unreachable));
        assert_eq!(report.bound, 0);
    }

    #[test]
    fn grounding_budget_is_respected() {
        let (mut uni, policy) = revocable_fixture();
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let alphabet = prepared(&mut uni, &policy);
        let report = check(
            &uni,
            &policy,
            &alphabet,
            Entity::User(bob),
            target,
            BmcConfig {
                max_variables: 1,
                ..BmcConfig::default()
            },
        );
        let BmcOutcome::Inconclusive(Inconclusive::GroundingTooLarge { estimated, budget }) =
            report.outcome
        else {
            panic!("{:?}", report.outcome);
        };
        assert_eq!(budget, 1);
        assert!(estimated > 1, "{estimated}");
    }

    #[test]
    fn frozen_edges_shrink_the_grounding() {
        // The same instance grounded against the full alphabet vs the
        // goal-sliced one: slicing freezes every edge its dropped
        // commands would have toggled, so the CNF estimate drops too.
        // The revocable fixture plus an irrelevant wing (mike can put
        // ann into aud) whose edge the slice freezes.
        let (mut uni, mut policy) = revocable_fixture();
        let (ann, aud, itops) = { (uni.user("ann"), uni.role("aud"), uni.role("itops")) };
        let mike = uni.user("mike");
        policy.add_edge(Edge::UserRole(mike, itops));
        let g2 = uni.grant_user_role(ann, aud);
        policy.add_edge(Edge::RolePriv(itops, g2));
        let bob = uni.find_user("bob").unwrap();
        let write_t3 = uni.perm("write", "t3");
        let target = uni.priv_perm(write_t3);
        let alphabet = prepared(&mut uni, &policy);
        let toggles = crate::safety::prepare_toggles(&mut uni, &policy, SafetyConfig::default());
        let sliced = crate::lint::slice_alphabet(
            &uni,
            &policy,
            &toggles,
            Entity::User(bob),
            target,
            AuthMode::Explicit,
        )
        .alphabet;
        let sliced = crate::safety::ground(&uni, &policy, &sliced);
        assert!(sliced.len() < alphabet.len());
        let full = prepare(&uni, &policy, &alphabet);
        let lean = prepare(&uni, &policy, &sliced);
        let mutable = |g: &Ground| g.mutable_bits.iter().filter(|&&m| m).count();
        assert!(mutable(&lean) < mutable(&full));
        assert!(estimate_variables(&lean, 4) < estimate_variables(&full, 4));
        // And the lean instance still answers correctly.
        let report = check(
            &uni,
            &policy,
            &sliced,
            Entity::User(bob),
            target,
            BmcConfig::default(),
        );
        assert!(matches!(report.outcome, BmcOutcome::Reachable { .. }));
    }
}
