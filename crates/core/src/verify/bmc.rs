//! Grounded constraint solving for the general (revocation-capable)
//! case: bounded model checking over the edge universe, with a
//! recurrence-diameter check that closes many instances unboundedly.
//!
//! No product path calls this module: saturation decides every
//! instance (the grant-closure lemma in [`crate::verify`]). It is kept
//! only for the benchmark's model-checking job and the differential
//! test in `tests/verify_unbounded.rs`.
//!
//! Every policy reachable from the root is a subset of the finite edge
//! universe `E` (root edges ∪ alphabet edges), so a run of length `k`
//! grounds to variables `x[t][e]` ("edge `e` present at time `t`") for
//! the *mutable* edges (those a kept command toggles; the others are
//! constants) plus, per step, one selector per **toggle** and one for
//! the skip. A toggle is the actor quotient of the grounded commands
//! sharing `(edge, kind, required term)`: it is authorized iff `∃r:
//! reach[r] ∧ RolePriv(r, required)` on one reach row per (actor set,
//! `t`) seeded by all its actors' `UserRole` edges, exact since `∃a∃r ≡
//! ∃r∃a`. A step costs O(toggles + mutable edges + authorization terms)
//! clauses:
//!
//! * **exactly one selector** — an at-least-one clause and Sinz's
//!   sequential counter (CP 2005): `3n − 4` clauses and `n − 1`
//!   auxiliaries, not `n²/2` pairwise clauses;
//! * **explanatory frame axioms** (Kautz & Selman, AAAI 1996) — per
//!   mutable edge, `x[t+1][e] ∧ ¬x[t][e] → ⋁ grant selectors on e` and
//!   the dual for revokes. With one selector firing, an edge no fired
//!   toggle names cannot change, as the per-selector frames `sel →
//!   (x[t+1][e] ⇔ x[t][e])` said: both accept the same runs, with skips
//!   (goal query) and without (diameter query);
//! * **reach rows** unrolled to `min(roles, distinct targets of live
//!   RoleRole edges)` levels, the most a simple inheritance path crosses.
//!
//! State variables are created before selectors and auxiliaries: the
//! vendored DPLL ([`minisat`]) branches on the lowest index first. It
//! then answers:
//!
//! * **SAT on the goal query at bound `k`** — a witness queue exists;
//!   it is decoded from the model and *validated by replay*, each step
//!   named by the least actor of its toggle authorized in the replayed
//!   pre-state (the convention of [`crate::safety::perm_reachable`]).
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
//! models explicit authorization only.

use std::collections::{BTreeMap, HashMap};

use minisat::{Lit, SolveOutcome, Solver};

use crate::command::{Command, CommandKind, CommandQueue};
use crate::ids::{Entity, Node, PrivId, UserId};
use crate::policy::Policy;
use crate::reach::{reaches, ReachIndex};
use crate::safety::Toggle;
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

/// One toggle the encoding keeps: its edge bit, the actors that may
/// issue it, and the `RolePriv` assignment bits that can authorize it.
struct GroundToggle {
    toggle: Toggle,
    /// Bit of the toggle's edge in the table.
    edge_bit: usize,
    /// Index into [`Ground::actor_sets`].
    actors: usize,
    /// `(role, bit of RolePriv(role, required))` pairs in the universe:
    /// the toggle is authorized iff one of its actors reaches one such
    /// `role` while its assignment edge is present.
    auth: Vec<(usize, usize)>,
}

/// The instance shape shared by every query at every bound.
struct Ground {
    table: EdgeTable,
    root_bits: Vec<bool>,
    /// Sorted by `(edge, kind, required)`: toggles on one edge are adjacent.
    toggles: Vec<GroundToggle>,
    /// Distinct actor sets of the toggles, each ascending.
    actor_sets: Vec<Vec<UserId>>,
    /// Per table bit: is the edge toggled by some kept command? Frozen
    /// bits keep their root value at every step as constant literals:
    /// no variables, frames or pairwise-distinct terms. Slicing
    /// ([`crate::lint::slice_alphabet`]) freezes the edges it drops.
    mutable_bits: Vec<bool>,
    /// Live (present or mutable) role-to-role edges grouped by target:
    /// `(to, [(from, bit)])`.
    rh: Vec<(usize, Vec<(usize, usize)>)>,
    /// `UserRole` `(role, bit)`s keyed by user raw id.
    ua: HashMap<u32, Vec<(usize, usize)>>,
    role_count: usize,
    /// Levels the reach rows unroll to.
    levels: usize,
    /// Estimated variables of one step (see [`estimate_variables`]).
    step_variables: u64,
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
    if ground.toggles.is_empty() {
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
                let outcome = match validate(universe, root, witness, entity, target) {
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
    let mut ua: HashMap<u32, Vec<(usize, usize)>> = HashMap::new();
    let mut assignments: HashMap<PrivId, Vec<(usize, usize)>> = HashMap::new();
    for b in 0..table.len() {
        match table.edge(b as u32) {
            Edge::RoleRole(r, s) => rh.push((s.0 as usize, r.0 as usize, b)),
            Edge::UserRole(u, r) => ua.entry(u.0).or_default().push((r.0 as usize, b)),
            Edge::RolePriv(r, p) => assignments.entry(p).or_default().push((r.0 as usize, b)),
        }
    }
    // Keep only commands that can ever be authorized: their exact
    // required vertex must be assignable somewhere in the universe, and
    // the actor needs at least one user→role edge to stand on.
    let mut quotient: BTreeMap<Toggle, Vec<UserId>> = BTreeMap::new();
    for &(cmd, required) in alphabet {
        if assignments.contains_key(&required) && ua.contains_key(&cmd.actor.0) {
            quotient
                .entry((cmd, required).into())
                .or_default()
                .push(cmd.actor);
        }
    }
    let mut actor_sets: Vec<Vec<UserId>> = Vec::new();
    let mut mutable_bits = vec![false; table.len()];
    let toggles: Vec<GroundToggle> = quotient
        .into_iter()
        .map(|(toggle, mut actors)| {
            actors.sort_unstable();
            actors.dedup();
            let set = actor_sets.iter().position(|s| *s == actors);
            let edge_bit = table.bit(toggle.edge).expect("alphabet edge in table") as usize;
            mutable_bits[edge_bit] = true;
            GroundToggle {
                toggle,
                edge_bit,
                actors: set.unwrap_or_else(|| {
                    actor_sets.push(actors);
                    actor_sets.len() - 1
                }),
                auth: assignments[&toggle.required].clone(),
            }
        })
        .collect();
    // Edges absent at the root that nothing toggles never exist.
    rh.retain(|&(_, _, b)| root_bits[b] || mutable_bits[b]);
    rh.sort_unstable();
    let mut grouped: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    for (to, from, b) in rh {
        match grouped.last_mut() {
            Some((last, froms)) if *last == to => froms.push((from, b)),
            _ => grouped.push((to, vec![(from, b)])),
        }
    }
    let levels = grouped.len().min(role_count);
    let live_rh = grouped.iter().map(|(_, f)| f.len()).sum::<usize>();
    // Per step: selectors and counter auxiliaries, one reach row per
    // actor set (plus the goal's), one gate per authorization term.
    let row = (levels * (role_count + live_rh) + role_count) as u64;
    let auth_terms: usize = toggles.iter().map(|g| g.auth.len()).sum();
    let step_variables =
        2 * toggles.len() as u64 + 1 + (actor_sets.len() as u64 + 1) * row + auth_terms as u64;
    Ground {
        table,
        root_bits,
        toggles,
        actor_sets,
        mutable_bits,
        rh: grouped,
        ua,
        role_count,
        levels,
        step_variables,
    }
}

/// Rough variable count for an instance at `k` — used only to refuse
/// oversized groundings before building them.
fn estimate_variables(ground: &Ground, k: usize) -> u64 {
    let steps = (k + 1) as u64; // diameter query is the larger of the two
    let e = ground.mutable_bits.iter().filter(|&&m| m).count() as u64;
    let distinct_aux = e * (steps + 1) * steps / 2;
    (steps + 1) * e + steps * ground.step_variables + distinct_aux
}

/// How steps are encoded.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepStyle {
    /// Each step is one authorized toggle or a skip — the goal query,
    /// where shorter runs pad with skips.
    WithSkip,
    /// Each step is an authorized toggle that must actually change its
    /// edge; no skips — the diameter query's "real step" requirement.
    ForcedChange,
}

/// Whose reachability a reach row encodes.
#[derive(Clone, Copy)]
enum Source {
    /// The goal entity.
    Entity(Entity),
    /// Any actor of [`Ground::actor_sets`]`[i]`.
    Actors(usize),
}

/// One grounded CNF instance at a fixed number of steps.
struct Instance<'g> {
    ground: &'g Ground,
    solver: Solver,
    /// `x[t][e]`: edge `e` present at time `t`, for `t in 0..=steps`.
    state: Vec<Vec<Lit>>,
    /// `sel[t][i]`: toggle `i` fires at step `t` (last slot is the
    /// skip under [`StepStyle::WithSkip`]).
    selectors: Vec<Vec<Lit>>,
    steps: usize,
    true_lit: Lit,
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
    /// toggle must be authorized at `t` and writes its edge at `t + 1`;
    /// an edge changes only under a fired toggle on it.
    fn encode_step(&mut self, t: usize, style: StepStyle) {
        let ground = self.ground;
        let slot_count = ground.toggles.len() + usize::from(style == StepStyle::WithSkip);
        let sels: Vec<Lit> = (0..slot_count)
            .map(|_| Lit::positive(self.solver.new_var()))
            .collect();
        self.solver.add_clause(&sels);
        // Sinz's sequential counter: `s[i]` ⇐ some of `sels[..=i]` fired.
        let mut fired: Option<Lit> = None;
        for (i, &sel) in sels.iter().enumerate() {
            if let Some(prev) = fired {
                self.solver.add_clause(&[!sel, !prev]);
            }
            if i + 1 == slot_count {
                break;
            }
            let s = Lit::positive(self.solver.new_var());
            self.solver.add_clause(&[!sel, s]);
            if let Some(prev) = fired {
                self.solver.add_clause(&[!prev, s]);
            }
            fired = Some(s);
        }
        let rows: Vec<Vec<Lit>> = (0..ground.actor_sets.len())
            .map(|set| self.reach_row(Source::Actors(set), t))
            .collect();
        for (gt, &sel) in ground.toggles.iter().zip(&sels) {
            let mut clause = vec![!sel];
            for &(role, pa_bit) in &gt.auth {
                clause.push(self.and2(rows[gt.actors][role], self.state[t][pa_bit]));
            }
            if !clause.contains(&self.true_lit) {
                let f = self.false_lit();
                clause.retain(|&l| l != f);
                self.solver.add_clause(&clause);
            }
            let (now, next) = (self.state[t][gt.edge_bit], self.state[t + 1][gt.edge_bit]);
            let (effect, pre) = match gt.toggle.kind {
                CommandKind::Grant => (next, !now),
                CommandKind::Revoke => (!next, now),
            };
            self.solver.add_clause(&[!sel, effect]);
            if style == StepStyle::ForcedChange {
                self.solver.add_clause(&[!sel, pre]);
            }
        }
        // Explanatory frames, one pair per mutable edge (toggles on an
        // edge are adjacent).
        let mut start = 0;
        while start < ground.toggles.len() {
            let e = ground.toggles[start].edge_bit;
            let (now, next) = (self.state[t][e], self.state[t + 1][e]);
            let (mut added, mut removed) = (vec![!next, now], vec![next, !now]);
            while start < ground.toggles.len() && ground.toggles[start].edge_bit == e {
                match ground.toggles[start].toggle.kind {
                    CommandKind::Grant => added.push(sels[start]),
                    CommandKind::Revoke => removed.push(sels[start]),
                }
                start += 1;
            }
            self.solver.add_clause(&added);
            self.solver.add_clause(&removed);
        }
        self.selectors.push(sels);
    }

    /// Levelled role-reachability of `source` at time `t`: one literal
    /// per role, true iff the source reaches that role through the
    /// edges present at `t`.
    fn reach_row(&mut self, source: Source, t: usize) -> Vec<Lit> {
        let ground = self.ground;
        let mut seeds: Vec<Vec<Lit>> = vec![Vec::new(); ground.role_count];
        match source {
            Source::Entity(Entity::Role(r)) => seeds[r.0 as usize].push(self.true_lit),
            Source::Entity(Entity::User(u)) => {
                for &(r, bit) in ground.ua.get(&u.0).into_iter().flatten() {
                    seeds[r].push(self.state[t][bit]);
                }
            }
            Source::Actors(set) => {
                for u in &ground.actor_sets[set] {
                    for &(r, bit) in &ground.ua[&u.0] {
                        seeds[r].push(self.state[t][bit]);
                    }
                }
            }
        }
        let mut current: Vec<Lit> = seeds.iter().map(|lits| self.or(lits)).collect();
        for _level in 0..ground.levels {
            let mut next = current.clone();
            for (to, froms) in &ground.rh {
                let mut terms = vec![current[*to]];
                for &(from, bit) in froms {
                    terms.push(self.and2(current[from], self.state[t][bit]));
                }
                next[*to] = self.or(&terms);
            }
            if next == current {
                break;
            }
            current = next;
        }
        current
    }

    /// Literal for "`entity` reaches the `target` privilege vertex at
    /// time `t`".
    fn goal_literal(&mut self, entity: Entity, target: PrivId, t: usize) -> Lit {
        let reach = self.reach_row(Source::Entity(entity), t);
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

    /// Reads the fired toggle (if any) at each step out of a model, with
    /// the actors that may issue it.
    fn decode_witness(&self) -> Vec<(Toggle, &'g [UserId])> {
        let ground = self.ground;
        self.selectors
            .iter()
            .filter_map(|sels| {
                let i = sels.iter().position(|sel| self.solver.value(sel.var()))?;
                let gt = ground.toggles.get(i)?;
                Some((gt.toggle, ground.actor_sets[gt.actors].as_slice()))
            })
            .collect()
    }
}

/// Replays a decoded model against the real semantics: each toggle is
/// issued by the least of its actors explicitly authorized in its
/// pre-state (none: no witness), and the final policy must satisfy the
/// goal. Toggles that do not change the policy are elided from the
/// reported witness.
fn validate(
    universe: &Universe,
    root: &Policy,
    steps: Vec<(Toggle, &[UserId])>,
    entity: Entity,
    target: PrivId,
) -> Option<CommandQueue> {
    let mut policy = root.clone();
    let mut queue = CommandQueue::new();
    for (toggle, actors) in steps {
        let required = Node::Priv(toggle.required);
        let actor = *actors
            .iter()
            .find(|&&a| reaches(&policy, Node::User(a), required))?;
        let changed = match toggle.kind {
            CommandKind::Grant => policy.add_edge(toggle.edge),
            CommandKind::Revoke => policy.remove_edge(toggle.edge),
        };
        if changed {
            queue.push(toggle.command(actor));
        }
    }
    let idx = ReachIndex::build(universe, &policy);
    idx.reach_priv(entity, target).then_some(queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::safety::{perm_reachable, prepare_alphabet, ReachabilityAnswer, SafetyConfig};
    use crate::transition::{run_pure, AuthMode};

    /// jane∈hr holds ¤(bob, staff) and ♦(bob, staff); staff → dbusr2 →
    /// (write, t3). Non-monotone: the revoke rule is assignable.
    fn revocable_fixture() -> (Universe, Policy) {
        revocable_fixture_with(&[("jane", "hr")])
    }

    /// [`revocable_fixture`] with `members` (interned in order, before
    /// bob) in place of jane∈hr.
    fn revocable_fixture_with(members: &[(&str, &str)]) -> (Universe, Policy) {
        let mut b = members
            .iter()
            .fold(PolicyBuilder::new(), |b, &(user, role)| {
                b.assign(user, role)
            })
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
    fn one_step_fires_one_toggle() {
        // jane∈hr may put bob into staff and staff under dbusr2: two
        // grants, which no step may fire together.
        let (mut uni, mut policy) = revocable_fixture();
        let (hr, staff, dbusr2) = (uni.role("hr"), uni.role("staff"), uni.role("dbusr2"));
        policy.remove_edge(Edge::RoleRole(staff, dbusr2));
        let g = uni.grant_role_role(staff, dbusr2);
        policy.add_edge(Edge::RolePriv(hr, g));
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
        assert_eq!((report.bound, witness.len()), (2, 2));
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
    fn a_fired_toggle_leaves_every_other_edge_alone() {
        // bob∈aud holds at the root and jane may only grant it, so no
        // run removes it: the simple paths are those of the (bob, staff)
        // toggle alone, and the instance still closes at bound 1.
        let (mut uni, mut policy) = revocable_fixture();
        let (bob, aud, hr) = (uni.user("bob"), uni.role("aud"), uni.role("hr"));
        policy.add_edge(Edge::UserRole(bob, aud));
        let g = uni.grant_user_role(bob, aud);
        policy.add_edge(Edge::RolePriv(hr, g));
        let never = uni.perm("launch", "missiles");
        let target = uni.priv_perm(never);
        let alphabet = prepared(&mut uni, &policy);
        let config = BmcConfig::default();
        let report = check(&uni, &policy, &alphabet, Entity::User(bob), target, config);
        assert!(matches!(report.outcome, BmcOutcome::Unreachable));
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

    /// `adminref_workloads::deep_delegation` at its default shape (depth
    /// 4, fanout 3): admins hold ¤(w, stage0), stage i holds
    /// ¤(w, stage i+1), the last stage holds (open, vault).
    fn delegation() -> (Universe, Policy, Entity, PrivId) {
        let mut uni = Universe::new();
        let admin = uni.user("admin0");
        let admins = uni.role("admins");
        let stages: Vec<_> = (0..4).map(|i| uni.role(&format!("stage{i}"))).collect();
        let workers: Vec<_> = (0..3).map(|j| uni.user(&format!("worker{j}"))).collect();
        let mut policy = Policy::new(&uni);
        policy.add_edge(Edge::UserRole(admin, admins));
        for (i, &stage) in stages.iter().enumerate() {
            let holder = if i == 0 { admins } else { stages[i - 1] };
            for &w in &workers {
                let p = uni.grant_user_role(w, stage);
                policy.add_edge(Edge::RolePriv(holder, p));
            }
        }
        let vault = uni.perm("open", "vault");
        let target = uni.priv_perm(vault);
        policy.add_edge(Edge::RolePriv(stages[3], target));
        (uni, policy, Entity::User(workers[0]), target)
    }

    #[test]
    fn a_step_grounds_in_linear_size() {
        let (mut uni, policy, worker, target) = delegation();
        let alphabet = prepared(&mut uni, &policy);
        let ground = prepare(&uni, &policy, &alphabet);
        let clauses = |k| {
            let mut instance = Instance::new(&ground, k, StepStyle::WithSkip);
            let goal = instance.goal_literal(worker, target, k);
            instance.solver.add_clause(&[goal]);
            instance.size().1
        };
        let growth = clauses(2) - clauses(1);
        let mutable = ground.mutable_bits.iter().filter(|&&m| m).count();
        let auth_terms: usize = ground.toggles.iter().map(|g| g.auth.len()).sum();
        let linear = ground.toggles.len() + 1 + mutable + auth_terms;
        assert!(
            growth <= 4 * linear,
            "{growth} clauses per step, linear size {linear}"
        );
        // One selector per toggle: the 4 actors do not multiply them.
        assert_eq!(ground.toggles.len(), 12);
        assert_eq!(alphabet.iter().map(|(c, _)| c.actor).max().unwrap().0, 3);
        let report = check(
            &uni,
            &policy,
            &alphabet,
            worker,
            target,
            BmcConfig::default(),
        );
        let BmcOutcome::Reachable { witness } = &report.outcome else {
            panic!("{:?}", report.outcome);
        };
        assert_eq!((report.bound, witness.len()), (4, 4));
    }

    #[test]
    fn a_second_administrator_adds_no_selector_and_the_least_authorized_issues() {
        // al (in aud) is the least actor but holds no privilege; amy is
        // the least authorized one.
        let mut selectors = Vec::new();
        for (members, least) in [
            (&[("jane", "hr")][..], "jane"),
            (&[("al", "aud"), ("amy", "hr"), ("jane", "hr")][..], "amy"),
        ] {
            let (mut uni, policy) = revocable_fixture_with(members);
            let bob = uni.find_user("bob").unwrap();
            let write_t3 = uni.perm("write", "t3");
            let target = uni.priv_perm(write_t3);
            let alphabet = prepared(&mut uni, &policy);
            let ground = prepare(&uni, &policy, &alphabet);
            selectors.push(Instance::new(&ground, 1, StepStyle::WithSkip).selectors[0].len());
            let config = BmcConfig::default();
            let report = check(&uni, &policy, &alphabet, Entity::User(bob), target, config);
            let BmcOutcome::Reachable { witness } = report.outcome else {
                panic!("{:?}", report.outcome);
            };
            let bfs = perm_reachable(
                &mut uni,
                &policy,
                Entity::User(bob),
                write_t3,
                Default::default(),
            );
            let ReachabilityAnswer::Reachable { witness: expected } = bfs else {
                panic!("{bfs:?}");
            };
            assert_eq!(witness.commands(), expected.commands());
            assert_eq!(
                witness.actor_signature(),
                vec![uni.find_user(least).unwrap()]
            );
        }
        assert_eq!(selectors[0], selectors[1]);
    }
}
