//! Reachability `v →φ v′` over the policy graph.
//!
//! The paper reads a policy as the digraph `UA ∪ RH ∪ PA†` and writes
//! `v →φ v′` when a (possibly empty) path exists — reachability is
//! reflexive (Example 5 silently uses `bob →φ bob`). Two implementations
//! are provided:
//!
//! * [`reaches`] — an allocation-light on-the-fly BFS, right for the tiny,
//!   rapidly-mutating policies inside the bounded refinement search;
//! * [`ReachIndex`] — a bitset closure over the role hierarchy with
//!   per-privilege holder lists, right for repeated queries against a fixed
//!   policy (ordering decisions, the monitor, benchmarks).
//!
//! Both agree everywhere; a property test in this module checks that.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::bitset::BitSet;
use crate::closure::{ClosureDelta, RoleClosure};
use crate::ids::{Entity, Node, Perm, PrivId, RoleId, UserId};
use crate::policy::Policy;
use crate::universe::{Edge, PrivTerm, Universe};

/// On-the-fly BFS reachability on the policy graph. Reflexive.
pub fn reaches(policy: &Policy, from: Node, to: Node) -> bool {
    if from == to {
        return true;
    }
    // Privilege vertices are sinks; users are never targets.
    if matches!(from, Node::Priv(_)) {
        return false;
    }
    if matches!(to, Node::User(_)) {
        return false;
    }
    // Visited roles as a bitset keyed by role index, grown on demand:
    // `Vec::contains` here made the walk O(V²) on thousands-of-roles
    // hierarchies.
    let mut seen_roles = BitSet::new(0);
    let mut queue: Vec<RoleId> = Vec::new();
    let push = |r: RoleId, seen: &mut BitSet, queue: &mut Vec<RoleId>| {
        if r.index() >= seen.capacity() {
            seen.grow(r.index() + 1);
        }
        if seen.insert(r.index()) {
            queue.push(r);
        }
    };
    match from {
        Node::User(u) => {
            for r in policy.roles_of(u) {
                if Node::Role(r) == to {
                    return true;
                }
                push(r, &mut seen_roles, &mut queue);
            }
        }
        Node::Role(r) => push(r, &mut seen_roles, &mut queue),
        Node::Priv(_) => unreachable!("handled above"),
    }
    while let Some(r) = queue.pop() {
        if let Node::Priv(p) = to {
            if policy.privs_of(r).any(|q| q == p) {
                return true;
            }
        }
        for s in policy.juniors_of(r) {
            if Node::Role(s) == to {
                return true;
            }
            push(s, &mut seen_roles, &mut queue);
        }
    }
    false
}

/// Entity-to-entity convenience wrapper over [`reaches`].
pub fn reaches_entity(policy: &Policy, from: Entity, to: Entity) -> bool {
    reaches(policy, from.into(), to.into())
}

/// Bitset-backed reachability index for one policy snapshot.
///
/// Build cost is `O(|R|²/64 + |E|)`; queries are `O(1)` for role/role,
/// `O(roles_of(u))` for user sources, and `O(holders(p))` for privilege
/// targets.
#[derive(Debug, Clone)]
pub struct ReachIndex {
    closure: RoleClosure,
    /// Direct role memberships per user (dense by user id). The outer
    /// `Arc` makes cloning free for batches without membership deltas;
    /// when one does copy the table, the inner `Arc`s still share every
    /// untouched user's row across epochs.
    user_roles: Arc<Vec<Arc<Vec<RoleId>>>>,
    /// Roles directly holding each privilege vertex (`Arc`-shared like
    /// the membership table).
    holders: Arc<HashMap<PrivId, Arc<Vec<RoleId>>>>,
    role_count: usize,
}

/// One applied edge change, in execution order — the unit the
/// incremental snapshot publisher consumes. Produced from the
/// `changed == true` outcomes of a batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdgeDelta {
    /// The edge that changed.
    pub edge: Edge,
    /// `true` for an addition, `false` for a removal.
    pub added: bool,
}

/// Cap on closure rows a single RH-edge removal may recompute before
/// the targeted pass costs as much as a rebuild (see
/// [`RoleClosure::remove_edge_incremental`]). A quarter of the SCCs,
/// floored so tiny hierarchies always take the targeted path.
fn removal_fanout_cap(scc_count: usize) -> usize {
    (scc_count / 4).max(8)
}

impl ReachIndex {
    /// Builds the index for `policy` against `universe`.
    pub fn build(universe: &Universe, policy: &Policy) -> Self {
        policy.check_universe(universe);
        let role_count = universe.role_count();
        let closure = RoleClosure::build(role_count, policy.rh().map(|(a, b)| (a.0, b.0)));
        let mut user_roles = vec![Vec::new(); universe.user_count()];
        for (u, r) in policy.ua() {
            user_roles[u.index()].push(r);
        }
        let mut holders: HashMap<PrivId, Vec<RoleId>> = HashMap::new();
        for (r, p) in policy.pa() {
            holders.entry(p).or_default().push(r);
        }
        ReachIndex {
            closure,
            user_roles: Arc::new(user_roles.into_iter().map(Arc::new).collect()),
            holders: Arc::new(holders.into_iter().map(|(p, v)| (p, Arc::new(v))).collect()),
            role_count,
        }
    }

    /// Derives the index of a *child* policy from this one by applying
    /// the batch's edge deltas, sharing every untouched row with the
    /// parent. Returns `None` when the batch needs a from-scratch
    /// [`build`](Self::build): the universe's role/user population grew
    /// under the index, an RH addition closed a new cycle (SCC merge),
    /// an RH removal hit an edge inside an SCC (possible split), or a
    /// removal's row fan-out exceeded the cost cap.
    ///
    /// `policy_before` must be the policy this index was built for and
    /// `deltas` the exact sequence of applied changes leading from it
    /// to the child policy — i.e. an `added` delta's edge was absent
    /// when it executed, a removal's present (the monitor gets this for
    /// free from the `changed` flags of a batch's outcomes).
    pub fn apply_delta(
        &self,
        universe: &Universe,
        policy_before: &Policy,
        deltas: &[EdgeDelta],
    ) -> Option<ReachIndex> {
        if universe.role_count() != self.role_count
            || universe.user_count() != self.user_roles.len()
        {
            return None;
        }
        let mut next = self.clone();
        // Role adjacency, materialized lazily on the first RH delta and
        // kept in step with the sequence (UA/PA-only batches never pay
        // for it).
        let mut succ: Option<Vec<BTreeSet<u32>>> = None;
        let mut rh_changed = false;
        for delta in deltas {
            match (delta.edge, delta.added) {
                (Edge::UserRole(u, r), added) => {
                    let table = Arc::make_mut(&mut next.user_roles);
                    let row = Arc::make_mut(&mut table[u.index()]);
                    match (row.binary_search(&r), added) {
                        (Err(at), true) => row.insert(at, r),
                        (Ok(at), false) => {
                            row.remove(at);
                        }
                        // A delta that disagrees with the row means the
                        // sequence precondition was violated; the exact
                        // path is a rebuild away.
                        _ => return None,
                    }
                }
                (Edge::RolePriv(r, p), true) => {
                    let table = Arc::make_mut(&mut next.holders);
                    let row = Arc::make_mut(table.entry(p).or_default());
                    match row.binary_search(&r) {
                        Err(at) => row.insert(at, r),
                        Ok(_) => return None,
                    }
                }
                (Edge::RolePriv(r, p), false) => {
                    let table = Arc::make_mut(&mut next.holders);
                    let entry = table.get_mut(&p)?;
                    let row = Arc::make_mut(entry);
                    match row.binary_search(&r) {
                        Ok(at) => {
                            row.remove(at);
                        }
                        Err(_) => return None,
                    }
                    if entry.is_empty() {
                        // Parity with `build`, which never materializes
                        // holderless vertices.
                        table.remove(&p);
                    }
                }
                (Edge::RoleRole(a, b), added) => {
                    let succ = succ.get_or_insert_with(|| {
                        let mut adj = vec![BTreeSet::new(); self.role_count];
                        for (s, t) in policy_before.rh() {
                            adj[s.index()].insert(t.0);
                        }
                        adj
                    });
                    rh_changed = true;
                    let outcome = if added {
                        if !succ[a.index()].insert(b.0) {
                            return None;
                        }
                        next.closure.add_edge_incremental(a.0, b.0)
                    } else {
                        if !succ[a.index()].remove(&b.0) {
                            return None;
                        }
                        let cap = removal_fanout_cap(next.closure.scc_count());
                        next.closure.remove_edge_incremental(a.0, b.0, succ, cap)
                    };
                    if outcome == ClosureDelta::Rebuild {
                        return None;
                    }
                }
            }
        }
        if rh_changed {
            next.closure
                .recompute_longest_chain(succ.as_deref().expect("built on first RH delta"));
        }
        Some(next)
    }

    /// The underlying role-hierarchy closure.
    pub fn role_closure(&self) -> &RoleClosure {
        &self.closure
    }

    /// `true` iff `from →φ to` for entities. Reflexive.
    pub fn reach_entity(&self, from: Entity, to: Entity) -> bool {
        match (from, to) {
            (Entity::User(a), Entity::User(b)) => a == b,
            (Entity::Role(_), Entity::User(_)) => false,
            (Entity::Role(a), Entity::Role(b)) => self.closure.reaches(a.0, b.0),
            (Entity::User(u), Entity::Role(b)) => self
                .direct_roles(u)
                .iter()
                .any(|r| self.closure.reaches(r.0, b.0)),
        }
    }

    /// `true` iff `from →φ p` where `p` is a privilege vertex.
    pub fn reach_priv(&self, from: Entity, p: PrivId) -> bool {
        let Some(holders) = self.holders.get(&p) else {
            return false;
        };
        holders.iter().any(|&h| self.reach_entity(from, h.into()))
    }

    /// The add-edge split lemma: in a policy that fails
    /// `entity →φ target`, adding `edge = (src, tgt)` satisfies it iff
    /// `entity →φ src` and `tgt →φ target` already held — a path in the
    /// successor either avoids the new edge (the parent fails the goal)
    /// or splits around its first and last use into parent-only
    /// segments. Privilege vertices are sinks, so `tgt →φ target` for a
    /// `PA†` edge is `tgt == target`. Evaluated on this (the parent's)
    /// index, so one index answers a whole sweep of candidate edges.
    #[inline]
    pub fn reach_priv_via_added_edge(&self, entity: Entity, target: PrivId, edge: Edge) -> bool {
        match edge {
            Edge::UserRole(u, r) => {
                entity == Entity::User(u) && self.reach_priv(Entity::Role(r), target)
            }
            Edge::RoleRole(r, s) => {
                self.reach_entity(entity, Entity::Role(r))
                    && self.reach_priv(Entity::Role(s), target)
            }
            Edge::RolePriv(r, p) => p == target && self.reach_entity(entity, Entity::Role(r)),
        }
    }

    /// General node-to-node reachability. Reflexive.
    pub fn reach_node(&self, from: Node, to: Node) -> bool {
        if from == to {
            return true;
        }
        match (from, to) {
            (Node::Priv(_), _) => false,
            (Node::User(u), Node::Priv(p)) => self.reach_priv(Entity::User(u), p),
            (Node::Role(r), Node::Priv(p)) => self.reach_priv(Entity::Role(r), p),
            (Node::User(u), Node::Role(r)) => self.reach_entity(u.into(), r.into()),
            (Node::User(a), Node::User(b)) => a == b,
            (Node::Role(a), Node::Role(b)) => self.reach_entity(a.into(), b.into()),
            (Node::Role(_), Node::User(_)) => false,
        }
    }

    /// Every role reachable from `e` (for users: union of assigned-role
    /// closures; for roles: the closure row).
    pub fn roles_reachable(&self, e: Entity) -> BitSet {
        let mut out = BitSet::new(self.role_count);
        match e {
            Entity::Role(r) => {
                if r.index() < self.role_count {
                    out.union_with(self.closure.row(r.0));
                }
            }
            Entity::User(u) => {
                for r in self.direct_roles(u) {
                    out.union_with(self.closure.row(r.0));
                }
            }
        }
        out
    }

    /// Every privilege vertex reachable from `e`.
    pub fn privs_reachable<'a>(
        &'a self,
        policy: &'a Policy,
        e: Entity,
    ) -> impl Iterator<Item = PrivId> + 'a {
        let roles = self.roles_reachable(e);
        policy.pa().filter_map(move |(r, p)| {
            if roles.contains(r.index()) {
                Some(p)
            } else {
                None
            }
        })
    }

    /// Every user privilege (perm) reachable from `e` — the authorization
    /// row used by the non-administrative refinement check (Definition 6).
    pub fn perms_reachable(&self, universe: &Universe, policy: &Policy, e: Entity) -> Vec<Perm> {
        let mut out: Vec<Perm> = self
            .privs_reachable(policy, e)
            .filter_map(|p| match universe.term(p) {
                PrivTerm::Perm(q) => Some(q),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn direct_roles(&self, u: UserId) -> &[RoleId] {
        self.user_roles
            .get(u.index())
            .map(|row| row.as_slice())
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyBuilder;
    use crate::universe::Edge;

    /// Figure 1 of the paper: diana → {nurse, staff}, staff → nurse →
    /// {dbusr1, prntusr}, staff → dbusr2, plus perms.
    fn figure1() -> (Universe, Policy) {
        PolicyBuilder::new()
            .assign("diana", "nurse")
            .assign("diana", "staff")
            .inherit("staff", "nurse")
            .inherit("nurse", "dbusr1")
            .inherit("nurse", "prntusr")
            .inherit("staff", "dbusr2")
            .inherit("dbusr2", "dbusr1")
            .permit("dbusr1", "read", "t1")
            .permit("dbusr1", "read", "t2")
            .permit("dbusr2", "write", "t3")
            .permit("prntusr", "prnt", "black")
            .permit("staff", "prnt", "color")
            .finish()
    }

    #[test]
    fn bfs_matches_paper_paths() {
        let (uni, policy) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        assert!(reaches_entity(&policy, diana.into(), nurse.into()));
        assert!(reaches_entity(&policy, diana.into(), dbusr2.into()));
        assert!(!reaches_entity(
            &policy,
            nurse.into(),
            uni.find_role("staff").unwrap().into()
        ));
        // Reflexivity, even for unassigned entities.
        assert!(reaches_entity(&policy, nurse.into(), nurse.into()));
    }

    #[test]
    fn bfs_reaches_priv_vertices() {
        let (mut uni, policy) = figure1();
        let nurse = uni.find_role("nurse").unwrap();
        let perm = uni.perm("read", "t1");
        let p = uni.priv_perm(perm);
        assert!(reaches(&policy, Node::Role(nurse), Node::Priv(p)));
        let w3 = uni.perm("write", "t3");
        let p3 = uni.priv_perm(w3);
        assert!(
            !reaches(&policy, Node::Role(nurse), Node::Priv(p3)),
            "nurses cannot write t3 (Example 1)"
        );
    }

    #[test]
    fn priv_nodes_are_sinks() {
        let (mut uni, policy) = figure1();
        let perm = uni.perm("read", "t1");
        let p = uni.priv_perm(perm);
        let nurse = uni.find_role("nurse").unwrap();
        assert!(!reaches(&policy, Node::Priv(p), Node::Role(nurse)));
        assert!(reaches(&policy, Node::Priv(p), Node::Priv(p)));
    }

    #[test]
    fn users_are_never_targets() {
        let (uni, policy) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let staff = uni.find_role("staff").unwrap();
        assert!(!reaches(&policy, Node::Role(staff), Node::User(diana)));
        assert!(reaches(&policy, Node::User(diana), Node::User(diana)));
    }

    #[test]
    fn index_agrees_with_bfs_on_figure1() {
        let (uni, policy) = figure1();
        let idx = ReachIndex::build(&uni, &policy);
        let entities: Vec<Entity> = uni
            .users()
            .map(Entity::User)
            .chain(uni.roles().map(Entity::Role))
            .collect();
        for &a in &entities {
            for &b in &entities {
                assert_eq!(
                    idx.reach_entity(a, b),
                    reaches_entity(&policy, a, b),
                    "{a:?} -> {b:?}"
                );
            }
        }
        for &a in &entities {
            for p in policy.priv_vertices() {
                assert_eq!(
                    idx.reach_priv(a, p),
                    reaches(&policy, a.into(), Node::Priv(p)),
                    "{a:?} -> {p:?}"
                );
            }
        }
    }

    #[test]
    fn perms_reachable_matches_example1() {
        let (uni, policy) = figure1();
        let idx = ReachIndex::build(&uni, &policy);
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        // Nurse: read t1, read t2, print black.
        let nurse_perms = idx.perms_reachable(&uni, &policy, nurse.into());
        assert_eq!(nurse_perms.len(), 3);
        // Diana (nurse + staff): additionally write t3, print color.
        let diana_perms = idx.perms_reachable(&uni, &policy, diana.into());
        assert_eq!(diana_perms.len(), 5);
    }

    #[test]
    fn roles_reachable_rows() {
        let (uni, policy) = figure1();
        let idx = ReachIndex::build(&uni, &policy);
        let staff = uni.find_role("staff").unwrap();
        let row = idx.roles_reachable(staff.into());
        for name in ["staff", "nurse", "dbusr1", "dbusr2", "prntusr"] {
            assert!(row.contains(uni.find_role(name).unwrap().index()), "{name}");
        }
    }

    #[test]
    fn index_handles_cyclic_hierarchy() {
        let (uni, mut policy) = figure1();
        let nurse = uni.find_role("nurse").unwrap();
        let staff = uni.find_role("staff").unwrap();
        policy.add_edge(Edge::RoleRole(nurse, staff)); // cycle nurse <-> staff
        let idx = ReachIndex::build(&uni, &policy);
        assert!(idx.reach_entity(nurse.into(), staff.into()));
        assert!(idx.reach_entity(staff.into(), nurse.into()));
        assert!(reaches_entity(&policy, nurse.into(), staff.into()));
    }

    /// Same observable answers, whatever the internal SCC numbering.
    fn assert_equiv(uni: &Universe, policy: &Policy, a: &ReachIndex, b: &ReachIndex) {
        let entities: Vec<Entity> = uni
            .users()
            .map(Entity::User)
            .chain(uni.roles().map(Entity::Role))
            .collect();
        for &e in &entities {
            assert_eq!(a.roles_reachable(e), b.roles_reachable(e), "{e:?}");
            for p in policy.priv_vertices() {
                assert_eq!(a.reach_priv(e, p), b.reach_priv(e, p), "{e:?} -> {p:?}");
            }
        }
        assert_eq!(
            a.role_closure().longest_chain_roles(),
            b.role_closure().longest_chain_roles()
        );
        assert_eq!(a.role_closure().scc_count(), b.role_closure().scc_count());
    }

    #[test]
    fn delta_chain_matches_rebuild_for_every_edge_kind() {
        let (mut uni, mut policy) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let prntusr = uni.find_role("prntusr").unwrap();
        let perm = uni.perm("audit", "t9");
        let p9 = uni.priv_perm(perm);
        let mut idx = ReachIndex::build(&uni, &policy);
        let script = [
            (Edge::UserRole(diana, dbusr1), true),
            (Edge::RolePriv(nurse, p9), true),
            (Edge::RoleRole(prntusr, dbusr2), true), // new RH edge, acyclic
            (Edge::UserRole(diana, staff), false),
            (Edge::RoleRole(staff, dbusr2), false), // RH removal, inter-SCC
            (Edge::RolePriv(nurse, p9), false),
        ];
        for (edge, added) in script {
            let before = policy.clone();
            let changed = if added {
                policy.add_edge(edge)
            } else {
                policy.remove_edge(edge)
            };
            assert!(changed, "script edges flip state: {edge:?}");
            let delta = [EdgeDelta { edge, added }];
            idx = idx
                .apply_delta(&uni, &before, &delta)
                .expect("acyclic deltas apply incrementally");
            assert_equiv(&uni, &policy, &idx, &ReachIndex::build(&uni, &policy));
        }
    }

    #[test]
    fn delta_falls_back_on_new_cycles_and_population_growth() {
        let (uni, policy) = figure1();
        let nurse = uni.find_role("nurse").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let idx = ReachIndex::build(&uni, &policy);
        // staff -> nurse exists; nurse -> staff closes a cycle.
        let mut cyclic = policy.clone();
        assert!(cyclic.add_edge(Edge::RoleRole(nurse, staff)));
        assert!(idx
            .apply_delta(
                &uni,
                &policy,
                &[EdgeDelta {
                    edge: Edge::RoleRole(nurse, staff),
                    added: true,
                }],
            )
            .is_none());
        // A universe that grew roles under the index also rebuilds.
        let mut grown = uni.clone();
        grown.role("intern");
        assert!(idx.apply_delta(&grown, &policy, &[]).is_none());
    }

    #[test]
    fn unknown_user_reaches_nothing() {
        let (mut uni, policy) = figure1();
        let ghost = uni.user("ghost");
        // The index was built before `ghost` existed in UA; a fresh index
        // still has no roles for them.
        let idx = ReachIndex::build(&uni, &policy);
        let nurse = uni.find_role("nurse").unwrap();
        assert!(!idx.reach_entity(ghost.into(), nurse.into()));
        assert!(idx.reach_entity(ghost.into(), ghost.into()));
    }
}
