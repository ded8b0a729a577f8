//! Reachability `v →φ v′` over the policy graph.
//!
//! The paper reads a policy as the digraph `UA ∪ RH ∪ PA†` and writes
//! `v →φ v′` when a (possibly empty) path exists — reachability is
//! reflexive (Example 5 silently uses `bob →φ bob`). Two implementations
//! are provided:
//!
//! * [`reaches`] — an allocation-light on-the-fly BFS, right for the tiny,
//!   rapidly-mutating policies inside the bounded refinement search;
//! * [`ReachIndex`] — a bitset closure over the role hierarchy with a
//!   dense per-privilege holder table, right for repeated queries against
//!   a fixed policy (ordering decisions, the monitor, benchmarks).
//!
//! Both agree everywhere; a property test in this module checks that.

use std::collections::BTreeMap;
use std::ops::Range;
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
/// Build cost is `O(|R|²/64 + |E|)`, plus one pass over the privilege ids
/// up to the largest held one; the holder table is two flat buffers
/// whatever the vertex count. Queries are `O(1)` for role/role,
/// `O(roles_of(u))` for user sources, and `O(holders(p))` for privilege
/// targets, whose holder row is an array read.
#[derive(Debug, Clone)]
pub struct ReachIndex {
    closure: RoleClosure,
    /// Direct role memberships per user (dense by user id). The outer
    /// `Arc` makes cloning free for batches without membership deltas;
    /// when one does copy the table, the inner `Arc`s still share every
    /// untouched user's row across epochs.
    user_roles: Arc<Vec<Arc<Vec<RoleId>>>>,
    /// Roles directly holding each privilege vertex, shared across epochs
    /// until a batch changes `PA†`.
    holders: Arc<HolderTable>,
    role_count: usize,
}

/// The holders of every privilege vertex in compressed sparse rows,
/// indexed by [`PrivId`]: row `p` is `roles[start[p]..start[p + 1]]`,
/// ascending. The table ends at the largest held id; an id past it (a
/// term never held, or interned after the table was laid out) reads as
/// an empty row.
#[derive(Debug, Clone)]
struct HolderTable {
    /// `rows + 1` offsets into `roles`, starting at 0.
    start: Vec<u32>,
    roles: Vec<RoleId>,
}

impl HolderTable {
    /// Lays out the holders of `policy`'s `PA†`: one pass finds the
    /// largest held id, one counts the row sizes and one fills the rows.
    /// `PA†` iterates in role order, so every row comes out sorted.
    fn build(policy: &Policy) -> Self {
        let rows = policy.pa().map(|(_, p)| p.index() + 1).max().unwrap_or(0);
        // Row `p`'s size is counted at `start[p + 2]`; the prefix sums
        // then leave its first slot at `start[p + 1]`, which the fill
        // advances to the row's end — that is, to row `p + 1`'s start.
        let mut start = vec![0u32; rows + 2];
        for (_, p) in policy.pa() {
            start[p.index() + 2] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut roles = vec![RoleId(0); start[rows + 1] as usize];
        for (r, p) in policy.pa() {
            let slot = &mut start[p.index() + 1];
            roles[*slot as usize] = r;
            *slot += 1;
        }
        start.pop();
        HolderTable { start, roles }
    }

    fn rows(&self) -> usize {
        self.start.len() - 1
    }

    fn row(&self, p: PrivId) -> &[RoleId] {
        match self.start.get(p.index()..p.index() + 2) {
            Some(&[from, to]) => &self.roles[from as usize..to as usize],
            _ => &[],
        }
    }

    /// This table with the rows in `changed` replaced, laid out again in
    /// one pass: the untouched rows between two changed ones are copied
    /// as one block.
    fn with_rows(&self, changed: &BTreeMap<PrivId, Vec<RoleId>>) -> Self {
        let rows = changed
            .keys()
            .next_back()
            .map_or(0, |p| p.index() + 1)
            .max(self.rows());
        let mut out = HolderTable {
            start: Vec::with_capacity(rows + 1),
            roles: Vec::with_capacity(self.roles.len() + changed.len()),
        };
        out.start.push(0);
        let mut next = 0;
        for (&p, row) in changed {
            out.copy_rows(self, next..p.index());
            out.roles.extend_from_slice(row);
            out.start.push(offset(out.roles.len()));
            next = p.index() + 1;
        }
        out.copy_rows(self, next..rows);
        // End at the largest held id, as `build` does.
        while out.start.len() > 1 && out.start[out.start.len() - 2] == out.roles.len() as u32 {
            out.start.pop();
        }
        out
    }

    /// Appends `from`'s rows `range` (empty past its end).
    fn copy_rows(&mut self, from: &HolderTable, range: Range<usize>) {
        let end = range.end.min(from.rows());
        if range.start < end {
            let (first, base) = (from.start[range.start], offset(self.roles.len()));
            self.roles
                .extend_from_slice(&from.roles[first as usize..from.start[end] as usize]);
            self.start.extend(
                from.start[range.start + 1..=end]
                    .iter()
                    .map(|&s| s - first + base),
            );
        }
        let empty = offset(self.roles.len());
        let len = self.start.len() + range.end - end.max(range.start);
        self.start.resize(len, empty);
    }
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("holder table overflow")
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
        ReachIndex {
            closure,
            user_roles: Arc::new(user_roles.into_iter().map(Arc::new).collect()),
            holders: Arc::new(HolderTable::build(policy)),
            role_count,
        }
    }

    /// Derives the index of a *child* policy from this one by applying
    /// the batch's edge deltas, sharing every untouched row with the
    /// parent. Returns `None` when the batch needs a from-scratch
    /// [`build`](Self::build), for one of four reasons: the universe's
    /// role/user population grew under the index, a delta disagrees with
    /// the index (an addition of a present edge or a removal of an absent
    /// one), an RH addition closed a new cycle (SCC merge), or an RH
    /// removal hit an edge inside an SCC (possible split).
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
        // The batch's RH deltas so far, net: edge → present after them.
        // A removal's successors are `policy_before`'s juniors under it.
        let mut rh_after: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        // The holder rows the batch's PA deltas touch, each copied from
        // the table on first touch; the table is laid out again once.
        let mut holder_rows: BTreeMap<PrivId, Vec<RoleId>> = BTreeMap::new();
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
                (Edge::RolePriv(r, p), added) => {
                    let row = holder_rows
                        .entry(p)
                        .or_insert_with(|| self.holders.row(p).to_vec());
                    match (row.binary_search(&r), added) {
                        (Err(at), true) => row.insert(at, r),
                        (Ok(at), false) => {
                            row.remove(at);
                        }
                        _ => return None,
                    }
                }
                (Edge::RoleRole(a, b), added) => {
                    let present = rh_after.get(&(a.0, b.0)).copied();
                    if present.unwrap_or_else(|| policy_before.contains_edge(delta.edge)) == added {
                        return None;
                    }
                    rh_after.insert((a.0, b.0), added);
                    let outcome = if added {
                        next.closure.add_edge_incremental(a.0, b.0)
                    } else {
                        let rh_after = &rh_after;
                        next.closure.remove_edge_incremental(a.0, b.0, |v| {
                            let kept = policy_before
                                .juniors_of(RoleId(v))
                                .map(|w| w.0)
                                .filter(move |&w| !rh_after.contains_key(&(v, w)));
                            let added = rh_after.range((v, 0)..=(v, u32::MAX));
                            kept.chain(added.filter(|(_, &on)| on).map(|(&(_, w), _)| w))
                        })
                    };
                    if outcome == ClosureDelta::Rebuild {
                        return None;
                    }
                }
            }
        }
        if !holder_rows.is_empty() {
            next.holders = Arc::new(self.holders.with_rows(&holder_rows));
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
        self.holders_of(p)
            .iter()
            .any(|&h| self.reach_entity(from, h.into()))
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

    /// Every role some user reaches: the union of all users' role rows.
    pub fn roles_reached_by_users(&self) -> BitSet {
        let mut out = BitSet::new(self.role_count);
        for r in self.user_roles.iter().flat_map(|row| row.iter()) {
            out.union_with(self.closure.row(r.0));
        }
        out
    }

    /// The roles directly holding the vertex `p`, ascending (empty when
    /// no role does).
    pub fn holders_of(&self, p: PrivId) -> &[RoleId] {
        self.holders.row(p)
    }

    /// The privilege vertices some role holds, ascending — the order of
    /// [`Policy::priv_vertices`].
    pub fn priv_vertices(&self) -> impl Iterator<Item = PrivId> + '_ {
        self.holders
            .start
            .windows(2)
            .enumerate()
            .filter(|(_, row)| row[0] < row[1])
            .map(|(p, _)| PrivId::from_index(p))
    }

    /// `true` iff a role of `roles` directly holds the vertex `p`.
    pub fn held_within(&self, roles: &BitSet, p: PrivId) -> bool {
        self.holders_of(p).iter().any(|h| roles.contains(h.index()))
    }

    /// Every user privilege (perm) reachable from `e` — the authorization
    /// row used by the non-administrative refinement check (Definition 6).
    pub fn perms_reachable(&self, universe: &Universe, policy: &Policy, e: Entity) -> Vec<Perm> {
        let roles = self.roles_reachable(e);
        let mut out: Vec<Perm> = policy
            .pa()
            .filter(|(r, _)| roles.contains(r.index()))
            .filter_map(|(_, p)| match universe.term(p) {
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
        // The held vertices, ascending, built or derived.
        let vertices: Vec<PrivId> = policy.priv_vertices().into_iter().collect();
        assert_eq!(a.priv_vertices().collect::<Vec<_>>(), vertices);
        assert_eq!(b.priv_vertices().collect::<Vec<_>>(), vertices);
        // Holder lists are the policy's holders, ascending, built or derived.
        for p in policy.priv_vertices() {
            let holders: Vec<RoleId> = policy
                .pa()
                .filter(|&(_, q)| q == p)
                .map(|(r, _)| r)
                .collect();
            assert_eq!(a.holders_of(p), holders.as_slice(), "{p:?}");
            assert_eq!(b.holders_of(p), holders.as_slice(), "{p:?}");
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

    /// Applies `batch` to `policy` and to `idx` as one delta batch, and
    /// checks the derived index against a fresh build.
    fn apply_batch(
        uni: &Universe,
        policy: &mut Policy,
        idx: &ReachIndex,
        batch: &[(Edge, bool)],
    ) -> ReachIndex {
        let before = policy.clone();
        let mut deltas = Vec::new();
        for &(edge, added) in batch {
            let changed = if added {
                policy.add_edge(edge)
            } else {
                policy.remove_edge(edge)
            };
            assert!(changed, "batch edges flip state: {edge:?}");
            deltas.push(EdgeDelta { edge, added });
        }
        let next = idx
            .apply_delta(uni, &before, &deltas)
            .expect("acyclic deltas apply incrementally");
        assert_equiv(uni, policy, &next, &ReachIndex::build(uni, policy));
        next
    }

    #[test]
    fn never_held_and_later_interned_terms_read_as_empty_rows() {
        let (mut uni, mut policy) = figure1();
        let nurse = uni.find_role("nurse").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let idx = ReachIndex::build(&uni, &policy);
        let diana = uni.find_user("diana").unwrap();
        let unheld = uni.grant_user_role(diana, nurse);
        assert!(idx.holders_of(unheld).is_empty());
        assert!(!idx.reach_priv(Entity::Role(staff), unheld));
        assert!(idx.priv_vertices().all(|p| p != unheld));
        // A term interned after the build lies past the table.
        let later = uni.perm("audit", "t9");
        let later = uni.priv_perm(later);
        assert!(idx.holders_of(later).is_empty());
        let next = apply_batch(
            &uni,
            &mut policy,
            &idx,
            &[(Edge::RolePriv(nurse, later), true)],
        );
        assert_eq!(next.holders_of(later), &[nurse]);
        assert!(next.reach_priv(Entity::User(diana), later));
        // The parent's table is untouched.
        assert!(idx.holders_of(later).is_empty());
    }

    #[test]
    fn pa_batches_empty_rows_and_revisit_vertices() {
        let (mut uni, mut policy) = figure1();
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let prntusr = uni.find_role("prntusr").unwrap();
        let black = uni.perm("prnt", "black");
        let black = uni.priv_perm(black);
        let color = uni.perm("prnt", "color");
        let color = uni.priv_perm(color);
        let idx = ReachIndex::build(&uni, &policy);
        // A removal that empties a row, at the table's end or inside it.
        let emptied = apply_batch(
            &uni,
            &mut policy,
            &idx,
            &[(Edge::RolePriv(prntusr, black), false)],
        );
        assert!(emptied.holders_of(black).is_empty());
        let emptied = apply_batch(
            &uni,
            &mut policy,
            &emptied,
            &[(Edge::RolePriv(staff, color), false)],
        );
        assert!(emptied.holders_of(color).is_empty());
        // Add, remove and add again on one vertex in one batch.
        let again = apply_batch(
            &uni,
            &mut policy,
            &emptied,
            &[
                (Edge::RolePriv(dbusr2, black), true),
                (Edge::RolePriv(dbusr2, black), false),
                (Edge::RolePriv(dbusr2, black), true),
                (Edge::RolePriv(nurse, black), true),
            ],
        );
        let mut holders = vec![nurse, dbusr2];
        holders.sort();
        assert_eq!(again.holders_of(black), holders.as_slice());
        // A holder delta that disagrees with its row asks for a rebuild.
        for added in [true, false] {
            let edge = Edge::RolePriv(if added { nurse } else { staff }, black);
            assert!(again
                .apply_delta(&uni, &policy, &[EdgeDelta { edge, added }])
                .is_none());
        }
        // One batch that mixes membership, hierarchy and holder deltas.
        apply_batch(
            &uni,
            &mut policy,
            &again,
            &[
                (Edge::UserRole(diana, dbusr1), true),
                (Edge::RolePriv(dbusr1, color), true),
                (Edge::RoleRole(prntusr, dbusr2), true),
                (Edge::RolePriv(nurse, black), false),
                (Edge::UserRole(diana, staff), false),
                (Edge::RoleRole(staff, dbusr2), false),
                (Edge::RolePriv(staff, color), true),
            ],
        );
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
    fn long_chain_removal_stays_incremental() {
        // Removing the last edge of a 40-role chain shrinks 39 rows, past
        // any cap a fraction of the SCC count would set.
        let mut builder = PolicyBuilder::new();
        for i in 0..39 {
            builder = builder.inherit(&format!("r{i}"), &format!("r{}", i + 1));
        }
        let (uni, before) = builder.finish();
        let role = |i: usize| uni.find_role(&format!("r{i}")).unwrap();
        let rh = |a: usize, b: usize| Edge::RoleRole(role(a), role(b));
        let idx = ReachIndex::build(&uni, &before);
        let last = [EdgeDelta {
            edge: rh(38, 39),
            added: false,
        }];
        let mut after = before.clone();
        assert!(after.remove_edge(rh(38, 39)));
        let next = idx
            .apply_delta(&uni, &before, &last)
            .expect("a removal between SCCs stays incremental");
        assert_equiv(&uni, &after, &next, &ReachIndex::build(&uni, &after));
        assert_eq!(next.role_closure().longest_chain_roles(), 39);
        // A later removal in the same batch sees the batch's own earlier
        // hierarchy deltas.
        let batch = [
            last[0],
            EdgeDelta {
                edge: rh(10, 39),
                added: true,
            },
            EdgeDelta {
                edge: rh(20, 21),
                added: false,
            },
        ];
        assert!(after.add_edge(rh(10, 39)));
        assert!(after.remove_edge(rh(20, 21)));
        let next = idx
            .apply_delta(&uni, &before, &batch)
            .expect("every delta stays incremental");
        assert_equiv(&uni, &after, &next, &ReachIndex::build(&uni, &after));
        assert!(
            next.reach_entity(role(0).into(), role(39).into()),
            "via 10 -> 39"
        );
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
