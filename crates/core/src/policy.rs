//! Administrative RBAC policies (Definitions 1 and 3).
//!
//! A policy `φ = (UA, RH, PA†)` is kept as three ordered edge sets over
//! dense ids; following the paper we treat it as the directed graph
//! `UA ∪ RH ∪ PA†`. Ordered sets (`BTreeSet`) give deterministic iteration,
//! cheap structural hashing (the bounded refinement checker memoises on
//! whole policies) and `O(log n)` mutation, which is the access pattern of
//! the transition system.
//!
//! Each relation lives behind an [`Arc`], so `Policy::clone` is three
//! reference-count bumps — the epoch publisher snapshots the live policy
//! per batch, and a deep copy per publication was the dominant fixed
//! cost of small batches. Mutation goes through [`Arc::make_mut`]:
//! uniquely-owned policies (the writer's live copy, search states)
//! mutate in place for free, while a policy that shares structure with
//! a published snapshot copies **only the relation the batch touches**
//! (a membership-churn batch never copies `RH` or `PA†`).

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::ids::{Node, Perm, PrivId, RoleId, UserId};
use crate::universe::{Edge, PrivTerm, Universe, UniverseTag};

/// An administrative RBAC policy `φ = (UA, RH, PA†)`.
///
/// Non-administrative policies (Definition 1) are the special case where
/// every assigned privilege is a user privilege; see
/// [`Policy::is_non_administrative`].
///
/// Equality and hashing are structural (edge sets only): a policy
/// recovered from disk compares equal to the live policy it was saved
/// from even though the recovered universe carries a fresh
/// [`UniverseTag`]. The tag is a debug aid for catching cross-universe id
/// mixups, not part of policy identity.
#[derive(Clone, Debug)]
pub struct Policy {
    tag: UniverseTag,
    ua: Arc<BTreeSet<(UserId, RoleId)>>,
    rh: Arc<BTreeSet<(RoleId, RoleId)>>,
    pa: Arc<BTreeSet<(RoleId, PrivId)>>,
}

impl PartialEq for Policy {
    fn eq(&self, other: &Self) -> bool {
        // Snapshots and their writers share relations until one of them
        // mutates, so pointer equality settles most comparisons without
        // walking the trees.
        (Arc::ptr_eq(&self.ua, &other.ua) || self.ua == other.ua)
            && (Arc::ptr_eq(&self.rh, &other.rh) || self.rh == other.rh)
            && (Arc::ptr_eq(&self.pa, &other.pa) || self.pa == other.pa)
    }
}

impl Eq for Policy {}

impl std::hash::Hash for Policy {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ua.hash(state);
        self.rh.hash(state);
        self.pa.hash(state);
    }
}

impl Policy {
    /// Creates an empty policy bound to `universe`.
    pub fn new(universe: &Universe) -> Self {
        Policy {
            tag: universe.tag(),
            ua: Arc::new(BTreeSet::new()),
            rh: Arc::new(BTreeSet::new()),
            pa: Arc::new(BTreeSet::new()),
        }
    }

    /// Tag of the universe this policy's ids belong to.
    pub fn universe_tag(&self) -> UniverseTag {
        self.tag
    }

    /// `true` iff every id this policy's edges mention is interned in
    /// `universe` — the non-panicking containment check for policies
    /// that cross a trust boundary. [`check_universe`](Self::check_universe)
    /// only compares tags, which clones preserve (and only in debug
    /// builds), so a policy built on a client-extended clone of a
    /// universe carries the right tag but out-of-range ids; indexing
    /// with those panics. Servers must check this before building
    /// indexes over a caller-supplied policy.
    pub fn ids_in_bounds(&self, universe: &Universe) -> bool {
        self.edges().all(|edge| universe.check_edge(edge).is_ok())
    }

    /// Asserts (in debug builds) that `universe` is the one this policy was
    /// built against.
    #[inline]
    pub fn check_universe(&self, universe: &Universe) {
        debug_assert_eq!(
            self.tag,
            universe.tag(),
            "policy used with a foreign universe"
        );
    }

    // ----- mutation (the `φ ∪ (v,v′)` / `φ \ (v,v′)` of Definition 5) ----

    /// Adds an edge; returns `true` if the policy changed. Copy-on-write:
    /// only the touched relation is copied, and only when shared.
    pub fn add_edge(&mut self, edge: Edge) -> bool {
        match edge {
            Edge::UserRole(u, r) => {
                if self.ua.contains(&(u, r)) {
                    return false;
                }
                Arc::make_mut(&mut self.ua).insert((u, r))
            }
            Edge::RoleRole(r, s) => {
                if self.rh.contains(&(r, s)) {
                    return false;
                }
                Arc::make_mut(&mut self.rh).insert((r, s))
            }
            Edge::RolePriv(r, p) => {
                if self.pa.contains(&(r, p)) {
                    return false;
                }
                Arc::make_mut(&mut self.pa).insert((r, p))
            }
        }
    }

    /// Removes an edge; returns `true` if the policy changed. Copy-on-write
    /// like [`add_edge`](Self::add_edge); removing an absent edge copies
    /// nothing.
    pub fn remove_edge(&mut self, edge: Edge) -> bool {
        match edge {
            Edge::UserRole(u, r) => {
                if !self.ua.contains(&(u, r)) {
                    return false;
                }
                Arc::make_mut(&mut self.ua).remove(&(u, r))
            }
            Edge::RoleRole(r, s) => {
                if !self.rh.contains(&(r, s)) {
                    return false;
                }
                Arc::make_mut(&mut self.rh).remove(&(r, s))
            }
            Edge::RolePriv(r, p) => {
                if !self.pa.contains(&(r, p)) {
                    return false;
                }
                Arc::make_mut(&mut self.pa).remove(&(r, p))
            }
        }
    }

    /// Membership test for a single edge.
    pub fn contains_edge(&self, edge: Edge) -> bool {
        match edge {
            Edge::UserRole(u, r) => self.ua.contains(&(u, r)),
            Edge::RoleRole(r, s) => self.rh.contains(&(r, s)),
            Edge::RolePriv(r, p) => self.pa.contains(&(r, p)),
        }
    }

    // ----- access -------------------------------------------------------

    /// Iterates the user-assignment relation `UA`.
    pub fn ua(&self) -> impl Iterator<Item = (UserId, RoleId)> + '_ {
        self.ua.iter().copied()
    }

    /// Iterates the role hierarchy `RH`.
    pub fn rh(&self) -> impl Iterator<Item = (RoleId, RoleId)> + '_ {
        self.rh.iter().copied()
    }

    /// Iterates the privilege-assignment relation `PA†`.
    pub fn pa(&self) -> impl Iterator<Item = (RoleId, PrivId)> + '_ {
        self.pa.iter().copied()
    }

    /// Iterates every edge of the policy graph.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.ua
            .iter()
            .map(|&(u, r)| Edge::UserRole(u, r))
            .chain(self.rh.iter().map(|&(r, s)| Edge::RoleRole(r, s)))
            .chain(self.pa.iter().map(|&(r, p)| Edge::RolePriv(r, p)))
    }

    /// `true` iff every edge of this policy is an edge of `other`. A
    /// relation `other` shares (the same [`Arc`]) is skipped; the others
    /// are compared in order by [`BTreeSet::is_subset`].
    pub fn is_subset_of(&self, other: &Policy) -> bool {
        fn subset<T: Ord>(a: &Arc<BTreeSet<T>>, b: &Arc<BTreeSet<T>>) -> bool {
            Arc::ptr_eq(a, b) || a.is_subset(b)
        }
        subset(&self.ua, &other.ua) && subset(&self.rh, &other.rh) && subset(&self.pa, &other.pa)
    }

    /// The edges of this policy that `other` lacks, in
    /// [`edges`](Self::edges) order. A relation `other` shares is
    /// skipped; the others are walked in order by
    /// [`BTreeSet::difference`].
    pub fn edges_not_in<'a>(&'a self, other: &'a Policy) -> impl Iterator<Item = Edge> + 'a {
        fn minus<'a, T: Ord>(
            a: &'a Arc<BTreeSet<T>>,
            b: &'a Arc<BTreeSet<T>>,
        ) -> impl Iterator<Item = &'a T> + 'a {
            (!Arc::ptr_eq(a, b))
                .then(|| a.difference(b))
                .into_iter()
                .flatten()
        }
        minus(&self.ua, &other.ua)
            .map(|&(u, r)| Edge::UserRole(u, r))
            .chain(minus(&self.rh, &other.rh).map(|&(r, s)| Edge::RoleRole(r, s)))
            .chain(minus(&self.pa, &other.pa).map(|&(r, p)| Edge::RolePriv(r, p)))
    }

    /// Roles a user is directly assigned to.
    pub fn roles_of(&self, u: UserId) -> impl Iterator<Item = RoleId> + '_ {
        self.ua
            .range((u, RoleId(0))..=(u, RoleId(u32::MAX)))
            .map(|&(_, r)| r)
    }

    /// Direct juniors of a role in `RH`.
    pub fn juniors_of(&self, r: RoleId) -> impl Iterator<Item = RoleId> + '_ {
        self.rh
            .range((r, RoleId(0))..=(r, RoleId(u32::MAX)))
            .map(|&(_, s)| s)
    }

    /// Privileges directly assigned to a role.
    pub fn privs_of(&self, r: RoleId) -> impl Iterator<Item = PrivId> + '_ {
        self.pa
            .range((r, PrivId(0))..=(r, PrivId(u32::MAX)))
            .map(|&(_, p)| p)
    }

    /// The distinct privilege terms appearing as `PA†` targets — the
    /// privilege *vertices* of the policy graph.
    pub fn priv_vertices(&self) -> BTreeSet<PrivId> {
        self.pa.iter().map(|&(_, p)| p).collect()
    }

    /// Users mentioned in `UA`.
    pub fn users_mentioned(&self) -> BTreeSet<UserId> {
        self.ua.iter().map(|&(u, _)| u).collect()
    }

    /// Roles mentioned anywhere in the policy (either side of `RH`, targets
    /// of `UA`, sources of `PA†`).
    pub fn roles_mentioned(&self) -> BTreeSet<RoleId> {
        let mut out: BTreeSet<RoleId> = BTreeSet::new();
        out.extend(self.ua.iter().map(|&(_, r)| r));
        for &(r, s) in self.rh.iter() {
            out.insert(r);
            out.insert(s);
        }
        out.extend(self.pa.iter().map(|&(r, _)| r));
        out
    }

    /// Number of edges `|UA| + |RH| + |PA†|`.
    pub fn edge_count(&self) -> usize {
        self.ua.len() + self.rh.len() + self.pa.len()
    }

    /// `|UA|`.
    pub fn ua_len(&self) -> usize {
        self.ua.len()
    }

    /// `|RH|`.
    pub fn rh_len(&self) -> usize {
        self.rh.len()
    }

    /// `|PA†|`.
    pub fn pa_len(&self) -> usize {
        self.pa.len()
    }

    /// `true` iff the policy is non-administrative (Definition 1): every
    /// assigned privilege is a plain user privilege.
    pub fn is_non_administrative(&self, universe: &Universe) -> bool {
        self.check_universe(universe);
        self.pa
            .iter()
            .all(|&(_, p)| !universe.term(p).is_administrative())
    }

    /// Direct successors of a node in the policy graph (privilege vertices
    /// are sinks).
    pub fn successors(&self, node: Node) -> Vec<Node> {
        match node {
            Node::User(u) => self.roles_of(u).map(Node::Role).collect(),
            Node::Role(r) => {
                let mut out: Vec<Node> = self.juniors_of(r).map(Node::Role).collect();
                out.extend(self.privs_of(r).map(Node::Priv));
                out
            }
            Node::Priv(_) => Vec::new(),
        }
    }

    /// User privileges (perms) directly assigned to `r`, resolved through
    /// the universe.
    pub fn perms_of<'u>(
        &'u self,
        universe: &'u Universe,
        r: RoleId,
    ) -> impl Iterator<Item = Perm> + 'u {
        self.privs_of(r).filter_map(move |p| {
            if let PrivTerm::Perm(q) = universe.term(p) {
                Some(q)
            } else {
                None
            }
        })
    }
}

/// Fluent construction of a universe-plus-policy pair.
///
/// ```
/// use adminref_core::policy::PolicyBuilder;
///
/// let (uni, policy) = PolicyBuilder::new()
///     .assign("diana", "nurse")
///     .assign("diana", "staff")
///     .inherit("staff", "nurse")
///     .permit("nurse", "read", "t1")
///     .finish();
/// let diana = uni.find_user("diana").unwrap();
/// assert_eq!(policy.roles_of(diana).count(), 2);
/// ```
#[derive(Debug)]
pub struct PolicyBuilder {
    universe: Universe,
    policy: Policy,
}

impl Default for PolicyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyBuilder {
    /// Starts with a fresh universe and an empty policy.
    pub fn new() -> Self {
        let universe = Universe::new();
        let policy = Policy::new(&universe);
        PolicyBuilder { universe, policy }
    }

    /// `UA` edge: makes `user` a member of `role` (both interned by name).
    pub fn assign(mut self, user: &str, role: &str) -> Self {
        let u = self.universe.user(user);
        let r = self.universe.role(role);
        self.policy.add_edge(Edge::UserRole(u, r));
        self
    }

    /// `RH` edge: `senior` inherits `junior`.
    pub fn inherit(mut self, senior: &str, junior: &str) -> Self {
        let s = self.universe.role(senior);
        let j = self.universe.role(junior);
        self.policy.add_edge(Edge::RoleRole(s, j));
        self
    }

    /// `PA` edge: gives `role` the user privilege `(action, object)`.
    pub fn permit(mut self, role: &str, action: &str, object: &str) -> Self {
        let r = self.universe.role(role);
        let perm = self.universe.perm(action, object);
        let p = self.universe.priv_perm(perm);
        self.policy.add_edge(Edge::RolePriv(r, p));
        self
    }

    /// `PA†` edge: assigns an already-interned privilege term to `role`.
    ///
    /// Use this (together with [`PolicyBuilder::universe_mut`]) for nested
    /// administrative privileges.
    pub fn assign_priv(mut self, role: &str, p: PrivId) -> Self {
        let r = self.universe.role(role);
        self.policy.add_edge(Edge::RolePriv(r, p));
        self
    }

    /// Mutable access to the universe, for interning privilege terms.
    pub fn universe_mut(&mut self) -> &mut Universe {
        &mut self.universe
    }

    /// Declares a user without assigning it (useful for command actors that
    /// hold no roles yet, like `bob` before Jane acts in Example 4).
    pub fn declare_user(mut self, user: &str) -> Self {
        self.universe.user(user);
        self
    }

    /// Declares a role without edges.
    pub fn declare_role(mut self, role: &str) -> Self {
        self.universe.role(role);
        self
    }

    /// Finishes, returning the universe and the policy.
    pub fn finish(self) -> (Universe, Policy) {
        (self.universe, self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Universe, Policy) {
        PolicyBuilder::new()
            .assign("diana", "nurse")
            .assign("diana", "staff")
            .inherit("staff", "nurse")
            .inherit("nurse", "dbusr1")
            .permit("dbusr1", "read", "t1")
            .finish()
    }

    #[test]
    fn set_semantics_of_add_remove() {
        let (uni, mut policy) = small();
        let u = uni.find_user("diana").unwrap();
        let r = uni.find_role("nurse").unwrap();
        let e = Edge::UserRole(u, r);
        assert!(policy.contains_edge(e));
        assert!(!policy.add_edge(e), "re-adding an edge is a no-op");
        assert!(policy.remove_edge(e));
        assert!(!policy.remove_edge(e), "re-removing is a no-op");
        assert!(!policy.contains_edge(e));
    }

    #[test]
    fn iterators_partition_edges() {
        let (_, policy) = small();
        assert_eq!(policy.ua_len(), 2);
        assert_eq!(policy.rh_len(), 2);
        assert_eq!(policy.pa_len(), 1);
        assert_eq!(policy.edges().count(), policy.edge_count());
    }

    #[test]
    fn roles_of_uses_range_scan() {
        let (uni, policy) = small();
        let diana = uni.find_user("diana").unwrap();
        let mut roles: Vec<&str> = policy.roles_of(diana).map(|r| uni.role_name(r)).collect();
        roles.sort_unstable();
        assert_eq!(roles, vec!["nurse", "staff"]);
    }

    #[test]
    fn non_administrative_detection() {
        let (mut uni, mut policy) = small();
        assert!(policy.is_non_administrative(&uni));
        let bob = uni.user("bob");
        let staff = uni.find_role("staff").unwrap();
        let g = uni.grant_user_role(bob, staff);
        let hr = uni.role("hr");
        policy.add_edge(Edge::RolePriv(hr, g));
        assert!(!policy.is_non_administrative(&uni));
    }

    #[test]
    fn priv_vertices_are_pa_targets() {
        let (mut uni, mut policy) = small();
        let bob = uni.user("bob");
        let staff = uni.find_role("staff").unwrap();
        let g = uni.grant_user_role(bob, staff);
        let hr = uni.role("hr");
        policy.add_edge(Edge::RolePriv(hr, g));
        let verts = policy.priv_vertices();
        assert!(verts.contains(&g));
        assert_eq!(verts.len(), 2); // the perm and the grant
    }

    #[test]
    fn successors_of_each_node_kind() {
        let (uni, policy) = small();
        let diana = uni.find_user("diana").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        assert_eq!(policy.successors(Node::User(diana)).len(), 2);
        assert_eq!(policy.successors(Node::Role(staff)).len(), 1);
        // dbusr1 has one privilege and no juniors
        let succ = policy.successors(Node::Role(dbusr1));
        assert_eq!(succ.len(), 1);
        assert!(matches!(succ[0], Node::Priv(_)));
        assert!(policy.successors(succ[0]).is_empty(), "privs are sinks");
    }

    #[test]
    fn policies_hash_structurally() {
        use std::collections::HashSet;
        let (uni, policy) = small();
        let mut other = policy.clone();
        let mut set = HashSet::new();
        set.insert(policy.clone());
        assert!(set.contains(&other));
        let diana = uni.find_user("diana").unwrap();
        let staff = uni.find_role("staff").unwrap();
        other.remove_edge(Edge::UserRole(diana, staff));
        assert!(!set.contains(&other));
    }

    #[test]
    fn clones_share_until_mutated() {
        let (uni, policy) = small();
        let mut writer = policy.clone();
        assert_eq!(writer, policy);
        let diana = uni.find_user("diana").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        // Mutating the clone copies only the touched relation; the
        // original keeps its view of every relation.
        assert!(writer.remove_edge(Edge::UserRole(diana, nurse)));
        assert!(policy.contains_edge(Edge::UserRole(diana, nurse)));
        assert!(!writer.contains_edge(Edge::UserRole(diana, nurse)));
        assert_eq!(writer.rh_len(), policy.rh_len());
        assert_eq!(writer.pa_len(), policy.pa_len());
        // No-op mutations never copy (and report no change).
        let mut reader = policy.clone();
        assert!(!reader.add_edge(Edge::UserRole(diana, nurse)));
        assert!(!reader.remove_edge(Edge::UserRole(diana, RoleId(999))));
        assert_eq!(reader, policy);
    }

    #[test]
    fn mentioned_sets() {
        let (uni, policy) = small();
        assert_eq!(policy.users_mentioned().len(), 1);
        let roles = policy.roles_mentioned();
        for name in ["nurse", "staff", "dbusr1"] {
            assert!(roles.contains(&uni.find_role(name).unwrap()));
        }
    }

    #[test]
    fn perms_of_skips_admin_privs() {
        let (mut uni, mut policy) = small();
        let bob = uni.user("bob");
        let dbusr1 = uni.find_role("dbusr1").unwrap();
        let g = uni.grant_user_role(bob, dbusr1);
        policy.add_edge(Edge::RolePriv(dbusr1, g));
        let perms: Vec<Perm> = policy.perms_of(&uni, dbusr1).collect();
        assert_eq!(perms.len(), 1, "only the (read, t1) perm counts");
    }
}
