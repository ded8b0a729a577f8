//! The fixed vocabulary `U, R, A, O` and the hash-consed privilege term
//! table for `P†`.
//!
//! Definition 2 (privilege grammar):
//!
//! ```text
//! p ::= q | ¤(u,r) | ♦(u,r) | ¤(r,r′) | ♦(r,r′) | ¤(r,p) | ♦(r,p)
//! ```
//!
//! where `q ∈ P` is a user privilege, `¤` is the *grant* connective (the
//! privilege to add an edge) and `♦` is the *revoke* connective (the
//! privilege to remove an edge). `P†` is infinite because the connectives
//! nest; the [`Universe`] interns exactly the finitely many terms a given
//! run ever touches, giving each a dense [`PrivId`] with structural equality
//! equal to id equality. All higher layers (ordering, refinement, the
//! monitor) compare and memoise on ids.
//!
//! The universe is **append-only**: ids are never invalidated, so policies
//! built against the same universe stay compatible as analyses intern new
//! terms (e.g. the weaker-privilege enumeration of §4.2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::ids::{ActionId, Entity, ObjectId, Perm, PrivId, RoleId, UserId};
use crate::interner::Interner;

/// A directed edge of the policy graph, and simultaneously the payload of a
/// grant/revoke privilege: `¤(v, v′)` is precisely “may add edge `(v, v′)`”.
///
/// The three well-formed edge shapes mirror Definition 1 (for `UA`, `RH`)
/// and Definition 3 (for `PA†`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Edge {
    /// `(u, r) ∈ UA` — user membership.
    UserRole(UserId, RoleId),
    /// `(r, r′) ∈ RH` — role hierarchy (senior `r` inherits junior `r′`).
    RoleRole(RoleId, RoleId),
    /// `(r, p) ∈ PA†` — role-to-privilege assignment.
    RolePriv(RoleId, PrivId),
}

impl Edge {
    /// The source vertex, always an entity (`U ∪ R`).
    pub fn source(self) -> Entity {
        match self {
            Edge::UserRole(u, _) => Entity::User(u),
            Edge::RoleRole(r, _) | Edge::RolePriv(r, _) => Entity::Role(r),
        }
    }

    /// The target as an [`EdgeTarget`] (entity or privilege term).
    pub fn target(self) -> EdgeTarget {
        match self {
            Edge::UserRole(_, r) | Edge::RoleRole(_, r) => EdgeTarget::Entity(Entity::Role(r)),
            Edge::RolePriv(_, p) => EdgeTarget::Priv(p),
        }
    }
}

/// The target of an edge: a role, or a privilege term.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeTarget {
    /// An entity target (always a role for well-formed edges).
    Entity(Entity),
    /// A privilege-term target.
    Priv(PrivId),
}

/// One interned privilege term (the view stored in the universe's table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PrivTerm {
    /// A user privilege `q ∈ P`.
    Perm(Perm),
    /// `¤(v, v′)` — may **add** the edge.
    Grant(Edge),
    /// `♦(v, v′)` — may **remove** the edge.
    Revoke(Edge),
}

impl PrivTerm {
    /// `true` for `¤`/`♦` terms, `false` for user privileges.
    pub fn is_administrative(self) -> bool {
        !matches!(self, PrivTerm::Perm(_))
    }

    /// The edge inside a grant/revoke, if any.
    pub fn edge(self) -> Option<Edge> {
        match self {
            PrivTerm::Grant(e) | PrivTerm::Revoke(e) => Some(e),
            PrivTerm::Perm(_) => None,
        }
    }
}

/// Tag identifying which [`Universe`] a policy was built against.
///
/// Mixing ids across universes is a logic error; the tag lets policy
/// operations `debug_assert` compatibility cheaply.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UniverseTag(u64);

impl UniverseTag {
    /// The raw tag value (for persistence layers).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a tag from its raw value (for persistence layers).
    pub fn from_raw(raw: u64) -> Self {
        UniverseTag(raw)
    }
}

/// An id a universe does not have: which id space it was looked up
/// in, the id, and how many entries that space holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfRange {
    /// The id space: `"user"`, `"role"`, `"term"`, `"action"` or
    /// `"object"`.
    pub what: &'static str,
    /// The offending raw id.
    pub id: u64,
    /// Number of interned entries in that space.
    pub max: usize,
}

fn in_range(what: &'static str, index: usize, max: usize) -> Result<(), OutOfRange> {
    if index < max {
        Ok(())
    } else {
        Err(OutOfRange {
            what,
            id: index as u64,
            max,
        })
    }
}

static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

/// Owns the fixed sets `U, R, A, O` and the privilege term table.
#[derive(Debug, Clone)]
pub struct Universe {
    tag: UniverseTag,
    users: Interner,
    roles: Interner,
    actions: Interner,
    objects: Interner,
    terms: Vec<PrivTerm>,
    /// Connective-nesting depth per term (user privileges have depth 0,
    /// `¤(u,r)` depth 1, `¤(r,¤(u,r))` depth 2, …). Example 6 and Remark 2
    /// reason about this quantity, so it is precomputed at intern time.
    depths: Vec<u32>,
    index: HashMap<PrivTerm, PrivId>,
}

impl Default for Universe {
    fn default() -> Self {
        Self::new()
    }
}

impl Universe {
    /// Creates an empty universe with a fresh tag.
    pub fn new() -> Self {
        Universe {
            tag: UniverseTag(NEXT_TAG.fetch_add(1, AtomicOrdering::Relaxed)),
            users: Interner::new(),
            roles: Interner::new(),
            actions: Interner::new(),
            objects: Interner::new(),
            terms: Vec::new(),
            depths: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// This universe's identity tag.
    pub fn tag(&self) -> UniverseTag {
        self.tag
    }

    /// Declares this universe id-compatible with the universe `tag` came
    /// from.
    ///
    /// Intended for persistence layers that reconstruct a universe
    /// deterministically (same names, same ids, same term table) — the
    /// recovered universe *is* the saved one, so policies built against
    /// either should interoperate. Adopting a tag for a universe that is
    /// not actually id-compatible defeats the debug-time mixup check.
    pub fn adopt_tag(&mut self, tag: UniverseTag) {
        self.tag = tag;
    }

    // ----- vocabulary -------------------------------------------------

    /// Interns a user name.
    pub fn user(&mut self, name: &str) -> UserId {
        UserId(self.users.intern(name))
    }

    /// Interns a role name.
    pub fn role(&mut self, name: &str) -> RoleId {
        RoleId(self.roles.intern(name))
    }

    /// Interns an action name.
    pub fn action(&mut self, name: &str) -> ActionId {
        ActionId(self.actions.intern(name))
    }

    /// Interns an object name.
    pub fn object(&mut self, name: &str) -> ObjectId {
        ObjectId(self.objects.intern(name))
    }

    /// Interns a user privilege `(action, object)` in one call.
    pub fn perm(&mut self, action: &str, object: &str) -> Perm {
        let a = self.action(action);
        let o = self.object(object);
        Perm::new(a, o)
    }

    /// Looks up a user by name without interning.
    pub fn find_user(&self, name: &str) -> Option<UserId> {
        self.users.get(name).map(UserId)
    }

    /// Looks up a role by name without interning.
    pub fn find_role(&self, name: &str) -> Option<RoleId> {
        self.roles.get(name).map(RoleId)
    }

    /// Name of a user.
    pub fn user_name(&self, u: UserId) -> &str {
        self.users.resolve(u.0)
    }

    /// Name of a role.
    pub fn role_name(&self, r: RoleId) -> &str {
        self.roles.resolve(r.0)
    }

    /// Name of an action.
    pub fn action_name(&self, a: ActionId) -> &str {
        self.actions.resolve(a.0)
    }

    /// Name of an object.
    pub fn object_name(&self, o: ObjectId) -> &str {
        self.objects.resolve(o.0)
    }

    /// Number of interned users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Number of interned roles.
    pub fn role_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of interned privilege terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Number of interned action names.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// Number of interned object names.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Is `u` one of this universe's users? This and the four checks
    /// after it are the bounds test for ids that crossed a trust
    /// boundary — off a socket, out of a file, from a caller's policy —
    /// to be made before anything indexes with them; the error names
    /// the first id this universe does not have.
    pub fn check_user(&self, u: UserId) -> Result<(), OutOfRange> {
        in_range("user", u.index(), self.user_count())
    }

    /// Is `r` one of this universe's roles?
    pub fn check_role(&self, r: RoleId) -> Result<(), OutOfRange> {
        in_range("role", r.index(), self.role_count())
    }

    /// Is `p` one of this universe's privilege terms?
    pub fn check_term(&self, p: PrivId) -> Result<(), OutOfRange> {
        in_range("term", p.index(), self.term_count())
    }

    /// Are the action and the object of `perm` interned here?
    pub fn check_perm(&self, perm: Perm) -> Result<(), OutOfRange> {
        in_range("action", perm.action.index(), self.action_count())?;
        in_range("object", perm.object.index(), self.object_count())
    }

    /// Do both ends of `edge` lie in this universe?
    pub fn check_edge(&self, edge: Edge) -> Result<(), OutOfRange> {
        match edge {
            Edge::UserRole(u, r) => self.check_user(u).and(self.check_role(r)),
            Edge::RoleRole(a, b) => self.check_role(a).and(self.check_role(b)),
            Edge::RolePriv(r, p) => self.check_role(r).and(self.check_term(p)),
        }
    }

    /// The sizes of every intern table, as one comparable stamp.
    /// Interning is append-only, so two universes descended from the
    /// same lineage are identical iff their stamps are equal — the
    /// cheap "did this batch grow the universe?" test the snapshot
    /// publisher uses to share one allocation across epochs.
    pub fn population_stamp(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.users.len(),
            self.roles.len(),
            self.actions.len(),
            self.objects.len(),
            self.terms.len(),
        )
    }

    /// Iterates all users.
    pub fn users(&self) -> impl Iterator<Item = UserId> {
        (0..self.users.len() as u32).map(UserId)
    }

    /// Iterates all roles.
    pub fn roles(&self) -> impl Iterator<Item = RoleId> {
        (0..self.roles.len() as u32).map(RoleId)
    }

    /// Iterates all interned privilege ids.
    pub fn priv_ids(&self) -> impl Iterator<Item = PrivId> {
        (0..self.terms.len() as u32).map(PrivId)
    }

    // ----- privilege terms ---------------------------------------------

    fn intern_term(&mut self, term: PrivTerm) -> PrivId {
        if let Some(&id) = self.index.get(&term) {
            return id;
        }
        let depth = match term {
            PrivTerm::Perm(_) => 0,
            PrivTerm::Grant(e) | PrivTerm::Revoke(e) => match e {
                Edge::UserRole(..) | Edge::RoleRole(..) => 1,
                Edge::RolePriv(_, p) => 1 + self.depths[p.index()],
            },
        };
        let id = PrivId(u32::try_from(self.terms.len()).expect("priv table overflow"));
        self.terms.push(term);
        self.depths.push(depth);
        self.index.insert(term, id);
        id
    }

    /// Interns a user privilege as a term (`q` in the grammar).
    pub fn priv_perm(&mut self, perm: Perm) -> PrivId {
        self.intern_term(PrivTerm::Perm(perm))
    }

    /// Interns `¤(v, v′)` for an arbitrary well-formed edge.
    pub fn priv_grant(&mut self, edge: Edge) -> PrivId {
        self.intern_term(PrivTerm::Grant(edge))
    }

    /// Interns `♦(v, v′)` for an arbitrary well-formed edge.
    pub fn priv_revoke(&mut self, edge: Edge) -> PrivId {
        self.intern_term(PrivTerm::Revoke(edge))
    }

    /// `¤(u, r)` — may add user `u` to role `r`.
    pub fn grant_user_role(&mut self, u: UserId, r: RoleId) -> PrivId {
        self.priv_grant(Edge::UserRole(u, r))
    }

    /// `¤(r, r′)` — may add the hierarchy edge `r → r′`.
    pub fn grant_role_role(&mut self, r: RoleId, r2: RoleId) -> PrivId {
        self.priv_grant(Edge::RoleRole(r, r2))
    }

    /// `¤(r, p)` — may assign privilege `p` to role `r`.
    pub fn grant_role_priv(&mut self, r: RoleId, p: PrivId) -> PrivId {
        self.priv_grant(Edge::RolePriv(r, p))
    }

    /// `♦(u, r)` — may remove user `u` from role `r`.
    pub fn revoke_user_role(&mut self, u: UserId, r: RoleId) -> PrivId {
        self.priv_revoke(Edge::UserRole(u, r))
    }

    /// `♦(r, r′)` — may remove the hierarchy edge `r → r′`.
    pub fn revoke_role_role(&mut self, r: RoleId, r2: RoleId) -> PrivId {
        self.priv_revoke(Edge::RoleRole(r, r2))
    }

    /// `♦(r, p)` — may revoke privilege `p` from role `r`.
    pub fn revoke_role_priv(&mut self, r: RoleId, p: PrivId) -> PrivId {
        self.priv_revoke(Edge::RolePriv(r, p))
    }

    /// The term behind an id.
    #[inline]
    pub fn term(&self, p: PrivId) -> PrivTerm {
        self.terms[p.index()]
    }

    /// Connective-nesting depth of a term (0 for user privileges).
    #[inline]
    pub fn depth(&self, p: PrivId) -> u32 {
        self.depths[p.index()]
    }

    /// Looks up a term without interning.
    pub fn find_term(&self, term: PrivTerm) -> Option<PrivId> {
        self.index.get(&term).copied()
    }

    /// All edges occurring anywhere inside `p`, including nested ones.
    ///
    /// Used to build the finite command alphabet for bounded refinement
    /// checking: exercising `¤(r, p)` can later expose the edges nested in
    /// `p`, so they all belong to the alphabet.
    pub fn edges_within(&self, p: PrivId) -> Vec<Edge> {
        let mut out = Vec::new();
        let mut stack = vec![p];
        while let Some(t) = stack.pop() {
            if let Some(edge) = self.term(t).edge() {
                out.push(edge);
                if let Edge::RolePriv(_, inner) = edge {
                    stack.push(inner);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_round_trips() {
        let mut uni = Universe::new();
        let d = uni.user("diana");
        let n = uni.role("nurse");
        assert_eq!(uni.user_name(d), "diana");
        assert_eq!(uni.role_name(n), "nurse");
        assert_eq!(uni.find_user("diana"), Some(d));
        assert_eq!(uni.find_role("doctor"), None);
    }

    #[test]
    fn terms_are_hash_consed() {
        let mut uni = Universe::new();
        let u = uni.user("bob");
        let r = uni.role("staff");
        let p1 = uni.grant_user_role(u, r);
        let p2 = uni.grant_user_role(u, r);
        assert_eq!(p1, p2, "identical terms share an id");
        let p3 = uni.revoke_user_role(u, r);
        assert_ne!(p1, p3, "grant and revoke of the same edge differ");
        assert_eq!(uni.term_count(), 2);
    }

    #[test]
    fn depth_counts_connective_nesting() {
        let mut uni = Universe::new();
        let perm = uni.perm("read", "t1");
        let q = uni.priv_perm(perm);
        assert_eq!(uni.depth(q), 0);
        let u = uni.user("bob");
        let staff = uni.role("staff");
        let g1 = uni.grant_user_role(u, staff); // ¤(bob, staff)
        assert_eq!(uni.depth(g1), 1);
        let g2 = uni.grant_role_priv(staff, g1); // ¤(staff, ¤(bob, staff))
        assert_eq!(uni.depth(g2), 2);
        let g3 = uni.grant_role_priv(staff, g2);
        assert_eq!(uni.depth(g3), 3);
    }

    #[test]
    fn nested_terms_share_subterms() {
        let mut uni = Universe::new();
        let u = uni.user("joe");
        let r = uni.role("nurse");
        let inner = uni.grant_user_role(u, r);
        let outer_a = uni.grant_role_priv(r, inner);
        let outer_b = uni.grant_role_priv(r, inner);
        assert_eq!(outer_a, outer_b);
        assert_eq!(uni.term_count(), 2);
    }

    #[test]
    fn edges_within_collects_nested() {
        let mut uni = Universe::new();
        let u = uni.user("bob");
        let staff = uni.role("staff");
        let hr = uni.role("hr");
        let inner = uni.grant_user_role(u, staff);
        let outer = uni.grant_role_priv(hr, inner);
        let edges = uni.edges_within(outer);
        assert!(edges.contains(&Edge::RolePriv(hr, inner)));
        assert!(edges.contains(&Edge::UserRole(u, staff)));
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn tags_distinguish_universes() {
        let a = Universe::new();
        let b = Universe::new();
        assert_ne!(a.tag(), b.tag());
    }

    #[test]
    fn edge_source_and_target() {
        let mut uni = Universe::new();
        let u = uni.user("u");
        let r = uni.role("r");
        let s = uni.role("s");
        let perm = uni.perm("a", "o");
        let q = uni.priv_perm(perm);
        assert_eq!(Edge::UserRole(u, r).source(), Entity::User(u));
        assert_eq!(
            Edge::RoleRole(r, s).target(),
            EdgeTarget::Entity(Entity::Role(s))
        );
        assert_eq!(Edge::RolePriv(r, q).target(), EdgeTarget::Priv(q));
        assert_eq!(Edge::RolePriv(r, q).source(), Entity::Role(r));
    }

    #[test]
    fn administrative_predicate() {
        let mut uni = Universe::new();
        let perm = uni.perm("print", "colorA4");
        let q = uni.priv_perm(perm);
        let u = uni.user("u");
        let r = uni.role("r");
        let g = uni.grant_user_role(u, r);
        assert!(!uni.term(q).is_administrative());
        assert!(uni.term(g).is_administrative());
        assert_eq!(uni.term(q).edge(), None);
        assert_eq!(uni.term(g).edge(), Some(Edge::UserRole(u, r)));
    }
}
