//! Synthetic role hierarchies at controlled scale.
//!
//! The paper motivates itself with policies of “thousands of roles \[6\]”;
//! these generators produce such hierarchies deterministically from a
//! seed so every benchmark run sees identical inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use adminref_core::ids::RoleId;
use adminref_core::policy::Policy;
use adminref_core::universe::{Edge, Universe};

/// Parameters for a layered hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct LayeredSpec {
    /// Number of layers (the longest chain is at most this).
    pub layers: usize,
    /// Roles per layer.
    pub width: usize,
    /// Probability of an edge from a role to each role of the next layer.
    pub edge_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LayeredSpec {
    fn default() -> Self {
        LayeredSpec {
            layers: 4,
            width: 8,
            edge_prob: 0.3,
            seed: 0xADEE,
        }
    }
}

/// A generated hierarchy: universe, policy (RH edges only so far) and the
/// roles by layer (layer 0 is the senior-most).
#[derive(Debug)]
pub struct Hierarchy {
    /// The universe holding the role names (`l<layer>_r<index>`).
    pub universe: Universe,
    /// The policy with the generated `RH`.
    pub policy: Policy,
    /// Roles grouped by layer, senior-most first.
    pub layers: Vec<Vec<RoleId>>,
}

/// Generates a layered hierarchy. Every role gets at least one junior in
/// the next layer (besides the probabilistic edges), so chains span all
/// layers.
pub fn layered(spec: LayeredSpec) -> Hierarchy {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut universe = Universe::new();
    let mut layers: Vec<Vec<RoleId>> = Vec::with_capacity(spec.layers);
    for layer in 0..spec.layers {
        let mut row = Vec::with_capacity(spec.width);
        for i in 0..spec.width {
            row.push(universe.role(&format!("l{layer}_r{i}")));
        }
        layers.push(row);
    }
    let mut policy = Policy::new(&universe);
    for layer in 0..spec.layers.saturating_sub(1) {
        let (senior_row, junior_row) = (&layers[layer], &layers[layer + 1]);
        for &senior in senior_row {
            let mut connected = false;
            for &junior in junior_row {
                if rng.random_bool(spec.edge_prob) {
                    policy.add_edge(Edge::RoleRole(senior, junior));
                    connected = true;
                }
            }
            if !connected && !junior_row.is_empty() {
                let pick = junior_row[rng.random_range(0..junior_row.len())];
                policy.add_edge(Edge::RoleRole(senior, pick));
            }
        }
    }
    Hierarchy {
        universe,
        policy,
        layers,
    }
}

/// A single chain `r0 → r1 → … → r(n-1)` (longest chain = `n`).
pub fn chain(n: usize) -> Hierarchy {
    let mut universe = Universe::new();
    let roles: Vec<RoleId> = (0..n).map(|i| universe.role(&format!("c{i}"))).collect();
    let mut policy = Policy::new(&universe);
    for w in roles.windows(2) {
        policy.add_edge(Edge::RoleRole(w[0], w[1]));
    }
    Hierarchy {
        universe,
        policy,
        layers: roles.into_iter().map(|r| vec![r]).collect(),
    }
}

/// Adds `users` users, each explicitly assigned to `roles_per_user`
/// random roles. Returns the user ids.
pub fn populate_users(
    hierarchy: &mut Hierarchy,
    users: usize,
    roles_per_user: usize,
    seed: u64,
) -> Vec<adminref_core::ids::UserId> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55AA);
    let all_roles: Vec<RoleId> = hierarchy.layers.iter().flatten().copied().collect();
    let mut out = Vec::with_capacity(users);
    for i in 0..users {
        let u = hierarchy.universe.user(&format!("user{i}"));
        out.push(u);
        for _ in 0..roles_per_user {
            let r = all_roles[rng.random_range(0..all_roles.len())];
            hierarchy.policy.add_edge(Edge::UserRole(u, r));
        }
    }
    out
}

/// Gives each role `perms_per_role` user privileges over a pool of
/// `objects` objects.
pub fn populate_perms(hierarchy: &mut Hierarchy, perms_per_role: usize, objects: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
    let actions = ["read", "write", "exec", "print"];
    let all_roles: Vec<RoleId> = hierarchy.layers.iter().flatten().copied().collect();
    for &r in &all_roles {
        for _ in 0..perms_per_role {
            let action = actions[rng.random_range(0..actions.len())];
            let object = format!("obj{}", rng.random_range(0..objects.max(1)));
            let perm = hierarchy.universe.perm(action, &object);
            let p = hierarchy.universe.priv_perm(perm);
            hierarchy.policy.add_edge(Edge::RolePriv(r, p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::reach::ReachIndex;

    #[test]
    fn layered_is_deterministic() {
        let spec = LayeredSpec::default();
        let a = layered(spec);
        let b = layered(spec);
        let ea: Vec<_> = a.policy.edges().collect();
        let eb: Vec<_> = b.policy.edges().collect();
        assert_eq!(ea, eb, "same seed, same hierarchy");
        let c = layered(LayeredSpec { seed: 999, ..spec });
        let ec: Vec<_> = c.policy.edges().collect();
        assert_ne!(ea, ec, "different seed, different hierarchy");
    }

    #[test]
    fn layered_chains_span_all_layers() {
        let h = layered(LayeredSpec {
            layers: 5,
            width: 4,
            edge_prob: 0.2,
            seed: 7,
        });
        let idx = ReachIndex::build(&h.universe, &h.policy);
        assert_eq!(idx.role_closure().longest_chain_roles(), 5);
        // Every top-layer role reaches some bottom-layer role.
        for &top in &h.layers[0] {
            let reaches_bottom = h.layers[4]
                .iter()
                .any(|&bot| idx.role_closure().reaches(top.0, bot.0));
            assert!(reaches_bottom);
        }
    }

    #[test]
    fn chain_longest_chain() {
        let h = chain(10);
        let idx = ReachIndex::build(&h.universe, &h.policy);
        assert_eq!(idx.role_closure().longest_chain_roles(), 10);
    }

    #[test]
    fn populate_users_assigns_memberships() {
        let mut h = chain(5);
        let users = populate_users(&mut h, 10, 2, 1);
        assert_eq!(users.len(), 10);
        assert!(h.policy.ua_len() > 0);
        for &u in &users {
            assert!(h.policy.roles_of(u).count() >= 1);
        }
    }

    #[test]
    fn populate_perms_covers_roles() {
        let mut h = chain(4);
        populate_perms(&mut h, 3, 10, 2);
        for layer in &h.layers {
            for &r in layer {
                assert!(h.policy.privs_of(r).count() >= 1);
            }
        }
    }

    #[test]
    fn tiny_inputs_are_fine() {
        let h = chain(1);
        assert_eq!(h.policy.rh_len(), 0);
        let h2 = layered(LayeredSpec {
            layers: 1,
            width: 2,
            edge_prob: 0.5,
            seed: 0,
        });
        assert_eq!(h2.policy.rh_len(), 0);
    }
}
