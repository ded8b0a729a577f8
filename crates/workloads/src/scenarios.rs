//! Named analysis scenarios: policies shaped to stress specific parts
//! of the toolkit rather than to match a statistical profile.
//!
//! [`deep_delegation`] builds a *delegation chain*: an administrator can
//! place workers into stage 0, members of stage `i` can place workers
//! into stage `i + 1`, and only the last stage carries the sensitive
//! permission. Reaching the permission therefore needs a witness of
//! exactly `depth` commands, and the intermediate policies — one per
//! subset of grantable memberships whose prerequisites are met — grow
//! combinatorially with `fanout`. That makes the scenario the canonical
//! stress test for the compact state arena of `adminref_core::search`:
//! clone-based state sets blow up in memory long before the bitset
//! arena does.

//! [`churn`] builds the mixed read/write monitor workload: a sized
//! hierarchy, a population of reader sessions (each a user with an
//! activatable role and a perm to probe), and a stream of pregenerated
//! administrative command batches for a concurrent writer. The monitor
//! and service differential tests and `adminref verify --oracle-churn`
//! replay it.
//!
//! [`write_storm`] builds the write-path stress: per-writer
//! grant/revoke *toggle* streams over disjoint edges of one sized
//! policy, where — unlike `churn`'s mixed stream, which converges to
//! no-ops — **every** command is authorized and changes the policy, so
//! every command forces the full write cost (WAL, `ReachIndex` update,
//! epoch publication). It is the input of the benchmark's `wire_write`
//! workload.

use adminref_core::ids::{Entity, Perm, RoleId, UserId};
use adminref_core::policy::Policy;
use adminref_core::reach::ReachIndex;
use adminref_core::universe::{Edge, PrivTerm, Universe};

use crate::admin::{inject_admin_privs, AdminSpec};
use crate::hierarchy::{layered, populate_perms, populate_users, LayeredSpec};
use crate::queues::{generate_queue, QueueSpec};

/// Shape of a [`deep_delegation`] scenario.
#[derive(Clone, Copy, Debug)]
pub struct DelegationSpec {
    /// Number of delegation stages (witness length to the permission).
    pub depth: usize,
    /// Workers each stage may delegate to.
    pub fanout: usize,
}

impl Default for DelegationSpec {
    fn default() -> Self {
        DelegationSpec {
            depth: 4,
            fanout: 3,
        }
    }
}

/// A generated delegation-chain workload.
#[derive(Debug)]
pub struct DelegationWorkload {
    /// The universe.
    pub universe: Universe,
    /// The policy.
    pub policy: Policy,
    /// The administrator seeded into the `admins` role.
    pub admin: UserId,
    /// The delegation stages, entry stage first.
    pub stages: Vec<RoleId>,
    /// The delegatable workers.
    pub workers: Vec<UserId>,
    /// The permission held only by the last stage.
    pub vault_perm: Perm,
}

/// Builds a deep-delegation policy (deterministic by construction).
///
/// * `admins` holds `¤(w, stage_0)` for every worker `w`;
/// * `stage_i` holds `¤(w, stage_{i+1})` for every worker;
/// * only `stage_{depth-1}` holds `(open, vault)`.
///
/// `perm_reachable(worker, (open, vault))` is reachable with a witness
/// of exactly `depth` commands; the reachable policy count is
/// exponential in `fanout · depth`.
pub fn deep_delegation(spec: DelegationSpec) -> DelegationWorkload {
    assert!(spec.depth >= 1, "need at least one stage");
    assert!(spec.fanout >= 1, "need at least one worker");
    let mut universe = Universe::new();
    let admin = universe.user("admin0");
    let admins = universe.role("admins");
    let stages: Vec<RoleId> = (0..spec.depth)
        .map(|i| universe.role(&format!("stage{i}")))
        .collect();
    let workers: Vec<UserId> = (0..spec.fanout)
        .map(|j| universe.user(&format!("worker{j}")))
        .collect();
    let mut policy = Policy::new(&universe);
    policy.add_edge(Edge::UserRole(admin, admins));
    for &w in &workers {
        let p = universe.grant_user_role(w, stages[0]);
        policy.add_edge(Edge::RolePriv(admins, p));
    }
    for i in 0..spec.depth - 1 {
        for &w in &workers {
            let p = universe.grant_user_role(w, stages[i + 1]);
            policy.add_edge(Edge::RolePriv(stages[i], p));
        }
    }
    let vault_perm = universe.perm("open", "vault");
    let vault = universe.priv_perm(vault_perm);
    policy.add_edge(Edge::RolePriv(stages[spec.depth - 1], vault));
    DelegationWorkload {
        universe,
        policy,
        admin,
        stages,
        workers,
        vault_perm,
    }
}

/// Shape of a [`grow_only`] scenario.
#[derive(Clone, Copy, Debug)]
pub struct GrowOnlySpec {
    /// Roles in the wide inheritance chain.
    pub width: usize,
    /// Users the administrators may place anywhere in the chain.
    pub users: usize,
}

impl Default for GrowOnlySpec {
    fn default() -> Self {
        GrowOnlySpec {
            width: 32,
            users: 4,
        }
    }
}

/// A generated grow-only (monotone) workload.
#[derive(Debug)]
pub struct GrowOnlyWorkload {
    /// The universe.
    pub universe: Universe,
    /// The policy.
    pub policy: Policy,
    /// The administrator seeded into the `admins` role.
    pub admin: UserId,
    /// The placeable members.
    pub members: Vec<UserId>,
    /// The inheritance chain, senior first.
    pub tier: Vec<RoleId>,
    /// A permission held by the most junior role (reachable for every
    /// member in one grant).
    pub goal_perm: Perm,
    /// An interned permission no role ever holds (unreachable — but only
    /// an unbounded engine can say so).
    pub absent_perm: Perm,
}

/// Builds a **grow-only** wide-universe workload: `admins` holds
/// `¤(u, r)` for every member × chain role, no revoke privilege exists
/// anywhere, and the chain funnels every role into the junior role
/// holding [`GrowOnlyWorkload::goal_perm`].
///
/// The reachable-policy count is `2^(users · width)` — hopeless for any
/// bounded search on an [`GrowOnlyWorkload::absent_perm`] query — while
/// the instance is monotone by construction, so the saturation engine
/// answers both queries definitively in a couple of fixpoint rounds.
/// This is the canonical fixture for the "grow-only is never `Unknown`,
/// regardless of `max_states`" guarantee.
pub fn grow_only(spec: GrowOnlySpec) -> GrowOnlyWorkload {
    assert!(spec.width >= 1, "need at least one role");
    assert!(spec.users >= 1, "need at least one member");
    let mut universe = Universe::new();
    let admin = universe.user("admin0");
    let admins = universe.role("admins");
    let tier: Vec<RoleId> = (0..spec.width)
        .map(|i| universe.role(&format!("tier{i}")))
        .collect();
    let members: Vec<UserId> = (0..spec.users)
        .map(|j| universe.user(&format!("member{j}")))
        .collect();
    let mut policy = Policy::new(&universe);
    policy.add_edge(Edge::UserRole(admin, admins));
    for w in tier.windows(2) {
        policy.add_edge(Edge::RoleRole(w[0], w[1]));
    }
    for &u in &members {
        for &r in &tier {
            let p = universe.grant_user_role(u, r);
            policy.add_edge(Edge::RolePriv(admins, p));
        }
    }
    let goal_perm = universe.perm("open", "vault");
    let goal = universe.priv_perm(goal_perm);
    policy.add_edge(Edge::RolePriv(tier[spec.width - 1], goal));
    let absent_perm = universe.perm("launch", "missiles");
    universe.priv_perm(absent_perm); // interned, never assigned
    GrowOnlyWorkload {
        universe,
        policy,
        admin,
        members,
        tier,
        goal_perm,
        absent_perm,
    }
}

/// Shape of a [`cone`] scenario.
#[derive(Clone, Copy, Debug)]
pub struct ConeSpec {
    /// Independent delegation departments (only department 0 reaches
    /// the goal permission).
    pub departments: usize,
    /// Delegation stages per department (witness length to the goal).
    pub depth: usize,
    /// Workers each stage may delegate to.
    pub fanout: usize,
}

impl Default for ConeSpec {
    fn default() -> Self {
        ConeSpec {
            departments: 6,
            depth: 3,
            fanout: 2,
        }
    }
}

/// A generated cone workload.
#[derive(Debug)]
pub struct ConeWorkload {
    /// The universe.
    pub universe: Universe,
    /// The policy.
    pub policy: Policy,
    /// The administrator seeded into the `admins` role.
    pub admin: UserId,
    /// Per-department delegation stages, entry stage first.
    pub departments: Vec<Vec<RoleId>>,
    /// The delegatable workers (shared across departments).
    pub workers: Vec<UserId>,
    /// The permission held only by department 0's last stage.
    pub goal_perm: Perm,
}

/// Builds the **cone** workload: `departments` structurally identical
/// delegation chains (each shaped like [`deep_delegation`]) sharing one
/// administrator and worker pool, where only department 0's last stage
/// holds the goal permission.
///
/// The goal's cone of influence is exactly department 0's chain —
/// `1/departments` of the command alphabet — so this is the canonical
/// fixture for goal-directed alphabet slicing
/// (`adminref_core::lint::slice_alphabet`): the unsliced bounded search
/// explores grant combinations across every department, the sliced one
/// only department 0's. With the default shape the sliced search visits
/// orders of magnitude fewer states for the same (identical) answer.
pub fn cone(spec: ConeSpec) -> ConeWorkload {
    assert!(spec.departments >= 1, "need at least one department");
    assert!(spec.depth >= 1, "need at least one stage");
    assert!(spec.fanout >= 1, "need at least one worker");
    let mut universe = Universe::new();
    let admin = universe.user("admin0");
    let admins = universe.role("admins");
    let departments: Vec<Vec<RoleId>> = (0..spec.departments)
        .map(|d| {
            (0..spec.depth)
                .map(|i| universe.role(&format!("dept{d}_stage{i}")))
                .collect()
        })
        .collect();
    let workers: Vec<UserId> = (0..spec.fanout)
        .map(|j| universe.user(&format!("worker{j}")))
        .collect();
    let mut policy = Policy::new(&universe);
    policy.add_edge(Edge::UserRole(admin, admins));
    for stages in &departments {
        for &w in &workers {
            let p = universe.grant_user_role(w, stages[0]);
            policy.add_edge(Edge::RolePriv(admins, p));
        }
        for i in 0..spec.depth - 1 {
            for &w in &workers {
                let p = universe.grant_user_role(w, stages[i + 1]);
                policy.add_edge(Edge::RolePriv(stages[i], p));
            }
        }
    }
    let goal_perm = universe.perm("open", "vault");
    let goal = universe.priv_perm(goal_perm);
    policy.add_edge(Edge::RolePriv(departments[0][spec.depth - 1], goal));
    ConeWorkload {
        universe,
        policy,
        admin,
        departments,
        workers,
        goal_perm,
    }
}

/// A generated lint-bait workload: see [`seeded_defects`].
#[derive(Debug)]
pub struct SeededDefectsWorkload {
    /// The universe.
    pub universe: Universe,
    /// The policy, seeded with one instance of each defect class.
    pub policy: Policy,
    /// The separation-of-duty pair a user violates via a grantable edge.
    pub sod_pair: (RoleId, RoleId),
}

/// Builds a policy with one deliberate instance of every lint defect
/// class (`adminref_core::lint`):
///
/// * a **dead grant** — `hr` re-grants an edge already in the root that
///   nothing can remove;
/// * a **dead revoke** — `hr` revokes an edge that is never present
///   (also a *dead non-monotone island*);
/// * an **unauthorizable** nested rule — a grant reachable only through
///   a revoke term, which the may-add closure never assigns;
/// * a **shadowed grant** — `sec` can strip `hr`'s working grant rule;
/// * a **redundant grant** — `senior` directly holds a permission it
///   already inherits from `junior`;
/// * a **separation-of-duty conflict** — both flavors: `admins` can
///   place a payment clerk into the audit role (*potential*), and one
///   user already holds both roles of the pair in the root policy
///   (*confirmed*, severity Error) —
///   see [`SeededDefectsWorkload::sod_pair`].
///
/// The linted report over this policy must flag all six classes; clean
/// scenarios ([`grow_only`], [`deep_delegation`], [`cone`]) must stay
/// finding-free. Both directions are CI-gated.
pub fn seeded_defects() -> SeededDefectsWorkload {
    let mut universe = Universe::new();
    let admin = universe.user("admin0");
    let admins = universe.role("admins");
    let hr = universe.role("hr");
    let sec = universe.role("sec");
    let jane = universe.user("jane");
    let mike = universe.user("mike");
    let bob = universe.user("bob");
    let staff = universe.role("staff");
    let temps = universe.role("temps");
    let aud = universe.role("aud");
    let senior = universe.role("senior");
    let junior = universe.role("junior");
    let pay = universe.role("pay");
    let audit = universe.role("audit");
    let clerk = universe.user("clerk");

    let mut policy = Policy::new(&universe);
    policy.add_edge(Edge::UserRole(admin, admins));
    policy.add_edge(Edge::UserRole(jane, hr));
    policy.add_edge(Edge::UserRole(mike, sec));
    policy.add_edge(Edge::UserRole(bob, staff));

    // Dead grant: (bob, staff) is a root edge and nothing revokes it.
    let dead_grant = universe.grant_user_role(bob, staff);
    policy.add_edge(Edge::RolePriv(hr, dead_grant));
    // Dead revoke (and dead island): (bob, temps) is never present.
    let dead_revoke = universe.revoke_user_role(bob, temps);
    policy.add_edge(Edge::RolePriv(hr, dead_revoke));
    // Unauthorizable nested rule: the inner grant sits inside a revoke
    // term, so no reachable policy ever assigns it.
    let nested = universe.grant_user_role(bob, aud);
    let outer = universe.priv_revoke(Edge::RolePriv(aud, nested));
    policy.add_edge(Edge::RolePriv(hr, outer));
    // Shadowed grant: hr's working grant rule, strippable by sec.
    let working = universe.grant_user_role(jane, temps);
    policy.add_edge(Edge::RolePriv(hr, working));
    let strip = universe.priv_revoke(Edge::RolePriv(hr, working));
    policy.add_edge(Edge::RolePriv(sec, strip));
    // Redundant grant: senior inherits (read, logs) from junior yet
    // also holds it directly.
    policy.add_edge(Edge::RoleRole(senior, junior));
    let read_logs = universe.perm("read", "logs");
    let read_logs_priv = universe.priv_perm(read_logs);
    policy.add_edge(Edge::RolePriv(junior, read_logs_priv));
    policy.add_edge(Edge::RolePriv(senior, read_logs_priv));
    // Potential SoD conflict: the clerk is in pay, and admins can add
    // them to audit.
    policy.add_edge(Edge::UserRole(clerk, pay));
    let cross = universe.grant_user_role(clerk, audit);
    policy.add_edge(Edge::RolePriv(admins, cross));
    // Confirmed SoD conflict: mike holds both roles of the pair in the
    // root policy itself (severity Error, unlike the clerk's Warning).
    policy.add_edge(Edge::UserRole(mike, pay));
    policy.add_edge(Edge::UserRole(mike, audit));

    SeededDefectsWorkload {
        universe,
        policy,
        sod_pair: (pay, audit),
    }
}

/// Shape of a [`churn`] scenario.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Approximate role count of the layered hierarchy.
    pub roles: usize,
    /// Reader sessions to prepare (users cycling over the population).
    pub readers: usize,
    /// Commands per pregenerated writer batch.
    pub batch_len: usize,
    /// Number of pregenerated batches (cycled by long-running writers).
    pub batches: usize,
    /// Fraction of writer commands drawn from exercisable privileges.
    pub valid_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            roles: 256,
            readers: 16,
            batch_len: 32,
            batches: 8,
            valid_ratio: 0.7,
            seed: 0xC0FFEE,
        }
    }
}

/// One prepared reader session: `user` activates `role` (their
/// largest-closure assignment — the senior-role sessions that make
/// access checks expensive) and alternates probing `perm_hit`
/// (reachable at the initial policy) and `perm_miss` (a real interned
/// perm the role does *not* reach — the denial path, which forces a
/// naive checker to exhaust the whole closure before answering).
#[derive(Clone, Copy, Debug)]
pub struct ChurnReader {
    /// The session's user (assigned to `role` in the initial policy).
    pub user: UserId,
    /// The role the session activates.
    pub role: RoleId,
    /// A perm reachable from `role` at the initial policy.
    pub perm_hit: Perm,
    /// A perm not reachable from `role` at the initial policy.
    pub perm_miss: Perm,
}

/// A generated mixed read/write monitor workload.
#[derive(Debug)]
pub struct ChurnWorkload {
    /// The universe.
    pub universe: Universe,
    /// The initial policy.
    pub policy: Policy,
    /// Prepared reader sessions.
    pub readers: Vec<ChurnReader>,
    /// Pregenerated admin batches for the writer to cycle through.
    pub batches: Vec<Vec<adminref_core::command::Command>>,
}

/// Builds a churn workload: deterministic in `spec` (same spec, same
/// policy, same batches), sized like the bench harness's layered
/// policies.
pub fn churn(spec: ChurnSpec) -> ChurnWorkload {
    assert!(spec.readers >= 1, "need at least one reader");
    let layers = 4;
    let width = spec.roles.div_ceil(layers).max(1);
    let mut h = layered(LayeredSpec {
        layers,
        width,
        edge_prob: (8.0 / width as f64).min(1.0),
        seed: spec.seed,
    });
    let users = populate_users(&mut h, (spec.roles / 8).max(4), 2, spec.seed);
    populate_perms(&mut h, 2, spec.roles.max(8), spec.seed);
    let all_roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
    inject_admin_privs(
        &mut h.universe,
        &mut h.policy,
        &users,
        &all_roles,
        AdminSpec {
            count: (spec.roles / 4).max(8),
            max_depth: 2,
            grant_ratio: 0.8,
            seed: spec.seed,
        },
    );
    // Reader profiles: each user activates their largest-closure role
    // (senior sessions are the expensive ones) and probes one reachable
    // and one unreachable perm — the deepest hit and the first miss in
    // PA edge order, both deterministic.
    let reach = ReachIndex::build(&h.universe, &h.policy);
    let fallback = h.universe.perm("read", "obj0");
    let mut readers = Vec::with_capacity(spec.readers);
    for i in 0..spec.readers {
        let user = users[i % users.len()];
        let role = h
            .policy
            .roles_of(user)
            .max_by_key(|&r| reach.roles_reachable(Entity::Role(r)).count())
            .unwrap_or_else(|| all_roles[i % all_roles.len()]);
        let mut perm_hit = None;
        let mut perm_miss = None;
        for (holder, p) in h.policy.pa() {
            let PrivTerm::Perm(q) = h.universe.term(p) else {
                continue;
            };
            if reach.reach_entity(Entity::Role(role), Entity::Role(holder)) {
                perm_hit = Some(q); // keep the last (deepest-listed) hit
            } else if perm_miss.is_none() && !reach.reach_priv(Entity::Role(role), p) {
                perm_miss = Some(q);
            }
        }
        readers.push(ChurnReader {
            user,
            role,
            perm_hit: perm_hit.unwrap_or(fallback),
            perm_miss: perm_miss.unwrap_or(fallback),
        });
    }
    let batches = (0..spec.batches)
        .map(|b| {
            generate_queue(
                &h.universe,
                &h.policy,
                &users,
                &all_roles,
                QueueSpec {
                    len: spec.batch_len,
                    valid_ratio: spec.valid_ratio,
                    seed: spec.seed.wrapping_add(b as u64).wrapping_mul(0x9E37_79B9),
                },
            )
            .iter()
            .copied()
            .collect()
        })
        .collect();
    ChurnWorkload {
        universe: h.universe,
        policy: h.policy,
        readers,
        batches,
    }
}

/// Shape of a [`write_storm`] scenario.
#[derive(Clone, Copy, Debug)]
pub struct WriteStormSpec {
    /// Approximate role count of the layered hierarchy.
    pub roles: usize,
    /// Number of independent writer streams (disjoint toggled edges).
    pub writers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WriteStormSpec {
    fn default() -> Self {
        WriteStormSpec {
            roles: 128,
            writers: 4,
            seed: 0x57_04_11,
        }
    }
}

/// A generated write-storm workload.
#[derive(Debug)]
pub struct WriteStormWorkload {
    /// The universe.
    pub universe: Universe,
    /// The initial policy (no toggled edge present, so every stream
    /// starts with an effective grant).
    pub policy: Policy,
    /// The administrator authorized for every toggle.
    pub admin: UserId,
    /// One `[grant, revoke]` toggle pair per writer, over that writer's
    /// own `(user, role)` edge; cycling a stream keeps every command
    /// authorized *and* policy-changing regardless of how streams
    /// interleave, because the edges are disjoint.
    pub streams: Vec<Vec<adminref_core::command::Command>>,
}

/// Builds a write-storm workload (deterministic in `spec`): a sized
/// layered hierarchy plus one dedicated `(user, role)` toggle edge per
/// writer, all grantable/revocable by a single `storm_ops`
/// administrator.
pub fn write_storm(spec: WriteStormSpec) -> WriteStormWorkload {
    use adminref_core::command::Command;
    assert!(spec.writers >= 1, "need at least one writer");
    let layers = 4;
    let width = spec.roles.div_ceil(layers).max(1);
    let mut h = layered(LayeredSpec {
        layers,
        width,
        edge_prob: (8.0 / width as f64).min(1.0),
        seed: spec.seed,
    });
    populate_users(&mut h, (spec.roles / 8).max(4), 2, spec.seed);
    populate_perms(&mut h, 2, spec.roles.max(8), spec.seed);
    let all_roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
    let admin = h.universe.user("storm_admin");
    let ops = h.universe.role("storm_ops");
    h.policy.add_edge(Edge::UserRole(admin, ops));
    let streams = (0..spec.writers)
        .map(|i| {
            let user = h.universe.user(&format!("storm_user{i}"));
            let role = all_roles[(spec.seed as usize).wrapping_add(i * 7) % all_roles.len()];
            let edge = Edge::UserRole(user, role);
            let grant = h.universe.grant_user_role(user, role);
            let revoke = h.universe.revoke_user_role(user, role);
            h.policy.add_edge(Edge::RolePriv(ops, grant));
            h.policy.add_edge(Edge::RolePriv(ops, revoke));
            vec![Command::grant(admin, edge), Command::revoke(admin, edge)]
        })
        .collect();
    WriteStormWorkload {
        universe: h.universe,
        policy: h.policy,
        admin,
        streams,
    }
}

/// Shape of a [`wide_universe_trickle`] scenario.
#[derive(Clone, Copy, Debug)]
pub struct TrickleSpec {
    /// Approximate role count of the layered hierarchy ("thousands of
    /// roles" is the point: the from-scratch read-index rebuild is
    /// `O(|R|²/64 + |E|)`, so width is what the incremental publisher
    /// amortizes away).
    pub roles: usize,
    /// Users populating the initial policy.
    pub users: usize,
    /// Distinct toggle edges the admin cycles (each toggled by its own
    /// single-command batch).
    pub toggles: usize,
    /// Fraction (per mille) of toggles that are RH edges rather than UA
    /// memberships — role-edge deltas exercise the closure fan-out and
    /// the targeted removal recompute, membership deltas the row-only
    /// path.
    pub rh_toggle_per_mille: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrickleSpec {
    fn default() -> Self {
        TrickleSpec {
            roles: 2048,
            users: 256,
            toggles: 256,
            rh_toggle_per_mille: 250,
            seed: 0x71C_C7E,
        }
    }
}

/// A generated wide-universe trickle workload.
#[derive(Debug)]
pub struct TrickleWorkload {
    /// The universe.
    pub universe: Universe,
    /// The initial policy (no toggle edge present).
    pub policy: Policy,
    /// The administrator authorized for every toggle.
    pub admin: UserId,
    /// Single-command batches: one full round of grants over every
    /// toggle edge, then one full round of revokes — cycling the list
    /// keeps every command authorized *and* policy-changing, forever.
    pub batches: Vec<Vec<adminref_core::command::Command>>,
}

/// Builds the wide-universe trickle workload (deterministic in `spec`):
/// a thousands-of-roles layered hierarchy whose write traffic is a
/// stream of **single-edge batches** — the worst case for a publisher
/// that re-derives the whole read index per batch, and the showcase for
/// delta-maintained publication (the benchmark's `admission_trickle`
/// workload and `tests/snapshot_delta.rs` both run it).
///
/// UA toggles flip a dedicated `(trickle_user, role)` membership; RH
/// toggles flip an extra cross-layer role edge that always points to a
/// strictly deeper layer, so additions never create a cycle and both
/// incremental closure paths (add fan-out, targeted removal recompute)
/// are exercised without rebuild fallbacks.
pub fn wide_universe_trickle(spec: TrickleSpec) -> TrickleWorkload {
    use adminref_core::command::Command;
    assert!(spec.roles >= 8, "need a real hierarchy");
    assert!(spec.toggles >= 1, "need at least one toggle edge");
    let layers = 4;
    let width = spec.roles.div_ceil(layers).max(1);
    let mut h = layered(LayeredSpec {
        layers,
        width,
        edge_prob: (8.0 / width as f64).min(1.0),
        seed: spec.seed,
    });
    populate_users(&mut h, spec.users.max(1), 2, spec.seed);
    populate_perms(&mut h, 1, spec.roles.max(8), spec.seed);
    let all_roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
    let admin = h.universe.user("trickle_admin");
    let ops = h.universe.role("trickle_ops");
    h.policy.add_edge(Edge::UserRole(admin, ops));
    let mut mix = spec.seed | 1;
    let mut next = move || {
        // xorshift64*: cheap, deterministic, dependency-free.
        mix ^= mix << 13;
        mix ^= mix >> 7;
        mix ^= mix << 17;
        mix
    };
    let mut grants = Vec::with_capacity(spec.toggles);
    let mut revokes = Vec::with_capacity(spec.toggles);
    let mut chosen_rh: std::collections::BTreeSet<(RoleId, RoleId)> =
        std::collections::BTreeSet::new();
    for i in 0..spec.toggles {
        let rh_edge = ((next() % 1000) as usize) < spec.rh_toggle_per_mille;
        let edge = if rh_edge {
            // Source strictly above target layer: adding can never
            // close a cycle in a layered DAG. Linear-probe past edges
            // already present (or already chosen) so every toggle
            // starts absent and stays distinct.
            let mut probe = next() as usize;
            loop {
                let src_layer = probe % (layers - 1);
                let dst_layer = src_layer + 1 + (probe / 7) % (layers - 1 - src_layer);
                let src = h.layers[src_layer][probe % h.layers[src_layer].len()];
                let dst = h.layers[dst_layer][(probe / 3) % h.layers[dst_layer].len()];
                let candidate = Edge::RoleRole(src, dst);
                if !h.policy.contains_edge(candidate) && chosen_rh.insert((src, dst)) {
                    break candidate;
                }
                probe = probe.wrapping_add(1);
            }
        } else {
            let user = h.universe.user(&format!("trickle_user{i}"));
            let role = all_roles[next() as usize % all_roles.len()];
            Edge::UserRole(user, role)
        };
        let grant = h.universe.priv_grant(edge);
        let revoke = h.universe.priv_revoke(edge);
        h.policy.add_edge(Edge::RolePriv(ops, grant));
        h.policy.add_edge(Edge::RolePriv(ops, revoke));
        grants.push(vec![Command::grant(admin, edge)]);
        revokes.push(vec![Command::revoke(admin, edge)]);
    }
    let batches = grants.into_iter().chain(revokes).collect();
    TrickleWorkload {
        universe: h.universe,
        policy: h.policy,
        admin,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::ids::Entity;
    use adminref_core::reach::ReachIndex;
    use adminref_core::safety::{perm_reachable, ReachabilityAnswer, SafetyConfig};
    use adminref_core::transition::{run_pure, AuthMode};

    #[test]
    fn vault_needs_exactly_depth_steps() {
        let mut w = deep_delegation(DelegationSpec {
            depth: 3,
            fanout: 2,
        });
        let worker = w.workers[0];
        let config = SafetyConfig {
            max_steps: 3,
            max_states: 100_000,
            ..SafetyConfig::default()
        };
        let answer = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(worker),
            w.vault_perm,
            config,
        );
        let ReachabilityAnswer::Reachable { witness } = answer else {
            panic!("expected reachable");
        };
        assert_eq!(witness.len(), 3, "{witness:?}");
        // The witness replays: the worker really opens the vault.
        let final_policy = run_pure(&mut w.universe, &w.policy, &witness, AuthMode::Explicit);
        let target = w.universe.priv_perm(w.vault_perm);
        assert!(
            ReachIndex::build(&w.universe, &final_policy).reach_priv(Entity::User(worker), target)
        );
        // One step short: the raw bounded search is genuinely cut off,
        // not refuted…
        let short = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(worker),
            w.vault_perm,
            SafetyConfig {
                max_steps: 2,
                escalate: false,
                ..config
            },
        );
        assert!(
            matches!(short, ReachabilityAnswer::Unknown { .. }),
            "{short:?}"
        );
        // …but the workload is grow-only, so escalation (the default)
        // still finds a replayable plan past the depth bound.
        let escalated = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(worker),
            w.vault_perm,
            SafetyConfig {
                max_steps: 2,
                ..config
            },
        );
        let ReachabilityAnswer::Reachable { witness } = escalated else {
            panic!("expected escalated reachable");
        };
        let final_policy = run_pure(&mut w.universe, &w.policy, &witness, AuthMode::Explicit);
        assert!(
            ReachIndex::build(&w.universe, &final_policy).reach_priv(Entity::User(worker), target)
        );
    }

    #[test]
    fn grow_only_is_never_unknown_regardless_of_max_states() {
        // The acceptance guarantee of the verify layer: a monotone
        // instance answers definitively even with the bounded search
        // fully starved (max_states = 0), for both polarities.
        let mut w = grow_only(GrowOnlySpec {
            width: 16,
            users: 3,
        });
        let member = w.members[0];
        for max_states in [0usize, 1, 50] {
            let config = SafetyConfig {
                max_steps: 2,
                max_states,
                ..SafetyConfig::default()
            };
            let goal = perm_reachable(
                &mut w.universe,
                &w.policy,
                Entity::User(member),
                w.goal_perm,
                config,
            );
            let ReachabilityAnswer::Reachable { witness } = goal else {
                panic!("max_states={max_states}: {goal:?}");
            };
            let final_policy = run_pure(&mut w.universe, &w.policy, &witness, AuthMode::Explicit);
            let target = w.universe.priv_perm(w.goal_perm);
            assert!(ReachIndex::build(&w.universe, &final_policy)
                .reach_priv(Entity::User(member), target));
            let absent = perm_reachable(
                &mut w.universe,
                &w.policy,
                Entity::User(member),
                w.absent_perm,
                config,
            );
            assert!(
                matches!(absent, ReachabilityAnswer::Unreachable),
                "max_states={max_states}: {absent:?}"
            );
        }
    }

    #[test]
    fn grow_only_dispatches_to_the_saturation_engine() {
        use adminref_core::verify::{verify_perm_reachable, EngineUsed};
        let mut w = grow_only(GrowOnlySpec::default());
        let member = w.members[1];
        let report = verify_perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(member),
            w.absent_perm,
            SafetyConfig {
                // The derivation-length assertion below is about the
                // *full* saturated closure; slicing would empty the
                // alphabet for the absent goal first.
                slice: false,
                ..SafetyConfig::default()
            },
        );
        assert!(report.monotone);
        assert_eq!(report.engine, EngineUsed::Saturation);
        assert!(matches!(report.answer, ReachabilityAnswer::Unreachable));
        // The derivation is the whole saturated closure: every grant any
        // actor can ever effect — members × tier roles.
        assert_eq!(
            report.derivation.len(),
            w.members.len() * w.tier.len(),
            "closure should apply every grantable edge"
        );
    }

    #[test]
    fn churn_is_deterministic_and_readable() {
        let spec = ChurnSpec {
            roles: 64,
            readers: 8,
            batch_len: 16,
            batches: 3,
            ..ChurnSpec::default()
        };
        let a = churn(spec);
        let b = churn(spec);
        assert_eq!(a.readers.len(), 8);
        assert_eq!(a.batches.len(), 3);
        assert!(a.batches.iter().all(|q| q.len() == 16));
        assert_eq!(
            a.policy.edges().collect::<Vec<_>>(),
            b.policy.edges().collect::<Vec<_>>()
        );
        assert_eq!(a.batches, b.batches);
        // Readers can really activate their role; the hit probe answers
        // `true` and the miss probe `false` at the initial policy (for
        // at least most readers — tiny hierarchies may lack one side).
        let reach = ReachIndex::build(&a.universe, &a.policy);
        let mut uni = a.universe.clone();
        let (mut hits, mut misses) = (0, 0);
        for r in &a.readers {
            assert!(reach.reach_entity(Entity::User(r.user), Entity::Role(r.role)));
            if reach.reach_priv(Entity::Role(r.role), uni.priv_perm(r.perm_hit)) {
                hits += 1;
            }
            if !reach.reach_priv(Entity::Role(r.role), uni.priv_perm(r.perm_miss)) {
                misses += 1;
            }
        }
        assert!(hits > 0, "no reader ever hits its perm");
        assert!(misses > 0, "no reader ever exercises the denial path");
    }

    #[test]
    fn state_space_grows_with_fanout() {
        // fanout=3, depth=2: enough distinct reachable membership
        // subsets that a small cap truncates — the arena-stress shape.
        let mut w = deep_delegation(DelegationSpec {
            depth: 2,
            fanout: 3,
        });
        let worker = w.workers[0];
        let never = w.universe.perm("launch", "missiles");
        let tight = SafetyConfig {
            max_steps: 6,
            max_states: 8,
            // Sliced, the absent goal's empty cone refutes without ever
            // searching; this test is about cap-hit truncation, so keep
            // the full alphabet.
            slice: false,
            ..SafetyConfig::default()
        };
        let answer = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(worker),
            never,
            SafetyConfig {
                escalate: false,
                ..tight
            },
        );
        let ReachabilityAnswer::Unknown { truncation } = answer else {
            panic!("{answer:?}");
        };
        assert!(truncation.cap_hit, "{truncation:?}");
        // Grow-only regression: with escalation on, the same starved
        // bounds never answer Unknown — saturation closes the instance
        // no matter how small max_states is.
        for max_states in [8usize, 1, 0] {
            let answer = perm_reachable(
                &mut w.universe,
                &w.policy,
                Entity::User(worker),
                never,
                SafetyConfig {
                    max_states,
                    ..tight
                },
            );
            assert!(
                matches!(answer, ReachabilityAnswer::Unreachable),
                "max_states={max_states}: {answer:?}"
            );
        }
    }

    #[test]
    fn write_storm_toggles_always_execute_and_change() {
        let w = write_storm(WriteStormSpec {
            roles: 32,
            writers: 3,
            ..WriteStormSpec::default()
        });
        assert_eq!(w.streams.len(), 3);
        // Any interleaving of whole streams keeps every command
        // authorized and policy-changing; check the serial worst case:
        // each stream cycled twice, streams round-robined.
        let mut uni = w.universe.clone();
        let mut policy = w.policy.clone();
        for round in 0..4 {
            for stream in &w.streams {
                let cmd = stream[round % 2];
                let out = adminref_core::transition::step(
                    &mut uni,
                    &mut policy,
                    &cmd,
                    AuthMode::Explicit,
                );
                assert!(out.executed(), "round {round}: {cmd:?} refused");
                assert!(out.changed, "round {round}: {cmd:?} was a no-op");
            }
        }
        assert_eq!(policy.edges().count(), w.policy.edges().count());
    }

    #[test]
    fn trickle_batches_always_execute_change_and_cycle() {
        let spec = TrickleSpec {
            roles: 64,
            users: 16,
            toggles: 12,
            ..TrickleSpec::default()
        };
        let w = wide_universe_trickle(spec);
        let again = wide_universe_trickle(spec);
        assert_eq!(w.batches, again.batches, "deterministic in the spec");
        assert_eq!(w.batches.len(), 24, "a grant and a revoke per toggle");
        assert!(
            w.batches.iter().all(|b| b.len() == 1),
            "single-edge batches"
        );
        // Two full cycles: every command is authorized and changes the
        // policy, and a full cycle returns to the initial edge count.
        let mut uni = w.universe.clone();
        let mut policy = w.policy.clone();
        let mut saw_rh = false;
        for (i, batch) in w
            .batches
            .iter()
            .cycle()
            .take(w.batches.len() * 2)
            .enumerate()
        {
            let cmd = batch[0];
            saw_rh |= matches!(cmd.edge, Edge::RoleRole(..));
            let out =
                adminref_core::transition::step(&mut uni, &mut policy, &cmd, AuthMode::Explicit);
            assert!(out.executed(), "batch {i}: {cmd:?} refused");
            assert!(out.changed, "batch {i}: {cmd:?} was a no-op");
        }
        assert!(saw_rh, "the mix includes RH toggles");
        assert_eq!(policy.edge_count(), w.policy.edge_count());
    }

    #[test]
    fn cone_slicing_prunes_to_one_department_with_the_same_answer() {
        use adminref_core::lint::slice_alphabet;
        use adminref_core::safety::prepare_toggles;
        let mut w = cone(ConeSpec::default());
        let worker = w.workers[0];
        let config = SafetyConfig {
            max_steps: 3,
            max_states: 200_000,
            ..SafetyConfig::default()
        };
        let target = w.universe.priv_perm(w.goal_perm);
        let alphabet = prepare_toggles(&mut w.universe, &w.policy, config);
        let outcome = slice_alphabet(
            &w.universe,
            &w.policy,
            &alphabet,
            Entity::User(worker),
            target,
            config.auth_mode,
        );
        // The goal's cone is department 0's chain: at most half (here a
        // sixth) of the alphabet survives.
        assert!(
            outcome.after * 2 <= outcome.before,
            "{} -> {}",
            outcome.before,
            outcome.after
        );
        // Same answer, same witness length, sliced or not.
        for slice in [true, false] {
            let answer = perm_reachable(
                &mut w.universe,
                &w.policy,
                Entity::User(worker),
                w.goal_perm,
                SafetyConfig { slice, ..config },
            );
            let ReachabilityAnswer::Reachable { witness } = answer else {
                panic!("slice={slice}: expected reachable");
            };
            assert_eq!(witness.len(), 3, "slice={slice}");
        }
    }

    #[test]
    fn seeded_defects_flags_every_class_and_clean_scenarios_stay_clean() {
        use adminref_core::lint::{lint_policy, FindingKind, LintConfig};
        let w = seeded_defects();
        let report = lint_policy(
            &w.universe,
            &w.policy,
            &LintConfig {
                sod_pairs: vec![w.sod_pair],
                ..LintConfig::default()
            },
        );
        for kind in [
            FindingKind::DeadCommand,
            FindingKind::Unauthorizable,
            FindingKind::RedundantGrant,
            FindingKind::ShadowedGrant,
            FindingKind::NonMonotoneIsland,
            FindingKind::SodConflict,
        ] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind:?}: {:?}",
                report.findings
            );
        }
        // Clean scenarios produce zero findings.
        for (universe, policy) in [
            {
                let w = grow_only(GrowOnlySpec::default());
                (w.universe, w.policy)
            },
            {
                let w = deep_delegation(DelegationSpec::default());
                (w.universe, w.policy)
            },
            {
                let w = cone(ConeSpec::default());
                (w.universe, w.policy)
            },
        ] {
            let report = lint_policy(&universe, &policy, &LintConfig::default());
            assert!(report.findings.is_empty(), "{:?}", report.findings);
        }
    }

    #[test]
    fn parallel_and_sequential_agree_on_the_chain() {
        let mut w = deep_delegation(DelegationSpec {
            depth: 3,
            fanout: 2,
        });
        let worker = w.workers[1];
        let config = SafetyConfig {
            max_steps: 3,
            max_states: 100_000,
            ..SafetyConfig::default()
        };
        let seq = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(worker),
            w.vault_perm,
            config,
        );
        let par = perm_reachable(
            &mut w.universe,
            &w.policy,
            Entity::User(worker),
            w.vault_perm,
            SafetyConfig { jobs: 4, ..config },
        );
        match (&seq, &par) {
            (
                ReachabilityAnswer::Reachable { witness: a },
                ReachabilityAnswer::Reachable { witness: b },
            ) => assert_eq!(a.commands(), b.commands()),
            other => panic!("{other:?}"),
        }
    }
}
