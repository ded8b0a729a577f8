//! E8 — Theorem 1, validated empirically against the bounded
//! administrative-refinement checker, case by case and end-to-end on
//! generated policies. Also exercises the D2 design decision (the two
//! quantifier readings of Definition 7).

use adminref_core::prelude::*;
use adminref_core::simulation::{SimulationConfig, SimulationDirection};
use adminref_workloads::{hospital_fig2, inject_admin_privs, AdminSpec};

fn check(uni: &Universe, phi: &Policy, psi: &Policy, len: usize) -> bool {
    check_admin_refinement(
        uni,
        phi,
        psi,
        SimulationConfig {
            max_queue_len: len,
            ..SimulationConfig::default()
        },
    )
    .holds()
}

/// A pair of Figure 2 variants: `ψ` replaces `φ`'s assignment of
/// `replaced` by one of `replacement`.
struct Pair {
    uni: Universe,
    phi: Policy,
    psi: Policy,
    replaced: PrivId,
    replacement: PrivId,
}

/// Rule (2): HR's ¤(bob, staff) becomes ¤(bob, dbusr2).
fn rule2_user_role_pair() -> Pair {
    let (mut uni, phi) = hospital_fig2();
    let bob = uni.find_user("bob").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let dbusr2 = uni.find_role("dbusr2").unwrap();
    let hr = uni.find_role("hr").unwrap();
    let p = uni.grant_user_role(bob, staff);
    let q = uni.grant_user_role(bob, dbusr2);
    let psi = weaken_assignment(&phi, (hr, p), q);
    Pair {
        uni,
        phi,
        psi,
        replaced: p,
        replacement: q,
    }
}

/// Rule (2) with a role-role source: φ lets hr add staff → nurse, ψ the
/// weaker staff → prntusr (nurse →φ prntusr).
fn rule2_role_role_pair() -> Pair {
    let (mut uni, mut phi) = hospital_fig2();
    let staff = uni.find_role("staff").unwrap();
    let nurse = uni.find_role("nurse").unwrap();
    let prntusr = uni.find_role("prntusr").unwrap();
    let hr = uni.find_role("hr").unwrap();
    let p = uni.grant_role_role(staff, nurse);
    phi.add_edge(Edge::RolePriv(hr, p));
    let q = uni.grant_role_role(staff, prntusr);
    let psi = weaken_assignment(&phi, (hr, p), q);
    Pair {
        uni,
        phi,
        psi,
        replaced: p,
        replacement: q,
    }
}

/// Rule (3): so's ¤(staff, ¤(bob, staff)) becomes ¤(staff, ¤(bob, dbusr2)).
fn rule3_nested_pair() -> Pair {
    let (mut uni, mut phi) = hospital_fig2();
    let bob = uni.find_user("bob").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let dbusr2 = uni.find_role("dbusr2").unwrap();
    let so = uni.find_role("so").unwrap();
    let inner_p = uni.grant_user_role(bob, staff);
    let inner_q = uni.grant_user_role(bob, dbusr2);
    let p = uni.grant_role_priv(staff, inner_p);
    let q = uni.grant_role_priv(staff, inner_q);
    phi.add_edge(Edge::RolePriv(so, p));
    let psi = weaken_assignment(&phi, (so, p), q);
    Pair {
        uni,
        phi,
        psi,
        replaced: p,
        replacement: q,
    }
}

/// The converse: φ holds the weak ¤(bob, dbusr2), ψ the strong
/// ¤(bob, staff).
fn strengthening_pair() -> Pair {
    let (mut uni, mut phi) = hospital_fig2();
    let bob = uni.find_user("bob").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let dbusr2 = uni.find_role("dbusr2").unwrap();
    let hr = uni.find_role("hr").unwrap();
    let weak = uni.grant_user_role(bob, dbusr2);
    let strong = uni.grant_user_role(bob, staff);
    phi.remove_edge(Edge::RolePriv(
        hr,
        uni.find_term(PrivTerm::Grant(Edge::UserRole(bob, staff)))
            .unwrap(),
    ));
    phi.add_edge(Edge::RolePriv(hr, weak));
    let psi = weaken_assignment(&phi, (hr, weak), strong);
    Pair {
        uni,
        phi,
        psi,
        replaced: weak,
        replacement: strong,
    }
}

/// ψ lets HR hand the (write, t3) permission to *nurse* instead of
/// putting bob into staff — a policy change no φ-queue can mimic
/// (nurses never reach write-t3 in any φ-reachable policy).
fn nurse_write_pair() -> Pair {
    let (mut uni, phi) = hospital_fig2();
    let bob = uni.find_user("bob").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let hr = uni.find_role("hr").unwrap();
    let held = uni
        .find_term(PrivTerm::Grant(Edge::UserRole(bob, staff)))
        .unwrap();
    let nurse = uni.find_role("nurse").unwrap();
    let write_t3 = uni.perm("write", "t3");
    let perm_priv = uni.priv_perm(write_t3);
    let strong = uni.grant_role_priv(nurse, perm_priv);
    let psi = weaken_assignment(&phi, (hr, held), strong);
    Pair {
        uni,
        phi,
        psi,
        replaced: held,
        replacement: strong,
    }
}

/// Asserts the precondition of Theorem 1 for a weakening pair and that
/// the bounded check accepts it at queue length 2.
fn assert_weakening_holds(pair: Pair) {
    let order = PrivilegeOrder::new(&pair.uni, &pair.phi, OrderingMode::Extended);
    assert!(order.is_weaker(pair.replaced, pair.replacement));
    drop(order);
    assert!(check(&pair.uni, &pair.phi, &pair.psi, 2));
}

/// Theorem 1, rule (2) case: ¤(v2,v3) replaced by ¤(v1,v4) with
/// v1 →φ v2 and v3 →φ v4.
#[test]
fn rule2_case_user_role() {
    assert_weakening_holds(rule2_user_role_pair());
}

/// Theorem 1, rule (2) with a role-role source: ¤(r2,r3) ⊑ ¤(r1,r4).
#[test]
fn rule2_case_role_role() {
    assert_weakening_holds(rule2_role_role_pair());
}

/// Theorem 1, rule (3) case: nested privileges. Depth-2 privileges need
/// queue length 2 to expose two-step attacks.
#[test]
fn rule3_case_nested() {
    assert_weakening_holds(rule3_nested_pair());
}

/// The converse direction must fail: strengthening is refutable.
#[test]
fn strengthening_fails_with_witness() {
    let Pair { uni, phi, psi, .. } = strengthening_pair();
    let bob = uni.find_user("bob").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let out = check_admin_refinement(
        &uni,
        &phi,
        &psi,
        SimulationConfig {
            max_queue_len: 1,
            ..SimulationConfig::default()
        },
    );
    match out {
        SimulationOutcome::Fails(ce) => {
            assert_eq!(ce.queue.len(), 1);
            let cmd = ce.queue.commands()[0];
            assert_eq!(cmd.edge, Edge::UserRole(bob, staff));
        }
        SimulationOutcome::HoldsUpTo(_) => panic!("strengthening must be refuted"),
    }
}

/// Theorem 1 on a batch of generated policies: every ⊑-weakening of every
/// assigned grant passes the bounded check.
#[test]
fn random_weakenings_hold() {
    use adminref_workloads::{chain, populate_users};
    for seed in 0..4u64 {
        let mut h = chain(4);
        let users = populate_users(&mut h, 2, 1, seed);
        let roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
        let assigned = inject_admin_privs(
            &mut h.universe,
            &mut h.policy,
            &users,
            &roles,
            AdminSpec {
                count: 3,
                max_depth: 1,
                grant_ratio: 1.0,
                seed,
            },
        );
        let mut uni = h.universe;
        let phi = h.policy;
        // Candidate weaker terms: one per assigned grant, shifting the
        // target one role down the chain when possible.
        for (holder, p) in assigned {
            let PrivTerm::Grant(edge) = uni.term(p) else {
                continue;
            };
            let weaker_edge = match edge {
                Edge::UserRole(u, r) if (r.0 as usize) + 1 < roles.len() => {
                    Edge::UserRole(u, RoleId(r.0 + 1))
                }
                Edge::RoleRole(a, b) if (b.0 as usize) + 1 < roles.len() => {
                    Edge::RoleRole(a, RoleId(b.0 + 1))
                }
                _ => continue,
            };
            let q = uni.priv_grant(weaker_edge);
            let order = PrivilegeOrder::new(&uni, &phi, OrderingMode::Extended);
            let is_weaker = order.is_weaker(p, q);
            drop(order);
            if !is_weaker {
                continue;
            }
            let psi = weaken_assignment(&phi, (holder, p), q);
            assert!(
                check(&uni, &phi, &psi, 2),
                "Theorem 1 refuted at seed {seed} for {p:?} → {q:?}"
            );
        }
    }
}

/// D2 — the two quantifier readings differ observably: dropping all of
/// ψ's authority holds under both; the literal reading additionally
/// accepts some ψ that the simulation reading rejects… and vice versa, a
/// strengthened ψ is rejected by the simulation reading even when the
/// literal reading accepts it.
#[test]
fn definition7_direction_comparison() {
    let Pair { uni, phi, psi, .. } = nurse_write_pair();
    let simulation = check_admin_refinement(
        &uni,
        &phi,
        &psi,
        SimulationConfig {
            max_queue_len: 1,
            direction: SimulationDirection::Simulation,
            allow_noop: true,
        },
    );
    assert!(!simulation.holds(), "simulation reading rejects");
    let literal = check_admin_refinement(
        &uni,
        &phi,
        &psi,
        SimulationConfig {
            max_queue_len: 1,
            direction: SimulationDirection::LiteralText,
            allow_noop: true,
        },
    );
    // Under the literal text, ψ only needs *some* queue staying below
    // whatever φ does — it can always answer with a no-op, so the
    // strengthened ψ is (vacuously) accepted. This is exactly why we read
    // Definition 7 the other way (see DESIGN.md D2).
    assert!(literal.holds(), "literal reading is too weak");
}

/// The bounded check's outcome on every pair above, both ways round,
/// under both readings of Definition 7, at queue lengths 1 and 2: the
/// verdict, and for a refutation its counterexample queue and the size
/// of the policy that queue ends in. The strings were recorded while the
/// checker still applied and hashed every command, no-ops included, so
/// they pin that collapsing an actor's no-op successors into one moves
/// no verdict and no counterexample.
#[test]
fn outcomes_and_counterexamples_are_pinned() {
    const EXPECTED: &[&str] = &[
        "rule2-user-role fwd Simulation L=1: holds up to 1",
        "rule2-user-role fwd Simulation L=2: holds up to 2",
        "rule2-user-role fwd LiteralText L=1: holds up to 1",
        "rule2-user-role fwd LiteralText L=2: holds up to 2",
        "rule2-user-role rev Simulation L=1: fails [cmd(jane, grant, bob, staff)] final 20 edges",
        "rule2-user-role rev Simulation L=2: fails [cmd(jane, grant, bob, staff)] final 20 edges",
        "rule2-user-role rev LiteralText L=1: holds up to 1",
        "rule2-user-role rev LiteralText L=2: holds up to 2",
        "rule2-role-role fwd Simulation L=1: holds up to 1",
        "rule2-role-role fwd Simulation L=2: holds up to 2",
        "rule2-role-role fwd LiteralText L=1: holds up to 1",
        "rule2-role-role fwd LiteralText L=2: holds up to 2",
        "rule2-role-role rev Simulation L=1: holds up to 1",
        "rule2-role-role rev Simulation L=2: holds up to 2",
        "rule2-role-role rev LiteralText L=1: holds up to 1",
        "rule2-role-role rev LiteralText L=2: holds up to 2",
        "rule3-nested fwd Simulation L=1: holds up to 1",
        "rule3-nested fwd Simulation L=2: holds up to 2",
        "rule3-nested fwd LiteralText L=1: holds up to 1",
        "rule3-nested fwd LiteralText L=2: holds up to 2",
        "rule3-nested rev Simulation L=1: holds up to 1",
        "rule3-nested rev Simulation L=2: holds up to 2",
        "rule3-nested rev LiteralText L=1: holds up to 1",
        "rule3-nested rev LiteralText L=2: holds up to 2",
        "strengthening fwd Simulation L=1: fails [cmd(jane, grant, bob, staff)] final 20 edges",
        "strengthening fwd Simulation L=2: fails [cmd(jane, grant, bob, staff)] final 20 edges",
        "strengthening fwd LiteralText L=1: holds up to 1",
        "strengthening fwd LiteralText L=2: holds up to 2",
        "strengthening rev Simulation L=1: holds up to 1",
        "strengthening rev Simulation L=2: holds up to 2",
        "strengthening rev LiteralText L=1: holds up to 1",
        "strengthening rev LiteralText L=2: holds up to 2",
        "nurse-write fwd Simulation L=1: fails [cmd(jane, grant, nurse, (write, t3))] final 20 edges",
        "nurse-write fwd Simulation L=2: fails [cmd(jane, grant, nurse, (write, t3))] final 20 edges",
        "nurse-write fwd LiteralText L=1: holds up to 1",
        "nurse-write fwd LiteralText L=2: holds up to 2",
        "nurse-write rev Simulation L=1: fails [cmd(jane, grant, bob, staff)] final 20 edges",
        "nurse-write rev Simulation L=2: fails [cmd(jane, grant, bob, staff)] final 20 edges",
        "nurse-write rev LiteralText L=1: holds up to 1",
        "nurse-write rev LiteralText L=2: holds up to 2",
    ];
    let pairs = [
        ("rule2-user-role", rule2_user_role_pair()),
        ("rule2-role-role", rule2_role_role_pair()),
        ("rule3-nested", rule3_nested_pair()),
        ("strengthening", strengthening_pair()),
        ("nurse-write", nurse_write_pair()),
    ];
    let mut seen = Vec::new();
    for (name, pair) in &pairs {
        let uni = &pair.uni;
        for (way, phi, psi) in [("fwd", &pair.phi, &pair.psi), ("rev", &pair.psi, &pair.phi)] {
            for direction in [
                SimulationDirection::Simulation,
                SimulationDirection::LiteralText,
            ] {
                for len in 1..=2 {
                    let config = SimulationConfig {
                        max_queue_len: len,
                        direction,
                        allow_noop: true,
                    };
                    let verdict = match check_admin_refinement(uni, phi, psi, config) {
                        SimulationOutcome::HoldsUpTo(n) => format!("holds up to {n}"),
                        SimulationOutcome::Fails(ce) => {
                            let queue: Vec<String> = ce
                                .queue
                                .commands()
                                .iter()
                                .map(|c| command_to_string(uni, c, Notation::Ascii))
                                .collect();
                            format!(
                                "fails [{}] final {} edges",
                                queue.join("; "),
                                ce.driver_final.edge_count()
                            )
                        }
                    };
                    seen.push(format!("{name} {way} {direction:?} L={len}: {verdict}"));
                }
            }
        }
    }
    assert_eq!(seen, EXPECTED);
}
