//! The actor-quotiented alphabet and its grounding.
//!
//! The reachability engines search one entry per `(edge, kind)`
//! (`safety::prepare_toggles`); `safety::prepare_alphabet` grounds that
//! quotient over the policy's actors for the engines that encode actors
//! (the bounded model checker). These tests pin the grounding byte for
//! byte on two instances, so the model checker's input cannot drift when
//! the quotient changes, and check that grounding the quotient is
//! exactly the per-actor command alphabet.

use adminref_core::prelude::*;
use adminref_core::safety::{prepare_alphabet, prepare_toggles};
use adminref_workloads::{deep_delegation, DelegationSpec};

/// One line per actor: `actor: +edge#term -edge#term …`, with users,
/// roles and terms by id (`u`, `r`, `p`).
fn render(alphabet: &[(Command, PrivId)]) -> String {
    let mut out = String::new();
    let mut actor = None;
    for (cmd, required) in alphabet {
        if actor != Some(cmd.actor) {
            if actor.is_some() {
                out.push('\n');
            }
            out.push_str(&format!("u{}:", cmd.actor.0));
            actor = Some(cmd.actor);
        }
        let kind = match cmd.kind {
            CommandKind::Grant => '+',
            CommandKind::Revoke => '-',
        };
        let edge = match cmd.edge {
            Edge::UserRole(u, r) => format!("u{}>r{}", u.0, r.0),
            Edge::RoleRole(a, b) => format!("r{}>r{}", a.0, b.0),
            Edge::RolePriv(r, p) => format!("r{}>p{}", r.0, p.0),
        };
        out.push_str(&format!(" {kind}{edge}#{}", required.0));
    }
    out
}

/// The same alphabet for every actor: the rendered toggles after the
/// actor prefix repeat, line for line.
fn toggles_of(rendered: &str) -> Vec<&str> {
    rendered
        .lines()
        .map(|line| line.split_once(':').expect("actor prefix").1)
        .collect()
}

fn hospital() -> (Universe, Policy) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/fixtures/hospital.rbac")).unwrap();
    adminref_lang::load_policy(&text).unwrap()
}

fn delegation() -> (Universe, Policy) {
    let w = deep_delegation(DelegationSpec::default());
    (w.universe, w.policy)
}

/// `prepare_alphabet` on Figure 2's hospital, as the grounded builder
/// returned it before the engines were quotiented: the same 42 toggles
/// (21 edges × {grant, revoke}) for each of 5 actors.
const HOSPITAL: (&[u32], &str) = (
    &[0, 1, 2, 3, 4],
    " +u0>r3#9 -u0>r3#10 +u1>r6#11 -u1>r6#12 +u2>r7#4 -u2>r7#13 +u3>r4#14 -u3>r4#15 \
    +u3>r7#16 -u3>r7#17 +u4>r4#5 -u4>r4#6 +r1>r0#18 -r1>r0#3 +r4>r0#19 -r4>r0#20 \
    +r4>r5#21 -r4>r5#22 +r6>r3#23 -r6>r3#24 +r7>r1#25 -r7>r1#26 +r7>r4#27 -r7>r4#28 \
    +r0>p0#29 -r0>p0#30 +r0>p1#31 -r0>p1#32 +r1>p2#33 -r1>p2#34 +r2>p3#35 -r2>p3#36 \
    +r3>p4#37 -r3>p4#38 +r3>p5#39 -r3>p5#40 +r3>p6#41 -r3>p6#42 +r5>p7#43 -r5>p7#44 \
    +r7>p8#45 -r7>p8#46",
);

/// `prepare_alphabet` on the default `deep_delegation` workload, pinned
/// the same way: 52 toggles for each of 4 actors.
const DELEGATION: (&[u32], &str) = (
    &[0, 1, 2, 3],
    " +u0>r0#13 -u0>r0#14 +u1>r1#0 -u1>r1#15 +u1>r2#3 -u1>r2#16 +u1>r3#6 -u1>r3#17 \
    +u1>r4#9 -u1>r4#18 +u2>r1#1 -u2>r1#19 +u2>r2#4 -u2>r2#20 +u2>r3#7 -u2>r3#21 \
    +u2>r4#10 -u2>r4#22 +u3>r1#2 -u3>r1#23 +u3>r2#5 -u3>r2#24 +u3>r3#8 -u3>r3#25 \
    +u3>r4#11 -u3>r4#26 +r0>p0#27 -r0>p0#28 +r0>p1#29 -r0>p1#30 +r0>p2#31 -r0>p2#32 \
    +r1>p3#33 -r1>p3#34 +r1>p4#35 -r1>p4#36 +r1>p5#37 -r1>p5#38 +r2>p6#39 -r2>p6#40 \
    +r2>p7#41 -r2>p7#42 +r2>p8#43 -r2>p8#44 +r3>p9#45 -r3>p9#46 +r3>p10#47 \
    -r3>p10#48 +r3>p11#49 -r3>p11#50 +r4>p12#51 -r4>p12#52",
);

/// The rendering of a pin: its toggles after each actor's prefix.
fn pinned((actors, toggles): (&[u32], &str)) -> String {
    let lines: Vec<String> = actors.iter().map(|a| format!("u{a}:{toggles}")).collect();
    lines.join("\n")
}

#[test]
fn grounding_is_pinned_on_the_hospital() {
    let (mut uni, policy) = hospital();
    let alphabet = prepare_alphabet(&mut uni, &policy, SafetyConfig::default());
    assert_eq!(render(&alphabet), pinned(HOSPITAL));
}

#[test]
fn grounding_is_pinned_on_deep_delegation() {
    let (mut uni, policy) = delegation();
    let alphabet = prepare_alphabet(&mut uni, &policy, SafetyConfig::default());
    assert_eq!(render(&alphabet), pinned(DELEGATION));
}

/// Grounding the quotient over each actor is the command alphabet: one
/// toggle list, repeated per actor, and as long as the quotient.
#[test]
fn grounding_repeats_the_quotient_per_actor() {
    for (mut uni, policy) in [hospital(), delegation()] {
        let config = SafetyConfig::default();
        let toggles = prepare_toggles(&mut uni, &policy, config);
        let alphabet = prepare_alphabet(&mut uni, &policy, config);
        let rendered = render(&alphabet);
        let per_actor = toggles_of(&rendered);
        assert!(per_actor.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(per_actor.len() * toggles.len(), alphabet.len());
        let commands: Vec<Command> = alphabet.iter().map(|&(c, _)| c).collect();
        assert_eq!(commands, command_alphabet(&uni, &[&policy]));
    }
}

/// Prints the live grounding of both instances (the pins above).
#[test]
#[ignore]
fn print_pinned_alphabets() {
    for (name, (mut uni, policy)) in [("hospital", hospital()), ("delegation", delegation())] {
        let alphabet = prepare_alphabet(&mut uni, &policy, SafetyConfig::default());
        println!(
            "{name} ({} entries):\n{}",
            alphabet.len(),
            render(&alphabet)
        );
    }
}
