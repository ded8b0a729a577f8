//! Durability and concurrency integration: monitors over stores, crash
//! recovery mid-workload, compaction under load, and concurrent access.

use adminref_core::ids::RoleId;
use adminref_core::prelude::*;
use adminref_monitor::{MonitorConfig, MonitorError, ReferenceMonitor};
use adminref_store::{PolicyStore, TempDir};
use adminref_workloads::{
    generate_queue, hospital_fig2, inject_admin_privs, layered, populate_perms, populate_users,
    AdminSpec, LayeredSpec, QueueSpec,
};

fn workload(seed: u64) -> (Universe, Policy, Vec<UserId>, Vec<RoleId>) {
    let mut h = layered(LayeredSpec {
        layers: 3,
        width: 4,
        edge_prob: 0.4,
        seed,
    });
    let users = populate_users(&mut h, 6, 2, seed);
    populate_perms(&mut h, 2, 8, seed);
    let roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
    inject_admin_privs(
        &mut h.universe,
        &mut h.policy,
        &users,
        &roles,
        AdminSpec {
            count: 10,
            max_depth: 2,
            grant_ratio: 0.6,
            seed,
        },
    );
    (h.universe, h.policy, users, roles)
}

/// Executes `cmd` on `store` as a batch of its own, durably.
fn execute(store: &mut PolicyStore, cmd: &Command) -> StepOutcome {
    let (outcomes, status) = store.execute_batch([cmd]);
    status.unwrap();
    outcomes[0]
}

#[test]
fn replayed_store_matches_live_state() {
    let (uni, policy, users, roles) = workload(1);
    let queue = generate_queue(
        &uni,
        &policy,
        &users,
        &roles,
        QueueSpec {
            len: 200,
            valid_ratio: 0.6,
            seed: 1,
        },
    );
    let dir = TempDir::new("replay").unwrap();
    let live_policy;
    {
        let store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
        monitor.submit_queue(&queue).unwrap();
        live_policy = monitor.snapshot().1;
    }
    let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
    assert_eq!(report.replayed, 200);
    assert_eq!(report.divergent, 0);
    assert_eq!(store.policy(), &live_policy, "replay reproduces the state");
}

#[test]
fn compaction_mid_workload_preserves_state() {
    let (uni, policy, users, roles) = workload(2);
    let queue = generate_queue(
        &uni,
        &policy,
        &users,
        &roles,
        QueueSpec {
            len: 100,
            valid_ratio: 0.7,
            seed: 2,
        },
    );
    let dir = TempDir::new("compact-mid").unwrap();
    let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
    let cmds: Vec<Command> = queue.iter().copied().collect();
    for (i, cmd) in cmds.iter().enumerate() {
        execute(&mut store, cmd);
        if i % 25 == 24 {
            store.compact().unwrap();
        }
    }
    let live = store.policy().clone();
    drop(store);
    let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
    assert!(report.replayed < 100, "compaction folded most of the log");
    assert_eq!(store.policy(), &live);
}

#[test]
fn recovery_after_partial_write_is_a_prefix_state() {
    let (uni, policy, users, roles) = workload(3);
    let queue = generate_queue(
        &uni,
        &policy,
        &users,
        &roles,
        QueueSpec {
            len: 50,
            valid_ratio: 0.8,
            seed: 3,
        },
    );
    let dir = TempDir::new("crash-mid").unwrap();
    let mut states: Vec<Policy> = Vec::new();
    {
        let mut store =
            PolicyStore::create(dir.path(), uni, policy.clone(), AuthMode::Explicit).unwrap();
        states.push(store.policy().clone());
        for cmd in queue.iter() {
            execute(&mut store, cmd);
            states.push(store.policy().clone());
        }
    }
    // Chop random amounts off the log tail and verify the recovered state
    // is always one of the prefix states.
    let log_path = dir.path().join("commands.log");
    let full = std::fs::read(&log_path).unwrap();
    for cut in [1usize, 3, 7, 15, full.len() / 2] {
        if cut >= full.len() {
            continue;
        }
        std::fs::write(&log_path, &full[..full.len() - cut]).unwrap();
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert!(
            states.iter().any(|s| s == store.policy()),
            "cut {cut}: recovered state must be a prefix state \
             (replayed {})",
            report.replayed
        );
    }
}

#[test]
fn concurrent_monitor_sessions_and_admin() {
    let (uni, policy) = hospital_fig2();
    let jane = uni.find_user("jane").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let diana = uni.find_user("diana").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let nurse = uni.find_role("nurse").unwrap();
    let mut uni_probe = uni.clone();
    let read_t1 = uni_probe.perm("read", "t1");
    let monitor = ReferenceMonitor::new(
        uni,
        policy,
        MonitorConfig {
            auth_mode: AuthMode::Ordered(OrderingMode::Extended),
            audit_capacity: 100_000,
            ..MonitorConfig::default()
        },
    );
    let sid = monitor.create_session(diana);
    monitor.activate_role(sid, nurse).unwrap();
    crossbeam::scope(|scope| {
        // Admin thread: churn bob's membership.
        scope.spawn(|_| {
            for _ in 0..100 {
                monitor
                    .submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
                    .unwrap();
                monitor
                    .submit(&Command::revoke(jane, Edge::UserRole(bob, staff)))
                    .unwrap();
            }
        });
        // Session threads: diana keeps reading.
        for _ in 0..3 {
            scope.spawn(|_| {
                for _ in 0..300 {
                    assert!(monitor.check_access(sid, read_t1).unwrap());
                }
            });
        }
        // Analyst thread: snapshots stay internally consistent.
        scope.spawn(|_| {
            for _ in 0..50 {
                let (u, p) = monitor.snapshot();
                assert!(adminref_core::analysis::validate(&u, &p).is_ok());
            }
        });
    })
    .unwrap();
    // All 200 admin commands were processed and audited.
    assert_eq!(monitor.audit_events().len(), 200);
}

#[test]
fn ordered_and_explicit_stores_diverge_observably() {
    // The same queue produces a *refinement* under ordered mode relative
    // to granting held privileges verbatim — persisted and recovered.
    let (uni, policy) = hospital_fig2();
    let jane = uni.find_user("jane").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let dbusr2 = uni.find_role("dbusr2").unwrap();
    let staff = uni.find_role("staff").unwrap();
    let weaker_cmd = Command::grant(jane, Edge::UserRole(bob, dbusr2));
    let held_cmd = Command::grant(jane, Edge::UserRole(bob, staff));

    let dir_ord = TempDir::new("ord").unwrap();
    let mode = AuthMode::Ordered(OrderingMode::Extended);
    let mut store_ord =
        PolicyStore::create(dir_ord.path(), uni.clone(), policy.clone(), mode).unwrap();
    assert!(execute(&mut store_ord, &weaker_cmd).executed());

    let dir_exp = TempDir::new("exp").unwrap();
    let mut store_exp = PolicyStore::create(
        dir_exp.path(),
        uni.clone(),
        policy.clone(),
        AuthMode::Explicit,
    )
    .unwrap();
    assert!(execute(&mut store_exp, &held_cmd).executed());

    // ordered-result ⊑ explicit-result (Theorem 1 in action, durably).
    assert!(refines(&uni, store_exp.policy(), store_ord.policy()));
    assert!(!refines(&uni, store_ord.policy(), store_exp.policy()));
}

/// How the durable batch in [`published_state_is_the_store_state`] ends.
#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// Writing the batch's WAL record fails halfway.
    Append,
    /// The batch's WAL record is written whole, then its sync fails.
    Sync,
}

/// A universe as far as ids go: its tag, its names and every term.
fn universe_ids(u: &Universe) -> (UniverseTag, Vec<String>, Vec<String>, Vec<PrivTerm>) {
    (
        u.tag(),
        u.users().map(|id| u.user_name(id).to_owned()).collect(),
        u.roles().map(|id| u.role_name(id).to_owned()).collect(),
        (0..u.term_count())
            .map(|i| u.term(PrivId::from_index(i)))
            .collect(),
    )
}

/// After one batch that ends with `fault`, a durable monitor's published
/// `(universe, policy)` is its store's state: the batch's whole outcome
/// without a fault, the state before it with one. The store's state is
/// read off disk twice: a copy of the directory replays the WAL, and the
/// original, compacted by the monitor, holds the store's live state as
/// a snapshot.
fn published_state_is_the_store_state(mode: AuthMode, fault: Fault) {
    let (uni, policy, users, roles) = workload(4);
    let queue = generate_queue(
        &uni,
        &policy,
        &users,
        &roles,
        QueueSpec {
            len: 20,
            valid_ratio: 0.8,
            seed: 4,
        },
    );
    let commands: Vec<Command> = queue.iter().copied().collect();
    let dir = TempDir::new("published-is-store").unwrap();
    let mut store = PolicyStore::create(dir.path(), uni, policy, mode).unwrap();
    match fault {
        Fault::None => {}
        Fault::Append => store.inject_append_failure(),
        Fault::Sync => store.inject_sync_failure(),
    }
    let before = (universe_ids(store.universe()), store.policy().clone());
    let config = MonitorConfig {
        autocompact_log_len: None,
        ..MonitorConfig::default()
    };
    let monitor = ReferenceMonitor::with_store(store, config);
    let applied = match monitor.submit_batch(&commands) {
        Ok(outcomes) => {
            assert!(matches!(fault, Fault::None), "{fault:?} went unreported");
            assert!(
                outcomes.iter().any(|o| o.changed),
                "the batch changed the policy"
            );
            20
        }
        Err(MonitorError::Store(_)) if !matches!(fault, Fault::None) => 0,
        Err(e) => panic!("{fault:?}: {e}"),
    };
    let (published_uni, published_policy) = monitor.snapshot();
    if applied == 0 {
        assert_eq!(monitor.version(), 0, "{fault:?}: nothing published");
        assert_eq!(monitor.audit_len(), 0, "{fault:?}: nothing audited");
        assert_eq!(
            (universe_ids(&published_uni), published_policy.clone()),
            before,
            "{fault:?}"
        );
    }

    let copy = TempDir::new("published-is-store-copy").unwrap();
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.path().join(entry.file_name())).unwrap();
    }
    let (replayed, report) = PolicyStore::open(copy.path(), mode).unwrap();
    assert_eq!(report.replayed, applied, "{fault:?}");
    assert_eq!(
        replayed.policy(),
        &published_policy,
        "{fault:?}: WAL replay"
    );
    assert_eq!(
        universe_ids(replayed.universe()),
        universe_ids(&published_uni),
        "{fault:?}: WAL replay"
    );

    monitor.compact().unwrap();
    drop(monitor);
    let (live, report) = PolicyStore::open(dir.path(), mode).unwrap();
    assert_eq!(report.replayed, 0, "the snapshot is the store's live state");
    assert_eq!(live.policy(), &published_policy, "{fault:?}: live store");
    assert_eq!(
        universe_ids(live.universe()),
        universe_ids(&published_uni),
        "{fault:?}: live store"
    );
}

#[test]
fn published_state_is_the_store_state_after_a_clean_batch() {
    published_state_is_the_store_state(AuthMode::Explicit, Fault::None);
    published_state_is_the_store_state(AuthMode::Ordered(OrderingMode::Extended), Fault::None);
}

#[test]
fn published_state_is_the_store_state_after_an_append_failure() {
    published_state_is_the_store_state(AuthMode::Explicit, Fault::Append);
    published_state_is_the_store_state(AuthMode::Ordered(OrderingMode::Extended), Fault::Append);
}

#[test]
fn published_state_is_the_store_state_after_a_sync_failure() {
    published_state_is_the_store_state(AuthMode::Explicit, Fault::Sync);
    published_state_is_the_store_state(AuthMode::Ordered(OrderingMode::Extended), Fault::Sync);
}

/// A replica bootstrapped onto a universe that grew since it started
/// applies a delta naming ids only the new universe has: it checks
/// deltas against the published universe, not the one it booted with.
#[test]
fn replica_applies_deltas_over_a_grown_universe() {
    let (uni, policy) = hospital_fig2();
    assert!(uni.find_user("carol").is_none());
    let replica = ReferenceMonitor::new(uni.clone(), policy.clone(), MonitorConfig::default());
    let mut grown = uni;
    let carol = grown.user("carol");
    let auditors = grown.role("auditors");
    replica
        .install_replica_state(grown.clone(), policy.clone(), 7, ConstraintSet::default())
        .unwrap();
    let edge = Edge::UserRole(carol, auditors);
    let mut next = policy;
    next.add_edge(edge);
    let checksum = PolicySnapshot::build(grown, next, 8).checksum();
    replica
        .apply_replica_deltas(8, &[EdgeDelta { edge, added: true }], checksum)
        .unwrap();
    let published = replica.read_snapshot();
    assert_eq!(published.epoch, 8);
    assert_eq!(published.checksum(), checksum);
    assert!(published.policy().contains_edge(edge));
}
