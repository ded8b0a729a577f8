//! The durable policy store: snapshot + command log + live state.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/policy.snap    snapshot: universe + policy + base sequence
//! <dir>/commands.log   CRC-framed batches appended since the snapshot
//! ```
//!
//! A batch is decided before it reaches the store — simulated through
//! Definition 5 ([`admission::simulate_batch`]) — and
//! [`commit`](PolicyStore::commit) logs it as one record, syncs once,
//! and only then adopts the decided state; on any failure the log and
//! the state are as they were. Opening a store loads the snapshot and
//! replays the log through the same deterministic transition function,
//! so the recovered state is exactly the pre-crash state after the last
//! whole batch on disk. `compact` folds the log into a fresh snapshot.

use std::borrow::Cow;
use std::path::{Path, PathBuf};

use adminref_core::admission::{self, ConstraintSet};
use adminref_core::command::Command;
use adminref_core::policy::Policy;
use adminref_core::transition::{step, AuthMode, StepOutcome};
use adminref_core::universe::Universe;

use crate::log::{CommandLog, Fault, LogEntry, StoreError};
use crate::snapshot::{load_snapshot, write_snapshot};

const SNAPSHOT_FILE: &str = "policy.snap";
const LOG_FILE: &str = "commands.log";

/// What recovery found when opening a store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// Entries replayed from the log.
    pub replayed: usize,
    /// Whether a torn tail was truncated.
    pub truncated_tail: bool,
    /// Entries whose recorded authorization outcome differed on replay
    /// (should be zero; nonzero indicates the log and snapshot are from
    /// different histories).
    pub divergent: usize,
}

/// A durable administrative policy store.
#[derive(Debug)]
pub struct PolicyStore {
    dir: PathBuf,
    universe: Universe,
    policy: Policy,
    log: CommandLog,
    auth_mode: AuthMode,
    constraints: ConstraintSet,
}

impl PolicyStore {
    /// Creates a new store at `dir` with the given initial state, writing
    /// the initial snapshot.
    pub fn create(
        dir: &Path,
        universe: Universe,
        policy: Policy,
        auth_mode: AuthMode,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let constraints = ConstraintSet::default();
        let mut log = CommandLog::open(&dir.join(LOG_FILE))?.log;
        log.reset(0)?;
        // Its directory sync makes the log's creation durable too.
        write_snapshot(
            &dir.join(SNAPSHOT_FILE),
            &universe,
            &policy,
            0,
            &constraints,
        )?;
        Ok(PolicyStore {
            dir: dir.to_path_buf(),
            universe,
            policy,
            log,
            auth_mode,
            constraints,
        })
    }

    /// Opens an existing store, replaying the log records the snapshot
    /// does not already hold.
    pub fn open(dir: &Path, auth_mode: AuthMode) -> Result<(Self, RecoveryReport), StoreError> {
        let snap = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let recovered = CommandLog::open_from(&dir.join(LOG_FILE), snap.base_seq)?;
        let mut universe = snap.universe;
        let mut policy = snap.policy;
        // The snapshot's constraint set, overridden by the latest WAL
        // declaration (last-writer-wins).
        let constraints = recovered.constraints.unwrap_or(snap.constraints);
        let mut report = RecoveryReport {
            replayed: recovered.entries.len(),
            truncated_tail: recovered.truncated_tail,
            divergent: 0,
        };
        for LogEntry {
            command, executed, ..
        } in &recovered.entries
        {
            let outcome = step(&mut universe, &mut policy, command, auth_mode);
            if outcome.executed() != *executed {
                report.divergent += 1;
            }
        }
        Ok((
            PolicyStore {
                dir: dir.to_path_buf(),
                universe,
                policy,
                log: recovered.log,
                auth_mode,
                constraints,
            },
            report,
        ))
    }

    /// Executes a batch of commands: simulates it through Definition 5
    /// against the live state, then [`commit`](Self::commit)s the
    /// result — one log record, one sync.
    ///
    /// Returns every command's outcome, or no outcomes and the error
    /// when the batch could not be made durable (the live state and the
    /// log are then as they were).
    pub fn execute_batch<'a>(
        &mut self,
        commands: impl IntoIterator<Item = &'a Command>,
    ) -> (Vec<StepOutcome>, Result<(), StoreError>) {
        let commands: Vec<Command> = commands.into_iter().copied().collect();
        let (universe, policy, outcomes) =
            admission::simulate_batch(&self.universe, &self.policy, &commands, self.auth_mode);
        let grown = match universe {
            Cow::Owned(universe) => Some(universe),
            Cow::Borrowed(_) => None,
        };
        match self.log_then_adopt(&commands, &outcomes, grown, policy) {
            Ok(()) => (outcomes, Ok(())),
            Err(e) => (Vec::new(), Err(e)),
        }
    }

    /// Makes a decided batch durable, then adopts its outcome: logs
    /// `commands` with their `outcomes` as one record, syncs it, and
    /// only then takes `(universe, policy)` — the state the batch led to
    /// from this store's state — as the live state. On an error nothing
    /// changed: not the log, not the state.
    ///
    /// The policy clone is `Arc` bumps; the universe is copied only when
    /// the batch interned a term.
    pub fn commit(
        &mut self,
        commands: &[Command],
        outcomes: &[StepOutcome],
        universe: &Universe,
        policy: &Policy,
    ) -> Result<(), StoreError> {
        let grown = (universe.term_count() != self.universe.term_count()).then(|| universe.clone());
        self.log_then_adopt(commands, outcomes, grown, policy.clone())
    }

    fn log_then_adopt(
        &mut self,
        commands: &[Command],
        outcomes: &[StepOutcome],
        grown: Option<Universe>,
        policy: Policy,
    ) -> Result<(), StoreError> {
        if !commands.is_empty() {
            let entries = outcomes.iter().map(StepOutcome::executed);
            self.log
                .commit_batch(entries.zip(commands.iter().copied()).collect())?;
        }
        if let Some(universe) = grown {
            self.universe = universe;
        }
        self.policy = policy;
        Ok(())
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync()
    }

    /// Failure-injection hook for fault tests: the next commit writes
    /// half its record, then fails once with a synthetic I/O error. Not
    /// intended for production use.
    pub fn inject_append_failure(&mut self) {
        self.log.inject(Fault::Append);
    }

    /// Failure-injection hook for fault tests: the next commit writes
    /// its whole record, then its sync fails once with a synthetic I/O
    /// error. Not intended for production use.
    pub fn inject_sync_failure(&mut self) {
        self.log.inject(Fault::Sync);
    }

    /// Folds the log into a fresh snapshot (including the live
    /// constraint set) and truncates it. The snapshot is durable before
    /// the truncation starts, and records it already holds are skipped
    /// on open, so a crash at any point recovers the same state.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let base = self.log.next_seq();
        write_snapshot(
            &self.dir.join(SNAPSHOT_FILE),
            &self.universe,
            &self.policy,
            base,
            &self.constraints,
        )?;
        self.log.reset(base)?;
        Ok(())
    }

    /// Durably replaces the admission constraint set: appends a WAL
    /// record and fsyncs before the live set changes, so a crash can
    /// never lose an acknowledged declaration.
    pub fn set_constraints(&mut self, constraints: ConstraintSet) -> Result<(), StoreError> {
        self.log.append_constraints(&constraints)?;
        self.constraints = constraints;
        Ok(())
    }

    /// The live admission constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The live universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The live policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The authorization mode commands are executed under.
    pub fn auth_mode(&self) -> AuthMode {
        self.auth_mode
    }

    /// Commands (and constraint declarations) in the log since the last
    /// snapshot.
    pub fn log_len(&self) -> u64 {
        self.log.len()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::universe::Edge;

    fn sample() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        b = b.assign_priv("hr", g);
        b.finish()
    }

    /// Executes one batch and insists it was made durable.
    fn execute(store: &mut PolicyStore, commands: &[Command]) -> Vec<StepOutcome> {
        let (outcomes, status) = store.execute_batch(commands);
        status.unwrap();
        outcomes
    }

    #[test]
    fn create_execute_reopen() {
        let dir = TempDir::new("store").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        {
            let mut store =
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
            let out = execute(
                &mut store,
                &[Command::grant(jane, Edge::UserRole(bob, staff))],
            );
            assert!(out[0].executed());
        }
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.divergent, 0);
        assert!(!report.truncated_tail);
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn execute_batch_matches_serial_execution_and_is_durable() {
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let batch = [
            Command::grant(jane, Edge::UserRole(bob, staff)),
            Command::grant(bob, Edge::UserRole(jane, staff)), // refused
            Command::revoke(jane, Edge::UserRole(bob, staff)), // refused: jane holds no ♦
        ];

        let dir = TempDir::new("batch").unwrap();
        let mut batched =
            PolicyStore::create(dir.path(), uni.clone(), policy.clone(), AuthMode::Explicit)
                .unwrap();
        let batch_outcomes = execute(&mut batched, &batch);
        let (mut serial_uni, mut serial) = (uni, policy);
        let serial_outcomes: Vec<StepOutcome> = batch
            .iter()
            .map(|c| step(&mut serial_uni, &mut serial, c, AuthMode::Explicit))
            .collect();
        assert_eq!(batch_outcomes, serial_outcomes);
        assert_eq!(batched.policy(), &serial);
        assert_eq!(batched.log_len(), 3);

        // The batch is durable without a further sync (recovery replays
        // the identical sequence).
        drop(batched);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.divergent, 0);
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    /// A batch of three commands grows the log by exactly one CRC frame
    /// and costs exactly one `fsync`.
    #[test]
    fn a_batch_is_one_record_and_one_sync() {
        let dir = TempDir::new("one-record").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        let syncs = store.log.syncs();
        execute(
            &mut store,
            &[
                Command::grant(jane, Edge::UserRole(bob, staff)),
                Command::grant(bob, Edge::UserRole(jane, staff)),
                Command::grant(jane, Edge::UserRole(jane, staff)),
            ],
        );
        assert_eq!(store.log.syncs(), syncs + 1, "one sync per batch");
        assert_eq!(store.log_len(), 3, "the log still counts commands");
        let bytes = std::fs::read(dir.path().join(LOG_FILE)).unwrap();
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(bytes.len(), 8 + len, "one frame holds the whole batch");
    }

    /// A commit whose append or sync fails leaves the log's length, the
    /// live state and the sequence as they were, and the next commit
    /// goes through and replays.
    #[test]
    fn a_failed_commit_changes_nothing() {
        for fault in [Fault::Append, Fault::Sync] {
            let dir = TempDir::new("failed-commit").unwrap();
            let (uni, policy) = sample();
            let jane = uni.find_user("jane").unwrap();
            let bob = uni.find_user("bob").unwrap();
            let staff = uni.find_role("staff").unwrap();
            let grant = Command::grant(jane, Edge::UserRole(bob, staff));
            let mut store =
                PolicyStore::create(dir.path(), uni, policy.clone(), AuthMode::Explicit).unwrap();
            execute(
                &mut store,
                &[Command::grant(bob, Edge::UserRole(jane, staff))],
            );
            let log_path = dir.path().join(LOG_FILE);
            let before = std::fs::read(&log_path).unwrap();
            store.log.inject(fault);
            let (outcomes, status) = store.execute_batch(&[grant, grant]);
            assert!(status.is_err(), "{fault:?}");
            assert!(outcomes.is_empty(), "{fault:?}: nothing applied");
            assert_eq!(std::fs::read(&log_path).unwrap(), before, "{fault:?}");
            assert_eq!(store.policy(), &policy, "{fault:?}");
            assert_eq!((store.log_len(), store.log.next_seq()), (1, 1), "{fault:?}");
            assert!(execute(&mut store, &[grant])[0].executed(), "{fault:?}");
            drop(store);
            let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
            assert_eq!((report.replayed, report.divergent), (2, 0), "{fault:?}");
            assert!(!report.truncated_tail, "{fault:?}");
            assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
        }
    }

    #[test]
    fn refused_commands_are_logged_too() {
        let dir = TempDir::new("refused").unwrap();
        let (uni, policy) = sample();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        // Bob has no authority yet.
        let out = execute(
            &mut store,
            &[Command::grant(bob, Edge::UserRole(bob, staff))],
        );
        assert!(!out[0].executed());
        assert_eq!(store.log_len(), 1);
        drop(store);
        let (_, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.divergent, 0);
    }

    #[test]
    fn compact_folds_log_into_snapshot() {
        let dir = TempDir::new("compact").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        execute(
            &mut store,
            &[Command::grant(jane, Edge::UserRole(bob, staff))],
        );
        store.compact().unwrap();
        assert_eq!(store.log_len(), 0);
        drop(store);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 0, "log was folded into the snapshot");
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    /// A compaction whose log truncation never reached the disk: the old
    /// records are still there after the new snapshot. x grants bob
    /// staff, y revokes it, and root then revokes y's membership of
    /// `revokers`; replayed over the snapshot, y's revoke is refused and
    /// bob ends on staff, a state never published. Reopen must skip the
    /// records the snapshot holds, and a reopened log keeps numbering
    /// after them.
    #[test]
    fn compaction_survives_a_lost_truncation() {
        let mut b = PolicyBuilder::new()
            .assign("x", "granters")
            .assign("y", "revokers")
            .assign("root", "admins")
            .declare_user("bob")
            .declare_role("staff");
        let u = b.universe_mut();
        let [x, y, root, bob] = ["x", "y", "root", "bob"].map(|n| u.find_user(n).unwrap());
        let [staff, revokers] = ["staff", "revokers"].map(|n| u.find_role(n).unwrap());
        let grant = u.grant_user_role(bob, staff);
        let revoke = u.revoke_user_role(bob, staff);
        let demote = u.revoke_user_role(y, revokers);
        b = b
            .assign_priv("granters", grant)
            .assign_priv("revokers", revoke)
            .assign_priv("admins", demote);
        let (uni, policy) = b.finish();
        let dir = TempDir::new("lost-truncation").unwrap();
        let log_path = dir.path().join(LOG_FILE);
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        let batch = [
            Command::grant(x, Edge::UserRole(bob, staff)),
            Command::revoke(y, Edge::UserRole(bob, staff)),
            Command::revoke(root, Edge::UserRole(y, revokers)),
        ];
        assert!(execute(&mut store, &batch).iter().all(|o| o.executed()));
        let published = store.policy().clone();
        let old_log = std::fs::read(&log_path).unwrap();
        store.compact().unwrap();
        drop(store);
        std::fs::write(&log_path, &old_log).unwrap();

        let (mut store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!((report.replayed, report.divergent), (0, 0));
        assert_eq!(store.policy(), &published);
        assert!(!store.policy().contains_edge(Edge::UserRole(bob, staff)));
        assert_eq!(
            store.log_len(),
            0,
            "records the snapshot holds are not counted"
        );
        execute(&mut store, &[Command::grant(x, Edge::UserRole(bob, staff))]);
        drop(store);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!((report.replayed, report.divergent), (1, 0));
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn constraints_survive_recovery_and_compaction() {
        let dir = TempDir::new("storecons").unwrap();
        let (uni, policy) = sample();
        let hr = uni.find_role("hr").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let declared = ConstraintSet {
            sod_pairs: vec![(hr.min(staff), hr.max(staff))],
            ..ConstraintSet::default()
        };
        {
            let mut store =
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
            assert!(store.constraints().is_empty());
            store.set_constraints(declared.clone()).unwrap();
        }
        // WAL record alone restores the set.
        let (mut store, _) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(store.constraints(), &declared);
        // Compaction folds it into the snapshot; a fresh open with an
        // empty log still sees it.
        store.compact().unwrap();
        drop(store);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(store.constraints(), &declared);
    }

    #[test]
    fn crash_recovery_keeps_durable_prefix() {
        let dir = TempDir::new("crash").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        {
            let mut store =
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
            execute(
                &mut store,
                &[Command::grant(jane, Edge::UserRole(bob, staff))],
            );
            execute(
                &mut store,
                &[Command::revoke(jane, Edge::UserRole(bob, staff))],
            );
            // no clean shutdown: just drop
        }
        // Simulate a torn tail: chop bytes off the log.
        let log_path = dir.path().join("commands.log");
        let bytes = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &bytes[..bytes.len() - 5]).unwrap();
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert!(report.truncated_tail);
        assert_eq!(report.replayed, 1, "second batch was torn");
        assert!(
            store.policy().contains_edge(Edge::UserRole(bob, staff)),
            "state reflects the surviving prefix only"
        );
    }

    #[test]
    fn ordered_mode_round_trips_through_recovery() {
        use adminref_core::ordering::OrderingMode;
        let dir = TempDir::new("ordered").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let mode = AuthMode::Ordered(OrderingMode::Extended);
        {
            let mut store = PolicyStore::create(dir.path(), uni, policy, mode).unwrap();
            // Only authorized in ordered mode (weaker than ¤(bob, staff)).
            let out = execute(
                &mut store,
                &[Command::grant(jane, Edge::UserRole(bob, dbusr2))],
            );
            assert!(out[0].executed());
        }
        let (store, report) = PolicyStore::open(dir.path(), mode).unwrap();
        assert_eq!(report.divergent, 0, "replay in the same mode agrees");
        assert!(store.policy().contains_edge(Edge::UserRole(bob, dbusr2)));
        // Replaying under a *different* mode diverges — detected.
        let (_, report2) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report2.divergent, 1);
    }
}
