//! Group commit: a daemon's concurrent submits coalesce into one monitor
//! batch, executed by one committer thread.
//!
//! The monitor's write path is serial by design (Definition 5 is a
//! serial semantics), so what matters under concurrent writers is how
//! much each pass over the writer lock retires. Executed one by one,
//! every request costs a WAL sync, an index derivation and an epoch; the
//! combiner retires the whole in-flight queue per pass:
//!
//! 1. a daemon connection's reader appends its burst of submits, each
//!    under its request id, and goes back to its socket; the first
//!    burst starts the committer thread;
//! 2. the committer waits until something is queued, then, under a
//!    gather window
//!    ([`MonitorService::with_write_gather`](crate::MonitorService::with_write_gather)),
//!    until the queue holds the *population* the last drain proved —
//!    the requests it executed plus those queued behind it when it
//!    finished executing — or the window closes. A drain with nothing
//!    queued behind it proves only its own size, so a lone connection
//!    never waits out the window;
//! 3. it executes *everything* queued as **one** `submit_batch` — one
//!    Definition-5 serial execution, one WAL record and sync, one
//!    published epoch — and only then (**ack after sync**) writes each
//!    connection's reply train, one flush per connection.
//!
//! In-process callers never queue here: the services execute their
//! submits directly, serialized by the monitor's writer lock.
//!
//! Requests stay atomic and contiguous, so the outcome sequence equals
//! *some* serial interleaving of the submitters — the drain order, which
//! the `service_protocol` suite checks by replaying the audit order
//! through Definition 5. A group is one WAL record: a store failure
//! applies none of it, and every request gets [`ServiceError::Backend`]
//! with no outcomes. A panicking drain is caught: each request it has
//! not answered gets [`ServiceError::Aborted`], and the committer serves
//! on. Dropping the combiner drains what is queued, then joins the
//! committer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use adminref_core::command::Command;
use adminref_core::transition::StepOutcome;
use adminref_monitor::{MonitorError, ReferenceMonitor};
use adminref_store::StoreError;

use crate::protocol::ServiceError;

/// The result a submitter receives for its own request.
pub type SubmitResult = Result<Vec<StepOutcome>, ServiceError>;

/// Locks a mutex, surviving poison: the mutexes of this crate guard
/// plain data, so a panicking thread must not wedge everyone else.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A connection whose submits the committer answers (the daemon's).
pub(crate) trait ReplyTo: Send + Sync {
    /// Writes one train of replies, in order, with one flush. The
    /// committer calls it on the serial commit path, so it must not block
    /// without bound.
    fn reply(&self, replies: Vec<(u64, SubmitResult)>);
}

/// One enqueued submit, answered through `to` under `id`.
struct PendingWrite {
    commands: Vec<Command>,
    to: Arc<dyn ReplyTo>,
    id: u64,
}

#[derive(Default)]
struct Queue {
    pending: Vec<PendingWrite>,
    /// The population the last drain proved (see the module docs).
    population: usize,
    /// The committer, once the first burst has started it.
    committer: Option<JoinHandle<()>>,
    /// Set on drop: the committer drains what is queued, then exits.
    stopping: bool,
}

/// What the combiner and its committer thread share.
struct Shared {
    monitor: Arc<ReferenceMonitor>,
    /// Gather window; zero drains at once.
    gather: Duration,
    queue: Mutex<Queue>,
    /// Wakes the committer: the queue became non-empty, its gather's
    /// population arrived, or the combiner is dropped.
    arrived: Condvar,
}

/// The write combiner; see the module docs.
///
/// One `GroupCommit` serializes the network writes of one monitor, which
/// it shares with the service that owns it.
pub struct GroupCommit {
    shared: Arc<Shared>,
}

impl GroupCommit {
    /// A combiner over `monitor` that drains at once.
    pub(crate) fn new(monitor: Arc<ReferenceMonitor>) -> Self {
        GroupCommit::with_gather(monitor, Duration::ZERO)
    }

    /// A combiner whose committer waits up to `gather` for the proven
    /// population before executing (see the module docs).
    pub(crate) fn with_gather(monitor: Arc<ReferenceMonitor>, gather: Duration) -> Self {
        GroupCommit {
            shared: Arc::new(Shared {
                monitor,
                gather,
                queue: Mutex::default(),
                arrived: Condvar::new(),
            }),
        }
    }

    /// Enqueues one connection's burst of submits, each answered through
    /// `to` under its request id after the drain that executes it. Returns
    /// at once. The first burst starts the committer; if that spawn fails,
    /// the burst is answered [`ServiceError::Aborted`] and the next one
    /// tries again.
    pub(crate) fn submit_replying(&self, to: &Arc<dyn ReplyTo>, burst: Vec<(u64, Vec<Command>)>) {
        let mut queue = lock_unpoisoned(&self.shared.queue);
        if queue.committer.is_none() {
            let shared = Arc::clone(&self.shared);
            let spawned = thread::Builder::new()
                .name("adminref-committer".into())
                .spawn(move || shared.run());
            match spawned {
                Ok(committer) => queue.committer = Some(committer),
                Err(_) => {
                    drop(queue);
                    let aborted = burst
                        .into_iter()
                        .map(|(id, _)| (id, Err(ServiceError::Aborted)));
                    return to.reply(aborted.collect());
                }
            }
        }
        let before = queue.pending.len();
        let pending = burst.into_iter().map(|(id, commands)| PendingWrite {
            commands,
            to: Arc::clone(to),
            id,
        });
        queue.pending.extend(pending);
        // Wake the committer only if it may be waiting for this: for any
        // request, or for its gather's population.
        let target = queue.population.max(1);
        let wake = before == 0 || (before < target && queue.pending.len() >= target);
        drop(queue);
        if wake {
            self.shared.arrived.notify_one();
        }
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        let committer = {
            let mut queue = lock_unpoisoned(&self.shared.queue);
            queue.stopping = true;
            queue.committer.take()
        };
        self.shared.arrived.notify_one();
        let _ = committer.map(JoinHandle::join);
    }
}

impl Shared {
    /// The committer thread: drain until stopped with nothing queued.
    fn run(&self) {
        while let Some(group) = self.next_group() {
            self.drain(group);
        }
    }

    /// Waits until something is queued, then within the window for the
    /// proven population, and takes everything queued. `None` once the
    /// combiner is dropped and the queue is empty.
    fn next_group(&self) -> Option<Vec<PendingWrite>> {
        let queue = lock_unpoisoned(&self.queue);
        let mut queue = self
            .arrived
            .wait_while(queue, |queue| queue.pending.is_empty() && !queue.stopping)
            .unwrap_or_else(PoisonError::into_inner);
        let target = queue.population;
        if !self.gather.is_zero() && queue.pending.len() < target {
            queue = self
                .arrived
                .wait_timeout_while(queue, self.gather, |queue| {
                    queue.pending.len() < target && !queue.stopping
                })
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let group = std::mem::take(&mut queue.pending);
        (!group.is_empty()).then_some(group)
    }

    /// Executes one group and answers it. A panic anywhere in here
    /// answers every request not yet answered [`ServiceError::Aborted`];
    /// a reply train that panics again is skipped.
    fn drain(&self, group: Vec<PendingWrite>) {
        let mut answered = 0;
        let drained = catch_unwind(AssertUnwindSafe(|| {
            let results = execute_group(&self.monitor, &group);
            // Counted before any result leaves, so a released submitter's
            // next request is not counted twice.
            let mut queue = lock_unpoisoned(&self.queue);
            queue.population = group.len() + queue.pending.len();
            drop(queue);
            // Ack after sync: `execute_group` returned, so did the group's
            // WAL sync; only now does any result leave.
            deliver(&group, results, &mut answered);
        }));
        while drained.is_err() && answered < group.len() {
            let aborted = std::iter::repeat_with(|| Err(ServiceError::Aborted));
            let _ = catch_unwind(AssertUnwindSafe(|| deliver(&group, aborted, &mut answered)));
        }
    }
}

/// Delivers `results` (one per request, in order) from `group[answered..]`
/// on: each connection's run of consecutive requests gets one reply
/// train. `answered` counts each train before it is written, so no
/// request is answered twice.
fn deliver(
    group: &[PendingWrite],
    results: impl IntoIterator<Item = SubmitResult>,
    answered: &mut usize,
) {
    let mut results = results.into_iter();
    let mut next = || results.next().unwrap_or(Err(ServiceError::Aborted));
    while let Some(first) = group.get(*answered) {
        let train: Vec<(u64, SubmitResult)> = group[*answered..]
            .iter()
            .take_while(|request| Arc::ptr_eq(&request.to, &first.to))
            .map(|request| (request.id, next()))
            .collect();
        *answered += train.len();
        first.to.reply(train);
    }
}

/// Executes one drained group as a single monitor batch and returns
/// every request's own result, in group order. A failed batch applied
/// nothing, so every request hears the error and may be retried whole.
/// An admission refusal of the *combined* batch, though, judged a state
/// no single request asked for, so a group of several re-executes each
/// request as its own batch: clean ones apply, violating ones get
/// [`ServiceError::Admission`].
fn execute_group(monitor: &ReferenceMonitor, group: &[PendingWrite]) -> Vec<SubmitResult> {
    let combined: Vec<Command> = group
        .iter()
        .flat_map(|request| request.commands.iter().copied())
        .collect();
    let error = match monitor.submit_batch(&combined) {
        Ok(outcomes) => {
            let mut outcomes = outcomes.into_iter();
            return group
                .iter()
                .map(|request| Ok(outcomes.by_ref().take(request.commands.len()).collect()))
                .collect();
        }
        Err(MonitorError::Admission(_)) if group.len() > 1 => {
            return group
                .iter()
                .map(|request| Ok(monitor.submit_batch(&request.commands)?))
                .collect();
        }
        Err(error) => error,
    };
    group
        .iter()
        .map(|_| {
            Err(match &error {
                MonitorError::Admission(report) => ServiceError::Admission(report.clone()),
                // The store's error type is not Clone (it wraps
                // io::Error), so each submitter gets a synthesized copy
                // of the message.
                other => ServiceError::Backend {
                    applied: Vec::new(),
                    error: StoreError::Io(std::io::Error::other(other.to_string())),
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MonitorService, PolicyService};
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::transition::AuthMode;
    use adminref_core::universe::{Edge, Universe};
    use adminref_monitor::MonitorConfig;
    use adminref_store::{PolicyStore, TempDir};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Instant;

    fn fixture() -> (Universe, adminref_core::policy::Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .declare_user("joe")
            .declare_role("staff")
            .declare_role("nurse");
        let (bob, joe, staff, nurse) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_user("joe").unwrap(),
                u.find_role("staff").unwrap(),
                u.find_role("nurse").unwrap(),
            )
        };
        for priv_id in [
            b.universe_mut().grant_user_role(bob, staff),
            b.universe_mut().revoke_user_role(bob, staff),
            b.universe_mut().grant_user_role(joe, nurse),
            b.universe_mut().revoke_user_role(joe, nurse),
        ] {
            b = b.assign_priv("hr", priv_id);
        }
        b.finish()
    }

    /// Records every reply a connection receives, with the thread that
    /// wrote it.
    #[derive(Default)]
    struct Inbox {
        replies: Mutex<Vec<(u64, SubmitResult, ThreadId)>>,
        arrived: Condvar,
    }

    impl ReplyTo for Inbox {
        fn reply(&self, replies: Vec<(u64, SubmitResult)>) {
            let by = thread::current().id();
            let replies = replies.into_iter().map(|(id, result)| (id, result, by));
            lock_unpoisoned(&self.replies).extend(replies);
            self.arrived.notify_all();
        }
    }

    impl Inbox {
        /// Waits up to ten seconds for `n` replies, and takes them in id
        /// order.
        fn take(&self, n: usize) -> Vec<(u64, SubmitResult, ThreadId)> {
            let replies = lock_unpoisoned(&self.replies);
            let ten_seconds = Duration::from_secs(10);
            let (mut replies, _) = self
                .arrived
                .wait_timeout_while(replies, ten_seconds, |replies| replies.len() < n)
                .unwrap();
            assert_eq!(replies.len(), n, "replies that arrived");
            let mut taken = std::mem::take(&mut *replies);
            taken.sort_by_key(|(id, ..)| *id);
            taken
        }
    }

    /// One connection's round trip: `requests` as one burst (ids 0..),
    /// then every reply, in id order, with the thread that wrote it.
    fn round_trip(
        commit: &GroupCommit,
        inbox: &Arc<Inbox>,
        requests: Vec<Vec<Command>>,
    ) -> Vec<(SubmitResult, ThreadId)> {
        let n = requests.len();
        let to: Arc<dyn ReplyTo> = inbox.clone();
        commit.submit_replying(&to, (0..).zip(requests).collect());
        let replies = inbox.take(n);
        replies.into_iter().map(|(_, r, by)| (r, by)).collect()
    }

    /// A drained group, as `execute_group` sees it.
    fn group_of(requests: &[Vec<Command>]) -> Vec<PendingWrite> {
        let to: Arc<dyn ReplyTo> = Arc::new(Inbox::default());
        (0..)
            .zip(requests)
            .map(|(id, commands)| PendingWrite {
                commands: commands.clone(),
                to: Arc::clone(&to),
                id,
            })
            .collect()
    }

    /// Three requests executed as one drain: the results slice the
    /// combined outcomes back per request.
    #[test]
    fn distribution_slices_outcomes_per_request() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let requests = [
            vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            vec![
                Command::grant(jane, Edge::UserRole(joe, nurse)),
                Command::grant(bob, Edge::UserRole(jane, staff)), // refused
            ],
            vec![Command::revoke(jane, Edge::UserRole(bob, staff))],
        ];
        let results: Vec<Vec<StepOutcome>> = execute_group(&monitor, &group_of(&requests))
            .into_iter()
            .map(|r| r.expect("applied"))
            .collect();
        assert_eq!(results[0].len(), 1);
        assert!(results[0][0].executed());
        assert_eq!(results[1].len(), 2);
        assert!(results[1][0].executed());
        assert!(!results[1][1].executed(), "forged grant is refused");
        assert_eq!(results[2].len(), 1);
        assert!(results[2][0].executed());
        // One group, one epoch.
        assert_eq!(monitor.version(), 1);
        assert_eq!(monitor.audit_len(), 4);
    }

    /// Three requests whose group fails when the store appends its one
    /// WAL record: every request hears `Backend` with no outcomes, and
    /// the group left no trace — no epoch, no audit record, no edge — so
    /// it can be retried whole, and then applies.
    #[test]
    fn a_failed_group_applies_nothing_and_answers_every_request() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dir = TempDir::new("group-commit-fail").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        store.inject_append_failure();
        let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
        let requests = [
            vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            vec![
                Command::grant(jane, Edge::UserRole(joe, nurse)),
                Command::revoke(jane, Edge::UserRole(joe, nurse)),
            ],
            vec![Command::revoke(jane, Edge::UserRole(bob, staff))],
        ];
        for result in execute_group(&monitor, &group_of(&requests)) {
            match result {
                Err(ServiceError::Backend { applied, error }) => {
                    assert!(applied.is_empty(), "nothing was applied");
                    assert!(
                        error.to_string().contains("injected append failure"),
                        "{error}"
                    );
                }
                other => panic!("expected Backend error, got {other:?}"),
            }
        }
        assert_eq!((monitor.version(), monitor.audit_len()), (0, 0));
        let (_, live) = monitor.snapshot();
        assert!(!live.contains_edge(Edge::UserRole(bob, staff)));
        assert!(!live.contains_edge(Edge::UserRole(joe, nurse)));
        // The retried group applies whole.
        let retried = execute_group(&monitor, &group_of(&requests));
        assert!(retried
            .iter()
            .all(|r| r.as_ref().is_ok_and(|o| o[0].executed())));
        assert_eq!((monitor.version(), monitor.audit_len()), (1, 4));
    }

    /// A failed batch-final sync: every submitter must hear it — silently
    /// returning `Ok` would acknowledge writes that may not survive a
    /// crash — and since the store rolled the record back, nothing was
    /// audited or published.
    #[test]
    fn batch_final_sync_failure_reaches_every_submitter() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dir = TempDir::new("group-commit-sync-fail").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        store.inject_sync_failure();
        let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
        let requests = [
            vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            vec![
                Command::grant(jane, Edge::UserRole(joe, nurse)),
                Command::revoke(jane, Edge::UserRole(joe, nurse)),
            ],
        ];
        let results = execute_group(&monitor, &group_of(&requests));
        assert_eq!(results.len(), requests.len());
        for result in results {
            match result {
                Err(ServiceError::Backend { applied, error }) => {
                    assert!(applied.is_empty(), "nothing was applied");
                    assert!(
                        error.to_string().contains("injected sync failure"),
                        "{error}"
                    );
                }
                other => panic!("expected Backend error, got {other:?}"),
            }
        }
        assert_eq!((monitor.version(), monitor.audit_len()), (0, 0));
        let (_, live) = monitor.snapshot();
        assert!(!live.contains_edge(Edge::UserRole(bob, staff)));
    }

    /// Holds each reply train until the test lets it go, and reports the
    /// ids it was handed.
    struct Gate {
        written: mpsc::Sender<u64>,
        go: Mutex<mpsc::Receiver<()>>,
    }

    impl ReplyTo for Gate {
        fn reply(&self, replies: Vec<(u64, SubmitResult)>) {
            for (id, _) in replies {
                self.written.send(id).unwrap();
            }
            lock_unpoisoned(&self.go).recv().unwrap();
        }
    }

    /// A gate, the sender that lets it go, and the receiver of what it
    /// was handed.
    fn gate() -> (Arc<dyn ReplyTo>, mpsc::Sender<()>, mpsc::Receiver<u64>) {
        let (written, writes) = mpsc::channel();
        let (go, gate) = mpsc::channel();
        let go_gate = Mutex::new(gate);
        let to = Arc::new(Gate {
            written,
            go: go_gate,
        });
        (to, go, writes)
    }

    /// A connection whose first reply train panics mid-write; every later
    /// one reaches its inbox.
    #[derive(Default)]
    struct PanicsOnce {
        panicked: AtomicBool,
        inbox: Inbox,
    }

    impl ReplyTo for PanicsOnce {
        fn reply(&self, replies: Vec<(u64, SubmitResult)>) {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("a reply train died mid-write");
            }
            self.inbox.reply(replies);
        }
    }

    /// A drain whose reply train panics answers the rest of its group
    /// `Aborted`, each request once, and the committer then serves the
    /// next burst normally.
    #[test]
    fn a_panicking_drain_answers_its_group_aborted_and_the_committer_serves_on() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let edge = Edge::UserRole(
            uni.find_user("bob").unwrap(),
            uni.find_role("staff").unwrap(),
        );
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let commit = GroupCommit::new(Arc::new(monitor));
        let (gated, go, writes) = gate();
        let panics = Arc::new(PanicsOnce::default());
        let inbox = Arc::new(Inbox::default());
        let (panics_to, inbox_to): (Arc<dyn ReplyTo>, Arc<dyn ReplyTo>) =
            (panics.clone(), inbox.clone());
        let grant = || vec![Command::grant(jane, edge)];
        let revoke = || vec![Command::revoke(jane, edge)];
        // Hold the committer in a reply train, so the next two bursts
        // land in one drain: the panicking connection's first.
        commit.submit_replying(&gated, vec![(0, grant())]);
        assert_eq!(writes.recv().unwrap(), 0);
        commit.submit_replying(&panics_to, vec![(1, revoke())]);
        commit.submit_replying(&inbox_to, vec![(2, grant()), (3, revoke())]);
        go.send(()).unwrap();
        let aborted = inbox.take(2);
        assert_eq!(
            aborted
                .iter()
                .map(|(id, r, _)| (*id, matches!(r, Err(ServiceError::Aborted))))
                .collect::<Vec<_>>(),
            [(2, true), (3, true)]
        );
        // The committer serves on.
        commit.submit_replying(&panics_to, vec![(4, grant())]);
        let served = panics.inbox.take(1);
        assert_eq!(served[0].0, 4);
        let outcomes = served[0].1.as_ref().expect("the next burst is served");
        assert!(outcomes[0].executed());
        assert!(
            lock_unpoisoned(&inbox.replies).is_empty(),
            "nothing answered twice"
        );
    }

    /// Every reply train is written by the one committer thread, never
    /// by a thread that enqueued: no daemon reader executes a drain.
    #[test]
    fn every_reply_train_is_written_by_the_committer_thread() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let edges = [
            Edge::UserRole(
                uni.find_user("bob").unwrap(),
                uni.find_role("staff").unwrap(),
            ),
            Edge::UserRole(
                uni.find_user("joe").unwrap(),
                uni.find_role("nurse").unwrap(),
            ),
        ];
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let commit = GroupCommit::new(Arc::new(monitor));
        let (submitters, writers): (Vec<ThreadId>, Vec<HashSet<ThreadId>>) =
            thread::scope(|scope| {
                let handles: Vec<_> = edges
                    .iter()
                    .map(|&edge| {
                        let commit = &commit;
                        scope.spawn(move || {
                            let inbox = Arc::new(Inbox::default());
                            let mut writers = HashSet::new();
                            for _ in 0..20 {
                                let toggle = vec![
                                    vec![Command::grant(jane, edge)],
                                    vec![Command::revoke(jane, edge)],
                                ];
                                for (result, by) in round_trip(commit, &inbox, toggle) {
                                    assert!(result.unwrap()[0].executed());
                                    writers.insert(by);
                                }
                            }
                            (thread::current().id(), writers)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).unzip()
            });
        let writers: HashSet<ThreadId> = writers.into_iter().flatten().collect();
        assert_eq!(writers.len(), 1, "one committer wrote every train");
        for thread in submitters.iter().chain([&thread::current().id()]) {
            assert!(!writers.contains(thread), "an enqueuer wrote replies");
        }
    }

    /// An in-process submit runs directly: it completes while the
    /// combiner's committer is held inside a blocked reply train.
    #[test]
    fn an_in_process_submit_never_waits_for_the_combiner() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob_staff = Edge::UserRole(
            uni.find_user("bob").unwrap(),
            uni.find_role("staff").unwrap(),
        );
        let joe_nurse = Edge::UserRole(
            uni.find_user("joe").unwrap(),
            uni.find_role("nurse").unwrap(),
        );
        let service = MonitorService::in_memory(uni, policy, MonitorConfig::default());
        let (gated, go, writes) = gate();
        let combiner = service.write_combiner().expect("a combiner");
        combiner.submit_replying(&gated, vec![(0, vec![Command::grant(jane, bob_staff)])]);
        assert_eq!(writes.recv().unwrap(), 0);
        let (done, result) = mpsc::channel();
        let result = thread::scope(|scope| {
            scope.spawn(|| done.send(service.submit(vec![Command::grant(jane, joe_nurse)])));
            let result = result.recv_timeout(Duration::from_secs(2));
            go.send(()).unwrap();
            result
        });
        let outcomes = result
            .expect("the in-process submit completed within 2 s")
            .expect("in-memory submit");
        assert!(outcomes[0].executed());
    }

    /// Dropping the combiner while its committer waits out a gather for a
    /// population that will not come answers the queued burst and returns at once,
    /// not after the window.
    #[test]
    fn dropping_mid_gather_answers_the_burst_and_returns() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let edge = Edge::UserRole(
            uni.find_user("bob").unwrap(),
            uni.find_role("staff").unwrap(),
        );
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let commit = GroupCommit::with_gather(Arc::new(monitor), Duration::from_secs(10));
        let inbox = Arc::new(Inbox::default());
        // A drain of four proves a population of four.
        let toggles = (0..4)
            .map(|i| match i % 2 {
                0 => vec![Command::grant(jane, edge)],
                _ => vec![Command::revoke(jane, edge)],
            })
            .collect();
        assert!(round_trip(&commit, &inbox, toggles)
            .iter()
            .all(|(r, _)| r.as_ref().is_ok_and(|o| o[0].executed())));
        // One request: the committer waits for three more.
        let to: Arc<dyn ReplyTo> = inbox.clone();
        commit.submit_replying(&to, vec![(4, vec![Command::grant(jane, edge)])]);
        thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        drop(commit);
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(2), "drop took {elapsed:?}");
        let answered = inbox.take(1);
        assert_eq!(answered[0].0, 4);
        assert!(answered[0].1.as_ref().unwrap()[0].executed());
    }

    /// `threads` connections, each making `rounds` round trips of a burst
    /// of `window` single-command requests that toggle its own edge,
    /// pausing `pause` between them, through a combiner with a `gather`
    /// window over a monitor over a store in `dir` (in memory without
    /// one); every outcome must execute. Returns the epochs the monitor
    /// published.
    fn toggle_windows(
        gather: Duration,
        dir: Option<&TempDir>,
        threads: usize,
        (rounds, window): (usize, usize),
        pause: Duration,
    ) -> u64 {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let edges = [
            Edge::UserRole(
                uni.find_user("bob").unwrap(),
                uni.find_role("staff").unwrap(),
            ),
            Edge::UserRole(
                uni.find_user("joe").unwrap(),
                uni.find_role("nurse").unwrap(),
            ),
        ];
        let monitor = Arc::new(match dir {
            Some(dir) => ReferenceMonitor::with_store(
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap(),
                MonitorConfig::default(),
            ),
            None => ReferenceMonitor::new(uni, policy, MonitorConfig::default()),
        });
        let commit = GroupCommit::with_gather(Arc::clone(&monitor), gather);
        // Callers start together, or the first may finish before the
        // second is scheduled.
        let start = std::sync::Barrier::new(threads);
        thread::scope(|scope| {
            for &edge in &edges[..threads] {
                let (commit, start) = (&commit, &start);
                scope.spawn(move || {
                    let inbox = Arc::new(Inbox::default());
                    start.wait();
                    for round in 0..rounds {
                        let requests = (0..window)
                            .map(|i| match (round * window + i) % 2 {
                                0 => vec![Command::grant(jane, edge)],
                                _ => vec![Command::revoke(jane, edge)],
                            })
                            .collect();
                        for (result, _) in round_trip(commit, &inbox, requests) {
                            assert!(result.expect("submit")[0].executed());
                        }
                        thread::sleep(pause);
                    }
                });
            }
        });
        monitor.version()
    }

    /// One round trip of every connection lands in one drain: the gather
    /// waits for the population the previous drain proved (executed +
    /// queued behind), asleep, so two connections with eight requests
    /// each share one epoch per round. Each pauses a millisecond between
    /// rounds, standing in for a socket round trip; the window is
    /// generous so scheduling cannot split a group, and each drain syncs
    /// a WAL so the connections overlap from the first rounds on. A
    /// committer that waits only for the last group's size, or not at
    /// all, publishes about two epochs per round.
    #[test]
    fn a_round_trip_of_every_submitter_lands_in_one_drain() {
        let rounds = 40;
        let dir = TempDir::new("group-commit-round-trip").unwrap();
        let gather = Duration::from_millis(200);
        let pause = Duration::from_millis(1);
        let epochs = toggle_windows(gather, Some(&dir), 2, (rounds, 8), pause);
        assert!(
            epochs <= rounds as u64 + 2,
            "{epochs} epochs for {rounds} rounds of two connections"
        );
    }

    /// A lone connection proves a population of one, so it never waits
    /// out the window: twenty sequential round trips finish well inside
    /// a single 200 ms window.
    #[test]
    fn a_lone_submitter_never_pays_the_gather() {
        let start = Instant::now();
        let gather = Duration::from_millis(200);
        let epochs = toggle_windows(gather, None, 1, (20, 1), Duration::ZERO);
        assert_eq!(epochs, 20);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "20 solo round trips took {:?}",
            start.elapsed()
        );
    }

    /// A monitor with room to audit every command of the tests below.
    fn roomy_monitor() -> Arc<ReferenceMonitor> {
        let (uni, policy) = fixture();
        let config = MonitorConfig {
            audit_capacity: 4096,
            ..MonitorConfig::default()
        };
        Arc::new(ReferenceMonitor::new(uni, policy, config))
    }

    /// Concurrent connections: every request is answered, every command
    /// audited exactly once, and epochs count the drained groups (at most
    /// one per request, typically far fewer).
    #[test]
    fn concurrent_submitters_all_complete() {
        let (uni, _) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let monitor = roomy_monitor();
        let commit = GroupCommit::new(Arc::clone(&monitor));
        let rounds = 50usize;
        thread::scope(|scope| {
            for (user, role) in [(bob, staff), (joe, nurse)] {
                let commit = &commit;
                scope.spawn(move || {
                    let inbox = Arc::new(Inbox::default());
                    for _ in 0..rounds {
                        let toggle = vec![
                            Command::grant(jane, Edge::UserRole(user, role)),
                            Command::revoke(jane, Edge::UserRole(user, role)),
                        ];
                        let (result, _) = round_trip(commit, &inbox, vec![toggle]).remove(0);
                        let outcomes = result.expect("in-memory submit");
                        assert_eq!(outcomes.len(), 2);
                        assert!(outcomes.iter().all(|o| o.executed()));
                    }
                });
            }
        });
        assert_eq!(monitor.audit_len(), 2 * 2 * rounds);
        assert!(monitor.version() <= 2 * rounds as u64);
        let (_, live) = monitor.snapshot();
        assert!(!live.contains_edge(Edge::UserRole(bob, staff)));
        assert!(!live.contains_edge(Edge::UserRole(joe, nurse)));
    }

    /// The same exactly-once accounting under a gather window, with
    /// single-request bursts and bursts of three racing: every command is
    /// audited once, every result has its own length, and both edges end
    /// absent (each connection toggles its own edge an even number of
    /// times).
    #[test]
    fn windowed_submitters_are_each_served_once() {
        let (uni, _) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let monitor = roomy_monitor();
        let commit = GroupCommit::with_gather(Arc::clone(&monitor), Duration::from_millis(2));
        let rounds = 40usize;
        let toggle = |user, role| {
            vec![
                Command::grant(jane, Edge::UserRole(user, role)),
                Command::revoke(jane, Edge::UserRole(user, role)),
            ]
        };
        thread::scope(|scope| {
            for (user, role, burst) in [(bob, staff, 1), (joe, nurse, 3)] {
                let (commit, toggle) = (&commit, &toggle);
                scope.spawn(move || {
                    let inbox = Arc::new(Inbox::default());
                    for _ in 0..rounds {
                        let results = round_trip(commit, &inbox, vec![toggle(user, role); burst]);
                        assert_eq!(results.len(), burst);
                        for (outcomes, _) in results {
                            let outcomes = outcomes.unwrap();
                            assert_eq!(outcomes.len(), 2);
                            assert!(outcomes.iter().all(|o| o.executed()));
                        }
                    }
                });
            }
        });
        assert_eq!(monitor.audit_len(), 2 * (rounds + 3 * rounds));
        let (_, live) = monitor.snapshot();
        assert!(!live.contains_edge(Edge::UserRole(bob, staff)));
        assert!(!live.contains_edge(Edge::UserRole(joe, nurse)));
    }
}
