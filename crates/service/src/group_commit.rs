//! Group commit: concurrent submitters coalesce into one monitor batch.
//!
//! The monitor's write path is serial by design (Definition 5 is a
//! serial semantics), so under concurrent writers the interesting
//! question is *how much work each pass over the writer lock retires*.
//! Per-call locking retires one request per acquisition — one WAL sync,
//! one `ReachIndex` rebuild, one published epoch *per request*. The
//! combiner here retires the whole in-flight queue per acquisition:
//!
//! 1. a submitter appends its request (commands + a completion) to the
//!    shared in-flight batch;
//! 2. if no leader is running, it leads; otherwise an in-process caller
//!    parks on its slot, and a daemon connection's reader returns to its
//!    socket;
//! 3. the leader drains *everything* queued, executes the drained group
//!    as **one** `submit_batch` call — one Definition-5 serial
//!    execution, one WAL sync, one index rebuild, one published epoch —
//!    and only then (**ack after sync**) delivers each request's own
//!    slice of the outcomes: it fills callers' slots and writes each
//!    connection's reply train itself, one flush per connection.
//!
//! **Batch formation.** Under a gather window
//! ([`GroupCommit::with_gather`]) the leader first sleeps on a condvar
//! until the queue holds the *population* the previous drain proved —
//! the requests it executed, those queued behind it when it finished
//! executing, and the leader's own, which cannot resubmit while it
//! leads — or the window closes. The enqueue that completes
//! the population runs that drain itself and relieves the sleeper, so no
//! wake-up sits on the critical path. A lone submitter never waits.
//!
//! **Who leads.** The submitter that finds no leader leads, its own
//! requests in its first drain. After `MAX_DRAINS_PER_TENURE` drains
//! the leader is in overtime: the next submitter takes over, at once
//! from a gather, else once the drain in flight ends. So no thread — a
//! daemon reader, which reads nothing while it leads, included — is
//! **held for more than `MAX_DRAINS_PER_TENURE` + 2 drains**, and a
//! taker-over never waits on a busy thread. The leader flag stays set
//! across every hand-over, so a queued request is **never orphaned**,
//! and an abort guard answers every request **exactly once** even when
//! a drain panics.
//!
//! Requests stay atomic and contiguous: a request's commands are never
//! interleaved with another's, so the outcome sequence equals *some*
//! serial interleaving of the submitters (the drain order), which the
//! `service_protocol` suite verifies by replaying the audit order
//! through Definition 5 (`adminref_core::transition::step`). A group is
//! one WAL record, so a store failure applies none of it: every request
//! gets [`ServiceError::Backend`] with no outcomes, and may be retried.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use adminref_core::command::Command;
use adminref_core::transition::StepOutcome;
use adminref_monitor::{MonitorError, ReferenceMonitor};
use adminref_store::StoreError;

use crate::protocol::ServiceError;

/// The result a submitter receives for its own request.
pub type SubmitResult = Result<Vec<StepOutcome>, ServiceError>;

/// One in-process request's completion slot, filled once by a leader.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<SubmitResult>>,
    ready: Condvar,
}

/// Locks a mutex, surviving poison: the mutexes of this crate guard
/// plain data, so a panicking thread must not wedge everyone else, and
/// the abort guard must answer waiters *during* a panic unwind.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Slot {
    fn set(&self, result: SubmitResult) {
        *lock_unpoisoned(&self.result) = Some(result);
        self.ready.notify_one();
    }

    /// Parks until a leader has served the request.
    fn wait(&self) -> SubmitResult {
        let result = lock_unpoisoned(&self.result);
        let mut result = self
            .ready
            .wait_while(result, |result| result.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        result.take().unwrap_or(Err(ServiceError::Aborted))
    }
}

/// A connection whose submits the leader answers itself (the daemon's).
pub(crate) trait ReplyTo: Send + Sync {
    /// Writes one train of replies, in order, with one flush. The leader
    /// calls it on the serial commit path, so it must not block without
    /// bound, nor submit to the same combiner.
    fn reply(&self, replies: Vec<(u64, SubmitResult)>);
}

/// Where one request's result goes.
enum Completion {
    /// An in-process caller parked on its slot.
    Slot(Arc<Slot>),
    /// A daemon submit, answered by the leader under this request id.
    Reply(Arc<dyn ReplyTo>, u64),
}

/// One enqueued request.
struct PendingWrite {
    commands: Vec<Command>,
    done: Completion,
}

#[derive(Default)]
struct Queue {
    pending: Vec<PendingWrite>,
    leader_running: bool,
    /// The population the last drain proved (see the module docs).
    population: usize,
    /// The sleeping leader's `(ticket, queue length it waits for)`;
    /// cleared by that leader, or by the enqueue that relieves it.
    gatherer: Option<(u64, usize)>,
    /// Gathers begun so far: the source of tickets.
    gathers: u64,
    /// The leader is past its tenure: the next enqueuer takes over.
    overtime: bool,
    /// An enqueuer waits in `join` to take over once the drain ends.
    successor: bool,
}

/// The write combiner; see the module docs.
///
/// One `GroupCommit` serializes the write path of one monitor (the
/// service owns both and always passes the same monitor in).
#[derive(Default)]
pub struct GroupCommit {
    queue: Mutex<Queue>,
    /// Wakes a gathering leader whose gather was relieved, and a waiting
    /// successor once the leader hands over.
    arrived: Condvar,
    /// Leader gather window; zero (the default) drains immediately.
    gather: Duration,
}

impl GroupCommit {
    /// A combiner with an empty in-flight batch.
    pub fn new() -> Self {
        GroupCommit::default()
    }

    /// A combiner whose leader waits up to `gather` for the proven
    /// population before executing (see the module docs). Local callers
    /// keep the default, zero. Over a **round-trip transport** an eager
    /// leader drains one connection at a time; a gather of a few tens of
    /// microseconds (well under one WAL sync) lands one round trip of
    /// every pipelined connection in one drain (see
    /// [`MonitorService::with_write_gather`](crate::MonitorService::with_write_gather)).
    pub fn with_gather(gather: Duration) -> Self {
        GroupCommit {
            gather,
            ..GroupCommit::default()
        }
    }

    /// Submits `commands` as one atomic request, coalescing with every
    /// other request in flight. Blocks until a leader (possibly this
    /// thread) has executed it; returns the outcomes of these `commands`.
    pub fn submit(&self, monitor: &ReferenceMonitor, commands: Vec<Command>) -> SubmitResult {
        let slot = Arc::new(Slot::default());
        let done = Completion::Slot(Arc::clone(&slot));
        self.join(monitor, std::iter::once(PendingWrite { commands, done }));
        slot.wait()
    }

    /// Submits several independent requests at once, under **one** queue
    /// acquisition, so they land in the same drain. Semantically
    /// `requests.len()` threads each calling [`submit`](GroupCommit::submit)
    /// concurrently — each request atomic, with its own result — but
    /// callable from one thread.
    pub fn submit_many(
        &self,
        monitor: &ReferenceMonitor,
        requests: Vec<Vec<Command>>,
    ) -> Vec<SubmitResult> {
        let slots: Vec<Arc<Slot>> = requests.iter().map(|_| Arc::default()).collect();
        let pending = requests
            .into_iter()
            .zip(&slots)
            .map(|(commands, slot)| PendingWrite {
                commands,
                done: Completion::Slot(Arc::clone(slot)),
            });
        self.join(monitor, pending);
        slots.iter().map(|slot| slot.wait()).collect()
    }

    /// The daemon's entry point: enqueues one connection's burst of
    /// submits, each answered through `to` under its request id by the
    /// leader that drains it. The calling reader returns at once, or
    /// leads if it finds no leader.
    pub(crate) fn submit_replying(
        &self,
        monitor: &ReferenceMonitor,
        to: &Arc<dyn ReplyTo>,
        burst: Vec<(u64, Vec<Command>)>,
    ) {
        let pending = burst.into_iter().map(|(id, commands)| PendingWrite {
            commands,
            done: Completion::Reply(Arc::clone(to), id),
        });
        self.join(monitor, pending);
    }

    /// Appends requests under one queue acquisition; leads when no leader
    /// runs, when they complete a gathering leader's target, or when the
    /// leader is in overtime: a gathering leader finds its gather gone
    /// and steps down, a draining one hands over when its drain ends.
    fn join(&self, monitor: &ReferenceMonitor, requests: impl Iterator<Item = PendingWrite>) {
        let mut queue = lock_unpoisoned(&self.queue);
        let before = queue.pending.len();
        queue.pending.extend(requests);
        let queued = queue.pending.len();
        let overtime = std::mem::take(&mut queue.overtime);
        let relieves = queue
            .gatherer
            .is_some_and(|(_, target)| overtime || queued >= target);
        if queue.leader_running && !relieves {
            if !overtime {
                return;
            }
            queue.successor = true;
            queue = self
                .arrived
                .wait_while(queue, |queue| queue.successor)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (queue.leader_running, queue.gatherer) = (true, None);
        drop(queue);
        if relieves {
            self.arrived.notify_all();
        }
        self.lead(monitor, queued - before);
    }

    /// Leader loop: drain, execute, deliver, until the queue is empty, an
    /// enqueue relieves a gather, or a successor takes over. `mine`
    /// counts this thread's own queued requests: they ride its first
    /// drain, and their successors are `absent` from every later one
    /// (they cannot arrive while it leads), so no gather waits for them.
    fn lead(&self, monitor: &ReferenceMonitor, mine: usize) {
        let mut absent = 0;
        for drained in 0.. {
            let overtime = drained >= MAX_DRAINS_PER_TENURE;
            let Some(group) = self.next_group(absent, overtime) else {
                return;
            };
            self.drain(monitor, group, absent);
            absent = mine;
            if self.gather.is_zero() {
                // The submitters just released are likely to have a
                // next request; one yield lets them join the next drain
                // (a no-op with no runnable peers).
                std::thread::yield_now();
            }
        }
    }

    /// Takes the next group, under a window first sleeping until the
    /// queue holds the proven population less the `absent` requests.
    /// `None` when leadership ends: nothing is queued (released), a
    /// successor waits (handed over, still claimed), or an enqueue
    /// relieved the gather (that enqueuer leads now). Waiting cannot
    /// deadlock: stragglers find leadership claimed.
    fn next_group(&self, absent: usize, overtime: bool) -> Option<Vec<PendingWrite>> {
        let mut queue = lock_unpoisoned(&self.queue);
        if std::mem::take(&mut queue.successor) {
            self.arrived.notify_all();
            return None;
        }
        if queue.pending.is_empty() {
            queue.leader_running = false;
            return None;
        }
        queue.overtime = overtime;
        let target = queue.population.saturating_sub(absent);
        if !self.gather.is_zero() && queue.pending.len() < target {
            queue.gathers += 1;
            let me = Some((queue.gathers, target));
            queue.gatherer = me;
            queue = self
                .arrived
                .wait_timeout_while(queue, self.gather, |queue| queue.gatherer == me)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if queue.gatherer != me {
                return None;
            }
            queue.gatherer = None;
        }
        Some(std::mem::take(&mut queue.pending))
    }

    fn drain(&self, monitor: &ReferenceMonitor, group: Vec<PendingWrite>, absent: usize) {
        let mut guard = AbortGuard {
            commit: self,
            group,
            answered: 0,
        };
        let results = execute_group(monitor, &guard.group);
        // Counted before any result leaves, so a released caller's next
        // request is not counted twice.
        {
            let mut queue = lock_unpoisoned(&self.queue);
            queue.population = guard.group.len() + queue.pending.len() + absent;
        }
        // Ack after sync: `execute_group` returned, so did the group's
        // WAL sync; only now does any result leave.
        deliver(&guard.group, results, &mut guard.answered);
    }
}

/// Drains per leader tenure, after which the next submitter takes over:
/// bounds how long any thread leads for others under sustained load.
const MAX_DRAINS_PER_TENURE: usize = 8;

/// Delivers `results` (one per request, in order): slots are filled, and
/// each connection's run of consecutive requests gets one reply train.
/// `answered` counts each request before its delivery starts, so none is
/// answered twice.
fn deliver(
    group: &[PendingWrite],
    results: impl IntoIterator<Item = SubmitResult>,
    answered: &mut usize,
) {
    let mut results = results.into_iter();
    let mut next = || results.next().unwrap_or(Err(ServiceError::Aborted));
    while let Some(request) = group.get(*answered) {
        match &request.done {
            Completion::Slot(slot) => {
                *answered += 1;
                slot.set(next());
            }
            Completion::Reply(to, _) => {
                let run: Vec<u64> = group[*answered..]
                    .iter()
                    .map_while(|r| match &r.done {
                        Completion::Reply(other, id) if Arc::ptr_eq(other, to) => Some(*id),
                        _ => None,
                    })
                    .collect();
                *answered += run.len();
                to.reply(run.into_iter().map(|id| (id, next())).collect());
            }
        }
    }
}

/// Unwinds a panicking drain into answered requests instead of a wedged
/// combiner: every drained request not yet answered, and every queued
/// one, gets [`ServiceError::Aborted`], and leadership is released, or
/// passed to a waiting successor.
struct AbortGuard<'a> {
    commit: &'a GroupCommit,
    group: Vec<PendingWrite>,
    answered: usize,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let queued = {
            let mut queue = lock_unpoisoned(&self.commit.queue);
            queue.leader_running = std::mem::take(&mut queue.successor);
            std::mem::take(&mut queue.pending)
        };
        self.commit.arrived.notify_all();
        let aborted = || std::iter::repeat_with(|| Err(ServiceError::Aborted));
        deliver(&self.group, aborted(), &mut self.answered);
        deliver(&queued, aborted(), &mut 0);
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
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::transition::AuthMode;
    use adminref_core::universe::{Edge, Universe};
    use adminref_monitor::MonitorConfig;
    use adminref_store::{PolicyStore, TempDir};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
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

    /// A drained group of in-process requests, as `execute_group` sees it.
    fn group_of(requests: &[Vec<Command>]) -> Vec<PendingWrite> {
        requests
            .iter()
            .map(|commands| PendingWrite {
                commands: commands.clone(),
                done: Completion::Slot(Arc::default()),
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

    /// Records every reply train a connection receives.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(u64, bool)>>);

    impl ReplyTo for Recorder {
        fn reply(&self, replies: Vec<(u64, SubmitResult)>) {
            let aborted = replies
                .into_iter()
                .map(|(id, r)| (id, matches!(r, Err(ServiceError::Aborted))));
            lock_unpoisoned(&self.0).extend(aborted);
        }
    }

    /// The abort guard converts a panic escaping a drain into answered
    /// requests — drained and still-queued, slots and reply trains alike,
    /// each exactly once — and releases leadership, so the combiner
    /// keeps serving instead of wedging every future submit.
    #[test]
    fn abort_guard_unwedges_slots_and_leadership() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let commit = GroupCommit::new();
        let conn = Arc::new(Recorder::default());
        let to: Arc<dyn ReplyTo> = conn.clone();
        let reply = |id| PendingWrite {
            commands: Vec::new(),
            done: Completion::Reply(Arc::clone(&to), id),
        };
        let drained_slot = Arc::new(Slot::default());
        let queued_slot = Arc::new(Slot::default());
        {
            let mut queue = lock_unpoisoned(&commit.queue);
            queue.leader_running = true;
            queue.pending.push(reply(3));
            queue.pending.push(PendingWrite {
                commands: Vec::new(),
                done: Completion::Slot(Arc::clone(&queued_slot)),
            });
        }
        let drained = vec![
            reply(1),
            PendingWrite {
                commands: Vec::new(),
                done: Completion::Slot(Arc::clone(&drained_slot)),
            },
            reply(2),
        ];
        // A drain that answered its first request, then died.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = AbortGuard {
                commit: &commit,
                group: drained,
                answered: 0,
            };
            deliver(&guard.group[..1], [Ok(Vec::new())], &mut guard.answered);
            panic!("a drain died mid-flight");
        }));
        assert!(died.is_err());
        let mut replies = lock_unpoisoned(&conn.0).clone();
        replies.sort_unstable();
        assert_eq!(replies, [(1, false), (2, true), (3, true)]);
        for slot in [&drained_slot, &queued_slot] {
            assert!(matches!(slot.wait(), Err(ServiceError::Aborted)));
        }
        {
            let queue = lock_unpoisoned(&commit.queue);
            assert!(!queue.leader_running, "leadership released");
            assert!(queue.pending.is_empty(), "queue drained");
        }
        // The combiner stays serviceable: the next submit self-elects
        // and completes normally.
        let out = commit
            .submit(
                &monitor,
                vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            )
            .expect("combiner still serves after an aborted drain");
        assert!(out[0].executed());
    }

    /// Polls `ready` for up to five seconds.
    fn eventually(ready: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ready() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        ready()
    }

    /// A drain that panics while a successor waits to take over passes
    /// leadership to it: the successor's queued request is aborted, the
    /// successor finds the queue empty and releases leadership, and the
    /// combiner serves on.
    #[test]
    fn abort_guard_passes_leadership_to_a_waiting_successor() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let edge = Edge::UserRole(
            uni.find_user("bob").unwrap(),
            uni.find_role("staff").unwrap(),
        );
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let commit = GroupCommit::new();
        // A leader in overtime, mid-drain.
        {
            let mut queue = lock_unpoisoned(&commit.queue);
            (queue.leader_running, queue.overtime) = (true, true);
        }
        thread::scope(|scope| {
            let successor =
                scope.spawn(|| commit.submit(&monitor, vec![Command::grant(jane, edge)]));
            let waited = eventually(|| lock_unpoisoned(&commit.queue).successor);
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = AbortGuard {
                    commit: &commit,
                    group: Vec::new(),
                    answered: 0,
                };
                panic!("a drain died while a successor waited");
            }));
            assert!(died.is_err());
            let result = successor.join().unwrap();
            assert!(waited, "a submitter in overtime waits to take over");
            assert!(matches!(result, Err(ServiceError::Aborted)));
        });
        assert!(!lock_unpoisoned(&commit.queue).leader_running);
        let out = commit.submit(&monitor, vec![Command::grant(jane, edge)]);
        assert!(out.expect("combiner still serves")[0].executed());
    }

    /// Holds each reply train until the test lets it go, and reports
    /// which thread wrote it.
    struct Gate {
        written: mpsc::Sender<(u64, ThreadId)>,
        go: Mutex<mpsc::Receiver<()>>,
    }

    impl ReplyTo for Gate {
        fn reply(&self, replies: Vec<(u64, SubmitResult)>) {
            for (id, _) in replies {
                self.written.send((id, thread::current().id())).unwrap();
            }
            lock_unpoisoned(&self.go).recv().unwrap();
        }
    }

    /// A leader past its tenure hands over to the next submitter as soon
    /// as its drain in flight ends, so a daemon reader that leads is back
    /// on its socket after `MAX_DRAINS_PER_TENURE` + 1 drains however
    /// busy the other connections keep it. Each drain here holds one
    /// daemon submit, and the next one is enqueued while it delivers.
    #[test]
    fn a_leader_past_its_tenure_hands_over_to_the_next_submitter() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let edge = Edge::UserRole(
            uni.find_user("bob").unwrap(),
            uni.find_role("staff").unwrap(),
        );
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let commit = GroupCommit::new();
        let (written, writes) = mpsc::channel();
        let (go, gate) = mpsc::channel();
        let to: Arc<dyn ReplyTo> = Arc::new(Gate {
            written,
            go: Mutex::new(gate),
        });
        let submit = |id: u64| {
            let command = match id % 2 {
                0 => Command::grant(jane, edge),
                _ => Command::revoke(jane, edge),
            };
            commit.submit_replying(&monitor, &to, vec![(id, vec![command])]);
            thread::current().id()
        };
        let tenure = MAX_DRAINS_PER_TENURE as u64;
        thread::scope(|scope| {
            let first = scope.spawn(|| submit(0));
            let mut leader = None;
            for id in 0..tenure {
                let (answered, by) = writes.recv().unwrap();
                assert_eq!((answered, by), (id, *leader.get_or_insert(by)));
                // The leader is busy and within its tenure: this returns.
                submit(id + 1);
                go.send(()).unwrap();
            }
            // The drain after the tenure: the next submitter waits to
            // take over instead of queueing behind the same leader.
            assert_eq!(writes.recv().unwrap(), (tenure, leader.unwrap()));
            let successor = scope.spawn(|| submit(tenure + 1));
            let waited = eventually(|| lock_unpoisoned(&commit.queue).successor);
            go.send(()).unwrap();
            let (answered, by) = writes.recv().unwrap();
            go.send(()).unwrap();
            let (first, successor) = (first.join().unwrap(), successor.join().unwrap());
            assert!(waited, "the submitter after the tenure waits to take over");
            assert_eq!(first, leader.unwrap());
            assert_eq!((answered, by), (tenure + 1, successor), "the successor led");
        });
        assert!(!lock_unpoisoned(&commit.queue).leader_running);
        assert_eq!(monitor.version(), tenure + 2);
    }

    /// `threads` callers, each submitting `rounds` windows of `window`
    /// single-command requests that toggle its own edge, pausing `pause`
    /// between windows, against a monitor over a store in `dir` (in
    /// memory without one); every outcome must execute. Returns the
    /// epochs the monitor published.
    fn toggle_windows(
        commit: &GroupCommit,
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
        let monitor = match dir {
            Some(dir) => ReferenceMonitor::with_store(
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap(),
                MonitorConfig::default(),
            ),
            None => ReferenceMonitor::new(uni, policy, MonitorConfig::default()),
        };
        // Callers start together, or the first may finish before the
        // second is scheduled.
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for &edge in &edges[..threads] {
                let (monitor, start) = (&monitor, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..rounds {
                        let requests = (0..window)
                            .map(|i| match (round * window + i) % 2 {
                                0 => vec![Command::grant(jane, edge)],
                                _ => vec![Command::revoke(jane, edge)],
                            })
                            .collect();
                        for result in commit.submit_many(monitor, requests) {
                            assert!(result.expect("submit")[0].executed());
                        }
                        std::thread::sleep(pause);
                    }
                });
            }
        });
        monitor.version()
    }

    /// One round trip of every submitter lands in one drain: the gather
    /// waits for the population the previous drain proved (executed +
    /// queued behind), asleep, so two callers with eight requests each
    /// share one epoch per round. Each caller pauses a millisecond
    /// between rounds, standing in for a socket round trip; the window
    /// is generous so scheduling cannot split a group, and each drain
    /// syncs a WAL so the callers overlap from the first rounds on. A
    /// leader that gathers only up to the last group's size, or only
    /// for a few yields, publishes about two epochs per round.
    #[test]
    fn a_round_trip_of_every_submitter_lands_in_one_drain() {
        let rounds = 40;
        let dir = TempDir::new("group-commit-round-trip").unwrap();
        let commit = GroupCommit::with_gather(Duration::from_millis(200));
        let pause = Duration::from_millis(1);
        let epochs = toggle_windows(&commit, Some(&dir), 2, (rounds, 8), pause);
        assert!(
            epochs <= rounds as u64 + 2,
            "{epochs} epochs for {rounds} rounds of two callers"
        );
    }

    /// A lone submitter proves a population of one, so it never waits
    /// out the window: twenty sequential submits finish well inside a
    /// single 200 ms window.
    #[test]
    fn a_lone_submitter_never_pays_the_gather() {
        let commit = GroupCommit::with_gather(Duration::from_millis(200));
        let start = Instant::now();
        let epochs = toggle_windows(&commit, None, 1, (20, 1), Duration::ZERO);
        assert_eq!(epochs, 20);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "20 solo submits took {:?}",
            start.elapsed()
        );
    }

    /// Concurrent submitters: every request is answered, every command
    /// audited exactly once, and epochs count the drained groups (at
    /// most one per request, typically far fewer).
    #[test]
    fn concurrent_submitters_all_complete() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let monitor = ReferenceMonitor::new(
            uni,
            policy,
            MonitorConfig {
                audit_capacity: 4096,
                ..MonitorConfig::default()
            },
        );
        let commit = GroupCommit::new();
        let rounds = 50usize;
        crossbeam::scope(|scope| {
            for (user, role) in [(bob, staff), (joe, nurse)] {
                let (commit, monitor) = (&commit, &monitor);
                scope.spawn(move |_| {
                    for _ in 0..rounds {
                        let outcomes = commit
                            .submit(
                                monitor,
                                vec![
                                    Command::grant(jane, Edge::UserRole(user, role)),
                                    Command::revoke(jane, Edge::UserRole(user, role)),
                                ],
                            )
                            .expect("in-memory submit");
                        assert_eq!(outcomes.len(), 2);
                        assert!(outcomes.iter().all(|o| o.executed()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(monitor.audit_len(), 2 * 2 * rounds);
        assert!(monitor.version() <= 2 * rounds as u64);
        let (_, live) = monitor.snapshot();
        assert!(!live.contains_edge(Edge::UserRole(bob, staff)));
        assert!(!live.contains_edge(Edge::UserRole(joe, nurse)));
    }

    /// The same exactly-once accounting under a gather window, with
    /// single `submit`s and `submit_many` windows racing: every command
    /// is audited once, every result has its own length, and both edges
    /// end absent (each caller toggles its own edge an even number of
    /// times).
    #[test]
    fn windowed_submitters_are_each_served_once() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let monitor = ReferenceMonitor::new(
            uni,
            policy,
            MonitorConfig {
                audit_capacity: 4096,
                ..MonitorConfig::default()
            },
        );
        let commit = GroupCommit::with_gather(Duration::from_millis(2));
        let rounds = 40usize;
        let toggle = |user, role| {
            vec![
                Command::grant(jane, Edge::UserRole(user, role)),
                Command::revoke(jane, Edge::UserRole(user, role)),
            ]
        };
        std::thread::scope(|scope| {
            let (commit, monitor, toggle) = (&commit, &monitor, &toggle);
            scope.spawn(move || {
                for _ in 0..rounds {
                    let outcomes = commit.submit(monitor, toggle(bob, staff)).unwrap();
                    assert_eq!(outcomes.len(), 2);
                    assert!(outcomes.iter().all(|o| o.executed()));
                }
            });
            scope.spawn(move || {
                for _ in 0..rounds {
                    let results = commit.submit_many(monitor, vec![toggle(joe, nurse); 3]);
                    assert_eq!(results.len(), 3);
                    for outcomes in results {
                        let outcomes = outcomes.unwrap();
                        assert_eq!(outcomes.len(), 2);
                        assert!(outcomes.iter().all(|o| o.executed()));
                    }
                }
            });
        });
        assert_eq!(monitor.audit_len(), 2 * (rounds + 3 * rounds));
        let (_, live) = monitor.snapshot();
        assert!(!live.contains_edge(Edge::UserRole(bob, staff)));
        assert!(!live.contains_edge(Edge::UserRole(joe, nurse)));
    }
}
