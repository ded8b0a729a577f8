//! Epoch-delta replication: a primary streams each published epoch's
//! [`EdgeDelta`](adminref_core::reach::EdgeDelta)s to subscribed read replicas.
//!
//! ## Model
//!
//! The write path already funnels every administrative batch through
//! one writer that publishes an immutable
//! [`PolicySnapshot`](adminref_core::snapshot::PolicySnapshot) per
//! epoch. Replication taps that exact point: a
//! [`PublishHook`](adminref_monitor::PublishHook) installed by the
//! [`ReplicationHub`] fires inside the writer critical section — so
//! frames leave in strict epoch order — and broadcasts one
//! [`ReplDelta`](crate::wire::FrameKind::ReplDelta) frame per epoch
//! carrying `(term, epoch, deltas, state checksum)` to every
//! subscriber. A replica applies the frame through the same
//! [`PolicySnapshot::next`](adminref_core::snapshot::PolicySnapshot::next)
//! incremental path the primary used and serves the full read alphabet
//! lock-free from its own published snapshots; `Submit`/`Compact` are
//! refused with [`ServiceError::ReadOnly`].
//!
//! ## Lifecycle
//!
//! * **Catch-up.** A subscriber announces the epoch it has applied
//!   through ([`encode_repl_subscribe`](crate::wire::encode_repl_subscribe));
//!   unless that is exactly the primary's current epoch it receives a
//!   [`ReplSnapshot`](crate::wire::FrameKind::ReplSnapshot) bootstrap —
//!   the CRC-framed `(universe, policy)` state blob of
//!   [`adminref_store::encode_state`] — and then joins the live delta
//!   stream. Registration happens under the subscriber lock the
//!   broadcast path also takes, and each subscriber tracks the last
//!   epoch sent to it, so the bootstrap/stream seam has no gap and no
//!   overlap.
//! * **Divergence.** Every delta frame carries the checksum of the
//!   post-apply policy state
//!   ([`adminref_core::checksum`]). A replica whose recomputed state
//!   disagrees refuses the frame
//!   ([`ReplicaApplyError`](adminref_monitor::ReplicaApplyError)),
//!   publishes nothing, drops the connection, and reconnects
//!   requesting a fresh bootstrap.
//! * **Failover.** [`Request::Promote`] on a replica stops its
//!   [`Follower`], increments the replication **term**, and makes the
//!   node writable. Terms fence deposed primaries: every replication
//!   frame is stamped with the sender's term, a follower rejects any
//!   frame below the highest term it has seen, and a primary refuses
//!   subscribers that announce a higher term than its own.
//!
//! ## Caveats
//!
//! Broadcast happens inside the writer critical section and writes to
//! subscriber sockets synchronously: a stalled replica backpressures
//! the primary's writes (reads stay lock-free). The serving daemon's
//! request-decode universe is fixed at spawn; a re-bootstrap that
//! ships a *grown* universe updates the replica's serving state and
//! checksums, but ids interned after spawn only become addressable by
//! that replica's own clients after a restart (interning is
//! append-only, so all old ids stay valid).

use std::io::{self, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use adminref_core::admission::ConstraintSet;
use adminref_core::policy::Policy;
use adminref_core::universe::Universe;
use adminref_monitor::{PublishEvent, ReferenceMonitor};
use adminref_store::{decode_state, encode_state};
use parking_lot::Mutex;

use crate::daemon::{read_frame_polling, send_error, ConnWriter, Stream};
use crate::group_commit::GroupCommit;
use crate::protocol::{
    PolicyService, ReplicationRole, ReplicationStatus, Request, Response, ServiceError,
};
use crate::service::{call_burst, dispatch};
use crate::wire::{self, Frame, FrameKind};

/// How often a blocked follower read wakes to check for stop/promote.
const FOLLOWER_READ_POLL: Duration = Duration::from_millis(100);

// ----- the hub ---------------------------------------------------------

/// The replication state of one node: its fencing term, role, and the
/// downstream subscribers it streams delta frames to.
///
/// Both roles carry a hub. On a primary it broadcasts every published
/// epoch; on a replica the [`Follower`] applies upstream frames through
/// the monitor, whose publish hook then forwards them to *this* node's
/// own subscribers — so replicas chain.
pub struct ReplicationHub {
    monitor: Arc<ReferenceMonitor>,
    /// Highest fencing term this node has seen (or serves under).
    term: AtomicU64,
    /// `true` on a primary (writes accepted, frames originated here).
    writable: AtomicBool,
    /// `true` once this node's state provably came from its upstream
    /// (bootstrap installed or CLI-level bootstrap): only then may a
    /// reconnecting follower claim its epoch instead of requesting a
    /// fresh snapshot.
    bootstrapped: AtomicBool,
    /// Highest epoch seen in any frame (or published locally); the
    /// replica lag in [`status`](ReplicationHub::status) is this minus
    /// the applied epoch.
    seen_epoch: AtomicU64,
    subscribers: Mutex<Vec<Subscriber>>,
    next_subscriber: AtomicU64,
}

struct Subscriber {
    id: u64,
    writer: Arc<ConnWriter>,
    /// Epoch of the last frame sent (or of the bootstrap snapshot):
    /// broadcast skips events at or below it, which is what makes the
    /// subscribe-vs-publish race gap- and overlap-free.
    last_sent: u64,
}

impl ReplicationHub {
    /// A hub for the given role, with the monitor's publish hook
    /// attached (weakly — dropping the hub detaches it).
    pub fn new(monitor: Arc<ReferenceMonitor>, role: ReplicationRole) -> Arc<ReplicationHub> {
        let hub = Arc::new(ReplicationHub {
            monitor,
            term: AtomicU64::new(0),
            writable: AtomicBool::new(role == ReplicationRole::Primary),
            bootstrapped: AtomicBool::new(false),
            seen_epoch: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
            next_subscriber: AtomicU64::new(1),
        });
        let weak: Weak<ReplicationHub> = Arc::downgrade(&hub);
        hub.monitor.set_publish_hook(Some(Box::new(move |event| {
            if let Some(hub) = weak.upgrade() {
                hub.broadcast(event);
            }
        })));
        hub
    }

    /// The monitor this hub replicates.
    pub fn monitor(&self) -> &Arc<ReferenceMonitor> {
        &self.monitor
    }

    /// The highest fencing term this node has seen.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    /// `true` iff this node currently accepts writes (primary role).
    pub fn writable(&self) -> bool {
        self.writable.load(Ordering::SeqCst)
    }

    /// Number of live downstream subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }

    /// Marks this node's state as bootstrapped from upstream at `term`
    /// (used when the bootstrap happened out of band, before the
    /// follower thread started).
    pub fn mark_bootstrapped(&self, term: u64) {
        self.admit_term(term);
        self.bootstrapped.store(true, Ordering::SeqCst);
    }

    /// Fencing check for an incoming frame stamped `term`: admits it
    /// (raising this node's term to match) iff it is not from a deposed
    /// primary, i.e. not below the highest term already seen.
    pub fn admit_term(&self, term: u64) -> bool {
        self.term.fetch_max(term, Ordering::SeqCst) <= term
    }

    /// Promotes this node: makes it writable under a term one above the
    /// highest it has seen. Idempotent — promoting a primary returns
    /// its current term. Returns `(term, epoch)`.
    pub fn promote(&self) -> (u64, u64) {
        if !self.writable.swap(true, Ordering::SeqCst) {
            self.term.fetch_add(1, Ordering::SeqCst);
        }
        (self.term(), ReferenceMonitor::version(&self.monitor))
    }

    /// Current replication status for `Stats`.
    pub fn status(&self) -> ReplicationStatus {
        let applied = ReferenceMonitor::version(&self.monitor);
        let seen = self.seen_epoch.load(Ordering::SeqCst).max(applied);
        ReplicationStatus {
            role: if self.writable() {
                ReplicationRole::Primary
            } else {
                ReplicationRole::Replica
            },
            term: self.term(),
            last_applied_epoch: applied,
            lag: seen - applied,
        }
    }

    /// The publish-hook target: ships one `ReplDelta` frame per
    /// published epoch to every subscriber that has not already seen
    /// it. Runs inside the writer critical section, so frames leave in
    /// strict epoch order.
    fn broadcast(&self, event: &PublishEvent) {
        self.seen_epoch.fetch_max(event.epoch, Ordering::SeqCst);
        let payload =
            wire::encode_repl_delta(self.term(), event.epoch, &event.deltas, event.checksum);
        let mut subs = self.subscribers.lock();
        for sub in subs.iter_mut() {
            if event.epoch <= sub.last_sent {
                continue;
            }
            sub.writer.send(FrameKind::ReplDelta, 0, &payload);
            sub.last_sent = event.epoch;
        }
    }

    /// Registers a subscriber, sending it a `ReplSnapshot` bootstrap
    /// first unless it already holds exactly the current epoch.
    /// Refuses a follower announcing a higher term than this node's —
    /// that means *we* are the deposed primary.
    pub(crate) fn subscribe(
        &self,
        writer: Arc<ConnWriter>,
        request_id: u64,
        follower_term: u64,
        last_applied: Option<u64>,
    ) -> Result<u64, ServiceError> {
        let term = self.term();
        if follower_term > term {
            return Err(ServiceError::Transport {
                message: format!(
                    "stale primary: follower is at term {follower_term}, this node at term {term}"
                ),
            });
        }
        // Holding the subscriber lock across snapshot read, bootstrap
        // send, and registration closes the gap against a concurrent
        // publish: a publish that stored its snapshot but has not yet
        // broadcast will find this subscriber registered with
        // `last_sent` >= its epoch and skip it.
        let mut subs = self.subscribers.lock();
        let snapshot = self.monitor.read_snapshot();
        let epoch = snapshot.epoch;
        if last_applied != Some(epoch) {
            let constraints = self.monitor.constraints();
            let state = encode_state(snapshot.universe(), snapshot.policy(), &constraints);
            let payload = wire::encode_repl_snapshot(term, epoch, &state);
            writer.send(FrameKind::ReplSnapshot, request_id, &payload);
        }
        let id = self.next_subscriber.fetch_add(1, Ordering::SeqCst);
        subs.push(Subscriber {
            id,
            writer,
            last_sent: epoch,
        });
        Ok(id)
    }

    /// Drops a subscriber (its connection closed).
    pub(crate) fn unsubscribe(&self, id: u64) {
        self.subscribers.lock().retain(|s| s.id != id);
    }
}

/// Serves one replication connection on the primary after its first
/// `ReplSubscribe` frame arrived: registers the subscriber, then keeps
/// reading so a disconnect (or an in-place re-subscribe after replica
/// divergence) is noticed and the subscriber is dropped.
pub(crate) fn serve_replication(
    hub: &ReplicationHub,
    first: Frame,
    reader: &mut BufReader<Stream>,
    writer: &Arc<ConnWriter>,
    stop: &AtomicBool,
) {
    let mut frame = first;
    let mut current: Option<u64> = None;
    loop {
        if frame.kind == FrameKind::ReplSubscribe {
            if let Some(id) = current.take() {
                hub.unsubscribe(id);
            }
            match wire::decode_repl_subscribe(&frame.payload) {
                Ok((term, last_applied)) => {
                    match hub.subscribe(Arc::clone(writer), frame.request_id, term, last_applied) {
                        Ok(id) => current = Some(id),
                        Err(err) => {
                            send_error(writer, frame.request_id, &err);
                            break;
                        }
                    }
                }
                Err(wire_err) => {
                    send_error(writer, frame.request_id, &wire_err.into());
                    break;
                }
            }
        } else {
            let err = ServiceError::Transport {
                message: format!(
                    "unexpected {:?} frame on a replication connection",
                    frame.kind
                ),
            };
            send_error(writer, frame.request_id, &err);
        }
        match read_frame_polling(reader, stop) {
            Ok(Some(next)) => frame = next,
            Ok(None) | Err(_) => break,
        }
    }
    if let Some(id) = current {
        hub.unsubscribe(id);
    }
}

// ----- the follower ----------------------------------------------------

/// Where a follower connects to reach its primary.
#[derive(Clone, Debug)]
pub enum FollowTarget {
    /// A TCP address, `host:port`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl FollowTarget {
    fn connect(&self) -> io::Result<Stream> {
        match self {
            FollowTarget::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // Delta frames are latency-sensitive heartbeat-sized
                // writes; never trade latency for coalescing.
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            #[cfg(unix)]
            FollowTarget::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }
}

/// The replica-side subscription thread: connects to the primary,
/// subscribes, applies bootstrap and delta frames through the monitor,
/// and reconnects (requesting a fresh bootstrap) after any gap,
/// divergence, or transport failure.
pub struct Follower {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Follower {
    /// Spawns the follower thread for `hub`, retrying failed
    /// connections every `retry`.
    pub fn spawn(hub: Arc<ReplicationHub>, target: FollowTarget, retry: Duration) -> Follower {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("adminref-follower".into())
            .spawn(move || follow_loop(hub, target, thread_stop, retry))
            .ok();
        Follower { stop, handle }
    }

    /// Signals the thread to stop and joins it (a blocked read notices
    /// within one poll interval). Also runs on drop.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn follow_loop(
    hub: Arc<ReplicationHub>,
    target: FollowTarget,
    stop: Arc<AtomicBool>,
    retry: Duration,
) {
    while !stop.load(Ordering::SeqCst) && !hub.writable() {
        // Any failure — refused connection, transport error, gap,
        // divergence — lands here; the next round reconnects, and
        // `bootstrapped` decides whether it requests a fresh snapshot.
        let _ = follow_once(&hub, &target, &stop);
        if stop.load(Ordering::SeqCst) || hub.writable() {
            break;
        }
        thread::sleep(retry);
    }
}

/// One subscription: connect, subscribe, apply frames until an error
/// or stop/promote.
fn follow_once(hub: &ReplicationHub, target: &FollowTarget, stop: &AtomicBool) -> io::Result<()> {
    let stream = target.connect()?;
    stream.set_read_timeout(Some(FOLLOWER_READ_POLL))?;
    let mut writer = stream.try_clone()?;
    let monitor = hub.monitor();
    let last_applied = if hub.bootstrapped.load(Ordering::SeqCst) {
        Some(ReferenceMonitor::version(monitor))
    } else {
        None
    };
    let subscribe = wire::encode_repl_subscribe(hub.term(), last_applied);
    wire::write_frame(&mut writer, FrameKind::ReplSubscribe, 1, &subscribe)?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) || hub.writable() {
            return Ok(());
        }
        let frame = match read_frame_polling(&mut reader, stop) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err(io::Error::other("primary closed the connection")),
            Err(e) => return Err(io::Error::other(e.to_string())),
        };
        match frame.kind {
            FrameKind::ReplSnapshot => {
                let (term, epoch, state) =
                    wire::decode_repl_snapshot(&frame.payload).map_err(io::Error::other)?;
                if !hub.admit_term(term) {
                    return Err(io::Error::other("snapshot from deposed primary rejected"));
                }
                let (universe, policy, constraints) =
                    decode_state(&state).map_err(io::Error::other)?;
                monitor
                    .install_replica_state(universe, policy, epoch, constraints)
                    .map_err(io::Error::other)?;
                hub.seen_epoch.fetch_max(epoch, Ordering::SeqCst);
                hub.bootstrapped.store(true, Ordering::SeqCst);
            }
            FrameKind::ReplDelta => {
                let delta = wire::decode_repl_delta(&frame.payload).map_err(io::Error::other)?;
                if !hub.admit_term(delta.term) {
                    return Err(io::Error::other("delta from deposed primary rejected"));
                }
                hub.seen_epoch.fetch_max(delta.epoch, Ordering::SeqCst);
                if let Err(refusal) =
                    monitor.apply_replica_deltas(delta.epoch, &delta.deltas, delta.checksum)
                {
                    // Typed refusal: nothing was published. Reconnect
                    // with a fresh bootstrap to self-heal.
                    hub.bootstrapped.store(false, Ordering::SeqCst);
                    return Err(io::Error::other(refusal));
                }
            }
            FrameKind::Error => {
                let message = match wire::decode_error(&frame.payload) {
                    Ok(err) => err.to_string(),
                    Err(e) => e.to_string(),
                };
                return Err(io::Error::other(format!("primary refused: {message}")));
            }
            other => {
                return Err(io::Error::other(format!(
                    "unexpected {other:?} frame on the replication stream"
                )))
            }
        }
    }
}

/// Connects to a primary, subscribes with no prior state, and returns
/// the bootstrap `(universe, policy, constraints, epoch, term)` — how a
/// replica process obtains the decode-context universe (and the
/// admission constraint set it must keep enforcing after a promotion)
/// before it can serve its own daemon. `timeout` bounds each socket
/// read.
pub fn fetch_bootstrap(
    target: &FollowTarget,
    timeout: Duration,
) -> io::Result<(Universe, Policy, ConstraintSet, u64, u64)> {
    let stream = target.connect()?;
    stream.set_read_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    wire::write_frame(
        &mut writer,
        FrameKind::ReplSubscribe,
        1,
        &wire::encode_repl_subscribe(0, None),
    )?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match wire::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err(io::Error::other("primary closed before bootstrapping")),
            Err(e) => return Err(io::Error::other(e.to_string())),
        };
        match frame.kind {
            FrameKind::ReplSnapshot => {
                let (term, epoch, state) =
                    wire::decode_repl_snapshot(&frame.payload).map_err(io::Error::other)?;
                let (universe, policy, constraints) =
                    decode_state(&state).map_err(io::Error::other)?;
                return Ok((universe, policy, constraints, epoch, term));
            }
            FrameKind::Error => {
                let message = match wire::decode_error(&frame.payload) {
                    Ok(err) => err.to_string(),
                    Err(e) => e.to_string(),
                };
                return Err(io::Error::other(format!("primary refused: {message}")));
            }
            // The primary considered us caught up (epoch 0 == epoch 0):
            // an empty-history bootstrap has nothing to ship, so delta
            // frames may arrive first; skip anything else.
            _ => continue,
        }
    }
}

// ----- the service wrapper ---------------------------------------------

/// A [`PolicyService`] with a replication role: serves the full read
/// alphabet from the monitor's lock-free snapshots, refuses
/// `Submit`/`Compact`/`SetConstraints` with [`ServiceError::ReadOnly`]
/// while a replica, answers `Promote` by stopping its [`Follower`] and
/// becoming a writable primary under a bumped term, and reports its
/// [`ReplicationStatus`] in `Stats`.
pub struct ReplicatedService {
    monitor: Arc<ReferenceMonitor>,
    writes: GroupCommit,
    hub: Arc<ReplicationHub>,
    follower: Mutex<Option<Follower>>,
}

impl ReplicatedService {
    /// A writable primary whose published epochs stream to subscribers.
    pub fn primary(monitor: Arc<ReferenceMonitor>) -> ReplicatedService {
        let hub = ReplicationHub::new(Arc::clone(&monitor), ReplicationRole::Primary);
        ReplicatedService {
            monitor,
            writes: GroupCommit::new(),
            hub,
            follower: Mutex::new(None),
        }
    }

    /// A read-only replica following `target`. Pass the bootstrap term
    /// as `synced_term` when the monitor's state was already installed
    /// from a [`fetch_bootstrap`] (the follower then resumes the
    /// stream at its epoch instead of re-downloading the snapshot).
    pub fn replica(
        monitor: Arc<ReferenceMonitor>,
        target: FollowTarget,
        retry: Duration,
        synced_term: Option<u64>,
    ) -> ReplicatedService {
        let hub = ReplicationHub::new(Arc::clone(&monitor), ReplicationRole::Replica);
        if let Some(term) = synced_term {
            hub.mark_bootstrapped(term);
        }
        let follower = Follower::spawn(Arc::clone(&hub), target, retry);
        ReplicatedService {
            monitor,
            writes: GroupCommit::new(),
            hub,
            follower: Mutex::new(Some(follower)),
        }
    }

    /// This node's replication hub (role, term, subscribers).
    pub fn hub(&self) -> &Arc<ReplicationHub> {
        &self.hub
    }

    /// See [`MonitorService::with_write_gather`](crate::MonitorService::with_write_gather).
    pub fn with_write_gather(mut self, gather: Duration) -> Self {
        self.writes = GroupCommit::with_gather(gather);
        self
    }

    fn promote(&self) -> Result<Response, ServiceError> {
        // Stop the follower before flipping the role so no in-flight
        // upstream frame lands after this node starts accepting writes.
        let mut follower = self.follower.lock();
        if let Some(f) = follower.take() {
            f.stop();
        }
        let (term, epoch) = self.hub.promote();
        Ok(Response::Promoted { term, epoch })
    }

    fn serve(&self, request: Request) -> Result<Response, ServiceError> {
        match request {
            Request::Promote => self.promote(),
            Request::Submit { .. } | Request::Compact | Request::SetConstraints { .. }
                if !self.hub.writable() =>
            {
                Err(ServiceError::ReadOnly)
            }
            Request::Submit { commands } => self
                .writes
                .submit(&self.monitor, commands)
                .map(Response::Outcomes),
            Request::Stats => match dispatch(&self.monitor, Request::Stats)? {
                Response::Stats(mut stats) => {
                    stats.replication = Some(self.hub.status());
                    Ok(Response::Stats(stats))
                }
                other => Ok(other),
            },
            read => dispatch(&self.monitor, read),
        }
    }
}

impl PolicyService for ReplicatedService {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.serve(request)
    }

    /// Same burst shaping as
    /// [`MonitorService::call_many`](crate::MonitorService): on a
    /// primary, the burst's `Submit`s enter the write combiner under
    /// one queue acquisition; on a replica they are refused without
    /// touching it.
    fn call_many(&self, requests: Vec<Request>) -> Vec<Result<Response, ServiceError>> {
        if !self.hub.writable() {
            return requests.into_iter().map(|r| self.serve(r)).collect();
        }
        call_burst(&self.writes, &self.monitor, requests, |other| {
            self.serve(other)
        })
    }
}
