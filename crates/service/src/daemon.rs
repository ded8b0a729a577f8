//! `adminrefd`: the network daemon serving a [`PolicyService`] over the
//! [`wire`] protocol on TCP or Unix sockets.
//!
//! ## Serving model
//!
//! One accept loop, one thread per connection, and one worker pool that
//! every connection shares:
//!
//! * The **reader** thread of a connection decodes frames and answers
//!   cheap requests inline (access checks, session lifecycle, audit
//!   reads, version/stats). It is the connection's only thread.
//! * **Submits** go from the reader straight into the service's
//!   [group-commit combiner](crate::group_commit)
//!   ([`PolicyService::write_combiner`]), and the reader goes back to
//!   its socket; frames read back-to-back land in one drain. The
//!   combiner's committer thread executes every drain and writes each
//!   connection's reply train after the WAL sync; no reader ever runs a
//!   drain. A peer whose replies stall a write for a second is
//!   disconnected.
//! * **Other slow requests** (`AnalyzeReach`, `CheckRefinement`,
//!   `Compact`, `Lint`, `Analyze`, `SetConstraints`, and submits to a
//!   server without a combiner) each go to the daemon's pool of
//!   [`DaemonConfig::workers`] threads, one FIFO queue that is neither
//!   bounded nor fair between connections (nor are connections capped
//!   or analyses budgeted). Every analysis runs on the worker that took
//!   it and starts no threads of its own. A worker writes the reply,
//!   matched by request id, possibly out of order; a panicking handler
//!   is answered [`ServiceError::Aborted`], and the worker serves on.
//! * **Per-connection sessions**: sessions created over a connection
//!   are dropped when it closes, so a crashed client cannot leak live
//!   sessions into the monitor.
//!
//! ## Failure semantics
//!
//! A frame-synchronized failure (undecodable payload, out-of-range id,
//! wrong frame kind) is answered with an error frame carrying
//! [`ServiceError::Transport`] and the connection continues. A framing
//! failure (bad magic, unsupported version, oversized or truncated
//! frame) means the stream position is untrustworthy: the daemon sends
//! a best-effort error frame with request id `0`, then closes the
//! connection.
//!
//! ## Shutdown
//!
//! No thread polls. The accept loop blocks in `accept` and every reader
//! blocks in `read`; whatever stops a thread wakes it.
//! [`Daemon::shutdown`] (also run on drop) sets the stop flag, wakes the
//! accept loop by connecting once to its own listener, and joins it.
//! Then it shuts down the read half of every live connection, which
//! wakes an idle reader with end-of-stream. Some kernels still deliver
//! what a TCP peer sends after that, so each reader also checks the
//! stop flag once per frame, and a peer that keeps sending cannot hold
//! shutdown up. Either way the reader drains as if its peer had closed:
//! its queued submits and analyses are answered and its sessions
//! dropped. Shutdown joins those threads, then the pool's workers, and
//! removes a Unix socket file it bound. A connection closes once every
//! request it handed off is answered, and removes itself from the
//! daemon's registry of live connections as its last act, so nothing
//! has to reap closed ones.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use adminref_core::universe::Universe;
use parking_lot::Mutex;

use crate::group_commit::{ReplyTo, SubmitResult};
use crate::protocol::{PolicyService, Request, Response, ServiceError};
use crate::wire::{self, FrameError, FrameKind};

/// Tuning for a [`Daemon`].
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Threads of the daemon's one worker pool, which every connection
    /// shares, for slow requests other than submits (at least one).
    /// Submits wait in the combiner without a thread, so this does not
    /// bound how many are in flight.
    pub workers: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig { workers: 8 }
    }
}

/// A bound listening socket for [`Daemon::spawn`].
#[derive(Debug)]
pub enum WireListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener plus the path it is bound to (removed on
    /// shutdown).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl WireListener {
    /// Binds a TCP listener. Pass port `0` for an ephemeral port and
    /// read it back with [`Daemon::local_addr`].
    pub fn tcp(addr: impl ToSocketAddrs) -> io::Result<WireListener> {
        Ok(WireListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-domain listener at `path`, removing a stale socket
    /// file left by a previous run first.
    #[cfg(unix)]
    pub fn unix(path: impl AsRef<Path>) -> io::Result<WireListener> {
        let path = path.as_ref().to_path_buf();
        // A leftover socket file from a crashed daemon would fail the
        // bind; removing it is the conventional named-socket hygiene.
        let _ = std::fs::remove_file(&path);
        Ok(WireListener::Unix(UnixListener::bind(&path)?, path))
    }
}

/// A running `adminrefd` instance: accept loop, per-connection threads
/// and the worker pool, all joined on [`shutdown`](Daemon::shutdown).
pub struct Daemon {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl Daemon {
    /// Starts serving `service` on `listener` with default tuning.
    ///
    /// `universe` is the decode context for incoming requests (the
    /// serving store's universe): ids on the wire are resolved — and
    /// bounds-checked — against it.
    pub fn spawn(
        service: Arc<dyn PolicyService>,
        universe: Universe,
        listener: WireListener,
    ) -> io::Result<Daemon> {
        Daemon::spawn_replicated(service, universe, listener, DaemonConfig::default(), None)
    }

    /// [`spawn`](Daemon::spawn) with explicit tuning and a replication hub:
    /// connections whose first frame is a
    /// [`FrameKind::ReplSubscribe`](crate::wire::FrameKind)
    /// are handed to the hub and stream delta frames instead of serving
    /// requests. Without a hub, such frames are answered with a
    /// transport error.
    pub fn spawn_replicated(
        service: Arc<dyn PolicyService>,
        universe: Universe,
        listener: WireListener,
        config: DaemonConfig,
        hub: Option<Arc<crate::replication::ReplicationHub>>,
    ) -> io::Result<Daemon> {
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Registry> = Arc::default();
        let universe = Arc::new(universe);

        let (local_addr, unix_path) = match &listener {
            WireListener::Tcp(l) => (l.local_addr().ok(), None),
            #[cfg(unix)]
            WireListener::Unix(_, path) => (None, Some(path.clone())),
        };

        // The pool's workers exit once every job sender is gone: the
        // accept loop's and each connection's.
        let (jobs, queue) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let (queue, service) = (Arc::clone(&queue), Arc::clone(&service));
                thread::Builder::new()
                    .name("adminrefd-worker".into())
                    .spawn(move || work(&queue, &*service))
            })
            .collect::<io::Result<_>>()?;

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("adminrefd-accept".into())
                .spawn(move || accept_loop(listener, service, universe, stop, conns, jobs, hub))?
        };

        Ok(Daemon {
            stop,
            accept: Some(accept),
            conns,
            workers,
            local_addr,
            #[cfg(unix)]
            unix_path,
        })
    }

    /// The bound TCP address (`None` for Unix listeners) — how a test
    /// or operator recovers an ephemeral port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// `true` once shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains and joins every connection, removes the
    /// Unix socket file. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            self.wake_accept();
            let _ = handle.join();
        }
        // With the accept loop gone no connection registers any more.
        // A reader whose read half is shut down reads end-of-stream and
        // drains; writes still work, so its replies go out.
        let live: Vec<_> = self.conns.lock().drain().map(|(_, conn)| conn).collect();
        for (stream, _) in &live {
            stream.shutdown(Shutdown::Read);
        }
        for (_, handle) in live {
            let _ = handle.join();
        }
        // Every job sender is gone with them, so the workers exit.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Connects once to the listener so a blocked `accept` returns and
    /// the accept loop sees the stop flag. A listener bound to an
    /// unspecified address is reached on the loopback address of its
    /// family.
    fn wake_accept(&self) {
        if let Some(mut addr) = self.local_addr {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ----- the accept loop -------------------------------------------------

/// One accepted connection, abstracting over the two socket families.
/// Shared with [`crate::client`], whose sockets are the same two
/// families.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    pub(crate) fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
        }
    }

    pub(crate) fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// The live connections by id: a clone of each one's socket and its
/// thread. A connection removes its own entry as its last act.
type Registry = Mutex<HashMap<u64, (Stream, JoinHandle<()>)>>;

fn accept_loop(
    listener: WireListener,
    service: Arc<dyn PolicyService>,
    universe: Arc<Universe>,
    stop: Arc<AtomicBool>,
    conns: Arc<Registry>,
    jobs: mpsc::Sender<Job>,
    hub: Option<Arc<crate::replication::ReplicationHub>>,
) {
    for id in 0u64.. {
        let accepted = match &listener {
            WireListener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            WireListener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        // `shutdown` wakes a blocked accept by connecting; that
        // connection is dropped here.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match accepted {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A failed accept (EMFILE, reset during handshake) is not a
            // reason to stop serving other clients, but retrying at once
            // would spin while the cause lasts.
            Err(_) => {
                thread::sleep(Duration::from_millis(25));
                continue;
            }
        };
        if let Stream::Tcp(s) = &stream {
            // Request/response traffic: never trade latency for
            // coalescing.
            let _ = s.set_nodelay(true);
        }
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let (service, universe, hub) = (Arc::clone(&service), Arc::clone(&universe), hub.clone());
        let (stop, registry, jobs) = (Arc::clone(&stop), Arc::clone(&conns), jobs.clone());
        // Registering under the lock the thread's last act takes means
        // the entry exists before the thread can remove it.
        let mut live = conns.lock();
        let spawned = thread::Builder::new()
            .name("adminrefd-conn".into())
            .spawn(move || {
                handle_connection(stream, service, universe, &stop, jobs, hub);
                registry.lock().remove(&id);
            });
        if let Ok(handle) = spawned {
            live.insert(id, (registered, handle));
        }
    }
}

// ----- one connection --------------------------------------------------

/// Whether a request is answered inline by the reader or handed on (to
/// the write combiner or the worker pool). Session-lifecycle requests must
/// stay inline: the reader owns the per-connection session set.
fn is_slow(request: &Request) -> bool {
    matches!(
        request,
        Request::Submit { .. }
            | Request::AnalyzeReach { .. }
            | Request::CheckRefinement { .. }
            | Request::Compact
            | Request::Lint { .. }
            | Request::Analyze { .. }
            | Request::SetConstraints { .. }
    )
}

/// One connection as the worker pool and the write combiner see it.
/// Every request handed off holds it until answered, so the connection's
/// reader, waiting on the other end of `_done`, sees the last one go.
struct Conn {
    writer: Arc<ConnWriter>,
    _done: mpsc::Sender<()>,
}

/// A slow request for the worker pool: its connection, id and request.
type Job = (Arc<Conn>, u64, Request);

/// A worker of the pool: serves jobs until the last job sender is gone.
/// A panicking handler is answered [`ServiceError::Aborted`]; the worker
/// serves on, so the pool every connection shares never shrinks.
fn work(queue: &Mutex<mpsc::Receiver<Job>>, service: &dyn PolicyService) {
    loop {
        // Hold the receiver lock only across the recv itself so idle
        // workers queue up behind it, not behind a serve.
        let Ok((conn, id, request)) = queue.lock().recv() else {
            break;
        };
        let served = catch_unwind(AssertUnwindSafe(|| service.call(request)));
        let result = served.unwrap_or(Err(ServiceError::Aborted));
        send_result(&conn.writer, id, &result);
    }
}

impl ReplyTo for Conn {
    fn reply(&self, replies: Vec<(u64, SubmitResult)>) {
        let frames: Vec<_> = replies
            .into_iter()
            .map(|(id, result)| frame(id, &result.map(Response::Outcomes)))
            .collect();
        let _ = self.writer.send_many(&frames);
    }
}

fn handle_connection(
    stream: Stream,
    service: Arc<dyn PolicyService>,
    universe: Arc<Universe>,
    stop: &AtomicBool,
    jobs: mpsc::Sender<Job>,
    hub: Option<Arc<crate::replication::ReplicationHub>>,
) {
    // Reads block until a frame, a close or the daemon's shutdown
    // arrives; the write timeout bounds a stalled peer (see
    // `ConnWriter`).
    let timeouts = stream.set_timeouts(None, Some(WRITE_STALL));
    if timeouts.is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter::new(clone)),
        Err(_) => return,
    };
    // Buffered reads pull a whole burst of pipelined frames out of the
    // kernel in one syscall, and `buffer()` tells the loop below when
    // more frames are already here (= keep accumulating the burst).
    let mut reader = BufReader::new(stream);
    let (done, all_answered) = mpsc::channel::<()>();
    let conn = Arc::new(Conn {
        writer: Arc::clone(&writer),
        _done: done,
    });

    // Sessions created over this connection, dropped when it closes.
    let mut sessions: HashSet<u64> = HashSet::new();
    // Slow requests of the burst currently being read, dispatched when
    // the buffered input runs dry.
    let mut burst: Vec<(u64, Request)> = Vec::new();

    loop {
        // Some kernels still deliver what a TCP peer sends after its
        // read half is shut down; the flag ends a reader that never
        // runs dry.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let frame = match wire::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF (the peer closed, or the daemon shut the read
            // half down) or a transport failure: nothing more to say.
            Ok(None) | Err(FrameError::Io(_)) => break,
            Err(FrameError::Wire(wire_err)) => {
                // The stream position is untrustworthy after a framing
                // violation: answer once (request id 0), then close.
                send_error(&writer, 0, &wire_err.into());
                break;
            }
        };
        if frame.kind == FrameKind::ReplSubscribe {
            match hub.as_deref() {
                // The connection becomes a replication stream; when the
                // serve returns the peer is gone and we tear down.
                Some(hub) => {
                    crate::replication::serve_replication(hub, frame, &mut reader, &writer, stop);
                    break;
                }
                None => {
                    let err = ServiceError::Transport {
                        message: "replication is not enabled on this daemon".into(),
                    };
                    send_error(&writer, frame.request_id, &err);
                    continue;
                }
            }
        }
        if frame.kind != FrameKind::Request {
            let err = ServiceError::Transport {
                message: format!("expected a request frame, got {:?}", frame.kind),
            };
            send_error(&writer, frame.request_id, &err);
            continue;
        }
        let request = match wire::decode_request(&frame.payload, &universe)
            .and_then(|req| wire::validate_request(&req, &universe).map(|()| req))
        {
            Ok(request) => request,
            Err(wire_err) => {
                send_error(&writer, frame.request_id, &wire_err.into());
                continue;
            }
        };
        if is_slow(&request) {
            burst.push((frame.request_id, request));
            if reader.buffer().is_empty() {
                dispatch_burst(&*service, &conn, &jobs, &mut burst);
            }
            continue;
        }
        // Inline path; watch session lifecycle for disconnect cleanup.
        let result = service.call(request.clone());
        match (&request, &result) {
            (Request::CreateSession { .. }, Ok(Response::SessionCreated(sid))) => {
                sessions.insert(sid.raw());
            }
            (Request::DropSession { session }, Ok(Response::SessionDropped(true))) => {
                sessions.remove(&session.raw());
            }
            _ => {}
        }
        send_result(&writer, frame.request_id, &result);
    }

    // Drain: dispatch any still-accumulating burst and let go of `conn`;
    // the wait ends once every job and every queued submit of this
    // connection is answered and has dropped its hold. Then drop its
    // sessions.
    dispatch_burst(&*service, &conn, &jobs, &mut burst);
    drop(conn);
    let _ = all_answered.recv();
    for raw in sessions {
        let _ = service.call(Request::DropSession {
            session: adminref_monitor::SessionId::from_raw(raw),
        });
    }
    reader.get_ref().shutdown(Shutdown::Both);
}

/// Hands an accumulated burst on: its `Submit`s enter the write combiner
/// together (one drain); any other slow request (or a submit to a server
/// without a combiner) goes to the worker pool, so it never queues behind
/// the writes. The pool outlives every job sender, so a send never fails.
fn dispatch_burst(
    service: &dyn PolicyService,
    conn: &Arc<Conn>,
    jobs: &mpsc::Sender<Job>,
    burst: &mut Vec<(u64, Request)>,
) {
    let combiner = service.write_combiner();
    let mut submits = Vec::new();
    for (id, request) in burst.drain(..) {
        match request {
            Request::Submit { commands } if combiner.is_some() => submits.push((id, commands)),
            request => drop(jobs.send((Arc::clone(conn), id, request))),
        }
    }
    if let (Some(commit), false) = (combiner, submits.is_empty()) {
        commit.submit_replying(&(Arc::clone(conn) as Arc<dyn ReplyTo>), submits);
    }
}

/// The shared write half of one connection, the daemon's or a
/// [`WireClient`](crate::client::WireClient)'s, with **coalesced
/// flushes**: a sender skips its flush when another sender is already
/// queued on the writer lock — the last sender in any contention burst
/// flushes everyone's frames in one syscall. The group-commit committer
/// sends a connection's reply train at once, so it arrives in one client
/// read; a client's concurrent requests leave as one write and reach the
/// combiner together. A failed write, or one stalled past the socket's
/// write timeout (the daemon's is [`WRITE_STALL`]: the peer stopped
/// reading), closes the socket: later writes fail at once and the reader
/// sees the close, so a stalled peer holds up the committer at most
/// once.
pub(crate) struct ConnWriter {
    writer: Mutex<BufWriter<Stream>>,
    /// Senders between their queue announcement and their write. A
    /// sender that observes this nonzero after writing may skip its
    /// flush: the queued sender is guaranteed to write after it and
    /// repeat the same check.
    queued: AtomicUsize,
}

impl ConnWriter {
    pub(crate) fn new(stream: Stream) -> ConnWriter {
        ConnWriter {
            writer: Mutex::new(BufWriter::new(stream)),
            queued: AtomicUsize::new(0),
        }
    }

    pub(crate) fn send(&self, kind: FrameKind, id: u64, payload: &[u8]) {
        let _ = self.send_many(&[(kind, id, payload)]);
    }

    /// Writes frames under one lock acquisition, with at most one flush.
    pub(crate) fn send_many<P: AsRef<[u8]>>(
        &self,
        frames: &[(FrameKind, u64, P)],
    ) -> io::Result<()> {
        self.queued.fetch_add(1, Ordering::SeqCst);
        let mut w = self.writer.lock();
        // Decrement before writing: a panicking write must not stall flushes.
        self.queued.fetch_sub(1, Ordering::SeqCst);
        let mut written = frames.iter().try_for_each(|(kind, id, payload)| {
            wire::write_frame(&mut *w, *kind, *id, payload.as_ref())
        });
        if written.is_ok() && self.queued.load(Ordering::SeqCst) == 0 {
            written = w.flush();
        }
        if written.is_err() {
            w.get_ref().shutdown(Shutdown::Both);
        }
        written
    }
}

/// How long a write may stall before its connection is closed.
const WRITE_STALL: Duration = Duration::from_secs(1);

/// One reply frame: a response, or the error that answers the request.
fn frame(id: u64, result: &Result<Response, ServiceError>) -> (FrameKind, u64, Vec<u8>) {
    match result {
        Ok(response) => (FrameKind::Response, id, wire::encode_response(response)),
        Err(err) => (FrameKind::Error, id, wire::encode_error(err)),
    }
}

fn send_result(writer: &ConnWriter, id: u64, result: &Result<Response, ServiceError>) {
    let _ = writer.send_many(&[frame(id, result)]);
}

pub(crate) fn send_error(writer: &ConnWriter, id: u64, err: &ServiceError) {
    writer.send(FrameKind::Error, id, &wire::encode_error(err));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonitorService;
    use adminref_core::ids::Entity;
    use adminref_core::policy::Policy;
    use adminref_core::safety::SafetyConfig;
    use adminref_monitor::MonitorConfig;
    use std::time::Instant;

    /// A one-worker daemon on a loopback port over `service`, and the
    /// universe its requests are built in.
    fn serve(service: impl PolicyService + 'static) -> (Daemon, Universe) {
        let universe = service_universe();
        let listener = WireListener::tcp("127.0.0.1:0").unwrap();
        let config = DaemonConfig { workers: 1 };
        let service: Arc<dyn PolicyService> = Arc::new(service);
        let daemon =
            Daemon::spawn_replicated(service, universe.clone(), listener, config, None).unwrap();
        (daemon, universe)
    }

    fn service_universe() -> Universe {
        let mut universe = Universe::new();
        universe.user("admin");
        universe.perm("use", "obj");
        universe
    }

    fn monitor() -> MonitorService {
        let universe = service_universe();
        let policy = Policy::new(&universe);
        MonitorService::in_memory(universe, policy, MonitorConfig::default())
    }

    fn analysis(universe: &Universe) -> Vec<u8> {
        wire::encode_request(&Request::AnalyzeReach {
            entity: Entity::User(universe.find_user("admin").unwrap()),
            // Interning an interned privilege returns its id.
            perm: universe.clone().perm("use", "obj"),
            config: SafetyConfig::default(),
        })
    }

    /// Analyses take 100 ms, and the first one panics if `panics` is set.
    struct Analyses {
        inner: MonitorService,
        panics: AtomicBool,
    }

    impl PolicyService for Analyses {
        fn call(&self, request: Request) -> Result<Response, ServiceError> {
            if matches!(request, Request::AnalyzeReach { .. }) {
                assert!(
                    !self.panics.swap(false, Ordering::SeqCst),
                    "the handler panics"
                );
                thread::sleep(Duration::from_millis(100));
            }
            self.inner.call(request)
        }
    }

    fn connect(daemon: &Daemon) -> TcpStream {
        let stream = TcpStream::connect(daemon.local_addr().unwrap()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    }

    /// Every request is routed as documented: checks and session
    /// lifecycle inline on the reader, submits and analyses onward.
    #[test]
    fn slow_requests_leave_the_reader() {
        let mut universe = service_universe();
        let user = universe.find_user("admin").unwrap();
        let perm = universe.perm("use", "obj");
        let role = universe.role("staff");
        let session = adminref_monitor::SessionId::from_raw(1);
        let table = [
            (Request::CheckAccess { session, perm }, false),
            (Request::CreateSession { user }, false),
            (Request::ActivateRole { session, role }, false),
            (Request::DeactivateRole { session, role }, false),
            (Request::DropSession { session }, false),
            (Request::AuditTail { max: 1 }, false),
            (Request::AuditSince { after: 0, max: 1 }, false),
            (Request::Version, false),
            (Request::Stats, false),
            (Request::Promote, false),
            (Request::GetConstraints, false),
            (Request::Submit { commands: vec![] }, true),
            (
                Request::AnalyzeReach {
                    entity: Entity::User(user),
                    perm,
                    config: SafetyConfig::default(),
                },
                true,
            ),
            (
                Request::CheckRefinement {
                    candidate: Policy::new(&universe),
                    direction: crate::RefinementDirection::CandidateRefinesLive,
                    max_witnesses: 1,
                },
                true,
            ),
            (Request::Compact, true),
            (Request::Lint { sod_pairs: vec![] }, true),
            (Request::Analyze { commands: vec![] }, true),
            (
                Request::SetConstraints {
                    constraints: Default::default(),
                },
                true,
            ),
        ];
        for (request, slow) in table {
            assert_eq!(is_slow(&request), slow, "{request:?}");
        }
    }

    /// A closed connection leaves the registry by itself: after 64
    /// connect/close cycles the daemon tracks only live connections,
    /// give or take the one still closing.
    #[test]
    fn closed_connections_are_joined_while_serving() {
        let (daemon, _) = serve(monitor());
        for id in 0..64 {
            let mut stream = connect(&daemon);
            let version = wire::encode_request(&Request::Version);
            wire::write_frame(&mut stream, FrameKind::Request, id, &version).unwrap();
            assert!(wire::read_frame(&mut stream).unwrap().is_some());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.conns.lock().len() > 1 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let tracked = daemon.conns.lock().len();
        assert!(
            tracked <= 1,
            "{tracked} connection threads tracked after 64 closed"
        );
        daemon.shutdown();
    }

    /// A panicking handler is answered `Aborted` and does not take the
    /// daemon's only worker with it: another connection's analysis is
    /// still served.
    #[test]
    fn a_panicking_handler_is_aborted_and_the_pool_serves_on() {
        let (daemon, universe) = serve(Analyses {
            inner: monitor(),
            panics: AtomicBool::new(true),
        });
        for (id, expected) in [(1, FrameKind::Error), (2, FrameKind::Response)] {
            let mut stream = connect(&daemon);
            wire::write_frame(&mut stream, FrameKind::Request, id, &analysis(&universe)).unwrap();
            let frame = wire::read_frame(&mut stream).unwrap().expect("a reply");
            assert_eq!((frame.request_id, frame.kind), (id, expected));
            if expected == FrameKind::Error {
                let err = wire::decode_error(&frame.payload).unwrap();
                assert!(matches!(err, ServiceError::Aborted), "{err:?}");
            }
        }
        daemon.shutdown();
    }

    /// A peer that sends an analysis and shuts its write half still reads
    /// the reply: the reader sees end-of-stream at once but closes the
    /// socket only after the pool has answered.
    #[test]
    fn a_half_closed_connection_reads_its_reply_before_the_close() {
        let (daemon, universe) = serve(Analyses {
            inner: monitor(),
            panics: AtomicBool::new(false),
        });
        let mut stream = connect(&daemon);
        wire::write_frame(&mut stream, FrameKind::Request, 7, &analysis(&universe)).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let frame = wire::read_frame(&mut stream).unwrap().expect("the reply");
        assert_eq!((frame.request_id, frame.kind), (7, FrameKind::Response));
        assert!(wire::read_frame(&mut stream).unwrap().is_none());
        daemon.shutdown();
    }
}
