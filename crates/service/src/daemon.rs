//! `adminrefd`: the network daemon serving a [`PolicyService`] over the
//! [`wire`] protocol on TCP or Unix sockets.
//!
//! ## Serving model
//!
//! One accept loop, one thread per connection, a small per-connection
//! worker pool:
//!
//! * The **reader** thread of a connection decodes frames and answers
//!   cheap requests inline (access checks, session lifecycle, audit
//!   reads, version/stats, lint).
//! * **Submits** go from the reader straight into the service's
//!   [group-commit combiner](crate::group_commit)
//!   ([`PolicyService::write_combiner`]) and occupy no thread while
//!   they wait; frames read back-to-back land in one drain, whose leader
//!   writes every connection's reply train after the WAL sync. A reader
//!   may lead, for a bounded number of drains. A peer whose replies
//!   stall a write for a second is disconnected.
//! * **Other slow requests** (`AnalyzeReach`, `CheckRefinement`,
//!   `Compact`, `Analyze`, `SetConstraints`, and submits to a server
//!   without a combiner) each go to a worker, which writes the reply.
//!   Responses are matched by request id, possibly out of order.
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
//! its queued submits are answered and its sessions dropped. Shutdown
//! joins those threads and removes a Unix socket file it bound. A
//! connection closes once all of its submits are answered, and removes
//! itself from the daemon's registry of live connections as its last
//! act, so nothing has to reap closed ones.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
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
    /// Worker threads per connection for slow requests other than
    /// submits. Submits wait in the combiner without a thread, so this
    /// does not bound how many are in flight.
    pub workers_per_connection: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers_per_connection: 8,
        }
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

/// A running `adminrefd` instance: accept loop plus per-connection
/// threads, all joined on [`shutdown`](Daemon::shutdown).
pub struct Daemon {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Registry>,
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
        Daemon::spawn_with(service, universe, listener, DaemonConfig::default())
    }

    /// [`spawn`](Daemon::spawn) with explicit tuning.
    pub fn spawn_with(
        service: Arc<dyn PolicyService>,
        universe: Universe,
        listener: WireListener,
        config: DaemonConfig,
    ) -> io::Result<Daemon> {
        Daemon::spawn_replicated(service, universe, listener, config, None)
    }

    /// [`spawn_with`](Daemon::spawn_with) plus a replication hub:
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

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("adminrefd-accept".into())
                .spawn(move || accept_loop(listener, service, universe, stop, conns, config, hub))?
        };

        Ok(Daemon {
            stop,
            accept: Some(accept),
            conns,
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
    config: DaemonConfig,
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
        let (stop, registry) = (Arc::clone(&stop), Arc::clone(&conns));
        // Registering under the lock the thread's last act takes means
        // the entry exists before the thread can remove it.
        let mut live = conns.lock();
        let spawned = thread::Builder::new()
            .name("adminrefd-conn".into())
            .spawn(move || {
                handle_connection(stream, service, universe, &stop, config, hub);
                registry.lock().remove(&id);
            });
        if let Ok(handle) = spawned {
            live.insert(id, (registered, handle));
        }
    }
}

// ----- one connection --------------------------------------------------

/// Whether a request is answered inline by the reader or handed on (to
/// the write combiner or a worker). Session-lifecycle requests must
/// stay inline: the reader owns the per-connection session set.
fn is_slow(request: &Request) -> bool {
    matches!(
        request,
        Request::Submit { .. }
            | Request::AnalyzeReach { .. }
            | Request::CheckRefinement { .. }
            | Request::Compact
            | Request::Analyze { .. }
            | Request::SetConstraints { .. }
    )
}

/// One connection as the write combiner sees it. Queued submits hold
/// the job sender, so the workers outlive the last unanswered submit.
struct Conn {
    writer: Arc<ConnWriter>,
    jobs: mpsc::Sender<(u64, Request)>,
}

impl ReplyTo for Conn {
    fn reply(&self, replies: Vec<(u64, SubmitResult)>) {
        let frames: Vec<_> = replies
            .into_iter()
            .map(|(id, result)| frame(id, &result.map(Response::Outcomes)))
            .collect();
        self.writer.send_many(&frames);
    }
}

fn handle_connection(
    stream: Stream,
    service: Arc<dyn PolicyService>,
    universe: Arc<Universe>,
    stop: &AtomicBool,
    config: DaemonConfig,
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

    // Worker pool on one job channel; a send fails once no worker is left.
    let (jobs, rx) = mpsc::channel::<(u64, Request)>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(config.workers_per_connection);
    for _ in 0..config.workers_per_connection.max(1) {
        let (rx, service, writer) = (Arc::clone(&rx), Arc::clone(&service), Arc::clone(&writer));
        let spawned = thread::Builder::new()
            .name("adminrefd-worker".into())
            .spawn(move || loop {
                // Hold the receiver lock only across the recv itself so
                // idle workers queue up behind it, not behind a serve.
                let Ok((id, request)) = rx.lock().recv() else {
                    break;
                };
                send_result(&writer, id, &service.call(request));
            });
        workers.extend(spawned);
    }
    drop(rx);
    let conn = Arc::new(Conn {
        writer: Arc::clone(&writer),
        jobs,
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
            if reader.buffer().is_empty() && !dispatch_burst(&*service, &conn, &mut burst) {
                break;
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

    // Drain: dispatch any still-accumulating burst and drop the job
    // sender; the workers exit once every slow request and every queued
    // submit of this connection is answered. Then drop its sessions.
    let _ = dispatch_burst(&*service, &conn, &mut burst);
    drop(conn);
    for handle in workers {
        let _ = handle.join();
    }
    for raw in sessions {
        let _ = service.call(Request::DropSession {
            session: adminref_monitor::SessionId::from_raw(raw),
        });
    }
    reader.get_ref().shutdown(Shutdown::Both);
}

/// Hands an accumulated burst on: its `Submit`s enter the write combiner
/// together (one drain); any other slow request (or a submit to a server
/// without a combiner) gets a worker of its own, so it never queues behind
/// the writes. Returns `false` when the workers are gone.
fn dispatch_burst(
    service: &dyn PolicyService,
    conn: &Arc<Conn>,
    burst: &mut Vec<(u64, Request)>,
) -> bool {
    let combiner = service.write_combiner();
    let (mut submits, mut sent) = (Vec::new(), true);
    for (id, request) in burst.drain(..) {
        match request {
            Request::Submit { commands } if combiner.is_some() => submits.push((id, commands)),
            request => sent &= conn.jobs.send((id, request)).is_ok(),
        }
    }
    if let (Some((commit, monitor)), false) = (combiner, submits.is_empty()) {
        commit.submit_replying(monitor, &(Arc::clone(conn) as Arc<dyn ReplyTo>), submits);
    }
    sent
}

/// The shared write half of one connection, with **coalesced flushes**:
/// a sender skips its flush when another sender is already queued on
/// the writer lock — the last sender in any contention burst flushes
/// everyone's frames in one syscall. A group-commit leader sends a
/// connection's reply train at once, so it arrives in one client read.
/// A failed write, or one stalled for [`WRITE_STALL`] (the peer stopped
/// reading), closes the socket: later writes fail at once and the reader
/// sees the close, so a stalled peer holds up a leader at most once.
pub(crate) struct ConnWriter {
    writer: Mutex<BufWriter<Stream>>,
    /// Senders between their queue announcement and their write. A
    /// sender that observes this nonzero after writing may skip its
    /// flush: the queued sender is guaranteed to write after it and
    /// repeat the same check.
    queued: AtomicUsize,
}

impl ConnWriter {
    fn new(stream: Stream) -> ConnWriter {
        ConnWriter {
            writer: Mutex::new(BufWriter::new(stream)),
            queued: AtomicUsize::new(0),
        }
    }

    pub(crate) fn send(&self, kind: FrameKind, id: u64, payload: &[u8]) {
        self.send_many(&[(kind, id, payload)]);
    }

    /// Writes frames under one lock acquisition, with at most one flush.
    fn send_many<P: AsRef<[u8]>>(&self, frames: &[(FrameKind, u64, P)]) {
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
    writer.send_many(&[frame(id, result)]);
}

pub(crate) fn send_error(writer: &ConnWriter, id: u64, err: &ServiceError) {
    writer.send(FrameKind::Error, id, &wire::encode_error(err));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonitorService;
    use adminref_core::policy::Policy;
    use adminref_monitor::MonitorConfig;
    use std::time::Instant;

    /// A closed connection leaves the registry by itself: after 64
    /// connect/close cycles the daemon tracks only live connections,
    /// give or take the one still closing.
    #[test]
    fn closed_connections_are_joined_while_serving() {
        let mut universe = Universe::new();
        universe.user("admin");
        let policy = Policy::new(&universe);
        let service: Arc<dyn PolicyService> = Arc::new(MonitorService::in_memory(
            universe.clone(),
            policy,
            MonitorConfig::default(),
        ));
        let config = DaemonConfig {
            workers_per_connection: 1,
        };
        let listener = WireListener::tcp("127.0.0.1:0").unwrap();
        let daemon = Daemon::spawn_with(service, universe, listener, config).unwrap();
        let addr = daemon.local_addr().unwrap();
        for id in 0..64 {
            let mut stream = TcpStream::connect(addr).unwrap();
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
}
