//! [`WireClient`]: a blocking [`PolicyService`] over a socket, so every
//! existing caller of the trait works transparently against a remote
//! `adminrefd`.
//!
//! ## Pipelining without a background thread
//!
//! One `WireClient` is safely shared by many threads, and concurrent
//! calls are pipelined over the single connection: each call stamps a
//! fresh request id, appends its frame through the daemon's own
//! coalescing writer (`ConnWriter`: the last of several concurrent
//! callers flushes them all in one write, so their requests reach the
//! daemon together), and parks until the matching reply arrives.
//! Instead of a dedicated reader thread, the waiters share a **reader
//! lease**: whichever waiter finds the lease free reads exactly one
//! frame, deposits it in the matching waiter's slot by request id,
//! releases the lease and wakes everyone. Replies may arrive out of order (the daemon answers
//! slow requests from its worker pool, and submits from the
//! [group-commit](crate::group_commit) committer thread); the id match
//! makes that invisible.
//!
//! ## Failure semantics
//!
//! A transport failure (connection refused or reset, a malformed frame
//! from the server, a clean server-side close) poisons the client:
//! the in-flight and all future calls return
//! [`ServiceError::Transport`]. Reconnecting means constructing a new
//! `WireClient` — sessions are per-connection on the server, so a new
//! connection starts with no live sessions either way.
//!
//! ## Example
//!
//! Serve an in-memory monitor on a Unix socket and call it through the
//! trait:
//!
//! ```
//! use std::sync::Arc;
//! use adminref_core::prelude::*;
//! use adminref_monitor::MonitorConfig;
//! use adminref_service::client::WireClient;
//! use adminref_service::daemon::{Daemon, WireListener};
//! use adminref_service::{MonitorService, PolicyService};
//!
//! let (uni, policy) = PolicyBuilder::new()
//!     .assign("diana", "nurse")
//!     .permit("nurse", "read", "t1")
//!     .finish();
//! let diana = uni.find_user("diana").unwrap();
//! let nurse = uni.find_role("nurse").unwrap();
//! let mut probe = uni.clone();
//! let read_t1 = probe.perm("read", "t1");
//!
//! let service = Arc::new(MonitorService::in_memory(
//!     uni.clone(),
//!     policy,
//!     MonitorConfig::default(),
//! ));
//! let dir = adminref_store::TempDir::new("wire-client-doc")?;
//! let sock = dir.path().join("adminrefd.sock");
//! let daemon = Daemon::spawn(service, uni, WireListener::unix(&sock)?)?;
//!
//! let client = WireClient::connect_unix(&sock)?;
//! let session = client.create_session(diana)?;
//! client.activate_role(session, nurse)?;
//! assert!(client.check_access(session, read_t1)?);
//!
//! daemon.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::sync::{Condvar, Mutex};

use crate::daemon::{ConnWriter, Stream};
use crate::group_commit::lock_unpoisoned;
use crate::protocol::{PolicyService, Request, Response, ServiceError};
use crate::wire::{self, FrameKind};

/// A blocking [`PolicyService`] speaking the wire protocol over one
/// TCP or Unix-socket connection. See the [module docs](self) for the
/// sharing and failure model.
pub struct WireClient {
    writer: ConnWriter,
    reader: Mutex<BufReader<Stream>>,
    state: Mutex<ClientState>,
    wakeup: Condvar,
}

struct ClientState {
    next_id: u64,
    /// In-flight calls: request id → reply slot (`None` until the
    /// leasing reader deposits the reply).
    pending: HashMap<u64, Option<Result<Response, ServiceError>>>,
    /// Whether some waiter currently holds the reader lease.
    reader_leased: bool,
    /// Set on the first transport failure; poisons all calls.
    dead: Option<String>,
}

impl WireClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        // Request/response traffic: never trade latency for coalescing.
        let _ = stream.set_nodelay(true);
        WireClient::from_stream(Stream::Tcp(stream))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<WireClient> {
        let stream = UnixStream::connect(path)?;
        WireClient::from_stream(Stream::Unix(stream))
    }

    fn from_stream(stream: Stream) -> io::Result<WireClient> {
        let write_half = stream.try_clone()?;
        Ok(WireClient {
            writer: ConnWriter::new(write_half),
            reader: Mutex::new(BufReader::new(stream)),
            state: Mutex::new(ClientState {
                next_id: 1,
                pending: HashMap::new(),
                reader_leased: false,
                dead: None,
            }),
            wakeup: Condvar::new(),
        })
    }

    fn transport(message: impl Into<String>) -> ServiceError {
        ServiceError::Transport {
            message: message.into(),
        }
    }

    /// Registers the call, writes its frame, and parks until the reply
    /// with the same id arrives.
    fn call_remote(&self, request: &Request) -> Result<Response, ServiceError> {
        let payload = wire::encode_request(request);
        let id = {
            let mut st = lock_unpoisoned(&self.state);
            if let Some(msg) = &st.dead {
                return Err(Self::transport(msg.clone()));
            }
            let id = st.next_id;
            st.next_id += 1;
            st.pending.insert(id, None);
            id
        };
        if let Err(e) = self.writer.send_many(&[(FrameKind::Request, id, payload)]) {
            let mut st = lock_unpoisoned(&self.state);
            st.pending.remove(&id);
            st.dead.get_or_insert_with(|| e.to_string());
            self.wakeup.notify_all();
            return Err(Self::transport(e.to_string()));
        }
        self.await_reply(id)
    }

    fn await_reply(&self, id: u64) -> Result<Response, ServiceError> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if st.pending.get(&id).is_some_and(Option::is_some) {
                return match st.pending.remove(&id) {
                    Some(Some(result)) => result,
                    // Unreachable: the slot was just observed filled.
                    _ => Err(Self::transport("reply slot vanished")),
                };
            }
            if let Some(msg) = st.dead.clone() {
                st.pending.remove(&id);
                return Err(Self::transport(msg));
            }
            if !st.reader_leased {
                // Take the lease: with the state lock released, read
                // one frame plus everything else already buffered, then
                // deposit the whole burst and wake everyone at once.
                // Draining before notifying keeps pipelined callers
                // phase-locked: all waiters of a completed batch wake
                // together, their next requests contend on the writer
                // lock and leave as one coalesced flush, and the
                // daemon's combiner receives them as one group.
                st.reader_leased = true;
                drop(st);
                let (replies, failure) = self.read_available();
                st = lock_unpoisoned(&self.state);
                st.reader_leased = false;
                for (reply_id, result) in replies {
                    // An id nobody is waiting for (a waiter that
                    // already gave up) is dropped on the floor.
                    if let Some(slot) = st.pending.get_mut(&reply_id) {
                        *slot = Some(result);
                    }
                }
                if let Some(message) = failure {
                    st.dead.get_or_insert(message);
                }
                self.wakeup.notify_all();
                continue;
            }
            st = self.wakeup.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Reads one frame (blocking) plus every further frame already
    /// sitting in the read buffer, stopping at the first fatal
    /// transport/framing failure (returned alongside whatever was read
    /// before it; the failure poisons the client).
    #[allow(clippy::type_complexity)]
    fn read_available(&self) -> (Vec<(u64, Result<Response, ServiceError>)>, Option<String>) {
        let mut r = lock_unpoisoned(&self.reader);
        let mut replies = Vec::new();
        loop {
            match Self::read_one(&mut r) {
                Ok(reply) => replies.push(reply),
                Err(message) => return (replies, Some(message)),
            }
            if r.buffer().is_empty() {
                return (replies, None);
            }
        }
    }

    /// Reads one frame off the connection. `Ok` carries the reply and
    /// its id (which may belong to another waiter); `Err` is a fatal
    /// transport/framing failure that poisons the client.
    #[allow(clippy::type_complexity)]
    fn read_one(
        r: &mut BufReader<Stream>,
    ) -> Result<(u64, Result<Response, ServiceError>), String> {
        match wire::read_frame(&mut *r) {
            Ok(Some(frame)) => match frame.kind {
                FrameKind::Response => {
                    // One undecodable reply fails one call, not the
                    // whole client: framing is still synchronized.
                    let result = wire::decode_response(&frame.payload)
                        .map_err(|e| Self::transport(format!("undecodable response: {e}")));
                    Ok((frame.request_id, result))
                }
                FrameKind::Error => {
                    let result = match wire::decode_error(&frame.payload) {
                        Ok(service_err) => Err(service_err),
                        Err(e) => Err(Self::transport(format!("undecodable error frame: {e}"))),
                    };
                    Ok((frame.request_id, result))
                }
                FrameKind::Request => Err("server sent a request frame".into()),
                FrameKind::ReplSubscribe | FrameKind::ReplSnapshot | FrameKind::ReplDelta => {
                    Err("server sent a replication frame on a client connection".into())
                }
            },
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl PolicyService for WireClient {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.call_remote(&request)
    }
}
