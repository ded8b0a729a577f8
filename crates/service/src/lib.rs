//! # adminref-service
//!
//! The typed serving surface over the reference monitor: every monitor
//! capability — access checks, session lifecycle, administrative
//! batches, reachability and refinement analyses, audit reads,
//! version/stats — is one variant of a [`Request`]/[`Response`] enum
//! pair, answered through one [`PolicyService::call`] entry point with
//! one unified [`ServiceError`]. The paper's reference monitor mediates
//! every access and administrative step; this crate is that mediation
//! as an API.
//!
//! Five layers:
//!
//! * **Protocol** ([`protocol`]) — the `Request`/`Response` alphabet,
//!   the error, and the [`PolicyService`] trait whose typed convenience
//!   methods are thin wrappers over `call`.
//! * **Group commit** ([`group_commit`]) — the daemon's write path:
//!   connections enqueue their submits, and one committer thread drains
//!   everything queued as **one** monitor batch (one Definition-5
//!   serial execution, one WAL sync, one `ReachIndex` rebuild, one
//!   published epoch), then writes each connection its own
//!   [`StepOutcome`](adminref_core::transition::StepOutcome)s after the
//!   sync. In-process submits bypass it and execute directly. Serial
//!   semantics are preserved — outcomes equal *some* serial
//!   interleaving of the submitters (the drain order), which the suite
//!   verifies by replaying the audit order through Definition 5.
//! * **Wire codec** ([`wire`]) — the versioned binary serialization of
//!   the whole alphabet: a fixed frame header (magic, [`WIRE_VERSION`],
//!   kind, payload length, echoed request id) and per-variant payload
//!   rows of the one codec, `adminref_store::codec`. Decoders return
//!   typed [`WireError`]s, never panic; the format is specified in
//!   `specs/wire_protocol.md` and pinned byte-for-byte by a golden
//!   fixture test.
//! * **Daemon** ([`daemon`]) — serves a `PolicyService` over TCP or
//!   Unix-domain sockets: pipelined connections, out-of-order replies
//!   matched by request id, per-connection sessions, submit bursts
//!   enqueued straight into group commit, graceful drain on shutdown.
//! * **Client** ([`client`]) — [`WireClient`], a blocking socket client
//!   that itself implements [`PolicyService`], so local and remote
//!   services are interchangeable behind one trait.
//!
//! The `wire_write` workload of `benchmark/` measures the group-commit
//! write path over a socket (`group_commit.cmds_per_epoch`);
//! `group_commit.solo_overhead_us` times an in-process submit, which
//! does not reach the combiner.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Serving-path hygiene: no unwrap/expect/panic! outside tests (the
// test exemption lives in the workspace clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod client;
pub mod daemon;
pub mod group_commit;
pub mod protocol;
pub mod replication;
pub mod service;
pub mod wire;

pub use client::WireClient;
pub use daemon::{Daemon, DaemonConfig, WireListener};
pub use group_commit::GroupCommit;
pub use protocol::{
    PolicyService, RefinementDirection, RefinementReply, ReplicationRole, ReplicationStatus,
    Request, Response, ServiceError, ServiceStats, VersionInfo,
};
pub use replication::{FollowTarget, Follower, ReplicatedService, ReplicationHub};
pub use service::MonitorService;
pub use wire::{WireError, MAX_PAYLOAD, WIRE_VERSION};
